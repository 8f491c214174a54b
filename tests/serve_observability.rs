//! Serving-layer observability: per-request tracing, the always-on
//! flight recorder, and the metrics exposition surface.
//!
//! Pins the production-observability contract end to end:
//!
//! * every request admitted to a traced [`RequestQueue`] appears in the
//!   exported Chrome trace as a parent `request` async span with nested
//!   stage children (`queue_wait`, `coalesce`, `analyze`/`factorize` on
//!   a miss, `solve`) and a flow arrow into the solver ranks;
//! * on the sim backend the exported trace is a byte-identical function
//!   of `(seed, policy)`;
//! * a forced rank panic and a watchdog trip each dump a black box that
//!   names the in-flight request ids;
//! * the Prometheus text exposition is pinned against a committed golden
//!   file (regenerate with `PASTIX_UPDATE_GOLDEN=1`), and the session's
//!   opt-in scrape endpoint serves the same rendering over HTTP.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::Backend;
use pastix::solver::{ChaosOptions, SolverConfig};
use pastix_serve::{RequestQueue, SessionOptions, SolverSession};
use pastix_trace::export::{chrome_trace, validate_chrome_trace};
use pastix_trace::metrics::MetricsRegistry;
use pastix_trace::{flight, TraceOptions};
use std::sync::Mutex;

/// Serializes tests that touch process-global state: the black-box dump
/// directory, the watchdog environment knobs. Poisoning is
/// ignored — a failed test must not cascade into the others.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_matrix() -> pastix::graph::SymCsc<f64> {
    grid_spd::<f64>(8, 8, 1, Stencil::Star, false, ValueKind::RandomSpd(31))
}

fn sim_opts(seed: u64, policy: SchedPolicy, max_panel: usize) -> SessionOptions {
    let mut topts = TraceOptions::deterministic();
    topts.sample_every = 1;
    let mut solver = SolverConfig::new()
        .with_backend(Backend::Sim(FaultPlan::builder(seed).policy(policy).build()))
        .with_trace(topts);
    solver.analyze.sched.block_size = 8;
    SessionOptions { procs: 3, max_panel, solver, ..Default::default() }
}

fn submit_requests(
    q: &mut RequestQueue<f64>,
    a: &pastix::graph::SymCsc<f64>,
    count: usize,
    t0: u64,
) -> Vec<u64> {
    let n = a.n();
    (0..count)
        .map(|r| {
            let xe: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3 + r * 7) % 11) as f64).collect();
            q.submit(rhs_for_solution(a, &xe), t0 + 100 * r as u64)
        })
        .collect()
}

/// Events of phase `ph` on the serve category, as `(name, async id)`.
fn serve_events(j: &pastix_json::Json, ph: &str) -> Vec<(String, u64)> {
    j.get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str().ok().map(str::to_string)).as_deref() == Some(ph))
        .filter(|e| e.get("cat").and_then(|c| c.as_str().ok().map(str::to_string)).as_deref() == Some("serve"))
        .map(|e| {
            (
                e.get("name").unwrap().as_str().unwrap().to_string(),
                e.get("id").unwrap().as_f64().unwrap() as u64,
            )
        })
        .collect()
}

/// Every admitted request shows up in the Chrome export as a parent
/// `request` span with its stage children under the same async id, and
/// dispatch draws flow arrows into the solver ranks.
#[test]
fn every_request_exports_parent_and_stage_spans() {
    let a = test_matrix();
    let mut session = SolverSession::<f64>::new(sim_opts(11, SchedPolicy::Uniform, 2));
    let mut q = RequestQueue::traced();
    let ids = submit_requests(&mut q, &a, 5, 0);
    let mut t = 1_000u64;
    while !q.is_empty() {
        q.serve_batch(&mut session, &a, t, t + 500).expect("serve batch");
        t += 1_000;
    }
    let log = q.take_trace();
    assert_eq!(log.ranks[0].rank, pastix_trace::SERVE_RANK);
    let j = chrome_trace(&log);
    validate_chrome_trace(&j).expect("exported trace must validate");

    let begins = serve_events(&j, "b");
    let ends = serve_events(&j, "e");
    for &id in &ids {
        for stage in ["request", "queue_wait", "coalesce", "solve"] {
            let k = (stage.to_string(), id);
            assert!(begins.contains(&k), "request {id}: missing {stage} begin");
            assert!(ends.contains(&k), "request {id}: missing {stage} end");
        }
    }
    // The first batch factorized (cache miss): its riders carry the
    // amortized analyze/factorize markers; later batches hit and don't.
    for stage in ["analyze", "factorize"] {
        assert!(begins.contains(&(stage.to_string(), ids[0])), "miss batch: missing {stage}");
        assert!(
            !begins.contains(&(stage.to_string(), ids[4])),
            "hit batch must not re-mark {stage}"
        );
    }
    // Dispatch→solver-rank causality: at least one flow arrow per batch.
    let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
    let n_starts = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str().ok().map(str::to_string)).as_deref() == Some("s"))
        .count();
    assert!(n_starts >= 3, "expected a flow arrow per batch, got {n_starts}");
}

/// On the sim backend the exported serving trace is a pure function of
/// `(seed, policy)`: two identical runs are byte-identical.
#[test]
fn serve_trace_byte_identical_per_seed_policy() {
    let a = test_matrix();
    let run = |seed: u64, policy: SchedPolicy| -> String {
        let mut session = SolverSession::<f64>::new(sim_opts(seed, policy, 4));
        let mut q = RequestQueue::traced();
        submit_requests(&mut q, &a, 6, 0);
        let mut t = 1_000u64;
        while !q.is_empty() {
            q.serve_batch(&mut session, &a, t, t + 500).expect("serve batch");
            t += 1_000;
        }
        chrome_trace(&q.take_trace()).compact()
    };
    for policy in [SchedPolicy::Uniform, SchedPolicy::DeliverLast] {
        assert_eq!(run(17, policy), run(17, policy), "trace must be deterministic per (seed, policy)");
    }
}

fn fresh_dump_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pastix-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dumps_with_reason(dir: &std::path::Path, reason: &str) -> Vec<pastix_json::Json> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("blackbox-"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|s| pastix_json::Json::parse(&s).ok())
        .filter(|j| {
            j.get("reason").and_then(|r| r.as_str().ok().map(str::to_string)).as_deref() == Some(reason)
        })
        .collect()
}

fn in_flight_ids(dump: &pastix_json::Json) -> Vec<u64> {
    dump.get("requests_in_flight")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as u64)
        .collect()
}

/// A worker panic mid-factorization dumps a black box (via the panic
/// hook the session installs) that names the admitted-but-unfinished
/// request ids.
#[test]
fn forced_panic_dumps_blackbox_naming_in_flight_requests() {
    let _g = global_lock();
    let dir = fresh_dump_dir("panic");
    flight::set_blackbox_dir(Some(&dir));

    let a = test_matrix();
    let mut opts = sim_opts(13, SchedPolicy::Uniform, 4);
    opts.solver = opts.solver.with_chaos(ChaosOptions {
        panic_at: Some((0, 0)),
        ..Default::default()
    });
    let mut session = SolverSession::<f64>::new(opts);
    let mut q = RequestQueue::traced();
    let ids = submit_requests(&mut q, &a, 2, 0);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = q.serve_batch(&mut session, &a, 1_000, 2_000);
    }));
    flight::set_blackbox_dir(None);
    assert!(caught.is_err(), "injected panic must propagate");

    let dumps = dumps_with_reason(&dir, "panic");
    assert!(!dumps.is_empty(), "panic must leave a black-box dump in {}", dir.display());
    let named = dumps.iter().any(|d| {
        let inflight = in_flight_ids(d);
        ids.iter().all(|id| inflight.contains(id))
    });
    assert!(named, "black box must name the in-flight requests {ids:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watchdog trip during `serve_batch` dumps a black box *before* the
/// batch's tickets are marked complete, so the dump names them as in
/// flight, and the session counts the trip.
#[test]
fn watchdog_trip_dumps_blackbox_naming_in_flight_requests() {
    let _g = global_lock();
    let dir = fresh_dump_dir("watchdog");
    flight::set_blackbox_dir(Some(&dir));
    // Hair-trigger gap threshold: any progress gap flags, so the trip is
    // deterministic regardless of problem size.
    std::env::set_var("PASTIX_WATCHDOG_GAP", "1,0.001");

    let a = test_matrix();
    let mut session =
        SolverSession::<f64>::new(sim_opts(7, SchedPolicy::StarveRank(1), 4));
    let mut q = RequestQueue::traced();
    let ids = submit_requests(&mut q, &a, 3, 0);
    q.serve_batch(&mut session, &a, 1_000, 2_000).expect("chaos serve");

    std::env::remove_var("PASTIX_WATCHDOG_GAP");
    flight::set_blackbox_dir(None);

    assert!(
        session.metrics().counter("serve.watchdog.trips") >= 1,
        "watchdog must trip under the hair-trigger threshold"
    );
    let dumps = dumps_with_reason(&dir, "watchdog_trip");
    assert!(!dumps.is_empty(), "trip must leave a black-box dump in {}", dir.display());
    let named = dumps.iter().any(|d| {
        let inflight = in_flight_ids(d);
        ids.iter().all(|id| inflight.contains(id))
    });
    assert!(named, "black box must name the in-flight requests {ids:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden-file pin of the Prometheus text exposition: a hand-built
/// registry covering all three metric types (with per-rank shards)
/// renders byte-identically to the committed artifact. Regenerate
/// deliberately with
/// `PASTIX_UPDATE_GOLDEN=1 cargo test -p pastix-integration prometheus`.
#[test]
fn prometheus_exposition_matches_golden_file() {
    let m = MetricsRegistry::new();
    m.add_counter("serve.requests", 48);
    m.add_counter("serve.cache.hits", 40);
    m.add_counter("serve.cache.misses", 8);
    m.add_counter_rank("solve.tasks", Some(0), 600);
    m.add_counter_rank("solve.tasks", Some(1), 668);
    m.set_gauge("serve.cache.resident_bytes", 3_866_624.0);
    m.set_gauge("serve.cache.entries", 2.0);
    for v in [900, 1_100, 1_500, 2_200, 3_700, 6_100, 9_900, 17_000] {
        m.observe("serve.queue_wait_ns", v);
    }
    for v in [12_000, 14_000, 13_000, 52_000] {
        m.observe("serve.solve_ns", v);
    }
    let body = m.snapshot().to_prometheus();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/prometheus_serve.txt");
    if std::env::var_os("PASTIX_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &body).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — regenerate with PASTIX_UPDATE_GOLDEN=1");
    assert_eq!(
        body, golden,
        "Prometheus exposition drifted from the golden file; if the change \
         is intentional, regenerate with PASTIX_UPDATE_GOLDEN=1"
    );
}

/// The session's opt-in scrape endpoint serves the registry's Prometheus
/// rendering over plain HTTP.
#[test]
fn session_scrape_endpoint_serves_metrics() {
    use std::io::{Read, Write};
    let a = test_matrix();
    let mut opts = sim_opts(3, SchedPolicy::Uniform, 2);
    opts.metrics_addr = Some("127.0.0.1:0".to_string());
    let mut session = SolverSession::<f64>::new(opts);
    let b = rhs_for_solution(&a, &vec![1.0; a.n()]);
    session.solve(&a, &b).expect("solve");

    let addr = session.metrics_addr().expect("endpoint must be live");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "bad status line: {resp:.60}");
    assert!(resp.contains("text/plain; version=0.0.4"), "missing exposition content type");
    assert!(resp.contains("pastix_serve_plan_misses"), "scrape body must carry session counters");
    assert!(resp.contains("pastix_serve_cache_misses"), "scrape body must carry cache counters");
}
