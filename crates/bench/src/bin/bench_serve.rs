//! Factorization-as-a-service benchmark: the serving layer under an
//! open-loop arrival process, with its observability surface gated.
//!
//! Seven segments, all but the second on the Shipsec5 analog:
//!
//! 1. **Agreement + batching throughput** (threads backend): a k=8
//!    multi-RHS panel solve must agree entrywise with 8 independent
//!    single-RHS solves (gated, ≤ 1e-7 relative) and complete at least
//!    2× faster than serving the same 8 requests one at a time (gated).
//! 2. **Solve engines** (four problems at fixed sizes): absolute
//!    milliseconds of the static panel solve and of the one-thread
//!    sequential sweep at k=1 and k=8, and of the matrix fingerprint;
//!    the parallel engine must not lose to one thread (gated: one
//!    paired best-of measurement per problem, its repetitions dealt over
//!    three passes through the problems, nothing re-measured; `skipped`
//!    on a one-CPU box).
//! 3. **Open-loop serving**: deterministic arrivals against a virtual
//!    clock through `RequestQueue::serve_batch`; reports solves/sec and
//!    p50/p99 latency for each stage (end-to-end, queue wait, solve) out
//!    of the session's metrics histograms.
//! 4. **Cache behavior**: three distinct matrices through a
//!    capacity-2 session; reports the hit rate and eviction count.
//! 5. **Observability overhead** (gated): the same batch workload with
//!    the flight recorder disabled + an untraced queue vs. both on must
//!    cost < 2% extra (paired best-of timing).
//! 6. **Scheduled-solve reconciliation** (sim backend, logical clocks):
//!    the traced panel solve must reconcile ≥ 95% against the level-set
//!    solve schedule (gated); a chaos `StarveRank` run served through a
//!    traced queue trips the in-queue watchdog
//!    (`PASTIX_WATCHDOG_BACKLOG=8,0.2`) and must leave a black-box dump
//!    naming the batch's tickets as in flight (gated).
//! 7. **Trace determinism** (gated): two identical traced serving runs
//!    on the sim backend must export byte-identical Chrome traces.
//!
//! Outputs `BENCH_serve.json` at the repo root and the serve trace
//! reconciliation report at `target/serve_trace.json` (CI artifacts).
//! `--quick` shrinks the problem for CI.

use pastix_bench::{prepare, scale, scotch_ordering};
use pastix_graph::{build_problem, Parallelism, ProblemId, SymCsc};
use pastix_json::{obj, Json};
use pastix_runtime::sim::{FaultPlan, SchedPolicy};
use pastix_runtime::Backend;
use pastix_sched::SchedOptions;
use pastix_serve::{MatrixFingerprint, RequestQueue, SessionOptions, SolverSession};
use pastix_solver::{solve_block_in_place, AnalyzeOptions, Plan, SolverConfig};
use pastix_trace::export::chrome_trace;
use pastix_trace::flight;
use pastix_trace::report::build_solve_report;
use pastix_trace::watchdog::{analyze as watchdog_analyze, WatchdogOptions};
use pastix_trace::TraceOptions;
use std::path::Path;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
const TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serve_trace.json");
const BLACKBOX_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");

/// Agreement gate: batched vs single-RHS entrywise relative error.
const AGREE_TOL: f64 = 1e-7;
/// Throughput gate: batched k=8 must beat one-at-a-time by this factor.
const SPEEDUP_MIN: f64 = 2.0;
/// Reconciliation gate for the scheduled solve trace.
const RECONCILE_MIN: f64 = 0.95;
/// Observability gate: flight recorder + request tracing overhead.
const OVERHEAD_MAX: f64 = 0.02;
/// Panel width of the gated throughput comparison.
const K: usize = 8;
/// The solve-engine segment's problems, at sizes where a solve is
/// milliseconds (independent of `PASTIX_SCALE`): a plate, two shells, a
/// solid.
const ENGINE_PROBLEMS: [(ProblemId, f64); 4] = [
    (ProblemId::Quer, 1.0),
    (ProblemId::Ship001, 0.5),
    (ProblemId::Oilpan, 0.2),
    (ProblemId::Bmwcra1, 0.1),
];

/// Rounds the solve-engine segment's repetitions are dealt over.
const ENGINE_ROUNDS: usize = 3;

/// One problem of the solve-engine segment: its factor, and best-of
/// milliseconds (`[k=1, k=8]`) so far.
struct EngineCase {
    name: String,
    a: SymCsc<f64>,
    plan: Plan,
    run: pastix_solver::FactorRun<f64>,
    rhs: Vec<f64>,
    solve_ms: [f64; 2],
    seq_sweep_ms: [f64; 2],
    fingerprint_ms: f64,
    /// Per round, this round's own `solve / sweep` best-of ratio at
    /// `[k=1, k=8]` — recorded, not gated: it shows when a round ran
    /// with a core taken away.
    round_ratio: Vec<[f64; 2]>,
}

impl EngineCase {
    fn new(id: ProblemId, scale: f64, procs: usize) -> Self {
        let a = build_problem::<f64>(id, scale);
        let cfg = SolverConfig::new().with_analyze(AnalyzeOptions {
            procs,
            parallelism: Parallelism::Threads(procs),
            ..AnalyzeOptions::default()
        });
        let plan = Plan::analyze(&a, &cfg);
        let run = plan.factorize(&a, &cfg).expect("engine segment factorization");
        let rhs: Vec<f64> = (0..K).flat_map(|r| request_rhs(&a, r)).collect();
        Self {
            name: id.name().to_lowercase(),
            a,
            plan,
            run,
            rhs,
            solve_ms: [f64::MAX; 2],
            seq_sweep_ms: [f64::MAX; 2],
            fingerprint_ms: f64::MAX,
            round_ratio: Vec::new(),
        }
    }

    /// One round: `reps` repetitions of the static panel solve against the
    /// sequential sweep over the same factor at k=1 and k=8, and of the
    /// fingerprint. Paired best-of: every repetition times both sides back
    /// to back (alternating which goes first), so a noisy neighbour slows
    /// both, and the minimum over all repetitions of all rounds is what
    /// the gate compares — the derivation `bench_serve`'s overhead gate
    /// uses.
    fn measure(&mut self, reps: usize) {
        let n = self.a.n();
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let mut ratio = [0.0; 2];
        for (slot, k) in [1usize, K].into_iter().enumerate() {
            let b = &self.rhs[..n * k];
            let (mut solve, mut sweep) = (f64::MAX, f64::MAX);
            for rep in 0..reps {
                for parallel in [rep % 2 == 0, rep % 2 == 1] {
                    if parallel {
                        let t0 = Instant::now();
                        std::hint::black_box(self.run.solve_panel(b, k));
                        solve = solve.min(ms(t0));
                    } else {
                        // The sweep works in elimination order; same flops either way.
                        let mut x = b.to_vec();
                        let t0 = Instant::now();
                        solve_block_in_place(self.plan.symbol(), &self.run.storage, &mut x, k);
                        std::hint::black_box(&x);
                        sweep = sweep.min(ms(t0));
                    }
                }
            }
            self.solve_ms[slot] = self.solve_ms[slot].min(solve);
            self.seq_sweep_ms[slot] = self.seq_sweep_ms[slot].min(sweep);
            ratio[slot] = solve / sweep;
        }
        self.round_ratio.push(ratio);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(MatrixFingerprint::of(&self.a));
            self.fingerprint_ms = self.fingerprint_ms.min(ms(t0));
        }
    }
}

fn session_opts(procs: usize, block: usize, solver: SolverConfig) -> SessionOptions {
    SessionOptions {
        procs,
        max_panel: K,
        sched: SchedOptions { block_size: block, ..Default::default() },
        solver,
        ..Default::default()
    }
}

/// Deterministic request stream: RHS r of order n.
fn request_rhs(a: &SymCsc<f64>, r: usize) -> Vec<f64> {
    let n = a.n();
    let xe: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 + r * 13) % 17) as f64 * 0.125).collect();
    pastix_graph::rhs_for_solution(a, &xe)
}

/// Black-box dump files currently in the target directory.
fn blackbox_files() -> Vec<String> {
    std::fs::read_dir(BLACKBOX_DIR)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("blackbox-") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_serve ({mode}) — factorization-as-a-service on Shipsec5");

    let sc = if quick { 0.02 } else { scale() };
    let procs = 4;
    let block = if quick { 16 } else { 32 };
    let prep = prepare(ProblemId::Shipsec5, sc, &scotch_ordering());
    let a = prep.matrix.clone();
    let n = a.n();
    println!("problem {} n={n} procs={procs}", prep.id.name());

    // ---- segment 1: agreement + batching throughput (threads) ----
    let mut session = SolverSession::<f64>::new(session_opts(procs, block, SolverConfig::default()));
    session.get_or_factorize(&a).expect("factorization failed");
    let rhs: Vec<Vec<f64>> = (0..K).map(|r| request_rhs(&a, r)).collect();
    let mut panel = vec![0.0f64; n * K];
    for (r, b) in rhs.iter().enumerate() {
        panel[r * n..(r + 1) * n].copy_from_slice(b);
    }

    // Warm both paths once, then time best-of-3.
    let singles: Vec<Vec<f64>> =
        rhs.iter().map(|b| session.solve(&a, b).expect("single solve")).collect();
    let (batched, _) = session.solve_panel(&a, &panel, K).expect("panel solve");
    let mut max_rel = 0.0f64;
    for (r, x1) in singles.iter().enumerate() {
        for (u, v) in batched[r * n..(r + 1) * n].iter().zip(x1) {
            let rel = (u - v).abs() / v.abs().max(1.0);
            max_rel = max_rel.max(rel);
        }
    }
    let resid = (0..K)
        .map(|r| a.residual_norm(&batched[r * n..(r + 1) * n], &rhs[r]))
        .fold(0.0f64, f64::max);
    let agree_ok = max_rel <= AGREE_TOL && resid < 1e-9;
    println!(
        "agreement: batched k={K} vs singles max rel err {max_rel:.2e}, worst residual {resid:.2e} — {}",
        if agree_ok { "MET" } else { "NOT MET" }
    );

    let time_best = |mut f: Box<dyn FnMut() + '_>| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    let one_at_a_time_ns = {
        let s = &mut session;
        let a = &a;
        let rhs = &rhs;
        time_best(Box::new(move || {
            for b in rhs {
                let _ = s.solve(a, b).expect("single solve");
            }
        }))
    };
    let batched_ns = {
        let s = &mut session;
        let a = &a;
        let panel = &panel;
        time_best(Box::new(move || {
            let _ = s.solve_panel(a, panel, K).expect("panel solve");
        }))
    };
    let speedup = one_at_a_time_ns as f64 / batched_ns.max(1) as f64;
    let speedup_ok = speedup >= SPEEDUP_MIN;
    println!(
        "throughput: {K} singles {:.3} ms vs one k={K} panel {:.3} ms — batched {speedup:.2}x ({})",
        one_at_a_time_ns as f64 / 1e6,
        batched_ns as f64 / 1e6,
        if speedup_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 2: the solve engines, absolute and against one thread ----
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let engine_procs = cpus.clamp(2, 4);
    // One measurement per problem, nothing measured again after a look at
    // the outcome. The gate compares the two minima of a paired best-of,
    // so what makes it repeatable is how many repetitions there are and
    // how far apart: at 31 back-to-back repetitions SHIP001 k=1 (a 2.5 ms
    // solve, the thinnest margin) read 0.87–1.20× the sweep over five
    // runs on this two-core sandbox, at 201 both minima settle to ±3 %;
    // and because the sandbox loses a core to a neighbour for seconds at
    // a time (a whole problem then reads 1.3–1.4×, both threads sharing
    // one core), the repetitions are dealt over `ENGINE_ROUNDS` passes
    // through the problems, so each problem samples the whole segment.
    // A neighbour that stays for the whole segment fails the gate, and
    // the per-round ratios in the JSON show that it was there.
    let engine_reps = if quick { 34 } else { 67 };
    let mut engines: Vec<EngineCase> =
        ENGINE_PROBLEMS.iter().map(|&(id, sc)| EngineCase::new(id, sc, engine_procs)).collect();
    for _ in 0..ENGINE_ROUNDS {
        engines.iter_mut().for_each(|e| e.measure(engine_reps));
    }
    let engine_wins = |e: &EngineCase| e.solve_ms[0] <= e.seq_sweep_ms[0] && e.solve_ms[1] <= e.seq_sweep_ms[1];
    let mut engines_ok = true;
    for e in &engines {
        let wins = engine_wins(e);
        engines_ok &= wins || cpus < 2;
        println!(
            "engines {:<8} ({engine_procs} procs): k=1 solve {:.2} ms vs sweep {:.2} ms | k={K} solve {:.2} ms vs sweep {:.2} ms | fingerprint {:.2} ms | per-round solve/sweep {:.2?} — {}",
            e.name,
            e.solve_ms[0],
            e.seq_sweep_ms[0],
            e.solve_ms[1],
            e.seq_sweep_ms[1],
            e.fingerprint_ms,
            e.round_ratio,
            match (cpus < 2, wins) {
                (true, _) => "skipped (one CPU)",
                (false, true) => "MET",
                (false, false) => "NOT MET",
            }
        );
    }

    // ---- segment 3: open-loop serving against a virtual clock ----
    let n_requests = if quick { 48 } else { 256 };
    // Deterministic arrivals: mean spacing well below the batched solve
    // time, so the queue actually coalesces.
    let mean_gap_ns = (batched_ns / K as u64 / 2).max(1);
    let arrivals: Vec<u64> = (0..n_requests)
        .scan(0u64, |t, i| {
            *t += mean_gap_ns * ((i * 31 + 7) % 23 + 12) as u64 / 23;
            Some(*t)
        })
        .collect();
    let mut q = RequestQueue::new();
    let mut now = 0u64;
    let mut next = 0usize;
    let mut served = 0usize;
    let mut batches = 0usize;
    let t_serve0 = Instant::now();
    while next < arrivals.len() || !q.is_empty() {
        if q.is_empty() {
            now = now.max(arrivals[next]);
        }
        while next < arrivals.len() && arrivals[next] <= now {
            q.submit(request_rhs(&a, next), arrivals[next]);
            next += 1;
        }
        let width = q.len().min(session.options().max_panel);
        if width == 0 {
            continue;
        }
        // Virtual solve cost: the measured k=K panel time, pro-rated to
        // this batch's width. serve_batch splits each ticket's latency at
        // the dispatch timestamp into queue-wait and solve.
        let cost = (batched_ns * width as u64 / K as u64).max(1);
        let done = q.serve_batch(&mut session, &a, now, now + cost).expect("serve batch");
        now += cost;
        served += done.len();
        batches += 1;
    }
    let wall_serving_ns = t_serve0.elapsed().as_nanos().max(1) as u64;
    let virtual_span_s = now as f64 / 1e9;
    let solves_per_sec = served as f64 / virtual_span_s.max(1e-12);
    let m = session.metrics();
    let lat = m.histogram("serve.latency_ns").expect("latency histogram");
    let qw = m.histogram("serve.queue_wait_ns").expect("queue-wait histogram");
    let sv = m.histogram("serve.solve_ns").expect("solve histogram");
    let (p50, p99) = (lat.quantile(0.5), lat.quantile(0.99));
    let (qw50, qw99) = (qw.quantile(0.5), qw.quantile(0.99));
    let (sv50, sv99) = (sv.quantile(0.5), sv.quantile(0.99));
    let mean_width = m.histogram("serve.batch_width").map(|h| h.mean()).unwrap_or(0.0);
    let (ol_hits, ol_misses) = (m.counter("serve.cache.hits"), m.counter("serve.cache.misses"));
    let ol_hit_rate = ol_hits as f64 / (ol_hits + ol_misses).max(1) as f64;
    println!(
        "open loop: {served} requests in {batches} batches (mean width {mean_width:.2}) — {solves_per_sec:.1} solves/s (virtual clock; wall {:.0} ms)",
        wall_serving_ns as f64 / 1e6,
    );
    println!(
        "  stage latency (ms): end-to-end p50 {:.3} p99 {:.3} | queue-wait p50 {:.3} p99 {:.3} | solve p50 {:.3} p99 {:.3} | cache hit rate {:.0}%",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        qw50 as f64 / 1e6,
        qw99 as f64 / 1e6,
        sv50 as f64 / 1e6,
        sv99 as f64 / 1e6,
        ol_hit_rate * 100.0,
    );

    // ---- segment 4: cache behavior across matrices ----
    let mut cache_session =
        SolverSession::<f64>::new(SessionOptions { capacity: 2, ..session_opts(procs, block, SolverConfig::default()) });
    // Three distinct fingerprints: the serving matrix plus two numeric
    // variants (same structure, different values — distinct factors).
    let variant = |shift: f64| {
        let mut m = a.clone();
        m.make_diag_dominant(shift);
        m
    };
    // (`prepare` already shifts by 1.0, so 1.0 would reproduce `a` exactly
    // — the fingerprint would correctly coalesce them into one entry.)
    let (m1, m2, m3) = (a.clone(), variant(0.5), variant(1.5));
    for m in [&m1, &m2, &m1, &m2, &m3, &m1] {
        let b = request_rhs(m, 0);
        let _ = cache_session.solve(m, &b).expect("cache segment solve");
    }
    let cm = cache_session.metrics();
    let (hits, misses, evictions) =
        (cm.counter("serve.cache.hits"), cm.counter("serve.cache.misses"), cm.counter("serve.cache.evictions"));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "cache: {hits} hits / {misses} misses (rate {:.0}%), {evictions} evictions, resident {} entries / {:.1} MiB",
        hit_rate * 100.0,
        cache_session.len(),
        cache_session.resident_bytes() as f64 / (1024.0 * 1024.0),
    );

    // ---- segment 5: observability overhead gate ----
    // The same warm-cache batch workload, paired: flight recorder off +
    // untraced queue vs. both on. Every rep times both variants back to
    // back, alternating which goes first; best-of filters scheduler noise
    // (the batches are a few ms now, so 2% is ~0.1 ms: enough repetitions
    // for both minima to settle). The gate carries a small absolute floor
    // so quick-mode runs (sub-ms solves) don't flake on timer granularity.
    let reps = if quick { 15 } else { 31 };
    let obs_requests = 2 * K;
    let mut base_ns = u64::MAX;
    let mut inst_ns = u64::MAX;
    for rep in 0..reps {
        for traced in [rep % 2 == 1, rep % 2 == 0] {
            flight::set_enabled(traced);
            let mut oq = if traced { RequestQueue::traced() } else { RequestQueue::new() };
            let t0 = Instant::now();
            for r in 0..obs_requests {
                oq.submit(request_rhs(&a, r), r as u64 * 1_000);
            }
            let mut t = obs_requests as u64 * 1_000;
            while !oq.is_empty() {
                oq.serve_batch(&mut session, &a, t, t + 1_000).expect("overhead serve");
                t += 2_000;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if traced {
                inst_ns = inst_ns.min(ns);
            } else {
                base_ns = base_ns.min(ns);
            }
        }
    }
    flight::set_enabled(true);
    let overhead = inst_ns as f64 / base_ns.max(1) as f64 - 1.0;
    let overhead_ok =
        inst_ns <= base_ns + (base_ns as f64 * OVERHEAD_MAX) as u64 + 10_000;
    println!(
        "observability overhead: baseline {:.3} ms vs flight+tracing {:.3} ms — {:+.2}% (gate < {:.0}%): {}",
        base_ns as f64 / 1e6,
        inst_ns as f64 / 1e6,
        overhead * 100.0,
        OVERHEAD_MAX * 100.0,
        if overhead_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 6: scheduled solve reconciliation + watchdog (sim) ----
    let mut topts = TraceOptions::deterministic();
    topts.sample_every = 1;
    let sim_cfg = SolverConfig::new()
        .with_backend(Backend::Sim(FaultPlan::builder(1).build()))
        .with_trace(topts);
    let mut sim_session = SolverSession::<f64>::new(session_opts(procs, block, sim_cfg));
    let cached = sim_session.get_or_factorize(&a).expect("sim factorization");
    let (_, log) = sim_session.solve_panel(&a, &panel, K).expect("sim panel solve");
    let report = build_solve_report(&cached.ssched, &log);
    println!("{}", report.render());
    let reconcile_ok = report.reconciliation >= RECONCILE_MIN;
    println!(
        "reconciliation gate (≥ {:.0}%): {}",
        RECONCILE_MIN * 100.0,
        if reconcile_ok { "MET" } else { "NOT MET" }
    );

    // Chaos serving run: starve a rank, let the watchdog name it. The
    // solve DAG's tasks are far finer-grained than factorization panels,
    // so the library defaults (tuned on factorization chaos runs) are too
    // coarse here: a starved rank shows up as mailbox backlog, not as a
    // progress gap — downstream ranks blocked on its output post the
    // larger gaps. This is exactly the "unusual problem shape" case the
    // watchdog docs route through the env knobs, so exercise that path.
    let chaos_cfg = SolverConfig::new()
        .with_backend(Backend::Sim(
            FaultPlan::builder(7).policy(SchedPolicy::StarveRank(1)).build(),
        ))
        .with_trace(topts);
    let mut chaos_session = SolverSession::<f64>::new(session_opts(procs, block, chaos_cfg));
    chaos_session.get_or_factorize(&a).expect("chaos factorization");
    let (_, chaos_log) = chaos_session.solve_panel(&a, &panel, K).expect("chaos panel solve");
    std::env::set_var("PASTIX_WATCHDOG_BACKLOG", "8,0.2");
    let wd = watchdog_analyze(&chaos_log, &WatchdogOptions::from_env());
    print!("{}", wd.render());
    let stalled = wd.stalled_ranks();
    println!(
        "watchdog (StarveRank(1), PASTIX_WATCHDOG_BACKLOG=8,0.2): stalled ranks {:?}",
        stalled
    );
    // Now the same chaos solve through a traced queue: serve_batch runs
    // the watchdog on the fresh solve trace before the batch's tickets
    // leave the flight ring, so a trip dumps a black box that names them
    // as in flight. The gap knob here is deliberately hair-trigger (any
    // progress gap flags) so the trip→dump plumbing is exercised
    // deterministically at every problem scale — the realistic
    // StarveRank detection is the report above.
    flight::set_blackbox_dir(Some(Path::new(BLACKBOX_DIR)));
    let before = blackbox_files();
    std::env::set_var("PASTIX_WATCHDOG_GAP", "1,0.001");
    let mut cq = RequestQueue::traced();
    for (r, b) in rhs.iter().enumerate() {
        cq.submit(b.clone(), r as u64 * 100);
    }
    cq.serve_batch(&mut chaos_session, &a, 1_000, 2_000).expect("chaos serve");
    std::env::remove_var("PASTIX_WATCHDOG_GAP");
    std::env::remove_var("PASTIX_WATCHDOG_BACKLOG");
    let trips = chaos_session.metrics().counter("serve.watchdog.trips");
    let new_dump = blackbox_files().into_iter().find(|f| !before.contains(f));
    let blackbox_ok = trips >= 1 && new_dump.is_some();
    println!(
        "flight recorder: {trips} watchdog trip(s), black box {} — {}",
        new_dump.as_deref().unwrap_or("MISSING"),
        if blackbox_ok { "MET" } else { "NOT MET" }
    );

    // ---- segment 7: trace determinism on the sim backend ----
    // Two identical traced serving runs (same seed, policy, request
    // stream, virtual timestamps) must export byte-identical Chrome
    // traces — the request spans ride the virtual clock and the solve
    // spans ride the sim backend's logical clocks.
    let traced_run = || -> String {
        let cfg = SolverConfig::new()
            .with_backend(Backend::Sim(FaultPlan::builder(1).build()))
            .with_trace(topts);
        let mut s = SolverSession::<f64>::new(session_opts(procs, block, cfg));
        let mut tq = RequestQueue::traced();
        for (r, b) in rhs.iter().enumerate() {
            tq.submit(b.clone(), r as u64 * 50);
        }
        tq.serve_batch(&mut s, &a, 500, 1_500).expect("traced serve");
        for (r, b) in rhs.iter().enumerate() {
            tq.submit(b.clone(), 2_000 + r as u64 * 50);
        }
        tq.serve_batch(&mut s, &a, 2_500, 3_500).expect("traced serve");
        chrome_trace(&tq.take_trace()).compact()
    };
    let (run1, run2) = (traced_run(), traced_run());
    let identical_ok = run1 == run2;
    println!(
        "trace determinism: two traced serving runs export {} bytes — {}",
        run1.len(),
        if identical_ok { "byte-identical: MET" } else { "DIVERGENT: NOT MET" }
    );

    // ---- artifacts ----
    let engine_keys: Vec<(String, Json)> = engines
        .iter()
        .flat_map(|e| {
            [
                ("solve_k1_ms", e.solve_ms[0]),
                ("solve_k8_ms", e.solve_ms[1]),
                ("seq_sweep_k1_ms", e.seq_sweep_ms[0]),
                ("seq_sweep_k8_ms", e.seq_sweep_ms[1]),
                ("fingerprint_ms", e.fingerprint_ms),
            ]
            .map(|(key, v)| (format!("{}_{key}", e.name), Json::Num(v)))
            .into_iter()
            .chain([0, 1].map(|slot| {
                let rounds = e.round_ratio.iter().map(|r| Json::Num(r[slot])).collect();
                (format!("{}_round_solve_over_sweep_k{}", e.name, [1, K][slot]), Json::Arr(rounds))
            }))
        })
        .collect();
    let j = obj([
        ("problem", Json::Str(prep.id.name().to_string())),
        ("n", Json::Num(n as f64)),
        ("procs", Json::Num(procs as f64)),
        ("panel_width", Json::Num(K as f64)),
        ("agreement_max_rel_err", Json::Num(max_rel)),
        ("agreement_worst_residual", Json::Num(resid)),
        ("one_at_a_time_ns", Json::Num(one_at_a_time_ns as f64)),
        ("batched_panel_ns", Json::Num(batched_ns as f64)),
        ("batched_speedup", Json::Num(speedup)),
        ("open_loop_requests", Json::Num(served as f64)),
        ("open_loop_batches", Json::Num(batches as f64)),
        ("open_loop_mean_batch_width", Json::Num(mean_width)),
        ("open_loop_cache_hit_rate", Json::Num(ol_hit_rate)),
        ("solves_per_sec", Json::Num(solves_per_sec)),
        ("latency_p50_ns", Json::Num(p50 as f64)),
        ("latency_p99_ns", Json::Num(p99 as f64)),
        ("queue_wait_p50_ns", Json::Num(qw50 as f64)),
        ("queue_wait_p99_ns", Json::Num(qw99 as f64)),
        ("solve_p50_ns", Json::Num(sv50 as f64)),
        ("solve_p99_ns", Json::Num(sv99 as f64)),
        ("observability_overhead_frac", Json::Num(overhead)),
        ("cache_hits", Json::Num(hits as f64)),
        ("cache_misses", Json::Num(misses as f64)),
        ("cache_evictions", Json::Num(evictions as f64)),
        ("cache_hit_rate", Json::Num(hit_rate)),
        ("solve_reconciliation", Json::Num(report.reconciliation)),
        ("solve_trace_fingerprint", Json::Str(format!("{:#018x}", log.fingerprint()))),
        ("watchdog_trips", Json::Num(trips as f64)),
        ("trace_byte_identical", Json::Num(if identical_ok { 1.0 } else { 0.0 })),
        (
            "watchdog_stalled_ranks",
            Json::Arr(stalled.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
    ]);
    let Json::Obj(mut fields) = j else { unreachable!("obj builds an object") };
    fields.push(("cpus".to_string(), Json::Num(cpus as f64)));
    fields.push(("engine_procs".to_string(), Json::Num(engine_procs as f64)));
    fields.push(("engine_reps".to_string(), Json::Num((engine_reps * ENGINE_ROUNDS) as f64)));
    fields.extend(engine_keys);
    let j = Json::Obj(fields);
    std::fs::write(OUT_PATH, j.pretty()).expect("write BENCH_serve.json");
    println!("wrote {OUT_PATH}");
    std::fs::write(TRACE_PATH, report.to_json().pretty()).expect("write serve_trace.json");
    println!("wrote {TRACE_PATH}");

    if !(agree_ok && speedup_ok && engines_ok && reconcile_ok && overhead_ok && blackbox_ok && identical_ok) {
        eprintln!(
            "FAIL: serving gates not met (agreement {agree_ok}, speedup {speedup_ok}, engines {engines_ok}, reconciliation {reconcile_ok}, overhead {overhead_ok}, blackbox {blackbox_ok}, trace determinism {identical_ok})"
        );
        std::process::exit(1);
    }
}
