//! Determinism and conservation invariants of the tracing layer.
//!
//! On the simulation backend a deterministic trace
//! (`TraceOptions::deterministic()`, logical clock) must be a pure
//! function of the fault plan's `(seed, policy)` and the schedule digest:
//! repeated runs compare **byte-identical** through
//! `TraceLog::canonical_bytes`. Separately, the communication counters
//! must conserve messages under every scheduling policy: every attempted
//! send is either received or reported dropped, so
//! `sends + send_drops == recvs + send_drops` collapses to
//! `sends == recvs` once the run quiesces (the solver retries reported
//! drops and deduplicates injected duplicates, but the counters see each
//! transport-level attempt exactly once).

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::{canonical_solution, rhs_for_solution};
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::Backend;
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions};
use pastix::solver::{
    MetricsRegistry, Plan, SolveRequest, SolverConfig, TraceOptions,
};
use pastix::symbolic::{analyze, AnalysisOptions};
use pastix::trace::export::{chrome_trace_with, validate_chrome_trace};
use pastix::trace::report::build_report;
use pastix::trace::watchdog::{analyze as watchdog_analyze, WatchdogOptions};

fn setup(procs: usize) -> (pastix::graph::SymCsc<f64>, Mapping) {
    let a = grid_spd::<f64>(8, 8, 1, Stencil::Star, false, ValueKind::RandomSpd(7));
    let g = a.to_graph();
    let ord = nested_dissection(
        &g,
        &OrderingOptions {
            leaf_size: 8,
            ..Default::default()
        },
    );
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(procs);
    let mut opts = SchedOptions::default();
    opts.block_size = 4;
    opts.mapping.strategy = DistStrategy::Mixed1d2d;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 4;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    (a.permuted(&an.perm), mapping)
}

/// A `perm: None` plan over the case's graph/schedule (inputs already in
/// elimination order).
fn plan_of(mapping: &Mapping) -> Plan {
    Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()))
}

fn all_policies(seed: u64, procs: usize) -> [SchedPolicy; 4] {
    [
        SchedPolicy::Uniform,
        SchedPolicy::StarveRank(seed as usize % procs),
        SchedPolicy::DeliverLast,
        SchedPolicy::FifoPerPair,
    ]
}

/// Deterministic traces: for a fixed `(seed, policy)` the canonical byte
/// encoding of the factorization trace — events, ordering, byte counts,
/// logical timestamps — and the factor bits are identical across repeats,
/// with and without the Fan-Both cap (which AUB a partial flush picks must
/// not depend on hash order), and the trace differs across seeds (the
/// interleaving genuinely changes).
#[test]
fn sim_traces_are_byte_identical_for_fixed_seed_and_policy() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let pln = plan_of(&mapping);
    let mut fingerprints = Vec::new();
    for cap in [None, Some(16)] {
        for seed in [11u64, 12] {
            for policy in all_policies(seed, procs) {
                let plan = FaultPlan::builder(seed).policy(policy).build();
                let run = || {
                    let cfg = SolverConfig::new()
                        .with_backend(Backend::Sim(plan))
                        .with_aub_memory_limit(cap)
                        .with_trace(TraceOptions::deterministic());
                    let run = pln.factorize(&ap, &cfg).unwrap();
                    let bits: Vec<Vec<u64>> =
                        run.storage.panels.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect();
                    (run.trace, bits)
                };
                let (t1, f1) = run();
                let (t2, f2) = run();
                assert!(t1.event_count() > 0, "trace must record events");
                let diag = format!("cap {cap:?}, seed {seed}, policy {policy:?}");
                assert_eq!(
                    t1.canonical_bytes(),
                    t2.canonical_bytes(),
                    "{diag}: trace not replayed byte-identically"
                );
                assert!(f1 == f2, "{diag}: factor not replayed bit for bit");
                fingerprints.push(t1.fingerprint());
            }
        }
    }
    // Different seeds under the same policy must not collapse to one
    // interleaving (fingerprints of seed 11 vs 12, Uniform).
    assert_ne!(
        fingerprints[0], fingerprints[4],
        "different seeds should yield different traces"
    );
}

/// The distributed solve's deterministic trace replays byte-identically
/// too (it shares the session/instrumentation machinery but a different
/// message enum and task classes).
#[test]
fn sim_solve_traces_are_byte_identical() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let plan = FaultPlan::builder(23).policy(SchedPolicy::DeliverLast).build();
    let cfg = SolverConfig::new()
        .with_backend(Backend::Sim(plan))
        .with_trace(TraceOptions::deterministic());
    let f = plan_of(&mapping).factorize(&ap, &cfg).unwrap();
    let b = rhs_for_solution(&ap, &canonical_solution::<f64>(ap.n()));
    let solve = || {
        let out = f.solve_request(SolveRequest::single(&b).traced()).unwrap();
        (out.x, out.trace)
    };
    let (x1, t1) = solve();
    let (x2, t2) = solve();
    assert_eq!(x1, x2);
    assert!(t1.event_count() > 0);
    assert_eq!(t1.canonical_bytes(), t2.canonical_bytes());
}

/// Message conservation under all four scheduling policies, clean and
/// with reported-drop faults: at quiescence every accepted send was
/// received (`sends == recvs`, equivalently attempts == recvs + drops),
/// and under `drop_lossy` faults the drop counter is live. Byte counters
/// conserve the same way.
#[test]
fn comm_counters_conserve_messages_under_all_policies() {
    let procs = 4;
    let (ap, mapping) = setup(procs);
    let pln = plan_of(&mapping);
    for seed in [5u64, 6] {
        for policy in all_policies(seed, procs) {
            for drop_p in [0.0f64, 0.3] {
                let plan = FaultPlan::builder(seed)
                    .drop_lossy(drop_p)
                    .policy(policy)
                    .build();
                let cfg = SolverConfig::new()
                    .with_backend(Backend::Sim(plan))
                    .with_trace(TraceOptions::deterministic())
                    // Punishing cap: forces lossy AUB flush traffic so the
                    // drop/retry path is actually exercised.
                    .with_aub_memory_limit(Some(16))
                    .with_metrics(MetricsRegistry::new());
                let run = pln.factorize(&ap, &cfg).unwrap();
                let t = run.trace.comm_totals();
                let diag = format!("seed {seed}, policy {policy:?}, drop {drop_p}");
                assert!(t.sends > 0, "{diag}: no traffic recorded");
                assert_eq!(t.sends, t.recvs, "{diag}: messages not conserved: {t:?}");
                assert_eq!(t.send_bytes, t.recv_bytes, "{diag}: bytes not conserved");
                if drop_p > 0.0 {
                    assert!(t.send_drops > 0, "{diag}: faults injected but no drops seen");
                }
                // The registry mirrors the trace totals per rank.
                assert_eq!(run.metrics.counter("comm.sends"), t.sends, "{diag}");
                assert_eq!(run.metrics.counter("comm.recvs"), t.recvs, "{diag}");
                assert_eq!(run.metrics.counter("comm.send_drops"), t.send_drops, "{diag}");
            }
        }
    }
}

/// The stall watchdog must detect adversarial starvation and stay silent
/// on healthy interleavings. Under `StarveRank(v)` the sim never services
/// the victim while anything else can run, so either the victim's
/// progress heartbeats cluster after the rest of the machine has raced
/// ahead (a progress gap) or its mailbox visibly piles up while it sits
/// unserviced (a backlog peak) — the watchdog combines both signatures
/// and must name exactly the victim. Under `Uniform` the same problem,
/// same seeds, must produce no stall verdicts (the false-positive
/// guard). Gauges are sampled at every completion because the backlog
/// signal reads the mailbox-depth time series.
#[test]
fn watchdog_flags_starved_rank_and_stays_silent_on_uniform() {
    let procs = 4;
    // A larger grid than the shared `setup`: the watchdog's relative
    // thresholds (gap_frac, backlog_frac) are statistical and need
    // enough tasks per rank that one rank legitimately finishing its
    // local leaves before another starts doesn't look like a stall.
    let a = grid_spd::<f64>(14, 14, 1, Stencil::Star, false, ValueKind::RandomSpd(7));
    let g = a.to_graph();
    let ord = nested_dissection(
        &g,
        &OrderingOptions {
            leaf_size: 8,
            ..Default::default()
        },
    );
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(procs);
    let mut opts = SchedOptions::default();
    opts.block_size = 4;
    opts.mapping.strategy = DistStrategy::Mixed1d2d;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 4;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    let ap = a.permuted(&an.perm);
    let pln = plan_of(&mapping);
    let run = |seed: u64, policy: SchedPolicy| {
        let plan = FaultPlan::builder(seed).policy(policy).build();
        let mut topts = TraceOptions::deterministic();
        topts.sample_every = 1;
        let cfg = SolverConfig::new()
            .with_backend(Backend::Sim(plan))
            .with_trace(topts);
        pln.factorize(&ap, &cfg).unwrap().trace
    };
    let opts = WatchdogOptions::default();
    for seed in [3u64, 4, 5] {
        for victim in 0..procs {
            let log = run(seed, SchedPolicy::StarveRank(victim));
            let rep = watchdog_analyze(&log, &opts);
            assert_eq!(
                rep.stalled_ranks(),
                vec![victim as u32],
                "seed {seed}: StarveRank({victim}) must flag exactly the victim\n{}",
                rep.render()
            );
        }
        let log = run(seed, SchedPolicy::Uniform);
        let rep = watchdog_analyze(&log, &opts);
        assert!(
            !rep.any_stalled(),
            "seed {seed}: healthy Uniform run false-flagged\n{}",
            rep.render()
        );
    }
}

/// Golden-file pin of the Chrome trace-event export: for one fixed
/// `(seed, policy)` sim run under the logical clock, the exported JSON is
/// byte-identical to the committed artifact. Regenerate deliberately with
/// `PASTIX_UPDATE_GOLDEN=1 cargo test -p pastix-integration chrome_trace`.
/// The same export is schema-checked (every `B` closes with an `E`, every
/// flow `s` pairs with an `f`) and must carry span, flow and counter
/// events for every rank.
#[test]
fn chrome_trace_export_matches_golden_file() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let plan = FaultPlan::builder(17).policy(SchedPolicy::Uniform).build();
    let mut topts = TraceOptions::deterministic();
    topts.sample_every = 1; // gauge samples on every rank, even tiny ones
    let cfg = SolverConfig::new()
        .with_backend(Backend::Sim(plan))
        .with_trace(topts);
    let run = plan_of(&mapping).factorize(&ap, &cfg).unwrap();
    let json = chrome_trace_with(&run.trace, &mapping.graph, &mapping.schedule);
    validate_chrome_trace(&json).expect("exported trace must satisfy the schema");

    // Every rank's track carries task spans, flow arrows and counters.
    let evs = json.get("traceEvents").unwrap().as_arr().unwrap();
    for r in 0..procs as u64 {
        let phases: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("tid").and_then(|t| t.as_f64().ok()) == Some(r as f64))
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str().ok()))
            .collect();
        for ph in ["B", "C"] {
            assert!(phases.contains(&ph), "rank {r}: no {ph:?} events in export");
        }
        assert!(
            phases.contains(&"s") || phases.contains(&"f"),
            "rank {r}: no flow arrows in export"
        );
    }

    let bytes = json.compact();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chrome_trace_sim_seed17_uniform.json"
    );
    if std::env::var_os("PASTIX_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — regenerate with PASTIX_UPDATE_GOLDEN=1");
    assert_eq!(
        bytes, golden,
        "chrome trace export drifted from the golden file; if the change \
         is intentional, regenerate with PASTIX_UPDATE_GOLDEN=1"
    );
}

/// The post-run report joins the deterministic trace against the static
/// schedule: every scheduled task appears exactly once with a measured
/// span, per-rank windows decompose into compute + wait + idle, and the
/// predicted critical path maps onto measured spans.
#[test]
fn report_covers_every_scheduled_task_on_sim() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let plan = FaultPlan::builder(41).build();
    let cfg = SolverConfig::new()
        .with_backend(Backend::Sim(plan))
        .with_trace(TraceOptions::deterministic());
    let run = plan_of(&mapping).factorize(&ap, &cfg).unwrap();
    let report = build_report(&mapping.graph, &mapping.schedule, &run.trace);
    assert_eq!(report.digest, mapping.schedule.digest());
    assert_eq!(
        report.tasks.len(),
        mapping.graph.n_tasks(),
        "every scheduled task must appear in the report"
    );
    for row in &report.tasks {
        assert!(
            row.measured_ns > 0,
            "task {} (proc {}) has no measured span",
            row.task,
            row.proc
        );
    }
    assert_eq!(report.ranks.len(), procs);
    for r in &report.ranks {
        assert!(
            r.compute_ns + r.wait_ns + r.idle_ns <= r.window_ns,
            "rank {} window decomposition exceeds the window",
            r.rank
        );
    }
    assert!(report.critical.predicted > 0.0);
    assert_eq!(
        report.critical.measured_tasks,
        report.critical.tasks.len(),
        "on the sim every critical-path task has a measured span"
    );
}
