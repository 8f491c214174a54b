//! The scheduled solve DAG: predicted-vs-measured reconciliation and
//! trace determinism for the serving-path triangular solves.
//!
//! Mirrors `trace_observability.rs` for the solve side. On the simulation
//! backend with logical clocks the panel solve executes exactly the
//! per-rank task orders the level-set [`pastix::sched::SolveSchedule`]
//! predicts, so `build_solve_report` must reconcile ≥ 95% (coverage,
//! placement, and order) under every chaos scheduling policy — and the
//! deterministic trace must be a pure function of the fault plan's
//! `(seed, policy)` and the schedule digest: repeated runs compare
//! byte-identical through `TraceLog::canonical_bytes`.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::Backend;
use pastix::sched::{map_and_schedule, solve_schedule, DistStrategy, Mapping, SchedOptions};
use pastix::solver::{Plan, SolveRequest, SolverConfig, TraceOptions};
use pastix::symbolic::{analyze, AnalysisOptions};
use pastix::trace::report::build_solve_report;

const RECONCILE_MIN: f64 = 0.95;

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

/// Every FwdSolve/BwdSolve span must be recorded: trace at full rate.
fn trace_all() -> TraceOptions {
    let mut t = TraceOptions::deterministic();
    t.sample_every = 1;
    t
}

fn all_policies(seed: u64, procs: usize) -> [SchedPolicy; 4] {
    [
        SchedPolicy::Uniform,
        SchedPolicy::StarveRank(seed as usize % procs),
        SchedPolicy::DeliverLast,
        SchedPolicy::FifoPerPair,
    ]
}

/// Traced panel solve under `plan`; returns `(solution, trace)`.
fn traced_solve(
    ap: &pastix::graph::SymCsc<f64>,
    mapping: &Mapping,
    plan: FaultPlan,
    nrhs: usize,
) -> (Vec<f64>, pastix::trace::TraceLog) {
    let cfg = SolverConfig::new()
        .with_backend(Backend::Sim(plan))
        .with_trace(trace_all());
    let pln = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let run = pln.factorize(ap, &cfg).expect("sim factorization");
    let n = ap.n();
    let mut panel = vec![0.0f64; n * nrhs];
    for r in 0..nrhs {
        let xe: Vec<f64> = (0..n).map(|i| 1.0 + ((i + r * 17) % 11) as f64).collect();
        panel[r * n..(r + 1) * n].copy_from_slice(&rhs_for_solution(ap, &xe));
    }
    let out = run.solve_request(SolveRequest::panel(&panel, nrhs).traced());
    (out.x, out.trace)
}

/// Sim workers execute exactly the per-rank orders the level-set solve
/// schedule predicts, so the trace must reconcile ≥ 95% — under every
/// chaos policy, since chaos perturbs message timing, not task order.
#[test]
fn solve_trace_reconciles_against_solve_schedule_under_every_policy() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let ssched = solve_schedule(&mapping.graph, &mapping.schedule);
    for seed in [3u64, 4] {
        for policy in all_policies(seed, procs) {
            let plan = FaultPlan::builder(seed).policy(policy).build();
            let (_, log) = traced_solve(&ap, &mapping, plan, 4);
            let report = build_solve_report(&ssched, &log);
            assert_eq!(
                report.schedule_digest,
                ssched.digest(),
                "report must carry the schedule digest"
            );
            assert_eq!(
                report.n_tasks,
                ssched.n_tasks(),
                "seed {seed} {policy:?}: every solve task must be predicted"
            );
            assert!(
                report.coverage == 1.0,
                "seed {seed} {policy:?}: every predicted task must be traced, got {:.4}",
                report.coverage
            );
            assert!(
                report.reconciliation >= RECONCILE_MIN,
                "seed {seed} {policy:?}: reconciliation {:.4} < {RECONCILE_MIN}",
                report.reconciliation
            );
        }
    }
}

/// Deterministic solve traces: for a fixed `(seed, policy)` and schedule
/// digest, the canonical byte encoding of the serving trace is identical
/// across repeated runs — the replay key the chaos harness prints is
/// sufficient to reproduce a serving incident exactly.
#[test]
fn solve_traces_are_byte_identical_for_fixed_seed_and_policy() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
    let ssched = solve_schedule(&mapping.graph, &mapping.schedule);
    for seed in [21u64, 22] {
        for policy in all_policies(seed, procs) {
            let run = || {
                let plan = FaultPlan::builder(seed).policy(policy).build();
                let (x, log) = traced_solve(&ap, &mapping, plan, 3);
                (x, log.canonical_bytes(), log.fingerprint())
            };
            let (x1, b1, f1) = run();
            let (x2, b2, f2) = run();
            assert_eq!(
                b1, b2,
                "seed {seed} {policy:?} digest {:#018x}: traces must be byte-identical",
                ssched.digest()
            );
            assert_eq!(f1, f2, "fingerprint is a pure function of the bytes");
            assert_eq!(x1, x2, "sim solves are bitwise deterministic");
        }
    }
}

/// The solve follows a plan computed once: ten solves of mixed width on
/// one factor run, then solves on a second run of the same `Plan` (both
/// backends that have a solve engine), leave `solver.solve_plan_builds`
/// at one.
#[test]
fn solve_plan_is_built_once_per_plan() {
    let (ap, mapping) = setup(3);
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let cfg = SolverConfig::new();
    let run = plan.factorize(&ap, &cfg).expect("factorization");
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 0, "built by the first solve, not before");
    let n = ap.n();
    let b: Vec<f64> = (0..9 * n).map(|i| 1.0 + (i % 11) as f64).collect();
    for k in [1usize, 8, 3, 1, 9, 2, 8, 1, 4, 8] {
        let x = run.solve_panel(&b[..k * n], k);
        assert_eq!(x.len(), k * n);
    }
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1);
    let dynamic = cfg.clone().with_backend(Backend::Dynamic(Default::default()));
    let second = plan.factorize(&ap, &dynamic).expect("second factorization");
    second.solve(&b[..n]);
    run.solve(&b[..n]);
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "two runs of one plan share it");
}
