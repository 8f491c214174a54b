//! The plan's solve split: trace determinism and one build per plan for
//! the serving-path triangular solves.
//!
//! Mirrors `trace_observability.rs` for the solve side. Every backend
//! solves on the plan's split of the elimination tree (bins of whole
//! subtrees and a top) on the executor; on the simulation backend it runs
//! under the executor's seeded serializer with logical clocks, so the
//! deterministic trace must be a pure function of the fault plan's
//! `(seed, policy)` and the schedule digest: repeated runs compare
//! byte-identical through `TraceLog::canonical_bytes`. The split itself
//! is built once per plan and shared by every run and backend.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::{Backend, DynamicOptions};
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions};
use pastix::solver::{Plan, SolveRequest, SolverConfig, TraceOptions};
use pastix::symbolic::{analyze, AnalysisOptions};

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
    let out = run.solve_request(SolveRequest::panel(&panel, nrhs).traced()).unwrap();
    (out.x, out.trace)
}

/// Deterministic solve traces: for a fixed `(seed, policy)` and schedule
/// digest, the canonical byte encoding of the serving trace is identical
/// across repeated runs — the replay key the chaos harness prints is
/// sufficient to reproduce a serving incident exactly.
#[test]
fn solve_traces_are_byte_identical_for_fixed_seed_and_policy() {
    let procs = 3;
    let (ap, mapping) = setup(procs);
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
                mapping.schedule.digest()
            );
            assert_eq!(f1, f2, "fingerprint is a pure function of the bytes");
            assert_eq!(x1, x2, "sim solves are bitwise deterministic");
        }
    }
}

/// The solve follows a plan computed once: ten solves of mixed width on
/// one `Threads` factor run build the solve split, and a `Dynamic` and a
/// `Sim` run of the same `Plan` share it and build nothing:
/// `solver.solve_plan_builds` reads 1 throughout.
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
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "the solve split, once");
    let dynamic = cfg.clone().with_backend(Backend::Dynamic(Default::default()));
    let second = plan.factorize(&ap, &dynamic).expect("second factorization");
    second.solve(&b[..n]);
    second.solve_panel(&b[..8 * n], 8);
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "Dynamic shares the solve split");
    let sim = cfg.clone().with_backend(Backend::Sim(FaultPlan::interleave_only(5)));
    let third = plan.factorize(&ap, &sim).expect("sim factorization");
    third.solve(&b[..n]);
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "Sim shares the solve split");
    third.solve_panel(&b[..8 * n], 8);
    run.solve(&b[..n]);
    second.solve(&b[..n]);
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "three runs of one plan share one solve split");
}

/// A serialized executor run records one trace rank per worker, and the
/// trace still replays byte for byte: a `Dynamic` factorization under the
/// seeded serializer, and a traced `Sim` solve (which runs on it), each at
/// four workers.
#[test]
fn serialized_executor_traces_carry_one_rank_per_worker() {
    let procs = 4;
    let (ap, mapping) = setup(procs);
    for policy in all_policies(5, procs) {
        let run = || {
            let plan = FaultPlan::builder(5).policy(policy).build();
            let pln = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
            let dynamic = SolverConfig::new()
                .with_backend(Backend::Dynamic(DynamicOptions::new().with_sim(plan)))
                .with_trace(trace_all());
            let factor = pln.factorize(&ap, &dynamic).expect("dynamic sim factorization").trace;
            let (_, solve) = traced_solve(&ap, &mapping, plan, 3);
            (factor, solve)
        };
        let ((f1, s1), (f2, s2)) = (run(), run());
        for (what, log) in [("factorization", &f1), ("solve", &s1)] {
            let ranks: Vec<u32> = log.ranks.iter().map(|r| r.rank).collect();
            assert_eq!(ranks, (0..procs as u32).collect::<Vec<_>>(), "{policy:?} {what}");
        }
        assert_eq!(f1.canonical_bytes(), f2.canonical_bytes(), "{policy:?}: factorization traces replay");
        assert_eq!(s1.canonical_bytes(), s2.canonical_bytes(), "{policy:?}: solve traces replay");
    }
}
