//! Self-consistency suite for the `Plan` API on the deterministic sim
//! backend: every comparison is replayable per `(seed, policy)`, so the
//! bitwise claims are meaningful (no thread-timing reassociation).
//!
//! Three contracts are pinned here:
//!
//! 1. **Replay determinism** — the same `(seed, policy, strategy)` run
//!    produces bitwise-identical factors, solves, and trace digests.
//! 2. **Compression off = dense, bitwise** — a `CompressionConfig` with
//!    tolerance `0.0` routes through the classic dense engine unchanged.
//! 3. **Compression on is deterministic too** — the compressed SPMD path
//!    replays bitwise per `(seed, policy)` and actually shrinks the
//!    factor while still solving to the configured accuracy.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::Backend;
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions};
use pastix::solver::{
    CompressionConfig, FactorRun, Plan, SolveRequest, SolverConfig,
};
use pastix::symbolic::{analyze, AnalysisOptions, SymbolMatrix};

fn setup(procs: usize, strategy: DistStrategy) -> (pastix::graph::SymCsc<f64>, Mapping) {
    setup_grid(8, 8, 4, procs, strategy)
}

fn setup_grid(
    nx: usize,
    leaf: usize,
    block: usize,
    procs: usize,
    strategy: DistStrategy,
) -> (pastix::graph::SymCsc<f64>, Mapping) {
    let a = grid_spd::<f64>(nx, nx, 1, Stencil::Star, false, ValueKind::RandomSpd(13));
    let g = a.to_graph();
    let ord = nested_dissection(
        &g,
        &OrderingOptions {
            leaf_size: leaf,
            ..Default::default()
        },
    );
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(procs);
    let mut opts = SchedOptions::default();
    opts.block_size = block;
    opts.mapping.strategy = strategy;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = block;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    (a.permuted(&an.perm), mapping)
}

fn all_policies(seed: u64, procs: usize) -> [SchedPolicy; 4] {
    [
        SchedPolicy::Uniform,
        SchedPolicy::StarveRank(seed as usize % procs),
        SchedPolicy::DeliverLast,
        SchedPolicy::FifoPerPair,
    ]
}

/// Bitwise comparison of two factor storages through the representation
/// dispatch: every structural entry of the lower triangle, compressed or
/// dense, must agree to the bit.
fn assert_storage_bits_eq(sym: &SymbolMatrix, a: &FactorRun<f64>, b: &FactorRun<f64>, diag: &str) {
    let n = sym.n;
    for j in 0..n {
        for i in j..n {
            let (x, y) = (a.storage.get(sym, i, j), b.storage.get(sym, i, j));
            assert!(
                x.to_bits() == y.to_bits(),
                "{diag}: factor entry ({i},{j}) differs: {x} vs {y}"
            );
        }
    }
}

/// The same `(seed, policy, strategy)` sim run replays the factorization
/// bitwise — panels, overlay, and schedule digest.
#[test]
fn sim_factorization_replays_bitwise() {
    for strategy in [DistStrategy::Only1d, DistStrategy::Mixed1d2d] {
        let procs = 3;
        let (ap, mapping) = setup(procs, strategy);
        let sym = &mapping.graph.split.symbol;
        let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        for seed in [2u64, 3] {
            for policy in all_policies(seed, procs) {
                let fp = FaultPlan::builder(seed).policy(policy).build();
                let cfg = SolverConfig::new().with_backend(Backend::Sim(fp));
                let diag = format!("seed {seed}, policy {policy:?}, strategy {strategy:?}");

                let run_a = plan.factorize(&ap, &cfg).unwrap();
                let run_b = plan.factorize(&ap, &cfg).unwrap();
                assert_storage_bits_eq(sym, &run_a, &run_b, &diag);
                assert_eq!(
                    run_a.trace.digest, run_b.trace.digest,
                    "{diag}: schedule digests differ between replays"
                );
            }
        }
    }
}

/// A compression config with tolerance `0.0` is the dense engine, bitwise
/// — the low-rank plumbing must be invisible when disabled.
#[test]
fn zero_tolerance_compression_is_bitwise_dense() {
    for strategy in [DistStrategy::Only1d, DistStrategy::Mixed1d2d] {
        let procs = 3;
        let (ap, mapping) = setup(procs, strategy);
        let sym = &mapping.graph.split.symbol;
        let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        let fp = FaultPlan::builder(5).policy(SchedPolicy::Uniform).build();
        let cfg = SolverConfig::new().with_backend(Backend::Sim(fp));
        let czero = cfg.clone().with_compression(
            CompressionConfig::with_tolerance(0.0)
                .min_block(2),
        );
        let diag = format!("strategy {strategy:?}");

        let dense = plan.factorize(&ap, &cfg).unwrap();
        let zero = plan.factorize(&ap, &czero).unwrap();
        assert!(!zero.storage.is_compressed(), "{diag}: tolerance 0 must stay dense");
        assert_storage_bits_eq(sym, &dense, &zero, &diag);
    }
}

/// The compressed SPMD factorization is just as replayable as the dense
/// one, actually compresses, and its solves meet the tolerance.
#[test]
fn compressed_sim_runs_replay_bitwise_and_solve() {
    // A grid large enough that its separator blocks genuinely compress at
    // the loose tolerance (the 8×8 grid's blocks are all near-full-rank).
    let procs = 3;
    let (ap, mapping) = setup_grid(20, 16, 8, procs, DistStrategy::Mixed1d2d);
    let sym = &mapping.graph.split.symbol;
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let n = ap.n();
    let xe: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let b = rhs_for_solution(&ap, &xe);
    for seed in [8u64, 9] {
        for policy in all_policies(seed, procs) {
            let fp = FaultPlan::builder(seed).policy(policy).build();
            let cfg = SolverConfig::new().with_backend(Backend::Sim(fp)).with_compression(
                CompressionConfig::with_tolerance(1e-2)
                    .min_block(2),
            );
            let diag = format!("seed {seed}, policy {policy:?}");

            let run_a = plan.factorize(&ap, &cfg).unwrap();
            let run_b = plan.factorize(&ap, &cfg).unwrap();
            assert_storage_bits_eq(sym, &run_a, &run_b, &diag);
            assert!(run_a.storage.is_compressed(), "{diag}: nothing compressed");
            assert!(
                run_a.storage.factor_bytes() < run_a.storage.dense_factor_bytes(),
                "{diag}: compression did not shrink the factor"
            );

            // Solves on the compressed factor replay bitwise too; iterative
            // refinement recovers full accuracy from the truncated factor.
            let x1 = run_a.solve(&b);
            let x2 = run_a.solve(&b);
            assert!(
                x1.iter().zip(&x2).all(|(u, v)| u.to_bits() == v.to_bits()),
                "{diag}: compressed solve does not replay bitwise"
            );
            let refined = run_a.solve_refined(&ap, &b, &Default::default()).unwrap();
            assert!(
                refined.residual < 1e-9,
                "{diag}: refined residual {}",
                refined.residual
            );

            // Panel request: each column of a replicated panel equals the
            // single-RHS sweep bitwise.
            let nrhs = 2;
            let mut panel = vec![0.0f64; n * nrhs];
            for r in 0..nrhs {
                panel[r * n..(r + 1) * n].copy_from_slice(&b);
            }
            let out = run_a.solve_request(SolveRequest::panel(&panel, nrhs)).unwrap();
            for r in 0..nrhs {
                assert!(
                    out.x[r * n..(r + 1) * n]
                        .iter()
                        .zip(&x1)
                        .all(|(u, v)| u.to_bits() == v.to_bits()),
                    "{diag}: panel column {r} differs from the single-RHS solve"
                );
            }
        }
    }
}
