//! Serving-layer correctness: batched multi-RHS panel solves must agree
//! entrywise with independent single-RHS solves, on both execution
//! backends, across every chaos scheduling policy.
//!
//! The panel solve shares one message protocol across all `k` coalesced
//! right-hand sides and runs GEMM-shaped trailing updates instead of `k`
//! GEMVs, so nothing about its arithmetic is per-column — these tests pin
//! the invariant that batching is purely an execution-shape change, never
//! a numerics change. The reference is the sequential
//! `solve_in_place` sweep over the same factor, column by column.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::rhs_for_solution;
use pastix::kernels::FactorError;
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::{Backend, DynamicOptions, TaskOrder};
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions};
use pastix::solver::{
    run_from_storage, solve_block_in_place, solve_in_place, CompressionConfig, Plan,
    SolveError, SolverConfig,
};
use pastix::symbolic::{analyze, AnalysisOptions};
use pastix_serve::{RejectReason, RequestQueue, SessionOptions, SolverSession};
use pastix_trace::export::{chrome_trace, validate_chrome_trace};

const WIDTHS: [usize; 4] = [1, 3, 8, 32];

fn setup(procs: usize) -> (pastix::graph::SymCsc<f64>, Mapping) {
    setup_grid(9, 8, procs)
}

/// An `nx × nx` grid, nested dissection down to `leaf`, mixed 1D/2D
/// mapping on `procs` processors.
fn setup_grid(nx: usize, leaf: usize, procs: usize) -> (pastix::graph::SymCsc<f64>, Mapping) {
    let a = grid_spd::<f64>(nx, nx, 1, Stencil::Star, false, ValueKind::RandomSpd(23));
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
    opts.block_size = 8;
    opts.mapping.strategy = DistStrategy::Mixed1d2d;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 4;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    (a.permuted(&an.perm), mapping)
}

/// Deterministic `n × k` RHS panel (column-major) with distinct columns.
fn rhs_panel(a: &pastix::graph::SymCsc<f64>, k: usize) -> Vec<f64> {
    let n = a.n();
    let mut panel = vec![0.0f64; n * k];
    for r in 0..k {
        let xe: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 5 + r * 11) % 13) as f64 - 6.0)
            .collect();
        panel[r * n..(r + 1) * n].copy_from_slice(&rhs_for_solution(a, &xe));
    }
    panel
}

/// Batched panel solve vs k independent sequential solves over the same
/// factor, entrywise.
fn assert_panel_agrees(cfg: &SolverConfig, tol: f64, label: &str) {
    let procs = 4;
    let (ap, mapping) = setup(procs);
    let sym = &mapping.graph.split.symbol;
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let run = plan
        .factorize(&ap, cfg)
        .unwrap_or_else(|e| panic!("{label}: factorization failed: {e:?}"));
    let n = ap.n();
    for k in WIDTHS {
        let panel = rhs_panel(&ap, k);
        let x = run.solve_panel(&panel, k);
        for r in 0..k {
            let mut xr = panel[r * n..(r + 1) * n].to_vec();
            solve_in_place(sym, &run.storage, &mut xr);
            for (i, (u, v)) in x[r * n..(r + 1) * n].iter().zip(&xr).enumerate() {
                assert!(
                    (u - v).abs() <= tol * v.abs().max(1.0),
                    "{label}: k={k} col {r} row {i}: batched {u} vs sequential {v}"
                );
            }
        }
    }
}

#[test]
fn panel_solve_agrees_with_sequential_on_threads() {
    // The threads backend sums fan-in contributions in arrival order, so
    // agreement with the sequential sweep is to rounding, not bitwise.
    assert_panel_agrees(&SolverConfig::default(), 1e-10, "threads");
}

#[test]
fn panel_solve_agrees_with_sequential_under_every_chaos_policy() {
    for (seed, policy) in [
        (31u64, SchedPolicy::Uniform),
        (32, SchedPolicy::StarveRank(1)),
        (33, SchedPolicy::DeliverLast),
        (34, SchedPolicy::FifoPerPair),
    ] {
        let plan = FaultPlan::builder(seed)
            .policy(policy)
            .drop_lossy(0.10)
            .duplicate_lossy(0.05)
            .build();
        let cfg = SolverConfig::new().with_backend(Backend::Sim(plan));
        assert_panel_agrees(&cfg, 1e-10, &format!("sim seed {seed} policy {policy:?}"));
    }
}

/// The full serving stack — fingerprint, cache, queue coalescing, panel
/// solve, permutation round-trip — returns each request's own solution on
/// both backends.
#[test]
fn session_serves_coalesced_batches_on_both_backends() {
    let a = grid_spd::<f64>(9, 9, 1, Stencil::Star, false, ValueKind::RandomSpd(23));
    let n = a.n();
    let backends = [
        ("threads", SolverConfig::default()),
        (
            "sim",
            SolverConfig::new()
                .with_backend(Backend::Sim(FaultPlan::builder(5).build())),
        ),
    ];
    for (label, mut cfg) in backends {
        cfg.analyze.sched.block_size = 8;
        let opts = SessionOptions { procs: 3, max_panel: 8, solver: cfg, ..Default::default() };
        let mut session = SolverSession::<f64>::new(opts);
        let mut q = RequestQueue::new();
        let mut exact = Vec::new();
        for r in 0..13usize {
            let xe: Vec<f64> = (0..n).map(|i| ((i * 3 + r * 7) % 9) as f64 - 4.0).collect();
            q.submit(rhs_for_solution(&a, &xe), r as u64);
            exact.push(xe);
        }
        let mut done = Vec::new();
        while !q.is_empty() {
            done.extend(q.serve_batch(&mut session, &a, 500, 1_000).unwrap());
        }
        assert_eq!(done.len(), 13, "{label}: all requests served");
        // max_panel = 8 → widths 8 then 5.
        assert_eq!(done[0].batch, 8, "{label}");
        assert_eq!(done[12].batch, 5, "{label}");
        for c in &done {
            let xe = &exact[c.id as usize];
            for (i, (u, v)) in c.x.iter().zip(xe).enumerate() {
                assert!(
                    (u - v).abs() < 1e-8,
                    "{label}: request {} row {i}: {u} vs exact {v}",
                    c.id
                );
            }
        }
        assert_eq!(session.metrics().counter("serve.cache.misses"), 1, "{label}");
        assert_eq!(session.metrics().counter("serve.cache.hits"), 1, "{label}");
    }
}

/// The two solve engines are drivers of one block step: over the same
/// factor — dense, and block-low-rank — the sequential sweep and the
/// executor's solve (2 and 4 processors, mixed 1D/2D, in the static order
/// on threads and under every chaos policy of the serializer, and in the
/// dynamic orders) agree to round-off at
/// every panel width, including the widths that leave remainder groups
/// in the kernels.
#[test]
fn sequential_static_and_dynamic_solves_agree_on_dense_and_blr_factors() {
    let blr = CompressionConfig::with_tolerance(1e-8)
        .min_block(2);
    for procs in [2usize, 4] {
        for compression in [CompressionConfig::off(), blr] {
            // A grid big enough that separator blocks compress at 1e-8.
            let (ap, mapping) = setup_grid(24, 16, procs);
            let sym = &mapping.graph.split.symbol;
            let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
            let factor_cfg = SolverConfig::new().with_compression(compression);
            let storage = plan.factorize(&ap, &factor_cfg).expect("factorization").into_storage();
            assert_eq!(storage.is_compressed(), compression.enabled(), "procs {procs}: overlay");
            let sim = |seed: u64, policy: SchedPolicy| {
                let faults = FaultPlan::builder(seed).policy(policy).drop_lossy(0.10).duplicate_lossy(0.05);
                Backend::Sim(faults.build())
            };
            let engines = [
                ("threads", Backend::Threads),
                ("sim uniform", sim(41, SchedPolicy::Uniform)),
                ("sim starve", sim(42, SchedPolicy::StarveRank(1))),
                ("sim deliver-last", sim(43, SchedPolicy::DeliverLast)),
                ("sim fifo", sim(44, SchedPolicy::FifoPerPair)),
                ("dynamic", Backend::Dynamic(DynamicOptions::new().with_workers(procs).with_order(TaskOrder::Hints))),
                ("dynamic sim", Backend::Dynamic(DynamicOptions::new().with_sim(FaultPlan::builder(45).build()))),
            ];
            let n = ap.n();
            for k in [1usize, 3, 8, 9] {
                let panel = rhs_panel(&ap, k);
                let mut want = panel.clone();
                solve_block_in_place(sym, &storage, &mut want, k);
                for (label, backend) in engines {
                    let cfg = SolverConfig::new().with_backend(backend);
                    let x = run_from_storage(storage.clone(), &plan, &cfg).solve_panel(&panel, k);
                    for (i, (u, v)) in x.iter().zip(&want).enumerate() {
                        assert!(
                            (u - v).abs() <= 1e-12 * v.abs().max(1.0),
                            "procs {procs} blr {} k={k} {label}: entry {i} (col {}): {u} vs sequential {v}",
                            compression.enabled(),
                            i / n
                        );
                    }
                }
            }
        }
    }
}

/// A malformed ticket is refused on its own: of eight coalesced tickets,
/// one with a short right-hand side and one holding a NaN are reported by
/// `take_rejected`, the other six are served correctly in one panel — on
/// both backends, without a panic.
#[test]
fn malformed_tickets_are_rejected_without_taking_down_their_batch() {
    let a = grid_spd::<f64>(9, 9, 1, Stencil::Star, false, ValueKind::RandomSpd(23));
    let n = a.n();
    let backends = [
        ("threads", SolverConfig::default()),
        ("sim", SolverConfig::new().with_backend(Backend::Sim(FaultPlan::builder(5).build()))),
    ];
    for (label, mut cfg) in backends {
        cfg.analyze.sched.block_size = 8;
        let opts = SessionOptions { procs: 3, max_panel: 8, solver: cfg, ..Default::default() };
        let mut session = SolverSession::<f64>::new(opts);
        let mut q = RequestQueue::new();
        let mut exact = Vec::new();
        for r in 0..8usize {
            let xe: Vec<f64> = (0..n).map(|i| ((i * 3 + r * 7) % 9) as f64 - 4.0).collect();
            let mut rhs = rhs_for_solution(&a, &xe);
            match r {
                2 => rhs.truncate(n - 1),
                5 => rhs[7] = f64::NAN,
                _ => {}
            }
            q.submit(rhs, r as u64);
            exact.push(xe);
        }
        let done = q.serve_batch(&mut session, &a, 500, 1_000).unwrap();
        assert_eq!(
            q.take_rejected(),
            vec![
                (2, RejectReason::Rhs(SolveError::WrongLength { expected: n, got: n - 1 })),
                (5, RejectReason::Rhs(SolveError::NonFinite { index: 7 })),
            ],
            "{label}"
        );
        assert!(q.take_rejected().is_empty(), "{label}: rejections are reported once");
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![0, 1, 3, 4, 6, 7], "{label}");
        for c in &done {
            assert_eq!(c.batch, 6, "{label}: healthy tickets share one panel");
            for (i, (u, v)) in c.x.iter().zip(&exact[c.id as usize]).enumerate() {
                assert!((u - v).abs() < 1e-8, "{label}: request {} row {i}: {u} vs exact {v}", c.id);
            }
        }
        let m = session.metrics();
        assert_eq!(m.counter("serve.rejected"), 2, "{label}");
        assert_eq!(m.counter("serve.requests"), 6, "{label}");
        // A batch of nothing but malformed tickets is refused whole.
        q.submit(vec![1.0; 3], 2_000);
        assert!(q.serve_batch(&mut session, &a, 2_500, 3_000).unwrap().is_empty(), "{label}");
        assert_eq!(q.take_rejected().len(), 1, "{label}");
    }
}

/// A poisoned matrix — one NaN off the diagonal — served between two
/// healthy batches fails small: each of its tickets comes back from
/// `take_rejected` with the typed `NonFinite` error (and its request span
/// closed), the batches around it complete, and no cache or plan counter
/// moves for it.
#[test]
fn poisoned_matrix_fails_its_own_batch_only() {
    let a = grid_spd::<f64>(9, 9, 1, Stencil::Star, false, ValueKind::RandomSpd(23));
    let n = a.n();
    // The first stored off-diagonal entry, in canonical lower CSC order.
    let (row, col) = (0..n)
        .find_map(|j| a.rows_of(j).iter().find(|&&i| i as usize != j).map(|&i| (i as usize, j)))
        .unwrap();
    let mut trips = Vec::new();
    for j in 0..n {
        for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
            trips.push((i, j as u32, if (i as usize, j) == (row, col) { f64::NAN } else { v }));
        }
    }
    let poisoned = pastix::graph::SymCsc::from_triplets(n, &trips);
    let mut opts = SessionOptions { procs: 3, max_panel: 4, ..Default::default() };
    opts.solver.analyze.sched.block_size = 8;
    let mut session = SolverSession::<f64>::new(opts);
    let mut q = RequestQueue::traced();
    let exact: Vec<Vec<f64>> =
        (0..3).map(|r| (0..n).map(|i| ((i * 5 + r * 3) % 7) as f64 - 3.0).collect()).collect();
    let serve = |q: &mut RequestQueue<f64>, session: &mut SolverSession<f64>, m, t: u64| {
        let ids: Vec<u64> = exact.iter().map(|xe| q.submit(rhs_for_solution(&a, xe), t)).collect();
        (ids, q.serve_batch(session, m, t + 100, t + 200))
    };
    let counters = |s: &SolverSession<f64>| {
        ["serve.cache.hits", "serve.cache.misses", "serve.cache.evictions", "serve.plan.hits", "serve.plan.misses"]
            .map(|c| s.metrics().counter(c))
    };
    let healthy = |done: Vec<pastix_serve::Completed<f64>>, ids: &[u64]| {
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), ids);
        for (c, xe) in done.iter().zip(&exact) {
            for (u, v) in c.x.iter().zip(xe) {
                assert!((u - v).abs() < 1e-8, "request {}: {u} vs exact {v}", c.id);
            }
        }
    };

    let (ids, done) = serve(&mut q, &mut session, &a, 0);
    healthy(done.unwrap(), &ids);
    let before = counters(&session);
    let (ids, done) = serve(&mut q, &mut session, &poisoned, 1_000);
    let err = FactorError::NonFinite { row, col };
    assert_eq!(done.unwrap_err(), err);
    let refused: Vec<_> = ids.iter().map(|&id| (id, RejectReason::Factorization(err))).collect();
    assert_eq!(q.take_rejected(), refused);
    assert_eq!(counters(&session), before, "the poisoned matrix moved a cache counter");
    assert_eq!(session.metrics().counter("serve.failed"), 3);
    assert_eq!(session.len(), 1);
    let (ids, done) = serve(&mut q, &mut session, &a, 2_000);
    healthy(done.unwrap(), &ids);
    assert!(q.take_rejected().is_empty());
    assert_eq!(session.metrics().counter("serve.requests"), 6);
    validate_chrome_trace(&chrome_trace(&q.take_trace())).expect("every request span closed");
}
