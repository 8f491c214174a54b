//! The factorization's front end: `A`'s values reach the factor through a
//! pattern of `P·A·Pᵀ` the plan builds once (`solver.permute_builds`),
//! never through a permuted copy; a matrix the plan's structure does not
//! cover is a typed error on every backend, not a panic inside a rank, and
//! so is a right-hand side the solve cannot take.

use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
use pastix_graph::{Permutation, SymCsc};
use pastix_kernels::factor::FactorError;
use pastix_runtime::sim::FaultPlan;
use pastix_sched::{DistStrategy, MappingOptions, SchedOptions};
use pastix_solver::storage::try_blok_of;
use pastix_solver::{
    factorize_sequential, screen_rhs, AnalyzeOptions, Backend, DynamicOptions, FactorStorage, MetricsRegistry,
    Plan, ScatterPattern, SolveError, SolveRequest, SolverConfig, TaskOrder,
};
use pastix_symbolic::SymbolMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A 10 × 10 grid under a mixed 1D/2D mapping on three processors, so the
/// static ranks scatter into 2D regions too.
fn config(backend: Backend) -> SolverConfig {
    SolverConfig::new().with_backend(backend).with_metrics(MetricsRegistry::new()).with_analyze(AnalyzeOptions {
        sched: SchedOptions {
            block_size: 4,
            mapping: MappingOptions { procs_2d_min: 2.0, width_2d_min: 4, strategy: DistStrategy::Mixed1d2d },
            ..Default::default()
        },
        ..AnalyzeOptions::with_procs(3)
    })
}

fn grid(seed: u64) -> SymCsc<f64> {
    grid_spd::<f64>(10, 10, 1, Stencil::Star, false, ValueKind::RandomSpd(seed))
}

fn sim() -> Backend {
    Backend::Sim(FaultPlan::builder(7).build())
}

fn dynamic() -> Backend {
    Backend::Dynamic(DynamicOptions::new().with_workers(3).with_order(TaskOrder::Hints))
}

fn bits(st: &FactorStorage<f64>) -> Vec<u64> {
    st.panels.iter().flatten().map(|v| v.to_bits()).collect()
}

/// `a`'s stored entries, as triplets.
fn triplets(a: &SymCsc<f64>) -> Vec<(u32, u32, f64)> {
    (0..a.n()).flat_map(|j| a.rows_of(j).iter().zip(a.vals_of(j)).map(move |(&i, &v)| (i, j as u32, v))).collect()
}

/// A lower-triangle position `(row, col)` of `a`'s order that the plan's
/// structure does not hold.
fn outside(sym: &SymbolMatrix, perm: &Permutation) -> (usize, usize) {
    let n = sym.n;
    (0..n)
        .flat_map(|col| (col + 1..n).map(move |row| (row, col)))
        .find(|&(row, col)| {
            let (i, j) = (perm.new_of(row), perm.new_of(col));
            let (i, j) = (i.max(j), i.min(j));
            try_blok_of(sym, sym.cblk_of_col(j), i as u32).is_none()
        })
        .expect("a sparse factor leaves positions out")
}

#[test]
fn factorizations_of_one_plan_build_the_pattern_once() {
    let cfg = config(Backend::Threads);
    let a = grid(1);
    let plan = Plan::analyze(&a, &cfg);
    let builds = || cfg.metrics.counter("solver.permute_builds");
    assert_eq!(builds(), 1, "analyze builds the analyzed pattern");
    plan.factorize(&a, &cfg).unwrap();
    assert_eq!(builds(), 1, "0 builds during the first factorization of an analyzed plan");
    // Same pattern, other values, every backend: the cached pattern.
    let revalued = grid(2);
    plan.factorize(&revalued, &cfg).unwrap();
    for backend in [sim(), dynamic()] {
        plan.factorize(&revalued, &cfg.clone().with_backend(backend)).unwrap();
    }
    assert_eq!(builds(), 1, "one build per plan");
    // The solves' split comes with the plan too: solving builds nothing.
    let run = plan.factorize(&a, &cfg).unwrap();
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "built during analyze");
    run.solve(&vec![1.0; a.n()]);
    assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "0 builds during the first solve of an analyzed plan");
}

#[test]
fn a_subset_pattern_goes_through_without_touching_the_cache() {
    let cfg = config(sim());
    let a = grid(3);
    let plan = Plan::analyze(&a, &cfg);
    // Every third off-diagonal entry dropped: a strict subset of the
    // analyzed pattern, still diagonally dominant.
    let mut k = 0;
    let kept: Vec<_> = triplets(&a)
        .into_iter()
        .filter(|&(i, j, _)| {
            k += 1;
            i == j || k % 3 != 0
        })
        .collect();
    let sub = SymCsc::from_triplets(a.n(), &kept);
    assert!(sub.nnz_stored() < a.nnz_stored());
    let builds = || cfg.metrics.counter("solver.permute_builds");
    assert_eq!(builds(), 1, "analyze builds the analyzed pattern");
    // The subset first: its build is one-off, the analyzed pattern keeps
    // the cache.
    let run = plan.factorize(&sub, &cfg).unwrap();
    assert_eq!(builds(), 2, "a one-off build for the subset");
    plan.factorize(&a, &cfg).unwrap();
    plan.factorize(&a, &cfg).unwrap();
    assert_eq!(builds(), 2, "the cached pattern is the analyzed one's");
    plan.factorize(&sub, &cfg).unwrap();
    assert_eq!(builds(), 3, "a one-off build for the subset, every time");

    // The factor of the copy path: a permuted copy, factorized by a plan
    // that owns no permutation, on the same backend and seed.
    let perm = plan.permutation().unwrap();
    let ap = sub.permuted(perm);
    let copy_plan = Plan::from_parts(None, plan.graph().clone(), plan.schedule().cloned());
    assert_eq!(bits(&run), bits(&copy_plan.factorize(&ap, &cfg).unwrap()));
    // And the front end alone: the scatter through the pattern against
    // zeros + scatter of the copy.
    let sym = plan.symbol();
    let mut copied = FactorStorage::zeros(sym);
    copied.scatter(sym, &ap);
    let mut through = FactorStorage::zeros(sym);
    through.scatter_through(sym, &ScatterPattern::build(&sub, Some(perm), sym).unwrap(), &sub);
    assert_eq!(bits(&through), bits(&copied));
    let (mut f1, mut f2) = (through, copied);
    factorize_sequential(sym, &mut f1).unwrap();
    factorize_sequential(sym, &mut f2).unwrap();
    assert_eq!(bits(&f1), bits(&f2));
}

/// An entry outside the analyzed structure, and a matrix of another order,
/// come back as `PatternMismatch` in `A`'s numbering.
fn mismatch_is_a_typed_error(backend: Backend) {
    let cfg = config(backend);
    let a = grid(4);
    let plan = Plan::analyze(&a, &cfg);
    let (row, col) = outside(plan.symbol(), plan.permutation().unwrap());
    let mut t = triplets(&a);
    t.push((row as u32, col as u32, -0.5));
    let wider = SymCsc::from_triplets(a.n(), &t);
    let err = plan.factorize(&wider, &cfg).unwrap_err();
    assert_eq!(err, FactorError::PatternMismatch { row, col });
    let smaller = grid_spd::<f64>(10, 9, 1, Stencil::Star, false, ValueKind::RandomSpd(4));
    assert_eq!(
        plan.factorize(&smaller, &cfg).unwrap_err(),
        FactorError::PatternMismatch { row: 90, col: 90 }
    );
    // The failed builds were not kept: the plan still factorizes `a`.
    plan.factorize(&a, &cfg).unwrap();
    // A plan assembled from the same parts holds no pattern: its first
    // factorization builds one, and a wider matrix still fails the check.
    let parts = Plan::from_parts(plan.permutation().cloned(), plan.graph().clone(), plan.schedule().cloned());
    assert_eq!(parts.factorize(&wider, &cfg).unwrap_err(), FactorError::PatternMismatch { row, col });
    parts.factorize(&a, &cfg).unwrap();
}

#[test]
fn pattern_mismatch_is_a_typed_error_threads() {
    mismatch_is_a_typed_error(Backend::Threads);
}

#[test]
fn pattern_mismatch_is_a_typed_error_sim() {
    mismatch_is_a_typed_error(sim());
}

#[test]
fn pattern_mismatch_is_a_typed_error_dynamic() {
    mismatch_is_a_typed_error(dynamic());
}

/// A request built from a screen's proof skips only a scan that proves
/// something about it: one screened for another order, or whose panel was
/// swapped after the screen, is screened again and refused.
#[test]
fn a_screened_request_for_another_order_is_still_refused() {
    let cfg = config(Backend::Threads);
    let a = grid(3);
    let n = a.n();
    let run = Plan::analyze(&a, &cfg).factorize(&a, &cfg).unwrap();
    let short = vec![1.0f64; n - 1];
    let proof = screen_rhs(&short, n - 1, 1).expect("a clean panel of order n - 1");
    let refused = run.solve_request(SolveRequest::screened(proof)).err();
    assert_eq!(refused, Some(SolveError::WrongLength { expected: n, got: n - 1 }));
    let long = vec![1.0f64; 2 * n];
    let proof = screen_rhs(&long, 2 * n, 1).expect("a clean panel of order 2n");
    let refused = run.solve_request(SolveRequest::screened(proof)).err();
    assert_eq!(refused, Some(SolveError::WrongLength { expected: n, got: 2 * n }));
    let good = vec![1.0f64; n];
    let mut nan = good.clone();
    nan[3] = f64::NAN;
    let mut swapped = SolveRequest::screened(screen_rhs(&good, n, 1).expect("a clean panel"));
    swapped.rhs = &nan;
    assert_eq!(run.solve_request(swapped).err(), Some(SolveError::NonFinite { index: 3 }));
    let x = run.solve_request(SolveRequest::screened(screen_rhs(&good, n, 1).unwrap())).expect("a proven panel solves").x;
    assert!(a.residual_norm(&x, &good) < 1e-12);
}

/// A failed factorization still closes its flight mark, so a black box
/// taken afterwards shows no factorization in flight.
#[test]
fn a_failed_factorization_records_its_flight_end() {
    use pastix_trace::flight::{self, FlightKind};
    flight::set_enabled(true);
    let cfg = config(Backend::Threads);
    // A grid no other test here analyzes, so no other factorization
    // carries this plan's fingerprint.
    let a = grid_spd::<f64>(12, 11, 1, Stencil::Star, false, ValueKind::RandomSpd(5));
    let plan = Plan::analyze(&a, &cfg);
    let (row, col) = outside(plan.symbol(), plan.permutation().unwrap());
    let mut t = triplets(&a);
    t.push((row as u32, col as u32, -0.5));
    let wider = SymCsc::from_triplets(a.n(), &t);
    assert_eq!(plan.factorize(&wider, &cfg).unwrap_err(), FactorError::PatternMismatch { row, col });
    let fp = plan.schedule().unwrap().digest();
    let marks: Vec<u8> = flight::snapshot().iter().filter(|e| e.a == fp).map(|e| e.kind).collect();
    assert_eq!(marks, [FlightKind::FactorizeStart as u8, FlightKind::FactorizeEnd as u8]);
}

/// A zero pivot names its column of `A`, in the caller's numbering, on
/// every backend: an isolated vertex with a stored zero diagonal, placed
/// inside an SPD grid, is the only singular pivot.
#[test]
fn a_zero_pivot_names_the_column_of_a() {
    let iso = 37u32;
    let shift = |i: u32| if i >= iso { i + 1 } else { i };
    let mut entries: Vec<_> = triplets(&grid(5)).into_iter().map(|(i, j, v)| (shift(i), shift(j), v)).collect();
    entries.push((iso, iso, 0.0));
    let a = SymCsc::from_triplets(101, &entries);
    for backend in [Backend::Threads, dynamic(), sim()] {
        let cfg = config(backend);
        let plan = Plan::analyze(&a, &cfg);
        let eliminated_at = plan.permutation().expect("analyzed plans own one").new_of(iso as usize);
        assert_ne!(eliminated_at, iso as usize, "the ordering must move the vertex for this test to bite");
        let err = plan.factorize(&a, &cfg).err();
        assert_eq!(err, Some(FactorError::ZeroPivot(iso as usize)), "{backend:?}");
    }
}

/// A right-hand side the solve cannot take — no column, a wrong length, a
/// NaN or an infinity — is refused with its `SolveError` on every backend,
/// by `solve_request` and by `solve_refined`, and nothing panics.
#[test]
fn bad_right_hand_sides_are_typed_errors_not_panics() {
    let a = grid(3);
    let n = a.n();
    let good = vec![1.0f64; 2 * n];
    let mut nan = good.clone();
    nan[n + 5] = f64::NAN;
    let mut inf = good.clone();
    inf[4] = f64::NEG_INFINITY;
    let requests: [(&[f64], usize, SolveError); 5] = [
        (&good, 0, SolveError::NoRhs),
        (&good[..n - 1], 1, SolveError::WrongLength { expected: n, got: n - 1 }),
        (&good, 3, SolveError::WrongLength { expected: 3 * n, got: 2 * n }),
        (&nan, 2, SolveError::NonFinite { index: n + 5 }),
        (&inf[..n], 1, SolveError::NonFinite { index: 4 }),
    ];
    let refined: [(&[f64], SolveError); 3] = [
        (&good, SolveError::WrongLength { expected: n, got: 2 * n }),
        (&nan[n..], SolveError::NonFinite { index: 5 }),
        (&inf[..n], SolveError::NonFinite { index: 4 }),
    ];
    for backend in [Backend::Threads, dynamic(), sim()] {
        let cfg = config(backend);
        let run = Plan::analyze(&a, &cfg).factorize(&a, &cfg).unwrap();
        for (rhs, k, want) in requests {
            let got = catch_unwind(AssertUnwindSafe(|| run.solve_request(SolveRequest::panel(rhs, k)).err()));
            assert_eq!(got.ok(), Some(Some(want)), "{backend:?}: {} entries, k = {k}", rhs.len());
        }
        for (rhs, want) in refined {
            let got = catch_unwind(AssertUnwindSafe(|| run.solve_refined(&a, rhs, &Default::default()).err()));
            assert_eq!(got.ok(), Some(Some(want)), "{backend:?}: refined, {} entries", rhs.len());
        }
        // The refusals left the run as it was.
        let x = run.solve_request(SolveRequest::panel(&good, 2)).expect("a good panel solves").x;
        assert!(a.residual_norm(&x[..n], &good[..n]) < 1e-12, "{backend:?}");
    }
}
