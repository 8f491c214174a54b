//! The Fig. 1 validation as a test suite: the threaded fan-in solver must
//! reproduce the sequential factor (up to floating-point reassociation in
//! the aggregation order) across processor counts, distribution strategies
//! and blocking sizes.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::{build_problem, canonical_solution, rhs_for_solution, ProblemId, SymCsc};
use pastix::kernels::{Complex64, KernelMode, Scalar};
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::FaultPlan;
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions, TaskKind};
use pastix::solver::{
    factorize_sequential, solve_in_place, Backend, DynamicOptions, FactorStorage, Plan,
    SolverConfig,
};
use pastix::symbolic::{analyze, Analysis, AnalysisOptions};

fn setup(id: ProblemId, scale: f64) -> (pastix::graph::SymCsc<f64>, Analysis) {
    let a = build_problem::<f64>(id, scale);
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions::scotch_like());
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    (a, an)
}

fn run_case(a: &pastix::graph::SymCsc<f64>, an: &Analysis, mapping: &Mapping) {
    let sym = &mapping.graph.split.symbol;
    let ap = a.permuted(&an.perm);
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let par = plan.factorize(&ap, &SolverConfig::default()).unwrap();
    let mut seq = FactorStorage::zeros(sym);
    seq.scatter(sym, &ap);
    factorize_sequential(sym, &mut seq).unwrap();
    let mut max_diff = 0.0f64;
    for (pa, pb) in par.panels.iter().zip(&seq.panels) {
        for (x, y) in pa.iter().zip(pb) {
            max_diff = max_diff.max((x - y).abs());
        }
    }
    assert!(max_diff < 1e-8, "factor deviation {max_diff}");
    let x_exact = canonical_solution::<f64>(a.n());
    let b = rhs_for_solution(&ap, &an.perm.apply_vec(&x_exact));
    let mut x = b.clone();
    solve_in_place(sym, &par, &mut x);
    assert!(ap.residual_norm(&x, &b) < 1e-12);
}

#[test]
fn proc_count_sweep_mixed() {
    let (a, an) = setup(ProblemId::Quer, 0.01);
    for p in [1usize, 2, 3, 4, 8, 16] {
        let machine = MachineModel::sp2(p);
        let mut opts = SchedOptions::default();
        opts.block_size = 24;
        opts.mapping.width_2d_min = 24;
        opts.mapping.procs_2d_min = 2.0;
        let mapping = map_and_schedule(&an.symbol, &machine, &opts);
        run_case(&a, &an, &mapping);
    }
}

#[test]
fn strategy_sweep() {
    let (a, an) = setup(ProblemId::Ship001, 0.01);
    for strategy in [DistStrategy::Only1d, DistStrategy::Mixed1d2d] {
        let machine = MachineModel::sp2(4);
        let mut opts = SchedOptions::default();
        opts.block_size = 16;
        opts.mapping.strategy = strategy;
        opts.mapping.width_2d_min = 16;
        opts.mapping.procs_2d_min = 2.0;
        let mapping = map_and_schedule(&an.symbol, &machine, &opts);
        run_case(&a, &an, &mapping);
    }
}

#[test]
fn block_size_sweep() {
    let (a, an) = setup(ProblemId::Thread, 0.008);
    for block in [8usize, 32, 128] {
        let machine = MachineModel::sp2(4);
        let mut opts = SchedOptions::default();
        opts.block_size = block;
        opts.mapping.width_2d_min = block;
        opts.mapping.procs_2d_min = 2.0;
        let mapping = map_and_schedule(&an.symbol, &machine, &opts);
        run_case(&a, &an, &mapping);
    }
}

#[test]
fn solid_3d_with_many_procs() {
    let (a, an) = setup(ProblemId::Bmwcra1, 0.004);
    let machine = MachineModel::sp2(8);
    let mut opts = SchedOptions::default();
    opts.block_size = 16;
    opts.mapping.width_2d_min = 16;
    opts.mapping.procs_2d_min = 2.0;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    run_case(&a, &an, &mapping);
}

/// Every driver runs the one set of task bodies, so every driver honours
/// the kernel mode: `Reference` (the seed's unblocked factor and one GEMM
/// per block pair) and `Auto` (blocked factor, fused strips) must produce
/// the same factor and both must solve the system — sequentially, on the
/// static schedule (threads and sim) and on the dynamic executor.
fn check_kernel_modes<T: Scalar>(a: &SymCsc<T>) {
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 8, ..Default::default() });
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let mut opts = SchedOptions::default();
    opts.block_size = 4;
    opts.mapping.width_2d_min = 4;
    opts.mapping.procs_2d_min = 2.0;
    let mapping = map_and_schedule(&an.symbol, &MachineModel::sp2(2), &opts);
    let kinds = &mapping.graph.kinds;
    assert!(
        kinds.iter().any(|k| matches!(k, TaskKind::Comp1d { .. }))
            && kinds.iter().any(|k| matches!(k, TaskKind::Bmod { .. })),
        "the mapping must mix 1D and 2D column blocks"
    );
    let sym = &mapping.graph.split.symbol;
    let ap = a.permuted(&an.perm);
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let b = rhs_for_solution(&ap, &canonical_solution::<T>(ap.n()));
    let factor = |backend: Option<Backend>, mode: KernelMode| -> FactorStorage<T> {
        let _mode = mode.scoped();
        let st = match backend {
            None => {
                let mut st = FactorStorage::zeros(sym);
                st.scatter(sym, &ap);
                factorize_sequential(sym, &mut st).unwrap();
                st
            }
            Some(backend) => {
                let cfg = SolverConfig::new().with_backend(backend);
                plan.factorize(&ap, &cfg).unwrap().into_storage()
            }
        };
        let mut x = b.clone();
        solve_in_place(sym, &st, &mut x);
        let res = ap.residual_norm(&x, &b);
        assert!(res <= 1e-12, "{backend:?} {mode:?}: residual {res}");
        st
    };
    for backend in [
        None,
        Some(Backend::Threads),
        Some(Backend::Sim(FaultPlan::interleave_only(7))),
        Some(Backend::Dynamic(DynamicOptions::new())),
    ] {
        let reference = factor(backend, KernelMode::Reference);
        let auto = factor(backend, KernelMode::Auto);
        for (x, y) in reference.panels.iter().flatten().zip(auto.panels.iter().flatten()) {
            assert!(
                (*x - *y).magnitude() <= 1e-9 * y.magnitude().max(1.0),
                "{backend:?}: Reference {x:?} vs Auto {y:?}"
            );
        }
    }
}

#[test]
fn reference_and_auto_kernel_modes_agree_on_every_driver() {
    let re = grid_spd::<f64>(10, 10, 1, Stencil::Star, false, ValueKind::RandomSpd(21));
    check_kernel_modes(&re);
    // The same pattern as a complex symmetric (non-Hermitian) system.
    let mut tr = Vec::new();
    for j in 0..re.n() {
        for (&i, &v) in re.rows_of(j).iter().zip(re.vals_of(j)) {
            let im = if i as usize == j { 0.4 } else { -0.07 * v };
            tr.push((i, j as u32, Complex64::new(v, im)));
        }
    }
    check_kernel_modes(&SymCsc::<Complex64>::from_triplets(re.n(), &tr));
}
