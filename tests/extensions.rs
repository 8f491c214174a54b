//! Tests of the extension features beyond the paper's headline pipeline:
//! the distributed triangular solve, the SMP-node machine model (the
//! paper's announced future work), and the schedule memory accounting.

use pastix::graph::{build_problem, canonical_solution, rhs_for_solution, ProblemId};
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::sched::{map_and_schedule, memory_stats, validate_schedule, SchedOptions};
use pastix::solver::{
    solve_in_place, Plan, RefineOptions, SolverConfig,
};
use pastix::symbolic::{analyze, AnalysisOptions};

#[test]
fn distributed_solve_through_facade() {
    let a = build_problem::<f64>(ProblemId::Quer, 0.015);
    let cfg = SolverConfig::default();
    let plan = Plan::analyze(&a, &cfg);
    let run = plan.factorize(&a, &cfg).unwrap();
    let x_exact = canonical_solution::<f64>(a.n());
    let b = rhs_for_solution(&a, &x_exact);
    // Sequential sweeps over the same factor, as the reference.
    let perm = plan.permutation().unwrap();
    let mut xp = perm.apply_vec(&b);
    solve_in_place(plan.symbol(), &run.storage, &mut xp);
    let x_seq = perm.unapply_vec(&xp);
    // The distributed triangular solve is the plan-driven default.
    let x_dist = run.solve(&b);
    for (u, v) in x_seq.iter().zip(&x_dist) {
        assert!((u - v).abs() < 1e-9, "{u} vs {v}");
    }
    assert!(a.residual_norm(&x_dist, &b) < 1e-12);
}

#[test]
fn smp_model_schedules_validly_and_not_slower() {
    let a = build_problem::<f64>(ProblemId::Ship003, 0.02);
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions::scotch_like());
    let an = analyze(&g, &ord, &AnalysisOptions::default());

    let flat = MachineModel::sp2(16);
    let smp = MachineModel::sp2_smp(16, 4);
    let m_flat = map_and_schedule(&an.symbol, &flat, &SchedOptions::default());
    let m_smp = map_and_schedule(&an.symbol, &smp, &SchedOptions::default());
    validate_schedule(&m_flat.graph, &m_flat.schedule, &flat).unwrap();
    validate_schedule(&m_smp.graph, &m_smp.schedule, &smp).unwrap();
    // Cheaper intra-node communication can only help the greedy mapper.
    assert!(
        m_smp.schedule.makespan <= m_flat.schedule.makespan * 1.02,
        "SMP {} vs flat {}",
        m_smp.schedule.makespan,
        m_flat.schedule.makespan
    );
}

#[test]
fn smp_numeric_run_still_correct() {
    // The SMP model changes the mapping; the threaded solver must still
    // produce a correct factor under it.
    let a = build_problem::<f64>(ProblemId::Oilpan, 0.01);
    let mut cfg = SolverConfig::default();
    cfg.analyze.machine = Some(MachineModel::sp2_smp(4, 2));
    let plan = Plan::analyze(&a, &cfg);
    let run = plan.factorize(&a, &cfg).unwrap();
    let x_exact = canonical_solution::<f64>(a.n());
    let b = rhs_for_solution(&a, &x_exact);
    let x = run.solve(&b);
    assert!(a.residual_norm(&x, &b) < 1e-12);
}

#[test]
fn memory_stats_account_for_every_region() {
    let a = build_problem::<f64>(ProblemId::Quer, 0.015);
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions::scotch_like());
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(8);
    let m = map_and_schedule(&an.symbol, &machine, &SchedOptions::default());
    let stats = memory_stats(&m.graph, &m.schedule);
    assert_eq!(stats.factor_scalars.len(), 8);
    // Every factor scalar lives somewhere: the sum over processors must be
    // at least the symbol's stored entry count (BDIV double-buffering can
    // push it above).
    let total: u64 = stats.factor_scalars.iter().sum();
    let stored = m.graph.split.symbol.nnz().stored_entries;
    assert!(total >= stored, "total {total} < stored {stored}");
    assert!(stats.max_total() >= total / 8);
    // On one processor there is no aggregation memory at all.
    let m1 = map_and_schedule(&an.symbol, &MachineModel::sp2(1), &SchedOptions::default());
    let s1 = memory_stats(&m1.graph, &m1.schedule);
    assert!(s1.aub_scalars_bound.iter().all(|&v| v == 0));
}

#[test]
fn memory_spreads_with_more_processors() {
    let a = build_problem::<f64>(ProblemId::Mt1, 0.01);
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions::scotch_like());
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let m1 = map_and_schedule(&an.symbol, &MachineModel::sp2(1), &SchedOptions::default());
    let s1 = memory_stats(&m1.graph, &m1.schedule);
    let m8 = map_and_schedule(&an.symbol, &MachineModel::sp2(8), &SchedOptions::default());
    let s8 = memory_stats(&m8.graph, &m8.schedule);
    // The per-processor factor footprint must shrink substantially.
    let max1 = *s1.factor_scalars.iter().max().unwrap();
    let max8 = *s8.factor_scalars.iter().max().unwrap();
    assert!(
        max8 < max1 / 2,
        "8-proc max footprint {max8} vs 1-proc {max1}"
    );
}

#[test]
fn blocked_multi_rhs_through_facade() {
    let a = build_problem::<f64>(ProblemId::Ship001, 0.01);
    let n = a.n();
    let mut cfg = SolverConfig::default();
    cfg.analyze.procs = 2;
    let plan = Plan::analyze(&a, &cfg);
    let run = plan.factorize(&a, &cfg).unwrap();
    let nrhs = 3;
    let mut b = vec![0.0f64; n * nrhs];
    let mut exact = Vec::new();
    for r in 0..nrhs {
        let xe: Vec<f64> = (0..n).map(|i| ((i * (r + 2)) % 11) as f64 - 5.0).collect();
        let br = rhs_for_solution(&a, &xe);
        b[r * n..(r + 1) * n].copy_from_slice(&br);
        exact.push(xe);
    }
    let x = run.solve_panel(&b, nrhs);
    for r in 0..nrhs {
        let single = run.solve(&b[r * n..(r + 1) * n]);
        for i in 0..n {
            assert!((x[i + r * n] - single[i]).abs() < 1e-12);
            assert!((x[i + r * n] - exact[r][i]).abs() < 1e-8);
        }
    }
}

#[test]
fn iterative_refinement_never_degrades() {
    let a = build_problem::<f64>(ProblemId::Thread, 0.008);
    let mut cfg = SolverConfig::default();
    cfg.analyze.procs = 2;
    let plan = Plan::analyze(&a, &cfg);
    let run = plan.factorize(&a, &cfg).unwrap();
    let x_exact = canonical_solution::<f64>(a.n());
    let b = rhs_for_solution(&a, &x_exact);
    let x0 = run.solve(&b);
    let res0 = a.residual_norm(&x0, &b);
    let out = run.solve_refined(&a, &b, &RefineOptions { max_iter: 3, ..Default::default() }).unwrap();
    assert!(
        out.residual <= res0 * (1.0 + 1e-9),
        "refined {} worse than direct {res0}",
        out.residual
    );
    assert!(a.residual_norm(&out.x, &b) <= res0 * (1.0 + 1e-9));
}
