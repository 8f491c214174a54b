//! Validates **Figure 1** (the parallel factorization algorithm) as an
//! executable artifact: runs the fan-in solver (`Backend::Sim`, one
//! thread per processor under the seeded scheduler) for several
//! processor counts and checks that the distributed factor matches the
//! sequential reference and solves the system to machine precision.
//!
//! This replaces "does the pseudo-code work?" with a machine-checked
//! statement. `PASTIX_SCALE` sizes the problem (default 0.05; the check
//! uses one shell-type and one solid-type analog).

use pastix_bench::{prepare, scale, schedule_for};
use pastix_graph::{canonical_solution, rhs_for_solution, ProblemId};
use pastix_sched::SchedOptions;
use pastix_runtime::sim::FaultPlan;
use pastix_solver::{factorize_sequential, solve_in_place, Backend, FactorStorage, Plan, SolverConfig};

fn main() {
    let scale = (scale() * 0.5).min(0.05); // keep the numeric runs snappy
    println!("Figure 1 validation — fan-in solver vs sequential reference (scale {scale})");
    println!(
        "{:<10} {:>6} {:>7} {:>14} {:>14} {:>10}",
        "Problem", "procs", "tasks", "max |Δfactor|", "residual", "verdict"
    );
    for id in [ProblemId::Ship001, ProblemId::Oilpan] {
        let prep = prepare(id, scale, &pastix_bench::scotch_ordering());
        for p in [1usize, 2, 4, 8, 16] {
            let mut sched_opts = SchedOptions::default();
            sched_opts.block_size = 32;
            sched_opts.mapping.width_2d_min = 32;
            sched_opts.mapping.procs_2d_min = 2.0;
            let mapping = schedule_for(&prep, p, &sched_opts);
            let sym = &mapping.graph.split.symbol;
            let ap = prep.matrix.permuted(&prep.analysis.perm);

            let plan =
                Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
            let par = plan
                .factorize(&ap, &SolverConfig::new().with_backend(Backend::Sim(FaultPlan::builder(p as u64).build())))
                .expect("parallel factorization failed");
            let mut seq = FactorStorage::zeros(sym);
            seq.scatter(sym, &ap);
            factorize_sequential(sym, &mut seq).expect("sequential factorization failed");

            let mut max_diff = 0.0f64;
            for (pa, pb) in par.panels.iter().zip(&seq.panels) {
                for (a, b) in pa.iter().zip(pb) {
                    max_diff = max_diff.max((a - b).abs());
                }
            }
            let x_exact = canonical_solution::<f64>(ap.n());
            let b = rhs_for_solution(&ap, &x_exact);
            let mut x = b.clone();
            solve_in_place(sym, &par, &mut x);
            let res = ap.residual_norm(&x, &b);
            let ok = max_diff < 1e-8 && res < 1e-12;
            println!(
                "{:<10} {:>6} {:>7} {:>14.2e} {:>14.2e} {:>10}",
                id.name(),
                p,
                mapping.graph.n_tasks(),
                max_diff,
                res,
                if ok { "OK" } else { "FAIL" }
            );
            assert!(ok, "validation failed for {} on {p} procs", id.name());
        }
    }
    println!("\nAll fan-in runs reproduce the sequential factor and solve to machine precision.");
}
