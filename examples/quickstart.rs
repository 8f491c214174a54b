//! Quickstart: solve a sparse SPD system end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 3D Laplacian-like SPD matrix, runs the full PaStiX pipeline
//! (ordering → block symbolic factorization → static 1D/2D scheduling →
//! numeric factorization on threads under the static mapping) and solves
//! `A·x = b`.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::{canonical_solution, rhs_for_solution};
use pastix::solver::{Plan, SolverConfig};

fn main() {
    // 1. A sparse SPD system: 20×20×10 grid, 7-point stencil.
    let a = grid_spd::<f64>(20, 20, 10, Stencil::Star, false, ValueKind::RandomSpd(1));
    println!("matrix: n = {}, stored nnz = {}", a.n(), a.nnz_stored());

    // 2. Analyze: ordering + symbolic + static schedule for 4 processors.
    let mut cfg = SolverConfig::default();
    cfg.analyze.procs = 4;
    cfg.analyze.sched.block_size = 64;
    let plan = Plan::analyze(&a, &cfg);
    let stats = plan.analyze_stats().expect("analyzed plans carry stats");
    println!(
        "factor:  NNZ_L = {}, OPC = {:.3e}, column blocks = {}",
        stats.scalar_nnz_offdiag,
        stats.scalar_opc,
        plan.symbol().n_cblks()
    );
    println!(
        "schedule: {} tasks, predicted parallel factorization {:.4} s on the SP2 model",
        plan.graph().n_tasks(),
        plan.schedule().expect("static schedule").makespan
    );

    // 3. Factorize (threads, each task on its scheduled processor) and solve.
    let x_exact = canonical_solution::<f64>(a.n());
    let b = rhs_for_solution(&a, &x_exact);
    let run = plan.factorize(&a, &cfg).expect("factorization failed");
    let x = run.solve(&b);

    // 4. Check the answer.
    let residual = a.residual_norm(&x, &b);
    let max_err = x
        .iter()
        .zip(&x_exact)
        .map(|(xi, ei)| (xi - ei).abs())
        .fold(0.0f64, f64::max);
    println!("solve:   scaled residual = {residual:.2e}, max |x - x_exact| = {max_err:.2e}");
    assert!(residual < 1e-12);
    println!("OK");
}
