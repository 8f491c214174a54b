//! Structural-analysis scenario: the workload class the paper's
//! experiments come from (ship hulls, oil pans — PARASOL-style meshes).
//!
//! ```sh
//! cargo run --release --example structural_analysis
//! ```
//!
//! Builds the SHIP001 analog (a cylindrical shell mesh), walks through
//! every phase explicitly, prints per-phase statistics, runs the threaded
//! factorization under the static mapping and compares the real run
//! against the schedule's prediction under the local in-process machine
//! model.

use pastix::graph::{build_problem, canonical_solution, rhs_for_solution, ProblemId};
use pastix::machine::{measure_in_process_network, MachineModel};
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::sched::{comm_stats, map_and_schedule, SchedOptions};
use pastix::solver::{solve_in_place, Plan, SolverConfig};
use pastix::symbolic::{analyze, AnalysisOptions};
use std::time::Instant;

fn main() {
    let scale = 0.1;
    println!("== SHIP001 analog (cylindrical shell), scale {scale} ==");
    let a = build_problem::<f64>(ProblemId::Ship001, scale);
    println!("matrix: n = {}, NNZ_A = {}", a.n(), a.nnz_offdiag());

    // Phase 1: ordering.
    let t0 = Instant::now();
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions::scotch_like());
    println!("ordering: {:.3} s (nested dissection + halo minimum degree)", t0.elapsed().as_secs_f64());

    // Phase 2: block symbolic factorization.
    let t0 = Instant::now();
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    println!(
        "symbolic: {:.3} s — {} supernodes, NNZ_L = {}, OPC = {:.3e}, fill ratio = {:.1}",
        t0.elapsed().as_secs_f64(),
        an.symbol.n_cblks(),
        an.scalar_nnz_offdiag,
        an.scalar_opc,
        an.scalar_nnz_offdiag as f64 / a.nnz_offdiag() as f64
    );
    let sh = an.symbol.shape();
    println!(
        "blocks:   {} bloks, widest cblk {} (mean {:.1}), tallest blok {} (mean {:.1})",
        sh.n_bloks, sh.max_width, sh.mean_width, sh.max_blok_rows, sh.mean_blok_rows
    );

    // Phase 3: repartitioning + static scheduling for the *local* machine
    // (2 physical cores modeled with a measured in-process network).
    let n_procs = 2;
    let machine = MachineModel {
        net: measure_in_process_network(),
        ..MachineModel::sp2(n_procs)
    };
    let t0 = Instant::now();
    let sched_opts = SchedOptions {
        block_size: 64,
        ..Default::default()
    };
    let mapping = map_and_schedule(&an.symbol, &machine, &sched_opts);
    println!(
        "schedule: {:.3} s — {} tasks on {} procs, predicted makespan {:.4} s, utilization {:.0}%",
        t0.elapsed().as_secs_f64(),
        mapping.graph.n_tasks(),
        n_procs,
        mapping.schedule.makespan,
        mapping.schedule.utilization(&mapping.graph) * 100.0
    );
    let cs = comm_stats(&mapping.graph, &mapping.schedule);
    println!(
        "comm:     {} AUB/factor messages (vs {} without fan-in aggregation)",
        cs.messages_fanin, cs.messages_direct
    );

    // Phase 4: numeric factorization on threads + solve.
    let ap = a.permuted(&an.perm);
    let sym = &mapping.graph.split.symbol;
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let t0 = Instant::now();
    let storage = plan.factorize(&ap, &SolverConfig::default()).expect("factorization failed");
    let t_fact = t0.elapsed().as_secs_f64();
    println!("numeric:  {:.3} s measured on {} threads (prediction above is for the modeled machine)", t_fact, n_procs);

    let x_exact = canonical_solution::<f64>(a.n());
    let b_perm = rhs_for_solution(&ap, &an.perm.apply_vec(&x_exact));
    let mut x = b_perm.clone();
    let t0 = Instant::now();
    solve_in_place(sym, &storage, &mut x);
    println!("solve:    {:.4} s, residual = {:.2e}", t0.elapsed().as_secs_f64(), ap.residual_norm(&x, &b_perm));
}
