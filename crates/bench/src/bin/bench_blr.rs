//! Block-low-rank benchmark and acceptance gate: compressed vs dense
//! factorization on the paper problems.
//!
//! Per problem, the dense thread-backend factorization is the baseline;
//! each tolerance level then factorizes and compresses the finished
//! factor, and reports the factor memory ratio, the factorization
//! speedup vs dense (compression included), and the refined-solve
//! residual.
//!
//! Gates, checked before timing matters:
//!
//! * **memory** — at the loosest swept tolerance (`1e-2`) the Shipsec5
//!   factor must fit in ≤ 0.8× the dense bytes. (The per-block relative
//!   tolerance means tight-tolerance compression engages with separator
//!   size: at the paper's full 180k-dof Shipsec5 the `1e-8` level is the
//!   interesting one, but the CI-scale analogs only develop numerically
//!   deficient blocks at loose tolerances, so the gate rides the level
//!   that actually exercises the machinery.)
//! * **accuracy** — every tolerance level's refined solve must reach a
//!   ≤ 1e-8 scaled backward error;
//! * **tolerance 0 is off** — on the deterministic sim backend, a
//!   `CompressionConfig` with tolerance `0.0` must be bitwise-identical
//!   to the dense path;
//! * **chaos** — the seeded sim sweep (all four scheduling policies)
//!   stays green with compression enabled on both the static SPMD and
//!   the dynamic work-stealing backends: each run replays bitwise and
//!   refines to ≤ 1e-8.
//!
//! Writes `BENCH_blr.json` at the repository root (opening with
//! `pastix_bench::env_header`; under `target/bench-quick/` with
//! `--quick`); exits non-zero when
//! any gate fails. `--quick` shrinks scale and reps for CI.

use pastix_bench::{env_header, prepare, scale, schedule_for, scotch_ordering, write_report};
use pastix_graph::{canonical_solution, rhs_for_solution, ProblemId};
use pastix_json::{obj, Json};
use pastix_runtime::sim::{FaultPlan, SchedPolicy};
use pastix_runtime::Backend;
use pastix_sched::SchedOptions;
use pastix_solver::{CompressionConfig, DynamicOptions, FactorRun, Plan, SolverConfig};
use std::time::Instant;


/// Tolerance sweep reported per problem (tightest first).
const TOLERANCES: [f64; 3] = [1e-8, 1e-4, 1e-2];
/// Memory gate at the loosest swept tolerance on the headline problem.
const MEM_RATIO_MAX: f64 = 0.8;
/// Refined-solve accuracy gate for every tolerance level.
const RESIDUAL_MAX: f64 = 1e-8;

fn blr_cfg(tol: f64) -> CompressionConfig {
    CompressionConfig::with_tolerance(tol).min_block(2)
}

fn factor_bits(run: &FactorRun<f64>) -> Vec<u64> {
    run.storage.panels.iter().flat_map(|p| p.iter().map(|v| v.to_bits())).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_blr ({mode}) — block-low-rank compression vs dense factorization");
    let header = env_header(mode);

    let sc = if quick { 0.03 } else { scale() };
    let reps = if quick { 1 } else { 3 };
    let procs = 4;
    let ids: &[ProblemId] = if quick {
        &[ProblemId::Shipsec5]
    } else {
        &[ProblemId::Ship001, ProblemId::Shipsec5]
    };

    let mut rows = Vec::new();
    let mut failed = false;
    let mut headline_ratio = f64::NAN;

    for &id in ids {
        let prep = prepare(id, sc, &scotch_ordering());
        let mut sopts = SchedOptions::default();
        // Bigger blocks than the other benches: low-rank deficiency is a
        // property of block size, and small bloks never pay for a U/V pair.
        sopts.block_size = if quick { 48 } else { 64 };
        let mapping = schedule_for(&prep, procs, &sopts);
        let ap = prep.matrix.permuted(&prep.analysis.perm);
        let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        let b = rhs_for_solution(&ap, &canonical_solution::<f64>(ap.n()));
        println!(
            "\nproblem {} n={} tasks={} procs={procs}",
            id.name(),
            ap.n(),
            mapping.graph.n_tasks()
        );

        // Dense baseline (threads backend): bytes and best-of wall time.
        let dense_cfg = SolverConfig::new();
        let dense = plan.factorize(&ap, &dense_cfg).expect("dense factorization failed");
        let dense_bytes = dense.storage.dense_factor_bytes();
        let mut t_dense = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            plan.factorize(&ap, &dense_cfg).expect("dense factorization failed");
            t_dense = t_dense.min(t0.elapsed().as_secs_f64());
        }
        println!("  [dense] {:.1} KiB, best {:.4} s", dense_bytes as f64 / 1024.0, t_dense);

        // Tolerance sweep: memory ratio, speedup, refined residual.
        let mut tol_rows = Vec::new();
        for tol in TOLERANCES {
            let cfg = SolverConfig::new().with_compression(blr_cfg(tol));
            let run = plan.factorize(&ap, &cfg).expect("BLR factorization failed");
            let bytes = run.storage.factor_bytes();
            let ratio = bytes as f64 / dense_bytes as f64;
            let refined = run.solve_refined(&ap, &b, &Default::default()).expect("finite right-hand side");
            let mut t_blr = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                plan.factorize(&ap, &cfg).expect("BLR factorization failed");
                t_blr = t_blr.min(t0.elapsed().as_secs_f64());
            }
            let blocks = cfg.metrics.counter("lowrank.compressed_blocks");
            println!(
                "  [tol {tol:>5.0e}] mem {ratio:.2}x dense, {blocks} blocks compressed, \
                 best {t_blr:.4} s ({:.2}x dense), refined residual {:.2e} ({} iters)",
                t_dense / t_blr,
                refined.residual,
                refined.iterations
            );
            let acc_ok = refined.residual <= RESIDUAL_MAX;
            if !acc_ok {
                eprintln!("  FAIL: refined residual {:.2e} > {RESIDUAL_MAX:.0e}", refined.residual);
            }
            failed |= !acc_ok;
            if id == ProblemId::Shipsec5 && tol == TOLERANCES[TOLERANCES.len() - 1] {
                headline_ratio = ratio;
            }
            tol_rows.push(obj([
                ("tolerance", Json::Num(tol)),
                ("factor_bytes", Json::Num(bytes as f64)),
                ("mem_ratio", Json::Num(ratio)),
                ("t_blr_s", Json::Num(t_blr)),
                ("speedup_vs_dense", Json::Num(t_dense / t_blr)),
                ("refined_residual", Json::Num(refined.residual)),
                ("refine_iterations", Json::Num(refined.iterations as f64)),
                ("compressed_blocks", Json::Num(blocks as f64)),
            ]));
        }

        // Tolerance 0 must be the dense path, bitwise — on the sim
        // backend so the comparison is replayable.
        let fp = FaultPlan::builder(0xB1).policy(SchedPolicy::Uniform).build();
        let sim_dense = plan
            .factorize(&ap, &SolverConfig::new().with_backend(Backend::Sim(fp)))
            .expect("sim dense failed");
        let sim_zero = plan
            .factorize(
                &ap,
                &SolverConfig::new().with_backend(Backend::Sim(fp)).with_compression(blr_cfg(0.0)),
            )
            .expect("sim tol-0 failed");
        let zero_ok = !sim_zero.storage.is_compressed()
            && factor_bits(&sim_dense) == factor_bits(&sim_zero);
        println!(
            "  tolerance 0 vs dense (sim backend): {}",
            if zero_ok { "bitwise identical" } else { "DIFFERS" }
        );
        failed |= !zero_ok;

        // Chaos sweep with compression enabled: static SPMD sim and the
        // dynamic executor's sim serialization, all four policies. Each
        // configuration must replay bitwise and refine to the gate.
        let policies = [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(1),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ];
        let mut sweep_ok = true;
        for (p, policy) in policies.into_iter().enumerate() {
            let seed = 0xB12_000 + p as u64;
            let fp = FaultPlan::builder(seed).policy(policy).build();
            let cfgs = [
                (
                    "static",
                    SolverConfig::new()
                        .with_backend(Backend::Sim(fp))
                        .with_compression(blr_cfg(TOLERANCES[0])),
                ),
                (
                    "dynamic",
                    SolverConfig::new()
                        .with_backend(Backend::Dynamic(
                            DynamicOptions::new().with_workers(procs).with_sim(fp),
                        ))
                        .with_compression(blr_cfg(TOLERANCES[0])),
                ),
            ];
            for (label, cfg) in cfgs {
                let r1 = plan.factorize(&ap, &cfg).expect("chaos factorization failed");
                let r2 = plan.factorize(&ap, &cfg).expect("chaos factorization failed");
                let replay = factor_bits(&r1) == factor_bits(&r2);
                let refined = r1.solve_refined(&ap, &b, &Default::default()).expect("finite right-hand side");
                if !replay || refined.residual > RESIDUAL_MAX {
                    eprintln!(
                        "  [chaos {label} {policy:?}] replay {replay}, residual {:.2e} — FAIL",
                        refined.residual
                    );
                    sweep_ok = false;
                }
            }
        }
        println!(
            "  chaos sweep with compression ({} policies × static+dynamic): {}",
            policies.len(),
            if sweep_ok { "green" } else { "FAILED" }
        );
        failed |= !sweep_ok;

        rows.push(obj([
            ("problem", Json::Str(id.name().to_string())),
            ("n", Json::Num(ap.n() as f64)),
            ("procs", Json::Num(procs as f64)),
            ("dense_bytes", Json::Num(dense_bytes as f64)),
            ("t_dense_s", Json::Num(t_dense)),
            ("zero_tolerance_bitwise", Json::Bool(zero_ok)),
            ("chaos_sweep_ok", Json::Bool(sweep_ok)),
            ("tolerances", Json::Arr(tol_rows)),
        ]));
    }

    let mut fields = vec![("bench".to_string(), Json::Str("blr".to_string()))];
    fields.extend(header);
    fields.extend(
        [
            ("scale", Json::Num(sc)),
            ("reps", Json::Num(reps as f64)),
            ("mem_ratio_max", Json::Num(MEM_RATIO_MAX)),
            ("residual_max", Json::Num(RESIDUAL_MAX)),
            ("headline_mem_ratio", Json::Num(headline_ratio)),
            ("problems", Json::Arr(rows)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    println!();
    write_report("BENCH_blr.json", quick, &Json::Obj(fields));

    let mem_ok = headline_ratio <= MEM_RATIO_MAX;
    println!(
        "acceptance (Shipsec5 @ {:.0e} factor memory ≤ {MEM_RATIO_MAX}× dense): \
         {headline_ratio:.2}x — {}",
        TOLERANCES[TOLERANCES.len() - 1],
        if mem_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "acceptance (refined residual ≤ {RESIDUAL_MAX:.0e}, tol-0 bitwise, chaos green): {}",
        if failed { "NOT MET" } else { "MET" }
    );
    if failed || !mem_ok {
        eprintln!("FAIL: bench_blr gates not met");
        std::process::exit(1);
    }
}
