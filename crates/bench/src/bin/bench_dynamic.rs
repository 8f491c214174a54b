//! `Backend::Threads` against `Backend::Dynamic` on the same task graph:
//! one DAG executor, three orders.
//!
//! Three engines run per problem on real threads, one worker per
//! available CPU:
//!
//! * **threads** — `Backend::Threads`: the static mapping's placement and
//!   order, every task enqueued on its `K_p` processor, ready-first within
//!   a processor, idle workers stealing; its solve runs on the same
//!   executor in the same order;
//! * **dynamic+prio** — `Backend::Dynamic` with the static schedule's
//!   start times as task priorities and stealing;
//! * **dynamic** — the same in FIFO order.
//!
//! Before any timing, correctness gates run: every engine's factor must
//! match the sequential reference entrywise (≤ 1e-8 relative) and solve
//! to a ≤ 1e-12 residual, the dynamic engine must pass a seeded sim
//! sweep under all four chaos scheduling policies, and the plan must
//! coarsen: the executor runs fewer nodes (`dynamic.tasks`) than the task
//! graph has tasks, its small one-processor subtrees grouped, and the
//! threads and dynamic+prio solves each run exactly `2 · procs + 1` nodes
//! (`solve_nodes_threads`, `solve_nodes`): the plan's split of the
//! elimination tree, one forward and one backward node per bin of whole
//! subtrees and one top node between them.
//!
//! Writes `BENCH_dynamic.json` at the repository root (with
//! `pastix_bench::env_header`; under `target/bench-quick/` with
//! `--quick`). Exits non-zero if
//! any agreement or coarsening gate fails or if dynamic+prio falls below
//! 0.9× the threads engine's throughput on the largest problem (Shipsec5
//! analog).
//! The engines' timed factorizations interleave rep by rep, so a drift of
//! the machine hits all three alike. `--quick` shrinks scale and
//! problems for CI.

use pastix_bench::{env_header, prepare, scale, schedule_for, scotch_ordering, write_report};
use pastix_graph::{canonical_solution, rhs_for_solution, ProblemId};
use pastix_json::{obj, Json};
use pastix_runtime::sim::{FaultPlan, SchedPolicy};
use pastix_runtime::Backend;
use pastix_sched::SchedOptions;
use pastix_solver::{factorize_sequential, DynamicOptions, FactorStorage, Plan, SolverConfig, TaskOrder};
use std::time::Instant;


/// Entrywise factor agreement vs the sequential reference.
const FACTOR_RTOL: f64 = 1e-8;
/// Residual of the distributed solve.
const RESIDUAL_MAX: f64 = 1e-12;
/// Acceptance: dynamic+prio wall time may exceed threads by at most 1/0.9.
const TARGET_RATIO: f64 = 0.9;

struct EngineResult {
    label: &'static str,
    best_s: f64,
    steals: u64,
}

fn max_factor_dev(run: &FactorStorage<f64>, seq: &FactorStorage<f64>) -> f64 {
    let mut max_dev = 0.0f64;
    for (pa, pb) in run.panels.iter().zip(&seq.panels) {
        for (x, y) in pa.iter().zip(pb) {
            max_dev = max_dev.max((x - y).abs() / x.abs().max(1.0));
        }
    }
    max_dev
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_dynamic ({mode}) — static mapping vs dynamic orders, one executor");
    let header = env_header(mode);

    let sc = if quick { 0.02 } else { scale() };
    // Best-of over interleaved reps; quick mode's ~5 ms factorizations
    // need more of them to see through noise.
    let reps = if quick { 7 } else { 5 };
    let procs = std::thread::available_parallelism().map_or(1, usize::from);
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
        sopts.block_size = if quick { 16 } else { 32 };
        let mapping = schedule_for(&prep, procs, &sopts);
        let ap = prep.matrix.permuted(&prep.analysis.perm);
        let sym = &mapping.graph.split.symbol;
        let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        println!(
            "\nproblem {} n={} tasks={} procs={procs} digest={:#018x}",
            id.name(),
            ap.n(),
            mapping.graph.n_tasks(),
            mapping.schedule.digest()
        );

        // Sequential reference for the agreement gates.
        let mut seq = FactorStorage::zeros(sym);
        seq.scatter(sym, &ap);
        factorize_sequential(sym, &mut seq).expect("sequential reference failed");
        let b = rhs_for_solution(&ap, &canonical_solution::<f64>(ap.n()));

        let dynamic = DynamicOptions::new().with_workers(procs);
        let backends: [(&'static str, Backend); 3] = [
            ("threads", Backend::Threads),
            ("dynamic+prio", Backend::Dynamic(dynamic.with_order(TaskOrder::Hints))),
            ("dynamic", Backend::Dynamic(dynamic.with_order(TaskOrder::Fifo))),
        ];

        let cfgs = backends.map(|(label, backend)| (label, SolverConfig::new().with_backend(backend)));
        // Per engine: executor nodes of the factorization and of the solve.
        let mut nodes = [(0, 0); 3];
        for ((label, cfg), nodes) in cfgs.iter().zip(&mut nodes) {
            // Correctness gate on the timed configuration.
            let run = plan.factorize(&ap, cfg).expect("factorization failed");
            // Read before the solve: the solve's nodes count there too.
            nodes.0 = run.metrics.counter("dynamic.tasks");
            let dev = max_factor_dev(&run.storage, &seq);
            let x = run.solve(&b);
            nodes.1 = run.metrics.counter("dynamic.tasks") - nodes.0;
            let res = ap.residual_norm(&x, &b);
            let agree = dev <= FACTOR_RTOL && res <= RESIDUAL_MAX;
            println!(
                "  [{label:>12}] factor dev {dev:.2e} residual {res:.2e} — {}",
                if agree { "agrees with sequential" } else { "DISAGREES" }
            );
            failed |= !agree;
        }

        // Timing: warm-up already done (the gate runs), then best-of over
        // reps that step the engines in turn.
        let mut results = cfgs.each_ref().map(|&(label, _)| EngineResult { label, best_s: f64::INFINITY, steals: 0 });
        for _ in 0..reps {
            for ((_, cfg), r) in cfgs.iter().zip(&mut results) {
                let t0 = Instant::now();
                let timed = plan.factorize(&ap, cfg).expect("factorization failed");
                r.best_s = r.best_s.min(t0.elapsed().as_secs_f64());
                r.steals = r.steals.max(timed.metrics.counter("dynamic.steals"));
            }
        }

        // Seeded chaos sweep: the dynamic executor's sim serialization
        // must agree with sequential under every scheduling policy.
        let policies = [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(1),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ];
        let sweep_seeds: u64 = if quick { 1 } else { 2 };
        let mut sim_ok = true;
        for (p, policy) in policies.into_iter().enumerate() {
            for s in 0..sweep_seeds {
                let seed = 0xBE_0000 + (p as u64) * sweep_seeds + s;
                let fp = FaultPlan::builder(seed).policy(policy).build();
                let dopts = DynamicOptions::new()
                    .with_workers(procs)
                    .with_order(if s % 2 == 1 { TaskOrder::Hints } else { TaskOrder::Fifo })
                    .with_sim(fp);
                let cfg = SolverConfig::new().with_backend(Backend::Dynamic(dopts));
                let run = plan.factorize(&ap, &cfg).expect("sim dynamic factorization failed");
                let dev = max_factor_dev(&run.storage, &seq);
                let res = ap.residual_norm(&run.solve(&b), &b);
                if dev > FACTOR_RTOL || res > RESIDUAL_MAX {
                    eprintln!(
                        "  [sim {policy:?} seed {seed}] DISAGREES: dev {dev:.2e} res {res:.2e}"
                    );
                    sim_ok = false;
                }
            }
        }
        println!(
            "  sim chaos sweep ({} policies × {sweep_seeds} seeds): {}",
            policies.len(),
            if sim_ok { "all agree with sequential" } else { "FAILED" }
        );
        failed |= !sim_ok;
        let [(_, solve_nodes_threads), (factor_nodes, solve_nodes), _] = nodes;
        let coarsened = factor_nodes < mapping.graph.n_tasks() as u64;
        println!(
            "  coarsening: the executor runs {factor_nodes} nodes for {} tasks — {}",
            mapping.graph.n_tasks(),
            if coarsened { "grouped" } else { "NOT GROUPED" }
        );
        failed |= !coarsened;
        let split_nodes = 2 * procs as u64 + 1;
        for (label, solve_nodes) in [("threads", solve_nodes_threads), ("dynamic+prio", solve_nodes)] {
            let solve_coarsened = solve_nodes == split_nodes;
            println!(
                "  solve coarsening: {label}'s solve runs {solve_nodes} nodes for {} steps — {}",
                2 * sym.n_cblks(),
                if solve_coarsened { "split" } else { "NOT SPLIT" }
            );
            failed |= !solve_coarsened;
        }

        let t_threads = results[0].best_s;
        for r in &results {
            println!(
                "  [{:>12}] best {:.4} s  ({:.2}x threads{})",
                r.label,
                r.best_s,
                t_threads / r.best_s,
                if r.steals > 0 {
                    format!(", {} steals", r.steals)
                } else {
                    String::new()
                }
            );
        }
        let ratio = t_threads / results[1].best_s;
        if id == ProblemId::Shipsec5 {
            headline_ratio = ratio;
        }
        rows.push(obj([
            ("problem", Json::Str(id.name().to_string())),
            ("n", Json::Num(ap.n() as f64)),
            ("tasks", Json::Num(mapping.graph.n_tasks() as f64)),
            ("nodes", Json::Num(factor_nodes as f64)),
            ("solve_nodes", Json::Num(solve_nodes as f64)),
            ("solve_nodes_threads", Json::Num(solve_nodes_threads as f64)),
            ("procs", Json::Num(procs as f64)),
            ("t_threads_s", Json::Num(results[0].best_s)),
            ("t_dynamic_prio_s", Json::Num(results[1].best_s)),
            ("t_dynamic_s", Json::Num(results[2].best_s)),
            ("dynamic_prio_vs_threads", Json::Num(ratio)),
            ("steals_threads", Json::Num(results[0].steals as f64)),
            ("steals_dynamic_prio", Json::Num(results[1].steals as f64)),
            ("steals_dynamic", Json::Num(results[2].steals as f64)),
            ("sim_sweep_ok", Json::Bool(sim_ok)),
        ]));
    }

    let mut fields = vec![("bench".to_string(), Json::Str("dynamic".to_string()))];
    fields.extend(header);
    fields.extend(
        [
            ("scale", Json::Num(sc)),
            ("reps", Json::Num(reps as f64)),
            ("target_ratio", Json::Num(TARGET_RATIO)),
            ("headline_ratio", Json::Num(headline_ratio)),
            ("problems", Json::Arr(rows)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    println!();
    write_report("BENCH_dynamic.json", quick, &Json::Obj(fields));

    let perf_ok = headline_ratio >= TARGET_RATIO;
    println!(
        "acceptance (dynamic+prio ≥ {TARGET_RATIO}× threads throughput on Shipsec5): \
         {headline_ratio:.2}x — {}",
        if perf_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "acceptance (all engines agree with sequential, incl. sim chaos sweep; factorizations and solves coarsen): {}",
        if failed { "NOT MET" } else { "MET" }
    );
    if failed || !perf_ok {
        eprintln!("FAIL: bench_dynamic gates not met");
        std::process::exit(1);
    }
}
