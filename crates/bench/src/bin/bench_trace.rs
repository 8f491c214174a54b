//! Trace-driven schedule validation and the closed calibration loop:
//! runs the parallel fan-in factorization on the deterministic simulation
//! backend with wall-clock tracing, joins the recorded trace against the
//! static schedule's predictions, feeds the measured per-task-kind rates
//! back into the machine model, and re-runs to show the calibrated
//! schedule prices its tasks at least as well as the uncalibrated one.
//!
//! Outputs:
//!
//! * `BENCH_trace.json` — the calibrated run's full report (per-rank
//!   compute/wait/idle split, critical-path pricing, top tasks, the
//!   headline `reconciliation` and `model_scale_ns_per_cost` keys the
//!   trend walker reads) plus the uncalibrated baseline report and both
//!   `prediction_fit` numbers side by side, and the
//!   `pastix_bench::env_header` fields;
//! * `target/trace.json` — the uncalibrated run's timeline as Chrome
//!   trace-event JSON (open in Perfetto or `chrome://tracing`; uploaded
//!   as a CI artifact);
//! * an ASCII Gantt chart and human tables on stdout.
//!
//! The process exits non-zero if either run fails to **reconcile** (the
//! trace span must account for ≥ 95% of the wall time — anything less
//! means the tracer is losing events), or if calibration *worsens* the
//! prediction fit beyond timing noise: the second run's schedule is built
//! from costs scaled by the first run's measured per-class
//! `ns_per_cost`, persisted through the same target-dir dotfile
//! discipline as the blocking probe. `--quick` shrinks the problem for
//! CI.

use pastix_bench::{env_header, prepare, scale, scotch_ordering};
use pastix_graph::ProblemId;
use pastix_machine::{
    cache_dir, load_calibration_in, store_calibration_in, task_kind, MachineModel,
    TaskCalibration,
};
use pastix_runtime::sim::FaultPlan;
use pastix_runtime::Backend;
use pastix_sched::{map_and_schedule, SchedOptions};
use pastix_solver::{Plan, SolverConfig};
use pastix_trace::export::{chrome_trace_with, render_gantt};
use pastix_trace::report::{build_report, TraceReport};
use pastix_trace::TraceOptions;

const TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
const TIMELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/trace.json");

/// Acceptance: the trace span must cover at least this fraction of the
/// wall time (and cannot exceed it — the span is measured inside it).
const RECONCILE_MIN: f64 = 0.95;

/// Acceptance: the calibrated run's prediction fit may trail the
/// uncalibrated one by at most this much (wall-clock timing noise); any
/// real regression means the feedback loop is mis-scaling task kinds.
const FIT_NOISE: f64 = 0.02;

struct Pass {
    report: TraceReport,
    timeline: pastix_json::Json,
    gantt: String,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_trace ({mode}) — task trace vs static schedule, sim backend");
    // Once, before this run rewrites BENCH_trace.json and dirties the tree.
    let header = env_header(mode);

    let sc = if quick { 0.02 } else { scale() };
    let procs = 4;
    let prep = prepare(ProblemId::Shipsec5, sc, &scotch_ordering());
    let mut sopts = SchedOptions::default();
    sopts.block_size = if quick { 16 } else { 32 };
    let ap = prep.matrix.permuted(&prep.analysis.perm);

    let run_pass = |machine: &MachineModel| -> Pass {
        let mapping = map_and_schedule(&prep.analysis.symbol, machine, &sopts);
        println!(
            "problem {} n={} procs={procs} tasks={} digest={:#018x}",
            prep.id.name(),
            ap.n(),
            mapping.graph.n_tasks(),
            mapping.schedule.digest()
        );
        let cfg = SolverConfig::new()
            .with_backend(Backend::Sim(FaultPlan::builder(1).build()))
            .with_trace(TraceOptions::wall());
        let plan =
            Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        let run = plan.factorize(&ap, &cfg).expect("factorization failed");
        Pass {
            report: build_report(&mapping.graph, &mapping.schedule, &run.trace),
            timeline: chrome_trace_with(&run.trace, &mapping.graph, &mapping.schedule),
            gantt: render_gantt(&run.trace, 72),
        }
    };

    // Pass 1: the raw BLAS model prices every task kind with factor 1.
    println!("\n== pass 1: uncalibrated ==");
    let uncal = run_pass(&MachineModel::sp2(procs));
    print!("{}", uncal.report.render_tables(15));
    print!("{}", uncal.gantt);

    // The timeline artifact comes from the uncalibrated pass: it is the
    // run an operator would be diagnosing when deciding to calibrate.
    std::fs::write(TIMELINE_PATH, uncal.timeline.compact()).expect("write trace.json");
    println!("wrote {TIMELINE_PATH} (open in Perfetto / chrome://tracing)");
    println!();

    // Close the loop: persist the measured per-class rates through the
    // machine-cache dotfile and reload them the way a fresh process would.
    let cs = &uncal.report.class_stats;
    let cal = TaskCalibration {
        ns_per_cost: [
            cs[task_kind::COMP1D].ns_per_cost(),
            cs[task_kind::FACTOR].ns_per_cost(),
            cs[task_kind::BDIV].ns_per_cost(),
            cs[task_kind::BMOD].ns_per_cost(),
        ],
    };
    let dir = cache_dir();
    store_calibration_in(&dir, &cal);
    let loaded = load_calibration_in(&dir).unwrap_or(cal);
    let rel = loaded.relative();
    println!(
        "calibration (dotfile under {}): relative factors comp1d={:.3} factor={:.3} bdiv={:.3} bmod={:.3}",
        dir.display(),
        rel[0],
        rel[1],
        rel[2],
        rel[3]
    );

    // Pass 2: same problem, schedule rebuilt from the calibrated model.
    println!("\n== pass 2: calibrated ==");
    let cal_pass = run_pass(&MachineModel::sp2(procs).with_task_calibration(loaded));
    print!("{}", cal_pass.report.render_tables(15));
    print!("{}", cal_pass.gantt);

    let fit0 = uncal.report.prediction_fit;
    let fit1 = cal_pass.report.prediction_fit;
    println!(
        "\nprediction fit: uncalibrated {:.2}% -> calibrated {:.2}% ({:+.2} pts)",
        fit0 * 100.0,
        fit1 * 100.0,
        (fit1 - fit0) * 100.0
    );

    // One file carries both runs; the calibrated report's headline keys
    // stay top-level for the bench_trend walker.
    let mut j = cal_pass.report.to_json(50);
    if let pastix_json::Json::Obj(pairs) = &mut j {
        pairs.push((
            "prediction_fit_uncalibrated".to_string(),
            pastix_json::Json::Num(fit0),
        ));
        pairs.push((
            "prediction_fit_calibrated".to_string(),
            pastix_json::Json::Num(fit1),
        ));
        pairs.push((
            "calibration_ns_per_cost".to_string(),
            pastix_json::Json::Arr(
                loaded.ns_per_cost.iter().map(|&r| pastix_json::Json::Num(r)).collect(),
            ),
        ));
        pairs.push(("uncalibrated".to_string(), uncal.report.to_json(25)));
        pairs.extend(header);
    }
    std::fs::write(TRACE_PATH, j.pretty()).expect("write BENCH_trace.json");
    println!("wrote {TRACE_PATH}");

    let mut failed = false;
    for (name, rep) in [("uncalibrated", &uncal.report), ("calibrated", &cal_pass.report)] {
        let ok = rep.reconciliation >= RECONCILE_MIN && rep.reconciliation <= 1.0;
        println!(
            "reconciliation [{name}] (trace span / wall ≥ {:.0}%): {:.2}% — {}",
            RECONCILE_MIN * 100.0,
            rep.reconciliation * 100.0,
            if ok { "MET" } else { "NOT MET" }
        );
        failed |= !ok;
    }
    let fit_ok = fit1 + FIT_NOISE >= fit0;
    println!(
        "calibration gate (calibrated fit ≥ uncalibrated − {FIT_NOISE}): {}",
        if fit_ok { "MET" } else { "NOT MET" }
    );
    failed |= !fit_ok;
    if failed {
        eprintln!("FAIL: trace does not reconcile or calibration regressed the fit");
        std::process::exit(1);
    }
}
