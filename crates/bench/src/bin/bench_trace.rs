//! Trace-driven schedule validation: runs the parallel fan-in
//! factorization once on the deterministic simulation backend with
//! wall-clock tracing, over the schedule `MachineModel::sp2` prices, and
//! joins the recorded trace against that schedule's predictions.
//!
//! Outputs:
//!
//! * `BENCH_trace.json` (under `target/bench-quick/` with `--quick`) —
//!   the run's full report (per-rank
//!   compute/wait/idle split, critical-path pricing, per-class rates, top
//!   tasks, the headline `reconciliation` and `model_scale_ns_per_cost`
//!   keys the trend walker reads) and the `pastix_bench::env_header`
//!   fields;
//! * `target/trace.json` — the run's timeline as Chrome trace-event JSON
//!   (open in Perfetto or `chrome://tracing`; uploaded as a CI artifact);
//! * an ASCII Gantt chart and human tables on stdout.
//!
//! The process exits non-zero if the run fails to **reconcile**: the trace
//! span must account for ≥ 95% of the wall time — anything less means the
//! tracer is losing events. `--quick` shrinks the problem for CI.

use pastix_bench::{env_header, prepare, scale, scotch_ordering, write_report};
use pastix_graph::ProblemId;
use pastix_machine::MachineModel;
use pastix_runtime::sim::FaultPlan;
use pastix_runtime::Backend;
use pastix_sched::{map_and_schedule, SchedOptions};
use pastix_solver::{Plan, SolverConfig};
use pastix_trace::export::{chrome_trace_with, render_gantt};
use pastix_trace::report::build_report;
use pastix_trace::TraceOptions;

const TIMELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/trace.json");

/// Acceptance: the trace span must cover at least this fraction of the
/// wall time (and cannot exceed it — the span is measured inside it).
const RECONCILE_MIN: f64 = 0.95;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_trace ({mode}) — task trace vs static schedule, sim backend");
    let header = env_header(mode);

    let sc = if quick { 0.02 } else { scale() };
    let procs = 4;
    let prep = prepare(ProblemId::Shipsec5, sc, &scotch_ordering());
    let mut sopts = SchedOptions::default();
    sopts.block_size = if quick { 16 } else { 32 };
    let ap = prep.matrix.permuted(&prep.analysis.perm);

    let mapping = map_and_schedule(&prep.analysis.symbol, &MachineModel::sp2(procs), &sopts);
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
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    let run = plan.factorize(&ap, &cfg).expect("factorization failed");
    let report = build_report(&mapping.graph, &mapping.schedule, &run.trace);
    print!("{}", report.render_tables(15));
    print!("{}", render_gantt(&run.trace, 72));

    let timeline = chrome_trace_with(&run.trace, &mapping.graph, &mapping.schedule);
    std::fs::write(TIMELINE_PATH, timeline.compact()).expect("write trace.json");
    println!("wrote {TIMELINE_PATH} (open in Perfetto / chrome://tracing)");

    let mut j = report.to_json(50);
    if let pastix_json::Json::Obj(pairs) = &mut j {
        pairs.extend(header);
    }
    write_report("BENCH_trace.json", quick, &j);

    let ok = report.reconciliation >= RECONCILE_MIN && report.reconciliation <= 1.0;
    println!(
        "reconciliation (trace span / wall ≥ {:.0}%): {:.2}% — {}",
        RECONCILE_MIN * 100.0,
        report.reconciliation * 100.0,
        if ok { "MET" } else { "NOT MET" }
    );
    if !ok {
        eprintln!("FAIL: trace does not reconcile");
        std::process::exit(1);
    }
}
