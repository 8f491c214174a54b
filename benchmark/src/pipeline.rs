//! The direct-solver operations the workloads are made of — analyze,
//! factorize, solve, verify — each timed from outside through the public
//! surface, plus the traced variants that stage the analyze phase through
//! the per-crate entry functions and read the solver's own trace report.

use crate::calibrate::{Calibrator, Scale};
use crate::metrics::PROCS;
use crate::spans::Recorder;
use pastix_graph::{Parallelism, SymCsc};
use pastix_machine::MachineModel;
use pastix_sched::map_and_schedule;
use pastix_solver::{
    AnalyzeOptions, Backend, FactorRun, FactorStorage, MetricsRegistry, Plan, SolverConfig,
    TraceOptions,
};
use pastix_trace::report::build_report;
use std::collections::BTreeMap;
use std::time::Instant;

/// Scaled residual `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` every answer must meet.
pub const RESIDUAL_MAX: f64 = 1e-10;
/// Relative error `‖x − x*‖∞ / ‖x*‖∞` against the seeded exact solution.
pub const ERROR_MAX: f64 = 1e-6;

/// Checks one solution column against its right-hand side and the exact
/// solution it was built from.
pub fn verify(a: &SymCsc<f64>, x: &[f64], b: &[f64], exact: &[f64]) -> Result<(), String> {
    // The max-folds below skip NaN, so look for it first.
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Err(format!("x[{i}] = {}", x[i]));
    }
    let res = a.residual_norm(x, b);
    if res > RESIDUAL_MAX {
        return Err(format!("scaled residual {res:.3e} > {RESIDUAL_MAX:.0e}"));
    }
    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = x
        .iter()
        .zip(exact)
        .fold(0.0f64, |m, (u, v)| m.max((u - v).abs()))
        / scale;
    if err > ERROR_MAX {
        return Err(format!("relative error {err:.3e} > {ERROR_MAX:.0e}"));
    }
    Ok(())
}

/// Named timing (and ratio) samples of one run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Moves every sample of `other` in, under `rename(name)`.
    pub fn merge(&mut self, other: Samples, rename: impl Fn(&'static str) -> &'static str) {
        for (name, values) in other.0 {
            self.0.entry(rename(name)).or_default().extend(values);
        }
    }

    /// Multiplies every timing (a sample whose name ends in `_s`) by
    /// `scale.work` — or, if it is named in `alloc_like`, by `scale.alloc`.
    pub fn scale_times(&mut self, scale: Scale, alloc_like: &[&str]) {
        for (name, values) in self.0.iter_mut().filter(|(name, _)| name.ends_with("_s")) {
            let f = if alloc_like.contains(name) {
                scale.alloc
            } else {
                scale.work
            };
            values.iter_mut().for_each(|v| *v *= f);
        }
    }

    /// Median of `name`, 0 when nothing was recorded under it.
    pub fn median(&self, name: &str) -> f64 {
        match self.get(name) {
            [] => 0.0,
            s => crate::stats::median(s),
        }
    }
}

/// Times calls into the layers; in a traced run it also records a span
/// around each.
#[derive(Debug)]
pub struct Tracer(pub Option<Recorder>);

impl Tracer {
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        self.0.as_mut().map(|r| r.begin(name, parent, op))
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let (Some(r), Some(id)) = (self.0.as_mut(), id) {
            r.end(id);
        }
    }

    /// Runs `f`, returning its result and its wall seconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, op);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (r, secs)
    }
}

/// The counts of one factorization that must repeat exactly on every
/// operation of a workload, whatever the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCounts {
    pub opc_bits: u64,
    pub nnz_l: u64,
    pub tasks: u64,
    pub factor_bytes: u64,
    pub digest: u64,
    /// Messages of the static fan-in run; only a traced run counts them,
    /// and the dynamic backend sends none.
    pub sends: Option<u64>,
}

/// Remembers the first operation's counts and rejects any later
/// operation that differs.
#[derive(Debug, Default)]
pub struct Invariant(Option<ExactCounts>);

impl Invariant {
    pub fn check(&mut self, c: ExactCounts) -> Result<(), String> {
        let first = self.0.get_or_insert(c);
        // Untraced operations do not count messages.
        let same_sends = first.sends.is_none() || c.sends.is_none() || first.sends == c.sends;
        if (ExactCounts {
            sends: None,
            ..*first
        }) != (ExactCounts { sends: None, ..c })
            || !same_sends
        {
            return Err(format!(
                "exact counts changed between operations: {first:?} then {c:?}"
            ));
        }
        if first.sends.is_none() {
            first.sends = c.sends;
        }
        Ok(())
    }

    pub fn first(&self) -> Option<ExactCounts> {
        self.0
    }
}

/// The solver configuration of a workload: `PROCS` logical processors,
/// as many analyze threads, default kernels and blocking.
pub fn solver_config(backend: Backend) -> SolverConfig {
    SolverConfig::new()
        .with_backend(backend)
        .with_analyze(AnalyzeOptions {
            procs: PROCS,
            parallelism: Parallelism::Threads(PROCS),
            ..AnalyzeOptions::default()
        })
}

/// `Plan::analyze`, staged through the per-crate entry functions under
/// the options `Plan::analyze` derives from `cfg.analyze`, one span and
/// one sample per layer. Also samples the counts only the intermediate
/// artifacts expose.
pub fn staged_analyze(
    a: &SymCsc<f64>,
    cfg: &SolverConfig,
    tracer: &mut Tracer,
    parent: Option<usize>,
    op: u64,
    s: &mut Samples,
) -> Plan {
    let opts = &cfg.analyze;
    let mut oopts = opts.ordering.clone();
    oopts.parallelism = opts.parallelism;
    let mut aopts = opts.analysis.clone();
    aopts.parallelism = opts.parallelism;
    let mut sopts = opts.sched.clone();
    sopts.parallelism = opts.parallelism;
    let machine = opts
        .machine
        .clone()
        .unwrap_or_else(|| MachineModel::sp2(opts.procs));

    let (g, t) = tracer.call("graph.to_graph", parent, op, || a.to_graph());
    s.push("graph.to_graph_s", t);
    let (ordering, t) = tracer.call("ordering.nd", parent, op, || {
        pastix_ordering::nested_dissection(&g, &oopts)
    });
    s.push("ordering.nd_s", t);
    let (analysis, t) = tracer.call("symbolic.analyze", parent, op, || {
        pastix_symbolic::analyze(&g, &ordering, &aopts)
    });
    s.push("symbolic.analyze_s", t);
    let (mapping, t) = tracer.call("sched.map", parent, op, || {
        map_and_schedule(&analysis.symbol, &machine, &sopts)
    });
    s.push("sched.map_s", t);

    let nnz = analysis.symbol.nnz();
    s.push("ordering.nnz_l", analysis.scalar_nnz_offdiag as f64);
    s.push("ordering.opc", analysis.scalar_opc);
    s.push("symbolic.cblks", analysis.symbol.n_cblks() as f64);
    s.push("symbolic.bloks", analysis.symbol.bloks.len() as f64);
    s.push(
        "symbolic.fill_overhead",
        nnz.stored_entries as f64 / analysis.scalar_nnz_offdiag as f64,
    );
    s.push("sched.tasks", mapping.graph.n_tasks() as f64);
    // A prediction, not a timing: kept under a name calibration leaves alone.
    s.push("sched.pred_makespan", mapping.schedule.makespan);
    Plan::from_parts(Some(analysis.perm), mapping.graph, Some(mapping.schedule))
}

/// The numeric half of an operation that began at `started`: factorize
/// `a` under `plan`, solve panel `order[0]` of the `k`-column panels in
/// `rhs`, verify every column. Pushes `factorize_s`, `verify_s` and — the
/// operation ends with the last verified column — `solution_s`; when
/// `cfg` has tracing on, then also the counters and the shares of the
/// solver's own trace report.
///
/// After the operation has ended, the solve is repeated on each further
/// panel of `order` (verified too) and `solve_s` is pushed as the mean
/// over all of them: a solve is tens of times shorter than the
/// operation, and a single reading per operation is the noisiest number
/// of the run.
/// `opc`/`nnz_l` are the analyze counts to carry into the returned
/// [`ExactCounts`].
#[allow(clippy::too_many_arguments)]
pub fn numeric_op(
    plan: &Plan,
    a: &SymCsc<f64>,
    cfg: &SolverConfig,
    (rhs, exact): (&[f64], &[f64]),
    k: usize,
    order: &[usize],
    (opc, nnz_l): (f64, u64),
    started: Instant,
    tracer: &mut Tracer,
    parent: Option<usize>,
    op: u64,
    s: &mut Samples,
) -> Result<ExactCounts, String> {
    // A registry of its own, so the counters read below are this run's.
    let cfg = cfg.clone().with_metrics(MetricsRegistry::new());
    let (run, t) = tracer.call("solver.factorize", parent, op, || plan.factorize(a, &cfg));
    let run = run.map_err(|e| format!("factorization failed: {e}"))?;
    s.push("factorize_s", t);
    if cfg.trace.enabled {
        // Read before the solve adds its own tasks to the registry.
        let m = &cfg.metrics;
        s.push(
            "solver.fac_deep_copies",
            m.counter("solver.fac_deep_copies") as f64,
        );
        s.push(
            "solver.aub_fresh_allocs",
            m.counter("solver.aub_fresh_allocs") as f64,
        );
        s.push("runtime.steals", m.counter("dynamic.steals") as f64);
        s.push("runtime.executed", m.counter("dynamic.tasks") as f64);
    }
    let n = a.n();
    // The repeats' spans go by names of their own: they are not the operation's.
    let solve = |panel: usize, [solve, verified]: [&'static str; 2], tracer: &mut Tracer| {
        let cols = panel * k * n..(panel + 1) * k * n;
        let b = &rhs[cols.clone()];
        let (x, t) = tracer.call(solve, parent, op, || match k {
            1 => run.solve(b),
            _ => run.solve_panel(b, k),
        });
        let (checked, tv) = tracer.call(verified, parent, op, || {
            (0..k).try_for_each(|j| {
                let col = j * n..(j + 1) * n;
                verify(
                    a,
                    &x[col.clone()],
                    &b[col.clone()],
                    &exact[cols.clone()][col],
                )
                .map_err(|e| format!("panel {panel} column {j}: {e}"))
            })
        });
        checked.map(|()| (t, tv))
    };
    let (first, verify_s) = solve(order[0], ["solver.solve", "verify"], tracer)?;
    s.push("verify_s", verify_s);
    s.push("solution_s", started.elapsed().as_secs_f64());
    let mut solve_s = first;
    for &panel in &order[1..] {
        solve_s += solve(panel, ["repeat.solve", "repeat.verify"], tracer)?.0;
    }
    s.push("solve_s", solve_s / order.len() as f64);
    // Joining the trace is the benchmark's work, not the operation's: a
    // span of its own keeps it out of the operation's self time.
    let sends = cfg.trace.enabled.then(|| {
        tracer
            .call("trace.report", parent, op, || {
                push_trace_report(plan, &run, s)
            })
            .0
    });
    Ok(ExactCounts {
        opc_bits: opc.to_bits(),
        nnz_l,
        tasks: plan.graph().n_tasks() as u64,
        factor_bytes: run.storage.factor_bytes(),
        digest: plan.schedule().map_or(0, |sch| sch.digest()),
        sends: sends.filter(|_| matches!(cfg.backend, Backend::Threads)),
    })
}

/// Samples the traced factorization's report: where the ranks' time
/// went, by share of the summed rank windows, and what they sent.
/// Returns the number of messages.
fn push_trace_report(plan: &Plan, run: &FactorRun<f64>, s: &mut Samples) -> u64 {
    let sched = plan
        .schedule()
        .expect("benchmark plans carry a static schedule");
    let report = build_report(plan.graph(), sched, &run.trace);
    let sum =
        |f: fn(&pastix_trace::report::RankRow) -> u64| report.ranks.iter().map(f).sum::<u64>();
    let window = sum(|r| r.window_ns).max(1) as f64;
    s.push("solver.compute_frac", sum(|r| r.compute_ns) as f64 / window);
    s.push("solver.wait_frac", sum(|r| r.wait_ns) as f64 / window);
    s.push("solver.idle_frac", sum(|r| r.idle_ns) as f64 / window);
    s.push("solver.imbalance", report.imbalance);
    let measured = report.total_measured_ns.max(1) as f64;
    for (name, class) in [
        ("solver.task_share.comp1d", 0),
        ("solver.task_share.factor", 1),
        ("solver.task_share.bdiv", 2),
        ("solver.task_share.bmod", 3),
    ] {
        s.push(
            name,
            report.class_stats[class].measured_ns as f64 / measured,
        );
    }
    let sends = sum(|r| r.sends);
    s.push("runtime.sends", sends as f64);
    s.push("runtime.send_bytes", sum(|r| r.send_bytes) as f64);
    sends
}

/// Replica calls, made once in a traced run's set-up, that time pieces a
/// factorization does not expose on its own: the symmetric permutation,
/// the scatter into factor storage, an 8-column panel solve, and the
/// factorization on one processor (the plain single-thread baseline).
/// Each call sits in a calibration bracket of its own.
pub fn replica_calls(
    plan: &Plan,
    a: &SymCsc<f64>,
    cfg: &SolverConfig,
    rhs8: &[f64],
    reps: usize,
    cal: &mut Calibrator,
    s: &mut Samples,
) -> Result<(), String> {
    let perm = plan
        .permutation()
        .expect("analyzed plans own their permutation");
    let run = plan
        .factorize(a, cfg)
        .map_err(|e| format!("replica factorization failed: {e}"))?;
    for _ in 0..reps {
        let (ap, secs) = cal.time(|| a.permuted(perm));
        s.push("graph.permute_s", secs);
        let (st, secs) = cal.time(|| {
            let mut st = FactorStorage::zeros(plan.symbol());
            st.scatter(plan.symbol(), &ap);
            st
        });
        s.push("solver.scatter_s", secs);
        std::hint::black_box(st);
        let (x, secs) = cal.time(|| run.solve_panel(rhs8, 8));
        s.push("solver.solve_panel8_s", secs);
        std::hint::black_box(x);
    }
    // With one core there is nothing to compare one processor against.
    if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        let mut cfg1 = solver_config(Backend::Threads);
        cfg1.analyze.procs = 1;
        let plan1 = Plan::analyze(a, &cfg1);
        for _ in 0..reps {
            let (run1, secs) = cal.time(|| plan1.factorize(a, &cfg1));
            run1.map_err(|e| format!("one-processor factorization failed: {e}"))?;
            s.push("solver.factorize_p1_s", secs);
        }
    }
    Ok(())
}

/// `cfg` with the solver's own wall-clock tracing switched on.
pub fn traced(cfg: &SolverConfig) -> SolverConfig {
    cfg.clone().with_trace(TraceOptions::wall())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{rhs_panel, Rng};
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};

    fn small() -> SymCsc<f64> {
        grid_spd::<f64>(14, 14, 1, Stencil::Star, false, ValueKind::RandomSpd(5))
    }

    #[test]
    fn verify_accepts_the_solution_and_rejects_a_perturbed_one() {
        let a = small();
        let (exact, rhs) = rhs_panel(&a, 1, &mut Rng::new(4, 1));
        assert!(verify(&a, &exact, &rhs, &exact).is_ok());
        let mut bad = exact.clone();
        bad[3] *= 1.0 + 1e-4;
        assert!(verify(&a, &bad, &rhs, &exact).is_err());
        bad[3] = f64::NAN;
        assert!(verify(&a, &bad, &rhs, &exact).is_err());
    }

    #[test]
    fn staged_analyze_builds_the_plan_analyze_builds() {
        let a = small();
        let cfg = solver_config(Backend::Threads);
        let mut s = Samples::default();
        let mut tracer = Tracer(Some(Recorder::new()));
        let staged = staged_analyze(&a, &cfg, &mut tracer, None, 0, &mut s);
        let whole = Plan::analyze(&a, &cfg);
        assert_eq!(
            staged.schedule().unwrap().digest(),
            whole.schedule().unwrap().digest()
        );
        assert_eq!(
            staged.permutation().unwrap().perm(),
            whole.permutation().unwrap().perm()
        );
        let stats = whole.analyze_stats().unwrap();
        assert_eq!(s.get("ordering.opc"), [stats.scalar_opc]);
        assert_eq!(s.get("ordering.nnz_l"), [stats.scalar_nnz_offdiag as f64]);
        let names: Vec<_> = tracer.0.unwrap().spans().iter().map(|sp| sp.name).collect();
        assert_eq!(
            names,
            [
                "graph.to_graph",
                "ordering.nd",
                "symbolic.analyze",
                "sched.map"
            ]
        );
    }

    #[test]
    fn traced_numeric_op_reads_the_report_and_counts_messages() {
        let a = small();
        let cfg = solver_config(Backend::Threads);
        let plan = Plan::analyze(&a, &cfg);
        let stats = plan.analyze_stats().unwrap();
        let counts = (stats.scalar_opc, stats.scalar_nnz_offdiag);
        let (exact, rhs) = rhs_panel(&a, 2, &mut Rng::new(4, 1));
        let mut s = Samples::default();
        let mut tracer = Tracer(None);
        let plain = numeric_op(
            &plan,
            &a,
            &cfg,
            (&rhs, &exact),
            2,
            &[0],
            counts,
            Instant::now(),
            &mut tracer,
            None,
            0,
            &mut s,
        )
        .unwrap();
        assert_eq!(plain.sends, None);
        let c = numeric_op(
            &plan,
            &a,
            &traced(&cfg),
            (&rhs, &exact),
            1,
            &[1, 0],
            counts,
            Instant::now(),
            &mut tracer,
            None,
            1,
            &mut s,
        )
        .unwrap();
        assert!(c.sends.is_some());
        // One `solve_s` per operation, however many repeats; a repeat is
        // verified like the operation's own solve.
        assert_eq!(s.get("solve_s").len(), 2);
        let mut wrong = exact.clone();
        wrong[0] += 1.0; // panel 0 is the repeat of order [1, 0]
        let repeat_checked = numeric_op(
            &plan,
            &a,
            &cfg,
            (&rhs, &wrong),
            1,
            &[1, 0],
            counts,
            Instant::now(),
            &mut tracer,
            None,
            2,
            &mut s,
        );
        assert!(repeat_checked.unwrap_err().starts_with("panel 0 column 0"));
        // Task spans contain the receives a task blocks on, so the shares
        // overlap; each is a share of the ranks' windows all the same.
        for share in [
            "solver.compute_frac",
            "solver.wait_frac",
            "solver.idle_frac",
        ] {
            assert!(
                (0.0..=1.0).contains(&s.median(share)),
                "{share} = {}",
                s.median(share)
            );
        }
        assert_eq!(
            s.median("solver.task_share.comp1d")
                + s.median("solver.task_share.factor")
                + s.median("solver.task_share.bdiv")
                + s.median("solver.task_share.bmod"),
            1.0
        );
        let mut inv = Invariant::default();
        inv.check(plain).unwrap();
        inv.check(c).unwrap();
        assert_eq!(inv.first().unwrap().sends, c.sends);
        assert!(inv
            .check(ExactCounts {
                tasks: c.tasks + 1,
                ..c
            })
            .is_err());
        assert!(inv
            .check(ExactCounts {
                sends: c.sends.map(|n| n + 1),
                ..c
            })
            .is_err());
    }
}
