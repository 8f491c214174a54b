//! One run of one workload in this process: repeated set-up, the
//! measured window, and the assembly of its metrics.

use crate::calibrate::{Calibrator, NOMINAL};
use crate::inputs::{
    forecast_cache, revalued, rhs_panel, serve_run, Input, Rng, SERVE_CYCLE, SERVE_SHARES,
};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER, PROCS};
use crate::pipeline::{
    numeric_op, replica_calls, solver_config, staged_analyze, traced, ExactCounts, Invariant,
    Samples, Tracer,
};
use crate::probes;
use crate::serve::{self, ServeSetup, HIT_BATCH, MISS_ANALYZE, MISS_BATCH, MISS_FACTORIZE};
use crate::spans::{self, Recorder};
use crate::stats::{median, weighted_median, Summary};
use pastix_graph::{build_problem, ProblemId};
use pastix_json::Json;
use pastix_serve::{pack_panel, unpack_completions, MatrixFingerprint, Request};
use pastix_solver::{Backend, DynamicOptions, Plan, SolverConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed operations at the end of each set-up.
const WARMUP_OPS: usize = 2;
/// Operations a window holds at least, however short `--seconds` is.
const MIN_OPS: usize = 4;
/// Right-hand sides (cold) or re-valued matrices (refactor) cycled through.
const POOL: usize = 4;
/// Panel width of the refactor workload's solve.
const PANEL: usize = 8;
/// Repetitions of a replica call.
const REPS: usize = 5;
/// Further analyses per set-up of the refactor workload, timed like the
/// set-up's own but outside `setup_s`: without them `analyze_s` there is
/// the median of [`SETUPS`] readings, and spread by 21 % between runs.
const ANALYZE_REPEATS: usize = 3;

/// What the direct-solver workloads differ in.
#[derive(Clone, Copy)]
struct Direct {
    name: &'static str,
    problem: ProblemId,
    scale: f64,
    backend: Backend,
    /// Cold: analyze inside every operation, one right-hand side.
    /// Otherwise: analyze once, in set-up; an operation factorizes a
    /// re-valued matrix and solves a panel of [`PANEL`].
    cold: bool,
}

fn direct_workloads() -> [Direct; 3] {
    [
        Direct {
            name: "solid3d_cold_static",
            problem: ProblemId::Bmwcra1,
            scale: 0.10,
            backend: Backend::Threads,
            cold: true,
        },
        Direct {
            name: "plate2d_cold_static",
            problem: ProblemId::Quer,
            scale: 1.0,
            backend: Backend::Threads,
            cold: true,
        },
        Direct {
            name: "shell_refactor_dynamic",
            problem: ProblemId::Shipsec5,
            scale: 0.20,
            backend: Backend::Dynamic(
                DynamicOptions::new()
                    .with_workers(PROCS)
                    .with_priorities(true),
            ),
            cold: false,
        },
    ]
}

/// Result of one run, before printing.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Run header: what was measured, on what, with which exact counts.
    pub header: Vec<(&'static str, Json)>,
}

/// The analyze counts and schedule digest of a workload's pattern, from
/// one `Plan::analyze` in set-up.
#[derive(Clone, Copy)]
struct Reference {
    opc: f64,
    nnz_l: u64,
    digest: u64,
}

impl Reference {
    fn of(plan: &Plan) -> Self {
        let st = plan
            .analyze_stats()
            .expect("Plan::analyze records its stats");
        Reference {
            opc: st.scalar_opc,
            nnz_l: st.scalar_nnz_offdiag,
            digest: digest_of(plan),
        }
    }
}

fn digest_of(plan: &Plan) -> u64 {
    plan.schedule().map_or(0, |s| s.digest())
}

struct DirectSetup {
    inputs: Vec<Input>,
    /// The plan analyzed in set-up (refactor only).
    plan: Option<Plan>,
    /// Present whenever an operation does not run `Plan::analyze` itself.
    reference: Option<Reference>,
}

/// A direct-solver workload in flight: its configuration, its samples
/// and its tally of operations.
struct Window {
    w: Direct,
    cfg: SolverConfig,
    cal: Calibrator,
    tracer: Tracer,
    samples: Samples,
    invariant: Invariant,
    attempted: u64,
    failed: u64,
}

/// Under tracing the five phase timings go by other names, so a traced
/// operation never contributes to an end-to-end number.
fn traced_name(name: &'static str) -> &'static str {
    match name {
        "analyze_s" => "traced.analyze_s",
        "factorize_s" => "traced.factorize_s",
        "solve_s" => "traced.solve_s",
        "solution_s" => "traced.solution_s",
        "verify_s" => "traced.verify_s",
        other => other,
    }
}

impl Window {
    /// The timings that move with the alloc part of a calibration pass:
    /// the single-column solve of the static engine (the cold workloads').
    /// The panel solve of the refactor workload moves with the work part.
    fn alloc_like(&self) -> &'static [&'static str] {
        if self.w.cold {
            &["solve_s"]
        } else {
            &[]
        }
    }

    fn new(w: Direct, trace: bool) -> Self {
        Window {
            w,
            cfg: solver_config(w.backend),
            cal: Calibrator::new(PROCS),
            tracer: Tracer(trace.then(Recorder::new)),
            samples: Samples::default(),
            invariant: Invariant::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Operation `i`, verified, between two calibration passes. A failure
    /// — or a panic inside the solver — is printed and counted, never
    /// propagated; only a verified operation returns its samples, in
    /// calibrated seconds. `traced_op` stages the analyze phase under
    /// spans and switches the solver's tracing on.
    fn op(&mut self, setup: &DirectSetup, i: usize, traced_op: bool) -> Option<Samples> {
        let op = self.attempted;
        self.attempted += 1;
        let mut s = Samples::default();
        let before = self.cal.begin();
        probes::reset_peak_rss();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.op_inner(setup, i, traced_op, op, &mut s)
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or(p.downcast_ref::<&str>().copied());
            Err(format!("panicked: {}", msg.unwrap_or("(no message)")))
        });
        s.push("peak_rss_bytes", probes::peak_rss_bytes() as f64);
        s.scale_times(self.cal.end(before), self.alloc_like());
        match outcome.and_then(|c| self.invariant.check(c)) {
            Ok(()) => Some(s),
            Err(e) => {
                println!("FAILED op {op}: {e}");
                self.failed += 1;
                None
            }
        }
    }

    fn op_inner(
        &mut self,
        setup: &DirectSetup,
        i: usize,
        traced_op: bool,
        op: u64,
        s: &mut Samples,
    ) -> Result<ExactCounts, String> {
        let input = &setup.inputs[i % setup.inputs.len()];
        // Cold: the operation solves one column of the pool, the repeats
        // the others. Refactor: one panel, the whole of `rhs`.
        let (k, order): (usize, Vec<usize>) = if self.w.cold {
            (1, (0..POOL).map(|j| (i + j) % POOL).collect())
        } else {
            (PANEL, vec![0])
        };
        let mut quiet = Tracer(None);
        let tracer = if traced_op {
            &mut self.tracer
        } else {
            &mut quiet
        };
        let cfg = if traced_op {
            traced(&self.cfg)
        } else {
            self.cfg.clone()
        };
        let span = tracer.begin("op", None, op);
        let t = Instant::now();
        let (plan, reference) = match (&setup.plan, setup.reference) {
            (Some(plan), Some(r)) => (plan.clone(), r),
            (_, Some(r)) if traced_op => {
                let plan = staged_analyze(&input.a, &cfg, tracer, span, op, s);
                if digest_of(&plan) != r.digest {
                    return Err("staged analyze built another schedule than Plan::analyze".into());
                }
                (plan, r)
            }
            _ => {
                let plan = Plan::analyze(&input.a, &cfg);
                let r = Reference::of(&plan);
                (plan, r)
            }
        };
        if self.w.cold {
            s.push("analyze_s", t.elapsed().as_secs_f64());
        }
        let counts = numeric_op(
            &plan,
            &input.a,
            &cfg,
            (&input.rhs, &input.exact),
            k,
            &order,
            (reference.opc, reference.nnz_l),
            t,
            tracer,
            span,
            op,
            s,
        )?;
        tracer.end(span);
        Ok(counts)
    }

    /// One set-up: inputs from the seed, the pattern's analysis where the
    /// workload (or tracing) needs it ahead of the operations, warm-up.
    /// Returns its calibrated seconds alongside: the preparation, in a
    /// bracket of its own, plus the warm-up operations, each in its own.
    fn setup(&mut self, seed: u64, trace: bool) -> (DirectSetup, f64) {
        let w = self.w;
        let before = self.cal.begin();
        let t = Instant::now();
        let base = build_problem::<f64>(w.problem, w.scale);
        let mut rng = Rng::new(seed, w.problem as u64);
        let inputs: Vec<Input> = if w.cold {
            vec![Input::new(base, POOL, &mut rng)]
        } else {
            (0..POOL)
                .map(|_| Input::new(revalued(&base, &mut rng), PANEL, &mut rng))
                .collect()
        };
        let a0 = &inputs[0].a;
        // Refactor traffic analyzes its pattern once, here.
        let mut analysis = Samples::default();
        let plan = (!w.cold).then(|| {
            let t = Instant::now();
            let plan = match trace {
                true => staged_analyze(a0, &self.cfg, &mut Tracer(None), None, 0, &mut analysis),
                false => Plan::analyze(a0, &self.cfg),
            };
            analysis.push("analyze_s", t.elapsed().as_secs_f64());
            plan
        });
        let reference = match (&plan, trace) {
            (None, false) => None,
            (Some(plan), false) => Some(Reference::of(plan)),
            (_, true) => Some(Reference::of(&Plan::analyze(a0, &self.cfg))),
        };
        if let (Some(plan), Some(r)) = (&plan, &reference) {
            assert_eq!(
                digest_of(plan),
                r.digest,
                "staged analyze built another schedule than Plan::analyze"
            );
        }
        let secs = t.elapsed().as_secs_f64();
        let scale = self.cal.end(before);
        analysis.scale_times(scale, &[]);
        self.samples.merge(analysis, |name| name);
        if !w.cold && !trace {
            for _ in 0..ANALYZE_REPEATS {
                let (again, secs) = self.cal.time(|| Plan::analyze(a0, &self.cfg));
                std::hint::black_box(again);
                self.samples.push("analyze_s", secs);
            }
        }
        let setup = DirectSetup {
            inputs,
            plan,
            reference,
        };
        let warmup: f64 = (0..WARMUP_OPS)
            .filter_map(|i| self.op(&setup, i, false))
            .map(|s| s.get("solution_s").iter().sum::<f64>())
            .sum();
        (setup, secs * scale.work + warmup)
    }

    /// [`SETUPS`] set-ups, timed; the last one stays.
    fn setups(&mut self, seed: u64, trace: bool) -> DirectSetup {
        let mut setup = None;
        for _ in 0..SETUPS {
            drop(setup.take()); // one set-up's inputs in memory at a time
            let (st, secs) = self.setup(seed, trace);
            self.samples.push("setup_s", secs);
            setup = Some(st);
        }
        setup.expect("SETUPS >= 1")
    }

    /// Operations until `done(ops so far)`. A traced run alternates plain
    /// and traced operations, so both medians see the same machine state.
    /// Returns the number of verified plain operations.
    fn measure(
        &mut self,
        setup: &DirectSetup,
        trace: bool,
        mut done: impl FnMut(usize) -> bool,
    ) -> u64 {
        let mut verified = 0;
        let mut i = 0;
        while !done(i) {
            let traced_op = trace && i % 2 == 1;
            if let Some(s) = self.op(setup, i, traced_op) {
                verified += u64::from(!traced_op);
                let rename: fn(&'static str) -> &'static str =
                    if traced_op { traced_name } else { |name| name };
                self.samples.merge(s, rename);
            }
            i += 1;
        }
        verified
    }

    /// The replica calls of a traced run, on the first input.
    fn replicas(&mut self, setup: &DirectSetup, seed: u64) {
        let input = &setup.inputs[0];
        let plan = setup
            .plan
            .clone()
            .unwrap_or_else(|| Plan::analyze(&input.a, &self.cfg));
        let rhs8 = match self.w.cold {
            true => rhs_panel(&input.a, PANEL, &mut Rng::new(seed, 8)).1,
            false => input.rhs.clone(),
        };
        let (cal, s) = (&mut self.cal, &mut self.samples);
        if let Err(e) = replica_calls(&plan, &input.a, &self.cfg, &rhs8, REPS, cal, s) {
            println!("FAILED replica calls: {e}");
            self.failed += 1;
        }
    }
}

fn run_direct(w: Direct, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut win = Window::new(w, trace);
    let setup = win.setups(seed, trace);
    let probes = trace.then(Probes::measure);
    if trace {
        win.replicas(&setup, seed);
    }
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(seconds);
    let verified = win.measure(&setup, trace, |i| {
        i >= MIN_OPS && Instant::now() >= deadline
    });

    let s = &win.samples;
    let first = win.invariant.first();
    let factor_bytes = first.map_or(0, |c| c.factor_bytes);
    let mut metrics = MetricSet::default();
    if let Some(p) = &probes {
        let overhead = ratio(s.median("traced.solution_s"), s.median("solution_s")) - 1.0;
        layer_metrics(
            s,
            p,
            &win.cal,
            w.cold,
            factor_bytes,
            &[("trace.overhead_frac", overhead)],
            &mut metrics,
        );
        write_spans(&win.tracer, w.name);
    } else {
        let k = if w.cold { 1 } else { PANEL };
        metrics.samples("setup_s", s.get("setup_s"));
        metrics.samples("solution_s", s.get("solution_s"));
        metrics.samples("analyze_s", s.get("analyze_s"));
        metrics.samples("factorize_s", s.get("factorize_s"));
        metrics.samples("solve_s", s.get("solve_s"));
        metrics.value("factor_bytes", factor_bytes as f64);
        metrics.samples("peak_rss_bytes", s.get("peak_rss_bytes"));
        // Against the operations' own (calibrated) seconds: the passes
        // between them are the benchmark's time, not the solver's.
        metrics.value(
            "solves_per_s",
            (verified * k as u64) as f64 / s.get("solution_s").iter().sum::<f64>(),
        );
        // Every operation is one request here: its latency is the
        // operation's wall time.
        metrics.samples("request_p50_s", s.get("solution_s"));
        metrics.value("request_p99_s", Summary::tail(s.get("solution_s"), 0.99));
    }
    let backend = if matches!(w.backend, Backend::Threads) {
        "threads"
    } else {
        "dynamic"
    };
    let mut header = vec![
        ("problem", Json::Str(w.problem.name().to_string())),
        ("scale", Json::Num(w.scale)),
        ("n", Json::Num(setup.inputs[0].a.n() as f64)),
        ("backend", Json::Str(backend.to_string())),
        ("window_s", Json::Num(window.elapsed().as_secs_f64())),
    ];
    header.extend(calibration_header(&win.cal));
    header.extend(first.iter().flat_map(exact_header));
    header.extend(probes.iter().flat_map(Probes::header));
    RunResult {
        attempted: win.attempted,
        failed: win.failed,
        metrics,
        header,
    }
}

fn exact_header(c: &ExactCounts) -> Vec<(&'static str, Json)> {
    let mut h = vec![
        ("sched.digest", Json::Str(format!("{:#018x}", c.digest))),
        ("ordering.opc", Json::Num(f64::from_bits(c.opc_bits))),
        ("ordering.nnz_l", Json::Num(c.nnz_l as f64)),
        ("sched.tasks", Json::Num(c.tasks as f64)),
        ("factor_bytes", Json::Num(c.factor_bytes as f64)),
    ];
    if let Some(sends) = c.sends {
        h.push(("runtime.sends", Json::Num(sends as f64)));
    }
    h
}

fn calibration_header(cal: &Calibrator) -> Vec<(&'static str, Json)> {
    let median = cal.median_pass();
    vec![
        ("calibration.nominal_s", Json::Num(NOMINAL.work)),
        ("calibration.median_pass_s", Json::Num(median.work)),
        ("calibration.nominal_alloc_s", Json::Num(NOMINAL.alloc)),
        ("calibration.median_alloc_pass_s", Json::Num(median.alloc)),
    ]
}

/// The ceilings of a traced run. Unlike every timing these are **raw**:
/// a dense kernel in cache is far less sensitive to the neighbours than
/// the calibration kernel is, so scaling it would over-correct. Ratios
/// against them use raw seconds too (see [`layer_metrics`]).
struct Probes {
    gemm: f64,
    trsm: f64,
    ldlt: f64,
    stream: probes::Stream,
}

impl Probes {
    fn measure() -> Self {
        Probes {
            gemm: probes::gemm_gflops(),
            trsm: probes::trsm_gflops(),
            ldlt: probes::ldlt_gflops(),
            stream: probes::stream_triad(PROCS),
        }
    }

    fn header(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("machine.llc_bytes", Json::Num(self.stream.llc_bytes as f64)),
            (
                "machine.stream_array_bytes",
                Json::Num(self.stream.array_bytes as f64),
            ),
        ]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Assembles every per-layer metric of a traced run: `extra` as given,
/// the derived ones from the medians they are defined on, the directly
/// sampled ones as medians, and 0 for a layer the workload never enters.
/// `factorize_s` and `solve_s` here are the untraced operations' — rates
/// and ratios are stated against the solver a user runs. Ratios against a
/// raw ceiling (the probes, the model's makespan) take raw seconds:
/// calibrated seconds times `machine`, the run's median pass over the
/// nominal one — for `solve_s`, where `cold_solve` says it was scaled by
/// the alloc part, of that part.
fn layer_metrics(
    s: &Samples,
    p: &Probes,
    cal: &Calibrator,
    cold_solve: bool,
    factor_bytes: u64,
    extra: &[(&str, f64)],
    out: &mut MetricSet,
) {
    let median = cal.median_pass();
    let machine = median.work / NOMINAL.work;
    let solve_machine = if cold_solve {
        median.alloc / NOMINAL.alloc
    } else {
        machine
    };
    let factorize = s.median("factorize_s");
    let gflops = ratio(s.median("ordering.opc"), factorize) / 1e9;
    // With one core the scaling figures are skipped (0), never a number.
    let p1 = s.median("solver.factorize_p1_s");
    let derived = [
        ("sched.pred_makespan_s", s.median("sched.pred_makespan")),
        ("kernels.gemm_gflops", p.gemm),
        ("kernels.trsm_gflops", p.trsm),
        ("kernels.ldlt_gflops", p.ldlt),
        ("machine.stream_gbs", p.stream.gbs),
        (
            "solver.numeric_s",
            factorize - s.median("graph.permute_s") - s.median("solver.scatter_s"),
        ),
        ("solver.factorize_gflops", gflops),
        (
            "solver.gemm_ceiling_frac",
            ratio(gflops / machine, PROCS as f64 * p.gemm),
        ),
        (
            "solver.solve_per_rhs_s",
            s.median("solver.solve_panel8_s") / PANEL as f64,
        ),
        // Computed bytes: the forward and the backward sweep each read the factor once.
        (
            "solver.solve_bw_frac",
            ratio(
                ratio(
                    2.0 * factor_bytes as f64,
                    s.median("solve_s") * solve_machine,
                ),
                p.stream.gbs * 1e9,
            ),
        ),
        (
            "solver.parallel_efficiency",
            ratio(p1, PROCS as f64 * factorize),
        ),
        (
            "sched.pred_over_measured",
            ratio(s.median("sched.pred_makespan"), factorize * machine),
        ),
    ];
    for (name, _, _) in PER_LAYER {
        match (
            extra.iter().chain(&derived).find(|d| d.0 == name),
            s.get(name),
        ) {
            (Some(d), _) => out.value(name, d.1),
            (None, []) => out.value(name, 0.0),
            (None, samples) => out.samples(name, samples),
        }
    }
}

fn write_spans(tracer: &Tracer, workload: &str) {
    let Some(rec) = &tracer.0 else { return };
    println!("spans by name: count, total s, self s");
    for (name, (count, total, own)) in spans::totals_by_name(rec.spans()) {
        println!(
            "  {name:<18} {count:>7} {:>10.4} {:>10.4}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
    let path = crate::out_dir().join(format!("spans-{workload}.json"));
    match std::fs::write(&path, spans::chrome_trace(rec.spans()).compact()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

fn run_serve(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let plain_cfg = solver_config(Backend::Threads);
    let mut cal = Calibrator::new(PROCS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let (st, secs, f) = ServeSetup::new(seed, plain_cfg.clone(), &mut cal);
        s.push("setup_s", secs);
        failed += f;
        setup = Some(st);
    }
    let mut setup = setup.expect("SETUPS >= 1");
    let mut tracer = Tracer(trace.then(Recorder::new));
    // A traced run alternates cycles between the plain session and one
    // whose solver traces, each with its own warm cache.
    let mut traced_setup = trace.then(|| ServeSetup::new(seed, traced(&plain_cfg), &mut cal).0);
    let probes = trace.then(Probes::measure);
    let mut miss_path = None;
    if trace {
        serve_piece_replicas(&setup, &mut cal, &mut s);
        miss_path = Some(miss_path_replica(seed, &mut tracer));
    }

    let counters = |st: &ServeSetup| {
        let m = st.session.metrics();
        [
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.evictions",
        ]
        .map(|c| m.counter(c))
    };
    let before = counters(&setup);
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(seconds);
    let (mut plain_cycles, mut traced_cycles) = (0u64, 0u64);
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    let mut verified = 0u64;
    // Whole cycles only: every seed then measures the same runs.
    // (A traced run needs at least one cycle of either kind.)
    while plain_cycles == 0 || (trace && traced_cycles == 0) || Instant::now() < deadline {
        let traced_cycle = trace && (plain_cycles + traced_cycles) % 2 == 1;
        for i in 0..SERVE_CYCLE as u64 {
            let run_id = (plain_cycles + traced_cycles) * SERVE_CYCLE as u64 + i;
            // Every run between two calibration passes of its own.
            let mut run = Samples::default();
            let before = cal.begin();
            probes::reset_peak_rss();
            let out = if traced_cycle {
                let st = traced_setup
                    .as_mut()
                    .expect("a traced run has a traced session");
                st.run(serve_run(seed, i as i64), run_id, &mut tracer, &mut run)
            } else {
                setup.run(
                    serve_run(seed, i as i64),
                    run_id,
                    &mut Tracer(None),
                    &mut run,
                )
            };
            run.push("peak_rss_bytes", probes::peak_rss_bytes() as f64);
            run.scale_times(cal.end(before), &[]);
            attempted += serve::REQUESTS_PER_RUN as u64;
            failed += out;
            if traced_cycle {
                traced_wall += run.get("run_s").iter().sum::<f64>();
            } else {
                plain_wall += run.get("run_s").iter().sum::<f64>();
                verified += serve::REQUESTS_PER_RUN as u64 - out;
                s.merge(run, |name| name);
            }
        }
        if traced_cycle {
            traced_cycles += 1;
        } else {
            plain_cycles += 1;
        }
    }
    let after = counters(&setup);
    let [hits, misses, evictions] = [0, 1, 2].map(|i| after[i] - before[i]);

    // The cache traffic is a pure function of the mix: the session's
    // counters must show exactly what a shadow cache forecasts.
    let mut shadow = Vec::new();
    let cycle = |from: i64| (from..from + SERVE_CYCLE as i64).map(|i| serve_run(seed, i));
    forecast_cache(&mut shadow, 2, cycle(-(SERVE_CYCLE as i64)));
    let forecast = forecast_cache(&mut shadow, 2, cycle(0));
    if misses != forecast.misses * plain_cycles || evictions != forecast.evictions * plain_cycles {
        println!(
            "FAILED exact counts: {misses} misses, {evictions} evictions over {plain_cycles} cycles; \
             forecast {} and {} per cycle",
            forecast.misses, forecast.evictions
        );
        failed += 1;
    }

    let by_matrix = |names: [&'static str; 3]| {
        let classes: Vec<(f64, &[f64])> =
            (0..3).map(|m| (SERVE_SHARES[m], s.get(names[m]))).collect();
        weighted_median(&classes)
    };
    let mut metrics = MetricSet::default();
    let mut header = vec![
        (
            "matrices",
            Json::Arr(
                serve::MATRICES
                    .iter()
                    .map(|(id, sc)| Json::Str(format!("{}@{sc}", id.name())))
                    .collect(),
            ),
        ),
        ("clients", Json::Num(serve::CLIENTS as f64)),
        ("cycles", Json::Num(plain_cycles as f64)),
        ("requests", Json::Num(s.get("request_s").len() as f64)),
        ("window_s", Json::Num(window.elapsed().as_secs_f64())),
        (
            "serve.cache_misses_per_cycle",
            Json::Num(forecast.misses as f64),
        ),
        (
            "serve.cache_evictions_per_cycle",
            Json::Num(forecast.evictions as f64),
        ),
        (
            "serve.numeric_only_misses_per_cycle",
            Json::Num(forecast.numeric_only_misses as f64),
        ),
    ];
    header.extend(calibration_header(&cal));
    if let (Some(p), Some(mp)) = (&probes, miss_path) {
        let per_cycle = |total: f64| total / plain_cycles as f64;
        let total = |names: [&'static str; 3]| names.iter().flat_map(|n| s.get(n)).sum::<f64>();
        let extra = [
            ("serve.hit_batch_s", by_matrix(HIT_BATCH)),
            ("serve.miss_batch_s", by_matrix(MISS_BATCH)),
            (
                "serve.cache_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("serve.cache_misses", per_cycle(misses as f64)),
            ("serve.cache_evictions", per_cycle(evictions as f64)),
            (
                "serve.numeric_only_misses",
                forecast.numeric_only_misses as f64,
            ),
            (
                "serve.mean_batch_width",
                setup
                    .session
                    .metrics()
                    .histogram("serve.batch_width")
                    .map_or(0.0, |h| h.mean()),
            ),
            ("serve.analyze_s_total", per_cycle(total(MISS_ANALYZE))),
            ("serve.factorize_s_total", per_cycle(total(MISS_FACTORIZE))),
            // Per cycle of traffic, the traced session against the plain one.
            (
                "trace.overhead_frac",
                ratio(
                    ratio(traced_wall, traced_cycles as f64),
                    per_cycle(plain_wall),
                ) - 1.0,
            ),
        ];
        // Everything below the serve layer comes from the miss-path replica.
        attempted += mp.attempted;
        failed += mp.failed;
        let first = mp.invariant.first();
        s.merge(mp.samples, |name| name);
        layer_metrics(
            &s,
            p,
            &cal,
            true, // the miss-path replica is a cold operation
            first.map_or(0, |c| c.factor_bytes),
            &extra,
            &mut metrics,
        );
        header.extend(first.iter().flat_map(exact_header));
        header.extend(p.header());
        write_spans(&tracer, "serve_mixed_closed");
    } else {
        metrics.samples("setup_s", s.get("setup_s"));
        // New matrix in → first verified answers out: the miss path.
        metrics.value("solution_s", by_matrix(MISS_BATCH));
        metrics.value("analyze_s", by_matrix(MISS_ANALYZE));
        metrics.value("factorize_s", by_matrix(MISS_FACTORIZE));
        // An eight-column panel against a resident factor: the hit path.
        metrics.value("solve_s", by_matrix(HIT_BATCH));
        // The most the cache held at once.
        metrics.value(
            "factor_bytes",
            s.get("resident_bytes")
                .iter()
                .fold(0.0, |m: f64, &v| m.max(v)),
        );
        metrics.samples("peak_rss_bytes", s.get("peak_rss_bytes"));
        metrics.value("solves_per_s", verified as f64 / plain_wall);
        metrics.samples("request_p50_s", s.get("request_s"));
        metrics.value("request_p99_s", Summary::tail(s.get("request_s"), 0.99));
    }
    RunResult {
        attempted,
        failed,
        metrics,
        header,
    }
}

/// Replica calls of the serve layer's own pieces: the fingerprint (per
/// matrix, weighted by its share of the traffic) and packing eight
/// requests into a panel and back.
fn serve_piece_replicas(setup: &ServeSetup, cal: &mut Calibrator, s: &mut Samples) {
    let mut fingerprint = 0.0;
    for (share, a) in SERVE_SHARES.iter().zip(setup.matrices()) {
        let secs: Vec<f64> = (0..REPS)
            .map(|_| {
                cal.time(|| std::hint::black_box(MatrixFingerprint::of(a)))
                    .1
            })
            .collect();
        fingerprint += share * median(&secs);
    }
    s.push("serve.fingerprint_s", fingerprint);
    let (a, rhs) = setup.main_matrix();
    let n = a.n();
    let batch: Vec<Request<f64>> = (0..serve::CLIENTS)
        .map(|c| Request {
            id: c as u64,
            rhs: rhs[c * n..(c + 1) * n].to_vec(),
            arrival_ns: 0,
        })
        .collect();
    for _ in 0..REPS {
        let (done, secs) = cal.time(|| unpack_completions(&batch, &pack_panel(&batch, n), n, 0));
        std::hint::black_box(done);
        s.push("serve.pack_unpack_s", secs);
    }
}

/// What a cache miss runs, as a replica: the cold pipeline on the most
/// frequent matrix, under the configuration the session analyzes and
/// factorizes with, staged and traced like a cold workload's operation.
fn miss_path_replica(seed: u64, tracer: &mut Tracer) -> Window {
    let (problem, scale) = serve::MATRICES[0];
    let w = Direct {
        name: "serve_mixed_closed",
        problem,
        scale,
        backend: Backend::Threads,
        cold: true,
    };
    let mut win = Window::new(w, true);
    std::mem::swap(&mut win.tracer, tracer);
    let (setup, _) = win.setup(seed, true);
    win.replicas(&setup, seed);
    win.measure(&setup, true, |i| i >= 2 * REPS);
    std::mem::swap(&mut win.tracer, tracer);
    win
}

/// Runs `workload` once. `trace` selects the traced run (per-layer
/// metrics) over the plain one (end-to-end metrics).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunResult> {
    let result = match direct_workloads().into_iter().find(|w| w.name == workload) {
        Some(w) => run_direct(w, seed, seconds, trace),
        None if workload == "serve_mixed_closed" => run_serve(seed, seconds, trace),
        None => return None,
    };
    // Every listed metric, and nothing else, in the listed order.
    let listed: Vec<&str> = match trace {
        true => PER_LAYER.iter().map(|m| m.0).collect(),
        false => END_TO_END.iter().map(|m| m.0).collect(),
    };
    let got: Vec<&str> = result.metrics.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, listed, "a run reports exactly the listed metrics");
    Some(result)
}

/// Header fields common to every run: where and on what it ran.
pub fn environment() -> Vec<(&'static str, Json)> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let unknown = || "unknown".to_string();
    let bs = pastix_kernels::blocking_for::<f64>();
    vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("procs", Json::Num(PROCS as f64)),
        (
            "git_rev",
            Json::Str(cmd("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "git_dirty",
            cmd("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        (
            "rustc",
            Json::Str(cmd("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "kernel_mode",
            Json::Str(format!("{:?}", pastix_kernels::kernel_mode())),
        ),
        (
            "blocking",
            Json::Str(format!("{}x{}x{}", bs.mc, bs.kc, bs.nc)),
        ),
    ]
}
