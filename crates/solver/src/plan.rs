//! The `Plan` API: one analyze artifact, one factorize call, one solve
//! method.
//!
//! [`Plan::analyze`] runs the whole pre-processing pipeline (ordering →
//! symbolic analysis → block repartitioning → optional static
//! scheduling) and bundles its outputs — fill-reducing permutation, task
//! graph over the split symbol, and an `Option<Schedule>` — behind one
//! cheaply clonable handle. [`Plan::factorize`] dispatches the numeric
//! factorization on whatever backend the [`SolverConfig`] names (the
//! static schedule is *required* by the SPMD backends and merely a
//! placement/priority hint for [`Backend::Dynamic`]), and the returned
//! [`FactorRun`] carries its plan so [`FactorRun::solve_request`] can
//! permute, solve, and unpermute without the caller re-threading the
//! analyze artifacts through every call.
//!
//! Block low-rank compression rides the same flow: when
//! `cfg.compression` is enabled, every backend compresses qualifying
//! off-diagonal bloks during the factorization and the [`FactorRun`]'s
//! solves dispatch on the stored representation transparently (see
//! [`crate::compress`] and [`FactorRun::solve_refined`]).

use crate::config::{FactorRun, SolverConfig};
use crate::dynamic;
use crate::parallel::Routing;
use crate::solve_plan::SolvePlan;
use crate::storage::FactorStorage;
use pastix_graph::{Parallelism, Permutation, SymCsc};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_machine::MachineModel;
use pastix_ordering::OrderingOptions;
use pastix_runtime::Backend;
use pastix_sched::{map_and_schedule, Mapping, SchedOptions, Schedule, SolveSchedule, TaskGraph};
use pastix_symbolic::{AnalysisOptions, SymbolMatrix};
use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};
use std::sync::{Arc, OnceLock};

/// Pre-processing knobs of [`Plan::analyze`]. Lives inside
/// [`SolverConfig`] (`cfg.analyze`) so one config value drives the whole
/// pipeline.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Logical processor count the mapping targets (also the default
    /// worker count of both the SPMD backends and `Backend::Dynamic`).
    pub procs: usize,
    /// Machine model override. `None` (default) schedules for the paper's
    /// SP2 model with `procs` processors; set it to map for another
    /// topology (e.g. [`MachineModel::sp2_smp`]) — its `n_procs` then
    /// takes precedence over `procs` for the mapping.
    pub machine: Option<MachineModel>,
    /// Parallelism of the analyze phase itself. One knob drives all three
    /// stages uniformly (ordering, symbolic, scheduling), overriding the
    /// per-stage fields in `ordering`/`analysis`/`sched`; the
    /// `PASTIX_ANALYZE_THREADS` env var overrides it per deployment.
    /// Analyze results are bitwise-identical at every setting — this
    /// knob only changes wall-clock time.
    pub parallelism: Parallelism,
    /// Fill-reducing ordering knobs (nested dissection).
    pub ordering: OrderingOptions,
    /// Symbolic analysis knobs (amalgamation).
    pub analysis: AnalysisOptions,
    /// Block repartitioning + scheduling knobs (1D/2D switch, block size).
    pub sched: SchedOptions,
    /// Compute the static schedule (default). Turn off for pure-dynamic
    /// runs that want analyze to skip the greedy scheduler; the plan's
    /// schedule is then `None` and only `Backend::Dynamic` can run it.
    pub static_schedule: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            procs: 4,
            machine: None,
            parallelism: Parallelism::Auto,
            ordering: OrderingOptions::default(),
            analysis: AnalysisOptions::default(),
            sched: SchedOptions::default(),
            static_schedule: true,
        }
    }
}

/// Scalar statistics and timing of one [`Plan::analyze`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeStats {
    /// Off-diagonal factor nonzeros from the scalar symbolic
    /// factorization (the paper's `NNZ_L`).
    pub scalar_nnz_offdiag: u64,
    /// Scalar operation count (`(c_j + 1)²` convention, the paper's
    /// `OPC`).
    pub scalar_opc: f64,
    /// Wall time of the whole analyze phase in nanoseconds.
    pub analyze_ns: u64,
}

impl AnalyzeOptions {
    /// Default analyze options for `procs` logical processors.
    pub fn with_procs(procs: usize) -> Self {
        Self { procs, ..Self::default() }
    }
}

#[derive(Debug)]
struct PlanInner {
    perm: Option<Permutation>,
    graph: TaskGraph,
    schedule: Option<Schedule>,
    n: usize,
    stats: Option<AnalyzeStats>,
    analyze_trace: Option<TraceLog>,
    /// Structure of the triangular solves, built by the first solve of
    /// any run of this plan and replayed by every later one.
    solve_plan: OnceLock<SolvePlan>,
    /// Fan-in routing of the static factorization, built by the first one
    /// of this plan and replayed by every later one.
    routing: OnceLock<Routing>,
}

/// The analyzed (pre-numeric) state of one matrix pattern: permutation,
/// symbol/task graph, and (optionally) the static schedule. `Clone` is an
/// `Arc` bump, so caching a plan next to its factors is free.
#[derive(Debug, Clone)]
pub struct Plan {
    inner: Arc<PlanInner>,
}

impl Plan {
    /// Runs ordering, symbolic analysis, and mapping/scheduling on the
    /// pattern of `a`, per `cfg.analyze`. The `cfg.analyze.parallelism`
    /// knob fans each stage out over threads without changing any output
    /// bit; when `cfg.trace` is enabled, per-stage task spans
    /// (ordering/symbolic/sched) are recorded and kept on the plan
    /// ([`Plan::analyze_trace`]).
    pub fn analyze<T: Scalar>(a: &SymCsc<T>, cfg: &SolverConfig) -> Plan {
        let opts = &cfg.analyze;
        let g = a.to_graph();
        // One knob drives all three stages uniformly.
        let mut oopts = opts.ordering.clone();
        oopts.parallelism = opts.parallelism;
        let mut aopts = opts.analysis.clone();
        aopts.parallelism = opts.parallelism;
        let mut sopts = opts.sched.clone();
        sopts.parallelism = opts.parallelism;

        let session = pastix_trace::begin_rank(0, &cfg.trace);
        let t0 = std::time::Instant::now();
        let ordering = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Ordering);
            pastix_ordering::nested_dissection(&g, &oopts)
        };
        let analysis = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Symbolic);
            pastix_symbolic::analyze(&g, &ordering, &aopts)
        };
        let machine = opts
            .machine
            .clone()
            .unwrap_or_else(|| MachineModel::sp2(opts.procs));
        let Mapping { graph, schedule, .. } = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Sched);
            map_and_schedule(&analysis.symbol, &machine, &sopts)
        };
        let analyze_ns = t0.elapsed().as_nanos() as u64;
        let analyze_trace = session.finish().map(|rt| TraceLog {
            ranks: vec![rt],
            wall_ns: analyze_ns,
            digest: schedule.digest(),
        });
        let stats = AnalyzeStats {
            scalar_nnz_offdiag: analysis.scalar_nnz_offdiag,
            scalar_opc: analysis.scalar_opc,
            analyze_ns,
        };
        let mut plan = Plan::from_parts(
            Some(analysis.perm),
            graph,
            opts.static_schedule.then_some(schedule),
        );
        let inner = Arc::get_mut(&mut plan.inner).expect("fresh plan is unshared");
        inner.stats = Some(stats);
        inner.analyze_trace = analyze_trace;
        plan
    }

    /// Assembles a plan from already-computed artifacts. `perm: None`
    /// means the inputs to [`Plan::factorize`] / the solves are treated as
    /// already permuted (elimination order) — used by callers that manage
    /// the permutation themselves.
    pub fn from_parts(
        perm: Option<Permutation>,
        graph: TaskGraph,
        schedule: Option<Schedule>,
    ) -> Plan {
        if let Some(p) = &perm {
            assert_eq!(p.len(), graph.split.symbol.n, "permutation length != matrix order");
        }
        if let Some(s) = &schedule {
            assert_eq!(s.task_proc.len(), graph.n_tasks(), "schedule built for another graph");
        }
        let n = graph.split.symbol.n;
        Plan {
            inner: Arc::new(PlanInner {
                perm,
                graph,
                schedule,
                n,
                stats: None,
                analyze_trace: None,
                solve_plan: OnceLock::new(),
                routing: OnceLock::new(),
            }),
        }
    }

    /// Scalar statistics and timing of the analyze run that produced this
    /// plan (`None` for plans assembled via [`Plan::from_parts`]).
    pub fn analyze_stats(&self) -> Option<AnalyzeStats> {
        self.inner.stats
    }

    /// The analyze phase's task-span trace (ordering/symbolic/sched),
    /// recorded when the analyzing config had tracing enabled.
    pub fn analyze_trace(&self) -> Option<&TraceLog> {
        self.inner.analyze_trace.as_ref()
    }

    /// The fill-reducing permutation, when this plan owns one.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.inner.perm.as_ref()
    }

    /// The task graph over the split symbol.
    pub fn graph(&self) -> &TaskGraph {
        &self.inner.graph
    }

    /// The static schedule (`None` for pure-dynamic plans).
    pub fn schedule(&self) -> Option<&Schedule> {
        self.inner.schedule.as_ref()
    }

    /// The (split) block symbolic structure.
    pub fn symbol(&self) -> &SymbolMatrix {
        &self.inner.graph.split.symbol
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The solve-phase structure of this plan, built on first use. Each
    /// build counts in `solver.solve_plan_builds` of `metrics` — one per
    /// plan, however many runs and solves share it.
    pub(crate) fn solve_plan(&self, metrics: &MetricsRegistry) -> &SolvePlan {
        self.inner.solve_plan.get_or_init(|| {
            metrics.add_counter("solver.solve_plan_builds", 1);
            SolvePlan::build(&self.inner.graph, self.inner.schedule.as_ref())
        })
    }

    /// The fan-in routing of this plan's static factorizations, built on
    /// first use. Each build counts in `solver.routing_builds` of
    /// `metrics` — one per plan, however many factorizations share it.
    fn routing(&self, metrics: &MetricsRegistry) -> &Routing {
        self.inner.routing.get_or_init(|| {
            metrics.add_counter("solver.routing_builds", 1);
            Routing::build(&self.inner.graph, self.require_schedule())
        })
    }

    /// Numeric factorization of `a` (same pattern as analyzed) on the
    /// backend named by `cfg.backend`. The returned run carries this plan,
    /// so [`FactorRun::solve_request`] works without further arguments.
    pub fn factorize<T: Scalar>(
        &self,
        a: &SymCsc<T>,
        cfg: &SolverConfig,
    ) -> Result<FactorRun<T>, FactorError> {
        assert_eq!(a.n(), self.inner.n, "matrix order != analyzed order");
        // Rank panics inside the runtime land in the flight ring, and the
        // factorization itself leaves coarse start/end marks there.
        pastix_trace::flight::wire_runtime_observer();
        let fp = self
            .inner
            .schedule
            .as_ref()
            .map_or(self.inner.n as u64, |s| s.digest());
        pastix_trace::flight::record(pastix_trace::flight::FlightKind::FactorizeStart, fp, 0);
        let t0 = std::time::Instant::now();
        let sym = self.symbol();
        let permuted;
        let ap: &SymCsc<T> = match &self.inner.perm {
            Some(p) => {
                permuted = a.permuted(p);
                &permuted
            }
            None => a,
        };
        let mut run = match cfg.backend {
            Backend::Dynamic(dopts) => dynamic::factorize_dynamic(
                sym,
                ap,
                &self.inner.graph,
                self.inner.schedule.as_ref(),
                &dopts,
                cfg,
            )?,
            Backend::Threads | Backend::Sim(_) => {
                let (sched, routing) = (self.require_schedule(), self.routing(&cfg.metrics));
                crate::parallel::factorize_static(sym, ap, &self.inner.graph, sched, routing, cfg)?
            }
        };
        pastix_trace::flight::record(
            pastix_trace::flight::FlightKind::FactorizeEnd,
            fp,
            t0.elapsed().as_nanos() as u64,
        );
        run.ctx = Some(PlanCtx { plan: self.clone(), cfg: cfg.clone() });
        if cfg.persist_calibration {
            self.persist_calibration(cfg, &run.trace);
        }
        Ok(run)
    }

    /// Closes the calibration loop for a production run: joins the just
    /// recorded wall-clock trace against the static schedule and persists
    /// the measured per-task-kind `ns_per_cost` rates to the machine
    /// dotfile (exactly what `bench_trace` does offline). Quietly skips
    /// when the run carries no rate information — tracing off, logical
    /// clock, no static schedule, or degenerate fits.
    fn persist_calibration(&self, cfg: &SolverConfig, trace: &TraceLog) {
        use pastix_machine::{cache_dir, store_calibration_in, task_kind, TaskCalibration};
        if !cfg.trace.enabled
            || cfg.trace.clock != pastix_trace::ClockMode::Wall
            || trace.ranks.is_empty()
        {
            return;
        }
        let Some(sched) = self.inner.schedule.as_ref() else {
            return;
        };
        let report = pastix_trace::report::build_report(&self.inner.graph, sched, trace);
        let cs = &report.class_stats;
        let cal = TaskCalibration {
            ns_per_cost: [
                cs[task_kind::COMP1D].ns_per_cost(),
                cs[task_kind::FACTOR].ns_per_cost(),
                cs[task_kind::BDIV].ns_per_cost(),
                cs[task_kind::BMOD].ns_per_cost(),
            ],
        };
        // A class that never ran fits to 0; persisting that would poison
        // the scheduler's cost model for the next process.
        if cal.ns_per_cost.iter().any(|&r| !r.is_finite() || r <= 0.0) {
            return;
        }
        store_calibration_in(&cache_dir(), &cal);
    }

    fn require_schedule(&self) -> &Schedule {
        self.inner.schedule.as_ref().expect(
            "this plan has no static schedule (analyze.static_schedule = false): \
             only Backend::Dynamic can run it",
        )
    }
}

/// The plan + config a [`FactorRun`] was produced under (attached by
/// [`Plan::factorize`] / [`FactorRun::bind_plan`]).
#[derive(Debug, Clone)]
pub(crate) struct PlanCtx {
    pub(crate) plan: Plan,
    pub(crate) cfg: SolverConfig,
}

/// One solve call: `rhs` is `n × k` column-major (original row order when
/// the plan owns a permutation, elimination order otherwise); `k = 1` is
/// the single-RHS case. `trace: true` records the solve's [`TraceLog`]
/// even when the config's tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a, T> {
    /// Right-hand sides, `n × k` column-major.
    pub rhs: &'a [T],
    /// Number of right-hand sides.
    pub k: usize,
    /// Record a trace of this solve.
    pub trace: bool,
    /// Request identity for distributed tracing: when set (and the solve
    /// is traced), every rank's portion of the solve trace is wrapped in
    /// a [`pastix_trace::ServeStage::Solve`] async span carrying this id,
    /// so the serving layer's per-request parent span links to the DAG
    /// execution in the Chrome/Perfetto export.
    pub tag: Option<u64>,
}

impl<'a, T> SolveRequest<'a, T> {
    /// A single untraced right-hand side.
    pub fn single(rhs: &'a [T]) -> Self {
        Self { rhs, k: 1, trace: false, tag: None }
    }

    /// An untraced `n × k` panel.
    pub fn panel(rhs: &'a [T], k: usize) -> Self {
        Self { rhs, k, trace: false, tag: None }
    }

    /// Requests a trace of this solve.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Attaches a request id to the solve's trace spans (implies nothing
    /// unless the solve is traced).
    pub fn tagged(mut self, id: u64) -> Self {
        self.tag = Some(id);
        self
    }
}

/// Result of [`FactorRun::solve_request`]: the solution panel and the
/// solve's trace (empty when untraced).
#[derive(Debug)]
pub struct SolveOutput<T> {
    /// Solution, `n × k` column-major, same row order as the request's
    /// right-hand sides.
    pub x: Vec<T>,
    /// The solve's trace (empty unless requested or globally enabled).
    pub trace: TraceLog,
}

impl<T: Scalar> FactorRun<T> {
    /// Attaches a plan (and the config to solve under) to a run that was
    /// built outside [`Plan::factorize`] — e.g. a sequentially factored
    /// storage — enabling [`FactorRun::solve_request`] on it.
    pub fn bind_plan(&mut self, plan: &Plan, cfg: &SolverConfig) {
        self.ctx = Some(PlanCtx { plan: plan.clone(), cfg: cfg.clone() });
    }

    /// Solves `A·X = B` for the request's right-hand sides using this
    /// run's factor, on the backend of the config the run was produced
    /// under. Single-RHS is `k = 1` of the same panel path.
    pub fn solve_request(&self, req: SolveRequest<'_, T>) -> SolveOutput<T> {
        let ctx = self.ctx.as_ref().expect(
            "this FactorRun has no Plan attached; produce it with Plan::factorize \
             (or call bind_plan) before solving",
        );
        let plan = &ctx.plan;
        let n = plan.n();
        assert!(req.k >= 1, "solve needs at least one right-hand side");
        assert_eq!(req.rhs.len(), n * req.k, "rhs must be n × k column-major");
        let mut cfg = ctx.cfg.clone();
        if !req.trace {
            cfg.trace = TraceOptions::disabled();
        } else if !cfg.trace.enabled {
            cfg.trace = TraceOptions::wall();
        }
        // The engines fuse the permutation into elimination order with
        // their workspace fill, and its inverse with the solution gather.
        let perm = plan.permutation().map(|p| p.perm());
        let sym = plan.symbol();
        let sp = plan.solve_plan(&cfg.metrics);
        let (x, trace) = match cfg.backend {
            Backend::Dynamic(dopts) => dynamic::solve_panel_dynamic(
                sym,
                &self.storage,
                &sp.dag,
                plan.schedule(),
                req.rhs,
                req.k,
                perm,
                &dopts,
                &cfg,
            ),
            Backend::Threads | Backend::Sim(_) => {
                let sched = plan.require_schedule();
                let routing = sp.routing.as_ref().expect("a scheduled plan carries solve routing");
                crate::psolve::solve_panel_static(
                    sym,
                    &self.storage,
                    routing,
                    sched.digest(),
                    req.rhs,
                    req.k,
                    perm,
                    &cfg,
                )
            }
        };
        let mut trace = trace;
        if let Some(id) = req.tag {
            tag_solve_trace(&mut trace, id);
        }
        SolveOutput { x, trace }
    }

    /// The static solve schedule this run's solves replay (and solve
    /// traces reconcile against): part of the plan's solve structure, so
    /// built with it on first use and shared by every run of the plan.
    /// `None` without an attached plan or without a static schedule.
    pub fn solve_schedule(&self) -> Option<&SolveSchedule> {
        let ctx = self.ctx.as_ref()?;
        ctx.plan.solve_plan(&ctx.cfg.metrics).routing.as_ref().map(|r| &r.schedule)
    }

    /// Solves for a single right-hand side (untraced).
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_request(SolveRequest::single(b)).x
    }

    /// Solves for an `n × k` column-major panel of right-hand sides
    /// (untraced).
    pub fn solve_panel(&self, b: &[T], k: usize) -> Vec<T> {
        self.solve_request(SolveRequest::panel(b, k)).x
    }
}

/// Wraps every rank's slice of a solve trace in a
/// [`pastix_trace::ServeStage::Solve`] async span carrying the request
/// id. Runs after the backend returns, so one implementation covers all
/// three backends; spans inherit the rank's first/last event timestamps,
/// which keeps logical-clock (sim) traces a pure function of
/// `(seed, policy)`.
fn tag_solve_trace(trace: &mut TraceLog, id: u64) {
    use pastix_trace::{Event, EventKind, ServeStage};
    for rt in &mut trace.ranks {
        let (Some(first), Some(last)) = (rt.events.first(), rt.events.last()) else {
            continue;
        };
        let (b, e) = (first.at, last.at);
        rt.events.insert(
            0,
            Event { at: b, kind: EventKind::AsyncBegin { id, stage: ServeStage::Solve as u8 } },
        );
        rt.events.push(Event {
            at: e,
            kind: EventKind::AsyncEnd { id, stage: ServeStage::Solve as u8 },
        });
    }
}

/// Builds a [`FactorRun`] around a sequentially factored storage and
/// binds `plan`/`cfg` to it, so sequential factors get the same solve
/// surface as parallel ones.
pub fn run_from_storage<T: Scalar>(
    storage: FactorStorage<T>,
    plan: &Plan,
    cfg: &SolverConfig,
) -> FactorRun<T> {
    let mut run = FactorRun::new(storage, TraceLog::default(), cfg.metrics.clone());
    run.bind_plan(plan, cfg);
    run
}
