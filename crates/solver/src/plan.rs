//! The `Plan` API: one analyze artifact, one factorize call, one solve
//! method.
//!
//! [`Plan::analyze`] runs the whole pre-processing pipeline (ordering →
//! symbolic analysis → block repartitioning → static scheduling) and
//! bundles its outputs — fill-reducing permutation, task graph over the
//! split symbol, and the static schedule — behind one cheaply clonable
//! handle. [`Plan::factorize`] dispatches the numeric factorization on
//! whatever backend the [`SolverConfig`] names (every backend takes its
//! mapping from the schedule: [`Backend::Sim`] runs the fan-in protocol,
//! [`Backend::Threads`] the DAG executor in the static order — each task
//! enqueued on its `K_p` processor, idle workers stealing — and
//! [`Backend::Dynamic`] the executor with placement, priorities and
//! worker count as hints), and the returned [`FactorRun`] carries its plan
//! so [`FactorRun::solve_request`] can permute, solve, and unpermute
//! without the caller re-threading the analyze artifacts through every
//! call.
//!
//! Block low-rank compression is one pass after the numeric phase: when
//! `cfg.compression` is enabled, [`Plan::factorize`] compresses the
//! qualifying off-diagonal bloks of whatever dense factor the backend
//! returned, and the [`FactorRun`]'s solves dispatch on the stored
//! representation transparently (see [`crate::compress`] and
//! [`FactorRun::solve_refined`]).

use crate::compress::finalize_compression;
use crate::config::{FactorRun, SolverConfig};
use crate::dynamic;
use crate::pattern::{PatternRoom, ScatterPattern};
use crate::solve_plan::SolveSplit;
use crate::storage::FactorStorage;
use pastix_graph::{Parallelism, Permutation, SymCsc};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_machine::MachineModel;
use pastix_ordering::OrderingOptions;
use pastix_runtime::steal::NodeDag;
use pastix_runtime::{Backend, DynamicOptions, TaskOrder};
use pastix_sched::{map_and_schedule, Mapping, SchedOptions, Schedule, TaskGraph};
use pastix_symbolic::{AnalysisOptions, SymbolMatrix};
use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Pre-processing knobs of [`Plan::analyze`]. Lives inside
/// [`SolverConfig`] (`cfg.analyze`) so one config value drives the whole
/// pipeline.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Logical processor count the mapping targets: the rank count of
    /// `Backend::Sim`, the worker count of `Backend::Threads`, and the
    /// default worker count of `Backend::Dynamic`.
    pub procs: usize,
    /// Machine model override. `None` (default) schedules for the paper's
    /// SP2 model with `procs` processors; set it to map for another
    /// topology (e.g. [`MachineModel::sp2_smp`]) — its `n_procs` then
    /// takes precedence over `procs` for the mapping.
    pub machine: Option<MachineModel>,
    /// Parallelism of the analyze phase itself. One knob drives all three
    /// stages uniformly (ordering, symbolic, scheduling), overriding the
    /// per-stage fields in `ordering`/`analysis`/`sched`. Analyze results
    /// are bitwise-identical at every setting — this knob only changes
    /// wall-clock time.
    pub parallelism: Parallelism,
    /// Fill-reducing ordering knobs (nested dissection).
    pub ordering: OrderingOptions,
    /// Symbolic analysis knobs (amalgamation).
    pub analysis: AnalysisOptions,
    /// Block repartitioning + scheduling knobs (1D/2D switch, block size).
    pub sched: SchedOptions,
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
    schedule: Schedule,
    /// The executor's nodes: `graph` with its small one-processor
    /// subtrees grouped ([`dynamic::coarsen`]): [`Plan::analyze`]'s when
    /// its backend factorizes on the executor, else built by the first
    /// factorization there (`Threads`, `Dynamic`).
    nodes: OnceLock<NodeDag>,
    n: usize,
    stats: Option<AnalyzeStats>,
    analyze_trace: Option<TraceLog>,
    /// The solves' split of the elimination tree: [`Plan::analyze`]'s, or
    /// built by the first solve of any run of this plan, on any backend;
    /// replayed by every solve.
    solve_split: OnceLock<SolveSplit>,
    /// `P·A·Pᵀ`'s pattern for the analyzed matrix (for a plan from
    /// [`Plan::from_parts`], the first matrix it factorized), reused by
    /// every later one with that exact pattern.
    pattern: OnceLock<ScatterPattern>,
}

/// The analyzed (pre-numeric) state of one matrix pattern: permutation,
/// symbol/task graph, and the static schedule. `Clone` is an
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
    ///
    /// The plan comes complete: it also holds `a`'s [`ScatterPattern`],
    /// the solves' split and, when `cfg.backend` factorizes on the
    /// executor, its grouping, so neither the first factorization nor the
    /// first solve builds anything. They are built beside the serial
    /// tail, on a second thread unless the knob is `Sequential`: the
    /// pattern beside the symbolic stage once the postorder fixes the
    /// permutation, its check against the unsplit symbol beside mapping
    /// and scheduling, the split beside the grouping. Both builds count in
    /// `cfg.metrics` (`solver.permute_builds`, `solver.solve_plan_builds`).
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
        let overlap = opts.parallelism.effective_threads() > 1;

        let session = pastix_trace::begin_rank(0, &cfg.trace);
        let t0 = std::time::Instant::now();
        let ordering = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Ordering);
            pastix_ordering::nested_dissection(&g, &oopts)
        };
        let (analysis, pattern) = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Symbolic);
            let post = pastix_symbolic::postordered(&g, &ordering);
            // The pattern's arrays, scratch included, are allocated here,
            // as when a factorization builds it: the side thread allocates
            // nothing, so it leaves no freed memory in an allocator arena
            // of its own for later threads to pick up.
            let room = PatternRoom::of(a);
            beside(
                overlap,
                || pastix_symbolic::analyze_postordered(&g, &post, &aopts),
                || ScatterPattern::permuted(a, Some(&post.perm), a.n(), room),
            )
        };
        let machine = opts
            .machine
            .clone()
            .unwrap_or_else(|| MachineModel::sp2(opts.procs));
        let (Mapping { graph, schedule, .. }, pattern) = {
            let _sp = pastix_trace::task_span(0, pastix_trace::TaskClass::Sched);
            // The unsplit symbol answers as the split one would
            // ([`ScatterPattern::check`]), so the check need not wait.
            beside(
                overlap,
                || map_and_schedule(&analysis.symbol, &machine, &sopts),
                || pattern.and_then(|p| p.check(&analysis.symbol).map(|()| p)),
            )
        };
        let on_executor = matches!(cfg.backend, Backend::Threads | Backend::Dynamic(_));
        let (nodes, split) = beside(
            overlap,
            || on_executor.then(|| dynamic::coarsen(&graph, &schedule)),
            || SolveSplit::build(&graph.split.symbol, schedule.n_procs),
        );
        cfg.metrics.add_counter("solver.permute_builds", 1);
        cfg.metrics.add_counter("solver.solve_plan_builds", 1);
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
        let mut plan = Plan::from_parts(Some(analysis.perm), graph, Some(schedule));
        let inner = Arc::get_mut(&mut plan.inner).expect("fresh plan is unshared");
        inner.stats = Some(stats);
        inner.analyze_trace = analyze_trace;
        inner.solve_split = OnceLock::from(split);
        // `a`'s own pattern lies inside the symbol analyzed from it.
        inner.pattern = pattern.ok().map_or_else(OnceLock::new, OnceLock::from);
        inner.nodes = nodes.map_or_else(OnceLock::new, OnceLock::from);
        plan
    }

    /// Assembles a plan from already-computed artifacts. `perm: None`
    /// means the inputs to [`Plan::factorize`] / the solves are treated as
    /// already permuted (elimination order) — used by callers that manage
    /// the permutation themselves. Every plan carries its schedule, so
    /// `schedule` must be `Some`.
    pub fn from_parts(
        perm: Option<Permutation>,
        graph: TaskGraph,
        schedule: Option<Schedule>,
    ) -> Plan {
        if let Some(p) = &perm {
            assert_eq!(p.len(), graph.split.symbol.n, "permutation length != matrix order");
        }
        let schedule = schedule.expect("a plan needs the static schedule of its task graph");
        assert_eq!(schedule.task_proc.len(), graph.n_tasks(), "schedule built for another graph");
        let n = graph.split.symbol.n;
        Plan {
            inner: Arc::new(PlanInner {
                perm,
                nodes: OnceLock::new(),
                graph,
                schedule,
                n,
                stats: None,
                analyze_trace: None,
                solve_split: OnceLock::new(),
                pattern: OnceLock::new(),
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

    /// The static schedule. Always `Some`: every plan carries one.
    pub fn schedule(&self) -> Option<&Schedule> {
        Some(&self.inner.schedule)
    }

    /// The (split) block symbolic structure.
    pub fn symbol(&self) -> &SymbolMatrix {
        &self.inner.graph.split.symbol
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The solves' split of the elimination tree over the schedule's
    /// processors: [`Plan::analyze`]'s, or built on first use. The build
    /// counts in `solver.solve_plan_builds` of `metrics` — once per plan,
    /// however many runs, backends and solves share it.
    pub(crate) fn solve_split(&self, metrics: &MetricsRegistry) -> &SolveSplit {
        self.inner.solve_split.get_or_init(|| {
            metrics.add_counter("solver.solve_plan_builds", 1);
            SolveSplit::build(self.symbol(), self.inner.schedule.n_procs)
        })
    }

    /// The executor's nodes: [`Plan::analyze`]'s, or built on first use.
    fn nodes(&self) -> &NodeDag {
        self.inner.nodes.get_or_init(|| dynamic::coarsen(&self.inner.graph, &self.inner.schedule))
    }

    /// `P·A·Pᵀ`'s pattern for `a`: the kept one when `a` has exactly the
    /// pattern it was built from, else a build. A plan from
    /// [`Plan::analyze`] keeps the analyzed matrix's from the start; a
    /// plan from [`Plan::from_parts`] keeps its first build. Every other
    /// build is one-off. Each build counts in `solver.permute_builds` of
    /// `metrics`; one that finds an entry outside the symbol (or another
    /// order) is the error.
    fn scatter_pattern<T: Scalar>(
        &self,
        a: &SymCsc<T>,
        metrics: &MetricsRegistry,
    ) -> Result<Cow<'_, ScatterPattern>, FactorError> {
        if let Some(kept) = self.inner.pattern.get().filter(|p| p.matches(a)) {
            return Ok(Cow::Borrowed(kept));
        }
        metrics.add_counter("solver.permute_builds", 1);
        let built = ScatterPattern::build(a, self.permutation(), self.symbol())?;
        Ok(match self.inner.pattern.set(built) {
            Ok(()) => Cow::Borrowed(self.inner.pattern.get().expect("pattern just set")),
            Err(built) => Cow::Owned(built),
        })
    }

    /// Numeric factorization of `a` on the backend named by `cfg.backend`.
    /// `a`'s pattern must lie inside the analyzed one (the analyzed
    /// pattern itself, or a subset of it); anything else is a
    /// [`FactorError::PatternMismatch`] before any numeric work. `a`'s
    /// values are read through a [`ScatterPattern`]: no permuted copy of
    /// `a` is made. An analyzed plan holds the analyzed matrix's (a plan
    /// from [`Plan::from_parts`] builds and keeps one on its first
    /// factorization) and reuses it for every matrix with exactly that
    /// pattern; any other pattern — a subset, say — gets a one-off build. With
    /// `cfg.compression` enabled the finished factor is then compressed
    /// ([`crate::compress`]). The returned run carries this plan, so
    /// [`FactorRun::solve_request`] works without further arguments. A
    /// [`FactorError::ZeroPivot`] names the column of `a` in the caller's
    /// numbering, on every backend.
    pub fn factorize<T: Scalar>(
        &self,
        a: &SymCsc<T>,
        cfg: &SolverConfig,
    ) -> Result<FactorRun<T>, FactorError> {
        // The factorization leaves coarse start/end marks in the flight
        // ring; the front end falls inside them.
        let fp = self.inner.schedule.digest();
        pastix_trace::flight::record(pastix_trace::flight::FlightKind::FactorizeStart, fp, 0);
        let t0 = std::time::Instant::now();
        // The end mark is recorded on the error path too, so a black box
        // taken after a failed factorization shows none still in flight.
        let factor = self.factorize_numeric(a, cfg).map_err(|e| match (e, self.permutation()) {
            (FactorError::ZeroPivot(col), Some(p)) => FactorError::ZeroPivot(p.old_of(col)),
            _ => e,
        });
        pastix_trace::flight::record(
            pastix_trace::flight::FlightKind::FactorizeEnd,
            fp,
            t0.elapsed().as_nanos() as u64,
        );
        let (storage, trace) = factor?;
        Ok(FactorRun::of_plan(storage, trace, self, cfg))
    }

    /// The body of [`Plan::factorize`] between its flight marks.
    fn factorize_numeric<T: Scalar>(
        &self,
        a: &SymCsc<T>,
        cfg: &SolverConfig,
    ) -> Result<(FactorStorage<T>, TraceLog), FactorError> {
        let pattern = self.scatter_pattern(a, &cfg.metrics)?;
        let entries = pattern.entries(a);
        let (sym, graph, sched) = (self.symbol(), &self.inner.graph, &self.inner.schedule);
        let (mut storage, trace) = match cfg.backend {
            Backend::Sim(faults) => crate::parallel::factorize_static(sym, entries, graph, sched, &faults, cfg)?,
            backend => {
                dynamic::factorize_dynamic(sym, entries, graph, self.nodes(), sched, &executor_options(backend), cfg)?
            }
        };
        finalize_compression(sym, &mut storage, &cfg.compression, &cfg.metrics);
        Ok((storage, trace))
    }
}

/// Runs `main` and `side`, `side` on a second scoped thread when
/// `overlap`, else one after the other.
fn beside<A: Send, B: Send>(overlap: bool, main: impl FnOnce() -> A + Send, side: impl FnOnce() -> B + Send) -> (A, B) {
    match overlap {
        true => pastix_graph::par::join(main, side),
        false => (main(), side()),
    }
}

/// The executor options of a backend: `Dynamic`'s own; for `Threads` the
/// static mapping's placement and `K_p` order on one worker per processor,
/// a worker whose queue runs dry stealing; for `Sim`, whose factorization
/// is the fan-in engine and whose solves run on the executor, the same
/// order under the seeded serializer of its fault plan.
fn executor_options(backend: Backend) -> DynamicOptions {
    let static_order = DynamicOptions::new().with_order(TaskOrder::Static);
    match backend {
        Backend::Dynamic(dopts) => dopts,
        Backend::Threads => static_order,
        Backend::Sim(faults) => static_order.with_sim(faults),
    }
}

/// The plan + config a [`FactorRun`] was produced under (attached by
/// [`Plan::factorize`] / [`run_from_storage`]).
#[derive(Debug, Clone)]
pub(crate) struct PlanCtx {
    pub(crate) plan: Plan,
    pub(crate) cfg: SolverConfig,
}

/// One solve call: `rhs` is `n × k` column-major (original row order when
/// the plan owns a permutation, elimination order otherwise); `k = 1` is
/// the single-RHS case. `trace: true` records the solve's [`TraceLog`]
/// even when the config's tracing is off. A request built by
/// [`SolveRequest::screened`] carries the proof of an earlier
/// [`screen_rhs`], which spares its solve the second scan.
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
    /// The screen these right-hand sides passed, if any.
    screened: Option<ScreenedRhs<'a, T>>,
}

impl<'a, T> SolveRequest<'a, T> {
    /// A single untraced right-hand side.
    pub fn single(rhs: &'a [T]) -> Self {
        Self::panel(rhs, 1)
    }

    /// An untraced `n × k` panel.
    pub fn panel(rhs: &'a [T], k: usize) -> Self {
        Self { rhs, k, trace: false, tag: None, screened: None }
    }

    /// An untraced request on a panel [`screen_rhs`] passed. Its solve
    /// skips the scan when the run's order is the one screened for and
    /// `rhs` and `k` are still the screened ones; otherwise it screens
    /// as any request.
    pub fn screened(proof: ScreenedRhs<'a, T>) -> Self {
        Self { rhs: proof.rhs, k: proof.k, trace: false, tag: None, screened: Some(proof) }
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

/// Why [`FactorRun::solve_request`] refused a request. The right-hand
/// sides are screened before any solve work, so a refused request leaves
/// the run as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// `k = 0`: the request holds no right-hand side.
    NoRhs,
    /// The right-hand sides do not hold `n · k` entries.
    WrongLength {
        /// `n · k`.
        expected: usize,
        /// The length given.
        got: usize,
    },
    /// A right-hand side holds a NaN or an infinity.
    NonFinite {
        /// First offending entry, counted through the column-major panel.
        index: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoRhs => write!(f, "a solve needs at least one right-hand side"),
            SolveError::WrongLength { expected, got } => {
                write!(f, "right-hand sides hold {got} entries, expected n × k = {expected}")
            }
            SolveError::NonFinite { index } => write!(f, "non-finite right-hand side entry at {index}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Right-hand sides that passed [`screen_rhs`] for a matrix of order
/// `n`: the proof of its scan, which [`SolveRequest::screened`] hands to
/// the solve.
#[derive(Debug, Clone, Copy)]
pub struct ScreenedRhs<'a, T> {
    rhs: &'a [T],
    n: usize,
    k: usize,
}

/// The one screen of right-hand sides for a matrix of order `n`: `k ≥ 1`,
/// `n · k` entries, every entry finite. [`FactorRun::solve_request`] runs
/// it on every request but one built from its proof
/// ([`SolveRequest::screened`]).
pub fn screen_rhs<T: Scalar>(rhs: &[T], n: usize, k: usize) -> Result<ScreenedRhs<'_, T>, SolveError> {
    if k == 0 {
        return Err(SolveError::NoRhs);
    }
    if rhs.len() != n * k {
        return Err(SolveError::WrongLength { expected: n * k, got: rhs.len() });
    }
    // Every solve pays this scan: the fold has no early exit, so it
    // vectorizes; the position is looked for only on failure.
    if rhs.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(ScreenedRhs { rhs, n, k });
    }
    let index = rhs.iter().position(|v| !v.is_finite()).expect("a non-finite entry");
    Err(SolveError::NonFinite { index })
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
    /// Solves `A·X = B` for the request's right-hand sides using this
    /// run's factor: the plan's solve split on the executor, with the
    /// options of the backend the run was produced under (for `Sim`, the
    /// seeded serializer of its fault plan). Single-RHS is `k = 1` of the
    /// same panel path. A request
    /// with `k = 0`, a length other than `n · k` or a non-finite entry is
    /// refused with its [`SolveError`] ([`screen_rhs`]) before any work;
    /// one built from the proof of that screen for this order is not
    /// scanned again.
    pub fn solve_request(&self, req: SolveRequest<'_, T>) -> Result<SolveOutput<T>, SolveError> {
        let PlanCtx { plan, cfg } = &self.ctx;
        // A shared borrow of the screened slice: its entries cannot have
        // changed since the scan.
        let proven = req.screened.is_some_and(|s| s.n == plan.n() && s.k == req.k && std::ptr::eq(s.rhs, req.rhs));
        if !proven {
            screen_rhs(req.rhs, plan.n(), req.k)?;
        }
        let mut cfg = cfg.clone();
        if !req.trace {
            cfg.trace = TraceOptions::disabled();
        } else if !cfg.trace.enabled {
            cfg.trace = TraceOptions::wall();
        }
        // The solve fuses the permutation into elimination order with its
        // workspace fill, and its inverse with the solution gather.
        let perm = plan.permutation().map(|p| p.perm());
        let (x, mut trace) = dynamic::solve_panel_dynamic(
            plan.symbol(),
            &self.storage,
            plan.solve_split(&cfg.metrics),
            &plan.inner.schedule,
            req.rhs,
            req.k,
            perm,
            &executor_options(cfg.backend),
            &cfg,
        );
        if let Some(id) = req.tag {
            tag_solve_trace(&mut trace, id);
        }
        Ok(SolveOutput { x, trace })
    }

    /// Solves for a single right-hand side (untraced).
    ///
    /// # Panics
    ///
    /// When [`FactorRun::solve_request`] refuses `b` (a length other than
    /// `n`, a non-finite entry); call it for the [`SolveError`] instead.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_panel(b, 1)
    }

    /// Solves for an `n × k` column-major panel of right-hand sides
    /// (untraced).
    ///
    /// # Panics
    ///
    /// When [`FactorRun::solve_request`] refuses the panel (`k = 0`, a
    /// length other than `n · k`, a non-finite entry); call it for the
    /// [`SolveError`] instead.
    pub fn solve_panel(&self, b: &[T], k: usize) -> Vec<T> {
        match self.solve_request(SolveRequest::panel(b, k)) {
            Ok(out) => out.x,
            Err(e) => panic!("{e}"),
        }
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

/// Builds a [`FactorRun`] of `plan` around a sequentially factored
/// storage, so sequential factors get the same solve surface as parallel
/// ones; `cfg` is the config its solves run under.
pub fn run_from_storage<T: Scalar>(
    storage: FactorStorage<T>,
    plan: &Plan,
    cfg: &SolverConfig,
) -> FactorRun<T> {
    FactorRun::of_plan(storage, TraceLog::default(), plan, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use pastix_sched::DistStrategy;

    #[test]
    #[should_panic(expected = "a plan needs the static schedule")]
    fn from_parts_rejects_a_plan_without_a_schedule() {
        let (_, mapping) = full_setup(4, 4, 1, 2, DistStrategy::Only1d, 4);
        Plan::from_parts(None, mapping.graph, None);
    }

    #[test]
    fn a_zero_pivot_in_a_grouped_task_names_its_column_of_a() {
        use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
        let a = grid_spd::<f64>(24, 24, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let cfg = SolverConfig::new().with_analyze(AnalyzeOptions::with_procs(2));
        let plan = Plan::analyze(&a, &cfg);
        let nodes = plan.nodes();
        let group = (0..nodes.deps.len()).find(|&v| nodes.members(v).len() > 1).expect("the plan groups tasks");
        // The group's last task, so the abort comes after its first ones ran.
        let t = *nodes.members(group).last().unwrap();
        let fcol = plan.symbol().cblks[plan.graph().kinds[t as usize].cblk() as usize].fcol as usize;
        let col = plan.permutation().unwrap().old_of(fcol);
        let sim = DynamicOptions::new().with_sim(pastix_runtime::sim::FaultPlan::interleave_only(5));
        for backend in [Backend::Threads, Backend::Dynamic(DynamicOptions::new().with_priorities(true)), Backend::Dynamic(sim)] {
            let chaos = crate::parallel::ChaosOptions { zero_pivot_task: Some(t), ..Default::default() };
            let cfg = cfg.clone().with_backend(backend).with_chaos(chaos);
            assert_eq!(plan.factorize(&a, &cfg).err(), Some(FactorError::ZeroPivot(col)), "{backend:?}");
        }
    }

    /// Every solve runs the plan's split as `2·n_procs + 1` executor nodes,
    /// on `Threads` and on `Sim` (the executor's seeded serializer), and a
    /// width-`k` panel agrees with `k` sequential solves of its columns: on
    /// 1D, mixed and 3D mappings, under the static schedule and a
    /// block-cyclic one.
    #[test]
    fn threads_solves_on_the_grouped_solve_dag() {
        use DistStrategy::{Mixed1d2d, Only1d};
        // (nx, ny, nz, procs, strategy, block-cyclic schedule)
        let cases = [
            (32, 32, 1, 2, Mixed1d2d, false),
            (8, 8, 1, 1, Only1d, false),
            (8, 8, 1, 4, Only1d, false),
            (9, 9, 1, 3, Mixed1d2d, false),
            (9, 9, 1, 8, Mixed1d2d, false),
            (4, 4, 4, 4, Mixed1d2d, false),
            (8, 8, 1, 3, Mixed1d2d, true),
        ];
        for (i, (nx, ny, nz, procs, strategy, cyclic)) in cases.into_iter().enumerate() {
            let (ap, mapping) = full_setup(nx, ny, nz, procs, strategy, if i == 0 { 4 } else { 6 });
            let sched = match cyclic {
                true => pastix_sched::cyclic_schedule(&mapping.graph, &MachineModel::sp2(procs)),
                false => mapping.schedule,
            };
            let plan = Plan::from_parts(None, mapping.graph, Some(sched));
            let nodes = plan.nodes();
            let groups = (0..nodes.deps.len()).any(|v| nodes.members(v).len() > 1);
            assert!(groups || i > 0, "the plan groups tasks");
            let (sym, n) = (plan.symbol(), ap.n());
            let cfg = SolverConfig::new();
            let faults = pastix_runtime::sim::FaultPlan::interleave_only(i as u64 + 1);
            for cfg in [cfg.clone(), cfg.clone().with_backend(Backend::Sim(faults))] {
                let case = format!("case {i} {:?}", cfg.backend);
                let run = plan.factorize(&ap, &cfg).unwrap();
                for k in [1usize, 3, 8] {
                    let b: Vec<f64> = (0..n * k).map(|i| 1.0 + (i % 13) as f64 * 0.5).collect();
                    let before = cfg.metrics.counter("dynamic.tasks");
                    let x = run.solve_panel(&b, k);
                    let solve_nodes = cfg.metrics.counter("dynamic.tasks") - before;
                    assert_eq!(solve_nodes, 2 * procs as u64 + 1, "{case} k {k}: executor nodes");
                    for (r, (x, b)) in x.chunks(n).zip(b.chunks(n)).enumerate() {
                        let mut x_seq = b.to_vec();
                        crate::seq::solve_in_place(sym, &run.storage, &mut x_seq);
                        let scale = x_seq.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        let dev = x.iter().zip(&x_seq).fold(0.0f64, |m, (u, v)| m.max((u - v).abs()));
                        assert!(dev <= 1e-12 * scale, "{case} k {k} column {r}: deviation {dev:.3e} of {scale:.3e}");
                        assert!(ap.residual_norm(x, b) < 1e-12, "{case} k {k} column {r}");
                    }
                }
            }
            assert_eq!(cfg.metrics.counter("solver.solve_plan_builds"), 1, "case {i}: the solve split alone, once");
        }
    }

    /// One factor, one answer: the solves of one sequential factor give
    /// the same bits on `Threads`, on `Dynamic` in every order at 1–3
    /// workers and on `Sim` under two seeds and policies — and at one
    /// processor the bits of the sequential sweep.
    #[test]
    fn one_factor_solves_to_the_same_bits_on_every_backend() {
        use pastix_runtime::sim::{FaultPlan, SchedPolicy};
        use DistStrategy::{Mixed1d2d, Only1d};
        let sims = [FaultPlan::builder(3).policy(SchedPolicy::Uniform).build(), FaultPlan::builder(8).policy(SchedPolicy::StarveRank(1)).build()];
        let mut backends = vec![Backend::Threads];
        for order in [TaskOrder::Fifo, TaskOrder::Hints, TaskOrder::Static] {
            backends.extend((1..=3).map(|w| Backend::Dynamic(DynamicOptions::new().with_order(order).with_workers(w))));
        }
        backends.extend(sims.map(Backend::Sim));
        for (nx, procs, strategy) in [(20, 3, Mixed1d2d), (16, 4, Only1d), (12, 1, Mixed1d2d)] {
            let (ap, mapping) = full_setup(nx, nx, 1, procs, strategy, 4);
            let plan = Plan::from_parts(None, mapping.graph, Some(mapping.schedule));
            let (sym, n, k) = (plan.symbol(), ap.n(), 3);
            let mut storage = FactorStorage::zeros(sym);
            storage.scatter(sym, &ap);
            crate::seq::factorize_sequential(sym, &mut storage).unwrap();
            let b: Vec<f64> = (0..n * k).map(|i| 1.0 + (i % 17) as f64 * 0.29).collect();
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let solve = |backend: Backend| {
                let run = run_from_storage(storage.clone(), &plan, &SolverConfig::new().with_backend(backend));
                bits(run.solve_panel(&b, k))
            };
            let first = solve(Backend::Threads);
            for &backend in &backends {
                assert!(solve(backend) == first, "{nx}² at {procs} procs: {backend:?} differs from Threads");
            }
            if procs == 1 {
                let mut x = b.clone();
                crate::seq::solve_block_in_place(sym, &storage, &mut x, k);
                assert!(bits(x) == first, "{nx}² at one proc: the sweep differs");
            }
        }
    }

    /// `Plan::analyze` hands over what the first factorization and the
    /// first solve would build, bit for bit, with and without its second
    /// thread, on the six suite matrices: the analyzed matrix's pattern,
    /// the solves' split and, when the backend factorizes on the executor,
    /// its grouping. Both builds count once, during analyze: the first
    /// factorization and solve build nothing.
    #[test]
    fn analyze_hands_over_the_pattern_split_and_grouping() {
        use pastix_graph::{build_problem, ProblemId};
        let ids = [ProblemId::Quer, ProblemId::Bmwcra1, ProblemId::Shipsec5, ProblemId::Ship001, ProblemId::Oilpan, ProblemId::X104];
        for id in ids {
            let a = build_problem::<f64>(id, 0.01);
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let sim = Backend::Sim(pastix_runtime::sim::FaultPlan::interleave_only(3));
                for backend in [Backend::Threads, sim] {
                    let case = format!("{} {parallelism:?} {backend:?}", id.name());
                    let opts = AnalyzeOptions { parallelism, ..AnalyzeOptions::with_procs(2) };
                    let cfg = SolverConfig::new().with_analyze(opts).with_backend(backend);
                    let plan = Plan::analyze(&a, &cfg);
                    let (sym, inner) = (plan.symbol(), &plan.inner);
                    let pattern = ScatterPattern::build(&a, plan.permutation(), sym).expect("the analyzed pattern");
                    assert_eq!(inner.pattern.get(), Some(&pattern), "{case}: pattern");
                    let split = SolveSplit::build(sym, inner.schedule.n_procs);
                    assert_eq!(inner.solve_split.get(), Some(&split), "{case}: split");
                    let nodes = matches!(backend, Backend::Threads).then(|| dynamic::coarsen(&inner.graph, &inner.schedule));
                    assert_eq!(inner.nodes.get(), nodes.as_ref(), "{case}: grouping");
                    let builds = || ["solver.permute_builds", "solver.solve_plan_builds"].map(|c| cfg.metrics.counter(c));
                    assert_eq!(builds(), [1, 1], "{case}: one build each during analyze");
                    let run = plan.factorize(&a, &cfg).unwrap();
                    let b = vec![1.0; a.n()];
                    assert!(a.residual_norm(&run.solve(&b), &b) < 1e-10, "{case}");
                    assert_eq!(builds(), [1, 1], "{case}: 0 builds during the first factorization and solve");
                }
            }
        }
    }

    #[test]
    fn auto_dynamic_workers_are_the_schedules_processors() {
        let (ap, mapping) = full_setup(6, 6, 1, 3, DistStrategy::Mixed1d2d, 4);
        let plan = Plan::from_parts(None, mapping.graph, Some(mapping.schedule));
        assert_eq!(plan.schedule().map(|s| s.n_procs), Some(3));
        for (workers, expect) in [(0, 3), (2, 2)] {
            let dopts = DynamicOptions::new().with_workers(workers);
            let cfg = SolverConfig::new().with_backend(Backend::Dynamic(dopts)).with_trace(TraceOptions::wall());
            let run = plan.factorize(&ap, &cfg).unwrap();
            assert_eq!(run.trace.ranks.len(), expect, "one trace per worker, workers: {workers}");
        }
    }

    #[test]
    fn threads_steals_from_a_schedule_with_every_task_on_one_processor() {
        let (ap, mapping) = full_setup(20, 20, 1, 2, DistStrategy::Mixed1d2d, 4);
        let sym = mapping.graph.split.symbol.clone();
        let mut seq = FactorStorage::zeros(&sym);
        seq.scatter(&sym, &ap);
        crate::seq::factorize_sequential(&sym, &mut seq).unwrap();
        // Processor 0 gets every task, in predicted-start order; processor
        // 1 keeps its worker but no task.
        let mut sched = mapping.schedule;
        let mut all: Vec<u32> = (0..sched.task_proc.len() as u32).collect();
        all.sort_by(|&x, &y| sched.start[x as usize].total_cmp(&sched.start[y as usize]).then(x.cmp(&y)));
        sched.task_proc.fill(0);
        sched.proc_tasks = vec![all, Vec::new()];
        let plan = Plan::from_parts(None, mapping.graph, Some(sched));
        // Whether worker 1 wakes before worker 0 has run everything is a
        // matter of timing: factorize until it has taken part (at most
        // 200 runs), and check the factor of the last run.
        let mut rank1_ran = false;
        let mut run = None;
        for _ in 0..200 {
            let cfg = SolverConfig::new();
            run = Some(plan.factorize(&ap, &cfg).unwrap());
            // Worker 1 has an empty queue of its own: whatever it ran, it stole.
            let steals = cfg.metrics.counter("dynamic.steals");
            let rank1 = cfg.metrics.counter_per_rank("dynamic.tasks").iter().find(|r| r.0 == 1).map_or(0, |r| r.1);
            assert!(steals > 0 || rank1 == 0, "steals {steals}, rank 1 ran {rank1}");
            assert!(rank1 <= steals, "steals {steals}, rank 1 ran {rank1}");
            rank1_ran = rank1 > 0;
            if rank1_ran {
                break;
            }
        }
        let storage = run.expect("at least one run").storage;
        for j in 0..ap.n() {
            for i in j..ap.n() {
                let (a, b) = (seq.get(&sym, i, j), storage.get(&sym, i, j));
                assert!((a - b).abs() <= 1e-8 * a.abs().max(1.0), "({i},{j}): seq {a} vs threads {b}");
            }
        }
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert!(rank1_ran || cpus == 1, "rank 1 ran no task in 200 runs");
    }
}
