//! The persistent solver session: an LRU cache of factorizations keyed by
//! matrix fingerprint, fronting the distributed panel solve.
//!
//! The production shape of a direct solver is factorize-once,
//! solve-millions-of-times. [`SolverSession`] keeps the expensive
//! artifacts of each distinct matrix — ordering, symbol, static schedule,
//! assembled factor, and the level-set [`SolveSchedule`] of the solve DAG
//! — behind a [`MatrixFingerprint`] key, so repeat requests against a
//! known matrix skip straight to the triangular sweeps. Capacity and
//! byte-budget eviction bound the resident set; hit/miss/eviction
//! counters land in the session's [`MetricsRegistry`].

use crate::fingerprint::MatrixFingerprint;
use pastix_graph::{Parallelism, SymCsc};
use pastix_kernels::{FactorError, Scalar};
use pastix_ordering::OrderingOptions;
use pastix_sched::{SchedOptions, SolveSchedule};
use pastix_solver::{
    AnalyzeOptions, FactorRun, Plan, SolveRequest, SolverConfig,
};
use pastix_symbolic::AnalysisOptions;
use pastix_trace::{MetricsRegistry, TraceLog};
use std::sync::Arc;

/// Knobs of a serving session.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Logical processors of every factorization and solve.
    pub procs: usize,
    /// Maximum resident factorizations (≥ 1).
    pub capacity: usize,
    /// Optional cap on the summed factor bytes of resident entries. An
    /// entry larger than the whole budget is served but never cached, so
    /// the budget is a true invariant, not a soft target.
    pub byte_budget: Option<u64>,
    /// Widest multi-RHS panel a request batch coalesces into.
    pub max_panel: usize,
    /// Parallelism of the analyze phase on cache misses (uniform across
    /// ordering/symbolic/scheduling; overridable per deployment via
    /// `PASTIX_ANALYZE_THREADS`).
    pub parallelism: Parallelism,
    /// Ordering-phase knobs.
    pub ordering: OrderingOptions,
    /// Symbolic-phase knobs.
    pub analysis: AnalysisOptions,
    /// Repartitioning/scheduling knobs.
    pub sched: SchedOptions,
    /// Execution and observability configuration shared by the
    /// factorization and every solve (backend, kernel mode, tracing,
    /// metrics).
    pub solver: SolverConfig,
    /// Opt-in Prometheus scrape endpoint: bind address (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) serving the session
    /// registry's text exposition over HTTP for the session's lifetime.
    /// `None` (default) opens no socket.
    pub metrics_addr: Option<String>,
    /// Opt-in periodic metrics snapshot file (Prometheus text format,
    /// atomically replaced every [`SessionOptions::snapshot_every`]) for
    /// file-based scraping. `None` (default) writes nothing.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Rewrite period of `snapshot_path`.
    pub snapshot_every: std::time::Duration,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            procs: 4,
            capacity: 4,
            byte_budget: None,
            max_panel: 8,
            parallelism: Parallelism::Auto,
            ordering: OrderingOptions::scotch_like(),
            analysis: AnalysisOptions::default(),
            sched: SchedOptions::default(),
            solver: SolverConfig::default(),
            metrics_addr: None,
            snapshot_path: None,
            snapshot_every: std::time::Duration::from_secs(1),
        }
    }
}

/// Everything the session caches per distinct matrix.
#[derive(Debug)]
pub struct CachedFactor<T> {
    /// The key this entry is resident under.
    pub fingerprint: MatrixFingerprint,
    /// The analyzed plan: permutation, task graph, static schedule.
    pub plan: Plan,
    /// The assembled factor with its observability artifacts (carries the
    /// plan, so [`FactorRun::solve_request`] works directly).
    pub run: FactorRun<T>,
    /// Level-set schedule of the solve DAG, reconcilable against solve
    /// traces via `pastix_trace::report::build_solve_report`.
    pub ssched: SolveSchedule,
    /// Resident factor bytes **as stored**: dense panel bytes plus the
    /// `U`/`V` bytes of compressed bloks ([`FactorStorage::factor_bytes`]
    /// of the run), so a block-low-rank factor charges the byte budget
    /// only for what it actually keeps resident.
    ///
    /// [`FactorStorage::factor_bytes`]: pastix_solver::FactorStorage::factor_bytes
    pub bytes: u64,
}

/// A persistent factorize-once, solve-many session.
///
/// Entries are kept in least-recently-used order; every hit refreshes the
/// entry, every insert evicts from the cold end until both the capacity
/// and the byte budget hold.
pub struct SolverSession<T> {
    opts: SessionOptions,
    /// LRU order: index 0 is coldest, the last entry hottest.
    entries: Vec<(MatrixFingerprint, Arc<CachedFactor<T>>)>,
    bytes: u64,
    metrics: MetricsRegistry,
    metrics_server: Option<pastix_trace::expose::MetricsServer>,
    snapshot_writer: Option<pastix_trace::expose::SnapshotWriter>,
}

impl<T: Scalar> SolverSession<T> {
    /// Creates an empty session. The metrics handle is shared with
    /// `opts.solver.metrics`, so factorization counters and serving
    /// counters land in one registry. When `opts.metrics_addr` /
    /// `opts.snapshot_path` are set, the scrape endpoint and snapshot
    /// writer run for the session's lifetime (dropped with it). Also
    /// installs the process-wide flight-recorder panic hook: a serving
    /// process that dies leaves a black box.
    pub fn new(opts: SessionOptions) -> Self {
        assert!(opts.capacity >= 1, "session cache needs capacity >= 1");
        assert!(opts.max_panel >= 1, "panel width must be >= 1");
        pastix_trace::flight::install_panic_hook();
        let metrics = opts.solver.metrics.clone();
        let metrics_server = opts.metrics_addr.as_deref().map(|addr| {
            pastix_trace::expose::MetricsServer::bind(addr, metrics.clone())
                .expect("metrics endpoint failed to bind")
        });
        let snapshot_writer = opts.snapshot_path.clone().map(|path| {
            pastix_trace::expose::SnapshotWriter::start(path, opts.snapshot_every, metrics.clone())
                .expect("metrics snapshot writer failed to start")
        });
        Self {
            opts,
            entries: Vec::new(),
            bytes: 0,
            metrics,
            metrics_server,
            snapshot_writer,
        }
    }

    /// The session's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The bound address of the scrape endpoint (when
    /// [`SessionOptions::metrics_addr`] was set) — resolves port 0.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.local_addr())
    }

    /// The periodic snapshot file (when [`SessionOptions::snapshot_path`]
    /// was set).
    pub fn snapshot_path(&self) -> Option<&std::path::Path> {
        self.snapshot_writer.as_ref().map(|w| w.path())
    }

    /// The session's options.
    pub fn options(&self) -> &SessionOptions {
        &self.opts
    }

    /// Resident entries, cold-to-hot order.
    pub fn resident(&self) -> Vec<MatrixFingerprint> {
        self.entries.iter().map(|(fp, _)| *fp).collect()
    }

    /// Number of resident factorizations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed resident factor bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    fn publish_gauges(&self) {
        self.metrics.set_gauge("serve.cache.entries", self.entries.len() as f64);
        self.metrics.set_gauge("serve.cache.bytes", self.bytes as f64);
    }

    /// Returns the cached factorization of `a`, running the full
    /// pipeline (ordering → symbol → schedule → numeric factorization →
    /// solve schedule) on a miss.
    pub fn get_or_factorize(&mut self, a: &SymCsc<T>) -> Result<Arc<CachedFactor<T>>, FactorError> {
        Ok(self.get_or_factorize_info(a)?.0)
    }

    /// [`get_or_factorize`](Self::get_or_factorize) plus the lookup
    /// outcome the request tracer needs: whether it was a cache hit.
    pub fn get_or_factorize_info(
        &mut self,
        a: &SymCsc<T>,
    ) -> Result<(Arc<CachedFactor<T>>, bool), FactorError> {
        let fp = MatrixFingerprint::of(a);
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == fp) {
            // Refresh to the hot end.
            let e = self.entries.remove(i);
            let hit = e.1.clone();
            self.entries.push(e);
            self.metrics.add_counter("serve.cache.hits", 1);
            return Ok((hit, true));
        }
        self.metrics.add_counter("serve.cache.misses", 1);

        let cfg = self.opts.solver.clone().with_analyze(AnalyzeOptions {
            procs: self.opts.procs,
            machine: None,
            parallelism: self.opts.parallelism,
            ordering: self.opts.ordering.clone(),
            analysis: self.opts.analysis.clone(),
            sched: self.opts.sched.clone(),
            static_schedule: true,
        });
        let plan = Plan::analyze(a, &cfg);
        if let Some(stats) = plan.analyze_stats() {
            // Time-to-first-solve visibility: analyze wall time spent on
            // this miss, in nanoseconds.
            self.metrics.add_counter("serve.analyze_ns", stats.analyze_ns);
        }
        let t0 = std::time::Instant::now();
        let run = plan.factorize(a, &cfg)?;
        self.metrics.observe("serve.factorize_ns", t0.elapsed().as_nanos() as u64);
        // The plan's own solve schedule — the one its solves replay —
        // not a second computation of it.
        let ssched = run.solve_schedule().expect("session plans always carry a static schedule").clone();
        let bytes = run.storage.factor_bytes();
        let entry = Arc::new(CachedFactor {
            fingerprint: fp,
            plan,
            run,
            ssched,
            bytes,
        });

        if self.opts.byte_budget.is_some_and(|budget| bytes > budget) {
            // Larger than the whole budget: serve it, never cache it.
            self.metrics.add_counter("serve.cache.uncacheable", 1);
            return Ok((entry, false));
        }
        self.entries.push((fp, entry.clone()));
        self.bytes += bytes;
        while self.entries.len() > self.opts.capacity
            || self.opts.byte_budget.is_some_and(|budget| self.bytes > budget)
        {
            let (cold_fp, cold) = self.entries.remove(0);
            self.bytes -= cold.bytes;
            self.metrics.add_counter("serve.cache.evictions", 1);
            pastix_trace::flight::record(
                pastix_trace::flight::FlightKind::CacheEvict,
                cold_fp.structure,
                cold.bytes,
            );
        }
        self.publish_gauges();
        Ok((entry, false))
    }

    /// Solves an `n × nrhs` right-hand-side panel (column-major, original
    /// ordering) against `a` with the distributed panel sweeps, returning
    /// the solution panel and the solve's [`TraceLog`] (empty when
    /// tracing is off). Factorizes on a cache miss.
    pub fn solve_panel(
        &mut self,
        a: &SymCsc<T>,
        b_panel: &[T],
        nrhs: usize,
    ) -> Result<(Vec<T>, TraceLog), FactorError> {
        let out = self.solve_panel_tagged(a, b_panel, nrhs, None)?;
        Ok((out.x, out.trace))
    }

    /// [`solve_panel`](Self::solve_panel) for the request tracer: `tag`
    /// threads a request id into the solve trace's per-rank async spans
    /// (see [`pastix_solver::SolveRequest::tagged`]) and the outcome says
    /// whether the factor came from cache.
    pub fn solve_panel_tagged(
        &mut self,
        a: &SymCsc<T>,
        b_panel: &[T],
        nrhs: usize,
        tag: Option<u64>,
    ) -> Result<PanelSolve<T>, FactorError> {
        let n = a.n();
        assert_eq!(b_panel.len(), n * nrhs, "b_panel must be n × nrhs");
        let (cached, cache_hit) = self.get_or_factorize_info(a)?;
        let mut req = SolveRequest::panel(b_panel, nrhs);
        req.trace = self.opts.solver.trace.enabled;
        req.tag = tag;
        let out = cached.run.solve_request(req);
        self.metrics.add_counter("serve.solves", 1);
        self.metrics.observe("serve.panel_width", nrhs as u64);
        Ok(PanelSolve { x: out.x, trace: out.trace, cache_hit })
    }

    /// Single right-hand-side convenience over [`solve_panel`](Self::solve_panel).
    pub fn solve(&mut self, a: &SymCsc<T>, b: &[T]) -> Result<Vec<T>, FactorError> {
        Ok(self.solve_panel(a, b, 1)?.0)
    }
}

/// Result of [`SolverSession::solve_panel_tagged`]: the solution panel,
/// the solve's trace, and whether the factor was served from cache.
#[derive(Debug)]
pub struct PanelSolve<T> {
    /// Solution, `n × nrhs` column-major, original row order.
    pub x: Vec<T>,
    /// The solve's trace (empty when tracing is off).
    pub trace: TraceLog,
    /// `true` when the factor came from the session cache.
    pub cache_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_graph::{canonical_solution, rhs_for_solution};

    fn mat(seed: u64) -> SymCsc<f64> {
        grid_spd::<f64>(7, 7, 1, Stencil::Star, false, ValueKind::RandomSpd(seed))
    }

    fn small_opts() -> SessionOptions {
        SessionOptions {
            procs: 2,
            capacity: 2,
            sched: SchedOptions { block_size: 8, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn hit_then_miss_counters() {
        let mut s = SolverSession::<f64>::new(small_opts());
        let a = mat(1);
        let b = rhs_for_solution(&a, &canonical_solution::<f64>(a.n()));
        let x1 = s.solve(&a, &b).unwrap();
        assert!(a.residual_norm(&x1, &b) < 1e-10);
        assert_eq!(s.metrics().counter("serve.cache.misses"), 1);
        assert_eq!(s.metrics().counter("serve.cache.hits"), 0);
        let x2 = s.solve(&a, &b).unwrap();
        assert_eq!(x1, x2);
        assert_eq!(s.metrics().counter("serve.cache.hits"), 1);
        assert_eq!(s.len(), 1);
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut s = SolverSession::<f64>::new(small_opts());
        let (a, b, c) = (mat(1), mat(2), mat(3));
        s.get_or_factorize(&a).unwrap();
        s.get_or_factorize(&b).unwrap();
        // Touch `a` so `b` is coldest, then insert `c`.
        s.get_or_factorize(&a).unwrap();
        s.get_or_factorize(&c).unwrap();
        let resident = s.resident();
        assert_eq!(resident.len(), 2);
        assert!(resident.contains(&MatrixFingerprint::of(&a)));
        assert!(resident.contains(&MatrixFingerprint::of(&c)));
        assert!(!resident.contains(&MatrixFingerprint::of(&b)));
        assert_eq!(s.metrics().counter("serve.cache.evictions"), 1);
        // The evicted matrix refactorizes on demand and still solves.
        let rhs = rhs_for_solution(&b, &canonical_solution::<f64>(b.n()));
        let x = s.solve(&b, &rhs).unwrap();
        assert!(b.residual_norm(&x, &rhs) < 1e-10);
        assert_eq!(s.metrics().counter("serve.cache.misses"), 4);
    }

    #[test]
    fn resident_bytes_track_compressed_storage() {
        use pastix_solver::{CompressionConfig, CompressionStrategy};
        // A grid whose separator blocks compress at the loose tolerance.
        let a = grid_spd::<f64>(20, 20, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let mut opts = small_opts();
        opts.solver = opts.solver.with_compression(
            CompressionConfig::with_tolerance(1e-2)
                .min_block(4)
                .strategy(CompressionStrategy::MinimalMemory),
        );
        let mut s = SolverSession::<f64>::new(opts);
        let cached = s.get_or_factorize(&a).unwrap();
        assert!(cached.run.storage.is_compressed(), "factor should compress");
        // The budgeted bytes are the storage's own accounting — packed
        // panels plus U/V — not the dense panel estimate.
        assert_eq!(cached.bytes, cached.run.storage.factor_bytes());
        assert_eq!(s.resident_bytes(), cached.bytes);
        assert!(
            cached.bytes < cached.run.storage.dense_factor_bytes(),
            "compressed factor must charge less than the dense layout"
        );
    }

    #[test]
    fn panel_solve_matches_singles() {
        let mut s = SolverSession::<f64>::new(small_opts());
        let a = mat(5);
        let n = a.n();
        let nrhs = 3;
        let mut panel = vec![0.0; n * nrhs];
        let mut singles = Vec::new();
        for r in 0..nrhs {
            let xe: Vec<f64> = (0..n).map(|i| ((i + r) % 7) as f64 - 3.0).collect();
            let b = rhs_for_solution(&a, &xe);
            panel[r * n..(r + 1) * n].copy_from_slice(&b);
            singles.push(b);
        }
        let (x, _) = s.solve_panel(&a, &panel, nrhs).unwrap();
        for (r, b) in singles.iter().enumerate() {
            assert!(a.residual_norm(&x[r * n..(r + 1) * n], b) < 1e-10);
        }
        assert_eq!(s.metrics().counter("serve.cache.misses"), 1);
        assert_eq!(s.metrics().counter("serve.solves"), 1);
    }
}
