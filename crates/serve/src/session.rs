//! The persistent solver session: an LRU cache of factorizations keyed by
//! matrix fingerprint, over an LRU cache of analyses keyed by pattern,
//! fronting the panel solve.
//!
//! The production shape of a direct solver is factorize-once,
//! solve-millions-of-times. [`SolverSession`] keeps the assembled factor
//! of each distinct matrix behind its [`MatrixFingerprint`], so repeat
//! requests against a known matrix skip straight to the triangular
//! sweeps. Under it, the analyzed [`Plan`] of each distinct pattern —
//! ordering, symbol, static schedule, and the pattern of `P·A·Pᵀ` and
//! solve split analyze hands over with it — is kept behind the fingerprint's `structure`
//! half, so a matrix whose values changed but whose pattern did not (a
//! time step, a Newton iteration) pays only the numeric factorization.
//! Capacity and byte-budget eviction bound the resident factors;
//! hit/miss/eviction counters land in the session's [`MetricsRegistry`].

use crate::fingerprint::MatrixFingerprint;
use crate::queue::RejectReason;
use pastix_graph::{Parallelism, SymCsc};
use pastix_kernels::{FactorError, Scalar};
use pastix_solver::{screen_rhs, AnalyzeOptions, FactorRun, Plan, SolveRequest, SolverConfig};
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
    /// ordering/symbolic/scheduling).
    pub parallelism: Parallelism,
    /// Analyze, execution and observability configuration shared by the
    /// analysis, the factorization and every solve (ordering, symbolic
    /// and scheduling knobs, machine model, backend, tracing, metrics).
    /// `procs` and `parallelism` above replace the fields of the same
    /// name in its analyze options.
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
    /// The analyzed plan: permutation, task graph, static schedule —
    /// shared with every other factor of the same pattern.
    pub plan: Plan,
    /// The assembled factor with its observability artifacts (carries the
    /// plan, so [`FactorRun::solve_request`] works directly).
    pub run: FactorRun<T>,
    /// Resident factor bytes **as stored**: dense panel bytes plus the
    /// `U`/`V` bytes of compressed bloks ([`FactorStorage::factor_bytes`]
    /// of the run), so a block-low-rank factor charges the byte budget
    /// only for what it actually keeps resident.
    ///
    /// [`FactorStorage::factor_bytes`]: pastix_solver::FactorStorage::factor_bytes
    pub bytes: u64,
}

/// How [`SolverSession::get_or_factorize_info`] found a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The factor was resident: nothing ran.
    Hit,
    /// The factor was not, its pattern's plan was: numeric factorization
    /// only.
    PlanHit,
    /// Neither was: analyze, then factorize.
    Miss,
}

/// A least-recently-used list: index 0 is coldest, the last entry hottest.
/// Both session caches are one of these.
#[derive(Debug)]
struct Lru<K, V>(Vec<(K, V)>);

impl<K: PartialEq, V: Clone> Lru<K, V> {
    /// The value under `key`, refreshed to the hot end.
    fn get(&mut self, key: &K) -> Option<V> {
        let i = self.0.iter().position(|(k, _)| k == key)?;
        let e = self.0.remove(i);
        let v = e.1.clone();
        self.0.push(e);
        Some(v)
    }

    /// Inserts at the hot end.
    fn push(&mut self, key: K, value: V) {
        self.0.push((key, value));
    }

    /// Removes and returns the coldest entry.
    fn pop_cold(&mut self) -> (K, V) {
        self.0.remove(0)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The plan cache's key: the structure digest, cross-checked by the
/// matrix order and stored entry count.
type PatternKey = (u64, usize, usize);

/// A persistent factorize-once, solve-many session.
///
/// Factors are kept in least-recently-used order; every hit refreshes the
/// entry, every insert evicts from the cold end until both the capacity
/// and the byte budget hold. Plans are kept in a second LRU of
/// `2 × capacity` entries keyed by pattern, outside the byte budget, so a
/// plan outlives its evicted (or uncacheable) factors.
pub struct SolverSession<T> {
    opts: SessionOptions,
    factors: Lru<MatrixFingerprint, Arc<CachedFactor<T>>>,
    plans: Lru<PatternKey, Plan>,
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
            factors: Lru(Vec::new()),
            plans: Lru(Vec::new()),
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
        self.factors.0.iter().map(|(fp, _)| *fp).collect()
    }

    /// Number of resident factorizations.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// `true` when no factorization is cached.
    pub fn is_empty(&self) -> bool {
        self.factors.0.is_empty()
    }

    /// Summed resident factor bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    fn publish_gauges(&self) {
        self.metrics.set_gauge("serve.cache.entries", self.factors.len() as f64);
    }

    /// Returns the cached factorization of `a`. On a miss, the stored
    /// values are screened (a NaN or an infinity is a
    /// [`FactorError::NonFinite`] before anything is analyzed, cached or
    /// counted), the pattern's cached plan is reused when there is one
    /// (ordering → symbol → schedule run only when there is not), and the
    /// numeric factorization runs.
    pub fn get_or_factorize(&mut self, a: &SymCsc<T>) -> Result<Arc<CachedFactor<T>>, FactorError> {
        Ok(self.get_or_factorize_info(a)?.0)
    }

    /// [`get_or_factorize`](Self::get_or_factorize) plus the lookup
    /// outcome the request tracer needs.
    pub fn get_or_factorize_info(
        &mut self,
        a: &SymCsc<T>,
    ) -> Result<(Arc<CachedFactor<T>>, Lookup), FactorError> {
        let fp = MatrixFingerprint::of(a);
        if let Some(hit) = self.factors.get(&fp) {
            self.metrics.add_counter("serve.cache.hits", 1);
            return Ok((hit, Lookup::Hit));
        }
        // Screened once per miss: a resident factor's bits were screened
        // when it was made, so the hit path pays nothing.
        if let Some(p) = a.values().iter().position(|v| !v.is_finite()) {
            let col = a.colptr().partition_point(|&c| c <= p) - 1;
            return Err(FactorError::NonFinite { row: a.rowind()[p] as usize, col });
        }
        self.metrics.add_counter("serve.cache.misses", 1);

        let cfg = self.opts.solver.clone().with_analyze(AnalyzeOptions {
            procs: self.opts.procs,
            parallelism: self.opts.parallelism,
            ..self.opts.solver.analyze.clone()
        });
        let pattern = (fp.structure, a.n(), a.nnz_stored());
        let (plan, lookup) = match self.plans.get(&pattern) {
            Some(plan) => {
                self.metrics.add_counter("serve.plan.hits", 1);
                (plan, Lookup::PlanHit)
            }
            None => {
                self.metrics.add_counter("serve.plan.misses", 1);
                let plan = Plan::analyze(a, &cfg);
                if let Some(stats) = plan.analyze_stats() {
                    // Time-to-first-solve visibility: analyze wall time
                    // spent on this miss, in nanoseconds.
                    self.metrics.add_counter("serve.analyze_ns", stats.analyze_ns);
                }
                self.plans.push(pattern, plan.clone());
                while self.plans.len() > 2 * self.opts.capacity {
                    self.plans.pop_cold();
                }
                (plan, Lookup::Miss)
            }
        };
        let t0 = std::time::Instant::now();
        let run = plan.factorize(a, &cfg)?;
        self.metrics.observe("serve.factorize_ns", t0.elapsed().as_nanos() as u64);
        let bytes = run.storage.factor_bytes();
        let entry = Arc::new(CachedFactor {
            fingerprint: fp,
            plan,
            run,
            bytes,
        });

        if self.opts.byte_budget.is_some_and(|budget| bytes > budget) {
            // Larger than the whole budget: serve it, never cache it.
            self.metrics.add_counter("serve.cache.uncacheable", 1);
            return Ok((entry, lookup));
        }
        self.factors.push(fp, entry.clone());
        self.bytes += bytes;
        while self.factors.len() > self.opts.capacity
            || self.opts.byte_budget.is_some_and(|budget| self.bytes > budget)
        {
            let (cold_fp, cold) = self.factors.pop_cold();
            self.bytes -= cold.bytes;
            self.metrics.add_counter("serve.cache.evictions", 1);
            pastix_trace::flight::record(
                pastix_trace::flight::FlightKind::CacheEvict,
                cold_fp.structure,
                cold.bytes,
            );
        }
        self.publish_gauges();
        Ok((entry, lookup))
    }

    /// Solves an `n × nrhs` right-hand-side panel (column-major, original
    /// ordering) against `a` with the distributed panel sweeps, returning
    /// the solution panel and the solve's [`TraceLog`] (empty when
    /// tracing is off). Factorizes on a cache miss. A panel that fails
    /// [`pastix_solver::screen_rhs`] (`nrhs = 0`, a length other than
    /// `n × nrhs`, a non-finite entry) is [`RejectReason::Rhs`], a failed
    /// factorization [`RejectReason::Factorization`]; a refused panel is
    /// refused before the factor is looked up.
    pub fn solve_panel(
        &mut self,
        a: &SymCsc<T>,
        b_panel: &[T],
        nrhs: usize,
    ) -> Result<(Vec<T>, TraceLog), RejectReason> {
        let out = self.solve_panel_tagged(a, b_panel, nrhs, None)?;
        Ok((out.x, out.trace))
    }

    /// [`solve_panel`](Self::solve_panel) for the request tracer: `tag`
    /// threads a request id into the solve trace's per-rank async spans
    /// (see [`pastix_solver::SolveRequest::tagged`]) and the outcome says
    /// how the factor was found. Errors like `solve_panel`.
    pub fn solve_panel_tagged(
        &mut self,
        a: &SymCsc<T>,
        b_panel: &[T],
        nrhs: usize,
        tag: Option<u64>,
    ) -> Result<PanelSolve<T>, RejectReason> {
        // Before the lookup: a panel the solve would refuse costs no
        // analysis or factorization, evicts no factor and counts no hit.
        // The solve takes the screen's proof and does not scan again.
        let screened = screen_rhs(b_panel, a.n(), nrhs).map_err(RejectReason::Rhs)?;
        let (cached, lookup) = self.get_or_factorize_info(a).map_err(RejectReason::Factorization)?;
        let mut req = SolveRequest::screened(screened);
        req.trace = self.opts.solver.trace.enabled;
        req.tag = tag;
        let out = cached.run.solve_request(req).map_err(RejectReason::Rhs)?;
        Ok(PanelSolve { x: out.x, trace: out.trace, lookup })
    }

    /// Single right-hand-side convenience over [`solve_panel`](Self::solve_panel).
    pub fn solve(&mut self, a: &SymCsc<T>, b: &[T]) -> Result<Vec<T>, RejectReason> {
        Ok(self.solve_panel(a, b, 1)?.0)
    }
}

/// Result of [`SolverSession::solve_panel_tagged`]: the solution panel,
/// the solve's trace, and how the factor was found.
#[derive(Debug)]
pub struct PanelSolve<T> {
    /// Solution, `n × nrhs` column-major, original row order.
    pub x: Vec<T>,
    /// The solve's trace (empty when tracing is off).
    pub trace: TraceLog,
    /// Whether the factor came from cache, was refactorized on a cached
    /// plan, or was analyzed and factorized.
    pub lookup: Lookup,
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
        let mut opts = SessionOptions { procs: 2, capacity: 2, ..Default::default() };
        opts.solver.analyze.sched.block_size = 8;
        opts
    }

    #[test]
    fn a_bad_panel_is_a_typed_error_not_a_panic() {
        use pastix_solver::SolveError;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = SolverSession::<f64>::new(small_opts());
        let a = mat(4);
        let n = a.n();
        let b = rhs_for_solution(&a, &canonical_solution::<f64>(n));
        let mut nan = b.clone();
        nan[5] = f64::NAN;
        let cases: [(&[f64], usize, SolveError); 3] = [
            (&b[..n - 1], 1, SolveError::WrongLength { expected: n, got: n - 1 }),
            (&[], 0, SolveError::NoRhs),
            (&nan, 1, SolveError::NonFinite { index: 5 }),
        ];
        for (panel, nrhs, want) in cases {
            let got = catch_unwind(AssertUnwindSafe(|| s.solve_panel(&a, panel, nrhs).map(|_| ())));
            assert_eq!(got.expect("no panic").unwrap_err(), RejectReason::Rhs(want));
        }
        assert_eq!(s.solve(&a, &nan).unwrap_err(), RejectReason::Rhs(SolveError::NonFinite { index: 5 }));
        // Every refusal comes before the lookup: nothing was factorized.
        // The session still serves.
        assert_eq!(s.metrics().counter("serve.cache.misses"), 0);
        assert!(a.residual_norm(&s.solve(&a, &b).unwrap(), &b) < 1e-10);
        assert_eq!(s.metrics().counter("serve.cache.misses"), 1);
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

    /// The session takes the machine model from `opts.solver.analyze`.
    #[test]
    fn session_analyzes_with_the_configured_machine_model() {
        use pastix_machine::MachineModel;
        let a = grid_spd::<f64>(12, 12, 1, Stencil::Star, false, ValueKind::RandomSpd(7));
        let digest = |opts: &SessionOptions, machine: Option<MachineModel>| {
            let cfg = SolverConfig::new().with_analyze(AnalyzeOptions {
                procs: opts.procs,
                machine,
                parallelism: opts.parallelism,
                ..opts.solver.analyze.clone()
            });
            Plan::analyze(&a, &cfg).schedule().unwrap().digest()
        };

        let mut opts = SessionOptions { procs: 4, ..small_opts() };
        let smp = MachineModel::sp2_smp(4, 2);
        opts.solver.analyze.machine = Some(smp.clone());
        let mut s = SolverSession::<f64>::new(opts.clone());
        let cached = s.get_or_factorize(&a).unwrap();
        let got = cached.plan.schedule().expect("static schedule").digest();
        assert_eq!(got, digest(&opts, Some(smp)), "session ignored the machine model");
        assert_ne!(got, digest(&opts, None), "sp2_smp(4, 2) must schedule differently from sp2(4)");
    }

    /// The scheduling knobs come from `opts.solver.analyze` too: a session
    /// with a non-default block size caches the plan `Plan::analyze`
    /// builds under the same configuration.
    #[test]
    fn session_analyzes_with_the_configured_block_size() {
        let a = grid_spd::<f64>(12, 12, 1, Stencil::Star, false, ValueKind::RandomSpd(7));
        let digest = |analyze: AnalyzeOptions| {
            let cfg = SolverConfig::new().with_analyze(analyze);
            Plan::analyze(&a, &cfg).schedule().unwrap().digest()
        };
        let mut opts = SessionOptions { procs: 3, ..Default::default() };
        opts.solver.analyze.sched.block_size = 4;
        let want = digest(AnalyzeOptions { procs: 3, ..opts.solver.analyze.clone() });
        assert_ne!(want, digest(AnalyzeOptions::with_procs(3)), "block size 4 must split differently from 64");
        let mut s = SolverSession::<f64>::new(opts);
        let cached = s.get_or_factorize(&a).unwrap();
        assert_eq!(cached.plan.schedule().expect("static schedule").digest(), want);
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
        use pastix_solver::CompressionConfig;
        // A grid whose separator blocks compress at the loose tolerance.
        let a = grid_spd::<f64>(20, 20, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let mut opts = small_opts();
        opts.solver = opts.solver.with_compression(CompressionConfig::with_tolerance(1e-2).min_block(4));
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
    }

    /// A matrix whose cached plan does not cover its pattern — here a plan
    /// of another pattern put under its key — fails small: the
    /// factorization returns `PatternMismatch` at the entry outside the
    /// analyzed structure instead of panicking inside a rank, and each of
    /// its batch's tickets is refused with that error.
    #[test]
    fn a_pattern_outside_the_plan_refuses_its_batch() {
        use crate::{RejectReason, RequestQueue};
        use pastix_solver::storage::try_blok_of;
        use pastix_trace::export::{chrome_trace, validate_chrome_trace};
        let a = grid_spd::<f64>(9, 9, 1, Stencil::Star, false, ValueKind::RandomSpd(29));
        let n = a.n();
        let opts = SessionOptions { procs: 3, max_panel: 4, ..small_opts() };
        let cfg = SolverConfig::new().with_analyze(AnalyzeOptions { procs: 3, ..opts.solver.analyze.clone() });
        let plan = Plan::analyze(&a, &cfg);
        let (sym, perm) = (plan.symbol(), plan.permutation().unwrap());
        let (row, col) = (0..n)
            .flat_map(|col| (col + 1..n).map(move |row| (row, col)))
            .find(|&(row, col)| {
                let (i, j) = (perm.new_of(row), perm.new_of(col));
                try_blok_of(sym, sym.cblk_of_col(i.min(j)), i.max(j) as u32).is_none()
            })
            .expect("a sparse factor leaves positions out");
        let mut trips: Vec<_> = (0..n)
            .flat_map(|j| a.rows_of(j).iter().zip(a.vals_of(j)).map(move |(&i, &v)| (i, j as u32, v)))
            .collect();
        trips.push((row as u32, col as u32, -0.25));
        let wider = SymCsc::from_triplets(n, &trips);

        let mut session = SolverSession::<f64>::new(opts);
        session.plans.push((MatrixFingerprint::of(&wider).structure, n, wider.nnz_stored()), plan);
        let mut q = RequestQueue::traced();
        let ids: Vec<u64> = (0..3).map(|r| q.submit(vec![1.0 + r as f64; n], 100)).collect();
        let err = FactorError::PatternMismatch { row, col };
        assert_eq!(q.serve_batch(&mut session, &wider, 200, 300).unwrap_err(), err);
        let refused: Vec<_> = ids.iter().map(|&id| (id, RejectReason::Factorization(err))).collect();
        assert_eq!(q.take_rejected(), refused);
        assert_eq!(session.metrics().counter("serve.failed"), 3);
        assert!(session.is_empty(), "nothing was cached for the refused matrix");
        // The session keeps serving: the original pattern gets its own plan.
        let xe: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let id = q.submit(rhs_for_solution(&a, &xe), 1_000);
        let done = q.serve_batch(&mut session, &a, 1_100, 1_200).unwrap();
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![id]);
        for (u, v) in done[0].x.iter().zip(&xe) {
            assert!((u - v).abs() < 1e-8, "{u} vs exact {v}");
        }
        validate_chrome_trace(&chrome_trace(&q.take_trace())).expect("every request span closed");
    }
}
