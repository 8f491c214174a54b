//! The unified solver configuration and the factorization run result.
//!
//! One [`SolverConfig`] value carries the execution knobs (backend, memory
//! cap, chaos) and the tracing/metrics surface. Entry points hand back a
//! [`FactorRun`] that bundles the factor with the run's [`TraceLog`] and
//! the [`MetricsRegistry`] handle that collected its counters.

use crate::compress::CompressionConfig;
use crate::parallel::ChaosOptions;
use crate::plan::{AnalyzeOptions, Plan, PlanCtx};
use crate::storage::FactorStorage;
use pastix_runtime::Backend;
use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};

/// Unified configuration of the parallel factorization and solve entry
/// points: execution backend, solver-level knobs and the observability
/// surface. `Clone` is cheap (the registry handle is an `Arc` bump); the
/// default value is the `Threads` backend, no Fan-Both cap, no chaos,
/// tracing off and no compression. The kernel dispatch mode is process-wide
/// ([`pastix_kernels::KernelMode::scoped`]), not part of the config.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Execution backend: the task-graph executor on OS threads with every
    /// task enqueued on its `K_p` processor and idle workers stealing
    /// ([`Backend::Threads`], default),
    /// the deterministic fault-injecting simulator of the fan-in protocol
    /// ([`Backend::Sim`]; its solves run on the executor's seeded
    /// serializer) whose whole execution is a pure function of the
    /// embedded fault plan's `(seed, policy)`, or work stealing
    /// ([`Backend::Dynamic`]).
    pub backend: Backend,
    /// Fan-Both memory cap in scalars per processor: when the outgoing
    /// aggregation buffers exceed it, the largest is sent partially
    /// aggregated (paper §2). `None` (default) keeps total local
    /// aggregation (pure Fan-In). A knob of the fan-in protocol, read
    /// only on [`Backend::Sim`]: the other backends send no AUBs.
    pub aub_memory_limit: Option<usize>,
    /// Fault injection for the chaos suite; off by default.
    pub chaos: ChaosOptions,
    /// Task-level tracing; disabled by default (a disabled trace adds one
    /// thread-local `Option` check per record site).
    pub trace: TraceOptions,
    /// The registry that receives this run's counters (communication
    /// totals, stage timers, executor counts, per rank). Defaults to a fresh private
    /// registry; pass a shared handle to aggregate across runs.
    pub metrics: MetricsRegistry,
    /// Pre-processing knobs consumed by [`crate::Plan::analyze`]:
    /// ordering, symbolic analysis, mapping and scheduling.
    pub analyze: AnalyzeOptions,
    /// Block low-rank compression of the finished factor's off-diagonal
    /// blocks. Off by default (`tolerance: 0.0`): the factor stays dense.
    pub compression: CompressionConfig,
}

impl SolverConfig {
    /// The default configuration: `Threads` backend, no Fan-Both cap, no
    /// chaos, tracing off, no compression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the Fan-Both memory cap (scalars per processor).
    pub fn with_aub_memory_limit(mut self, limit: Option<usize>) -> Self {
        self.aub_memory_limit = limit;
        self
    }

    /// Sets the chaos fault-injection options.
    pub fn with_chaos(mut self, chaos: ChaosOptions) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the tracing options.
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }

    /// Uses `registry` to collect this run's metrics (shared handle).
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = registry;
        self
    }

    /// Sets the analyze-phase options ([`crate::Plan::analyze`]).
    pub fn with_analyze(mut self, analyze: AnalyzeOptions) -> Self {
        self.analyze = analyze;
        self
    }

    /// Sets the block low-rank compression knobs.
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }
}

/// Result of [`crate::Plan::factorize`]: the assembled factor plus the
/// run's observability artifacts. Derefs to the [`FactorStorage`], so
/// existing code that only wants the factor keeps reading fields and
/// calling methods through it unchanged. Every run carries the plan it
/// was factorized under, which is what powers
/// [`FactorRun::solve_request`](crate::SolveRequest).
#[derive(Debug)]
pub struct FactorRun<T> {
    /// The assembled factor.
    pub storage: FactorStorage<T>,
    /// The recorded trace (empty when tracing was disabled).
    pub trace: TraceLog,
    /// The registry that collected this run's counters (clone of the
    /// handle in the driving [`SolverConfig`]).
    pub metrics: MetricsRegistry,
    /// The plan + config that produced this run.
    pub(crate) ctx: PlanCtx,
}

impl<T> FactorRun<T> {
    /// A run of `plan`'s factor `storage`, solved under `cfg`.
    pub(crate) fn of_plan(storage: FactorStorage<T>, trace: TraceLog, plan: &Plan, cfg: &SolverConfig) -> Self {
        let ctx = PlanCtx { plan: plan.clone(), cfg: cfg.clone() };
        Self { storage, trace, metrics: cfg.metrics.clone(), ctx }
    }

    /// Extracts just the factor, discarding the observability artifacts.
    pub fn into_storage(self) -> FactorStorage<T> {
        self.storage
    }
}

impl<T> std::ops::Deref for FactorRun<T> {
    type Target = FactorStorage<T>;
    fn deref(&self) -> &FactorStorage<T> {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_threads_uncapped_untraced_dense() {
        let c = SolverConfig::default();
        assert_eq!(c.backend, Backend::Threads);
        assert_eq!(c.aub_memory_limit, None);
        assert_eq!(c.chaos, ChaosOptions::default());
        assert!(!c.trace.enabled);
        assert!(!c.compression.enabled(), "compression must default to off");
    }

    #[test]
    fn builder_chains() {
        let c = SolverConfig::new()
            .with_aub_memory_limit(Some(64))
            .with_trace(pastix_trace::TraceOptions::deterministic());
        assert_eq!(c.aub_memory_limit, Some(64));
        assert!(c.trace.enabled);
    }
}
