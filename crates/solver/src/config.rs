//! The unified solver configuration and the factorization run result.
//!
//! One [`SolverConfig`] value carries everything that used to be
//! scattered across three places: the execution knobs (backend, memory
//! cap, chaos), the kernel-dispatch mode, and the tracing/metrics
//! surface. Entry points apply the kernel mode through a
//! scoped guard (restored on exit) and hand back a [`FactorRun`] that
//! bundles the factor with the run's [`TraceLog`] and the
//! [`MetricsRegistry`] handle that collected its counters.

use crate::compress::CompressionConfig;
use crate::parallel::ChaosOptions;
use crate::plan::{AnalyzeOptions, PlanCtx};
use crate::storage::FactorStorage;
use pastix_kernels::KernelMode;
use pastix_runtime::Backend;
use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};

/// Unified configuration of the parallel factorization and solve entry
/// points: execution backend, solver-level knobs, kernel dispatch mode,
/// and the observability surface. `Clone` is cheap (the registry handle is
/// an `Arc` bump) and the default value reproduces the old defaults
/// exactly: thread backend, pure fan-in, no chaos, `KernelMode::Auto`,
/// tracing off.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Execution backend: real OS threads ([`Backend::Threads`], default)
    /// or the deterministic fault-injecting simulator ([`Backend::Sim`])
    /// whose whole execution is a pure function of the embedded fault
    /// plan's `(seed, policy)`.
    pub backend: Backend,
    /// Fan-Both memory cap in scalars per processor: when the outgoing
    /// aggregation buffers exceed it, the largest is sent partially
    /// aggregated (paper §2). `None` (default) keeps total local
    /// aggregation (pure Fan-In).
    pub aub_memory_limit: Option<usize>,
    /// Fault injection for the chaos suite; off by default.
    pub chaos: ChaosOptions,
    /// Kernel dispatch mode, applied for the duration of the run through
    /// [`KernelMode::scoped`] and restored on exit.
    pub kernel_mode: KernelMode,
    /// Task-level tracing; disabled by default (a disabled trace adds one
    /// thread-local `Option` check per record site).
    pub trace: TraceOptions,
    /// The registry that receives this run's counters (message-path and
    /// communication totals, per rank). Defaults to a fresh private
    /// registry; pass a shared handle to aggregate across runs.
    pub metrics: MetricsRegistry,
    /// Pre-processing knobs consumed by [`crate::Plan::analyze`]:
    /// ordering, symbolic analysis, mapping/scheduling, and whether a
    /// static schedule is computed at all.
    pub analyze: AnalyzeOptions,
    /// Block low-rank compression of off-diagonal factor blocks. Off by
    /// default (`tolerance: 0.0`) — the factorization is bitwise-identical
    /// to the classic dense path.
    pub compression: CompressionConfig,
    /// Persist measured per-task-kind `ns_per_cost` rates to the machine
    /// calibration dotfile after each wall-clock-traced factorization, so
    /// long-lived deployments self-tune the scheduler's cost model the
    /// same way `bench_trace` does. Off by default; has no effect unless
    /// the run is traced with [`pastix_trace::ClockMode::Wall`] and a
    /// static schedule is present (logical-clock traces carry no rate
    /// information).
    pub persist_calibration: bool,
}

impl SolverConfig {
    /// The default configuration: thread backend, pure fan-in, no chaos,
    /// `KernelMode::Auto`, tracing off.
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

    /// Sets the kernel dispatch mode for the run.
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
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

    /// Opts wall-clock-traced factorizations into writing the machine
    /// calibration dotfile (see [`SolverConfig::persist_calibration`]).
    pub fn with_persist_calibration(mut self, on: bool) -> Self {
        self.persist_calibration = on;
        self
    }
}

/// Result of [`crate::Plan::factorize`]: the assembled factor plus the
/// run's observability artifacts. Derefs to the [`FactorStorage`], so
/// existing code that only wants the factor keeps reading fields and
/// calling methods through it unchanged. Runs produced by the `Plan` API
/// additionally carry their plan, which is what powers
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
    /// The plan + config that produced this run (present when it came
    /// through the `Plan` API or was bound with [`FactorRun::bind_plan`]).
    pub(crate) ctx: Option<PlanCtx>,
}

impl<T> FactorRun<T> {
    /// Bundles a factor with its observability artifacts (no plan
    /// attached; call [`FactorRun::bind_plan`] to enable solves).
    pub fn new(storage: FactorStorage<T>, trace: TraceLog, metrics: MetricsRegistry) -> Self {
        Self {
            storage,
            trace,
            metrics,
            ctx: None,
        }
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
    fn default_matches_old_parallel_options() {
        let c = SolverConfig::default();
        assert_eq!(c.backend, Backend::Threads);
        assert_eq!(c.aub_memory_limit, None);
        assert_eq!(c.chaos, ChaosOptions::default());
        assert_eq!(c.kernel_mode, KernelMode::Auto);
        assert!(!c.trace.enabled);
        assert!(!c.compression.enabled(), "compression must default to off");
    }

    #[test]
    fn builder_chains() {
        let c = SolverConfig::new()
            .with_aub_memory_limit(Some(64))
            .with_kernel_mode(KernelMode::Reference)
            .with_trace(pastix_trace::TraceOptions::deterministic());
        assert_eq!(c.aub_memory_limit, Some(64));
        assert_eq!(c.kernel_mode, KernelMode::Reference);
        assert!(c.trace.enabled);
    }
}
