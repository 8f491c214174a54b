//! Solver-side block low-rank (BLR) compression: configuration and the
//! finalization pass that installs the overlay into [`FactorStorage`]
//! (the compressed COMP1D body itself lives with the other task bodies
//! in `tasks.rs`).
//!
//! Compression is *just-in-time* in the PaStiX sense: a 1D column block's
//! off-diagonal bloks are compressed inside its comp1d task, right after
//! the diagonal factorization — the panel has received every incoming
//! update by then (right-looking order), so the compressed form is final
//! and all outgoing contributions can run through the low-rank kernels.
//! 2D-distributed column blocks stay dense while FACTOR/BDIV/BMOD tasks
//! are in flight (the fan-in message protocol is untouched); under
//! [`CompressionStrategy::MinimalMemory`] a post-factorization sweep
//! compresses their final bloks too, for the memory win alone.

use crate::storage::{BlockStore, FactorStorage};
use pastix_kernels::{compress_block, LowRankBlock, Scalar};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::MetricsRegistry;

/// What block low-rank compression optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionStrategy {
    /// Compress inside comp1d and accept a block only when the low-rank
    /// form also wins *flops* on the update path (`2·r·(m+n) ≤ m·n`);
    /// blocks the factorization left dense stay dense.
    #[default]
    JustInTime,
    /// Accept any representation that is bytes-smaller
    /// (`r·(m+n) < m·n`), and additionally sweep the finished factor —
    /// including the 2D-distributed column blocks the in-flight message
    /// protocol keeps dense — compressing everything that still
    /// qualifies. Maximizes the memory footprint reduction.
    MinimalMemory,
}

/// Block low-rank compression knobs, carried on
/// [`SolverConfig`](crate::SolverConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Relative Frobenius-norm tolerance of each block's approximation
    /// (`‖A − U·Vᵀ‖_F ≤ tolerance·‖A‖_F`). `0.0` disables compression —
    /// the factorization takes the classic dense path, bitwise unchanged.
    pub tolerance: f64,
    /// Minimum rows *and* owning-panel width for a blok to be considered
    /// (see [`SymbolMatrix::blok_compressible`]).
    pub min_block: usize,
    /// Acceptance policy.
    pub strategy: CompressionStrategy,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self { tolerance: 0.0, min_block: 32, strategy: CompressionStrategy::default() }
    }
}

impl CompressionConfig {
    /// Compression off (the default): tolerance `0.0`.
    pub fn off() -> Self {
        Self::default()
    }

    /// Enabled config at `tolerance` with default gating.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self { tolerance, ..Self::default() }
    }

    /// Returns `self` with the blok-dimension gate replaced.
    pub fn min_block(mut self, min_block: usize) -> Self {
        self.min_block = min_block;
        self
    }

    /// Returns `self` with the acceptance strategy replaced.
    pub fn strategy(mut self, strategy: CompressionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// `true` when compression participates in the factorization at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tolerance > 0.0
    }

    /// Acceptance test for a compressed block per the strategy.
    pub(crate) fn accepts<T: Scalar>(&self, lr: &LowRankBlock<T>) -> bool {
        let (m, n, r) = (lr.m, lr.n, lr.rank);
        match self.strategy {
            CompressionStrategy::JustInTime => 2 * r * (m + n) <= m * n,
            CompressionStrategy::MinimalMemory => r * (m + n) < m * n,
        }
    }
}

/// Installs the just-in-time compressions the COMP1D tasks collected
/// (`lrs`, keyed by global blok id) into `storage`, after the
/// [`CompressionStrategy::MinimalMemory`] post-pass over the bloks the
/// factorization left dense (2D column blocks, rejected candidates), and
/// publishes the `lowrank.*` metrics.
pub(crate) fn finalize_compression<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &mut FactorStorage<T>,
    cc: &CompressionConfig,
    lrs: Vec<(usize, LowRankBlock<T>)>,
    metrics: &MetricsRegistry,
) {
    if !cc.enabled() {
        return;
    }
    let mut per_blok: Vec<Option<LowRankBlock<T>>> = (0..sym.bloks.len()).map(|_| None).collect();
    for (b, lr) in lrs {
        per_blok[b] = Some(lr);
    }
    if cc.strategy == CompressionStrategy::MinimalMemory {
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            let w = cb.width();
            let lda = storage.layout.panel_rows(k);
            for b in cb.blok_start + 1..cb.blok_end {
                if per_blok[b].is_some() || !sym.blok_compressible(b, cc.min_block) {
                    continue;
                }
                let h = sym.bloks[b].nrows();
                let row = storage.layout.panel_row[b] as usize;
                if let Some(lr) =
                    compress_block(h, w, &storage.panels[k][row..], lda, 0.0, cc.tolerance)
                {
                    if cc.accepts(&lr) {
                        per_blok[b] = Some(lr);
                    }
                }
            }
        }
    }
    storage.install_compression(sym, per_blok);
    publish_compression_metrics(storage, metrics);
}

/// Publishes the `lowrank.*` counters and the factor-bytes gauge for a
/// finished factorization.
pub(crate) fn publish_compression_metrics<T: Scalar>(
    storage: &FactorStorage<T>,
    metrics: &MetricsRegistry,
) {
    let mut blocks = 0u64;
    let mut rank_sum = 0u64;
    for pc in storage.compression.iter().flatten() {
        for bs in &pc.bloks {
            if let BlockStore::LowRank(lr) = bs {
                blocks += 1;
                rank_sum += lr.rank as u64;
            }
        }
    }
    let fb = storage.factor_bytes();
    let db = storage.dense_factor_bytes();
    metrics.add_counter("lowrank.compressed_blocks", blocks);
    metrics.add_counter("lowrank.rank_sum", rank_sum);
    metrics.add_counter("lowrank.bytes_saved", db.saturating_sub(fb));
    metrics.set_gauge("lowrank.factor_bytes", fb as f64);
}
