//! Solver-side block low-rank (BLR) compression: the configuration and
//! the one pass that compresses a finished factor.
//!
//! The numeric phase never sees a [`CompressionConfig`]: every backend
//! returns the dense factor, and [`crate::Plan::factorize`] then sweeps
//! it once, replacing each qualifying off-diagonal blok by its `U·Vᵀ`
//! form when that form is bytes-smaller. The overlay it installs into
//! [`FactorStorage`] is what the solves dispatch on; the dense bloks are
//! the dense factor's, bit for bit.

use crate::storage::{BlockStore, FactorStorage};
use pastix_kernels::{compress_block, LowRankBlock, Scalar};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::MetricsRegistry;

/// Block low-rank compression knobs, carried on
/// [`SolverConfig`](crate::SolverConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Relative Frobenius-norm tolerance of each block's approximation
    /// (`‖A − U·Vᵀ‖_F ≤ tolerance·‖A‖_F`). `0.0` disables compression:
    /// the factor stays dense, bitwise unchanged.
    pub tolerance: f64,
    /// Minimum rows *and* owning-panel width for a blok to be considered
    /// (see [`SymbolMatrix::blok_compressible`]).
    pub min_block: usize,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self { tolerance: 0.0, min_block: 32 }
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

    /// `true` when the finished factor is compressed at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tolerance > 0.0
    }
}

/// Compresses the finished dense factor in `storage`: every
/// off-diagonal blok that passes [`SymbolMatrix::blok_compressible`] and
/// whose `U·Vᵀ` form at `cc.tolerance` is bytes-smaller
/// ([`compress_block`]) goes into the overlay. Publishes the `lowrank.*`
/// metrics. A no-op with compression off.
pub(crate) fn finalize_compression<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &mut FactorStorage<T>,
    cc: &CompressionConfig,
    metrics: &MetricsRegistry,
) {
    if !cc.enabled() {
        return;
    }
    let mut per_blok: Vec<Option<LowRankBlock<T>>> = (0..sym.bloks.len()).map(|_| None).collect();
    for (k, cb) in sym.cblks.iter().enumerate() {
        let w = cb.width();
        let lda = storage.layout.panel_rows(k);
        for b in (cb.blok_start + 1..cb.blok_end).filter(|&b| sym.blok_compressible(b, cc.min_block)) {
            let row = storage.layout.panel_row[b] as usize;
            per_blok[b] = compress_block(sym.bloks[b].nrows(), w, &storage.panels[k][row..], lda, 0.0, cc.tolerance);
        }
    }
    storage.install_compression(sym, per_blok);
    publish_compression_metrics(storage, metrics);
}

/// Publishes the `lowrank.*` counters and the factor-bytes gauge for a
/// compressed factor.
fn publish_compression_metrics<T: Scalar>(
    storage: &FactorStorage<T>,
    metrics: &MetricsRegistry,
) {
    let blocks = storage.compression.iter().flatten().flat_map(|pc| &pc.bloks);
    let blocks = blocks.filter(|bs| matches!(bs, BlockStore::LowRank(_))).count() as u64;
    let fb = storage.factor_bytes();
    let db = storage.dense_factor_bytes();
    metrics.add_counter("lowrank.compressed_blocks", blocks);
    metrics.add_counter("lowrank.bytes_saved", db.saturating_sub(fb));
    metrics.set_gauge("lowrank.factor_bytes", fb as f64);
}
