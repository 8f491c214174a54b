//! Cache-blocked packed GEMM microkernels.
//!
//! The BLIS-style formulation of the contribution products: the iteration
//! space is tiled `NC × KC × MC` (columns, depth, rows); within a tile the
//! `B` operand is packed into `nr`-wide column slabs and the `A` operand
//! into `mr`-tall row slabs, so the innermost register microkernel streams
//! both packs contiguously and keeps an `mr × nr` accumulator block entirely
//! in registers for the whole `KC` depth. Compared with the seed's axpy
//! formulation (which re-reads the `C` column every fourth `k` step and the
//! whole `A` panel once per `C` column), the packed loop touches each `C`
//! element once per `KC` slice and each packed element once per tile —
//! `(mr + nr) / (mr · nr)` memory operations per multiply-add instead of
//! `~6/4`.
//!
//! Packing pads partial slabs with zeros (a zero contribution is exact),
//! and the write-back only stores the valid `mr × nr` corner, so padding
//! rows of `C` buffers and the strictly upper triangle of diagonal blocks
//! are never touched.
//!
//! The register block is per scalar type and per instruction set: a
//! [`Tile`], reached through [`Scalar::TILE`]. Every scalar gets the safe
//! generic kernel (8 × 6, which fills the sixteen vector registers of
//! AVX2-class hardware); `f64` built for AVX-512 gets a 16 × 8 tile of
//! `_mm512_fmadd_pd`, because the compiler keeps such targets at 256-bit
//! vectors on its own. That kernel holds the crate's only `unsafe` block.
//! The tile shape is a compile-time constant of the driver (one
//! instantiation per kernel), which is what makes the slab copies and the
//! write-back of a whole tile fixed-size vector moves.
//! Whatever the tile, an entry of the product is one chain of fused
//! multiply-adds over the depth of a `KC` slice, in depth order, so the
//! tiles agree bit for bit.
//!
//! The blocking constants are per-`Scalar` (chosen by element size so an
//! `MC × KC` A-pack sits in L2 and a `KC × NC` B-pack in outer cache) and
//! can be overridden **once** per process by a runtime probe
//! ([`configure_blocking`], driven by `pastix-machine`'s
//! `probe_blocking`).

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The register microkernel of the packed path for one scalar type: the
/// shape of its accumulator block and the tiled driver compiled for it.
#[derive(Debug, Clone, Copy)]
pub struct Tile<T> {
    /// Rows of the accumulator block: the height of an A-pack slab.
    pub mr: usize,
    /// Columns of the accumulator block: the width of a B-pack slab.
    pub nr: usize,
    /// What the kernel is written in (`"generic"`, `"avx512f"`), for bench
    /// headers.
    pub isa: &'static str,
    /// [`gemm_packed_driver`] instantiated for the kernel, so the tile
    /// shape is a compile-time constant all the way down.
    driver: Driver<T>,
}

/// The signature of [`gemm_packed_driver`]: blocking, layout of `B`, then
/// `m, n, k, α, a, lda, b, ldb, c, ldc`.
type Driver<T> = fn(BlockSizes, BLayout, usize, usize, usize, T, &[T], usize, &[T], usize, &mut [T], usize);

/// A register microkernel. `run(kcb, pa, pb, out)` overwrites `out`
/// (column-major `MR × NR`) with `Σ_kk pa[kk][·] · pb[kk][·]` over one
/// slab of each pack: per entry, one `mul_add` chain from zero in depth
/// order.
trait MicroKernel<T> {
    const MR: usize;
    const NR: usize;
    fn run(kcb: usize, pa: &[T], pb: &[T], out: &mut [T]);
}

/// Scalars of the largest accumulator block any [`MicroKernel`] has.
const MAX_TILE: usize = 16 * 8;

impl<T: Scalar> Tile<T> {
    const fn of<K: MicroKernel<T>>(isa: &'static str) -> Self {
        assert!(K::MR * K::NR <= MAX_TILE);
        Tile { mr: K::MR, nr: K::NR, isa, driver: gemm_packed_driver::<T, K> }
    }

    /// The safe kernel every scalar falls back to: 8 × 6, twelve 256-bit
    /// accumulators for `f64`.
    pub const fn generic() -> Self {
        Self::of::<Generic<8, 6>>("generic")
    }
}

impl Tile<f64> {
    /// The `f64` tile of the instruction set this crate is compiled for.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    pub(crate) const F64: Self = Self::of::<Avx512>("avx512f");
    /// The `f64` tile of the instruction set this crate is compiled for.
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    pub(crate) const F64: Self = Self::generic();
}

/// Cache-blocking constants of the packed GEMM path: row tile `mc`
/// (A-pack height), depth tile `kc` (pack depth), column tile `nc`
/// (B-pack width). The driver rounds `mc` and `nc` up to whole slabs of
/// the scalar's [`Tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Row-tile height: one A-pack is `mc × kc` scalars (targets L2).
    pub mc: usize,
    /// Depth tile shared by both packs.
    pub kc: usize,
    /// Column-tile width: one B-pack is `kc × nc` scalars (targets L3).
    pub nc: usize,
}

impl BlockSizes {
    /// Legal tile sizes: nothing zero.
    pub fn sanitized(self) -> Self {
        Self { mc: self.mc.max(1), kc: self.kc.max(1), nc: self.nc.max(1) }
    }

    /// Default blocking for a scalar of `elem_bytes` bytes: A-pack ≈ 224 KB
    /// (half a typical L2), B-pack a few MB.
    pub fn default_for_elem_size(elem_bytes: usize) -> Self {
        match elem_bytes {
            0..=8 => Self {
                mc: 128,
                kc: 224,
                nc: 2048,
            },
            9..=16 => Self {
                mc: 64,
                kc: 128,
                nc: 1024,
            },
            _ => Self {
                mc: 32,
                kc: 64,
                nc: 512,
            },
        }
    }
}

// One configurable slot per scalar width (generic statics do not exist in
// Rust; the kernels are generic but the cache hierarchy only cares about
// bytes). `OnceLock` makes the runtime calibration one-shot and lock-free
// after initialization.
static BLOCK_8: OnceLock<BlockSizes> = OnceLock::new();
static BLOCK_16: OnceLock<BlockSizes> = OnceLock::new();
static BLOCK_OTHER: OnceLock<BlockSizes> = OnceLock::new();

fn slot_for(elem_bytes: usize) -> &'static OnceLock<BlockSizes> {
    match elem_bytes {
        0..=8 => &BLOCK_8,
        9..=16 => &BLOCK_16,
        _ => &BLOCK_OTHER,
    }
}

/// Installs calibrated blocking constants for scalars of `elem_bytes`
/// bytes. One-shot per process and per width: returns `false` (and keeps
/// the existing value) if a configuration was already installed. Called by
/// `pastix_machine::probe_blocking`.
pub fn configure_blocking(elem_bytes: usize, bs: BlockSizes) -> bool {
    slot_for(elem_bytes).set(bs.sanitized()).is_ok()
}

/// The blocking constants the packed path uses for scalar `T`: the
/// calibrated value if [`configure_blocking`] ran, the per-width default
/// otherwise.
pub fn blocking_for<T: Scalar>() -> BlockSizes {
    let bytes = std::mem::size_of::<T>();
    slot_for(bytes)
        .get()
        .copied()
        .unwrap_or_else(|| BlockSizes::default_for_elem_size(bytes))
}

/// Which implementation the public GEMM entry points dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum KernelMode {
    /// Packed path for large products, axpy reference below the packing
    /// break-even (default).
    #[default]
    Auto = 0,
    /// Always the seed's axpy reference — the "before" side of the bench
    /// harness and the oracle of the divergence checks.
    Reference = 1,
    /// Always the packed path, regardless of size.
    Packed = 2,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(KernelMode::Auto as u8);

impl KernelMode {
    /// Installs this mode process-wide and returns a guard that restores
    /// the previous mode when dropped. The scoped form is the supported
    /// replacement for the deprecated bare setters: it composes (nested
    /// scopes unwind in order) and cannot leak a mode into unrelated code
    /// the way the fire-and-forget global store did. Solver entry points
    /// apply `SolverConfig::kernel_mode` through this.
    #[must_use = "the mode reverts when the guard drops"]
    pub fn scoped(self) -> KernelModeGuard {
        let prev = KERNEL_MODE.swap(self as u8, Ordering::Relaxed);
        KernelModeGuard { prev }
    }
}

/// Restores the previous [`KernelMode`] on drop; created by
/// [`KernelMode::scoped`].
#[derive(Debug)]
pub struct KernelModeGuard {
    prev: u8,
}

impl Drop for KernelModeGuard {
    fn drop(&mut self) {
        KERNEL_MODE.store(self.prev, Ordering::Relaxed);
    }
}

/// Current dispatch mode.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Reference,
        2 => KernelMode::Packed,
        _ => KernelMode::Auto,
    }
}

/// Products below this many multiply-adds take the axpy reference under
/// [`KernelMode::Auto`]. One number cannot say where packing pays: with
/// the register tiles of this crate a product whose `n` fills the tile's
/// width breaks even near a thousand multiply-adds, one whose `n` is half
/// the width not before 32–64 Ki (`bench_hotpath` re-measures both and writes
/// them next to this constant in `BENCH_kernels.json`). It stays where
/// the 8 × 4 kernel put it: the products it could move carry a few percent
/// of a factorization's flops, and moving them changes the arithmetic —
/// and so every pinned factor — of all small problems.
pub const PACKED_MIN_MADDS: usize = 16 * 1024;

/// `true` when the dispatcher should take the packed path for an
/// `m × n × k` product under the current [`KernelMode`].
#[inline]
pub(crate) fn use_packed(m: usize, n: usize, k: usize) -> bool {
    match kernel_mode() {
        KernelMode::Reference => false,
        KernelMode::Packed => true,
        KernelMode::Auto => m * n * k >= PACKED_MIN_MADDS,
    }
}

/// How `B` is read while packing: `Nt` takes `B` as `n × k` (the `A·Bᵀ`
/// kernels), `Nn` as `k × n` (the `A·B` kernel).
#[derive(Clone, Copy)]
enum BLayout {
    Nt,
    Nn,
}

/// Packs the `mcb × kcb` block of `A` starting at `(ic, pc)` into
/// `mr`-tall row slabs: slab `ir` holds columns `kk` back-to-back, each as
/// `mr` consecutive row entries, zero-padded past `mcb`. Inlined into the
/// driver, where `mr` is a constant: the copies of whole slabs are
/// fixed-size moves.
#[inline]
fn pack_a<T: Scalar>(
    pa: &mut Vec<T>,
    mr: usize,
    a: &[T],
    lda: usize,
    ic: usize,
    pc: usize,
    mcb: usize,
    kcb: usize,
) {
    let slabs = mcb.div_ceil(mr);
    // Every entry is written below: the buffer only ever grows.
    if pa.len() < slabs * kcb * mr {
        pa.resize(slabs * kcb * mr, T::zero());
    }
    for (ir, slab) in pa.chunks_exact_mut(kcb * mr).take(slabs).enumerate() {
        let row0 = ic + ir * mr;
        let rows = mr.min(mcb - ir * mr);
        for (kk, dst) in slab.chunks_exact_mut(mr).enumerate() {
            let col = &a[row0 + (pc + kk) * lda..];
            if rows == mr {
                dst.copy_from_slice(&col[..mr]);
            } else {
                dst[..rows].copy_from_slice(&col[..rows]);
                dst[rows..].fill(T::zero());
            }
        }
    }
}

/// Packs the `kcb × ncb` block of `Bᵀ` (resp. `B`) starting at
/// `(pc, jc)` into `nr`-wide column slabs, zero-padded past `ncb`.
#[inline]
fn pack_b<T: Scalar>(
    pb: &mut Vec<T>,
    nr: usize,
    b: &[T],
    ldb: usize,
    layout: BLayout,
    jc: usize,
    pc: usize,
    ncb: usize,
    kcb: usize,
) {
    let slabs = ncb.div_ceil(nr);
    if pb.len() < slabs * kcb * nr {
        pb.resize(slabs * kcb * nr, T::zero());
    }
    for (jr, slab) in pb.chunks_exact_mut(kcb * nr).take(slabs).enumerate() {
        let col0 = jc + jr * nr;
        let cols = nr.min(ncb - jr * nr);
        match layout {
            BLayout::Nt => {
                // B is n × k: element (column j of the product, depth kk)
                // lives at b[j + kk*ldb].
                for (kk, dst) in slab.chunks_exact_mut(nr).enumerate() {
                    let row = &b[col0 + (pc + kk) * ldb..];
                    if cols == nr {
                        dst.copy_from_slice(&row[..nr]);
                    } else {
                        dst[..cols].copy_from_slice(&row[..cols]);
                        dst[cols..].fill(T::zero());
                    }
                }
            }
            BLayout::Nn => {
                // B is k × n: element (j, kk) lives at b[kk + j*ldb].
                for jj in 0..nr {
                    let src = (jj < cols).then(|| &b[pc + (col0 + jj) * ldb..][..kcb]);
                    for (kk, dst) in slab.chunks_exact_mut(nr).enumerate() {
                        dst[jj] = src.map_or(T::zero(), |src| src[kk]);
                    }
                }
            }
        }
    }
}

/// The safe microkernel: the fixed-size accumulator block is a local, so
/// it stays in registers for the whole depth.
struct Generic<const MR: usize, const NR: usize>;

impl<T: Scalar, const MR: usize, const NR: usize> MicroKernel<T> for Generic<MR, NR> {
    const MR: usize = MR;
    const NR: usize = NR;

    #[inline]
    fn run(kcb: usize, pa: &[T], pb: &[T], out: &mut [T]) {
        let mut acc = [[T::zero(); MR]; NR];
        for (av, bv) in pa[..kcb * MR].chunks_exact(MR).zip(pb[..kcb * NR].chunks_exact(NR)) {
            let av: &[T; MR] = av.try_into().expect("chunk of MR");
            for (col, &s) in acc.iter_mut().zip(bv) {
                for ii in 0..MR {
                    col[ii] = av[ii].mul_add(s, col[ii]);
                }
            }
        }
        for (dst, col) in out[..MR * NR].chunks_exact_mut(MR).zip(&acc) {
            dst.copy_from_slice(col);
        }
    }
}

/// The 16 × 8 `f64` microkernel of AVX-512 targets: sixteen `zmm`
/// accumulators, two loads of `A` and eight broadcasts of `B` per depth
/// step — the same `mul_add` chain per entry as [`Generic`].
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
struct Avx512;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
impl MicroKernel<f64> for Avx512 {
    const MR: usize = 16;
    const NR: usize = 8;

    #[inline]
    fn run(kcb: usize, pa: &[f64], pb: &[f64], out: &mut [f64]) {
        use std::arch::x86_64::{
            _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
        };
        // The bounds of every access below, checked once per slab.
        let (pa, pb, out) = (&pa[..kcb * 16], &pb[..kcb * 8], &mut out[..16 * 8]);
        // SAFETY: this impl only exists when the crate is compiled with
        // `avx512f` enabled, so the intrinsics' instructions are available
        // wherever this code may run. Depth step `kk < kcb` reads
        // `pa[16 kk..16 kk + 16]` and `pb[8 kk..8 kk + 8]`, column `j < 8`
        // writes `out[16 j..16 j + 16]`, all inside the slices re-sliced
        // above; the unaligned load/store forms need no alignment.
        unsafe {
            let mut acc = [[_mm512_setzero_pd(); 2]; 8];
            for kk in 0..kcb {
                let ap = pa.as_ptr().add(16 * kk);
                let bp = pb.as_ptr().add(8 * kk);
                let (a0, a1) = (_mm512_loadu_pd(ap), _mm512_loadu_pd(ap.add(8)));
                for (j, col) in acc.iter_mut().enumerate() {
                    let s = _mm512_set1_pd(*bp.add(j));
                    col[0] = _mm512_fmadd_pd(a0, s, col[0]);
                    col[1] = _mm512_fmadd_pd(a1, s, col[1]);
                }
            }
            for (j, col) in acc.iter().enumerate() {
                let op = out.as_mut_ptr().add(16 * j);
                _mm512_storeu_pd(op, col[0]);
                _mm512_storeu_pd(op.add(8), col[1]);
            }
        }
    }
}

/// Shared tiled driver of the packed kernels. `C(m×n) += α · A(m×k) · op(B)`
/// with `op` selected by `layout`, on register microkernel `K`.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_driver<T: Scalar, K: MicroKernel<T>>(
    bs: BlockSizes,
    layout: BLayout,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    let (mr, nr) = (K::MR, K::NR);
    let bs = bs.sanitized();
    let (mc, nc) = (bs.mc.next_multiple_of(mr), bs.nc.next_multiple_of(nr));
    let mut pa: Vec<T> = Vec::new();
    let mut pb: Vec<T> = Vec::new();
    let mut acc = [T::zero(); MAX_TILE];
    let acc = &mut acc[..mr * nr];
    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = bs.kc.min(k - pc);
            pack_b(&mut pb, nr, b, ldb, layout, jc, pc, ncb, kcb);
            let mut ic = 0;
            while ic < m {
                let mcb = mc.min(m - ic);
                pack_a(&mut pa, mr, a, lda, ic, pc, mcb, kcb);
                // Macro kernel over the packed tile.
                for (jr, pb_slab) in pb.chunks_exact(kcb * nr).take(ncb.div_ceil(nr)).enumerate() {
                    let nr_cur = nr.min(ncb - jr * nr);
                    for (ir, pa_slab) in pa.chunks_exact(kcb * mr).take(mcb.div_ceil(mr)).enumerate() {
                        let mr_cur = mr.min(mcb - ir * mr);
                        K::run(kcb, pa_slab, pb_slab, acc);
                        // Write back the valid corner only: padding rows of
                        // C and columns past n are never touched. Whole
                        // columns of the tile go at constant length.
                        let c0 = ic + ir * mr + (jc + jr * nr) * ldc;
                        let mut add = |rows: usize| {
                            for (jj, accj) in acc.chunks_exact(mr).take(nr_cur).enumerate() {
                                for (cv, &av) in c[c0 + jj * ldc..][..rows].iter_mut().zip(accj) {
                                    *cv += alpha * av;
                                }
                            }
                        };
                        if mr_cur == mr {
                            add(mr)
                        } else {
                            add(mr_cur)
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Packed `C ← C + α · A · Bᵀ` with explicit blocking constants (the probe
/// times candidate constants through this entry point).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_packed_with<T: Scalar>(
    bs: BlockSizes,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(lda >= m && ldc >= m, "leading dimensions too small");
    assert!(ldb >= n, "B leading dimension too small");
    assert!(a.len() >= lda * (k - 1) + m, "A buffer too small");
    assert!(b.len() >= ldb * (k - 1) + n, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    (T::TILE.driver)(bs, BLayout::Nt, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Packed `C ← C + α · A · Bᵀ` under the per-scalar blocking constants.
/// Same contract as [`crate::gemm::gemm_nt_acc`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_packed<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_nt_acc_packed_with(blocking_for::<T>(), m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Packed `C ← C + α · A · B` under the per-scalar blocking constants.
/// Same contract as [`crate::gemm::gemm_nn_acc`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_acc_packed<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(lda >= m && ldc >= m, "leading dimensions too small");
    assert!(ldb >= k, "B leading dimension too small");
    assert!(a.len() >= lda * (k - 1) + m, "A buffer too small");
    assert!(b.len() >= ldb * (n - 1) + k, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    (T::TILE.driver)(
        blocking_for::<T>(),
        BLayout::Nn,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
    );
}

/// Packed lower-triangle-only `C ← C + α · A · Bᵀ` for square updates on a
/// diagonal block: tiles the columns, runs the small triangular corner of
/// each tile with the scalar loop (so the strictly upper triangle is never
/// touched) and the rectangle below it through the packed kernel. Same
/// contract as [`crate::gemm::gemm_nt_acc_lower`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_lower_packed<T: Scalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    assert!(lda >= n && ldc >= n, "leading dimensions too small");
    assert!(ldb >= n, "B leading dimension too small");
    // Tile width: wide enough that the rectangles below the diagonal
    // dominate, small enough that the scalar triangles stay cheap.
    const TB: usize = 32;
    let mut j0 = 0;
    while j0 < n {
        let w = TB.min(n - j0);
        // Triangular corner rows/cols j0..j0+w: scalar lower loop.
        for j in j0..j0 + w {
            let rows = j0 + w - j;
            let cj = &mut c[j * ldc + j..j * ldc + j + rows];
            for kk in 0..k {
                let s = alpha * b[j + kk * ldb];
                let ak = &a[kk * lda + j..kk * lda + j + rows];
                for (cv, &av) in cj.iter_mut().zip(ak) {
                    *cv += av * s;
                }
            }
        }
        // Rectangle rows j0+w..n of columns j0..j0+w: packed kernel.
        let mrest = n - j0 - w;
        if mrest > 0 {
            gemm_nt_acc_packed(
                mrest,
                w,
                k,
                alpha,
                &a[j0 + w..],
                lda,
                &b[j0..],
                ldb,
                &mut c[(j0 + w) + j0 * ldc..],
                ldc,
            );
        }
        j0 += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_leaves_nothing_zero() {
        let bs = BlockSizes { mc: 0, kc: 0, nc: 5 }.sanitized();
        assert_eq!(bs, BlockSizes { mc: 1, kc: 1, nc: 5 });
    }

    // The mode tests mutate one process-global; serialize them.
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn kernel_mode_scoped_restores() {
        let _serial = MODE_LOCK.lock().unwrap();
        let before = kernel_mode();
        {
            let _g = KernelMode::Packed.scoped();
            assert_eq!(kernel_mode(), KernelMode::Packed);
            {
                let _g2 = KernelMode::Reference.scoped();
                assert_eq!(kernel_mode(), KernelMode::Reference);
            }
            assert_eq!(kernel_mode(), KernelMode::Packed);
        }
        assert_eq!(kernel_mode(), before);
    }

    #[test]
    fn defaults_are_per_width() {
        let d8 = BlockSizes::default_for_elem_size(8);
        let d16 = BlockSizes::default_for_elem_size(16);
        assert!(d16.mc * 16 <= d8.mc * 16, "wider scalars get smaller tiles");
        assert!(d16.kc < d8.kc);
    }

    #[test]
    fn packed_matches_reference_odd_shapes() {
        // Shapes straddling every register/tile boundary, tiny blocking so
        // all loops iterate more than once.
        let bs = BlockSizes {
            mc: 16,
            kc: 8,
            nc: 8,
        };
        for (m, n, k) in [(1, 1, 1), (7, 3, 5), (8, 4, 8), (9, 5, 9), (23, 11, 17), (40, 13, 26)] {
            let a: Vec<f64> = (0..m * k).map(|i| (i % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..n * k).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
            let mut c1: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.1).collect();
            let mut c2 = c1.clone();
            gemm_nt_acc_packed_with(bs, m, n, k, -1.5, &a, m, &b, n, &mut c1, m);
            crate::gemm::gemm_nt_acc_ref(m, n, k, -1.5, &a, m, &b, n, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "({m},{n},{k}): {x} vs {y}");
            }
        }
    }

    /// Odd shapes around every tile this crate can be built with: `m`
    /// below and off the tile heights (8, 16), `n` below and off the tile
    /// widths (4, 6, 8), depth 1 and depths that split into several `kc`
    /// slices, a gapped `ldc`.
    fn odd_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![(1, 1, 1), (547, 48, 50)];
        for m in [3, 7, 8, 15, 17, 33] {
            for n in [1, 3, 5, 7, 9, 13] {
                shapes.extend([(m, n, 1), (m, n, 11), (m, n, 29)]);
            }
        }
        shapes
    }

    fn product<T: Scalar>(tile: Tile<T>, (m, n, k): (usize, usize, usize), val: impl Fn(usize) -> T) -> Vec<T> {
        let bs = BlockSizes { mc: 24, kc: 10, nc: 12 };
        let (lda, ldb, ldc) = (m + 1, n + 2, m + 3);
        let a: Vec<T> = (0..lda * k).map(|i| val(i * 7 + 1)).collect();
        let b: Vec<T> = (0..ldb * k).map(|i| val(i * 3 + 2)).collect();
        let mut c: Vec<T> = (0..ldc * n).map(|i| val(i + 11)).collect();
        (tile.driver)(bs, BLayout::Nt, m, n, k, val(5), &a, lda, &b, ldb, &mut c, ldc);
        c
    }

    /// The tile this build selects for `f64` against the 8 × 4 generic
    /// instantiation (the kernel before tiles were per scalar): the same
    /// bits, padding rows of `C` included.
    #[test]
    fn f64_tile_is_bitwise_the_8x4_generic_kernel() {
        let old = Tile::of::<Generic<8, 4>>("generic");
        let val = |i: usize| ((i * 37 % 101) as f64) * 0.03125 - 1.5;
        for shape in odd_shapes() {
            let (got, want) = (product(f64::TILE, shape, val), product(old, shape, val));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{} at {shape:?}", f64::TILE.isa);
        }
    }

    /// Complex scalars run the generic tile; against the axpy reference
    /// within the tolerance of the other packed tests.
    #[test]
    fn complex_through_the_generic_tile_matches_reference() {
        use crate::complex::Complex64;
        let val = |i: usize| {
            Complex64::new(((i * 37 % 101) as f64) * 0.03125 - 1.5, ((i * 13 % 29) as f64) * 0.125 - 2.0)
        };
        for (m, n, k) in odd_shapes() {
            let (lda, ldb, ldc) = (m + 1, n + 2, m + 3);
            let a: Vec<Complex64> = (0..lda * k).map(|i| val(i * 7 + 1)).collect();
            let b: Vec<Complex64> = (0..ldb * k).map(|i| val(i * 3 + 2)).collect();
            let mut want: Vec<Complex64> = (0..ldc * n).map(|i| val(i + 11)).collect();
            crate::gemm::gemm_nt_acc_ref(m, n, k, val(5), &a, lda, &b, ldb, &mut want, ldc);
            let got = product(Complex64::TILE, (m, n, k), val);
            for (x, y) in got.iter().zip(&want) {
                assert!((*x - *y).magnitude() <= 1e-10 * y.magnitude().max(1.0), "({m},{n},{k}): {x} vs {y}");
            }
        }
    }
}
