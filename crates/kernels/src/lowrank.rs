//! Block low-rank (BLR) compression and low-rank-aware update kernels.
//!
//! Modern PaStiX's headline lever beyond static scheduling is compressing
//! large off-diagonal blocks of the factor as `A ≈ U·Vᵀ` with `rank ≪
//! min(m, n)`: a GEMM update against a compressed operand costs
//! `O((m+n)·r·k)` instead of `O(m·n·k)`, and the factor's resident bytes
//! shrink by the same ratio. This module is the numeric core of that
//! feature:
//!
//! - [`compress_block`] — a rank-revealing compressor (full-pivot ACA,
//!   i.e. greedy rank-1 peeling with the largest remaining entry as
//!   pivot) with absolute/relative tolerance and a fallback to dense when
//!   the rank reaches `min(m, n)/2`;
//! - [`lr_gemm_nt_acc`] — the contribution kernel `C += α·A·Bᵀ` with each
//!   operand dense or compressed ([`LrOp`]), used by the comp1d/BMOD
//!   update paths of every solver backend;
//! - [`lr_trsm_ldlt`] — the low-rank form of the panel TRSM of the
//!   `L·D·Lᵀ` supernodal step (solves on the `w×r` coefficient matrix
//!   instead of the full `m×w` block);
//! - [`lr_gemm_nn_acc`] / [`lr_gemm_tn_acc`] — the forward/backward solve
//!   products against a compressed block;
//! - [`LowRankBlock::decompress`] — the decompress path back to dense.
//!
//! All kernels are pure Rust over the [`Scalar`] trait and allocate their
//! own `O((m+n)·r)` scratch (the solve products take the caller's);
//! operands follow the column-major convention of the rest of the crate,
//! except the right-hand sides of the solve products, which are
//! interleaved like those of [`gemm_nn_acc_rows`].

use crate::gemm::{gemm_nn_acc, gemm_nn_acc_rows, gemm_nt_acc, gemm_tn_acc, gemm_tn_acc_rows};
use crate::scalar::Scalar;
use crate::trsm::{scale_rows_by_diag_inv, solve_unit_lower};

/// A block stored in compressed form: `A ≈ U·Vᵀ` with `U` of shape
/// `m × rank` and `V` of shape `n × rank`, both column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankBlock<T> {
    /// Rows of the represented block.
    pub m: usize,
    /// Columns of the represented block.
    pub n: usize,
    /// Numerical rank of the representation (`u`/`v` column count).
    pub rank: usize,
    /// Left factor, `m × rank` column-major.
    pub u: Vec<T>,
    /// Right factor, `n × rank` column-major.
    pub v: Vec<T>,
}

/// A borrowed view of a low-rank factor pair — the operand form the
/// kernels take, so callers can mix a block's `U` with a substituted `V`
/// (the panel TRSM produces two blocks sharing one `U`).
#[derive(Debug, Clone, Copy)]
pub struct LrRef<'a, T> {
    /// Rows of the represented block.
    pub m: usize,
    /// Columns of the represented block.
    pub n: usize,
    /// Numerical rank.
    pub rank: usize,
    /// Left factor, `m × rank` column-major.
    pub u: &'a [T],
    /// Right factor, `n × rank` column-major.
    pub v: &'a [T],
}

/// One operand of a low-rank-aware GEMM: dense column-major storage or a
/// compressed `U·Vᵀ` pair.
#[derive(Debug, Clone, Copy)]
pub enum LrOp<'a, T> {
    /// Dense column-major storage with leading dimension `ld`.
    Dense {
        /// Backing slice; entry `(i, j)` lives at `a[i + j·ld]`.
        a: &'a [T],
        /// Leading dimension (≥ the operand's row count).
        ld: usize,
    },
    /// A compressed operand.
    Lr(LrRef<'a, T>),
}

impl<T: Scalar> LowRankBlock<T> {
    /// A rank-0 (exactly zero) block of the given shape.
    pub fn zero(m: usize, n: usize) -> Self {
        Self { m, n, rank: 0, u: Vec::new(), v: Vec::new() }
    }

    /// Borrowed operand view of this block.
    #[inline]
    pub fn as_ref(&self) -> LrRef<'_, T> {
        LrRef { m: self.m, n: self.n, rank: self.rank, u: &self.u, v: &self.v }
    }

    /// Resident bytes of the compressed representation.
    pub fn bytes(&self) -> usize {
        (self.u.len() + self.v.len()) * std::mem::size_of::<T>()
    }

    /// Bytes the same block would occupy dense.
    pub fn dense_bytes(&self) -> usize {
        self.m * self.n * std::mem::size_of::<T>()
    }

    /// `true` when the representation is strictly smaller than dense,
    /// i.e. `rank·(m+n) < m·n`.
    pub fn is_profitable(&self) -> bool {
        self.rank * (self.m + self.n) < self.m * self.n
    }

    /// Accumulates the dense form into `c` (column-major, leading
    /// dimension `ldc`): `C += U·Vᵀ`.
    pub fn decompress_into(&self, c: &mut [T], ldc: usize) {
        if self.rank > 0 {
            gemm_nt_acc(self.m, self.n, self.rank, T::one(), &self.u, self.m, &self.v, self.n, c, ldc);
        }
    }

    /// The dense `m × n` column-major form of the block.
    pub fn decompress(&self) -> Vec<T> {
        let mut c = vec![T::zero(); self.m * self.n];
        self.decompress_into(&mut c, self.m.max(1));
        c
    }

    /// Re-runs the rank-revealing compressor on the decompressed block —
    /// the recompression step after accumulating updates has inflated the
    /// stored rank. Unlike [`compress_block`] this never falls back to
    /// dense: the rank is capped at `min(m, n)` and the best
    /// representation found is kept.
    pub fn recompress(&mut self, abs_tol: f64, rel_tol: f64) {
        let mut dense = self.decompress();
        if let Some(r) = aca(self.m, self.n, &mut dense, abs_tol, rel_tol, self.m.min(self.n)) {
            if r.rank <= self.rank {
                *self = r;
            }
        }
    }
}

/// Frobenius norm of a contiguous buffer, accumulated in `f64`.
fn frob_norm<T: Scalar>(a: &[T]) -> f64 {
    a.iter().map(|x| x.magnitude() * x.magnitude()).sum::<f64>().sqrt()
}

/// Full-pivot ACA on the scratch residual `r` (column-major `m × n`,
/// mutated in place): greedily peels rank-1 terms `u·vᵀ` with the largest
/// remaining entry as pivot until `‖R‖_F ≤ max(abs_tol, rel_tol·‖A‖_F)`
/// or `cap` terms have been taken. Returns `None` when the tolerance was
/// not reached within `cap` terms or a non-finite pivot appeared.
fn aca<T: Scalar>(
    m: usize,
    n: usize,
    r: &mut [T],
    abs_tol: f64,
    rel_tol: f64,
    cap: usize,
) -> Option<LowRankBlock<T>> {
    let norm_a = frob_norm(r);
    if !norm_a.is_finite() {
        return None;
    }
    let thresh = abs_tol.max(rel_tol * norm_a);
    let mut u: Vec<T> = Vec::new();
    let mut v: Vec<T> = Vec::new();
    let mut rank = 0usize;
    while frob_norm(r) > thresh {
        if rank >= cap {
            return None;
        }
        // Full pivoting: the largest remaining entry.
        let (mut pi, mut pj, mut pmag) = (0usize, 0usize, 0.0f64);
        for j in 0..n {
            for i in 0..m {
                let mag = r[i + j * m].magnitude();
                if mag > pmag {
                    (pi, pj, pmag) = (i, j, mag);
                }
            }
        }
        let piv = r[pi + pj * m];
        if !piv.is_finite() {
            return None;
        }
        if pmag == 0.0 {
            // Residual norm above threshold but no nonzero entry left can
            // only happen through rounding in the norm; stop cleanly.
            break;
        }
        let pr = piv.recip();
        let u0 = u.len();
        let v0 = v.len();
        u.extend((0..m).map(|i| r[i + pj * m]));
        v.extend((0..n).map(|j| r[pi + j * m] * pr));
        for j in 0..n {
            let vj = v[v0 + j];
            if vj == T::zero() {
                continue;
            }
            for i in 0..m {
                r[i + j * m] -= u[u0 + i] * vj;
            }
        }
        rank += 1;
    }
    Some(LowRankBlock { m, n, rank, u, v })
}

/// Rank-revealing compression of the dense `m × n` block at `a` (column
/// major, leading dimension `lda`). Peels rank-1 terms until the residual
/// satisfies `‖A − U·Vᵀ‖_F ≤ max(abs_tol, rel_tol·‖A‖_F)`; returns `None`
/// — the caller keeps the block dense — when the representation would not
/// pay for itself (`rank·(m+n) ≥ m·n`) or the block contains non-finite
/// entries. Peeling stops as soon as the rank can no longer be
/// profitable, so an incompressible block costs `O(m·n·mn/(m+n))` at
/// worst, not a full `O(m·n·min(m,n))` decomposition.
pub fn compress_block<T: Scalar>(
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    abs_tol: f64,
    rel_tol: f64,
) -> Option<LowRankBlock<T>> {
    if m == 0 || n == 0 {
        return Some(LowRankBlock::zero(m, n));
    }
    assert!(lda >= m && a.len() >= (n - 1) * lda + m);
    let mut r = vec![T::zero(); m * n];
    for j in 0..n {
        r[j * m..j * m + m].copy_from_slice(&a[j * lda..j * lda + m]);
    }
    let cap = (m * n) / (m + n);
    let lr = aca(m, n, &mut r, abs_tol, rel_tol, cap)?;
    if !lr.is_profitable() {
        return None;
    }
    Some(lr)
}

/// `C(m×n) += α · A·Bᵀ` with `A: m×k` and `B: n×k` each dense or
/// compressed, into dense column-major `C`. This is the contribution
/// kernel of the factorization update paths: the four dispatch arms pick
/// the cheapest association for the representations at hand, and the
/// dense×dense arm is exactly [`gemm_nt_acc`] (bitwise-identical to the
/// uncompressed path).
pub fn lr_gemm_nt_acc<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: LrOp<'_, T>,
    b: LrOp<'_, T>,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    match (a, b) {
        (LrOp::Dense { a, ld: lda }, LrOp::Dense { a: b, ld: ldb }) => {
            gemm_nt_acc(m, n, k, alpha, a, lda, b, ldb, c, ldc);
        }
        (LrOp::Lr(a), LrOp::Dense { a: b, ld: ldb }) => {
            debug_assert_eq!((a.m, a.n), (m, k));
            if a.rank == 0 {
                return;
            }
            // C += α·U_a·(B·V_a)ᵀ — k·n·r + m·n·r flops instead of m·n·k.
            let mut t = vec![T::zero(); n * a.rank];
            gemm_nn_acc(n, a.rank, k, T::one(), b, ldb, a.v, k, &mut t, n);
            gemm_nt_acc(m, n, a.rank, alpha, a.u, m, &t, n, c, ldc);
        }
        (LrOp::Dense { a, ld: lda }, LrOp::Lr(b)) => {
            debug_assert_eq!((b.m, b.n), (n, k));
            if b.rank == 0 {
                return;
            }
            // C += α·(A·V_b)·U_bᵀ.
            let mut t = vec![T::zero(); m * b.rank];
            gemm_nn_acc(m, b.rank, k, T::one(), a, lda, b.v, k, &mut t, m);
            gemm_nt_acc(m, n, b.rank, alpha, &t, m, b.u, n, c, ldc);
        }
        (LrOp::Lr(a), LrOp::Lr(b)) => {
            debug_assert_eq!((a.m, a.n), (m, k));
            debug_assert_eq!((b.m, b.n), (n, k));
            if a.rank == 0 || b.rank == 0 {
                return;
            }
            // C += α·U_a·(V_aᵀ·V_b)·U_bᵀ, associated through the small
            // r_a × r_b core.
            let mut mid = vec![T::zero(); a.rank * b.rank];
            gemm_tn_acc(a.rank, b.rank, k, T::one(), a.v, k, b.v, k, &mut mid, a.rank);
            let mut t = vec![T::zero(); m * b.rank];
            gemm_nn_acc(m, b.rank, a.rank, T::one(), a.u, m, &mid, a.rank, &mut t, m);
            gemm_nt_acc(m, n, b.rank, alpha, &t, m, b.u, n, c, ldc);
        }
    }
}

/// Low-rank panel TRSM of the supernodal `L·D·Lᵀ` step.
///
/// The dense step maps the assembled block `A` to `L_blok = A·L⁻ᵀ·D⁻¹`
/// and its contribution form `F = L_blok·D`. For `A = U·Vᵀ` both results
/// share `U`:
///
/// ```text
/// L_blok = U·(D⁻¹·L⁻¹·V)ᵀ        F = U·(L⁻¹·V)ᵀ
/// ```
///
/// so the triangular solve runs on the `w × rank` coefficient `V` instead
/// of the full `m × w` block. On return `lr.v` holds `D⁻¹·L⁻¹·V` (the
/// factor block) and the returned vector holds `L⁻¹·V` (the `V` of `F`).
///
/// `diag` is the factored `w × w` diagonal block (unit lower `L` below
/// the diagonal, leading dimension `ldd`), `d` its diagonal entries.
pub fn lr_trsm_ldlt<T: Scalar>(
    w: usize,
    diag: &[T],
    ldd: usize,
    d: &[T],
    lr: &mut LowRankBlock<T>,
) -> Vec<T> {
    assert_eq!(lr.n, w, "block columns must match the panel width");
    solve_unit_lower(w, diag, ldd, &mut lr.v, lr.rank, w);
    let vf = lr.v.clone();
    scale_rows_by_diag_inv(w, d, &mut lr.v, lr.rank, w);
    vf
}

/// `Y(m×nrhs) += α · (U·Vᵀ)·X` with `X: n×nrhs` — the forward-solve
/// product against a compressed block, associated through the rank:
/// `Y += α·U·(Vᵀ·X)`. `X` and `Y` hold their right-hand sides interleaved
/// (row by row, `nrhs` contiguous scalars per row), like the dense solve
/// kernels [`gemm_nn_acc_rows`] / [`gemm_tn_acc_rows`] it is built from;
/// `t` is the caller's reusable scratch for the `rank × nrhs` coefficient.
pub fn lr_gemm_nn_acc<T: Scalar>(alpha: T, a: LrRef<'_, T>, x: &[T], nrhs: usize, y: &mut [T], t: &mut Vec<T>) {
    if a.rank == 0 || a.m == 0 || nrhs == 0 {
        return;
    }
    t.clear();
    t.resize(a.rank * nrhs, T::zero());
    gemm_tn_acc_rows(a.rank, nrhs, a.n, T::one(), a.v, a.n, x, t);
    gemm_nn_acc_rows(a.m, nrhs, a.rank, alpha, a.u, a.m, t, y);
}

/// `C(n×nrhs) += α · (U·Vᵀ)ᵀ·B` with `B: m×nrhs` — the backward-solve
/// product against a compressed block: `C += α·V·(Uᵀ·B)`. Same layout and
/// scratch convention as [`lr_gemm_nn_acc`].
pub fn lr_gemm_tn_acc<T: Scalar>(alpha: T, a: LrRef<'_, T>, b: &[T], nrhs: usize, c: &mut [T], t: &mut Vec<T>) {
    if a.rank == 0 || a.n == 0 || nrhs == 0 {
        return;
    }
    t.clear();
    t.resize(a.rank * nrhs, T::zero());
    gemm_tn_acc_rows(a.rank, nrhs, a.m, T::one(), a.u, a.m, b, t);
    gemm_nn_acc_rows(a.n, nrhs, a.rank, alpha, a.v, a.n, t, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::deterministic_spd;
    use crate::factor::ldlt_factor_inplace;

    /// Deterministic dense block of exact rank `r` (plus optional noise).
    fn rank_r_block(m: usize, n: usize, r: usize, noise: f64, seed: u64) -> Vec<T64> {
        let mut a = vec![0.0f64; m * n];
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..r {
            let u: Vec<f64> = (0..m).map(|_| next()).collect();
            let v: Vec<f64> = (0..n).map(|_| next()).collect();
            for j in 0..n {
                for i in 0..m {
                    a[i + j * m] += u[i] * v[j];
                }
            }
        }
        for x in a.iter_mut() {
            *x += noise * next();
        }
        a
    }
    type T64 = f64;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn compress_recovers_exact_low_rank() {
        let (m, n, r) = (24, 16, 3);
        let a = rank_r_block(m, n, r, 0.0, 7);
        let lr = compress_block(m, n, &a, m, 1e-12, 1e-12).expect("rank-3 block must compress");
        assert!(lr.rank <= r + 1, "rank {} for an exact rank-{r} block", lr.rank);
        let back = lr.decompress();
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(max_abs_diff(&a, &back) <= 1e-10 * norm.max(1.0));
    }

    #[test]
    fn compress_respects_relative_tolerance() {
        let (m, n) = (20, 20);
        let a = rank_r_block(m, n, 2, 1e-6, 3);
        let tol = 1e-4;
        let lr = compress_block(m, n, &a, m, 0.0, tol).expect("noisy rank-2 compresses at 1e-4");
        let back = lr.decompress();
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let resid: f64 =
            a.iter().zip(&back).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        assert!(resid <= tol * norm * 1.0001, "residual {resid} > {} ", tol * norm);
    }

    #[test]
    fn full_rank_block_falls_back_to_dense() {
        // Identity-dominated block: singular values all ~1, incompressible.
        let n = 12;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0 + i as f64 * 0.01;
        }
        assert!(compress_block(n, n, &a, n, 0.0, 1e-8).is_none());
    }

    #[test]
    fn zero_block_compresses_to_rank_zero() {
        let a = vec![0.0f64; 8 * 5];
        let lr = compress_block(8, 5, &a, 8, 0.0, 1e-10).unwrap();
        assert_eq!(lr.rank, 0);
        assert!(lr.decompress().iter().all(|&x| x == 0.0));
        assert_eq!(lr.bytes(), 0);
        assert!(lr.is_profitable());
    }

    #[test]
    fn lr_gemm_all_arms_match_dense() {
        let (m, n, k) = (14, 10, 12);
        let a = rank_r_block(m, k, 2, 0.0, 11);
        let b = rank_r_block(n, k, 3, 0.0, 12);
        let la = compress_block(m, k, &a, m, 0.0, 1e-13).unwrap();
        let lb = compress_block(n, k, &b, n, 0.0, 1e-13).unwrap();
        let mut want = vec![0.5f64; m * n];
        gemm_nt_acc(m, n, k, -1.0, &a, m, &b, n, &mut want, m);
        let arms: [(LrOp<'_, f64>, LrOp<'_, f64>); 4] = [
            (LrOp::Dense { a: &a, ld: m }, LrOp::Dense { a: &b, ld: n }),
            (LrOp::Lr(la.as_ref()), LrOp::Dense { a: &b, ld: n }),
            (LrOp::Dense { a: &a, ld: m }, LrOp::Lr(lb.as_ref())),
            (LrOp::Lr(la.as_ref()), LrOp::Lr(lb.as_ref())),
        ];
        for (i, (oa, ob)) in arms.into_iter().enumerate() {
            let mut c = vec![0.5f64; m * n];
            lr_gemm_nt_acc(m, n, k, -1.0, oa, ob, &mut c, m);
            assert!(
                max_abs_diff(&want, &c) <= 1e-9,
                "arm {i}: max dev {}",
                max_abs_diff(&want, &c)
            );
        }
    }

    /// Dense form of a borrowed factor pair.
    fn dense_of(r: &LrRef<'_, f64>) -> Vec<f64> {
        let mut c = vec![0.0f64; r.m * r.n];
        if r.rank > 0 {
            gemm_nt_acc(r.m, r.n, r.rank, 1.0, r.u, r.m, r.v, r.n, &mut c, r.m);
        }
        c
    }

    #[test]
    fn lr_trsm_matches_dense_trsm() {
        use crate::trsm::{scale_cols_by_diag_into, trsm_ldlt_panel};
        let w = 8;
        let m = 15;
        // SPD diagonal block, LDLᵀ-factored.
        let spd = deterministic_spd(w, 5);
        let mut diag = spd.as_slice().to_vec();
        ldlt_factor_inplace(w, &mut diag, w).unwrap();
        let d: Vec<f64> = (0..w).map(|t| diag[t + t * w]).collect();
        let a = rank_r_block(m, w, 2, 0.0, 9);
        // Dense reference: L_blok = A·L⁻ᵀ·D⁻¹ and F = L_blok·D.
        let mut dense_l = a.clone();
        trsm_ldlt_panel(m, w, &diag, w, &mut dense_l, m);
        let mut dense_f = vec![0.0f64; m * w];
        scale_cols_by_diag_into(m, w, &dense_l, m, &d, &mut dense_f, m);
        // Low-rank path.
        let mut lr = compress_block(m, w, &a, m, 0.0, 1e-13).unwrap();
        let vf = lr_trsm_ldlt(w, &diag, w, &d, &mut lr);
        let lr_l = lr.decompress();
        let lr_f = dense_of(&LrRef { m, n: w, rank: lr.rank, u: &lr.u, v: &vf });
        assert!(max_abs_diff(&dense_l, &lr_l) <= 1e-9);
        assert!(max_abs_diff(&dense_f, &lr_f) <= 1e-9);
    }

    #[test]
    fn solve_products_match_dense() {
        let (m, n, nrhs) = (13, 9, 3);
        let a = rank_r_block(m, n, 3, 0.0, 5);
        let la = compress_block(m, n, &a, m, 0.0, 1e-13).unwrap();
        let x = rank_r_block(n, nrhs, nrhs.min(n), 0.0, 6);
        let bm = rank_r_block(m, nrhs, nrhs.min(m), 0.0, 8);

        // Column-major `h × nrhs` panel → interleaved rows, and back.
        let rows = |p: &[f64], h: usize| -> Vec<f64> { (0..h * nrhs).map(|i| p[i / nrhs + (i % nrhs) * h]).collect() };
        let mut t = Vec::new();

        let mut want = vec![1.0f64; m * nrhs];
        gemm_nn_acc(m, nrhs, n, -1.0, &a, m, &x, n, &mut want, m);
        let mut got = vec![1.0f64; m * nrhs];
        lr_gemm_nn_acc(-1.0, la.as_ref(), &rows(&x, n), nrhs, &mut got, &mut t);
        assert!(max_abs_diff(&rows(&want, m), &got) <= 1e-9);

        let mut want_t = vec![1.0f64; n * nrhs];
        gemm_tn_acc(n, nrhs, m, 1.0, &a, m, &bm, m, &mut want_t, n);
        let mut got_t = vec![1.0f64; n * nrhs];
        lr_gemm_tn_acc(1.0, la.as_ref(), &rows(&bm, m), nrhs, &mut got_t, &mut t);
        assert!(max_abs_diff(&rows(&want_t, n), &got_t) <= 1e-9);
    }

    #[test]
    fn recompress_shrinks_inflated_rank() {
        let (m, n) = (16, 12);
        let a = rank_r_block(m, n, 2, 0.0, 21);
        // Build an artificially rank-6 representation of the rank-2 block.
        let mut lr = compress_block(m, n, &a, m, 0.0, 1e-13).unwrap();
        let extra = rank_r_block(m, n, 4, 0.0, 22);
        let le = compress_block(m, n, &extra, m, 0.0, 1e-13).unwrap();
        lr.rank += le.rank;
        lr.u.extend_from_slice(&le.u);
        lr.v.extend_from_slice(&le.v);
        let mut minus = lr.clone();
        minus.u = le.u.iter().map(|x| -x).collect();
        minus.v = le.v.clone();
        minus.rank = le.rank;
        lr.rank += minus.rank;
        lr.u.extend_from_slice(&minus.u);
        lr.v.extend_from_slice(&minus.v);
        let before = lr.rank;
        lr.recompress(0.0, 1e-10);
        assert!(lr.rank < before, "recompress kept rank {before}");
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(max_abs_diff(&lr.decompress(), &a) <= 1e-8 * norm.max(1.0));
    }
}
