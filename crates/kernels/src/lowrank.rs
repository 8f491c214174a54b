//! Block low-rank (BLR) compression and the solve products against a
//! compressed block.
//!
//! Modern PaStiX's headline lever beyond static scheduling is compressing
//! large off-diagonal blocks of the factor as `A ≈ U·Vᵀ` with `rank ≪
//! min(m, n)`: the factor's resident bytes shrink from `m·n` to
//! `rank·(m+n)` scalars. This module is the numeric core of that feature:
//!
//! - [`compress_block`] — a rank-revealing compressor (full-pivot ACA,
//!   i.e. greedy rank-1 peeling with the largest remaining entry as
//!   pivot) with absolute/relative tolerance and a fallback to dense when
//!   the representation would not pay for itself;
//! - [`lr_gemm_nn_acc`] / [`lr_gemm_tn_acc`] — the forward/backward solve
//!   products against a compressed block;
//! - [`LowRankBlock::decompress`] — the decompress path back to dense.
//!
//! All kernels are pure Rust over the [`Scalar`] trait; operands follow
//! the column-major convention of the rest of the crate, except the
//! right-hand sides of the solve products, which are interleaved like
//! those of [`gemm_nn_acc_rows`].

use crate::gemm::{gemm_nn_acc_rows, gemm_nt_acc, gemm_tn_acc_rows};
use crate::scalar::Scalar;

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
/// solve products take.
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
}

/// Frobenius norm of a contiguous buffer, accumulated in `f64`.
fn frob_norm<T: Scalar>(a: &[T]) -> f64 {
    a.iter().map(|x| x.magnitude() * x.magnitude()).sum::<f64>().sqrt()
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
    // Full-pivot ACA on the residual `r`: peel rank-1 terms `u·vᵀ` with
    // the largest remaining entry as pivot, giving up once `cap` terms
    // could no longer be profitable.
    let cap = (m * n) / (m + n);
    let norm_a = frob_norm(&r);
    if !norm_a.is_finite() {
        return None;
    }
    let thresh = abs_tol.max(rel_tol * norm_a);
    let mut u: Vec<T> = Vec::new();
    let mut v: Vec<T> = Vec::new();
    let mut rank = 0usize;
    while frob_norm(&r) > thresh {
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
    let lr = LowRankBlock { m, n, rank, u, v };
    lr.is_profitable().then_some(lr)
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
    use crate::gemm::{gemm_nn_acc, gemm_tn_acc};

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
}
