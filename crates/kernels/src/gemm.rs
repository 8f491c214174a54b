//! GEMM-style update kernels.
//!
//! The supernodal fan-in solver spends almost all of its flops in
//! `C ← C + α·A·Bᵀ` (BMOD / COMP1D contribution computation, α = −1 when
//! applied directly, +1 when accumulated into an aggregated update block)
//! and a little in `C ← C + α·A·B` (triangular solve sweeps). Both kernels
//! operate on column-major panels with explicit leading dimensions.
//!
//! Two implementations live behind each public entry point:
//!
//! * a register-blocked **axpy reference** (the seed kernel): each column of
//!   `C` is written once per four `k` steps; simple, exact, and fastest for
//!   small tiles;
//! * the **cache-blocked packed path** of [`crate::pack`]: `MC×KC×NC`
//!   tiling with packed operand panels and a register microkernel sized
//!   for the scalar and the instruction set ([`crate::pack::Tile`]), which
//!   the dispatcher selects for products large enough to amortize the
//!   packing (see [`crate::pack::KernelMode`] to force either side).
//!
//! The two solve-sweep products (`A·B` and `Aᵀ·B` against a handful of
//! right-hand sides) have a third form, [`gemm_nn_acc_rows`] and
//! [`gemm_tn_acc_rows`]: the right-hand sides are *interleaved* (stored row
//! by row), so they are the vector dimension — always full, however small
//! and irregular the supernode is — and the factor panel streams past once
//! per eight of them.
//!
//! This file is safe Rust; the crate's one `unsafe` block is the
//! load/store frame of the AVX-512 `f64` microkernel in [`crate::pack`].

use crate::pack;
use crate::scalar::Scalar;

/// `C ← C + α · A · Bᵀ` where `A` is `m×k` (lda ≥ m), `B` is `n×k`
/// (ldb ≥ n) and `C` is `m×n` (ldc ≥ m), all column-major.
///
/// This is the workhorse of the numerical factorization: the contribution of
/// column block `k` to block `(i,j)` is `L_ik · F_jᵀ` (paper, Fig. 1 lines
/// 7 and 15).
pub fn gemm_nt_acc<T: Scalar>(
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
    if pack::use_packed(m, n, k) {
        pack::gemm_nt_acc_packed(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nt_acc_ref(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nt_acc`]: the reference
/// implementation every packed kernel is property-tested against, and the
/// "before" side of `bench_hotpath`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_ref<T: Scalar>(
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

    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let mut kk = 0;
        // Four-way unrolled axpy accumulation into column j of C.
        while kk + 4 <= k {
            let s0 = alpha * b[j + kk * ldb];
            let s1 = alpha * b[j + (kk + 1) * ldb];
            let s2 = alpha * b[j + (kk + 2) * ldb];
            let s3 = alpha * b[j + (kk + 3) * ldb];
            let a0 = &a[kk * lda..kk * lda + m];
            let a1 = &a[(kk + 1) * lda..(kk + 1) * lda + m];
            let a2 = &a[(kk + 2) * lda..(kk + 2) * lda + m];
            let a3 = &a[(kk + 3) * lda..(kk + 3) * lda + m];
            for (i, cv) in cj.iter_mut().enumerate() {
                *cv += a0[i] * s0 + a1[i] * s1 + a2[i] * s2 + a3[i] * s3;
            }
            kk += 4;
        }
        while kk < k {
            let s = alpha * b[j + kk * ldb];
            let ak = &a[kk * lda..kk * lda + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
            kk += 1;
        }
    }
}

/// `C ← C + α · A · B` where `A` is `m×k` (lda ≥ m), `B` is `k×n`
/// (ldb ≥ k) and `C` is `m×n` (ldc ≥ m), all column-major.
pub fn gemm_nn_acc<T: Scalar>(
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
    if pack::use_packed(m, n, k) {
        pack::gemm_nn_acc_packed(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nn_acc_ref(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nn_acc`] (reference path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_acc_ref<T: Scalar>(
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

    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let bj = &b[j * ldb..j * ldb + k];
        let mut kk = 0;
        while kk + 4 <= k {
            let s0 = alpha * bj[kk];
            let s1 = alpha * bj[kk + 1];
            let s2 = alpha * bj[kk + 2];
            let s3 = alpha * bj[kk + 3];
            let a0 = &a[kk * lda..kk * lda + m];
            let a1 = &a[(kk + 1) * lda..(kk + 1) * lda + m];
            let a2 = &a[(kk + 2) * lda..(kk + 2) * lda + m];
            let a3 = &a[(kk + 3) * lda..(kk + 3) * lda + m];
            for (i, cv) in cj.iter_mut().enumerate() {
                *cv += a0[i] * s0 + a1[i] * s1 + a2[i] * s2 + a3[i] * s3;
            }
            kk += 4;
        }
        while kk < k {
            let s = alpha * bj[kk];
            let ak = &a[kk * lda..kk * lda + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
            kk += 1;
        }
    }
}

/// Lower-triangle-only variant of [`gemm_nt_acc`] for square updates landing
/// on a diagonal block: only entries with `row ≥ col` of the `n×n` result
/// are touched (the strictly upper triangle of a diagonal block is never
/// stored by the solver).
pub fn gemm_nt_acc_lower<T: Scalar>(
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
    // Roughly half the full product's multiply-adds land in the lower
    // triangle.
    if pack::use_packed(n, n.div_ceil(2), k) {
        pack::gemm_nt_acc_lower_packed(n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_nt_acc_lower_ref(n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The seed axpy formulation of [`gemm_nt_acc_lower`] (reference path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_acc_lower_ref<T: Scalar>(
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
    for j in 0..n {
        let m = n - j; // rows j..n of column j
        let cj = &mut c[j * ldc + j..j * ldc + n];
        for kk in 0..k {
            let s = alpha * b[j + kk * ldb];
            let ak = &a[kk * lda + j..kk * lda + j + m];
            for (cv, &av) in cj.iter_mut().zip(ak) {
                *cv += av * s;
            }
        }
    }
}

/// `C ← C + α · Aᵀ · B` where `A` is `k×m` (lda ≥ k), `B` is `k×n`
/// (ldb ≥ k) and `C` is `m×n` (ldc ≥ m), all column-major.
///
/// The backward triangular sweep of a multi-RHS panel solve is exactly this
/// shape: the partial `L_bᵀ · X_s` reduces the shared `k` dimension down
/// contiguous columns of both operands, so the inner loop is a pair of
/// unit-stride dot products with no transposed pack needed.
pub fn gemm_tn_acc<T: Scalar>(
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
    assert!(lda >= k && ldb >= k, "operand leading dimensions too small");
    assert!(ldc >= m, "C leading dimension too small");
    assert!(a.len() >= lda * (m - 1) + k, "A buffer too small");
    assert!(b.len() >= ldb * (n - 1) + k, "B buffer too small");
    assert!(c.len() >= ldc * (n - 1) + m, "C buffer too small");
    for j in 0..n {
        let bj = &b[j * ldb..j * ldb + k];
        let cj = &mut c[j * ldc..j * ldc + m];
        for (i, cv) in cj.iter_mut().enumerate() {
            let ai = &a[i * lda..i * lda + k];
            let mut acc = T::zero();
            for (&av, &bv) in ai.iter().zip(bj) {
                acc += av * bv;
            }
            *cv += alpha * acc;
        }
    }
}

/// `C ← C + α · A · B` with the right-hand sides **interleaved**: `A` is
/// `m×k` column-major (lda ≥ m) as everywhere; `B` (`k × nrhs`) and `C`
/// (`m × nrhs`) are stored row by row, the `nrhs` scalars of a row
/// contiguous.
///
/// The forward solve sweep in the layout that makes it fast on small
/// supernodes: the vector dimension is the right-hand sides — always
/// full, whatever the (tiny, irregular) `m` and `k` are — every scalar of
/// `A` is read once, walking down up to four columns at a time
/// (prefetcher-friendly streams), and a row block of the result is one
/// contiguous run. A single right-hand side runs the same arithmetic
/// vectorized down the rows instead, so every column of a panel solve is
/// bit-for-bit the single-RHS solve of that column.
pub fn gemm_nn_acc_rows<T: Scalar>(
    m: usize,
    nrhs: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
) {
    if m == 0 || nrhs == 0 || k == 0 {
        return;
    }
    assert!(lda >= m, "A leading dimension too small");
    assert!(a.len() >= lda * (k - 1) + m, "A buffer too small");
    assert!(b.len() >= k * nrhs, "B buffer too small");
    assert!(c.len() >= m * nrhs, "C buffer too small");
    let mut r = 0;
    while r < nrhs {
        r += match nrhs - r {
            8.. => nn_rows::<T, 8>(m, nrhs, k, alpha, a, lda, b, c, r),
            4..=7 => nn_rows::<T, 4>(m, nrhs, k, alpha, a, lda, b, c, r),
            2..=3 => nn_rows::<T, 2>(m, nrhs, k, alpha, a, lda, b, c, r),
            _ => nn_rows::<T, 1>(m, nrhs, k, alpha, a, lda, b, c, r),
        };
    }
}

/// Right-hand sides `r0..r0 + NR` of [`gemm_nn_acc_rows`], the depth in
/// groups of four, two, one; returns `NR`.
#[allow(clippy::too_many_arguments)]
fn nn_rows<T: Scalar, const NR: usize>(
    m: usize,
    nrhs: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
    r0: usize,
) -> usize {
    let mut kk = 0;
    while kk < k {
        kk += match k - kk {
            4.. => nn_rows_depth::<T, NR, 4>(m, nrhs, alpha, a, lda, b, c, r0, kk),
            2..=3 => nn_rows_depth::<T, NR, 2>(m, nrhs, alpha, a, lda, b, c, r0, kk),
            _ => nn_rows_depth::<T, NR, 1>(m, nrhs, alpha, a, lda, b, c, r0, kk),
        };
    }
    NR
}

/// Depth steps `kk..kk + KB` of [`nn_rows`]: the `KB` rows of `α·B` stay in
/// registers while the `KB` columns of `A` stream past; returns `KB`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn_rows_depth<T: Scalar, const NR: usize, const KB: usize>(
    m: usize,
    nrhs: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
    r0: usize,
    kk: usize,
) -> usize {
    let bv: [[T; NR]; KB] = std::array::from_fn(|q| {
        let row: &[T; NR] = b[(kk + q) * nrhs + r0..(kk + q) * nrhs + r0 + NR].try_into().unwrap();
        std::array::from_fn(|l| alpha * row[l])
    });
    let acol: [&[T]; KB] = std::array::from_fn(|q| &a[(kk + q) * lda..(kk + q) * lda + m]);
    if nrhs == 1 {
        // One right-hand side: rows of `C` are adjacent scalars, so the
        // same per-entry arithmetic vectorizes down the rows.
        for (p, cv) in c[..m].iter_mut().enumerate() {
            let mut v = *cv;
            for q in 0..KB {
                v = acol[q][p].mul_add(bv[q][0], v);
            }
            *cv = v;
        }
        return KB;
    }
    for (p, crow) in c.chunks_mut(nrhs).take(m).enumerate() {
        let cv: &mut [T; NR] = (&mut crow[r0..r0 + NR]).try_into().unwrap();
        let mut v = *cv;
        for q in 0..KB {
            let s = acol[q][p];
            for l in 0..NR {
                v[l] = s.mul_add(bv[q][l], v[l]);
            }
        }
        *cv = v;
    }
    KB
}

/// `C ← C + α · Aᵀ · B` with the right-hand sides interleaved: `A` is
/// `k×m` column-major (lda ≥ k); `B` (`k × nrhs`) and `C` (`m × nrhs`) are
/// stored row by row. The backward twin of [`gemm_nn_acc_rows`]: several
/// columns of `A` stream down together against the rows of `B`, their
/// `nrhs`-wide sums held in registers — no horizontal reduction, no
/// remainder in the (short) depth. Every entry is one in-order sum over
/// the depth whatever `nrhs` is (a single right-hand side runs eight
/// columns of `A` as eight independent chains), so every column of a
/// panel solve is bit-for-bit the single-RHS solve of that column.
pub fn gemm_tn_acc_rows<T: Scalar>(
    m: usize,
    nrhs: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
) {
    if m == 0 || nrhs == 0 || k == 0 {
        return;
    }
    assert!(lda >= k, "A leading dimension too small");
    assert!(a.len() >= lda * (m - 1) + k, "A buffer too small");
    assert!(b.len() >= k * nrhs, "B buffer too small");
    assert!(c.len() >= m * nrhs, "C buffer too small");
    let mut r = 0;
    while r < nrhs {
        r += match nrhs - r {
            8.. => tn_rows::<T, 8>(m, nrhs, k, alpha, a, lda, b, c, r),
            4..=7 => tn_rows::<T, 4>(m, nrhs, k, alpha, a, lda, b, c, r),
            2..=3 => tn_rows::<T, 2>(m, nrhs, k, alpha, a, lda, b, c, r),
            _ => tn_rows::<T, 1>(m, nrhs, k, alpha, a, lda, b, c, r),
        };
    }
}

/// Right-hand sides `r0..r0 + NR` of [`gemm_tn_acc_rows`], the columns of
/// `A` in groups sized to keep the group's sums in registers; returns `NR`.
#[allow(clippy::too_many_arguments)]
fn tn_rows<T: Scalar, const NR: usize>(
    m: usize,
    nrhs: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
    r0: usize,
) -> usize {
    let mut i = 0;
    while i < m {
        i += match m - i {
            8.. if NR == 1 => tn_rows_cols::<T, NR, 8>(nrhs, k, alpha, a, lda, b, c, r0, i),
            4.. => tn_rows_cols::<T, NR, 4>(nrhs, k, alpha, a, lda, b, c, r0, i),
            2..=3 => tn_rows_cols::<T, NR, 2>(nrhs, k, alpha, a, lda, b, c, r0, i),
            _ => tn_rows_cols::<T, NR, 1>(nrhs, k, alpha, a, lda, b, c, r0, i),
        };
    }
    NR
}

/// Rows `i..i + IB` of `C` in [`tn_rows`]; returns `IB`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_rows_cols<T: Scalar, const NR: usize, const IB: usize>(
    nrhs: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    c: &mut [T],
    r0: usize,
    i: usize,
) -> usize {
    let acol: [&[T]; IB] = std::array::from_fn(|q| &a[(i + q) * lda..(i + q) * lda + k]);
    let mut acc = [[T::zero(); NR]; IB];
    for (p, brow) in b.chunks(nrhs).take(k).enumerate() {
        let bv: &[T; NR] = brow[r0..r0 + NR].try_into().unwrap();
        for q in 0..IB {
            let s = acol[q][p];
            for l in 0..NR {
                acc[q][l] = s.mul_add(bv[l], acc[q][l]);
            }
        }
    }
    for q in 0..IB {
        let cv = &mut c[(i + q) * nrhs + r0..(i + q) * nrhs + r0 + NR];
        for l in 0..NR {
            cv[l] += alpha * acc[q][l];
        }
    }
    IB
}

/// Flop count of a `gemm_nt`/`gemm_nn` call (`2·m·n·k`), used by the cost
/// model and the Gflop/s reporting.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;

    fn naive_nt(a: &DenseMat<f64>, b: &DenseMat<f64>, alpha: f64) -> DenseMat<f64> {
        let bt = b.transposed();
        let mut c = a.matmul(&bt);
        for v in c.as_mut_slice() {
            *v *= alpha;
        }
        c
    }

    #[test]
    fn gemm_nt_matches_naive() {
        for (m, n, k) in [(1, 1, 1), (3, 2, 5), (8, 8, 8), (7, 5, 9), (16, 3, 1)] {
            let a = DenseMat::from_fn(m, k, |i, j| (i * 31 + j * 7 + 1) as f64 * 0.25);
            let b = DenseMat::from_fn(n, k, |i, j| (i as f64) - 0.5 * (j as f64));
            let mut c = DenseMat::from_fn(m, n, |i, j| (i + j) as f64);
            let expect = {
                let mut e = c.clone();
                let upd = naive_nt(&a, &b, -1.0);
                for j in 0..n {
                    for i in 0..m {
                        e[(i, j)] += upd[(i, j)];
                    }
                }
                e
            };
            gemm_nt_acc(m, n, k, -1.0, a.as_slice(), m, b.as_slice(), n, c.as_mut_slice(), m);
            assert!(c.max_diff(&expect) < 1e-12, "mismatch at ({m},{n},{k})");
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        for (m, n, k) in [(4, 4, 4), (5, 3, 7), (2, 9, 6)] {
            let a = DenseMat::from_fn(m, k, |i, j| ((i + 1) * (j + 2)) as f64);
            let b = DenseMat::from_fn(k, n, |i, j| (i as f64 * 0.5) - j as f64);
            let mut c = DenseMat::zeros(m, n);
            gemm_nn_acc(m, n, k, 2.0, a.as_slice(), m, b.as_slice(), k, c.as_mut_slice(), m);
            let mut expect = a.matmul(&b);
            for v in expect.as_mut_slice() {
                *v *= 2.0;
            }
            assert!(c.max_diff(&expect) < 1e-12);
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        for (m, n, k) in [(1, 1, 1), (3, 2, 5), (6, 4, 8), (5, 7, 3)] {
            let a = DenseMat::from_fn(k, m, |i, j| (i * 13 + j * 5 + 1) as f64 * 0.125);
            let b = DenseMat::from_fn(k, n, |i, j| (i as f64) * 0.5 - (j as f64));
            let mut c = DenseMat::from_fn(m, n, |i, j| (i * n + j) as f64);
            let expect = {
                let mut e = c.clone();
                for j in 0..n {
                    for i in 0..m {
                        let mut acc = 0.0;
                        for kk in 0..k {
                            acc += a[(kk, i)] * b[(kk, j)];
                        }
                        e[(i, j)] -= 2.0 * acc;
                    }
                }
                e
            };
            gemm_tn_acc(m, n, k, -2.0, a.as_slice(), k, b.as_slice(), k, c.as_mut_slice(), m);
            assert!(c.max_diff(&expect) < 1e-12, "mismatch at ({m},{n},{k})");
        }
    }

    /// The interleaved kernels against the column-major references over
    /// every remainder shape: rows and depth around the group sizes, 1–9
    /// right-hand sides, a gapped leading dimension on `A`. A column of a
    /// multi-RHS product must also be bit-for-bit the single-RHS product.
    fn rows_kernels_match_ref<T: Scalar>(val: impl Fn(usize) -> T) {
        let dims = [1usize, 3, 4, 7, 17];
        for &m in &dims {
            for &k in &dims {
                for nrhs in [1usize, 2, 3, 4, 5, 8, 9] {
                    let alpha = val(5);
                    // Column-major `h × nrhs` (ld `h`) ↔ interleaved rows.
                    let rows = |x: &[T], h: usize| -> Vec<T> { (0..h * nrhs).map(|i| x[i / nrhs + (i % nrhs) * h]).collect() };
                    let b: Vec<T> = (0..k * nrhs).map(|i| val(i * 3 + 2)).collect();
                    let c0: Vec<T> = (0..m * nrhs).map(|i| val(i + 11)).collect();
                    for trans in [false, true] {
                        let what = format!("trans={trans} m={m} k={k} nrhs={nrhs}");
                        // `A` is m × k, or k × m when transposed.
                        let (ar, ac) = if trans { (k, m) } else { (m, k) };
                        let lda = ar + 2;
                        let a: Vec<T> = (0..lda * ac).map(|i| val(i * 7 + 1)).collect();
                        let run = |nrhs: usize, b: &[T], c: &mut [T]| match trans {
                            false => gemm_nn_acc_rows(m, nrhs, k, alpha, &a, lda, b, c),
                            true => gemm_tn_acc_rows(m, nrhs, k, alpha, &a, lda, b, c),
                        };
                        let mut want = c0.clone();
                        match trans {
                            false => gemm_nn_acc_ref(m, nrhs, k, alpha, &a, lda, &b, k, &mut want, m),
                            true => gemm_tn_acc(m, nrhs, k, alpha, &a, lda, &b, k, &mut want, m),
                        }
                        let mut got = rows(&c0, m);
                        run(nrhs, &rows(&b, k), &mut got);
                        for (i, (&g, &w)) in got.iter().zip(&rows(&want, m)).enumerate() {
                            let err = (g - w).magnitude();
                            assert!(err <= 1e-12 * w.magnitude().max(1.0), "{what} at {i}: {g} vs {w}");
                        }
                        for r in 0..nrhs {
                            let mut single = c0[r * m..(r + 1) * m].to_vec();
                            run(1, &b[r * k..(r + 1) * k], &mut single);
                            let column: Vec<T> = (0..m).map(|i| got[i * nrhs + r]).collect();
                            assert_eq!(column, single, "{what}: column {r} is not the single-RHS product");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_kernels_match_ref_f64() {
        rows_kernels_match_ref(|i| ((i * 37 % 101) as f64) * 0.03125 - 1.5);
    }

    #[test]
    fn rows_kernels_match_ref_complex() {
        use crate::complex::Complex64;
        rows_kernels_match_ref(|i| {
            Complex64::new(((i * 37 % 101) as f64) * 0.03125 - 1.5, ((i * 13 % 29) as f64) * 0.125 - 2.0)
        });
    }

    #[test]
    fn gemm_with_leading_dimension_gap() {
        // Place a 2x2 problem inside larger buffers to exercise lda > m.
        let (m, n, k) = (2, 2, 3);
        let lda = 5;
        let ldb = 4;
        let ldc = 6;
        let mut a = vec![0.0; lda * k];
        let mut b = vec![0.0; ldb * k];
        let mut c = vec![0.0; ldc * n];
        for kk in 0..k {
            for i in 0..m {
                a[i + kk * lda] = (i + kk) as f64;
            }
            for j in 0..n {
                b[j + kk * ldb] = (j * 2 + kk) as f64;
            }
        }
        gemm_nt_acc(m, n, k, 1.0, &a, lda, &b, ldb, &mut c, ldc);
        // c(i,j) = sum_kk (i+kk)(2j+kk)
        for j in 0..n {
            for i in 0..m {
                let want: f64 = (0..k).map(|kk| ((i + kk) * (2 * j + kk)) as f64).sum();
                assert_eq!(c[i + j * ldc], want);
            }
        }
        // Padding untouched.
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn lower_variant_matches_full_on_lower_triangle() {
        let n = 6;
        let k = 5;
        let a = DenseMat::from_fn(n, k, |i, j| (i * 3 + j) as f64 * 0.1);
        let b = DenseMat::from_fn(n, k, |i, j| 1.0 + (i ^ j) as f64);
        let mut full = DenseMat::zeros(n, n);
        let mut low = DenseMat::zeros(n, n);
        gemm_nt_acc(n, n, k, -1.0, a.as_slice(), n, b.as_slice(), n, full.as_mut_slice(), n);
        gemm_nt_acc_lower(n, k, -1.0, a.as_slice(), n, b.as_slice(), n, low.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!((low[(i, j)] - full[(i, j)]).abs() < 1e-13);
                } else {
                    assert_eq!(low[(i, j)], 0.0, "upper triangle must stay untouched");
                }
            }
        }
    }

    #[test]
    fn zero_sized_noop() {
        let mut c = [1.0f64; 4];
        gemm_nt_acc(0, 2, 2, 1.0, &[], 1, &[1.0, 1.0, 1.0, 1.0], 2, &mut c, 1);
        gemm_nn_acc(2, 0, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, &mut c, 2);
        gemm_nt_acc(2, 2, 0, 1.0, &[], 2, &[], 2, &mut c, 2);
        assert_eq!(c, [1.0; 4]);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }
}
