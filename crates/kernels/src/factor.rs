//! Dense symmetric factorization kernels.
//!
//! Storage convention (the one used by real PaStiX): a factored diagonal
//! block of order `n` holds `D` on its diagonal and the strictly lower part
//! of the *unit* lower triangular `L` below it; the strictly upper triangle
//! is never read. For the Cholesky baseline the diagonal holds `L(j,j)`
//! itself.
//!
//! Two granularities are provided: the unblocked right-looking kernels used
//! on supernodal diagonal blocks (whose order is bounded by the blocking
//! size after repartitioning), and blocked variants used by the dense
//! benchmarks (the paper's 1024×1024 ESSL comparison) and oversized blocks.

use crate::gemm::{gemm_nt_acc, gemm_nt_acc_lower};
use crate::scalar::Scalar;
use crate::trsm::{scale_cols_by_diag_into, trsm_ldlt_panel, trsm_llt_panel};

/// Error raised by the factorization kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// A zero (or non-finite) pivot was met at the given column: an index
    /// into the block for a kernel, a column of the caller's matrix from
    /// `Plan::factorize`. The algorithm performs no pivoting, as in the
    /// paper; the caller is expected to hand in matrices for which this
    /// cannot happen (SPD or complex symmetric with a stable ordering).
    ZeroPivot(usize),
    /// A stored matrix value is a NaN or an infinity; screened before any
    /// work is done, so nothing was analyzed or factorized.
    NonFinite {
        /// Row of the first offending stored entry.
        row: usize,
        /// Its column.
        col: usize,
    },
    /// A stored entry falls outside the block structure the plan was
    /// analyzed for, or the matrix has another order than the plan; found
    /// before any numeric work. For an order mismatch `row = col` is the
    /// first index one of the two orders lacks.
    PatternMismatch {
        /// Row of the first offending stored entry, in the matrix's own
        /// numbering.
        row: usize,
        /// Its column.
        col: usize,
    },
}

impl FactorError {
    /// The error of a block whose first column is `fcol`: a local pivot
    /// index becomes a global one.
    pub fn at_column(self, fcol: usize) -> Self {
        match self {
            FactorError::ZeroPivot(i) => FactorError::ZeroPivot(fcol + i),
            e => e,
        }
    }
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::ZeroPivot(i) => write!(f, "zero pivot at column {i}"),
            FactorError::NonFinite { row, col } => write!(f, "non-finite matrix value at ({row}, {col})"),
            FactorError::PatternMismatch { row, col } => {
                write!(f, "entry ({row}, {col}) is outside the analyzed pattern")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Default panel width of the blocked factor kernels: wide enough that the
/// trailing updates run as packed GEMMs, narrow enough that the unblocked
/// diagonal step stays negligible.
pub const NB_FACTOR: usize = 48;

/// In-place `L·D·Lᵀ` factorization of the lower triangle of an `n × n`
/// column-major block (leading dimension `lda`).
///
/// On exit the diagonal holds `D` and the strictly lower triangle holds the
/// unit lower factor `L`. Right-looking, `n³/3 + O(n²)` multiply-adds.
///
/// ```
/// use pastix_kernels::ldlt_factor_inplace;
/// // A = [[4, 2], [2, 5]]  (column-major, lower triangle relevant)
/// let mut a = [4.0, 2.0, 0.0, 5.0];
/// ldlt_factor_inplace(2, &mut a, 2).unwrap();
/// assert_eq!(a[0], 4.0);  // d0
/// assert_eq!(a[1], 0.5);  // L(1,0)
/// assert_eq!(a[3], 4.0);  // d1 = 5 − 0.5²·4
/// ```
pub fn ldlt_factor_inplace<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), FactorError> {
    assert!(lda >= n || n == 0, "leading dimension too small");
    for j in 0..n {
        let d = a[j + j * lda];
        if d == T::zero() || !d.is_finite() {
            return Err(FactorError::ZeroPivot(j));
        }
        let dinv = d.recip();
        // Column j below the diagonal becomes L(:,j).
        for i in (j + 1)..n {
            a[i + j * lda] *= dinv;
        }
        // Trailing symmetric update: A(i,k) -= L(i,j) * d * L(k,j), i >= k > j.
        for k in (j + 1)..n {
            let s = a[k + j * lda] * d;
            if s == T::zero() {
                continue;
            }
            let (lcol, rest) = {
                // Split so we can read column j while writing column k.
                let (left, right) = a.split_at_mut(k * lda);
                (&left[j * lda + k..j * lda + n], &mut right[k..n])
            };
            for (r, &l) in rest.iter_mut().zip(lcol) {
                *r -= l * s;
            }
        }
    }
    Ok(())
}

/// In-place Cholesky `L·Lᵀ` factorization of the lower triangle of an
/// `n × n` column-major block (leading dimension `lda`).
///
/// Requires an SPD (or at least non-singular along the pivot sequence)
/// matrix; intrinsically more BLAS-efficient than [`ldlt_factor_inplace`]
/// because the trailing update needs no diagonal rescaling — the effect the
/// paper points out when comparing ESSL's `LLᵀ` (1.07 s) with `LDLᵀ`
/// (1.27 s) on a 1024×1024 dense matrix.
pub fn llt_factor_inplace<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), FactorError> {
    assert!(lda >= n || n == 0, "leading dimension too small");
    for j in 0..n {
        let d = a[j + j * lda];
        if d == T::zero() || !d.is_finite() {
            return Err(FactorError::ZeroPivot(j));
        }
        let l = d.sqrt();
        if l == T::zero() || !l.is_finite() {
            return Err(FactorError::ZeroPivot(j));
        }
        a[j + j * lda] = l;
        let linv = l.recip();
        for i in (j + 1)..n {
            a[i + j * lda] *= linv;
        }
        for k in (j + 1)..n {
            let s = a[k + j * lda];
            if s == T::zero() {
                continue;
            }
            let (lcol, rest) = {
                let (left, right) = a.split_at_mut(k * lda);
                (&left[j * lda + k..j * lda + n], &mut right[k..n])
            };
            for (r, &l) in rest.iter_mut().zip(lcol) {
                *r -= l * s;
            }
        }
    }
    Ok(())
}

/// Blocked right-looking `L·D·Lᵀ`, panel width `nb`.
///
/// Each step factors an `nb`-wide diagonal panel with the unblocked kernel,
/// solves the sub-panel below it, and applies the trailing update through
/// [`gemm_nt_acc`] so that most flops run at GEMM speed. `work` grows as
/// needed and holds the `L·D` panel copy.
pub fn ldlt_factor_blocked<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    work: &mut Vec<T>,
) -> Result<(), FactorError> {
    assert!(lda >= n || n == 0, "leading dimension too small");
    let nb = nb.max(1);
    let mut p = 0;
    while p < n {
        let b = nb.min(n - p);
        let below = n - p - b;
        // Factor the diagonal sub-block A(p..p+b, p..p+b).
        {
            let sub = &mut a[p + p * lda..];
            ldlt_factor_inplace(b, sub, lda).map_err(|e| e.at_column(p))?;
        }
        if below == 0 {
            break;
        }
        // Solve the panel A(p+b..n, p..p+b) ← A · L⁻ᵀ · D⁻¹. The diagonal
        // block shares columns with the panel in memory, so copy it into a
        // compact b×b scratch to keep the borrows disjoint.
        let mut dtmp = vec![T::zero(); b * b];
        crate::dense::copy_panel(b, b, &a[p + p * lda..], lda, &mut dtmp, b);
        {
            let panel = &mut a[(p + b) + p * lda..];
            trsm_ldlt_panel(below, b, &dtmp, b, panel, lda);
        }
        // W = L_panel · D (copy scaled by the diagonal).
        work.clear();
        work.resize(below * b, T::zero());
        {
            let mut d = Vec::with_capacity(b);
            for i in 0..b {
                d.push(a[(p + i) + (p + i) * lda]);
            }
            let panel = &a[(p + b) + p * lda..];
            scale_cols_by_diag_into(below, b, panel, lda, &d, work, below);
        }
        // Trailing update: A(p+b.., p+b..) -= L_panel · Wᵀ (lower part only,
        // done block-column by block-column so the diagonal blocks use the
        // lower-triangle kernel).
        let mut q = 0;
        while q < below {
            let w = nb.min(below - q);
            let col0 = p + b + q;
            // Diagonal target block (order w).
            {
                let (asrc, adst) = split_src_dst(a, (p + b + q) + p * lda, col0 + col0 * lda);
                gemm_nt_acc_lower(w, b, -T::one(), asrc, lda, &work[q..], below, adst, lda);
            }
            // Rectangular part strictly below it.
            let mrest = below - q - w;
            if mrest > 0 {
                let (asrc, adst) = split_src_dst(a, (p + b + q + w) + p * lda, (col0 + w) + col0 * lda);
                gemm_nt_acc(mrest, w, b, -T::one(), asrc, lda, &work[q..], below, adst, lda);
            }
            q += w;
        }
        p += b;
    }
    Ok(())
}

/// Blocked right-looking Cholesky `L·Lᵀ`, panel width `nb`.
pub fn llt_factor_blocked<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
) -> Result<(), FactorError> {
    assert!(lda >= n || n == 0, "leading dimension too small");
    let nb = nb.max(1);
    let mut p = 0;
    while p < n {
        let b = nb.min(n - p);
        let below = n - p - b;
        {
            let sub = &mut a[p + p * lda..];
            llt_factor_inplace(b, sub, lda).map_err(|e| e.at_column(p))?;
        }
        if below == 0 {
            break;
        }
        // As in the LDLᵀ variant: compact copy of the diagonal block keeps
        // the diag read and the panel write on disjoint borrows.
        let mut dtmp = vec![T::zero(); b * b];
        crate::dense::copy_panel(b, b, &a[p + p * lda..], lda, &mut dtmp, b);
        {
            let panel = &mut a[(p + b) + p * lda..];
            trsm_llt_panel(below, b, &dtmp, b, panel, lda);
        }
        // Trailing update: A(p+b.., p+b..) -= L_panel · L_panelᵀ (lower part).
        let mut q = 0;
        while q < below {
            let w = nb.min(below - q);
            let col0 = p + b + q;
            {
                let (asrc, adst) = split_src_dst(a, (p + b + q) + p * lda, col0 + col0 * lda);
                // B rows are the same panel rows q..q+w.
                gemm_nt_acc_lower(w, b, -T::one(), asrc, lda, asrc, lda, adst, lda);
            }
            let mrest = below - q - w;
            if mrest > 0 {
                // A = panel rows q+w.., B = panel rows q..q+w; both live
                // strictly before the destination block in the buffer.
                let dst_off = (col0 + w) + col0 * lda;
                let a_off = (p + b + q + w) + p * lda;
                let b_off = (p + b + q) + p * lda;
                let (left, right) = a.split_at_mut(dst_off);
                gemm_nt_acc(
                    mrest,
                    w,
                    b,
                    -T::one(),
                    &left[a_off..],
                    lda,
                    &left[b_off..],
                    lda,
                    right,
                    lda,
                );
            }
            q += w;
        }
        p += b;
    }
    Ok(())
}

/// Splits a buffer at `dst_off` so the region starting at `src_off`
/// (strictly before `dst_off`) can be read while the destination is written.
#[inline]
fn split_src_dst<T>(a: &mut [T], src_off: usize, dst_off: usize) -> (&[T], &mut [T]) {
    debug_assert!(src_off < dst_off, "source must precede destination");
    let (left, right) = a.split_at_mut(dst_off);
    (&left[src_off..], right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dense::{deterministic_spd, DenseMat};

    /// Rebuilds `L·D·Lᵀ` from a factored buffer and compares with the
    /// original lower triangle.
    fn check_ldlt(orig: &DenseMat<f64>, fact: &DenseMat<f64>, tol: f64) {
        let n = orig.nrows();
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0;
                for p in 0..=j {
                    let lip = if i == p { 1.0 } else { fact[(i, p)] };
                    let ljp = if j == p { 1.0 } else { fact[(j, p)] };
                    let d = fact[(p, p)];
                    v += lip * d * ljp;
                }
                assert!(
                    (v - orig[(i, j)]).abs() <= tol * orig.fro_norm().max(1.0),
                    "entry ({i},{j}): rebuilt {v} vs {}",
                    orig[(i, j)]
                );
            }
        }
    }

    fn check_llt(orig: &DenseMat<f64>, fact: &DenseMat<f64>, tol: f64) {
        let n = orig.nrows();
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0;
                for p in 0..=j {
                    v += fact[(i, p)] * fact[(j, p)];
                }
                assert!(
                    (v - orig[(i, j)]).abs() <= tol * orig.fro_norm().max(1.0),
                    "entry ({i},{j}): rebuilt {v} vs {}",
                    orig[(i, j)]
                );
            }
        }
    }

    #[test]
    fn ldlt_small_known() {
        // A = [[4, 2], [2, 5]] = L D L^T with L21 = 0.5, D = diag(4, 4).
        let mut a = DenseMat::from_fn(2, 2, |i, j| [[4.0, 2.0], [2.0, 5.0]][i][j]);
        ldlt_factor_inplace(2, a.as_mut_slice(), 2).unwrap();
        assert!((a[(0, 0)] - 4.0).abs() < 1e-15);
        assert!((a[(1, 0)] - 0.5).abs() < 1e-15);
        assert!((a[(1, 1)] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn llt_small_known() {
        let mut a = DenseMat::from_fn(2, 2, |i, j| [[4.0, 2.0], [2.0, 5.0]][i][j]);
        llt_factor_inplace(2, a.as_mut_slice(), 2).unwrap();
        assert!((a[(0, 0)] - 2.0).abs() < 1e-15);
        assert!((a[(1, 0)] - 1.0).abs() < 1e-15);
        assert!((a[(1, 1)] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn ldlt_reconstructs_spd() {
        for n in [1, 2, 3, 5, 17, 40] {
            let orig = deterministic_spd(n, 7 + n as u64);
            let mut f = orig.clone();
            ldlt_factor_inplace(n, f.as_mut_slice(), n).unwrap();
            check_ldlt(&orig, &f, 1e-12);
        }
    }

    #[test]
    fn llt_reconstructs_spd() {
        for n in [1, 3, 8, 23, 40] {
            let orig = deterministic_spd(n, 100 + n as u64);
            let mut f = orig.clone();
            llt_factor_inplace(n, f.as_mut_slice(), n).unwrap();
            check_llt(&orig, &f, 1e-12);
        }
    }

    #[test]
    fn blocked_matches_unblocked_ldlt() {
        for n in [5, 16, 33, 64, 100] {
            let orig = deterministic_spd(n, n as u64);
            let mut u = orig.clone();
            ldlt_factor_inplace(n, u.as_mut_slice(), n).unwrap();
            for nb in [1, 4, 8, 32, 128] {
                let mut b = orig.clone();
                let mut work = Vec::new();
                ldlt_factor_blocked(n, b.as_mut_slice(), n, nb, &mut work).unwrap();
                // Compare lower triangles only.
                for j in 0..n {
                    for i in j..n {
                        assert!(
                            (u[(i, j)] - b[(i, j)]).abs() < 1e-9,
                            "n={n} nb={nb} ({i},{j}): {} vs {}",
                            u[(i, j)],
                            b[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_matches_unblocked_llt() {
        for n in [6, 16, 41, 64] {
            let orig = deterministic_spd(n, 3 * n as u64 + 1);
            let mut u = orig.clone();
            llt_factor_inplace(n, u.as_mut_slice(), n).unwrap();
            for nb in [2, 8, 16, 100] {
                let mut b = orig.clone();
                llt_factor_blocked(n, b.as_mut_slice(), n, nb).unwrap();
                for j in 0..n {
                    for i in j..n {
                        assert!(
                            (u[(i, j)] - b[(i, j)]).abs() < 1e-9,
                            "n={n} nb={nb} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_pivot_detected() {
        let mut a = DenseMat::<f64>::zeros(3, 3);
        a[(0, 0)] = 1.0; // second pivot is exactly zero
        let err = ldlt_factor_inplace(3, a.as_mut_slice(), 3).unwrap_err();
        assert_eq!(err, FactorError::ZeroPivot(1));
    }

    #[test]
    fn complex_symmetric_ldlt() {
        // Complex symmetric (NOT Hermitian) 2x2; LDLt must reproduce it.
        let z = |re: f64, im: f64| Complex64::new(re, im);
        let a00 = z(3.0, 1.0);
        let a10 = z(1.0, -2.0);
        let a11 = z(4.0, 0.5);
        let mut a = DenseMat::from_fn(2, 2, |i, j| match (i, j) {
            (0, 0) => a00,
            (1, 0) => a10,
            (1, 1) => a11,
            _ => Complex64::ZERO,
        });
        ldlt_factor_inplace(2, a.as_mut_slice(), 2).unwrap();
        let d0 = a[(0, 0)];
        let l10 = a[(1, 0)];
        let d1 = a[(1, 1)];
        // Rebuild.
        assert!((d0 - a00).abs() < 1e-14);
        assert!((l10 * d0 - a10).abs() < 1e-14);
        assert!((l10 * d0 * l10 + d1 - a11).abs() < 1e-14);
    }

    #[test]
    fn leading_dimension_respected() {
        let n = 4;
        let lda = 7;
        let orig = deterministic_spd(n, 5);
        let mut buf = vec![f64::NAN; lda * n];
        for j in 0..n {
            for i in 0..n {
                buf[i + j * lda] = orig[(i, j)];
            }
        }
        ldlt_factor_inplace(n, &mut buf, lda).unwrap();
        let mut compact = orig.clone();
        ldlt_factor_inplace(n, compact.as_mut_slice(), n).unwrap();
        for j in 0..n {
            for i in j..n {
                assert!((buf[i + j * lda] - compact[(i, j)]).abs() < 1e-12);
            }
        }
        // Padding rows untouched.
        assert!(buf[n].is_nan());
    }
}
