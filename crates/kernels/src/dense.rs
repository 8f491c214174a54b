//! Column-major dense matrices and views.
//!
//! All numeric kernels in this crate operate BLAS-style on raw column-major
//! slices with an explicit leading dimension (`lda`), because the solver
//! stores each supernodal column block as one contiguous column-major panel
//! and hands sub-panels to the kernels. [`DenseMat`] is the owned
//! convenience type used by tests, benches and the dense baselines.

use crate::scalar::Scalar;

/// Owned column-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMat<T> {
    m: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMat<T> {
    /// Zero matrix of shape `m × n`.
    pub fn zeros(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            data: vec![T::zero(); m * n],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut a = Self::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = T::one();
        }
        a
    }

    /// Builds the matrix entry-wise from a closure `f(row, col)`.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(m * n);
        for j in 0..n {
            for i in 0..m {
                data.push(f(i, j));
            }
        }
        Self { m, n, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Leading dimension of the underlying storage (equals `nrows`).
    #[inline]
    pub fn lda(&self) -> usize {
        self.m
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.m..(j + 1) * self.m]
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.n, self.m, |i, j| self[(j, i)])
    }

    /// Dense matrix-matrix product `self · rhs` (reference implementation,
    /// O(mnk), used as the test oracle for the fast kernels).
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.n, rhs.m, "inner dimensions must agree");
        let mut c = Self::zeros(self.m, rhs.n);
        for j in 0..rhs.n {
            for k in 0..self.n {
                let s = rhs[(k, j)];
                for i in 0..self.m {
                    let v = self[(i, k)] * s;
                    c[(i, j)] += v;
                }
            }
        }
        c
    }

    /// Matrix-vector product `self · x`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::zero(); self.m];
        for j in 0..self.n {
            let s = x[j];
            for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                *yi += aij * s;
            }
        }
        y
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.magnitude() * v.magnitude())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum componentwise modulus of `self − other`.
    pub fn max_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.m, self.n), (other.m, other.n));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).magnitude())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.m && j < self.n);
        &self.data[i + j * self.m]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.m && j < self.n);
        &mut self.data[i + j * self.m]
    }
}

/// Returns a random-looking but deterministic SPD matrix `n × n` built as
/// `B·Bᵀ + n·I` from a linear-congruential stream; used by tests and benches
/// without pulling a RNG dependency into this crate.
pub fn deterministic_spd(n: usize, seed: u64) -> DenseMat<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let b = DenseMat::from_fn(n, n, |_, _| next());
    let bt = b.transposed();
    let mut a = b.matmul(&bt);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Copies a rectangular sub-panel between two column-major buffers.
///
/// `src` starts at its own origin with leading dimension `lds`; likewise
/// `dst` with `ldd`. Copies `m × n` entries.
pub fn copy_panel<T: Copy>(m: usize, n: usize, src: &[T], lds: usize, dst: &mut [T], ldd: usize) {
    assert!(m <= lds || n == 0, "source leading dimension too small");
    assert!(m <= ldd || n == 0, "destination leading dimension too small");
    for j in 0..n {
        dst[j * ldd..j * ldd + m].copy_from_slice(&src[j * lds..j * lds + m]);
    }
}

/// Asks the cache for the line holding `x`, to be written soon; a no-op
/// off `x86_64`. Issued over a batch of scattered targets before they are
/// updated, the misses overlap instead of stalling one add each.
#[inline(always)]
pub fn prefetch_write<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it cannot fault and changes no memory
    // the program sees, and its address comes from a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
        _mm_prefetch::<_MM_HINT_ET0>((x as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    #[test]
    fn index_roundtrip() {
        let mut a = DenseMat::<f64>::zeros(3, 2);
        a[(2, 1)] = 5.0;
        assert_eq!(a[(2, 1)], 5.0);
        assert_eq!(a.col(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn identity_matmul_is_identity_action() {
        let a = DenseMat::<f64>::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let e = DenseMat::<f64>::identity(3);
        assert_eq!(a.matmul(&e), a);
        assert_eq!(e.matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DenseMat::<f64>::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let x = vec![1.0, -1.0, 2.0];
        let xm = DenseMat::from_fn(3, 1, |i, _| x[i]);
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert_eq!(y[i], ym[(i, 0)]);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMat::<f64>::from_fn(2, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn complex_matmul() {
        let i = Complex64::I;
        let a = DenseMat::from_fn(2, 2, |r, c| if r == c { i } else { Complex64::ZERO });
        let sq = a.matmul(&a);
        // (iI)^2 = -I
        assert_eq!(sq[(0, 0)], Complex64::new(-1.0, 0.0));
        assert_eq!(sq[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn deterministic_spd_is_symmetric_dominant() {
        let a = deterministic_spd(16, 42);
        for i in 0..16 {
            for j in 0..16 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
            assert!(a[(i, i)] > 0.0);
        }
        // Deterministic across calls.
        let b = deterministic_spd(16, 42);
        assert_eq!(a.max_diff(&b), 0.0);
    }

    #[test]
    fn copy_panel_subblock() {
        let src: Vec<f64> = (0..12).map(|x| x as f64).collect(); // 4x3, lda 4
        let mut dst = vec![0.0; 6]; // 2x3, ldd 2
        copy_panel(2, 3, &src, 4, &mut dst, 2);
        assert_eq!(dst, vec![0.0, 1.0, 4.0, 5.0, 8.0, 9.0]);
    }

    #[test]
    fn fro_norm_simple() {
        let a = DenseMat::<f64>::from_fn(2, 2, |_, _| 2.0);
        assert!((a.fro_norm() - 4.0).abs() < 1e-15);
    }
}
