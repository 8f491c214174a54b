//! Sparse symmetric matrices.
//!
//! [`SymCsc`] stores the lower triangle (diagonal included) in compressed
//! sparse column form with sorted row indices — the natural input layout for
//! a symmetric `L·D·Lᵀ` solver and the layout of the paper's RSA test
//! files. Only the lower triangle is kept; the full matrix is implied by
//! symmetry.

use crate::csr::CsrGraph;
use crate::pattern::LowerPattern;
use crate::perm::Permutation;
use pastix_kernels::scalar::Scalar;

/// Symmetric sparse matrix, lower triangle in CSC form.
///
/// ```
/// use pastix_graph::SymCsc;
/// // [ 4 1 0 ]
/// // [ 1 5 2 ]   — only the lower triangle is supplied.
/// // [ 0 2 6 ]
/// let a = SymCsc::from_triplets(3, &[
///     (0, 0, 4.0), (1, 0, 1.0), (1, 1, 5.0), (2, 1, 2.0), (2, 2, 6.0),
/// ]);
/// assert_eq!(a.get(0, 1), 1.0);            // either triangle readable
/// assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![5.0, 8.0, 8.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymCsc<T> {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> SymCsc<T> {
    /// Builds from raw lower-triangular CSC arrays (row indices sorted per
    /// column, each column starting at its diagonal entry or below).
    pub fn from_parts(n: usize, colptr: Vec<usize>, rowind: Vec<u32>, values: Vec<T>) -> Self {
        assert_eq!(colptr.len(), n + 1);
        assert_eq!(*colptr.last().unwrap_or(&0), rowind.len());
        assert_eq!(rowind.len(), values.len());
        Self {
            n,
            colptr,
            rowind,
            values,
        }
    }

    /// Builds from triplets `(row, col, value)`. Entries are mirrored onto
    /// the lower triangle (an upper entry `(i, j)` with `i < j` contributes
    /// to `(j, i)`) and duplicates are summed in input order. `O(nnz + n)`:
    /// a [`LowerPattern`] counting build, then a gather.
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, T)]) -> Self {
        LowerPattern::counting(n, triplets, Default::default()).gather(|e| triplets[e].2)
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (lower triangle including the diagonal).
    #[inline]
    pub fn nnz_stored(&self) -> usize {
        self.rowind.len()
    }

    /// Off-diagonal entries stored (the paper's `NNZ_A` metric counts the
    /// off-diagonal terms of the triangular part).
    pub fn nnz_offdiag(&self) -> usize {
        let mut c = 0;
        for j in 0..self.n {
            for &i in self.rows_of(j) {
                if i as usize != j {
                    c += 1;
                }
            }
        }
        c
    }

    /// Column pointer array.
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices of column `j` (sorted, lower triangle).
    #[inline]
    pub fn rows_of(&self, j: usize) -> &[u32] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`, parallel to [`SymCsc::rows_of`].
    #[inline]
    pub fn vals_of(&self, j: usize) -> &[T] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// All row indices.
    #[inline]
    pub fn rowind(&self) -> &[u32] {
        &self.rowind
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Entry `(i, j)` (either triangle), zero if absent. O(log nnz(col)).
    pub fn get(&self, i: usize, j: usize) -> T {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        match self.rows_of(j).binary_search(&(i as u32)) {
            Ok(pos) => self.vals_of(j)[pos],
            Err(_) => T::zero(),
        }
    }

    /// Adjacency graph of the off-diagonal pattern (symmetric, loop-free).
    pub fn to_graph(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.nnz_stored());
        for j in 0..self.n {
            for &i in self.rows_of(j) {
                if i as usize != j {
                    edges.push((i, j as u32));
                }
            }
        }
        CsrGraph::from_edges(self.n, &edges)
    }

    /// Symmetric matrix-vector product `y = A·x` (both triangles implied).
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::zero(); self.n];
        for j in 0..self.n {
            let xj = x[j];
            for (&i, &v) in self.rows_of(j).iter().zip(self.vals_of(j)) {
                let i = i as usize;
                y[i] += v * xj;
                if i != j {
                    y[j] += v * x[i];
                }
            }
        }
        y
    }

    /// Residual `b − A·x` and its infinity norm relative to
    /// `‖A‖∞·‖x‖∞ + ‖b‖∞` (the standard backward-error style bound).
    /// NaN when an entry of `x`, `b` or the residual is not finite, so a
    /// `residual < tol` check fails on a NaN or infinite solution.
    pub fn residual_norm(&self, x: &[T], b: &[T]) -> f64 {
        let ax = self.matvec(x);
        // One pass. `f64::max` drops NaN, so NaN is tracked apart: the sum
        // of three magnitudes is NaN exactly when one of them is.
        let (mut rinf, mut xinf, mut binf, mut nan) = (0.0f64, 0.0f64, 0.0f64, false);
        for ((&xi, &bi), &axi) in x.iter().zip(b).zip(&ax) {
            let (r, xm, bm) = ((bi - axi).magnitude(), xi.magnitude(), bi.magnitude());
            rinf = rinf.max(r);
            xinf = xinf.max(xm);
            binf = binf.max(bm);
            nan |= (r + xm + bm).is_nan();
        }
        if nan || !(rinf.is_finite() && xinf.is_finite() && binf.is_finite()) {
            return f64::NAN;
        }
        rinf / (self.inf_norm() * xinf + binf).max(f64::MIN_POSITIVE)
    }

    /// Infinity norm of the (implied full) matrix.
    pub fn inf_norm(&self) -> f64 {
        let mut row_sums = vec![0.0f64; self.n];
        for j in 0..self.n {
            for (&i, &v) in self.rows_of(j).iter().zip(self.vals_of(j)) {
                let i = i as usize;
                let a = v.magnitude();
                row_sums[i] += a;
                if i != j {
                    row_sums[j] += a;
                }
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Applies a symmetric permutation: entry `(i, j)` of the result equals
    /// entry `(perm[i], perm[j])` of `self`. `O(nnz + n)`: the permuted
    /// [`LowerPattern`], then a gather of the values through it.
    pub fn permuted(&self, p: &Permutation) -> SymCsc<T> {
        assert_eq!(p.len(), self.n);
        LowerPattern::permuted(self.n, &self.colptr, &self.rowind, Some(p)).gather(|e| self.values[e])
    }

    /// Replaces the diagonal so the matrix becomes strictly diagonally
    /// dominant (hence SPD for real data): `a_jj = Σ_{i≠j} |a_ij| + shift`.
    pub fn make_diag_dominant(&mut self, shift: f64) {
        let mut sums = vec![0.0f64; self.n];
        for j in 0..self.n {
            for (&i, &v) in self.rows_of(j).iter().zip(self.vals_of(j)) {
                let i = i as usize;
                if i != j {
                    let a = v.magnitude();
                    sums[i] += a;
                    sums[j] += a;
                }
            }
        }
        for j in 0..self.n {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            // Diagonal is the first entry of the column when present.
            let mut found = false;
            for idx in lo..hi {
                if self.rowind[idx] as usize == j {
                    self.values[idx] = T::from_f64(sums[j] + shift);
                    found = true;
                    break;
                }
            }
            assert!(found, "column {j} lacks a diagonal entry");
        }
    }
}

/// Builds the right-hand side `b = A·x_exact` for a prescribed exact
/// solution; the canonical way to validate a direct solver end to end.
pub fn rhs_for_solution<T: Scalar>(a: &SymCsc<T>, x_exact: &[T]) -> Vec<T> {
    a.matvec(x_exact)
}

/// The canonical test solution `x(i) = 1 + i mod 7 − 3·(i mod 3)`,
/// deterministic and with both signs represented.
pub fn canonical_solution<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(1.0 + (i % 7) as f64 - 3.0 * (i % 3) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SymCsc<f64> {
        // [ 4 1 0 ]
        // [ 1 5 2 ]
        // [ 0 2 6 ]
        SymCsc::from_triplets(
            3,
            &[(0, 0, 4.0), (1, 0, 1.0), (1, 1, 5.0), (2, 1, 2.0), (2, 2, 6.0)],
        )
    }

    #[test]
    fn triplets_sum_duplicates_and_mirror() {
        let a = SymCsc::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        // (0,1) mirrors onto (1,0): 2 + 3 = 5.
        assert_eq!(a.get(1, 0), 5.0);
        assert_eq!(a.get(0, 1), 5.0);
        assert_eq!(a.nnz_stored(), 3);
    }

    #[test]
    fn matvec_symmetric() {
        let a = tiny();
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![5.0, 8.0, 8.0]);
    }

    #[test]
    fn get_either_triangle() {
        let a = tiny();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn graph_strips_diagonal() {
        let g = tiny().to_graph();
        g.validate().unwrap();
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn permuted_matches_get() {
        let a = tiny();
        let p = Permutation::from_perm(vec![2, 0, 1]);
        let b = a.permuted(&p);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), a.get(p.old_of(i), p.old_of(j)), "({i},{j})");
            }
        }
    }

    #[test]
    fn diag_dominance() {
        let mut a = tiny();
        a.make_diag_dominant(0.5);
        assert_eq!(a.get(0, 0), 1.5); // |1| + 0.5
        assert_eq!(a.get(1, 1), 3.5); // |1| + |2| + 0.5
        assert_eq!(a.get(2, 2), 2.5);
    }

    #[test]
    fn inf_norm() {
        let a = tiny();
        // Row sums: 5, 8, 8.
        assert_eq!(a.inf_norm(), 8.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = tiny();
        let x = canonical_solution::<f64>(3);
        let b = rhs_for_solution(&a, &x);
        assert!(a.residual_norm(&x, &b) < 1e-15);
    }

    #[test]
    fn residual_of_a_nan_solution_is_nan() {
        let a = tiny();
        let b = rhs_for_solution(&a, &canonical_solution::<f64>(3));
        assert!(a.residual_norm(&[f64::NAN; 3], &b).is_nan(), "all-NaN x");
        let mut x = canonical_solution::<f64>(3);
        x[2] = f64::NAN;
        assert!(a.residual_norm(&x, &b).is_nan(), "one NaN entry");
    }

    #[test]
    fn nnz_offdiag_counts_lower_offdiagonal() {
        assert_eq!(tiny().nnz_offdiag(), 2);
    }
}
