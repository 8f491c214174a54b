//! Lower-triangular CSC patterns by counting sort.
//!
//! [`LowerPattern`] is the lower CSC pattern of a list of entries — the
//! stored entries of a matrix under a symmetric permutation, or a triplet
//! list — together with, for every position of the pattern, the index of
//! the entry that lands there. It is built in `O(nnz + n)` by two counting
//! passes: the first buckets the entries by row, the second walks the rows
//! in ascending order into their columns. Every column therefore comes out
//! sorted with no comparison sort and no per-column allocation, and entries
//! that land on the same position stay in input order.
//!
//! Values are not part of the pattern: [`LowerPattern::gather`] reads them
//! through it, so one pattern serves every matrix with the same structure.

use crate::matrix::SymCsc;
use crate::perm::Permutation;
use pastix_kernels::scalar::Scalar;

/// Lower CSC pattern plus, per position, the input entry it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerPattern {
    colptr: Vec<usize>,
    rowind: Vec<u32>,
    src: Vec<u32>,
    duplicates: bool,
}

/// The arrays of one counting build, allocated ahead of it. A caller that
/// runs the build on another thread allocates them on its own, so the
/// build allocates nothing and the pattern's memory, scratch included,
/// comes from the caller's allocator arena, as if it had built it there.
#[derive(Debug, Default)]
pub struct PatternArrays {
    rowptr: Vec<usize>,
    colptr: Vec<usize>,
    next: Vec<usize>,
    by_row: Vec<(u32, u32)>,
    rowind: Vec<u32>,
    src: Vec<u32>,
}

impl PatternArrays {
    /// Room for a pattern of order `n` over `m` entries.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            rowptr: Vec::with_capacity(n + 1),
            colptr: Vec::with_capacity(n + 1),
            next: Vec::with_capacity(n + 1),
            by_row: Vec::with_capacity(m),
            rowind: Vec::with_capacity(m),
            src: Vec::with_capacity(m),
        }
    }
}

/// `v` as `len` copies of `x`, in `v`'s own room when it has enough.
fn filled<T: Clone>(mut v: Vec<T>, len: usize, x: T) -> Vec<T> {
    if v.capacity() < len {
        return vec![x; len];
    }
    v.clear();
    v.resize(len, x);
    v
}

impl LowerPattern {
    /// The pattern of `P·A·Pᵀ` for the lower CSC pattern `(colptr, rowind)`
    /// of order `n` (`p: None` is the identity). `src` indexes the stored
    /// entries of `A`, so position `k` holds `A.values()[src[k]]`. A stored
    /// entry above the diagonal is mirrored onto the lower triangle.
    pub fn permuted(n: usize, colptr: &[usize], rowind: &[u32], p: Option<&Permutation>) -> Self {
        Self::permuted_in(n, colptr, rowind, p, PatternArrays::default())
    }

    /// [`permuted`](Self::permuted) into `arrays`: no allocation when they
    /// hold room for `n` and `rowind.len()` entries.
    pub fn permuted_in(
        n: usize,
        colptr: &[usize],
        rowind: &[u32],
        p: Option<&Permutation>,
        arrays: PatternArrays,
    ) -> Self {
        assert_eq!(colptr.len(), n + 1, "colptr must have n + 1 entries");
        if let Some(p) = p {
            assert_eq!(p.len(), n, "permutation order != matrix order");
        }
        Self::counting(n, &Permuted { colptr, rowind, invp: p.map(|p| p.invp()) }, arrays)
    }

    /// The two counting passes over `entries`, after one that counts them
    /// by row and by column, in `arrays`.
    pub(crate) fn counting(n: usize, entries: &(impl Positions + ?Sized), arrays: PatternArrays) -> Self {
        let PatternArrays { rowptr, colptr, next, by_row, rowind, src } = arrays;
        let mut rowptr = filled(rowptr, n + 1, 0);
        let mut colptr = filled(colptr, n + 1, 0);
        entries.each(|i, j| {
            assert!((i as usize) < n, "row {i} out of range");
            rowptr[i as usize + 1] += 1;
            colptr[j as usize + 1] += 1;
        });
        for v in 0..n {
            rowptr[v + 1] += rowptr[v];
            colptr[v + 1] += colptr[v];
        }
        let m = colptr[n];
        assert!(m <= u32::MAX as usize, "{m} entries: more than a pattern indexes");
        // First pass: bucket by row, in input order: (column, entry).
        let mut next = filled(next, n + 1, 0);
        next.copy_from_slice(&rowptr);
        let mut by_row = filled(by_row, m, (0u32, 0u32));
        let mut e = 0u32;
        entries.each(|i, j| {
            let slot = &mut next[i as usize];
            by_row[*slot] = (j, e);
            *slot += 1;
            e += 1;
        });
        // Second pass: the rows in ascending order into their columns.
        next.copy_from_slice(&colptr);
        let (mut rowind, mut src) = (filled(rowind, m, 0u32), filled(src, m, 0u32));
        for i in 0..n {
            for &(j, e) in &by_row[rowptr[i]..rowptr[i + 1]] {
                let pos = &mut next[j as usize];
                rowind[*pos] = i as u32;
                src[*pos] = e;
                *pos += 1;
            }
        }
        let duplicates = (0..n).any(|j| rowind[colptr[j]..colptr[j + 1]].windows(2).any(|w| w[0] == w[1]));
        Self { colptr, rowind, src, duplicates }
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Column pointers (`n + 1` entries).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index of every position, sorted within each column.
    #[inline]
    pub fn rowind(&self) -> &[u32] {
        &self.rowind
    }

    /// Input entry of every position.
    #[inline]
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// The matrix on this pattern whose position `k` holds
    /// `value(src[k])`, entries on one position summed in input order.
    pub fn gather<T: Scalar>(self, value: impl Fn(usize) -> T) -> SymCsc<T> {
        let n = self.n();
        if !self.duplicates {
            let values = self.src.iter().map(|&e| value(e as usize)).collect();
            return SymCsc::from_parts(n, self.colptr, self.rowind, values);
        }
        let mut colptr = vec![0usize; n + 1];
        let mut rowind: Vec<u32> = Vec::with_capacity(self.rowind.len());
        let mut values: Vec<T> = Vec::with_capacity(self.rowind.len());
        for j in 0..n {
            let first = rowind.len();
            for k in self.colptr[j]..self.colptr[j + 1] {
                let (i, v) = (self.rowind[k], value(self.src[k] as usize));
                if rowind.len() > first && rowind.last() == Some(&i) {
                    *values.last_mut().expect("a value per row") += v;
                } else {
                    rowind.push(i);
                    values.push(v);
                }
            }
            colptr[j + 1] = rowind.len();
        }
        SymCsc::from_parts(n, colptr, rowind, values)
    }
}

/// Entries as lower-triangle positions `(row ≥ col)`, visited in input
/// order — the same sequence on every visit.
pub(crate) trait Positions {
    /// Calls `f(row, col)` for every entry.
    fn each(&self, f: impl FnMut(u32, u32));
}

/// Position `(i, j)` mirrored onto the lower triangle.
#[inline]
fn lower(i: u32, j: u32) -> (u32, u32) {
    if i >= j { (i, j) } else { (j, i) }
}

/// Triplets `(row, col, value)`, mirrored.
impl<T> Positions for [(u32, u32, T)] {
    fn each(&self, mut f: impl FnMut(u32, u32)) {
        for &(r, c, _) in self {
            let (i, j) = lower(r, c);
            f(i, j);
        }
    }
}

/// The stored entries of a lower CSC pattern, renumbered by `invp`
/// (`None`: the identity) and mirrored.
struct Permuted<'a> {
    colptr: &'a [usize],
    rowind: &'a [u32],
    invp: Option<&'a [u32]>,
}

impl Positions for Permuted<'_> {
    fn each(&self, mut f: impl FnMut(u32, u32)) {
        let new = |i: u32| self.invp.map_or(i, |invp| invp[i as usize]);
        for (j, w) in self.colptr.windows(2).enumerate() {
            let nj = new(j as u32);
            for &i in &self.rowind[w[0]..w[1]] {
                let (ni, nj) = lower(new(i), nj);
                f(ni, nj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of_positions(n: usize, entries: &[(u32, u32)]) -> LowerPattern {
        let trips: Vec<(u32, u32, ())> = entries.iter().map(|&(r, c)| (r, c, ())).collect();
        LowerPattern::counting(n, trips.as_slice(), PatternArrays::default())
    }

    #[test]
    fn columns_come_out_sorted_with_sources() {
        // Entries given out of order, one above the diagonal.
        let p = of_positions(3, &[(2, 0), (0, 0), (1, 2), (1, 0), (2, 2)]);
        assert_eq!(p.colptr(), &[0, 3, 4, 5]);
        assert_eq!(p.rowind(), &[0, 1, 2, 2, 2]);
        assert_eq!(p.src(), &[1, 3, 0, 2, 4]);
        assert!(!p.duplicates);
    }

    #[test]
    fn duplicates_sum_in_input_order() {
        // 1e16 + 1 − 1e16 is 0 in input order and 1 in an order that
        // cancels the big terms first.
        let trips = [(1u32, 0u32, 1e16f64), (0, 1, 1.0), (1, 0, -1e16)];
        let pos: Vec<(u32, u32)> = trips.iter().map(|t| (t.0, t.1)).collect();
        let p = of_positions(2, &pos);
        assert!(p.duplicates);
        assert_eq!(p.src(), &[0, 1, 2]);
        let a = p.gather(|e| trips[e].2);
        assert_eq!(a.nnz_stored(), 1);
        assert_eq!(a.get(1, 0).to_bits(), ((1e16f64 + 1.0) - 1e16).to_bits());
    }

    #[test]
    fn permuted_pattern_indexes_the_source() {
        // [ 4 1 0 ]
        // [ 1 5 2 ]
        // [ 0 2 6 ]
        let (colptr, rowind) = (vec![0, 2, 4, 5], vec![0u32, 1, 1, 2, 2]);
        let p = Permutation::from_perm(vec![2, 0, 1]);
        let pat = LowerPattern::permuted(3, &colptr, &rowind, Some(&p));
        for j in 0..3 {
            for k in pat.colptr()[j]..pat.colptr()[j + 1] {
                let i = pat.rowind()[k] as usize;
                let e = pat.src()[k] as usize;
                let col = colptr.partition_point(|&c| c <= e) - 1;
                let (oi, oj) = (p.old_of(i), p.old_of(j));
                assert_eq!((rowind[e] as usize, col), (oi.max(oj), oi.min(oj)), "({i}, {j})");
            }
        }
    }

    /// A build into reserved arrays writes the pattern into them and is
    /// the default build, bit for bit.
    #[test]
    fn a_build_into_reserved_arrays_fills_them() {
        let (colptr, rowind) = (vec![0, 3, 5, 6, 7], vec![0u32, 1, 3, 1, 2, 2, 3]);
        let p = Permutation::from_perm(vec![3, 0, 2, 1]);
        let arrays = PatternArrays::with_capacity(4, rowind.len());
        let room = (arrays.colptr.as_ptr(), arrays.rowind.as_ptr(), arrays.src.as_ptr());
        let pat = LowerPattern::permuted_in(4, &colptr, &rowind, Some(&p), arrays);
        assert_eq!((pat.colptr.as_ptr(), pat.rowind.as_ptr(), pat.src.as_ptr()), room);
        assert_eq!(pat, LowerPattern::permuted(4, &colptr, &rowind, Some(&p)));
    }
}
