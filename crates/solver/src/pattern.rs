//! The value path from `A` into the factor storage.
//!
//! A factorization reads `P·A·Pᵀ`'s lower triangle column by column in
//! elimination order. [`ScatterPattern`] is its structure: the
//! [`LowerPattern`] of `A`'s pattern under the plan's permutation — for
//! every entry, its row and where its value sits in `A.values()` — checked
//! once against the split symbol. A [`Plan`](crate::Plan) builds it on its
//! first factorization and keeps it; a later factorization of a matrix
//! with the same `(colptr, rowind)` reads `A`'s values straight through
//! it, so no permuted copy of `A` is made on any backend.

use crate::storage::BlokCursor;
use pastix_graph::pattern::LowerPattern;
use pastix_graph::{Permutation, SymCsc};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_symbolic::SymbolMatrix;

/// `P·A·Pᵀ`'s lower pattern for one pattern of `A`, inside a split symbol.
#[derive(Debug, Clone)]
pub struct ScatterPattern {
    /// The pattern of `A` it was built from, the only one it serves.
    source_colptr: Vec<usize>,
    source_rowind: Vec<u32>,
    lower: LowerPattern,
}

impl ScatterPattern {
    /// Builds `P·A·Pᵀ`'s pattern (`perm: None` is the identity) in
    /// `O(nnz + n)` and checks that every entry falls inside `sym`'s block
    /// structure. The first entry outside it — or a matrix of another
    /// order — is a [`FactorError::PatternMismatch`] in `A`'s numbering.
    pub fn build<T: Scalar>(a: &SymCsc<T>, perm: Option<&Permutation>, sym: &SymbolMatrix) -> Result<Self, FactorError> {
        let n = sym.n;
        if a.n() != n {
            let first_missing = a.n().min(n);
            return Err(FactorError::PatternMismatch { row: first_missing, col: first_missing });
        }
        let (colptr, rowind) = (a.colptr(), a.rowind());
        if let Some(e) = rowind.iter().position(|&i| i as usize >= n) {
            return Err(mismatch_at(colptr, rowind, e));
        }
        let lower = LowerPattern::permuted(n, colptr, rowind, perm);
        if let Some(k) = first_outside(&lower, sym) {
            return Err(mismatch_at(colptr, rowind, lower.src()[k] as usize));
        }
        Ok(Self { source_colptr: colptr.to_vec(), source_rowind: rowind.to_vec(), lower })
    }

    /// `true` when `a`'s pattern is exactly the one this was built from.
    pub fn matches<T: Scalar>(&self, a: &SymCsc<T>) -> bool {
        self.source_colptr == a.colptr() && self.source_rowind == a.rowind()
    }

    /// `a`'s values read through this pattern (`a` must match it).
    pub(crate) fn entries<'a, T: Scalar>(&'a self, a: &'a SymCsc<T>) -> Entries<'a, T> {
        debug_assert!(self.matches(a), "pattern built for another matrix");
        Entries { colptr: self.lower.colptr(), rowind: self.lower.rowind(), src: Some(self.lower.src()), values: a.values() }
    }
}

/// [`FactorError::PatternMismatch`] at `A`'s stored entry `e`.
fn mismatch_at(colptr: &[usize], rowind: &[u32], e: usize) -> FactorError {
    let col = colptr.partition_point(|&c| c <= e) - 1;
    FactorError::PatternMismatch { row: rowind[e] as usize, col }
}

/// The first position of `lower`, in column order, that falls outside
/// `sym`'s block structure.
fn first_outside(lower: &LowerPattern, sym: &SymbolMatrix) -> Option<usize> {
    let (colptr, rowind) = (lower.colptr(), lower.rowind());
    for (k, cb) in sym.cblks.iter().enumerate() {
        for j in cb.fcol as usize..=cb.lcol as usize {
            let mut cursor = BlokCursor::new(sym, k);
            if let Some(t) = rowind[colptr[j]..colptr[j + 1]].iter().position(|&i| cursor.try_seek(i).is_none()) {
                return Some(colptr[j] + t);
            }
        }
    }
    None
}

/// `P·A·Pᵀ`'s lower triangle as a scatter reads it, column by column: the
/// arrays of a permuted copy, or `A`'s values through a [`ScatterPattern`].
#[derive(Clone, Copy)]
pub(crate) struct Entries<'a, T> {
    colptr: &'a [usize],
    rowind: &'a [u32],
    /// Where each entry's value sits in `values` (`None`: at the entry).
    src: Option<&'a [u32]>,
    values: &'a [T],
}

impl<'a, T: Scalar> Entries<'a, T> {
    /// The entries of an already permuted matrix.
    pub(crate) fn of(ap: &'a SymCsc<T>) -> Self {
        Entries { colptr: ap.colptr(), rowind: ap.rowind(), src: None, values: ap.values() }
    }

    /// Column `j`'s rows in ascending order, with their values. A row
    /// repeats when `A` stored two entries on one position; the scatter
    /// sums the repeats in order, as [`SymCsc::from_triplets`] does.
    #[inline]
    pub(crate) fn column(&self, j: usize) -> impl Iterator<Item = (u32, T)> + 'a {
        let range = self.colptr[j]..self.colptr[j + 1];
        let (src, values) = (self.src, self.values);
        self.rowind[range.clone()]
            .iter()
            .zip(range)
            .map(move |(&i, k)| (i, values[src.map_or(k, |s| s[k] as usize)]))
    }
}
