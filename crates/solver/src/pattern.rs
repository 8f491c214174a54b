//! The value path from `A` into the factor storage.
//!
//! A factorization reads `P·A·Pᵀ`'s lower triangle column by column in
//! elimination order. [`ScatterPattern`] is its structure: the
//! [`LowerPattern`] of `A`'s pattern under the plan's permutation — for
//! every entry, its row and where its value sits in `A.values()` — checked
//! once against the block symbol. [`Plan::analyze`](crate::Plan::analyze)
//! builds the analyzed matrix's pattern beside its own serial stages (a
//! plan from [`Plan::from_parts`](crate::Plan::from_parts) builds one on
//! its first factorization) and the plan keeps it; a factorization of a
//! matrix with the same `(colptr, rowind)` reads `A`'s values straight
//! through it, so no permuted copy of `A` is made on any backend.

use crate::storage::BlokCursor;
use pastix_graph::pattern::{LowerPattern, PatternArrays};
use pastix_graph::{Permutation, SymCsc};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_symbolic::SymbolMatrix;

/// `P·A·Pᵀ`'s lower pattern for one pattern of `A`, inside a split symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        let built = Self::permuted(a, perm, sym.n, PatternRoom::default())?;
        built.check(sym)?;
        Ok(built)
    }

    /// The first half of [`build`](Self::build): `P·A·Pᵀ`'s pattern for a
    /// matrix of order `n`, not yet checked against a symbol, in `room`. A
    /// matrix of another order is the error.
    pub(crate) fn permuted<T: Scalar>(
        a: &SymCsc<T>,
        perm: Option<&Permutation>,
        n: usize,
        room: PatternRoom,
    ) -> Result<Self, FactorError> {
        if a.n() != n {
            let first_missing = a.n().min(n);
            return Err(FactorError::PatternMismatch { row: first_missing, col: first_missing });
        }
        let (colptr, rowind) = (a.colptr(), a.rowind());
        if let Some(e) = rowind.iter().position(|&i| i as usize >= n) {
            return Err(mismatch_at(colptr, rowind, e));
        }
        let PatternRoom { lower, colptr: mut source_colptr, rowind: mut source_rowind } = room;
        let lower = LowerPattern::permuted_in(n, colptr, rowind, perm, lower);
        source_colptr.extend_from_slice(colptr);
        source_rowind.extend_from_slice(rowind);
        Ok(Self { source_colptr, source_rowind, lower })
    }

    /// The second half of [`build`](Self::build): the first entry outside
    /// `sym`'s block structure is the error. `sym` may be the split symbol
    /// or the unsplit one it was cut from, with one answer: splitting only
    /// cuts column blocks and keeps every column's rows
    /// ([`pastix_symbolic::split`]), so a position lies inside one exactly
    /// when it lies inside the other.
    pub(crate) fn check(&self, sym: &SymbolMatrix) -> Result<(), FactorError> {
        match first_outside(&self.lower, sym) {
            Some(k) => Err(mismatch_at(&self.source_colptr, &self.source_rowind, self.lower.src()[k] as usize)),
            None => Ok(()),
        }
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

/// The arrays of one [`ScatterPattern`] build, allocated ahead of it by a
/// caller that runs the build on another thread ([`PatternArrays`]).
#[derive(Debug, Default)]
pub(crate) struct PatternRoom {
    lower: PatternArrays,
    colptr: Vec<usize>,
    rowind: Vec<u32>,
}

impl PatternRoom {
    /// Room for `a`'s pattern: the build allocates nothing.
    pub(crate) fn of<T: Scalar>(a: &SymCsc<T>) -> Self {
        let (colptr, rowind) = (a.colptr(), a.rowind());
        Self {
            lower: PatternArrays::with_capacity(a.n(), rowind.len()),
            colptr: Vec::with_capacity(colptr.len()),
            rowind: Vec::with_capacity(rowind.len()),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::try_blok_of;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_symbolic::{analyze, split_symbol, AnalysisOptions};

    /// The check gives one answer against the unsplit symbol and against
    /// every split of it: `Ok` for the analyzed matrix, and the same
    /// `PatternMismatch` for that matrix plus one entry outside the
    /// structure.
    #[test]
    fn unsplit_and_split_checks_agree() {
        let a = grid_spd::<f64>(12, 10, 1, Stencil::Star, false, ValueKind::RandomSpd(2));
        let g = a.to_graph();
        let an = analyze(&g, &pastix_ordering::nested_dissection(&g, &Default::default()), &AnalysisOptions::default());
        let (sym, perm, n) = (&an.symbol, &an.perm, a.n());
        // A lower position of `A` whose place in elimination order the
        // symbol leaves out.
        let (row, col) = (0..n)
            .flat_map(|col| (col + 1..n).map(move |row| (row, col)))
            .find(|&(row, col)| {
                let (i, j) = (perm.new_of(row), perm.new_of(col));
                try_blok_of(sym, sym.cblk_of_col(i.min(j)), i.max(j) as u32).is_none()
            })
            .expect("a sparse factor leaves positions out");
        let mut t: Vec<(u32, u32, f64)> = (0..n)
            .flat_map(|j| a.rows_of(j).iter().zip(a.vals_of(j)).map(move |(&i, &v)| (i, j as u32, v)))
            .collect();
        t.push((row as u32, col as u32, -0.5));
        let wider = SymCsc::from_triplets(n, &t);
        for (m, want) in [(&a, Ok(())), (&wider, Err(FactorError::PatternMismatch { row, col }))] {
            let built = ScatterPattern::permuted(m, Some(perm), n, PatternRoom::default()).expect("order n");
            assert_eq!(built.check(sym), want, "unsplit");
            for width in [1, 2, 3, 5, n] {
                assert_eq!(built.check(&split_symbol(sym, width).symbol), want, "split at width {width}");
            }
        }
    }
}
