//! The symbol matrix and its block symbolic factorization.
//!
//! Following the real PaStiX data structure: the factor `L` is a list of
//! `N` **column blocks** ([`CBlk`]), each owning one dense diagonal block
//! and a sorted list of dense off-diagonal blocks ([`Blok`]), every block
//! being a row interval that faces exactly one column block. The block
//! symbolic factorization computes this structure from the supernode
//! partition in quasi-linear time (Charrier–Roman): the structure of column
//! block `k` is the interval-union of its sub-diagonal `A`-structure and of
//! the structures of the column blocks whose first off-diagonal block faces
//! `k` (its children in the block elimination tree).

use crate::etree::NO_PARENT;
use crate::supernodes::SupernodePartition;
use pastix_graph::CsrGraph;

/// One dense off-diagonal block: rows `frow..=lrow`, facing column block
/// `fcblk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blok {
    /// First row of the block.
    pub frow: u32,
    /// Last row (inclusive).
    pub lrow: u32,
    /// Column block this row interval faces.
    pub fcblk: u32,
}

impl Blok {
    /// Number of rows in the block.
    #[inline]
    pub fn nrows(&self) -> usize {
        (self.lrow - self.frow + 1) as usize
    }
}

/// One column block: columns `fcol..=lcol`, blocks `blok_range` into
/// [`SymbolMatrix::bloks`] (the first being the diagonal block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CBlk {
    /// First column.
    pub fcol: u32,
    /// Last column (inclusive).
    pub lcol: u32,
    /// Index of the first block (the diagonal block) in the blok array.
    pub blok_start: usize,
    /// One past the last block.
    pub blok_end: usize,
}

impl CBlk {
    /// Column count of the block.
    #[inline]
    pub fn width(&self) -> usize {
        (self.lcol - self.fcol + 1) as usize
    }
}

/// Block structure of the factor `L`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolMatrix {
    /// Matrix order (scalar columns).
    pub n: usize,
    /// Column blocks, ascending by column range.
    pub cblks: Vec<CBlk>,
    /// All blocks; each column block's blocks are contiguous, sorted by
    /// row, starting with the diagonal block.
    pub bloks: Vec<Blok>,
}

impl SymbolMatrix {
    /// Number of column blocks.
    #[inline]
    pub fn n_cblks(&self) -> usize {
        self.cblks.len()
    }

    /// Blocks of column block `k`, diagonal block first.
    #[inline]
    pub fn bloks_of(&self, k: usize) -> &[Blok] {
        &self.bloks[self.cblks[k].blok_start..self.cblks[k].blok_end]
    }

    /// Off-diagonal blocks of column block `k`.
    #[inline]
    pub fn off_bloks_of(&self, k: usize) -> &[Blok] {
        &self.bloks[self.cblks[k].blok_start + 1..self.cblks[k].blok_end]
    }

    /// Rows strictly below the diagonal block of column block `k`.
    pub fn offrows(&self, k: usize) -> usize {
        self.off_bloks_of(k).iter().map(|b| b.nrows()).sum()
    }

    /// Column block containing scalar column `j`.
    pub fn cblk_of_col(&self, j: usize) -> usize {
        self.cblks.partition_point(|c| c.fcol as usize <= j).saturating_sub(1)
    }

    /// Finds the blok of column block `k` whose row interval contains
    /// `[frow, lrow]` (the diagonal block included). Panics when absent —
    /// factor structures are nested, so a missing cover is a logic error.
    pub fn covering_blok(&self, k: usize, frow: u32, lrow: u32) -> usize {
        let cb = &self.cblks[k];
        let bloks = &self.bloks[cb.blok_start..cb.blok_end];
        let lo = bloks.partition_point(|b| b.frow <= frow).saturating_sub(1);
        let b = &bloks[lo];
        assert!(
            b.frow <= frow && lrow <= b.lrow,
            "rows [{frow},{lrow}] not covered by cblk {k} (found [{},{}])",
            b.frow,
            b.lrow
        );
        cb.blok_start + lo
    }

    /// Column block that owns global blok `b` (binary search on
    /// `blok_start`, the inverse of the `cblk.blok_start..blok_end`
    /// ranges).
    pub fn owner_of_blok(&self, b: usize) -> usize {
        debug_assert!(b < self.bloks.len());
        self.cblks.partition_point(|c| c.blok_start <= b).saturating_sub(1)
    }

    /// Whether global blok `b` is a candidate for low-rank compression
    /// purely from the block symbol: an off-diagonal blok whose row count
    /// and owning column-block width both reach `min_block`. Diagonal
    /// bloks are never compressible (the `L·D·Lᵀ` pivot path needs them
    /// dense), and small blocks cannot amortize the `U·Vᵀ` bookkeeping.
    pub fn blok_compressible(&self, b: usize, min_block: usize) -> bool {
        let k = self.owner_of_blok(b);
        let cb = &self.cblks[k];
        b != cb.blok_start
            && self.bloks[b].nrows() >= min_block
            && cb.width() >= min_block
    }

    /// Block elimination tree: `parent[k]` is the facing column block of
    /// `k`'s first off-diagonal block ([`NO_PARENT`] for roots).
    pub fn block_etree(&self) -> Vec<u32> {
        self.cblks
            .iter()
            .enumerate()
            .map(|(k, _)| match self.off_bloks_of(k).first() {
                Some(b) => b.fcblk,
                None => NO_PARENT,
            })
            .collect()
    }

    /// Factor nonzero count `NNZ_L` with the paper's convention
    /// (off-diagonal terms of the triangular part), plus the total stored
    /// entries (including the dense-block padding and diagonal).
    pub fn nnz(&self) -> SymbolNnz {
        let mut off = 0u64;
        let mut stored = 0u64;
        for k in 0..self.n_cblks() {
            let w = self.cblks[k].width() as u64;
            let h = self.offrows(k) as u64;
            off += w * (w - 1) / 2 + w * h;
            stored += w * w + w * h; // solver stores the full diagonal square
        }
        SymbolNnz {
            nnz_offdiag: off,
            stored_entries: stored,
        }
    }

    /// Factorization operation count (`OPC`) with the `(c_j + 1)²`
    /// convention, computed per scalar column from the block structure.
    pub fn opc(&self) -> f64 {
        let mut total = 0.0;
        for k in 0..self.n_cblks() {
            let w = self.cblks[k].width() as u64;
            let h = self.offrows(k) as u64;
            for t in 0..w {
                let cj = (w - 1 - t) + h;
                total += ((cj + 1) * (cj + 1)) as f64;
            }
        }
        total
    }

    /// Structural validation (tests): intervals sorted and disjoint, within
    /// the facing block's column range, diagonal block first.
    pub fn validate(&self) -> Result<(), String> {
        if self.cblks.is_empty() {
            return if self.n == 0 { Ok(()) } else { Err("no cblks".into()) };
        }
        let mut expect_col = 0u32;
        for (k, cb) in self.cblks.iter().enumerate() {
            if cb.fcol != expect_col {
                return Err(format!("cblk {k} starts at {} expected {expect_col}", cb.fcol));
            }
            if cb.lcol < cb.fcol {
                return Err(format!("cblk {k} empty"));
            }
            expect_col = cb.lcol + 1;
            let bloks = self.bloks_of(k);
            if bloks.is_empty() {
                return Err(format!("cblk {k} has no diagonal block"));
            }
            let d = bloks[0];
            if d.frow != cb.fcol || d.lrow != cb.lcol || d.fcblk as usize != k {
                return Err(format!("cblk {k} diagonal block malformed"));
            }
            let mut prev_end = d.lrow;
            for b in &bloks[1..] {
                if b.frow <= prev_end {
                    return Err(format!("cblk {k} blocks overlap or unsorted"));
                }
                let f = &self.cblks[b.fcblk as usize];
                if b.frow < f.fcol || b.lrow > f.lcol {
                    return Err(format!(
                        "cblk {k} block [{},{}] escapes facing cblk {}",
                        b.frow, b.lrow, b.fcblk
                    ));
                }
                prev_end = b.lrow;
            }
        }
        if expect_col as usize != self.n {
            return Err("cblks do not cover all columns".into());
        }
        Ok(())
    }
}

/// Factor counts reported by [`SymbolMatrix::nnz`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolNnz {
    /// Off-diagonal entries of the triangular factor (paper's `NNZ_L`).
    pub nnz_offdiag: u64,
    /// Entries the solver will actually allocate (dense blocks).
    pub stored_entries: u64,
}

/// Shape statistics of a symbol matrix — the block granularity the
/// repartitioning step controls and the solver's BLAS efficiency depends
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolShape {
    /// Number of column blocks.
    pub n_cblks: usize,
    /// Number of blocks (diagonal blocks included).
    pub n_bloks: usize,
    /// Widest column block.
    pub max_width: usize,
    /// Mean column-block width.
    pub mean_width: f64,
    /// Tallest off-diagonal block.
    pub max_blok_rows: usize,
    /// Mean off-diagonal block height.
    pub mean_blok_rows: f64,
    /// Mean off-diagonal blocks per column block.
    pub mean_bloks_per_cblk: f64,
}

impl SymbolMatrix {
    /// Computes the [`SymbolShape`] statistics.
    pub fn shape(&self) -> SymbolShape {
        let n_cblks = self.n_cblks();
        let mut max_width = 0usize;
        let mut sum_width = 0usize;
        let mut max_rows = 0usize;
        let mut sum_rows = 0usize;
        let mut n_off = 0usize;
        for k in 0..n_cblks {
            let w = self.cblks[k].width();
            max_width = max_width.max(w);
            sum_width += w;
            for b in self.off_bloks_of(k) {
                let h = b.nrows();
                max_rows = max_rows.max(h);
                sum_rows += h;
                n_off += 1;
            }
        }
        SymbolShape {
            n_cblks,
            n_bloks: self.bloks.len(),
            max_width,
            mean_width: if n_cblks > 0 { sum_width as f64 / n_cblks as f64 } else { 0.0 },
            max_blok_rows: max_rows,
            mean_blok_rows: if n_off > 0 { sum_rows as f64 / n_off as f64 } else { 0.0 },
            mean_bloks_per_cblk: if n_cblks > 0 { n_off as f64 / n_cblks as f64 } else { 0.0 },
        }
    }
}

/// Computes the block symbolic factorization of the permuted pattern `g`
/// (adjacency in elimination order) over the supernode partition.
pub fn block_symbolic(g: &CsrGraph, part: &SupernodePartition) -> SymbolMatrix {
    symbol_of_rows(g.n(), part, |j| g.neighbors(j).iter().map(|&i| i as usize))
}

/// [`block_symbolic`] over `row(j)`, the neighbours of column `j` in any
/// order. One pass over the column blocks, bottom-up: the structure of
/// `k` (its rows below `lcol(k)` as sorted disjoint maximal intervals) is
/// the union of its `A` rows and of its children's off-diagonal bloks
/// clipped to rows below `lcol(k)`, and is split into bloks as soon as it
/// is known. Children sit in an intrusive list (a union does not depend
/// on the merge order); the merge runs through one row buffer and two
/// interval buffers sized once, so only the blok array grows.
pub(crate) fn symbol_of_rows<R: ExactSizeIterator<Item = usize>>(
    n: usize,
    part: &SupernodePartition,
    row: impl Fn(usize) -> R,
) -> SymbolMatrix {
    const NONE: u32 = u32::MAX;
    let ns = part.len();
    // Supernode of each column, and the most `A` entries one gathers.
    let mut sn_of = vec![0u32; n];
    let mut max_gather = 0;
    for s in 0..ns {
        sn_of[part.first_col(s)..part.end_col(s)].fill(s as u32);
        max_gather = max_gather.max((part.first_col(s)..part.end_col(s)).map(|j| row(j).len()).sum());
    }
    // Children of `k`: the cblks whose first off-diagonal blok faces it,
    // linked through `next_kid`.
    let mut first_kid = vec![NONE; ns];
    let mut next_kid = vec![NONE; ns];
    let mut rows: Vec<u32> = Vec::with_capacity(max_gather);
    // A structure has at most one maximal interval per two rows.
    let mut cur: Vec<(u32, u32)> = Vec::with_capacity(n.div_ceil(2));
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(n.div_ceil(2));
    let mut cblks: Vec<CBlk> = Vec::with_capacity(ns);
    let mut bloks: Vec<Blok> = Vec::new();
    for k in 0..ns {
        let fcol = part.first_col(k) as u32;
        let lcol = (part.end_col(k) - 1) as u32;
        rows.clear();
        for j in fcol as usize..=lcol as usize {
            rows.extend(row(j).filter(|&i| i > lcol as usize).map(|i| i as u32));
        }
        rows.sort_unstable();
        cur.clear();
        for &r in &rows {
            push_interval(&mut cur, (r, r));
        }
        let mut c = first_kid[k];
        while c != NONE {
            let kid = &cblks[c as usize];
            let kid = &bloks[kid.blok_start + 1..kid.blok_end];
            let below = &kid[kid.partition_point(|b| b.lrow <= lcol)..];
            union_clipped(&cur, below, lcol + 1, &mut merged);
            std::mem::swap(&mut cur, &mut merged);
            c = next_kid[c as usize];
        }
        if let Some(&(f, _)) = cur.first() {
            let p = sn_of[f as usize] as usize;
            next_kid[k] = first_kid[p];
            first_kid[p] = k as u32;
        }
        // Bloks: the diagonal block, then the structure split at supernode
        // boundaries so each block faces exactly one column block.
        let blok_start = bloks.len();
        bloks.push(Blok { frow: fcol, lrow: lcol, fcblk: k as u32 });
        for &(f, l) in &cur {
            let mut r = f;
            while r <= l {
                let s = sn_of[r as usize] as usize;
                let stop = l.min((part.end_col(s) - 1) as u32);
                bloks.push(Blok { frow: r, lrow: stop, fcblk: s as u32 });
                r = stop + 1;
            }
        }
        cblks.push(CBlk { fcol, lcol, blok_start, blok_end: bloks.len() });
    }
    SymbolMatrix { n, cblks, bloks }
}

/// Appends `iv` to a sorted interval list, coalescing it with the last
/// interval when they overlap or touch.
fn push_interval(out: &mut Vec<(u32, u32)>, iv: (u32, u32)) {
    match out.last_mut() {
        Some((_, l)) if *l as u64 + 1 >= iv.0 as u64 => *l = (*l).max(iv.1),
        _ => out.push(iv),
    }
}

/// `out = a ∪ b` for a sorted interval list `a` and sorted bloks `b`, the
/// rows of `b` below `lo` dropped (every blok of `b` must end at or after
/// `lo`).
fn union_clipped(a: &[(u32, u32)], b: &[Blok], lo: u32, out: &mut Vec<(u32, u32)>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].frow.max(lo));
        if take_a {
            push_interval(out, a[i]);
            i += 1;
        } else {
            push_interval(out, (b[j].frow.max(lo), b[j].lrow));
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_testsupport::grid_graph as grid;
    use crate::etree::{col_counts, etree};
    use crate::supernodes::fundamental_supernodes;

    fn symbol_for(g: &CsrGraph) -> (SymbolMatrix, Vec<u64>) {
        let parent = etree(g);
        let counts = col_counts(g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        (block_symbolic(g, &sn), counts)
    }

    #[test]
    fn interval_helpers() {
        let mut out = Vec::new();
        for r in [1, 2, 2, 3, 7, 9, 10] {
            push_interval(&mut out, (r, r));
        }
        assert_eq!(out, vec![(1, 3), (7, 7), (9, 10)]);
        let bloks = |ivs: &[(u32, u32)]| -> Vec<Blok> {
            ivs.iter().map(|&(frow, lrow)| Blok { frow, lrow, fcblk: 0 }).collect()
        };
        union_clipped(&[(1, 3), (8, 9)], &bloks(&[(2, 5), (7, 7), (11, 12)]), 0, &mut out);
        assert_eq!(out, vec![(1, 5), (7, 9), (11, 12)]);
        union_clipped(&[], &bloks(&[(0, 0)]), 0, &mut out);
        assert_eq!(out, vec![(0, 0)]);
        // Rows of the bloks below `lo` are dropped; touching bloks coalesce.
        union_clipped(&[(9, 9)], &bloks(&[(2, 5), (6, 7)]), 4, &mut out);
        assert_eq!(out, vec![(4, 7), (9, 9)]);
    }

    #[test]
    fn symbol_validates_on_grids() {
        for g in [grid(4, 4), grid(6, 3), grid(5, 5)] {
            let (sym, _) = symbol_for(&g);
            sym.validate().unwrap();
        }
    }

    #[test]
    fn block_nnz_matches_scalar_counts_on_fundamental_partition() {
        // On the *fundamental* supernode partition the block structure is
        // exact: NNZ_L from the symbol must equal the scalar column counts.
        for g in [grid(4, 4), grid(5, 3), grid(7, 2)] {
            let (sym, counts) = symbol_for(&g);
            let scalar_off: u64 = counts.iter().map(|&c| c - 1).sum();
            assert_eq!(sym.nnz().nnz_offdiag, scalar_off);
        }
    }

    #[test]
    fn block_opc_matches_scalar_opc() {
        for g in [grid(4, 4), grid(3, 6)] {
            let (sym, counts) = symbol_for(&g);
            let scalar_opc = crate::etree::opc(&counts);
            assert!((sym.opc() - scalar_opc).abs() < 1e-9);
        }
    }

    #[test]
    fn blok_ownership_and_compressibility() {
        let (sym, _) = symbol_for(&grid(6, 6));
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            for b in cb.blok_start..cb.blok_end {
                assert_eq!(sym.owner_of_blok(b), k, "blok {b}");
                // Diagonal bloks are never compressible.
                if b == cb.blok_start {
                    assert!(!sym.blok_compressible(b, 1));
                } else {
                    // At min_block 1 every off-diagonal blok qualifies;
                    // the dims gate matches the symbol exactly.
                    assert!(sym.blok_compressible(b, 1));
                    let want = sym.bloks[b].nrows() >= 2 && cb.width() >= 2;
                    assert_eq!(sym.blok_compressible(b, 2), want, "blok {b}");
                }
            }
        }
        // A threshold larger than any block keeps everything dense.
        assert!((0..sym.bloks.len()).all(|b| !sym.blok_compressible(b, sym.n + 1)));
    }

    #[test]
    fn block_etree_parents_are_later() {
        let (sym, _) = symbol_for(&grid(6, 6));
        let bt = sym.block_etree();
        for (k, &p) in bt.iter().enumerate() {
            if p != NO_PARENT {
                assert!(p as usize > k);
            }
        }
    }

    #[test]
    fn cblk_of_col_lookup() {
        let (sym, _) = symbol_for(&grid(5, 4));
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            for j in cb.fcol..=cb.lcol {
                assert_eq!(sym.cblk_of_col(j as usize), k);
            }
        }
    }

    #[test]
    fn diagonal_matrix_symbol() {
        let g = CsrGraph::from_edges(3, &[]);
        let (sym, _) = symbol_for(&g);
        sym.validate().unwrap();
        assert_eq!(sym.nnz().nnz_offdiag, 0);
        for k in 0..sym.n_cblks() {
            assert!(sym.off_bloks_of(k).is_empty());
        }
    }

    #[test]
    fn shape_statistics() {
        let (sym, _) = symbol_for(&grid(6, 6));
        let sh = sym.shape();
        assert_eq!(sh.n_cblks, sym.n_cblks());
        assert_eq!(sh.n_bloks, sym.bloks.len());
        assert!(sh.max_width >= 1);
        assert!(sh.mean_width >= 1.0 && sh.mean_width <= sh.max_width as f64);
        // Splitting a wide symbol tightens max_width.
        let split = crate::split::split_symbol(&sym, 2);
        assert!(split.symbol.shape().max_width <= 2);
    }

    #[test]
    fn dense_clique_single_cblk() {
        let (sym, _) = symbol_for(&pastix_testsupport::clique_graph(5));
        assert_eq!(sym.n_cblks(), 1);
        assert_eq!(sym.bloks.len(), 1);
        sym.validate().unwrap();
    }
}
