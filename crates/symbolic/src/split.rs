//! Column-block splitting (the paper's "block repartitioning").
//!
//! *"The column blocks corresponding to large supernodes are split using
//! the blocking size suitable to achieve BLAS efficiency"* — and, for the
//! 2D distribution of the uppermost supernodes, the splitting is what
//! creates the block grid that FACTOR / BDIV / BMOD tasks operate on.
//!
//! Splitting refines the column partition; every existing block is sliced
//! at the new boundaries of its facing column block, so no symbolic
//! refactorization is needed and the result is exactly the symbol matrix
//! the finer partition would have produced.

use crate::symbol::{Blok, CBlk, SymbolMatrix};

/// Result of [`split_symbol`]: the refined symbol plus the mapping back to
/// the original supernodes.
#[derive(Debug, Clone)]
pub struct SplitSymbol {
    /// The refined symbol matrix.
    pub symbol: SymbolMatrix,
    /// For each new column block, the original column block it came from.
    pub orig_cblk: Vec<u32>,
    /// For each original column block, the range of new column blocks.
    pub new_range: Vec<(u32, u32)>,
}

/// Splits every column block wider than `max_width` into near-equal chunks
/// of width at most `max_width`.
pub fn split_symbol(sym: &SymbolMatrix, max_width: usize) -> SplitSymbol {
    assert!(max_width >= 1);
    // New column partition boundaries.
    let mut new_fcols: Vec<u32> = Vec::with_capacity(sym.n_cblks());
    let mut orig_cblk: Vec<u32> = Vec::new();
    let mut new_range: Vec<(u32, u32)> = Vec::with_capacity(sym.n_cblks());
    for (k, cb) in sym.cblks.iter().enumerate() {
        let w = cb.width();
        let chunks = w.div_ceil(max_width);
        let base = w / chunks;
        let extra = w % chunks; // first `extra` chunks get one more column
        let lo = new_fcols.len() as u32;
        let mut col = cb.fcol;
        for c in 0..chunks {
            let cw = base + usize::from(c < extra);
            new_fcols.push(col);
            orig_cblk.push(k as u32);
            col += cw as u32;
        }
        debug_assert_eq!(col, cb.lcol + 1);
        new_range.push((lo, new_fcols.len() as u32));
    }
    let nsn = new_fcols.len();
    // End columns.
    let end_col = |t: usize| -> u32 {
        if t + 1 < nsn {
            new_fcols[t + 1] - 1
        } else {
            (sym.n - 1) as u32
        }
    };
    // Column → new cblk map.
    let mut new_of_col = vec![0u32; sym.n];
    for t in 0..nsn {
        for j in new_fcols[t]..=end_col(t) {
            new_of_col[j as usize] = t as u32;
        }
    }

    let mut cblks: Vec<CBlk> = Vec::with_capacity(nsn);
    let mut bloks: Vec<Blok> = Vec::new();
    for (k, _cb) in sym.cblks.iter().enumerate() {
        let (lo, hi) = new_range[k];
        for t in lo..hi {
            let t = t as usize;
            let fcol = new_fcols[t];
            let lcol = end_col(t);
            let blok_start = bloks.len();
            // Diagonal block of the chunk.
            bloks.push(Blok {
                frow: fcol,
                lrow: lcol,
                fcblk: t as u32,
            });
            // Intra-supernode sub-diagonal blocks: the chunk's columns are
            // dense against every later chunk of the same original cblk.
            for t2 in (t + 1)..hi as usize {
                bloks.push(Blok {
                    frow: new_fcols[t2],
                    lrow: end_col(t2),
                    fcblk: t2 as u32,
                });
            }
            // Original off-diagonal blocks, sliced at the facing cblk's new
            // internal boundaries.
            for b in sym.off_bloks_of(k) {
                let mut r = b.frow;
                while r <= b.lrow {
                    let t2 = new_of_col[r as usize] as usize;
                    let stop = b.lrow.min(end_col(t2));
                    bloks.push(Blok {
                        frow: r,
                        lrow: stop,
                        fcblk: t2 as u32,
                    });
                    r = stop + 1;
                }
            }
            cblks.push(CBlk {
                fcol,
                lcol,
                blok_start,
                blok_end: bloks.len(),
            });
        }
    }
    SplitSymbol {
        symbol: SymbolMatrix {
            n: sym.n,
            cblks,
            bloks,
        },
        orig_cblk,
        new_range,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{col_counts, etree};
    use crate::supernodes::{amalgamate, fundamental_supernodes, AmalgamationOptions};
    use crate::symbol::block_symbolic;
    use pastix_graph::CsrGraph;
    use pastix_testsupport::grid_graph as grid;

    fn make_symbol(g: &CsrGraph) -> SymbolMatrix {
        let parent = etree(g);
        let counts = col_counts(g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(&sn, &AmalgamationOptions::default());
        block_symbolic(g, &am)
    }

    #[test]
    fn split_preserves_validity_and_nnz() {
        let sym = make_symbol(&grid(8, 8));
        for width in [1, 2, 4, 16, 1000] {
            let split = split_symbol(&sym, width);
            split.symbol.validate().unwrap();
            assert_eq!(split.symbol.nnz().nnz_offdiag, sym.nnz().nnz_offdiag, "width {width}");
            // OPC changes (the split adds block granularity but the scalar
            // column structure is identical).
            assert!((split.symbol.opc() - sym.opc()).abs() < 1e-9);
        }
    }

    #[test]
    fn no_split_when_already_narrow() {
        let sym = make_symbol(&grid(5, 5));
        let maxw = sym.cblks.iter().map(|c| c.width()).max().unwrap();
        let split = split_symbol(&sym, maxw);
        assert_eq!(split.symbol.n_cblks(), sym.n_cblks());
        assert_eq!(split.symbol, sym.clone());
    }

    #[test]
    fn widths_bounded_and_balanced() {
        let sym = make_symbol(&grid(10, 10));
        let split = split_symbol(&sym, 3);
        for (t, cb) in split.symbol.cblks.iter().enumerate() {
            assert!(cb.width() <= 3, "cblk {t} too wide");
        }
        // Chunks of one original cblk differ in width by at most 1.
        for &(lo, hi) in &split.new_range {
            let ws: Vec<usize> = (lo..hi).map(|t| split.symbol.cblks[t as usize].width()).collect();
            let mn = *ws.iter().min().unwrap();
            let mx = *ws.iter().max().unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn orig_mapping_consistent() {
        let sym = make_symbol(&grid(9, 7));
        let split = split_symbol(&sym, 2);
        assert_eq!(split.orig_cblk.len(), split.symbol.n_cblks());
        for (t, &k) in split.orig_cblk.iter().enumerate() {
            let cb_new = &split.symbol.cblks[t];
            let cb_old = &sym.cblks[k as usize];
            assert!(cb_new.fcol >= cb_old.fcol && cb_new.lcol <= cb_old.lcol);
            let (lo, hi) = split.new_range[k as usize];
            assert!((t as u32) >= lo && (t as u32) < hi);
        }
    }

    #[test]
    fn intra_supernode_blocks_are_dense_chain() {
        // A dense clique splits into chunks where chunk t has blocks facing
        // every later chunk, full height.
        let g = pastix_testsupport::clique_graph(9);
        let sym = make_symbol(&g);
        assert_eq!(sym.n_cblks(), 1);
        let split = split_symbol(&sym, 3);
        split.symbol.validate().unwrap();
        assert_eq!(split.symbol.n_cblks(), 3);
        assert_eq!(split.symbol.bloks_of(0).len(), 3); // diag + 2
        assert_eq!(split.symbol.bloks_of(1).len(), 2);
        assert_eq!(split.symbol.bloks_of(2).len(), 1);
    }
}
