//! # pastix-symbolic
//!
//! The block symbolic factorization phase of the PaStiX reproduction:
//! elimination tree, postordering, column counts, fundamental supernodes,
//! relaxed amalgamation and the block symbol matrix (column blocks with one
//! dense diagonal block and sorted off-diagonal blocks), plus the
//! column-block splitting used by the repartitioning step.
//!
//! [`analyze`] runs the whole phase for a given graph and fill-reducing
//! permutation and returns the final (postordered) permutation together
//! with the symbol matrix and the scalar statistics the paper's Table 1
//! reports. Its first step, [`postordered`], fixes that permutation on its
//! own, so a caller can start work numbered by it before the rest,
//! [`analyze_postordered`], finishes.

#![warn(missing_docs)]

pub mod etree;
pub mod split;
pub mod supernodes;
pub mod symbol;

pub use etree::{col_counts, etree, nnz_l, opc, postorder, NO_PARENT};
pub use split::{split_symbol, SplitSymbol};
pub use supernodes::{amalgamate, fundamental_supernodes, AmalgamationOptions, SupernodePartition};
pub use symbol::{block_symbolic, Blok, CBlk, SymbolMatrix, SymbolNnz, SymbolShape};

use pastix_graph::{CsrGraph, Parallelism, Permutation};

/// Options of the symbolic analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Relaxed amalgamation knobs.
    pub amalgamation: AmalgamationOptions,
    /// Accepted for symmetry with the ordering and scheduling options and
    /// ignored: after the ordering, the symbolic phase costs `O(|A|)` and
    /// runs on the calling thread.
    pub parallelism: Parallelism,
}

/// Output of [`analyze`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The final permutation: the input ordering composed with the etree
    /// postorder (postordering preserves fill and makes supernodes
    /// contiguous).
    pub perm: Permutation,
    /// Supernode partition after amalgamation.
    pub partition: SupernodePartition,
    /// Block structure of the factor.
    pub symbol: SymbolMatrix,
    /// Scalar factor statistics **before** amalgamation — the exact values
    /// the paper's Table 1 reports ("the values of the metrics come from
    /// scalar column symbolic factorization").
    pub scalar_nnz_offdiag: u64,
    /// Scalar operation count (`(c_j + 1)²` convention).
    pub scalar_opc: f64,
}

/// Runs the symbolic phase: postorders the elimination tree, detects and
/// amalgamates supernodes, and computes the block symbolic factorization.
/// It is [`postordered`] followed by [`analyze_postordered`].
///
/// ```
/// use pastix_graph::{CsrGraph, Permutation};
/// use pastix_symbolic::{analyze, AnalysisOptions};
/// let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let a = analyze(&g, &Permutation::identity(5), &AnalysisOptions::default());
/// a.symbol.validate().unwrap();
/// // A path graph fills in nothing: NNZ_L equals the edge count.
/// assert_eq!(a.scalar_nnz_offdiag, 4);
/// ```
pub fn analyze(g: &CsrGraph, ordering: &Permutation, opts: &AnalysisOptions) -> Analysis {
    analyze_postordered(g, &postordered(g, ordering), opts)
}

/// The elimination tree of a graph under an ordering, postordered: the
/// first step of [`analyze`], which fixes the final permutation.
#[derive(Debug, Clone)]
pub struct Postordered {
    /// The ordering composed with the tree's postorder: [`Analysis::perm`].
    pub perm: Permutation,
    /// Elimination-tree parent of every column, in `perm`'s numbering
    /// ([`NO_PARENT`] for roots).
    pub parent: Vec<u32>,
}

/// Computes the elimination tree of `g` under `ordering` and postorders
/// it, so supernodes are contiguous column ranges. The tree of the
/// postordered pattern is the first one relabelled (identity is its
/// postorder), so no second tree is computed.
pub fn postordered(g: &CsrGraph, ordering: &Permutation) -> Postordered {
    assert_eq!(g.n(), ordering.len());
    let parent0 = etree::etree_permuted(g, ordering);
    let post = postorder(&parent0);
    Postordered { perm: ordering.then(&post), parent: etree::relabel_tree(&parent0, &post) }
}

/// The rest of [`analyze`] after [`postordered`]: column counts,
/// supernodes, amalgamation and the block symbol, all numbered by
/// `post.perm`.
pub fn analyze_postordered(g: &CsrGraph, post: &Postordered, opts: &AnalysisOptions) -> Analysis {
    let Postordered { perm, parent } = post;
    // Counts and bloks need only the strictly lower half of the permuted
    // pattern, in any row order: one unsorted pass builds it.
    let (ptr, idx) = lower_rows(g, perm);
    let rows = |j: usize| idx[ptr[j]..ptr[j + 1]].iter().map(|&i| i as usize);
    let counts = etree::counts_of_rows(parent, |k| k, rows);
    let (_, scalar_nnz_offdiag) = nnz_l(&counts);
    let scalar_opc = opc(&counts);
    let fund = fundamental_supernodes(parent, &counts);
    let partition = amalgamate(&fund, &opts.amalgamation);
    let symbol = symbol::symbol_of_rows(g.n(), &partition, rows);
    Analysis {
        perm: perm.clone(),
        partition,
        symbol,
        scalar_nnz_offdiag,
        scalar_opc,
    }
}

/// The strictly lower structure of `g` renumbered by `perm`: column `j`'s
/// rows `i > j` are `idx[ptr[j]..ptr[j + 1]]`, unsorted.
fn lower_rows(g: &CsrGraph, perm: &Permutation) -> (Vec<usize>, Vec<u32>) {
    let mut ptr = Vec::with_capacity(g.n() + 1);
    ptr.push(0);
    let mut idx = Vec::with_capacity(g.adjncy().len() / 2);
    for j in 0..g.n() {
        let row = g.neighbors(perm.old_of(j)).iter().map(|&i| perm.new_of(i as usize) as u32);
        idx.extend(row.filter(|&i| i as usize > j));
        ptr.push(idx.len());
    }
    (ptr, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_testsupport::grid_graph as grid;

    #[test]
    fn analyze_identity_ordering() {
        let g = grid(6, 6);
        let a = analyze(&g, &Permutation::identity(36), &AnalysisOptions::default());
        assert!(a.perm.validate());
        a.symbol.validate().unwrap();
        a.partition.validate(36).unwrap();
        // Amalgamated block NNZ is >= scalar NNZ (padding only adds).
        assert!(a.symbol.nnz().nnz_offdiag >= a.scalar_nnz_offdiag);
    }

    #[test]
    fn postorder_composition_preserves_fill() {
        // The scalar NNZ under `analyze` (which postorders) must equal the
        // scalar NNZ of the raw ordering: postordering is fill-invariant.
        let g = grid(7, 5);
        let id_perm = Permutation::identity(35);
        let gp = g.permuted(&id_perm);
        let parent = etree(&gp);
        let counts = col_counts(&gp, &parent);
        let (_, raw_off) = nnz_l(&counts);
        let a = analyze(&g, &id_perm, &AnalysisOptions::default());
        assert_eq!(a.scalar_nnz_offdiag, raw_off);
    }

    #[test]
    fn amalgamation_reduces_cblk_count() {
        let g = grid(12, 12);
        let loose = analyze(
            &g,
            &Permutation::identity(144),
            &AnalysisOptions {
                amalgamation: AmalgamationOptions { fill_ratio: 0.3, min_width: 16 },
                ..Default::default()
            },
        );
        let strict = analyze(
            &g,
            &Permutation::identity(144),
            &AnalysisOptions {
                amalgamation: AmalgamationOptions { fill_ratio: 0.0, min_width: 0 },
                ..Default::default()
            },
        );
        assert!(loose.symbol.n_cblks() <= strict.symbol.n_cblks());
        assert!(loose.symbol.nnz().nnz_offdiag >= strict.symbol.nnz().nnz_offdiag);
    }
}
