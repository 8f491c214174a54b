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
//! reports.

#![warn(missing_docs)]

pub mod etree;
pub mod split;
pub mod supernodes;
pub mod symbol;

pub use etree::{col_counts, col_counts_par, etree, nnz_l, opc, postorder, NO_PARENT};
pub use split::{split_symbol, SplitSymbol};
pub use supernodes::{amalgamate, fundamental_supernodes, AmalgamationOptions, SupernodePartition};
pub use symbol::{block_symbolic, block_symbolic_par, Blok, CBlk, SymbolMatrix, SymbolNnz, SymbolShape};

use pastix_graph::{CsrGraph, Parallelism, Permutation};

/// Options of the symbolic analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Relaxed amalgamation knobs.
    pub amalgamation: AmalgamationOptions,
    /// Parallelism of the column-count and block-symbolic passes. Never
    /// changes the symbol — only wall-clock time.
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
    assert_eq!(g.n(), ordering.len());
    // Compute the etree under the input ordering, postorder it, and permute
    // once so supernodes are contiguous column ranges; the tree of the
    // postordered graph is the first one relabelled.
    let parent0 = etree::etree_permuted(g, ordering);
    let post = postorder(&parent0);
    let perm = ordering.then(&post);
    let gp = g.permuted(&perm);
    let parent = etree::relabel_tree(&parent0, &post);
    let threads = opts.parallelism.effective_threads();
    let counts = col_counts_par(&gp, &parent, threads);
    // The scalar Table-1 statistics and the supernode chain both depend
    // only on `counts` — overlap them when threads are available.
    let compute_stats = || {
        let (_, off) = nnz_l(&counts);
        (off, opc(&counts))
    };
    let compute_partition = || {
        let fund = fundamental_supernodes(&parent, &counts);
        amalgamate(&fund, &opts.amalgamation)
    };
    let ((scalar_nnz_offdiag, scalar_opc), partition) = if threads > 1 {
        rayon::join(compute_stats, compute_partition)
    } else {
        (compute_stats(), compute_partition())
    };
    let symbol = block_symbolic_par(&gp, &partition, threads);
    Analysis {
        perm,
        partition,
        symbol,
        scalar_nnz_offdiag,
        scalar_opc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::CsrGraph;

    fn grid(nx: usize, ny: usize) -> CsrGraph {
        let mut e = Vec::new();
        let id = |x: usize, y: usize| (x + nx * y) as u32;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    e.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < ny {
                    e.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        CsrGraph::from_edges(nx * ny, &e)
    }

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
