//! Property-based tests of the symbolic phase on random graphs: the block
//! structures must agree exactly with the scalar symbolic factorization,
//! and every transformation (amalgamation, splitting) must preserve the
//! documented invariants.

use pastix_graph::{CsrGraph, Permutation};
use pastix_symbolic::{
    amalgamate, analyze, block_symbolic, col_counts, etree, fundamental_supernodes, opc, postorder,
    split_symbol, AmalgamationOptions, AnalysisOptions, Blok, SupernodePartition, NO_PARENT,
};
use pastix_testsupport::reference_patterns;
use proptest::prelude::*;

fn random_graph(n: usize, edges: Vec<(u32, u32)>) -> CsrGraph {
    let edges: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(u, v)| (u % n as u32, v % n as u32))
        .filter(|(u, v)| u != v)
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// The ordering that sends vertex `v` to the rank of `keys[v]`.
fn ordering(n: usize, keys: &[u64]) -> Permutation {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (keys[v as usize], v));
    Permutation::from_perm(order)
}

/// `g0` postordered (so supernodes are contiguous), its elimination tree
/// and its column counts.
fn postordered(g0: &CsrGraph) -> (CsrGraph, Vec<u32>, Vec<u64>) {
    let g = g0.permuted(&postorder(&etree(g0)));
    let parent = etree(&g);
    let counts = col_counts(&g, &parent);
    (g, parent, counts)
}

/// Reference bloks of a partition, all column blocks in order: the
/// diagonal block, then the union of the scalar patterns of the columns
/// below it, in maximal runs that each face one column block.
fn reference_bloks(g: &CsrGraph, part: &SupernodePartition) -> Vec<Blok> {
    let pat = reference_patterns(g);
    let mut bloks = Vec::new();
    for k in 0..part.len() {
        let (fcol, lcol) = (part.first_col(k) as u32, part.end_col(k) as u32 - 1);
        let rows: std::collections::BTreeSet<u32> =
            pat[fcol as usize..=lcol as usize].iter().flatten().copied().filter(|&i| i > lcol).collect();
        bloks.push(Blok { frow: fcol, lrow: lcol, fcblk: k as u32 });
        for i in rows {
            let s = part.supernode_of(i as usize) as u32;
            match bloks.last_mut() {
                Some(b) if b.lrow + 1 == i && b.fcblk == s && b.frow > lcol => b.lrow = i,
                _ => bloks.push(Blok { frow: i, lrow: i, fcblk: s }),
            }
        }
    }
    bloks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn col_counts_match_dense_reference_under_any_ordering(
        n in 1usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..100),
        keys in prop::collection::vec(0u64..1 << 20, 40),
    ) {
        // Random orderings leave the tree unpostordered, sparse draws make
        // forests, and every edge goes in twice: duplicates count once.
        let twice = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        let g = random_graph(n, twice).permuted(&ordering(n, &keys));
        let want: Vec<u64> = reference_patterns(&g).iter().map(|p| p.len() as u64 + 1).collect();
        prop_assert_eq!(col_counts(&g, &etree(&g)), want);
    }

    #[test]
    fn block_symbolic_matches_scalar_patterns(
        n in 1usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        keys in prop::collection::vec(0u64..1 << 20, 40),
        ratio in 0.0f64..0.5,
        min_width in 1usize..12,
    ) {
        let (g, parent, counts) = postordered(&random_graph(n, edges).permuted(&ordering(n, &keys)));
        let fund = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(&fund, &AmalgamationOptions { fill_ratio: ratio, min_width });
        for part in [fund, am] {
            let sym = block_symbolic(&g, &part);
            sym.validate().unwrap();
            prop_assert_eq!(sym.bloks, reference_bloks(&g, &part));
        }
    }

    #[test]
    fn analyze_equals_the_pipeline_on_the_permuted_graph(
        n in 1usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        keys in prop::collection::vec(0u64..1 << 20, 40),
    ) {
        // `analyze` never builds the permuted graph; the public pieces on
        // the built one must give the same artifacts.
        let g = random_graph(n, edges);
        let an = analyze(&g, &ordering(n, &keys), &AnalysisOptions::default());
        let (gp, parent, counts) = postordered(&g.permuted(&an.perm));
        prop_assert_eq!(&gp, &g.permuted(&an.perm), "analyze's order is not postordered");
        let part = amalgamate(&fundamental_supernodes(&parent, &counts), &AmalgamationOptions::default());
        prop_assert_eq!(&an.partition, &part);
        prop_assert_eq!(&an.symbol, &block_symbolic(&gp, &part));
        prop_assert_eq!(an.scalar_nnz_offdiag, counts.iter().map(|&c| c - 1).sum::<u64>());
        prop_assert_eq!(an.scalar_opc.to_bits(), opc(&counts).to_bits());
    }

    #[test]
    fn block_structure_is_exact_on_fundamental_partition(
        n in 2usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        let (g, parent, counts) = postordered(&random_graph(n, edges));
        let part = fundamental_supernodes(&parent, &counts);
        part.validate(n).unwrap();
        let sym = block_symbolic(&g, &part);
        sym.validate().unwrap();
        // Exactness: block NNZ_L == scalar NNZ_L and OPC matches.
        let scalar_off: u64 = counts.iter().map(|&c| c - 1).sum();
        prop_assert_eq!(sym.nnz().nnz_offdiag, scalar_off);
        prop_assert!((sym.opc() - opc(&counts)).abs() < 1e-6 * opc(&counts).max(1.0));
    }

    #[test]
    fn amalgamation_only_pads(
        n in 2usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        ratio in 0.0f64..0.5,
        min_width in 1usize..12,
    ) {
        let (g, parent, counts) = postordered(&random_graph(n, edges));
        let fund = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(&fund, &AmalgamationOptions { fill_ratio: ratio, min_width });
        am.validate(n).unwrap();
        prop_assert!(am.len() <= fund.len());
        let sym_f = block_symbolic(&g, &fund);
        let sym_a = block_symbolic(&g, &am);
        sym_a.validate().unwrap();
        // Amalgamation can only add explicit zeros (the per-merge ratio is
        // checked at merge time; across chained merges the ratios compound,
        // so no tight global bound exists — monotonicity is the invariant).
        prop_assert!(sym_a.nnz().nnz_offdiag >= sym_f.nnz().nnz_offdiag);
        // With a zero ratio and min_width 1 nothing would merge; in general
        // the padded structure still loses nothing of the original.
        prop_assert!(sym_a.nnz().stored_entries >= sym_f.nnz().nnz_offdiag);
    }

    #[test]
    fn splitting_preserves_structure(
        n in 2usize..35,
        edges in prop::collection::vec((0u32..35, 0u32..35), 0..100),
        width in 1usize..8,
    ) {
        let (g, parent, counts) = postordered(&random_graph(n, edges));
        let fund = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(&fund, &AmalgamationOptions::default());
        let sym = block_symbolic(&g, &am);
        let split = split_symbol(&sym, width);
        split.symbol.validate().unwrap();
        prop_assert_eq!(split.symbol.nnz().nnz_offdiag, sym.nnz().nnz_offdiag);
        prop_assert!((split.symbol.opc() - sym.opc()).abs() < 1e-6 * sym.opc().max(1.0));
        for cb in &split.symbol.cblks {
            prop_assert!(cb.width() <= width);
        }
    }

    #[test]
    fn block_etree_consistent_with_scalar_etree(
        n in 2usize..30,
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..80),
    ) {
        let (g, parent, counts) = postordered(&random_graph(n, edges));
        let part = fundamental_supernodes(&parent, &counts);
        let sym = block_symbolic(&g, &part);
        let bt = sym.block_etree();
        // The supernode of parent(last col of s) must be the block parent.
        for (s, &bp) in bt.iter().enumerate() {
            let last = sym.cblks[s].lcol as usize;
            match parent[last] {
                NO_PARENT => prop_assert_eq!(bp, NO_PARENT),
                p => prop_assert_eq!(bp as usize, sym.cblk_of_col(p as usize)),
            }
        }
    }
}
