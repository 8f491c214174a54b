//! Scalar elimination tree, postordering and column counts.
//!
//! These are the classical building blocks under the block symbolic
//! factorization: Liu's elimination-tree algorithm with path compression,
//! a depth-first postorder (which makes supernodes occupy consecutive
//! columns without changing fill), and the Gilbert–Ng–Peyton column counts
//! that yield `|L(:,j)|` in `O(|A|·α)` time, without visiting `L`.
//!
//! The graph handed to these functions must already be permuted into
//! elimination order (vertex `j` is eliminated at step `j`). None of them
//! depends on the order of a row's entries, so [`crate::analyze`] never
//! sorts a permuted copy of the graph.

use pastix_graph::{CsrGraph, Permutation};

/// Sentinel for "no parent" (tree roots).
pub const NO_PARENT: u32 = u32::MAX;

/// Computes the elimination tree of a symmetric pattern given as an
/// adjacency graph in elimination order. `parent[j]` is the etree parent of
/// column `j`, or [`NO_PARENT`] for roots.
pub fn etree(g: &CsrGraph) -> Vec<u32> {
    etree_of_rows(g.n(), |j| g.neighbors(j).iter().map(|&i| i as usize))
}

/// [`etree`] of `g.permuted(p)` without building that graph.
pub(crate) fn etree_permuted(g: &CsrGraph, p: &Permutation) -> Vec<u32> {
    etree_of_rows(g.n(), |j| g.neighbors(p.old_of(j)).iter().map(|&i| p.new_of(i as usize)))
}

/// Liu's algorithm over `row(j)`, the neighbours of column `j` (those at
/// or after `j` are ignored).
fn etree_of_rows<R: Iterator<Item = usize>>(n: usize, row: impl Fn(usize) -> R) -> Vec<u32> {
    let mut parent = vec![NO_PARENT; n];
    // Virtual ancestors with path compression.
    let mut ancestor = vec![NO_PARENT; n];
    for j in 0..n {
        for mut i in row(j) {
            if i >= j {
                continue;
            }
            // Climb from i to the current root, compressing to j.
            loop {
                let next = ancestor[i];
                ancestor[i] = j as u32;
                if next == NO_PARENT {
                    parent[i] = j as u32;
                    break;
                }
                if next as usize == j {
                    break;
                }
                i = next as usize;
            }
        }
    }
    parent
}

/// The elimination tree after the vertices are renumbered by `post`
/// (`new = post.new_of(old)`): a relabelling, no second [`etree`].
pub(crate) fn relabel_tree(parent: &[u32], post: &Permutation) -> Vec<u32> {
    let mut out = vec![NO_PARENT; parent.len()];
    for (v, &p) in parent.iter().enumerate() {
        if p != NO_PARENT {
            out[post.new_of(v)] = post.new_of(p as usize) as u32;
        }
    }
    out
}

/// Depth-first postorder of the elimination forest; returns a permutation
/// `post` such that `post.new_of(v)` is the postorder rank of vertex `v`.
/// Children are visited in ascending order, so an already-postordered tree
/// maps to the identity.
pub fn postorder(parent: &[u32]) -> Permutation {
    let n = parent.len();
    // Build child lists (ascending by construction).
    let mut first_child = vec![u32::MAX; n];
    let mut next_sibling = vec![u32::MAX; n];
    for v in (0..n).rev() {
        if parent[v] != NO_PARENT {
            next_sibling[v] = first_child[parent[v] as usize];
            first_child[parent[v] as usize] = v as u32;
        }
    }
    let mut post = vec![0u32; n];
    let mut rank = 0u32;
    // Iterative DFS from each root in ascending order, emitting on exit and
    // climbing back through `parent` (no stack); `first_child[v]` is
    // consumed as the cursor over v's children.
    for r in (0..n).filter(|&v| parent[v] == NO_PARENT) {
        let mut v = r;
        loop {
            let child = first_child[v];
            if child != u32::MAX {
                first_child[v] = next_sibling[child as usize];
                v = child as usize;
                continue;
            }
            post[v] = rank;
            rank += 1;
            if v == r {
                break;
            }
            v = parent[v] as usize;
        }
    }
    debug_assert_eq!(rank as usize, n);
    Permutation::from_invp(post)
}

/// Column counts of the Cholesky factor: `count[j] = |L(:,j)|` including
/// the diagonal, for the elimination tree `parent` of `g` (postordered or
/// not).
pub fn col_counts(g: &CsrGraph, parent: &[u32]) -> Vec<u64> {
    let post = postorder(parent);
    counts_of_rows(parent, |k| post.old_of(k), |j| g.neighbors(j).iter().map(|&i| i as usize))
}

/// Gilbert–Ng–Peyton column counts over `row(j)`, the neighbours of
/// column `j`; `order(k)` is the `k`-th vertex of a postorder of `parent`.
///
/// `L(i, j) ≠ 0` for `j < i` exactly when `j` lies in the row subtree of
/// `i`: the union of the tree paths from the leaves `{j < i : A(i,j) ≠ 0}`
/// up to `i`. Each column starts at 1 when it is a tree leaf; every
/// neighbour `j` that is a leaf of some row subtree `i` (its first
/// descendant lies beyond the last one seen for `i`) adds 1 at `j` and
/// takes 1 back at the least common ancestor of `j` and the previous leaf
/// of `i`, where the two paths meet; every non-root takes 1 back at its
/// parent. A count is the sum of these corrections over its subtree.
pub(crate) fn counts_of_rows<R: Iterator<Item = usize>>(
    parent: &[u32],
    order: impl Fn(usize) -> usize,
    row: impl Fn(usize) -> R,
) -> Vec<u64> {
    let n = parent.len();
    // Corrections sum in wrapping arithmetic: a column can go below zero
    // until its subtree is added in, and every final count is exact.
    let mut count = vec![0u64; n];
    // `first[j]`: 1 + postorder rank of the first descendant of `j`
    // (0 = not reached yet); `max_first[i]`: the largest `first` of a leaf
    // of row subtree `i` so far.
    let mut first = vec![0u32; n];
    for k in 0..n {
        let mut j = order(k);
        count[j] = u64::from(first[j] == 0);
        while first[j] == 0 {
            first[j] = k as u32 + 1;
            match parent[j] {
                NO_PARENT => break,
                p => j = p as usize,
            }
        }
    }
    let mut max_first = vec![0u32; n];
    let mut prev_leaf = vec![NO_PARENT; n];
    // Disjoint-set forest over the processed vertices, path-compressed.
    let mut ancestor: Vec<u32> = (0..n as u32).collect();
    for k in 0..n {
        let j = order(k);
        if parent[j] != NO_PARENT {
            count[parent[j] as usize] = count[parent[j] as usize].wrapping_sub(1);
        }
        for i in row(j) {
            if i <= j || first[j] <= max_first[i] {
                continue; // not a leaf of row subtree `i`
            }
            max_first[i] = first[j];
            count[j] = count[j].wrapping_add(1);
            let prev = std::mem::replace(&mut prev_leaf[i], j as u32);
            if prev != NO_PARENT {
                let mut q = prev as usize;
                while ancestor[q] as usize != q {
                    q = ancestor[q] as usize;
                }
                let mut s = prev as usize;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q as u32) as usize;
                }
                count[q] = count[q].wrapping_sub(1);
            }
        }
        if parent[j] != NO_PARENT {
            ancestor[j] = parent[j];
        }
    }
    for k in 0..n {
        let j = order(k);
        if parent[j] != NO_PARENT {
            count[parent[j] as usize] = count[parent[j] as usize].wrapping_add(count[j]);
        }
    }
    count
}

/// Total factor nonzeros `Σ count[j]` and off-diagonal count.
pub fn nnz_l(counts: &[u64]) -> (u64, u64) {
    let total: u64 = counts.iter().sum();
    (total, total - counts.len() as u64)
}

/// Factorization operation count with the `(c_j + 1)²` convention
/// (`c_j` = off-diagonal count of column `j`): the exact flop count of a
/// right-looking Cholesky, the convention behind the paper's `OPC` column.
pub fn opc(counts: &[u64]) -> f64 {
    counts
        .iter()
        .map(|&c| {
            let cj = (c - 1) as f64;
            (cj + 1.0) * (cj + 1.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_testsupport::{grid_graph as grid, reference_patterns};

    #[test]
    fn etree_of_path_is_chain() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = etree(&g);
        assert_eq!(p, vec![1, 2, 3, 4, NO_PARENT]);
    }

    #[test]
    fn etree_matches_reference_parent() {
        // parent(j) = min { i : L(i,j) != 0, i > j }.
        for g in [grid(4, 4), grid(5, 3)] {
            let parent = etree(&g);
            let pat = reference_patterns(&g);
            for j in 0..g.n() {
                let expect = pat[j].first().copied().unwrap_or(NO_PARENT);
                assert_eq!(parent[j], expect, "col {j}");
            }
        }
    }

    #[test]
    fn col_counts_match_reference() {
        for g in [grid(4, 4), grid(6, 2), grid(3, 7)] {
            let parent = etree(&g);
            let counts = col_counts(&g, &parent);
            let pat = reference_patterns(&g);
            for j in 0..g.n() {
                assert_eq!(counts[j], pat[j].len() as u64 + 1, "col {j}");
            }
        }
    }

    #[test]
    fn postorder_of_chain_is_identity() {
        let parent = vec![1, 2, 3, NO_PARENT];
        let post = postorder(&parent);
        assert_eq!(post.perm(), &[0, 1, 2, 3]);
    }

    #[test]
    fn postorder_is_valid_and_topological() {
        let g = grid(7, 5);
        let parent = etree(&g);
        let post = postorder(&parent);
        assert!(post.validate());
        // Parent must come after every vertex of its subtree.
        for v in 0..g.n() {
            if parent[v] != NO_PARENT {
                assert!(
                    post.new_of(parent[v] as usize) > post.new_of(v),
                    "postorder violates topology at {v}"
                );
            }
        }
    }

    #[test]
    fn shortcut_trees_equal_recomputed_ones() {
        // What `analyze` relies on: the tree under an ordering needs no
        // permuted graph, and the tree after postordering is a relabelling.
        let g = grid(9, 7);
        let shuffled: Vec<u32> = (0..63u32).map(|i| (i * 17 + 5) % 63).collect();
        let ordering = Permutation::from_perm(shuffled);
        let gp = g.permuted(&ordering);
        let parent0 = etree_permuted(&g, &ordering);
        assert_eq!(parent0, etree(&gp));
        // The tree is not postordered, which the counts must not care about.
        let post = postorder(&parent0);
        assert_ne!(post, Permutation::identity(63));
        let want: Vec<u64> = reference_patterns(&gp).iter().map(|p| p.len() as u64 + 1).collect();
        assert_eq!(col_counts(&gp, &parent0), want);
        let relabelled = relabel_tree(&parent0, &post);
        assert_eq!(relabelled, etree(&g.permuted(&ordering.then(&post))));
        // A postordered tree postorders to the identity.
        assert_eq!(postorder(&relabelled), Permutation::identity(63));
    }

    #[test]
    fn forest_handled() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let parent = etree(&g);
        assert_eq!(parent[1], NO_PARENT);
        assert_eq!(parent[2], NO_PARENT);
        assert_eq!(parent[4], NO_PARENT);
        let post = postorder(&parent);
        assert!(post.validate());
        let counts = col_counts(&g, &parent);
        assert_eq!(counts, vec![2, 1, 1, 2, 1]);
    }

    #[test]
    fn opc_of_diagonal_matrix() {
        let g = CsrGraph::from_edges(4, &[]);
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        assert_eq!(opc(&counts), 4.0); // each column: (0+1)^2
    }

    #[test]
    fn nnz_l_totals() {
        let counts = vec![3u64, 2, 1];
        assert_eq!(nnz_l(&counts), (6, 3));
    }
}
