//! Scalar elimination tree, postordering and column counts.
//!
//! These are the classical building blocks under the block symbolic
//! factorization: Liu's elimination-tree algorithm with path compression,
//! a depth-first postorder (which makes supernodes occupy consecutive
//! columns without changing fill), and the row-subtree column-count
//! algorithm that yields `|L(:,j)|` in `O(|L|)` time.
//!
//! The graph handed to these functions must already be permuted into
//! elimination order (vertex `j` is eliminated at step `j`).

use pastix_graph::{CsrGraph, Permutation};

/// Sentinel for "no parent" (tree roots).
pub const NO_PARENT: u32 = u32::MAX;

/// Computes the elimination tree of a symmetric pattern given as an
/// adjacency graph in elimination order. `parent[j]` is the etree parent of
/// column `j`, or [`NO_PARENT`] for roots.
pub fn etree(g: &CsrGraph) -> Vec<u32> {
    etree_of_rows(g.n(), |j| g.neighbors(j).iter().map(|&i| i as usize))
}

/// [`etree`] of `g.permuted(p)` without building that graph (the tree does
/// not depend on the order within a row, so the rows need no sorting).
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
    let mut stack: Vec<u32> = Vec::new();
    // Iterative DFS from each root in ascending order, emitting on exit;
    // `first_child[v]` is consumed as the cursor over v's children.
    for r in (0..n).filter(|&v| parent[v] == NO_PARENT) {
        stack.push(r as u32);
        while let Some(&v) = stack.last() {
            let child = first_child[v as usize];
            if child == u32::MAX {
                stack.pop();
                post[v as usize] = rank;
                rank += 1;
            } else {
                first_child[v as usize] = next_sibling[child as usize];
                stack.push(child);
            }
        }
    }
    debug_assert_eq!(rank as usize, n);
    Permutation::from_invp(post)
}

/// Column counts of the Cholesky factor: `count[j] = |L(:,j)|` including
/// the diagonal. Uses row-subtree traversal with marking: for each row `i`,
/// the nonzero columns of row `i` of `L` are exactly the vertices on the
/// etree paths from the neighbors `j < i` up toward `i`.
pub fn col_counts(g: &CsrGraph, parent: &[u32]) -> Vec<u64> {
    let n = g.n();
    let mut count = vec![1u64; n]; // diagonal
    let mut mark = vec![u32::MAX; n];
    for i in 0..n {
        mark[i] = i as u32;
        for &jj in g.neighbors(i) {
            let mut j = jj as usize;
            if j >= i {
                continue;
            }
            while mark[j] != i as u32 {
                mark[j] = i as u32;
                count[j] += 1; // L(i, j) ≠ 0
                match parent[j] {
                    NO_PARENT => break,
                    p => j = p as usize,
                }
            }
        }
    }
    count
}

/// Parallel [`col_counts`]: rows are split into contiguous chunks, each
/// chunk counted with its own mark array, and the per-chunk counts summed
/// in chunk order. Every row contributes an independent `+1` per column,
/// so the integer sums are bitwise-identical to the sequential pass at
/// any thread count.
pub fn col_counts_par(g: &CsrGraph, parent: &[u32], threads: usize) -> Vec<u64> {
    let n = g.n();
    if threads <= 1 || n < 2048 {
        return col_counts(g, parent);
    }
    let bounds = pastix_graph::par::chunk_bounds(n, threads);
    let partials = pastix_graph::par::par_map_indexed(threads, bounds.len() - 1, |c| {
        let (lo, hi) = (bounds[c], bounds[c + 1]);
        let mut count = vec![0u64; n];
        let mut mark = vec![u32::MAX; n];
        for i in lo..hi {
            mark[i] = i as u32;
            for &jj in g.neighbors(i) {
                let mut j = jj as usize;
                if j >= i {
                    continue;
                }
                while mark[j] != i as u32 {
                    mark[j] = i as u32;
                    count[j] += 1;
                    match parent[j] {
                        NO_PARENT => break,
                        p => j = p as usize,
                    }
                }
            }
        }
        count
    });
    let mut count = vec![1u64; n]; // diagonal
    for part in &partials {
        for (c, p) in count.iter_mut().zip(part) {
            *c += *p;
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

    /// Dense lower-triangular reference symbolic factorization: returns the
    /// column patterns of L for a graph in elimination order.
    fn reference_patterns(g: &CsrGraph) -> Vec<Vec<u32>> {
        let n = g.n();
        // Start from A's lower pattern, then fill: processing columns left
        // to right, for column j, for each i in pattern(j) with i > j, add
        // pattern(j) \ {<= i} to pattern(i)... classic quadratic approach.
        let mut pat: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|j| {
                g.neighbors(j)
                    .iter()
                    .copied()
                    .filter(|&i| i as usize > j)
                    .collect()
            })
            .collect();
        for j in 0..n {
            if let Some(&p) = pat[j].iter().next() {
                let fill: Vec<u32> = pat[j].iter().copied().filter(|&i| i != p).collect();
                for f in fill {
                    pat[p as usize].insert(f);
                }
            }
        }
        pat.into_iter().map(|s| s.into_iter().collect()).collect()
    }

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
        let parent0 = etree_permuted(&g, &ordering);
        assert_eq!(parent0, etree(&g.permuted(&ordering)));
        let post = postorder(&parent0);
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
