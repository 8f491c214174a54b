//! The structure of the triangular solves, computed once per [`Plan`].
//!
//! A solve maps the block elimination tree the way the paper maps the
//! factorization: whole subtrees dealt over the schedule's `n_procs`
//! processors, one *bin* each, and a small *top* of ancestors above them
//! ([`SolveSplit`]). A bin sweeps its subtrees on its own; only the top
//! waits for every bin. The split is decided once per plan — by
//! [`Plan::analyze`](crate::Plan::analyze), or by the first solve of a plan
//! assembled from parts — and replayed by every solve on every backend. Nothing here depends
//! on numeric values, on the right-hand sides or on their count, and none
//! of it is part of the factor (`factor_bytes` does not count it).
//!
//! [`Plan`]: crate::Plan

use pastix_runtime::steal::NodeDag;
use pastix_symbolic::SymbolMatrix;
use std::cmp::Reverse;
use std::iter::repeat_n;
use std::ops::Range;

/// The elimination tree split into `n_procs` bins of whole subtrees and a
/// top closed under parent, and the `2·n_procs + 1`-node DAG a solve runs
/// on it: bin `i`'s forward sweep is node `i`, the top's two sweeps node
/// `n_procs`, bin `i`'s backward sweep node `n_procs + 1 + i`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SolveSplit {
    /// Per bin, its subtrees as `(first, root)` column blocks, ascending;
    /// a subtree's blocks are contiguous (postorder).
    pub(crate) bins: Vec<Vec<(u32, u32)>>,
    /// The top's column blocks, ascending.
    pub(crate) top: Vec<u32>,
    /// Per column block, its first row in the compact top workspace;
    /// `u32::MAX` outside the top.
    top_row: Vec<u32>,
    /// Rows of the top.
    pub(crate) top_len: usize,
    /// Forward bins → top → backward bins.
    pub(crate) nodes: NodeDag,
}

/// Deals `frontier` (sorted largest first) into `p` bins, each subtree to
/// the least loaded one (the lowest on a tie): the bin of each, and the
/// largest load.
fn deal(frontier: &[usize], sub: &[u64], p: usize) -> (Vec<usize>, u64) {
    let mut load = vec![0u64; p];
    let bins = frontier
        .iter()
        .map(|&r| {
            let i = (0..p).min_by_key(|&i| load[i]).expect("at least one bin");
            load[i] += sub[r];
            i
        })
        .collect();
    (bins, load.into_iter().max().unwrap_or(0))
}

impl SolveSplit {
    /// Splits `sym`'s elimination tree for `n_procs` processors. Each
    /// column block costs the panel entries a solve reads (width × panel
    /// rows). Starting from the roots, the costliest subtree of the
    /// frontier keeps giving its root to the top; after each move the
    /// frontier is dealt into the bins largest first, and the split with
    /// the lowest `top + largest bin` is kept. The walk stops once
    /// `top + frontier / n_procs` cannot beat it, so at one processor the
    /// split is one bin and no top.
    pub(crate) fn build(sym: &SymbolMatrix, n_procs: usize) -> Self {
        let (ns, p) = (sym.n_cblks(), n_procs.max(1));
        // Elimination-tree parent: the block a column block's first
        // off-diagonal blok faces. Blocks are in postorder: a subtree is
        // the contiguous range from its first block to its root.
        let parent: Vec<Option<usize>> = (0..ns).map(|k| sym.off_bloks_of(k).first().map(|b| b.fcblk as usize)).collect();
        let cost: Vec<u64> = sym
            .cblks
            .iter()
            .map(|cb| (cb.width() * sym.bloks[cb.blok_start..cb.blok_end].iter().map(|b| b.nrows()).sum::<usize>()) as u64)
            .collect();
        let (mut sub, mut first) = (cost.clone(), (0..ns).collect::<Vec<_>>());
        for k in 0..ns {
            if let Some(q) = parent[k] {
                sub[q] += sub[k];
                first[q] = first[q].min(first[k]);
            }
        }
        let (total, p64) = (cost.iter().sum::<u64>(), p as u64);
        let largest_first = |f: &mut Vec<usize>| f.sort_unstable_by_key(|&r| (Reverse(sub[r]), r));
        let mut frontier: Vec<usize> = (0..ns).filter(|&k| parent[k].is_none()).collect();
        // (top + largest bin, top blocks) of the best split so far.
        let (mut top, mut top_cost, mut best) = (Vec::new(), 0, (u64::MAX, 0));
        loop {
            largest_first(&mut frontier);
            let score = top_cost + deal(&frontier, &sub, p).1;
            if score < best.0 {
                best = (score, top.len());
            }
            // The frontier holds the rest, and `top + rest / p` only grows.
            if frontier.is_empty() || top_cost * p64 + (total - top_cost) >= best.0 * p64 {
                break;
            }
            let r = frontier.swap_remove(0);
            top.push(r);
            top_cost += cost[r];
            // `r`'s children: the last is `r − 1`, and each earlier one
            // ends where the next one's subtree begins.
            let mut c = r;
            while c > first[r] {
                frontier.push(c - 1);
                c = first[c - 1];
            }
        }
        top.truncate(best.1);
        top.sort_unstable();
        let (mut top_row, mut top_len) = (vec![u32::MAX; ns], 0);
        for &k in &top {
            top_row[k] = top_len as u32;
            top_len += sym.cblks[k].width();
        }
        // The best split's frontier: the roots and the children of the
        // top that are not in it.
        let mut frontier: Vec<usize> =
            (0..ns).filter(|&k| top_row[k] == u32::MAX && parent[k].is_none_or(|q| top_row[q] != u32::MAX)).collect();
        largest_first(&mut frontier);
        let mut bins = vec![Vec::new(); p];
        for (&r, i) in frontier.iter().zip(deal(&frontier, &sub, p).0) {
            bins[i].push((first[r] as u32, r as u32));
        }
        bins.iter_mut().for_each(|b| b.sort_unstable());
        // Each forward node's one successor is the top, whose successors
        // are the backward nodes; one task per node.
        let top_node = p as u32;
        let out_ptr: Vec<u32> = (0..=top_node).chain(repeat_n(2 * top_node, p + 1)).collect();
        let out_dst: Vec<u32> = repeat_n(top_node, p).chain(top_node + 1..=2 * top_node).collect();
        let nodes = NodeDag::contract(&out_ptr, &out_dst, &(0..=2 * top_node).collect::<Vec<_>>(), 2 * p + 1);
        Self { bins, top: top.into_iter().map(|k| k as u32).collect(), top_row, top_len, nodes }
    }

    /// Compact top workspace range of top block `k`'s `width × nrhs`
    /// segment.
    pub(crate) fn top_segment(&self, sym: &SymbolMatrix, k: usize, nrhs: usize) -> Range<usize> {
        let at = self.top_row[k] as usize;
        at * nrhs..(at + sym.cblks[k].width()) * nrhs
    }

    /// Compact top workspace range of the rows blok `b` covers, which must
    /// face a top block.
    pub(crate) fn top_rows(&self, sym: &SymbolMatrix, b: usize, nrhs: usize) -> Range<usize> {
        let blok = &sym.bloks[b];
        let t = blok.fcblk as usize;
        let at = (self.top_row[t] + blok.frow - sym.cblks[t].fcol) as usize;
        at * nrhs..(at + blok.nrows()) * nrhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use pastix_sched::DistStrategy::{Mixed1d2d, Only1d};

    #[test]
    fn split_bins_whole_subtrees_per_processor_below_a_closed_top() {
        for (n, nz, procs, strategy) in [(24, 1, 2, Only1d), (24, 1, 3, Mixed1d2d), (6, 6, 4, Mixed1d2d), (32, 1, 4, Only1d), (12, 1, 1, Mixed1d2d)] {
            let (_, mapping) = full_setup(n, n, nz, procs, strategy, 4);
            let sym = &mapping.graph.split.symbol;
            let split = SolveSplit::build(sym, procs);
            let case = format!("{n}²×{nz} {strategy:?} at {procs} procs");
            assert_eq!((split.bins.len(), split.nodes.deps.len()), (procs, 2 * procs + 1), "{case}");
            let parent = |k: usize| sym.off_bloks_of(k).first().map(|b| b.fcblk as usize);
            let descends = |mut k: usize, root: usize| {
                while k < root {
                    let Some(q) = parent(k) else { return false };
                    k = q;
                }
                k == root
            };
            let in_top = |k: usize| split.top.contains(&(k as u32));
            // Every block in exactly one subtree or in the top.
            let mut seen = vec![0u32; sym.n_cblks()];
            split.top.iter().for_each(|&k| seen[k as usize] += 1);
            for &(first, root) in split.bins.iter().flatten() {
                let (first, root) = (first as usize, root as usize);
                (first..=root).for_each(|k| seen[k] += 1);
                // The range is the root's descendants, which in postorder
                // end at the root; the root's parent is in the top.
                assert!((first..=root).all(|k| descends(k, root)), "{case}: subtree {root} holds a stranger");
                assert!(first == 0 || !descends(first - 1, root), "{case}: subtree {root} misses a descendant");
                assert!(parent(root).is_none_or(in_top), "{case}: subtree {root} hangs below the top");
            }
            assert!(seen.iter().all(|&c| c == 1), "{case}: a block in no or two places");
            // Closed under parent, so every root's ancestors are in the top.
            for &k in &split.top {
                assert!(parent(k as usize).is_none_or(in_top), "{case}: top block {k}'s parent below the top");
            }
            assert_eq!(procs == 1, split.top.is_empty(), "{case}: a top iff more than one bin");
        }
    }
}
