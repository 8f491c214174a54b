//! The structure of the triangular solves, computed once per [`Plan`].
//!
//! Everything about a solve that depends only on the block structure and
//! the static schedule is decided here, on the first solve of a plan, and
//! replayed by every later one on every backend: the grouped solve DAG
//! ([`SolveDag`]) the executor runs, and which forward rows it stages so
//! that every segment sums them in a fixed order. Nothing here depends on
//! numeric values, on the right-hand sides or on their count, and none of
//! it is part of the factor (`factor_bytes` does not count it).
//!
//! [`Plan`]: crate::Plan

use pastix_runtime::steal::NodeDag;
use pastix_sched::{Schedule, TaskGraph};
use pastix_symbolic::SymbolMatrix;

/// What every solve runs on: the solve DAG
/// ([`pastix_sched::SolveDag`]) on the factorization's groups, and the
/// executor's hints for it. The executor numbers forward block `k` as `k`
/// and backward block `k` as `2·ns − 1 − k` ([`SolveDag::step`]), so the
/// members of a node, which run in ascending id, step a backward group
/// from its root down.
#[derive(Debug)]
pub(crate) struct SolveDag {
    /// The solve DAG with each multi-member node of the plan's `nodes` (a
    /// closed one-processor subtree) as one forward and one backward node,
    /// and every other step a node of its own.
    pub(crate) nodes: NodeDag,
    /// Per node, its members' highest: forward steps outrank backward
    /// ones; within a sweep, earlier elimination order first (forward) /
    /// later first (backward).
    pub(crate) priority: Vec<u64>,
    /// Preferred worker per node: the static owner of its column blocks.
    pub(crate) placement: Vec<u32>,
    /// Per blok whose forward rows are staged (`Staging`): its first row
    /// in the staging rows of the block it faces; `u32::MAX` for a blok
    /// whose rows go straight into that block's segment.
    pub(crate) stage_at: Vec<u32>,
    /// Column block `t`'s staging rows are `stage_ptr[t]..stage_ptr[t + 1]`.
    pub(crate) stage_ptr: Vec<u32>,
    /// Per column block `t`: its staging intervals `(first row, row count)`
    /// in elimination rows, which fill its staging rows one after another
    /// and which its forward step adds into its segment in this order.
    staged: Vec<(u32, u32)>,
    /// Column block `t`'s intervals are `staged[staged_ptr[t]..staged_ptr[t + 1]]`.
    staged_ptr: Vec<u32>,
}

impl SolveDag {
    /// Column block of executor task `t`, and whether it steps forward.
    #[inline]
    pub(crate) fn step(t: u32, ns: usize) -> (usize, bool) {
        let t = t as usize;
        if t < ns {
            (t, true)
        } else {
            (2 * ns - 1 - t, false)
        }
    }

    /// Groups the solve DAG by `groups`, the factorization's nodes. A
    /// forward group has no producer outside it (contributions go to
    /// ancestors); a backward group's come from ancestors' backward steps
    /// and its own forward node, so the contraction is acyclic.
    pub(crate) fn build(graph: &TaskGraph, sched: &Schedule, groups: &NodeDag) -> Self {
        let ns = graph.split.symbol.n_cblks();
        let tasks = pastix_sched::SolveDag::new(&graph.split.symbol);
        // `tasks` numbers backward block `k` as `ns + k`: this maps either
        // numbering to the other.
        let exec = |t: u32| if (t as usize) < ns { t } else { 3 * ns as u32 - 1 - t };
        let mut out_ptr = Vec::with_capacity(2 * ns + 1);
        let mut out_dst = Vec::with_capacity(tasks.out_dst.len());
        out_ptr.push(0);
        for u in 0..2 * ns as u32 {
            out_dst.extend(tasks.successors(exec(u) as usize).iter().map(|&d| exec(d)));
            out_ptr.push(out_dst.len() as u32);
        }
        // The multi-member factorization node of each column block, if any
        // (such nodes are COMP1D, one task per column block).
        let mut group = vec![u32::MAX; ns];
        for (v, members) in (0..groups.deps.len()).map(|v| (v as u32, groups.members(v))) {
            if members.len() > 1 {
                members.iter().for_each(|&t| group[graph.kinds[t as usize].cblk() as usize] = v);
            }
        }
        // Node ids in the order of each node's first task; group `g`'s
        // forward node is named at slot `2g`, its backward node at `2g + 1`.
        let (mut node_of_slot, mut n_nodes) = (vec![u32::MAX; 2 * groups.deps.len()], 0u32);
        let node_of: Vec<u32> = (0..2 * ns as u32)
            .map(|u| {
                let (k, forward) = Self::step(u, ns);
                let mut own = u32::MAX;
                let slot = match group[k] {
                    u32::MAX => &mut own,
                    g => &mut node_of_slot[2 * g as usize + usize::from(!forward)],
                };
                if *slot == u32::MAX {
                    *slot = n_nodes;
                    n_nodes += 1;
                }
                *slot
            })
            .collect();
        let nodes = NodeDag::contract(&out_ptr, &out_dst, &node_of, n_nodes as usize);
        let members = (0..nodes.deps.len()).map(|v| nodes.members(v));
        let priority = members.clone().map(|m| {
            let of = |&u: &u32| match Self::step(u, ns) {
                (k, true) => 2 * ns - k,
                (k, false) => k,
            };
            m.iter().map(of).max().unwrap_or(0) as u64
        });
        let owner = |m: &[u32]| sched.task_proc[graph.head_task_of_cblk[Self::step(m[0], ns).0] as usize];
        let placement = members.map(owner).collect();
        // Forward block `k` is executor step `k`.
        let Staging { stage_at, stage_ptr, staged, staged_ptr } = Staging::build(&graph.split.symbol, &node_of[..ns]);
        Self { priority: priority.collect(), placement, nodes, stage_at, stage_ptr, staged, staged_ptr }
    }

    /// The staging intervals of column block `t`.
    #[inline]
    pub(crate) fn staged_of(&self, t: usize) -> &[(u32, u32)] {
        &self.staged[self.staged_ptr[t] as usize..self.staged_ptr[t + 1] as usize]
    }
}

/// Which forward rows a dynamic solve stages, and where.
///
/// A forward step delivers `−L_b · Y_k` for each blok `b` of its block `k`
/// to the block `t` that `b` faces. Added straight into `t`'s segment, the
/// rows of two producers that no dependency orders would be summed in
/// whatever order they ran, and two solves of one factor could differ in
/// the last bits. So a producer adds straight into `t` only if it is
/// ordered with every other one that does: it is in `t`'s node (whose
/// members run one after another; a forward group's members are all its
/// producers), or on `t`'s path (the chain of last children below `t`,
/// each of which a forward step reaches from the one below). Every other
/// producer accumulates its rows for `t` in staging intervals it shares
/// only with producers ordered with it — its group's members, or, outside
/// a group, the blocks of its own path — over the union of
/// the rows their bloks face, so a subtree or a chain adds up its rows
/// before they travel; `t`'s forward step adds the intervals into its
/// segment in a fixed order. Every segment then sums the same terms in the
/// same order on every run.
struct Staging {
    stage_at: Vec<u32>,
    stage_ptr: Vec<u32>,
    staged: Vec<(u32, u32)>,
    staged_ptr: Vec<u32>,
}

impl Staging {
    /// `node_of[k]`: the executor node of forward block `k`.
    fn build(sym: &SymbolMatrix, node_of: &[u32]) -> Self {
        let ns = sym.n_cblks();
        // Elimination-tree parent: the block a column block's first
        // off-diagonal blok faces. Blocks are in postorder, so `p − 1` is
        // the last child of `p`; the chains of last children are the
        // paths. The top block of each block's path:
        let mut path = vec![0u32; ns];
        for k in (0..ns).rev() {
            let cb = &sym.cblks[k];
            let last_child = cb.blok_end > cb.blok_start + 1 && sym.bloks[cb.blok_start + 1].fcblk as usize == k + 1;
            path[k] = if last_child { path[k + 1] } else { k as u32 };
        }
        // Who shares a staging interval: a grouped block's node, else the
        // blocks of one path, which the DAG orders.
        let mut size_of_node = vec![0u32; node_of.iter().max().map_or(0, |&v| v as usize + 1)];
        node_of.iter().for_each(|&v| size_of_node[v as usize] += 1);
        let key = |k: usize| match size_of_node[node_of[k] as usize] {
            1 => path[k],
            _ => ns as u32 + node_of[k],
        };
        let mut out = Staging {
            stage_at: vec![u32::MAX; sym.bloks.len()],
            stage_ptr: vec![0; ns + 1],
            staged: Vec::new(),
            staged_ptr: vec![0; ns + 1],
        };
        // Every staged blok as (block faced, key and first row, blok),
        // counted per block faced at `t + 1`.
        let mut items = Vec::new();
        for (k, cb) in sym.cblks.iter().enumerate() {
            for b in cb.blok_start + 1..cb.blok_end {
                let blok = &sym.bloks[b];
                let t = blok.fcblk as usize;
                if node_of[t] != node_of[k] && path[t] != path[k] {
                    items.push((t as u32, (key(k) as u64) << 32 | blok.frow as u64, b as u32));
                    out.staged_ptr[t + 1] += 1;
                }
            }
        }
        // Bucketed by block faced (a counting sort): block `t`'s bucket
        // starts at `next[t]`.
        let mut next = out.staged_ptr.clone();
        (0..ns).for_each(|t| next[t + 1] += next[t]);
        let mut bucket = vec![(0u64, 0u32); items.len()];
        for (t, key_row, b) in items {
            bucket[next[t as usize] as usize] = (key_row, b);
            next[t as usize] += 1;
        }
        out.staged_ptr.fill(0);
        // Per block, by key, then by first row: the overlapping bloks of
        // one key merge into one interval.
        let (mut at, mut from) = (0u32, 0usize);
        for t in 0..ns {
            let row = &mut bucket[from..next[t] as usize];
            from = next[t] as usize;
            row.sort_unstable();
            let mut open: Option<(u64, u32, u32)> = None; // (key and first row, first row, end row)
            for &(kr, b) in row.iter() {
                let (frow, end) = (sym.bloks[b as usize].frow, sym.bloks[b as usize].lrow + 1);
                match &mut open {
                    Some((okr, _, oend)) if *okr >> 32 == kr >> 32 && frow <= *oend => *oend = end.max(*oend),
                    _ => {
                        if let Some((_, first, end)) = open.replace((kr, frow, end)) {
                            out.staged.push((first, end - first));
                            at += end - first;
                        }
                    }
                }
                out.stage_at[b as usize] = at + frow - open.expect("interval just opened").1;
            }
            if let Some((_, first, end)) = open {
                out.staged.push((first, end - first));
                at += end - first;
            }
            out.stage_ptr[t + 1] = at;
            out.staged_ptr[t + 1] = out.staged.len() as u32;
        }
        out
    }
}
