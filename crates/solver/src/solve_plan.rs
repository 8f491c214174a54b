//! The structure of the triangular solves, computed once per [`Plan`] and
//! engine.
//!
//! Everything about a solve that depends only on the block structure and
//! the static schedule is decided here, on the first solve of a plan on
//! each engine, and replayed by every later one: for the static engine
//! who owns which rows, who waits for how many events and who sends what
//! to whom ([`StaticRouting`]); for the executor (`Threads` and `Dynamic`)
//! the grouped solve DAG ([`SolveDag`]) and which forward rows it stages
//! so that every segment sums them in a fixed order. The solve phase
//! *follows* its schedule like the
//! factorization does. Nothing here depends on numeric values, on the
//! right-hand sides or on their count, and none of it is part of the
//! factor (`factor_bytes` does not count it).
//!
//! [`Plan`]: crate::Plan

use pastix_runtime::steal::NodeDag;
use pastix_sched::{solve_schedule, Schedule, SolveSchedule, TaskGraph};
use pastix_symbolic::SymbolMatrix;

/// A maximal run of consecutive off-diagonal bloks of one column block
/// owned by one processor: the unit of the static solve's strip products
/// (a 1D column block is a single run).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// Processor that owns the bloks' data.
    pub(crate) owner: u32,
    /// Column block the bloks belong to.
    pub(crate) cblk: u32,
    /// Global bloks `first..end`.
    pub(crate) first: u32,
    /// One past the last blok.
    pub(crate) end: u32,
}

/// A `Vec<Vec<u32>>` flattened: row `i` is `items[ptr[i]..ptr[i + 1]]`.
#[derive(Debug)]
pub(crate) struct Csr {
    ptr: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Builds from `(row, item)` pairs; items keep their order within a row.
    fn from_pairs(n_rows: usize, pairs: &[(u32, u32)]) -> Self {
        let mut ptr = vec![0u32; n_rows + 1];
        for &(row, _) in pairs {
            ptr[row as usize + 1] += 1;
        }
        for i in 0..n_rows {
            ptr[i + 1] += ptr[i];
        }
        let mut next = ptr.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(row, item) in pairs {
            items[next[row as usize] as usize] = item;
            next[row as usize] += 1;
        }
        Self { ptr, items }
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.items[self.ptr[i] as usize..self.ptr[i + 1] as usize]
    }
}

/// Ownership, counters and routes of the static (SPMD) solve.
#[derive(Debug)]
pub(crate) struct StaticRouting {
    /// The static solve schedule ([`pastix_sched::solve_schedule`]) the
    /// per-processor step orders below were read from — kept whole because
    /// solve traces are reconciled against it.
    pub(crate) schedule: SolveSchedule,
    /// Logical processors of the schedule.
    pub(crate) n_procs: usize,
    /// Owner of each column block's segment and diagonal solves.
    pub(crate) cblk_owner: Vec<u32>,
    /// Every run, column block by column block.
    pub(crate) runs: Vec<Run>,
    /// Column block `k`'s runs are `runs[run_ptr[k]..run_ptr[k + 1]]`.
    run_ptr: Vec<u32>,
    /// Column blocks each processor owns, in the order `schedule` steps
    /// them forward.
    pub(crate) fwd_order: Csr,
    /// The same column blocks in the order it steps them backward.
    pub(crate) bwd_order: Csr,
    /// Forward events per `(processor, column block)`, at `p * ns + t`.
    /// For the owner of `t`: contributions it waits for (its own bloks
    /// facing `t`, plus one aggregate per remote contributor). For anyone
    /// else: its bloks facing `t` — its aggregate is complete at zero.
    pub(crate) fwd_count: Vec<u32>,
    /// Backward events, same indexing. For the owner of `k`: its own runs
    /// of `k` plus one aggregate per remote run owner. For anyone else:
    /// its runs of `k`.
    pub(crate) bwd_count: Vec<u32>,
    /// Per run: the distinct column blocks its bloks face — the solved
    /// segments it must see before its backward product.
    pub(crate) run_wait: Vec<u32>,
    /// Per column block `t`: the runs with a blok facing `t`.
    pub(crate) wakes: Csr,
    /// Per column block `k`: remote processors that own a run of `k` and
    /// need its forward segment.
    pub(crate) fwd_dst: Csr,
    /// Per column block `t`: remote processors that own a blok facing `t`
    /// and need its solved segment.
    pub(crate) bwd_dst: Csr,
    /// Per processor: forward segments it will receive.
    pub(crate) fwd_expect: Vec<u32>,
    /// Per processor: solved segments it will receive.
    pub(crate) bwd_expect: Vec<u32>,
}

impl StaticRouting {
    /// The runs of column block `k`.
    #[inline]
    pub(crate) fn runs_of(&self, k: usize) -> &[Run] {
        &self.runs[self.run_ptr[k] as usize..self.run_ptr[k + 1] as usize]
    }

    pub(crate) fn build(graph: &TaskGraph, sched: &Schedule) -> Self {
        let sym = &graph.split.symbol;
        let (ns, n_procs) = (sym.n_cblks(), sched.n_procs);
        let cblk_owner: Vec<u32> =
            (0..ns).map(|k| sched.task_proc[graph.head_task_of_cblk[k] as usize]).collect();
        let mut runs: Vec<Run> = Vec::new();
        let mut run_wait = Vec::new();
        let mut run_ptr = Vec::with_capacity(ns + 1);
        let mut wake_pairs = Vec::new();
        let mut fwd_count = vec![0u32; n_procs * ns];
        let mut bwd_count = vec![0u32; n_procs * ns];
        for k in 0..ns {
            let cb = &sym.cblks[k];
            run_ptr.push(runs.len() as u32);
            let mut last_t = u32::MAX;
            for b in cb.blok_start + 1..cb.blok_end {
                let owner = match graph.bdiv_task_of_blok[b] {
                    u32::MAX => cblk_owner[k],
                    bdiv => sched.task_proc[bdiv as usize],
                };
                let t = sym.bloks[b].fcblk;
                fwd_count[owner as usize * ns + t as usize] += 1;
                match runs.last_mut() {
                    Some(run) if run.cblk == k as u32 && run.owner == owner => run.end += 1,
                    _ => {
                        runs.push(Run { owner, cblk: k as u32, first: b as u32, end: b as u32 + 1 });
                        run_wait.push(0);
                        bwd_count[owner as usize * ns + k] += 1;
                        last_t = u32::MAX;
                    }
                }
                // `fcblk` is nondecreasing along a column block's bloks.
                if t != last_t {
                    last_t = t;
                    wake_pairs.push((t, runs.len() as u32 - 1));
                    *run_wait.last_mut().expect("run just pushed") += 1;
                }
            }
        }
        run_ptr.push(runs.len() as u32);
        // Who else holds a stake in column block `t`, per count table: the
        // processors the owner hears from, and — read the other way — the
        // processors that need the owner's segment.
        let stakeholders = |count: &[u32]| -> Vec<(u32, u32)> {
            (0..ns)
                .flat_map(|t| (0..n_procs).map(move |p| (t as u32, p as u32)))
                .filter(|&(t, p)| p != cblk_owner[t as usize] && count[p as usize * ns + t as usize] > 0)
                .collect()
        };
        let (fwd_remote, bwd_remote) = (stakeholders(&fwd_count), stakeholders(&bwd_count));
        let expect = |pairs: &[(u32, u32)]| {
            let mut e = vec![0u32; n_procs];
            pairs.iter().for_each(|&(_, p)| e[p as usize] += 1);
            e
        };
        // Owners of bloks facing `t` send it a forward aggregate and need
        // its solved segment; owners of runs of `k` need its forward
        // segment and send it a backward aggregate.
        for &(t, _) in &fwd_remote {
            fwd_count[cblk_owner[t as usize] as usize * ns + t as usize] += 1;
        }
        for &(k, _) in &bwd_remote {
            bwd_count[cblk_owner[k as usize] as usize * ns + k as usize] += 1;
        }
        // Each processor's tasks in schedule order, forward ones first.
        let schedule = solve_schedule(graph, sched);
        let sweep = |backward: bool| -> Vec<(u32, u32)> {
            let order = schedule.proc_tasks.iter().enumerate();
            let tasks = order.flat_map(|(p, tasks)| tasks.iter().map(move |&t| (p as u32, t)));
            tasks.filter(|&(_, t)| (t as usize >= ns) == backward).map(|(p, t)| (p, t % ns as u32)).collect()
        };
        Self {
            n_procs,
            run_ptr,
            fwd_order: Csr::from_pairs(n_procs, &sweep(false)),
            bwd_order: Csr::from_pairs(n_procs, &sweep(true)),
            wakes: Csr::from_pairs(ns, &wake_pairs),
            fwd_dst: Csr::from_pairs(ns, &bwd_remote),
            bwd_dst: Csr::from_pairs(ns, &fwd_remote),
            fwd_expect: expect(&bwd_remote),
            bwd_expect: expect(&fwd_remote),
            schedule,
            cblk_owner,
            runs,
            fwd_count,
            bwd_count,
            run_wait,
        }
    }
}

/// What the dynamic backend runs a solve on: the solve DAG
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
