//! The structure of the triangular solves, computed once per [`Plan`].
//!
//! Everything about a solve that depends only on the block structure and
//! the static schedule — who owns which rows, who waits for how many
//! events, who sends what to whom, the solve DAG of the dynamic backend —
//! is decided here, on the first solve of a plan, and replayed by every
//! later one: the solve phase *follows* its schedule like the
//! factorization does. Nothing here depends on numeric values, on the
//! right-hand sides or on their count.
//!
//! [`Plan`]: crate::Plan

use pastix_sched::{solve_schedule_on, Schedule, SolveSchedule, TaskGraph};

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

    fn build(graph: &TaskGraph, sched: &Schedule, dag: &pastix_sched::SolveDag) -> Self {
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
        let schedule = solve_schedule_on(dag, graph, sched);
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
/// ([`pastix_sched::SolveDag`]: forward task `k`, backward task `ns + k`)
/// and the executor's hints for it.
#[derive(Debug)]
pub(crate) struct SolveDag {
    /// Dependency counts and successor lists.
    pub(crate) graph: pastix_sched::SolveDag,
    /// Forward tasks outrank backward ones; within a sweep, earlier
    /// elimination order first (forward) / later first (backward).
    pub(crate) priority: Vec<u64>,
    /// Preferred worker per task: the column block's static owner, or the
    /// block index without a schedule.
    pub(crate) placement: Vec<u32>,
}

impl SolveDag {
    fn build(graph: &TaskGraph, sched: Option<&Schedule>) -> Self {
        let ns = graph.split.symbol.n_cblks();
        let n_tasks = 2 * ns;
        Self {
            graph: pastix_sched::SolveDag::new(&graph.split.symbol),
            priority: (0..n_tasks).map(|t| (if t < ns { 2 * ns - t } else { t - ns }) as u64).collect(),
            placement: (0..n_tasks)
                .map(|t| match sched {
                    Some(s) => s.task_proc[graph.head_task_of_cblk[t % ns] as usize],
                    None => (t % ns) as u32,
                })
                .collect(),
        }
    }
}

/// What every solve of a plan replays. Built lazily by the plan's first
/// solve and cached there; not part of the factor, so not counted in
/// `factor_bytes`.
#[derive(Debug)]
pub(crate) struct SolvePlan {
    /// Present when the plan has a static schedule.
    pub(crate) routing: Option<StaticRouting>,
    /// The dynamic backend's DAG.
    pub(crate) dag: SolveDag,
}

impl SolvePlan {
    pub(crate) fn build(graph: &TaskGraph, sched: Option<&Schedule>) -> Self {
        let dag = SolveDag::build(graph, sched);
        Self { routing: sched.map(|s| StaticRouting::build(graph, s, &dag.graph)), dag }
    }
}
