//! Level-set/block schedule for the triangular **solve** DAG.
//!
//! The factorization's static schedule fixes cblk ownership; the solve
//! reuses that ownership (the factor panels already live there) but runs a
//! much lighter DAG: one forward task and one backward task per column
//! block, with an edge `fwd(k) → fwd(t)` whenever a blok of `k` faces `t`
//! (the fan-in update `x_t -= L_b·x_k`), the mirrored edge
//! `bwd(t) → bwd(k)`, and `fwd(k) → bwd(k)` tying the sweeps together.
//! Following Böhnlein et al. (arXiv:2503.05408) the DAG is layered into
//! level sets, and each processor's execution order — its forward tasks
//! level by level, then its backward tasks level by level — is what the
//! distributed solver replays; that fixed order is list-scheduled under
//! the operation-count cost model, so the predicted per-rank timelines are
//! directly reconcilable against a solve trace with `trace::report`,
//! exactly like the factorization schedule.

use crate::greedy::Schedule;
use crate::tasks::TaskGraph;
use pastix_symbolic::SymbolMatrix;

/// The static solve schedule: owner, level, order and predicted timeline
/// of every forward/backward solve task.
///
/// Task ids: the forward solve of cblk `k` is task `k`; the backward solve
/// is task `n_cblks + k` (see [`SolveSchedule::fwd_task`] /
/// [`SolveSchedule::bwd_task`]).
#[derive(Debug, Clone)]
pub struct SolveSchedule {
    /// Number of processors scheduled for.
    pub n_procs: usize,
    /// Number of column blocks (`2 · n_cblks` tasks total).
    pub n_cblks: usize,
    /// Owning processor per task (forward and backward of a cblk share the
    /// owner the factorization schedule assigned it).
    pub task_proc: Vec<u32>,
    /// Level-set index per task (0 = no unsatisfied dependencies).
    pub level: Vec<u32>,
    /// Number of distinct level sets.
    pub n_levels: usize,
    /// Model cost per task (multiply–add count of the cblk's sweep step).
    pub cost: Vec<f64>,
    /// Predicted start time per task (cost units).
    pub start: Vec<f64>,
    /// Predicted end time per task (cost units).
    pub end: Vec<f64>,
    /// Per processor, solve task ids in execution order.
    pub proc_tasks: Vec<Vec<u32>>,
    /// Predicted parallel solve time (cost units).
    pub makespan: f64,
}

impl SolveSchedule {
    /// Task id of the forward solve of cblk `k`.
    #[inline]
    pub fn fwd_task(&self, k: usize) -> usize {
        k
    }

    /// Task id of the backward solve of cblk `k`.
    #[inline]
    pub fn bwd_task(&self, k: usize) -> usize {
        self.n_cblks + k
    }

    /// Total number of solve tasks (`2 · n_cblks`).
    #[inline]
    pub fn n_tasks(&self) -> usize {
        2 * self.n_cblks
    }

    /// Canonical byte serialization of the schedule's discrete decisions:
    /// processor count, cblk count, task ownership, level sets, and each
    /// processor's execution order. Predicted times are derived
    /// floating-point data and deliberately excluded — two runs produced
    /// the same solve schedule iff their canonical bytes are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 * self.task_proc.len());
        out.extend_from_slice(&(self.n_procs as u64).to_le_bytes());
        out.extend_from_slice(&(self.n_cblks as u64).to_le_bytes());
        for &p in &self.task_proc {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &l in &self.level {
            out.extend_from_slice(&l.to_le_bytes());
        }
        for tasks in &self.proc_tasks {
            out.extend_from_slice(&(tasks.len() as u64).to_le_bytes());
            for &t in tasks {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a digest of [`canonical_bytes`](Self::canonical_bytes) — the
    /// fingerprint a serving trace is keyed by, mirroring
    /// [`Schedule::digest`].
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// The dependency structure of the solve tasks, as a successor CSR: task
/// `k` is the forward step of column block `k`, task `n_cblks + k` its
/// backward step, with `fwd(k) → fwd(t)` and `bwd(t) → bwd(k)` for every
/// distinct column block `t` that `k` faces (several bloks of `k` facing
/// one `t` carry one edge) and `fwd(k) → bwd(k)` tying the sweeps
/// together. What both the static solve schedule and the dynamic
/// backend's solve run on.
#[derive(Debug, Clone)]
pub struct SolveDag {
    /// Predecessor count per task.
    pub deps: Vec<u32>,
    /// Row pointers into `out_dst` (`2 · n_cblks + 1` entries).
    pub out_ptr: Vec<u32>,
    /// Successor task ids.
    pub out_dst: Vec<u32>,
}

impl SolveDag {
    /// Builds the DAG of a block structure.
    pub fn new(sym: &SymbolMatrix) -> Self {
        let ns = sym.cblks.len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for k in 0..ns {
            let cb = &sym.cblks[k];
            // `fcblk` is nondecreasing along a column block's bloks.
            let mut last_t = u32::MAX;
            for blok in &sym.bloks[cb.blok_start + 1..cb.blok_end] {
                if blok.fcblk != last_t {
                    last_t = blok.fcblk;
                    edges.push((k as u32, last_t));
                    edges.push((ns as u32 + last_t, (ns + k) as u32));
                }
            }
            edges.push((k as u32, (ns + k) as u32));
        }
        // Counting sort by source; successors keep their insertion order.
        let mut deps = vec![0u32; 2 * ns];
        let mut out_ptr = vec![0u32; 2 * ns + 1];
        for &(src, dst) in &edges {
            out_ptr[src as usize + 1] += 1;
            deps[dst as usize] += 1;
        }
        for t in 0..2 * ns {
            out_ptr[t + 1] += out_ptr[t];
        }
        let mut next = out_ptr.clone();
        let mut out_dst = vec![0u32; edges.len()];
        for &(src, dst) in &edges {
            out_dst[next[src as usize] as usize] = dst;
            next[src as usize] += 1;
        }
        Self { deps, out_ptr, out_dst }
    }

    /// Successors of task `t`.
    #[inline]
    pub fn successors(&self, t: usize) -> &[u32] {
        &self.out_dst[self.out_ptr[t] as usize..self.out_ptr[t + 1] as usize]
    }
}

/// Builds the level-set solve schedule for the split symbol of `graph`,
/// inheriting cblk ownership from the factorization schedule `sched`.
pub fn solve_schedule(graph: &TaskGraph, sched: &Schedule) -> SolveSchedule {
    solve_schedule_on(&SolveDag::new(&graph.split.symbol), graph, sched)
}

/// [`solve_schedule`] for a caller that already holds the solve DAG of
/// `graph`'s symbol.
pub fn solve_schedule_on(dag: &SolveDag, graph: &TaskGraph, sched: &Schedule) -> SolveSchedule {
    let sym = &graph.split.symbol;
    let ns = sym.cblks.len();
    let total = 2 * ns;

    // Ownership: the processor that factorized the cblk solves it.
    let mut task_proc = vec![0u32; total];
    for k in 0..ns {
        let p = sched.task_proc[graph.head_task_of_cblk[k] as usize];
        task_proc[k] = p;
        task_proc[ns + k] = p;
    }

    // Model cost: the triangular sweep of the w×w unit diagonal plus the
    // D step, plus the strip product over the off-diagonal rows.
    let mut cost = vec![0.0f64; total];
    for k in 0..ns {
        let w = sym.cblks[k].width() as f64;
        let madds = w * (w + 1.0) * 0.5 + sym.offrows(k) as f64 * w;
        cost[k] = madds;
        cost[ns + k] = madds;
    }

    // Level sets: longest-path depth over the DAG. Forward tasks in
    // ascending cblk order then backward in descending order is a
    // topological order (fan-in edges always point to higher cblks).
    let mut level = vec![0u32; total];
    for t in (0..ns).chain((0..ns).rev().map(|k| ns + k)) {
        for &c in dag.successors(t) {
            level[c as usize] = level[c as usize].max(level[t] + 1);
        }
    }
    let n_levels = level.iter().copied().max().unwrap_or(0) as usize + 1;

    // Per-processor execution order: the owned forward tasks level set by
    // level set (ascending cblk within a level), then the owned backward
    // tasks the same way (descending cblk within a level). Every edge
    // raises the level, so "all forward tasks by level, then all backward
    // tasks by level" is one topological order of the whole DAG and each
    // processor's list is a projection of it: the distributed solve
    // workers can follow their lists blindly. Plain index order is also
    // topological but makes a rank sit on a deep block while shallower
    // ones it owns are ready — measured (paired best-of, 2 threads, QUER /
    // SHIP001 / OILPAN / BMWCRA1 / SHIPSEC5 at k=1 and k=8, one process
    // per reading) the static solve in index order took 1.03–1.57× the
    // one-thread sweep in 50 readings of 50, in level order 0.76–0.94× in
    // 29 of 30 (one at 1.03×).
    let mut proc_tasks = vec![Vec::new(); sched.n_procs];
    let mut by_level: Vec<u32> = (0..total as u32).collect();
    by_level.sort_by_key(|&t| {
        let t = t as usize;
        (t >= ns, level[t], if t < ns { t } else { total - t })
    });
    for &t in &by_level {
        proc_tasks[task_proc[t as usize] as usize].push(t);
    }

    // List-schedule the fixed per-processor orders against the DAG for the
    // predicted timeline. Each pass completes at least one task because
    // the per-proc orders are projections of one topological order.
    let mut start = vec![0.0f64; total];
    let mut end = vec![0.0f64; total];
    let mut ready = vec![0.0f64; total];
    let mut deps_left = dag.deps.clone();
    let mut proc_ptr = vec![0usize; sched.n_procs];
    let mut proc_free = vec![0.0f64; sched.n_procs];
    let mut completed = 0usize;
    while completed < total {
        let mut progressed = false;
        for p in 0..sched.n_procs {
            while proc_ptr[p] < proc_tasks[p].len() {
                let t = proc_tasks[p][proc_ptr[p]] as usize;
                if deps_left[t] > 0 {
                    break;
                }
                start[t] = proc_free[p].max(ready[t]);
                end[t] = start[t] + cost[t];
                proc_free[p] = end[t];
                for &c in dag.successors(t) {
                    let c = c as usize;
                    deps_left[c] -= 1;
                    ready[c] = ready[c].max(end[t]);
                }
                proc_ptr[p] += 1;
                completed += 1;
                progressed = true;
            }
        }
        assert!(progressed, "solve schedule deadlocked — orders are not topological");
    }
    let makespan = proc_free.iter().copied().fold(0.0f64, f64::max);

    SolveSchedule {
        n_procs: sched.n_procs,
        n_cblks: ns,
        task_proc,
        level,
        n_levels,
        cost,
        start,
        end,
        proc_tasks,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_and_schedule, DistStrategy, MappingOptions, SchedOptions};
    use pastix_graph::Permutation;
    use pastix_machine::MachineModel;
    use pastix_symbolic::{analyze, AnalysisOptions};

    fn grid_mapping(nx: usize, procs: usize) -> crate::Mapping {
        // Identity ordering (not ND): these tests want the band-matrix
        // chain etree, so only the grid graph itself is shared scaffolding.
        let g = pastix_testsupport::grid_graph(nx, nx);
        let a = analyze(&g, &Permutation::identity(nx * nx), &AnalysisOptions::default());
        let machine = MachineModel::sp2(procs);
        let opts = SchedOptions {
            block_size: 8,
            mapping: MappingOptions {
                procs_2d_min: 2.0,
                width_2d_min: 8,
                strategy: DistStrategy::Mixed1d2d,
            },
            ..Default::default()
        };
        map_and_schedule(&a.symbol, &machine, &opts)
    }

    #[test]
    fn solve_schedule_is_consistent() {
        let m = grid_mapping(12, 4);
        let ss = solve_schedule(&m.graph, &m.schedule);
        let sym = &m.graph.split.symbol;
        let ns = sym.cblks.len();
        assert_eq!(ss.n_tasks(), 2 * ns);
        // Ownership matches the factorization schedule.
        for k in 0..ns {
            let p = m.schedule.task_proc[m.graph.head_task_of_cblk[k] as usize];
            assert_eq!(ss.task_proc[ss.fwd_task(k)], p);
            assert_eq!(ss.task_proc[ss.bwd_task(k)], p);
        }
        // Every task appears exactly once across the per-proc orders.
        let mut seen = vec![false; ss.n_tasks()];
        for tasks in &ss.proc_tasks {
            for &t in tasks {
                assert!(!seen[t as usize], "task {t} scheduled twice");
                seen[t as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Levels respect the fan-in DAG: a blok of k facing t orders
        // fwd(k) before fwd(t) and bwd(t) before bwd(k).
        for k in 0..ns {
            let cb = &sym.cblks[k];
            for b in cb.blok_start + 1..cb.blok_end {
                let t = sym.bloks[b].fcblk as usize;
                assert!(ss.level[ss.fwd_task(k)] < ss.level[ss.fwd_task(t)]);
                assert!(ss.level[ss.bwd_task(t)] < ss.level[ss.bwd_task(k)]);
                assert!(ss.end[ss.fwd_task(k)] <= ss.start[ss.fwd_task(t)] + 1e-9);
                assert!(ss.end[ss.bwd_task(t)] <= ss.start[ss.bwd_task(k)] + 1e-9);
            }
            assert!(ss.level[ss.fwd_task(k)] < ss.level[ss.bwd_task(k)]);
        }
        assert!(ss.makespan > 0.0);
        assert!(ss.n_levels >= 2);
    }

    #[test]
    fn solve_schedule_digest_is_stable() {
        let m = grid_mapping(10, 3);
        let a = solve_schedule(&m.graph, &m.schedule);
        let b = solve_schedule(&m.graph, &m.schedule);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.digest(), b.digest());
        // A different processor count must change the digest.
        let m2 = grid_mapping(10, 4);
        let c = solve_schedule(&m2.graph, &m2.schedule);
        assert_ne!(a.digest(), c.digest());
    }
}
