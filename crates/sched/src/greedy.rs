//! The greedy static scheduler — mapping by simulation of the parallel
//! factorization.
//!
//! Paper §2: *"it uses a greedy algorithm that consists in mapping each
//! task as it comes during the simulation of the parallel factorization.
//! For each processor, we define a timer that will hold the current elapsed
//! computation time, and a ready task heap [...] The next task to be mapped
//! is selected by taking the first task of each ready tasks heap, and by
//! choosing the one that comes from the lowest node in the elimination
//! tree. Then, we compute for each of its candidate processors the time at
//! which it will have completed the task [...] The task is mapped onto the
//! candidate processor that will be able to compute it the soonest."*
//!
//! The output is, per processor `p`, the fully ordered task vector `K_p`
//! that drives the numeric solver, plus the predicted timeline.

use crate::tasks::TaskGraph;
use pastix_machine::MachineModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The static schedule: owner, order and predicted timeline of every task.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Number of processors scheduled for.
    pub n_procs: usize,
    /// Owning processor per task.
    pub task_proc: Vec<u32>,
    /// Predicted start time (seconds).
    pub start: Vec<f64>,
    /// Predicted end time (seconds).
    pub end: Vec<f64>,
    /// `K_p`: per processor, task ids in execution (mapping) order.
    pub proc_tasks: Vec<Vec<u32>>,
    /// Predicted parallel factorization time.
    pub makespan: f64,
}

impl Schedule {
    /// Canonical byte serialization of the schedule's *discrete* decisions:
    /// processor count, task→processor ownership, and each processor's
    /// execution order `K_p`. Predicted times are derived floating-point
    /// data and deliberately excluded. Two scheduler runs produced the same
    /// schedule iff their canonical bytes are equal — this is the replay
    /// hook the determinism suite and the chaos harness compare on.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 * self.task_proc.len() * 2);
        out.extend_from_slice(&(self.n_procs as u64).to_le_bytes());
        out.extend_from_slice(&(self.task_proc.len() as u64).to_le_bytes());
        for &p in &self.task_proc {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for tasks in &self.proc_tasks {
            out.extend_from_slice(&(tasks.len() as u64).to_le_bytes());
            for &t in tasks {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a digest of [`canonical_bytes`](Self::canonical_bytes) — a
    /// cheap fingerprint to print next to a chaos seed so a replayed run
    /// can assert it is executing the very same schedule.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Busy seconds per processor.
    pub fn busy_time(&self, g: &TaskGraph) -> Vec<f64> {
        let mut busy = vec![0.0; self.n_procs];
        for t in 0..g.n_tasks() {
            busy[self.task_proc[t] as usize] += g.cost[t];
        }
        busy
    }

    /// Average processor utilization over the makespan.
    pub fn utilization(&self, g: &TaskGraph) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        let total: f64 = self.busy_time(g).iter().sum();
        total / (self.makespan * self.n_procs as f64)
    }

    /// Writes the predicted timeline as CSV
    /// (`task,proc,kind,cblk,start,end,cost`), one row per task in global
    /// mapping order — loadable by any Gantt/trace viewer. The leading
    /// comment line carries the schedule [`digest`](Self::digest) so a
    /// trace can be matched to the chaos suite's replayable
    /// `(seed, policy, digest)` triple.
    pub fn write_timeline_csv<W: std::io::Write>(
        &self,
        g: &TaskGraph,
        mut w: W,
    ) -> std::io::Result<()> {
        use crate::tasks::TaskKind;
        writeln!(
            w,
            "# schedule_digest={:#018x} n_procs={}",
            self.digest(),
            self.n_procs
        )?;
        writeln!(w, "task,proc,kind,cblk,start,end,cost")?;
        for t in 0..g.n_tasks() {
            let kind = match g.kinds[t] {
                TaskKind::Comp1d { .. } => "COMP1D",
                TaskKind::Factor { .. } => "FACTOR",
                TaskKind::Bdiv { .. } => "BDIV",
                TaskKind::Bmod { .. } => "BMOD",
            };
            writeln!(
                w,
                "{t},{},{kind},{},{:.9},{:.9},{:.9}",
                self.task_proc[t],
                g.kinds[t].cblk(),
                self.start[t],
                self.end[t],
                g.cost[t]
            )?;
        }
        Ok(())
    }
}

/// Runs the greedy list-scheduling simulation.
pub fn greedy_schedule(g: &TaskGraph, machine: &MachineModel) -> Schedule {
    let n_tasks = g.n_tasks();
    let n_procs = machine.n_procs;
    let mut deps_remaining: Vec<u32> = (0..n_tasks)
        .map(|t| g.in_ptr[t + 1] - g.in_ptr[t])
        .collect();
    let mut task_proc = vec![u32::MAX; n_tasks];
    let mut start = vec![0.0f64; n_tasks];
    let mut end = vec![0.0f64; n_tasks];
    let mut timer = vec![0.0f64; n_procs];
    let mut proc_tasks: Vec<Vec<u32>> = vec![Vec::new(); n_procs];
    let mut mapped = vec![false; n_tasks];

    // Max-heaps keyed by (priority, Reverse(task id)): deepest supernode
    // first, then earliest-created task.
    let mut heaps: Vec<BinaryHeap<(u32, Reverse<u32>)>> = vec![BinaryHeap::new(); n_procs];
    let push_ready = |heaps: &mut Vec<BinaryHeap<(u32, Reverse<u32>)>>, g: &TaskGraph, t: usize| {
        let (f, l) = g.cand[t];
        for q in f..=l {
            heaps[q as usize].push((g.priority[t], Reverse(t as u32)));
        }
    };
    for t in 0..n_tasks {
        if deps_remaining[t] == 0 {
            push_ready(&mut heaps, g, t);
        }
    }

    let mut n_mapped = 0usize;
    while n_mapped < n_tasks {
        // Peek the first live task of each heap; choose the deepest.
        let mut best: Option<(u32, Reverse<u32>)> = None;
        for heap in heaps.iter_mut() {
            while let Some(&(pr, Reverse(t))) = heap.peek() {
                if mapped[t as usize] {
                    heap.pop();
                    continue;
                }
                if best.is_none() || (pr, Reverse(t)) > best.unwrap() {
                    best = Some((pr, Reverse(t)));
                }
                break;
            }
        }
        let (_, Reverse(t)) = best.expect("ready heaps empty but tasks remain (cycle?)");
        let t = t as usize;

        // Evaluate completion time on every candidate processor; the
        // first strict minimum wins.
        let (cf, cl) = g.cand[t];
        let mut best_q = cf;
        let mut best_completion = f64::INFINITY;
        let mut best_start = 0.0;
        for q in cf..=cl {
            // Time at which all contributions have arrived on q.
            let mut ready = 0.0f64;
            for (src, scalars) in g.in_edges(t) {
                let sp = task_proc[src as usize] as usize;
                let arrive = end[src as usize] + machine.comm_time(sp, q as usize, scalars as usize);
                ready = ready.max(arrive);
            }
            let s = timer[q as usize].max(ready);
            let completion = s + g.cost[t];
            if completion < best_completion {
                best_completion = completion;
                best_q = q;
                best_start = s;
            }
        }
        task_proc[t] = best_q;
        start[t] = best_start;
        end[t] = best_completion;
        timer[best_q as usize] = best_completion;
        proc_tasks[best_q as usize].push(t as u32);
        mapped[t] = true;
        n_mapped += 1;

        for &dst in g.out_edges(t) {
            let dst = dst as usize;
            deps_remaining[dst] -= 1;
            if deps_remaining[dst] == 0 {
                push_ready(&mut heaps, g, dst);
            }
        }
    }

    let makespan = end.iter().copied().fold(0.0, f64::max);
    Schedule {
        n_procs,
        task_proc,
        start,
        end,
        proc_tasks,
        makespan,
    }
}

/// Communication statistics of a schedule, with and without the fan-in
/// aggregation of update blocks (ablation A3 of DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommStats {
    /// Cross-processor messages if every contribution were sent directly.
    pub messages_direct: u64,
    /// Scalars moved in the direct scheme.
    pub scalars_direct: u64,
    /// Cross-processor messages with fan-in aggregation (one AUB per
    /// sending processor and target block).
    pub messages_fanin: u64,
    /// Scalars moved with aggregation (each AUB ships its target region).
    pub scalars_fanin: u64,
}

/// Computes [`CommStats`] for a schedule by replaying the edge list.
pub fn comm_stats(g: &TaskGraph, s: &Schedule) -> CommStats {
    use std::collections::HashSet;
    let mut messages_direct = 0u64;
    let mut scalars_direct = 0u64;
    let mut groups: HashSet<(u32, u32)> = HashSet::new();
    let mut scalars_fanin = 0u64;
    for t in 0..g.n_tasks() {
        let tq = s.task_proc[t];
        for (src, scalars) in g.in_edges(t) {
            let sq = s.task_proc[src as usize];
            if sq != tq {
                messages_direct += 1;
                scalars_direct += scalars as u64;
                if groups.insert((sq, t as u32)) {
                    scalars_fanin += g.region_scalars[t];
                }
            }
        }
    }
    CommStats {
        messages_direct,
        scalars_direct,
        messages_fanin: groups.len() as u64,
        scalars_fanin,
    }
}

/// Summary analysis of a schedule against its task graph's intrinsic
/// limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleAnalysis {
    /// Total work (sum of task costs) in model seconds.
    pub total_work: f64,
    /// Critical path (longest dependency chain, communication-free): the
    /// absolute lower bound on the makespan for *any* processor count.
    pub critical_path: f64,
    /// Achieved makespan.
    pub makespan: f64,
    /// `max(critical_path, total_work / P)` — the classical lower bound
    /// for this processor count.
    pub lower_bound: f64,
    /// `lower_bound / makespan` ∈ (0, 1]; 1 means provably optimal.
    pub quality: f64,
}

/// Computes the dependency-chain critical path of the task graph (edges
/// point forward, so one pass suffices).
pub fn critical_path(g: &TaskGraph) -> f64 {
    critical_path_chain(g).0
}

/// Critical path of the task graph together with one realizing task chain
/// (dependency order, source first). The chain is what the trace report
/// walks to break a run's makespan down against the model's prediction.
pub fn critical_path_chain(g: &TaskGraph) -> (f64, Vec<u32>) {
    let n = g.n_tasks();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut cp = vec![0.0f64; n];
    let mut pred = vec![u32::MAX; n];
    let mut best = 0.0f64;
    let mut best_t = 0usize;
    for t in 0..n {
        let mut ready = 0.0f64;
        for (src, _) in g.in_edges(t) {
            if cp[src as usize] > ready {
                ready = cp[src as usize];
                pred[t] = src;
            }
        }
        cp[t] = ready + g.cost[t];
        if cp[t] > best {
            best = cp[t];
            best_t = t;
        }
    }
    let mut chain = Vec::new();
    let mut t = best_t as u32;
    loop {
        chain.push(t);
        let p = pred[t as usize];
        if p == u32::MAX {
            break;
        }
        t = p;
    }
    chain.reverse();
    (best, chain)
}

/// One row of [`Schedule::predicted_tasks`]: the static model's prediction
/// for a task, in the cost model's time unit (seconds of the calibrated
/// BLAS/network model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedTask {
    /// Task id.
    pub task: u32,
    /// Owning processor.
    pub proc: u32,
    /// Modeled execution cost.
    pub cost: f64,
    /// Predicted start time.
    pub start: f64,
    /// Predicted end time.
    pub end: f64,
}

impl Schedule {
    /// The per-task predictions of this schedule, joined with the task
    /// graph's modeled costs — the "expected" side of the trace report's
    /// predicted-vs-measured comparison.
    pub fn predicted_tasks(&self, g: &TaskGraph) -> Vec<PredictedTask> {
        (0..g.n_tasks())
            .map(|t| PredictedTask {
                task: t as u32,
                proc: self.task_proc[t],
                cost: g.cost[t],
                start: self.start[t],
                end: self.end[t],
            })
            .collect()
    }
}

/// Produces the [`ScheduleAnalysis`] of a schedule.
pub fn analyze_schedule(g: &TaskGraph, s: &Schedule) -> ScheduleAnalysis {
    let total_work = g.total_cost();
    let critical_path = critical_path(g);
    let lower_bound = critical_path.max(total_work / s.n_procs as f64);
    ScheduleAnalysis {
        total_work,
        critical_path,
        makespan: s.makespan,
        lower_bound,
        quality: if s.makespan > 0.0 {
            (lower_bound / s.makespan).min(1.0)
        } else {
            1.0
        },
    }
}

/// A classical static mapping baseline: block-cyclic assignment of tasks
/// over their candidate sets (no cost model, no simulation — the kind of
/// run-time-regulated distribution the paper's scheduling-by-simulation
/// replaces). Execution order and the predicted timeline are then derived
/// by replaying the dependencies, so the resulting [`Schedule`] is valid
/// and drives the solver exactly like the greedy one; only the *mapping
/// policy* differs. Used by the mapping ablation.
pub fn cyclic_schedule(g: &TaskGraph, machine: &MachineModel) -> Schedule {
    use crate::tasks::TaskKind;
    let n_tasks = g.n_tasks();
    let n_procs = machine.n_procs;
    let mut task_proc = vec![0u32; n_tasks];
    for t in 0..n_tasks {
        let (cf, cl) = g.cand[t];
        let span = (cl - cf + 1) as usize;
        // Cyclic coordinate: column blocks cycle 1D tasks; 2D tasks cycle
        // by their block coordinates (row-major over the pair).
        let coord = match g.kinds[t] {
            TaskKind::Comp1d { cblk } | TaskKind::Factor { cblk } => cblk as usize,
            TaskKind::Bdiv { blok, .. } => blok as usize,
            TaskKind::Bmod { blok_row, blok_col, .. } => {
                blok_row as usize * 31 + blok_col as usize
            }
        };
        task_proc[t] = cf + (coord % span) as u32;
    }
    // Replay: tasks in id order are topologically sorted (edges point
    // forward), so a single pass computes the timeline.
    let mut start = vec![0.0f64; n_tasks];
    let mut end = vec![0.0f64; n_tasks];
    let mut timer = vec![0.0f64; n_procs];
    let mut proc_tasks: Vec<Vec<u32>> = vec![Vec::new(); n_procs];
    for t in 0..n_tasks {
        let q = task_proc[t] as usize;
        let mut ready = 0.0f64;
        for (src, scalars) in g.in_edges(t) {
            let sp = task_proc[src as usize] as usize;
            ready = ready.max(end[src as usize] + machine.comm_time(sp, q, scalars as usize));
        }
        start[t] = timer[q].max(ready);
        end[t] = start[t] + g.cost[t];
        timer[q] = end[t];
        proc_tasks[q].push(t as u32);
    }
    let makespan = end.iter().copied().fold(0.0, f64::max);
    Schedule {
        n_procs,
        task_proc,
        start,
        end,
        proc_tasks,
        makespan,
    }
}

/// Memory accounting of a schedule: the factor scalars each processor owns
/// and an upper bound on its fan-in aggregation buffers (the paper notes
/// that when *"memory is a critical issue, an aggregated update block can
/// be sent with partial aggregation to free memory space"* — the Fan-Both
/// fallback; this accounting is what such a policy would watch).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStats {
    /// Owned factor scalars per processor (BDIV regions counted twice:
    /// `[L | F]`).
    pub factor_scalars: Vec<u64>,
    /// Upper bound of simultaneously live outgoing AUB scalars per
    /// processor (every remote target's region once).
    pub aub_scalars_bound: Vec<u64>,
}

impl MemoryStats {
    /// Largest per-processor total (factor + AUB bound).
    pub fn max_total(&self) -> u64 {
        self.factor_scalars
            .iter()
            .zip(&self.aub_scalars_bound)
            .map(|(&f, &a)| f + a)
            .max()
            .unwrap_or(0)
    }
}

/// Computes [`MemoryStats`] for a schedule.
pub fn memory_stats(g: &TaskGraph, s: &Schedule) -> MemoryStats {
    use crate::tasks::TaskKind;
    use std::collections::HashSet;
    let mut factor = vec![0u64; s.n_procs];
    for t in 0..g.n_tasks() {
        let p = s.task_proc[t] as usize;
        let mult = if matches!(g.kinds[t], TaskKind::Bdiv { .. }) {
            2
        } else {
            1
        };
        factor[p] += g.region_scalars[t] * mult;
    }
    let mut groups: HashSet<(u32, u32)> = HashSet::new();
    let mut aub = vec![0u64; s.n_procs];
    for t in 0..g.n_tasks() {
        let tq = s.task_proc[t];
        for (src, _) in g.in_edges(t) {
            let sq = s.task_proc[src as usize];
            if sq != tq && groups.insert((sq, t as u32)) {
                aub[sq as usize] += g.region_scalars[t];
            }
        }
    }
    MemoryStats {
        factor_scalars: factor,
        aub_scalars_bound: aub,
    }
}

/// Validates that a schedule respects dependencies and per-processor
/// sequential execution (test helper).
pub fn validate_schedule(g: &TaskGraph, s: &Schedule, machine: &MachineModel) -> Result<(), String> {
    let eps = 1e-9;
    for t in 0..g.n_tasks() {
        if (s.end[t] - s.start[t] - g.cost[t]).abs() > eps + 1e-12 * s.end[t].abs() {
            return Err(format!("task {t}: duration mismatch"));
        }
        let q = s.task_proc[t] as usize;
        let (cf, cl) = g.cand[t];
        if !(cf as usize <= q && q <= cl as usize) {
            return Err(format!("task {t} mapped off its candidate set"));
        }
        for (src, scalars) in g.in_edges(t) {
            let sp = s.task_proc[src as usize] as usize;
            let arrive = s.end[src as usize] + machine.comm_time(sp, q, scalars as usize);
            if s.start[t] + eps < arrive {
                return Err(format!("task {t} starts before dep {src} arrives"));
            }
        }
    }
    for p in 0..s.n_procs {
        let mut prev_end = 0.0f64;
        for &t in &s.proc_tasks[p] {
            let t = t as usize;
            if s.start[t] + eps < prev_end {
                return Err(format!("proc {p}: overlapping tasks"));
            }
            prev_end = s.end[t];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{proportional_mapping, DistStrategy, MappingOptions};
    use crate::tasks::build_task_graph;
    use pastix_graph::{CsrGraph, Permutation};
    use pastix_symbolic::{analyze, split_symbol, AnalysisOptions};

    fn task_graph(nx: usize, procs: usize, strategy: DistStrategy) -> (TaskGraph, MachineModel) {
        let mut e = Vec::new();
        let id = |x: usize, y: usize| (x + nx * y) as u32;
        for y in 0..nx {
            for x in 0..nx {
                if x + 1 < nx {
                    e.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < nx {
                    e.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let g = CsrGraph::from_edges(nx * nx, &e);
        let a = analyze(&g, &Permutation::identity(nx * nx), &AnalysisOptions::default());
        let machine = MachineModel::sp2(procs);
        let mopts = MappingOptions {
            procs_2d_min: 2.0,
            width_2d_min: 8,
            strategy,
        };
        let cand = proportional_mapping(&a.symbol, &machine, &mopts);
        let split = split_symbol(&a.symbol, 8);
        (build_task_graph(split, &cand, &machine), machine)
    }

    #[test]
    fn schedule_is_valid_mixed() {
        let (tg, machine) = task_graph(16, 4, DistStrategy::Mixed1d2d);
        let s = greedy_schedule(&tg, &machine);
        validate_schedule(&tg, &s, &machine).unwrap();
        assert!(s.makespan > 0.0);
    }

    #[test]
    fn schedule_is_valid_1d() {
        let (tg, machine) = task_graph(16, 4, DistStrategy::Only1d);
        let s = greedy_schedule(&tg, &machine);
        validate_schedule(&tg, &s, &machine).unwrap();
    }

    #[test]
    fn single_proc_schedule_is_sequential_sum() {
        let (tg, machine) = task_graph(12, 1, DistStrategy::Only1d);
        let s = greedy_schedule(&tg, &machine);
        validate_schedule(&tg, &s, &machine).unwrap();
        assert!((s.makespan - tg.total_cost()).abs() < 1e-9);
        assert!((s.utilization(&tg) - 1.0).abs() < 1e-9);
    }

    /// A task graph with real tree parallelism: the identity-ordered
    /// grid the other tests use has a chain etree (no independent
    /// subtrees at all), so distributing it can only add comm cost —
    /// the speedup claim needs a nested-dissection ordering.
    fn nd_task_graph(nx: usize, procs: usize) -> (TaskGraph, MachineModel) {
        let a = pastix_testsupport::graph_analysis(&pastix_testsupport::grid_graph(nx, nx), 16);
        let machine = MachineModel::sp2(procs);
        let mopts = MappingOptions {
            procs_2d_min: 2.0,
            width_2d_min: 8,
            strategy: DistStrategy::Mixed1d2d,
        };
        let cand = proportional_mapping(&a.symbol, &machine, &mopts);
        let split = split_symbol(&a.symbol, 8);
        (build_task_graph(split, &cand, &machine), machine)
    }

    #[test]
    fn more_procs_never_much_slower(){
        let (tg1, m1) = nd_task_graph(20, 1);
        let s1 = greedy_schedule(&tg1, &m1);
        let (tg4, m4) = nd_task_graph(20, 4);
        let s4 = greedy_schedule(&tg4, &m4);
        // Greedy + comm costs: not guaranteed monotone, but 4 procs should
        // beat 1 proc clearly on this problem.
        assert!(
            s4.makespan < s1.makespan,
            "4-proc {} vs 1-proc {}",
            s4.makespan,
            s1.makespan
        );
    }

    #[test]
    fn all_tasks_mapped_exactly_once() {
        let (tg, machine) = task_graph(14, 3, DistStrategy::Mixed1d2d);
        let s = greedy_schedule(&tg, &machine);
        let total: usize = s.proc_tasks.iter().map(|v| v.len()).sum();
        assert_eq!(total, tg.n_tasks());
        let mut seen = vec![false; tg.n_tasks()];
        for p in &s.proc_tasks {
            for &t in p {
                assert!(!seen[t as usize]);
                seen[t as usize] = true;
            }
        }
    }

    #[test]
    fn comm_stats_fanin_never_more_messages() {
        let (tg, machine) = task_graph(16, 4, DistStrategy::Mixed1d2d);
        let s = greedy_schedule(&tg, &machine);
        let c = comm_stats(&tg, &s);
        assert!(c.messages_fanin <= c.messages_direct);
    }

    #[test]
    fn critical_path_bounds_every_schedule() {
        let (tg, machine) = task_graph(16, 4, DistStrategy::Mixed1d2d);
        let s = greedy_schedule(&tg, &machine);
        let a = analyze_schedule(&tg, &s);
        assert!(a.critical_path > 0.0);
        assert!(a.critical_path <= a.total_work + 1e-12);
        // No schedule (with non-negative comm) can beat the lower bound.
        assert!(s.makespan + 1e-12 >= a.lower_bound, "makespan {} < bound {}", s.makespan, a.lower_bound);
        assert!(a.quality > 0.0 && a.quality <= 1.0);
    }

    #[test]
    fn cyclic_schedule_is_valid_but_not_better() {
        let (tg, machine) = task_graph(16, 4, DistStrategy::Mixed1d2d);
        let greedy = greedy_schedule(&tg, &machine);
        let cyc = cyclic_schedule(&tg, &machine);
        validate_schedule(&tg, &cyc, &machine).unwrap();
        // The simulation-driven mapping should never lose to round-robin
        // on this problem family.
        assert!(greedy.makespan <= cyc.makespan * 1.05,
            "greedy {} vs cyclic {}", greedy.makespan, cyc.makespan);
    }

    #[test]
    fn timeline_csv_has_all_tasks() {
        let (tg, machine) = task_graph(12, 2, DistStrategy::Only1d);
        let s = greedy_schedule(&tg, &machine);
        let mut buf = Vec::new();
        s.write_timeline_csv(&tg, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // digest comment + header + rows
        assert_eq!(text.lines().count(), tg.n_tasks() + 2);
        let expect = format!("# schedule_digest={:#018x} n_procs={}", s.digest(), s.n_procs);
        assert!(text.starts_with(&expect), "missing digest line: {text:.80}");
        assert!(text.lines().nth(1).unwrap().starts_with("task,proc,kind,cblk,start,end,cost"));
    }

    #[test]
    fn memory_stats_sum_to_owned_regions() {
        let (tg, machine) = task_graph(14, 4, DistStrategy::Mixed1d2d);
        let s = greedy_schedule(&tg, &machine);
        let m = memory_stats(&tg, &s);
        let total: u64 = m.factor_scalars.iter().sum();
        assert!(total > 0);
        assert!(m.max_total() >= *m.factor_scalars.iter().max().unwrap());
    }

    #[test]
    fn deterministic() {
        let (tg, machine) = task_graph(12, 4, DistStrategy::Mixed1d2d);
        let s1 = greedy_schedule(&tg, &machine);
        let s2 = greedy_schedule(&tg, &machine);
        assert_eq!(s1.task_proc, s2.task_proc);
        assert_eq!(s1.proc_tasks, s2.proc_tasks);
    }
}
