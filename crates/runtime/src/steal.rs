//! Work-stealing DAG executor: the substrate of `Backend::Threads` and
//! `Backend::Dynamic`.
//!
//! Where the sim backend executes an SPMD program whose every step was
//! fixed by the static schedule, this module executes an explicit DAG of
//! *nodes* with per-node dependency counters. A node is a list of tasks
//! run back to back by one worker ([`NodeDag::contract`] groups a task DAG
//! into nodes; a node of one task is a plain task). The static mapping
//! supplies *placement* (which worker's queue a node is enqueued on) and
//! *priority* (which ready node a worker prefers). Under
//! [`TaskOrder::Fifo`] and [`TaskOrder::Hints`] placement only seeds the
//! roots and a successor joins the queue of the worker that made it ready;
//! under [`TaskOrder::Static`] every node is enqueued on its placement
//! worker. Under every order a worker whose own queue is empty steals half
//! of another's.
//!
//! Two execution modes share the same task-body code:
//!
//! - **Threaded** (default): one OS thread per worker, atomic dependency
//!   counters, mutex-protected per-worker heaps, and steal-half when a
//!   worker's own queue runs dry.
//! - **Simulated** (`sim: Some(plan)`): a serialization where a seeded
//!   RNG picks which worker runs next, filtered through the same
//!   adversarial [`SchedPolicy`] vocabulary as the message simulator. Each
//!   worker still runs on a thread of its own, but only the one holding
//!   the scheduler's baton runs, so every execution is a pure function of
//!   `(seed, policy)`, which is what the chaos suite replays.

use crate::sim::{FaultPlan, SchedPolicy, SimRng};
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;

/// Options of the dynamic work-stealing backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynamicOptions {
    /// Worker thread count; 0 (default) means "auto": the static
    /// schedule's processor count.
    pub workers: usize,
    /// How ready tasks are ordered and where they run.
    pub order: TaskOrder,
    /// `Some(plan)` serializes the whole execution under the seeded
    /// deterministic scheduler (one worker at a time, adversarial
    /// policies) — the dynamic twin of [`crate::Backend::Sim`], whose
    /// solves run on it.
    pub sim: Option<FaultPlan>,
}

impl DynamicOptions {
    /// Default options: auto worker count, no priority hints, threaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count (0 = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the task order.
    pub fn with_order(mut self, order: TaskOrder) -> Self {
        self.order = order;
        self
    }

    /// [`TaskOrder::Hints`] when `on`, else [`TaskOrder::Fifo`].
    pub fn with_priorities(self, on: bool) -> Self {
        self.with_order(if on { TaskOrder::Hints } else { TaskOrder::Fifo })
    }

    /// Runs the executor under the seeded deterministic serializer.
    pub fn with_sim(mut self, plan: FaultPlan) -> Self {
        self.sim = Some(plan);
        self
    }
}

/// How the executor orders ready tasks and where it runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskOrder {
    /// Arrival order; idle workers steal.
    #[default]
    Fifo,
    /// The static schedule's predicted start times as priorities; idle
    /// workers steal.
    Hints,
    /// The static mapping: every node is enqueued on its `K_p` processor,
    /// which runs, among its ready nodes, the one earliest in `K_p`; a
    /// worker whose queue is empty steals, like under the other orders.
    Static,
}

/// What the executor runs: a node DAG and per-node hints. `priority` and
/// `placement` are indexed by node id.
#[derive(Debug, Clone, Copy)]
pub struct DagSpec<'a> {
    /// The nodes, their dependencies and their tasks.
    pub dag: &'a NodeDag,
    /// Priority per node; higher runs first (all-zero = FIFO).
    pub priority: &'a [u64],
    /// Preferred worker per node, taken modulo the worker count: where a
    /// root is seeded, and where every node is enqueued when `placed`.
    pub placement: &'a [u32],
    /// Enqueue every node on its placement worker.
    pub placed: bool,
}

impl DagSpec<'_> {
    /// The placement worker of node `v`.
    fn home(&self, v: usize, n_workers: usize) -> usize {
        self.placement.get(v).map_or(0, |&p| p as usize % n_workers)
    }

    /// The queue a successor `d` made ready by worker `w` goes to.
    fn queue_of(&self, d: usize, w: usize, n_workers: usize) -> usize {
        if self.placed {
            self.home(d, n_workers)
        } else {
            w
        }
    }
}

/// A task DAG contracted onto *nodes*, each a list of tasks one worker
/// runs back to back: per-node dependency counts, successors and members.
#[derive(Debug, PartialEq, Eq)]
pub struct NodeDag {
    /// Distinct producer nodes per node.
    pub deps: Vec<u32>,
    /// CSR row pointers into `out_dst`.
    pub out_ptr: Vec<u32>,
    /// Successor nodes, each once per producer node.
    pub out_dst: Vec<u32>,
    /// CSR row pointers into `tasks`.
    pub task_ptr: Vec<u32>,
    /// Member tasks, node by node, ascending within a node.
    pub tasks: Vec<u32>,
}

impl NodeDag {
    /// Contracts the task DAG with successor CSR `(out_ptr, out_dst)` onto
    /// `n_nodes` nodes, task `t` into node `node_of[t]`, in one pass over
    /// the edges. A node's successors are its members' successors outside
    /// it, deduplicated; its members run in ascending task id, which must
    /// be a topological order of the node, and the contraction must be
    /// acyclic.
    pub fn contract(out_ptr: &[u32], out_dst: &[u32], node_of: &[u32], n_nodes: usize) -> Self {
        let mut task_ptr = vec![0u32; n_nodes + 1];
        for &v in node_of {
            task_ptr[v as usize + 1] += 1;
        }
        for v in 0..n_nodes {
            task_ptr[v + 1] += task_ptr[v];
        }
        let mut fill = task_ptr.clone();
        let mut tasks = vec![0u32; node_of.len()];
        for (t, &v) in node_of.iter().enumerate() {
            tasks[fill[v as usize] as usize] = t as u32;
            fill[v as usize] += 1;
        }
        // `seen[u] == v`: node `u` is already a successor of node `v`
        // (or is `v`).
        let (mut seen, mut deps) = (vec![u32::MAX; n_nodes], vec![0u32; n_nodes]);
        let (mut node_ptr, mut node_dst) = (Vec::with_capacity(n_nodes + 1), Vec::new());
        node_ptr.push(0);
        for v in 0..n_nodes {
            seen[v] = v as u32;
            for &t in &tasks[task_ptr[v] as usize..task_ptr[v + 1] as usize] {
                for &d in &out_dst[out_ptr[t as usize] as usize..out_ptr[t as usize + 1] as usize] {
                    let u = node_of[d as usize];
                    if seen[u as usize] != v as u32 {
                        seen[u as usize] = v as u32;
                        deps[u as usize] += 1;
                        node_dst.push(u);
                    }
                }
            }
            node_ptr.push(node_dst.len() as u32);
        }
        Self { deps, out_ptr: node_ptr, out_dst: node_dst, task_ptr, tasks }
    }

    /// The tasks of node `v`, in run order.
    pub fn members(&self, v: usize) -> &[u32] {
        &self.tasks[self.task_ptr[v] as usize..self.task_ptr[v + 1] as usize]
    }
}

/// Execution context handed to the task body alongside the task id.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// Worker executing the task.
    pub worker: usize,
    /// How many tasks this worker had executed before this one.
    pub local_index: usize,
    /// Ready-queue depth of the executing worker right after the pop —
    /// the sampled [`ready-queue gauge`](crate::Backend::Dynamic) signal.
    pub ready_depth: usize,
}

/// Counters of one [`run_dag`] execution. Both count nodes, not tasks.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Nodes executed per worker.
    pub executed: Vec<u64>,
    /// Nodes moved between queues by steal-half (0 under sim).
    pub steals: u64,
}

/// Ready-queue entry. Ordering: highest priority first, then lowest
/// sequence number (so an all-zero priority vector degrades to FIFO), then
/// lowest node id.
struct Entry {
    prio: u64,
    seq: u64,
    node: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.prio
            .cmp(&other.prio)
            .then(other.seq.cmp(&self.seq))
            .then(other.node.cmp(&self.node))
    }
}

/// One worker's ready queue and executed count. Aligned to two cache
/// lines (the adjacent-line prefetcher fetches pairs), so a worker popping
/// its own queue, or a thief locking a victim's, never invalidates the
/// line another worker's queue sits on.
#[repr(align(128))]
struct Slot {
    queue: Mutex<BinaryHeap<Entry>>,
    executed: AtomicU64,
}

/// Executes the DAG described by `spec` on `n_workers` workers.
///
/// A worker pops a ready node and calls `body(task, ctx)` on each of its
/// tasks in order, so `body` runs each task exactly once; returning
/// `false` aborts the execution (the node's later tasks and every
/// remaining node are skipped on every worker).
/// A panicking body likewise aborts the run, and the panic is re-raised
/// on the calling thread after every worker has unwound — the same
/// contract as [`crate::sim::run_sim_spmd`].
///
/// `worker_scope(worker, run)` wraps each worker's whole lifetime: it must
/// call `run()` exactly once and may install per-thread state around it
/// (the solver uses it to open a trace session per worker); its return
/// values come back in worker order, under `sim` as well.
pub fn run_dag<R, B, W>(
    spec: &DagSpec<'_>,
    n_workers: usize,
    sim: Option<&FaultPlan>,
    body: &B,
    worker_scope: &W,
) -> (Vec<R>, StealStats)
where
    R: Send,
    B: Fn(u32, &TaskCtx) -> bool + Sync,
    W: Fn(usize, &mut dyn FnMut()) -> R + Sync,
{
    assert!(n_workers >= 1, "run_dag needs at least one worker");
    let n = spec.dag.deps.len();
    debug_assert_eq!(spec.dag.out_ptr.len(), n + 1);
    debug_assert_eq!(spec.priority.len(), n);
    match sim {
        Some(plan) => run_serial(spec, n_workers, plan, body, worker_scope),
        None => run_threaded(spec, n_workers, body, worker_scope),
    }
}

fn run_threaded<R, B, W>(
    spec: &DagSpec<'_>,
    n_workers: usize,
    body: &B,
    worker_scope: &W,
) -> (Vec<R>, StealStats)
where
    R: Send,
    B: Fn(u32, &TaskCtx) -> bool + Sync,
    W: Fn(usize, &mut dyn FnMut()) -> R + Sync,
{
    let n = spec.dag.deps.len();
    let deps: Vec<AtomicU32> = spec.dag.deps.iter().map(|&d| AtomicU32::new(d)).collect();
    let slots: Vec<Slot> = (0..n_workers)
        .map(|_| Slot { queue: Mutex::new(BinaryHeap::new()), executed: AtomicU64::new(0) })
        .collect();
    let next_seq = AtomicU64::new(0);
    // Seed dependency-free roots on their statically preferred worker, in
    // node-id order (= the FIFO order when priorities are all zero).
    for v in 0..n {
        if spec.dag.deps[v] == 0 {
            slots[spec.home(v, n_workers)].queue.lock().unwrap().push(Entry {
                prio: spec.priority[v],
                seq: next_seq.fetch_add(1, Ordering::Relaxed),
                node: v as u32,
            });
        }
    }
    let remaining = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);
    let steals = AtomicU64::new(0);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let worker_loop = |w: usize| {
        let mut local_index = 0usize;
        loop {
            if abort.load(Ordering::Acquire) || remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            let popped = {
                let mut q = slots[w].queue.lock().unwrap();
                let e = q.pop();
                let depth = q.len();
                e.map(|e| (e, depth))
            };
            let Some((entry, depth)) = popped else {
                // Own queue dry: steal the higher-priority half of the
                // first non-empty victim queue.
                let mut got = false;
                for off in 1..n_workers {
                    let v = (w + off) % n_workers;
                    let mut batch = Vec::new();
                    {
                        let mut vq = slots[v].queue.lock().unwrap();
                        let take = vq.len().div_ceil(2);
                        for _ in 0..take {
                            if let Some(e) = vq.pop() {
                                batch.push(e);
                            }
                        }
                    }
                    if !batch.is_empty() {
                        steals.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        let mut q = slots[w].queue.lock().unwrap();
                        for e in batch {
                            q.push(e);
                        }
                        got = true;
                        break;
                    }
                }
                if !got {
                    std::thread::yield_now();
                }
                continue;
            };
            let v = entry.node as usize;
            slots[w].executed.fetch_add(1, Ordering::Relaxed);
            let run_node = || {
                spec.dag.members(v).iter().all(|&t| {
                    let ctx = TaskCtx { worker: w, local_index, ready_depth: depth };
                    local_index += 1;
                    body(t, &ctx)
                })
            };
            match catch_unwind(AssertUnwindSafe(run_node)) {
                Err(payload) => {
                    let mut slot = panic_slot.lock().unwrap();
                    slot.get_or_insert(payload);
                    abort.store(true, Ordering::Release);
                    return;
                }
                Ok(false) => {
                    abort.store(true, Ordering::Release);
                    return;
                }
                Ok(true) => {}
            }
            let lo = spec.dag.out_ptr[v] as usize;
            let hi = spec.dag.out_ptr[v + 1] as usize;
            for &d in &spec.dag.out_dst[lo..hi] {
                // AcqRel: the successor's execution must observe every
                // write of every producer; the release half publishes this
                // node's writes, the acquire half (of the last decrement)
                // pulls in the other producers'.
                if deps[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    slots[spec.queue_of(d as usize, w, n_workers)].queue.lock().unwrap().push(Entry {
                        prio: spec.priority[d as usize],
                        seq: next_seq.fetch_add(1, Ordering::Relaxed),
                        node: d,
                    });
                }
            }
            remaining.fetch_sub(1, Ordering::AcqRel);
        }
    };

    let results: Vec<R> = std::thread::scope(|scope| {
        let worker_loop = &worker_loop;
        let handles: Vec<_> = (0..n_workers)
            .map(|w| scope.spawn(move || worker_scope(w, &mut || worker_loop(w))))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });
    if let Some(payload) = panic_slot.into_inner().unwrap() {
        resume_unwind(payload);
    }
    let stats = StealStats {
        executed: slots.into_iter().map(|s| s.executed.into_inner()).collect(),
        steals: steals.into_inner(),
    };
    (results, stats)
}

/// The deterministic serialization of the executor: the scheduler state
/// is the per-worker ready list, the enabled actions are "worker w
/// executes one of its ready nodes", and the plan's policy filters them
/// exactly like the message simulator filters its actions — with the same
/// liveness fallback (an empty filtered set restores the full set).
/// Priority hints are deliberately ignored here: the point of the sim mode
/// is to explore *adversarial* orders, not preferred ones.
///
/// Each worker runs inside its own `worker_scope` on a thread of its own,
/// so per-thread state (a trace session) is per worker, as on the threaded
/// path. The scheduler, on the calling thread, hands the baton — one node
/// to run — to one worker at a time and waits for it back, so no two
/// bodies ever run at once and the run is a pure function of
/// `(seed, policy)`.
fn run_serial<R, B, W>(
    spec: &DagSpec<'_>,
    n_workers: usize,
    plan: &FaultPlan,
    body: &B,
    worker_scope: &W,
) -> (Vec<R>, StealStats)
where
    R: Send,
    B: Fn(u32, &TaskCtx) -> bool + Sync,
    W: Fn(usize, &mut dyn FnMut()) -> R + Sync,
{
    let n = spec.dag.deps.len();
    let mut deps: Vec<u32> = spec.dag.deps.clone();
    let mut ready: Vec<Vec<Entry>> = (0..n_workers).map(|_| Vec::new()).collect();
    let mut next_seq = 0u64;
    for v in 0..n {
        if deps[v] == 0 {
            ready[spec.home(v, n_workers)].push(Entry {
                prio: spec.priority[v],
                seq: next_seq,
                node: v as u32,
            });
            next_seq += 1;
        }
    }
    let mut rng = SimRng::new(plan.seed);
    let mut executed = vec![0u64; n_workers];
    let mut panic_payload = None;
    // The baton: `(node, ready depth)` to a worker; whether the node ran to
    // completion (or its panic) back.
    let (done_tx, done_rx) = channel::<std::thread::Result<bool>>();
    let (batons, inboxes): (Vec<_>, Vec<_>) = (0..n_workers).map(|_| channel::<(u32, usize)>()).unzip();
    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = inboxes
            .into_iter()
            .enumerate()
            .map(|(w, inbox)| {
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    worker_scope(w, &mut || {
                        let mut local_index = 0usize;
                        for (v, ready_depth) in inbox.iter() {
                            let run_node = || {
                                spec.dag.members(v as usize).iter().all(|&t| {
                                    let ctx = TaskCtx { worker: w, local_index, ready_depth };
                                    local_index += 1;
                                    body(t, &ctx)
                                })
                            };
                            let _ = done_tx.send(catch_unwind(AssertUnwindSafe(run_node)));
                        }
                    })
                })
            })
            .collect();
        let mut remaining = n;
        while remaining > 0 {
            // Enabled actions: (worker, index into its ready list).
            let acts: Vec<(usize, usize)> = (0..n_workers)
                .flat_map(|w| (0..ready[w].len()).map(move |i| (w, i)))
                .collect();
            assert!(
                !acts.is_empty(),
                "dynamic executor stalled: {remaining} nodes remain but none are ready \
                 (cyclic dependencies?) [seed {} policy {:?}]",
                plan.seed,
                plan.policy
            );
            let keep: Vec<(usize, usize)> = match plan.policy {
                SchedPolicy::Uniform => acts.clone(),
                // Never run the starved worker while anyone else has work.
                SchedPolicy::StarveRank(r) => acts.iter().copied().filter(|&(w, _)| w != r).collect(),
                // The oldest ready node is always scheduled last.
                SchedPolicy::DeliverLast => {
                    let oldest = acts
                        .iter()
                        .copied()
                        .min_by_key(|&(w, i)| ready[w][i].seq)
                        .expect("acts is non-empty");
                    acts.iter().copied().filter(|&a| a != oldest).collect()
                }
                // Each worker executes its queue strictly in arrival order.
                SchedPolicy::FifoPerPair => {
                    let mut heads: Vec<(usize, usize)> = Vec::new();
                    for w in 0..n_workers {
                        if let Some(i) = (0..ready[w].len()).min_by_key(|&i| ready[w][i].seq) {
                            heads.push((w, i));
                        }
                    }
                    heads
                }
            };
            // Liveness fallback, as in the message simulator: a policy only
            // filters; an emptied set is restored whole.
            let pick = if keep.is_empty() { &acts } else { &keep };
            let (w, i) = pick[rng.below(pick.len())];
            let v = ready[w].remove(i).node;
            executed[w] += 1;
            batons[w].send((v, ready[w].len())).expect("worker holds its inbox until the batons drop");
            match done_rx.recv().expect("worker answers every baton") {
                Ok(true) => {}
                Ok(false) => break,
                Err(payload) => {
                    panic_payload = Some(payload);
                    break;
                }
            }
            let lo = spec.dag.out_ptr[v as usize] as usize;
            let hi = spec.dag.out_ptr[v as usize + 1] as usize;
            for &d in &spec.dag.out_dst[lo..hi] {
                deps[d as usize] -= 1;
                if deps[d as usize] == 0 {
                    ready[spec.queue_of(d as usize, w, n_workers)].push(Entry {
                        prio: spec.priority[d as usize],
                        seq: next_seq,
                        node: d,
                    });
                    next_seq += 1;
                }
            }
            remaining -= 1;
        }
        // Closing the inboxes ends every worker's loop.
        drop(batons);
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    (results, StealStats { executed, steals: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// The task DAG `(out_ptr, out_dst)` with one node per task; its
    /// dependency counts must be `deps`.
    fn plain(deps: &[u32], out_ptr: &[u32], out_dst: &[u32]) -> NodeDag {
        let n = deps.len();
        let dag = NodeDag::contract(out_ptr, out_dst, &(0..n as u32).collect::<Vec<_>>(), n);
        assert_eq!(dag.deps, deps);
        dag
    }

    /// A spec over `dag` whose successors stay with the worker that readied
    /// them.
    fn spec<'a>(dag: &'a NodeDag, priority: &'a [u64], placement: &'a [u32]) -> DagSpec<'a> {
        DagSpec { dag, priority, placement, placed: false }
    }

    /// A simple chain DAG 0 -> 1 -> ... -> n-1.
    fn chain(n: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let deps: Vec<u32> = (0..n).map(|t| u32::from(t > 0)).collect();
        let mut out_ptr = vec![0u32; n + 1];
        let mut out_dst = Vec::new();
        for t in 0..n {
            if t + 1 < n {
                out_dst.push((t + 1) as u32);
            }
            out_ptr[t + 1] = out_dst.len() as u32;
        }
        (deps, out_ptr, out_dst)
    }

    /// A fork-join DAG 0 -> {1, ..., n-2} -> n-1.
    fn fork_join(n: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut deps = vec![1u32; n];
        deps[0] = 0;
        deps[n - 1] = (n - 2) as u32;
        let mut out_ptr = vec![0u32; n + 1];
        let mut out_dst: Vec<u32> = (1..n as u32 - 1).collect();
        for t in 1..n {
            out_ptr[t] = out_dst.len() as u32;
            if t < n - 1 {
                out_dst.push((n - 1) as u32);
            }
        }
        out_ptr[n] = out_dst.len() as u32;
        (deps, out_ptr, out_dst)
    }

    #[test]
    fn chain_executes_in_order() {
        let n = 64;
        let (deps, out_ptr, out_dst) = chain(n);
        let prio = vec![0u64; n];
        let place = vec![0u32; n];
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = spec(&dag, &prio, &place);
        let order = Mutex::new(Vec::new());
        let (_, stats) = run_dag(
            &spec,
            4,
            None,
            &|t, _ctx| {
                order.lock().unwrap().push(t);
                true
            },
            &|_w, run| run(),
        );
        assert_eq!(order.into_inner().unwrap(), (0..n as u32).collect::<Vec<_>>());
        assert_eq!(stats.executed.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn diamond_respects_deps_and_counts_all_tasks() {
        // 0 -> {1, 2} -> 3.
        let deps = vec![0u32, 1, 1, 2];
        let out_ptr = vec![0u32, 2, 3, 4, 4];
        let out_dst = vec![1u32, 2, 3, 3];
        let prio = vec![0u64; 4];
        let place = vec![0u32, 1, 2, 3];
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = spec(&dag, &prio, &place);
        let done = AtomicU64::new(0);
        let last = AtomicU64::new(u64::MAX);
        let (_, stats) = run_dag(
            &spec,
            3,
            None,
            &|t, _| {
                done.fetch_add(1, Ordering::Relaxed);
                if t == 3 {
                    last.store(done.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                true
            },
            &|_w, run| run(),
        );
        assert_eq!(done.into_inner(), 4);
        // Task 3 must have been the 4th execution.
        assert_eq!(last.into_inner(), 4);
        assert_eq!(stats.executed.iter().sum::<u64>(), 4);
    }

    #[test]
    fn abort_skips_remaining_tasks() {
        let n = 32;
        let (deps, out_ptr, out_dst) = chain(n);
        let prio = vec![0u64; n];
        let place = vec![0u32; n];
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = spec(&dag, &prio, &place);
        let done = AtomicU64::new(0);
        let (_, stats) = run_dag(
            &spec,
            2,
            None,
            &|t, _| {
                done.fetch_add(1, Ordering::Relaxed);
                t != 5
            },
            &|_w, run| run(),
        );
        assert!(stats.executed.iter().sum::<u64>() < n as u64);
        assert_eq!(done.into_inner(), 6, "execution stops at the aborting task");
    }

    #[test]
    fn body_panic_propagates_after_join() {
        let n = 8;
        let (deps, out_ptr, out_dst) = chain(n);
        let prio = vec![0u64; n];
        let place = vec![0u32; n];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let dag = plain(&deps, &out_ptr, &out_dst);
            let spec = spec(&dag, &prio, &place);
            run_dag(
                &spec,
                2,
                None,
                &|t, _| {
                    if t == 3 {
                        panic!("task body boom");
                    }
                    true
                },
                &|_w, run| run(),
            );
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn sim_mode_is_deterministic_per_seed_and_policy() {
        let n = 40;
        // A fork-join DAG wide enough for scheduling freedom.
        let (deps, out_ptr, out_dst) = fork_join(n);
        let prio = vec![0u64; n];
        let place: Vec<u32> = (0..n as u32).collect();
        let run_order = |seed: u64, policy: SchedPolicy| {
            let dag = plain(&deps, &out_ptr, &out_dst);
            let spec = spec(&dag, &prio, &place);
            let plan = FaultPlan::builder(seed).policy(policy).build();
            let order = Mutex::new(Vec::new());
            run_dag(
                &spec,
                3,
                Some(&plan),
                &|t, _| {
                    order.lock().unwrap().push(t);
                    true
                },
                &|_w, run| run(),
            );
            order.into_inner().unwrap()
        };
        for policy in [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(1),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ] {
            let a = run_order(7, policy);
            let b = run_order(7, policy);
            assert_eq!(a, b, "same (seed, policy) must replay identically");
            assert_eq!(a.len(), n);
            assert_eq!(a[0], 0);
            assert_eq!(*a.last().unwrap(), (n - 1) as u32);
        }
        // Different seeds should (for this wide DAG) explore different orders.
        assert_ne!(run_order(1, SchedPolicy::Uniform), run_order(2, SchedPolicy::Uniform));
    }

    #[test]
    fn priorities_order_ready_roots() {
        // All-root DAG on one worker: execution must follow priority desc.
        let n = 10;
        let deps = vec![0u32; n];
        let out_ptr = vec![0u32; n + 1];
        let out_dst: Vec<u32> = Vec::new();
        let prio: Vec<u64> = (0..n as u64).collect();
        let place = vec![0u32; n];
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = spec(&dag, &prio, &place);
        let order = Mutex::new(Vec::new());
        run_dag(
            &spec,
            1,
            None,
            &|t, _| {
                order.lock().unwrap().push(t);
                true
            },
            &|_w, run| run(),
        );
        let got = order.into_inner().unwrap();
        assert_eq!(got, (0..n as u32).rev().collect::<Vec<_>>());
    }

    #[test]
    fn placed_tasks_run_from_their_own_queue_in_priority_order_and_idle_workers_steal() {
        // Every third task on worker 2, the rest on worker 0: worker 1 has no
        // placed task and takes part only by stealing. Worker 0 prefers high
        // task ids, worker 2 low ones.
        let n = 120;
        let (deps, out_ptr, out_dst) = fork_join(n);
        let place: Vec<u32> = (0..n as u32).map(|t| u32::from(t % 3 == 0) * 2).collect();
        let prio: Vec<u64> = (0..n as u64).map(|t| if t % 3 == 0 { n as u64 - t } else { t }).collect();
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = DagSpec { placed: true, ..spec(&dag, &prio, &place) };
        let ran = Mutex::new(Vec::new());
        let body = |t: u32, ctx: &TaskCtx| {
            std::hint::black_box((0..200).sum::<u64>());
            ran.lock().unwrap().push((t, ctx.worker));
            true
        };
        let (_, stats) = run_dag(&spec, 3, None, &body, &|_w, run| run());
        let first = std::mem::take(&mut *ran.lock().unwrap());
        assert_eq!(first.len(), n);
        // Successors are enqueued on their placement, so only steal-half
        // moves a task off it, and worker 1 runs only what it stole.
        let away = first.iter().filter(|&&(t, w)| w != place[t as usize] as usize).count() as u64;
        assert!(away <= stats.steals, "{away} tasks ran away from their placement, {} steals", stats.steals);
        assert!(stats.steals > 0 || stats.executed[1] == 0, "{stats:?}");
        assert!(stats.executed[1] <= stats.steals, "{stats:?}");

        // With every task a root, workers 0 and 2 run their first `m` tasks
        // in lockstep and worker 1 starts only after them, so nothing is
        // stolen yet: each runs the top of its own queue in priority order.
        let m = 8;
        let roots = plain(&vec![0u32; n], &vec![0u32; n + 1], &[]);
        let lockstep = Barrier::new(2);
        let open = AtomicBool::new(false);
        let gated = |t: u32, ctx: &TaskCtx| {
            ran.lock().unwrap().push((t, ctx.worker));
            if ctx.worker != 1 && ctx.local_index + 1 == m && lockstep.wait().is_leader() {
                open.store(true, Ordering::Release);
            }
            true
        };
        let wait_for_open = |w: usize, run: &mut dyn FnMut()| {
            while w == 1 && !open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            run()
        };
        let roots_spec = DagSpec { dag: &roots, ..spec };
        let (_, stats) = run_dag(&roots_spec, 3, None, &gated, &wait_for_open);
        assert_eq!(stats.executed.iter().sum::<u64>(), n as u64);
        let ran = ran.into_inner().unwrap();
        for w in [0, 2] {
            let mut top: Vec<u32> = (0..n as u32).filter(|&t| place[t as usize] as usize == w).collect();
            top.sort_by_key(|&t| std::cmp::Reverse(prio[t as usize]));
            let head: Vec<u32> = ran.iter().filter(|e| e.1 == w).map(|e| e.0).take(m).collect();
            assert_eq!(head, top[..m], "worker {w}");
        }

        // Abort and panic still end the run on every worker.
        let aborted = run_dag(&spec, 3, None, &|t, _: &TaskCtx| t != 5, &|_w, run| run()).1;
        assert!(aborted.executed.iter().sum::<u64>() < n as u64);
        let boom = |t, _: &TaskCtx| if t == 7 { panic!("placed boom") } else { true };
        assert!(catch_unwind(AssertUnwindSafe(|| run_dag(&spec, 3, None, &boom, &|_w, run| run()))).is_err());
    }

    /// Tasks 0..7 with edges 0→2, 1→2, 2→5, 2→6, 3→4, 4→5, 4→6, 5→6,
    /// grouped as {0, 1, 2}, {3, 4}, {5}, {6}.
    fn grouped_dag() -> NodeDag {
        let out_ptr = [0u32, 1, 2, 4, 5, 7, 8, 8];
        let out_dst = [2u32, 2, 5, 6, 4, 5, 6, 6];
        NodeDag::contract(&out_ptr, &out_dst, &[0, 0, 0, 1, 1, 2, 3], 4)
    }

    #[test]
    fn contraction_merges_members_and_counts_distinct_producer_nodes() {
        let dag = grouped_dag();
        assert_eq!(dag.deps.len(), 4);
        assert_eq!([dag.members(0), dag.members(1), dag.members(2), dag.members(3)], [&[0, 1, 2][..], &[3, 4], &[5], &[6]]);
        // Internal edges vanish, and 2→5, 2→6 and 4→5, 4→6 collapse to one
        // edge per producer node.
        assert_eq!(dag.out_ptr, [0, 2, 4, 5, 5]);
        assert_eq!(dag.out_dst, [2, 3, 2, 3, 3]);
        assert_eq!(dag.deps, [0, 0, 2, 3]);
    }

    #[test]
    fn a_node_runs_its_members_back_to_back_in_order() {
        let dag = grouped_dag();
        let (prio, place) = ([0u64; 4], [0u32, 1, 0, 1]);
        let check = |sim: Option<&FaultPlan>, placed: bool| {
            let spec = DagSpec { placed, ..spec(&dag, &prio, &place) };
            let ran = Mutex::new(Vec::new());
            let body = |t: u32, ctx: &TaskCtx| {
                ran.lock().unwrap().push((t, ctx.worker, ctx.local_index));
                true
            };
            let (_, stats) = run_dag(&spec, 2, sim, &body, &|_w, run| run());
            assert_eq!(stats.executed.iter().sum::<u64>(), 4, "executed counts nodes");
            let ran = ran.into_inner().unwrap();
            assert_eq!(ran.len(), 7, "the body runs once per task");
            // Each node's tasks are consecutive on one worker, ascending
            // (the other worker's tasks may interleave with them in `ran`).
            for v in 0..dag.deps.len() {
                let m = dag.members(v);
                let worker = ran.iter().find(|e| e.0 == m[0]).unwrap().1;
                let own: Vec<u32> = ran.iter().filter(|e| e.1 == worker).map(|e| e.0).collect();
                let at = own.iter().position(|&t| t == m[0]).unwrap();
                assert_eq!(own[at..(at + m.len()).min(own.len())], *m, "{ran:?}");
            }
            // `local_index` counts tasks per worker.
            for w in 0..2 {
                let idx: Vec<usize> = ran.iter().filter(|e| e.1 == w).map(|e| e.2).collect();
                assert_eq!(idx, (0..idx.len()).collect::<Vec<_>>());
            }
        };
        for placed in [false, true] {
            check(None, placed);
            for policy in [SchedPolicy::Uniform, SchedPolicy::StarveRank(1), SchedPolicy::DeliverLast, SchedPolicy::FifoPerPair] {
                check(Some(&FaultPlan::builder(3).policy(policy).build()), placed);
            }
        }
        // A member that aborts skips the rest of its node.
        let spec = spec(&dag, &prio, &place);
        let ran = Mutex::new(Vec::new());
        let abort_at_1 = |t: u32, _: &TaskCtx| {
            ran.lock().unwrap().push(t);
            t != 1
        };
        run_dag(&spec, 1, None, &abort_at_1, &|_w, run| run());
        assert!(!ran.into_inner().unwrap().contains(&2));
    }

    #[test]
    fn stealing_moves_work_to_idle_workers() {
        // Many independent roots all placed on worker 0; worker 1 must
        // steal to participate.
        let n = 200;
        let deps = vec![0u32; n];
        let out_ptr = vec![0u32; n + 1];
        let out_dst: Vec<u32> = Vec::new();
        let prio = vec![0u64; n];
        let place = vec![0u32; n];
        let dag = plain(&deps, &out_ptr, &out_dst);
        let spec = spec(&dag, &prio, &place);
        let (_, stats) = run_dag(
            &spec,
            2,
            None,
            &|_t, _| {
                // A little work so worker 1 has time to come up and steal.
                std::hint::black_box((0..500).sum::<u64>());
                true
            },
            &|_w, run| run(),
        );
        assert_eq!(stats.executed.iter().sum::<u64>(), n as u64);
        // Stealing is timing-dependent, but with 200 tasks parked on one
        // queue the second worker essentially always gets some.
        assert!(stats.steals > 0 || stats.executed[1] == 0);
    }
}
