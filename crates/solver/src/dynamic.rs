//! Factorization on the shared-memory DAG executor
//! ([`pastix_runtime::steal`]) — `Backend::Threads` in the static order,
//! `Backend::Dynamic` in any — and the panel solve of every backend
//! (`Backend::Sim`'s under the executor's seeded serializer).
//!
//! Unlike the fan-in driver of `Backend::Sim`, which executes the static
//! schedule's per-rank task lists and moves contributions through messages
//! and AUBs, this engine executes the [`TaskGraph`] directly, its small
//! one-processor subtrees grouped into one executor node each
//! (`coarsen`, computed once per plan): dependency counts are the
//! nodes' distinct producers, contributions are applied straight into the
//! shared factor panels under per-panel locks, and the static schedule
//! supplies the worker count, placement and priority. The solve runs the
//! plan's split of the elimination tree instead (`solve_plan`, built once
//! per plan): one forward and one backward node per bin of whole subtrees
//! and one top node between them, `2·n_procs + 1` nodes, each a sweep over
//! workspace rows of its own, so it takes no lock per column block and
//! sums every row in an order the plan fixes.
//!
//! Locking is deadlock-free by index ordering: every multi-lock
//! acquisition ascends the column-block order (a contribution's target
//! block is strictly later than its producer), and the per-blok `F = L·D`
//! buffers of a column block sit between that block's panel and every
//! later panel in the order. The executor's `AcqRel` dependency-counter
//! decrements plus the panel mutexes give each consumer a happens-before
//! edge from every producer's writes.

use crate::config::SolverConfig;
use crate::pattern::Entries;
use crate::solve_plan::SolveSplit;
use crate::storage::{pair_target, scatter_cblk, strip_stretches, FactorStorage, PanelLayout};
use crate::sweeps::{self, LaterSegments, RowSink};
use crate::tasks::{self, ContribSink, Scratch, StretchFn};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_runtime::steal::{run_dag, DagSpec, NodeDag, TaskCtx};
use pastix_runtime::{DynamicOptions, TaskOrder};
use pastix_sched::{Schedule, TaskGraph, TaskKind};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{
    begin_rank, heartbeat, sample_gauge, task_span, GaugeId, RankTrace, TaskClass, TraceLog,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Worker count: the explicit one, else the schedule's processors.
fn resolve_workers(dopts: &DynamicOptions, sched: &Schedule) -> usize {
    if dopts.workers > 0 {
        dopts.workers
    } else {
        sched.n_procs
    }
}

/// One worker's scratch, aligned to two cache lines (the adjacent-line
/// prefetcher fetches pairs): a worker locking its scratch and resizing
/// its buffers on every task must not invalidate the line another
/// worker's sits on.
#[derive(Default)]
#[repr(align(128))]
struct OwnLines<S>(Mutex<S>);

/// A subtree is one executor node only while its modelled cost is at most
/// `Σ cost / (GROUPS_PER_PROC · n_procs)`. Every node pays the executor's
/// fixed cost once (pop, lock, counters: 0.2–0.3 µs per task on the plate
/// with empty bodies), so a group should be long against it; but a node is
/// the unit of placement and stealing, so the largest group bounds the tail
/// in which one worker finishes a group while the others have nothing to
/// steal: at 64 groups per processor, 1.6 % of its modelled work. On the
/// plate at 2 processors this is ~1 100× the median task cost (DESIGN §10).
const GROUPS_PER_PROC: f64 = 64.0;

/// The executor's nodes: each maximal subtree of the block elimination tree
/// that is all COMP1D on one `K_p` processor, within [`GROUPS_PER_PROC`]'s
/// bound, is one node; every other task is a node of its own. Contributions
/// target ancestors, so a subtree holds all its tasks' producers (a group
/// has no external predecessor), and its members run in ascending task id,
/// which is topological because every edge ascends.
pub(crate) fn coarsen(graph: &TaskGraph, sched: &Schedule) -> NodeDag {
    let sym = &graph.split.symbol;
    let ns = sym.n_cblks();
    let head = |k: usize| graph.head_task_of_cblk[k] as usize;
    // The block elimination tree: a column block's parent is the (later)
    // one its first off-diagonal blok faces.
    let parent = |k: usize| {
        let cb = &sym.cblks[k];
        (cb.blok_start + 1 < cb.blok_end).then(|| sym.bloks[cb.blok_start + 1].fcblk as usize)
    };
    // Children before parents: each subtree's modelled cost, and whether
    // it is all COMP1D on its root's processor.
    let mut cost: Vec<f64> = (0..ns).map(|k| graph.cost[head(k)]).collect();
    let mut one_proc: Vec<bool> = (0..ns).map(|k| matches!(graph.kinds[head(k)], TaskKind::Comp1d { .. })).collect();
    for k in 0..ns {
        if let Some(p) = parent(k) {
            cost[p] += cost[k];
            one_proc[p] &= one_proc[k] && sched.task_proc[head(k)] == sched.task_proc[head(p)];
        }
    }
    let limit = graph.total_cost() / (GROUPS_PER_PROC * sched.n_procs as f64);
    let grouped = |k: usize| one_proc[k] && cost[k] <= limit;
    // Parents before children: a grouped column block under a grouped
    // parent joins its parent's group, named by the group's root.
    let mut root: Vec<u32> = (0..ns as u32).collect();
    for k in (0..ns).rev() {
        if let Some(p) = parent(k).filter(|&p| grouped(k) && grouped(p)) {
            root[k] = root[p];
        }
    }
    // Node ids in the order of each node's first task.
    let (mut node_of_root, mut n_nodes) = (vec![u32::MAX; ns], 0u32);
    let node_of: Vec<u32> = (graph.kinds.iter())
        .map(|kind| {
            let r = root[kind.cblk() as usize] as usize;
            if !grouped(r) || node_of_root[r] == u32::MAX {
                node_of_root[r] = n_nodes;
                n_nodes += 1;
            }
            node_of_root[r]
        })
        .collect();
    NodeDag::contract(&graph.out_ptr, &graph.out_dst, &node_of, n_nodes as usize)
}

/// Priority vector: all-zero (FIFO); rank by predicted start (the task
/// the static scheduler would have started earliest gets the highest
/// priority); or, in the static order, the task's position in its
/// processor's `K_p`.
fn priority_vec(n: usize, order: TaskOrder, sched: &Schedule) -> Vec<u64> {
    let mut p = vec![0u64; n];
    match order {
        TaskOrder::Fifo => return p,
        TaskOrder::Static => {
            for tasks in &sched.proc_tasks {
                for (i, &t) in tasks.iter().enumerate() {
                    p[t as usize] = (tasks.len() - i) as u64;
                }
            }
            return p;
        }
        TaskOrder::Hints => {}
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by(|&x, &y| {
        sched.start[x as usize]
            .partial_cmp(&sched.start[y as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.cmp(&y))
    });
    for (rank, &t) in idx.iter().enumerate() {
        p[t as usize] = (n - rank) as u64;
    }
    p
}

/// Shared state of the dynamic factorization: the factor panels (one
/// mutex per column block) and the per-blok `F = L·D` buffers produced by
/// BDIV tasks for the 2D BMOD updates.
struct DynFactor<'a, T> {
    sym: &'a SymbolMatrix,
    layout: &'a PanelLayout,
    /// `P·A·Pᵀ`'s entries, scattered into a panel by its first locker.
    a: Entries<'a, T>,
    /// Allocated by the calling thread, empty until first locked.
    panels: &'a [Mutex<Vec<T>>],
    fbufs: &'a [Mutex<Vec<T>>],
}

/// The dynamic driver's contribution sink: targets are shared panels,
/// updated under their lock. The lock is kept across consecutive pairs
/// with the same target — every row block of a strip, usually several
/// strips — and released before the next target's is taken. Targets are
/// strictly later than the producer, whose own lock the task holds, so
/// every acquisition ascends the column-block order.
struct LockedPanels<'s, 'a, T> {
    shared: &'s DynFactor<'a, T>,
    held: Option<(usize, MutexGuard<'a, Vec<T>>)>,
}

impl<'a, T: Scalar> LockedPanels<'_, 'a, T> {
    /// The panel of column block `cblk`, locked.
    fn lock(&mut self, cblk: usize) -> &mut Vec<T> {
        if self.held.as_ref().is_none_or(|(held, _)| *held != cblk) {
            self.held = None; // release before locking: one target at a time
            self.held = Some((cblk, self.shared.panel(cblk)));
        }
        &mut self.held.as_mut().expect("target lock just taken").1
    }
}

impl<T: Scalar> ContribSink<T> for LockedPanels<'_, '_, T> {
    fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize)) {
        let t = pair_target(self.shared.sym, self.shared.layout, br, bc);
        apply(&mut self.lock(t.cblk)[t.panel_row + t.col * t.lda..], t.lda);
    }

    fn with_strip(&mut self, bc: usize, end: usize, offs: &mut Vec<usize>, mut apply: impl StretchFn<T>) {
        let (sym, layout) = (self.shared.sym, self.shared.layout);
        let panel = self.lock(sym.bloks[bc].fcblk as usize);
        strip_stretches(sym, layout, bc, end, false, offs, |br0, offs, t| {
            apply(br0, offs, &mut panel[t.panel_row + t.col * t.lda..], t.lda);
        });
    }
}

impl<'a, T: Scalar> DynFactor<'a, T> {
    fn sink(&self) -> LockedPanels<'_, 'a, T> {
        LockedPanels { shared: self, held: None }
    }

    /// The panel of column block `k`, locked. Its first locker — its own
    /// task or the first contribution into it, whichever a worker runs
    /// first — zero-fills it and scatters `A`'s columns of `k` into it, so
    /// `A`'s values are in place before anything is added to them.
    fn panel(&self, k: usize) -> MutexGuard<'a, Vec<T>> {
        let mut panel = self.panels[k].lock().unwrap();
        if panel.is_empty() {
            panel.resize(self.layout.panel_rows(k) * self.sym.cblks[k].width(), T::zero());
            scatter_cblk(self.sym, self.layout, k, self.a, &mut panel);
        }
        panel
    }

    /// COMP1D on the locked panel of `k`.
    fn comp1d(&self, k: usize, zero_pivot: bool, scratch: &mut Scratch<T>) -> Result<(), FactorError> {
        let mut panel = self.panel(k);
        if zero_pivot {
            panel[0] = T::zero();
        }
        tasks::comp1d(self.sym, self.layout, k, &mut panel, scratch, &mut self.sink())
    }

    /// FACTOR: the diagonal block in place inside the panel (stride
    /// `lda`, unlike the SPMD path's compact `w × w` region).
    fn factor(&self, k: usize, zero_pivot: bool, scratch: &mut Scratch<T>) -> Result<(), FactorError> {
        let cb = &self.sym.cblks[k];
        let lda = self.layout.panel_rows(k);
        let mut panel = self.panel(k);
        if zero_pivot {
            panel[0] = T::zero();
        }
        tasks::factor_diag(cb.width(), &mut panel, lda, cb.fcol as usize, scratch)
    }

    /// BDIV: the blok's rows in place inside the panel, `F = L·D` stashed
    /// in the blok's buffer for the BMOD updates.
    fn bdiv(&self, k: usize, blok: usize, scratch: &mut Scratch<T>) {
        let w = self.sym.cblks[k].width();
        let lda = self.layout.panel_rows(k);
        let hb = self.sym.bloks[blok].nrows();
        let prow = self.layout.panel_row[blok] as usize;
        let mut panel = self.panel(k);
        scratch.load_diag(w, &panel, lda);
        let mut fbuf = self.fbufs[blok].lock().unwrap();
        fbuf.resize(hb * w, T::zero());
        tasks::bdiv(hb, w, scratch, &mut panel[prow..], lda, &mut fbuf);
    }

    /// BMOD: one `(blok_row, blok_col)` pair contribution of a 2D column
    /// block — `L` from the row blok's solved panel rows, `F` from the
    /// column blok's BDIV buffer.
    fn bmod(&self, k: usize, blok_row: usize, blok_col: usize) {
        let w = self.sym.cblks[k].width();
        let lda = self.layout.panel_rows(k);
        let hr = self.sym.bloks[blok_row].nrows();
        let hc = self.sym.bloks[blok_col].nrows();
        let prow = self.layout.panel_row[blok_row] as usize;
        let panel = self.panel(k);
        let fbuf = self.fbufs[blok_col].lock().unwrap();
        debug_assert_eq!(fbuf.len(), hc * w);
        self.sink().pair(blok_row, blok_col, hr, hc, w, &panel[prow..], lda, &fbuf, hc);
    }
}

/// Dynamic factorization: scatter `a` into the factor storage, execute
/// the task graph, grouped into `nodes` ([`coarsen`]), on the
/// work-stealing executor, and hand the storage back assembled (the
/// panels *are* the regions — no merge step) with the run's trace.
pub(crate) fn factorize_dynamic<T: Scalar>(
    sym: &SymbolMatrix,
    a: Entries<'_, T>,
    graph: &TaskGraph,
    nodes: &NodeDag,
    sched: &Schedule,
    dopts: &DynamicOptions,
    cfg: &SolverConfig,
) -> Result<(FactorStorage<T>, TraceLog), FactorError> {
    assert!(
        std::ptr::eq(sym, &graph.split.symbol) || *sym == graph.split.symbol,
        "task graph was built for a different symbol matrix"
    );
    // Allocated by the calling thread, which owns the factor afterwards
    // (DESIGN §7); filled on the run's workers (`DynFactor::panel`).
    let FactorStorage { layout, panels, .. } = FactorStorage::allocated(sym);
    let panels: Vec<Mutex<Vec<T>>> = panels.into_iter().map(Mutex::new).collect();
    let fbufs: Vec<Mutex<Vec<T>>> = (0..sym.bloks.len()).map(|_| Mutex::new(Vec::new())).collect();

    // A node's priority is its tasks' highest; they share one processor.
    let task_priority = priority_vec(graph.n_tasks(), dopts.order, sched);
    let members = (0..nodes.deps.len()).map(|v| nodes.members(v));
    let priority: Vec<u64> = members.clone().map(|m| m.iter().map(|&t| task_priority[t as usize]).max().unwrap_or(0)).collect();
    let placement: Vec<u32> = members.map(|m| sched.task_proc[m[0] as usize]).collect();
    let n_workers = resolve_workers(dopts, sched);

    let error: Mutex<Option<FactorError>> = Mutex::new(None);
    // One scratch per worker; only its own worker ever locks it.
    let scratch: Vec<OwnLines<Scratch<T>>> =
        (0..n_workers).map(|_| OwnLines(Mutex::new(Scratch::for_run(&cfg.trace)))).collect();
    let shared = DynFactor {
        sym,
        layout: &layout,
        a,
        panels: &panels,
        fbufs: &fbufs,
    };

    let body = |t: u32, tctx: &TaskCtx| -> bool {
        if cfg.chaos.panic_at == Some((tctx.worker as u32, tctx.local_index)) {
            panic!(
                "chaos: injected panic on worker {} at local task index {} (task {t})",
                tctx.worker, tctx.local_index
            );
        }
        let zp = cfg.chaos.zero_pivot_task == Some(t);
        let scratch = &mut *scratch[tctx.worker].0.lock().unwrap();
        let result = match graph.kinds[t as usize] {
            TaskKind::Comp1d { cblk } => {
                let _span = task_span(t, TaskClass::Comp1d);
                shared.comp1d(cblk as usize, zp, scratch)
            }
            TaskKind::Factor { cblk } => {
                let _span = task_span(t, TaskClass::Factor);
                shared.factor(cblk as usize, zp, scratch)
            }
            TaskKind::Bdiv { cblk, blok } => {
                let _span = task_span(t, TaskClass::Bdiv);
                shared.bdiv(cblk as usize, blok as usize, scratch);
                Ok(())
            }
            TaskKind::Bmod { cblk, blok_row, blok_col } => {
                let _span = task_span(t, TaskClass::Bmod);
                shared.bmod(cblk as usize, blok_row as usize, blok_col as usize);
                Ok(())
            }
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                error.lock().unwrap().get_or_insert(e);
                false
            }
        }
    };
    let spec = DagSpec {
        dag: nodes,
        priority: &priority,
        placement: &placement,
        placed: dopts.order == TaskOrder::Static,
    };
    let trace = run_traced_dag(&spec, n_workers, dopts, sched, cfg, &body);
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    for (w, scratch) in scratch.into_iter().enumerate() {
        let ns = scratch.0.into_inner().unwrap().stages.ns;
        crate::parallel::merge_comp1d_ns(&cfg.metrics, w as u32, &ns);
    }
    let panels = panels.into_iter().map(|p| p.into_inner().unwrap()).collect();
    Ok((FactorStorage::dense(layout, panels), trace))
}

/// Runs `body` over `spec` on the work-stealing executor with the run's
/// observability wrapped around it — what the factorization and the
/// panel solve share: one trace session per worker, a run-global progress
/// heartbeat and the ready-queue gauge after every task, and the trace
/// and executor counters folded into `cfg.metrics`. The executor counters
/// count nodes: `dynamic.tasks` (per worker) the nodes run, and
/// `dynamic.steals` the nodes stolen; a grouped factorization runs fewer
/// nodes than it has tasks, and a solve `2 · n_procs + 1`.
fn run_traced_dag(
    spec: &DagSpec<'_>,
    n_workers: usize,
    dopts: &DynamicOptions,
    sched: &Schedule,
    cfg: &SolverConfig,
    body: &(impl Fn(u32, &TaskCtx) -> bool + Sync),
) -> TraceLog {
    let mut topts = cfg.trace;
    if topts.enabled && topts.epoch.is_none() {
        topts.epoch = Some(Instant::now());
    }
    let progress = AtomicU64::new(0);
    let traced = |t: u32, tctx: &TaskCtx| -> bool {
        let go_on = body(t, tctx);
        if topts.enabled {
            let seq = progress.fetch_add(1, Ordering::Relaxed) + 1;
            heartbeat(seq);
            let every = topts.sample_every as usize;
            if every > 0 && (tctx.local_index + 1).is_multiple_of(every) {
                sample_gauge(GaugeId::ReadyQueueDepth, tctx.ready_depth as u64);
            }
        }
        go_on
    };
    let worker_scope = |w: usize, run: &mut dyn FnMut()| -> Option<RankTrace> {
        let session = begin_rank(w, &topts);
        run();
        session.finish()
    };
    let t0 = Instant::now();
    let (rank_traces, stats) = run_dag(spec, n_workers, dopts.sim.as_ref(), &traced, &worker_scope);
    let trace = TraceLog {
        ranks: rank_traces.into_iter().flatten().collect(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        digest: sched.digest(),
    };
    crate::parallel::merge_trace_metrics(&cfg.metrics, &trace);
    for (w, &n) in stats.executed.iter().enumerate() {
        if n > 0 {
            cfg.metrics.add_counter_rank("dynamic.tasks", Some(w as u32), n);
        }
    }
    cfg.metrics.add_counter("dynamic.steals", stats.steals);
    trace
}

/// The multi-RHS panel solve of every backend (`rhs` is `n × nrhs`
/// column-major, in the row order `perm` maps to elimination order): the
/// plan's [`SolveSplit`] on the work-stealing executor, every column block
/// one [`crate::sweeps`] step. Bin `i`'s forward node sweeps each of its
/// subtrees up on rows of its own and sums what faces the top in top rows
/// of its own; the top node adds those in bin order and sweeps the top
/// forward and backward on a compact workspace; bin `i`'s backward node
/// reads the solved top and sweeps its subtrees down. Every sum has an
/// order the plan fixes, so a solve's bits depend only on the plan and the
/// factor — not on the backend, the workers, the order or the timing.
pub(crate) fn solve_panel_dynamic<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    split: &SolveSplit,
    sched: &Schedule,
    rhs: &[T],
    nrhs: usize,
    perm: Option<&[u32]>,
    dopts: &DynamicOptions,
    cfg: &SolverConfig,
) -> (Vec<T>, TraceLog) {
    assert!(nrhs >= 1, "panel solve needs at least one right-hand side");
    assert_eq!(rhs.len(), sym.n * nrhs, "rhs must be n × nrhs");
    let p = split.bins.len();
    // Per bin: each subtree's rows (from the workspace offset of its first
    // block on), and its rows facing the top.
    let bins: Vec<_> = (0..p).map(|_| Mutex::new((Vec::<Vec<T>>::new(), Vec::<T>::new()))).collect();
    let origin = |first: u32| sweeps::segment(sym, first as usize, nrhs).start;
    let solved_top = OnceLock::new();
    let body = |t: u32, _: &TaskCtx| -> bool {
        let (t, mut scratch) = (t as usize, sweeps::Scratch::default());
        // Node `t` (numbered as in `SolveSplit`): bin `t`'s forward sweep,
        // the top, or bin `t − p − 1`'s backward sweep.
        if t < p {
            let (subtrees, to_top) = &mut *bins[t].lock().unwrap();
            *to_top = vec![T::zero(); split.top_len * nrhs];
            for &(first, root) in &split.bins[t] {
                let (at, root) = (origin(first), root as usize);
                let mut rows = vec![T::zero(); sweeps::segment(sym, root, nrhs).end - at];
                for k in first as usize..=root {
                    let seg = sweeps::segment(sym, k, nrhs);
                    sweeps::load_segment(sym, k, perm, rhs, nrhs, &mut rows[seg.start - at..seg.end - at]);
                }
                for k in first as usize..=root {
                    let _span = task_span(k as u32, TaskClass::FwdSolve);
                    let (seg, mut later) = LaterSegments::split(sym, &mut rows, at, k, nrhs);
                    // Rows facing past the subtree's root face the top.
                    let mut sink = |b: usize, rows: &[T]| match sym.bloks[b].fcblk as usize <= root {
                        true => later.add_rows(b, rows),
                        false => sweeps::add_into(&mut to_top[split.top_rows(sym, b, nrhs)], rows),
                    };
                    sweeps::fwd_step(sym, storage, k, seg, nrhs, &mut scratch, &mut sink);
                }
                subtrees.push(rows);
            }
        } else if t == p {
            let mut top = vec![T::zero(); split.top_len * nrhs];
            for &k in &split.top {
                sweeps::load_segment(sym, k as usize, perm, rhs, nrhs, &mut top[split.top_segment(sym, k as usize, nrhs)]);
            }
            bins.iter().for_each(|bin| sweeps::add_into(&mut top, &bin.lock().unwrap().1));
            let order = split.top.iter().map(|&k| (k, true)).chain(split.top.iter().rev().map(|&k| (k, false)));
            for (k, forward) in order {
                let seg = split.top_segment(sym, k as usize, nrhs);
                let (head, later) = top.split_at_mut(seg.end);
                // Blok `b`'s rows in `later`, which starts at the segment's end.
                let at = |b: usize| {
                    let r = split.top_rows(sym, b, nrhs);
                    r.start - seg.end..r.end - seg.end
                };
                let seg = &mut head[seg.start..];
                if forward {
                    let _span = task_span(k, TaskClass::FwdSolve);
                    let mut sink = |b: usize, rows: &[T]| sweeps::add_into(&mut later[at(b)], rows);
                    sweeps::fwd_step(sym, storage, k as usize, seg, nrhs, &mut scratch, &mut sink);
                } else {
                    let _span = task_span(k, TaskClass::BwdSolve);
                    let gather = |b: usize, dst: &mut [T]| dst.copy_from_slice(&later[at(b)]);
                    sweeps::bwd_step(sym, storage, k as usize, seg, nrhs, &mut scratch, gather);
                }
            }
            assert!(solved_top.set(top).is_ok(), "one top node");
        } else {
            let top: &Vec<T> = solved_top.get().expect("the top node runs before every backward node");
            let subtrees = &mut bins[t - p - 1].lock().unwrap().0;
            for (&(first, root), rows) in split.bins[t - p - 1].iter().zip(subtrees).rev() {
                let (at, root) = (origin(first), root as usize);
                for k in (first as usize..=root).rev() {
                    let _span = task_span(k as u32, TaskClass::BwdSolve);
                    let (seg, later) = LaterSegments::split(sym, rows, at, k, nrhs);
                    let gather = |b: usize, dst: &mut [T]| match sym.bloks[b].fcblk as usize <= root {
                        true => later.copy_rows(b, dst),
                        false => dst.copy_from_slice(&top[split.top_rows(sym, b, nrhs)]),
                    };
                    sweeps::bwd_step(sym, storage, k, seg, nrhs, &mut scratch, gather);
                }
            }
        }
        true
    };
    // Bin `i`'s two nodes on worker `i`, the top on worker 0; FIFO.
    let placement: Vec<u32> = (0..p as u32).chain([0]).chain(0..p as u32).collect();
    let spec = DagSpec {
        dag: &split.nodes,
        priority: &vec![0; 2 * p + 1],
        placement: &placement,
        placed: dopts.order == TaskOrder::Static,
    };
    let trace = run_traced_dag(&spec, resolve_workers(dopts, sched), dopts, sched, cfg, &body);
    let mut x = vec![T::zero(); rhs.len()];
    let top = solved_top.into_inner().expect("the top node ran");
    for &k in &split.top {
        sweeps::store_segment(sym, k as usize, perm, &top[split.top_segment(sym, k as usize, nrhs)], nrhs, &mut x);
    }
    for (bin, subtrees) in bins.into_iter().zip(&split.bins) {
        for (rows, &(first, root)) in bin.into_inner().unwrap().0.iter().zip(subtrees) {
            let at = origin(first);
            for k in first as usize..=root as usize {
                let seg = sweeps::segment(sym, k, nrhs);
                sweeps::store_segment(sym, k, perm, &rows[seg.start - at..seg.end - at], nrhs, &mut x);
            }
        }
    }
    (x, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::parallel::tests::full_setup;
    use crate::seq::{factorize_sequential, solve_in_place};
    use pastix_graph::{canonical_solution, rhs_for_solution};
    use pastix_runtime::sim::{FaultPlan, SchedPolicy};
    use pastix_sched::DistStrategy;

    fn seq_factor(
        sym: &SymbolMatrix,
        ap: &pastix_graph::SymCsc<f64>,
    ) -> crate::storage::FactorStorage<f64> {
        let mut seq = FactorStorage::zeros(sym);
        seq.scatter(sym, ap);
        factorize_sequential(sym, &mut seq).unwrap();
        seq
    }

    /// `mapping`'s grouped DAG: asserts that groups formed.
    fn grouped(mapping: &pastix_sched::Mapping) -> NodeDag {
        let nodes = coarsen(&mapping.graph, &mapping.schedule);
        assert!(nodes.deps.len() < mapping.graph.n_tasks(), "{} nodes for {} tasks", nodes.deps.len(), mapping.graph.n_tasks());
        nodes
    }

    fn check_dynamic(ap: &pastix_graph::SymCsc<f64>, mapping: &pastix_sched::Mapping, dopts: &DynamicOptions) {
        let (sym, sched) = (&mapping.graph.split.symbol, &mapping.schedule);
        let cfg = SolverConfig::default();
        let nodes = grouped(mapping);
        let (storage, _) = factorize_dynamic(sym, Entries::of(ap), &mapping.graph, &nodes, sched, dopts, &cfg).unwrap();
        let seq = seq_factor(sym, ap);
        let n = ap.n();
        for j in 0..n {
            for i in j..n {
                let a = seq.get(sym, i, j);
                let b = storage.get(sym, i, j);
                assert!(
                    (a - b).abs() <= 1e-8 * a.abs().max(1.0),
                    "factor mismatch at ({i},{j}): seq {a} vs dyn {b}"
                );
            }
        }
        // Dynamic panel solve against the sequential sweep.
        let x_exact = canonical_solution::<f64>(n);
        let b = rhs_for_solution(ap, &x_exact);
        let split = SolveSplit::build(sym, sched.n_procs);
        let factor_nodes = cfg.metrics.counter("dynamic.tasks");
        let (x_dyn, _) = solve_panel_dynamic(sym, &storage, &split, sched, &b, 1, None, dopts, &cfg);
        let solve_nodes = cfg.metrics.counter("dynamic.tasks") - factor_nodes;
        assert_eq!(solve_nodes, 2 * sched.n_procs as u64 + 1, "solve nodes at {} procs", sched.n_procs);
        let mut x_seq = b.clone();
        solve_in_place(sym, &storage, &mut x_seq);
        for (i, (xs, xd)) in x_seq.iter().zip(&x_dyn).enumerate() {
            assert!(
                (xs - xd).abs() <= 1e-9 * xs.abs().max(1.0),
                "solve mismatch at {i}: seq {xs} vs dyn {xd}"
            );
        }
        let res = ap.residual_norm(&x_dyn, &b);
        assert!(res < 1e-12, "residual {res}");
    }

    const ORDERS: [TaskOrder; 3] = [TaskOrder::Fifo, TaskOrder::Hints, TaskOrder::Static];

    #[test]
    fn dynamic_matches_sequential_1d() {
        let (ap, mapping) = full_setup(32, 32, 1, 4, DistStrategy::Only1d, 4);
        for order in ORDERS {
            check_dynamic(&ap, &mapping, &DynamicOptions::new().with_order(order));
        }
    }

    #[test]
    fn dynamic_matches_sequential_mixed_2d() {
        let (ap, mapping) = full_setup(6, 6, 6, 4, DistStrategy::Mixed1d2d, 4);
        for order in ORDERS {
            check_dynamic(&ap, &mapping, &DynamicOptions::new().with_order(order));
        }
    }

    #[test]
    fn dynamic_sim_is_deterministic_and_correct() {
        let (ap, mapping) = full_setup(24, 24, 1, 3, DistStrategy::Mixed1d2d, 4);
        let sym = &mapping.graph.split.symbol;
        let nodes = grouped(&mapping);
        let split = SolveSplit::build(sym, mapping.schedule.n_procs);
        let b = rhs_for_solution(&ap, &canonical_solution::<f64>(ap.n()));
        let cfg = SolverConfig::default();
        for policy in [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(1),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ] {
            for order in ORDERS {
                let plan = FaultPlan::builder(11).policy(policy).build();
                let d = DynamicOptions::new().with_order(order).with_sim(plan);
                check_dynamic(&ap, &mapping, &d);
                // Same (seed, policy) replays to bitwise-identical factors.
                let run = || factorize_dynamic(sym, Entries::of(&ap), &mapping.graph, &nodes, &mapping.schedule, &d, &cfg);
                let storage = run().unwrap().0;
                assert_eq!(storage.panels, run().unwrap().0.panels);
                // And to bitwise-identical solves.
                let solve = || solve_panel_dynamic(sym, &storage, &split, &mapping.schedule, &b, 1, None, &d, &cfg).0;
                let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(bits(solve()), bits(solve()), "{policy:?} {order:?}");
            }
        }
    }

    #[test]
    fn threaded_solves_replay_bitwise() {
        let (ap, mapping) = full_setup(24, 24, 1, 4, DistStrategy::Mixed1d2d, 4);
        let (sym, sched) = (&mapping.graph.split.symbol, &mapping.schedule);
        let split = SolveSplit::build(sym, sched.n_procs);
        // Bins whose forward sweeps deliver rows into the top, which adds
        // them up: the reduction the replay is about.
        let faces_top = |&(first, root): &(u32, u32)| (first..=root).any(|k| sym.off_bloks_of(k as usize).iter().any(|b| b.fcblk > root));
        let delivering = split.bins.iter().filter(|bin| bin.iter().any(faces_top)).count();
        assert!(delivering >= 2, "{delivering} bins deliver rows into the top");
        let storage = seq_factor(sym, &ap);
        let cfg = SolverConfig::default();
        let b: Vec<f64> = (0..ap.n() * 3).map(|i| 1.0 + (i % 13) as f64 * 0.37).collect();
        for order in ORDERS {
            let d = DynamicOptions::new().with_order(order);
            let solve = || solve_panel_dynamic(sym, &storage, &split, sched, &b, 3, None, &d, &cfg).0;
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let first = bits(solve());
            for _ in 0..40 {
                assert_eq!(bits(solve()), first, "{order:?}");
            }
        }
    }

    #[test]
    fn coarsening_groups_closed_one_processor_comp1d_subtrees() {
        let (_, mapping) = full_setup(20, 20, 1, 2, DistStrategy::Mixed1d2d, 4);
        let (graph, sched) = (&mapping.graph, &mapping.schedule);
        let nodes = grouped(&mapping);
        let mut node_of = vec![u32::MAX; graph.n_tasks()];
        for v in 0..nodes.deps.len() {
            for &t in nodes.members(v) {
                assert_eq!(node_of[t as usize], u32::MAX, "task {t} in two nodes");
                node_of[t as usize] = v as u32;
            }
        }
        assert!(node_of.iter().all(|&v| v != u32::MAX), "a task in no node");
        let mut groups = 0;
        for v in 0..nodes.deps.len() {
            let members = nodes.members(v);
            let mut producers: Vec<u32> = members
                .iter()
                .flat_map(|&t| graph.in_edges(t as usize).map(|(src, _)| node_of[src as usize]))
                .filter(|&u| u != v as u32)
                .collect();
            producers.sort_unstable();
            producers.dedup();
            assert_eq!(nodes.deps[v] as usize, producers.len(), "node {v}");
            if members.len() == 1 {
                continue;
            }
            groups += 1;
            assert!(producers.is_empty(), "group {v} has producers outside it: {producers:?}");
            let proc = sched.task_proc[members[0] as usize];
            for (i, &t) in members.iter().enumerate() {
                assert!(matches!(graph.kinds[t as usize], TaskKind::Comp1d { .. }), "task {t}");
                assert_eq!(sched.task_proc[t as usize], proc, "task {t}");
                // Members run in order: every producer inside the group
                // runs before them.
                for (src, _) in graph.in_edges(t as usize) {
                    assert!(members[..i].contains(&src), "task {t}: producer {src} runs later");
                }
            }
        }
        assert!(groups > 0);
    }

    #[test]
    fn dynamic_zero_pivot_aborts_cleanly() {
        let (ap, mapping) = full_setup(6, 6, 1, 2, DistStrategy::Only1d, 4);
        let sym = &mapping.graph.split.symbol;
        let cfg = SolverConfig {
            chaos: crate::parallel::ChaosOptions {
                zero_pivot_task: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let res = factorize_dynamic(
            sym,
            Entries::of(&ap),
            &mapping.graph,
            &coarsen(&mapping.graph, &mapping.schedule),
            &mapping.schedule,
            &DynamicOptions::new(),
            &cfg,
        );
        assert!(matches!(res, Err(FactorError::ZeroPivot(_))));
    }
}
