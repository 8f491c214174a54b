//! `Backend::Dynamic`: factorization and panel solve on the work-stealing
//! DAG executor ([`pastix_runtime::steal`]).
//!
//! Unlike the SPMD backends, which execute the static schedule's per-rank
//! task lists and move contributions through messages and AUBs, the
//! dynamic engine executes the [`TaskGraph`] directly: dependency counts
//! come from the graph's deduplicated in-edges (the same fan-in the AUB
//! protocol counts), contributions are applied straight into the shared
//! factor panels under per-panel locks, and the static schedule — when
//! one exists — supplies only initial placement and task priority. The
//! solve runs its twin DAG, kept precomputed in the plan's
//! [`crate::solve_plan::SolvePlan`], over the same block structure the
//! level-set [`pastix_sched::SolveSchedule`] walks.
//!
//! Locking is deadlock-free by index ordering: every multi-lock
//! acquisition ascends the column-block order (a contribution's target
//! block is strictly later than its producer), and the per-blok `F = L·D`
//! buffers of a column block sit between that block's panel and every
//! later panel in the order. The executor's `AcqRel` dependency-counter
//! decrements plus the panel mutexes give each consumer a happens-before
//! edge from every producer's writes.

use crate::compress::{finalize_compression, CompressionConfig};
use crate::config::{FactorRun, SolverConfig};
use crate::solve_plan::SolveDag;
use crate::storage::{pair_target, strip_targets, FactorStorage, PanelLayout};
use crate::sweeps::{self, RowSink};
use crate::tasks::{self, ContribSink, Scratch};
use pastix_graph::SymCsc;
use pastix_kernels::factor::FactorError;
use pastix_kernels::{LowRankBlock, LrOp, Scalar};
use pastix_runtime::steal::{run_dag, DagSpec, TaskCtx};
use pastix_runtime::DynamicOptions;
use pastix_sched::{Schedule, TaskGraph, TaskKind};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{
    begin_rank, heartbeat, sample_gauge, task_span, GaugeId, RankTrace, TaskClass, TraceLog,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Worker count resolution: explicit > schedule procs > 4.
fn resolve_workers(dopts: &DynamicOptions, sched: Option<&Schedule>) -> usize {
    if dopts.workers > 0 {
        dopts.workers
    } else {
        sched.map(|s| s.n_procs).unwrap_or(4).max(1)
    }
}

/// Priority vector: rank-by-predicted-start when a schedule exists (the
/// task the static scheduler would have started earliest gets the highest
/// priority), elimination-tree depth otherwise, all-zero (FIFO) when
/// priority hints are off.
fn priority_vec(
    n: usize,
    priorities: bool,
    sched: Option<&Schedule>,
    graph_prio: &[u32],
) -> Vec<u64> {
    if !priorities {
        return vec![0u64; n];
    }
    match sched {
        Some(s) => {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&x, &y| {
                s.start[x as usize]
                    .partial_cmp(&s.start[y as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.cmp(&y))
            });
            let mut p = vec![0u64; n];
            for (rank, &t) in idx.iter().enumerate() {
                p[t as usize] = (n - rank) as u64;
            }
            p
        }
        None => graph_prio.iter().map(|&p| p as u64).collect(),
    }
}

/// Shared state of the dynamic factorization: the factor panels (one
/// mutex per column block) and the per-blok `F = L·D` buffers produced by
/// BDIV tasks for the 2D BMOD updates.
struct DynFactor<'a, T> {
    sym: &'a SymbolMatrix,
    layout: &'a PanelLayout,
    panels: &'a [Mutex<Vec<T>>],
    fbufs: &'a [Mutex<Vec<T>>],
    /// Block low-rank compression knobs (off by default).
    compression: CompressionConfig,
    /// Compressed factor bloks produced by comp1d tasks, keyed by global
    /// blok id; installed into the storage after the DAG drains.
    lr_out: Mutex<Vec<(usize, LowRankBlock<T>)>>,
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

impl<'a, T> LockedPanels<'_, 'a, T> {
    /// The panel of column block `cblk`, locked.
    fn lock(&mut self, cblk: usize) -> &mut Vec<T> {
        if self.held.as_ref().is_none_or(|(held, _)| *held != cblk) {
            self.held = None; // release before locking: one target at a time
            self.held = Some((cblk, self.shared.panels[cblk].lock().unwrap()));
        }
        &mut self.held.as_mut().expect("target lock just taken").1
    }
}

impl<T: Scalar> ContribSink<T> for LockedPanels<'_, '_, T> {
    fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize)) {
        let t = pair_target(self.shared.sym, self.shared.layout, br, bc);
        apply(&mut self.lock(t.cblk)[t.panel_row + t.col * t.lda..], t.lda);
    }

    fn with_strip(&mut self, bc: usize, end: usize, mut apply: impl FnMut(usize, &mut [T], usize)) {
        let (sym, layout) = (self.shared.sym, self.shared.layout);
        let panel = self.lock(sym.bloks[bc].fcblk as usize);
        for (br, t) in (bc..end).zip(strip_targets(sym, layout, bc, end)) {
            apply(br, &mut panel[t.panel_row + t.col * t.lda..], t.lda);
        }
    }
}

impl<'a, T: Scalar> DynFactor<'a, T> {
    fn sink(&self) -> LockedPanels<'_, 'a, T> {
        LockedPanels { shared: self, held: None }
    }

    /// COMP1D on the locked panel of `k`.
    fn comp1d(&self, k: usize, zero_pivot: bool, scratch: &mut Scratch<T>) -> Result<(), FactorError> {
        let mut panel = self.panels[k].lock().unwrap();
        if zero_pivot {
            panel[0] = T::zero();
        }
        let lrs = tasks::comp1d(
            self.sym,
            self.layout,
            k,
            &mut panel,
            &self.compression,
            scratch,
            &mut self.sink(),
        )?;
        if !lrs.is_empty() {
            self.lr_out.lock().unwrap().extend(lrs);
        }
        Ok(())
    }

    /// FACTOR: the diagonal block in place inside the panel (stride
    /// `lda`, unlike the SPMD path's compact `w × w` region).
    fn factor(&self, k: usize, zero_pivot: bool, scratch: &mut Scratch<T>) -> Result<(), FactorError> {
        let cb = &self.sym.cblks[k];
        let lda = self.layout.panel_rows(k);
        let mut panel = self.panels[k].lock().unwrap();
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
        let mut panel = self.panels[k].lock().unwrap();
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
        let panel = self.panels[k].lock().unwrap();
        let fbuf = self.fbufs[blok_col].lock().unwrap();
        debug_assert_eq!(fbuf.len(), hc * w);
        self.sink().pair(
            blok_row,
            blok_col,
            hr,
            hc,
            w,
            LrOp::Dense { a: &panel[prow..], ld: lda },
            LrOp::Dense { a: &fbuf, ld: hc },
        );
    }
}

/// Dynamic factorization: scatter `a` into the factor storage, execute
/// the task graph on the work-stealing executor, and hand the storage
/// back assembled (the panels *are* the regions — no merge step).
pub(crate) fn factorize_dynamic<T: Scalar>(
    sym: &SymbolMatrix,
    a: &SymCsc<T>,
    graph: &TaskGraph,
    sched: Option<&Schedule>,
    dopts: &DynamicOptions,
    cfg: &SolverConfig,
) -> Result<FactorRun<T>, FactorError> {
    assert!(
        std::ptr::eq(sym, &graph.split.symbol) || *sym == graph.split.symbol,
        "task graph was built for a different symbol matrix"
    );
    let _mode = cfg.kernel_mode.scoped();
    let mut storage = FactorStorage::zeros(sym);
    storage.scatter(sym, a);
    let FactorStorage { layout, panels, compression: _ } = storage;
    let panels: Vec<Mutex<Vec<T>>> = panels.into_iter().map(Mutex::new).collect();
    let fbufs: Vec<Mutex<Vec<T>>> = (0..sym.bloks.len()).map(|_| Mutex::new(Vec::new())).collect();

    let n = graph.n_tasks();
    let deps: Vec<u32> = (0..n).map(|t| graph.in_ptr[t + 1] - graph.in_ptr[t]).collect();
    let priority = priority_vec(n, dopts.priorities, sched, &graph.priority);
    let placement: Vec<u32> = match sched {
        Some(s) => s.task_proc.clone(),
        None => graph.kinds.iter().map(|k| k.cblk()).collect(),
    };
    let n_workers = resolve_workers(dopts, sched);

    let error: Mutex<Option<FactorError>> = Mutex::new(None);
    // One scratch per worker; only its own worker ever locks it.
    let scratch: Vec<Mutex<Scratch<T>>> =
        (0..n_workers).map(|_| Mutex::new(Scratch::for_run(&cfg.trace))).collect();
    let shared = DynFactor {
        sym,
        layout: &layout,
        panels: &panels,
        fbufs: &fbufs,
        compression: cfg.compression,
        lr_out: Mutex::new(Vec::new()),
    };

    let body = |t: u32, tctx: &TaskCtx| -> bool {
        if cfg.chaos.panic_at == Some((tctx.worker as u32, tctx.local_index)) {
            panic!(
                "chaos: injected panic on worker {} at local task index {} (task {t})",
                tctx.worker, tctx.local_index
            );
        }
        let zp = cfg.chaos.zero_pivot_task == Some(t);
        let scratch = &mut *scratch[tctx.worker].lock().unwrap();
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
        deps: &deps,
        out_ptr: &graph.out_ptr,
        out_dst: &graph.out_dst,
        priority: &priority,
        placement: &placement,
    };
    let trace = run_traced_dag(&spec, n_workers, dopts, sched, cfg, &body);
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    for (w, scratch) in scratch.into_iter().enumerate() {
        let ns = scratch.into_inner().unwrap().stages.ns;
        crate::parallel::merge_comp1d_ns(&cfg.metrics, w as u32, &ns);
    }
    let lrs = shared.lr_out.into_inner().unwrap();
    let mut storage = FactorStorage {
        layout,
        panels: panels.into_iter().map(|p| p.into_inner().unwrap()).collect(),
        compression: Vec::new(),
    };
    finalize_compression(sym, &mut storage, &cfg.compression, lrs, &cfg.metrics);
    Ok(FactorRun::new(storage, trace, cfg.metrics.clone()))
}

/// Runs `body` over `spec` on the work-stealing executor with the run's
/// observability wrapped around it — what the factorization and the
/// panel solve share: one trace session per worker, a run-global progress
/// heartbeat and the ready-queue gauge after every task, and the trace
/// and executor counters folded into `cfg.metrics`.
fn run_traced_dag(
    spec: &DagSpec<'_>,
    n_workers: usize,
    dopts: &DynamicOptions,
    sched: Option<&Schedule>,
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
        digest: sched.map(|s| s.digest()).unwrap_or(0),
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

/// The dynamic driver's view of the shared workspace: one lock per
/// segment, kept across consecutive bloks facing the same column block
/// and released before the next one's is taken. The stepped segment's own
/// lock is held by the task and every blok faces a strictly later block,
/// so every acquisition ascends the column-block order.
struct LockedSegments<'s, 'w, T> {
    sym: &'s SymbolMatrix,
    nrhs: usize,
    segs: &'s [Mutex<&'w mut [T]>],
    held: Option<(usize, MutexGuard<'s, &'w mut [T]>)>,
}

impl<T: Scalar> LockedSegments<'_, '_, T> {
    /// The rows blok `b` covers, inside the locked segment it faces.
    fn rows(&mut self, b: usize) -> &mut [T] {
        let t = self.sym.bloks[b].fcblk as usize;
        if self.held.as_ref().is_none_or(|(cblk, _)| *cblk != t) {
            self.held = None; // release before locking: one target at a time
            self.held = Some((t, self.segs[t].lock().unwrap()));
        }
        let (rows, seg) = (sweeps::blok_rows(self.sym, b, self.nrhs), sweeps::segment(self.sym, t, self.nrhs));
        let locked = &mut self.held.as_mut().expect("segment lock just taken").1;
        &mut locked[rows.start - seg.start..rows.end - seg.start]
    }
}

impl<T: Scalar> RowSink<T> for LockedSegments<'_, '_, T> {
    fn add_rows(&mut self, b: usize, rows: &[T]) {
        sweeps::add_into(self.rows(b), rows);
    }
}

/// Dynamic multi-RHS panel solve (`rhs` is `n × nrhs` column-major, in
/// the row order `perm` maps to elimination order, like the SPMD panel
/// solve): the plan's [`SolveDag`] on the work-stealing executor, every
/// task one [`crate::sweeps`] step on the segment of its column block in
/// one shared workspace. A backward task depends on the backward tasks of
/// every block it faces, so the rows it gathers are final.
pub(crate) fn solve_panel_dynamic<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    dag: &SolveDag,
    sched: Option<&Schedule>,
    rhs: &[T],
    nrhs: usize,
    perm: Option<&[u32]>,
    dopts: &DynamicOptions,
    cfg: &SolverConfig,
) -> (Vec<T>, TraceLog) {
    assert!(nrhs >= 1, "panel solve needs at least one right-hand side");
    assert_eq!(rhs.len(), sym.n * nrhs, "rhs must be n × nrhs");
    let ns = sym.n_cblks();
    let n_workers = resolve_workers(dopts, sched);
    let mut ws = vec![T::zero(); rhs.len()];
    let mut segs = Vec::with_capacity(ns);
    let mut rest = ws.as_mut_slice();
    for k in 0..ns {
        let (seg, tail) = std::mem::take(&mut rest).split_at_mut(sym.cblks[k].width() * nrhs);
        sweeps::load_segment(sym, k, perm, rhs, nrhs, seg);
        segs.push(Mutex::new(seg));
        rest = tail;
    }
    // One scratch per worker; only its own worker ever locks it.
    let scratch: Vec<Mutex<sweeps::Scratch<T>>> = (0..n_workers).map(|_| Mutex::default()).collect();

    let body = |t: u32, tctx: &TaskCtx| -> bool {
        let (k, forward) = (t as usize % ns, (t as usize) < ns);
        let class = if forward { TaskClass::FwdSolve } else { TaskClass::BwdSolve };
        let _span = task_span(k as u32, class);
        let scratch = &mut *scratch[tctx.worker].lock().unwrap();
        let mut seg = segs[k].lock().unwrap();
        let mut later = LockedSegments { sym, nrhs, segs: &segs, held: None };
        if forward {
            sweeps::fwd_step(sym, storage, k, &mut seg, nrhs, scratch, &mut later);
        } else {
            sweeps::bwd_step(sym, storage, k, &mut seg, nrhs, scratch, |b, dst| dst.copy_from_slice(later.rows(b)));
        }
        true
    };
    // All-zero priorities are FIFO queues, for runs with hints off.
    let fifo = if dopts.priorities { Vec::new() } else { vec![0u64; 2 * ns] };
    let spec = DagSpec {
        deps: &dag.graph.deps,
        out_ptr: &dag.graph.out_ptr,
        out_dst: &dag.graph.out_dst,
        priority: if dopts.priorities { &dag.priority } else { &fifo },
        placement: &dag.placement,
    };
    let trace = run_traced_dag(&spec, n_workers, dopts, sched, cfg, &body);

    let mut x = vec![T::zero(); rhs.len()];
    for (k, seg) in segs.into_iter().enumerate() {
        sweeps::store_segment(sym, k, perm, seg.into_inner().unwrap(), nrhs, &mut x);
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

    fn check_dynamic(
        ap: &pastix_graph::SymCsc<f64>,
        mapping: &pastix_sched::Mapping,
        dopts: &DynamicOptions,
        use_sched: bool,
    ) {
        let sym = &mapping.graph.split.symbol;
        let sched = use_sched.then_some(&mapping.schedule);
        let cfg = SolverConfig::default();
        let run = factorize_dynamic(sym, ap, &mapping.graph, sched, dopts, &cfg).unwrap();
        let seq = seq_factor(sym, ap);
        let n = ap.n();
        for j in 0..n {
            for i in j..n {
                let a = seq.get(sym, i, j);
                let b = run.storage.get(sym, i, j);
                assert!(
                    (a - b).abs() <= 1e-8 * a.abs().max(1.0),
                    "factor mismatch at ({i},{j}): seq {a} vs dyn {b}"
                );
            }
        }
        // Dynamic panel solve against the sequential sweep.
        let x_exact = canonical_solution::<f64>(n);
        let b = rhs_for_solution(ap, &x_exact);
        let dag = crate::solve_plan::SolvePlan::build(&mapping.graph, sched).dag;
        let (x_dyn, _) = solve_panel_dynamic(sym, &run.storage, &dag, sched, &b, 1, None, dopts, &cfg);
        let mut x_seq = b.clone();
        solve_in_place(sym, &run.storage, &mut x_seq);
        for (i, (xs, xd)) in x_seq.iter().zip(&x_dyn).enumerate() {
            assert!(
                (xs - xd).abs() <= 1e-9 * xs.abs().max(1.0),
                "solve mismatch at {i}: seq {xs} vs dyn {xd}"
            );
        }
        let res = ap.residual_norm(&x_dyn, &b);
        assert!(res < 1e-12, "residual {res}");
    }

    #[test]
    fn dynamic_matches_sequential_1d() {
        let (ap, mapping) = full_setup(8, 8, 1, 4, DistStrategy::Only1d, 4);
        check_dynamic(&ap, &mapping, &DynamicOptions::new(), true);
    }

    #[test]
    fn dynamic_matches_sequential_mixed_2d() {
        let (ap, mapping) = full_setup(4, 4, 4, 4, DistStrategy::Mixed1d2d, 4);
        for priorities in [false, true] {
            let d = DynamicOptions::new().with_priorities(priorities);
            check_dynamic(&ap, &mapping, &d, true);
        }
    }

    #[test]
    fn dynamic_runs_without_a_schedule() {
        let (ap, mapping) = full_setup(6, 6, 2, 3, DistStrategy::Mixed1d2d, 4);
        let d = DynamicOptions::new().with_workers(3).with_priorities(true);
        check_dynamic(&ap, &mapping, &d, false);
    }

    #[test]
    fn dynamic_sim_is_deterministic_and_correct() {
        use pastix_runtime::sim::{FaultPlan, SchedPolicy};
        let (ap, mapping) = full_setup(6, 6, 1, 3, DistStrategy::Mixed1d2d, 4);
        let sym = &mapping.graph.split.symbol;
        let cfg = SolverConfig::default();
        for policy in [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(1),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ] {
            let plan = FaultPlan::builder(11).policy(policy).build();
            let d = DynamicOptions::new().with_sim(plan);
            check_dynamic(&ap, &mapping, &d, true);
            // Same (seed, policy) replays to bitwise-identical factors.
            let r1 = factorize_dynamic(sym, &ap, &mapping.graph, Some(&mapping.schedule), &d, &cfg)
                .unwrap();
            let r2 = factorize_dynamic(sym, &ap, &mapping.graph, Some(&mapping.schedule), &d, &cfg)
                .unwrap();
            assert_eq!(r1.storage.panels, r2.storage.panels);
        }
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
            &ap,
            &mapping.graph,
            Some(&mapping.schedule),
            &DynamicOptions::new(),
            &cfg,
        );
        assert!(matches!(res, Err(FactorError::ZeroPivot(_))));
    }
}
