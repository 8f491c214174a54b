//! Distributed triangular solves driven by the static schedule's ownership.
//!
//! The paper's solver performs the factorization in parallel; the solve
//! phase follows the same data distribution, and this module implements it
//! with the same fan-in discipline: during the forward sweep `L·y = b`,
//! each off-diagonal block owner computes its contribution `L_b·x_k` as
//! soon as the solved segment `x_k` reaches it, and contributions bound for
//! the same column block from the same processor travel as one aggregated
//! update; the backward sweep `Lᵀ·x = D⁻¹y` runs the mirror-image protocol
//! down the elimination order.
//!
//! The factor panels are shared read-only between the logical processors
//! (they were just computed; re-distributing them would only model memory
//! placement, not the solve's data flow). What is exercised for real is the
//! message-passing structure of the solve: segment broadcasts, update
//! aggregation, and the demand-driven reception the static order allows.

use crate::config::SolverConfig;
use crate::parallel::{GaugeHook, SharedGauges};
use crate::storage::{BlokView, FactorStorage};
use pastix_kernels::{
    gemm_nn_acc, gemm_tn_acc, lr_gemm_nn_acc, lr_gemm_tn_acc, solve_unit_lower_panel,
    solve_unit_lower_trans_panel, Scalar,
};
use pastix_runtime::{run_spmd_with, Comm, Instrumented};
use pastix_sched::{Schedule, TaskGraph};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{
    heartbeat, sample_gauge, task_span, GaugeId, RankTrace, SessionHook, TaskClass, TraceLog,
    TraceOptions,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Messages of the distributed solve. (`Clone` is only exercised by the
/// simulator's duplicate-delivery fault.) Every variant is naturally
/// keyed — `XFwd`/`XBwd` by the column block, the AUBs by (sender, column
/// block) since each sender aggregates at most one AUB per target — so
/// receivers deduplicate injected duplicate deliveries with seen-sets
/// instead of sequence numbers.
///
/// Solved segments are broadcast to every blok owner, so they travel as
/// `Arc<[T]>` (one materialization, refcount bumps per send); the AUBs have
/// exactly one destination each and stay owned `Vec`s.
#[derive(Clone)]
enum SMsg<T> {
    /// Solved segment of a column block (forward sweep).
    XFwd { cblk: u32, data: Arc<[T]> },
    /// Final segment of a column block (backward sweep).
    XBwd { cblk: u32, data: Arc<[T]> },
    /// Aggregated forward updates targeting a column block's segment.
    FwdAub { cblk: u32, data: Vec<T> },
    /// Aggregated backward partial dot-products targeting a column block.
    BwdAub { cblk: u32, data: Vec<T> },
}

/// Trace metadata of a solve message: `(kind tag, payload bytes)`.
/// Tags: `XFwd`=0, `XBwd`=1, `FwdAub`=2, `BwdAub`=3.
fn smsg_meta<T>(m: &SMsg<T>) -> (u8, u64) {
    let scalar = std::mem::size_of::<T>() as u64;
    match m {
        SMsg::XFwd { data, .. } => (0, data.len() as u64 * scalar),
        SMsg::XBwd { data, .. } => (1, data.len() as u64 * scalar),
        SMsg::FwdAub { data, .. } => (2, data.len() as u64 * scalar),
        SMsg::BwdAub { data, .. } => (3, data.len() as u64 * scalar),
    }
}

/// Static ownership and routing tables of the solve phase.
struct SolveRouting {
    /// Owner of each column block's diagonal solve (head-task owner).
    cblk_owner: Vec<u32>,
    /// Owner of each global blok's data.
    blok_owner: Vec<u32>,
    /// Bloks facing each column block (global blok id, source cblk).
    facing: Vec<Vec<(u32, u32)>>,
    /// Forward: remote AUB senders per cblk.
    fwd_remote: Vec<u32>,
    /// Forward: local contribution events per cblk.
    fwd_local: Vec<u32>,
    /// Backward: remote AUB senders per cblk.
    bwd_remote: Vec<u32>,
    /// Backward: local partial events per cblk.
    bwd_local: Vec<u32>,
}

fn build_solve_routing(sym: &SymbolMatrix, graph: &TaskGraph, sched: &Schedule) -> SolveRouting {
    let ns = sym.n_cblks();
    let mut cblk_owner = vec![0u32; ns];
    for k in 0..ns {
        cblk_owner[k] = sched.task_proc[graph.head_task_of_cblk[k] as usize];
    }
    let mut blok_owner = vec![0u32; sym.bloks.len()];
    let mut facing: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ns];
    for k in 0..ns {
        let cb = &sym.cblks[k];
        blok_owner[cb.blok_start] = cblk_owner[k];
        for b in cb.blok_start + 1..cb.blok_end {
            let bd = graph.bdiv_task_of_blok[b];
            blok_owner[b] = if bd == u32::MAX {
                cblk_owner[k]
            } else {
                sched.task_proc[bd as usize]
            };
            facing[sym.bloks[b].fcblk as usize].push((b as u32, k as u32));
        }
    }
    // Forward: contributions into cblk t come from every blok facing t.
    let mut fwd_remote_sets: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut fwd_local = vec![0u32; ns];
    // Backward: partials into cblk k come from every blok *of* k.
    let mut bwd_remote_sets: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut bwd_local = vec![0u32; ns];
    for t in 0..ns {
        for &(b, _src) in &facing[t] {
            let owner = blok_owner[b as usize];
            if owner == cblk_owner[t] {
                fwd_local[t] += 1;
            } else {
                fwd_remote_sets[t].push(owner);
            }
        }
    }
    for k in 0..ns {
        let cb = &sym.cblks[k];
        for b in cb.blok_start + 1..cb.blok_end {
            let owner = blok_owner[b];
            if owner == cblk_owner[k] {
                bwd_local[k] += 1;
            } else {
                bwd_remote_sets[k].push(owner);
            }
        }
    }
    let dedup_count = |mut v: Vec<u32>| -> u32 {
        v.sort_unstable();
        v.dedup();
        v.len() as u32
    };
    SolveRouting {
        cblk_owner,
        blok_owner,
        facing,
        fwd_remote: fwd_remote_sets.into_iter().map(dedup_count).collect(),
        fwd_local,
        bwd_remote: bwd_remote_sets.into_iter().map(dedup_count).collect(),
        bwd_local,
    }
}

/// The SPMD **multi-RHS panel** solve engine (threads or simulator),
/// called by [`crate::SolveRequest`]-driven solves on [`crate::FactorRun`]:
/// `b_panel` is `n × nrhs` column-major in elimination order; returns the
/// `n × nrhs` solution panel (also elimination order) and the run's
/// [`TraceLog`] (empty when `cfg.trace` is disabled).
///
/// Every per-cblk segment travels and solves as a `width × nrhs` panel:
/// the diagonal substitutions run the blocked
/// [`solve_unit_lower_panel`]/[`solve_unit_lower_trans_panel`] kernels and
/// the per-blok trailing updates are GEMM-shaped (`h_b × nrhs × width`)
/// through the packed paths instead of one GEMV per right-hand side, so a
/// batch of coalesced requests pays the solve's message protocol once.
/// Per-blok products dispatch on the stored representation — a compressed
/// blok's contribution runs through the rank
/// ([`lr_gemm_nn_acc`]/[`lr_gemm_tn_acc`]) instead of the dense GEMM.
///
/// When tracing is enabled, every completed forward/backward cblk solve
/// additionally stamps a run-global progress heartbeat and the rank's
/// mailbox-depth gauge is sampled every `trace.sample_every` tasks, so a
/// serving run feeds the [`pastix_trace::watchdog`] exactly like the
/// factorization does.
pub(crate) fn solve_panel_static<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    graph: &TaskGraph,
    sched: &Schedule,
    b_panel: &[T],
    nrhs: usize,
    cfg: &SolverConfig,
) -> (Vec<T>, TraceLog) {
    assert!(nrhs >= 1, "panel solve needs at least one right-hand side");
    assert_eq!(b_panel.len(), sym.n * nrhs, "b_panel must be n × nrhs");
    let routing = build_solve_routing(sym, graph, sched);
    let mut topts = cfg.trace;
    if topts.enabled && topts.epoch.is_none() {
        topts.epoch = Some(Instant::now());
    }
    let gauges = topts.enabled.then(|| SharedGauges::new(sched.n_procs));
    let t0 = Instant::now();
    let results = run_spmd_with::<SMsg<T>, (Vec<(u32, Vec<T>)>, Option<RankTrace>), _>(
        &cfg.backend,
        sched.n_procs,
        |ctx| solve_worker_run(ctx, sym, storage, &routing, b_panel, nrhs, &topts, gauges.as_ref()),
    );
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut segs = Vec::with_capacity(results.len());
    let mut ranks = Vec::new();
    for (seg, rt) in results {
        segs.push(seg);
        if let Some(rt) = rt {
            ranks.push(rt);
        }
    }
    let trace = TraceLog {
        ranks,
        wall_ns,
        digest: sched.digest(),
    };
    (gather_solution(sym, segs, nrhs), trace)
}

/// The SPMD body of one logical processor of the solve, on either backend.
#[allow(clippy::too_many_arguments)]
fn solve_worker_run<T: Scalar, C: Comm<SMsg<T>> + ?Sized>(
    ctx: &C,
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    routing: &SolveRouting,
    b_panel: &[T],
    nrhs: usize,
    topts: &TraceOptions,
    gauges: Option<&SharedGauges>,
) -> (Vec<(u32, Vec<T>)>, Option<RankTrace>) {
    let ns = sym.n_cblks();
    let me = ctx.rank() as u32;
    let session = pastix_trace::begin_rank(ctx.rank(), topts);
    let mut w = SolveWorker {
        sym,
        storage,
        routing,
        me,
        nrhs,
        x: HashMap::new(),
        fwd_pending: HashMap::new(),
        bwd_pending: HashMap::new(),
        fwd_aub_out: HashMap::new(),
        bwd_aub_out: HashMap::new(),
        bwd_partial_in: HashMap::new(),
        fwd_x_seen: HashSet::new(),
        bwd_x_seen: HashSet::new(),
        fwd_aub_seen: HashSet::new(),
        bwd_aub_seen: HashSet::new(),
        bwd_early: Vec::new(),
        scratch: Vec::new(),
        gauges,
        sample_every: topts.sample_every as usize,
        tasks_done: 0,
    };
    // Initialize owned segments with b (width × nrhs panels), and pending
    // counters.
    for k in 0..ns {
        if routing.cblk_owner[k] != me {
            continue;
        }
        w.x.insert(k as u32, segment_of(sym, k, b_panel, nrhs));
        w.fwd_pending
            .insert(k as u32, routing.fwd_remote[k] + routing.fwd_local[k]);
        w.bwd_pending
            .insert(k as u32, routing.bwd_remote[k] + routing.bwd_local[k]);
    }
    // Only the traced path pays for the instrumented wrapper.
    if topts.enabled {
        let g = gauges.expect("a traced solve always carries gauges");
        let hook = (SessionHook, GaugeHook { rank: ctx.rank(), gauges: g });
        let ictx = Instrumented::new(ctx, hook, smsg_meta::<T>);
        w.forward(&ictx);
        w.backward(&ictx);
    } else {
        w.forward(ctx);
        w.backward(ctx);
    }
    (w.x.into_iter().collect(), session.finish())
}

/// Column block `k`'s rows of the `n × nrhs` panel `b_panel`, as a compact
/// `width × nrhs` segment panel.
pub(crate) fn segment_of<T: Scalar>(sym: &SymbolMatrix, k: usize, b_panel: &[T], nrhs: usize) -> Vec<T> {
    let cb = &sym.cblks[k];
    let mut seg = Vec::with_capacity(cb.width() * nrhs);
    for r in 0..nrhs {
        seg.extend_from_slice(&b_panel[r * sym.n + cb.fcol as usize..=r * sym.n + cb.lcol as usize]);
    }
    seg
}

/// Stitches the per-processor owned segment panels into the full `n × nrhs`
/// solution panel.
pub(crate) fn gather_solution<T: Scalar>(
    sym: &SymbolMatrix,
    results: Vec<Vec<(u32, Vec<T>)>>,
    nrhs: usize,
) -> Vec<T> {
    let n = sym.n;
    let mut x = vec![T::zero(); n * nrhs];
    for segs in results {
        for (k, seg) in segs {
            let cb = &sym.cblks[k as usize];
            let width = cb.width();
            for r in 0..nrhs {
                x[r * n + cb.fcol as usize..=r * n + cb.lcol as usize]
                    .copy_from_slice(&seg[r * width..(r + 1) * width]);
            }
        }
    }
    x
}

struct SolveWorker<'a, T> {
    sym: &'a SymbolMatrix,
    storage: &'a FactorStorage<T>,
    routing: &'a SolveRouting,
    me: u32,
    /// Panel width: every segment, AUB and partial is `width × nrhs`.
    nrhs: usize,
    /// Owned segment panels (b on entry, x on exit), column-major with
    /// leading dimension the cblk width.
    x: HashMap<u32, Vec<T>>,
    /// Remaining contribution events before a cblk's forward solve.
    fwd_pending: HashMap<u32, u32>,
    /// Remaining partial events before a cblk's backward solve.
    bwd_pending: HashMap<u32, u32>,
    /// Outgoing forward AUB accumulators: (target cblk) → (buffer, left).
    fwd_aub_out: HashMap<u32, (Vec<T>, u32)>,
    /// Outgoing backward AUB accumulators.
    bwd_aub_out: HashMap<u32, (Vec<T>, u32)>,
    /// Incoming backward partials per owned cblk, buffered until after the
    /// D division (the sequential order is D-divide, then subtract the
    /// `Lᵀ·x` partials, then the transposed diagonal solve).
    bwd_partial_in: HashMap<u32, Vec<T>>,
    /// Segments already processed, for exactly-once application under the
    /// simulator's duplicate-delivery fault.
    fwd_x_seen: HashSet<u32>,
    bwd_x_seen: HashSet<u32>,
    /// AUBs already applied, keyed (sender, target cblk).
    fwd_aub_seen: HashSet<(usize, u32)>,
    bwd_aub_seen: HashSet<(usize, u32)>,
    /// Backward-sweep traffic that arrived while this processor was still
    /// in its forward sweep (a faster peer may legitimately race ahead);
    /// drained at the start of the backward sweep.
    bwd_early: Vec<(usize, SMsg<T>)>,
    /// Reused per-blok scratch of both sweeps (`L_b·x_k` contributions,
    /// `L_bᵀ·x` partials): one allocation per worker instead of one per
    /// owned blok per supernode.
    scratch: Vec<T>,
    /// Present iff the run is traced: the shared progress counter and
    /// mailbox depths behind the heartbeat/gauge events.
    gauges: Option<&'a SharedGauges>,
    /// Gauge sampling cadence (tasks between samples; 0 disables).
    sample_every: usize,
    /// Tasks this rank has completed (heartbeat pacing).
    tasks_done: u64,
}

impl<T: Scalar> SolveWorker<'_, T> {
    /// Owners of the off-diagonal bloks of `k`, deduplicated, minus self.
    fn blok_owner_procs(&self, k: usize) -> Vec<u32> {
        let cb = &self.sym.cblks[k];
        let mut v: Vec<u32> = (cb.blok_start + 1..cb.blok_end)
            .map(|b| self.routing.blok_owner[b])
            .filter(|&q| q != self.me)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Heartbeat + gauge bookkeeping after one completed cblk solve task
    /// (forward or backward). A no-op on untraced runs.
    fn note_task_done(&mut self) {
        if let Some(g) = self.gauges {
            let seq = g.progress.fetch_add(1, Ordering::Relaxed) + 1;
            heartbeat(seq);
            self.tasks_done += 1;
            if self.sample_every > 0 && self.tasks_done.is_multiple_of(self.sample_every as u64) {
                let depth = g.mailbox_depth[self.me as usize].load(Ordering::Relaxed).max(0);
                sample_gauge(GaugeId::MailboxDepth, depth as u64);
            }
        }
    }

    /// Owners of the bloks *facing* `k`, deduplicated, minus self.
    fn facing_owner_procs(&self, k: usize) -> Vec<u32> {
        let mut v: Vec<u32> = self.routing.facing[k]
            .iter()
            .map(|&(b, _)| self.routing.blok_owner[b as usize])
            .filter(|&q| q != self.me)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    // ------------------------------------------------------------------
    // Forward sweep: L·y = b, ascending column blocks.
    // ------------------------------------------------------------------

    fn forward<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C) {
        let ns = self.sym.n_cblks();
        // Expected remote x segments whose bloks I own.
        let mut expected_x: Vec<u32> = Vec::new();
        for k in 0..ns {
            if self.routing.cblk_owner[k] == self.me {
                continue;
            }
            let cb = &self.sym.cblks[k];
            if (cb.blok_start + 1..cb.blok_end).any(|b| self.routing.blok_owner[b] == self.me) {
                expected_x.push(k as u32);
            }
        }
        let mut expected_left = expected_x.len();
        let own: Vec<u32> = (0..ns as u32)
            .filter(|&k| self.routing.cblk_owner[k as usize] == self.me)
            .collect();
        let mut next = 0usize;
        while next < own.len() || expected_left > 0 {
            if next < own.len() {
                let k = own[next];
                if self.fwd_pending.get(&k).copied().unwrap_or(0) == 0 {
                    self.fwd_solve_cblk(ctx, k as usize);
                    self.note_task_done();
                    next += 1;
                    continue;
                }
            }
            let env = ctx.recv();
            match env.msg {
                SMsg::XFwd { cblk, data } => {
                    if !self.fwd_x_seen.insert(cblk) {
                        continue; // duplicate delivery
                    }
                    self.fwd_blok_contributions(ctx, cblk as usize, &data);
                    expected_left -= 1;
                }
                SMsg::FwdAub { cblk, data } => {
                    if !self.fwd_aub_seen.insert((env.from, cblk)) {
                        continue; // duplicate delivery
                    }
                    let seg = self.x.get_mut(&cblk).expect("AUB for unowned segment");
                    for (s, v) in seg.iter_mut().zip(&data) {
                        *s -= *v;
                    }
                    *self.fwd_pending.get_mut(&cblk).unwrap() -= 1;
                }
                msg @ (SMsg::XBwd { .. } | SMsg::BwdAub { .. }) => {
                    // A peer that finished its forward sweep may already be
                    // descending; park its traffic for our backward sweep.
                    self.bwd_early.push((env.from, msg));
                }
            }
        }
    }

    /// Diagonal forward solve of an owned cblk, then fan the segment out.
    fn fwd_solve_cblk<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize) {
        let _span = task_span(k as u32, TaskClass::FwdSolve);
        let cb = &self.sym.cblks[k];
        let w = cb.width();
        let lda = self.storage.panel_lda(k);
        let seg = self.x.get_mut(&(k as u32)).unwrap();
        solve_unit_lower_panel(w, &self.storage.panels[k], lda, seg, self.nrhs, w);
        // One shared materialization; every consumer send bumps a refcount.
        let seg: Arc<[T]> = Arc::from(seg.as_slice());
        // Ship to the owners of this cblk's off-diagonal bloks. Drops are
        // retried; a closed peer is already unwinding (panic teardown).
        for q in self.blok_owner_procs(k) {
            let _ = ctx.send_resilient(q as usize, SMsg::XFwd { cblk: k as u32, data: seg.clone() });
        }
        // Process my own bloks of k immediately.
        self.fwd_blok_contributions(ctx, k, &seg);
    }

    /// Computes `L_b · X_k` (an `h_b × nrhs` panel) for every blok of `k`
    /// this processor owns and routes the contributions.
    fn fwd_blok_contributions<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize, xk: &[T]) {
        let cb = &self.sym.cblks[k];
        let w = cb.width();
        let nrhs = self.nrhs;
        // Reused scratch: swapped out of the worker for the borrow's sake.
        let mut contrib = std::mem::take(&mut self.scratch);
        for b in cb.blok_start + 1..cb.blok_end {
            if self.routing.blok_owner[b] != self.me {
                continue;
            }
            let blok = &self.sym.bloks[b];
            let hb = blok.nrows();
            contrib.clear();
            contrib.resize(hb * nrhs, T::zero());
            match self.storage.blok_view(k, b - cb.blok_start, b) {
                BlokView::Dense { data, ld } => {
                    gemm_nn_acc(hb, nrhs, w, T::one(), data, ld, xk, w, &mut contrib, hb);
                }
                BlokView::LowRank(lr) => {
                    lr_gemm_nn_acc(T::one(), lr.as_ref(), xk, nrhs, w, &mut contrib, hb);
                }
            }
            let t = blok.fcblk as usize;
            let tcb = &self.sym.cblks[t];
            let width_t = tcb.width();
            let off = (blok.frow - tcb.fcol) as usize;
            let owner = self.routing.cblk_owner[t];
            if owner == self.me {
                let seg = self.x.get_mut(&(t as u32)).expect("local target segment");
                for r in 0..nrhs {
                    let rows = &mut seg[r * width_t + off..r * width_t + off + hb];
                    for (s, v) in rows.iter_mut().zip(&contrib[r * hb..(r + 1) * hb]) {
                        *s -= *v;
                    }
                }
                *self.fwd_pending.get_mut(&(t as u32)).unwrap() -= 1;
            } else {
                // One aggregated buffer per (me, target cblk); count my
                // bloks facing t to know when it is complete.
                let mine: u32 = self.routing.facing[t]
                    .iter()
                    .filter(|&&(bb, _)| self.routing.blok_owner[bb as usize] == self.me)
                    .count() as u32;
                let entry = self
                    .fwd_aub_out
                    .entry(t as u32)
                    .or_insert_with(|| (vec![T::zero(); width_t * nrhs], mine));
                for r in 0..nrhs {
                    let rows = &mut entry.0[r * width_t + off..r * width_t + off + hb];
                    for (s, v) in rows.iter_mut().zip(&contrib[r * hb..(r + 1) * hb]) {
                        *s += *v;
                    }
                }
                entry.1 -= 1;
                if entry.1 == 0 {
                    let (data, _) = self.fwd_aub_out.remove(&(t as u32)).unwrap();
                    let _ = ctx.send_resilient(owner as usize, SMsg::FwdAub { cblk: t as u32, data });
                }
            }
        }
        self.scratch = contrib;
    }

    // ------------------------------------------------------------------
    // Backward sweep: D·z = y then Lᵀ·x = z, descending column blocks.
    // ------------------------------------------------------------------

    fn backward<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C) {
        let ns = self.sym.n_cblks();
        // Expected final segments of cblks whose *facing* bloks I own.
        let mut expected_left = 0usize;
        for t in 0..ns {
            if self.routing.cblk_owner[t] == self.me {
                continue;
            }
            if self.routing.facing[t]
                .iter()
                .any(|&(b, _)| self.routing.blok_owner[b as usize] == self.me)
            {
                expected_left += 1;
            }
        }
        // First replay any backward traffic that overtook our forward sweep.
        let early = std::mem::take(&mut self.bwd_early);
        for (from, msg) in early {
            self.handle_bwd(ctx, from, msg, &mut expected_left);
        }
        let own: Vec<u32> = (0..ns as u32)
            .rev()
            .filter(|&k| self.routing.cblk_owner[k as usize] == self.me)
            .collect();
        let mut next = 0usize;
        while next < own.len() || expected_left > 0 {
            if next < own.len() {
                let k = own[next];
                if self.bwd_pending.get(&k).copied().unwrap_or(0) == 0 {
                    self.bwd_solve_cblk(ctx, k as usize);
                    self.note_task_done();
                    next += 1;
                    continue;
                }
            }
            let env = ctx.recv();
            self.handle_bwd(ctx, env.from, env.msg, &mut expected_left);
        }
    }

    /// Applies one backward-sweep message (live or parked during the
    /// forward sweep). Forward-sweep messages reaching this point can only
    /// be late duplicates — every original was consumed before the forward
    /// sweep could end — and are discarded.
    fn handle_bwd<C: Comm<SMsg<T>> + ?Sized>(
        &mut self,
        ctx: &C,
        from: usize,
        msg: SMsg<T>,
        expected_left: &mut usize,
    ) {
        match msg {
            SMsg::XBwd { cblk, data } => {
                if !self.bwd_x_seen.insert(cblk) {
                    return; // duplicate delivery
                }
                self.bwd_blok_partials(ctx, cblk as usize, &data);
                *expected_left -= 1;
            }
            SMsg::BwdAub { cblk, data } => {
                if !self.bwd_aub_seen.insert((from, cblk)) {
                    return; // duplicate delivery
                }
                let buf = self
                    .bwd_partial_in
                    .entry(cblk)
                    .or_insert_with(|| vec![T::zero(); data.len()]);
                for (s, v) in buf.iter_mut().zip(&data) {
                    *s += *v;
                }
                *self.bwd_pending.get_mut(&cblk).unwrap() -= 1;
            }
            SMsg::XFwd { .. } | SMsg::FwdAub { .. } => {}
        }
    }

    /// Backward step of an owned cblk: divide by D, subtract the (already
    /// received) partials, solve the transposed unit diagonal, broadcast.
    fn bwd_solve_cblk<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize) {
        let _span = task_span(k as u32, TaskClass::BwdSolve);
        let cb = &self.sym.cblks[k];
        let w = cb.width();
        let lda = self.storage.panel_lda(k);
        let panel = &self.storage.panels[k];
        let seg = self.x.get_mut(&(k as u32)).unwrap();
        // Order matters: D-divide the forward values first, then subtract
        // the buffered `Lᵀ·x` partials, then the transposed diagonal solve
        // — exactly the sequential sweep. All partials (local and remote)
        // were buffered in `bwd_partial_in`, never applied early.
        for t in 0..w {
            let dinv = panel[t + t * lda].recip();
            for r in 0..self.nrhs {
                seg[r * w + t] *= dinv;
            }
        }
        if let Some(pbuf) = self.bwd_partial_in.remove(&(k as u32)) {
            for (s, v) in seg.iter_mut().zip(&pbuf) {
                *s -= *v;
            }
        }
        solve_unit_lower_trans_panel(w, panel, lda, seg, self.nrhs, w);
        // One shared materialization; every consumer send bumps a refcount.
        let seg: Arc<[T]> = Arc::from(seg.as_slice());
        for q in self.facing_owner_procs(k) {
            let _ = ctx.send_resilient(q as usize, SMsg::XBwd { cblk: k as u32, data: seg.clone() });
        }
        self.bwd_blok_partials(ctx, k, &seg);
    }

    /// Computes `L_bᵀ · X_rows` (a `w × nrhs` panel) for every blok facing
    /// `t` this processor owns and routes the partials toward the blok's
    /// source cblk.
    fn bwd_blok_partials<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, t: usize, xt: &[T]) {
        let tcb = &self.sym.cblks[t];
        let w_t = tcb.width();
        let nrhs = self.nrhs;
        // Iterate bloks facing t that I own; each belongs to a source cblk
        // k < t and contributes to x_k.
        let facing: Vec<(u32, u32)> = self.routing.facing[t]
            .iter()
            .copied()
            .filter(|&(b, _)| self.routing.blok_owner[b as usize] == self.me)
            .collect();
        // Reused scratch: swapped out of the worker for the borrow's sake.
        let mut partial = std::mem::take(&mut self.scratch);
        for (b, k) in facing {
            let b = b as usize;
            let k = k as usize;
            let blok = &self.sym.bloks[b];
            let hb = blok.nrows();
            let w = self.sym.cblks[k].width();
            let off = (blok.frow - tcb.fcol) as usize;
            partial.clear();
            partial.resize(w * nrhs, T::zero());
            match self.storage.blok_view(k, b - self.sym.cblks[k].blok_start, b) {
                BlokView::Dense { data, ld } => {
                    gemm_tn_acc(w, nrhs, hb, T::one(), data, ld, &xt[off..], w_t, &mut partial, w);
                }
                BlokView::LowRank(lr) => {
                    lr_gemm_tn_acc(T::one(), lr.as_ref(), &xt[off..], nrhs, w_t, &mut partial, w);
                }
            }
            let owner = self.routing.cblk_owner[k];
            if owner == self.me {
                // Buffer locally; folded in at the cblk's backward step so
                // the D division always precedes the subtraction.
                let buf = self
                    .bwd_partial_in
                    .entry(k as u32)
                    .or_insert_with(|| vec![T::zero(); w * nrhs]);
                for (s, v) in buf.iter_mut().zip(&partial) {
                    *s += *v;
                }
                *self.bwd_pending.get_mut(&(k as u32)).unwrap() -= 1;
            } else {
                let mine: u32 = (self.sym.cblks[k].blok_start + 1..self.sym.cblks[k].blok_end)
                    .filter(|&bb| self.routing.blok_owner[bb] == self.me)
                    .count() as u32;
                let entry = self
                    .bwd_aub_out
                    .entry(k as u32)
                    .or_insert_with(|| (vec![T::zero(); w * nrhs], mine));
                for (s, v) in entry.0.iter_mut().zip(&partial) {
                    *s += *v;
                }
                entry.1 -= 1;
                if entry.1 == 0 {
                    let (data, _) = self.bwd_aub_out.remove(&(k as u32)).unwrap();
                    let _ = ctx.send_resilient(owner as usize, SMsg::BwdAub { cblk: k as u32, data });
                }
            }
        }
        self.scratch = partial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use crate::seq::{factorize_sequential, solve_in_place};
    use pastix_graph::{canonical_solution, rhs_for_solution};
    use pastix_sched::DistStrategy;

    fn setup(
        nx: usize,
        ny: usize,
        nz: usize,
        procs: usize,
        strategy: DistStrategy,
    ) -> (pastix_graph::SymCsc<f64>, pastix_sched::Mapping, FactorStorage<f64>) {
        let (ap, mapping) = full_setup(nx, ny, nz, procs, strategy, 6);
        let sym = &mapping.graph.split.symbol;
        let mut st = FactorStorage::zeros(sym);
        st.scatter(sym, &ap);
        factorize_sequential(sym, &mut st).unwrap();
        (ap, mapping, st)
    }

    fn check(ap: &pastix_graph::SymCsc<f64>, mapping: &pastix_sched::Mapping, st: &FactorStorage<f64>) {
        let sym = &mapping.graph.split.symbol;
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(ap, &x_exact);
        let x_par =
            solve_panel_static(sym, st, &mapping.graph, &mapping.schedule, &b, 1, &SolverConfig::default()).0;
        let mut x_seq = b.clone();
        solve_in_place(sym, st, &mut x_seq);
        for (u, v) in x_par.iter().zip(&x_seq) {
            assert!((u - v).abs() < 1e-9, "parallel {u} vs sequential {v}");
        }
        assert!(ap.residual_norm(&x_par, &b) < 1e-12);
    }

    #[test]
    fn distributed_solve_matches_sequential_1d() {
        for procs in [1usize, 2, 4] {
            let (ap, mapping, st) = setup(8, 8, 1, procs, DistStrategy::Only1d);
            check(&ap, &mapping, &st);
        }
    }

    #[test]
    fn distributed_solve_matches_sequential_mixed() {
        for procs in [2usize, 4, 8] {
            let (ap, mapping, st) = setup(9, 9, 1, procs, DistStrategy::Mixed1d2d);
            check(&ap, &mapping, &st);
        }
    }

    #[test]
    fn distributed_solve_works_under_cyclic_schedule() {
        // The solve protocol only depends on ownership, not on how it was
        // chosen: a block-cyclic schedule must drive it just as well.
        let (ap, mapping, st) = setup(8, 8, 1, 3, DistStrategy::Mixed1d2d);
        let machine = pastix_machine::MachineModel::sp2(3);
        let cyc = pastix_sched::cyclic_schedule(&mapping.graph, &machine);
        let sym = &mapping.graph.split.symbol;
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(&ap, &x_exact);
        let x = solve_panel_static(sym, &st, &mapping.graph, &cyc, &b, 1, &SolverConfig::default()).0;
        assert!(ap.residual_norm(&x, &b) < 1e-12);
    }

    #[test]
    fn distributed_solve_3d() {
        let (ap, mapping, st) = setup(4, 4, 4, 4, DistStrategy::Mixed1d2d);
        check(&ap, &mapping, &st);
    }

    #[test]
    fn panel_solve_matches_column_by_column() {
        // A width-k panel solve must agree entrywise with k independent
        // sequential solves of its columns.
        for procs in [1usize, 3, 4] {
            let (ap, mapping, st) = setup(9, 9, 1, procs, DistStrategy::Mixed1d2d);
            let sym = &mapping.graph.split.symbol;
            let n = ap.n();
            for nrhs in [1usize, 3, 5] {
                let mut panel = vec![0.0f64; n * nrhs];
                for r in 0..nrhs {
                    let x_exact: Vec<f64> =
                        (0..n).map(|i| 1.0 + ((i + r * 7) % 11) as f64 * 0.25).collect();
                    let b = rhs_for_solution(&ap, &x_exact);
                    panel[r * n..(r + 1) * n].copy_from_slice(&b);
                }
                let x_panel = solve_panel_static(
                    sym,
                    &st,
                    &mapping.graph,
                    &mapping.schedule,
                    &panel,
                    nrhs,
                    &SolverConfig::default(),
                )
                .0;
                for r in 0..nrhs {
                    let mut x_seq = panel[r * n..(r + 1) * n].to_vec();
                    solve_in_place(sym, &st, &mut x_seq);
                    for (u, v) in x_panel[r * n..(r + 1) * n].iter().zip(&x_seq) {
                        assert!(
                            (u - v).abs() < 1e-9,
                            "procs {procs} nrhs {nrhs} col {r}: panel {u} vs sequential {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panel_solve_single_rhs_is_bitwise_solve_parallel() {
        // On the deterministic sim backend the nrhs = 1 panel path must be
        // bit-for-bit the classic single-RHS solve.
        let (ap, mapping, st) = setup(8, 8, 1, 4, DistStrategy::Mixed1d2d);
        let sym = &mapping.graph.split.symbol;
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(&ap, &x_exact);
        let cfg = SolverConfig::default().with_backend(pastix_runtime::Backend::Sim(
            pastix_runtime::sim::FaultPlan::interleave_only(11),
        ));
        let x1 = solve_panel_static(sym, &st, &mapping.graph, &mapping.schedule, &b, 1, &cfg).0;
        let xp = solve_panel_static(sym, &st, &mapping.graph, &mapping.schedule, &b, 1, &cfg).0;
        assert_eq!(x1, xp);
    }
}
