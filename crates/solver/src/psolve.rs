//! The static engine's distributed triangular solves, driven by the static
//! schedule's ownership: `Backend::Sim`'s solve. (`Threads` and `Dynamic`
//! solve on the DAG executor, `crate::dynamic::solve_panel_dynamic`.)
//!
//! The paper's solver performs the factorization in parallel; the solve
//! phase follows the same data distribution, and this module implements it
//! with the same fan-in discipline. During the forward sweep each owner of
//! a run of off-diagonal bloks computes its strip `L_run·x_k` as soon as
//! the solved segment `x_k` reaches it, and contributions bound for the
//! same column block from the same processor travel as one aggregated
//! update; during the backward sweep a run owner waits for the solved
//! segments its bloks face, gathers them, and its partials `L_runᵀ·x`
//! travel aggregated the same way.
//!
//! This is the static **driver** of the crate's `sweeps` module: the
//! numeric steps are there, the ownership, counters and routes come
//! precomputed from the plan's `StaticRouting`, and what remains here is
//! the message protocol
//! — who sends what when, in which order a rank steps its own column
//! blocks, and exactly-once application under the simulator's duplicate
//! delivery.
//!
//! The factor panels are shared read-only between the logical processors
//! (they were just computed; re-distributing them would only model memory
//! placement, not the solve's data flow). What is exercised is the
//! message-passing structure of the solve: segment broadcasts, update
//! aggregation, and the demand-driven reception the static order allows.

use crate::config::SolverConfig;
use crate::parallel::{GaugeHook, SharedGauges};
use crate::solve_plan::{Run, StaticRouting};
use crate::storage::FactorStorage;
use crate::sweeps::{self, LaterSegments, RowSink};
use pastix_kernels::Scalar;
use pastix_runtime::sim::{run_sim_spmd, FaultPlan, SimCtx};
use pastix_runtime::{Comm, Instrumented};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{
    heartbeat, sample_gauge, task_span, GaugeId, RankTrace, SessionHook, TaskClass, TraceLog,
    TraceOptions,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Messages of the distributed solve. (`Clone` is only exercised by the
/// simulator's duplicate-delivery fault.) Every variant is naturally
/// keyed — `XFwd`/`XBwd` by the column block, the AUBs by (sender, column
/// block) since each sender aggregates at most one AUB per target — so
/// receivers deduplicate injected duplicate deliveries with seen-bitsets
/// instead of sequence numbers.
///
/// Solved segments are broadcast to every run owner, so they travel as
/// `Arc<[T]>` (one materialization, refcount bumps per send); the AUBs have
/// exactly one destination each and stay owned `Vec`s. Both AUBs carry the
/// *negated* sums (`−Σ L_b·x`, `−Σ L_bᵀ·x`): the receiver adds.
#[derive(Clone)]
enum SMsg<T> {
    /// Solved segment of a column block (forward sweep).
    XFwd { cblk: u32, data: Arc<[T]> },
    /// Final segment of a column block (backward sweep).
    XBwd { cblk: u32, data: Arc<[T]> },
    /// Aggregated forward updates targeting a column block's segment.
    FwdAub { cblk: u32, data: Vec<T> },
    /// Aggregated backward partials targeting a column block's segment.
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

/// The SPMD **multi-RHS panel** solve engine under the simulator's
/// `faults`, called by [`crate::SolveRequest`]-driven `Sim` solves on
/// [`crate::FactorRun`]:
/// `rhs` is `n × nrhs` column-major, in the row order `perm` maps to
/// elimination order (`None`: already elimination order); returns the
/// `n × nrhs` solution panel in the same row order and the run's
/// [`TraceLog`] (empty when `cfg.trace` is disabled).
///
/// Every rank works in one flat `n × nrhs` workspace ([`crate::sweeps`]):
/// the segments it owns hold its share of the right-hand sides, every
/// other segment is where it aggregates an outgoing AUB and, later, keeps
/// the solved segment it received — so a batch of coalesced requests pays
/// the solve's message protocol once and allocates per message, not per
/// column block.
///
/// When tracing is enabled, every completed forward/backward cblk solve
/// additionally stamps a run-global progress heartbeat and the rank's
/// mailbox-depth gauge is sampled every `trace.sample_every` tasks, so a
/// serving run feeds the [`pastix_trace::watchdog`] exactly like the
/// factorization does.
pub(crate) fn solve_panel_static<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    routing: &StaticRouting,
    digest: u64,
    rhs: &[T],
    nrhs: usize,
    perm: Option<&[u32]>,
    faults: &FaultPlan,
    cfg: &SolverConfig,
) -> (Vec<T>, TraceLog) {
    assert!(nrhs >= 1, "panel solve needs at least one right-hand side");
    assert_eq!(rhs.len(), sym.n * nrhs, "rhs must be n × nrhs");
    let mut topts = cfg.trace;
    if topts.enabled && topts.epoch.is_none() {
        topts.epoch = Some(Instant::now());
    }
    let gauges = topts.enabled.then(|| SharedGauges::new(routing.n_procs));
    let t0 = Instant::now();
    let results = run_sim_spmd::<SMsg<T>, (Vec<T>, Option<RankTrace>), _>(routing.n_procs, faults, |ctx| {
        solve_worker_run(&ctx, sym, storage, routing, rhs, nrhs, perm, &topts, gauges.as_ref())
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    // Every owner's workspace holds the solution of its own segments.
    let mut x = vec![T::zero(); rhs.len()];
    for k in 0..sym.n_cblks() {
        let ws = &results[routing.cblk_owner[k] as usize].0;
        sweeps::store_segment(sym, k, perm, &ws[sweeps::segment(sym, k, nrhs)], nrhs, &mut x);
    }
    let ranks = results.into_iter().filter_map(|(_, rt)| rt).collect();
    (x, TraceLog { ranks, wall_ns, digest })
}

/// The SPMD body of one logical processor of the solve.
fn solve_worker_run<T: Scalar>(
    ctx: &SimCtx<SMsg<T>>,
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    routing: &StaticRouting,
    rhs: &[T],
    nrhs: usize,
    perm: Option<&[u32]>,
    topts: &TraceOptions,
    gauges: Option<&SharedGauges>,
) -> (Vec<T>, Option<RankTrace>) {
    let ns = sym.n_cblks();
    let me = ctx.rank();
    let session = pastix_trace::begin_rank(me, topts);
    let mut ws = vec![T::zero(); rhs.len()];
    for &k in routing.fwd_order.row(me) {
        let k = k as usize;
        sweeps::load_segment(sym, k, perm, rhs, nrhs, &mut ws[sweeps::segment(sym, k, nrhs)]);
    }
    let mut w = SolveWorker {
        sym,
        storage,
        routing,
        me: me as u32,
        nrhs,
        ws,
        fwd_count: routing.fwd_count[me * ns..(me + 1) * ns].to_vec(),
        bwd_count: routing.bwd_count[me * ns..(me + 1) * ns].to_vec(),
        run_wait: routing.run_wait.clone(),
        seen: vec![0; (2 * ns * (1 + routing.n_procs)).div_ceil(64)],
        bwd_early: Vec::new(),
        scratch: sweeps::Scratch::default(),
        gauges,
        sample_every: topts.sample_every as usize,
        tasks_done: 0,
    };
    // Only the traced path pays for the instrumented wrapper.
    if topts.enabled {
        let g = gauges.expect("a traced solve always carries gauges");
        let hook = (SessionHook, GaugeHook { rank: me, gauges: g });
        let ictx = Instrumented::new(ctx, hook, smsg_meta::<T>);
        w.forward(&ictx);
        w.backward(&ictx);
    } else {
        w.forward(ctx);
        w.backward(ctx);
    }
    (w.ws, session.finish())
}

struct SolveWorker<'a, T> {
    sym: &'a SymbolMatrix,
    storage: &'a FactorStorage<T>,
    routing: &'a StaticRouting,
    me: u32,
    /// Panel width: every segment, AUB and partial is `width × nrhs`.
    nrhs: usize,
    /// The flat workspace. Owned segments: `b` on entry, `x` on exit.
    /// Other segments: the outgoing forward AUB (zeroed again once sent),
    /// then the outgoing backward AUB, then the received solved segment.
    ws: Vec<T>,
    /// Forward events left per column block (see [`StaticRouting`]).
    fwd_count: Vec<u32>,
    /// Backward events left per column block.
    bwd_count: Vec<u32>,
    /// Solved segments each run still waits for.
    run_wait: Vec<u32>,
    /// Messages already applied, for exactly-once application under the
    /// simulator's duplicate-delivery fault: one bit per forward segment,
    /// backward segment, then per (sweep, sender, column block) AUB.
    seen: Vec<u64>,
    /// Backward-sweep traffic that arrived while this processor was still
    /// in its forward sweep (a faster peer may legitimately race ahead);
    /// drained at the start of the backward sweep.
    bwd_early: Vec<(usize, SMsg<T>)>,
    /// Reused buffers of the block steps.
    scratch: sweeps::Scratch<T>,
    /// Present iff the run is traced: the shared progress counter and
    /// mailbox depths behind the heartbeat/gauge events.
    gauges: Option<&'a SharedGauges>,
    /// Gauge sampling cadence (tasks between samples; 0 disables).
    sample_every: usize,
    /// Tasks this rank has completed (heartbeat pacing).
    tasks_done: u64,
}

/// The static driver's forward sink: rows land in a later segment of the
/// rank's workspace — its own, or the aggregate for a remote owner, which
/// is sent (and zeroed for reuse) with the rank's last contribution.
struct FanIn<'a, T, C: ?Sized> {
    later: LaterSegments<'a, T>,
    sym: &'a SymbolMatrix,
    nrhs: usize,
    count: &'a mut [u32],
    owner: &'a [u32],
    me: u32,
    ctx: &'a C,
}

impl<T: Scalar, C: Comm<SMsg<T>> + ?Sized> RowSink<T> for FanIn<'_, T, C> {
    fn add_rows(&mut self, b: usize, rows: &[T]) {
        self.later.add_rows(b, rows);
        let t = self.sym.bloks[b].fcblk as usize;
        self.count[t] -= 1;
        if self.count[t] == 0 && self.owner[t] != self.me {
            let seg = self.later.range_mut(sweeps::segment(self.sym, t, self.nrhs));
            let data = seg.to_vec();
            seg.fill(T::zero());
            // Drops are retried; a closed peer is already unwinding.
            let _ = self.ctx.send_resilient(self.owner[t] as usize, SMsg::FwdAub { cblk: t as u32, data });
        }
    }
}

impl<T: Scalar> SolveWorker<'_, T> {
    /// Marks message `bit` seen; `false` when it already was (a duplicate).
    fn first_sight(&mut self, bit: usize) -> bool {
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let fresh = self.seen[word] & mask == 0;
        self.seen[word] |= mask;
        fresh
    }

    /// Seen-bit of a solved segment.
    fn x_bit(&self, backward: bool, cblk: u32) -> usize {
        usize::from(backward) * self.sym.n_cblks() + cblk as usize
    }

    /// Seen-bit of an AUB.
    fn aub_bit(&self, backward: bool, from: usize, cblk: u32) -> usize {
        let slot = 2 + usize::from(backward) * self.routing.n_procs + from;
        slot * self.sym.n_cblks() + cblk as usize
    }

    /// `ws[segment(cblk)] += data` — an incoming AUB.
    fn add_aub(&mut self, cblk: u32, data: &[T]) {
        sweeps::add_into(&mut self.ws[sweeps::segment(self.sym, cblk as usize, self.nrhs)], data);
    }

    /// Materializes segment `k` once and sends it to every remote consumer
    /// in `dsts`; no copy at all when every consumer is local.
    fn broadcast<C: Comm<SMsg<T>> + ?Sized>(
        &self,
        ctx: &C,
        k: usize,
        dsts: &[u32],
        wrap: fn(u32, Arc<[T]>) -> SMsg<T>,
    ) {
        if dsts.is_empty() {
            return;
        }
        let data: Arc<[T]> = Arc::from(&self.ws[sweeps::segment(self.sym, k, self.nrhs)]);
        for &q in dsts {
            // Drops are retried; a closed peer is already unwinding.
            let _ = ctx.send_resilient(q as usize, wrap(k as u32, data.clone()));
        }
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

    // ------------------------------------------------------------------
    // Forward sweep: L·D·z = b, owned column blocks in schedule order.
    // ------------------------------------------------------------------

    fn forward<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C) {
        let rt = self.routing;
        let own = rt.fwd_order.row(self.me as usize);
        let mut expected_left = rt.fwd_expect[self.me as usize];
        let mut next = 0usize;
        while next < own.len() || expected_left > 0 {
            if next < own.len() && self.fwd_count[own[next] as usize] == 0 {
                self.fwd_solve_cblk(ctx, own[next] as usize);
                self.note_task_done();
                next += 1;
                continue;
            }
            let env = ctx.recv();
            match env.msg {
                SMsg::XFwd { cblk, data } => {
                    if self.first_sight(self.x_bit(false, cblk)) {
                        self.fwd_runs(ctx, cblk as usize, Some(&data));
                        expected_left -= 1;
                    }
                }
                SMsg::FwdAub { cblk, data } => {
                    if self.first_sight(self.aub_bit(false, env.from, cblk)) {
                        self.add_aub(cblk, &data);
                        self.fwd_count[cblk as usize] -= 1;
                    }
                }
                msg @ (SMsg::XBwd { .. } | SMsg::BwdAub { .. }) => {
                    // A peer that finished its forward sweep may already be
                    // descending; park its traffic for our backward sweep.
                    self.bwd_early.push((env.from, msg));
                }
            }
        }
    }

    /// Forward step of an owned cblk: diagonal solve, fan the segment out,
    /// the strips of this rank's own runs, then the division by `D`.
    fn fwd_solve_cblk<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize) {
        let _span = task_span(k as u32, TaskClass::FwdSolve);
        let seg = sweeps::segment(self.sym, k, self.nrhs);
        sweeps::fwd_diag(self.sym, self.storage, k, &mut self.ws[seg.clone()], self.nrhs);
        self.broadcast(ctx, k, self.routing.fwd_dst.row(k), |cblk, data| SMsg::XFwd { cblk, data });
        self.fwd_runs(ctx, k, None);
        sweeps::d_divide(self.storage, k, &mut self.ws[seg], self.nrhs);
    }

    /// The strips `−L_run · X_k` of every run of `k` this rank owns, `X_k`
    /// being the received segment or, for an owned `k`, the workspace's.
    fn fwd_runs<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize, received: Option<&[T]>) {
        let (sym, rt) = (self.sym, self.routing);
        let (seg, later) = LaterSegments::split(sym, &mut self.ws, k, self.nrhs);
        let xk = received.unwrap_or(seg);
        let (count, owner) = (&mut self.fwd_count[..], &rt.cblk_owner[..]);
        let mut sink = FanIn { later, sym, nrhs: self.nrhs, count, owner, me: self.me, ctx };
        for &Run { owner, first, end, .. } in rt.runs_of(k) {
            if owner == self.me {
                let bloks = first as usize..end as usize;
                sweeps::fwd_update(sym, self.storage, k, bloks, xk, self.nrhs, &mut self.scratch, &mut sink);
            }
        }
    }

    // ------------------------------------------------------------------
    // Backward sweep: Lᵀ·x = z, owned column blocks in schedule order.
    // ------------------------------------------------------------------

    fn backward<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C) {
        let rt = self.routing;
        let own = rt.bwd_order.row(self.me as usize);
        let mut expected_left = rt.bwd_expect[self.me as usize];
        // First replay any backward traffic that overtook our forward sweep.
        for (from, msg) in std::mem::take(&mut self.bwd_early) {
            self.handle_bwd(ctx, from, msg, &mut expected_left);
        }
        let mut next = 0usize;
        while next < own.len() || expected_left > 0 {
            if next < own.len() && self.bwd_count[own[next] as usize] == 0 {
                self.bwd_solve_cblk(ctx, own[next] as usize);
                self.note_task_done();
                next += 1;
                continue;
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
        expected_left: &mut u32,
    ) {
        match msg {
            SMsg::XBwd { cblk, data } => {
                if self.first_sight(self.x_bit(true, cblk)) {
                    self.ws[sweeps::segment(self.sym, cblk as usize, self.nrhs)].copy_from_slice(&data);
                    self.segment_solved(ctx, cblk as usize);
                    *expected_left -= 1;
                }
            }
            SMsg::BwdAub { cblk, data } => {
                if self.first_sight(self.aub_bit(true, from, cblk)) {
                    self.add_aub(cblk, &data);
                    self.bwd_count[cblk as usize] -= 1;
                }
            }
            SMsg::XFwd { .. } | SMsg::FwdAub { .. } => {}
        }
    }

    /// Backward step of an owned cblk — every partial, local or remote,
    /// was already subtracted in place: the transposed diagonal solve,
    /// then fan the solved segment out.
    fn bwd_solve_cblk<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, k: usize) {
        let _span = task_span(k as u32, TaskClass::BwdSolve);
        let seg = sweeps::segment(self.sym, k, self.nrhs);
        sweeps::bwd_diag(self.sym, self.storage, k, &mut self.ws[seg], self.nrhs);
        self.broadcast(ctx, k, self.routing.bwd_dst.row(k), |cblk, data| SMsg::XBwd { cblk, data });
        self.segment_solved(ctx, k);
    }

    /// The solved segment of `t` is in the workspace: every run of this
    /// rank that was waiting only for it gathers its rows and computes
    /// `−L_runᵀ · G` into its column block's segment — in place for an
    /// owned one, as the outgoing aggregate otherwise.
    fn segment_solved<C: Comm<SMsg<T>> + ?Sized>(&mut self, ctx: &C, t: usize) {
        let (sym, rt, nrhs) = (self.sym, self.routing, self.nrhs);
        for &r in rt.wakes.row(t) {
            let Run { owner, cblk, first, end } = rt.runs[r as usize];
            if owner != self.me {
                continue;
            }
            self.run_wait[r as usize] -= 1;
            if self.run_wait[r as usize] > 0 {
                continue;
            }
            let k = cblk as usize;
            let (seg, later) = LaterSegments::split(sym, &mut self.ws, k, nrhs);
            let gather = |b: usize, dst: &mut [T]| later.copy_rows(b, dst);
            let bloks = first as usize..end as usize;
            sweeps::bwd_update(sym, self.storage, k, bloks, nrhs, &mut self.scratch, gather, seg);
            self.bwd_count[k] -= 1;
            if self.bwd_count[k] == 0 && rt.cblk_owner[k] != self.me {
                let data = seg.to_vec();
                let _ = ctx.send_resilient(rt.cblk_owner[k] as usize, SMsg::BwdAub { cblk, data });
            }
        }
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

    /// Panel solve under `sched` and `faults`, routing built the way a
    /// plan builds it.
    fn solve(
        mapping: &pastix_sched::Mapping,
        sched: &pastix_sched::Schedule,
        st: &FactorStorage<f64>,
        b: &[f64],
        nrhs: usize,
        faults: &FaultPlan,
    ) -> Vec<f64> {
        let routing = crate::solve_plan::StaticRouting::build(&mapping.graph, sched);
        let sym = &mapping.graph.split.symbol;
        solve_panel_static(sym, st, &routing, sched.digest(), b, nrhs, None, faults, &SolverConfig::default()).0
    }

    fn check(ap: &pastix_graph::SymCsc<f64>, mapping: &pastix_sched::Mapping, st: &FactorStorage<f64>) {
        let sym = &mapping.graph.split.symbol;
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(ap, &x_exact);
        let x_par = solve(mapping, &mapping.schedule, st, &b, 1, &FaultPlan::interleave_only(1));
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
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(&ap, &x_exact);
        let x = solve(&mapping, &cyc, &st, &b, 1, &FaultPlan::interleave_only(2));
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
                let x_panel = solve(&mapping, &mapping.schedule, &st, &panel, nrhs, &FaultPlan::interleave_only(3));
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
        let x_exact = canonical_solution::<f64>(ap.n());
        let b = rhs_for_solution(&ap, &x_exact);
        let faults = FaultPlan::interleave_only(11);
        let x1 = solve(&mapping, &mapping.schedule, &st, &b, 1, &faults);
        let xp = solve(&mapping, &mapping.schedule, &st, &b, 1, &faults);
        assert_eq!(x1, xp);
    }
}
