//! The parallel supernodal fan-in `L·D·Lᵀ` solver, fully driven by the
//! static schedule: the `Backend::Sim` factorization.
//!
//! This is the executable form of the paper's Fig. 1: each logical
//! processor walks its fully ordered task vector `K_p`; non-local block
//! contributions are aggregated locally into **aggregated update blocks**
//! (AUBs) that are sent as soon as the last local contribution lands
//! ("total local aggregation", the Fan-In scheme of Ashcraft–Eisenstat–
//! Liu); factor panels (`L_kk D_k` for BDIV, `[L_j | F_j]` for BMOD) are
//! the only other messages. The runtime is `pastix-runtime`'s
//! deterministic simulator, so every run replays from its fault plan.
//!
//! Because the schedule orders every computation, reception is demand
//! driven: a processor that needs a factor block drains its mailbox —
//! applying any AUB immediately (updates commute) and caching factor
//! blocks — until the wanted block appears.

use crate::config::SolverConfig;
use crate::pattern::Entries;
use crate::storage::{
    pair_target, put, scatter_cblk, strip_stretches, strip_targets, BlokCursor, FactorStorage, PairTarget, PanelLayout,
};
use crate::tasks::{self, Comp1dNs, ContribSink, Scratch, StretchFn};
use pastix_kernels::dense::copy_panel;
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_runtime::sim::{run_sim_spmd, FaultPlan, SimCtx};
use pastix_runtime::{Comm, CommHook, Instrumented};
use pastix_sched::{Schedule, TaskGraph, TaskKind};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{
    heartbeat, sample_gauge, task_span, GaugeId, MetricsRegistry, RankTrace, SessionHook,
    TaskClass, TraceLog, TraceOptions,
};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Message shipped between logical processors. (`Clone` is only exercised
/// by the simulator's duplicate-delivery fault.)
#[derive(Clone)]
enum PMsg<T> {
    /// Aggregated update block for the region of task `dst`: the sum of
    /// `pairs` block contributions `−L_r·F_cᵀ`, added to the region on
    /// receipt (fewer than the full count when the
    /// Fan-Both memory fallback flushed a partial aggregate early).
    /// `seq` is a per-sender sequence number: together with the envelope's
    /// sender it identifies the AUB so receivers can discard the
    /// simulator's duplicate deliveries (an AUB applied twice would
    /// corrupt the region *and* underflow the pending-pair counter).
    Aub {
        dst: u32,
        seq: u32,
        pairs: u32,
        data: Vec<T>,
    },
    /// Factor data produced by task `src` (`L_kk D_k` of a FACTOR, or
    /// `[L_b | F_b]` of a BDIV). Duplicate delivery is harmless: the cache
    /// insert is idempotent. The producer's one cached copy, shared by
    /// every consumer rank.
    Fac { src: u32, data: Arc<[T]> },
    /// A processor hit a zero pivot; everyone unwinds. Idempotent.
    Abort { col: u32 },
}

/// Message metadata for the trace layer: `(kind tag, payload bytes)`.
/// Tags: 0 = AUB, 1 = factor block, 2 = abort.
fn pmsg_meta<T>(m: &PMsg<T>) -> (u8, u64) {
    let elem = std::mem::size_of::<T>() as u64;
    match m {
        PMsg::Aub { data, .. } => (0, data.len() as u64 * elem),
        PMsg::Fac { data, .. } => (1, data.len() as u64 * elem),
        PMsg::Abort { .. } => (2, 0),
    }
}

/// Run-wide live gauges of a traced factorization or panel solve, shared
/// by every rank and sampled onto the trace timeline at the
/// `TraceOptions::sample_every` cadence. The solve allocates them only
/// when tracing is enabled, so its untraced hot path never sees an atomic;
/// the `Sim` factorization always counts into them and reads them only
/// when traced. Under the simulator the serialized execution makes every
/// reading a pure function of `(seed, policy)`.
pub(crate) struct SharedGauges {
    /// Payload bytes accepted by the transport but not yet received.
    /// Signed because the simulator's duplicate-delivery fault can make
    /// recvs overtake sends; samples clamp at zero.
    pub(crate) inflight_bytes: AtomicI64,
    /// Per-rank mailbox depth: messages sent to that rank, not yet
    /// received by it.
    pub(crate) mailbox_depth: Vec<AtomicI64>,
    /// Run-global completed-task counter; each completion stamps the
    /// finishing rank's heartbeat with the post-increment value.
    pub(crate) progress: AtomicU64,
}

impl SharedGauges {
    pub(crate) fn new(n_procs: usize) -> Self {
        Self {
            inflight_bytes: AtomicI64::new(0),
            mailbox_depth: (0..n_procs).map(|_| AtomicI64::new(0)).collect(),
            progress: AtomicU64::new(0),
        }
    }
}

/// The [`CommHook`] feeding [`SharedGauges`] from one rank's traffic;
/// composed with [`SessionHook`] through the runtime's tuple hook so one
/// [`Instrumented`] wrapper serves both.
pub(crate) struct GaugeHook<'g> {
    pub(crate) rank: usize,
    pub(crate) gauges: &'g SharedGauges,
}

impl CommHook for GaugeHook<'_> {
    #[inline]
    fn on_send(&self, to: usize, bytes: u64, _kind: u8) {
        self.gauges.inflight_bytes.fetch_add(bytes as i64, Ordering::Relaxed);
        self.gauges.mailbox_depth[to].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn on_send_dropped(&self, _to: usize, _bytes: u64, _kind: u8) {}

    #[inline]
    fn on_recv(&self, _from: usize, bytes: u64, _kind: u8, _wait_ns: u64) {
        self.gauges.inflight_bytes.fetch_sub(bytes as i64, Ordering::Relaxed);
        self.gauges.mailbox_depth[self.rank].fetch_sub(1, Ordering::Relaxed);
    }
}

/// Merges one worker's COMP1D stage timers into `reg` (zero when the run
/// took none, and then skipped).
pub(crate) fn merge_comp1d_ns(reg: &MetricsRegistry, rank: u32, ns: &Comp1dNs) {
    for (name, v) in [
        ("solver.comp1d.trsm_ns", ns.trsm),
        ("solver.comp1d.gemm_ns", ns.gemm),
        ("solver.comp1d.deliver_ns", ns.deliver),
    ] {
        if v > 0 {
            reg.add_counter_rank(name, Some(rank), v);
        }
    }
}

/// Folds a recorded trace's per-rank communication counters into `reg`
/// under `comm.*`.
pub(crate) fn merge_trace_metrics(reg: &MetricsRegistry, log: &TraceLog) {
    for rt in &log.ranks {
        for (name, v) in [
            ("comm.sends", rt.comm.sends),
            ("comm.send_drops", rt.comm.send_drops),
            ("comm.recvs", rt.comm.recvs),
            ("comm.send_bytes", rt.comm.send_bytes),
            ("comm.recv_bytes", rt.comm.recv_bytes),
        ] {
            if v > 0 {
                reg.add_counter_rank(name, Some(rt.rank), v);
            }
        }
    }
}

/// Static routing of one `(task graph, schedule)`: structure only, built
/// once per factorization and shared read-only by all its workers.
#[derive(Debug)]
struct Routing {
    layout: PanelLayout,
    /// Per task: total remote contribution *pairs* expected (AUB messages
    /// decrement this by the pair count they carry, so partial-aggregation
    /// flushes stay protocol-safe).
    remote_pairs: Vec<u32>,
    /// Per (proc, dst task): number of contribution pairs the proc must
    /// accumulate before its AUB to `dst` is complete.
    pair_count: HashMap<(u32, u32), u32>,
    /// Region size in scalars per task.
    region_len: Vec<usize>,
}

/// The task whose region receives the contributions landing in blok
/// `t.blok` of column block `t.cblk`, and the window of one of them.
struct PairRoute {
    dst: u32,
    /// Offset of the window's first entry in the region.
    off: usize,
    /// Leading dimension of the region.
    ldr: usize,
}

/// Where in the task regions target `t` lies: a 1D target's region is its
/// whole panel; a 2D target's is the compact diagonal block (FACTOR) or
/// the covering blok's own rows (BDIV).
fn route_of(sym: &SymbolMatrix, graph: &TaskGraph, t: &PairTarget) -> PairRoute {
    let head = graph.head_task_of_cblk[t.cblk];
    match graph.kinds[head as usize] {
        TaskKind::Comp1d { .. } => PairRoute { dst: head, off: t.panel_row + t.col * t.lda, ldr: t.lda },
        TaskKind::Factor { .. } => {
            let (dst, ldr) = if t.blok == sym.cblks[t.cblk].blok_start {
                (head, sym.cblks[t.cblk].width())
            } else {
                (graph.bdiv_task_of_blok[t.blok], sym.bloks[t.blok].nrows())
            };
            PairRoute { dst, off: t.row_in_blok + t.col * ldr, ldr }
        }
        _ => unreachable!("head task of a cblk is Comp1d or Factor"),
    }
}

impl Routing {
    /// Builds the routing tables: one [`strip_targets`] walk per pivot
    /// blok, the pair counts added up run by run of equal `(sender, dst)`.
    fn build(graph: &TaskGraph, sched: &Schedule) -> Self {
        let sym = &graph.split.symbol;
        let layout = PanelLayout::new(sym);
        let n_tasks = graph.n_tasks();
        let mut pair_count: HashMap<(u32, u32), u32> = HashMap::new();
        let mut remote_pairs = vec![0u32; n_tasks];
        // Consecutive remote pairs of one `(sender, dst)`, not yet counted.
        let mut run = ((0u32, 0u32), 0u32);
        let mut count = |run: &mut ((u32, u32), u32)| {
            if run.1 > 0 {
                *pair_count.entry(run.0).or_insert(0) += run.1;
                remote_pairs[run.0 .1 as usize] += run.1;
                run.1 = 0;
            }
        };
        for (k, cb) in sym.cblks.iter().enumerate() {
            let head = graph.head_task_of_cblk[k];
            let is2d = matches!(graph.kinds[head as usize], TaskKind::Factor { .. });
            let first = cb.blok_start + 1;
            for bc in first..cb.blok_end {
                for (br, t) in (bc..cb.blok_end).zip(strip_targets(sym, &layout, bc, cb.blok_end)) {
                    // A 2D block's pairs are BMOD tasks of their own,
                    // numbered row by row of the lower triangle.
                    let producer = if is2d {
                        let (r, c) = (br - first, bc - first);
                        graph.bmod_base[k] + (r * (r + 1) / 2 + c) as u32
                    } else {
                        head
                    };
                    let dst = route_of(sym, graph, &t).dst;
                    let (p, q) = (sched.task_proc[producer as usize], sched.task_proc[dst as usize]);
                    if p != q {
                        if run.0 != (p, dst) {
                            count(&mut run);
                            run.0 = (p, dst);
                        }
                        run.1 += 1;
                    }
                }
                count(&mut run);
            }
        }
        let region_len: Vec<usize> = (0..n_tasks)
            .map(|t| match graph.kinds[t] {
                TaskKind::Comp1d { cblk } => {
                    layout.panel_rows(cblk as usize) * sym.cblks[cblk as usize].width()
                }
                TaskKind::Factor { cblk } => {
                    let w = sym.cblks[cblk as usize].width();
                    w * w
                }
                TaskKind::Bdiv { cblk, blok } => {
                    sym.bloks[blok as usize].nrows() * sym.cblks[cblk as usize].width()
                }
                TaskKind::Bmod { .. } => 0,
            })
            .collect();
        Routing { layout, remote_pairs, pair_count, region_len }
    }
}

/// Per-worker state.
struct Worker<'a, T> {
    rank: u32,
    sym: &'a SymbolMatrix,
    graph: &'a TaskGraph,
    sched: &'a Schedule,
    routing: &'a Routing,
    /// Owned task regions. BDIV regions hold `[L | F]` (2·h·w scalars).
    regions: HashMap<u32, Vec<T>>,
    /// Remote AUBs still expected per owned task.
    aubs_pending: HashMap<u32, u32>,
    /// Outgoing AUB accumulation buffers: (buffer, pairs remaining,
    /// pairs accumulated since the last flush).
    aub_out: HashMap<u32, (Vec<T>, u32, u32)>,
    /// Fan-Both memory cap: when the outgoing AUB buffers hold more than
    /// this many scalars, the largest one is flushed partially aggregated.
    aub_memory_limit: Option<usize>,
    /// Factor payloads, received from remote producers or copied once from
    /// a finished local region; every consumer reads from here.
    fac_cache: HashMap<u32, Arc<[T]>>,
    /// AUBs already applied, keyed by (sender, sender-sequence): the
    /// duplicate-delivery fault replays a message verbatim, so this set is
    /// what makes AUB application exactly-once.
    seen_aubs: HashSet<(usize, u32)>,
    /// Next sequence number for this worker's outgoing AUBs.
    aub_seq: u32,
    aborted: Option<FactorError>,
    /// Deterministic fault injection (chaos suite only; `Default` is off).
    chaos: ChaosOptions,
    /// Work buffers of the task bodies, reused across this rank's tasks.
    scratch: Scratch<T>,
    /// Run-wide live gauges, sampled and heartbeat-stamped only when
    /// tracing is on.
    gauges: Option<&'a SharedGauges>,
    /// Gauge sampling cadence in completed tasks (0 disables sampling).
    sample_every: u32,
    /// Tasks completed since the last gauge sample.
    since_sample: u32,
    /// Scalars resident in the owned regions (fixed after scatter).
    region_scalars: usize,
    /// Scalars held by the factor-payload cache.
    fac_cache_scalars: usize,
    /// Largest live-bytes reading seen so far on this rank.
    peak_live_bytes: u64,
}

impl<'a, T: Scalar> Worker<'a, T> {
    /// Handles one incoming message.
    fn handle(&mut self, from: usize, msg: PMsg<T>) {
        match msg {
            PMsg::Aub {
                dst,
                seq,
                pairs,
                data,
            } => {
                if !self.seen_aubs.insert((from, seq)) {
                    return; // duplicate delivery
                }
                // Updates commute: apply immediately into the region.
                let region = self.regions.get_mut(&dst).expect("AUB for unowned task");
                for (r, v) in region.iter_mut().zip(&data) {
                    *r += *v;
                }
                let left = self.aubs_pending.get_mut(&dst).expect("unexpected AUB");
                *left -= pairs;
            }
            PMsg::Fac { src, data } => {
                let len = data.len();
                if self.fac_cache.insert(src, data).is_none() {
                    self.fac_cache_scalars += len;
                }
            }
            PMsg::Abort { col } => {
                self.aborted = Some(FactorError::ZeroPivot(col as usize));
            }
        }
    }

    /// Blocks until every remote AUB of task `t` has been applied.
    fn wait_aubs<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, t: u32) -> Result<(), FactorError> {
        while self.aborted.is_none() && self.aubs_pending.get(&t).copied().unwrap_or(0) > 0 {
            let env = ctx.recv();
            self.handle(env.from, env.msg);
        }
        match self.aborted {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Obtains factor data produced by task `src` from the cache, draining
    /// the mailbox until a remote producer's payload arrives (a local
    /// producer ran earlier in `K_p` and is cached already).
    fn take_fac<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, src: u32) -> Result<Arc<[T]>, FactorError> {
        loop {
            if let Some(data) = self.fac_cache.get(&src) {
                return Ok(data.clone());
            }
            if let Some(e) = self.aborted {
                return Err(e);
            }
            let env = ctx.recv();
            self.handle(env.from, env.msg);
        }
    }

    /// Ships one AUB over the faulty path: drops are retried (the
    /// transport reports them), duplicates are filtered by the receiver's
    /// `seen_aubs`; a closed peer means the machine is unwinding (abort or
    /// injected panic) and the message no longer matters.
    fn send_aub<C: Comm<PMsg<T>> + ?Sized>(
        &mut self,
        ctx: &C,
        q: usize,
        dst: u32,
        pairs: u32,
        data: Vec<T>,
    ) {
        let seq = self.aub_seq;
        self.aub_seq += 1;
        let _ = ctx.send_resilient(
            q,
            PMsg::Aub {
                dst,
                seq,
                pairs,
                data,
            },
        );
    }

    /// Sends the largest outgoing AUB buffer with whatever it has
    /// aggregated so far (its pair budget stays open; the buffer is
    /// re-created on the next contribution). Ties go to the lowest `dst`,
    /// so the choice never depends on the map's iteration order.
    fn flush_largest_aub<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C) {
        let Some((&dst, _)) = self
            .aub_out
            .iter()
            .filter(|(_, (_, _, acc))| *acc > 0)
            .max_by_key(|(&dst, (v, _, _))| (v.len(), Reverse(dst)))
        else {
            return;
        };
        let (data, left, pairs) = self.aub_out.remove(&dst).unwrap();
        let q = self.sched.task_proc[dst as usize] as usize;
        self.send_aub(ctx, q, dst, pairs, data);
        if left > 0 {
            // Keep the remaining pair budget with an empty placeholder;
            // the buffer is re-allocated on the next contribution.
            self.aub_out.insert(dst, (Vec::new(), left, 0));
        }
    }

    fn abort<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, col: usize) {
        for q in 0..ctx.n_procs() {
            if q != self.rank as usize {
                // A peer that already exited no longer needs the abort.
                let _ = ctx.send_resilient(q, PMsg::Abort { col: col as u32 });
            }
        }
    }

    /// Publishes the finished factor region of task `t` when it has any
    /// consumer: one copy into the cache, which local consumers read and
    /// every remote consumer processor (deduplicated) is sent.
    fn send_fac<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, t: u32) {
        let consumers = self.graph.out_edges(t as usize);
        if consumers.is_empty() {
            return;
        }
        let data: Arc<[T]> = Arc::from(self.regions[&t].as_slice());
        self.fac_cache_scalars += data.len();
        self.fac_cache.insert(t, data.clone());
        let mut procs: Vec<u32> = consumers
            .iter()
            .map(|&d| self.sched.task_proc[d as usize])
            .filter(|&q| q != self.rank)
            .collect();
        procs.sort_unstable();
        procs.dedup();
        for q in procs {
            // Retried on drop; a closed peer is already unwinding.
            let _ = ctx.send_resilient(q as usize, PMsg::Fac { src: t, data: data.clone() });
        }
    }

    /// Executes the tasks of `K_p` in schedule order.
    fn run<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C) -> Result<(), FactorError> {
        let order: Vec<u32> = self.sched.proc_tasks[self.rank as usize].clone();
        for (idx, t) in order.into_iter().enumerate() {
            if let Some(e) = self.aborted {
                return Err(e);
            }
            if self.chaos.panic_at == Some((self.rank, idx)) {
                panic!(
                    "chaos: injected panic on rank {} at local task index {idx} (task {t})",
                    self.rank
                );
            }
            // The span guard closes on every exit path, including the `?`
            // error returns and the injected chaos panics below it.
            match self.graph.kinds[t as usize] {
                TaskKind::Comp1d { cblk } => {
                    let _span = task_span(t, TaskClass::Comp1d);
                    self.run_comp1d(ctx, t, cblk as usize)?
                }
                TaskKind::Factor { cblk } => {
                    let _span = task_span(t, TaskClass::Factor);
                    self.run_factor(ctx, t, cblk as usize)?
                }
                TaskKind::Bdiv { cblk, blok } => {
                    let _span = task_span(t, TaskClass::Bdiv);
                    self.run_bdiv(ctx, t, cblk as usize, blok as usize)?
                }
                TaskKind::Bmod { cblk, blok_row, blok_col } => {
                    let _span = task_span(t, TaskClass::Bmod);
                    self.run_bmod(ctx, t, cblk as usize, blok_row as usize, blok_col as usize)?
                }
            }
            if let Some(gauges) = self.gauges {
                // Heartbeat: stamp this completion with the run-global
                // count, so gaps in one rank's sequence measure how far
                // the rest of the machine ran while it was stuck.
                let seq = gauges.progress.fetch_add(1, Ordering::Relaxed) + 1;
                heartbeat(seq);
                self.since_sample += 1;
                if self.sample_every > 0 && self.since_sample >= self.sample_every {
                    self.since_sample = 0;
                    self.sample_gauges(gauges);
                }
            }
        }
        Ok(())
    }

    /// Records one reading of every resource gauge onto this rank's trace
    /// track. Runs every `sample_every`-th completed task; everything read
    /// here is either a plain field or a relaxed atomic load, so the cost
    /// stays a small fraction of one task's kernel work.
    fn sample_gauges(&mut self, gauges: &SharedGauges) {
        let elem = std::mem::size_of::<T>() as u64;
        let aub_out_scalars: usize = self.aub_out.values().map(|(v, _, _)| v.len()).sum();
        let live = (self.region_scalars + self.fac_cache_scalars + aub_out_scalars) as u64 * elem;
        self.peak_live_bytes = self.peak_live_bytes.max(live);
        sample_gauge(GaugeId::AubOutBytes, aub_out_scalars as u64 * elem);
        sample_gauge(
            GaugeId::InflightBytes,
            gauges.inflight_bytes.load(Ordering::Relaxed).max(0) as u64,
        );
        sample_gauge(GaugeId::LiveRegionBytes, live);
        sample_gauge(GaugeId::PeakLiveBytes, self.peak_live_bytes);
        sample_gauge(
            GaugeId::MailboxDepth,
            gauges.mailbox_depth[self.rank as usize].load(Ordering::Relaxed).max(0) as u64,
        );
    }

    /// Reports a task body's zero pivot to every peer before unwinding.
    fn abort_on_error<C: Comm<PMsg<T>> + ?Sized, R>(
        &mut self,
        ctx: &C,
        res: Result<R, FactorError>,
    ) -> Result<R, FactorError> {
        if let Err(FactorError::ZeroPivot(col)) = res {
            self.abort(ctx, col);
        }
        res
    }

    fn run_comp1d<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, t: u32, k: usize) -> Result<(), FactorError> {
        self.wait_aubs(ctx, t)?;
        // The panel and the scratch leave the worker for the task, so the
        // sink can mutate the worker freely — including other regions of
        // this very rank — without aliasing either.
        let mut panel = self.regions.remove(&t).expect("comp1d panel missing");
        if self.chaos.zero_pivot_task == Some(t) {
            panel[0] = T::zero();
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let (sym, layout) = (self.sym, &self.routing.layout);
        let mut sink = FanIn { worker: self, ctx };
        let res = tasks::comp1d(sym, layout, k, &mut panel, &mut scratch, &mut sink);
        self.scratch = scratch;
        self.regions.insert(t, panel);
        self.abort_on_error(ctx, res)
    }

    fn run_factor<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, t: u32, k: usize) -> Result<(), FactorError> {
        self.wait_aubs(ctx, t)?;
        let cb = &self.sym.cblks[k];
        let w = cb.width();
        let region = self.regions.get_mut(&t).expect("factor region missing");
        if self.chaos.zero_pivot_task == Some(t) {
            region[0] = T::zero();
        }
        let res = tasks::factor_diag(w, region, w, cb.fcol as usize, &mut self.scratch);
        self.abort_on_error(ctx, res)?;
        self.send_fac(ctx, t);
        Ok(())
    }

    fn run_bdiv<C: Comm<PMsg<T>> + ?Sized>(&mut self, ctx: &C, t: u32, k: usize, blok: usize) -> Result<(), FactorError> {
        self.wait_aubs(ctx, t)?;
        let w = self.sym.cblks[k].width();
        let hb = self.sym.bloks[blok].nrows();
        let factor_task = self.graph.head_task_of_cblk[k];
        let fac = self.take_fac(ctx, factor_task)?; // w×w, D on diag, L lower
        self.scratch.load_diag(w, &fac, w);
        let region = self.regions.get_mut(&t).expect("bdiv region missing");
        debug_assert_eq!(region.len(), 2 * hb * w);
        let (l_part, f_part) = region.split_at_mut(hb * w);
        tasks::bdiv(hb, w, &self.scratch, l_part, hb, f_part);
        self.send_fac(ctx, t);
        Ok(())
    }

    fn run_bmod<C: Comm<PMsg<T>> + ?Sized>(
        &mut self,
        ctx: &C,
        _t: u32,
        k: usize,
        blok_row: usize,
        blok_col: usize,
    ) -> Result<(), FactorError> {
        let w = self.sym.cblks[k].width();
        let hr = self.sym.bloks[blok_row].nrows();
        let hc = self.sym.bloks[blok_col].nrows();
        let bdiv_r = self.graph.bdiv_task_of_blok[blok_row];
        let bdiv_c = self.graph.bdiv_task_of_blok[blok_col];
        // L from the row block's BDIV, F from the column block's BDIV.
        // Both payloads are shared cache entries held outside the worker,
        // so the contribution can mutate the worker freely.
        let l_r = self.take_fac(ctx, bdiv_r)?;
        let f_c = self.take_fac(ctx, bdiv_c)?;
        FanIn { worker: self, ctx }.pair(blok_row, blok_col, hr, hc, w, &l_r[..hr * w], hr, &f_c[hc * w..], hc);
        Ok(())
    }
}

/// The static driver's contribution sink, the fan-in scheme itself: a
/// target region this rank owns is updated in place; a remote one
/// accumulates in its outgoing AUB, which is sent when its last local
/// pair lands ("total local aggregation").
struct FanIn<'w, 'a, T, C: ?Sized> {
    worker: &'w mut Worker<'a, T>,
    ctx: &'w C,
}

impl<T: Scalar, C: Comm<PMsg<T>> + ?Sized> FanIn<'_, '_, T, C> {
    /// Runs `fill` on the region of task `dst`: in place when this rank
    /// owns it, otherwise on this rank's outgoing AUB for it, which then
    /// counts the pairs `fill` says it added and is sent once complete.
    fn contribute(&mut self, dst: u32, fill: impl FnOnce(&mut [T]) -> u32) {
        let wk = &mut *self.worker;
        let q = wk.sched.task_proc[dst as usize];
        if q == wk.rank {
            fill(wk.regions.get_mut(&dst).expect("local target region missing"));
            return;
        }
        if wk.aub_out.get(&dst).is_none_or(|(buf, _, _)| buf.is_empty()) {
            // (Re-)acquire lazily: a Fan-Both flush leaves an empty
            // placeholder holding the remaining pair budget.
            let buf = vec![T::zero(); wk.routing.region_len[dst as usize]];
            let total = wk.routing.pair_count[&(wk.rank, dst)];
            wk.aub_out.entry(dst).or_insert_with(|| (Vec::new(), total, 0u32)).0 = buf;
        }
        let entry = wk.aub_out.get_mut(&dst).expect("AUB entry just ensured");
        let pairs = fill(&mut entry.0);
        entry.1 -= pairs;
        entry.2 += pairs;
        if entry.1 == 0 {
            // Total local aggregation complete: ship the AUB.
            let (data, _, pairs) = wk.aub_out.remove(&dst).unwrap();
            wk.send_aub(self.ctx, q as usize, dst, pairs, data);
        } else if let Some(limit) = wk.aub_memory_limit {
            // Fan-Both fallback: "an aggregated update block can be
            // sent with partial aggregation to free memory space".
            let held: usize = wk.aub_out.values().map(|(v, _, _)| v.len()).sum();
            if held > limit {
                wk.flush_largest_aub(self.ctx);
            }
        }
    }
}

impl<T: Scalar, C: Comm<PMsg<T>> + ?Sized> ContribSink<T> for FanIn<'_, '_, T, C> {
    fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize)) {
        let wk = &*self.worker;
        let route = route_of(wk.sym, wk.graph, &pair_target(wk.sym, &wk.routing.layout, br, bc));
        self.contribute(route.dst, |region| {
            apply(&mut region[route.off..], route.ldr);
            1
        });
    }

    fn with_strip(&mut self, bc: usize, end: usize, offs: &mut Vec<usize>, mut apply: impl StretchFn<T>) {
        let (sym, graph, routing) = (self.worker.sym, self.worker.graph, self.worker.routing);
        let head = graph.head_task_of_cblk[sym.bloks[bc].fcblk as usize];
        let per_blok = matches!(graph.kinds[head as usize], TaskKind::Factor { .. });
        // One region per stretch of row blocks that land in the same task:
        // the whole strip for a 1D target, a covering blok of a 2D one.
        // Rows of one region are as far apart as in the panel.
        strip_stretches(sym, &routing.layout, bc, end, per_blok, offs, |br0, offs, first| {
            let route = route_of(sym, graph, first);
            self.contribute(route.dst, |region| apply(br0, offs, &mut region[route.off..], route.ldr));
        });
    }
}

/// Deterministic solver-level fault injection, used by the chaos suite to
/// exercise the abort and panic-unwind paths at a chosen point. All fields
/// default to "no fault".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Panic on `(rank, local task index)` just before executing that
    /// entry of the rank's schedule — models a crashed processor. On the
    /// DAG executor (`Threads`, `Dynamic`) it is `(worker, index among
    /// the tasks that worker ran)`; in the static order worker `p` is the
    /// one whose queue holds `K_p`.
    pub panic_at: Option<(u32, usize)>,
    /// Zero the leading pivot of this task's region right before its
    /// factorization kernel (the task must be a COMP1D or FACTOR), forcing
    /// the zero-pivot abort protocol deterministically.
    pub zero_pivot_task: Option<u32>,
}

/// The fan-in factorization on the deterministic simulator, one rank per
/// logical processor of the schedule, interleaved and faulted by `faults`;
/// returns the assembled factor with the run's [`TraceLog`]. Called by
/// [`crate::Plan::factorize`] for `Backend::Sim`.
pub(crate) fn factorize_static<T: Scalar>(
    sym: &SymbolMatrix,
    a: Entries<'_, T>,
    graph: &TaskGraph,
    sched: &Schedule,
    faults: &FaultPlan,
    cfg: &SolverConfig,
) -> Result<(FactorStorage<T>, TraceLog), FactorError> {
    assert!(std::ptr::eq(sym, &graph.split.symbol) || sym == &graph.split.symbol,
        "schedule must be built on the same split symbol");
    // All ranks must share one epoch so the report can compare their wall
    // timestamps; resolve it once, right before the SPMD launch.
    let mut topts = cfg.trace;
    if topts.enabled && topts.epoch.is_none() {
        topts.epoch = Some(Instant::now());
    }
    let routing = Routing::build(graph, sched);
    let gauges = SharedGauges::new(sched.n_procs);
    let t0 = Instant::now();
    let outputs = run_sim_spmd::<PMsg<T>, WorkerOutput<T>, _>(sched.n_procs, faults, |ctx| {
        worker_run(&ctx, sym, graph, sched, &routing, a, cfg, &topts, &gauges)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut results = Vec::with_capacity(outputs.len());
    let mut ranks = Vec::new();
    for (rank, out) in outputs.into_iter().enumerate() {
        merge_comp1d_ns(&cfg.metrics, rank as u32, &out.comp1d);
        if let Some(rt) = out.trace {
            ranks.push(rt);
        }
        results.push(out.result);
    }
    let trace = TraceLog {
        ranks,
        wall_ns,
        digest: sched.digest(),
    };
    merge_trace_metrics(&cfg.metrics, &trace);
    Ok((assemble(sym, routing.layout, graph, results)?, trace))
}

/// What one logical processor hands back: its factor regions (or the
/// error), its recorded trace (when tracing was on), and its COMP1D stage
/// timers (zero unless traced on the wall clock).
struct WorkerOutput<T> {
    result: Result<HashMap<u32, Vec<T>>, FactorError>,
    trace: Option<RankTrace>,
    comp1d: Comp1dNs,
}

/// The SPMD body executed by one logical processor.
#[allow(clippy::too_many_arguments)]
fn worker_run<T: Scalar>(
    ctx: &SimCtx<PMsg<T>>,
    sym: &SymbolMatrix,
    graph: &TaskGraph,
    sched: &Schedule,
    routing: &Routing,
    a: Entries<'_, T>,
    cfg: &SolverConfig,
    topts: &TraceOptions,
    gauges: &SharedGauges,
) -> WorkerOutput<T> {
    let rank = ctx.rank() as u32;
    // The simulator runs each logical processor on its own OS thread, so a
    // thread-local session captures exactly this rank's activity.
    let session = pastix_trace::begin_rank(ctx.rank(), topts);
    let own = &sched.proc_tasks[rank as usize];
    // The owned regions, zeroed; a BDIV region holds `[L | F]`.
    let mut regions: HashMap<u32, Vec<T>> = own
        .iter()
        .filter_map(|&t| {
            let len = match graph.kinds[t as usize] {
                TaskKind::Bdiv { .. } => 2 * routing.region_len[t as usize],
                _ => routing.region_len[t as usize],
            };
            (len > 0).then(|| (t, vec![T::zero(); len]))
        })
        .collect();
    let aubs_pending: HashMap<u32, u32> = own
        .iter()
        .map(|&t| (t, routing.remote_pairs[t as usize]))
        .filter(|&(_, pairs)| pairs > 0)
        .collect();
    {
        let _span = task_span(rank, TaskClass::Scatter);
        scatter_owned(sym, &routing.layout, graph, a, &mut regions);
    }
    let region_scalars: usize = regions.values().map(|v| v.len()).sum();
    let mut worker = Worker {
        rank,
        sym,
        graph,
        sched,
        routing,
        regions,
        aubs_pending,
        aub_out: HashMap::new(),
        aub_memory_limit: cfg.aub_memory_limit,
        fac_cache: HashMap::new(),
        seen_aubs: HashSet::new(),
        aub_seq: 0,
        aborted: None,
        chaos: cfg.chaos,
        scratch: Scratch::for_run(topts),
        gauges: topts.enabled.then_some(gauges),
        sample_every: topts.sample_every,
        since_sample: 0,
        region_scalars,
        fac_cache_scalars: 0,
        peak_live_bytes: 0,
    };
    let hook = (SessionHook, GaugeHook { rank: ctx.rank(), gauges });
    let run_result = worker.run(&Instrumented::new(ctx, hook, pmsg_meta::<T>));
    // The fan-in protocol's books balance: every outgoing AUB spent its
    // pair budget to exactly zero (and left), every awaited pair arrived.
    debug_assert!(
        run_result.is_err()
            || (worker.aub_out.is_empty() && worker.aubs_pending.values().all(|&left| left == 0)),
        "rank {rank}: AUB pair counters did not reach zero"
    );
    WorkerOutput {
        result: run_result.map(|()| worker.regions),
        trace: session.finish(),
        comp1d: worker.scratch.stages.ns,
    }
}

/// Builds the factor store out of the per-processor region maps. A COMP1D
/// region *is* its panel and moves in; only the FACTOR and BDIV regions of
/// 2D column blocks are copied, into panels allocated here.
fn assemble<T: Scalar>(
    sym: &SymbolMatrix,
    layout: PanelLayout,
    graph: &TaskGraph,
    results: Vec<Result<HashMap<u32, Vec<T>>, FactorError>>,
) -> Result<FactorStorage<T>, FactorError> {
    let mut panels: Vec<Vec<T>> = vec![Vec::new(); sym.n_cblks()];
    let panel_2d = |panels: &mut Vec<Vec<T>>, k: usize| {
        if panels[k].is_empty() {
            panels[k] = vec![T::zero(); layout.panel_rows(k) * sym.cblks[k].width()];
        }
    };
    for res in results {
        for (t, data) in res? {
            match graph.kinds[t as usize] {
                TaskKind::Comp1d { cblk } => panels[cblk as usize] = data,
                TaskKind::Factor { cblk } => {
                    let k = cblk as usize;
                    let w = sym.cblks[k].width();
                    panel_2d(&mut panels, k);
                    copy_panel(w, w, &data, w, &mut panels[k], layout.panel_rows(k));
                }
                TaskKind::Bdiv { cblk, blok } => {
                    let k = cblk as usize;
                    let hb = sym.bloks[blok as usize].nrows();
                    let prow = layout.panel_row[blok as usize] as usize;
                    panel_2d(&mut panels, k);
                    // The region is `[L | F]`; the factor keeps `L`.
                    copy_panel(hb, sym.cblks[k].width(), &data, hb, &mut panels[k][prow..], layout.panel_rows(k));
                }
                TaskKind::Bmod { .. } => {}
            }
        }
    }
    Ok(FactorStorage::dense(layout, panels))
}

/// Scatters the owned part of `a` into each owned region. A COMP1D region
/// is the block's panel; in a 2D block the sorted rows of a column walk the
/// bloks with a cursor and the region is looked up when the blok changes.
fn scatter_owned<T: Scalar>(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    graph: &TaskGraph,
    a: Entries<'_, T>,
    regions: &mut HashMap<u32, Vec<T>>,
) {
    for (k, cb) in sym.cblks.iter().enumerate() {
        let head = graph.head_task_of_cblk[k];
        if let TaskKind::Comp1d { .. } = graph.kinds[head as usize] {
            if let Some(panel) = regions.get_mut(&head) {
                scatter_cblk(sym, layout, k, a, panel);
            }
            continue;
        }
        for j in cb.fcol as usize..=cb.lcol as usize {
            let local_col = j - cb.fcol as usize;
            let mut cursor = BlokCursor::new(sym, k);
            // The blok of the previous entry and its region, if owned.
            let mut held: (usize, Option<&mut Vec<T>>) = (usize::MAX, None);
            let mut prev = None;
            for (i, v) in a.column(j) {
                let (b, row_in_blok) = cursor.seek(i);
                // Diagonal blok → FACTOR region, else the blok's BDIV
                // region (its `L` part comes first).
                let diagonal = b == cb.blok_start;
                if held.0 != b {
                    let t = if diagonal { head } else { graph.bdiv_task_of_blok[b] };
                    held = (b, regions.get_mut(&t));
                }
                if let Some(region) = &mut held.1 {
                    let ld = if diagonal { cb.width() } else { sym.bloks[b].nrows() };
                    put(&mut region[row_in_blok + local_col * ld], v, prev == Some(i));
                }
                prev = Some(i);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::seq::{factorize_sequential, solve_in_place};
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_graph::{canonical_solution, rhs_for_solution};
    use pastix_machine::MachineModel;
    use pastix_ordering::{nested_dissection, OrderingOptions};
    use pastix_sched::{map_and_schedule, DistStrategy, MappingOptions, SchedOptions};
    use pastix_symbolic::{analyze, AnalysisOptions};

    /// Grid problem → permuted matrix + mapping; shared by the unit tests
    /// of every factorization driver and of the task bodies.
    pub(crate) fn full_setup(
        nx: usize,
        ny: usize,
        nz: usize,
        procs: usize,
        strategy: DistStrategy,
        block: usize,
    ) -> (pastix_graph::SymCsc<f64>, pastix_sched::Mapping) {
        let a = grid_spd::<f64>(nx, ny, nz, Stencil::Star, false, ValueKind::RandomSpd(21));
        let g = a.to_graph();
        let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 8, ..Default::default() });
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        let machine = MachineModel::sp2(procs);
        let opts = SchedOptions {
            block_size: block,
            mapping: MappingOptions {
                procs_2d_min: 2.0,
                width_2d_min: 4,
                strategy,
            },
            ..Default::default()
        };
        let mapping = map_and_schedule(&an.symbol, &machine, &opts);
        (a.permuted(&an.perm), mapping)
    }

    /// The fan-in on a seeded simulator run (one fixed interleaving).
    fn factorize(
        ap: &pastix_graph::SymCsc<f64>,
        mapping: &pastix_sched::Mapping,
        cfg: &SolverConfig,
    ) -> Result<FactorStorage<f64>, FactorError> {
        let (graph, sched) = (&mapping.graph, &mapping.schedule);
        let faults = FaultPlan::interleave_only(21);
        factorize_static(&graph.split.symbol, Entries::of(ap), graph, sched, &faults, cfg).map(|(storage, _)| storage)
    }

    fn check_against_sequential(ap: &pastix_graph::SymCsc<f64>, mapping: &pastix_sched::Mapping) {
        let sym = &mapping.graph.split.symbol;
        let par = factorize(ap, mapping, &SolverConfig::default()).unwrap();
        let mut seq = FactorStorage::zeros(sym);
        seq.scatter(sym, ap);
        factorize_sequential(sym, &mut seq).unwrap();
        let n = ap.n();
        for j in 0..n {
            for i in j..n {
                let a = seq.get(sym, i, j);
                let b = par.get(sym, i, j);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "factor mismatch at ({i},{j}): seq {a} vs par {b}"
                );
            }
        }
        // And the factor actually solves the system.
        let x_exact = canonical_solution::<f64>(n);
        let b = rhs_for_solution(ap, &x_exact);
        let mut x = b.clone();
        solve_in_place(sym, &par, &mut x);
        let res = ap.residual_norm(&x, &b);
        assert!(res < 1e-12, "residual {res}");
    }

    #[test]
    fn parallel_matches_sequential_1d() {
        for procs in [1, 2, 4] {
            let (ap, mapping) = full_setup(8, 8, 1, procs, DistStrategy::Only1d, 4);
            check_against_sequential(&ap, &mapping);
        }
    }

    #[test]
    fn parallel_matches_sequential_mixed() {
        for procs in [2, 4, 8] {
            let (ap, mapping) = full_setup(10, 10, 1, procs, DistStrategy::Mixed1d2d, 4);
            check_against_sequential(&ap, &mapping);
        }
    }

    #[test]
    fn parallel_3d_problem() {
        let (ap, mapping) = full_setup(4, 4, 4, 4, DistStrategy::Mixed1d2d, 4);
        check_against_sequential(&ap, &mapping);
    }

    #[test]
    fn fan_both_memory_cap_still_correct() {
        // A punishing cap forces partially aggregated sends on every
        // processor; the factor must not change, only the message count.
        let (ap, mapping) = full_setup(10, 10, 1, 4, DistStrategy::Mixed1d2d, 4);
        let fanin = factorize(&ap, &mapping, &SolverConfig::default()).unwrap();
        let fanboth =
            factorize(&ap, &mapping, &SolverConfig::new().with_aub_memory_limit(Some(16))).unwrap();
        for (pa, pb) in fanin.panels.iter().zip(&fanboth.panels) {
            for (x, y) in pa.iter().zip(pb) {
                assert!((x - y).abs() < 1e-9, "fan-both deviates: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_pivot_aborts_cleanly() {
        let (ap, mapping) = full_setup(6, 6, 1, 2, DistStrategy::Only1d, 4);
        // Zero out the matrix (same pattern): the very first pivot dies.
        let n = ap.n();
        let mut triplets = Vec::new();
        for j in 0..n {
            for &i in ap.rows_of(j) {
                triplets.push((i, j as u32, 0.0));
            }
        }
        let zero = pastix_graph::SymCsc::from_triplets(n, &triplets);
        assert!(factorize(&zero, &mapping, &SolverConfig::default()).is_err());
    }
}
