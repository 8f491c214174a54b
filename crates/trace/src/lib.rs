//! # pastix-trace
//!
//! The observability layer of the reproduction: per-rank event rings, a
//! typed metrics registry, and the post-run report that joins a recorded
//! trace against the static schedule's predictions.
//!
//! The paper's whole bet is that a *static* schedule built from a cost
//! model matches what actually happens at run time. This crate makes that
//! claim observable:
//!
//! * [`begin_rank`] installs a **thread-local recorder** on the calling
//!   worker thread (both runtime backends give every logical processor its
//!   own OS thread, so thread-locality *is* rank-locality). Recording a
//!   span or a message event is a thread-local ring push — no locks, no
//!   atomics, no allocation after session start.
//! * [`task_span`] emits `TaskBegin`/`TaskEnd` pairs keyed by task id;
//!   [`SessionHook`] implements the runtime's `CommHook` so every
//!   send/recv/drop on an instrumented [`pastix_runtime::Comm`] lands in
//!   the ring with byte counts.
//! * [`ClockMode::Logical`] replaces wall timestamps with a per-rank event
//!   counter, making the whole trace a **pure function of the sim
//!   backend's `(seed, policy)`** — chaos failures come with a replayable,
//!   byte-comparable event log ([`TraceLog::canonical_bytes`]).
//! * [`MetricsRegistry`] is the typed counters/gauges/histograms store
//!   (per-rank shards merged at run end) that replaces the ad-hoc global
//!   atomics the solver used to keep.
//! * [`report::build_report`] joins the trace with the schedule:
//!   per-task predicted-vs-measured time, critical-path breakdown, and
//!   idle/comm/compute fractions per rank.

#![warn(missing_docs)]

pub mod export;
pub mod expose;
pub mod flight;
pub mod metrics;
pub mod report;
pub mod watchdog;

pub use metrics::{MetricsRegistry, MetricsSnapshot};

use std::time::Instant;

/// Reserved rank id of the serving layer's own track in a merged
/// request trace: the request/stage async spans live here, next to the
/// per-rank solve tracks they fan into. Exported as the `serve` thread.
pub const SERVE_RANK: u32 = u32::MAX;

/// The request-scoped span vocabulary of the serving layer: the stages a
/// request passes through between queue admission and completion. Each is
/// recorded as an async span ([`EventKind::AsyncBegin`]/[`EventKind::AsyncEnd`])
/// keyed by the request id, so one request's spans nest into one async
/// track in the Chrome/Perfetto export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ServeStage {
    /// The whole request: admission to completion (the parent span).
    Request = 0,
    /// Admission to batch dispatch: time spent queued.
    QueueWait = 1,
    /// Panel packing: the request is coalesced into a multi-RHS batch.
    Coalesce = 2,
    /// Analyze pipeline ran for this request's matrix (cache miss).
    Analyze = 3,
    /// Numeric factorization ran for this request's matrix (cache miss);
    /// its cost is amortized over every request that hits the entry.
    Factorize = 4,
    /// The triangular panel solve that produced this request's solution.
    Solve = 5,
}

impl ServeStage {
    /// Stable span name (export JSON, histogram keys).
    pub fn name(self) -> &'static str {
        match self {
            ServeStage::Request => "request",
            ServeStage::QueueWait => "queue_wait",
            ServeStage::Coalesce => "coalesce",
            ServeStage::Analyze => "analyze",
            ServeStage::Factorize => "factorize",
            ServeStage::Solve => "solve",
        }
    }

    /// Recovers the span name from a recorded raw stage id.
    pub fn name_of(stage: u8) -> &'static str {
        match stage {
            0 => ServeStage::Request.name(),
            1 => ServeStage::QueueWait.name(),
            2 => ServeStage::Coalesce.name(),
            3 => ServeStage::Analyze.name(),
            4 => ServeStage::Factorize.name(),
            5 => ServeStage::Solve.name(),
            _ => "stage_unknown",
        }
    }
}

/// What a task span was executing; mirrors the schedule's task kinds plus
/// the solver phases that have no task-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskClass {
    /// A 1D `COMP1D` supernode task.
    Comp1d = 0,
    /// A 2D diagonal-block factorization task.
    Factor = 1,
    /// A 2D off-diagonal panel solve task.
    Bdiv = 2,
    /// A 2D contribution product task.
    Bmod = 3,
    /// Forward-sweep solve of one column block.
    FwdSolve = 4,
    /// Backward-sweep solve of one column block.
    BwdSolve = 5,
    /// Initial scatter of the matrix into the owned regions.
    Scatter = 6,
    /// A sequential-solver step (task id = column block).
    Seq = 7,
    /// The analyze phase's fill-reducing ordering (nested dissection +
    /// leaf min degree); task id 0, one span per analyze.
    Ordering = 8,
    /// The analyze phase's block symbolic factorization.
    Symbolic = 9,
    /// The analyze phase's repartitioning + static scheduling.
    Sched = 10,
}

impl TaskClass {
    /// Stable short name (report tables, JSON).
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Comp1d => "comp1d",
            TaskClass::Factor => "factor",
            TaskClass::Bdiv => "bdiv",
            TaskClass::Bmod => "bmod",
            TaskClass::FwdSolve => "fwd",
            TaskClass::BwdSolve => "bwd",
            TaskClass::Scatter => "scatter",
            TaskClass::Seq => "seq",
            TaskClass::Ordering => "ordering",
            TaskClass::Symbolic => "symbolic",
            TaskClass::Sched => "sched",
        }
    }

    /// Whether this class is an analyze-phase span (no task-graph node).
    pub fn is_analyze(self) -> bool {
        matches!(self, TaskClass::Ordering | TaskClass::Symbolic | TaskClass::Sched)
    }
}

/// One recorded event. `at` is nanoseconds since the session epoch under
/// [`ClockMode::Wall`], or a per-rank monotone event counter under
/// [`ClockMode::Logical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp (see [`ClockMode`]).
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task started executing on this rank.
    TaskBegin {
        /// Task id (task-graph id, or column block for solve/seq spans).
        task: u32,
        /// Task class.
        class: TaskClass,
    },
    /// The matching end of a [`EventKind::TaskBegin`].
    TaskEnd {
        /// Task id.
        task: u32,
        /// Task class.
        class: TaskClass,
    },
    /// A message was accepted by the transport.
    Send {
        /// Destination rank.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
        /// Message kind tag (solver-defined).
        kind: u8,
    },
    /// A lossy send was dropped by fault injection (the retry, if any,
    /// records its own `Send`).
    SendDropped {
        /// Destination rank.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
        /// Message kind tag.
        kind: u8,
    },
    /// A message was received.
    Recv {
        /// Sender rank.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
        /// Message kind tag.
        kind: u8,
        /// Time spent blocked in `recv()` (0 under the logical clock).
        wait_ns: u64,
    },
    /// A phase fence: session begin or end.
    Fence {
        /// Phase id: session begin emits 0 and session end `u64::MAX`.
        phase: u64,
    },
    /// A sampled resource gauge reading (time-series counter track).
    Gauge {
        /// Which gauge (see [`GaugeId`]).
        id: u8,
        /// The sampled value.
        value: u64,
    },
    /// A progress heartbeat: `seq` is the run-global count of completed
    /// tasks at the moment this rank finished one. Gaps in one rank's
    /// heartbeat sequence measure how much the *rest* of the machine
    /// advanced while that rank was stuck — the watchdog's signal.
    Heartbeat {
        /// Global completed-task count after this rank's completion.
        seq: u64,
    },
    /// Begin of a request-scoped async span (`ph:"b"` in the export):
    /// spans with the same `id` form one async track, so the `Request`
    /// parent and its stage children nest under the request's identity.
    AsyncBegin {
        /// Request id (the [`ServeStage::Request`] span and every stage
        /// child of the same request share it).
        id: u64,
        /// Which stage (a [`ServeStage`] as its raw `u8`).
        stage: u8,
    },
    /// The matching end of an [`EventKind::AsyncBegin`].
    AsyncEnd {
        /// Request id.
        id: u64,
        /// Which stage.
        stage: u8,
    },
    /// Start of a recorded flow arrow (`ph:"s"`): the serving layer emits
    /// one per (batch, solve rank) when it hands a coalesced panel to the
    /// solver, pointing into that rank's solve activity.
    FlowStart {
        /// Arrow id; exactly one [`EventKind::FlowEnd`] with the same id
        /// exists in a well-formed log.
        id: u64,
    },
    /// End of a recorded flow arrow (`ph:"f"`), recorded on the track the
    /// arrow lands on.
    FlowEnd {
        /// Arrow id.
        id: u64,
    },
}

impl EventKind {
    fn tag(&self) -> u8 {
        match self {
            EventKind::TaskBegin { .. } => 0,
            EventKind::TaskEnd { .. } => 1,
            EventKind::Send { .. } => 2,
            EventKind::SendDropped { .. } => 3,
            EventKind::Recv { .. } => 4,
            EventKind::Fence { .. } => 5,
            EventKind::Gauge { .. } => 6,
            EventKind::Heartbeat { .. } => 7,
            EventKind::AsyncBegin { .. } => 8,
            EventKind::AsyncEnd { .. } => 9,
            EventKind::FlowStart { .. } => 10,
            EventKind::FlowEnd { .. } => 11,
        }
    }
}

/// The resource-gauge vocabulary: stable ids (and track names) for the
/// sampled time-series the solver records alongside task spans. Ids are
/// never reused (0 is free), so a recorded id keeps its meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GaugeId {
    /// Bytes held in the rank's outgoing AUBs still aggregating.
    AubOutBytes = 1,
    /// Payload bytes sent and not yet received, run-wide (every rank's
    /// traffic, not only the sampling rank's).
    InflightBytes = 2,
    /// Bytes the rank holds live: its owned block regions, its cached
    /// factor payloads and its outgoing AUBs.
    LiveRegionBytes = 3,
    /// Peak of [`GaugeId::LiveRegionBytes`] over the run so far.
    PeakLiveBytes = 4,
    /// Messages queued in this rank's mailbox (sent to it, not yet
    /// received), from the run-wide gauge aggregator.
    MailboxDepth = 5,
    /// Ready-task queue depth of the worker, sampled by the dynamic
    /// work-stealing backend after each pop.
    ReadyQueueDepth = 6,
}

impl GaugeId {
    /// Stable track name (export JSON, report tables).
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::AubOutBytes => "aub_out_bytes",
            GaugeId::InflightBytes => "inflight_bytes",
            GaugeId::LiveRegionBytes => "live_region_bytes",
            GaugeId::PeakLiveBytes => "peak_live_bytes",
            GaugeId::MailboxDepth => "mailbox_depth",
            GaugeId::ReadyQueueDepth => "ready_queue_depth",
        }
    }

    /// Recovers the track name from a recorded raw id.
    pub fn name_of(id: u8) -> &'static str {
        match id {
            1 => GaugeId::AubOutBytes.name(),
            2 => GaugeId::InflightBytes.name(),
            3 => GaugeId::LiveRegionBytes.name(),
            4 => GaugeId::PeakLiveBytes.name(),
            5 => GaugeId::MailboxDepth.name(),
            6 => GaugeId::ReadyQueueDepth.name(),
            _ => "gauge_unknown",
        }
    }
}

/// Timestamp source of a trace session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Monotonic wall clock (nanoseconds since the session epoch): what
    /// the predicted-vs-measured report needs.
    #[default]
    Wall,
    /// A per-rank event counter; recv wait times are recorded as 0. On the
    /// sim backend this makes the whole trace a pure function of
    /// `(seed, policy)` — byte-identical across repeats.
    Logical,
}

/// Tracing knobs, carried by the solver's `SolverConfig`.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Master switch; `false` (default) records nothing and adds only a
    /// thread-local `None` check per record site.
    pub enabled: bool,
    /// Timestamp source.
    pub clock: ClockMode,
    /// Shared epoch for [`ClockMode::Wall`] timestamps, so ranks agree on
    /// time zero. The solver sets this right before launching the SPMD
    /// run; `None` makes each rank use its session start.
    pub epoch: Option<Instant>,
    /// Resource-gauge sampling cadence: the solver samples its gauges
    /// after every `sample_every`-th completed task per rank (0 disables
    /// sampling). The default of 8 keeps the sampler's cost a fraction of
    /// a task's work, preserving the < 2% overhead gate.
    pub sample_every: u32,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            enabled: false,
            clock: ClockMode::Wall,
            epoch: None,
            sample_every: 8,
        }
    }
}

impl TraceOptions {
    /// Tracing off (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Wall-clock tracing: what `bench_trace` and the report use.
    pub fn wall() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Deterministic tracing (logical clock): on the sim backend the
    /// resulting [`TraceLog`] is a pure function of `(seed, policy)`.
    pub fn deterministic() -> Self {
        Self {
            enabled: true,
            clock: ClockMode::Logical,
            ..Self::default()
        }
    }
}

/// Per-rank ring capacity in events of a recording session; when full the
/// oldest events are overwritten and counted in
/// [`RankTrace::dropped_events`].
const RING_CAPACITY: usize = 1 << 16;

/// Fixed-capacity event ring: pushes are O(1) and never allocate after
/// construction; overflow overwrites the oldest events and counts them.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl EventRing {
    /// An empty ring holding up to `cap` events (min 8).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(8);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning retained events oldest-first.
    pub fn into_events(mut self) -> Vec<Event> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// Message-level counters a session accumulates alongside the ring (these
/// survive ring overflow, so the metrics invariants hold even when the
/// event log is truncated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Messages accepted by the transport.
    pub sends: u64,
    /// Lossy sends dropped by fault injection.
    pub send_drops: u64,
    /// Messages received.
    pub recvs: u64,
    /// Bytes accepted by the transport.
    pub send_bytes: u64,
    /// Bytes received.
    pub recv_bytes: u64,
}

impl CommCounters {
    /// Folds another rank-segment's counters in (used when merging
    /// per-batch traces onto one long-lived track).
    pub fn merge(&mut self, other: &CommCounters) {
        self.sends += other.sends;
        self.send_drops += other.send_drops;
        self.recvs += other.recvs;
        self.send_bytes += other.send_bytes;
        self.recv_bytes += other.recv_bytes;
    }
}

/// Everything one rank recorded: its events (oldest first), overflow
/// count, and the message counters.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// The rank that recorded this.
    pub rank: u32,
    /// Events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped_events: u64,
    /// Transport-level counters (overflow-proof).
    pub comm: CommCounters,
}

/// A whole run's trace: one [`RankTrace`] per rank plus run-level context.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Per-rank traces, rank order.
    pub ranks: Vec<RankTrace>,
    /// Wall time of the SPMD run in nanoseconds (0 when unknown).
    pub wall_ns: u64,
    /// `Schedule::digest()` of the schedule that drove the run (0 when not
    /// applicable) — together with the sim backend's `(seed, policy)` this
    /// is the replay key.
    pub digest: u64,
}

impl TraceLog {
    /// Total retained events across ranks.
    pub fn event_count(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Sums the per-rank message counters.
    pub fn comm_totals(&self) -> CommCounters {
        let mut t = CommCounters::default();
        for r in &self.ranks {
            t.sends += r.comm.sends;
            t.send_drops += r.comm.send_drops;
            t.recvs += r.comm.recvs;
            t.send_bytes += r.comm.send_bytes;
            t.recv_bytes += r.comm.recv_bytes;
        }
        t
    }

    /// Canonical byte serialization of every event, rank by rank: two
    /// logical-clock traces of the same `(seed, policy, digest)` must
    /// compare byte-identical. (`wall_ns` is deliberately excluded — it is
    /// host timing, not execution structure.)
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.event_count() * 24);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&(self.ranks.len() as u64).to_le_bytes());
        for r in &self.ranks {
            out.extend_from_slice(&r.rank.to_le_bytes());
            out.extend_from_slice(&(r.events.len() as u64).to_le_bytes());
            out.extend_from_slice(&r.dropped_events.to_le_bytes());
            for c in [r.comm.sends, r.comm.send_drops, r.comm.recvs, r.comm.send_bytes, r.comm.recv_bytes] {
                out.extend_from_slice(&c.to_le_bytes());
            }
            for ev in &r.events {
                out.extend_from_slice(&ev.at.to_le_bytes());
                out.push(ev.kind.tag());
                match ev.kind {
                    EventKind::TaskBegin { task, class } | EventKind::TaskEnd { task, class } => {
                        out.extend_from_slice(&task.to_le_bytes());
                        out.push(class as u8);
                    }
                    EventKind::Send { peer, bytes, kind }
                    | EventKind::SendDropped { peer, bytes, kind } => {
                        out.extend_from_slice(&peer.to_le_bytes());
                        out.extend_from_slice(&bytes.to_le_bytes());
                        out.push(kind);
                    }
                    EventKind::Recv { peer, bytes, kind, wait_ns } => {
                        out.extend_from_slice(&peer.to_le_bytes());
                        out.extend_from_slice(&bytes.to_le_bytes());
                        out.push(kind);
                        out.extend_from_slice(&wait_ns.to_le_bytes());
                    }
                    EventKind::Fence { phase } => out.extend_from_slice(&phase.to_le_bytes()),
                    EventKind::Gauge { id, value } => {
                        out.push(id);
                        out.extend_from_slice(&value.to_le_bytes());
                    }
                    EventKind::Heartbeat { seq } => out.extend_from_slice(&seq.to_le_bytes()),
                    EventKind::AsyncBegin { id, stage } | EventKind::AsyncEnd { id, stage } => {
                        out.extend_from_slice(&id.to_le_bytes());
                        out.push(stage);
                    }
                    EventKind::FlowStart { id } | EventKind::FlowEnd { id } => {
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// FNV-1a digest of [`Self::canonical_bytes`] — the compact replay
    /// fingerprint printed by chaos diagnostics.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

// ---------------------------------------------------------------------
// Thread-local rank session (the recording fast path).
// ---------------------------------------------------------------------

mod session {
    use super::*;
    use std::cell::RefCell;

    pub(super) struct Active {
        pub rank: u32,
        pub clock: ClockMode,
        pub epoch: Instant,
        pub tick: u64,
        pub ring: EventRing,
        pub comm: CommCounters,
    }

    impl Active {
        #[inline]
        pub fn now(&mut self) -> u64 {
            match self.clock {
                ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
                ClockMode::Logical => {
                    self.tick += 1;
                    self.tick
                }
            }
        }
    }

    thread_local! {
        pub(super) static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
    }

    /// Runs `f` on the active session, if any. One thread-local lookup and
    /// an `Option` check when tracing is off.
    #[inline]
    pub(super) fn with_active<R>(f: impl FnOnce(&mut Active) -> R) -> Option<R> {
        ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
    }
}

/// Guard of one rank's recording session; [`RankSession::finish`] takes
/// the recorded trace, dropping without finishing discards it (panic
/// unwind safety).
#[must_use = "finish() returns the recorded trace"]
#[derive(Debug)]
pub struct RankSession {
    armed: bool,
}

/// Installs a recording session on the *calling thread* for logical
/// processor `rank`. Both runtime backends run each rank on its own OS
/// thread, so installing at SPMD-body entry captures exactly that rank's
/// activity. Returns an inert guard when `opts.enabled` is false.
pub fn begin_rank(rank: usize, opts: &TraceOptions) -> RankSession {
    if !opts.enabled {
        return RankSession { armed: false };
    }
    let epoch = opts.epoch.unwrap_or_else(Instant::now);
    let mut active = session::Active {
        rank: rank as u32,
        clock: opts.clock,
        epoch,
        tick: 0,
        ring: EventRing::new(RING_CAPACITY),
        comm: CommCounters::default(),
    };
    let at = active.now();
    active.ring.push(Event { at, kind: EventKind::Fence { phase: 0 } });
    session::ACTIVE.with(|a| *a.borrow_mut() = Some(active));
    RankSession { armed: true }
}

impl RankSession {
    /// Ends the session and returns the rank's trace (`None` when the
    /// session was inert).
    pub fn finish(mut self) -> Option<RankTrace> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        session::ACTIVE.with(|a| {
            a.borrow_mut().take().map(|mut s| {
                let at = s.now();
                s.ring.push(Event { at, kind: EventKind::Fence { phase: u64::MAX } });
                RankTrace {
                    rank: s.rank,
                    dropped_events: s.ring.dropped(),
                    events: s.ring.into_events(),
                    comm: s.comm,
                }
            })
        })
    }
}

impl Drop for RankSession {
    fn drop(&mut self) {
        if self.armed {
            session::ACTIVE.with(|a| *a.borrow_mut() = None);
        }
    }
}

/// Span guard for one task: records `TaskBegin` now and `TaskEnd` on drop
/// (so error paths still close their spans). A no-op when no session is
/// active on this thread.
#[must_use = "the span ends when this guard drops"]
#[derive(Debug)]
pub struct TaskSpan {
    task: u32,
    class: TaskClass,
}

/// Opens a task span. See [`TaskSpan`].
#[inline]
pub fn task_span(task: u32, class: TaskClass) -> TaskSpan {
    session::with_active(|s| {
        let at = s.now();
        s.ring.push(Event { at, kind: EventKind::TaskBegin { task, class } });
    });
    TaskSpan { task, class }
}

impl Drop for TaskSpan {
    #[inline]
    fn drop(&mut self) {
        session::with_active(|s| {
            let at = s.now();
            s.ring.push(Event {
                at,
                kind: EventKind::TaskEnd { task: self.task, class: self.class },
            });
        });
    }
}

/// Records one resource-gauge sample on the calling rank's track. A no-op
/// when no session is active.
#[inline]
pub fn sample_gauge(id: GaugeId, value: u64) {
    session::with_active(|s| {
        let at = s.now();
        s.ring.push(Event { at, kind: EventKind::Gauge { id: id as u8, value } });
    });
}

/// Records a progress heartbeat carrying the run-global completed-task
/// count (see [`EventKind::Heartbeat`]). A no-op when no session is
/// active.
#[inline]
pub fn heartbeat(seq: u64) {
    session::with_active(|s| {
        let at = s.now();
        s.ring.push(Event { at, kind: EventKind::Heartbeat { seq } });
    });
}

/// The [`pastix_runtime::CommHook`] that routes message events into the
/// calling thread's active session. Zero-sized; pass by value to
/// [`pastix_runtime::Instrumented`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionHook;

impl pastix_runtime::CommHook for SessionHook {
    #[inline]
    fn on_send(&self, to: usize, bytes: u64, kind: u8) {
        session::with_active(|s| {
            s.comm.sends += 1;
            s.comm.send_bytes += bytes;
            let at = s.now();
            s.ring.push(Event { at, kind: EventKind::Send { peer: to as u32, bytes, kind } });
        });
    }

    #[inline]
    fn on_send_dropped(&self, to: usize, bytes: u64, kind: u8) {
        session::with_active(|s| {
            s.comm.send_drops += 1;
            let at = s.now();
            s.ring.push(Event { at, kind: EventKind::SendDropped { peer: to as u32, bytes, kind } });
        });
    }

    #[inline]
    fn on_recv(&self, from: usize, bytes: u64, kind: u8, wait_ns: u64) {
        session::with_active(|s| {
            s.comm.recvs += 1;
            s.comm.recv_bytes += bytes;
            let wait = match s.clock {
                ClockMode::Wall => wait_ns,
                // Host timing would break (seed, policy) determinism.
                ClockMode::Logical => 0,
            };
            let at = s.now();
            s.ring.push(Event {
                at,
                kind: EventKind::Recv { peer: from as u32, bytes, kind, wait_ns: wait },
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = EventRing::new(8);
        for i in 0..12u64 {
            r.push(Event { at: i, kind: EventKind::Fence { phase: i } });
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.dropped(), 4);
        let evs = r.into_events();
        assert_eq!(evs.first().unwrap().at, 4);
        assert_eq!(evs.last().unwrap().at, 11);
    }

    #[test]
    fn session_records_spans_and_fences() {
        let s = begin_rank(3, &TraceOptions::wall());
        {
            let _sp = task_span(42, TaskClass::Comp1d);
        }
        let t = s.finish().expect("enabled session yields a trace");
        assert_eq!(t.rank, 3);
        // begin fence, task begin, task end, end fence.
        assert_eq!(t.events.len(), 4);
        assert!(matches!(t.events[0].kind, EventKind::Fence { phase: 0 }));
        assert!(matches!(t.events[1].kind, EventKind::TaskBegin { task: 42, .. }));
        assert!(matches!(t.events[2].kind, EventKind::TaskEnd { task: 42, .. }));
        assert!(matches!(t.events[3].kind, EventKind::Fence { phase: u64::MAX }));
        // Wall timestamps are monotone.
        for w in t.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn disabled_session_records_nothing() {
        let s = begin_rank(0, &TraceOptions::disabled());
        let _sp = task_span(1, TaskClass::Seq);
        assert!(s.finish().is_none());
    }

    #[test]
    fn logical_clock_is_deterministic() {
        let run = || {
            let s = begin_rank(0, &TraceOptions::deterministic());
            for t in 0..5u32 {
                let _sp = task_span(t, TaskClass::Bmod);
            }
            let log = TraceLog {
                ranks: vec![s.finish().unwrap()],
                wall_ns: 0,
                digest: 99,
            };
            log.canonical_bytes()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn span_closes_on_unwind() {
        let s = begin_rank(0, &TraceOptions::wall());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sp = task_span(9, TaskClass::Factor);
            panic!("boom");
        }));
        assert!(caught.is_err());
        let t = s.finish().unwrap();
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskEnd { task: 9, .. })));
    }

    #[test]
    fn gauges_and_heartbeats_round_trip() {
        let s = begin_rank(0, &TraceOptions::deterministic());
        sample_gauge(GaugeId::AubOutBytes, 3);
        heartbeat(17);
        sample_gauge(GaugeId::LiveRegionBytes, 4096);
        let t = s.finish().unwrap();
        let gauges: Vec<_> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge { id, value } => Some((id, value)),
                _ => None,
            })
            .collect();
        assert_eq!(gauges, vec![(1, 3), (3, 4096)]);
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Heartbeat { seq: 17 })));
        // The new variants serialize canonically (distinct tags).
        let log = TraceLog { ranks: vec![t], wall_ns: 0, digest: 1 };
        let bytes = log.canonical_bytes();
        assert!(bytes.windows(1).any(|w| w[0] == 6));
        assert!(bytes.windows(1).any(|w| w[0] == 7));
    }

    #[test]
    fn comm_counters_via_hook() {
        use pastix_runtime::CommHook;
        let s = begin_rank(1, &TraceOptions::deterministic());
        let h = SessionHook;
        h.on_send(0, 128, 2);
        h.on_send_dropped(0, 128, 2);
        h.on_send(0, 128, 2);
        h.on_recv(2, 64, 1, 555);
        let t = s.finish().unwrap();
        assert_eq!(t.comm.sends, 2);
        assert_eq!(t.comm.send_drops, 1);
        assert_eq!(t.comm.recvs, 1);
        assert_eq!(t.comm.send_bytes, 256);
        assert_eq!(t.comm.recv_bytes, 64);
        // Logical clock zeroes recv wait for determinism.
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Recv { wait_ns: 0, .. })));
    }
}
