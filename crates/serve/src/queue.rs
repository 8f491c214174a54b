//! Request coalescing: the queue that turns a stream of single-RHS solve
//! requests into blocked multi-RHS panels.
//!
//! A panel of `k` coalesced right-hand sides pays the solve's message
//! protocol once and turns every per-blok trailing update into a
//! GEMM-shaped `h_b × k × w` product instead of `k` GEMVs — the whole
//! point of the serving layer's batching. The queue itself is clock-free:
//! arrival and completion timestamps are supplied by the caller (wall
//! nanoseconds in a live server, a virtual clock in `bench_serve`), so
//! batching behavior is reproducible.

use crate::rtrace::RequestTrace;
use crate::session::SolverSession;
use pastix_graph::SymCsc;
use pastix_kernels::{FactorError, Scalar};
use pastix_trace::flight::{self, FlightKind};
use pastix_trace::TraceLog;
use std::collections::VecDeque;

/// One queued solve request.
#[derive(Debug, Clone)]
pub struct Request<T> {
    /// Ticket handed back by [`RequestQueue::submit`].
    pub id: u64,
    /// The right-hand side (original ordering).
    pub rhs: Vec<T>,
    /// Caller-supplied arrival timestamp (ns).
    pub arrival_ns: u64,
}

/// One served request.
#[derive(Debug, Clone)]
pub struct Completed<T> {
    /// Ticket of the originating request.
    pub id: u64,
    /// The solution vector (original ordering).
    pub x: Vec<T>,
    /// `finish_ns − arrival_ns`: queueing plus solve time.
    pub latency_ns: u64,
    /// Width of the panel this request was coalesced into.
    pub batch: usize,
}

/// Why [`RequestQueue::serve_batch`] refused a ticket. A refused ticket
/// never reaches the solver and takes no other ticket of its batch down
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The right-hand side does not have the matrix's order.
    WrongLength {
        /// The matrix order.
        expected: usize,
        /// The right-hand side's length.
        got: usize,
    },
    /// The right-hand side holds a NaN or an infinity at `index`.
    NonFinite {
        /// First offending entry.
        index: usize,
    },
}

impl RejectReason {
    /// Screens one right-hand side against a matrix of order `n`.
    fn screen<T: Scalar>(rhs: &[T], n: usize) -> Option<Self> {
        if rhs.len() != n {
            return Some(Self::WrongLength { expected: n, got: rhs.len() });
        }
        rhs.iter().position(|v| !v.is_finite()).map(|index| Self::NonFinite { index })
    }

    /// Stable small code (the flight ring's payload).
    fn code(self) -> u64 {
        match self {
            Self::WrongLength { .. } => 1,
            Self::NonFinite { .. } => 2,
        }
    }
}

/// FIFO queue of pending solve requests.
#[derive(Debug, Default)]
pub struct RequestQueue<T> {
    pending: VecDeque<Request<T>>,
    next_id: u64,
    batches: u64,
    tracer: Option<RequestTrace>,
    /// Refused tickets not yet collected by [`RequestQueue::take_rejected`].
    rejected: Vec<(u64, RejectReason)>,
}

impl<T: Scalar> RequestQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with per-request tracing: every admitted request
    /// becomes a parent async span on the serve track of
    /// [`RequestQueue::take_trace`]'s log, with stage children and flow
    /// arrows into the solver ranks (see [`crate::rtrace`]).
    pub fn traced() -> Self {
        Self { tracer: Some(RequestTrace::new()), ..Self::default() }
    }

    /// Detaches and assembles the request trace recorded so far (empty
    /// log for untraced queues). Tracing continues in a fresh builder.
    pub fn take_trace(&mut self) -> TraceLog {
        match self.tracer.take() {
            Some(t) => {
                self.tracer = Some(RequestTrace::new());
                t.finish()
            }
            None => TraceLog::default(),
        }
    }

    /// Enqueues a right-hand side; returns its ticket.
    pub fn submit(&mut self, rhs: Vec<T>, arrival_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        flight::record(FlightKind::RequestStart, id, 0);
        if let Some(t) = &mut self.tracer {
            t.begin_request(id, arrival_ns);
        }
        self.pending.push_back(Request { id, rhs, arrival_ns });
        id
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Pops the oldest `max` (or fewer) requests — the next batch.
    pub fn take_batch(&mut self, max: usize) -> Vec<Request<T>> {
        let k = max.min(self.pending.len());
        self.pending.drain(..k).collect()
    }

    /// The tickets refused since the last call, with the reason each was
    /// refused, oldest first.
    pub fn take_rejected(&mut self) -> Vec<(u64, RejectReason)> {
        std::mem::take(&mut self.rejected)
    }

    /// Coalesces the oldest pending requests (at most the session's
    /// `max_panel`) into one panel, solves it through `session`, and
    /// returns the completions stamped with `finish_ns`. A ticket whose
    /// right-hand side has the wrong length or a non-finite entry is
    /// dropped from the panel first — counted in `serve.rejected`, noted
    /// in the flight ring, reported by [`RequestQueue::take_rejected`] —
    /// and the healthy tickets of the batch complete normally. `dispatch_ns` is
    /// the caller's clock at the moment the batch leaves the queue — it
    /// splits each request's latency into queue wait
    /// (`dispatch − arrival`) and solve (`finish − dispatch`), recorded
    /// in the `serve.queue_wait_ns` / `serve.solve_ns` histograms and on
    /// the request trace's stage spans. Returns an empty vector when the
    /// queue is idle.
    pub fn serve_batch(
        &mut self,
        session: &mut SolverSession<T>,
        a: &SymCsc<T>,
        dispatch_ns: u64,
        finish_ns: u64,
    ) -> Result<Vec<Completed<T>>, FactorError> {
        let n = a.n();
        let mut batch = self.take_batch(session.options().max_panel);
        batch.retain(|req| match RejectReason::screen(&req.rhs, n) {
            None => true,
            Some(reason) => {
                session.metrics().add_counter("serve.rejected", 1);
                flight::record(FlightKind::RequestRejected, req.id, reason.code());
                if let Some(t) = &mut self.tracer {
                    t.reject_request(req.id, dispatch_ns);
                }
                self.rejected.push((req.id, reason));
                false
            }
        });
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let nrhs = batch.len();
        let seq = self.batches;
        self.batches += 1;
        flight::record(FlightKind::BatchDispatch, seq, nrhs as u64);
        let panel = pack_panel(&batch, n);
        // The batch's lead ticket tags the solve, linking the rank-side
        // solve spans to the requests riding this panel.
        let tag = self.tracer.as_ref().map(|_| batch[0].id);
        let out = session.solve_panel_tagged(a, &panel, nrhs, tag)?;
        // Health check on the fresh solve trace *before* the requests are
        // marked complete in the flight ring: a watchdog trip here dumps a
        // black box that still names this batch's tickets as in flight.
        if !out.trace.ranks.is_empty() {
            let wd = pastix_trace::watchdog::WatchdogOptions::from_env();
            let (report, _) = pastix_trace::watchdog::analyze_and_dump(&out.trace, &wd);
            if report.any_stalled() {
                session.metrics().add_counter("serve.watchdog.trips", 1);
            }
        }
        if let Some(t) = &mut self.tracer {
            let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
            t.record_batch(&ids, dispatch_ns, finish_ns, out.cache_hit, &out.trace);
        }
        let done = unpack_completions(&batch, &out.x, n, finish_ns);
        let m = session.metrics();
        m.add_counter("serve.requests", nrhs as u64);
        m.add_counter("serve.batches", 1);
        m.observe("serve.batch_width", nrhs as u64);
        for (c, r) in done.iter().zip(&batch) {
            m.observe("serve.latency_ns", c.latency_ns);
            m.observe("serve.queue_wait_ns", dispatch_ns.saturating_sub(r.arrival_ns));
            m.observe("serve.solve_ns", finish_ns.saturating_sub(dispatch_ns));
            flight::record(FlightKind::RequestEnd, c.id, c.latency_ns);
        }
        Ok(done)
    }
}

/// Packs request right-hand sides into an `n × k` column-major panel.
pub fn pack_panel<T: Scalar>(batch: &[Request<T>], n: usize) -> Vec<T> {
    let mut panel = vec![T::zero(); n * batch.len()];
    for (r, req) in batch.iter().enumerate() {
        assert_eq!(req.rhs.len(), n, "request {} has wrong rhs length", req.id);
        panel[r * n..(r + 1) * n].copy_from_slice(&req.rhs);
    }
    panel
}

/// Splits a solved panel back into per-request completions, stamping
/// latencies against `finish_ns`.
pub fn unpack_completions<T: Scalar>(
    batch: &[Request<T>],
    x: &[T],
    n: usize,
    finish_ns: u64,
) -> Vec<Completed<T>> {
    batch
        .iter()
        .enumerate()
        .map(|(r, req)| Completed {
            id: req.id,
            x: x[r * n..(r + 1) * n].to_vec(),
            latency_ns: finish_ns.saturating_sub(req.arrival_ns),
            batch: batch.len(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionOptions;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_graph::rhs_for_solution;
    use pastix_sched::SchedOptions;

    #[test]
    fn queue_coalesces_and_serves_fifo() {
        let a = grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(9));
        let n = a.n();
        let opts = SessionOptions {
            procs: 2,
            max_panel: 3,
            sched: SchedOptions { block_size: 8, ..Default::default() },
            ..Default::default()
        };
        let mut session = SolverSession::<f64>::new(opts);
        let mut q = RequestQueue::new();
        let mut exact = Vec::new();
        for r in 0..5 {
            let xe: Vec<f64> = (0..n).map(|i| ((i * 3 + r) % 5) as f64 - 2.0).collect();
            let id = q.submit(rhs_for_solution(&a, &xe), 100 * r as u64);
            assert_eq!(id, r as u64);
            exact.push(xe);
        }
        // First batch coalesces max_panel = 3, second the remaining 2.
        let d1 = q.serve_batch(&mut session, &a, 500, 1_000).unwrap();
        assert_eq!(d1.len(), 3);
        assert_eq!(q.len(), 2);
        let d2 = q.serve_batch(&mut session, &a, 1_500, 2_000).unwrap();
        assert_eq!(d2.len(), 2);
        assert!(q.is_empty());
        assert!(q.serve_batch(&mut session, &a, 2_500, 3_000).unwrap().is_empty());
        for c in d1.iter().chain(&d2) {
            let xe = &exact[c.id as usize];
            for (u, v) in c.x.iter().zip(xe) {
                assert!((u - v).abs() < 1e-8, "request {}: {u} vs {v}", c.id);
            }
        }
        // FIFO: batch 1 holds tickets 0..3 at width 3.
        assert_eq!(d1.iter().map(|c| c.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(d1.iter().all(|c| c.batch == 3));
        assert_eq!(d1[0].latency_ns, 1_000);
        assert_eq!(d1[2].latency_ns, 800);
        let m = session.metrics();
        assert_eq!(m.counter("serve.requests"), 5);
        assert_eq!(m.counter("serve.batches"), 2);
        assert_eq!(m.counter("serve.cache.misses"), 1);
        assert_eq!(m.counter("serve.cache.hits"), 1);
        assert!(m.histogram("serve.latency_ns").is_some());
        // The dispatch split: waits run arrival→dispatch, solves 500 each.
        let qw = m.histogram("serve.queue_wait_ns").unwrap();
        assert_eq!(qw.count, 5);
        assert_eq!(qw.max, 1_200); // ticket 3: arrived 300, dispatched 1_500
        let sv = m.histogram("serve.solve_ns").unwrap();
        assert_eq!(sv.count, 5);
        assert_eq!(sv.min, 500);
        assert_eq!(sv.max, 500);
        assert_eq!(m.histogram("serve.factorize_ns").unwrap().count, 1);
    }

    #[test]
    fn traced_queue_builds_request_spans() {
        use pastix_trace::export::{chrome_trace, validate_chrome_trace};
        let a = grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(9));
        let n = a.n();
        let opts = SessionOptions {
            procs: 2,
            max_panel: 2,
            sched: SchedOptions { block_size: 8, ..Default::default() },
            ..Default::default()
        };
        // Tracing must be on for solve traces to exist at all.
        let mut opts = opts;
        opts.solver = opts.solver.with_trace(pastix_trace::TraceOptions::wall());
        let mut session = SolverSession::<f64>::new(opts);
        let mut q = RequestQueue::traced();
        for r in 0..3u64 {
            let xe: Vec<f64> = (0..n).map(|i| (i as f64) - r as f64).collect();
            q.submit(rhs_for_solution(&a, &xe), 10 * r);
        }
        q.serve_batch(&mut session, &a, 100, 200).unwrap();
        q.serve_batch(&mut session, &a, 300, 400).unwrap();
        let log = q.take_trace();
        assert_eq!(log.ranks[0].rank, pastix_trace::SERVE_RANK);
        assert!(log.ranks.len() > 1, "solve ranks must be merged in");
        let j = chrome_trace(&log);
        validate_chrome_trace(&j).unwrap();
        let text = j.compact();
        for stage in ["request", "queue_wait", "coalesce", "analyze", "factorize", "solve"] {
            assert!(text.contains(&format!("\"{stage}\"")), "missing stage {stage}");
        }
        // After take_trace the builder is fresh but still tracing.
        let empty = q.take_trace();
        assert_eq!(empty.ranks.len(), 1);
        assert!(empty.ranks[0].events.is_empty());
    }
}
