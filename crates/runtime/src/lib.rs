//! # pastix-runtime
//!
//! An in-process message-passing runtime: the MPI substitute of this
//! reproduction. Each *logical processor* has a rank, an unbounded
//! mailbox, and the ability to send typed messages to any peer — exactly
//! the communication surface the fan-in solver needs (factor-block sends
//! and aggregated-update-block sends, all point to point, asynchronous,
//! received in any order).
//!
//! The surface is the [`Comm`] trait, with two interchangeable backends:
//!
//! - [`run_spmd`] — one OS thread per logical processor ([`ProcCtx`]);
//!   it carries the `Backend::Threads` solves (the `Threads`
//!   factorization runs on the [`steal::run_dag`] executor and sends no
//!   message);
//! - [`sim::run_sim_spmd`] — a deterministic single-execution simulation
//!   ([`sim::SimCtx`]) where a seeded scheduler decides which processor
//!   runs and when each message is delivered, with injectable faults.
//!   Every interleaving is reproducible from its seed, which is what the
//!   chaos suite drives.
//!
//! The runtime delivers in arrival order only. Because the static
//! schedule fixes every processor's task order, the solver knows *what*
//! it is waiting for at each step and buffers early arrivals itself (the
//! static driver's worker in `pastix-solver`), which is how PaStiX's
//! asynchronous MPI receives are modeled in-process.

#![warn(missing_docs)]

pub mod sim;
pub mod steal;

pub use steal::{DynamicOptions, TaskOrder};

use std::sync::mpsc::{channel, Receiver, Sender};

/// A received message with its sender rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sender rank.
    pub from: usize,
    /// Payload.
    pub msg: M,
}

/// Outcome of a fault-aware send ([`Comm::send_faulty`]). The failing
/// variants hand the message back to the caller so a retry needs no
/// `Clone`.
#[derive(Debug)]
pub enum SendOutcome<M> {
    /// Accepted by the transport (delivery may still be delayed or
    /// duplicated by the simulator's faults).
    Delivered,
    /// Dropped by fault injection; the message is returned for retry.
    /// The thread backend never drops.
    Dropped(M),
    /// The peer already exited; the message is returned.
    Closed(M),
}

/// How many consecutive transport drops [`Comm::send_resilient`] retries
/// before declaring the link dead. With drop probability `p < 1` the
/// chance of hitting the limit is `p^64` — unreachable in practice, but it
/// turns a livelock (spinning on a dead peer) into a diagnosable panic.
pub const SEND_RETRY_LIMIT: usize = 64;

/// The SPMD communication surface shared by every backend: asynchronous
/// point-to-point sends plus blocking and non-blocking receives.
///
/// Code written against `Comm` (the fan-in factorization and the
/// distributed solves) runs unchanged on OS threads ([`ProcCtx`]) or under
/// the deterministic simulator ([`sim::SimCtx`]). Bring the trait into
/// scope to call these methods on a context.
pub trait Comm<M> {
    /// This processor's rank.
    fn rank(&self) -> usize;

    /// Number of logical processors.
    fn n_procs(&self) -> usize;

    /// Sends a message to `to` (sending to self is allowed and delivered
    /// through the same mailbox) and reports the outcome — including the
    /// message itself on failure — to the sender. Under the simulator
    /// every send is subject to the drop/duplicate faults.
    fn send_faulty(&self, to: usize, msg: M) -> SendOutcome<M>;

    /// Fault-tolerant send: retries transport drops (fault injection)
    /// until the message is accepted, returning `false` if the peer
    /// already exited. Panics after [`SEND_RETRY_LIMIT`] consecutive
    /// drops, which is unreachable for any drop probability below 1.
    fn send_resilient(&self, to: usize, msg: M) -> bool {
        let mut msg = msg;
        for _ in 0..SEND_RETRY_LIMIT {
            match self.send_faulty(to, msg) {
                SendOutcome::Delivered => return true,
                SendOutcome::Dropped(m) => msg = m,
                SendOutcome::Closed(_) => return false,
            }
        }
        panic!(
            "rank {} send_resilient to rank {to}: dropped {SEND_RETRY_LIMIT} consecutive times \
             (drop probability must be < 1 for resilient traffic)",
            self.rank()
        );
    }

    /// Blocking receive of the next message in arrival order.
    fn recv(&self) -> Envelope<M>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope<M>>;
}

/// Which runtime executes the solver: OS threads, the deterministic
/// fault-injecting simulator, or the task-graph-driven
/// work-stealing executor. This is the one switch the backend-generic
/// solver entry points (`Plan::factorize` / `FactorRun::solve_request` in
/// `pastix-solver`) dispatch on, so a single numerical codepath runs on
/// every backend.
///
/// ```
/// use pastix_runtime::{run_spmd_with, Backend, Comm};
/// use pastix_runtime::sim::FaultPlan;
/// // The same closure runs on threads or under the seeded simulator.
/// let hello = |ctx: &dyn Comm<usize>| ctx.rank() * 2;
/// let t = run_spmd_with::<usize, _, _>(&Backend::Threads, 3, hello);
/// let s = run_spmd_with::<usize, _, _>(
///     &Backend::Sim(FaultPlan::builder(7).build()),
///     3,
///     hello,
/// );
/// assert_eq!(t, s);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Backend {
    /// One OS thread per logical processor. An SPMD program (the
    /// `pastix-solver` solve) runs one rank per thread; `pastix-solver`
    /// factorizes on the [`steal::run_dag`] executor in the static order
    /// ([`steal::TaskOrder::Static`]): every task enqueued on its `K_p`
    /// processor, idle workers stealing.
    #[default]
    Threads,
    /// Deterministic serialized simulation driven by the given fault plan;
    /// every execution is a pure function of `(seed, policy)`.
    Sim(sim::FaultPlan),
    /// Task-graph-driven executor ([`steal::run_dag`]) in the given
    /// order: the static schedule supplies placement and task priority
    /// (where roots are seeded and which ready task runs first, or under
    /// [`steal::TaskOrder::Static`] where every task is enqueued). Not an
    /// SPMD backend —
    /// [`run_spmd_with`] rejects it; it is driven through the `Plan` API
    /// in `pastix-solver`.
    Dynamic(steal::DynamicOptions),
}

/// Runs `n_procs` logical processors of `f` on the chosen [`Backend`].
/// The closure receives the backend-erased [`Comm`] surface, so the same
/// SPMD body serves production and simulation; `M: Clone` is only
/// exercised by the simulator's duplicate-delivery fault.
pub fn run_spmd_with<M, R, F>(backend: &Backend, n_procs: usize, f: F) -> Vec<R>
where
    M: Send + Clone,
    R: Send,
    F: Fn(&dyn Comm<M>) -> R + Sync,
{
    match backend {
        Backend::Threads => run_spmd(n_procs, |ctx| f(&ctx)),
        Backend::Sim(plan) => sim::run_sim_spmd(n_procs, plan, |ctx| f(&ctx)),
        Backend::Dynamic(_) => panic!(
            "Backend::Dynamic is task-graph based, not SPMD; drive it through \
             the Plan API (Plan::factorize / FactorRun::solve_request) or \
             steal::run_dag directly"
        ),
    }
}

/// Per-processor communication context of the thread backend.
pub struct ProcCtx<M> {
    rank: usize,
    n_procs: usize,
    peers: Vec<Sender<Envelope<M>>>,
    inbox: Receiver<Envelope<M>>,
}

impl<M: Send> Comm<M> for ProcCtx<M> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn n_procs(&self) -> usize {
        self.n_procs
    }

    fn send_faulty(&self, to: usize, msg: M) -> SendOutcome<M> {
        // The thread backend's channels are reliable: the only failure is
        // a peer that already exited, in which case std's mpsc hands the
        // envelope back through the error.
        match self.peers[to].send(Envelope {
            from: self.rank,
            msg,
        }) {
            Ok(()) => SendOutcome::Delivered,
            Err(e) => SendOutcome::Closed(e.0.msg),
        }
    }

    fn recv(&self) -> Envelope<M> {
        match self.inbox.recv() {
            Ok(env) => env,
            Err(_) => panic!(
                "rank {} recv: all {} peer senders dropped while still waiting for a message",
                self.rank, self.n_procs
            ),
        }
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.try_recv().ok()
    }
}

/// Runs `n_procs` logical processors, each executing `f(ctx)` on its own
/// OS thread, and returns their results in rank order. Threads are
/// scoped: a panicking processor propagates after the others are joined.
///
/// ```
/// use pastix_runtime::{run_spmd, Comm};
/// // Every rank sends its rank to rank 0; rank 0 sums.
/// let out = run_spmd::<usize, usize, _>(3, |ctx| {
///     if ctx.rank() == 0 {
///         (1..ctx.n_procs()).map(|_| ctx.recv().msg).sum()
///     } else {
///         assert!(ctx.send_resilient(0, ctx.rank()));
///         0
///     }
/// });
/// assert_eq!(out[0], 3);
/// ```
pub fn run_spmd<M, R, F>(n_procs: usize, f: F) -> Vec<R>
where
    M: Send,
    R: Send,
    F: Fn(ProcCtx<M>) -> R + Sync,
{
    assert!(n_procs >= 1);
    let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(n_procs);
    let mut receivers: Vec<Option<Receiver<Envelope<M>>>> = Vec::with_capacity(n_procs);
    for _ in 0..n_procs {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let contexts: Vec<ProcCtx<M>> = receivers
        .iter_mut()
        .enumerate()
        .map(|(rank, rx)| ProcCtx {
            rank,
            n_procs,
            peers: senders.clone(),
            inbox: rx.take().unwrap(),
        })
        .collect();
    drop(senders);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .into_iter()
            .map(|ctx| scope.spawn(move || f(ctx)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(r) => r,
                Err(payload) => {
                    notify_failure(rank);
                    std::panic::resume_unwind(payload)
                }
            })
            .collect()
    })
}

/// Process-wide observer of rank failures, set with
/// [`set_failure_observer`]. Stored as a plain fn pointer so notifying
/// is a single atomic load on the (cold) failure path.
static FAILURE_OBSERVER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Registers a process-wide callback invoked with the rank index when a
/// worker thread inside [`run_spmd`] is found panicked at join time.
/// The runtime stays dependency-free — the tracing layer installs its
/// flight-recorder hook here. The observer must not panic.
pub fn set_failure_observer(f: fn(usize)) {
    FAILURE_OBSERVER.store(f as usize, std::sync::atomic::Ordering::Release);
}

fn notify_failure(rank: usize) {
    let p = FAILURE_OBSERVER.load(std::sync::atomic::Ordering::Acquire);
    if p != 0 {
        // SAFETY: the only non-zero values ever stored are `fn(usize)`
        // pointers from `set_failure_observer`.
        let f: fn(usize) = unsafe { std::mem::transmute::<usize, fn(usize)>(p) };
        f(rank);
    }
}

/// Observer of one rank's communication traffic, attached with
/// [`Instrumented`]. The runtime stays dependency-free: the tracing crate
/// implements this trait, the runtime only defines the seam.
///
/// `bytes` and `kind` come from the caller-supplied metadata function
/// (payload size and a small message-class tag), so the runtime never
/// needs to understand message types.
pub trait CommHook {
    /// A message was accepted by the transport.
    fn on_send(&self, to: usize, bytes: u64, kind: u8);
    /// A message was dropped by fault injection.
    fn on_send_dropped(&self, to: usize, bytes: u64, kind: u8);
    /// A message was received; `wait_ns` is the time this rank spent
    /// blocked in `recv()` for it (0 for non-blocking receives).
    fn on_recv(&self, from: usize, bytes: u64, kind: u8, wait_ns: u64);
}

/// Hook composition: `(a, b)` reports every observation to `a` then `b`,
/// so one [`Instrumented`] wrapper can feed both the trace session and a
/// live gauge aggregator without a second decoration layer.
impl<A: CommHook, B: CommHook> CommHook for (A, B) {
    #[inline]
    fn on_send(&self, to: usize, bytes: u64, kind: u8) {
        self.0.on_send(to, bytes, kind);
        self.1.on_send(to, bytes, kind);
    }

    #[inline]
    fn on_send_dropped(&self, to: usize, bytes: u64, kind: u8) {
        self.0.on_send_dropped(to, bytes, kind);
        self.1.on_send_dropped(to, bytes, kind);
    }

    #[inline]
    fn on_recv(&self, from: usize, bytes: u64, kind: u8, wait_ns: u64) {
        self.0.on_recv(from, bytes, kind, wait_ns);
        self.1.on_recv(from, bytes, kind, wait_ns);
    }
}

/// A [`Comm`] decorator that reports every send/receive to a [`CommHook`]
/// with `(kind, bytes)` metadata extracted by a caller-supplied function.
/// `send_resilient` keeps its default implementation, so retries and
/// drops are observed per attempt through `send_faulty`.
pub struct Instrumented<'a, M, C: ?Sized, H> {
    inner: &'a C,
    hook: H,
    meta: fn(&M) -> (u8, u64),
}

impl<'a, M, C: Comm<M> + ?Sized, H: CommHook> Instrumented<'a, M, C, H> {
    /// Wraps `inner`, reporting traffic to `hook`. `meta` maps a message
    /// to `(kind_tag, payload_bytes)`.
    pub fn new(inner: &'a C, hook: H, meta: fn(&M) -> (u8, u64)) -> Self {
        Self { inner, hook, meta }
    }
}

impl<M, C: Comm<M> + ?Sized, H: CommHook> Comm<M> for Instrumented<'_, M, C, H> {
    #[inline]
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    #[inline]
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }

    fn send_faulty(&self, to: usize, msg: M) -> SendOutcome<M> {
        let (kind, bytes) = (self.meta)(&msg);
        let out = self.inner.send_faulty(to, msg);
        match &out {
            SendOutcome::Delivered => self.hook.on_send(to, bytes, kind),
            SendOutcome::Dropped(_) => self.hook.on_send_dropped(to, bytes, kind),
            SendOutcome::Closed(_) => {}
        }
        out
    }

    fn recv(&self) -> Envelope<M> {
        let t0 = std::time::Instant::now();
        let env = self.inner.recv();
        let (kind, bytes) = (self.meta)(&env.msg);
        self.hook
            .on_recv(env.from, bytes, kind, t0.elapsed().as_nanos() as u64);
        env
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        let env = self.inner.try_recv()?;
        let (kind, bytes) = (self.meta)(&env.msg);
        self.hook.on_recv(env.from, bytes, kind, 0);
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        // Each rank sends its rank to the next; sum arrives intact.
        let results = run_spmd::<usize, usize, _>(4, |ctx| {
            let next = (ctx.rank() + 1) % ctx.n_procs();
            assert!(ctx.send_resilient(next, ctx.rank() * 10));
            let env = ctx.recv();
            assert_eq!(env.from, (ctx.rank() + ctx.n_procs() - 1) % ctx.n_procs());
            env.msg
        });
        assert_eq!(results, vec![30, 0, 10, 20]);
    }

    #[test]
    fn self_send_works() {
        let results = run_spmd::<&'static str, String, _>(2, |ctx| {
            assert!(ctx.send_resilient(ctx.rank(), "hello"));
            let env = ctx.recv();
            format!("{}:{}", env.from, env.msg)
        });
        assert_eq!(results, vec!["0:hello", "1:hello"]);
    }

    #[test]
    fn single_proc_spmd() {
        let results = run_spmd::<(), usize, _>(1, |ctx| ctx.n_procs());
        assert_eq!(results, vec![1]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let results = run_spmd::<u8, bool, _>(2, |ctx| {
            if ctx.rank() == 0 {
                // Just exercise the non-blocking path (arrival timing is
                // nondeterministic here).
                let _ = ctx.try_recv();
                assert!(ctx.send_resilient(1, 7));
                true
            } else {
                let env = ctx.recv();
                env.msg == 7
            }
        });
        assert!(results.iter().all(|&b| b));
    }

    #[test]
    fn random_all_to_all_storm() {
        // Every rank sends a deterministic pseudo-random number of tagged
        // messages to every other; receivers demand them in ascending tag
        // order, exercising the out-of-order pool hard.
        let p = 4usize;
        let results = run_spmd::<(u32, u32), u64, _>(p, |ctx| {
            let me = ctx.rank();
            // Deterministic per-pair counts: count(a, b) = (a*7 + b*3) % 5 + 1.
            let count = |a: usize, b: usize| ((a * 7 + b * 3) % 5 + 1) as u32;
            for q in 0..p {
                if q == me {
                    continue;
                }
                for tag in 0..count(me, q) {
                    assert!(ctx.send_resilient(q, (tag, (me as u32 + 1) * 100 + tag)));
                }
            }
            // Receive from everyone, demanding tags in order; early
            // arrivals wait in a pool keyed by (sender, tag).
            let mut pool = std::collections::HashMap::new();
            let mut sum = 0u64;
            for q in 0..p {
                if q == me {
                    continue;
                }
                for tag in 0..count(q, me) {
                    // Key = (sender, tag): drain until it shows up.
                    let env = loop {
                        if let Some(e) = pool.remove(&(q, tag)) {
                            break e;
                        }
                        let e = ctx.recv();
                        let key = (e.from, e.msg.0);
                        if key == (q, tag) {
                            break e;
                        }
                        pool.insert(key, e);
                    };
                    assert_eq!(env.msg.1, (q as u32 + 1) * 100 + tag);
                    sum += env.msg.1 as u64;
                }
            }
            assert!(pool.is_empty());
            sum
        });
        // Deterministic totals: recompute expected per rank.
        let count = |a: usize, b: usize| ((a * 7 + b * 3) % 5 + 1) as u64;
        for (me, &got) in results.iter().enumerate() {
            let mut expect = 0u64;
            for q in 0..p {
                if q == me {
                    continue;
                }
                for tag in 0..count(q, me) {
                    expect += (q as u64 + 1) * 100 + tag;
                }
            }
            assert_eq!(got, expect, "rank {me}");
        }
    }

    #[test]
    fn many_messages_fifo_per_pair() {
        let results = run_spmd::<u32, Vec<u32>, _>(2, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..100 {
                    assert!(ctx.send_resilient(1, i));
                }
                vec![]
            } else {
                (0..100).map(|_| ctx.recv().msg).collect()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_lossy_false_after_peer_exit() {
        // Rank 1 exits immediately; rank 0 keeps sending until the peer's
        // mailbox closes. Must terminate with a `false` rather than a
        // panic.
        let results = run_spmd::<u32, bool, _>(2, |ctx| {
            if ctx.rank() == 1 {
                return true;
            }
            loop {
                if !ctx.send_resilient(1, 42) {
                    return true;
                }
                std::thread::yield_now();
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn instrumented_reports_sends_and_recvs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        #[derive(Clone)]
        struct Count {
            sends: Arc<AtomicU64>,
            recvs: Arc<AtomicU64>,
            bytes: Arc<AtomicU64>,
        }
        impl CommHook for Count {
            fn on_send(&self, _to: usize, bytes: u64, _kind: u8) {
                self.sends.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            fn on_send_dropped(&self, _to: usize, _bytes: u64, _kind: u8) {}
            fn on_recv(&self, _from: usize, _bytes: u64, _kind: u8, _wait: u64) {
                self.recvs.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hook = Count {
            sends: Arc::new(AtomicU64::new(0)),
            recvs: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
        };
        let h = hook.clone();
        run_spmd::<u32, (), _>(2, move |ctx| {
            let ctx = Instrumented::new(&ctx, h.clone(), |m: &u32| (1, *m as u64));
            let next = (ctx.rank() + 1) % 2;
            // One resilient send, one raw faulty send, one try_recv poll.
            assert!(ctx.send_resilient(next, 10));
            assert!(matches!(ctx.send_faulty(next, 6), SendOutcome::Delivered));
            let a = ctx.recv();
            let b = loop {
                if let Some(e) = ctx.try_recv() {
                    break e;
                }
            };
            assert_eq!(a.msg + b.msg, 16);
        });
        assert_eq!(hook.sends.load(Ordering::Relaxed), 4);
        assert_eq!(hook.recvs.load(Ordering::Relaxed), 4);
        assert_eq!(hook.bytes.load(Ordering::Relaxed), 32);
    }
}
