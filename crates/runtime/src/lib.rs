//! # pastix-runtime
//!
//! An in-process message-passing runtime: the MPI substitute of this
//! reproduction. Each *logical processor* has a rank, an unbounded
//! mailbox, and the ability to send typed messages to any peer — exactly
//! the communication surface the fan-in solver needs (factor-block sends
//! and aggregated-update-block sends, all point to point, asynchronous,
//! received in any order).
//!
//! The surface is the [`Comm`] trait, and [`sim::run_sim_spmd`] runs it:
//! a deterministic single-execution simulation ([`sim::SimCtx`]) where a
//! seeded scheduler decides which processor runs and when each message is
//! delivered, with injectable faults. Every interleaving is reproducible
//! from its seed, which is what the chaos suite drives. On real threads
//! the solver sends no message: it factorizes and solves on the
//! [`steal::run_dag`] executor, whose tasks share the factor's panels;
//! every solve, on every backend, runs there.
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
/// distributed solve) runs under the deterministic simulator
/// ([`sim::SimCtx`]); [`Instrumented`] wraps any `Comm` to observe its
/// traffic. Bring the trait into scope to call these methods on a
/// context.
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

/// Which runtime executes the solver: the task-graph-driven work-stealing
/// executor in the static order, the deterministic fault-injecting
/// simulator, or the executor with the static schedule as hints. This is
/// the one switch the backend-generic solver entry points
/// (`Plan::factorize` / `FactorRun::solve_request` in `pastix-solver`)
/// dispatch on.
///
/// ```
/// use pastix_runtime::Backend;
/// use pastix_runtime::sim::FaultPlan;
/// assert_eq!(Backend::default(), Backend::Threads);
/// // The simulator replays from its seed: equal plans, equal backends.
/// let sim = |seed| Backend::Sim(FaultPlan::builder(seed).build());
/// assert_eq!(sim(7), sim(7));
/// assert_ne!(sim(7), Backend::Threads);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Backend {
    /// The [`steal::run_dag`] executor in the static order
    /// ([`steal::TaskOrder::Static`]), one worker per processor:
    /// `pastix-solver` factorizes and solves on it, every task enqueued on
    /// its `K_p` processor, idle workers stealing.
    #[default]
    Threads,
    /// Deterministic serialized simulation ([`sim::run_sim_spmd`]) driven
    /// by the given fault plan; every execution is a pure function of
    /// `(seed, policy)`. `pastix-solver` runs the paper's fan-in
    /// factorization on it, and its solve on the [`steal::run_dag`]
    /// executor in the static order under the same plan's seeded
    /// serializer.
    Sim(sim::FaultPlan),
    /// Task-graph-driven executor ([`steal::run_dag`]) in the given
    /// order: the static schedule supplies placement and task priority
    /// (where roots are seeded and which ready task runs first, or under
    /// [`steal::TaskOrder::Static`] where every task is enqueued).
    Dynamic(steal::DynamicOptions),
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
    use crate::sim::{run_sim_spmd, FaultPlan};

    #[test]
    fn self_send_works() {
        let plan = FaultPlan::interleave_only(3);
        let results = run_sim_spmd::<&'static str, String, _>(2, &plan, |ctx| {
            assert!(ctx.send_resilient(ctx.rank(), "hello"));
            let env = ctx.recv();
            format!("{}:{}", env.from, env.msg)
        });
        assert_eq!(results, vec!["0:hello", "1:hello"]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let plan = FaultPlan::interleave_only(5);
        let results = run_sim_spmd::<u8, bool, _>(2, &plan, |ctx| {
            if ctx.rank() == 0 {
                // Nothing is ever sent to rank 0.
                let none = ctx.try_recv().is_none();
                assert!(ctx.send_resilient(1, 7));
                none
            } else {
                // Polls until the message is delivered.
                loop {
                    if let Some(env) = ctx.try_recv() {
                        break env.msg == 7;
                    }
                }
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn random_all_to_all_storm() {
        // Every rank sends a deterministic pseudo-random number of tagged
        // messages to every other; receivers demand them in ascending tag
        // order, exercising the out-of-order pool hard.
        let p = 4usize;
        let plan = FaultPlan::interleave_only(9);
        let results = run_sim_spmd::<(u32, u32), u64, _>(p, &plan, |ctx| {
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
        run_sim_spmd::<u32, (), _>(2, &FaultPlan::interleave_only(1), move |ctx| {
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
