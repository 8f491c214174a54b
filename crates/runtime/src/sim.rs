//! Deterministic simulation backend with fault injection.
//!
//! [`run_sim_spmd`] runs one SPMD closure per logical processor, one OS
//! thread each, but every interleaving decision — which processor runs
//! next, when each in-flight message is delivered, whether a send is
//! dropped or duplicated — is made by a central scheduler driven by a
//! seeded RNG.
//! Re-running with the same [`FaultPlan`] replays the exact execution,
//! which turns "flaky under concurrency" into "reproducible from a seed".
//!
//! ## How determinism is achieved with real threads
//!
//! Each logical processor still runs on its own OS thread (so the solver
//! code is byte-for-byte the production code), but the threads are fully
//! *serialized*: every worker parks on a start barrier before executing
//! any user code, and every [`Comm`] call parks it again, handing control
//! to the scheduler each time. The scheduler only makes a choice when
//! **all** live workers are parked, so the OS thread scheduler has no
//! influence on the outcome — even cross-rank shared state touched
//! between comm calls (gauges, progress counters) is updated in a
//! replayable order, and the only nondeterminism source is the seeded
//! [`SimRng`].
//!
//! ## Adversarial scheduling policies
//!
//! The scheduler's choice among enabled actions is shaped by the plan's
//! [`SchedPolicy`]: [`Uniform`](SchedPolicy::Uniform) samples uniformly,
//! [`StarveRank`](SchedPolicy::StarveRank) never services one rank while
//! anything else can make progress, [`DeliverLast`](SchedPolicy::DeliverLast)
//! always delays the oldest in-flight message the longest, and
//! [`FifoPerPair`](SchedPolicy::FifoPerPair) forces in-order delivery per
//! sender/receiver pair (the "nice network" that masks reordering bugs —
//! useful as a control). Every policy only *filters* the enabled set and
//! falls back to the full set when the filter would empty it, so liveness
//! is preserved and the execution stays a pure function of
//! `(seed, policy)`.
//!
//! ## Faults
//!
//! - **Reordering / delay** are inherent: the scheduler picks (per the
//!   policy) among all enabled actions, so a message can sit in flight
//!   while an arbitrary amount of other progress happens.
//! - **Drops**: each send is dropped with probability
//!   [`FaultPlan::drop_lossy`] ([`Comm::send_faulty`] reports
//!   [`SendOutcome::Dropped`] and hands the message back;
//!   [`Comm::send_resilient`] retries it).
//! - **Duplicated delivery**: each sent message is delivered twice with
//!   probability [`FaultPlan::duplicate_lossy`] — modeling an
//!   at-least-once transport. Every send is fault-eligible: there is no
//!   exactly-once channel.
//! - **Crashes**: a worker panic is caught, all other workers are
//!   unwound, and the original panic is re-raised on the caller with the
//!   seed in hand (solver-level fault points — injected zero pivots,
//!   panic-at-task — live in `pastix-solver`'s chaos options).
//!
//! Deadlocks (every live worker blocked in `recv` with nothing in
//! flight) are detected and reported with a per-rank state dump and the
//! seed that produced them.

use crate::{Comm, Envelope, SendOutcome};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// SplitMix64: small, fast, and plenty for schedule shuffling.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a seed; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Adversarial scheduling policy of the simulator: how the central
/// scheduler chooses among the enabled actions (servicing a parked worker
/// or delivering an in-flight message). Every policy is deterministic
/// given the plan's seed, and every policy preserves liveness: it only
/// filters the enabled set, falling back to the full set when the filter
/// would leave nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniform sampling over all enabled actions (the baseline chaos).
    #[default]
    Uniform,
    /// Never service rank `r`'s parked call while any other action is
    /// enabled: maximal starvation of one worker. Messages *to* the
    /// starved rank still get delivered, so its mailbox piles up.
    StarveRank(usize),
    /// Always pick the oldest undelivered message last: the anti-FIFO
    /// network that maximally delays whatever has been in flight longest.
    DeliverLast,
    /// In-order delivery per (sender, receiver) pair — the "nice network"
    /// that masks reordering bugs; useful as a control to show a failure
    /// is reordering-dependent.
    FifoPerPair,
}

/// Seed, fault probabilities, and scheduling policy for one simulated
/// execution: every run is a pure function of this plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the interleaving RNG; same plan → same execution.
    pub seed: u64,
    /// Probability that a send is dropped (reported to the sender as
    /// [`SendOutcome::Dropped`]).
    pub drop_lossy: f64,
    /// Probability that a sent message is delivered twice.
    pub duplicate_lossy: f64,
    /// How the scheduler picks among enabled actions.
    pub policy: SchedPolicy,
}

impl FaultPlan {
    /// Starts a [`FaultPlanBuilder`] with the given seed, no faults, and
    /// the [`Uniform`](SchedPolicy::Uniform) policy.
    ///
    /// ```
    /// use pastix_runtime::sim::{FaultPlan, SchedPolicy};
    /// let plan = FaultPlan::builder(42)
    ///     .drop_lossy(0.25)
    ///     .duplicate_lossy(0.25)
    ///     .policy(SchedPolicy::StarveRank(0))
    ///     .build();
    /// assert_eq!(plan.seed, 42);
    /// assert_eq!(plan.policy, SchedPolicy::StarveRank(0));
    /// // Replay recipe: the pair (seed, policy) pins the whole execution.
    /// assert_eq!(plan, FaultPlan { ..plan });
    /// ```
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                drop_lossy: 0.0,
                duplicate_lossy: 0.0,
                policy: SchedPolicy::Uniform,
            },
        }
    }

    /// Pure interleaving chaos: random scheduling and delivery order, but
    /// no drops or duplicates. (Delegates to [`FaultPlan::builder`].)
    pub fn interleave_only(seed: u64) -> Self {
        Self::builder(seed).build()
    }
}

/// Builder for [`FaultPlan`]; see [`FaultPlan::builder`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Sets the probability that a send is dropped.
    pub fn drop_lossy(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability {p} outside [0, 1]");
        self.plan.drop_lossy = p;
        self
    }

    /// Sets the probability that a sent message is delivered twice.
    pub fn duplicate_lossy(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability {p} outside [0, 1]"
        );
        self.plan.duplicate_lossy = p;
        self
    }

    /// Sets the adversarial scheduling policy.
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.plan.policy = policy;
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// A worker's parked request, waiting for the scheduler.
enum Call<M> {
    /// The worker parked before executing any user code; servicing it
    /// releases the worker into its closure. Without this barrier the
    /// stretch from thread spawn to each worker's *first* comm call runs
    /// under the OS scheduler — concurrently across ranks — so any
    /// cross-rank shared state touched there (e.g. the run-global
    /// progress counter stamping heartbeats) would race and break
    /// replayability.
    Start,
    Send { to: usize, msg: M },
    Recv,
    TryRecv,
    /// The worker's closure returned (or panicked); it will make no more
    /// calls.
    Finished,
}

enum Reply<M> {
    /// Start barrier released: run the closure.
    Go,
    /// Send accepted into the network.
    Sent,
    /// Send dropped by the drop fault; the message is handed back so the
    /// sender can retry without cloning.
    Dropped(M),
    /// The peer exited; the message is handed back.
    Closed(M),
    Msg(Envelope<M>),
    NoMsg,
}

/// Per-processor context of the simulation backend; implements [`Comm`].
pub struct SimCtx<M> {
    rank: usize,
    n_procs: usize,
    call_tx: Sender<(usize, Call<M>)>,
    reply_rx: Receiver<Reply<M>>,
}

impl<M> SimCtx<M> {
    fn rendezvous(&self, call: Call<M>) -> Reply<M> {
        if self.call_tx.send((self.rank, call)).is_err() {
            // The scheduler died (deadlock panic unwinding run_sim_spmd):
            // unwind this worker quietly; the scheduler's panic is the one
            // that reaches the user.
            panic!("sim scheduler terminated");
        }
        match self.reply_rx.recv() {
            Ok(r) => r,
            Err(_) => panic!("sim scheduler terminated"),
        }
    }
}

impl<M: Send> Comm<M> for SimCtx<M> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn n_procs(&self) -> usize {
        self.n_procs
    }

    fn send_faulty(&self, to: usize, msg: M) -> SendOutcome<M> {
        match self.rendezvous(Call::Send { to, msg }) {
            Reply::Sent => SendOutcome::Delivered,
            Reply::Dropped(m) => SendOutcome::Dropped(m),
            Reply::Closed(m) => SendOutcome::Closed(m),
            _ => unreachable!("sim: bad reply to send_faulty"),
        }
    }

    fn recv(&self) -> Envelope<M> {
        match self.rendezvous(Call::Recv) {
            Reply::Msg(env) => env,
            _ => unreachable!("sim: bad reply to recv"),
        }
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        match self.rendezvous(Call::TryRecv) {
            Reply::Msg(env) => Some(env),
            Reply::NoMsg => None,
            _ => unreachable!("sim: bad reply to try_recv"),
        }
    }
}

/// An in-flight message: sent, not yet delivered to its mailbox.
struct InFlight<M> {
    to: usize,
    env: Envelope<M>,
    /// Monotonic send order, so the policies can reason about message age
    /// ("oldest in flight", "head of the (from, to) pair's queue").
    seq: u64,
}

enum WorkerState<M> {
    /// Executing user code between comm calls.
    Running,
    /// Parked on a comm call, waiting for the scheduler.
    Parked(Call<M>),
    /// Closure returned or panicked.
    Done,
}

struct SchedulerState<M> {
    plan: FaultPlan,
    rng: SimRng,
    states: Vec<WorkerState<M>>,
    mailboxes: Vec<std::collections::VecDeque<Envelope<M>>>,
    net: Vec<InFlight<M>>,
    running: usize,
    live: usize,
    steps: u64,
    /// Send-order counter feeding [`InFlight::seq`].
    next_seq: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Service rank's parked call.
    Service(usize),
    /// Deliver net[i] to its mailbox.
    Deliver(usize),
}

impl<M: Clone> SchedulerState<M> {
    fn describe(&self) -> String {
        let mut s = String::new();
        for (r, st) in self.states.iter().enumerate() {
            let what = match st {
                WorkerState::Running => "running".to_string(),
                WorkerState::Parked(Call::Start) => "parked at start barrier".to_string(),
                WorkerState::Parked(Call::Recv) => {
                    format!("blocked in recv (mailbox: {})", self.mailboxes[r].len())
                }
                WorkerState::Parked(Call::Send { to, .. }) => format!("parked in send(to={to})"),
                WorkerState::Parked(Call::TryRecv) => "parked in try_recv".to_string(),
                WorkerState::Parked(Call::Finished) | WorkerState::Done => "finished".to_string(),
            };
            s.push_str(&format!("  rank {r}: {what}\n"));
        }
        s.push_str(&format!(
            "  in-flight messages: {}, steps executed: {}",
            self.net.len(),
            self.steps
        ));
        s
    }

    fn enabled_actions(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        for (r, st) in self.states.iter().enumerate() {
            if let WorkerState::Parked(call) = st {
                let serviceable = match call {
                    Call::Recv => !self.mailboxes[r].is_empty(),
                    Call::Start | Call::Send { .. } | Call::TryRecv => true,
                    Call::Finished => false,
                };
                if serviceable {
                    acts.push(Action::Service(r));
                }
            }
        }
        for i in 0..self.net.len() {
            acts.push(Action::Deliver(i));
        }
        acts
    }

    /// Applies the plan's [`SchedPolicy`] to the enabled set. Policies
    /// only *remove* candidates; when a filter would empty the set, the
    /// full set is restored so no policy can deadlock a live execution.
    fn policy_filter(&self, acts: Vec<Action>) -> Vec<Action> {
        let keep: Vec<Action> = match self.plan.policy {
            SchedPolicy::Uniform => return acts,
            SchedPolicy::StarveRank(r) => acts
                .iter()
                .copied()
                .filter(|a| !matches!(a, Action::Service(x) if *x == r))
                .collect(),
            SchedPolicy::DeliverLast => {
                let oldest = self
                    .net
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, m)| m.seq)
                    .map(|(i, _)| i);
                match oldest {
                    None => return acts,
                    Some(oldest) => acts
                        .iter()
                        .copied()
                        .filter(|a| !matches!(a, Action::Deliver(i) if *i == oldest))
                        .collect(),
                }
            }
            SchedPolicy::FifoPerPair => {
                // Only the head (lowest seq) of each (from, to) queue is
                // deliverable; computation actions are unconstrained.
                let mut heads: std::collections::HashMap<(usize, usize), usize> =
                    std::collections::HashMap::new();
                for (i, m) in self.net.iter().enumerate() {
                    let e = heads.entry((m.env.from, m.to)).or_insert(i);
                    if self.net[*e].seq > m.seq {
                        *e = i;
                    }
                }
                acts.iter()
                    .copied()
                    .filter(|a| match a {
                        Action::Deliver(i) => heads.values().any(|&h| h == *i),
                        Action::Service(_) => true,
                    })
                    .collect()
            }
        };
        if keep.is_empty() {
            acts
        } else {
            keep
        }
    }
}

/// Runs `n_procs` logical processors under the deterministic simulator
/// with the given fault plan; returns results in rank order.
///
/// A worker panic propagates to the caller after every other worker has
/// unwound, and the interleaving is a pure function of `plan`. A protocol deadlock — every live worker blocked in `recv`
/// with an empty network — panics with a per-rank state dump naming
/// `plan.seed` and `plan.policy`.
///
/// `M: Clone` is required so the duplicate-delivery fault can replicate a
/// message; with `duplicate_lossy == 0.0` no clone ever happens.
///
/// ```
/// use pastix_runtime::sim::{run_sim_spmd, FaultPlan};
/// use pastix_runtime::Comm;
/// let plan = FaultPlan::interleave_only(42);
/// let out = run_sim_spmd::<usize, usize, _>(3, &plan, |ctx| {
///     if ctx.rank() == 0 {
///         (1..ctx.n_procs()).map(|_| ctx.recv().msg).sum()
///     } else {
///         assert!(ctx.send_resilient(0, ctx.rank()));
///         0
///     }
/// });
/// assert_eq!(out[0], 3);
/// ```
pub fn run_sim_spmd<M, R, F>(n_procs: usize, plan: &FaultPlan, f: F) -> Vec<R>
where
    M: Send + Clone,
    R: Send,
    F: Fn(SimCtx<M>) -> R + Sync,
{
    assert!(n_procs >= 1);
    let (call_tx, call_rx) = channel::<(usize, Call<M>)>();
    let mut reply_txs: Vec<Sender<Reply<M>>> = Vec::with_capacity(n_procs);
    let mut contexts: Vec<SimCtx<M>> = Vec::with_capacity(n_procs);
    for rank in 0..n_procs {
        let (tx, rx) = channel();
        reply_txs.push(tx);
        contexts.push(SimCtx {
            rank,
            n_procs,
            call_tx: call_tx.clone(),
            reply_rx: rx,
        });
    }
    drop(call_tx);

    type Slot<R> = Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
    let results: Vec<Slot<R>> = (0..n_procs).map(|_| Mutex::new(None)).collect();
    let f = &f;

    std::thread::scope(|scope| {
        // Owned by this closure: dropping the reply senders (normal exit,
        // early return on a detected worker panic, or deadlock unwind) is
        // what unparks any still-blocked workers so the scope can join.
        let reply_txs = reply_txs;
        for ctx in contexts {
            let rank = ctx.rank;
            let finish_tx = ctx.call_tx.clone();
            let slot = &results[rank];
            scope.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    // Park before touching user code: from here on the
                    // scheduler serializes every instruction this worker
                    // executes, not just the stretch after its first
                    // comm call.
                    match ctx.rendezvous(Call::Start) {
                        Reply::Go => {}
                        _ => unreachable!("sim: bad reply to start barrier"),
                    }
                    f(ctx)
                }));
                *slot.lock().unwrap() = Some(out);
                // Best-effort: the scheduler may already be gone.
                let _ = finish_tx.send((rank, Call::Finished));
            });
        }

        let mut st = SchedulerState::<M> {
            plan: *plan,
            rng: SimRng::new(plan.seed),
            states: (0..n_procs).map(|_| WorkerState::Running).collect(),
            mailboxes: (0..n_procs)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            net: Vec::new(),
            running: n_procs,
            live: n_procs,
            steps: 0,
            next_seq: 0,
        };

        loop {
            // Phase 1: wait until every live worker is parked (or done), so
            // the OS thread scheduler cannot influence the choice below.
            while st.running > 0 {
                let (rank, call) = call_rx
                    .recv()
                    .expect("sim: all workers vanished without finishing");
                st.running -= 1;
                match call {
                    Call::Finished => {
                        st.states[rank] = WorkerState::Done;
                        st.live -= 1;
                        // Undelivered traffic to a dead worker can never be
                        // observed; drop it so it doesn't count as progress.
                        st.net.retain(|m| m.to != rank);
                    }
                    call => st.states[rank] = WorkerState::Parked(call),
                }
            }

            if st.live == 0 {
                break;
            }

            // Phase 2: pick one enabled action with the seeded RNG.
            let actions = st.enabled_actions();
            if actions.is_empty() {
                // Every live worker is blocked in recv and nothing is in
                // flight. If a worker panicked, that is the root cause:
                // re-raise it instead of reporting a secondary deadlock.
                for slot in &results {
                    if let Some(Err(_)) = &*slot.lock().unwrap() {
                        // Dropping the scheduler (reply senders) unparks the
                        // blocked workers; propagate after scope join below.
                        return;
                    }
                }
                panic!(
                    "sim deadlock (seed {}, policy {:?}): every live worker is blocked and the network is empty\n{}",
                    st.plan.seed,
                    st.plan.policy,
                    st.describe()
                );
            }
            st.steps += 1;
            let actions = st.policy_filter(actions);
            let pick = st.rng.below(actions.len());
            match actions[pick] {
                Action::Deliver(i) => {
                    let m = st.net.remove(i);
                    if st.rng.chance(st.plan.duplicate_lossy) {
                        st.mailboxes[m.to].push_back(m.env.clone());
                    }
                    st.mailboxes[m.to].push_back(m.env);
                }
                Action::Service(rank) => {
                    let call =
                        std::mem::replace(&mut st.states[rank], WorkerState::Running);
                    let WorkerState::Parked(call) = call else {
                        unreachable!("sim: serviced a non-parked worker")
                    };
                    let reply = match call {
                        Call::Start => Reply::Go,
                        Call::Send { to, msg } => {
                            if matches!(st.states[to], WorkerState::Done) {
                                Reply::Closed(msg)
                            } else if st.rng.chance(st.plan.drop_lossy) {
                                Reply::Dropped(msg)
                            } else {
                                st.net.push(InFlight {
                                    to,
                                    env: Envelope { from: rank, msg },
                                    seq: st.next_seq,
                                });
                                st.next_seq += 1;
                                Reply::Sent
                            }
                        }
                        Call::Recv => {
                            let env = st.mailboxes[rank]
                                .pop_front()
                                .expect("sim: recv serviced with empty mailbox");
                            Reply::Msg(env)
                        }
                        Call::TryRecv => match st.mailboxes[rank].pop_front() {
                            Some(env) => Reply::Msg(env),
                            None => Reply::NoMsg,
                        },
                        Call::Finished => unreachable!("sim: Finished is never serviceable"),
                    };
                    st.running += 1;
                    if reply_txs[rank].send(reply).is_err() {
                        // Worker died between parking and service — only
                        // possible if its thread was killed externally.
                        panic!("sim: worker {rank} vanished while parked");
                    }
                }
            }
        }
    });

    // All threads joined. Propagate the first *root-cause* panic (by
    // rank) if any: workers unwound by scheduler teardown carry the
    // internal "sim scheduler terminated" sentinel and are secondary.
    let is_teardown = |p: &Box<dyn Any + Send>| {
        p.downcast_ref::<&str>()
            .is_some_and(|s| *s == "sim scheduler terminated")
    };
    let mut out = Vec::with_capacity(n_procs);
    let mut root_cause: Option<Box<dyn Any + Send>> = None;
    let mut teardown: Option<Box<dyn Any + Send>> = None;
    for slot in results {
        match slot.into_inner().unwrap() {
            Some(Ok(r)) => out.push(r),
            Some(Err(p)) => {
                if is_teardown(&p) {
                    teardown.get_or_insert(p);
                } else {
                    root_cause.get_or_insert(p);
                }
            }
            None => {
                root_cause.get_or_insert(Box::new(
                    "sim: worker exited without recording a result".to_string(),
                ));
            }
        }
    }
    if let Some(p) = root_cause.or(teardown) {
        std::panic::resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ring_pass_many_seeds() {
        for seed in 0..50 {
            let plan = FaultPlan::interleave_only(seed);
            let results = run_sim_spmd::<usize, usize, _>(4, &plan, |ctx| {
                let next = (ctx.rank() + 1) % ctx.n_procs();
                assert!(ctx.send_resilient(next, ctx.rank() * 10));
                ctx.recv().msg
            });
            assert_eq!(results, vec![30, 0, 10, 20], "seed {seed}");
        }
    }

    #[test]
    fn interleaving_is_reproducible() {
        // The arrival order at rank 0 is seed-dependent but identical
        // across replays of the same seed.
        let observe = |seed: u64| {
            let plan = FaultPlan::interleave_only(seed);
            run_sim_spmd::<u32, Vec<u32>, _>(4, &plan, |ctx| {
                if ctx.rank() == 0 {
                    (0..6).map(|_| ctx.recv().msg).collect()
                } else {
                    assert!(ctx.send_resilient(0, ctx.rank() as u32 * 100));
                    assert!(ctx.send_resilient(0, ctx.rank() as u32 * 100 + 1));
                    vec![]
                }
            })
        };
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..30 {
            let a = observe(seed);
            let b = observe(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            distinct.insert(a[0].clone());
        }
        // Sanity: chaos really does vary the interleaving across seeds.
        assert!(
            distinct.len() > 3,
            "expected many distinct arrival orders, got {}",
            distinct.len()
        );
    }

    #[test]
    fn drop_lossy_always_drops_at_p1() {
        let plan = FaultPlan::builder(3).drop_lossy(1.0).build();
        let results = run_sim_spmd::<u8, bool, _>(2, &plan, |ctx| {
            if ctx.rank() == 0 {
                // Must report the drop (or the peer's exit).
                !matches!(ctx.send_faulty(1, 9), SendOutcome::Delivered)
            } else {
                ctx.try_recv().is_none() // and nothing may arrive
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn duplicate_lossy_delivers_twice() {
        let plan = FaultPlan::builder(11).duplicate_lossy(1.0).build();
        let results = run_sim_spmd::<u8, usize, _>(2, &plan, |ctx| {
            if ctx.rank() == 0 {
                assert!(ctx.send_resilient(1, 9));
                0
            } else {
                let a = ctx.recv();
                let b = ctx.recv();
                assert_eq!((a.from, a.msg), (0, 9));
                assert_eq!((b.from, b.msg), (0, 9));
                2
            }
        });
        assert_eq!(results[1], 2);
    }

    #[test]
    fn send_lossy_false_after_peer_done() {
        let plan = FaultPlan::interleave_only(1);
        let results = run_sim_spmd::<u8, bool, _>(2, &plan, |ctx| {
            if ctx.rank() == 1 {
                return true;
            }
            // Rank 1 performs no comm calls: it finishes as soon as the
            // scheduler hears from it. Keep sending until then.
            loop {
                if !ctx.send_resilient(1, 1) {
                    return true;
                }
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn deadlock_is_detected_with_seed() {
        let caught = std::panic::catch_unwind(|| {
            let plan = FaultPlan::interleave_only(77);
            run_sim_spmd::<u8, (), _>(2, &plan, |ctx| {
                // Both ranks wait forever.
                let _ = ctx.recv();
            });
        });
        let payload = caught.expect_err("must deadlock");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("sim deadlock (seed 77, policy Uniform)"),
            "got: {msg:?}"
        );
        assert!(msg.contains("blocked in recv"), "got: {msg:?}");
    }

    #[test]
    fn deadlock_dump_names_adversarial_policy() {
        let caught = std::panic::catch_unwind(|| {
            let plan = FaultPlan::builder(9)
                .policy(SchedPolicy::StarveRank(1))
                .build();
            run_sim_spmd::<u8, (), _>(2, &plan, |ctx| {
                let _ = ctx.recv();
            });
        });
        let msg = caught
            .expect_err("must deadlock")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("sim deadlock (seed 9, policy StarveRank(1))"),
            "got: {msg:?}"
        );
    }

    #[test]
    fn worker_panic_propagates_after_unwind() {
        let caught = std::panic::catch_unwind(|| {
            let plan = FaultPlan::interleave_only(13);
            run_sim_spmd::<u8, (), _>(3, &plan, |ctx| {
                if ctx.rank() == 1 {
                    panic!("injected chaos panic");
                }
                // Others block forever: the runtime must still unwind them.
                let _ = ctx.recv();
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected chaos panic"), "got: {msg:?}");
    }

    #[test]
    fn fifo_per_pair_delivers_in_send_order() {
        // Under FifoPerPair every (sender, receiver) pair is a FIFO
        // channel: the per-sender subsequence at rank 0 must match send
        // order for every seed, even though senders interleave freely.
        for seed in 0..25 {
            let plan = FaultPlan::builder(seed)
                .policy(SchedPolicy::FifoPerPair)
                .build();
            let results = run_sim_spmd::<u32, Vec<(usize, u32)>, _>(3, &plan, |ctx| {
                if ctx.rank() == 0 {
                    (0..10).map(|_| ctx.recv()).map(|e| (e.from, e.msg)).collect()
                } else {
                    for i in 0..5u32 {
                        assert!(ctx.send_resilient(0, i));
                    }
                    vec![]
                }
            });
            for sender in 1..3 {
                let per_sender: Vec<u32> = results[0]
                    .iter()
                    .filter(|(f, _)| *f == sender)
                    .map(|(_, m)| *m)
                    .collect();
                assert_eq!(per_sender, vec![0, 1, 2, 3, 4], "seed {seed} sender {sender}");
            }
        }
    }

    #[test]
    fn uniform_policy_does_reorder_per_pair() {
        // Control for the FifoPerPair test: uniform sampling must produce
        // at least one out-of-order per-pair delivery across these seeds,
        // otherwise the "nice network" policy is indistinguishable.
        let mut reordered = false;
        for seed in 0..25 {
            let plan = FaultPlan::interleave_only(seed);
            let results = run_sim_spmd::<u32, Vec<u32>, _>(2, &plan, |ctx| {
                if ctx.rank() == 0 {
                    (0..8).map(|_| ctx.recv().msg).collect()
                } else {
                    for i in 0..8u32 {
                        assert!(ctx.send_resilient(0, i));
                    }
                    vec![]
                }
            });
            if results[0].windows(2).any(|w| w[0] > w[1]) {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "uniform policy never reordered a pair in 25 seeds");
    }

    #[test]
    fn starve_rank_defers_victim_progress() {
        // Rank 1 (the victim) sends to rank 0 while rank 2 floods rank 0
        // with traffic. Under StarveRank(1) the victim's message must
        // arrive after all of rank 2's, because rank 1 is only serviced
        // when nothing else can run.
        for seed in 0..25 {
            let plan = FaultPlan::builder(seed)
                .policy(SchedPolicy::StarveRank(1))
                .build();
            let results = run_sim_spmd::<u32, Vec<usize>, _>(3, &plan, |ctx| {
                match ctx.rank() {
                    0 => (0..7).map(|_| ctx.recv().from).collect(),
                    1 => {
                        assert!(ctx.send_resilient(0, 999));
                        vec![]
                    }
                    _ => {
                        for i in 0..6u32 {
                            assert!(ctx.send_resilient(0, i));
                        }
                        vec![]
                    }
                }
            });
            let pos_victim = results[0].iter().position(|&f| f == 1).unwrap();
            assert_eq!(
                pos_victim, 6,
                "seed {seed}: victim serviced before the starver drained: {:?}",
                results[0]
            );
        }
    }

    #[test]
    fn every_policy_is_deterministic_and_agrees_on_results() {
        // Same (seed, policy) → identical observable run; and policies
        // never change the *converged values* of a correct protocol.
        let run = |plan: FaultPlan| {
            run_sim_spmd::<u64, u64, _>(4, &plan, |ctx| {
                let next = (ctx.rank() + 1) % ctx.n_procs();
                assert!(ctx.send_resilient(next, ctx.rank() as u64 * 3));
                ctx.recv().msg
            })
        };
        let policies = [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(2),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ];
        for seed in 0..10 {
            let baseline = run(FaultPlan::builder(seed).build());
            for policy in policies {
                let plan = FaultPlan::builder(seed).policy(policy).build();
                assert_eq!(run(plan), run(plan), "seed {seed} policy {policy:?} replay");
                assert_eq!(run(plan), baseline, "seed {seed} policy {policy:?} values");
            }
        }
    }

    #[test]
    fn single_proc_sim() {
        let plan = FaultPlan::interleave_only(0);
        let results = run_sim_spmd::<(), usize, _>(1, &plan, |ctx| ctx.n_procs());
        assert_eq!(results, vec![1]);
    }
}
