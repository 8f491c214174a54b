//! Property tests for the adversarial scheduling policies.
//!
//! The simulator's contract is that a `SchedPolicy` only reshapes the
//! *interleaving* — which enabled action fires next — never the *values* a
//! correct program computes. These tests drive a point-to-point exchange
//! over the lossy channel: every rank `send_resilient`s one value to every
//! peer, and each receiver keeps the first copy per sender (drops are
//! retried by the sender, duplicates discarded by the receiver, the way
//! the solver's lossy traffic is handled). Under every policy, with lossy
//! faults enabled, the kept values are identical to the uniform baseline,
//! across randomly drawn seeds, world sizes, and fault rates.

use pastix_runtime::sim::{run_sim_spmd, FaultPlan, SchedPolicy};
use pastix_runtime::Comm;
use proptest::prelude::*;

/// What one rank observed: the value kept from each sender (its own slot
/// stays 0), and every arrival's sender in arrival order, duplicates
/// included.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    kept: Vec<i64>,
    arrivals: Vec<usize>,
}

/// The value rank `from` sends to rank `to`.
fn value(from: usize, to: usize) -> i64 {
    (from * 100 + to) as i64 + 1
}

/// One SPMD exchange: all-to-all over the lossy channel, first copy per
/// sender kept. Every send is accepted before its receiver can finish, so
/// `send_resilient` never meets a closed peer.
fn run_exchange(n_procs: usize, plan: FaultPlan) -> Vec<Observed> {
    run_sim_spmd(n_procs, &plan, |ctx| {
        let me = ctx.rank();
        for to in (0..n_procs).filter(|&q| q != me) {
            assert!(ctx.send_resilient(to, value(me, to)), "rank {me} -> {to}: peer closed");
        }
        let mut seen = vec![false; n_procs];
        seen[me] = true;
        let mut obs = Observed { kept: vec![0; n_procs], arrivals: Vec::new() };
        while seen.iter().any(|&s| !s) {
            let env = ctx.recv();
            obs.arrivals.push(env.from);
            if !std::mem::replace(&mut seen[env.from], true) {
                obs.kept[env.from] = env.msg;
            }
        }
        obs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every `SchedPolicy`, the kept values are identical to the
    /// uniform policy on the same seed — adversarial scheduling may
    /// starve, reorder, or FIFO-restrict delivery but never change results.
    #[test]
    fn every_policy_matches_uniform_exchange(
        seed in 0u64..100_000,
        n_procs in 2usize..5,
        drop in 0.0f64..0.35,
        dup in 0.0f64..0.35,
        victim in 0usize..8,
    ) {
        let base_plan = FaultPlan::builder(seed)
            .drop_lossy(drop)
            .duplicate_lossy(dup)
            .build();
        let kept = |obs: &[Observed]| obs.iter().map(|o| o.kept.clone()).collect::<Vec<_>>();
        let baseline = kept(&run_exchange(n_procs, base_plan));
        prop_assert_eq!(baseline.len(), n_procs);
        for (to, row) in baseline.iter().enumerate() {
            for (from, &v) in row.iter().enumerate() {
                let want = if from == to { 0 } else { value(from, to) };
                prop_assert_eq!(v, want, "rank {} from {} under Uniform", to, from);
            }
        }
        let policies = [
            SchedPolicy::Uniform,
            SchedPolicy::StarveRank(victim % n_procs),
            SchedPolicy::DeliverLast,
            SchedPolicy::FifoPerPair,
        ];
        for policy in policies {
            let plan = FaultPlan::builder(seed)
                .drop_lossy(drop)
                .duplicate_lossy(dup)
                .policy(policy)
                .build();
            let got = kept(&run_exchange(n_procs, plan));
            prop_assert_eq!(
                &got, &baseline,
                "policy {:?} diverged from Uniform (seed {}, p={}, drop={}, dup={})",
                policy, seed, n_procs, drop, dup
            );
        }
    }

    /// Same `(seed, policy)` replays the same execution, arrival order and
    /// duplicates included: the whole point of the deadlock dump naming
    /// the pair is that it is sufficient to replay.
    #[test]
    fn seed_policy_pair_replays_identically(
        seed in 0u64..100_000,
        n_procs in 2usize..5,
        which in 0usize..4,
    ) {
        let policy = match which {
            0 => SchedPolicy::Uniform,
            1 => SchedPolicy::StarveRank(seed as usize % n_procs),
            2 => SchedPolicy::DeliverLast,
            _ => SchedPolicy::FifoPerPair,
        };
        let plan = FaultPlan::builder(seed)
            .drop_lossy(0.2)
            .duplicate_lossy(0.2)
            .policy(policy)
            .build();
        let a = run_exchange(n_procs, plan);
        let b = run_exchange(n_procs, plan);
        prop_assert_eq!(a, b, "replay of (seed {}, policy {:?}) diverged", seed, policy);
    }
}
