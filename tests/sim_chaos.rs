//! Seeded chaos suite for the fan-in/fan-both solver on the deterministic
//! simulation runtime.
//!
//! Every execution here is a pure function of its printed `(seed, policy)`
//! pair: the simulator serializes the logical processors and lets a seeded
//! RNG pick among the actions the [`SchedPolicy`] leaves enabled, so any
//! failure this suite ever finds is replayed exactly by re-running with
//! the same fault plan (see README § Testing). Failure diagnostics print
//! the replayable `(seed, policy, schedule digest)` triple.
//!
//! Scaling knobs:
//! * `PASTIX_CHAOS_SEEDS` — total seeded interleavings of the agreement
//!   sweeps (default 216; CI smoke uses 50).
//! * `PASTIX_CHAOS_POLICY` — scheduling policy of the main sweep:
//!   `uniform` (default), `starve` (victim = seed % procs),
//!   `deliver-last`, or `fifo`. CI runs the sweep once per policy.

use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
use pastix::graph::{canonical_solution, rhs_for_solution, SymCsc};
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{run_sim_spmd, FaultPlan, SchedPolicy, SimRng};
use pastix::runtime::{Backend, Comm, SendOutcome, TaskOrder};
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions, TaskKind};
use pastix::solver::{
    factorize_sequential, solve_in_place, ChaosOptions, DynamicOptions, FactorStorage, Plan,
    SolverConfig,
};
use pastix::symbolic::{analyze, AnalysisOptions};

/// One prepared problem × processor-count case with its sequential
/// reference factor and solution.
struct Case {
    name: &'static str,
    procs: usize,
    ap: SymCsc<f64>,
    mapping: Mapping,
    /// `perm: None` plan over the same graph/schedule: `ap` is already in
    /// elimination order.
    plan: Plan,
    seq: FactorStorage<f64>,
    b: Vec<f64>,
    x_seq: Vec<f64>,
}

impl Case {
    /// The replayable failure triple plus the builder call reproducing the
    /// plan — everything a developer needs to replay a red run.
    fn diag(&self, plan: &FaultPlan) -> String {
        format!(
            "[chaos seed {}, policy {:?}, schedule digest {:#018x}, problem {}, procs {}] — \
             replay: FaultPlan::builder({}).drop_lossy({:?}).duplicate_lossy({:?})\
             .policy(SchedPolicy::{:?}).build()",
            plan.seed,
            plan.policy,
            self.mapping.schedule.digest(),
            self.name,
            self.procs,
            plan.seed,
            plan.drop_lossy,
            plan.duplicate_lossy,
            plan.policy
        )
    }

    /// Simulated factorize + solve under `opts`, checked entry-for-entry
    /// against the sequential references.
    fn check_against_sequential(&self, opts: &SolverConfig, diag: &str) {
        let par = self
            .plan
            .factorize(&self.ap, opts)
            .unwrap_or_else(|e| panic!("{diag}: factorization failed: {e:?}"));
        let mut max_diff = 0.0f64;
        for (pa, pb) in par.panels.iter().zip(&self.seq.panels) {
            for (x, y) in pa.iter().zip(pb) {
                max_diff = max_diff.max((x - y).abs());
            }
        }
        assert!(max_diff < 1e-8, "{diag}: factor deviation {max_diff}");
        let x_par = par.solve(&self.b);
        for (u, v) in x_par.iter().zip(&self.x_seq) {
            assert!(
                (u - v).abs() < 1e-9,
                "{diag}: solve deviates: parallel {u} vs sequential {v}"
            );
        }
        let res = self.ap.residual_norm(&x_par, &self.b);
        assert!(res < 1e-12, "{diag}: residual {res}");
    }
}

fn build_case(
    name: &'static str,
    (nx, ny, nz): (usize, usize, usize),
    strategy: DistStrategy,
    block: usize,
    procs: usize,
) -> Case {
    let a = grid_spd::<f64>(nx, ny, nz, Stencil::Star, false, ValueKind::RandomSpd(97));
    let g = a.to_graph();
    let ord = nested_dissection(
        &g,
        &OrderingOptions {
            leaf_size: 8,
            ..Default::default()
        },
    );
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let machine = MachineModel::sp2(procs);
    let mut opts = SchedOptions::default();
    opts.block_size = block;
    opts.mapping.strategy = strategy;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 4;
    let mapping = map_and_schedule(&an.symbol, &machine, &opts);
    let ap = a.permuted(&an.perm);
    let sym = &mapping.graph.split.symbol;
    let mut seq = FactorStorage::zeros(sym);
    seq.scatter(sym, &ap);
    factorize_sequential(sym, &mut seq).unwrap();
    let x_exact = canonical_solution::<f64>(ap.n());
    let b = rhs_for_solution(&ap, &x_exact);
    let mut x_seq = b.clone();
    solve_in_place(sym, &seq, &mut x_seq);
    let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
    Case {
        name,
        procs,
        ap,
        mapping,
        plan,
        seq,
        b,
        x_seq,
    }
}

type ProblemSpec = (&'static str, (usize, usize, usize), DistStrategy, usize);

/// The 3 problems × 3 processor counts matrix of the sweep.
fn build_matrix() -> Vec<Case> {
    let problems: [ProblemSpec; 3] = [
        ("grid6x6-1d", (6, 6, 1), DistStrategy::Only1d, 4),
        ("grid8x8-mixed", (8, 8, 1), DistStrategy::Mixed1d2d, 4),
        ("grid3x3x3-mixed", (3, 3, 3), DistStrategy::Mixed1d2d, 4),
    ];
    let mut cases = Vec::new();
    for &(name, dims, strategy, block) in &problems {
        for procs in [2usize, 3, 4] {
            cases.push(build_case(name, dims, strategy, block, procs));
        }
    }
    cases
}

fn seed_budget(default_total: usize) -> usize {
    std::env::var("PASTIX_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_total)
        .max(1)
}

/// Resolves `PASTIX_CHAOS_POLICY` for one `(seed, procs)` point of the
/// sweep; `starve` picks its victim from the seed so the whole sweep does
/// not fixate on one rank.
fn sweep_policy(seed: u64, procs: usize) -> SchedPolicy {
    match std::env::var("PASTIX_CHAOS_POLICY").ok().as_deref() {
        None | Some("uniform") => SchedPolicy::Uniform,
        Some("starve") => SchedPolicy::StarveRank(seed as usize % procs),
        Some("deliver-last") => SchedPolicy::DeliverLast,
        Some("fifo") => SchedPolicy::FifoPerPair,
        Some(other) => panic!(
            "unknown PASTIX_CHAOS_POLICY {other:?} (use uniform | starve | deliver-last | fifo)"
        ),
    }
}

/// (a) The agreement sweep: across seeds × problems × proc counts, the
/// simulated factorization and distributed solve must match the
/// sequential solver entry for entry. `PASTIX_CHAOS_POLICY` reruns the
/// whole sweep under an adversarial scheduling policy.
#[test]
fn chaos_factorization_and_solve_agree_with_sequential() {
    let cases = build_matrix();
    let total = seed_budget(216);
    for i in 0..total {
        let case = &cases[i % cases.len()];
        let seed = i as u64;
        let plan = FaultPlan::builder(seed)
            .policy(sweep_policy(seed, case.procs))
            .build();
        let opts = SolverConfig {
            backend: Backend::Sim(plan),
            ..Default::default()
        };
        case.check_against_sequential(&opts, &case.diag(&plan));
    }
}

/// (a') The adversarial agreement sweep: the same seed budget split across
/// `StarveRank` and `DeliverLast`, independent of `PASTIX_CHAOS_POLICY` —
/// starving one rank or always delivering the freshest message must never
/// change what the solver computes.
#[test]
fn chaos_adversarial_policies_agree_with_sequential() {
    let cases = build_matrix();
    let total = seed_budget(216);
    for i in 0..total {
        let case = &cases[i % cases.len()];
        let seed = 0xADE_0000 + i as u64;
        let policy = if i % 2 == 0 {
            SchedPolicy::StarveRank(seed as usize % case.procs)
        } else {
            SchedPolicy::DeliverLast
        };
        let plan = FaultPlan::builder(seed).policy(policy).build();
        let opts = SolverConfig {
            backend: Backend::Sim(plan),
            ..Default::default()
        };
        case.check_against_sequential(&opts, &case.diag(&plan));
    }
}

/// (a'') Fan-Both partial aggregation under a punishing memory cap, with
/// lossy faults (drops reported to the sender, duplicate deliveries) and
/// every scheduling policy: AUB flushes are retried on drop and deduped on
/// duplication, so the factorization stays exact.
#[test]
fn chaos_fan_both_lossy_under_every_policy() {
    let cases = [
        build_case("grid8x8-mixed", (8, 8, 1), DistStrategy::Mixed1d2d, 4, 3),
        build_case("grid3x3x3-mixed", (3, 3, 3), DistStrategy::Mixed1d2d, 4, 4),
    ];
    let per_policy = seed_budget(216).div_ceil(27).max(4);
    for (c, case) in cases.iter().enumerate() {
        for p in 0..4usize {
            for i in 0..per_policy {
                let seed = 0xFB_0000 + (((c * 4 + p) * per_policy + i) as u64);
                let policy = match p {
                    0 => SchedPolicy::Uniform,
                    1 => SchedPolicy::StarveRank(seed as usize % case.procs),
                    2 => SchedPolicy::DeliverLast,
                    _ => SchedPolicy::FifoPerPair,
                };
                let plan = FaultPlan::builder(seed)
                    .drop_lossy(0.25)
                    .duplicate_lossy(0.25)
                    .policy(policy)
                    .build();
                let opts = SolverConfig {
                    backend: Backend::Sim(plan),
                    // Punishing cap: forces many partial AUB flushes, so
                    // drops/duplicates hit the aggregation path itself.
                    aub_memory_limit: Some(16),
                    ..Default::default()
                };
                case.check_against_sequential(&opts, &case.diag(&plan));
            }
        }
    }
}

/// (a''') The `Backend::Dynamic` agreement sweep: the work-stealing DAG
/// executor, run under its deterministic sim serialization with every
/// scheduling policy (and both with and without priority hints), must
/// reproduce the sequential factor and solution within the same
/// tolerances as the SPMD backends. Dynamic execution accumulates
/// contributions in a data-dependent order, so agreement is entrywise
/// within tolerance rather than bitwise.
#[test]
fn chaos_dynamic_backend_agrees_with_sequential_under_every_policy() {
    let cases = build_matrix();
    let per_policy = seed_budget(216).div_ceil(27).max(4);
    for (p, base_policy) in [
        SchedPolicy::Uniform,
        SchedPolicy::StarveRank(0),
        SchedPolicy::DeliverLast,
        SchedPolicy::FifoPerPair,
    ]
    .into_iter()
    .enumerate()
    {
        for i in 0..per_policy {
            let case = &cases[(p * per_policy + i) % cases.len()];
            let seed = 0xD1A_0000 + ((p * per_policy + i) as u64);
            let policy = match base_policy {
                SchedPolicy::StarveRank(_) => SchedPolicy::StarveRank(seed as usize % case.procs),
                other => other,
            };
            let plan = FaultPlan::builder(seed).policy(policy).build();
            let dopts = DynamicOptions::new()
                .with_workers(case.procs)
                .with_order(if i % 2 == 1 { TaskOrder::Hints } else { TaskOrder::Fifo })
                .with_sim(plan);
            let opts = SolverConfig {
                backend: Backend::Dynamic(dopts),
                ..Default::default()
            };
            case.check_against_sequential(&opts, &format!("[dynamic] {}", case.diag(&plan)));
        }
    }
}

/// `Backend::Dynamic` on real worker threads (no sim serialization), both
/// with and without the static schedule's placement/priority hints.
#[test]
fn dynamic_backend_on_threads_agrees_with_sequential() {
    let cases = build_matrix();
    for (i, case) in cases.iter().enumerate() {
        let dopts = DynamicOptions::new()
            .with_workers(case.procs)
            .with_order(if i % 2 == 0 { TaskOrder::Hints } else { TaskOrder::Fifo });
        let opts = SolverConfig {
            backend: Backend::Dynamic(dopts),
            ..Default::default()
        };
        let diag = format!("[dynamic threads, problem {}, procs {}]", case.name, case.procs);
        case.check_against_sequential(&opts, &diag);
    }
}

/// Zero-pivot injection aborts the dynamic executor cleanly under every
/// sim policy — the error surfaces, nothing deadlocks.
#[test]
fn chaos_dynamic_zero_pivot_aborts_cleanly() {
    let case = build_case("grid8x8-mixed", (8, 8, 1), DistStrategy::Mixed1d2d, 4, 3);
    let graph = &case.mapping.graph;
    let candidates: Vec<u32> = (0..graph.n_tasks() as u32)
        .filter(|&t| {
            matches!(
                graph.kinds[t as usize],
                TaskKind::Comp1d { .. } | TaskKind::Factor { .. }
            )
        })
        .collect();
    for (p, policy) in [
        SchedPolicy::Uniform,
        SchedPolicy::StarveRank(1),
        SchedPolicy::DeliverLast,
        SchedPolicy::FifoPerPair,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 0x00DE_ADD1_u64 + p as u64;
        let mut rng = SimRng::new(seed);
        let victim = candidates[rng.below(candidates.len())];
        let plan = FaultPlan::builder(seed).policy(policy).build();
        let opts = SolverConfig {
            backend: Backend::Dynamic(DynamicOptions::new().with_sim(plan)),
            chaos: ChaosOptions {
                zero_pivot_task: Some(victim),
                ..Default::default()
            },
            ..Default::default()
        };
        let res = case.plan.factorize(&case.ap, &opts);
        assert!(
            res.is_err(),
            "[dynamic] {}: injected zero pivot at task {victim} was not reported",
            case.diag(&plan)
        );
    }
}

/// The replay guarantee itself: same `(seed, policy)` → bit-identical
/// factor and solution, including under an adversarial policy with lossy
/// faults enabled.
#[test]
fn chaos_same_seed_replays_identically() {
    let case = build_case("grid8x8-mixed", (8, 8, 1), DistStrategy::Mixed1d2d, 4, 3);
    let plans = [
        FaultPlan::builder(1).build(),
        FaultPlan::builder(17).policy(SchedPolicy::DeliverLast).build(),
        FaultPlan::builder(4242)
            .drop_lossy(0.3)
            .duplicate_lossy(0.3)
            .policy(SchedPolicy::StarveRank(2))
            .build(),
    ];
    for plan in plans {
        let opts = SolverConfig {
            backend: Backend::Sim(plan),
            ..Default::default()
        };
        let run = || {
            let f = case.plan.factorize(&case.ap, &opts).unwrap();
            let x = f.solve(&case.b);
            (f, x)
        };
        let (f1, x1) = run();
        let (f2, x2) = run();
        // Bit-identical, not approximately equal: the execution replayed.
        assert_eq!(
            x1,
            x2,
            "{}: solve not replayed bit-identically",
            case.diag(&plan)
        );
        for (pa, pb) in f1.panels.iter().zip(&f2.panels) {
            assert!(
                pa.iter().zip(pb).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{}: factor not replayed bit-identically",
                case.diag(&plan)
            );
        }
    }
}

/// (b) Abort propagation: an injected zero pivot at a seed-chosen task
/// must terminate every interleaving cleanly under every scheduling
/// policy — every worker unwinds with the error, nobody deadlocks (a sim
/// deadlock panics with the `(seed, policy)` pair).
#[test]
fn chaos_zero_pivot_abort_always_terminates_cleanly() {
    let cases = build_matrix();
    let total = seed_budget(216).div_ceil(4).max(24);
    for i in 0..total {
        let case = &cases[i % cases.len()];
        let seed = 0x5EED_0000 + i as u64;
        // Seed-pick a factorization-bearing task (COMP1D or FACTOR head).
        let graph = &case.mapping.graph;
        let candidates: Vec<u32> = (0..graph.n_tasks() as u32)
            .filter(|&t| {
                matches!(
                    graph.kinds[t as usize],
                    TaskKind::Comp1d { .. } | TaskKind::Factor { .. }
                )
            })
            .collect();
        let mut rng = SimRng::new(seed);
        let victim = candidates[rng.below(candidates.len())];
        let policy = match i % 4 {
            0 => SchedPolicy::Uniform,
            1 => SchedPolicy::StarveRank(seed as usize % case.procs),
            2 => SchedPolicy::DeliverLast,
            _ => SchedPolicy::FifoPerPair,
        };
        let plan = FaultPlan::builder(seed).policy(policy).build();
        let opts = SolverConfig {
            backend: Backend::Sim(plan),
            chaos: ChaosOptions {
                zero_pivot_task: Some(victim),
                ..Default::default()
            },
            ..Default::default()
        };
        let res = case.plan.factorize(&case.ap, &opts);
        assert!(
            res.is_err(),
            "{}: injected zero pivot at task {victim} was not reported",
            case.diag(&plan)
        );
    }
}

/// (b') Crash injection: a worker panicking mid-schedule must unwind the
/// whole simulated machine and surface the original panic — never hang
/// the other workers.
#[test]
fn chaos_worker_panic_unwinds_whole_machine() {
    let case = build_case("grid8x8-mixed", (8, 8, 1), DistStrategy::Mixed1d2d, 4, 4);
    for i in 0..12u64 {
        let seed = 0xDEAD_0000 + i;
        let mut rng = SimRng::new(seed);
        let rank = rng.below(case.procs) as u32;
        let n_local = case.mapping.schedule.proc_tasks[rank as usize].len();
        if n_local == 0 {
            continue;
        }
        let idx = rng.below(n_local);
        let plan = FaultPlan::builder(seed).build();
        let opts = SolverConfig {
            backend: Backend::Sim(plan),
            chaos: ChaosOptions {
                panic_at: Some((rank, idx)),
                ..Default::default()
            },
            ..Default::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = case.plan.factorize(&case.ap, &opts);
        }));
        let payload = caught.expect_err("injected panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default()
            });
        assert!(
            msg.contains("chaos: injected panic"),
            "{}: expected the injected panic, got: {msg:?}",
            case.diag(&plan)
        );
    }
}

/// Duplicate-delivery fault: with `duplicate_lossy = 1.0` every sent
/// message arrives exactly twice — the runtime does not deduplicate, so a
/// receiver that counts arrivals can verify at-least-once semantics
/// exactly.
#[test]
fn chaos_duplicate_lossy_delivers_exactly_twice() {
    const TAGS: u32 = 6;
    for i in 0..20u64 {
        let seed = 0xD0_0000 + i;
        let plan = FaultPlan::builder(seed).duplicate_lossy(1.0).build();
        let results = run_sim_spmd::<u32, Vec<u32>, _>(2, &plan, |ctx| {
            if ctx.rank() == 0 {
                for tag in 0..TAGS {
                    assert!(ctx.send_resilient(1, tag));
                }
                return vec![];
            }
            let mut counts = vec![0u32; TAGS as usize];
            for _ in 0..2 * TAGS {
                let env = ctx.recv();
                counts[env.msg as usize] += 1;
            }
            assert!(ctx.try_recv().is_none(), "more than two copies in flight");
            counts
        });
        assert_eq!(results[1], vec![2u32; TAGS as usize], "seed {seed}");
    }
}

/// Drop fault: with `drop_lossy = 1.0` every send reports to the sender
/// that it was not delivered (dropped, or the peer already exited) and
/// nothing ever arrives — the sender-visible outcome the solver's abort
/// protocol relies on.
#[test]
fn chaos_dropped_lossy_reports_to_sender() {
    for i in 0..20u64 {
        let seed = 0xD60_0000 + i;
        let plan = FaultPlan::builder(seed).drop_lossy(1.0).build();
        let results = run_sim_spmd::<u32, bool, _>(2, &plan, |ctx| {
            if ctx.rank() == 0 {
                (0..8).all(|t| !matches!(ctx.send_faulty(1, t), SendOutcome::Delivered))
            } else {
                ctx.try_recv().is_none()
            }
        });
        assert_eq!(results, vec![true, true], "seed {seed}");
    }
}


/// (g) Paper-adjacent stress sweep: the same agreement check at grid sizes
/// and processor counts an order of magnitude past the smoke matrix —
/// deeper elimination trees, wider 2D blocks, and 6–8 logical processors
/// stress the AUB aggregation and fan-both routing paths the small grids
/// barely touch. Every seed runs under all four `SchedPolicy` variants.
/// Too slow for the per-push smoke lane; run it on demand with
/// `cargo test --release -p pastix-integration --test sim_chaos -- --ignored`.
#[test]
#[ignore = "paper-adjacent sizes; minutes in release — see CI stress job"]
fn chaos_stress_paper_adjacent_sizes() {
    let problems: [ProblemSpec; 3] = [
        ("grid16x16-mixed", (16, 16, 1), DistStrategy::Mixed1d2d, 8),
        ("grid24x10-mixed", (24, 10, 1), DistStrategy::Mixed1d2d, 8),
        ("grid6x6x6-mixed", (6, 6, 6), DistStrategy::Mixed1d2d, 8),
    ];
    let seeds_per_point = seed_budget(216).div_ceil(72).max(2);
    for (pi, &(name, dims, strategy, block)) in problems.iter().enumerate() {
        for (ci, procs) in [6usize, 8].into_iter().enumerate() {
            let case = build_case(name, dims, strategy, block, procs);
            for p in 0..4usize {
                for i in 0..seeds_per_point {
                    let seed =
                        0x57E_0000 + ((((pi * 2 + ci) * 4 + p) * seeds_per_point + i) as u64);
                    let policy = match p {
                        0 => SchedPolicy::Uniform,
                        1 => SchedPolicy::StarveRank(seed as usize % case.procs),
                        2 => SchedPolicy::DeliverLast,
                        _ => SchedPolicy::FifoPerPair,
                    };
                    let plan = FaultPlan::builder(seed)
                        .drop_lossy(0.1)
                        .duplicate_lossy(0.1)
                        .policy(policy)
                        .build();
                    let opts = SolverConfig {
                        backend: Backend::Sim(plan),
                        aub_memory_limit: Some(64),
                        ..Default::default()
                    };
                    case.check_against_sequential(&opts, &case.diag(&plan));
                }
            }
        }
    }
}
