//! Property tests for the serving cache: LRU order of the factor and
//! plan caches, the byte-budget invariant, fingerprint canonicalization,
//! the re-factorize-on-miss round trip, and bitwise parity of a factor
//! made on a cached plan.
//!
//! The session is modeled against two reference LRUs (a plain `Vec` with
//! most-recent at the tail): one of factors by matrix, one of `2 × cap`
//! plans by pattern, touched only on a factor miss; hits, misses, and
//! evictions must match the models on every access of a random request
//! sequence. The byte budget is a *hard* invariant: `resident_bytes() ≤
//! budget` after every access, with larger-than-budget factors served but
//! never cached.

use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
use pastix_graph::{rhs_for_solution, SymCsc};
use pastix_kernels::Scalar;
use pastix_runtime::sim::FaultPlan;
use pastix_runtime::Backend;
use pastix_serve::{Lookup, MatrixFingerprint, SessionOptions, SolverSession};
use pastix_solver::{AnalyzeOptions, FactorStorage, Plan};
use proptest::prelude::*;

/// Distinct small SPD problems: same structure, seed-dependent values —
/// distinct numeric fingerprints, near-identical factor sizes.
fn mat(seed: u64) -> SymCsc<f64> {
    grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(seed))
}

/// Three patterns: a 6 × 6 grid and the 5 × 7 / 7 × 5 grids, which have
/// the same order and entry count — only the structure digest tells them
/// apart.
const SHAPES: [(usize, usize); 3] = [(6, 6), (5, 7), (7, 5)];

fn shaped(shape: usize, seed: u64) -> SymCsc<f64> {
    let (nx, ny) = SHAPES[shape];
    grid_spd::<f64>(nx, ny, 1, Stencil::Star, false, ValueKind::RandomSpd(seed))
}

/// FNV-1a over the bits of the factor panels, as in `tests/factor_hash.rs`.
fn panel_hash(st: &FactorStorage<f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in st.panels.iter().flatten().flat_map(|v| v.bit_words()) {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Refreshes `key` in a reference LRU of `cap` entries; `(hit, evicted)`.
fn touch(model: &mut Vec<u64>, key: u64, cap: usize) -> (bool, bool) {
    let hit = match model.iter().position(|&e| e == key) {
        Some(i) => {
            model.remove(i);
            true
        }
        None => false,
    };
    let evicted = !hit && model.len() == cap;
    if evicted {
        model.remove(0);
    }
    model.push(key);
    (hit, evicted)
}

fn opts(capacity: usize, byte_budget: Option<u64>) -> SessionOptions {
    let mut opts = SessionOptions { procs: 2, capacity, byte_budget, ..Default::default() };
    opts.solver.analyze.sched.block_size = 8;
    opts
}

/// Solves a fresh RHS against `a` and checks the answer, so every cache
/// probe is also a correctness probe.
fn solve_and_check(session: &mut SolverSession<f64>, a: &SymCsc<f64>, tag: u64) {
    let n = a.n();
    let xe: Vec<f64> = (0..n).map(|i| 1.0 + ((i as u64 + tag) % 7) as f64).collect();
    let x = session.solve(a, &rhs_for_solution(a, &xe)).expect("solve");
    for (u, v) in x.iter().zip(&xe) {
        assert!((u - v).abs() < 1e-8, "wrong solution: {u} vs {v}");
    }
}

/// SplitMix64 for reproducible shuffles inside a case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stored lower triangle as assembly triplets.
fn triplets(a: &SymCsc<f64>) -> Vec<(u32, u32, f64)> {
    let mut t = Vec::new();
    for j in 0..a.n() {
        for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
            t.push((i, j as u32, v));
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hits, misses, and evictions track a reference LRU exactly, for any
    /// request sequence over three patterns × three value sets and any
    /// capacity — the cache refreshes on hit and evicts the coldest entry,
    /// never anything else. Plan hits and misses track a second reference
    /// LRU of `2 × cap` patterns, consulted only on a factor miss, and the
    /// per-plan pattern and solve structures are built once per plan miss,
    /// not once per factor miss.
    #[test]
    fn cache_follows_lru_model(
        cap in 1usize..4,
        seq in prop::collection::vec(0u64..9, 8..14),
    ) {
        let pool: Vec<SymCsc<f64>> = (0..9).map(|m| shaped(m as usize % 3, 100 + m)).collect();
        let mut session = SolverSession::<f64>::new(opts(cap, None));
        let (mut factors, mut plans) = (Vec::new(), Vec::new());
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
        for (step, &m) in seq.iter().enumerate() {
            let (hit, evicted) = touch(&mut factors, m, cap);
            let expected = if hit {
                hits += 1;
                Lookup::Hit
            } else {
                misses += 1;
                evictions += u64::from(evicted);
                if touch(&mut plans, m % 3, 2 * cap).0 {
                    plan_hits += 1;
                    Lookup::PlanHit
                } else {
                    plan_misses += 1;
                    Lookup::Miss
                }
            };
            let a = &pool[m as usize];
            prop_assert_eq!(session.get_or_factorize_info(a).expect("factorize").1, expected);
            solve_and_check(&mut session, a, step as u64);
            prop_assert!(session.len() <= cap, "capacity exceeded");
            prop_assert_eq!(session.len(), factors.len());
            let c = |name: &str| session.metrics().counter(name);
            // The solve above was a hit on the factor just looked up.
            prop_assert_eq!(c("serve.cache.hits"), hits + step as u64 + 1);
            prop_assert_eq!(c("serve.cache.misses"), misses);
            prop_assert_eq!(c("serve.cache.evictions"), evictions);
            prop_assert_eq!(c("serve.plan.hits"), plan_hits);
            prop_assert_eq!(c("serve.plan.misses"), plan_misses);
            // A plan hit is a same-pattern matrix: the plan's cached
            // pattern of `P·A·Pᵀ` serves it without a rebuild.
            prop_assert_eq!(c("solver.permute_builds"), plan_misses);
            prop_assert_eq!(c("solver.solve_plan_builds"), plan_misses);
        }
    }

    /// `resident_bytes() ≤ budget` after every access, for any budget —
    /// including budgets smaller than a single factor, which must be
    /// served uncached rather than break the invariant.
    #[test]
    fn byte_budget_is_never_exceeded(
        frac in 0.1f64..1.2,
        seq in prop::collection::vec(0u64..3, 6..12),
    ) {
        // Measure the pool's total factor footprint with an unbounded
        // session, then replay under a budget that is a fraction of it.
        let pool: Vec<SymCsc<f64>> = (0..3).map(|s| mat(200 + s)).collect();
        let mut probe = SolverSession::<f64>::new(opts(8, None));
        for a in &pool {
            probe.get_or_factorize(a).expect("probe factorization");
        }
        let total = probe.resident_bytes();
        prop_assert!(total > 0);
        let budget = ((total as f64) * frac / 3.0) as u64;

        let mut session = SolverSession::<f64>::new(opts(8, Some(budget)));
        for (step, &m) in seq.iter().enumerate() {
            solve_and_check(&mut session, &pool[m as usize], step as u64);
            prop_assert!(
                session.resident_bytes() <= budget,
                "resident {} exceeds budget {}",
                session.resident_bytes(),
                budget
            );
        }
        let m = session.metrics();
        let touched = m.counter("serve.cache.hits")
            + m.counter("serve.cache.misses");
        prop_assert_eq!(touched, seq.len() as u64);
        // Budgets below one factor force the uncacheable path; nothing
        // may be resident afterwards.
        if m.counter("serve.cache.uncacheable") > 0 {
            prop_assert!(session.resident_bytes() <= budget);
        }
    }

    /// The fingerprint is a function of the *matrix*, not the assembly:
    /// shuffled triplet order, upper-triangle mirroring, and split
    /// duplicate entries all canonicalize to the same key, while any
    /// numeric change misses.
    #[test]
    fn fingerprint_is_stable_under_assembly_permutation(
        seed in 0u64..64,
        mseed in 0u64..1024,
    ) {
        let a = mat(300 + seed);
        let n = a.n();
        let fp = MatrixFingerprint::of(&a);
        let mut trips = triplets(&a);
        let mut rng = mseed.wrapping_mul(0x9E37).wrapping_add(1);

        // Fisher–Yates shuffle of assembly order.
        for i in (1..trips.len()).rev() {
            let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
            trips.swap(i, j);
        }
        // Mirror roughly half the off-diagonal entries to the upper
        // triangle; from_triplets folds them back.
        for t in trips.iter_mut() {
            if t.0 != t.1 && splitmix(&mut rng).is_multiple_of(2) {
                *t = (t.1, t.0, t.2);
            }
        }
        // Split one off-diagonal value into two duplicate summands.
        if let Some(pos) = trips.iter().position(|t| t.0 != t.1) {
            let (i, j, v) = trips[pos];
            trips[pos] = (i, j, v * 0.25);
            trips.push((j, i, v * 0.75));
        }
        let b = SymCsc::<f64>::from_triplets(n, &trips);
        prop_assert_eq!(MatrixFingerprint::of(&b), fp, "assembly permutation changed the key");

        // A genuine numeric change must change the numeric half only.
        let mut t2 = triplets(&a);
        t2[0].2 *= 1.0 + 1e-3;
        let c = SymCsc::<f64>::from_triplets(n, &t2);
        let fpc = MatrixFingerprint::of(&c);
        prop_assert_eq!(fpc.structure, fp.structure);
        prop_assert!(fpc.numeric != fp.numeric, "value perturbation must miss");
    }

    /// Eviction is not corruption: a capacity-1 session bouncing between
    /// two matrices re-factorizes on every access and still returns each
    /// matrix's own solution — the full round trip through miss → evict →
    /// miss again.
    #[test]
    fn evicted_matrices_refactorize_correctly(seed in 0u64..32) {
        let a = mat(400 + seed);
        let b = mat(500 + seed);
        let mut session = SolverSession::<f64>::new(opts(1, None));
        for round in 0..3u64 {
            solve_and_check(&mut session, &a, round);
            solve_and_check(&mut session, &b, round);
        }
        let m = session.metrics();
        prop_assert_eq!(m.counter("serve.cache.hits"), 0);
        prop_assert_eq!(m.counter("serve.cache.misses"), 6);
        prop_assert_eq!(m.counter("serve.cache.evictions"), 5);
        prop_assert_eq!(session.len(), 1);
    }
}

/// A factor made on a cached plan is the factor a fresh analysis makes:
/// the panels of a re-valued matrix refactorized through a plan hit hash
/// bit for bit like those of `Plan::analyze` + `factorize` on it, on the
/// sim backend at a fixed seed.
#[test]
fn plan_hit_factor_matches_fresh_analysis_bitwise() {
    let mut opts = opts(2, None);
    opts.solver = opts.solver.with_backend(Backend::Sim(FaultPlan::builder(3).build()));
    let cfg = opts.solver.clone().with_analyze(AnalyzeOptions {
        procs: opts.procs,
        parallelism: opts.parallelism,
        ..opts.solver.analyze.clone()
    });
    let mut session = SolverSession::<f64>::new(opts);
    let (a, b) = (mat(600), mat(601));
    assert_eq!(session.get_or_factorize_info(&a).unwrap().1, Lookup::Miss);
    let (cached, lookup) = session.get_or_factorize_info(&b).unwrap();
    assert_eq!(lookup, Lookup::PlanHit);
    let fresh = Plan::analyze(&b, &cfg).factorize(&b, &cfg).unwrap();
    assert_eq!(panel_hash(&cached.run.storage), panel_hash(&fresh.storage));
    assert!(session.metrics().counter("serve.analyze_ns") > 0);
    assert_eq!(session.metrics().counter("serve.plan.misses"), 1);
}
