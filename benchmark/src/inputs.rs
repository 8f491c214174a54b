//! Seeded inputs: exact solutions and right-hand sides, the `D·A·D`
//! re-valuation ("new values, same pattern"), and the serve traffic.
//!
//! Sparsity patterns come from `build_problem` and never depend on the
//! seed, so every exact count of a workload repeats on every seed.

use pastix_graph::{rhs_for_solution, SymCsc};

/// SplitMix64: small, seedable, and good enough to draw inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so the inputs of one
    /// workload do not shift when another draws more numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// `D·A·D` with a seeded diagonal `d ∈ [0.8, 1.25]`: the same pattern,
/// new values, and still SPD (a congruence with an invertible `D`).
pub fn revalued(a: &SymCsc<f64>, rng: &mut Rng) -> SymCsc<f64> {
    let n = a.n();
    let d: Vec<f64> = (0..n).map(|_| rng.uniform(0.8, 1.25)).collect();
    let mut values = Vec::with_capacity(a.values().len());
    for j in 0..n {
        for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
            values.push(d[i as usize] * v * d[j]);
        }
    }
    SymCsc::from_parts(n, a.colptr().to_vec(), a.rowind().to_vec(), values)
}

/// `k` seeded exact solutions (entries in ±[0.5, 1.5], so no column is
/// near zero and relative error is well defined) and their right-hand
/// sides, both `n × k` column-major.
pub fn rhs_panel(a: &SymCsc<f64>, k: usize, rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
    let n = a.n();
    let mut exact = Vec::with_capacity(n * k);
    let mut rhs = Vec::with_capacity(n * k);
    for _ in 0..k {
        let xe: Vec<f64> = (0..n)
            .map(|_| {
                let m = rng.uniform(0.5, 1.5);
                if rng.next_u64() & 1 == 0 {
                    m
                } else {
                    -m
                }
            })
            .collect();
        rhs.extend(rhs_for_solution(a, &xe));
        exact.extend(xe);
    }
    (exact, rhs)
}

/// One matrix an operation (or a request) works on, with `k` seeded
/// right-hand sides and the exact solutions they were built from.
pub struct Input {
    pub a: SymCsc<f64>,
    pub exact: Vec<f64>,
    pub rhs: Vec<f64>,
}

impl Input {
    pub fn new(a: SymCsc<f64>, k: usize, rng: &mut Rng) -> Self {
        let (exact, rhs) = rhs_panel(&a, k, rng);
        Input { a, exact, rhs }
    }
}

/// One serve run: which of the three matrices it addresses, and whether
/// it sends the re-valued copy (same structure, other values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRun {
    pub matrix: usize,
    pub revalued: bool,
}

/// Runs per traffic cycle.
pub const SERVE_CYCLE: usize = 24;
/// Share of each matrix in the cycle (14, 6 and 4 of 24 runs).
pub const SERVE_SHARES: [f64; 3] = [14.0 / 24.0, 6.0 / 24.0, 4.0 / 24.0];
/// Runs replayed, untimed, before the measured ones so the cache holds
/// what it would hold in steady state. No three consecutive runs of the
/// cycle address one cache key, so three runs fix a two-entry LRU cache.
pub const SERVE_WARMUP: usize = 3;

/// The mix, fixed: matrices 0/1/2 at 58/25/17 % (the 60/25/15 % of the
/// issue on a 24-run cycle), every eighth run re-valued. Against a
/// two-entry cache this yields hits, cold misses, evictions and
/// same-pattern misses in every cycle (see the test below).
const SERVE_BASE: [usize; SERVE_CYCLE] = [
    0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 0, 1, 2, 0, 1, 1, 0, 0, 2, 0, 1, 0, 0, 2,
];

/// Run `i` of the traffic for `seed`. The seed picks where in the cycle
/// the traffic starts; measuring whole cycles then puts the same runs, in
/// the same cyclic order, behind every seed, so latency percentiles of
/// different seeds are comparable. Negative `i` addresses the warm-up.
pub fn serve_run(seed: u64, i: i64) -> ServeRun {
    let offset = (Rng::new(seed, 0x5E27E).next_u64() % SERVE_CYCLE as u64) as i64;
    let pos = (offset + i).rem_euclid(SERVE_CYCLE as i64) as usize;
    ServeRun {
        matrix: SERVE_BASE[pos],
        revalued: pos % 8 == 7,
    }
}

/// What a two-entry LRU cache keyed by `(matrix, revalued)` does with one
/// cycle of the traffic in steady state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheForecast {
    pub misses: u64,
    pub evictions: u64,
    /// Misses whose structure was resident under other values.
    pub numeric_only_misses: u64,
}

/// Replays `runs` through a shadow LRU cache of `capacity` entries that
/// starts out holding `resident` (coldest first).
pub fn forecast_cache(
    resident: &mut Vec<ServeRun>,
    capacity: usize,
    runs: impl IntoIterator<Item = ServeRun>,
) -> CacheForecast {
    let mut f = CacheForecast::default();
    for r in runs {
        if let Some(i) = resident.iter().position(|&e| e == r) {
            let e = resident.remove(i);
            resident.push(e);
            continue;
        }
        f.misses += 1;
        if resident.iter().any(|e| e.matrix == r.matrix) {
            f.numeric_only_misses += 1;
        }
        resident.push(r);
        if resident.len() > capacity {
            resident.remove(0);
            f.evictions += 1;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_serve::MatrixFingerprint;
    use pastix_solver::{AnalyzeOptions, Plan, SolverConfig};

    #[test]
    fn revaluation_keeps_pattern_and_spd() {
        let a = grid_spd::<f64>(12, 12, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let b = revalued(&a, &mut Rng::new(1, 2));
        assert_eq!(a.colptr(), b.colptr());
        assert_eq!(a.rowind(), b.rowind());
        let (fa, fb) = (MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
        assert_eq!(fa.structure, fb.structure);
        assert_ne!(fa.numeric, fb.numeric);
        // Still SPD: factorizes under the plan of the original and solves.
        let cfg = SolverConfig::new().with_analyze(AnalyzeOptions::with_procs(2));
        let plan = Plan::analyze(&a, &cfg);
        let run = plan
            .factorize(&b, &cfg)
            .expect("D·A·D must stay positive definite");
        let (xe, rhs) = rhs_panel(&b, 1, &mut Rng::new(1, 3));
        let x = run.solve(&rhs);
        assert!(b.residual_norm(&x, &rhs) < 1e-12);
        assert!(x.iter().zip(&xe).all(|(u, v)| (u - v).abs() < 1e-9));
    }

    #[test]
    fn serve_sequence_is_a_pure_function_of_the_seed() {
        let seq = |seed| (-3..48).map(|i| serve_run(seed, i)).collect::<Vec<_>>();
        assert_eq!(seq(11), seq(11));
        assert!(
            (0..8).any(|s| seq(s) != seq(11)),
            "the seed must move the traffic"
        );
        // Whatever the seed, one cycle holds the same runs.
        for seed in [0, 1, 99] {
            let mut count = [0usize; 3];
            let mut re = 0;
            for i in 0..SERVE_CYCLE as i64 {
                let r = serve_run(seed, i);
                count[r.matrix] += 1;
                re += usize::from(r.revalued);
            }
            assert_eq!(count, [14, 6, 4]);
            assert_eq!(re, 3);
        }
    }

    #[test]
    fn rhs_and_revaluation_follow_the_seed() {
        let a = grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let draw = |seed| rhs_panel(&a, 2, &mut Rng::new(seed, 1));
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert_eq!(
            revalued(&a, &mut Rng::new(5, 2)),
            revalued(&a, &mut Rng::new(5, 2))
        );
    }

    #[test]
    fn warmup_fixes_the_cache_and_the_mix_exercises_it() {
        let cycle =
            |seed, from: i64| (from..from + SERVE_CYCLE as i64).map(move |i| serve_run(seed, i));
        let mut per_seed = Vec::new();
        for seed in 0..SERVE_CYCLE as u64 {
            // Steady state: the cache after many cycles …
            let mut steady = Vec::new();
            forecast_cache(
                &mut steady,
                2,
                cycle(seed, -(SERVE_CYCLE as i64) * 2).chain(cycle(seed, -(SERVE_CYCLE as i64))),
            );
            // … equals the cache after the warm-up alone.
            let mut warmed = Vec::new();
            forecast_cache(
                &mut warmed,
                2,
                (-(SERVE_WARMUP as i64)..0).map(|i| serve_run(seed, i)),
            );
            assert_eq!(steady, warmed, "seed {seed}");
            per_seed.push(forecast_cache(&mut warmed, 2, cycle(seed, 0)));
        }
        let f = per_seed[0];
        assert!(
            per_seed.iter().all(|g| *g == f),
            "every seed sees the same cache traffic"
        );
        assert!(f.misses > 0 && f.misses < SERVE_CYCLE as u64);
        assert!(f.evictions > 0 && f.numeric_only_misses > 0);
    }
}
