//! Persistent hot-path benchmark: packed cache-blocked kernels vs the seed
//! axpy reference, at both the microkernel level and the sequential
//! supernodal factorization level.
//!
//! Writes two JSON reports at the repository root so before/after numbers
//! ride with the code (under `target/bench-quick/` with `--quick`):
//!
//! * `BENCH_kernels.json` — `gemm_nt_acc` reference vs packed over a grid
//!   of panel-shaped `(m, n, k)` cases, and the packing break-even
//!   re-derived for the register tile in use (next to the dispatch
//!   constant `PACKED_MIN_MADDS`);
//! * `BENCH_factorize.json` — sequential LDLᵀ wall time and Gflop/s per
//!   problem under [`KernelMode::Reference`] vs [`KernelMode::Auto`] (the
//!   packed path above the dispatch threshold), with a factor checksum per
//!   mode, the tracing-overhead gate, and the *where factorization time
//!   goes* stage table of the static driver on one and two ranks and of
//!   the dynamic one on two workers, read off the `solver.comp1d.*`
//!   counters of wall-clock traced runs, and the
//!   `front_end` table: pattern build, scatter, the plan-cached front end
//!   and a dynamic refactorization, per `bench_e2e` matrix.
//!
//! The process exits non-zero if the two modes' factor checksums diverge
//! beyond round-off — the packed path must be a pure reassociation of the
//! reference arithmetic, never a different answer —, if a storage filled
//! through the plan's pattern is not bit-identical to the permuted-copy
//! path's, or, in full mode, if
//! the packed kernel is not at least 2.5 × the reference at 384³ (in
//! `--quick` that gate prints `skipped`: the case is not run). `--quick`
//! shrinks reps and problem scale for CI; `PASTIX_SCALE` /
//! `PASTIX_PROBLEMS` apply to the full run as in the other binaries. Both
//! files open with `pastix_bench::env_header`.

use pastix_bench::{env_header, gflops, prepare, scale, scotch_ordering, write_report};
use pastix_graph::ProblemId;
use pastix_json::{obj, Json};
use pastix_kernels::gemm::{gemm_nt_acc, gemm_nt_acc_ref};
use pastix_kernels::pack::PACKED_MIN_MADDS;
use pastix_kernels::{KernelMode, Scalar};
use pastix_graph::Parallelism;
use pastix_solver::{
    factorize_sequential, AnalyzeOptions, Backend, DynamicOptions, FactorStorage, MetricsRegistry, Plan,
    ScatterPattern, SolverConfig, TaskOrder,
};
use pastix_trace::TraceOptions;
use std::time::Instant;


/// Checksum gate: the packed path reassociates sums, so per-entry
/// round-off differs, but the aggregate must agree to far better than
/// this.
const CHECKSUM_RTOL: f64 = 1e-7;

/// Acceptance target from the issue: packed sequential factorization
/// throughput on the largest problem vs the seed axpy path.
const TARGET_SPEEDUP: f64 = 1.3;

/// Gate of the register tile (full mode): packed over reference at 384³.
const TILE_GATE: f64 = 2.5;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("bench_hotpath ({mode}) — packed kernels vs seed axpy reference");

    let bs = pastix_kernels::blocking_for::<f64>();
    println!("f64 blocking: mc={} kc={} nc={}", bs.mc, bs.kc, bs.nc);

    let header = env_header(mode);
    let (kernels, tile_ok) = bench_kernels(quick, &header);
    write_report("BENCH_kernels.json", quick, &kernels);

    let (factorize, checksums_ok) = bench_factorize(quick, &header);
    write_report("BENCH_factorize.json", quick, &factorize);

    if !checksums_ok {
        eprintln!(
            "FAIL: packed/reference factor checksums diverged, or a front end's storage differs \
             from the copy path's (see BENCH_factorize.json)"
        );
        std::process::exit(1);
    }
    if tile_ok == Some(false) {
        eprintln!("FAIL: packed kernel below {TILE_GATE}x the reference at 384^3 (see BENCH_kernels.json)");
        std::process::exit(1);
    }
}

/// Times one `gemm_nt_acc` case for `reps` repetitions, returning seconds
/// for the whole batch. `C` is reused across reps (accumulation does not
/// change the flop count).
fn time_gemm(
    f: impl Fn(usize, usize, usize, f64, &[f64], usize, &[f64], usize, &mut [f64], usize),
    m: usize,
    n: usize,
    k: usize,
    reps: usize,
) -> f64 {
    let a: Vec<f64> = (0..m * k).map(|i| ((i * 37 + 11) % 101) as f64 * 0.013 - 0.6).collect();
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 53 + 7) % 97) as f64 * 0.017 - 0.8).collect();
    let mut c = vec![0.0f64; m * n];
    // Warm-up outside the clock.
    f(m, n, k, 1.0, &a, m, &b, n, &mut c, m);
    let t0 = Instant::now();
    for _ in 0..reps {
        f(m, n, k, 1.0, &a, m, &b, n, &mut c, m);
    }
    let dt = t0.elapsed().as_secs_f64();
    assert!(c.iter().all(|x| x.is_finite()), "kernel produced non-finite values");
    dt
}

/// The packing break-even of one family of shapes: `n` columns, depth 16,
/// `m` growing so the product doubles from 1 Ki to 64 Ki multiply-adds.
/// Returns the ladder's rows and the smallest product from which packed
/// is at least as fast as the reference on every larger rung (`None`:
/// not within the ladder).
fn break_even(n: usize, quick: bool) -> (Vec<Json>, Option<usize>) {
    const K: usize = 16;
    let target_madds: f64 = if quick { 2e6 } else { 3e7 };
    let mut rows = Vec::new();
    let mut from = None;
    for madds in (10..=16).map(|e| 1usize << e) {
        let m = madds / (n * K);
        let reps = (target_madds / madds as f64).ceil() as usize;
        let flops = 2.0 * (m * n * K * reps) as f64;
        let t_ref = time_gemm(gemm_nt_acc_ref::<f64>, m, n, K, reps);
        let t_pack = {
            let _mode = KernelMode::Packed.scoped();
            time_gemm(gemm_nt_acc::<f64>, m, n, K, reps)
        };
        from = if t_pack <= t_ref { from.or(Some(m * n * K)) } else { None };
        rows.push(obj([
            ("m", Json::Num(m as f64)),
            ("madds", Json::Num((m * n * K) as f64)),
            ("ref_gflops", Json::Num(gflops(flops, t_ref))),
            ("packed_gflops", Json::Num(gflops(flops, t_pack))),
        ]));
    }
    (rows, from)
}

/// Kernel tier; the second value is the 384³ tile gate (`None`: skipped).
fn bench_kernels(quick: bool, header: &[(String, Json)]) -> (Json, Option<bool>) {
    // Panel-shaped cases: tall update panels, wide rank-k blocks, and one
    // large square as the asymptotic point.
    let cases: &[(usize, usize, usize)] = &[
        (64, 64, 64),
        (192, 96, 128),
        (256, 64, 192),
        (512, 128, 128),
        (384, 384, 384),
    ];
    let cases = if quick { &cases[..3] } else { cases };
    let target_madds: f64 = if quick { 4e7 } else { 6e8 };

    let mut rows = Vec::new();
    let mut at_384 = None;
    println!("{:>5} {:>5} {:>5} {:>6}  {:>10} {:>10} {:>8}", "m", "n", "k", "reps", "ref GF/s", "pack GF/s", "speedup");
    for &(m, n, k) in cases {
        let madds = (m * n * k) as f64;
        let reps = ((target_madds / madds).ceil() as usize).max(3);
        let flops = 2.0 * madds * reps as f64;
        let t_ref = time_gemm(gemm_nt_acc_ref::<f64>, m, n, k, reps);
        let t_pack = {
            let _mode = KernelMode::Packed.scoped();
            time_gemm(gemm_nt_acc::<f64>, m, n, k, reps)
        };
        let (gf_ref, gf_pack) = (gflops(flops, t_ref), gflops(flops, t_pack));
        let speedup = t_ref / t_pack;
        if (m, n, k) == (384, 384, 384) {
            at_384 = Some(speedup);
        }
        println!("{m:>5} {n:>5} {k:>5} {reps:>6}  {gf_ref:>10.2} {gf_pack:>10.2} {speedup:>7.2}x");
        rows.push(obj([
            ("m", Json::Num(m as f64)),
            ("n", Json::Num(n as f64)),
            ("k", Json::Num(k as f64)),
            ("reps", Json::Num(reps as f64)),
            ("ref_seconds", Json::Num(t_ref)),
            ("packed_seconds", Json::Num(t_pack)),
            ("ref_gflops", Json::Num(gf_ref)),
            ("packed_gflops", Json::Num(gf_pack)),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    // The dispatch constant against what this tile measures: a family
    // that fills the tile's width twice over, and one that half-fills it.
    let tile = <f64 as Scalar>::TILE;
    let (full_rows, full_from) = break_even(2 * tile.nr, quick);
    let (narrow_rows, narrow_from) = break_even(tile.nr / 2, quick);
    let show = |from: Option<usize>| from.map_or("not below 64 Ki".to_string(), |v| format!("{v}"));
    println!(
        "packing break-even in multiply-adds (dispatch constant {PACKED_MIN_MADDS}): \
         n = {} from {}, n = {} from {}",
        2 * tile.nr,
        show(full_from),
        tile.nr / 2,
        show(narrow_from)
    );
    let tile_ok = at_384.map(|s| s >= TILE_GATE);
    match at_384 {
        Some(s) => println!(
            "acceptance (packed >= {TILE_GATE}x reference at 384^3): {s:.2}x — {}",
            if s >= TILE_GATE { "MET" } else { "NOT MET" }
        ),
        None => println!("acceptance (packed >= {TILE_GATE}x reference at 384^3): skipped — quick mode does not run the case"),
    }
    let as_json = |from: Option<usize>| from.map_or(Json::Null, |v| Json::Num(v as f64));
    let mut all = vec![("bench".to_string(), Json::Str("gemm_nt_acc packed vs reference".into()))];
    all.extend(header.iter().cloned());
    all.extend(
        [
            ("elem", Json::Str("f64".into())),
            ("cases", Json::Arr(rows)),
            ("packed_min_madds", Json::Num(PACKED_MIN_MADDS as f64)),
            ("break_even_madds_full_tile", as_json(full_from)),
            ("break_even_madds_half_tile", as_json(narrow_from)),
            ("break_even_full_tile", Json::Arr(full_rows)),
            ("break_even_half_tile", Json::Arr(narrow_rows)),
            ("tile_gate", Json::Num(TILE_GATE)),
            ("tile_gate_ok", tile_ok.map_or(Json::Null, Json::Bool)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    (Json::Obj(all), tile_ok)
}

/// Sum of entry magnitudes over every factor panel: a single scalar that
/// any arithmetic divergence between kernel paths would move.
fn factor_checksum(st: &FactorStorage<f64>) -> f64 {
    st.panels.iter().flatten().map(|x| x.abs()).sum()
}

/// Best-of-`reps` sequential factorization time under the current kernel
/// mode, plus the checksum of the last factor.
fn time_factorize(
    sym: &pastix_symbolic::SymbolMatrix,
    ap: &pastix_graph::SymCsc<f64>,
    reps: usize,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0.0;
    for _ in 0..reps {
        let mut st = FactorStorage::zeros(sym);
        st.scatter(sym, ap);
        let t0 = Instant::now();
        factorize_sequential(sym, &mut st).expect("factorization failed");
        best = best.min(t0.elapsed().as_secs_f64());
        checksum = factor_checksum(&st);
    }
    (best, checksum)
}

/// The tracing-overhead gate's problem: BMWCRA1 @ 0.1 (`bench_e2e`'s
/// `solid3d` matrix), a sequential factorization of over 100 ms, so the
/// 2 % limit is milliseconds, not timer and scheduler noise.
const TRACE_PROBLEM: (ProblemId, f64) = (ProblemId::Bmwcra1, 0.1);

/// Tracing overhead by `bench_serve`'s paired best-of method: every rep
/// times an untraced and a wall-clock traced sequential factorization of
/// [`TRACE_PROBLEM`] back to back, alternating which goes first, so a
/// noisy neighbour slows both sides; the gate compares the two minima.
/// Returns `(overhead_fraction, untraced best seconds, events)`.
fn measure_trace_overhead(reps: usize) -> (f64, f64, u64) {
    let (id, sc) = TRACE_PROBLEM;
    let prep = prepare(id, sc, &scotch_ordering());
    let (sym, ap) = (&prep.analysis.symbol, prep.matrix.permuted(&prep.analysis.perm));
    let (mut plain, mut traced, mut events) = (f64::INFINITY, f64::INFINITY, 0u64);
    let topts = TraceOptions::wall();
    for rep in 0..reps {
        for with_trace in [rep % 2 == 1, rep % 2 == 0] {
            let mut st = FactorStorage::zeros(sym);
            st.scatter(sym, &ap);
            let session = with_trace.then(|| pastix_trace::begin_rank(0, &topts));
            let t0 = Instant::now();
            factorize_sequential(sym, &mut st).expect("factorization failed");
            let dt = t0.elapsed().as_secs_f64();
            match session {
                Some(session) => {
                    traced = traced.min(dt);
                    if let Some(rt) = session.finish() {
                        events = rt.events.len() as u64 + rt.dropped_events;
                    }
                }
                None => plain = plain.min(dt),
            }
        }
    }
    (traced / plain - 1.0, plain, events)
}

/// Where the factorization's time goes: BMWCRA1 @ 0.1 (`bench_e2e`'s
/// `solid3d` matrix; SHIPSEC5 @ 0.02 in quick mode) on one and two workers
/// of `Backend::Threads` (the executor in the static order), and SHIPSEC5 @ 0.2 (`shell_refactor_dynamic`'s
/// matrix and backend; @ 0.02 in quick mode) on [`FRONT_END_WORKERS`]
/// workers of `Backend::Dynamic`: the fastest of `reps` wall-clock traced
/// runs each, and under `median` the run of median wall time (a neighbour
/// on the box moves the median before the best). The stage columns are the
/// `solver.comp1d.*` counters summed over the ranks or workers: `gemm` is
/// the strip products — for the strips on the packed path with the panel's
/// pack and the write-back straight into the targets, for the others the
/// products into their groups' scratch strips; `deliver` is the delivery of
/// those groups. `rest_ms` is what the stages leave of the ranks' summed
/// wall time (diagonal factors, `F = L·D`, zeroing the scratch strips,
/// scatter, waiting, and the serial permute and assembly around the ranks).
fn bench_stages(quick: bool) -> Json {
    let reps = if quick { 2 } else { 7 };
    let (id, sc) = if quick { (ProblemId::Shipsec5, 0.02) } else { (ProblemId::Bmwcra1, 0.1) };
    let (dyn_id, dyn_sc) = (ProblemId::Shipsec5, if quick { 0.02 } else { 0.2 });
    let dynamic = DynamicOptions::new().with_workers(FRONT_END_WORKERS).with_order(TaskOrder::Hints);
    println!();
    println!("factorization stage by stage, best and median of {reps} (ms; stages summed over ranks)");
    println!("{:<10} {:>6} {:>8} {:>5} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}", "Name", "scale", "backend", "ranks", "of", "wall", "trsm", "gemm", "deliver", "rest", "gemm GF/s");
    let cases = [(id, sc, 1, None), (id, sc, 2, None), (dyn_id, dyn_sc, FRONT_END_WORKERS, Some(dynamic))];
    let mut rows = Vec::new();
    for (id, sc, procs, dynamic) in cases {
        let a = pastix_graph::build_problem::<f64>(id, sc);
        let mut base = SolverConfig::new().with_trace(TraceOptions::wall()).with_analyze(AnalyzeOptions {
            procs,
            parallelism: Parallelism::Auto,
            ..AnalyzeOptions::default()
        });
        if let Some(d) = dynamic {
            base = base.with_backend(Backend::Dynamic(d));
        }
        let backend = if dynamic.is_some() { "dynamic" } else { "threads" };
        let plan = Plan::analyze(&a, &base);
        // Flops of the strip products U = −L·Fᵀ, the `gemm` stage's work.
        let sym = plan.symbol();
        let strip_flops: f64 = sym
            .cblks
            .iter()
            .map(|cb| {
                let off = &sym.bloks[cb.blok_start + 1..cb.blok_end];
                let mut below: usize = off.iter().map(|b| b.nrows()).sum();
                let mut madds = 0usize;
                for b in off {
                    madds += below * b.nrows() * cb.width();
                    below -= b.nrows();
                }
                2.0 * madds as f64
            })
            .sum();
        let mut runs: Vec<[f64; 4]> = (0..reps)
            .map(|_| {
                let cfg = base.clone().with_metrics(MetricsRegistry::new());
                let t0 = Instant::now();
                plan.factorize(&a, &cfg).expect("factorization failed");
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                let ms = |name: &str| cfg.metrics.counter(name) as f64 / 1e6;
                [wall, ms("solver.comp1d.trsm_ns"), ms("solver.comp1d.gemm_ns"), ms("solver.comp1d.deliver_ns")]
            })
            .collect();
        runs.sort_by(|x, y| x[0].total_cmp(&y[0]));
        // One run's stages: the rest of its summed rank time, the strip
        // products' mean rate per rank (summed flops over summed seconds).
        let stages = |of: &str, [wall, trsm, gemm, deliver]: [f64; 4]| {
            let rest = procs as f64 * wall - trsm - gemm - deliver;
            let gemm_gf = gflops(strip_flops, gemm / 1e3);
            println!(
                "{:<10} {sc:>6} {backend:>8} {procs:>5} {of:>6} {wall:>9.1} {trsm:>9.1} {gemm:>9.1} {deliver:>9.1} {rest:>9.1} {gemm_gf:>10.2}",
                id.name()
            );
            [
                ("wall_ms", Json::Num(wall)),
                ("trsm_ms", Json::Num(trsm)),
                ("gemm_ms", Json::Num(gemm)),
                ("deliver_ms", Json::Num(deliver)),
                ("rest_ms", Json::Num(rest)),
                ("gemm_stage_gflops_per_rank", Json::Num(gemm_gf)),
            ]
        };
        let mut row = vec![
            ("problem".to_string(), Json::Str(id.name().into())),
            ("scale".to_string(), Json::Num(sc)),
            ("backend".to_string(), Json::Str(backend.into())),
            ("ranks".to_string(), Json::Num(procs as f64)),
        ];
        row.extend(stages("best", runs[0]).map(|(k, v)| (k.to_string(), v)));
        row.push(("strip_gflop".to_string(), Json::Num(strip_flops / 1e9)));
        row.push(("median".to_string(), obj(stages("median", runs[reps / 2]))));
        rows.push(Json::Obj(row));
    }
    obj([("reps", Json::Num(reps as f64)), ("rows", Json::Arr(rows))])
}

/// Workers of the front-end table's dynamic refactorization: `bench_e2e`'s.
const FRONT_END_WORKERS: usize = 2;

/// The front end of a factorization, per matrix (`bench_e2e`'s three
/// direct matrices; smaller scales in quick mode): `SymCsc::permuted`
/// alone, for scale; building `P·A·Pᵀ`'s pattern, validation included;
/// zeroing the storage; scattering `A`'s values through the pattern on one
/// thread; the plan-cached front end a refactorization pays at most (the
/// pattern lookup, zeroing, the serial scatter — the backends split the
/// last two over their workers); the copy path it replaced (permuted
/// copy, zeroing, serial scatter); for scale, a whole
/// `Backend::Dynamic` refactorization on [`FRONT_END_WORKERS`] workers
/// through the plan's cached pattern; and the first and the second
/// `Backend::Threads` factorization of a plan analyzed afresh in every rep
/// (`cold_factorize`, `warm_factorize`: apart by whatever the first one
/// still builds). Raw ms, medians of `reps` with the variants interleaved
/// in every rep. The second value says every storage
/// filled through the pattern was bit-identical to the copy path's.
fn bench_front_end(quick: bool) -> (Json, bool) {
    let (cases, reps) = match quick {
        true => ([(ProblemId::Bmwcra1, 0.02), (ProblemId::Quer, 0.2), (ProblemId::Shipsec5, 0.04)], 3),
        false => ([(ProblemId::Bmwcra1, 0.1), (ProblemId::Quer, 1.0), (ProblemId::Shipsec5, 0.2)], 15),
    };
    const COLUMNS: [&str; 9] = [
        "permuted", "build", "zeros", "scatter", "cached", "copy_path", "refactorize_dyn", "cold_factorize",
        "warm_factorize",
    ];
    println!();
    println!(
        "front end of a factorization, median of {reps} (ms; refactorize_dyn and the threads factorizations on \
         {FRONT_END_WORKERS} workers)"
    );
    print!("{:<10} {:>6} {:>9}", "Name", "scale", "nnz(A)");
    COLUMNS.iter().for_each(|c| print!(" {c:>15}"));
    println!();
    let mut rows = Vec::new();
    let mut identical = true;
    let dynamic = DynamicOptions::new().with_workers(FRONT_END_WORKERS).with_order(TaskOrder::Hints);
    for (id, sc) in cases {
        let a = pastix_graph::build_problem::<f64>(id, sc);
        let threads = SolverConfig::new().with_analyze(AnalyzeOptions::with_procs(FRONT_END_WORKERS));
        let cfg = threads.clone().with_backend(Backend::Dynamic(dynamic));
        let plan = Plan::analyze(&a, &cfg);
        let (sym, perm) = (plan.symbol(), plan.permutation().expect("analyzed plans own a permutation"));
        let cached = ScatterPattern::build(&a, Some(perm), sym).expect("the analyzed pattern");
        // Warms the plan before the timed refactorizations.
        plan.factorize(&a, &cfg).expect("factorization failed");
        let bits = |st: &FactorStorage<f64>| st.panels.iter().flatten().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut ms: [Vec<f64>; 9] = Default::default();
        let mut lap = |slot: usize, t0: Instant| ms[slot].push(t0.elapsed().as_secs_f64() * 1e3);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(a.permuted(perm));
            lap(0, t0);
            let t0 = Instant::now();
            std::hint::black_box(ScatterPattern::build(&a, Some(perm), sym).expect("the analyzed pattern"));
            lap(1, t0);
            let t0 = Instant::now();
            let mut serial = FactorStorage::zeros(sym);
            lap(2, t0);
            let t0 = Instant::now();
            serial.scatter_through(sym, &cached, &a);
            lap(3, t0);
            let t0 = Instant::now();
            assert!(cached.matches(&a));
            let mut through = FactorStorage::zeros(sym);
            through.scatter_through(sym, &cached, &a);
            lap(4, t0);
            let t0 = Instant::now();
            let ap = a.permuted(perm);
            let mut copy = FactorStorage::zeros(sym);
            copy.scatter(sym, &ap);
            lap(5, t0);
            let t0 = Instant::now();
            std::hint::black_box(plan.factorize(&a, &cfg).expect("factorization failed"));
            lap(6, t0);
            let fresh = Plan::analyze(&a, &threads);
            for slot in [7, 8] {
                let t0 = Instant::now();
                std::hint::black_box(fresh.factorize(&a, &threads).expect("factorization failed"));
                lap(slot, t0);
            }
            let want = bits(&copy);
            identical &= bits(&serial) == want && bits(&through) == want;
        }
        let medians = ms.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        print!("{:<10} {sc:>6} {:>9}", id.name(), a.nnz_stored());
        medians.iter().for_each(|m| print!(" {m:>15.2}"));
        println!();
        let mut row = vec![
            ("name".to_string(), Json::Str(id.name().into())),
            ("scale".to_string(), Json::Num(sc)),
            ("nnz_stored".to_string(), Json::Num(a.nnz_stored() as f64)),
        ];
        row.extend(COLUMNS.iter().zip(medians).map(|(c, m)| (format!("{c}_ms"), Json::Num(m))));
        rows.push(Json::Obj(row));
    }
    println!("front-end storage bit-identical to the copy path: {}", if identical { "yes" } else { "NO" });
    let report = obj([
        ("workers", Json::Num(FRONT_END_WORKERS as f64)),
        ("reps", Json::Num(reps as f64)),
        ("rows", Json::Arr(rows)),
        ("storage_bit_identical", Json::Bool(identical)),
    ]);
    (report, identical)
}

/// Acceptance target from the issue: with tracing enabled the hot path may
/// regress by at most this fraction vs tracing disabled.
const TRACE_OVERHEAD_LIMIT: f64 = 0.02;

fn bench_factorize(quick: bool, header: &[(String, Json)]) -> (Json, bool) {
    let sc = if quick { 0.02 } else { scale() };
    let reps = if quick { 1 } else { 3 };
    let ids: Vec<ProblemId> = if quick {
        vec![ProblemId::Shipsec5]
    } else {
        vec![ProblemId::Ship001, ProblemId::Shipsec5]
    };

    let mut rows = Vec::new();
    let mut ok = true;
    let mut largest_speedup = 0.0;
    println!();
    println!("sequential LDLᵀ, scale {sc}, best of {reps}");
    println!("{:<10} {:>8} {:>10} {:>10} {:>9} {:>9} {:>8}", "Name", "n", "ref s", "packed s", "ref GF/s", "pk GF/s", "speedup");
    for id in ids {
        let prep = prepare(id, sc, &scotch_ordering());
        let sym = &prep.analysis.symbol;
        let ap = prep.matrix.permuted(&prep.analysis.perm);
        let opc = prep.analysis.scalar_opc;

        let (t_ref, ck_ref) = {
            let _mode = KernelMode::Reference.scoped();
            time_factorize(sym, &ap, reps)
        };
        let (t_pack, ck_pack) = time_factorize(sym, &ap, reps);

        let speedup = t_ref / t_pack;
        let rel = (ck_ref - ck_pack).abs() / ck_ref.abs().max(1.0);
        if rel > CHECKSUM_RTOL {
            ok = false;
            eprintln!("{}: checksum divergence {rel:.3e} (ref {ck_ref}, packed {ck_pack})", id.name());
        }
        if id == ProblemId::Shipsec5 {
            largest_speedup = speedup;
        }
        println!(
            "{:<10} {:>8} {:>10.3} {:>10.3} {:>9.2} {:>9.2} {:>7.2}x",
            id.name(), ap.n(), t_ref, t_pack, gflops(opc, t_ref), gflops(opc, t_pack), speedup
        );
        rows.push(obj([
            ("name", Json::Str(id.name().into())),
            ("n", Json::Num(ap.n() as f64)),
            ("opc", Json::Num(opc)),
            ("ref_seconds", Json::Num(t_ref)),
            ("packed_seconds", Json::Num(t_pack)),
            ("ref_gflops", Json::Num(gflops(opc, t_ref))),
            ("packed_gflops", Json::Num(gflops(opc, t_pack))),
            ("speedup", Json::Num(speedup)),
            ("checksum_ref", Json::Num(ck_ref)),
            ("checksum_packed", Json::Num(ck_pack)),
            ("checksum_rel_err", Json::Num(rel)),
        ]));
    }
    println!();
    let verdict = if largest_speedup >= TARGET_SPEEDUP { "MET" } else { "NOT MET" };
    println!("acceptance (SHIPSEC5 ≥ {TARGET_SPEEDUP}x): {largest_speedup:.2}x — {verdict}");
    let trace_reps = if quick { 5 } else { 15 };
    let (trace_overhead, trace_base_s, trace_events) = measure_trace_overhead(trace_reps);
    let trace_ok = trace_overhead < TRACE_OVERHEAD_LIMIT;
    println!(
        "tracing overhead ({} @ {}, {:.1} ms untraced, {} events, paired best of {trace_reps}, < {:.0}%): {:+.2}% — {}",
        TRACE_PROBLEM.0.name(),
        TRACE_PROBLEM.1,
        trace_base_s * 1e3,
        trace_events,
        TRACE_OVERHEAD_LIMIT * 100.0,
        trace_overhead * 100.0,
        if trace_ok { "MET" } else { "NOT MET" }
    );
    let (front_end, front_end_ok) = bench_front_end(quick);
    let mut all =
        vec![("bench".to_string(), Json::Str("sequential LDLt, packed vs reference kernels".into()))];
    all.extend(header.iter().cloned());
    all.extend(
        [
            ("scale", Json::Num(sc)),
            ("reps", Json::Num(reps as f64)),
            ("problems", Json::Arr(rows)),
            ("shipsec5_speedup", Json::Num(largest_speedup)),
            ("target_speedup", Json::Num(TARGET_SPEEDUP)),
            ("tracing_overhead_bmwcra1", Json::Num(trace_overhead)),
            ("tracing_overhead_limit", Json::Num(TRACE_OVERHEAD_LIMIT)),
            ("tracing_overhead_reps", Json::Num(trace_reps as f64)),
            ("tracing_untraced_ms_bmwcra1", Json::Num(trace_base_s * 1e3)),
            ("tracing_events_bmwcra1", Json::Num(trace_events as f64)),
            ("tracing_overhead_ok", Json::Bool(trace_ok)),
            ("checksums_ok", Json::Bool(ok)),
            ("static_stages", bench_stages(quick)),
            ("front_end", front_end),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    let report = Json::Obj(all);
    (report, ok && front_end_ok)
}
