//! Analyze-phase benchmark and acceptance gate: where the pre-processing
//! (graph → nested dissection → block symbolic factorization → mapping +
//! static scheduling) spends its time, on one thread and on every CPU of
//! the box, for the six matrices `bench_e2e` runs at the scales it runs
//! them (`--quick`: QUER and BMWCRA1).
//!
//! Four gates:
//!
//! * **determinism (unconditional)** — every `Parallelism` setting must
//!   produce a bitwise-identical `Permutation`, block symbol, and
//!   `Schedule::digest()`, and identical scalar `NNZ_L`/`OPC`. A parallel
//!   analyze that changes any output bit is a bug, whatever the speedup.
//! * **the ordering is the recorded one (unconditional)** — the FNV-1a-64
//!   hash of `nested_dissection(..).perm()` must equal the value pinned in
//!   `tests/analyze_determinism.rs`: the ordering layer may be made
//!   faster, not different, without saying so there.
//! * **the symbol and task graph are the recorded ones (unconditional)** —
//!   likewise for the hashes of the block symbol `pastix_symbolic::analyze`
//!   builds and of the task graph `map_and_schedule` builds on it
//!   (`pastix_testsupport::{symbol_fnv, task_graph_fnv}`).
//! * **the threads earn their keep (hardware-gated)** — with ≥ 2 CPUs the
//!   threaded `Plan::analyze` of QUER must not be slower than the
//!   sequential one (best of alternating repetitions). With one CPU there
//!   is nothing to measure and the gate prints `skipped`, never a pass.
//!
//! Per problem the report carries `<problem>_{to_graph,nd,symbolic,sched,
//! analyze}_{seq,par}_ms` — the four stages timed through the per-crate
//! entry points under the options `Plan::analyze` derives, and the whole
//! `Plan::analyze` call — and `<problem>_{perm,symbol,task_graph}_fnv`.
//! Writes `BENCH_analyze.json` at the repository root (under
//! `target/bench-quick/` with `--quick`), opening with
//! `pastix_bench::env_header`; exits non-zero if any armed gate fails.

use pastix_bench::{env_header, write_report};
use pastix_graph::{build_problem, Parallelism, ProblemId, SymCsc};
use pastix_json::{obj, Json};
use pastix_machine::MachineModel;
use pastix_ordering::{nested_dissection, OrderingOptions};
use pastix_sched::{map_and_schedule, SchedOptions};
use pastix_solver::{Plan, SolverConfig};
use pastix_symbolic::AnalysisOptions;
use pastix_testsupport::{perm_fnv, symbol_fnv, task_graph_fnv};
use std::time::Instant;


/// The `bench_e2e` matrices at the `bench_e2e` scales, with the hashes of
/// the permutation, block symbol and task graph analyze must produce for
/// each (as pinned in `tests/analyze_determinism.rs`).
const PROBLEMS: [(ProblemId, f64, Hashes); 6] = [
    (ProblemId::Quer, 1.0, [0x6e5e_f0d0_fc78_d5cf, 0xbdd0_ef6f_a47f_4848, 0x6432_fe3a_44d4_da38]),
    (ProblemId::Bmwcra1, 0.1, [0xe685_9aee_c5a6_fb7d, 0x238d_f640_4a63_94c0, 0xdcac_100a_f59d_eae1]),
    (ProblemId::Shipsec5, 0.2, [0x75b1_c87f_3948_5a4f, 0x0537_f077_a62d_974f, 0xfd5d_bbee_3707_ae78]),
    (ProblemId::Ship001, 0.5, [0xa9e6_fd05_0c3f_15e9, 0x59bd_f8dc_5ac3_0c56, 0xca5c_5c52_884e_4f2c]),
    (ProblemId::Oilpan, 0.2, [0x7645_ac18_90d4_c4e1, 0x2d5b_75c5_309c_782b, 0xc673_1cc5_618e_9ef5]),
    (ProblemId::X104, 0.05, [0x3c5b_5f41_e3dc_28f3, 0x7242_7765_2943_4934, 0x6341_7773_00ae_507b]),
];

/// FNV-1a-64 of `[permutation, block symbol, task graph]`.
type Hashes = [u64; 3];

/// Logical processors of the schedule, as in `bench_e2e`.
const PROCS: usize = 2;
const STAGES: [&str; 5] = ["to_graph", "nd", "symbolic", "sched", "analyze"];

struct Artifacts {
    perm: Vec<u32>,
    cblks_ends: Vec<u32>,
    blok_rows: Vec<(u32, u32, u32)>,
    digest: u64,
    nnz_l: u64,
    opc: f64,
}

fn config(par: Parallelism) -> SolverConfig {
    let mut cfg = SolverConfig::default();
    cfg.analyze.procs = PROCS;
    cfg.analyze.parallelism = par;
    cfg
}

fn analyze_once(a: &SymCsc<f64>, par: Parallelism) -> (Artifacts, f64) {
    let cfg = config(par);
    let t0 = Instant::now();
    let plan = Plan::analyze(a, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    let sym = plan.symbol();
    let stats = plan.analyze_stats().expect("analyzed plans carry stats");
    (
        Artifacts {
            perm: plan.permutation().unwrap().perm().to_vec(),
            cblks_ends: sym.cblks.iter().map(|c| c.lcol).collect(),
            blok_rows: sym.bloks.iter().map(|b| (b.frow, b.lrow, b.fcblk)).collect(),
            digest: plan.schedule().expect("static schedule").digest(),
            nnz_l: stats.scalar_nnz_offdiag,
            opc: stats.scalar_opc,
        },
        wall,
    )
}

fn same_bits(a: &Artifacts, b: &Artifacts) -> bool {
    a.perm == b.perm
        && a.cblks_ends == b.cblks_ends
        && a.blok_rows == b.blok_rows
        && a.digest == b.digest
        && a.nnz_l == b.nnz_l
        && a.opc.to_bits() == b.opc.to_bits()
}

/// One analyze, stage by stage, under the options `Plan::analyze` derives
/// from its config: seconds of `STAGES[..4]` and the artifact hashes.
fn staged_once(a: &SymCsc<f64>, par: Parallelism) -> ([f64; 4], Hashes) {
    let mut t = [0.0; 4];
    let mut lap = |slot: usize, t0: Instant| t[slot] = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let g = a.to_graph();
    lap(0, t0);
    let t0 = Instant::now();
    let ordering = nested_dissection(&g, &OrderingOptions { parallelism: par, ..Default::default() });
    lap(1, t0);
    let t0 = Instant::now();
    let analysis =
        pastix_symbolic::analyze(&g, &ordering, &AnalysisOptions { parallelism: par, ..Default::default() });
    lap(2, t0);
    let t0 = Instant::now();
    let mapping = map_and_schedule(
        &analysis.symbol,
        &MachineModel::sp2(PROCS),
        &SchedOptions { parallelism: par, ..Default::default() },
    );
    lap(3, t0);
    (t, [perm_fnv(ordering.perm()), symbol_fnv(&analysis.symbol), task_graph_fnv(&mapping.graph)])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let par_threads = cpus;
    let par = Parallelism::Threads(par_threads);
    println!(
        "bench_analyze ({mode}) — analyze stage by stage, one thread vs Threads({par_threads}) \
         on {cpus} CPU(s)"
    );
    let problems = if quick { &PROBLEMS[..2] } else { &PROBLEMS[..] };
    let reps = if quick { 3 } else { 5 };

    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut rows = Vec::new();
    let mut determinism_ok = true;
    let mut perms_ok = true;
    let mut symbols_ok = true;
    let mut quer = None;

    for &(id, sc, want) in problems {
        let a = build_problem::<f64>(id, sc);
        let name = id.name().to_lowercase();
        println!("\nproblem {} @ {sc} n={} nnz={}", id.name(), a.n(), a.nnz_stored());

        // Determinism gate, unconditional: several thread counts plus
        // Auto must reproduce the sequential artifacts bitwise.
        let (seq_ref, _) = analyze_once(&a, Parallelism::Sequential);
        let mut bitwise_ok = true;
        for p in [Parallelism::Threads(2), Parallelism::Threads(par_threads.max(4)), Parallelism::Auto] {
            let (art, _) = analyze_once(&a, p);
            if !same_bits(&seq_ref, &art) {
                eprintln!("  [{p:?}] DIFFERS from sequential analyze");
                bitwise_ok = false;
            }
        }
        println!(
            "  determinism (perm/symbol/digest/NNZ_L/OPC across thread counts): {}",
            if bitwise_ok { "bitwise identical" } else { "FAILED" }
        );
        determinism_ok &= bitwise_ok;

        // Timing: best of `reps`, the two settings alternating so that a
        // drift of the machine falls on both (the gate runs above doubled
        // as warm-up).
        let mut best = [[f64::INFINITY; 5]; 2];
        let mut fnv = [[0u64; 3]; 2];
        for _ in 0..reps {
            for (k, p) in [Parallelism::Sequential, par].into_iter().enumerate() {
                let (stages, h) = staged_once(&a, p);
                fnv[k] = h;
                let whole = analyze_once(&a, p).1;
                for (b, t) in best[k].iter_mut().zip(stages.into_iter().chain([whole])) {
                    *b = b.min(t);
                }
            }
        }
        let matches = |i: usize| fnv.iter().all(|h| h[i] == want[i]);
        let (perm_ok, symbol_ok) = (matches(0), matches(1) && matches(2));
        for (i, what) in ["perm", "symbol", "task_graph"].into_iter().enumerate() {
            if !matches(i) {
                eprintln!("  {what} hash {:016x} / {:016x}, recorded {:016x}", fnv[0][i], fnv[1][i], want[i]);
            }
            fields.push((format!("{name}_{what}_fnv"), Json::Str(format!("{:016x}", fnv[0][i]))));
        }
        perms_ok &= perm_ok;
        symbols_ok &= symbol_ok;
        for (k, setting) in ["seq", "par"].into_iter().enumerate() {
            print!("  {setting}:");
            for (stage, t) in STAGES.iter().zip(best[k]) {
                print!(" {stage} {:.1} ms", t * 1e3);
                fields.push((format!("{name}_{stage}_{setting}_ms"), Json::Num(t * 1e3)));
            }
            println!();
        }
        let ratio = best[0][4] / best[1][4];
        fields.push((format!("{name}_analyze_seq_over_par"), Json::Num(ratio)));
        println!(
            "  analyze seq / par: {ratio:.2}x; permutation {:016x}, symbol {:016x}, task graph {:016x}",
            fnv[0][0], fnv[0][1], fnv[0][2]
        );
        if id == ProblemId::Quer {
            quer = Some((best[0][4], best[1][4]));
        }
        rows.push(obj([
            ("problem", Json::Str(id.name().to_string())),
            ("scale", Json::Num(sc)),
            ("n", Json::Num(a.n() as f64)),
            ("nnz_l", Json::Num(seq_ref.nnz_l as f64)),
            ("opc", Json::Num(seq_ref.opc)),
            ("bitwise_identical", Json::Bool(bitwise_ok)),
            ("perm_matches_recorded", Json::Bool(perm_ok)),
            ("symbol_matches_recorded", Json::Bool(symbol_ok)),
        ]));
    }

    let (quer_seq, quer_par) = quer.expect("QUER is in every mode");
    let gate_armed = cpus >= 2;
    let par_ok = quer_par <= quer_seq;
    let mut all = vec![("bench".to_string(), Json::Str("analyze".to_string()))];
    all.extend(env_header(mode));
    all.extend([
        ("par_threads".to_string(), Json::Num(par_threads as f64)),
        ("procs".to_string(), Json::Num(PROCS as f64)),
        ("reps".to_string(), Json::Num(reps as f64)),
        ("determinism_ok".to_string(), Json::Bool(determinism_ok)),
        ("perms_match_recorded".to_string(), Json::Bool(perms_ok)),
        ("symbols_match_recorded".to_string(), Json::Bool(symbols_ok)),
        ("par_gate_armed".to_string(), Json::Bool(gate_armed)),
        ("par_gate_ok".to_string(), if gate_armed { Json::Bool(par_ok) } else { Json::Null }),
    ]);
    all.extend(fields);
    all.push(("problems".to_string(), Json::Arr(rows)));
    println!();
    write_report("BENCH_analyze.json", quick, &Json::Obj(all));

    println!(
        "acceptance (analyze artifacts bitwise identical at every thread count): {}",
        if determinism_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "acceptance (nested dissection produces the recorded permutations): {}",
        if perms_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "acceptance (analyze produces the recorded block symbols and task graphs): {}",
        if symbols_ok { "MET" } else { "NOT MET" }
    );
    let mut failed = !determinism_ok || !perms_ok || !symbols_ok;
    if gate_armed {
        println!(
            "acceptance (Threads({par_threads}) analyze of QUER no slower than one thread): \
             {:.1} ms vs {:.1} ms — {}",
            quer_par * 1e3,
            quer_seq * 1e3,
            if par_ok { "MET" } else { "NOT MET" }
        );
        failed |= !par_ok;
    } else {
        println!(
            "acceptance (parallel analyze no slower than one thread): skipped — one CPU, \
             nothing parallel to measure"
        );
    }
    if failed {
        eprintln!("FAIL: bench_analyze gates not met");
        std::process::exit(1);
    }
}
