//! Shared harness of the benchmark binaries: problem construction, pipeline
//! runs and table formatting for regenerating the paper's tables/figures.
//!
//! Every binary accepts the environment variable `PASTIX_SCALE` (default
//! `0.05`): the fraction of each paper matrix's original column count used
//! when generating its synthetic analog. `PASTIX_PROBLEMS` (comma-separated
//! names) restricts the suite.

use pastix_graph::{build_problem, ProblemId, SymCsc};
use pastix_machine::MachineModel;
use pastix_ordering::{nested_dissection, OrderingOptions};
use pastix_sched::{map_and_schedule, MappingOptions, Mapping, SchedOptions};
use pastix_symbolic::{analyze, Analysis, AnalysisOptions};

/// Scale factor for the problem suite, from `PASTIX_SCALE`.
pub fn scale() -> f64 {
    std::env::var("PASTIX_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

/// The problems to run, from `PASTIX_PROBLEMS` (default: all ten).
pub fn problems() -> Vec<ProblemId> {
    match std::env::var("PASTIX_PROBLEMS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| ProblemId::from_name(t.trim()))
            .collect(),
        Err(_) => ProblemId::ALL.to_vec(),
    }
}

/// The processor counts of Table 2.
pub const TABLE2_PROCS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A fully analyzed problem under one ordering strategy.
pub struct PreparedProblem {
    /// Which paper matrix this is the analog of.
    pub id: ProblemId,
    /// The generated matrix.
    pub matrix: SymCsc<f64>,
    /// Symbolic analysis (ordering + symbol).
    pub analysis: Analysis,
}

/// Builds and analyzes one problem with the given ordering options.
pub fn prepare(id: ProblemId, scale: f64, ordering: &OrderingOptions) -> PreparedProblem {
    let matrix = build_problem::<f64>(id, scale);
    let g = matrix.to_graph();
    let ord = nested_dissection(&g, ordering);
    let analysis = analyze(&g, &ord, &AnalysisOptions::default());
    PreparedProblem {
        id,
        matrix,
        analysis,
    }
}

/// Scotch-like ordering preset (the PaStiX side of the tables).
pub fn scotch_ordering() -> OrderingOptions {
    OrderingOptions::scotch_like()
}

/// MeTiS-like ordering preset (the PSPASES side of the tables).
pub fn metis_ordering() -> OrderingOptions {
    OrderingOptions::metis_like()
}

/// Maps and schedules a prepared problem for `p` SP2-model processors,
/// returning the mapping (whose makespan is the predicted Table 2 time).
pub fn schedule_for(prep: &PreparedProblem, p: usize, sched: &SchedOptions) -> Mapping {
    let machine = MachineModel::sp2(p);
    map_and_schedule(&prep.analysis.symbol, &machine, sched)
}

/// The scheduling options used throughout the tables (paper: blocking 64).
pub fn default_sched() -> SchedOptions {
    SchedOptions {
        block_size: 64,
        mapping: MappingOptions::default(),
        ..Default::default()
    }
}

/// Formats a float in the paper's compact `x.xxe+yy` style.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// Output of `git <args>` in the current directory, `None` when git or
/// the repository is missing.
pub fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The fields every `BENCH_*.json` needs to be comparable with another:
/// the box (CPU count), the tree (git revision, dirty or not), the run
/// mode, and the kernel configuration in force (`f64` register tile,
/// cache blocking, dispatch mode).
pub fn env_header(mode: &str) -> Vec<(String, pastix_json::Json)> {
    use pastix_json::{num_arr, Json};
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tile = <f64 as pastix_kernels::Scalar>::TILE;
    let bs = pastix_kernels::blocking_for::<f64>();
    [
        ("mode", Json::Str(mode.into())),
        ("cpus", Json::Num(cpus as f64)),
        ("git_rev", Json::Str(git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()))),
        ("git_dirty", Json::Bool(git_dirty())),
        ("tile", Json::Str(format!("{} {}x{}", tile.isa, tile.mr, tile.nr))),
        ("blocking", num_arr([bs.mc as f64, bs.kc as f64, bs.nc as f64])),
        ("kernel_mode", Json::Str(format!("{:?}", pastix_kernels::kernel_mode()))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// `true` when the tree differs from `HEAD` in anything but the
/// `BENCH_*.json` records at its root, which the full-mode benches rewrite
/// themselves: two full benches run back to back do not stamp each other
/// dirty.
fn git_dirty() -> bool {
    // Porcelain lines are `XY path`; the first lost its leading blank to
    // `git`'s trim, so the path is what follows the status, trimmed.
    let bench_record = |path: &str| path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/');
    git(&["status", "--porcelain"])
        .is_some_and(|s| s.lines().any(|l| !bench_record(l.get(2..).unwrap_or("").trim_start())))
}

/// Writes a bench's report `file` (a `BENCH_*.json` name) and returns its
/// path: at the repository root in full mode, where the committed record
/// lives, and under `target/bench-quick/` with `--quick`, so a quick run
/// never overwrites a committed record.
pub fn write_report(file: &str, quick: bool, report: &pastix_json::Json) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if quick { root.join("target/bench-quick") } else { root };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(file);
    std::fs::write(&path, report.pretty()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// Gigaflop rate from an operation count and a time.
pub fn gflops(opc: f64, time: f64) -> f64 {
    if time <= 0.0 {
        0.0
    } else {
        opc / time / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_problem() {
        let prep = prepare(ProblemId::Quer, 0.01, &scotch_ordering());
        assert!(prep.matrix.n() > 100);
        prep.analysis.symbol.validate().unwrap();
    }

    #[test]
    fn schedule_small_problem() {
        let prep = prepare(ProblemId::Thread, 0.01, &scotch_ordering());
        let mut sopts = default_sched();
        sopts.block_size = 32;
        let m = schedule_for(&prep, 4, &sopts);
        assert!(m.schedule.makespan > 0.0);
    }

    #[test]
    fn problem_filter_parses_names() {
        // Direct parse path (the env-var plumbing is a thin wrapper).
        let picked: Vec<_> = "ship001, THREAD ,nope"
            .split(',')
            .filter_map(|t| pastix_graph::ProblemId::from_name(t.trim()))
            .collect();
        assert_eq!(picked, vec![pastix_graph::ProblemId::Ship001, pastix_graph::ProblemId::Thread]);
    }

    #[test]
    fn table2_procs_match_paper() {
        assert_eq!(TABLE2_PROCS, [1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn formatting() {
        assert_eq!(sci(1234.5), "1.23e3");
        assert!(gflops(2e9, 1.0) == 2.0);
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
