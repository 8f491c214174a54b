//! `bench_e2e`: the repository's benchmark. Four workloads, ten
//! end-to-end metrics, and a per-layer budget from a traced run; see
//! `benchmark/README.md`.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! bench_e2e [--seed N] [--quick] [--traced] [--workload W] [--out FILE]
//!                                                           every workload, one process each
//! bench_e2e compare A.json B.json                           is B worse than A?
//! ```

mod calibrate;
mod compare;
mod inputs;
mod metrics;
mod pipeline;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;

use metrics::WORKLOADS;
use pastix_json::{obj, Json};
use std::path::PathBuf;
use std::process::{exit, Command};

/// Measured seconds per run of the full benchmark (`run_seconds` in
/// `BENCHMARK.json`); `--quick` measures a tenth of it.
const RUN_SECONDS: f64 = 20.0;

/// Where the benchmark writes: span files, results, its scratch dirs.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    traced: bool,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
}

impl Args {
    /// Measured seconds of a run: as given, else the mode's default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            RUN_SECONDS / 10.0
        } else {
            RUN_SECONDS
        })
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_e2e: {problem}");
    eprintln!(
        "usage: bench_e2e --workload W --seed N --seconds S --trace 0|1 [--detail FILE]\n\
         \x20      bench_e2e [--seed N] [--seconds S] [--quick] [--traced] [--workload W] [--out FILE]\n\
         \x20      bench_e2e compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        traced: false,
        out: None,
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value().to_string()),
            "--seed" => {
                a.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                let s: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--quick" => a.quick = true,
            "--traced" => a.traced = true,
            "--out" => a.out = Some(value().into()),
            "--detail" => a.detail = Some(value().into()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload `{w}`"));
        }
    }
    a
}

/// Clears ambient `PASTIX_*` variables and points the solver's on-disk
/// caches and black-box dumps at a directory of this process's own, so a
/// run neither reads nor leaves machine state. Returns that directory.
fn hermetic_environment() -> PathBuf {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PASTIX_") {
            std::env::remove_var(key);
        }
    }
    let dir = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    std::env::set_var("PASTIX_BLOCKING_CACHE_DIR", &dir);
    std::env::set_var("PASTIX_BLACKBOX_DIR", &dir);
    dir
}

/// One run in this process: prints every metric by name with its unit,
/// then, as the last line, the result object the driver reads.
fn single_run(a: &Args, workload: &str, trace: bool) -> ! {
    let scratch = hermetic_environment();
    let seconds = a.seconds();
    println!(
        "bench_e2e {workload} seed {} seconds {seconds} trace {}",
        a.seed,
        u8::from(trace)
    );
    let result = run::run(workload, a.seed, seconds, trace)
        .expect("workload names are checked at parse time");
    let _ = std::fs::remove_dir_all(&scratch);

    let environment = run::environment();
    for (key, v) in environment.iter().chain(&result.header) {
        println!("  {key}: {}", v.compact());
    }
    println!(
        "{:<28} {:>16} {:<8} {:>14} {:>8}",
        "metric", "value", "unit", "hi", "samples"
    );
    for m in &result.metrics.metrics {
        let s = &m.summary;
        // With one core the scaling figures are skipped, not measured.
        let skipped = s.median == 0.0
            && ["solver.factorize_p1_s", "solver.parallel_efficiency"].contains(&m.name);
        let value = if skipped {
            "skipped".to_string()
        } else {
            format!("{:.6e}", s.median)
        };
        let hi = s.hi.map_or(String::new(), |(frac, v)| {
            format!("p{:.1}={v:.4e}", 100.0 * frac)
        });
        println!(
            "{:<28} {value:>16} {:<8} {hi:>14} {:>8}",
            m.name, m.unit, s.n
        );
    }
    println!(
        "operations attempted {} failed {}",
        result.attempted, result.failed
    );

    let kind = if trace { "per_layer" } else { "end_to_end" };
    if let Some(path) = &a.detail {
        let detail = obj([
            ("workload", Json::Str(workload.to_string())),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("environment", obj(environment)),
            ("header", obj(result.header)),
            (kind, result.metrics.to_detail_json()),
        ]);
        std::fs::write(path, detail.pretty())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let line = obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", result.metrics.to_driver_json()),
    ]);
    println!("{}", line.compact());
    exit(i32::from(result.failed != 0))
}

/// Every workload (or the one named), each in a child process of its
/// own so peak memory and allocator state do not carry over; one result
/// file.
fn suite(a: &Args) -> ! {
    let exe = std::env::current_exe().expect("own executable path");
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mode = if a.quick { "quick" } else { "full" };
    let seconds = a.seconds();
    let mut failed = false;
    let mut workloads = Vec::new();
    let mut environment = Json::Null;
    for name in names {
        let mut fields: Vec<(String, Json)> = Vec::new();
        for trace in [false, true] {
            if trace && !a.traced {
                continue;
            }
            let detail = out_dir().join(format!(
                "detail-{}-{name}-{}.json",
                std::process::id(),
                u8::from(trace)
            ));
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &a.seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--detail")
                .arg(&detail)
                .status()
                .expect("cannot start the workload's process");
            failed |= !status.success();
            let text = std::fs::read_to_string(&detail).unwrap_or_else(|e| {
                eprintln!("bench_e2e: {name} left no result ({e})");
                exit(1)
            });
            let _ = std::fs::remove_file(&detail);
            let Ok(Json::Obj(run)) = Json::parse(&text) else {
                panic!("{} is not a JSON object", detail.display())
            };
            for (key, v) in run {
                match (key.as_str(), trace) {
                    ("workload", _) => {}
                    // Machine and toolchain are the same for every child: keep one copy.
                    ("environment", _) => environment = v,
                    ("attempted" | "failed" | "header", true) => {
                        fields.push((format!("traced_{key}"), v))
                    }
                    _ => fields.push((key, v)),
                }
            }
        }
        workloads.push((name.to_string(), Json::Obj(fields)));
    }
    let result = obj([
        ("benchmark", Json::Str("bench_e2e".into())),
        ("mode", Json::Str(mode.into())),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("environment", environment),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    std::fs::write(&path, result.pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    if failed {
        eprintln!("bench_e2e: at least one workload failed an operation");
    }
    exit(i32::from(failed))
}

fn compare_files(a: &str, b: &str) -> ! {
    let load = |p: &str| {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("cannot read {p}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| usage(&format!("{p}: {e}")))
    };
    match compare::compare(&load(a), &load(b)) {
        Ok(0) => exit(0),
        Ok(worse) => {
            eprintln!("bench_e2e: {worse} row(s) worse than the bound allows");
            exit(1)
        }
        Err(e) => {
            eprintln!("bench_e2e: cannot compare: {e}");
            exit(2)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => usage("compare takes two result files"),
        }
    }
    let a = parse(&args);
    match (&a.workload, a.trace) {
        (Some(w), Some(trace)) => single_run(&a, w, trace),
        (None, Some(_)) => usage("--trace needs --workload"),
        (_, None) => suite(&a),
    }
}
