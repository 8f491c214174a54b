//! Benchmark trend over the committed history: walks `git log` for the
//! `BENCH_*.json` reports that ride with the code, parses each committed
//! revision, and prints per-file trend tables (newest first) so a
//! performance regression shows up as a break in the series.
//!
//! Strictly an observability artifact: the process always exits 0 on
//! readable repositories and degrades gracefully on shallow clones or
//! checkouts without git (it reports what it could not do and moves on).
//! CI runs it non-gating and uploads the output.

use pastix_json::Json;
use std::process::Command;

/// The committed reports and the headline metrics to trend for each:
/// `(file, [(json_key, column_label)])`.
const TRACKED: &[(&str, &[(&str, &str)])] = &[
    (
        "BENCH_factorize.json",
        &[
            ("shipsec5_speedup", "shipsec5-speedup"),
            ("tracing_overhead_shipsec5", "trace-overhead"),
        ],
    ),
    ("BENCH_kernels.json", &[]),
    (
        "BENCH_trace.json",
        &[
            ("reconciliation", "reconciliation"),
            ("model_scale_ns_per_cost", "model-scale"),
        ],
    ),
    (
        "BENCH_blr.json",
        &[("headline_mem_ratio", "blr-mem-ratio")],
    ),
    (
        "BENCH_analyze.json",
        &[
            // Absolute times (ms) on every CPU of the box, and what the
            // threads buy over one (≥ 1 or the bench fails).
            ("quer_nd_par_ms", "quer-nd-par"),
            ("quer_analyze_par_ms", "quer-analyze-par"),
            ("bmwcra1_analyze_par_ms", "bmw-analyze-par"),
            ("quer_analyze_seq_over_par", "quer-seq/par"),
        ],
    ),
    (
        "BENCH_serve.json",
        &[
            ("latency_p50_ns", "lat-p50"),
            ("latency_p99_ns", "lat-p99"),
            ("queue_wait_p99_ns", "qwait-p99"),
            ("solve_p99_ns", "solve-p99"),
            ("cache_hit_rate", "hit-rate"),
            ("observability_overhead_frac", "obs-ovh"),
            // Absolute solve times (ms): the static engine against the
            // one-thread sweep, and the cache key.
            ("ship001_solve_k1_ms", "ship-solve-k1"),
            ("ship001_seq_sweep_k1_ms", "ship-sweep-k1"),
            ("ship001_solve_k8_ms", "ship-solve-k8"),
            ("ship001_seq_sweep_k8_ms", "ship-sweep-k8"),
            ("quer_solve_k1_ms", "quer-solve-k1"),
            ("quer_solve_k8_ms", "quer-solve-k8"),
            ("ship001_fingerprint_ms", "ship-fprint"),
        ],
    ),
];

/// How many revisions per file to walk at most.
const MAX_REVS: usize = 20;

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// Mean over the per-case `speedup` fields of a kernels report — the
/// derived headline when no scalar metric is committed at the top level.
fn kernels_mean_speedup(j: &Json) -> Option<f64> {
    let cases = j.get("cases")?.as_arr().ok()?;
    let mut sum = 0.0;
    let mut n = 0usize;
    for c in cases {
        if let Some(s) = c.get("speedup").and_then(|v| v.as_f64().ok()) {
            sum += s;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

fn trend_file(file: &str, metrics: &[(&str, &str)]) {
    let Some(log) = git(&["log", "--format=%H %cs %s", &format!("--max-count={MAX_REVS}"), "--", file])
    else {
        println!("{file}: git log unavailable (shallow clone or no git) — skipped");
        return;
    };
    if log.trim().is_empty() {
        println!("{file}: no committed history yet");
        return;
    }
    println!("== {file} ==");
    let labels: Vec<&str> = if metrics.is_empty() {
        vec!["mean-speedup"]
    } else {
        metrics.iter().map(|&(_, l)| l).collect()
    };
    print!("{:<12} {:<11}", "commit", "date");
    for l in &labels {
        print!(" {l:>16}");
    }
    println!("  subject");
    for line in log.lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(hash), Some(date)) = (parts.next(), parts.next()) else {
            continue;
        };
        let subject = parts.next().unwrap_or("");
        let Some(body) = git(&["show", &format!("{hash}:{file}")]) else {
            // The commit predates the file or the object is missing
            // (shallow clone): fine, the series just ends here.
            continue;
        };
        let Ok(j) = Json::parse(&body) else {
            println!("{:<12} {:<11} {:>16}  {}", &hash[..12.min(hash.len())], date, "unparseable", subject);
            continue;
        };
        print!("{:<12} {:<11}", &hash[..12.min(hash.len())], date);
        if metrics.is_empty() {
            match kernels_mean_speedup(&j) {
                Some(v) => print!(" {v:>16.3}"),
                None => print!(" {:>16}", "-"),
            }
        } else {
            for &(key, _) in metrics {
                match j.get(key).and_then(|v| v.as_f64().ok()) {
                    Some(v) => print!(" {v:>16.4}"),
                    None => print!(" {:>16}", "-"),
                }
            }
        }
        let subject = if subject.len() > 44 { &subject[..44] } else { subject };
        println!("  {subject}");
    }
    println!();
}

fn main() {
    println!("bench_trend — committed BENCH_*.json history (newest first)\n");
    if git(&["rev-parse", "--git-dir"]).is_none() {
        println!("not a git checkout — nothing to trend");
        return;
    }
    for &(file, metrics) in TRACKED {
        trend_file(file, metrics);
    }
}
