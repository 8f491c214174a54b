//! `bench_e2e compare A.json B.json`: is B worse than A, per workload and
//! end-to-end metric, by more than the metric's bound?

use crate::metrics::END_TO_END;
use pastix_json::Json;

/// Header fields that must be bit-for-bit equal between two results of
/// the same code: the exact counts of each workload.
const EXACT: [&str; 6] = [
    "sched.digest",
    "ordering.opc",
    "ordering.nnz_l",
    "sched.tasks",
    "factor_bytes",
    "serve.cache_misses_per_cycle",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread of either side is wider than the bound: the pair of
    /// medians cannot settle the question.
    Unresolved,
}

/// One side of a comparison: the median and the quartiles around it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// By how much of `a` is `b` worse (negative: better), given which
/// direction is better.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

pub fn judge(a: Side, b: Side, better: &str, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(a.median, b.median, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Json) -> Option<Side> {
    let f = |k: &str| metric.get(k).and_then(|v| v.as_f64().ok());
    Some(Side {
        median: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
    })
}

/// Compares two result files; prints one row per (workload, metric) and
/// returns the number of `worse` rows, or why the files cannot be
/// compared.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let field = |j: &Json, k: &str| j.get(k).map(Json::compact).unwrap_or_default();
    for key in ["mode", "seconds"] {
        if field(a, key) != field(b, key) {
            return Err(format!(
                "results differ in `{key}`: {} against {}",
                field(a, key),
                field(b, key)
            ));
        }
    }
    let workloads = |j: &Json| match j.get("workloads") {
        Some(Json::Obj(w)) => Ok(w.clone()),
        _ => Err("result has no `workloads` object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut worse = 0;
    println!(
        "{:<24} {:<15} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!(
                "workload `{name}` is missing from the second result"
            ));
        };
        for key in EXACT {
            let (ha, hb) = (
                ra.get("header").and_then(|h| h.get(key)),
                rb.get("header").and_then(|h| h.get(key)),
            );
            if ha != hb {
                println!("{name:<24} {key:<15} exact count differs: {ha:?} against {hb:?}  worse");
                worse += 1;
            }
        }
        for (metric, _, better, bound) in END_TO_END {
            let get = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (get(ra), get(rb)) else {
                return Err(format!("`{name}` lacks `{metric}` in one of the results"));
            };
            let verdict = judge(sa, sb, better, bound);
            worse += usize::from(verdict == Verdict::Worse);
            let iqr = |s: Side| format!("{:.3}%", 100.0 * s.spread());
            println!(
                "{name:<24} {metric:<15} {:>12.6e} {:>12} {:>12.6e} {:>12} {:>+7.2}% {:>5.0}%  {}",
                sa.median,
                iqr(sa),
                sb.median,
                iqr(sb),
                100.0 * worsening(sa.median, sb.median, better),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricSet, WORKLOADS};
    use crate::stats::Summary;
    use pastix_json::obj;

    fn tight(v: f64) -> Side {
        Side {
            median: v,
            q1: v * 0.995,
            q3: v * 1.005,
        }
    }

    #[test]
    fn judge_flags_twelve_percent_and_passes_three() {
        assert_eq!(
            judge(tight(1.0), tight(1.12), "lower", 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(tight(1.0), tight(1.03), "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(tight(1.0), tight(0.5), "lower", 0.10), Verdict::Ok);
        // Throughput regresses downwards.
        assert_eq!(
            judge(tight(100.0), tight(88.0), "higher", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(120.0), "higher", 0.10),
            Verdict::Ok
        );
        // A spread wider than the bound settles nothing.
        let wide = Side {
            median: 1.12,
            q1: 1.0,
            q3: 1.3,
        };
        assert_eq!(judge(tight(1.0), wide, "lower", 0.10), Verdict::Unresolved);
    }

    /// A synthetic result whose every timing is `scale` times the base;
    /// byte counts stay put.
    fn result(mode: &str, scale: f64) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let mut m = MetricSet::default();
                for (name, unit, _, _) in END_TO_END {
                    let v = match unit {
                        "s" => 2.0 * scale,
                        "1/s" => 50.0 / scale,
                        _ => 4096.0,
                    };
                    m.put(
                        name,
                        Summary {
                            n: 40,
                            median: v,
                            q1: v * 0.99,
                            q3: v * 1.01,
                            hi: None,
                        },
                    );
                }
                let header = obj([("sched.digest", Json::Str("0x1".into()))]);
                (
                    w.to_string(),
                    obj([("header", header), ("end_to_end", m.to_detail_json())]),
                )
            })
            .collect();
        obj([
            ("mode", Json::Str(mode.into())),
            ("seconds", Json::Num(20.0)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    #[test]
    fn compare_counts_regressions_and_refuses_mixed_modes() {
        let base = result("full", 1.0);
        assert_eq!(compare(&base, &result("full", 1.03)), Ok(0));
        // 40 % slower: every timing and the throughput; byte counts stay.
        let timed = END_TO_END.iter().filter(|m| m.1 != "bytes").count();
        assert_eq!(
            compare(&base, &result("full", 1.40)),
            Ok(WORKLOADS.len() * timed)
        );
        assert!(compare(&base, &result("quick", 1.0)).is_err());
    }

    #[test]
    fn compare_flags_a_changed_exact_count() {
        let base = result("full", 1.0);
        let mut other = base.clone();
        let Json::Obj(top) = &mut other else {
            unreachable!()
        };
        let Json::Obj(ws) = &mut top[2].1 else {
            unreachable!()
        };
        let Json::Obj(w0) = &mut ws[0].1 else {
            unreachable!()
        };
        w0[0].1 = obj([("sched.digest", Json::Str("0x2".into()))]);
        assert_eq!(compare(&base, &other), Ok(1));
    }
}
