//! The names every performance claim in this repository is stated in:
//! workloads, end-to-end metrics with their regression bounds, and
//! per-layer metrics. `BENCHMARK.json` lists the same names (a test below
//! keeps the two equal); `README.md` says what each means per workload.

use crate::stats::Summary;
use pastix_json::{obj, Json};

pub const WORKLOADS: [&str; 4] = [
    "solid3d_cold_static",
    "plate2d_cold_static",
    "shell_refactor_dynamic",
    "serve_mixed_closed",
];

/// Logical processors of every factorization and solve, and the thread
/// count of the analyze phase: the sandbox has two cores.
pub const PROCS: usize = 2;

/// `(name, unit, better, bound)`. Every timing has the widest bound the
/// driver allows: after calibration the interquartile spread of ten run
/// medians is 2–11 % in this sandbox, the driver has seen 19–29 % on the
/// single-column solve, it refuses a benchmark whose own spread exceeds a
/// bound, and a noisy afternoon must not do that. Smaller regressions
/// still show in `compare`; they are only not a gate.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("solution_s", "s", "lower", 0.25),
    ("analyze_s", "s", "lower", 0.25),
    ("factorize_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("factor_bytes", "bytes", "lower", 0.01),
    ("peak_rss_bytes", "bytes", "lower", 0.20),
    ("solves_per_s", "1/s", "higher", 0.25),
    ("request_p50_s", "s", "lower", 0.25),
    ("request_p99_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`; the layer is the name's prefix.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("graph.to_graph_s", "s", "lower"),
    ("graph.permute_s", "s", "lower"),
    ("ordering.nd_s", "s", "lower"),
    ("ordering.nnz_l", "count", "lower"),
    ("ordering.opc", "count", "lower"),
    ("symbolic.analyze_s", "s", "lower"),
    ("symbolic.cblks", "count", "lower"),
    ("symbolic.bloks", "count", "lower"),
    ("symbolic.fill_overhead", "ratio", "lower"),
    ("sched.map_s", "s", "lower"),
    ("sched.tasks", "count", "lower"),
    ("sched.pred_makespan_s", "s", "lower"),
    ("sched.pred_over_measured", "ratio", "higher"),
    ("kernels.gemm_gflops", "Gflop/s", "higher"),
    ("kernels.trsm_gflops", "Gflop/s", "higher"),
    ("kernels.ldlt_gflops", "Gflop/s", "higher"),
    ("machine.stream_gbs", "GB/s", "higher"),
    ("solver.scatter_s", "s", "lower"),
    ("solver.numeric_s", "s", "lower"),
    ("solver.factorize_gflops", "Gflop/s", "higher"),
    ("solver.gemm_ceiling_frac", "ratio", "higher"),
    ("solver.solve_panel8_s", "s", "lower"),
    ("solver.solve_per_rhs_s", "s", "lower"),
    ("solver.solve_bw_frac", "ratio", "higher"),
    ("solver.factorize_p1_s", "s", "lower"),
    ("solver.parallel_efficiency", "ratio", "higher"),
    ("solver.compute_frac", "ratio", "higher"),
    ("solver.wait_frac", "ratio", "lower"),
    ("solver.idle_frac", "ratio", "lower"),
    ("solver.imbalance", "ratio", "lower"),
    ("solver.task_share.comp1d", "ratio", "lower"),
    ("solver.task_share.factor", "ratio", "lower"),
    ("solver.task_share.bdiv", "ratio", "lower"),
    ("solver.task_share.bmod", "ratio", "lower"),
    ("solver.fac_deep_copies", "count", "lower"),
    ("solver.aub_fresh_allocs", "count", "lower"),
    ("runtime.sends", "count", "lower"),
    ("runtime.send_bytes", "bytes", "lower"),
    ("runtime.steals", "count", "lower"),
    ("runtime.executed", "count", "lower"),
    ("serve.fingerprint_s", "s", "lower"),
    ("serve.pack_unpack_s", "s", "lower"),
    ("serve.hit_batch_s", "s", "lower"),
    ("serve.miss_batch_s", "s", "lower"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.numeric_only_misses", "count", "lower"),
    ("serve.mean_batch_width", "count", "higher"),
    ("serve.analyze_s_total", "s", "lower"),
    ("serve.factorize_s_total", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// One reported metric: its name, unit and sample summary (`median` is
/// the value).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Collects metrics by name, taking units from the tables above so a
/// misspelt or unlisted name fails at once.
#[derive(Debug, Default)]
pub struct MetricSet {
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    fn unit_of(name: &str) -> (&'static str, &'static str) {
        END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not listed in metrics.rs"))
    }

    pub fn put(&mut self, name: &str, summary: Summary) {
        let (name, unit) = Self::unit_of(name);
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.metrics.push(Metric {
            name,
            unit,
            summary,
        });
    }

    pub fn value(&mut self, name: &str, v: f64) {
        self.put(name, Summary::single(v));
    }

    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `{"name": {"value": .., "unit": ..}, ..}` — the driver's form.
    pub fn to_driver_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let v = obj([
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]);
                    (m.name.to_string(), v)
                })
                .collect(),
        )
    }

    /// The full summaries, for the result file and `compare`.
    pub fn to_detail_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let s = &m.summary;
                    let mut f = vec![
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(m.unit.to_string())),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("samples", Json::Num(s.n as f64)),
                    ];
                    if let Some((frac, v)) = s.hi {
                        f.push(("hi", Json::Num(v)));
                        f.push(("hi_fraction", Json::Num(frac)));
                    }
                    (m.name.to_string(), obj(f))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_lists_these_names() {
        let text = include_str!("../../BENCHMARK.json");
        let j = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let arr = j.get(key).unwrap().as_arr().unwrap();
            arr.iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = j.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").unwrap().as_str().unwrap(), name);
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), unit);
            assert_eq!(m.get("better").unwrap().as_str().unwrap(), better);
            assert_eq!(m.get("bound").unwrap().as_f64().unwrap(), bound);
        }
        let layers = j.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").unwrap().as_str().unwrap(), name);
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), unit);
            assert_eq!(m.get("better").unwrap().as_str().unwrap(), better);
        }
    }
}
