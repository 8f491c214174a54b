//! The typed metrics registry: named counters (kept per rank and merged),
//! gauges and histograms, replacing the solver's ad-hoc global atomics.
//!
//! Design: the *hot path* never touches this registry — workers bump plain
//! per-rank `u64` fields (lock-free by construction) and merge them here
//! once, at run end. The registry itself is therefore a small mutex-guarded
//! map: contention-free in practice, and a handle (`Clone` = `Arc` bump)
//! can be owned by a `SolverConfig`, returned from a run, and read by the
//! caller.

use pastix_json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A power-of-two-bucketed histogram of `u64` samples (64 buckets: bucket
/// `i` holds values whose highest set bit is `i`; bucket 0 holds 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 64],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q <= 1`), linearly interpolated within
    /// the bucket that contains it and clamped to the observed `[min, max]`.
    ///
    /// With power-of-two buckets the old upper-edge answer over-reported by
    /// up to 2× (a p99 sitting at the *bottom* of bucket `[2^i, 2^{i+1})`
    /// was still reported as `2^{i+1}-1`); interpolation assumes samples
    /// are uniform within a bucket, so the estimate is exact for uniform
    /// fill and off by at most one bucket width in the worst case — still
    /// monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil()).max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                let frac = (target - seen) as f64 / c as f64;
                let est = (lo as f64 + frac * (hi - lo) as f64).round() as u64;
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// One registered metric. The registry is *typed*: using one name with two
/// different metric types is a caller bug and panics with the name.
#[derive(Debug, Clone)]
enum Metric {
    Counter {
        total: u64,
        per_rank: BTreeMap<u32, u64>,
    },
    Gauge(f64),
    Hist(Box<Histogram>),
}

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
}

/// A typed metrics registry handle. Cloning shares the underlying store
/// (`Arc`); `Default` creates a fresh empty registry.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.snapshot().counters.len())
            .finish()
    }
}

fn type_mismatch(name: &str, want: &str) -> ! {
    panic!("metric {name:?} already registered with a different type (wanted {want})")
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` (registering it on first use).
    pub fn add_counter(&self, name: &str, n: u64) {
        self.add_counter_rank(name, None, n);
    }

    /// Adds `n` to counter `name`, attributed to `rank` (the merged total
    /// is updated either way).
    pub fn add_counter_rank(&self, name: &str, rank: Option<u32>, n: u64) {
        let mut g = self.inner.lock().unwrap();
        let m = g.metrics.entry(name.to_string()).or_insert(Metric::Counter {
            total: 0,
            per_rank: BTreeMap::new(),
        });
        match m {
            Metric::Counter { total, per_rank } => {
                *total += n;
                if let Some(r) = rank {
                    *per_rank.entry(r).or_insert(0) += n;
                }
            }
            _ => type_mismatch(name, "counter"),
        }
    }

    /// Reads counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.inner.lock().unwrap().metrics.get(name) {
            Some(Metric::Counter { total, .. }) => *total,
            Some(_) => type_mismatch(name, "counter"),
            None => 0,
        }
    }

    /// Per-rank shards of counter `name` (empty when absent or never
    /// attributed).
    pub fn counter_per_rank(&self, name: &str) -> Vec<(u32, u64)> {
        match self.inner.lock().unwrap().metrics.get(name) {
            Some(Metric::Counter { per_rank, .. }) => {
                per_rank.iter().map(|(&r, &v)| (r, v)).collect()
            }
            Some(_) => type_mismatch(name, "counter"),
            None => Vec::new(),
        }
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut g = self.inner.lock().unwrap();
        match g.metrics.entry(name.to_string()).or_insert(Metric::Gauge(v)) {
            Metric::Gauge(slot) => *slot = v,
            _ => type_mismatch(name, "gauge"),
        }
    }

    /// Reads gauge `name` (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.inner.lock().unwrap().metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            Some(_) => type_mismatch(name, "gauge"),
            None => None,
        }
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        let mut g = self.inner.lock().unwrap();
        match g.metrics.entry(name.to_string()).or_insert_with(|| Metric::Hist(Box::default())) {
            Metric::Hist(h) => h.observe(v),
            _ => type_mismatch(name, "histogram"),
        }
    }

    /// Reads histogram `name` (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.inner.lock().unwrap().metrics.get(name) {
            Some(Metric::Hist(h)) => Some((**h).clone()),
            Some(_) => type_mismatch(name, "histogram"),
            None => None,
        }
    }

    /// Point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, m) in &g.metrics {
            match m {
                Metric::Counter { total, per_rank } => {
                    snap.counters.insert(name.clone(), *total);
                    if !per_rank.is_empty() {
                        snap.counters_per_rank.insert(name.clone(), per_rank.clone());
                    }
                }
                Metric::Gauge(v) => {
                    snap.gauges.insert(name.clone(), *v);
                }
                Metric::Hist(h) => {
                    snap.histograms.insert(name.clone(), (**h).clone());
                }
            }
        }
        snap
    }

    /// Serializes a snapshot as JSON (counters, gauges, histogram
    /// summaries).
    pub fn to_json(&self) -> Json {
        let snap = self.snapshot();
        let counters: Vec<(String, Json)> = snap
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
            .collect();
        let gauges: Vec<(String, Json)> = snap
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect();
        let hists: Vec<(String, Json)> = snap
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    obj([
                        ("count", Json::Num(h.count as f64)),
                        ("sum", Json::Num(h.sum as f64)),
                        ("mean", Json::Num(h.mean())),
                        ("p50", Json::Num(h.quantile(0.5) as f64)),
                        ("p99", Json::Num(h.quantile(0.99) as f64)),
                        ("max", Json::Num(if h.count == 0 { 0.0 } else { h.max as f64 })),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(hists)),
        ])
    }
}

/// Point-in-time copy of a registry's contents.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Merged counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-rank counter shards by name (only names that were attributed).
    pub counters_per_rank: BTreeMap<String, BTreeMap<u32, u64>>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Rewrites a registry name (`serve.cache.hits`) as a Prometheus metric
/// name (`pastix_serve_cache_hits`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("pastix_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Deterministic float rendering for exposition: integers print without a
/// fraction, everything else uses Rust's shortest round-trip form.
fn prom_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (0.0.4): counters and gauges as single samples, per-rank counter
    /// shards as a `_per_rank{rank="r"}` series next to the merged total,
    /// and histograms as cumulative `_bucket{le="…"}` series (power-of-two
    /// edges, empty leading/trailing buckets elided) plus `_sum`/`_count`.
    /// Output is deterministic (names sorted, shortest-round-trip floats),
    /// so it can be golden-tested.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
            if let Some(shards) = self.counters_per_rank.get(name) {
                let ps = format!("{p}_per_rank");
                out.push_str(&format!("# TYPE {ps} counter\n"));
                for (rank, &rv) in shards {
                    out.push_str(&format!("{ps}{{rank=\"{rank}\"}} {rv}\n"));
                }
            }
        }
        for (name, &v) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", prom_num(v)));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .map_or(0, |i| (i + 1).min(63));
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                cum += c;
                if c == 0 && i != last {
                    continue;
                }
                let le = if i >= 63 {
                    u64::MAX
                } else {
                    (2u64 << i) - 1
                };
                out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_per_rank() {
        let m = MetricsRegistry::new();
        m.add_counter_rank("x", Some(0), 3);
        m.add_counter_rank("x", Some(1), 4);
        m.add_counter("x", 1);
        assert_eq!(m.counter("x"), 8);
        assert_eq!(m.counter_per_rank("x"), vec![(0, 3), (1, 4)]);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let m = MetricsRegistry::new();
        m.set_gauge("g", 2.5);
        m.set_gauge("g", 3.5);
        assert_eq!(m.gauge("g"), Some(3.5));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert!(h.quantile(0.5) >= 3);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 128 uniform samples across one power-of-two bucket [1024, 2047]:
        // interpolation should land within ~one sample-spacing of the true
        // quantile instead of pinning to the 2047 upper edge.
        let mut h = Histogram::new();
        for i in 0..128u64 {
            h.observe(1024 + i * 8);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let true_p50 = 1024.0 + 0.5 * 1023.0;
        let true_p99 = 1024.0 + 0.99 * 1023.0;
        assert!(
            (p50 as f64 - true_p50).abs() <= 16.0,
            "p50 {p50} vs true {true_p50}"
        );
        assert!(
            (p99 as f64 - true_p99).abs() <= 16.0,
            "p99 {p99} vs true {true_p99}"
        );
        // The old upper-edge estimate reported 2047 for p50 (2× over); the
        // interpolated one must stay below 1.1× the true value.
        assert!((p50 as f64) < true_p50 * 1.1);
        // Monotone in q, clamped to observed extremes.
        assert!(h.quantile(0.01) <= p50 && p50 <= p99);
        assert!(h.quantile(1.0) <= h.max);
        assert!(h.quantile(0.0001) >= h.min);
    }

    #[test]
    fn quantile_single_sample_is_exact() {
        let mut h = Histogram::new();
        h.observe(777);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }

    #[test]
    fn per_rank_histograms_merge() {
        // Samples from every rank land in the one histogram of the name.
        let m = MetricsRegistry::new();
        for v in [100, 200, 1000, 50] {
            m.observe("lat", v);
        }
        let merged = m.histogram("lat").unwrap();
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 1350);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let m = MetricsRegistry::new();
        m.add_counter_rank("serve.requests", Some(0), 3);
        m.add_counter_rank("serve.requests", Some(1), 2);
        m.set_gauge("ready_queue_depth", 4.0);
        m.observe("serve.latency_ns", 1500);
        m.observe("serve.latency_ns", 1600);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pastix_serve_requests counter"));
        assert!(text.contains("pastix_serve_requests 5"));
        assert!(text.contains("pastix_serve_requests_per_rank{rank=\"0\"} 3"));
        assert!(text.contains("# TYPE pastix_ready_queue_depth gauge"));
        assert!(text.contains("pastix_ready_queue_depth 4\n"));
        assert!(text.contains("# TYPE pastix_serve_latency_ns histogram"));
        assert!(text.contains("pastix_serve_latency_ns_bucket{le=\"2047\"} 2"));
        assert!(text.contains("pastix_serve_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pastix_serve_latency_ns_sum 3100"));
        assert!(text.contains("pastix_serve_latency_ns_count 2"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, m.snapshot().to_prometheus());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let m = MetricsRegistry::new();
        m.add_counter("x", 1);
        m.set_gauge("x", 1.0);
    }

    #[test]
    fn clone_shares_store() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.add_counter("c", 5);
        assert_eq!(m.counter("c"), 5);
    }

    #[test]
    fn json_shape() {
        let m = MetricsRegistry::new();
        m.add_counter("c", 2);
        m.observe("h", 9);
        let j = m.to_json();
        assert_eq!(j.get("counters").unwrap().get("c").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(j.get("histograms").unwrap().get("h").unwrap().get("count").unwrap().as_f64().unwrap(), 1.0);
    }
}
