//! Sample summaries: median, quartiles, and the highest percentile the
//! sample count supports.

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_MIN: usize = 10;

/// Value at quantile `q ∈ [0, 1]` of an ascending-sorted sample, linearly
/// interpolated between neighbours (Python's `statistics.median` for
/// `q = 0.5`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The highest percentile that still has at least [`TAIL_MIN`] samples
/// beyond it, as `(fraction, value)`; `None` below `2 × TAIL_MIN` samples,
/// where that percentile would fall under the median.
pub fn hi_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 * TAIL_MIN {
        return None;
    }
    // Exactly TAIL_MIN samples lie strictly above index n − TAIL_MIN − 1.
    let idx = n - TAIL_MIN - 1;
    Some(((idx + 1) as f64 / n as f64, sorted[idx]))
}

/// What one timing metric reports: the median, the quartiles around it,
/// the highest supported percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(fraction, value)` of [`hi_percentile`].
    pub hi: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            hi: hi_percentile(&s),
        }
    }

    /// A metric that is a single reading (a count, a peak).
    pub fn single(v: f64) -> Summary {
        Summary {
            n: 1,
            median: v,
            q1: v,
            q3: v,
            hi: None,
        }
    }

    /// The tail figure: the value at fraction `q` when the sample supports
    /// it (at least [`TAIL_MIN`] samples beyond), else the highest
    /// supported percentile, else the maximum quartile.
    pub fn tail(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        match hi_percentile(&s) {
            Some((frac, _)) if q <= frac => quantile_sorted(&s, q),
            Some((_, v)) => v,
            None => quantile_sorted(&s, 0.75),
        }
    }
}

/// Sum over classes of `weight × median(samples)`, skipping empty classes
/// and renormalising the weights of the rest. Used where one workload
/// mixes inputs of different sizes: the per-class medians are unimodal, a
/// median over the pooled multimodal sample is not.
pub fn weighted_median(classes: &[(f64, &[f64])]) -> f64 {
    let mut total_w = 0.0;
    let mut acc = 0.0;
    for (w, samples) in classes {
        if !samples.is_empty() {
            total_w += w;
            acc += w * median(samples);
        }
    }
    if total_w > 0.0 {
        acc / total_w
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(hi_percentile(&few), None);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let (frac, v) = hi_percentile(&s).unwrap();
        assert_eq!(v, 89.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_MIN);
        assert!((frac - 0.90).abs() < 1e-12);
        // 1000 samples support p99 exactly: ten lie beyond it.
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(hi_percentile(&s).unwrap(), (0.99, 989.0));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it: report p90 instead.
        assert_eq!(Summary::tail(&s, 0.99), 89.0);
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        assert!((Summary::tail(&big, 0.99) - 1979.01).abs() < 1e-9);
    }

    #[test]
    fn weighted_median_skips_empty_classes() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0];
        let none: [f64; 0] = [];
        let w = weighted_median(&[(0.6, &a), (0.25, &b), (0.15, &none)]);
        assert!((w - (0.6 * 2.0 + 0.25 * 10.0) / 0.85).abs() < 1e-12);
    }
}
