//! Machine-state calibration.
//!
//! The sandbox shares its host: memory bandwidth and core speed drift by
//! tens of percent over minutes (measured: the same operation's median
//! between 0.51 s and 0.84 s within one hour, every phase moving together),
//! which no run of a few tens of seconds can average out. So every timed
//! piece of work is bracketed by two passes of a fixed kernel of the
//! benchmark's own — it calls nothing of the solver, so only the machine
//! moves its time — and its seconds are scaled by `nominal / pass`.
//! Reported seconds are therefore *calibrated seconds*: what the work
//! would have taken with the machine in its nominal state. The run header
//! carries the median pass, from which raw seconds can be recovered.
//!
//! A pass has two parts, timed apart, because the solver's phases are not
//! equally sensitive to the neighbours. Over 48 runs of 15 s in which the
//! machine's speed moved by half, the run medians of analyze and factorize
//! followed the *work* part with an elasticity of 0.9–1.1 (residual 2–7 %),
//! and so did an 8-column panel solve; the single-column solve of the
//! static engine — dependent loads through hash maps of short segments —
//! followed it with 1.3–1.8, and the *alloc* part, built of the same
//! ingredients, with 0.9–1.0 (residual 5–6 %). Each timing is scaled by the
//! part it moves with ([`Scale`]).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds of each part of one pass on the reference box when nothing else
/// contends for it. Constants of the benchmark: changing one rescales
/// every timing ever reported in its unit.
pub const NOMINAL: Pass = Pass {
    work: 0.0125,
    alloc: 0.0055,
};

/// A pass this recent stands in for the "before" pass of the next piece
/// of work, so back-to-back operations share the pass between them.
const REUSE: Duration = Duration::from_millis(2);

const TABLE_LEN: usize = 1 << 21; // 16 MiB of f64: four times the L2
const GATHERS: usize = 1 << 20;
const BLOCK: usize = 1 << 11; // 16 KiB: L1-resident
const SWEEPS: usize = 24_000;
const SEGMENTS: u32 = 24_000; // ≈ 9 MiB of segments and table per thread

/// Seconds of the two parts of a pass — or, as [`Scale`], the factors to
/// multiply raw seconds by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Random loads over a table far larger than L2, then multiply-add
    /// sweeps over an L1-resident block.
    pub work: f64,
    /// Filling, reading and dropping a hash map of short heap segments.
    pub alloc: f64,
}

/// `nominal / pass`, part by part.
pub type Scale = Pass;

impl Pass {
    fn map2(self, other: Pass, f: impl Fn(f64, f64) -> f64) -> Pass {
        Pass {
            work: f(self.work, other.work),
            alloc: f(self.alloc, other.alloc),
        }
    }
}

pub struct Calibrator {
    table: Vec<f64>,
    threads: usize,
    last: Option<(Instant, Pass)>,
    passes: Vec<Pass>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Self {
        let table = (0..TABLE_LEN).map(|i| 1.0 + (i % 7) as f64).collect();
        Calibrator {
            table,
            threads,
            last: None,
            passes: Vec::new(),
        }
    }

    /// One pass: on every thread, the work part — random loads (what the
    /// sparse phases are sensitive to) and multiply-add sweeps (what the
    /// dense kernels are sensitive to) in about equal parts — then the
    /// alloc part. Returns, per part, the seconds of the slowest thread.
    fn pass(&mut self) -> Pass {
        let table = &self.table;
        let zero = Pass {
            work: 0.0,
            alloc: 0.0,
        };
        let pass = std::thread::scope(|s| {
            let threads: Vec<_> = (0..self.threads)
                .map(|id| {
                    s.spawn(move || {
                        let t = Instant::now();
                        // A full-period LCG walks the table in a fixed order.
                        let mut i = id * 7919 % TABLE_LEN;
                        let mut acc = 0.0;
                        for _ in 0..GATHERS {
                            acc += table[i];
                            i = (i * 1_664_525 + 1_013_904_223) % TABLE_LEN;
                        }
                        let mut block = [1.0f64; BLOCK];
                        for _ in 0..SWEEPS {
                            for x in block.iter_mut() {
                                *x = *x * 1.000_001 + 1e-9;
                            }
                        }
                        black_box((acc, block));
                        let work = t.elapsed().as_secs_f64();

                        let t = Instant::now();
                        let mut segments: HashMap<u32, Vec<f64>> = HashMap::new();
                        for k in 0..SEGMENTS {
                            segments.insert(k, vec![0.5; 8 + (k % 64) as usize]);
                        }
                        let sum: f64 = (0..SEGMENTS).map(|k| segments[&k][0]).sum();
                        black_box(sum);
                        drop(segments);
                        let alloc = t.elapsed().as_secs_f64();
                        Pass { work, alloc }
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a calibration thread panicked"))
                .fold(zero, |slowest, p| slowest.map2(p, f64::max))
        });
        self.passes.push(pass);
        self.last = Some((Instant::now(), pass));
        pass
    }

    /// Opens a bracket; hand the result to [`Calibrator::end`].
    pub fn begin(&mut self) -> Pass {
        match self.last {
            Some((at, pass)) if at.elapsed() < REUSE => pass,
            _ => self.pass(),
        }
    }

    /// Closes the bracket opened with `before`: the factors to scale the
    /// bracketed work's seconds by.
    pub fn end(&mut self, before: Pass) -> Scale {
        let mean = before.map2(self.pass(), |b, a| 0.5 * (b + a));
        NOMINAL.map2(mean, |nominal, pass| nominal / pass)
    }

    /// Runs `f` in a bracket of its own; returns its result and its
    /// seconds calibrated by the work part.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.begin();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        (r, secs * self.end(before).work)
    }

    /// Median pass of this run, part by part, in seconds (0 before the
    /// first pass).
    pub fn median_pass(&self) -> Pass {
        let median = |part: fn(&Pass) -> f64| match self.passes.as_slice() {
            [] => 0.0,
            p => crate::stats::median(&p.iter().map(part).collect::<Vec<_>>()),
        };
        Pass {
            work: median(|p| p.work),
            alloc: median(|p| p.alloc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bracket_scales_by_nominal_over_the_mean_of_its_two_passes() {
        let mut c = Calibrator::new(1);
        let before = c.begin();
        let scale = c.end(before);
        let after = c.passes[1];
        assert!((scale.work - NOMINAL.work / (0.5 * (before.work + after.work))).abs() < 1e-15);
        assert!((scale.alloc - NOMINAL.alloc / (0.5 * (before.alloc + after.alloc))).abs() < 1e-15);
        // Back to back, the next bracket reuses the closing pass.
        assert_eq!(c.begin(), after);
        assert_eq!(c.passes.len(), 2);
        std::thread::sleep(2 * REUSE);
        c.begin();
        assert_eq!(c.passes.len(), 3);
        let m = c.median_pass();
        assert!(m.work > 0.0 && m.alloc > 0.0);
    }
}
