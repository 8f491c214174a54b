//! Ceilings measured in the traced run's own process: dense-kernel rates
//! (the `kernels` layer) and sustainable memory bandwidth (the machine).

use crate::inputs::Rng;
use crate::stats::median;
use pastix_kernels::model::{ldlt_flops, trsm_panel_flops};
use pastix_kernels::{
    gemm_flops, gemm_nt_acc, ldlt_factor_blocked, trsm::trsm_ldlt_panel, NB_FACTOR,
};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each kernel probe; the median is reported.
const REPS: usize = 7;

fn filled(len: usize, rng: &mut Rng) -> Vec<f64> {
    (0..len).map(|_| rng.uniform(-0.5, 0.5)).collect()
}

/// A dense symmetric, strictly diagonally dominant (hence SPD) order-`n`
/// matrix, column-major.
fn dense_spd(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for j in 0..n {
        for i in j + 1..n {
            let v = rng.uniform(-0.5, 0.5);
            a[i + j * n] = v;
            a[j + i * n] = v;
        }
        a[j + j * n] = n as f64;
    }
    a
}

fn median_rate(flops: f64, mut once: impl FnMut() -> f64) -> f64 {
    once(); // warm-up outside the clock
    let secs: Vec<f64> = (0..REPS).map(|_| once()).collect();
    flops / median(&secs) / 1e9
}

/// `gemm_nt_acc` at 384³ under `KernelMode::Auto` (the packed path).
pub fn gemm_gflops() -> f64 {
    const N: usize = 384;
    let mut rng = Rng::new(1, 0x6E33);
    let (a, b) = (filled(N * N, &mut rng), filled(N * N, &mut rng));
    let mut c = vec![0.0; N * N];
    // Several products per sample: one 384³ product lasts only ~7 ms.
    const INNER: usize = 8;
    median_rate(INNER as f64 * gemm_flops(N, N, N), || {
        let t = Instant::now();
        for _ in 0..INNER {
            gemm_nt_acc(N, N, N, 1.0, black_box(&a), N, black_box(&b), N, &mut c, N);
        }
        black_box(&c);
        t.elapsed().as_secs_f64()
    })
}

/// `trsm_ldlt_panel`: a 1024 × 256 panel against an order-256 factor.
pub fn trsm_gflops() -> f64 {
    const M: usize = 1024;
    const N: usize = 256;
    let mut rng = Rng::new(2, 0x6E33);
    let mut diag = dense_spd(N, &mut rng);
    ldlt_factor_blocked(N, &mut diag, N, NB_FACTOR, &mut Vec::new()).expect("SPD by construction");
    let panel0 = filled(M * N, &mut rng);
    let mut panel = panel0.clone();
    median_rate(trsm_panel_flops(M, N), || {
        panel.copy_from_slice(&panel0);
        let t = Instant::now();
        trsm_ldlt_panel(M, N, black_box(&diag), N, &mut panel, M);
        black_box(&panel);
        t.elapsed().as_secs_f64()
    })
}

/// Blocked dense `L·D·Lᵀ` of order 1024 (the paper's dense-kernel remark).
pub fn ldlt_gflops() -> f64 {
    const N: usize = 1024;
    let a0 = dense_spd(N, &mut Rng::new(3, 0x6E33));
    let mut a = a0.clone();
    let mut work = Vec::new();
    median_rate(ldlt_flops(N), || {
        a.copy_from_slice(&a0);
        let t = Instant::now();
        ldlt_factor_blocked(N, black_box(&mut a), N, NB_FACTOR, &mut work)
            .expect("SPD by construction");
        t.elapsed().as_secs_f64()
    })
}

/// Size of the last-level cache as Linux reports it for cpu0.
pub fn last_level_cache_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m << 20),
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

fn mem_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    line.split_whitespace()
        .nth(1)?
        .parse::<u64>()
        .ok()
        .map(|kb| kb << 10)
}

/// Result of the bandwidth probe, with the sizes that qualify it.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub gbs: f64,
    pub llc_bytes: u64,
    pub array_bytes: u64,
}

/// STREAM triad `a ← b + s·c` on `threads` threads, each array at least
/// four times the last-level cache (less only when memory does not allow
/// it; both sizes are returned so the reader can tell).
pub fn stream_triad(threads: usize) -> Stream {
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let cap = mem_available_bytes().map_or(256 << 20, |m| m / 8);
    let array_bytes = (4 * llc).min(cap);
    let len = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut pass = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    pass(); // first touch of `a`
    let secs: Vec<f64> = (0..3).map(|_| pass()).collect();
    black_box(&a);
    Stream {
        gbs: 3.0 * array_bytes as f64 / median(&secs) / 1e9,
        llc_bytes: llc,
        array_bytes,
    }
}

/// Resets the process's peak-resident-set mark to its current resident
/// set, so the next [`peak_rss_bytes`] reads the peak since now. Where the
/// kernel refuses, the mark stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb << 10)
}
