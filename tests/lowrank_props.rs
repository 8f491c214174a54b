//! Property tests for the low-rank kernel family: the compressor's error
//! contract and the solve-side products against the dense reference.
//! Inputs are synthesized from a per-case seed so every run replays
//! identically.

use pastix_kernels::lowrank::LowRankBlock;
use pastix_kernels::{compress_block, gemm_nn_acc, gemm_nt_acc, gemm_tn_acc, lr_gemm_nn_acc, lr_gemm_tn_acc};
use proptest::prelude::*;

/// SplitMix64 stream for matrix entries; dimensions come from the
/// strategy, values from this (one seed per case keeps the strategies
/// independent of the drawn sizes).
struct Vals {
    state: u64,
}

impl Vals {
    fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn fill(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Exact rank-`r` block `U·Vᵀ` as a column-major dense matrix.
fn low_rank_dense(vals: &mut Vals, m: usize, n: usize, r: usize) -> Vec<f64> {
    let u = vals.fill(m * r);
    let v = vals.fill(n * r);
    let mut a = vec![0.0; m * n];
    gemm_nt_acc(m, n, r, 1.0, &u, m, &v, n, &mut a, m);
    a
}

fn frob(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn compress(vals: &mut Vals, m: usize, n: usize, r: usize, tol: f64) -> LowRankBlock<f64> {
    let a = low_rank_dense(vals, m, n, r);
    compress_block(m, n, &a, m, tol, 0.0).expect("an exact low-rank block must compress")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `compress_block` on an exact rank-`r` matrix recovers a factored
    /// form with rank ≤ `r` whose reconstruction error meets the
    /// tolerance, and the representation is profitable.
    #[test]
    fn compress_recovers_low_rank((m, n, r, seed) in (6usize..24, 6usize..24, 1usize..4, 0u64..1 << 48)) {
        let mut vals = Vals::new(seed);
        let a = low_rank_dense(&mut vals, m, n, r);
        let tol = 1e-10 * frob(&a).max(1.0);
        let lr = compress_block(m, n, &a, m, tol, 0.0)
            .expect("exact low-rank block must compress");
        prop_assert!(lr.rank <= r, "rank {} exceeds constructed rank {r}", lr.rank);
        prop_assert!(lr.is_profitable());
        let back = lr.decompress();
        let diff: Vec<f64> = a.iter().zip(&back).map(|(x, y)| x - y).collect();
        prop_assert!(frob(&diff) <= tol, "reconstruction error {} > {tol}", frob(&diff));
    }

    /// On arbitrary (generically full-rank) data the compressor either
    /// declines — the caller keeps the block dense — or returns a
    /// profitable representation within the requested absolute tolerance.
    #[test]
    fn compress_error_contract((m, n, seed) in (4usize..20, 4usize..20, 0u64..1 << 48)) {
        let mut vals = Vals::new(seed);
        let a = vals.fill(m * n);
        let tol = 0.3 * frob(&a);
        if let Some(lr) = compress_block(m, n, &a, m, tol, 0.0) {
            prop_assert!(lr.is_profitable());
            prop_assert!(lr.bytes() < lr.dense_bytes());
            let back = lr.decompress();
            let diff: Vec<f64> = a.iter().zip(&back).map(|(x, y)| x - y).collect();
            prop_assert!(frob(&diff) <= tol, "error {} > {tol}", frob(&diff));
        }
    }

    /// The solve-side products (`Y += α·(U·Vᵀ)·X` and `C += α·(U·Vᵀ)ᵀ·B`)
    /// match the dense products on the decompressed block.
    #[test]
    fn lr_solve_products_match_dense((m, n, nrhs, seed) in (5usize..16, 5usize..16, 1usize..4, 0u64..1 << 48)) {
        let mut vals = Vals::new(seed);
        let lr = compress(&mut vals, m, n, 2, 1e-12);
        let dense = lr.decompress();
        let scale = frob(&dense).max(1.0);

        // The low-rank solve products keep their right-hand sides
        // interleaved (row by row); the dense oracles are column-major.
        let rows = |p: &[f64], h: usize| -> Vec<f64> {
            (0..h * nrhs).map(|i| p[i / nrhs + (i % nrhs) * h]).collect()
        };
        let mut scratch = Vec::new();

        let x = vals.fill(n * nrhs);
        let y0 = vals.fill(m * nrhs);
        let mut y_want = y0.clone();
        gemm_nn_acc(m, nrhs, n, 1.5, &dense, m, &x, n, &mut y_want, m);
        let mut y = rows(&y0, m);
        lr_gemm_nn_acc(1.5, lr.as_ref(), &rows(&x, n), nrhs, &mut y, &mut scratch);
        let dy: Vec<f64> = y.iter().zip(&rows(&y_want, m)).map(|(a, b)| a - b).collect();
        prop_assert!(frob(&dy) <= 1e-9 * scale, "forward product error {}", frob(&dy));

        let b = vals.fill(m * nrhs);
        let c0 = vals.fill(n * nrhs);
        let mut c_want = c0.clone();
        gemm_tn_acc(n, nrhs, m, -1.0, &dense, m, &b, m, &mut c_want, n);
        let mut c = rows(&c0, n);
        lr_gemm_tn_acc(-1.0, lr.as_ref(), &rows(&b, m), nrhs, &mut c, &mut scratch);
        let dc: Vec<f64> = c.iter().zip(&rows(&c_want, n)).map(|(a, b)| a - b).collect();
        prop_assert!(frob(&dc) <= 1e-9 * scale, "transpose product error {}", frob(&dc));
    }
}
