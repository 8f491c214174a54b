//! The BLAS time model.
//!
//! The paper's mapper is "fully driven" by a cost model of the dense block
//! computations: *"we estimate the workload and message passing latency by
//! using a BLAS and communication network time model, which is automatically
//! calibrated on the target architecture"* and *"a multi-variable polynomial
//! regression has been used to build an analytical model of these
//! routines"*. This module implements exactly that device: each kernel class
//! gets a polynomial in `(m, n, k)` with the eight monomials
//! `{1, m, n, k, mn, mk, nk, mnk}`, fitted by linear least squares on
//! measured timings.
//!
//! The model deliberately captures the fact that BLAS-3 efficiency is *"far
//! from being linear in terms of number of operations"*: the low-order terms
//! price per-call and per-column overheads that dominate on small blocks.

use crate::factor::{ldlt_factor_inplace, llt_factor_inplace};
use crate::gemm::gemm_nt_acc;

use crate::trsm::{solve_lower, solve_lower_trans, trsm_ldlt_panel};
use pastix_json::{num_arr, obj, Json, JsonError};
use std::time::Instant;

/// Number of monomial features in the polynomial cost model.
pub const N_FEATURES: usize = 8;

/// Evaluates the monomial feature vector `{1, m, n, k, mn, mk, nk, mnk}`.
#[inline]
pub fn features(m: f64, n: f64, k: f64) -> [f64; N_FEATURES] {
    [1.0, m, n, k, m * n, m * k, n * k, m * n * k]
}

/// A fitted polynomial cost (seconds) for one kernel class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolyCost {
    /// Coefficients over [`features`], in seconds.
    pub coef: [f64; N_FEATURES],
}

impl PolyCost {
    /// Predicted time in seconds for a `(m, n, k)` instance. Clamped below
    /// by zero: a least-squares fit may go slightly negative at the corners
    /// of the sampled domain and a scheduler must never see negative costs.
    #[inline]
    pub fn eval(&self, m: usize, n: usize, k: usize) -> f64 {
        let f = features(m as f64, n as f64, k as f64);
        let t: f64 = self.coef.iter().zip(&f).map(|(c, x)| c * x).sum();
        t.max(0.0)
    }

    /// A pure flop-rate model: `flops(m,n,k)·per_flop + fixed`.
    pub fn from_rate(per_flop_mnk: f64, fixed: f64) -> Self {
        let mut coef = [0.0; N_FEATURES];
        coef[0] = fixed;
        coef[7] = per_flop_mnk;
        Self { coef }
    }

    /// JSON form: the coefficient array.
    pub fn to_json(&self) -> Json {
        num_arr(self.coef)
    }

    /// Parses the JSON form produced by [`PolyCost::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            coef: v.as_f64_array::<N_FEATURES>()?,
        })
    }
}

/// One timing observation: `(m, n, k, seconds)`.
pub type Sample = (usize, usize, usize, f64);

/// Fits a [`PolyCost`] by linear least squares (normal equations, solved
/// with this crate's own Cholesky). Requires at least [`N_FEATURES`]
/// samples spanning the feature space; a tiny Tikhonov ridge keeps the
/// normal matrix positive definite when the design is degenerate (e.g. all
/// samples share `n = 1`).
pub fn fit_poly(samples: &[Sample]) -> PolyCost {
    assert!(
        samples.len() >= N_FEATURES,
        "need at least {N_FEATURES} samples, got {}",
        samples.len()
    );
    let nf = N_FEATURES;
    // Normal matrix G = XᵀX (column-major lower), rhs = Xᵀy.
    let mut g = vec![0.0f64; nf * nf];
    let mut rhs = vec![0.0f64; nf];
    for &(m, n, k, t) in samples {
        let f = features(m as f64, n as f64, k as f64);
        for j in 0..nf {
            rhs[j] += f[j] * t;
            for i in j..nf {
                g[i + j * nf] += f[i] * f[j];
            }
        }
    }
    // Jacobi scaling: the monomial columns span many orders of magnitude,
    // so solve the symmetrically scaled system S·G·S (Sᵢ = G_ii^{-1/2})
    // instead — this tames the conditioning enough for a Cholesky solve.
    let mut s = [0.0f64; N_FEATURES];
    for (i, si) in s.iter_mut().enumerate() {
        let d = g[i + i * nf];
        *si = if d > 0.0 { d.sqrt().recip() } else { 1.0 };
    }
    for j in 0..nf {
        for i in j..nf {
            g[i + j * nf] *= s[i] * s[j];
        }
        rhs[j] *= s[j];
    }
    // Tiny ridge keeps the scaled matrix SPD when the design is degenerate
    // (e.g. every sample shares n = 1).
    for i in 0..nf {
        g[i + i * nf] += 1e-10;
    }
    llt_factor_inplace(nf, &mut g, nf).expect("regularized normal matrix must be SPD");
    solve_lower(nf, &g, nf, &mut rhs, 1, nf);
    solve_lower_trans(nf, &g, nf, &mut rhs, 1, nf);
    let mut coef = [0.0; N_FEATURES];
    for (c, (r, si)) in coef.iter_mut().zip(rhs.iter().zip(&s)) {
        *c = r * si;
    }
    PolyCost { coef }
}

/// The kernel classes priced by the model, mirroring the dense operations of
/// the factorization algorithm (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// `C += α A·Bᵀ` contribution computation (`m×k · k×n`).
    GemmNt,
    /// Panel solve `X·Lᵀ·D⁻¹` (`m` rows against an order-`n` diagonal block).
    TrsmPanel,
    /// Dense `L·D·Lᵀ` of an order-`n` diagonal block.
    FactorLdlt,
    /// Dense `L·Lᵀ` of an order-`n` diagonal block (baseline).
    FactorLlt,
    /// Column scaling `F = L·D` (`m×n`).
    ScaleCols,
}

/// Calibrated (or default) time model for every kernel class.
#[derive(Debug, Clone, PartialEq)]
pub struct BlasModel {
    /// GEMM `C += A·Bᵀ` cost, arguments `(m, n, k)`.
    pub gemm_nt: PolyCost,
    /// Panel solve cost, arguments `(m, n, n)`.
    pub trsm_panel: PolyCost,
    /// `L·D·Lᵀ` diagonal factor cost, arguments `(n, n, n)`.
    pub factor_ldlt: PolyCost,
    /// `L·Lᵀ` diagonal factor cost, arguments `(n, n, n)`.
    pub factor_llt: PolyCost,
    /// `F = L·D` scaling cost, arguments `(m, n, 1)`.
    pub scale_cols: PolyCost,
}

impl BlasModel {
    /// Predicted seconds for a kernel instance.
    pub fn cost(&self, class: KernelClass, m: usize, n: usize, k: usize) -> f64 {
        match class {
            KernelClass::GemmNt => self.gemm_nt.eval(m, n, k),
            KernelClass::TrsmPanel => self.trsm_panel.eval(m, n, k),
            KernelClass::FactorLdlt => self.factor_ldlt.eval(n, n, n),
            KernelClass::FactorLlt => self.factor_llt.eval(n, n, n),
            KernelClass::ScaleCols => self.scale_cols.eval(m, n, 1),
        }
    }

    /// JSON form: one coefficient array per kernel class.
    pub fn to_json(&self) -> Json {
        obj([
            ("gemm_nt", self.gemm_nt.to_json()),
            ("trsm_panel", self.trsm_panel.to_json()),
            ("factor_ldlt", self.factor_ldlt.to_json()),
            ("factor_llt", self.factor_llt.to_json()),
            ("scale_cols", self.scale_cols.to_json()),
        ])
    }

    /// Parses the JSON form produced by [`BlasModel::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            gemm_nt: PolyCost::from_json(v.field("gemm_nt")?)?,
            trsm_panel: PolyCost::from_json(v.field("trsm_panel")?)?,
            factor_ldlt: PolyCost::from_json(v.field("factor_ldlt")?)?,
            factor_llt: PolyCost::from_json(v.field("factor_llt")?)?,
            scale_cols: PolyCost::from_json(v.field("scale_cols")?)?,
        })
    }

    /// A model of one 120 MHz Power2SC thin node of the paper's IBM SP2
    /// (480 MFlop/s peak, ESSL-like BLAS-3 efficiency profile).
    ///
    /// The `mnk` coefficients correspond to ≈450 MFlop/s asymptotic GEMM,
    /// ≈375 MFlop/s LLᵀ and ≈315 MFlop/s LDLᵀ (reproducing the paper's
    /// 1.07 s vs 1.27 s on a dense 1024×1024 factor), while the low-order
    /// terms price loop and cache-miss overheads that strangle small blocks.
    pub fn power2sc() -> Self {
        let flop = |rate_mflops: f64| 1.0 / (rate_mflops * 1e6);
        // GEMM: 2mnk flops at 450 MFlop/s asymptotic.
        let gemm_nt = PolyCost {
            coef: [
                2.0e-6,            // call overhead
                5.0e-9,            // per row
                2.0e-8,            // per column (C write stream start)
                5.0e-9,            // per k
                6.0e-9,            // per C entry (load+store)
                1.5e-9,            // per A entry
                1.5e-9,            // per B entry
                2.0 * flop(450.0), // 2mnk flops
            ],
        };
        // Panel solve: ~m·n² flops at a lower rate plus the D rescale.
        let trsm_panel = PolyCost {
            coef: [1.5e-6, 5.0e-9, 4.0e-8, 0.0, 8.0e-9, 0.0, 2.0e-9, 1.2 * flop(300.0)],
        };
        // Dense factors: n³/3 flops (arguments passed as (n,n,n) so the mnk
        // monomial sees n³).
        let factor_ldlt = PolyCost {
            coef: [3.0e-6, 2.0e-8, 2.0e-8, 2.0e-8, 8.0e-9, 0.0, 0.0, flop(315.0) / 3.0],
        };
        let factor_llt = PolyCost {
            coef: [3.0e-6, 2.0e-8, 2.0e-8, 2.0e-8, 8.0e-9, 0.0, 0.0, flop(375.0) / 3.0],
        };
        let scale_cols = PolyCost {
            coef: [5.0e-7, 2.0e-9, 1.0e-8, 0.0, 4.0e-9, 0.0, 0.0, 0.0],
        };
        Self {
            gemm_nt,
            trsm_panel,
            factor_ldlt,
            factor_llt,
            scale_cols,
        }
    }
}

impl Default for BlasModel {
    fn default() -> Self {
        Self::power2sc()
    }
}

/// Calibration: measures this crate's own kernels over a size grid and fits
/// a [`BlasModel`]. This is the automatic calibration step the paper runs on
/// the target architecture before mapping.
///
/// `reps` controls how many times each instance is timed (the minimum is
/// kept, which rejects scheduler noise).
pub fn calibrate_blas_model(sizes: &[usize], reps: usize) -> BlasModel {
    assert!(!sizes.is_empty());
    let reps = reps.max(1);
    let mut gemm_samples = Vec::new();
    let mut trsm_samples = Vec::new();
    let mut ldlt_samples = Vec::new();
    let mut llt_samples = Vec::new();
    let mut scale_samples = Vec::new();

    let time_min = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    for &m in sizes {
        for &n in sizes {
            // GEMM over a k grid.
            for &k in sizes {
                let a = vec![1.000001f64; m * k];
                let b = vec![0.999999f64; n * k];
                let mut c = vec![0.0f64; m * n];
                let t = time_min(&mut || {
                    gemm_nt_acc(m, n, k, -1.0f64, &a, m, &b, n, &mut c, m);
                });
                gemm_samples.push((m, n, k, t));
            }
            // Panel solve m rows against an order-n SPD diagonal block.
            let mut diag = crate::dense::deterministic_spd(n, (m * 31 + n) as u64);
            ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
            let mut panel = vec![1.0f64; m * n];
            let t = time_min(&mut || {
                trsm_ldlt_panel(m, n, diag.as_slice(), n, &mut panel, m);
            });
            trsm_samples.push((m, n, n, t));
            // Column scaling.
            let d = vec![2.0f64; n];
            let src = vec![1.0f64; m * n];
            let mut dst = vec![0.0f64; m * n];
            let t = time_min(&mut || {
                crate::trsm::scale_cols_by_diag_into(m, n, &src, m, &d, &mut dst, m);
            });
            scale_samples.push((m, n, 1, t));
        }
        // Dense factor kernels at order m.
        let base = crate::dense::deterministic_spd(m, m as u64 + 1);
        let t = time_min(&mut || {
            let mut a = base.clone();
            ldlt_factor_inplace(m, a.as_mut_slice(), m).unwrap();
        });
        ldlt_samples.push((m, m, m, t));
        let t = time_min(&mut || {
            let mut a = base.clone();
            llt_factor_inplace(m, a.as_mut_slice(), m).unwrap();
        });
        llt_samples.push((m, m, m, t));
    }

    // The factor kernels only vary along one axis; pad the sample sets so
    // the ridge-regularized fit stays sane.
    BlasModel {
        gemm_nt: fit_poly(&gemm_samples),
        trsm_panel: fit_poly(&trsm_samples),
        factor_ldlt: fit_poly(&pad_axis(&ldlt_samples)),
        factor_llt: fit_poly(&pad_axis(&llt_samples)),
        scale_cols: fit_poly(&scale_samples),
    }
}

/// Duplicates single-axis samples so `fit_poly` has ≥ `N_FEATURES` rows.
fn pad_axis(samples: &[Sample]) -> Vec<Sample> {
    let mut v = samples.to_vec();
    while v.len() < N_FEATURES {
        v.extend_from_slice(samples);
    }
    v
}

/// Flop count of a dense order-`n` `L·D·Lᵀ` (multiply-adds counted as two
/// flops, matching the paper's OPC convention).
#[inline]
pub fn ldlt_flops(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0 + 1.5 * n * n
}

/// Flop count of an `m × n` panel solve against an order-`n` block.
#[inline]
pub fn trsm_panel_flops(m: usize, n: usize) -> f64 {
    (m as f64) * (n as f64) * (n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_layout() {
        let f = features(2.0, 3.0, 5.0);
        assert_eq!(f, [1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 15.0, 30.0]);
    }

    #[test]
    fn fit_recovers_exact_polynomial() {
        // Generate synthetic times from a known coefficient vector and check
        // that the fit recovers it.
        let truth = PolyCost {
            coef: [1e-6, 2e-9, 3e-9, 4e-9, 5e-10, 6e-10, 7e-10, 8e-11],
        };
        let mut samples = Vec::new();
        for m in [1usize, 4, 16, 64] {
            for n in [2usize, 8, 32] {
                for k in [1usize, 8, 64] {
                    samples.push((m, n, k, truth.eval(m, n, k)));
                }
            }
        }
        let fitted = fit_poly(&samples);
        // Normal equations on monomials up to 64³ are ill-conditioned, so
        // compare *predictions* rather than raw coefficients.
        for &(m, n, k, t) in &samples {
            let p = fitted.eval(m, n, k);
            assert!(
                (p - t).abs() <= 1e-4 * t.abs().max(1e-12),
                "prediction at ({m},{n},{k}): {p} vs {t}"
            );
        }
    }

    #[test]
    fn eval_never_negative() {
        let p = PolyCost {
            coef: [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert_eq!(p.eval(10, 10, 10), 0.0);
    }

    #[test]
    fn default_model_orders_sanely() {
        let m = BlasModel::default();
        // Bigger instances cost more.
        assert!(m.cost(KernelClass::GemmNt, 64, 64, 64) > m.cost(KernelClass::GemmNt, 8, 8, 8));
        // LLT beats LDLT at 1024 (the paper's ESSL observation).
        let llt = m.cost(KernelClass::FactorLlt, 1024, 1024, 1024);
        let ldlt = m.cost(KernelClass::FactorLdlt, 1024, 1024, 1024);
        assert!(llt < ldlt, "llt {llt} should be cheaper than ldlt {ldlt}");
        // And the ratio is in the ballpark of 1.07/1.27.
        let ratio = llt / ldlt;
        assert!(ratio > 0.7 && ratio < 0.95, "ratio {ratio}");
    }

    #[test]
    fn default_model_absolute_scale() {
        // The paper: ESSL LDLT on 1024 dense ≈ 1.27 s; our model should land
        // within a factor ~1.5 of that.
        let m = BlasModel::default();
        let t = m.cost(KernelClass::FactorLdlt, 1024, 1024, 1024);
        assert!(t > 0.7 && t < 2.0, "t = {t}");
    }

    #[test]
    fn rate_model() {
        let p = PolyCost::from_rate(1e-9, 1e-6);
        assert!((p.eval(10, 10, 10) - (1e-6 + 1e-9 * 1000.0)).abs() < 1e-15);
    }

    #[test]
    fn calibration_smoke() {
        // Tiny grid: just ensure the pipeline runs and produces a model with
        // positive large-size costs and rough monotonicity.
        let model = calibrate_blas_model(&[4, 16, 48], 2);
        let small = model.cost(KernelClass::GemmNt, 8, 8, 8);
        let big = model.cost(KernelClass::GemmNt, 64, 64, 64);
        assert!(big > 0.0);
        assert!(big >= small * 0.5, "big {big} vs small {small}");
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(ldlt_flops(10), 1000.0 / 3.0 + 150.0);
        assert_eq!(trsm_panel_flops(4, 3), 36.0);
    }
}
