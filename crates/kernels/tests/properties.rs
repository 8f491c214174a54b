//! Property-based tests of the dense kernels: random shapes and data
//! against naive reference implementations, and algebraic invariants of
//! the factorizations.

use pastix_kernels::dense::DenseMat;
use pastix_kernels::pack::{
    gemm_nn_acc_packed, gemm_nt_acc_lower_packed, gemm_nt_acc_packed_with, BlockSizes,
};
use pastix_kernels::{
    gemm_nn_acc, gemm_nt_acc, gemm_nt_acc_lower, ldlt_factor_inplace, llt_factor_inplace,
    solve_unit_lower, solve_unit_lower_trans, trsm_ldlt_panel,
};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

fn mat(m: usize, n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-3.0f64..3.0, m * n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_nt_matches_reference((m, n, k) in dims(), seed in 0u64..1_000_000) {
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let a = DenseMat::from_fn(m, k, |_, _| next());
        let b = DenseMat::from_fn(n, k, |_, _| next());
        let mut c = DenseMat::from_fn(m, n, |_, _| next());
        let expect = {
            let mut e = c.clone();
            let bt = b.transposed();
            let upd = a.matmul(&bt);
            for j in 0..n {
                for i in 0..m {
                    e[(i, j)] -= upd[(i, j)];
                }
            }
            e
        };
        gemm_nt_acc(m, n, k, -1.0, a.as_slice(), m, b.as_slice(), n, c.as_mut_slice(), m);
        prop_assert!(c.max_diff(&expect) < 1e-11);
    }

    #[test]
    fn gemm_nn_matches_reference((m, n, k) in dims(), av in mat(12, 12), bv in mat(12, 12)) {
        let a = DenseMat::from_fn(m, k, |i, j| av[i + j * m]);
        let b = DenseMat::from_fn(k, n, |i, j| bv[i + j * k]);
        let mut c = DenseMat::zeros(m, n);
        gemm_nn_acc(m, n, k, 1.0, a.as_slice(), m, b.as_slice(), k, c.as_mut_slice(), m);
        let expect = a.matmul(&b);
        prop_assert!(c.max_diff(&expect) < 1e-11);
    }

    #[test]
    fn lower_gemm_is_lower_triangle_of_full((n, k) in (1usize..10, 1usize..10), av in mat(10, 10), bv in mat(10, 10)) {
        let a = DenseMat::from_fn(n, k, |i, j| av[i + j * n]);
        let b = DenseMat::from_fn(n, k, |i, j| bv[i + j * n]);
        let mut full = DenseMat::zeros(n, n);
        let mut low = DenseMat::zeros(n, n);
        gemm_nt_acc(n, n, k, 1.0, a.as_slice(), n, b.as_slice(), n, full.as_mut_slice(), n);
        gemm_nt_acc_lower(n, k, 1.0, a.as_slice(), n, b.as_slice(), n, low.as_mut_slice(), n);
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    prop_assert!((low[(i, j)] - full[(i, j)]).abs() < 1e-12);
                } else {
                    prop_assert_eq!(low[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn ldlt_reconstructs_random_spd(n in 1usize..16, seed in 0u64..1_000_000) {
        // SPD via B·Bᵀ + n·I from the seed.
        let mut rng = seed.max(1);
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DenseMat::from_fn(n, n, |_, _| next());
        let bt = b.transposed();
        let mut a = b.matmul(&bt);
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let orig = a.clone();
        prop_assert!(ldlt_factor_inplace(n, a.as_mut_slice(), n).is_ok());
        // Rebuild L·D·Lᵀ and compare.
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0;
                for p in 0..=j {
                    let lip = if i == p { 1.0 } else { a[(i, p)] };
                    let ljp = if j == p { 1.0 } else { a[(j, p)] };
                    v += lip * a[(p, p)] * ljp;
                }
                prop_assert!((v - orig[(i, j)]).abs() < 1e-9 * orig.fro_norm().max(1.0));
            }
        }
    }

    #[test]
    fn llt_and_ldlt_relate(n in 1usize..14, seed in 0u64..1_000_000) {
        // For SPD A: L_chol(i,j) = L_ldlt(i,j)·√d_j.
        let mut rng = seed.max(1);
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DenseMat::from_fn(n, n, |_, _| next());
        let bt = b.transposed();
        let mut a = b.matmul(&bt);
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let mut chol = a.clone();
        llt_factor_inplace(n, chol.as_mut_slice(), n).unwrap();
        let mut ldlt = a.clone();
        ldlt_factor_inplace(n, ldlt.as_mut_slice(), n).unwrap();
        for j in 0..n {
            let sq = ldlt[(j, j)].sqrt();
            prop_assert!((chol[(j, j)] - sq).abs() < 1e-9);
            for i in (j + 1)..n {
                prop_assert!((chol[(i, j)] - ldlt[(i, j)] * sq).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn panel_solve_then_multiply_is_identity(m in 1usize..10, n in 1usize..10, seed in 0u64..100_000) {
        let mut rng = seed.max(1);
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DenseMat::from_fn(n, n, |_, _| next());
        let bt = b.transposed();
        let mut diag = b.matmul(&bt);
        for i in 0..n {
            diag[(i, i)] += n as f64 + 1.0;
        }
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let orig = DenseMat::from_fn(m, n, |_, _| next());
        let mut panel = orig.clone();
        trsm_ldlt_panel(m, n, diag.as_slice(), n, panel.as_mut_slice(), m);
        // Rebuild A = X·D·Lᵀ.
        for j in 0..n {
            for i in 0..m {
                let mut v = 0.0;
                for p in 0..=j {
                    let l = if p == j { 1.0 } else { diag[(j, p)] };
                    v += panel[(i, p)] * diag[(p, p)] * l;
                }
                prop_assert!((v - orig[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn forward_backward_solves_invert(n in 1usize..12, nrhs in 1usize..4, seed in 0u64..100_000) {
        let mut rng = seed.max(1);
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DenseMat::from_fn(n, n, |_, _| next());
        let bt = b.transposed();
        let mut diag = b.matmul(&bt);
        for i in 0..n {
            diag[(i, i)] += n as f64 + 1.0;
        }
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let x0 = DenseMat::from_fn(n, nrhs, |_, _| next());
        // y = L x0, then solve back.
        let mut y = DenseMat::zeros(n, nrhs);
        for r in 0..nrhs {
            for i in 0..n {
                let mut v = x0[(i, r)];
                for p in 0..i {
                    v += diag[(i, p)] * x0[(p, r)];
                }
                y[(i, r)] = v;
            }
        }
        solve_unit_lower(n, diag.as_slice(), n, y.as_mut_slice(), nrhs, n);
        prop_assert!(y.max_diff(&x0) < 1e-9);
        // z = Lᵀ x0, then solve back.
        let mut z = DenseMat::zeros(n, nrhs);
        for r in 0..nrhs {
            for i in 0..n {
                let mut v = x0[(i, r)];
                for p in (i + 1)..n {
                    v += diag[(p, i)] * x0[(p, r)];
                }
                z[(i, r)] = v;
            }
        }
        solve_unit_lower_trans(n, diag.as_slice(), n, z.as_mut_slice(), nrhs, n);
        prop_assert!(z.max_diff(&x0) < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Packed-kernel properties: every packed entry point against a naive
// triple loop over random shapes *and* random (non-tight) leading
// dimensions, including degenerate (zero) extents and shapes that are not
// multiples of any register or cache tile. The packed path must also never
// touch C's padding rows (the gap between `m` and `ldc` in each column) —
// the zero-copy guarantee that lets the solver hand it raw panel regions.
// ---------------------------------------------------------------------

/// Deterministic values from a seed; strided column-major fill with a
/// sentinel in the padding rows so writes outside the valid `m × n` box
/// are detectable.
fn fill_strided(rows: usize, cols: usize, ld: usize, seed: u64) -> Vec<f64> {
    let mut rng = seed.max(1);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let len = if cols == 0 { 0 } else { ld * (cols - 1) + rows };
    let mut v = vec![f64::MAX; len];
    for j in 0..cols {
        for i in 0..rows {
            v[i + j * ld] = next();
        }
    }
    v
}

/// Asserts the padding rows of a strided buffer still hold the sentinel.
fn padding_untouched(v: &[f64], rows: usize, cols: usize, ld: usize) -> bool {
    (0..cols.saturating_sub(1))
        .all(|j| (rows..ld).all(|i| v[i + j * ld] == f64::MAX))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_nt_random_shapes_and_strides(
        (m, n, k) in (0usize..40, 0usize..40, 0usize..40),
        (pa, pb, pc) in (0usize..5, 0usize..5, 0usize..5),
        // Tiny randomized blocking so a 40-element extent spans several
        // cache tiles and register slabs (the driver rounds it to whole slabs).
        (bmc, bkc, bnc) in (1usize..25, 1usize..10, 1usize..13),
        alpha in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let bs = BlockSizes { mc: bmc, kc: bkc, nc: bnc };
        let (lda, ldb, ldc) = (m + pa, n + pb, m + pc);
        let a = fill_strided(m, k, lda, seed);
        let b = fill_strided(n, k, ldb, seed ^ 0x9e3779b97f4a7c15);
        let mut c = fill_strided(m, n, ldc, seed ^ 0xdeadbeef);
        let mut expect = c.clone();
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i + p * lda] * b[j + p * ldb];
                }
                expect[i + j * ldc] += alpha * acc;
            }
        }
        gemm_nt_acc_packed_with(bs, m, n, k, alpha, &a, lda.max(1), &b, ldb.max(1), &mut c, ldc.max(1));
        for (x, y) in c.iter().zip(&expect) {
            prop_assert!((x - y).abs() < 1e-10 || (x == y), "{x} vs {y}");
        }
        prop_assert!(padding_untouched(&c, m, n, ldc));
    }

    #[test]
    fn packed_nn_random_shapes_and_strides(
        (m, n, k) in (0usize..300, 0usize..24, 0usize..150),
        (pa, pb, pc) in (0usize..5, 0usize..5, 0usize..5),
        alpha in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        // Large enough `m`/`k` to cross the default MC/KC tile boundaries
        // (the nn entry point runs under the per-scalar blocking).
        let (lda, ldb, ldc) = (m + pa, k + pb, m + pc);
        let a = fill_strided(m, k, lda, seed);
        let b = fill_strided(k, n, ldb, seed ^ 0x9e3779b97f4a7c15);
        let mut c = fill_strided(m, n, ldc, seed ^ 0xdeadbeef);
        let mut expect = c.clone();
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i + p * lda] * b[p + j * ldb];
                }
                expect[i + j * ldc] += alpha * acc;
            }
        }
        gemm_nn_acc_packed(m, n, k, alpha, &a, lda.max(1), &b, ldb.max(1), &mut c, ldc.max(1));
        for (x, y) in c.iter().zip(&expect) {
            prop_assert!((x - y).abs() < 1e-10 || (x == y), "{x} vs {y}");
        }
        prop_assert!(padding_untouched(&c, m, n, ldc));
    }

    #[test]
    fn packed_lower_random_shapes_and_strides(
        (n, k) in (0usize..90, 0usize..60),
        (pa, pb, pc) in (0usize..5, 0usize..5, 0usize..5),
        alpha in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        // `n` up to 90 crosses several of the lower kernel's column tiles.
        let (lda, ldb, ldc) = (n + pa, n + pb, n + pc);
        let a = fill_strided(n, k, lda, seed);
        let b = fill_strided(n, k, ldb, seed ^ 0x9e3779b97f4a7c15);
        let mut c = fill_strided(n, n, ldc, seed ^ 0xdeadbeef);
        let mut expect = c.clone();
        for j in 0..n {
            for i in j..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i + p * lda] * b[j + p * ldb];
                }
                expect[i + j * ldc] += alpha * acc;
            }
        }
        gemm_nt_acc_lower_packed(n, k, alpha, &a, lda.max(1), &b, ldb.max(1), &mut c, ldc.max(1));
        // Exact match required above the diagonal: the strictly upper
        // triangle (and the padding) must never be written.
        for (x, y) in c.iter().zip(&expect) {
            prop_assert!((x - y).abs() < 1e-10 || (x == y), "{x} vs {y}");
        }
        prop_assert!(padding_untouched(&c, n, n, ldc));
    }
}
