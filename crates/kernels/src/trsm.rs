//! Triangular solve kernels.
//!
//! Panel solves (right-side, transposed lower triangle) implement the
//! supernodal step `L_off ← A_off · L⁻ᵀ · D⁻¹` (paper, Fig. 1 line 5/13:
//! "Solve L_kk Fᵀ = Aᵀ and D_k Lᵀ = Fᵀ"), and the vector solves implement
//! the forward/backward substitution of the solve phase.
//!
//! Everything is column-major with explicit leading dimensions. Triangular
//! factors are read from the *lower* triangle only; the strictly upper part
//! of a factored block is never referenced.

use crate::gemm::{gemm_nn_acc_rows, gemm_nt_acc, gemm_tn_acc_rows};
use crate::scalar::Scalar;

/// Column-tile width of the blocked panel solves: cross-tile updates become
/// `m × NB_TRSM × j0` GEMMs routed through the packed kernels, while the
/// in-tile dependence chain runs the scalar column sweep.
const NB_TRSM: usize = 48;

/// Solves `X · Lᵀ = A` in place where `L` (order `n`, leading dimension
/// `ldd`, lower triangle of `diag`) is **unit** lower triangular, then
/// rescales each column `j` of the result by `1 / D(j)` with `D` on the
/// diagonal of `diag`.
///
/// `panel` is `m × n` (leading dimension `ldp`) and holds `A` on entry, the
/// final off-diagonal factor rows `L_off` on exit.
///
/// Blocked by column tiles: the contribution of all already-solved tiles to
/// tile `J` is `X_J ← X_J − X_{0..j0} · L(J, 0..j0)ᵀ`, a single
/// [`gemm_nt_acc`]; only the `NB_TRSM`-wide in-tile solve is scalar.
pub fn trsm_ldlt_panel<T: Scalar>(
    m: usize,
    n: usize,
    diag: &[T],
    ldd: usize,
    panel: &mut [T],
    ldp: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldd >= n, "diag leading dimension too small");
    assert!(ldp >= m, "panel leading dimension too small");
    assert!(diag.len() >= ldd * (n - 1) + n, "diag buffer too small");
    assert!(panel.len() >= ldp * (n - 1) + m, "panel buffer too small");
    // Pass 1: unit-lower solve X'·Lᵀ = A. Each column must stay unscaled
    // until every later column has consumed it.
    let mut j0 = 0;
    while j0 < n {
        let w = NB_TRSM.min(n - j0);
        if j0 > 0 {
            // X'_J -= X'_{0..j0} · L(J, 0..j0)ᵀ: the solved columns are in
            // `left`, tile J starts `right`; rows j0.. of `diag` hold L(J,·).
            let (left, right) = panel.split_at_mut(j0 * ldp);
            gemm_nt_acc(m, w, j0, -T::one(), left, ldp, &diag[j0..], ldd, right, ldp);
        }
        for j in j0..j0 + w {
            // X'(:,j) -= Σ_{j0≤i<j} X'(:,i) · L(j,i)   (unit diagonal)
            for i in j0..j {
                let l = diag[j + i * ldd];
                if l == T::zero() {
                    continue;
                }
                let (xi, xj) = {
                    let (left, right) = panel.split_at_mut(j * ldp);
                    (&left[i * ldp..i * ldp + m], &mut right[..m])
                };
                for (x, &v) in xj.iter_mut().zip(xi) {
                    *x -= v * l;
                }
            }
        }
        j0 += w;
    }
    // Pass 2: X = X' · D⁻¹.
    for j in 0..n {
        let dinv = diag[j + j * ldd].recip();
        for x in &mut panel[j * ldp..j * ldp + m] {
            *x *= dinv;
        }
    }
}

/// Solves `X · Lᵀ = A` in place where `L` is **non-unit** lower triangular
/// (Cholesky factor). Used by the `L·Lᵀ` baseline. Blocked the same way as
/// [`trsm_ldlt_panel`] (solved columns are already scaled, so the cross-tile
/// update is the same GEMM).
pub fn trsm_llt_panel<T: Scalar>(
    m: usize,
    n: usize,
    diag: &[T],
    ldd: usize,
    panel: &mut [T],
    ldp: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldd >= n, "diag leading dimension too small");
    assert!(ldp >= m, "panel leading dimension too small");
    let mut j0 = 0;
    while j0 < n {
        let w = NB_TRSM.min(n - j0);
        if j0 > 0 {
            let (left, right) = panel.split_at_mut(j0 * ldp);
            gemm_nt_acc(m, w, j0, -T::one(), left, ldp, &diag[j0..], ldd, right, ldp);
        }
        for j in j0..j0 + w {
            for i in j0..j {
                let l = diag[j + i * ldd];
                if l == T::zero() {
                    continue;
                }
                let (xi, xj) = {
                    let (left, right) = panel.split_at_mut(j * ldp);
                    (&left[i * ldp..i * ldp + m], &mut right[..m])
                };
                for (x, &v) in xj.iter_mut().zip(xi) {
                    *x -= v * l;
                }
            }
            let linv = diag[j + j * ldd].recip();
            for x in &mut panel[j * ldp..j * ldp + m] {
                *x *= linv;
            }
        }
        j0 += w;
    }
}

/// `dst(:,j) = src(:,j) · d[j]` for `j < n`; panels are `m × n`.
///
/// Used to form `F = L·D` (the scaled panel whose transpose multiplies in
/// every contribution computation).
pub fn scale_cols_by_diag_into<T: Scalar>(
    m: usize,
    n: usize,
    src: &[T],
    lds: usize,
    d: &[T],
    dst: &mut [T],
    ldd: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lds >= m && ldd >= m, "leading dimensions too small");
    assert!(d.len() >= n, "diagonal too short");
    for j in 0..n {
        let s = d[j];
        let srcj = &src[j * lds..j * lds + m];
        let dstj = &mut dst[j * ldd..j * ldd + m];
        for (o, &v) in dstj.iter_mut().zip(srcj) {
            *o = v * s;
        }
    }
}

/// Forward substitution `L · X = B` in place, `L` unit lower triangular
/// (order `n`), `X`/`B` of shape `n × nrhs` with leading dimension `ldx`.
pub fn solve_unit_lower<T: Scalar>(
    n: usize,
    diag: &[T],
    ldd: usize,
    x: &mut [T],
    nrhs: usize,
    ldx: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && ldx >= n);
    for r in 0..nrhs {
        let xr = &mut x[r * ldx..r * ldx + n];
        for j in 0..n {
            let v = xr[j];
            if v == T::zero() {
                continue;
            }
            for i in (j + 1)..n {
                let l = diag[i + j * ldd];
                xr[i] -= l * v;
            }
        }
    }
}

/// Backward substitution `Lᵀ · X = B` in place, `L` unit lower triangular.
pub fn solve_unit_lower_trans<T: Scalar>(
    n: usize,
    diag: &[T],
    ldd: usize,
    x: &mut [T],
    nrhs: usize,
    ldx: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && ldx >= n);
    for r in 0..nrhs {
        let xr = &mut x[r * ldx..r * ldx + n];
        for j in (0..n).rev() {
            let mut v = xr[j];
            for i in (j + 1)..n {
                v -= diag[i + j * ldd] * xr[i];
            }
            xr[j] = v;
        }
    }
}

/// Row-block height of the interleaved solves: the depth one pass of the
/// `gemm_*_acc_rows` kernels keeps in registers.
const NB_ROWS: usize = 4;

/// Multi-RHS forward substitution `L · X = B` in place with the
/// right-hand sides **interleaved**: `L` unit lower triangular (order `n`),
/// `X`/`B` of shape `n × nrhs` stored row by row (`nrhs` contiguous scalars
/// per row) — the serving-path variant of [`solve_unit_lower`].
///
/// Rows are solved [`NB_ROWS`] at a time; a solved block's contribution to
/// everything below it is one [`gemm_nn_acc_rows`] pass, vectorized over
/// the right-hand sides. The arithmetic per right-hand side does not
/// depend on `nrhs`: a column of a panel solve is bit-for-bit the
/// single-RHS solve of that column.
pub fn solve_unit_lower_rows<T: Scalar>(n: usize, diag: &[T], ldd: usize, x: &mut [T], nrhs: usize) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && x.len() >= n * nrhs);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB_ROWS).min(n);
        let (head, below) = x.split_at_mut(j1 * nrhs);
        for j in j0..j1 {
            let (xj, rest) = head[j * nrhs..].split_at_mut(nrhs);
            for (i, xi) in (j + 1..j1).zip(rest.chunks_mut(nrhs)) {
                let l = diag[i + j * ldd];
                xi.iter_mut().zip(xj.iter()).for_each(|(u, &v)| *u -= l * v);
            }
        }
        // X[j1.., :] −= L[j1.., j0..j1] · X[j0..j1, :].
        let solved = &head[j0 * nrhs..];
        gemm_nn_acc_rows(n - j1, nrhs, j1 - j0, -T::one(), &diag[j1 + j0 * ldd..], ldd, solved, below);
        j0 = j1;
    }
}

/// Multi-RHS backward substitution `Lᵀ · X = B` in place with the
/// right-hand sides interleaved — the mirror of [`solve_unit_lower_rows`]:
/// row blocks descending, each first receiving
/// `L[j1.., j0..j1]ᵀ · X[j1.., :]` from the rows already solved below it
/// as one [`gemm_tn_acc_rows`] pass.
pub fn solve_unit_lower_trans_rows<T: Scalar>(n: usize, diag: &[T], ldd: usize, x: &mut [T], nrhs: usize) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && x.len() >= n * nrhs);
    for j0 in (0..n).step_by(NB_ROWS).rev() {
        let j1 = (j0 + NB_ROWS).min(n);
        let (head, below) = x.split_at_mut(j1 * nrhs);
        let block = &mut head[j0 * nrhs..];
        gemm_tn_acc_rows(j1 - j0, nrhs, n - j1, -T::one(), &diag[j1 + j0 * ldd..], ldd, below, block);
        for j in (j0..j1).rev() {
            let (xj, rest) = block[(j - j0) * nrhs..].split_at_mut(nrhs);
            for (i, xi) in (j + 1..j1).zip(rest.chunks(nrhs)) {
                let l = diag[i + j * ldd];
                xj.iter_mut().zip(xi).for_each(|(u, &v)| *u -= l * v);
            }
        }
    }
}

/// Forward substitution with a **non-unit** lower triangular factor.
pub fn solve_lower<T: Scalar>(
    n: usize,
    diag: &[T],
    ldd: usize,
    x: &mut [T],
    nrhs: usize,
    ldx: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && ldx >= n);
    for r in 0..nrhs {
        let xr = &mut x[r * ldx..r * ldx + n];
        for j in 0..n {
            let v = xr[j] * diag[j + j * ldd].recip();
            xr[j] = v;
            if v == T::zero() {
                continue;
            }
            for i in (j + 1)..n {
                xr[i] -= diag[i + j * ldd] * v;
            }
        }
    }
}

/// Backward substitution with a **non-unit** lower triangular factor
/// (`Lᵀ X = B`).
pub fn solve_lower_trans<T: Scalar>(
    n: usize,
    diag: &[T],
    ldd: usize,
    x: &mut [T],
    nrhs: usize,
    ldx: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(ldd >= n && ldx >= n);
    for r in 0..nrhs {
        let xr = &mut x[r * ldx..r * ldx + n];
        for j in (0..n).rev() {
            let mut v = xr[j];
            for i in (j + 1)..n {
                v -= diag[i + j * ldd] * xr[i];
            }
            xr[j] = v * diag[j + j * ldd].recip();
        }
    }
}

/// `x(j) /= d[j]` row-scaling over `nrhs` columns — the diagonal solve
/// `D·y = x` between the two triangular sweeps of `L·D·Lᵀ`.
pub fn scale_rows_by_diag_inv<T: Scalar>(n: usize, d: &[T], x: &mut [T], nrhs: usize, ldx: usize) {
    if n == 0 || nrhs == 0 {
        return;
    }
    assert!(d.len() >= n && ldx >= n);
    for r in 0..nrhs {
        let xr = &mut x[r * ldx..r * ldx + n];
        for (xi, &di) in xr.iter_mut().zip(d) {
            *xi *= di.recip();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{deterministic_spd, DenseMat};
    use crate::factor::{ldlt_factor_inplace, llt_factor_inplace};
    use crate::gemm::gemm_nt_acc;

    #[test]
    fn ldlt_panel_solve_reconstructs() {
        // Factor an SPD diag block, push a random panel through the solve,
        // then verify panel · D · Lᵀ reproduces the original panel.
        let n = 6;
        let m = 4;
        let mut diag = deterministic_spd(n, 11);
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let orig = DenseMat::from_fn(m, n, |i, j| (i * 5 + j + 1) as f64 * 0.3);
        let mut panel = orig.clone();
        trsm_ldlt_panel(m, n, diag.as_slice(), n, panel.as_mut_slice(), m);
        // Rebuild: A(i,j) = Σ_p X(i,p) d_p L(j,p), p <= j (L unit lower).
        for j in 0..n {
            for i in 0..m {
                let mut v = 0.0;
                for p in 0..=j {
                    let l = if p == j { 1.0 } else { diag[(j, p)] };
                    v += panel[(i, p)] * diag[(p, p)] * l;
                }
                assert!((v - orig[(i, j)]).abs() < 1e-10, "({i},{j}): {v} vs {}", orig[(i, j)]);
            }
        }
    }

    #[test]
    fn llt_panel_solve_reconstructs() {
        let n = 5;
        let m = 3;
        let mut diag = deterministic_spd(n, 29);
        llt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let orig = DenseMat::from_fn(m, n, |i, j| ((i + 1) as f64) / ((j + 2) as f64));
        let mut panel = orig.clone();
        trsm_llt_panel(m, n, diag.as_slice(), n, panel.as_mut_slice(), m);
        // A = X · Lᵀ with non-unit L.
        let mut rebuilt = DenseMat::zeros(m, n);
        let mut ltri = DenseMat::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                ltri[(i, j)] = diag[(i, j)];
            }
        }
        gemm_nt_acc(m, n, n, 1.0, panel.as_slice(), m, ltri.as_slice(), n, rebuilt.as_mut_slice(), m);
        assert!(rebuilt.max_diff(&orig) < 1e-10);
    }

    #[test]
    fn unit_lower_solves_roundtrip() {
        let n = 8;
        let mut diag = deterministic_spd(n, 3);
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        // b = L · x0 with unit lower L.
        let mut b = vec![0.0; n];
        for i in 0..n {
            let mut v = x0[i];
            for p in 0..i {
                v += diag[(i, p)] * x0[p];
            }
            b[i] = v;
        }
        solve_unit_lower(n, diag.as_slice(), n, &mut b, 1, n);
        for i in 0..n {
            assert!((b[i] - x0[i]).abs() < 1e-12);
        }
        // And the transposed sweep: b = Lᵀ x0, solve back.
        let mut bt = vec![0.0; n];
        for i in 0..n {
            let mut v = x0[i];
            for p in (i + 1)..n {
                v += diag[(p, i)] * x0[p];
            }
            bt[i] = v;
        }
        solve_unit_lower_trans(n, diag.as_slice(), n, &mut bt, 1, n);
        for i in 0..n {
            assert!((bt[i] - x0[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn nonunit_lower_solves_roundtrip() {
        let n = 7;
        let mut diag = deterministic_spd(n, 17);
        llt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            let mut v = 0.0;
            for p in 0..=i {
                v += diag[(i, p)] * x0[p];
            }
            b[i] = v;
        }
        solve_lower(n, diag.as_slice(), n, &mut b, 1, n);
        for i in 0..n {
            assert!((b[i] - x0[i]).abs() < 1e-11);
        }
        let mut bt = vec![0.0; n];
        for i in 0..n {
            let mut v = 0.0;
            for p in i..n {
                v += diag[(p, i)] * x0[p];
            }
            bt[i] = v;
        }
        solve_lower_trans(n, diag.as_slice(), n, &mut bt, 1, n);
        for i in 0..n {
            assert!((bt[i] - x0[i]).abs() < 1e-11);
        }
    }

    #[test]
    fn scale_cols_and_rows() {
        let src = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let d = [2.0, 10.0];
        let mut dst = [0.0; 4];
        scale_cols_by_diag_into(2, 2, &src, 2, &d, &mut dst, 2);
        assert_eq!(dst, [2.0, 4.0, 30.0, 40.0]);

        let mut x = [4.0, 20.0];
        scale_rows_by_diag_inv(2, &d, &mut x, 1, 2);
        assert_eq!(x, [2.0, 2.0]);
    }

    #[test]
    fn interleaved_solves_match_scalar_sweeps() {
        // Orders around the row-block height and well past it, solved both
        // ways: the interleaved path must agree with the per-RHS scalar
        // sweeps to round-off.
        for n in [1usize, 3, 4, 5, 9, 3 * NB_TRSM + 7] {
            let mut diag = deterministic_spd(n, 41);
            ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
            for nrhs in [1usize, 2, 3, 5, 8, 9] {
                let b: Vec<f64> = (0..n * nrhs).map(|i| ((i % 97) as f64) * 0.03 - 1.1).collect();
                let rows: Vec<f64> = (0..n * nrhs).map(|i| b[i / nrhs + (i % nrhs) * n]).collect();
                for trans in [false, true] {
                    let (mut x_ref, mut x_rows) = (b.clone(), rows.clone());
                    if trans {
                        solve_unit_lower_trans(n, diag.as_slice(), n, &mut x_ref, nrhs, n);
                        solve_unit_lower_trans_rows(n, diag.as_slice(), n, &mut x_rows, nrhs);
                    } else {
                        solve_unit_lower(n, diag.as_slice(), n, &mut x_ref, nrhs, n);
                        solve_unit_lower_rows(n, diag.as_slice(), n, &mut x_rows, nrhs);
                    }
                    for (i, &v) in x_rows.iter().enumerate() {
                        let u = x_ref[i / nrhs + (i % nrhs) * n];
                        assert!(
                            (u - v).abs() < 1e-9 * u.abs().max(1.0),
                            "n={n} nrhs={nrhs} trans={trans} entry {i}: {u} vs {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_solve_columns_are_bitwise_single_rhs() {
        let (n, nrhs) = (2 * NB_TRSM + 5, 3);
        let mut diag = deterministic_spd(n, 53);
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let b: Vec<f64> = (0..n * nrhs).map(|i| (i as f64) * 0.17 - 4.0).collect();
        for trans in [false, true] {
            let solve = |x: &mut [f64], nrhs: usize| match trans {
                false => solve_unit_lower_rows(n, diag.as_slice(), n, x, nrhs),
                true => solve_unit_lower_trans_rows(n, diag.as_slice(), n, x, nrhs),
            };
            let mut panel = b.clone();
            solve(&mut panel, nrhs);
            for r in 0..nrhs {
                let mut single: Vec<f64> = (0..n).map(|i| b[i * nrhs + r]).collect();
                solve(&mut single, 1);
                let column: Vec<f64> = (0..n).map(|i| panel[i * nrhs + r]).collect();
                assert_eq!(column, single, "trans={trans} column {r}");
            }
        }
    }

    #[test]
    fn multiple_rhs_columns() {
        let n = 5;
        let nrhs = 3;
        let mut diag = deterministic_spd(n, 77);
        ldlt_factor_inplace(n, diag.as_mut_slice(), n).unwrap();
        let x0 = DenseMat::from_fn(n, nrhs, |i, j| (i + j * n) as f64 * 0.1 - 1.0);
        let mut b = DenseMat::zeros(n, nrhs);
        for r in 0..nrhs {
            for i in 0..n {
                let mut v = x0[(i, r)];
                for p in 0..i {
                    v += diag[(i, p)] * x0[(p, r)];
                }
                b[(i, r)] = v;
            }
        }
        solve_unit_lower(n, diag.as_slice(), n, b.as_mut_slice(), nrhs, n);
        assert!(b.max_diff(&x0) < 1e-12);
    }
}
