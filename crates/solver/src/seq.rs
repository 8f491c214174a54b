//! Sequential supernodal `L·D·Lᵀ` factorization and triangular solves.
//!
//! The reference implementation: right-looking over column blocks, each
//! step being exactly one `COMP1D` task of the paper's Fig. 1 with the
//! contributions applied directly to the target panels (the sequential
//! degenerate case of the fan-in scheme, where every aggregation is local).
//! The parallel solver must produce the same factor; tests enforce it.

use crate::compress::CompressionConfig;
use crate::storage::{pair_target, strip_targets, FactorStorage, PanelLayout};
use crate::sweeps::{self, LaterSegments};
use crate::tasks::{self, ContribSink, Scratch};
use pastix_kernels::factor::FactorError;
use pastix_kernels::Scalar;
use pastix_symbolic::SymbolMatrix;

/// The sequential driver's contribution sink: every target is a later
/// panel of the same storage, updated in place.
struct LaterPanels<'a, T> {
    sym: &'a SymbolMatrix,
    layout: &'a PanelLayout,
    /// Panels `first..`, split off the one being eliminated.
    later: &'a mut [Vec<T>],
    first: usize,
}

impl<T: Scalar> ContribSink<T> for LaterPanels<'_, T> {
    fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize)) {
        let t = pair_target(self.sym, self.layout, br, bc);
        apply(&mut self.later[t.cblk - self.first][t.panel_row + t.col * t.lda..], t.lda);
    }

    fn with_strip(&mut self, bc: usize, end: usize, mut apply: impl FnMut(usize, &mut [T], usize)) {
        let panel = &mut self.later[self.sym.bloks[bc].fcblk as usize - self.first];
        for (br, t) in (bc..end).zip(strip_targets(self.sym, self.layout, bc, end)) {
            apply(br, &mut panel[t.panel_row + t.col * t.lda..], t.lda);
        }
    }
}

/// Factorizes the scattered matrix in place, column block by column block:
/// program order is elimination order, one COMP1D each.
pub fn factorize_sequential<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &mut FactorStorage<T>,
) -> Result<(), FactorError> {
    let FactorStorage { layout, panels, .. } = storage;
    let mut scratch = Scratch::default();
    let off = CompressionConfig::off();
    for k in 0..sym.n_cblks() {
        // Traced as its own class so sequential baselines and the
        // parallel run stay distinguishable in a merged report.
        let _span = pastix_trace::task_span(k as u32, pastix_trace::TaskClass::Seq);
        let (done, later) = panels.split_at_mut(k + 1);
        let mut sink = LaterPanels { sym, layout, later, first: k + 1 };
        tasks::comp1d(sym, layout, k, &mut done[k], &off, &mut scratch, &mut sink)?;
    }
    Ok(())
}

/// Solves `A·x = b` in place given the factored storage (`b` enters, `x`
/// leaves): forward sweep `L·y = b`, diagonal `D·z = y`, backward sweep
/// `Lᵀ·x = z`.
pub fn solve_in_place<T: Scalar>(sym: &SymbolMatrix, storage: &FactorStorage<T>, x: &mut [T]) {
    solve_block_in_place(sym, storage, x, 1);
}

/// Blocked multi-right-hand-side solve: `X`/`B` is `n × nrhs` column-major
/// (leading dimension `n`). The sweeps run all columns together, turning
/// the per-block updates into GEMMs — the standard way to amortize the
/// factor traffic over many right-hand sides. The sequential driver of
/// [`crate::sweeps`]: a plain loop up the column blocks, then down.
pub fn solve_block_in_place<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    x: &mut [T],
    nrhs: usize,
) {
    assert_eq!(x.len(), sym.n * nrhs);
    if nrhs == 0 {
        return;
    }
    let ns = sym.n_cblks();
    let mut ws = vec![T::zero(); x.len()];
    for k in 0..ns {
        sweeps::load_segment(sym, k, None, x, nrhs, &mut ws[sweeps::segment(sym, k, nrhs)]);
    }
    let mut scratch = sweeps::Scratch::default();
    for k in 0..ns {
        let (seg, mut later) = LaterSegments::split(sym, &mut ws, k, nrhs);
        sweeps::fwd_step(sym, storage, k, seg, nrhs, &mut scratch, &mut later);
    }
    for k in (0..ns).rev() {
        let (seg, later) = LaterSegments::split(sym, &mut ws, k, nrhs);
        sweeps::bwd_step(sym, storage, k, seg, nrhs, &mut scratch, |b, dst| later.copy_rows(b, dst));
    }
    for k in 0..ns {
        sweeps::store_segment(sym, k, None, &ws[sweeps::segment(sym, k, nrhs)], nrhs, x);
    }
}

/// Convenience: factorize `a` (already permuted) over `sym` and solve for
/// one right-hand side; returns the solution and the factor.
///
/// ```
/// use pastix_graph::{CsrGraph, Permutation, SymCsc};
/// use pastix_symbolic::{analyze, AnalysisOptions};
/// use pastix_solver::factor_and_solve;
/// // Tridiagonal SPD system.
/// let mut tr = vec![(0u32, 0u32, 3.0)];
/// for i in 1..6u32 {
///     tr.push((i, i, 3.0));
///     tr.push((i, i - 1, -1.0));
/// }
/// let a = SymCsc::from_triplets(6, &tr);
/// let an = analyze(&a.to_graph(), &Permutation::identity(6), &AnalysisOptions::default());
/// let ap = a.permuted(&an.perm);
/// let x_exact = vec![1.0; 6];
/// let b = ap.matvec(&x_exact);
/// let (x, _factor) = factor_and_solve(&an.symbol, &ap, &b).unwrap();
/// assert!(ap.residual_norm(&x, &b) < 1e-14);
/// ```
pub fn factor_and_solve<T: Scalar>(
    sym: &SymbolMatrix,
    a: &pastix_graph::SymCsc<T>,
    b: &[T],
) -> Result<(Vec<T>, FactorStorage<T>), FactorError> {
    let mut storage = FactorStorage::zeros(sym);
    storage.scatter(sym, a);
    factorize_sequential(sym, &mut storage)?;
    let mut x = b.to_vec();
    solve_in_place(sym, &storage, &mut x);
    Ok((x, storage))
}

/// Multiplies the reconstructed factor against the original to measure
/// `max |(L·D·Lᵀ − A)(i,j)|` over the structure (small-problem test tool).
pub fn reconstruction_error<T: Scalar>(
    sym: &SymbolMatrix,
    storage: &FactorStorage<T>,
    a: &pastix_graph::SymCsc<T>,
) -> f64 {
    let n = sym.n;
    let mut err = 0.0f64;
    // Rebuild column by column: (L D L^T)(i,j) = sum_p L(i,p) d_p L(j,p).
    // Reads go through `FactorStorage::get`, which dispatches on the
    // stored representation — the tool works on compressed factors too.
    for j in 0..n {
        for i in j..n {
            let mut v = T::zero();
            for p in 0..=j {
                let lip = if i == p { T::one() } else { storage.get(sym, i, p) };
                let ljp = if j == p { T::one() } else { storage.get(sym, j, p) };
                if lip == T::zero() || ljp == T::zero() {
                    continue;
                }
                let d = storage.get(sym, p, p);
                v += lip * d * ljp;
            }
            err = err.max((v - a.get(i, j)).magnitude());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_graph::{canonical_solution, rhs_for_solution};
    use pastix_ordering::{nested_dissection, OrderingOptions};
    use pastix_symbolic::{analyze, split_symbol, AnalysisOptions};

    fn pipeline(nx: usize, ny: usize, nz: usize) -> (pastix_graph::SymCsc<f64>, SymbolMatrix) {
        let a = grid_spd::<f64>(nx, ny, nz, Stencil::Star, false, ValueKind::RandomSpd(11));
        let g = a.to_graph();
        let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 8, ..Default::default() });
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        (a.permuted(&an.perm), an.symbol)
    }

    #[test]
    fn factorization_reconstructs_small() {
        let (ap, sym) = pipeline(4, 4, 1);
        let mut st = FactorStorage::zeros(&sym);
        st.scatter(&sym, &ap);
        factorize_sequential(&sym, &mut st).unwrap();
        let err = reconstruction_error(&sym, &st, &ap);
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn solve_recovers_canonical_solution() {
        for (nx, ny, nz) in [(5, 5, 1), (6, 4, 2), (3, 3, 3)] {
            let (ap, sym) = pipeline(nx, ny, nz);
            let x_exact = canonical_solution::<f64>(ap.n());
            let b = rhs_for_solution(&ap, &x_exact);
            let (x, _) = factor_and_solve(&sym, &ap, &b).unwrap();
            let res = ap.residual_norm(&x, &b);
            assert!(res < 1e-12, "residual {res} on {nx}x{ny}x{nz}");
            for (xi, ei) in x.iter().zip(&x_exact) {
                assert!((xi - ei).abs() < 1e-8, "{xi} vs {ei}");
            }
        }
    }

    #[test]
    fn split_symbol_gives_identical_factor() {
        let (ap, sym) = pipeline(6, 6, 1);
        let mut st1 = FactorStorage::zeros(&sym);
        st1.scatter(&sym, &ap);
        factorize_sequential(&sym, &mut st1).unwrap();

        let split = split_symbol(&sym, 3);
        let mut st2 = FactorStorage::zeros(&split.symbol);
        st2.scatter(&split.symbol, &ap);
        factorize_sequential(&split.symbol, &mut st2).unwrap();

        let n = ap.n();
        for j in 0..n {
            for i in j..n {
                let a = st1.get(&sym, i, j);
                let b = st2.get(&split.symbol, i, j);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "split factor differs at ({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn complex_symmetric_pipeline() {
        use pastix_kernels::Complex64;
        // Build a complex symmetric matrix with the same pattern as a small
        // SPD grid: A = A_re + i*eps*A_im with dominance retained.
        let a_re = grid_spd::<f64>(4, 4, 1, Stencil::Star, false, ValueKind::RandomSpd(5));
        let n = a_re.n();
        let mut triplets = Vec::new();
        for j in 0..n {
            for (&i, &v) in a_re.rows_of(j).iter().zip(a_re.vals_of(j)) {
                let im = if i as usize == j { 0.3 } else { 0.05 * v };
                triplets.push((i, j as u32, Complex64::new(v, im)));
            }
        }
        let a = pastix_graph::SymCsc::<Complex64>::from_triplets(n, &triplets);
        let g = a.to_graph();
        let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 6, ..Default::default() });
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        let ap = a.permuted(&an.perm);
        let x_exact = canonical_solution::<Complex64>(n);
        let b = rhs_for_solution(&ap, &x_exact);
        let (x, _) = factor_and_solve(&an.symbol, &ap, &b).unwrap();
        let res = ap.residual_norm(&x, &b);
        assert!(res < 1e-10, "complex residual {res}");
    }

    #[test]
    fn blocked_multirhs_matches_single_rhs() {
        let (ap, sym) = pipeline(6, 5, 2);
        let n = ap.n();
        let mut st = FactorStorage::zeros(&sym);
        st.scatter(&sym, &ap);
        factorize_sequential(&sym, &mut st).unwrap();
        let nrhs = 4;
        // Build nrhs right-hand sides with known solutions.
        let mut xs_exact = Vec::new();
        let mut big = vec![0.0f64; n * nrhs];
        for r in 0..nrhs {
            let xe: Vec<f64> = (0..n).map(|i| (i + r) as f64 * 0.3 - 1.0).collect();
            let b = ap.matvec(&xe);
            big[r * n..(r + 1) * n].copy_from_slice(&b);
            xs_exact.push(xe);
        }
        solve_block_in_place(&sym, &st, &mut big, nrhs);
        for (r, xe) in xs_exact.iter().enumerate() {
            // Against the single-rhs path.
            let mut single = ap.matvec(xe);
            solve_in_place(&sym, &st, &mut single);
            for i in 0..n {
                assert!((big[i + r * n] - single[i]).abs() < 1e-12);
                assert!((big[i + r * n] - xe[i]).abs() < 1e-8);
            }
        }
        // Degenerate nrhs = 0 is a no-op.
        let mut empty: Vec<f64> = Vec::new();
        solve_block_in_place(&sym, &st, &mut empty, 0);
    }

    #[test]
    fn sweeps_dispatch_on_compressed_storage() {
        use crate::compress::{finalize_compression, CompressionConfig, CompressionStrategy};
        let (ap, sym) = pipeline(8, 8, 2);
        let n = ap.n();
        let mut st = FactorStorage::zeros(&sym);
        st.scatter(&sym, &ap);
        factorize_sequential(&sym, &mut st).unwrap();
        // Compress the finished factor (the MinimalMemory post-pass), loosely
        // enough that compression engages; the decompressed copy is the
        // same truncated factor in dense form, so the two sweeps must
        // agree to round-off whatever the truncation error.
        let cc = CompressionConfig::with_tolerance(0.5)
            .min_block(2)
            .strategy(CompressionStrategy::MinimalMemory);
        finalize_compression(&sym, &mut st, &cc, Vec::new(), &Default::default());
        assert!(st.is_compressed(), "nothing compressed");
        let mut dense = st.clone();
        dense.decompress(&sym);
        let b = rhs_for_solution(&ap, &canonical_solution::<f64>(n));
        let (mut x, mut want) = (b.clone(), b.clone());
        solve_in_place(&sym, &st, &mut x);
        solve_in_place(&sym, &dense, &mut want);
        for (u, v) in x.iter().zip(&want) {
            assert!((u - v).abs() <= 1e-10 * v.abs().max(1.0), "compressed {u} vs dense {v}");
        }
        let nrhs = 3;
        let mut big: Vec<f64> = (0..nrhs).flat_map(|_| b.iter().copied()).collect();
        solve_block_in_place(&sym, &st, &mut big, nrhs);
        for r in 0..nrhs {
            for i in 0..n {
                assert!((big[i + r * n] - x[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        // All-zero matrix on a path pattern: first pivot is zero.
        let n = 4;
        let triplets: Vec<(u32, u32, f64)> = (0..n as u32)
            .map(|i| (i, i, 0.0))
            .chain((0..n as u32 - 1).map(|i| (i + 1, i, 0.0)))
            .collect();
        let a = pastix_graph::SymCsc::from_triplets(n, &triplets);
        let g = a.to_graph();
        let an = analyze(&g, &pastix_graph::Permutation::identity(n), &AnalysisOptions::default());
        let ap = a.permuted(&an.perm);
        let mut st = FactorStorage::zeros(&an.symbol);
        st.scatter(&an.symbol, &ap);
        assert!(factorize_sequential(&an.symbol, &mut st).is_err());
    }
}
