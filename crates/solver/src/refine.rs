//! Iterative refinement on top of a (possibly low-rank-compressed)
//! factorization.
//!
//! A block low-rank factor is an *approximate* factorization: each
//! compressed blok carries an `O(tolerance)` truncation error. Classic
//! iterative refinement recovers full working-precision accuracy as long
//! as the approximate factor is a contraction on the error: solve,
//! measure the true residual against the original matrix, solve for the
//! correction, repeat. The loop is exactly as useful on a dense factor of
//! an ill-conditioned system, so it lives on [`FactorRun`] independently
//! of compression.

use crate::config::FactorRun;
use crate::plan::{SolveError, SolveRequest};
use pastix_graph::SymCsc;
use pastix_kernels::Scalar;

/// Knobs of [`FactorRun::solve_refined`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Maximum refinement iterations *after* the initial solve (0 means
    /// plain solve plus one residual measurement).
    pub max_iter: usize,
    /// Stop once the scaled backward error
    /// `‖b − A·x‖_∞ / (‖A‖_∞·‖x‖_∞ + ‖b‖_∞)` drops below this.
    pub target: f64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        Self { max_iter: 8, target: 1e-12 }
    }
}

impl RefineOptions {
    /// Default iteration cap with the given backward-error target.
    pub fn with_target(target: f64) -> Self {
        Self { target, ..Self::default() }
    }
}

/// Result of [`FactorRun::solve_refined`].
#[derive(Debug, Clone)]
pub struct RefineOutput<T> {
    /// The refined solution (original row order, like the input `b`).
    pub x: Vec<T>,
    /// Correction solves performed (0 when the first solve already met
    /// the target).
    pub iterations: usize,
    /// Final scaled backward error.
    pub residual: f64,
}

impl<T: Scalar> FactorRun<T> {
    /// Solves `A·x = b` and iteratively refines the solution against the
    /// *original* (unpermuted) matrix `a` until the scaled backward error
    /// meets `opts.target` or `opts.max_iter` corrections have been
    /// applied; [`RefineOutput::iterations`] counts the corrections
    /// performed.
    ///
    /// This is the intended solve path for factors produced with
    /// [`CompressionConfig`](crate::CompressionConfig) tolerances looser
    /// than the accuracy the caller needs: each iteration contracts the
    /// error by roughly the compression tolerance times the condition
    /// number, so a handful of cheap compressed solves recovers the
    /// accuracy of the dense factorization.
    ///
    /// `b` is one right-hand side; it is screened like every
    /// [`FactorRun::solve_request`], and refused with the same
    /// [`SolveError`].
    pub fn solve_refined(
        &self,
        a: &SymCsc<T>,
        b: &[T],
        opts: &RefineOptions,
    ) -> Result<RefineOutput<T>, SolveError> {
        let mut x = self.solve_request(SolveRequest::single(b))?.x;
        let mut residual = a.residual_norm(&x, b);
        let mut iterations = 0;
        while residual > opts.target && iterations < opts.max_iter {
            let ax = a.matvec(&x);
            let r: Vec<T> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
            let Ok(dx) = self.solve_request(SolveRequest::single(&r)).map(|out| out.x) else {
                break; // a non-finite residual: keep the last iterate
            };
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += *di;
            }
            iterations += 1;
            let next = a.residual_norm(&x, b);
            if !next.is_finite() || next >= residual {
                // Stagnation: the factor is not a contraction at this
                // accuracy any more — keep the best iterate and stop.
                for (xi, di) in x.iter_mut().zip(&dx) {
                    *xi -= *di;
                }
                break;
            }
            residual = next;
        }
        Ok(RefineOutput { x, iterations, residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressionConfig;
    use crate::config::SolverConfig;
    use crate::plan::Plan;
    use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
    use pastix_graph::{canonical_solution, rhs_for_solution};

    #[test]
    fn refinement_recovers_accuracy_from_loose_factor() {
        let a = grid_spd::<f64>(10, 10, 1, Stencil::Star, false, ValueKind::RandomSpd(7));
        let cfg = SolverConfig::new().with_compression(CompressionConfig::with_tolerance(1e-4).min_block(4));
        let plan = Plan::analyze(&a, &cfg);
        let run = plan.factorize(&a, &cfg).unwrap();
        let x_exact = canonical_solution::<f64>(a.n());
        let b = rhs_for_solution(&a, &x_exact);
        let plain = run.solve(&b);
        let plain_res = a.residual_norm(&plain, &b);
        let out = run.solve_refined(&a, &b, &RefineOptions::with_target(1e-12)).unwrap();
        assert!(
            out.residual <= 1e-12 || out.residual < plain_res,
            "refinement should reach the target or at least improve: \
             {} vs plain {plain_res}",
            out.residual
        );
        assert!(out.residual < 1e-10, "refined residual {}", out.residual);
    }

    #[test]
    fn exact_factor_needs_no_iterations() {
        let a = grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let cfg = SolverConfig::new();
        let plan = Plan::analyze(&a, &cfg);
        let run = plan.factorize(&a, &cfg).unwrap();
        let x_exact = canonical_solution::<f64>(a.n());
        let b = rhs_for_solution(&a, &x_exact);
        let out = run.solve_refined(&a, &b, &RefineOptions::default()).unwrap();
        assert_eq!(out.iterations, 0, "dense factor meets 1e-12 directly");
        assert!(out.residual <= 1e-12);
    }

    #[test]
    fn a_nan_right_hand_side_is_refused() {
        let a = grid_spd::<f64>(6, 6, 1, Stencil::Star, false, ValueKind::RandomSpd(3));
        let cfg = SolverConfig::new();
        let run = Plan::analyze(&a, &cfg).factorize(&a, &cfg).unwrap();
        let mut b = rhs_for_solution(&a, &canonical_solution::<f64>(a.n()));
        b[3] = f64::NAN;
        let err = run.solve_refined(&a, &b, &RefineOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::NonFinite { index: 3 });
    }
}
