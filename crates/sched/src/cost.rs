//! Task cost evaluation against the machine's BLAS time model.
//!
//! The mapper prices every block computation of Fig. 1 with the calibrated
//! polynomial model — this is what lets the static schedule anticipate the
//! non-linear BLAS-3 efficiency ("workload encompasses block computations
//! \[whose\] efficiencies are far from being linear in terms of number of
//! operations").

use pastix_kernels::model::KernelClass;
use pastix_machine::MachineModel;
use pastix_symbolic::SymbolMatrix;

/// Predicted seconds of `COMP1D(k)`: factor the diagonal block, solve and
/// scale the whole off-diagonal panel, and compute every compacted
/// contribution `C_[j] = L_[j]k · F_jᵀ`.
pub fn comp1d_cost(sym: &SymbolMatrix, k: usize, m: &MachineModel) -> f64 {
    let w = sym.cblks[k].width();
    let offs = sym.off_bloks_of(k);
    let h: usize = offs.iter().map(|b| b.nrows()).sum();
    let mut t = m.kernel_time(KernelClass::FactorLdlt, w, w, w);
    if h > 0 {
        t += m.kernel_time(KernelClass::TrsmPanel, h, w, w);
        t += m.kernel_time(KernelClass::ScaleCols, h, w, 1);
        // Contributions, computed on compacted sets of blocks: for each
        // off-diagonal block j, one GEMM with all rows from j downward.
        let mut rows_below = h;
        for b in offs {
            let hj = b.nrows();
            t += m.kernel_time(KernelClass::GemmNt, rows_below, hj, w);
            rows_below -= hj;
        }
    }
    t
}

/// Predicted seconds of `FACTOR(k)` (diagonal block factorization).
pub fn factor_cost(sym: &SymbolMatrix, k: usize, m: &MachineModel) -> f64 {
    let w = sym.cblks[k].width();
    m.kernel_time(KernelClass::FactorLdlt, w, w, w)
}

/// Predicted seconds of `BDIV(j, k)` (panel solve of one off-diagonal
/// block, including the `F = L·D` scaling).
pub fn bdiv_cost(sym: &SymbolMatrix, k: usize, blok: usize, m: &MachineModel) -> f64 {
    let w = sym.cblks[k].width();
    let hj = sym.bloks[blok].nrows();
    m.kernel_time(KernelClass::TrsmPanel, hj, w, w) + m.kernel_time(KernelClass::ScaleCols, hj, w, 1)
}

/// Predicted seconds of `BMOD(i, j, k)` (one block contribution product).
pub fn bmod_cost(sym: &SymbolMatrix, k: usize, blok_row: usize, blok_col: usize, m: &MachineModel) -> f64 {
    let w = sym.cblks[k].width();
    let hr = sym.bloks[blok_row].nrows();
    let hc = sym.bloks[blok_col].nrows();
    m.kernel_time(KernelClass::GemmNt, hr, hc, w)
}

/// Total predicted sequential factorization time (sum of all `COMP1D`
/// costs): the `P = 1` reference the speedup curves divide by.
pub fn sequential_cost(sym: &SymbolMatrix, m: &MachineModel) -> f64 {
    (0..sym.n_cblks()).map(|k| comp1d_cost(sym, k, m)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbol() -> SymbolMatrix {
        pastix_testsupport::grid_symbol(8, 8, 8)
    }

    #[test]
    fn costs_positive_and_consistent() {
        let sym = symbol();
        let m = MachineModel::sp2(4);
        for k in 0..sym.n_cblks() {
            let c = comp1d_cost(&sym, k, &m);
            assert!(c > 0.0);
            // COMP1D covers at least the diagonal factorization.
            assert!(c >= factor_cost(&sym, k, &m));
        }
    }

    #[test]
    fn sequential_is_sum() {
        let sym = symbol();
        let m = MachineModel::sp2(4);
        let total = sequential_cost(&sym, &m);
        let manual: f64 = (0..sym.n_cblks()).map(|k| comp1d_cost(&sym, k, &m)).sum();
        assert_eq!(total, manual);
    }

    #[test]
    fn bigger_blocks_cost_more() {
        let sym = symbol();
        let m = MachineModel::sp2(4);
        // Find a cblk with at least one off-diagonal block.
        let k = (0..sym.n_cblks())
            .find(|&k| !sym.off_bloks_of(k).is_empty())
            .unwrap();
        let b = sym.cblks[k].blok_start + 1;
        assert!(bdiv_cost(&sym, k, b, &m) > 0.0);
        assert!(bmod_cost(&sym, k, b, b, &m) > 0.0);
    }
}
