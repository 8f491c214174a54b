//! The dependency structure of the triangular **solve**.
//!
//! The factorization's static schedule fixes cblk ownership; the solve
//! reuses that ownership (the factor panels already live there) but runs a
//! much lighter DAG: one forward task and one backward task per column
//! block, with an edge `fwd(k) → fwd(t)` whenever a blok of `k` faces `t`
//! (the fan-in update `x_t -= L_b·x_k`), the mirrored edge
//! `bwd(t) → bwd(k)`, and `fwd(k) → bwd(k)` tying the sweeps together.
//! The solver groups it on the factorization's one-processor subtrees,
//! the coarsened solve DAG Böhnlein et al. (arXiv:2503.05408) recommend,
//! and runs it on its DAG executor on every backend.

use pastix_symbolic::SymbolMatrix;

/// The dependency structure of the solve tasks, as a successor CSR: task
/// `k` is the forward step of column block `k`, task `n_cblks + k` its
/// backward step, with `fwd(k) → fwd(t)` and `bwd(t) → bwd(k)` for every
/// distinct column block `t` that `k` faces (several bloks of `k` facing
/// one `t` carry one edge) and `fwd(k) → bwd(k)` tying the sweeps
/// together.
#[derive(Debug, Clone)]
pub struct SolveDag {
    /// Predecessor count per task.
    pub deps: Vec<u32>,
    /// Row pointers into `out_dst` (`2 · n_cblks + 1` entries).
    pub out_ptr: Vec<u32>,
    /// Successor task ids.
    pub out_dst: Vec<u32>,
}

impl SolveDag {
    /// Builds the DAG of a block structure.
    pub fn new(sym: &SymbolMatrix) -> Self {
        let ns = sym.cblks.len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for k in 0..ns {
            let cb = &sym.cblks[k];
            // `fcblk` is nondecreasing along a column block's bloks.
            let mut last_t = u32::MAX;
            for blok in &sym.bloks[cb.blok_start + 1..cb.blok_end] {
                if blok.fcblk != last_t {
                    last_t = blok.fcblk;
                    edges.push((k as u32, last_t));
                    edges.push((ns as u32 + last_t, (ns + k) as u32));
                }
            }
            edges.push((k as u32, (ns + k) as u32));
        }
        // Counting sort by source; successors keep their insertion order.
        let mut deps = vec![0u32; 2 * ns];
        let mut out_ptr = vec![0u32; 2 * ns + 1];
        for &(src, dst) in &edges {
            out_ptr[src as usize + 1] += 1;
            deps[dst as usize] += 1;
        }
        for t in 0..2 * ns {
            out_ptr[t + 1] += out_ptr[t];
        }
        let mut next = out_ptr.clone();
        let mut out_dst = vec![0u32; edges.len()];
        for &(src, dst) in &edges {
            out_dst[next[src as usize] as usize] = dst;
            next[src as usize] += 1;
        }
        Self { deps, out_ptr, out_dst }
    }

    /// Successors of task `t`.
    #[inline]
    pub fn successors(&self, t: usize) -> &[u32] {
        &self.out_dst[self.out_ptr[t] as usize..self.out_ptr[t + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_and_schedule, DistStrategy, MappingOptions, SchedOptions};
    use pastix_graph::Permutation;
    use pastix_machine::MachineModel;
    use pastix_symbolic::{analyze, AnalysisOptions};

    #[test]
    fn solve_dag_has_one_edge_per_faced_block_and_sweep() {
        // Identity ordering (not ND): the band-matrix chain etree, 2D
        // splitting on, so column blocks face several bloks of one block.
        let g = pastix_testsupport::grid_graph(12, 12);
        let a = analyze(&g, &Permutation::identity(144), &AnalysisOptions::default());
        let opts = SchedOptions {
            block_size: 8,
            mapping: MappingOptions { procs_2d_min: 2.0, width_2d_min: 8, strategy: DistStrategy::Mixed1d2d },
            ..Default::default()
        };
        let m = map_and_schedule(&a.symbol, &MachineModel::sp2(4), &opts);
        let sym = &m.graph.split.symbol;
        let ns = sym.cblks.len();
        let dag = SolveDag::new(sym);
        let mut deps = vec![0u32; 2 * ns];
        for k in 0..ns {
            let mut faced: Vec<u32> = sym.bloks[sym.cblks[k].blok_start + 1..sym.cblks[k].blok_end].iter().map(|b| b.fcblk).collect();
            faced.dedup();
            let mut fwd: Vec<u32> = faced.clone();
            fwd.push((ns + k) as u32);
            assert_eq!(dag.successors(k), &fwd[..], "fwd({k})");
            for &t in &faced {
                assert!(t as usize > k, "a blok faces a later block");
                assert!(dag.successors(ns + t as usize).contains(&((ns + k) as u32)), "bwd({t}) → bwd({k})");
                deps[t as usize] += 1;
            }
            deps[ns + k] += 1 + faced.len() as u32;
        }
        assert_eq!(dag.deps, deps);
        assert_eq!(dag.out_dst.len(), deps.iter().sum::<u32>() as usize);
    }
}
