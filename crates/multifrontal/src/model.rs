//! Parallel time model of the PSPASES-like multifrontal baseline.
//!
//! PSPASES (Joshi, Karypis, Kumar, Gupta, Gustavson) distributes the
//! elimination forest by *subtree-to-subcube* mapping: disjoint subtrees go
//! to disjoint processor groups, and the dense frontal computations of the
//! upper supernodes run on their whole group with a 2D cyclic layout.
//! The model below prices exactly that structure against the same machine
//! model the PaStiX scheduler uses:
//!
//! * a supernode on a group of `q` processors factors its front at
//!   `q`-fold speed, degraded by a per-level 2D-cyclic efficiency term;
//! * passing an update matrix up the tree costs one alpha–beta transfer of
//!   its triangle per merging step, plus a `log₂ q` redistribution factor
//!   inside the group;
//! * disjoint sibling subtrees run concurrently (their groups are
//!   disjoint), so the completion time is a max/plus recursion over the
//!   tree — no resource contention needs to be simulated.
//!
//! The model intentionally gives the baseline its real advantages — the
//! more BLAS-efficient `L·Lᵀ` kernels (ESSL's 1.07 s vs 1.27 s at order
//! 1024 in the paper) — while charging it the synchronous redistribution
//! overheads that static fan-in scheduling avoids; Table 2's shape (PaStiX
//! ahead up to ≈32–64 processors, the gap closing at the scalability
//! limit) emerges from exactly this trade-off.

use pastix_kernels::model::KernelClass;
use pastix_machine::MachineModel;
use pastix_symbolic::{SymbolMatrix, NO_PARENT};

/// Tunables of the baseline model.
#[derive(Debug, Clone)]
pub struct PspasesOptions {
    /// Parallel efficiency of a 2D-cyclic dense partial factorization on
    /// `q` processors: `eff = 1 / (1 + overhead · log₂ q)`.
    pub cyclic_overhead: f64,
    /// Extra per-front synchronization rounds (barriers) charged `log₂ q`
    /// latencies each.
    pub sync_rounds: f64,
}

impl Default for PspasesOptions {
    fn default() -> Self {
        Self {
            cyclic_overhead: 0.12,
            sync_rounds: 2.0,
        }
    }
}

/// Sequential model cost of one front's computations: assembly (copy of
/// the update triangles), partial `L·Lᵀ` of the `w` leading columns over
/// the full height, and the Schur-complement GEMM.
pub fn front_cost(sym: &SymbolMatrix, k: usize, m: &MachineModel) -> f64 {
    let w = sym.cblks[k].width();
    let h = sym.offrows(k);
    let mut t = m.kernel_time(KernelClass::FactorLlt, w, w, w);
    if h > 0 {
        t += m.kernel_time(KernelClass::TrsmPanel, h, w, w);
        t += m.kernel_time(KernelClass::GemmNt, h, h, w);
    }
    // Assembly traffic: touching the update triangle once (charged at the
    // scale-kernel's per-entry rate).
    t += m.kernel_time(KernelClass::ScaleCols, h.max(1), h.max(1), 1) * 0.5;
    t
}

/// Result of the model evaluation.
#[derive(Debug, Clone, Copy)]
pub struct PspasesPrediction {
    /// Predicted parallel factorization time in seconds.
    pub time: f64,
    /// Predicted sequential (1 processor) time.
    pub seq_time: f64,
}

/// Sequential model costs of every front, in column-block order.
pub fn front_costs(sym: &SymbolMatrix, machine: &MachineModel) -> Vec<f64> {
    (0..sym.n_cblks()).map(|k| front_cost(sym, k, machine)).collect()
}

/// Evaluates the subtree-to-subcube max/plus recursion.
pub fn pspases_time(sym: &SymbolMatrix, machine: &MachineModel, opts: &PspasesOptions) -> PspasesPrediction {
    pspases_from_costs(sym, machine, opts, &front_costs(sym, machine))
}

/// [`pspases_time`] from precomputed per-front costs (`costs[k]` must be
/// [`front_cost`] of column block `k`).
pub fn pspases_from_costs(
    sym: &SymbolMatrix,
    machine: &MachineModel,
    opts: &PspasesOptions,
    costs: &[f64],
) -> PspasesPrediction {
    let ns = sym.n_cblks();
    assert_eq!(costs.len(), ns);
    let parent = sym.block_etree();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut roots: Vec<u32> = Vec::new();
    for k in 0..ns {
        match parent[k] {
            NO_PARENT => roots.push(k as u32),
            p => children[p as usize].push(k as u32),
        }
    }
    // Subtree workloads for the proportional subcube split.
    let mut subtree = vec![0.0f64; ns];
    let mut seq_total = 0.0;
    for k in 0..ns {
        let c = costs[k];
        subtree[k] += c;
        seq_total += c;
        if parent[k] != NO_PARENT {
            subtree[parent[k] as usize] += subtree[k];
        }
    }
    // Processor shares, top down (fractional groups, floor ≥ 1 proc
    // equivalent: a share below 1 just runs sequentially interleaved, which
    // the max/plus recursion prices by inflating its time 1/share).
    let mut share = vec![0.0f64; ns];
    let p_total = machine.n_procs as f64;
    let root_sum: f64 = roots.iter().map(|&r| subtree[r as usize]).sum();
    for &r in &roots {
        share[r as usize] = if root_sum > 0.0 {
            p_total * subtree[r as usize] / root_sum
        } else {
            p_total / roots.len() as f64
        };
    }
    for k in (0..ns).rev() {
        let kids = &children[k];
        if kids.is_empty() {
            continue;
        }
        let total: f64 = kids.iter().map(|&c| subtree[c as usize]).sum();
        for &c in kids {
            share[c as usize] = if total > 0.0 {
                share[k] * subtree[c as usize] / total
            } else {
                share[k] / kids.len() as f64
            };
        }
    }
    // Max/plus completion times, bottom up.
    let mut completion = vec![0.0f64; ns];
    for k in 0..ns {
        let q = share[k].max(1e-6);
        let eff_procs = if q <= 1.0 {
            q
        } else {
            q / (1.0 + opts.cyclic_overhead * q.log2())
        };
        let t_front = costs[k] / eff_procs;
        // Synchronization inside the group.
        let sync = if q > 1.0 {
            opts.sync_rounds * q.log2() * machine.net.latency
        } else {
            0.0
        };
        // Children completions plus their update-matrix transfers.
        let mut ready = 0.0f64;
        for &c in &children[k] {
            let c = c as usize;
            let hup = sym.offrows(c);
            let scalars = hup * (hup + 1) / 2;
            // The update triangle is redistributed into the parent group;
            // a group confined to a single processor pays nothing.
            let transfer = if share[k] > 1.0 {
                machine.net.transfer_time(scalars * machine.bytes_per_scalar)
                    * (1.0 + share[k].log2().max(0.0) * 0.5)
            } else {
                0.0
            };
            ready = ready.max(completion[c] + transfer);
        }
        completion[k] = ready + t_front + sync;
    }
    let time = roots
        .iter()
        .map(|&r| completion[r as usize])
        .fold(0.0, f64::max);
    PspasesPrediction {
        time,
        seq_time: seq_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbol(nx: usize) -> SymbolMatrix {
        pastix_testsupport::grid_symbol(nx, nx, 16)
    }

    #[test]
    fn one_proc_time_is_sequential() {
        let sym = symbol(20);
        let m = MachineModel::sp2(1);
        let p = pspases_time(&sym, &m, &PspasesOptions::default());
        // Chains still serialize: time == sum over the critical path ==
        // total when everything shares one processor.
        assert!((p.time - p.seq_time).abs() < 1e-9 * p.seq_time.max(1e-12));
    }

    #[test]
    fn speedup_grows_then_saturates() {
        // 40x40: big enough that 16 procs sit at saturation rather than
        // past it. On a 32x32 grid the correctly-amalgamated symbol (the
        // padding accumulation fix shrank it to ~500 supernodes) leaves
        // too little tree parallelism and 16 procs genuinely regress
        // ~20% over 4 — real saturation behavior, not model error.
        let sym = symbol(40);
        let t1 = pspases_time(&sym, &MachineModel::sp2(1), &PspasesOptions::default()).time;
        let t4 = pspases_time(&sym, &MachineModel::sp2(4), &PspasesOptions::default()).time;
        let t16 = pspases_time(&sym, &MachineModel::sp2(16), &PspasesOptions::default()).time;
        assert!(t4 < t1, "4-proc should beat 1-proc");
        assert!(t16 < t4 * 1.05, "16-proc should not regress much");
        let s16 = t1 / t16;
        assert!(s16 < 16.0, "speedup must be sublinear, got {s16}");
    }

    #[test]
    fn overhead_knob_slows_parallel_fronts() {
        let sym = symbol(24);
        let machine = MachineModel::sp2(16);
        let fast = pspases_time(&sym, &machine, &PspasesOptions { cyclic_overhead: 0.0, sync_rounds: 0.0 });
        let slow = pspases_time(&sym, &machine, &PspasesOptions { cyclic_overhead: 0.5, sync_rounds: 8.0 });
        assert!(slow.time > fast.time, "{} !> {}", slow.time, fast.time);
        // Sequential total unaffected by parallel overheads.
        assert!((slow.seq_time - fast.seq_time).abs() < 1e-12);
    }

    #[test]
    fn front_cost_positive() {
        let sym = symbol(12);
        let m = MachineModel::sp2(4);
        for k in 0..sym.n_cblks() {
            assert!(front_cost(&sym, k, &m) > 0.0);
        }
    }
}
