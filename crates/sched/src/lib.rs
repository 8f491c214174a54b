//! # pastix-sched
//!
//! The core contribution of the PaStiX paper: block repartitioning and
//! static scheduling for mixed 1D/2D block distributions.
//!
//! The phase runs in two steps, exactly as §2 of the paper describes:
//!
//! 1. **Partitioning** ([`candidates`]): recursive top-down proportional
//!    mapping over the block elimination tree assigns every supernode a set
//!    of candidate processors (with fractional boundaries, so a processor
//!    can serve two sibling subtrees) and picks a 1D or 2D distribution;
//!    large supernodes are split by the BLAS blocking size
//!    (`pastix_symbolic::split_symbol`).
//! 2. **Scheduling** ([`greedy`]): the task graph (COMP1D / FACTOR / BDIV /
//!    BMOD) is mapped by a greedy simulation of the parallel factorization
//!    driven by the calibrated BLAS + network time model, producing the
//!    fully ordered per-processor task vectors `K_p` that drive the solver,
//!    along with the predicted timeline (the discrete-event "Table 2"
//!    numbers).

#![warn(missing_docs)]

pub mod candidates;
pub mod cost;
pub mod greedy;
pub mod solve;
pub mod tasks;

pub use candidates::{proportional_mapping, CandidateInfo, DistStrategy, MappingOptions};
pub use cost::{bdiv_cost, bmod_cost, comp1d_cost, factor_cost, sequential_cost};
pub use greedy::{analyze_schedule, comm_stats, critical_path, critical_path_chain, cyclic_schedule, greedy_schedule, greedy_schedule_par, memory_stats, validate_schedule, CommStats, MemoryStats, PredictedTask, Schedule, ScheduleAnalysis};
pub use solve::{solve_schedule, solve_schedule_on, SolveDag, SolveSchedule};
pub use tasks::{build_task_graph, find_covering_blok, TaskGraph, TaskKind};

use pastix_graph::Parallelism;
use pastix_machine::MachineModel;
use pastix_symbolic::{split_symbol, SymbolMatrix};

/// Options of the whole partitioning + scheduling phase.
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// BLAS blocking size used to split wide supernodes (the paper uses 64).
    pub block_size: usize,
    /// Proportional-mapping knobs (1D/2D switch).
    pub mapping: MappingOptions,
    /// Parallelism of the mapping/scheduling phase (stage overlap plus
    /// candidate-cost fan-out). Never changes the schedule — only
    /// wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for SchedOptions {
    fn default() -> Self {
        Self {
            block_size: 64,
            mapping: MappingOptions::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

/// Output of [`map_and_schedule`].
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The task graph over the split symbol (owns the split symbol).
    pub graph: TaskGraph,
    /// The static schedule.
    pub schedule: Schedule,
    /// Candidate info of the original supernodes (for diagnostics).
    pub candidates: CandidateInfo,
}

/// Runs the complete block repartitioning and scheduling phase on a symbol
/// matrix for a given machine.
///
/// ```
/// use pastix_graph::{CsrGraph, Permutation};
/// use pastix_machine::MachineModel;
/// use pastix_sched::{map_and_schedule, SchedOptions};
/// use pastix_symbolic::{analyze, AnalysisOptions};
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let a = analyze(&g, &Permutation::identity(4), &AnalysisOptions::default());
/// let m = map_and_schedule(&a.symbol, &MachineModel::sp2(2), &SchedOptions::default());
/// assert!(m.schedule.makespan > 0.0);
/// assert_eq!(m.schedule.task_proc.len(), m.graph.n_tasks());
/// ```
pub fn map_and_schedule(sym: &SymbolMatrix, machine: &MachineModel, opts: &SchedOptions) -> Mapping {
    let threads = opts.parallelism.effective_threads();
    // Proportional mapping and supernode splitting both read only the
    // symbol — overlap them when threads are available.
    let run_mapping = || proportional_mapping(sym, machine, &opts.mapping);
    let run_split = || split_symbol(sym, opts.block_size);
    let (candidates, split) = if threads > 1 {
        rayon::join(run_mapping, run_split)
    } else {
        (run_mapping(), run_split())
    };
    let graph = build_task_graph(split, &candidates, machine);
    let schedule = greedy_schedule_par(&graph, machine, threads);
    Mapping {
        graph,
        schedule,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::{CsrGraph, Permutation};
    use pastix_symbolic::{analyze, AnalysisOptions};

    #[test]
    fn end_to_end_mapping() {
        let mut e = Vec::new();
        let nx = 14;
        let id = |x: usize, y: usize| (x + nx * y) as u32;
        for y in 0..nx {
            for x in 0..nx {
                if x + 1 < nx {
                    e.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < nx {
                    e.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let g = CsrGraph::from_edges(nx * nx, &e);
        let a = analyze(&g, &Permutation::identity(nx * nx), &AnalysisOptions::default());
        let machine = MachineModel::sp2(4);
        let opts = SchedOptions {
            block_size: 8,
            mapping: MappingOptions {
                procs_2d_min: 2.0,
                width_2d_min: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = map_and_schedule(&a.symbol, &machine, &opts);
        greedy::validate_schedule(&m.graph, &m.schedule, &machine).unwrap();
        assert!(m.schedule.makespan > 0.0);
        assert!(m.schedule.utilization(&m.graph) > 0.0);
    }
}
