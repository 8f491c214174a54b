//! # pastix — a Rust reproduction of the PaStiX parallel sparse direct solver
//!
//! PaStiX (Hénon, Ramet, Roman — IPPS/IPDPS 2000) solves large sparse
//! symmetric positive definite (and complex symmetric) systems `A·x = b`
//! by supernodal `L·D·Lᵀ` factorization without pivoting, parallelized by
//! a **static schedule of block computations over a mixed 1D/2D block
//! distribution**. This crate re-exports the crates of the full pipeline:
//!
//! 1. ordering — nested dissection tightly coupled with halo minimum
//!    degree (`pastix-ordering`);
//! 2. block symbolic factorization — supernodes, amalgamation, the block
//!    symbol matrix (`pastix-symbolic`);
//! 3. block repartitioning and static scheduling — candidate processors by
//!    proportional mapping, 1D/2D switch, splitting by the BLAS blocking
//!    size, greedy mapping by simulation (`pastix-sched`);
//! 4. numeric factorization driven by the schedule (`pastix-solver` +
//!    `pastix-runtime`): the task-graph executor on threads, in the static
//!    mapping's placement and order or with it as hints, idle workers
//!    stealing either way, the paper's supernodal fan-in on the
//!    deterministic simulator, the sequential reference, and the
//!    triangular solves.
//!
//! The entry path is the [`solver::Plan`] API: one [`solver::SolverConfig`]
//! value drives analyze, factorize, and solve.
//!
//! ```
//! use pastix::solver::{Plan, SolverConfig};
//! use pastix::graph::gen::{grid_spd, Stencil, ValueKind};
//!
//! // A small SPD system from a 3D grid.
//! let a = grid_spd::<f64>(6, 6, 3, Stencil::Star, false, ValueKind::Laplacian);
//! let x_exact = pastix::graph::canonical_solution::<f64>(a.n());
//! let b = pastix::graph::rhs_for_solution(&a, &x_exact);
//!
//! let cfg = SolverConfig::default(); // 4 procs, static schedule, threads
//! let plan = Plan::analyze(&a, &cfg);
//! let run = plan.factorize(&a, &cfg).unwrap();
//! let x = run.solve(&b);
//! assert!(a.residual_norm(&x, &b) < 1e-12);
//! ```

#![warn(missing_docs)]

pub use pastix_graph as graph;
pub use pastix_kernels as kernels;
pub use pastix_machine as machine;
pub use pastix_multifrontal as multifrontal;
pub use pastix_ordering as ordering;
pub use pastix_runtime as runtime;
pub use pastix_sched as sched;
pub use pastix_serve as serve;
pub use pastix_solver as solver;
pub use pastix_symbolic as symbolic;
pub use pastix_trace as trace;
