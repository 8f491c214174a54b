//! # pastix-solver
//!
//! Numeric factorization and solve for the PaStiX reproduction:
//!
//! * [`plan`] — **the entry path**: [`Plan::analyze`] bundles the whole
//!   pre-processing pipeline (ordering, symbolic analysis, mapping,
//!   optional static schedule); [`Plan::factorize`] runs the numeric
//!   phase on any backend and hands back a [`FactorRun`] whose
//!   [`SolveRequest`]-driven solve method covers single- and multi-RHS;
//! * [`storage`] — the dense-panel factor storage (the real PaStiX layout:
//!   one contiguous column-major panel per column block);
//! * `tasks` (crate-private) — the **one** implementation of the paper's
//!   four task bodies (COMP1D, FACTOR, BDIV, the BMOD pair contribution),
//!   generic over a contribution sink; the three modules below are its
//!   drivers and own only what differs — program order, where a panel or
//!   region lives, and where contributions go;
//! * `sweeps` (crate-private) — the solve mirror of `tasks`: the **one**
//!   forward and backward block step of the triangular solves, on a flat
//!   RHS-interleaved workspace, generic over a one-method row sink; and
//!   `solve_plan`, the structure of the solves (owners, step orders,
//!   counters, routes, the solve DAG) computed once per [`Plan`] and
//!   replayed by every solve. The same three modules below drive them;
//! * [`seq`] — the sequential reference driver (one `COMP1D` per column
//!   block in elimination order, contributions applied to later panels in
//!   place; the solve sweeps as a plain loop up and down the blocks);
//! * [`parallel`] — the static driver: the supernodal **fan-in** engine of
//!   the paper's Fig. 1, each rank walking its `K_p` from `pastix-sched`
//!   on the in-process message-passing runtime (regions, AUBs, factor
//!   payloads); [`psolve`] is its solve twin (segment broadcasts,
//!   aggregated updates, exactly-once under duplicate delivery);
//! * [`dynamic`] — the `Backend::Dynamic` driver: the same task graph
//!   executed by the work-stealing DAG executor over shared panels under
//!   per-panel locks, with the static mapping reduced to
//!   placement/priority hints.
//!
//! The parallel factor is validated against the sequential one entry by
//! entry; both support `f64` (SPD) and `Complex64` (complex symmetric)
//! systems through the shared [`pastix_kernels::Scalar`] abstraction.
//!
//! Off-diagonal factor blocks can be stored in block low-rank (BLR) form:
//! [`compress`] holds the [`CompressionConfig`] knobs and the pass that
//! installs the overlay, [`storage`] the per-panel overlay, and
//! [`refine`] the iterative-refinement wrapper that recovers full
//! accuracy from a truncated factor.

#![warn(missing_docs)]

pub mod compress;
pub mod config;
pub mod dynamic;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod psolve;
pub mod refine;
pub mod seq;
mod solve_plan;
pub mod storage;
mod sweeps;
mod tasks;

pub use compress::{CompressionConfig, CompressionStrategy};
pub use config::{FactorRun, SolverConfig};
pub use metrics::MessagePathMetrics;
pub use parallel::ChaosOptions;
pub use pastix_runtime::{Backend, DynamicOptions};
pub use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};
pub use plan::{run_from_storage, AnalyzeOptions, AnalyzeStats, Plan, SolveOutput, SolveRequest};
pub use refine::{RefineOptions, RefineOutput};
pub use seq::{
    factor_and_solve, factorize_sequential, reconstruction_error, solve_block_in_place,
    solve_in_place,
};
pub use storage::{BlockStore, BlokView, FactorStorage, PanelCompression, PanelLayout};
