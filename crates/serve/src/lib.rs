//! # pastix-serve
//!
//! Factorization-as-a-service on top of the PaStiX reproduction: the
//! session layer that turns the solver into a servable system.
//!
//! The production shape of a sparse direct solver is factorize-once,
//! solve-millions-of-times — at scale the triangular solve, not the
//! factorization, is the hot path. This crate provides:
//!
//! * [`MatrixFingerprint`] — a structure digest plus numeric checksum
//!   over the canonical CSC form, stable under permuted-but-identical
//!   assembly: the cache key;
//! * [`SolverSession`] — an LRU cache of [`CachedFactor`]s (the analyzed
//!   `pastix_solver::Plan` — permutation, symbol, static schedule — plus
//!   factor and solve schedule) with capacity and byte-budget eviction
//!   and hit/miss counters in the session's `MetricsRegistry`;
//! * [`RequestQueue`] — coalesces incoming right-hand sides into blocked
//!   multi-RHS panels served through `FactorRun::solve_request`, whose
//!   per-blok trailing updates are GEMM-shaped instead of one GEMV per
//!   RHS;
//! * the level-set solve schedule (`pastix_sched::solve_schedule`) rides
//!   in every cache entry, so serving traces reconcile predicted-vs-
//!   measured through `pastix_trace::report::build_solve_report` exactly
//!   like the factorization;
//! * [`RequestTrace`] — per-request distributed tracing: every admitted
//!   request becomes a parent async span on a reserved serve track with
//!   child stage spans (queue wait, coalesce, analyze, factorize, solve)
//!   and flow arrows into the solver ranks that executed its batch, all
//!   exportable through `pastix_trace::export::chrome_trace`;
//! * observability wiring — the session installs the
//!   `pastix_trace::flight` panic hook (always-on flight recorder with
//!   black-box dumps), can expose its metrics over a plain-text
//!   Prometheus scrape endpoint (`pastix_trace::expose::MetricsServer`),
//!   and can write periodic metric snapshots to disk.

#![warn(missing_docs)]

pub mod fingerprint;
pub mod queue;
pub mod rtrace;
pub mod session;

pub use fingerprint::MatrixFingerprint;
pub use queue::{pack_panel, unpack_completions, Completed, RejectReason, Request, RequestQueue};
pub use rtrace::RequestTrace;
pub use session::{CachedFactor, PanelSolve, SessionOptions, SolverSession};
