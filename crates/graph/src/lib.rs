//! # pastix-graph
//!
//! Sparse symmetric matrices, adjacency graphs, synthetic problem
//! generators and matrix file IO — the data substrate under the PaStiX
//! reproduction.
//!
//! The pipeline consumes a symmetric positive definite (or complex
//! symmetric) matrix as a lower-triangular CSC structure ([`SymCsc`]); the
//! ordering phase works on its adjacency graph ([`CsrGraph`]); the paper's
//! ten test problems are reproduced as synthetic analogs
//! ([`problems::build_problem`]); and real matrices can be read from
//! Harwell-Boeing RSA or MatrixMarket files ([`io`]).

#![warn(missing_docs)]

pub mod csr;
pub mod gen;
pub mod io;
pub mod matrix;
pub mod par;
pub mod perm;
pub mod problems;

pub use csr::{CsrGraph, VertexMap};
pub use par::Parallelism;
pub use matrix::{canonical_solution, rhs_for_solution, SymCsc};
pub use perm::Permutation;
pub use problems::{build_problem, ProblemId};
