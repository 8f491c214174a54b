//! # pastix-multifrontal
//!
//! The baseline the paper compares against: a PSPASES-like multifrontal
//! Cholesky (`L·Lᵀ`) solver.
//!
//! * [`seq`] — sequential multifrontal factorization (frontal matrices,
//!   extended-add, update-matrix stack) and the `L·Lᵀ` triangular solves,
//!   sharing the panel storage of the supernodal solver so both can be
//!   validated with the same harness;
//! * [`model`] — the subtree-to-subcube parallel time model, a
//!   sequential max/plus evaluation over the elimination tree, used to
//!   regenerate the PSPASES rows of Table 2 on the calibrated machine
//!   model.

#![warn(missing_docs)]

pub mod model;
pub mod seq;

pub use model::{
    front_cost, front_costs, pspases_from_costs, pspases_time, PspasesOptions, PspasesPrediction,
};
pub use seq::{multifrontal_llt, solve_llt_in_place};
