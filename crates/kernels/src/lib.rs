//! # pastix-kernels
//!
//! Dense BLAS-3 style kernels, scalar types and the polynomial BLAS time
//! model used by the PaStiX reproduction.
//!
//! The parallel sparse solver of the paper expresses the whole numeric
//! factorization in terms of four dense block operations (Fig. 1):
//! diagonal-block `L·D·Lᵀ` factorization, triangular panel solves,
//! `C += α·A·Bᵀ` contribution products, and column scalings by the diagonal
//! `D`. This crate provides those kernels for `f64` and complex-symmetric
//! [`Complex64`] systems, their `L·Lᵀ` counterparts for the multifrontal
//! baseline, and the *time model* of the same kernels that the static
//! scheduler is driven by — the multi-variable polynomial regression the
//! paper describes, together with its automatic calibration routine.
//!
//! Everything is dependency-light and column-major with explicit leading
//! dimensions, so a supernodal column block stored as one contiguous panel
//! can hand arbitrary sub-panels to the kernels without copies.

#![warn(missing_docs)]

pub mod complex;
pub mod dense;
pub mod factor;
pub mod gemm;
pub mod lowrank;
pub mod model;
pub mod pack;
pub mod scalar;
pub mod trsm;

pub use complex::Complex64;
pub use dense::{prefetch_write, DenseMat};
pub use factor::{ldlt_factor_blocked, ldlt_factor_inplace, llt_factor_blocked, llt_factor_inplace, FactorError, NB_FACTOR};
pub use gemm::{
    gemm_flops, gemm_nn_acc, gemm_nn_acc_rows, gemm_nt_acc, gemm_nt_acc_lower, gemm_tn_acc,
    gemm_tn_acc_rows,
};
pub use lowrank::{compress_block, lr_gemm_nn_acc, lr_gemm_tn_acc, LowRankBlock, LrRef};
pub use pack::{blocking_for, kernel_mode, BlockSizes, KernelMode, KernelModeGuard, Tile};
pub use pack::{gemm_nt_scatter, pack_a_slabs};
pub use model::{calibrate_blas_model, fit_poly, BlasModel, KernelClass, PolyCost};
pub use scalar::Scalar;
pub use trsm::{
    scale_cols_by_diag_into, solve_lower, solve_lower_trans,
    solve_unit_lower, solve_unit_lower_rows, solve_unit_lower_trans,
    solve_unit_lower_trans_rows, trsm_ldlt_panel, trsm_llt_panel,
};
