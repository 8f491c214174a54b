//! The scalar abstraction shared by the whole solver stack.
//!
//! The factorization is `L·D·Lᵀ` with the *unconjugated* transpose, so the
//! trait deliberately does not expose a conjugation hook in the kernel API:
//! both `f64` (SPD systems, the paper's experiments) and [`Complex64`]
//! (complex symmetric systems, the paper's motivation) go through identical
//! code paths.

use crate::complex::Complex64;
use crate::pack::Tile;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field scalar used in matrices, factors and right-hand sides.
///
/// Implementations must form a field under the std ops, with `zero()` and
/// `one()` the identities. `magnitude` is used only for diagnostics
/// (residual norms, zero-pivot detection), never to branch inside the
/// factorization itself — the algorithm is pivoting-free, as in the paper.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Embeds a real number.
    fn from_f64(x: f64) -> Self;
    /// Modulus of the scalar (used for norms and pivot checks).
    fn magnitude(self) -> f64;
    /// Principal square root (needed by the `L·Lᵀ` baseline).
    fn sqrt(self) -> Self;
    /// Multiplicative inverse.
    fn recip(self) -> Self;
    /// True when all components are finite.
    fn is_finite(self) -> bool;
    /// The IEEE-754 bit patterns of the scalar's components, in storage
    /// order (`Complex64`: real part, then imaginary part). Two scalars
    /// yield the same words exactly when they are the same bits — so
    /// `0.0` and `-0.0`, or two NaNs with different payloads, differ here
    /// although `==` cannot tell them apart (or, for NaN, says they differ
    /// from themselves). What value-identity hashing is built on.
    fn bit_words(self) -> impl Iterator<Item = u64>;
    /// `self * a + b`, fused when the target has a fast hardware FMA.
    ///
    /// The packed microkernel issues one of these per accumulator lane per
    /// depth step; on FMA targets the fusion doubles the floating-point
    /// throughput (and single-rounds, which is at least as accurate).
    /// The default is the unfused product-then-sum.
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    /// The register microkernel the packed GEMM path runs for this scalar
    /// (see [`crate::pack`]); the safe generic one unless overridden.
    const TILE: Tile<Self> = Tile::generic();
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn recip(self) -> Self {
        1.0 / self
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn bit_words(self) -> impl Iterator<Item = u64> {
        std::iter::once(self.to_bits())
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Only reach for the fused instruction when the hardware has one:
        // without the `fma` target feature `f64::mul_add` falls back to a
        // (correct but very slow) soft-float libm call.
        if cfg!(target_feature = "fma") {
            f64::mul_add(self, a, b)
        } else {
            self * a + b
        }
    }
    const TILE: Tile<Self> = Tile::F64;
}

impl Scalar for Complex64 {
    #[inline]
    fn zero() -> Self {
        Complex64::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex64::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex64::new(x, 0.0)
    }
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn sqrt(self) -> Self {
        Complex64::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        Complex64::recip(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
    #[inline]
    fn bit_words(self) -> impl Iterator<Item = u64> {
        [self.re.to_bits(), self.im.to_bits()].into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_axioms<T: Scalar>(a: T, b: T) {
        assert_eq!(a + T::zero(), a);
        assert_eq!(a * T::one(), a);
        assert_eq!(a + (-a), T::zero());
        let prod = a * b;
        assert_eq!(prod, b * a);
    }

    #[test]
    fn f64_axioms() {
        field_axioms(3.5f64, -2.0f64);
        assert_eq!(4.0f64.sqrt(), 2.0);
        assert_eq!(<f64 as Scalar>::recip(4.0), 0.25);
    }

    #[test]
    fn complex_axioms() {
        field_axioms(Complex64::new(1.0, -2.0), Complex64::new(0.5, 3.0));
        assert_eq!(Complex64::from_f64(2.5), Complex64::new(2.5, 0.0));
    }

    #[test]
    fn bit_words_expose_storage_bits() {
        assert_eq!(1.5f64.bit_words().collect::<Vec<_>>(), [1.5f64.to_bits()]);
        assert_ne!(0.0f64.bit_words().next(), (-0.0f64).bit_words().next());
        let z = Complex64::new(2.0, -0.0);
        assert_eq!(z.bit_words().collect::<Vec<_>>(), [2.0f64.to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn magnitude_is_nonnegative() {
        assert!(Complex64::new(-3.0, -4.0).magnitude() == 5.0);
        assert!(<f64 as Scalar>::magnitude(-7.0) == 7.0);
    }

}
