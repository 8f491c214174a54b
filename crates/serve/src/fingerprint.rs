//! Matrix fingerprinting: the cache key of the serving session.
//!
//! A factor is reusable exactly when the matrix is the same — same
//! sparsity structure (which fixes ordering, symbol and schedule) and
//! same numeric values (which fix the factor). The fingerprint captures
//! both as independent FNV-1a digests over the matrix's *canonical* CSC
//! form: [`pastix_graph::SymCsc::from_triplets`] sorts rows within each
//! column, folds duplicates and mirrors the upper triangle, so two
//! assemblies of the same matrix — triplets permuted, entries given as
//! `(i,j)` or `(j,i)`, duplicates split differently — canonicalize to
//! identical arrays and therefore identical fingerprints.
//!
//! The numeric digest hashes the IEEE-754 **bit pattern** of every stored
//! value ([`Scalar::bit_words`]), a word at a time — no formatting, no
//! allocation, one multiply per value. Identity is therefore identity of
//! bits, which is exactly what decides whether a cached factor is the
//! factor of this matrix: `0.0` and `-0.0` key differently, and so do two
//! NaNs with different payloads (a matrix holding a NaN can never be
//! factorized anyway; it only must not alias a healthy one).
//!
//! Both digests fold whole words through [`fold`]: the FNV-1a step
//! `h = (h ^ word) · prime`, then `h ^= h >> 32`. The shift is what makes
//! the word-wise form safe: a multiply only carries a difference *upward*,
//! so without it the sign bit of a value (bit 63) could only ever toggle
//! bit 63 of the digest, and flipping the sign of any two stored values —
//! `A` against `-A` — cancelled exactly. Folding the high half back down
//! lets every input bit reach every digest bit within two steps. Each step
//! is still a bijection of the state (odd multiplier, invertible
//! xor-shift), so two inputs that differ in exactly one word never
//! collide; inputs that differ in several words collide with the 2⁻⁶⁴
//! chance of any 64-bit digest, not structurally.

use pastix_graph::SymCsc;
use pastix_kernels::Scalar;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a step over a whole 64-bit word, with the high half of the
/// product folded back into the low half (see the module doc).
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(FNV_PRIME);
    h ^ (h >> 32)
}

/// The two-part cache key: structure digest and numeric checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixFingerprint {
    /// FNV-1a over `(n, colptr, rowind)` of the canonical lower CSC —
    /// identical iff the sparsity patterns are identical.
    pub structure: u64,
    /// FNV-1a over the bit patterns of the stored values, in canonical
    /// order — identical iff the numeric content is bit-identical.
    pub numeric: u64,
}

impl MatrixFingerprint {
    /// Fingerprints a matrix in canonical [`SymCsc`] form.
    pub fn of<T: Scalar>(a: &SymCsc<T>) -> Self {
        let structure = (a.colptr().iter().map(|&p| p as u64))
            .chain(a.rowind().iter().map(|&r| r as u64))
            .fold(fold(FNV_OFFSET, a.n() as u64), fold);
        let numeric = a.values().iter().flat_map(|v| v.bit_words()).fold(FNV_OFFSET, fold);
        Self { structure, numeric }
    }

    /// Compact hex rendering (`structure:numeric`), the form metrics and
    /// logs print.
    pub fn render(&self) -> String {
        format!("{:016x}:{:016x}", self.structure, self.numeric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Vec<(u32, u32, f64)> {
        vec![
            (0, 0, 4.0),
            (1, 1, 5.0),
            (2, 2, 6.0),
            (1, 0, -1.0),
            (2, 1, -2.0),
        ]
    }

    #[test]
    fn permuted_triplets_fingerprint_identically() {
        let a = SymCsc::from_triplets(3, &tri());
        // Same matrix, different assembly: reversed entry order, one
        // entry given in the upper triangle, one split into two summands.
        let alt = vec![
            (2, 1, -0.5),
            (1, 2, -1.5),
            (2, 2, 6.0),
            (0, 1, -1.0),
            (1, 1, 5.0),
            (0, 0, 4.0),
        ];
        let b = SymCsc::from_triplets(3, &alt);
        assert_eq!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
    }

    #[test]
    fn value_change_flips_numeric_only() {
        let a = SymCsc::from_triplets(3, &tri());
        let mut t = tri();
        t[0].2 = 4.5;
        let b = SymCsc::from_triplets(3, &t);
        let (fa, fb) = (MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
        assert_eq!(fa.structure, fb.structure);
        assert_ne!(fa.numeric, fb.numeric);
    }

    #[test]
    fn structure_change_flips_structure() {
        let a = SymCsc::from_triplets(3, &tri());
        let mut t = tri();
        t.push((2, 0, 0.25));
        let b = SymCsc::from_triplets(3, &t);
        assert_ne!(
            MatrixFingerprint::of(&a).structure,
            MatrixFingerprint::of(&b).structure
        );
    }

    #[test]
    fn identity_is_identity_of_bits() {
        // The key is over bit patterns, not over `==`: a signed zero or a
        // NaN payload is a different matrix as far as the cache can tell.
        // (Erring that way only costs a refactorization; the other way
        // would serve the wrong factor.)
        let with = |v: f64| {
            let mut t = tri();
            t[3].2 = v;
            MatrixFingerprint::of(&SymCsc::from_triplets(3, &t))
        };
        assert_ne!(with(0.0).numeric, with(-0.0).numeric);
        let (nan_a, nan_b) = (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0x7ff8_0000_0000_0002));
        assert!(nan_a.is_nan() && nan_b.is_nan());
        assert_ne!(with(nan_a).numeric, with(nan_b).numeric);
        assert_eq!(with(nan_a), with(nan_a), "same bits, same key — even for NaN");
        assert_eq!(with(0.0).structure, with(nan_a).structure);
    }

    #[test]
    fn high_bit_changes_in_two_values_do_not_cancel() {
        // Sign and exponent live in the top bits of a word; a fold that
        // only carries differences upward lets two such changes cancel.
        let key = |t: &[(u32, u32, f64)]| MatrixFingerprint::of(&SymCsc::from_triplets(3, t)).numeric;
        let base = key(&tri());
        let mut signs = tri();
        signs[3].2 = 1.0;
        signs[4].2 = 2.0;
        assert_ne!(key(&signs), base, "two sign flips");
        let mut expo = tri();
        expo[3].2 = -2.0;
        expo[4].2 = -4.0;
        assert_ne!(key(&expo), base, "two exponent bumps");
        // -A against A, with an even and an odd number of stored values.
        let negated = |t: &[(u32, u32, f64)]| t.iter().map(|&(i, j, v)| (i, j, -v)).collect::<Vec<_>>();
        assert_ne!(key(&negated(&tri()[..4])), key(&tri()[..4]), "-A, 4 values");
        assert_ne!(key(&negated(&tri())), base, "-A, 5 values");
        // The same for the two words of a complex value.
        use pastix_kernels::Complex64;
        let ckey = |im: [f64; 2]| {
            let t = [(0, 0, Complex64::new(4.0, im[0])), (1, 1, Complex64::new(5.0, im[1]))];
            MatrixFingerprint::of(&SymCsc::from_triplets(2, &t)).numeric
        };
        assert_ne!(ckey([1.0, 1.0]), ckey([-1.0, -1.0]));
    }

    #[test]
    fn nearby_floats_are_distinguished() {
        let mut t = tri();
        t[0].2 = 1.0;
        let a = SymCsc::from_triplets(3, &t);
        t[0].2 = 1.0 + f64::EPSILON;
        let b = SymCsc::from_triplets(3, &t);
        assert_ne!(MatrixFingerprint::of(&a).numeric, MatrixFingerprint::of(&b).numeric);
        assert!(!MatrixFingerprint::of(&a).render().is_empty());
    }
}
