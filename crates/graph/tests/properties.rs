//! Property-based tests of the graph/matrix substrate.

use pastix_graph::{CsrGraph, Permutation, SymCsc};
use proptest::prelude::*;

fn random_sym_matrix(n: usize, entries: Vec<(u32, u32, f64)>) -> SymCsc<f64> {
    let mut tr: Vec<(u32, u32, f64)> = entries
        .into_iter()
        .map(|(i, j, v)| (i % n as u32, j % n as u32, v))
        .collect();
    // Ensure a full diagonal so permutations stay comparable.
    for d in 0..n as u32 {
        tr.push((d, d, 1.0 + d as f64));
    }
    SymCsc::from_triplets(n, &tr)
}

/// `from_triplets` as it was before the counting builder: one growing
/// `Vec` per column, a comparison sort, duplicates summed in sorted order.
fn oracle_from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> SymCsc<f64> {
    let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(r, c, v) in triplets {
        let (i, j) = if r >= c { (r, c) } else { (c, r) };
        assert!((i as usize) < n, "row {i} out of range");
        cols[j as usize].push((i, v));
    }
    let mut colptr = vec![0usize; n + 1];
    let mut rowind = Vec::new();
    let mut values = Vec::new();
    for (j, col) in cols.iter_mut().enumerate() {
        col.sort_unstable_by_key(|&(i, _)| i);
        let mut iter = col.iter().peekable();
        while let Some(&(i, v)) = iter.next() {
            let mut sum = v;
            while let Some(&&(i2, v2)) = iter.peek() {
                if i2 == i {
                    sum += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            rowind.push(i);
            values.push(sum);
        }
        colptr[j + 1] = rowind.len();
    }
    SymCsc::from_parts(n, colptr, rowind, values)
}

/// `permuted` as it was: a triplet per entry through the old `from_triplets`.
fn oracle_permuted(a: &SymCsc<f64>, p: &Permutation) -> SymCsc<f64> {
    let mut triplets = Vec::with_capacity(a.nnz_stored());
    for j in 0..a.n() {
        let nj = p.new_of(j) as u32;
        for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
            triplets.push((p.new_of(i as usize) as u32, nj, v));
        }
    }
    oracle_from_triplets(a.n(), &triplets)
}

/// Same pattern, and the same value bits at every position.
fn bit_identical(a: &SymCsc<f64>, b: &SymCsc<f64>) -> bool {
    a.n() == b.n()
        && a.colptr() == b.colptr()
        && a.rowind() == b.rowind()
        && a.values().iter().map(|v| v.to_bits()).eq(b.values().iter().map(|v| v.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counting builder against the sorting oracle, bit for bit, on
    /// triplets with duplicates, mirrored upper entries and empty columns,
    /// `n` down to 0 and 1, under identity, reversed and random
    /// permutations. Values are multiples of 1/8, so every summation order
    /// of the duplicates gives the same bits and the oracle's unstable sort
    /// cannot differ from the builder's input order.
    #[test]
    fn counting_builder_matches_the_sorting_oracle(
        n in 0usize..24,
        entries in prop::collection::vec((0u32..24, 0u32..24, -64i32..64), 0..90),
        kind in 0u8..3,
        perm_seed in 0u64..10_000,
    ) {
        let trips: Vec<(u32, u32, f64)> = match n {
            0 => Vec::new(),
            _ => entries.iter().map(|&(i, j, v)| (i % n as u32, j % n as u32, v as f64 / 8.0)).collect(),
        };
        let a = SymCsc::from_triplets(n, &trips);
        prop_assert!(bit_identical(&a, &oracle_from_triplets(n, &trips)), "from_triplets");
        let mut p: Vec<u32> = (0..n as u32).collect();
        match kind {
            0 => {}
            1 => p.reverse(),
            _ => {
                let mut rng = perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
                for i in (1..n).rev() {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    p.swap(i, (rng % (i as u64 + 1)) as usize);
                }
            }
        }
        let perm = Permutation::from_perm(p);
        prop_assert!(bit_identical(&a.permuted(&perm), &oracle_permuted(&a, &perm)), "permuted");
    }

    #[test]
    fn permuted_matvec_commutes(n in 1usize..30, entries in prop::collection::vec((0u32..30, 0u32..30, -2.0f64..2.0), 0..80), perm_seed in 0u64..10_000) {
        let a = random_sym_matrix(n, entries);
        // Deterministic permutation from the seed (Fisher–Yates).
        let mut p: Vec<u32> = (0..n as u32).collect();
        let mut rng = perm_seed.wrapping_mul(2654435761).max(1);
        for i in (1..n).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        let perm = Permutation::from_perm(p);
        let ap = a.permuted(&perm);
        // (P A Pᵀ)(P x) must equal P (A x).
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let ax = a.matvec(&x);
        let xp = perm.apply_vec(&x);
        let apxp = ap.matvec(&xp);
        let expected = perm.apply_vec(&ax);
        for (u, v) in apxp.iter().zip(&expected) {
            prop_assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn graph_from_matrix_is_valid(n in 1usize..40, entries in prop::collection::vec((0u32..40, 0u32..40, -2.0f64..2.0), 0..120)) {
        let a = random_sym_matrix(n, entries);
        let g = a.to_graph();
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.n(), n);
    }

    #[test]
    fn inf_norm_bounds_matvec(n in 1usize..25, entries in prop::collection::vec((0u32..25, 0u32..25, -2.0f64..2.0), 0..60)) {
        let a = random_sym_matrix(n, entries);
        let x = vec![1.0f64; n];
        let ax = a.matvec(&x);
        let max_ax = ax.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        prop_assert!(max_ax <= a.inf_norm() + 1e-9);
    }

    #[test]
    fn permutation_composition_associative(n in 1usize..20, s1 in 0u64..1000, s2 in 0u64..1000) {
        let make = |seed: u64| {
            let mut p: Vec<u32> = (0..n as u32).collect();
            let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            for i in (1..n).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let j = (rng % (i as u64 + 1)) as usize;
                p.swap(i, j);
            }
            Permutation::from_perm(p)
        };
        let p = make(s1);
        let q = make(s2);
        let data: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
        // Applying p then q equals applying the composition once.
        let two_step = q.apply_vec(&p.apply_vec(&data));
        let composed = p.then(&q).apply_vec(&data);
        prop_assert_eq!(two_step, composed);
    }

    #[test]
    fn csr_roundtrip_through_edges(n in 1usize..30, edges in prop::collection::vec((0u32..30, 0u32..30), 0..80)) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert!(g.validate().is_ok());
        // Rebuilding from its own edge list is idempotent.
        let mut elist = Vec::new();
        for u in 0..n {
            for &v in g.neighbors(u) {
                if (v as usize) > u {
                    elist.push((u as u32, v));
                }
            }
        }
        let g2 = CsrGraph::from_edges(n, &elist);
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn rsa_roundtrip_random(n in 1usize..15, entries in prop::collection::vec((0u32..15, 0u32..15, -5.0f64..5.0), 0..40)) {
        let a = random_sym_matrix(n, entries);
        let mut buf = Vec::new();
        pastix_graph::io::write_rsa(&mut buf, &a, "prop", "PROP").unwrap();
        let b = pastix_graph::io::read_rsa(&buf[..]).unwrap();
        prop_assert_eq!(a.n(), b.n());
        prop_assert_eq!(a.nnz_stored(), b.nnz_stored());
        for j in 0..n {
            for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
                let got = b.get(i as usize, j);
                prop_assert!((v - got).abs() <= 1e-9 * v.abs().max(1.0));
            }
        }
    }
}
