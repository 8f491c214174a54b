//! Bitwise determinism of the parallel analyze phase.
//!
//! The contract: `Parallelism` changes only wall-clock time, never a bit
//! of any analyze artifact. Sequential and threaded runs must produce
//! identical permutations, identical block symbols, and identical
//! schedule digests, at every thread count. The grid test below is large
//! enough (6400 vertices) to take the parallel recursion and parallel
//! leaf-ordering paths for real (the symbolic phase runs on one thread);
//! the property test sweeps random graphs whose shapes hit the
//! sequential-fallback boundaries from every side. The recorded hashes
//! below pin the permutation, block symbol and task graph of the suite.

use pastix::graph::{build_problem, CsrGraph, Parallelism, ProblemId};
use pastix::ordering::{
    edge_bisection, min_degree, nested_dissection, separator_is_valid, vertex_separator,
    BisectOptions, OrderingOptions,
};
use pastix::sched::{map_and_schedule, SchedOptions};
use pastix::solver::{Plan, SolverConfig};
use pastix::symbolic::{analyze, AnalysisOptions};
use pastix_testsupport::{grid_graph, perm_fnv, symbol_fnv, task_graph_fnv};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Full analyze pipeline (ordering → symbolic → mapping/scheduling) with
/// one parallelism setting; returns everything the determinism contract
/// covers.
fn analyze_with(g: &CsrGraph, par: Parallelism) -> (Vec<u32>, usize, usize, u64, u64) {
    let oopts = OrderingOptions { parallelism: par, ..Default::default() };
    let ord = nested_dissection(g, &oopts);
    let aopts = AnalysisOptions { parallelism: par, ..Default::default() };
    let an = analyze(g, &ord, &aopts);
    let sopts = SchedOptions { parallelism: par, ..Default::default() };
    let m = map_and_schedule(&an.symbol, &pastix::machine::MachineModel::sp2(4), &sopts);
    (
        ord.perm().to_vec(),
        an.symbol.n_cblks(),
        an.symbol.bloks.len(),
        an.scalar_nnz_offdiag,
        m.schedule.digest(),
    )
}

#[test]
fn grid_analyze_is_bitwise_identical_at_every_thread_count() {
    // 80×80: both nested-dissection halves exceed the parallel-recursion
    // cutoff.
    let g = grid_graph(80, 80);
    let seq = analyze_with(&g, Parallelism::Sequential);
    for par in [
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(7),
        Parallelism::Auto,
    ] {
        let got = analyze_with(&g, par);
        assert_eq!(seq.0, got.0, "{par:?}: permutation differs");
        assert_eq!(seq.1, got.1, "{par:?}: supernode count differs");
        assert_eq!(seq.2, got.2, "{par:?}: block count differs");
        assert_eq!(seq.3, got.3, "{par:?}: NNZ_L differs");
        assert_eq!(seq.4, got.4, "{par:?}: schedule digest differs");
    }
}

#[test]
fn plan_analyze_is_bitwise_identical_at_every_thread_count() {
    // Same contract through the Plan entry path: the one `parallelism`
    // knob on `AnalyzeOptions` drives all three stages.
    let a = pastix::graph::gen::grid_spd::<f64>(
        40,
        40,
        1,
        pastix::graph::gen::Stencil::Star,
        false,
        pastix::graph::gen::ValueKind::Laplacian,
    );
    let mut cfg = SolverConfig::default();
    cfg.analyze.parallelism = Parallelism::Sequential;
    let seq = Plan::analyze(&a, &cfg);
    let seq_stats = seq.analyze_stats().unwrap();
    for par in [Parallelism::Threads(3), Parallelism::Auto] {
        cfg.analyze.parallelism = par;
        let p = Plan::analyze(&a, &cfg);
        assert_eq!(
            seq.permutation().unwrap().perm(),
            p.permutation().unwrap().perm(),
            "{par:?}: permutation differs"
        );
        assert_eq!(seq.symbol().cblks, p.symbol().cblks, "{par:?}: cblks differ");
        assert_eq!(seq.symbol().bloks, p.symbol().bloks, "{par:?}: bloks differ");
        assert_eq!(
            seq.schedule().unwrap().digest(),
            p.schedule().unwrap().digest(),
            "{par:?}: digest differs"
        );
        let stats = p.analyze_stats().unwrap();
        assert_eq!(seq_stats.scalar_nnz_offdiag, stats.scalar_nnz_offdiag);
        assert_eq!(seq_stats.scalar_opc.to_bits(), stats.scalar_opc.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs (disconnected, self-looping inputs filtered, odd
    /// shapes) analyze identically at any thread count.
    #[test]
    fn random_graph_analyze_deterministic(
        n in 2usize..120,
        edges in prop::collection::vec((0u32..120, 0u32..120), 0..400),
        threads in 2usize..8,
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .filter(|(u, v)| u != v)
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        let seq = analyze_with(&g, Parallelism::Sequential);
        let par = analyze_with(&g, Parallelism::Threads(threads));
        prop_assert_eq!(&seq.0, &par.0, "permutation differs at {} threads", threads);
        prop_assert_eq!(seq.1, par.1);
        prop_assert_eq!(seq.2, par.2);
        prop_assert_eq!(seq.3, par.3);
        prop_assert_eq!(seq.4, par.4, "schedule digest differs at {} threads", threads);
    }
}

/// FNV-1a-64 with one `u64` word per step, folded into a running hash.
fn fnv_fold(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        *h ^= w;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The ordering is an exact oracle for any refactor of the ordering
/// layer's data movement: these are the permutations of the six
/// `bench_e2e` matrices as measured at PR 13 (the parent of the
/// workspace-threaded nested dissection), one hash per matrix.
#[test]
fn nested_dissection_matches_parent_permutation() {
    let golden: [(ProblemId, f64, u64); 6] = [
        (ProblemId::Quer, 1.0, 0x6e5e_f0d0_fc78_d5cf),
        (ProblemId::Bmwcra1, 0.1, 0xe685_9aee_c5a6_fb7d),
        (ProblemId::Shipsec5, 0.2, 0x75b1_c87f_3948_5a4f),
        (ProblemId::Ship001, 0.5, 0xa9e6_fd05_0c3f_15e9),
        (ProblemId::Oilpan, 0.2, 0x7645_ac18_90d4_c4e1),
        (ProblemId::X104, 0.05, 0x3c5b_5f41_e3dc_28f3),
    ];
    let opts = OrderingOptions { parallelism: Parallelism::Threads(2), ..Default::default() };
    for (id, scale, want) in golden {
        let g = build_problem::<f64>(id, scale).to_graph();
        let p = nested_dissection(&g, &opts);
        let h = perm_fnv(p.perm());
        assert_eq!(h, want, "{} @ {scale}: permutation hash {h:016x}", id.name());
    }
}

/// The symbolic and scheduling layers are oracles the same way: the
/// block symbol `analyze` builds on each suite ordering and the task graph
/// `map_and_schedule` builds on it for two processors (as in `bench_e2e`),
/// as measured at PR 21, the parent of the one-workspace block symbolic.
/// `(symbol, task graph)` hashes per matrix.
#[test]
fn symbol_and_task_graph_match_parent() {
    let golden: [(ProblemId, f64, u64, u64); 6] = [
        (ProblemId::Quer, 1.0, 0xbdd0_ef6f_a47f_4848, 0x6432_fe3a_44d4_da38),
        (ProblemId::Bmwcra1, 0.1, 0x238d_f640_4a63_94c0, 0xdcac_100a_f59d_eae1),
        (ProblemId::Shipsec5, 0.2, 0x0537_f077_a62d_974f, 0xfd5d_bbee_3707_ae78),
        (ProblemId::Ship001, 0.5, 0x59bd_f8dc_5ac3_0c56, 0xca5c_5c52_884e_4f2c),
        (ProblemId::Oilpan, 0.2, 0x2d5b_75c5_309c_782b, 0xc673_1cc5_618e_9ef5),
        (ProblemId::X104, 0.05, 0x7242_7765_2943_4934, 0x6341_7773_00ae_507b),
    ];
    let oopts = OrderingOptions { parallelism: Parallelism::Threads(2), ..Default::default() };
    let machine = pastix::machine::MachineModel::sp2(2);
    for (id, scale, want_sym, want_tg) in golden {
        let g = build_problem::<f64>(id, scale).to_graph();
        let an = analyze(&g, &nested_dissection(&g, &oopts), &AnalysisOptions::default());
        let m = map_and_schedule(&an.symbol, &machine, &SchedOptions::default());
        let (sym, tg) = (symbol_fnv(&an.symbol), task_graph_fnv(&m.graph));
        assert_eq!(sym, want_sym, "{} @ {scale}: symbol hash {sym:016x}", id.name());
        assert_eq!(tg, want_tg, "{} @ {scale}: task graph hash {tg:016x}", id.name());
    }
}

/// One irregular graph of the sweep below: the shape cycles with `case`,
/// the size and edges come from `rng`.
fn irregular_graph(case: usize, rng: &mut SmallRng) -> CsrGraph {
    // Every twelfth graph is tiny: one-vertex graphs and empty sides.
    let n = if case % 12 == 11 { rng.gen_range(1..=4usize) } else { rng.gen_range(1..=300usize) };
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let pair = |rng: &mut SmallRng, lo: usize, hi: usize| {
        (rng.gen_range(lo..hi) as u32, rng.gen_range(lo..hi) as u32)
    };
    match case % 7 {
        // Random sparse, average degree 1–6.
        0 | 1 => {
            let m = n * rng.gen_range(1..=6usize) / 2;
            edges.extend((0..m).map(|_| pair(rng, 0, n)));
        }
        // Disconnected: three random islands plus isolated vertices.
        2 => {
            let third = (n / 4).max(1);
            for island in 0..3 {
                let (lo, hi) = (island * third, ((island + 1) * third).min(n));
                if lo < hi {
                    edges.extend((0..2 * (hi - lo)).map(|_| pair(rng, lo, hi)));
                }
            }
        }
        // Star (coarsening stalls), with a few chords.
        3 => {
            edges.extend((1..n as u32).map(|v| (0, v)));
            edges.extend((0..n / 16).map(|_| pair(rng, 0, n)));
        }
        // A clique (everything indistinguishable) hanging off a path.
        4 => {
            let k = n.min(rng.gen_range(2..=40usize));
            for i in 0..k as u32 {
                edges.extend((0..i).map(|j| (i, j)));
            }
            edges.extend((k as u32..n as u32).map(|v| (v - 1, v)));
        }
        // Path with random long-range chords.
        5 => {
            edges.extend((1..n as u32).map(|v| (v - 1, v)));
            edges.extend((0..n / 8).map(|_| pair(rng, 0, n)));
        }
        // Dense random block: many equal adjacency sets and hash buckets.
        _ => {
            let k = n.min(60);
            edges.extend((0..k * k / 3).map(|_| pair(rng, 0, k)));
            edges.extend((k as u32..n as u32).map(|v| (v % k as u32, v)));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// The suite matrices are all meshes; empty sides, stalled coarsening,
/// hash collisions between distinguishable variables and duplicate-free
/// irregular rows only show on other graphs. Every `min_degree` order,
/// `vertex_separator` side vector and `edge_bisection` of a seeded sweep
/// is folded into one hash, recorded on the same parent code as the six
/// hashes above.
#[test]
fn small_irregular_graphs_match_parent_golden_hash() {
    let mut rng = SmallRng::seed_from_u64(0x00C0_FFEE);
    let mut h = FNV_OFFSET;
    for case in 0..252usize {
        let g = irregular_graph(case, &mut rng);
        let n = g.n();
        // Halo masks: none, sparse, and roughly a third of the vertices.
        let density = [0usize, 10, 3][case % 3];
        let halo: Vec<bool> =
            (0..n).map(|_| density != 0 && rng.gen_range(0..density) == 0).collect();
        fnv_fold(&mut h, [n as u64, g.n_adj() as u64]);
        fnv_fold(&mut h, min_degree(&g, &halo).order.iter().map(|&v| v as u64));
        let bopts = BisectOptions {
            seed: rng.gen_range(0..u64::MAX),
            coarse_target: [64, 8, 20][case % 3],
            ..Default::default()
        };
        let sep = vertex_separator(&g, &bopts);
        assert!(separator_is_valid(&g, &sep.side), "case {case}: invalid separator");
        fnv_fold(&mut h, sep.side.iter().map(|&s| s as u64));
        fnv_fold(&mut h, sep.counts.iter().map(|&c| c as u64));
        fnv_fold(&mut h, edge_bisection(&g, &bopts).iter().map(|&s| s as u64));
    }
    assert_eq!(h, 0x778d_7244_0f46_f0e4, "small-graph golden hash {h:016x}");
}
