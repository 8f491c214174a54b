//! The numeric factor as an exact oracle for refactors of the kernels and
//! of the contribution delivery: FNV-1a hashes of the factor panels'
//! bits, from `factorize_sequential` and from the sim backend at one
//! fixed `(seed, policy)`, on two small irregular problems, under
//! `KernelMode::Auto` (at this size: the axpy reference) and
//! `KernelMode::Packed` (every product through the packed microkernel).
//! Recorded on the parent of the register-tile / strip-delivery change.
//! The packed hashes are those of fused multiply-adds (`Scalar::mul_add`
//! fuses only with the `fma` target feature) and are skipped without it.
//!
//! One `#[test]` only: the kernel mode is process-global, and a test
//! binary runs its tests on parallel threads.

use pastix::graph::SymCsc;
use pastix::kernels::{KernelMode, Scalar};
use pastix::machine::MachineModel;
use pastix::ordering::{nested_dissection, OrderingOptions};
use pastix::runtime::sim::{FaultPlan, SchedPolicy};
use pastix::runtime::Backend;
use pastix::sched::{map_and_schedule, DistStrategy, Mapping, SchedOptions, TaskKind};
use pastix::solver::{factorize_sequential, FactorStorage, Plan, SolverConfig};
use pastix::symbolic::{analyze, AnalysisOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A strictly diagonally dominant (hence SPD) matrix on a random sparse
/// pattern: a path (so the graph is connected), `extra` random edges, and
/// — when `clique > 0` — one dense block, which gives the elimination a
/// wide supernode among the narrow ones.
fn irregular_spd(n: usize, extra: usize, clique: usize, seed: u64) -> SymCsc<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: BTreeSet<(u32, u32)> = (1..n as u32).map(|i| (i, i - 1)).collect();
    for _ in 0..extra {
        let (i, j) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if i != j {
            edges.insert((i.max(j), i.min(j)));
        }
    }
    let first = rng.gen_range(0..(n - clique) as u32);
    for i in first..first + clique as u32 {
        edges.extend((first..i).map(|j| (i, j)));
    }
    let mut diag = vec![1.0f64; n];
    let mut triplets = Vec::with_capacity(edges.len() + n);
    for (i, j) in edges {
        let v = rng.gen_range(1..=16u32) as f64 / -8.0;
        diag[i as usize] -= v;
        diag[j as usize] -= v;
        triplets.push((i, j, v));
    }
    triplets.extend(diag.iter().enumerate().map(|(i, &d)| (i as u32, i as u32, d)));
    SymCsc::from_triplets(n, &triplets)
}

fn setup(a: &SymCsc<f64>, procs: usize, strategy: DistStrategy) -> (SymCsc<f64>, Mapping) {
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions { leaf_size: 8, ..Default::default() });
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    let mut opts = SchedOptions::default();
    opts.block_size = 4;
    opts.mapping.strategy = strategy;
    opts.mapping.procs_2d_min = 2.0;
    opts.mapping.width_2d_min = 4;
    let mapping = map_and_schedule(&an.symbol, &MachineModel::sp2(procs), &opts);
    (a.permuted(&an.perm), mapping)
}

fn panel_hash(st: &FactorStorage<f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in st.panels.iter().flatten().flat_map(|v| v.bit_words()) {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn factor_panels_match_parent_hashes() {
    // (matrix, procs, strategy, [seq Auto, sim Auto, seq Packed, sim Packed]).
    let cases = [
        (
            irregular_spd(160, 240, 0, 0x5EED_0001),
            3,
            DistStrategy::Only1d,
            [0xe2a1_b2eb_acc6_9ca8u64, 0x9311_a073_a504_a1d5, 0x62a1_2489_d5eb_d2af, 0xc492_3301_2bc7_318e],
        ),
        (
            irregular_spd(220, 300, 24, 0x5EED_0002),
            4,
            DistStrategy::Mixed1d2d,
            [0xf7fc_ba9a_066d_bc8c, 0xebc0_b500_18f7_d65b, 0x572c_ea52_73b7_2b6c, 0xcbbe_4b4b_6f81_01fe],
        ),
    ];
    for (case, (a, procs, strategy, want)) in cases.into_iter().enumerate() {
        let (ap, mapping) = setup(&a, procs, strategy);
        let sym = &mapping.graph.split.symbol;
        let has_2d = mapping.graph.kinds.iter().any(|k| matches!(k, TaskKind::Factor { .. }));
        assert_eq!(has_2d, strategy == DistStrategy::Mixed1d2d, "case {case}: 2D blocks");
        let plan = Plan::from_parts(None, mapping.graph.clone(), Some(mapping.schedule.clone()));
        let fp = FaultPlan::builder(17).policy(SchedPolicy::Uniform).build();
        let mut got = Vec::new();
        let modes = [KernelMode::Auto, KernelMode::Packed];
        let modes = &modes[..if cfg!(target_feature = "fma") { 2 } else { 1 }];
        for &mode in modes {
            let seq = {
                let _mode = mode.scoped();
                let mut st = FactorStorage::zeros(sym);
                st.scatter(sym, &ap);
                factorize_sequential(sym, &mut st).unwrap();
                st
            };
            let cfg = SolverConfig::new().with_backend(Backend::Sim(fp)).with_kernel_mode(mode);
            let sim = plan.factorize(&ap, &cfg).unwrap().into_storage();
            got.extend([panel_hash(&seq), panel_hash(&sim)]);
        }
        let shown: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
        assert_eq!(got, want[..got.len()], "case {case}: panel hashes [{}]", shown.join(", "));
    }
}
