//! Shared test scaffolding for the workspace.
//!
//! Almost every crate's tests need the same setup: a small grid problem
//! pushed through `nested_dissection → analyze → map_and_schedule` to get
//! a realistic block symbol, task graph, or schedule. This crate hoists
//! that pipeline into one place (it used to be copy-pasted across the
//! multifrontal, sched, and trace test modules) so tests state only what
//! they vary: grid shape, leaf size, processor count.
//!
//! Everything here is deterministic — same arguments, same artifacts —
//! which is what the analyze-determinism suites rely on when they compare
//! sequential and parallel runs.

#![warn(missing_docs)]

use pastix_graph::gen::{grid_spd, Stencil, ValueKind};
use pastix_graph::{CsrGraph, SymCsc};
use pastix_machine::MachineModel;
use pastix_ordering::{nested_dissection, OrderingOptions};
use pastix_sched::{map_and_schedule, Mapping, SchedOptions, TaskGraph, TaskKind};
use pastix_symbolic::{analyze, Analysis, AnalysisOptions, SymbolMatrix};
use std::collections::BTreeSet;

/// The adjacency graph of an `nx × ny` 5-point grid (the canonical test
/// pattern: planar, regular, with real separator structure under nested
/// dissection).
pub fn grid_graph(nx: usize, ny: usize) -> CsrGraph {
    let mut e = Vec::new();
    let id = |x: usize, y: usize| (x + nx * y) as u32;
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                e.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < ny {
                e.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    CsrGraph::from_edges(nx * ny, &e)
}

/// The adjacency graph of a dense `n`-clique: one fundamental supernode.
pub fn clique_graph(n: usize) -> CsrGraph {
    let e: Vec<(u32, u32)> = (0..n as u32).flat_map(|i| (0..i).map(move |j| (i, j))).collect();
    CsrGraph::from_edges(n, &e)
}

/// Nested dissection (with the given leaf size) plus default symbolic
/// analysis of `g`.
pub fn graph_analysis(g: &CsrGraph, leaf_size: usize) -> Analysis {
    let ord = nested_dissection(g, &OrderingOptions { leaf_size, ..Default::default() });
    analyze(g, &ord, &AnalysisOptions::default())
}

/// Block symbol of an `nx × ny` grid ordered by nested dissection with
/// the given leaf size. The symbol depends only on the pattern, so tests
/// that never touch numeric values start here.
pub fn grid_symbol(nx: usize, ny: usize, leaf_size: usize) -> SymbolMatrix {
    graph_analysis(&grid_graph(nx, ny), leaf_size).symbol
}

/// A permuted SPD grid system and its block symbol: the input pair of
/// every sequential numeric-factorization test. `seed` selects the
/// random SPD values (`ValueKind::RandomSpd`).
pub fn grid_pipeline(
    nx: usize,
    ny: usize,
    nz: usize,
    leaf_size: usize,
    seed: u64,
) -> (SymCsc<f64>, SymbolMatrix) {
    let a = grid_spd::<f64>(nx, ny, nz, Stencil::Star, false, ValueKind::RandomSpd(seed));
    let g = a.to_graph();
    let ord = nested_dissection(&g, &OrderingOptions { leaf_size, ..Default::default() });
    let an = analyze(&g, &ord, &AnalysisOptions::default());
    (a.permuted(&an.perm), an.symbol)
}

/// Full pre-processing of an `nx × ny` grid for `procs` SP2 processors:
/// ordering, symbolic analysis, and mapping/scheduling under `opts`.
pub fn grid_mapping(
    nx: usize,
    ny: usize,
    leaf_size: usize,
    procs: usize,
    opts: &SchedOptions,
) -> Mapping {
    let an = graph_analysis(&grid_graph(nx, ny), leaf_size);
    map_and_schedule(&an.symbol, &MachineModel::sp2(procs), opts)
}

/// Dense reference symbolic factorization of a graph in elimination
/// order: the rows below the diagonal of every column of `L`.
pub fn reference_patterns(g: &CsrGraph) -> Vec<BTreeSet<u32>> {
    let n = g.n();
    let mut pat: Vec<BTreeSet<u32>> =
        (0..n).map(|j| g.neighbors(j).iter().copied().filter(|&i| i as usize > j).collect()).collect();
    // Column j's rows below its first one fill the column of that row.
    for j in 0..n {
        if let Some(&p) = pat[j].first() {
            let fill: Vec<u32> = pat[j].iter().copied().skip(1).collect();
            pat[p as usize].extend(fill);
        }
    }
    pat
}

/// FNV-1a-64 over `words`, one `u64` per step.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a-64 of a permutation's `perm()` array: the recorded-ordering
/// oracle of `tests/analyze_determinism.rs` and `bench_analyze`.
pub fn perm_fnv(perm: &[u32]) -> u64 {
    fnv(perm.iter().map(|&v| v as u64))
}

/// FNV-1a-64 of a block symbol: every `cblk.lcol`, then `(frow, lrow,
/// fcblk)` of every blok.
pub fn symbol_fnv(sym: &SymbolMatrix) -> u64 {
    let lcols = sym.cblks.iter().map(|c| c.lcol as u64);
    let bloks = sym.bloks.iter().flat_map(|b| [b.frow, b.lrow, b.fcblk].map(u64::from));
    fnv(lcols.chain(bloks))
}

/// FNV-1a-64 of a task graph: kinds, cost bits, candidate ranges,
/// priorities and the incoming-edge CSR (pointers, sources, scalars).
pub fn task_graph_fnv(tg: &TaskGraph) -> u64 {
    let kinds = tg.kinds.iter().flat_map(|k| {
        match *k {
            TaskKind::Comp1d { cblk } => [0, cblk, 0, 0],
            TaskKind::Factor { cblk } => [1, cblk, 0, 0],
            TaskKind::Bdiv { cblk, blok } => [2, cblk, blok, 0],
            TaskKind::Bmod { cblk, blok_row, blok_col } => [3, cblk, blok_row, blok_col],
        }
        .map(u64::from)
    });
    fn words(v: &[u32]) -> impl Iterator<Item = u64> + '_ {
        v.iter().map(|&x| x as u64)
    }
    fnv(kinds
        .chain(tg.cost.iter().map(|c| c.to_bits()))
        .chain(tg.cand.iter().flat_map(|&(f, l)| [f as u64, l as u64]))
        .chain(words(&tg.priority))
        .chain(words(&tg.in_ptr))
        .chain(words(&tg.in_src))
        .chain(words(&tg.in_scalars)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_graph_shape() {
        let g = grid_graph(4, 3);
        assert_eq!(g.n(), 12);
        // Interior vertex (1,1) has 4 neighbors.
        assert_eq!(g.neighbors(5).len(), 4);
    }

    #[test]
    fn helpers_are_deterministic() {
        let s1 = grid_symbol(8, 8, 8);
        let s2 = grid_symbol(8, 8, 8);
        assert_eq!(s1.cblks, s2.cblks);
        assert_eq!(s1.bloks, s2.bloks);
        let m1 = grid_mapping(8, 8, 8, 4, &SchedOptions::default());
        let m2 = grid_mapping(8, 8, 8, 4, &SchedOptions::default());
        assert_eq!(m1.schedule.digest(), m2.schedule.digest());
    }

    #[test]
    fn pipeline_returns_permuted_matrix_matching_symbol() {
        let (ap, sym) = grid_pipeline(6, 5, 1, 8, 7);
        assert_eq!(ap.n(), sym.n);
        assert_eq!(sym.n, 30);
    }
}
