//! Nested dissection driver.
//!
//! Implements the paper's ordering phase: *"a tight coupling of the Nested
//! Dissection and Approximate Minimum Degree algorithms; the partition of
//! the original graph into supernodes is achieved by merging the partition
//! of separators computed by the Nested Dissection algorithm and the
//! supernodes amalgamated for each subgraph ordered by Halo Approximate
//! Minimum Degree"*.
//!
//! The driver recursively bisects the graph with a vertex separator
//! ([`crate::bisect`]), numbers the two halves first and the separator
//! last, and switches to (halo) minimum degree on subgraphs below the leaf
//! threshold. The two sibling subtrees are independent and ordered in
//! parallel with [`pastix_graph::par::join`] — the natural fork-join
//! shape of nested dissection. The supernode partition itself is
//! recovered afterwards by the symbolic phase (fundamental supernodes +
//! amalgamation), which merges the separator supernodes and the leaf
//! supernodes exactly as the paper describes.
//!
//! The permutation array is the recursion's only vertex storage: a node
//! owns the slice that will hold its subtree's ranks, finds its vertices
//! there in ascending order, and partitions them in place into
//! `[side 0 | side 1 | separator]` — the separator is then already where
//! it belongs and the sides are the children's slices. Everything else a
//! node or a leaf needs lives in a `Workspace`, one per worker (the
//! caller, each spawned `join` branch, each leaf chunk), whose buffers
//! grow to the largest subgraph the worker meets and are then reused.

use crate::bisect::{separator, BisectOptions, BisectWorkspace};
use crate::md::{min_degree, Quotient};
use pastix_graph::par::{join, par_chunks_mut};
use pastix_graph::{CsrGraph, Parallelism, Permutation, VertexMap};

/// How leaf subgraphs (below the dissection threshold) are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafMode {
    /// Halo minimum degree — the "Scotch-like" coupling of the paper: the
    /// separator vertices adjacent to the subgraph participate in degrees.
    HaloMinDegree,
    /// Plain minimum degree, blind to the halo — the "MeTiS-like" variant
    /// used to reproduce Table 1's second metric set.
    MinDegree,
    /// No reordering of leaves (debug/reference only).
    Natural,
}

/// Options of the nested dissection ordering.
#[derive(Debug, Clone)]
pub struct OrderingOptions {
    /// Subgraphs at or below this size are ordered by the leaf algorithm.
    pub leaf_size: usize,
    /// Leaf ordering algorithm.
    pub leaf_mode: LeafMode,
    /// Bisection knobs.
    pub bisect: BisectOptions,
    /// Parallelism of the dissection recursion and the leaf min-degree
    /// frontier. Never changes the ordering — only wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for OrderingOptions {
    fn default() -> Self {
        Self {
            leaf_size: 120,
            leaf_mode: LeafMode::HaloMinDegree,
            bisect: BisectOptions::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

impl OrderingOptions {
    /// The paper's PaStiX-side ordering (Scotch-like: ND + Halo-MD).
    pub fn scotch_like() -> Self {
        Self::default()
    }

    /// The paper's PSPASES-side ordering (MeTiS-like: ND + plain MD).
    pub fn metis_like() -> Self {
        Self {
            leaf_mode: LeafMode::MinDegree,
            ..Self::default()
        }
    }
}

/// Computes a fill-reducing ordering of `g` by nested dissection.
///
/// ```
/// use pastix_graph::CsrGraph;
/// use pastix_ordering::{nested_dissection, OrderingOptions};
/// // A 6x6 grid graph.
/// let mut e = Vec::new();
/// for y in 0..6u32 {
///     for x in 0..6u32 {
///         if x + 1 < 6 { e.push((x + 6 * y, x + 1 + 6 * y)); }
///         if y + 1 < 6 { e.push((x + 6 * y, x + 6 * (y + 1))); }
///     }
/// }
/// let g = CsrGraph::from_edges(36, &e);
/// let perm = nested_dissection(&g, &OrderingOptions::scotch_like());
/// assert!(perm.validate());
/// ```
pub fn nested_dissection(g: &CsrGraph, opts: &OrderingOptions) -> Permutation {
    let threads = opts.parallelism.effective_threads();
    let mut perm: Vec<u32> = (0..g.n() as u32).collect();
    // Phase 1: dissect. The recursion numbers separators and collects the
    // leaf frontier (each leaf a disjoint slice of `perm` holding its own
    // vertices) instead of ordering leaves inline.
    let mut jobs = Vec::new();
    recurse(g, &mut perm, opts, 0, opts.bisect.seed, threads, &mut Workspace::default(), &mut jobs);
    // Phase 2: order the whole leaf frontier. Leaves are independent and
    // write disjoint slices, so chunking the job list across threads
    // reproduces the sequential result bitwise.
    par_chunks_mut(threads, &mut jobs, |chunk, _| {
        let mut ws = Workspace::default();
        for leaf in chunk {
            order_leaf(g, leaf, opts.leaf_mode, &mut ws);
        }
    });
    drop(jobs);
    Permutation::from_perm(perm)
}

/// Pure (halo-free) minimum degree over the whole graph; the classical
/// single-strategy baseline used by the ordering comparison example.
pub fn pure_min_degree(g: &CsrGraph) -> Permutation {
    let halo = vec![false; g.n()];
    let o = min_degree(g, &halo);
    Permutation::from_perm(o.order)
}

/// What one worker reuses from node to node and from leaf to leaf.
#[derive(Default)]
struct Workspace {
    /// Global → local ids of the subgraph being extracted.
    map: VertexMap,
    /// The subgraph a node bisects.
    sub: CsrGraph,
    bisect: BisectWorkspace,
    md: Quotient,
    /// Local → global ids: a copy of the slice being rewritten, plus the
    /// halo of a leaf.
    verts: Vec<u32>,
}

fn recurse<'a>(
    g0: &CsrGraph,
    verts: &'a mut [u32],
    opts: &OrderingOptions,
    depth: usize,
    seed: u64,
    threads: usize,
    ws: &mut Workspace,
    jobs: &mut Vec<&'a mut [u32]>,
) {
    let nv = verts.len();
    if nv == 0 {
        return;
    }
    if nv <= opts.leaf_size || depth >= 60 {
        jobs.push(verts);
        return;
    }
    // The root's subgraph is the graph itself.
    let sub = if nv == g0.n() {
        g0
    } else {
        g0.induced_subgraph_into(verts, &mut ws.map, &mut ws.sub);
        &ws.sub
    };
    // Decorrelate sibling seeds deterministically.
    let bisect_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(depth as u64)
        .wrapping_add(verts[0] as u64);
    let counts = separator(&mut ws.bisect, sub, &opts.bisect, bisect_seed);
    let (n0, n1) = (counts[0], counts[1]);
    if n0 == 0 || n1 == 0 {
        // Degenerate split (tiny or pathological graph): stop dissecting.
        jobs.push(verts);
        return;
    }
    // Stable partition: both sides stay ascending, and the separator is
    // numbered last, in natural order.
    ws.verts.clear();
    ws.verts.extend_from_slice(verts);
    let mut at = [0, n0, n0 + n1];
    for (&gid, &side) in ws.verts.iter().zip(&ws.bisect.part) {
        verts[at[side as usize]] = gid;
        at[side as usize] += 1;
    }
    let (v0, rest) = verts.split_at_mut(n0);
    let (v1, _separator) = rest.split_at_mut(n1);

    let seed0 = seed.wrapping_add(1);
    let seed1 = seed.wrapping_add(2);
    // A parallel cutoff keeps join overhead away from small subtrees. The
    // spawned branch is a new worker with its share of the threads, its own
    // workspace and its own job list; appending side 1 after side 0 keeps
    // the frontier order identical to the sequential recursion.
    if threads > 1 && n0.min(n1) > 2048 {
        let t1 = threads / 2;
        let mut jobs1 = Vec::new();
        join(
            || recurse(g0, v0, opts, depth + 1, seed0, threads - t1, ws, jobs),
            || recurse(g0, v1, opts, depth + 1, seed1, t1, &mut Workspace::default(), &mut jobs1),
        );
        jobs.extend(jobs1);
    } else {
        recurse(g0, v0, opts, depth + 1, seed0, threads, ws, jobs);
        recurse(g0, v1, opts, depth + 1, seed1, threads, ws, jobs);
    }
}

/// Orders a leaf: `leaf` lists its vertices in ascending order and
/// receives them in elimination order.
fn order_leaf(g0: &CsrGraph, leaf: &mut [u32], mode: LeafMode, ws: &mut Workspace) {
    if mode == LeafMode::Natural {
        return;
    }
    let Workspace { map, md, verts, .. } = ws;
    let nv = leaf.len();
    verts.clear();
    verts.extend_from_slice(leaf);
    map.begin(g0.n());
    for (loc, &v) in leaf.iter().enumerate() {
        map.set(v, loc as u32);
    }
    md.begin();
    if mode == LeafMode::MinDegree {
        for &v in leaf.iter() {
            md.push_row(g0.neighbors(v as usize).iter().filter_map(|&u| map.get(u)), false);
        }
    } else {
        // Halo = outside neighbors of the leaf (separator vertices of some
        // ancestor, eliminated after every leaf vertex), numbered behind
        // the leaf as its rows discover them. Minimum degree never ranks
        // a halo vertex, so only the order among leaf vertices counts.
        for &v in leaf.iter() {
            let row = g0.neighbors(v as usize).iter().map(|&u| {
                map.get(u).unwrap_or_else(|| {
                    let loc = verts.len() as u32;
                    map.set(u, loc);
                    verts.push(u);
                    loc
                })
            });
            md.push_row(row, false);
        }
        for h in nv..verts.len() {
            md.push_row(g0.neighbors(verts[h] as usize).iter().filter_map(|&u| map.get(u)), true);
        }
    }
    let mut rank = 0;
    md.order(|loc| {
        leaf[rank] = verts[loc as usize];
        rank += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nx: usize, ny: usize) -> CsrGraph {
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

    #[test]
    fn produces_valid_permutation() {
        let g = grid(20, 20);
        for mode in [LeafMode::HaloMinDegree, LeafMode::MinDegree, LeafMode::Natural] {
            let opts = OrderingOptions {
                leaf_mode: mode,
                leaf_size: 30,
                ..Default::default()
            };
            let p = nested_dissection(&g, &opts);
            assert!(p.validate(), "invalid permutation for {mode:?}");
            assert_eq!(p.len(), 400);
        }
    }

    #[test]
    fn small_graph_falls_through_to_leaf() {
        let g = grid(3, 3);
        let p = nested_dissection(&g, &OrderingOptions::default());
        assert!(p.validate());
    }

    #[test]
    fn empty_and_single() {
        let g = CsrGraph::from_edges(0, &[]);
        let p = nested_dissection(&g, &OrderingOptions::default());
        assert_eq!(p.len(), 0);
        let g1 = CsrGraph::from_edges(1, &[]);
        let p1 = nested_dissection(&g1, &OrderingOptions::default());
        assert_eq!(p1.len(), 1);
    }

    #[test]
    fn deterministic_sequential_vs_parallel() {
        let g = grid(30, 30);
        let mut o1 = OrderingOptions::default();
        o1.leaf_size = 40;
        o1.parallelism = Parallelism::Sequential;
        let p1 = nested_dissection(&g, &o1);
        for t in [2usize, 4, 7] {
            let mut o2 = o1.clone();
            o2.parallelism = Parallelism::Threads(t);
            let p2 = nested_dissection(&g, &o2);
            assert_eq!(p1.perm(), p2.perm(), "threads={t}");
        }
    }

    #[test]
    fn warm_workspace_orders_leaves_without_allocating() {
        let g = grid(30, 30);
        // Two leaves with halos on every side, through one workspace.
        let leaves: [Vec<u32>; 2] = [(310..420).collect(), (600..640).collect()];
        let mut ws = Workspace::default();
        let mut out = leaves.clone();
        for mode in [LeafMode::HaloMinDegree, LeafMode::MinDegree] {
            for (leaf, out) in leaves.iter().zip(&mut out) {
                out.copy_from_slice(leaf);
                order_leaf(&g, out, mode, &mut ws);
            }
            let want = out.clone();
            let before = crate::alloc_count::allocations();
            for (leaf, out) in leaves.iter().zip(&mut out) {
                out.copy_from_slice(leaf);
                order_leaf(&g, out, mode, &mut ws);
            }
            assert_eq!(crate::alloc_count::allocations(), before, "{mode:?}");
            assert_eq!(out, want, "{mode:?}");
        }
    }

    #[test]
    fn pure_md_is_valid() {
        let g = grid(12, 12);
        let p = pure_min_degree(&g);
        assert!(p.validate());
    }

    #[test]
    fn disconnected_graph_ordered_fully() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (2, 3), (3, 4)]);
        let p = nested_dissection(&g, &OrderingOptions::default());
        assert!(p.validate());
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn separator_vertices_numbered_after_halves() {
        // On a 2D grid with a forced top-level split, the last-numbered
        // vertices should (mostly) form the top separator. We can't observe
        // the separator directly through the public API, but we can check
        // the ND signature: the very last vertex's neighbors in the graph
        // span both "sides" of the ordering, i.e. fill-reducing structure.
        // Weak but meaningful sanity: orderings differ from natural.
        let g = grid(16, 16);
        let p = nested_dissection(&g, &OrderingOptions { leaf_size: 16, ..Default::default() });
        assert!(p.validate());
        let natural: Vec<u32> = (0..256).collect();
        assert_ne!(p.perm(), &natural[..]);
    }
}
