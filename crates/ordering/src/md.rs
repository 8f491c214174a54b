//! Quotient-graph minimum degree ordering with halo support.
//!
//! This is the "(Halo) Approximate Minimum Degree" leg of the paper's
//! ordering strategy: nested dissection handles the top of the tree and the
//! remaining subgraphs are ordered by minimum degree, *taking into account
//! the halo* — the separator vertices adjacent to the subgraph, which are
//! eliminated later and therefore contribute fill to the subgraph but must
//! never be picked as pivots (Pellegrini, Roman & Amestoy).
//!
//! The implementation uses the classical quotient-graph machinery of AMD
//! (elements absorbing elements, supervariable merging by adjacency
//! hashing, mass elimination) with *exact* external degrees rather than
//! the AMD upper bound — an accuracy/simplicity trade-off that is
//! immaterial at the subgraph sizes nested dissection leaves behind, and
//! documented as such in DESIGN.md.
//!
//! The data layout is AMD's too: every list lives in one integer arena
//! ([`Quotient::iw`]). A variable keeps the row the input gave it for good
//! — its element list grows from the front of the row, its variable list
//! shrinks towards the back, and the two never meet because a variable
//! gains the new element only when it loses the pivot or an absorbed
//! element. Element lists are appended behind the rows and compacted when
//! the arena fills. Indistinguishable variables are found with an
//! order-independent hash into intrusive buckets and compared with stamps.
//! Nothing is allocated per pivot, and a [`Quotient`] is reusable: the
//! nested dissection driver orders every leaf of a worker on one.

use pastix_graph::CsrGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering produced by [`min_degree`]: ranks for the eliminable vertices.
#[derive(Debug, Clone)]
pub struct MdOrder {
    /// `order[r] = local vertex id eliminated at rank r`; halo vertices do
    /// not appear.
    pub order: Vec<u32>,
}

/// Runs (halo) minimum degree on `g`. `is_halo[v]` marks vertices that are
/// adjacent context only: they contribute to degrees and fill but are never
/// eliminated and receive no rank. Returns the elimination order of the
/// non-halo vertices.
pub fn min_degree(g: &CsrGraph, is_halo: &[bool]) -> MdOrder {
    let n = g.n();
    assert_eq!(is_halo.len(), n);
    let mut q = Quotient::default();
    q.begin();
    for v in 0..n {
        q.push_row(g.neighbors(v).iter().copied(), is_halo[v]);
    }
    let mut order = Vec::with_capacity(is_halo.iter().filter(|&&h| !h).count());
    q.order(|v| order.push(v));
    MdOrder { order }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Still a variable (possibly a supervariable principal).
    Variable,
    /// Eliminated: now an element of the quotient graph.
    Element,
    /// Absorbed into another supervariable or element; inert.
    Dead,
}

const NONE: u32 = u32::MAX;

/// One vertex of the quotient graph. `iw[start..end]` is the row of a
/// variable — `elen` adjacent elements at the front, `vlen` adjacent
/// variables at the back — or the whole variable list of an element.
struct Node {
    state: State,
    is_halo: bool,
    /// Supervariable weight (number of original vertices represented).
    weight: u32,
    /// Next vertex absorbed into this supervariable (intrusive list), and
    /// the last one of the chain.
    sv_next: u32,
    sv_tail: u32,
    /// External degree (sum of weights of distinct adjacent variables,
    /// through both plain edges and elements). Not kept for halo vertices.
    degree: u32,
    start: usize,
    end: usize,
    elen: usize,
    vlen: usize,
    /// Visit stamp for set unions and comparisons.
    stamp: u64,
    /// Adjacency hash and bucket chain of the current pivot's candidates.
    hash: u64,
    bucket_next: u32,
}

impl Node {
    /// Arena positions of a variable's adjacent elements, then variables.
    fn row(&self) -> impl Iterator<Item = usize> {
        (self.start..self.start + self.elen).chain(self.end - self.vlen..self.end)
    }
}

/// The quotient graph and every scratch array of the elimination: load
/// rows with [`Quotient::begin`] / [`Quotient::push_row`], then
/// [`Quotient::order`]. Reusable; buffers keep their capacity.
#[derive(Default)]
pub(crate) struct Quotient {
    nodes: Vec<Node>,
    /// The arena: input rows first, element lists appended behind them.
    iw: Vec<u32>,
    /// Where the rows end and the element lists begin, and the arena
    /// length at which the lists are compacted before another is added.
    rows_end: usize,
    limit: usize,
    /// Elements with a list behind the rows, in arena order.
    elems: Vec<u32>,
    /// The variables of the element being formed.
    lp: Vec<u32>,
    bucket_head: Vec<u32>,
    /// Lazy min-heap of (degree, vertex). Stale entries are skipped on pop.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    cur_stamp: u64,
    #[cfg(test)]
    compactions: usize,
}

impl Quotient {
    /// Starts a new graph (vertices are numbered in `push_row` order).
    pub(crate) fn begin(&mut self) {
        self.nodes.clear();
        self.iw.clear();
        self.elems.clear();
        self.cur_stamp = 0;
    }

    /// Appends the next vertex with its neighbours (no duplicates, no self
    /// loop; symmetric over the whole graph).
    pub(crate) fn push_row(&mut self, neighbors: impl Iterator<Item = u32>, is_halo: bool) {
        let start = self.iw.len();
        self.iw.extend(neighbors);
        let end = self.iw.len();
        let v = self.nodes.len() as u32;
        self.nodes.push(Node {
            state: State::Variable,
            is_halo,
            weight: 1,
            sv_next: NONE,
            sv_tail: v,
            degree: (end - start) as u32,
            start,
            end,
            elen: 0,
            vlen: end - start,
            stamp: 0,
            hash: 0,
            bucket_next: NONE,
        });
    }

    /// Eliminates every non-halo vertex, calling `emit` with each in
    /// elimination order.
    pub(crate) fn order(&mut self, emit: impl FnMut(u32)) {
        // As much room for element lists as the rows take: the live ones
        // never outgrow the rows they replace, so the arena compacts now
        // and then and does not have to grow.
        self.order_in(self.iw.len(), emit);
    }

    /// [`Quotient::order`] with `room` arena entries for element lists
    /// before the arena is compacted.
    fn order_in(&mut self, room: usize, mut emit: impl FnMut(u32)) {
        let n = self.nodes.len();
        self.rows_end = self.iw.len();
        self.limit = self.rows_end + room;
        self.bucket_head.clear();
        self.bucket_head.resize(n, NONE);
        self.heap.clear();
        let mut left = 0;
        for (v, node) in self.nodes.iter().enumerate() {
            if !node.is_halo {
                self.heap.push(Reverse((node.degree, v as u32)));
                left += 1;
            }
        }
        while left > 0 {
            let p = loop {
                let Reverse((d, v)) = self.heap.pop().expect("heap exhausted before ordering finished");
                let node = &self.nodes[v as usize];
                if node.state == State::Variable && !node.is_halo && node.degree == d {
                    break v;
                }
            };
            // The supervariable p: p and everything absorbed into it get
            // consecutive ranks.
            let mut v = p;
            while v != NONE {
                emit(v);
                left -= 1;
                v = self.nodes[v as usize].sv_next;
            }
            self.eliminate(p as usize);
            // The new element lists the variables whose degrees changed.
            let p = &self.nodes[p as usize];
            for &v in &self.iw[p.start..p.end] {
                let node = &self.nodes[v as usize];
                if node.state == State::Variable && !node.is_halo {
                    self.heap.push(Reverse((node.degree, v)));
                }
            }
        }
    }

    fn bump_stamp(&mut self) -> u64 {
        self.cur_stamp += 1;
        self.cur_stamp
    }

    /// Eliminates variable `p`, forming a new element whose list is the
    /// set of variables whose degrees changed.
    fn eliminate(&mut self, p: usize) {
        debug_assert_eq!(self.nodes[p].state, State::Variable);
        // Gather L_p = (A_p ∪ ⋃_{e ∋ p} L_e) \ {p}: the variables of the
        // new element.
        let s = self.bump_stamp();
        self.nodes[p].stamp = s;
        self.lp.clear();
        let Node { start, end, elen, vlen, .. } = self.nodes[p];
        for i in end - vlen..end {
            self.gather(self.iw[i], s);
        }
        for i in start..start + elen {
            let e = self.iw[i] as usize;
            for k in self.nodes[e].start..self.nodes[e].end {
                self.gather(self.iw[k], s);
            }
            // Element absorption: e disappears into the new element p.
            self.nodes[e].end = self.nodes[e].start;
            self.nodes[e].state = State::Dead;
        }
        if self.iw.len() + self.lp.len() > self.limit {
            self.compact();
            self.limit = self.limit.max(self.iw.len() + self.lp.len());
        }
        let node = &mut self.nodes[p];
        node.state = State::Element;
        node.start = self.iw.len();
        node.end = node.start + self.lp.len();
        self.iw.extend_from_slice(&self.lp);
        self.elems.push(p as u32);

        // Update each variable in L_p: remove absorbed elements and p from
        // its lists, attach the new element.
        for i in 0..self.lp.len() {
            let v = self.lp[i] as usize;
            let Node { start, end, elen, vlen, .. } = self.nodes[v];
            // Prune the variable list of p and of fellow L_p members (those
            // edges are now covered by the element) — keeping lists short
            // is what makes the quotient graph efficient. Survivors slide
            // to the back of the row, in order.
            let mut w = end;
            for r in (end - vlen..end).rev() {
                let u = self.iw[r];
                if self.nodes[u as usize].state == State::Variable && self.nodes[u as usize].stamp != s {
                    w -= 1;
                    self.iw[w] = u;
                }
            }
            let vars_from = w;
            let mut w = start;
            for r in start..start + elen {
                let e = self.iw[r];
                if self.nodes[e as usize].state == State::Element {
                    self.iw[w] = e;
                    w += 1;
                }
            }
            // v lost p or an absorbed element, unless the input was not
            // symmetric.
            assert!(w < vars_from, "min_degree: adjacency of {v} is not symmetric");
            self.iw[w] = p as u32;
            self.nodes[v].elen = w + 1 - start;
            self.nodes[v].vlen = end - vars_from;
        }

        self.merge_supervariables();

        // Exact external degrees for the surviving members of L_p (a halo
        // vertex is never a pivot and its degree is never read).
        for i in 0..self.lp.len() {
            let v = self.lp[i] as usize;
            if self.nodes[v].state == State::Variable && !self.nodes[v].is_halo {
                self.nodes[v].degree = self.exact_degree(v);
            }
        }
    }

    /// Adds `v` to L_p unless it is there, or not a variable.
    fn gather(&mut self, v: u32, s: u64) {
        let node = &mut self.nodes[v as usize];
        if node.state == State::Variable && node.stamp != s {
            node.stamp = s;
            self.lp.push(v);
        }
    }

    /// Slides the live element lists down over the dead ones.
    fn compact(&mut self) {
        #[cfg(test)]
        {
            self.compactions += 1;
        }
        let mut w = self.rows_end;
        let nodes = &mut self.nodes;
        let iw = &mut self.iw;
        self.elems.retain(|&e| {
            let node = &mut nodes[e as usize];
            let len = node.end - node.start;
            if len == 0 {
                return false;
            }
            iw.copy_within(node.start..node.end, w);
            node.start = w;
            node.end = w + len;
            w += len;
            true
        });
        self.iw.truncate(w);
    }

    /// Exact external degree of `v`: total weight of distinct variables
    /// reachable through plain edges or shared elements.
    fn exact_degree(&mut self, v: usize) -> u32 {
        let s = self.bump_stamp();
        self.nodes[v].stamp = s;
        let Node { start, end, elen, vlen, .. } = self.nodes[v];
        let mut d = 0u32;
        let mut visit = |nodes: &mut [Node], u: u32| {
            let u = &mut nodes[u as usize];
            if u.state == State::Variable && u.stamp != s {
                u.stamp = s;
                d += u.weight;
            }
        };
        for i in end - vlen..end {
            visit(&mut self.nodes, self.iw[i]);
        }
        for i in start..start + elen {
            let e = &self.nodes[self.iw[i] as usize];
            for k in e.start..e.end {
                visit(&mut self.nodes, self.iw[k]);
            }
        }
        d
    }

    /// Merges indistinguishable variables of L_p (same element list and
    /// same variable adjacency ⇒ identical future fill) into the first of
    /// them in L_p order. Halo and non-halo variables are never merged
    /// together. The lists were pruned a moment ago, so they hold live
    /// elements and variables outside L_p only, each once.
    fn merge_supervariables(&mut self) {
        let nb = self.bucket_head.len() as u64;
        for i in 0..self.lp.len() {
            let v = self.lp[i];
            let is_halo = self.nodes[v as usize].is_halo;
            // Order-independent: a sum of scrambled ids.
            let mut h = 0u64;
            for i in self.nodes[v as usize].row() {
                h = h.wrapping_add((self.iw[i] as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            self.nodes[v as usize].hash = h;
            let bucket = ((h ^ h >> 32) % nb) as usize;
            // Hash collisions must not corrupt the ordering: equal hashes
            // only nominate, the stamped comparison decides.
            let mut r = self.bucket_head[bucket];
            while r != NONE {
                let rep = &self.nodes[r as usize];
                if rep.hash == h && rep.is_halo == is_halo && self.same_lists(r as usize, v as usize) {
                    break;
                }
                r = self.nodes[r as usize].bucket_next;
            }
            if r != NONE {
                self.absorb(r as usize, v as usize);
            } else {
                self.nodes[v as usize].bucket_next = self.bucket_head[bucket];
                self.bucket_head[bucket] = v;
            }
        }
        for &v in &self.lp {
            let h = self.nodes[v as usize].hash;
            self.bucket_head[((h ^ h >> 32) % nb) as usize] = NONE;
        }
    }

    /// True when `a` and `b` have identical element lists and identical
    /// variable lists (as sets).
    fn same_lists(&mut self, a: usize, b: usize) -> bool {
        let (na, nb) = (&self.nodes[a], &self.nodes[b]);
        if na.elen != nb.elen || na.vlen != nb.vlen {
            return false;
        }
        let (row_a, mut row_b) = (na.row(), nb.row());
        let s = self.bump_stamp();
        for i in row_a {
            self.nodes[self.iw[i] as usize].stamp = s;
        }
        row_b.all(|i| self.nodes[self.iw[i] as usize].stamp == s)
    }

    /// Absorbs supervariable `b` into `a`.
    fn absorb(&mut self, a: usize, b: usize) {
        debug_assert_eq!(self.nodes[b].state, State::Variable);
        self.nodes[a].weight += self.nodes[b].weight;
        // Append b's chain to a's chain.
        let tail = self.nodes[a].sv_tail as usize;
        self.nodes[tail].sv_next = b as u32;
        self.nodes[a].sv_tail = self.nodes[b].sv_tail;
        let b = &mut self.nodes[b];
        b.state = State::Dead;
        b.elen = 0;
        b.vlen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::CsrGraph;

    fn path(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

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

    fn assert_is_permutation(order: &[u32], n: usize, halo: &[bool]) {
        let n_elim = halo.iter().filter(|&&h| !h).count();
        assert_eq!(order.len(), n_elim);
        let mut seen = vec![false; n];
        for &v in order {
            assert!(!seen[v as usize], "duplicate {v}");
            assert!(!halo[v as usize], "halo vertex {v} was ordered");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn orders_path_completely() {
        let g = path(10);
        let halo = vec![false; 10];
        let o = min_degree(&g, &halo);
        assert_is_permutation(&o.order, 10, &halo);
        // On a path, minimum degree should not eliminate an interior vertex
        // before its neighbors make it degree-1 — first pivot has degree 1.
        let first = o.order[0] as usize;
        assert!(g.degree(first) == 1);
    }

    #[test]
    fn orders_grid_completely() {
        let g = grid(7, 6);
        let halo = vec![false; 42];
        let o = min_degree(&g, &halo);
        assert_is_permutation(&o.order, 42, &halo);
    }

    #[test]
    fn halo_vertices_excluded_but_counted() {
        // Star: center 0 connected to 1..=4; mark 0 as halo. All leaves have
        // degree 1 (the halo center) and can be eliminated in any order.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let halo = vec![true, false, false, false, false];
        let o = min_degree(&g, &halo);
        assert_is_permutation(&o.order, 5, &halo);
    }

    #[test]
    fn halo_raises_degree_and_changes_pivots() {
        // Path 0-1-2-3-4 with halo at 0: vertex 1 now behaves like an
        // interior vertex (degree 2), so the first pivot must be vertex 4
        // (the only true degree-1 eliminable vertex).
        let g = path(5);
        let halo = vec![true, false, false, false, false];
        let o = min_degree(&g, &halo);
        assert_eq!(o.order[0], 4);
    }

    #[test]
    fn clique_orders_all_with_mass_elimination() {
        // K5: all vertices indistinguishable; supervariable merging should
        // cause them to be emitted in one or two pivots, but all 5 appear.
        let mut e = Vec::new();
        for i in 0..5u32 {
            for j in 0..i {
                e.push((i, j));
            }
        }
        let g = CsrGraph::from_edges(5, &e);
        let halo = vec![false; 5];
        let o = min_degree(&g, &halo);
        assert_is_permutation(&o.order, 5, &halo);
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3)]);
        let halo = vec![false; 6];
        let o = min_degree(&g, &halo);
        assert_is_permutation(&o.order, 6, &halo);
    }

    #[test]
    fn all_halo_is_empty_order() {
        let g = path(4);
        let halo = vec![true; 4];
        let o = min_degree(&g, &halo);
        assert!(o.order.is_empty());
    }

    #[test]
    fn star_center_not_an_early_pivot() {
        // Star K(1,6): leaves have degree 1, center 6 — minimum degree
        // must burn through several leaves before the center's degree can
        // compete (it may legally beat the *last* leaf on a tie).
        let edges: Vec<(u32, u32)> = (1..7u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(7, &edges);
        let o = min_degree(&g, &[false; 7]);
        let pos = o.order.iter().position(|&v| v == 0).unwrap();
        assert!(pos >= 4, "center eliminated at position {pos}");
    }

    #[test]
    fn two_cliques_bridge_is_perfect_first_pivot() {
        // Two K4s joined by a degree-2 bridge vertex: the bridge has the
        // global minimum degree, so MD eliminates it first — and that is
        // the right call (fill = one edge between the cliques). Verify it
        // happens and the ordering stays complete.
        let mut e = Vec::new();
        for i in 0..4u32 {
            for j in 0..i {
                e.push((i, j));
                e.push((i + 5, j + 5));
            }
        }
        e.push((3, 4));
        e.push((4, 5));
        let g = CsrGraph::from_edges(9, &e);
        let o = min_degree(&g, &[false; 9]);
        assert_eq!(o.order[0], 4, "the degree-2 bridge is the minimum");
        assert_eq!(o.order.len(), 9);
    }

    /// Loads `g` into `q` (no halo) and returns the order `run` produces.
    fn order_with(q: &mut Quotient, g: &CsrGraph, halo: &[bool], room: Option<usize>) -> Vec<u32> {
        q.begin();
        for v in 0..g.n() {
            q.push_row(g.neighbors(v).iter().copied(), halo[v]);
        }
        let mut order = Vec::new();
        match room {
            Some(room) => q.order_in(room, |v| order.push(v)),
            None => q.order(|v| order.push(v)),
        }
        order
    }

    #[test]
    fn small_arena_compacts_and_orders_the_same() {
        let g = grid(12, 11);
        let halo: Vec<bool> = (0..g.n()).map(|v| v % 9 == 4).collect();
        let want = min_degree(&g, &halo).order;
        let mut q = Quotient::default();
        assert_eq!(order_with(&mut q, &g, &halo, None), want);
        let roomy = q.compactions;
        // Room for almost nothing: compaction runs again and again, and
        // the arena grows when even the live lists do not fit.
        assert_eq!(order_with(&mut q, &g, &halo, Some(8)), want);
        assert!(q.compactions > roomy + 10, "compactions: {roomy} then {}", q.compactions);
    }

    #[test]
    fn reused_quotient_carries_no_state() {
        // Big, tiny, big again, with different halos, through one arena.
        let (big, tiny) = (grid(10, 10), path(5));
        let halo_big: Vec<bool> = (0..100).map(|v| v % 10 == 0).collect();
        let halo_tiny = vec![true, false, false, false, false];
        let mut q = Quotient::default();
        for (g, halo) in [(&big, &halo_big), (&tiny, &halo_tiny), (&big, &halo_big)] {
            let order = order_with(&mut q, g, halo, None);
            assert_eq!(order, min_degree(g, halo).order);
            assert_is_permutation(&order, g.n(), halo);
        }
    }

    #[test]
    fn warm_quotient_allocates_nothing() {
        let g = grid(15, 15);
        let halo: Vec<bool> = (0..g.n()).map(|v| v % 15 == 14).collect();
        let mut q = Quotient::default();
        let mut order = Vec::with_capacity(g.n());
        let run = |q: &mut Quotient, order: &mut Vec<u32>| {
            order.clear();
            q.begin();
            for v in 0..g.n() {
                q.push_row(g.neighbors(v).iter().copied(), halo[v]);
            }
            q.order(|v| order.push(v));
        };
        run(&mut q, &mut order);
        let before = crate::alloc_count::allocations();
        run(&mut q, &mut order);
        assert_eq!(crate::alloc_count::allocations(), before);
    }

    #[test]
    fn deterministic() {
        let g = grid(9, 9);
        let halo = vec![false; 81];
        let a = min_degree(&g, &halo).order;
        let b = min_degree(&g, &halo).order;
        assert_eq!(a, b);
    }
}
