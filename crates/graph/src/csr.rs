//! Compressed adjacency graphs.
//!
//! [`CsrGraph`] is the undirected adjacency structure the ordering phase
//! works on: symmetric, no self-loops, neighbor lists sorted. It is the
//! graph of the matrix pattern `A + Aᵀ` with the diagonal removed.

use crate::perm::Permutation;

/// Undirected graph in compressed sparse row form.
///
/// ```
/// use pastix_graph::CsrGraph;
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.n_edges(), 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
}

/// The empty graph (no vertices): the starting state of a reusable
/// [`CsrGraph::induced_subgraph_into`] output buffer.
impl Default for CsrGraph {
    fn default() -> Self {
        Self { xadj: vec![0], adjncy: Vec::new() }
    }
}

/// A reusable global→local vertex map: entries are stamped with the epoch
/// of the [`VertexMap::begin`] that wrote them, so starting a new map
/// costs nothing — the array is sized (and zeroed) once, at the first
/// `begin`, not per subgraph.
#[derive(Debug, Default)]
pub struct VertexMap {
    /// `epoch << 32 | local id`; live only while the epoch is current.
    slot: Vec<u64>,
    epoch: u32,
}

impl VertexMap {
    /// Forgets every entry and makes room for global ids below `n`.
    pub fn begin(&mut self, n: usize) {
        if self.slot.len() < n {
            // Epoch 0 is never current, so fresh zeros are empty slots.
            self.slot = vec![0; n];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped after 2³² maps: stamps of the first epochs could
            // read as current again.
            self.slot.fill(0);
            self.epoch = 1;
        }
    }

    /// Maps global vertex `g` to `local`.
    #[inline]
    pub fn set(&mut self, g: u32, local: u32) {
        self.slot[g as usize] = (self.epoch as u64) << 32 | local as u64;
    }

    /// Local id of global vertex `g`, if it was [`VertexMap::set`] since
    /// the last [`VertexMap::begin`].
    #[inline]
    pub fn get(&self, g: u32) -> Option<u32> {
        let s = self.slot[g as usize];
        ((s >> 32) as u32 == self.epoch).then_some(s as u32)
    }
}

impl CsrGraph {
    /// Builds from raw CSR arrays. Panics if the structure is malformed
    /// (unsorted neighbor lists, self-loops, asymmetry are *not* checked
    /// here — use [`CsrGraph::validate`] in tests).
    pub fn from_parts(xadj: Vec<usize>, adjncy: Vec<u32>) -> Self {
        assert!(!xadj.is_empty(), "xadj must have n+1 entries");
        assert_eq!(*xadj.last().unwrap(), adjncy.len());
        Self { xadj, adjncy }
    }

    /// Builds from an edge list (undirected; duplicates and self-loops are
    /// removed).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        let mut adjncy = vec![0u32; xadj[n]];
        let mut fill = xadj.clone();
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            adjncy[fill[u as usize]] = v;
            fill[u as usize] += 1;
            adjncy[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        // Sort and dedupe each neighbor list.
        let mut out_xadj = vec![0usize; n + 1];
        let mut out_adj = Vec::with_capacity(adjncy.len());
        for i in 0..n {
            let row = &mut adjncy[xadj[i]..xadj[i + 1]];
            row.sort_unstable();
            let mut prev = u32::MAX;
            for &v in row.iter() {
                if v != prev {
                    out_adj.push(v);
                    prev = v;
                }
            }
            out_xadj[i + 1] = out_adj.len();
        }
        Self {
            xadj: out_xadj,
            adjncy: out_adj,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of (directed) adjacency entries, i.e. twice the edge count.
    #[inline]
    pub fn n_adj(&self) -> usize {
        self.adjncy.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbor list of vertex `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.adjncy[self.xadj[u]..self.xadj[u + 1]]
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.xadj[u + 1] - self.xadj[u]
    }

    /// Raw `xadj` array (length `n + 1`).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// Full structural validation: sorted, deduplicated, loop-free,
    /// symmetric. Quadratic-ish; intended for tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        for u in 0..n {
            let nb = self.neighbors(u);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {u} not strictly sorted"));
                }
            }
            for &v in nb {
                if v as usize >= n {
                    return Err(format!("edge ({u},{v}) out of range"));
                }
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.neighbors(v as usize).binary_search(&(u as u32)).is_err() {
                    return Err(format!("edge ({u},{v}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// Renumbers the graph: vertex `new` of the result is vertex
    /// `perm[new]` of `self`.
    pub fn permuted(&self, p: &Permutation) -> CsrGraph {
        let n = self.n();
        assert_eq!(p.len(), n);
        let mut xadj = vec![0usize; n + 1];
        for new in 0..n {
            xadj[new + 1] = xadj[new] + self.degree(p.old_of(new));
        }
        let mut adjncy = vec![0u32; xadj[n]];
        for new in 0..n {
            let old = p.old_of(new);
            let dst = &mut adjncy[xadj[new]..xadj[new + 1]];
            for (d, &v) in dst.iter_mut().zip(self.neighbors(old)) {
                *d = p.new_of(v as usize) as u32;
            }
            dst.sort_unstable();
        }
        CsrGraph { xadj, adjncy }
    }

    /// Extracts the subgraph induced by `verts` (which must be sorted and
    /// unique). Returns the subgraph together with the local→global map
    /// (`verts` itself serves as that map).
    pub fn induced_subgraph(&self, verts: &[u32]) -> CsrGraph {
        let mut out = CsrGraph::default();
        self.induced_subgraph_into(verts, &mut VertexMap::default(), &mut out);
        out
    }

    /// [`CsrGraph::induced_subgraph`] for callers that extract many
    /// subgraphs of one graph (nested dissection): `map` and the arrays of
    /// `out` are reused, so a call costs the rows it reads and nothing
    /// proportional to `self.n()` once `map` has been sized.
    pub fn induced_subgraph_into(&self, verts: &[u32], map: &mut VertexMap, out: &mut CsrGraph) {
        map.begin(self.n());
        for (loc, &g) in verts.iter().enumerate() {
            map.set(g, loc as u32);
        }
        out.xadj.clear();
        out.xadj.push(0);
        out.adjncy.clear();
        for &g in verts {
            out.adjncy.extend(self.neighbors(g as usize).iter().filter_map(|&v| map.get(v)));
            out.xadj.push(out.adjncy.len());
        }
    }

    /// Connected components; returns `(component id per vertex, count)`.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut stack = Vec::new();
        let mut nc = 0u32;
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = nc;
            stack.push(s as u32);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u as usize) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = nc;
                        stack.push(v);
                    }
                }
            }
            nc += 1;
        }
        (comp, nc as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn from_edges_dedupes_and_sorts() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.n_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path(4);
        let p = Permutation::from_perm(vec![3, 1, 2, 0]);
        let h = g.permuted(&p);
        h.validate().unwrap();
        assert_eq!(h.n_edges(), g.n_edges());
        // new vertex 0 = old 3, which had one neighbor (old 2 = new 2).
        assert_eq!(h.neighbors(0), &[2]);
    }

    #[test]
    fn induced_subgraph_of_path() {
        let g = path(5);
        let sub = g.induced_subgraph(&[1, 2, 4]);
        sub.validate().unwrap();
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.neighbors(0), &[1]); // 1-2 edge survives
        assert_eq!(sub.neighbors(2), &[] as &[u32]); // 4 is isolated
    }

    #[test]
    fn reused_map_and_buffer_carry_no_state() {
        // One map, one output buffer: overlapping, disjoint and nested
        // sets, a smaller graph after a larger one and back.
        let edges: Vec<(u32, u32)> =
            (0..40u32).flat_map(|i| [(i, (i + 1) % 40), (i, (i + 7) % 40), (i, (i * 3 + 1) % 40)]).collect();
        let g = CsrGraph::from_edges(40, &edges);
        let sets: [Vec<u32>; 6] = [
            (0..30).collect(),
            (20..40).collect(),         // overlaps the first
            (0..10).collect(),          // disjoint from the second
            vec![2, 3, 5, 7],           // nested in the third, smaller
            (0..40).collect(),          // everything, larger than any before
            vec![39],
        ];
        let mut map = VertexMap::default();
        let mut sub = CsrGraph::default();
        for verts in &sets {
            g.induced_subgraph_into(verts, &mut map, &mut sub);
            assert_eq!(sub, g.induced_subgraph(verts));
            sub.validate().unwrap();
        }
        assert_eq!(g.induced_subgraph(&sets[4]), g);
    }

    #[test]
    fn vertex_map_survives_epoch_wrap() {
        let mut map = VertexMap::default();
        map.begin(4);
        map.set(1, 9);
        map.epoch = u32::MAX;
        map.set(2, 7);
        map.begin(4);
        assert_eq!((map.get(1), map.get(2)), (None, None));
        map.set(3, 5);
        assert_eq!(map.get(3), Some(5));
    }

    #[test]
    fn components() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let (comp, nc) = g.connected_components();
        assert_eq!(nc, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn validate_catches_asymmetry() {
        let g = CsrGraph::from_parts(vec![0, 1, 1], vec![1]);
        assert!(g.validate().is_err());
    }
}
