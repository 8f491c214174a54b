//! Multilevel graph bisection and vertex separators.
//!
//! The Scotch substitute: a classical multilevel scheme — heavy-edge
//! matching coarsening, greedy graph-growing initial bisection, boundary
//! FM refinement on the way back up — followed by vertex-separator
//! extraction from the edge cut via a König vertex cover (maximum bipartite
//! matching on the cut edges). Used by the nested dissection driver.
//!
//! All of it runs on a `BisectWorkspace`: the stack of coarse graphs,
//! the matching / visit / accumulator arrays, the partition and the König
//! scratch are buffers that grow to the largest graph they have seen and
//! are then only refilled, so the nested dissection driver (one workspace
//! per worker) pays for memory once, not once per bisection. The public
//! functions run on a workspace of their own. Nothing here depends on what
//! a buffer held before: every array is rewritten for the prefix a call
//! reads.

use pastix_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the bisection.
#[derive(Debug, Clone)]
pub struct BisectOptions {
    /// Coarsening stops below this many vertices.
    pub coarse_target: usize,
    /// Maximum accepted imbalance `max(|P0|,|P1|) / (total/2)`.
    pub imbalance: f64,
    /// FM refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed (matching order and tie-breaking).
    pub seed: u64,
}

impl Default for BisectOptions {
    fn default() -> Self {
        Self {
            coarse_target: 64,
            imbalance: 1.10,
            refine_passes: 4,
            seed: 0x5EED,
        }
    }
}

/// Result of [`vertex_separator`]: a partition of the vertices into the
/// separator and two (possibly empty) halves.
#[derive(Debug, Clone)]
pub struct SeparatorResult {
    /// 0 or 1 for the halves, 2 for the separator.
    pub side: Vec<u8>,
    /// Vertex counts per side `[|P0|, |P1|, |S|]`.
    pub counts: [usize; 3],
}

/// One level of the multilevel scheme: a weighted graph borrowed either
/// from the caller (level 0, unit weights) or from a [`Level`].
#[derive(Clone, Copy)]
struct WGraph<'a> {
    xadj: &'a [usize],
    adjncy: &'a [u32],
    /// Edge weights parallel to `adjncy`.
    ewgt: &'a [u32],
    /// Vertex weights.
    vwgt: &'a [u32],
}

impl<'a> WGraph<'a> {
    fn n(&self) -> usize {
        self.vwgt.len()
    }

    fn neighbors(&self, u: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        let row = self.xadj[u]..self.xadj[u + 1];
        self.adjncy[row.clone()].iter().copied().zip(self.ewgt[row].iter().copied())
    }
}

/// Buffers of one coarse graph and the map that produced it.
#[derive(Default)]
struct Level {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    ewgt: Vec<u32>,
    vwgt: Vec<u32>,
    /// Vertex of the next finer level → vertex of this one.
    cmap: Vec<u32>,
}

impl Level {
    fn graph(&self) -> WGraph<'_> {
        let nnz = self.xadj.last().copied().unwrap_or(0);
        WGraph { xadj: &self.xadj, adjncy: &self.adjncy[..nnz], ewgt: &self.ewgt[..nnz], vwgt: &self.vwgt }
    }
}

/// Edge weight of a vertex to the other side of the partition (`ext`)
/// and in total (`deg`). CsrGraph has no self-loops and coarse graphs drop
/// them, so every edge counts on exactly one of the two sides.
#[derive(Clone, Copy, Default)]
struct Cut {
    ext: u64,
    deg: u64,
}

/// Every buffer a bisection and a separator extraction need, reusable
/// across calls on graphs of any size (see the module docs).
#[derive(Default)]
pub(crate) struct BisectWorkspace {
    /// The unit weights of level 0: all ones, only ever extended.
    ones: Vec<u32>,
    /// Coarse graphs, finest first; entries past the current depth are
    /// spare buffers from earlier calls.
    levels: Vec<Level>,
    /// Matching partner per fine vertex (coarsening).
    match_of: Vec<u32>,
    /// Random visit order (coarsening), then the BFS queue (growing).
    queue: Vec<u32>,
    /// First-visited member of each coarse vertex.
    rep: Vec<u32>,
    /// Coarse neighbour → its slot in the row being accumulated.
    accum: Vec<u32>,
    seen: Vec<bool>,
    /// The result: 0 / 1 per vertex after [`bisect`], 2 on the separator
    /// after [`separator`].
    pub(crate) part: Vec<u8>,
    part_fine: Vec<u8>,
    /// Cut weights of `part` on the level being refined (level 0 last).
    cut_w: Vec<Cut>,
    /// Boundary vertices of side 0 and side 1.
    b0: Vec<u32>,
    b1: Vec<u32>,
    /// Vertex → its index in `b1`.
    idx1: Vec<u32>,
    /// Cut edges as a CSR from `b0` indices to `b1` indices.
    cut_ptr: Vec<usize>,
    cut: Vec<u32>,
    match0: Vec<u32>,
    match1: Vec<u32>,
    /// Augmenting-path round that last visited each `b1` index.
    round: Vec<u32>,
    reached0: Vec<bool>,
    reached1: Vec<bool>,
    stack: Vec<u32>,
}

/// Clears `v` and refills it with `n` copies of `x`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// Computes an edge bisection of `g`: returns `part[v] ∈ {0, 1}`.
pub fn edge_bisection(g: &CsrGraph, opts: &BisectOptions) -> Vec<u8> {
    let mut ws = BisectWorkspace::default();
    bisect(&mut ws, g, opts, opts.seed);
    ws.part
}

/// Multilevel edge bisection of `g` into `ws.part`; `seed` replaces
/// `opts.seed` (the nested dissection driver reseeds every node).
fn bisect(ws: &mut BisectWorkspace, g: &CsrGraph, opts: &BisectOptions, seed: u64) {
    let (n, nnz) = (g.n(), g.n_adj());
    if ws.ones.len() < n.max(nnz) {
        ws.ones.resize(n.max(nnz), 1);
    }
    let g0 = WGraph { xadj: g.xadj(), adjncy: g.adjncy(), ewgt: &ws.ones[..nnz], vwgt: &ws.ones[..n] };
    let mut rng = SmallRng::seed_from_u64(seed);

    // Down: heavy-edge matching until the graph is small or stops shrinking.
    let mut depth = 0;
    loop {
        if ws.levels.len() == depth {
            ws.levels.push(Level::default());
        }
        let (above, below) = ws.levels.split_at_mut(depth);
        let fine = above.last().map_or(g0, Level::graph);
        if fine.n() <= opts.coarse_target || depth > 64 {
            break;
        }
        let coarse = &mut below[0];
        let unit = depth == 0;
        coarsen(fine, unit, coarse, &mut ws.match_of, &mut ws.queue, &mut ws.rep, &mut ws.accum, &mut rng);
        if coarse.vwgt.len() as f64 > fine.n() as f64 * 0.95 {
            // Coarsening stalled (e.g. star graphs) — bisect this level.
            break;
        }
        depth += 1;
    }

    // Bottom: grow an initial bisection of the coarsest graph. Coarsening
    // preserves the total and the side weights, so both are computed once.
    let total = n as u64;
    let max_side = ((total as f64 / 2.0) * opts.imbalance).ceil() as u64;
    let coarsest = ws.levels[..depth].last().map_or(g0, Level::graph);
    let grown = initial_bisection(coarsest, total, &mut rng, &mut ws.part, &mut ws.seen, &mut ws.queue);
    let mut side_w = [grown, total - grown];
    refine(coarsest, &mut ws.part, &mut side_w, max_side, opts.refine_passes, &mut ws.cut_w);

    // Up: project and refine.
    for k in (0..depth).rev() {
        let fine = ws.levels[..k].last().map_or(g0, Level::graph);
        ws.part_fine.clear();
        ws.part_fine.extend(ws.levels[k].cmap.iter().map(|&c| ws.part[c as usize]));
        std::mem::swap(&mut ws.part, &mut ws.part_fine);
        refine(fine, &mut ws.part, &mut side_w, max_side, opts.refine_passes, &mut ws.cut_w);
    }
}

/// Heavy-edge matching coarsening of `fine` into the buffers of `coarse`
/// (graph and fine→coarse map). `unit` says every edge weight of `fine`
/// is 1 (level 0).
#[allow(clippy::too_many_arguments)]
fn coarsen(
    fine: WGraph,
    unit: bool,
    coarse: &mut Level,
    match_of: &mut Vec<u32>,
    visit: &mut Vec<u32>,
    rep: &mut Vec<u32>,
    accum: &mut Vec<u32>,
    rng: &mut SmallRng,
) {
    let n = fine.n();
    refill(match_of, n, u32::MAX);
    visit.clear();
    visit.extend(0..n as u32);
    // Random visiting order decorrelates the matching from the numbering.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        visit.swap(i, j);
    }
    // Every vertex is given its coarse vertex below: no need to clear.
    let cmap = &mut coarse.cmap;
    cmap.resize(n, 0);
    rep.clear();
    for &u in visit.iter() {
        let u = u as usize;
        if match_of[u] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor. With unit weights the strict `>`
        // keeps the first one, so the scan stops there.
        let unmatched = |v: u32| match_of[v as usize] == u32::MAX && v as usize != u;
        let mut best = u32::MAX;
        if unit {
            let row = &fine.adjncy[fine.xadj[u]..fine.xadj[u + 1]];
            best = row.iter().copied().find(|&v| unmatched(v)).unwrap_or(u32::MAX);
        } else {
            let mut best_w = 0u32;
            for (v, w) in fine.neighbors(u) {
                if unmatched(v) && w > best_w {
                    best = v;
                    best_w = w;
                }
            }
        }
        let c = rep.len() as u32;
        if best != u32::MAX {
            match_of[u] = best;
            match_of[best as usize] = u as u32;
            cmap[best as usize] = c;
        } else {
            match_of[u] = u as u32;
        }
        cmap[u] = c;
        rep.push(u as u32);
    }
    // Build the coarse graph by accumulating edge weights: the members of
    // coarse vertex `c` are its first-visited vertex and that vertex's
    // partner, rows merged in ascending member order.
    let nc = rep.len();
    let Level { xadj, adjncy, ewgt, vwgt, .. } = coarse;
    // The rows are written by index into arrays kept at their high-water
    // length (`xadj` says how much of them is the graph).
    if adjncy.len() < fine.adjncy.len() {
        adjncy.resize(fine.adjncy.len(), 0);
        ewgt.resize(fine.adjncy.len(), 0);
    }
    // 1 + the slot of a coarse neighbour in the row being built; anything
    // up to the row's start is left over from an earlier row.
    refill(accum, nc, 0);
    xadj.clear();
    xadj.push(0);
    vwgt.clear();
    let mut len = 0;
    for (c, &u) in rep.iter().enumerate() {
        let m = match_of[u as usize];
        let (a, b) = (u.min(m) as usize, u.max(m) as usize);
        let start = len;
        let second = (b != a).then_some(b);
        for v in std::iter::once(a).chain(second) {
            for (x, w) in fine.neighbors(v) {
                let cx = cmap[x as usize] as usize;
                if cx == c {
                    continue;
                }
                let slot = accum[cx] as usize;
                if slot <= start {
                    adjncy[len] = cx as u32;
                    ewgt[len] = w;
                    len += 1;
                    accum[cx] = len as u32;
                } else {
                    ewgt[slot - 1] += w;
                }
            }
        }
        xadj.push(len);
        vwgt.push(fine.vwgt[a] + second.map_or(0, |b| fine.vwgt[b]));
    }
}

/// Greedy graph growing from a pseudo-peripheral seed: grow region 0 until
/// it holds half the vertex weight. Writes `part` and returns the weight
/// of region 0.
fn initial_bisection(
    wg: WGraph,
    total: u64,
    rng: &mut SmallRng,
    part: &mut Vec<u8>,
    seen: &mut Vec<bool>,
    queue: &mut Vec<u32>,
) -> u64 {
    let n = wg.n();
    if n <= 1 {
        refill(part, n, 0);
        return total;
    }
    let target = total / 2;
    // BFS from a random seed to approximate a peripheral vertex.
    let seed0 = rng.gen_range(0..n);
    let far = bfs_far(wg, seed0, seen, queue);
    refill(part, n, 1);
    refill(seen, n, false);
    queue.clear();
    queue.push(far as u32);
    seen[far] = true;
    let mut grown: u64 = 0;
    let mut head = 0;
    // Disconnected graphs restart from the lowest unseen vertex.
    let mut unseen = 0;
    while grown < target {
        if head == queue.len() {
            while unseen < n && seen[unseen] {
                unseen += 1;
            }
            if unseen == n {
                break;
            }
            seen[unseen] = true;
            queue.push(unseen as u32);
        }
        let u = queue[head] as usize;
        head += 1;
        part[u] = 0;
        grown += wg.vwgt[u] as u64;
        for (v, _) in wg.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push(v);
            }
        }
    }
    grown
}

/// Last vertex a breadth-first search from `seed` reaches.
fn bfs_far(wg: WGraph, seed: usize, seen: &mut Vec<bool>, queue: &mut Vec<u32>) -> usize {
    refill(seen, wg.n(), false);
    queue.clear();
    queue.push(seed as u32);
    seen[seed] = true;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for (v, _) in wg.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push(v);
            }
        }
    }
    queue[head - 1] as usize
}

/// Boundary FM refinement: repeated single passes moving every movable
/// vertex whose move decreases the cut, with weight-balance guardrails.
/// `side_w` is the weight of each side of `part`, kept current. The cut
/// weights are counted once and then kept current move by move, so a pass
/// reads O(1) per vertex; they describe `part` on return.
fn refine(wg: WGraph, part: &mut [u8], side_w: &mut [u64; 2], max_side: u64, passes: usize, cut_w: &mut Vec<Cut>) {
    let n = wg.n();
    cut_w.clear();
    cut_w.extend((0..n).map(|v| {
        let mut cw = Cut::default();
        for (u, w) in wg.neighbors(v) {
            cw.deg += w as u64;
            if part[u as usize] != part[v] {
                cw.ext += w as u64;
            }
        }
        cw
    }));
    for _ in 0..passes {
        let mut moved_any = false;
        for v in 0..n {
            let to = 1 - part[v] as usize;
            if side_w[to] + wg.vwgt[v] as u64 > max_side {
                continue;
            }
            // Gain of the move = ext - (deg - ext) > 0; it implies ext > 0,
            // a neighbour across.
            let Cut { ext, deg } = cut_w[v];
            if 2 * ext > deg {
                flip(wg, part, side_w, cut_w, v);
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
    // Keep both sides non-empty when possible.
    if side_w[0] == 0 || side_w[1] == 0 {
        if let Some(v) = (0..n).min_by_key(|&v| wg.vwgt[v]) {
            // The side it leaves is the non-empty one: every weight is ≥ 1.
            flip(wg, part, side_w, cut_w, v);
        }
    }
}

/// Moves `v` to the other side of `part`, keeping `side_w` and the cut
/// weights of `v` and its neighbours current.
fn flip(wg: WGraph, part: &mut [u8], side_w: &mut [u64; 2], cut_w: &mut [Cut], v: usize) {
    let to = 1 - part[v];
    part[v] = to;
    let vw = wg.vwgt[v] as u64;
    side_w[1 - to as usize] -= vw;
    side_w[to as usize] += vw;
    cut_w[v].ext = cut_w[v].deg - cut_w[v].ext;
    for (u, w) in wg.neighbors(v) {
        let cu = &mut cut_w[u as usize];
        if part[u as usize] == to {
            cu.ext -= w as u64;
        } else {
            cu.ext += w as u64;
        }
    }
}

/// Computes a vertex separator of `g` from an edge bisection: the boundary
/// cut edges form a bipartite graph; a minimum vertex cover of that graph
/// (König, via maximum matching) is a vertex separator no larger than the
/// boundary of either side.
pub fn vertex_separator(g: &CsrGraph, opts: &BisectOptions) -> SeparatorResult {
    let mut ws = BisectWorkspace::default();
    let counts = separator(&mut ws, g, opts, opts.seed);
    SeparatorResult { side: ws.part, counts }
}

/// [`vertex_separator`] on a reusable workspace: the sides are left in
/// `ws.part`, the counts `[|P0|, |P1|, |S|]` returned. `seed` replaces
/// `opts.seed`.
pub(crate) fn separator(
    ws: &mut BisectWorkspace,
    g: &CsrGraph,
    opts: &BisectOptions,
    seed: u64,
) -> [usize; 3] {
    let n = g.n();
    bisect(ws, g, opts, seed);
    let BisectWorkspace {
        part, cut_w, b0, b1, idx1, cut_ptr, cut, match0, match1, round, reached0, reached1, stack, ..
    } = ws;

    // Boundary vertices on each side: the last refinement ran on `g` and
    // left its cut weights.
    b0.clear();
    b1.clear();
    refill(idx1, n, u32::MAX);
    for v in 0..n {
        let pv = part[v];
        if cut_w[v].ext > 0 {
            if pv == 0 {
                b0.push(v as u32);
            } else {
                idx1[v] = b1.len() as u32;
                b1.push(v as u32);
            }
        }
    }
    // The cut edges, from `b0` indices to `b1` indices (a side-1 neighbour
    // of a side-0 vertex is on the boundary by definition).
    cut_ptr.clear();
    cut_ptr.push(0);
    cut.clear();
    for &v in b0.iter() {
        cut.extend(g.neighbors(v as usize).iter().map(|&u| idx1[u as usize]).filter(|&j| j != u32::MAX));
        cut_ptr.push(cut.len());
    }
    max_bipartite_matching(cut_ptr, cut, b1.len(), match0, match1, round);

    // König: alternate BFS from unmatched b0 vertices; cover = (b0 not
    // reached) ∪ (b1 reached).
    refill(reached0, b0.len(), false);
    refill(reached1, b1.len(), false);
    stack.clear();
    stack.extend((0..b0.len() as u32).filter(|&i| match0[i as usize] == u32::MAX));
    for &s in stack.iter() {
        reached0[s as usize] = true;
    }
    while let Some(i) = stack.pop() {
        for &j in &cut[cut_ptr[i as usize]..cut_ptr[i as usize + 1]] {
            if !reached1[j as usize] {
                reached1[j as usize] = true;
                let m = match1[j as usize];
                if m != u32::MAX && !reached0[m as usize] {
                    reached0[m as usize] = true;
                    stack.push(m);
                }
            }
        }
    }
    for (i, &v) in b0.iter().enumerate() {
        if !reached0[i] {
            part[v as usize] = 2;
        }
    }
    for (j, &v) in b1.iter().enumerate() {
        if reached1[j] {
            part[v as usize] = 2;
        }
    }

    let mut counts = [0usize; 3];
    for &s in part.iter() {
        counts[s as usize] += 1;
    }
    counts
}

/// Hungarian-augmenting-path maximum matching on a bipartite graph in CSR
/// form: left vertex `i` is adjacent to the right-side indices
/// `adj[ptr[i]..ptr[i + 1]]`. Fills (match of left, match of right),
/// `u32::MAX` for unmatched.
fn max_bipartite_matching(
    ptr: &[usize],
    adj: &[u32],
    n1: usize,
    match0: &mut Vec<u32>,
    match1: &mut Vec<u32>,
    round: &mut Vec<u32>,
) {
    let n0 = ptr.len() - 1;
    refill(match0, n0, u32::MAX);
    refill(match1, n1, u32::MAX);
    refill(round, n1, u32::MAX);
    fn augment(
        i: usize,
        ptr: &[usize],
        adj: &[u32],
        match0: &mut [u32],
        match1: &mut [u32],
        round: &mut [u32],
        now: u32,
    ) -> bool {
        for &j in &adj[ptr[i]..ptr[i + 1]] {
            let j = j as usize;
            if round[j] == now {
                continue;
            }
            round[j] = now;
            if match1[j] == u32::MAX
                || augment(match1[j] as usize, ptr, adj, match0, match1, round, now)
            {
                match1[j] = i as u32;
                match0[i] = j as u32;
                return true;
            }
        }
        false
    }
    for i in 0..n0 {
        augment(i, ptr, adj, match0, match1, round, i as u32);
    }
}

/// Verifies that removing the separator disconnects the two sides (test
/// helper, also used by debug assertions in the ND driver).
pub fn separator_is_valid(g: &CsrGraph, side: &[u8]) -> bool {
    for v in 0..g.n() {
        if side[v] == 2 {
            continue;
        }
        for &u in g.neighbors(v) {
            if side[u as usize] != 2 && side[u as usize] != side[v] {
                return false;
            }
        }
    }
    true
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

    /// The refinement before the cut weights were kept: every pass
    /// recounts each vertex's gain from its row. [`refine`] must match it
    /// bit for bit.
    fn refine_recount(wg: WGraph, part: &mut [u8], side_w: &mut [u64; 2], max_side: u64, passes: usize) {
        let n = wg.n();
        for _ in 0..passes {
            let mut moved_any = false;
            for v in 0..n {
                let from = part[v] as usize;
                let to = 1 - from;
                if side_w[to] + wg.vwgt[v] as u64 > max_side {
                    continue;
                }
                let mut gain: i64 = 0;
                let mut has_cross = false;
                for (u, w) in wg.neighbors(v) {
                    if part[u as usize] as usize == from {
                        gain -= w as i64;
                    } else {
                        gain += w as i64;
                        has_cross = true;
                    }
                }
                if has_cross && gain > 0 {
                    part[v] = to as u8;
                    side_w[from] -= wg.vwgt[v] as u64;
                    side_w[to] += wg.vwgt[v] as u64;
                    moved_any = true;
                }
            }
            if !moved_any {
                break;
            }
        }
        if side_w[0] == 0 || side_w[1] == 0 {
            let empty = if side_w[0] == 0 { 0 } else { 1 };
            if let Some(v) = (0..n).min_by_key(|&v| wg.vwgt[v]) {
                part[v] = empty as u8;
                side_w[empty] += wg.vwgt[v] as u64;
                side_w[1 - empty] -= wg.vwgt[v] as u64;
            }
        }
    }

    /// A seeded random graph on `n` vertices (up to `4n` edge draws) with
    /// symmetric edge weights in 1..=9 and vertex weights in 1..=4.
    fn weighted(rng: &mut SmallRng, n: usize) -> (CsrGraph, Vec<u32>, Vec<u32>) {
        let m = rng.gen_range(0..=4 * n);
        let edges: Vec<(u32, u32)> = (0..m).map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32)).collect();
        let g = CsrGraph::from_edges(n, &edges);
        let w = |u: usize, v: u32| ((u.min(v as usize) * 31 + u.max(v as usize) * 17) % 9 + 1) as u32;
        let ewgt = (0..n).flat_map(|u| g.neighbors(u).iter().map(move |&v| w(u, v))).collect();
        let vwgt = (0..n).map(|_| rng.gen_range(1..=4)).collect();
        (g, ewgt, vwgt)
    }

    #[test]
    fn incremental_refine_matches_the_full_recount() {
        let mut rng = SmallRng::seed_from_u64(24);
        let mut cut_w = Vec::new();
        for case in 0..400 {
            let n = rng.gen_range(1..=120);
            let (g, ewgt, vwgt) = weighted(&mut rng, n);
            let wg = WGraph { xadj: g.xadj(), adjncy: g.adjncy(), ewgt: &ewgt, vwgt: &vwgt };
            // Every fifth partition starts with one side empty.
            let empty = (case % 5 == 0).then(|| rng.gen_range(0..2u8));
            let part: Vec<u8> = (0..n).map(|_| empty.map_or_else(|| rng.gen_range(0..2u8), |e| 1 - e)).collect();
            let total: u64 = vwgt.iter().map(|&w| w as u64).sum();
            let w0: u64 = (0..n).filter(|&v| part[v] == 0).map(|v| vwgt[v] as u64).sum();
            let imbalance: f64 = rng.gen_range(1.0..=1.5);
            let max_side = ((total as f64 / 2.0) * imbalance).ceil() as u64;
            let passes = rng.gen_range(1..=6);
            let (mut want, mut want_w) = (part.clone(), [w0, total - w0]);
            refine_recount(wg, &mut want, &mut want_w, max_side, passes);
            let (mut got, mut got_w) = (part, [w0, total - w0]);
            refine(wg, &mut got, &mut got_w, max_side, passes, &mut cut_w);
            assert_eq!((&got, got_w), (&want, want_w), "case {case}");
            // The kept cut weights describe the final partition (the
            // separator reads its boundary from them).
            for v in 0..n {
                let ext: u64 = wg.neighbors(v).filter(|&(u, _)| got[u as usize] != got[v]).map(|(_, w)| w as u64).sum();
                assert_eq!(cut_w[v].ext, ext, "case {case} vertex {v}");
            }
        }
    }

    #[test]
    fn unit_weight_matching_equals_the_weighted_scan() {
        let mut rng = SmallRng::seed_from_u64(0x1e7e1);
        for case in 0..60 {
            let n = rng.gen_range(1..=300);
            let (g, ..) = weighted(&mut rng, n);
            let ones = vec![1; g.n_adj().max(n)];
            let wg = WGraph { xadj: g.xadj(), adjncy: g.adjncy(), ewgt: &ones[..g.n_adj()], vwgt: &ones[..n] };
            let seed = rng.gen_range(0..u64::MAX);
            let coarse = |unit: bool| {
                let (mut level, mut match_of, mut visit, mut rep, mut accum) = Default::default();
                let mut rng = SmallRng::seed_from_u64(seed);
                coarsen(wg, unit, &mut level, &mut match_of, &mut visit, &mut rep, &mut accum, &mut rng);
                let c = level.graph();
                (c.xadj.to_vec(), c.adjncy.to_vec(), c.ewgt.to_vec(), c.vwgt.to_vec(), level.cmap.clone(), match_of)
            };
            assert_eq!(coarse(true), coarse(false), "case {case}");
        }
    }

    #[test]
    fn bisection_is_balanced_on_grid() {
        let g = grid(16, 16);
        let part = edge_bisection(&g, &BisectOptions::default());
        let c0 = part.iter().filter(|&&p| p == 0).count();
        let c1 = part.len() - c0;
        assert!(c0 > 0 && c1 > 0);
        let ratio = c0.max(c1) as f64 / (part.len() as f64 / 2.0);
        assert!(ratio < 1.3, "imbalance {ratio}");
    }

    #[test]
    fn separator_separates_grid() {
        let g = grid(12, 12);
        let r = vertex_separator(&g, &BisectOptions::default());
        assert!(separator_is_valid(&g, &r.side));
        assert!(r.counts[0] > 0 && r.counts[1] > 0);
        // A 12x12 grid has a natural separator of ~12 vertices; allow slack.
        assert!(r.counts[2] <= 30, "separator too fat: {}", r.counts[2]);
    }

    #[test]
    fn separator_on_path_is_tiny() {
        let n = 100;
        let g = CsrGraph::from_edges(n, &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let r = vertex_separator(&g, &BisectOptions::default());
        assert!(separator_is_valid(&g, &r.side));
        assert!(r.counts[2] <= 3, "path separator: {}", r.counts[2]);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = CsrGraph::from_edges(10, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (8, 9)]);
        let r = vertex_separator(&g, &BisectOptions::default());
        assert!(separator_is_valid(&g, &r.side));
    }

    #[test]
    fn handles_tiny_graphs() {
        for n in 1..5usize {
            let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)).collect();
            let g = CsrGraph::from_edges(n, &edges);
            let r = vertex_separator(&g, &BisectOptions::default());
            assert!(separator_is_valid(&g, &r.side));
            assert_eq!(r.counts[0] + r.counts[1] + r.counts[2], n);
        }
    }

    #[test]
    fn matching_simple() {
        // 2x2 complete bipartite: perfect matching of size 2.
        let (mut m0, mut m1, mut round) = (Vec::new(), Vec::new(), Vec::new());
        max_bipartite_matching(&[0, 2, 4], &[0, 1, 0, 1], 2, &mut m0, &mut m1, &mut round);
        assert!(m0.iter().all(|&m| m != u32::MAX));
        assert!(m1.iter().all(|&m| m != u32::MAX));
        assert_ne!(m0[0], m0[1]);
    }

    #[test]
    fn koenig_cover_smaller_than_boundary() {
        // Star across the cut: left {0}, right {1,2,3} all adjacent to 0.
        // Cover should be just vertex 0.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]);
        let r = vertex_separator(&g, &BisectOptions { seed: 3, ..Default::default() });
        assert!(separator_is_valid(&g, &r.side));
        assert!(r.counts[2] <= 2);
    }

    #[test]
    fn imbalance_bound_respected_after_refinement() {
        let g = grid(14, 14);
        for tol in [1.05f64, 1.2, 1.5] {
            let part = edge_bisection(&g, &BisectOptions { imbalance: tol, ..Default::default() });
            let c0 = part.iter().filter(|&&p| p == 0).count();
            let c1 = part.len() - c0;
            let ratio = c0.max(c1) as f64 / (part.len() as f64 / 2.0);
            // The initial growing targets half the weight; refinement must
            // not push beyond the configured tolerance by more than one
            // vertex worth of slack.
            assert!(ratio <= tol + 2.0 / part.len() as f64 * 2.0 + 0.15, "tol {tol}: ratio {ratio}");
        }
    }

    #[test]
    fn complete_graph_separator() {
        // K6: any split works; the separator must still be valid.
        let mut e = Vec::new();
        for i in 0..6u32 {
            for j in 0..i {
                e.push((i, j));
            }
        }
        let g = CsrGraph::from_edges(6, &e);
        let r = vertex_separator(&g, &BisectOptions::default());
        assert!(separator_is_valid(&g, &r.side));
    }

    #[test]
    fn reused_workspace_carries_no_state() {
        // Big, tiny, big again through one workspace: every buffer holds
        // stale data longer than the next call's graph.
        let path = CsrGraph::from_edges(7, &(0..6u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let big = grid(40, 40);
        let opts = BisectOptions::default();
        let mut ws = BisectWorkspace::default();
        for g in [&big, &path, &big] {
            let counts = separator(&mut ws, g, &opts, opts.seed);
            let fresh = vertex_separator(g, &opts);
            assert_eq!(ws.part, fresh.side);
            assert_eq!(counts, fresh.counts);
            assert!(separator_is_valid(g, &ws.part));
        }
    }

    #[test]
    fn warm_workspace_allocates_nothing() {
        let g = grid(40, 40);
        let opts = BisectOptions::default();
        let mut ws = BisectWorkspace::default();
        let first = separator(&mut ws, &g, &opts, 7);
        let before = crate::alloc_count::allocations();
        assert_eq!(separator(&mut ws, &g, &opts, 7), first);
        assert_eq!(crate::alloc_count::allocations(), before);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(10, 10);
        let a = vertex_separator(&g, &BisectOptions::default());
        let b = vertex_separator(&g, &BisectOptions::default());
        assert_eq!(a.side, b.side);
    }
}

