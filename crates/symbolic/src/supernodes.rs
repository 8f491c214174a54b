//! Supernode partition: fundamental supernode detection and relaxed
//! amalgamation.
//!
//! A supernode is a maximal range of consecutive columns sharing (modulo
//! the triangle) the same off-diagonal row structure; the factor restricted
//! to a supernode is one dense trapezoidal panel, which is what makes the
//! BLAS-3 solver possible. The *fundamental* supernodes are detected from
//! the elimination tree and the column counts; *relaxed amalgamation* then
//! merges small supernodes into their parents, trading a bounded number of
//! explicit zeros for much better block granularity — the "supernodes
//! amalgamated for each subgraph" of the paper's ordering description.

use crate::etree::NO_PARENT;

/// A partition of the columns `0..n` into supernodes of consecutive
/// columns, with the supernodal elimination tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// `ranges[s]` = first column of supernode `s`; has `n_supernodes + 1`
    /// entries, the last being `n`.
    pub ptr: Vec<u32>,
    /// Supernodal elimination tree: parent supernode or [`NO_PARENT`].
    pub parent: Vec<u32>,
    /// Rows strictly below the supernode's columns in the factor
    /// (`|L(:, first col)| − width`), exact for fundamental supernodes and
    /// kept exact through amalgamation.
    pub offrows: Vec<u64>,
}

impl SupernodePartition {
    /// Number of supernodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the partition is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// First column of supernode `s`.
    #[inline]
    pub fn first_col(&self, s: usize) -> usize {
        self.ptr[s] as usize
    }

    /// One-past-last column of supernode `s`.
    #[inline]
    pub fn end_col(&self, s: usize) -> usize {
        self.ptr[s + 1] as usize
    }

    /// Width (number of columns) of supernode `s`.
    #[inline]
    pub fn width(&self, s: usize) -> usize {
        (self.ptr[s + 1] - self.ptr[s]) as usize
    }

    /// Supernode containing column `j` (binary search).
    pub fn supernode_of(&self, j: usize) -> usize {
        match self.ptr.binary_search(&(j as u32)) {
            Ok(s) => s.min(self.len() - 1),
            Err(s) => s - 1,
        }
    }

    /// Structural validation for tests.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.ptr.first() != Some(&0) || self.ptr.last() != Some(&(n as u32)) {
            return Err("ptr must span 0..n".into());
        }
        if self.ptr.windows(2).any(|w| w[0] >= w[1]) {
            return Err("ptr must be strictly increasing".into());
        }
        if self.parent.len() + 1 != self.ptr.len() || self.offrows.len() != self.parent.len() {
            return Err("array length mismatch".into());
        }
        for (s, &p) in self.parent.iter().enumerate() {
            if p != NO_PARENT && p as usize <= s {
                return Err(format!("parent of {s} not after it"));
            }
        }
        Ok(())
    }
}

/// Detects fundamental supernodes from the scalar elimination tree and the
/// column counts (Liu): column `j` extends the supernode of `j − 1` iff
/// `parent(j−1) = j`, `count(j) = count(j−1) − 1` and `j − 1` is the only
/// child of `j` that could extend it (enforced via child counting).
pub fn fundamental_supernodes(parent: &[u32], counts: &[u64]) -> SupernodePartition {
    let n = parent.len();
    assert_eq!(counts.len(), n);
    if n == 0 {
        return SupernodePartition {
            ptr: vec![0],
            parent: Vec::new(),
            offrows: Vec::new(),
        };
    }
    // Number of etree children of each column.
    let mut n_children = vec![0u32; n];
    for &p in parent {
        if p != NO_PARENT {
            n_children[p as usize] += 1;
        }
    }
    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0u32);
    for j in 1..n {
        let extends = parent[j - 1] == j as u32
            && counts[j] == counts[j - 1] - 1
            && n_children[j] == 1;
        if !extends {
            ptr.push(j as u32);
        }
    }
    ptr.push(n as u32);

    let ns = ptr.len() - 1;
    let mut sn_of = vec![0u32; n];
    for s in 0..ns {
        for j in ptr[s]..ptr[s + 1] {
            sn_of[j as usize] = s as u32;
        }
    }
    let mut sparent = vec![NO_PARENT; ns];
    let mut offrows = vec![0u64; ns];
    for s in 0..ns {
        let last = (ptr[s + 1] - 1) as usize;
        let p = parent[last];
        if p != NO_PARENT {
            sparent[s] = sn_of[p as usize];
        }
        let first = ptr[s] as usize;
        let width = (ptr[s + 1] - ptr[s]) as u64;
        offrows[s] = counts[first] - width;
    }
    SupernodePartition {
        ptr,
        parent: sparent,
        offrows,
    }
}

/// Options for relaxed amalgamation.
#[derive(Debug, Clone, Copy)]
pub struct AmalgamationOptions {
    /// Maximum accepted ratio of explicit zeros over the merged supernode's
    /// entries (PaStiX's `rat_cblk`-style knob). The ratio is of the
    /// group's *accumulated* padding, so cascaded merges can never exceed
    /// it in total; the default is tuned for that semantics (an
    /// incremental-per-merge test at the same value merges far more).
    pub fill_ratio: f64,
    /// Supernodes narrower than this are merged into their parent whenever
    /// the fill ratio permits, even if already "efficient".
    pub min_width: usize,
}

impl Default for AmalgamationOptions {
    fn default() -> Self {
        Self {
            fill_ratio: 0.20,
            min_width: 8,
        }
    }
}

/// Relaxed amalgamation: merges a child supernode into its (etree-)parent
/// supernode when the child is **column-adjacent** to the parent's current
/// group and the explicit zeros introduced stay below `opts.fill_ratio` of
/// the merged panel.
///
/// Adjacency plus the classical structure-subset property
/// `struct(child) \ cols(child) ⊆ cols(parent) ∪ struct(parent)` make the
/// zero count exact: each child column gains
/// `(group width + group offrows) − offrows(child)` padded entries.
/// Supernodes are processed right to left so a parent group grows leftward
/// through chains of children.
///
/// The ratio test is on the *accumulated* padding of the group — every
/// zero introduced by earlier merges counts against later ones — so a
/// chain of individually-cheap merges cannot cascade into one dense
/// panel (each incremental merge looks small next to the ever-growing
/// triangle, but the total padding does not).
pub fn amalgamate(part: &SupernodePartition, opts: &AmalgamationOptions) -> SupernodePartition {
    let ns = part.len();
    if ns == 0 {
        return part.clone();
    }
    let mut absorbed_into: Vec<u32> = vec![NO_PARENT; ns];
    // Per group root: current width, first column, offrows (the root's
    // own), and the explicit zeros accumulated by merges so far.
    let mut gwidth: Vec<u64> = (0..ns).map(|s| part.width(s) as u64).collect();
    let mut gfirst: Vec<u32> = part.ptr[..ns].to_vec();
    let mut gzeros: Vec<u64> = vec![0; ns];
    let offrows: &[u64] = &part.offrows;

    let find = |absorbed: &[u32], mut s: usize| -> usize {
        while absorbed[s] != NO_PARENT {
            s = absorbed[s] as usize;
        }
        s
    };

    for s in (0..ns).rev() {
        let p = part.parent[s];
        if p == NO_PARENT {
            continue;
        }
        let root = find(&absorbed_into, p as usize);
        // The child must end exactly where the absorbing group begins.
        if part.ptr[s + 1] != gfirst[root] {
            continue;
        }
        let wc = gwidth[s]; // includes anything already merged into s
        let wg = gwidth[root];
        let target = wg + offrows[root];
        if offrows[s] > target {
            // Subset property violated (defensive; should not happen for
            // etree-parent merges) — skip to stay exact.
            continue;
        }
        let zeros = wc * (target - offrows[s]);
        let total_zeros = gzeros[root] + gzeros[s] + zeros;
        let w = wc + wg;
        let merged_entries = w * (w + 1) / 2 + w * offrows[root];
        let small_child = (wc as usize) < opts.min_width;
        let ratio_ok = merged_entries > 0
            && (total_zeros as f64) / (merged_entries as f64) <= opts.fill_ratio;
        if !(ratio_ok && (small_child || zeros == 0)) {
            continue;
        }
        absorbed_into[s] = root as u32;
        gwidth[root] = w;
        gfirst[root] = part.ptr[s].min(gfirst[s]);
        gzeros[root] = total_zeros;
    }

    // Emit boundaries where the resolved group changes (groups are
    // contiguous by the adjacency requirement).
    let mut group = vec![0u32; ns];
    for s in 0..ns {
        group[s] = find(&absorbed_into, s) as u32;
    }
    let mut ptr: Vec<u32> = Vec::with_capacity(ns + 1);
    ptr.push(0);
    let mut roots: Vec<u32> = Vec::with_capacity(ns);
    roots.push(group[0]);
    for s in 1..ns {
        if group[s] != group[s - 1] {
            ptr.push(part.ptr[s]);
            roots.push(group[s]);
        }
    }
    ptr.push(part.ptr[ns]);

    // Map old supernode → new index through its group root.
    let ns_new = roots.len();
    let mut new_of_root = vec![u32::MAX; ns];
    for (new_id, &r) in roots.iter().enumerate() {
        new_of_root[r as usize] = new_id as u32;
    }
    let mut parent = vec![NO_PARENT; ns_new];
    let mut new_offrows = vec![0u64; ns_new];
    for (new_id, &r) in roots.iter().enumerate() {
        new_offrows[new_id] = part.offrows[r as usize];
        let p = part.parent[r as usize];
        if p != NO_PARENT {
            let proot = group[p as usize] as usize;
            let pnew = new_of_root[proot];
            if pnew != new_id as u32 {
                parent[new_id] = pnew;
            }
        }
    }
    SupernodePartition {
        ptr,
        parent,
        offrows: new_offrows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{col_counts, etree};
    use pastix_graph::CsrGraph;
    use pastix_testsupport::clique_graph as dense_clique;

    #[test]
    fn clique_is_one_supernode() {
        let g = dense_clique(6);
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        assert_eq!(sn.len(), 1);
        assert_eq!(sn.width(0), 6);
        assert_eq!(sn.offrows[0], 0);
        sn.validate(6).unwrap();
    }

    #[test]
    fn path_gives_singletons_or_chains() {
        // Path graph: L is bidiagonal; every column has count 2 except the
        // last. parent(j-1)=j holds, count(j)=count(j-1)-1 fails except at
        // the end, so supernodes are singletons until the tail pair.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        sn.validate(5).unwrap();
        // Last two columns have counts 2,1 → they merge.
        assert_eq!(sn.width(sn.len() - 1), 2);
    }

    #[test]
    fn supernode_of_lookup() {
        let sn = SupernodePartition {
            ptr: vec![0, 3, 5, 9],
            parent: vec![1, 2, NO_PARENT],
            offrows: vec![2, 1, 0],
        };
        sn.validate(9).unwrap();
        assert_eq!(sn.supernode_of(0), 0);
        assert_eq!(sn.supernode_of(2), 0);
        assert_eq!(sn.supernode_of(3), 1);
        assert_eq!(sn.supernode_of(8), 2);
    }

    #[test]
    fn amalgamation_merges_singleton_chain() {
        // A chain of 1-wide supernodes with compatible structure (path
        // tail): amalgamation with a generous ratio should coarsen it.
        let g = CsrGraph::from_edges(8, &(0..7u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(
            &sn,
            &AmalgamationOptions {
                fill_ratio: 0.20,
                min_width: 4,
            },
        );
        am.validate(8).unwrap();
        assert!(am.len() < sn.len(), "no merging happened");
    }

    #[test]
    fn amalgamation_with_zero_ratio_is_identity_boundaries() {
        let g = dense_clique(4);
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        let am = amalgamate(
            &sn,
            &AmalgamationOptions {
                fill_ratio: 0.20,
                min_width: 64,
            },
        );
        assert_eq!(am.ptr, sn.ptr);
    }

    #[test]
    fn partition_covers_all_columns() {
        let g = CsrGraph::from_edges(10, &[(0, 5), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7), (6, 8), (7, 8), (8, 9)]);
        let parent = etree(&g);
        let counts = col_counts(&g, &parent);
        let sn = fundamental_supernodes(&parent, &counts);
        sn.validate(10).unwrap();
        let total: usize = (0..sn.len()).map(|s| sn.width(s)).sum();
        assert_eq!(total, 10);
    }
}
