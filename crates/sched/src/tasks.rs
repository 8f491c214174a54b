//! The block-computation task graph.
//!
//! Tasks are the four types of Fig. 1 — `COMP1D(k)` for 1D-distributed
//! column blocks, and `FACTOR(k)` / `BDIV(j,k)` / `BMOD(i,j,k)` for
//! 2D-distributed ones — built over the **split** symbol matrix, each task
//! inheriting the candidate processors of the supernode it comes from.
//! Edges carry the number of scalars that must move when producer and
//! consumer land on different processors (factor panels for the intra-2D
//! dependencies, contribution blocks for the fan-in updates).

use crate::candidates::CandidateInfo;
use crate::cost::{bdiv_cost, bmod_cost, comp1d_cost, factor_cost};
use pastix_machine::MachineModel;
use pastix_symbolic::{SplitSymbol, SymbolMatrix};

/// One block computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Update and compute all contributions for a 1D column block.
    Comp1d {
        /// Column block (split symbol index).
        cblk: u32,
    },
    /// Factorize the diagonal block of a 2D column block.
    Factor {
        /// Column block.
        cblk: u32,
    },
    /// Solve one off-diagonal block against the factored diagonal.
    Bdiv {
        /// Column block.
        cblk: u32,
        /// Global blok index (within the split symbol).
        blok: u32,
    },
    /// Compute the contribution `C = L_i · F_jᵀ` of one block pair.
    Bmod {
        /// Source column block.
        cblk: u32,
        /// Global blok index of the row block (`i`).
        blok_row: u32,
        /// Global blok index of the column block (`j`), `≤ blok_row`.
        blok_col: u32,
    },
}

impl TaskKind {
    /// The column block this task belongs to.
    pub fn cblk(&self) -> u32 {
        match *self {
            TaskKind::Comp1d { cblk }
            | TaskKind::Factor { cblk }
            | TaskKind::Bdiv { cblk, .. }
            | TaskKind::Bmod { cblk, .. } => cblk,
        }
    }
}

/// The full task graph over the split symbol.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// The split symbol and its mapping to original supernodes.
    pub split: SplitSymbol,
    /// Task kinds, ids ascending with column block.
    pub kinds: Vec<TaskKind>,
    /// Model cost (seconds) per task.
    pub cost: Vec<f64>,
    /// Priority = depth of the originating supernode in the block
    /// elimination tree; *deeper (lower in the tree) runs first*.
    pub priority: Vec<u32>,
    /// Candidate processor range `[first, last]` per task.
    pub cand: Vec<(u32, u32)>,
    /// CSR of incoming edges: producers and the scalars they ship.
    pub in_ptr: Vec<u32>,
    /// Edge producers (parallel to `in_scalars`).
    pub in_src: Vec<u32>,
    /// Scalars per incoming edge.
    pub in_scalars: Vec<u32>,
    /// CSR of outgoing edges (consumer task ids).
    pub out_ptr: Vec<u32>,
    /// Edge consumers.
    pub out_dst: Vec<u32>,
    /// Per split cblk: the `Comp1d` or `Factor` task id.
    pub head_task_of_cblk: Vec<u32>,
    /// Per global blok: the `Bdiv` task id (`u32::MAX` when none).
    pub bdiv_task_of_blok: Vec<u32>,
    /// Per split cblk: first `Bmod` task id for 2D column blocks
    /// (`u32::MAX` for 1D). `BMOD` of off-block pair `(r, c)` (indices into
    /// the off-diagonal block list, `c ≤ r`) has id
    /// `bmod_base[k] + r(r+1)/2 + c`.
    pub bmod_base: Vec<u32>,
    /// Scalars of the region a task owns (used for fan-in AUB sizing).
    pub region_scalars: Vec<u64>,
}

impl TaskGraph {
    /// Number of tasks.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.kinds.len()
    }

    /// Incoming edges of task `t` as `(producer, scalars)` pairs.
    pub fn in_edges(&self, t: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.in_ptr[t] as usize;
        let hi = self.in_ptr[t + 1] as usize;
        self.in_src[lo..hi].iter().copied().zip(self.in_scalars[lo..hi].iter().copied())
    }

    /// Outgoing consumers of task `t`.
    pub fn out_edges(&self, t: usize) -> &[u32] {
        &self.out_dst[self.out_ptr[t] as usize..self.out_ptr[t + 1] as usize]
    }

    /// Total predicted work (sum of task costs).
    pub fn total_cost(&self) -> f64 {
        self.cost.iter().sum()
    }
}

/// Finds the blok of column block `k` whose row interval contains
/// `[frow, lrow]` (delegates to [`SymbolMatrix::covering_blok`]).
pub fn find_covering_blok(sym: &SymbolMatrix, k: usize, frow: u32, lrow: u32) -> usize {
    sym.covering_blok(k, frow, lrow)
}

/// Builds the task graph from a split symbol, the candidate info of the
/// original supernodes, and the machine model.
pub fn build_task_graph(
    split: SplitSymbol,
    cand_info: &CandidateInfo,
    machine: &MachineModel,
) -> TaskGraph {
    let sym = &split.symbol;
    let nsn = sym.n_cblks();
    let n_procs = machine.n_procs;

    let mut kinds: Vec<TaskKind> = Vec::new();
    let mut cost: Vec<f64> = Vec::new();
    let mut priority: Vec<u32> = Vec::new();
    let mut cand: Vec<(u32, u32)> = Vec::new();
    let mut head_task_of_cblk = vec![u32::MAX; nsn];
    let mut bdiv_task_of_blok = vec![u32::MAX; sym.bloks.len()];
    // For 2D cblks: bmod task ids per pair, indexed on the fly.
    // bmod_ids[cblk] maps (r_idx, c_idx) pair order to task id; we store
    // pair ids in row-major lower order as created.
    let mut bmod_base = vec![u32::MAX; nsn];

    for t in 0..nsn {
        let orig = split.orig_cblk[t] as usize;
        let is2d = cand_info.is_2d[orig];
        let pr = cand_info.depth[orig];
        let (cf, cl) = cand_info.proc_range(orig, n_procs);
        let offs = sym.off_bloks_of(t).len();
        if !is2d {
            head_task_of_cblk[t] = kinds.len() as u32;
            kinds.push(TaskKind::Comp1d { cblk: t as u32 });
            cost.push(comp1d_cost(sym, t, machine));
            priority.push(pr);
            cand.push((cf, cl));
        } else {
            head_task_of_cblk[t] = kinds.len() as u32;
            kinds.push(TaskKind::Factor { cblk: t as u32 });
            cost.push(factor_cost(sym, t, machine));
            priority.push(pr);
            cand.push((cf, cl));
            let blok_start = sym.cblks[t].blok_start;
            for o in 0..offs {
                let blok = (blok_start + 1 + o) as u32;
                bdiv_task_of_blok[blok as usize] = kinds.len() as u32;
                kinds.push(TaskKind::Bdiv { cblk: t as u32, blok });
                cost.push(bdiv_cost(sym, t, blok as usize, machine));
                priority.push(pr);
                cand.push((cf, cl));
            }
            bmod_base[t] = kinds.len() as u32;
            for r in 0..offs {
                for c in 0..=r {
                    let br = (blok_start + 1 + r) as u32;
                    let bc = (blok_start + 1 + c) as u32;
                    kinds.push(TaskKind::Bmod {
                        cblk: t as u32,
                        blok_row: br,
                        blok_col: bc,
                    });
                    cost.push(bmod_cost(sym, t, br as usize, bc as usize, machine));
                    priority.push(pr);
                    cand.push((cf, cl));
                }
            }
        }
    }
    let n_tasks = kinds.len();

    // Pair index helper for 2D bmods: pairs stored as r-major lower
    // triangle: id = base + r(r+1)/2 + c.
    let bmod_task = |t: usize, r: usize, c: usize| -> u32 {
        bmod_base[t] + (r * (r + 1) / 2 + c) as u32
    };

    // Edge list: (src, dst, scalars).
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for t in 0..nsn {
        let orig = split.orig_cblk[t] as usize;
        let is2d = cand_info.is_2d[orig];
        let w = sym.cblks[t].width();
        let blok_start = sym.cblks[t].blok_start;
        let offs = sym.off_bloks_of(t);
        // Intra-2D edges.
        if is2d {
            let factor_id = head_task_of_cblk[t];
            for o in 0..offs.len() {
                let bdiv_id = bdiv_task_of_blok[blok_start + 1 + o];
                edges.push((factor_id, bdiv_id, (w * w) as u32));
            }
            for r in 0..offs.len() {
                let hr = offs[r].nrows();
                for c in 0..=r {
                    let hc = offs[c].nrows();
                    let bm = bmod_task(t, r, c);
                    let bdiv_r = bdiv_task_of_blok[blok_start + 1 + r];
                    let bdiv_c = bdiv_task_of_blok[blok_start + 1 + c];
                    edges.push((bdiv_r, bm, (hr * w) as u32));
                    if c != r {
                        edges.push((bdiv_c, bm, (hc * w) as u32));
                    }
                }
            }
        }
        // Contribution edges (fan-in updates to ancestor column blocks):
        // pair (r, c), r ≥ c, updates the target cblk that blok c faces.
        let mut rows_from_c: u64 = offs.iter().map(|b| b.nrows() as u64).sum();
        for c in 0..offs.len() {
            let hc = offs[c].nrows();
            let target_cblk = offs[c].fcblk as usize;
            let target_orig = split.orig_cblk[target_cblk] as usize;
            let target_2d = cand_info.is_2d[target_orig];
            if !is2d && !target_2d {
                // 1D to 1D: every pair of block column c goes from one
                // COMP1D to one COMP1D — a single edge, clamped as the
                // saturating merge below clamps.
                let scalars = (hc as u64 * rows_from_c).min(u32::MAX as u64) as u32;
                edges.push((head_task_of_cblk[t], head_task_of_cblk[target_cblk], scalars));
            } else {
                for r in c..offs.len() {
                    let (fr, lr) = (offs[r].frow, offs[r].lrow);
                    let producer: u32 = if is2d {
                        bmod_task(t, r, c)
                    } else {
                        head_task_of_cblk[t]
                    };
                    let consumer: u32 = if !target_2d {
                        head_task_of_cblk[target_cblk]
                    } else {
                        let tb = find_covering_blok(sym, target_cblk, fr, lr);
                        if tb == sym.cblks[target_cblk].blok_start {
                            // Diagonal block of the target → FACTOR.
                            head_task_of_cblk[target_cblk]
                        } else {
                            bdiv_task_of_blok[tb]
                        }
                    };
                    edges.push((producer, consumer, (offs[r].nrows() * hc) as u32));
                }
            }
            rows_from_c -= hc as u64;
        }
    }

    // Merge duplicate (src, dst) edges, summing scalars.
    edges.sort_unstable_by_key(|&(s, d, _)| ((s as u64) << 32) | d as u64);
    let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(edges.len());
    for e in edges {
        match merged.last_mut() {
            Some(last) if last.0 == e.0 && last.1 == e.1 => {
                last.2 = last.2.saturating_add(e.2);
            }
            _ => merged.push(e),
        }
    }

    // CSR both ways.
    let mut out_ptr = vec![0u32; n_tasks + 1];
    for &(s, _, _) in &merged {
        out_ptr[s as usize + 1] += 1;
    }
    for i in 0..n_tasks {
        out_ptr[i + 1] += out_ptr[i];
    }
    let mut out_dst = vec![0u32; merged.len()];
    {
        let mut fill = out_ptr.clone();
        for &(s, d, _) in &merged {
            out_dst[fill[s as usize] as usize] = d;
            fill[s as usize] += 1;
        }
    }
    let mut in_ptr = vec![0u32; n_tasks + 1];
    for &(_, d, _) in &merged {
        in_ptr[d as usize + 1] += 1;
    }
    for i in 0..n_tasks {
        in_ptr[i + 1] += in_ptr[i];
    }
    let mut in_src = vec![0u32; merged.len()];
    let mut in_scalars = vec![0u32; merged.len()];
    {
        let mut fill = in_ptr.clone();
        for &(s, d, sc) in &merged {
            let pos = fill[d as usize] as usize;
            in_src[pos] = s;
            in_scalars[pos] = sc;
            fill[d as usize] += 1;
        }
    }

    // Region sizes for AUB statistics.
    let mut region_scalars = vec![0u64; n_tasks];
    for (tid, kind) in kinds.iter().enumerate() {
        region_scalars[tid] = match *kind {
            TaskKind::Comp1d { cblk } => {
                let w = sym.cblks[cblk as usize].width() as u64;
                let h = sym.offrows(cblk as usize) as u64;
                w * (w + h)
            }
            TaskKind::Factor { cblk } => {
                let w = sym.cblks[cblk as usize].width() as u64;
                w * w
            }
            TaskKind::Bdiv { cblk, blok } => {
                let w = sym.cblks[cblk as usize].width() as u64;
                let h = sym.bloks[blok as usize].nrows() as u64;
                w * h
            }
            TaskKind::Bmod { cblk, blok_row, blok_col } => {
                let _ = cblk;
                let hr = sym.bloks[blok_row as usize].nrows() as u64;
                let hc = sym.bloks[blok_col as usize].nrows() as u64;
                hr * hc
            }
        };
    }

    TaskGraph {
        split,
        kinds,
        cost,
        priority,
        cand,
        in_ptr,
        in_src,
        in_scalars,
        out_ptr,
        out_dst,
        head_task_of_cblk,
        bdiv_task_of_blok,
        bmod_base,
        region_scalars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{proportional_mapping, MappingOptions};
    use pastix_graph::{CsrGraph, Permutation};
    use pastix_symbolic::{analyze, split_symbol, AnalysisOptions};

    fn setup(nx: usize, procs: usize, block: usize, width2d: usize) -> (TaskGraph, MachineModel) {
        let mut e = Vec::new();
        let id = |x: usize, y: usize| (x + nx * y) as u32;
        for y in 0..nx {
            for x in 0..nx {
                if x + 1 < nx {
                    e.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < nx {
                    e.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let g = CsrGraph::from_edges(nx * nx, &e);
        let a = analyze(&g, &Permutation::identity(nx * nx), &AnalysisOptions::default());
        let machine = MachineModel::sp2(procs);
        let mopts = MappingOptions {
            procs_2d_min: 2.0,
            width_2d_min: width2d,
            ..Default::default()
        };
        let cand = proportional_mapping(&a.symbol, &machine, &mopts);
        let split = split_symbol(&a.symbol, block);
        (build_task_graph(split, &cand, &machine), machine)
    }

    #[test]
    fn dag_edges_point_forward() {
        let (tg, _) = setup(12, 4, 8, 6);
        for t in 0..tg.n_tasks() {
            for (src, _) in tg.in_edges(t) {
                assert!((src as usize) < t, "edge {src} -> {t} not forward");
            }
        }
    }

    #[test]
    fn every_cblk_has_head_task() {
        let (tg, _) = setup(10, 4, 8, 6);
        for t in 0..tg.split.symbol.n_cblks() {
            assert_ne!(tg.head_task_of_cblk[t], u32::MAX);
        }
    }

    #[test]
    fn mixed_creates_2d_tasks() {
        let (tg, _) = setup(16, 8, 4, 4);
        let has_factor = tg.kinds.iter().any(|k| matches!(k, TaskKind::Factor { .. }));
        let has_bmod = tg.kinds.iter().any(|k| matches!(k, TaskKind::Bmod { .. }));
        assert!(has_factor && has_bmod, "expected 2D task types");
    }

    #[test]
    fn only_comp1d_when_width_threshold_huge() {
        let (tg, _) = setup(12, 4, 1000, 100_000);
        assert!(tg.kinds.iter().all(|k| matches!(k, TaskKind::Comp1d { .. })));
        // One task per cblk then.
        assert_eq!(tg.n_tasks(), tg.split.symbol.n_cblks());
    }

    #[test]
    fn costs_positive() {
        let (tg, _) = setup(12, 4, 8, 6);
        assert!(tg.cost.iter().all(|&c| c > 0.0));
        assert!(tg.total_cost() > 0.0);
    }

    #[test]
    fn find_covering_blok_roundtrip() {
        let (tg, _) = setup(10, 2, 6, 8);
        let sym = &tg.split.symbol;
        for k in 0..sym.n_cblks() {
            for (o, b) in sym.bloks_of(k).iter().enumerate() {
                let found = find_covering_blok(sym, k, b.frow, b.lrow);
                assert_eq!(found, sym.cblks[k].blok_start + o);
            }
        }
    }

    #[test]
    fn bdiv_tasks_depend_on_factor() {
        let (tg, _) = setup(16, 8, 4, 4);
        for t in 0..tg.n_tasks() {
            if let TaskKind::Bdiv { cblk, .. } = tg.kinds[t] {
                let factor_id = tg.head_task_of_cblk[cblk as usize];
                assert!(
                    tg.in_edges(t).any(|(s, _)| s == factor_id),
                    "BDIV {t} missing FACTOR dep"
                );
            }
        }
    }

    #[test]
    fn bmod_tasks_depend_on_their_bdivs() {
        let (tg, _) = setup(16, 8, 4, 4);
        for t in 0..tg.n_tasks() {
            if let TaskKind::Bmod { blok_row, blok_col, .. } = tg.kinds[t] {
                let br = tg.bdiv_task_of_blok[blok_row as usize];
                let bc = tg.bdiv_task_of_blok[blok_col as usize];
                assert!(tg.in_edges(t).any(|(s, _)| s == br));
                assert!(tg.in_edges(t).any(|(s, _)| s == bc));
            }
        }
    }

    #[test]
    fn region_scalars_match_symbol_dimensions() {
        let (tg, _) = setup(16, 8, 4, 4);
        let sym = &tg.split.symbol;
        for t in 0..tg.n_tasks() {
            let expect = match tg.kinds[t] {
                TaskKind::Comp1d { cblk } => {
                    let k = cblk as usize;
                    (sym.cblks[k].width() * (sym.cblks[k].width() + sym.offrows(k))) as u64
                }
                TaskKind::Factor { cblk } => {
                    let w = sym.cblks[cblk as usize].width() as u64;
                    w * w
                }
                TaskKind::Bdiv { cblk, blok } => {
                    (sym.cblks[cblk as usize].width() * sym.bloks[blok as usize].nrows()) as u64
                }
                TaskKind::Bmod { blok_row, blok_col, .. } => {
                    (sym.bloks[blok_row as usize].nrows() * sym.bloks[blok_col as usize].nrows()) as u64
                }
            };
            assert_eq!(tg.region_scalars[t], expect, "task {t}");
        }
    }

    #[test]
    fn edges_scalars_positive() {
        let (tg, _) = setup(12, 4, 8, 6);
        for t in 0..tg.n_tasks() {
            for (_, scalars) in tg.in_edges(t) {
                assert!(scalars > 0, "zero-size edge into {t}");
            }
        }
    }

    #[test]
    fn comp1d_edges_carry_every_pair_of_their_columns() {
        // The builder emits one edge per 1D→1D block column; it must carry
        // what one edge per pair (r ≥ c) summed to.
        let is_1d =
            |tg: &TaskGraph, t: u32| matches!(tg.kinds[t as usize], TaskKind::Comp1d { .. });
        for (nx, procs, block, width2d) in [(16, 8, 4, 4), (12, 4, 8, 6), (12, 4, 1000, 100_000)] {
            let (tg, _) = setup(nx, procs, block, width2d);
            let sym = &tg.split.symbol;
            let mut want = std::collections::BTreeMap::new();
            for t in 0..sym.n_cblks() {
                let src = tg.head_task_of_cblk[t];
                let offs = sym.off_bloks_of(t);
                for c in 0..offs.len() {
                    let dst = tg.head_task_of_cblk[offs[c].fcblk as usize];
                    if is_1d(&tg, src) && is_1d(&tg, dst) {
                        let pairs: usize = offs[c..].iter().map(|r| r.nrows()).sum();
                        *want.entry((src, dst)).or_insert(0) += (pairs * offs[c].nrows()) as u32;
                    }
                }
            }
            let mut got = std::collections::BTreeMap::new();
            for d in (0..tg.n_tasks() as u32).filter(|&d| is_1d(&tg, d)) {
                for (s, scalars) in tg.in_edges(d as usize).filter(|&(s, _)| is_1d(&tg, s)) {
                    got.insert((s, d), scalars);
                }
            }
            assert_eq!(got, want, "grid {nx}, {procs} procs");
        }
    }

    #[test]
    fn leaf_tasks_have_no_deps() {
        let (tg, _) = setup(10, 4, 8, 6);
        let n_leaf = (0..tg.n_tasks())
            .filter(|&t| tg.in_ptr[t] == tg.in_ptr[t + 1])
            .count();
        assert!(n_leaf > 0, "no dependency-free tasks");
    }
}
