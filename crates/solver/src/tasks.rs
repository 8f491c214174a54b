//! The task bodies of the numeric factorization — COMP1D, FACTOR, BDIV
//! and the BMOD pair contribution of the paper's Fig. 1 — written once.
//!
//! The three factorization drivers ([`crate::seq`], [`crate::parallel`],
//! [`crate::dynamic`]) decide *when* a task runs and *where* its data
//! lives; what a task computes is here. The one thing a body cannot know
//! is where a contribution `C −= L_r·F_cᵀ` lands — a later local panel,
//! a per-task region or an outgoing AUB, a shared panel under its lock —
//! so the bodies are generic over a [`ContribSink`], the driver's answer
//! to exactly that question.

use crate::storage::PanelLayout;
use pastix_kernels::dense::copy_panel;
use pastix_kernels::factor::{ldlt_factor_blocked, ldlt_factor_inplace, FactorError, NB_FACTOR};
use pastix_kernels::{
    blocking_for, gemm_nt_acc, gemm_nt_scatter, kernel_mode, pack_a_slabs, prefetch_write, scale_cols_by_diag_into,
    trsm_ldlt_panel, KernelMode, Scalar,
};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{ClockMode, TraceOptions};
use std::ops::Range;
use std::time::Instant;

/// Where the contributions of a column block go. A driver implements
/// the two `with_*` methods, which only expose destination windows; the
/// numeric work on them is the provided methods'.
pub(crate) trait ContribSink<T: Scalar> {
    /// Calls `apply(c, ldc)` once, `c` starting at the first entry of the
    /// `h_br × h_bc` window (leading dimension `ldc`) that receives the
    /// contribution of off-diagonal blok pair `(br, bc)`, `br ≥ bc`, of
    /// the column block being eliminated — see
    /// [`pair_target`](crate::storage::pair_target).
    fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize));

    /// The windows of the strip of pivot blok `bc` against the row blocks
    /// `bc..end` (`end` the column block's `blok_end`): calls
    /// `apply(br0, offs, c, ldc)` once per stretch of row blocks
    /// `br0..br0 + offs.len()` that share a region, in order — the whole
    /// strip for a panel or a 1D task's region, one covering blok of a 2D
    /// target's regions. `c`, `ldc` are [`Self::with_target`]'s for pair
    /// `(br0, bc)`; row block `br0 + i` starts `offs[i]` rows below `c`.
    /// `apply` returns the number of pairs it delivered into the stretch.
    /// [`strip_stretches`](crate::storage::strip_stretches) fills `offs`,
    /// the caller's buffer, finding the target column block once a strip.
    fn with_strip(&mut self, bc: usize, end: usize, offs: &mut Vec<usize>, apply: impl StretchFn<T>);

    /// `C −= A·Bᵀ` for pair `(br, bc)`: `A` the `hr × w` rows blok at `a`
    /// (leading dimension `lda`), `B` the `hc × w` pivot blok in its
    /// `F = L·D` form at `b` (leading dimension `ldb`).
    #[allow(clippy::too_many_arguments)]
    fn pair(&mut self, br: usize, bc: usize, hr: usize, hc: usize, w: usize, a: &[T], lda: usize, b: &[T], ldb: usize) {
        self.with_target(br, bc, |c, ldc| gemm_nt_acc(hr, hc, w, -T::one(), a, lda, b, ldb, c, ldc));
    }

    /// `C += U` for the pairs `(br, bc)`, `bc ∈ g`, `bc ≤ br < end`, of a
    /// group `g` of consecutive pivot bloks whose strips face one column
    /// block. `u` holds the strips `U_bc = −L_{bc..}·F_bcᵀ` one after the
    /// other, each with its rows `bc..end` as leading dimension. One
    /// [`Self::with_strip`] walk of the group's first blok finds every
    /// window: a row block lands on the same target rows whichever pivot
    /// blok of the group it pairs with, and pivot blok `bc`'s columns sit
    /// `frow(bc) − frow(g.start)` columns to the right. Per stretch, `rows`
    /// maps the strip's rows to target rows, so a column of a pivot blok
    /// is one loop over all its rows, not one per row block; the first
    /// line of each row block's window is prefetched before the adds.
    fn add_group(
        &mut self,
        sym: &SymbolMatrix,
        g: Range<usize>,
        end: usize,
        u: &[T],
        offs: &mut Vec<usize>,
        rows: &mut Vec<usize>,
    ) {
        let bloks = &sym.bloks;
        let below: usize = bloks[g.start..end].iter().map(|b| b.nrows()).sum();
        let mut above = 0; // rows of the strip above the stretch
        self.with_strip(g.start, end, offs, |br0, offs, c, ldc| {
            rows.clear();
            for (br, &off) in (br0..).zip(offs) {
                rows.extend(off..off + bloks[br].nrows());
            }
            let stop = br0 + offs.len();
            let mut pairs = 0;
            // `U_bc` starts at `u[base]` and `top` rows of the strip lie
            // above `bc`; its first row block here is `first`, whose rows
            // start at `rows[skip]`.
            let (mut base, mut top, mut first, mut skip) = (0, 0, br0, 0);
            for bc in g.clone().take_while(|&bc| bc < stop) {
                while first < bc {
                    skip += bloks[first].nrows();
                    first += 1;
                }
                let (hc, ldu) = (bloks[bc].nrows(), below - top);
                let col = (bloks[bc].frow - bloks[g.start].frow) as usize;
                pairs += (stop - first) as u32;
                for j in col..col + hc {
                    offs[first - br0..].iter().for_each(|&o| prefetch_write(&c[o + j * ldc]));
                }
                let (rows, u0) = (&rows[skip..], base + above + skip - top);
                for j in 0..hc {
                    let cj = &mut c[(col + j) * ldc..];
                    for (&t, &s) in rows.iter().zip(&u[u0 + j * ldu..]) {
                        cj[t] += s;
                    }
                }
                base += ldu * hc;
                top += hc;
            }
            above += rows.len();
            pairs
        });
    }
}

/// The callback of [`ContribSink::with_strip`]: `(br0, offs, c, ldc)`,
/// returning the pairs it delivered.
pub(crate) trait StretchFn<T>: FnMut(usize, &[usize], &mut [T], usize) -> u32 {}
impl<T, F: FnMut(usize, &[usize], &mut [T], usize) -> u32> StretchFn<T> for F {}

/// Nanoseconds one worker spent inside the stages of its [`comp1d`]
/// bodies; the rest of a task's span is the diagonal factor, `F = L·D`
/// and zeroing the small strips.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Comp1dNs {
    /// Panel solves against the diagonal block.
    pub(crate) trsm: u64,
    /// Strip products `U = −L_{c..}·F_cᵀ`, on the packed path with the
    /// panel's pack and the write-back into the targets.
    pub(crate) gemm: u64,
    /// Delivery of the groups of strips below the packing threshold.
    pub(crate) deliver: u64,
}

/// A lap timer over [`Comp1dNs`]; stopped (the default) it takes no time
/// and every lap is zero.
#[derive(Default)]
pub(crate) struct StageClock {
    last: Option<Instant>,
    pub(crate) ns: Comp1dNs,
}

impl StageClock {
    /// Nanoseconds since the previous lap.
    fn lap(&mut self) -> u64 {
        let Some(last) = &mut self.last else { return 0 };
        let now = Instant::now();
        let ns = (now - *last).as_nanos() as u64;
        *last = now;
        ns
    }
}

/// Work buffers of the task bodies, owned by one worker and reused across
/// its tasks.
pub(crate) struct Scratch<T> {
    /// The kernel mode of the run, read when the scratch is made.
    pub(crate) mode: KernelMode,
    /// Panel scratch of the blocked diagonal factor, then `F = L·D`.
    wbuf: Vec<T>,
    /// Compact copy of the factored diagonal block (`w × w`).
    dtmp: Vec<T>,
    /// Its diagonal `D`.
    diag: Vec<T>,
    /// The strips `−L_{c..}·F_cᵀ` of the open group below the packing
    /// threshold ([`ContribSink::add_group`]).
    ubuf: Vec<T>,
    /// The off-diagonal rows of the panel, packed once per column block.
    apack: Vec<T>,
    /// The `F_c` operand of one packed-path product.
    bpack: Vec<T>,
    /// Row map of one stretch of a strip into its target.
    rows: Vec<usize>,
    /// Row-block offsets of one stretch ([`ContribSink::with_strip`]).
    offs: Vec<usize>,
    /// Stage timers of [`comp1d`], read back by the driver at the end of
    /// the run.
    pub(crate) stages: StageClock,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        let (wbuf, dtmp, diag, ubuf, apack, bpack) = Default::default();
        let (rows, offs, stages) = Default::default();
        Self { mode: kernel_mode(), wbuf, dtmp, diag, ubuf, apack, bpack, rows, offs, stages }
    }
}

impl<T: Scalar> Scratch<T> {
    /// Scratch for a run under `trace`. The stage timers ride with
    /// wall-clock traces only: a run on the logical clock is a pure
    /// function of `(seed, policy)`, its metrics included.
    pub(crate) fn for_run(trace: &TraceOptions) -> Self {
        let timed = trace.enabled && trace.clock == ClockMode::Wall;
        Self { stages: StageClock { last: timed.then(Instant::now), ..Default::default() }, ..Self::default() }
    }

    /// Loads the factored `w × w` diagonal block at `a` (leading dimension
    /// `lda`) for the panel solves that follow ([`bdiv`], the tail of
    /// [`comp1d`]): the block usually shares a panel with the rows about
    /// to be overwritten, so it is copied out.
    pub(crate) fn load_diag(&mut self, w: usize, a: &[T], lda: usize) {
        self.dtmp.clear();
        self.dtmp.resize(w * w, T::zero());
        copy_panel(w, w, a, lda, &mut self.dtmp, w);
        self.diag.clear();
        self.diag.extend((0..w).map(|t| a[t + t * lda]));
    }
}

/// FACTOR: `L·D·Lᵀ` of the `w × w` diagonal block at `a`, in place. A zero
/// pivot is reported at its global column (`fcol` is the block's first).
/// [`KernelMode::Reference`] freezes the seed's unblocked kernel as the
/// bench harness's "before" side; every other mode runs the blocked one.
pub(crate) fn factor_diag<T: Scalar>(
    w: usize,
    a: &mut [T],
    lda: usize,
    fcol: usize,
    scratch: &mut Scratch<T>,
) -> Result<(), FactorError> {
    if scratch.mode == KernelMode::Reference {
        ldlt_factor_inplace(w, a, lda)
    } else {
        ldlt_factor_blocked(w, a, lda, NB_FACTOR, &mut scratch.wbuf)
    }
    .map_err(|e| e.at_column(fcol))
}

/// BDIV: solves the `hb` rows at `l` against the diagonal block loaded
/// into `scratch` ([`Scratch::load_diag`]), in place, and writes their
/// contribution form `F = L·D` to `f` (leading dimension `hb`).
pub(crate) fn bdiv<T: Scalar>(
    hb: usize,
    w: usize,
    scratch: &Scratch<T>,
    l: &mut [T],
    ldl: usize,
    f: &mut [T],
) {
    trsm_ldlt_panel(hb, w, &scratch.dtmp, w, l, ldl);
    scale_cols_by_diag_into(hb, w, l, ldl, &scratch.diag, f, hb);
}

/// COMP1D of column block `k`, whose full panel is `panel`: factor the
/// diagonal block, solve the off-diagonal rows against it, and hand every
/// pair contribution `(r ≥ c)` to `sink`.
///
/// Each pivot blok `c` costs ONE product over *all* the panel rows at and
/// below it (they are contiguous in the panel). Fusing the per-pair GEMMs
/// this way turns ~B²/2 tiny products per column block into B medium ones
/// — the per-call overhead disappears and the tall strips are exactly the
/// shapes the packed path is fastest on.
/// A strip the packed path takes is written straight into its target
/// windows ([`gemm_nt_scatter`]), from the off-diagonal rows packed once
/// per column block. The others go into zeroed scratch strips, each by the
/// `gemm_nt_acc` call it would get alone; consecutive ones facing one
/// column block form a group that [`ContribSink::add_group`] delivers in
/// one walk, when the next strip leaves it.
/// [`KernelMode::Reference`] keeps the seed's one-GEMM-per-pair
/// formulation as the measured "before".
pub(crate) fn comp1d<T: Scalar, S: ContribSink<T>>(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    k: usize,
    panel: &mut [T],
    scratch: &mut Scratch<T>,
    sink: &mut S,
) -> Result<(), FactorError> {
    let cb = &sym.cblks[k];
    let w = cb.width();
    let lda = layout.panel_rows(k);
    let h = lda - w;
    factor_diag(w, panel, lda, cb.fcol as usize, scratch)?;
    if h == 0 {
        return Ok(());
    }
    scratch.load_diag(w, panel, lda);
    let Scratch { mode, wbuf, dtmp, diag, ubuf, apack, bpack, rows, offs, stages } = scratch;
    stages.lap(); // the diagonal factor is not a reported stage
    trsm_ldlt_panel(h, w, dtmp, w, &mut panel[w..], lda);
    stages.ns.trsm += stages.lap();
    // F = L_off · D.
    wbuf.clear();
    wbuf.resize(h * w, T::zero());
    scale_cols_by_diag_into(h, w, &panel[w..], lda, diag, wbuf, h);
    let seed_path = *mode == KernelMode::Reference;
    // One depth slice: each entry is one `mul_add` chain, the same bits
    // whether it is added to a zeroed strip or straight to the target.
    let one_slice = w <= blocking_for::<T>().kc;
    let packs = |b: usize| one_slice && mode.packs(lda - layout.panel_row[b] as usize, sym.bloks[b].nrows(), w);
    let mut packed = false;
    let first = cb.blok_start + 1;
    // First pivot blok of the open group, whose strips are in `ubuf`;
    // `bc` when none is open.
    let mut g0 = first;
    for bc in first..cb.blok_end {
        let hc = sym.bloks[bc].nrows();
        let a_off = layout.panel_row[bc] as usize;
        let f_c = &wbuf[a_off - w..];
        if seed_path {
            for br in bc..cb.blok_end {
                let a = &panel[layout.panel_row[br] as usize..];
                sink.pair(br, bc, sym.bloks[br].nrows(), hc, w, a, lda, f_c, h);
            }
            continue;
        }
        // U = −L_{c..} · F_cᵀ, an mbelow × hc strip.
        let mbelow = lda - a_off;
        if packs(bc) {
            // Straight into the targets, from the panel packed once.
            stages.lap();
            if !packed {
                pack_a_slabs(h, w, &panel[w..], lda, apack);
                packed = true;
            }
            let (mr, mut row) = (T::TILE.mr, a_off - w);
            sink.with_strip(bc, cb.blok_end, offs, |br0, offs, c, ldc| {
                rows.clear();
                for (br, &off) in (br0..).zip(offs) {
                    rows.extend(off..off + sym.bloks[br].nrows());
                }
                let pa = &apack[row / mr * mr * w..];
                gemm_nt_scatter(w, -T::one(), pa, row % mr, rows, hc, f_c, h, bpack, c, ldc);
                row += rows.len();
                offs.len() as u32
            });
            stages.ns.gemm += stages.lap();
            g0 = bc + 1;
            continue;
        }
        // The strip joins the open group, after its strips in `ubuf`.
        if g0 == bc {
            ubuf.clear();
        }
        let at = ubuf.len();
        ubuf.resize(at + mbelow * hc, T::zero());
        stages.lap(); // nor is zeroing the strip
        gemm_nt_acc(mbelow, hc, w, -T::one(), &panel[a_off..], lda, f_c, h, &mut ubuf[at..], mbelow);
        stages.ns.gemm += stages.lap();
        // Delivered when the next strip does not join it.
        let next = bc + 1;
        if next == cb.blok_end || packs(next) || sym.bloks[next].fcblk != sym.bloks[g0].fcblk {
            sink.add_group(sym, g0..next, cb.blok_end, ubuf, offs, rows);
            stages.ns.deliver += stages.lap();
            g0 = next;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use crate::storage::{pair_target, strip_stretches, strip_targets, FactorStorage};
    use pastix_kernels::Complex64;
    use pastix_sched::{DistStrategy, TaskKind};

    /// Applies every contribution to zeroed stand-ins of the target panels
    /// at the address `pair_target` reports, and counts the pairs the
    /// windows say they delivered. Strips come in the static driver's
    /// stretches — one per covering blok of a 2D target, the whole strip
    /// otherwise — and every row block of a stretch must sit where
    /// `pair_target` puts it.
    struct Recorder<'a, T> {
        sym: &'a SymbolMatrix,
        layout: &'a PanelLayout,
        is_2d: &'a [bool],
        panels: Vec<Vec<T>>,
        pairs: usize,
        stretches_2d: usize,
    }

    impl<'a, T: Scalar> Recorder<'a, T> {
        fn new(sym: &'a SymbolMatrix, layout: &'a PanelLayout, is_2d: &'a [bool], like: &[Vec<T>]) -> Self {
            let panels = like.iter().map(|p| vec![T::zero(); p.len()]).collect();
            Self { sym, layout, is_2d, panels, pairs: 0, stretches_2d: 0 }
        }
    }

    impl<T: Scalar> ContribSink<T> for Recorder<'_, T> {
        fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [T], usize)) {
            let t = pair_target(self.sym, self.layout, br, bc);
            self.pairs += 1;
            apply(&mut self.panels[t.cblk][t.panel_row + t.col * t.lda..], t.lda);
        }

        fn with_strip(&mut self, bc: usize, end: usize, offs: &mut Vec<usize>, mut apply: impl StretchFn<T>) {
            let (sym, layout) = (self.sym, self.layout);
            let per_blok = self.is_2d[sym.bloks[bc].fcblk as usize];
            strip_stretches(sym, layout, bc, end, per_blok, offs, |br0, offs, first| {
                for (br, &off) in (br0..).zip(offs) {
                    let t = pair_target(sym, layout, br, bc);
                    let at = (first.cblk, first.panel_row + off, first.col);
                    assert_eq!((t.cblk, t.panel_row, t.col), at, "stretch row block ({br},{bc})");
                    assert!(!per_blok || t.blok == first.blok, "2D stretch crosses a blok at ({br},{bc})");
                }
                self.stretches_2d += usize::from(per_blok);
                let panel = &mut self.panels[first.cblk][first.panel_row + first.col * first.lda..];
                self.pairs += apply(br0, offs, panel, first.lda) as usize;
            });
        }
    }

    /// Whether each column block is a 2D one (its head task a FACTOR).
    fn is_2d(graph: &pastix_sched::TaskGraph) -> Vec<bool> {
        (0..graph.split.symbol.n_cblks())
            .map(|k| matches!(graph.kinds[graph.head_task_of_cblk[k] as usize], TaskKind::Factor { .. }))
            .collect()
    }

    /// The groups [`comp1d`] delivers under `Auto` on column block `k`:
    /// maximal runs of consecutive strips below the packing threshold that
    /// face one column block.
    fn auto_groups(sym: &SymbolMatrix, layout: &PanelLayout, k: usize) -> Vec<Range<usize>> {
        let cb = &sym.cblks[k];
        let (w, lda) = (cb.width(), layout.panel_rows(k));
        let small = |b: usize| !KernelMode::Auto.packs(lda - layout.panel_row[b] as usize, sym.bloks[b].nrows(), w);
        let mut groups: Vec<Range<usize>> = Vec::new();
        for bc in (cb.blok_start + 1..cb.blok_end).filter(|&b| small(b)) {
            match groups.last_mut() {
                Some(g) if g.end == bc && sym.bloks[bc].fcblk == sym.bloks[g.start].fcblk => g.end += 1,
                _ => groups.push(bc..bc + 1),
            }
        }
        groups
    }

    #[test]
    fn comp1d_delivers_every_pair_once_at_its_pair_target() {
        let (ap, mapping) = full_setup(10, 10, 10, 4, DistStrategy::Mixed1d2d, 16);
        let (graph, sym) = (&mapping.graph, &mapping.graph.split.symbol);
        let mut st = FactorStorage::<f64>::zeros(sym);
        st.scatter(sym, &ap);
        let layout = st.layout.clone();
        // The merge walk of a strip is `pair_target`, pair by pair, on
        // every column block — 1D and 2D sources, 1D and 2D targets.
        for cb in &sym.cblks {
            for bc in cb.blok_start + 1..cb.blok_end {
                let walked: Vec<_> = strip_targets(sym, &layout, bc, cb.blok_end).collect();
                let searched: Vec<_> = (bc..cb.blok_end).map(|br| pair_target(sym, &layout, br, bc)).collect();
                assert_eq!(walked, searched, "strip of pivot blok {bc}");
            }
        }
        let is_2d = is_2d(graph);
        let pairs = |k: usize| {
            let cb = &sym.cblks[k];
            (cb.blok_start + 1..cb.blok_end).flat_map(|bc| (bc..cb.blok_end).map(move |br| (br, bc)))
        };
        let run = |k: usize, mode: KernelMode| {
            let mut panel = st.panels[k].clone();
            let mut rec = Recorder::new(sym, &layout, &is_2d, &st.panels);
            let mut scratch = Scratch::default();
            scratch.mode = mode;
            comp1d(sym, &layout, k, &mut panel, &mut scratch, &mut rec).unwrap();
            assert_eq!(rec.pairs, pairs(k).count(), "{mode:?}: the pairs delivered are the pairs of {k}");
            (panel, rec.panels, rec.stretches_2d)
        };

        // Every 1D column block, all strips fused (`Packed`) and the small
        // ones grouped in the strip buffer (`Auto`): each pair's window
        // holds −L_r·D·L_cᵀ, once, and nothing outside the windows was
        // touched.
        let (mut fused, mut stretches_2d) = (0, 0);
        // Groups of several strips, by the kind of column block they face.
        let mut grouped = [0, 0];
        for k in (0..sym.n_cblks()).filter(|&k| !is_2d[k]) {
            let cb = &sym.cblks[k];
            let (w, lda) = (cb.width(), layout.panel_rows(k));
            for mode in [KernelMode::Packed, KernelMode::Auto] {
                let (panel, mut got, s2d) = run(k, mode);
                stretches_2d += s2d;
                for (br, bc) in pairs(k) {
                    let t = pair_target(sym, &layout, br, bc);
                    let (r0, c0) = (layout.panel_row[br] as usize, layout.panel_row[bc] as usize);
                    for j in 0..sym.bloks[bc].nrows() {
                        for i in 0..sym.bloks[br].nrows() {
                            let want: f64 = (0..w)
                                .map(|p| panel[r0 + i + p * lda] * panel[p + p * lda] * panel[c0 + j + p * lda])
                                .sum();
                            let got = &mut got[t.cblk][t.panel_row + i + (t.col + j) * t.lda];
                            assert!((*got + want).abs() <= 1e-12 * want.abs().max(1.0), "{mode:?} pair ({br},{bc})");
                            *got = 0.0;
                        }
                    }
                }
                assert!(got.iter().flatten().all(|&v| v == 0.0), "{mode:?}: write outside a pair window of {k}");
            }
            let groups = auto_groups(sym, &layout, k);
            fused += cb.blok_end - cb.blok_start - 1 - groups.iter().map(|g| g.len()).sum::<usize>();
            for g in groups.iter().filter(|g| g.len() > 1) {
                grouped[usize::from(is_2d[sym.bloks[g.start].fcblk as usize])] += 1;
            }
        }
        assert!(fused > 0 && stretches_2d > 0, "{fused} fused strips, {stretches_2d} 2D stretches");
        assert!(grouped.iter().all(|&n| n > 0), "groups facing 1D and 2D targets: {grouped:?}");
    }

    /// On a column block whose strips all fall below the packing threshold
    /// and form at least three groups of two or more, the grouped delivery
    /// is the per-strip one bit for bit: a zeroed strip, `gemm_nt_acc`,
    /// and each pair added at its `pair_target`.
    fn groups_match_the_per_strip_path<T: Scalar>(value: impl Fn(usize, f64) -> T) {
        let (ap, mapping) = full_setup(10, 10, 10, 4, DistStrategy::Mixed1d2d, 16);
        let (graph, sym) = (&mapping.graph, &mapping.graph.split.symbol);
        let mut st = FactorStorage::<f64>::zeros(sym);
        st.scatter(sym, &ap);
        let layout = &st.layout;
        let is_2d = is_2d(graph);
        let k = (0..sym.n_cblks())
            .find(|&k| {
                let groups = auto_groups(sym, layout, k);
                let strips = sym.cblks[k].blok_end - sym.cblks[k].blok_start - 1;
                !is_2d[k] && groups.iter().map(|g| g.len()).sum::<usize>() == strips
                    && groups.iter().filter(|g| g.len() >= 2).count() >= 3
            })
            .expect("a column block of small strips in three groups or more");
        let panels: Vec<Vec<T>> =
            st.panels.iter().map(|p| p.iter().enumerate().map(|(i, &v)| value(i, v)).collect()).collect();

        let mut panel = panels[k].clone();
        let mut rec = Recorder::new(sym, layout, &is_2d, &panels);
        let mut scratch = Scratch::default();
        scratch.mode = KernelMode::Auto;
        comp1d(sym, layout, k, &mut panel, &mut scratch, &mut rec).unwrap();

        // The per-strip path on the solved panel.
        let cb = &sym.cblks[k];
        let (w, lda) = (cb.width(), layout.panel_rows(k));
        let h = lda - w;
        let diag: Vec<T> = (0..w).map(|t| panel[t + t * lda]).collect();
        let mut f = vec![T::zero(); h * w];
        scale_cols_by_diag_into(h, w, &panel[w..], lda, &diag, &mut f, h);
        let mut want: Vec<Vec<T>> = panels.iter().map(|p| vec![T::zero(); p.len()]).collect();
        for bc in cb.blok_start + 1..cb.blok_end {
            let (hc, a_off) = (sym.bloks[bc].nrows(), layout.panel_row[bc] as usize);
            let mbelow = lda - a_off;
            let mut u = vec![T::zero(); mbelow * hc];
            gemm_nt_acc(mbelow, hc, w, -T::one(), &panel[a_off..], lda, &f[a_off - w..], h, &mut u, mbelow);
            for br in bc..cb.blok_end {
                let t = pair_target(sym, layout, br, bc);
                let urow = layout.panel_row[br] as usize - a_off;
                for j in 0..hc {
                    for i in 0..sym.bloks[br].nrows() {
                        want[t.cblk][t.panel_row + i + (t.col + j) * t.lda] += u[urow + i + j * mbelow];
                    }
                }
            }
        }
        let bits = |p: &[Vec<T>]| p.iter().flatten().flat_map(|v| v.bit_words()).collect::<Vec<_>>();
        assert!(bits(&rec.panels) == bits(&want), "grouped delivery differs from the per-strip path on {k}");
    }

    #[test]
    fn groups_match_the_per_strip_path_bit_for_bit() {
        groups_match_the_per_strip_path::<f64>(|_, v| v);
        groups_match_the_per_strip_path::<Complex64>(|i, v| Complex64::new(v, 0.125 * v * ((i % 5) as f64 - 2.0)));
    }
}
