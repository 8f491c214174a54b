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

use crate::compress::CompressionConfig;
use crate::storage::PanelLayout;
use pastix_kernels::dense::copy_panel;
use pastix_kernels::factor::{ldlt_factor_blocked, ldlt_factor_inplace, FactorError, NB_FACTOR};
use pastix_kernels::{
    compress_block, gemm_nt_acc, kernel_mode, lr_gemm_nt_acc, lr_trsm_ldlt,
    scale_cols_by_diag_into, trsm_ldlt_panel, KernelMode, LowRankBlock, LrOp, LrRef, Scalar,
};
use pastix_symbolic::SymbolMatrix;
use pastix_trace::{ClockMode, TraceOptions};
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

    /// The windows of a whole strip: calls `apply(br, c, ldc)` for the row
    /// blocks `br` in `bc..end` (`end` the column block's `blok_end`) in
    /// order, `c` and `ldc` as [`Self::with_target`] gives them for pair
    /// `(br, bc)`. Every pair of a strip faces the same column block, so
    /// the sink finds out where that block lives once, not once per pair,
    /// and [`strip_targets`](crate::storage::strip_targets) supplies the
    /// offsets.
    fn with_strip(&mut self, bc: usize, end: usize, apply: impl FnMut(usize, &mut [T], usize));

    /// `C −= A·Bᵀ` for pair `(br, bc)`: `A` the `hr × w` rows blok, `B`
    /// the `hc × w` pivot blok in its `F = L·D` form, each dense or
    /// low-rank. Two dense operands run exactly `gemm_nt_acc`.
    #[allow(clippy::too_many_arguments)]
    fn pair(
        &mut self,
        br: usize,
        bc: usize,
        hr: usize,
        hc: usize,
        w: usize,
        a: LrOp<'_, T>,
        b: LrOp<'_, T>,
    ) {
        self.with_target(br, bc, |c, ldc| lr_gemm_nt_acc(hr, hc, w, -T::one(), a, b, c, ldc));
    }

    /// `C += U` for the pairs `(bc..end, bc)`, where `strip` (leading
    /// dimension `ld`) is the already-computed `U = −L_{c..}·F_cᵀ`, its
    /// row blocks stacked in blok order.
    fn add_strip(&mut self, sym: &SymbolMatrix, bc: usize, end: usize, strip: &[T], ld: usize) {
        let hc = sym.bloks[bc].nrows();
        let mut urow = 0;
        self.with_strip(bc, end, |br, c, ldc| {
            let hr = sym.bloks[br].nrows();
            for j in 0..hc {
                let src = &strip[urow + j * ld..][..hr];
                for (d, &s) in c[j * ldc..][..hr].iter_mut().zip(src) {
                    *d += s;
                }
            }
            urow += hr;
        });
    }
}

/// Nanoseconds one worker spent inside the stages of its [`comp1d`]
/// bodies; the rest of a task's span is the diagonal factor, `F = L·D`
/// and zeroing the strips.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Comp1dNs {
    /// Panel solves against the diagonal block.
    pub(crate) trsm: u64,
    /// Strip products `U = −L_{c..}·F_cᵀ`.
    pub(crate) gemm: u64,
    /// Delivery of the strips into their targets.
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
    /// Panel scratch of the blocked diagonal factor, then `F = L·D`.
    wbuf: Vec<T>,
    /// Compact copy of the factored diagonal block (`w × w`).
    dtmp: Vec<T>,
    /// Its diagonal `D`.
    diag: Vec<T>,
    /// One contribution strip `−L_{c..}·F_cᵀ`.
    ubuf: Vec<T>,
    /// Stage timers of [`comp1d`], read back by the driver at the end of
    /// the run.
    pub(crate) stages: StageClock,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Self { wbuf: Vec::new(), dtmp: Vec::new(), diag: Vec::new(), ubuf: Vec::new(), stages: StageClock::default() }
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
    if kernel_mode() == KernelMode::Reference {
        ldlt_factor_inplace(w, a, lda)
    } else {
        ldlt_factor_blocked(w, a, lda, NB_FACTOR, &mut scratch.wbuf)
    }
    .map_err(|FactorError::ZeroPivot(i)| FactorError::ZeroPivot(fcol + i))
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
/// With compression off, each pivot blok `c` costs ONE product over *all*
/// the panel rows at and below it (they are contiguous in the panel) into
/// a scratch strip, handed to the sink whole. Fusing the per-pair
/// GEMMs this way turns ~B²/2 tiny products per column block into B
/// medium ones — the per-call overhead disappears and the tall strips are
/// exactly the shapes the packed path is fastest on.
/// [`KernelMode::Reference`] keeps the seed's one-GEMM-per-pair
/// formulation as the measured "before". With compression on, the panel
/// is final after the diagonal factor (right-looking order), so qualifying
/// bloks compress just-in-time and each pair dispatches on representation.
///
/// Returns the compressed factor bloks of `k` keyed by global blok id
/// (empty with compression off); the un-solved rows such a blok leaves
/// behind in `panel` are dropped when the overlay is installed.
pub(crate) fn comp1d<T: Scalar, S: ContribSink<T>>(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    k: usize,
    panel: &mut [T],
    cc: &CompressionConfig,
    scratch: &mut Scratch<T>,
    sink: &mut S,
) -> Result<Vec<(usize, LowRankBlock<T>)>, FactorError> {
    let cb = &sym.cblks[k];
    let w = cb.width();
    let lda = layout.panel_rows(k);
    let h = lda - w;
    factor_diag(w, panel, lda, cb.fcol as usize, scratch)?;
    if h == 0 {
        return Ok(Vec::new());
    }
    scratch.load_diag(w, panel, lda);
    if cc.enabled() {
        return Ok(comp1d_tail_compressed(sym, layout, k, panel, cc, scratch, sink));
    }
    let Scratch { wbuf, dtmp, diag, ubuf, stages } = scratch;
    stages.lap(); // the diagonal factor is not a reported stage
    trsm_ldlt_panel(h, w, dtmp, w, &mut panel[w..], lda);
    stages.ns.trsm += stages.lap();
    // F = L_off · D.
    wbuf.clear();
    wbuf.resize(h * w, T::zero());
    scale_cols_by_diag_into(h, w, &panel[w..], lda, diag, wbuf, h);
    let seed_path = kernel_mode() == KernelMode::Reference;
    let first = cb.blok_start + 1;
    for bc in first..cb.blok_end {
        let hc = sym.bloks[bc].nrows();
        let a_off = layout.panel_row[bc] as usize;
        let f_c = &wbuf[a_off - w..];
        if seed_path {
            for br in bc..cb.blok_end {
                let a = LrOp::Dense { a: &panel[layout.panel_row[br] as usize..], ld: lda };
                sink.pair(br, bc, sym.bloks[br].nrows(), hc, w, a, LrOp::Dense { a: f_c, ld: h });
            }
            continue;
        }
        // U = −L_{c..} · F_cᵀ, an mbelow × hc strip.
        let mbelow = lda - a_off;
        ubuf.clear();
        ubuf.resize(mbelow * hc, T::zero());
        stages.lap(); // nor is zeroing the strip
        gemm_nt_acc(mbelow, hc, w, -T::one(), &panel[a_off..], lda, f_c, h, ubuf, mbelow);
        stages.ns.gemm += stages.lap();
        sink.add_strip(sym, bc, cb.blok_end, ubuf, mbelow);
        stages.ns.deliver += stages.lap();
    }
    Ok(Vec::new())
}

/// Post-diagonal steps of a compressed COMP1D: per-blok TRSM (low-rank
/// where the compressor and the strategy accept), `F = L·D` for the
/// still-dense bloks, and the pair contributions dispatched on
/// representation. The per-blok dense TRSM is bitwise-identical to the
/// whole-panel call of the uncompressed body (row-independent
/// substitution), so a run where no blok wins compression still matches
/// the per-pair dense formulation exactly.
fn comp1d_tail_compressed<T: Scalar, S: ContribSink<T>>(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    k: usize,
    panel: &mut [T],
    cc: &CompressionConfig,
    scratch: &mut Scratch<T>,
    sink: &mut S,
) -> Vec<(usize, LowRankBlock<T>)> {
    let cb = &sym.cblks[k];
    let w = cb.width();
    let lda = layout.panel_rows(k);
    let mbelow = lda - w;
    let Scratch { wbuf: fbuf, dtmp, diag, .. } = scratch;
    let first = cb.blok_start + 1;
    // Per off-diagonal blok: its compressed factor form (whose `v` carries
    // the `D⁻¹·L⁻¹` substitution) and the `V` of its `F` form.
    let mut l: Vec<Option<(LowRankBlock<T>, Vec<T>)>> = Vec::with_capacity(cb.blok_end - first);
    fbuf.clear();
    fbuf.resize(mbelow * w, T::zero());
    for b in first..cb.blok_end {
        let h = sym.bloks[b].nrows();
        let row = layout.panel_row[b] as usize;
        let lr = sym
            .blok_compressible(b, cc.min_block)
            .then(|| compress_block(h, w, &panel[row..], lda, 0.0, cc.tolerance))
            .flatten()
            .filter(|lr| cc.accepts(lr));
        l.push(match lr {
            Some(mut lr) => {
                let vf = lr_trsm_ldlt(w, dtmp, w, diag, &mut lr);
                Some((lr, vf))
            }
            None => {
                trsm_ldlt_panel(h, w, dtmp, w, &mut panel[row..], lda);
                scale_cols_by_diag_into(h, w, &panel[row..], lda, diag, &mut fbuf[row - w..], mbelow);
                None
            }
        });
    }
    // Pair contributions: pivot blok `bc` supplies B = F(bc), rows blok
    // `br ≥ bc` supplies A = L(br); the target gets C −= A·Bᵀ.
    for (c, bc) in (first..cb.blok_end).enumerate() {
        let hc = sym.bloks[bc].nrows();
        let b_op = match &l[c] {
            Some((lr, vf)) => LrOp::Lr(LrRef { m: hc, n: w, rank: lr.rank, u: &lr.u, v: vf }),
            None => LrOp::Dense { a: &fbuf[layout.panel_row[bc] as usize - w..], ld: mbelow },
        };
        for (r, br) in (first..cb.blok_end).enumerate().skip(c) {
            let a_op = match &l[r] {
                Some((lr, _)) => LrOp::Lr(lr.as_ref()),
                None => LrOp::Dense { a: &panel[layout.panel_row[br] as usize..], ld: lda },
            };
            sink.pair(br, bc, sym.bloks[br].nrows(), hc, w, a_op, b_op);
        }
    }
    (first..cb.blok_end)
        .zip(l)
        .filter_map(|(b, lr)| lr.map(|(lr, _)| (b, lr)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use crate::storage::{pair_target, strip_targets, FactorStorage};
    use pastix_sched::{DistStrategy, TaskKind};

    /// Applies every contribution to zeroed stand-ins of the target panels
    /// at the address `pair_target` reports (a strip's merge walk must
    /// report the same one), and logs the pair.
    struct Recorder<'a> {
        sym: &'a SymbolMatrix,
        layout: &'a PanelLayout,
        panels: Vec<Vec<f64>>,
        seen: Vec<(usize, usize)>,
    }

    impl ContribSink<f64> for Recorder<'_> {
        fn with_target(&mut self, br: usize, bc: usize, apply: impl FnOnce(&mut [f64], usize)) {
            let t = pair_target(self.sym, self.layout, br, bc);
            self.seen.push((br, bc));
            apply(&mut self.panels[t.cblk][t.panel_row + t.col * t.lda..], t.lda);
        }

        fn with_strip(&mut self, bc: usize, end: usize, mut apply: impl FnMut(usize, &mut [f64], usize)) {
            for (br, t) in (bc..end).zip(strip_targets(self.sym, self.layout, bc, end)) {
                assert_eq!(t, pair_target(self.sym, self.layout, br, bc), "strip walk at ({br},{bc})");
                self.seen.push((br, bc));
                apply(br, &mut self.panels[t.cblk][t.panel_row + t.col * t.lda..], t.lda);
            }
        }
    }

    #[test]
    fn comp1d_delivers_every_pair_once_at_its_pair_target() {
        let (ap, mapping) = full_setup(10, 10, 1, 4, DistStrategy::Mixed1d2d, 4);
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
        let is_2d = |k: usize| {
            matches!(graph.kinds[graph.head_task_of_cblk[k] as usize], TaskKind::Factor { .. })
        };
        // A 1D column block whose off-diagonal bloks face both kinds of target.
        let k = (0..sym.n_cblks())
            .find(|&k| {
                let faces = |want: bool| sym.off_bloks_of(k).iter().any(|b| is_2d(b.fcblk as usize) == want);
                !is_2d(k) && faces(false) && faces(true)
            })
            .expect("mixed mapping has a 1D block facing 1D and 2D targets");
        let cb = &sym.cblks[k];
        let (w, lda) = (cb.width(), layout.panel_rows(k));
        let pairs: Vec<(usize, usize)> = (cb.blok_start + 1..cb.blok_end)
            .flat_map(|bc| (bc..cb.blok_end).map(move |br| (br, bc)))
            .collect();
        let run = |cc: &CompressionConfig| {
            let mut panel = st.panels[k].clone();
            let zeroed = st.panels.iter().map(|p| vec![0.0; p.len()]).collect();
            let mut rec = Recorder { sym, layout: &layout, panels: zeroed, seen: Vec::new() };
            comp1d(sym, &layout, k, &mut panel, cc, &mut Scratch::default(), &mut rec).unwrap();
            rec.seen.sort_unstable_by_key(|&(br, bc)| (bc, br));
            assert_eq!(rec.seen, pairs, "every (r ≥ c) pair exactly once");
            (panel, rec.panels)
        };

        // Strip formulation: each pair's window holds −L_r·D·L_cᵀ, and
        // nothing outside the windows was touched.
        let (panel, mut strip) = run(&CompressionConfig::off());
        let kept = strip.clone();
        for &(br, bc) in &pairs {
            let t = pair_target(sym, &layout, br, bc);
            let (r0, c0) = (layout.panel_row[br] as usize, layout.panel_row[bc] as usize);
            for j in 0..sym.bloks[bc].nrows() {
                for i in 0..sym.bloks[br].nrows() {
                    let want: f64 = (0..w)
                        .map(|p| panel[r0 + i + p * lda] * panel[p + p * lda] * panel[c0 + j + p * lda])
                        .sum();
                    let got = &mut strip[t.cblk][t.panel_row + i + (t.col + j) * t.lda];
                    assert!((*got + want).abs() <= 1e-12 * want.abs().max(1.0), "pair ({br},{bc})");
                    *got = 0.0;
                }
            }
        }
        assert!(strip.iter().flatten().all(|&v| v == 0.0), "write outside a pair window");

        // Compressed tail (tight tolerance): same pairs, same addresses.
        let (_, tail) = run(&CompressionConfig::with_tolerance(1e-13).min_block(1));
        for (x, y) in tail.iter().flatten().zip(kept.iter().flatten()) {
            assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "tail {x} vs strip {y}");
        }
    }
}
