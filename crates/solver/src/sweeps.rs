//! The block steps of the triangular solves — the forward step `L·D·z = b`
//! and the backward step `Lᵀ·x = z` of one column block — written once.
//!
//! The solve mirror of [`crate::tasks`]: the three solve drivers
//! ([`crate::seq`], [`crate::psolve`], [`crate::dynamic`]) decide *when* a
//! column block is stepped and *where* the right-hand sides live; what a
//! step computes is here. Every driver keeps its right-hand sides in a
//! flat **workspace**: the `n × nrhs` panel in elimination order, stored
//! row by row with the `nrhs` scalars of a row contiguous. Column block
//! `k`'s rows are the contiguous [`segment`] `k`, the rows a blok covers
//! are one contiguous run ([`blok_rows`]) — so a diagonal solve, a message
//! payload, a lock and a row-block delivery each cover one slice, and the
//! kernels vectorize over the right-hand sides, which are always a full
//! vector however small the supernodes are.
//!
//! A forward step is the diagonal solve, **one** product `L_off · X_k`
//! over all the off-diagonal panel rows (they are contiguous in the
//! panel, exactly like the COMP1D strip) handed to the driver's
//! [`RowSink`] row block by row block, and the division by `D`. A
//! backward step *gathers* the rows its bloks face into one strip `G`,
//! runs **one** product `L_offᵀ · G`, and solves the transposed diagonal
//! block. Panels with a compression overlay fall back to one product per
//! blok, dispatched on [`BlokView`].

use crate::storage::{BlokView, FactorStorage};
use pastix_kernels::{
    gemm_nn_acc_rows, gemm_tn_acc_rows, lr_gemm_nn_acc, lr_gemm_tn_acc, solve_unit_lower_rows,
    solve_unit_lower_trans_rows, Scalar,
};
use pastix_symbolic::SymbolMatrix;
use std::ops::Range;

/// Where the rows of a forward strip go. The one thing a step cannot know:
/// a later segment of the same workspace, a segment under its lock, or an
/// outgoing aggregate with its bookkeeping.
pub(crate) trait RowSink<T: Scalar> {
    /// `rows` holds `−L_b · X_k` for global blok `b` (`nrows(b) × nrhs`):
    /// add it to the workspace rows `b` covers ([`blok_rows`]).
    fn add_rows(&mut self, b: usize, rows: &[T]);
}

/// Work buffers of the steps, owned by one worker and reused.
pub(crate) struct Scratch<T> {
    /// One strip: `L_off · X_k`, or the gathered rows `G`.
    strip: Vec<T>,
    /// Rank-sized coefficient of a low-rank product.
    coef: Vec<T>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Self { strip: Vec::new(), coef: Vec::new() }
    }
}

/// Workspace range of column block `k`'s `width × nrhs` segment.
#[inline]
pub(crate) fn segment(sym: &SymbolMatrix, k: usize, nrhs: usize) -> Range<usize> {
    let cb = &sym.cblks[k];
    cb.fcol as usize * nrhs..(cb.lcol as usize + 1) * nrhs
}

/// Workspace range of the `nrows(b) × nrhs` rows blok `b` covers (inside
/// the segment of the column block it faces).
#[inline]
pub(crate) fn blok_rows(sym: &SymbolMatrix, b: usize, nrhs: usize) -> Range<usize> {
    let blok = &sym.bloks[b];
    blok.frow as usize * nrhs..(blok.lrow as usize + 1) * nrhs
}

/// `dst += src`, entry by entry: a strip's row block into its rows, an
/// aggregate into its segment.
#[inline]
pub(crate) fn add_into<T: Scalar>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    dst.iter_mut().zip(src).for_each(|(d, &s)| *d += s);
}

/// The segments past the one being stepped — where every blok of that
/// column block points — split off the same flat workspace. The sink of
/// the drivers whose workspace needs no lock.
pub(crate) struct LaterSegments<'a, T> {
    sym: &'a SymbolMatrix,
    nrhs: usize,
    /// Workspace offset of `later[0]`.
    base: usize,
    later: &'a mut [T],
}

impl<'a, T: Scalar> LaterSegments<'a, T> {
    /// Splits workspace `ws` into segment `k` and everything past it:
    /// segment `k` ends where the segments it faces begin.
    pub(crate) fn split(sym: &'a SymbolMatrix, ws: &'a mut [T], k: usize, nrhs: usize) -> (&'a mut [T], Self) {
        let seg = segment(sym, k, nrhs);
        let (head, later) = ws.split_at_mut(seg.end);
        (&mut head[seg.start..], LaterSegments { sym, nrhs, base: seg.end, later })
    }

    /// Workspace range `r`, which must lie past the split.
    pub(crate) fn range_mut(&mut self, r: Range<usize>) -> &mut [T] {
        &mut self.later[r.start - self.base..r.end - self.base]
    }

    /// Gathers the solved rows blok `b` covers into `dst`.
    pub(crate) fn copy_rows(&self, b: usize, dst: &mut [T]) {
        let r = blok_rows(self.sym, b, self.nrhs);
        dst.copy_from_slice(&self.later[r.start - self.base..r.end - self.base]);
    }
}

impl<T: Scalar> RowSink<T> for LaterSegments<'_, T> {
    fn add_rows(&mut self, b: usize, rows: &[T]) {
        let r = blok_rows(self.sym, b, self.nrhs);
        add_into(self.range_mut(r), rows);
    }
}

/// Fills segment `k` from the `n × nrhs` column-major panel `rhs`,
/// interleaving the right-hand sides; `perm` (`perm[elimination row] = row
/// of rhs`) fuses the fill with the permutation into elimination order.
pub(crate) fn load_segment<T: Scalar>(
    sym: &SymbolMatrix,
    k: usize,
    perm: Option<&[u32]>,
    rhs: &[T],
    nrhs: usize,
    seg: &mut [T],
) {
    let fcol = sym.cblks[k].fcol as usize;
    for (i, row) in seg.chunks_mut(nrhs).enumerate() {
        let src = perm.map_or(fcol + i, |p| p[fcol + i] as usize);
        row.iter_mut().enumerate().for_each(|(r, d)| *d = rhs[r * sym.n + src]);
    }
}

/// Writes segment `k` back into the `n × nrhs` column-major panel `out` —
/// the inverse of [`load_segment`].
pub(crate) fn store_segment<T: Scalar>(
    sym: &SymbolMatrix,
    k: usize,
    perm: Option<&[u32]>,
    seg: &[T],
    nrhs: usize,
    out: &mut [T],
) {
    let fcol = sym.cblks[k].fcol as usize;
    for (i, row) in seg.chunks(nrhs).enumerate() {
        let dst = perm.map_or(fcol + i, |p| p[fcol + i] as usize);
        row.iter().enumerate().for_each(|(r, &s)| out[r * sym.n + dst] = s);
    }
}

/// The off-diagonal bloks of column block `k`.
#[inline]
pub(crate) fn off_bloks(sym: &SymbolMatrix, k: usize) -> Range<usize> {
    sym.cblks[k].blok_start + 1..sym.cblks[k].blok_end
}

/// Panel rows `[first, end)` of the consecutive bloks `bloks` of `k` in
/// the classic (uncompressed) layout.
fn strip_rows<T>(sym: &SymbolMatrix, st: &FactorStorage<T>, k: usize, bloks: &Range<usize>) -> Range<usize> {
    let end = match bloks.end < sym.cblks[k].blok_end {
        true => st.layout.panel_row[bloks.end] as usize,
        false => st.layout.panel_rows(k),
    };
    st.layout.panel_row[bloks.start] as usize..end
}

/// Diagonal forward solve `L_kk · Y = B` on segment `seg` of `k`.
pub(crate) fn fwd_diag<T: Scalar>(sym: &SymbolMatrix, st: &FactorStorage<T>, k: usize, seg: &mut [T], nrhs: usize) {
    solve_unit_lower_rows(sym.cblks[k].width(), &st.panels[k], st.panel_lda(k), seg, nrhs);
}

/// `−L_b · X_k` for the consecutive off-diagonal bloks `bloks` of `k`,
/// delivered blok by blok: one product over the whole strip on a dense
/// panel, one per blok under a compression overlay.
pub(crate) fn fwd_update<T: Scalar, S: RowSink<T>>(
    sym: &SymbolMatrix,
    st: &FactorStorage<T>,
    k: usize,
    bloks: Range<usize>,
    xk: &[T],
    nrhs: usize,
    scratch: &mut Scratch<T>,
    sink: &mut S,
) {
    if bloks.is_empty() {
        return;
    }
    let w = sym.cblks[k].width();
    let Scratch { strip, coef } = scratch;
    if st.panel_compression(k).is_some() {
        for b in bloks {
            let hb = sym.bloks[b].nrows();
            strip.clear();
            strip.resize(hb * nrhs, T::zero());
            match st.blok_view(k, b - sym.cblks[k].blok_start, b) {
                BlokView::Dense { data, ld } => gemm_nn_acc_rows(hb, nrhs, w, -T::one(), data, ld, xk, strip),
                BlokView::LowRank(lr) => lr_gemm_nn_acc(-T::one(), lr.as_ref(), xk, nrhs, strip, coef),
            }
            sink.add_rows(b, strip);
        }
        return;
    }
    let rows = strip_rows(sym, st, k, &bloks);
    let (h, lda) = (rows.len(), st.layout.panel_rows(k));
    strip.clear();
    strip.resize(h * nrhs, T::zero());
    gemm_nn_acc_rows(h, nrhs, w, -T::one(), &st.panels[k][rows.start..], lda, xk, strip);
    let mut at = 0;
    for b in bloks {
        let len = sym.bloks[b].nrows() * nrhs;
        sink.add_rows(b, &strip[at..at + len]);
        at += len;
    }
}

/// `Z = D⁻¹ · Y` on segment `seg` of `k`: the tail of the forward step,
/// so that backward partials can be subtracted in place as they arrive.
pub(crate) fn d_divide<T: Scalar>(st: &FactorStorage<T>, k: usize, seg: &mut [T], nrhs: usize) {
    let (lda, panel) = (st.panel_lda(k), &st.panels[k]);
    for (j, row) in seg.chunks_mut(nrhs).enumerate() {
        let dinv = panel[j + j * lda].recip();
        row.iter_mut().for_each(|v| *v *= dinv);
    }
}

/// The whole forward step of `k` on its segment.
pub(crate) fn fwd_step<T: Scalar, S: RowSink<T>>(
    sym: &SymbolMatrix,
    st: &FactorStorage<T>,
    k: usize,
    seg: &mut [T],
    nrhs: usize,
    scratch: &mut Scratch<T>,
    sink: &mut S,
) {
    fwd_diag(sym, st, k, seg, nrhs);
    fwd_update(sym, st, k, off_bloks(sym, k), seg, nrhs, scratch, sink);
    d_divide(st, k, seg, nrhs);
}

/// `out −= L_bᵀ · X_rows(b)` summed over the consecutive off-diagonal
/// bloks `bloks` of `k`; `out` is `width(k) × nrhs`. `gather(b, dst)`
/// copies the `nrows(b) × nrhs` solved rows blok `b` covers into `dst`.
/// Gathering first lets the whole strip run as one product whatever
/// segments the rows live in.
pub(crate) fn bwd_update<T: Scalar>(
    sym: &SymbolMatrix,
    st: &FactorStorage<T>,
    k: usize,
    bloks: Range<usize>,
    nrhs: usize,
    scratch: &mut Scratch<T>,
    mut gather: impl FnMut(usize, &mut [T]),
    out: &mut [T],
) {
    if bloks.is_empty() {
        return;
    }
    let w = sym.cblks[k].width();
    let Scratch { strip, coef } = scratch;
    if st.panel_compression(k).is_some() {
        for b in bloks {
            let hb = sym.bloks[b].nrows();
            strip.clear();
            strip.resize(hb * nrhs, T::zero());
            gather(b, strip);
            match st.blok_view(k, b - sym.cblks[k].blok_start, b) {
                BlokView::Dense { data, ld } => gemm_tn_acc_rows(w, nrhs, hb, -T::one(), data, ld, strip, out),
                BlokView::LowRank(lr) => lr_gemm_tn_acc(-T::one(), lr.as_ref(), strip, nrhs, out, coef),
            }
        }
        return;
    }
    let rows = strip_rows(sym, st, k, &bloks);
    let (h, lda) = (rows.len(), st.layout.panel_rows(k));
    strip.clear();
    strip.resize(h * nrhs, T::zero());
    let mut at = 0;
    for b in bloks {
        let len = sym.bloks[b].nrows() * nrhs;
        gather(b, &mut strip[at..at + len]);
        at += len;
    }
    gemm_tn_acc_rows(w, nrhs, h, -T::one(), &st.panels[k][rows.start..], lda, strip, out);
}

/// Transposed diagonal solve `L_kkᵀ · X = Z` on segment `seg` of `k`.
pub(crate) fn bwd_diag<T: Scalar>(sym: &SymbolMatrix, st: &FactorStorage<T>, k: usize, seg: &mut [T], nrhs: usize) {
    solve_unit_lower_trans_rows(sym.cblks[k].width(), &st.panels[k], st.panel_lda(k), seg, nrhs);
}

/// The whole backward step of `k` on its segment.
pub(crate) fn bwd_step<T: Scalar>(
    sym: &SymbolMatrix,
    st: &FactorStorage<T>,
    k: usize,
    seg: &mut [T],
    nrhs: usize,
    scratch: &mut Scratch<T>,
    gather: impl FnMut(usize, &mut [T]),
) {
    bwd_update(sym, st, k, off_bloks(sym, k), nrhs, scratch, gather, seg);
    bwd_diag(sym, st, k, seg, nrhs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::full_setup;
    use crate::seq::factorize_sequential;
    use pastix_sched::DistStrategy;

    /// Adds every delivery into a zeroed stand-in of the workspace at the
    /// rows `blok_rows` reports, and logs the blok.
    struct Recorder<'a> {
        sym: &'a SymbolMatrix,
        nrhs: usize,
        ws: Vec<f64>,
        seen: Vec<usize>,
    }

    impl RowSink<f64> for Recorder<'_> {
        fn add_rows(&mut self, b: usize, rows: &[f64]) {
            self.seen.push(b);
            add_into(&mut self.ws[blok_rows(self.sym, b, self.nrhs)], rows);
        }
    }

    /// A factored grid problem and a column block of it whose
    /// off-diagonal bloks face at least three different column blocks.
    fn factored() -> (SymbolMatrix, FactorStorage<f64>, usize) {
        let (ap, mapping) = full_setup(10, 10, 1, 4, DistStrategy::Mixed1d2d, 4);
        let sym = mapping.graph.split.symbol.clone();
        let mut st = FactorStorage::zeros(&sym);
        st.scatter(&sym, &ap);
        factorize_sequential(&sym, &mut st).unwrap();
        let targets = |k: usize| {
            let mut t: Vec<u32> = sym.off_bloks_of(k).iter().map(|b| b.fcblk).collect();
            t.dedup();
            t.len()
        };
        let k = (0..sym.n_cblks()).find(|&k| targets(k) >= 3 && sym.cblks[k].width() >= 2).expect("a fan-out block");
        (sym, st, k)
    }

    /// Both steps of `k` on `st`, the forward one through a recording
    /// sink, the backward one through a gather that serves known rows:
    /// returns `(forward segment, forward workspace, backward segment)`
    /// after checking that every off-diagonal blok was delivered, and
    /// gathered, exactly once and in order.
    fn run_steps(sym: &SymbolMatrix, st: &FactorStorage<f64>, k: usize, nrhs: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let w = sym.cblks[k].width();
        let solved = |i: usize| 0.5 + ((i * 7) % 11) as f64 * 0.25;
        let mut scratch = Scratch::default();
        let mut seg: Vec<f64> = (0..w * nrhs).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut rec = Recorder { sym, nrhs, ws: vec![0.0; sym.n * nrhs], seen: Vec::new() };
        fwd_step(sym, st, k, &mut seg, nrhs, &mut scratch, &mut rec);
        assert_eq!(rec.seen, off_bloks(sym, k).collect::<Vec<_>>(), "every row block exactly once");
        let mut back = seg.clone();
        let mut gathered = Vec::new();
        let gather = |b: usize, dst: &mut [f64]| {
            gathered.push(b);
            let rows = blok_rows(sym, b, nrhs);
            assert_eq!(dst.len(), rows.len(), "blok {b}: gather window");
            dst.iter_mut().zip(rows).for_each(|(d, i)| *d = solved(i));
        };
        bwd_step(sym, st, k, &mut back, nrhs, &mut scratch, gather);
        assert_eq!(gathered, off_bloks(sym, k).collect::<Vec<_>>(), "every row block gathered once");
        (seg, rec.ws, back)
    }

    #[test]
    fn steps_deliver_and_gather_every_row_block_once_at_its_rows() {
        let (sym, st, k) = factored();
        let (cb, lda, panel) = (&sym.cblks[k], st.layout.panel_rows(k), &st.panels[k]);
        let w = cb.width();
        for nrhs in [1usize, 3] {
            let (seg, ws, back) = run_steps(&sym, &st, k, nrhs);
            // Undo the division by D: y = D·z is what the strip multiplied.
            let y = |j: usize, r: usize| seg[j * nrhs + r] * panel[j + j * lda];
            let mut expect = vec![0.0; sym.n * nrhs];
            for b in off_bloks(&sym, k) {
                let (blok, prow) = (&sym.bloks[b], st.layout.panel_row[b] as usize);
                for i in 0..blok.nrows() {
                    for r in 0..nrhs {
                        let dot: f64 = (0..w).map(|j| panel[prow + i + j * lda] * y(j, r)).sum();
                        expect[(blok.frow as usize + i) * nrhs + r] = -dot;
                    }
                }
            }
            for (i, (u, v)) in ws.iter().zip(&expect).enumerate() {
                assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0), "nrhs {nrhs} workspace {i}: {u} vs {v}");
            }
            // Backward: Lᵀ·x = z − Σ_b L_bᵀ·G_b, checked by substitution.
            let solved = |i: usize| 0.5 + ((i * 7) % 11) as f64 * 0.25;
            for j in 0..w {
                for r in 0..nrhs {
                    let mut lhs = back[j * nrhs + r];
                    lhs += (j + 1..w).map(|i| panel[i + j * lda] * back[i * nrhs + r]).sum::<f64>();
                    let mut rhs = seg[j * nrhs + r];
                    for b in off_bloks(&sym, k) {
                        let (blok, prow) = (&sym.bloks[b], st.layout.panel_row[b] as usize);
                        for i in 0..blok.nrows() {
                            rhs -= panel[prow + i + j * lda] * solved((blok.frow as usize + i) * nrhs + r);
                        }
                    }
                    assert!((lhs - rhs).abs() <= 1e-11 * rhs.abs().max(1.0), "nrhs {nrhs} row {j}: {lhs} vs {rhs}");
                }
            }
        }
    }

    #[test]
    fn steps_on_a_compression_overlay_match_the_decompressed_panel() {
        let (sym, mut st, k) = factored();
        // Replace the tallest blok of `k` by a rank-one representation and
        // install the overlay: the panel then holds a low-rank blok among
        // dense ones, so both arms of the per-blok fallback run.
        let b = off_bloks(&sym, k).max_by_key(|&b| sym.bloks[b].nrows()).unwrap();
        let (m, n) = (sym.bloks[b].nrows(), sym.cblks[k].width());
        let u = (0..m).map(|i| 0.25 + i as f64 * 0.5).collect();
        let v = (0..n).map(|j| 0.125 - j as f64 * 0.25).collect();
        let mut per_blok: Vec<_> = (0..sym.bloks.len()).map(|_| None).collect();
        per_blok[b] = Some(pastix_kernels::LowRankBlock { m, n, rank: 1, u, v });
        st.install_compression(&sym, per_blok);
        assert!(st.panel_compression(k).is_some(), "block {k} carries no overlay");
        let mut dense = st.clone();
        dense.decompress(&sym);
        for nrhs in [1usize, 3] {
            let (got, want) = (run_steps(&sym, &st, k, nrhs), run_steps(&sym, &dense, k, nrhs));
            for (u, v) in [(&got.0, &want.0), (&got.1, &want.1), (&got.2, &want.2)] {
                for (x, y) in u.iter().zip(v) {
                    assert!((x - y).abs() <= 1e-10 * y.abs().max(1.0), "nrhs {nrhs}: overlay {x} vs dense {y}");
                }
            }
        }
    }
}
