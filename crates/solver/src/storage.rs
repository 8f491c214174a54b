//! Numeric storage of the block factor.
//!
//! Each column block is one contiguous column-major *panel*: the square
//! diagonal block on top (its strictly upper triangle unused), then the
//! rows of each off-diagonal block stacked in order. This is the real
//! PaStiX layout — a sub-panel of any block is a BLAS-ready column-major
//! slice with the panel's leading dimension.

use pastix_graph::SymCsc;
use pastix_kernels::scalar::Scalar;
use pastix_kernels::LowRankBlock;
use pastix_symbolic::{Blok, SymbolMatrix};

/// Precomputed addressing of panels.
#[derive(Debug, Clone)]
pub struct PanelLayout {
    /// Leading dimension (total rows) of each column block's panel.
    pub lda: Vec<u32>,
    /// Row offset of each global blok inside its column block's panel
    /// (0 for diagonal blocks).
    pub panel_row: Vec<u32>,
}

impl PanelLayout {
    /// Builds the layout for a symbol matrix.
    pub fn new(sym: &SymbolMatrix) -> Self {
        let mut lda = Vec::with_capacity(sym.n_cblks());
        let mut panel_row = vec![0u32; sym.bloks.len()];
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            let mut row = cb.width() as u32;
            panel_row[cb.blok_start] = 0;
            for b in cb.blok_start + 1..cb.blok_end {
                panel_row[b] = row;
                row += sym.bloks[b].nrows() as u32;
            }
            lda.push(row);
        }
        Self { lda, panel_row }
    }

    /// Panel rows (leading dimension) of column block `k`.
    #[inline]
    pub fn panel_rows(&self, k: usize) -> usize {
        self.lda[k] as usize
    }
}

/// How one blok of a compressed panel is stored.
#[derive(Debug, Clone)]
pub enum BlockStore<T> {
    /// Dense rows inside the (repacked) panel, starting at `row`.
    Dense {
        /// First row of the blok inside the packed panel.
        row: usize,
    },
    /// Compressed `U·Vᵀ` representation.
    LowRank(LowRankBlock<T>),
}

/// Per-panel compression overlay: which bloks are low-rank and where the
/// surviving dense rows landed after the panel was repacked.
#[derive(Debug, Clone)]
pub struct PanelCompression<T> {
    /// Leading dimension of the repacked panel (diagonal rows plus the
    /// rows of every still-dense blok).
    pub packed_lda: usize,
    /// One entry per blok of the column block, the diagonal blok first
    /// (always `Dense { row: 0 }`), then the off-diagonal bloks in order.
    pub bloks: Vec<BlockStore<T>>,
}

/// A read view of one blok of the factor, whichever way it is stored.
#[derive(Debug, Clone, Copy)]
pub enum BlokView<'a, T> {
    /// Dense rows with the panel's leading dimension.
    Dense {
        /// Slice starting at the blok's first row of the first column.
        data: &'a [T],
        /// Leading dimension of the backing panel.
        ld: usize,
    },
    /// Compressed representation.
    LowRank(&'a LowRankBlock<T>),
}

/// The numeric factor: one dense panel per column block, plus an optional
/// low-rank compression overlay. An empty overlay means every panel is
/// dense in the classic layout — the exact pre-compression storage, byte
/// for byte.
#[derive(Debug, Clone)]
pub struct FactorStorage<T> {
    /// Shared addressing (of the *uncompressed* layout; compressed panels
    /// carry their own packed leading dimension in the overlay).
    pub layout: PanelLayout,
    /// Column-major panels, `lda[k] × width(k)` each — or the repacked
    /// dense rows only for panels with a compression overlay entry.
    pub panels: Vec<Vec<T>>,
    /// Per-panel compression overlay; empty when no block is compressed.
    pub compression: Vec<Option<PanelCompression<T>>>,
}

impl<T: Scalar> FactorStorage<T> {
    /// Allocates zeroed panels for a symbol matrix.
    pub fn zeros(sym: &SymbolMatrix) -> Self {
        let layout = PanelLayout::new(sym);
        let panels = (0..sym.n_cblks())
            .map(|k| vec![T::zero(); layout.panel_rows(k) * sym.cblks[k].width()])
            .collect();
        Self { layout, panels, compression: Vec::new() }
    }

    /// `true` when at least one panel carries a compression overlay.
    pub fn is_compressed(&self) -> bool {
        self.compression.iter().any(|c| c.is_some())
    }

    /// Compression overlay of panel `k`, when present.
    #[inline]
    pub fn panel_compression(&self, k: usize) -> Option<&PanelCompression<T>> {
        self.compression.get(k).and_then(|c| c.as_ref())
    }

    /// Leading dimension of panel `k` as stored (packed when compressed).
    #[inline]
    pub fn panel_lda(&self, k: usize) -> usize {
        match self.panel_compression(k) {
            Some(pc) => pc.packed_lda,
            None => self.layout.panel_rows(k),
        }
    }

    /// Read view of global blok `b` (with local index `local` inside its
    /// column block `k`), dispatching on the stored representation.
    #[inline]
    pub fn blok_view(&self, k: usize, local: usize, b: usize) -> BlokView<'_, T> {
        match self.panel_compression(k) {
            Some(pc) => match &pc.bloks[local] {
                BlockStore::Dense { row } => BlokView::Dense {
                    data: &self.panels[k][*row..],
                    ld: pc.packed_lda,
                },
                BlockStore::LowRank(lr) => BlokView::LowRank(lr),
            },
            None => BlokView::Dense {
                data: &self.panels[k][self.layout.panel_row[b] as usize..],
                ld: self.layout.panel_rows(k),
            },
        }
    }

    /// Resident bytes of the factor as stored: dense panel bytes plus the
    /// `U`/`V` bytes of every compressed blok.
    pub fn factor_bytes(&self) -> u64 {
        let dense: u64 = self
            .panels
            .iter()
            .map(|p| (p.len() * std::mem::size_of::<T>()) as u64)
            .sum();
        let lr: u64 = self
            .compression
            .iter()
            .flatten()
            .flat_map(|pc| pc.bloks.iter())
            .map(|b| match b {
                BlockStore::LowRank(lr) => lr.bytes() as u64,
                BlockStore::Dense { .. } => 0,
            })
            .sum();
        dense + lr
    }

    /// Bytes the factor would occupy fully dense (the classic layout).
    pub fn dense_factor_bytes(&self) -> u64 {
        (0..self.panels.len())
            .map(|k| {
                let w = self.panels[k].len() / self.panel_lda(k).max(1);
                (self.layout.panel_rows(k) * w * std::mem::size_of::<T>()) as u64
            })
            .sum()
    }

    /// Installs per-blok low-rank representations produced at factor time
    /// (indexed by *global* blok id) and repacks every affected panel so
    /// only the diagonal block and the still-dense bloks keep their rows.
    /// Entries of already-compressed panels must be `None`.
    pub fn install_compression(&mut self, sym: &SymbolMatrix, mut lr: Vec<Option<LowRankBlock<T>>>) {
        assert_eq!(lr.len(), sym.bloks.len(), "one entry per global blok");
        if lr.iter().all(|x| x.is_none()) {
            return;
        }
        if self.compression.is_empty() {
            self.compression = (0..self.panels.len()).map(|_| None).collect();
        }
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            if !(cb.blok_start + 1..cb.blok_end).any(|b| lr[b].is_some()) {
                continue;
            }
            assert!(self.compression[k].is_none(), "cblk {k} is already compressed");
            let w = cb.width();
            let old_lda = self.layout.panel_rows(k);
            let mut packed = w;
            for b in cb.blok_start + 1..cb.blok_end {
                if lr[b].is_none() {
                    packed += sym.bloks[b].nrows();
                }
            }
            let mut newp = vec![T::zero(); packed * w];
            let old = &self.panels[k];
            for j in 0..w {
                newp[j * packed..j * packed + w].copy_from_slice(&old[j * old_lda..j * old_lda + w]);
            }
            let mut bloks = Vec::with_capacity(cb.blok_end - cb.blok_start);
            bloks.push(BlockStore::Dense { row: 0 });
            let mut row = w;
            for b in cb.blok_start + 1..cb.blok_end {
                let h = sym.bloks[b].nrows();
                match lr[b].take() {
                    Some(l) => {
                        debug_assert_eq!((l.m, l.n), (h, w), "blok {b} shape");
                        bloks.push(BlockStore::LowRank(l));
                    }
                    None => {
                        let orow = self.layout.panel_row[b] as usize;
                        for j in 0..w {
                            newp[row + j * packed..row + j * packed + h]
                                .copy_from_slice(&old[orow + j * old_lda..orow + j * old_lda + h]);
                        }
                        bloks.push(BlockStore::Dense { row });
                        row += h;
                    }
                }
            }
            self.panels[k] = newp;
            self.compression[k] = Some(PanelCompression { packed_lda: packed, bloks });
        }
    }

    /// Expands every compressed panel back to the classic dense layout and
    /// drops the overlay — the decompress path.
    pub fn decompress(&mut self, sym: &SymbolMatrix) {
        for k in 0..sym.n_cblks() {
            let Some(pc) = self.compression.get_mut(k).and_then(|c| c.take()) else {
                continue;
            };
            let cb = &sym.cblks[k];
            let w = cb.width();
            let lda = self.layout.panel_rows(k);
            let mut full = vec![T::zero(); lda * w];
            let packed = &self.panels[k];
            for (local, store) in pc.bloks.iter().enumerate() {
                let b = cb.blok_start + local;
                let h = if local == 0 { w } else { sym.bloks[b].nrows() };
                let drow = self.layout.panel_row[b] as usize;
                match store {
                    BlockStore::Dense { row } => {
                        for j in 0..w {
                            full[drow + j * lda..drow + j * lda + h].copy_from_slice(
                                &packed[row + j * pc.packed_lda..row + j * pc.packed_lda + h],
                            );
                        }
                    }
                    BlockStore::LowRank(l) => {
                        l.decompress_into(&mut full[drow..], lda);
                    }
                }
            }
            self.panels[k] = full;
        }
        self.compression.clear();
    }

    /// Scatters the lower triangle of the (already permuted) matrix into
    /// the panels. Entries must all fall inside the symbolic structure.
    pub fn scatter(&mut self, sym: &SymbolMatrix, a: &SymCsc<T>) {
        assert_eq!(a.n(), sym.n);
        for (k, panel) in self.panels.iter_mut().enumerate() {
            scatter_cblk(sym, &self.layout, k, a, panel);
        }
    }

    /// Entry `(i, j)` of the factor (`i ≥ j`), zero when outside the
    /// structure. Dispatches on the stored representation (a compressed
    /// blok's entry is the `U·Vᵀ` dot product). For tests and small-scale
    /// inspection.
    pub fn get(&self, sym: &SymbolMatrix, i: usize, j: usize) -> T {
        assert!(i >= j);
        let k = sym.cblk_of_col(j);
        let cb = &sym.cblks[k];
        let local_col = j - cb.fcol as usize;
        let Some((b, row_in_blok)) = try_blok_of(sym, k, i as u32) else {
            return T::zero();
        };
        match self.blok_view(k, b - cb.blok_start, b) {
            BlokView::Dense { data, ld } => data[row_in_blok + local_col * ld],
            BlokView::LowRank(lr) => (0..lr.rank)
                .map(|r| lr.u[row_in_blok + r * lr.m] * lr.v[local_col + r * lr.n])
                .sum(),
        }
    }

    /// The diagonal entries `D` of the factored matrix.
    pub fn diagonal(&self, sym: &SymbolMatrix) -> Vec<T> {
        let mut d = Vec::with_capacity(sym.n);
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            let lda = self.panel_lda(k);
            for t in 0..cb.width() {
                d.push(self.panels[k][t + t * lda]);
            }
        }
        d
    }
}

/// Where the contribution `L_br · F_bcᵀ` of one column block's
/// off-diagonal blok pair `(br, bc)`, `br ≥ bc`, lands: the one address
/// computation every factorization driver shares. A panel-addressed
/// driver updates `panels[cblk][panel_row + col * lda..]` with leading
/// dimension `lda`; the static driver's per-task regions use `blok` and
/// `row_in_blok` to pick the FACTOR or BDIV region of a 2D target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairTarget {
    /// Target column block: the one `bc` faces.
    pub cblk: usize,
    /// Global blok of `cblk` whose rows cover `br` (the diagonal blok when
    /// `br` faces `cblk` too).
    pub blok: usize,
    /// First row of `br` inside the covering blok.
    pub row_in_blok: usize,
    /// First row of `br` inside `cblk`'s panel.
    pub panel_row: usize,
    /// First column of the update inside `cblk` (`bc`'s rows are its columns).
    pub col: usize,
    /// Leading dimension of `cblk`'s panel.
    pub lda: usize,
}

/// Computes the [`PairTarget`] of off-diagonal blok pair `(br, bc)`.
pub(crate) fn pair_target(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    br: usize,
    bc: usize,
) -> PairTarget {
    let (rows, cols) = (&sym.bloks[br], &sym.bloks[bc]);
    let cblk = cols.fcblk as usize;
    let blok = sym.covering_blok(cblk, rows.frow, rows.lrow);
    let row_in_blok = (rows.frow - sym.bloks[blok].frow) as usize;
    PairTarget {
        cblk,
        blok,
        row_in_blok,
        panel_row: layout.panel_row[blok] as usize + row_in_blok,
        col: (cols.frow - sym.cblks[cblk].fcol) as usize,
        lda: layout.panel_rows(cblk),
    }
}

/// Scatters the columns of `a` that column block `k` holds into its panel:
/// the sorted rows of a column walk the bloks with a [`BlokCursor`].
pub(crate) fn scatter_cblk<T: Scalar>(
    sym: &SymbolMatrix,
    layout: &PanelLayout,
    k: usize,
    a: &SymCsc<T>,
    panel: &mut [T],
) {
    let cb = &sym.cblks[k];
    let lda = layout.panel_rows(k);
    for j in cb.fcol as usize..=cb.lcol as usize {
        let col = (j - cb.fcol as usize) * lda;
        let mut cursor = BlokCursor::new(sym, k);
        for (&i, &v) in a.rows_of(j).iter().zip(a.vals_of(j)) {
            debug_assert!(i as usize >= j, "input must be lower triangular");
            let (b, row_in_blok) = cursor.seek(i);
            panel[layout.panel_row[b] as usize + row_in_blok + col] = v;
        }
    }
}

/// A cursor over the bloks of one column block (the diagonal one first)
/// for rows that are asked for in ascending order — the rows of a matrix
/// column, the row blocks of a contribution strip: both lists are sorted,
/// so one merge walk replaces a binary search per row.
pub(crate) struct BlokCursor<'a> {
    bloks: &'a [Blok],
    /// Global id of `bloks[0]`.
    first: usize,
    at: usize,
}

impl<'a> BlokCursor<'a> {
    pub(crate) fn new(sym: &'a SymbolMatrix, k: usize) -> Self {
        let cb = &sym.cblks[k];
        Self { bloks: &sym.bloks[cb.blok_start..cb.blok_end], first: cb.blok_start, at: 0 }
    }

    /// Global blok containing row `i` and the row's offset inside it. `i`
    /// must not be below the row of an earlier call; panics when the row
    /// is outside the block structure.
    pub(crate) fn seek(&mut self, i: u32) -> (usize, usize) {
        while self.bloks.get(self.at).is_some_and(|b| b.lrow < i) {
            self.at += 1;
        }
        match self.bloks.get(self.at) {
            Some(b) if b.frow <= i => (self.first + self.at, (i - b.frow) as usize),
            _ => panic!("row {i} not in the structure of the column block of blok {}", self.first),
        }
    }
}

/// The [`PairTarget`]s of a whole contribution strip — pivot blok `bc`
/// against the row blocks `bc..end` of its column block (`end` is that
/// block's `blok_end`), in order. Equal to [`pair_target`] pair by pair;
/// every row block of the strip faces the same column block, so one
/// [`BlokCursor`] finds the covering bloks.
pub(crate) fn strip_targets<'a>(
    sym: &'a SymbolMatrix,
    layout: &'a PanelLayout,
    bc: usize,
    end: usize,
) -> impl Iterator<Item = PairTarget> + 'a {
    let cols = &sym.bloks[bc];
    let cblk = cols.fcblk as usize;
    let col = (cols.frow - sym.cblks[cblk].fcol) as usize;
    let lda = layout.panel_rows(cblk);
    let mut cursor = BlokCursor::new(sym, cblk);
    sym.bloks[bc..end].iter().map(move |rows| {
        let (blok, row_in_blok) = cursor.seek(rows.frow);
        debug_assert!(rows.lrow <= sym.bloks[blok].lrow, "factor structures are nested");
        let panel_row = layout.panel_row[blok] as usize + row_in_blok;
        PairTarget { cblk, blok, row_in_blok, panel_row, col, lda }
    })
}

/// Panel row of global row `i` within column block `k`, or `None` when the
/// row is not in the block structure.
pub fn try_panel_row_of(sym: &SymbolMatrix, layout: &PanelLayout, k: usize, i: u32) -> Option<usize> {
    let (b, row_in_blok) = try_blok_of(sym, k, i)?;
    Some(layout.panel_row[b] as usize + row_in_blok)
}

/// Global blok of column block `k` containing row `i` and the row's
/// offset inside that blok, or `None` outside the block structure.
pub fn try_blok_of(sym: &SymbolMatrix, k: usize, i: u32) -> Option<(usize, usize)> {
    let cb = &sym.cblks[k];
    if i >= cb.fcol && i <= cb.lcol {
        return Some((cb.blok_start, (i - cb.fcol) as usize));
    }
    // Binary search the off-diagonal blocks (sorted by frow).
    let bloks = &sym.bloks[cb.blok_start + 1..cb.blok_end];
    let mut lo = 0usize;
    let mut hi = bloks.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if bloks[mid].lrow < i {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < bloks.len() && bloks[lo].frow <= i && i <= bloks[lo].lrow {
        Some((cb.blok_start + 1 + lo, (i - bloks[lo].frow) as usize))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_graph::Permutation;
    use pastix_symbolic::{analyze, AnalysisOptions};

    fn setup() -> (SymCsc<f64>, SymbolMatrix, Permutation) {
        let a = pastix_graph::gen::grid_spd::<f64>(
            5,
            4,
            1,
            pastix_graph::gen::Stencil::Star,
            false,
            pastix_graph::gen::ValueKind::RandomSpd(3),
        );
        let g = a.to_graph();
        let ord = pastix_ordering::nested_dissection(&g, &pastix_ordering::OrderingOptions {
            leaf_size: 4,
            ..Default::default()
        });
        let an = analyze(&g, &ord, &AnalysisOptions::default());
        let ap = a.permuted(&an.perm);
        (ap, an.symbol, an.perm)
    }

    #[test]
    fn layout_covers_all_bloks() {
        let (_, sym, _) = setup();
        let layout = PanelLayout::new(&sym);
        for k in 0..sym.n_cblks() {
            let cb = &sym.cblks[k];
            let mut expected = cb.width();
            for b in cb.blok_start + 1..cb.blok_end {
                assert_eq!(layout.panel_row[b] as usize, expected);
                expected += sym.bloks[b].nrows();
            }
            assert_eq!(layout.panel_rows(k), expected);
        }
    }

    #[test]
    fn scatter_then_get_roundtrip() {
        let (ap, sym, _) = setup();
        let mut f = FactorStorage::zeros(&sym);
        f.scatter(&sym, &ap);
        for j in 0..ap.n() {
            for (&i, &v) in ap.rows_of(j).iter().zip(ap.vals_of(j)) {
                assert_eq!(f.get(&sym, i as usize, j), v, "({i},{j})");
            }
        }
    }

    #[test]
    fn get_outside_structure_is_zero() {
        let (ap, sym, _) = setup();
        let mut f = FactorStorage::zeros(&sym);
        f.scatter(&sym, &ap);
        // Count structural zeros read back as zero.
        let n = ap.n();
        let mut zeros = 0;
        for j in 0..n {
            for i in j..n {
                if try_panel_row_of(&sym, &f.layout, sym.cblk_of_col(j), i as u32).is_none() {
                    assert_eq!(f.get(&sym, i, j), 0.0);
                    zeros += 1;
                }
            }
        }
        assert!(zeros > 0, "expected some structural zeros in a sparse factor");
    }

    #[test]
    fn compression_overlay_roundtrip() {
        let (ap, sym, _) = setup();
        let mut f = FactorStorage::zeros(&sym);
        f.scatter(&sym, &ap);
        // Pick the largest off-diagonal blok, overwrite it with a rank-1
        // outer product, compress it, and install the overlay.
        let (k, b) = (0..sym.n_cblks())
            .flat_map(|k| (sym.cblks[k].blok_start + 1..sym.cblks[k].blok_end).map(move |b| (k, b)))
            .max_by_key(|&(_, b)| sym.bloks[b].nrows())
            .expect("structure has off-diagonal bloks");
        let cb = &sym.cblks[k];
        let (h, w) = (sym.bloks[b].nrows(), cb.width());
        let lda = f.layout.panel_rows(k);
        let row = f.layout.panel_row[b] as usize;
        for j in 0..w {
            for i in 0..h {
                f.panels[k][row + i + j * lda] = (1.0 + i as f64) * (2.0 + j as f64);
            }
        }
        let before = f.clone();
        let lr = pastix_kernels::compress_block(h, w, &f.panels[k][row..], lda, 0.0, 1e-12)
            .expect("rank-1 blok compresses");
        assert_eq!(lr.rank, 1);
        let mut per_blok: Vec<Option<pastix_kernels::LowRankBlock<f64>>> =
            (0..sym.bloks.len()).map(|_| None).collect();
        per_blok[b] = Some(lr);
        f.install_compression(&sym, per_blok);
        assert!(f.is_compressed());
        assert!(f.factor_bytes() < f.dense_factor_bytes());
        assert_eq!(f.panel_lda(k), lda - h);
        // Reads agree with the dense original everywhere (to fp round-off).
        for j in 0..ap.n() {
            for i in j..ap.n() {
                let (a, bv) = (before.get(&sym, i, j), f.get(&sym, i, j));
                assert!((a - bv).abs() <= 1e-10 * a.abs().max(1.0), "({i},{j}): {a} vs {bv}");
            }
        }
        // Decompress restores the classic layout.
        f.decompress(&sym);
        assert!(!f.is_compressed());
        assert_eq!(f.panels[k].len(), before.panels[k].len());
        for (x, y) in f.panels[k].iter().zip(&before.panels[k]) {
            assert!((x - y).abs() <= 1e-10 * y.abs().max(1.0));
        }
    }

    #[test]
    fn diagonal_extraction() {
        let (ap, sym, _) = setup();
        let mut f = FactorStorage::zeros(&sym);
        f.scatter(&sym, &ap);
        let d = f.diagonal(&sym);
        for (j, &dj) in d.iter().enumerate() {
            assert_eq!(dj, ap.get(j, j));
        }
    }
}
