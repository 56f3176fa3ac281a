//! The adaptive positional map.
//!
//! Paper §4.1.5: "Every time we touch a file, we learn a bit more about its
//! structure, e.g., the physical position of certain rows and attributes."
//! The positional map is that knowledge. It accumulates, as a *side effect*
//! of tokenization, (a) the byte offset of every row start (phase-1 output,
//! so newline scanning happens at most once per file) and (b) for each column
//! the tokenizer has walked past, the field-start offset within each row.
//!
//! Later scans ask for a [`PositionalMap::hint_for`]: the closest known
//! column at-or-before the target, letting the tokenizer jump into the middle
//! of a row instead of re-tokenizing the leading attributes (§4.1.2's
//! tokenization overhead).
//!
//! Both are held at the narrowest width that fits, because the map is
//! otherwise the largest structure a table keeps:
//!
//! * [`RowStarts`] are `u32` when the data region is at most 4 GiB long
//!   (every start lies below its length), and `u64` otherwise.
//! * Each column's [`Offsets`], relative to the row start, are `u8`, `u16`
//!   or `u32`: the narrowest width whose `MAX` is above the column's
//!   largest known offset. That `MAX` is the width's "unknown" sentinel:
//!   rows abandoned early by predicate pushdown leave holes. A column
//!   widens in place, holes kept, when a later row needs more room.
//!
//! Writers hand in offsets as `u32` with [`UNKNOWN`] for a hole; the map
//! narrows them as it stores them.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Sentinel for "offset not known for this row" in the `u32` offsets
/// writers hand in.
pub const UNKNOWN: u32 = u32::MAX;

/// Row starts, in row order, at the width the data region's length needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowStarts {
    /// Starts of a data region of at most 4 GiB.
    U32(Vec<u32>),
    /// Starts of a longer data region.
    U64(Vec<u64>),
}

impl Default for RowStarts {
    /// No rows.
    fn default() -> RowStarts {
        RowStarts::U32(Vec::new())
    }
}

impl RowStarts {
    /// No starts yet, at the width a data region of `data_len` bytes needs.
    pub fn for_len(data_len: u64) -> RowStarts {
        if data_len <= 1 << 32 {
            RowStarts::U32(Vec::new())
        } else {
            RowStarts::U64(Vec::new())
        }
    }

    /// `starts` (ascending, each below `data_len`) at the width
    /// `data_len` needs.
    pub fn from_u64(starts: Vec<u64>, data_len: u64) -> RowStarts {
        match RowStarts::for_len(data_len) {
            RowStarts::U32(_) => RowStarts::U32(starts.iter().map(|&s| s as u32).collect()),
            RowStarts::U64(_) => RowStarts::U64(starts),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            RowStarts::U32(v) => v.len(),
            RowStarts::U64(v) => v.len(),
        }
    }

    /// No rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Start of row `row`.
    pub fn get(&self, row: usize) -> Option<u64> {
        match self {
            RowStarts::U32(v) => v.get(row).map(|&s| u64::from(s)),
            RowStarts::U64(v) => v.get(row).copied(),
        }
    }

    /// Append `starts`, which lie below the data region's length.
    pub fn extend(&mut self, starts: &[u64]) {
        match self {
            RowStarts::U32(v) => v.extend(starts.iter().map(|&s| s as u32)),
            RowStarts::U64(v) => v.extend_from_slice(starts),
        }
    }

    /// Make room for `n` more starts, if it can be had.
    pub fn try_reserve(&mut self, n: usize) {
        let _ = match self {
            RowStarts::U32(v) => v.try_reserve_exact(n),
            RowStarts::U64(v) => v.try_reserve_exact(n),
        };
    }

    /// Bytes the starts hold.
    pub fn approx_bytes(&self) -> usize {
        match self {
            RowStarts::U32(v) => v.len() * 4,
            RowStarts::U64(v) => v.len() * 8,
        }
    }
}

/// One offset width: its `MAX` is its "unknown" sentinel.
trait Slot: Copy + Eq {
    const UNKNOWN: Self;
    /// The offset as a `u32`, the sentinel as [`UNKNOWN`].
    fn to_u32(self) -> u32;
    /// `o` at this width. A known `o` must lie below the sentinel;
    /// [`UNKNOWN`] becomes the sentinel.
    fn from_u32(o: u32) -> Self;
}

macro_rules! slot {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            const UNKNOWN: $t = <$t>::MAX;
            #[inline]
            fn to_u32(self) -> u32 {
                if self == Self::UNKNOWN { UNKNOWN } else { u32::from(self) }
            }
            #[inline]
            fn from_u32(o: u32) -> $t {
                // Clamping maps UNKNOWN (and only it) to the sentinel.
                o.min(u32::from(Self::UNKNOWN)) as $t
            }
        }
    )*};
}
slot!(u8, u16, u32);

/// One more than the largest known offset in `src` (0 when none is
/// known), and the number of known entries.
fn survey<S: Slot>(src: &[S]) -> (u32, usize) {
    // UNKNOWN + 1 wraps to 0, below every known offset + 1.
    src.iter().fold((0, 0), |(need, known), &o| {
        let o = o.to_u32().wrapping_add(1);
        (need.max(o), known + usize::from(o != 0))
    })
}

/// Append `src` to `dst`, holes kept. Every known offset of `src` fits
/// `D`.
fn extend_from<S: Slot, D: Slot>(dst: &mut Vec<D>, src: &[S]) {
    dst.extend(src.iter().map(|&o| D::from_u32(o.to_u32())));
}

/// The offsets at a wider width, holes kept, with `cap` room.
fn widened<S: Slot, D: Slot>(src: &[S], cap: usize) -> Vec<D> {
    let mut out = Vec::with_capacity(cap.max(src.len()));
    extend_from(&mut out, src);
    out
}

/// Write the known entries of `src` over `dst[first..]`; returns how many
/// were holes in `dst`. Every known offset of `src` fits `D`.
fn merge_into<S: Slot, D: Slot>(dst: &mut [D], first: usize, src: &[S]) -> usize {
    let mut filled = 0;
    for (d, &s) in dst[first..first + src.len()].iter_mut().zip(src) {
        if s != S::UNKNOWN {
            filled += usize::from(*d == D::UNKNOWN);
            *d = D::from_u32(s.to_u32());
        }
    }
    filled
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Vals {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// `$body` over the vector of whichever width `$vals` holds, bound to `$v`.
macro_rules! each {
    ($vals:expr, $v:ident => $body:expr) => {
        match $vals {
            Vals::U8($v) => $body,
            Vals::U16($v) => $body,
            Vals::U32($v) => $body,
        }
    };
}

/// One column's in-row field offsets, one per row, at the narrowest of
/// `u8`, `u16` and `u32` that holds its largest known offset; the width's
/// `MAX` marks a hole. Counts its known rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offsets {
    vals: Vals,
    known: usize,
}

impl Default for Offsets {
    fn default() -> Offsets {
        Offsets::unknown(0)
    }
}

impl Offsets {
    /// `rows` holes.
    pub fn unknown(rows: usize) -> Offsets {
        Offsets {
            vals: Vals::U8(vec![u8::UNKNOWN; rows]),
            known: 0,
        }
    }

    /// Rows covered, known or not.
    pub fn len(&self) -> usize {
        each!(&self.vals, v => v.len())
    }

    /// No rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows with a known offset.
    pub fn known(&self) -> usize {
        self.known
    }

    /// Bytes per offset: 1, 2 or 4.
    pub fn width(&self) -> usize {
        fn width<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        each!(&self.vals, v => width(v))
    }

    /// The offset of row `row`, if known.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        let o = each!(&self.vals, v => v.get(row)?.to_u32());
        (o != UNKNOWN).then_some(o)
    }

    /// Bytes the offsets hold.
    pub fn approx_bytes(&self) -> usize {
        self.len() * self.width()
    }

    /// Make room for `n` more offsets at the current width, if it can be
    /// had.
    pub fn try_reserve(&mut self, n: usize) {
        let _ = each!(&mut self.vals, v => v.try_reserve_exact(n));
    }

    /// Widen, holes kept, until the width holds known offsets below
    /// `need` (one more than the largest).
    fn widen_for(&mut self, need: u32) {
        let vals = match (&self.vals, need) {
            (Vals::U8(v), 256..=65_535) => Vals::U16(widened(v, v.capacity())),
            (Vals::U8(v), 65_536..) => Vals::U32(widened(v, v.capacity())),
            (Vals::U16(v), 65_536..) => Vals::U32(widened(v, v.capacity())),
            _ => return,
        };
        self.vals = vals;
    }

    /// Append the offsets of further rows, [`UNKNOWN`] for a hole,
    /// widening first if one of them needs it.
    pub fn extend(&mut self, src: &[u32]) {
        let (need, known) = survey(src);
        self.widen_for(need);
        self.known += known;
        each!(&mut self.vals, v => extend_from(v, src));
    }

    /// Write the known entries of `src` over rows `first..`; a hole in
    /// `src` keeps what is known.
    fn merge<S: Slot>(&mut self, first: usize, src: &[S]) {
        self.widen_for(survey(src).0);
        self.known += each!(&mut self.vals, d => merge_into(d, first, src));
    }
}

/// Accumulated structural knowledge about one raw file.
#[derive(Debug, Clone, Default)]
pub struct PositionalMap {
    /// Byte offset of each row's first byte, in row order. `Arc` so scans
    /// can hold a cheap snapshot while the map gains columns.
    row_starts: Option<Arc<RowStarts>>,
    /// Total file length (needed to delimit the last row).
    file_len: u64,
    /// Per-column field-start offsets relative to the row start.
    cols: BTreeMap<usize, Offsets>,
}

impl PositionalMap {
    /// An empty map (knows nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the phase-1 result. Resets column knowledge if the row count
    /// changed (the file was rewritten).
    pub fn set_row_starts(&mut self, starts: RowStarts, file_len: u64) {
        if let Some(old) = &self.row_starts {
            if old.len() != starts.len() {
                self.cols.clear();
            }
        }
        self.row_starts = Some(Arc::new(starts));
        self.file_len = file_len;
    }

    /// The known row starts, if phase 1 ever ran.
    pub fn row_starts(&self) -> Option<Arc<RowStarts>> {
        self.row_starts.clone()
    }

    /// File length recorded alongside the row starts.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Number of rows, if known.
    pub fn row_count(&self) -> Option<usize> {
        self.row_starts.as_ref().map(|s| s.len())
    }

    /// Columns with at least some recorded offsets.
    pub fn known_columns(&self) -> Vec<usize> {
        self.cols.keys().copied().collect()
    }

    /// The offsets of a column, if present.
    pub fn col_offsets(&self, col: usize) -> Option<&Offsets> {
        self.cols.get(&col)
    }

    /// Record offsets for a contiguous row range `[first_row, first_row+offs.len())`
    /// of one column. `UNKNOWN` entries in `offs` do not overwrite existing
    /// knowledge.
    pub fn record_range(&mut self, col: usize, first_row: usize, offs: &[u32]) {
        let Some(n) = self.row_count() else {
            return; // no row structure yet; offsets would be unanchored
        };
        let dense = self.cols.entry(col).or_insert_with(|| Offsets::unknown(n));
        dense.merge(first_row, offs);
    }

    /// Record one column's offsets for every row at once (`offs` holds
    /// one entry per known row). Same effect as [`record_range`] from row
    /// 0, without the copy when the column is new.
    ///
    /// [`record_range`]: PositionalMap::record_range
    pub fn record_column(&mut self, col: usize, offs: Offsets) {
        let Some(n) = self.row_count() else {
            return;
        };
        match self.cols.get_mut(&col) {
            None if offs.len() == n => {
                self.cols.insert(col, offs);
            }
            None => {
                let mut dense = Offsets::unknown(n);
                each!(&offs.vals, v => dense.merge(0, v));
                self.cols.insert(col, dense);
            }
            Some(dense) => each!(&offs.vals, v => dense.merge(0, v)),
        }
    }

    /// Best starting point for reaching `target_col` in row `row`: the
    /// largest known column ≤ target with a recorded offset for this row.
    /// Returns `(column, relative_offset)`. Column 0 needs no hint (offset 0).
    pub fn hint_for(&self, row: usize, target_col: usize) -> Option<(usize, u32)> {
        self.cols
            .range(..=target_col)
            .rev()
            .find_map(|(&col, offs)| offs.get(row).map(|o| (col, o)))
    }

    /// Fraction of rows with a known offset for `col` (diagnostics and
    /// which columns a load records), from each column's count of known
    /// rows. Column 0 starts at its row's first byte, so it is covered
    /// once the row starts are known and is never recorded.
    pub fn coverage(&self, col: usize) -> f64 {
        if col == 0 && self.row_starts.is_some() {
            return 1.0;
        }
        match self.cols.get(&col) {
            Some(v) if !v.is_empty() => v.known() as f64 / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Bytes the row starts and offsets hold.
    pub fn approx_bytes(&self) -> usize {
        let rows = self.row_starts.as_ref().map_or(0, |s| s.approx_bytes());
        rows + self.cols.values().map(Offsets::approx_bytes).sum::<usize>()
    }

    /// Drop everything (file changed).
    pub fn clear(&mut self) {
        self.row_starts = None;
        self.file_len = 0;
        self.cols.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with_rows(n: usize) -> PositionalMap {
        let mut m = PositionalMap::new();
        let starts = (0..n as u64).map(|i| i * 100).collect();
        m.set_row_starts(RowStarts::from_u64(starts, n as u64 * 100), n as u64 * 100);
        m
    }

    /// A column's offsets, `UNKNOWN` for a hole.
    fn offsets(m: &PositionalMap, col: usize) -> Vec<u32> {
        let o = m.col_offsets(col).unwrap();
        (0..o.len()).map(|r| o.get(r).unwrap_or(UNKNOWN)).collect()
    }

    /// The column's count of known rows equals the counted fraction.
    fn assert_counted(m: &PositionalMap, col: usize) {
        let counted = offsets(m, col).iter().filter(|&&o| o != UNKNOWN).count();
        let o = m.col_offsets(col).unwrap();
        assert_eq!(o.known(), counted);
        assert_eq!(m.coverage(col), counted as f64 / o.len() as f64);
    }

    #[test]
    fn empty_map_knows_nothing() {
        let m = PositionalMap::new();
        assert!(m.row_starts().is_none());
        assert_eq!(m.hint_for(0, 3), None);
        assert_eq!(m.coverage(0), 0.0);
    }

    #[test]
    fn column_zero_is_covered_by_the_row_starts() {
        let m = map_with_rows(3);
        assert_eq!(m.coverage(0), 1.0);
        assert_eq!(m.coverage(1), 0.0);
        assert!(m.known_columns().is_empty());
    }

    #[test]
    fn record_and_hint() {
        let mut m = map_with_rows(4);
        m.record_range(2, 0, &[5, 6, UNKNOWN, 8]);
        // Exact column hit.
        assert_eq!(m.hint_for(0, 2), Some((2, 5)));
        // Hole in row 2.
        assert_eq!(m.hint_for(2, 2), None);
        // Hint for a later target falls back to col 2.
        assert_eq!(m.hint_for(1, 5), Some((2, 6)));
        // Hint never uses columns beyond the target.
        assert_eq!(m.hint_for(0, 1), None);
    }

    #[test]
    fn hint_prefers_largest_known_column() {
        let mut m = map_with_rows(2);
        m.record_range(1, 0, &[3, 3]);
        m.record_range(4, 0, &[9, UNKNOWN]);
        assert_eq!(m.hint_for(0, 6), Some((4, 9)));
        // Row 1 has a hole at col 4 — falls back to col 1.
        assert_eq!(m.hint_for(1, 6), Some((1, 3)));
    }

    #[test]
    fn record_does_not_erase_with_unknown() {
        let mut m = map_with_rows(2);
        m.record_range(0, 0, &[7, 7]);
        m.record_range(0, 0, &[UNKNOWN, 9]);
        assert_eq!(offsets(&m, 0), [7, 9]);
    }

    #[test]
    fn record_range_offsets_by_first_row() {
        let mut m = map_with_rows(5);
        m.record_range(1, 3, &[11, 12]);
        assert_eq!(offsets(&m, 1), [UNKNOWN, UNKNOWN, UNKNOWN, 11, 12]);
        assert!((m.coverage(1) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn record_column_equals_record_range_from_zero() {
        let mut a = map_with_rows(3);
        let mut b = map_with_rows(3);
        let mut offs = Offsets::default();
        offs.extend(&[4, UNKNOWN, 6]);
        a.record_column(1, offs);
        b.record_range(1, 0, &[4, UNKNOWN, 6]);
        assert_eq!(a.col_offsets(1), b.col_offsets(1));
        // An existing column merges: unknown entries keep what was known.
        let mut offs = Offsets::default();
        offs.extend(&[UNKNOWN, 5, UNKNOWN]);
        a.record_column(1, offs);
        assert_eq!(offsets(&a, 1), [4, 5, 6]);
        assert_counted(&a, 1);
    }

    #[test]
    fn row_count_change_resets_columns() {
        let mut m = map_with_rows(3);
        m.record_range(0, 0, &[1, 2, 3]);
        assert_eq!(m.known_columns(), vec![0]);
        m.set_row_starts(RowStarts::from_u64(vec![0, 10], 20), 20); // file rewritten, fewer rows
        assert!(m.known_columns().is_empty());
    }

    #[test]
    fn approx_bytes_counts_rows_and_cols() {
        let mut m = map_with_rows(10);
        // u32 row starts.
        assert_eq!(m.approx_bytes(), 40);
        // u8 offsets, then u16 ones once a row needs them.
        m.record_range(1, 0, &[0; 10]);
        assert_eq!(m.approx_bytes(), 40 + 10);
        m.record_range(1, 9, &[300]);
        assert_eq!(m.approx_bytes(), 40 + 20);
        let wide = [0, 5 << 32];
        m.set_row_starts(RowStarts::from_u64(wide.to_vec(), 6 << 32), 6 << 32);
        assert_eq!(m.approx_bytes(), 16);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = map_with_rows(3);
        m.record_range(0, 0, &[1, 2, 3]);
        m.clear();
        assert!(m.row_starts().is_none());
        assert!(m.known_columns().is_empty());
    }

    #[test]
    fn offsets_take_the_narrowest_width_their_largest_needs() {
        // Each width's MAX is its sentinel, so it widens one value early.
        for (largest, width) in [
            (0, 1),
            (254, 1),
            (255, 2),
            (65_534, 2),
            (65_535, 4),
            (UNKNOWN - 1, 4),
        ] {
            let mut o = Offsets::default();
            o.extend(&[3, UNKNOWN, largest]);
            assert_eq!(o.width(), width, "{largest}");
            assert_eq!(
                (o.get(0), o.get(1), o.get(2)),
                (Some(3), None, Some(largest))
            );
            assert_eq!(o.known(), 2);
        }
        // Holes alone stay narrow.
        let mut o = Offsets::default();
        o.extend(&[UNKNOWN; 4]);
        assert_eq!((o.width(), o.known(), o.get(0)), (1, 0, None));
    }

    #[test]
    fn widening_keeps_every_earlier_offset_and_hole() {
        let mut o = Offsets::default();
        o.extend(&[0, UNKNOWN, 254]);
        o.extend(&[UNKNOWN, 255]);
        assert_eq!(o.width(), 2);
        o.extend(&[7, 70_000]);
        assert_eq!(o.width(), 4);
        // A narrow later part goes in at the width reached.
        o.extend(&[1, UNKNOWN]);
        assert_eq!(o.width(), 4);
        let all: Vec<Option<u32>> = (0..o.len()).map(|r| o.get(r)).collect();
        assert_eq!(
            all,
            [
                Some(0),
                None,
                Some(254),
                None,
                Some(255),
                Some(7),
                Some(70_000),
                Some(1),
                None
            ]
        );
        assert_eq!((o.known(), o.get(9)), (6, None));
    }

    #[test]
    fn row_starts_beyond_u32_keep_u64() {
        let big = u64::from(u32::MAX);
        // A region of exactly 4 GiB still fits: its last start is u32::MAX.
        let fits = RowStarts::from_u64(vec![0, big], big + 1);
        assert!(matches!(fits, RowStarts::U32(_)));
        assert_eq!(fits.get(1), Some(big));
        let starts = vec![0, big + 1, 5 << 32];
        let wide = RowStarts::from_u64(starts.clone(), (5 << 32) + 10);
        assert!(matches!(wide, RowStarts::U64(_)));
        assert_eq!(
            (0..3).map(|r| wide.get(r).unwrap()).collect::<Vec<_>>(),
            starts
        );
        let mut grown = RowStarts::for_len((5 << 32) + 10);
        grown.extend(&starts[..1]);
        grown.extend(&starts[1..]);
        assert_eq!(grown, wide);
        // Hints work from such a map like from any other.
        let mut m = PositionalMap::new();
        m.set_row_starts(wide, (5 << 32) + 10);
        m.record_range(1, 0, &[4, 600, UNKNOWN]);
        assert_eq!(m.hint_for(1, 3), Some((1, 600)));
        assert_eq!(m.row_starts().unwrap().get(2), Some(5 << 32));
    }

    #[test]
    fn record_range_merges_narrow_into_wide_and_wide_into_narrow() {
        // Wide into narrow: the narrow column widens, keeping its values.
        let mut m = map_with_rows(4);
        m.record_range(1, 0, &[1, UNKNOWN, 3, UNKNOWN]);
        m.record_range(1, 1, &[UNKNOWN, 70_000]);
        assert_eq!(m.col_offsets(1).unwrap().width(), 4);
        assert_eq!(offsets(&m, 1), [1, UNKNOWN, 70_000, UNKNOWN]);
        assert_counted(&m, 1);
        // Narrow into wide: the column stays wide.
        m.record_range(1, 1, &[2, UNKNOWN, 4]);
        assert_eq!(m.col_offsets(1).unwrap().width(), 4);
        assert_eq!(offsets(&m, 1), [1, 2, 70_000, 4]);
        assert_counted(&m, 1);
        // The same through whole columns of other widths.
        let mut narrow = Offsets::default();
        narrow.extend(&[UNKNOWN, 9, UNKNOWN, UNKNOWN]);
        let mut wide = Offsets::default();
        wide.extend(&[300, UNKNOWN, UNKNOWN, UNKNOWN]);
        m.record_column(2, narrow.clone());
        m.record_column(2, wide);
        assert_eq!(m.col_offsets(2).unwrap().width(), 2);
        assert_eq!(offsets(&m, 2), [300, 9, UNKNOWN, UNKNOWN]);
        m.record_column(2, narrow);
        assert_eq!(m.col_offsets(2).unwrap().width(), 2);
        assert_counted(&m, 2);
    }

    #[test]
    fn known_counts_follow_overlapping_writes_with_holes() {
        let mut m = map_with_rows(8);
        m.record_range(3, 2, &[5, UNKNOWN, 7]);
        assert_counted(&m, 3);
        // Overlaps known rows (rewritten, not recounted), fills holes and
        // brings holes of its own, which erase nothing.
        m.record_range(3, 0, &[1, UNKNOWN, 6, 8, UNKNOWN, 9]);
        assert_counted(&m, 3);
        assert_eq!(offsets(&m, 3), [1, UNKNOWN, 6, 8, 7, 9, UNKNOWN, UNKNOWN]);
        m.record_range(3, 1, &[UNKNOWN, 6, UNKNOWN, UNKNOWN, UNKNOWN, 2, 2]);
        assert_counted(&m, 3);
        assert_eq!(m.coverage(3), 7.0 / 8.0);
        // A short column recorded whole merges like a range from row 0.
        let mut short = Offsets::default();
        short.extend(&[UNKNOWN, 4]);
        m.record_column(3, short);
        assert_counted(&m, 3);
        assert_eq!(m.coverage(3), 1.0);
    }
}
