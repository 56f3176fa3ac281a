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
//! Offsets are stored relative to the row start as `u32` (a single CSV row
//! longer than 4 GiB is not a case worth carrying per-row `u64`s for), with
//! `u32::MAX` as the "unknown" sentinel — rows abandoned early by predicate
//! pushdown leave holes.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Sentinel for "offset not known for this row".
pub const UNKNOWN: u32 = u32::MAX;

/// Accumulated structural knowledge about one raw file.
#[derive(Debug, Clone, Default)]
pub struct PositionalMap {
    /// Byte offset of each row's first byte, in row order. `Arc` so scans
    /// can hold a cheap snapshot while the map gains columns.
    row_starts: Option<Arc<Vec<u64>>>,
    /// Total file length (needed to delimit the last row).
    file_len: u64,
    /// Per-column field-start offsets relative to the row start.
    cols: BTreeMap<usize, Vec<u32>>,
}

impl PositionalMap {
    /// An empty map (knows nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the phase-1 result. Resets column knowledge if the row count
    /// changed (the file was rewritten).
    pub fn set_row_starts(&mut self, starts: Vec<u64>, file_len: u64) {
        if let Some(old) = &self.row_starts {
            if old.len() != starts.len() {
                self.cols.clear();
            }
        }
        self.row_starts = Some(Arc::new(starts));
        self.file_len = file_len;
    }

    /// The known row starts, if phase 1 ever ran.
    pub fn row_starts(&self) -> Option<Arc<Vec<u64>>> {
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

    /// The offset vector for a column, if present.
    pub fn col_offsets(&self, col: usize) -> Option<&[u32]> {
        self.cols.get(&col).map(|v| v.as_slice())
    }

    /// Record offsets for a contiguous row range `[first_row, first_row+offs.len())`
    /// of one column. `UNKNOWN` entries in `offs` do not overwrite existing
    /// knowledge.
    pub fn record_range(&mut self, col: usize, first_row: usize, offs: &[u32]) {
        let Some(n) = self.row_count() else {
            return; // no row structure yet; offsets would be unanchored
        };
        let dense = self.cols.entry(col).or_insert_with(|| vec![UNKNOWN; n]);
        for (i, &o) in offs.iter().enumerate() {
            if o != UNKNOWN {
                dense[first_row + i] = o;
            }
        }
    }

    /// Record one column's offsets for every row at once (`offs` holds
    /// one entry per known row). Same effect as [`record_range`] from row
    /// 0, without the copy when the column is new.
    ///
    /// [`record_range`]: PositionalMap::record_range
    pub fn record_column(&mut self, col: usize, offs: Vec<u32>) {
        if !self.cols.contains_key(&col) && self.row_count() == Some(offs.len()) {
            self.cols.insert(col, offs);
        } else {
            self.record_range(col, 0, &offs);
        }
    }

    /// Best starting point for reaching `target_col` in row `row`: the
    /// largest known column ≤ target with a recorded offset for this row.
    /// Returns `(column, relative_offset)`. Column 0 needs no hint (offset 0).
    pub fn hint_for(&self, row: usize, target_col: usize) -> Option<(usize, u32)> {
        for (&col, offs) in self.cols.range(..=target_col).rev() {
            match offs.get(row) {
                Some(&o) if o != UNKNOWN => return Some((col, o)),
                _ => {}
            }
        }
        None
    }

    /// Fraction of rows with a known offset for `col` (diagnostics/tests).
    /// Column 0 starts at its row's first byte, so it is covered once the
    /// row starts are known and is never recorded.
    pub fn coverage(&self, col: usize) -> f64 {
        if col == 0 && self.row_starts.is_some() {
            return 1.0;
        }
        match self.cols.get(&col) {
            None => 0.0,
            Some(v) if v.is_empty() => 0.0,
            Some(v) => v.iter().filter(|&&o| o != UNKNOWN).count() as f64 / v.len() as f64,
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let rows = self.row_starts.as_ref().map(|s| s.len() * 8).unwrap_or(0);
        rows + self.cols.values().map(|v| v.len() * 4).sum::<usize>()
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
        m.set_row_starts((0..n as u64).map(|i| i * 100).collect(), n as u64 * 100);
        m
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
        assert_eq!(m.col_offsets(0).unwrap(), &[7, 9]);
    }

    #[test]
    fn record_range_offsets_by_first_row() {
        let mut m = map_with_rows(5);
        m.record_range(1, 3, &[11, 12]);
        let offs = m.col_offsets(1).unwrap();
        assert_eq!(offs[0], UNKNOWN);
        assert_eq!(offs[3], 11);
        assert_eq!(offs[4], 12);
        assert!((m.coverage(1) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn record_column_equals_record_range_from_zero() {
        let mut a = map_with_rows(3);
        let mut b = map_with_rows(3);
        a.record_column(1, vec![4, UNKNOWN, 6]);
        b.record_range(1, 0, &[4, UNKNOWN, 6]);
        assert_eq!(a.col_offsets(1), b.col_offsets(1));
        // An existing column merges: unknown entries keep what was known.
        a.record_column(1, vec![UNKNOWN, 5, UNKNOWN]);
        assert_eq!(a.col_offsets(1).unwrap(), &[4, 5, 6]);
    }

    #[test]
    fn row_count_change_resets_columns() {
        let mut m = map_with_rows(3);
        m.record_range(0, 0, &[1, 2, 3]);
        assert_eq!(m.known_columns(), vec![0]);
        m.set_row_starts(vec![0, 10], 20); // file rewritten, fewer rows
        assert!(m.known_columns().is_empty());
    }

    #[test]
    fn approx_bytes_counts_rows_and_cols() {
        let mut m = map_with_rows(10);
        let base = m.approx_bytes();
        assert_eq!(base, 80);
        m.record_range(0, 0, &[0; 10]);
        assert_eq!(m.approx_bytes(), 80 + 40);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = map_with_rows(3);
        m.record_range(0, 0, &[1, 2, 3]);
        m.clear();
        assert!(m.row_starts().is_none());
        assert!(m.known_columns().is_empty());
    }
}
