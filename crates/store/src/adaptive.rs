//! The adaptive store (paper §5.1).
//!
//! Storage created on-the-fly as data is incrementally brought in from flat
//! files. For one table the store may simultaneously hold:
//!
//! * **full columns** — dense arrays indexed by rowid (column loads),
//! * **fragments** — qualifying tuples of a past selection, remembered with
//!   the [`SelectionBox`] that produced them (partial loads; the store's
//!   "table of contents" is the set of fragment boxes plus per-column
//!   interval sets),
//! * **cracked columns** — adaptively indexed copies
//!   ([`PartitionedCracked`]), partitioned so concurrent queries refine
//!   independent pieces under separate locks.
//!
//! "Data parts loaded via adaptive loading and stored in any format may be
//! thrown away at any time. The only cost is that of having to reload"
//! (§5.1.3) — eviction is LRU by query sequence number under a byte budget.

use std::collections::BTreeMap;
use std::sync::Arc;

use nodb_types::{
    ColumnData, Error, Interval, IntervalSet, Result, SelectionBox, Value, WorkCounters,
};

use crate::cracking::PartitionedCracked;

/// A fully loaded column.
#[derive(Debug, Clone)]
pub struct FullColumn {
    /// The dense data, rowid == index. Shared so queries can hold it while
    /// the store keeps evolving.
    pub data: Arc<ColumnData>,
    /// Query sequence number of last use.
    pub last_used: u64,
}

/// Qualifying tuples of one past selection, kept for reuse.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The selection region these tuples were loaded with. Everything in
    /// the region is present — that is the reuse guarantee.
    pub bbox: SelectionBox,
    /// Ascending rowids of the qualifying tuples.
    pub rowids: Vec<u64>,
    /// Column values aligned with `rowids`.
    pub cols: BTreeMap<usize, ColumnData>,
    /// Query sequence number of last use.
    pub last_used: u64,
}

impl Fragment {
    /// Approximate memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.rowids.len() * 8
            + self
                .cols
                .values()
                .map(ColumnData::approx_bytes)
                .sum::<usize>()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rowids.len()
    }

    /// True when the fragment holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rowids.is_empty()
    }

    /// Restrict to a narrower box, returning rowids plus the requested
    /// columns. All box columns and requested columns must be present.
    pub fn restrict(
        &self,
        bx: &SelectionBox,
        needed: &[usize],
    ) -> Result<(Vec<u64>, BTreeMap<usize, ColumnData>)> {
        for col in bx.columns().iter().chain(needed) {
            if !self.cols.contains_key(col) {
                return Err(Error::schema(format!(
                    "fragment lacks column {col} required for restriction"
                )));
            }
        }
        let n = self.rowids.len();
        let mut keep: Vec<usize> = Vec::new();
        'rows: for i in 0..n {
            for (col, iv) in &bx.by_col {
                if !iv.contains(self.cols[col].get_ref(i)) {
                    continue 'rows;
                }
            }
            keep.push(i);
        }
        let rowids: Vec<u64> = keep.iter().map(|&i| self.rowids[i]).collect();
        let mut out = BTreeMap::new();
        for &col in needed {
            out.insert(col, self.cols[&col].take(&keep));
        }
        Ok((rowids, out))
    }

    /// Merge another fragment into this one (same column set required).
    /// Rowids are merged sorted-unique; the bounding box becomes the pair's
    /// union only when that union is expressible (same single constrained
    /// column) — otherwise the caller should keep the fragments separate.
    pub fn merge_same_columns(&mut self, other: &Fragment) -> Result<()> {
        let my_cols: Vec<usize> = self.cols.keys().copied().collect();
        let their_cols: Vec<usize> = other.cols.keys().copied().collect();
        if my_cols != their_cols {
            return Err(Error::schema(
                "cannot merge fragments with different column sets",
            ));
        }
        let mut rowids = Vec::with_capacity(self.rowids.len() + other.rowids.len());
        let mut take_self: Vec<usize> = Vec::new();
        let mut take_other: Vec<usize> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.rowids.len() || j < other.rowids.len() {
            match (self.rowids.get(i), other.rowids.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    rowids.push(a);
                    take_self.push(i);
                    take_other.push(usize::MAX);
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    rowids.push(a);
                    take_self.push(i);
                    take_other.push(usize::MAX);
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    rowids.push(b);
                    take_self.push(usize::MAX);
                    take_other.push(j);
                    j += 1;
                }
                (Some(&a), None) => {
                    rowids.push(a);
                    take_self.push(i);
                    take_other.push(usize::MAX);
                    i += 1;
                }
                (None, Some(&b)) => {
                    rowids.push(b);
                    take_self.push(usize::MAX);
                    take_other.push(j);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        let mut merged_cols = BTreeMap::new();
        for &col in &my_cols {
            let mine = &self.cols[&col];
            let theirs = &other.cols[&col];
            let mut out = ColumnData::with_capacity(mine.data_type(), rowids.len());
            for k in 0..rowids.len() {
                let v = if take_self[k] != usize::MAX {
                    mine.get(take_self[k])
                } else {
                    theirs.get(take_other[k])
                };
                out.push(v)?;
            }
            merged_cols.insert(col, out);
        }
        self.rowids = rowids;
        self.cols = merged_cols;
        self.last_used = self.last_used.max(other.last_used);
        Ok(())
    }
}

/// A cracked-column entry with usage tracking. The index is shared
/// (`Arc`): queries clone the handle and crack partitions under the
/// index's own per-partition locks, so concurrent range selections no
/// longer serialize on the store entry.
#[derive(Debug, Clone)]
pub struct CrackedEntry {
    /// The partitioned adaptive index.
    pub index: Arc<PartitionedCracked>,
    /// Query sequence number of last use.
    pub last_used: u64,
}

/// Everything the adaptive store holds for one table.
#[derive(Debug, Default)]
pub struct TableData {
    /// Known row count of the raw file, once discovered.
    nrows: Option<u64>,
    full: BTreeMap<usize, FullColumn>,
    fragments: BTreeMap<u64, Fragment>,
    next_fragment_id: u64,
    cracked: BTreeMap<usize, CrackedEntry>,
    bytes: usize,
}

impl TableData {
    /// Empty store.
    pub fn new() -> TableData {
        TableData::default()
    }

    /// Known row count, if any load established it.
    pub fn nrows(&self) -> Option<u64> {
        self.nrows
    }

    /// Record the table's row count (first full scan discovers it).
    pub fn set_nrows(&mut self, n: u64) {
        self.nrows = Some(n);
    }

    /// Total approximate bytes held.
    pub fn bytes_used(&self) -> usize {
        self.bytes
    }

    // ----- full columns -------------------------------------------------

    /// Is column `col` fully loaded?
    pub fn has_full(&self, col: usize) -> bool {
        self.full.contains_key(&col)
    }

    /// Fully loaded column, touching its LRU stamp.
    pub fn full_column(&mut self, col: usize, now: u64) -> Option<Arc<ColumnData>> {
        self.full.get_mut(&col).map(|f| {
            f.last_used = now;
            Arc::clone(&f.data)
        })
    }

    /// Peek without touching the LRU stamp.
    pub fn peek_full(&self, col: usize) -> Option<&Arc<ColumnData>> {
        self.full.get(&col).map(|f| &f.data)
    }

    /// Install a fully loaded column (owned, or shared with its producer).
    pub fn insert_full(&mut self, col: usize, data: impl Into<Arc<ColumnData>>, now: u64) {
        let data = data.into();
        self.set_nrows(data.len() as u64);
        let bytes = data.approx_bytes();
        if let Some(old) = self.full.insert(
            col,
            FullColumn {
                data,
                last_used: now,
            },
        ) {
            self.bytes -= old.data.approx_bytes();
        }
        self.bytes += bytes;
    }

    /// Which of `cols` are not fully loaded.
    pub fn missing_full(&self, cols: &[usize]) -> Vec<usize> {
        cols.iter()
            .copied()
            .filter(|c| !self.full.contains_key(c))
            .collect()
    }

    /// Ordinals of all fully loaded columns.
    pub fn full_columns(&self) -> Vec<usize> {
        self.full.keys().copied().collect()
    }

    // ----- fragments ----------------------------------------------------

    /// Install a fragment, returning its id.
    pub fn insert_fragment(&mut self, frag: Fragment) -> u64 {
        let id = self.next_fragment_id;
        self.next_fragment_id += 1;
        self.bytes += frag.approx_bytes();
        self.fragments.insert(id, frag);
        id
    }

    /// Ids of all fragments.
    pub fn fragment_ids(&self) -> Vec<u64> {
        self.fragments.keys().copied().collect()
    }

    /// Fragment by id (read-only).
    pub fn fragment(&self, id: u64) -> Option<&Fragment> {
        self.fragments.get(&id)
    }

    /// Touch a fragment's LRU stamp.
    pub fn touch_fragment(&mut self, id: u64, now: u64) {
        if let Some(f) = self.fragments.get_mut(&id) {
            f.last_used = now;
        }
    }

    /// Remove a fragment.
    pub fn remove_fragment(&mut self, id: u64) -> Option<Fragment> {
        let f = self.fragments.remove(&id);
        if let Some(f) = &f {
            self.bytes -= f.approx_bytes();
        }
        f
    }

    /// Replace a fragment in place (e.g., after merging in new tuples).
    pub fn replace_fragment(&mut self, id: u64, frag: Fragment) {
        if let Some(old) = self.fragments.get(&id) {
            self.bytes -= old.approx_bytes();
        }
        self.bytes += frag.approx_bytes();
        self.fragments.insert(id, frag);
    }

    /// Find the smallest stored fragment whose box covers `bx` and whose
    /// columns include every one of `needed`.
    pub fn find_covering_fragment(&self, bx: &SelectionBox, needed: &[usize]) -> Option<u64> {
        self.fragments
            .iter()
            .filter(|(_, f)| {
                bx.is_subset_of(&f.bbox) && needed.iter().all(|c| f.cols.contains_key(c))
            })
            .min_by_key(|(_, f)| f.len())
            .map(|(id, _)| *id)
    }

    /// Union of loaded value intervals for fragments constraining *only*
    /// `col` (the exact 1-D table of contents used for fetch-missing-only
    /// refinement).
    pub fn loaded_intervals(&self, col: usize, needed: &[usize]) -> IntervalSet {
        let mut set = IntervalSet::empty();
        for f in self.fragments.values() {
            if f.bbox.by_col.len() == 1 {
                if let Some(iv) = f.bbox.by_col.get(&col) {
                    if needed.iter().all(|c| f.cols.contains_key(c)) {
                        set.add(iv.clone());
                    }
                }
            }
        }
        set
    }

    /// Fragments whose box constrains only `col` and carry all of `needed`.
    pub fn one_dim_fragments(&self, col: usize, needed: &[usize]) -> Vec<u64> {
        self.fragments
            .iter()
            .filter(|(_, f)| {
                f.bbox.by_col.len() == 1
                    && f.bbox.by_col.contains_key(&col)
                    && needed.iter().all(|c| f.cols.contains_key(c))
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Collect the tuples of the given 1-D fragments falling inside `iv`,
    /// deduplicated by rowid and sorted.
    pub fn gather_one_dim(
        &self,
        ids: &[u64],
        col: usize,
        iv: &Interval,
        needed: &[usize],
    ) -> Result<(Vec<u64>, BTreeMap<usize, ColumnData>)> {
        let mut tuples: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
        for &id in ids {
            let f = self
                .fragment(id)
                .ok_or_else(|| Error::exec(format!("no fragment {id}")))?;
            for i in 0..f.len() {
                if iv.contains(f.cols[&col].get_ref(i)) {
                    tuples
                        .entry(f.rowids[i])
                        .or_insert_with(|| needed.iter().map(|c| f.cols[c].get(i)).collect());
                }
            }
        }
        let rowids: Vec<u64> = tuples.keys().copied().collect();
        let mut cols = BTreeMap::new();
        for (k, &c) in needed.iter().enumerate() {
            let ty = self
                .fragment(ids[0])
                .map(|f| f.cols[&c].data_type())
                .unwrap_or(nodb_types::DataType::Int64);
            let mut out = ColumnData::with_capacity(ty, rowids.len());
            for vals in tuples.values() {
                out.push(vals[k].clone())?;
            }
            cols.insert(c, out);
        }
        Ok((rowids, cols))
    }

    // ----- cracked columns ------------------------------------------------

    /// Is there a cracked copy of `col`?
    pub fn has_cracked(&self, col: usize) -> bool {
        self.cracked.contains_key(&col)
    }

    /// Install a cracked copy of `col`.
    pub fn insert_cracked(&mut self, col: usize, index: PartitionedCracked, now: u64) {
        let bytes = index.approx_bytes();
        if let Some(old) = self.cracked.insert(
            col,
            CrackedEntry {
                index: Arc::new(index),
                last_used: now,
            },
        ) {
            self.bytes -= old.index.approx_bytes();
        }
        self.bytes += bytes;
    }

    /// Shared handle to a cracked column, touching LRU. Cracking happens
    /// through the handle's per-partition locks; byte accounting is
    /// refreshed by the caller via [`TableData::refresh_cracked_bytes`].
    pub fn cracked(&mut self, col: usize, now: u64) -> Option<Arc<PartitionedCracked>> {
        self.cracked.get_mut(&col).map(|e| {
            e.last_used = now;
            Arc::clone(&e.index)
        })
    }

    /// Re-measure a cracked column after mutation.
    pub fn refresh_cracked_bytes(&mut self) {
        let total: usize = self.cracked.values().map(|e| e.index.approx_bytes()).sum();
        let others = self
            .full
            .values()
            .map(|f| f.data.approx_bytes())
            .sum::<usize>()
            + self
                .fragments
                .values()
                .map(Fragment::approx_bytes)
                .sum::<usize>();
        self.bytes = others + total;
    }

    // ----- lifetime -------------------------------------------------------

    /// Evict least-recently-used items until usage fits `budget_bytes`.
    /// Returns the number of bytes freed.
    pub fn evict_to_budget(&mut self, budget_bytes: usize, counters: &WorkCounters) -> usize {
        let start = self.bytes;
        while self.bytes > budget_bytes {
            // Find the globally least-recently-used item.
            let lru_full = self
                .full
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&c, f)| (f.last_used, ItemRef::Full(c)));
            let lru_frag = self
                .fragments
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&id, f)| (f.last_used, ItemRef::Frag(id)));
            let lru_crack = self
                .cracked
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&c, e)| (e.last_used, ItemRef::Crack(c)));
            let victim = [lru_full, lru_frag, lru_crack]
                .into_iter()
                .flatten()
                .min_by_key(|(stamp, _)| *stamp);
            match victim {
                None => break,
                Some((_, ItemRef::Full(c))) => {
                    if let Some(f) = self.full.remove(&c) {
                        self.bytes -= f.data.approx_bytes();
                        counters.add_tuples_evicted(f.data.len() as u64);
                    }
                }
                Some((_, ItemRef::Frag(id))) => {
                    if let Some(f) = self.fragments.remove(&id) {
                        self.bytes -= f.approx_bytes();
                        counters.add_tuples_evicted(f.len() as u64);
                    }
                }
                Some((_, ItemRef::Crack(c))) => {
                    if let Some(e) = self.cracked.remove(&c) {
                        self.bytes -= e.index.approx_bytes();
                        counters.add_tuples_evicted(e.index.len() as u64);
                    }
                }
            }
        }
        start - self.bytes
    }

    /// Drop everything (raw file changed, §5.4: "simply drop all relevant
    /// tables that have been created with data from this file").
    pub fn clear(&mut self) {
        self.full.clear();
        self.fragments.clear();
        self.cracked.clear();
        self.nrows = None;
        self.bytes = 0;
    }
}

enum ItemRef {
    Full(usize),
    Frag(u64),
    Crack(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::{CmpOp, ColPred, Conjunction};

    fn box_on(col: usize, lo: i64, hi: i64) -> SelectionBox {
        Conjunction::new(vec![
            ColPred::new(col, CmpOp::Gt, lo),
            ColPred::new(col, CmpOp::Lt, hi),
        ])
        .to_box()
        .unwrap()
    }

    fn frag(col: usize, lo: i64, hi: i64, rowids: Vec<u64>, vals: Vec<i64>) -> Fragment {
        let mut cols = BTreeMap::new();
        cols.insert(col, ColumnData::from_i64(vals));
        Fragment {
            bbox: box_on(col, lo, hi),
            rowids,
            cols,
            last_used: 0,
        }
    }

    #[test]
    fn full_column_lifecycle() {
        let mut t = TableData::new();
        assert!(!t.has_full(2));
        t.insert_full(2, ColumnData::from_i64(vec![1, 2, 3]), 1);
        assert!(t.has_full(2));
        assert_eq!(t.nrows(), Some(3));
        assert_eq!(t.missing_full(&[0, 2, 5]), vec![0, 5]);
        let col = t.full_column(2, 9).unwrap();
        assert_eq!(col.as_i64_slice().unwrap(), &[1, 2, 3]);
        assert!(t.bytes_used() >= 24);
    }

    #[test]
    fn reinsert_full_column_does_not_double_count() {
        let mut t = TableData::new();
        t.insert_full(0, ColumnData::from_i64(vec![1; 100]), 1);
        let b = t.bytes_used();
        t.insert_full(0, ColumnData::from_i64(vec![2; 100]), 2);
        assert_eq!(t.bytes_used(), b);
    }

    #[test]
    fn covering_fragment_lookup() {
        let mut t = TableData::new();
        let id = t.insert_fragment(frag(0, 10, 50, vec![1, 5, 9], vec![20, 30, 40]));
        // Narrower query on the same column: covered.
        assert_eq!(t.find_covering_fragment(&box_on(0, 15, 45), &[0]), Some(id));
        // Wider: not covered.
        assert_eq!(t.find_covering_fragment(&box_on(0, 5, 45), &[0]), None);
        // Different column: not covered.
        assert_eq!(t.find_covering_fragment(&box_on(1, 15, 45), &[0]), None);
        // Needs a column the fragment lacks.
        assert_eq!(t.find_covering_fragment(&box_on(0, 15, 45), &[7]), None);
    }

    #[test]
    fn smallest_covering_fragment_wins() {
        let mut t = TableData::new();
        let _big = t.insert_fragment(frag(0, 0, 100, vec![1, 2, 3, 4], vec![10, 20, 30, 40]));
        let small = t.insert_fragment(frag(0, 10, 50, vec![2, 3], vec![20, 30]));
        assert_eq!(
            t.find_covering_fragment(&box_on(0, 15, 45), &[0]),
            Some(small)
        );
    }

    #[test]
    fn fragment_restrict_filters_tuples() {
        let f = frag(0, 0, 100, vec![1, 5, 9], vec![10, 50, 90]);
        let (rowids, cols) = f.restrict(&box_on(0, 20, 95), &[0]).unwrap();
        assert_eq!(rowids, vec![5, 9]);
        assert_eq!(cols[&0].as_i64_slice().unwrap(), &[50, 90]);
    }

    #[test]
    fn fragment_restrict_missing_column_errors() {
        let f = frag(0, 0, 100, vec![1], vec![10]);
        assert!(f.restrict(&box_on(1, 0, 5), &[0]).is_err());
        assert!(f.restrict(&box_on(0, 0, 5), &[3]).is_err());
    }

    #[test]
    fn fragment_merge_unions_rowids() {
        let mut a = frag(0, 0, 50, vec![1, 3, 5], vec![10, 30, 50]);
        let b = frag(0, 40, 90, vec![3, 7], vec![30, 70]);
        a.merge_same_columns(&b).unwrap();
        assert_eq!(a.rowids, vec![1, 3, 5, 7]);
        assert_eq!(a.cols[&0].as_i64_slice().unwrap(), &[10, 30, 50, 70]);
    }

    #[test]
    fn fragment_merge_requires_same_columns() {
        let mut a = frag(0, 0, 50, vec![1], vec![10]);
        let b = frag(1, 0, 50, vec![2], vec![20]);
        assert!(a.merge_same_columns(&b).is_err());
    }

    #[test]
    fn one_dim_toc_and_gather() {
        let mut t = TableData::new();
        t.insert_fragment(frag(0, 0, 50, vec![1, 2], vec![10, 40]));
        t.insert_fragment(frag(0, 60, 100, vec![5, 6], vec![70, 90]));
        // A 2-D fragment must not pollute the 1-D ToC.
        let mut two_d = frag(0, 0, 200, vec![9], vec![100]);
        two_d
            .bbox
            .by_col
            .insert(1, box_on(1, 0, 10).by_col[&1].clone());
        t.insert_fragment(two_d);

        let toc = t.loaded_intervals(0, &[0]);
        assert_eq!(toc.intervals().len(), 2);
        let target = box_on(0, 20, 80).by_col[&0].clone();
        assert!(!toc.covers(&target));
        let gaps = toc.missing(&target);
        assert_eq!(gaps.len(), 1);

        let ids = t.one_dim_fragments(0, &[0]);
        assert_eq!(ids.len(), 2);
        let iv = box_on(0, 0, 100).by_col[&0].clone();
        let (rowids, cols) = t.gather_one_dim(&ids, 0, &iv, &[0]).unwrap();
        assert_eq!(rowids, vec![1, 2, 5, 6]);
        assert_eq!(cols[&0].as_i64_slice().unwrap(), &[10, 40, 70, 90]);
    }

    #[test]
    fn eviction_is_lru_until_budget() {
        let c = WorkCounters::new();
        let mut t = TableData::new();
        t.insert_full(0, ColumnData::from_i64(vec![0; 1000]), 1); // oldest
        t.insert_full(1, ColumnData::from_i64(vec![0; 1000]), 5);
        t.insert_fragment(Fragment {
            last_used: 3,
            ..frag(
                2,
                0,
                10,
                vec![0; 500].iter().map(|_| 0u64).collect(),
                vec![0; 500],
            )
        });
        let before = t.bytes_used();
        assert!(before > 16000);
        let freed = t.evict_to_budget(before - 8000, &c);
        assert!(freed >= 8000);
        // Column 0 (stamp 1) must be gone first.
        assert!(!t.has_full(0));
        assert!(t.has_full(1));
        assert!(c.snapshot().tuples_evicted >= 1000);
    }

    #[test]
    fn evict_everything_when_budget_zero() {
        let c = WorkCounters::new();
        let mut t = TableData::new();
        t.insert_full(0, ColumnData::from_i64(vec![1, 2, 3]), 1);
        t.insert_fragment(frag(0, 0, 10, vec![1], vec![5]));
        t.evict_to_budget(0, &c);
        assert_eq!(t.bytes_used(), 0);
        assert!(t.full_columns().is_empty());
        assert!(t.fragment_ids().is_empty());
    }

    #[test]
    fn cracked_column_accounting() {
        let c = WorkCounters::new();
        let mut t = TableData::new();
        t.insert_cracked(0, PartitionedCracked::new((0..100).collect(), 4), 1);
        assert!(t.has_cracked(0));
        let b = t.bytes_used();
        assert!(b >= 1600);
        {
            let idx = t.cracked(0, 2).unwrap();
            let iv = box_on(0, 10, 20).by_col[&0].clone();
            idx.select(&iv).unwrap();
        }
        t.refresh_cracked_bytes();
        assert!(t.bytes_used() >= b); // cracking adds index entries
        t.evict_to_budget(0, &c);
        assert!(!t.has_cracked(0));
    }

    #[test]
    fn clear_resets_all_state() {
        let mut t = TableData::new();
        t.insert_full(0, ColumnData::from_i64(vec![1]), 1);
        t.insert_fragment(frag(0, 0, 10, vec![0], vec![1]));
        t.insert_cracked(0, PartitionedCracked::new(vec![1], 2), 1);
        t.clear();
        assert_eq!(t.bytes_used(), 0);
        assert_eq!(t.nrows(), None);
        assert!(t.full_columns().is_empty());
    }
}
