//! Database cracking — the adaptive index behind Figure 1's "Index DB"
//! curve (Idreos, Kersten, Manegold, CIDR 2007; the paper's reference 12).
//!
//! A cracked column physically reorganises its value array as a side effect
//! of range queries: each selection partitions the piece(s) overlapping its
//! bounds, so the column converges towards sorted order exactly where the
//! workload looks. Tuple reconstruction is supported by carrying a rowid
//! permutation alongside the values.
//!
//! Only `i64` columns crack (the paper's workloads are unique integers);
//! other types fall back to scans in the execution layer.

use std::collections::BTreeMap;
use std::sync::Mutex;

use nodb_types::{Bound, Interval, Value};

/// An adaptively indexed integer column.
#[derive(Debug, Clone)]
pub struct CrackedColumn {
    vals: Vec<i64>,
    rowids: Vec<u64>,
    /// Piece boundaries: an entry `(v, p)` guarantees `vals[..p] < v` and
    /// `vals[p..] >= v`.
    index: BTreeMap<i64, usize>,
    cracks: u64,
    /// Rows of the pieces those cracks partitioned.
    partitioned: u64,
}

impl CrackedColumn {
    /// Build from a dense column (rowid `i` = position `i`).
    pub fn new(vals: Vec<i64>) -> CrackedColumn {
        let n = vals.len();
        CrackedColumn {
            vals,
            rowids: (0..n as u64).collect(),
            index: BTreeMap::new(),
            cracks: 0,
            partitioned: 0,
        }
    }

    /// Build from values paired with explicit rowids.
    pub fn with_rowids(vals: Vec<i64>, rowids: Vec<u64>) -> CrackedColumn {
        assert_eq!(vals.len(), rowids.len());
        CrackedColumn {
            vals,
            rowids,
            index: BTreeMap::new(),
            cracks: 0,
            partitioned: 0,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of physical reorganisation (partition) steps performed.
    pub fn crack_count(&self) -> u64 {
        self.cracks
    }

    /// Rows physically handled by those steps: each crack partitions one
    /// whole piece. Stops growing once the queried bounds have converged.
    pub fn rows_partitioned(&self) -> u64 {
        self.partitioned
    }

    /// Number of pieces the column is currently divided into.
    pub fn piece_count(&self) -> usize {
        self.index.len() + 1
    }

    /// Approximate memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.vals.len() * 8 + self.rowids.len() * 8 + self.index.len() * 24
    }

    /// Answer a range selection: returns the contiguous `(values, rowids)`
    /// region holding exactly the values inside `iv`, cracking the column
    /// as a side effect. `None` when the interval is not integer-expressible.
    pub fn select(&mut self, iv: &Interval) -> Option<(&[i64], &[u64])> {
        let (lo, hi) = CrackedColumn::int_bounds(iv).ok()?;
        let a = match lo {
            Some(v) => self.crack_at(v),
            None => 0,
        };
        let b = match hi {
            Some(v) => self.crack_at(v),
            None => self.vals.len(),
        };
        let (a, b) = (a.min(b), b.max(a));
        Some((&self.vals[a..b], &self.rowids[a..b]))
    }

    /// Ensure a piece boundary exists at `v` (`vals[..p] < v <= vals[p..]`)
    /// and return its position.
    fn crack_at(&mut self, v: i64) -> usize {
        if let Some(&p) = self.index.get(&v) {
            return p;
        }
        let lo = self
            .index
            .range(..v)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let hi = self
            .index
            .range(v..)
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.vals.len());
        let p = lo + partition(&mut self.vals[lo..hi], &mut self.rowids[lo..hi], v);
        self.index.insert(v, p);
        self.cracks += 1;
        self.partitioned += (hi - lo) as u64;
        p
    }

    /// The raw (reorganised) values — for tests and diagnostics.
    pub fn values(&self) -> &[i64] {
        &self.vals
    }

    /// The rowid permutation aligned with [`CrackedColumn::values`].
    pub fn rowids(&self) -> &[u64] {
        &self.rowids
    }

    /// Restore a consistent state after a panic unwound mid-operation
    /// (observed as a poisoned piece lock). A panic inside `crack_at` can
    /// leave `partition`'s swaps half-applied, so recorded boundaries may
    /// no longer hold — but every swap moves a `(value, rowid)` pair
    /// together, so the arrays are still a valid permutation of the
    /// column. Dropping the piece index keeps answers correct (it is pure
    /// acceleration state) and lets subsequent selections re-crack from
    /// scratch.
    fn recover_from_poison(&mut self) {
        self.index.clear();
    }

    /// Check the internal piece invariant (used by tests; O(n log n)).
    pub fn check_invariants(&self) -> bool {
        for (&v, &p) in &self.index {
            if p > self.vals.len() {
                return false;
            }
            if self.vals[..p].iter().any(|&x| x >= v) {
                return false;
            }
            if self.vals[p..].iter().any(|&x| x < v) {
                return false;
            }
        }
        true
    }
}

impl CrackedColumn {
    /// Interval bounds as `(first included, first excluded)` integer
    /// values, `None` per side for unbounded. `Err(())` when the interval
    /// is not integer-expressible (float bounds, overflow).
    #[allow(clippy::result_unit_err)]
    pub(crate) fn int_bounds(iv: &Interval) -> std::result::Result<(Option<i64>, Option<i64>), ()> {
        let lo = match iv.lo() {
            Bound::Unbounded => None,
            Bound::Inclusive(Value::Int(v)) => Some(*v),
            Bound::Exclusive(Value::Int(v)) => Some(v.checked_add(1).ok_or(())?),
            _ => return Err(()),
        };
        let hi = match iv.hi() {
            Bound::Unbounded => None,
            Bound::Inclusive(Value::Int(v)) => Some(v.checked_add(1).ok_or(())?),
            Bound::Exclusive(Value::Int(v)) => Some(*v),
            _ => return Err(()),
        };
        Ok((lo, hi))
    }
}

/// A partitioned adaptive index: the value array is split into contiguous
/// row-range partitions, each an independently cracking [`CrackedColumn`]
/// behind its own lock. A range selection cracks every partition it
/// touches, but two concurrent queries only contend when they lock the
/// same partition at the same moment — the whole-column entry lock the
/// serial design serialized on is gone. Partition piece indexes stay
/// per-partition; [`PartitionedCracked::merged_boundaries`] merges them
/// into the column-wide table of contents.
///
/// Selection results concatenate partition results in partition order;
/// within a partition values come back in cracked-array order. Callers
/// that need a canonical order sort the returned rowids (the engine's
/// access path does).
#[derive(Debug)]
pub struct PartitionedCracked {
    parts: Vec<Mutex<CrackedColumn>>,
    n: usize,
}

/// Lock one cracked piece, recovering from poisoning: a query that
/// panicked mid-crack (and was contained by the panic firewall) must not
/// wedge the table for every later query. The recovered piece drops its
/// boundary index — see [`CrackedColumn::recover_from_poison`].
fn lock_piece(piece: &Mutex<CrackedColumn>) -> std::sync::MutexGuard<'_, CrackedColumn> {
    match piece.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            let mut g = poisoned.into_inner();
            g.recover_from_poison();
            g
        }
    }
}

impl PartitionedCracked {
    /// Build from a dense column (rowid `i` = position `i`), split into
    /// `partitions` contiguous row ranges (clamped to at least 1 and at
    /// most one per value).
    pub fn new(vals: Vec<i64>, partitions: usize) -> PartitionedCracked {
        let n = vals.len();
        let p = partitions.clamp(1, n.max(1));
        let per = n.div_ceil(p).max(1);
        let mut parts = Vec::with_capacity(p);
        let mut vals = vals;
        // Split back-to-front so each partition takes ownership of its
        // slice without copying the whole prefix repeatedly.
        let mut tails: Vec<(usize, Vec<i64>)> = Vec::with_capacity(p);
        let mut cut = n;
        while cut > 0 {
            let lo = cut.saturating_sub(per);
            tails.push((lo, vals.split_off(lo)));
            cut = lo;
        }
        for (lo, tail) in tails.into_iter().rev() {
            let rowids: Vec<u64> = (lo as u64..(lo + tail.len()) as u64).collect();
            parts.push(Mutex::new(CrackedColumn::with_rowids(tail, rowids)));
        }
        if parts.is_empty() {
            parts.push(Mutex::new(CrackedColumn::new(Vec::new())));
        }
        PartitionedCracked { parts, n }
    }

    /// Number of values across all partitions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of row-range partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Total physical reorganisation steps across partitions.
    pub fn crack_count(&self) -> u64 {
        self.parts.iter().map(|p| lock_piece(p).crack_count()).sum()
    }

    /// Total rows those steps partitioned, across partitions.
    pub fn rows_partitioned(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| lock_piece(p).rows_partitioned())
            .sum()
    }

    /// The merged piece index: distinct crack boundary values across every
    /// partition, ascending. The column-wide piece count is
    /// `merged_boundaries().len() + 1`.
    pub fn merged_boundaries(&self) -> Vec<i64> {
        let mut all: Vec<i64> = Vec::new();
        for p in &self.parts {
            let part = lock_piece(p);
            all.extend(part.index.keys().copied());
        }
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Number of pieces in the merged column-wide index.
    pub fn piece_count(&self) -> usize {
        self.merged_boundaries().len() + 1
    }

    /// Approximate memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| lock_piece(p).approx_bytes())
            .sum()
    }

    /// Answer a range selection: the `(values, rowids)` of every value
    /// inside `iv`, cracking each touched partition under its own lock.
    /// `None` when the interval is not integer-expressible.
    pub fn select(&self, iv: &Interval) -> Option<(Vec<i64>, Vec<u64>)> {
        self.select_parallel(iv, 1)
    }

    /// Is every partition already cracked at both of the selection's
    /// bounds? Then a select reorganises nothing — it just copies the
    /// converged pieces out.
    fn converged_at(&self, lo: Option<i64>, hi: Option<i64>) -> bool {
        self.parts.iter().all(|p| {
            let part = lock_piece(p);
            lo.is_none_or(|v| part.index.contains_key(&v))
                && hi.is_none_or(|v| part.index.contains_key(&v))
        })
    }

    /// [`PartitionedCracked::select`] with up to `threads` stealing
    /// workers cracking partitions concurrently (morsel-local locking:
    /// each worker holds only the lock of the partition it refines).
    /// Results concatenate in partition order regardless of scheduling.
    /// When every partition has already converged at the query's bounds
    /// the select runs inline — copying converged pieces takes
    /// microseconds, so thread dispatch would only add overhead.
    pub fn select_parallel(&self, iv: &Interval, threads: usize) -> Option<(Vec<i64>, Vec<u64>)> {
        // Cracking time on the coordinating thread (the partition workers
        // run strictly inside this call); one thread-local read when no
        // profile is armed.
        let _p = nodb_types::profile::phase(nodb_types::profile::Phase::Cracking);
        /// One partition's selection result: `(values, rowids)`.
        type PartResult = (Vec<i64>, Vec<u64>);
        let (lo, hi) = CrackedColumn::int_bounds(iv).ok()?;
        let threads = if threads > 1 && self.converged_at(lo, hi) {
            1
        } else {
            threads
        };
        let slots: Vec<Mutex<Option<PartResult>>> =
            (0..self.parts.len()).map(|_| Mutex::new(None)).collect();
        nodb_types::drive_morsels(
            self.parts.len(),
            1,
            threads,
            |_w| (),
            |_s, _w, r| {
                let mut part = lock_piece(&self.parts[r.index]);
                let (vals, ids) = part.select(iv).expect("int bounds pre-checked");
                // A sibling panicking while storing its slot must not
                // cascade; the slot value is either None or complete.
                *slots[r.index].lock().unwrap_or_else(|p| p.into_inner()) =
                    Some((vals.to_vec(), ids.to_vec()));
                Ok(())
            },
            |_s| {},
        )
        .ok()?;
        let mut vals = Vec::new();
        let mut ids = Vec::new();
        for s in slots {
            let (mut v, mut i) = s.into_inner().unwrap_or_else(|p| p.into_inner())?;
            vals.append(&mut v);
            ids.append(&mut i);
        }
        Some((vals, ids))
    }

    /// Check every partition's internal piece invariant (tests; O(n log n)).
    pub fn check_invariants(&self) -> bool {
        self.parts.iter().all(|p| lock_piece(p).check_invariants())
    }
}

/// Two-sided in-place partition: after the call, elements `< pivot` precede
/// the returned split point and elements `>= pivot` follow it. Rowids move
/// with their values.
fn partition(vals: &mut [i64], rowids: &mut [u64], pivot: i64) -> usize {
    let mut i = 0;
    let mut j = vals.len();
    loop {
        while i < j && vals[i] < pivot {
            i += 1;
        }
        while i < j && vals[j - 1] >= pivot {
            j -= 1;
        }
        if i >= j {
            return i;
        }
        vals.swap(i, j - 1);
        rowids.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::{CmpOp, ColPred};

    fn interval(lo: i64, hi: i64) -> Interval {
        // Paper-style strict range: lo < x < hi.
        let c = nodb_types::Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, lo),
            ColPred::new(0, CmpOp::Lt, hi),
        ]);
        c.to_box().unwrap().by_col.get(&0).unwrap().clone()
    }

    #[test]
    fn select_returns_exactly_range_values() {
        let mut c = CrackedColumn::new(vec![5, 1, 9, 3, 7, 0, 8, 2, 6, 4]);
        let (vals, rowids) = c.select(&interval(2, 7)).unwrap();
        let mut got: Vec<i64> = vals.to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![3, 4, 5, 6]);
        assert_eq!(vals.len(), rowids.len());
        assert!(c.check_invariants());
    }

    #[test]
    fn rowids_track_values() {
        let orig = vec![5i64, 1, 9, 3, 7];
        let mut c = CrackedColumn::new(orig.clone());
        let (vals, rowids) = c.select(&interval(0, 10)).unwrap();
        for (v, r) in vals.iter().zip(rowids) {
            assert_eq!(orig[*r as usize], *v);
        }
    }

    #[test]
    fn repeated_queries_reuse_pieces() {
        let mut c = CrackedColumn::new((0..1000).rev().collect());
        c.select(&interval(100, 200)).unwrap();
        let cracks_after_first = c.crack_count();
        assert_eq!(cracks_after_first, 2);
        // Same query again: no new cracks.
        c.select(&interval(100, 200)).unwrap();
        assert_eq!(c.crack_count(), cracks_after_first);
        // Overlapping query adds at most 2 more.
        c.select(&interval(150, 250)).unwrap();
        assert!(c.crack_count() <= cracks_after_first + 2);
        assert!(c.check_invariants());
    }

    #[test]
    fn unbounded_sides() {
        let mut c = CrackedColumn::new(vec![3, 1, 2]);
        let all = Interval::all();
        let (vals, _) = c.select(&all).unwrap();
        assert_eq!(vals.len(), 3);
        let half = nodb_types::Conjunction::new(vec![ColPred::new(0, CmpOp::Ge, 2i64)])
            .to_box()
            .unwrap()
            .by_col[&0]
            .clone();
        let (vals, _) = c.select(&half).unwrap();
        let mut got = vals.to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn poisoned_piece_recovers_and_answers_correctly() {
        let pc = std::sync::Arc::new(PartitionedCracked::new((0..100).rev().collect(), 4));
        // Crack a bit first so the recovery actually discards state.
        pc.select(&interval(10, 90)).unwrap();
        assert!(pc.crack_count() > 0);
        // Poison one partition's lock: a thread panics while holding it
        // mid-"crack" (index mutated, then unwound).
        let pc2 = std::sync::Arc::clone(&pc);
        std::thread::spawn(move || {
            let mut g = pc2.parts[1].lock().unwrap();
            g.index.insert(i64::MAX, usize::MAX); // bogus half-applied boundary
            panic!("injected mid-crack panic");
        })
        .join()
        .unwrap_err();
        assert!(pc.parts[1].lock().is_err(), "lock must be poisoned");
        // Later queries on the same table still answer correctly: the
        // poisoned piece drops its (possibly bogus) index and re-cracks.
        let (vals, ids) = pc.select(&interval(20, 40)).unwrap();
        let mut got = vals.clone();
        got.sort_unstable();
        assert_eq!(got, (21..40).collect::<Vec<i64>>());
        for (v, r) in vals.iter().zip(&ids) {
            assert_eq!(99 - *r as i64, *v, "rowids still track values");
        }
        assert!(pc.check_invariants());
    }

    #[test]
    fn empty_result_ranges() {
        let mut c = CrackedColumn::new(vec![10, 20, 30]);
        let (vals, _) = c.select(&interval(21, 29)).unwrap();
        assert!(vals.is_empty());
        let (vals, _) = c.select(&interval(100, 200)).unwrap();
        assert!(vals.is_empty());
        assert!(c.check_invariants());
    }

    #[test]
    fn empty_column() {
        let mut c = CrackedColumn::new(vec![]);
        let (vals, rowids) = c.select(&interval(0, 10)).unwrap();
        assert!(vals.is_empty() && rowids.is_empty());
    }

    #[test]
    fn duplicates_handled() {
        let mut c = CrackedColumn::new(vec![5, 5, 5, 1, 1, 9]);
        let (vals, _) = c.select(&interval(4, 6)).unwrap();
        assert_eq!(vals, &[5, 5, 5]);
        assert!(c.check_invariants());
    }

    #[test]
    fn float_interval_unsupported() {
        let mut c = CrackedColumn::new(vec![1, 2, 3]);
        let iv = Interval::new(Bound::Inclusive(Value::Float(1.5)), Bound::Unbounded).unwrap();
        assert!(c.select(&iv).is_none());
    }

    #[test]
    fn piece_count_grows_with_distinct_bounds() {
        let mut c = CrackedColumn::new((0..100).collect());
        assert_eq!(c.piece_count(), 1);
        c.select(&interval(10, 20)).unwrap();
        assert_eq!(c.piece_count(), 3);
        c.select(&interval(50, 60)).unwrap();
        assert_eq!(c.piece_count(), 5);
    }

    #[test]
    fn partitioned_select_matches_single_column() {
        let n = 10_000i64;
        let vals: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
        let mut single = CrackedColumn::new(vals.clone());
        for parts in [1, 3, 8, 64] {
            let part = PartitionedCracked::new(vals.clone(), parts);
            assert_eq!(part.len(), vals.len());
            assert!(part.partition_count() <= parts.max(1));
            for (lo, hi) in [(100, 900), (0, 50), (9000, 20000), (-5, 3)] {
                let (sv, sids) = single.select(&interval(lo, hi)).unwrap();
                let (pv, pids) = part.select(&interval(lo, hi)).unwrap();
                let mut s: Vec<(i64, u64)> = sv.iter().copied().zip(sids.iter().copied()).collect();
                let mut p: Vec<(i64, u64)> = pv.into_iter().zip(pids).collect();
                s.sort_unstable();
                p.sort_unstable();
                assert_eq!(p, s, "parts={parts} range=({lo},{hi})");
            }
            assert!(part.check_invariants());
        }
    }

    #[test]
    fn partitioned_merged_boundaries_union_pieces() {
        let part = PartitionedCracked::new((0..1000).rev().collect(), 4);
        assert_eq!(part.piece_count(), 1);
        part.select(&interval(100, 200)).unwrap();
        // Each touched partition cracked at the same two bounds; the
        // merged index still has exactly two distinct boundary values.
        assert_eq!(part.merged_boundaries(), vec![101, 200]);
        assert_eq!(part.piece_count(), 3);
        assert!(part.crack_count() >= 2);
    }

    #[test]
    fn partitioned_empty_and_float_bounds() {
        let part = PartitionedCracked::new(vec![], 4);
        let (v, r) = part.select(&interval(0, 10)).unwrap();
        assert!(v.is_empty() && r.is_empty());
        let part = PartitionedCracked::new(vec![1, 2, 3], 2);
        let iv = Interval::new(Bound::Inclusive(Value::Float(1.5)), Bound::Unbounded).unwrap();
        assert!(part.select(&iv).is_none());
    }

    #[test]
    fn racing_range_queries_crack_correctly() {
        // The partitioned-index concurrency contract: many threads racing
        // overlapping range selections (each cracking partitions under
        // morsel-local locks, some using intra-query parallelism) never
        // corrupt the index and always get exactly the in-range values.
        use std::sync::Arc;
        let n = 20_000i64;
        let vals: Vec<i64> = (0..n).map(|i| (i * 6151) % n).collect();
        let index = Arc::new(PartitionedCracked::new(vals.clone(), 8));
        let mut handles = Vec::new();
        for t in 0..8i64 {
            let index = Arc::clone(&index);
            let vals = vals.clone();
            handles.push(std::thread::spawn(move || {
                for q in 0..12i64 {
                    let lo = (t * 997 + q * 1913) % (n - 100);
                    let hi = lo + 50 + (q * 37) % 2000;
                    let iv = interval(lo, hi);
                    let (got_vals, got_ids) =
                        index.select_parallel(&iv, 1 + (q % 3) as usize).unwrap();
                    let mut got = got_vals.clone();
                    got.sort_unstable();
                    let mut want: Vec<i64> =
                        vals.iter().copied().filter(|&v| v > lo && v < hi).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "thread {t} query {q} range ({lo},{hi})");
                    for (v, r) in got_vals.iter().zip(&got_ids) {
                        assert_eq!(vals[*r as usize], *v);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(index.check_invariants());
        // Every query raced above converged pieces somewhere.
        assert!(index.crack_count() > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Cracking preserves the multiset of (value, rowid) pairs and
            /// every select returns exactly the in-range values.
            #[test]
            fn crack_preserves_and_selects(
                vals in proptest::collection::vec(-100i64..100, 0..200),
                queries in proptest::collection::vec((-110i64..110, 2i64..50), 1..12)) {
                let mut expected_pairs: Vec<(i64, u64)> = vals
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, i as u64))
                    .collect();
                expected_pairs.sort_unstable();
                let mut c = CrackedColumn::new(vals.clone());
                for (lo, w) in queries {
                    let hi = lo + w;
                    let (got_vals, got_ids) = c.select(&interval(lo, hi)).unwrap();
                    let mut got: Vec<i64> = got_vals.to_vec();
                    got.sort_unstable();
                    let mut want: Vec<i64> = vals.iter().copied()
                        .filter(|&v| v > lo && v < hi).collect();
                    want.sort_unstable();
                    prop_assert_eq!(&got, &want);
                    // Rowids still point at the right original values.
                    for (v, r) in got_vals.iter().zip(got_ids) {
                        prop_assert_eq!(vals[*r as usize], *v);
                    }
                    prop_assert!(c.check_invariants());
                }
                // Multiset preserved.
                let mut pairs: Vec<(i64, u64)> = c.values().iter().copied()
                    .zip(c.rowids().iter().copied()).collect();
                pairs.sort_unstable();
                prop_assert_eq!(pairs, expected_pairs);
            }

            /// The partitioned index answers every range exactly like a
            /// filter, for any partition count, and keeps its invariants.
            #[test]
            fn partitioned_selects_exactly(
                vals in proptest::collection::vec(-100i64..100, 0..200),
                parts in 1usize..9,
                queries in proptest::collection::vec((-110i64..110, 2i64..50), 1..8)) {
                let idx = PartitionedCracked::new(vals.clone(), parts);
                for (lo, w) in queries {
                    let hi = lo + w;
                    let (got_vals, got_ids) = idx.select(&interval(lo, hi)).unwrap();
                    let mut got = got_vals.clone();
                    got.sort_unstable();
                    let mut want: Vec<i64> = vals.iter().copied()
                        .filter(|&v| v > lo && v < hi).collect();
                    want.sort_unstable();
                    prop_assert_eq!(&got, &want);
                    for (v, r) in got_vals.iter().zip(&got_ids) {
                        prop_assert_eq!(vals[*r as usize], *v);
                    }
                    prop_assert!(idx.check_invariants());
                }
            }
        }
    }
}
