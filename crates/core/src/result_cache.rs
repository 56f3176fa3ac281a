//! The engine result cache: answering the paper's title question.
//!
//! "Here are my Data Files. Here are my Queries. Where are my Results?" —
//! until now the engine threw every result away after the last batch was
//! fetched, rescanning even for byte-identical dashboard refreshes. This
//! module keeps completed results around as first-class data, under a
//! byte-budget LRU, and serves two kinds of reuse:
//!
//! * **Exact repeats** — a query whose fully bound [`Plan`] fingerprints
//!   identically to a cached one returns the cached final result
//!   verbatim. Every shape — scalar projection, aggregate, GROUP BY —
//!   caches its dense typed output columns, which the capturing stream
//!   and every later hit share by `Arc` (no copy on capture, none per
//!   hit).
//! * **Subsumption** — a single-table scalar SELECT whose σ range on one
//!   column is *contained* in a cached entry's recorded [`Interval`] is
//!   answered by re-filtering the cached qualifying rows, the same way
//!   `CrackedColumn` piece metadata bounds a range without rescanning.
//!   The cached rows are kept in scan order, so re-running the engine's
//!   own filter → order → window → project pipeline over them produces
//!   output byte-identical to a fresh scan.
//!
//! Invalidation reuses the [`plan_cache`](crate::plan_cache) scheme
//! verbatim: every entry records the `(table, schema_epoch)` set it was
//! computed against ([`PlanDeps`]), and a lookup only returns an entry
//! after re-confirming every epoch via the caller's callback (which runs
//! the file-fingerprint check, *outside* the cache mutex). Epochs are
//! globally unique (`catalog::next_epoch`), so a table dropped and
//! re-registered — or replaced by `register_result` / CTAS — can never
//! alias an old epoch. On top of the epoch check, the engine explicitly
//! [`purge_table`](ResultCache::purge_table)s entries on
//! `register_result` and `unregister_table`, freeing their bytes eagerly.
//!
//! Keys are *plan* fingerprints, not SQL text: the `Debug` rendering of a
//! fully bound [`Plan`] is deterministic and complete, so `SELECT  A1
//! FROM r` and `select a1 from r` share an entry (the plan cache's text
//! normalization happens upstream), and a prepared statement bound to the
//! same constants as an inline query lands on the same entry too.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use nodb_sql::Plan;
use nodb_types::{ColumnData, Conjunction, Interval};

use crate::plan_cache::PlanDeps;

/// Fingerprint of a fully bound plan: the complete, deterministic cache
/// key for its result. (`Display` is the human EXPLAIN rendering and not
/// collision-free; `Debug` includes every field.)
pub fn plan_fingerprint(plan: &Plan) -> String {
    format!("{plan:?}")
}

/// Fingerprint of the *family* a subsumable plan belongs to: the plan
/// with its filter, ORDER BY, LIMIT and OFFSET cleared. Two queries in
/// the same family differ only in their σ range, ordering and window —
/// exactly what subsumption re-derives from the cached superset rows
/// (which are kept in scan order, before any of the three apply).
pub fn family_fingerprint(plan: &Plan) -> String {
    let mut base = plan.clone();
    base.filter = Conjunction::always();
    base.order_by = Vec::new();
    base.limit = None;
    base.offset = None;
    format!("{base:?}")
}

/// The σ constraint a subsumable plan puts on its table: `None` for an
/// unconstrained scan, or the single constrained column and its interval.
pub type RangeConstraint = Option<(usize, Interval)>;

/// The single-column σ range of a plan's filter, when the plan is
/// subsumption-eligible: single table (no join), no aggregation or
/// grouping, and a filter expressible as a selection box constraining at
/// most one column. Returns `None` (ineligible) otherwise.
pub fn subsumable_constraint(plan: &Plan) -> Option<RangeConstraint> {
    if plan.join.is_some() || plan.is_aggregate() || !plan.group_by.is_empty() {
        return None;
    }
    let bx = plan.filter.to_box()?;
    match bx.by_col.len() {
        0 => Some(None),
        1 => {
            let (col, iv) = bx.by_col.into_iter().next().expect("len checked");
            Some(Some((col, iv)))
        }
        _ => None,
    }
}

/// One cached payload: either the final result of a plan, or the plan
/// family's qualifying input rows awaiting a re-filter.
enum Payload {
    /// Final result of an exact plan fingerprint: dense typed output
    /// columns, one per output expression.
    Exact(Vec<Arc<ColumnData>>),
    /// Scan-order qualifying rows of a plan family, as dense columns
    /// keyed by the plan's combined ordinals, plus the σ range they
    /// satisfy. A narrower query re-filters these instead of rescanning.
    Filtered {
        cols: BTreeMap<usize, Arc<ColumnData>>,
        n_rows: usize,
        constraint: RangeConstraint,
    },
}

struct Entry {
    payload: Payload,
    /// `(lowercased table, schema epoch)` the result was computed against.
    deps: PlanDeps,
    /// Estimated heap footprint, charged against the byte budget.
    bytes: usize,
    /// Last-touch tick for LRU eviction.
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
    bytes: usize,
}

/// Byte-budget LRU cache from plan fingerprints to materialised results.
///
/// A budget of 0 disables the cache: lookups miss, inserts are dropped.
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    max_entries: usize,
}

/// Estimated heap bytes of a set of dense columns.
pub(crate) fn cols_bytes<'a>(cols: impl IntoIterator<Item = &'a Arc<ColumnData>>) -> usize {
    cols.into_iter().map(|c| c.approx_bytes()).sum()
}

impl ResultCache {
    /// Cache with a byte budget and an entry cap; a zero budget or cap
    /// disables caching.
    pub fn new(budget_bytes: usize, max_entries: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            budget_bytes,
            max_entries,
        }
    }

    /// Whether the cache can ever hold anything. The engine skips all
    /// result-cache work (lookups, counters, capture) when this is false,
    /// so the disabled-by-default configuration costs nothing.
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0 && self.max_entries > 0
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes currently cached.
    pub fn bytes_used(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Drop every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Drop every entry that depends on `table` (any case). Called on
    /// `register_result` / `unregister_table`, eagerly freeing bytes the
    /// epoch check would only reclaim lazily.
    pub fn purge_table(&self, table: &str) {
        let t = table.to_ascii_lowercase();
        let mut inner = self.inner.lock();
        let doomed: Vec<String> = inner
            .map
            .iter()
            .filter(|(_, e)| e.deps.iter().any(|(dep, _)| *dep == t))
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            if let Some(e) = inner.map.remove(&k) {
                inner.bytes -= e.bytes;
            }
        }
    }

    /// Look up the final result of an exact plan fingerprint. Returned
    /// only when `current_epoch` confirms every dependency is unchanged;
    /// stale entries are dropped. The epoch callback runs
    /// file-fingerprint checks, so it is invoked outside the cache mutex.
    pub fn get_exact(
        &self,
        key: &str,
        current_epoch: impl FnMut(&str) -> Option<u64>,
    ) -> Option<Vec<Arc<ColumnData>>> {
        match self.get_validated(key, current_epoch)? {
            Payload::Exact(columns) => Some(columns),
            Payload::Filtered { .. } => None,
        }
    }

    /// Look up a plan family's cached superset for a query constrained to
    /// `wanted`. Serves only when containment is proven: the entry is
    /// unconstrained, or constrains the same column with an interval that
    /// contains the wanted one. For an entry cached unconstrained, the
    /// wanted column must be among the cached columns (the re-filter
    /// needs its values).
    pub fn get_subsumed(
        &self,
        family_key: &str,
        wanted: &RangeConstraint,
        current_epoch: impl FnMut(&str) -> Option<u64>,
    ) -> Option<(BTreeMap<usize, Arc<ColumnData>>, usize)> {
        let payload = self.get_validated(family_key, current_epoch)?;
        let Payload::Filtered {
            cols,
            n_rows,
            constraint,
        } = payload
        else {
            return None;
        };
        let contains = match (&constraint, wanted) {
            (None, None) => true,
            (None, Some((col, _))) => cols.contains_key(col),
            (Some(_), None) => false,
            (Some((have_col, have_iv)), Some((want_col, want_iv))) => {
                have_col == want_col && want_iv.is_subset_of(have_iv)
            }
        };
        contains.then_some((cols, n_rows))
    }

    /// Shared lookup: touch the entry, then validate its epochs outside
    /// the mutex; drop it if stale.
    fn get_validated(
        &self,
        key: &str,
        mut current_epoch: impl FnMut(&str) -> Option<u64>,
    ) -> Option<Payload> {
        let (payload, deps) = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner.map.get_mut(key)?;
            entry.last_used = tick;
            let payload = match &entry.payload {
                Payload::Exact(columns) => Payload::Exact(columns.clone()),
                Payload::Filtered {
                    cols,
                    n_rows,
                    constraint,
                } => Payload::Filtered {
                    cols: cols.clone(),
                    n_rows: *n_rows,
                    constraint: constraint.clone(),
                },
            };
            (payload, entry.deps.clone())
        };
        let fresh = deps
            .iter()
            .all(|(table, epoch)| current_epoch(table) == Some(*epoch));
        if fresh {
            Some(payload)
        } else {
            let mut inner = self.inner.lock();
            if let Some(e) = inner.map.remove(key) {
                inner.bytes -= e.bytes;
            }
            None
        }
    }

    /// Cache the final result columns of an exact plan fingerprint.
    /// Returns the number of entries evicted to make room (0 when the
    /// payload alone exceeds the budget and is not cached at all).
    pub fn insert_exact(&self, key: String, columns: Vec<Arc<ColumnData>>, deps: PlanDeps) -> u64 {
        let bytes = cols_bytes(&columns);
        self.insert(key, Payload::Exact(columns), deps, bytes)
    }

    /// Cache a plan family's qualifying rows with the σ range they
    /// satisfy. Returns the number of entries evicted to make room.
    pub fn insert_filtered(
        &self,
        family_key: String,
        cols: BTreeMap<usize, Arc<ColumnData>>,
        n_rows: usize,
        constraint: RangeConstraint,
        deps: PlanDeps,
    ) -> u64 {
        let bytes = cols_bytes(cols.values());
        self.insert(
            family_key,
            Payload::Filtered {
                cols,
                n_rows,
                constraint,
            },
            deps,
            bytes,
        )
    }

    /// Insert under the byte budget and entry cap, evicting LRU entries
    /// until both hold. Oversized payloads are rejected outright.
    fn insert(&self, key: String, payload: Payload, deps: PlanDeps, bytes: usize) -> u64 {
        if !self.enabled() || bytes > self.budget_bytes {
            return 0;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        let mut evicted = 0u64;
        while !inner.map.is_empty()
            && (inner.bytes + bytes > self.budget_bytes || inner.map.len() >= self.max_entries)
        {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, v)| v.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let e = inner.map.remove(&lru).expect("just found");
            inner.bytes -= e.bytes;
            evicted += 1;
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                payload,
                deps,
                bytes,
                last_used: tick,
            },
        );
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::{Bound, DataType, Value};

    fn rows(n: usize) -> Vec<Arc<ColumnData>> {
        vec![Arc::new(ColumnData::from_i64((0..n as i64).collect()))]
    }

    fn deps_t(epoch: u64) -> PlanDeps {
        vec![("t".into(), epoch)]
    }

    #[test]
    fn exact_hit_only_while_epochs_match() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_exact("k".into(), rows(3), deps_t(7));
        assert!(c.get_exact("k", |_| Some(7)).is_some());
        assert!(c.get_exact("k", |_| Some(8)).is_none(), "epoch moved on");
        assert!(c.is_empty(), "stale entry dropped");
        assert_eq!(c.bytes_used(), 0, "stale bytes refunded");
    }

    #[test]
    fn missing_dependency_counts_as_stale() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_exact("k".into(), rows(3), deps_t(7));
        assert!(c.get_exact("k", |_| None).is_none(), "table dropped");
        assert!(c.is_empty());
    }

    #[test]
    fn purge_table_is_case_insensitive_and_refunds_bytes() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_exact("a".into(), rows(2), deps_t(1));
        c.insert_exact("b".into(), rows(2), vec![("other".into(), 1)]);
        c.purge_table("T");
        assert_eq!(c.len(), 1, "only t-dependent entry purged");
        assert!(c.get_exact("b", |_| Some(1)).is_some());
    }

    #[test]
    fn zero_budget_disables() {
        let c = ResultCache::new(0, 16);
        assert!(!c.enabled());
        c.insert_exact("k".into(), rows(3), deps_t(1));
        assert!(c.is_empty());
        assert!(c.get_exact("k", |_| Some(1)).is_none());
    }

    #[test]
    fn eviction_keeps_bytes_under_budget() {
        // Each 100-int-row payload is 800 bytes; the budget holds two.
        let one = cols_bytes(&rows(100));
        let c = ResultCache::new(one * 2 + one / 2, 16);
        assert_eq!(c.insert_exact("a".into(), rows(100), deps_t(1)), 0);
        assert_eq!(c.insert_exact("b".into(), rows(100), deps_t(1)), 0);
        // Touch `a` so `b` is LRU, then force an eviction.
        assert!(c.get_exact("a", |_| Some(1)).is_some());
        assert_eq!(c.insert_exact("c".into(), rows(100), deps_t(1)), 1);
        assert!(c.bytes_used() <= c.budget_bytes());
        assert!(c.get_exact("b", |_| Some(1)).is_none(), "b evicted");
        assert!(c.get_exact("a", |_| Some(1)).is_some());
        assert!(c.get_exact("c", |_| Some(1)).is_some());
    }

    #[test]
    fn column_payloads_are_sized_by_column_bytes_and_shared_on_hit() {
        let col = Arc::new(ColumnData::from_i64((0..100).collect()));
        let c = ResultCache::new(1 << 20, 16);
        c.insert_exact("k".into(), vec![Arc::clone(&col)], deps_t(1));
        assert_eq!(c.bytes_used(), col.approx_bytes());
        let hit = c.get_exact("k", |_| Some(1)).expect("cached");
        assert!(Arc::ptr_eq(&hit[0], &col));
    }

    #[test]
    fn oversized_payload_is_not_cached() {
        let c = ResultCache::new(64, 16);
        assert_eq!(c.insert_exact("k".into(), rows(1000), deps_t(1)), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn entry_cap_evicts_lru() {
        let c = ResultCache::new(1 << 20, 2);
        c.insert_exact("a".into(), rows(1), deps_t(1));
        c.insert_exact("b".into(), rows(1), deps_t(1));
        assert!(c.get_exact("a", |_| Some(1)).is_some());
        c.insert_exact("c".into(), rows(1), deps_t(1));
        assert_eq!(c.len(), 2);
        assert!(c.get_exact("b", |_| Some(1)).is_none(), "b was LRU");
    }

    fn int_cols(vals: &[i64]) -> BTreeMap<usize, Arc<ColumnData>> {
        let mut col = ColumnData::with_capacity(DataType::Int64, vals.len());
        for &v in vals {
            col.push(Value::Int(v)).unwrap();
        }
        BTreeMap::from([(0usize, Arc::new(col))])
    }

    fn range(lo: i64, hi: i64) -> Interval {
        Interval::new(
            Bound::Exclusive(Value::Int(lo)),
            Bound::Exclusive(Value::Int(hi)),
        )
        .unwrap()
    }

    #[test]
    fn subsumption_requires_containment_on_the_same_column() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_filtered(
            "fam".into(),
            int_cols(&[1, 2, 3, 4]),
            4,
            Some((0, range(0, 5))),
            deps_t(1),
        );
        // Contained range: hit.
        assert!(c
            .get_subsumed("fam", &Some((0, range(1, 4))), |_| Some(1))
            .is_some());
        // Wider range: no proof, miss.
        assert!(c
            .get_subsumed("fam", &Some((0, range(0, 9))), |_| Some(1))
            .is_none());
        // Different column: miss.
        assert!(c
            .get_subsumed("fam", &Some((1, range(1, 4))), |_| Some(1))
            .is_none());
        // Unconstrained query cannot be served by a constrained entry.
        assert!(c.get_subsumed("fam", &None, |_| Some(1)).is_none());
    }

    #[test]
    fn unconstrained_entry_serves_any_range_on_a_cached_column() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_filtered("fam".into(), int_cols(&[5, 6, 7]), 3, None, deps_t(1));
        assert!(c
            .get_subsumed("fam", &Some((0, range(5, 7))), |_| Some(1))
            .is_some());
        assert!(c.get_subsumed("fam", &None, |_| Some(1)).is_some());
        // Column 9 is not cached: the re-filter could not evaluate it.
        assert!(c
            .get_subsumed("fam", &Some((9, range(5, 7))), |_| Some(1))
            .is_none());
    }

    #[test]
    fn subsumed_hit_revalidates_epochs() {
        let c = ResultCache::new(1 << 20, 16);
        c.insert_filtered(
            "fam".into(),
            int_cols(&[1, 2]),
            2,
            Some((0, range(0, 3))),
            deps_t(4),
        );
        assert!(c
            .get_subsumed("fam", &Some((0, range(1, 3))), |_| Some(5))
            .is_none());
        assert!(c.is_empty(), "stale family dropped");
    }
}
