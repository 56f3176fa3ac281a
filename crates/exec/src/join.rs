//! Columnar join algorithms.
//!
//! The §2.2 experiment compares a hash join and a sort+merge join in Awk
//! against the same joins inside the DBMS. This is the DBMS-side hash
//! join, operating directly on loaded key columns and producing position
//! pairs for later payload gathering (late materialisation).
//!
//! Integer equi-joins — the morsel-parallel join (cold queries load
//! first, then run it) and its serial fallback — all probe one table type,
//! [`JoinTable`]. Text joins probe it too, over the build side's
//! dictionary codes: each probe-dictionary entry is resolved once to the
//! build code of the same text.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nodb_types::resource::charge_current;
use nodb_types::{CancelCheck, ColumnData, Error, Result, Selection, StrDict};

use crate::columnar::GroupKey;
use crate::group::{dense_span, slot, IdTable};
use crate::morsel::int_join_positions;

/// Flat hash-join table over `i64` keys: each key leads to one contiguous
/// run of build rows in a single shared vector — ascending within a run,
/// no allocation per key. When the keys' span is dense (at most
/// [`DENSE_SLOTS_PER_ROW`](crate::group::DENSE_SLOTS_PER_ROW) slots per
/// build row) the run offsets are direct-addressed by `key - base`;
/// otherwise an open-addressing key table maps each distinct key to a
/// dense id that indexes them. Either way the offsets take 4 bytes a
/// slot, so the direct-addressed table is never the larger one.
#[derive(Debug)]
pub struct JoinTable {
    keys: RunIndex,
    /// Run `i`'s build rows are `rows[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    rows: Vec<usize>,
}

/// How a key finds its run in a [`JoinTable`].
#[derive(Debug)]
enum RunIndex {
    /// Run `key - base`; `starts` holds one run per key of the span.
    Dense { base: i64 },
    /// Run `id`, the key's id in the table.
    Hashed(IdTable<i64>),
}

impl JoinTable {
    /// Build over a null-free key slice; build rows are slice positions.
    pub fn build(keys: &[i64]) -> Result<JoinTable> {
        JoinTable::from_entries(keys.iter().copied().zip(0..))
    }

    /// Passes over the entries, in ascending build-row order: count them
    /// and find their key range, count each run's rows (interning each
    /// key when the span is not dense), then scatter the rows into their
    /// runs (a stable counting sort, so runs stay ascending).
    fn from_entries(entries: impl Iterator<Item = (i64, usize)> + Clone) -> Result<JoinTable> {
        let (mut n, mut lo, mut hi) = (0usize, i64::MAX, i64::MIN);
        for (key, _) in entries.clone() {
            n += 1;
            lo = lo.min(key);
            hi = hi.max(key);
        }
        if n >= u32::MAX as usize {
            return Err(Error::exec("join build side exceeds 2^32 rows"));
        }
        // The build is one serial pass however many workers probe later:
        // give cancellation a landing point inside it.
        let mut cancel = CancelCheck::new();
        let (keys, mut starts, runs) = match dense_span(lo, hi, n as u64) {
            Some(span) => {
                let mut starts = vec![0u32; span + 1];
                charge_current(starts.len() * 4)?;
                for (key, _) in entries.clone() {
                    cancel.tick(1)?;
                    starts[slot(key, lo) + 1] += 1;
                }
                (RunIndex::Dense { base: lo }, starts, None)
            }
            None => {
                // Sized by distinct keys as they appear, not by rows: a
                // build side of few distinct keys keeps a small,
                // cache-resident table.
                let mut ids = IdTable::with_capacity(n.min(1024));
                let mut runs: Vec<u32> = Vec::with_capacity(n);
                let mut starts: Vec<u32> = vec![0];
                for (key, _) in entries.clone() {
                    cancel.tick(1)?;
                    let id = ids.intern(key);
                    if id as usize + 1 == starts.len() {
                        starts.push(0);
                    }
                    starts[id as usize + 1] += 1;
                    runs.push(id);
                }
                charge_current(ids.heap_bytes() + (runs.len() + starts.len()) * 4)?;
                (RunIndex::Hashed(ids), starts, Some(runs))
            }
        };
        charge_current(n * 8)?;
        // Counts → run starts.
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0usize; n];
        let mut place = |run: usize, row: usize| {
            rows[cursor[run] as usize] = row;
            cursor[run] += 1;
        };
        match runs {
            None => entries.for_each(|(key, row)| place(slot(key, lo), row)),
            Some(runs) => entries
                .zip(runs)
                .for_each(|((_, row), id)| place(id as usize, row)),
        }
        Ok(JoinTable { keys, starts, rows })
    }

    /// Build rows holding `key`, ascending; empty when there are none.
    #[inline]
    pub fn matches(&self, key: i64) -> &[usize] {
        let run = match &self.keys {
            RunIndex::Dense { base } => slot(key, *base),
            RunIndex::Hashed(ids) => match ids.get(key) {
                Some(id) => id as usize,
                None => return &[],
            },
        };
        if run >= self.starts.len() - 1 {
            return &[];
        }
        &self.rows[self.starts[run] as usize..self.starts[run + 1] as usize]
    }
}

/// The build side of a join, indexed for probing: which build rows hold
/// the key of a probe row. NULL keys never match.
pub(crate) enum JoinIndex {
    /// Two int key columns: the flat table.
    Int(JoinTable),
    /// Two text key columns: the flat table over the build side's codes.
    Text(TextJoin),
    /// Two numeric key columns of other types: build rows by key value,
    /// equal as `Value::total_cmp` says (an int key matches an equal
    /// float). Empty when one side is text and the other is not: such
    /// keys are never equal.
    Values(HashMap<GroupKey, Vec<usize>>),
}

/// A text join's build side: the flat table over build codes, plus the
/// build code of each probe-dictionary entry, resolved on first sight by
/// whichever worker meets it first (every worker writes the same value).
pub(crate) struct TextJoin {
    table: JoinTable,
    build: Arc<StrDict>,
    probe: Arc<StrDict>,
    resolved: Vec<AtomicU32>,
}

/// A probe entry not resolved yet; otherwise the slot holds the build code
/// plus one (below [`ABSENT`]: codes stay below `u32::MAX - 1`), or
/// [`ABSENT`].
const UNRESOLVED: u32 = 0;
const ABSENT: u32 = u32::MAX;

impl TextJoin {
    /// The build code of the text of `probe`'s entry `code`, if the build
    /// side has it. `resolved` caches it per entry of `probe`.
    #[inline]
    fn build_code(&self, probe: &StrDict, resolved: &[AtomicU32], code: u32) -> Option<u32> {
        let slot = &resolved[code as usize];
        let mut r = slot.load(Ordering::Relaxed);
        if r == UNRESOLVED {
            r = self.build.lookup(probe.get(code)).map_or(ABSENT, |b| b + 1);
            slot.store(r, Ordering::Relaxed);
        }
        (r != ABSENT).then(|| r - 1)
    }
}

fn unresolved(entries: usize) -> Vec<AtomicU32> {
    (0..entries).map(|_| AtomicU32::new(UNRESOLVED)).collect()
}

impl JoinIndex {
    /// Index the `rows` of `build` for probes of `probe`'s column type.
    pub(crate) fn build(
        build: &ColumnData,
        rows: &Selection,
        probe: &ColumnData,
    ) -> Result<JoinIndex> {
        match rows {
            Selection::Range(r) => JoinIndex::build_rows(build, r.clone(), probe),
            Selection::Positions(p) => JoinIndex::build_rows(build, p.iter().copied(), probe),
        }
    }

    fn build_rows(
        build: &ColumnData,
        rows: impl Iterator<Item = usize> + Clone,
        probe: &ColumnData,
    ) -> Result<JoinIndex> {
        match (build, probe) {
            (ColumnData::Int64 { values, nulls }, ColumnData::Int64 { .. }) => {
                let nulls = nulls.as_deref();
                let entries = rows
                    .filter(move |&r| nulls.is_none_or(|m| !m[r]))
                    .map(|r| (values[r], r));
                return JoinTable::from_entries(entries).map(JoinIndex::Int);
            }
            (ColumnData::Str { dict, codes, nulls }, ColumnData::Str { dict: pd, .. }) => {
                let nulls = nulls.as_deref();
                let entries = rows
                    .filter(move |&r| nulls.is_none_or(|m| !m[r]))
                    .map(|r| (i64::from(codes[r]), r));
                let table = JoinTable::from_entries(entries)?;
                let resolved = match Arc::ptr_eq(dict, pd) {
                    true => Vec::new(),
                    false => {
                        charge_current(pd.len() * 4)?;
                        unresolved(pd.len())
                    }
                };
                return Ok(JoinIndex::Text(TextJoin {
                    table,
                    build: Arc::clone(dict),
                    probe: Arc::clone(pd),
                    resolved,
                }));
            }
            (ColumnData::Str { .. }, _) | (_, ColumnData::Str { .. }) => {
                return Ok(JoinIndex::Values(HashMap::new()));
            }
            _ => {}
        }
        let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for r in rows {
            let v = build.get(r);
            if !v.is_null() {
                table.entry(GroupKey(vec![v])).or_default().push(r);
            }
        }
        Ok(JoinIndex::Values(table))
    }

    /// Call `f(p, build rows)` for each probe row `p` of `rows`, in order,
    /// whose key has matches; the build rows come ascending.
    pub(crate) fn probe(
        &self,
        probe: &ColumnData,
        rows: &Selection,
        f: impl FnMut(usize, &[usize]) -> Result<()>,
    ) -> Result<()> {
        match rows {
            Selection::Range(r) => self.probe_rows(probe, r.clone(), f),
            Selection::Positions(p) => self.probe_rows(probe, p.iter().copied(), f),
        }
    }

    fn probe_rows(
        &self,
        probe: &ColumnData,
        mut rows: impl Iterator<Item = usize>,
        mut f: impl FnMut(usize, &[usize]) -> Result<()>,
    ) -> Result<()> {
        match (self, probe) {
            (JoinIndex::Int(t), ColumnData::Int64 { values, nulls }) => match nulls {
                None => rows.try_for_each(|p| f(p, t.matches(values[p]))),
                Some(m) => rows
                    .filter(|&p| !m[p])
                    .try_for_each(|p| f(p, t.matches(values[p]))),
            },
            (JoinIndex::Text(t), ColumnData::Str { dict, codes, nulls }) => {
                // Codes of the build dictionary need no resolving; another
                // probe column than the one the index was built for
                // resolves its entries afresh.
                let same = Arc::ptr_eq(dict, &t.build);
                let fresh;
                let resolved = if same || Arc::ptr_eq(dict, &t.probe) {
                    &t.resolved
                } else {
                    fresh = unresolved(dict.len());
                    &fresh
                };
                let build_code = |c: u32| match same {
                    true => Some(c),
                    false => t.build_code(dict, resolved, c),
                };
                rows.filter(|&p| nulls.as_ref().is_none_or(|m| !m[p]))
                    .try_for_each(|p| match build_code(codes[p]) {
                        Some(b) => f(p, t.table.matches(i64::from(b))),
                        None => Ok(()),
                    })
            }
            (JoinIndex::Values(table), _) if table.is_empty() => Ok(()),
            // NULL is never a key of the table, so a NULL probe finds
            // nothing.
            (JoinIndex::Values(table), _) => {
                rows.try_for_each(|p| match table.get(&GroupKey(vec![probe.get(p)])) {
                    Some(matches) => f(p, matches),
                    None => Ok(()),
                })
            }
            (JoinIndex::Int(_) | JoinIndex::Text(_), _) => Err(Error::internal(
                "join index probed with keys of another type",
            )),
        }
    }
}

/// Both columns' values when both are null-free int columns — the shape
/// the flat [`JoinTable`] serves.
pub(crate) fn null_free_int_keys<'a>(
    left: &'a ColumnData,
    right: &'a ColumnData,
) -> Option<(&'a [i64], &'a [i64])> {
    match (left, right) {
        (
            ColumnData::Int64 {
                values: ls,
                nulls: None,
            },
            ColumnData::Int64 {
                values: rs,
                nulls: None,
            },
        ) => Some((ls, rs)),
        _ => None,
    }
}

/// Inner equi-join returning matching `(left position, right position)`
/// pairs in right-scan order, ascending left position per match. NULL keys
/// never match. Null-free int keys take the flat-table join (run inline);
/// anything else indexes the left column and probes it with the right.
pub fn hash_join_positions(left: &ColumnData, right: &ColumnData) -> Result<Vec<(usize, usize)>> {
    if let Some((ls, rs)) = null_free_int_keys(left, right) {
        return int_join_positions(ls, rs, 1, usize::MAX);
    }
    let index = JoinIndex::build(left, &Selection::Range(0..left.len()), right)?;
    let mut out = Vec::new();
    index.probe(right, &Selection::Range(0..right.len()), |j, matches| {
        out.extend(matches.iter().map(|&i| (i, j)));
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::Value;

    #[test]
    fn hash_join_one_to_one() {
        let l = ColumnData::from_i64(vec![1, 2, 3, 4]);
        let r = ColumnData::from_i64(vec![3, 1, 5]);
        let mut pairs = hash_join_positions(&l, &r).unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn hash_join_duplicates_cross_product() {
        let l = ColumnData::from_i64(vec![7, 7]);
        let r = ColumnData::from_i64(vec![7, 7, 7]);
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    fn hash_join_nulls_never_match() {
        let mut l = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Null, Value::Int(1)] {
            l.push(v).unwrap();
        }
        let mut r = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Null, Value::Int(1)] {
            r.push(v).unwrap();
        }
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs, vec![(1, 1)]);
    }

    #[test]
    fn string_keys_join() {
        let l = ColumnData::from_strings(vec!["a".into(), "b".into()]);
        let r = ColumnData::from_strings(vec!["b".into(), "c".into()]);
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn text_keys_resolve_each_probe_entry_once_through_the_build_dictionary() {
        let text = |cells: &[Option<&str>]| {
            let cells = cells.iter().map(|c| c.map_or(Value::Null, Value::from));
            ColumnData::from_values(nodb_types::DataType::Str, cells).unwrap()
        };
        let build = text(&[Some("b"), None, Some("a"), Some("b")]);
        let probe = text(&[Some("z"), Some("b"), None, Some("a"), Some("b")]);
        let index = JoinIndex::build(&build, &Selection::Range(0..4), &probe).unwrap();
        let probe_all = |col: &ColumnData| {
            let mut pairs = Vec::new();
            index
                .probe(col, &Selection::Range(0..col.len()), |p, m| {
                    pairs.extend(m.iter().map(|&b| (b, p)));
                    Ok(())
                })
                .unwrap();
            pairs
        };
        assert_eq!(probe_all(&probe), [(0, 1), (3, 1), (2, 3), (0, 4), (3, 4)]);
        let JoinIndex::Text(t) = &index else {
            panic!("text keys take the text index");
        };
        // "z", "b", "a": resolved; NULL rows resolve nothing.
        let resolved: Vec<u32> = t
            .resolved
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();
        assert_eq!(resolved, [ABSENT, 1, 2]);
        // Probes by the build column's own codes, and by a column the
        // index was not built for.
        assert_eq!(probe_all(&build.take(&[2, 1])), [(2, 0)]);
        assert_eq!(probe_all(&text(&[Some("a"), Some("q")])), [(2, 0)]);
        // Text never equals a number.
        let ints = ColumnData::from_i64(vec![0, 1]);
        assert!(hash_join_positions(&build, &ints).unwrap().is_empty());
        assert!(hash_join_positions(&ints, &probe).unwrap().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Keys 0..8 name a word (the empty string and non-ASCII among
        /// them); 8 is NULL.
        const WORDS: [&str; 8] = ["", "a", "b", "é", "日本", "ab", "left only", "right only"];

        fn text(keys: &[u8]) -> ColumnData {
            let cells = keys.iter().map(|&k| match WORDS.get(k as usize) {
                Some(w) => Value::from(*w),
                None => Value::Null,
            });
            ColumnData::from_values(nodb_types::DataType::Str, cells).unwrap()
        }

        proptest! {
            /// Text joins agree with the nested-loop definition: keys one
            /// side's dictionary lacks, NULLs (never equal), the empty
            /// string and non-ASCII; each side its own dictionary, or
            /// both one column's.
            #[test]
            fn text_joins_agree_with_nested_loop(
                ls in proptest::collection::vec(0u8..9, 0..30),
                rs in proptest::collection::vec(0u8..9, 0..30),
                shared in proptest::bool::ANY,
            ) {
                // "left only" and "right only" stay on their sides.
                let ls: Vec<u8> = ls.into_iter().map(|k| if k == 7 { 6 } else { k }).collect();
                let rs: Vec<u8> = rs.into_iter().map(|k| if k == 6 { 7 } else { k }).collect();
                let (l, r) = if shared {
                    let both = text(&[ls.clone(), rs.clone()].concat());
                    let lrows: Vec<usize> = (0..ls.len()).collect();
                    let rrows: Vec<usize> = (ls.len()..ls.len() + rs.len()).collect();
                    (both.take(&lrows), both.take(&rrows))
                } else {
                    (text(&ls), text(&rs))
                };
                let mut expected = Vec::new();
                for (i, &a) in ls.iter().enumerate() {
                    for (j, &b) in rs.iter().enumerate() {
                        if a == b && a < 8 {
                            expected.push((i, j));
                        }
                    }
                }
                let mut h = hash_join_positions(&l, &r).unwrap();
                h.sort_unstable();
                prop_assert_eq!(&h, &expected);
            }
        }

        proptest! {
            /// The hash join agrees with the nested-loop definition.
            #[test]
            fn joins_agree_with_nested_loop(
                ls in proptest::collection::vec(0i64..15, 0..30),
                rs in proptest::collection::vec(0i64..15, 0..30)) {
                let l = ColumnData::from_i64(ls.clone());
                let r = ColumnData::from_i64(rs.clone());
                let mut expected = Vec::new();
                for (i, &a) in ls.iter().enumerate() {
                    for (j, &b) in rs.iter().enumerate() {
                        if a == b {
                            expected.push((i, j));
                        }
                    }
                }
                expected.sort_unstable();
                let mut h = hash_join_positions(&l, &r).unwrap();
                h.sort_unstable();
                prop_assert_eq!(&h, &expected);
            }
        }
    }
}
