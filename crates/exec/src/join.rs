//! Columnar join algorithms.
//!
//! The §2.2 experiment compares a hash join and a sort+merge join in Awk
//! against the same joins inside the DBMS. This is the DBMS-side hash
//! join, operating directly on loaded key columns and producing position
//! pairs for later payload gathering (late materialisation).
//!
//! Integer equi-joins — the warm morsel-parallel join, its serial
//! fallback and the fused cold join — all probe one table type,
//! [`JoinTable`].

use std::collections::HashMap;

use nodb_types::resource::charge_current;
use nodb_types::{CancelCheck, ColumnData, Error, Result, Value};

use crate::columnar::GroupKey;
use crate::group::IdTable;
use crate::morsel::int_join_positions;

/// Flat hash-join table over `i64` keys: an open-addressing key table
/// (multiplicative hash, keys inline) maps each distinct key to a dense
/// id, and the id indexes one contiguous run of build rows in a single
/// shared vector — ascending within a run, no allocation per key.
#[derive(Debug)]
pub struct JoinTable {
    keys: IdTable<i64>,
    /// Key `id`'s build rows are `rows[starts[id]..starts[id + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl JoinTable {
    /// Build over a null-free key slice; build rows are slice positions.
    pub fn build(keys: &[i64]) -> Result<JoinTable> {
        JoinTable::from_entries(keys.len(), keys.iter().copied().zip(0..))
    }

    /// Build from per-morsel `(key, build row)` entries, morsels in index
    /// order and rows ascending within each — the shape
    /// [`cold_join_build_morsel`](crate::morsel::cold_join_build_morsel)
    /// emits on the scan workers.
    pub fn from_morsels(parts: &[Vec<(i64, usize)>]) -> Result<JoinTable> {
        let n = parts.iter().map(Vec::len).sum();
        JoinTable::from_entries(n, parts.iter().flatten().copied())
    }

    /// Two passes over `n` entries in ascending build-row order: count
    /// each key's rows while interning it, then scatter the rows into
    /// their runs (a stable counting sort, so runs stay ascending).
    fn from_entries(
        n: usize,
        entries: impl Iterator<Item = (i64, usize)> + Clone,
    ) -> Result<JoinTable> {
        if n >= u32::MAX as usize {
            return Err(Error::exec("join build side exceeds 2^32 rows"));
        }
        // Sized by distinct keys as they appear, not by rows: a build side
        // of few distinct keys keeps a small, cache-resident table.
        let mut keys = IdTable::with_capacity(n.min(1024));
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        let mut starts: Vec<usize> = vec![0];
        // The build is one serial pass however many workers probe later:
        // give cancellation a landing point inside it.
        let mut cancel = CancelCheck::new();
        for (key, _) in entries.clone() {
            cancel.tick(1)?;
            let id = keys.intern(key);
            if id as usize + 1 == starts.len() {
                starts.push(0);
            }
            starts[id as usize + 1] += 1;
            ids.push(id);
        }
        charge_current(keys.heap_bytes() + ids.len() * 4 + (starts.len() + n) * 8)?;
        // Counts → run starts.
        for id in 1..starts.len() {
            starts[id] += starts[id - 1];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0usize; n];
        for ((_, row), id) in entries.zip(ids) {
            rows[cursor[id as usize]] = row;
            cursor[id as usize] += 1;
        }
        Ok(JoinTable { keys, starts, rows })
    }

    /// Build rows holding `key`, ascending; empty when there are none.
    #[inline]
    pub fn matches(&self, key: i64) -> &[usize] {
        match self.keys.get(key) {
            Some(id) => &self.rows[self.starts[id as usize]..self.starts[id as usize + 1]],
            None => &[],
        }
    }

    /// Probe one probe-side morsel, emitting `(build row, probe row)` pairs
    /// in absolute coordinates; `local_positions` are the morsel-local
    /// qualifying rows. NULL keys never match. Concatenating per-morsel
    /// outputs in morsel order reproduces the serial pair order exactly:
    /// probe-scan order, ascending build position per match.
    pub fn probe_morsel(
        &self,
        keys: &ColumnData,
        local_positions: &[usize],
        first_row: usize,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let nullable = matches!(keys, ColumnData::Int64 { nulls: Some(_), .. });
        let fast = if nullable { None } else { keys.as_i64_slice() };
        for &j in local_positions {
            let k = match fast {
                Some(ks) => ks[j],
                None => match keys.get(j) {
                    Value::Int(k) => k,
                    _ => continue,
                },
            };
            for &i in self.matches(k) {
                out.push((i, first_row + j));
            }
        }
        out
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
/// anything else hashes the left column by value.
pub fn hash_join_positions(left: &ColumnData, right: &ColumnData) -> Result<Vec<(usize, usize)>> {
    if let Some((ls, rs)) = null_free_int_keys(left, right) {
        return int_join_positions(ls, rs, 1, usize::MAX);
    }
    let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::with_capacity(left.len());
    for i in 0..left.len() {
        let v = left.get(i);
        if v.is_null() {
            continue;
        }
        table.entry(GroupKey(vec![v])).or_default().push(i);
    }
    let mut out = Vec::new();
    for j in 0..right.len() {
        let v = right.get(j);
        if v.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&GroupKey(vec![v])) {
            for &i in matches {
                out.push((i, j));
            }
        }
    }
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

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
