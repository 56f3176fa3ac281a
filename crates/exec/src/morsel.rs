//! Morsel-driven parallel operators.
//!
//! Morsel-driven parallelism (Leis et al., SIGMOD 2014) splits an input
//! into fixed-size row ranges ("morsels") that worker threads *steal* from
//! a shared counter, so load balances automatically and every operator in
//! the chain runs inside the worker — no tuple queues, no merged
//! intermediate materialisation. This module provides the post-load half
//! of that pipeline over materialised columns:
//!
//! * [`parallel_group_columns`] — the typed aggregation kernel of
//!   [`crate::group`] per morsel (filter + every aggregate, grouped or
//!   not), partials merged in morsel order into result columns
//!   ([`parallel_group_aggregate`] and, for plain aggregates,
//!   [`parallel_filter_aggregate`] are its row views);
//! * [`parallel_filter_positions`] — parallel selection-vector
//!   construction whose concatenation is byte-identical to the serial
//!   [`filter_positions`](crate::columnar::filter_positions) result;
//! * [`parallel_hash_join_positions`] — one flat [`JoinTable`] over the
//!   smaller key column, probed morsel by morsel, reproducing the serial
//!   pair order exactly.
//!
//! It also provides the *fused cold* operators, which consume
//! [`nodb_types::MorselBatch`]es straight from the tokenizer so cold
//! queries execute while they parse: [`cold_project_morsel`] /
//! [`stitch_cold_projection`] (per-worker projection emitters with
//! morsel-order batch stitching) and [`cold_join_build_morsel`] /
//! [`JoinTable::from_morsels`] / [`JoinTable::probe_morsel`] (morsel-fed
//! join build and probe).
//!
//! The raw-file half (tokenizer morsels) lives in `nodb-rawcsv`'s
//! `scan_morsels`; `nodb-core` connects the two.
//!
//! Determinism: every parallel function here merges per-morsel results in
//! morsel index order, so output does not depend on worker scheduling or
//! on the worker count: a single worker runs the same morsels inline.
//! Integer aggregates are bit-identical to a row-at-a-time fold; float
//! sums associate per morsel.

use std::sync::Mutex;

use nodb_types::resource::charge_current;
use nodb_types::{
    drive_morsels, morsel_count, ColumnData, ColumnPage, Conjunction, Error, MorselBatch,
    PageColumn, Result, Selection, Value,
};

use crate::cols::Cols;
use crate::columnar::{filter_positions_range, AggSpec};
use crate::expr::Expr;
use crate::group::{group_partial_range, merge_group_partials};
use crate::join::{hash_join_positions, null_free_int_keys, JoinTable};
use crate::stream::project_columns;

/// Default rows per morsel: big enough to amortise dispatch, small enough
/// to balance skew and stay cache-resident.
pub const DEFAULT_MORSEL_ROWS: usize = 32_768;

/// Run `f(index, lo, hi)` for every morsel of `n` items, `morsel_rows` per
/// morsel, on up to `threads` stealing workers. Results come back in morsel
/// index order regardless of scheduling. The first error wins and stops
/// remaining workers at their next steal. Scheduling (steal counter, error
/// flag, thread scope) comes from the shared `nodb-types` driver; this
/// wrapper adds the ordered result slots.
fn run_morsels<T, F>(n: usize, morsel_rows: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize, usize) -> Result<T> + Sync,
{
    let n_morsels = morsel_count(n, morsel_rows);
    let mut slots: Vec<Mutex<Option<T>>> = Vec::with_capacity(n_morsels);
    slots.resize_with(n_morsels, || Mutex::new(None));
    drive_morsels(
        n,
        morsel_rows,
        threads,
        |_worker| (),
        |_state, _worker, r| {
            let v = f(r.index, r.lo, r.hi)?;
            *slots[r.index].lock().expect("slot mutex") = Some(v);
            Ok(())
        },
        |_state| {},
    )?;
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot mutex")
                .ok_or_else(|| Error::exec("morsel result missing"))
        })
        .collect()
}

/// A plain aggregate (filter + every aggregate, no GROUP BY) as its one
/// result row: [`parallel_group_columns`] with zero key columns.
pub fn parallel_filter_aggregate<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<Value>> {
    let columns = parallel_group_columns(cols, n_rows, conj, &[], specs, threads, morsel_rows)?;
    Ok(columns.iter().map(|c| c.get(0)).collect())
}

/// Morsel-parallel selection-vector construction. The concatenation of
/// per-morsel position lists (each ascending, absolute) in morsel order is
/// exactly the serial [`filter_positions`](crate::columnar::filter_positions)
/// output.
pub fn parallel_filter_positions<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<usize>> {
    if conj.is_always_true() {
        return Ok((0..n_rows).collect());
    }
    let parts = run_morsels(n_rows, morsel_rows, threads, |_index, lo, hi| {
        let pos = filter_positions_range(cols, lo, hi, conj)?;
        charge_current(pos.len() * std::mem::size_of::<usize>())?;
        Ok(pos)
    })?;
    Ok(concat(parts))
}

/// A [`Cols`] view over a morsel's column list: slot `k` of `cols` holds
/// the data for ordinal `ids[k]`. This is the shape tokenizer morsels
/// arrive in (columns parallel to the scan's `needed` list), so per-worker
/// operators can run on them without re-keying into a map per morsel.
pub struct OrdinalCols<'a> {
    ids: &'a [usize],
    cols: &'a [ColumnData],
}

impl<'a> OrdinalCols<'a> {
    /// View `cols[k]` as ordinal `ids[k]`. Both slices must be equal
    /// length; `ids` need not be sorted.
    pub fn new(ids: &'a [usize], cols: &'a [ColumnData]) -> Self {
        debug_assert_eq!(ids.len(), cols.len());
        OrdinalCols { ids, cols }
    }
}

impl Cols for OrdinalCols<'_> {
    fn get_col(&self, id: usize) -> Option<&ColumnData> {
        self.ids
            .iter()
            .position(|&c| c == id)
            .map(|k| &self.cols[k])
    }

    fn col_ids(&self) -> Vec<usize> {
        let mut ids = self.ids.to_vec();
        ids.sort_unstable();
        ids
    }
}

/// Morsel-parallel hash aggregation: every morsel is filtered, grouped and
/// aggregated by the typed kernel ([`group_partial_range`]) on a stealing
/// worker, and the per-morsel partials merge in morsel order
/// ([`merge_group_partials`]). The result is `group key columns ++
/// aggregate results` as typed columns, one row per group, ordered by
/// first appearance — exactly one row without `group_cols`, even over no
/// rows — and depends only on `morsel_rows`: not on `threads` (one worker
/// runs the same morsels inline) and not on scheduling.
pub fn parallel_group_columns<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<ColumnData>> {
    let mut partials = run_morsels(n_rows, morsel_rows, threads, |_index, lo, hi| {
        group_partial_range(cols, lo, hi, conj, group_cols, specs)
    })?;
    if partials.is_empty() {
        // No morsel: one empty partial still takes the result's column
        // types from the input (and is the one group of a plain
        // aggregate).
        partials.push(group_partial_range(cols, 0, 0, conj, group_cols, specs)?);
    }
    merge_group_partials(partials)
}

/// [`parallel_group_columns`] as rows, one per group. `_partitions` is
/// ignored: the merge is one pass over the partials' groups and no longer
/// partitions them.
#[allow(clippy::too_many_arguments)]
pub fn parallel_group_aggregate<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
    _partitions: usize,
) -> Result<Vec<Vec<Value>>> {
    let columns =
        parallel_group_columns(cols, n_rows, conj, group_cols, specs, threads, morsel_rows)?;
    let n_groups = columns.first().map_or(0, ColumnData::len);
    let view = columns.iter().map(PageColumn::Selected).collect();
    Ok(ColumnPage::new(Selection::Range(0..n_groups), view).to_rows())
}

const PAIR_BYTES: usize = std::mem::size_of::<(usize, usize)>();

/// Concatenate per-morsel chunks in morsel order.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

/// Morsel-parallel hash join over null-free int key columns. One flat
/// [`JoinTable`] is built over the *smaller* input and the larger one
/// probes it morsel by morsel on stealing workers (read-only, so no
/// contention). Produces exactly the pair order of the serial
/// [`hash_join_positions`] — right-scan order, ascending left position per
/// match — whichever side was built. Non-int or nullable keys fall back to
/// the serial join.
pub fn parallel_hash_join_positions(
    left: &ColumnData,
    right: &ColumnData,
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<(usize, usize)>> {
    match null_free_int_keys(left, right) {
        Some((ls, rs)) => int_join_positions(ls, rs, threads, morsel_rows),
        None => hash_join_positions(left, right),
    }
}

/// The flat-table join behind [`parallel_hash_join_positions`] and the
/// serial [`hash_join_positions`] (one worker, one morsel).
pub(crate) fn int_join_positions(
    ls: &[i64],
    rs: &[i64],
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<(usize, usize)>> {
    // Build over the smaller side (the left on a tie), probe with the
    // other morsel by morsel; pairs are always `(left row, right row)`.
    let build_left = ls.len() <= rs.len();
    let (build, probe) = if build_left { (ls, rs) } else { (rs, ls) };
    let table = JoinTable::build(build)?;
    let chunks = run_morsels(probe.len(), morsel_rows, threads, |_index, lo, hi| {
        let mut out = Vec::new();
        for (p, &k) in probe[lo..hi].iter().enumerate() {
            let p = lo + p;
            out.extend(
                table
                    .matches(k)
                    .iter()
                    .map(|&b| if build_left { (b, p) } else { (p, b) }),
            );
        }
        charge_current(out.len() * PAIR_BYTES)?;
        Ok(out)
    })?;
    if build_left {
        // Probing the right side: morsel concatenation is right-scan order
        // and every run lists its left rows ascending.
        return Ok(concat(chunks));
    }
    // Probing the left side, the pairs come out in left-scan order. A
    // stable counting sort on the right position puts them into right-scan
    // order, left rows ascending within each right row because that is the
    // order they arrive in.
    let mut cursor = vec![0usize; rs.len() + 1];
    for &(_, j) in chunks.iter().flatten() {
        cursor[j + 1] += 1;
    }
    for j in 1..cursor.len() {
        cursor[j] += cursor[j - 1];
    }
    let total = cursor[rs.len()];
    charge_current(cursor.len() * 8 + total * PAIR_BYTES)?;
    let mut out = vec![(0usize, 0usize); total];
    for (i, j) in chunks.into_iter().flatten() {
        out[cursor[j]] = (i, j);
        cursor[j] += 1;
    }
    Ok(out)
}

// ----- Fused cold pipeline operators ------------------------------------
//
// The functions below are the operator half of the fused *cold* pipeline:
// the tokenizer (`scan_morsels` in `nodb-rawcsv`) emits [`MorselBatch`]es
// from worker threads, and these run on that worker, so filtering,
// projection and join builds overlap with parsing instead of waiting for
// the monolithic store load. They all merge in morsel index order, so the
// result is byte-identical to the serial load-then-execute path.

/// Per-morsel output of the fused cold projection: the absolute positions
/// of qualifying rows, plus — when projection emission was requested — the
/// projected output columns for exactly those rows.
#[derive(Debug)]
pub struct ProjectPartial {
    /// Absolute input positions of qualifying rows, ascending.
    pub positions: Vec<usize>,
    /// One dense typed chunk per output expression, aligned with
    /// `positions` (empty when the caller asked for positions only, e.g.
    /// under ORDER BY where projection must wait for the global sort).
    pub columns: Vec<ColumnData>,
}

/// Fused cold projection over one tokenizer morsel: filter the batch with
/// `conj` and, when `exprs` is given, evaluate the output expressions for
/// qualifying rows right here on the scan worker. Slot `k` of the batch's
/// columns holds ordinal `ids[k]` (the producing scan's `needed` list).
///
/// The batch must come from a scan without pushdown (`rowids` dense), so
/// local row `i` is absolute row `first_row + i` — the concatenation of
/// per-morsel `positions` in morsel order is then exactly the serial
/// [`filter_positions`](crate::columnar::filter_positions) output over the
/// assembled columns, and the appended `columns` chunks are exactly what
/// a serial [`project_columns`] of those positions would produce.
pub fn cold_project_morsel(
    ids: &[usize],
    batch: &MorselBatch,
    conj: &Conjunction,
    exprs: Option<&[Expr]>,
) -> Result<ProjectPartial> {
    debug_assert_eq!(batch.rowids.len(), batch.n_rows, "pushdown-free scan");
    let cols = OrdinalCols::new(ids, &batch.columns);
    let n = batch.rowids.len();
    let local: Vec<usize> = if conj.is_always_true() {
        (0..n).collect()
    } else {
        filter_positions_range(&cols, 0, n, conj)?
    };
    let columns = match exprs {
        Some(exprs) => project_columns(&cols, &local, exprs)?,
        None => Vec::new(),
    };
    // Projection output grows with qualifying rows: charge the emitted
    // chunks and positions against the ambient budget, once per morsel.
    let chunk_bytes: usize = columns.iter().map(ColumnData::approx_bytes).sum();
    charge_current(local.len() * std::mem::size_of::<usize>() + chunk_bytes)?;
    let positions = local.into_iter().map(|i| batch.first_row + i).collect();
    Ok(ProjectPartial { positions, columns })
}

/// Stitch per-morsel projection partials (in morsel index order) into one
/// position vector and one dense column per output expression — the
/// deterministic merge that makes the fused cold projection identical to
/// the serial path. The columns come back empty when no partial carried
/// any (positions-only emission, or no morsels at all).
pub fn stitch_cold_projection(parts: Vec<ProjectPartial>) -> Result<(Vec<usize>, Vec<ColumnData>)> {
    let n_pos = parts.iter().map(|p| p.positions.len()).sum();
    let mut positions = Vec::with_capacity(n_pos);
    let mut columns: Vec<ColumnData> = Vec::new();
    for mut p in parts {
        positions.append(&mut p.positions);
        if columns.is_empty() {
            columns = p.columns;
        } else {
            for (dst, src) in columns.iter_mut().zip(p.columns) {
                dst.append(src)?;
            }
        }
    }
    Ok((positions, columns))
}

/// Build-side half of the morsel-fed cold join: one morsel's qualifying
/// join keys as `(key, absolute row)` entries, rows ascending. NULL keys
/// never match and are dropped here, exactly as the serial
/// [`hash_join_positions`] drops them. `local_positions` are the
/// morsel-local qualifying rows (ascending); the per-morsel entry lists,
/// in morsel order, are what [`JoinTable::from_morsels`] builds from.
pub fn cold_join_build_morsel(
    keys: &ColumnData,
    local_positions: &[usize],
    first_row: usize,
) -> Vec<(i64, usize)> {
    let nullable = matches!(keys, ColumnData::Int64 { nulls: Some(_), .. });
    if let (Some(ks), false) = (keys.as_i64_slice(), nullable) {
        return local_positions
            .iter()
            .map(|&i| (ks[i], first_row + i))
            .collect();
    }
    local_positions
        .iter()
        .filter_map(|&i| match keys.get(i) {
            Value::Int(k) => Some((k, first_row + i)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::columnar::filter_positions;
    use crate::group::reference_group_aggregate;
    use nodb_types::{CmpOp, ColPred};
    use std::collections::BTreeMap;

    fn table(n: usize) -> (BTreeMap<usize, ColumnData>, usize) {
        let mut cols = BTreeMap::new();
        cols.insert(
            0,
            ColumnData::from_i64((0..n as i64).map(|i| (i * 37) % 1009).collect()),
        );
        cols.insert(
            1,
            ColumnData::from_i64((0..n as i64).map(|i| i * 2).collect()),
        );
        cols.insert(
            2,
            ColumnData::from_f64((0..n).map(|i| i as f64 / 3.0).collect()),
        );
        (cols, n)
    }

    /// Slice a table's columns into [`MorselBatch`]es of `morsel_rows`
    /// each, as a pushdown-free tokenizer scan would emit them.
    fn slice_batches(
        ids: &[usize],
        cols: &BTreeMap<usize, ColumnData>,
        n: usize,
        morsel_rows: usize,
    ) -> Vec<MorselBatch> {
        let mut batches = Vec::new();
        let mut lo = 0;
        while lo < n.max(1) && lo < n {
            let hi = (lo + morsel_rows).min(n);
            let take: Vec<usize> = (lo..hi).collect();
            batches.push(MorselBatch {
                index: batches.len(),
                first_row: lo,
                n_rows: hi - lo,
                rowids: (lo as u64..hi as u64).collect(),
                columns: ids.iter().map(|&c| cols[&c].take(&take)).collect(),
            });
            lo = hi;
        }
        batches
    }

    #[test]
    fn cold_projection_morsels_match_serial() {
        let (cols, n) = table(3000);
        let conj = Conjunction::new(vec![ColPred::new(0, CmpOp::Lt, 700i64)]);
        let exprs = vec![Expr::Col(1), Expr::Col(0)];
        let ids = vec![0usize, 1, 2];
        let serial_pos = filter_positions(&cols, n, &conj).unwrap();
        let serial_cols = project_columns(&cols, &serial_pos, &exprs).unwrap();
        for morsel_rows in [7, 250, 5000] {
            let parts: Vec<ProjectPartial> = slice_batches(&ids, &cols, n, morsel_rows)
                .iter()
                .map(|b| cold_project_morsel(&ids, b, &conj, Some(&exprs)).unwrap())
                .collect();
            let (positions, columns) = stitch_cold_projection(parts).unwrap();
            assert_eq!(positions, serial_pos, "morsel_rows={morsel_rows}");
            assert_eq!(columns, serial_cols, "morsel_rows={morsel_rows}");
        }
    }

    /// The documented pair order, by definition: right-scan order,
    /// ascending left position per match.
    fn nested_loop_pairs(ls: &[i64], rs: &[i64]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (j, r) in rs.iter().enumerate() {
            for (i, l) in ls.iter().enumerate() {
                if l == r {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// The fused cold join over `morsel_rows`-row batches of both sides.
    fn cold_join_pairs(ls: &[i64], rs: &[i64], morsel_rows: usize) -> Vec<(usize, usize)> {
        let ids = [0usize];
        let batches = |xs: &[i64]| {
            let mut cols = BTreeMap::new();
            cols.insert(0, ColumnData::from_i64(xs.to_vec()));
            slice_batches(&ids, &cols, xs.len(), morsel_rows)
        };
        let parts: Vec<Vec<(i64, usize)>> = batches(ls)
            .iter()
            .map(|b| {
                let local: Vec<usize> = (0..b.n_rows).collect();
                cold_join_build_morsel(&b.columns[0], &local, b.first_row)
            })
            .collect();
        let table = JoinTable::from_morsels(&parts).unwrap();
        batches(rs)
            .iter()
            .flat_map(|b| {
                let local: Vec<usize> = (0..b.n_rows).collect();
                table.probe_morsel(&b.columns[0], &local, b.first_row)
            })
            .collect()
    }

    /// Serial, parallel warm and fused cold joins all produce the
    /// nested-loop pair list, element for element.
    fn assert_joins_agree(ls: &[i64], rs: &[i64]) {
        let want = nested_loop_pairs(ls, rs);
        let (left, right) = (
            ColumnData::from_i64(ls.to_vec()),
            ColumnData::from_i64(rs.to_vec()),
        );
        assert_eq!(hash_join_positions(&left, &right).unwrap(), want, "serial");
        for morsel_rows in [1, 7, 32 * 1024] {
            for threads in [1, 2, 5] {
                let par = parallel_hash_join_positions(&left, &right, threads, morsel_rows);
                assert_eq!(
                    par.unwrap(),
                    want,
                    "threads={threads} morsel_rows={morsel_rows}"
                );
            }
            assert_eq!(
                cold_join_pairs(ls, rs, morsel_rows),
                want,
                "cold {morsel_rows}"
            );
        }
    }

    #[test]
    fn joins_agree_on_either_build_side() {
        let big: Vec<i64> = (0..300).map(|i| (i * 13) % 41 - 20).collect();
        let small: Vec<i64> = (0..60).map(|i| (i * 7) % 50 - 25).collect();
        // Left smaller builds left; left larger builds right and transposes.
        assert_joins_agree(&small, &big);
        assert_joins_agree(&big, &small);
        assert_joins_agree(&big, &big);
        // One-key skew on both sides, and extreme keys.
        assert_joins_agree(&[7; 40], &[7, 7, 8, 7]);
        assert_joins_agree(&[7, 7, 8, 7], &[7; 40]);
        assert_joins_agree(
            &[i64::MIN, -1, i64::MAX, -1],
            &[-1, i64::MAX, i64::MIN, 0, -1],
        );
        // An empty side.
        assert_joins_agree(&[], &big);
        assert_joins_agree(&big, &[]);
    }

    proptest::proptest! {
        /// Random small-domain keys: duplicates on both sides, either side
        /// the smaller one.
        #[test]
        fn joins_agree_on_random_keys(
            ls in proptest::collection::vec(-6i64..6, 0..40),
            rs in proptest::collection::vec(-6i64..6, 0..40),
        ) {
            assert_joins_agree(&ls, &rs);
        }
    }

    #[test]
    fn cold_join_skips_null_keys_like_serial() {
        let mut build = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Int(1), Value::Null, Value::Int(2), Value::Int(1)] {
            build.push(v).unwrap();
        }
        let mut probe = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Int(2), Value::Null, Value::Int(1)] {
            probe.push(v).unwrap();
        }
        let serial = hash_join_positions(&build, &probe).unwrap();
        let parts = vec![cold_join_build_morsel(&build, &[0, 1, 2, 3], 0)];
        let table = JoinTable::from_morsels(&parts).unwrap();
        let pairs = table.probe_morsel(&probe, &[0, 1, 2], 0);
        assert_eq!(pairs, serial);
    }

    /// The one row of a plain aggregate per the row-at-a-time reference.
    fn reference_row(
        cols: &BTreeMap<usize, ColumnData>,
        n: usize,
        conj: &Conjunction,
        specs: &[AggSpec],
        morsel_rows: usize,
    ) -> Vec<Value> {
        let mut rows = reference_group_aggregate(cols, n, conj, &[], specs, morsel_rows).unwrap();
        assert_eq!(rows.len(), 1);
        rows.remove(0)
    }

    #[test]
    fn parallel_aggregate_matches_reference_for_any_thread_count() {
        let (cols, n) = table(10_000);
        let conj = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 100i64),
            ColPred::new(0, CmpOp::Lt, 900i64),
        ]);
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 1),
            AggSpec::on_col(AggFunc::Min, 0),
            AggSpec::on_col(AggFunc::Max, 1),
            AggSpec::on_col(AggFunc::Avg, 2),
            AggSpec::count_star(),
        ];
        for morsel_rows in [64, 1000, 100_000] {
            let want = reference_row(&cols, n, &conj, &specs, morsel_rows);
            for threads in [1, 2, 7] {
                let par = parallel_filter_aggregate(&cols, n, &conj, &specs, threads, morsel_rows)
                    .unwrap();
                assert_eq!(par, want, "threads={threads} morsel_rows={morsel_rows}");
            }
        }
    }

    #[test]
    fn parallel_aggregate_no_filter_and_empty_input() {
        let (cols, n) = table(1000);
        let always = Conjunction::always();
        let specs = vec![AggSpec::on_col(AggFunc::Avg, 1), AggSpec::count_star()];
        let par = parallel_filter_aggregate(&cols, n, &always, &specs, 3, 128).unwrap();
        assert_eq!(par, reference_row(&cols, n, &always, &specs, 128));
        // Zero rows, or none qualifying: one row, NULL avg, zero count.
        let none = vec![Value::Null, Value::Int(0)];
        let (empty, _) = table(0);
        let par = parallel_filter_aggregate(&empty, 0, &always, &specs, 3, 128).unwrap();
        assert_eq!(par, none);
        let never = Conjunction::new(vec![ColPred::new(1, CmpOp::Lt, 0i64)]);
        let par = parallel_filter_aggregate(&cols, n, &never, &specs, 3, 128).unwrap();
        assert_eq!(par, none);
    }

    #[test]
    fn plain_aggregates_build_no_per_row_state() {
        use nodb_types::resource::{MemoryGuard, MemoryScope};
        // A plain aggregate keeps one group and no group-id vector, so a
        // 64 KiB query budget covers 1 M rows; one `u32` id per row would
        // charge 128 KiB on the first morsel alone.
        let n = 1 << 20;
        let mut cols = BTreeMap::new();
        cols.insert(0, ColumnData::from_i64((0..n as i64).collect()));
        let every_row = Conjunction::new(vec![ColPred::new(0, CmpOp::Ge, 0i64)]);
        let shapes = [
            (Conjunction::always(), vec![AggSpec::count_star()]),
            (
                every_row,
                vec![AggSpec::on_col(AggFunc::Sum, 0), AggSpec::count_star()],
            ),
        ];
        for threads in [1, 4] {
            for (conj, specs) in &shapes {
                let guard = MemoryGuard::new(Some(64 << 10), None);
                let _scope = MemoryScope::enter(guard);
                let row =
                    parallel_filter_aggregate(&cols, n, conj, specs, threads, DEFAULT_MORSEL_ROWS)
                        .unwrap();
                assert_eq!(row.last(), Some(&Value::Int(n as i64)), "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_positions_identical_to_serial() {
        let (cols, n) = table(5000);
        let conj = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Ge, 200i64),
            ColPred::new(2, CmpOp::Lt, 1500.0f64),
        ]);
        let serial = filter_positions(&cols, n, &conj).unwrap();
        for threads in [1, 2, 5] {
            let par = parallel_filter_positions(&cols, n, &conj, threads, 333).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_join_falls_back_on_nullable_keys() {
        let mut left = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Int(1), Value::Null, Value::Int(2)] {
            left.push(v).unwrap();
        }
        let right = ColumnData::from_i64(vec![2, 1, 1]);
        let serial = hash_join_positions(&left, &right).unwrap();
        let par = parallel_hash_join_positions(&left, &right, 4, 2).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn tight_memory_budget_sheds_parallel_join() {
        use nodb_types::resource::{MemoryGuard, MemoryScope};
        let n = 4000;
        let left = ColumnData::from_i64((0..n as i64).map(|i| (i * 13) % 257).collect());
        let right = ColumnData::from_i64((0..n as i64).map(|i| (i * 7) % 300).collect());
        // A budget far below the build-side footprint must surface as the
        // typed shed error from inside the metered join, not a panic/abort.
        let guard = MemoryGuard::new(Some(1024), None);
        let _scope = MemoryScope::enter(guard);
        let err = parallel_hash_join_positions(&left, &right, 4, 500).unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted(_)),
            "expected ResourceExhausted, got {err:?}"
        );
    }

    #[test]
    fn tight_memory_budget_sheds_parallel_group_by() {
        use nodb_types::resource::{MemoryGuard, MemoryPool, MemoryScope};
        // ~100 k distinct keys: group ids, key columns and typed state all
        // grow with them and are metered, so a 64 KiB query budget sheds
        // with the typed error — and the pool gets everything back.
        let n = 100_000;
        let mut cols = BTreeMap::new();
        cols.insert(
            0,
            ColumnData::from_i64((0..n as i64).map(|i| i * 7).collect()),
        );
        cols.insert(1, ColumnData::from_i64((0..n as i64).collect()));
        let specs = vec![AggSpec::on_col(AggFunc::Sum, 1), AggSpec::count_star()];
        let pool = MemoryPool::new(None);
        let before = pool.reserved();
        for threads in [1, 4] {
            let guard = MemoryGuard::new(Some(64 << 10), Some(pool.clone()));
            let scope = MemoryScope::enter(guard);
            let err = parallel_group_aggregate(
                &cols,
                n,
                &Conjunction::always(),
                &[0],
                &specs,
                threads,
                8192,
                0,
            )
            .unwrap_err();
            assert!(
                matches!(err, Error::ResourceExhausted(_)),
                "threads={threads}: expected ResourceExhausted, got {err:?}"
            );
            drop(scope);
            assert_eq!(pool.reserved(), before, "threads={threads}");
        }
    }

    #[test]
    fn ample_memory_budget_leaves_results_identical() {
        use nodb_types::resource::{MemoryGuard, MemoryScope};
        let (cols, n) = table(5000);
        let conj = Conjunction::new(vec![ColPred::new(0, CmpOp::Ge, 200i64)]);
        let serial = filter_positions(&cols, n, &conj).unwrap();
        let guard = MemoryGuard::new(Some(64 << 20), None);
        let _scope = MemoryScope::enter(guard.clone());
        let par = parallel_filter_positions(&cols, n, &conj, 4, 333).unwrap();
        assert_eq!(par, serial);
        assert!(guard.used() > 0, "metered run should have charged bytes");
    }

    #[test]
    fn run_morsels_propagates_errors() {
        let r: Result<Vec<()>> = run_morsels(100, 10, 4, |index, _lo, _hi| {
            if index == 7 {
                Err(Error::exec("boom"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn parallel_group_by_matches_reference_for_any_thread_count() {
        let (cols, n) = table(10_000);
        let conj = Conjunction::new(vec![ColPred::new(1, CmpOp::Lt, 15_000i64)]);
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 1),
            AggSpec::on_col(AggFunc::Min, 0),
            AggSpec::on_col(AggFunc::Avg, 2),
            AggSpec::count_star(),
        ];
        for group_cols in [vec![0usize], vec![0, 1]] {
            for morsel_rows in [64, 1000, 100_000] {
                let want =
                    reference_group_aggregate(&cols, n, &conj, &group_cols, &specs, morsel_rows)
                        .unwrap();
                for threads in [1, 2, 7] {
                    let par = parallel_group_aggregate(
                        &cols,
                        n,
                        &conj,
                        &group_cols,
                        &specs,
                        threads,
                        morsel_rows,
                        0,
                    )
                    .unwrap();
                    assert_eq!(par, want, "threads={threads} morsel_rows={morsel_rows}");
                }
            }
        }
        // Zero rows: zero groups (with key columns).
        let (empty, _) = table(0);
        let par =
            parallel_group_aggregate(&empty, 0, &Conjunction::always(), &[0], &specs, 3, 128, 0)
                .unwrap();
        assert!(par.is_empty());
    }
}
