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
//! * [`parallel_join_group_columns`] — aggregates and GROUP BY over an
//!   equi-join, folded into the group kernel on the probe workers without
//!   listing the join's pairs;
//! * [`parallel_hash_join_positions`] — one flat [`JoinTable`] over the
//!   smaller key column, probed morsel by morsel, reproducing the serial
//!   pair order exactly (the scalar join's pairs).
//!
//! Determinism: every parallel function here merges per-morsel results in
//! morsel index order, so output does not depend on worker scheduling or
//! on the worker count: a single worker runs the same morsels inline.
//! Integer aggregates are bit-identical to a row-at-a-time fold; float
//! sums associate per morsel (over a join, per probe morsel).

use std::collections::BTreeMap;

use nodb_types::profile::{self, Phase};
use nodb_types::resource::charge_current;
use nodb_types::{
    map_morsels, CancelCheck, ColumnData, ColumnPage, Conjunction, MorselRange, PageColumn, Result,
    Selection, Value,
};

use crate::cols::Cols;
use crate::columnar::{filter_positions_range, AggSpec};
use crate::expr::Expr;
use crate::group::{
    column, group_partial_range, merge_group_partials, GroupFold, GroupPartial, Input,
};
use crate::join::{hash_join_positions, null_free_int_keys, JoinIndex, JoinTable};

/// Default rows per morsel: big enough to amortise dispatch, small enough
/// to balance skew and stay cache-resident.
pub const DEFAULT_MORSEL_ROWS: usize = 32_768;

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
    let parts = map_morsels(
        n_rows,
        morsel_rows,
        threads,
        |MorselRange { lo, hi, .. }| {
            let pos = filter_positions_range(cols, lo, hi, conj)?;
            charge_current(pos.len() * std::mem::size_of::<usize>())?;
            Ok(pos)
        },
    )?;
    Ok(concat(parts))
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
    let mut partials = map_morsels(
        n_rows,
        morsel_rows,
        threads,
        |MorselRange { lo, hi, .. }| group_partial_range(cols, lo, hi, conj, group_cols, specs),
    )?;
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

/// One input of [`parallel_join_group_columns`]: a join side's columns
/// under table-local ordinals, the rows its filter keeps, and its join
/// key.
pub struct JoinSide<'a, C: ?Sized> {
    /// The side's materialised columns, all `n_rows` long.
    pub cols: &'a C,
    /// The qualifying rows, ascending; `None` when all `n_rows` qualify.
    pub rows: Option<&'a [usize]>,
    /// Rows of every column in `cols`.
    pub n_rows: usize,
    /// Ordinal of the join key column.
    pub key: usize,
}

impl<C: ?Sized> JoinSide<'_, C> {
    /// Number of qualifying rows.
    pub fn qualifying(&self) -> usize {
        self.rows.map_or(self.n_rows, <[usize]>::len)
    }

    /// Qualifying rows `lo..hi`, counted among the qualifying ones.
    fn selection(&self, lo: usize, hi: usize) -> Selection<'_> {
        match self.rows {
            None => Selection::Range(lo..hi),
            Some(rows) => Selection::Positions(&rows[lo..hi]),
        }
    }
}

/// Where an aggregate over a join reads its argument; sides are 0 (left)
/// and 1 (right).
enum JoinArg<'a> {
    /// `COUNT(*)` and friends.
    None,
    /// One column of one side.
    Col(usize, &'a ColumnData),
    /// Any other expression, with the `(combined ordinal, side, column)`
    /// of each column it reads.
    Expr(&'a Expr, Vec<(usize, usize, &'a ColumnData)>),
}

/// What a probe worker folds for an aggregate over a join: the GROUP BY
/// columns and aggregate arguments resolved to their sides.
struct JoinFold<'a> {
    /// `(side, column)` per GROUP BY column.
    group: Vec<(usize, &'a ColumnData)>,
    specs: &'a [AggSpec],
    args: Vec<JoinArg<'a>>,
    /// Whether the fold reads each side's rows at all.
    reads: [bool; 2],
    /// The built side; the other one probes.
    build: usize,
    /// Most pairs folded in one step.
    slice_pairs: usize,
}

impl<'a> JoinFold<'a> {
    /// Fold the pairs of one probe morsel, in probe-scan order and
    /// ascending build row per match, in steps of at most `slice_pairs`.
    fn morsel(
        &self,
        index: &JoinIndex,
        key: &ColumnData,
        probe: &Selection,
    ) -> Result<GroupPartial> {
        let key_cols: Vec<&ColumnData> = self.group.iter().map(|&(_, col)| col).collect();
        let mut fold = GroupFold::new(&key_cols, self.specs);
        let mut rows: [Vec<usize>; 2] = Default::default();
        let (cap, mut n) = (self.slice_pairs, 0);
        let mut cancel = CancelCheck::new();
        index.probe(key, probe, |row, mut matches| {
            while n + matches.len() >= cap {
                // This row fills the slice: fold it and start the next.
                let (now, rest) = matches.split_at(cap - n);
                self.push(&mut rows, row, now);
                cancel.tick(cap)?;
                self.step(&mut fold, &rows, cap)?;
                rows.iter_mut().for_each(Vec::clear);
                (n, matches) = (0, rest);
            }
            self.push(&mut rows, row, matches);
            n += matches.len();
            Ok(())
        })?;
        self.step(&mut fold, &rows, n)?;
        charge_current((rows[0].capacity() + rows[1].capacity()) * std::mem::size_of::<usize>())?;
        fold.finish()
    }

    /// List the pairs of probe row `row` with build rows `matches` in
    /// the sides' row vectors the fold reads.
    #[inline(always)]
    fn push(&self, rows: &mut [Vec<usize>; 2], row: usize, matches: &[usize]) {
        let (b, p) = (self.build, 1 - self.build);
        if self.reads[b] {
            rows[b].extend(matches.iter().copied());
        }
        if self.reads[p] {
            rows[p].extend(std::iter::repeat_n(row, matches.len()));
        }
    }

    /// Fold `n` pairs whose rows are `rows[side]`.
    fn step(&self, fold: &mut GroupFold<'a>, rows: &[Vec<usize>; 2], n: usize) -> Result<()> {
        let keys: Vec<Input> = self
            .group
            .iter()
            .map(|&(s, col)| (col, Selection::Positions(&rows[s])))
            .collect();
        // Expressions evaluate over the columns they read, gathered
        // through the pairs.
        let evaluated = self
            .args
            .iter()
            .map(|arg| match arg {
                JoinArg::Expr(e, cols) => {
                    let gathered: BTreeMap<usize, ColumnData> = cols
                        .iter()
                        .map(|&(c, s, col)| (c, col.take(&rows[s])))
                        .collect();
                    e.eval_column(&gathered, 0..n).map(Some)
                }
                _ => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        let inputs: Vec<Option<Input>> = self
            .args
            .iter()
            .zip(&evaluated)
            .map(|(arg, evaluated)| match (arg, evaluated) {
                (_, Some(col)) => Some((col, Selection::Range(0..n))),
                (JoinArg::Col(s, col), None) => Some((*col, Selection::Positions(&rows[*s]))),
                _ => None,
            })
            .collect();
        fold.step(&keys, &inputs, n)
    }
}

/// GROUP BY and aggregates over an inner equi-join, folded on the probe
/// workers without materialising the join. One join index is built over
/// the smaller qualifying side (the left on a tie); the other side's
/// qualifying rows are probed in `morsel_rows` morsels on stealing
/// workers. Each morsel's pairs come in probe-scan order, ascending build
/// row per match, and fold into one partial in steps of at most
/// `morsel_rows` pairs, each step reading only the columns the
/// aggregates and `group_cols` name, through the pairs' rows. The
/// morsels' partials merge in morsel order ([`merge_group_partials`]).
///
/// `group_cols` and the aggregates' columns are combined ordinals: the
/// left side's as they are, the right side's after `left_width`. The
/// result has the shape of [`parallel_group_columns`]'s: group keys ++
/// aggregates, one row per group in first-appearance order of the probe
/// scan. Integer results equal a fold over the materialised pairs; float
/// sums associate per probe morsel. Both depend only on the data, the
/// qualifying rows and `morsel_rows`, never on `threads`. The build is
/// timed as [`Phase::JoinBuild`], the probe and fold as
/// [`Phase::JoinProbe`].
pub fn parallel_join_group_columns<C: Cols + ?Sized + Sync>(
    left: &JoinSide<'_, C>,
    right: &JoinSide<'_, C>,
    left_width: usize,
    group_cols: &[usize],
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<ColumnData>> {
    let morsel_rows = morsel_rows.max(1);
    let sides = [left, right];
    let keys = [column(left.cols, left.key)?, column(right.cols, right.key)?];
    let resolve = |c: usize| {
        let (s, local) = if c < left_width {
            (0, c)
        } else {
            (1, c - left_width)
        };
        column(sides[s].cols, local).map(|col| (s, col))
    };
    let group = group_cols
        .iter()
        .map(|&c| resolve(c))
        .collect::<Result<Vec<_>>>()?;
    let args = specs
        .iter()
        .map(|spec| match &spec.expr {
            None => Ok(JoinArg::None),
            Some(Expr::Col(c)) => resolve(*c).map(|(s, col)| JoinArg::Col(s, col)),
            Some(e) => e
                .columns()
                .into_iter()
                .map(|c| resolve(c).map(|(s, col)| (c, s, col)))
                .collect::<Result<_>>()
                .map(|cols| JoinArg::Expr(e, cols)),
        })
        .collect::<Result<Vec<_>>>()?;
    // A side nothing is read from never has its rows listed.
    let mut reads = [false; 2];
    for &(s, _) in &group {
        reads[s] = true;
    }
    for arg in &args {
        match arg {
            JoinArg::None => {}
            JoinArg::Col(s, _) => reads[*s] = true,
            JoinArg::Expr(_, cols) => cols.iter().for_each(|&(_, s, _)| reads[s] = true),
        }
    }
    // Build over the smaller qualifying side, the left on a tie.
    let build = usize::from(left.qualifying() > right.qualifying());
    let probe = 1 - build;
    let fold = JoinFold {
        group,
        specs,
        args,
        reads,
        build,
        slice_pairs: morsel_rows,
    };
    let index = profile::time(Phase::JoinBuild, || {
        let rows = sides[build].selection(0, sides[build].qualifying());
        JoinIndex::build(keys[build], &rows, keys[probe])
    })?;
    profile::time(Phase::JoinProbe, || {
        let side = sides[probe];
        let mut partials = map_morsels(side.qualifying(), morsel_rows, threads, |r| {
            fold.morsel(&index, keys[probe], &side.selection(r.lo, r.hi))
        })?;
        if partials.is_empty() {
            // No probe morsel: one empty partial still takes the result's
            // column types (and is the one group of a plain aggregate).
            partials.push(fold.morsel(&index, keys[probe], &side.selection(0, 0))?);
        }
        merge_group_partials(partials)
    })
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
    let chunks = map_morsels(
        probe.len(),
        morsel_rows,
        threads,
        |MorselRange { lo, hi, .. }| {
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
        },
    )?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::columnar::filter_positions;
    use crate::group::reference_group_aggregate;
    use nodb_types::{CmpOp, ColPred, ContextGuard, Error, MemoryGuard, QueryContext};
    use std::collections::BTreeMap;

    /// Install `guard` as the ambient per-query meter.
    fn metered(guard: MemoryGuard) -> ContextGuard {
        QueryContext {
            memory: Some(guard),
            ..QueryContext::current()
        }
        .enter()
    }

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

    /// Serial and parallel joins both produce the nested-loop pair list,
    /// element for element.
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
                let _scope = metered(guard);
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
        let n = 4000;
        let left = ColumnData::from_i64((0..n as i64).map(|i| (i * 13) % 257).collect());
        let right = ColumnData::from_i64((0..n as i64).map(|i| (i * 7) % 300).collect());
        // A budget far below the build-side footprint must surface as the
        // typed shed error from inside the metered join, not a panic/abort.
        let guard = MemoryGuard::new(Some(1024), None);
        let _scope = metered(guard);
        let err = parallel_hash_join_positions(&left, &right, 4, 500).unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted(_)),
            "expected ResourceExhausted, got {err:?}"
        );
    }

    #[test]
    fn tight_memory_budget_sheds_parallel_group_by() {
        use nodb_types::resource::MemoryPool;
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
            let scope = metered(guard);
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
        let (cols, n) = table(5000);
        let conj = Conjunction::new(vec![ColPred::new(0, CmpOp::Ge, 200i64)]);
        let serial = filter_positions(&cols, n, &conj).unwrap();
        let guard = MemoryGuard::new(Some(64 << 20), None);
        let _scope = metered(guard.clone());
        let par = parallel_filter_positions(&cols, n, &conj, 4, 333).unwrap();
        assert_eq!(par, serial);
        assert!(guard.used() > 0, "metered run should have charged bytes");
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

    mod join_fold {
        use super::*;
        use crate::expr::ArithOp;
        use nodb_types::DataType;

        /// Columns of every join side here: 0 the join key, 1 an int, 2 an
        /// exact float (a multiple of 1/8, so every summation order gives
        /// the same bits), 3 text, 4 a small int, 5 an inexact float.
        const WIDTH: usize = 6;
        const STRS: [&str; 5] = ["", "a", "pear", "é", "fig"];

        fn side_columns(keys: &[Option<i64>], salt: u64) -> BTreeMap<usize, ColumnData> {
            let mix = |i: usize| ((i as u64 + 1) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
            let n = keys.len();
            let column = |ty, f: &dyn Fn(usize) -> Value| {
                ColumnData::from_values(ty, (0..n).map(f)).unwrap()
            };
            let mut cols = BTreeMap::new();
            cols.insert(
                0,
                column(DataType::Int64, &|i| {
                    keys[i].map_or(Value::Null, Value::Int)
                }),
            );
            cols.insert(
                1,
                column(DataType::Int64, &|i| match mix(i) % 7 {
                    0 => Value::Null,
                    x => Value::Int(x as i64 * 37 - 100),
                }),
            );
            cols.insert(
                2,
                column(DataType::Float64, &|i| match mix(i) % 11 {
                    0 => Value::Null,
                    x => Value::Float((x * 13 % 64) as f64 / 8.0 - 4.0),
                }),
            );
            cols.insert(
                3,
                column(DataType::Str, &|i| match mix(i) % 9 {
                    0 => Value::Null,
                    x => Value::Str(STRS[x as usize % STRS.len()].to_owned()),
                }),
            );
            cols.insert(
                4,
                column(DataType::Int64, &|i| Value::Int((mix(i) >> 8) as i64 % 3)),
            );
            cols.insert(
                5,
                column(DataType::Float64, &|i| {
                    Value::Float(i as f64 / 7.0 + salt as f64 * 0.1)
                }),
            );
            cols
        }

        type Side<'a> = JoinSide<'a, BTreeMap<usize, ColumnData>>;

        fn side<'a>(
            cols: &'a BTreeMap<usize, ColumnData>,
            rows: Option<&'a [usize]>,
            key: usize,
        ) -> Side<'a> {
            Side {
                cols,
                rows,
                n_rows: cols[&0].len(),
                key,
            }
        }

        /// The materialised join: pairs from [`hash_join_positions`] in
        /// right-scan order, every column gathered through them, then the
        /// group kernel over the gathered rows.
        fn reference(
            l: &Side,
            r: &Side,
            group_cols: &[usize],
            specs: &[AggSpec],
            morsel_rows: usize,
        ) -> Result<Vec<ColumnData>> {
            let key = |s: &Side| {
                let k = &s.cols[&s.key];
                s.rows.map_or_else(|| k.clone(), |rows| k.take(rows))
            };
            let pairs = hash_join_positions(&key(l), &key(r))?;
            let at = |p: usize, rows: Option<&[usize]>| rows.map_or(p, |v| v[p]);
            let li: Vec<usize> = pairs.iter().map(|&(a, _)| at(a, l.rows)).collect();
            let ri: Vec<usize> = pairs.iter().map(|&(_, b)| at(b, r.rows)).collect();
            let mut combined = BTreeMap::new();
            for (&c, col) in l.cols {
                combined.insert(c, col.take(&li));
            }
            for (&c, col) in r.cols {
                combined.insert(WIDTH + c, col.take(&ri));
            }
            let always = Conjunction::always();
            parallel_group_columns(
                &combined,
                pairs.len(),
                &always,
                group_cols,
                specs,
                1,
                morsel_rows,
            )
        }

        /// Result rows as cells, floats by bit pattern.
        fn cells(cols: &[ColumnData]) -> Vec<Vec<String>> {
            let n = cols.first().map_or(0, ColumnData::len);
            (0..n)
                .map(|r| {
                    cols.iter()
                        .map(|c| match c.get(r) {
                            Value::Float(f) => format!("f{:016x}", f.to_bits()),
                            v => format!("{v:?}"),
                        })
                        .collect()
                })
                .collect()
        }

        /// The error's kind: its message up to the offending value, which
        /// names whichever bad row the fold met first.
        fn kind(e: &Error) -> String {
            let msg = e.to_string();
            msg.split(" value ").next().unwrap_or_default().to_owned()
        }

        /// The fold against the materialised reference at every morsel
        /// size: the same group set, integers and (exact) floats bit for
        /// bit, or the same error kind. `exact` is false when the specs
        /// sum inexact floats, whose association differs from the
        /// reference's; then only the group keys and counts are compared
        /// with it. Across thread counts the result is identical: rows in
        /// the same order, every float bit, every error message.
        fn check(l: &Side, r: &Side, group_cols: &[usize], specs: &[AggSpec], exact: bool) {
            for morsel_rows in [1, 3, 32 * 1024] {
                let want = reference(l, r, group_cols, specs, morsel_rows);
                let fold = |threads| {
                    parallel_join_group_columns(
                        l,
                        r,
                        WIDTH,
                        group_cols,
                        specs,
                        threads,
                        morsel_rows,
                    )
                };
                let first = fold(1);
                for threads in [1, 2, 5] {
                    let got = fold(threads);
                    let ctx = format!(
                        "threads={threads} morsel_rows={morsel_rows} keys={group_cols:?} \
                         rows=({:?}, {:?}) specs={specs:?}",
                        l.rows.map(<[usize]>::len),
                        r.rows.map(<[usize]>::len)
                    );
                    match (&got, &first) {
                        (Ok(g), Ok(f)) => assert_eq!(cells(g), cells(f), "{ctx}"),
                        (Err(g), Err(f)) => assert_eq!(g.to_string(), f.to_string(), "{ctx}"),
                        _ => panic!("{ctx}: {got:?} vs one thread {first:?}"),
                    }
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => {
                            for (gc, wc) in g.iter().zip(w) {
                                assert_eq!(gc.data_type(), wc.data_type(), "{ctx}");
                            }
                            let keep = if exact { g.len() } else { group_cols.len() };
                            let (mut g, mut w) = (cells(&g[..keep]), cells(&w[..keep]));
                            g.sort();
                            w.sort();
                            assert_eq!(g, w, "{ctx}");
                        }
                        (Err(g), Err(w)) => assert_eq!(kind(g), kind(w), "{ctx}"),
                        _ => panic!("{ctx}: fold {got:?} vs reference {want:?}"),
                    }
                }
            }
        }

        fn col(c: usize) -> Expr {
            Expr::Col(c)
        }

        fn binary(op: ArithOp, l: Expr, r: Expr) -> Expr {
            Expr::Binary {
                op,
                left: Box::new(l),
                right: Box::new(r),
            }
        }

        /// Every aggregate function over ints, exact floats and text from
        /// both sides, and cross-side expressions.
        fn exact_specs() -> Vec<AggSpec> {
            use AggFunc::*;
            let r = |c| WIDTH + c;
            let mut specs = vec![AggSpec::count_star()];
            for func in [Count, Sum, Min, Max, Avg] {
                specs.push(AggSpec::on_col(func, 1));
                specs.push(AggSpec::on_col(func, r(2)));
            }
            for func in [Min, Max, Count] {
                specs.push(AggSpec::on_col(func, 3));
                specs.push(AggSpec::on_col(func, r(3)));
            }
            specs.push(AggSpec::on_col(Max, r(0)));
            specs.push(AggSpec {
                func: Sum,
                expr: Some(binary(ArithOp::Mul, col(1), col(r(4)))),
            });
            specs.push(AggSpec {
                func: Avg,
                expr: Some(binary(ArithOp::Add, col(2), col(r(2)))),
            });
            specs
        }

        /// Float sums whose bits depend on the association.
        fn inexact_specs() -> Vec<AggSpec> {
            vec![
                AggSpec::on_col(AggFunc::Sum, 5),
                AggSpec::on_col(AggFunc::Avg, WIDTH + 5),
                AggSpec {
                    func: AggFunc::Sum,
                    expr: Some(binary(ArithOp::Mul, col(5), col(WIDTH + 5))),
                },
                AggSpec::count_star(),
            ]
        }

        const GROUPINGS: [&[usize]; 7] = [
            &[],
            &[4],
            &[WIDTH + 4],
            &[4, WIDTH + 4],
            &[3],
            &[WIDTH],
            &[WIDTH + 3, 0],
        ];

        /// Every grouping and spec set, with each side unfiltered and
        /// filtered to every third row (which moves the build side when
        /// the sizes are close), joined on `key` (0: int, 3: text).
        fn check_all(lk: &[Option<i64>], rk: &[Option<i64>], key: usize) {
            let (lc, rc) = (side_columns(lk, 1), side_columns(rk, 2));
            let thirds = |n: usize| (0..n).step_by(3).collect::<Vec<_>>();
            let (lt, rt) = (thirds(lk.len()), thirds(rk.len()));
            for (lrows, rrows) in [(None, None), (Some(&lt[..]), None), (None, Some(&rt[..]))] {
                let (l, r) = (side(&lc, lrows, key), side(&rc, rrows, key));
                for group_cols in GROUPINGS {
                    check(&l, &r, group_cols, &exact_specs(), true);
                    check(&l, &r, group_cols, &inexact_specs(), false);
                }
            }
        }

        fn keys(xs: &[i64]) -> Vec<Option<i64>> {
            xs.iter().map(|&x| Some(x)).collect()
        }

        #[test]
        fn fold_matches_materialised_join_on_every_build_side() {
            let big: Vec<i64> = (0..40).map(|i| (i * 13) % 9 - 3).collect();
            let small: Vec<i64> = (0..25).map(|i| (i * 7) % 11 - 4).collect();
            // Right smaller (builds right), left smaller (builds left), a
            // tie (builds left); duplicates on both sides throughout.
            check_all(&keys(&big), &keys(&small), 0);
            check_all(&keys(&small), &keys(&big), 0);
            check_all(&keys(&big[..25]), &keys(&small), 0);
            // One-key skew.
            check_all(&keys(&[7; 30]), &keys(&[7, 7, 8, 7]), 0);
            check_all(&keys(&[7, 7, 8, 7]), &keys(&[7; 30]), 0);
            // NULL keys on both sides never match.
            let nulls = |n: usize| -> Vec<Option<i64>> {
                (0..n as i64)
                    .map(|i| (i % 4 != 0).then_some(i % 5))
                    .collect()
            };
            check_all(&nulls(23), &nulls(17), 0);
            // Extreme and sparse keys: no dense domain.
            let extreme = keys(&[i64::MIN, -1, i64::MAX, -1, 1 << 40]);
            check_all(
                &extreme,
                &keys(&[-1, i64::MAX, i64::MIN, 0, -1, 1 << 40]),
                0,
            );
            // Empty sides.
            check_all(&[], &keys(&small), 0);
            check_all(&keys(&big), &[], 0);
            check_all(&[], &[], 0);
            // Text keys take the value-hashed index.
            check_all(&keys(&big), &keys(&small), 3);
        }

        #[test]
        fn fold_raises_the_reference_errors() {
            let (lk, rk) = (keys(&[1, 1, 2, 3, 1]), keys(&[1, 2, 1, 1]));
            let (mut lc, rc) = (side_columns(&lk, 3), side_columns(&rk, 4));
            let huge = [i64::MAX, i64::MAX - 1, 5, 7, i64::MAX];
            lc.insert(1, ColumnData::from_i64(huge.to_vec()));
            let (l, r) = (side(&lc, None, 0), side(&rc, None, 0));
            // Huge ints times the fan-out overflow the sum; text has no sum.
            let overflow = [AggSpec::on_col(AggFunc::Sum, 1), AggSpec::count_star()];
            let err = parallel_join_group_columns(&l, &r, WIDTH, &[], &overflow, 2, 2).unwrap_err();
            assert_eq!(
                err.to_string(),
                Error::exec("integer overflow in sum").to_string()
            );
            for group_cols in GROUPINGS {
                check(&l, &r, group_cols, &overflow, true);
                for spec in [
                    AggSpec::on_col(AggFunc::Sum, 3),
                    AggSpec::on_col(AggFunc::Avg, WIDTH + 3),
                ] {
                    check(&l, &r, group_cols, &[spec], true);
                }
            }
        }

        proptest::proptest! {
            /// Random small-domain keys with NULLs, random filters: the
            /// fold agrees with the materialised join.
            #[test]
            fn fold_matches_materialised_join_on_random_keys(
                lk in proptest::collection::vec(proptest::option::of(-4i64..4), 0..30),
                rk in proptest::collection::vec(proptest::option::of(-4i64..4), 0..30),
                lmask in proptest::num::u64::ANY,
                rmask in proptest::num::u64::ANY,
                grouping in 0usize..GROUPINGS.len(),
            ) {
                let (lc, rc) = (side_columns(&lk, 5), side_columns(&rk, 6));
                let pick = |n: usize, mask: u64| (0..n).filter(|i| mask >> i & 1 == 1).collect::<Vec<_>>();
                let (lrows, rrows) = (pick(lk.len(), lmask), pick(rk.len(), rmask));
                let (l, r) = (side(&lc, Some(&lrows), 0), side(&rc, Some(&rrows), 0));
                check(&l, &r, GROUPINGS[grouping], &exact_specs(), true);
            }
        }
    }
}
