//! Morsel-driven parallel operators.
//!
//! Morsel-driven parallelism (Leis et al., SIGMOD 2014) splits an input
//! into fixed-size row ranges ("morsels") that worker threads *steal* from
//! a shared counter, so load balances automatically and every operator in
//! the chain runs inside the worker — no tuple queues, no merged
//! intermediate materialisation. This module provides the post-load half
//! of that pipeline over materialised columns:
//!
//! * [`parallel_filter_aggregate`] — predicate evaluation + partial
//!   aggregation per morsel, partials merged in morsel order;
//! * [`parallel_filter_positions`] — parallel selection-vector
//!   construction whose concatenation is byte-identical to the serial
//!   [`filter_positions`](crate::columnar::filter_positions) result;
//! * [`parallel_hash_join_positions`] — partitioned hash-join build and
//!   probe over morsels of the key columns, reproducing the serial pair
//!   order exactly.
//!
//! It also provides the *fused cold* operators, which consume
//! [`nodb_types::MorselBatch`]es straight from the tokenizer so cold
//! queries execute while they parse: [`cold_project_morsel`] /
//! [`stitch_cold_projection`] (per-worker projection emitters with
//! morsel-order batch stitching) and [`cold_join_build_morsel`] /
//! [`build_cold_join_tables`] / [`ColdJoinTables::probe_morsel`]
//! (morsel-fed partitioned join build and probe).
//!
//! The raw-file half (tokenizer morsels) lives in `nodb-rawcsv`'s
//! `scan_morsels`; `nodb-core` connects the two.
//!
//! Determinism: every parallel function here merges per-morsel results in
//! morsel index order, so output does not depend on worker scheduling.
//! Integer aggregates are bit-identical to serial execution; float sums
//! are deterministic but associate per-morsel (with a single worker the
//! grouped and join kernels delegate to the serial fold, which associates
//! per-row).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use nodb_types::resource::charge_current;
use nodb_types::{
    drive_morsels, morsel_count, ColumnData, Conjunction, Error, MorselBatch, Result, Value,
};

use crate::agg::Accumulator;
use crate::cols::Cols;
use crate::columnar::{accumulate_into, filter_positions_range, AggSpec, GroupKey};
use crate::expr::Expr;
use crate::join::hash_join_positions;
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

/// Morsel-parallel fused filter + aggregate over materialised columns.
/// Equivalent to [`fused_filter_aggregate`](crate::hybrid::fused_filter_aggregate)
/// but each worker filters and partially aggregates its own morsels;
/// partials merge in morsel order.
pub fn parallel_filter_aggregate<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<Value>> {
    let partials = run_morsels(n_rows, morsel_rows, threads, |_index, lo, hi| {
        let mut accs: Vec<Accumulator> = specs.iter().map(|s| Accumulator::new(s.func)).collect();
        if conj.is_always_true() {
            // No selection vector: fold the raw range, slice-at-a-time.
            accumulate_range(cols, lo, hi, specs, &mut accs)?;
        } else {
            let pos = filter_positions_range(cols, lo, hi, conj)?;
            accumulate_into(cols, hi - lo, Some(&pos), specs, &mut accs)?;
        }
        Ok(accs)
    })?;
    let mut merged: Vec<Accumulator> = specs.iter().map(|s| Accumulator::new(s.func)).collect();
    for partial in partials {
        for (m, p) in merged.iter_mut().zip(partial) {
            m.merge(p)?;
        }
    }
    merged.iter().map(|a| a.finish()).collect()
}

/// Fold the contiguous row range `[lo, hi)` into `accs` without building
/// a selection vector — the unfiltered-aggregate fast path. Null-free int
/// columns fold directly from their slice; everything else matches the
/// per-value semantics of [`accumulate_into`].
fn accumulate_range<C: Cols + ?Sized>(
    cols: &C,
    lo: usize,
    hi: usize,
    specs: &[AggSpec],
    accs: &mut [Accumulator],
) -> Result<()> {
    for (spec, acc) in specs.iter().zip(accs.iter_mut()) {
        match &spec.expr {
            None => {
                // COUNT(*) over the range: O(1), every row counts.
                if let Accumulator::CountStar(n) = acc {
                    *n += (hi.saturating_sub(lo)) as u64;
                } else {
                    for _ in lo..hi {
                        acc.update(&Value::Null)?;
                    }
                }
            }
            Some(Expr::Col(c)) => {
                let col = cols
                    .get_col(*c)
                    .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?;
                let nullable = matches!(col, ColumnData::Int64 { nulls: Some(_), .. });
                if let (Some(xs), false) = (col.as_i64_slice(), nullable) {
                    acc.update_i64_slice(&xs[lo.min(xs.len())..hi.min(xs.len())])?;
                } else {
                    for i in lo..hi.min(col.len()) {
                        acc.update(&col.get(i))?;
                    }
                }
            }
            Some(expr) => {
                for i in lo..hi {
                    acc.update(&expr.eval(cols, i)?)?;
                }
            }
        }
    }
    Ok(())
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
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut p in parts {
        out.append(&mut p);
    }
    Ok(out)
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

/// Partial aggregation state of one group, produced per worker and merged
/// partition-wise: the group key, one accumulator per aggregate spec, and
/// the smallest input position the group was seen at (what reconstructs
/// the serial first-appearance output order after a parallel merge).
#[derive(Debug, Clone)]
pub struct GroupPartial {
    /// The group key values.
    pub key: GroupKey,
    /// One accumulator per aggregate spec, parallel to `specs`.
    pub accs: Vec<Accumulator>,
    /// Smallest position (plus the caller's base offset) at which this
    /// group appeared.
    pub first_pos: u64,
}

/// Approximate heap bytes held by one [`GroupPartial`]: the struct itself,
/// the key values, one accumulator per spec, and the hash-table slot that
/// tracks it. Coarse by design — memory governance charges whole batches,
/// not exact allocations.
fn group_partial_bytes(group_cols: usize, n_specs: usize) -> usize {
    std::mem::size_of::<GroupPartial>()
        + group_cols * std::mem::size_of::<Value>()
        + n_specs * std::mem::size_of::<Accumulator>()
        + std::mem::size_of::<(GroupKey, usize)>()
}

/// Approximate heap bytes of one `(key, position)` join-build entry once it
/// sits in a partition vector *and* its hash-table bucket.
const JOIN_ENTRY_BYTES: usize = std::mem::size_of::<(i64, usize)>();

/// Build grouped partial-aggregate states over the row range `[lo, hi)`:
/// filter with `conj`, then fold each qualifying row into its group's
/// accumulators, remembering the first position each group appeared at
/// (`pos_base + row`). Groups come back in local first-appearance order —
/// exactly the per-morsel half of the serial
/// [`group_aggregate`](crate::columnar::group_aggregate) loop.
pub fn group_accumulate_range<C: Cols + ?Sized>(
    cols: &C,
    lo: usize,
    hi: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
    pos_base: u64,
) -> Result<Vec<GroupPartial>> {
    for &g in group_cols {
        if cols.get_col(g).is_none() {
            return Err(Error::exec(format!("group column {g} not materialised")));
        }
    }
    let positions: Option<Vec<usize>> = if conj.is_always_true() {
        None
    } else {
        Some(filter_positions_range(cols, lo, hi, conj)?)
    };
    let iter: Box<dyn Iterator<Item = usize>> = match &positions {
        None => Box::new(lo..hi),
        Some(pos) => Box::new(pos.iter().copied()),
    };
    let mut slots: HashMap<GroupKey, usize> = HashMap::new();
    let mut out: Vec<GroupPartial> = Vec::new();
    for i in iter {
        let key = GroupKey(
            group_cols
                .iter()
                .map(|&g| cols.get_col(g).expect("validated").get(i))
                .collect(),
        );
        let slot = match slots.get(&key) {
            Some(&s) => s,
            None => {
                let s = out.len();
                out.push(GroupPartial {
                    key: key.clone(),
                    accs: specs.iter().map(|sp| Accumulator::new(sp.func)).collect(),
                    first_pos: pos_base + i as u64,
                });
                slots.insert(key, s);
                s
            }
        };
        for (acc, spec) in out[slot].accs.iter_mut().zip(specs) {
            match &spec.expr {
                None => acc.update(&Value::Null)?,
                Some(e) => acc.update(&e.eval(cols, i)?)?,
            }
        }
    }
    // Group tables grow with data (one entry per distinct key seen), so the
    // morsel charges its table against the ambient memory budget — one call
    // per morsel, not per row, to keep the metered overhead negligible.
    charge_current(out.len() * group_partial_bytes(group_cols.len(), specs.len()))?;
    Ok(out)
}

/// Deterministic (process-stable) hash of a group key, used only to spread
/// groups across merge partitions — output order never depends on it.
fn group_key_hash(key: &GroupKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Number of merge partitions for the parallel GROUP BY: the configured
/// hint rounded to a power of two, or (when the hint is 0 = auto) twice
/// the worker count — enough spread that stealing workers stay busy
/// without fragmenting tiny group sets.
pub fn group_partition_count(threads: usize, hint: usize) -> usize {
    let p = if hint > 0 { hint } else { threads.max(1) * 2 };
    p.next_power_of_two().clamp(1, 1024)
}

/// Fold a stream of group partials into one table, merging accumulators
/// in stream order and keeping each group's smallest first-appearance
/// position. Per-group merge order equals stream order, so feeding the
/// same partials in morsel order — whole, or pre-scattered into hash
/// buckets — produces identical accumulator states.
fn merge_ordered(groups: impl Iterator<Item = GroupPartial>) -> Result<Vec<GroupPartial>> {
    let mut slots: HashMap<GroupKey, usize> = HashMap::new();
    let mut out: Vec<GroupPartial> = Vec::new();
    for g in groups {
        match slots.get(&g.key) {
            Some(&s) => {
                let dst = &mut out[s];
                dst.first_pos = dst.first_pos.min(g.first_pos);
                for (m, a) in dst.accs.iter_mut().zip(g.accs) {
                    m.merge(a)?;
                }
            }
            None => {
                slots.insert(g.key.clone(), out.len());
                out.push(g);
            }
        }
    }
    Ok(out)
}

/// Below this many partials the merge runs serially in one pass: a second
/// thread scope spawns OS threads per query, which dwarfs merging a
/// handful of groups.
const SERIAL_MERGE_MAX_PARTIALS: usize = 4096;

/// Merge per-morsel grouped partials partition-wise: groups are
/// radix-partitioned by key hash, each partition merges its groups'
/// accumulators in morsel order (on stealing workers when `threads > 1`),
/// and the flattened result is re-sorted by first appearance — byte-equal
/// to the serial single-table fold for integer aggregates, deterministic
/// for any worker count. Small partial sets (and single-worker calls)
/// merge serially in one pass, with identical output: per-group merge
/// order is morsel order either way. `parts` must be in morsel index
/// order.
pub fn merge_group_partials(
    parts: Vec<Vec<GroupPartial>>,
    threads: usize,
    partitions: usize,
) -> Result<Vec<GroupPartial>> {
    let total: usize = parts.iter().map(Vec::len).sum();
    if threads <= 1 || total <= SERIAL_MERGE_MAX_PARTIALS {
        let mut all = merge_ordered(parts.into_iter().flatten())?;
        all.sort_by_key(|g| g.first_pos);
        return Ok(all);
    }
    let p = group_partition_count(threads, partitions);
    let mut buckets: Vec<Vec<GroupPartial>> = Vec::with_capacity(p);
    buckets.resize_with(p, Vec::new);
    // Scatter in morsel order (cheap: one move per *group*, not per row),
    // so every bucket sees its groups' partials in merge order.
    for morsel in parts {
        for g in morsel {
            let b = (group_key_hash(&g.key) as usize) & (p - 1);
            buckets[b].push(g);
        }
    }
    // Hand each worker its bucket by move — keys and accumulator states
    // transfer without cloning.
    let buckets: Vec<Mutex<Vec<GroupPartial>>> = buckets.into_iter().map(Mutex::new).collect();
    let buckets_ref = &buckets;
    let merged: Vec<Vec<GroupPartial>> = run_morsels(p, 1, threads, |_index, lo, _hi| {
        let bucket = std::mem::take(&mut *buckets_ref[lo].lock().expect("bucket lock"));
        merge_ordered(bucket.into_iter())
    })?;
    let mut all: Vec<GroupPartial> = merged.into_iter().flatten().collect();
    all.sort_by_key(|g| g.first_pos);
    Ok(all)
}

/// Morsel-parallel hash GROUP BY. Each stealing worker builds private
/// group tables of [`Accumulator`] states over its morsels
/// ([`group_accumulate_range`]); the per-morsel tables are
/// radix-partitioned by group-key hash and merged partition-wise in
/// parallel ([`merge_group_partials`]); the final ordering is by first
/// appearance — byte-identical to the serial
/// [`group_aggregate`](crate::columnar::group_aggregate) output
/// (`group key columns ++ aggregate results` per row) for any thread
/// count. `partitions = 0` picks the partition count automatically.
#[allow(clippy::too_many_arguments)]
pub fn parallel_group_aggregate<C: Cols + ?Sized + Sync>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
    threads: usize,
    morsel_rows: usize,
    partitions: usize,
) -> Result<Vec<Vec<Value>>> {
    if threads <= 1 {
        // One worker: the serial fold is the same result without the
        // per-morsel tables, scatter and merge.
        let pos = if conj.is_always_true() {
            None
        } else {
            Some(crate::columnar::filter_positions(cols, n_rows, conj)?)
        };
        return crate::columnar::group_aggregate(cols, n_rows, pos.as_deref(), group_cols, specs);
    }
    let partials = run_morsels(n_rows, morsel_rows, threads, |_index, lo, hi| {
        group_accumulate_range(cols, lo, hi, conj, group_cols, specs, 0)
    })?;
    let merged = merge_group_partials(partials, threads, partitions)?;
    finish_group_partials(merged)
}

/// Turn merged group partials into result rows, `group key columns ++
/// aggregate results` per group — the layout of the serial
/// [`group_aggregate`](crate::columnar::group_aggregate).
pub fn finish_group_partials(merged: Vec<GroupPartial>) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::with_capacity(merged.len());
    for g in merged {
        let mut row = g.key.0;
        for a in &g.accs {
            row.push(a.finish()?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Fibonacci-multiplicative partition of a key into one of `p` (power of
/// two) partitions, mixing high bits so sequential keys spread.
#[inline]
fn partition_of(key: i64, p: usize) -> usize {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - p.trailing_zeros())) as usize & (p - 1)
}

/// Partition count for the parallel join build. One partition per worker
/// (rounded to a power of two) keeps every thread busy in the build and
/// probe phases; the previous `threads * 4` oversharding made each
/// partitioning morsel allocate four times the buckets for no extra
/// parallelism, which is where the small-build regression came from.
fn join_partition_count(threads: usize) -> usize {
    threads.next_power_of_two().clamp(2, 64)
}

/// Morsel-parallel partitioned hash join over null-free int key columns:
/// build-side morsels are hash-partitioned in parallel, each partition's
/// table is built independently, and probe-side morsels look up their own
/// partitions — no shared-table contention anywhere. Produces exactly the
/// pair order of the serial [`hash_join_positions`] (right-scan order,
/// ascending left position per match). Non-int or nullable keys fall back
/// to the serial join.
pub fn parallel_hash_join_positions(
    left: &ColumnData,
    right: &ColumnData,
    threads: usize,
    morsel_rows: usize,
) -> Result<Vec<(usize, usize)>> {
    let (Some(ls), Some(rs)) = (left.as_i64_slice(), right.as_i64_slice()) else {
        return hash_join_positions(left, right);
    };
    let nullable = matches!(left, ColumnData::Int64 { nulls: Some(_), .. })
        || matches!(right, ColumnData::Int64 { nulls: Some(_), .. });
    if nullable || threads <= 1 {
        return hash_join_positions(left, right);
    }
    let p = join_partition_count(threads);

    // Build phase 1: partition left morsels (parallel, order-preserving).
    let partitioned = run_morsels(ls.len(), morsel_rows, threads, |_index, lo, hi| {
        charge_current((hi - lo) * JOIN_ENTRY_BYTES)?;
        let mut parts: Vec<Vec<(i64, usize)>> = vec![Vec::new(); p];
        for (i, &k) in ls[lo..hi].iter().enumerate() {
            parts[partition_of(k, p)].push((k, lo + i));
        }
        Ok(parts)
    })?;
    // Build phase 2: one hash table per partition (parallel over
    // partitions). Appending morsels in index order keeps each bucket's
    // left positions ascending — the serial insertion order.
    let mut part_entries: Vec<Vec<(i64, usize)>> = vec![Vec::new(); p];
    for morsel_parts in partitioned {
        for (pid, mut entries) in morsel_parts.into_iter().enumerate() {
            part_entries[pid].append(&mut entries);
        }
    }
    let part_entries = &part_entries;
    let tables: Vec<HashMap<i64, Vec<usize>>> = run_morsels(p, 1, threads, |_index, lo, _hi| {
        let entries = &part_entries[lo];
        charge_current(entries.len() * 2 * JOIN_ENTRY_BYTES)?;
        let mut t: HashMap<i64, Vec<usize>> = HashMap::with_capacity(entries.len());
        for &(k, i) in entries {
            t.entry(k).or_default().push(i);
        }
        Ok(t)
    })?;

    // Probe phase: each right morsel probes its keys' partitions; morsel
    // concatenation reproduces right-scan order.
    let tables = &tables;
    let chunks = run_morsels(rs.len(), morsel_rows, threads, |_index, lo, hi| {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (j, &k) in rs[lo..hi].iter().enumerate() {
            if let Some(matches) = tables[partition_of(k, p)].get(&k) {
                for &i in matches {
                    out.push((i, lo + j));
                }
            }
        }
        charge_current(out.len() * std::mem::size_of::<(usize, usize)>())?;
        Ok(out)
    })?;
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut c in chunks {
        out.append(&mut c);
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

/// Partition count for the morsel-fed cold join build — the same scheme as
/// the warm [`parallel_hash_join_positions`]: one partition per worker,
/// rounded to a power of two.
pub fn cold_join_partitions(threads: usize) -> usize {
    join_partition_count(threads)
}

/// Build-side half of the morsel-fed cold join: hash-partition one
/// morsel's qualifying join keys into `(key, absolute row)` entries,
/// `partitions` buckets (power of two). NULL keys never match and are
/// dropped here, exactly as the serial
/// [`hash_join_positions`] drops them.
/// `local_positions` are the morsel-local qualifying rows (ascending);
/// appending each morsel's buckets in morsel order keeps every bucket's
/// rows ascending — the serial build insertion order.
pub fn cold_join_build_morsel(
    keys: &ColumnData,
    local_positions: &[usize],
    first_row: usize,
    partitions: usize,
) -> Vec<Vec<(i64, usize)>> {
    let mut parts: Vec<Vec<(i64, usize)>> = vec![Vec::new(); partitions];
    let nullable = matches!(keys, ColumnData::Int64 { nulls: Some(_), .. });
    if let (Some(ks), false) = (keys.as_i64_slice(), nullable) {
        for &i in local_positions {
            let k = ks[i];
            parts[partition_of(k, partitions)].push((k, first_row + i));
        }
    } else {
        for &i in local_positions {
            if let Value::Int(k) = keys.get(i) {
                parts[partition_of(k, partitions)].push((k, first_row + i));
            }
        }
    }
    parts
}

/// Partitioned hash tables of a completed cold join build: one table per
/// partition, bucket vectors holding absolute build-side rows ascending.
#[derive(Debug)]
pub struct ColdJoinTables {
    partitions: usize,
    tables: Vec<HashMap<i64, Vec<usize>>>,
}

/// Merge per-morsel build partitions (in morsel index order) and build one
/// hash table per partition, in parallel on stealing workers — the same
/// radix merge the warm [`parallel_hash_join_positions`] build runs, fed
/// from tokenizer morsels instead of a loaded column.
pub fn build_cold_join_tables(
    morsel_parts: Vec<Vec<Vec<(i64, usize)>>>,
    partitions: usize,
    threads: usize,
) -> Result<ColdJoinTables> {
    let mut part_entries: Vec<Vec<(i64, usize)>> = vec![Vec::new(); partitions];
    for parts in morsel_parts {
        for (pid, mut entries) in parts.into_iter().enumerate() {
            part_entries[pid].append(&mut entries);
        }
    }
    // The build side was accumulated on scan workers without metering
    // (`cold_join_build_morsel` is infallible); charge the merged entries
    // here, before the tables double them.
    let total_entries: usize = part_entries.iter().map(Vec::len).sum();
    charge_current(total_entries * JOIN_ENTRY_BYTES)?;
    let part_entries = &part_entries;
    let tables = run_morsels(partitions, 1, threads, |_index, lo, _hi| {
        let entries = &part_entries[lo];
        charge_current(entries.len() * 2 * JOIN_ENTRY_BYTES)?;
        let mut t: HashMap<i64, Vec<usize>> = HashMap::with_capacity(entries.len());
        for &(k, i) in entries {
            t.entry(k).or_default().push(i);
        }
        Ok(t)
    })?;
    Ok(ColdJoinTables { partitions, tables })
}

impl ColdJoinTables {
    /// Probe one probe-side morsel against the built tables, emitting
    /// `(build row, probe row)` pairs in absolute coordinates. NULL keys
    /// never match. Concatenating per-morsel outputs in morsel order
    /// reproduces the serial pair order exactly: probe-scan order,
    /// ascending build position per match.
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
            if let Some(matches) = self.tables[partition_of(k, self.partitions)].get(&k) {
                for &i in matches {
                    out.push((i, first_row + j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::columnar::{aggregate, filter_positions, group_aggregate};
    use crate::hybrid::fused_filter_aggregate;
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

    #[test]
    fn cold_join_build_probe_matches_serial() {
        let n = 2500;
        let mut cols = BTreeMap::new();
        cols.insert(
            0,
            ColumnData::from_i64((0..n as i64).map(|i| (i * 13) % 199).collect()),
        );
        let mut probe_cols = BTreeMap::new();
        probe_cols.insert(
            0,
            ColumnData::from_i64((0..n as i64).map(|i| (i * 7) % 230).collect()),
        );
        let serial = hash_join_positions(&cols[&0], &probe_cols[&0]).unwrap();
        let ids = vec![0usize];
        for (threads, morsel_rows) in [(2, 11), (4, 400), (3, 5000)] {
            let p = cold_join_partitions(threads);
            let parts: Vec<Vec<Vec<(i64, usize)>>> = slice_batches(&ids, &cols, n, morsel_rows)
                .iter()
                .map(|b| {
                    let local: Vec<usize> = (0..b.n_rows).collect();
                    cold_join_build_morsel(&b.columns[0], &local, b.first_row, p)
                })
                .collect();
            let tables = build_cold_join_tables(parts, p, threads).unwrap();
            let pairs: Vec<(usize, usize)> = slice_batches(&ids, &probe_cols, n, morsel_rows)
                .iter()
                .flat_map(|b| {
                    let local: Vec<usize> = (0..b.n_rows).collect();
                    tables.probe_morsel(&b.columns[0], &local, b.first_row)
                })
                .collect();
            assert_eq!(pairs, serial, "threads={threads} morsel_rows={morsel_rows}");
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
        let p = cold_join_partitions(2);
        let parts = vec![cold_join_build_morsel(&build, &[0, 1, 2, 3], 0, p)];
        let tables = build_cold_join_tables(parts, p, 2).unwrap();
        let pairs = tables.probe_morsel(&probe, &[0, 1, 2], 0);
        assert_eq!(pairs, serial);
    }

    #[test]
    fn parallel_aggregate_matches_fused_serial() {
        let (cols, n) = table(10_000);
        let conj = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 100i64),
            ColPred::new(0, CmpOp::Lt, 900i64),
        ]);
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 1),
            AggSpec::on_col(AggFunc::Min, 0),
            AggSpec::on_col(AggFunc::Max, 1),
            AggSpec::count_star(),
        ];
        let serial = fused_filter_aggregate(&cols, n, &conj, &specs).unwrap();
        for threads in [1, 2, 7] {
            for morsel_rows in [64, 1000, 100_000] {
                let par = parallel_filter_aggregate(&cols, n, &conj, &specs, threads, morsel_rows)
                    .unwrap();
                assert_eq!(par, serial, "threads={threads} morsel_rows={morsel_rows}");
            }
        }
    }

    #[test]
    fn parallel_aggregate_no_filter_and_empty_input() {
        let (cols, n) = table(1000);
        let specs = vec![AggSpec::on_col(AggFunc::Avg, 1), AggSpec::count_star()];
        let serial = aggregate(&cols, n, None, &specs).unwrap();
        let par =
            parallel_filter_aggregate(&cols, n, &Conjunction::always(), &specs, 3, 128).unwrap();
        assert_eq!(par, serial);
        // Zero rows: NULL avg, zero count — same as serial.
        let (empty, _) = table(0);
        let par =
            parallel_filter_aggregate(&empty, 0, &Conjunction::always(), &specs, 3, 128).unwrap();
        assert_eq!(par, aggregate(&empty, 0, None, &specs).unwrap());
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
    fn parallel_join_identical_to_serial() {
        let n = 4000;
        let left = ColumnData::from_i64((0..n as i64).map(|i| (i * 13) % 257).collect());
        let right = ColumnData::from_i64((0..n as i64).map(|i| (i * 7) % 300).collect());
        let serial = hash_join_positions(&left, &right).unwrap();
        for threads in [2, 4] {
            let par = parallel_hash_join_positions(&left, &right, threads, 500).unwrap();
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
    fn parallel_group_by_identical_to_serial() {
        let (cols, n) = table(10_000);
        let conj = Conjunction::new(vec![ColPred::new(1, CmpOp::Lt, 15_000i64)]);
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 1),
            AggSpec::on_col(AggFunc::Min, 0),
            AggSpec::count_star(),
        ];
        let group_cols = vec![0usize];
        let pos = filter_positions(&cols, n, &conj).unwrap();
        let serial = group_aggregate(&cols, n, Some(&pos), &group_cols, &specs).unwrap();
        for threads in [1, 2, 7] {
            for morsel_rows in [64, 1000, 100_000] {
                for partitions in [0, 1, 8] {
                    let par = parallel_group_aggregate(
                        &cols,
                        n,
                        &conj,
                        &group_cols,
                        &specs,
                        threads,
                        morsel_rows,
                        partitions,
                    )
                    .unwrap();
                    assert_eq!(
                        par, serial,
                        "threads={threads} morsel_rows={morsel_rows} partitions={partitions}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_group_by_multi_key_and_empty() {
        let (cols, n) = table(3_000);
        let specs = vec![AggSpec::on_col(AggFunc::Avg, 2)];
        let group_cols = vec![0usize, 1];
        let serial = group_aggregate(&cols, n, None, &group_cols, &specs).unwrap();
        let par = parallel_group_aggregate(
            &cols,
            n,
            &Conjunction::always(),
            &group_cols,
            &specs,
            3,
            128,
            0,
        )
        .unwrap();
        assert_eq!(par, serial);
        // Zero rows: zero groups, like serial.
        let (empty, _) = table(0);
        let par = parallel_group_aggregate(
            &empty,
            0,
            &Conjunction::always(),
            &group_cols,
            &specs,
            3,
            128,
            0,
        )
        .unwrap();
        assert!(par.is_empty());
    }

    #[test]
    fn parallel_group_by_null_keys_group_together() {
        let mut cols = BTreeMap::new();
        let mut c0 = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::Int(1),
            Value::Null,
        ] {
            c0.push(v).unwrap();
        }
        cols.insert(0, c0);
        cols.insert(1, ColumnData::from_i64(vec![5, 6, 7, 8, 9]));
        let specs = vec![AggSpec::on_col(AggFunc::Sum, 1), AggSpec::count_star()];
        let serial = group_aggregate(&cols, 5, None, &[0], &specs).unwrap();
        // Morsel size 2 splits the NULL group across three morsels.
        let par = parallel_group_aggregate(&cols, 5, &Conjunction::always(), &[0], &specs, 4, 2, 0)
            .unwrap();
        assert_eq!(par, serial);
        assert_eq!(par[0][0], Value::Null);
        assert_eq!(par[0][1], Value::Int(21));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Group keys of one dtype (picked per case) with NULLs mixed in;
        /// few distinct values so groups split across morsel boundaries.
        /// Float aggregates use integral floats, whose sums stay exact,
        /// so parallel results must be *byte-identical* to serial.
        fn key_value(ty: u8, seed: u8) -> Value {
            if seed.is_multiple_of(7) {
                return Value::Null;
            }
            match ty % 3 {
                0 => Value::Int((seed % 5) as i64),
                1 => Value::Float((seed % 4) as f64),
                _ => Value::Str(format!("k{}", seed % 3)),
            }
        }

        proptest! {
            /// Serial vs parallel GROUP BY parity: group ordering,
            /// accumulator values and row layout match for every thread
            /// count and morsel size, including morsel-boundary group
            /// splits (tiny morsels), NULL keys and empty input.
            #[test]
            fn group_by_parity(
                seeds in proptest::collection::vec(0u8..=255, 0..120),
                key_ty in 0u8..3,
                threads in 1usize..6,
                morsel_rows in 1usize..40,
                partitions in 0usize..9,
            ) {
                let n = seeds.len();
                let key_dtype = match key_ty % 3 {
                    0 => nodb_types::DataType::Int64,
                    1 => nodb_types::DataType::Float64,
                    _ => nodb_types::DataType::Str,
                };
                let mut keys = ColumnData::empty(key_dtype);
                let mut ints = ColumnData::empty(nodb_types::DataType::Int64);
                let mut floats = ColumnData::empty(nodb_types::DataType::Float64);
                for (i, &s) in seeds.iter().enumerate() {
                    keys.push(key_value(key_ty, s)).unwrap();
                    let iv = if s % 7 == 0 { Value::Null } else { Value::Int(i as i64 - 20) };
                    ints.push(iv).unwrap();
                    floats.push(Value::Float((s % 11) as f64)).unwrap();
                }
                let mut cols = BTreeMap::new();
                cols.insert(0, keys);
                cols.insert(1, ints);
                cols.insert(2, floats);
                let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Lt, 9.0f64)]);
                let specs = vec![
                    AggSpec::on_col(AggFunc::Sum, 1),
                    AggSpec::on_col(AggFunc::Min, 0),
                    AggSpec::on_col(AggFunc::Max, 2),
                    AggSpec::on_col(AggFunc::Avg, 2),
                    AggSpec::on_col(AggFunc::Count, 1),
                    AggSpec::count_star(),
                ];
                let pos = filter_positions(&cols, n, &conj).unwrap();
                let serial = group_aggregate(&cols, n, Some(&pos), &[0], &specs).unwrap();
                let par = parallel_group_aggregate(
                    &cols, n, &conj, &[0], &specs, threads, morsel_rows, partitions,
                ).unwrap();
                prop_assert_eq!(par, serial);
            }
        }
    }
}
