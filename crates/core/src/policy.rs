//! Adaptive loading policies (paper §3 and §4).
//!
//! "Queries become the first class citizen that define loading, storage and
//! execution patterns." Each `LoadingStrategy` (see [`crate::config`]) is
//! one answer to the paper's three questions — *when* to load (during query
//! processing), *how much* (nothing / everything / the referenced columns /
//! the qualifying tuples), and *how* (monolithic scans, pushdown scans, or
//! split per-column files).
//!
//! [`materialize`] is the adaptive-load operator the optimizer plugs into a
//! query plan: given the columns a query references and its pushable filter,
//! it returns those columns materialised, fetching whatever is missing from
//! the raw file according to the active policy, and recording everything it
//! learned (positional map entries, fragments, split files) for the next
//! query.

use std::collections::BTreeMap;
use std::sync::Arc;

use nodb_rawcsv::tokenizer::{read_file, scan_bytes, ScanSpec};
use nodb_rawcsv::{load_columns, LoadSpec};
use nodb_store::Fragment;
use nodb_types::profile::{self, Phase};
use nodb_types::{
    Bound, CmpOp, ColPred, ColumnData, Conjunction, Error, Interval, Result, SelectionBox,
    WorkCounters,
};

use crate::catalog::{Fingerprint, TableEntry};
use crate::config::{EngineConfig, LoadingStrategy};

/// The product of an adaptive load: the referenced columns, materialised.
#[derive(Debug)]
pub struct Materialized {
    /// Materialised columns keyed by table-local ordinal, all aligned.
    pub cols: BTreeMap<usize, Arc<ColumnData>>,
    /// Number of aligned rows.
    pub n_rows: usize,
    /// Original rowids when the materialisation is a filtered subset
    /// (`None` = dense, row `i` is rowid `i`).
    pub rowids: Option<Vec<u64>>,
    /// True when the policy already applied the query's filter during
    /// loading (selection pushdown) — the engine must not filter again.
    pub prefiltered: bool,
}

impl Materialized {
    fn dense(cols: BTreeMap<usize, Arc<ColumnData>>, n_rows: usize) -> Materialized {
        Materialized {
            cols,
            n_rows,
            rowids: None,
            prefiltered: false,
        }
    }
}

/// Materialise `needed` columns of `entry` under the configured policy.
/// `filter` is the query's conjunction over this table (local ordinals);
/// policies that push selections down will apply it during the file scan.
pub fn materialize(
    entry: &mut TableEntry,
    needed: &[usize],
    filter: &Conjunction,
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Materialized> {
    nodb_types::failpoints::trip("store.materialize")?;
    if entry.resident {
        // Result tables live wholly in the adaptive store: every policy
        // degenerates to a store read (there is no file to scan).
        let n = entry
            .store
            .nrows()
            .ok_or_else(|| Error::exec("resident table has no row count"))?;
        if needed.is_empty() {
            return Ok(Materialized::dense(BTreeMap::new(), n as usize));
        }
        return dense_from_store(entry, needed, now);
    }
    match cfg.strategy {
        LoadingStrategy::FullLoad => full_load(entry, needed, cfg, counters, now),
        LoadingStrategy::ExternalScan => external_scan(entry, needed, cfg, counters),
        LoadingStrategy::ColumnLoads => column_loads(entry, needed, cfg, counters, now),
        LoadingStrategy::PartialLoadsV1 => partial_v1(entry, needed, filter, cfg, counters),
        LoadingStrategy::PartialLoadsV2 => partial_v2(entry, needed, filter, cfg, counters, now),
        LoadingStrategy::SplitFiles => split_files(entry, needed, cfg, counters, now),
    }
}

/// A raw file read whole; derefs to its data rows, past the header.
struct DataBytes {
    bytes: Vec<u8>,
    start: usize,
}

impl std::ops::Deref for DataBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start..]
    }
}

/// Read the raw file; the header is sliced off, not moved out.
fn read_data_bytes(entry: &TableEntry, counters: &WorkCounters) -> Result<DataBytes> {
    let bytes = read_file(&entry.path, counters)?;
    let start = (entry.data_start() as usize).min(bytes.len());
    Ok(DataBytes { bytes, start })
}

/// The column loader of `ColumnLoads` and `FullLoad`: load the columns of
/// `cols` that are not fully loaded in one pass over the file
/// ([`load_columns`]: byte chunks on up to `threads` workers, inline at
/// one), guided by the positional map when it knows the file, and install
/// them, the row count and what the pass learned into the map, exactly as
/// a serial [`scan_bytes`] load would. With `cols` empty the pass only
/// counts the rows. Does nothing once every column of `cols` is loaded
/// and the row count is known.
///
/// A failed or cancelled load installs nothing. A file whose fingerprint
/// changed during the load is a new file: what was read is dropped, and
/// the load starts again from the top, once.
fn load_missing(
    entry: &mut TableEntry,
    cols: &[usize],
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<()> {
    for _attempt in 0..2 {
        entry.ensure_current(&cfg.csv, cfg.infer_sample_rows, counters)?;
        let missing = entry.store.missing_full(cols);
        if missing.is_empty() && entry.store.nrows().is_some() {
            return Ok(());
        }
        let loaded = {
            let _p = profile::phase(Phase::ColdPipeline);
            let spec = LoadSpec {
                path: &entry.path,
                data_start: entry.data_start(),
                schema: entry.schema()?,
                needed: &missing,
                // About `morsel_rows` rows per chunk.
                chunk_bytes: cfg
                    .morsel_rows
                    .saturating_mul(usize::try_from(entry.row_bytes()).unwrap_or(usize::MAX)),
            };
            let posmap = cfg.use_positional_map.then_some(&entry.posmap);
            load_columns(&spec, &cfg.csv, posmap, counters)
        };
        if Fingerprint::of(&entry.path).ok() != entry.fingerprint {
            continue;
        }
        let mut loaded = loaded?;
        if cfg.use_positional_map {
            loaded.record_into(&mut entry.posmap);
        }
        if loaded.chunks > 1 && cfg.csv.threads > 1 {
            counters.add_parallel_pipeline();
        }
        for (&c, col) in missing.iter().zip(loaded.columns) {
            entry.store.insert_full(c, col, now);
        }
        entry.store.set_nrows(loaded.rows);
        return Ok(());
    }
    Err(Error::FileChanged(format!(
        "{} changed during two loads in a row",
        entry.path.display()
    )))
}

/// Scan the whole raw file for `needed` columns with a pushdown filter:
/// the pushdown and ablation policies' scan. The column-loading policies
/// load through [`load_missing`] instead.
fn scan_raw(
    entry: &mut TableEntry,
    needed: &[usize],
    pushdown: &Conjunction,
    cfg: &EngineConfig,
    counters: &WorkCounters,
) -> Result<nodb_rawcsv::ScanOutput> {
    let bytes = read_data_bytes(entry, counters)?;
    let schema = entry.schema()?.clone();
    let spec = ScanSpec {
        schema: &schema,
        needed: needed.to_vec(),
        pushdown: Some(pushdown),
    };
    let posmap = cfg.use_positional_map.then_some(&mut entry.posmap);
    scan_bytes(&bytes, &cfg.csv, &spec, posmap, counters)
}

/// Dense materialisation of `needed` straight from fully loaded columns.
fn dense_from_store(entry: &mut TableEntry, needed: &[usize], now: u64) -> Result<Materialized> {
    let n = entry
        .store
        .nrows()
        .ok_or_else(|| Error::exec("row count unknown; no load has run"))? as usize;
    let mut cols = BTreeMap::new();
    for &c in needed {
        let col = entry
            .store
            .full_column(c, now)
            .ok_or_else(|| Error::exec(format!("column {c} expected to be loaded")))?;
        cols.insert(c, col);
    }
    Ok(Materialized::dense(cols, n))
}

/// Ensure the table's row count is known: a load of no column counts the
/// rows when it is not.
fn ensure_nrows(
    entry: &mut TableEntry,
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<u64> {
    if entry.store.nrows().is_none() {
        load_missing(entry, &[], cfg, counters, now)?;
    }
    entry
        .store
        .nrows()
        .ok_or_else(|| Error::internal("no row count after a load"))
}

/// Pick the adaptive index's serving column: the first filter column that
/// is constrained, fully loaded and null-free int.
fn crackable_pick(entry: &TableEntry, filter: &Conjunction) -> Option<(usize, Interval)> {
    let bbox = filter.to_box()?;
    for (col, iv) in &bbox.by_col {
        if iv.is_all() {
            continue;
        }
        let Some(data) = entry.store.peek_full(*col) else {
            continue;
        };
        if matches!(&**data, ColumnData::Int64 { nulls: None, .. }) {
            return Some((*col, iv.clone()));
        }
    }
    None
}

/// Ensure `col` has a partitioned cracked copy: one cracker piece per
/// worker, so partitions refine independently under their own locks and
/// range queries stop serializing on one entry-wide mutex. Returns the
/// shared index handle.
fn ensure_cracked(
    entry: &mut TableEntry,
    col: usize,
    cfg: &EngineConfig,
    now: u64,
) -> Arc<nodb_store::PartitionedCracked> {
    if !entry.store.has_cracked(col) {
        let data = entry.store.peek_full(col).expect("checked");
        let vals = data.as_i64_slice().expect("checked int").to_vec();
        entry.store.insert_cracked(
            col,
            nodb_store::PartitionedCracked::new(vals, cfg.threads.max(1)),
            now,
        );
    }
    entry.store.cracked(col, now).expect("just ensured")
}

/// Gather `needed` columns at the cracked selection's rowids into a
/// rowid-restricted [`Materialized`] with `prefiltered = false`: the
/// engine re-applies the full conjunction, which is sound (the cracked
/// rows already satisfy the cracked predicate) and keeps multi-predicate
/// semantics exact.
fn cracked_materialization(
    cols_in: BTreeMap<usize, Arc<ColumnData>>,
    mut rowids: Vec<u64>,
) -> Materialized {
    // Keep plain projections deterministic across access paths.
    rowids.sort_unstable();
    let positions: Vec<usize> = rowids.iter().map(|&r| r as usize).collect();
    let cols = cols_in
        .into_iter()
        .map(|(c, data)| (c, Arc::new(data.take(&positions))))
        .collect();
    Materialized {
        cols,
        n_rows: rowids.len(),
        rowids: Some(rowids),
        prefiltered: false,
    }
}

/// The adaptive-index fast path, called by the engine *outside* the
/// long-lived entry write lock — before it for warm queries, and again
/// right after the policy load for cold ones (cold-load cracking thus
/// never holds the entry lock either): when every needed column is fully
/// loaded and the filter constrains a crackable column, snapshot `Arc`
/// handles to the index and the columns under a short write lock, then
/// crack **outside** it — racing range queries refine the partitioned
/// index concurrently under its per-partition locks instead of
/// serializing on the table entry. Returns `None` (state untouched beyond
/// LRU stamps and possibly installing the index) when the shape does not
/// qualify; the ordinary policy path then runs.
pub(crate) fn try_cracked_warm(
    entry: &parking_lot::RwLock<TableEntry>,
    needed: &[usize],
    filter: &Conjunction,
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Option<Materialized>> {
    if !cfg.use_cracking || filter.is_always_true() || needed.is_empty() {
        return Ok(None);
    }
    // Cracking serves full columns: the full-column policies, plus
    // PartialLoadsV2 once its monitor has escalated a column set to full
    // loads (the `missing_full` check below keeps un-escalated partial
    // state on the fragment path).
    if !matches!(
        cfg.strategy,
        LoadingStrategy::FullLoad | LoadingStrategy::ColumnLoads | LoadingStrategy::PartialLoadsV2
    ) {
        return Ok(None);
    }
    // Short lock: validate state, install the index if missing, clone
    // the shared handles. Installs are serialized by this write lock and
    // guarded by `has_cracked`, so the index is built exactly once.
    let (index, cols, iv) = {
        let mut e = entry.write();
        if e.resident {
            return Ok(None);
        }
        e.ensure_current(&cfg.csv, cfg.infer_sample_rows, counters)?;
        if !e.store.missing_full(needed).is_empty() {
            return Ok(None); // cold: the policy path loads first
        }
        let Some((col, iv)) = crackable_pick(&e, filter) else {
            return Ok(None);
        };
        // Building the partitioned index (first crack of this column) is
        // cracking work; the select below times itself inside the store.
        let index = nodb_types::profile::time(nodb_types::profile::Phase::Cracking, || {
            ensure_cracked(&mut e, col, cfg, now)
        });
        let mut cols = BTreeMap::new();
        for &c in needed {
            let data = e
                .store
                .full_column(c, now)
                .ok_or_else(|| Error::exec(format!("column {c} expected to be loaded")))?;
            cols.insert(c, data);
        }
        (index, cols, iv)
    };
    // Crack outside the entry lock: only partition locks are held.
    let partitioned_before = index.rows_partitioned();
    let Some((_, rowids)) = index.select_parallel(&iv, cfg.threads) else {
        return Ok(None); // non-int bounds; fall back to scans
    };
    counters.add_crack_rows_touched(
        index.rows_partitioned().saturating_sub(partitioned_before) + rowids.len() as u64,
    );
    // Byte-accounting catch-up under a short re-lock. V2's monitor still
    // counts this query as a store hit — the fragment path this fast path
    // bypassed would have (the full-column policies count nothing on
    // their dense paths, so nothing is recorded for them here either).
    {
        let mut e = entry.write();
        e.store.refresh_cracked_bytes();
        if matches!(cfg.strategy, LoadingStrategy::PartialLoadsV2) {
            e.monitor.record_hit(needed);
        }
    }
    Ok(Some(cracked_materialization(cols, rowids)))
}

// ----- FullLoad (the "MonetDB" curve) -----------------------------------

fn full_load(
    entry: &mut TableEntry,
    needed: &[usize],
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Materialized> {
    let all: Vec<usize> = (0..entry.schema()?.len()).collect();
    load_missing(entry, &all, cfg, counters, now)?;
    if needed.is_empty() {
        let n = ensure_nrows(entry, cfg, counters, now)?;
        return Ok(Materialized::dense(BTreeMap::new(), n as usize));
    }
    dense_from_store(entry, needed, now)
}

// ----- ExternalScan (the "MySQL CSV engine" curve) ----------------------

fn external_scan(
    entry: &mut TableEntry,
    needed: &[usize],
    cfg: &EngineConfig,
    counters: &WorkCounters,
) -> Result<Materialized> {
    // Models an engine that keeps no state: every query re-reads and fully
    // re-parses the file (all columns, no pushdown, no positional map).
    let bytes = read_data_bytes(entry, counters)?;
    let schema = entry.schema()?.clone();
    let all: Vec<usize> = (0..schema.len()).collect();
    let spec = ScanSpec {
        schema: &schema,
        needed: all,
        pushdown: None,
    };
    let out = scan_bytes(&bytes, &cfg.csv, &spec, None, counters)?;
    let n = out.rows_scanned as usize;
    let mut cols = BTreeMap::new();
    for (c, col) in out.columns {
        if needed.contains(&c) {
            cols.insert(c, Arc::new(col));
        }
    }
    Ok(Materialized::dense(cols, n))
}

// ----- ColumnLoads (the "Column Loads" curve) ---------------------------

/// Load the needed columns that are not loaded yet, in full and in one
/// trip ([`load_missing`]), keep them, and answer from the store. Also the
/// full-column path `PartialLoadsV2` escalates to.
fn column_loads(
    entry: &mut TableEntry,
    needed: &[usize],
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Materialized> {
    if needed.is_empty() {
        let n = ensure_nrows(entry, cfg, counters, now)?;
        return Ok(Materialized::dense(BTreeMap::new(), n as usize));
    }
    if cfg.one_column_per_trip {
        // Ablation A1: the paper's "operators that load only one column at
        // a time ... much more expensive due to the need to touch the flat
        // file multiple times within a single query plan".
        for &c in needed {
            load_missing(entry, &[c], cfg, counters, now)?;
        }
    } else {
        // One adaptive-load operator fetches all missing columns in a
        // single trip (§3.1.3).
        load_missing(entry, needed, cfg, counters, now)?;
    }
    dense_from_store(entry, needed, now)
}

// ----- PartialLoadsV1 (pushdown scan, discard) --------------------------

fn partial_v1(
    entry: &mut TableEntry,
    needed: &[usize],
    filter: &Conjunction,
    cfg: &EngineConfig,
    counters: &WorkCounters,
) -> Result<Materialized> {
    let out = scan_raw(entry, needed, filter, cfg, counters)?;
    entry.store.set_nrows(out.rows_scanned);
    let n = out.rowids.len();
    let cols = out
        .columns
        .into_iter()
        .map(|(c, col)| (c, Arc::new(col)))
        .collect();
    Ok(Materialized {
        cols,
        n_rows: n,
        rowids: Some(out.rowids),
        prefiltered: true,
    })
}

// ----- PartialLoadsV2 (pushdown scan, cache fragments) ------------------

fn partial_v2(
    entry: &mut TableEntry,
    needed: &[usize],
    filter: &Conjunction,
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Materialized> {
    // Fully loaded columns (e.g. after monitor escalation) answer directly.
    if !needed.is_empty() && entry.store.missing_full(needed).is_empty() {
        entry.monitor.record_hit(needed);
        return dense_from_store(entry, needed, now);
    }

    let Some(bbox) = filter.to_box() else {
        // Not box-expressible (contains `<>`) or provably empty.
        if filter.preds.iter().all(|p| p.op != CmpOp::Ne) {
            // Contradictory range: empty result, no file trip needed once
            // the schema is known.
            let schema = entry.schema()?.clone();
            let mut cols = BTreeMap::new();
            for &c in needed {
                let ty = schema
                    .field(c)
                    .ok_or_else(|| Error::schema(format!("ordinal {c} out of range")))?
                    .data_type;
                cols.insert(c, Arc::new(ColumnData::empty(ty)));
            }
            return Ok(Materialized {
                cols,
                n_rows: 0,
                rowids: Some(Vec::new()),
                prefiltered: true,
            });
        }
        // `<>` predicates: behave like V1 (pushdown, no caching).
        return partial_v1(entry, needed, filter, cfg, counters);
    };

    // Monitor escalation (§5.5): repeated misses on this column set mean
    // partial fragments keep failing this workload — load full columns.
    if cfg.monitor
        && !needed.is_empty()
        && entry
            .monitor
            .should_escalate(needed, cfg.escalate_after_misses)
    {
        return column_loads(entry, needed, cfg, counters, now);
    }

    // 1. A single stored fragment covering the whole box?
    if let Some(fid) = entry.store.find_covering_fragment(&bbox, needed) {
        entry.store.touch_fragment(fid, now);
        entry.monitor.record_hit(needed);
        let frag = entry.store.fragment(fid).expect("just found");
        let (rowids, cols) = frag.restrict(&bbox, needed)?;
        let n = rowids.len();
        return Ok(Materialized {
            cols: cols.into_iter().map(|(c, v)| (c, Arc::new(v))).collect(),
            n_rows: n,
            rowids: Some(rowids),
            prefiltered: true,
        });
    }

    // 2. Single-column box: exact interval arithmetic lets us fetch only
    //    the missing value ranges and stitch them with stored fragments.
    if bbox.by_col.len() == 1 {
        let (&col, iv) = bbox.by_col.iter().next().expect("single entry");
        let toc = entry.store.loaded_intervals(col, needed);
        let gaps = toc.missing(iv);
        if gaps.is_empty() {
            entry.monitor.record_hit(needed);
        } else {
            entry.monitor.record_miss(needed);
            for gap in gaps {
                let gap_conj = interval_to_conjunction(col, &gap);
                let out = scan_raw(entry, needed, &gap_conj, cfg, counters)?;
                entry.store.set_nrows(out.rows_scanned);
                let mut frag_box = SelectionBox::all();
                frag_box.by_col.insert(col, gap);
                entry.store.insert_fragment(Fragment {
                    bbox: frag_box,
                    rowids: out.rowids,
                    cols: out.columns,
                    last_used: now,
                });
            }
        }
        let ids = entry.store.one_dim_fragments(col, needed);
        for &id in &ids {
            entry.store.touch_fragment(id, now);
        }
        let (rowids, cols) = entry.store.gather_one_dim(&ids, col, iv, needed)?;
        let n = rowids.len();
        return Ok(Materialized {
            cols: cols.into_iter().map(|(c, v)| (c, Arc::new(v))).collect(),
            n_rows: n,
            rowids: Some(rowids),
            prefiltered: true,
        });
    }

    // 3. Multi-column box, not covered: load the whole box from the file
    //    and remember it (the "simple" extreme of §5.1.2).
    entry.monitor.record_miss(needed);
    let out = scan_raw(entry, needed, filter, cfg, counters)?;
    entry.store.set_nrows(out.rows_scanned);
    let n = out.rowids.len();
    let arc_cols: BTreeMap<usize, Arc<ColumnData>> = out
        .columns
        .iter()
        .map(|(&c, col)| (c, Arc::new(col.clone())))
        .collect();
    entry.store.insert_fragment(Fragment {
        bbox: bbox.clone(),
        rowids: out.rowids.clone(),
        cols: out.columns,
        last_used: now,
    });
    Ok(Materialized {
        cols: arc_cols,
        n_rows: n,
        rowids: Some(out.rowids),
        prefiltered: true,
    })
}

/// Translate an interval back into a pushable conjunction on one column.
fn interval_to_conjunction(col: usize, iv: &Interval) -> Conjunction {
    let mut preds = Vec::new();
    match iv.lo() {
        Bound::Unbounded => {}
        Bound::Inclusive(v) => preds.push(ColPred::new(col, CmpOp::Ge, v.clone())),
        Bound::Exclusive(v) => preds.push(ColPred::new(col, CmpOp::Gt, v.clone())),
    }
    match iv.hi() {
        Bound::Unbounded => {}
        Bound::Inclusive(v) => preds.push(ColPred::new(col, CmpOp::Le, v.clone())),
        Bound::Exclusive(v) => preds.push(ColPred::new(col, CmpOp::Lt, v.clone())),
    }
    Conjunction::new(preds)
}

// ----- SplitFiles (the "Split Files" curve, §4) --------------------------

fn split_files(
    entry: &mut TableEntry,
    needed: &[usize],
    cfg: &EngineConfig,
    counters: &WorkCounters,
    now: u64,
) -> Result<Materialized> {
    if needed.is_empty() {
        let n = ensure_nrows(entry, cfg, counters, now)?;
        return Ok(Materialized::dense(BTreeMap::new(), n as usize));
    }
    let schema = entry.schema()?.clone();
    loop {
        let missing = entry.store.missing_full(needed);
        let Some(&col) = missing.first() else { break };
        let data_start = entry.data_start() as usize;
        // Locate the segment and clone its descriptor so the catalog borrow
        // ends before we touch the store / positional maps.
        let (si, li, seg) = {
            let segments = entry.segments_mut()?;
            let (si, li) = segments
                .locate(col)
                .ok_or_else(|| Error::schema(format!("column {col} not in segment catalog")))?;
            (si, li, segments.segments()[si].clone())
        };
        let bytes = read_file(&seg.path, counters)?;
        let slice = if seg.is_original && data_start > 0 {
            &bytes[data_start.min(bytes.len())..]
        } else {
            &bytes[..]
        };
        let mut opts = cfg.csv.clone();
        // Blank line = NULL row in generated per-column files.
        opts.skip_blank_rows = seg.is_original;
        if seg.width() == 1 {
            // Scan the single-column file: tokenization is just newline
            // splitting — the whole point of splitting (§4.1.4).
            let seg_schema = schema.project(&seg.cols)?;
            let spec = ScanSpec {
                schema: &seg_schema,
                needed: vec![0],
                pushdown: None,
            };
            let posmap = cfg
                .use_positional_map
                .then(|| entry.segment_posmaps.entry(seg.path.clone()).or_default());
            let out = scan_bytes(slice, &opts, &spec, posmap, counters)?;
            let col_data = out
                .columns
                .into_iter()
                .next()
                .map(|(_, c)| c)
                .unwrap_or_else(|| ColumnData::empty(schema.field(col).expect("valid").data_type));
            entry.store.insert_full(col, col_data, now);
        } else {
            // Crack the segment: everything up to the *largest* missing
            // column in this segment becomes per-column files in one pass.
            let missing_in_seg_max = missing
                .iter()
                .filter_map(|c| seg.cols.iter().position(|&sc| sc == *c))
                .max()
                .unwrap_or(li);
            entry
                .segments_mut()?
                .split_segment(si, missing_in_seg_max, slice, &opts, counters)?;
            // Loop around: the column is now in a single-column segment.
        }
    }
    dense_from_store(entry, needed, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use std::path::PathBuf;

    fn setup(name: &str, content: &str) -> (PathBuf, crate::catalog::Catalog) {
        let dir = std::env::temp_dir().join(format!("nodb_policy_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, content).unwrap();
        let mut cat = Catalog::new();
        cat.register("t", &path, Some(&dir.join("store"))).unwrap();
        (path, cat)
    }

    fn cfg(strategy: LoadingStrategy) -> EngineConfig {
        let mut c = EngineConfig::with_strategy(strategy);
        c.csv.threads = 1;
        c
    }

    fn range(col: usize, lo: i64, hi: i64) -> Conjunction {
        Conjunction::new(vec![
            ColPred::new(col, CmpOp::Gt, lo),
            ColPred::new(col, CmpOp::Lt, hi),
        ])
    }

    const DATA: &str = "0,10,100\n1,11,101\n2,12,102\n3,13,103\n4,14,104\n";

    fn mat(
        cat: &Catalog,
        strategy: LoadingStrategy,
        needed: &[usize],
        filter: &Conjunction,
        counters: &WorkCounters,
        now: u64,
    ) -> Materialized {
        let entry = cat.get("t").unwrap();
        let mut e = entry.write();
        let c = cfg(strategy);
        e.ensure_current(&c.csv, 16, counters).unwrap();
        materialize(&mut e, needed, filter, &c, counters, now).unwrap()
    }

    #[test]
    fn full_load_loads_everything_once() {
        let (_p, cat) = setup("full", DATA);
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::FullLoad,
            &[0],
            &Conjunction::always(),
            &c,
            1,
        );
        assert_eq!(m.n_rows, 5);
        assert!(!m.prefiltered);
        // All three columns parsed even though one was needed.
        assert_eq!(c.snapshot().values_parsed, 15);
        assert_eq!(c.snapshot().file_trips, 1);
        // Second query: no new trips.
        let before = c.snapshot();
        let m2 = mat(
            &cat,
            LoadingStrategy::FullLoad,
            &[2],
            &Conjunction::always(),
            &c,
            2,
        );
        assert_eq!(
            m2.cols[&2].as_i64_slice().unwrap(),
            &[100, 101, 102, 103, 104]
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
    }

    #[test]
    fn column_loads_fetches_only_missing() {
        let (_p, cat) = setup("col", DATA);
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::ColumnLoads,
            &[0, 1],
            &Conjunction::always(),
            &c,
            1,
        );
        assert_eq!(m.n_rows, 5);
        // Only 2 of 3 columns parsed.
        assert_eq!(c.snapshot().values_parsed, 10);
        // Next query needing col 1 only: zero trips.
        let before = c.snapshot();
        mat(
            &cat,
            LoadingStrategy::ColumnLoads,
            &[1],
            &Conjunction::always(),
            &c,
            2,
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
        // Query needing col 2: one more trip, parses only col 2.
        let before = c.snapshot();
        mat(
            &cat,
            LoadingStrategy::ColumnLoads,
            &[2],
            &Conjunction::always(),
            &c,
            3,
        );
        let d = c.snapshot().since(&before);
        assert_eq!(d.file_trips, 1);
        assert_eq!(d.values_parsed, 5);
    }

    #[test]
    fn one_column_per_trip_ablation_costs_more_trips() {
        let (_p, cat) = setup("percol", DATA);
        let c = WorkCounters::new();
        let entry = cat.get("t").unwrap();
        let mut e = entry.write();
        let mut conf = cfg(LoadingStrategy::ColumnLoads);
        conf.one_column_per_trip = true;
        e.ensure_current(&conf.csv, 16, &c).unwrap();
        materialize(&mut e, &[0, 1, 2], &Conjunction::always(), &conf, &c, 1).unwrap();
        assert_eq!(c.snapshot().file_trips, 3);
    }

    #[test]
    fn external_scan_always_reparses_everything() {
        let (_p, cat) = setup("ext", DATA);
        let c = WorkCounters::new();
        for q in 1..=3u64 {
            let m = mat(
                &cat,
                LoadingStrategy::ExternalScan,
                &[0],
                &range(0, 0, 4),
                &c,
                q,
            );
            assert!(!m.prefiltered);
            assert_eq!(m.n_rows, 5);
        }
        let s = c.snapshot();
        assert_eq!(s.file_trips, 3);
        assert_eq!(s.values_parsed, 45, "3 queries × 5 rows × all 3 columns");
    }

    #[test]
    fn partial_v1_pushes_down_and_discards() {
        let (_p, cat) = setup("v1", DATA);
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::PartialLoadsV1,
            &[1],
            &range(0, 0, 4),
            &c,
            1,
        );
        assert!(m.prefiltered);
        assert_eq!(m.n_rows, 3);
        assert_eq!(m.cols[&1].as_i64_slice().unwrap(), &[11, 12, 13]);
        assert_eq!(m.rowids.as_deref(), Some(&[1, 2, 3][..]));
        // Nothing cached: same query pays another trip.
        let before = c.snapshot();
        mat(
            &cat,
            LoadingStrategy::PartialLoadsV1,
            &[1],
            &range(0, 0, 4),
            &c,
            2,
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 1);
        let entry = cat.get("t").unwrap();
        assert!(entry.read().store.fragment_ids().is_empty());
    }

    #[test]
    fn partial_v2_caches_and_reuses_fragments() {
        let (_p, cat) = setup("v2", DATA);
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0, 1],
            &range(0, 0, 4),
            &c,
            1,
        );
        assert_eq!(m.n_rows, 3);
        // Exact rerun: zero file trips (Figure 4's rerun pattern).
        let before = c.snapshot();
        let m2 = mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0, 1],
            &range(0, 0, 4),
            &c,
            2,
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
        assert_eq!(m2.n_rows, 3);
        assert_eq!(m2.cols[&1].as_i64_slice().unwrap(), &[11, 12, 13]);
        // Narrower query: still covered.
        let before = c.snapshot();
        let m3 = mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0, 1],
            &range(0, 1, 3),
            &c,
            3,
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
        assert_eq!(m3.n_rows, 1);
        assert_eq!(m3.cols[&0].as_i64_slice().unwrap(), &[2]);
    }

    #[test]
    fn partial_v2_fetches_only_missing_ranges() {
        let (_p, cat) = setup("v2gap", DATA);
        let c = WorkCounters::new();
        // Load rows with a1 in (0,2) = {1}.
        mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0],
            &range(0, 0, 2),
            &c,
            1,
        );
        // Now ask for (0,4): only the gap (2,4) = [2,3] must come from the
        // file — 2 rows qualify in the gap.
        let before = c.snapshot();
        let m = mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0],
            &range(0, 0, 4),
            &c,
            2,
        );
        let d = c.snapshot().since(&before);
        assert_eq!(d.file_trips, 1);
        assert_eq!(m.n_rows, 3);
        assert_eq!(m.cols[&0].as_i64_slice().unwrap(), &[1, 2, 3]);
        // The union now covers (0,4): rerun needs no trip.
        let before = c.snapshot();
        mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0],
            &range(0, 0, 4),
            &c,
            3,
        );
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
    }

    #[test]
    fn partial_v2_contradictory_filter_returns_empty_without_trip() {
        let (_p, cat) = setup("v2empty", DATA);
        let c = WorkCounters::new();
        // Prime the schema (the setup call inside `mat` does inference).
        mat(
            &cat,
            LoadingStrategy::PartialLoadsV2,
            &[0],
            &range(0, 0, 4),
            &c,
            1,
        );
        let before = c.snapshot();
        let contradiction = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 10i64),
            ColPred::new(0, CmpOp::Lt, 5i64),
        ]);
        let entry = cat.get("t").unwrap();
        let mut e = entry.write();
        let conf = cfg(LoadingStrategy::PartialLoadsV2);
        let m = materialize(&mut e, &[0], &contradiction, &conf, &c, 2).unwrap();
        assert_eq!(m.n_rows, 0);
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
    }

    #[test]
    fn partial_v2_monitor_escalates_to_full_columns() {
        let (_p, cat) = setup("v2esc", DATA);
        let c = WorkCounters::new();
        // Disjoint 2-D boxes keep missing; after the threshold the monitor
        // escalates to full column loads.
        let entry = cat.get("t").unwrap();
        let conf = {
            let mut x = cfg(LoadingStrategy::PartialLoadsV2);
            x.escalate_after_misses = 2;
            x
        };
        let mut e = entry.write();
        e.ensure_current(&conf.csv, 16, &c).unwrap();
        let boxes = [
            Conjunction::new(vec![
                ColPred::new(0, CmpOp::Gt, 0i64),
                ColPred::new(1, CmpOp::Lt, 12i64),
            ]),
            Conjunction::new(vec![
                ColPred::new(0, CmpOp::Gt, 1i64),
                ColPred::new(1, CmpOp::Lt, 13i64),
            ]),
            Conjunction::new(vec![
                ColPred::new(0, CmpOp::Gt, 2i64),
                ColPred::new(1, CmpOp::Lt, 14i64),
            ]),
        ];
        for (i, b) in boxes.iter().enumerate() {
            materialize(&mut e, &[0, 1], b, &conf, &c, i as u64 + 1).unwrap();
        }
        // After escalation the columns are fully loaded.
        assert!(e.store.has_full(0));
        assert!(e.store.has_full(1));
        // And further queries are store hits without trips.
        let before = c.snapshot();
        let m = materialize(&mut e, &[0, 1], &boxes[0], &conf, &c, 9).unwrap();
        assert!(!m.prefiltered);
        assert_eq!(c.snapshot().since(&before).file_trips, 0);
    }

    #[test]
    fn split_files_cracks_then_reads_small_files() {
        let (_p, cat) = setup("split", DATA);
        let c = WorkCounters::new();
        // First query needs the LAST column: splits the whole file.
        let m = mat(
            &cat,
            LoadingStrategy::SplitFiles,
            &[2],
            &Conjunction::always(),
            &c,
            1,
        );
        assert_eq!(
            m.cols[&2].as_i64_slice().unwrap(),
            &[100, 101, 102, 103, 104]
        );
        assert!(c.snapshot().bytes_written > 0, "split files written");
        let entry = cat.get("t").unwrap();
        {
            let e = entry.read();
            let segs = e.segments.as_ref().unwrap();
            assert!(segs.is_split());
            assert_eq!(segs.segments().len(), 3, "three single-column segments");
        }
        // Loading another column now reads only its small file.
        let before = c.snapshot();
        let m2 = mat(
            &cat,
            LoadingStrategy::SplitFiles,
            &[0],
            &Conjunction::always(),
            &c,
            2,
        );
        assert_eq!(m2.cols[&0].as_i64_slice().unwrap(), &[0, 1, 2, 3, 4]);
        let d = c.snapshot().since(&before);
        assert_eq!(d.file_trips, 1);
        // The per-column file is ~10 bytes vs the 40+-byte original.
        assert!(
            d.bytes_read < 15,
            "read only the small split file, got {}",
            d.bytes_read
        );
    }

    #[test]
    fn split_files_rest_segment_split_recursively() {
        let (_p, cat) = setup("split2", "1,2,3,4\n5,6,7,8\n");
        let c = WorkCounters::new();
        // Query col 0: splits into col0 + rest(1,2,3).
        mat(
            &cat,
            LoadingStrategy::SplitFiles,
            &[0],
            &Conjunction::always(),
            &c,
            1,
        );
        let entry = cat.get("t").unwrap();
        assert_eq!(entry.read().segments.as_ref().unwrap().segments().len(), 2);
        // Query col 2: splits the rest file.
        let m = mat(
            &cat,
            LoadingStrategy::SplitFiles,
            &[2],
            &Conjunction::always(),
            &c,
            2,
        );
        assert_eq!(m.cols[&2].as_i64_slice().unwrap(), &[3, 7]);
        let e = entry.read();
        let segs = e.segments.as_ref().unwrap();
        // col0 | col1 | col2 | rest(col3)
        assert_eq!(segs.segments().len(), 4);
    }

    #[test]
    fn policies_agree_on_results() {
        let (_p, _) = setup("agree", DATA);
        let filter = range(0, 0, 4);
        let mut reference: Option<Vec<i64>> = None;
        for strategy in [
            LoadingStrategy::FullLoad,
            LoadingStrategy::ExternalScan,
            LoadingStrategy::ColumnLoads,
            LoadingStrategy::PartialLoadsV1,
            LoadingStrategy::PartialLoadsV2,
            LoadingStrategy::SplitFiles,
        ] {
            let (_p2, cat) = setup(&format!("agree_{}", strategy.label()), DATA);
            let c = WorkCounters::new();
            let m = mat(&cat, strategy, &[0, 1], &filter, &c, 1);
            // Apply residual filter when the policy did not push down.
            let vals: Vec<i64> = if m.prefiltered {
                m.cols[&1].as_i64_slice().unwrap().to_vec()
            } else {
                let pos = nodb_exec::filter_positions(&m.cols, m.n_rows, &filter).unwrap();
                pos.iter()
                    .map(|&i| m.cols[&1].as_i64_slice().unwrap()[i])
                    .collect()
            };
            match &reference {
                None => reference = Some(vals),
                Some(r) => assert_eq!(&vals, r, "{}", strategy.label()),
            }
        }
    }

    #[test]
    fn header_skipped_in_loads() {
        let (_p, cat) = setup("hdr", "id,score\n1,10\n2,20\n");
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::ColumnLoads,
            &[0, 1],
            &Conjunction::always(),
            &c,
            1,
        );
        assert_eq!(m.n_rows, 2);
        assert_eq!(m.cols[&0].as_i64_slice().unwrap(), &[1, 2]);
    }

    #[test]
    fn count_star_needs_no_columns() {
        let (_p, cat) = setup("count", DATA);
        let c = WorkCounters::new();
        let m = mat(
            &cat,
            LoadingStrategy::ColumnLoads,
            &[],
            &Conjunction::always(),
            &c,
            1,
        );
        assert_eq!(m.n_rows, 5);
        assert!(m.cols.is_empty());
        assert_eq!(c.snapshot().values_parsed, 0, "row count needs no parsing");
    }

    /// A cold `count(*)` is a load of no column: the chunk walk counts the
    /// rows and finds their starts, with no whole-file read. The count and
    /// the positional map's row starts equal `scan_bytes`' over the same
    /// data bytes, across CRLF, blank lines, a missing final newline and a
    /// header.
    #[test]
    fn a_cold_row_count_is_a_load_of_no_column() {
        for (i, text) in [
            "a,b\r\n1,2\r\n\r\n3,4\r\n5,6",
            "1,2\n\n\n3,4\n5,6\n7,8\n",
            "x,y\n1,2\n3,4\n\n5,6\n\n",
            "1,2\r\n3,4\r\n\r\n\r",
        ]
        .into_iter()
        .enumerate()
        {
            let (_p, cat) = setup(&format!("cold_count_{i}"), text);
            let entry = cat.get("t").unwrap();
            let mut e = entry.write();
            let mut cfg = cfg(LoadingStrategy::ColumnLoads);
            cfg.csv.threads = 2;
            cfg.morsel_rows = 1; // chunks of about one row
            let c = WorkCounters::new();
            e.ensure_current(&cfg.csv, 16, &c).unwrap();
            let header = e.data_start() as usize;
            let before = c.snapshot();
            let m = materialize(&mut e, &[], &Conjunction::always(), &cfg, &c, 1).unwrap();
            let work = c.snapshot().since(&before);

            let mut pm = nodb_rawcsv::PositionalMap::new();
            let scanned = scan_bytes(
                &text.as_bytes()[header..],
                &cfg.csv,
                &ScanSpec {
                    schema: e.schema().unwrap(),
                    needed: Vec::new(),
                    pushdown: None,
                },
                Some(&mut pm),
                &WorkCounters::new(),
            )
            .unwrap();
            assert_eq!(m.n_rows as u64, scanned.rows_scanned, "{text:?}");
            assert_eq!(e.store.nrows(), Some(scanned.rows_scanned), "{text:?}");
            assert_eq!(e.posmap.row_starts(), pm.row_starts(), "{text:?}");
            assert_eq!(e.posmap.file_len(), pm.file_len(), "{text:?}");
            // One trip, through the loader's chunks (a whole-file row-count
            // scan dispatches none), and nothing parsed.
            assert_eq!(work.file_trips, 1, "{text:?}");
            assert!(work.morsels_dispatched > 1, "{text:?}: {work}");
            assert_eq!((work.rows_tokenized, work.values_parsed), (0, 0));
        }
    }
}
