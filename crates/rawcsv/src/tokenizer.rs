//! Two-phase, predicate-pushing, positional-map-aware CSV tokenizer.
//!
//! This is the paper's adaptive loading operator (§3.2) as a library:
//!
//! * **Phase 1** locates row boundaries (parallel chunk scan for newlines;
//!   serial state machine when quoting is enabled, since a chunk boundary
//!   may fall inside a quoted field). The result is cached in the
//!   [`PositionalMap`] so newline scanning happens at most once per file.
//! * **Phase 2** walks each row only as far as the *maximum referenced
//!   column* ("once all required columns are found the tokenization for this
//!   row can stop"), starts from the best positional-map hint instead of
//!   column 0 when one exists, evaluates pushed-down predicates the moment
//!   their column is parsed, and abandons the row on the first failing
//!   predicate ("we abandon the tokenization of a row as soon as a predicate
//!   fails").
//!
//! Everything the scan learns about row/field positions is recorded back
//! into the positional map as a side effect — the paper's "file cracking"
//! learning loop (§4.1.5).
//!
//! A cold first touch of whole columns does not come here: the one-pass
//! chunk loader ([`crate::load`]) reads, splits and parses the file in a
//! single walk per chunk, and shares this module's field parsers and error
//! texts.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use nodb_types::profile::{self, Phase};
use nodb_types::{
    map_morsels, ColumnData, ColumnTest, Conjunction, DataType, Error, MorselRange, QueryContext,
    Result, Schema, Value, WorkCounters,
};

use crate::bytes::{find_byte, find_byte2, find_byte3, parse_f64_bytes, parse_i64_bytes};
use crate::posmap::{PositionalMap, UNKNOWN};

/// CSV dialect and scan-execution options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Quote character enabling RFC-4180-style quoting, or `None` for the
    /// fast unquoted path (the paper's numeric workloads).
    pub quote: Option<u8>,
    /// Worker threads for tokenization (1 = serial). Quoted phase 1 is
    /// always serial; phase 2 parallelises in both modes. When these
    /// options live inside an `EngineConfig`, `Engine::new` overwrites
    /// this field with the engine-wide `threads` knob — set that instead.
    pub threads: usize,
    /// When true, rows with fewer fields than referenced columns yield
    /// NULLs; when false they are a parse error.
    pub lenient: bool,
    /// Skip blank lines entirely (default). Single-column split files set
    /// this to `false` so an empty line reads back as a NULL row, keeping
    /// rowids aligned with the original file.
    pub skip_blank_rows: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            quote: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            lenient: false,
            skip_blank_rows: true,
        }
    }
}

/// What a scan should produce.
#[derive(Debug, Clone)]
pub struct ScanSpec<'a> {
    /// Table schema (typing for parsed columns).
    pub schema: &'a Schema,
    /// Column ordinals to parse and return.
    pub needed: Vec<usize>,
    /// Predicates pushed down into tokenization. Their columns are
    /// tokenized/parsed even if not in `needed`.
    pub pushdown: Option<&'a Conjunction>,
}

/// Result of a scan: per-column data for qualifying rows, plus their rowids.
#[derive(Debug)]
pub struct ScanOutput {
    /// Parsed columns, keyed by ordinal, rows aligned with `rowids`.
    pub columns: BTreeMap<usize, ColumnData>,
    /// Qualifying row ids (all rows when no pushdown), ascending.
    pub rowids: Vec<u64>,
    /// Total data rows in the file.
    pub rows_scanned: u64,
}

impl ScanOutput {
    /// Number of qualifying rows.
    pub fn num_rows(&self) -> usize {
        self.rowids.len()
    }
}

/// Read a whole file, counting the bytes and the trip.
pub fn read_file(path: &Path, counters: &WorkCounters) -> Result<Vec<u8>> {
    nodb_types::failpoints::trip("rawcsv.read_file")?;
    let mut f = File::open(path)?;
    let mut buf = Vec::with_capacity(f.metadata().map(|m| m.len() as usize).unwrap_or(0));
    f.read_to_end(&mut buf)?;
    counters.add_bytes_read(buf.len() as u64);
    counters.add_file_trip();
    Ok(buf)
}

/// Scan a file on disk. See [`scan_bytes`].
pub fn scan_file(
    path: &Path,
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<ScanOutput> {
    let bytes = read_file(path, counters)?;
    scan_bytes(&bytes, opts, spec, posmap, counters)
}

/// Scan in-memory CSV bytes, producing qualifying rows for the requested
/// columns and recording structural knowledge into `posmap` (if given).
pub fn scan_bytes(
    bytes: &[u8],
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    mut posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<ScanOutput> {
    validate_spec(spec)?;

    // Phase 1: row boundaries (reused from the positional map when valid).
    let row_starts = phase1_row_starts(bytes, opts, &mut posmap, counters)?;
    let nrows = row_starts.len();

    let touch = touch_plan(spec);
    if touch.is_empty() {
        // Pure row-count scan: every row qualifies, nothing to parse.
        return Ok(ScanOutput {
            columns: BTreeMap::new(),
            rowids: (0..nrows as u64).collect(),
            rows_scanned: nrows as u64,
        });
    }
    // Phase-2 wall time on the coordinating thread: the chunk scans run
    // (possibly in parallel) strictly inside this region, and the merge
    // below belongs to it too.
    let _p2 = profile::phase(Phase::Tokenize2);
    profile::add_bytes(bytes.len() as u64);
    let max_touch = *touch.last().expect("nonempty");
    let tests_by_col = group_pushdown(spec);
    let record_cols = record_columns(posmap.as_deref(), max_touch);

    let ctx = ScanCtx {
        bytes,
        row_starts: &row_starts,
        file_len: bytes.len(),
        opts,
        schema: spec.schema,
        needed: &spec.needed,
        touch: &touch,
        max_touch,
        tests_by_col: &tests_by_col,
        record_cols: &record_cols,
        posmap: posmap.as_deref(),
    };

    let threads = if nrows < 4096 { 1 } else { opts.threads };
    let mut chunks = map_chunks(nrows, threads, |r| scan_row_range(&ctx, r.lo, r.hi))?;

    // Merge chunk outputs (chunks own contiguous row ranges in order).
    let mut rowids: Vec<u64> = Vec::new();
    let mut columns: BTreeMap<usize, ColumnData> = spec
        .needed
        .iter()
        .map(|&c| {
            (
                c,
                ColumnData::empty(spec.schema.field(c).expect("validated").data_type),
            )
        })
        .collect();
    let mut local_totals = LocalCounters::default();
    for chunk in &mut chunks {
        rowids.append(&mut chunk.rowids);
        for (ni, &c) in spec.needed.iter().enumerate() {
            let src =
                std::mem::replace(&mut chunk.builders[ni], ColumnData::empty(DataType::Int64));
            let dst = columns.get_mut(&c).expect("initialised above");
            dst.append(src).expect("same type");
        }
        local_totals.absorb(&chunk.counters);
    }
    local_totals.flush(counters);

    // Record learned positions. (`as_deref_mut` reborrows rather than
    // moving — the clippy suggestion to drop it is wrong here.)
    #[allow(clippy::needless_option_as_deref)]
    if let Some(m) = posmap.as_deref_mut() {
        for chunk in &chunks {
            for (col, offs) in &chunk.recordings {
                m.record_range(*col, chunk.first_row, offs);
            }
        }
    }

    Ok(ScanOutput {
        columns,
        rowids,
        rows_scanned: nrows as u64,
    })
}

/// The error of a field that does not parse, naming its data row and
/// column.
pub(crate) fn field_error(row: usize, col: usize, e: impl std::fmt::Display) -> Error {
    Error::parse(format!("row {row}, column {col}: {e}"))
}

/// The error of a row that ends after `fields` fields although column
/// `max_touch` was referenced (strict mode).
pub(crate) fn short_row_error(row: usize, fields: usize, max_touch: usize) -> Error {
    Error::parse(format!(
        "row {row} has only {fields} fields but column {max_touch} was referenced \
         (enable lenient mode to read short rows as NULLs)"
    ))
}

/// Validate every referenced column ordinal against the schema.
pub(crate) fn validate_spec(spec: &ScanSpec<'_>) -> Result<()> {
    let ncols = spec.schema.len();
    for &c in &spec.needed {
        if c >= ncols {
            return Err(Error::schema(format!(
                "scan references column ordinal {c} but schema has {ncols} columns"
            )));
        }
    }
    if let Some(p) = spec.pushdown {
        for c in p.columns() {
            if c >= ncols {
                return Err(Error::schema(format!(
                    "pushdown references column ordinal {c} but schema has {ncols} columns"
                )));
            }
        }
    }
    Ok(())
}

/// Phase-1 row boundaries, served from the positional map when still valid
/// for these bytes and recorded back into it otherwise.
fn phase1_row_starts(
    bytes: &[u8],
    opts: &CsvOptions,
    posmap: &mut Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<std::sync::Arc<Vec<u64>>> {
    // Phase-1 time (one thread-local read when profiling is off). A
    // posmap-served call still counts a hit — its near-zero duration is
    // the observation.
    let _p = profile::phase(Phase::Tokenize1);
    match posmap.as_ref().and_then(|m| {
        (m.file_len() == bytes.len() as u64)
            .then(|| m.row_starts())
            .flatten()
    }) {
        Some(cached) => Ok(cached),
        None => {
            let starts = find_row_starts(bytes, opts, counters)?;
            if let Some(m) = posmap.as_deref_mut() {
                m.set_row_starts(starts.clone(), bytes.len() as u64);
                Ok(m.row_starts().expect("just set"))
            } else {
                Ok(std::sync::Arc::new(starts))
            }
        }
    }
}

/// Touch plan: every column the scan must locate, ascending, deduplicated.
pub(crate) fn touch_plan(spec: &ScanSpec<'_>) -> Vec<usize> {
    let mut touch: Vec<usize> = spec.needed.clone();
    if let Some(p) = spec.pushdown {
        touch.extend(p.columns());
    }
    touch.sort_unstable();
    touch.dedup();
    touch
}

/// Fold the pushdown predicates into one typed test per column, in file
/// order (the schema has been validated to cover every column).
fn group_pushdown(spec: &ScanSpec<'_>) -> BTreeMap<usize, ColumnTest> {
    let Some(p) = spec.pushdown else {
        return BTreeMap::new();
    };
    p.columns()
        .into_iter()
        .map(|c| {
            let ty = spec.schema.field(c).expect("validated").data_type;
            (c, ColumnTest::fold(ty, p.preds_on(c)))
        })
        .collect()
}

/// Which columns should have offsets recorded into the posmap: every
/// column the scan may walk past that is not already fully covered.
/// Column 0 never is: its offset is 0 in every row.
pub(crate) fn record_columns(posmap: Option<&PositionalMap>, max_touch: usize) -> Vec<usize> {
    match posmap {
        Some(m) => (1..=max_touch).filter(|&c| m.coverage(c) < 1.0).collect(),
        None => Vec::new(),
    }
}

/// The positional map's known field offsets a row walk may start from:
/// columns ≤ `first_touch` with recorded offsets, best (largest) first.
/// Resolved once per scan instead of a `BTreeMap` range query per row.
pub(crate) fn hint_columns(m: &PositionalMap, first_touch: usize) -> Vec<(usize, &[u32])> {
    m.known_columns()
        .into_iter()
        .filter(|&c| c <= first_touch)
        .rev()
        .filter_map(|c| m.col_offsets(c).map(|offs| (c, offs)))
        .collect()
}

/// Where the walk of data row `row` (`row_len` bytes) starts: the best
/// hint with a known offset for the row, else column 0 at byte 0.
#[inline]
pub(crate) fn walk_start(hints: &[(usize, &[u32])], row: usize, row_len: usize) -> (usize, usize) {
    hints
        .iter()
        .find_map(|&(c, offs)| match offs.get(row) {
            Some(&o) if o != UNKNOWN => Some((c, (o as usize).min(row_len))),
            _ => None,
        })
        .unwrap_or((0, 0))
}

/// Shared read-only context for phase-2 workers.
struct ScanCtx<'a> {
    bytes: &'a [u8],
    row_starts: &'a [u64],
    file_len: usize,
    opts: &'a CsvOptions,
    schema: &'a Schema,
    needed: &'a [usize],
    touch: &'a [usize],
    max_touch: usize,
    tests_by_col: &'a BTreeMap<usize, ColumnTest>,
    record_cols: &'a [usize],
    posmap: Option<&'a PositionalMap>,
}

/// Per-chunk output buffers.
struct ChunkOut {
    first_row: usize,
    builders: Vec<ColumnData>, // parallel to ctx.needed
    rowids: Vec<u64>,
    recordings: Vec<(usize, Vec<u32>)>,
    counters: LocalCounters,
}

/// Unsynchronised counters, flushed to the shared atomics once per chunk.
#[derive(Default)]
pub(crate) struct LocalCounters {
    pub(crate) rows_tokenized: u64,
    pub(crate) fields_tokenized: u64,
    pub(crate) values_parsed: u64,
    pub(crate) rows_abandoned: u64,
}

impl LocalCounters {
    fn absorb(&mut self, o: &LocalCounters) {
        self.rows_tokenized += o.rows_tokenized;
        self.fields_tokenized += o.fields_tokenized;
        self.values_parsed += o.values_parsed;
        self.rows_abandoned += o.rows_abandoned;
    }

    pub(crate) fn flush(&self, c: &WorkCounters) {
        c.add_rows_tokenized(self.rows_tokenized);
        c.add_fields_tokenized(self.fields_tokenized);
        c.add_values_parsed(self.values_parsed);
        c.add_rows_abandoned(self.rows_abandoned);
    }
}

/// Phase-2 kernel: walk rows `[lo, hi)`.
fn scan_row_range(ctx: &ScanCtx<'_>, lo: usize, hi: usize) -> Result<ChunkOut> {
    nodb_types::failpoints::trip("rawcsv.morsel")?;
    let mut cancel_check = nodb_types::CancelCheck::new();
    let n = hi - lo;
    // Without pushdown every row qualifies — size builders exactly.
    let cap = if ctx.tests_by_col.is_empty() {
        n
    } else {
        n / 4
    };
    let mut out = ChunkOut {
        first_row: lo,
        builders: ctx
            .needed
            .iter()
            .map(|&c| {
                ColumnData::with_capacity(ctx.schema.field(c).expect("validated").data_type, cap)
            })
            .collect(),
        rowids: Vec::new(),
        recordings: ctx
            .record_cols
            .iter()
            .map(|&c| (c, vec![UNKNOWN; n]))
            .collect(),
        counters: LocalCounters::default(),
    };
    // Map column ordinal -> slot in recordings, for O(1) recording.
    let mut record_slot = vec![usize::MAX; ctx.max_touch + 1];
    for (slot, &(c, _)) in out.recordings.iter().enumerate() {
        record_slot[c] = slot;
    }
    // Map column ordinal -> slot in needed.
    let mut needed_slot = vec![usize::MAX; ctx.max_touch + 1];
    for (slot, &c) in ctx.needed.iter().enumerate() {
        needed_slot[c] = slot;
    }
    let touch_mask = {
        let mut m = vec![false; ctx.max_touch + 1];
        for &c in ctx.touch {
            m[c] = true;
        }
        m
    };
    let first_touch = *ctx.touch.first().expect("nonempty");
    let hint_candidates = ctx
        .posmap
        .map_or_else(Vec::new, |m| hint_columns(m, first_touch));

    let mut stash: Vec<Value> = vec![Value::Null; ctx.needed.len()];

    'rows: for row in lo..hi {
        cancel_check.tick(1)?;
        let start = ctx.row_starts[row] as usize;
        // The row's bytes run to the next row start (or EOF); the field
        // walker treats '\n'/'\r' as terminators, so embedded trailing
        // newlines (and any skipped empty lines) never need trimming here.
        let next = if row + 1 < ctx.row_starts.len() {
            ctx.row_starts[row + 1] as usize
        } else {
            ctx.file_len
        };
        let rowb = &ctx.bytes[start..next];
        out.counters.rows_tokenized += 1;

        let (mut col, mut pos) = walk_start(&hint_candidates, row, rowb.len());
        for v in stash.iter_mut() {
            *v = Value::Null;
        }
        let mut qualified = true;
        let mut short_row = false;

        loop {
            if col <= ctx.max_touch {
                let slot = record_slot.get(col).copied().unwrap_or(usize::MAX);
                if slot != usize::MAX {
                    out.recordings[slot].1[row - lo] = pos as u32;
                }
            }
            let fe = field_end(rowb, pos, ctx.opts.delimiter, ctx.opts.quote);
            out.counters.fields_tokenized += 1;

            if touch_mask.get(col).copied().unwrap_or(false) {
                let raw = &rowb[pos..fe];
                let ty = ctx.schema.field(col).expect("validated").data_type;
                let needs_value = needed_slot[col] != usize::MAX;
                let test = ctx.tests_by_col.get(&col);
                if needs_value || test.is_some() {
                    out.counters.values_parsed += 1;
                    // Typed fast paths: numeric fields go straight from
                    // bytes to i64/f64 and predicates are checked on the
                    // scalar — no UTF-8 validation, no `String`, and no
                    // `Value` boxing for pushdown-only columns.
                    let q = ctx.opts.quote;
                    let row_col_err = |e: Error| field_error(row, col, e);
                    match ty {
                        DataType::Int64 => match parse_i64_field(raw, q).map_err(row_col_err)? {
                            Some(x) => {
                                if let Some(test) = test {
                                    if !test.matches_i64(x) {
                                        out.counters.rows_abandoned += 1;
                                        qualified = false;
                                        break;
                                    }
                                }
                                if needs_value {
                                    stash[needed_slot[col]] = Value::Int(x);
                                }
                            }
                            None => {
                                // NULL never satisfies a predicate.
                                if test.is_some() {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                        },
                        DataType::Float64 => match parse_f64_field(raw, q).map_err(row_col_err)? {
                            Some(x) => {
                                if let Some(test) = test {
                                    if !test.matches_f64(x) {
                                        out.counters.rows_abandoned += 1;
                                        qualified = false;
                                        break;
                                    }
                                }
                                if needs_value {
                                    stash[needed_slot[col]] = Value::Float(x);
                                }
                            }
                            None => {
                                if test.is_some() {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                        },
                        DataType::Str => {
                            let v = parse_field(raw, ty, q).map_err(row_col_err)?;
                            if let Some(test) = test {
                                if !test.matches(v.as_value_ref()) {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                            if needs_value {
                                stash[needed_slot[col]] = v;
                            }
                        }
                    }
                }
            }

            if col >= ctx.max_touch {
                break;
            }
            if rowb.get(fe) != Some(&ctx.opts.delimiter) {
                // Row ended (newline/EOF) before we reached max_touch.
                short_row = true;
                break;
            }
            pos = fe + 1;
            col += 1;
        }

        if short_row && !ctx.opts.lenient {
            return Err(short_row_error(row, col + 1, ctx.max_touch));
        }
        if short_row {
            // NULLs cannot satisfy predicates on the missing columns.
            if let Some(p) = ctx.tests_by_col.keys().find(|&&c| c > col) {
                let _ = p;
                out.counters.rows_abandoned += 1;
                continue 'rows;
            }
        }
        if qualified {
            for (slot, v) in stash.iter_mut().enumerate() {
                let v = std::mem::replace(v, Value::Null);
                out.builders[slot].push(v).expect("typed parse");
            }
            out.rowids.push(row as u64);
        }
    }
    Ok(out)
}

/// Find the end (exclusive) of the field starting at `pos` within a row
/// buffer. A field ends at the delimiter, `\n`, `\r` or end of buffer;
/// callers inspect `row.get(end)` to distinguish a delimiter from a row
/// terminator. Quote-aware when `quote` is set (`""` escapes handled,
/// newlines inside quotes do not terminate the field).
#[inline]
pub fn field_end(row: &[u8], pos: usize, delim: u8, quote: Option<u8>) -> usize {
    if let Some(q) = quote {
        if row.get(pos) == Some(&q) {
            let mut i = pos + 1;
            let mut closed = false;
            while let Some(off) = find_byte(&row[i..], q) {
                i += off;
                if row.get(i + 1) == Some(&q) {
                    i += 2; // escaped "" pair, keep scanning
                } else {
                    i += 1; // closing quote
                    closed = true;
                    break;
                }
            }
            if !closed {
                return row.len(); // unterminated quote runs to end of row
            }
            match find_byte3(&row[i..], delim, b'\n', b'\r') {
                Some(off) => return i + off,
                None => return row.len(),
            }
        }
    }
    match find_byte3(&row[pos..], delim, b'\n', b'\r') {
        Some(off) => pos + off,
        None => row.len(),
    }
}

/// Parse one raw field into a typed value. Empty unquoted fields are NULL;
/// a quoted empty string is the empty string for `Str` columns.
pub fn parse_field(raw: &[u8], ty: DataType, quote: Option<u8>) -> Result<Value> {
    match ty {
        DataType::Int64 => Ok(parse_i64_field(raw, quote)?
            .map(Value::Int)
            .unwrap_or(Value::Null)),
        DataType::Float64 => Ok(parse_f64_field(raw, quote)?
            .map(Value::Float)
            .unwrap_or(Value::Null)),
        DataType::Str => {
            if raw.is_empty() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(decode_field(raw, quote)?.into_owned()))
        }
    }
}

/// Typed `Int64` field parse straight from raw bytes: no UTF-8 validation,
/// no `String`, no `Value` until the caller wants one. `Ok(None)` is NULL
/// (empty or all-whitespace field). Quoted or non-ASCII-whitespace-padded
/// fields take the decoding slow path so semantics match [`parse_field`]'s
/// historical behaviour exactly.
#[inline]
pub fn parse_i64_field(raw: &[u8], quote: Option<u8>) -> Result<Option<i64>> {
    let slow = |raw| {
        parse_numeric_slow(raw, DataType::Int64, quote).map(|v| match v {
            Some(Value::Int(x)) => Some(x),
            _ => None,
        })
    };
    if raw.is_empty() {
        return Ok(None);
    }
    if quote.is_some_and(|q| raw.first() == Some(&q)) {
        return slow(raw);
    }
    let t = raw.trim_ascii();
    if t.is_empty() {
        // All-ASCII-whitespace is NULL; exotic unicode whitespace decides
        // on the slow path.
        if raw.is_ascii() {
            return Ok(None);
        }
        return slow(raw);
    }
    match parse_i64_bytes(t) {
        Some(x) => Ok(Some(x)),
        None => slow(raw),
    }
}

/// Typed `Float64` field parse from raw bytes; see [`parse_i64_field`].
#[inline]
pub fn parse_f64_field(raw: &[u8], quote: Option<u8>) -> Result<Option<f64>> {
    let slow = |raw| {
        parse_numeric_slow(raw, DataType::Float64, quote).map(|v| match v {
            Some(Value::Float(x)) => Some(x),
            _ => None,
        })
    };
    if raw.is_empty() {
        return Ok(None);
    }
    if quote.is_some_and(|q| raw.first() == Some(&q)) {
        return slow(raw);
    }
    let t = raw.trim_ascii();
    if t.is_empty() {
        if raw.is_ascii() {
            return Ok(None);
        }
        return slow(raw);
    }
    match parse_f64_bytes(t) {
        Some(x) => Ok(Some(x)),
        None => slow(raw),
    }
}

/// Slow path shared by the typed parsers: full quote stripping, UTF-8
/// validation and unicode-aware trimming — the pre-fast-path semantics.
fn parse_numeric_slow(raw: &[u8], ty: DataType, quote: Option<u8>) -> Result<Option<Value>> {
    let decoded = decode_field(raw, quote)?;
    let s = decoded.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match ty {
        DataType::Int64 => parse_i64_bytes(s.as_bytes())
            .map(|x| Some(Value::Int(x)))
            .ok_or_else(|| Error::parse(format!("invalid int64 {s:?}"))),
        DataType::Float64 => s
            .parse::<f64>()
            .map(|x| Some(Value::Float(x)))
            .map_err(|e| Error::parse(format!("invalid float64 {s:?}: {e}"))),
        DataType::Str => unreachable!("numeric slow path"),
    }
}

/// Strip quotes and unescape `""` pairs; validates UTF-8.
pub(crate) fn decode_field(raw: &[u8], quote: Option<u8>) -> Result<Cow<'_, str>> {
    let unquoted: Cow<'_, [u8]> = match quote {
        Some(q) if raw.first() == Some(&q) => {
            let inner_end = if raw.last() == Some(&q) && raw.len() >= 2 {
                raw.len() - 1
            } else {
                raw.len()
            };
            let inner = &raw[1..inner_end];
            if inner.windows(2).any(|w| w[0] == q && w[1] == q) {
                let mut out = Vec::with_capacity(inner.len());
                let mut i = 0;
                while i < inner.len() {
                    out.push(inner[i]);
                    if inner[i] == q && inner.get(i + 1) == Some(&q) {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Cow::Owned(out)
            } else {
                Cow::Borrowed(inner)
            }
        }
        _ => Cow::Borrowed(raw),
    };
    match unquoted {
        Cow::Borrowed(b) => std::str::from_utf8(b)
            .map(Cow::Borrowed)
            .map_err(|e| Error::parse(format!("invalid utf-8: {e}"))),
        Cow::Owned(b) => String::from_utf8(b)
            .map(Cow::Owned)
            .map_err(|e| Error::parse(format!("invalid utf-8: {e}"))),
    }
}

/// Run `f` over `n` items cut into `threads` chunks of `ceil(n/threads)`
/// items each, on the morsel driver; results come back in chunk order.
/// `threads <= 1` is one chunk, inline.
pub(crate) fn map_chunks<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(MorselRange) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let threads = threads.max(1);
    map_morsels(n, n.div_ceil(threads), threads, f)
}

/// Push the offsets just past every `\n` in `bytes[lo..hi)` (absolute).
#[inline]
fn newline_starts_into(bytes: &[u8], lo: usize, hi: usize, out: &mut Vec<u64>) {
    let mut from = lo;
    while let Some(off) = find_byte(&bytes[from..hi], b'\n') {
        from += off + 1;
        out.push(from as u64);
    }
}

/// Phase 1: locate the start offset of every non-empty row.
///
/// Fails only on an injected fault ("rawcsv.phase1") or cooperative
/// cancellation: the unquoted newline split runs on the morsel driver,
/// which polls the ambient token before each chunk, and the quoted serial
/// state machine polls a [`nodb_types::CancelCheck`] every few thousand
/// rows, so even a pathological single-threaded phase 1 aborts promptly.
pub fn find_row_starts(
    bytes: &[u8],
    opts: &CsvOptions,
    _counters: &WorkCounters,
) -> Result<Vec<u64>> {
    nodb_types::failpoints::trip("rawcsv.phase1")?;
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let starts = match opts.quote {
        None => {
            // Phase 1's items are bytes, not rows: keep them out of the
            // profile's morsel aggregates (its cost is the `tokenize1`
            // timer). The driver still polls the token before each chunk.
            let _unprofiled = QueryContext {
                profile: None,
                ..QueryContext::current()
            }
            .enter();
            let threads = if bytes.len() > 1 << 20 {
                opts.threads
            } else {
                1
            };
            let mut parts = map_chunks(bytes.len(), threads, |r| {
                let mut v = Vec::new();
                if r.lo == 0 {
                    v.push(0);
                }
                newline_starts_into(bytes, r.lo, r.hi, &mut v);
                Ok(v)
            })?;
            // Several chunks concatenate into one exact-size vector on
            // this thread: growing the first worker's vector in place
            // measured a higher peak RSS on cold_first_touch.
            if parts.len() == 1 {
                parts.swap_remove(0)
            } else {
                parts.concat()
            }
        }
        Some(q) => {
            // Serial state machine (newlines inside quotes don't break
            // rows), jumping between interesting bytes SWAR-style instead
            // of inspecting every byte.
            let mut cancel_check = nodb_types::CancelCheck::new();
            let mut starts = vec![0];
            let mut in_quotes = false;
            let mut i = 0;
            while let Some(off) = find_byte2(&bytes[i..], q, b'\n') {
                i += off;
                if bytes[i] == q {
                    in_quotes = !in_quotes;
                } else if !in_quotes {
                    starts.push((i + 1) as u64);
                    cancel_check.tick(1)?;
                }
                i += 1;
            }
            starts
        }
    };
    // Drop the phantom start after a trailing newline and empty rows.
    let len = bytes.len() as u64;
    let mut filtered = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        if s >= len {
            continue;
        }
        let end = starts.get(i + 1).copied().unwrap_or(len);
        // Content length excluding the newline (and a possible \r).
        let mut content = &bytes[s as usize..end as usize];
        if content.last() == Some(&b'\n') {
            content = &content[..content.len() - 1];
        }
        if content.last() == Some(&b'\r') {
            content = &content[..content.len() - 1];
        }
        if !content.is_empty() || !opts.skip_blank_rows {
            filtered.push(s);
        }
    }
    Ok(filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::{CmpOp, ColPred, ValueRef};

    fn opts() -> CsvOptions {
        CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        }
    }

    fn counters() -> WorkCounters {
        WorkCounters::new()
    }

    fn scan_simple(
        data: &str,
        schema: &Schema,
        needed: Vec<usize>,
        pushdown: Option<&Conjunction>,
    ) -> ScanOutput {
        let c = counters();
        scan_bytes(
            data.as_bytes(),
            &opts(),
            &ScanSpec {
                schema,
                needed,
                pushdown,
            },
            None,
            &c,
        )
        .unwrap()
    }

    #[test]
    fn basic_full_scan() {
        let schema = Schema::ints(3);
        let out = scan_simple("1,2,3\n4,5,6\n7,8,9\n", &schema, vec![0, 2], None);
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(out.rowids, vec![0, 1, 2]);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[1, 4, 7]);
        assert_eq!(out.columns[&2].as_i64_slice().unwrap(), &[3, 6, 9]);
    }

    #[test]
    fn last_line_without_newline() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n3,4", &schema, vec![1], None);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[2, 4]);
    }

    #[test]
    fn crlf_line_endings() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\r\n3,4\r\n", &schema, vec![0, 1], None);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[2, 4]);
    }

    #[test]
    fn empty_lines_skipped() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n\n3,4\n\r\n5,6\n", &schema, vec![0], None);
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[1, 3, 5]);
    }

    #[test]
    fn empty_file_and_newline_only() {
        let schema = Schema::ints(1);
        assert_eq!(scan_simple("", &schema, vec![0], None).rows_scanned, 0);
        assert_eq!(scan_simple("\n\n", &schema, vec![0], None).rows_scanned, 0);
    }

    #[test]
    fn pushdown_filters_and_counts_abandoned() {
        let schema = Schema::ints(2);
        let conj = Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 2i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,10\n2,20\n3,30\n4,40\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![2, 3]);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[30, 40]);
        let snap = c.snapshot();
        assert_eq!(snap.rows_abandoned, 2);
        // Abandoned rows never parse column 1: 4 parses of col0 + 2 of col1.
        assert_eq!(snap.values_parsed, 6);
    }

    #[test]
    fn early_stop_at_max_touch_column() {
        // Only columns 0 and 1 are referenced out of 4 — fields 2/3 of each
        // row must not be tokenized.
        let schema = Schema::ints(4);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3,4\n5,6,7,8\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(c.snapshot().fields_tokenized, 4); // 2 rows × 2 fields
    }

    #[test]
    fn predicate_on_later_column_tokenizes_intermediates() {
        let schema = Schema::ints(4);
        let conj = Conjunction::new(vec![ColPred::new(3, CmpOp::Eq, 8i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3,4\n5,6,7,8\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![1]);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[5]);
        // All 4 fields tokenized per row (target col is last).
        assert_eq!(c.snapshot().fields_tokenized, 8);
        // But only cols 0 and 3 parsed.
        assert_eq!(c.snapshot().values_parsed, 4);
    }

    #[test]
    fn strict_mode_rejects_short_rows() {
        let schema = Schema::ints(3);
        let c = counters();
        let err = scan_bytes(
            b"1,2,3\n4,5\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![2],
                pushdown: None,
            },
            None,
            &c,
        );
        assert!(err.is_err());
    }

    #[test]
    fn lenient_mode_pads_short_rows_with_nulls() {
        let schema = Schema::ints(3);
        let mut o = opts();
        o.lenient = true;
        let c = counters();
        let out = scan_bytes(
            b"1,2,3\n4,5\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![2],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.columns[&2].get(0), Value::Int(3));
        assert_eq!(out.columns[&2].get(1), Value::Null);
    }

    #[test]
    fn lenient_short_row_fails_predicates_on_missing_cols() {
        let schema = Schema::ints(3);
        let mut o = opts();
        o.lenient = true;
        let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Gt, 0i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3\n4,5\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![0]);
    }

    #[test]
    fn empty_fields_are_null() {
        let schema = Schema::ints(3);
        let out = scan_simple("1,,3\n", &schema, vec![0, 1, 2], None);
        assert_eq!(out.columns[&1].get(0), Value::Null);
        assert_eq!(out.columns[&2].get(0), Value::Int(3));
    }

    #[test]
    fn trailing_delimiter_is_trailing_empty_field() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("a", DataType::Int64),
            nodb_types::Field::new("b", DataType::Str),
        ])
        .unwrap();
        let out = scan_simple("1,\n2,x\n", &schema, vec![1], None);
        assert_eq!(out.columns[&1].get(0), Value::Null);
        assert_eq!(out.columns[&1].get(1), Value::Str("x".into()));
    }

    #[test]
    fn float_and_str_columns() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("x", DataType::Float64),
            nodb_types::Field::new("s", DataType::Str),
        ])
        .unwrap();
        let out = scan_simple("1.5,hello\n-2.25,world\n", &schema, vec![0, 1], None);
        assert_eq!(out.columns[&0].as_f64_slice().unwrap(), &[1.5, -2.25]);
        let text = &out.columns[&1];
        let cells: Vec<_> = (0..text.len()).map(|i| text.get_ref(i)).collect();
        assert_eq!(cells, [ValueRef::Str("hello"), ValueRef::Str("world")]);
    }

    #[test]
    fn parse_error_mentions_row_and_column() {
        let schema = Schema::ints(2);
        let c = counters();
        let err = scan_bytes(
            b"1,2\nx,4\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 1") && msg.contains("column 0"), "{msg}");
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters_and_newlines() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("a", DataType::Str),
            nodb_types::Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let mut o = opts();
        o.quote = Some(b'"');
        let c = counters();
        let out = scan_bytes(
            b"\"x,y\",1\n\"line1\nline2\",2\n\"he said \"\"hi\"\"\",3\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rows_scanned, 3);
        let text = &out.columns[&0];
        let cells: Vec<_> = (0..text.len()).map(|i| text.get_ref(i)).collect();
        assert_eq!(
            cells,
            [
                ValueRef::Str("x,y"),
                ValueRef::Str("line1\nline2"),
                ValueRef::Str("he said \"hi\"")
            ]
        );
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn quoted_empty_string_is_not_null() {
        let schema = Schema::new(vec![nodb_types::Field::new("s", DataType::Str)]).unwrap();
        let mut o = opts();
        o.quote = Some(b'"');
        let c = counters();
        let out = scan_bytes(
            b"\"\"\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.columns[&0].get(0), Value::Str(String::new()));
    }

    #[test]
    fn posmap_learns_and_accelerates() {
        let schema = Schema::ints(4);
        let mut pm = PositionalMap::new();
        let data = b"10,20,30,40\n11,21,31,41\n";
        let c = counters();
        // First scan touches columns 0..=1.
        scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: None,
            },
            Some(&mut pm),
            &c,
        )
        .unwrap();
        assert_eq!(pm.row_count(), Some(2));
        assert_eq!(pm.coverage(0), 1.0);
        assert_eq!(pm.coverage(1), 1.0);
        assert_eq!(pm.coverage(3), 0.0);
        // Second scan needs col 3; it should start from col 1's offsets,
        // so col 0 fields are never re-tokenized.
        let c2 = counters();
        let out = scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![3],
                pushdown: None,
            },
            Some(&mut pm),
            &c2,
        )
        .unwrap();
        assert_eq!(out.columns[&3].as_i64_slice().unwrap(), &[40, 41]);
        // Fields walked per row: cols 1,2,3 = 3 fields (not 4).
        assert_eq!(c2.snapshot().fields_tokenized, 6);
        assert_eq!(pm.coverage(3), 1.0);
        // Third scan of col 3 jumps straight there: 1 field per row.
        let c3 = counters();
        scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![3],
                pushdown: None,
            },
            Some(&mut pm),
            &c3,
        )
        .unwrap();
        assert_eq!(c3.snapshot().fields_tokenized, 2);
    }

    #[test]
    fn empty_touch_set_returns_all_rowids() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n3,4\n", &schema, vec![], None);
        assert_eq!(out.rowids, vec![0, 1]);
        assert!(out.columns.is_empty());
    }

    #[test]
    fn out_of_range_column_rejected() {
        let schema = Schema::ints(2);
        let c = counters();
        let err = scan_bytes(
            b"1,2\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![5],
                pushdown: None,
            },
            None,
            &c,
        );
        assert!(err.is_err());
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let schema = Schema::ints(3);
        let mut data = String::new();
        for i in 0..10_000i64 {
            data.push_str(&format!("{},{},{}\n", i, i * 2, i % 7));
        }
        let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Eq, 3i64)]);
        let serial = scan_simple(&data, &schema, vec![0, 1], Some(&conj));
        let mut par_opts = CsvOptions {
            threads: 4,
            ..CsvOptions::default()
        };
        par_opts.lenient = false;
        let c = counters();
        let par = scan_bytes(
            data.as_bytes(),
            &par_opts,
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(serial.rowids, par.rowids);
        assert_eq!(
            serial.columns[&0].as_i64_slice().unwrap(),
            par.columns[&0].as_i64_slice().unwrap()
        );
        assert_eq!(
            serial.columns[&1].as_i64_slice().unwrap(),
            par.columns[&1].as_i64_slice().unwrap()
        );
    }

    #[test]
    fn phase1_is_cancellable_on_quoted_and_unquoted_input() {
        use nodb_types::{CancelScope, CancelToken};
        // Over the 1 MiB parallel threshold and over one 4096-row poll
        // interval of the quoted state machine.
        let mut data = String::new();
        let mut i = 0u64;
        while data.len() <= 1 << 20 {
            data.push_str(&format!("{i},\"x{i}\"\n"));
            i += 1;
        }
        let token = CancelToken::new();
        token.cancel();
        let _scope = CancelScope::enter(token);
        let c = counters();
        for (quote, threads) in [(None, 1), (None, 4), (Some(b'"'), 1)] {
            let o = CsvOptions {
                quote,
                threads,
                ..CsvOptions::default()
            };
            let err = find_row_starts(data.as_bytes(), &o, &c).unwrap_err();
            assert!(
                matches!(err, Error::Cancelled(_)),
                "quote={quote:?} threads={threads}: got {err:?}"
            );
        }
    }

    #[test]
    fn profile_rows_count_phase2_rows_never_phase1_bytes() {
        use nodb_types::{ProfileScope, ProfileSink};
        let schema = Schema::ints(2);
        let mut data = String::new();
        let mut n = 0u64;
        while data.len() <= 1 << 20 {
            data.push_str(&format!("{n},{}\n", n * 3));
            n += 1;
        }
        let o = CsvOptions {
            threads: 4,
            ..CsvOptions::default()
        };
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(std::sync::Arc::clone(&sink));
        let c = counters();
        find_row_starts(data.as_bytes(), &o, &c).unwrap();
        let p = sink.snapshot();
        assert_eq!((p.morsels, p.rows, p.bytes), (0, 0, 0), "{p:?}");
        let spec = ScanSpec {
            schema: &schema,
            needed: vec![1],
            pushdown: None,
        };
        let out = scan_bytes(data.as_bytes(), &o, &spec, None, &c).unwrap();
        assert_eq!(out.rows_scanned, n);
        let p = sink.snapshot();
        assert_eq!((p.morsels, p.rows), (4, n), "{p:?}");
        assert_eq!(p.bytes, data.len() as u64);
    }

    #[test]
    fn typed_field_parsers_edge_cases() {
        assert_eq!(parse_i64_field(b"0", None).unwrap(), Some(0));
        assert_eq!(parse_i64_field(b" -42\t", None).unwrap(), Some(-42));
        assert_eq!(parse_i64_field(b"+7", None).unwrap(), Some(7));
        assert_eq!(parse_i64_field(b"", None).unwrap(), None);
        assert_eq!(parse_i64_field(b"  ", None).unwrap(), None);
        assert!(parse_i64_field(b"-", None).is_err());
        assert!(parse_i64_field(b"12x", None).is_err());
        assert_eq!(
            parse_i64_field(b"9223372036854775807", None).unwrap(),
            Some(i64::MAX)
        );
        assert!(parse_i64_field(b"9223372036854775808", None).is_err()); // overflow
        assert_eq!(parse_f64_field(b"1.5", None).unwrap(), Some(1.5));
        assert_eq!(parse_f64_field(b" 2e3 ", None).unwrap(), Some(2000.0));
        assert_eq!(parse_f64_field(b"", None).unwrap(), None);
        assert!(parse_f64_field(b"abc", None).is_err());
        // Quoted numerics take the decode path.
        assert_eq!(parse_i64_field(b"\"11\"", Some(b'"')).unwrap(), Some(11));
        assert_eq!(parse_f64_field(b"\"1.5\"", Some(b'"')).unwrap(), Some(1.5));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Reference implementation: plain split on the delimiter.
        fn naive_rows(data: &str) -> Vec<Vec<Option<i64>>> {
            data.lines()
                .filter(|l| !l.trim_end_matches('\r').is_empty())
                .map(|l| {
                    l.trim_end_matches('\r')
                        .split(',')
                        .map(|f| f.parse::<i64>().ok())
                        .collect()
                })
                .collect()
        }

        proptest! {
            /// The tokenizer agrees with a naive line/field splitter on
            /// arbitrary integer tables.
            #[test]
            fn agrees_with_naive_split(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-1000i64..1000, 3), 0..60),
                trailing_newline in proptest::bool::ANY) {
                let mut data = String::new();
                for r in &rows {
                    data.push_str(&format!("{},{},{}", r[0], r[1], r[2]));
                    data.push('\n');
                }
                if !trailing_newline {
                    data.pop();
                }
                let schema = Schema::ints(3);
                let c = WorkCounters::new();
                let out = scan_bytes(
                    data.as_bytes(),
                    &CsvOptions { threads: 1, ..CsvOptions::default() },
                    &ScanSpec { schema: &schema, needed: vec![0, 1, 2], pushdown: None },
                    None,
                    &c,
                ).unwrap();
                let naive = naive_rows(&data);
                prop_assert_eq!(out.rows_scanned as usize, naive.len());
                for (i, r) in naive.iter().enumerate() {
                    for (col, want) in r.iter().enumerate() {
                        let got = out.columns[&col].get(i);
                        let want = want.map(Value::Int).unwrap_or(Value::Null);
                        prop_assert_eq!(got, want);
                    }
                }
            }

            /// Pushdown produces exactly the rows a post-filter would.
            #[test]
            fn pushdown_equals_post_filter(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-50i64..50, 2), 0..80),
                lo in -60i64..60, width in 0i64..60) {
                let mut data = String::new();
                for r in &rows {
                    data.push_str(&format!("{},{}\n", r[0], r[1]));
                }
                let schema = Schema::ints(2);
                let conj = Conjunction::new(vec![
                    ColPred::new(0, CmpOp::Gt, lo),
                    ColPred::new(0, CmpOp::Lt, lo + width),
                ]);
                let c = WorkCounters::new();
                let out = scan_bytes(
                    data.as_bytes(),
                    &CsvOptions { threads: 1, ..CsvOptions::default() },
                    &ScanSpec { schema: &schema, needed: vec![1], pushdown: Some(&conj) },
                    None,
                    &c,
                ).unwrap();
                let expect: Vec<(u64, i64)> = rows.iter().enumerate()
                    .filter(|(_, r)| r[0] > lo && r[0] < lo + width)
                    .map(|(i, r)| (i as u64, r[1]))
                    .collect();
                let got: Vec<(u64, i64)> = out.rowids.iter().copied()
                    .zip(out.columns[&1].as_i64_slice().unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(got, expect);
            }

            /// Quoted CSV round-trip: arbitrary strings (commas, quotes,
            /// newlines, unicode) written with RFC-4180 quoting parse back
            /// exactly.
            #[test]
            fn quoted_round_trip(
                rows in proptest::collection::vec(
                    (any::<String>(), -100i64..100), 1..30)) {
                // Encode.
                let mut data = Vec::new();
                for (s, n) in &rows {
                    let quoted = format!("\"{}\"", s.replace('"', "\"\""));
                    data.extend_from_slice(quoted.as_bytes());
                    data.push(b',');
                    data.extend_from_slice(n.to_string().as_bytes());
                    data.push(b'\n');
                }
                let schema = Schema::new(vec![
                    nodb_types::Field::new("s", DataType::Str),
                    nodb_types::Field::new("n", DataType::Int64),
                ]).unwrap();
                let opts = CsvOptions {
                    threads: 1,
                    quote: Some(b'"'),
                    ..CsvOptions::default()
                };
                let c = WorkCounters::new();
                let out = scan_bytes(
                    &data,
                    &opts,
                    &ScanSpec { schema: &schema, needed: vec![0, 1], pushdown: None },
                    None,
                    &c,
                ).unwrap();
                prop_assert_eq!(out.rows_scanned as usize, rows.len());
                for (i, (s, n)) in rows.iter().enumerate() {
                    prop_assert_eq!(out.columns[&0].get(i), Value::Str(s.clone()));
                    prop_assert_eq!(out.columns[&1].get(i), Value::Int(*n));
                }
            }

            /// Scanning with a positional map never changes results, no
            /// matter which scan order built the map.
            #[test]
            fn posmap_is_transparent(
                rows in proptest::collection::vec(
                    proptest::collection::vec(0i64..100, 5), 1..40),
                order in proptest::collection::vec(0usize..5, 1..6)) {
                let mut data = String::new();
                for r in &rows {
                    let strs: Vec<String> = r.iter().map(|v| v.to_string()).collect();
                    data.push_str(&strs.join(","));
                    data.push('\n');
                }
                let schema = Schema::ints(5);
                let c = WorkCounters::new();
                let o = CsvOptions { threads: 1, ..CsvOptions::default() };
                let mut pm = PositionalMap::new();
                for &col in &order {
                    let with_map = scan_bytes(
                        data.as_bytes(), &o,
                        &ScanSpec { schema: &schema, needed: vec![col], pushdown: None },
                        Some(&mut pm), &c,
                    ).unwrap();
                    let without = scan_bytes(
                        data.as_bytes(), &o,
                        &ScanSpec { schema: &schema, needed: vec![col], pushdown: None },
                        None, &c,
                    ).unwrap();
                    prop_assert_eq!(
                        with_map.columns[&col].as_i64_slice().unwrap(),
                        without.columns[&col].as_i64_slice().unwrap()
                    );
                }
            }
        }
    }
}
