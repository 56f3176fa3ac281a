//! The cold column loader: one parallel pass over a raw file.
//!
//! A first touch needs whole columns in the adaptive store and nothing
//! else: no pushdown, no row ids, no operator downstream. [`load_columns`]
//! therefore cuts the data region (`data_start..len`) into byte chunks and
//! runs them on the morsel driver. Each worker reads its chunk with plain
//! file reads into one buffer it reuses, finds the first row that starts in
//! the chunk, and then, in the same walk, records row starts, records field
//! offsets for the positional map and parses the needed fields straight
//! into typed column parts. A row belongs to the chunk its first byte lies
//! in: the worker extends its read in small steps until that row has ended.
//! Once the workers are done, a prefix sum over the per-chunk row counts
//! makes row ids global, and each column is assembled once at its final
//! size.
//!
//! The chunk walk finds row boundaries only in unquoted files whose rows
//! are not known yet. When the positional map already holds the row starts,
//! each chunk takes its rows from the map, and the map's field offsets let
//! a row's walk start at a later column. A quoted file whose rows are not
//! known is read whole and split by the serial quoted [`find_row_starts`]
//! (a chunk boundary may fall inside a quoted newline). All three run the
//! same per-row kernel, and the result equals [`scan_bytes`] over the same
//! bytes: columns, row count, positional-map state, work counters and the
//! text of the first parse error.
//!
//! Nothing is installed here. [`Loaded`] carries the columns plus what the
//! pass learned, and the caller records it once it knows the load is good.
//!
//! [`scan_bytes`]: crate::scan_bytes

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Mutex;

use nodb_types::profile::{self, Phase};
use nodb_types::resource::charge_current;
use nodb_types::{
    CancelCheck, ColumnData, DataType, Error, QueryContext, Result, Schema, Value, WorkCounters,
};

use crate::bytes::find_byte;
use crate::posmap::{PositionalMap, UNKNOWN};
use crate::tokenizer::{
    field_end, field_error, find_row_starts, hint_columns, parse_f64_field, parse_field,
    parse_i64_field, record_columns, short_row_error, touch_plan, validate_spec, walk_start,
    CsvOptions, LocalCounters, ScanSpec,
};

/// First read past a chunk's end while its last row has not ended; each
/// further step doubles.
const EXTEND_BYTES: u64 = 1 << 10;

/// What to load.
#[derive(Debug, Clone)]
pub struct LoadSpec<'a> {
    /// The raw file.
    pub path: &'a Path,
    /// Byte offset of the first data row (past any header).
    pub data_start: u64,
    /// Table schema (typing for the parsed columns).
    pub schema: &'a Schema,
    /// Column ordinals to load, distinct.
    pub needed: &'a [usize],
    /// Bytes per chunk (at least 1 is used).
    pub chunk_bytes: usize,
}

/// A finished load, not yet installed anywhere.
#[derive(Debug)]
pub struct Loaded {
    /// The loaded columns, parallel to [`LoadSpec::needed`].
    pub columns: Vec<ColumnData>,
    /// Data rows in the file.
    pub rows: u64,
    /// Chunks the data region was cut into.
    pub chunks: usize,
    data_len: u64,
    /// Row starts the load found (`None` when they came from the map or
    /// no map is kept).
    row_starts: Option<Vec<u64>>,
    /// Field offsets per recorded column, one per row.
    offsets: Vec<(usize, Vec<u32>)>,
}

impl Loaded {
    /// Write the row starts and field offsets this load learned into
    /// `posmap`, as [`scan_bytes`](crate::scan_bytes) would have.
    pub fn record_into(&mut self, posmap: &mut PositionalMap) {
        if let Some(starts) = self.row_starts.take() {
            posmap.set_row_starts(starts, self.data_len);
        }
        for (col, offs) in self.offsets.drain(..) {
            posmap.record_column(col, offs);
        }
    }
}

/// Load `spec.needed` in full, in one parallel pass over the file (chunks
/// on up to `opts.threads` workers). `posmap` supplies known row starts
/// and field offsets and decides which offsets are worth recording; it is
/// not changed (see [`Loaded::record_into`]).
///
/// Fails like [`scan_bytes`](crate::scan_bytes) would on a bad field or a
/// short row (same global row, same text), on cancellation, and with
/// [`Error::FileChanged`] when the file ends early under the reads.
pub fn load_columns(
    spec: &LoadSpec<'_>,
    opts: &CsvOptions,
    posmap: Option<&PositionalMap>,
    counters: &WorkCounters,
) -> Result<Loaded> {
    let scan = ScanSpec {
        schema: spec.schema,
        needed: spec.needed.to_vec(),
        pushdown: None,
    };
    validate_spec(&scan)?;
    let touch = touch_plan(&scan);
    let (Some(&first_touch), Some(&max_touch)) = (touch.first(), touch.last()) else {
        return Err(Error::schema("a column load names no column"));
    };

    nodb_types::failpoints::trip("rawcsv.read_file")?;
    let mut file = File::open(spec.path)?;
    let file_len = file.metadata()?.len();
    counters.add_file_trip();
    let data_start = spec.data_start.min(file_len);
    let data_len = file_len - data_start;

    // Row boundaries: the map's when it describes this file; else, for a
    // quoted file, the serial quoted phase 1 over the whole data region;
    // else the chunk walk finds them.
    let mapped = posmap
        .filter(|m| m.file_len() == data_len)
        .and_then(PositionalMap::row_starts);
    let whole = match (&mapped, opts.quote) {
        (None, Some(_)) => {
            file.seek(SeekFrom::Start(data_start))?;
            let mut bytes = Vec::with_capacity(data_len as usize);
            file.read_to_end(&mut bytes)?;
            counters.add_bytes_read(bytes.len() as u64);
            if bytes.len() as u64 != data_len {
                return Err(file_changed(spec.path));
            }
            Some(bytes)
        }
        _ => None,
    };
    drop(file);
    let found = match &whole {
        Some(bytes) => Some(profile::time(Phase::Tokenize1, || {
            find_row_starts(bytes, opts, counters)
        })?),
        None => None,
    };

    let record_cols = record_columns(posmap, max_touch);
    let kernel = Kernel {
        delim: opts.delimiter,
        quote: opts.quote,
        lenient: opts.lenient,
        types: spec
            .needed
            .iter()
            .map(|&c| spec.schema.field(c).expect("validated").data_type)
            .collect(),
        needed_slot: slots(max_touch, spec.needed),
        record_slot: slots(max_touch, &record_cols),
        record_cols,
        max_touch,
        // Only offsets that belong to the map's own rows can guide a walk.
        hints: match (&mapped, posmap) {
            (Some(_), Some(m)) => hint_columns(m, first_touch),
            _ => Vec::new(),
        },
    };
    let chunk_bytes = spec.chunk_bytes.max(1) as u64;
    let chunks = usize::try_from(data_len.div_ceil(chunk_bytes))
        .map_err(|_| Error::exec("too many load chunks"))?;
    let ctx = Ctx {
        path: spec.path,
        data_start,
        data_len,
        chunk_bytes,
        skip_blank_rows: opts.skip_blank_rows,
        whole: whole.as_deref(),
        starts: mapped.as_deref().map(Vec::as_slice).or(found.as_deref()),
        keep_starts: posmap.is_some() && mapped.is_none() && whole.is_none(),
        kernel: &kernel,
        counters,
    };

    let slots: Vec<Mutex<Option<Part>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    // Chunk items are bytes, not rows: the driver runs unprofiled, and the
    // rows and bytes are folded into the caller's profile once at the end.
    let sink = QueryContext::current().profile;
    let driven = {
        let _unprofiled = QueryContext {
            profile: None,
            ..QueryContext::current()
        }
        .enter();
        nodb_types::drive_morsels(
            chunks,
            1,
            opts.threads,
            |_worker| Worker::default(),
            |w, _worker, r| {
                let part = ctx.run_chunk(w, r.index)?;
                // The local row number stops the chunks above this one;
                // the global one is known once every chunk below is done.
                let err = part.fault.as_ref().map(|f| f.error(0, max_touch));
                *slots[r.index].lock().unwrap_or_else(|p| p.into_inner()) = Some(part);
                err.map_or(Ok(()), Err)
            },
            |w| w.counters.flush(counters),
        )
    };
    let parts: Vec<Part> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(|p| p.into_inner()))
        .map_while(|p| p)
        .collect();
    if let Err(e) = driven {
        return Err(match e {
            // A parse error comes from a row fault, and the lowest failing
            // chunk's error wins: every chunk below it completed.
            Error::Parse(_) => global_fault(&parts, max_touch).unwrap_or(e),
            e => e,
        });
    }
    if parts.len() != chunks {
        return Err(Error::internal("load chunk result missing"));
    }

    // The quoted whole-file buffer is not needed past the walk.
    let keep_starts = ctx.keep_starts;
    drop(whole);

    let rows: usize = parts.iter().map(|p| p.rows).sum();
    // One assembly task per output vector: the needed columns, the row
    // starts (when kept) and each recorded column's offsets.
    let mut col_pieces: Vec<Vec<ColumnData>> = kernel.types.iter().map(|_| Vec::new()).collect();
    let mut start_pieces = Vec::new();
    let mut offs_pieces: Vec<Vec<Vec<u32>>> =
        kernel.record_cols.iter().map(|_| Vec::new()).collect();
    for part in parts {
        for (pieces, col) in col_pieces.iter_mut().zip(part.columns) {
            pieces.push(col);
        }
        start_pieces.push(part.starts);
        for (pieces, offs) in offs_pieces.iter_mut().zip(part.offsets) {
            pieces.push(offs);
        }
    }
    let pieces: Vec<Pieces> = col_pieces
        .into_iter()
        .zip(&kernel.types)
        .map(|(parts, &ty)| Pieces::Column(ty, parts))
        .chain(keep_starts.then_some(Pieces::Starts(start_pieces)))
        .chain(offs_pieces.into_iter().map(Pieces::Offsets))
        .collect();
    let tasks: Vec<Mutex<Option<Pieces>>> =
        pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let wholes = {
        let _unprofiled = QueryContext {
            profile: None,
            ..QueryContext::current()
        }
        .enter();
        nodb_types::map_morsels(tasks.len(), 1, opts.threads, |r| {
            let task = tasks[r.index]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            task.expect("each task runs once").assemble(rows)
        })?
    };
    let (mut columns, mut row_starts, mut offsets) = (Vec::new(), None, Vec::new());
    for whole in wholes {
        match whole {
            Whole::Column(c) => columns.push(c),
            Whole::Starts(s) => row_starts = Some(s),
            Whole::Offsets(o) => offsets.push(o),
        }
    }
    if let Some(p) = sink {
        p.add_morsels(chunks as u64, rows as u64, data_len);
    }
    let row_starts = row_starts.or(found.filter(|_| posmap.is_some()));
    Ok(Loaded {
        columns,
        rows: rows as u64,
        chunks,
        data_len,
        row_starts,
        // No rows, no offsets: a scan over no rows records none either.
        offsets: if rows == 0 {
            Vec::new()
        } else {
            kernel.record_cols.iter().copied().zip(offsets).collect()
        },
    })
}

/// The chunk parts of one output vector, in chunk order.
enum Pieces {
    Column(DataType, Vec<ColumnData>),
    Starts(Vec<Vec<u64>>),
    Offsets(Vec<Vec<u32>>),
}

/// One output vector, assembled.
enum Whole {
    Column(ColumnData),
    Starts(Vec<u64>),
    Offsets(Vec<u32>),
}

impl Pieces {
    /// Copy the pieces in order into one vector sized `rows` from the
    /// start; each piece is dropped as soon as it has been copied.
    fn assemble(self, rows: usize) -> Result<Whole> {
        fn concat<T: Copy>(parts: Vec<Vec<T>>, rows: usize) -> Vec<T> {
            let mut whole = Vec::with_capacity(rows);
            for part in parts {
                whole.extend_from_slice(&part);
            }
            whole
        }
        Ok(match self {
            Pieces::Column(ty, parts) => {
                let mut whole = ColumnData::with_capacity(ty, rows);
                for part in parts {
                    whole.append(part)?;
                }
                Whole::Column(whole)
            }
            Pieces::Starts(parts) => Whole::Starts(concat(parts, rows)),
            Pieces::Offsets(parts) => Whole::Offsets(concat(parts, rows)),
        })
    }
}

/// Ordinal → slot in `cols`, for ordinals up to `max_touch`.
fn slots(max_touch: usize, cols: &[usize]) -> Vec<Option<usize>> {
    let mut slot = vec![None; max_touch + 1];
    for (i, &c) in cols.iter().enumerate() {
        slot[c] = Some(i);
    }
    slot
}

fn file_changed(path: &Path) -> Error {
    Error::FileChanged(format!("{} ended before its length", path.display()))
}

/// The error of the lowest faulting chunk, its row made global by the row
/// counts of the chunks below it.
fn global_fault(parts: &[Part], max_touch: usize) -> Option<Error> {
    let mut below = 0;
    for part in parts {
        if let Some(f) = &part.fault {
            return Some(f.error(below, max_touch));
        }
        below += part.rows;
    }
    None
}

/// Shared read-only state of one load.
struct Ctx<'a> {
    path: &'a Path,
    data_start: u64,
    data_len: u64,
    chunk_bytes: u64,
    skip_blank_rows: bool,
    /// The whole data region, when it was read at once.
    whole: Option<&'a [u8]>,
    /// Known row starts (data offsets); `None` = the chunk walk finds them.
    starts: Option<&'a [u64]>,
    /// Keep the row starts the walk finds (for the positional map).
    keep_starts: bool,
    kernel: &'a Kernel<'a>,
    counters: &'a WorkCounters,
}

/// One worker's reusable state.
#[derive(Default)]
struct Worker {
    file: Option<File>,
    /// Data bytes `[base, base + buf.len())`.
    buf: Vec<u8>,
    base: u64,
    /// Rows of this worker's previous chunk: the next part's capacity.
    last_rows: usize,
    counters: LocalCounters,
}

/// One chunk's output.
struct Part {
    rows: usize,
    columns: Vec<ColumnData>,
    starts: Vec<u64>,
    offsets: Vec<Vec<u32>>,
    fault: Option<RowFault>,
}

/// A row that failed to parse: its row number within the chunk, and why.
struct RowFault {
    row: usize,
    kind: Fault,
}

enum Fault {
    Field { col: usize, msg: String },
    Short { fields: usize },
}

impl RowFault {
    /// The error [`scan_bytes`](crate::scan_bytes) reports, for a chunk
    /// whose first row is data row `first_row`.
    fn error(&self, first_row: usize, max_touch: usize) -> Error {
        let row = first_row + self.row;
        match &self.kind {
            Fault::Field { col, msg } => field_error(row, *col, msg),
            Fault::Short { fields } => short_row_error(row, *fields, max_touch),
        }
    }
}

impl Ctx<'_> {
    /// Load chunk `index`: the rows that start in its byte range.
    fn run_chunk(&self, w: &mut Worker, index: usize) -> Result<Part> {
        nodb_types::failpoints::trip("rawcsv.morsel")?;
        self.counters.add_morsels_dispatched(1);
        let c0 = index as u64 * self.chunk_bytes;
        let c1 = c0.saturating_add(self.chunk_bytes).min(self.data_len);
        let mut part = self.kernel.part(w.last_rows);
        nodb_types::failpoints::trip("rawcsv.phase1")?;
        match self.starts {
            Some(starts) => self.known_rows(w, starts, c0, c1, &mut part)?,
            None => self.walk_rows(w, c0, c1, &mut part)?,
        }
        w.last_rows = part.rows;
        Ok(part)
    }

    /// Rows from known starts: those that start in `[c0, c1)`.
    fn known_rows(
        &self,
        w: &mut Worker,
        starts: &[u64],
        c0: u64,
        c1: u64,
        part: &mut Part,
    ) -> Result<()> {
        let r0 = starts.partition_point(|&s| s < c0);
        let r1 = starts.partition_point(|&s| s < c1);
        if r0 == r1 {
            return Ok(());
        }
        let lo = starts[r0];
        let hi = starts.get(r1).copied().unwrap_or(self.data_len);
        let bytes = match self.whole {
            Some(whole) => &whole[lo as usize..hi as usize],
            None => {
                self.read(w, lo, hi)?;
                &w.buf[..]
            }
        };
        let mut cancel = CancelCheck::new();
        for row in r0..r1 {
            cancel.tick(1)?;
            let s = (starts[row] - lo) as usize;
            let e = (starts.get(row + 1).copied().unwrap_or(self.data_len) - lo) as usize;
            // A row's bytes run to the next row start: the field walk
            // stops at its terminator.
            if let Err(kind) = self.kernel.row(part, &bytes[s..e], row, &mut w.counters) {
                part.fault = Some(RowFault {
                    row: row - r0,
                    kind,
                });
                return Ok(());
            }
            part.rows += 1;
        }
        Ok(())
    }

    /// Rows found by the walk: the first one starts at or after `c0` just
    /// past a newline (or at 0); each runs through its newline. A row's
    /// bytes are passed once: its fields are walked up to `max_touch`,
    /// then its newline is looked for past them.
    fn walk_rows(&self, w: &mut Worker, c0: u64, c1: u64, part: &mut Part) -> Result<()> {
        let from = c0.saturating_sub(1);
        self.read(w, from, c1)?;
        let mut s = if c0 == 0 {
            0
        } else {
            match find_byte(&w.buf, b'\n') {
                Some(i) => from + i as u64 + 1,
                None => return Ok(()), // no row starts in this chunk
            }
        };
        // Every row starting before `limit` ends by it: `limit` is just
        // past the buffer's last newline, or the end of the data.
        let mut limit = newline_end(&w.buf);
        let mut step = EXTEND_BYTES;
        let mut cancel = CancelCheck::new();
        while s < c1 {
            cancel.tick(1)?;
            let rel = (s - w.base) as usize;
            while rel >= limit {
                // The row goes on past what is read: extend a little.
                let have = w.base + w.buf.len() as u64;
                if have >= self.data_len {
                    limit = w.buf.len();
                    break;
                }
                self.extend(w, have.saturating_add(step).min(self.data_len))?;
                step = step.saturating_mul(2);
                limit = newline_end(&w.buf);
            }
            let rowb = &w.buf[rel..limit];
            let len = match blank_len(rowb) {
                Some(len) if self.skip_blank_rows => len,
                _ => {
                    let fe = match self.kernel.row(part, rowb, part.rows, &mut w.counters) {
                        Ok(fe) => fe,
                        Err(kind) => {
                            part.fault = Some(RowFault {
                                row: part.rows,
                                kind,
                            });
                            return Ok(());
                        }
                    };
                    if self.keep_starts {
                        part.starts.push(s);
                    }
                    part.rows += 1;
                    find_byte(&rowb[fe..], b'\n').map_or(rowb.len(), |i| fe + i + 1)
                }
            };
            s += len as u64;
        }
        Ok(())
    }

    /// Make the worker's buffer hold data bytes `[from, to)`.
    fn read(&self, w: &mut Worker, from: u64, to: u64) -> Result<()> {
        w.buf.clear();
        w.base = from;
        // Room for one extension step too, so a row that runs past the
        // chunk's end rarely moves the buffer.
        let want = (to - from + EXTEND_BYTES) as usize;
        if w.buf.capacity() < want {
            let before = w.buf.capacity();
            w.buf.reserve_exact(want);
            charge_current(w.buf.capacity() - before)?;
        }
        self.extend(w, to)
    }

    /// Append data bytes up to `to` to the worker's buffer.
    fn extend(&self, w: &mut Worker, to: u64) -> Result<()> {
        let have = w.buf.len();
        let from = w.base + have as u64;
        let len = (to - from) as usize;
        let before = w.buf.capacity();
        w.buf.reserve(len);
        if w.buf.capacity() > before {
            charge_current(w.buf.capacity() - before)?;
        }
        let file = match &mut w.file {
            Some(f) => f,
            None => w.file.insert(File::open(self.path)?),
        };
        file.seek(SeekFrom::Start(self.data_start + from))?;
        file.take(len as u64).read_to_end(&mut w.buf)?;
        if w.buf.len() != have + len {
            return Err(file_changed(self.path));
        }
        self.counters.add_bytes_read(len as u64);
        Ok(())
    }
}

/// Index just past the last newline of `buf` (0 without one).
fn newline_end(buf: &[u8]) -> usize {
    buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// The length of the blank line `rest` starts with (nothing before its
/// line end, as phase 1 skips it), if it does. `rest` runs at least to
/// the line's newline, or is the end of the data.
fn blank_len(rest: &[u8]) -> Option<usize> {
    match rest {
        [b'\n', ..] | [b'\r'] => Some(1),
        [b'\r', b'\n', ..] => Some(2),
        _ => None,
    }
}

/// The per-row kernel every boundary source runs.
struct Kernel<'a> {
    delim: u8,
    quote: Option<u8>,
    lenient: bool,
    /// Type of each needed column, parallel to the spec's `needed`.
    types: Vec<DataType>,
    /// Ordinal → slot in `needed`.
    needed_slot: Vec<Option<usize>>,
    /// Columns whose offsets are recorded, ascending.
    record_cols: Vec<usize>,
    /// Ordinal → slot in `record_cols`.
    record_slot: Vec<Option<usize>>,
    max_touch: usize,
    /// Known field offsets a walk may start from, best (largest) first.
    hints: Vec<(usize, &'a [u32])>,
}

impl Kernel<'_> {
    fn part(&self, cap: usize) -> Part {
        Part {
            rows: 0,
            columns: self
                .types
                .iter()
                .map(|&ty| ColumnData::with_capacity(ty, cap))
                .collect(),
            starts: Vec::new(),
            offsets: self
                .record_cols
                .iter()
                .map(|_| Vec::with_capacity(cap))
                .collect(),
            fault: None,
        }
    }

    /// Walk one row (data row `row`) to `max_touch`, parsing the needed
    /// fields into the part's columns and recording offsets. `rowb` runs
    /// from the row's start at least to its line end; the walk stops at
    /// the first line end. Returns where the walk stopped.
    fn row(
        &self,
        part: &mut Part,
        rowb: &[u8],
        row: usize,
        local: &mut LocalCounters,
    ) -> std::result::Result<usize, Fault> {
        let (mut col, mut pos) = walk_start(&self.hints, row, rowb.len());
        for offs in &mut part.offsets {
            offs.push(UNKNOWN);
        }
        local.rows_tokenized += 1;
        loop {
            if let Some(slot) = self.record_slot[col] {
                *part.offsets[slot].last_mut().expect("pushed above") = pos as u32;
            }
            let fe = field_end(rowb, pos, self.delim, self.quote);
            local.fields_tokenized += 1;
            if let Some(slot) = self.needed_slot[col] {
                local.values_parsed += 1;
                push_field(&mut part.columns[slot], &rowb[pos..fe], self.quote).map_err(|e| {
                    Fault::Field {
                        col,
                        msg: e.to_string(),
                    }
                })?;
            }
            if col >= self.max_touch {
                return Ok(fe);
            }
            if rowb.get(fe) != Some(&self.delim) {
                // The row ended before max_touch.
                if !self.lenient {
                    return Err(Fault::Short { fields: col + 1 });
                }
                for slot in self.needed_slot[col + 1..].iter().flatten() {
                    push_null(&mut part.columns[*slot]);
                }
                return Ok(fe);
            }
            pos = fe + 1;
            col += 1;
        }
    }
}

/// Parse one field straight into its typed column.
fn push_field(col: &mut ColumnData, raw: &[u8], quote: Option<u8>) -> Result<()> {
    match col {
        ColumnData::Int64 { values, nulls } => {
            push_opt(values, nulls, parse_i64_field(raw, quote)?)
        }
        ColumnData::Float64 { values, nulls } => {
            push_opt(values, nulls, parse_f64_field(raw, quote)?)
        }
        ColumnData::Str { values, nulls } => {
            let v = match parse_field(raw, DataType::Str, quote)? {
                Value::Str(s) => Some(s),
                _ => None,
            };
            push_opt(values, nulls, v)
        }
    }
    Ok(())
}

fn push_null(col: &mut ColumnData) {
    match col {
        ColumnData::Int64 { values, nulls } => push_opt(values, nulls, None),
        ColumnData::Float64 { values, nulls } => push_opt(values, nulls, None),
        ColumnData::Str { values, nulls } => push_opt(values, nulls, None),
    }
}

/// Push a value or a NULL, as [`ColumnData::push`] lays them out: the
/// mask appears with the first NULL.
fn push_opt<T: Default>(values: &mut Vec<T>, nulls: &mut Option<Vec<bool>>, v: Option<T>) {
    match v {
        Some(x) => {
            values.push(x);
            if let Some(m) = nulls {
                m.push(false);
            }
        }
        None => {
            let n = values.len();
            values.push(T::default());
            nulls.get_or_insert_with(|| vec![false; n]).push(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::scan_bytes;
    use nodb_types::Field;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A file of `bytes` under a name no other test uses; removed on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(bytes: &[u8]) -> TempFile {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "nodb_load_{}_{}.csv",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, bytes).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Str),
            Field::new("j", DataType::Int64),
        ])
        .unwrap()
    }

    fn opts(threads: usize, quoted: bool, lenient: bool) -> CsvOptions {
        CsvOptions {
            threads,
            quote: quoted.then_some(b'"'),
            lenient,
            ..CsvOptions::default()
        }
    }

    /// Error kind and text, for comparing failures.
    fn describe(e: &Error) -> (std::mem::Discriminant<Error>, String) {
        (std::mem::discriminant(e), e.to_string())
    }

    /// Load `needed` from `file` (data after `header_len` bytes) with the
    /// loader and with `scan_bytes` over the same data bytes, each with
    /// its own positional map, and compare everything the two produce.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        file: &TempFile,
        header_len: usize,
        needed: &[usize],
        o: &CsvOptions,
        chunk_bytes: usize,
        pm_scan: &mut PositionalMap,
        pm_load: &mut PositionalMap,
    ) -> std::result::Result<(), TestCaseError> {
        let schema = schema();
        let bytes = std::fs::read(&file.0).unwrap();
        let (c_scan, c_load) = (WorkCounters::new(), WorkCounters::new());
        let serial = CsvOptions {
            threads: 1,
            ..o.clone()
        };
        let scanned = scan_bytes(
            &bytes[header_len..],
            &serial,
            &ScanSpec {
                schema: &schema,
                needed: needed.to_vec(),
                pushdown: None,
            },
            Some(pm_scan),
            &c_scan,
        );
        let loaded = load_columns(
            &LoadSpec {
                path: &file.0,
                data_start: header_len as u64,
                schema: &schema,
                needed,
                chunk_bytes,
            },
            o,
            Some(pm_load),
            &c_load,
        );
        let (scanned, mut loaded) = match (scanned, loaded) {
            (Ok(s), Ok(l)) => (s, l),
            (Err(a), Err(b)) => {
                prop_assert_eq!(describe(&b), describe(&a));
                return Ok(());
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "scan {:?} but load {:?}",
                    a.map(|s| s.rows_scanned),
                    b.map(|l| l.rows)
                )))
            }
        };
        prop_assert_eq!(loaded.rows, scanned.rows_scanned);
        for (i, c) in needed.iter().enumerate() {
            prop_assert_eq!(&loaded.columns[i], &scanned.columns[c], "column {}", c);
        }
        loaded.record_into(pm_load);
        prop_assert_eq!(pm_load.row_starts(), pm_scan.row_starts());
        prop_assert_eq!(pm_load.file_len(), pm_scan.file_len());
        prop_assert_eq!(pm_load.known_columns(), pm_scan.known_columns());
        for c in pm_scan.known_columns() {
            prop_assert_eq!(
                pm_load.col_offsets(c),
                pm_scan.col_offsets(c),
                "offsets {}",
                c
            );
        }
        let (s, l) = (c_scan.snapshot(), c_load.snapshot());
        prop_assert_eq!(l.rows_tokenized, s.rows_tokenized);
        prop_assert_eq!(l.fields_tokenized, s.fields_tokenized);
        prop_assert_eq!(l.values_parsed, s.values_parsed);
        Ok(())
    }

    /// One generated cell of column `col`.
    fn cell(col: usize, kind: u8, v: i16, quoted: bool, bad: bool) -> String {
        match (col, kind % 6) {
            (_, 0) => String::new(),
            (_, 1) => "  ".to_owned(),
            (1, _) => format!("{}", f64::from(v) / 4.0),
            (2, 2) => "é中🦀".to_owned(),
            (2, 3) if quoted => "\"x,\ny \"\"q\"\"\"".to_owned(),
            (2, _) => format!(" w{v} "),
            (_, 2) => format!(" {v}\t"),
            (_, 3) if bad => "1x".to_owned(),
            _ => v.to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48, // each case writes one small file and loads it twice
            .. ProptestConfig::default()
        })]

        /// The loader equals `scan_bytes` at every chunk size, from one
        /// byte up: rows straddle every boundary and outgrow a chunk; CRLF,
        /// blank lines, a missing final newline, NULL and whitespace
        /// fields, non-ASCII text, ragged rows (lenient and strict),
        /// unparsable fields and quoted newlines all come out the same,
        /// errors included. A second load of other columns then runs from
        /// the positional map the first one left, against a scan over the
        /// map `scan_bytes` left.
        #[test]
        fn loader_matches_scan_bytes_at_every_chunk_size(
            rows in proptest::collection::vec(
                (0usize..6, proptest::collection::vec((0u8..6, -300i16..300), 5)), 0..30),
            crlf in proptest::bool::ANY,
            blank_every in 0usize..5,
            trailing_newline in proptest::bool::ANY,
            header in proptest::bool::ANY,
            quoted in proptest::bool::ANY,
            lenient in proptest::bool::ANY,
            bad in proptest::bool::ANY,
            first in proptest::collection::vec(0usize..4, 1..3),
            second in proptest::collection::vec(0usize..4, 1..3),
            chunk_bytes in prop_oneof![1usize..9, 9usize..40, 40usize..400],
            threads in 1usize..4,
        ) {
            let eol = if crlf { "\r\n" } else { "\n" };
            let mut text = String::new();
            if header {
                text.push_str("i,f,s,j");
                text.push_str(eol);
            }
            let header_len = text.len();
            for (r, (width, cells)) in rows.iter().enumerate() {
                let fields: Vec<String> = cells[..*width]
                    .iter()
                    .enumerate()
                    .map(|(c, &(kind, v))| cell(c, kind, v, quoted, bad))
                    .collect();
                text.push_str(&fields.join(","));
                text.push_str(eol);
                if blank_every > 0 && r % blank_every == 0 {
                    text.push_str(eol);
                }
            }
            if !trailing_newline {
                let kept = text.trim_end_matches(['\r', '\n']).len();
                text.truncate(kept.max(header_len));
            }
            let file = TempFile::new(text.as_bytes());
            let o = opts(threads, quoted, lenient);
            let distinct = |mut v: Vec<usize>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let (mut pm_scan, mut pm_load) = (PositionalMap::new(), PositionalMap::new());
            for needed in [distinct(first), distinct(second)] {
                compare(&file, header_len, &needed, &o, chunk_bytes, &mut pm_scan, &mut pm_load)?;
            }
        }
    }

    fn load(text: &str, needed: &[usize], chunk_bytes: usize) -> Result<Loaded> {
        let file = TempFile::new(text.as_bytes());
        load_columns(
            &LoadSpec {
                path: &file.0,
                data_start: 0,
                schema: &Schema::ints(2),
                needed,
                chunk_bytes,
            },
            &opts(3, false, false),
            None,
            &WorkCounters::new(),
        )
    }

    #[test]
    fn parse_errors_name_the_global_row() {
        // Chunks of 4 bytes put the bad row in the fourth chunk, behind
        // chunks holding zero, one and two rows.
        let text = "1,1\n2,2\n3,3\nx,4\n5,5\n";
        let err = load(text, &[0, 1], 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error: row 3, column 0: parse error: invalid int64 \"x\""
        );
        let err = load("1,1\n2\n", &[1], 3).unwrap_err();
        assert!(err.to_string().contains("row 1 has only 1 fields"), "{err}");
    }

    #[test]
    fn a_row_longer_than_many_chunks_is_read_by_the_chunk_it_starts_in() {
        let wide = format!("{},7\n", "1".repeat(5000));
        let text = format!("3,4\n{wide}5,6");
        let big = load(&text, &[0], 1 << 20).unwrap_err();
        assert!(big.to_string().contains("invalid int64"), "{big}");
        let out = load(&text, &[1], 16).unwrap();
        assert_eq!(out.rows, 3);
        assert_eq!(out.columns[0], ColumnData::from_i64(vec![4, 7, 6]));
        assert!(out.chunks > 300);
    }

    #[test]
    fn an_empty_data_region_loads_no_rows() {
        let out = load("", &[0], 8).unwrap();
        assert_eq!((out.rows, out.chunks), (0, 0));
        assert_eq!(out.columns[0], ColumnData::from_i64(Vec::new()));
    }
}
