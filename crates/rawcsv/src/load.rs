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
//! Each part then goes into the final vectors exactly once, in chunk order,
//! under one lock: the chunk whose turn has come appends its part and every
//! part that a chunk above it parked by finishing first. No worker waits
//! for its turn, and drained parts are reused, so a value is written once
//! into a part and once into its column, and no stage copies it again.
//! A load of no column (a row count) needs no field: its chunks stream
//! through a small block, counting the rows and keeping their starts.
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

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

use nodb_types::profile::{self, Phase};
use nodb_types::resource::charge_current;
use nodb_types::{
    CancelCheck, ColumnData, DataType, Error, QueryContext, Result, Schema, WorkCounters,
};

use crate::bytes::find_byte;
use crate::posmap::{PositionalMap, UNKNOWN};
use crate::tokenizer::{
    decode_field, field_end, field_error, find_row_starts, hint_columns, parse_f64_field,
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
/// on up to `opts.threads` workers). With no column needed the pass only
/// counts the rows (and finds their starts for the map). `posmap` supplies
/// known row starts and field offsets and decides which offsets are worth
/// recording; it is not changed (see [`Loaded::record_into`]).
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
    let first_touch = touch.first().copied().unwrap_or(0);
    let max_touch = touch.last().copied().unwrap_or(0);

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

    let appender = Mutex::new(Appender::new(
        kernel.types.clone(),
        kernel.record_cols.len(),
        max_touch,
        chunks,
    ));
    let lock = || appender.lock().unwrap_or_else(|p| p.into_inner());
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
                let mut part = w.part.take().unwrap_or_else(|| lock().spare());
                ctx.run_chunk(w, r.index, &mut part)?;
                // The local row number stops the chunks above this one;
                // the appender makes it global once it reaches the part.
                let err = part.fault.as_ref().map(|f| f.error(0, max_touch));
                w.part = Some(lock().put(r.index, part)?);
                err.map_or(Ok(()), Err)
            },
            |w| w.counters.flush(counters),
        )
    };
    let appender = appender.into_inner().unwrap_or_else(|p| p.into_inner());
    let out = appender.finish(driven)?;

    if let Some(p) = sink {
        p.add_morsels(chunks as u64, out.rows as u64, data_len);
    }
    let row_starts = if ctx.keep_starts {
        Some(out.starts)
    } else {
        found.filter(|_| posmap.is_some())
    };
    Ok(Loaded {
        columns: out.columns,
        rows: out.rows as u64,
        chunks,
        data_len,
        row_starts,
        // No rows, no offsets: a scan over no rows records none either.
        offsets: if out.rows == 0 {
            Vec::new()
        } else {
            kernel
                .record_cols
                .iter()
                .copied()
                .zip(out.offsets)
                .collect()
        },
    })
}

/// The final vectors of one load, filled in chunk order under one lock.
///
/// A chunk's global row offset is known only once every chunk below it has
/// been walked, so no chunk can write its own range of the final vectors.
/// Instead the chunk whose turn it is appends its part, then every parked
/// successor in order; a chunk that finishes early parks its part and goes
/// on with a spare one. No worker ever waits for a turn. Drained parts are
/// kept for reuse, so after the first few chunks only the final vectors
/// touch fresh memory.
struct Appender {
    types: Vec<DataType>,
    recorded: usize,
    max_touch: usize,
    chunks: usize,
    /// The lowest chunk not appended yet.
    next: usize,
    /// Parts of chunks above `next` that finished first; `None` for a
    /// chunk without rows (its worker keeps its part).
    parked: BTreeMap<usize, Option<Part>>,
    /// Drained parts, empty with their capacity.
    free: Vec<Part>,
    /// Parts made so far (the rest were reused).
    made: usize,
    /// Rows of the largest part seen: a new part's capacity.
    part_rows: usize,
    /// Rows the final vectors have room for.
    room: usize,
    out: Part,
    /// The first faulting part in chunk order, its row made global; no
    /// part is appended after it.
    fault: Option<Error>,
}

impl Appender {
    fn new(types: Vec<DataType>, recorded: usize, max_touch: usize, chunks: usize) -> Appender {
        Appender {
            out: Part::new(&types, recorded, 0),
            types,
            recorded,
            max_touch,
            chunks,
            next: 0,
            parked: BTreeMap::new(),
            free: Vec::new(),
            made: 0,
            part_rows: 0,
            room: 0,
            fault: None,
        }
    }

    /// An empty part to fill: a drained one if there is one.
    fn spare(&mut self) -> Part {
        self.free.pop().unwrap_or_else(|| {
            self.made += 1;
            Part::new(&self.types, self.recorded, self.part_rows)
        })
    }

    /// Hand in chunk `index`'s filled part; returns an empty part to fill
    /// next (the same one, when it could be appended at once).
    fn put(&mut self, index: usize, mut part: Part) -> Result<Part> {
        self.part_rows = self.part_rows.max(part.rows);
        if index != self.next {
            if part.rows == 0 && part.fault.is_none() {
                self.parked.insert(index, None);
                return Ok(part);
            }
            self.parked.insert(index, Some(part));
            return Ok(self.spare());
        }
        self.append(&mut part)?;
        while let Some(parked) = self.parked.remove(&self.next) {
            match parked {
                Some(mut p) => {
                    self.append(&mut p)?;
                    self.free.push(p);
                }
                None => self.next += 1,
            }
        }
        Ok(part)
    }

    /// Append the part of chunk `next`, leaving it empty; a part with a
    /// fault records its error instead and stops the appends.
    fn append(&mut self, part: &mut Part) -> Result<()> {
        if let Some(f) = &part.fault {
            self.fault = Some(f.error(self.out.rows, self.max_touch));
            // The load fails: the part's rows go with it.
            *part = Part::new(&self.types, self.recorded, 0);
            return Ok(());
        }
        if self.out.rows + part.rows > self.room {
            // Room for this part's row count per chunk still to come: the
            // first part sizes the vectors once for the whole load.
            let more = part.rows * (self.chunks - self.next);
            self.out.reserve(more, !part.starts.is_empty());
            self.room = self.out.rows + more;
        }
        self.out.append_from(part)?;
        self.next += 1;
        Ok(())
    }

    /// The load's output, once the driver has returned `driven`. A parse
    /// error is the lowest faulting chunk's: every chunk below it was
    /// appended, so the appender has reached it and made its row global.
    fn finish(self, driven: Result<()>) -> Result<Part> {
        match (driven, self.fault) {
            (Err(Error::Parse(_)), Some(fault)) => Err(fault),
            (Err(e), _) => Err(e),
            (Ok(()), _) if self.next != self.chunks => {
                Err(Error::internal("load chunk result missing"))
            }
            (Ok(()), _) => Ok(self.out),
        }
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
    /// The empty part this worker's next chunk fills.
    part: Option<Part>,
    counters: LocalCounters,
}

/// One chunk's output; also the whole load's, once the parts are appended.
#[derive(Debug)]
struct Part {
    rows: usize,
    /// The needed columns, parallel to the spec's `needed`.
    columns: Vec<ColumnData>,
    /// Row starts, when the load keeps them.
    starts: Vec<u64>,
    /// Field offsets per recorded column, one per row.
    offsets: Vec<Vec<u32>>,
    fault: Option<RowFault>,
}

impl Part {
    fn new(types: &[DataType], recorded: usize, cap: usize) -> Part {
        Part {
            rows: 0,
            columns: types
                .iter()
                .map(|&ty| ColumnData::with_capacity(ty, cap))
                .collect(),
            starts: Vec::new(),
            offsets: (0..recorded).map(|_| Vec::with_capacity(cap)).collect(),
            fault: None,
        }
    }

    /// Make room for `rows` more rows in every vector (the row starts
    /// too, when `starts`). `rows` is an estimate: where the room cannot
    /// be had, the vectors grow as they are filled.
    fn reserve(&mut self, rows: usize, starts: bool) {
        for col in &mut self.columns {
            let _ = match col {
                ColumnData::Int64 { values, .. } => values.try_reserve_exact(rows),
                ColumnData::Float64 { values, .. } => values.try_reserve_exact(rows),
                ColumnData::Str { codes, .. } => codes.try_reserve_exact(rows),
            };
        }
        if starts {
            let _ = self.starts.try_reserve_exact(rows);
        }
        for offs in &mut self.offsets {
            let _ = offs.try_reserve_exact(rows);
        }
    }

    /// Move every row of `src` to the end of this part, leaving `src`
    /// empty with its capacity.
    fn append_from(&mut self, src: &mut Part) -> Result<()> {
        for (dst, col) in self.columns.iter_mut().zip(&mut src.columns) {
            dst.append_from(col)?;
        }
        self.starts.append(&mut src.starts);
        for (dst, offs) in self.offsets.iter_mut().zip(&mut src.offsets) {
            dst.append(offs);
        }
        self.rows += std::mem::take(&mut src.rows);
        Ok(())
    }
}

/// A row that failed to parse: its row number within the chunk, and why.
#[derive(Debug)]
struct RowFault {
    row: usize,
    kind: Fault,
}

#[derive(Debug)]
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
    /// Load chunk `index` into the empty `part`: the rows that start in
    /// its byte range.
    fn run_chunk(&self, w: &mut Worker, index: usize, part: &mut Part) -> Result<()> {
        nodb_types::failpoints::trip("rawcsv.morsel")?;
        self.counters.add_morsels_dispatched(1);
        let c0 = index as u64 * self.chunk_bytes;
        let c1 = c0.saturating_add(self.chunk_bytes).min(self.data_len);
        nodb_types::failpoints::trip("rawcsv.phase1")?;
        match self.starts {
            Some(starts) => self.known_rows(w, starts, c0, c1, part),
            None if self.kernel.counts_only() => self.count_rows(w, c0, c1, part),
            None => self.walk_rows(w, c0, c1, part),
        }
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
        if self.kernel.counts_only() {
            part.rows = r1 - r0;
            return Ok(());
        }
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

    /// Rows found without parsing any field: a row starts at 0 and past
    /// every newline, and only its start and whether its line is blank
    /// matter. So the chunk streams through a small block on the stack
    /// (each block read 2 bytes long, for the blank test of a row that
    /// starts at its end) and no chunk-sized buffer is held.
    fn count_rows(&self, w: &mut Worker, c0: u64, c1: u64, part: &mut Part) -> Result<()> {
        const BLOCK: u64 = 16 << 10;
        let mut block = [0u8; BLOCK as usize + 2];
        // A newline in `[lo, hi)` starts a row in `[c0, c1)`.
        let (lo, hi) = (c0.saturating_sub(1), c1 - 1);
        let mut cancel = CancelCheck::new();
        let mut at = lo;
        loop {
            let end = hi.min(at + BLOCK);
            let to = (end + 2).min(self.data_len);
            let bytes = &mut block[..(to - at) as usize];
            self.read_at(w, at, bytes)?;
            let mut row = |s: usize| {
                if s < bytes.len() && !(self.skip_blank_rows && blank_len(&bytes[s..]).is_some()) {
                    if self.keep_starts {
                        part.starts.push(at + s as u64);
                    }
                    part.rows += 1;
                }
            };
            if at == 0 && c0 == 0 {
                row(0);
            }
            let end = (end - at) as usize;
            let mut i = 0;
            while let Some(nl) = find_byte(&bytes[i..end], b'\n') {
                cancel.tick(1)?;
                row(i + nl + 1);
                i += nl + 1;
            }
            at += BLOCK;
            if at >= hi {
                return Ok(());
            }
        }
    }

    /// The worker's file, opened on first use, at data byte `at`.
    fn seek<'f>(&self, file: &'f mut Option<File>, at: u64) -> Result<&'f mut File> {
        let file = match file {
            Some(f) => f,
            None => file.insert(File::open(self.path)?),
        };
        file.seek(SeekFrom::Start(self.data_start + at))?;
        Ok(file)
    }

    /// Fill `buf` with the data bytes from `at` on.
    fn read_at(&self, w: &mut Worker, at: u64, buf: &mut [u8]) -> Result<()> {
        let file = self.seek(&mut w.file, at)?;
        file.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => file_changed(self.path),
            _ => e.into(),
        })?;
        self.counters.add_bytes_read(buf.len() as u64);
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
        let file = self.seek(&mut w.file, from)?;
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
    /// No column is needed: a row is only counted (and its start kept).
    fn counts_only(&self) -> bool {
        self.types.is_empty()
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
        ColumnData::Str { dict, codes, nulls } => {
            // An empty unquoted field is NULL; the text is interned
            // straight from the buffer, with no `String` per cell.
            let code = match raw.is_empty() {
                true => None,
                false => Some(Arc::make_mut(dict).intern(&decode_field(raw, quote)?)?),
            };
            push_opt(codes, nulls, code)
        }
    }
    Ok(())
}

fn push_null(col: &mut ColumnData) {
    match col {
        ColumnData::Int64 { values, nulls } => push_opt(values, nulls, None),
        ColumnData::Float64 { values, nulls } => push_opt(values, nulls, None),
        ColumnData::Str { codes, nulls, .. } => push_opt(codes, nulls, None),
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
    use nodb_types::{Field, Value};
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
            let (l, s) = (&loaded.columns[i], &scanned.columns[c]);
            prop_assert_eq!(l, s, "column {}", c);
            // Text parts merge into one dictionary in first-appearance
            // order: the very layout (and bytes) of a row-at-a-time build.
            prop_assert_eq!(l.approx_bytes(), s.approx_bytes(), "column {} bytes", c);
            if let (
                ColumnData::Str {
                    dict: ld,
                    codes: lc,
                    ..
                },
                ColumnData::Str {
                    dict: sd,
                    codes: sc,
                    ..
                },
            ) = (l, s)
            {
                prop_assert!(ld.entries().eq(sd.entries()), "column {} entries", c);
                prop_assert_eq!(lc, sc, "column {} codes", c);
            }
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
        /// errors included; a load of no column counts the same rows. A
        /// second load of other columns then runs from the positional map
        /// the first one left, against a scan over the map `scan_bytes`
        /// left.
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
            first in proptest::collection::vec(0usize..4, 0..3),
            second in proptest::collection::vec(0usize..4, 0..3),
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

    /// Chunk `chunk`'s part of a synthetic load: `rows[chunk]` rows whose
    /// values name their global row, a NULL in every third text cell.
    fn fill(part: &mut Part, rows: &[usize], chunk: usize) {
        let first: usize = rows[..chunk].iter().sum();
        for g in first..first + rows[chunk] {
            part.columns[0].push(Value::Int(g as i64)).unwrap();
            let text = (g % 3 != 0).then(|| Value::Str(format!("r{g}")));
            part.columns[1].push(text.unwrap_or(Value::Null)).unwrap();
            part.starts.push(g as u64 * 10);
            part.offsets[0].push(g as u32 % 7);
            part.rows += 1;
        }
    }

    /// Hand the chunks to an appender in `order`, the k-th on worker
    /// `k % workers` as the driver would, the chunk `fault` (if any)
    /// failing at its second row. Returns the result, the parts made and
    /// the most parts parked at once.
    fn append_in(
        order: &[usize],
        rows: &[usize],
        workers: usize,
        fault: Option<usize>,
    ) -> (Result<Part>, usize, usize) {
        let mut app = Appender::new(vec![DataType::Int64, DataType::Str], 1, 1, rows.len());
        let mut held: Vec<Option<Part>> = (0..workers).map(|_| None).collect();
        let mut most_parked = 0;
        let mut driven = Ok(());
        for (k, &chunk) in order.iter().enumerate() {
            let mut part = held[k % workers].take().unwrap_or_else(|| app.spare());
            assert_eq!(part.rows, 0, "a handed-out part is empty");
            fill(&mut part, rows, chunk);
            if fault == Some(chunk) {
                part.fault = Some(RowFault {
                    row: 1,
                    kind: Fault::Field {
                        col: 1,
                        msg: "bad".into(),
                    },
                });
                driven = Err(part.fault.as_ref().unwrap().error(0, 1));
            }
            held[k % workers] = Some(app.put(chunk, part).unwrap());
            let parked = app.parked.values().filter(|p| p.is_some()).count();
            most_parked = most_parked.max(parked);
        }
        let made = app.made;
        (app.finish(driven), made, most_parked)
    }

    /// Every order of 5 chunks.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, n - 1);
                all.push(q);
            }
        }
        all
    }

    #[test]
    fn the_appender_yields_chunk_order_whatever_order_chunks_finish_in() {
        let rows = [3, 0, 5, 2, 4];
        let total: usize = rows.iter().sum();
        let mut want = Part::new(&[DataType::Int64, DataType::Str], 1, 0);
        for chunk in 0..rows.len() {
            fill(&mut want, &rows, chunk);
        }
        let perms = permutations(rows.len());
        assert_eq!(perms.len(), 120);
        for order in &perms {
            for workers in 1..=3 {
                let (out, made, parked) = append_in(order, &rows, workers, None);
                let out = out.unwrap();
                assert_eq!(out.rows, total, "{order:?}");
                assert_eq!(out.columns, want.columns, "{order:?}");
                assert_eq!(out.starts, want.starts, "{order:?}");
                assert_eq!(out.offsets, want.offsets, "{order:?}");
                // Drained parts are reused: only the parts held by workers
                // or parked at once were ever made.
                assert!(made <= workers + parked, "{order:?}: {made} parts");

                // A fault in any chunk names its global row, however late
                // its part is reached.
                for bad in (0..rows.len()).filter(|&c| rows[c] >= 2) {
                    let (out, _, _) = append_in(order, &rows, workers, Some(bad));
                    let below: usize = rows[..bad].iter().sum();
                    let err = out.unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        field_error(below + 1, 1, "bad").to_string(),
                        "{order:?}"
                    );
                }

                // A chunk that failed outright leaves nothing returned:
                // the driver's error stands, and a missing part is an
                // internal error, never a short result.
                let short: Vec<usize> = order.iter().copied().filter(|&c| c != 2).collect();
                let (out, _, _) = append_in(&short, &rows, workers, None);
                assert!(matches!(out, Err(Error::Internal(_))), "{order:?}");
            }
        }
        let mut app = Appender::new(vec![DataType::Int64], 0, 0, 1);
        let mut part = app.spare();
        part.columns[0].push(Value::Int(1)).unwrap();
        part.rows = 1;
        app.put(0, part).unwrap();
        let cancelled = app.finish(Err(Error::Cancelled("stop".into())));
        assert!(matches!(cancelled, Err(Error::Cancelled(_))));
    }

    /// A load of no column streams its chunks through blocks far smaller
    /// than a chunk: line ends, blank lines and CRLF pairs fall on every
    /// block boundary in some case, and the rows and their starts equal
    /// `scan_bytes`'.
    #[test]
    fn a_row_count_over_many_blocks_equals_scan_bytes() {
        let mut text = String::from("i,f,s,j\r\n");
        let mut x = 7u64;
        while text.len() < 150_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let eol = if x >> 60 == 0 { "\r\n" } else { "\n" };
            match (x >> 33) % 9 {
                0 => text.push_str(eol),
                1 => text.push_str("\r\n"),
                n => text.push_str(&format!(
                    "{},1,{},2{eol}",
                    n,
                    "w".repeat((x >> 40) as usize % 90)
                )),
            }
        }
        for tail in ["", "\r", "\n", "5,5"] {
            let file = TempFile::new(format!("{text}{tail}").as_bytes());
            for chunk_bytes in [
                1000,
                (16 << 10) - 1,
                16 << 10,
                (16 << 10) + 1,
                40_000,
                1 << 20,
            ] {
                for threads in [1, 3] {
                    let (mut pm_scan, mut pm_load) = (PositionalMap::new(), PositionalMap::new());
                    compare(
                        &file,
                        9,
                        &[],
                        &opts(threads, false, false),
                        chunk_bytes,
                        &mut pm_scan,
                        &mut pm_load,
                    )
                    .unwrap();
                }
            }
        }
    }

    #[test]
    fn an_empty_data_region_loads_no_rows() {
        let out = load("", &[0], 8).unwrap();
        assert_eq!((out.rows, out.chunks), (0, 0));
        assert_eq!(out.columns[0], ColumnData::from_i64(Vec::new()));
    }
}
