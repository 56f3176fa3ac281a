//! The row tokenizer: one per-row kernel, run in one parallel pass.
//!
//! Every read of a raw file's rows runs the kernel here. [`load_columns`]
//! cuts the data region (`data_start..len`) into byte chunks and runs them
//! on the morsel driver. Each worker reads its chunk with plain file reads
//! into one buffer it reuses, finds the first row that starts in the
//! chunk, and then, in the same walk, records row starts, records field
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
//! (a chunk boundary may fall inside a quoted newline). [`scan_bytes`] runs
//! the same chunks over bytes already in memory, whose row starts it takes
//! from the map or from [`find_row_starts`].
//!
//! A load may push a conjunction down into the walk (paper §3.2: "we
//! abandon the tokenization of a row as soon as a predicate fails"). Each
//! column's predicates fold into one test, checked the moment its field is
//! parsed; the first failing test abandons the row. Until a row has passed
//! its last test, its values wait in one-row cells, so an abandoned row
//! leaves no value and no dictionary entry behind, and [`Loaded::take_rowids`]
//! names the rows that passed.
//!
//! Nothing is installed here. [`Loaded`] carries the columns plus what the
//! pass learned, and the caller records it once it knows the load is good.
//!
//! [`scan_bytes`]: crate::scan_bytes

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::{Arc, Mutex};

use nodb_types::profile::{self, Phase};
use nodb_types::resource::{charge_current, release_current};
use nodb_types::{
    CancelCheck, ColumnData, ColumnTest, Conjunction, DataType, Error, QueryContext, Result,
    Schema, ValueRef, WorkCounters,
};

use crate::bytes::find_byte;
use crate::posmap::{Offsets, PositionalMap, RowStarts, UNKNOWN};
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
    /// Predicates a row must pass to be loaded, tested during the walk.
    pub pushdown: Option<&'a Conjunction>,
}

/// A finished load, not yet installed anywhere.
#[derive(Debug)]
pub struct Loaded {
    /// The loaded columns, parallel to [`LoadSpec::needed`], one value per
    /// row that passed.
    pub columns: Vec<ColumnData>,
    /// The data rows that passed the pushdown (`None`: the load tested
    /// nothing).
    rowids: Option<Vec<u64>>,
    /// Data rows in the file.
    pub rows: u64,
    /// Chunks the data region was cut into.
    pub chunks: usize,
    data_len: u64,
    /// Row starts the load found (`None` when they came from the map or
    /// no map is kept).
    row_starts: Option<RowStarts>,
    /// Field offsets per recorded column, one per row.
    offsets: Vec<(usize, Offsets)>,
}

impl Loaded {
    /// The data rows that passed the pushdown, ascending: every row when
    /// the load tested nothing.
    pub fn take_rowids(&mut self) -> Vec<u64> {
        self.rowids
            .take()
            .unwrap_or_else(|| (0..self.rows).collect())
    }

    /// Write the row starts and field offsets this load learned into
    /// `posmap`.
    pub fn record_into(&mut self, posmap: &mut PositionalMap) {
        if let Some(starts) = self.row_starts.take() {
            posmap.set_row_starts(starts, self.data_len);
        }
        for (col, offs) in self.offsets.drain(..) {
            posmap.record_column(col, offs);
        }
    }
}

/// Load `spec.needed` of the rows that pass `spec.pushdown` in one
/// parallel pass over the file (chunks on up to `opts.threads` workers).
/// With no column needed and nothing to test the pass only counts the
/// rows (and finds their starts for the map). `posmap` supplies known row
/// starts and field offsets and decides which offsets are worth
/// recording; it is not changed (see [`Loaded::record_into`]).
///
/// Fails on the first field in row order that does not parse, or the
/// first short row in strict mode (naming its global data row), on
/// cancellation, and with [`Error::FileChanged`] when the file ends early
/// under the reads.
pub fn load_columns(
    spec: &LoadSpec<'_>,
    opts: &CsvOptions,
    posmap: Option<&PositionalMap>,
    counters: &WorkCounters,
) -> Result<Loaded> {
    let scan = ScanSpec {
        schema: spec.schema,
        needed: spec.needed.to_vec(),
        pushdown: spec.pushdown,
    };
    validate_spec(&scan)?;

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
            find_row_starts(bytes, opts, counters).map(|s| RowStarts::from_u64(s, data_len))
        })?),
        None => None,
    };

    // Only offsets that belong to the map's own rows can guide a walk.
    let kernel = Kernel::new(&scan, opts, posmap, mapped.is_some());
    let ctx = Ctx {
        path: spec.path,
        data_start,
        data_len,
        chunk_bytes: spec.chunk_bytes.max(1) as u64,
        skip_blank_rows: opts.skip_blank_rows,
        whole: whole.as_deref(),
        starts: mapped.as_deref().or(found.as_ref()),
        keep_starts: posmap.is_some() && mapped.is_none() && whole.is_none(),
        kernel: &kernel,
        counters,
    };
    let (mut out, chunks) = ctx.run(opts.threads)?;
    let row_starts = if ctx.keep_starts {
        Some(std::mem::take(&mut out.starts))
    } else {
        found.filter(|_| posmap.is_some())
    };
    Ok(kernel.loaded(out, chunks, data_len, row_starts))
}

/// The kernel over data `bytes` already in memory whose row `starts` are
/// known, in chunks of `chunk_bytes`: [`scan_bytes`](crate::scan_bytes)'s
/// phase 2. `spec.needed` is distinct. `posmap` (holding these row starts)
/// supplies hints and decides which offsets are recorded.
pub(crate) fn load_bytes(
    bytes: &[u8],
    starts: &RowStarts,
    spec: &ScanSpec<'_>,
    opts: &CsvOptions,
    chunk_bytes: usize,
    posmap: Option<&PositionalMap>,
    counters: &WorkCounters,
) -> Result<Loaded> {
    let kernel = Kernel::new(spec, opts, posmap, true);
    let data_len = bytes.len() as u64;
    let ctx = Ctx {
        // Bytes in memory are never read from a file.
        path: Path::new(""),
        data_start: 0,
        data_len,
        chunk_bytes: chunk_bytes.max(1) as u64,
        skip_blank_rows: opts.skip_blank_rows,
        whole: Some(bytes),
        starts: Some(starts),
        keep_starts: false,
        kernel: &kernel,
        counters,
    };
    let (out, chunks) = ctx.run(opts.threads)?;
    Ok(kernel.loaded(out, chunks, data_len, None))
}

/// The final vectors of one load, filled in chunk order under one lock.
///
/// A chunk's global row offset is known only once every chunk below it has
/// been walked, so no chunk can write its own range of the final vectors.
/// Instead the chunk whose turn it is appends its part, then every parked
/// successor in order; a chunk that finishes early parks its part and goes
/// on with a spare one. No worker ever waits for a turn. Drained parts are
/// kept for reuse, so after the first few chunks only the final vectors
/// touch fresh memory. The parts hold `u64` row starts and `u32` offsets,
/// so the walk never asks which width a value needs; each part is narrowed
/// to the map's widths as it goes into the output.
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
    out: Output,
    /// The first faulting part in chunk order, its row made global; no
    /// part is appended after it.
    fault: Option<Error>,
}

impl Appender {
    fn new(
        types: Vec<DataType>,
        recorded: usize,
        max_touch: usize,
        chunks: usize,
        data_len: u64,
    ) -> Appender {
        Appender {
            out: Output::new(&types, recorded, data_len),
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
            // Room for a part like this one per chunk still to come: the
            // first part sizes the vectors once for the whole load.
            let left = self.chunks - self.next;
            self.out.reserve_like(part, left);
            self.room = self.out.rows + part.rows * left;
        }
        self.out.append(part)?;
        self.next += 1;
        Ok(())
    }

    /// The load's output, once the driver has returned `driven`. A parse
    /// error is the lowest faulting chunk's: every chunk below it was
    /// appended, so the appender has reached it and made its row global.
    fn finish(self, driven: Result<()>) -> Result<Output> {
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

fn file_changed(path: &Path) -> Error {
    Error::FileChanged(format!("{} ended before its length", path.display()))
}

/// Shared read-only state of one load.
struct Ctx<'a> {
    /// The raw file, read only when `whole` is `None`.
    path: &'a Path,
    data_start: u64,
    data_len: u64,
    chunk_bytes: u64,
    skip_blank_rows: bool,
    /// The whole data region, when it is in memory.
    whole: Option<&'a [u8]>,
    /// Known row starts (data offsets); `None` = the chunk walk finds them.
    starts: Option<&'a RowStarts>,
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
    /// The value cells of the row under test (see [`Kernel::row`]).
    cells: Vec<Line<ColumnData>>,
    /// Bytes of `buf` charged to the query's memory guard, released once
    /// the worker is done.
    charged: usize,
    counters: LocalCounters,
}

/// One chunk's output; also the whole load's, once the parts are appended.
#[derive(Debug)]
struct Part {
    /// Rows walked, passed or not.
    rows: usize,
    /// The needed columns, parallel to the spec's `needed`.
    columns: Vec<Line<ColumnData>>,
    /// The rows that passed a pushdown, counted from the part's first.
    rowids: Vec<u64>,
    /// Row starts, when the load keeps them.
    starts: Vec<u64>,
    /// Field offsets per recorded column, one per row.
    offsets: Vec<Line<Vec<u32>>>,
    fault: Option<RowFault>,
}

impl Part {
    fn new(types: &[DataType], recorded: usize, cap: usize) -> Part {
        Part {
            rows: 0,
            columns: types
                .iter()
                .map(|&ty| Line(ColumnData::with_capacity(ty, cap)))
                .collect(),
            rowids: Vec::new(),
            starts: Vec::new(),
            offsets: (0..recorded)
                .map(|_| Line(Vec::with_capacity(cap)))
                .collect(),
            fault: None,
        }
    }
}

/// One value on cache lines of its own. The walk changes a part's vector
/// headers (pointer, capacity, length) on every row; packed into a small
/// heap array, they could share a cache line with the part another worker
/// fills, and each row would then take the line from the other core. That
/// once made a two-worker load's walk half again as slow, depending only on
/// where the allocator put the arrays.
#[derive(Debug)]
#[repr(align(64))]
struct Line<T>(T);

impl<T> Deref for Line<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Line<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The whole load's output: every part appended in chunk order, its row
/// starts and offsets at the positional map's widths.
#[derive(Debug)]
struct Output {
    rows: usize,
    columns: Vec<ColumnData>,
    rowids: Vec<u64>,
    starts: RowStarts,
    offsets: Vec<Offsets>,
}

impl Output {
    fn new(types: &[DataType], recorded: usize, data_len: u64) -> Output {
        Output {
            rows: 0,
            columns: types.iter().map(|&ty| ColumnData::empty(ty)).collect(),
            rowids: Vec::new(),
            starts: RowStarts::for_len(data_len),
            offsets: (0..recorded).map(|_| Offsets::default()).collect(),
        }
    }

    /// Make room in every vector for `times` more parts the size of
    /// `part`. An estimate: where the room cannot be had, the vectors
    /// grow as they are filled.
    fn reserve_like(&mut self, part: &Part, times: usize) {
        for (col, like) in self.columns.iter_mut().zip(&part.columns) {
            let n = like.len() * times;
            let _ = match col {
                ColumnData::Int64 { values, .. } => values.try_reserve_exact(n),
                ColumnData::Float64 { values, .. } => values.try_reserve_exact(n),
                ColumnData::Str { codes, .. } => codes.try_reserve_exact(n),
            };
        }
        let _ = self.rowids.try_reserve_exact(part.rowids.len() * times);
        self.starts.try_reserve(part.starts.len() * times);
        for (offs, like) in self.offsets.iter_mut().zip(&part.offsets) {
            offs.try_reserve(like.len() * times);
        }
    }

    /// Move every row of `src` to the end of the output, leaving `src`
    /// empty with its capacity.
    fn append(&mut self, src: &mut Part) -> Result<()> {
        for (dst, col) in self.columns.iter_mut().zip(&mut src.columns) {
            dst.append_from(col)?;
        }
        let base = self.rows as u64;
        self.rowids.extend(src.rowids.drain(..).map(|r| base + r));
        self.starts.extend(&src.starts);
        src.starts.clear();
        for (dst, offs) in self.offsets.iter_mut().zip(&mut src.offsets) {
            dst.extend(offs);
            offs.clear();
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
    /// The error of the fault, for a chunk whose first row is data row
    /// `first_row`.
    fn error(&self, first_row: usize, max_touch: usize) -> Error {
        let row = first_row + self.row;
        match &self.kind {
            Fault::Field { col, msg } => field_error(row, *col, msg),
            Fault::Short { fields } => short_row_error(row, *fields, max_touch),
        }
    }
}

impl Ctx<'_> {
    /// Run every chunk on up to `threads` workers; returns the appended
    /// output and the number of chunks.
    fn run(&self, threads: usize) -> Result<(Output, usize)> {
        let chunks = usize::try_from(self.data_len.div_ceil(self.chunk_bytes))
            .map_err(|_| Error::exec("too many load chunks"))?;
        let kernel = self.kernel;
        let appender = Mutex::new(Appender::new(
            kernel.types.clone(),
            kernel.record_cols.len(),
            kernel.max_touch,
            chunks,
            self.data_len,
        ));
        let lock = || appender.lock().unwrap_or_else(|p| p.into_inner());
        // Chunk items are bytes, not rows: the driver runs unprofiled, and
        // the rows and bytes are folded into the caller's profile once at
        // the end.
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
                threads,
                |_worker| Worker {
                    cells: kernel
                        .types
                        .iter()
                        .map(|&ty| Line(ColumnData::empty(ty)))
                        .collect(),
                    ..Worker::default()
                },
                |w, _worker, r| {
                    let mut part = w.part.take().unwrap_or_else(|| lock().spare());
                    self.run_chunk(w, r.index, &mut part)?;
                    // The local row number stops the chunks above this one;
                    // the appender makes it global once it reaches the part.
                    let err = part.fault.as_ref().map(|f| f.error(0, kernel.max_touch));
                    w.part = Some(lock().put(r.index, part)?);
                    err.map_or(Ok(()), Err)
                },
                |w| {
                    w.counters.flush(self.counters);
                    // The buffer goes with the worker.
                    release_current(w.charged);
                },
            )
        };
        let appender = appender.into_inner().unwrap_or_else(|p| p.into_inner());
        let out = appender.finish(driven)?;
        if let Some(p) = sink {
            p.add_morsels(chunks as u64, out.rows as u64, self.data_len);
        }
        Ok((out, chunks))
    }

    /// Load chunk `index` into the empty `part`: the rows that start in
    /// its byte range.
    fn run_chunk(&self, w: &mut Worker, index: usize, part: &mut Part) -> Result<()> {
        nodb_types::failpoints::trip("rawcsv.morsel")?;
        self.counters.add_morsels_dispatched(1);
        let c0 = index as u64 * self.chunk_bytes;
        let c1 = c0.saturating_add(self.chunk_bytes).min(self.data_len);
        nodb_types::failpoints::trip("rawcsv.phase1")?;
        match self.starts {
            Some(RowStarts::U32(starts)) => self.known_rows(w, starts, c0, c1, part),
            Some(RowStarts::U64(starts)) => self.known_rows(w, starts, c0, c1, part),
            None if self.kernel.counts_only() => self.count_rows(w, c0, c1, part),
            None => self.walk_rows(w, c0, c1, part),
        }
    }

    /// Rows from known starts: those that start in `[c0, c1)`.
    fn known_rows<S: Copy>(
        &self,
        w: &mut Worker,
        starts: &[S],
        c0: u64,
        c1: u64,
        part: &mut Part,
    ) -> Result<()>
    where
        u64: From<S>,
    {
        let start = |row: usize| starts.get(row).map_or(self.data_len, |&s| u64::from(s));
        let r0 = starts.partition_point(|&s| u64::from(s) < c0);
        let r1 = starts.partition_point(|&s| u64::from(s) < c1);
        if self.kernel.counts_only() {
            part.rows = r1 - r0;
            return Ok(());
        }
        if r0 == r1 {
            return Ok(());
        }
        let (lo, hi) = (start(r0), start(r1));
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
            let s = (start(row) - lo) as usize;
            let e = (start(row + 1) - lo) as usize;
            // A row's bytes run to the next row start: the field walk
            // stops at its terminator.
            let rowb = &bytes[s..e];
            if let Err(kind) = self
                .kernel
                .row(part, &mut w.cells, rowb, row, &mut w.counters)
            {
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
    /// bytes are passed once: its fields are walked up to `max_touch`
    /// (or to its first failing test), then its newline is looked for
    /// past them.
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
                    let row = part.rows;
                    let fe = match self
                        .kernel
                        .row(part, &mut w.cells, rowb, row, &mut w.counters)
                    {
                        Ok(fe) => fe,
                        Err(kind) => {
                            part.fault = Some(RowFault { row, kind });
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
            let grown = w.buf.capacity() - before;
            charge_current(grown)?;
            w.charged += grown;
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
            let grown = w.buf.capacity() - before;
            charge_current(grown)?;
            w.charged += grown;
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

/// What the walk does at one column ordinal, looked up once per field.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    /// Slot in `record_cols`: the field's start is recorded.
    record: Option<usize>,
    field: Use,
}

/// What the walk does with one field's value.
#[derive(Debug, Clone, Copy, Default)]
enum Use {
    /// Nothing: the field is only passed.
    #[default]
    Skip,
    /// Parse it into needed column `slot`.
    Value(usize),
    /// Parse it and ask test `t`, keeping nothing.
    Test(usize),
    /// Parse it into needed column `slot`, then ask test `t` of it.
    Both(usize, usize),
}

/// The per-row kernel every load and scan runs.
struct Kernel<'a> {
    delim: u8,
    quote: Option<u8>,
    lenient: bool,
    /// Type of each needed column, in the spec's order.
    types: Vec<DataType>,
    /// Ordinal → what the walk does there, for ordinals up to `max_touch`.
    steps: Vec<Step>,
    /// One test per pushdown column: its type and its predicates folded.
    tests: Vec<(DataType, ColumnTest)>,
    /// Columns whose offsets are recorded, ascending.
    record_cols: Vec<usize>,
    max_touch: usize,
    /// Known field offsets a walk may start from, best (largest) first.
    hints: Vec<(usize, &'a Offsets)>,
}

impl<'a> Kernel<'a> {
    /// The kernel of the validated `spec`. `posmap` decides which offsets
    /// are recorded and, when `hinted`, supplies the hints.
    fn new(
        spec: &ScanSpec<'_>,
        opts: &CsvOptions,
        posmap: Option<&'a PositionalMap>,
        hinted: bool,
    ) -> Kernel<'a> {
        let touch = touch_plan(spec);
        let max_touch = touch.last().copied().unwrap_or(0);
        let record_cols = record_columns(posmap, max_touch);
        let mut steps = vec![Step::default(); max_touch + 1];
        for (slot, &c) in record_cols.iter().enumerate() {
            steps[c].record = Some(slot);
        }
        let ty = |c: usize| spec.schema.field(c).expect("validated").data_type;
        for (slot, &c) in spec.needed.iter().enumerate() {
            steps[c].field = Use::Value(slot);
        }
        let mut tests = Vec::new();
        if let Some(p) = spec.pushdown {
            for c in p.columns() {
                let field = &mut steps[c].field;
                *field = match *field {
                    Use::Value(slot) => Use::Both(slot, tests.len()),
                    _ => Use::Test(tests.len()),
                };
                tests.push((ty(c), ColumnTest::fold(ty(c), p.preds_on(c))));
            }
        }
        Kernel {
            delim: opts.delimiter,
            quote: opts.quote,
            lenient: opts.lenient,
            types: spec.needed.iter().map(|&c| ty(c)).collect(),
            steps,
            tests,
            record_cols,
            max_touch,
            hints: match (posmap, hinted) {
                (Some(m), true) => hint_columns(m, touch.first().copied().unwrap_or(0)),
                _ => Vec::new(),
            },
        }
    }

    /// No field is parsed: a row is only counted (and its start kept).
    fn counts_only(&self) -> bool {
        self.types.is_empty() && self.tests.is_empty()
    }

    /// The load's output from the appended `out`.
    fn loaded(
        &self,
        out: Output,
        chunks: usize,
        data_len: u64,
        row_starts: Option<RowStarts>,
    ) -> Loaded {
        Loaded {
            columns: out.columns,
            rowids: (!self.tests.is_empty()).then_some(out.rowids),
            rows: out.rows as u64,
            chunks,
            data_len,
            row_starts,
            // No rows, no offsets: a scan over no rows records none either.
            offsets: if out.rows == 0 {
                Vec::new()
            } else {
                self.record_cols.iter().copied().zip(out.offsets).collect()
            },
        }
    }

    /// Walk one row (data row `row`, the part's next) into the part. With
    /// no pushdown the values go straight into the part's columns. With
    /// one they go into the worker's one-row `cells` first, and move into
    /// the columns only once the row has passed every test; the cells are
    /// left empty either way. Returns where the walk stopped.
    fn row(
        &self,
        part: &mut Part,
        cells: &mut [Line<ColumnData>],
        rowb: &[u8],
        row: usize,
        local: &mut LocalCounters,
    ) -> std::result::Result<usize, Fault> {
        if self.tests.is_empty() {
            let walked = self.walk(&mut part.columns, &mut part.offsets, rowb, row, local);
            return walked.map(|(end, _)| end);
        }
        let walked = self.walk(cells, &mut part.offsets, rowb, row, local);
        if let Ok((_, true)) = walked {
            // Moving the values out leaves the cells empty.
            for (col, cell) in part.columns.iter_mut().zip(cells.iter_mut()) {
                col.append_from(cell).expect("a cell has its column's type");
            }
            part.rowids.push(part.rows as u64);
        } else {
            if let Ok((_, false)) = walked {
                local.rows_abandoned += 1;
            }
            cells.iter_mut().for_each(|c| clear(c));
        }
        walked.map(|(end, _)| end)
    }

    /// Walk one row to `max_touch`, recording offsets and parsing each
    /// value field into `cols`, and stop at the first failing test.
    /// `rowb` runs from the row's start at least to its line end; the
    /// walk stops at the first line end. Returns where the walk stopped
    /// and whether the row passed.
    fn walk(
        &self,
        cols: &mut [Line<ColumnData>],
        offsets: &mut [Line<Vec<u32>>],
        rowb: &[u8],
        row: usize,
        local: &mut LocalCounters,
    ) -> std::result::Result<(usize, bool), Fault> {
        let (mut col, mut pos) = walk_start(&self.hints, row, rowb.len());
        for offs in offsets.iter_mut() {
            offs.push(UNKNOWN);
        }
        local.rows_tokenized += 1;
        loop {
            let step = self.steps[col];
            if let Some(slot) = step.record {
                *offsets[slot].last_mut().expect("pushed above") = pos as u32;
            }
            let fe = field_end(rowb, pos, self.delim, self.quote);
            local.fields_tokenized += 1;
            let raw = &rowb[pos..fe];
            let field_fault = |e: Error| Fault::Field {
                col,
                msg: e.to_string(),
            };
            match step.field {
                Use::Skip => {}
                Use::Value(slot) => {
                    local.values_parsed += 1;
                    push_field(&mut cols[slot], raw, self.quote).map_err(field_fault)?;
                }
                Use::Test(t) => {
                    local.values_parsed += 1;
                    let (ty, test) = &self.tests[t];
                    if !passes(*ty, test, raw, self.quote).map_err(field_fault)? {
                        return Ok((fe, false));
                    }
                }
                Use::Both(slot, t) => {
                    local.values_parsed += 1;
                    push_field(&mut cols[slot], raw, self.quote).map_err(field_fault)?;
                    // The row's one value: the cells were empty.
                    if !self.tests[t].1.matches(cols[slot].get_ref(0)) {
                        return Ok((fe, false));
                    }
                }
            }
            if col >= self.max_touch {
                return Ok((fe, true));
            }
            if rowb.get(fe) != Some(&self.delim) {
                // The row ended before max_touch: its missing fields are
                // NULLs, which no test passes.
                if !self.lenient {
                    return Err(Fault::Short { fields: col + 1 });
                }
                let missing = &self.steps[col + 1..];
                if missing
                    .iter()
                    .any(|s| matches!(s.field, Use::Test(_) | Use::Both(..)))
                {
                    return Ok((fe, false));
                }
                for s in missing {
                    if let Use::Value(slot) = s.field {
                        push_null(&mut cols[slot]);
                    }
                }
                return Ok((fe, true));
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

/// Parse one field and ask `test` of it, keeping nothing. A NULL never
/// passes.
fn passes(ty: DataType, test: &ColumnTest, raw: &[u8], quote: Option<u8>) -> Result<bool> {
    Ok(match ty {
        DataType::Int64 => parse_i64_field(raw, quote)?.is_some_and(|x| test.matches_i64(x)),
        DataType::Float64 => parse_f64_field(raw, quote)?.is_some_and(|x| test.matches_f64(x)),
        // An empty unquoted field is NULL.
        DataType::Str => !raw.is_empty() && test.matches(ValueRef::Str(&decode_field(raw, quote)?)),
    })
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

/// Empty a row's cell, keeping its allocations.
fn clear(cell: &mut ColumnData) {
    match cell {
        ColumnData::Int64 { values, nulls } => {
            values.clear();
            *nulls = None;
        }
        ColumnData::Float64 { values, nulls } => {
            values.clear();
            *nulls = None;
        }
        ColumnData::Str { dict, codes, nulls } => {
            codes.clear();
            *nulls = None;
            Arc::make_mut(dict).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::scan_bytes;
    use nodb_types::{CmpOp, ColPred, Field, Value};
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

    /// What a read of a table returns: the needed columns' values of the
    /// rows that passed, their row ids, the data rows and the rows
    /// abandoned.
    struct Reference {
        columns: Vec<Vec<Value>>,
        rowids: Vec<u64>,
        rows: u64,
        abandoned: u64,
    }

    /// A deliberately naive reader, one row at a time and one byte at a
    /// time: rows end at a newline outside quotes (one `\r` before it
    /// dropped, blank rows skipped), fields at a comma outside quotes;
    /// each needed or tested field of a row, in column order, is
    /// unquoted and parsed with `str::parse`, and the row is dropped at
    /// the first predicate (`ColPred::matches`) it fails. A missing field
    /// is NULL in lenient mode and an error otherwise. Returns the first
    /// error in that order, with the tokenizer's texts.
    fn reference(
        data: &[u8],
        o: &CsvOptions,
        schema: &Schema,
        needed: &[usize],
        pushdown: Option<&Conjunction>,
    ) -> Result<Reference> {
        let split = |bytes: &[u8], at: u8| {
            let mut parts = vec![Vec::new()];
            let mut quoted = false;
            for &b in bytes {
                if Some(b) == o.quote {
                    quoted = !quoted;
                }
                if b == at && !quoted {
                    parts.push(Vec::new());
                } else {
                    parts.last_mut().unwrap().push(b);
                }
            }
            parts
        };
        let preds = |c: usize| pushdown.into_iter().flat_map(move |p| p.preds_on(c));
        let last = needed
            .iter()
            .copied()
            .chain(pushdown.map_or_else(Vec::new, Conjunction::columns))
            .max();
        let mut out = Reference {
            columns: vec![Vec::new(); needed.len()],
            rowids: Vec::new(),
            rows: 0,
            abandoned: 0,
        };
        let lines = split(data, b'\n').into_iter().map(|mut line| {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            line
        });
        for (r, line) in lines.filter(|l| !l.is_empty()).enumerate() {
            out.rows += 1;
            let Some(last) = last else {
                out.rowids.push(r as u64);
                continue;
            };
            let fields = split(&line, b',');
            let mut values = vec![Value::Null; last + 1];
            let mut passed = true;
            for (c, value) in values.iter_mut().enumerate() {
                let tested = preds(c).next().is_some();
                if c >= fields.len() && !o.lenient {
                    return Err(Error::parse(format!(
                        "row {r} has only {} fields but column {last} was referenced \
                         (enable lenient mode to read short rows as NULLs)",
                        fields.len()
                    )));
                }
                if c < fields.len() && (tested || needed.contains(&c)) {
                    let ty = schema.field(c).unwrap().data_type;
                    *value = reference_value(&fields[c], ty, o.quote).map_err(|msg| {
                        Error::parse(format!("row {r}, column {c}: parse error: {msg}"))
                    })?;
                }
                if !preds(c).all(|p| p.matches(value)) {
                    passed = false;
                    break;
                }
            }
            if passed {
                for (col, &c) in out.columns.iter_mut().zip(needed) {
                    col.push(values[c].clone());
                }
                out.rowids.push(r as u64);
            } else {
                out.abandoned += 1;
            }
        }
        Ok(out)
    }

    /// One field's value: quotes stripped and `""` unescaped; an empty
    /// field is NULL, and so is a number of only whitespace.
    fn reference_value(
        raw: &[u8],
        ty: DataType,
        quote: Option<u8>,
    ) -> std::result::Result<Value, String> {
        let mut bytes = raw.to_vec();
        if let Some(q) = quote.filter(|q| raw.first() == Some(q)) {
            bytes.remove(0);
            if bytes.last() == Some(&q) {
                bytes.pop();
            }
            let q = char::from(q).to_string();
            let text = String::from_utf8(bytes).unwrap().replace(&q.repeat(2), &q);
            bytes = text.into_bytes();
        }
        let text = String::from_utf8(bytes).unwrap();
        let t = text.trim();
        Ok(match ty {
            _ if raw.is_empty() => Value::Null,
            DataType::Str => Value::Str(text),
            _ if t.is_empty() => Value::Null,
            DataType::Int64 => Value::Int(t.parse().map_err(|_| format!("invalid int64 {t:?}"))?),
            DataType::Float64 => Value::Float(
                t.parse()
                    .map_err(|e| format!("invalid float64 {t:?}: {e}"))?,
            ),
        })
    }

    /// Read `needed` of the rows passing `pushdown` from `file` (data
    /// after `header_len` bytes) with the loader, with `scan_bytes` over
    /// the same data bytes (each with its own positional map) and with
    /// the naive [`reference`], and compare everything they produce:
    /// columns, dictionaries, row ids, row counts, abandoned rows and
    /// error kind and text; between the loader and `scan_bytes` also the
    /// positional maps and the work counters.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        file: &TempFile,
        header_len: usize,
        needed: &[usize],
        pushdown: Option<&Conjunction>,
        o: &CsvOptions,
        chunk_bytes: usize,
        pm_scan: &mut PositionalMap,
        pm_load: &mut PositionalMap,
    ) -> std::result::Result<(), TestCaseError> {
        let schema = schema();
        let bytes = std::fs::read(&file.0).unwrap();
        let (c_scan, c_load) = (WorkCounters::new(), WorkCounters::new());
        let want = reference(&bytes[header_len..], o, &schema, needed, pushdown);
        let scanned = scan_bytes(
            &bytes[header_len..],
            o,
            &ScanSpec {
                schema: &schema,
                needed: needed.to_vec(),
                pushdown,
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
                pushdown,
            },
            o,
            Some(pm_load),
            &c_load,
        );
        let (want, scanned, mut loaded) = match (want, scanned, loaded) {
            (Ok(w), Ok(s), Ok(l)) => (w, s, l),
            (Err(w), Err(s), Err(l)) => {
                prop_assert_eq!(describe(&s), describe(&w));
                prop_assert_eq!(describe(&l), describe(&w));
                return Ok(());
            }
            (w, s, l) => {
                return Err(TestCaseError::fail(format!(
                    "reference {:?}, scan {:?}, load {:?}",
                    w.map(|w| w.rows),
                    s.map(|s| s.rows_scanned),
                    l.map(|l| l.rows)
                )))
            }
        };
        prop_assert_eq!(scanned.rows_scanned, want.rows);
        prop_assert_eq!(loaded.rows, want.rows);
        prop_assert_eq!(&scanned.rowids, &want.rowids);
        prop_assert_eq!(&loaded.take_rowids(), &want.rowids);
        for (i, &c) in needed.iter().enumerate() {
            let ty = schema.field(c).unwrap().data_type;
            // A row-at-a-time build: NULL mask and dictionary hold only
            // what the rows that passed put there.
            let w = ColumnData::from_values(ty, want.columns[i].iter().cloned()).unwrap();
            for (l, who) in [(&loaded.columns[i], "load"), (&scanned.columns[&c], "scan")] {
                prop_assert_eq!(l, &w, "{} column {}", who, c);
                prop_assert_eq!(
                    l.approx_bytes(),
                    w.approx_bytes(),
                    "{} column {} bytes",
                    who,
                    c
                );
                if let (
                    ColumnData::Str {
                        dict: ld,
                        codes: lc,
                        ..
                    },
                    ColumnData::Str {
                        dict: wd,
                        codes: wc,
                        ..
                    },
                ) = (l, &w)
                {
                    prop_assert!(
                        ld.entries().eq(wd.entries()),
                        "{} column {} entries",
                        who,
                        c
                    );
                    prop_assert_eq!(lc, wc, "{} column {} codes", who, c);
                }
            }
        }
        loaded.record_into(pm_load);
        prop_assert_eq!(pm_load.row_starts(), pm_scan.row_starts());
        prop_assert_eq!(pm_load.approx_bytes(), pm_scan.approx_bytes());
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
        prop_assert_eq!(l.rows_abandoned, want.abandoned);
        prop_assert_eq!(s.rows_abandoned, want.abandoned);
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

        /// The loader and `scan_bytes` equal the naive reference at every
        /// chunk size, from one byte up: rows straddle every boundary and
        /// outgrow a chunk; CRLF, blank lines, a missing final newline,
        /// NULL and whitespace fields, non-ASCII text, ragged rows
        /// (lenient and strict), unparsable fields and quoted newlines
        /// all come out the same, errors included; a load of no column
        /// counts the same rows. A drawn pushdown (ranges, `=` and `<>`
        /// on every column type, often on a column past the needed ones)
        /// keeps the same rows, abandons the same ones and leaves no
        /// trace of them. A second load of other columns then runs from
        /// the positional map the first one left, against a scan over the
        /// map `scan_bytes` left. A last row longer than 255 B or 64 KiB
        /// makes the loader widen offsets that earlier chunks put in
        /// narrow; the maps come out equal, bytes held included.
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
            preds in proptest::collection::vec((0usize..4, 0usize..6, 0usize..30), 0..3),
            long in 0usize..4,
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
            // Leading blanks in `i` read as NULL and push every later
            // field's offset past `u8` or `u16`.
            let pad = [0, 0, 300, 70_000][long];
            if pad > 0 {
                text.push_str(&format!("{}7,0.5, w7 ,9{eol}", " ".repeat(pad)));
            }
            if !trailing_newline {
                let kept = text.trim_end_matches(['\r', '\n']).len();
                text.truncate(kept.max(header_len));
            }
            let file = TempFile::new(text.as_bytes());
            let o = opts(threads, quoted, lenient);
            // Literals from the table's own cells, so `=` finds rows.
            let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
            let conj = Conjunction::new(
                preds
                    .iter()
                    .map(|&(col, op, pick)| {
                        let v = rows.get(pick % rows.len().max(1)).map_or(0, |r| r.1[col].1);
                        let literal = match col {
                            1 => Value::Float(f64::from(v) / 4.0),
                            2 => Value::Str(format!(" w{v} ")),
                            _ => Value::Int(i64::from(v)),
                        };
                        ColPred::new(col, ops[op], literal)
                    })
                    .collect(),
            );
            let pushdown = (!preds.is_empty()).then_some(&conj);
            let distinct = |mut v: Vec<usize>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let (mut pm_scan, mut pm_load) = (PositionalMap::new(), PositionalMap::new());
            for needed in [distinct(first), distinct(second)] {
                compare(
                    &file, header_len, &needed, pushdown, &o, chunk_bytes, &mut pm_scan,
                    &mut pm_load,
                )?;
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
                pushdown: None,
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
    /// values name their global row, a NULL in every third text cell, a
    /// hole in every fourth offset and offsets past `u8` in chunk 3.
    fn fill(part: &mut Part, rows: &[usize], chunk: usize) {
        let first: usize = rows[..chunk].iter().sum();
        for g in first..first + rows[chunk] {
            part.columns[0].push(Value::Int(g as i64)).unwrap();
            let text = (g % 3 != 0).then(|| Value::Str(format!("r{g}")));
            part.columns[1].push(text.unwrap_or(Value::Null)).unwrap();
            part.starts.push(g as u64 * 10);
            part.offsets[0].push(match (chunk, g % 4) {
                (_, 1) => UNKNOWN,
                (3, _) => g as u32 * 40,
                _ => g as u32 % 7,
            });
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
    ) -> (Result<Output>, usize, usize) {
        let mut app = Appender::new(vec![DataType::Int64, DataType::Str], 1, 1, rows.len(), 1000);
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
        let want_starts: Vec<u32> = want.starts.iter().map(|&s| s as u32).collect();
        let mut want_offsets = Offsets::default();
        want_offsets.extend(&want.offsets[0]);
        // Chunk 3 widened what the chunks before it put in narrow.
        assert_eq!(want_offsets.width(), 2);
        let perms = permutations(rows.len());
        assert_eq!(perms.len(), 120);
        for order in &perms {
            for workers in 1..=3 {
                let (out, made, parked) = append_in(order, &rows, workers, None);
                let out = out.unwrap();
                assert_eq!(out.rows, total, "{order:?}");
                assert!(
                    out.columns.iter().eq(want.columns.iter().map(|c| &c.0)),
                    "{order:?}"
                );
                assert_eq!(out.starts, RowStarts::U32(want_starts.clone()), "{order:?}");
                assert_eq!(out.offsets, [want_offsets.clone()], "{order:?}");
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
        let mut app = Appender::new(vec![DataType::Int64], 0, 0, 1, 10);
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
                        None,
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
