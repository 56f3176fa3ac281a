//! The wire protocol: typed requests and responses.
//!
//! One frame (see [`crate::framing`]) carries one message; the first
//! payload byte is the opcode. Requests flow client→server, responses
//! server→client; every request gets exactly one response. The protocol
//! is deliberately *result-bounded* in the sense of Amarilli & Benedikt:
//! a query never returns rows directly — it opens a server-side cursor,
//! and the client pulls bounded [`FETCH`](Request::Fetch) pages until the
//! server flags the last one. There is no unbounded message in either
//! direction.
//!
//! | opcode | message | body |
//! |-------:|---------|------|
//! | `0x01` | `HELLO` | magic `b"NODB"`, `u16` protocol version |
//! | `0x02` | `QUERY` | `str` sql |
//! | `0x03` | `PREPARE` | `str` sql |
//! | `0x04` | `EXECUTE` | `u32` stmt id, `u16` n, n × value |
//! | `0x05` | `FETCH` | `u32` cursor id |
//! | `0x06` | `STATS` | — |
//! | `0x07` | `CANCEL` | `u32` cursor id |
//! | `0x08` | `CLOSE` | `u32` stmt id |
//! | `0x09` | `QUIT` | — |
//! | `0x0A` | `CANCEL_QUERY` | `u64` session id |
//! | `0x81` | `HELLO_OK` | `u16` version, `u32` batch rows, `u64` session id |
//! | `0x82` | `CURSOR` | `u32` cursor id, `u16` n, n × (`str` label, `str` ident, `u8` dtype) |
//! | `0x83` | `STMT` | `u32` stmt id, `u16` n params |
//! | `0x84` | `BATCH` | `u8` done, `u32` rows, `u16` cols, values row-major |
//! | `0x85` | `STATS_OK` | `u16` n, n × (`str` counter, `u64` value) |
//! | `0x86` | `OK` | — |
//! | `0xEE` | `ERR` | `u16` error code, `str` message |
//!
//! Values are tagged scalars: `0` NULL, `1` int (`i64`), `2` float
//! (`f64`), `3` string (`str`). Data types: `0` int64, `1` float64,
//! `2` str. Error codes are [`nodb_types::Error::wire_code`].

use nodb_types::{ColumnPage, CountersSnapshot, DataType, Error, Result, Value, ValueRef};

use crate::framing::{put_f64, put_i64, put_str, put_u16, put_u32, put_u64, put_u8, ByteReader};

/// First bytes of every `HELLO`: distinguishes a nodb client from a
/// stray HTTP probe before anything else is parsed.
pub const MAGIC: &[u8; 4] = b"NODB";

/// Protocol version spoken by this build. The server answers a `HELLO`
/// carrying any version it can speak (currently only this one) and
/// errors on anything else, so mismatched builds fail at handshake, not
/// mid-query.
pub const PROTOCOL_VERSION: u16 = 1;

/// One column of an open cursor: the display label as written in the
/// query, the sanitised identifier, and the value type of the column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDesc {
    /// Output label as written in the query (`sum(a1)`).
    pub label: String,
    /// Sanitised identifier (`sum_a1`), unique within the cursor.
    pub ident: String,
    /// Column data type.
    pub dtype: DataType,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: must be the first message on a connection.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Plan and execute a SELECT, opening a cursor.
    Query {
        /// The SQL text.
        sql: String,
    },
    /// Parse and plan once for repeated parameterised execution.
    Prepare {
        /// The SQL text, with `?` parameter placeholders.
        sql: String,
    },
    /// Bind parameters to a prepared statement and open a cursor.
    Execute {
        /// Statement id from a previous `STMT` response.
        stmt: u32,
        /// One value per `?` placeholder.
        params: Vec<Value>,
    },
    /// Pull the next page of an open cursor.
    Fetch {
        /// Cursor id from a previous `CURSOR` response.
        cursor: u32,
    },
    /// Snapshot the server's work counters.
    Stats,
    /// Abandon an open cursor; its remaining rows are never produced.
    Cancel {
        /// Cursor id to drop.
        cursor: u32,
    },
    /// Free a prepared statement.
    Close {
        /// Statement id to drop.
        stmt: u32,
    },
    /// Close the connection after one final `OK`.
    Quit,
    /// Abort the query *currently executing* on another session: its
    /// cancel token is tripped and the victim's in-flight `QUERY` or
    /// `EXECUTE` answers `ERR` with [`nodb_types::Error::Cancelled`]
    /// within one morsel. A no-op `OK` if the session is idle or unknown
    /// (the query may already have finished — cancellation is racy by
    /// nature). Contrast [`Request::Cancel`], which merely abandons an
    /// already-open cursor on *this* connection.
    CancelQuery {
        /// Session id of the victim, from its `HELLO_OK`.
        session: u64,
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Protocol version the server will speak.
        version: u16,
        /// Rows per `BATCH` page the server will emit.
        batch_rows: u32,
        /// Server-assigned id of this connection's session. Another
        /// connection can abort this session's running query by sending
        /// `CANCEL_QUERY` with this id.
        session: u64,
    },
    /// A cursor opened by `QUERY` or `EXECUTE`.
    Cursor {
        /// Cursor id for subsequent `FETCH`/`CANCEL`.
        id: u32,
        /// Output columns, in order.
        columns: Vec<ColumnDesc>,
    },
    /// A statement registered by `PREPARE`.
    Stmt {
        /// Statement id for subsequent `EXECUTE`/`CLOSE`.
        id: u32,
        /// Number of `?` parameters the statement declares.
        n_params: u16,
    },
    /// One page of rows. After `done`, the cursor is closed server-side.
    Batch {
        /// True iff this is the final page of the cursor.
        done: bool,
        /// Row-major page contents.
        rows: Vec<Vec<Value>>,
    },
    /// Work-counter snapshot (boxed: the snapshot dwarfs every other
    /// variant and would otherwise inflate all of them).
    Stats {
        /// The engine's global work counters.
        counters: Box<CountersSnapshot>,
        /// Self-describing extension fields beyond the fixed counter
        /// set — today the per-opcode latency histogram buckets
        /// (`lat_<op>_b<i>`) and queue-wait histogram. A client that
        /// predates a name simply carries it here verbatim, so a newer
        /// server never breaks an older `--stats`.
        extras: Vec<(String, u64)>,
    },
    /// Request succeeded with nothing to return.
    Ok,
    /// Request failed; the connection stays usable (except after a
    /// failed handshake).
    Err {
        /// [`nodb_types::Error::wire_code`] of the failure.
        code: u16,
        /// Human-readable message.
        message: String,
    },
}

fn put_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => put_u8(out, 0),
        ValueRef::Int(i) => {
            put_u8(out, 1);
            put_i64(out, i);
        }
        ValueRef::Float(f) => {
            put_u8(out, 2);
            put_f64(out, f);
        }
        ValueRef::Str(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
    }
}

fn put_batch_header(out: &mut Vec<u8>, done: bool, n_rows: usize, n_cols: usize) {
    put_u8(out, 0x84);
    put_u8(out, u8::from(done));
    put_u32(out, n_rows as u32);
    // A page without rows has no row to take a width from.
    put_u16(out, if n_rows == 0 { 0 } else { n_cols as u16 });
}

/// Append the `BATCH` payload for a page of rows to `out`.
pub(crate) fn encode_batch_rows(out: &mut Vec<u8>, done: bool, rows: &[Vec<Value>]) {
    put_batch_header(out, done, rows.len(), rows.first().map_or(0, Vec::len));
    for row in rows {
        for v in row {
            put_value(out, v.as_value_ref());
        }
    }
}

/// Append the `BATCH` payload for a columnar page to `out`: the same
/// row-major bytes as [`Response::Batch`] over `page.to_rows()` encodes
/// to, written straight from the typed columns — each text cell is
/// copied once, column to frame.
pub fn encode_batch_page(out: &mut Vec<u8>, done: bool, page: &ColumnPage<'_>) {
    put_batch_header(out, done, page.n_rows(), page.n_cols());
    for row in 0..page.n_rows() {
        for col in 0..page.n_cols() {
            put_value(out, page.cell(row, col));
        }
    }
}

fn read_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Float(r.f64()?)),
        3 => Ok(Value::Str(r.str()?)),
        tag => Err(Error::protocol(format!("unknown value tag {tag}"))),
    }
}

fn dtype_code(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Str => 2,
    }
}

fn read_dtype(r: &mut ByteReader<'_>) -> Result<DataType> {
    match r.u8()? {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Str),
        code => Err(Error::protocol(format!("unknown data type code {code}"))),
    }
}

impl Request {
    /// Serialise into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                put_u8(&mut out, 0x01);
                out.extend_from_slice(MAGIC);
                put_u16(&mut out, *version);
            }
            Request::Query { sql } => {
                put_u8(&mut out, 0x02);
                put_str(&mut out, sql);
            }
            Request::Prepare { sql } => {
                put_u8(&mut out, 0x03);
                put_str(&mut out, sql);
            }
            Request::Execute { stmt, params } => {
                put_u8(&mut out, 0x04);
                put_u32(&mut out, *stmt);
                put_u16(&mut out, params.len() as u16);
                for p in params {
                    put_value(&mut out, p.as_value_ref());
                }
            }
            Request::Fetch { cursor } => {
                put_u8(&mut out, 0x05);
                put_u32(&mut out, *cursor);
            }
            Request::Stats => put_u8(&mut out, 0x06),
            Request::Cancel { cursor } => {
                put_u8(&mut out, 0x07);
                put_u32(&mut out, *cursor);
            }
            Request::Close { stmt } => {
                put_u8(&mut out, 0x08);
                put_u32(&mut out, *stmt);
            }
            Request::Quit => put_u8(&mut out, 0x09),
            Request::CancelQuery { session } => {
                put_u8(&mut out, 0x0A);
                put_u64(&mut out, *session);
            }
        }
        out
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = ByteReader::new(payload);
        let req = match r.u8()? {
            0x01 => {
                let mut magic = [0u8; 4];
                for b in &mut magic {
                    *b = r.u8()?;
                }
                if &magic != MAGIC {
                    return Err(Error::protocol("bad magic: not a nodb client"));
                }
                Request::Hello { version: r.u16()? }
            }
            0x02 => Request::Query { sql: r.str()? },
            0x03 => Request::Prepare { sql: r.str()? },
            0x04 => {
                let stmt = r.u32()?;
                let n = r.u16()? as usize;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(read_value(&mut r)?);
                }
                Request::Execute { stmt, params }
            }
            0x05 => Request::Fetch { cursor: r.u32()? },
            0x06 => Request::Stats,
            0x07 => Request::Cancel { cursor: r.u32()? },
            0x08 => Request::Close { stmt: r.u32()? },
            0x09 => Request::Quit,
            0x0A => Request::CancelQuery { session: r.u64()? },
            op => return Err(Error::protocol(format!("unknown request opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Route one decoded STATS field into the snapshot. Returns `false` for
/// names this build does not recognise (extension fields such as the
/// latency histogram buckets, or counters a newer server added); the
/// caller keeps those as self-describing extras instead of dropping
/// them. The encode side is [`CountersSnapshot::named_fields`], the one
/// canonical list, so a counter cannot exist in the struct without
/// crossing the wire.
fn set_counter_field(s: &mut CountersSnapshot, name: &str, v: u64) -> bool {
    match name {
        "bytes_read" => s.bytes_read = v,
        "bytes_written" => s.bytes_written = v,
        "rows_tokenized" => s.rows_tokenized = v,
        "fields_tokenized" => s.fields_tokenized = v,
        "values_parsed" => s.values_parsed = v,
        "file_trips" => s.file_trips = v,
        "rows_abandoned" => s.rows_abandoned = v,
        "tuples_evicted" => s.tuples_evicted = v,
        "plan_cache_hits" => s.plan_cache_hits = v,
        "plan_cache_misses" => s.plan_cache_misses = v,
        "morsels_dispatched" => s.morsels_dispatched = v,
        "parallel_pipelines" => s.parallel_pipelines = v,
        "fused_cold_projections" => s.fused_cold_projections = v,
        "fused_cold_joins" => s.fused_cold_joins = v,
        "connections_accepted" => s.connections_accepted = v,
        "requests_served" => s.requests_served = v,
        "busy_rejections" => s.busy_rejections = v,
        "result_cache_hits" => s.result_cache_hits = v,
        "result_cache_subsumed_hits" => s.result_cache_subsumed_hits = v,
        "result_cache_misses" => s.result_cache_misses = v,
        "result_cache_evictions" => s.result_cache_evictions = v,
        "queries_cancelled" => s.queries_cancelled = v,
        "queries_timed_out" => s.queries_timed_out = v,
        "queries_shed" => s.queries_shed = v,
        "conns_shed" => s.conns_shed = v,
        "mem_reserved_peak" => s.mem_reserved_peak = v,
        "panics_contained" => s.panics_contained = v,
        "conns_parked" => s.conns_parked = v,
        "reactor_wakeups" => s.reactor_wakeups = v,
        "frames_partial" => s.frames_partial = v,
        "slow_queries" => s.slow_queries = v,
        "crack_rows_touched" => s.crack_rows_touched = v,
        _ => return false,
    }
    true
}

impl Response {
    /// Serialise into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this message's frame payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::HelloOk {
                version,
                batch_rows,
                session,
            } => {
                put_u8(out, 0x81);
                put_u16(out, *version);
                put_u32(out, *batch_rows);
                put_u64(out, *session);
            }
            Response::Cursor { id, columns } => {
                put_u8(out, 0x82);
                put_u32(out, *id);
                put_u16(out, columns.len() as u16);
                for c in columns {
                    put_str(out, &c.label);
                    put_str(out, &c.ident);
                    put_u8(out, dtype_code(c.dtype));
                }
            }
            Response::Stmt { id, n_params } => {
                put_u8(out, 0x83);
                put_u32(out, *id);
                put_u16(out, *n_params);
            }
            Response::Batch { done, rows } => encode_batch_rows(out, *done, rows),
            Response::Stats { counters, extras } => {
                put_u8(out, 0x85);
                let fields = counters.named_fields();
                put_u16(out, (fields.len() + extras.len()) as u16);
                for (name, v) in fields {
                    put_str(out, name);
                    put_u64(out, v);
                }
                for (name, v) in extras {
                    put_str(out, name);
                    put_u64(out, *v);
                }
            }
            Response::Ok => put_u8(out, 0x86),
            Response::Err { code, message } => {
                put_u8(out, 0xEE);
                put_u16(out, *code);
                put_str(out, message);
            }
        }
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = ByteReader::new(payload);
        let resp = match r.u8()? {
            0x81 => Response::HelloOk {
                version: r.u16()?,
                batch_rows: r.u32()?,
                session: r.u64()?,
            },
            0x82 => {
                let id = r.u32()?;
                let n = r.u16()? as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(ColumnDesc {
                        label: r.str()?,
                        ident: r.str()?,
                        dtype: read_dtype(&mut r)?,
                    });
                }
                Response::Cursor { id, columns }
            }
            0x83 => Response::Stmt {
                id: r.u32()?,
                n_params: r.u16()?,
            },
            0x84 => {
                let done = r.u8()? != 0;
                let nrows = r.u32()? as usize;
                let ncols = r.u16()? as usize;
                // A zero-width row consumes no payload bytes, so a
                // corrupt nrows would never hit a truncation error —
                // reject the combination outright (queries always have
                // at least one output column).
                if ncols == 0 && nrows != 0 {
                    return Err(Error::protocol("batch with rows but no columns"));
                }
                // Clamp the pre-allocation by what the frame can
                // physically hold (>= 1 byte per value): a corrupt
                // count must not reserve gigabytes before decoding
                // fails on truncation.
                let mut rows = Vec::with_capacity(nrows.min(r.remaining() / ncols.max(1)));
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(read_value(&mut r)?);
                    }
                    rows.push(row);
                }
                Response::Batch { done, rows }
            }
            0x85 => {
                let n = r.u16()? as usize;
                let mut s = CountersSnapshot::default();
                let mut extras = Vec::new();
                for _ in 0..n {
                    let name = r.str()?;
                    let v = r.u64()?;
                    if !set_counter_field(&mut s, &name, v) {
                        extras.push((name, v));
                    }
                }
                Response::Stats {
                    counters: Box::new(s),
                    extras,
                }
            }
            0x86 => Response::Ok,
            0xEE => Response::Err {
                code: r.u16()?,
                message: r.str()?,
            },
            op => {
                return Err(Error::protocol(format!(
                    "unknown response opcode {op:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(resp)
    }

    /// The ERR response for a typed engine error. Uses
    /// [`Error::to_wire`], which encodes the `io::ErrorKind` for I/O
    /// errors so the client rebuilds the same typed error, not a
    /// stringly-typed shadow of it.
    pub fn from_error(e: &Error) -> Response {
        let (code, message) = e.to_wire();
        Response::Err { code, message }
    }

    /// If this is an ERR response, the typed error it carries.
    pub fn into_error(self) -> Result<Response> {
        match self {
            Response::Err { code, message } => Err(Error::from_wire(code, message)),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn round_trip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip_req(Request::Query {
            sql: "select 1 from r".into(),
        });
        round_trip_req(Request::Prepare {
            sql: "select a1 from r where a1 > ?".into(),
        });
        round_trip_req(Request::Execute {
            stmt: 7,
            params: vec![
                Value::Null,
                Value::Int(-3),
                Value::Float(2.5),
                Value::Str("x,\"y\"\n".into()),
            ],
        });
        round_trip_req(Request::Fetch { cursor: 9 });
        round_trip_req(Request::Stats);
        round_trip_req(Request::Cancel { cursor: 1 });
        round_trip_req(Request::Close { stmt: 2 });
        round_trip_req(Request::Quit);
        round_trip_req(Request::CancelQuery { session: u64::MAX });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::HelloOk {
            version: 1,
            batch_rows: 1024,
            session: 42,
        });
        round_trip_resp(Response::Cursor {
            id: 3,
            columns: vec![
                ColumnDesc {
                    label: "sum(a1)".into(),
                    ident: "sum_a1".into(),
                    dtype: DataType::Int64,
                },
                ColumnDesc {
                    label: "avg(a2)".into(),
                    ident: "avg_a2".into(),
                    dtype: DataType::Float64,
                },
            ],
        });
        round_trip_resp(Response::Stmt { id: 5, n_params: 2 });
        round_trip_resp(Response::Batch {
            done: true,
            rows: vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Null, Value::Float(0.5)],
            ],
        });
        round_trip_resp(Response::Ok);
        round_trip_resp(Response::Err {
            code: 10,
            message: "queue full".into(),
        });
    }

    /// A snapshot with a distinct nonzero value in every field (the
    /// struct literal is exhaustive, so a new counter breaks the build
    /// here until the tests below learn about it).
    fn distinct_snapshot() -> CountersSnapshot {
        CountersSnapshot {
            bytes_read: 1,
            bytes_written: 2,
            rows_tokenized: 3,
            fields_tokenized: 4,
            values_parsed: 5,
            file_trips: 6,
            rows_abandoned: 7,
            tuples_evicted: 8,
            plan_cache_hits: 9,
            plan_cache_misses: 10,
            morsels_dispatched: 11,
            parallel_pipelines: 12,
            fused_cold_projections: 13,
            fused_cold_joins: 14,
            connections_accepted: 15,
            requests_served: 16,
            busy_rejections: 17,
            result_cache_hits: 18,
            result_cache_subsumed_hits: 19,
            result_cache_misses: 20,
            result_cache_evictions: 21,
            queries_cancelled: 22,
            queries_timed_out: 23,
            queries_shed: 24,
            conns_shed: 25,
            mem_reserved_peak: 26,
            panics_contained: 27,
            conns_parked: 28,
            reactor_wakeups: 29,
            frames_partial: 30,
            slow_queries: 31,
            crack_rows_touched: 32,
        }
    }

    #[test]
    fn stats_round_trip_preserves_every_field() {
        round_trip_resp(Response::Stats {
            counters: Box::new(distinct_snapshot()),
            extras: vec![("lat_query_b3".into(), 7), ("lat_fetch_b0".into(), 2)],
        });
    }

    /// Drift guard: every `CountersSnapshot` field must appear exactly
    /// once in the encoded self-describing STATS frame, and decoding
    /// must put each value back into the same field. A counter added to
    /// the struct but missed by `named_fields` would decode as a
    /// defaulted zero here and fail the equality; one missed by
    /// `set_counter_field` would land in `extras` and fail the
    /// emptiness check.
    #[test]
    fn stats_wire_carries_every_counter_exactly_once() {
        let s = distinct_snapshot();
        let fields = s.named_fields();
        // Distinct values 1..=n: each field is encoded once, from the
        // right struct member.
        let mut values: Vec<u64> = fields.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=fields.len() as u64).collect::<Vec<_>>());

        let payload = Response::Stats {
            counters: Box::new(s),
            extras: Vec::new(),
        }
        .encode();
        // The frame's self-describing field count matches the canonical
        // list (offset 1 skips the opcode byte; the wire is
        // little-endian).
        let n_wire = u16::from_le_bytes([payload[1], payload[2]]) as usize;
        assert_eq!(n_wire, fields.len());
        // Each counter name appears exactly once in the payload bytes.
        for (name, _) in fields {
            let hits = payload
                .windows(name.len())
                .filter(|w| *w == name.as_bytes())
                .count();
            // Names that are substrings of others (e.g. result_cache_hits
            // inside result_cache_subsumed_hits) match those too; every
            // name must appear at least once and no standalone duplicate
            // is possible given the count check above.
            assert!(hits >= 1, "counter {name} missing from wire");
        }

        match Response::decode(&payload).unwrap() {
            Response::Stats { counters, extras } => {
                assert_eq!(*counters, distinct_snapshot());
                assert!(
                    extras.is_empty(),
                    "known counter fell into extras: {extras:?}"
                );
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut out = Vec::new();
        put_u8(&mut out, 0x01);
        out.extend_from_slice(b"HTTP");
        put_u16(&mut out, 1);
        assert!(matches!(Request::decode(&out), Err(Error::Protocol(_))));
    }

    #[test]
    fn err_response_becomes_typed_error() {
        let resp = Response::from_error(&Error::busy("queue full"));
        let back = Response::decode(&resp.encode()).unwrap().into_error();
        assert!(matches!(back, Err(Error::Busy(_))));
    }

    #[test]
    fn cancelled_and_timeout_cross_the_wire_typed() {
        for (err, want) in [
            (Error::cancelled("query cancelled"), 12u16),
            (Error::timeout("deadline exceeded"), 13u16),
        ] {
            let resp = Response::from_error(&err);
            if let Response::Err { code, .. } = &resp {
                assert_eq!(*code, want);
            } else {
                panic!("expected ERR");
            }
            let back = Response::decode(&resp.encode()).unwrap().into_error();
            match want {
                12 => assert!(matches!(back, Err(Error::Cancelled(_)))),
                _ => assert!(matches!(back, Err(Error::Timeout(_)))),
            }
        }
    }

    #[test]
    fn io_error_kind_survives_err_response() {
        let err = Error::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "data.csv missing",
        ));
        let back = Response::decode(&Response::from_error(&err).encode())
            .unwrap()
            .into_error();
        match back {
            Err(Error::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                assert!(e.to_string().contains("data.csv missing"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// The columnar BATCH encoder against the row encoder it
        /// replaces on the FETCH path: for any typed page — every column
        /// type, NULLs, empty and non-ASCII text, repeated and unordered
        /// positions or a contiguous range, selected and dense columns,
        /// no rows, one column — the bytes are identical and decode back
        /// to the page's rows.
        #[test]
        fn columnar_batch_is_byte_identical_to_the_row_encoding(
            cols in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::arbitrary::any::<bool>(),
                    proptest::collection::vec((0u8..4, proptest::arbitrary::any::<i64>()), 12),
                ),
                1..5,
            ),
            n_src in 0usize..=12,
            picks in proptest::collection::vec(0usize..12, 0..20),
            dense in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 4),
            range in proptest::option::of((0usize..12, 0usize..12)),
            done in proptest::arbitrary::any::<bool>(),
        ) {
            use nodb_types::{ColumnData, PageColumn, Selection};
            const TEXT: [&str; 4] = ["", "a", "é中🦀", "x,\"y\"\n"];
            let columns: Vec<ColumnData> = cols
                .iter()
                .map(|(kind, nullable, cells)| {
                    let ty = [DataType::Int64, DataType::Float64, DataType::Str][*kind];
                    let values = cells[..n_src].iter().map(|&(tag, x)| match ty {
                        _ if *nullable && tag == 0 => Value::Null,
                        DataType::Int64 => Value::Int(x),
                        DataType::Float64 => Value::Float(x as f64 / 8.0),
                        DataType::Str => Value::Str(TEXT[x.rem_euclid(4) as usize].into()),
                    });
                    ColumnData::from_values(ty, values).unwrap()
                })
                .collect();
            let positions: Vec<usize> = if n_src == 0 {
                Vec::new()
            } else {
                picks.iter().map(|p| p % n_src).collect()
            };
            let selection = match range {
                Some((lo, len)) if n_src > 0 => {
                    let lo = lo % n_src;
                    Selection::Range(lo..(lo + len).min(n_src))
                }
                _ => Selection::Positions(&positions),
            };
            let selected: Vec<usize> = match &selection {
                Selection::Positions(p) => p.to_vec(),
                Selection::Range(r) => r.clone().collect(),
            };
            let rows: Vec<Vec<Value>> = selected
                .iter()
                .map(|&i| columns.iter().map(|c| c.get(i)).collect())
                .collect();
            let page = ColumnPage::new(
                selection,
                columns
                    .iter()
                    .zip(&dense)
                    .map(|(c, &dense)| {
                        if dense {
                            PageColumn::Dense(c.take(&selected))
                        } else {
                            PageColumn::Selected(c)
                        }
                    })
                    .collect(),
            );
            proptest::prop_assert_eq!(page.to_rows(), rows.clone());
            let mut bytes = Vec::new();
            encode_batch_page(&mut bytes, done, &page);
            let by_rows = Response::Batch { done, rows };
            proptest::prop_assert_eq!(&bytes, &by_rows.encode());
            proptest::prop_assert_eq!(Response::decode(&bytes).unwrap(), by_rows);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut out = Request::Quit.encode();
        out.push(0);
        assert!(matches!(Request::decode(&out), Err(Error::Protocol(_))));
    }
}
