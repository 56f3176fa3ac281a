//! The blocking client: typed request/response framing over one TCP
//! connection.
//!
//! [`Client`] is blocking: every call sends its request and waits for
//! the answer, and the wire carries one request at a time with the
//! responses in order, mirroring the serve loop on the other end. That
//! makes it directly usable from tests, benches and simple tools.
//! Results come back as bounded pages: [`Client::fetch`] returns one
//! [`RowBatch`] per call until the cursor is exhausted, and
//! [`Client::fetch_all`] / [`Client::query_all`] do the paging loop for
//! callers who want the whole result.
//!
//! Paging reads ahead. When `fetch` receives a page that is not the
//! last, it sends the `FETCH` for the next one before it decodes the
//! page it has, so the server encodes page k+1 while the caller decodes
//! and consumes page k. Between `fetch` calls that next `FETCH` may
//! therefore be outstanding: at most one page per cursor, in flight or
//! received and not yet returned. Any other request first reads the
//! in-flight answer and files it under its cursor, so the one-request
//! rule holds on the wire. A full drain of P pages still sends exactly
//! P `FETCH`es: a single-page result never reads ahead.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use nodb_store::RowBatch;
use nodb_types::{CountersSnapshot, Error, Field, Result, Schema, Value};

use crate::framing::{read_frame, write_frame};
use crate::protocol::{ColumnDesc, Request, Response, PROTOCOL_VERSION};

/// Bounded exponential backoff with deterministic jitter, applied to
/// [`Error::Busy`] refusals during [`Client::connect_with`]. Busy is the
/// server's *retryable* answer — admission control saying "full right
/// now" — so a client that backs off and retries rides out load spikes
/// without hammering the accept queue. The jitter is a pure function of
/// `(seed, attempt)`, so a given client's retry schedule is reproducible
/// in tests while distinct seeds still de-synchronise a thundering herd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = try once, never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub initial_backoff: Duration,
    /// Cap on any single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): exponential
    /// base capped at [`RetryPolicy::max_backoff`], minus a deterministic
    /// jitter of up to half the base so synchronised clients spread out.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .initial_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let half = base / 2;
        if half.is_zero() {
            return base;
        }
        let jitter_nanos = splitmix64(self.jitter_seed.wrapping_add(u64::from(attempt)))
            % (half.as_nanos() as u64 + 1);
        base - Duration::from_nanos(jitter_nanos)
    }
}

/// SplitMix64: a tiny, seedable mixer — all the randomness jitter needs
/// without pulling in an RNG crate.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Connection knobs for [`Client::connect_with`]. The plain
/// [`Client::connect`] is equivalent to the default: no timeouts, no
/// retries.
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// Give up a TCP connect after this long (`None`: OS default).
    pub connect_timeout: Option<Duration>,
    /// Fail any read that stalls this long with a typed
    /// [`Error::Io`] of kind `WouldBlock`/`TimedOut` (`None`: block
    /// forever). Covers every response, so set it above the longest
    /// query you expect — or rely on the *server's*
    /// [`query_deadline_ms`](crate::ServerConfig::query_deadline_ms),
    /// which answers a typed `ERR` instead of killing the connection.
    pub read_timeout: Option<Duration>,
    /// Retry [`Error::Busy`] refusals of the connect/handshake with
    /// backoff. `None`: a busy server fails the connect immediately.
    pub retry: Option<RetryPolicy>,
}

/// Opcode of a `BATCH` response, whose next payload byte is the `done`
/// flag (`docs/SERVER.md`, "Messages").
const BATCH_OPCODE: u8 = 0x84;

/// A connected wire client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    batch_rows: u32,
    session_id: u64,
    /// The cursor whose read-ahead `FETCH` is on the wire, unanswered.
    in_flight: Option<u32>,
    /// Read-ahead answers received but not yet returned, by cursor id:
    /// the raw payload, decoded (and any `ERR` in it raised) by that
    /// cursor's next [`Client::fetch`].
    stashed: HashMap<u32, Vec<u8>>,
}

/// A prepared statement living on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStatement {
    /// Server-side statement id.
    pub id: u32,
    /// Number of `?` parameters the statement declares.
    pub n_params: u16,
}

/// An open server-side cursor. Fetch pages with [`Client::fetch`]; drop
/// it early with [`Client::cancel`].
#[derive(Debug, Clone)]
pub struct RemoteCursor {
    /// Server-side cursor id.
    pub id: u32,
    /// Output columns, in order.
    pub columns: Vec<ColumnDesc>,
    schema: Schema,
    done: bool,
}

impl RemoteCursor {
    fn new(id: u32, columns: Vec<ColumnDesc>) -> Result<RemoteCursor> {
        let fields = columns
            .iter()
            .map(|c| Field::new(c.ident.clone(), c.dtype))
            .collect();
        Ok(RemoteCursor {
            id,
            columns,
            schema: Schema::new(fields)?,
            done: false,
        })
    }

    /// Output labels as written in the query.
    pub fn labels(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.label.clone()).collect()
    }

    /// Schema of fetched batches (sanitised identifiers + types).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// True once the final page has been fetched.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl Client {
    /// Connect and shake hands. Fails with the server's typed error when
    /// it is refusing work ([`Error::Busy`]) or speaks another protocol
    /// version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, &ConnectOptions::default())
    }

    /// [`Client::connect`] with timeouts and busy-retry; see
    /// [`ConnectOptions`].
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ConnectOptions) -> Result<Client> {
        let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let mut attempt = 0u32;
        loop {
            match Client::connect_once(&addrs, opts) {
                Err(Error::Busy(m)) => {
                    let Some(retry) = &opts.retry else {
                        return Err(Error::Busy(m));
                    };
                    if attempt >= retry.max_retries {
                        return Err(Error::Busy(m));
                    }
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn connect_once(addrs: &[std::net::SocketAddr], opts: &ConnectOptions) -> Result<Client> {
        let writer = match opts.connect_timeout {
            Some(t) => {
                // Try each resolved address, as `TcpStream::connect` does.
                let mut last = None;
                let mut ok = None;
                for a in addrs {
                    match TcpStream::connect_timeout(a, t) {
                        Ok(s) => {
                            ok = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match ok {
                    Some(s) => s,
                    None => return Err(Error::Io(last.expect("addrs is non-empty"))),
                }
            }
            None => TcpStream::connect(addrs)?,
        };
        let _ = writer.set_nodelay(true);
        writer.set_read_timeout(opts.read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            writer,
            reader,
            batch_rows: 0,
            session_id: 0,
            in_flight: None,
            stashed: HashMap::new(),
        };
        match client.roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk {
                batch_rows,
                session,
                ..
            } => {
                client.batch_rows = batch_rows;
                client.session_id = session;
                Ok(client)
            }
            other => Err(unexpected("HELLO_OK", &other)),
        }
    }

    /// Rows per page the server will send.
    pub fn batch_rows(&self) -> u32 {
        self.batch_rows
    }

    /// The server-assigned session id of this connection. Hand it to
    /// [`Client::cancel_query`] *on another connection* to abort this
    /// connection's currently running query.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Abort the query currently executing on session `session` (from
    /// its [`Client::session_id`]). The victim's in-flight request
    /// answers `ERR` with [`Error::Cancelled`] within one morsel; its
    /// connection stays usable. A no-op if that session is idle — the
    /// race between "still running" and "just finished" is inherent.
    pub fn cancel_query(&mut self, session: u64) -> Result<()> {
        match self.roundtrip(&Request::CancelQuery { session })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        let payload = self.read_payload()?;
        Response::decode(&payload)?.into_error()
    }

    /// Put `req` on the wire once it is the only request there.
    fn send(&mut self, req: &Request) -> Result<()> {
        self.settle()?;
        write_frame(&mut self.writer, &req.encode())?;
        Ok(())
    }

    fn read_payload(&mut self) -> Result<Vec<u8>> {
        read_frame(&mut self.reader)?.ok_or_else(|| Error::protocol("server closed the connection"))
    }

    /// Read the answer to the read-ahead `FETCH` still on the wire, if
    /// any, and file it under its cursor, so that the next frame answers
    /// the next request.
    fn settle(&mut self) -> Result<()> {
        if let Some(id) = self.in_flight.take() {
            let payload = self.read_payload()?;
            self.stashed.insert(id, payload);
        }
        Ok(())
    }

    /// Run a statement (SELECT or `CREATE TABLE .. AS SELECT ..`),
    /// opening a cursor over its result.
    pub fn query(&mut self, sql: &str) -> Result<RemoteCursor> {
        match self.roundtrip(&Request::Query { sql: sql.into() })? {
            Response::Cursor { id, columns } => RemoteCursor::new(id, columns),
            other => Err(unexpected("CURSOR", &other)),
        }
    }

    /// Parse and plan `sql` once on the server, for repeated
    /// parameterised execution.
    pub fn prepare(&mut self, sql: &str) -> Result<RemoteStatement> {
        match self.roundtrip(&Request::Prepare { sql: sql.into() })? {
            Response::Stmt { id, n_params } => Ok(RemoteStatement { id, n_params }),
            other => Err(unexpected("STMT", &other)),
        }
    }

    /// Bind parameters to a prepared statement and open a cursor.
    pub fn execute(&mut self, stmt: RemoteStatement, params: &[Value]) -> Result<RemoteCursor> {
        let resp = self.roundtrip(&Request::Execute {
            stmt: stmt.id,
            params: params.to_vec(),
        })?;
        match resp {
            Response::Cursor { id, columns } => RemoteCursor::new(id, columns),
            other => Err(unexpected("CURSOR", &other)),
        }
    }

    /// Fetch the next page, or `None` once the cursor is exhausted. The
    /// server closes the cursor with the final page; no explicit close
    /// is needed after a full drain.
    ///
    /// A page that is not the last one leaves the `FETCH` for the next
    /// page outstanding (see the module docs); an error the server
    /// answers to that read-ahead is returned by this cursor's next
    /// `fetch`.
    pub fn fetch(&mut self, cursor: &mut RemoteCursor) -> Result<Option<RowBatch>> {
        if cursor.done {
            return Ok(None);
        }
        let payload = if self.in_flight == Some(cursor.id) {
            self.in_flight = None;
            self.read_payload()?
        } else if let Some(payload) = self.stashed.remove(&cursor.id) {
            payload
        } else {
            self.send(&Request::Fetch { cursor: cursor.id })?;
            self.read_payload()?
        };
        // Read ahead before decoding, and only after a page that is not
        // the last: the server encodes the next page while this one is
        // decoded and consumed, and a drain never overshoots its end.
        if payload.starts_with(&[BATCH_OPCODE, 0]) {
            self.send(&Request::Fetch { cursor: cursor.id })?;
            self.in_flight = Some(cursor.id);
        }
        match Response::decode(&payload)?.into_error()? {
            Response::Batch { done, rows } => {
                cursor.done = done;
                if rows.is_empty() && done {
                    return Ok(None);
                }
                Ok(Some(RowBatch {
                    schema: cursor.schema.clone(),
                    rows,
                }))
            }
            other => Err(unexpected("BATCH", &other)),
        }
    }

    /// Drain every remaining page of `cursor` into one row vector.
    pub fn fetch_all(&mut self, cursor: &mut RemoteCursor) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::new();
        while let Some(batch) = self.fetch(cursor)? {
            rows.extend(batch.rows);
        }
        Ok(rows)
    }

    /// One-shot: run a statement and collect the whole result,
    /// returning `(labels, rows)`.
    pub fn query_all(&mut self, sql: &str) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let mut cursor = self.query(sql)?;
        let labels = cursor.labels();
        let rows = self.fetch_all(&mut cursor)?;
        Ok((labels, rows))
    }

    /// Abandon an open cursor server-side; its remaining rows are never
    /// produced, and a page it read ahead is discarded. Idempotent.
    pub fn cancel(&mut self, cursor: &mut RemoteCursor) -> Result<()> {
        cursor.done = true;
        self.settle()?;
        self.stashed.remove(&cursor.id);
        match self.roundtrip(&Request::Cancel { cursor: cursor.id })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Free a prepared statement server-side. Idempotent.
    pub fn close(&mut self, stmt: RemoteStatement) -> Result<()> {
        match self.roundtrip(&Request::Close { stmt: stmt.id })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Snapshot the server's work counters (engine work plus the
    /// server's own `connections_accepted` / `requests_served` /
    /// `busy_rejections`).
    pub fn stats(&mut self) -> Result<CountersSnapshot> {
        self.stats_full().map(|(counters, _)| counters)
    }

    /// Snapshot the server's work counters plus every self-describing
    /// extension field the server reported (latency histogram buckets,
    /// counters newer than this client). Extras arrive in wire order
    /// as raw `(name, value)` pairs; [`nodb_types::profile`] has the
    /// bucket math to turn `lat_*_b<i>` sequences into percentiles.
    pub fn stats_full(&mut self) -> Result<(CountersSnapshot, Vec<(String, u64)>)> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { counters, extras } => Ok((*counters, extras)),
            other => Err(unexpected("STATS_OK", &other)),
        }
    }

    /// Say goodbye and close the connection. Pages read ahead and not
    /// yet returned are discarded, as they are when a `Client` is
    /// dropped.
    pub fn quit(mut self) -> Result<()> {
        match self.roundtrip(&Request::Quit)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.writer.peer_addr().ok())
            .field("batch_rows", &self.batch_rows)
            .finish()
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::protocol(format!("expected {wanted} response, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_ahead_recognises_a_not_done_batch() {
        let batch = |done| Response::Batch { done, rows: vec![] }.encode();
        assert!(batch(false).starts_with(&[BATCH_OPCODE, 0]));
        assert!(batch(true).starts_with(&[BATCH_OPCODE, 1]));
        assert!(!Response::Ok.encode().starts_with(&[BATCH_OPCODE]));
    }

    /// A one-connection server that answers each request it reads with
    /// the next scripted response, and returns the requests it saw.
    fn scripted_server(
        script: Vec<Response>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<Request>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            for resp in script {
                let payload = read_frame(&mut sock).unwrap().expect("a request");
                seen.push(Request::decode(&payload).unwrap());
                write_frame(&mut sock, &resp.encode()).unwrap();
            }
            seen
        });
        (addr, server)
    }

    #[test]
    fn read_ahead_error_is_returned_by_its_cursors_next_fetch() {
        let (addr, server) = scripted_server(vec![
            Response::HelloOk {
                version: PROTOCOL_VERSION,
                batch_rows: 1,
                session: 7,
            },
            Response::Cursor {
                id: 3,
                columns: vec![ColumnDesc {
                    label: "a".into(),
                    ident: "a".into(),
                    dtype: nodb_types::DataType::Int64,
                }],
            },
            Response::Batch {
                done: false,
                rows: vec![vec![Value::Int(10)]],
            },
            Response::from_error(&Error::exec("page two failed")),
            Response::Stats {
                counters: Box::default(),
                extras: vec![],
            },
        ]);
        let mut client = Client::connect(addr).unwrap();
        let mut cursor = client.query("select a from t").unwrap();
        let first = client.fetch(&mut cursor).unwrap().expect("first page");
        assert_eq!(first.rows, vec![vec![Value::Int(10)]]);
        // STATS reads the ERR answered to the read-ahead FETCH first,
        // then gets its own answer; the cursor's next fetch gets the ERR.
        client.stats().unwrap();
        let err = client.fetch(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("page two failed"), "{err}");
        drop(client);
        assert_eq!(
            server.join().unwrap(),
            vec![
                Request::Hello {
                    version: PROTOCOL_VERSION
                },
                Request::Query {
                    sql: "select a from t".into()
                },
                Request::Fetch { cursor: 3 },
                Request::Fetch { cursor: 3 },
                Request::Stats,
            ]
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..40 {
            let a = p.backoff(attempt);
            let b = p.backoff(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same sleep");
            assert!(a <= p.max_backoff);
            // Jitter subtracts at most half the base, so backoff never
            // collapses to zero once the base is non-zero.
            assert!(a >= p.initial_backoff / 2);
        }
    }

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        let p = RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
        };
        // Pre-jitter bases: 8, 16, 32, 64, 100, 100...; jittered values
        // stay within (base/2, base].
        assert!(p.backoff(1) > Duration::from_millis(8));
        assert!(p.backoff(4) > Duration::from_millis(50));
        assert!(p.backoff(30) <= Duration::from_millis(100));
    }

    #[test]
    fn distinct_seeds_desynchronise() {
        let a = RetryPolicy {
            jitter_seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            jitter_seed: 2,
            ..RetryPolicy::default()
        };
        // Not a randomness test — just that the seed actually feeds in.
        assert!((0..8).any(|i| a.backoff(i) != b.backoff(i)));
    }
}
