//! Per-connection state: one [`Session`], its prepared statements and
//! its open cursors.
//!
//! A connection executes at most one request at a time (the reactor
//! dispatches one decoded frame per scheduler round), so none of this
//! state is shared — all cross-connection coordination lives in the
//! engine it sessions over and in the reactor's admission machinery.
//! A `Conn` does migrate between worker threads across requests, which
//! is why the bottom of this file pins `Conn: Send` at compile time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb_core::plan_cache::normalize_sql;
use nodb_core::{QueryStream, Session};
use nodb_types::profile::{Phase, ProfileScope, ProfileSink};
use nodb_types::{CancelToken, Error, ProfileHandle, Result, Value};

use crate::metrics::ServerMetrics;
use crate::protocol::{encode_batch_page, encode_batch_rows, ColumnDesc, Request, Response};
use crate::server::Registry;

/// Append the `BATCH` payload of an open cursor's next page to `out`.
/// Every statement — SELECT, `CREATE TABLE .. AS`, `EXPLAIN` — answers as
/// a [`QueryStream`], so a page comes straight off it as typed columns
/// and is encoded from them: un-fetched rows are never materialised
/// beyond what execution already produced. On error `out` may hold a
/// partial payload.
fn encode_next_page(stream: &mut QueryStream, out: &mut Vec<u8>) -> Result<()> {
    let payload_at = out.len();
    let page = stream.next_columns()?;
    let started = Instant::now();
    match page {
        Some(page) => encode_batch_page(out, false, &page),
        None => encode_batch_rows(out, false, &[]),
    }
    if let Some(sink) = stream.profile() {
        sink.add_phase_ns(Phase::WireSerialize, started.elapsed().as_nanos() as u64);
    }
    // The `done` flag sits right after the opcode; it is known only once
    // the page has been taken off the stream.
    out[payload_at + 1] = u8::from(stream.rows_remaining() == 0);
    Ok(())
}

/// What the connection loop should do after a response is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep reading requests.
    Continue,
    /// Close the connection (client said `QUIT`).
    Close,
}

/// Open cursors one connection may hold. Cursors can pin materialised
/// results (grouped columns, CTAS columns) server-side, so a client that
/// opens queries without ever fetching must hit a typed error, not grow
/// the heap.
const MAX_OPEN_CURSORS: usize = 64;

/// Prepared statements one connection may hold before `CLOSE` is
/// required.
const MAX_PREPARED_STMTS: usize = 256;

/// The connection's hook into server-wide query lifecycle control: its
/// session id, the running-query [`Registry`] (for `CANCEL_QUERY` and
/// the reactor's disconnect cancellation) and the server's per-query
/// deadline.
pub(crate) struct ConnCtx {
    pub(crate) registry: Arc<Registry>,
    pub(crate) session_id: u64,
    /// [`ServerConfig::query_deadline_ms`](crate::ServerConfig::query_deadline_ms).
    pub(crate) query_deadline: Option<Duration>,
    /// Server-wide latency histograms; this connection folds its STATS
    /// extras out of them.
    pub(crate) metrics: Arc<ServerMetrics>,
    /// [`ServerConfig::slow_query_ms`](crate::ServerConfig::slow_query_ms).
    /// `Some` arms per-query profiling on this connection.
    pub(crate) slow_query_ms: Option<u64>,
}

impl ConnCtx {
    /// Run `f` with a fresh registered [`CancelToken`]: while `f`
    /// executes, `CANCEL_QUERY` frames from other connections and the
    /// reactor (on EOF/HUP from the client's socket) can trip the
    /// token, and the configured server deadline is armed. The entry is
    /// removed before returning, however `f` exits.
    fn run_registered<T>(&self, f: impl FnOnce(&CancelToken) -> Result<T>) -> Result<T> {
        let token = CancelToken::new();
        if let Some(d) = self.query_deadline {
            token.set_deadline_if_unset(Instant::now() + d);
        }
        self.registry.register(self.session_id, token.clone());
        // Deregister on every exit path — including a panic unwinding to
        // the connection firewall — so a crashed query can never leave a
        // stale registry entry behind.
        struct Deregister<'a>(&'a Registry, u64);
        impl Drop for Deregister<'_> {
            fn drop(&mut self) {
                self.0.deregister(self.1);
            }
        }
        let _dereg = Deregister(&self.registry, self.session_id);
        f(&token)
    }
}

/// The profile of the `QUERY`/`EXECUTE` this connection just ran,
/// held between execution and the end-of-request bookkeeping so the
/// response-encoding time (the `wire_serialize` phase) is folded into it
/// before the slow-query decision is made.
struct PendingProfile {
    sink: ProfileHandle,
    fingerprint: u64,
}

/// All state for one client connection.
pub(crate) struct Conn {
    session: Session,
    stmts: HashMap<u32, (nodb_core::Prepared, u64)>,
    /// Open cursors: each pages its stream at the session's batch size.
    cursors: HashMap<u32, Box<QueryStream>>,
    next_id: u32,
    ctx: ConnCtx,
    pending_profile: Option<PendingProfile>,
}

impl Conn {
    pub(crate) fn new(session: Session, ctx: ConnCtx) -> Conn {
        Conn {
            session,
            stmts: HashMap::new(),
            cursors: HashMap::new(),
            next_id: 1,
            ctx,
            pending_profile: None,
        }
    }

    /// True while the client still has rows it has not fetched; the
    /// server drains these before completing a graceful shutdown.
    pub(crate) fn has_open_cursors(&self) -> bool {
        !self.cursors.is_empty()
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Handle one request, appending the response's frame payload to
    /// `out`. `draining` is true once shutdown has begun: requests that
    /// would start *new* work are refused with a typed BUSY error, while
    /// FETCH/CANCEL/STATS/CLOSE/QUIT still run so in-flight results can
    /// finish paging out.
    pub(crate) fn handle(&mut self, req: Request, draining: bool, out: &mut Vec<u8>) -> Flow {
        if draining
            && matches!(
                req,
                Request::Query { .. } | Request::Prepare { .. } | Request::Execute { .. }
            )
        {
            Response::from_error(&Error::busy("server shutting down; no new queries"))
                .encode_into(out);
            return Flow::Continue;
        }
        let mut flow = Flow::Continue;
        let resp = match req {
            // A typed error, and the connection stays usable — the
            // documented contract is that only a *failed handshake*
            // kills the session.
            Request::Hello { .. } => Err(Error::protocol("HELLO after handshake")),
            Request::Query { sql } => self.query(&sql),
            Request::Prepare { sql } => self.prepare(&sql),
            Request::Execute { stmt, params } => self.execute(stmt, &params),
            Request::Fetch { cursor } => {
                // A page is encoded straight from the cursor's columns;
                // there is no `Response` to build first.
                let payload_at = out.len();
                match self.fetch(cursor, out) {
                    Ok(()) => return Flow::Continue,
                    Err(e) => {
                        out.truncate(payload_at);
                        Err(e)
                    }
                }
            }
            Request::Stats => Ok(Response::Stats {
                counters: Box::new(self.session.engine().counters().snapshot()),
                extras: self.ctx.metrics.stats_extras(),
            }),
            Request::Cancel { cursor } => {
                // Idempotent: cancelling an unknown/finished cursor is OK.
                self.cursors.remove(&cursor);
                Ok(Response::Ok)
            }
            Request::Close { stmt } => {
                self.stmts.remove(&stmt);
                Ok(Response::Ok)
            }
            Request::Quit => {
                flow = Flow::Close;
                Ok(Response::Ok)
            }
            Request::CancelQuery { session } => {
                // OK whether or not a query was found running: the
                // target may have finished a moment ago, and the caller
                // cannot tell those races apart anyway.
                self.ctx.registry.cancel(session);
                Ok(Response::Ok)
            }
        };
        let resp = resp.unwrap_or_else(|e| Response::from_error(&e));
        // Serialization belongs to the profiled query this request ran
        // (the `wire_serialize` phase); a no-op when nothing was profiled.
        let started = Instant::now();
        resp.encode_into(out);
        if let Some(p) = &self.pending_profile {
            p.sink
                .add_phase_ns(Phase::WireSerialize, started.elapsed().as_nanos() as u64);
        }
        flow
    }

    fn ensure_cursor_capacity(&self) -> Result<()> {
        if self.cursors.len() >= MAX_OPEN_CURSORS {
            return Err(Error::busy(format!(
                "too many open cursors ({MAX_OPEN_CURSORS}); FETCH or CANCEL some first"
            )));
        }
        Ok(())
    }

    /// Arm a profile sink for the query about to run iff the slow-query
    /// log is configured; disabled servers never allocate one and every
    /// phase probe in the engine stays a single thread-local read.
    fn arm_profile(&self) -> Option<ProfileHandle> {
        self.ctx.slow_query_ms.map(|_| ProfileSink::handle())
    }

    fn query(&mut self, sql: &str) -> Result<Response> {
        self.ensure_cursor_capacity()?;
        let sink = self.arm_profile();
        let stream = {
            let _scope = sink.as_ref().map(|s| ProfileScope::enter(Arc::clone(s)));
            let session = &self.session;
            self.ctx
                .run_registered(|token| session.query_with_guard(sql, token))?
        };
        if let Some(sink) = sink {
            self.pending_profile = Some(PendingProfile {
                sink,
                fingerprint: sql_fingerprint(sql),
            });
        }
        Ok(self.open_stream_cursor(stream))
    }

    fn prepare(&mut self, sql: &str) -> Result<Response> {
        if self.stmts.len() >= MAX_PREPARED_STMTS {
            return Err(Error::busy(format!(
                "too many prepared statements ({MAX_PREPARED_STMTS}); CLOSE some first"
            )));
        }
        let prepared = self.session.prepare(sql)?;
        let n_params = prepared.n_params() as u16;
        let id = self.fresh_id();
        self.stmts.insert(id, (prepared, sql_fingerprint(sql)));
        Ok(Response::Stmt { id, n_params })
    }

    fn execute(&mut self, stmt: u32, params: &[Value]) -> Result<Response> {
        self.ensure_cursor_capacity()?;
        let (prepared, fingerprint) = self
            .stmts
            .get(&stmt)
            .ok_or_else(|| Error::exec(format!("no such prepared statement: {stmt}")))?;
        let fingerprint = *fingerprint;
        let sink = self.arm_profile();
        let stream = {
            let _scope = sink.as_ref().map(|s| ProfileScope::enter(Arc::clone(s)));
            self.ctx
                .run_registered(|token| prepared.bind(params)?.stream_with_guard(token))?
        };
        if let Some(sink) = sink {
            self.pending_profile = Some(PendingProfile { sink, fingerprint });
        }
        Ok(self.open_stream_cursor(stream))
    }

    /// End-of-request bookkeeping: if this request ran a profiled
    /// `QUERY`/`EXECUTE` and its total server-side latency crossed the
    /// slow-query threshold, emit one structured log line and count it.
    /// The profile is consumed either way — each query is judged once.
    pub(crate) fn finish_request(&mut self, elapsed: Duration) {
        let Some(p) = self.pending_profile.take() else {
            return;
        };
        let Some(threshold_ms) = self.ctx.slow_query_ms else {
            return;
        };
        let elapsed_ms = elapsed.as_millis() as u64;
        if elapsed_ms < threshold_ms {
            return;
        }
        let prof = p.sink.snapshot();
        self.session.engine().counters().add_slow_query();
        eprintln!(
            "slow-query session={} fp={:016x} elapsed_ms={} strategy={} cache={} {}",
            self.ctx.session_id,
            p.fingerprint,
            elapsed_ms,
            prof.strategy.as_deref().unwrap_or("-"),
            prof.cache.label(),
            prof,
        );
    }

    fn open_stream_cursor(&mut self, stream: QueryStream) -> Response {
        let columns = stream
            .columns()
            .iter()
            .zip(stream.schema().fields())
            .map(|(label, f)| ColumnDesc {
                label: label.clone(),
                ident: f.name.clone(),
                dtype: f.data_type,
            })
            .collect();
        let id = self.fresh_id();
        self.cursors.insert(id, Box::new(stream));
        Response::Cursor { id, columns }
    }

    /// Append the `BATCH` payload of `cursor`'s next page to `out`.
    fn fetch(&mut self, cursor: u32, out: &mut Vec<u8>) -> Result<()> {
        let cur = self
            .cursors
            .get_mut(&cursor)
            .ok_or_else(|| Error::exec(format!("no such cursor: {cursor}")))?;
        let paged = encode_next_page(cur, out);
        // A cursor that errored can never be drained; drop it so it does
        // not hold the connection open through shutdown.
        if paged.is_err() || cur.rows_remaining() == 0 {
            self.cursors.remove(&cursor);
        }
        paged
    }
}

/// FNV-1a over the SQL as the plan cache normalises it
/// ([`normalize_sql`]: case folded and whitespace runs and `--` comments
/// collapsed outside string literals): the same statement modulo layout
/// shares a fingerprint, so slow-query lines can be grouped by statement
/// shape without logging (potentially sensitive) literal SQL text.
fn sql_fingerprint(sql: &str) -> u64 {
    normalize_sql(sql)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

// A parked connection's `Conn` is dispatched to whichever worker frees
// up first, so it crosses threads between requests (unlike the old
// session-per-connection model, where one thread owned it for life).
// Everything inside — Session, prepared statements, streaming cursors —
// must therefore be Send, and this keeps that a compile-time fact.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Conn>();
};

#[cfg(test)]
mod tests {
    use super::sql_fingerprint;

    #[test]
    fn fingerprint_folds_case_and_whitespace() {
        let a = sql_fingerprint("SELECT  a1\n\tFROM r ");
        let b = sql_fingerprint("select a1 from r");
        assert_eq!(a, b, "layout and case must not change the fingerprint");
        assert_ne!(a, sql_fingerprint("select a2 from r"));
        assert_ne!(a, sql_fingerprint("select a1 from r where a1 > 1"));
        // A `--` comment is layout; the case of a string literal is not.
        let c = sql_fingerprint("select a1 -- the first column\nfrom r");
        assert_eq!(a, c, "a comment must not change the fingerprint");
        let lit = |s: &str| sql_fingerprint(&format!("select a1 from r where s = '{s}'"));
        assert_ne!(
            lit("Bob"),
            lit("BOB"),
            "literal case must change the fingerprint"
        );
        assert_eq!(
            lit("Bob"),
            sql_fingerprint("SELECT a1 FROM r WHERE s = 'Bob'")
        );
    }
}
