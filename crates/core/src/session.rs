//! Session-centric query API: prepared statements, parameter binding and
//! streaming results.
//!
//! The paper frames NoDB as an exploration *loop* — "point to your data
//! and start querying immediately" — and exploration means the same query
//! shapes fired over and over with shifting constants. A [`Session`] is a
//! lightweight handle over a shared [`Engine`] built for that loop:
//!
//! * [`Session::prepare`] parses and plans once; [`Prepared::bind`]
//!   substitutes `?` parameters per execution with zero further parse or
//!   plan work;
//! * [`Session::query`] / [`BoundStatement::stream`] return a
//!   [`QueryStream`] that pages the result instead of one monolithic row
//!   vector, so large results can be paged or abandoned early — as
//!   borrowed typed columns ([`QueryStream::next_columns`], what the wire
//!   server encodes from) or as [`RowBatch`]es built from them.
//!   [`Session::query`] takes every statement kind: a SELECT,
//!   `CREATE TABLE .. AS SELECT ..` (the stream pages the registered
//!   table's columns) and `EXPLAIN [ANALYZE]` (one `plan` column of
//!   listing lines);
//! * [`Session::sql`] is the one-shot path — the same statements,
//!   collected — served through the engine plan cache so even
//!   un-prepared repeats skip the SQL front end;
//! * [`Session::register_result`] turns any [`QueryOutput`] into a
//!   queryable in-memory table — the answer to "where are my results?":
//!   in the catalog, next to the raw files they came from.
//!
//! Sessions are cheap (an `Arc` and a batch size) and thread-safe to
//! create per connection; all heavy state lives in the shared engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use nodb_exec::ProjectionCursor;
use nodb_sql::{OutputExpr, Plan};
use nodb_store::RowBatch;
use nodb_types::profile::Phase;
use nodb_types::{
    CancelToken, ColumnData, ColumnPage, CountersSnapshot, Error, Field, ProfileHandle,
    QueryContext, Result, Schema, Value, WorkCounters,
};

use crate::config::{LoadingStrategy, DEFAULT_BATCH_SIZE};
use crate::engine::{Engine, QueryOutput, QueryStats};

/// A query session over a shared engine.
///
/// ```no_run
/// use std::sync::Arc;
/// use nodb_core::{Engine, EngineConfig, Session};
/// use nodb_types::Value;
///
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// engine.register_table("r", "/data/readings.csv")?;
/// let session = Session::new(Arc::clone(&engine));
///
/// // Prepare once, bind per exploration step.
/// let stmt = session.prepare("select sum(a1) from r where a1 > ? and a1 < ?")?;
/// for (lo, hi) in [(0, 10), (10, 20)] {
///     let out = stmt.bind(&[Value::Int(lo), Value::Int(hi)])?.execute()?;
///     println!("{:?}", out.scalar());
/// }
///
/// // Results are data: keep one and query it again.
/// let top = session.sql("select a1, a2 from r order by a2 desc limit 100")?;
/// session.register_result("top100", &top)?;
/// let n = session.sql("select count(*) from top100")?;
/// # Ok::<(), nodb_types::Error>(())
/// ```
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
    batch_size: usize,
}

impl Session {
    /// A session over `engine`, streaming batches of 1024 rows.
    pub fn new(engine: Arc<Engine>) -> Session {
        Session {
            engine,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Override the rows-per-batch of streams this session produces.
    pub fn with_batch_size(mut self, rows: usize) -> Session {
        self.batch_size = rows.max(1);
        self
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Parse and plan `sql` once, for repeated parameterised execution.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (plan, deps) = self.engine.plan_select_with_deps(sql)?;
        Ok(Prepared {
            engine: Arc::clone(&self.engine),
            sql: sql.to_owned(),
            state: Mutex::new(PreparedState { plan, deps }),
            batch_size: self.batch_size,
        })
    }

    /// Execute one statement and materialise the full result; see
    /// [`Engine::sql`]. Repeat SELECTs hit the engine plan cache.
    pub fn sql(&self, text: &str) -> Result<QueryOutput> {
        self.engine.sql(text)
    }

    /// Execute one statement — SELECT, `CREATE TABLE .. AS SELECT ..` or
    /// `EXPLAIN [ANALYZE]` — and stream the result batch by batch; see
    /// [`Engine::stream_statement`].
    pub fn query(&self, text: &str) -> Result<QueryStream> {
        self.engine.stream_statement(text, self.batch_size)
    }

    /// Register a query result as an in-memory table. Column labels are
    /// sanitised into SQL identifiers (`sum(a1)` → `sum_a1`) and
    /// deduplicated; see [`Engine::register_result`].
    pub fn register_result(&self, name: &str, output: &QueryOutput) -> Result<()> {
        self.engine.register_result(name, output)
    }

    /// [`Session::query`] under a cancellation guard: `token` is installed
    /// as the calling thread's ambient [`CancelToken`] for the duration of
    /// planning and execution, so cancelling it (or its deadline firing)
    /// aborts the query mid-pipeline with [`Error::Cancelled`] /
    /// [`Error::Timeout`].
    ///
    /// A cancelled cold load leaves the catalog, adaptive store and
    /// positional map either untouched or in a valid loaded state — the
    /// next (uncancelled) query behaves exactly as if the cancelled one
    /// had never run.
    pub fn query_with_guard(&self, text: &str, token: &CancelToken) -> Result<QueryStream> {
        run_guarded(&self.engine, token, || self.query(text))
    }

    /// [`Session::sql`] under a cancellation guard; see
    /// [`Session::query_with_guard`] for the guard semantics.
    pub fn sql_with_guard(&self, text: &str, token: &CancelToken) -> Result<QueryOutput> {
        run_guarded(&self.engine, token, || self.sql(text))
    }
}

/// Run `f` under a query context carrying `token` and the engine's
/// per-query memory guard (if metering is configured), bumping the
/// cancelled/timed-out/shed counters on a tripped exit.
///
/// This is also a panic-isolation boundary: a panic anywhere under `f`
/// (planner, loader, operators) is caught and converted into a typed
/// [`Error::Internal`], so one buggy query cannot take an embedding
/// process — or the server's worker pool — down with it. Unwinding drops
/// the context and its memory guard, returning the query's reservation to
/// the engine pool.
fn run_guarded<T>(
    engine: &Engine,
    token: &CancelToken,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ctx = QueryContext {
            cancel: Some(token.clone()),
            memory: engine.memory_guard(),
            ..QueryContext::current()
        }
        .enter();
        f()
    }))
    .unwrap_or_else(|payload| {
        engine.counters().add_panic_contained();
        Err(Error::from_panic("query execution", payload))
    });
    match &out {
        Err(Error::Cancelled(_)) => engine.counters().add_query_cancelled(),
        Err(Error::Timeout(_)) => engine.counters().add_query_timed_out(),
        Err(Error::ResourceExhausted(_)) => engine.counters().add_query_shed(),
        _ => {}
    }
    out
}

struct PreparedState {
    plan: Arc<Plan>,
    /// `(table, schema epoch)` the plan was resolved against.
    deps: Vec<(String, u64)>,
}

/// A statement parsed and planned once.
///
/// Binding substitutes `?` parameters into the cached plan — no lexing,
/// parsing or name resolution happens again. If a referenced raw file
/// changes on disk (schema re-inference), the statement transparently
/// re-plans itself on next use.
pub struct Prepared {
    engine: Arc<Engine>,
    sql: String,
    state: Mutex<PreparedState>,
    batch_size: usize,
}

impl Prepared {
    /// Number of `?` parameters the statement declares.
    pub fn n_params(&self) -> usize {
        self.state.lock().plan.n_params
    }

    /// The statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The cached plan, re-planned only if a dependency's schema changed.
    fn current_plan(&self) -> Result<Arc<Plan>> {
        let mut state = self.state.lock();
        let mut fresh = true;
        for (table, epoch) in &state.deps {
            if self.engine.ensured_epoch(table)? != *epoch {
                fresh = false;
                break;
            }
        }
        if !fresh {
            let (plan, deps) = self.engine.plan_select_with_deps(&self.sql)?;
            *state = PreparedState { plan, deps };
        }
        Ok(Arc::clone(&state.plan))
    }

    /// Bind parameter values, producing an executable statement. `params`
    /// must match [`Prepared::n_params`] in count and each value must be
    /// type-compatible with its slot.
    pub fn bind(&self, params: &[Value]) -> Result<BoundStatement> {
        let plan = self.current_plan()?;
        let plan = if plan.n_params == 0 && params.is_empty() {
            plan
        } else {
            Arc::new(plan.bind(params)?)
        };
        Ok(BoundStatement {
            engine: Arc::clone(&self.engine),
            plan,
            batch_size: self.batch_size,
        })
    }

    /// Bind and materialise in one call.
    pub fn execute(&self, params: &[Value]) -> Result<QueryOutput> {
        self.bind(params)?.execute()
    }

    /// Bind and stream in one call.
    pub fn stream(&self, params: &[Value]) -> Result<QueryStream> {
        self.bind(params)?.stream()
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("n_params", &self.n_params())
            .finish_non_exhaustive()
    }
}

/// A plan with every parameter bound: ready to execute, repeatedly.
pub struct BoundStatement {
    engine: Arc<Engine>,
    plan: Arc<Plan>,
    batch_size: usize,
}

impl std::fmt::Debug for BoundStatement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundStatement")
            .field("columns", &self.plan.output_names)
            .finish_non_exhaustive()
    }
}

impl BoundStatement {
    /// Execute and materialise the full result.
    pub fn execute(&self) -> Result<QueryOutput> {
        self.stream()?.collect_output()
    }

    /// Execute, streaming the result batch by batch.
    pub fn stream(&self) -> Result<QueryStream> {
        let started = Instant::now();
        let before = self.engine.counters().snapshot();
        self.engine
            .stream_plan(&self.plan, self.batch_size, started, before)
    }

    /// [`BoundStatement::stream`] under a cancellation guard; see
    /// [`Session::query_with_guard`] for the guard semantics.
    pub fn stream_with_guard(&self, token: &CancelToken) -> Result<QueryStream> {
        run_guarded(&self.engine, token, || self.stream())
    }

    /// Output column labels.
    pub fn columns(&self) -> &[String] {
        &self.plan.output_names
    }
}

/// What a query execution yields: a selection over typed columns — the
/// store's for a scalar result, freshly computed ones for an aggregate or
/// grouped result — paged as borrowed [`ColumnPage`]s and never
/// transposed on the way.
pub(crate) type StreamBody = ProjectionCursor<BTreeMap<usize, Arc<ColumnData>>>;

/// A body over already-projected dense output `columns` (a result-cache
/// payload): output `k` is column `k`, every row in order.
pub(crate) fn dense_body(columns: &[Arc<ColumnData>]) -> StreamBody {
    let n_rows = columns.first().map_or(0, |c| c.len());
    ProjectionCursor::over_all(
        columns.iter().cloned().enumerate().collect(),
        n_rows,
        (0..columns.len()).map(nodb_exec::Expr::Col).collect(),
    )
}

/// An executing query, consumed page by page.
///
/// Obtained from [`Session::query`], [`Prepared::stream`] or
/// [`BoundStatement::stream`]. Dropping the stream abandons the rest of
/// the result with no further work. The stream is fed by the engine's
/// morsel-driven parallel pipeline: aggregate and grouped bodies arrive
/// as result columns merged from per-worker partials, and scalar bodies
/// stay a selection vector (built in parallel) over the store's columns.
/// [`QueryStream::next_columns`] hands out each page in that shape;
/// [`QueryStream::next_batch`] and [`QueryStream::collect_output`] are
/// the row view over it.
pub struct QueryStream {
    columns: Vec<String>,
    schema: Schema,
    batch_size: usize,
    body: StreamBody,
    started: Instant,
    before: CountersSnapshot,
    counters: Arc<WorkCounters>,
    strategy: LoadingStrategy,
    /// The query's context captured at construction. Its profile sink
    /// (None when profiling is not armed) receives paging work done after
    /// the arming scope has been left, so [`QueryStream::stats`] can
    /// report it; its memory guard (None when unmetered) keeps what the
    /// stream pins — selection vector, gathered columns — reserved until
    /// the stream is drained or dropped.
    ctx: QueryContext,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream")
            .field("columns", &self.columns)
            .field("rows_remaining", &self.rows_remaining())
            .finish_non_exhaustive()
    }
}

/// Run `f`, folding its wall time into `profile` (if armed) as `phase`.
fn timed<T>(profile: &Option<ProfileHandle>, phase: Phase, f: impl FnOnce() -> T) -> T {
    let Some(sink) = profile else {
        return f();
    };
    let started = Instant::now();
    let out = f();
    sink.add_phase_ns(phase, started.elapsed().as_nanos() as u64);
    out
}

impl QueryStream {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        columns: Vec<String>,
        schema: Schema,
        batch_size: usize,
        body: StreamBody,
        started: Instant,
        before: CountersSnapshot,
        counters: Arc<WorkCounters>,
        strategy: LoadingStrategy,
    ) -> QueryStream {
        QueryStream {
            columns,
            schema,
            batch_size: batch_size.max(1),
            body,
            started,
            before,
            counters,
            strategy,
            ctx: QueryContext::current(),
        }
    }

    /// Output column labels (as written in the query).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Schema of emitted batches (labels sanitised into identifiers).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows still to be emitted.
    pub fn rows_remaining(&self) -> usize {
        self.body.remaining()
    }

    /// The profile sink this query was armed with, if any — where a
    /// consumer that serialises pages itself (the wire server) reports
    /// that time as [`Phase::WireSerialize`].
    pub fn profile(&self) -> Option<&ProfileHandle> {
        self.ctx.profile.as_ref()
    }

    /// The next page as typed columns, or `None` when the result is
    /// exhausted. Evaluating a page's literal/arithmetic outputs counts
    /// as [`Phase::WarmKernel`] in the query's profile.
    pub fn next_columns(&mut self) -> Result<Option<ColumnPage<'_>>> {
        let batch = self.batch_size;
        let body = &mut self.body;
        timed(&self.ctx.profile, Phase::WarmKernel, move || {
            body.next_page(batch)
        })
    }

    /// Produce the next batch of rows, or `None` when the result is
    /// exhausted. Building the rows counts as [`Phase::WarmKernel`].
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let batch = self.batch_size;
        let body = &mut self.body;
        let rows = timed(&self.ctx.profile, Phase::WarmKernel, move || {
            body.next_page(batch).map(|page| page.map(|p| p.to_rows()))
        })?;
        Ok(rows.map(|rows| RowBatch {
            schema: self.schema.clone(),
            rows,
        }))
    }

    /// Statistics accumulated so far (work deltas since the stream began).
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            elapsed: self.started.elapsed(),
            work: self.counters.snapshot().since(&self.before),
            strategy: self.strategy,
            profile: self
                .ctx
                .profile
                .as_ref()
                .map(|h| h.snapshot())
                .unwrap_or_default(),
        }
    }

    /// Drain every remaining row into a [`QueryOutput`] (rows already
    /// taken via [`QueryStream::next_batch`] are not replayed).
    pub fn collect_output(mut self) -> Result<QueryOutput> {
        self.batch_size = usize::MAX;
        let rows = self.next_batch()?.map(|b| b.rows).unwrap_or_default();
        Ok(QueryOutput {
            columns: self.columns.clone(),
            schema: self.schema.clone(),
            rows,
            stats: self.stats(),
        })
    }

    /// Gather the rest of the result into dense typed columns, one per
    /// output, and page on over those — what `CREATE TABLE .. AS`
    /// registers.
    pub(crate) fn gather(&mut self) -> Result<Vec<Arc<ColumnData>>> {
        let columns: Vec<Arc<ColumnData>> = self
            .body
            .gather_remaining()?
            .into_iter()
            .map(Arc::new)
            .collect();
        self.body = dense_body(&columns);
        Ok(columns)
    }
}

impl Iterator for QueryStream {
    type Item = Result<RowBatch>;

    fn next(&mut self) -> Option<Result<RowBatch>> {
        self.next_batch().transpose()
    }
}

/// The schema of a plan's result: each output's type under the one rule
/// the kernels produce it by ([`Expr::result_type`](nodb_exec::Expr::result_type),
/// [`AggSpec::result_type`](nodb_exec::AggSpec::result_type)) over the
/// plan's column types, labels sanitised into unique identifiers. The
/// advertised schema, every page and a table registered from the result
/// therefore agree.
pub(crate) fn output_schema(plan: &Plan) -> Result<Schema> {
    let col_type = |c: usize| plan.combined_schema.field(c).map(|f| f.data_type);
    let fields = plan
        .output
        .iter()
        .zip(unique_identifiers(&plan.output_names))
        .map(|(o, name)| {
            let ty = match o {
                OutputExpr::Scalar(e) => e.result_type(&col_type)?,
                OutputExpr::Agg(a) => a.result_type(&col_type)?,
            };
            Ok(Field::new(name, ty))
        })
        .collect::<Result<Vec<Field>>>()?;
    Schema::new(fields)
}

/// Sanitise a list of output labels into unique identifiers: each label
/// is squashed to lowercase alphanumerics and underscores, and
/// collisions get `_2`, `_3`, ... suffixes.
fn unique_identifiers(labels: &[String]) -> Vec<String> {
    let mut names: Vec<String> = Vec::with_capacity(labels.len());
    for (i, raw) in labels.iter().enumerate() {
        let base = sanitize_identifier(raw, i);
        let mut name = base.clone();
        let mut suffix = 2;
        while names.iter().any(|n| n == &name) {
            name = format!("{base}_{suffix}");
            suffix += 1;
        }
        names.push(name);
    }
    names
}

/// Squash an arbitrary output label into a SQL identifier: alphanumerics
/// keep (lowercased), runs of anything else become one `_`, and a name
/// that ends up empty or digit-led gets a positional fallback.
fn sanitize_identifier(raw: &str, ordinal: usize) -> String {
    let mut s = String::with_capacity(raw.len());
    let mut prev_underscore = false;
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() {
            s.push(c.to_ascii_lowercase());
            prev_underscore = false;
        } else if !prev_underscore {
            s.push('_');
            prev_underscore = true;
        }
    }
    let trimmed = s.trim_matches('_');
    if trimmed.is_empty() {
        format!("c{}", ordinal + 1)
    } else if trimmed.starts_with(|c: char| c.is_ascii_digit()) {
        format!("c{}_{}", ordinal + 1, trimmed)
    } else {
        trimmed.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_labels_to_identifiers() {
        assert_eq!(sanitize_identifier("sum(a1)", 0), "sum_a1");
        assert_eq!(sanitize_identifier("count(*)", 1), "count");
        assert_eq!(sanitize_identifier("a2 + a3", 2), "a2_a3");
        assert_eq!(sanitize_identifier("r.a1", 0), "r_a1");
        assert_eq!(sanitize_identifier("??", 4), "c5");
        assert_eq!(sanitize_identifier("2x", 0), "c1_2x");
        assert_eq!(sanitize_identifier("Total", 0), "total");
    }
}
