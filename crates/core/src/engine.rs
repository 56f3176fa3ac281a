//! The NoDB engine.
//!
//! "All you need to do to use it, is point to your data and you can start
//! querying immediately with SQL queries." [`Engine::register_table`] links
//! a raw CSV file under a name; [`Engine::sql`] parses, plans and runs a
//! query, letting the configured [`LoadingStrategy`]
//! fetch whatever the query needs from the raw files on the fly.
//!
//! [`LoadingStrategy`]: crate::LoadingStrategy

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use nodb_exec::{
    filter_positions, parallel_filter_positions, parallel_group_columns,
    parallel_hash_join_positions, parallel_join_group_columns, sort_positions, AggSpec, Expr,
    JoinSide, ProjectionCursor,
};
use nodb_sql::{OutputExpr, Plan, Statement};
use nodb_store::persist;
use nodb_types::profile::{self, CacheOutcome, Phase, ProfileScope, ProfileSink, QueryProfile};
use nodb_types::resource::{self, MemoryGuard, MemoryPool};
use nodb_types::{
    ColumnData, Conjunction, CountersSnapshot, DataType, Error, Field, QueryContext, Result,
    Schema, Value, WorkCounters,
};

use crate::catalog::Catalog;
use crate::config::{EngineConfig, LoadingStrategy};
use crate::plan_cache::{normalize_sql, PlanCache, PlanDeps};
use crate::policy::{materialize, Materialized};
use crate::result_cache::{
    cols_bytes, family_fingerprint, plan_fingerprint, subsumable_constraint, RangeConstraint,
    ResultCache,
};
use crate::session::{dense_body, output_schema, QueryStream, Session, StreamBody};

/// Result of one SQL query.
#[derive(Debug)]
pub struct QueryOutput {
    /// Output column labels.
    pub columns: Vec<String>,
    /// The result's schema: the labels sanitised into identifiers, and
    /// each column's type — what [`Engine::register_result`] registers.
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Convenience: the single value of a single-row single-column result
    /// (common for aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.rows.first()) {
            (1, Some(r)) if r.len() == 1 => r.first(),
            _ => None,
        }
    }

    /// Write the result as CSV (header row + data rows). Fields containing
    /// the delimiter, quotes or newlines are quoted RFC-4180 style, so the
    /// output is itself registrable as a nodb table — results can feed the
    /// next exploration step as new raw files.
    pub fn write_csv(&self, w: &mut impl std::io::Write) -> Result<()> {
        fn field(s: &str) -> std::borrow::Cow<'_, str> {
            if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
                std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
            } else {
                std::borrow::Cow::Borrowed(s)
            }
        }
        let header: Vec<String> = self.columns.iter().map(|c| field(c).into_owned()).collect();
        writeln!(w, "{}", header.join(","))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::Str(s) => field(s).into_owned(),
                    other => other.to_string(),
                })
                .collect();
            writeln!(w, "{}", cells.join(","))?;
        }
        Ok(())
    }

    /// [`QueryOutput::write_csv`] to a file path.
    pub fn save_csv(&self, path: &Path) -> Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_csv(&mut f)?;
        use std::io::Write as _;
        f.flush()?;
        Ok(())
    }
}

/// Per-query statistics.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Wall-clock time of the whole query (planning + loading + execution).
    pub elapsed: Duration,
    /// Work-counter deltas attributable to this query.
    pub work: CountersSnapshot,
    /// The loading strategy that served it.
    pub strategy: LoadingStrategy,
    /// Per-phase execution profile. Empty (all zeros) unless a
    /// [`ProfileScope`] was ambient while the query ran — `EXPLAIN
    /// ANALYZE` and the server's slow-query log arm one; plain queries
    /// pay a single thread-local read per phase probe and record
    /// nothing.
    pub profile: QueryProfile,
}

/// Diagnostics about a table's derived state.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Inferred schema (None before first touch).
    pub schema: Option<Schema>,
    /// Fully loaded column ordinals.
    pub loaded_columns: Vec<usize>,
    /// Number of cached fragments.
    pub fragments: usize,
    /// Adaptive-store bytes in memory.
    pub store_bytes: usize,
    /// Positional-map bytes in memory.
    pub posmap_bytes: usize,
    /// Number of file segments (1 = unsplit original).
    pub segments: usize,
    /// Store hit rate reported by the workload monitor.
    pub hit_rate: f64,
}

/// Outcome of a result-cache consultation: a fully formed stream served
/// from cached columns, or a miss carrying the schema epochs captured before
/// execution (the deps any installed entry must be tagged with).
enum CacheLookup {
    Served(Box<QueryStream>),
    Miss(PlanDeps),
}

/// The engine: a catalog of linked raw files plus a loading policy.
pub struct Engine {
    catalog: RwLock<Catalog>,
    cfg: EngineConfig,
    counters: Arc<WorkCounters>,
    seq: AtomicU64,
    plan_cache: PlanCache,
    result_cache: ResultCache,
    /// Engine-wide reservation pool for query-execution state; every
    /// query's [`MemoryGuard`] reserves from it. Uncapped (but still
    /// metering peaks) unless `engine_mem_bytes` is set.
    mem_pool: MemoryPool,
    /// One-shot latch for wiring the degradation-ladder reclaimer, which
    /// needs a `Weak<Engine>` and so cannot be built in [`Engine::new`].
    reclaimer_installed: std::sync::atomic::AtomicBool,
}

impl Engine {
    /// Engine with the given configuration. The single `threads` knob is
    /// propagated into the tokenizer options here, so `cfg.threads`
    /// governs every parallel stage (phase-1 scanning, morsel pipelines,
    /// parallel kernels) without touching `cfg.csv`.
    pub fn new(mut cfg: EngineConfig) -> Engine {
        // Arm failpoints from NODB_FAILPOINTS once per process so fault
        // injection works for any embedding without extra wiring. Once,
        // because re-arming would reset per-site hit counts.
        static FAILPOINTS_ENV: std::sync::Once = std::sync::Once::new();
        FAILPOINTS_ENV.call_once(nodb_types::failpoints::init_from_env);
        cfg.threads = cfg.threads.max(1);
        cfg.csv.threads = cfg.threads;
        cfg.morsel_rows = cfg.morsel_rows.max(1);
        let plan_cache = PlanCache::new(cfg.plan_cache_capacity);
        let result_cache = ResultCache::new(cfg.result_cache_bytes, cfg.result_cache_max_entries);
        let mem_pool = MemoryPool::new(cfg.engine_mem_bytes);
        Engine {
            catalog: RwLock::new(Catalog::new()),
            cfg,
            counters: Arc::new(WorkCounters::new()),
            seq: AtomicU64::new(0),
            plan_cache,
            result_cache,
            mem_pool,
            reclaimer_installed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The engine-wide memory reservation pool (diagnostics: reserved
    /// bytes, peak, cap).
    pub fn memory_pool(&self) -> &MemoryPool {
        &self.mem_pool
    }

    /// A fresh per-query allocation meter, or `None` when neither
    /// `query_mem_bytes` nor `engine_mem_bytes` is configured (the
    /// unmetered default costs nothing at charge sites).
    pub fn memory_guard(&self) -> Option<MemoryGuard> {
        if self.cfg.query_mem_bytes.is_none() && self.cfg.engine_mem_bytes.is_none() {
            return None;
        }
        Some(MemoryGuard::new(
            self.cfg.query_mem_bytes,
            Some(self.mem_pool.clone()),
        ))
    }

    /// Wire the pool's degradation ladder to this engine (idempotent).
    /// Needs an `Arc` receiver for the `Weak` the reclaimer holds, so it
    /// runs on first session creation rather than in [`Engine::new`]; an
    /// engine used without an `Arc` simply sheds without the ladder.
    fn ensure_reclaimer(self: &Arc<Self>) {
        use std::sync::atomic::Ordering as O;
        if self.reclaimer_installed.swap(true, O::SeqCst) {
            return;
        }
        let weak = Arc::downgrade(self);
        self.mem_pool.set_reclaimer(Box::new(move |need| {
            weak.upgrade().map(|e| e.release_memory(need)).unwrap_or(0)
        }));
    }

    /// The graceful-degradation ladder, run by the memory pool before any
    /// query is shed (and on demand, e.g. by an operator): free at least
    /// `target_bytes` of *cache* memory — first the result cache, then
    /// the adaptive store's least-recently-used items table by table —
    /// and return the bytes actually freed. Resident result tables are
    /// never touched (they have no backing file to reload from).
    ///
    /// Entry locks are only *tried* here, never waited on: the ladder
    /// runs on whatever thread an over-budget charge happens to occur,
    /// and the parallel cold loader charges from its workers while the
    /// table's entry lock is held by their driver (or by this very
    /// thread, on the serial path). Blocking on `write()` for that table
    /// would deadlock the scan against its own reclaim — a locked entry
    /// is in active use anyway, so its columns are the wrong ones to
    /// evict.
    pub fn release_memory(&self, target_bytes: usize) -> usize {
        let mut freed = self.result_cache.bytes_used();
        self.result_cache.clear();
        if freed >= target_bytes {
            return freed;
        }
        for name in self.table_names() {
            let Ok(entry) = self.catalog.read().get(&name) else {
                continue;
            };
            let Some(mut e) = entry.try_write() else {
                continue;
            };
            if e.resident {
                continue;
            }
            let used = e.store.bytes_used();
            let still_needed = target_bytes - freed;
            let goal = used.saturating_sub(still_needed);
            freed += e.store.evict_to_budget(goal, &self.counters);
            if freed >= target_bytes {
                break;
            }
        }
        freed
    }

    /// The engine result cache (diagnostics: entry count, bytes, clear).
    pub fn result_cache(&self) -> &ResultCache {
        &self.result_cache
    }

    /// A [`Session`] over this engine (sessions are cheap; make one per
    /// connection or exploration thread).
    pub fn session(self: &Arc<Self>) -> Session {
        self.ensure_reclaimer();
        Session::new(Arc::clone(self))
    }

    /// Engine with default configuration (adaptive column loads).
    pub fn with_defaults() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Shared work counters (benchmarks snapshot these around queries).
    pub fn counters(&self) -> &WorkCounters {
        &self.counters
    }

    /// Link a raw CSV file as a queryable table. Nothing is read yet.
    pub fn register_table(&self, name: &str, path: impl Into<PathBuf>) -> Result<()> {
        self.catalog
            .write()
            .register(name, path, self.cfg.store_dir.as_deref())
    }

    /// Remove a table link and its derived state — including any split
    /// segments persisted under the store directory, so re-registering a
    /// changed file under the same name can never resurrect stale
    /// columns.
    pub fn unregister_table(&self, name: &str) -> bool {
        let removed = self.catalog.write().remove(name);
        match removed {
            Some(entry) => {
                entry.read().drop_derived_files();
                // The epoch check would catch these lazily (the dependency
                // resolves to no epoch at all); purge eagerly so the bytes
                // come back now and a same-name re-registration starts
                // from a provably empty slate.
                self.result_cache.purge_table(name);
                true
            }
            None => false,
        }
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    /// Diagnostics for one table.
    pub fn table_info(&self, name: &str) -> Result<TableInfo> {
        let entry = self.catalog.read().get(name)?;
        let e = entry.read();
        Ok(TableInfo {
            schema: e.schema_info.as_ref().map(|s| s.schema.clone()),
            loaded_columns: e.store.full_columns(),
            fragments: e.store.fragment_ids().len(),
            store_bytes: e.store.bytes_used(),
            posmap_bytes: e.posmap.approx_bytes(),
            segments: e.segments.as_ref().map(|s| s.segments().len()).unwrap_or(1),
            hit_rate: e.monitor.hit_rate(),
        })
    }

    /// Persist every fully loaded column of `name` as binary files in
    /// `dir` (used by restarts and the paper's cold-run experiments).
    pub fn persist_table(&self, name: &str, dir: &Path) -> Result<usize> {
        let entry = self.catalog.read().get(name)?;
        let e = entry.read();
        std::fs::create_dir_all(dir)?;
        let mut written = 0;
        for c in e.store.full_columns() {
            let col = e.store.peek_full(c).expect("listed");
            persist::write_column(&dir.join(format!("col{c}.bin")), col, &self.counters)?;
            written += 1;
        }
        Ok(written)
    }

    /// Restore previously persisted columns of `name` from `dir` into the
    /// adaptive store (the "cold start" path: binary deserialisation
    /// instead of CSV re-parsing).
    pub fn restore_table(&self, name: &str, dir: &Path) -> Result<usize> {
        let entry = self.catalog.read().get(name)?;
        let mut e = entry.write();
        e.ensure_current(&self.cfg.csv, self.cfg.infer_sample_rows, &self.counters)?;
        let ncols = e.schema()?.len();
        let now = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut restored = 0;
        for c in 0..ncols {
            let p = dir.join(format!("col{c}.bin"));
            if p.exists() {
                let col = persist::read_column(&p, &self.counters)?;
                e.store.insert_full(c, col, now);
                restored += 1;
            }
        }
        Ok(restored)
    }

    /// EXPLAIN: parse and plan the query, then describe the plan plus what
    /// the adaptive loader would have to fetch for it right now — without
    /// executing anything or touching the raw files beyond schema
    /// inference.
    pub fn explain(&self, text: &str) -> Result<String> {
        let ast = nodb_sql::parse(text)?;
        let mut schemas: HashMap<String, Schema> = HashMap::new();
        let mut table_names = vec![ast.table.clone()];
        if let Some(j) = &ast.join {
            table_names.push(j.table.clone());
        }
        for t in &table_names {
            let entry = self.catalog.read().get(t)?;
            let mut e = entry.write();
            e.ensure_current(&self.cfg.csv, self.cfg.infer_sample_rows, &self.counters)?;
            schemas.insert(t.to_ascii_lowercase(), e.schema()?.clone());
        }
        let plan = nodb_sql::plan(&ast, &schemas)?;
        let mut out = plan.render(self.cfg.strategy.label());
        let (needed_l, needed_r) = plan.referenced_per_table();
        for (t, needed) in [
            (&plan.table, needed_l),
            (
                &plan
                    .join
                    .as_ref()
                    .map(|j| j.table.clone())
                    .unwrap_or_default(),
                needed_r,
            ),
        ] {
            if t.is_empty() {
                continue;
            }
            let entry = self.catalog.read().get(t)?;
            let e = entry.read();
            let missing = e.store.missing_full(&needed);
            out.push_str(&format!(
                "-- {}: {} of {} referenced columns loaded; {} fragments cached{}\n",
                t,
                needed.len() - missing.len(),
                needed.len(),
                e.store.fragment_ids().len(),
                if missing.is_empty() {
                    "; no file trip needed for full-column strategies".to_owned()
                } else {
                    format!("; missing columns {missing:?} would load from file")
                }
            ));
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: execute the query under a fresh profile sink and
    /// render the same per-step listing as [`Engine::explain`], followed by
    /// the measured annotations — rows produced, wall clock, result-cache
    /// outcome, one line per phase that ran (exclusive self-time on the
    /// coordinating thread, so the phase times are disjoint and their sum
    /// is bounded by the wall clock), and the parallel-pipeline aggregates
    /// (morsels, steals, rows, bytes) recorded by the workers.
    pub fn explain_analyze(&self, text: &str) -> Result<String> {
        let started = Instant::now();
        let before = self.counters.snapshot();
        let sink = ProfileSink::handle();
        let (plan, out) = {
            let _scope = ProfileScope::enter(Arc::clone(&sink));
            let plan = self.plan_select(text)?;
            let out = self
                .stream_plan(&plan, usize::MAX, started, before)?
                .collect_output()?;
            (plan, out)
        };
        let elapsed = started.elapsed();
        let prof = sink.snapshot();
        let mut s = plan.render(self.cfg.strategy.label());
        s.push_str(&format!(
            "-- analyze: rows={} elapsed={} cache={}\n",
            out.rows.len(),
            profile::fmt_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64),
            prof.cache.label(),
        ));
        for (phase, ns, hits) in prof.phases() {
            s.push_str(&format!(
                "-- phase {}: {} ({} call{})\n",
                phase.label(),
                profile::fmt_ns(ns),
                hits,
                if hits == 1 { "" } else { "s" },
            ));
        }
        s.push_str(&format!(
            "-- workers: morsels={} steals={} rows={} bytes={}\n",
            prof.morsels, prof.steals, prof.rows, prof.bytes,
        ));
        s.push_str(&format!(
            "-- phase total: {} of {} wall\n",
            profile::fmt_ns(prof.total_phase_ns()),
            profile::fmt_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64),
        ));
        Ok(s)
    }

    /// `EXPLAIN [ANALYZE] <select>` as a stream: one `plan` column, one
    /// row per listing line — the shape lets EXPLAIN travel through every
    /// result path (sessions, the wire server, CSV export) unchanged.
    /// Plain EXPLAIN never executes; ANALYZE runs the query via
    /// [`Engine::explain_analyze`] and reports its measured profile.
    fn explain_stream(
        &self,
        text: &str,
        batch_size: usize,
        started: Instant,
        before: CountersSnapshot,
    ) -> Result<QueryStream> {
        let rest = after_keyword(text);
        let (analyze, body) = if leading_keyword(rest).eq_ignore_ascii_case("analyze") {
            (true, after_keyword(rest))
        } else {
            (false, rest)
        };
        if leading_keyword(body).is_empty() {
            return Err(Error::Plan("EXPLAIN needs a statement to describe".into()));
        }
        let listing = if analyze {
            self.explain_analyze(body)?
        } else {
            self.explain(body)?
        };
        let lines = ColumnData::from_strings(listing.lines().map(str::to_owned).collect());
        Ok(QueryStream::new(
            vec!["plan".to_owned()],
            Schema::new(vec![Field::new("plan", DataType::Str)])?,
            batch_size,
            dense_body(&[Arc::new(lines)]),
            started,
            before,
            Arc::clone(&self.counters),
            self.cfg.strategy,
        ))
    }

    /// Parse, plan and execute one SQL statement and collect its result;
    /// see [`Engine::stream_statement`] for the statements it takes.
    ///
    /// Repeat SELECTs are served from the engine plan cache (keyed on
    /// normalized text), skipping the lexer/parser/planner entirely; see
    /// the `plan_cache_hits`/`plan_cache_misses` work counters. For
    /// parameterised repetition and streaming results, use
    /// [`Session::prepare`](crate::Session::prepare).
    pub fn sql(&self, text: &str) -> Result<QueryOutput> {
        self.stream_statement(text, usize::MAX)?.collect_output()
    }

    /// Parse, plan and execute one SQL statement, paging its result in
    /// `batch_size`-row pages: a SELECT, `CREATE TABLE <t> AS SELECT ...`
    /// (which registers the result as an in-memory table and pages its
    /// columns), or `EXPLAIN [ANALYZE] <select>` (which pages the plan
    /// listing). Every statement answers through the same typed
    /// [`QueryStream`].
    pub fn stream_statement(&self, text: &str, batch_size: usize) -> Result<QueryStream> {
        let started = Instant::now();
        let before = self.counters.snapshot();
        let kw = leading_keyword(text);
        if kw.eq_ignore_ascii_case("create") {
            return match nodb_sql::parse_statement(text)? {
                Statement::CreateTableAs { name, query } => {
                    self.create_table_as(&name, &query, batch_size, started, before)
                }
                Statement::Select(_) => unreachable!("leading keyword was CREATE"),
            };
        }
        if kw.eq_ignore_ascii_case("explain") {
            return self.explain_stream(text, batch_size, started, before);
        }
        let plan = self.plan_select(text)?;
        self.stream_plan(&plan, batch_size, started, before)
    }

    /// `CREATE TABLE <name> AS SELECT ...`: run the defining query, gather
    /// its typed result columns once and register them directly in the
    /// catalog under the query's output schema (no row round-trip, no
    /// type re-inference). The returned stream pages those same columns.
    /// The defining SELECT is planned from its AST (DDL is rare; it does
    /// not go through the plan cache).
    fn create_table_as(
        &self,
        name: &str,
        query: &nodb_sql::AstQuery,
        batch_size: usize,
        started: Instant,
        before: CountersSnapshot,
    ) -> Result<QueryStream> {
        let (plan, _deps) = self.plan_query(query)?;
        let mut stream = self.stream_plan(&plan, batch_size, started, before)?;
        let columns = stream.gather()?;
        self.install_result(name, stream.schema().clone(), columns)?;
        Ok(stream)
    }

    /// Register a query result as an in-memory table: its columns, typed
    /// by the output's schema, go straight into the catalog's adaptive
    /// store, fully loaded, with no raw file behind them. Column names are
    /// the schema's: labels sanitised into SQL identifiers (`sum(a1)` →
    /// `sum_a1`, `count(*)` → `count`) and deduplicated with `_2`, `_3`,
    /// ... suffixes. Re-registering over an existing *result* table
    /// replaces it; shadowing a file-backed table is an error.
    pub fn register_result(&self, name: &str, output: &QueryOutput) -> Result<()> {
        let columns = output
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let values = output
                    .rows
                    .iter()
                    .map(|row| row.get(c).cloned().unwrap_or(Value::Null));
                ColumnData::from_values(f.data_type, values).map(Arc::new)
            })
            .collect::<Result<Vec<_>>>()?;
        self.install_result(name, output.schema.clone(), columns)
    }

    /// Put result `columns` into the catalog as table `name`.
    fn install_result(
        &self,
        name: &str,
        schema: Schema,
        columns: Vec<Arc<ColumnData>>,
    ) -> Result<()> {
        self.catalog
            .write()
            .register_result(name, schema, columns)?;
        // Replacing a result table mints a fresh globally-unique epoch, so
        // dependent cache entries are already unservable; drop them now
        // rather than on their next (failing) validation.
        self.result_cache.purge_table(name);
        Ok(())
    }

    /// Resolve a SELECT to a plan, via the plan cache. A hit re-uses the
    /// cached plan with zero parse/plan work (after confirming, per
    /// table, that the schema epoch is unchanged — which also performs
    /// the usual file-edit fingerprint check).
    pub(crate) fn plan_select(&self, text: &str) -> Result<Arc<Plan>> {
        Ok(self.plan_select_with_deps(text)?.0)
    }

    /// [`Engine::plan_select`] plus the `(table, schema epoch)` set the
    /// plan depends on — what [`Prepared`](crate::Prepared) revalidates.
    /// On a hit the deps are the cache entry's own (just confirmed
    /// current); on a miss they are captured at the same instant as the
    /// schemas the plan resolves against, so a concurrent file edit can
    /// never tag a stale plan with a fresh epoch.
    pub(crate) fn plan_select_with_deps(&self, text: &str) -> Result<(Arc<Plan>, PlanDeps)> {
        let _p = profile::phase(Phase::Plan);
        let key = normalize_sql(text);
        if let Some(hit) = self.plan_cache.get(&key, |t| self.ensured_epoch(t).ok()) {
            self.counters.add_plan_cache_hit();
            return Ok(hit);
        }
        self.counters.add_plan_cache_miss();
        // Parse first: we need the table names to ensure schemas exist
        // before planning ("schema detection happens on first query").
        let ast = nodb_sql::parse(text)?;
        let (plan, deps) = self.plan_query(&ast)?;
        self.plan_cache.insert(key, Arc::clone(&plan), deps.clone());
        Ok((plan, deps))
    }

    /// Plan a parsed query: ensure every referenced table's schema is
    /// current, then resolve names against that snapshot. The returned
    /// deps carry the epochs read in the same critical section as each
    /// schema.
    fn plan_query(&self, ast: &nodb_sql::AstQuery) -> Result<(Arc<Plan>, PlanDeps)> {
        let mut schemas: HashMap<String, Schema> = HashMap::new();
        let mut deps = Vec::new();
        for t in tables_of(ast) {
            let entry = self.catalog.read().get(&t)?;
            let mut e = entry.write();
            e.ensure_current(&self.cfg.csv, self.cfg.infer_sample_rows, &self.counters)?;
            deps.push((t.to_ascii_lowercase(), e.schema_epoch));
            schemas.insert(t.to_ascii_lowercase(), e.schema()?.clone());
        }
        let plan = Arc::new(nodb_sql::plan(ast, &schemas)?);
        Ok((plan, deps))
    }

    /// Current schema epoch of a table, after running the fingerprint
    /// check (so an on-disk edit bumps the epoch before we report it).
    pub(crate) fn ensured_epoch(&self, table: &str) -> Result<u64> {
        let entry = self.catalog.read().get(table)?;
        let mut e = entry.write();
        e.ensure_current(&self.cfg.csv, self.cfg.infer_sample_rows, &self.counters)?;
        Ok(e.schema_epoch)
    }

    /// Execute a (fully bound) plan, returning the result as a stream of
    /// row batches.
    pub(crate) fn stream_plan(
        &self,
        plan: &Plan,
        batch_size: usize,
        started: Instant,
        before: CountersSnapshot,
    ) -> Result<QueryStream> {
        if plan.is_parameterized() {
            return Err(Error::Plan(format!(
                "statement has {} unbound parameter(s); prepare and bind it",
                plan.n_params
            )));
        }
        // Memory governance: session entry points install the query's
        // guard ambiently; self-install here covers direct embedded use
        // (the guarded path already carries one, so this never
        // double-meters).
        let ctx = QueryContext::current();
        let _metered = match ctx.memory {
            Some(_) => None,
            None => self.memory_guard().map(|guard| {
                QueryContext {
                    memory: Some(guard),
                    ..ctx
                }
                .enter()
            }),
        };
        profile::note_strategy(self.cfg.strategy.label());
        // Result cache: consult before any loading work. On a miss this
        // also captures the schema epochs *before* execution, so a file
        // edit racing the query can only make the installed entry
        // conservatively stale (its recorded epoch is already behind),
        // never incorrectly fresh.
        let cache_deps: Option<PlanDeps> = if self.result_cache.enabled() {
            match self.result_cache_lookup(plan, batch_size, started, before)? {
                CacheLookup::Served(stream) => return Ok(*stream),
                CacheLookup::Miss(deps) => Some(deps),
            }
        } else {
            None
        };
        let now = self.seq.fetch_add(1, Ordering::Relaxed) + 1;

        // Materialise per table (a cold table loads in one parallel pass),
        // then the warm path answers.
        let (needed_l, needed_r) = plan.referenced_per_table();
        let (filter_l, filter_r) = plan.filter_per_table();
        let mat_l = self.materialize_table(&plan.table, &needed_l, &filter_l, now)?;
        let body = match &plan.join {
            None => self.execute_single(plan, mat_l)?,
            Some(join) => {
                let mat_r = self.materialize_table(&join.table, &needed_r, &filter_r, now)?;
                self.execute_join(plan, mat_l, mat_r, &filter_l, &filter_r)?
            }
        };

        // A fresh result just got computed: install it (and, for
        // subsumable shapes, its plan family's qualifying rows) into the
        // result cache under the epochs captured before execution.
        let body = match cache_deps {
            Some(deps) => self.result_cache_capture(plan, body, deps, now)?,
            None => body,
        };

        // Life-time management (§5.1.3): enforce the per-table budget.
        // The stream holds its own references to the materialised
        // columns, so eviction here never invalidates in-flight batches.
        if let Some(budget) = self.cfg.memory_budget {
            let mut tables = vec![plan.table.clone()];
            if let Some(j) = &plan.join {
                tables.push(j.table.clone());
            }
            for t in &tables {
                let entry = self.catalog.read().get(t)?;
                let mut e = entry.write();
                // Resident result tables have no backing file to reload
                // from — evicting their columns would destroy the data.
                if !e.resident {
                    e.store.evict_to_budget(budget, &self.counters);
                }
            }
        }

        self.counters
            .record_mem_reserved_peak(self.mem_pool.peak() as u64);
        self.stream_of(plan, batch_size, body, started, before)
    }

    /// Wrap an executed body into the standard [`QueryStream`] (labels,
    /// schema and stats derived from the plan) — shared by the fresh
    /// execution path and result-cache serves, so both produce
    /// indistinguishable streams.
    fn stream_of(
        &self,
        plan: &Plan,
        batch_size: usize,
        body: StreamBody,
        started: Instant,
        before: CountersSnapshot,
    ) -> Result<QueryStream> {
        Ok(QueryStream::new(
            plan.output_names.clone(),
            output_schema(plan)?,
            batch_size,
            body,
            started,
            before,
            Arc::clone(&self.counters),
            self.cfg.strategy,
        ))
    }

    /// Consult the result cache for `plan`. Captures the plan's schema
    /// epochs first (running the file-fingerprint checks), validates any
    /// candidate entry against them, and serves an exact repeat verbatim
    /// or a range-subsumed query by re-filtering the cached superset
    /// through the ordinary relational pipeline. On a miss the captured
    /// epochs come back so the eventual install tags the entry with
    /// pre-execution state.
    fn result_cache_lookup(
        &self,
        plan: &Plan,
        batch_size: usize,
        started: Instant,
        before: CountersSnapshot,
    ) -> Result<CacheLookup> {
        let _p = profile::phase(Phase::ResultCacheLookup);
        let mut deps: PlanDeps = Vec::new();
        let mut tables = vec![plan.table.clone()];
        if let Some(j) = &plan.join {
            tables.push(j.table.clone());
        }
        for t in &tables {
            deps.push((t.to_ascii_lowercase(), self.ensured_epoch(t)?));
        }
        let epoch_of = |t: &str| deps.iter().find(|(n, _)| n == t).map(|(_, e)| *e);

        if let Some(hit) = self
            .result_cache
            .get_exact(&plan_fingerprint(plan), epoch_of)
        {
            self.counters.add_result_cache_hit();
            profile::note_cache(CacheOutcome::Hit);
            return Ok(CacheLookup::Served(Box::new(self.stream_of(
                plan,
                batch_size,
                dense_body(&hit),
                started,
                before,
            )?)));
        }
        if let Some(wanted) = subsumable_constraint(plan) {
            if let Some((cols, n_rows)) =
                self.result_cache
                    .get_subsumed(&family_fingerprint(plan), &wanted, epoch_of)
            {
                // The family key clears ORDER BY, so this query may sort
                // on a column the installing query never referenced;
                // serve only when every needed column was captured.
                if plan
                    .referenced_columns()
                    .iter()
                    .all(|c| cols.contains_key(c))
                {
                    self.counters.add_result_cache_subsumed_hit();
                    profile::note_cache(CacheOutcome::SubsumedHit);
                    // The cached rows are the family's qualifying rows in
                    // scan order; running the standard filter → order →
                    // window → project pipeline over them yields exactly
                    // what a fresh scan would (every access path emits
                    // scan order before ORDER BY, and re-filtering
                    // preserves it).
                    let body = self.execute_relational(plan, cols, n_rows, &plan.filter)?;
                    return Ok(CacheLookup::Served(Box::new(
                        self.stream_of(plan, batch_size, body, started, before)?,
                    )));
                }
            }
        }
        self.counters.add_result_cache_miss();
        profile::note_cache(CacheOutcome::Miss);
        Ok(CacheLookup::Miss(deps))
    }

    /// Install a freshly computed result into the result cache under the
    /// exact plan fingerprint, and — for subsumable shapes whose
    /// referenced columns ended up fully loaded — the plan family's
    /// qualifying rows (in scan order, with the σ range they satisfy) for
    /// future contained-range queries. The result is gathered into dense
    /// typed output columns that the cache entry, the returned stream
    /// body and every later hit share; it streams through untouched when
    /// even a lower-bound size estimate exceeds the byte budget or the
    /// query's memory budget refuses the gather.
    fn result_cache_capture(
        &self,
        plan: &Plan,
        mut body: StreamBody,
        deps: PlanDeps,
        now: u64,
    ) -> Result<StreamBody> {
        let _p = profile::phase(Phase::ResultCacheCapture);
        let mut evicted = 0u64;
        if let Some(constraint) = subsumable_constraint(plan) {
            evicted += self.capture_family(plan, constraint, &deps, now)?;
        }
        let budget = self.result_cache.budget_bytes();
        // Every cell takes at least its 8 value bytes.
        let floor = body
            .remaining()
            .saturating_mul(plan.output.len().max(1))
            .saturating_mul(std::mem::size_of::<i64>());
        if floor <= budget {
            let columns: Vec<Arc<ColumnData>> =
                body.gather_remaining()?.into_iter().map(Arc::new).collect();
            let bytes = cols_bytes(&columns);
            if resource::charge_current(bytes).is_ok() {
                // The stream pages the gathered columns either way; the
                // cache shares them when they fit.
                body = dense_body(&columns);
                if bytes <= budget {
                    evicted +=
                        self.result_cache
                            .insert_exact(plan_fingerprint(plan), columns, deps);
                }
            }
        }
        if evicted > 0 {
            self.counters.add_result_cache_evictions(evicted);
        }
        Ok(body)
    }

    /// Family capture half of [`Engine::result_cache_capture`]: when every
    /// column the plan references is fully loaded in the adaptive store,
    /// re-filter the full columns into the family's qualifying rows (scan
    /// order) and cache them with the plan's σ interval. Skipped whenever
    /// the store does not hold the full columns (partial-load and
    /// external-scan strategies keep their existing behaviour).
    fn capture_family(
        &self,
        plan: &Plan,
        constraint: RangeConstraint,
        deps: &PlanDeps,
        now: u64,
    ) -> Result<u64> {
        let needed = plan.referenced_columns();
        if needed.is_empty() {
            return Ok(0);
        }
        let entry = self.catalog.read().get(&plan.table)?;
        let full: BTreeMap<usize, Arc<ColumnData>> = {
            let mut e = entry.write();
            if !e.store.missing_full(&needed).is_empty() {
                return Ok(0);
            }
            needed
                .iter()
                .map(|&c| (c, e.store.full_column(c, now).expect("checked above")))
                .collect()
        };
        let n_all = full.values().next().map(|c| c.len()).unwrap_or(0);
        let (cols, n_rows) = if plan.filter.is_always_true() {
            // Unconstrained family: share the store's columns outright.
            (full, n_all)
        } else {
            let positions = filter_positions(&full, n_all, &plan.filter)?;
            let n = positions.len();
            let cols = full
                .iter()
                .map(|(&c, col)| (c, Arc::new(col.take(&positions))))
                .collect();
            (cols, n)
        };
        Ok(self.result_cache.insert_filtered(
            family_fingerprint(plan),
            cols,
            n_rows,
            constraint,
            deps.clone(),
        ))
    }

    fn materialize_table(
        &self,
        table: &str,
        needed: &[usize],
        filter: &Conjunction,
        now: u64,
    ) -> Result<Materialized> {
        let _p = profile::phase(Phase::Load);
        let entry = self.catalog.read().get(table)?;
        // Warm adaptive-index fast path: snapshot handles under a short
        // write lock and crack outside it, so racing range queries refine
        // the partitioned index concurrently instead of serializing on
        // the entry lock for the whole materialisation.
        if let Some(m) =
            crate::policy::try_cracked_warm(&entry, needed, filter, &self.cfg, &self.counters, now)?
        {
            return Ok(m);
        }
        let m = {
            let mut e = entry.write();
            materialize(&mut e, needed, filter, &self.cfg, &self.counters, now)?
        };
        // Cold-load cracking runs *outside* the entry lock too: the load
        // above filled the store (under the lock, as it must), and the
        // same short-lock handle-snapshot path warm queries take now
        // installs the partitioned index and cracks it under per-partition
        // locks only — a racing range query refines concurrently instead
        // of waiting for this query's crack to finish.
        if self.cfg.use_cracking && !m.prefiltered {
            if let Some(cracked) = crate::policy::try_cracked_warm(
                &entry,
                needed,
                filter,
                &self.cfg,
                &self.counters,
                now,
            )? {
                return Ok(cracked);
            }
        }
        Ok(m)
    }

    fn execute_single(&self, plan: &Plan, mat: Materialized) -> Result<StreamBody> {
        let residual = if mat.prefiltered {
            Conjunction::always()
        } else {
            plan.filter.clone()
        };
        self.execute_relational(plan, mat.cols, mat.n_rows, &residual)
    }

    fn execute_join(
        &self,
        plan: &Plan,
        mat_l: Materialized,
        mat_r: Materialized,
        filter_l: &Conjunction,
        filter_r: &Conjunction,
    ) -> Result<StreamBody> {
        let join = plan.join.as_ref().expect("join plan");
        // Reduce each side to its qualifying positions (in parallel when
        // the side is big enough), timed as `join_build`.
        let side_positions = |mat: &Materialized, filter: &Conjunction| {
            if mat.prefiltered || filter.is_always_true() {
                Ok(None)
            } else {
                self.qualifying_positions(&mat.cols, mat.n_rows, filter)
                    .map(Some)
            }
        };
        let (pos_l, pos_r) = profile::time(Phase::JoinBuild, || -> Result<_> {
            Ok((
                side_positions(&mat_l, filter_l)?,
                side_positions(&mat_r, filter_r)?,
            ))
        })?;
        let left = JoinSide {
            cols: &mat_l.cols,
            rows: pos_l.as_deref(),
            n_rows: mat_l.n_rows,
            key: join.left_key,
        };
        let right = JoinSide {
            cols: &mat_r.cols,
            rows: pos_r.as_deref(),
            n_rows: mat_r.n_rows,
            key: join.right_key,
        };
        self.join_body(plan, &left, &right)
    }

    /// The join proper, over each side's
    /// qualifying rows. An aggregate or GROUP BY folds the pairs on the
    /// probe workers ([`parallel_join_group_columns`]): no pair list, no
    /// gather. A scalar join, whose row order is observable, lists the
    /// pairs in right-scan order (timed as `join_build`), then gathers the
    /// payload columns through them (`join_probe`) for the relational
    /// pipeline.
    fn join_body(
        &self,
        plan: &Plan,
        left: &JoinSide<'_, BTreeMap<usize, Arc<ColumnData>>>,
        right: &JoinSide<'_, BTreeMap<usize, Arc<ColumnData>>>,
    ) -> Result<StreamBody> {
        let threads = if self.parallel_worthwhile(left.qualifying().max(right.qualifying())) {
            self.counters.add_parallel_pipeline();
            self.cfg.threads
        } else {
            1
        };
        if is_aggregate(plan) {
            let (aggs, _) = split_outputs(plan);
            let columns = parallel_join_group_columns(
                left,
                right,
                plan.left_width,
                &plan.group_by,
                &aggs,
                threads,
                self.cfg.morsel_rows,
            )?;
            return computed_body(plan, columns);
        }
        let pairs = profile::time(Phase::JoinBuild, || {
            // An unfiltered side's key column is borrowed, not copied.
            let key_l = join_key(left)?;
            let key_r = join_key(right)?;
            parallel_hash_join_positions(&key_l, &key_r, threads, self.cfg.morsel_rows)
        })?;
        let n = pairs.len();
        let combined = profile::time(Phase::JoinProbe, || {
            let resolve = |p: usize, rows: Option<&[usize]>| rows.map_or(p, |v| v[p]);
            gather_joined(
                plan,
                left.cols,
                right.cols,
                || pairs.iter().map(|&(a, _)| resolve(a, left.rows)).collect(),
                || pairs.iter().map(|&(_, b)| resolve(b, right.rows)).collect(),
            )
        })?;
        self.execute_relational(plan, combined, n, &Conjunction::always())
    }

    /// Whether a parallel kernel pays for its thread dispatch on `n_rows`
    /// of input: more than one worker configured and at least one full
    /// morsel of work.
    fn parallel_worthwhile(&self, n_rows: usize) -> bool {
        self.cfg.threads > 1 && n_rows >= self.cfg.morsel_rows
    }

    /// Positions of the rows `filter` keeps, ascending — built on stealing
    /// workers when the input is big enough to pay for them.
    fn qualifying_positions(
        &self,
        cols: &BTreeMap<usize, Arc<ColumnData>>,
        n_rows: usize,
        filter: &Conjunction,
    ) -> Result<Vec<usize>> {
        if self.parallel_worthwhile(n_rows) {
            self.counters.add_parallel_pipeline();
            parallel_filter_positions(cols, n_rows, filter, self.cfg.threads, self.cfg.morsel_rows)
        } else {
            filter_positions(cols, n_rows, filter)
        }
    }

    /// The post-load relational pipeline: filter → group/aggregate →
    /// order → offset/limit → project. Every shape comes back as a
    /// projection cursor over typed columns: aggregate and grouped results
    /// over their freshly computed result columns, plain scalar results
    /// lazily over the input columns so the driver can stream them batch
    /// by batch.
    fn execute_relational(
        &self,
        plan: &Plan,
        cols: BTreeMap<usize, Arc<ColumnData>>,
        n_rows: usize,
        residual: &Conjunction,
    ) -> Result<StreamBody> {
        let _p = profile::phase(Phase::WarmKernel);
        let (agg_specs, exprs) = split_outputs(plan);
        if !plan.group_by.is_empty() || !agg_specs.is_empty() {
            // Aggregation (a plain aggregate is the zero-key GROUP BY)
            // runs morsel by morsel on stealing workers when the input is
            // big enough, inline otherwise; the result does not depend on
            // which.
            let threads = if self.parallel_worthwhile(n_rows) {
                self.counters.add_parallel_pipeline();
                self.cfg.threads
            } else {
                1
            };
            let columns = parallel_group_columns(
                &cols,
                n_rows,
                residual,
                &plan.group_by,
                &agg_specs,
                threads,
                self.cfg.morsel_rows,
            )?;
            return computed_body(plan, columns);
        }

        // Scalar (non-aggregate) query: resolve the qualifying positions
        // eagerly (in parallel when the input is big enough), project
        // lazily (batch by batch) — the stream is fed straight from the
        // parallel pipeline's selection vector.
        let mut positions = if residual.is_always_true() {
            (0..n_rows).collect()
        } else {
            self.qualifying_positions(&cols, n_rows, residual)?
        };
        if !plan.order_by.is_empty() {
            positions = sort_positions(&cols, positions, &plan.order_by)?;
        }
        window(&mut positions, plan.offset, plan.limit);
        Ok(ProjectionCursor::new(cols, positions, exprs))
    }
}

/// A plan's outputs by kind, each in output order: the aggregates, and the
/// scalar expressions (all of the outputs of a scalar plan; the group key
/// columns of a grouped one).
fn split_outputs(plan: &Plan) -> (Vec<AggSpec>, Vec<Expr>) {
    let (mut aggs, mut scalars) = (Vec::new(), Vec::new());
    for o in &plan.output {
        match o {
            OutputExpr::Agg(a) => aggs.push(a.clone()),
            OutputExpr::Scalar(e) => scalars.push(e.clone()),
        }
    }
    (aggs, scalars)
}

/// Whether the plan aggregates: any aggregate output or a GROUP BY.
fn is_aggregate(plan: &Plan) -> bool {
    !plan.group_by.is_empty() || plan.output.iter().any(|o| matches!(o, OutputExpr::Agg(_)))
}

/// One side's join keys at its qualifying positions: the materialised
/// column itself when the side is unfiltered, a gathered copy otherwise.
fn join_key<'a>(
    side: &JoinSide<'a, BTreeMap<usize, Arc<ColumnData>>>,
) -> Result<Cow<'a, ColumnData>> {
    let col = side
        .cols
        .get(&side.key)
        .ok_or_else(|| Error::exec("join key not materialised"))?;
    Ok(match side.rows {
        None => Cow::Borrowed(col.as_ref()),
        Some(p) => Cow::Owned(col.take(p)),
    })
}

/// Gather the payload columns a scalar join's relational pipeline reads —
/// what the plan's outputs and ORDER BY reference; filters and join keys
/// were consumed before the pairs existed — into the combined (left ++
/// right ordinals) column map. `li` / `ri` produce each side's gather
/// positions, one per joined row; a side no column is read from never
/// has its list built. Aggregates over a join fold without it.
fn gather_joined(
    plan: &Plan,
    cols_l: &BTreeMap<usize, Arc<ColumnData>>,
    cols_r: &BTreeMap<usize, Arc<ColumnData>>,
    li: impl Fn() -> Vec<usize>,
    ri: impl Fn() -> Vec<usize>,
) -> Result<BTreeMap<usize, Arc<ColumnData>>> {
    debug_assert!(
        !is_aggregate(plan),
        "aggregates over a join fold on the probe"
    );
    let mut wanted: Vec<usize> = plan.order_by.iter().map(|(c, _)| *c).collect();
    for o in &plan.output {
        if let OutputExpr::Scalar(e) = o {
            wanted.extend(e.columns());
        }
    }
    let (mut rows_l, mut rows_r) = (None, None);
    let mut combined = BTreeMap::new();
    for c in wanted {
        if combined.contains_key(&c) {
            continue;
        }
        let (side, local, rows) = if c < plan.left_width {
            (cols_l, c, rows_l.get_or_insert_with(&li))
        } else {
            (cols_r, c - plan.left_width, rows_r.get_or_insert_with(&ri))
        };
        let col = side
            .get(&local)
            .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?;
        combined.insert(c, Arc::new(col.take(rows)));
    }
    Ok(combined)
}

/// First SQL keyword of `text`, skipping leading whitespace and `--`
/// line comments (statement dispatch must agree with the lexer about
/// what a statement "starts with").
fn leading_keyword(text: &str) -> &str {
    let mut rest = text.trim_start();
    while let Some(stripped) = rest.strip_prefix("--") {
        rest = match stripped.find('\n') {
            Some(i) => stripped[i + 1..].trim_start(),
            None => "",
        };
    }
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    &rest[..end]
}

/// The remainder of `text` after its leading keyword (and any leading
/// whitespace or `--` comments the keyword scan skipped) — how `EXPLAIN`
/// and `EXPLAIN ANALYZE` peel their prefixes off the statement they
/// describe.
fn after_keyword(text: &str) -> &str {
    let kw = leading_keyword(text);
    // leading_keyword returns a subslice of `text`, so the offset is the
    // pointer distance.
    let start = kw.as_ptr() as usize - text.as_ptr() as usize;
    &text[start + kw.len()..]
}

/// Tables a query references (FROM plus the optional JOIN).
fn tables_of(ast: &nodb_sql::AstQuery) -> Vec<String> {
    let mut tables = vec![ast.table.clone()];
    if let Some(j) = &ast.join {
        tables.push(j.table.clone());
    }
    tables
}

/// Shape computed result columns — `group keys ++ aggregates`, one row per
/// group in group order, the layout the group merge produces (a plain
/// aggregate is the one-row case without keys) — into the plan's declared
/// output through the scalar tail: ORDER BY on group keys (validated by
/// the planner), OFFSET/LIMIT, then a projection cursor picking each
/// output's column.
fn computed_body(plan: &Plan, columns: Vec<ColumnData>) -> Result<StreamBody> {
    let key_slot = |c: &usize| {
        plan.group_by
            .iter()
            .position(|g| g == c)
            .expect("validated by planner")
    };
    let mut agg_slot = plan.group_by.len();
    let exprs = plan
        .output
        .iter()
        .map(|o| match o {
            OutputExpr::Scalar(Expr::Col(c)) => Ok(Expr::Col(key_slot(c))),
            OutputExpr::Scalar(_) => Err(Error::Plan(
                "grouped outputs must be columns or aggregates".into(),
            )),
            OutputExpr::Agg(_) => {
                agg_slot += 1;
                Ok(Expr::Col(agg_slot - 1))
            }
        })
        .collect::<Result<Vec<Expr>>>()?;
    let mut positions: Vec<usize> = (0..columns[0].len()).collect();
    let cols: BTreeMap<usize, Arc<ColumnData>> =
        columns.into_iter().map(Arc::new).enumerate().collect();
    if !plan.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = plan
            .order_by
            .iter()
            .map(|(c, asc)| (key_slot(c), *asc))
            .collect();
        positions = sort_positions(&cols, positions, &keys)?;
    }
    window(&mut positions, plan.offset, plan.limit);
    Ok(ProjectionCursor::new(cols, positions, exprs))
}

/// Apply `OFFSET m` then `LIMIT n` to an ordered result vector.
fn window<T>(v: &mut Vec<T>, offset: Option<usize>, limit: Option<usize>) {
    if let Some(off) = offset {
        if off > 0 {
            v.drain(..off.min(v.len()));
        }
    }
    if let Some(n) = limit {
        v.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(name: &str, content: &str) -> (PathBuf, Engine) {
        let dir = std::env::temp_dir().join(format!("nodb_engine_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        std::fs::write(&path, content).unwrap();
        let mut cfg = EngineConfig::default().with_threads(1);
        cfg.store_dir = Some(dir.join("store"));
        let engine = Engine::new(cfg);
        engine.register_table("r", &path).unwrap();
        (dir, engine)
    }

    const DATA: &str = "0,10,100,7\n1,11,101,7\n2,12,102,8\n3,13,103,8\n4,14,104,9\n";

    #[test]
    fn paper_q1_end_to_end() {
        let (_d, e) = setup("q1", DATA);
        let out = e
            .sql("select sum(a1),min(a4),max(a3),avg(a2) from r where a1>0 and a1<4 and a2>10 and a2<14")
            .unwrap();
        assert_eq!(
            out.columns,
            vec!["sum(a1)", "min(a4)", "max(a3)", "avg(a2)"]
        );
        assert_eq!(out.rows.len(), 1);
        // Qualifying rows: a1 in {1,2,3} ∧ a2 in {11,12,13} → rows 1..=3.
        assert_eq!(out.rows[0][0], Value::Int(6));
        assert_eq!(out.rows[0][1], Value::Int(7));
        assert_eq!(out.rows[0][2], Value::Int(103));
        assert_eq!(out.rows[0][3], Value::Float(12.0));
    }

    #[test]
    fn select_star_and_limit() {
        let (_d, e) = setup("star", DATA);
        let out = e.sql("select * from r limit 2").unwrap();
        assert_eq!(out.columns, vec!["a1", "a2", "a3", "a4"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::Int(0));
    }

    #[test]
    fn order_by_desc() {
        let (_d, e) = setup("order", DATA);
        let out = e
            .sql("select a1 from r where a4 = 8 order by a1 desc")
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn group_by_with_ordering() {
        let (_d, e) = setup("group", DATA);
        let out = e
            .sql("select a4, count(*), sum(a1) from r group by a4 order by a4")
            .unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int(7), Value::Int(2), Value::Int(1)],
                vec![Value::Int(8), Value::Int(2), Value::Int(5)],
                vec![Value::Int(9), Value::Int(1), Value::Int(4)],
            ]
        );
    }

    #[test]
    fn count_star_without_touching_columns() {
        let (_d, e) = setup("count", DATA);
        let out = e.sql("select count(*) from r").unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(5)));
        assert_eq!(out.stats.work.values_parsed, 0);
    }

    #[test]
    fn join_end_to_end() {
        let (d, e) = setup("join", "1,10\n2,20\n3,30\n");
        let s_path = d.join("s.csv");
        std::fs::write(&s_path, "3,300\n1,100\n9,900\n").unwrap();
        e.register_table("s", &s_path).unwrap();
        let out = e
            .sql("select r.a1, r.a2, s.a2 from r join s on r.a1 = s.a1 order by r.a1")
            .unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(3), Value::Int(30), Value::Int(300)],
            ]
        );
    }

    #[test]
    fn join_with_aggregates_and_filters() {
        let (d, e) = setup("joinagg", "1,10\n2,20\n3,30\n4,40\n");
        let s_path = d.join("s.csv");
        std::fs::write(&s_path, "1,5\n2,6\n3,7\n4,8\n").unwrap();
        e.register_table("s", &s_path).unwrap();
        let out = e
            .sql("select sum(r.a2), sum(s.a2) from r join s on r.a1 = s.a1 where r.a1 > 1 and s.a2 < 8")
            .unwrap();
        // Matching keys after filters: 2 and 3.
        assert_eq!(out.rows[0], vec![Value::Int(50), Value::Int(13)]);
    }

    #[test]
    fn all_strategies_same_results() {
        let sql = "select sum(a1),avg(a2) from r where a1>0 and a1<4";
        let mut reference: Option<Vec<Value>> = None;
        for strategy in [
            LoadingStrategy::FullLoad,
            LoadingStrategy::ExternalScan,
            LoadingStrategy::ColumnLoads,
            LoadingStrategy::PartialLoadsV1,
            LoadingStrategy::PartialLoadsV2,
            LoadingStrategy::SplitFiles,
        ] {
            let dir =
                std::env::temp_dir().join(format!("nodb_engine_allstrat_{}", strategy.label()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("r.csv");
            std::fs::write(&path, DATA).unwrap();
            let mut cfg = EngineConfig::with_strategy(strategy);
            cfg.threads = 1;
            cfg.store_dir = Some(dir.join("store"));
            let e = Engine::new(cfg);
            e.register_table("r", &path).unwrap();
            // Run twice: cold then warm must agree too.
            for _ in 0..2 {
                let out = e.sql(sql).unwrap();
                match &reference {
                    None => reference = Some(out.rows[0].clone()),
                    Some(r) => assert_eq!(&out.rows[0], r, "{}", strategy.label()),
                }
            }
        }
    }

    #[test]
    fn file_edit_reflected_in_next_query() {
        let (d, e) = setup("edit", "1,2\n3,4\n");
        let out = e.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(4)));
        // Edit the raw file ("the user can edit or change a file at any time").
        std::fs::write(d.join("r.csv"), "10,2\n30,4\n50,6\n").unwrap();
        let out = e.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(90)));
    }

    #[test]
    fn unknown_table_mentions_registered() {
        let (_d, e) = setup("unknown", DATA);
        let err = e.sql("select a1 from nope").unwrap_err().to_string();
        assert!(err.contains("registered"), "{err}");
    }

    #[test]
    fn stats_report_work_and_strategy() {
        let (_d, e) = setup("stats", DATA);
        let out = e.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.stats.strategy, LoadingStrategy::ColumnLoads);
        assert_eq!(out.stats.work.file_trips, 1);
        assert!(out.stats.work.values_parsed >= 5);
        // Second query over the same column: no file work.
        let out = e.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.stats.work.file_trips, 0);
        assert_eq!(out.stats.work.values_parsed, 0);
    }

    #[test]
    fn table_info_reflects_loading() {
        let (_d, e) = setup("info", DATA);
        let before = e.table_info("r").unwrap();
        assert!(before.schema.is_none());
        assert!(before.loaded_columns.is_empty());
        e.sql("select sum(a2) from r").unwrap();
        let after = e.table_info("r").unwrap();
        assert_eq!(after.schema.unwrap().len(), 4);
        assert_eq!(after.loaded_columns, vec![1]);
        assert!(after.store_bytes > 0);
    }

    #[test]
    fn persist_and_restore_round_trip() {
        let (d, e) = setup("persist", DATA);
        e.sql("select sum(a1), sum(a2) from r").unwrap();
        let cold_dir = d.join("cold");
        assert_eq!(e.persist_table("r", &cold_dir).unwrap(), 2);

        // Fresh engine: restore instead of re-parsing CSV.
        let cfg = EngineConfig::default().with_threads(1);
        let e2 = Engine::new(cfg);
        e2.register_table("r", d.join("r.csv")).unwrap();
        assert_eq!(e2.restore_table("r", &cold_dir).unwrap(), 2);
        let before = e2.counters().snapshot();
        let out = e2.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(10)));
        // No CSV parsing happened for this query.
        assert_eq!(e2.counters().snapshot().since(&before).values_parsed, 0);
    }

    #[test]
    fn memory_budget_evicts_after_queries() {
        let dir = std::env::temp_dir().join("nodb_engine_budget");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..1000 {
            data.push_str(&format!("{i},{},{}\n", i * 2, i * 3));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::default().with_threads(1);
        cfg.memory_budget = Some(10_000); // fits one 8 KB column, not three
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        e.sql("select sum(a1) from r").unwrap();
        e.sql("select sum(a2) from r").unwrap();
        e.sql("select sum(a3) from r").unwrap();
        let info = e.table_info("r").unwrap();
        assert!(
            info.store_bytes <= 10_000,
            "store stayed within budget: {}",
            info.store_bytes
        );
        assert!(e.counters().snapshot().tuples_evicted > 0);
        // Queries still answer correctly after eviction.
        let out = e.sql("select sum(a1) from r").unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(499_500)));
    }

    #[test]
    fn csv_export_round_trips_through_the_engine() {
        let (d, e) = setup("export", DATA);
        let out = e
            .sql("select a1, a2 + a3 as total from r where a4 = 8 order by a1")
            .unwrap();
        let export = d.join("result.csv");
        out.save_csv(&export).unwrap();
        // The exported result is itself a queryable raw file.
        e.register_table("result", &export).unwrap();
        let back = e.sql("select total from result order by a1").unwrap();
        assert_eq!(
            back.rows,
            vec![vec![Value::Int(114)], vec![Value::Int(116)]]
        );
    }

    #[test]
    fn csv_export_quotes_tricky_fields() {
        let dir = std::env::temp_dir().join("nodb_engine_exportq");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        std::fs::write(&path, "1,plain\n2,\"has,comma\"\n3,\"has \"\"quote\"\"\"\n").unwrap();
        let mut cfg = EngineConfig::default().with_threads(1);
        cfg.csv.quote = Some(b'"');
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let out = e.sql("select a1, a2 from r order by a1").unwrap();
        let mut buf = Vec::new();
        out.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"has,comma\""), "{text}");
        assert!(text.contains("\"has \"\"quote\"\"\""), "{text}");
        // And it parses back identically.
        let back = dir.join("back.csv");
        out.save_csv(&back).unwrap();
        e.register_table("back", &back).unwrap();
        let again = e.sql("select a2 from back where a1 = 2").unwrap();
        assert_eq!(again.rows[0][0], Value::Str("has,comma".into()));
    }

    #[test]
    fn explain_describes_plan_and_loader_state() {
        let (_d, e) = setup("explain", DATA);
        let text = e
            .explain("select sum(a1), avg(a2) from r where a1 > 1 and a1 < 4 order by a1 limit 5")
            .unwrap_err();
        // ORDER BY on an aggregate query without GROUP BY is a plan error.
        assert!(text.to_string().contains("GROUP BY"));
        let text = e
            .explain("select sum(a1), avg(a2) from r where a1 > 1 and a1 < 4")
            .unwrap();
        assert!(
            text.contains("AdaptiveLoad table=r columns=[a1, a2]"),
            "{text}"
        );
        assert!(text.contains("pushdown"), "{text}");
        assert!(text.contains("missing columns [0, 1]"), "{text}");
        // After running it, explain reports the columns as loaded.
        e.sql("select sum(a1), avg(a2) from r where a1 > 1 and a1 < 4")
            .unwrap();
        let text = e
            .explain("select sum(a1), avg(a2) from r where a1 > 1 and a1 < 4")
            .unwrap();
        assert!(text.contains("2 of 2 referenced columns loaded"), "{text}");
    }

    #[test]
    fn explain_shows_the_strategy_label() {
        let (_d, e) = setup("explainlabels", DATA);
        let text = e.explain("select sum(a1) from r").unwrap();
        assert!(text.contains("-- strategy: column-loads"), "{text}");
    }

    #[test]
    fn explain_travels_through_sql_as_rows() {
        let (_d, e) = setup("explainsql", DATA);
        let out = e.sql("explain select sum(a1) from r where a1 > 1").unwrap();
        assert_eq!(out.columns, vec!["plan".to_owned()]);
        let listing: Vec<String> = out
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                other => panic!("plan rows are strings, got {other:?}"),
            })
            .collect();
        assert!(
            listing.iter().any(|l| l.contains("AdaptiveLoad")),
            "{listing:?}"
        );
        // Plain EXPLAIN never executes: the referenced column stays cold.
        assert!(
            listing.iter().any(|l| l.contains("would load from file")),
            "{listing:?}"
        );
        // Missing statement is a plan error, not a panic.
        assert!(e.sql("explain").is_err());
        assert!(e.sql("explain analyze").is_err());
    }

    #[test]
    fn explain_analyze_profiles_cold_grouped_query() {
        // Parallel config so the cold table loads through the parallel
        // loader — the acceptance shape: cold + GROUP BY.
        let dir = std::env::temp_dir().join("nodb_engine_analyze");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..50_000i64 {
            data.push_str(&format!("{},{},{}\n", i, i % 97, i * 3));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::default().with_threads(4);
        cfg.morsel_rows = 4096;
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();

        let started = Instant::now();
        let text = e
            .explain_analyze("select a2, sum(a1) from r where a1 > 100 group by a2")
            .unwrap();
        let wall = started.elapsed();
        // The listing carries the shared renderer plus measured lines.
        assert!(text.contains("-- strategy: column-loads"), "{text}");
        assert!(text.contains("GroupBy"), "{text}");
        assert!(text.contains("-- analyze: rows=97 "), "{text}");
        assert!(text.contains("cache=bypass"), "{text}");
        // The cold load ran and the warm GROUP BY's merge was timed.
        assert!(text.contains("-- phase cold_pipeline"), "{text}");
        assert!(text.contains("-- phase group_merge"), "{text}");
        assert!(text.contains("-- phase plan"), "{text}");
        // Workers reported morsel aggregates: every byte of the file went
        // through the load's chunks, and every row through them and then
        // through the warm kernel's morsels.
        assert!(text.contains("morsels="), "{text}");
        assert!(text.contains(&format!("rows={}", 2 * 50_000)), "{text}");
        assert!(text.contains(&format!("bytes={}", data.len())), "{text}");

        // A drained projection shows where its drain went: the kernel
        // that built the selection vector, then the collect that built
        // the rows from it (after the kernel's phase guard was left).
        let text = e
            .explain_analyze("select a1, a2 from r where a1 < 1000")
            .unwrap();
        assert!(text.contains("-- analyze: rows=1000 "), "{text}");
        let kernel = text
            .lines()
            .find(|l| l.starts_with("-- phase warm_kernel"))
            .unwrap_or_else(|| panic!("no warm_kernel phase in {text}"));
        assert!(kernel.ends_with("(2 calls)"), "{text}");

        // Acceptance: disjoint phase self-times sum to within the wall
        // clock measured around the whole call.
        let out = {
            // Re-run under an explicit sink to get the structured profile.
            let sink = ProfileSink::handle();
            let _scope = ProfileScope::enter(Arc::clone(&sink));
            e.sql("select a2, sum(a1) from r where a1 > 50 group by a2")
                .unwrap()
        };
        let prof = &out.stats.profile;
        assert!(!prof.is_empty());
        assert!(
            prof.total_phase_ns() <= out.stats.elapsed.as_nanos() as u64,
            "phase sum {} exceeds wall {}",
            prof.total_phase_ns(),
            out.stats.elapsed.as_nanos(),
        );
        assert!(wall.as_nanos() > 0);
        // Unprofiled queries carry an empty profile.
        let plain = e.sql("select count(*) from r").unwrap();
        assert!(plain.stats.profile.is_empty());
    }

    #[test]
    fn explain_join_plan() {
        let (d, e) = setup("explainjoin", "1,10\n2,20\n");
        let s_path = d.join("s.csv");
        std::fs::write(&s_path, "1,5\n2,6\n").unwrap();
        e.register_table("s", &s_path).unwrap();
        let text = e
            .explain("select count(*) from r join s on r.a1 = s.a1 where s.a2 < 6")
            .unwrap();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("AdaptiveLoad table=s"), "{text}");
        assert!(text.contains("Aggregate [count(*)]"), "{text}");
    }

    #[test]
    fn parallel_pipeline_matches_serial_and_still_loads_store() {
        let dir = std::env::temp_dir().join("nodb_engine_parallel");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..20_000i64 {
            data.push_str(&format!("{},{},{},{}\n", i, i * 2, i % 97, i % 7));
        }
        std::fs::write(&path, &data).unwrap();
        let sqls = [
            "select sum(a1),min(a4),max(a3),avg(a2) from r where a1 > 100 and a1 < 15000",
            "select count(*) from r where a3 = 13",
            "select a1, a2 from r where a1 > 19990 order by a1",
        ];

        // Single-threaded reference: the same loader and kernels, inline.
        let serial = Engine::new(EngineConfig::default().with_threads(1));
        serial.register_table("r", &path).unwrap();
        let reference: Vec<Vec<Vec<Value>>> =
            sqls.iter().map(|s| serial.sql(s).unwrap().rows).collect();

        // Parallel engine with small morsels to force many of them.
        let mut cfg = EngineConfig::default().with_threads(4);
        cfg.morsel_rows = 1000;
        let par = Engine::new(cfg);
        par.register_table("r", &path).unwrap();
        for (sql, expect) in sqls.iter().zip(&reference) {
            let out = par.sql(sql).unwrap();
            assert_eq!(&out.rows, expect, "{sql}");
        }
        let snap = par.counters().snapshot();
        assert!(snap.parallel_pipelines >= 1, "{snap}");
        assert!(snap.morsels_dispatched >= 20, "{snap}");

        // The parallel cold load fed the adaptive store: referenced
        // columns fully loaded, so a rerun does no file work.
        let info = par.table_info("r").unwrap();
        assert!(!info.loaded_columns.is_empty());
        let before = par.counters().snapshot();
        let again = par.sql(sqls[0]).unwrap();
        assert_eq!(again.rows, reference[0]);
        assert_eq!(par.counters().snapshot().since(&before).file_trips, 0);

        // Join path: the morsel-parallel join agrees with serial.
        let s_path = dir.join("s.csv");
        let mut sdata = String::new();
        for i in 0..20_000i64 {
            sdata.push_str(&format!("{},{}\n", (i * 13) % 20_000, i));
        }
        std::fs::write(&s_path, &sdata).unwrap();
        serial.register_table("s", &s_path).unwrap();
        par.register_table("s", &s_path).unwrap();
        let join_sql = "select count(*), sum(s.a2) from r join s on r.a1 = s.a1 where r.a4 = 3";
        let sj = serial.sql(join_sql).unwrap();
        let pj = par.sql(join_sql).unwrap();
        assert_eq!(pj.rows, sj.rows);
    }

    #[test]
    fn cold_grouped_pipeline_matches_serial_and_loads_store() {
        let dir = std::env::temp_dir().join("nodb_engine_parallel_group");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..20_000i64 {
            data.push_str(&format!("{},{},{}\n", i, i * 3, i % 13));
        }
        std::fs::write(&path, &data).unwrap();
        let sqls = [
            "select a3, sum(a2), count(*) from r where a1 < 18000 group by a3 order by a3",
            "select a3, min(a1), max(a2), avg(a1) from r group by a3",
            "select a3, count(*) from r group by a3 order by a3 desc limit 4 offset 2",
        ];
        let serial = Engine::new(EngineConfig::default().with_threads(1));
        serial.register_table("r", &path).unwrap();

        for (q, sql) in sqls.iter().enumerate() {
            // Fresh parallel engine per query so each one loads cold,
            // small morsels (and so small chunks) to force many.
            let mut cfg = EngineConfig::default().with_threads(4);
            cfg.morsel_rows = 1000;
            cfg.store_dir = Some(dir.join(format!("store{q}")));
            let par = Engine::new(cfg);
            par.register_table("r", &path).unwrap();
            let expect = serial.sql(sql).unwrap().rows;
            let out = par.sql(sql).unwrap();
            assert_eq!(out.rows, expect, "{sql}");
            // The cold load fed the adaptive store: a rerun does no file
            // work and agrees.
            let before = par.counters().snapshot();
            let again = par.sql(sql).unwrap();
            assert_eq!(again.rows, expect, "warm {sql}");
            let delta = par.counters().snapshot().since(&before);
            assert_eq!(delta.file_trips, 0, "{sql}");
            assert!(par.counters().snapshot().morsels_dispatched >= 20, "{sql}");
        }
    }

    #[test]
    fn cold_projection_pipeline_matches_serial_and_loads_store() {
        let dir = std::env::temp_dir().join("nodb_engine_cold_project");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..20_000i64 {
            data.push_str(&format!("{},{},{}\n", i, i * 2, i % 97));
        }
        std::fs::write(&path, &data).unwrap();
        let sqls = [
            "select a1, a2 from r where a1 > 100 and a1 < 200",
            "select a2, a1 from r where a3 = 13 order by a1 desc limit 7 offset 3",
            "select a1 + a2 from r where a1 > 19900 limit 5",
        ];
        let serial = Engine::new(EngineConfig::default().with_threads(1));
        serial.register_table("r", &path).unwrap();

        for (q, sql) in sqls.iter().enumerate() {
            // Fresh parallel engine per query so each one loads cold;
            // small morsels (and so small chunks) force many of them.
            let mut cfg = EngineConfig::default().with_threads(4);
            cfg.morsel_rows = 1000;
            let par = Engine::new(cfg);
            par.register_table("r", &path).unwrap();
            let expect = serial.sql(sql).unwrap().rows;
            let out = par.sql(sql).unwrap();
            assert_eq!(out.rows, expect, "{sql}");
            let snap = par.counters().snapshot();
            assert!(snap.morsels_dispatched >= 20, "{sql}: {snap}");
            assert!(snap.parallel_pipelines >= 1, "{sql}: {snap}");
            // A rerun is a pure store hit with identical output.
            let before = par.counters().snapshot();
            assert_eq!(par.sql(sql).unwrap().rows, expect, "warm {sql}");
            assert_eq!(par.counters().snapshot().since(&before).file_trips, 0);
            // The parallel load left the adaptive store and positional
            // map in exactly the state the same load leaves on one thread.
            if q == 0 {
                let si = serial.table_info("r").unwrap();
                let pi = par.table_info("r").unwrap();
                assert_eq!(pi.loaded_columns, si.loaded_columns);
                assert_eq!(pi.store_bytes, si.store_bytes);
                assert_eq!(pi.posmap_bytes, si.posmap_bytes);
            }
        }
    }

    #[test]
    fn cold_join_pipeline_matches_serial_and_loads_both_stores() {
        let dir = std::env::temp_dir().join("nodb_engine_cold_join");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let r_path = dir.join("r.csv");
        let s_path = dir.join("s.csv");
        let mut rd = String::new();
        let mut sd = String::new();
        for i in 0..10_000i64 {
            rd.push_str(&format!("{},{},{}\n", i, i * 2, i % 7));
            sd.push_str(&format!("{},{}\n", (i * 13) % 10_000, i));
        }
        std::fs::write(&r_path, &rd).unwrap();
        std::fs::write(&s_path, &sd).unwrap();
        let sqls = [
            "select count(*), sum(s.a2) from r join s on r.a1 = s.a1 where r.a3 = 3",
            "select r.a2, s.a2 from r join s on r.a1 = s.a1 where s.a2 < 40 limit 9 offset 2",
        ];
        let serial = Engine::new(EngineConfig::default().with_threads(1));
        serial.register_table("r", &r_path).unwrap();
        serial.register_table("s", &s_path).unwrap();

        for (q, sql) in sqls.iter().enumerate() {
            let mut cfg = EngineConfig::default().with_threads(4);
            cfg.morsel_rows = 500;
            let par = Engine::new(cfg);
            par.register_table("r", &r_path).unwrap();
            par.register_table("s", &s_path).unwrap();
            let expect = serial.sql(sql).unwrap().rows;
            let out = par.sql(sql).unwrap();
            assert_eq!(out.rows, expect, "{sql}");
            let snap = par.counters().snapshot();
            assert!(snap.morsels_dispatched >= 20, "{sql}: {snap}");
            assert!(snap.parallel_pipelines >= 1, "{sql}: {snap}");
            // Warm rerun: both sides came out fully loaded, no file work.
            let before = par.counters().snapshot();
            assert_eq!(par.sql(sql).unwrap().rows, expect, "warm {sql}");
            assert_eq!(par.counters().snapshot().since(&before).file_trips, 0);
            if q == 0 {
                for t in ["r", "s"] {
                    let si = serial.table_info(t).unwrap();
                    let pi = par.table_info(t).unwrap();
                    assert_eq!(pi.loaded_columns, si.loaded_columns, "{t}");
                    assert_eq!(pi.store_bytes, si.store_bytes, "{t}");
                    assert_eq!(pi.posmap_bytes, si.posmap_bytes, "{t}");
                }
            }
        }
    }

    #[test]
    fn cold_range_query_loads_then_builds_index() {
        // With cracking enabled the very first (cold) range query loads
        // its column through the one column loader, then installs and
        // cracks the partitioned index outside the entry lock.
        let dir = std::env::temp_dir().join("nodb_engine_cold_crack");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..10_000i64 {
            data.push_str(&format!("{},{}\n", (i * 7919) % 10_000, i));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::default().with_threads(4);
        cfg.use_cracking = true;
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let out = e
            .sql("select count(*) from r where a1 > 100 and a1 < 200")
            .unwrap();
        // a1 is a permutation of 0..10000: exactly 99 strictly inside.
        assert_eq!(out.scalar(), Some(&Value::Int(99)));
        {
            let entry = e.catalog.read().get("r").unwrap();
            let entry = entry.read();
            assert!(entry.store.has_full(0), "column loaded in full");
            assert!(entry.store.has_cracked(0), "index built cold");
        }
        // Warm rerun: served from the cracked index, no file work.
        let before = e.counters().snapshot();
        let again = e
            .sql("select count(*) from r where a1 > 100 and a1 < 200")
            .unwrap();
        assert_eq!(again.scalar(), Some(&Value::Int(99)));
        assert_eq!(e.counters().snapshot().since(&before).file_trips, 0);
    }

    #[test]
    fn partial_v2_escalation_still_builds_cracked_index() {
        // Under PartialLoadsV2 + cracking, the monitor's escalation to
        // full column loads must still end with a cracked index (built
        // outside the entry lock by the post-load snapshot path).
        let dir = std::env::temp_dir().join("nodb_engine_v2_crack");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..2_000i64 {
            data.push_str(&format!("{},{}\n", i, i * 2));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV2).with_threads(2);
        cfg.use_cracking = true;
        cfg.escalate_after_misses = 2;
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        // Widening 2-D boxes keep missing cached fragments (each one
        // extends past the last fragment's bounds) until the monitor
        // escalates to full column loads.
        for q in 0..4i64 {
            let out = e
                .sql(&format!(
                    "select count(*) from r where a1 > {} and a2 < {}",
                    10 - q,
                    3000 + q
                ))
                .unwrap();
            assert!(matches!(out.scalar(), Some(Value::Int(_))), "query {q}");
        }
        let entry = e.catalog.read().get("r").unwrap();
        let entry = entry.read();
        assert!(entry.store.has_full(0), "escalated to full columns");
        assert!(entry.store.has_cracked(0), "index built after escalation");
    }

    #[test]
    fn warm_parallel_group_by_matches_serial_across_threads() {
        let dir = std::env::temp_dir().join("nodb_engine_warm_group");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..8_000i64 {
            data.push_str(&format!("{},{},{}\n", i % 31, i, i % 7));
        }
        std::fs::write(&path, &data).unwrap();
        let sql = "select a1, sum(a2), count(*) from r where a3 < 5 group by a1";
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for threads in [1, 2, 5] {
            let mut cfg = EngineConfig::default().with_threads(threads);
            cfg.morsel_rows = 500;
            let e = Engine::new(cfg);
            e.register_table("r", &path).unwrap();
            // Warm the store first so the grouped kernel (not the cold
            // pipeline) is what executes the second time.
            e.sql(sql).unwrap();
            let out = e.sql(sql).unwrap();
            match &reference {
                None => reference = Some(out.rows),
                Some(r) => assert_eq!(&out.rows, r, "threads={threads}"),
            }
            if threads > 1 {
                assert!(e.counters().snapshot().parallel_pipelines >= 1);
            }
        }
    }

    #[test]
    fn joins_gate_on_the_morsel_size() {
        let dir = std::env::temp_dir().join("nodb_engine_join_gate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let r = dir.join("r.csv");
        let s = dir.join("s.csv");
        let mut rd = String::new();
        let mut sd = String::new();
        for i in 0..4_000i64 {
            rd.push_str(&format!("{},{}\n", i, i * 2));
            sd.push_str(&format!("{},{}\n", (i * 13) % 4000, i));
        }
        std::fs::write(&r, &rd).unwrap();
        std::fs::write(&s, &sd).unwrap();
        let run = |morsel_rows: usize, sql: &str| {
            let mut cfg = EngineConfig::default().with_threads(4);
            cfg.morsel_rows = morsel_rows;
            let e = Engine::new(cfg);
            e.register_table("r", &r).unwrap();
            e.register_table("s", &s).unwrap();
            let out = e.sql(sql).unwrap();
            let before = e.counters().snapshot();
            let again = e.sql(sql).unwrap();
            assert_eq!(again.rows, out.rows);
            (out.rows, e.counters().snapshot().since(&before))
        };
        // An aggregate folds on the probe workers; a scalar join lists its
        // pairs. Both run inline while the larger side is below one
        // morsel, on stealing workers once it spans several, with the
        // same (integer) answer either way.
        for sql in [
            "select count(*), sum(s.a2) from r join s on r.a1 = s.a1",
            "select r.a2, s.a2 from r join s on r.a1 = s.a1 where r.a1 < 50",
        ] {
            let (rows_one, one_morsel) = run(100_000, sql);
            assert_eq!(one_morsel.parallel_pipelines, 0, "{sql}");
            let (rows_many, many) = run(1_000, sql);
            assert!(many.parallel_pipelines >= 1, "{sql}");
            assert_eq!(rows_many, rows_one, "{sql}");
        }
    }

    #[test]
    fn racing_cracked_range_queries_agree() {
        // Warm range queries under `use_cracking` take the short-lock
        // fast path and crack the partitioned index concurrently; every
        // racing query must still count exactly its range.
        let dir = std::env::temp_dir().join("nodb_engine_crack_race");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..30_000i64 {
            data.push_str(&format!("{},{}\n", (i * 6151) % 30_000, i));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::default().with_threads(4);
        cfg.use_cracking = true;
        let e = Arc::new(Engine::new(cfg));
        e.register_table("r", &path).unwrap();
        e.sql("select sum(a1) from r").unwrap(); // load the column
        let mut handles = Vec::new();
        for t in 0..8i64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for q in 0..6i64 {
                    let lo = (t * 2_311 + q * 4_799) % 25_000;
                    let hi = lo + 2_000;
                    let out = e
                        .sql(&format!(
                            "select count(*) from r where a1 > {lo} and a1 < {hi}"
                        ))
                        .unwrap();
                    // a1 is a permutation of 0..30000: exactly hi-lo-1
                    // values fall strictly inside the range.
                    assert_eq!(out.rows[0][0], Value::Int(hi - lo - 1), "({lo},{hi})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No racing query re-read the file: everything came from the
        // store and the cracked index.
        assert_eq!(e.counters().snapshot().file_trips, 1);
    }

    #[test]
    fn concurrent_queries_are_safe() {
        let (_d, e) = setup("concurrent", DATA);
        let e = Arc::new(e);
        let mut handles = Vec::new();
        for t in 0..8 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let col = ["a1", "a2", "a3", "a4"][t % 4];
                let out = e.sql(&format!("select sum({col}) from r")).unwrap();
                out.rows[0][0].clone()
            }));
        }
        let results: Vec<Value> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // a1: 10, a2: 60, a3: 510, a4: 39 — verify one of each.
        assert!(results.contains(&Value::Int(10)));
        assert!(results.contains(&Value::Int(60)));
        assert!(results.contains(&Value::Int(510)));
        assert!(results.contains(&Value::Int(39)));
    }

    /// Regression: an over-budget charge from a parallel worker runs the
    /// pool's reclaimer (the degradation ladder) on that worker. Inside a
    /// cold load the load's driver holds the table's entry write lock, so
    /// `release_memory` must skip that locked entry (`try_write`) instead
    /// of blocking on it — blocking deadlocked the scan against its own
    /// reclaim forever. Inside the group kernel of a warm query the ladder
    /// evicts the very columns the query reads (its snapshot keeps them).
    /// Either way the offending query sheds with a typed error; the engine
    /// and the table keep serving.
    #[test]
    fn over_budget_cold_scan_reclaims_without_deadlocking() {
        let dir = std::env::temp_dir().join("nodb_engine_mem_cold_scan");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..20_000i64 {
            data.push_str(&format!("{},{}\n", i % 8192, i));
        }
        std::fs::write(&path, &data).unwrap();
        let group_by = "select a1, sum(a2) from r group by a1";
        // 8 KiB is below one chunk buffer of the cold load: the shed comes
        // from a load worker. 48 KiB holds the load's buffers but not one
        // morsel's group table (2 048 distinct keys): once the table is
        // loaded, the shed comes from the group kernel.
        for (cap, preload) in [(8 * 1024, false), (48 * 1024, true)] {
            let mut cfg = EngineConfig::default().with_threads(4);
            cfg.morsel_rows = 2048; // many morsels: charges come from workers
            cfg.engine_mem_bytes = Some(cap);
            let e = Arc::new(Engine::new(cfg));
            e.register_table("r", &path).unwrap();
            let s = e.session(); // installs the degradation-ladder reclaimer
            if preload {
                s.sql("select sum(a1), sum(a2) from r").unwrap();
                assert_eq!(e.table_info("r").unwrap().loaded_columns, [0, 1]);
            }

            // Armed profile: the ladder runs inside a charge while the
            // same thread-local carries the open phase timers, and must
            // not hit a double borrow of it.
            let sink = ProfileSink::handle();
            let _profile = ProfileScope::enter(Arc::clone(&sink));
            let before = e.counters().snapshot();
            let err = s.sql(group_by).unwrap_err();
            assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
            assert!(sink.snapshot().total_phase_ns() > 0);
            let shed = e.counters().snapshot().since(&before);
            if preload {
                // No load ran: the refused charge was the group kernel's,
                // and the ladder it ran evicted the loaded columns.
                assert_eq!((shed.file_trips, shed.values_parsed), (0, 0));
                assert!(e.table_info("r").unwrap().loaded_columns.is_empty());
            } else {
                assert!(shed.file_trips > 0, "the cold load ran");
            }
            // The shed killed one query, not the engine: the same table
            // still answers, and the refused reservation was handed back.
            let out = s.sql("select count(*) from r").unwrap();
            assert_eq!(out.rows, vec![vec![Value::Int(20_000)]]);
            assert_eq!(e.memory_pool().reserved(), 0);
        }
    }

    /// Like [`setup`] but with the (opt-in) result cache switched on.
    fn setup_cached(name: &str, content: &str) -> (PathBuf, Engine) {
        let dir = std::env::temp_dir().join(format!("nodb_engine_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        std::fs::write(&path, content).unwrap();
        // ColumnLoads keeps referenced columns fully resident, so family
        // (subsumption) entries can be captured; partial strategies only
        // get exact-repeat hits.
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
        cfg.store_dir = Some(dir.join("store"));
        cfg.result_cache_bytes = 1 << 20;
        let engine = Engine::new(cfg);
        engine.register_table("r", &path).unwrap();
        (dir, engine)
    }

    #[test]
    fn repeat_query_hits_the_result_cache() {
        let (_d, e) = setup_cached("rc_repeat", DATA);
        let sql = "select a1, a3 from r where a1 > 0 and a1 < 4 order by a1 desc limit 2";
        let cold = e.sql(sql).unwrap();
        let s1 = e.counters().snapshot();
        assert_eq!(s1.result_cache_misses, 1);
        assert_eq!(s1.result_cache_hits, 0);
        let warm = e.sql(sql).unwrap();
        let s2 = e.counters().snapshot().since(&s1);
        assert_eq!(s2.result_cache_hits, 1);
        assert_eq!(s2.result_cache_misses, 0);
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.columns, cold.columns);
        // Aggregates cache their final merged result too.
        let agg = "select a4, count(*) from r group by a4 order by a4";
        let cold_agg = e.sql(agg).unwrap();
        let warm_agg = e.sql(agg).unwrap();
        assert_eq!(warm_agg.rows, cold_agg.rows);
        assert!(e.counters().snapshot().result_cache_hits >= 2);
    }

    /// A hit on a cached grouped result pages straight from the cache
    /// entry's columns (the row-shaped cache deep-cloned its rows per hit,
    /// unmetered): nothing is copied, so nothing is reserved, and the pool
    /// is back at its idle level once each stream is dropped.
    #[test]
    fn grouped_cache_hit_shares_the_cached_columns() {
        let dir = std::env::temp_dir().join("nodb_engine_rc_grouped_share");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        let mut data = String::new();
        for i in 0..120_000i64 {
            data.push_str(&format!("{},{}\n", i, i % 7));
        }
        std::fs::write(&path, &data).unwrap();
        let mut cfg = EngineConfig::default().with_threads(2);
        cfg.result_cache_bytes = 64 << 20;
        cfg.engine_mem_bytes = Some(1 << 30); // meter every query
        let e = Arc::new(Engine::new(cfg));
        e.register_table("r", &path).unwrap();
        let s = e.session();
        let pool = e.memory_pool();
        let idle = pool.reserved();

        let sql = "select a1, sum(a2), count(*) from r group by a1";
        let miss = s.query(sql).unwrap();
        assert_eq!(miss.rows_remaining(), 120_000);
        assert!(pool.reserved() > idle, "the capture is metered");
        drop(miss);
        assert_eq!(pool.reserved(), idle);

        let plan = e.plan_select(sql).unwrap();
        let cached = e
            .result_cache()
            .get_exact(&plan_fingerprint(&plan), |t| e.ensured_epoch(t).ok())
            .expect("the grouped result was cached");
        let mut hit = s.query(sql).unwrap();
        assert_eq!(e.counters().snapshot().result_cache_hits, 1);
        assert_eq!(hit.rows_remaining(), 120_000);
        assert_eq!(pool.reserved(), idle, "a hit copies nothing");
        let page = hit.next_columns().unwrap().expect("a first page");
        assert_eq!(page.n_cols(), cached.len());
        for (served, cached) in page.columns().iter().zip(&cached) {
            assert!(std::ptr::eq(served.data(), Arc::as_ptr(cached)));
        }
        drop(hit);
        assert_eq!(pool.reserved(), idle);
    }

    #[test]
    fn subsumed_range_is_answered_from_a_wider_cached_result() {
        let (_d, e) = setup_cached("rc_subsume", DATA);
        // Wide σ range: installs a family entry recording the interval.
        e.sql("select a1, a2 from r where a1 > 0 and a1 < 5")
            .unwrap();
        // Strictly contained range with a different window and ordering:
        // served by re-filtering the cached rows, never re-executed.
        let narrow = "select a1, a2 from r where a1 > 1 and a1 < 4 order by a1 desc limit 1";
        let before = e.counters().snapshot();
        let out = e.sql(narrow).unwrap();
        let delta = e.counters().snapshot().since(&before);
        assert_eq!(delta.result_cache_subsumed_hits, 1);
        assert_eq!(out.rows, vec![vec![Value::Int(3), Value::Int(13)]]);
        // Must be byte-identical to a cold engine answering the same query.
        let (_d2, cold) = setup("rc_subsume_cold", DATA);
        let reference = cold.sql(narrow).unwrap();
        assert_eq!(out.rows, reference.rows);
        assert_eq!(out.columns, reference.columns);
    }

    #[test]
    fn replaced_result_table_never_serves_stale_cached_rows() {
        let (_d, e) = setup_cached("rc_replace", DATA);
        let small = e.sql("select a1 from r where a1 < 2").unwrap();
        e.register_result("t", &small).unwrap();
        let q = "select a1 from t order by a1";
        let first = e.sql(q).unwrap();
        assert_eq!(first.rows, vec![vec![Value::Int(0)], vec![Value::Int(1)]]);
        assert_eq!(e.sql(q).unwrap().rows, first.rows); // cached
        assert!(e.counters().snapshot().result_cache_hits >= 1);
        // Replace `t` wholesale: the repeat query must see the new rows.
        let big = e.sql("select a1 from r where a1 >= 3").unwrap();
        e.register_result("t", &big).unwrap();
        let after = e.sql(q).unwrap();
        assert_eq!(after.rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
        // And dropping the table purges its entries outright.
        let live = e.result_cache().len();
        assert!(live > 0);
        assert!(e.unregister_table("t"));
        let out = e.sql(q);
        assert!(out.is_err(), "query against a dropped table must fail");
        assert!(e.result_cache().len() < live);
    }

    #[test]
    fn file_edit_invalidates_cached_results() {
        let (dir, e) = setup_cached("rc_fileedit", DATA);
        let q = "select sum(a1) from r where a1 > 0 and a1 < 5";
        assert_eq!(e.sql(q).unwrap().scalar(), Some(&Value::Int(10)));
        assert_eq!(e.sql(q).unwrap().scalar(), Some(&Value::Int(10)));
        assert!(e.counters().snapshot().result_cache_hits >= 1);
        // Rewrite the raw file: the fingerprint check bumps the schema
        // epoch, so every cached result over `r` is unservable.
        std::fs::write(dir.join("r.csv"), "0,1,2,3\n4,1,2,3\n").unwrap();
        assert_eq!(e.sql(q).unwrap().scalar(), Some(&Value::Int(4)));
    }
}
