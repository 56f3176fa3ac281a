#![doc = include_str!("../README.md")]
//!
//! ---
//!
//! # Crate map
//!
//! This facade re-exports the public API of the workspace. The individual
//! crates, re-exported as modules here:
//!
//! * [`types`] — values, typed columns and their dictionaries, schemas,
//!   predicates, intervals, work counters, memory governance, and the
//!   morsel driver every parallel stage runs on.
//! * [`rawcsv`] — the raw-file substrate: generators, the row tokenizer
//!   (phase 1, and one per-row kernel with predicate pushdown that every
//!   load and `scan_bytes` run), positional map, schema inference, file
//!   splitting.
//! * [`store`] — the adaptive store: columns, fragments, the `RowBatch`
//!   row format, partitioned cracking, eviction, binary persistence.
//! * [`exec`] — the execution kernels: one typed aggregation kernel for
//!   every aggregate (a plain aggregate is a zero-key GROUP BY), columnar
//!   selection vectors, the flat hash join and their morsel-parallel
//!   drivers.
//! * [`sql`] — SQL parsing and logical planning.
//! * [`core`] — the engine tying it together: catalog, loading policies,
//!   parallel cold load, plan cache, result cache, sessions, workload
//!   monitor.
//! * [`server`] — the concurrent TCP query server and matching blocking
//!   client: length-prefixed wire protocol, session per connection,
//!   admission control with typed BUSY backpressure.
//! * [`baselines`] — the paper's comparison systems (awk-like scripting,
//!   external sort + merge join).
//!
//! `docs/ARCHITECTURE.md` walks the end-to-end data flow; `docs/TUNING.md`
//! documents every [`EngineConfig`] knob and work counter;
//! `docs/ROBUSTNESS.md` covers cancellation, deadlines, client retry and
//! the failpoint fault-injection harness; `docs/OBSERVABILITY.md` covers
//! execution profiles, `EXPLAIN ANALYZE`, the server's latency histograms
//! and the slow-query log.

pub use nodb_baselines as baselines;
pub use nodb_core as core;
pub use nodb_exec as exec;
pub use nodb_rawcsv as rawcsv;
pub use nodb_server as server;
pub use nodb_sql as sql;
pub use nodb_store as store;
pub use nodb_types as types;

pub use nodb_core::{
    BoundStatement, Engine, EngineConfig, LoadingStrategy, Prepared, QueryOutput, QueryStats,
    QueryStream, ResultCache, Session, TableInfo,
};
pub use nodb_server::{
    latency_from_extras, Client, ConnectOptions, NodbServer, RemoteCursor, RemoteStatement,
    RetryPolicy, ServerConfig, LATENCY_SERIES,
};
pub use nodb_store::RowBatch;
pub use nodb_types::{
    CancelCheck, CancelScope, CancelToken, ColumnPage, CountersSnapshot, DataType, Error, Field,
    LatencyHistogram, ProfileScope, ProfileSink, QueryProfile, Result, Schema, Value, ValueRef,
    WorkCounters,
};
