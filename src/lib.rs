#![doc = include_str!("../README.md")]
//!
//! ---
//!
//! # Crate map
//!
//! This facade re-exports the public API of the workspace. The individual
//! crates, re-exported as modules here:
//!
//! * [`types`] — values, schemas, predicates, intervals, work counters,
//!   and the shared morsel driver + batch type every parallel pipeline
//!   stage speaks.
//! * [`rawcsv`] — the raw-file substrate: generators, two-phase
//!   tokenizer (merged scans and morsel scans), positional map, schema
//!   inference, file splitting.
//! * [`store`] — the adaptive store: columns, fragments, row/PAX formats,
//!   partitioned cracking, eviction, binary persistence.
//! * [`exec`] — the adaptive kernel: columnar/volcano/hybrid operators,
//!   morsel-parallel kernels and the fused cold-pipeline operators.
//! * [`sql`] — SQL parsing and logical planning.
//! * [`core`] — the engine tying it together: catalog, loading policies,
//!   fused cold pipeline, plan cache, result cache, sessions, workload
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
