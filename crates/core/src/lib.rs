//! # nodb-core — the adaptive raw-file query engine
//!
//! The paper's architecture (Figure 2): flat files at the bottom, an
//! *adaptive loading component* that brings in just enough data per query,
//! an *adaptive store* holding it in whatever shape fits, and an *adaptive
//! kernel* executing over it. This crate is the glue:
//!
//! * [`Engine`] — register raw CSV files, fire SQL, get results; a cold
//!   query loads its columns in one parallel pass over the raw file
//!   (`nodb-rawcsv`) into the adaptive store of `nodb-store`, then the
//!   kernels of `nodb-exec` answer it as they answer a warm one;
//! * [`config`] — loading strategies (one per curve in the paper's
//!   figures) and the engine's other knobs (see `docs/TUNING.md`);
//! * [`policy`] — the adaptive loading operators (§3, §4);
//! * [`catalog`] — linked files, schema inference on first touch,
//!   fingerprint-based invalidation on file edits (§5.4);
//! * [`session`] — prepared statements, parameter binding, streaming
//!   results, results-as-tables;
//! * [`plan_cache`] — resolved plans keyed by normalized SQL text;
//! * [`result_cache`] — completed results kept as first-class data,
//!   answering repeat and range-subsumed queries without re-execution;
//! * [`monitor`] — the robustness advisor (§5.5).
//!
//! ```no_run
//! use nodb_core::{Engine, EngineConfig, LoadingStrategy};
//!
//! let engine = Engine::new(EngineConfig::with_strategy(LoadingStrategy::ColumnLoads));
//! engine.register_table("r", "/data/readings.csv")?;
//! let out = engine.sql("select sum(a1), avg(a2) from r where a1 > 10 and a1 < 20")?;
//! println!("{:?}", out.rows);
//! # Ok::<(), nodb_types::Error>(())
//! ```

pub mod catalog;
pub mod config;
pub mod engine;
pub mod monitor;
pub mod plan_cache;
pub mod policy;
pub mod result_cache;
pub mod session;

pub use catalog::{Catalog, Fingerprint, TableEntry};
pub use config::{EngineConfig, LoadingStrategy};
pub use engine::{Engine, QueryOutput, QueryStats, TableInfo};
pub use monitor::TableMonitor;
pub use plan_cache::PlanCache;
pub use policy::{materialize, Materialized};
pub use result_cache::ResultCache;
pub use session::{BoundStatement, Prepared, QueryStream, Session};

// The whole serving stack hands these out across threads: one shared
// engine behind `Arc`, one session per connection, prepared statements
// callable from wherever the connection lands. Keep that thread-safety a
// compile-time fact rather than an accident of field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Session>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<BoundStatement>();
    assert_send_sync::<QueryOutput>();
};
