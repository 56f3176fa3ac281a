//! Core types shared by every crate of the `nodb` engine.
//!
//! This crate is the dependency root of the workspace. It defines:
//!
//! * [`Value`] / [`DataType`] — the scalar value model (64-bit ints, 64-bit
//!   floats, UTF-8 strings, SQL-style nulls),
//! * [`Schema`] / [`Field`] — table schemas,
//! * [`Error`] / [`Result`] — the error type used across the engine,
//! * [`predicate`] — column predicates and conjunctions, the currency in
//!   which queries communicate their needs to the adaptive loader,
//! * [`interval`] — interval algebra used by the adaptive store's
//!   table-of-contents to describe which value ranges of a column have been
//!   loaded (paper §3.1.3, "a tree structure that organizes the data parts of
//!   each column based on values"),
//! * [`counters`] — work counters (bytes read, fields tokenized, ...) that
//!   make the benchmark "shape" claims auditable,
//! * [`morsel`] — the morsel-stealing driver ([`drive_morsels`], and its
//!   ordered wrapper [`map_morsels`]), the only place an engine crate
//!   starts a thread,
//! * [`context`] — the one [`QueryContext`] (cancel token, memory guard,
//!   profile sink) each thread carries, installed by an entry point and
//!   by the driver on each of its workers,
//! * [`page`] — [`ColumnPage`], the borrowed typed view one page of a
//!   scalar result travels as from the selection vector to the wire
//!   frame; rows are built from it only at the API edge,
//! * [`cancel`] — cooperative query cancellation: a [`CancelToken`]
//!   carried in the context ([`CancelScope`] installs one alone), polled
//!   by the morsel driver at every steal and by serial loops via
//!   [`CancelCheck`],
//! * [`failpoints`] — a std-only fault-injection registry (zero-cost
//!   when disarmed) used by robustness tests to inject errors, delays,
//!   and panics mid-pipeline,
//! * [`resource`] — per-query memory governance: a [`MemoryGuard`]
//!   allocation meter carried in the context, reserving from an
//!   engine-wide [`MemoryPool`] whose degradation ladder runs before any
//!   query is shed with [`Error::ResourceExhausted`],
//! * [`profile`] — query-level observability: a [`ProfileSink`] carried
//!   in the context ([`ProfileScope`] installs one; one thread-local read
//!   when off), folding phase timers and per-worker morsel aggregates into a
//!   [`QueryProfile`], plus the [`LatencyHistogram`] the wire server
//!   uses for per-opcode latency percentiles.

pub mod cancel;
pub mod column;
pub mod context;
pub mod counters;
pub mod error;
pub mod failpoints;
pub mod interval;
pub mod morsel;
pub mod page;
pub mod predicate;
pub mod profile;
pub mod resource;
pub mod schema;
pub mod value;

pub use cancel::{CancelCheck, CancelScope, CancelToken};
pub use column::ColumnData;
pub use context::{ContextGuard, QueryContext};
pub use counters::{CountersSnapshot, WorkCounters};
pub use error::{Error, Result};
pub use interval::{Bound, Interval, IntervalSet};
pub use morsel::{drive_morsels, map_morsels, morsel_count, MorselRange};
pub use page::{ColumnPage, PageColumn, Selection};
pub use predicate::{float_key, CmpOp, ColPred, ColumnTest, Conjunction, SelectionBox};
pub use profile::{
    CacheOutcome, LatencyHistogram, Phase, ProfileHandle, ProfileScope, ProfileSink, QueryProfile,
};
pub use resource::{MemoryGuard, MemoryPool};
pub use schema::{Field, Schema};
pub use value::{DataType, Value, ValueRef};
