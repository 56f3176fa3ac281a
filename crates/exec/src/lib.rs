//! # nodb-exec — the adaptive kernel
//!
//! "We argue towards an adaptive kernel where at any given time multiple
//! different execution strategies are possible to better fit the workload"
//! (§5.2.1). This crate ships three interchangeable strategies plus the
//! shared building blocks:
//!
//! * [`columnar`] — column-at-a-time operators with materialised selection
//!   vectors (MonetDB style);
//! * [`volcano`] — tuple-at-a-time pull operators (row-store style);
//! * [`hybrid`] — fused filter+multi-aggregate single-pass operators
//!   (§5.2.2 hybrid operators);
//! * [`expr`] / [`agg`] — scalar expressions and aggregate accumulators;
//! * [`group`] — the typed, vectorized hash GROUP BY kernel (dense group
//!   ids + typed per-group state) every grouped path runs;
//! * [`join`] — hash and sort-merge equi-joins over columns, and the flat
//!   [`JoinTable`] every integer hash join probes;
//! * [`morsel`] — morsel-parallel variants of all of the above
//!   (deterministic, independent of the worker count), plus the fused
//!   *cold* operators ([`cold_project_morsel`],
//!   [`cold_join_build_morsel`]) that consume
//!   [`nodb_types::MorselBatch`]es straight from the tokenizer.
//!
//! The engine (`nodb-core`) runs one kernel per query shape — the fused
//! hybrid operator for plain aggregates, [`group`] for GROUP BY, columnar
//! selection vectors for scalar queries — and connects the tokenizer's
//! morsel scan (`nodb-rawcsv`) to the fused cold operators; [`volcano`]
//! is kept for the `kernels` criterion bench, which measures the
//! trade-offs the paper describes.

pub mod agg;
pub mod cols;
pub mod columnar;
pub mod expr;
pub mod group;
pub mod hybrid;
pub mod join;
pub mod morsel;
pub mod stream;
pub mod volcano;

pub use agg::{Accumulator, AggFunc};
pub use cols::Cols;
pub use columnar::{
    accumulate_into, aggregate, filter_positions, filter_positions_range, project_rows,
    sort_positions, AggSpec, GroupKey,
};
pub use expr::{arith, ArithOp, Expr};
pub use group::{group_partial_range, merge_group_partials, GroupPartial};
pub use hybrid::fused_filter_aggregate;
pub use join::{hash_join_positions, merge_join_positions, split_pairs, JoinTable};
pub use morsel::{
    cold_join_build_morsel, cold_project_morsel, parallel_filter_aggregate,
    parallel_filter_positions, parallel_group_aggregate, parallel_group_columns,
    parallel_hash_join_positions, stitch_cold_projection, OrdinalCols, ProjectPartial,
    DEFAULT_MORSEL_ROWS,
};
pub use stream::{project_columns, ProjectionCursor};
pub use volcano::{collect, AggregateOp, ColumnsScan, FilterOp, RowOp};
