//! # nodb-exec — the execution kernels
//!
//! One kernel per query shape, each typed and column-at-a-time, plus the
//! shared building blocks:
//!
//! * [`group`] — the typed, vectorized hash aggregation kernel (dense
//!   group ids + typed per-group state) every aggregate runs: GROUP BY,
//!   and the plain aggregate as its zero-key case, which is the paper's
//!   §5.2.2 hybrid operator (filter and every aggregate in one pass);
//! * [`columnar`] — the one predicate kernel every filter runs
//!   ([`filter_positions_range`]: each column's conjuncts folded into one
//!   [`nodb_types::ColumnTest`], blocks scanned branch-free), sorting and
//!   projection (MonetDB style);
//! * [`expr`] / [`agg`] — scalar expressions and aggregate functions;
//! * [`join`] — hash equi-joins over columns, and the flat [`JoinTable`]
//!   every integer hash join probes (direct-addressed over dense keys);
//! * [`morsel`] — morsel-parallel variants of all of the above
//!   (deterministic, independent of the worker count), including the
//!   fold of aggregates over a join on its probe workers
//!   ([`parallel_join_group_columns`]), plus the fused *cold*
//!   projection ([`cold_project_morsel`]) that consumes
//!   [`nodb_types::MorselBatch`]es straight from the tokenizer.
//!
//! The engine (`nodb-core`) runs [`group`] for every aggregate and
//! columnar selection vectors for scalar queries, and connects the
//! tokenizer's morsel scan (`nodb-rawcsv`) to the same kernels.

pub mod agg;
pub mod cols;
pub mod columnar;
pub mod expr;
pub mod group;
pub mod join;
pub mod morsel;
pub mod stream;

pub use agg::{Accumulator, AggFunc};
pub use cols::Cols;
pub use columnar::{
    filter_positions, filter_positions_range, project_rows, sort_positions, AggSpec, GroupKey,
};
pub use expr::{arith, ArithOp, Expr};
pub use group::{group_partial_range, merge_group_partials, GroupPartial};
pub use join::{hash_join_positions, JoinTable};
pub use morsel::{
    cold_project_morsel, parallel_filter_aggregate, parallel_filter_positions,
    parallel_group_aggregate, parallel_group_columns, parallel_hash_join_positions,
    parallel_join_group_columns, stitch_cold_projection, JoinSide, OrdinalCols, ProjectPartial,
    DEFAULT_MORSEL_ROWS,
};
pub use stream::{project_columns, ProjectionCursor};
