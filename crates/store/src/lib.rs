//! # nodb-store — the adaptive store
//!
//! In the NoDB architecture the storage layer has two parts: "(a) the flat
//! data files and (b) the data that the engine creates to fit the workload,
//! the Adaptive Store" (§5.1). This crate is part (b):
//!
//! * [`adaptive`] — per-table storage holding full columns, selection-box
//!   fragments (partial loads) and cracked copies side by side, with LRU
//!   eviction under a byte budget (§5.1.3 life-time management);
//! * [`cracking`] — database cracking, the adaptive index behind Figure 1's
//!   "Index DB" curve;
//! * [`formats`] — [`RowBatch`], the row-shaped view of a result at the
//!   API edge;
//! * [`persist`] — typed binary column files so restarts ("cold DB" runs)
//!   skip re-parsing CSV.

pub mod adaptive;
pub mod cracking;
pub mod formats;
pub mod persist;

pub use adaptive::{Fragment, FullColumn, TableData};
pub use cracking::{CrackedColumn, PartitionedCracked};
pub use formats::RowBatch;
pub use persist::{read_column, write_column};
