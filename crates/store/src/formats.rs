//! The row batch: results as rows, at the API edge.
//!
//! Inside the engine a result is typed columns from kernel to wire frame;
//! [`RowBatch`] is the row-major (NSM) view handed out where a caller asks
//! for rows — `QueryStream::next_batch` and the client's `fetch`.

use nodb_types::{Schema, Value};

/// A batch of result rows with their schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    /// Schema of the rows.
    pub schema: Schema,
    /// Row-major tuples, each `schema.len()` wide.
    pub rows: Vec<Vec<Value>>,
}

impl RowBatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}
