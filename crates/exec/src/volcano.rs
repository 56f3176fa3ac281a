//! Volcano (tuple-at-a-time) execution — the row-store strategy of §5.2.
//!
//! "Row-store operators operate in a volcano style passing one tuple at a
//! time from one operator to the next. No materialization is needed but
//! numerous function calls are required." The engine never runs it: scan,
//! filter and aggregate are kept as the baseline the kernel ablation bench
//! measures the other strategies against.
//!
//! Tuples move through a *caller-provided* row buffer ([`RowOp::next_into`])
//! that each operator refills in place, so a pipeline allocates O(depth)
//! buffers total instead of one fresh `Vec<Value>` per tuple per operator.

use nodb_types::{Conjunction, Result, Value};

use crate::agg::Accumulator;
use crate::cols::Cols;
use crate::columnar::AggSpec;

/// A pull-based row operator.
pub trait RowOp {
    /// Fill `row` with the next tuple, returning `false` when exhausted.
    /// The buffer is reused across calls; operators must overwrite it
    /// completely (its previous contents are unspecified).
    fn next_into(&mut self, row: &mut Vec<Value>) -> Result<bool>;

    /// Produce the next tuple as an owned vector (allocating), or `None`
    /// when exhausted. Convenience for tests and materialising sinks.
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        let mut row = Vec::new();
        Ok(self.next_into(&mut row)?.then_some(row))
    }
}

/// Scan materialised columns as full-width rows. Columns absent from the
/// source yield NULL (they were not needed by the plan).
pub struct ColumnsScan<'a, C: Cols + ?Sized> {
    cols: &'a C,
    ids: Vec<usize>,
    width: usize,
    n_rows: usize,
    i: usize,
    // Every volcano pipeline pulls through a leaf scan, so polling here
    // covers the whole tuple-at-a-time strategy.
    cancel: nodb_types::CancelCheck,
}

impl<'a, C: Cols + ?Sized> ColumnsScan<'a, C> {
    /// Scan `n_rows` rows of width `width`.
    pub fn new(cols: &'a C, width: usize, n_rows: usize) -> Self {
        ColumnsScan {
            ids: cols.col_ids(),
            cols,
            width,
            n_rows,
            i: 0,
            cancel: nodb_types::CancelCheck::new(),
        }
    }
}

impl<C: Cols + ?Sized> RowOp for ColumnsScan<'_, C> {
    fn next_into(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        if self.i >= self.n_rows {
            return Ok(false);
        }
        self.cancel.tick(1)?;
        let i = self.i;
        self.i += 1;
        row.clear();
        row.resize(self.width, Value::Null);
        for &c in &self.ids {
            if c < self.width {
                row[c] = self.cols.get_col(c).expect("listed").get(i);
            }
        }
        Ok(true)
    }
}

/// Tuple-at-a-time filter.
pub struct FilterOp<I: RowOp> {
    input: I,
    conj: Conjunction,
}

impl<I: RowOp> FilterOp<I> {
    /// Filter `input` by `conj`.
    pub fn new(input: I, conj: Conjunction) -> Self {
        FilterOp { input, conj }
    }
}

impl<I: RowOp> RowOp for FilterOp<I> {
    fn next_into(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        while self.input.next_into(row)? {
            if self.conj.matches_row(row) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Blocking aggregate: drains its input, emits a single tuple of results.
pub struct AggregateOp<I: RowOp> {
    input: I,
    specs: Vec<AggSpec>,
    done: bool,
    scratch: Vec<Value>,
}

impl<I: RowOp> AggregateOp<I> {
    /// Aggregate the whole input.
    pub fn new(input: I, specs: Vec<AggSpec>) -> Self {
        AggregateOp {
            input,
            specs,
            done: false,
            scratch: Vec::new(),
        }
    }
}

impl<I: RowOp> RowOp for AggregateOp<I> {
    fn next_into(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        self.done = true;
        let mut accs: Vec<Accumulator> = self
            .specs
            .iter()
            .map(|s| Accumulator::new(s.func))
            .collect();
        while self.input.next_into(&mut self.scratch)? {
            for (acc, spec) in accs.iter_mut().zip(&self.specs) {
                match &spec.expr {
                    None => acc.update(&Value::Null)?,
                    Some(e) => acc.update(&e.eval_row(&self.scratch)?)?,
                }
            }
        }
        row.clear();
        row.reserve(accs.len());
        for a in &accs {
            row.push(a.finish()?);
        }
        Ok(true)
    }
}

/// Drain an operator into a vector of rows.
pub fn collect(op: &mut dyn RowOp) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    let mut row = Vec::new();
    while op.next_into(&mut row)? {
        out.push(std::mem::take(&mut row));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use nodb_types::{CmpOp, ColPred, ColumnData};
    use std::collections::BTreeMap;

    fn cols() -> BTreeMap<usize, ColumnData> {
        let mut m = BTreeMap::new();
        m.insert(0, ColumnData::from_i64(vec![5, 1, 9, 3, 7]));
        m.insert(1, ColumnData::from_i64(vec![10, 20, 30, 40, 50]));
        m
    }

    #[test]
    fn scan_produces_full_width_rows() {
        let c = cols();
        let mut scan = ColumnsScan::new(&c, 3, 5);
        let first = scan.next().unwrap().unwrap();
        assert_eq!(first, vec![Value::Int(5), Value::Int(10), Value::Null]);
        let rest = collect(&mut scan).unwrap();
        assert_eq!(rest.len(), 4);
    }

    #[test]
    fn next_into_reuses_one_buffer() {
        let c = cols();
        let mut scan = ColumnsScan::new(&c, 2, 5);
        let mut row = Vec::new();
        let mut seen = 0;
        while scan.next_into(&mut row).unwrap() {
            assert_eq!(row.len(), 2);
            seen += 1;
        }
        assert_eq!(seen, 5);
        // Exhausted: buffer contents untouched, returns false.
        assert!(!scan.next_into(&mut row).unwrap());
    }

    #[test]
    fn filter_passes_qualifying_rows_only() {
        let c = cols();
        let scan = ColumnsScan::new(&c, 2, 5);
        let mut filter = FilterOp::new(
            scan,
            Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 3i64)]),
        );
        let rows = collect(&mut filter).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(5), Value::Int(10)],
                vec![Value::Int(9), Value::Int(30)],
                vec![Value::Int(7), Value::Int(50)]
            ]
        );
    }

    #[test]
    fn aggregate_pipeline_matches_columnar() {
        let c = cols();
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 0),
            AggSpec::on_col(AggFunc::Avg, 1),
            AggSpec::count_star(),
        ];
        let scan = ColumnsScan::new(&c, 2, 5);
        let filter = FilterOp::new(
            scan,
            Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 3i64)]),
        );
        let mut agg = AggregateOp::new(filter, specs.clone());
        let volcano_row = collect(&mut agg).unwrap().remove(0);
        let pos = crate::columnar::filter_positions(
            &c,
            5,
            &Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 3i64)]),
        )
        .unwrap();
        let columnar = crate::columnar::aggregate(&c, 5, Some(&pos), &specs).unwrap();
        assert_eq!(volcano_row, columnar);
    }

    #[test]
    fn aggregate_emits_exactly_once() {
        let c = cols();
        let scan = ColumnsScan::new(&c, 2, 5);
        let mut agg = AggregateOp::new(scan, vec![AggSpec::count_star()]);
        assert!(agg.next().unwrap().is_some());
        assert!(agg.next().unwrap().is_none());
        assert!(agg.next().unwrap().is_none());
    }
}
