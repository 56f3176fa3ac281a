//! Incremental (paged) projection.
//!
//! The scalar tail of a query plan — filter → order → offset/limit →
//! project — does not need to materialise its output at all: once the
//! qualifying positions are known, a page of the result is just those
//! positions over the columns they select from. [`ProjectionCursor`]
//! owns the materialised columns and the selection and hands out each
//! page as a borrowed [`ColumnPage`]: plain column outputs are read in
//! place through the selection, literal and arithmetic outputs are
//! evaluated into one typed vector per page. Rows exist only where a
//! caller asks the page for them ([`ColumnPage::to_rows`]).

use nodb_types::{ColumnData, ColumnPage, Error, PageColumn, Result, Selection};

use crate::cols::Cols;
use crate::expr::Expr;

/// The rows a cursor pages through.
enum Rows {
    /// These positions of the columns, in this order.
    Positions(Vec<usize>),
    /// Every row `0..n` of the columns.
    All(usize),
}

/// A resumable projection over materialised columns: pages through its
/// rows in caller-sized chunks.
pub struct ProjectionCursor<C> {
    cols: C,
    rows: Rows,
    exprs: Vec<Expr>,
    cursor: usize,
}

impl<C: Cols> ProjectionCursor<C> {
    /// Cursor over `positions` of `cols`, projecting `exprs` per row.
    pub fn new(cols: C, positions: Vec<usize>, exprs: Vec<Expr>) -> ProjectionCursor<C> {
        ProjectionCursor {
            cols,
            rows: Rows::Positions(positions),
            exprs,
            cursor: 0,
        }
    }

    /// Cursor over all `n_rows` rows of `cols` — already-projected output
    /// columns (a result-cache payload, the fused cold emitter's chunks)
    /// need no selection vector.
    pub fn over_all(cols: C, n_rows: usize, exprs: Vec<Expr>) -> ProjectionCursor<C> {
        ProjectionCursor {
            cols,
            rows: Rows::All(n_rows),
            exprs,
            cursor: 0,
        }
    }

    fn len(&self) -> usize {
        match &self.rows {
            Rows::Positions(p) => p.len(),
            Rows::All(n) => *n,
        }
    }

    /// Rows not yet emitted.
    pub fn remaining(&self) -> usize {
        self.len() - self.cursor
    }

    /// The next page of up to `batch` rows; `None` when done. A page
    /// that fails to evaluate leaves the cursor where it was.
    pub fn next_page(&mut self, batch: usize) -> Result<Option<ColumnPage<'_>>> {
        let lo = self.cursor;
        let hi = lo.saturating_add(batch.max(1)).min(self.len());
        if lo >= hi {
            return Ok(None);
        }
        let ProjectionCursor {
            cols,
            rows,
            exprs,
            cursor,
        } = self;
        let cols = &*cols;
        let selection = match &*rows {
            Rows::Positions(p) => Selection::Positions(&p[lo..hi]),
            Rows::All(_) => Selection::Range(lo..hi),
        };
        let columns = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => source_col(cols, *c).map(PageColumn::Selected),
                e => Ok(PageColumn::Dense(match &selection {
                    Selection::Positions(p) => e.eval_column(cols, p.iter().copied())?,
                    Selection::Range(r) => e.eval_column(cols, r.clone())?,
                })),
            })
            .collect::<Result<Vec<_>>>()?;
        *cursor = hi;
        Ok(Some(ColumnPage::new(selection, columns)))
    }

    /// Gather every remaining row into dense output columns, one per
    /// expression, without advancing the cursor — the form a result is
    /// cached in.
    pub fn gather_remaining(&self) -> Result<Vec<ColumnData>> {
        match &self.rows {
            Rows::Positions(p) => project_columns(&self.cols, &p[self.cursor..], &self.exprs),
            Rows::All(n) => {
                let rest: Vec<usize> = (self.cursor..*n).collect();
                project_columns(&self.cols, &rest, &self.exprs)
            }
        }
    }
}

fn source_col<C: Cols + ?Sized>(cols: &C, c: usize) -> Result<&ColumnData> {
    cols.get_col(c)
        .ok_or_else(|| Error::exec(format!("column {c} not materialised")))
}

/// Materialise expressions at the given positions into dense typed
/// output columns, one per expression: column references are gathered
/// typed (no per-value boxing), everything else is evaluated.
pub fn project_columns<C: Cols + ?Sized>(
    cols: &C,
    positions: &[usize],
    exprs: &[Expr],
) -> Result<Vec<ColumnData>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Col(c) => Ok(source_col(cols, *c)?.take(positions)),
            e => e.eval_column(cols, positions.iter().copied()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::project_rows;
    use crate::expr::ArithOp;
    use nodb_types::Value;
    use std::collections::BTreeMap;

    fn cols() -> BTreeMap<usize, ColumnData> {
        let mut m = BTreeMap::new();
        m.insert(0, ColumnData::from_i64((0..10).collect()));
        m.insert(1, ColumnData::from_i64((0..10).map(|v| v * 10).collect()));
        m
    }

    fn exprs() -> Vec<Expr> {
        vec![
            Expr::Col(1),
            Expr::Lit(Value::Str("k".into())),
            Expr::Binary {
                op: ArithOp::Add,
                left: Box::new(Expr::Col(0)),
                right: Box::new(Expr::Col(1)),
            },
        ]
    }

    #[test]
    fn pages_cover_all_positions_in_order() {
        let positions = vec![9, 1, 3, 5, 7, 0, 2, 2, 8, 4];
        let want = project_rows(&cols(), &positions, &exprs()).unwrap();
        let mut c = ProjectionCursor::new(cols(), positions, exprs());
        assert_eq!(c.remaining(), 10);
        let mut all = Vec::new();
        let mut sizes = Vec::new();
        while let Some(page) = c.next_page(4).unwrap() {
            sizes.push(page.n_rows());
            all.extend(page.to_rows());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(all, want);
        assert_eq!(c.remaining(), 0);
        assert!(c.next_page(4).unwrap().is_none());
    }

    #[test]
    fn rest_after_partial_page() {
        let mut c = ProjectionCursor::new(cols(), vec![1, 3, 5, 7], vec![Expr::Col(1)]);
        let first = c.next_page(1).unwrap().unwrap().to_rows();
        assert_eq!(first, vec![vec![Value::Int(10)]]);
        let gathered = c.gather_remaining().unwrap();
        assert_eq!(gathered, vec![ColumnData::from_i64(vec![30, 50, 70])]);
        let rest = c.next_page(usize::MAX).unwrap().unwrap().to_rows();
        assert_eq!(
            rest,
            vec![
                vec![Value::Int(30)],
                vec![Value::Int(50)],
                vec![Value::Int(70)]
            ]
        );
        assert!(c.next_page(8).unwrap().is_none());
    }

    #[test]
    fn dense_columns_page_by_range() {
        let all: Vec<usize> = (0..10).collect();
        let want = project_rows(&cols(), &all, &exprs()).unwrap();
        let mut c = ProjectionCursor::over_all(cols(), 10, exprs());
        assert_eq!(c.gather_remaining().unwrap().len(), 3);
        let mut got = Vec::new();
        while let Some(page) = c.next_page(3).unwrap() {
            got.extend(page.to_rows());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn empty_positions_yield_nothing() {
        let mut c = ProjectionCursor::new(cols(), vec![], vec![Expr::Col(0)]);
        assert!(c.next_page(16).unwrap().is_none());
        assert_eq!(c.gather_remaining().unwrap()[0].len(), 0);
    }

    #[test]
    fn missing_column_is_an_error() {
        let mut c = ProjectionCursor::new(cols(), vec![0], vec![Expr::Col(7)]);
        assert!(c.next_page(1).is_err());
        assert!(project_columns(&cols(), &[0], &[Expr::Col(7)]).is_err());
    }
}
