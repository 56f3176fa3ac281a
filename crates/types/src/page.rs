//! Columnar result pages.
//!
//! A query's result is a selection vector over typed columns — the
//! store's for a scalar result, freshly computed ones for an aggregate or
//! grouped result — and it stays that way until it leaves the process: a [`ColumnPage`] is a
//! borrowed view of one page of it — the output columns plus the rows of
//! them the page covers. Plain column references point straight at the
//! store's [`ColumnData`] and are read through the selection; literal and
//! arithmetic outputs are evaluated once per page into a dense typed
//! vector. Nothing is transposed: the wire encoder walks the view cell by
//! cell ([`ColumnPage::cell`]) and the row APIs build rows from it at the
//! edge ([`ColumnPage::to_rows`]).

use std::ops::Range;

use crate::column::ColumnData;
use crate::value::{Value, ValueRef};

/// Which rows of a column an operator or a page covers, in order: the
/// rows of the [`PageColumn::Selected`] columns a page shows, or the rows
/// an aggregation kernel folds.
#[derive(Debug, Clone)]
pub enum Selection<'a> {
    /// Row `i` of the page is row `positions[i]` of the column.
    Positions(&'a [usize]),
    /// Row `i` of the page is row `range.start + i` of the column.
    Range(Range<usize>),
}

impl Selection<'_> {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::Positions(p) => p.len(),
            Selection::Range(r) => r.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column row of the `row`-th selected row.
    pub fn index(&self, row: usize) -> usize {
        match self {
            Selection::Positions(p) => p[row],
            Selection::Range(r) => r.start + row,
        }
    }
}

/// One output column of a [`ColumnPage`].
#[derive(Debug)]
pub enum PageColumn<'a> {
    /// A column read in place through the page's [`Selection`].
    Selected(&'a ColumnData),
    /// Values computed for this page: row `i` of the page is row `i`.
    Dense(ColumnData),
}

impl PageColumn<'_> {
    /// The typed column behind this output, whichever way the page
    /// addresses it.
    pub fn data(&self) -> &ColumnData {
        match self {
            PageColumn::Selected(c) => c,
            PageColumn::Dense(c) => c,
        }
    }
}

/// One page of a result as typed columns.
#[derive(Debug)]
pub struct ColumnPage<'a> {
    selection: Selection<'a>,
    columns: Vec<PageColumn<'a>>,
}

impl<'a> ColumnPage<'a> {
    /// A page of `columns` over `selection`. Every dense column must
    /// hold exactly one value per selected row.
    pub fn new(selection: Selection<'a>, columns: Vec<PageColumn<'a>>) -> ColumnPage<'a> {
        for c in &columns {
            if let PageColumn::Dense(d) = c {
                assert_eq!(d.len(), selection.len(), "dense page column length");
            }
        }
        ColumnPage { selection, columns }
    }

    /// Rows in the page.
    pub fn n_rows(&self) -> usize {
        self.selection.len()
    }

    /// Output columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The output columns, in output order.
    pub fn columns(&self) -> &[PageColumn<'a>] {
        &self.columns
    }

    /// The value at (`row`, `col`) of the page, borrowed from its column.
    pub fn cell(&self, row: usize, col: usize) -> ValueRef<'_> {
        match &self.columns[col] {
            PageColumn::Selected(c) => c.get_ref(self.selection.index(row)),
            PageColumn::Dense(c) => c.get_ref(row),
        }
    }

    /// The page as owned rows — the view the row-shaped APIs hand out.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows())
            .map(|r| {
                (0..self.n_cols())
                    .map(|c| self.cell(r, c).to_value())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn cells_read_through_the_selection_and_dense_columns_directly() {
        let ints = ColumnData::from_i64(vec![10, 20, 30, 40]);
        let strs = ColumnData::from_values(
            DataType::Str,
            vec![
                Value::Str("a".into()),
                Value::Null,
                Value::Str("".into()),
                Value::Str("é".into()),
            ],
        )
        .unwrap();
        let positions = [3usize, 1];
        let page = ColumnPage::new(
            Selection::Positions(&positions),
            vec![
                PageColumn::Selected(&ints),
                PageColumn::Selected(&strs),
                PageColumn::Dense(ColumnData::from_f64(vec![0.5, 1.5])),
            ],
        );
        assert_eq!((page.n_rows(), page.n_cols()), (2, 3));
        assert_eq!(page.cell(0, 1), ValueRef::Str("é"));
        assert_eq!(
            page.to_rows(),
            vec![
                vec![Value::Int(40), Value::Str("é".into()), Value::Float(0.5)],
                vec![Value::Int(20), Value::Null, Value::Float(1.5)],
            ]
        );
        let page = ColumnPage::new(Selection::Range(1..3), vec![PageColumn::Selected(&ints)]);
        assert_eq!(
            page.to_rows(),
            vec![vec![Value::Int(20)], vec![Value::Int(30)]]
        );
    }

    #[test]
    fn empty_page_has_no_rows() {
        let ints = ColumnData::from_i64(vec![1]);
        let page = ColumnPage::new(Selection::Positions(&[]), vec![PageColumn::Selected(&ints)]);
        assert_eq!(page.n_rows(), 0);
        assert!(page.to_rows().is_empty());
    }
}
