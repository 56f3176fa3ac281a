//! Column-at-a-time execution (the MonetDB-style strategy of §5.2).
//!
//! Operators work on whole columns, materialising intermediate selection
//! vectors between steps: "simple code, data locality and a single function
//! call per operator", at the price of materialisation. Integer columns
//! without nulls take tight-loop fast paths.

use std::hash::{Hash, Hasher};

use nodb_types::{CmpOp, ColumnData, Conjunction, Error, Result, Value};

use crate::agg::AggFunc;
use crate::cols::Cols;
use crate::expr::Expr;

/// One aggregate to compute: a function plus its argument expression
/// (`None` for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument; `None` only for `COUNT(*)`.
    pub expr: Option<Expr>,
}

impl AggSpec {
    /// `SUM(#col)` and friends.
    pub fn on_col(func: AggFunc, col: usize) -> AggSpec {
        AggSpec {
            func,
            expr: Some(Expr::Col(col)),
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> AggSpec {
        AggSpec {
            func: AggFunc::CountStar,
            expr: None,
        }
    }

    /// Columns referenced by the argument.
    pub fn columns(&self) -> Vec<usize> {
        self.expr.as_ref().map(|e| e.columns()).unwrap_or_default()
    }
}

/// Evaluate a conjunction column-at-a-time, producing the positions (into
/// the materialised columns) of qualifying rows. The first predicate scans
/// its whole column; later predicates refine the shrinking position list —
/// the columnar analogue of "most selective first".
pub fn filter_positions<C: Cols + ?Sized>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
) -> Result<Vec<usize>> {
    filter_positions_range(cols, 0, n_rows, conj)
}

/// [`filter_positions`] restricted to the row range `[lo, hi)` — the shape
/// morsel workers use so each evaluates only its own slice of the columns.
/// Returned positions are absolute (into the full columns), ascending, so
/// concatenating morsel results in morsel order reproduces the serial
/// position list exactly.
pub fn filter_positions_range<C: Cols + ?Sized>(
    cols: &C,
    lo: usize,
    hi: usize,
    conj: &Conjunction,
) -> Result<Vec<usize>> {
    if conj.is_always_true() {
        return Ok((lo..hi).collect());
    }
    let ordered = conj.ordered_by_selectivity();
    let mut positions: Option<Vec<usize>> = None;
    for pred in &ordered.preds {
        let col = cols
            .get_col(pred.col)
            .ok_or_else(|| Error::exec(format!("column {} not materialised", pred.col)))?;
        match positions {
            None => {
                let mut out = Vec::new();
                // Int fast path: compare against an int literal over a
                // null-free slice.
                if let (Some(xs), Value::Int(lit), false) = (
                    col.as_i64_slice(),
                    &pred.value,
                    matches!(col, ColumnData::Int64 { nulls: Some(_), .. }),
                ) {
                    let lit = *lit;
                    let hi = hi.min(xs.len());
                    let xs = &xs[lo.min(hi)..hi];
                    macro_rules! scan {
                        ($cmp:expr) => {
                            for (i, &x) in xs.iter().enumerate() {
                                if $cmp(x, lit) {
                                    out.push(lo + i);
                                }
                            }
                        };
                    }
                    match pred.op {
                        CmpOp::Eq => scan!(|x, l| x == l),
                        CmpOp::Ne => scan!(|x, l| x != l),
                        CmpOp::Lt => scan!(|x, l| x < l),
                        CmpOp::Le => scan!(|x, l| x <= l),
                        CmpOp::Gt => scan!(|x, l| x > l),
                        CmpOp::Ge => scan!(|x, l| x >= l),
                    }
                } else {
                    for i in lo..hi.min(col.len()) {
                        if pred.matches(&col.get(i)) {
                            out.push(i);
                        }
                    }
                }
                positions = Some(out);
            }
            Some(prev) => {
                let mut out = Vec::with_capacity(prev.len());
                for &i in &prev {
                    if pred.matches(&col.get(i)) {
                        out.push(i);
                    }
                }
                positions = Some(out);
            }
        }
    }
    Ok(positions.unwrap_or_else(|| (lo..hi).collect()))
}

/// A grouping key usable in hash maps. Numeric values hash/compare widened
/// (so `Int(2)` and `Float(2.0)` land in the same group, matching
/// `Value::total_cmp`).
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.total_cmp(b).is_eq())
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => 0u8.hash(state),
                Value::Int(i) => {
                    1u8.hash(state);
                    (*i as f64).to_bits().hash(state);
                }
                Value::Float(f) => {
                    1u8.hash(state);
                    f.to_bits().hash(state);
                }
                Value::Str(s) => {
                    2u8.hash(state);
                    s.hash(state);
                }
            }
        }
    }
}

/// Stable sort of positions by the given `(column, ascending)` keys.
pub fn sort_positions<C: Cols + ?Sized>(
    cols: &C,
    mut positions: Vec<usize>,
    keys: &[(usize, bool)],
) -> Result<Vec<usize>> {
    for &(k, _) in keys {
        if cols.get_col(k).is_none() {
            return Err(Error::exec(format!("sort column {k} not materialised")));
        }
    }
    positions.sort_by(|&a, &b| {
        for &(k, asc) in keys {
            let col = cols.get_col(k).expect("validated");
            let ord = col.get_ref(a).total_cmp(&col.get_ref(b));
            if !ord.is_eq() {
                return if asc { ord } else { ord.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(positions)
}

/// Materialise expressions at the given positions into output columns
/// (row-major output for result delivery).
pub fn project_rows<C: Cols + ?Sized>(
    cols: &C,
    positions: &[usize],
    exprs: &[Expr],
) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::with_capacity(positions.len());
    for &i in positions {
        let mut row = Vec::with_capacity(exprs.len());
        for e in exprs {
            row.push(e.eval(cols, i)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::ColPred;
    use std::collections::BTreeMap;

    fn table() -> (BTreeMap<usize, ColumnData>, usize) {
        let mut m = BTreeMap::new();
        m.insert(0, ColumnData::from_i64(vec![5, 1, 9, 3, 7]));
        m.insert(1, ColumnData::from_i64(vec![10, 20, 30, 40, 50]));
        m.insert(2, ColumnData::from_f64(vec![0.5, 1.5, 2.5, 3.5, 4.5]));
        (m, 5)
    }

    #[test]
    fn filter_single_and_conjunction() {
        let (cols, n) = table();
        let c = Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 3i64)]);
        assert_eq!(filter_positions(&cols, n, &c).unwrap(), vec![0, 2, 4]);
        let c = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 3i64),
            ColPred::new(1, CmpOp::Lt, 50i64),
        ]);
        assert_eq!(filter_positions(&cols, n, &c).unwrap(), vec![0, 2]);
    }

    #[test]
    fn filter_always_true_returns_everything() {
        let (cols, n) = table();
        assert_eq!(
            filter_positions(&cols, n, &Conjunction::always()).unwrap(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn filter_on_float_column() {
        let (cols, n) = table();
        let c = Conjunction::new(vec![ColPred::new(2, CmpOp::Ge, 2.5f64)]);
        assert_eq!(filter_positions(&cols, n, &c).unwrap(), vec![2, 3, 4]);
    }

    #[test]
    fn filter_missing_column_errors() {
        let (cols, n) = table();
        let c = Conjunction::new(vec![ColPred::new(9, CmpOp::Gt, 0i64)]);
        assert!(filter_positions(&cols, n, &c).is_err());
    }

    #[test]
    fn filter_with_nulls_excludes_them() {
        let mut cols = BTreeMap::new();
        let mut c0 = ColumnData::empty(nodb_types::DataType::Int64);
        c0.push(Value::Int(1)).unwrap();
        c0.push(Value::Null).unwrap();
        c0.push(Value::Int(3)).unwrap();
        cols.insert(0, c0);
        let c = Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 0i64)]);
        assert_eq!(filter_positions(&cols, 3, &c).unwrap(), vec![0, 2]);
    }

    #[test]
    fn sort_positions_asc_desc_stable() {
        let (cols, _) = table();
        let sorted = sort_positions(&cols, vec![0, 1, 2, 3, 4], &[(0, true)]).unwrap();
        assert_eq!(sorted, vec![1, 3, 0, 4, 2]);
        let sorted = sort_positions(&cols, vec![0, 1, 2, 3, 4], &[(0, false)]).unwrap();
        assert_eq!(sorted, vec![2, 4, 0, 3, 1]);
    }

    #[test]
    fn sort_positions_on_text_with_nulls_and_ties() {
        let (mut cols, _) = table();
        let text = [Some("b"), None, Some("a"), Some("b"), None];
        let text = text.map(|t| t.map_or(Value::Null, Value::from));
        cols.insert(
            3,
            ColumnData::from_values(nodb_types::DataType::Str, text).unwrap(),
        );
        let all = || vec![0, 1, 2, 3, 4];
        // NULLs first; ties keep their input order either way.
        assert_eq!(
            sort_positions(&cols, all(), &[(3, true)]).unwrap(),
            vec![1, 4, 2, 0, 3]
        );
        assert_eq!(
            sort_positions(&cols, all(), &[(3, false)]).unwrap(),
            vec![0, 3, 2, 1, 4]
        );
        // A second key breaks the ties: column 0 is [5, 1, 9, 3, 7].
        assert_eq!(
            sort_positions(&cols, all(), &[(3, true), (0, false)]).unwrap(),
            vec![4, 1, 2, 0, 3]
        );
    }

    #[test]
    fn project_rows_evaluates_exprs() {
        let (cols, _) = table();
        let rows = project_rows(
            &cols,
            &[1, 3],
            &[Expr::Col(0), Expr::Lit(Value::Str("k".into()))],
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Str("k".into())],
                vec![Value::Int(3), Value::Str("k".into())],
            ]
        );
    }

    #[test]
    fn group_key_widened_numeric_equality() {
        let a = GroupKey(vec![Value::Int(2)]);
        let b = GroupKey(vec![Value::Float(2.0)]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        a.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
