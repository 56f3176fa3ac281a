//! Column-at-a-time execution (the MonetDB-style strategy of §5.2).
//!
//! Operators work on whole columns, materialising intermediate selection
//! vectors between steps: "simple code, data locality and a single function
//! call per operator", at the price of materialisation. Integer columns
//! without nulls take tight-loop fast paths.

use std::hash::{Hash, Hasher};

use nodb_types::{CmpOp, ColumnData, Conjunction, Error, Result, Value};

use crate::agg::{Accumulator, AggFunc};
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

/// Compute aggregates over the given positions (or all rows when `None`),
/// column-at-a-time: one pass per aggregate.
pub fn aggregate<C: Cols + ?Sized>(
    cols: &C,
    n_rows: usize,
    positions: Option<&[usize]>,
    specs: &[AggSpec],
) -> Result<Vec<Value>> {
    let mut accs: Vec<Accumulator> = specs.iter().map(|s| Accumulator::new(s.func)).collect();
    accumulate_into(cols, n_rows, positions, specs, &mut accs)?;
    let mut out = Vec::with_capacity(accs.len());
    for a in &accs {
        out.push(a.finish()?);
    }
    Ok(out)
}

/// Fold rows into existing accumulators instead of fresh ones — the update
/// step of morsel-driven partial aggregation: each worker accumulates its
/// morsels here and the partials are merged (in morsel order) at the end.
/// `accs` must be parallel to `specs` and created from the same functions.
pub fn accumulate_into<C: Cols + ?Sized>(
    cols: &C,
    n_rows: usize,
    positions: Option<&[usize]>,
    specs: &[AggSpec],
    accs: &mut [Accumulator],
) -> Result<()> {
    debug_assert_eq!(specs.len(), accs.len());
    let mut cancel_check = nodb_types::CancelCheck::new();
    for (spec, acc) in specs.iter().zip(accs.iter_mut()) {
        // One serial fold pass per spec: account its rows so a cancel
        // lands between passes (and between gather chunks below).
        cancel_check.tick(positions.map(<[usize]>::len).unwrap_or(n_rows))?;
        match (&spec.expr, positions) {
            (None, pos) => {
                // COUNT(*): every row counts — O(1) for the common
                // CountStar accumulator.
                let n = pos.map(<[usize]>::len).unwrap_or(n_rows);
                if let Accumulator::CountStar(c) = acc {
                    *c += n as u64;
                } else {
                    for _ in 0..n {
                        acc.update(&Value::Null)?;
                    }
                }
            }
            (Some(Expr::Col(c)), pos) => {
                let col = cols
                    .get_col(*c)
                    .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?;
                // Null-free int fast path.
                if let (Some(xs), false) = (
                    col.as_i64_slice(),
                    matches!(col, ColumnData::Int64 { nulls: Some(_), .. }),
                ) {
                    match pos {
                        None => acc.update_i64_slice(xs)?,
                        Some(pos) => {
                            // Gather-then-fold in chunks to stay cache-friendly.
                            let mut buf = Vec::with_capacity(4096.min(pos.len()));
                            for chunk in pos.chunks(4096) {
                                buf.clear();
                                buf.extend(chunk.iter().map(|&i| xs[i]));
                                acc.update_i64_slice(&buf)?;
                            }
                        }
                    }
                } else {
                    match pos {
                        None => {
                            for i in 0..col.len() {
                                acc.update(&col.get(i))?;
                            }
                        }
                        Some(pos) => {
                            for &i in pos {
                                acc.update(&col.get(i))?;
                            }
                        }
                    }
                }
            }
            (Some(expr), pos) => {
                let iter: Box<dyn Iterator<Item = usize>> = match pos {
                    None => Box::new(0..n_rows),
                    Some(pos) => Box::new(pos.iter().copied()),
                };
                for i in iter {
                    acc.update(&expr.eval(cols, i)?)?;
                }
            }
        }
    }
    Ok(())
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
            let ord = col.get(a).total_cmp(&col.get(b));
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
    fn paper_q1_aggregates() {
        // select sum(a1), min(a4), max(a3), avg(a2) — here on a 3-col table.
        let (cols, n) = table();
        let specs = vec![
            AggSpec::on_col(AggFunc::Sum, 0),
            AggSpec::on_col(AggFunc::Min, 1),
            AggSpec::on_col(AggFunc::Max, 2),
            AggSpec::on_col(AggFunc::Avg, 0),
        ];
        let out = aggregate(&cols, n, None, &specs).unwrap();
        assert_eq!(out[0], Value::Int(25));
        assert_eq!(out[1], Value::Int(10));
        assert_eq!(out[2], Value::Float(4.5));
        assert_eq!(out[3], Value::Float(5.0));
    }

    #[test]
    fn aggregates_over_positions() {
        let (cols, n) = table();
        let pos = vec![0, 2, 4];
        let out = aggregate(&cols, n, Some(&pos), &[AggSpec::on_col(AggFunc::Sum, 1)]).unwrap();
        assert_eq!(out[0], Value::Int(90));
        let out = aggregate(&cols, n, Some(&pos), &[AggSpec::count_star()]).unwrap();
        assert_eq!(out[0], Value::Int(3));
    }

    #[test]
    fn aggregate_over_expression() {
        let (cols, n) = table();
        let e = Expr::Binary {
            op: crate::expr::ArithOp::Add,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(1)),
        };
        let out = aggregate(
            &cols,
            n,
            None,
            &[AggSpec {
                func: AggFunc::Sum,
                expr: Some(e),
            }],
        )
        .unwrap();
        assert_eq!(out[0], Value::Int(25 + 150));
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
