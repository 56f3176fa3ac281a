//! Column-at-a-time execution (the MonetDB-style strategy of §5.2).
//!
//! Operators work on whole columns, materialising intermediate selection
//! vectors between steps: "simple code, data locality and a single function
//! call per operator", at the price of materialisation. Every operator
//! reads the typed slices directly; none boxes a `Value` per row on the
//! way to a selection.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use nodb_types::predicate::KeyRange;
use nodb_types::{float_key, ColumnData, ColumnTest, Conjunction, Error, Result, Value, ValueRef};

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
/// the materialised columns) of qualifying rows, ascending.
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
///
/// The one predicate kernel: each column's conjuncts fold into one
/// [`ColumnTest`] (a contradiction answers without scanning), and the rows
/// go by in blocks of 1 024. In a block the first column's test scans
/// its typed slice into a selection of `u32` offsets and every later one
/// narrows that selection — each without a branch or a `Value` per cell,
/// a NULL failing as one more flag. A text column's test is resolved
/// once per dictionary entry its rows name, into a verdict table that each
/// row then reads by its code.
pub fn filter_positions_range<C: Cols + ?Sized>(
    cols: &C,
    lo: usize,
    hi: usize,
    conj: &Conjunction,
) -> Result<Vec<usize>> {
    let mut tests = Vec::new();
    for c in conj.columns() {
        let col = cols
            .get_col(c)
            .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?;
        let verdicts = match col {
            // No entry: every row is NULL, and NULL never passes.
            ColumnData::Str { dict, .. } if dict.is_empty() => return Ok(Vec::new()),
            ColumnData::Str { dict, .. } => vec![UNSEEN; dict.len()],
            _ => Vec::new(),
        };
        let test = ColumnTest::fold(col.data_type(), conj.preds_on(c));
        tests.push((col, test, verdicts));
    }
    if tests.iter().any(|(_, t, _)| matches!(t, ColumnTest::Never)) {
        return Ok(Vec::new());
    }
    if tests.is_empty() {
        return Ok((lo..hi).collect());
    }
    // Most selective first, by syntax: equality before ranges, text last.
    tests.sort_by_key(|(_, t, _)| match t {
        ColumnTest::Str { .. } => 2,
        t if t.is_point() => 0,
        _ => 1,
    });
    let hi = tests.iter().fold(hi, |hi, (col, ..)| hi.min(col.len()));
    let mut out = Vec::new();
    let mut sel = [0u32; BLOCK];
    for start in (lo..hi).step_by(BLOCK) {
        let rows = start..hi.min(start + BLOCK);
        let mut kept = None;
        for (col, test, verdicts) in &mut tests {
            let k = narrow(col, test, verdicts, rows.clone(), &mut sel, kept);
            kept = Some(k);
            if k == 0 {
                break;
            }
        }
        let k = kept.expect("at least one test");
        out.extend(sel[..k].iter().map(|&j| start + j as usize));
    }
    Ok(out)
}

/// Rows per block of the predicate kernel: its selection of `u32` offsets
/// stays in L1.
const BLOCK: usize = 1024;

/// A text test's verdict on a dictionary entry: not resolved yet, or
/// resolved to fail or to pass.
const UNSEEN: u8 = 0;
const FAIL: u8 = 1;
const PASS: u8 = 2;

/// Keep in `sel` the offsets of `rows` (a block of `col`) that pass `test`:
/// all of the block's rows when `kept` is `None`, else the first `kept`
/// offsets already in `sel`. Returns how many offsets it kept, in order.
/// A text column's `verdicts` (one per entry) are resolved first for the
/// entries the candidate rows name.
fn narrow(
    col: &ColumnData,
    test: &ColumnTest,
    verdicts: &mut [u8],
    rows: Range<usize>,
    sel: &mut [u32; BLOCK],
    kept: Option<usize>,
) -> usize {
    match (col, test) {
        (ColumnData::Int64 { values, nulls }, ColumnTest::Int { ints, floats }) => {
            let xs = &values[rows.clone()];
            let k = keep_keys(xs, nulls, rows.clone(), sel, kept, ints, |&x| x);
            match floats {
                Some(f) if k > 0 => {
                    keep_keys(xs, nulls, rows, sel, Some(k), f, |&x| float_key(x as f64))
                }
                _ => k,
            }
        }
        (ColumnData::Float64 { values, nulls }, ColumnTest::Float(r)) => {
            keep_keys(&values[rows.clone()], nulls, rows, sel, kept, r, |&x| {
                float_key(x)
            })
        }
        (ColumnData::Str { dict, codes, nulls }, ColumnTest::Str { .. }) => {
            let xs = &codes[rows.clone()];
            // A NULL row's code 0 names an entry too: resolving it costs
            // one test, and `keep` drops the row by its mask.
            let mut resolve = |c: u32| {
                let v = &mut verdicts[c as usize];
                if *v == UNSEEN {
                    *v = if test.matches(ValueRef::Str(dict.get(c))) {
                        PASS
                    } else {
                        FAIL
                    };
                }
            };
            match kept {
                None => xs.iter().for_each(|&c| resolve(c)),
                Some(k) => sel[..k].iter().for_each(|&j| resolve(xs[j as usize])),
            }
            keep(xs, nulls, rows, sel, kept, |&c| {
                verdicts[c as usize] == PASS
            })
        }
        _ => unreachable!("a column's test is folded for its own type"),
    }
}

/// [`keep`] under a numeric range: its bounds hoisted into the loop's
/// registers, and excluded points checked only when there are some.
#[inline(always)]
fn keep_keys<T>(
    xs: &[T],
    nulls: &Option<Vec<bool>>,
    rows: Range<usize>,
    sel: &mut [u32; BLOCK],
    kept: Option<usize>,
    range: &KeyRange,
    key: impl Fn(&T) -> i64,
) -> usize {
    match range.as_span() {
        Some((lo, span)) => keep(xs, nulls, rows, sel, kept, |x| {
            key(x).wrapping_sub(lo) as u64 <= span
        }),
        None => keep(xs, nulls, rows, sel, kept, |x| range.contains(key(x))),
    }
}

/// [`narrow`] over one typed slice: every candidate offset is written and
/// the count advances by whether it passed, so the loop has no branch to
/// mispredict whatever the selectivity.
#[inline(always)]
fn keep<T>(
    xs: &[T],
    nulls: &Option<Vec<bool>>,
    rows: Range<usize>,
    sel: &mut [u32; BLOCK],
    kept: Option<usize>,
    pass: impl Fn(&T) -> bool,
) -> usize {
    let nulls = nulls.as_ref().map(|m| &m[rows]);
    let mut n = 0;
    match (kept, nulls) {
        (None, None) => {
            for (j, x) in xs.iter().enumerate() {
                sel[n] = j as u32;
                n += usize::from(pass(x));
            }
        }
        (None, Some(nulls)) => {
            for (j, (x, &null)) in xs.iter().zip(nulls).enumerate() {
                sel[n] = j as u32;
                n += usize::from(pass(x) & !null);
            }
        }
        (Some(k), nulls) => {
            for r in 0..k {
                let j = sel[r] as usize;
                sel[n] = j as u32;
                n += usize::from(pass(&xs[j]) & !nulls.is_some_and(|m| m[j]));
            }
        }
    }
    n
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
    use nodb_types::{CmpOp, ColPred};
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

    mod properties {
        use super::*;
        use nodb_types::DataType;
        use proptest::prelude::*;

        /// Nullable int, float and text columns of `n` rows from `seed`,
        /// over few distinct values (domain edges, signed zeros and NaN
        /// among them) so that predicates hit, miss and tie.
        fn columns(seed: u64, n: usize) -> BTreeMap<usize, ColumnData> {
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut ints = Vec::with_capacity(n);
            let mut floats = Vec::with_capacity(n);
            let mut texts = Vec::with_capacity(n);
            for _ in 0..n {
                let r = next();
                let null = |k: u64| r % 11 == k;
                ints.push(match r >> 8 & 15 {
                    _ if null(0) => Value::Null,
                    0 => Value::Int(i64::MIN),
                    1 => Value::Int(i64::MAX),
                    k => Value::Int(k as i64 / 2 - 4),
                });
                floats.push(match r >> 16 & 15 {
                    _ if null(1) => Value::Null,
                    0 => Value::Float(-0.0),
                    1 => Value::Float(f64::NAN),
                    k => Value::Float(k as f64 / 2.0 - 4.0),
                });
                let words = ["", "a", "ab", "b", "é"];
                texts.push(match r >> 24 & 7 {
                    _ if null(2) => Value::Null,
                    k => Value::from(words[k as usize % words.len()]),
                });
            }
            let mut cols = BTreeMap::new();
            cols.insert(0, ColumnData::from_values(DataType::Int64, ints).unwrap());
            cols.insert(
                1,
                ColumnData::from_values(DataType::Float64, floats).unwrap(),
            );
            cols.insert(2, ColumnData::from_values(DataType::Str, texts).unwrap());
            cols
        }

        /// A literal of any kind: mostly one that suits the column, now
        /// and then one that never compares with it.
        fn literal(col: usize, kind: u8, n: i64) -> Value {
            match (col, kind) {
                (_, 0) => Value::Null,
                (_, 1) => Value::Float(n as f64 / 2.0),
                (_, 2) => Value::from(["a", "ab", "b"][n.rem_euclid(3) as usize]),
                (0 | 1, _) => Value::Int(n / 2),
                _ => Value::from(["", "a", "ab", "b", "é"][n.rem_euclid(5) as usize]),
            }
        }

        proptest! {
            /// The folded, blocked kernel keeps exactly the rows every
            /// predicate matches one row at a time: any mix of operators
            /// and literal kinds on nullable int, float and text columns,
            /// over row ranges that start and end anywhere across blocks.
            #[test]
            fn kernel_matches_row_at_a_time(
                seed in proptest::num::u64::ANY,
                n in 0usize..2600,
                preds in proptest::collection::vec((0usize..3, 0usize..6, 0u8..6, -8i64..8), 0..5),
                bounds in (0usize..2600, 0usize..2600),
            ) {
                let cols = columns(seed, n);
                use CmpOp::*;
                let conj = Conjunction::new(preds.into_iter().map(|(c, op, kind, v)| {
                    ColPred::new(c, [Eq, Ne, Lt, Le, Gt, Ge][op], literal(c, kind, v))
                }).collect());
                let (lo, hi) = (bounds.0.min(bounds.1).min(n), bounds.0.max(bounds.1).min(n));
                let want: Vec<usize> = (lo..hi)
                    .filter(|&i| conj.preds.iter().all(|p| p.matches(&cols[&p.col].get(i))))
                    .collect();
                prop_assert_eq!(filter_positions_range(&cols, lo, hi, &conj).unwrap(), want);
            }
        }
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
