//! Column predicates and conjunctions.
//!
//! Predicates are the engine's lingua franca: the SQL layer produces them,
//! the execution kernel evaluates them, and — the point of the paper — the
//! adaptive loader *pushes them down into tokenization* so that a row can be
//! abandoned as soon as one predicate fails (§3.2), and records what was
//! loaded as a [`SelectionBox`] in the store's table of contents.

use std::collections::BTreeMap;
use std::fmt;

use crate::interval::{Bound, Interval};
use crate::value::{DataType, Value, ValueRef};

/// Comparison operators supported in WHERE clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate `left OP right` with SQL null semantics (`None` = unknown).
    pub fn eval(self, left: &Value, right: &Value) -> Option<bool> {
        left.sql_cmp(right).map(|ord| self.holds(ord))
    }

    /// Whether an already-computed ordering satisfies this operator.
    #[inline]
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A single `column OP literal` predicate. `col` is a column ordinal in the
/// table's schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ColPred {
    /// Column ordinal within the table schema.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl ColPred {
    /// Construct a predicate.
    pub fn new(col: usize, op: CmpOp, value: impl Into<Value>) -> Self {
        ColPred {
            col,
            op,
            value: value.into(),
        }
    }

    /// Evaluate against a single column value. SQL semantics: unknown
    /// (null-involved) comparisons are *not* satisfied. Scans fold a
    /// column's predicates into one [`ColumnTest`] instead; this is the
    /// row-at-a-time definition that test is checked against.
    pub fn matches(&self, v: &Value) -> bool {
        self.op.eval(v, &self.value).unwrap_or(false)
    }

    /// The interval of values satisfying this predicate, if it is
    /// range-expressible (`Ne` is not).
    pub fn to_interval(&self) -> Option<Interval> {
        match self.op {
            CmpOp::Eq => Some(Interval::point(self.value.clone())),
            CmpOp::Lt => Interval::new(Bound::Unbounded, Bound::Exclusive(self.value.clone())),
            CmpOp::Le => Interval::new(Bound::Unbounded, Bound::Inclusive(self.value.clone())),
            CmpOp::Gt => Interval::new(Bound::Exclusive(self.value.clone()), Bound::Unbounded),
            CmpOp::Ge => Interval::new(Bound::Inclusive(self.value.clone()), Bound::Unbounded),
            CmpOp::Ne => None,
        }
    }
}

impl fmt::Display for ColPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}", self.col, self.op.symbol(), self.value)
    }
}

/// A conjunction (`AND`) of column predicates — the WHERE-clause shape used
/// throughout the paper (`a1>v1 and a1<v2 and a2>v3 and a2<v4`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Conjunction {
    /// The conjuncts. Empty means "always true".
    pub preds: Vec<ColPred>,
}

impl Conjunction {
    /// The always-true conjunction.
    pub fn always() -> Self {
        Conjunction::default()
    }

    /// Build from a list of predicates.
    pub fn new(preds: Vec<ColPred>) -> Self {
        Conjunction { preds }
    }

    /// True when there are no conjuncts.
    pub fn is_always_true(&self) -> bool {
        self.preds.is_empty()
    }

    /// Column ordinals referenced, deduplicated, ascending.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.preds.iter().map(|p| p.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Evaluate against a full row (indexed by column ordinal).
    pub fn matches_row(&self, row: &[Value]) -> bool {
        self.preds
            .iter()
            .all(|p| row.get(p.col).is_some_and(|v| p.matches(v)))
    }

    /// The conjuncts restricted to one column.
    pub fn preds_on(&self, col: usize) -> impl Iterator<Item = &ColPred> {
        self.preds.iter().filter(move |p| p.col == col)
    }

    /// The selection box: per-column intersected intervals. `None` when the
    /// conjunction is not box-expressible (contains `Ne`) or is provably
    /// empty on some column.
    pub fn to_box(&self) -> Option<SelectionBox> {
        let mut by_col: BTreeMap<usize, Interval> = BTreeMap::new();
        for p in &self.preds {
            let iv = p.to_interval()?;
            match by_col.remove(&p.col) {
                None => {
                    by_col.insert(p.col, iv);
                }
                Some(existing) => {
                    by_col.insert(p.col, existing.intersect(&iv)?);
                }
            }
        }
        Some(SelectionBox { by_col })
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.preds.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, p) in self.preds.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// One column's conjuncts folded into one typed test: the SQL truth of
/// `x op₁ v₁ AND x op₂ v₂ AND …` for a cell `x` of the column type it was
/// folded for, so a scan asks one question per cell instead of one per
/// predicate and never boxes the cell. NULL cells never pass. Numeric
/// columns fold to an inclusive range (plus excluded points) over an
/// order-preserving `i64` key, which a cell passes with one unsigned
/// compare; text columns keep one [`Interval`] of strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnTest {
    /// No cell passes: the bounds contradict, or a literal is NULL or of a
    /// kind the column's cells never compare with (text against numbers).
    Never,
    /// An `Int64` column. Integer literals fold into `ints` exactly; a float
    /// literal compares against the cell widened to `f64` (SQL's numeric
    /// widening), so those fold into `floats`, over [`float_key`]`(x as f64)`.
    Int {
        /// Bounds from the integer literals, on the cell itself.
        ints: KeyRange,
        /// Bounds from the float literals, if any.
        floats: Option<KeyRange>,
    },
    /// A `Float64` column: every literal widened to `f64`, keyed by
    /// [`float_key`].
    Float(KeyRange),
    /// A `Str` column: the range predicates' intervals intersected, minus
    /// the `<>` literals.
    Str {
        /// Where passing strings lie.
        range: Interval,
        /// Strings excluded from `range`.
        ne: Vec<String>,
    },
}

impl ColumnTest {
    /// Fold `preds` — all on one column of type `ty` — into one test.
    pub fn fold<'a>(ty: DataType, preds: impl IntoIterator<Item = &'a ColPred>) -> ColumnTest {
        let (mut ints, mut floats) = (KeyRange::ALL, KeyRange::ALL);
        let (mut range, mut ne) = (Interval::all(), Vec::new());
        let mut any_float = false;
        for p in preds {
            match (ty, &p.value) {
                (DataType::Int64, Value::Int(l)) => ints.constrain(p.op, *l),
                (DataType::Int64 | DataType::Float64, Value::Float(l)) => {
                    any_float = true;
                    floats.constrain(p.op, float_key(*l));
                }
                (DataType::Float64, Value::Int(l)) => floats.constrain(p.op, float_key(*l as f64)),
                (DataType::Str, Value::Str(l)) => match p.to_interval() {
                    None => ne.push(l.clone()),
                    Some(iv) => match range.intersect(&iv) {
                        Some(narrower) => range = narrower,
                        None => return ColumnTest::Never,
                    },
                },
                _ => return ColumnTest::Never,
            }
        }
        match ty {
            DataType::Int64 => match (ints.finish(), any_float.then(|| floats.finish())) {
                (Some(ints), floats @ (None | Some(Some(_)))) => ColumnTest::Int {
                    ints,
                    floats: floats.flatten(),
                },
                _ => ColumnTest::Never,
            },
            DataType::Float64 => floats.finish().map_or(ColumnTest::Never, ColumnTest::Float),
            DataType::Str => ColumnTest::Str { range, ne },
        }
    }

    /// Whether at most one value passes — the column is pinned by an
    /// equality, which scans put first.
    pub fn is_point(&self) -> bool {
        match self {
            ColumnTest::Never => true,
            ColumnTest::Int { ints: r, .. } | ColumnTest::Float(r) => r.lo == r.hi,
            ColumnTest::Str { range, .. } => matches!(
                (range.lo(), range.hi()),
                (Bound::Inclusive(lo), Bound::Inclusive(hi)) if lo == hi
            ),
        }
    }

    /// Does a non-null cell of an `Int64` column pass?
    #[inline]
    pub fn matches_i64(&self, x: i64) -> bool {
        match self {
            ColumnTest::Int { ints, floats } => {
                ints.contains(x)
                    && floats
                        .as_ref()
                        .is_none_or(|f| f.contains(float_key(x as f64)))
            }
            _ => false,
        }
    }

    /// Does a non-null cell of a `Float64` column pass?
    #[inline]
    pub fn matches_f64(&self, x: f64) -> bool {
        matches!(self, ColumnTest::Float(r) if r.contains(float_key(x)))
    }

    /// Does a cell pass? NULL never does, nor a cell of another type than
    /// the one the test was folded for.
    pub fn matches(&self, v: ValueRef<'_>) -> bool {
        match (self, v) {
            (_, ValueRef::Int(x)) => self.matches_i64(x),
            (_, ValueRef::Float(x)) => self.matches_f64(x),
            (ColumnTest::Str { range, ne }, ValueRef::Str(s)) => {
                range.contains(v) && !ne.iter().any(|n| n == s)
            }
            _ => false,
        }
    }
}

/// `f64::total_cmp`'s order as an `i64`: `float_key(a).cmp(&float_key(b))
/// == a.total_cmp(&b)` for every pair, NaNs and signed zeros included.
#[inline]
pub fn float_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The keys `lo ..= hi` minus the points in `ne` — a folded numeric test.
/// Never empty once built: a fold that empties it becomes
/// [`ColumnTest::Never`].
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    lo: i64,
    hi: i64,
    ne: Vec<i64>,
}

impl KeyRange {
    const ALL: KeyRange = KeyRange {
        lo: i64::MIN,
        hi: i64::MAX,
        ne: Vec::new(),
    };

    fn constrain(&mut self, op: CmpOp, k: i64) {
        // `(1, 0)` is empty, and stays so under further constraints.
        let (lo, hi) = match op {
            CmpOp::Eq => (k, k),
            CmpOp::Ne => return self.ne.push(k),
            CmpOp::Lt => k.checked_sub(1).map_or((1, 0), |k| (i64::MIN, k)),
            CmpOp::Le => (i64::MIN, k),
            CmpOp::Gt => k.checked_add(1).map_or((1, 0), |k| (k, i64::MAX)),
            CmpOp::Ge => (k, i64::MAX),
        };
        self.lo = self.lo.max(lo);
        self.hi = self.hi.min(hi);
    }

    /// `None` when no key passes.
    fn finish(mut self) -> Option<KeyRange> {
        let range = self.lo..=self.hi;
        self.ne.retain(|k| range.contains(k));
        self.ne.sort_unstable();
        self.ne.dedup();
        (!range.is_empty()).then_some(self)
    }

    /// Does `key` pass?
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        (key.wrapping_sub(self.lo) as u64 <= self.hi.wrapping_sub(self.lo) as u64)
            & !self.ne.contains(&key)
    }

    /// `(lo, hi - lo)` when no point is excluded, so that
    /// `key.wrapping_sub(lo) as u64 <= span` is the whole test: one
    /// unsigned compare, in the form scans hoist out of their loops.
    #[inline]
    pub fn as_span(&self) -> Option<(i64, u64)> {
        self.ne
            .is_empty()
            .then(|| (self.lo, self.hi.wrapping_sub(self.lo) as u64))
    }
}

/// A hyper-rectangle of per-column value intervals — the unit in which the
/// adaptive store remembers which *regions* of a table have been loaded by
/// partial (selection-pushdown) loads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionBox {
    /// Constrained columns; unmentioned columns are unconstrained.
    pub by_col: BTreeMap<usize, Interval>,
}

impl SelectionBox {
    /// The unconstrained box (whole table).
    pub fn all() -> Self {
        SelectionBox::default()
    }

    /// Is `self` (as a region of tuple space) contained in `other`?
    ///
    /// Every tuple satisfying `self` must satisfy `other`: for each column
    /// `other` constrains, `self` must constrain it to a subset.
    pub fn is_subset_of(&self, other: &SelectionBox) -> bool {
        other.by_col.iter().all(|(col, other_iv)| {
            other_iv.is_all()
                || self
                    .by_col
                    .get(col)
                    .is_some_and(|mine| mine.is_subset_of(other_iv))
        })
    }

    /// Does a row (full-width, indexed by ordinal) fall inside the box?
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.by_col
            .iter()
            .all(|(col, iv)| row.get(*col).is_some_and(|v| iv.contains(v.as_value_ref())))
    }

    /// Columns constrained by this box.
    pub fn columns(&self) -> Vec<usize> {
        self.by_col.keys().copied().collect()
    }
}

impl fmt::Display for SelectionBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.by_col.is_empty() {
            return f.write_str("⊤");
        }
        for (i, (col, iv)) in self.by_col.iter().enumerate() {
            if i > 0 {
                f.write_str(" × ")?;
            }
            write!(f, "#{col}∈{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval_nulls_are_unknown() {
        assert_eq!(CmpOp::Eq.eval(&Value::Null, &Value::Int(1)), None);
        assert_eq!(CmpOp::Lt.eval(&Value::Int(1), &Value::Null), None);
    }

    #[test]
    fn cmp_op_eval_all_ops() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert_eq!(CmpOp::Lt.eval(&a, &b), Some(true));
        assert_eq!(CmpOp::Le.eval(&a, &a), Some(true));
        assert_eq!(CmpOp::Gt.eval(&a, &b), Some(false));
        assert_eq!(CmpOp::Ge.eval(&b, &a), Some(true));
        assert_eq!(CmpOp::Eq.eval(&a, &a), Some(true));
        assert_eq!(CmpOp::Ne.eval(&a, &b), Some(true));
    }

    #[test]
    fn pred_matches_treats_unknown_as_false() {
        let p = ColPred::new(0, CmpOp::Gt, 10i64);
        assert!(!p.matches(&Value::Null));
        assert!(p.matches(&Value::Int(11)));
        assert!(!p.matches(&Value::Int(10)));
    }

    #[test]
    fn paper_q1_conjunction_matches() {
        // where a1>v1 and a1<v2 and a2>v3 and a2<v4
        let c = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 10i64),
            ColPred::new(0, CmpOp::Lt, 20i64),
            ColPred::new(1, CmpOp::Gt, 100i64),
            ColPred::new(1, CmpOp::Lt, 200i64),
        ]);
        let row = |a1: i64, a2: i64| vec![Value::Int(a1), Value::Int(a2)];
        assert!(c.matches_row(&row(15, 150)));
        assert!(!c.matches_row(&row(10, 150))); // a1 boundary excluded
        assert!(!c.matches_row(&row(15, 200))); // a2 boundary excluded
        assert_eq!(c.columns(), vec![0, 1]);
    }

    #[test]
    fn conjunction_to_box_intersects_per_column() {
        let c = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 10i64),
            ColPred::new(0, CmpOp::Lt, 20i64),
        ]);
        let b = c.to_box().unwrap();
        let iv = b.by_col.get(&0).unwrap();
        assert!(iv.contains(ValueRef::Int(11)));
        assert!(!iv.contains(ValueRef::Int(10)));
        assert!(!iv.contains(ValueRef::Int(20)));
    }

    #[test]
    fn conjunction_with_ne_has_no_box() {
        let c = Conjunction::new(vec![ColPred::new(0, CmpOp::Ne, 5i64)]);
        assert!(c.to_box().is_none());
    }

    #[test]
    fn contradictory_conjunction_has_no_box() {
        let c = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, 20i64),
            ColPred::new(0, CmpOp::Lt, 10i64),
        ]);
        assert!(c.to_box().is_none());
    }

    #[test]
    fn box_subset_semantics() {
        let narrow = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Ge, 5i64),
            ColPred::new(0, CmpOp::Le, 8i64),
            ColPred::new(1, CmpOp::Ge, 0i64),
            ColPred::new(1, CmpOp::Le, 1i64),
        ])
        .to_box()
        .unwrap();
        let wide = Conjunction::new(vec![
            ColPred::new(0, CmpOp::Ge, 0i64),
            ColPred::new(0, CmpOp::Le, 10i64),
        ])
        .to_box()
        .unwrap();
        // narrow constrains col 1 too; wide doesn't — narrow ⊆ wide holds.
        assert!(narrow.is_subset_of(&wide));
        // wide ⊄ narrow (wide has points with a1=9).
        assert!(!wide.is_subset_of(&narrow));
        // Everything is a subset of the unconstrained box.
        assert!(wide.is_subset_of(&SelectionBox::all()));
        assert!(!SelectionBox::all().is_subset_of(&wide));
    }

    #[test]
    fn box_contains_row() {
        let b = Conjunction::new(vec![
            ColPred::new(1, CmpOp::Gt, 10i64),
            ColPred::new(1, CmpOp::Lt, 20i64),
        ])
        .to_box()
        .unwrap();
        assert!(b.contains_row(&[Value::Int(999), Value::Int(15)]));
        assert!(!b.contains_row(&[Value::Int(999), Value::Int(25)]));
        assert!(!b.contains_row(&[Value::Int(999), Value::Null]));
    }

    /// The folded test of `(op, literal)` conjuncts on one column of `ty`.
    fn fold(ty: DataType, preds: &[(CmpOp, Value)]) -> ColumnTest {
        let preds: Vec<ColPred> = preds
            .iter()
            .map(|(op, v)| ColPred::new(0, *op, v.clone()))
            .collect();
        ColumnTest::fold(ty, &preds)
    }

    #[test]
    fn column_test_folds_edges_and_contradictions() {
        use CmpOp::*;
        let int = |preds: &[(CmpOp, Value)]| fold(DataType::Int64, preds);
        // A strict bound at the end of the domain admits nothing.
        assert_eq!(int(&[(Lt, Value::Int(i64::MIN))]), ColumnTest::Never);
        assert_eq!(int(&[(Gt, Value::Int(i64::MAX))]), ColumnTest::Never);
        assert!(int(&[(Le, Value::Int(i64::MIN))]).matches_i64(i64::MIN));
        // Contradictions, NULL and incomparable literals.
        assert_eq!(
            int(&[(Gt, Value::Int(5)), (Lt, Value::Int(6))]),
            ColumnTest::Never
        );
        assert_eq!(int(&[(Eq, Value::Null)]), ColumnTest::Never);
        assert_eq!(int(&[(Ne, Value::from("x"))]), ColumnTest::Never);
        assert_eq!(
            fold(DataType::Str, &[(Gt, Value::Int(1))]),
            ColumnTest::Never
        );
        assert_eq!(
            fold(DataType::Str, &[(Ge, "b".into()), (Lt, "b".into())]),
            ColumnTest::Never
        );
        // Mixed int and float literals on an int column.
        let t = int(&[(Gt, Value::Int(2)), (Lt, Value::Float(4.5))]);
        assert_eq!(
            (1..7).filter(|&x| t.matches_i64(x)).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(!int(&[(Eq, Value::Float(2.5))]).matches_i64(2));
        // Float keys follow `total_cmp`: -0.0 < 0.0, NaN above infinity.
        let t = fold(DataType::Float64, &[(Ge, Value::Float(0.0))]);
        assert!(!t.matches_f64(-0.0) && t.matches_f64(0.0) && t.matches_f64(f64::NAN));
        // NULL cells never pass, not even `<>`.
        assert!(!int(&[(Ne, Value::Int(1))]).matches(ValueRef::Null));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = CmpOp> {
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
            ]
        }

        fn arb_any_op() -> impl Strategy<Value = CmpOp> {
            use CmpOp::*;
            (0usize..6).prop_map(|i| [Eq, Ne, Lt, Le, Gt, Ge][i])
        }

        /// A small value of one kind — 0 NULL, 1 int, 2 float, 3 text —
        /// with the domain edges, signed zeros and NaN among them, so
        /// folded bounds meet and cross.
        fn value(kind: u8, n: i64) -> Value {
            match (kind, n) {
                (0, _) => Value::Null,
                (1, -6) => Value::Int(i64::MIN),
                (1, 5) => Value::Int(i64::MAX),
                (1, n) => Value::Int(n / 2),
                (2, -6) => Value::Float(-0.0),
                (2, 5) => Value::Float(f64::NAN),
                (2, 4) => Value::Float(f64::INFINITY),
                (2, n) => Value::Float(n as f64 / 2.0),
                (_, n) => Value::from(["", "a", "ab", "b"][n.rem_euclid(4) as usize]),
            }
        }

        proptest! {
            /// A column's folded test passes exactly the cells every one of
            /// its predicates matches, for every column type and operator:
            /// literals mostly of the column's own kind, sometimes NULL or
            /// of a kind that never compares with it.
            #[test]
            fn column_test_agrees_with_its_predicates(
                kind in 1u8..4,
                preds in proptest::collection::vec((arb_any_op(), 0u8..8, -6i64..6), 0..4),
                cells in proptest::collection::vec((0u8..6, -6i64..6), 1..16)) {
                let ty = [DataType::Int64, DataType::Float64, DataType::Str][kind as usize - 1];
                let preds: Vec<(CmpOp, Value)> = preds
                    .into_iter()
                    .map(|(op, k, n)| (op, value(if k < 4 { k } else { kind }, n)))
                    .collect();
                let test = fold(ty, &preds);
                let preds: Vec<ColPred> =
                    preds.into_iter().map(|(op, v)| ColPred::new(0, op, v)).collect();
                for (k, n) in cells {
                    let cell = value(if k == 0 { 0 } else { kind }, n);
                    let expected = preds.iter().all(|p| p.matches(&cell)) && !cell.is_null();
                    prop_assert_eq!(test.matches(cell.as_value_ref()), expected, "{:?}", cell);
                }
            }

            /// A range-expressible predicate matches v iff its interval
            /// contains v.
            #[test]
            fn interval_agrees_with_matches(op in arb_op(),
                                            rhs in -20i64..20,
                                            v in -25i64..25) {
                let p = ColPred::new(0, op, rhs);
                let via_pred = p.matches(&Value::Int(v));
                let via_iv = p
                    .to_interval()
                    .map(|iv| iv.contains(ValueRef::Int(v)))
                    .unwrap_or(false);
                prop_assert_eq!(via_pred, via_iv);
            }

            /// A conjunction's box contains a row iff the conjunction
            /// matches it (for box-expressible conjunctions).
            #[test]
            fn box_agrees_with_conjunction(
                preds in proptest::collection::vec(
                    (0usize..3, arb_op(), -10i64..10), 0..5),
                row in proptest::collection::vec(-12i64..12, 3)) {
                let c = Conjunction::new(
                    preds.into_iter().map(|(c, o, v)| ColPred::new(c, o, v)).collect());
                let row: Vec<Value> = row.into_iter().map(Value::Int).collect();
                if let Some(b) = c.to_box() {
                    prop_assert_eq!(b.contains_row(&row), c.matches_row(&row));
                } else if !c.preds.iter().any(|p| p.op == CmpOp::Ne) {
                    // Box construction failed due to contradiction; the
                    // conjunction must indeed match nothing.
                    prop_assert!(!c.matches_row(&row));
                }
            }

            /// Box subset is sound: if q ⊆ s then every row in q is in s.
            #[test]
            fn box_subset_sound(
                p1 in proptest::collection::vec((0usize..2, arb_op(), -8i64..8), 1..4),
                p2 in proptest::collection::vec((0usize..2, arb_op(), -8i64..8), 1..4),
                row in proptest::collection::vec(-10i64..10, 2)) {
                let c1 = Conjunction::new(
                    p1.into_iter().map(|(c, o, v)| ColPred::new(c, o, v)).collect());
                let c2 = Conjunction::new(
                    p2.into_iter().map(|(c, o, v)| ColPred::new(c, o, v)).collect());
                let (Some(b1), Some(b2)) = (c1.to_box(), c2.to_box()) else {
                    return Ok(());
                };
                let row: Vec<Value> = row.into_iter().map(Value::Int).collect();
                if b1.is_subset_of(&b2) && b1.contains_row(&row) {
                    prop_assert!(b2.contains_row(&row));
                }
            }
        }
    }
}
