//! Interval algebra over [`Value`]s.
//!
//! The adaptive store's table-of-contents (paper §3.1.3) must answer: *which
//! value ranges of column `c` have already been loaded?* and *which part of a
//! query's requested range is missing?* Both reduce to interval union,
//! containment and subtraction, implemented here with explicit
//! inclusive/exclusive bounds (the paper's queries use strict `>`/`<`
//! predicates, so half-open handling has to be exact).
//!
//! Integer-valued bounds are normalised to inclusive form (`x > 3` becomes
//! `x >= 4`), which makes adjacency exact for the unique-integer workloads of
//! the paper. Float and string bounds keep their open/closed flavour; the
//! algebra is then *conservative*: it may report a covered range as missing
//! (costing an extra file trip) but never the reverse.

use std::cmp::Ordering;
use std::fmt;

use crate::value::{Value, ValueRef};

/// One end of an interval.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// No constraint on this side.
    Unbounded,
    /// Endpoint included.
    Inclusive(Value),
    /// Endpoint excluded.
    Exclusive(Value),
}

impl Bound {
    /// The bound's value, if any.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Inclusive(v) | Bound::Exclusive(v) => Some(v),
        }
    }
}

/// Compare two *lower* bounds: which one starts earlier?
/// `Unbounded < Inclusive(v) < Exclusive(v)` at equal `v`.
fn cmp_lo(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Less,
        (_, Bound::Unbounded) => Ordering::Greater,
        (x, y) => {
            let (vx, vy) = (x.value().unwrap(), y.value().unwrap());
            vx.total_cmp(vy).then_with(|| match (x, y) {
                (Bound::Inclusive(_), Bound::Exclusive(_)) => Ordering::Less,
                (Bound::Exclusive(_), Bound::Inclusive(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
    }
}

/// Compare two *upper* bounds: which one ends earlier?
/// `Exclusive(v) < Inclusive(v) < Unbounded` at equal `v`.
fn cmp_hi(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
        (Bound::Unbounded, _) => Ordering::Greater,
        (_, Bound::Unbounded) => Ordering::Less,
        (x, y) => {
            let (vx, vy) = (x.value().unwrap(), y.value().unwrap());
            vx.total_cmp(vy).then_with(|| match (x, y) {
                (Bound::Exclusive(_), Bound::Inclusive(_)) => Ordering::Less,
                (Bound::Inclusive(_), Bound::Exclusive(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
    }
}

/// Is the interval `[lo, hi]` nonempty?
///
/// For `Exclusive`/`Exclusive` pairs of equal-adjacent non-integer values we
/// answer "nonempty" conservatively (see module docs); integer bounds never
/// reach that case because they are normalised to inclusive form.
fn lo_le_hi(lo: &Bound, hi: &Bound) -> bool {
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
        (Bound::Inclusive(a), Bound::Inclusive(b)) => a.total_cmp(b) != Ordering::Greater,
        (Bound::Inclusive(a), Bound::Exclusive(b))
        | (Bound::Exclusive(a), Bound::Inclusive(b))
        | (Bound::Exclusive(a), Bound::Exclusive(b)) => a.total_cmp(b) == Ordering::Less,
    }
}

/// A (possibly unbounded) contiguous range of values. Construction
/// normalises integer bounds to inclusive form and collapses empty ranges to
/// `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
}

impl Interval {
    /// Build an interval, returning `None` when it is provably empty.
    pub fn new(lo: Bound, hi: Bound) -> Option<Interval> {
        let lo = normalize_lo(lo)?;
        let hi = normalize_hi(hi)?;
        if lo_le_hi(&lo, &hi) {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// The interval covering everything.
    pub fn all() -> Interval {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: Value) -> Interval {
        Interval {
            lo: Bound::Inclusive(v.clone()),
            hi: Bound::Inclusive(v),
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> &Bound {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &Bound {
        &self.hi
    }

    /// True iff the interval is `(-∞, ∞)`.
    pub fn is_all(&self) -> bool {
        matches!((&self.lo, &self.hi), (Bound::Unbounded, Bound::Unbounded))
    }

    /// Does the interval contain `v`? Nulls are contained in nothing.
    pub fn contains(&self, v: ValueRef<'_>) -> bool {
        if v == ValueRef::Null {
            return false;
        }
        let cmp = |b: &Value| v.total_cmp(&b.as_value_ref());
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => cmp(b) != Ordering::Less,
            Bound::Exclusive(b) => cmp(b) == Ordering::Greater,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => cmp(b) != Ordering::Greater,
            Bound::Exclusive(b) => cmp(b) == Ordering::Less,
        };
        lo_ok && hi_ok
    }

    /// Is `self` entirely inside `other`?
    pub fn is_subset_of(&self, other: &Interval) -> bool {
        cmp_lo(&other.lo, &self.lo) != Ordering::Greater
            && cmp_hi(&self.hi, &other.hi) != Ordering::Greater
    }

    /// Intersection, `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = if cmp_lo(&self.lo, &other.lo) == Ordering::Less {
            other.lo.clone()
        } else {
            self.lo.clone()
        };
        let hi = if cmp_hi(&self.hi, &other.hi) == Ordering::Greater {
            other.hi.clone()
        } else {
            self.hi.clone()
        };
        if lo_le_hi(&lo, &hi) {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Can `self ∪ other` be written as one interval (they overlap or touch
    /// with complementary inclusivity)?
    fn mergeable_sorted(first: &Interval, second: &Interval) -> bool {
        // Callers guarantee cmp_lo(first.lo, second.lo) <= 0.
        if lo_le_hi(&second.lo, &first.hi) {
            return true;
        }
        match (&second.lo, &first.hi) {
            (Bound::Inclusive(a), Bound::Exclusive(b))
            | (Bound::Exclusive(a), Bound::Inclusive(b))
            | (Bound::Inclusive(a), Bound::Inclusive(b)) => a.total_cmp(b) == Ordering::Equal,
            _ => false,
        }
    }
}

/// Integer normalisation for lower bounds: `x > 3` ⇒ `x >= 4`.
/// Returns `None` for the provably-empty `x > i64::MAX`.
fn normalize_lo(b: Bound) -> Option<Bound> {
    match b {
        Bound::Exclusive(Value::Int(v)) => {
            if v == i64::MAX {
                None
            } else {
                Some(Bound::Inclusive(Value::Int(v + 1)))
            }
        }
        other => Some(other),
    }
}

/// Integer normalisation for upper bounds: `x < 3` ⇒ `x <= 2`.
fn normalize_hi(b: Bound) -> Option<Bound> {
    match b {
        Bound::Exclusive(Value::Int(v)) => {
            if v == i64::MIN {
                None
            } else {
                Some(Bound::Inclusive(Value::Int(v - 1)))
            }
        }
        other => Some(other),
    }
}

/// Turn a lower bound into "the upper bound of everything before it".
fn lo_to_preceding_hi(lo: &Bound) -> Option<Bound> {
    match lo {
        Bound::Unbounded => None,
        Bound::Inclusive(v) => Some(Bound::Exclusive(v.clone())),
        Bound::Exclusive(v) => Some(Bound::Inclusive(v.clone())),
    }
}

/// Turn an upper bound into "the lower bound of everything after it".
fn hi_to_following_lo(hi: &Bound) -> Option<Bound> {
    match hi {
        Bound::Unbounded => None,
        Bound::Inclusive(v) => Some(Bound::Exclusive(v.clone())),
        Bound::Exclusive(v) => Some(Bound::Inclusive(v.clone())),
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Bound::Unbounded => write!(f, "(-inf")?,
            Bound::Inclusive(v) => write!(f, "[{v}")?,
            Bound::Exclusive(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Bound::Unbounded => write!(f, "inf)"),
            Bound::Inclusive(v) => write!(f, "{v}]"),
            Bound::Exclusive(v) => write!(f, "{v})"),
        }
    }
}

/// A normalised union of disjoint, sorted intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalSet {
    items: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> IntervalSet {
        IntervalSet::default()
    }

    /// True when no values are covered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The disjoint intervals, sorted by lower bound.
    pub fn intervals(&self) -> &[Interval] {
        &self.items
    }

    /// Add an interval, merging as needed to keep the representation
    /// normalised.
    pub fn add(&mut self, iv: Interval) {
        let pos = self
            .items
            .partition_point(|x| cmp_lo(&x.lo, &iv.lo) == Ordering::Less);
        self.items.insert(pos, iv);
        // Merge around the insertion point.
        let mut i = pos.saturating_sub(1);
        while i + 1 < self.items.len() {
            let (a, b) = (&self.items[i], &self.items[i + 1]);
            if Interval::mergeable_sorted(a, b) {
                let hi = if cmp_hi(&a.hi, &b.hi) == Ordering::Greater {
                    a.hi.clone()
                } else {
                    b.hi.clone()
                };
                self.items[i].hi = hi;
                self.items.remove(i + 1);
            } else if i < pos {
                i += 1;
            } else {
                break;
            }
        }
    }

    /// Does some member contain `v`?
    pub fn contains(&self, v: ValueRef<'_>) -> bool {
        self.items.iter().any(|iv| iv.contains(v))
    }

    /// Is `target` fully covered by the union?
    pub fn covers(&self, target: &Interval) -> bool {
        self.missing(target).is_empty()
    }

    /// The parts of `target` not covered by the union, in order.
    pub fn missing(&self, target: &Interval) -> Vec<Interval> {
        let mut gaps = Vec::new();
        let mut cur_lo = target.lo.clone();
        for item in &self.items {
            let Some(overlap) = item.intersect(target) else {
                continue;
            };
            // Gap before this covered chunk?
            if cmp_lo(&cur_lo, &overlap.lo) == Ordering::Less {
                if let Some(gap_hi) = lo_to_preceding_hi(&overlap.lo) {
                    if let Some(gap) = Interval::new(cur_lo.clone(), gap_hi) {
                        gaps.push(gap);
                    }
                }
            }
            // Advance past the covered chunk.
            match hi_to_following_lo(&overlap.hi) {
                Some(next_lo) => {
                    if cmp_lo(&cur_lo, &next_lo) == Ordering::Less {
                        cur_lo = next_lo;
                    }
                }
                None => return gaps, // covered to +inf
            }
        }
        if let Some(gap) = Interval::new(cur_lo, target.hi.clone()) {
            gaps.push(gap);
        }
        gaps
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ii(lo: i64, hi: i64) -> Interval {
        Interval::new(
            Bound::Inclusive(Value::Int(lo)),
            Bound::Inclusive(Value::Int(hi)),
        )
        .unwrap()
    }

    /// Open interval (lo, hi) over ints — matches the paper's `a > lo AND a < hi`.
    fn oo(lo: i64, hi: i64) -> Option<Interval> {
        Interval::new(
            Bound::Exclusive(Value::Int(lo)),
            Bound::Exclusive(Value::Int(hi)),
        )
    }

    #[test]
    fn int_bounds_normalise_to_inclusive() {
        let iv = oo(3, 7).unwrap();
        assert_eq!(iv, ii(4, 6));
        assert!(!iv.contains(ValueRef::Int(3)));
        assert!(iv.contains(ValueRef::Int(4)));
        assert!(iv.contains(ValueRef::Int(6)));
        assert!(!iv.contains(ValueRef::Int(7)));
    }

    #[test]
    fn empty_open_int_intervals_are_none() {
        assert!(oo(3, 4).is_none()); // no integer strictly between 3 and 4
        assert!(oo(5, 5).is_none());
        assert!(Interval::new(
            Bound::Inclusive(Value::Int(5)),
            Bound::Inclusive(Value::Int(4))
        )
        .is_none());
    }

    #[test]
    fn float_open_bounds_stay_open() {
        let iv = Interval::new(
            Bound::Exclusive(Value::Float(1.0)),
            Bound::Exclusive(Value::Float(2.0)),
        )
        .unwrap();
        assert!(!iv.contains(ValueRef::Float(1.0)));
        assert!(iv.contains(ValueRef::Float(1.5)));
        assert!(!iv.contains(ValueRef::Float(2.0)));
    }

    #[test]
    fn null_contained_nowhere() {
        assert!(!Interval::all().contains(ValueRef::Null));
    }

    #[test]
    fn subset_checks() {
        assert!(ii(3, 5).is_subset_of(&ii(3, 5)));
        assert!(ii(3, 5).is_subset_of(&ii(2, 6)));
        assert!(!ii(3, 5).is_subset_of(&ii(4, 9)));
        assert!(ii(3, 5).is_subset_of(&Interval::all()));
        assert!(!Interval::all().is_subset_of(&ii(3, 5)));
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(ii(0, 10).intersect(&ii(5, 20)), Some(ii(5, 10)));
        assert_eq!(ii(0, 4).intersect(&ii(5, 20)), None);
        assert_eq!(ii(0, 5).intersect(&ii(5, 20)), Some(ii(5, 5)));
    }

    #[test]
    fn set_add_merges_overlaps_and_int_adjacency() {
        let mut s = IntervalSet::empty();
        s.add(ii(0, 5));
        s.add(ii(10, 15));
        assert_eq!(s.intervals().len(), 2);
        s.add(ii(4, 11)); // bridges both
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.intervals()[0], ii(0, 15));
        s.add(ii(16, 20)); // integer-adjacent via normalised inclusive bounds
        assert_eq!(s.intervals().len(), 2); // [0,15] and [16,20] touch only in int space
        s.add(ii(15, 16)); // now they bridge
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.intervals()[0], ii(0, 20));
    }

    #[test]
    fn set_does_not_merge_across_float_gap() {
        let mut s = IntervalSet::empty();
        let a = Interval::new(
            Bound::Inclusive(Value::Float(0.0)),
            Bound::Exclusive(Value::Float(1.0)),
        )
        .unwrap();
        let b = Interval::new(
            Bound::Exclusive(Value::Float(1.0)),
            Bound::Inclusive(Value::Float(2.0)),
        )
        .unwrap();
        s.add(a);
        s.add(b);
        // 1.0 itself is not covered, so they must remain separate.
        assert_eq!(s.intervals().len(), 2);
        assert!(!s.contains(ValueRef::Float(1.0)));
        // Adding the point closes the gap.
        s.add(Interval::point(Value::Float(1.0)));
        assert_eq!(s.intervals().len(), 1);
    }

    #[test]
    fn covers_and_missing() {
        let mut s = IntervalSet::empty();
        s.add(ii(0, 10));
        s.add(ii(20, 30));
        assert!(s.covers(&ii(2, 8)));
        assert!(s.covers(&ii(0, 10)));
        assert!(!s.covers(&ii(5, 25)));
        let gaps = s.missing(&ii(5, 25));
        assert_eq!(gaps, vec![ii(11, 19)]);
        let gaps = s.missing(&ii(-5, 35));
        assert_eq!(gaps, vec![ii(-5, -1), ii(11, 19), ii(31, 35)]);
    }

    #[test]
    fn missing_of_empty_set_is_target() {
        let s = IntervalSet::empty();
        assert_eq!(s.missing(&ii(1, 5)), vec![ii(1, 5)]);
        assert!(!s.covers(&ii(1, 5)));
    }

    #[test]
    fn missing_against_unbounded_target() {
        let mut s = IntervalSet::empty();
        s.add(ii(0, 10));
        let gaps = s.missing(&Interval::all());
        assert_eq!(gaps.len(), 2);
        // Integer bounds normalise to inclusive form on construction.
        assert_eq!(gaps[0].hi(), &Bound::Inclusive(Value::Int(-1)));
        assert_eq!(gaps[1].lo(), &Bound::Inclusive(Value::Int(11)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ii(1, 2).to_string(), "[1, 2]");
        assert_eq!(Interval::all().to_string(), "(-inf, inf)");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_interval() -> impl Strategy<Value = Interval> {
            (-50i64..50, 0i64..40).prop_map(|(lo, w)| ii(lo, lo + w))
        }

        proptest! {
            /// Every value reported covered by the set really is inside one
            /// of the added intervals, and vice versa.
            #[test]
            fn set_union_semantics(ivs in proptest::collection::vec(arb_interval(), 0..8),
                                   probe in -120i64..120) {
                let mut s = IntervalSet::empty();
                for iv in &ivs {
                    s.add(iv.clone());
                }
                let expected = ivs.iter().any(|iv| iv.contains(ValueRef::Int(probe)));
                prop_assert_eq!(s.contains(ValueRef::Int(probe)), expected);
            }

            /// Normalised representation: intervals stay sorted and disjoint.
            #[test]
            fn set_stays_normalised(ivs in proptest::collection::vec(arb_interval(), 0..8)) {
                let mut s = IntervalSet::empty();
                for iv in &ivs {
                    s.add(iv.clone());
                }
                let items = s.intervals();
                for w in items.windows(2) {
                    // Next interval must start strictly after the previous
                    // ends, with a genuine gap (otherwise they would merge).
                    prop_assert!(!Interval::mergeable_sorted(&w[0], &w[1]));
                    prop_assert_eq!(cmp_lo(w[0].lo(), w[1].lo()), Ordering::Less);
                }
            }

            /// `missing` + covered parts tile the target exactly.
            #[test]
            fn missing_is_exact_complement(ivs in proptest::collection::vec(arb_interval(), 0..6),
                                           tgt in arb_interval(),
                                           probe in -120i64..120) {
                let mut s = IntervalSet::empty();
                for iv in &ivs {
                    s.add(iv.clone());
                }
                let gaps = s.missing(&tgt);
                let v = Value::Int(probe);
                let in_target = tgt.contains(v.as_value_ref());
                let in_set = s.contains(v.as_value_ref());
                let in_gaps = gaps.iter().any(|g| g.contains(v.as_value_ref()));
                // A point of the target is in the gaps iff it is not covered.
                prop_assert_eq!(in_gaps, in_target && !in_set);
                // Gaps never exceed the target.
                if in_gaps {
                    prop_assert!(in_target);
                }
            }

            /// covers ⇔ no missing parts.
            #[test]
            fn covers_iff_no_gaps(ivs in proptest::collection::vec(arb_interval(), 0..6),
                                  tgt in arb_interval()) {
                let mut s = IntervalSet::empty();
                for iv in &ivs {
                    s.add(iv.clone());
                }
                prop_assert_eq!(s.covers(&tgt), s.missing(&tgt).is_empty());
            }
        }
    }
}
