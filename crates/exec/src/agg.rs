//! Aggregate functions and accumulators.
//!
//! SQL semantics: nulls are skipped by every aggregate except `COUNT(*)`;
//! an all-null (or empty) input yields NULL for SUM/MIN/MAX/AVG and 0 for
//! the COUNTs. Integer SUM accumulates in `i128` and reports overflow
//! instead of wrapping.

use std::fmt;

use nodb_types::{Error, Result, Value};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)` (always a float)
    Avg,
    /// `COUNT(expr)` — non-null count
    Count,
    /// `COUNT(*)` — row count
    CountStar,
}

impl AggFunc {
    /// SQL spelling (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Count => "count",
            AggFunc::CountStar => "count(*)",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Running state for one aggregate, fed one value at a time: the
/// row-at-a-time semantics the typed kernel of [`crate::group`] mirrors,
/// kept for the baselines that evaluate aggregates outside the engine.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// SUM over ints (exact, overflow-checked at finish).
    SumInt(i128, bool),
    /// SUM over floats (also the landing state for mixed input).
    SumFloat(f64, bool),
    /// MIN with the current best.
    Min(Option<Value>),
    /// MAX with the current best.
    Max(Option<Value>),
    /// AVG as (sum, non-null count).
    Avg(f64, u64),
    /// COUNT of non-null inputs.
    Count(u64),
    /// COUNT(*) of rows.
    CountStar(u64),
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Sum => Accumulator::SumInt(0, false),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg(0.0, 0),
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::CountStar => Accumulator::CountStar(0),
        }
    }

    /// Fold one value in. For `CountStar` the value is ignored.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Accumulator::CountStar(n) => {
                *n += 1;
                return Ok(());
            }
            _ if v.is_null() => return Ok(()),
            Accumulator::SumInt(acc, seen) => match v {
                Value::Int(x) => {
                    *acc += *x as i128;
                    *seen = true;
                }
                Value::Float(x) => {
                    // Promote to float accumulation.
                    let so_far = *acc as f64;
                    *self = Accumulator::SumFloat(so_far + x, true);
                }
                other => {
                    return Err(Error::exec(format!("sum over non-numeric value {other}")));
                }
            },
            Accumulator::SumFloat(acc, seen) => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::exec(format!("sum over non-numeric value {v}")))?;
                *acc += x;
                *seen = true;
            }
            Accumulator::Min(best) => {
                let replace = match best {
                    None => true,
                    Some(b) => v.sql_cmp(b).is_some_and(|o| o.is_lt()),
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            Accumulator::Max(best) => {
                let replace = match best {
                    None => true,
                    Some(b) => v.sql_cmp(b).is_some_and(|o| o.is_gt()),
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            Accumulator::Avg(sum, n) => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::exec(format!("avg over non-numeric value {v}")))?;
                *sum += x;
                *n += 1;
            }
            Accumulator::Count(n) => *n += 1,
        }
        Ok(())
    }

    /// Fold another accumulator of the same function into this one — the
    /// merge step of a partial aggregation. Partials are merged in morsel
    /// order, so results are deterministic for any worker count (and
    /// bit-identical to one serial fold for integer inputs).
    pub fn merge(&mut self, other: Accumulator) -> Result<()> {
        match (&mut *self, other) {
            (Accumulator::SumInt(a, seen), Accumulator::SumInt(b, s2)) => {
                *a += b;
                *seen |= s2;
            }
            (Accumulator::SumInt(a, seen), Accumulator::SumFloat(b, s2)) => {
                // Either side having promoted to float promotes the merge,
                // mirroring the serial promotion on first float input.
                *self = Accumulator::SumFloat(*a as f64 + b, *seen | s2);
            }
            (Accumulator::SumFloat(a, seen), Accumulator::SumInt(b, s2)) => {
                *a += b as f64;
                *seen |= s2;
            }
            (Accumulator::SumFloat(a, seen), Accumulator::SumFloat(b, s2)) => {
                *a += b;
                *seen |= s2;
            }
            (Accumulator::Min(best), Accumulator::Min(Some(v))) => {
                let replace = match best {
                    None => true,
                    Some(b) => v.sql_cmp(b).is_some_and(|o| o.is_lt()),
                };
                if replace {
                    *best = Some(v);
                }
            }
            (Accumulator::Max(best), Accumulator::Max(Some(v))) => {
                let replace = match best {
                    None => true,
                    Some(b) => v.sql_cmp(b).is_some_and(|o| o.is_gt()),
                };
                if replace {
                    *best = Some(v);
                }
            }
            (Accumulator::Min(_), Accumulator::Min(None))
            | (Accumulator::Max(_), Accumulator::Max(None)) => {}
            (Accumulator::Avg(sum, n), Accumulator::Avg(s2, n2)) => {
                *sum += s2;
                *n += n2;
            }
            (Accumulator::Count(n), Accumulator::Count(n2)) => *n += n2,
            (Accumulator::CountStar(n), Accumulator::CountStar(n2)) => *n += n2,
            (a, b) => {
                return Err(Error::exec(format!(
                    "cannot merge mismatched accumulators {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final value.
    pub fn finish(&self) -> Result<Value> {
        Ok(match self {
            Accumulator::SumInt(_, false) | Accumulator::SumFloat(_, false) => Value::Null,
            Accumulator::SumInt(acc, true) => {
                let v = i64::try_from(*acc).map_err(|_| Error::exec("integer overflow in sum"))?;
                Value::Int(v)
            }
            Accumulator::SumFloat(acc, true) => Value::Float(*acc),
            Accumulator::Min(best) | Accumulator::Max(best) => best.clone().unwrap_or(Value::Null),
            Accumulator::Avg(_, 0) => Value::Null,
            Accumulator::Avg(sum, n) => Value::Float(sum / *n as f64),
            Accumulator::Count(n) | Accumulator::CountStar(n) => Value::Int(*n as i64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut a = Accumulator::new(func);
        for v in vals {
            a.update(v).unwrap();
        }
        a.finish().unwrap()
    }

    #[test]
    fn sum_min_max_avg_count_ints() {
        let vals: Vec<Value> = [3i64, 1, 4, 1, 5].iter().map(|&v| Value::Int(v)).collect();
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(14));
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(5));
        assert_eq!(run(AggFunc::Avg, &vals), Value::Float(2.8));
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(5));
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(5));
    }

    #[test]
    fn nulls_skipped_except_count_star() {
        let vals = vec![Value::Int(10), Value::Null, Value::Int(20)];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(30));
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Avg, &vals), Value::Float(15.0));
    }

    #[test]
    fn empty_and_all_null_inputs() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        let nulls = vec![Value::Null, Value::Null];
        assert_eq!(run(AggFunc::Sum, &nulls), Value::Null);
        assert_eq!(run(AggFunc::Max, &nulls), Value::Null);
        assert_eq!(run(AggFunc::Count, &nulls), Value::Int(0));
        assert_eq!(run(AggFunc::CountStar, &nulls), Value::Int(2));
    }

    #[test]
    fn sum_promotes_to_float_on_mixed_input() {
        let vals = vec![Value::Int(1), Value::Float(0.5), Value::Int(2)];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Float(3.5));
    }

    #[test]
    fn sum_overflow_detected() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::Int(i64::MAX)).unwrap();
        a.update(&Value::Int(i64::MAX)).unwrap();
        assert!(a.finish().is_err());
    }

    #[test]
    fn min_max_on_strings() {
        let vals: Vec<Value> = ["pear", "apple", "fig"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        assert_eq!(run(AggFunc::Min, &vals), Value::Str("apple".into()));
        assert_eq!(run(AggFunc::Max, &vals), Value::Str("pear".into()));
    }

    #[test]
    fn sum_over_strings_errors() {
        let mut a = Accumulator::new(AggFunc::Sum);
        assert!(a.update(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn merge_matches_serial_fold() {
        let xs: Vec<Value> = [9i64, -2, 4, 4, 11, 0].map(Value::Int).to_vec();
        let fold = |func, vals: &[Value]| {
            let mut a = Accumulator::new(func);
            for v in vals {
                a.update(v).unwrap();
            }
            a
        };
        for func in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Count,
            AggFunc::CountStar,
        ] {
            let mut left = fold(func, &xs[..3]);
            left.merge(fold(func, &xs[3..])).unwrap();
            let serial = fold(func, &xs);
            assert_eq!(left.finish().unwrap(), serial.finish().unwrap(), "{func}");
        }
    }

    #[test]
    fn merge_promotes_sum_to_float() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::Int(1)).unwrap();
        let mut b = Accumulator::new(AggFunc::Sum);
        b.update(&Value::Float(0.5)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish().unwrap(), Value::Float(1.5));
        // Empty partials keep NULL semantics.
        let mut e = Accumulator::new(AggFunc::Sum);
        e.merge(Accumulator::new(AggFunc::Sum)).unwrap();
        assert_eq!(e.finish().unwrap(), Value::Null);
    }

    #[test]
    fn merge_mismatched_functions_errors() {
        let mut a = Accumulator::new(AggFunc::Min);
        assert!(a.merge(Accumulator::new(AggFunc::Max)).is_err());
    }
}
