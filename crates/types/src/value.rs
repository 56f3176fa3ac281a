//! Scalar values and data types.
//!
//! The engine models three physical types — `Int64`, `Float64` and UTF-8
//! `Str` — plus SQL-style nulls. Raw CSV fields are parsed into these types
//! according to the (inferred) schema; see `nodb-rawcsv::schema`.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Human-readable lowercase name (`int64`, `float64`, `str`).
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Str => "str",
        }
    }

    /// The widest common type for mixed columns, mirroring the promotion
    /// rules of schema inference: int ∪ float = float; anything ∪ str = str.
    pub fn unify(self, other: DataType) -> DataType {
        use DataType::*;
        match (self, other) {
            (Int64, Int64) => Int64,
            (Int64, Float64) | (Float64, Int64) | (Float64, Float64) => Float64,
            _ => Str,
        }
    }

    /// Whether this type is numeric (int or float).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (also produced by empty CSV fields).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of this value (ints are widened), `None` for nulls and
    /// strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, `None` unless the value is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, `None` unless the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a raw CSV field into a value of type `ty`.
    ///
    /// Empty fields become `Null` regardless of type (the CSV substrate has
    /// no other way to spell a missing value). Surrounding ASCII whitespace
    /// is ignored for numeric types, mirroring what `awk`/MonetDB loaders do.
    pub fn parse(field: &str, ty: DataType) -> Result<Value> {
        if field.is_empty() {
            return Ok(Value::Null);
        }
        match ty {
            DataType::Int64 => field
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::parse(format!("invalid int64 {field:?}: {e}"))),
            DataType::Float64 => field
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::parse(format!("invalid float64 {field:?}: {e}"))),
            DataType::Str => Ok(Value::Str(field.to_owned())),
        }
    }

    /// SQL comparison semantics: `None` when either side is null or the
    /// types are incomparable (string vs number); numeric types compare by
    /// value with int→float widening.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (fa, fb) = (a.as_f64()?, b.as_f64()?);
                Some(fa.total_cmp(&fb))
            }
        }
    }

    /// A total order usable for sorting and B-tree keys; see
    /// [`ValueRef::total_cmp`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_value_ref().total_cmp(&other.as_value_ref())
    }
}

/// A borrowed scalar: one cell of a typed column, read in place. Text
/// cells borrow the column's string, so walking a result page (wire
/// encoding, row views) copies each string at most once — at its
/// destination — and allocates nothing per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, borrowed from its column.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// A total order usable for sorting and B-tree keys: nulls first, then
    /// numerics (widened, `total_cmp`), then strings.
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        fn rank(v: &ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Int(_) | ValueRef::Float(_) => 1,
                ValueRef::Str(_) => 2,
            }
        }
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(b),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            // Mixed int/float: widen.
            (ValueRef::Int(a), ValueRef::Float(b)) => (*a as f64).total_cmp(b),
            (ValueRef::Float(a), ValueRef::Int(b)) => a.total_cmp(&(*b as f64)),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// The owned value this cell holds.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

impl Value {
    /// Borrowed view of this value.
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                // Keep float formatting round-trippable so CSV re-export of a
                // loaded table parses back to the same value.
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_int_float_str() {
        assert_eq!(Value::parse("42", DataType::Int64).unwrap(), Value::Int(42));
        assert_eq!(
            Value::parse(" -7 ", DataType::Int64).unwrap(),
            Value::Int(-7)
        );
        assert_eq!(
            Value::parse("2.5", DataType::Float64).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::parse("abc", DataType::Str).unwrap(),
            Value::Str("abc".into())
        );
    }

    #[test]
    fn parse_empty_is_null_for_all_types() {
        for ty in [DataType::Int64, DataType::Float64, DataType::Str] {
            assert_eq!(Value::parse("", ty).unwrap(), Value::Null);
        }
    }

    #[test]
    fn parse_rejects_garbage_numbers() {
        assert!(Value::parse("4x2", DataType::Int64).is_err());
        assert!(Value::parse("1.2.3", DataType::Float64).is_err());
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_widening() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_string_number_incomparable() {
        assert_eq!(Value::Str("1".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_cmp_orders_across_kinds() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::Int(3),
                Value::Str("a".into()),
            ]
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for v in [Value::Int(-12), Value::Float(3.25), Value::Float(4.0)] {
            let ty = v.data_type().unwrap();
            let shown = v.to_string();
            assert_eq!(Value::parse(&shown, ty).unwrap(), v, "via {shown:?}");
        }
    }

    #[test]
    fn unify_promotes_types() {
        use DataType::*;
        assert_eq!(Int64.unify(Int64), Int64);
        assert_eq!(Int64.unify(Float64), Float64);
        assert_eq!(Float64.unify(Str), Str);
        assert_eq!(Str.unify(Int64), Str);
    }
}
