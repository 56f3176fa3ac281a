//! Scalar expressions over table columns.
//!
//! A deliberately small algebra — column references, literals, and binary
//! arithmetic — sufficient for the paper's query templates (`sum(a1)`,
//! `avg(a2)`, predicates are handled separately as [`nodb_types::Conjunction`]).

use std::fmt;

use nodb_types::{ColumnData, DataType, Error, Result, Value};

use crate::cols::Cols;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// Symbol as written in SQL.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by ordinal.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

impl Expr {
    /// Column ordinals referenced by this expression.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(c) => out.push(*c),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
        }
    }

    /// Evaluate at one position of a column source. Nulls propagate.
    pub fn eval<C: Cols + ?Sized>(&self, cols: &C, pos: usize) -> Result<Value> {
        match self {
            Expr::Col(c) => {
                let col = cols
                    .get_col(*c)
                    .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?;
                Ok(col.get(pos))
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(cols, pos)?;
                let r = right.eval(cols, pos)?;
                arith(*op, &l, &r)
            }
        }
    }

    /// The type every non-NULL result of this expression has over `cols`
    /// ([`arith`]'s widening rule applied to the operand types), or `None`
    /// when it can only ever yield NULL.
    pub fn result_type<C: Cols + ?Sized>(&self, cols: &C) -> Result<Option<DataType>> {
        Ok(match self {
            Expr::Col(c) => Some(
                cols.get_col(*c)
                    .ok_or_else(|| Error::exec(format!("column {c} not materialised")))?
                    .data_type(),
            ),
            Expr::Lit(v) => v.data_type(),
            Expr::Binary { left, right, .. } => {
                match (left.result_type(cols)?, right.result_type(cols)?) {
                    (Some(DataType::Int64), Some(DataType::Int64)) => Some(DataType::Int64),
                    (Some(_), Some(_)) => Some(DataType::Float64),
                    _ => None,
                }
            }
        })
    }

    /// Evaluate at each of `positions` into one dense typed column — the
    /// columnar form of a literal or arithmetic output. An always-NULL
    /// expression reads as `Int64`, like everywhere else a type is
    /// inferred from values.
    pub fn eval_column<C: Cols + ?Sized>(
        &self,
        cols: &C,
        positions: impl ExactSizeIterator<Item = usize>,
    ) -> Result<ColumnData> {
        let ty = self.result_type(cols)?.unwrap_or(DataType::Int64);
        let mut col = ColumnData::with_capacity(ty, positions.len());
        for pos in positions {
            col.push(self.eval(cols, pos)?)?;
        }
        Ok(col)
    }

    /// Evaluate against a full-width row (values indexed by ordinal) — how
    /// the row-at-a-time baselines evaluate.
    pub fn eval_row(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(c) => row
                .get(*c)
                .cloned()
                .ok_or_else(|| Error::exec(format!("row has no column {c}"))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval_row(row)?;
                let r = right.eval_row(row)?;
                arith(*op, &l, &r)
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "#{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
        }
    }
}

/// SQL arithmetic with null propagation and int→float widening.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => a
                .checked_add(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in +")),
            ArithOp::Sub => a
                .checked_sub(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in -")),
            ArithOp::Mul => a
                .checked_mul(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in *")),
            ArithOp::Div => {
                if *b == 0 {
                    Err(Error::exec("division by zero"))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
        },
        _ => {
            let (a, b) = (
                l.as_f64()
                    .ok_or_else(|| Error::exec(format!("non-numeric operand {l}")))?,
                r.as_f64()
                    .ok_or_else(|| Error::exec(format!("non-numeric operand {r}")))?,
            );
            let v = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(Error::exec("division by zero"));
                    }
                    a / b
                }
            };
            Ok(Value::Float(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::ColumnData;
    use std::collections::BTreeMap;

    fn cols() -> BTreeMap<usize, ColumnData> {
        let mut m = BTreeMap::new();
        m.insert(0, ColumnData::from_i64(vec![1, 2, 3]));
        m.insert(2, ColumnData::from_f64(vec![0.5, 1.5, 2.5]));
        m
    }

    #[test]
    fn col_and_lit() {
        let c = cols();
        assert_eq!(Expr::Col(0).eval(&c, 1).unwrap(), Value::Int(2));
        assert_eq!(
            Expr::Lit(Value::Str("x".into())).eval(&c, 0).unwrap(),
            Value::Str("x".into())
        );
        assert!(Expr::Col(9).eval(&c, 0).is_err());
    }

    #[test]
    fn arithmetic_int_and_mixed() {
        let c = cols();
        let e = Expr::Binary {
            op: ArithOp::Add,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(2)),
        };
        assert_eq!(e.eval(&c, 0).unwrap(), Value::Float(1.5));
        let e = Expr::Binary {
            op: ArithOp::Mul,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(Value::Int(10))),
        };
        assert_eq!(e.eval(&c, 2).unwrap(), Value::Int(30));
    }

    #[test]
    fn eval_column_matches_eval_per_position() {
        let mut c = cols();
        c.insert(
            1,
            ColumnData::from_values(
                DataType::Int64,
                vec![Value::Null, Value::Int(5), Value::Null],
            )
            .unwrap(),
        );
        let positions = [2usize, 0, 1, 1];
        for e in [
            Expr::Lit(Value::Str("k".into())),
            Expr::Lit(Value::Null),
            Expr::Binary {
                op: ArithOp::Mul,
                left: Box::new(Expr::Col(1)),
                right: Box::new(Expr::Col(2)),
            },
        ] {
            let col = e.eval_column(&c, positions.iter().copied()).unwrap();
            let want: Vec<Value> = positions.iter().map(|&p| e.eval(&c, p).unwrap()).collect();
            assert_eq!(col.iter_values().collect::<Vec<_>>(), want, "{e}");
        }
        let div0 = Expr::Binary {
            op: ArithOp::Div,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(Value::Int(0))),
        };
        assert!(div0.eval_column(&c, positions.iter().copied()).is_err());
    }

    #[test]
    fn division_by_zero_and_overflow() {
        assert!(arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(arith(ArithOp::Div, &Value::Float(1.0), &Value::Float(0.0)).is_err());
        assert!(arith(ArithOp::Add, &Value::Int(i64::MAX), &Value::Int(1)).is_err());
    }

    #[test]
    fn null_propagates() {
        assert_eq!(
            arith(ArithOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn string_arith_is_an_error() {
        assert!(arith(ArithOp::Add, &Value::Str("a".into()), &Value::Int(1)).is_err());
    }

    #[test]
    fn columns_collects_unique_sorted() {
        let e = Expr::Binary {
            op: ArithOp::Add,
            left: Box::new(Expr::Binary {
                op: ArithOp::Mul,
                left: Box::new(Expr::Col(3)),
                right: Box::new(Expr::Col(1)),
            }),
            right: Box::new(Expr::Col(3)),
        };
        assert_eq!(e.columns(), vec![1, 3]);
    }

    #[test]
    fn eval_row_matches_eval() {
        let c = cols();
        let row = vec![Value::Int(2), Value::Null, Value::Float(1.5)];
        let e = Expr::Binary {
            op: ArithOp::Sub,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(2)),
        };
        assert_eq!(e.eval_row(&row).unwrap(), e.eval(&c, 1).unwrap());
    }

    #[test]
    fn display_renders() {
        let e = Expr::Binary {
            op: ArithOp::Div,
            left: Box::new(Expr::Col(1)),
            right: Box::new(Expr::Lit(Value::Int(2))),
        };
        assert_eq!(e.to_string(), "(#1 / 2)");
    }
}
