//! The query shapes the workloads send, as a small IR with two readers:
//! a SQL renderer (what the server sees) and a deliberately naive
//! row-at-a-time evaluator over the generated columns (what the answer
//! must be). An answer is reduced to a row count and an order-insensitive
//! 64-bit checksum of its cells, on both sides by the same function.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use nodb::Value;

use crate::data::{content_hash, Col, Columns, S1_VALUES};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Item {
    Col(Col),
    Count,
    Sum(Col),
    Avg(Col),
}

/// `SELECT select FROM wide [JOIN dim ON wide.g_hi = dim.k]
///  [WHERE col > lo AND col < hi] [GROUP BY group_by]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Query {
    pub select: Vec<Item>,
    /// `(col, lo, hi)`: `col > lo AND col < hi`; without `lo`, `col < hi`.
    pub range: Option<(Col, Option<i64>, i64)>,
    pub group_by: Option<Col>,
    pub join_dim: bool,
}

impl Query {
    /// Range aggregate `SELECT select FROM wide WHERE col > lo AND col < hi`.
    pub fn range_agg(select: &[Item], col: Col, lo: i64, hi: i64) -> Query {
        Query {
            select: select.to_vec(),
            range: Some((col, Some(lo), hi)),
            group_by: None,
            join_dim: false,
        }
    }

    fn col_sql(&self, c: Col) -> String {
        match (self.join_dim, c) {
            (false, c) => c.name().to_owned(),
            (true, Col::DimD1) => format!("dim.{}", c.name()),
            (true, c) => format!("wide.{}", c.name()),
        }
    }

    /// SQL text; with `placeholders` the range bounds become `?` and are
    /// returned by [`Query::params`] instead.
    pub fn sql(&self, placeholders: bool) -> String {
        let items: Vec<String> = self
            .select
            .iter()
            .map(|it| match *it {
                Item::Col(c) => self.col_sql(c),
                Item::Count => "count(*)".to_owned(),
                Item::Sum(c) => format!("sum({})", self.col_sql(c)),
                Item::Avg(c) => format!("avg({})", self.col_sql(c)),
            })
            .collect();
        let mut sql = format!("SELECT {} FROM wide", items.join(", "));
        if self.join_dim {
            sql.push_str(" JOIN dim ON wide.g_hi = dim.k");
        }
        if let Some((c, lo, hi)) = self.range {
            let c = self.col_sql(c);
            let lit = |v: i64| {
                if placeholders {
                    "?".to_owned()
                } else {
                    v.to_string()
                }
            };
            match lo {
                Some(lo) => {
                    let _ = write!(sql, " WHERE {c} > {} AND {c} < {}", lit(lo), lit(hi));
                }
                None => {
                    let _ = write!(sql, " WHERE {c} < {}", lit(hi));
                }
            }
        }
        if let Some(g) = self.group_by {
            let _ = write!(sql, " GROUP BY {}", self.col_sql(g));
        }
        sql
    }

    /// Values for the `?` slots of `sql(true)`, in order.
    pub fn params(&self) -> Vec<Value> {
        match self.range {
            Some((_, Some(lo), hi)) => vec![Value::Int(lo), Value::Int(hi)],
            Some((_, None, hi)) => vec![Value::Int(hi)],
            None => Vec::new(),
        }
    }
}

/// What is kept of an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> From<&'a Value> for Cell<'a> {
    fn from(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell_hash(c: Cell<'_>) -> u64 {
    match c {
        Cell::Null => 0x6e75_6c6c,
        Cell::Int(i) => mix(i as u64 ^ 0x1111_1111_1111_1111),
        // An integral float hashes as the integer: whether `sum(a1)`
        // comes back as Int or Float is the engine's choice of type, not
        // a different answer.
        Cell::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => cell_hash(Cell::Int(f as i64)),
        Cell::Float(f) => mix(f.to_bits() ^ 0x2222_2222_2222_2222),
        Cell::Str(s) => mix(content_hash(s.as_bytes()) ^ 0x3333_3333_3333_3333),
    }
}

/// Running (row count, checksum). Cell position matters within a row;
/// row order does not.
#[derive(Default)]
pub struct AnswerBuilder {
    answer: Answer,
}

impl AnswerBuilder {
    pub fn push_row<'a>(&mut self, cells: impl IntoIterator<Item = Cell<'a>>) {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for c in cells {
            h = mix(h.rotate_left(7) ^ cell_hash(c));
        }
        self.answer.rows += 1;
        self.answer.checksum = self.answer.checksum.wrapping_add(h);
    }

    pub fn push_values(&mut self, rows: &[Vec<Value>]) {
        for r in rows {
            self.push_row(r.iter().map(Cell::from));
        }
    }

    pub fn finish(self) -> Answer {
        self.answer
    }
}

#[derive(Clone, Copy, Default)]
struct Acc {
    count: u64,
    /// Sum of an int column, or of `f1` in eighths: exact either way.
    sum: i64,
}

/// One joined row as the evaluator sees it.
struct Row<'a> {
    c: &'a Columns,
    wide: usize,
    dim: Option<usize>,
}

impl Row<'_> {
    /// Int columns as they are, `f1` in eighths.
    fn exact(&self, col: Col) -> i64 {
        match col {
            Col::F1 => self.c.f1_eighths[self.wide],
            Col::DimD1 => self.c.dim_d1[self.dim.expect("d1 needs the join")],
            Col::S1 => panic!("s1 has no numeric value"),
            c => self.c.int_col(c)[self.wide],
        }
    }

    fn cell(&self, col: Col) -> Cell<'static> {
        match col {
            Col::S1 => Cell::Str(S1_VALUES[usize::from(self.c.s1[self.wide])]),
            Col::F1 => Cell::Float(self.exact(col) as f64 / 8.0),
            c => Cell::Int(self.exact(c)),
        }
    }
}

fn finish_item(it: Item, acc: Acc) -> Cell<'static> {
    let scale = |c: Col| if c == Col::F1 { 8.0 } else { 1.0 };
    match it {
        Item::Count => Cell::Int(acc.count as i64),
        Item::Sum(Col::F1) => Cell::Float(acc.sum as f64 / 8.0),
        Item::Sum(_) => Cell::Int(acc.sum),
        Item::Avg(_) if acc.count == 0 => Cell::Null,
        Item::Avg(c) => Cell::Float(acc.sum as f64 / scale(c) / acc.count as f64),
        Item::Col(_) => unreachable!("plain columns are not accumulated"),
    }
}

/// Evaluate `q` the slow, obvious way: one pass over every row of `wide`,
/// a hash lookup per row for the join, a map entry per group.
pub fn evaluate(q: &Query, c: &Columns) -> Answer {
    let dim_index: HashMap<i64, usize> = if q.join_dim {
        c.dim_k.iter().enumerate().map(|(i, &k)| (k, i)).collect()
    } else {
        HashMap::new()
    };
    let aggregated = q.select.iter().any(|it| !matches!(it, Item::Col(_)));
    let mut out = AnswerBuilder::default();
    // Group key: the key column's exact value (s1 by its index).
    let mut groups: BTreeMap<i64, (Cell<'static>, Vec<Acc>)> = BTreeMap::new();

    for i in 0..c.rows {
        let dim = if q.join_dim {
            match dim_index.get(&c.g_hi[i]) {
                Some(&d) => Some(d),
                None => continue,
            }
        } else {
            None
        };
        let row = Row { c, wide: i, dim };
        if let Some((col, lo, hi)) = q.range {
            let v = row.exact(col);
            if lo.is_some_and(|lo| v <= lo) || v >= hi {
                continue;
            }
        }
        if !aggregated {
            out.push_row(q.select.iter().map(|it| match *it {
                Item::Col(col) => row.cell(col),
                _ => unreachable!("checked above"),
            }));
            continue;
        }
        let (key, key_cell) = match q.group_by {
            None => (0, Cell::Null),
            Some(Col::S1) => (i64::from(c.s1[i]), row.cell(Col::S1)),
            Some(g) => (row.exact(g), row.cell(g)),
        };
        let accs = &mut groups
            .entry(key)
            .or_insert_with(|| (key_cell, vec![Acc::default(); q.select.len()]))
            .1;
        for (acc, it) in accs.iter_mut().zip(&q.select) {
            acc.count += 1;
            if let Item::Sum(col) | Item::Avg(col) = *it {
                acc.sum += row.exact(col);
            }
        }
    }

    if aggregated {
        // A global aggregate over no rows still answers one row.
        if q.group_by.is_none() && groups.is_empty() {
            groups.insert(0, (Cell::Null, vec![Acc::default(); q.select.len()]));
        }
        for (key_cell, accs) in groups.values() {
            out.push_row(q.select.iter().zip(accs).map(|(it, acc)| match *it {
                Item::Col(_) => *key_cell,
                it => finish_item(it, *acc),
            }));
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_row_order_but_not_cell_order() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("x".into())],
            vec![Value::Int(2), Value::Float(0.5)],
        ];
        let mut a = AnswerBuilder::default();
        a.push_values(&rows);
        let mut b = AnswerBuilder::default();
        b.push_values(&[rows[1].clone(), rows[0].clone()]);
        assert_eq!(a.finish(), b.finish());

        let mut swapped = AnswerBuilder::default();
        swapped.push_values(&[vec![Value::Str("x".into()), Value::Int(1)], rows[1].clone()]);
        let mut a = AnswerBuilder::default();
        a.push_values(&rows);
        assert_ne!(a.finish(), swapped.finish());
    }

    #[test]
    fn integral_float_and_int_agree_and_a_wrong_cell_does_not() {
        let one = |v: Value| {
            let mut b = AnswerBuilder::default();
            b.push_values(&[vec![v]]);
            b.finish()
        };
        assert_eq!(one(Value::Int(42)), one(Value::Float(42.0)));
        assert_ne!(one(Value::Int(42)), one(Value::Int(43)));
        assert_ne!(one(Value::Float(0.125)), one(Value::Float(0.25)));
    }

    #[test]
    fn sql_renders_literals_and_placeholders() {
        let q = Query::range_agg(&[Item::Count, Item::Sum(Col::A(2))], Col::A(1), 5, 9);
        assert_eq!(
            q.sql(false),
            "SELECT count(*), sum(a2) FROM wide WHERE a1 > 5 AND a1 < 9"
        );
        assert_eq!(
            q.sql(true),
            "SELECT count(*), sum(a2) FROM wide WHERE a1 > ? AND a1 < ?"
        );
        assert_eq!(q.params(), vec![Value::Int(5), Value::Int(9)]);
        let j = Query {
            select: vec![Item::Count, Item::Sum(Col::DimD1)],
            range: Some((Col::A(1), None, 7)),
            group_by: None,
            join_dim: true,
        };
        assert_eq!(
            j.sql(false),
            "SELECT count(*), sum(dim.d1) FROM wide JOIN dim ON wide.g_hi = dim.k WHERE wide.a1 < 7"
        );
    }

    #[test]
    fn naive_evaluator_answers_small_cases_by_hand() {
        let c = Columns::generate(3, 1000);
        // count(*) over everything.
        let all = Query {
            select: vec![Item::Count],
            range: None,
            group_by: None,
            join_dim: false,
        };
        let mut want = AnswerBuilder::default();
        want.push_row([Cell::Int(1000)]);
        assert_eq!(evaluate(&all, &c), want.finish());

        // a1 is a permutation: the open range (9, 20) holds 10..=19.
        let q = Query::range_agg(&[Item::Count, Item::Sum(Col::A(1))], Col::A(1), 9, 20);
        let mut want = AnswerBuilder::default();
        want.push_row([Cell::Int(10), Cell::Int((10..20).sum())]);
        assert_eq!(evaluate(&q, &c), want.finish());

        // Every g_hi has a dim row, so the join keeps every wide row.
        let j = Query {
            select: vec![Item::Count],
            range: None,
            group_by: None,
            join_dim: true,
        };
        assert_eq!(evaluate(&j, &c).rows, 1);
        let mut want = AnswerBuilder::default();
        want.push_row([Cell::Int(1000)]);
        assert_eq!(evaluate(&j, &c), want.finish());

        // GROUP BY s1 answers one row per distinct string.
        let g = Query {
            select: vec![Item::Col(Col::S1), Item::Count, Item::Avg(Col::F1)],
            range: None,
            group_by: Some(Col::S1),
            join_dim: false,
        };
        assert_eq!(evaluate(&g, &c).rows, 16);
    }
}
