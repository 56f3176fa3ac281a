//! Name resolution and logical planning.
//!
//! Turns an [`AstQuery`] into a [`Plan`] with every identifier resolved to a
//! column ordinal. For joins, ordinals live in the *combined* schema (left
//! table's columns first, then the right table's), and the plan knows how to
//! split predicates and referenced columns back per table — that split is
//! exactly what the adaptive loader consumes to decide what to fetch from
//! which file.

use nodb_types::{ColPred, Conjunction, Error, Result, Schema, Value};

use nodb_exec::{AggFunc, AggSpec, ArithOp, Expr};

use crate::ast::{AstAgg, AstArith, AstExpr, AstQuery, QIdent};

/// Source of table schemas during planning.
pub trait SchemaProvider {
    /// Schema for a table name (case-insensitive), if the table exists.
    fn table_schema(&self, name: &str) -> Option<Schema>;
}

impl SchemaProvider for std::collections::HashMap<String, Schema> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    }
}

/// A resolved join.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedJoin {
    /// Right table name as given in the query.
    pub table: String,
    /// Join key ordinal in the *left* table schema.
    pub left_key: usize,
    /// Join key ordinal in the *right* table schema.
    pub right_key: usize,
}

/// One output column of the query.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputExpr {
    /// Plain scalar expression (over combined ordinals).
    Scalar(Expr),
    /// Aggregate (over combined ordinals).
    Agg(AggSpec),
}

/// A slot in a [`Plan`] that a statement parameter fills at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSite {
    /// `filter.preds[pred].value` comes from the parameter.
    FilterPred {
        /// Index into `filter.preds`.
        pred: usize,
        /// 0-based parameter ordinal.
        param: usize,
    },
    /// LIMIT comes from the parameter.
    Limit {
        /// 0-based parameter ordinal.
        param: usize,
    },
    /// OFFSET comes from the parameter.
    Offset {
        /// 0-based parameter ordinal.
        param: usize,
    },
}

/// A fully resolved logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Left (FROM) table name.
    pub table: String,
    /// Optional join.
    pub join: Option<ResolvedJoin>,
    /// Output expressions, combined ordinals.
    pub output: Vec<OutputExpr>,
    /// Output column labels.
    pub output_names: Vec<String>,
    /// WHERE conjunction, combined ordinals.
    pub filter: Conjunction,
    /// GROUP BY combined ordinals.
    pub group_by: Vec<usize>,
    /// ORDER BY combined ordinals with ascending flags.
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET (rows skipped, after ordering, before LIMIT applies).
    pub offset: Option<usize>,
    /// Number of columns in the left table (combined-ordinal split point).
    pub left_width: usize,
    /// The combined schema (left ++ right).
    pub combined_schema: Schema,
    /// Number of `?` parameters the statement declared.
    pub n_params: usize,
    /// Where each parameter lands ([`Plan::bind`] fills them).
    pub param_sites: Vec<ParamSite>,
}

impl Plan {
    /// Does the query aggregate?
    pub fn is_aggregate(&self) -> bool {
        self.output.iter().any(|o| matches!(o, OutputExpr::Agg(_)))
    }

    /// Does the plan still have unbound `?` parameters?
    pub fn is_parameterized(&self) -> bool {
        self.n_params > 0
    }

    /// Substitute parameter values into a parameterized plan, producing an
    /// executable (param-free) plan. Values are type-checked against their
    /// columns exactly like inline literals; LIMIT/OFFSET parameters must
    /// be non-negative integers. Binding re-does **no** parsing, name
    /// resolution or validation beyond the substituted slots — this is the
    /// cheap per-execution step of a prepared statement.
    pub fn bind(&self, params: &[Value]) -> Result<Plan> {
        if params.len() != self.n_params {
            return Err(Error::Plan(format!(
                "statement takes {} parameter(s), got {}",
                self.n_params,
                params.len()
            )));
        }
        let mut bound = self.clone();
        for site in &self.param_sites {
            match *site {
                ParamSite::FilterPred { pred, param } => {
                    let v = params[param].clone();
                    let col = bound.filter.preds[pred].col;
                    check_literal_type(&bound.combined_schema, col, &v)?;
                    bound.filter.preds[pred].value = v;
                }
                ParamSite::Limit { param } => {
                    bound.limit = Some(expect_count(&params[param], "LIMIT")?);
                }
                ParamSite::Offset { param } => {
                    bound.offset = Some(expect_count(&params[param], "OFFSET")?);
                }
            }
        }
        bound.n_params = 0;
        bound.param_sites.clear();
        Ok(bound)
    }

    /// All combined ordinals the query touches (select, filter, group,
    /// order, join keys), sorted and deduplicated.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        for o in &self.output {
            match o {
                OutputExpr::Scalar(e) => cols.extend(e.columns()),
                OutputExpr::Agg(a) => cols.extend(a.columns()),
            }
        }
        cols.extend(self.filter.columns());
        cols.extend(self.group_by.iter().copied());
        cols.extend(self.order_by.iter().map(|(c, _)| *c));
        if let Some(j) = &self.join {
            cols.push(j.left_key);
            cols.push(self.left_width + j.right_key);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Referenced columns split per table, in each table's local ordinals.
    pub fn referenced_per_table(&self) -> (Vec<usize>, Vec<usize>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for c in self.referenced_columns() {
            if c < self.left_width {
                left.push(c);
            } else {
                right.push(c - self.left_width);
            }
        }
        (left, right)
    }

    /// The filter split per table, predicates rebased to local ordinals.
    /// (Every predicate is `col op literal`, so each belongs to exactly one
    /// table.)
    pub fn filter_per_table(&self) -> (Conjunction, Conjunction) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for p in &self.filter.preds {
            if p.col < self.left_width {
                left.push(p.clone());
            } else {
                right.push(ColPred {
                    col: p.col - self.left_width,
                    op: p.op,
                    value: p.value.clone(),
                });
            }
        }
        (Conjunction::new(left), Conjunction::new(right))
    }

    /// The EXPLAIN listing: the configured loading strategy as a comment
    /// line, then the per-step plan rendering (the `Display` impl).
    /// `EXPLAIN` and `EXPLAIN ANALYZE` both start from this one renderer —
    /// ANALYZE appends measured annotations after it — so the two listings
    /// can never drift apart.
    pub fn render(&self, loading: &str) -> String {
        format!("-- strategy: {loading}\n{self}")
    }
}

impl std::fmt::Display for Plan {
    /// EXPLAIN-style rendering: one line per plan step, innermost first.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (needed_l, needed_r) = self.referenced_per_table();
        let (filter_l, filter_r) = self.filter_per_table();
        let names = |cols: &[usize], base: usize| -> String {
            let v: Vec<String> = cols
                .iter()
                .map(|&c| {
                    self.combined_schema
                        .field(base + c)
                        .map(|fd| fd.name.clone())
                        .unwrap_or_else(|| format!("#{}", base + c))
                })
                .collect();
            v.join(", ")
        };
        writeln!(
            f,
            "AdaptiveLoad table={} columns=[{}]{}",
            self.table,
            names(&needed_l, 0),
            if filter_l.is_always_true() {
                String::new()
            } else {
                format!(" pushdown=({filter_l})")
            }
        )?;
        if let Some(j) = &self.join {
            writeln!(
                f,
                "AdaptiveLoad table={} columns=[{}]{}",
                j.table,
                names(&needed_r, self.left_width),
                if filter_r.is_always_true() {
                    String::new()
                } else {
                    format!(" pushdown=({filter_r})")
                }
            )?;
            writeln!(
                f,
                "HashJoin {}.#{} = {}.#{}",
                self.table, j.left_key, j.table, j.right_key
            )?;
        }
        if !self.filter.is_always_true() {
            writeln!(f, "Filter {}", self.filter)?;
        }
        if !self.group_by.is_empty() {
            writeln!(f, "GroupBy [{}]", names(&self.group_by, 0))?;
        }
        if self.is_aggregate() || !self.group_by.is_empty() {
            let aggs: Vec<String> = self
                .output
                .iter()
                .filter_map(|o| match o {
                    OutputExpr::Agg(a) => Some(match &a.expr {
                        Some(e) => format!("{}({e})", a.func),
                        None => "count(*)".to_owned(),
                    }),
                    OutputExpr::Scalar(_) => None,
                })
                .collect();
            writeln!(f, "Aggregate [{}]", aggs.join(", "))?;
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|(c, asc)| {
                    format!(
                        "{}{}",
                        self.combined_schema
                            .field(*c)
                            .map(|fd| fd.name.clone())
                            .unwrap_or_else(|| format!("#{c}")),
                        if *asc { "" } else { " desc" }
                    )
                })
                .collect();
            writeln!(f, "OrderBy [{}]", keys.join(", "))?;
        }
        match (self.limit, self.offset) {
            (Some(n), Some(m)) => writeln!(f, "Limit {n} offset {m}")?,
            (Some(n), None) => writeln!(f, "Limit {n}")?,
            (None, Some(m)) => writeln!(f, "Offset {m}")?,
            (None, None) => {}
        }
        writeln!(f, "Project [{}]", self.output_names.join(", "))
    }
}

/// Resolve a parsed query against the available schemas.
pub fn plan(ast: &AstQuery, provider: &dyn SchemaProvider) -> Result<Plan> {
    let left_schema = provider
        .table_schema(&ast.table)
        .ok_or_else(|| Error::schema(format!("unknown table {:?}", ast.table)))?;
    let (join, combined_schema, left_width) = match &ast.join {
        None => {
            let w = left_schema.len();
            (None, left_schema.clone(), w)
        }
        Some(j) => {
            let right_schema = provider
                .table_schema(&j.table)
                .ok_or_else(|| Error::schema(format!("unknown table {:?}", j.table)))?;
            let mut fields = left_schema.fields().to_vec();
            // Qualify duplicated names so the combined schema stays valid.
            for f in right_schema.fields() {
                let name = if fields.iter().any(|g| g.name.eq_ignore_ascii_case(&f.name)) {
                    format!("{}.{}", j.table, f.name)
                } else {
                    f.name.clone()
                };
                fields.push(nodb_types::Field::new(name, f.data_type));
            }
            let combined = Schema::new(fields)?;
            let ctx = NameCtx {
                left_table: &ast.table,
                right_table: Some(&j.table),
                left: &left_schema,
                right: Some(&right_schema),
            };
            // Resolve the ON columns: one side must land in each table.
            let a = ctx.resolve(&j.left)?;
            let b = ctx.resolve(&j.right)?;
            let lw = left_schema.len();
            let (lk, rk) = match (a < lw, b < lw) {
                (true, false) => (a, b - lw),
                (false, true) => (b, a - lw),
                _ => {
                    return Err(Error::Plan(
                        "join condition must equate one column from each table".into(),
                    ))
                }
            };
            (
                Some(ResolvedJoin {
                    table: j.table.clone(),
                    left_key: lk,
                    right_key: rk,
                }),
                combined,
                lw,
            )
        }
    };

    let ctx = NameCtx {
        left_table: &ast.table,
        right_table: ast.join.as_ref().map(|j| j.table.as_str()),
        left: &left_schema,
        right: None, // resolution below uses combined widths via resolve_combined
    };
    // For unified resolution against the combined schema we rebuild a ctx
    // that knows both sides.
    let right_schema_owned;
    let ctx = if let Some(j) = &ast.join {
        right_schema_owned = provider.table_schema(&j.table).expect("checked above");
        NameCtx {
            left_table: &ast.table,
            right_table: Some(&j.table),
            left: &left_schema,
            right: Some(&right_schema_owned),
        }
    } else {
        ctx
    };

    // SELECT list.
    let mut output = Vec::new();
    let mut output_names = Vec::new();
    if ast.star {
        for (i, f) in combined_schema.fields().iter().enumerate() {
            output.push(OutputExpr::Scalar(Expr::Col(i)));
            output_names.push(f.name.clone());
        }
    } else {
        for item in &ast.items {
            let (oe, default_name) = resolve_item(&item.expr, &ctx)?;
            output_names.push(item.alias.clone().unwrap_or(default_name));
            output.push(oe);
        }
    }

    // WHERE. Parameterized predicates keep a NULL placeholder; their
    // values are type-checked when [`Plan::bind`] substitutes them.
    let mut preds = Vec::new();
    let mut param_sites = Vec::new();
    for p in &ast.predicates {
        let col = ctx.resolve(&p.col)?;
        match p.param {
            Some(param) => param_sites.push(ParamSite::FilterPred {
                pred: preds.len(),
                param,
            }),
            None => check_literal_type(&combined_schema, col, &p.lit)?,
        }
        preds.push(ColPred {
            col,
            op: p.op,
            value: p.lit.clone(),
        });
    }
    let filter = Conjunction::new(preds);
    if let Some(param) = ast.limit_param {
        param_sites.push(ParamSite::Limit { param });
    }
    if let Some(param) = ast.offset_param {
        param_sites.push(ParamSite::Offset { param });
    }

    // GROUP BY.
    let mut group_by = Vec::new();
    for g in &ast.group_by {
        group_by.push(ctx.resolve(g)?);
    }

    // Aggregate validation: scalar outputs must be plain grouped columns.
    let has_agg = output.iter().any(|o| matches!(o, OutputExpr::Agg(_)));
    if has_agg || !group_by.is_empty() {
        for (o, name) in output.iter().zip(&output_names) {
            match o {
                OutputExpr::Agg(_) => {}
                OutputExpr::Scalar(Expr::Col(c)) if group_by.contains(c) => {}
                OutputExpr::Scalar(_) => {
                    return Err(Error::Plan(format!(
                        "output {name:?} must be an aggregate or a GROUP BY column"
                    )))
                }
            }
        }
    }

    // ORDER BY.
    let mut order_by = Vec::new();
    for (q, asc) in &ast.order_by {
        let c = ctx.resolve(q)?;
        if (has_agg || !group_by.is_empty()) && !group_by.contains(&c) {
            return Err(Error::Plan(format!(
                "ORDER BY column {:?} must appear in GROUP BY for aggregate queries",
                q.name
            )));
        }
        order_by.push((c, *asc));
    }

    Ok(Plan {
        table: ast.table.clone(),
        join,
        output,
        output_names,
        filter,
        group_by,
        order_by,
        limit: ast.limit,
        offset: ast.offset,
        left_width,
        combined_schema,
        n_params: ast.n_params,
        param_sites,
    })
}

/// A LIMIT/OFFSET parameter must bind to a non-negative integer.
fn expect_count(v: &Value, what: &str) -> Result<usize> {
    match v {
        Value::Int(n) if *n >= 0 => Ok(*n as usize),
        other => Err(Error::Plan(format!(
            "{what} parameter must be a non-negative integer, got {other}"
        ))),
    }
}

/// Parse and plan in one call.
pub fn plan_sql(sql: &str, provider: &dyn SchemaProvider) -> Result<Plan> {
    let ast = crate::ast::parse(sql)?;
    plan(&ast, provider)
}

struct NameCtx<'a> {
    left_table: &'a str,
    right_table: Option<&'a str>,
    left: &'a Schema,
    right: Option<&'a Schema>,
}

impl NameCtx<'_> {
    /// Resolve a possibly-qualified identifier to a combined ordinal.
    fn resolve(&self, q: &QIdent) -> Result<usize> {
        let lw = self.left.len();
        match &q.table {
            Some(t) if t.eq_ignore_ascii_case(self.left_table) => self
                .find(self.left, &q.name)
                .ok_or_else(|| Error::schema(format!("table {t:?} has no column {:?}", q.name))),
            Some(t)
                if self
                    .right_table
                    .is_some_and(|rt| t.eq_ignore_ascii_case(rt)) =>
            {
                let rs = self.right.expect("right schema present for join");
                self.find(rs, &q.name)
                    .map(|i| lw + i)
                    .ok_or_else(|| Error::schema(format!("table {t:?} has no column {:?}", q.name)))
            }
            Some(t) => Err(Error::schema(format!("unknown table qualifier {t:?}"))),
            None => {
                let in_left = self.find(self.left, &q.name);
                let in_right = self.right.and_then(|rs| self.find(rs, &q.name));
                match (in_left, in_right) {
                    (Some(i), None) => Ok(i),
                    (None, Some(i)) => Ok(lw + i),
                    (Some(_), Some(_)) => Err(Error::schema(format!(
                        "column {:?} is ambiguous; qualify it with a table name",
                        q.name
                    ))),
                    (None, None) => Err(Error::schema(format!("unknown column {:?}", q.name))),
                }
            }
        }
    }

    fn find(&self, schema: &Schema, name: &str) -> Option<usize> {
        schema
            .fields()
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }
}

fn resolve_item(e: &AstExpr, ctx: &NameCtx<'_>) -> Result<(OutputExpr, String)> {
    match e {
        AstExpr::Agg(func, arg) => {
            let func = match func {
                AstAgg::Sum => AggFunc::Sum,
                AstAgg::Min => AggFunc::Min,
                AstAgg::Max => AggFunc::Max,
                AstAgg::Avg => AggFunc::Avg,
                AstAgg::Count => {
                    if arg.is_none() {
                        return Ok((
                            OutputExpr::Agg(AggSpec::count_star()),
                            "count(*)".to_owned(),
                        ));
                    }
                    AggFunc::Count
                }
            };
            let arg = arg.as_ref().expect("non-count(*) aggregates have args");
            let inner = resolve_scalar(arg, ctx)?;
            let name = format!("{}({})", func, describe(arg));
            Ok((
                OutputExpr::Agg(AggSpec {
                    func,
                    expr: Some(inner),
                }),
                name,
            ))
        }
        _ => {
            let inner = resolve_scalar(e, ctx)?;
            Ok((OutputExpr::Scalar(inner), describe(e)))
        }
    }
}

fn resolve_scalar(e: &AstExpr, ctx: &NameCtx<'_>) -> Result<Expr> {
    match e {
        AstExpr::Col(q) => Ok(Expr::Col(ctx.resolve(q)?)),
        AstExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: match op {
                AstArith::Add => ArithOp::Add,
                AstArith::Sub => ArithOp::Sub,
                AstArith::Mul => ArithOp::Mul,
                AstArith::Div => ArithOp::Div,
            },
            left: Box::new(resolve_scalar(left, ctx)?),
            right: Box::new(resolve_scalar(right, ctx)?),
        }),
        AstExpr::Agg(..) => Err(Error::Unsupported(
            "aggregates may only appear at the top level of a SELECT item".into(),
        )),
        AstExpr::Param(_) => Err(Error::Unsupported(
            "? parameters are only supported as WHERE literals and in LIMIT/OFFSET".into(),
        )),
    }
}

fn describe(e: &AstExpr) -> String {
    match e {
        AstExpr::Col(q) => match &q.table {
            Some(t) => format!("{t}.{}", q.name),
            None => q.name.clone(),
        },
        AstExpr::Lit(v) => v.to_string(),
        AstExpr::Binary { op, left, right } => {
            let sym = match op {
                AstArith::Add => "+",
                AstArith::Sub => "-",
                AstArith::Mul => "*",
                AstArith::Div => "/",
            };
            format!("{}{}{}", describe(left), sym, describe(right))
        }
        AstExpr::Param(i) => format!("?{}", i + 1),
        AstExpr::Agg(f, arg) => {
            let fname = match f {
                AstAgg::Sum => "sum",
                AstAgg::Min => "min",
                AstAgg::Max => "max",
                AstAgg::Avg => "avg",
                AstAgg::Count => "count",
            };
            match arg {
                None => format!("{fname}(*)"),
                Some(a) => format!("{fname}({})", describe(a)),
            }
        }
    }
}

/// Predicate literals must be type-compatible with their column (numeric
/// literal on numeric column, string on string).
fn check_literal_type(schema: &Schema, col: usize, lit: &Value) -> Result<()> {
    let field = schema
        .field(col)
        .ok_or_else(|| Error::schema(format!("ordinal {col} out of range")))?;
    let ok = match lit {
        Value::Null => true,
        Value::Int(_) | Value::Float(_) => field.data_type.is_numeric(),
        Value::Str(_) => field.data_type == nodb_types::DataType::Str,
    };
    if ok {
        Ok(())
    } else {
        Err(Error::Plan(format!(
            "predicate literal {lit} is incompatible with column {:?} of type {}",
            field.name, field.data_type
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert("r".to_owned(), Schema::ints(4));
        m.insert("s".to_owned(), Schema::ints(3));
        m.insert(
            "people".to_owned(),
            Schema::new(vec![
                nodb_types::Field::new("id", nodb_types::DataType::Int64),
                nodb_types::Field::new("name", nodb_types::DataType::Str),
                nodb_types::Field::new("score", nodb_types::DataType::Float64),
            ])
            .unwrap(),
        );
        m
    }

    fn plan_of(sql: &str) -> Plan {
        plan(&parse(sql).unwrap(), &provider()).unwrap()
    }

    #[test]
    fn paper_q1_plan() {
        let p = plan_of(
            "select sum(a1),min(a4),max(a3),avg(a2) from r \
             where a1>5 and a1<10 and a2>3 and a2<8",
        );
        assert!(p.is_aggregate());
        assert_eq!(p.referenced_columns(), vec![0, 1, 2, 3]);
        assert_eq!(p.output_names[0], "sum(a1)");
        assert_eq!(p.filter.preds.len(), 4);
        assert!(p.join.is_none());
    }

    #[test]
    fn q2_references_only_two_columns() {
        let p = plan_of("select sum(a1),avg(a2) from r where a1>1 and a2<5");
        assert_eq!(p.referenced_columns(), vec![0, 1]);
    }

    #[test]
    fn star_expands_combined_schema() {
        let p = plan_of("select * from r");
        assert_eq!(p.output.len(), 4);
        assert_eq!(p.output_names, vec!["a1", "a2", "a3", "a4"]);
        assert!(!p.is_aggregate());
    }

    #[test]
    fn case_insensitive_tables_and_columns() {
        let p = plan_of("select A1 from R where A2 > 1");
        assert_eq!(p.referenced_columns(), vec![0, 1]);
    }

    #[test]
    fn join_resolution_and_splits() {
        let p = plan_of(
            "select sum(r.a2), sum(s.a2) from r join s on r.a1 = s.a1 \
             where r.a3 > 5 and s.a2 < 9",
        );
        let j = p.join.as_ref().unwrap();
        assert_eq!((j.left_key, j.right_key), (0, 0));
        assert_eq!(p.left_width, 4);
        let (lc, rc) = p.referenced_per_table();
        assert_eq!(lc, vec![0, 1, 2]);
        assert_eq!(rc, vec![0, 1]);
        let (lf, rf) = p.filter_per_table();
        assert_eq!(lf.preds.len(), 1);
        assert_eq!(lf.preds[0].col, 2);
        assert_eq!(rf.preds.len(), 1);
        assert_eq!(rf.preds[0].col, 1); // rebased to local ordinal
    }

    #[test]
    fn join_on_flipped_sides() {
        let p = plan_of("select r.a1 from r join s on s.a2 = r.a3");
        let j = p.join.unwrap();
        assert_eq!((j.left_key, j.right_key), (2, 1));
    }

    #[test]
    fn ambiguous_column_in_join_rejected() {
        let e = plan(
            &parse("select a1 from r join s on r.a1 = s.a1").unwrap(),
            &provider(),
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("ambiguous"), "{e}");
    }

    #[test]
    fn join_duplicate_names_qualified_in_combined_schema() {
        let p = plan_of("select r.a1 from r join s on r.a1 = s.a1");
        assert_eq!(p.combined_schema.field(4).unwrap().name, "s.a1");
    }

    #[test]
    fn group_by_validation() {
        let p = plan_of("select a1, count(*) from r group by a1 order by a1");
        assert_eq!(p.group_by, vec![0]);
        assert_eq!(p.order_by, vec![(0, true)]);
        // Non-grouped scalar output rejected.
        assert!(plan(
            &parse("select a2, count(*) from r group by a1").unwrap(),
            &provider()
        )
        .is_err());
        // Order by non-grouped column rejected.
        assert!(plan(
            &parse("select a1, count(*) from r group by a1 order by a2").unwrap(),
            &provider()
        )
        .is_err());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert!(plan(&parse("select a1 from nope").unwrap(), &provider()).is_err());
        assert!(plan(&parse("select zz from r").unwrap(), &provider()).is_err());
        assert!(plan(&parse("select x.a1 from r").unwrap(), &provider()).is_err());
    }

    #[test]
    fn literal_type_checking() {
        assert!(plan(
            &parse("select a1 from r where a1 > 'text'").unwrap(),
            &provider()
        )
        .is_err());
        assert!(plan(
            &parse("select id from people where name > 5").unwrap(),
            &provider()
        )
        .is_err());
        // Float literal on int column is fine.
        plan(
            &parse("select a1 from r where a1 > 2.5").unwrap(),
            &provider(),
        )
        .unwrap();
        // String literal on string column is fine.
        plan(
            &parse("select id from people where name = 'bob'").unwrap(),
            &provider(),
        )
        .unwrap();
    }

    #[test]
    fn nested_aggregate_rejected() {
        assert!(plan(&parse("select sum(a1) + 1 from r").unwrap(), &provider()).is_err());
    }

    #[test]
    fn order_by_unselected_column_ok_for_scalar_queries() {
        let p = plan_of("select a1 from r order by a3 desc limit 2");
        assert_eq!(p.order_by, vec![(2, false)]);
        assert_eq!(p.limit, Some(2));
        assert!(p.referenced_columns().contains(&2));
    }

    #[test]
    fn plan_sql_convenience() {
        let p = plan_sql("select count(*) from r", &provider()).unwrap();
        assert!(p.is_aggregate());
        assert_eq!(p.referenced_columns(), Vec::<usize>::new());
    }

    #[test]
    fn offset_reaches_plan() {
        let p = plan_of("select a1 from r order by a1 limit 3 offset 2");
        assert_eq!(p.limit, Some(3));
        assert_eq!(p.offset, Some(2));
        assert!(format!("{p}").contains("Limit 3 offset 2"));
    }

    #[test]
    fn bind_substitutes_and_type_checks() {
        let p = plan_of("select a1 from r where a1 > ? and a2 < ? limit ?");
        assert!(p.is_parameterized());
        assert_eq!(p.n_params, 3);
        let b = p
            .bind(&[Value::Int(1), Value::Int(9), Value::Int(5)])
            .unwrap();
        assert!(!b.is_parameterized());
        assert_eq!(b.filter.preds[0].value, Value::Int(1));
        assert_eq!(b.filter.preds[1].value, Value::Int(9));
        assert_eq!(b.limit, Some(5));
        // Re-binding the original with different values is independent.
        let b2 = p
            .bind(&[Value::Int(2), Value::Int(8), Value::Int(1)])
            .unwrap();
        assert_eq!(b2.filter.preds[0].value, Value::Int(2));
        assert_eq!(p.filter.preds[0].value, Value::Null, "original untouched");
    }

    #[test]
    fn bind_arity_and_type_errors() {
        let p = plan_of("select a1 from r where a1 > ?");
        assert!(p.bind(&[]).is_err(), "too few");
        assert!(p.bind(&[Value::Int(1), Value::Int(2)]).is_err(), "too many");
        assert!(
            p.bind(&[Value::Str("x".into())]).is_err(),
            "string into int column"
        );
        let p = plan_of("select a1 from r limit ?");
        assert!(p.bind(&[Value::Int(-1)]).is_err(), "negative limit");
        assert!(p.bind(&[Value::Str("x".into())]).is_err(), "non-int limit");
    }

    #[test]
    fn params_rejected_outside_where_and_limit() {
        assert!(matches!(
            plan(&parse("select a1 + ? from r").unwrap(), &provider()),
            Err(Error::Unsupported(_))
        ));
    }
}
