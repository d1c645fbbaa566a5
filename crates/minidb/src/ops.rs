//! Relational operators over materialized relations.
//!
//! PackageBuilder evaluates its heuristic local search through "a single SQL
//! query ... a selection over a Cartesian product between the candidate
//! package and the recipe relation" (Section 4.2). The operators here provide
//! that query surface: scan, filter, project, cross join, aggregate, sort and
//! limit, all over materialized [`Relation`]s.

use std::collections::BTreeMap;

use crate::error::DbError;
use crate::eval::BoundExpr;
use crate::expr::Expr;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::DbResult;

/// A materialized intermediate result: a schema and its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Schema of the rows.
    pub schema: Schema,
    /// The rows.
    pub rows: Vec<Tuple>,
}

impl Relation {
    /// Creates a relation.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        Relation { schema, rows }
    }

    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Scans a table into a relation.
pub fn scan(table: &Table) -> Relation {
    Relation::new(
        table.schema().clone(),
        table.rows().map(|row| row.to_tuple()).collect(),
    )
}

/// Filters rows by a predicate (NULL does not qualify).
pub fn filter(input: &Relation, predicate: &Expr) -> DbResult<Relation> {
    let predicate = BoundExpr::bind(predicate, &input.schema)?;
    let mut rows = Vec::new();
    for row in &input.rows {
        if predicate.eval_predicate(row)? {
            rows.push(row.clone());
        }
    }
    Ok(Relation::new(input.schema.clone(), rows))
}

/// Projects expressions into a new relation. Each output column is named by
/// the paired string.
pub fn project(input: &Relation, exprs: &[(String, Expr)]) -> DbResult<Relation> {
    let bound: Vec<BoundExpr> = exprs
        .iter()
        .map(|(_, e)| BoundExpr::bind(e, &input.schema))
        .collect::<DbResult<_>>()?;
    let mut rows = Vec::with_capacity(input.rows.len());
    for row in &input.rows {
        let mut out = Vec::with_capacity(bound.len());
        for e in &bound {
            out.push(e.eval(row)?.into_owned());
        }
        rows.push(Tuple::new(out));
    }
    // Infer output column types from the first row (Float as numeric default).
    let columns: Vec<Column> = exprs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let ty = rows
                .first()
                .and_then(|r| r.get(i))
                .map(value_type)
                .unwrap_or(ColumnType::Float);
            Column::new(name.clone(), ty)
        })
        .collect();
    Ok(Relation::new(Schema::new(columns)?, rows))
}

fn value_type(v: &Value) -> ColumnType {
    match v {
        Value::Bool(_) => ColumnType::Bool,
        Value::Int(_) => ColumnType::Int,
        Value::Float(_) | Value::Null => ColumnType::Float,
        Value::Text(_) => ColumnType::Text,
    }
}

/// Cartesian product of two relations. Clashing right-hand column names are
/// prefixed with `right_prefix`.
pub fn cross_join(left: &Relation, right: &Relation, right_prefix: &str) -> Relation {
    let schema = left.schema.join(&right.schema, right_prefix);
    let mut rows = Vec::with_capacity(left.len() * right.len());
    for l in &left.rows {
        for r in &right.rows {
            rows.push(l.concat(r));
        }
    }
    Relation::new(schema, rows)
}

/// Aggregate functions supported by [`aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row count (ignores the expression).
    Count,
    /// Sum of a numeric expression.
    Sum,
    /// Average of a numeric expression.
    Avg,
    /// Minimum of an expression.
    Min,
    /// Maximum of an expression.
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Output column name.
    pub name: String,
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored for COUNT(*)).
    pub expr: Option<Expr>,
}

/// Computes grouped aggregates. With an empty `group_by` the result is a
/// single row (even over an empty input, matching SQL semantics for COUNT).
pub fn aggregate(
    input: &Relation,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> DbResult<Relation> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.require(g))
        .collect::<DbResult<_>>()?;

    let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for row in &input.rows {
        let key: Vec<Value> = group_idx.iter().map(|&i| row.values()[i].clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    let mut columns: Vec<Column> = group_idx
        .iter()
        .map(|&i| input.schema.columns()[i].clone())
        .collect();
    for a in aggregates {
        let ty = match a.func {
            AggFunc::Count => ColumnType::Int,
            _ => ColumnType::Float,
        };
        columns.push(Column::new(a.name.clone(), ty));
    }

    let bound: Vec<Option<BoundExpr>> = aggregates
        .iter()
        .map(|a| a.expr.as_ref().map(|e| BoundExpr::bind(e, &input.schema)))
        .map(Option::transpose)
        .collect::<DbResult<_>>()?;
    let mut rows = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let mut out = key.clone();
        for (a, expr) in aggregates.iter().zip(&bound) {
            out.push(compute_aggregate(a.func, expr.as_ref(), &members)?);
        }
        rows.push(Tuple::new(out));
    }
    Ok(Relation::new(Schema::new(columns)?, rows))
}

fn compute_aggregate(func: AggFunc, expr: Option<&BoundExpr>, rows: &[&Tuple]) -> DbResult<Value> {
    let bound = match (expr, func) {
        (Some(bound), _) => bound,
        (None, AggFunc::Count) => return Ok(Value::Int(rows.len() as i64)),
        (None, _) => {
            return Err(DbError::EvalError(format!(
                "{} requires an expression",
                func.name()
            )))
        }
    };
    match func {
        AggFunc::Count => {
            let mut n = 0i64;
            for row in rows {
                if !bound.eval(*row)?.is_null() {
                    n += 1;
                }
            }
            Ok(Value::Int(n))
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for row in rows {
                if let Some(x) = bound.eval(*row)?.as_f64() {
                    sum += x;
                    n += 1;
                }
            }
            if n == 0 {
                Ok(Value::Null)
            } else if func == AggFunc::Sum {
                Ok(Value::Float(sum))
            } else {
                Ok(Value::Float(sum / n as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for row in rows {
                let v = bound.eval(*row)?;
                if v.is_null() {
                    continue;
                }
                let keep_new = match &best {
                    None => true,
                    Some(b) if func == AggFunc::Min => v.total_cmp(b).is_lt(),
                    Some(b) => v.total_cmp(b).is_gt(),
                };
                if keep_new {
                    best = Some(v.into_owned());
                }
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Sort order for [`sort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// Sorts rows by the given `(column, order)` keys (stable).
pub fn sort(input: &Relation, keys: &[(String, SortOrder)]) -> DbResult<Relation> {
    let resolved: Vec<(usize, SortOrder)> = keys
        .iter()
        .map(|(c, o)| Ok((input.schema.require(c)?, *o)))
        .collect::<DbResult<_>>()?;
    let mut rows = input.rows.clone();
    rows.sort_by(|a, b| {
        for (idx, order) in &resolved {
            let ord = a.values()[*idx].total_cmp(&b.values()[*idx]);
            let ord = if *order == SortOrder::Desc {
                ord.reverse()
            } else {
                ord
            };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(Relation::new(input.schema.clone(), rows))
}

/// Keeps only the first `n` rows.
pub fn limit(input: &Relation, n: usize) -> Relation {
    Relation::new(
        input.schema.clone(),
        input.rows.iter().take(n).cloned().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn recipes() -> Table {
        let schema = Schema::build(&[
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("protein", ColumnType::Float),
            ("gluten", ColumnType::Text),
        ]);
        let mut t = Table::new("recipes", schema);
        t.insert(tuple!("oatmeal", 320.0, 12.0, "free")).unwrap();
        t.insert(tuple!("pasta", 640.0, 20.0, "full")).unwrap();
        t.insert(tuple!("salad", 210.0, 6.0, "free")).unwrap();
        t.insert(tuple!("steak", 520.0, 45.0, "free")).unwrap();
        t
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let t = recipes();
        let rel = scan(&t);
        let gf = filter(&rel, &Expr::col("gluten").eq(Expr::lit("free"))).unwrap();
        assert_eq!(gf.len(), 3);
        let proj = project(
            &gf,
            &[
                ("name".to_string(), Expr::col("name")),
                (
                    "cal_per_protein".to_string(),
                    Expr::binary(
                        crate::expr::BinaryOp::Div,
                        Expr::col("calories"),
                        Expr::col("protein"),
                    ),
                ),
            ],
        )
        .unwrap();
        assert_eq!(proj.schema.arity(), 2);
        assert_eq!(proj.len(), 3);
    }

    #[test]
    fn cross_join_sizes_and_prefixing() {
        let t = recipes();
        let rel = scan(&t);
        let joined = cross_join(&rel, &rel, "r");
        assert_eq!(joined.len(), 16);
        assert_eq!(joined.schema.arity(), 8);
        assert!(joined.schema.index_of("r.calories").is_some());
    }

    #[test]
    fn replacement_query_from_the_paper() {
        // "SELECT P0.id, R.id FROM P0, Recipes R
        //  WHERE 3000 - P0.calories + R.calories <= 2500";
        // with this 4-row table the largest saving is 640 - 210 = 430 calories,
        // so the test relaxes the target to 2600 to keep the neighbourhood non-empty.
        let t = recipes();
        let rel = scan(&t);
        // Treat the current package rows as P0 (alias via prefix on join).
        let joined = cross_join(&rel, &rel, "R");
        let pred = Expr::binary(
            crate::expr::BinaryOp::LtEq,
            Expr::binary(
                crate::expr::BinaryOp::Add,
                Expr::binary(
                    crate::expr::BinaryOp::Sub,
                    Expr::lit(3000.0),
                    Expr::col("calories"),
                ),
                Expr::col("R.calories"),
            ),
            Expr::lit(2600.0),
        );
        let candidates = filter(&joined, &pred).unwrap();
        // Replacements that shave at least 400 calories must exist (pasta -> salad).
        assert!(!candidates.is_empty());
        for row in &candidates.rows {
            let out = row.get_f64(&candidates.schema, "calories").unwrap();
            let inn = row.get_f64(&candidates.schema, "R.calories").unwrap();
            assert!(3000.0 - out + inn <= 2600.0);
        }
    }

    #[test]
    fn aggregates_ungrouped() {
        let rel = scan(&recipes());
        let out = aggregate(
            &rel,
            &[],
            &[
                Aggregate {
                    name: "n".into(),
                    func: AggFunc::Count,
                    expr: None,
                },
                Aggregate {
                    name: "total_cal".into(),
                    func: AggFunc::Sum,
                    expr: Some(Expr::col("calories")),
                },
                Aggregate {
                    name: "avg_protein".into(),
                    func: AggFunc::Avg,
                    expr: Some(Expr::col("protein")),
                },
                Aggregate {
                    name: "min_cal".into(),
                    func: AggFunc::Min,
                    expr: Some(Expr::col("calories")),
                },
                Aggregate {
                    name: "max_cal".into(),
                    func: AggFunc::Max,
                    expr: Some(Expr::col("calories")),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let row = &out.rows[0];
        assert_eq!(row.get_f64(&out.schema, "n").unwrap(), 4.0);
        assert_eq!(row.get_f64(&out.schema, "total_cal").unwrap(), 1690.0);
        assert_eq!(row.get_f64(&out.schema, "min_cal").unwrap(), 210.0);
        assert_eq!(row.get_f64(&out.schema, "max_cal").unwrap(), 640.0);
    }

    #[test]
    fn aggregates_grouped() {
        let rel = scan(&recipes());
        let out = aggregate(
            &rel,
            &["gluten".to_string()],
            &[Aggregate {
                name: "n".into(),
                func: AggFunc::Count,
                expr: None,
            }],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let sorted = sort(&out, &[("gluten".to_string(), SortOrder::Asc)]).unwrap();
        assert_eq!(sorted.rows[0].get_f64(&sorted.schema, "n").unwrap(), 3.0);
        assert_eq!(sorted.rows[1].get_f64(&sorted.schema, "n").unwrap(), 1.0);
    }

    #[test]
    fn aggregate_over_empty_input_yields_single_row() {
        let rel = Relation::empty(Schema::build(&[("x", ColumnType::Float)]));
        let out = aggregate(
            &rel,
            &[],
            &[
                Aggregate {
                    name: "n".into(),
                    func: AggFunc::Count,
                    expr: None,
                },
                Aggregate {
                    name: "s".into(),
                    func: AggFunc::Sum,
                    expr: Some(Expr::col("x")),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].values()[0], Value::Int(0));
        assert!(out.rows[0].values()[1].is_null());
    }

    #[test]
    fn sort_and_limit() {
        let rel = scan(&recipes());
        let sorted = sort(&rel, &[("calories".to_string(), SortOrder::Desc)]).unwrap();
        assert_eq!(sorted.rows[0].values()[0], Value::Text("pasta".into()));
        let top2 = limit(&sorted, 2);
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn sort_unknown_column_errors() {
        let rel = scan(&recipes());
        assert!(sort(&rel, &[("nope".to_string(), SortOrder::Asc)]).is_err());
    }
}
