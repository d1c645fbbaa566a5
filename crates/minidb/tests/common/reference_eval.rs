//! The reference evaluator: the per-row tree walker `minidb::eval` used
//! before expressions were bound ([`minidb::eval::BoundExpr`]), kept
//! verbatim as a test-only oracle. It resolves column names and clones leaf
//! values on every call, matches `LIKE` by recursive backtracking, and
//! shares no code with the bound evaluator beyond the `Value` operators —
//! which is the point: the property suites compare the two bit for bit.
//!
//! Included by path (`#[path = ".../common/reference_eval.rs"]`) from
//! `tests/proptests.rs` here and from `crates/core/tests/columnar_oracle.rs`.

#![allow(dead_code)]

use minidb::{BinaryOp, DbError, DbResult, Expr, Schema, Tuple, UnaryOp, Value};

/// Evaluates `expr` against `tuple` (column names resolved through `schema`).
pub fn eval(expr: &Expr, schema: &Schema, tuple: &Tuple) -> DbResult<Value> {
    match expr {
        Expr::Column(name) => {
            // Prefer an exact match (joined schemas contain qualified names
            // such as `R.calories`); otherwise fall back to the unqualified
            // name so `R.gluten` resolves against the base table schema.
            let idx = match schema.index_of(name) {
                Some(i) => i,
                None => schema.require(strip_qualifier(name))?,
            };
            Ok(tuple.get(idx).cloned().unwrap_or(Value::Null))
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, schema, tuple)?;
            // Short-circuit logical operators on the left value where 3VL allows.
            if *op == BinaryOp::And {
                if l.as_bool() == Some(false) {
                    return Ok(Value::Bool(false));
                }
            } else if *op == BinaryOp::Or && l.as_bool() == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = eval(rhs, schema, tuple)?;
            eval_binary(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, schema, tuple)?;
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    other => match other.as_bool() {
                        Some(b) => Value::Bool(!b),
                        None => {
                            return Err(DbError::TypeError(format!("cannot apply NOT to {other}")))
                        }
                    },
                }),
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, schema, tuple)?;
            let lo = eval(low, schema, tuple)?;
            let hi = eval(high, schema, tuple)?;
            let ge = eval_binary(BinaryOp::GtEq, &v, &lo)?;
            let le = eval_binary(BinaryOp::LtEq, &v, &hi)?;
            let both = eval_binary(BinaryOp::And, &ge, &le)?;
            negate_if(both, *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, schema, tuple)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let item_v = eval(item, schema, tuple)?;
                match v.sql_eq(&item_v) {
                    Some(true) => return negate_if(Value::Bool(true), *negated),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                negate_if(Value::Bool(false), *negated)
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, schema, tuple)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, schema, tuple)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => negate_if(Value::Bool(like_match(&s, pattern)), *negated),
                other => Err(DbError::TypeError(format!(
                    "LIKE requires a text value, got {other}"
                ))),
            }
        }
    }
}

/// Evaluates a predicate, mapping NULL to `false` (standard SQL `WHERE`
/// semantics: a row qualifies only when the predicate is definitely true).
pub fn eval_predicate(expr: &Expr, schema: &Schema, tuple: &Tuple) -> DbResult<bool> {
    Ok(eval(expr, schema, tuple)?.as_bool().unwrap_or(false))
}

/// Strips a leading alias qualifier (`R.calories` → `calories`, `P.x` → `x`).
fn strip_qualifier(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, bare)) => bare,
        None => name,
    }
}

fn negate_if(v: Value, negated: bool) -> DbResult<Value> {
    if !negated {
        return Ok(v);
    }
    Ok(match v {
        Value::Null => Value::Null,
        other => Value::Bool(!other.as_bool().unwrap_or(false)),
    })
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> DbResult<Value> {
    use BinaryOp::*;
    match op {
        Add => l.add(r),
        Sub => l.sub(r),
        Mul => l.mul(r),
        Div => l.div(r),
        Eq | NotEq => Ok(match l.sql_eq(r) {
            None => Value::Null,
            Some(b) => Value::Bool(if op == Eq { b } else { !b }),
        }),
        Lt | LtEq | Gt | GtEq => Ok(match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => {
                let b = match op {
                    Lt => ord.is_lt(),
                    LtEq => ord.is_le(),
                    Gt => ord.is_gt(),
                    GtEq => ord.is_ge(),
                    _ => unreachable!(),
                };
                Value::Bool(b)
            }
        }),
        And => Ok(three_valued_and(l, r)),
        Or => Ok(three_valued_or(l, r)),
    }
}

fn three_valued_and(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool(), l.is_null() || r.is_null()) {
        (Some(false), _, _) | (_, Some(false), _) => Value::Bool(false),
        (_, _, true) => Value::Null,
        (Some(true), Some(true), _) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn three_valued_or(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool(), l.is_null() || r.is_null()) {
        (Some(true), _, _) | (_, Some(true), _) => Value::Bool(true),
        (_, _, true) => Value::Null,
        (Some(false), Some(false), _) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Minimal SQL `LIKE` matcher supporting `%` (any sequence) and `_` (any one
/// character). Matching is case-sensitive, like PostgreSQL's `LIKE`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn inner(s: &[char], p: &[char]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some('%'), _) => {
                // Try to consume zero or more characters.
                if inner(s, &p[1..]) {
                    return true;
                }
                if s.is_empty() {
                    return false;
                }
                inner(&s[1..], p)
            }
            (Some('_'), Some(_)) => inner(&s[1..], &p[1..]),
            (Some(pc), Some(sc)) if pc == sc => inner(&s[1..], &p[1..]),
            _ => false,
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    inner(&s, &p)
}
