//! Expression evaluation with SQL three-valued logic.
//!
//! Evaluation is split into **bind once, evaluate per row**:
//! [`BoundExpr::bind`] resolves an [`Expr`] against a [`Schema`] a single
//! time — column names become positions, `LIKE` patterns are pre-split —
//! and [`BoundExpr::eval`] / [`BoundExpr::eval_predicate`] then run against
//! any number of tuples without touching a name or cloning a leaf value.
//! Every row loop (base-constraint scans, term materialization, the
//! relational operators in [`crate::ops`]) binds outside the loop; the free
//! [`eval`] / [`eval_predicate`] functions are one-row conveniences over the
//! same evaluator.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::error::DbError;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::DbResult;

/// An [`Expr`] bound to a [`Schema`]: the compiled form every row loop
/// evaluates.
///
/// Binding resolves each column reference to its position (an exact name
/// match first — joined schemas contain qualified names such as
/// `R.calories` — then the unqualified name, so `R.gluten` resolves against
/// the base table schema), keeps each literal once, and splits `LIKE`
/// patterns into tokens. Evaluation borrows column and literal leaves
/// ([`Cow::Borrowed`]) instead of cloning them, and computes everything else
/// with the [`Value`] operators (`add`, `sql_eq`, `sql_cmp`, …), so results
/// are the same values, bit for bit, whichever row loop asks.
///
/// Unknown columns are reported **at bind time**, wherever they appear in
/// the expression. A per-row interpreter would only notice one when
/// evaluation reaches it, so `FALSE AND missing = 1` — whose right branch
/// SQL's short-circuit never evaluates — is an
/// [`DbError::UnknownColumn`] here rather than `FALSE`.
#[derive(Debug, Clone)]
pub struct BoundExpr(Node);

/// The bound expression tree; mirrors [`Expr`] variant for variant.
#[derive(Debug, Clone)]
enum Node {
    Column(usize),
    Literal(Value),
    Binary {
        op: BinaryOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Node>,
    },
    Between {
        expr: Box<Node>,
        low: Box<Node>,
        high: Box<Node>,
        negated: bool,
    },
    InList {
        expr: Box<Node>,
        list: Vec<Node>,
        negated: bool,
    },
    IsNull {
        expr: Box<Node>,
        negated: bool,
    },
    Like {
        expr: Box<Node>,
        pattern: LikePattern,
        negated: bool,
    },
}

impl BoundExpr {
    /// Binds `expr` to `schema`. Fails with [`DbError::UnknownColumn`] when
    /// any column reference — reachable at run time or not — cannot be
    /// resolved.
    pub fn bind(expr: &Expr, schema: &Schema) -> DbResult<BoundExpr> {
        Node::bind(expr, schema).map(BoundExpr)
    }

    /// Evaluates the expression against `tuple`. Column and literal leaves
    /// come back borrowed; computed values are owned.
    pub fn eval<'a>(&'a self, tuple: &'a Tuple) -> DbResult<Cow<'a, Value>> {
        self.0.eval(tuple)
    }

    /// Evaluates a predicate, mapping NULL to `false` (standard SQL `WHERE`
    /// semantics: a row qualifies only when the predicate is definitely
    /// true).
    pub fn eval_predicate(&self, tuple: &Tuple) -> DbResult<bool> {
        Ok(self.0.eval(tuple)?.as_bool().unwrap_or(false))
    }
}

impl Node {
    fn bind(expr: &Expr, schema: &Schema) -> DbResult<Node> {
        let boxed = |e: &Expr| Node::bind(e, schema).map(Box::new);
        Ok(match expr {
            Expr::Column(name) => Node::Column(match schema.index_of(name) {
                Some(i) => i,
                None => schema.require(strip_qualifier(name))?,
            }),
            Expr::Literal(v) => Node::Literal(v.clone()),
            Expr::Binary { op, lhs, rhs } => Node::Binary {
                op: *op,
                lhs: boxed(lhs)?,
                rhs: boxed(rhs)?,
            },
            Expr::Unary { op, expr } => Node::Unary {
                op: *op,
                expr: boxed(expr)?,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Node::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Node::InList {
                expr: boxed(expr)?,
                list: list
                    .iter()
                    .map(|e| Node::bind(e, schema))
                    .collect::<DbResult<_>>()?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Node::Like {
                expr: boxed(expr)?,
                pattern: LikePattern::new(pattern),
                negated: *negated,
            },
        })
    }

    fn eval<'a>(&'a self, tuple: &'a Tuple) -> DbResult<Cow<'a, Value>> {
        Ok(Cow::Owned(match self {
            Node::Column(idx) => {
                return Ok(match tuple.get(*idx) {
                    Some(v) => Cow::Borrowed(v),
                    None => Cow::Owned(Value::Null),
                })
            }
            Node::Literal(v) => return Ok(Cow::Borrowed(v)),
            Node::Binary { op, lhs, rhs } => {
                let l = lhs.eval(tuple)?;
                // Short-circuit logical operators on the left value where 3VL allows.
                match op {
                    BinaryOp::And if l.as_bool() == Some(false) => Value::Bool(false),
                    BinaryOp::Or if l.as_bool() == Some(true) => Value::Bool(true),
                    _ => apply_binary(*op, &l, &*rhs.eval(tuple)?)?,
                }
            }
            Node::Unary { op, expr } => {
                let v = expr.eval(tuple)?;
                match op {
                    UnaryOp::Neg => v.neg()?,
                    UnaryOp::Not => match (&*v, v.as_bool()) {
                        (Value::Null, _) => Value::Null,
                        (_, Some(b)) => Value::Bool(!b),
                        (other, None) => {
                            return Err(DbError::TypeError(format!("cannot apply NOT to {other}")))
                        }
                    },
                }
            }
            Node::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(tuple)?;
                let lo = low.eval(tuple)?;
                let hi = high.eval(tuple)?;
                let ge = compare(&v, &lo, Ordering::is_ge);
                let le = compare(&v, &hi, Ordering::is_le);
                negate_if(three_valued_and(&ge, &le), *negated)
            }
            Node::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(tuple)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&*item.eval(tuple)?) {
                        Some(true) => return Ok(Cow::Owned(Value::Bool(!*negated))),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Node::IsNull { expr, negated } => Value::Bool(expr.eval(tuple)?.is_null() != *negated),
            Node::Like {
                expr,
                pattern,
                negated,
            } => match &*expr.eval(tuple)? {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Bool(pattern.matches(s) != *negated),
                other => {
                    return Err(DbError::TypeError(format!(
                        "LIKE requires a text value, got {other}"
                    )))
                }
            },
        }))
    }
}

/// Evaluates `expr` against one `tuple` (column names resolved through
/// `schema`): [`BoundExpr::bind`] then [`BoundExpr::eval`]. Row loops bind
/// once outside the loop instead of calling this per row.
pub fn eval(expr: &Expr, schema: &Schema, tuple: &Tuple) -> DbResult<Value> {
    let bound = BoundExpr::bind(expr, schema)?;
    let value = bound.eval(tuple)?.into_owned();
    Ok(value)
}

/// Evaluates a predicate against one `tuple`, mapping NULL to `false`; the
/// one-row convenience over [`BoundExpr::eval_predicate`].
pub fn eval_predicate(expr: &Expr, schema: &Schema, tuple: &Tuple) -> DbResult<bool> {
    BoundExpr::bind(expr, schema)?.eval_predicate(tuple)
}

/// Strips a leading alias qualifier (`R.calories` → `calories`, `P.x` → `x`).
pub fn strip_qualifier(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, bare)) => bare,
        None => name,
    }
}

fn negate_if(v: Value, negated: bool) -> Value {
    match v {
        Value::Null => Value::Null,
        other if negated => Value::Bool(!other.as_bool().unwrap_or(false)),
        other => other,
    }
}

/// `l <cmp> r` under SQL semantics: NULL when either side is NULL or the
/// values are not comparable, else whether `test` accepts their ordering.
fn compare(l: &Value, r: &Value, test: fn(Ordering) -> bool) -> Value {
    match l.sql_cmp(r) {
        None => Value::Null,
        Some(ord) => Value::Bool(test(ord)),
    }
}

fn apply_binary(op: BinaryOp, l: &Value, r: &Value) -> DbResult<Value> {
    Ok(match op {
        BinaryOp::Add => l.add(r)?,
        BinaryOp::Sub => l.sub(r)?,
        BinaryOp::Mul => l.mul(r)?,
        BinaryOp::Div => l.div(r)?,
        BinaryOp::Eq => l.sql_eq(r).map_or(Value::Null, Value::Bool),
        BinaryOp::NotEq => l.sql_eq(r).map_or(Value::Null, |b| Value::Bool(!b)),
        BinaryOp::Lt => compare(l, r, Ordering::is_lt),
        BinaryOp::LtEq => compare(l, r, Ordering::is_le),
        BinaryOp::Gt => compare(l, r, Ordering::is_gt),
        BinaryOp::GtEq => compare(l, r, Ordering::is_ge),
        BinaryOp::And => three_valued_and(l, r),
        BinaryOp::Or => three_valued_or(l, r),
    })
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

/// A SQL `LIKE` pattern split into tokens once, at bind time.
#[derive(Debug, Clone)]
struct LikePattern(Vec<LikeToken>);

#[derive(Debug, Clone, Copy, PartialEq)]
enum LikeToken {
    /// `%`: any run of characters, including none.
    AnyRun,
    /// `_`: exactly one character.
    AnyOne,
    /// Any other character, matched exactly (case-sensitive).
    Exact(char),
}

impl LikePattern {
    fn new(pattern: &str) -> Self {
        let mut tokens = Vec::new();
        for c in pattern.chars() {
            let token = match c {
                '%' => LikeToken::AnyRun,
                '_' => LikeToken::AnyOne,
                other => LikeToken::Exact(other),
            };
            // `%%` matches what `%` matches.
            if token != LikeToken::AnyRun || tokens.last() != Some(&LikeToken::AnyRun) {
                tokens.push(token);
            }
        }
        LikePattern(tokens)
    }

    /// Iterative two-pointer match: on a mismatch, resume after the most
    /// recent `%` with that `%` swallowing one more character. Earlier `%`s
    /// never need revisiting (the leftmost match of each literal run leaves
    /// the most subject for the rest), so the worst case is
    /// `O(|subject| · |pattern|)`, with no recursion and no allocation.
    fn matches(&self, subject: &str) -> bool {
        let tokens = &self.0;
        let mut rest = subject.chars();
        let mut t = 0;
        // Token index after the last `%` seen, and the subject it resumes on.
        let mut resume: Option<(usize, std::str::Chars<'_>)> = None;
        loop {
            if tokens.get(t) == Some(&LikeToken::AnyRun) {
                t += 1;
                if t == tokens.len() {
                    return true;
                }
                resume = Some((t, rest.clone()));
                continue;
            }
            let matched = match (tokens.get(t), rest.next()) {
                (None, None) => return true,
                // The subject ran out under tokens that each need a
                // character; resuming later leaves even less subject.
                (Some(_), None) => return false,
                (Some(LikeToken::AnyOne), Some(_)) => true,
                (Some(LikeToken::Exact(p)), Some(c)) => *p == c,
                // The pattern ran out before the subject did.
                _ => false,
            };
            if matched {
                t += 1;
                continue;
            }
            match &mut resume {
                None => return false,
                // `from` trails the character that just mismatched, so it
                // has one to give up.
                Some((after_run, from)) => {
                    from.next();
                    t = *after_run;
                    rest = from.clone();
                }
            }
        }
    }
}

/// Minimal SQL `LIKE` matcher supporting `%` (any sequence) and `_` (any one
/// character). Matching is case-sensitive, like PostgreSQL's `LIKE`. Splits
/// `pattern` on every call; a [`BoundExpr`] splits it once.
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::build(&[
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("protein", ColumnType::Float),
            ("gluten", ColumnType::Text),
        ])
    }

    fn row() -> Tuple {
        tuple!("oatmeal", 320.0, 12.5, "free")
    }

    #[test]
    fn base_constraint_from_the_paper() {
        // WHERE R.gluten = 'free'
        let e = Expr::col("R.gluten").eq(Expr::lit("free"));
        assert!(eval_predicate(&e, &schema(), &row()).unwrap());
        let e2 = Expr::col("R.gluten").eq(Expr::lit("full"));
        assert!(!eval_predicate(&e2, &schema(), &row()).unwrap());
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::binary(
            BinaryOp::Gt,
            Expr::binary(BinaryOp::Mul, Expr::col("protein"), Expr::lit(2)),
            Expr::lit(20.0),
        );
        assert!(eval_predicate(&e, &schema(), &row()).unwrap());
    }

    #[test]
    fn null_comparisons_do_not_qualify() {
        let schema = Schema::build(&[("x", ColumnType::Float)]);
        let t = Tuple::new(vec![Value::Null]);
        let e = Expr::col("x").gt_eq(Expr::lit(0));
        assert_eq!(eval(&e, &schema, &t).unwrap(), Value::Null);
        assert!(!eval_predicate(&e, &schema, &t).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(
            three_valued_and(&Value::Null, &Value::Bool(false)),
            Value::Bool(false)
        );
        assert_eq!(
            three_valued_and(&Value::Null, &Value::Bool(true)),
            Value::Null
        );
        assert_eq!(
            three_valued_or(&Value::Null, &Value::Bool(true)),
            Value::Bool(true)
        );
        assert_eq!(
            three_valued_or(&Value::Null, &Value::Bool(false)),
            Value::Null
        );
    }

    #[test]
    fn between_in_isnull_like() {
        let s = schema();
        let r = row();
        let between = Expr::col("calories").between(Expr::lit(300), Expr::lit(350));
        assert!(eval_predicate(&between, &s, &r).unwrap());

        let inlist = Expr::InList {
            expr: Box::new(Expr::col("gluten")),
            list: vec![Expr::lit("free"), Expr::lit("none")],
            negated: false,
        };
        assert!(eval_predicate(&inlist, &s, &r).unwrap());

        let isnull = Expr::IsNull {
            expr: Box::new(Expr::col("name")),
            negated: true,
        };
        assert!(eval_predicate(&isnull, &s, &r).unwrap());

        let like = Expr::Like {
            expr: Box::new(Expr::col("name")),
            pattern: "oat%".into(),
            negated: false,
        };
        assert!(eval_predicate(&like, &s, &r).unwrap());
    }

    #[test]
    fn like_matcher_wildcards() {
        assert!(like_match("chicken salad", "%salad"));
        assert!(like_match("chicken salad", "chicken%"));
        assert!(like_match("cat", "c_t"));
        assert!(!like_match("cat", "c_"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("a%c", "a%c"));
    }

    #[test]
    fn not_operator_respects_nulls() {
        let s = Schema::build(&[("x", ColumnType::Bool)]);
        let t = Tuple::new(vec![Value::Null]);
        let e = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::col("x")),
        };
        assert_eq!(eval(&e, &s, &t).unwrap(), Value::Null);
    }

    #[test]
    fn unknown_column_errors() {
        let e = Expr::col("missing");
        assert!(matches!(
            eval(&e, &schema(), &row()),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn like_matcher_is_iterative_on_adversarial_patterns() {
        // A recursive matcher backtracks exponentially here: every `%a`
        // can match anywhere in the run and the trailing `b` never does.
        let subject = "a".repeat(10_000);
        let pattern = format!("{}b", "%a".repeat(12));
        let start = std::time::Instant::now();
        assert!(!like_match(&subject, &pattern));
        assert!(like_match(&format!("{subject}b"), &pattern));
        assert!(like_match(&subject, &"%a".repeat(12)));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn like_matcher_counts_characters_not_bytes() {
        assert!(like_match("crème brûlée", "cr_me%br_l_e"));
        assert!(like_match("日本語", "___"));
        assert!(!like_match("日本語", "__"));
        assert!(like_match("naïve café", "%ï%é"));
        assert!(!like_match("naïve café", "%é_"));
        assert!(like_match("ab", "%%a%%b%%"));
        assert!(like_match("xaybzaab", "%a_b"));
        assert!(!like_match("xaybzab", "%a_b"));
        assert!(!like_match("", "_"));
        assert!(like_match("", ""));
    }

    #[test]
    fn leaves_are_borrowed_not_cloned() {
        let s = schema();
        let r = row();
        let col = BoundExpr::bind(&Expr::col("R.name"), &s).unwrap();
        assert!(matches!(col.eval(&r).unwrap(), Cow::Borrowed(_)));
        let lit = BoundExpr::bind(&Expr::lit("free"), &s).unwrap();
        assert!(matches!(lit.eval(&r).unwrap(), Cow::Borrowed(_)));
        // A bound expression is reusable across rows.
        let pred = BoundExpr::bind(&Expr::col("gluten").eq(Expr::lit("free")), &s).unwrap();
        assert!(pred.eval_predicate(&r).unwrap());
        assert!(!pred
            .eval_predicate(&tuple!("pasta", 640.0, 20.0, "full"))
            .unwrap());
    }

    #[test]
    fn unknown_columns_are_reported_at_bind_time_even_when_short_circuited() {
        // The tree walker this evaluator replaced never reached the right
        // branch of `FALSE AND ...` / `TRUE OR ...`; binding resolves every
        // column up front, so the missing one is an error.
        let missing = Expr::col("missing").eq(Expr::lit(1));
        for e in [
            Expr::lit(false).and(missing.clone()),
            Expr::lit(true).or(missing),
        ] {
            assert!(matches!(
                BoundExpr::bind(&e, &schema()),
                Err(DbError::UnknownColumn(_))
            ));
            assert!(matches!(
                eval(&e, &schema(), &row()),
                Err(DbError::UnknownColumn(_))
            ));
        }
        // Short-circuiting itself is unchanged: a right branch that would
        // fail at run time is still skipped.
        let type_error = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::col("name")),
        };
        assert!(eval(&type_error, &schema(), &row()).is_err());
        assert_eq!(
            eval(&Expr::lit(false).and(type_error), &schema(), &row()).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn qualifier_stripping() {
        assert_eq!(strip_qualifier("R.calories"), "calories");
        assert_eq!(strip_qualifier("calories"), "calories");
        assert_eq!(strip_qualifier("a.b.c"), "c");
    }
}
