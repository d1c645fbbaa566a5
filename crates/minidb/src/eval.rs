//! Expression evaluation with SQL three-valued logic.
//!
//! Evaluation is split into **bind once, evaluate many**:
//! [`BoundExpr::bind`] resolves an [`Expr`] against a [`Schema`] a single
//! time — column names become positions and types, `LIKE` patterns are
//! pre-split — and the bound expression then runs in one of two forms.
//!
//! * The **row form** ([`BoundExpr::eval`] / [`BoundExpr::eval_predicate`])
//!   evaluates one [`Row`] — an owned [`Tuple`] or a lazy
//!   [`crate::table::RowView`] — to a [`Value`]. The interpreted package
//!   oracle uses it; the free [`eval`] / [`eval_predicate`] functions are
//!   one-row conveniences.
//! * The **chunk form** ([`BoundExpr::eval_predicate_chunk`] /
//!   [`BoundExpr::eval_f64_chunk`]) evaluates a whole [`Selection`] of a
//!   table's rows at once, straight from the typed column vectors into
//!   `f64` or `bool` lanes with a NULL flag per lane. Base-constraint scans
//!   and term materialization — every loop over a relation — use it.
//!
//! The two forms cannot disagree: the chunk form's kernels are built from
//! the same operator cores the [`Value`] operators use, any node they do
//! not cover (`LIKE`, ill-typed operands) is evaluated by the row form lane
//! by lane inside the chunk, and a chunk in which anything fails is
//! re-evaluated by the row form from its first lane, so the error reported
//! is the row form's error for the first failing lane. Lane for lane the
//! chunk form's numbers have the row form's bits — signed zeros included —
//! with one exception neither form controls: a NaN that arithmetic
//! *computes* is a NaN in both, but its sign and payload follow the operand
//! order of the machine instruction, which the compiler picks per loop.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::column::{ColumnData, ColumnVec};
use crate::error::DbError;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::schema::{ColumnType, Schema};
use crate::table::{RowView, Selection};
use crate::tuple::Tuple;
use crate::value::{int_result, num_cmp, num_div, num_eq, Value};
use crate::DbResult;

/// What the row form reads cells from: an owned [`Tuple`] (cells borrowed)
/// or a [`RowView`] into a table's columns (cells fetched on demand, so an
/// expression touches only the columns it names).
pub trait Row {
    /// The cell at column position `idx`; NULL when the row is narrower.
    fn cell(&self, idx: usize) -> Cow<'_, Value>;
}

impl Row for Tuple {
    fn cell(&self, idx: usize) -> Cow<'_, Value> {
        match self.get(idx) {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(Value::Null),
        }
    }
}

impl Row for RowView<'_> {
    fn cell(&self, idx: usize) -> Cow<'_, Value> {
        Cow::Owned(self.get(idx).unwrap_or(Value::Null))
    }
}

/// An [`Expr`] bound to a [`Schema`]: the compiled form every row loop
/// evaluates.
///
/// Binding resolves each column reference to its position and declared type
/// (an exact name match first — joined schemas contain qualified names such
/// as `R.calories` — then the unqualified name, so `R.gluten` resolves
/// against the base table schema), keeps each literal once, and splits
/// `LIKE` patterns into tokens. The row form borrows literal leaves and
/// [`Tuple`] cells ([`Cow::Borrowed`]) instead of cloning them, and computes
/// everything else with the [`Value`] operators (`add`, `sql_eq`,
/// `sql_cmp`, …); the chunk form runs the same operators' numeric cores over
/// column lanes. Results are the same values, bit for bit, whichever form
/// and whichever loop asks.
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
    Column {
        idx: usize,
        ty: ColumnType,
    },
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

    /// Evaluates the expression against one row. Literal leaves and the
    /// cells of a [`Tuple`] come back borrowed; computed values are owned.
    pub fn eval<'a, R: Row>(&'a self, row: &'a R) -> DbResult<Cow<'a, Value>> {
        self.0.eval(row)
    }

    /// Evaluates a predicate, mapping NULL to `false` (standard SQL `WHERE`
    /// semantics: a row qualifies only when the predicate is definitely
    /// true).
    pub fn eval_predicate<R: Row>(&self, row: &R) -> DbResult<bool> {
        Ok(self.0.eval(row)?.as_bool().unwrap_or(false))
    }

    /// [`BoundExpr::eval_predicate`] for every row of `sel` at once: lane
    /// `i` of the result is the verdict for `sel.row(i)`. On failure the
    /// error is the row form's error for the first lane that fails.
    pub fn eval_predicate_chunk(&self, sel: &Selection<'_>) -> DbResult<Vec<bool>> {
        match self.0.truth(sel) {
            Ok(truth) => Ok(truth.vals),
            Err(Bail) => (0..sel.len())
                .map(|lane| self.eval_predicate(&sel.row(lane)))
                .collect(),
        }
    }

    /// The numeric value of the expression for every row of `sel` at once,
    /// the way an aggregate reads its argument: lane `i` gets
    /// `valid[i] = false` when the value is NULL, and otherwise `true` with
    /// [`Value::expect_f64`]`(ctx)` of the value in `vals[i]` — the same
    /// bits [`BoundExpr::eval`] would produce for `sel.row(i)` (a computed
    /// NaN aside, see the module docs). `vals` is unspecified on invalid
    /// lanes. On failure the error is the row form's error for the first
    /// lane that fails.
    ///
    /// `vals` and `valid` must be `sel.len()` long. A column read over a
    /// run of consecutive rows is a slice copy into `vals`; over any other
    /// selection, a gather.
    pub fn eval_f64_chunk(
        &self,
        sel: &Selection<'_>,
        ctx: impl std::fmt::Display,
        vals: &mut [f64],
        valid: &mut [bool],
    ) -> DbResult<()> {
        assert_eq!((vals.len(), valid.len()), (sel.len(), sel.len()));
        match self.0.num_into(sel, vals).map(|lanes| lanes.nulls) {
            Ok(None) => valid.fill(true),
            Ok(Some(nulls)) => {
                for (v, null) in valid.iter_mut().zip(nulls) {
                    *v = !null;
                }
            }
            Err(Bail) => {
                for lane in 0..sel.len() {
                    let row = sel.row(lane);
                    let value = self.eval(&row)?;
                    valid[lane] = !value.is_null();
                    if valid[lane] {
                        vals[lane] = value.expect_f64(&ctx)?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl Node {
    fn bind(expr: &Expr, schema: &Schema) -> DbResult<Node> {
        let boxed = |e: &Expr| Node::bind(e, schema).map(Box::new);
        Ok(match expr {
            Expr::Column(name) => {
                let idx = match schema.index_of(name) {
                    Some(i) => i,
                    None => schema.require(strip_qualifier(name))?,
                };
                Node::Column {
                    idx,
                    ty: schema.columns()[idx].ty,
                }
            }
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

    fn eval<'a, R: Row>(&'a self, tuple: &'a R) -> DbResult<Cow<'a, Value>> {
        Ok(Cow::Owned(match self {
            Node::Column { idx, .. } => return Ok(tuple.cell(*idx)),
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

/// The chunk form gave up on this chunk: a node no kernel covers failed in
/// the row form on some lane, or the expression's value is text. The entry
/// points re-run the whole chunk in the row form, lane by lane from the
/// first, which yields the values — or the first failing lane's error.
/// Kernels themselves never fail, and evaluating an operand on lanes a
/// short-circuit would have skipped can at worst send a chunk down that
/// slower, authoritative path.
struct Bail;

/// NULL flag per lane; `None` when no lane is NULL.
type Nulls = Option<Vec<bool>>;

fn null_at(nulls: &Nulls, lane: usize) -> bool {
    nulls.as_ref().is_some_and(|n| n[lane])
}

fn either_null(a: Nulls, b: Nulls) -> Nulls {
    match (a, b) {
        (None, n) | (n, None) => n,
        (Some(mut a), Some(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= y;
            }
            Some(a)
        }
    }
}

fn set_null(nulls: &mut Nulls, lanes: usize, lane: usize) {
    nulls.get_or_insert_with(|| vec![false; lanes])[lane] = true;
}

/// Numeric lanes: the `f64` view ([`Value::as_f64`]) of each lane's value.
/// `vals` is unspecified on NULL lanes.
struct Num {
    vals: Vec<f64>,
    of: NumLanes,
}

/// What numeric lanes are beside their `f64`s.
struct NumLanes {
    nulls: Nulls,
    /// The lanes whose value is a [`Value::Int`]; `None` when none is. The
    /// row form keeps `Int op Int` an `Int` while it is exactly
    /// representable, and an `Int` has no `-0`: these are the lanes where
    /// arithmetic must turn a `-0.0` result into `0.0`.
    ints: Option<Vec<bool>>,
}

impl NumLanes {
    /// Floats (or coerced booleans), NULL where flagged.
    fn floats(nulls: Nulls) -> NumLanes {
        NumLanes { nulls, ints: None }
    }
}

/// Truth-value lanes under three-valued logic. `vals[i]` is false on every
/// NULL lane, so `vals` alone is the `WHERE` verdict.
struct Truth {
    vals: Vec<bool>,
    nulls: Nulls,
}

impl Truth {
    /// Forces `vals` false on NULL lanes.
    fn new(mut vals: Vec<bool>, nulls: Nulls) -> Truth {
        if let Some(nulls) = &nulls {
            for (v, null) in vals.iter_mut().zip(nulls) {
                *v &= !null;
            }
        }
        Truth { vals, nulls }
    }

    /// `l <test> r` per lane, NULL where either side is
    /// ([`Value::sql_eq`] / [`Value::sql_cmp`] on numbers).
    fn compare(l: &Num, r: &Num, test: impl Fn(f64, f64) -> bool) -> Truth {
        let vals = l.vals.iter().zip(&r.vals).map(|(&a, &b)| test(a, b));
        Truth::new(
            vals.collect(),
            either_null(l.of.nulls.clone(), r.of.nulls.clone()),
        )
    }

    /// [`three_valued_and`]: a definite false on either side beats NULL.
    fn and(mut self, r: Truth) -> Truth {
        let nulls = (self.nulls.is_some() || r.nulls.is_some()).then(|| {
            (0..self.vals.len())
                .map(|i| {
                    let (l_null, r_null) = (null_at(&self.nulls, i), null_at(&r.nulls, i));
                    let l_false = !l_null && !self.vals[i];
                    let r_false = !r_null && !r.vals[i];
                    (l_null || r_null) && !l_false && !r_false
                })
                .collect()
        });
        for (a, b) in self.vals.iter_mut().zip(&r.vals) {
            *a &= *b;
        }
        Truth {
            vals: self.vals,
            nulls,
        }
    }

    /// [`three_valued_or`]: a definite true on either side beats NULL.
    fn or(mut self, r: Truth) -> Truth {
        for (a, b) in self.vals.iter_mut().zip(&r.vals) {
            *a |= *b;
        }
        let nulls = (self.nulls.is_some() || r.nulls.is_some()).then(|| {
            (0..self.vals.len())
                .map(|i| (null_at(&self.nulls, i) || null_at(&r.nulls, i)) && !self.vals[i])
                .collect()
        });
        Truth {
            vals: self.vals,
            nulls,
        }
    }

    /// `NOT`: NULL stays NULL.
    fn not(self) -> Truth {
        Truth::new(self.vals.into_iter().map(|v| !v).collect(), self.nulls)
    }
}

/// What a node's value can be, known from the bound tree alone. Every
/// interior node is `Num` (arithmetic, negation: a number or NULL) or
/// `Truth` (everything else: a boolean or NULL); only leaves can be text or
/// the NULL literal.
#[derive(PartialEq)]
enum Kind {
    Num,
    Truth,
    Text,
    Null,
}

/// The chunk form: typed lanes straight from the column vectors.
impl Node {
    fn kind(&self) -> Kind {
        match self {
            Node::Column { ty, .. } => match ty {
                ColumnType::Int | ColumnType::Float => Kind::Num,
                ColumnType::Bool => Kind::Truth,
                ColumnType::Text => Kind::Text,
            },
            Node::Literal(v) => match v {
                Value::Null => Kind::Null,
                Value::Bool(_) => Kind::Truth,
                Value::Int(_) | Value::Float(_) => Kind::Num,
                Value::Text(_) => Kind::Text,
            },
            Node::Binary { op, .. } if op.is_arithmetic() => Kind::Num,
            Node::Unary {
                op: UnaryOp::Neg, ..
            } => Kind::Num,
            _ => Kind::Truth,
        }
    }

    /// A number or NULL: what comparisons and negation take without a type
    /// question.
    fn is_number(&self) -> bool {
        matches!(self.kind(), Kind::Num | Kind::Null)
    }

    /// Anything but text: arithmetic coerces booleans to 0/1 and the logical
    /// operators read numbers as `!= 0`, so neither can fail on it.
    fn is_scalar(&self) -> bool {
        self.kind() != Kind::Text
    }

    fn num(&self, sel: &Selection<'_>) -> Result<Num, Bail> {
        let mut vals = vec![0.0; sel.len()];
        let of = self.num_into(sel, &mut vals)?;
        Ok(Num { vals, of })
    }

    /// Writes the `f64` view of every lane into `out` and returns which
    /// lanes are NULL and which are integers.
    fn num_into(&self, sel: &Selection<'_>, out: &mut [f64]) -> Result<NumLanes, Bail> {
        match self {
            Node::Column { idx, ty } if *ty != ColumnType::Bool => {
                let column = sel.table().column(*idx).ok_or(Bail)?;
                let ints = match column.data() {
                    ColumnData::Float(v) => {
                        sel.read(v, out, |x| x);
                        None
                    }
                    ColumnData::Int(v) => {
                        sel.read(v, out, |x| x as f64);
                        Some(vec![true; out.len()])
                    }
                    // Text, or a table whose columns are not the bound
                    // schema's: the row form reads what is there.
                    _ => return Err(Bail),
                };
                Ok(NumLanes {
                    nulls: sel.nulls(column),
                    ints,
                })
            }
            Node::Literal(Value::Int(i)) => {
                out.fill(*i as f64);
                Ok(NumLanes {
                    nulls: None,
                    ints: Some(vec![true; out.len()]),
                })
            }
            Node::Literal(Value::Float(f)) => {
                out.fill(*f);
                Ok(NumLanes::floats(None))
            }
            Node::Literal(Value::Null) => Ok(NumLanes::floats(Some(vec![true; out.len()]))),
            Node::Binary { op, lhs, rhs }
                if op.is_arithmetic() && lhs.is_scalar() && rhs.is_scalar() =>
            {
                let l = lhs.num_into(sel, out)?;
                let r = rhs.num(sel)?;
                let mut nulls = either_null(l.nulls, r.of.nulls);
                let lanes = out.iter_mut().zip(&r.vals);
                match op {
                    BinaryOp::Add => lanes.for_each(|(a, b)| *a += b),
                    BinaryOp::Sub => lanes.for_each(|(a, b)| *a -= b),
                    BinaryOp::Mul => lanes.for_each(|(a, b)| *a *= b),
                    _ => {
                        for (lane, (a, b)) in lanes.enumerate() {
                            match num_div(*a, *b) {
                                Some(q) => *a = q,
                                None => set_null(&mut nulls, r.vals.len(), lane),
                            }
                        }
                        // A quotient is a `Float` whatever was divided.
                        return Ok(NumLanes::floats(nulls));
                    }
                }
                // `Int op Int` stays an `Int` while exactly representable.
                let ints = l.ints.zip(r.of.ints).map(|(mut ints, r_ints)| {
                    for ((int, r_int), a) in ints.iter_mut().zip(r_ints).zip(out.iter_mut()) {
                        match int_result(*a) {
                            Some(i) if *int && r_int => *a = i as f64,
                            _ => *int = false,
                        }
                    }
                    ints
                });
                Ok(NumLanes { nulls, ints })
            }
            Node::Unary {
                op: UnaryOp::Neg,
                expr,
            } if expr.is_number() => {
                let lanes = expr.num_into(sel, out)?;
                match &lanes.ints {
                    None => out.iter_mut().for_each(|x| *x = -*x),
                    Some(ints) => {
                        for (x, &int) in out.iter_mut().zip(ints) {
                            // The one `Int` whose negation is none; its
                            // `f64` is shared with its neighbours, so only
                            // the row form knows which it was.
                            if int && *x == i64::MIN as f64 {
                                return Err(Bail);
                            }
                            // An `Int` has no `-0`.
                            *x = if int { 0.0 - *x } else { -*x };
                        }
                    }
                }
                Ok(lanes)
            }
            _ => match self.kind() {
                Kind::Truth => {
                    let truth = self.truth(sel)?;
                    for (o, v) in out.iter_mut().zip(truth.vals) {
                        *o = if v { 1.0 } else { 0.0 };
                    }
                    Ok(NumLanes::floats(truth.nulls))
                }
                Kind::Num => self.num_by_row(sel, out),
                Kind::Text | Kind::Null => Err(Bail),
            },
        }
    }

    /// A numeric node no kernel covers (a text or boolean operand where a
    /// number is due): the row form, one lane at a time.
    fn num_by_row(&self, sel: &Selection<'_>, out: &mut [f64]) -> Result<NumLanes, Bail> {
        let mut nulls = None;
        let mut ints = vec![false; out.len()];
        for (lane, (o, int)) in out.iter_mut().zip(&mut ints).enumerate() {
            let row = sel.row(lane);
            let value = self.eval(&row).map_err(|_| Bail)?;
            *int = matches!(*value, Value::Int(_));
            match value.as_f64() {
                Some(x) => *o = x,
                None if value.is_null() => set_null(&mut nulls, sel.len(), lane),
                None => return Err(Bail),
            }
        }
        Ok(NumLanes {
            nulls,
            ints: Some(ints),
        })
    }

    /// The truth value of every lane ([`Value::as_bool`], NULL kept apart).
    fn truth(&self, sel: &Selection<'_>) -> Result<Truth, Bail> {
        use BinaryOp::*;
        let n = sel.len();
        match self {
            Node::Column {
                idx,
                ty: ColumnType::Bool,
            } => {
                let column = sel.table().column(*idx).ok_or(Bail)?;
                let ColumnData::Bool(v) = column.data() else {
                    return Err(Bail);
                };
                let mut vals = vec![false; n];
                sel.read(v, &mut vals, |b| b);
                Ok(Truth::new(vals, sel.nulls(column)))
            }
            Node::Literal(Value::Bool(b)) => Ok(Truth {
                vals: vec![*b; n],
                nulls: None,
            }),
            Node::Binary {
                op: op @ (And | Or),
                lhs,
                rhs,
            } if lhs.is_scalar() && rhs.is_scalar() => {
                let (l, r) = (lhs.truth(sel)?, rhs.truth(sel)?);
                Ok(if *op == And { l.and(r) } else { l.or(r) })
            }
            Node::Binary { op, lhs, rhs }
                if op.is_comparison() && lhs.is_number() && rhs.is_number() =>
            {
                let (l, r) = (lhs.num(sel)?, rhs.num(sel)?);
                Ok(match op {
                    Eq => Truth::compare(&l, &r, num_eq),
                    NotEq => Truth::compare(&l, &r, |a, b| !num_eq(a, b)),
                    Lt => Truth::compare(&l, &r, |a, b| num_cmp(a, b).is_lt()),
                    LtEq => Truth::compare(&l, &r, |a, b| num_cmp(a, b).is_le()),
                    Gt => Truth::compare(&l, &r, |a, b| num_cmp(a, b).is_gt()),
                    _ => Truth::compare(&l, &r, |a, b| num_cmp(a, b).is_ge()),
                })
            }
            Node::Binary {
                op: op @ (Eq | NotEq),
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                // Text against a literal: one dictionary probe, then a code
                // compare per lane.
                (
                    Node::Column {
                        idx,
                        ty: ColumnType::Text,
                    },
                    Node::Literal(Value::Text(s)),
                )
                | (
                    Node::Literal(Value::Text(s)),
                    Node::Column {
                        idx,
                        ty: ColumnType::Text,
                    },
                ) => {
                    let text = TextColumn::of(sel, *idx)?;
                    let code = text.code_of(s);
                    Ok(text.test(sel, |c| (Some(c) == code) == (*op == Eq)))
                }
                _ => self.truth_by_row(sel),
            },
            Node::Unary {
                op: UnaryOp::Not,
                expr,
            } if expr.is_scalar() => Ok(expr.truth(sel)?.not()),
            Node::Between {
                expr,
                low,
                high,
                negated,
            } if expr.is_number() && low.is_number() && high.is_number() => {
                let v = expr.num(sel)?;
                let ge = Truth::compare(&v, &low.num(sel)?, |a, b| num_cmp(a, b).is_ge());
                let le = Truth::compare(&v, &high.num(sel)?, |a, b| num_cmp(a, b).is_le());
                let both = ge.and(le);
                Ok(if *negated { both.not() } else { both })
            }
            Node::InList {
                expr,
                list,
                negated,
            } => match &**expr {
                Node::Column {
                    idx,
                    ty: ColumnType::Text,
                } if list.iter().all(|e| matches!(e, Node::Literal(_))) => {
                    let text = TextColumn::of(sel, *idx)?;
                    // A literal that is not text never equals a text cell;
                    // a NULL one turns every miss into NULL.
                    let mut wanted = Vec::new();
                    let mut null_item = false;
                    for item in list {
                        match item {
                            Node::Literal(Value::Text(s)) => wanted.extend(text.code_of(s)),
                            Node::Literal(Value::Null) => null_item = true,
                            _ => {}
                        }
                    }
                    let hits = text.test(sel, |c| wanted.contains(&c));
                    let nulls = if null_item {
                        Some((0..n).map(|i| !hits.vals[i]).collect())
                    } else {
                        hits.nulls.clone()
                    };
                    let vals = (0..n)
                        .map(|i| hits.vals[i] != *negated && !null_at(&hits.nulls, i))
                        .collect();
                    Ok(Truth::new(vals, nulls))
                }
                _ => self.truth_by_row(sel),
            },
            Node::IsNull { expr, negated } => {
                let nulls = match &**expr {
                    Node::Column { idx, .. } => sel.nulls(sel.table().column(*idx).ok_or(Bail)?),
                    Node::Literal(v) => v.is_null().then(|| vec![true; n]),
                    e if e.kind() == Kind::Num => e.num(sel)?.of.nulls,
                    e => e.truth(sel)?.nulls,
                };
                Ok(Truth {
                    vals: (0..n).map(|i| null_at(&nulls, i) != *negated).collect(),
                    nulls: None,
                })
            }
            _ => match self.kind() {
                // A number read as a truth value: `!= 0`.
                Kind::Num | Kind::Null => {
                    let Num { vals, of } = self.num(sel)?;
                    Ok(Truth::new(
                        vals.into_iter().map(|x| x != 0.0).collect(),
                        of.nulls,
                    ))
                }
                Kind::Truth => self.truth_by_row(sel),
                Kind::Text => Err(Bail),
            },
        }
    }

    /// A truth-valued node no kernel covers (`LIKE`, a comparison across
    /// types, a text operand of a logical operator): the row form, one lane
    /// at a time.
    fn truth_by_row(&self, sel: &Selection<'_>) -> Result<Truth, Bail> {
        let mut vals = vec![false; sel.len()];
        let mut nulls = None;
        for (lane, v) in vals.iter_mut().enumerate() {
            let row = sel.row(lane);
            match &*self.eval(&row).map_err(|_| Bail)? {
                Value::Bool(b) => *v = *b,
                Value::Null => set_null(&mut nulls, sel.len(), lane),
                _ => return Err(Bail),
            }
        }
        Ok(Truth { vals, nulls })
    }
}

/// A text column as the kernels see it: dictionary codes.
struct TextColumn<'t> {
    column: &'t ColumnVec,
    codes: &'t [u32],
    dict: &'t crate::column::Dictionary,
}

impl<'t> TextColumn<'t> {
    fn of(sel: &Selection<'t>, idx: usize) -> Result<Self, Bail> {
        let column = sel.table().column(idx).ok_or(Bail)?;
        match column.data() {
            ColumnData::Text { codes, dict } => Ok(TextColumn {
                column,
                codes,
                dict,
            }),
            _ => Err(Bail),
        }
    }

    fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.code_of(s)
    }

    /// `test(code)` per lane, NULL where the cell is.
    fn test(&self, sel: &Selection<'_>, test: impl Fn(u32) -> bool) -> Truth {
        let mut vals = vec![false; sel.len()];
        sel.read(self.codes, &mut vals, test);
        Truth::new(vals, sel.nulls(self.column))
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
    use crate::tuple::TupleId;

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

    fn recipes() -> crate::Table {
        let mut t = crate::Table::new("recipes", schema());
        t.insert(tuple!("oatmeal", 320.0, 12.5, "free")).unwrap();
        t.insert(tuple!("pasta", 640.0, 20.0, "full")).unwrap();
        t.insert(Tuple::new(vec![
            Value::Text("water".into()),
            Value::Null,
            Value::Float(0.0),
            Value::Null,
        ]))
        .unwrap();
        t.insert(tuple!("salad", 210.0, 6.0, "free")).unwrap();
        t
    }

    #[test]
    fn chunk_form_agrees_with_the_row_form_over_runs_and_gathers() {
        let t = recipes();
        let in_list = Expr::InList {
            expr: Box::new(Expr::col("gluten")),
            list: vec![Expr::lit("full"), Expr::lit("vegan"), Expr::lit(3)],
            negated: true,
        };
        let exprs = [
            Expr::col("R.gluten").eq(Expr::lit("free")),
            // Not in the dictionary: equal to nothing, unequal to all.
            Expr::binary(BinaryOp::NotEq, Expr::lit("vegan"), Expr::col("gluten")),
            in_list,
            Expr::binary(BinaryOp::Mul, Expr::col("protein"), Expr::lit(2)).gt_eq(Expr::lit(24)),
            Expr::col("calories")
                .between(Expr::lit(300), Expr::lit(700))
                .or(Expr::col("gluten").eq(Expr::lit("free"))),
            Expr::binary(BinaryOp::Div, Expr::col("calories"), Expr::col("protein")),
            Expr::Like {
                expr: Box::new(Expr::col("name")),
                pattern: "%a%a%".into(),
                negated: false,
            },
        ];
        let run = [TupleId(1), TupleId(2), TupleId(3)];
        let gather = [TupleId(3), TupleId(0), TupleId(3), TupleId(2)];
        for expr in &exprs {
            let bound = BoundExpr::bind(expr, t.schema()).unwrap();
            for ids in [&run[..], &gather[..], &[][..]] {
                let sel = t.select(ids).unwrap();
                let rows: Vec<Value> = (0..ids.len())
                    .map(|lane| bound.eval(&sel.row(lane)).unwrap().into_owned())
                    .collect();
                let verdicts: Vec<bool> =
                    rows.iter().map(|v| v.as_bool().unwrap_or(false)).collect();
                assert_eq!(
                    bound.eval_predicate_chunk(&sel).unwrap(),
                    verdicts,
                    "{expr}"
                );
                let mut vals = vec![f64::NAN; ids.len()];
                let mut valid = vec![false; ids.len()];
                bound
                    .eval_f64_chunk(&sel, "a test", &mut vals, &mut valid)
                    .unwrap();
                for ((row, x), ok) in rows.iter().zip(vals).zip(valid) {
                    assert_eq!(ok, !row.is_null(), "{expr}");
                    if ok {
                        assert_eq!(x.to_bits(), row.as_f64().unwrap().to_bits(), "{expr}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_chunk_reports_its_first_failing_lane() {
        let t = recipes();
        // Fails wherever `gluten` is not NULL, naming the value it met.
        let negated_text = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::col("gluten")),
        };
        let expr = Expr::col("calories")
            .gt_eq(Expr::lit(0))
            .and(negated_text.gt_eq(Expr::lit(1)));
        let bound = BoundExpr::bind(&expr, t.schema()).unwrap();
        // Row 2 has a NULL `gluten` (no failure), row 1 fails before row 0.
        let ids = [TupleId(2), TupleId(1), TupleId(0)];
        let sel = t.select(&ids).unwrap();
        let want = bound.eval_predicate(&sel.row(1)).unwrap_err();
        assert_eq!(want, DbError::TypeError("cannot negate full".into()));
        assert_eq!(bound.eval_predicate_chunk(&sel), Err(want.clone()));
        let (mut vals, mut valid) = ([0.0; 3], [false; 3]);
        assert_eq!(
            bound.eval_f64_chunk(&sel, "a test", &mut vals, &mut valid),
            Err(want)
        );
        // A text-valued argument is an error of the numeric form only, and
        // only on a lane that is not NULL.
        let name = BoundExpr::bind(&Expr::col("gluten"), t.schema()).unwrap();
        assert_eq!(name.eval_predicate_chunk(&sel), Ok(vec![false; 3]));
        assert_eq!(
            name.eval_f64_chunk(&sel, "argument of SUM", &mut vals, &mut valid),
            Err(DbError::TypeError(
                "expected a numeric value in argument of SUM, got full".into()
            ))
        );
        let null_only = t.select(&ids[..1]).unwrap();
        name.eval_f64_chunk(
            &null_only,
            "argument of SUM",
            &mut vals[..1],
            &mut valid[..1],
        )
        .unwrap();
        assert!(!valid[0]);
    }

    #[test]
    fn qualifier_stripping() {
        assert_eq!(strip_qualifier("R.calories"), "calories");
        assert_eq!(strip_qualifier("calories"), "calories");
        assert_eq!(strip_qualifier("a.b.c"), "c");
    }
}
