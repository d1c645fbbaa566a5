//! Dynamically typed values stored in tuples.

use std::cmp::Ordering;
use std::fmt;

use crate::error::DbError;
use crate::DbResult;

/// A single cell value.
///
/// `Value` is intentionally small: the PackageBuilder workloads (recipes,
/// flights, hotels, stocks) only need numbers, strings, booleans and NULL.
/// Numeric values keep their integer/float distinction for display purposes
/// but compare and aggregate through [`Value::as_f64`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Returns `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` for `Int` and `Float` values.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Numeric view of the value, if it has one.
    ///
    /// Booleans coerce to 0/1 the way most SQL dialects do when a numeric
    /// context demands it; strings and NULL do not coerce.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Numeric view or an error mentioning `ctx` — which is only formatted
    /// on the error path, so per-cell callers can pass `format_args!`.
    pub fn expect_f64(&self, ctx: impl fmt::Display) -> DbResult<f64> {
        self.as_f64().ok_or_else(|| {
            DbError::TypeError(format!("expected a numeric value in {ctx}, got {self}"))
        })
    }

    /// Boolean view of the value, if it has one. SQL three-valued logic is
    /// handled by the evaluator; here NULL simply maps to `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            _ => None,
        }
    }

    /// String view of the value, if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (floats are accepted when they are integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// Total ordering across values.
    ///
    /// NULL sorts first, then booleans, then numbers (by numeric value, so
    /// `Int(2) == Float(2.0)`), then text. Float NaNs sort last among
    /// numbers, mirroring `f64::total_cmp` semantics closely enough for
    /// deterministic sorts.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let x = a.as_f64().unwrap_or(f64::NAN);
                let y = b.as_f64().unwrap_or(f64::NAN);
                x.total_cmp(&y)
            }
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL-style equality: NULL is never equal to anything (including NULL).
    /// Returns `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (a, b) => match (a.numeric(), b.numeric()) {
                (Some(x), Some(y)) => num_eq(x, y),
                _ => false,
            },
        })
    }

    /// SQL-style comparison: `None` when either side is NULL or the values
    /// are not comparable (e.g. text vs number). Numeric comparison is
    /// total: a NaN (which a computed expression can produce even though
    /// loaders never store one) orders after every real number and equal to
    /// itself, instead of silently turning the comparison into `None` and
    /// making predicates NaN-sensitive.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => Some(num_cmp(a.numeric()?, b.numeric()?)),
        }
    }

    /// The `f64` of an `Int` or `Float` — unlike [`Value::as_f64`], booleans
    /// do not count: comparisons only treat numbers as numbers.
    fn numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Arithmetic addition with numeric coercion.
    pub fn add(&self, other: &Value) -> DbResult<Value> {
        numeric_binop(self, other, "+", |a, b| a + b)
    }

    /// Arithmetic subtraction with numeric coercion.
    pub fn sub(&self, other: &Value) -> DbResult<Value> {
        numeric_binop(self, other, "-", |a, b| a - b)
    }

    /// Arithmetic multiplication with numeric coercion.
    pub fn mul(&self, other: &Value) -> DbResult<Value> {
        numeric_binop(self, other, "*", |a, b| a * b)
    }

    /// Arithmetic division with numeric coercion. Division by zero yields
    /// NULL, mirroring the permissive behaviour of the demo system.
    pub fn div(&self, other: &Value) -> DbResult<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let a = self.expect_f64("division")?;
        let b = other.expect_f64("division")?;
        Ok(num_div(a, b).map_or(Value::Null, Value::Float))
    }

    /// Unary negation. An `Int` stays an `Int` unless its negation does not
    /// fit (`i64::MIN`), which becomes the `Float` of the same number.
    pub fn neg(&self) -> DbResult<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(i
                .checked_neg()
                .map_or(Value::Float(-(*i as f64)), Value::Int)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(DbError::TypeError(format!("cannot negate {other}"))),
        }
    }
}

/// Numeric SQL equality on the `f64` views — the one definition behind
/// [`Value::sql_eq`] and the column kernels of [`crate::eval`]. Kept in this
/// exact form: `inf = inf` and `NaN = NaN` are false under it, `-0.0 = 0.0`
/// true.
#[inline]
pub(crate) fn num_eq(a: f64, b: f64) -> bool {
    (a - b).abs() == 0.0
}

/// Numeric SQL ordering on the `f64` views, total over NaN (see
/// [`Value::sql_cmp`]); shared with the column kernels like [`num_eq`].
#[inline]
pub(crate) fn num_cmp(x: f64, y: f64) -> Ordering {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // Plain IEEE compare keeps `-0.0 == 0.0` (which `total_cmp` would
        // break for SQL equality).
        (false, false) => {
            if x < y {
                Ordering::Less
            } else if x > y {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
    }
}

/// `a / b`, or `None` (SQL NULL) when `b` is zero of either sign.
#[inline]
pub(crate) fn num_div(a: f64, b: f64) -> Option<f64> {
    (b != 0.0).then(|| a / b)
}

fn numeric_binop(a: &Value, b: &Value, op: &str, f: impl Fn(f64, f64) -> f64) -> DbResult<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let x = a.expect_f64(format_args!("operator '{op}'"))?;
    let y = b.expect_f64(format_args!("operator '{op}'"))?;
    let r = f(x, y);
    let both_int = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
    Ok(match int_result(r) {
        Some(i) if both_int => Value::Int(i),
        _ => Value::Float(r),
    })
}

/// The integer an arithmetic result over two `Int`s stays: integer-ness is
/// preserved when the result is exactly representable. Shared with the
/// column kernels — the one place an `Int` result differs from its `f64`
/// (a `-0.0` becomes `0`).
#[inline]
pub(crate) fn int_result(r: f64) -> Option<i64> {
    (r.fract() == 0.0 && r.abs() < 2f64.powi(53)).then_some(r as i64)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_between_int_and_float() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(
            Value::Int(3).add(&Value::Float(0.5)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(Value::Int(3).add(&Value::Int(4)).unwrap(), Value::Int(7));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Int(1).div(&Value::Int(0)).unwrap().is_null());
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(
            Value::Text("a".into()).sql_eq(&Value::Text("b".into())),
            Some(false)
        );
    }

    #[test]
    fn sql_cmp_rejects_mixed_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("1".into())), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_ordering_is_deterministic() {
        let mut vals = vec![
            Value::Text("zebra".into()),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(10),
                Value::Text("zebra".into()),
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
    }

    #[test]
    fn string_negation_is_an_error() {
        assert!(Value::Text("x".into()).neg().is_err());
    }

    #[test]
    fn as_i64_accepts_integral_floats_only() {
        assert_eq!(Value::Float(4.0).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
    }

    #[test]
    fn sql_cmp_is_total_over_nan() {
        let nan = Value::Float(f64::NAN);
        // NaN orders after every real number, equal to itself — the
        // comparison stays `Some` so predicates and ORDER BY never lose a
        // row to an undefined comparison.
        assert_eq!(nan.sql_cmp(&Value::Float(1.0)), Some(Ordering::Greater));
        assert_eq!(Value::Float(1.0).sql_cmp(&nan), Some(Ordering::Less));
        assert_eq!(nan.sql_cmp(&Value::Int(i64::MAX)), Some(Ordering::Greater));
        assert_eq!(nan.sql_cmp(&nan), Some(Ordering::Equal));
        // IEEE semantics are preserved for real numbers: -0.0 == 0.0.
        assert_eq!(
            Value::Float(-0.0).sql_cmp(&Value::Float(0.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(nan.sql_cmp(&Value::Null), None);
    }
}
