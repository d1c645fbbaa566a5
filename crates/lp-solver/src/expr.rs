//! Linear expressions over decision variables.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use crate::problem::VarId;

/// A linear expression `Σ cᵢ·xᵢ + constant`.
///
/// Terms are kept in a `Vec` sorted by variable, so repeated additions of the
/// same variable merge, and iteration order (hence the built constraint
/// matrix) is deterministic. Adding variables in ascending order — the way a
/// translator emits one row over candidates `0..n` — appends in `O(1)` with
/// no per-term allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)`, strictly ascending by variable, no zero
    /// coefficients.
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `coeff · var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = LinExpr::new();
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff · var` to the expression. A coefficient that sums to zero
    /// drops the variable.
    pub fn add_term(&mut self, var: VarId, coeff: f64) {
        let at = match self.terms.last() {
            // Fast path: a variable past every stored one.
            Some(&(last, _)) if last < var => Err(self.terms.len()),
            None => Err(0),
            Some(_) => self.terms.binary_search_by_key(&var, |&(v, _)| v),
        };
        match at {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1 == 0.0 {
                    self.terms.remove(i);
                }
            }
            Err(i) if coeff != 0.0 => self.terms.insert(i, (var, coeff)),
            Err(_) => {}
        }
    }

    /// Adds a constant.
    pub fn add_constant(&mut self, c: f64) {
        self.constant += c;
    }

    /// The constant part.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Coefficient of `var` (0.0 when absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms
            .binary_search_by_key(&var, |&(v, _)| v)
            .map_or(0.0, |i| self.terms[i].1)
    }

    /// Iterator over `(variable, coefficient)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of variables with non-zero coefficients.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression given a value for every variable
    /// (`values[var.index()]`).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&mut self, k: f64) {
        for (_, c) in self.terms.iter_mut() {
            *c *= k;
        }
        self.constant *= k;
        self.terms.retain(|&(_, c)| c != 0.0);
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        self.scale(k);
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self.terms.iter().map(|(v, c)| format!("{c}·{v}")).collect();
        if self.constant != 0.0 || parts.is_empty() {
            parts.push(format!("{}", self.constant));
        }
        write!(f, "{}", parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn repeated_terms_merge_and_cancel() {
        let mut e = LinExpr::term(v(0), 2.0);
        e.add_term(v(0), 3.0);
        assert_eq!(e.coeff(v(0)), 5.0);
        e.add_term(v(0), -5.0);
        assert!(e.is_empty());
    }

    #[test]
    fn terms_stay_sorted_whatever_the_insertion_order() {
        let mut e = LinExpr::new();
        for i in [4usize, 1, 7, 3, 1, 9, 0] {
            e.add_term(v(i), 1.0 + i as f64);
        }
        e.add_term(v(5), 0.0); // a zero coefficient never lands
        e.add_term(v(3), -4.0); // …and a cancelled one leaves
        let terms: Vec<_> = e.terms().map(|(var, c)| (var.index(), c)).collect();
        assert_eq!(
            terms,
            vec![(0, 1.0), (1, 4.0), (4, 5.0), (7, 8.0), (9, 10.0)]
        );
        assert_eq!(e.coeff(v(7)), 8.0);
        assert_eq!(e.coeff(v(3)), 0.0);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn arithmetic_operators() {
        let e = LinExpr::term(v(0), 1.0) + LinExpr::term(v(1), 2.0) - LinExpr::constant(3.0);
        assert_eq!(e.coeff(v(1)), 2.0);
        assert_eq!(e.constant_part(), -3.0);
        let scaled = e * 2.0;
        assert_eq!(scaled.coeff(v(0)), 2.0);
        assert_eq!(scaled.constant_part(), -6.0);
    }

    #[test]
    fn eval_uses_positional_values() {
        let e = LinExpr::term(v(0), 2.0) + LinExpr::term(v(2), 1.0) + LinExpr::constant(1.0);
        assert_eq!(e.eval(&[1.0, 99.0, 3.0]), 2.0 + 3.0 + 1.0);
    }

    #[test]
    fn display_lists_terms() {
        let e = LinExpr::term(v(0), 2.0) + LinExpr::constant(1.0);
        assert_eq!(e.to_string(), "2·x0 + 1");
        assert_eq!(LinExpr::new().to_string(), "0");
    }
}
