//! Problem definition: variables, constraints and the objective.

use std::fmt;

use crate::error::LpError;
use crate::expr::LinExpr;
use crate::LpResult;

/// Index of a decision variable within its [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Creates a variable id from a raw index. Only useful in tests and in
    /// code that already knows the problem layout (e.g. the ILP translator,
    /// which maps tuple `i` to variable `i`).
    pub fn new(index: usize) -> Self {
        VarId(index)
    }

    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The domain of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Real-valued.
    Continuous,
    /// Integer-valued.
    Integer,
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name (used in diagnostics). Empty for variables added
    /// through [`Problem::add_unnamed_var`]; [`Problem::var_name`] then
    /// supplies `x{index}`.
    pub name: String,
    /// Continuous or integer.
    pub ty: VarType,
    /// Lower bound (may be `-inf`).
    pub lb: f64,
    /// Upper bound (may be `+inf`).
    pub ub: f64,
}

/// Direction of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl ConstraintOp {
    /// Symbolic form.
    pub fn symbol(&self) -> &'static str {
        match self {
            ConstraintOp::Le => "<=",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Eq => "=",
        }
    }
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Name for diagnostics.
    pub name: String,
    /// Left-hand side (its constant part is folded into `rhs` when added).
    pub expr: LinExpr,
    /// Direction.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Whether `values` satisfies the constraint within `tol`.
    pub fn satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(values);
        match self.op {
            ConstraintOp::Le => lhs <= self.rhs + tol,
            ConstraintOp::Ge => lhs >= self.rhs - tol,
            ConstraintOp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// A linear (mixed-integer) optimization problem.
#[derive(Debug, Clone)]
pub struct Problem {
    sense: Sense,
    variables: Vec<Variable>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            variables: Vec::new(),
            objective: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable and returns its id.
    pub fn add_var(&mut self, name: impl Into<String>, ty: VarType, lb: f64, ub: f64) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            ty,
            lb,
            ub,
        });
        self.objective.push(0.0);
        id
    }

    /// Adds a variable without a name of its own: no string is built until a
    /// diagnostic asks for one through [`Problem::var_name`]. Translators
    /// that emit one variable per candidate tuple use this.
    pub fn add_unnamed_var(&mut self, ty: VarType, lb: f64, ub: f64) -> VarId {
        self.add_var(String::new(), ty, lb, ub)
    }

    /// The name diagnostics print for a variable: its own, or `x{index}`
    /// when it was added unnamed.
    pub fn var_name(&self, var: VarId) -> String {
        match self.variables.get(var.index()) {
            Some(v) if !v.name.is_empty() => v.name.clone(),
            _ => var.to_string(),
        }
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarType::Integer, 0.0, 1.0)
    }

    /// Sets the objective coefficient of a variable.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.objective[var.index()] = coeff;
    }

    /// Objective coefficient of a variable.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.objective[var.index()]
    }

    /// Objective coefficients for all variables, by index.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Adds a constraint from a linear expression. The expression's constant
    /// part is moved to the right-hand side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        op: ConstraintOp,
        rhs: f64,
    ) {
        let constant = expr.constant_part();
        let mut expr = expr;
        expr.add_constant(-constant);
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            op,
            rhs: rhs - constant,
        });
    }

    /// Adds a constraint from explicit `(variable, coefficient)` terms.
    pub fn add_constraint_terms(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        op: ConstraintOp,
        rhs: f64,
    ) {
        let mut e = LinExpr::new();
        for (v, c) in terms {
            e.add_term(*v, *c);
        }
        self.add_constraint(name, e, op, rhs);
    }

    /// Removes the most recently added constraint (used to retract no-good
    /// cuts between incremental solves).
    pub fn pop_constraint(&mut self) -> Option<Constraint> {
        self.constraints.pop()
    }

    /// The variables, by index.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// A variable by id.
    pub fn variable(&self, var: VarId) -> LpResult<&Variable> {
        self.variables
            .get(var.index())
            .ok_or(LpError::UnknownVariable(var.index()))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True when at least one variable is integer.
    pub fn has_integer_vars(&self) -> bool {
        self.variables.iter().any(|v| v.ty == VarType::Integer)
    }

    /// Ids of all integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.ty == VarType::Integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Validates bounds and constraint references.
    pub fn validate(&self) -> LpResult<()> {
        for (i, v) in self.variables.iter().enumerate() {
            if v.lb > v.ub {
                return Err(LpError::InvalidProblem(format!(
                    "variable '{}' (x{i}) has lb {} > ub {}",
                    self.var_name(VarId(i)),
                    v.lb,
                    v.ub
                )));
            }
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(LpError::InvalidProblem(format!(
                    "variable '{}' (x{i}) has NaN bounds",
                    self.var_name(VarId(i))
                )));
            }
            if !self.objective[i].is_finite() {
                return Err(LpError::InvalidProblem(format!(
                    "variable '{}' (x{i}) has a non-finite objective coefficient",
                    self.var_name(VarId(i))
                )));
            }
        }
        for c in &self.constraints {
            for (v, coeff) in c.expr.terms() {
                if v.index() >= self.variables.len() {
                    return Err(LpError::UnknownVariable(v.index()));
                }
                if !coeff.is_finite() {
                    return Err(LpError::InvalidProblem(format!(
                        "constraint '{}' has a non-finite coefficient",
                        c.name
                    )));
                }
            }
            if !c.rhs.is_finite() {
                return Err(LpError::InvalidProblem(format!(
                    "constraint '{}' has a non-finite right-hand side",
                    c.name
                )));
            }
        }
        Ok(())
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.iter().zip(values).map(|(c, x)| c * x).sum()
    }

    /// Whether `values` satisfies every constraint and variable bound.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() < self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            if values[i] < v.lb - tol || values[i] > v.ub + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.satisfied(values, tol))
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} variables, {} constraints",
            match self.sense {
                Sense::Maximize => "maximize:",
                Sense::Minimize => "minimize:",
            },
            self.num_vars(),
            self.num_constraints()
        )?;
        for c in &self.constraints {
            writeln!(f, "  {}: {} {} {}", c.name, c.expr, c.op.symbol(), c.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 1.0);
        let y = p.add_binary("y");
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("c1", &[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 2.0);
        assert!(p.validate().is_ok());
        assert_eq!(p.num_vars(), 2);
        assert!(p.has_integer_vars());
        assert_eq!(p.integer_vars(), vec![y]);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", VarType::Continuous, 2.0, 1.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidProblem(_))));
    }

    #[test]
    fn unnamed_variables_get_their_name_when_a_diagnostic_needs_it() {
        let mut p = Problem::new(Sense::Minimize);
        let named = p.add_var("budget", VarType::Continuous, 0.0, 1.0);
        let unnamed = p.add_unnamed_var(VarType::Integer, 3.0, 1.0);
        assert_eq!(p.var_name(named), "budget");
        assert_eq!(p.var_name(unnamed), "x1");
        assert!(p.variables()[1].name.is_empty());
        let Err(LpError::InvalidProblem(msg)) = p.validate() else {
            panic!("inverted bounds must be rejected");
        };
        assert!(msg.contains("'x1'"), "{msg}");
    }

    #[test]
    fn non_finite_objective_coefficients_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 1.0);
        p.set_objective_coeff(x, f64::NAN);
        assert!(matches!(p.validate(), Err(LpError::InvalidProblem(_))));
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 10.0);
        let expr = LinExpr::term(x, 1.0) + LinExpr::constant(5.0);
        p.add_constraint("c", expr, ConstraintOp::Le, 8.0);
        let c = &p.constraints()[0];
        assert_eq!(c.rhs, 3.0);
        assert_eq!(c.expr.constant_part(), 0.0);
    }

    #[test]
    fn feasibility_and_objective_evaluation() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 4.0);
        let y = p.add_var("y", VarType::Continuous, 0.0, 4.0);
        p.set_objective_coeff(x, 3.0);
        p.set_objective_coeff(y, 1.0);
        p.add_constraint_terms("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        assert!(p.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[4.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[5.0, -1.0], 1e-9));
        assert_eq!(p.objective_value(&[2.0, 3.0]), 9.0);
    }

    #[test]
    fn unknown_variable_in_constraint_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_var("x", VarType::Continuous, 0.0, 1.0);
        let ghost = VarId::new(5);
        p.add_constraint_terms("bad", &[(ghost, 1.0)], ConstraintOp::Le, 1.0);
        assert!(matches!(p.validate(), Err(LpError::UnknownVariable(5))));
    }

    #[test]
    fn pop_constraint_retracts_last() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 1.0);
        p.add_constraint_terms("c1", &[(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint_terms("c2", &[(x, 1.0)], ConstraintOp::Ge, 0.5);
        assert_eq!(p.num_constraints(), 2);
        let c = p.pop_constraint().unwrap();
        assert_eq!(c.name, "c2");
        assert_eq!(p.num_constraints(), 1);
    }
}
