//! Solution-exclusion ("no-good") cuts.
//!
//! The paper observes (Section 5, *Solver limitations*) that "constraint
//! solvers are typically limited to returning a single package solution at a
//! time, and retrieving more packages requires modifying and re-evaluating
//! the query". The standard modification is a *no-good cut*: a linear
//! constraint that excludes exactly the incumbent 0/1 assignment, so
//! re-solving yields the next-best package.

use crate::expr::LinExpr;
use crate::problem::{Constraint, ConstraintOp, Problem, VarId, VarType};
use crate::solution::Solution;
use crate::{LpError, LpResult};

/// Builds a no-good cut that excludes the 0/1 assignment of `solution`
/// restricted to the given binary variables.
///
/// For the support `S = {i : x*_i = 1}` the cut is
///
/// ```text
/// Σ_{i ∈ S} (1 − x_i) + Σ_{i ∉ S} x_i ≥ 1
/// ```
///
/// which rearranges to `Σ_{i ∉ S} x_i − Σ_{i ∈ S} x_i ≥ 1 − |S|`.
///
/// Returns an error if any listed variable is not binary (0/1 bounds): the
/// cut is only valid for binary variables. (Package queries with `REPEAT`
/// bounds above 1 fall back to search-based enumeration for additional
/// results; see the engine documentation.)
pub fn no_good_cut(
    problem: &Problem,
    solution: &Solution,
    vars: &[VarId],
    name: impl Into<String>,
) -> LpResult<Constraint> {
    let mut expr = LinExpr::new();
    let mut support = 0usize;
    for &v in vars {
        let var = problem.variable(v)?;
        let is_binary = var.ty == VarType::Integer && var.lb >= -1e-9 && var.ub <= 1.0 + 1e-9;
        if !is_binary {
            return Err(LpError::InvalidProblem(format!(
                "no-good cuts require binary variables; '{}' has bounds [{}, {}]",
                problem.var_name(v),
                var.lb,
                var.ub
            )));
        }
        if solution.value_rounded(v) >= 1 {
            support += 1;
            expr.add_term(v, -1.0);
        } else {
            expr.add_term(v, 1.0);
        }
    }
    Ok(Constraint {
        name: name.into(),
        expr,
        op: ConstraintOp::Ge,
        rhs: 1.0 - support as f64,
    })
}

/// Adds a no-good cut for `solution` directly to `problem`.
pub fn add_no_good_cut(
    problem: &mut Problem,
    solution: &Solution,
    vars: &[VarId],
    name: impl Into<String>,
) -> LpResult<()> {
    let cut = no_good_cut(problem, solution, vars, name)?;
    problem.add_constraint(cut.name.clone(), cut.expr, cut.op, cut.rhs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, Problem, Sense};
    use crate::{solve, SolverConfig};

    #[test]
    fn cut_excludes_previous_optimum() {
        // maximize 3a + 2b + c, pick exactly 1 item.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.set_objective_coeff(a, 3.0);
        p.set_objective_coeff(b, 2.0);
        p.set_objective_coeff(c, 1.0);
        p.add_constraint_terms(
            "one",
            &[(a, 1.0), (b, 1.0), (c, 1.0)],
            ConstraintOp::Eq,
            1.0,
        );
        let cfg = SolverConfig::default();

        let s1 = solve(&p, &cfg).unwrap();
        assert_eq!(s1.value_rounded(a), 1);

        add_no_good_cut(&mut p, &s1, &[a, b, c], "cut1").unwrap();
        let s2 = solve(&p, &cfg).unwrap();
        assert_eq!(s2.value_rounded(b), 1);
        assert_eq!(s2.value_rounded(a), 0);

        add_no_good_cut(&mut p, &s2, &[a, b, c], "cut2").unwrap();
        let s3 = solve(&p, &cfg).unwrap();
        assert_eq!(s3.value_rounded(c), 1);

        add_no_good_cut(&mut p, &s3, &[a, b, c], "cut3").unwrap();
        let s4 = solve(&p, &cfg).unwrap();
        assert!(
            !s4.status.has_solution(),
            "all assignments excluded → infeasible"
        );
    }

    #[test]
    fn non_binary_variables_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", crate::VarType::Integer, 0.0, 3.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("c", &[(x, 1.0)], ConstraintOp::Le, 2.0);
        let s = solve(&p, &SolverConfig::default()).unwrap();
        assert!(no_good_cut(&p, &s, &[x], "cut").is_err());
    }

    #[test]
    fn cut_keeps_other_solutions_feasible() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 1.0);
        p.set_objective_coeff(b, 1.0);
        // No structural constraints: optimum picks both.
        let s = solve(&p, &SolverConfig::default()).unwrap();
        let cut = no_good_cut(&p, &s, &[a, b], "cut").unwrap();
        // {a=1,b=1} violates the cut, {a=1,b=0} satisfies it.
        assert!(!cut.satisfied(&[1.0, 1.0], 1e-9));
        assert!(cut.satisfied(&[1.0, 0.0], 1e-9));
        assert!(cut.satisfied(&[0.0, 0.0], 1e-9));
    }
}
