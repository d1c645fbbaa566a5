//! `lp-solver` — a self-contained linear and mixed-integer programming solver.
//!
//! PackageBuilder translates package queries into constraint optimization
//! problems and "employs state-of-the-art constraint solvers to derive valid
//! packages" (Section 4). Those solvers (CPLEX, Gurobi) are proprietary and
//! unavailable offline, so this crate provides the substrate: a dense
//! revised simplex method with native variable bounds and a branch-and-bound
//! layer for integer variables.
//!
//! The design is tuned for the shape of package ILPs — *many* decision
//! variables (one per candidate tuple) but only a handful of constraint rows
//! (one per distinct linear form of the global constraints: a `BETWEEN`'s
//! two sides, or a `COUNT(*)` row and the support rows that repeat its
//! coefficients, are one ranged row). The bounded-variable revised simplex
//! keeps a basis of size `m` (the row count), so iterations cost `O(m·n)`
//! rather than the `O(n²)` a naive tableau would pay.
//!
//! # Quick example
//!
//! ```
//! use lp_solver::{Problem, Sense, VarType, ConstraintOp, SolverConfig};
//!
//! // maximize 3x + 2y subject to x + y <= 4, x <= 2, x,y >= 0 integer
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", VarType::Integer, 0.0, f64::INFINITY);
//! let y = p.add_var("y", VarType::Integer, 0.0, f64::INFINITY);
//! p.set_objective_coeff(x, 3.0);
//! p.set_objective_coeff(y, 2.0);
//! p.add_constraint_terms("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! p.add_constraint_terms("xcap", &[(x, 1.0)], ConstraintOp::Le, 2.0);
//! let sol = lp_solver::solve(&p, &SolverConfig::default()).unwrap();
//! assert!(sol.status.is_optimal());
//! assert_eq!(sol.objective.round(), 10.0);
//! ```

pub mod branch_bound;
pub mod cuts;
pub mod error;
pub mod expr;
pub mod par;
pub mod problem;
pub mod simplex;
pub mod solution;

pub use branch_bound::{solve_milp, solve_milp_hinted, INCUMBENT_TOLERANCE};
pub use cuts::no_good_cut;
pub use error::LpError;
pub use expr::LinExpr;
pub use problem::{Constraint, ConstraintOp, Problem, Sense, VarId, VarType, Variable};
pub use simplex::{solve_lp, solve_lp_warm, Basis, LpMatrix, LpWorkspace, NodeLp};
pub use solution::{Solution, Status};

/// Result alias for solver operations.
pub type LpResult<T> = std::result::Result<T, LpError>;

/// The limits and stop signals a caller sets on the LP and MILP layers. The
/// tolerances, the per-LP pivot cap and the refactorization period are
/// constants of the simplex ([`simplex`]) and of branch and bound.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Absolute deadline for the solve, shared by every layer down to the
    /// simplex pivot loop, so a single long LP relaxation cannot overshoot
    /// the budget.
    pub deadline: Option<std::time::Instant>,
    /// Cooperative cancellation flags, checked alongside the deadline (any
    /// one tripping interrupts the solve). A caller's own flag and an
    /// engine budget's flag coexist: contributors append, never overwrite.
    /// Setting one makes the solver return [`LpError::Interrupted`]
    /// (simplex) or stop with the current incumbent (branch and bound) at
    /// the next check point.
    pub stop: Vec<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Thread budget for the branch-and-bound layer: LP relaxations of one
    /// frontier batch are solved concurrently on up to this many threads.
    /// The batch boundaries and the merge order are fixed (never derived
    /// from this number), so the solver returns bit-identical solutions and
    /// node counts at every thread count — see [`crate::branch_bound`].
    /// Batches are jobs on the process-wide [`par::ParExec`] pool, so no
    /// value spawns a thread per solve; `1` (the default) runs them inline
    /// and never wakes one either. Nor does an LP whose matrix has fewer
    /// than [`par::CHUNK_WIDTH`] coefficients (rows × columns, what one
    /// pricing pass touches): its node LPs take microseconds, less than a
    /// hand-off to a pool worker, so its batches run inline whatever this
    /// says.
    pub num_threads: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 100_000,
            deadline: None,
            stop: Vec::new(),
            num_threads: 1,
        }
    }
}

impl SolverConfig {
    /// True when any stop flag is set or the deadline has passed. Checked
    /// periodically by the simplex and branch-and-bound loops.
    pub fn interrupted(&self) -> bool {
        if self
            .stop
            .iter()
            .any(|stop| stop.load(std::sync::atomic::Ordering::Relaxed))
        {
            return true;
        }
        match self.deadline {
            // pb-lint: allow(time-containment) — this *is* the containment
            // point: the one poll that turns the caller-supplied deadline
            // into the cooperative stop signal every iteration checks.
            Some(deadline) => std::time::Instant::now() >= deadline,
            None => false,
        }
    }
}

/// Solves a problem: pure LPs go straight to the simplex, problems with
/// integer variables go through branch and bound.
pub fn solve(problem: &Problem, config: &SolverConfig) -> LpResult<Solution> {
    if problem.has_integer_vars() {
        branch_bound::solve_milp(problem, config)
    } else {
        simplex::solve_lp(problem, None, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_dispatches_to_milp() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 10.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("c", &[(x, 1.0)], ConstraintOp::Le, 3.5);
        let sol = solve(&p, &SolverConfig::default()).unwrap();
        assert!((sol.objective - 3.5).abs() < 1e-6);
    }
}
