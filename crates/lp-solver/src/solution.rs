//! Solver results.

use std::fmt;

use crate::problem::VarId;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found (within tolerances).
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// A limit (iterations, nodes or time) stopped the search; the returned
    /// solution is the best incumbent found, which may be suboptimal.
    LimitReached,
}

impl Status {
    /// True for [`Status::Optimal`].
    pub fn is_optimal(&self) -> bool {
        matches!(self, Status::Optimal)
    }

    /// True when a feasible point is available (`Optimal` or `LimitReached`).
    pub fn has_solution(&self) -> bool {
        matches!(self, Status::Optimal | Status::LimitReached)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::LimitReached => "limit reached",
        };
        write!(f, "{s}")
    }
}

/// A solution returned by the LP or MILP solver.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve outcome.
    pub status: Status,
    /// Objective value in the problem's own sense (meaningless unless
    /// `status.has_solution()`).
    pub objective: f64,
    /// Value of each variable by index (empty unless `status.has_solution()`).
    pub values: Vec<f64>,
    /// Simplex iterations performed (summed over branch-and-bound nodes).
    pub iterations: usize,
    /// Branch-and-bound nodes explored (0 for pure LPs).
    pub nodes: usize,
    /// LP solves that ended in the cold two-phase path, the root included:
    /// what the warm starts did *not* save. Deterministic, like
    /// `iterations`.
    pub cold_solves: usize,
    /// Relative optimality gap, reported by MILP solves: `0.0` when the
    /// search proved optimality, `(best bound − incumbent) / (1 + |incumbent|)`
    /// when a limit stopped it early, `None` for pure LP solves (where the
    /// simplex optimum is exact by construction).
    pub gap: Option<f64>,
}

impl Solution {
    /// A solution carrying only a status (infeasible/unbounded).
    pub fn status_only(status: Status) -> Self {
        Solution {
            status,
            objective: f64::NAN,
            values: Vec::new(),
            iterations: 0,
            nodes: 0,
            cold_solves: 0,
            gap: None,
        }
    }

    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values.get(var.index()).copied().unwrap_or(0.0)
    }

    /// Value of a variable rounded to the nearest integer, useful for
    /// integer variables whose LP values carry tiny numerical noise.
    pub fn value_rounded(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }

    /// Indices of variables whose value rounds to a non-zero integer,
    /// with their rounded values. This is the "package support" view used by
    /// the query engine.
    pub fn nonzero_rounded(&self) -> Vec<(usize, i64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.round() as i64))
            .filter(|(_, v)| *v != 0)
            .collect()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (objective {:.6}, {} iterations, {} nodes)",
            self.status, self.objective, self.iterations, self.nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(Status::Optimal.is_optimal());
        assert!(Status::Optimal.has_solution());
        assert!(Status::LimitReached.has_solution());
        assert!(!Status::Infeasible.has_solution());
    }

    #[test]
    fn nonzero_rounded_filters_zeros() {
        let s = Solution {
            status: Status::Optimal,
            objective: 1.0,
            values: vec![0.0, 0.9999999, 2.0000001, 1e-9],
            iterations: 0,
            nodes: 0,
            cold_solves: 0,
            gap: None,
        };
        assert_eq!(s.nonzero_rounded(), vec![(1, 1), (2, 2)]);
        assert_eq!(s.value_rounded(VarId::new(2)), 2);
    }
}
