//! Property-based tests for the LP/MILP solver.

use lp_solver::{
    solve, solve_lp, solve_lp_warm, solve_milp, Basis, ConstraintOp, LpMatrix, LpResult,
    LpWorkspace, NodeLp, Problem, Sense, SolverConfig, Status, VarType,
};
use proptest::prelude::*;

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

/// Coefficient palette for the mixed problems: zeros are frequent, signs mix.
const COEFFS: [f64; 8] = [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, -1.0, -2.0];

/// Bounds by column kind: ordinary, fixed, signed, and (LPs only) free.
fn bounds_of(kind: usize, allow_free: bool) -> (f64, f64) {
    match kind % 6 {
        3 => (1.0, 1.0),
        4 => (-1.0, 1.0),
        5 if allow_free => (f64::NEG_INFINITY, f64::INFINITY),
        _ => (0.0, 2.0),
    }
}

/// A small problem with mixed `Le`/`Ge`/`Eq` rows whose right-hand sides
/// are anchored on an in-bounds integer point, so most draws are feasible.
fn mixed_problem(
    ty: VarType,
    kinds: &[usize],
    costs: &[f64],
    rows: &[Vec<usize>],
    ops: &[usize],
    slacks: &[f64],
    anchor: &[usize],
) -> Problem {
    let n = kinds.len();
    let allow_free = ty == VarType::Continuous;
    let mut p = Problem::new(if ops[0].is_multiple_of(2) {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let (lb, ub) = bounds_of(kinds[i], allow_free);
            p.add_var(format!("x{i}"), ty, lb, ub)
        })
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, costs[i % costs.len()].round());
    }
    let point: Vec<f64> = (0..n)
        .map(|i| {
            let (lb, ub) = bounds_of(kinds[i], allow_free);
            let span = if ub.is_finite() { ub - lb } else { 2.0 };
            let base = if lb.is_finite() { lb } else { -1.0 };
            base + (anchor[i % anchor.len()] as f64).min(span)
        })
        .collect();
    for (r, picks) in rows.iter().enumerate() {
        let coeffs: Vec<f64> = (0..n).map(|i| COEFFS[picks[i % picks.len()] % 8]).collect();
        let at_anchor: f64 = coeffs.iter().zip(&point).map(|(c, x)| c * x).sum();
        let slack = slacks[r % slacks.len()].round();
        let (op, rhs) = match ops[r % ops.len()] % 3 {
            0 => (ConstraintOp::Le, at_anchor + slack),
            1 => (ConstraintOp::Ge, at_anchor - slack),
            _ => (ConstraintOp::Eq, at_anchor),
        };
        // Zero coefficients go in as explicit terms: the expression drops
        // them, the dense matrix stores them.
        let terms: Vec<_> = vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)).collect();
        p.add_constraint_terms(format!("r{r}"), &terms, op, rhs);
    }
    p
}

/// Status, objective bits, iterations, basic values and dense values.
type Observed = (Status, u64, usize, Vec<(usize, u64)>, Vec<u64>);

/// Everything observable about one workspace solve, as bit patterns.
fn observe(ws: &LpWorkspace<'_>, lp: LpResult<NodeLp>) -> Result<Observed, String> {
    let lp = lp.map_err(|e| e.to_string())?;
    let values = match lp.status {
        Status::Optimal | Status::Unbounded => ws.dense_values(),
        _ => Vec::new(),
    };
    Ok((
        lp.status,
        lp.objective.to_bits(),
        lp.iterations,
        lp.basics.iter().map(|&(j, v)| (j, v.to_bits())).collect(),
        values.iter().map(|v| v.to_bits()).collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// On random 0/1 knapsack instances the MILP optimum equals brute force.
    #[test]
    fn knapsack_matches_brute_force(
        values in prop::collection::vec(1.0f64..20.0, 6..12),
        weights in prop::collection::vec(1.0f64..10.0, 6..12),
        capacity_frac in 0.2f64..0.8,
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let capacity = capacity_frac * weights.iter().sum::<f64>();

        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| p.add_binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, values[i]);
        }
        let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, weights[i])).collect();
        p.add_constraint_terms("cap", &terms, ConstraintOp::Le, capacity);
        let sol = solve(&p, &cfg()).unwrap();
        prop_assert!(sol.status.is_optimal());

        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut w, mut v) = (0.0, 0.0);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    w += weights[i];
                    v += values[i];
                }
            }
            if w <= capacity + 1e-9 && v > best {
                best = v;
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6, "milp {} vs brute force {}", sol.objective, best);
        prop_assert!(p.is_feasible(&sol.values, 1e-6));
    }

    /// One workspace reused across a random sequence of bound-patch overlays
    /// (warm from the last optimal basis or cold, shadowed patches, fixed and
    /// free columns, all three row directions) returns, bit for bit, what a
    /// fresh workspace returns for each solve: the dirty-list reset leaks
    /// nothing from one solve into the next.
    #[test]
    fn a_reused_workspace_matches_a_fresh_one_per_solve(
        kinds in prop::collection::vec(0usize..6, 4..9),
        costs in prop::collection::vec(-5.0f64..5.0, 4..9),
        rows in prop::collection::vec(prop::collection::vec(0usize..8, 4..9), 1..5),
        ops in prop::collection::vec(0usize..3, 1..5),
        slacks in prop::collection::vec(0.0f64..4.0, 1..5),
        anchor in prop::collection::vec(0usize..3, 4..9),
        steps in prop::collection::vec((0usize..64, 0usize..4, 0usize..3, 0usize..64, prop::bool::ANY), 3..10),
    ) {
        let p = mixed_problem(VarType::Continuous, &kinds, &costs, &rows, &ops, &slacks, &anchor);
        let n = p.num_vars();
        let mat = LpMatrix::new(&p).unwrap();
        let root: Vec<(f64, f64)> = p.variables().iter().map(|v| (v.lb, v.ub)).collect();
        let mut reused = LpWorkspace::new(&mat, &root);
        let mut last_basis: Option<Basis> = None;
        for &(var, lo, width, other, warm) in &steps {
            let lb = lo as f64 - 1.0;
            // Nearest first: the second entry is shadowed when it names the
            // same variable, and a third patch rides along otherwise.
            let overlay = [
                (var % n, lb, lb + width as f64),
                (other % n, 0.0, 1.0),
                (var % n, 5.0, 4.0),
            ];
            let basis = if warm { last_basis.as_ref() } else { None };
            let got = reused.solve(overlay, basis, &cfg());
            let next_basis = got.as_ref().ok().and_then(|lp| lp.basis.clone());
            let got = observe(&reused, got);
            let mut fresh = LpWorkspace::new(&mat, &root);
            let want = fresh.solve(overlay, basis, &cfg());
            let want = observe(&fresh, want);
            prop_assert_eq!(&got, &want, "overlay {:?}, warm {}", overlay, warm);
            // Chain later warm starts from the last optimal basis.
            last_basis = next_basis.or(last_basis);
        }
    }

    /// Random small MILPs with mixed rows, zero coefficients, fixed and
    /// signed columns: branch and bound agrees with brute-force enumeration
    /// on feasibility and on the optimal objective.
    #[test]
    fn mixed_milp_matches_brute_force(
        kinds in prop::collection::vec(0usize..5, 3..7),
        costs in prop::collection::vec(-5.0f64..5.0, 3..7),
        rows in prop::collection::vec(prop::collection::vec(0usize..8, 3..7), 1..4),
        ops in prop::collection::vec(0usize..3, 1..4),
        slacks in prop::collection::vec(0.0f64..3.0, 1..4),
        anchor in prop::collection::vec(0usize..3, 3..7),
    ) {
        let p = mixed_problem(VarType::Integer, &kinds, &costs, &rows, &ops, &slacks, &anchor);
        let sol = solve_milp(&p, &cfg()).unwrap();

        // Enumerate every integer point of the (bounded) box.
        let mut best: Option<f64> = None;
        let mut point: Vec<f64> = p.variables().iter().map(|v| v.lb).collect();
        'points: loop {
            if p.is_feasible(&point, 1e-9) {
                let obj = p.objective_value(&point);
                let better = match (best, p.sense()) {
                    (None, _) => true,
                    (Some(b), Sense::Maximize) => obj > b,
                    (Some(b), Sense::Minimize) => obj < b,
                };
                if better {
                    best = Some(obj);
                }
            }
            for (x, v) in point.iter_mut().zip(p.variables()) {
                if *x < v.ub {
                    *x += 1.0;
                    continue 'points;
                }
                *x = v.lb;
            }
            break;
        }

        match best {
            None => prop_assert_eq!(sol.status, Status::Infeasible),
            Some(best) => {
                prop_assert!(sol.status.is_optimal(), "status {:?}, brute force found {}", sol.status, best);
                prop_assert!((sol.objective - best).abs() < 1e-6, "milp {} vs brute force {}", sol.objective, best);
                prop_assert!(p.is_feasible(&sol.values, 1e-6));
            }
        }
    }

    /// Random feasible LPs: the simplex answer satisfies every constraint and
    /// dominates a set of random feasible points.
    #[test]
    fn lp_optimum_dominates_random_feasible_points(
        costs in prop::collection::vec(-10.0f64..10.0, 4..8),
        rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 4..8), 2..5),
        rhs_slack in prop::collection::vec(1.0f64..50.0, 2..5),
        samples in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4..8), 10),
    ) {
        let n = costs.len();
        let m = rows.len().min(rhs_slack.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| p.add_var(format!("x{i}"), VarType::Continuous, 0.0, 1.0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, costs[i]);
        }
        for r in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|i| rows[r].get(i).copied().unwrap_or(0.0)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, coeffs[i])).collect();
            // rhs chosen so the origin is always feasible.
            p.add_constraint_terms(format!("r{r}"), &terms, ConstraintOp::Le, rhs_slack[r]);
        }
        let sol = solve_lp(&p, None, &cfg()).unwrap();
        prop_assert!(sol.status.is_optimal());
        prop_assert!(p.is_feasible(&sol.values, 1e-6), "simplex returned an infeasible point");

        for sample in &samples {
            let point: Vec<f64> = (0..n).map(|i| sample.get(i).copied().unwrap_or(0.0)).collect();
            if p.is_feasible(&point, 1e-9) {
                prop_assert!(
                    p.objective_value(&point) <= sol.objective + 1e-6,
                    "random feasible point beats the 'optimal' simplex solution"
                );
            }
        }
    }

    /// Warm-started re-solves after a bound change (the branch-and-bound
    /// access pattern: clamp one variable to floor/ceil of its relaxation
    /// value) reach the same optimum as a cold two-phase solve, in no more
    /// simplex iterations.
    #[test]
    fn warm_start_matches_cold_solve_after_bound_change(
        costs in prop::collection::vec(-10.0f64..10.0, 4..8),
        rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 4..8), 2..5),
        rhs_slack in prop::collection::vec(1.0f64..50.0, 2..5),
        branch_pick in 0usize..8,
        go_down_bit in 0u8..2,
    ) {
        let n = costs.len();
        let m = rows.len().min(rhs_slack.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| p.add_var(format!("x{i}"), VarType::Continuous, 0.0, 3.0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, costs[i]);
        }
        for r in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|i| rows[r].get(i).copied().unwrap_or(0.0)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, coeffs[i])).collect();
            p.add_constraint_terms(format!("r{r}"), &terms, ConstraintOp::Le, rhs_slack[r]);
        }

        // Parent solve, cold, keeping the optimal basis.
        let (parent, basis) = solve_lp_warm(&p, None, &cfg(), None).unwrap();
        prop_assert!(parent.status.is_optimal());
        let basis = basis.expect("optimal LP solves return a basis");

        // Branch: clamp one variable the way branch and bound would.
        let go_down = go_down_bit == 0;
        let i = branch_pick % n;
        let v = parent.values[i];
        let mut bounds: Vec<(f64, f64)> = p.variables().iter().map(|vv| (vv.lb, vv.ub)).collect();
        bounds[i] = if go_down { (0.0, v.floor()) } else { (v.ceil(), 3.0) };

        let cold = solve_lp(&p, Some(&bounds), &cfg()).unwrap();
        let (warm, _) = solve_lp_warm(&p, Some(&bounds), &cfg(), Some(&basis)).unwrap();

        prop_assert_eq!(warm.status, cold.status, "warm and cold disagree on status");
        if cold.status.is_optimal() {
            prop_assert!(
                (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
                "warm optimum {} differs from cold optimum {}", warm.objective, cold.objective
            );
            prop_assert!(p.is_feasible(&warm.values, 1e-6));
            prop_assert!(
                warm.iterations <= cold.iterations,
                "warm start took {} iterations, cold only {}", warm.iterations, cold.iterations
            );
        }
    }

    /// Problems whose constraints contradict the bounds are reported
    /// infeasible, never 'optimal'.
    #[test]
    fn contradictions_are_infeasible(lo in 1.0f64..50.0, gap in 1.0f64..10.0) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, lo);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("force", &[(x, 1.0)], ConstraintOp::Ge, lo + gap);
        let sol = solve_lp(&p, None, &cfg()).unwrap();
        prop_assert_eq!(sol.status, Status::Infeasible);
    }

    /// Scaling the objective scales the optimum (and never flips the optimizer).
    #[test]
    fn objective_scaling_is_linear(scale in 0.5f64..10.0) {
        let build = |k: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var("x", VarType::Continuous, 0.0, 4.0);
            let y = p.add_var("y", VarType::Continuous, 0.0, 4.0);
            p.set_objective_coeff(x, 3.0 * k);
            p.set_objective_coeff(y, 1.0 * k);
            p.add_constraint_terms("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
            p
        };
        let base = solve_lp(&build(1.0), None, &cfg()).unwrap();
        let scaled = solve_lp(&build(scale), None, &cfg()).unwrap();
        prop_assert!((scaled.objective - scale * base.objective).abs() < 1e-6 * (1.0 + scale));
    }
}
