//! Property-based tests for the LP/MILP solver.

use lp_solver::par::CHUNK_WIDTH;
use lp_solver::{
    solve, solve_lp, solve_lp_warm, solve_milp, solve_milp_hinted, Basis, ConstraintOp, LpMatrix,
    LpResult, LpWorkspace, NodeLp, Problem, Sense, SolverConfig, Status, VarId, VarType,
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

/// The columns of a generated problem — one variable of `ty` per kind,
/// rounded `costs`, maximizing when `pick` is even — and the in-bounds
/// integer point `anchor` picks, which right-hand sides are anchored on so
/// most draws are feasible.
fn columns(
    ty: VarType,
    kinds: &[usize],
    costs: &[f64],
    pick: usize,
    anchor: &[usize],
) -> (Problem, Vec<VarId>, Vec<f64>) {
    let n = kinds.len();
    let allow_free = ty == VarType::Continuous;
    let mut p = Problem::new(if pick.is_multiple_of(2) {
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
    (p, vars, point)
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
    let (mut p, vars, point) = columns(ty, kinds, costs, ops[0], anchor);
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

/// A small problem whose constraints repeat linear forms the way a package
/// ILP does, and its twin. Each form gets a first constraint and a repeat,
/// by `shape`: a `Ge`/`Le` window, an `Eq` under a `Ge` (a `COUNT(*)` row and
/// its support row), two `Le` right-hand sides, or a contradictory pair. The
/// repeats follow every first constraint, so each must find the row of its
/// form. In the twin every repeat is multiplied by 2.0: the same feasible
/// set, but a row that differs bit for bit from its form's first, so the
/// matrix never merges it.
fn repeated_forms(
    ty: VarType,
    kinds: &[usize],
    costs: &[f64],
    forms: &[Vec<usize>],
    shapes: &[(usize, f64, f64)],
    anchor: &[usize],
) -> (Problem, Problem) {
    let n = kinds.len();
    let (mut p, vars, point) = columns(ty, kinds, costs, shapes[0].0, anchor);
    let mut twin = p.clone();
    let mut repeats = Vec::new();
    for (r, picks) in forms.iter().enumerate() {
        let mut terms: Vec<_> = (0..n)
            .map(|i| (vars[i], COEFFS[picks[i % picks.len()] % 8]))
            .collect();
        if terms.iter().all(|&(_, c)| c == 0.0) {
            terms[r % n].1 = 1.0;
        }
        let at: f64 = terms.iter().zip(&point).map(|((_, c), x)| c * x).sum();
        let (shape, s1, s2) = shapes[r % shapes.len()];
        let (s1, s2) = (s1.round(), s2.round());
        use ConstraintOp::{Eq, Ge, Le};
        let [first, repeat] = match shape % 7 {
            0 | 1 => [(Ge, at - s1), (Le, at + s2)],
            2 | 3 => [(Eq, at), (Ge, at - s1)],
            4 | 5 => [(Le, at + s1), (Le, at + s2)],
            _ => [(Ge, at + s1 + 1.0), (Le, at + s1)],
        };
        for q in [&mut p, &mut twin] {
            q.add_constraint_terms(format!("f{r}"), &terms, first.0, first.1);
        }
        repeats.push((r, terms, repeat));
    }
    for (r, terms, (op, rhs)) in repeats {
        p.add_constraint_terms(format!("f{r}'"), &terms, op, rhs);
        let doubled: Vec<_> = terms.iter().map(|&(v, c)| (v, 2.0 * c)).collect();
        twin.add_constraint_terms(format!("f{r}'"), &doubled, op, 2.0 * rhs);
    }
    (p, twin)
}

/// Status, objective bits, iterations, basic values, dense values, the
/// final basis and whether the solve ended cold.
type Observed = (
    Status,
    u64,
    usize,
    Vec<(usize, u64)>,
    Vec<u64>,
    Option<Basis>,
    bool,
);

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
        lp.basis,
        lp.cold,
    ))
}

/// An optimal node LP that can be expanded: its patch chain (nearest
/// first), its basis and its basic values.
#[derive(Clone)]
struct Open {
    chain: Vec<(usize, f64, f64)>,
    basis: Basis,
    basics: Vec<(usize, f64)>,
}

/// What the expansions of [`check_expansions`] ran into.
#[derive(Debug, Default)]
struct Tally {
    expansions: usize,
    /// Two children on a shared basis, the first of which ended cold.
    cold_first_child: usize,
    /// A child the first dual ratio test proved infeasible.
    infeasible_at_the_first_test: usize,
    single_child: usize,
    /// Children warm-started from the grandparent's basis: the parent's own
    /// branching row is violated too, so the largest violation decides
    /// whether a child's first leaving row is the branching row.
    two_violated_rows: usize,
    /// A first child whose bounds do not cut the branching variable at all.
    uncut_first_child: usize,
}

/// Walks the branch-and-bound tree of `p` breadth-first for up to `limit`
/// expansions and checks each one: `solve_children` on one long-lived
/// workspace against one `solve` per child on a fresh workspace, every
/// observable bit. The shape of the expansion rotates with its index: the
/// floor/ceil pair, either child alone, a first child that leaves the
/// variable uncut, the pair from a stale (grandparent) basis, three children
/// with an empty domain among them.
fn check_expansions(p: &Problem, limit: usize, tally: &mut Tally) -> Result<(), String> {
    let mat = LpMatrix::new(p).unwrap();
    let root: Vec<(f64, f64)> = p.variables().iter().map(|v| (v.lb, v.ub)).collect();
    let bounds_under = |chain: &[(usize, f64, f64)], var: usize| {
        chain
            .iter()
            .find(|patch| patch.0 == var)
            .map_or(root[var], |&(_, lb, ub)| (lb, ub))
    };
    let mut reused = LpWorkspace::new(&mat, &root);
    let lp = reused.solve([], None, &cfg()).map_err(|e| e.to_string())?;
    let mut queue = std::collections::VecDeque::new();
    if let Some(basis) = lp.basis {
        let open = Open {
            chain: Vec::new(),
            basis,
            basics: lp.basics,
        };
        queue.push_back((open, None::<Open>));
    }
    let mut index = 0;
    while let Some((node, parent)) = queue.pop_front() {
        if index == limit {
            break;
        }
        let Some(&(var, val)) = node.basics.iter().find(|(_, v)| v.fract() != 0.0) else {
            continue;
        };
        let (lb, ub) = bounds_under(&node.chain, var);
        let (down, up) = ((lb, val.floor()), (val.ceil(), ub));
        let mut warm = &node;
        let mut branch = (var, vec![down, up]);
        match index % 6 {
            1 => branch.1 = vec![down],
            2 => branch.1 = vec![up],
            3 => branch.1 = vec![(lb, ub), up],
            4 => {
                // Another variable the grandparent's basis holds basic, cut
                // on both sides of the value it had there.
                let other = parent.as_ref().and_then(|grand| {
                    let &(v, x) = grand.basics.iter().find(|&&(v, _)| v != node.chain[0].0)?;
                    Some((grand, v, x))
                });
                if let Some((grand, v, x)) = other {
                    let (lb, ub) = bounds_under(&node.chain, v);
                    let (lo, hi) = if x.fract() == 0.0 {
                        (x - 1.0, x + 1.0)
                    } else {
                        (x.floor(), x.ceil())
                    };
                    warm = grand;
                    branch = (v, vec![(lb, lo), (hi, ub)]);
                    tally.two_violated_rows += 1;
                }
            }
            5 => branch.1 = vec![down, (1.0, 0.0), up, (val.floor(), val.floor())],
            _ => {}
        }
        let (var, children) = branch;
        index += 1;
        tally.expansions += 1;
        tally.single_child += usize::from(children.len() == 1);
        tally.uncut_first_child += usize::from(children[0] == (lb, ub));

        let chain = || node.chain.iter().copied();
        let mut child_basics = Vec::new();
        let got = reused.solve_children(
            chain(),
            Some(&warm.basis),
            var,
            &children,
            &cfg(),
            |ws, lp| {
                child_basics.push(lp.basics.clone());
                observe(ws, Ok(lp))
            },
        );
        let got: Vec<_> = got
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()).and_then(|o| o))
            .collect();
        let want: Vec<_> = children
            .iter()
            .map(|&(lb, ub)| {
                let mut fresh = LpWorkspace::new(&mat, &root);
                let overlay = std::iter::once((var, lb, ub)).chain(chain());
                let lp = fresh.solve(overlay, Some(&warm.basis), &cfg());
                observe(&fresh, lp)
            })
            .collect();
        if got != want {
            return Err(format!(
                "expansion {index}: children {children:?} of variable {var} under {:?}:\n\
                 expanded once: {got:?}\nsolved apart:  {want:?}",
                node.chain
            ));
        }

        let mut basics = child_basics.into_iter();
        for (k, child) in want.iter().enumerate() {
            let Ok((status, _, iterations, _, _, basis, cold)) = child else {
                continue;
            };
            let basics = basics.next().expect("one LP per successful child");
            tally.cold_first_child += usize::from(children.len() > 1 && k == 0 && *cold);
            tally.infeasible_at_the_first_test +=
                usize::from(*status == Status::Infeasible && *iterations == 1 && !cold);
            // Every child that cut something and came out optimal is a node
            // to expand in its turn.
            if let (Some(basis), true) = (basis, children[k] != (lb, ub)) {
                let mut chain = vec![(var, children[k].0, children[k].1)];
                chain.extend(node.chain.iter().filter(|patch| patch.0 != var));
                let open = Open {
                    chain,
                    basis: basis.clone(),
                    basics,
                };
                queue.push_back((open, Some(node.clone())));
            }
        }
    }
    Ok(())
}

/// A 30-item knapsack with a one-unit weight window and a fixed count: a
/// few hundred nodes, with children that go infeasible and warm starts that
/// stall into the cold path among them.
fn window_knapsack() -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..30).map(|i| p.add_binary(format!("x{i}"))).collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, 10.0 + ((i * 7) % 23) as f64);
    }
    let weights: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, 5.0 + ((i * 11) % 19) as f64))
        .collect();
    let ones: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint_terms("lo", &weights, ConstraintOp::Ge, 99.5);
    p.add_constraint_terms("hi", &weights, ConstraintOp::Le, 100.5);
    p.add_constraint_terms("count", &ones, ConstraintOp::Eq, 8.0);
    p
}

/// Expanding a node once — overlay, install and refactorization shared, the
/// first ratio test evaluated for both directions, the second child started
/// from the restored checkpoint — returns what one solve per child on fresh
/// workspaces returns, on a tree that holds every situation the sharing has
/// to survive.
#[test]
fn expanding_a_node_once_equals_one_fresh_solve_per_child() {
    let mut tally = Tally::default();
    check_expansions(&window_knapsack(), 400, &mut tally).unwrap();
    assert!(
        tally.cold_first_child >= 2
            && tally.infeasible_at_the_first_test >= 3
            && tally.single_child >= 10
            && tally.two_violated_rows >= 10
            && tally.uncut_first_child >= 10,
        "the tree no longer exercises every case: {tally:?}"
    );
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

    /// [`check_expansions`] on the trees of random small problems with mixed
    /// rows, zero coefficients, fixed and signed columns.
    #[test]
    fn expanding_a_node_once_equals_one_fresh_solve_per_child_on_mixed_problems(
        kinds in prop::collection::vec(0usize..5, 3..8),
        costs in prop::collection::vec(-5.0f64..5.0, 3..8),
        rows in prop::collection::vec(prop::collection::vec(0usize..8, 3..8), 1..5),
        ops in prop::collection::vec(0usize..3, 1..5),
        slacks in prop::collection::vec(0.0f64..3.0, 1..5),
        anchor in prop::collection::vec(0usize..3, 3..8),
    ) {
        let p = mixed_problem(VarType::Integer, &kinds, &costs, &rows, &ops, &slacks, &anchor);
        let outcome = check_expansions(&p, 24, &mut Tally::default());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
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

    /// Constraints that repeat a linear form share one ranged row; the twin
    /// that keeps every repeat a row of its own (see [`repeated_forms`])
    /// answers the same: the same status, the LP optimum within 1e-9
    /// relative, the MILP optimum within 1e-6, and values that are feasible
    /// for the problem as written.
    #[test]
    fn repeated_forms_solve_like_their_unmerged_twins(
        kinds in prop::collection::vec(0usize..6, 3..7),
        costs in prop::collection::vec(-5.0f64..5.0, 3..7),
        forms in prop::collection::vec(prop::collection::vec(0usize..8, 3..7), 1..4),
        shapes in prop::collection::vec((0usize..7, 0.0f64..3.0, 0.0f64..3.0), 1..4),
        anchor in prop::collection::vec(0usize..3, 3..7),
    ) {
        for ty in [VarType::Continuous, VarType::Integer] {
            let (p, twin) = repeated_forms(ty, &kinds, &costs, &forms, &shapes, &anchor);
            let (got, want, tol) = match ty {
                VarType::Continuous => (solve_lp(&p, None, &cfg()), solve_lp(&twin, None, &cfg()), 1e-9),
                VarType::Integer => (solve_milp(&p, &cfg()), solve_milp(&twin, &cfg()), 1e-6),
            };
            let (got, want) = (got.unwrap(), want.unwrap());
            prop_assert_eq!(got.status, want.status, "{:?}\n{}", ty, p);
            if got.status.is_optimal() {
                let scale = if ty == VarType::Continuous { 1.0 + want.objective.abs() } else { 1.0 };
                prop_assert!(
                    (got.objective - want.objective).abs() <= tol * scale,
                    "{:?}: merged {} vs twin {}\n{}", ty, got.objective, want.objective, p
                );
                prop_assert!(p.is_feasible(&got.values, 1e-6), "{:?}: merged values infeasible\n{}", ty, p);
                prop_assert!(p.is_feasible(&want.values, 1e-6), "{:?}: twin values infeasible\n{}", ty, p);
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

/// `(max_nodes, status, objective bits, nodes, iterations, gap bits)` of the
/// hinted 11-item knapsack of `gap_at_a_node_limit_never_understates_the_true_gap`
/// at every node cap from 1 to 64.
type CapRow = (usize, &'static str, u64, usize, usize, u64);

#[rustfmt::skip]
const NODE_CAP_SWEEP: &[CapRow] = &[
    (1, "limit", 0x0000000000000000, 1, 14, 0x4055800000000000),
    (2, "limit", 0x0000000000000000, 2, 16, 0x4055800000000000),
    (3, "limit", 0x0000000000000000, 3, 18, 0x4055800000000000),
    (4, "limit", 0x0000000000000000, 4, 20, 0x4055800000000000),
    (5, "limit", 0x0000000000000000, 5, 23, 0x4055800000000000),
    (6, "limit", 0x0000000000000000, 6, 25, 0x4055800000000000),
    (7, "limit", 0x0000000000000000, 7, 27, 0x4055800000000000),
    (8, "limit", 0x0000000000000000, 8, 29, 0x4055800000000000),
    (9, "limit", 0x0000000000000000, 9, 31, 0x4055400000000000),
    (10, "limit", 0x0000000000000000, 10, 33, 0x4055400000000000),
    (11, "limit", 0x0000000000000000, 11, 36, 0x4055400000000000),
    (12, "limit", 0x0000000000000000, 12, 38, 0x4055400000000000),
    (13, "limit", 0x0000000000000000, 13, 40, 0x4055400000000000),
    (14, "limit", 0x0000000000000000, 14, 42, 0x4055400000000000),
    (15, "limit", 0x0000000000000000, 15, 44, 0x4055400000000000),
    (16, "limit", 0x0000000000000000, 16, 46, 0x4055400000000000),
    (17, "limit", 0x0000000000000000, 17, 48, 0x4055400000000000),
    (18, "limit", 0x0000000000000000, 18, 50, 0x4055400000000000),
    (19, "limit", 0x0000000000000000, 19, 52, 0x4055400000000000),
    (20, "limit", 0x0000000000000000, 20, 54, 0x4055400000000000),
    (21, "limit", 0x0000000000000000, 21, 56, 0x4055400000000000),
    (22, "limit", 0x0000000000000000, 22, 59, 0x4055400000000000),
    (23, "limit", 0x0000000000000000, 23, 61, 0x4055400000000000),
    (24, "limit", 0x0000000000000000, 24, 63, 0x4055400000000000),
    (25, "limit", 0x0000000000000000, 25, 65, 0x4055400000000000),
    (26, "limit", 0x0000000000000000, 26, 67, 0x4055400000000000),
    (27, "limit", 0x0000000000000000, 27, 69, 0x4055400000000000),
    (28, "limit", 0x0000000000000000, 28, 72, 0x4055400000000000),
    (29, "limit", 0x0000000000000000, 29, 74, 0x4055400000000000),
    (30, "limit", 0x0000000000000000, 30, 76, 0x4055400000000000),
    (31, "limit", 0x0000000000000000, 31, 78, 0x4055400000000000),
    (32, "limit", 0x0000000000000000, 32, 80, 0x4055400000000000),
    (33, "limit", 0x0000000000000000, 33, 82, 0x4055000000000000),
    (34, "limit", 0x0000000000000000, 34, 84, 0x4055000000000000),
    (35, "limit", 0x0000000000000000, 35, 87, 0x4054c00000000000),
    (36, "limit", 0x0000000000000000, 36, 89, 0x4054c00000000000),
    (37, "limit", 0x0000000000000000, 37, 91, 0x4054c00000000000),
    (38, "limit", 0x0000000000000000, 38, 93, 0x4054c00000000000),
    (39, "limit", 0x0000000000000000, 39, 96, 0x4054c00000000000),
    (40, "limit", 0x0000000000000000, 40, 98, 0x4054c00000000000),
    (41, "limit", 0x0000000000000000, 41, 100, 0x4054c00000000000),
    (42, "limit", 0x0000000000000000, 42, 102, 0x4054c00000000000),
    (43, "limit", 0x0000000000000000, 43, 104, 0x4054c00000000000),
    (44, "limit", 0x0000000000000000, 44, 106, 0x4054c00000000000),
    (45, "limit", 0x0000000000000000, 45, 108, 0x4054c00000000000),
    (46, "limit", 0x0000000000000000, 46, 110, 0x4054c00000000000),
    (47, "limit", 0x0000000000000000, 47, 112, 0x4054c00000000000),
    (48, "limit", 0x4054c00000000000, 48, 114, 0x0000000000000000),
    (49, "limit", 0x4054c00000000000, 49, 118, 0x0000000000000000),
    (50, "limit", 0x4054c00000000000, 50, 120, 0x0000000000000000),
    (51, "limit", 0x4054c00000000000, 51, 122, 0x0000000000000000),
    (52, "limit", 0x4054c00000000000, 52, 124, 0x0000000000000000),
    (53, "limit", 0x4054c00000000000, 53, 128, 0x0000000000000000),
    (54, "limit", 0x4054c00000000000, 54, 130, 0x0000000000000000),
    (55, "limit", 0x4054c00000000000, 55, 131, 0x0000000000000000),
    (56, "limit", 0x4054c00000000000, 56, 133, 0x0000000000000000),
    (57, "limit", 0x4054c00000000000, 57, 135, 0x0000000000000000),
    (58, "limit", 0x4054c00000000000, 58, 137, 0x0000000000000000),
    (59, "limit", 0x4054c00000000000, 59, 139, 0x0000000000000000),
    (60, "limit", 0x4054c00000000000, 60, 141, 0x0000000000000000),
    (61, "limit", 0x4054c00000000000, 61, 143, 0x0000000000000000),
    (62, "limit", 0x4054c00000000000, 62, 146, 0x0000000000000000),
    (63, "limit", 0x4054c00000000000, 63, 148, 0x0000000000000000),
    (64, "optimal", 0x4054c00000000000, 63, 148, 0x0000000000000000),
];

/// A node cap can cut a batch anywhere, also between the two children of one
/// popped node. Whatever the cap, the search solves the same LPs in the same
/// order, on one thread and on two: the rows were recorded with one job per
/// child LP, before a job became the expansion of a node. Fixed columns pad
/// the matrix to one `CHUNK_WIDTH` of coefficients, the size from which a
/// batch fans out; no pivot reads them.
#[test]
fn a_node_cap_cuts_the_search_at_the_same_lp_whatever_the_batch_shape() {
    let values = [2.0, 5.0, 14.0, 18.0, 7.0, 20.0, 2.0, 16.0, 11.0, 5.0, 18.0];
    let weights = [2.0, 6.0, 6.0, 3.0, 5.0, 1.0, 9.0, 4.0, 3.0, 2.0, 4.0];
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..11).map(|i| p.add_binary(format!("x{i}"))).collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, values[i]);
    }
    let terms: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, weights[i]))
        .collect();
    p.add_constraint_terms("cap", &terms, ConstraintOp::Le, 16.5);
    for i in p.num_vars()..CHUNK_WIDTH {
        p.add_var(format!("pad{i}"), VarType::Continuous, 0.0, 0.0);
    }
    let hint = vec![0.0; p.num_vars()];
    for threads in [1usize, 2] {
        let actual: Vec<CapRow> = (1..=64)
            .map(|max_nodes| {
                let config = SolverConfig {
                    max_nodes,
                    num_threads: threads,
                    ..cfg()
                };
                let s = solve_milp_hinted(&p, &config, Some(&hint)).unwrap();
                let status = match s.status {
                    Status::Optimal => "optimal",
                    Status::LimitReached => "limit",
                    other => panic!("max_nodes={max_nodes}: unexpected status {other:?}"),
                };
                let gap = s.gap.expect("MILP solves report a gap");
                (
                    max_nodes,
                    status,
                    s.objective.to_bits(),
                    s.nodes,
                    s.iterations,
                    gap.to_bits(),
                )
            })
            .collect();
        if actual != NODE_CAP_SWEEP {
            let table: String = actual
                .iter()
                .map(|(cap, status, obj, nodes, iters, gap)| {
                    format!(
                        "    ({cap}, {status:?}, {obj:#018x}, {nodes}, {iters}, {gap:#018x}),\n"
                    )
                })
                .collect();
            panic!("threads={threads}: the node-cap sweep moved; actual rows:\n{table}");
        }
    }
}
