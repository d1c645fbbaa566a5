//! Translation of package queries into integer linear programs.
//!
//! "We will show how a PaQL query is translated into a linear program and
//! then solved using existing constraint solvers" (paper Section 7). The
//! translation introduces one integer variable `x_i ∈ [0, REPEAT]` per
//! candidate tuple; linear global constraints (COUNT/SUM, optionally
//! filtered) become linear rows, and the objective becomes the LP objective.
//!
//! Since the columnar refactor the translation is a projection of the
//! [`CandidateView`]: a COUNT/SUM term's coefficient column *is* its linear
//! row, so linearization never touches the base table or evaluates an
//! expression per tuple — it combines precomputed columns.
//!
//! Not every PaQL query is linearizable: MIN/MAX aggregates, `<>`
//! comparisons, and non-conjunctive formulas (OR/NOT) have no direct linear
//! form — exactly the "solver limitations" the paper discusses in Section 5.
//! Global AVG comparisons against constants *are* linearizable by the
//! classical multiply-through-by-COUNT rewrite
//! (`AVG(attr) ⋈ c ⟺ SUM(attr) − c·COUNT ⋈ 0 ∧ COUNT ≥ 1`); only the
//! genuinely non-linear AVG shapes (AVG vs AVG, AVG objectives) fall back to
//! enumeration or local search.

use lp_solver::{
    ConstraintOp, LinExpr, LpError, Problem, Sense, SolverConfig, Status, VarId, VarType,
};
use paql::{AggFunc, CmpOp, ObjectiveDirection};

use crate::budget::Budget;
use crate::error::PbError;
use crate::package::Package;
use crate::par::ParExec;
use crate::result::{EvalStats, StrategyUsed};
use crate::view::{CandidateView, CompiledConstraint, CompiledExpr, CompiledFormula};
use crate::PbResult;

/// A linear function of the candidate multiplicities: `Σ coeffs[i]·x_i + constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearAgg {
    /// Coefficient per candidate (indexed like the view's candidates).
    pub coeffs: Vec<f64>,
    /// Constant offset.
    pub constant: f64,
}

impl LinearAgg {
    fn constant(n: usize, value: f64) -> Self {
        LinearAgg {
            coeffs: vec![0.0; n],
            constant: value,
        }
    }

    fn combine(mut self, other: &LinearAgg, scale: f64) -> Self {
        for (a, b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *a += scale * b;
        }
        self.constant += scale * other.constant;
        self
    }

    fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    fn scale(mut self, k: f64) -> Self {
        for c in self.coeffs.iter_mut() {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

/// One linearized global constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// Coefficients per candidate.
    pub coeffs: Vec<f64>,
    /// Constraint direction.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Why a query could not be linearized (reported in diagnostics and used by
/// the auto-strategy to pick a fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NonLinearReason {
    /// The formula contains OR or NOT.
    NotConjunctive,
    /// An aggregate is AVG, MIN or MAX.
    NonLinearAggregate(&'static str),
    /// A `<>` comparison appears.
    NotEqualComparison,
    /// Aggregates are multiplied or divided by each other.
    NonLinearArithmetic,
    /// An AVG aggregate is compared against something other than a constant
    /// (e.g. AVG vs AVG): multiplying through by COUNT no longer yields a
    /// linear row.
    AvgVsNonConstant,
    /// An AVG aggregate appears in the objective, where there is no
    /// comparison to multiply through by COUNT.
    AvgInObjective,
}

impl std::fmt::Display for NonLinearReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonLinearReason::NotConjunctive => write!(f, "the SUCH THAT formula contains OR/NOT"),
            NonLinearReason::NonLinearAggregate(a) => {
                write!(f, "aggregate {a} is not linear in tuple multiplicities")
            }
            NonLinearReason::NotEqualComparison => write!(f, "'<>' comparisons are not linear"),
            NonLinearReason::NonLinearArithmetic => {
                write!(f, "aggregates are multiplied or divided together")
            }
            NonLinearReason::AvgVsNonConstant => {
                write!(
                    f,
                    "AVG is only linearizable when compared against a constant bound"
                )
            }
            NonLinearReason::AvgInObjective => {
                write!(f, "an AVG objective has no comparison to linearize against")
            }
        }
    }
}

/// Linearizes a compiled global expression into coefficients over the
/// candidates. COUNT/SUM terms contribute their precomputed coefficient
/// columns verbatim; AVG/MIN/MAX terms are the non-linear obstacle.
pub fn linearize_expr(
    view: &CandidateView,
    expr: &CompiledExpr,
) -> Result<LinearAgg, NonLinearReason> {
    let n = view.candidate_count();
    match expr {
        CompiledExpr::Literal(x) => Ok(LinearAgg::constant(n, *x)),
        CompiledExpr::Term(id) => {
            let term = &view.terms()[*id];
            if !term.func.is_linear() {
                return Err(NonLinearReason::NonLinearAggregate(term.func.name()));
            }
            debug_assert!(matches!(term.func, AggFunc::Count | AggFunc::Sum));
            Ok(LinearAgg {
                coeffs: term.coeffs_vec(),
                constant: 0.0,
            })
        }
        CompiledExpr::Binary { op, lhs, rhs } => {
            let l = linearize_expr(view, lhs)?;
            let r = linearize_expr(view, rhs)?;
            use paql::ast::GlobalArithOp::*;
            match op {
                Add => Ok(l.combine(&r, 1.0)),
                Sub => Ok(l.combine(&r, -1.0)),
                Mul => {
                    if l.is_constant() {
                        Ok(r.scale(l.constant))
                    } else if r.is_constant() {
                        Ok(l.scale(r.constant))
                    } else {
                        Err(NonLinearReason::NonLinearArithmetic)
                    }
                }
                Div => {
                    if r.is_constant() && r.constant != 0.0 {
                        Ok(l.scale(1.0 / r.constant))
                    } else {
                        Err(NonLinearReason::NonLinearArithmetic)
                    }
                }
            }
        }
    }
}

/// Strict inequalities are approximated by a small epsilon; package
/// attribute sums are far coarser than 1e-6 in every workload we generate.
const EPS: f64 = 1e-6;

/// Translates a comparison into `ConstraintOp` + rhs, with the epsilon
/// approximation for strict inequalities. `<>` has no linear form.
fn comparison_row(op: CmpOp, bound: f64) -> Result<(ConstraintOp, f64), NonLinearReason> {
    Ok(match op {
        CmpOp::LtEq => (ConstraintOp::Le, bound),
        CmpOp::Lt => (ConstraintOp::Le, bound - EPS),
        CmpOp::GtEq => (ConstraintOp::Ge, bound),
        CmpOp::Gt => (ConstraintOp::Ge, bound + EPS),
        CmpOp::Eq => (ConstraintOp::Eq, bound),
        CmpOp::NotEq => return Err(NonLinearReason::NotEqualComparison),
    })
}

/// The term id when `expr` is a lone AVG aggregate call.
fn lone_avg_term(view: &CandidateView, expr: &CompiledExpr) -> Option<usize> {
    match expr {
        CompiledExpr::Term(id) if view.terms()[*id].func == AggFunc::Avg => Some(*id),
        _ => None,
    }
}

/// Mirrors a comparison when its operands are swapped (`a op b` ⟺ `b op' a`).
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::NotEq => CmpOp::NotEq,
    }
}

/// Linearizes a global AVG comparison against a constant:
/// `AVG(attr) ⋈ c  ⟺  SUM(attr) − c·COUNT(included) ⋈ 0  ∧  COUNT(included) ≥ 1`.
///
/// The multiplication by COUNT is sound because the support row forces a
/// positive count; the support row itself encodes that `AVG ⋈ c` is
/// *unsatisfied* (not vacuously true) when the aggregate is NULL, exactly
/// matching the interpreted and columnar evaluation semantics. The COUNT in
/// both rows uses the AVG term's own inclusion mask, so `FILTER`ed AVG
/// aggregates divide by the filtered count, as they should.
fn linearize_avg_comparison(
    view: &CandidateView,
    term_id: usize,
    op: CmpOp,
    bound: f64,
) -> Result<Vec<LinearConstraint>, NonLinearReason> {
    let term = &view.terms()[term_id];
    // One chunk pin serves both rows (paged columns fault each page once).
    let mut main: Vec<f64> = Vec::with_capacity(term.len());
    let mut support: Vec<f64> = Vec::with_capacity(term.len());
    for c in 0..term.chunk_meta().len() {
        let chunk = term.chunk(c);
        let coeffs = chunk.coeffs();
        for (i, &x) in coeffs.iter().enumerate() {
            if chunk.included(i) {
                main.push(x - bound);
                support.push(1.0);
            } else {
                main.push(0.0);
                support.push(0.0);
            }
        }
    }
    let (row_op, rhs) = comparison_row(op, 0.0)?;
    Ok(vec![
        LinearConstraint {
            coeffs: main,
            op: row_op,
            rhs,
        },
        LinearConstraint {
            coeffs: support,
            op: ConstraintOp::Ge,
            rhs: 1.0,
        },
    ])
}

/// Linearizes one compiled constraint into `Σ c_i x_i op rhs` rows — one row
/// for a plain linear comparison, two for an AVG-vs-constant comparison (the
/// multiplied-through row plus its non-NULL support row).
pub fn linearize_constraint(
    view: &CandidateView,
    c: &CompiledConstraint,
) -> Result<Vec<LinearConstraint>, NonLinearReason> {
    let lhs = linearize_expr(view, &c.lhs);
    let rhs = linearize_expr(view, &c.rhs);
    if let (Ok(lhs), Ok(rhs)) = (&lhs, &rhs) {
        // Move everything to the left: (lhs - rhs) op 0.
        let diff = lhs.clone().combine(rhs, -1.0);
        let bound = -diff.constant;
        let (op, rhs) = comparison_row(c.op, bound)?;
        return Ok(vec![LinearConstraint {
            coeffs: diff.coeffs,
            op,
            rhs,
        }]);
    }
    // The direct path failed; a global AVG compared against a constant is
    // still classically linearizable by multiplying through by COUNT.
    match (lone_avg_term(view, &c.lhs), lone_avg_term(view, &c.rhs)) {
        (Some(id), None) => match rhs {
            Ok(r) if r.is_constant() => linearize_avg_comparison(view, id, c.op, r.constant),
            Ok(_) | Err(NonLinearReason::NonLinearAggregate("AVG")) => {
                Err(NonLinearReason::AvgVsNonConstant)
            }
            Err(e) => Err(e),
        },
        (None, Some(id)) => match lhs {
            Ok(l) if l.is_constant() => {
                linearize_avg_comparison(view, id, mirror(c.op), l.constant)
            }
            Ok(_) | Err(NonLinearReason::NonLinearAggregate("AVG")) => {
                Err(NonLinearReason::AvgVsNonConstant)
            }
            Err(e) => Err(e),
        },
        (Some(_), Some(_)) => Err(NonLinearReason::AvgVsNonConstant),
        (None, None) => {
            // Reaching this arm means the direct path above failed, so at
            // least one side carries an error; if both somehow linearized,
            // degrade to the generic obstacle rather than panicking
            // mid-solve on a user query.
            let err = lhs
                .err()
                .or(rhs.err())
                .unwrap_or(NonLinearReason::AvgVsNonConstant);
            // An AVG buried inside arithmetic (e.g. `2 * AVG(x) <= 10`) is
            // reported with the precise AVG reason rather than the generic
            // aggregate obstacle.
            if err == NonLinearReason::NonLinearAggregate("AVG") {
                Err(NonLinearReason::AvgVsNonConstant)
            } else {
                Err(err)
            }
        }
    }
}

/// Appends the ids of every SUM term reachable from `expr`. SUM shares SQL's
/// NULL-over-empty semantics with AVG: a SUM whose inclusion set is empty
/// (all members FILTERed out, or an empty package) is NULL, and a constraint
/// with a NULL side is *unsatisfied* — never vacuously true. The direct
/// linearization maps that empty sum to 0, so each of these terms needs a
/// non-NULL support row. COUNT needs none: it is 0 over the empty set, never
/// NULL.
fn collect_sum_terms(view: &CandidateView, expr: &CompiledExpr, out: &mut Vec<usize>) {
    match expr {
        CompiledExpr::Literal(_) => {}
        CompiledExpr::Term(id) => {
            if view.terms()[*id].func == AggFunc::Sum {
                out.push(*id);
            }
        }
        CompiledExpr::Binary { lhs, rhs, .. } => {
            collect_sum_terms(view, lhs, out);
            collect_sum_terms(view, rhs, out);
        }
    }
}

/// The term id when `expr` is a lone SUM aggregate call.
fn lone_sum_term(view: &CandidateView, expr: &CompiledExpr) -> Option<usize> {
    match expr {
        CompiledExpr::Term(id) if view.terms()[*id].func == AggFunc::Sum => Some(*id),
        _ => None,
    }
}

/// Whether `0 op bound` holds — i.e. whether a SUM whose inclusion set is
/// empty could still satisfy a lone comparison against `bound` under the
/// (wrong) 0-for-NULL reading. When it cannot, the comparison row itself
/// already excludes the empty subset and the term needs no support row —
/// keeping the common `SUM(x) ≥ large` shapes at one dense row instead of
/// two matters for LP pivot cost on big candidate sets.
fn zero_satisfies(op: CmpOp, bound: f64) -> bool {
    match op {
        CmpOp::Lt => 0.0 < bound,
        CmpOp::LtEq => 0.0 <= bound,
        CmpOp::Gt => 0.0 > bound,
        CmpOp::GtEq => 0.0 >= bound,
        CmpOp::Eq => bound == 0.0,
        CmpOp::NotEq => bound != 0.0,
    }
}

/// The non-NULL support row for a term: `Σ included_i · x_i ≥ 1`, i.e. the
/// package holds at least one member the term's FILTER admits. Mirrors the
/// support row [`linearize_avg_comparison`] emits for AVG.
fn support_row(view: &CandidateView, term_id: usize) -> LinearConstraint {
    let coeffs = view.terms()[term_id]
        .included_vec()
        .into_iter()
        .map(|included| if included { 1.0 } else { 0.0 })
        .collect();
    LinearConstraint {
        coeffs,
        op: ConstraintOp::Ge,
        rhs: 1.0,
    }
}

/// Collects the atoms of a compiled formula when it is purely conjunctive.
fn conjunctive_atoms(f: &CompiledFormula) -> Option<Vec<&CompiledConstraint>> {
    fn walk<'a>(f: &'a CompiledFormula, out: &mut Vec<&'a CompiledConstraint>) -> bool {
        match f {
            CompiledFormula::Atom(c) => {
                out.push(c);
                true
            }
            CompiledFormula::And(a, b) => walk(a, out) && walk(b, out),
            CompiledFormula::Or(..) | CompiledFormula::Not(_) => false,
        }
    }
    let mut out = Vec::new();
    walk(f, &mut out).then_some(out)
}

/// Linearizes the view's `SUCH THAT` formula (must be conjunctive). Views
/// without a formula linearize to no constraints; AVG-vs-constant atoms
/// contribute two rows each (see [`linearize_constraint`]), and every
/// distinct SUM term appearing in a constraint contributes one non-NULL
/// support row (see `collect_sum_terms`) so the linear relaxation cannot
/// satisfy `SUM(…) FILTER (…) ⋈ c` by emptying the filtered subset — the
/// engine's SQL semantics make that sum NULL and the constraint unsatisfied.
pub fn linearize_formula(view: &CandidateView) -> Result<Vec<LinearConstraint>, NonLinearReason> {
    let formula = match view.compiled_formula() {
        None => return Ok(Vec::new()),
        Some(f) => f,
    };
    let atoms = conjunctive_atoms(formula).ok_or(NonLinearReason::NotConjunctive)?;
    let mut rows = Vec::with_capacity(atoms.len());
    let mut sum_terms = Vec::new();
    let mut covered = Vec::new();
    for c in atoms {
        rows.extend(linearize_constraint(view, c)?);
        collect_sum_terms(view, &c.lhs, &mut sum_terms);
        collect_sum_terms(view, &c.rhs, &mut sum_terms);
        // A lone `SUM ⋈ constant` atom that the empty subset fails (e.g.
        // `SUM(x) ≥ 150000`) already excludes that subset through its own
        // comparison row; its term needs no separate support row.
        if let Some(id) = lone_sum_term(view, &c.lhs) {
            if let Ok(r) = linearize_expr(view, &c.rhs) {
                if r.is_constant() && !zero_satisfies(c.op, r.constant) {
                    covered.push(id);
                }
            }
        } else if let Some(id) = lone_sum_term(view, &c.rhs) {
            if let Ok(l) = linearize_expr(view, &c.lhs) {
                if l.is_constant() && !zero_satisfies(mirror(c.op), l.constant) {
                    covered.push(id);
                }
            }
        }
    }
    sum_terms.sort_unstable();
    sum_terms.dedup();
    sum_terms.retain(|id| !covered.contains(id));
    // Distinct terms often share one inclusion mask — a wide schema FILTERing
    // many columns by the same handful of predicates (the `wide` gauntlet
    // family) would otherwise emit one identical dense row per column. The
    // support row depends only on the mask, so one row per mask suffices.
    let mut seen_masks: Vec<Vec<bool>> = Vec::new();
    for id in sum_terms {
        let mask = view.terms()[id].included_vec();
        if seen_masks.contains(&mask) {
            continue;
        }
        rows.push(support_row(view, id));
        seen_masks.push(mask);
    }
    Ok(rows)
}

/// Linearizes the view's objective, when it has one. An AVG objective stays
/// rejected — there is no comparison to multiply the COUNT through.
pub fn linearize_objective(view: &CandidateView) -> Result<Option<LinearAgg>, NonLinearReason> {
    match view.compiled_objective() {
        None => Ok(None),
        Some(expr) => match linearize_expr(view, expr) {
            Err(NonLinearReason::NonLinearAggregate("AVG")) => Err(NonLinearReason::AvgInObjective),
            other => other.map(Some),
        },
    }
}

/// Checks whether the whole query (formula + objective) is linearizable,
/// returning the first obstacle found.
pub fn linearization_obstacle(view: &CandidateView) -> Option<NonLinearReason> {
    if let Err(r) = linearize_formula(view) {
        return Some(r);
    }
    if let Err(r) = linearize_objective(view) {
        return Some(r);
    }
    None
}

/// The translated ILP together with its variable mapping.
pub struct IlpTranslation {
    /// The MILP problem (one integer variable per candidate).
    pub problem: Problem,
    /// Variable ids, indexed like the view's candidates.
    pub vars: Vec<VarId>,
}

/// Translates a view into an ILP.
pub fn translate(view: &CandidateView) -> PbResult<IlpTranslation> {
    let sense = match view.direction() {
        ObjectiveDirection::Maximize => Sense::Maximize,
        ObjectiveDirection::Minimize => Sense::Minimize,
    };
    let mut problem = Problem::new(sense);
    // One unnamed variable per candidate: `x{i}` is generated only if a
    // diagnostic ever needs it.
    let max_multiplicity = view.max_multiplicity() as f64;
    let vars: Vec<VarId> = (0..view.candidate_count())
        .map(|_| problem.add_unnamed_var(VarType::Integer, 0.0, max_multiplicity))
        .collect();

    let constraints = linearize_formula(view)
        .map_err(|r| PbError::Unsupported(format!("cannot translate to ILP: {r}")))?;
    for (idx, lc) in constraints.into_iter().enumerate() {
        // Ascending variables: every term takes `LinExpr`'s append path.
        let mut expr = LinExpr::new();
        for (i, &c) in lc.coeffs.iter().enumerate() {
            expr.add_term(vars[i], c);
        }
        problem.add_constraint(format!("g{idx}"), expr, lc.op, lc.rhs);
    }

    let objective = linearize_objective(view)
        .map_err(|r| PbError::Unsupported(format!("cannot translate objective to ILP: {r}")))?;
    if let Some(lin) = objective {
        for (i, c) in lin.coeffs.iter().enumerate() {
            if *c != 0.0 {
                problem.set_objective_coeff(vars[i], *c);
            }
        }
    }
    Ok(IlpTranslation { problem, vars })
}

/// Result of the ILP strategy.
pub struct IlpOutcome {
    /// Valid packages found, best first, with their objective values.
    pub packages: Vec<(Package, Option<f64>)>,
    /// True when every solve ran to proven optimality; false when a time,
    /// node or cancellation limit stopped the search (the packages are then
    /// the best incumbents found, not provably optimal).
    pub complete: bool,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

/// Solves a view with the ILP strategy, returning up to `num_packages`
/// packages (additional packages require binary multiplicities and use
/// no-good cuts, per the paper's Section 5 discussion).
///
/// The `budget` is threaded down to the branch-and-bound node loop and the
/// simplex pivot loop; on expiry the incumbents found so far come back with
/// `complete: false` rather than an error.
pub fn solve_ilp(
    view: &CandidateView,
    solver: &SolverConfig,
    num_packages: usize,
    budget: &Budget,
) -> PbResult<IlpOutcome> {
    solve_ilp_par(view, solver, num_packages, budget, ParExec::sequential())
}

/// [`solve_ilp`] with a thread budget: `par.threads()` is handed to the
/// branch-and-bound layer (via [`SolverConfig::num_threads`]), which solves
/// each frontier batch's LP relaxations concurrently once the LP is big
/// enough to pay for it — rows × columns of at least one
/// [`crate::par::CHUNK_WIDTH`]; smaller LPs, sketch-refine sub-ILPs among
/// them, keep their batches inline. Results are bit-identical at every
/// thread count — the solver's batch boundaries and merge order are fixed —
/// so this is purely a latency knob.
pub fn solve_ilp_par(
    view: &CandidateView,
    solver: &SolverConfig,
    num_packages: usize,
    budget: &Budget,
    par: ParExec,
) -> PbResult<IlpOutcome> {
    // pb-lint: allow(time-containment) — stats clock only: stamps
    // solve_time_ms on the outcome; the deadline lives in the budget.
    let start = std::time::Instant::now();
    // An already-spent budget skips even the translation (building one
    // variable and row set per candidate is itself linear in the view).
    if budget.expired() {
        return Ok(IlpOutcome {
            packages: Vec::new(),
            complete: false,
            stats: EvalStats {
                strategy: StrategyUsed::Ilp,
                candidates: view.candidate_count(),
                nodes: 0,
                iterations: 0,
                cold_solves: 0,
                elapsed: start.elapsed(),
            },
        });
    }
    let IlpTranslation { mut problem, vars } = translate(view)?;
    let mut config = solver.clone();
    budget.apply_to_solver(&mut config);
    config.num_threads = par.threads();

    let mut packages = Vec::new();
    let mut complete = true;
    let mut total_iterations = 0usize;
    let mut total_nodes = 0usize;
    let mut total_cold_solves = 0usize;

    let want = num_packages.max(1);
    for round in 0..want {
        if budget.expired() {
            complete = false;
            break;
        }
        let solution = match lp_solver::solve(&problem, &config) {
            // Limits without an incumbent are a truncated search, not a
            // failed one: report what previous rounds found, non-optimal.
            Err(LpError::Interrupted) | Err(LpError::NodeLimit) => {
                complete = false;
                break;
            }
            other => other?,
        };
        total_iterations += solution.iterations;
        total_nodes += solution.nodes;
        total_cold_solves += solution.cold_solves;
        if solution.status == Status::LimitReached {
            complete = false;
        }
        if !solution.status.has_solution() {
            break;
        }
        if solution.status == Status::Unbounded {
            return Err(PbError::Unsupported(
                "the package objective is unbounded (add an upper cardinality or budget constraint)".into(),
            ));
        }
        let mut package = Package::new();
        for (i, &var) in vars.iter().enumerate() {
            let mult = solution.value_rounded(var);
            if mult > 0 {
                package.add(view.candidates()[i], mult as u32);
            }
        }
        // The solver result should always be valid; re-check defensively so a
        // numerical artefact can never surface as a wrong answer.
        if !view.is_valid(&package) {
            return Err(PbError::Internal(
                "solver returned a package that fails validation".into(),
            ));
        }
        let objective = view.objective_value(&package);
        packages.push((package, objective));

        if round + 1 < want {
            if view.max_multiplicity() > 1 {
                // No-good cuts need binary variables; stop after the first
                // package for REPEAT queries (documented limitation).
                break;
            }
            lp_solver::cuts::add_no_good_cut(
                &mut problem,
                &solution,
                &vars,
                format!("cut{round}"),
            )?;
        }
    }

    Ok(IlpOutcome {
        packages,
        complete,
        stats: EvalStats {
            strategy: StrategyUsed::Ilp,
            candidates: view.candidate_count(),
            nodes: total_nodes as u64,
            iterations: total_iterations as u64,
            cold_solves: total_cold_solves as u64,
            elapsed: start.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BuildCtx, PackageSpec};
    use datagen::{recipes, stocks, Seed};
    use minidb::Table;
    use paql::compile;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap()
    }

    #[test]
    fn meal_plan_query_translates_and_solves() {
        let t = recipes(120, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        );
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.packages.len(), 1);
        let (pkg, obj) = &out.packages[0];
        assert_eq!(pkg.cardinality(), 3);
        assert!(spec.is_valid(pkg).unwrap());
        assert!(obj.unwrap() > 0.0);
    }

    #[test]
    fn linearize_detects_non_linear_queries() {
        let t = recipes(50, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 OR COUNT(*) = 4",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::NotConjunctive)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) <> 3",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::NotEqualComparison)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.calories) * SUM(P.protein) <= 100",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::NonLinearArithmetic)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT MIN(P.calories) >= 100 AND COUNT(*) = 3",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::NonLinearAggregate("MIN"))
        ));
    }

    #[test]
    fn avg_against_constants_is_linearizable_but_avg_vs_avg_is_not() {
        let t = recipes(50, Seed(2));
        // AVG ⋈ constant (either side, BETWEEN included) linearizes now.
        for q in [
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.calories) <= 600 AND COUNT(*) = 3",
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT 600 >= AVG(P.calories) AND COUNT(*) = 3",
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND AVG(P.calories) BETWEEN 400 AND 700 MAXIMIZE SUM(P.protein)",
        ] {
            let spec = spec_for(&t, q);
            assert!(
                linearization_obstacle(spec.view()).is_none(),
                "expected linearizable: {q}"
            );
        }
        // AVG vs AVG and AVG inside arithmetic stay rejected, precisely.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.calories) >= AVG(P.protein)",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::AvgVsNonConstant)
        ));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.calories) <= SUM(P.protein)",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::AvgVsNonConstant)
        ));
        // An AVG objective has no comparison to multiply through.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 MAXIMIZE AVG(P.protein)",
        );
        assert!(matches!(
            linearization_obstacle(spec.view()),
            Some(NonLinearReason::AvgInObjective)
        ));
    }

    #[test]
    fn avg_constrained_queries_solve_via_ilp_and_match_enumeration() {
        let t = recipes(16, Seed(9));
        let q = "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = 3 AND AVG(P.calories) BETWEEN 400 AND 700 \
                 MAXIMIZE SUM(P.protein)";
        let spec = spec_for(&t, q);
        let ilp = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        let oracle = crate::enumerate::enumerate(
            spec.view(),
            crate::enumerate::EnumerationOptions::default(),
        )
        .unwrap();
        assert!(oracle.complete, "oracle must be exact");
        let a = ilp.packages.first().map(|(_, o)| o.unwrap());
        let b = oracle.packages.first().map(|(_, o)| o.unwrap());
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6, "ilp {x} vs enumeration {y}"),
            (None, None) => {}
            other => panic!("ilp and enumeration disagree on feasibility: {other:?}"),
        }
        for (p, _) in &ilp.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    #[test]
    fn avg_linearization_never_accepts_the_empty_aggregate() {
        // AVG(x) <= c over an empty (or fully filtered-out) member set is
        // NULL, which does NOT satisfy the constraint; the support row must
        // keep the ILP from exploiting 0 − c·0 ⋈ 0 vacuously.
        let t = recipes(30, Seed(10));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT AVG(P.calories) FILTER (WHERE R.gluten = 'free') <= 600 \
             MINIMIZE COUNT(*)",
        );
        assert!(linearization_obstacle(spec.view()).is_none());
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        // The minimizer would love the empty package, but that makes the AVG
        // NULL: any returned package must contain a gluten-free member.
        let (pkg, _) = out.packages.first().expect("a singleton package exists");
        assert!(pkg.cardinality() >= 1);
        assert!(spec.is_valid(pkg).unwrap());
    }

    #[test]
    fn filtered_aggregates_and_ratios_stay_linear() {
        let t = stocks(150, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT SUM(P.price) <= 50000 AND \
                       SUM(P.price) FILTER (WHERE S.sector = 'technology') >= 0.3 * SUM(P.price) AND \
                       COUNT(*) >= 5 \
             MAXIMIZE SUM(P.expected_return)",
        );
        assert!(linearization_obstacle(spec.view()).is_none());
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        let (pkg, _) = &out.packages[0];
        assert!(spec.is_valid(pkg).unwrap());
        // Verify the 30% constraint numerically.
        let total: f64 = pkg
            .members()
            .map(|(tid, m)| t.value_f64(tid, "price").unwrap() * m as f64)
            .sum();
        let tech: f64 = pkg
            .members()
            .filter(|(tid, _)| {
                t.require(*tid)
                    .unwrap()
                    .get_named("sector")
                    .unwrap()
                    .to_string()
                    == "technology"
            })
            .map(|(tid, m)| t.value_f64(tid, "price").unwrap() * m as f64)
            .sum();
        assert!(total <= 50_000.0 + 1e-6);
        assert!(tech >= 0.3 * total - 1e-6);
    }

    #[test]
    fn infeasible_queries_return_no_packages() {
        let t = recipes(60, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) >= 100000",
        );
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(out.packages.is_empty());
    }

    #[test]
    fn multiple_packages_via_no_good_cuts_are_distinct_and_ordered() {
        let t = recipes(40, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 \
             MAXIMIZE SUM(P.protein)",
        );
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            4,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.packages.len(), 4);
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
        // Distinct supports.
        for i in 0..out.packages.len() {
            for j in i + 1..out.packages.len() {
                assert_ne!(out.packages[i].0, out.packages[j].0);
            }
        }
        // Non-increasing objective.
        for w in out.packages.windows(2) {
            assert!(w[0].1.unwrap() >= w[1].1.unwrap() - 1e-6);
        }
    }

    #[test]
    fn repeat_queries_use_multiplicities() {
        let t = recipes(30, Seed(6));
        // Each REPEAT bound relaxes the last, so the optimum cannot fall as
        // k grows, and no member repeats past k.
        let mut last = f64::NEG_INFINITY;
        for k in 1..=4u32 {
            let spec = spec_for(
                &t,
                &format!(
                    "SELECT PACKAGE(R) AS P FROM recipes R REPEAT {k} \
                     SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 4200 MAXIMIZE SUM(P.protein)"
                ),
            );
            let out = solve_ilp(
                spec.view(),
                &SolverConfig::default(),
                1,
                &Budget::unlimited(),
            )
            .unwrap();
            let (pkg, objective) = &out.packages[0];
            assert_eq!(pkg.cardinality(), 3);
            assert!(pkg.max_multiplicity() <= k, "REPEAT {k}");
            assert!(spec.is_valid(pkg).unwrap());
            let objective = objective.unwrap();
            assert!(objective >= last - 1e-9, "REPEAT {k}: {objective} < {last}");
            last = objective;
        }
    }

    #[test]
    fn unbounded_objective_is_reported() {
        let t = recipes(30, Seed(7));
        // No cardinality bound and REPEAT 1 still bounds the objective, so use
        // a spec with no constraints at all but minimize: minimizing protein
        // yields the empty package (objective NULL→None) — check that the ILP
        // path handles the no-constraint case gracefully instead.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R MAXIMIZE SUM(P.protein)",
        );
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        // Every recipe has positive protein → optimum takes all of them.
        let (pkg, _) = &out.packages[0];
        assert_eq!(pkg.cardinality(), 30);
    }

    #[test]
    fn linear_rows_equal_the_view_columns() {
        let t = recipes(25, Seed(8));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT SUM(P.calories) <= 2000 MAXIMIZE SUM(P.protein)",
        );
        let rows = linearize_formula(spec.view()).unwrap();
        // The comparison row plus the SUM term's non-NULL support row.
        assert_eq!(rows.len(), 2);
        // The SUM(calories) row is the calories column verbatim.
        for (i, &tid) in spec.candidates.iter().enumerate() {
            let cal = t.value_f64(tid, "calories").unwrap();
            assert!((rows[0].coeffs[i] - cal).abs() < 1e-12);
        }
        // The support row admits every candidate (no FILTER) and demands one.
        assert_eq!(rows[1].op, ConstraintOp::Ge);
        assert!((rows[1].rhs - 1.0).abs() < 1e-12);
        assert!(rows[1].coeffs.iter().all(|&c| c == 1.0));
    }

    #[test]
    fn filtered_sum_constraints_never_accept_the_empty_subset() {
        // Regression test from the gauntlet's wide family: with
        // `SUM(x) FILTER (WHERE …) <= c` the linear relaxation used to treat
        // an empty filtered subset as 0 <= c and return packages with no
        // qualifying member — which the engine's SQL NULL semantics reject
        // (`SUM` over an empty set is NULL, and a NULL side never satisfies
        // its constraint). The support row makes the ILP's feasible region
        // exactly the engine-valid packages again.
        let scenario = datagen::scenario("wide").expect("wide family is registered");
        let table = (scenario.build)(40, Seed(23));
        let spec = spec_for(&table, &scenario.exact_query);
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
        )
        .unwrap();
        let (pkg, _) = out.packages.first().expect("the window is feasible");
        assert!(spec.is_valid(pkg).unwrap());
        assert!(spec.is_valid_interpreted(pkg).unwrap());
        // The FILTERed term's subset is genuinely non-empty.
        assert!(pkg.members().any(|(tid, _)| {
            table
                .require(tid)
                .unwrap()
                .get_named("grp")
                .unwrap()
                .to_string()
                == "g01"
        }));
    }
}
