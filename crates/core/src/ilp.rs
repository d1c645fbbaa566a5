//! Translation of package queries into integer linear programs.
//!
//! "We will show how a PaQL query is translated into a linear program and
//! then solved using existing constraint solvers" (paper Section 7). The
//! translation introduces one integer variable `x_i ∈ [0, REPEAT]` per
//! candidate tuple; linear global constraints (COUNT/SUM, optionally
//! filtered) become linear rows, and the objective becomes the LP objective.
//!
//! A row is linearized once. `linearize` is symbolic: it turns the
//! compiled formula and objective into linear forms over the view's term
//! ids, reading no column, so the planner can ask whether a query
//! linearizes at any candidate count. Its writer fills every dense row and
//! the objective in one pass over the term columns' chunk cursors, resident
//! or paged, pinning each term once per chunk; every solver that needs rows
//! takes them from there, and the ILP and the sketch family's sketches and
//! refine ILP build their `Problem` through one builder, `package_problem`.
//!
//! [`IlpSolver`] is the strategy's one entry point, the
//! [`crate::solver::Solver`] impl: it translates the whole view and solves
//! it by branch and bound, reading every setting from
//! [`crate::solver::SolveOptions`]; its [`EvalStats`] sum the nodes,
//! simplex iterations and cold starts of every round.
//!
//! Not every PaQL query is linearizable: MIN/MAX aggregates, `<>`
//! comparisons, and non-conjunctive formulas (OR/NOT) have no direct linear
//! form — exactly the "solver limitations" the paper discusses in Section 5.
//! Global AVG comparisons against constants *are* linearizable by the
//! classical multiply-through-by-COUNT rewrite
//! (`AVG(attr) ⋈ c ⟺ SUM(attr) − c·COUNT ⋈ 0 ∧ COUNT ≥ 1`); only the
//! genuinely non-linear AVG shapes (AVG vs AVG, AVG objectives) fall back to
//! enumeration or local search. Whether a query linearizes depends on the
//! query alone, never on the values its term columns hold.
//!
//! A strict comparison whose row has integer coefficients takes the exact
//! integral bound (`Σ < c` ⟺ `Σ ≤ ⌈c⌉ − 1`); any other is moved off its
//! bound by `STRICT_MARGIN`.

use lp_solver::{
    ConstraintOp, LinExpr, LpError, Problem, Sense, Status, VarId, VarType, INCUMBENT_TOLERANCE,
};
use paql::{AggFunc, CmpOp, ObjectiveDirection};

use crate::error::PbError;
use crate::package::Package;
use crate::par::{chunk_count, chunk_range};
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{SolveOptions, SolveOutcome, Solver};
use crate::view::{
    CandidateView, ColumnChunk, CompiledConstraint, CompiledExpr, CompiledFormula, TermColumn,
};
use crate::PbResult;

/// How far a strict comparison's fractional row moves off its bound: twice
/// the slack branch and bound accepts an incumbent within, so `Σ = c` fails
/// `Σ < c`'s row for every `|c|` below about 10^10 (where one unit in the
/// last place of `c` reaches that slack). Closer sums are lost to the ILP.
pub(crate) const STRICT_MARGIN: f64 = 2.0 * INCUMBENT_TOLERANCE;

/// How every lane of a row — one coefficient per candidate — is computed
/// from the view's term columns: the formula's arithmetic, lane by lane, in
/// its order. A literal's `+0.0` lanes are added like any other (`x + 0.0`
/// turns `-0.0` into `+0.0`), so every signed zero comes out as the
/// arithmetic says.
#[derive(Debug, Clone)]
enum Lanes {
    /// A literal's lanes: `+0.0` everywhere.
    Zero,
    /// Term `t`'s coefficient column, verbatim.
    Term(usize),
    /// `a + k·b` (`k` is 1 for `+`, −1 for `−`).
    Combine(Box<Lanes>, Box<Lanes>, f64),
    /// `a·k`.
    Scale(Box<Lanes>, f64),
    /// `x − c` where term `t` includes the lane, `0.0` elsewhere: an AVG
    /// comparison multiplied through by the term's own COUNT.
    Centered(usize, f64),
    /// `1.0` where term `t` includes the lane, `0.0` elsewhere: the term's
    /// non-NULL support row.
    Mask(usize),
}

/// A linear function of the candidate multiplicities,
/// `Σ lanes_i·x_i + constant`, over the view's term ids.
#[derive(Debug, Clone)]
struct Form {
    lanes: Lanes,
    constant: f64,
    /// Whether an aggregate term appears; without one the form is the
    /// constant, whatever the lanes hold.
    has_terms: bool,
}

impl Form {
    fn combine(self, other: Form, k: f64) -> Self {
        Form {
            lanes: Lanes::Combine(Box::new(self.lanes), Box::new(other.lanes), k),
            constant: self.constant + k * other.constant,
            has_terms: self.has_terms || other.has_terms,
        }
    }

    fn scale(self, k: f64) -> Self {
        Form {
            lanes: Lanes::Scale(Box::new(self.lanes), k),
            constant: self.constant * k,
            has_terms: self.has_terms,
        }
    }
}

/// One constraint row, symbolically: `Σ lanes_i·x_i op bound`.
#[derive(Debug, Clone)]
struct RowForm {
    lanes: Lanes,
    op: CmpOp,
    bound: f64,
}

impl RowForm {
    /// The row `lanes op bound`; `<>` has no linear form.
    fn new(lanes: Lanes, op: CmpOp, bound: f64) -> Result<Self, NonLinearReason> {
        if op == CmpOp::NotEq {
            return Err(NonLinearReason::NotEqualComparison);
        }
        Ok(RowForm { lanes, op, bound })
    }

    /// The non-NULL support row of term `t`: `Σ included_i · x_i ≥ 1`, i.e.
    /// the package holds at least one member the term's FILTER admits.
    fn support(t: usize) -> Self {
        RowForm {
            lanes: Lanes::Mask(t),
            op: CmpOp::GtEq,
            bound: 1.0,
        }
    }

    /// The row over its written `coeffs`, a strict comparison's bound
    /// resolved against them (see the module docs).
    fn finish(&self, coeffs: Vec<f64>) -> LinearConstraint {
        let integral = || coeffs.iter().all(|a| a.fract() == 0.0);
        let (op, rhs) = match self.op {
            CmpOp::Lt if integral() => (ConstraintOp::Le, self.bound.ceil() - 1.0),
            CmpOp::Lt => (ConstraintOp::Le, self.bound - STRICT_MARGIN),
            CmpOp::LtEq => (ConstraintOp::Le, self.bound),
            CmpOp::Gt if integral() => (ConstraintOp::Ge, self.bound.floor() + 1.0),
            CmpOp::Gt => (ConstraintOp::Ge, self.bound + STRICT_MARGIN),
            CmpOp::GtEq => (ConstraintOp::Ge, self.bound),
            // `RowForm::new` turns `<>` away.
            CmpOp::Eq | CmpOp::NotEq => (ConstraintOp::Eq, self.bound),
        };
        LinearConstraint {
            coeffs,
            op,
            rhs,
            bound: self.bound,
        }
    }
}

/// One linearized global constraint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearConstraint {
    /// Coefficients per candidate.
    pub coeffs: Vec<f64>,
    /// Constraint direction.
    pub op: ConstraintOp,
    /// Right-hand side for an LP: `bound`, tightened past it for a strict
    /// comparison (see the module docs).
    pub rhs: f64,
    /// The bound as the query wrote it, moved to the right-hand side.
    pub bound: f64,
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

/// The linear form of a compiled global expression. COUNT/SUM terms are
/// their coefficient columns; AVG/MIN/MAX terms are the non-linear obstacle.
fn form_of(view: &CandidateView, expr: &CompiledExpr) -> Result<Form, NonLinearReason> {
    match expr {
        CompiledExpr::Literal(x) => Ok(Form {
            lanes: Lanes::Zero,
            constant: *x,
            has_terms: false,
        }),
        CompiledExpr::Term(id) => {
            let func = view.terms()[*id].func;
            if !func.is_linear() {
                return Err(NonLinearReason::NonLinearAggregate(func.name()));
            }
            debug_assert!(matches!(func, AggFunc::Count | AggFunc::Sum));
            Ok(Form {
                lanes: Lanes::Term(*id),
                constant: 0.0,
                has_terms: true,
            })
        }
        CompiledExpr::Binary { op, lhs, rhs } => {
            let l = form_of(view, lhs)?;
            let r = form_of(view, rhs)?;
            use paql::ast::GlobalArithOp::*;
            match op {
                Add => Ok(l.combine(r, 1.0)),
                Sub => Ok(l.combine(r, -1.0)),
                Mul if !l.has_terms => Ok(r.scale(l.constant)),
                Mul if !r.has_terms => Ok(l.scale(r.constant)),
                Div if !r.has_terms && r.constant != 0.0 => Ok(l.scale(1.0 / r.constant)),
                Mul | Div => Err(NonLinearReason::NonLinearArithmetic),
            }
        }
    }
}

/// The term id when `expr` is a lone aggregate call of `func`.
fn lone_term(view: &CandidateView, expr: &CompiledExpr, func: AggFunc) -> Option<usize> {
    match expr {
        CompiledExpr::Term(id) if view.terms()[*id].func == func => Some(*id),
        _ => None,
    }
}

/// The rows of a global AVG comparison against `other`, which must be
/// constant:
/// `AVG(attr) ⋈ c  ⟺  SUM(attr) − c·COUNT(included) ⋈ 0  ∧  COUNT(included) ≥ 1`.
///
/// The multiplication by COUNT is sound because the support row forces a
/// positive count; the support row itself encodes that `AVG ⋈ c` is
/// *unsatisfied* (not vacuously true) when the aggregate is NULL, exactly
/// matching the interpreted and columnar evaluation semantics. The COUNT in
/// both rows uses the AVG term's own inclusion mask, so `FILTER`ed AVG
/// aggregates divide by the filtered count, as they should.
fn avg_rows(
    term_id: usize,
    op: CmpOp,
    other: Result<Form, NonLinearReason>,
) -> Result<Vec<RowForm>, NonLinearReason> {
    match other {
        Ok(c) if !c.has_terms => Ok(vec![
            RowForm::new(Lanes::Centered(term_id, c.constant), op, 0.0)?,
            RowForm::support(term_id),
        ]),
        Ok(_) | Err(NonLinearReason::NonLinearAggregate("AVG")) => {
            Err(NonLinearReason::AvgVsNonConstant)
        }
        Err(e) => Err(e),
    }
}

/// The rows of one compiled constraint — one for a plain linear comparison,
/// two for an AVG-vs-constant comparison (the multiplied-through row plus its
/// non-NULL support row).
fn constraint_rows(
    view: &CandidateView,
    c: &CompiledConstraint,
) -> Result<Vec<RowForm>, NonLinearReason> {
    let (lhs, rhs) = match (form_of(view, &c.lhs), form_of(view, &c.rhs)) {
        (Ok(lhs), Ok(rhs)) => {
            // Move everything to the left: (lhs - rhs) op 0.
            let diff = lhs.combine(rhs, -1.0);
            return Ok(vec![RowForm::new(diff.lanes, c.op, -diff.constant)?]);
        }
        sides => sides,
    };
    // The direct path failed; a global AVG compared against a constant is
    // still classically linearizable by multiplying through by COUNT.
    let avg = |e| lone_term(view, e, AggFunc::Avg);
    match (avg(&c.lhs), avg(&c.rhs)) {
        (Some(id), None) => avg_rows(id, c.op, rhs),
        (None, Some(id)) => avg_rows(id, c.op.mirrored(), lhs),
        (Some(_), Some(_)) => Err(NonLinearReason::AvgVsNonConstant),
        // An AVG buried inside arithmetic (e.g. `2 * AVG(x) <= 10`) is
        // reported with the precise AVG reason rather than the generic
        // aggregate obstacle.
        (None, None) => match lhs.and(rhs) {
            Err(NonLinearReason::NonLinearAggregate("AVG")) | Ok(_) => {
                Err(NonLinearReason::AvgVsNonConstant)
            }
            Err(e) => Err(e),
        },
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

/// The view's `SUCH THAT` formula (which must be conjunctive) as each
/// atom's rows, in formula order, and the SUM terms, ascending, that need a
/// non-NULL support row. Views without a formula have neither;
/// AVG-vs-constant atoms contribute two rows each (see [`avg_rows`]), and
/// every distinct SUM term appearing in a constraint needs a support row
/// (see `collect_sum_terms`) so the linear relaxation cannot satisfy
/// `SUM(…) FILTER (…) ⋈ c` by emptying the filtered subset — the engine's SQL
/// semantics make that sum NULL and the constraint unsatisfied.
fn formula_forms(view: &CandidateView) -> Result<(Vec<RowForm>, Vec<usize>), NonLinearReason> {
    let Some(formula) = view.compiled_formula() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let atoms = conjunctive_atoms(formula).ok_or(NonLinearReason::NotConjunctive)?;
    let mut rows = Vec::with_capacity(atoms.len());
    let mut sum_terms = Vec::new();
    let mut covered = Vec::new();
    for c in atoms {
        rows.extend(constraint_rows(view, c)?);
        collect_sum_terms(view, &c.lhs, &mut sum_terms);
        collect_sum_terms(view, &c.rhs, &mut sum_terms);
        // A lone `SUM ⋈ constant` atom that the empty subset, read as 0,
        // fails (e.g. `SUM(x) ≥ 150000`) already excludes that subset
        // through its own comparison row; its term needs no support row,
        // which keeps such shapes at one dense row instead of two.
        let sum = |e| lone_term(view, e, AggFunc::Sum);
        let lone = match (sum(&c.lhs), sum(&c.rhs)) {
            (Some(id), _) => Some((id, c.op, &c.rhs)),
            (None, Some(id)) => Some((id, c.op.mirrored(), &c.lhs)),
            (None, None) => None,
        };
        if let Some((id, op, other)) = lone {
            if let Ok(k) = form_of(view, other) {
                if !k.has_terms && !op.compare(0.0, k.constant) {
                    covered.push(id);
                }
            }
        }
    }
    sum_terms.sort_unstable();
    sum_terms.dedup();
    sum_terms.retain(|id| !covered.contains(id));
    Ok((rows, sum_terms))
}

/// A written part of a query's linear program, or why it does not
/// linearize.
pub(crate) type Linear<T> = Result<T, NonLinearReason>;

/// A query's linear program in symbolic form: what [`linearize`] returns and
/// the writer writes.
#[derive(Debug, Clone)]
pub(crate) struct Linearization {
    formula: Result<(Vec<RowForm>, Vec<usize>), NonLinearReason>,
    objective: Result<Option<Lanes>, NonLinearReason>,
}

/// The symbolic pass: the view's formula and objective as linear forms over
/// its term ids, or why each does not linearize. It reads no column, so its
/// cost is the size of the query, not of the candidate set.
pub(crate) fn linearize(view: &CandidateView) -> Linearization {
    let objective = match view.compiled_objective() {
        None => Ok(None),
        // An AVG objective stays rejected — there is no comparison to
        // multiply the COUNT through.
        Some(expr) => match form_of(view, expr) {
            Err(NonLinearReason::NonLinearAggregate("AVG")) => Err(NonLinearReason::AvgInObjective),
            other => other.map(|form| Some(form.lanes)),
        },
    };
    Linearization {
        formula: formula_forms(view),
        objective,
    }
}

impl Linearization {
    /// What keeps the whole query (formula, then objective) from the ILP;
    /// `None` when it linearizes.
    pub(crate) fn obstacle(&self) -> Option<NonLinearReason> {
        let formula = self.formula.as_ref().err();
        formula.or(self.objective.as_ref().err()).cloned()
    }

    /// Writes the formula's rows and the objective's coefficients over the
    /// view's candidates, in one pass over its chunks: each atom's rows in
    /// formula order, then one support row per distinct inclusion mask
    /// among the SUM terms that need one; then the objective, when the
    /// query has one. Each part is written when it linearizes, whatever the
    /// other's obstacle.
    pub(crate) fn write(
        &self,
        view: &CandidateView,
    ) -> (Linear<Vec<LinearConstraint>>, Linear<Option<Vec<f64>>>) {
        let formula = self.formula.as_ref().map_err(Clone::clone);
        let support = match &formula {
            Ok((_, terms)) => support_rows(view, terms),
            Err(_) => Vec::new(),
        };
        let forms = formula.map(|(forms, _)| forms.iter().chain(&support).collect::<Vec<_>>());
        let objective = self.objective.as_ref().map_err(Clone::clone);
        let lanes = objective.as_ref().ok().and_then(|lanes| lanes.as_ref());
        let (rows, coeffs) = write_forms(view, forms.as_deref().unwrap_or_default(), lanes);
        (forms.map(|_| rows), objective.map(|_| coeffs))
    }

    /// Writes the objective's per-candidate coefficients alone, when the
    /// query has an objective.
    pub(crate) fn write_objective(&self, view: &CandidateView) -> Linear<Option<Vec<f64>>> {
        let lanes = self.objective.as_ref().map_err(Clone::clone)?;
        Ok(write_forms(view, &[], lanes.as_ref()).1)
    }
}

/// The support rows of the SUM `terms` that need one, one per distinct
/// inclusion mask. Distinct terms often share one mask — a wide schema
/// FILTERing many columns by the same handful of predicates (the `wide`
/// gauntlet family) would otherwise emit one identical dense row per
/// column — and the support row depends only on the mask.
fn support_rows(view: &CandidateView, terms: &[usize]) -> Vec<RowForm> {
    let mut written: Vec<&TermColumn> = Vec::new();
    let mut rows = Vec::new();
    for &t in terms {
        let term = &view.terms()[t];
        if written.iter().any(|w| same_mask(w, term)) {
            continue;
        }
        rows.push(RowForm::support(t));
        written.push(term);
    }
    rows
}

/// Whether two columns include exactly the same candidates, compared chunk
/// by chunk on their mask words (zero past the column's end in both storage
/// modes).
pub(crate) fn same_mask(a: &TermColumn, b: &TermColumn) -> bool {
    (0..a.chunk_meta().len()).all(|c| a.chunk(c).mask_words() == b.chunk(c).mask_words())
}

/// The chunk writer: `forms`' rows and the `objective`'s coefficients over
/// the view's candidates, in one pass over its chunks. Each chunk pins each
/// term the lanes read once, however many rows read it, and every row's
/// slice of the chunk is written from those pins.
fn write_forms(
    view: &CandidateView,
    forms: &[&RowForm],
    objective: Option<&Lanes>,
) -> (Vec<LinearConstraint>, Option<Vec<f64>>) {
    let n = view.candidate_count();
    let lanes: Vec<&Lanes> = forms.iter().map(|f| &f.lanes).chain(objective).collect();
    let mut written: Vec<Vec<f64>> = lanes.iter().map(|_| vec![0.0; n]).collect();
    let mut writer = ChunkWriter {
        terms: view.terms(),
        chunk: 0,
        pins: view.terms().iter().map(|_| None).collect(),
        scratch: Vec::new(),
    };
    for c in 0..chunk_count(n) {
        writer.chunk = c;
        let r = chunk_range(c, n);
        for (lanes, row) in lanes.iter().zip(&mut written) {
            writer.fill(lanes, &mut row[r.clone()]);
        }
        // Unpinned before the next chunk's pins: the pool holds one
        // chunk's pages at a time.
        writer.pins.iter_mut().for_each(|pin| *pin = None);
    }
    let objective = objective.and_then(|_| written.pop());
    let rows = forms
        .iter()
        .zip(written)
        .map(|(f, coeffs)| f.finish(coeffs));
    (rows.collect(), objective)
}

/// One chunk of [`write_forms`]'s pass: the terms pinned so far, and the
/// buffers `a + k·b` lanes borrow for `b`, reused from chunk to chunk.
struct ChunkWriter<'v> {
    terms: &'v [TermColumn],
    chunk: usize,
    pins: Vec<Option<ColumnChunk<'v>>>,
    scratch: Vec<Vec<f64>>,
}

impl<'v> ChunkWriter<'v> {
    /// Term `t`'s cursor over the current chunk, pinned on first use.
    fn pin(&mut self, t: usize) -> &ColumnChunk<'v> {
        let (terms, c) = (self.terms, self.chunk);
        self.pins[t].get_or_insert_with(|| terms[t].chunk(c))
    }

    /// Writes the current chunk of `lanes` into `out`, every lane of it.
    fn fill(&mut self, lanes: &Lanes, out: &mut [f64]) {
        match lanes {
            Lanes::Zero => out.fill(0.0),
            Lanes::Term(t) => out.copy_from_slice(self.pin(*t).coeffs()),
            Lanes::Combine(a, b, k) => {
                self.fill(a, out);
                let mut other = self.scratch.pop().unwrap_or_default();
                other.resize(out.len(), 0.0);
                self.fill(b, &mut other);
                for (x, y) in out.iter_mut().zip(&other) {
                    *x += k * y;
                }
                self.scratch.push(other);
            }
            Lanes::Scale(a, k) => {
                self.fill(a, out);
                for x in out.iter_mut() {
                    *x *= k;
                }
            }
            Lanes::Centered(t, bound) => {
                let chunk = self.pin(*t);
                for (i, (x, &v)) in out.iter_mut().zip(chunk.coeffs()).enumerate() {
                    *x = if chunk.included(i) { v - bound } else { 0.0 };
                }
            }
            Lanes::Mask(t) => {
                let chunk = self.pin(*t);
                for (i, x) in out.iter_mut().enumerate() {
                    *x = if chunk.included(i) { 1.0 } else { 0.0 };
                }
            }
        }
    }
}

/// The one `Problem` builder of a package ILP, for the ILP strategy and the
/// sketch family's sketches and refine ILP alike: integer variable
/// `k ∈ [0, upper(k)]` stands for entry `columns[k]` of every coefficient
/// row — `coeffs[c]` for constraint `c`, named `g{c}`, with `rows[c]`'s
/// operator against `rhs(c)`, then the objective when `coeffs` holds one
/// more row — with zero coefficients dropped and terms in ascending `k`.
pub(crate) fn package_problem<R: AsRef<[f64]>>(
    direction: ObjectiveDirection,
    rows: &[LinearConstraint],
    coeffs: &[R],
    columns: &[usize],
    upper: impl Fn(usize) -> f64,
    rhs: impl Fn(usize) -> f64,
) -> (Problem, Vec<VarId>) {
    let mut problem = Problem::new(match direction {
        ObjectiveDirection::Maximize => Sense::Maximize,
        ObjectiveDirection::Minimize => Sense::Minimize,
    });
    // Unnamed variables: `x{k}` is generated only if a diagnostic needs it.
    let vars: Vec<VarId> = (0..columns.len())
        .map(|k| problem.add_unnamed_var(VarType::Integer, 0.0, upper(k)))
        .collect();
    for (c, row) in rows.iter().enumerate() {
        // Ascending variables: every term takes `LinExpr`'s append path,
        // which drops zero coefficients.
        let mut expr = LinExpr::new();
        for (&v, &j) in vars.iter().zip(columns) {
            expr.add_term(v, coeffs[c].as_ref()[j]);
        }
        problem.add_constraint(format!("g{c}"), expr, row.op, rhs(c));
    }
    if let Some(objective) = coeffs.get(rows.len()) {
        for (&v, &j) in vars.iter().zip(columns) {
            let a = objective.as_ref()[j];
            if a != 0.0 {
                problem.set_objective_coeff(v, a);
            }
        }
    }
    (problem, vars)
}

/// The translated ILP together with its variable mapping.
pub struct IlpTranslation {
    /// The MILP problem (one integer variable per candidate).
    pub problem: Problem,
    /// Variable ids, indexed like the view's candidates.
    pub vars: Vec<VarId>,
}

/// Translates a view into an ILP: every candidate a column bounded by the
/// query's `REPEAT`.
pub fn translate(view: &CandidateView) -> PbResult<IlpTranslation> {
    let unsupported = |r| PbError::Unsupported(format!("cannot translate to ILP: {r}"));
    let (rows, objective) = linearize(view).write(view);
    let rows = rows.map_err(unsupported)?;
    let objective = objective.map_err(unsupported)?;
    let mut coeffs: Vec<&[f64]> = rows.iter().map(|r| r.coeffs.as_slice()).collect();
    coeffs.extend(objective.as_deref());
    let columns: Vec<usize> = (0..view.candidate_count()).collect();
    let max_multiplicity = view.max_multiplicity() as f64;
    let (problem, vars) = package_problem(
        view.direction(),
        &rows,
        &coeffs,
        &columns,
        |_| max_multiplicity,
        |c| rows[c].rhs,
    );
    Ok(IlpTranslation { problem, vars })
}

/// ILP translation + branch and bound (paper Section 7): returns up to
/// [`SolveOptions::keep`] packages (additional packages require binary
/// multiplicities and use no-good cuts, per the paper's Section 5
/// discussion). `optimal` is true when every solve ran to proven
/// optimality; a time, node or cancellation limit makes the packages the
/// best incumbents found instead.
///
/// The budget is threaded down to the branch-and-bound node loop and the
/// simplex pivot loop; on expiry the incumbents found so far come back
/// rather than an error. `opts.par.threads()` is handed to the
/// branch-and-bound layer (via [`lp_solver::SolverConfig::num_threads`]), which solves
/// each frontier batch's LP relaxations concurrently once the LP is big
/// enough to pay for it — rows × columns of at least one
/// [`crate::par::CHUNK_WIDTH`]; smaller LPs keep their batches inline. Results are bit-identical at every
/// thread count — the solver's batch boundaries and merge order are fixed —
/// so `par` is purely a latency knob.
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpSolver;

impl Solver for IlpSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::Ilp
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps
        // solve_time_ms on the outcome; the deadline lives in the budget.
        let start = std::time::Instant::now();
        let budget = &opts.budget;
        // An already-spent budget skips even the translation (building one
        // variable and row set per candidate is itself linear in the view).
        let mut translation = (!budget.expired()).then(|| translate(view)).transpose()?;
        let mut config = opts.solver.clone();
        budget.apply_to_solver(&mut config);
        config.num_threads = opts.par.threads();

        let mut packages = Vec::new();
        let mut complete = true;
        let mut total_iterations = 0usize;
        let mut total_nodes = 0usize;
        let mut total_cold_solves = 0usize;

        let want = opts.keep();
        for round in 0..want {
            let Some(IlpTranslation { problem, vars }) =
                translation.as_mut().filter(|_| !budget.expired())
            else {
                complete = false;
                break;
            };
            let solution = match lp_solver::solve(problem, &config) {
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
                lp_solver::cuts::add_no_good_cut(problem, &solution, vars, format!("cut{round}"))?;
            }
        }

        Ok(SolveOutcome {
            packages,
            optimal: complete,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::{ColumnPolicy, SpillStore};
    use crate::par::CHUNK_WIDTH;
    use crate::spec::tests::{respill, spec_for};
    use crate::spec::{BuildCtx, PackageSpec};
    use crate::view::ChunkMeta;
    use datagen::{recipes, stocks, Seed};
    use minidb::Table;
    use paql::compile;
    use std::sync::Arc;

    #[test]
    fn meal_plan_query_translates_and_solves() {
        let t = recipes(120, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        );
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
            linearize(spec.view()).obstacle(),
            Some(NonLinearReason::NotConjunctive)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) <> 3",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
            Some(NonLinearReason::NotEqualComparison)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.calories) * SUM(P.protein) <= 100",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
            Some(NonLinearReason::NonLinearArithmetic)
        ));

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT MIN(P.calories) >= 100 AND COUNT(*) = 3",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
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
                linearize(spec.view()).obstacle().is_none(),
                "expected linearizable: {q}"
            );
        }
        // AVG vs AVG and AVG inside arithmetic stay rejected, precisely.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.calories) >= AVG(P.protein)",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
            Some(NonLinearReason::AvgVsNonConstant)
        ));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.calories) <= SUM(P.protein)",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
            Some(NonLinearReason::AvgVsNonConstant)
        ));
        // An AVG objective has no comparison to multiply through.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 MAXIMIZE AVG(P.protein)",
        );
        assert!(matches!(
            linearize(spec.view()).obstacle(),
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
        let ilp = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        let oracle = crate::enumerate::EnumerationSolver { prune: true }
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        assert!(oracle.optimal, "oracle must be exact");
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
        assert!(linearize(spec.view()).obstacle().is_none());
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
        assert!(linearize(spec.view()).obstacle().is_none());
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
        let out = IlpSolver
            .solve(
                spec.view(),
                &SolveOptions {
                    num_packages: 4,
                    ..SolveOptions::default()
                },
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
            let out = IlpSolver
                .solve(spec.view(), &SolveOptions::default())
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
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
        let rows = linearize(spec.view()).write(spec.view()).0.unwrap();
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
        let out = IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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

    /// A six-row table with a NULL and `-0.0` entries, for the row-bit pins.
    fn signed_zero_table() -> Table {
        use minidb::{ColumnType, Schema, Tuple, Value};
        let mut t = Table::new(
            "t",
            Schema::build(&[
                ("a", ColumnType::Float),
                ("b", ColumnType::Float),
                ("x", ColumnType::Float),
            ]),
        );
        let f = Value::Float;
        for row in [
            [f(1.1), f(0.7), f(2.0)],
            [f(-0.0), f(1.9), Value::Null],
            [f(2.5), f(-0.0), f(0.1)],
            [f(0.1), f(0.2), f(-0.0)],
            [f(3.3), f(5.0), f(4.75)],
            [f(-1.7), f(0.3), f(1.3)],
        ] {
            t.insert(Tuple::new(row.to_vec())).unwrap();
        }
        t
    }

    #[test]
    fn written_rows_keep_the_bits_of_the_dense_algebra() {
        // (SUCH THAT …, rows, FNV-1a over every row's operator, right-hand
        // side bits and lane bits, then the objective's lane bits), recorded
        // from the dense `LinearAgg` algebra this writer replaced.
        const PINS: &[(&str, usize, u64)] = &[
            (
                "SUM(P.a) - 0.3 * SUM(P.b) >= 0 MAXIMIZE SUM(P.a) - SUM(P.b)",
                2,
                0xf94615c26c946801,
            ),
            (
                "2 * (0.3 * SUM(P.x)) <= 10 MINIMIZE 2 * (0.3 * SUM(P.x))",
                2,
                0x6d4afa1a49c8cbeb,
            ),
            ("SUM(P.x) + SUM(P.x) <= 10", 2, 0xb46295efc990d327),
            (
                "3 + SUM(P.a) <= SUM(P.b) - 1 AND 7 >= SUM(P.x) + 0.5",
                4,
                0x72f06d539708d623,
            ),
            (
                "SUM(P.a) / 4 >= 1 AND COUNT(*) / 4 <= 1",
                3,
                0x3453bf684b379b22,
            ),
            (
                "AVG(P.x) <= 2.5 AND 1.5 <= AVG(P.a) AND COUNT(*) >= 1",
                5,
                0xc64c22572af863fa,
            ),
            (
                "SUM(P.x) + -0.0 * SUM(P.a) <= 3 AND -0.0 * SUM(P.b) <= 1 \
                 MAXIMIZE SUM(P.a) * -0.0",
                4,
                0x0f6dedfaaf9d49bc,
            ),
            (
                "SUM(P.x) FILTER (WHERE T.a > 0) >= 1 AND SUM(P.b) FILTER (WHERE T.a > 0) <= 9 \
                 AND SUM(P.a) <= 5",
                5,
                0xa8bcd5ecad1ab595,
            ),
        ];
        fn fnv(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ byte as u64).wrapping_mul(0x100000001b3);
            }
        }
        let t = signed_zero_table();
        let paged = BuildCtx {
            policy: crate::column_store::ColumnPolicy::paged(4),
            ..BuildCtx::default()
        };
        let mut actual = Vec::new();
        for ctx in [BuildCtx::default(), paged] {
            for &(shape, _, _) in PINS {
                let q = format!("SELECT PACKAGE(T) AS P FROM t T SUCH THAT {shape}");
                let analyzed = compile(&q, t.schema()).unwrap();
                let spec = PackageSpec::build(&analyzed, &t, &ctx).unwrap();
                let (rows, objective) = linearize(spec.view()).write(spec.view());
                let rows = rows.unwrap();
                let mut h = 0xcbf29ce484222325u64;
                for row in &rows {
                    assert_eq!(row.rhs.to_bits(), row.bound.to_bits(), "{shape}");
                    fnv(&mut h, row.op as u64);
                    fnv(&mut h, row.rhs.to_bits());
                    row.coeffs.iter().for_each(|a| fnv(&mut h, a.to_bits()));
                }
                if let Some(objective) = objective.unwrap() {
                    fnv(&mut h, 7);
                    objective.iter().for_each(|a| fnv(&mut h, a.to_bits()));
                }
                actual.push((shape, rows.len(), h));
            }
        }
        let expected: Vec<_> = PINS.iter().chain(PINS).copied().collect();
        assert_eq!(actual, expected, "resident pins, then paged");
    }

    /// The per-row writer the chunk pass replaced, kept as its oracle: each
    /// row, and the objective, written in a pass of its own that pins its
    /// terms' chunks again.
    fn write_lanes(view: &CandidateView, lanes: &Lanes) -> Vec<f64> {
        let n = view.candidate_count();
        let mut row = vec![0.0; n];
        for c in 0..chunk_count(n) {
            fill_chunk(view.terms(), lanes, c, &mut row[chunk_range(c, n)]);
        }
        row
    }

    /// Writes chunk `c` of `lanes` into `out`.
    fn fill_chunk(terms: &[TermColumn], lanes: &Lanes, c: usize, out: &mut [f64]) {
        match lanes {
            Lanes::Zero => out.fill(0.0),
            Lanes::Term(t) => out.copy_from_slice(terms[*t].chunk(c).coeffs()),
            Lanes::Combine(a, b, k) => {
                fill_chunk(terms, a, c, out);
                let mut other = vec![0.0; out.len()];
                fill_chunk(terms, b, c, &mut other);
                for (x, y) in out.iter_mut().zip(&other) {
                    *x += k * y;
                }
            }
            Lanes::Scale(a, k) => {
                fill_chunk(terms, a, c, out);
                for x in out.iter_mut() {
                    *x *= k;
                }
            }
            Lanes::Centered(t, bound) => {
                let chunk = terms[*t].chunk(c);
                for (i, (x, &v)) in out.iter_mut().zip(chunk.coeffs()).enumerate() {
                    *x = if chunk.included(i) { v - bound } else { 0.0 };
                }
            }
            Lanes::Mask(t) => {
                let chunk = terms[*t].chunk(c);
                for (i, x) in out.iter_mut().enumerate() {
                    *x = if chunk.included(i) { 1.0 } else { 0.0 };
                }
            }
        }
    }

    type Program = (Linear<Vec<LinearConstraint>>, Linear<Option<Vec<f64>>>);

    /// The view's rows and objective, row by row through [`write_lanes`].
    fn per_row(view: &CandidateView) -> Program {
        let Linearization { formula, objective } = linearize(view);
        let rows = formula.map(|(forms, terms)| {
            let support = support_rows(view, &terms);
            let forms = forms.iter().chain(&support);
            forms
                .map(|f| f.finish(write_lanes(view, &f.lanes)))
                .collect()
        });
        let objective = objective.map(|lanes| lanes.map(|lanes| write_lanes(view, &lanes)));
        (rows, objective)
    }

    type ProgramBits = (
        Linear<Vec<(ConstraintOp, u64, u64, Vec<u64>)>>,
        Linear<Option<Vec<u64>>>,
    );

    /// Every operator, right-hand side, bound and coefficient as bits.
    fn program_bits((rows, objective): Program) -> ProgramBits {
        let bits = |coeffs: Vec<f64>| coeffs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let rows = rows.map(|rows| {
            let row =
                |r: LinearConstraint| (r.op, r.rhs.to_bits(), r.bound.to_bits(), bits(r.coeffs));
            rows.into_iter().map(row).collect()
        });
        (rows, objective.map(|o| o.map(bits)))
    }

    #[test]
    fn the_chunk_pass_writes_what_the_per_row_writer_wrote() {
        // Two chunks, the second a short tail, resident and through a
        // two-page pool, for every gauntlet query of every family.
        let n = CHUNK_WIDTH + 300;
        let resident = BuildCtx {
            policy: ColumnPolicy::resident(),
            ..BuildCtx::default()
        };
        let paged = BuildCtx {
            policy: ColumnPolicy::paged(2),
            ..BuildCtx::default()
        };
        let (mut rows, mut paged_views) = (0, 0);
        for scenario in datagen::scenarios() {
            let table = (scenario.build)(n, Seed(20140901));
            for query in &scenario.queries {
                let analyzed = compile(&query.text, table.schema()).unwrap();
                for ctx in [&resident, &paged] {
                    let spec = PackageSpec::build(&analyzed, &table, ctx).unwrap();
                    let view = spec.view();
                    let linearization = linearize(view);
                    let fused = linearization.write(view);
                    let objective = linearization.write_objective(view);
                    let what = format!(
                        "{} {} paged={}",
                        scenario.name,
                        query.label,
                        view.is_paged()
                    );
                    assert_eq!(
                        program_bits((Ok(Vec::new()), objective)).1,
                        program_bits((Ok(Vec::new()), fused.1.clone())).1,
                        "{what}: the objective alone"
                    );
                    rows += fused.0.as_ref().map_or(0, Vec::len);
                    paged_views += usize::from(view.is_paged());
                    assert_eq!(program_bits(fused), program_bits(per_row(view)), "{what}");
                }
            }
        }
        assert!(
            rows > 0 && paged_views > 0,
            "{rows} rows, {paged_views} paged views"
        );
    }

    #[test]
    fn the_chunk_pass_requests_each_paged_chunk_of_each_term_once() {
        // The benchmark's `shade_b`: COUNT(*), two SUM rows over calories,
        // SUM(fat) with its support row, and the objective — every term is
        // read, calories by two rows.
        let t = recipes(4 * CHUNK_WIDTH + 300, Seed(20140901));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 5 AND SUM(P.calories) BETWEEN 3000 AND 3500 \
             AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.protein)",
        );
        let store = SpillStore::create(2).unwrap();
        let view = respill(
            &spec,
            &vec![Some(Arc::clone(&store)); spec.view().terms().len()],
        );
        let requests = || {
            let (hits, misses, _) = store.counters();
            hits + misses
        };
        // A COUNT chunk that includes every lane has no page to read.
        let paged_chunks: u64 = view
            .terms()
            .iter()
            .map(|term| {
                let page_free = |m: &&ChunkMeta| {
                    term.func == AggFunc::Count && m.included as usize == CHUNK_WIDTH
                };
                term.chunk_meta().iter().filter(|m| !page_free(m)).count() as u64
            })
            .sum();
        assert_eq!(
            paged_chunks,
            4 * 5 - 4,
            "four of COUNT(*)'s five chunks are full"
        );

        let before = requests();
        let (rows, objective) = linearize(&view).write(&view);
        let fused = requests() - before;
        assert_eq!(rows.unwrap().len(), 5);
        assert!(objective.unwrap().is_some());
        assert_eq!(fused, paged_chunks, "one request per paged chunk per term");

        let before = requests();
        let _ = per_row(&view);
        let per_row = requests() - before;
        assert_eq!(per_row, 6 * 5 - 4, "a pass per row and the objective");
    }

    #[test]
    fn linearizability_is_a_property_of_the_query_not_its_data() {
        use minidb::{tuple, ColumnType, Schema};
        let mut t = Table::new(
            "t",
            Schema::build(&[("z", ColumnType::Float), ("w", ColumnType::Float)]),
        );
        for w in [1.0, 2.0, 3.0] {
            t.insert(tuple!(0.0, w)).unwrap();
        }
        let obstacle = |such_that: &str| {
            let q = format!("SELECT PACKAGE(T) AS P FROM t T SUCH THAT {such_that}");
            linearize(spec_for(&t, &q).view()).obstacle()
        };
        // `z` is zero in every row, yet a product with it is still a product
        // and an AVG compared with it is still compared with an aggregate.
        assert_eq!(
            obstacle("SUM(P.z) * SUM(P.w) <= 1"),
            Some(NonLinearReason::NonLinearArithmetic)
        );
        assert_eq!(
            obstacle("SUM(P.w) / SUM(P.z) <= 1"),
            Some(NonLinearReason::NonLinearArithmetic)
        );
        assert_eq!(
            obstacle("AVG(P.w) <= SUM(P.z)"),
            Some(NonLinearReason::AvgVsNonConstant)
        );
        assert_eq!(obstacle("2 * SUM(P.z) <= 1"), None);
    }

    #[test]
    fn strict_rows_leave_their_bound_exactly_or_by_the_margin() {
        use minidb::{tuple, ColumnType, Schema};
        let mut t = Table::new(
            "t",
            Schema::build(&[("i", ColumnType::Int), ("f", ColumnType::Float)]),
        );
        for i in 1..=4i64 {
            t.insert(tuple!(i, 0.25 * i as f64)).unwrap();
        }
        let row = |such_that: &str| {
            let q = format!("SELECT PACKAGE(T) AS P FROM t T SUCH THAT {such_that}");
            let spec = spec_for(&t, &q);
            let rows = linearize(spec.view()).write(spec.view()).0.unwrap();
            (rows[0].op, rows[0].rhs, rows[0].bound)
        };
        assert_eq!(row("COUNT(*) < 3"), (ConstraintOp::Le, 2.0, 3.0));
        assert_eq!(row("COUNT(*) < 2.5"), (ConstraintOp::Le, 2.0, 2.5));
        assert_eq!(row("COUNT(*) > 3"), (ConstraintOp::Ge, 4.0, 3.0));
        assert_eq!(row("SUM(P.i) > 2.5"), (ConstraintOp::Ge, 3.0, 2.5));
        assert_eq!(
            row("SUM(P.f) < 22.5"),
            (ConstraintOp::Le, 22.5 - STRICT_MARGIN, 22.5)
        );
        assert_eq!(
            row("SUM(P.f) > 1"),
            (ConstraintOp::Ge, 1.0 + STRICT_MARGIN, 1.0)
        );
    }
}
