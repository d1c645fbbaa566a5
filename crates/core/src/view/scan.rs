//! Chunk-at-a-time move scoring: the full-neighbourhood scan kernel and the
//! one pass that searches a neighbourhood with it.
//!
//! Greedy repair and the local search ask the same question of every
//! candidate: *what would the state score with one more copy of element `i`*
//! (optionally after a fixed prefix of changes, e.g. "member `out` removed")?
//! [`ViewState::score_with`] answers it one element at a time — a formula
//! tree walk, two map lookups and one chunk pin per term *reference*. A
//! [`MoveScan`] answers it for a whole [`crate::par::CHUNK_WIDTH`]-element
//! chunk at once:
//!
//! * the prefix is resolved **once per scan** into per-term accumulators (and
//!   a base extremum for MIN/MAX terms) — [`MoveScan`];
//! * each referenced term's [`ColumnChunk`] is pinned **once per chunk**,
//!   on first use, and shared by every prefix scored against that chunk —
//!   [`ScanChunk`]; a term the scan does not need (the objective's, when the
//!   caller only wants violations) is never read;
//! * the compiled formula is evaluated **block-at-a-time** over the pinned
//!   slices: one tight loop per expression node over each block of 512
//!   lanes, not one tree walk per element, with the block's scratch
//!   vectors (4 KiB each, recycled) small enough to stay in L1 from one
//!   node to the next. A term reads its inclusion mask one 64-lane word at
//!   a time: a word that includes every lane is a straight loop, a word
//!   that includes none a fill, and only mixed words test bit by bit. An
//!   atom comparing a term with a literal, the usual shape, is scored in
//!   that same pass over the term's lanes, with the comparison's operator
//!   fixed per loop rather than matched per lane.
//!
//! Every floating-point operation is the one the scalar evaluator performs,
//! in the same order, so a chunk score is bit-identical to `score_with` on
//! the same move — solver trajectories cannot tell the two apart
//! (`tests/columnar_oracle.rs` asserts `to_bits` equality across every
//! scenario family, resident and paged). The few elements whose base
//! multiplicity is not zero (current members, prefix indices) take deltas
//! the column form does not model; they are patched through the point path.
//!
//! Greedy repair (adds and drops, ranked by violation) and the local search
//! (swaps, then adds, ranked by violation, then objective) both search with
//! [`neighbourhood_pass`]. It skips each (chunk, prefix) that
//! [`MoveScan::rules_out`] from resident chunk metadata, pinning no page
//! there, and ranks every move by the one [`lex_better`].

use std::ops::Range;

use super::{
    comparison_violation, fold_extremum, CandidateView, ColumnChunk, CompiledConstraint,
    CompiledExpr, CompiledFormula, Overlay, TermAccum, TermColumn, ViewState, UNEVALUABLE_PENALTY,
};
use crate::budget::Budget;
use crate::package::Package;
use crate::par::{chunk_range, ParExec};
use paql::ast::GlobalArithOp;
use paql::{AggFunc, CmpOp, ObjectiveDirection};

/// One fixed prefix of changes folded into the base state's accumulators.
struct PrefixBase {
    changes: Vec<(usize, i64)>,
    /// Per term: accumulators with the prefix applied (terms the scan does
    /// not reference keep the state's own and are never consulted).
    accums: Vec<TermAccum>,
    /// Per MIN/MAX term: the extremum over the members that remain.
    extrema: Vec<Option<f64>>,
}

/// A full-neighbourhood scan over one base state: scores "+1 at element `i`"
/// for every candidate, after each of a fixed set of change prefixes.
///
/// Built once per scan pass by [`ViewState::move_scan`] (outside the chunk
/// fan-out — prefix resolution is the only per-element pinning the scan
/// does); chunk closures call [`MoveScan::chunk`].
pub struct MoveScan<'s, 'v> {
    state: &'s ViewState<'v>,
    want_objective: bool,
    prefixes: Vec<PrefixBase>,
}

impl<'v> ViewState<'v> {
    /// Prepares a chunk-at-a-time scan of the "+1 at `i`" moves of this
    /// state, one score set per entry of `prefixes` (pass `vec![vec![]]` for
    /// plain add moves, `vec![vec![(out, -1)]]` for the swaps that remove
    /// `out`). With `want_objective` false only violations are computed and
    /// the objective's terms are never read.
    pub fn move_scan<'s>(
        &'s self,
        prefixes: Vec<Vec<(usize, i64)>>,
        want_objective: bool,
    ) -> MoveScan<'s, 'v> {
        let view = self.view;
        let mut referenced = vec![false; view.terms.len()];
        if let Some(f) = &view.compiled_formula {
            mark_formula_terms(f, &mut referenced);
        }
        if let (true, Some(e)) = (want_objective, &view.compiled_objective) {
            mark_expr_terms(e, &mut referenced);
        }
        let prefixes = prefixes
            .into_iter()
            .map(|changes| {
                let overlay = Overlay {
                    base: self,
                    changes: &changes,
                };
                let mut accums = self.accums.clone();
                let mut extrema = vec![None; view.terms.len()];
                for (id, term) in view.terms.iter().enumerate() {
                    if !referenced[id] {
                        continue;
                    }
                    accums[id] = overlay.accum(id);
                    if matches!(term.func, AggFunc::Min | AggFunc::Max) {
                        extrema[id] = overlay.extremum(id);
                    }
                }
                PrefixBase {
                    changes,
                    accums,
                    extrema,
                }
            })
            .collect();
        MoveScan {
            state: self,
            want_objective,
            prefixes,
        }
    }

    /// Walks `range` in ascending order as runs of non-members, each paired
    /// with the member that ends it (`None` for the final run) and that
    /// member's multiplicity — how scan loops visit every candidate with a
    /// legality check per *member*, not a map lookup per candidate.
    pub fn member_runs(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (Range<usize>, Option<(usize, u32)>)> + '_ {
        let mut next = Some(range.start);
        let mut members = self.members.range(range.clone());
        std::iter::from_fn(move || {
            let start = next?;
            Some(match members.next() {
                Some((&member, &mult)) => {
                    next = Some(member + 1);
                    (start..member, Some((member, mult)))
                }
                None => {
                    next = None;
                    (start..range.end, None)
                }
            })
        })
    }
}

fn mark_expr_terms(expr: &CompiledExpr, referenced: &mut [bool]) {
    match expr {
        CompiledExpr::Literal(_) => {}
        CompiledExpr::Term(id) => referenced[*id] = true,
        CompiledExpr::Binary { lhs, rhs, .. } => {
            mark_expr_terms(lhs, referenced);
            mark_expr_terms(rhs, referenced);
        }
    }
}

fn mark_formula_terms(formula: &CompiledFormula, referenced: &mut [bool]) {
    match formula {
        CompiledFormula::Atom(c) => {
            mark_expr_terms(&c.lhs, referenced);
            mark_expr_terms(&c.rhs, referenced);
        }
        CompiledFormula::And(a, b) | CompiledFormula::Or(a, b) => {
            mark_formula_terms(a, referenced);
            mark_formula_terms(b, referenced);
        }
        CompiledFormula::Not(a) => mark_formula_terms(a, referenced),
    }
}

impl<'s, 'v> MoveScan<'s, 'v> {
    /// The base state the scan scores moves of.
    pub fn state(&self) -> &'s ViewState<'v> {
        self.state
    }

    /// The change prefixes the scan was built from, in order.
    pub fn prefixes(&self) -> impl ExactSizeIterator<Item = &[(usize, i64)]> {
        self.prefixes.iter().map(|p| p.changes.as_slice())
    }

    /// Opens column chunk `c` for scoring. Terms are pinned lazily, once
    /// each, and stay pinned until the returned cursor drops.
    pub fn chunk(&self, c: usize) -> ScanChunk<'_> {
        let view = self.state.view;
        let range = chunk_range(c, view.candidate_count());
        ScanChunk {
            scan: self,
            chunk: c,
            pins: view.terms.iter().map(|_| None).collect(),
            bufs: Bufs::default(),
            range,
            scores: ChunkScores::default(),
        }
    }

    /// A lower bound on the violation [`ScanChunk::score`] gives every lane
    /// of chunk `c` it scores in blocks after prefix number `prefix`
    /// (every lane but the members and the prefix's own indices, which take
    /// the point path): each such lane's violation is at least this.
    ///
    /// Read from the referenced terms' resident [`ChunkMeta`] and the
    /// prefix's accumulators alone, so no page is pinned. The compiled
    /// formula is evaluated over intervals: each term's interval is the
    /// kernel's own float ops run on the chunk's least and greatest included
    /// coefficient (and the excluded lanes' value, when the chunk has some).
    /// Every term is monotone in the coefficient and IEEE rounding is
    /// monotone, so the endpoints bound every lane's bits; the arithmetic,
    /// comparison and connective rules below carry the bound up to the
    /// formula. A lane that may be NULL scores exactly the un-evaluable
    /// penalty on its constraint.
    ///
    /// `None` when nothing is proven: a referenced chunk's `sum` is not
    /// finite (a NaN or infinite coefficient — the chunk's `min`/`max` skip
    /// NaN lanes), an endpoint is not finite, or a divisor's interval holds
    /// 0.
    ///
    /// [`ChunkMeta`]: super::ChunkMeta
    pub fn violation_floor(&self, prefix: usize, c: usize) -> Option<f64> {
        let view = self.state.view;
        let floor = Floor {
            view,
            base: &self.prefixes[prefix],
            chunk: c,
            len: chunk_range(c, view.candidate_count()).len(),
        };
        match &view.compiled_formula {
            Some(f) => floor.formula(f),
            None => Some(0.0),
        }
    }

    /// Whether no "+1" move the kernel scores in blocks in chunk `c` after
    /// prefix number `prefix` can beat `bar` under `lex_better`: the
    /// chunk's [`MoveScan::violation_floor`] does not, even paired with an
    /// objective no lane beats (none on a violation-only scan, the
    /// direction's infinity otherwise). Exact: such a chunk holds no move a
    /// scan from `bar` would take.
    pub fn rules_out(&self, prefix: usize, c: usize, bar: (f64, Option<f64>)) -> bool {
        let direction = self.state.view.direction();
        let ceiling = self.want_objective.then_some(match direction {
            ObjectiveDirection::Maximize => f64::INFINITY,
            ObjectiveDirection::Minimize => f64::NEG_INFINITY,
        });
        self.violation_floor(prefix, c)
            .is_some_and(|floor| !lex_better((floor, ceiling), bar, direction))
    }

    /// "Prefix number `prefix`, then `delta` at `idx`" scored through the
    /// point path, as the kernel patches a lane (no objective on a
    /// violation-only scan).
    fn point(&self, prefix: usize, idx: usize, delta: i64) -> Score {
        let mut changes = self.prefixes[prefix].changes.clone();
        changes.push((idx, delta));
        if self.want_objective {
            self.state.score_with(&changes)
        } else {
            (self.state.violation_with(&changes), None)
        }
    }
}

/// A move's `(violation, objective)`, as [`ViewState::score_with`] gives it.
pub(crate) type Score = (f64, Option<f64>);

/// How much lower a violation must be to win on violation alone.
pub(crate) const MIN_GAIN: f64 = 1e-9;

/// The one rank of every move search: a violation lower by more than
/// [`MIN_GAIN`] wins; within it, the better objective
/// ([`Package::better_objective`]; a `None` objective never is).
pub(crate) fn lex_better(a: Score, b: Score, direction: ObjectiveDirection) -> bool {
    if a.0 + MIN_GAIN < b.0 {
        return true;
    }
    if a.0 > b.0 + MIN_GAIN {
        return false;
    }
    Package::better_objective(direction, a.1, b.1)
}

/// What one [`neighbourhood_pass`] found.
pub(crate) struct Pass {
    /// The first best move that beats the bar — its prefix's changes, then
    /// `(index, delta)` — and its score.
    pub best: Option<(Score, Vec<(usize, i64)>)>,
    /// Moves considered, scored or ruled out, by every (chunk, prefix) that
    /// ran.
    pub evaluations: u64,
    /// Some chunk observed budget expiry and left prefixes unscanned.
    pub expired: bool,
}

/// A running first best: a score (the bar, before any move is kept) and the
/// move that earned it.
type Best<M> = (Score, Option<M>);

/// Keeps move `m` when `s` beats the running best.
fn keep<M>(best: &mut Best<M>, s: Score, m: M, direction: ObjectiveDirection) {
    if lex_better(s, best.0, direction) {
        *best = (s, Some(m));
    }
}

/// The first of `violations` whose move may beat a running best of
/// violation `best` — the one test most lanes need. Only a `ranked` scan's
/// move can win by objective within [`MIN_GAIN`], so a violation-only
/// scan's exact ties, common on integral data, fail its one comparison. (No
/// violation is NaN.)
fn contender(violations: &[f64], best: f64, ranked: bool) -> Option<usize> {
    if ranked {
        violations.iter().position(|&v| v <= best + MIN_GAIN)
    } else {
        violations.iter().position(|&v| v + MIN_GAIN < best)
    }
}

/// Searches the neighbourhood of `scan`'s state for the first best move
/// that beats `bar`: for each prefix, every legal "prefix, then +1 at `i`"
/// and, with `drops`, every "prefix, then −1 at member `m`" (a member's add
/// just before its drop). Every prefix index must be a member.
///
/// Chunks fan out over `par`; the budget is checked per (chunk, prefix). A
/// (chunk, prefix) that [`MoveScan::rules_out`] is not scored: its
/// non-member adds are counted only, and its members' moves take the point
/// path, where the kernel patches them too. Each (chunk, prefix) keeps its
/// first best from `bar` on, and those merge prefix-major, chunk-minor: the
/// move one sequential scan picks, at every thread count.
pub(crate) fn neighbourhood_pass(
    scan: &MoveScan<'_, '_>,
    drops: bool,
    bar: Score,
    budget: &Budget,
    par: ParExec,
) -> Pass {
    let state = scan.state;
    let view = state.view;
    let direction = view.direction();
    let max_mult = view.max_multiplicity;
    debug_assert!(scan
        .prefixes()
        .flatten()
        .all(|&(idx, _)| state.multiplicity(idx) > 0));
    // Per chunk: evaluations, each prefix's best (fewer on expiry), expiry.
    let chunks = par.run_chunks(view.candidate_count(), |c, range| {
        let mut chunk = None;
        let mut found = Vec::with_capacity(scan.prefixes.len());
        let mut evaluations = 0u64;
        for (p, prefix) in scan.prefixes().enumerate() {
            if budget.expired() {
                return (evaluations, found, true);
            }
            let scores = (!scan.rules_out(p, c, bar))
                .then(|| chunk.get_or_insert_with(|| scan.chunk(c)).score(p));
            let mut best: Best<(usize, i64)> = (bar, None);
            for (run, member) in state.member_runs(range.clone()) {
                if max_mult > 0 {
                    evaluations += run.len() as u64;
                    if let Some(scores) = scores {
                        let (mut lane, end) = (run.start - range.start, run.end - range.start);
                        let violations = &scores.violations()[..end];
                        while let Some(k) =
                            contender(&violations[lane..], best.0 .0, scan.want_objective)
                        {
                            lane += k;
                            keep(
                                &mut best,
                                scores.get(lane),
                                (range.start + lane, 1),
                                direction,
                            );
                            lane += 1;
                        }
                    }
                }
                let Some((m, mult)) = member else {
                    continue;
                };
                if mult < max_mult && prefix.iter().all(|&(idx, _)| idx != m) {
                    evaluations += 1;
                    let s = match scores {
                        Some(scores) => scores.get(m - range.start),
                        None => scan.point(p, m, 1),
                    };
                    keep(&mut best, s, (m, 1), direction);
                }
                if drops {
                    evaluations += 1;
                    keep(&mut best, scan.point(p, m, -1), (m, -1), direction);
                }
            }
            found.push(best.1.map(|m| (best.0, m)));
        }
        (evaluations, found, false)
    });

    let mut best: Best<(usize, (usize, i64))> = (bar, None);
    for p in 0..scan.prefixes.len() {
        for (_, found, _) in &chunks {
            if let Some(&Some((s, m))) = found.get(p) {
                keep(&mut best, s, (p, m), direction);
            }
        }
    }
    Pass {
        best: best.1.map(|(p, change)| {
            let mut changes = scan.prefixes[p].changes.clone();
            changes.push(change);
            (best.0, changes)
        }),
        evaluations: chunks.iter().map(|chunk| chunk.0).sum(),
        expired: chunks.iter().any(|chunk| chunk.2),
    }
}

/// The values an expression takes over the column-scored lanes of one
/// chunk: every non-NULL lane's value lies in `range` (finite endpoints;
/// `None` when every lane is NULL), and `null` says some lane may be NULL.
#[derive(Clone, Copy)]
struct Span {
    range: Option<(f64, f64)>,
    null: bool,
}

/// `(lo, hi)` when both endpoints are finite.
fn finite(lo: f64, hi: f64) -> Option<(f64, f64)> {
    (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
}

/// [`MoveScan::violation_floor`]'s interval evaluator: [`Kernel`]'s
/// arithmetic on interval endpoints instead of lanes.
struct Floor<'k> {
    view: &'k CandidateView,
    base: &'k PrefixBase,
    chunk: usize,
    len: usize,
}

impl Floor<'_> {
    /// [`Kernel::term`] at the chunk's extreme included coefficients, plus
    /// its excluded lanes' value when the chunk has any.
    fn term(&self, id: usize) -> Option<Span> {
        let term: &TermColumn = &self.view.terms[id];
        let meta = term.chunk_meta()[self.chunk];
        if !meta.sum.is_finite() {
            return None;
        }
        let accum = self.base.accums[id];
        let without = accum.count as f64;
        let with = (accum.count + 1) as f64;
        let (lo, hi) = (meta.min, meta.max);
        // (value at the least and greatest included lane, value at an
        // excluded lane, whether an excluded lane is NULL)
        let (included, excluded, empty_base) = match term.func {
            AggFunc::Count => ((with, with), without, false),
            AggFunc::Sum => (
                (accum.sum + lo * 1.0, accum.sum + hi * 1.0),
                accum.sum,
                accum.distinct == 0,
            ),
            AggFunc::Avg => (
                ((accum.sum + lo * 1.0) / with, (accum.sum + hi * 1.0) / with),
                accum.sum / without,
                accum.count == 0,
            ),
            AggFunc::Min | AggFunc::Max => {
                let best = self.base.extrema[id];
                let fold = |c| fold_extremum(term.func, best, c);
                ((fold(lo), fold(hi)), best.unwrap_or(0.0), best.is_none())
            }
        };
        let has_excluded = (meta.included as usize) < self.len;
        // Each part is checked before the hull: `min`/`max` would drop a NaN.
        let included = if meta.included > 0 {
            Some(finite(included.0, included.1)?)
        } else {
            None
        };
        let excluded = if has_excluded && !empty_base {
            Some(finite(excluded, excluded)?)
        } else {
            None
        };
        let range = match (included, excluded) {
            (Some((lo, hi)), Some((x, _))) => Some((lo.min(x), hi.max(x))),
            (one, other) => one.or(other),
        };
        Some(Span {
            range,
            null: has_excluded && empty_base,
        })
    }

    fn expr(&self, expr: &CompiledExpr) -> Option<Span> {
        match expr {
            CompiledExpr::Literal(x) => Some(Span {
                range: Some(finite(*x, *x)?),
                null: false,
            }),
            CompiledExpr::Term(id) => self.term(*id),
            CompiledExpr::Binary { op, lhs, rhs } => {
                let (a, b) = (self.expr(lhs)?, self.expr(rhs)?);
                let range = match (a.range, b.range) {
                    (Some(a), Some(b)) => Some(arith(*op, a, b)?),
                    _ => None,
                };
                Some(Span {
                    range,
                    null: a.null || b.null,
                })
            }
        }
    }

    /// [`Kernel::constraint_violation`]'s bound: the comparison's distance
    /// at the nearest endpoints, capped at the penalty a NULL lane scores.
    fn constraint(&self, c: &CompiledConstraint) -> Option<f64> {
        let (a, b) = (self.expr(&c.lhs)?, self.expr(&c.rhs)?);
        let floor = match (a.range, b.range) {
            (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => match c.op {
                // `a - b` lies in `a_lo - b_hi ..= a_hi - b_lo`.
                CmpOp::Eq => {
                    let (lo, hi) = (a_lo - b_hi, a_hi - b_lo);
                    if lo > 0.0 {
                        lo
                    } else if hi < 0.0 {
                        -hi
                    } else {
                        0.0
                    }
                }
                CmpOp::NotEq => 0.0,
                CmpOp::Lt | CmpOp::LtEq => comparison_violation(c.op, a_lo, b_hi),
                CmpOp::Gt | CmpOp::GtEq => comparison_violation(c.op, a_hi, b_lo),
            },
            // Every lane is NULL.
            _ => UNEVALUABLE_PENALTY,
        };
        Some(if a.null || b.null {
            floor.min(UNEVALUABLE_PENALTY)
        } else {
            floor
        })
    }

    /// [`Kernel::formula_violation`]'s bound: `And` adds, `Or` takes the
    /// smaller (a NaN side of a lane's `min` yields the other side), `Not`
    /// scores 0 or 1.
    fn formula(&self, f: &CompiledFormula) -> Option<f64> {
        match f {
            CompiledFormula::Atom(c) => self.constraint(c),
            CompiledFormula::And(a, b) => Some(self.formula(a)? + self.formula(b)?),
            CompiledFormula::Or(a, b) => Some(self.formula(a)?.min(self.formula(b)?)),
            CompiledFormula::Not(_) => Some(0.0),
        }
    }
}

/// The interval of `a op b` over every `a` in `a` and `b` in `b`: each
/// operator is monotone in each argument on the box (a divisor's interval
/// must exclude 0), so the extremes are at the corners.
fn arith(
    op: GlobalArithOp,
    (a_lo, a_hi): (f64, f64),
    (b_lo, b_hi): (f64, f64),
) -> Option<(f64, f64)> {
    let corners = |f: fn(f64, f64) -> f64| {
        let c = [f(a_lo, b_lo), f(a_lo, b_hi), f(a_hi, b_lo), f(a_hi, b_hi)];
        (
            // pb-lint: allow(no-nan-unsafe-ordering) — a product of finite
            // endpoints, or a quotient by a nonzero one, is never NaN.
            c.into_iter().fold(f64::INFINITY, f64::min),
            // pb-lint: allow(no-nan-unsafe-ordering) — as above.
            c.into_iter().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let (lo, hi) = match op {
        GlobalArithOp::Add => (a_lo + b_lo, a_hi + b_hi),
        GlobalArithOp::Sub => (a_lo - b_hi, a_hi - b_lo),
        GlobalArithOp::Mul => corners(|x, y| x * y),
        GlobalArithOp::Div if b_lo <= 0.0 && b_hi >= 0.0 => return None,
        GlobalArithOp::Div => corners(|x, y| x / y),
    };
    finite(lo, hi)
}

/// The scores of one chunk's "+1 at `i`" moves after one prefix, indexed by
/// the element's offset inside the chunk.
#[derive(Debug, Default)]
pub struct ChunkScores {
    violation: Vec<f64>,
    objective: Vec<f64>,
    objective_null: Vec<bool>,
}

impl ChunkScores {
    /// The violation of each move, by offset in the chunk.
    pub fn violations(&self) -> &[f64] {
        &self.violation
    }

    /// `(violation, objective)` of the move at offset `i` — exactly what
    /// [`ViewState::score_with`] returns for it (the objective is `None`
    /// when the scan was built without `want_objective`).
    #[inline]
    pub fn get(&self, i: usize) -> (f64, Option<f64>) {
        let objective = match self.objective_null.get(i) {
            Some(false) => Some(self.objective[i]),
            _ => None,
        };
        (self.violation[i], objective)
    }
}

/// Lanes the kernel evaluates at once: a multiple of 64, so a block owns
/// whole mask words, and small enough that a block's scratch vectors (4 KiB
/// each) stay in L1 while the formula's nodes read and write them.
const BLOCK: usize = 512;

/// One column chunk opened by a [`MoveScan`]: the pinned term chunks, the
/// kernel's scratch buffers (a few block-wide vectors, recycled across
/// blocks and prefixes) and the last prefix's chunk-wide scores.
pub struct ScanChunk<'m> {
    scan: &'m MoveScan<'m, 'm>,
    chunk: usize,
    range: Range<usize>,
    pins: Vec<Option<ColumnChunk<'m>>>,
    bufs: Bufs,
    scores: ChunkScores,
}

impl ScanChunk<'_> {
    /// The candidate-index range this chunk covers.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Scores every element of the chunk after prefix number `prefix` (its
    /// position in the `prefixes` list the scan was built from), 512 lanes
    /// at a time. The slot of an element already at the `REPEAT` bound — no
    /// "+1" is legal there — holds an unspecified score.
    pub fn score(&mut self, prefix: usize) -> &ChunkScores {
        let scan = self.scan;
        let view = scan.state.view;
        let base = &scan.prefixes[prefix];
        let len = self.range.len();
        let objective = scan.want_objective.then_some(&view.compiled_objective);
        let scores = &mut self.scores;
        scores.violation.resize(len, 0.0);
        if objective.is_some() {
            scores.objective.resize(len, 0.0);
            scores.objective_null.resize(len, false);
        }

        let mut kernel = Kernel {
            view,
            base,
            chunk: self.chunk,
            lanes: 0..0,
            pins: &mut self.pins,
            bufs: &mut self.bufs,
        };
        for start in (0..len).step_by(BLOCK) {
            let lanes = start..len.min(start + BLOCK);
            kernel.lanes = lanes.clone();
            kernel.bufs.len = lanes.len();
            let violation = match &view.compiled_formula {
                Some(f) => kernel.formula_violation(f),
                None => kernel.bufs.floats_of(0.0),
            };
            scores.violation[lanes.clone()].copy_from_slice(&violation);
            kernel.bufs.floats.push(violation);
            match objective {
                Some(Some(e)) => {
                    let col = kernel.eval_expr(e);
                    scores.objective[lanes.clone()].copy_from_slice(&col.vals);
                    kernel.bufs.floats.push(col.vals);
                    let null = &mut scores.objective_null[lanes];
                    match col.nulls {
                        Some(nulls) => {
                            null.copy_from_slice(&nulls);
                            kernel.bufs.flags.push(nulls);
                        }
                        None => null.fill(false),
                    }
                }
                Some(None) => {
                    scores.objective[lanes.clone()].fill(0.0);
                    scores.objective_null[lanes].fill(true);
                }
                None => {}
            }
        }

        // Elements whose base multiplicity is not zero: the point path.
        // (Those already at the REPEAT bound have no legal "+1" at all.)
        let range = self.range.clone();
        let state = scan.state;
        let touched = base.changes.iter().map(|&(idx, _)| idx);
        let members = state.members.range(range.clone()).map(|(&idx, _)| idx);
        for idx in members.chain(touched.filter(|idx| range.contains(idx))) {
            if state.multiplicity(idx) >= view.max_multiplicity {
                continue;
            }
            let (v, o) = scan.point(prefix, idx, 1);
            let i = idx - range.start;
            self.scores.violation[i] = v;
            if scan.want_objective {
                self.scores.objective_null[i] = o.is_none();
                self.scores.objective[i] = o.unwrap_or(0.0);
            }
        }
        &self.scores
    }
}

/// Recycled block-wide scratch vectors, `len` lanes each.
#[derive(Default)]
struct Bufs {
    len: usize,
    floats: Vec<Vec<f64>>,
    flags: Vec<Vec<bool>>,
}

impl Bufs {
    /// A block-wide float vector with unspecified contents.
    fn floats(&mut self) -> Vec<f64> {
        let mut v = self.floats.pop().unwrap_or_default();
        v.resize(self.len, 0.0);
        v
    }

    fn floats_of(&mut self, x: f64) -> Vec<f64> {
        let mut v = self.floats();
        v.fill(x);
        v
    }

    /// A block-wide flag vector with unspecified contents.
    fn flags(&mut self) -> Vec<bool> {
        let mut v = self.flags.pop().unwrap_or_default();
        v.resize(self.len, false);
        v
    }

    fn flags_of(&mut self, x: bool) -> Vec<bool> {
        let mut v = self.flags();
        v.fill(x);
        v
    }
}

/// One expression's value for every lane of the block; `nulls` is absent
/// when no lane is NULL (the common case — most loops skip it entirely).
struct Col {
    vals: Vec<f64>,
    nulls: Option<Vec<bool>>,
}

/// The block-at-a-time evaluator: [`super::eval_expr`] and friends with
/// every `Option<f64>` widened to a [`Col`] over the lanes of one block.
/// Operation for operation the same arithmetic, so the results are
/// bit-identical.
struct Kernel<'k, 'm> {
    view: &'m CandidateView,
    base: &'k PrefixBase,
    chunk: usize,
    /// The block's lanes, as offsets into the chunk.
    lanes: Range<usize>,
    pins: &'k mut Vec<Option<ColumnChunk<'m>>>,
    bufs: &'k mut Bufs,
}

/// Runs `$body` with `$violation` bound to [`comparison_violation`] at the
/// constant operator `$op`: one copy of the body per operator, so a lane
/// loop in it carries no per-lane branch on the operator.
macro_rules! with_violation {
    ($op:expr, |$violation:ident| $body:expr) => {
        match $op {
            CmpOp::Eq => {
                let $violation = |a, b| comparison_violation(CmpOp::Eq, a, b);
                $body
            }
            CmpOp::NotEq => {
                let $violation = |a, b| comparison_violation(CmpOp::NotEq, a, b);
                $body
            }
            CmpOp::Lt => {
                let $violation = |a, b| comparison_violation(CmpOp::Lt, a, b);
                $body
            }
            CmpOp::LtEq => {
                let $violation = |a, b| comparison_violation(CmpOp::LtEq, a, b);
                $body
            }
            CmpOp::Gt => {
                let $violation = |a, b| comparison_violation(CmpOp::Gt, a, b);
                $body
            }
            CmpOp::GtEq => {
                let $violation = |a, b| comparison_violation(CmpOp::GtEq, a, b);
                $body
            }
        }
    };
}

/// Writes `included(c)` at each lane whose mask bit is set and `excluded`
/// at the others, one mask word at a time: a word that includes every lane
/// is a straight loop, a word that includes none a fill.
#[inline]
fn select<T: Copy>(
    out: &mut [T],
    coeffs: &[f64],
    words: &[u64],
    included: impl Fn(f64) -> T,
    excluded: T,
) {
    for ((out, coeffs), &word) in out.chunks_mut(64).zip(coeffs.chunks(64)).zip(words) {
        match word {
            u64::MAX => {
                for (o, &c) in out.iter_mut().zip(coeffs) {
                    *o = included(c);
                }
            }
            0 => out.fill(excluded),
            _ => {
                for (k, (o, &c)) in out.iter_mut().zip(coeffs).enumerate() {
                    *o = if (word >> k) & 1 == 1 {
                        included(c)
                    } else {
                        excluded
                    };
                }
            }
        }
    }
}

impl Kernel<'_, '_> {
    /// The value of term `id` with one more copy of each element: the
    /// prefix's accumulators plus the element's own contribution (old
    /// multiplicity 0, new 1 — the delta [`Overlay::accum`] applies).
    fn term(&mut self, id: usize) -> Col {
        let mut vals = self.bufs.floats();
        let mut nulls = self.empty_base(id).then(|| self.bufs.flags());
        self.term_lanes(id, &mut vals, |v| v, None, nulls.as_deref_mut());
        Col { vals, nulls }
    }

    /// Whether the prefix leaves term `id` empty, so that [`Kernel::term`]
    /// is NULL exactly at the lanes whose element the term excludes.
    fn empty_base(&self, id: usize) -> bool {
        let accum = self.base.accums[id];
        match self.view.terms[id].func {
            AggFunc::Count => false,
            AggFunc::Sum => accum.distinct == 0,
            AggFunc::Avg => accum.count == 0,
            AggFunc::Min | AggFunc::Max => self.base.extrema[id].is_none(),
        }
    }

    /// Writes `f` of [`Kernel::term`]'s value at every lane into `out`,
    /// except that a lane where that value is NULL gets `null` when one is
    /// given; `nulls`, when given, is set exactly at those lanes.
    fn term_lanes<T: Copy>(
        &mut self,
        id: usize,
        out: &mut [T],
        f: impl Fn(f64) -> T,
        null: Option<T>,
        nulls: Option<&mut [bool]>,
    ) {
        let empty_base = self.empty_base(id);
        let term: &TermColumn = &self.view.terms[id];
        let pin = self.pins[id].get_or_insert_with(|| term.chunk(self.chunk));
        let coeffs = &pin.coeffs()[self.lanes.clone()];
        let words = &pin.mask_words()[self.lanes.start / 64..];
        let accum = self.base.accums[id];
        let without = accum.count as f64;
        let with = (accum.count + 1) as f64;
        // The value written at an excluded lane.
        let excluded = |v: f64| match (empty_base, null) {
            (true, Some(null)) => null,
            _ => f(v),
        };
        match term.func {
            AggFunc::Count => {
                let included = f(with);
                select(out, coeffs, words, |_| included, excluded(without));
            }
            AggFunc::Sum => {
                let sum = accum.sum;
                select(out, coeffs, words, |c| f(sum + c * 1.0), excluded(sum));
            }
            AggFunc::Avg => {
                let sum = accum.sum;
                let base_avg = excluded(sum / without);
                select(out, coeffs, words, |c| f((sum + c * 1.0) / with), base_avg);
            }
            AggFunc::Min | AggFunc::Max => {
                let best = self.base.extrema[id];
                let fold = |c| f(fold_extremum(term.func, best, c));
                select(out, coeffs, words, fold, excluded(best.unwrap_or(0.0)));
            }
        }
        if let Some(nulls) = nulls {
            select(nulls, coeffs, words, |_| false, true);
        }
    }

    fn eval_expr(&mut self, expr: &CompiledExpr) -> Col {
        match expr {
            CompiledExpr::Literal(x) => Col {
                vals: self.bufs.floats_of(*x),
                nulls: None,
            },
            CompiledExpr::Term(id) => self.term(*id),
            CompiledExpr::Binary { op, lhs, rhs } => {
                let mut a = self.eval_expr(lhs);
                let b = self.eval_expr(rhs);
                let mut nulls = self.merge_nulls(a.nulls.take(), b.nulls);
                let pairs = a.vals.iter_mut().zip(&b.vals);
                match op {
                    GlobalArithOp::Add => pairs.for_each(|(x, &y)| *x += y),
                    GlobalArithOp::Sub => pairs.for_each(|(x, &y)| *x -= y),
                    GlobalArithOp::Mul => pairs.for_each(|(x, &y)| *x *= y),
                    GlobalArithOp::Div => {
                        pairs.for_each(|(x, &y)| *x /= y);
                        if b.vals.contains(&0.0) {
                            let zero = nulls.get_or_insert_with(|| self.bufs.flags_of(false));
                            for (n, &y) in zero.iter_mut().zip(&b.vals) {
                                *n |= y == 0.0;
                            }
                        }
                    }
                }
                self.bufs.floats.push(b.vals);
                a.nulls = nulls;
                a
            }
        }
    }

    /// NULL if either side is; the surviving vector is reused.
    fn merge_nulls(&mut self, a: Option<Vec<bool>>, b: Option<Vec<bool>>) -> Option<Vec<bool>> {
        match (a, b) {
            (Some(mut a), Some(b)) => {
                a.iter_mut().zip(&b).for_each(|(x, &y)| *x |= y);
                self.bufs.flags.push(b);
                Some(a)
            }
            (a, b) => a.or(b),
        }
    }

    /// Both sides of a constraint plus the elements where either is NULL.
    fn sides(&mut self, c: &CompiledConstraint) -> (Vec<f64>, Vec<f64>, Option<Vec<bool>>) {
        let a = self.eval_expr(&c.lhs);
        let b = self.eval_expr(&c.rhs);
        let nulls = self.merge_nulls(a.nulls, b.nulls);
        (a.vals, b.vals, nulls)
    }

    fn constraint_violation(&mut self, c: &CompiledConstraint) -> Vec<f64> {
        // A term against a literal, the usual atom, is one pass over the
        // term's lanes: no vector for either side.
        if let (CompiledExpr::Term(id), CompiledExpr::Literal(x)) = (&c.lhs, &c.rhs) {
            let mut out = self.bufs.floats();
            let null = Some(UNEVALUABLE_PENALTY);
            with_violation!(c.op, |violation| {
                self.term_lanes(*id, &mut out, |v| violation(v, *x), null, None)
            });
            return out;
        }
        let (mut a, b, nulls) = self.sides(c);
        with_violation!(c.op, |violation| {
            for (x, &y) in a.iter_mut().zip(&b) {
                *x = violation(*x, y);
            }
        });
        self.bufs.floats.push(b);
        if let Some(nulls) = nulls {
            for (x, &n) in a.iter_mut().zip(&nulls) {
                if n {
                    *x = UNEVALUABLE_PENALTY;
                }
            }
            self.bufs.flags.push(nulls);
        }
        a
    }

    fn constraint_satisfied(&mut self, c: &CompiledConstraint) -> Vec<bool> {
        let (a, b, nulls) = self.sides(c);
        let mut out = self.bufs.flags();
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(&b)) {
            *o = c.op.compare(x, y);
        }
        self.bufs.floats.extend([a, b]);
        if let Some(nulls) = nulls {
            out.iter_mut().zip(&nulls).for_each(|(o, &n)| *o &= !n);
            self.bufs.flags.push(nulls);
        }
        out
    }

    fn formula_satisfied(&mut self, f: &CompiledFormula) -> Vec<bool> {
        match f {
            CompiledFormula::Atom(c) => self.constraint_satisfied(c),
            CompiledFormula::And(a, b) | CompiledFormula::Or(a, b) => {
                let mut x = self.formula_satisfied(a);
                let y = self.formula_satisfied(b);
                let pairs = x.iter_mut().zip(&y);
                if matches!(f, CompiledFormula::And(..)) {
                    pairs.for_each(|(p, &q)| *p &= q);
                } else {
                    pairs.for_each(|(p, &q)| *p |= q);
                }
                self.bufs.flags.push(y);
                x
            }
            CompiledFormula::Not(a) => {
                let mut x = self.formula_satisfied(a);
                x.iter_mut().for_each(|p| *p = !*p);
                x
            }
        }
    }

    fn formula_violation(&mut self, f: &CompiledFormula) -> Vec<f64> {
        match f {
            CompiledFormula::Atom(c) => self.constraint_violation(c),
            CompiledFormula::And(a, b) | CompiledFormula::Or(a, b) => {
                let mut x = self.formula_violation(a);
                let y = self.formula_violation(b);
                let pairs = x.iter_mut().zip(&y);
                if matches!(f, CompiledFormula::And(..)) {
                    pairs.for_each(|(p, &q)| *p += q);
                } else {
                    pairs.for_each(|(p, &q)| *p = p.min(q));
                }
                self.bufs.floats.push(y);
                x
            }
            CompiledFormula::Not(a) => {
                let holds = self.formula_satisfied(a);
                let mut x = self.bufs.floats();
                for (p, &h) in x.iter_mut().zip(&holds) {
                    *p = if h { 1.0 } else { 0.0 };
                }
                self.bufs.flags.push(holds);
                x
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::SpillStore;
    use crate::package::Package;
    use crate::par::{chunk_count, CHUNK_WIDTH};
    use crate::spec::tests::spec_for;
    use crate::spec::{BuildCtx, PackageSpec};
    use crate::view::ColumnSink;
    use datagen::{uniform_table, Seed};
    use std::sync::Arc;

    /// Whether lane `i` passes the crafted FILTER. Word 0 of every block
    /// (lanes 0..64, 512..576, ...) includes every lane and word 1 none;
    /// the rest mix. Lanes 500..530 of each chunk are a run that crosses the
    /// first block boundary, between excluded lanes.
    fn crafted_included(i: usize) -> bool {
        let lane = i % CHUNK_WIDTH;
        match lane / 64 {
            7 | 8 => (500..530).contains(&lane),
            w if w % 4 == 0 => true,
            w if w % 4 == 1 => false,
            w if w % 4 == 2 => !lane.is_multiple_of(3),
            _ => lane.wrapping_mul(2_654_435_761) % 7 < 3,
        }
    }

    /// `spec`'s view with every term's inclusion mask replaced by the
    /// crafted FILTER (an excluded lane's coefficient is 0, a COUNT lane's
    /// 1), resident or spilled to `store`.
    fn crafted_view(spec: &PackageSpec<'_>, store: Option<&Arc<SpillStore>>) -> CandidateView {
        let view = spec.view();
        let n = view.candidate_count();
        CandidateView::assemble(
            spec.table,
            view.candidates().to_vec(),
            &spec.query,
            |call| {
                let t = view.term_keys().iter().position(|k| k == call).unwrap();
                let source = view.terms()[t].coeffs_vec();
                let included: Vec<bool> = (0..n).map(crafted_included).collect();
                let coeffs: Vec<f64> = (0..n)
                    .map(|i| match (included[i], call.func) {
                        (false, _) => 0.0,
                        (true, AggFunc::Count) => 1.0,
                        // The table's values, with signed zeros mixed in.
                        (true, _) if i % 11 == 0 => -0.0,
                        (true, _) => source[i],
                    })
                    .collect();
                let sink = match store {
                    Some(store) => ColumnSink::paged(call.func, Arc::clone(store), n),
                    None => ColumnSink::resident(call.func, n),
                };
                Some(sink.fill_from(&coeffs, &included).unwrap())
            },
            &BuildCtx::default(),
        )
        .unwrap()
    }

    fn score_bits((v, o): (f64, Option<f64>)) -> (u64, Option<u64>) {
        (v.to_bits(), o.map(f64::to_bits))
    }

    /// Every lane's kernel score after each prefix, with and without the
    /// objective, against [`ViewState::score_with`]'s bits. Returns the
    /// counts of all-included, all-excluded and mixed mask words seen.
    fn assert_kernel_equals_point_path(state: &ViewState<'_>, context: &str) -> [usize; 3] {
        let view = state.view();
        let mut prefixes = vec![Vec::new()];
        prefixes.extend(state.member_indices().map(|m| vec![(m, -1)]));
        let scans = [true, false].map(|want| state.move_scan(prefixes.clone(), want));
        let mut words = [0; 3];
        for c in 0..chunk_count(view.candidate_count()) {
            let mut chunks = scans.each_ref().map(|scan| scan.chunk(c));
            let range = chunks[0].range();
            for (p, prefix) in prefixes.iter().enumerate() {
                let [with, without] = chunks.each_mut().map(|chunk| {
                    let scores = chunk.score(p);
                    assert_eq!(scores.violations().len(), range.len());
                    (0..range.len())
                        .map(|i| score_bits(scores.get(i)))
                        .collect::<Vec<_>>()
                });
                for idx in range.clone() {
                    if state.multiplicity(idx) >= view.max_multiplicity() {
                        continue;
                    }
                    let mut changes = prefix.clone();
                    changes.push((idx, 1));
                    let (v, o) = state.score_with(&changes);
                    for (got, want) in [(&with, true), (&without, false)] {
                        assert_eq!(
                            got[idx - range.start],
                            score_bits((v, o.filter(|_| want))),
                            "{context}: +1 at {idx} after {prefix:?} (objective: {want})"
                        );
                    }
                }
            }
            let pin = view.terms()[0].chunk(c);
            for &word in &pin.mask_words()[..range.len().div_ceil(64)] {
                words[match word {
                    u64::MAX => 0,
                    0 => 1,
                    _ => 2,
                }] += 1;
            }
        }
        words
    }

    #[test]
    fn block_scores_equal_score_with_over_crafted_mask_words() {
        // Two chunks, the second a 300-lane tail (not a multiple of the
        // block width, nor of 64), every term under the crafted FILTER: the
        // empty base makes excluded lanes NULL, members in both chunks move
        // the accumulators, and REPEAT 2 keeps members' adds legal.
        let n = CHUNK_WIDTH + 300;
        let table = uniform_table("t", n, 2.0, 30.0, Seed(9));
        let formulas = [
            "COUNT(P.w) >= 2 AND SUM(P.w) BETWEEN 50 AND 80",
            "AVG(P.w) <= 20 OR NOT MAX(P.v) >= 25",
            "SUM(P.w) / COUNT(P.v) >= 10 AND MIN(P.u) >= 0.25",
            "SUM(P.w) - SUM(P.v) <> 3 AND COUNT(*) <= 4",
        ];
        let mut words = [0; 3];
        for formula in formulas {
            for repeat in ["", " REPEAT 2"] {
                let text = format!(
                    "SELECT PACKAGE(T) AS P FROM t T{repeat} SUCH THAT {formula} \
                     MAXIMIZE SUM(P.v)"
                );
                let spec = spec_for(&table, &text);
                for paged in [false, true] {
                    let store = paged.then(|| SpillStore::create(2).unwrap());
                    let view = crafted_view(&spec, store.as_ref());
                    assert_eq!(view.is_paged(), paged);
                    let context = format!("{text} (paged {paged})");
                    let empty = ViewState::empty(&view);
                    let counted = assert_kernel_equals_point_path(&empty, &context);
                    let members = [509, 515, CHUNK_WIDTH + 290];
                    let ids = members.iter().map(|&i| view.candidates()[i]);
                    let state = view.project(&Package::from_ids(ids)).unwrap();
                    assert_kernel_equals_point_path(&state, &context);
                    for (total, seen) in words.iter_mut().zip(counted) {
                        *total += seen;
                    }
                }
            }
        }
        assert!(
            words.iter().all(|&w| w > 0),
            "all-included, all-excluded and mixed words must all occur: {words:?}"
        );
    }
}
