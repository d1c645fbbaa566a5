//! Bounded-variable revised simplex on a flat, shared constraint matrix.
//!
//! Package ILP relaxations have a handful of rows (`m`) and thousands of
//! columns (`n`), so an iteration is dominated by pricing (`O(m · n)`), not by
//! basis maintenance, and a branch-and-bound node must not pay anything
//! proportional to `n` beyond the pivots it makes. Three pieces deliver that:
//!
//! * [`LpMatrix`] — the immutable part of an LP, built once per problem and
//!   shared by reference between branch-and-bound workers: the structural
//!   coefficients as one dense row-major `m × n` array, costs, right-hand
//!   sides and slack bounds. A row is a distinct linear form: constraints
//!   that repeat one (a `BETWEEN`'s two sides, a `COUNT(*)` row and the
//!   `Σx ≥ 1` support rows) share it as one ranged row, whose slack's bounds
//!   are the form's interval. Slack and artificial columns are implicit unit
//!   vectors and take no storage.
//! * [`LpWorkspace`] — everything a solve mutates, allocated once: flat
//!   `status`/`lb`/`ub` arrays over the root bounds plus the one value per
//!   column the entering-column selects read of them, the dense `m × m`
//!   basis inverse, and scratch for duals, the pivot row and pricing chunks.
//!   A solve applies its bound changes as an **overlay**: every column it
//!   touches (a branching patch, a status change) goes on a dirty list
//!   *before* it is mutated, and the next solve resets exactly those columns
//!   to the root state. Nothing in a node LP scans all `n` columns except
//!   pricing itself. [`LpWorkspace::solve_children`] solves the children of
//!   one branch-and-bound node from one overlay, one installed basis and one
//!   first ratio test.
//! * [`NodeLp`] — the compact result of a solve: status, objective,
//!   iterations, the (at most `m`) basic structural values and the [`Basis`]
//!   to warm-start children from. Non-basic columns rest on a bound, so the
//!   basic values are all branch and bound needs to pick a branching
//!   variable; [`LpWorkspace::nonzero_values`] lists the solution's support
//!   for the few nodes that become incumbent candidates.
//!
//! # Algorithm
//!
//! A textbook two-phase method with native variable bounds:
//!
//! 1. every row receives an artificial variable that forms the initial basis;
//!    phase 1 minimizes the sum of artificials (infeasible if it stays > 0);
//! 2. phase 2 minimizes the real objective starting from the phase-1 basis.
//!
//! Nonbasic variables rest at their lower or upper bound and may "bound flip"
//! without a basis change. Dantzig pricing is used by default, with a switch
//! to Bland's rule after a long run of degenerate pivots to guarantee
//! termination.
//!
//! [`LpWorkspace::solve`] optionally starts from a [`Basis`] snapshot of a
//! previous solve of the *same matrix* with different variable bounds —
//! exactly the relationship between a branch-and-bound parent and its
//! children. The warm path installs the snapshot, restores primal feasibility
//! with a bounded dual simplex (tightening a bound leaves the parent basis
//! dual feasible but may push one basic value outside its new bound), and
//! finishes with the ordinary primal loop. Warm starting is a pure
//! optimization: any mismatch or numerical trouble falls back to the cold
//! two-phase start **on the same workspace**, so the returned solution is
//! independent of the supplied basis.
//!
//! # Floating-point discipline
//!
//! Results are gated bit for bit (across thread counts, storage modes and
//! against recorded pivot sequences), so every kernel accumulates each
//! column's dot product in ascending row order with separate multiply and
//! add — no `mul_add`, no reassociation. Pricing computes a chunk of reduced
//! costs (and pivot-row entries) with row-sweeping loops the compiler can
//! vectorize *across columns*, which leaves each column's own summation
//! order untouched. A zero coefficient stored densely contributes `± 0.0` to
//! a sum, which changes no value a comparison can see.
//!
//! The two `n`-length sweeps of a pivot — a chunk of pricing and a chunk of
//! the dual ratio test, each with its select — come in two twins: the
//! portable body, compiled for the baseline target, and the same body
//! inlined into a `#[target_feature(enable = "avx2")]` function, taken when
//! the CPU reports AVX2 (`widest`, around `LpMatrix::price_chunk` and
//! `LpMatrix::ratio_chunk`).
//! The AVX2 twin computes four lanes where the baseline computes two, with
//! the same IEEE multiply and the same IEEE add per lane in the same row
//! order: `fma` is never enabled (pb-lint's `no-fused-multiply-add` rejects
//! it), so nothing can fuse, and the twins agree bit for bit (the property
//! `the_avx2_sweeps_equal_the_portable_ones`; a NaN's payload is the one
//! thing they may differ in, and no comparison reads it). The `m × m`
//! kernels — `ftran`, the inverse update, refactorization, the duals — stay
//! portable: at the handful of rows package ILPs have, their loops are too
//! short for wider vectors to pay for the call.
//!
//! # Selecting from a block mask
//!
//! The entering column is then chosen in ascending column order with the
//! tie-breaks written out in `RatioPick` and `PricePick`. The exact
//! per-column test needs a column's status and both bounds; all it needs
//! *of* them is the direction the column may move in, so the workspace keeps
//! that as one `f64` per column (NaN when the column is basic or fixed — no
//! comparison accepts it), written wherever a status or bound is. A select
//! tests `SELECT_BLOCK` columns at once, without a branch, against its
//! threshold **as it stood when the block was entered** — the ratio bound of
//! the dual test, the best `|d|` under Dantzig — skips the block if no lane
//! passes, and otherwise runs the exact test, with the current threshold,
//! over the block. The invariant that makes this bit-identical to testing
//! every column: a threshold only ever tightens, so the block test rejects
//! only lanes the exact test would reject (NaN lanes fall through both the
//! same way). The per-column loops this replaced live on as the oracle of
//! the select property tests at the bottom of this file.

// Dense matrix kernels index flat `binv[pos * m + k]` storage; rewriting the
// row/column loops as iterator chains obscures the linear algebra.
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;

use crate::error::LpError;
use crate::problem::{ConstraintOp, Problem, Sense, VarType};
use crate::solution::{Solution, Status};
use crate::{LpResult, SolverConfig};

const PIVOT_TOL: f64 = 1e-10;

/// Feasibility / reduced-cost tolerance.
pub(crate) const TOLERANCE: f64 = 1e-7;

/// Maximum simplex pivots per LP solve.
const MAX_ITERATIONS: usize = 50_000;

/// Refactorize the basis inverse every this many pivots.
const REFACTOR_EVERY: usize = 64;

/// Structural columns priced per chunk: the chunk of reduced costs stays in
/// L1 while the `m` matrix rows stream through it.
const PRICE_CHUNK: usize = 1024;

/// Columns per select block: the entering-column selects decide a block at a
/// time, branch-free, whether any of its columns can still win, and look at
/// single columns only in a block that keeps one. A divisor of
/// `PRICE_CHUNK`, so only a scan's last block can be partial.
const SELECT_BLOCK: usize = 16;

/// Where a column currently lives. The basis position of a basic column is
/// found through [`LpWorkspace::basis`], never through its status, so the
/// status array stays one byte per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
    Free,
}

impl ColStatus {
    /// The direction a nonbasic column may move in: `+1` up from its lower
    /// bound, `−1` down from its upper, `0` either way — and NaN for a basic
    /// column, which no comparison accepts. A table lookup, so the pricing
    /// passes can test movability without branching on the status.
    #[inline]
    fn direction(self) -> f64 {
        [f64::NAN, 1.0, -1.0, 0.0][self as usize]
    }
}

/// The nonbasic status a column defaults to given its bounds; snapshots only
/// record columns that deviate from this rule, which keeps them tiny.
fn default_status(lb: f64, ub: f64) -> ColStatus {
    if lb.is_finite() {
        ColStatus::AtLower
    } else if ub.is_finite() {
        ColStatus::AtUpper
    } else {
        ColStatus::Free
    }
}

/// A reported variable value: numerical excursions clamped back into the
/// bounds, dust snapped to zero.
fn settle(v: f64, lb: f64, ub: f64) -> f64 {
    let mut v = v;
    if v < lb {
        v = lb;
    }
    if v > ub {
        v = ub;
    }
    if v.abs() < 1e-11 {
        v = 0.0;
    }
    v
}

/// Where a nonbasic column with this status rests.
#[inline]
fn resting_value(status: ColStatus, lb: f64, ub: f64) -> f64 {
    match status {
        ColStatus::AtLower => lb,
        ColStatus::AtUpper => ub,
        ColStatus::Free | ColStatus::Basic => 0.0,
    }
}

/// A column whose bounds leave it no room to move (equality slacks, frozen
/// artificials, variables a branch fixed): never an entering candidate.
#[inline]
fn is_fixed(lb: f64, ub: f64) -> bool {
    (ub - lb <= 0.0) & lb.is_finite()
}

/// What the entering-column selects know about a column: the direction it
/// may move in ([`ColStatus::direction`]), or NaN when it cannot enter at
/// all — basic, or fixed by its bounds.
#[inline]
fn movable(status: ColStatus, lb: f64, ub: f64) -> f64 {
    if is_fixed(lb, ub) {
        f64::NAN
    } else {
        status.direction()
    }
}

/// The ascending union of two ascending index lists.
fn merge_ascending<'s>(a: &'s [usize], b: &'s [usize]) -> impl Iterator<Item = usize> + 's {
    let (mut i, mut k) = (0, 0);
    std::iter::from_fn(move || {
        let j = match (a.get(i), b.get(k)) {
            (None, None) => return None,
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (Some(&x), Some(&y)) => x.min(y),
        };
        i += usize::from(a.get(i) == Some(&j));
        k += usize::from(b.get(k) == Some(&j));
        Some(j)
    })
}

/// A compact snapshot of a simplex basis, used by [`LpWorkspace::solve`] to
/// start a solve from a previous optimal basis instead of from scratch.
///
/// The snapshot stores the basic column of every row plus only the nonbasic
/// columns that do *not* rest at the default bound implied by their bounds
/// (most columns of a package LP sit at their lower bound), so it costs a few
/// dozen bytes per branch-and-bound node rather than `O(columns)`.
///
/// # Invariants
///
/// * A snapshot only applies to the same matrix *shape* (equal row and
///   column counts, where `m` counts the [`LpMatrix`]'s rows — distinct
///   linear forms — not the [`Problem`]'s constraints); a solve verifies
///   this and falls back to a cold start on any mismatch.
/// * Statuses are positional ("at lower", "at upper"), not value-based, so a
///   snapshot stays valid when bound *values* change — the branch-and-bound
///   child relationship.
/// * Warm starting never changes the optimum, only the iteration count: the
///   dual-simplex repair either succeeds, proves the subproblem infeasible,
///   or gives up and re-solves cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    m: u32,
    ncols: u32,
    /// Basic column of each row position.
    basis: Vec<u32>,
    /// Nonbasic columns whose status differs from the bound-implied default:
    /// `(column, code)` with 0 = at lower, 1 = at upper, 2 = free.
    nondefault: Vec<(u32, u8)>,
}

/// Outcome of the dual-simplex feasibility repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualOutcome {
    /// All basic values are back inside their bounds; the basis is optimal
    /// up to the primal cleanup pass.
    Feasible,
    /// The dual is unbounded: the subproblem has no feasible point.
    Infeasible,
    /// Pivot cap reached without converging; caller re-solves cold.
    GaveUp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IterOutcome {
    Continue,
    Optimal,
    Unbounded,
}

/// Calls `block(offset of its first lane, its lanes)` for every
/// [`SELECT_BLOCK`] lanes of `K` parallel slices, in ascending order, until
/// one call returns true. The last, partial block is padded with NaN, which
/// no select keeps. Callers mark `block` `#[inline(always)]`: a closure is a
/// function of its own, and only an inlined one is compiled into the AVX2
/// twins with the rest of the sweep.
#[inline(always)]
fn for_each_block<const K: usize>(
    lanes: [&[f64]; K],
    mut block: impl FnMut(usize, [&[f64; SELECT_BLOCK]; K]) -> bool,
) -> bool {
    let split = lanes.map(|lane| lane.as_chunks::<SELECT_BLOCK>());
    let full = split[0].0.len();
    for b in 0..full {
        if block(b * SELECT_BLOCK, split.map(|(blocks, _)| &blocks[b])) {
            return true;
        }
    }
    let rest = split[0].1.len();
    if rest == 0 {
        return false;
    }
    let mut padded = [[f64::NAN; SELECT_BLOCK]; K];
    for (pad, (_, tail)) in padded.iter_mut().zip(split) {
        pad[..rest].copy_from_slice(tail);
    }
    block(full * SELECT_BLOCK, padded.each_ref())
}

/// `n` values, `+0.0` wherever `nonzero` names no other: the dense form of
/// [`LpWorkspace::nonzero_values`].
pub(crate) fn densify(n: usize, nonzero: &[(usize, f64)]) -> Vec<f64> {
    let mut values = vec![0.0; n];
    for &(j, v) in nonzero {
        values[j] = v;
    }
    values
}

/// One direction of a dual ratio test: the nonbasic, movable column with the
/// smallest `|d_j / α_j|` whose movement shrinks the leaving row's violation,
/// ties (within 1e-12) to the lowest index.
#[derive(Debug, Clone, Copy)]
struct RatioPick {
    /// The leaving basic value sits below its lower bound (else above its
    /// upper one).
    below: bool,
    /// `(column, |d/α|)` of the best column so far.
    entering: Option<(usize, f64)>,
    /// No ratio above this can still win: the incumbent plus the tie window,
    /// with a margin far wider than the division's rounding. It only ever
    /// tightens, which is what makes the block mask of [`Self::scan`]
    /// conservative.
    bound: f64,
}

impl RatioPick {
    fn new(below: bool) -> Self {
        RatioPick {
            below,
            entering: None,
            bound: f64::INFINITY,
        }
    }

    /// Cannot be ruled out against `bound`: movable towards the violated
    /// bound over a usable pivot, and not hopeless. `Δxb[pos] = −Δx_j·α_j`
    /// and `Δx_j` must respect the column's movable direction, so
    /// eligibility is a sign condition; the hopeless test is written so that
    /// a NaN anywhere falls through to the division.
    #[inline(always)]
    fn keeps(&self, bound: f64, alpha: f64, d: f64, dir: f64) -> bool {
        let toward = if self.below {
            -(dir * alpha)
        } else {
            dir * alpha
        };
        let eligible = (alpha.abs() > PIVOT_TOL) & ((toward > 0.0) | (dir == 0.0));
        let hopeless = d.abs() > bound * alpha.abs();
        eligible & !hopeless
    }

    /// The exact test of one column against the best so far.
    #[inline(always)]
    fn consider(&mut self, j: usize, alpha: f64, d: f64, dir: f64) {
        if !self.keeps(self.bound, alpha, d, dir) {
            return;
        }
        let ratio = (d / alpha).abs();
        let better = match self.entering {
            None => true,
            Some((bj, best)) => ratio < best - 1e-12 || ((ratio - best).abs() <= 1e-12 && j < bj),
        };
        if better {
            self.entering = Some((j, ratio));
            self.bound = (ratio + 2e-12) * (1.0 + 1e-9);
        }
    }

    /// Considers the columns `start..start + alpha.len()` in ascending order.
    /// Every dual pivot visits every column and which way a column's α
    /// points is a coin flip, so a block is first tested as a whole, without
    /// a branch, against the bound *as it stood at block entry*: the bound
    /// only tightens, so a lane that test rejects the exact test rejects
    /// too, and a block that keeps no lane is skipped.
    #[inline(always)]
    fn scan(&mut self, start: usize, alpha: &[f64], d: &[f64], dir: &[f64]) {
        for_each_block(
            [alpha, d, dir],
            #[inline(always)]
            |at, [alpha, d, dir]| {
                let bound = self.bound;
                let mut any = false;
                for k in 0..SELECT_BLOCK {
                    any |= self.keeps(bound, alpha[k], d[k], dir[k]);
                }
                if any {
                    for k in 0..SELECT_BLOCK {
                        self.consider(start + at + k, alpha[k], d[k], dir[k]);
                    }
                }
                false
            },
        );
    }
}

/// The pricing select: the improving column with the largest `|d_j|`, ties
/// to the lowest index (Dantzig), or the first improving one (Bland).
#[derive(Debug, Clone, Copy)]
struct PricePick {
    tol: f64,
    bland: bool,
    /// `(column, increasing, |d|)` of the best column so far.
    best: Option<(usize, bool, f64)>,
}

impl PricePick {
    /// Improving — up from a lower bound, down from an upper one, either if
    /// free — and, under Dantzig, above `floor`.
    #[inline(always)]
    fn keeps(&self, floor: f64, d: f64, dir: f64) -> bool {
        (((d < -self.tol) & (dir >= 0.0)) | ((d > self.tol) & (dir <= 0.0))) & (d.abs() > floor)
    }

    /// The score a column must beat: the best so far under Dantzig, none
    /// under Bland or before the first hit. It only ever rises.
    #[inline(always)]
    fn floor(&self) -> f64 {
        match self.best {
            Some((_, _, score)) if !self.bland => score,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The exact test of one column; true when the search is over (Bland
    /// takes the first hit).
    #[inline(always)]
    fn consider(&mut self, j: usize, d: f64, dir: f64) -> bool {
        if !self.keeps(self.floor(), d, dir) {
            return false;
        }
        self.best = Some((j, d < -self.tol, d.abs()));
        self.bland
    }

    /// Considers the columns `start..start + d.len()` in ascending order;
    /// true when the search is over. Near the optimum almost no column
    /// improves, so a block is tested as a whole against the floor at block
    /// entry, exactly as in [`RatioPick::scan`].
    #[inline(always)]
    fn scan(&mut self, start: usize, d: &[f64], dir: &[f64]) -> bool {
        for_each_block(
            [d, dir],
            #[inline(always)]
            |at, [d, dir]| {
                let floor = self.floor();
                let mut any = false;
                for k in 0..SELECT_BLOCK {
                    any |= self.keeps(floor, d[k], dir[k]);
                }
                any && (0..SELECT_BLOCK).any(|k| self.consider(start + at + k, d[k], dir[k]))
            },
        )
    }
}

/// The immutable part of an LP: everything about a [`Problem`] that no solve
/// changes. Built once per problem — once per MILP solve — and shared by
/// reference between every [`LpWorkspace`] that solves it.
///
/// A row is one distinct linear form of the problem's constraints, so `m`
/// can be smaller than [`Problem::num_constraints`]: every constraint on the
/// form narrows the interval `[lo, hi]` the row's value must lie in, and
/// that interval is the row's slack's bounds (see [`LpMatrix::new`]).
///
/// Columns are numbered structural `0..n`, slack `n..n+m` (one per row,
/// coefficient `+1`), artificial `n+m..n+2m` (one per row, coefficient `±1`
/// chosen per solve). Only the structural block is stored.
#[derive(Debug, Clone)]
pub struct LpMatrix {
    n: usize,
    m: usize,
    /// Structural coefficients, dense row-major: `a[row * n + j]`.
    a: Vec<f64>,
    /// Phase-2 cost of each structural column (the objective, negated for
    /// maximization: the simplex always minimizes).
    cost: Vec<f64>,
    sense: Sense,
    /// Right-hand side per row: `hi`, or `lo` when `hi` is infinite.
    b: Vec<f64>,
    /// `1 + max |rhs|` over the problem's constraints: scales the phase-1
    /// infeasibility tolerance.
    feas_scale: f64,
    /// Slack bounds per row, `a·x + s = b`: `[0, hi − lo]` when `hi` is
    /// finite (`[0, ∞)` for a lone `Le`, `[0, 0]` for an `Eq`), else
    /// `(−∞, 0]` (a lone `Ge`).
    slack_lb: Vec<f64>,
    slack_ub: Vec<f64>,
    /// Structural columns whose objective coefficient has a clear sign bit;
    /// decides the sign of an all-zero objective.
    nonneg_objective: usize,
}

impl LpMatrix {
    /// Validates `problem` and lays it out for the simplex kernels: one row
    /// per distinct linear form, in the order of its first constraint.
    ///
    /// Constraints whose dense coefficients are equal share a row (found by
    /// a hash of the row, compared exactly on a hit), and their intervals —
    /// `Le` `(−∞, rhs]`, `Ge` `[rhs, ∞)`, `Eq` `[rhs, rhs]` — are
    /// intersected into `[lo, hi]`. The row is laid out as `b = hi`, slack
    /// `∈ [0, hi − lo]` when `hi` is finite and as `b = lo`, slack
    /// `∈ (−∞, 0]` otherwise, so a form no other constraint repeats is laid
    /// out exactly as its one constraint reads. An empty interval leaves the
    /// slack with `lb > ub`, which makes every solve infeasible.
    pub fn new(problem: &Problem) -> LpResult<Self> {
        problem.validate()?;
        let n = problem.num_vars();
        let obj_sign = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut a = Vec::with_capacity(problem.num_constraints() * n);
        // `(lo, hi)` of each row, and the rows of each form hash.
        let mut ranges: Vec<(f64, f64)> = Vec::new();
        let mut rows_of: HashMap<u64, Vec<usize>> = HashMap::new();
        // Over every constraint, merged or not (finite by validation).
        let mut rhs_max = 0.0f64;
        for c in problem.constraints() {
            rhs_max = rhs_max.max(c.rhs.abs());
            let start = a.len();
            a.resize(start + n, 0.0);
            for (v, coeff) in c.expr.terms() {
                a[start + v.index()] = coeff;
            }
            let (lo, hi) = match c.op {
                ConstraintOp::Le => (f64::NEG_INFINITY, c.rhs),
                ConstraintOp::Ge => (c.rhs, f64::INFINITY),
                ConstraintOp::Eq => (c.rhs, c.rhs),
            };
            let (rows, form) = a.split_at(start);
            // FNV-1a over the coefficient bits. `LinExpr` keeps no zero term,
            // so every zero here is the `+0.0` the row was filled with.
            let hash = form.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            });
            let same = rows_of.entry(hash).or_default();
            match same.iter().find(|&&row| rows[row * n..][..n] == *form) {
                Some(&row) => {
                    let range = &mut ranges[row];
                    *range = (range.0.max(lo), range.1.min(hi));
                    a.truncate(start);
                }
                None => {
                    same.push(ranges.len());
                    ranges.push((lo, hi));
                }
            }
        }
        let m = ranges.len();
        let mut b = Vec::with_capacity(m);
        let mut slack_lb = Vec::with_capacity(m);
        let mut slack_ub = Vec::with_capacity(m);
        for &(lo, hi) in &ranges {
            let (rhs, lb, ub) = if hi.is_finite() {
                (hi, 0.0, hi - lo)
            } else {
                (lo, f64::NEG_INFINITY, 0.0)
            };
            b.push(rhs);
            slack_lb.push(lb);
            slack_ub.push(ub);
        }
        Ok(LpMatrix {
            n,
            m,
            a,
            cost: problem.objective().iter().map(|c| obj_sign * c).collect(),
            sense: problem.sense(),
            b,
            feas_scale: 1.0 + rhs_max,
            slack_lb,
            slack_ub,
            nonneg_objective: problem
                .objective()
                .iter()
                .filter(|c| !c.is_sign_negative())
                .count(),
        })
    }

    /// Rows: the distinct linear forms of the problem's constraints.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Structural columns: the problem's variables.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Objective coefficient of structural column `j` in the problem's own
    /// sense (`cost` holds it negated for maximization; negation is exact).
    fn objective_coeff(&self, j: usize) -> f64 {
        match self.sense {
            Sense::Minimize => self.cost[j],
            Sense::Maximize => -self.cost[j],
        }
    }

    /// Calls `f(row, coefficient)` for every non-zero entry of column `j`,
    /// in ascending row order.
    #[inline]
    fn column(&self, art_sign: &[f64], j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for row in 0..self.m {
                let a = self.a[row * self.n + j];
                if a != 0.0 {
                    f(row, a);
                }
            }
        } else if j < self.n + self.m {
            f(j - self.n, 1.0);
        } else {
            let row = j - self.n - self.m;
            f(row, art_sign[row]);
        }
    }

    /// `out[k] = c − y · A` for the structural columns `start..start + out.len()`
    /// (`c` is zero under phase-1 costs).
    #[inline(always)]
    fn reduced_costs(&self, phase_one: bool, y: &[f64], start: usize, out: &mut [f64]) {
        if phase_one {
            out.fill(0.0);
        } else {
            out.copy_from_slice(&self.cost[start..start + out.len()]);
        }
        self.add_rows(y, true, start, out);
    }

    /// `out[k] += coeffs[row] · a[row][start + k]` for every row in ascending
    /// order: a vectorizable sweep across columns that keeps each column's
    /// own accumulation in row order. Rows with a zero coefficient add
    /// `± 0.0` and are skipped.
    #[inline(always)]
    fn add_rows(&self, coeffs: &[f64], negate: bool, start: usize, out: &mut [f64]) {
        for (row, &c) in coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            // `x − c·a` is `x + (−c)·a` bit for bit (negation is exact and
            // subtraction is addition of the negation).
            let c = if negate { -c } else { c };
            let a = &self.a[row * self.n + start..][..out.len()];
            for (o, &x) in out.iter_mut().zip(a) {
                *o += c * x;
            }
        }
    }

    /// One chunk of the dual ratio test: `α_j = ρ · A_j` into `alpha` and
    /// `d_j = c_j − y · A_j` into `d` for the structural columns
    /// `start..start + alpha.len()`, then every pick's scan of them. The
    /// portable body of both twins: the sweep runs it through [`widest`].
    #[inline(always)]
    fn ratio_chunk(
        &self,
        rho: &[f64],
        y: &[f64],
        start: usize,
        [alpha, d]: [&mut [f64]; 2],
        dir: &[f64],
        picks: &mut [RatioPick],
    ) {
        alpha.fill(0.0);
        self.add_rows(rho, false, start, alpha);
        self.reduced_costs(false, y, start, d);
        for pick in picks.iter_mut() {
            pick.scan(start, alpha, d, dir);
        }
    }

    /// One chunk of pricing: `d_j = c_j − y · A_j` into `d` for the
    /// structural columns `start..start + d.len()`, then the pick's scan of
    /// them; true when the search is over. The portable body of both twins,
    /// as [`Self::ratio_chunk`] is.
    #[inline(always)]
    fn price_chunk(
        &self,
        phase_one: bool,
        y: &[f64],
        start: usize,
        d: &mut [f64],
        dir: &[f64],
        pick: &mut PricePick,
    ) -> bool {
        self.reduced_costs(phase_one, y, start, d);
        pick.scan(start, d, dir)
    }
}

/// Runs `body` in the widest twin the CPU runs: compiled for AVX2 when the
/// CPU reports it, else for the baseline target. `body` is an
/// `#[inline(always)]` closure over `#[inline(always)]` kernels, so the whole
/// sweep is compiled into each twin.
#[inline(always)]
fn widest<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has just reported AVX2, the one feature the twin
        // is compiled for.
        return unsafe { with_avx2(body) };
    }
    body()
}

/// `body` compiled for AVX2: four lanes of separate `vmulpd`/`vaddpd` where
/// the baseline has two (no `fma`, so every lane rounds as the portable twin
/// does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The compact result of one [`LpWorkspace::solve`].
#[derive(Debug, Clone)]
pub struct NodeLp {
    /// `Optimal`, `Infeasible` or `Unbounded`.
    pub status: Status,
    /// Objective in the problem's own sense: exactly the value
    /// `Problem::objective_value` returns on [`LpWorkspace::dense_values`]
    /// (`±∞` when unbounded, NaN when infeasible).
    pub objective: f64,
    /// Simplex pivots spent, a failed warm attempt included.
    pub iterations: usize,
    /// `(variable, value)` of every *basic* structural column, ascending by
    /// variable — at most one per row. Every other structural variable rests
    /// on one of its bounds (or at zero when free). Empty unless optimal.
    pub basics: Vec<(usize, f64)>,
    /// The final basis, for warm-starting further solves. `None` unless
    /// optimal.
    pub basis: Option<Basis>,
    /// The solve ended in the cold two-phase path: it was given no basis, or
    /// the warm attempt did not fit, stalled or failed numerically.
    pub cold: bool,
}

impl NodeLp {
    fn status_only(status: Status, iterations: usize) -> Self {
        NodeLp {
            status,
            objective: f64::NAN,
            iterations,
            basics: Vec::new(),
            basis: None,
            cold: false,
        }
    }
}

/// The first dual ratio test of a node's children, evaluated once from the
/// state they share (see [`LpWorkspace::solve_children`]).
#[derive(Debug, Clone, Copy)]
struct FirstTest {
    /// Basis position of the branching variable.
    pos: usize,
    /// The entering column for a violation above the upper bound (`[0]`) and
    /// below the lower one (`[1]`); the outer `None` is "not evaluated", the
    /// inner one "no column: infeasible".
    entering: [Option<Option<usize>>; 2],
}

/// A reusable solve workspace over one [`LpMatrix`].
///
/// Every node of a branch-and-bound search solves the *same* LP with only a
/// few structural bounds changed. The workspace owns the root bounds and the
/// statuses they imply; [`LpWorkspace::solve`] lays a node's bound changes
/// over them, solves warm or cold on the same preallocated storage, and the
/// next call undoes exactly what the previous one touched.
///
/// **Purity invariant**: a solve's result is a pure function of
/// `(overlay, warm, config)`. Every column whose bounds or status a solve
/// changes is pushed on the dirty list *before* the change, so the reset at
/// the start of the next solve restores the root state even when the
/// previous solve unwound from a panic half-way; the basis, its inverse,
/// artificial signs and pivot-state fields are rebuilt by every solve before
/// they are read. That is what lets the deterministic parallel search hand
/// workspaces to arbitrary worker threads without affecting results (see
/// `crate::branch_bound`).
pub struct LpWorkspace<'a> {
    mat: &'a LpMatrix,
    /// Root `(lb, ub)` of the structural columns, as given and shared by
    /// every worker; see [`Self::root_bounds`] for the other columns.
    root: &'a [(f64, f64)],
    /// Columns whose root-default value is non-zero, ascending.
    root_nonzero: Vec<usize>,
    /// Some root bound pair is empty (`lb > ub`) — a structural column's, or
    /// a slack's whose row's constraints contradict each other: every solve
    /// is infeasible.
    root_empty: bool,
    // ---- per-solve state, reset through the dirty list ----
    lb: Vec<f64>,
    ub: Vec<f64>,
    status: Vec<ColStatus>,
    /// [`movable`] of every column: all the entering-column selects read of
    /// the three arrays above, kept in step by [`Self::set_col`].
    dir: Vec<f64>,
    /// Columns whose `lb`/`ub`/`status` may differ from the root state.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    // ---- the state the children of one node share ----
    /// `(column, lb, ub, status)` before every column write since the
    /// children's shared state was reached, while another child will need
    /// it back.
    undo: Vec<(usize, f64, f64, ColStatus)>,
    logging: bool,
    /// `binv` then `xb` of the shared warm basis.
    saved: Vec<f64>,
    // ---- per-solve state, rebuilt by every solve ----
    /// Coefficient (`±1`) of each row's artificial column.
    art_sign: Vec<f64>,
    /// Phase-1 costs (artificials 1, everything else 0) are active.
    phase_one: bool,
    basis: Vec<usize>,
    /// Dense row-major m×m basis inverse.
    binv: Vec<f64>,
    /// Values of basic variables, by basis position.
    xb: Vec<f64>,
    iterations: usize,
    use_bland: bool,
    degenerate_run: usize,
    /// The solution of the last solve when the matrix has no rows.
    unconstrained: Vec<f64>,
    // ---- scratch ----
    y: Vec<f64>,
    rho: Vec<f64>,
    w: Vec<f64>,
    rhs: Vec<f64>,
    lu: Vec<f64>,
    dbuf: Vec<f64>,
    abuf: Vec<f64>,
}

impl<'a> LpWorkspace<'a> {
    /// Builds a workspace over `mat` with `root` as the `(lb, ub)` bounds of
    /// the structural variables.
    ///
    /// # Panics
    ///
    /// If `root` does not cover every structural variable.
    pub fn new(mat: &'a LpMatrix, root: &'a [(f64, f64)]) -> Self {
        let (n, m) = (mat.n, mat.m);
        assert_eq!(root.len(), n, "one bound pair per structural variable");
        let ncols = n + 2 * m;
        let (lb, ub): (Vec<f64>, Vec<f64>) =
            (0..ncols).map(|j| Self::root_bounds(mat, root, j)).unzip();
        let status: Vec<ColStatus> = (0..ncols).map(|j| default_status(lb[j], ub[j])).collect();
        let root_nonzero = (0..ncols)
            .filter(|&j| resting_value(status[j], lb[j], ub[j]) != 0.0)
            .collect();
        let dir = (0..ncols)
            .map(|j| movable(status[j], lb[j], ub[j]))
            .collect();
        // A pricing chunk of structural columns, or all the slack and
        // artificial ones.
        let chunk = PRICE_CHUNK.min(n).max(2 * m);
        LpWorkspace {
            mat,
            root,
            root_nonzero,
            root_empty: lb.iter().zip(&ub).any(|(lb, ub)| lb > ub),
            lb,
            ub,
            status,
            dir,
            dirty: Vec::new(),
            is_dirty: vec![false; ncols],
            undo: Vec::new(),
            logging: false,
            saved: vec![0.0; m * m + m],
            art_sign: vec![1.0; m],
            phase_one: false,
            basis: vec![0; m],
            binv: vec![0.0; m * m],
            xb: vec![0.0; m],
            iterations: 0,
            use_bland: false,
            degenerate_run: 0,
            unconstrained: Vec::new(),
            y: vec![0.0; m],
            rho: vec![0.0; m],
            w: vec![0.0; m],
            rhs: vec![0.0; m],
            lu: vec![0.0; m * m],
            dbuf: vec![0.0; chunk],
            abuf: vec![0.0; chunk],
        }
    }

    /// Solves the LP under the root bounds overlaid with `overlay`:
    /// `(variable, lb, ub)` bound changes, **nearest first** — the first
    /// entry naming a variable wins, which is the order a branch-and-bound
    /// patch chain is walked in. An empty domain (`lb > ub`) is an
    /// infeasible subproblem, not an error.
    ///
    /// With `warm`, the solve starts from that basis (dual-simplex repair,
    /// then the primal loop) and falls back to the cold two-phase start on
    /// the same storage when the basis does not fit, the repair stalls or
    /// the numerics fail; the pivots the attempt spent stay on the iteration
    /// count.
    pub fn solve<I>(
        &mut self,
        overlay: I,
        warm: Option<&Basis>,
        config: &SolverConfig,
    ) -> LpResult<NodeLp>
    where
        I: IntoIterator<Item = (usize, f64, f64)>,
    {
        let empty = self.lay(overlay, None)?;
        if let Some(lp) = self.trivial(empty) {
            return Ok(lp);
        }
        let installed = warm.is_some_and(|basis| self.install(basis));
        self.run(installed, None, config)
    }

    /// Solves the children of one branch-and-bound node: for every
    /// `(lb, ub)` of `children`, in order, exactly the LP
    /// `solve([(var, lb, ub)] ++ overlay, warm)` — same status, objective
    /// bits, iterations, basic values and basis as that call on a fresh
    /// workspace — and hands each finished LP to `each` while the workspace
    /// still holds its solution (for [`Self::nonzero_values`]).
    ///
    /// The children differ in the bounds of `var` alone, and `var` — the
    /// fractional variable the parent branched on — is basic in the
    /// parent's basis, so nothing up to their first pivot can tell them
    /// apart except the direction `var` is pushed in: a basic column's
    /// bounds enter neither the right-hand side nor the basis inverse, the
    /// duals, the pivot row or any reduced cost. The overlay is therefore
    /// laid and the basis installed and refactorized **once**; `B⁻¹` and
    /// `x_B` are checkpointed; the first dual ratio test on `var`'s row is
    /// evaluated for every direction the children need in one sweep over
    /// the columns; and each child after the first starts from the restored
    /// checkpoint, every column write of its predecessor undone. A child
    /// still picks its own leaving row and takes the shared test's column
    /// only if that row is `var`'s. When `warm` is absent, does not fit or
    /// does not hold `var` basic, the children share the overlay only.
    ///
    /// An error that concerns the whole node (an unknown variable) is
    /// returned for every child.
    pub fn solve_children<I, T>(
        &mut self,
        overlay: I,
        warm: Option<&Basis>,
        var: usize,
        children: &[(f64, f64)],
        config: &SolverConfig,
        mut each: impl FnMut(&Self, NodeLp) -> T,
    ) -> Vec<LpResult<T>>
    where
        I: IntoIterator<Item = (usize, f64, f64)>,
    {
        let laid = if var < self.mat.n {
            self.lay(overlay, Some(var))
        } else {
            Err(LpError::UnknownVariable(var))
        };
        let empty = match laid {
            Ok(empty) => empty,
            Err(e) => return children.iter().map(|_| Err(e.clone())).collect(),
        };
        let first = match warm {
            Some(basis) if !empty && self.mat.m > 0 => self.install_shared(basis, var, children),
            _ => None,
        };
        // The basis the children share installed, if they share one.
        let shared = warm.filter(|_| first.is_some());
        let mut results = Vec::with_capacity(children.len());
        for (i, &(lb, ub)) in children.iter().enumerate() {
            if i > 0 {
                self.rewind(shared);
            }
            self.logging = i + 1 < children.len();
            let status = match shared {
                Some(_) => ColStatus::Basic,
                None => default_status(lb, ub),
            };
            self.set_col(var, lb, ub, status);
            let lp = match self.trivial(empty || lb > ub) {
                Some(lp) => Ok(lp),
                None => {
                    let installed =
                        shared.is_some() || warm.is_some_and(|basis| self.install(basis));
                    self.run(installed, first, config)
                }
            };
            results.push(lp.map(|lp| each(self, lp)));
        }
        self.logging = false;
        results
    }

    /// The structural solution of the last solve (meaningful after an
    /// `Optimal` or `Unbounded` outcome) as `(variable, value)` for every
    /// value whose bits are not `+0.0`, ascending by variable. `O(n)` to
    /// compute, so branch and bound only asks for it at incumbent
    /// candidates, but only a package's support to hold: a pool worker
    /// hands back a few pairs, not an `n`-vector its allocator arena would
    /// keep after the solve.
    pub fn nonzero_values(&self) -> Vec<(usize, f64)> {
        let n = self.mat.n;
        if self.mat.m == 0 {
            let values = self.unconstrained.iter().copied().enumerate();
            return values.filter(|(_, v)| v.to_bits() != 0).collect();
        }
        let mut basic: Vec<(usize, f64)> = (self.basis.iter().enumerate())
            .filter(|&(_, &j)| j < n)
            .map(|(pos, &j)| (j, settle(self.xb[pos], self.lb[j], self.ub[j])))
            .collect();
        basic.sort_unstable_by_key(|&(j, _)| j);
        let mut basic = basic.into_iter().peekable();
        let mut values = Vec::new();
        for j in 0..n {
            let v = match basic.next_if(|&(b, _)| b == j) {
                Some((_, v)) => v,
                None => settle(self.nonbasic_value(j), self.lb[j], self.ub[j]),
            };
            if v.to_bits() != 0 {
                values.push((j, v));
            }
        }
        values
    }

    /// The full structural solution of the last solve:
    /// [`Self::nonzero_values`] laid out densely.
    pub fn dense_values(&self) -> Vec<f64> {
        densify(self.mat.n, &self.nonzero_values())
    }

    // ---- overlay bookkeeping ----

    /// Resets the workspace to the root state and lays `overlay` over it,
    /// nearest patch first. `shadow` names a variable whose patches a nearer
    /// one — the caller's — overrides. True when some domain is empty.
    fn lay<I>(&mut self, overlay: I, shadow: Option<usize>) -> LpResult<bool>
    where
        I: IntoIterator<Item = (usize, f64, f64)>,
    {
        self.reset_to_root();
        if let Some(var) = shadow {
            self.touch(var);
        }
        let mut empty = self.root_empty;
        for (var, lb, ub) in overlay {
            if var >= self.mat.n {
                return Err(LpError::UnknownVariable(var));
            }
            if self.is_dirty[var] {
                continue; // a nearer patch already set this variable
            }
            self.set_col(var, lb, ub, default_status(lb, ub));
            empty |= lb > ub;
        }
        Ok(empty)
    }

    /// The LPs that need no pivot: an empty domain, or no rows at all.
    fn trivial(&mut self, empty: bool) -> Option<NodeLp> {
        self.iterations = 0;
        if empty {
            Some(NodeLp::status_only(Status::Infeasible, 0))
        } else if self.mat.m == 0 {
            Some(self.solve_unconstrained())
        } else {
            None
        }
    }

    /// Records that column `j` is about to leave its root state. Must be
    /// called *before* `lb[j]`, `ub[j]` or `status[j]` is written.
    #[inline]
    fn touch(&mut self, j: usize) {
        if !self.is_dirty[j] {
            self.dirty.push(j);
            self.is_dirty[j] = true;
        }
    }

    /// The one place a solve writes a column's bounds or status.
    #[inline]
    fn set_col(&mut self, j: usize, lb: f64, ub: f64, status: ColStatus) {
        self.touch(j);
        if self.logging {
            self.undo.push((j, self.lb[j], self.ub[j], self.status[j]));
        }
        self.lb[j] = lb;
        self.ub[j] = ub;
        self.status[j] = status;
        self.dir[j] = movable(status, lb, ub);
    }

    #[inline]
    fn set_status(&mut self, j: usize, s: ColStatus) {
        self.set_col(j, self.lb[j], self.ub[j], s);
    }

    /// Root bounds of column `j`: structural (as given), slack (from the
    /// row's direction), artificial (frozen at `[0, 0]`: only a cold start
    /// opens them).
    fn root_bounds(mat: &LpMatrix, root: &[(f64, f64)], j: usize) -> (f64, f64) {
        let (n, m) = (mat.n, mat.m);
        if j < n {
            root[j]
        } else if j < n + m {
            (mat.slack_lb[j - n], mat.slack_ub[j - n])
        } else {
            (0.0, 0.0)
        }
    }

    /// Restores every touched column to its root bounds and default status.
    fn reset_to_root(&mut self) {
        for &j in &self.dirty {
            let (lb, ub) = Self::root_bounds(self.mat, self.root, j);
            self.lb[j] = lb;
            self.ub[j] = ub;
            self.status[j] = default_status(lb, ub);
            self.dir[j] = movable(self.status[j], lb, ub);
            self.is_dirty[j] = false;
        }
        self.dirty.clear();
        // A solve that unwound from a panic between two children of a node
        // may have left these behind.
        self.undo.clear();
        self.logging = false;
    }

    /// Undoes every column write since the children's shared state was
    /// reached, newest first, and — when they share `warm`'s installed basis
    /// — restores that basis, its inverse and its basic values. The undone
    /// columns stay on the dirty list: it is allowed to be a superset.
    fn rewind(&mut self, warm: Option<&Basis>) {
        while let Some((j, lb, ub, status)) = self.undo.pop() {
            self.lb[j] = lb;
            self.ub[j] = ub;
            self.status[j] = status;
            self.dir[j] = movable(status, lb, ub);
        }
        if let Some(warm) = warm {
            let mm = self.binv.len();
            self.art_sign.fill(1.0);
            for (pos, &j) in warm.basis.iter().enumerate() {
                self.basis[pos] = j as usize;
            }
            self.binv.copy_from_slice(&self.saved[..mm]);
            self.xb.copy_from_slice(&self.saved[mm..]);
        }
    }

    /// Value of nonbasic column `j` (callers skip basic ones: their value
    /// lives in `xb`).
    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        resting_value(self.status[j], self.lb[j], self.ub[j])
    }

    /// Cost of column `j` under the active phase.
    #[inline]
    fn cost_of(&self, j: usize) -> f64 {
        if self.phase_one {
            if j >= self.mat.n + self.mat.m {
                1.0
            } else {
                0.0
            }
        } else if j < self.mat.n {
            self.mat.cost[j]
        } else {
            0.0
        }
    }

    // ---- linear algebra ----

    /// `rhs = b − N·x_N`, subtracting the nonbasic columns in ascending
    /// index order. Only a live column — one of the root's non-zero columns
    /// or a touched one — can contribute: every other column is nonbasic at
    /// exactly zero.
    fn nonbasic_rhs(&mut self) {
        self.dirty.sort_unstable();
        let Self {
            mat,
            rhs,
            root_nonzero,
            dirty,
            status,
            lb,
            ub,
            art_sign,
            ..
        } = self;
        rhs.copy_from_slice(&mat.b);
        for j in merge_ascending(root_nonzero, dirty) {
            if status[j] == ColStatus::Basic {
                continue;
            }
            let v = resting_value(status[j], lb[j], ub[j]);
            if v != 0.0 {
                mat.column(art_sign, j, |row, a| rhs[row] -= a * v);
            }
        }
    }

    /// Recomputes the basis inverse and basic values from scratch.
    fn refactorize(&mut self) -> LpResult<()> {
        let m = self.mat.m;
        // Build the dense basis matrix.
        let lu = &mut self.lu;
        lu.fill(0.0);
        for (pos, &j) in self.basis.iter().enumerate() {
            self.mat
                .column(&self.art_sign, j, |row, a| lu[row * m + pos] = a);
        }
        // Gauss-Jordan inversion with partial pivoting.
        let inv = &mut self.binv;
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Pivot selection.
            let mut piv = col;
            let mut best = lu[col * m + col].abs();
            for r in col + 1..m {
                let v = lu[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < PIVOT_TOL {
                return Err(LpError::Numerical(
                    "singular basis during refactorization".into(),
                ));
            }
            if piv != col {
                for k in 0..m {
                    lu.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let d = lu[col * m + col];
            for k in 0..m {
                lu[col * m + k] /= d;
                inv[col * m + k] /= d;
            }
            for r in 0..m {
                if r != col {
                    let factor = lu[r * m + col];
                    if factor != 0.0 {
                        for k in 0..m {
                            lu[r * m + k] -= factor * lu[col * m + k];
                            inv[r * m + k] -= factor * inv[col * m + k];
                        }
                    }
                }
            }
        }
        self.recompute_basic_values();
        Ok(())
    }

    /// xb = B⁻¹ (b − N·x_N).
    fn recompute_basic_values(&mut self) {
        let m = self.mat.m;
        self.nonbasic_rhs();
        for pos in 0..m {
            let mut acc = 0.0;
            for k in 0..m {
                acc += self.binv[pos * m + k] * self.rhs[k];
            }
            self.xb[pos] = acc;
        }
    }

    /// y = c_Bᵀ B⁻¹, into `self.y`.
    fn duals(&mut self) {
        let m = self.mat.m;
        self.y.fill(0.0);
        for pos in 0..m {
            let cb = self.cost_of(self.basis[pos]);
            if cb != 0.0 {
                for k in 0..m {
                    self.y[k] += cb * self.binv[pos * m + k];
                }
            }
        }
    }

    /// w = B⁻¹ A_j, into `self.w`.
    fn ftran(&mut self, j: usize) {
        let m = self.mat.m;
        let (w, binv) = (&mut self.w, &self.binv);
        w.fill(0.0);
        self.mat.column(&self.art_sign, j, |row, a| {
            for pos in 0..m {
                w[pos] += binv[pos * m + row] * a;
            }
        });
    }

    /// Rank-one update of B⁻¹ after the column with FTRAN image `self.w`
    /// entered the basis at row `pos`.
    fn update_binv(&mut self, pos: usize) -> LpResult<()> {
        let m = self.mat.m;
        let piv = self.w[pos];
        if piv.abs() <= PIVOT_TOL {
            return Err(LpError::Numerical("pivot element too small".into()));
        }
        for k in 0..m {
            self.binv[pos * m + k] /= piv;
        }
        for r in 0..m {
            if r != pos && self.w[r].abs() > 0.0 {
                let factor = self.w[r];
                for k in 0..m {
                    self.binv[r * m + k] -= factor * self.binv[pos * m + k];
                }
            }
        }
        Ok(())
    }

    // ---- basis snapshots ----

    /// Installs a basis snapshot over the default statuses the overlay left:
    /// the snapshot's exceptions and basic columns are applied and B⁻¹
    /// refactorized. Returns false on any mismatch — the caller then solves
    /// cold.
    fn install(&mut self, warm: &Basis) -> bool {
        // Canonical +1 artificials, frozen at zero: the warm basis does not
        // need the residual-signed feasibility trick of the cold start, and a
        // fixed sign keeps snapshots portable across nodes.
        self.art_sign.fill(1.0);
        // Everything on the warm path prices with the real objective.
        self.phase_one = false;
        let ncols = self.status.len();
        if warm.m as usize != self.mat.m || warm.ncols as usize != ncols {
            return false;
        }
        for &(j, code) in &warm.nondefault {
            let j = j as usize;
            if j >= ncols {
                return false;
            }
            let s = match code {
                0 => ColStatus::AtLower,
                1 => ColStatus::AtUpper,
                _ => ColStatus::Free,
            };
            // A status pointing at an infinite bound cannot hold a value;
            // keep the default instead (defensive: branch-and-bound only
            // tightens finite integer bounds).
            let valid = match s {
                ColStatus::AtLower => self.lb[j].is_finite(),
                ColStatus::AtUpper => self.ub[j].is_finite(),
                _ => true,
            };
            if valid {
                self.set_status(j, s);
            }
        }
        for (pos, &j) in warm.basis.iter().enumerate() {
            let j = j as usize;
            if j >= ncols {
                return false;
            }
            self.basis[pos] = j;
            self.set_status(j, ColStatus::Basic);
        }
        self.refactorize().is_ok()
    }

    /// [`Self::install`] for the children of one node, which all hold `var`
    /// basic: checkpoints the inverse and the basic values and evaluates the
    /// first ratio test on `var`'s row for every direction `children` push
    /// it in. `None` when the children cannot share the basis.
    fn install_shared(
        &mut self,
        warm: &Basis,
        var: usize,
        children: &[(f64, f64)],
    ) -> Option<FirstTest> {
        let pos = warm.basis.iter().position(|&j| j as usize == var)?;
        if !self.install(warm) {
            return None;
        }
        let mm = self.binv.len();
        self.saved[..mm].copy_from_slice(&self.binv);
        self.saved[mm..].copy_from_slice(&self.xb);
        let x = self.xb[pos];
        let pushed = |below: bool| {
            children
                .iter()
                .any(|&(lb, ub)| if below { x < lb } else { x > ub })
        };
        let mut picks: Vec<RatioPick> = [false, true]
            .into_iter()
            .filter(|&below| pushed(below))
            .map(RatioPick::new)
            .collect();
        if !picks.is_empty() {
            self.dual_ratio_test(pos, &mut picks);
        }
        let mut entering = [None; 2];
        for pick in &picks {
            entering[usize::from(pick.below)] = Some(pick.entering.map(|(q, _)| q));
        }
        Some(FirstTest { pos, entering })
    }

    // ---- the solve paths ----

    /// Solves from the bounds as laid: the warm path when a basis is
    /// installed, the cold one otherwise or when the warm one gives up or
    /// hits numerical trouble — on the same storage, carrying the pivots
    /// already spent into the iteration budget.
    fn run(
        &mut self,
        installed: bool,
        first: Option<FirstTest>,
        config: &SolverConfig,
    ) -> LpResult<NodeLp> {
        if installed {
            match self.solve_warm(first, config) {
                Ok(Some(lp)) => return Ok(lp),
                Ok(None) | Err(LpError::Numerical(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let mut lp = self.solve_cold(config)?;
        lp.cold = true;
        Ok(lp)
    }

    /// The warm path from an installed basis: dual-simplex repair, primal
    /// cleanup. `Ok(None)` means "re-solve cold".
    fn solve_warm(
        &mut self,
        first: Option<FirstTest>,
        config: &SolverConfig,
    ) -> LpResult<Option<NodeLp>> {
        self.phase_one = false;
        self.use_bland = false;
        self.degenerate_run = 0;
        match self.dual_simplex(first, config)? {
            DualOutcome::GaveUp => Ok(None),
            DualOutcome::Infeasible => Ok(Some(NodeLp::status_only(
                Status::Infeasible,
                self.iterations,
            ))),
            DualOutcome::Feasible => {
                let outcome = self.optimize(config, true)?;
                Ok(Some(self.node_result(outcome)))
            }
        }
    }

    /// The cold path: two-phase from the slack/artificial basis.
    fn solve_cold(&mut self, config: &SolverConfig) -> LpResult<NodeLp> {
        let (n, m) = (self.mat.n, self.mat.m);
        // A failed warm attempt leaves its statuses behind; the bounds stay.
        for i in 0..self.dirty.len() {
            let j = self.dirty[i];
            self.set_status(j, default_status(self.lb[j], self.ub[j]));
        }
        self.phase_one = true;
        self.use_bland = false;
        self.degenerate_run = 0;

        // Residuals decide the sign of each artificial column so the initial
        // basis is feasible (artificial value = |residual| ≥ 0).
        self.nonbasic_rhs();
        self.binv.fill(0.0);
        for row in 0..m {
            let art = n + m + row;
            let sign = if self.rhs[row] >= 0.0 { 1.0 } else { -1.0 };
            self.art_sign[row] = sign;
            self.set_col(art, 0.0, f64::INFINITY, ColStatus::Basic);
            self.basis[row] = art;
            self.binv[row * m + row] = sign; // inverse of diag(sign) is itself
            self.xb[row] = self.rhs[row].abs();
        }

        // ---- Phase 1: minimize the sum of artificials ----
        match self.optimize(config, false)? {
            IterOutcome::Optimal => {}
            IterOutcome::Unbounded | IterOutcome::Continue => {
                return Err(LpError::Numerical("phase-1 reported unbounded".into()))
            }
        }
        let mut infeasibility = 0.0;
        for pos in 0..m {
            if self.basis[pos] >= n + m {
                infeasibility += self.xb[pos].max(0.0);
            }
        }
        if infeasibility > TOLERANCE * self.mat.feas_scale * 10.0 {
            return Ok(NodeLp::status_only(Status::Infeasible, self.iterations));
        }

        // ---- Phase 2 ----
        // Freeze artificials at zero and swap in the real objective.
        for row in 0..m {
            let art = n + m + row;
            let status = match self.status[art] {
                ColStatus::Basic => ColStatus::Basic,
                _ => ColStatus::AtLower,
            };
            self.set_col(art, 0.0, 0.0, status);
        }
        self.phase_one = false;
        self.use_bland = false;
        self.degenerate_run = 0;
        let outcome = self.optimize(config, true)?;
        Ok(self.node_result(outcome))
    }

    /// No constraint rows: push every variable to its favourable bound.
    fn solve_unconstrained(&mut self) -> NodeLp {
        let n = self.mat.n;
        self.unconstrained.clear();
        for i in 0..n {
            let (lb, ub) = (self.lb[i], self.ub[i]);
            // The simplex minimizes `cost`; a negative cost wants the
            // variable large.
            let effective = -self.mat.cost[i];
            let target = if effective > 0.0 {
                ub
            } else if effective < 0.0 {
                lb
            } else {
                lb.max(0.0).min(ub)
            };
            if target.is_finite() {
                self.unconstrained.push(target);
            } else if effective != 0.0 {
                self.unconstrained.clear();
                return NodeLp::status_only(Status::Unbounded, 0);
            } else {
                self.unconstrained
                    .push(if lb.is_finite() { lb } else { 0.0 });
            }
        }
        let objective = (0..n)
            .map(|i| self.mat.objective_coeff(i) * self.unconstrained[i])
            .sum();
        NodeLp {
            status: Status::Optimal,
            objective,
            iterations: 0,
            basics: Vec::new(),
            basis: None,
            cold: false,
        }
    }

    /// Packages a finished primal loop as a [`NodeLp`].
    ///
    /// The objective `Σ c_j · x_j` is, bit for bit, the value a left-to-right
    /// sum over all `n` settled values returns (`Problem::objective_value`
    /// on [`Self::dense_values`]), computed from the live columns only — in
    /// the same ascending walk that collects the basis snapshot's exceptions
    /// (see [`Basis`]; only a touched column can deviate from its default
    /// status).
    ///
    /// Every column the walk skips holds exactly `+0.0`, so its term is a
    /// zero whose sign is that of its coefficient. Zero terms never change a
    /// non-zero partial sum, and an exact cancellation yields `+0.0`; the one
    /// thing they decide is whether an all-zero sum comes out as the `−0.0`
    /// a float `Sum` starts from (every term `−0.0`) or as `+0.0`.
    fn node_result(&mut self, outcome: IterOutcome) -> NodeLp {
        if outcome == IterOutcome::Unbounded {
            return NodeLp {
                status: Status::Unbounded,
                objective: match self.mat.sense {
                    Sense::Maximize => f64::INFINITY,
                    Sense::Minimize => f64::NEG_INFINITY,
                },
                iterations: self.iterations,
                basics: Vec::new(),
                basis: None,
                cold: false,
            };
        }
        let n = self.mat.n;
        let mut basics = Vec::with_capacity(self.mat.m);
        for (pos, &j) in self.basis.iter().enumerate() {
            if j < n {
                basics.push((j, settle(self.xb[pos], self.lb[j], self.ub[j])));
            }
        }
        basics.sort_unstable_by_key(|&(j, _)| j);
        self.dirty.sort_unstable();
        let mut nondefault = Vec::new();
        let mut acc = 0.0;
        let mut all_neg_zero = true;
        let mut nonneg_skipped = self.mat.nonneg_objective;
        // `basics` is ascending and every basic column is live, so the walk
        // meets the basic columns in `basics` order.
        let mut next_basic = basics.iter();
        for j in merge_ascending(&self.root_nonzero, &self.dirty) {
            let status = self.status[j];
            if j < n {
                let x = if status == ColStatus::Basic {
                    next_basic.next().map_or(0.0, |&(_, x)| x)
                } else {
                    settle(self.nonbasic_value(j), self.lb[j], self.ub[j])
                };
                let c = self.mat.objective_coeff(j);
                nonneg_skipped -= usize::from(!c.is_sign_negative());
                let term = c * x;
                all_neg_zero &= term == 0.0 && term.is_sign_negative();
                acc += term;
            }
            let code = match status {
                ColStatus::Basic => continue,
                ColStatus::AtLower => 0u8,
                ColStatus::AtUpper => 1,
                ColStatus::Free => 2,
            };
            if status != default_status(self.lb[j], self.ub[j]) {
                nondefault.push((j as u32, code));
            }
        }
        NodeLp {
            status: Status::Optimal,
            objective: if all_neg_zero && nonneg_skipped == 0 {
                -0.0
            } else {
                acc
            },
            iterations: self.iterations,
            basics,
            basis: Some(Basis {
                m: self.mat.m as u32,
                ncols: self.status.len() as u32,
                basis: self.basis.iter().map(|&j| j as u32).collect(),
                nondefault,
            }),
            cold: false,
        }
    }

    // ---- pivoting ----

    /// Bounded-variable dual simplex: restores primal feasibility of a
    /// dual-feasible basis after bound changes (the warm-start repair).
    ///
    /// Each pivot picks the basic value with the largest bound violation as
    /// the leaving variable and the entering column by the dual ratio test
    /// (minimal `|d_j / α_j|` over columns whose movement shrinks the
    /// violation), which preserves dual feasibility. An entering column that
    /// would overshoot its own opposite bound is bound-flipped instead of
    /// pivoted, exactly like the primal loop's bound flips.
    ///
    /// `first` is the first ratio test as the node's children share it; it
    /// answers this solve's first test if that is on the same row.
    fn dual_simplex(
        &mut self,
        mut first: Option<FirstTest>,
        config: &SolverConfig,
    ) -> LpResult<DualOutcome> {
        let m = self.mat.m;
        // Warm starts need a handful of pivots (one per violated row, plus
        // degeneracy slack); anything more suggests cycling, and the cold
        // fallback is both safer and cheaper than fighting it.
        let max_pivots = 100 + 20 * (m + 1);
        let mut since_refactor = 0usize;
        // Degenerate bound-flip cycles make no net progress on the total
        // violation; detect the stall after a dozen pivots and hand the LP
        // to the cold solver instead of burning the whole pivot cap on it.
        let mut best_total_viol = f64::INFINITY;
        let mut stalled = 0usize;
        for _ in 0..max_pivots {
            if self.iterations >= MAX_ITERATIONS {
                return Err(LpError::IterationLimit);
            }
            if self.iterations.is_multiple_of(8) && config.interrupted() {
                return Err(LpError::Interrupted);
            }
            // Leaving row: the largest bound violation among basic values.
            let mut leave: Option<(usize, f64, bool)> = None; // (pos, violation, below)
            let mut total_viol = 0.0;
            for pos in 0..m {
                let j = self.basis[pos];
                let v = self.xb[pos];
                let tol_j = TOLERANCE * 10.0 * (1.0 + v.abs());
                if self.lb[j].is_finite() && v < self.lb[j] - tol_j {
                    let viol = self.lb[j] - v;
                    total_viol += viol;
                    if leave.map(|(_, best, _)| viol > best).unwrap_or(true) {
                        leave = Some((pos, viol, true));
                    }
                } else if self.ub[j].is_finite() && v > self.ub[j] + tol_j {
                    let viol = v - self.ub[j];
                    total_viol += viol;
                    if leave.map(|(_, best, _)| viol > best).unwrap_or(true) {
                        leave = Some((pos, viol, false));
                    }
                }
            }
            let Some((pos, _, below)) = leave else {
                return Ok(DualOutcome::Feasible);
            };
            if total_viol < best_total_viol - 1e-9 * (1.0 + best_total_viol.min(1e30)) {
                best_total_viol = total_viol;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled > 12 {
                    return Ok(DualOutcome::GaveUp);
                }
            }
            self.iterations += 1;
            since_refactor += 1;
            if since_refactor >= REFACTOR_EVERY {
                self.refactorize()?;
                since_refactor = 0;
            }
            let shared = first
                .take()
                .filter(|f| f.pos == pos)
                .and_then(|f| f.entering[usize::from(below)]);
            let entering = shared.unwrap_or_else(|| {
                let mut pick = [RatioPick::new(below)];
                self.dual_ratio_test(pos, &mut pick);
                pick[0].entering.map(|(q, _)| q)
            });
            let Some(q) = entering else {
                return Ok(DualOutcome::Infeasible);
            };
            self.ftran(q);
            let alpha_q = self.w[pos];
            if alpha_q.abs() <= PIVOT_TOL {
                return Ok(DualOutcome::GaveUp);
            }
            let r = self.basis[pos];
            let target = if below { self.lb[r] } else { self.ub[r] };
            let step = (self.xb[pos] - target) / alpha_q; // Δx_q
            let range = self.ub[q] - self.lb[q];
            if range.is_finite() && step.abs() > range + 1e-12 {
                // Bound flip: q moves to its opposite bound, the violation
                // shrinks, and a later pivot finishes the repair.
                if range <= 0.0 {
                    return Ok(DualOutcome::GaveUp);
                }
                let flip = if step > 0.0 { range } else { -range };
                for k in 0..m {
                    self.xb[k] -= flip * self.w[k];
                }
                self.set_status(
                    q,
                    if step > 0.0 {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    },
                );
                continue;
            }
            let entering_value = self.nonbasic_value(q) + step;
            for k in 0..m {
                self.xb[k] -= step * self.w[k];
            }
            self.set_status(
                r,
                if below {
                    ColStatus::AtLower
                } else {
                    ColStatus::AtUpper
                },
            );
            self.basis[pos] = q;
            self.set_status(q, ColStatus::Basic);
            self.xb[pos] = entering_value;
            self.update_binv(pos)?;
        }
        Ok(DualOutcome::GaveUp)
    }

    /// The dual ratio test for leaving row `pos`, for every direction of
    /// `picks` in one sweep over the columns: α, `d` and the movable
    /// directions do not depend on which way the row's basic value is pushed,
    /// only the select does. A pick left without a column proves its
    /// subproblem infeasible.
    fn dual_ratio_test(&mut self, pos: usize, picks: &mut [RatioPick]) {
        let (n, m) = (self.mat.n, self.mat.m);
        self.rho.copy_from_slice(&self.binv[pos * m..(pos + 1) * m]);
        self.duals();
        let Self {
            mat,
            dir,
            y,
            rho,
            art_sign,
            abuf,
            dbuf,
            ..
        } = self;
        // α_j = (row `pos` of B⁻¹) · A_j and d_j = c_j − y · A_j, a chunk of
        // structural columns at a time.
        for start in (0..n).step_by(PRICE_CHUNK) {
            let len = PRICE_CHUNK.min(n - start);
            let bufs = [&mut abuf[..len], &mut dbuf[..len]];
            let dir = &dir[start..start + len];
            widest(
                #[inline(always)]
                || mat.ratio_chunk(rho, y, start, bufs, dir, picks),
            );
        }
        // Slack and artificial columns are unit vectors with zero cost (the
        // dual simplex only runs on phase-2 costs).
        let (alpha, d) = (&mut abuf[..2 * m], &mut dbuf[..2 * m]);
        for k in 0..2 * m {
            let row = k % m;
            let coeff = if k < m { 1.0 } else { art_sign[row] };
            alpha[k] = 0.0 + rho[row] * coeff;
            d[k] = 0.0 - y[row] * coeff;
        }
        for pick in picks.iter_mut() {
            pick.scan(n, alpha, d, &dir[n..]);
        }
    }

    /// Chooses an entering column; returns `(column, increasing)` or `None`
    /// when the current basis is optimal for the active cost vector.
    /// Dantzig: the largest `|d_j|` among improving columns, ties to the
    /// lowest index; Bland: the first improving index.
    fn price(&mut self, tol: f64) -> Option<(usize, bool)> {
        let (n, m) = (self.mat.n, self.mat.m);
        self.duals();
        let Self {
            mat,
            dir,
            y,
            art_sign,
            dbuf,
            phase_one,
            use_bland,
            ..
        } = self;
        let mut pick = PricePick {
            tol,
            bland: *use_bland,
            best: None,
        };
        // d_j = c_j − y · A_j, a chunk of structural columns at a time, then
        // the slack and artificial columns.
        let found = (0..n).step_by(PRICE_CHUNK).any(|start| {
            let len = PRICE_CHUNK.min(n - start);
            let d = &mut dbuf[..len];
            let dir = &dir[start..start + len];
            widest(
                #[inline(always)]
                || mat.price_chunk(*phase_one, y, start, d, dir, &mut pick),
            )
        });
        if !found {
            let art_cost = if *phase_one { 1.0 } else { 0.0 };
            let d = &mut dbuf[..2 * m];
            for row in 0..m {
                d[row] = 0.0 - y[row] * 1.0;
                d[m + row] = art_cost - y[row] * art_sign[row];
            }
            pick.scan(n, d, &dir[n..]);
        }
        pick.best.map(|(j, increasing, _)| (j, increasing))
    }

    /// One simplex iteration for the active cost vector.
    fn iterate(&mut self, tol: f64, phase_two: bool) -> LpResult<IterOutcome> {
        let Some((q, increasing)) = self.price(tol) else {
            return Ok(IterOutcome::Optimal);
        };
        let m = self.mat.m;
        let delta = if increasing { 1.0 } else { -1.0 };
        self.ftran(q);

        // Ratio test. Basic values move by -t·delta·w.
        let entering_range = self.ub[q] - self.lb[q];
        let mut t_max = if entering_range.is_finite() {
            entering_range
        } else {
            f64::INFINITY
        };
        let mut leaving: Option<(usize, bool)> = None; // (basis position, hits_lower)
        for pos in 0..m {
            let wi = self.w[pos];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let basic = self.basis[pos];
            let change = delta * wi;
            let (limit, hits_lower) = if change > 0.0 {
                // basic value decreases towards its lower bound
                let lbb = self.lb[basic];
                if lbb.is_finite() {
                    ((self.xb[pos] - lbb) / change, true)
                } else {
                    (f64::INFINITY, true)
                }
            } else {
                // basic value increases towards its upper bound
                let ubb = self.ub[basic];
                if ubb.is_finite() {
                    ((ubb - self.xb[pos]) / (-change), false)
                } else {
                    (f64::INFINITY, false)
                }
            };
            let limit = limit.max(0.0);
            match leaving {
                _ if limit < t_max - 1e-12 => {
                    t_max = limit;
                    leaving = Some((pos, hits_lower));
                }
                // Tie-break by smallest column index (helps against cycling).
                Some((cur_pos, _))
                    if (limit - t_max).abs() <= 1e-12 && self.basis[pos] < self.basis[cur_pos] =>
                {
                    leaving = Some((pos, hits_lower));
                }
                None if limit <= t_max => {
                    t_max = limit;
                    leaving = Some((pos, hits_lower));
                }
                _ => {}
            }
        }

        if t_max.is_infinite() {
            return if phase_two {
                Ok(IterOutcome::Unbounded)
            } else {
                Err(LpError::Numerical(
                    "phase-1 objective unbounded below".into(),
                ))
            };
        }

        if t_max <= tol {
            self.degenerate_run += 1;
            if self.degenerate_run > 2 * (m + self.status.len()) {
                self.use_bland = true;
            }
        } else {
            self.degenerate_run = 0;
        }

        // Apply the step to basic values.
        if t_max > 0.0 {
            for pos in 0..m {
                self.xb[pos] -= t_max * delta * self.w[pos];
            }
        }

        match leaving {
            None => {
                // Bound flip of the entering variable: no basis change.
                self.set_status(
                    q,
                    if increasing {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    },
                );
            }
            Some((pos, hits_lower)) => {
                let entering_value = self.nonbasic_value(q) + delta * t_max;
                // The leaving variable is nonbasic now, so its value is its
                // bound exactly by construction.
                self.set_status(
                    self.basis[pos],
                    if hits_lower {
                        ColStatus::AtLower
                    } else {
                        ColStatus::AtUpper
                    },
                );
                self.basis[pos] = q;
                self.set_status(q, ColStatus::Basic);
                self.xb[pos] = entering_value;
                self.update_binv(pos)?;
            }
        }
        Ok(IterOutcome::Continue)
    }

    /// Runs the simplex loop until the active cost vector is optimal.
    fn optimize(&mut self, config: &SolverConfig, phase_two: bool) -> LpResult<IterOutcome> {
        let mut since_refactor = 0usize;
        loop {
            if self.iterations >= MAX_ITERATIONS {
                return Err(LpError::IterationLimit);
            }
            // The deadline check reaches the pivot loop so that one long LP
            // solve cannot overshoot a small budget: a pivot prices every
            // column (O(m·n) on thousands of columns), so checking every few
            // pivots costs nothing relative to the work it bounds.
            if self.iterations.is_multiple_of(8) && config.interrupted() {
                return Err(LpError::Interrupted);
            }
            self.iterations += 1;
            since_refactor += 1;
            if since_refactor >= REFACTOR_EVERY {
                self.refactorize()?;
                since_refactor = 0;
            }
            match self.iterate(TOLERANCE, phase_two)? {
                IterOutcome::Continue => continue,
                other => return Ok(other),
            }
        }
    }
}

/// Solves the LP relaxation of `problem` (integrality is ignored here; the
/// branch-and-bound layer re-imposes it).
///
/// `bound_overrides`, when given, replaces the `(lb, ub)` bounds of the
/// structural variables.
pub fn solve_lp(
    problem: &Problem,
    bound_overrides: Option<&[(f64, f64)]>,
    config: &SolverConfig,
) -> LpResult<Solution> {
    solve_lp_warm(problem, bound_overrides, config, None).map(|(s, _)| s)
}

/// [`solve_lp`] plus warm starting: optionally resumes from a [`Basis`]
/// snapshot of a previous solve and returns the final basis alongside the
/// solution so the caller can chain further warm starts. A thin wrapper: one
/// [`LpMatrix`], one [`LpWorkspace::solve`]. The returned solution does not
/// depend on the supplied basis — only the iteration count does.
pub fn solve_lp_warm(
    problem: &Problem,
    bound_overrides: Option<&[(f64, f64)]>,
    config: &SolverConfig,
    warm: Option<&Basis>,
) -> LpResult<(Solution, Option<Basis>)> {
    let mat = LpMatrix::new(problem)?;
    let own_bounds: Vec<(f64, f64)>;
    let root = match bound_overrides {
        Some(b) if b.len() != problem.num_vars() => {
            return Err(LpError::InvalidProblem(format!(
                "bound override length {} does not match variable count {}",
                b.len(),
                problem.num_vars()
            )));
        }
        Some(b) => b,
        None => {
            own_bounds = problem.variables().iter().map(|v| (v.lb, v.ub)).collect();
            &own_bounds
        }
    };
    let mut ws = LpWorkspace::new(&mat, root);
    let lp = ws.solve(std::iter::empty(), warm, config)?;
    let values = match lp.status {
        Status::Optimal | Status::Unbounded => ws.dense_values(),
        _ => Vec::new(),
    };
    Ok((
        Solution {
            status: lp.status,
            objective: lp.objective,
            values,
            iterations: lp.iterations,
            nodes: 0,
            cold_solves: usize::from(lp.cold),
            gap: None,
        },
        lp.basis,
    ))
}

/// Convenience used by tests: true when every integer variable of `problem`
/// holds an (almost) integral value in `values`.
pub fn is_integral(problem: &Problem, values: &[f64], int_tol: f64) -> bool {
    problem
        .variables()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.ty == VarType::Integer)
        .all(|(i, _)| (values[i] - values[i].round()).abs() <= int_tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, Problem, Sense, VarId, VarType};

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn simple_two_variable_lp() {
        // maximize 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic)
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        p.set_objective_coeff(x, 3.0);
        p.set_objective_coeff(y, 5.0);
        p.add_constraint_terms("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint_terms("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint_terms("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // minimize 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        p.set_objective_coeff(x, 2.0);
        p.set_objective_coeff(y, 3.0);
        p.add_constraint_terms("sum", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        p.add_constraint_terms("xm", &[(x, 1.0)], ConstraintOp::Ge, 2.0);
        p.add_constraint_terms("ym", &[(y, 1.0)], ConstraintOp::Ge, 3.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        assert!(
            (s.objective - 23.0).abs() < 1e-6,
            "objective was {}",
            s.objective
        );
        assert!((s.value(x) - 7.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y  s.t. x + 2y = 4, x - y = 1  → x = 2, y = 1
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        let y = p.add_var("y", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        p.set_objective_coeff(x, 1.0);
        p.set_objective_coeff(y, 1.0);
        p.add_constraint_terms("e1", &[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        p.add_constraint_terms("e2", &[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 10.0);
        p.add_constraint_terms("lo", &[(x, 1.0)], ConstraintOp::Ge, 5.0);
        p.add_constraint_terms("hi", &[(x, 1.0)], ConstraintOp::Le, 3.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("c", &[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn variable_upper_bounds_respected_without_constraint_rows_for_them() {
        // maximize x + y  s.t. x + y <= 10, x ∈ [0, 3], y ∈ [0, 4]
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 3.0);
        let y = p.add_var("y", VarType::Continuous, 0.0, 4.0);
        p.set_objective_coeff(x, 1.0);
        p.set_objective_coeff(y, 1.0);
        p.add_constraint_terms("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!((s.objective - 7.0).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_take_effect() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 10.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("cap", &[(x, 1.0)], ConstraintOp::Le, 9.0);
        let s = solve_lp(&p, Some(&[(0.0, 2.5)]), &cfg()).unwrap();
        assert!((s.objective - 2.5).abs() < 1e-6);
        // Empty domain → infeasible node.
        let s2 = solve_lp(&p, Some(&[(3.0, 2.0)]), &cfg()).unwrap();
        assert_eq!(s2.status, Status::Infeasible);
    }

    #[test]
    fn unconstrained_problems() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Continuous, 0.0, 7.0);
        let y = p.add_var("y", VarType::Continuous, -2.0, 2.0);
        p.set_objective_coeff(x, 2.0);
        p.set_objective_coeff(y, -1.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!((s.objective - 16.0).abs() < 1e-9);

        let mut q = Problem::new(Sense::Maximize);
        let z = q.add_var("z", VarType::Continuous, 0.0, f64::INFINITY);
        q.set_objective_coeff(z, 1.0);
        let s2 = solve_lp(&q, None, &cfg()).unwrap();
        assert_eq!(s2.status, Status::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x  s.t. x >= -5 (bound), x + y = 0, y <= 3  → x = -3
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", VarType::Continuous, -5.0, f64::INFINITY);
        let y = p.add_var("y", VarType::Continuous, 0.0, 3.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("bal", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 0.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        assert!((s.value(x) + 3.0).abs() < 1e-6, "x was {}", s.value(x));
    }

    #[test]
    fn fractional_relaxation_of_knapsack() {
        // maximize 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 7, 0<=vars<=1
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_var("a", VarType::Continuous, 0.0, 1.0);
        let b = p.add_var("b", VarType::Continuous, 0.0, 1.0);
        let c = p.add_var("c", VarType::Continuous, 0.0, 1.0);
        p.set_objective_coeff(a, 10.0);
        p.set_objective_coeff(b, 6.0);
        p.set_objective_coeff(c, 4.0);
        p.add_constraint_terms(
            "count",
            &[(a, 1.0), (b, 1.0), (c, 1.0)],
            ConstraintOp::Le,
            2.0,
        );
        p.add_constraint_terms(
            "weight",
            &[(a, 5.0), (b, 4.0), (c, 3.0)],
            ConstraintOp::Le,
            7.0,
        );
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        // a = 1, b = 0.5, c = 0 → 13; or a = 1, c = 2/3 → 12.67; optimum is 13.
        assert!(
            (s.objective - 13.0).abs() < 1e-6,
            "objective was {}",
            s.objective
        );
    }

    #[test]
    fn many_variables_few_rows_stays_fast_and_correct() {
        // maximize Σ v_i x_i  s.t. Σ x_i <= 10, Σ w_i x_i <= 50, x ∈ [0,1]
        // with v_i = i mod 7, w_i = 1 + (i mod 5). Greedy LP structure: the
        // optimum is reachable and must satisfy both constraints tightly.
        let n = 500;
        let mut p = Problem::new(Sense::Maximize);
        let mut count = Vec::new();
        let mut weight = Vec::new();
        for i in 0..n {
            let x = p.add_var(format!("x{i}"), VarType::Continuous, 0.0, 1.0);
            p.set_objective_coeff(x, (i % 7) as f64);
            count.push((x, 1.0));
            weight.push((x, 1.0 + (i % 5) as f64));
        }
        p.add_constraint_terms("count", &count, ConstraintOp::Le, 10.0);
        p.add_constraint_terms("weight", &weight, ConstraintOp::Le, 50.0);
        let s = solve_lp(&p, None, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        assert!(p.is_feasible(&s.values, 1e-6));
        // 10 items of value 6 fit (weight of value-6 items is 1 + (i mod 5) — at
        // least ten of them have total weight ≤ 50), so the optimum is 60.
        assert!(
            (s.objective - 60.0).abs() < 1e-5,
            "objective was {}",
            s.objective
        );
    }

    #[test]
    fn is_integral_helper() {
        let mut p = Problem::new(Sense::Maximize);
        p.add_var("x", VarType::Integer, 0.0, 5.0);
        p.add_var("y", VarType::Continuous, 0.0, 5.0);
        assert!(is_integral(&p, &[2.0000000001, 3.7], 1e-6));
        assert!(!is_integral(&p, &[2.5, 3.7], 1e-6));
    }

    /// A 30-variable, 3-row packing LP with a fractional optimum: integer
    /// variables in `[lo, 3]`, objective coefficients of `sign`.
    fn packing(lo: f64, sign: f64, sense: Sense) -> Problem {
        let mut p = Problem::new(sense);
        let vars: Vec<_> = (0..30)
            .map(|i| p.add_var(format!("x{i}"), VarType::Integer, lo, 3.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(
                v,
                sign * (1.0 + ((i * 7) % 11) as f64 + 0.25 * (i % 3) as f64),
            );
        }
        let weight: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + ((i * 5) % 9) as f64))
            .collect();
        let bulk: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 1) // zero coefficients in a dense row
            .map(|(i, &v)| (v, 1.0 + ((i * 3) % 5) as f64))
            .collect();
        let count: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint_terms("weight", &weight, ConstraintOp::Le, 41.5 + 30.0 * lo * 6.0);
        p.add_constraint_terms("bulk", &bulk, ConstraintOp::Ge, 7.3);
        p.add_constraint_terms("count", &count, ConstraintOp::Le, 9.0 + 30.0 * lo);
        p
    }

    fn root_of(p: &Problem) -> Vec<(f64, f64)> {
        p.variables().iter().map(|v| (v.lb, v.ub)).collect()
    }

    /// Everything observable about a solve, as bit patterns.
    fn fingerprint(
        ws: &LpWorkspace<'_>,
        lp: &NodeLp,
    ) -> (Status, u64, usize, Vec<(usize, u64)>, Vec<u64>) {
        (
            lp.status,
            lp.objective.to_bits(),
            lp.iterations,
            lp.basics.iter().map(|&(j, v)| (j, v.to_bits())).collect(),
            ws.dense_values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn a_workspace_solving_a_b_a_returns_the_same_a() {
        let p = packing(0.0, 1.0, Sense::Maximize);
        let mat = LpMatrix::new(&p).unwrap();
        let root = root_of(&p);
        let mut ws = LpWorkspace::new(&mat, &root);
        let parent = ws.solve([], None, &cfg()).unwrap();
        let basis = parent.basis.clone().expect("optimal solves return a basis");
        let &(var, val) = parent
            .basics
            .iter()
            .find(|(_, v)| v.fract() != 0.0)
            .expect("the relaxation is fractional");
        // A: branch down on the fractional variable, warm.
        let job_a = [(var, 0.0, val.floor())];
        let first = ws.solve(job_a, Some(&basis), &cfg()).unwrap();
        let first = fingerprint(&ws, &first);
        // B: a deeper node that shadows A's patch, takes away two columns A
        // uses, forces one it leaves at zero, and solves cold.
        let a_values = ws.dense_values();
        let used: Vec<usize> = (0..30).filter(|&j| j != var && a_values[j] > 0.0).collect();
        let unused = (0..30).find(|&j| a_values[j] == 0.0).unwrap();
        let job_b = [
            (var, val.ceil(), 3.0),
            (used[0], 0.0, 0.0),
            (var, 0.0, 0.0),
            (used[1], 0.0, 0.0),
            (unused, 1.0, 3.0),
        ];
        let other = ws.solve(job_b, None, &cfg()).unwrap();
        assert_ne!(
            fingerprint(&ws, &other),
            first,
            "B must disturb the workspace"
        );
        let again = ws.solve(job_a, Some(&basis), &cfg()).unwrap();
        assert_eq!(fingerprint(&ws, &again), first);
        // …and a workspace that never saw B agrees.
        let mut fresh = LpWorkspace::new(&mat, &root);
        let reference = fresh.solve(job_a, Some(&basis), &cfg()).unwrap();
        assert_eq!(fingerprint(&fresh, &reference), first);
    }

    #[test]
    fn a_warm_solve_equals_the_cold_solve_of_the_same_bounds() {
        let p = packing(0.0, 1.0, Sense::Maximize);
        let mat = LpMatrix::new(&p).unwrap();
        let root = root_of(&p);
        let mut ws = LpWorkspace::new(&mat, &root);
        let parent = ws.solve([], None, &cfg()).unwrap();
        let basis = parent.basis.clone().unwrap();
        for &(var, val) in &parent.basics {
            for patch in [(var, 0.0, val.floor()), (var, val.ceil(), 3.0)] {
                let warm = ws.solve([patch], Some(&basis), &cfg()).unwrap();
                let warm_values = ws.dense_values();
                let cold = ws.solve([patch], None, &cfg()).unwrap();
                assert_eq!(warm.status, cold.status, "{patch:?}");
                assert!(warm.iterations <= cold.iterations, "{patch:?}");
                if cold.status.is_optimal() {
                    assert!(
                        (warm.objective - cold.objective).abs() < 1e-9,
                        "{patch:?}: warm {} vs cold {}",
                        warm.objective,
                        cold.objective
                    );
                    assert!(p.is_feasible(&warm_values, 1e-7), "{patch:?}");
                }
            }
        }
        // A basis of the wrong shape falls through to the same cold solve.
        let other = packing(0.0, 1.0, Sense::Minimize);
        let mut smaller = other.clone();
        smaller.pop_constraint();
        let (_, foreign) = solve_lp_warm(&smaller, None, &cfg(), None).unwrap();
        let cold = ws.solve([], None, &cfg()).unwrap();
        let cold = fingerprint(&ws, &cold);
        let misfit = ws.solve([], foreign.as_ref(), &cfg()).unwrap();
        assert_eq!(fingerprint(&ws, &misfit), cold);
    }

    /// The `O(n)` scan the compact node result replaced: most fractional
    /// integer variable over the whole dense vector.
    fn dense_branch_variable(p: &Problem, values: &[f64], tol: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in p.variables().iter().enumerate() {
            if v.ty != VarType::Integer {
                continue;
            }
            let x = values[i];
            if (x - x.round()).abs() > tol {
                let score = 0.5 - (x - x.floor() - 0.5).abs();
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((i, score));
                }
            }
        }
        best.map(|(i, _)| (i, values[i]))
    }

    fn assert_sparse_equals_dense(p: &Problem, overlay: &[(usize, f64, f64)]) -> NodeLp {
        let mat = LpMatrix::new(p).unwrap();
        let root = root_of(p);
        let mut ws = LpWorkspace::new(&mat, &root);
        let lp = ws.solve(overlay.iter().copied(), None, &cfg()).unwrap();
        assert!(lp.status.is_optimal());
        let dense = ws.dense_values();
        assert_eq!(
            lp.objective.to_bits(),
            p.objective_value(&dense).to_bits(),
            "sparse objective {} vs dense {}",
            lp.objective,
            p.objective_value(&dense)
        );
        assert_eq!(
            crate::branch_bound::branch_variable(p, &lp.basics),
            dense_branch_variable(p, &dense, 1e-6)
        );
        for &(j, v) in &lp.basics {
            assert_eq!(v.to_bits(), dense[j].to_bits());
        }
        lp
    }

    #[test]
    fn the_sparse_node_result_equals_the_dense_extract() {
        // A fractional optimum, with and without patches.
        let p = packing(0.0, 1.0, Sense::Maximize);
        let lp = assert_sparse_equals_dense(&p, &[]);
        assert!(lp.basics.iter().any(|(_, v)| v.fract() != 0.0));
        assert_sparse_equals_dense(&p, &[(4, 1.0, 3.0), (17, 0.0, 0.0), (9, 2.0, 2.0)]);
        assert_sparse_equals_dense(&packing(0.0, 1.0, Sense::Minimize), &[]);

        // A root with non-zero lower bounds: every column rests off zero.
        let lifted = packing(1.0, 1.0, Sense::Maximize);
        let lp = assert_sparse_equals_dense(&lifted, &[]);
        assert!(lp.objective > 30.0);
        assert_sparse_equals_dense(&lifted, &[(2, 2.0, 3.0)]);

        // All-zero solutions. Every term of the dense sum is a signed zero:
        // `−c · 0.0` is `−0.0`, and a float `Sum` starts from `−0.0`, so the
        // objective is `−0.0` exactly when every coefficient is negative.
        let mut zero = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| zero.add_binary(format!("z{i}"))).collect();
        for &v in &vars {
            zero.set_objective_coeff(v, -2.0);
        }
        let ones: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        zero.add_constraint_terms("cap", &ones, ConstraintOp::Le, 3.0);
        let lp = assert_sparse_equals_dense(&zero, &[]);
        assert_eq!(lp.objective.to_bits(), (-0.0f64).to_bits());
        // One non-negative coefficient anywhere flips it to `+0.0`…
        zero.set_objective_coeff(vars[4], 0.0);
        let lp = assert_sparse_equals_dense(&zero, &[]);
        assert_eq!(lp.objective.to_bits(), 0.0f64.to_bits());
        // …and so does a patched column that rests on a non-zero bound with a
        // zero coefficient, while the rest stay at zero.
        let lp = assert_sparse_equals_dense(&zero, &[(4, 1.0, 1.0)]);
        assert_eq!(lp.objective.to_bits(), 0.0f64.to_bits());
        zero.set_objective_coeff(vars[4], -0.0);
        let lp = assert_sparse_equals_dense(&zero, &[(4, 1.0, 1.0)]);
        assert_eq!(lp.objective.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_domains_and_unknown_variables_in_an_overlay() {
        let p = packing(0.0, 1.0, Sense::Maximize);
        let mat = LpMatrix::new(&p).unwrap();
        let root = root_of(&p);
        let mut ws = LpWorkspace::new(&mat, &root);
        let lp = ws.solve([(3, 2.0, 1.0)], None, &cfg()).unwrap();
        assert_eq!(lp.status, Status::Infeasible);
        assert_eq!(lp.iterations, 0);
        // A shadowed empty patch is not the node's domain.
        let lp = ws
            .solve([(3, 0.0, 1.0), (3, 2.0, 1.0)], None, &cfg())
            .unwrap();
        assert!(lp.status.is_optimal());
        assert!(matches!(
            ws.solve([(30, 0.0, 1.0)], None, &cfg()),
            Err(LpError::UnknownVariable(30))
        ));
        // The same through an expansion: a child's bounds shadow the chain's
        // patch of the branching variable, an empty child is infeasible on
        // its own, and an unknown variable fails every child.
        let statuses = |ws: &mut LpWorkspace<'_>, overlay: [(usize, f64, f64); 1], var| {
            ws.solve_children(
                overlay,
                None,
                var,
                &[(0.0, 1.0), (2.0, 1.0), (1.0, 3.0)],
                &cfg(),
                |_, lp| (lp.status, lp.iterations > 0),
            )
        };
        assert_eq!(
            statuses(&mut ws, [(3, 2.0, 1.0)], 3),
            [
                Ok((Status::Optimal, true)),
                Ok((Status::Infeasible, false)),
                Ok((Status::Optimal, true))
            ]
        );
        assert_eq!(
            statuses(&mut ws, [(4, 2.0, 1.0)], 3),
            vec![Ok((Status::Infeasible, false)); 3]
        );
        assert_eq!(
            statuses(&mut ws, [(30, 0.0, 1.0)], 3),
            vec![Err(LpError::UnknownVariable(30)); 3]
        );
        assert_eq!(
            statuses(&mut ws, [(3, 0.0, 1.0)], 30),
            vec![Err(LpError::UnknownVariable(30)); 3]
        );
    }

    #[test]
    fn one_row_per_linear_form() {
        // No form repeats: one row per constraint, laid out as it reads.
        let mut p = packing(0.0, 1.0, Sense::Maximize);
        let half: Vec<_> = (0..15).map(|i| (VarId::new(i), 1.0)).collect();
        p.add_constraint_terms("half", &half, ConstraintOp::Eq, 4.0);
        let mat = LpMatrix::new(&p).unwrap();
        assert_eq!(mat.m, p.num_constraints());
        // `(b, slack_lb, slack_ub)` of every row.
        let layout = |mat: &LpMatrix| -> Vec<(f64, f64, f64)> {
            (0..mat.m)
                .map(|r| (mat.b[r], mat.slack_lb[r], mat.slack_ub[r]))
                .collect()
        };
        const INF: f64 = f64::INFINITY;
        assert_eq!(
            layout(&mat),
            [
                (41.5, 0.0, INF), // weight ≤ 41.5
                (7.3, -INF, 0.0), // bulk ≥ 7.3
                (9.0, 0.0, INF),  // count ≤ 9
                (4.0, 0.0, 0.0),  // half = 4
            ]
        );
        assert_eq!(mat.a.len(), 4 * 30);

        // Repeats join the row of their form's first constraint: a window,
        // a second lower bound, and an equality under a lower bound.
        let count: Vec<_> = (0..30).map(|i| (VarId::new(i), 1.0)).collect();
        let bulk: Vec<_> = p.constraints()[1].expr.terms().collect();
        let mut q = p.clone();
        q.add_constraint_terms("count_lo", &count, ConstraintOp::Ge, 2.0);
        q.add_constraint_terms("bulk_again", &bulk, ConstraintOp::Ge, 8.5);
        q.add_constraint_terms("half_lo", &half, ConstraintOp::Ge, 1.0);
        let merged = LpMatrix::new(&q).unwrap();
        assert_eq!(merged.a, mat.a);
        assert_eq!(
            layout(&merged),
            [
                (41.5, 0.0, INF),
                (8.5, -INF, 0.0), // bulk ≥ 8.5
                (9.0, 0.0, 7.0),  // 2 ≤ count ≤ 9
                (4.0, 0.0, 0.0),
            ]
        );
        // The tolerance scale still reads every constraint.
        assert_eq!(merged.feas_scale, 1.0 + 41.5);

        // A contradictory pair on one form: infeasible without a pivot, cold,
        // warm (the basis of the consistent problem fits the merged shape)
        // and through an expansion.
        let root = root_of(&p);
        let (_, basis) = solve_lp_warm(&p, None, &cfg(), None).unwrap();
        let basis = basis.unwrap();
        let mut empty = p.clone();
        empty.add_constraint_terms("count_hi", &count, ConstraintOp::Ge, 9.5);
        let mat = LpMatrix::new(&empty).unwrap();
        assert_eq!(mat.m, 4);
        let mut ws = LpWorkspace::new(&mat, &root);
        for warm in [None, Some(&basis)] {
            let lp = ws.solve([], warm, &cfg()).unwrap();
            assert_eq!((lp.status, lp.iterations), (Status::Infeasible, 0));
            let children =
                ws.solve_children([], warm, 0, &[(0.0, 1.0), (2.0, 3.0)], &cfg(), |_, lp| {
                    (lp.status, lp.iterations)
                });
            assert_eq!(children, vec![Ok((Status::Infeasible, 0)); 2]);
        }
    }

    // ---- the block-mask selects against the per-column loops they replaced ----

    /// The select of the dual ratio test as it ran before the block mask:
    /// one scalar test per column over `status`/`lb`/`ub`.
    fn reference_ratio_select(
        status: &[ColStatus],
        lb: &[f64],
        ub: &[f64],
        alpha: &[f64],
        d: &[f64],
        below: bool,
    ) -> Option<usize> {
        let mut entering: Option<(usize, f64)> = None;
        let mut bound = f64::INFINITY;
        let mut consider = |j: usize, alpha: f64, d: f64| {
            let dir = status[j].direction();
            let toward = if below { -(dir * alpha) } else { dir * alpha };
            let eligible = !is_fixed(lb[j], ub[j])
                & (alpha.abs() > PIVOT_TOL)
                & ((toward > 0.0) | (dir == 0.0));
            let hopeless = d.abs() > bound * alpha.abs();
            if !eligible | hopeless {
                return;
            }
            let ratio = (d / alpha).abs();
            let better = match entering {
                None => true,
                Some((bj, best)) => {
                    ratio < best - 1e-12 || ((ratio - best).abs() <= 1e-12 && j < bj)
                }
            };
            if better {
                entering = Some((j, ratio));
                bound = (ratio + 2e-12) * (1.0 + 1e-9);
            }
        };
        for j in 0..alpha.len() {
            consider(j, alpha[j], d[j]);
        }
        entering.map(|(q, _)| q)
    }

    /// The pricing select as it ran before the block mask.
    fn reference_price_select(
        status: &[ColStatus],
        lb: &[f64],
        ub: &[f64],
        d: &[f64],
        tol: f64,
        use_bland: bool,
    ) -> Option<(usize, bool)> {
        let mut best: Option<(usize, bool, f64)> = None;
        let mut consider = |j: usize, d: f64| -> bool {
            let dir = status[j].direction();
            let increasing = d < -tol;
            let improving = (increasing & (dir >= 0.0)) | ((d > tol) & (dir <= 0.0));
            if !improving || is_fixed(lb[j], ub[j]) {
                return false;
            }
            let score = d.abs();
            if use_bland || best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((j, increasing, score));
            }
            use_bland
        };
        for j in 0..d.len() {
            if consider(j, d[j]) {
                break;
            }
        }
        best.map(|(j, inc, _)| (j, inc))
    }

    /// The production selects the way `dual_ratio_test` and `price` drive
    /// them: the first `n` lanes a pricing chunk at a time, the rest (the
    /// slack and artificial columns) in one more scan.
    fn mask_ratio_select(
        n: usize,
        alpha: &[f64],
        d: &[f64],
        dir: &[f64],
        below: bool,
    ) -> Option<usize> {
        let mut pick = RatioPick::new(below);
        for start in (0..n).step_by(PRICE_CHUNK) {
            let end = (start + PRICE_CHUNK).min(n);
            pick.scan(start, &alpha[start..end], &d[start..end], &dir[start..end]);
        }
        pick.scan(n, &alpha[n..], &d[n..], &dir[n..]);
        pick.entering.map(|(q, _)| q)
    }

    fn mask_price_select(
        n: usize,
        d: &[f64],
        dir: &[f64],
        tol: f64,
        bland: bool,
    ) -> Option<(usize, bool)> {
        let mut pick = PricePick {
            tol,
            bland,
            best: None,
        };
        let found = (0..n).step_by(PRICE_CHUNK).any(|start| {
            let end = (start + PRICE_CHUNK).min(n);
            pick.scan(start, &d[start..end], &dir[start..end])
        });
        if !found {
            pick.scan(n, &d[n..], &dir[n..]);
        }
        pick.best.map(|(j, inc, _)| (j, inc))
    }

    /// SplitMix64: the lane generator of the select properties.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick(&mut self, palette: &[f64]) -> f64 {
            palette[self.below(palette.len())]
        }
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn sign(&mut self) -> f64 {
            [1.0, -1.0][self.below(2)]
        }
    }

    /// Every status over every kind of bound pair: ordinary, fixed, free,
    /// half-open.
    fn random_columns(mix: &mut Mix, len: usize) -> (Vec<ColStatus>, Vec<f64>, Vec<f64>, Vec<f64>) {
        const INF: f64 = f64::INFINITY;
        let bounds = [
            (0.0, 1.0),
            (0.0, 0.0),
            (1.0, 1.0),
            (-INF, INF),
            (0.0, INF),
            (-INF, 0.0),
            (-1.0, 1.0),
            (0.0, 3.0),
        ];
        let statuses = [
            ColStatus::Basic,
            ColStatus::AtLower,
            ColStatus::AtUpper,
            ColStatus::Free,
        ];
        // A sparse draw leaves most columns basic or fixed, the way a block
        // deep in a branch-and-bound tree looks.
        let sparse = mix.below(4) == 0;
        let (mut status, mut lb, mut ub) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..len {
            let (l, u) = if sparse && mix.below(8) != 0 {
                (0.0, 0.0)
            } else {
                bounds[mix.below(bounds.len())]
            };
            status.push(statuses[mix.below(4)]);
            lb.push(l);
            ub.push(u);
        }
        let dir = (0..len).map(|j| movable(status[j], lb[j], ub[j])).collect();
        (status, lb, ub, dir)
    }

    /// An `m × n` matrix whose coefficients and costs are ordinary values
    /// or, one lane in four, one of `specials`: only the fields the sweeps
    /// read are drawn.
    fn random_matrix(mix: &mut Mix, m: usize, n: usize, specials: &[f64]) -> LpMatrix {
        let value = |mix: &mut Mix| {
            if mix.below(4) == 0 {
                mix.pick(specials)
            } else {
                mix.sign() * 10.0 * mix.unit()
            }
        };
        LpMatrix {
            n,
            m,
            a: (0..m * n).map(|_| value(mix)).collect(),
            cost: (0..n).map(|_| value(mix)).collect(),
            sense: Sense::Minimize,
            b: vec![0.0; m],
            feas_scale: 1.0,
            slack_lb: vec![0.0; m],
            slack_ub: vec![0.0; m],
            nonneg_objective: 0,
        }
    }

    /// `init + Σ coeffs[row] · a[row][j]` over the rows with a non-zero
    /// coefficient, in ascending row order, one column at a time: the
    /// accumulation order the floating-point discipline promises.
    fn column_sum(mat: &LpMatrix, init: f64, coeffs: &[f64], j: usize) -> f64 {
        let mut acc = init;
        for (row, &c) in coeffs.iter().enumerate() {
            if c != 0.0 {
                acc += c * mat.a[row * mat.n + j];
            }
        }
        acc
    }

    /// Bits of a lane, every NaN as one: which operand's payload a NaN
    /// result carries depends on the operand order the compiler picks for
    /// a commutative add, and no select can see a payload.
    fn lane_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// What one chunk of each sweep leaves behind: α, `d`, both ratio picks
    /// and the pricing pick with its stop flag.
    #[derive(Debug, PartialEq)]
    struct ChunkOut {
        alpha: Vec<u64>,
        d: Vec<u64>,
        ratio: [Option<(usize, u64)>; 2],
        price_d: Vec<u64>,
        price: (bool, Option<(usize, bool, u64)>),
    }

    /// `body` in the AVX2 twin when `avx2` is set (only ever after the CPU
    /// reported AVX2), else in the portable one.
    #[inline(always)]
    fn twin<R>(avx2: bool, body: impl FnOnce() -> R) -> R {
        debug_assert!(!avx2 || cfg!(target_arch = "x86_64"));
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: callers set `avx2` only after the CPU reported AVX2.
            return unsafe { with_avx2(body) };
        }
        body()
    }

    /// Runs one chunk of the dual ratio test and of pricing in the portable
    /// twin or, with `avx2`, the AVX2 one.
    fn run_chunk(
        mat: &LpMatrix,
        (rho, y): (&[f64], &[f64]),
        start: usize,
        dir: &[f64],
        (phase_one, bland): (bool, bool),
        avx2: bool,
    ) -> ChunkOut {
        let len = dir.len();
        let (mut alpha, mut d, mut price_d) = (vec![7.0; len], vec![7.0; len], vec![7.0; len]);
        let mut picks = [RatioPick::new(false), RatioPick::new(true)];
        let bufs = [&mut alpha[..], &mut d[..]];
        twin(
            avx2,
            #[inline(always)]
            || mat.ratio_chunk(rho, y, start, bufs, dir, &mut picks),
        );
        let mut pick = PricePick {
            tol: TOLERANCE,
            bland,
            best: None,
        };
        let done = twin(
            avx2,
            #[inline(always)]
            || mat.price_chunk(phase_one, y, start, &mut price_d, dir, &mut pick),
        );
        let bits = |v: &[f64]| v.iter().map(|&x| lane_bits(x)).collect();
        ChunkOut {
            alpha: bits(&alpha),
            d: bits(&d),
            ratio: picks.map(|p| p.entering.map(|(j, r)| (j, lane_bits(r)))),
            price_d: bits(&price_d),
            price: (done, pick.best.map(|(j, inc, s)| (j, inc, lane_bits(s)))),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 1500, .. proptest::ProptestConfig::default() })]

        /// The block-mask ratio select returns the column the per-column
        /// loop returned, on lanes of every shape: NaN, ±inf, ±0 and
        /// sub-tolerance pivots; ratios that fall along the scan, so the
        /// bound tightens inside blocks; ratios tied inside and just outside
        /// the 1e-12 window; lengths that are no multiple of the block or of
        /// the pricing chunk; both directions.
        #[test]
        fn the_block_mask_ratio_select_equals_the_per_column_loop(
            seed in 0u64..u64::MAX,
            len in 0usize..2600,
            tail in 0usize..40,
            shape in 0usize..4,
            below in proptest::prop::bool::ANY,
        ) {
            let mut mix = Mix(seed);
            let (status, lb, ub, dir) = random_columns(&mut mix, len);
            let specials = [
                f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0,
                PIVOT_TOL, -PIVOT_TOL, 0.5e-10, -0.5e-10, 1.000_000_1e-10,
            ];
            let (mut alpha, mut d) = (Vec::new(), Vec::new());
            for k in 0..len {
                let (a, dd) = match shape {
                    // Chaotic: a third of the lanes hold a special value.
                    0 => {
                        let a = if mix.below(3) == 0 { mix.pick(&specials) } else { mix.sign() * (0.1 + 10.0 * mix.unit()) };
                        let dd = if mix.below(3) == 0 { mix.pick(&specials) } else { mix.sign() * 5.0 * mix.unit() };
                        (a, dd)
                    }
                    // Falling ratios: new minima all along the scan.
                    1 => {
                        let a = mix.sign() * (0.5 + 1.5 * mix.unit());
                        let ratio = 10.0 * (1.0 - k as f64 / len as f64) * (0.9 + 0.2 * mix.unit());
                        (a, mix.sign() * ratio * a.abs())
                    }
                    // Ties: ratios a quarter of the window apart (exact:
                    // the pivots are powers of two).
                    2 => {
                        let a = mix.sign() * [0.5, 1.0, 2.0][mix.below(3)];
                        let ratio = 1.0 + (mix.below(17) as f64 - 8.0) * 0.25e-12;
                        (a, mix.sign() * ratio * a.abs())
                    }
                    // Mostly unusable pivots.
                    _ => {
                        let a = if mix.below(6) == 0 { mix.sign() * (0.1 + mix.unit()) } else { mix.pick(&specials) };
                        (a, mix.sign() * mix.unit())
                    }
                };
                alpha.push(a);
                d.push(dd);
            }
            let n = len.saturating_sub(tail);
            let want = reference_ratio_select(&status, &lb, &ub, &alpha, &d, below);
            let got = mask_ratio_select(n, &alpha, &d, &dir, below);
            proptest::prop_assert_eq!(got, want, "seed {} len {} tail {} shape {} below {}", seed, len, tail, shape, below);
        }

        /// The block-mask pricing select returns the `(column, direction)`
        /// the per-column loop returned: Dantzig and Bland, reduced costs
        /// at and around ±tol, NaN, ±inf and ±0, scores that rise along the
        /// scan, exact score ties, phase-1-like costs (mostly zero).
        #[test]
        fn the_block_mask_pricing_select_equals_the_per_column_loop(
            seed in 0u64..u64::MAX,
            len in 0usize..2600,
            tail in 0usize..40,
            shape in 0usize..4,
            bland in proptest::prop::bool::ANY,
        ) {
            let tol = 1e-7;
            let mut mix = Mix(seed);
            let (status, lb, ub, dir) = random_columns(&mut mix, len);
            let specials = [
                f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, tol, -tol,
                tol * (1.0 + f64::EPSILON), -tol * (1.0 + f64::EPSILON),
                tol * (1.0 - f64::EPSILON), -tol * (1.0 - f64::EPSILON),
            ];
            let d: Vec<f64> = (0..len)
                .map(|k| match shape {
                    0 => if mix.below(3) == 0 { mix.pick(&specials) } else { mix.sign() * 3.0 * mix.unit() },
                    // Rising scores: new maxima all along the scan.
                    1 => mix.sign() * (tol + 5.0 * (k as f64 / len as f64) * (0.9 + 0.2 * mix.unit())),
                    // Exact ties between a few scores.
                    2 => mix.sign() * [1.0, 1.0 + f64::EPSILON, 2.0][mix.below(3)],
                    // Phase-1-like: nearly every reduced cost is zero.
                    _ => if mix.below(40) == 0 { 1.0 - 2.0 * mix.unit() } else { mix.pick(&[0.0, -0.0]) },
                })
                .collect();
            let n = len.saturating_sub(tail);
            let want = reference_price_select(&status, &lb, &ub, &d, tol, bland);
            let got = mask_price_select(n, &d, &dir, tol, bland);
            proptest::prop_assert_eq!(got, want, "seed {} len {} tail {} shape {} bland {}", seed, len, tail, shape, bland);
        }

        /// One chunk of each sweep, portable and AVX2, over random columns:
        /// α and `d` equal, bit for bit, the per-column sums in row order,
        /// and both ratio picks and the pricing pick equal the per-column
        /// selects; the AVX2 twin (where the CPU has it) leaves exactly what
        /// the portable one does. Coefficients, costs, ρ and `y` include
        /// NaN, ±inf and ±0.0; chunks start anywhere and are any length up
        /// to `PRICE_CHUNK`, so partial select blocks and partial chunks
        /// both occur.
        #[test]
        fn the_avx2_sweeps_equal_the_portable_ones(
            seed in 0u64..u64::MAX,
            m in 0usize..7,
            start in 0usize..80,
            len in 1usize..PRICE_CHUNK + 1,
            phase_one in proptest::prop::bool::ANY,
            bland in proptest::prop::bool::ANY,
        ) {
            let mut mix = Mix(seed);
            let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e-300, -1e300];
            let n = start + len + mix.below(20);
            let mat = random_matrix(&mut mix, m, n, &specials);
            let coeffs = |mix: &mut Mix| -> Vec<f64> {
                (0..m).map(|_| if mix.below(3) == 0 { mix.pick(&specials) } else { mix.sign() * mix.unit() }).collect()
            };
            let (rho, y) = (coeffs(&mut mix), coeffs(&mut mix));
            let (status, lb, ub, dir) = random_columns(&mut mix, len);
            let portable = run_chunk(&mat, (&rho, &y), start, &dir, (phase_one, bland), false);

            let neg_y: Vec<f64> = y.iter().map(|&c| -c).collect();
            let columns = start..start + len;
            let alpha: Vec<f64> = columns.clone().map(|j| column_sum(&mat, 0.0, &rho, j)).collect();
            let d: Vec<f64> = columns.clone().map(|j| column_sum(&mat, mat.cost[j], &neg_y, j)).collect();
            let price_d: Vec<f64> = columns
                .map(|j| column_sum(&mat, if phase_one { 0.0 } else { mat.cost[j] }, &neg_y, j))
                .collect();
            let bits = |v: &[f64]| v.iter().map(|&x| lane_bits(x)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(&portable.alpha, &bits(&alpha));
            proptest::prop_assert_eq!(&portable.d, &bits(&d));
            proptest::prop_assert_eq!(&portable.price_d, &bits(&price_d));
            let ratio = |below| reference_ratio_select(&status, &lb, &ub, &alpha, &d, below).map(|j| j + start);
            proptest::prop_assert_eq!(portable.ratio.map(|p| p.map(|(j, _)| j)), [ratio(false), ratio(true)]);
            let price = reference_price_select(&status, &lb, &ub, &price_d, TOLERANCE, bland)
                .map(|(j, inc)| (j + start, inc));
            proptest::prop_assert_eq!(portable.price.1.map(|(j, inc, _)| (j, inc)), price);

            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let avx2 = run_chunk(&mat, (&rho, &y), start, &dir, (phase_one, bland), true);
                proptest::prop_assert_eq!(avx2, portable, "seed {} m {} start {} len {}", seed, m, start, len);
            }
        }
    }
}
