//! The sketch family: partition → sketch → refine, at any tree depth.
//!
//! Monolithic ILP translation puts all `n` candidates in one problem, which
//! is exact but scales poorly: every branch-and-bound node re-solves an LP
//! over all `n` columns.
//! SketchRefine (Brucato, Abouzied, Meliou: "Scalable Package Queries in
//! Relational Database Systems", PVLDB 9(7), 2016) showed the scalable
//! alternative, later pushed to a billion tuples by Progressive Shading
//! (Mai et al., 2023): solve a coarse problem first, then localize the exact
//! work. This module holds the one pipeline both of this crate's sketch
//! solvers run — [`SketchRefineSolver`] and
//! [`crate::shading::ProgressiveShadingSolver`] differ only in where the
//! leaf partitions come from, and the flat solver is the zero-layer case of
//! the tree solver's descent. Over the [`crate::view::CandidateView`]:
//!
//! 1. **Partition** ([`crate::partition`]): size-bounded k-d splits of the
//!    candidate set along the view's term columns — the quality-sensitive
//!    attributes — each partition summarized by its centroid row. The flat
//!    solver takes the view's flat partitioning (bound
//!    `sketch_partition_size`); the tree solver takes the leaves of the
//!    view's partition tree (bound `shade_leaf_size`) and the grouping layers
//!    above them.
//! 2. **Sketch**: a tiny ILP with one integer variable `y_p ∈ [0, cap_p]`
//!    per partition (multiplicity bound = partition capacity), whose
//!    constraint rows and objective are the *linearized* original rows
//!    aggregated by partition mean. Its solution says how many tuples to
//!    draw from each partition. Under a tree, [`crate::shading`]'s descent
//!    first narrows the leaves to a shaded subset, one such sketch per
//!    layer; without layers every leaf is in the sketch.
//! 3. **Refine**: partitions with `y_p > 0` are refined one at a time —
//!    a sub-ILP over just that partition's real tuples, with every other
//!    partition's contribution fixed (already-refined actuals) or estimated
//!    (still-sketched centroids). A failed sub-ILP triggers the paper's
//!    backtracking rule: the failed partition is re-refined *first* and the
//!    pass restarts; exhausted backtracks degrade to greedy per-partition
//!    fills. Deadline pressure at any point falls back to greedy fills plus
//!    the shared repair pass — every intermediate result honours the anytime
//!    contract (`optimal: false`, never an error, never an overrun).
//!
//! The greedy baseline runs first, so the family's answer is never worse
//! than [`crate::solver::GreedySolver`]'s — the refined package only replaces
//! it when it scores strictly better. Inside the default portfolio race this
//! duplicates the separate greedy worker's (cheap) run; that is deliberate:
//! the baseline is what makes the result anytime-safe and its quality floor
//! deterministic, race or no race.
//!
//! Data parallelism (since the chunked columnar layout): the offline
//! partitioning's spread scans fan out over
//! [`crate::solver::SolveOptions::par`] in fixed chunks, with the
//! cooperative budget checked per chunk. The representative-means matrix is
//! one job per coefficient row on the same executor: each job is a single
//! sequential pass over the candidates that adds every coefficient to its
//! leaf's running sum (so it reads the row and the candidate → leaf
//! assignment in order, never gathering a leaf's members), checking the
//! budget every [`crate::par::CHUNK_WIDTH`] candidates. The refine loop
//! itself stays sequential *by data dependence* — each sub-ILP's right-hand
//! side folds in the actuals of every partition refined before it — so its
//! unit of work (and of budget checking) is one partition, which is exactly
//! a chunk of candidates by construction.

use std::collections::HashMap;
use std::sync::Arc;

use lp_solver::{LpError, VarId};
use paql::ObjectiveDirection;

use crate::error::PbError;
use crate::greedy::repair_to_feasibility;
use crate::ilp::{linearize, package_problem, LinearConstraint};
use crate::package::Package;
use crate::par::CHUNK_WIDTH;
use crate::partition::{Partition, Partitioning};
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{GreedySolver, SolveOptions, SolveOutcome, Solver};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// How many failed-partition backtracks the refinement tolerates before
/// degrading the remaining sub-problems to greedy fills.
const MAX_BACKTRACKS: usize = 3;

/// Partition → sketch → refine over the view's flat partitioning (see the
/// module docs).
///
/// Requires a linearizable query (same condition as [`crate::solver::IlpSolver`]);
/// non-linearizable queries get [`PbError::Unsupported`], which also lets the
/// solver drop out of a portfolio race cleanly. Returns a single package
/// (`num_packages` is a documented no-op here, like the greedy solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct SketchRefineSolver;

impl Solver for SketchRefineSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::SketchRefine
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        solve_sketch_family(self.strategy(), view, opts)
    }
}

/// What every stage of the pipeline reads: the view, its linearized rows and
/// objective, and the solve options.
#[derive(Clone, Copy)]
pub(crate) struct Linearized<'a> {
    pub(crate) view: &'a CandidateView,
    pub(crate) rows: &'a [LinearConstraint],
    pub(crate) obj_coeffs: Option<&'a [f64]>,
    pub(crate) opts: &'a SolveOptions,
}

impl<'a> Linearized<'a> {
    /// The per-candidate coefficient columns: one per constraint row, then
    /// the objective's when the query has one.
    fn coeff_rows(&self) -> impl Iterator<Item = &'a [f64]> {
        let rows = self.rows.iter().map(|r| r.coeffs.as_slice());
        rows.chain(self.obj_coeffs)
    }
}

/// The whole family's `Solver::solve`: linearize, run the greedy floor, then
/// partition → sketch → refine and keep the better of the two. `strategy`
/// labels the outcome and picks the partition source — the view's partition
/// tree for [`StrategyUsed::ProgressiveShading`], its flat partitioning
/// otherwise; nothing else differs between the family's solvers.
pub(crate) fn solve_sketch_family(
    strategy: StrategyUsed,
    view: &CandidateView,
    opts: &SolveOptions,
) -> PbResult<SolveOutcome> {
    // pb-lint: allow(time-containment) — stats clock only: stamps
    // solve_time_ms; sketch and refine deadlines go through the budget.
    let start = std::time::Instant::now();
    let unsupported =
        |r| PbError::Unsupported(format!("{strategy} requires a linearizable query: {r}"));
    let (rows, objective) = linearize(view).write(view);
    let rows = rows.map_err(unsupported)?;
    let objective = objective.map_err(unsupported)?;
    if view.candidate_count() == 0 {
        return Ok(SolveOutcome::empty(strategy, 0, false));
    }

    // Greedy baseline first: the anytime answer, and the floor the
    // refined package must beat to be returned. It orders by the objective
    // linearized above rather than linearizing it again.
    let obj_coeffs = objective.as_deref();
    let baseline = GreedySolver.solve_linearized(view, opts, obj_coeffs)?;
    // The floor's stats start the solve's: every sketch and sub-ILP adds its
    // LP work to them.
    let mut stats = EvalStats {
        strategy,
        ..baseline.stats
    };
    let mut best: Option<(Package, Option<f64>)> = baseline.packages.into_iter().next();

    if !opts.budget.expired() {
        let q = Linearized {
            view,
            rows: &rows,
            obj_coeffs,
            opts,
        };
        if let Some((package, obj)) = sketch_then_refine(&q, strategy, &mut stats)? {
            let beats = |cur: &(Package, Option<f64>)| {
                Package::better_objective(view.direction(), obj, cur.1)
            };
            if best.as_ref().is_none_or(beats) {
                best = Some((package, obj));
            }
        }
    }

    stats.elapsed = start.elapsed();
    Ok(SolveOutcome {
        packages: best.into_iter().collect(),
        optimal: false,
        stats,
    })
}

/// Phases 1–3 behind the floor; `Ok(None)` means a sketch was infeasible, the
/// budget ran out mid-setup or mid-descent, or the refined package could not
/// be repaired to feasibility (the greedy baseline then stands). `Err` is
/// reserved for internal invariant violations.
fn sketch_then_refine(
    q: &Linearized<'_>,
    strategy: StrategyUsed,
    stats: &mut EvalStats,
) -> PbResult<Option<(Package, Option<f64>)>> {
    // Partitioning and the means matrix are O(n log n) / O(rows·n) setup; on
    // a nearly-spent budget (a slow greedy baseline under a tight race
    // deadline) they must not push the solver past its ~2x-deadline
    // contract, so both are budget-checked as they go — per chunk, not per
    // element, now that both fan out over `opts.par`. Either source goes
    // through the view's memo: a repeated query (or a second worker over a
    // clone of this view) reuses the one computed before, and an engine with
    // caching on carries it across queries entirely.
    let (view, opts) = (q.view, q.opts);
    let (leaves, tree) = if strategy == StrategyUsed::ProgressiveShading {
        let Some(tree) = view.partition_tree(
            opts.shade_leaf_size,
            opts.shade_fanout,
            opts.seed,
            &opts.budget,
            opts.par,
        ) else {
            return Ok(None);
        };
        (Arc::clone(tree.leaves_arc()), Some(tree))
    } else {
        let Some(flat) = view.partitioning(
            opts.sketch_partition_size,
            opts.seed,
            &opts.budget,
            opts.par,
        ) else {
            return Ok(None);
        };
        (flat, None)
    };
    let parts = leaves.partitions();
    if parts.is_empty() {
        return Ok(None);
    }

    // Leaf representative means, one row per coefficient column.
    let coeff_rows: Vec<&[f64]> = q.coeff_rows().collect();
    let Some(means) = leaf_means(&leaves, &coeff_rows, opts) else {
        return Ok(None);
    };

    // Phase 2 — under a tree, the descent narrows the leaves to the shaded
    // ones; then one sketch over those, scattered back to full-length counts
    // (zero outside the shade). An empty shade is a layer sketch that drew
    // nothing: no leaf sketch, no leaf refined.
    let layers = tree.as_ref().map_or(&[][..], |t| t.layers());
    let Some(shade) = crate::shading::descend(q, layers, parts, &means, stats)? else {
        return Ok(None);
    };
    let mut counts = vec![0u64; parts.len()];
    if !shade.is_empty() {
        if opts.budget.expired() {
            return Ok(None);
        }
        let capacities = shade.iter().map(|&p| parts[p].capacity(view)).collect();
        let Some(drawn) = solve_sketch(q, &shade, capacities, &means, stats)? else {
            return Ok(None);
        };
        for (&p, &c) in shade.iter().zip(&drawn) {
            counts[p] = c;
        }
    }

    // Phase 3 — refine picked partitions, most-loaded first (deterministic:
    // ties break on partition id).
    let mut order: Vec<usize> = shade.iter().copied().filter(|&p| counts[p] > 0).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(counts[p]), p));
    if order.is_empty() {
        // The sketch says the empty package: only useful if it is feasible.
        let state = ViewState::empty(view);
        return Ok(state
            .is_feasible()
            .then(|| (state.to_package(), state.objective_value())));
    }

    let ctx = RefineCtx {
        q: *q,
        parts,
        means: &means,
        counts: &counts,
    };
    refine_with_backtracking(&ctx, order, stats)
}

/// Representative coefficients: `leaf_means(leaves, rows, opts)[r][p]` is
/// coefficient row `r` averaged over leaf `p`, bit for bit
/// [`Partition::mean_of`]. Each row is one sequential pass over the
/// candidate → leaf assignment that adds every coefficient to its leaf's
/// sum; members are ascending, so each sum sees `mean_of`'s additions in
/// its order, from the value a float `Sum` starts at. Rows are independent
/// jobs on `opts.par`, so the means are the same at every thread count; a
/// job checks the budget every [`CHUNK_WIDTH`] candidates. `None` on budget
/// expiry.
fn leaf_means(
    leaves: &Partitioning,
    rows: &[&[f64]],
    opts: &SolveOptions,
) -> Option<Vec<Vec<f64>>> {
    let parts = leaves.partitions();
    let assignment = leaves.assignment();
    let empty_sum: f64 = std::iter::empty::<f64>().sum();
    let jobs = opts.par.run_chunks_width(rows.len(), 1, |r, _| {
        let mut sums = vec![empty_sum; parts.len()];
        let chunks = rows[r]
            .chunks(CHUNK_WIDTH)
            .zip(assignment.chunks(CHUNK_WIDTH));
        for (coeffs, assigned) in chunks {
            if opts.budget.expired() {
                return None;
            }
            for (&c, &p) in coeffs.iter().zip(assigned) {
                sums[p] += c;
            }
        }
        let mean = |(sum, part): (f64, &Partition)| match part.members.len() {
            0 => 0.0,
            len => sum / len as f64,
        };
        Some(sums.into_iter().zip(parts).map(mean).collect())
    });
    jobs.into_iter().collect()
}

/// Builds and solves the family's one ILP shape, for a sketch (a column per
/// group) and a refine sub-ILP (a column per member tuple) alike, through
/// [`package_problem`] (`coeff_rows`: one per constraint, then the
/// objective's when the query has one), with solver limits from the options
/// and the budget's deadline applied. Every solve's LP work is added to
/// `stats`, whether or not it found a solution. `Ok(None)` when the ILP
/// is infeasible, or stopped (node cap, deadline) without a solution; any
/// other solver error is the query's error.
fn solve_small_ilp<R: AsRef<[f64]>>(
    q: &Linearized<'_>,
    columns: &[usize],
    coeff_rows: &[R],
    upper: impl Fn(usize) -> f64,
    rhs: impl Fn(usize) -> f64,
    hint: Option<&[f64]>,
    stats: &mut EvalStats,
) -> PbResult<Option<lp_solver::Solution>> {
    let (problem, _) = package_problem(q.view.direction(), q.rows, coeff_rows, columns, upper, rhs);
    let mut config = q.opts.solver.clone();
    q.opts.budget.apply_to_solver(&mut config);
    let solution = match lp_solver::solve_milp_hinted(&problem, &config, hint) {
        // A truncated search that found nothing carries no counters.
        Err(LpError::Interrupted | LpError::NodeLimit) => return Ok(None),
        other => other?,
    };
    stats.nodes += solution.nodes as u64;
    stats.iterations += solution.iterations as u64;
    stats.cold_solves += solution.cold_solves as u64;
    Ok(solution.status.has_solution().then_some(solution))
}

/// One sketch ILP over the `active` groups of a level (the leaf partitions,
/// or one tree layer's nodes): a variable per group bounded by its entry of
/// `capacities`, the query's rows aggregated to the group representatives
/// `level[r][group]` (laid out like [`Linearized::coeff_rows`]). Returns the
/// per-group draw counts clamped to capacity, or `Ok(None)` when the sketch
/// is infeasible, truncated without a solution, or the budget expired.
pub(crate) fn solve_sketch(
    q: &Linearized<'_>,
    active: &[usize],
    capacities: Vec<u64>,
    level: &[Vec<f64>],
    stats: &mut EvalStats,
) -> PbResult<Option<Vec<u64>>> {
    let (upper, rhs) = (|k: usize| capacities[k] as f64, |c: usize| q.rows[c].rhs);
    let Some(sketch) = solve_small_ilp(q, active, level, upper, rhs, None, stats)? else {
        return Ok(None);
    };
    let drawn =
        |(k, &cap): (usize, &u64)| (sketch.value_rounded(VarId::new(k)).max(0) as u64).min(cap);
    Ok(Some(capacities.iter().enumerate().map(drawn).collect()))
}

/// Phase 3 driver: refines `order`'s partitions with the paper's
/// failed-partition backtracking, then repairs any residual infeasibility.
/// `Ok(None)` when no feasible package came out (the caller's greedy
/// baseline stands).
fn refine_with_backtracking(
    ctx: &RefineCtx<'_>,
    mut order: Vec<usize>,
    stats: &mut EvalStats,
) -> PbResult<Option<(Package, Option<f64>)>> {
    // Last successful sub-ILP assignment per partition, across backtracking
    // passes of *this* query. A re-refined partition hints its previous
    // assignment into `solve_milp_hinted` as the starting incumbent — the
    // right-hand sides shift between passes, but the old package is often
    // still feasible and near-optimal, so branch and bound starts with a
    // strong bound instead of none. Hints are deterministic (the map is only
    // read/written by partition id, never iterated), so the backtracking
    // sequence stays bit-identical run to run.
    let mut hints: HashMap<usize, Vec<(usize, u32)>> = HashMap::new();
    let mut backtracks = 0;
    let mut state = loop {
        match refine_pass(ctx, &order, Pass::Strict, &mut hints, stats)? {
            Ok(state) => break state,
            Err(failed) => {
                backtracks += 1;
                let already_first = order.first() == Some(&failed);
                if backtracks >= MAX_BACKTRACKS || already_first || ctx.q.opts.budget.expired() {
                    // Backtracking exhausted: a non-strict pass greedy-fills
                    // whatever still fails instead of giving up. A failed
                    // partition that was already first would get the same
                    // sub-ILP again (no partition before it, the same hint),
                    // so it is greedy-filled without a second solve. Such a
                    // pass cannot report a failed partition by construction
                    // — if one ever does, surface it as an internal error
                    // (PR-2 convention) instead of panicking mid-solve.
                    let pass = Pass::Fill(already_first.then_some(failed));
                    break refine_pass(ctx, &order, pass, &mut hints, stats)?.map_err(|p| {
                        PbError::Internal(format!(
                            "non-strict refine pass reported failed partition {p}"
                        ))
                    })?;
                }
                // The paper's backtracking rule: re-refine the failed
                // partition first, where the full constraint slack is still
                // available to it.
                order.retain(|&p| p != failed);
                order.insert(0, failed);
            }
        }
    };

    if !state.is_feasible() {
        let (evals, _) = repair_to_feasibility(&mut state, &ctx.q.opts.budget, ctx.q.opts.par);
        stats.iterations += evals;
    }
    Ok(state
        .is_feasible()
        .then(|| (state.to_package(), state.objective_value())))
}

/// Shared inputs of one refinement pass over the leaf partitions: their
/// representative means (`means[c][p]` per constraint row `c`) and the leaf
/// sketch's draw counts (zero outside the shade).
struct RefineCtx<'a> {
    q: Linearized<'a>,
    parts: &'a [Partition],
    means: &'a [Vec<f64>],
    counts: &'a [u64],
}

/// How a [`refine_pass`] treats a partition whose sub-ILP fails.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Report it.
    Strict,
    /// Greedy-fill it and carry on; the partition named here, known to
    /// fail, is greedy-filled without solving its sub-ILP.
    Fill(Option<usize>),
}

/// One refinement pass over `order`. Strict passes report the first
/// partition whose sub-ILP fails (`Ok(Err(p))`); non-strict passes
/// greedy-fill it and carry on (and therefore always succeed). Budget
/// expiry mid-pass greedy-fills the remaining partitions — the anytime
/// degradation, never an error. `Err` is a solver error.
fn refine_pass<'v>(
    ctx: &RefineCtx<'v>,
    order: &[usize],
    pass: Pass,
    hints: &mut HashMap<usize, Vec<(usize, u32)>>,
    stats: &mut EvalStats,
) -> PbResult<Result<ViewState<'v>, usize>> {
    let mut state = ViewState::empty(ctx.q.view);
    let mut fixed = vec![0.0; ctx.q.rows.len()];
    // Estimated contribution of every still-sketched partition, per row.
    let mut rem: Vec<f64> = (0..ctx.q.rows.len())
        .map(|c| {
            order
                .iter()
                .map(|&p| ctx.counts[p] as f64 * ctx.means[c][p])
                .sum()
        })
        .collect();

    for (pos, &p) in order.iter().enumerate() {
        // This partition stops being an estimate now, whatever happens next.
        for (c, r) in rem.iter_mut().enumerate() {
            *r -= ctx.counts[p] as f64 * ctx.means[c][p];
        }
        if ctx.q.opts.budget.expired() {
            for &late in &order[pos..] {
                greedy_fill(ctx, late, &mut state);
            }
            return Ok(Ok(state));
        }
        let assignment = match pass {
            Pass::Fill(Some(failed)) if failed == p => None,
            _ => solve_partition(ctx, p, &fixed, &rem, hints.get(&p), stats)?,
        };
        match assignment {
            Some(assignment) => {
                hints.insert(p, assignment.clone());
                for &(idx, mult) in &assignment {
                    state.apply(idx, mult as i64);
                    for (c, row) in ctx.q.rows.iter().enumerate() {
                        fixed[c] += row.coeffs[idx] * mult as f64;
                    }
                }
            }
            None if pass == Pass::Strict => return Ok(Err(p)),
            None => {
                // Each candidate belongs to exactly one partition, so the
                // fill's contribution is exactly p's members' multiplicities.
                greedy_fill(ctx, p, &mut state);
                for (c, row) in ctx.q.rows.iter().enumerate() {
                    fixed[c] += ctx.parts[p]
                        .members
                        .iter()
                        .map(|&i| row.coeffs[i] * state.multiplicity(i) as f64)
                        .sum::<f64>();
                }
            }
        }
    }
    Ok(Ok(state))
}

/// Sub-ILP over one partition's real tuples: the original rows with every
/// other partition's contribution moved to the right-hand side. On a
/// backtracking re-refine, the partition's previous assignment (`hint`) seeds
/// branch and bound's incumbent through [`lp_solver::solve_milp_hinted`] — an
/// infeasible hint (the right-hand sides moved) is silently ignored, a
/// feasible one prunes from node one.
fn solve_partition(
    ctx: &RefineCtx<'_>,
    p: usize,
    fixed: &[f64],
    rem: &[f64],
    hint: Option<&Vec<(usize, u32)>>,
    stats: &mut EvalStats,
) -> PbResult<Option<Vec<(usize, u32)>>> {
    let q = &ctx.q;
    let members = &ctx.parts[p].members;
    let shifted: Vec<f64> = (q.rows.iter().zip(fixed).zip(rem))
        .map(|((row, f), r)| row.rhs - f - r)
        .collect();
    let hint_values: Option<Vec<f64>> = hint.map(|assignment| {
        let mut v = vec![0.0; members.len()];
        for &(i, mult) in assignment {
            if let Some(k) = members.iter().position(|&m| m == i) {
                v[k] = mult as f64;
            }
        }
        v
    });
    let coeff_rows: Vec<&[f64]> = q.coeff_rows().collect();
    let (upper, rhs) = (|_| q.view.max_multiplicity() as f64, |c: usize| shifted[c]);
    let hint = hint_values.as_deref();
    let Some(solution) = solve_small_ilp(q, members, &coeff_rows, upper, rhs, hint, stats)? else {
        return Ok(None);
    };
    let assignment = members
        .iter()
        .enumerate()
        .filter_map(|(k, &i)| {
            let mult = solution.value_rounded(VarId::new(k)).max(0) as u32;
            (mult > 0).then_some((i, mult.min(q.view.max_multiplicity())))
        })
        .collect();
    Ok(Some(assignment))
}

/// Greedy degradation for one partition: take its sketched multiplicity in
/// objective-coefficient order (best first, deterministic), round-robin over
/// `REPEAT` slots — the refinement analogue of the greedy start heuristic.
fn greedy_fill(ctx: &RefineCtx<'_>, p: usize, state: &mut ViewState<'_>) {
    let mut members = ctx.parts[p].members.clone();
    if let Some(obj) = ctx.q.obj_coeffs {
        let maximize = matches!(ctx.q.view.direction(), ObjectiveDirection::Maximize);
        members.sort_by(|&a, &b| {
            let cmp = if maximize {
                obj[b].total_cmp(&obj[a])
            } else {
                obj[a].total_cmp(&obj[b])
            };
            cmp.then(a.cmp(&b))
        });
    }
    let mut remaining = ctx.counts[p];
    'outer: for _ in 0..ctx.q.view.max_multiplicity() {
        for &i in &members {
            if remaining == 0 {
                break 'outer;
            }
            if state.multiplicity(i) < ctx.q.view.max_multiplicity() {
                state.apply(i, 1);
                remaining -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::par::ParExec;
    use crate::spec::tests::spec_for;
    use crate::spec::{BuildCtx, PackageSpec};
    use datagen::{recipes, scenarios, Seed};

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn refined_packages_are_valid_and_beat_or_match_greedy() {
        let t = recipes(2_000, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions::default();
        let out = SketchRefineSolver.solve(spec.view(), &opts).unwrap();
        assert_eq!(out.stats.strategy, StrategyUsed::SketchRefine);
        assert!(!out.optimal, "sketch-refine is approximate by design");
        let (p, obj) = out.packages.first().expect("a meal plan exists at n=2000");
        assert!(spec.is_valid(p).unwrap());
        let greedy = GreedySolver.solve(spec.view(), &opts).unwrap();
        if let Some((_, g)) = greedy.packages.first() {
            assert!(obj.unwrap() + 1e-9 >= g.unwrap(), "worse than greedy");
        }
    }

    #[test]
    fn non_linearizable_queries_are_rejected_with_unsupported() {
        let t = recipes(100, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein)",
        );
        let err = SketchRefineSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, PbError::Unsupported(_)));
    }

    #[test]
    fn empty_candidate_sets_yield_an_empty_outcome() {
        let t = recipes(50, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 1",
        );
        let out = SketchRefineSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        assert!(out.packages.is_empty());
        assert!(!out.optimal);
    }

    #[test]
    fn expired_budgets_return_the_anytime_result_without_error() {
        let t = recipes(2_000, Seed(4));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions {
            budget: crate::budget::Budget::with_limit(std::time::Duration::ZERO),
            ..SolveOptions::default()
        };
        let out = SketchRefineSolver.solve(spec.view(), &opts).unwrap();
        assert!(!out.optimal);
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    /// `leaf_means` as bits; `None` on expiry.
    fn one_pass(
        leaves: &Partitioning,
        rows: &[&[f64]],
        opts: &SolveOptions,
    ) -> Option<Vec<Vec<u64>>> {
        let means = leaf_means(leaves, rows, opts)?;
        Some(
            means
                .iter()
                .map(|row| row.iter().map(|m| m.to_bits()).collect())
                .collect(),
        )
    }

    /// The gather form the one pass replaced: [`Partition::mean_of`] per
    /// leaf, as bits.
    fn gathered(leaves: &Partitioning, rows: &[&[f64]]) -> Vec<Vec<u64>> {
        let parts = leaves.partitions();
        let mean_bits = |row: &&[f64]| parts.iter().map(|p| p.mean_of(row).to_bits()).collect();
        rows.iter().map(mean_bits).collect()
    }

    #[test]
    fn one_pass_leaf_means_equal_mean_of_on_every_registry_query() {
        // Every linearized row and objective of every gauntlet query of
        // every family over two chunks, over the flat leaves and a tree's
        // leaves, at 1 and 2 threads.
        let n = CHUNK_WIDTH + 300;
        let budget = Budget::unlimited();
        let mut rows_checked = 0;
        for scenario in scenarios() {
            let table = (scenario.build)(n, Seed(21));
            for query in &scenario.queries {
                let analyzed = paql::compile(&query.text, table.schema()).unwrap();
                let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
                let view = spec.view();
                let (Ok(rows), Ok(objective)) = linearize(view).write(view) else {
                    continue;
                };
                let mut coeff_rows: Vec<&[f64]> =
                    rows.iter().map(|r| r.coeffs.as_slice()).collect();
                coeff_rows.extend(objective.as_deref());
                let seq = ParExec::sequential();
                let flat = view.partitioning(64, 7, &budget, seq).unwrap();
                let tree = view.partition_tree(8, 4, 7, &budget, seq).unwrap();
                for leaves in [&*flat, tree.leaves()] {
                    let oracle = gathered(leaves, &coeff_rows);
                    for threads in [1, 2] {
                        let opts = SolveOptions {
                            par: ParExec::new(threads),
                            ..SolveOptions::default()
                        };
                        assert_eq!(
                            one_pass(leaves, &coeff_rows, &opts),
                            Some(oracle.clone()),
                            "{} ({}), {} leaves, {threads} threads",
                            scenario.name,
                            query.text,
                            leaves.len()
                        );
                    }
                    rows_checked += coeff_rows.len();
                }
            }
        }
        assert!(rows_checked > 50, "only {rows_checked} rows were compared");
    }

    #[test]
    fn a_leaf_of_negative_zeros_keeps_its_sign_and_an_expired_budget_stops_the_pass() {
        // A float `Sum` starts from -0.0, so a leaf whose every coefficient
        // is -0.0 has mean -0.0; a pass starting its sums at +0.0 would
        // give +0.0.
        let t = recipes(2_000, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let view = spec.view();
        let budget = Budget::unlimited();
        let leaves = view
            .partitioning(64, 7, &budget, ParExec::sequential())
            .unwrap();
        let zeroed = leaves.partition_of(view.candidate_count() - 10);
        let row: Vec<f64> = (0..view.candidate_count())
            .map(|i| match leaves.partition_of(i) == zeroed {
                true => -0.0,
                false => i as f64 * 0.25 - 100.0,
            })
            .collect();
        let rows = [row.as_slice()];
        let means = one_pass(&leaves, &rows, &SolveOptions::default()).unwrap();
        assert_eq!(means, gathered(&leaves, &rows));
        assert_eq!(means[0][zeroed], (-0.0f64).to_bits());

        let expired = SolveOptions {
            budget: Budget::with_limit(std::time::Duration::ZERO),
            ..SolveOptions::default()
        };
        assert_eq!(one_pass(&leaves, &rows, &expired), None);
    }
}
