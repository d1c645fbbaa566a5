//! Greedy construction: [`GreedySolver`], the standalone strategy, and the
//! starting packages of the local search, plus the shared feasibility
//! repair the greedy solver and the sketch→refine fallback both run:
//! add/drop moves searched by the move engine's one
//! `view::neighbourhood_pass`, the pass the local search runs too.
//! The greedy solver counts accepted repair moves in [`EvalStats::nodes`]
//! and the moves its repair passes considered in [`EvalStats::iterations`].

use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::budget::Budget;
use crate::error::PbError;
use crate::ilp::linearize;
use crate::package::Package;
use crate::par::ParExec;
use crate::pruning::derive_bounds;
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{SolveOptions, SolveOutcome, Solver};
use crate::view::{neighbourhood_pass, CandidateView, ViewState};
use crate::PbResult;

/// Pure greedy construction: density-ordered packing followed by a
/// feasibility-repair pass of add/drop moves (no replacement neighbourhood).
/// The cheapest strategy — and the anytime baseline the paper's interface
/// layer wants when a user asks for *a* package right now.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::Greedy
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // An already-expired budget skips the linearization with the start.
        let objective = if view.candidate_count() > 0 && !opts.budget.expired() {
            objective_coeffs(view)
        } else {
            None
        };
        self.solve_linearized(view, opts, objective.as_deref())
    }
}

impl GreedySolver {
    /// [`Solver::solve`] given the objective's linearized per-candidate
    /// coefficients (`None` when it has none: the start is then random).
    /// The sketch family linearizes its objective once per solve and hands
    /// the coefficients down instead of reading the objective's columns a
    /// second time.
    pub(crate) fn solve_linearized(
        &self,
        view: &CandidateView,
        opts: &SolveOptions,
        objective: Option<&[f64]>,
    ) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps
        // solve_time_ms on the outcome; deadline decisions all go through
        // the budget.
        let start = std::time::Instant::now();
        let budget = &opts.budget;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut evaluations = 0u64;
        let mut moves = 0u64;
        let mut packages = Vec::new();

        // An already-expired budget skips even the starting package: the
        // density scan reads every candidate's terms (through the buffer
        // pool when the view is paged), which expiry must not pay for.
        if view.candidate_count() > 0 && !budget.expired() {
            let heuristic = objective.map_or(StartHeuristic::Random, StartHeuristic::Greedy);
            let greedy = starting_package(view, heuristic, &mut rng);
            let mut state = view.project(&greedy).ok_or_else(|| {
                PbError::Internal(
                    "greedy starting package contains tuples outside the candidate set".into(),
                )
            })?;
            // Shared repair pass (also the sketch→refine fallback): on budget
            // expiry the best-so-far state is returned (optimal is false
            // regardless).
            let (evals, repair_moves) = repair_to_feasibility(&mut state, budget, opts.par);
            evaluations += evals;
            moves += repair_moves;
            if state.is_feasible() {
                let objective = state.objective_value();
                packages.push((state.to_package(), objective));
            }
        }

        Ok(SolveOutcome {
            packages,
            optimal: false,
            stats: EvalStats {
                strategy: StrategyUsed::Greedy,
                candidates: view.candidate_count(),
                nodes: moves,
                iterations: evaluations,
                cold_solves: 0,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// How to pick the tuples of a starting package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StartHeuristic<'a> {
    /// Highest objective coefficient first (density-ordered greedy), by the
    /// per-candidate coefficients of the linearized objective
    /// ([`objective_coeffs`]), ties to the lower candidate index. One pass
    /// over the coefficients keeps only the entries the start places (the
    /// starting cardinality, at most `n`) in a bounded heap, so the start
    /// costs one comparison per candidate, not a sort or a selection over
    /// an index vector. The caller linearizes, so a solve that already
    /// holds the coefficients does not read the objective's columns twice;
    /// without them (no objective, or one that does not linearize) it
    /// starts [`StartHeuristic::Random`].
    Greedy(&'a [f64]),
    /// Uniformly random candidates ("which can be constructed, for example,
    /// at random" — Section 4.2).
    Random,
}

/// The objective's per-candidate coefficients when it linearizes: what
/// [`StartHeuristic::Greedy`] orders by.
pub fn objective_coeffs(view: &CandidateView) -> Option<Vec<f64>> {
    linearize(view).write_objective(view).ok().flatten()
}

/// Builds a starting package of a plausible cardinality: the lower
/// cardinality bound when one is known (the smallest package that could
/// possibly be feasible), otherwise a small constant.
pub fn starting_package(
    view: &CandidateView,
    heuristic: StartHeuristic,
    rng: &mut StdRng,
) -> Package {
    let n = view.candidate_count();
    if n == 0 {
        return Package::new();
    }
    let bounds = derive_bounds(view).clamp_to(n as u64 * view.max_multiplicity() as u64);
    let target = starting_cardinality(view, bounds.lower, bounds.upper);

    // Order candidates by the chosen heuristic. Only the first
    // `min(target, n)` positions are ever placed, so the density order keeps
    // just that prefix.
    let order = match heuristic {
        StartHeuristic::Random => {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            order
        }
        StartHeuristic::Greedy(coeffs) => {
            let maximize = matches!(view.direction(), paql::ObjectiveDirection::Maximize);
            density_top(coeffs, maximize, target)
        }
    };

    // The first round adds each tuple once; later rounds add repetitions
    // (only reachable for REPEAT queries, where `target` can exceed `n`).
    let mut package = Package::new();
    let mut placed = 0u64;
    'outer: for _ in 0..view.max_multiplicity() {
        for &i in &order {
            if placed >= target {
                break 'outer;
            }
            if package.multiplicity(view.candidates()[i]) < view.max_multiplicity() {
                package.add(view.candidates()[i], 1);
                placed += 1;
            }
        }
    }
    package
}

/// The best `min(target, n)` candidate indices by objective coefficient,
/// best first, ties to the lower index — exactly the prefix a stable full
/// sort by coefficient would produce — from one pass over `coeffs`.
///
/// A bounded max-heap holds the `(key, index)` pairs kept so far, the worst
/// on top. The indices arrive ascending, so a candidate whose key only ties
/// the worst one kept ranks after it: one comparison rejects it. Keys are
/// the coefficients in `total_cmp` order, negated when maximizing (a sign
/// flip mirrors that order exactly, NaN and signed zeros included).
fn density_top(coeffs: &[f64], maximize: bool, target: u64) -> Vec<usize> {
    let keep = target.min(coeffs.len() as u64) as usize;
    let key = |c: f64| total_order_key(if maximize { -c } else { c });
    let mut kept: BinaryHeap<(i64, usize)> = BinaryHeap::with_capacity(keep);
    let mut coeffs = coeffs.iter().enumerate();
    for (idx, &c) in coeffs.by_ref().take(keep) {
        kept.push((key(c), idx));
    }
    let Some(&(mut bar, _)) = kept.peek() else {
        return Vec::new();
    };
    for (idx, &c) in coeffs {
        let key = key(c);
        if key < bar {
            if let Some(mut worst) = kept.peek_mut() {
                *worst = (key, idx);
            }
            bar = kept.peek().map_or(key, |worst| worst.0);
        }
    }
    kept.into_sorted_vec()
        .into_iter()
        .map(|(_, idx)| idx)
        .collect()
}

/// An integer whose order is [`f64::total_cmp`]'s order of `x`.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Feasibility-repair pass: accept single add/drop moves while they strictly
/// reduce the violation. Each pass is one [`neighbourhood_pass`] from the
/// state itself, drops included, ranked by violation alone (a violation-only
/// scan: the objective's terms are never read): every add is scored a chunk
/// at a time by the [`crate::view::MoveScan`] kernel, every drop through the
/// point path, and a chunk whose resident metadata proves that none of its
/// non-member adds can win is not scored and pins no page. The pass picks
/// the same move at every thread count and storage mode. A pass that
/// observes budget expiry leaves the state at its best-so-far.
/// Returns `(evaluations, moves)` for the caller's stats; `evaluations`
/// counts every move considered, whether scored or ruled out by a chunk's
/// bound.
pub(crate) fn repair_to_feasibility(
    state: &mut ViewState<'_>,
    budget: &Budget,
    par: ParExec,
) -> (u64, u64) {
    let mut evaluations = 0u64;
    let mut moves = 0u64;
    let mut violation = state.violation();
    while violation > 0.0 && !budget.expired() {
        let scan = state.move_scan(vec![vec![]], false);
        let pass = neighbourhood_pass(&scan, true, (violation, None), budget, par);
        evaluations += pass.evaluations;
        match pass.best {
            Some(((v, _), changes)) if !pass.expired => {
                for (idx, delta) in changes {
                    state.apply(idx, delta);
                }
                violation = v;
                moves += 1;
            }
            // Expired, or stuck — the repair gives up, feasible or not.
            _ => break,
        }
    }
    (evaluations, moves)
}

fn starting_cardinality(view: &CandidateView, lower: u64, upper: Option<u64>) -> u64 {
    let capacity = view.candidate_count() as u64 * view.max_multiplicity() as u64;
    let fallback = 3u64.min(capacity);
    let target = if lower > 0 {
        lower
    } else {
        match upper {
            Some(u) if u < fallback => u,
            _ => fallback,
        }
    };
    target.min(capacity)
}

/// Generates a random cardinality inside the pruning bounds, used by restart
/// rounds so different restarts explore different package sizes.
pub fn random_cardinality(view: &CandidateView, rng: &mut StdRng) -> u64 {
    let capacity = (view.candidate_count() as u64 * view.max_multiplicity() as u64).max(1);
    let bounds = derive_bounds(view).clamp_to(capacity);
    let lo = bounds.lower.max(1).min(capacity);
    let hi = bounds.upper.unwrap_or(lo + 4).clamp(lo, capacity);
    rng.random_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::{ColumnPolicy, SpillStore};
    use crate::par::{chunk_count, CHUNK_WIDTH};
    use crate::spec::tests::{respill, spec_for};
    use crate::spec::{BuildCtx, PackageSpec};
    use crate::view::{ChunkMeta, MIN_GAIN};
    use datagen::{recipes, scenarios, Seed};
    use rand::SeedableRng;
    use std::sync::Arc;

    /// What one full scan of the add/drop neighbourhood found.
    #[derive(Debug, PartialEq)]
    struct RepairPass {
        /// Moves considered, scored or ruled out by a chunk's bound.
        evaluations: u64,
        /// `(violation, index, delta)` of the first move that beats the
        /// current violation by the most, if any does.
        best: Option<(f64, usize, i64)>,
        /// Some chunk observed budget expiry and skipped its scan.
        expired: bool,
    }

    /// One pass of [`repair_to_feasibility`], as [`RepairPass`].
    fn repair_pass(
        state: &ViewState<'_>,
        violation: f64,
        budget: &Budget,
        par: ParExec,
    ) -> RepairPass {
        let scan = state.move_scan(vec![vec![]], false);
        let pass = neighbourhood_pass(&scan, true, (violation, None), budget, par);
        RepairPass {
            evaluations: pass.evaluations,
            best: pass.best.map(|((v, _), changes)| match changes[..] {
                [(idx, delta)] => (v, idx, delta),
                _ => unreachable!("a repair move is one change"),
            }),
            expired: pass.expired,
        }
    }

    /// The start the greedy solver makes: density-ordered by the view's
    /// own linearized objective, random without one.
    fn greedy_start(view: &CandidateView, rng: &mut StdRng) -> Package {
        let coeffs = objective_coeffs(view);
        let heuristic = coeffs
            .as_deref()
            .map_or(StartHeuristic::Random, StartHeuristic::Greedy);
        starting_package(view, heuristic, rng)
    }

    #[test]
    fn greedy_start_prefers_high_objective_tuples() {
        let t = recipes(100, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)",
        );
        let mut rng = StdRng::seed_from_u64(1);
        let p = greedy_start(spec.view(), &mut rng);
        assert_eq!(p.cardinality(), 3);
        // The greedy start should contain the single highest-protein recipe.
        let best = spec
            .candidates
            .iter()
            .max_by(|a, b| {
                t.value_f64(**a, "protein")
                    .unwrap()
                    .total_cmp(&t.value_f64(**b, "protein").unwrap())
            })
            .copied()
            .unwrap();
        assert!(p.multiplicity(best) >= 1, "{}", p.render(&t));
    }

    #[test]
    fn random_start_respects_cardinality_and_multiplicity() {
        let t = recipes(60, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 5 AND SUM(P.calories) <= 4000",
        );
        let mut rng = StdRng::seed_from_u64(7);
        let p = starting_package(spec.view(), StartHeuristic::Random, &mut rng);
        assert_eq!(p.cardinality(), 5);
        assert!(p.max_multiplicity() <= 1);
    }

    #[test]
    fn repeat_queries_can_exceed_distinct_candidates() {
        let t = recipes(2, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 3 SUCH THAT COUNT(*) = 5",
        );
        let mut rng = StdRng::seed_from_u64(3);
        let p = greedy_start(spec.view(), &mut rng);
        assert_eq!(p.cardinality(), 5);
        assert!(p.max_multiplicity() <= 3);
    }

    #[test]
    fn empty_candidate_set_yields_empty_package() {
        let t = recipes(20, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 3",
        );
        let mut rng = StdRng::seed_from_u64(4);
        assert!(greedy_start(spec.view(), &mut rng).is_empty());
    }

    #[test]
    fn random_cardinality_stays_in_bounds() {
        let t = recipes(50, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 2 AND COUNT(*) <= 6",
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = random_cardinality(spec.view(), &mut rng);
            assert!((2..=6).contains(&c), "cardinality {c} out of bounds");
        }
    }

    #[test]
    fn the_streaming_density_start_equals_the_stable_full_sort() {
        // NaN of both signs and two payloads, infinities, signed zeros,
        // subnormals and heavy ties (a few distinct values over 400
        // entries): the kept prefix must be the stable sort's, ties to the
        // lower index, in both directions, for targets from 0 to past `n`
        // (a REPEAT target), on empty, single and 400-entry columns.
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            7.5,
            7.5,
            7.5,
            -3.0,
            -3.0,
        ];
        let heavy: Vec<f64> = (0..400u32)
            .map(|i| values[(i.wrapping_mul(2_654_435_761) >> 7) as usize % values.len()])
            .collect();
        for coeffs in [&heavy[..0], &heavy[..1], &heavy[..]] {
            let n = coeffs.len() as u64;
            for maximize in [true, false] {
                let mut full: Vec<usize> = (0..coeffs.len()).collect();
                full.sort_by(|&a, &b| {
                    if maximize {
                        coeffs[b].total_cmp(&coeffs[a])
                    } else {
                        coeffs[a].total_cmp(&coeffs[b])
                    }
                });
                for target in [0, 1, 2, n.saturating_sub(1), n, n + 5] {
                    let keep = target.min(n) as usize;
                    assert_eq!(
                        density_top(coeffs, maximize, target),
                        full[..keep],
                        "n={n} maximize={maximize} target={target}"
                    );
                }
            }
        }
    }

    fn requests(store: &SpillStore) -> u64 {
        let (hits, misses, _) = store.counters();
        hits + misses
    }

    const PAGED_MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 4 AND SUM(P.calories) BETWEEN 2000 AND 2500 AND SUM(P.fat) <= 90 \
        MAXIMIZE SUM(P.protein)";

    #[test]
    fn a_repair_pass_never_reads_the_objective_term() {
        let t = recipes(10_000, Seed(11));
        let spec = spec_for(&t, PAGED_MEAL_QUERY);
        let objective_term = spec.view().terms().len() - 1;
        assert_eq!(
            spec.view().term_keys()[objective_term].arg,
            spec.objective.as_ref().and_then(|o| match &o.expr {
                paql::GlobalExpr::Agg(call) => call.arg.clone(),
                _ => None,
            }),
            "terms are interned formula first, so the objective's own term is last"
        );
        let store = SpillStore::create(4).unwrap();
        let mut stores = vec![None; spec.view().terms().len()];
        stores[objective_term] = Some(Arc::clone(&store));
        let view = respill(&spec, &stores);

        let mut rng = StdRng::seed_from_u64(1);
        let start = greedy_start(&view, &mut rng);
        let state = view.project(&start).unwrap();
        let violation = state.violation();
        assert!(violation > 0.0, "the greedy start must need repair");
        let before = requests(&store);
        let pass = repair_pass(&state, violation, &Budget::unlimited(), ParExec::new(2));
        assert!(pass.best.is_some() && !pass.expired);
        assert_eq!(
            pass.evaluations, 10_000,
            "one add per non-member, one drop per member"
        );
        assert_eq!(
            requests(&store),
            before,
            "a violation-only scan must not request the objective term's pages"
        );
    }

    #[test]
    fn a_repair_pass_pins_each_referenced_term_once_per_chunk() {
        let t = recipes(10_000, Seed(12));
        let spec = spec_for(&t, PAGED_MEAL_QUERY);
        let terms = spec.view().terms().len();
        let store = SpillStore::create(4).unwrap();
        let view = respill(&spec, &vec![Some(Arc::clone(&store)); terms]);

        let mut rng = StdRng::seed_from_u64(2);
        let start = greedy_start(&view, &mut rng);
        let state = view.project(&start).unwrap();
        let members = state.member_indices().count() as u64;
        let violation = state.violation();
        assert!(violation > 0.0);
        let before = requests(&store);
        let pass = repair_pass(
            &state,
            violation,
            &Budget::unlimited(),
            ParExec::sequential(),
        );
        assert!(pass.best.is_some());
        let used = requests(&store) - before;
        // Three of the four terms are referenced by the formula; each is
        // pinned once per chunk. Members add point lookups on top: one drop
        // and one patched add each, one element pin per term reference (the
        // formula has four).
        let chunks = chunk_count(view.candidate_count()) as u64;
        let budget = chunks * 3 + members * 2 * 4;
        assert!(
            used <= budget,
            "{used} pool requests for one pass; budget {budget} ({chunks} chunks, {members} members)"
        );
        assert!(used >= chunks * 3, "every referenced chunk is read");
    }

    /// The repair pass without chunk bounds — every chunk scanned, every
    /// add scored by the kernel — kept as the oracle the bounded pass must
    /// equal move for move.
    fn unbounded_repair_pass(
        state: &ViewState<'_>,
        violation: f64,
        budget: &Budget,
        par: ParExec,
    ) -> RepairPass {
        let view = state.view();
        let max_mult = view.max_multiplicity();
        let scan = state.move_scan(vec![vec![]], false);
        let chunk_bests = par.run_chunks(view.candidate_count(), |c, range| {
            if budget.expired() {
                return None;
            }
            let mut chunk = scan.chunk(c);
            let adds = chunk.score(0).violations();
            let mut evals = 0u64;
            let mut best: Option<(f64, usize, i64)> = None;
            let mut bar = violation;
            let mut consider = |v: f64, idx: usize, delta: i64| {
                if v + MIN_GAIN < bar {
                    bar = v;
                    best = Some((v, idx, delta));
                }
            };
            for (run, member) in state.member_runs(range.clone()) {
                if max_mult > 0 {
                    evals += run.len() as u64;
                    for idx in run {
                        consider(adds[idx - range.start], idx, 1);
                    }
                }
                if let Some((member, mult)) = member {
                    if mult < max_mult {
                        evals += 1;
                        consider(adds[member - range.start], member, 1);
                    }
                    evals += 1;
                    consider(state.violation_with(&[(member, -1)]), member, -1);
                }
            }
            Some((evals, best))
        });
        let mut pass = RepairPass {
            evaluations: 0,
            best: None,
            expired: false,
        };
        let mut bar = violation;
        for chunk in chunk_bests {
            let Some((evals, best)) = chunk else {
                pass.expired = true;
                break;
            };
            pass.evaluations += evals;
            if let Some((v, _, _)) = best {
                if v + MIN_GAIN < bar {
                    bar = v;
                    pass.best = best;
                }
            }
        }
        pass
    }

    type PassFn = fn(&ViewState<'_>, f64, &Budget, ParExec) -> RepairPass;

    /// One pass as bits: evaluations, the move and its violation's bits,
    /// expiry.
    type PassBits = (u64, Option<(u64, usize, i64)>, bool);

    /// How many passes of a repair [`trajectory`] follows: enough to cross
    /// from the add phase into drops on every registry query, few enough
    /// that the 1 000-member `bulk` query stays cheap in debug builds.
    const MAX_PASSES: usize = 24;

    /// The first [`MAX_PASSES`] passes of the repair from `start`, as
    /// [`repair_to_feasibility`] runs them, through `pass`; `skippable`
    /// counts the chunks whose floor rules out their non-member adds.
    fn trajectory(
        view: &CandidateView,
        start: &Package,
        par: ParExec,
        pass: PassFn,
        skippable: &mut usize,
    ) -> Vec<PassBits> {
        let mut state = view.project(start).unwrap();
        let mut violation = state.violation();
        let mut passes = Vec::new();
        while violation > 0.0 && passes.len() < MAX_PASSES {
            let scan = state.move_scan(vec![vec![]], false);
            *skippable += (0..chunk_count(view.candidate_count()))
                .filter(|&c| {
                    scan.violation_floor(0, c)
                        .is_some_and(|f| f + MIN_GAIN >= violation)
                })
                .count();
            let p = pass(&state, violation, &Budget::unlimited(), par);
            passes.push((
                p.evaluations,
                p.best.map(|(v, idx, delta)| (v.to_bits(), idx, delta)),
                p.expired,
            ));
            match p.best {
                Some((v, idx, delta)) => {
                    state.apply(idx, delta);
                    violation = v;
                }
                None => break,
            }
        }
        passes
    }

    #[test]
    fn bounded_repair_passes_equal_unbounded_ones_on_every_registry_query() {
        // Every gauntlet query of every family over two chunks, from the
        // greedy start and from an overfull one (a drop phase, where bounds
        // rule chunks out), resident and through a 2-frame pool, at 1, 2 and
        // 4 threads: every pass's evaluations, move and violation bits equal
        // the unbounded oracle's.
        let n = CHUNK_WIDTH + 300;
        let mut skippable = 0;
        for scenario in scenarios() {
            let table = (scenario.build)(n, Seed(17));
            for query in &scenario.queries {
                let analyzed = paql::compile(&query.text, table.schema()).unwrap();
                for policy in [ColumnPolicy::resident(), ColumnPolicy::paged(2)] {
                    let ctx = BuildCtx {
                        par: ParExec::sequential(),
                        policy,
                        cache: None,
                    };
                    let spec = PackageSpec::build(&analyzed, &table, &ctx).unwrap();
                    let view = spec.view();
                    let mut rng = StdRng::seed_from_u64(3);
                    let overfull = Package::from_ids(
                        (0..12).map(|k| view.candidates()[(k * 997 + 5) % view.candidate_count()]),
                    );
                    for start in [greedy_start(view, &mut rng), overfull] {
                        let context = format!("{} ({})", scenario.name, query.text);
                        let mut ignored = 0;
                        let oracle = trajectory(
                            view,
                            &start,
                            ParExec::sequential(),
                            unbounded_repair_pass,
                            &mut ignored,
                        );
                        for threads in [1, 2, 4] {
                            let par = ParExec::new(threads);
                            let counter = if threads == 1 {
                                &mut skippable
                            } else {
                                &mut ignored
                            };
                            let got = trajectory(view, &start, par, repair_pass, counter);
                            assert_eq!(got, oracle, "{context} at {threads} threads");
                        }
                    }
                }
            }
        }
        assert!(skippable > 100, "only {skippable} chunks were ruled out");
    }

    #[test]
    fn a_drop_phase_pass_requests_no_chunk_page_of_the_formula_terms() {
        // Eight of the highest-calorie recipes: COUNT(*) is four over and
        // both SUMs are above their upper bounds, so no add can lower the
        // violation and every chunk's bound says so. The pass may only
        // request the pages its members' point lookups (one drop each; no
        // add is legal at REPEAT 1) request.
        let t = recipes(10_000, Seed(13));
        let spec = spec_for(&t, PAGED_MEAL_QUERY);
        let formula_terms = spec.view().terms().len() - 1;
        let store = SpillStore::create(4).unwrap();
        let mut stores = vec![Some(Arc::clone(&store)); formula_terms];
        stores.push(None);
        let view = respill(&spec, &stores);

        let mut by_calories: Vec<usize> = (0..view.candidate_count()).collect();
        let calories = view.terms()[1].coeffs_vec();
        by_calories.sort_by(|&a, &b| calories[b].total_cmp(&calories[a]));
        let ids = by_calories[..8].iter().map(|&i| view.candidates()[i]);
        let state = view.project(&Package::from_ids(ids)).unwrap();
        let violation = state.violation();
        let scan = state.move_scan(vec![vec![]], false);
        let chunks = chunk_count(view.candidate_count());
        assert!(
            (0..chunks).all(|c| scan.violation_floor(0, c).unwrap() + MIN_GAIN >= violation),
            "every chunk is ruled out"
        );

        let before = requests(&store);
        let pass = repair_pass(&state, violation, &Budget::unlimited(), ParExec::new(2));
        let used = requests(&store) - before;
        assert_eq!(
            pass.evaluations, 10_000,
            "one add per non-member, one drop per member"
        );
        assert!(
            matches!(pass.best, Some((_, _, -1))),
            "the best move is a drop"
        );

        let before = requests(&store);
        for m in state.member_indices() {
            state.violation_with(&[(m, -1)]);
        }
        let point = requests(&store) - before;
        assert_eq!(
            used, point,
            "only the members' point lookups reach the pool"
        );

        let before = requests(&store);
        let oracle =
            unbounded_repair_pass(&state, violation, &Budget::unlimited(), ParExec::new(2));
        assert_eq!(oracle, pass);
        let unbounded = requests(&store) - before;
        // A COUNT chunk that includes every lane is served without a page.
        let paged_chunks: u64 = view.terms()[..formula_terms]
            .iter()
            .map(|term| {
                let page_free = |m: &&ChunkMeta| {
                    term.func == paql::AggFunc::Count && m.included as usize == CHUNK_WIDTH
                };
                term.chunk_meta().iter().filter(|m| !page_free(m)).count() as u64
            })
            .sum();
        assert!(
            unbounded >= point + paged_chunks,
            "the unbounded pass pins every paged chunk of the formula terms ({unbounded} requests)"
        );
    }
}
