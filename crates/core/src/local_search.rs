//! Heuristic local search (paper Section 4.2).
//!
//! "Given a starting package P0 (which can be constructed, for example, at
//! random), PackageBuilder identifies all possible k-tuple replacements that
//! can lead to a valid package, by using a single SQL query." The search
//! below implements that neighbourhood at `k = 1`, the paper's efficient
//! regime (larger `k` needs a 2k-way join and "quickly becomes
//! intractable"): a move removes one member and inserts one candidate tuple.
//! The paper's SQL query — a selection over the Cartesian product of the
//! package and the candidates — is the search's swap scan: every
//! `(outgoing member, incoming candidate)` pair, scored as a delta.
//!
//! Moves are accepted when they lexicographically improve
//! `(constraint violation, objective)`, so the search first repairs
//! feasibility and then climbs the objective. As the paper notes, the method
//! is a heuristic: "there is no guarantee that all valid solutions will be
//! found".
//!
//! Since the columnar refactor the search walks a [`ViewState`]: moves are
//! scored as deltas over the view's precomputed term columns instead of
//! cloning the package and re-aggregating every member. The two full
//! neighbourhood scans (swaps, then adds) are each one
//! `view::neighbourhood_pass`, the pass greedy repair runs too: it scores a
//! whole column chunk per pin through [`crate::view::MoveScan`] and does not
//! score a chunk whose resident metadata proves that none of its moves can
//! beat the running best. The `O(|P|)`-sized drop scan uses the point
//! lookup [`ViewState::score_with`]. Both produce bit-identical scores.
//!
//! [`LocalSearchSolver`] is the strategy's one entry point, the [`Solver`]
//! impl. It reads its settings from [`SolveOptions`] — `max_local_moves`
//! accepted moves per restart, `local_restarts` restarts, `seed`,
//! [`SolveOptions::keep`] packages, the budget and `par` — keeps feasible
//! packages under the one rank `solver::keep_ranked`, and counts
//! accepted moves in [`EvalStats::nodes`] and the moves it considered,
//! whether scored or ruled out by a chunk's bound, in
//! [`EvalStats::iterations`]. The accepted-move trajectory is bit-identical
//! at every thread count.

use paql::ObjectiveDirection;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::Budget;
use crate::error::PbError;
use crate::greedy::{objective_coeffs, random_cardinality, starting_package, StartHeuristic};
use crate::package::Package;
use crate::par::ParExec;
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{keep_ranked, SolveOptions, SolveOutcome, Solver};
use crate::view::{lex_better, neighbourhood_pass, CandidateView, Score, ViewState};
use crate::PbResult;

/// Greedy construction + k-replacement local search (paper Section 4.2; see
/// the module docs). The first restart starts from the greedy package, the
/// rest from random ones. Never optimal.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::LocalSearch
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps the
        // outcome's elapsed time; deadline decisions all go through the budget.
        let start = std::time::Instant::now();
        let budget = &opts.budget;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut best: Vec<(Package, Option<f64>)> = Vec::new();
        let mut moves = 0u64;
        let mut evaluations = 0u64;

        let direction = view.direction();
        let record = |state: &ViewState<'_>, s: Score, best: &mut Vec<_>| {
            if s.0 > 0.0 || !state.is_feasible() {
                return;
            }
            keep_ranked(best, opts.keep(), direction, s.1, || state.to_package());
        };

        for restart in 0..opts.local_restarts.max(1) {
            if view.candidate_count() == 0 || budget.expired() {
                break;
            }
            let start_package = if restart == 0 {
                let coeffs = objective_coeffs(view);
                let heuristic = coeffs
                    .as_deref()
                    .map_or(StartHeuristic::Random, StartHeuristic::Greedy);
                starting_package(view, heuristic, &mut rng)
            } else {
                let target = random_cardinality(view, &mut rng);
                let mut p = starting_package(view, StartHeuristic::Random, &mut rng);
                // Resize the random start towards the sampled cardinality.
                resize_to(view, &mut p, target, &mut rng);
                p
            };
            let mut state = view.project(&start_package).ok_or_else(|| {
                PbError::Internal(
                    "local-search starting package contains tuples outside the candidate set"
                        .into(),
                )
            })?;
            let mut current_score = state.score();
            record(&state, current_score, &mut best);

            for _ in 0..opts.max_local_moves {
                if budget.expired() {
                    break;
                }
                let (neighbour, neighbour_score, evals) =
                    best_neighbour(&state, current_score, direction, budget, opts.par);
                evaluations += evals;
                match neighbour {
                    Some(changes) if lex_better(neighbour_score, current_score, direction) => {
                        for &(idx, delta) in &changes {
                            state.apply(idx, delta);
                        }
                        current_score = state.score();
                        moves += 1;
                        record(&state, current_score, &mut best);
                    }
                    _ => break, // local optimum
                }
            }
        }

        Ok(SolveOutcome {
            packages: best,
            optimal: false,
            stats: EvalStats {
                strategy: StrategyUsed::LocalSearch,
                candidates: view.candidate_count(),
                nodes: moves,
                iterations: evaluations,
                cold_solves: 0,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// A candidate move: multiplicity deltas over candidate indices.
type Move = Vec<(usize, i64)>;

/// Finds the best move in the single-replacement neighbourhood (plus add
/// and drop moves when the cardinality may change). The two full scans —
/// every (outgoing member × incoming candidate) swap, then every add — are
/// each one [`neighbourhood_pass`] from the best score so far, ranked by
/// violation and then objective ([`lex_better`]), so the selected move is
/// the same at every thread count and storage mode. An expired scan returns
/// the best move seen so far. Drops are an `O(|P|)`-sized set scored after
/// both scans, in member order, through the point path. Returns the best
/// move, its score and how many neighbours were evaluated, whether scored or
/// ruled out by a chunk's bound.
fn best_neighbour(
    state: &ViewState<'_>,
    current_score: Score,
    direction: ObjectiveDirection,
    budget: &Budget,
    par: ParExec,
) -> (Option<Move>, Score, u64) {
    let mut best: Option<Move> = None;
    let mut best_score = current_score;
    let mut evaluations = 0u64;

    let members: Vec<usize> = state.member_indices().collect();
    let swaps = members.iter().map(|&out| vec![(out, -1)]).collect();
    for prefixes in [swaps, vec![vec![]]] {
        if prefixes.is_empty() {
            continue;
        }
        let scan = state.move_scan(prefixes, true);
        let pass = neighbourhood_pass(&scan, false, best_score, budget, par);
        evaluations += pass.evaluations;
        if let Some((score, mv)) = pass.best {
            best_score = score;
            best = Some(mv);
        }
        if pass.expired {
            return (best, best_score, evaluations);
        }
    }

    for &out in &members {
        let changes = [(out, -1)];
        evaluations += 1;
        let s = state.score_with(&changes);
        if lex_better(s, best_score, direction) {
            best_score = s;
            best = Some(changes.to_vec());
        }
    }

    (best, best_score, evaluations)
}

fn resize_to(view: &CandidateView, p: &mut Package, target: u64, rng: &mut StdRng) {
    use rand::seq::IndexedRandom;
    while p.cardinality() > target {
        let ids = p.tuple_ids();
        if let Some(&victim) = ids.choose(rng) {
            p.remove(victim, 1);
        } else {
            break;
        }
    }
    while p.cardinality() < target {
        if let Some(&extra) = view.candidates().choose(rng) {
            if p.multiplicity(extra) < view.max_multiplicity() {
                p.add(extra, 1);
            } else if view
                .candidates()
                .iter()
                .all(|&c| p.multiplicity(c) >= view.max_multiplicity())
            {
                break;
            }
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::ColumnPolicy;
    use crate::par::{chunk_count, CHUNK_WIDTH};
    use crate::spec::tests::spec_for;
    use crate::spec::{BuildCtx, PackageSpec};
    use datagen::synthetic::synthetic_schema;
    use datagen::{recipes, scenarios, Seed};
    use minidb::{Table, Tuple, TupleId, Value};

    /// Local search at the default options but `restarts` restarts and
    /// `keep` packages.
    fn search(view: &CandidateView, restarts: usize, keep: usize) -> SolveOutcome {
        let opts = SolveOptions {
            local_restarts: restarts,
            num_packages: keep,
            ..SolveOptions::default()
        };
        LocalSearchSolver.solve(view, &opts).unwrap()
    }

    /// The swap and add scans as they were before the move engine had one
    /// pass: every chunk scored for every prefix, no bound. Kept verbatim as
    /// the oracle [`super::best_neighbour`] must equal move for move.
    mod unbounded {
        use super::*;
        use crate::view::MoveScan;

        /// A scored move.
        type Scored = ((f64, Option<f64>), Move);

        /// One column chunk's scan result.
        struct ChunkScan {
            /// Neighbour evaluations performed.
            evals: u64,
            /// Per prefix of the scan (one per outgoing member in the swap scan, a
            /// single empty one in the add scan), the chunk's best move strictly
            /// better than the incoming score bar. Shorter than the prefix list
            /// when the chunk observed budget expiry part-way.
            found: Vec<Option<Scored>>,
            /// The chunk observed budget expiry and stopped.
            expired: bool,
        }

        /// Scores every legal "prefix, then +1 at `inn`" move of chunk `c` for each
        /// prefix of `scan` through the kernel, keeping the first best per prefix.
        /// The budget is checked once per prefix — per 4096 evaluations, as
        /// everywhere.
        fn scan_chunk(
            scan: &MoveScan<'_, '_>,
            c: usize,
            bar: (f64, Option<f64>),
            direction: ObjectiveDirection,
            budget: &Budget,
        ) -> ChunkScan {
            let state = scan.state();
            let max_mult = state.view().max_multiplicity();
            let mut chunk = scan.chunk(c);
            let range = chunk.range();
            let mut result = ChunkScan {
                evals: 0,
                found: Vec::with_capacity(scan.prefixes().len()),
                expired: false,
            };
            for (p, prefix) in scan.prefixes().enumerate() {
                if budget.expired() {
                    result.expired = true;
                    break;
                }
                let scores = chunk.score(p);
                let mut best: Option<((f64, Option<f64>), usize)> = None;
                let mut consider = |inn: usize| {
                    result.evals += 1;
                    let s = scores.get(inn - range.start);
                    if lex_better(s, best.map_or(bar, |(bs, _)| bs), direction) {
                        best = Some((s, inn));
                    }
                };
                // Runs of non-members (always legal under REPEAT >= 1) separated by
                // members (legal below the REPEAT bound; swapping a member for
                // itself is not a move).
                for (run, member) in state.member_runs(range.clone()) {
                    if max_mult > 0 {
                        run.for_each(&mut consider);
                    }
                    match member {
                        Some((m, mult))
                            if mult < max_mult && prefix.iter().all(|&(i, _)| i != m) =>
                        {
                            consider(m)
                        }
                        _ => {}
                    }
                }
                result.found.push(best.map(|(s, inn)| {
                    let mut mv = prefix.to_vec();
                    mv.push((inn, 1));
                    (s, mv)
                }));
            }
            result
        }

        /// Finds the best move in the single-replacement neighbourhood (plus add
        /// and drop moves when the cardinality may change). The two full scans —
        /// every (outgoing member × incoming candidate) swap and every add — fan out
        /// over `par` by **column chunk**: chunk `c` of the executor is chunk `c` of
        /// every term column, pinned once and scored block-at-a-time by the
        /// [`MoveScan`] kernel for each outgoing member in turn. Kernel scores are
        /// bit-identical to [`ViewState::score_with`], and per-(member, chunk) local
        /// bests merge member-major, chunk-minor with strict improvement — the
        /// sequential (member, candidate) scan's "earliest occurrence of the optimum
        /// wins" tie-breaking — so the selected move is the same at every thread
        /// count and storage mode. The budget is checked per (chunk, member) step,
        /// never per element; an expired scan returns the best move seen so far.
        /// Drops are an `O(|P|)`-sized set and stay on the point path.
        /// Returns the best move, its score and how many neighbours were evaluated.
        pub(super) fn best_neighbour(
            state: &ViewState<'_>,
            current_score: (f64, Option<f64>),
            direction: ObjectiveDirection,
            budget: &Budget,
            par: ParExec,
        ) -> (Option<Move>, (f64, Option<f64>), u64) {
            let view = state.view();
            let n = view.candidate_count();
            let mut best: Option<Move> = None;
            let mut best_score = current_score;
            let mut evaluations = 0u64;

            let members: Vec<usize> = state.member_indices().collect();

            // Runs one chunked scan ("prefix, then +1 anywhere" for each prefix) and
            // folds its results into the running best, prefix-major and chunk-minor;
            // returns true when some chunk observed expiry, i.e. the caller should
            // return its best-so-far immediately.
            let scan_all = |prefixes: Vec<Vec<(usize, i64)>>,
                            best: &mut Option<Move>,
                            best_score: &mut (f64, Option<f64>),
                            evaluations: &mut u64|
             -> bool {
                let scan = state.move_scan(prefixes, true);
                let bar = *best_score;
                let mut results =
                    par.run_chunks(n, |c, _| scan_chunk(&scan, c, bar, direction, budget));
                for p in 0..scan.prefixes().len() {
                    for chunk in &mut results {
                        let Some((score, mv)) = chunk.found.get_mut(p).and_then(Option::take)
                        else {
                            continue;
                        };
                        if lex_better(score, *best_score, direction) {
                            *best_score = score;
                            *best = Some(mv);
                        }
                    }
                }
                *evaluations += results.iter().map(|chunk| chunk.evals).sum::<u64>();
                results.iter().any(|chunk| chunk.expired)
            };

            // Single-tuple replacements.
            if !members.is_empty() && n > 0 {
                let removals = members.iter().map(|&out| vec![(out, -1)]).collect();
                if scan_all(removals, &mut best, &mut best_score, &mut evaluations) {
                    return (best, best_score, evaluations);
                }
            }

            // Cardinality-changing moves: add one candidate / drop one member. These
            // help when the starting cardinality guess was off. The add scan is
            // chunked like the swaps; the drop scan is |P| evaluations and stays
            // inline.
            if scan_all(vec![vec![]], &mut best, &mut best_score, &mut evaluations) {
                return (best, best_score, evaluations);
            }
            for &out in &members {
                let changes = [(out, -1)];
                evaluations += 1;
                let s = state.score_with(&changes);
                if lex_better(s, best_score, direction) {
                    best_score = s;
                    best = Some(changes.to_vec());
                }
            }

            (best, best_score, evaluations)
        }
    }

    type NeighbourFn = fn(
        &ViewState<'_>,
        Score,
        ObjectiveDirection,
        &Budget,
        ParExec,
    ) -> (Option<Move>, Score, u64);

    /// One step as bits: evaluations, the move, its score's bits.
    type StepBits = (u64, Option<Move>, (u64, Option<u64>));

    /// How many steps of a search [`steps`] follows: enough to cross from
    /// repairing into climbing the objective on the registry queries.
    const MAX_STEPS: usize = 6;

    /// How many moves a search [`steps`] follows may consider before it
    /// stops after its current step: the 1 000-member `bulk` query's swap
    /// scans (one prefix per member) then take one step, so the suite stays
    /// cheap in debug builds.
    const MAX_EVALUATIONS: u64 = 1 << 20;

    /// The first [`MAX_STEPS`] steps of the search from `start`, as
    /// [`LocalSearchSolver`] takes them, through `neighbour`, stopping early past
    /// [`MAX_EVALUATIONS`]; `ruled_out` counts the (chunk, swap prefix)
    /// pairs the bound rules out at the step's score.
    fn steps(
        view: &CandidateView,
        start: &Package,
        par: ParExec,
        neighbour: NeighbourFn,
        ruled_out: &mut usize,
    ) -> Vec<StepBits> {
        let direction = view.direction();
        let mut state = view.project(start).unwrap();
        let mut score = state.score();
        let mut steps = Vec::new();
        let mut considered = 0;
        while steps.len() < MAX_STEPS && considered < MAX_EVALUATIONS {
            let swaps: Vec<_> = state.member_indices().map(|m| vec![(m, -1)]).collect();
            let scan = state.move_scan(swaps, true);
            for p in 0..scan.prefixes().len() {
                *ruled_out += (0..chunk_count(view.candidate_count()))
                    .filter(|&c| scan.rules_out(p, c, score))
                    .count();
            }
            let (mv, s, evaluations) =
                neighbour(&state, score, direction, &Budget::unlimited(), par);
            considered += evaluations;
            steps.push((
                evaluations,
                mv.clone(),
                (s.0.to_bits(), s.1.map(f64::to_bits)),
            ));
            match mv {
                Some(changes) if lex_better(s, score, direction) => {
                    for (idx, delta) in changes {
                        state.apply(idx, delta);
                    }
                    score = state.score();
                }
                _ => break,
            }
        }
        steps
    }

    #[test]
    fn the_shared_pass_equals_the_unbounded_scans_on_every_registry_query() {
        // Every gauntlet query of every family over two chunks, from the
        // greedy start, two random ones (as restarts make them) and an
        // overfull one, resident and through a 2-frame pool, at 1, 2 and 4
        // threads: every step's evaluations, move and score bits equal the
        // unbounded oracle's.
        let n = CHUNK_WIDTH + 300;
        let mut ruled_out = 0;
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
                    let coeffs = objective_coeffs(view);
                    let heuristic = coeffs
                        .as_deref()
                        .map_or(StartHeuristic::Random, StartHeuristic::Greedy);
                    let mut starts = vec![starting_package(view, heuristic, &mut rng)];
                    for _ in 0..2 {
                        let target = random_cardinality(view, &mut rng);
                        let mut p = starting_package(view, StartHeuristic::Random, &mut rng);
                        resize_to(view, &mut p, target, &mut rng);
                        starts.push(p);
                    }
                    // An overfull start, whose swaps cannot mend the count:
                    // where the bound rules chunks out.
                    starts.push(Package::from_ids(
                        (0..12).map(|k| view.candidates()[(k * 997 + 5) % view.candidate_count()]),
                    ));
                    for start in &starts {
                        let context = format!("{} ({})", scenario.name, query.text);
                        let mut ignored = 0;
                        let sequential = ParExec::sequential();
                        let oracle = steps(
                            view,
                            start,
                            sequential,
                            unbounded::best_neighbour,
                            &mut ignored,
                        );
                        for threads in [1, 2, 4] {
                            let counter = if threads == 1 {
                                &mut ruled_out
                            } else {
                                &mut ignored
                            };
                            let par = ParExec::new(threads);
                            let got = steps(view, start, par, best_neighbour, counter);
                            assert_eq!(got, oracle, "{context} at {threads} threads");
                        }
                    }
                }
            }
        }
        assert!(
            ruled_out > 100,
            "only {ruled_out} (chunk, swap) pairs were ruled out"
        );
    }

    /// 31 rows `(i, w = 1 + i % 10, v = (i·37) % 31)`, then row 31 with
    /// weight `w` and value `v`.
    fn table_with_row_31(w: f64, v: f64) -> Table {
        let mut table = Table::new("t", synthetic_schema());
        let row = |i: i64, w: f64, v: f64| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Float(w),
                Value::Float(v),
                Value::Float(0.5),
            ])
        };
        for i in 0..31 {
            let v = ((i * 37) % 31) as f64;
            table.insert(row(i, (1 + i % 10) as f64, v)).unwrap();
        }
        table.insert(row(31, w, v)).unwrap();
        table
    }

    #[test]
    fn a_nan_weight_does_not_hide_the_feasible_packages() {
        // 31 rows with integral weights 1..=10 and one more whose weight is
        // NaN and whose value is the largest. A sum over that row is NaN, so
        // a move onto it must score as violated: as a tie (`=`) or as
        // satisfied (`BETWEEN`) the objective pulls every random restart
        // onto it, and no move leaves it again. (The greedy start, restart
        // 0, holds the row from the outset, and a delta cannot take a NaN
        // back out of a running sum, so only the random restarts count.)
        let table = table_with_row_31(f64::NAN, 100.0);
        for window in ["= 12", "BETWEEN 12 AND 12"] {
            let text = format!(
                "SELECT PACKAGE(R) AS P FROM t R \
                 SUCH THAT COUNT(*) = 3 AND SUM(P.w) {window} MAXIMIZE SUM(P.v)"
            );
            let spec = spec_for(&table, &text);
            let view = spec.view();
            // Every triple, through the interpreted oracle.
            let ids = view.candidates();
            let mut optimum: Option<f64> = None;
            for a in 0..ids.len() {
                for b in a + 1..ids.len() {
                    for c in b + 1..ids.len() {
                        let p = Package::from_ids([ids[a], ids[b], ids[c]]);
                        if spec.is_valid_interpreted(&p).unwrap() {
                            let v = view.project(&p).unwrap().objective_value().unwrap();
                            optimum = Some(optimum.map_or(v, |o: f64| o.max(v)));
                        }
                    }
                }
            }
            let optimum = optimum.expect("a feasible triple exists");
            for restarts in [2, 8] {
                let out = search(view, restarts, 1);
                let Some((p, objective)) = out.packages.first() else {
                    panic!("{window}, {restarts} restarts: no package (optimum {optimum})");
                };
                assert!(spec.is_valid_interpreted(p).unwrap(), "{window}: {p}");
                assert!(
                    objective.unwrap() <= optimum,
                    "{window}: {objective:?} > {optimum}"
                );
            }
        }
    }

    #[test]
    fn a_nan_objective_ranks_last_among_the_kept_packages() {
        // Row 31 weighs 1 and is worth NaN, so every package holding it is
        // feasible and NaN-valued: kept, it must rank behind every package
        // with a value, as enumeration ranks it, not ahead of them.
        let table = table_with_row_31(1.0, f64::NAN);
        let spec = spec_for(
            &table,
            "SELECT PACKAGE(R) AS P FROM t R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.w) <= 30 MAXIMIZE SUM(P.v)",
        );
        for keep in [1, 3] {
            let out = search(spec.view(), 8, keep);
            let objectives: Vec<f64> = out.packages.iter().map(|(_, o)| o.unwrap()).collect();
            assert_eq!(objectives.len(), keep, "keep {keep}: {objectives:?}");
            assert!(
                objectives.iter().all(|o| !o.is_nan()),
                "keep {keep}: {objectives:?}"
            );
            assert_eq!(objectives[0], 87.0, "keep {keep}: {objectives:?}");
        }
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn finds_a_feasible_meal_plan() {
        let t = recipes(300, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = search(spec.view(), 8, 1);
        assert!(
            !out.packages.is_empty(),
            "local search found no feasible package"
        );
        let (p, obj) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
        assert_eq!(p.cardinality(), 3);
        assert!(obj.unwrap() > 0.0);
        assert!(out.stats.nodes > 0 || out.stats.iterations > 0);
    }

    #[test]
    fn quality_is_close_to_the_ilp_optimum() {
        let t = recipes(200, Seed(2));
        let spec = spec_for(&t, MEAL_QUERY);
        let exact = crate::ilp::IlpSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        let heuristic = search(spec.view(), 6, 1);
        let opt = exact.packages[0].1.unwrap();
        let found = heuristic.packages[0].1.unwrap();
        assert!(found <= opt + 1e-6, "heuristic cannot beat the optimum");
        assert!(
            found >= 0.75 * opt,
            "local search quality too low: {found} vs optimal {opt}"
        );
    }

    #[test]
    fn handles_minimization_objectives() {
        let t = recipes(150, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.protein) >= 60 MINIMIZE SUM(P.price)",
        );
        let out = search(spec.view(), 8, 1);
        assert!(!out.packages.is_empty());
        let (p, _) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
    }

    #[test]
    fn infeasible_specs_return_empty() {
        let t = recipes(50, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) >= 1000000",
        );
        let opts = SolveOptions {
            local_restarts: 2,
            max_local_moves: 200,
            ..SolveOptions::default()
        };
        let out = LocalSearchSolver.solve(spec.view(), &opts).unwrap();
        assert!(out.packages.is_empty());
    }

    #[test]
    fn keep_returns_multiple_distinct_packages() {
        let t = recipes(120, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = search(spec.view(), 10, 3);
        assert!(
            out.packages.len() >= 2,
            "expected multiple packages, got {}",
            out.packages.len()
        );
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
        for i in 0..out.packages.len() {
            for j in i + 1..out.packages.len() {
                assert_ne!(out.packages[i].0, out.packages[j].0);
            }
        }
    }

    #[test]
    fn disjunctive_formulas_are_satisfiable_by_local_search() {
        // OR formulas have no linear form, so local search is the strategy of
        // record for them (paper Section 5); it must find an easily
        // satisfiable disjunct.
        let t = recipes(150, Seed(9));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND \
                       (SUM(P.calories) <= 2500 OR COUNT(*) FILTER (WHERE R.gluten = 'free') = 3) \
             MAXIMIZE SUM(P.protein)",
        );
        let out = search(spec.view(), 8, 1);
        assert!(
            !out.packages.is_empty(),
            "local search missed a trivially satisfiable OR"
        );
        let (p, _) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
    }

    #[test]
    fn delta_evaluation_agrees_with_full_scoring() {
        // Every accepted package must score identically under a fresh
        // projection — the delta path cannot drift from ground truth.
        let t = recipes(90, Seed(8));
        let spec = spec_for(&t, MEAL_QUERY);
        let out = search(spec.view(), 4, 3);
        for (p, obj) in &out.packages {
            let fresh = spec.view().project(p).unwrap();
            assert_eq!(fresh.objective_value(), *obj);
            assert_eq!(fresh.violation(), 0.0);
        }
    }

    #[test]
    fn replacement_query_matches_the_paper_example() {
        // Reconstruct the Section 4.2 example: a package with 3,000 total
        // calories, a 2,500-calorie budget, single-tuple replacements.
        let t = recipes(80, Seed(7));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.calories) <= 2500",
        );
        // The three recipes closest to 1,000 kcal total near the paper's
        // 3,000: over budget, yet within reach of one swap.
        let cal = |id: TupleId| t.value_f64(id, "calories").unwrap();
        let mut by_cal: Vec<TupleId> = spec.candidates.clone();
        by_cal.sort_by(|&a, &b| (cal(a) - 1000.0).abs().total_cmp(&(cal(b) - 1000.0).abs()));
        let package = Package::from_ids(by_cal.iter().copied().take(3));
        let current_total: f64 = package
            .members()
            .map(|(id, m)| t.value_f64(id, "calories").unwrap() * m as f64)
            .sum();
        assert!(current_total > 2500.0);

        // The paper finds the repairs with one SQL query over P0 × R; the
        // search's swap moves are the same pairs: those scored at zero
        // violation are exactly what a double loop over package × candidates
        // keeps, in the same order.
        let view = spec.view();
        let state = view.project(&package).unwrap();
        let mut swaps = Vec::new();
        for out in state.member_indices() {
            for inn in 0..view.candidate_count() {
                if state.score_with(&[(out, -1), (inn, 1)]).0 == 0.0 {
                    swaps.push((view.candidates()[out], view.candidates()[inn]));
                }
            }
        }
        let mut brute_force = Vec::new();
        for out in package.tuple_ids() {
            for &c in &spec.candidates {
                if current_total - cal(out) + cal(c) <= 2500.0 {
                    brute_force.push((out, c));
                }
            }
        }
        assert!(!brute_force.is_empty());
        assert_eq!(swaps, brute_force);
    }
}
