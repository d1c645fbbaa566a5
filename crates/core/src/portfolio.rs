//! Portfolio racing: several solvers, one view, one deadline.
//!
//! SketchRefine-style systems get their latency guarantees by racing cheap
//! approximate solvers against exact ones; this module does the same over
//! the [`Solver`] seam. A [`PortfolioSolver`] posts one [`ParExec`] job per
//! worker strategy, all borrowing the same [`crate::view::CandidateView`]
//! and sharing one [`crate::budget::Budget`]:
//!
//! * the cheap workers (greedy, local search) produce a feasible package
//!   almost immediately — the anytime answer;
//! * the exact worker (ILP) keeps running; if it finishes inside the budget
//!   its provably-optimal result supersedes the heuristics and the race is
//!   cancelled early via the shared stop flag;
//! * at the deadline every worker returns its best-so-far result
//!   cooperatively, and the best one wins.
//!
//! Workers that cannot evaluate the query at all (e.g. the ILP translation
//! of a non-conjunctive formula) simply drop out of the race; the race only
//! fails when *every* worker fails.
//!
//! A pool job is not time-sliced the way an OS thread is: it starts when a
//! thread is free to claim it, and jobs are claimed in posting order. The
//! race therefore posts its workers **cheapest first** (greedy, local
//! search, the sketch family, the exact solvers last). With a thread per
//! worker that changes nothing; with fewer — a busy pool may lend no helper
//! at all — the race runs "floor, improve, prove" instead of letting the
//! exact worker spend the deadline before a floor exists.

use paql::ObjectiveDirection;

use crate::config::Strategy;
use crate::error::PbError;
use crate::package::Package;
use crate::par::ParExec;
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{dispatch, SolveOptions, SolveOutcome, Solver};
use crate::view::CandidateView;
use crate::PbResult;

/// Races a set of worker strategies concurrently over one candidate view.
///
/// The returned outcome carries the winning worker's packages and `optimal`
/// flag, with stats aggregated across the whole race (`nodes` / `iterations`
/// summed over every worker, strategy reported as
/// [`StrategyUsed::Portfolio`]). With a single worker the packages,
/// objectives and optimality flag are exactly the underlying solver's —
/// racing is a pure wrapper, never a result transformation.
///
/// Winner ranking is deterministic given the worker outcomes: a worker with
/// packages beats one without, a provably-optimal outcome beats a heuristic
/// one, then the better first-package objective wins, and ties keep the
/// earliest worker in the configured order.
#[derive(Debug, Clone)]
pub struct PortfolioSolver {
    workers: Vec<Strategy>,
}

impl PortfolioSolver {
    /// A portfolio racing exactly the given strategies (in order; the order
    /// only breaks ties). An empty set, `Auto` and a nested `Portfolio` are
    /// the caller's error: [`PbError::Unsupported`], naming
    /// [`crate::EngineConfig::portfolio_workers`].
    pub fn new(workers: Vec<Strategy>) -> PbResult<Self> {
        let not_a_worker = |w: &&Strategy| matches!(w, Strategy::Auto | Strategy::Portfolio);
        let why = match workers.iter().find(not_a_worker) {
            _ if workers.is_empty() => "is empty: a race needs at least one worker".into(),
            Some(w) => format!("names {w}, which is not a race worker"),
            None => return Ok(PortfolioSolver { workers }),
        };
        Err(PbError::Unsupported(format!(
            "EngineConfig::portfolio_workers {why}"
        )))
    }
}

/// Per-worker thread budgets for one race: a *weighted* split of the
/// caller's [`ParExec`] rather than a uniform one.
///
/// The heuristic workers (greedy, local search, exhaustive enumeration) are
/// inherently sequential scans — handing each of them `threads / W` cores
/// would leave those cores idle for all but the first milliseconds of the
/// race. Each heuristic gets exactly one thread, and the workers with a real
/// intra-solver fan-out (the exact ILP's parallel branch and bound,
/// sketch→refine's chunked scans) share everything that remains, earliest
/// worker first on uneven remainders (deterministic). The total never
/// exceeds the caller's grant; with no fan-out worker present, or nothing to
/// spare beyond one thread per worker, this degrades to the uniform
/// [`ParExec::split`]. Thread budgets change wall-clock only — every
/// solver's result is bit-identical at any thread count — so the re-split
/// can never change the race's winner ranking, just how fast the exact
/// worker gets there.
fn thread_split(workers: &[Strategy], par: ParExec) -> Vec<ParExec> {
    let total = par.threads();
    let wide: Vec<bool> = workers
        .iter()
        .map(|w| {
            matches!(
                w,
                Strategy::Ilp | Strategy::SketchRefine | Strategy::ProgressiveShading
            )
        })
        .collect();
    let n_wide = wide.iter().filter(|&&w| w).count();
    if n_wide == 0 || total <= workers.len() {
        return vec![par.split(workers.len()); workers.len()];
    }
    let spare = total - (workers.len() - n_wide);
    let base = spare / n_wide;
    let mut extra = spare % n_wide;
    wide.iter()
        .map(|&w| {
            if w {
                let t = base + usize::from(extra > 0);
                extra = extra.saturating_sub(1);
                ParExec::new(t)
            } else {
                ParExec::new(1)
            }
        })
        .collect()
}

/// Posting order of a worker: the greedy floor, then the search that improves
/// it, then the sketch family, the exact solvers last. Only the order jobs
/// *start* in — ties between outcomes are still ranked in configured order.
fn cost_rank(worker: Strategy) -> u8 {
    match worker {
        Strategy::Greedy => 0,
        Strategy::LocalSearch => 1,
        Strategy::SketchRefine | Strategy::ProgressiveShading => 2,
        _ => 3,
    }
}

/// True when outcome `a` should win the race over outcome `b`.
fn beats(a: &SolveOutcome, b: &SolveOutcome, direction: ObjectiveDirection) -> bool {
    let a_has = !a.packages.is_empty();
    let b_has = !b.packages.is_empty();
    if a_has != b_has {
        return a_has;
    }
    if a.optimal != b.optimal {
        return a.optimal;
    }
    if a_has {
        let x = a.packages[0].1;
        let y = b.packages[0].1;
        if x != y {
            return Package::better_objective(direction, x, y);
        }
    }
    false
}

impl Solver for PortfolioSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::Portfolio
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps the
        // portfolio's wall time; worker deadlines go through the budget.
        let start = std::time::Instant::now();
        let workers = &self.workers;
        let solvers: Vec<Box<dyn Solver>> = workers
            .iter()
            .map(|&w| dispatch(w, &[]))
            .collect::<PbResult<_>>()?;
        // Workers race on a *child* of the caller's budget: it inherits the
        // deadline and observes the caller's cancellation, but cancelling the
        // race (below) never trips the flag inside the caller's options.
        let race = opts.budget.child();
        // One shared thread budget: racing workers and their intra-solver
        // fan-out split `opts.par` instead of multiplying it — the per-worker
        // grants never oversubscribe what the caller granted, and the split
        // is weighted so the exact workers get the cores the sequential
        // heuristics cannot use (see [`thread_split`]).
        let worker_pars = thread_split(workers, opts.par);

        // Posted cheapest first (stable, so configured order within a rank).
        let mut order: Vec<usize> = (0..workers.len()).collect();
        order.sort_by_key(|&i| cost_rank(workers[i]));
        let results = ParExec::new(order.len()).run_chunks_width(order.len(), 1, |job, _| {
            let i = order[job];
            let worker_opts = SolveOptions {
                budget: race.clone(),
                par: worker_pars[i],
                ..opts.clone()
            };
            let result = solvers[i].solve(view, &worker_opts);
            // A provably-optimal result cannot be improved by any other
            // worker: cancel the losers instead of waiting them out.
            if matches!(&result, Ok(o) if o.optimal) {
                race.cancel();
            }
            result
        });
        // Back to configured order, which is the order ties are ranked in.
        let mut outcomes: Vec<(usize, PbResult<SolveOutcome>)> =
            order.into_iter().zip(results).collect();
        outcomes.sort_by_key(|&(i, _)| i);

        let direction = view.direction();
        let mut winner: Option<usize> = None;
        let mut first_err: Option<PbError> = None;
        let mut nodes = 0u64;
        let mut iterations = 0u64;
        let mut cold_solves = 0u64;
        for &(i, ref result) in &outcomes {
            match result {
                Ok(outcome) => {
                    nodes += outcome.stats.nodes;
                    iterations += outcome.stats.iterations;
                    cold_solves += outcome.stats.cold_solves;
                    let current = winner.and_then(|w| outcomes[w].1.as_ref().ok());
                    if current.is_none_or(|c| beats(outcome, c, direction)) {
                        winner = Some(i);
                    }
                }
                // A worker that cannot evaluate the query drops out; the
                // race fails only when everyone does.
                Err(e) if first_err.is_none() => first_err = Some(e.clone()),
                Err(_) => {}
            }
        }

        match winner.map(|w| outcomes.swap_remove(w).1) {
            Some(Ok(chosen)) => Ok(SolveOutcome {
                packages: chosen.packages,
                optimal: chosen.optimal,
                stats: EvalStats {
                    strategy: StrategyUsed::Portfolio,
                    candidates: view.candidate_count(),
                    nodes,
                    iterations,
                    cold_solves,
                    elapsed: start.elapsed(),
                },
            }),
            _ => Err(first_err.unwrap_or_else(|| {
                PbError::Internal("portfolio race finished with no worker results".into())
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::config::default_portfolio_workers;
    use crate::solver::{GreedySolver, IlpSolver, LocalSearchSolver};
    use crate::spec::tests::spec_for;
    use datagen::{recipes, Seed};
    use std::time::Duration;

    /// Ilp, SketchRefine, LocalSearch and Greedy.
    fn race_of_four() -> PortfolioSolver {
        PortfolioSolver::new(default_portfolio_workers(4)).unwrap()
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn racing_returns_the_ilp_optimum_on_linear_queries() {
        let t = recipes(250, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions::default();
        let race = race_of_four().solve(spec.view(), &opts).unwrap();
        // Reusing the same options doubles as a regression test: the race's
        // internal cancel must not poison the caller's budget.
        assert!(!opts.budget.expired());
        let exact = IlpSolver.solve(spec.view(), &opts).unwrap();
        assert!(
            race.optimal,
            "the exact worker finished, so the race is optimal"
        );
        assert_eq!(race.stats.strategy, StrategyUsed::Portfolio);
        assert_eq!(
            race.packages.first().map(|(_, o)| *o),
            exact.packages.first().map(|(_, o)| *o),
        );
        for (p, _) in &race.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    #[test]
    fn ilp_dropping_out_still_wins_with_heuristics() {
        // AVG vs AVG is not linearizable: the ILP (and sketch-refine) workers
        // error out of the race and the heuristics must still deliver a
        // feasible package. Recipes always have calories >> protein, so the
        // AVG atom holds for every package.
        let t = recipes(200, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein) \
             MAXIMIZE SUM(P.protein)",
        );
        let out = race_of_four()
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        assert!(!out.packages.is_empty());
        assert!(!out.optimal, "no exact worker survived");
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    #[test]
    fn single_worker_portfolio_is_a_pure_wrapper() {
        let t = recipes(150, Seed(3));
        let spec = spec_for(&t, MEAL_QUERY);
        for (workers, solver) in [
            (
                vec![Strategy::LocalSearch],
                Box::new(LocalSearchSolver) as Box<dyn Solver>,
            ),
            (
                vec![Strategy::Greedy],
                Box::new(GreedySolver) as Box<dyn Solver>,
            ),
        ] {
            let opts = SolveOptions::default();
            let race = PortfolioSolver::new(workers)
                .unwrap()
                .solve(spec.view(), &opts)
                .unwrap();
            let alone = solver.solve(spec.view(), &opts).unwrap();
            assert_eq!(race.packages, alone.packages);
            assert_eq!(race.optimal, alone.optimal);
            assert_eq!(race.stats.nodes, alone.stats.nodes);
            assert_eq!(race.stats.iterations, alone.stats.iterations);
        }
    }

    #[test]
    fn thread_split_favors_exact_workers_without_oversubscribing() {
        let canonical = default_portfolio_workers(4);
        // 8 threads over [Ilp, SketchRefine, LocalSearch, Greedy]: the two
        // heuristics take 1 each, the two fan-out workers share the rest.
        let grants: Vec<usize> = thread_split(&canonical, ParExec::new(8))
            .into_iter()
            .map(ParExec::threads)
            .collect();
        assert_eq!(grants, vec![3, 3, 1, 1]);
        // An odd remainder lands on the earliest fan-out worker.
        let grants: Vec<usize> = thread_split(&canonical, ParExec::new(9))
            .into_iter()
            .map(ParExec::threads)
            .collect();
        assert_eq!(grants, vec![4, 3, 1, 1]);
        // Nothing to spare: degrade to the uniform split (1 thread each).
        for total in [1, 2, 4] {
            let grants = thread_split(&canonical, ParExec::new(total));
            assert!(grants.iter().all(|g| g.threads() == 1));
        }
        // No fan-out worker at all: uniform split again.
        let grants = thread_split(&[Strategy::Greedy, Strategy::LocalSearch], ParExec::new(16));
        assert!(grants.iter().all(|g| g.threads() == 8));
        // The total grant never exceeds the caller's budget.
        for total in 1..=12 {
            let sum: usize = thread_split(&canonical, ParExec::new(total))
                .into_iter()
                .map(ParExec::threads)
                .sum();
            assert!(sum <= total.max(canonical.len()));
        }
    }

    #[test]
    fn invalid_worker_sets_are_rejected() {
        for workers in [
            vec![],
            vec![Strategy::Auto],
            vec![Strategy::Ilp, Strategy::Portfolio],
        ] {
            let err = PortfolioSolver::new(workers).unwrap_err();
            assert!(matches!(err, PbError::Unsupported(m) if m.contains("portfolio_workers")));
        }
        assert!(PortfolioSolver::new(vec![Strategy::Ilp, Strategy::Greedy]).is_ok());
    }

    #[test]
    fn all_workers_failing_reports_the_first_error() {
        // Exhaustive enumeration refuses > 64 candidates, and it is the only
        // worker: the race has nobody left and must surface the error.
        let t = recipes(150, Seed(4));
        let spec = spec_for(&t, MEAL_QUERY);
        let err = PortfolioSolver::new(vec![Strategy::Exhaustive])
            .unwrap()
            .solve(spec.view(), &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, PbError::Unsupported(_)));
    }

    #[test]
    fn deadline_race_returns_a_feasible_package_quickly() {
        let t = recipes(1000, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        // Generous enough for the greedy worker even in debug builds, tight
        // enough that the race cannot wait out an unbounded exact solve.
        let opts = SolveOptions {
            budget: Budget::with_limit(Duration::from_millis(200)),
            ..SolveOptions::default()
        };
        let out = race_of_four().solve(spec.view(), &opts).unwrap();
        assert!(!out.packages.is_empty());
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }
}
