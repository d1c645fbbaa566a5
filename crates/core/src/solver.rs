//! The unified solver interface.
//!
//! Every evaluation strategy — ILP translation, pruned/exhaustive
//! enumeration, greedy construction and local search — implements one trait:
//!
//! ```text
//! fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome>
//! ```
//!
//! Solvers consume only the columnar [`CandidateView`] (never the base
//! table), which makes them interchangeable, individually testable, and the
//! seam scaling work plugs into — the parallel
//! [`crate::portfolio::PortfolioSolver`] races any of them concurrently over
//! one borrowed view, and a sharded or cached solve is equally `impl Solver`
//! away. Every solver honours the cooperative [`Budget`] in its options:
//! deadline expiry or cancellation means "return your best result so far,
//! flagged non-optimal", never an error. The engine's planner
//! ([`crate::engine::PackageEngine`]) selects and chains them: pruning
//! bounds first, then the solver, then validation.

use lp_solver::SolverConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::Budget;
use crate::config::{EngineConfig, Strategy, SHADE_FANOUT, SHADE_LEAF_SIZE, SKETCH_PARTITION_SIZE};
use crate::enumerate::{enumerate, EnumerationOptions};
use crate::error::PbError;
use crate::greedy::{objective_coeffs, starting_package, StartHeuristic};
use crate::ilp::solve_ilp;
use crate::local_search::{local_search, LocalSearchOptions};
use crate::package::Package;
use crate::par::ParExec;
use crate::result::{EvalStats, StrategyUsed};
use crate::view::CandidateView;
use crate::PbResult;

/// Solver-facing slice of the engine configuration.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// How many packages to return (best first).
    pub num_packages: usize,
    /// Limits for the ILP substrate.
    pub solver: SolverConfig,
    /// Node budget for the enumeration strategies.
    pub max_enumeration_nodes: u64,
    /// Local search: maximum accepted moves per restart.
    pub max_local_moves: usize,
    /// Local search: number of restarts.
    pub local_restarts: usize,
    /// Sketch→refine: maximum partition size (bounds each refinement
    /// sub-ILP).
    pub sketch_partition_size: usize,
    /// Progressive shading: maximum children per partition-tree node, which
    /// bounds every intermediate sketch ILP of the descent.
    pub shade_fanout: usize,
    /// Progressive shading: leaf partition size (bounds the leaf sub-ILPs,
    /// like `sketch_partition_size` does on the flat path).
    pub shade_leaf_size: usize,
    /// Seed for randomized components.
    pub seed: u64,
    /// Wall-clock budget and cancellation flag for this evaluation. The
    /// budget is *armed* when the options are built; the engine re-arms it
    /// per plan run ([`SolveOptions::rearmed`]), and clones share the stop
    /// flag so a portfolio race can cancel all of its workers at once.
    pub budget: Budget,
    /// Chunk fan-out executor for this solve's data-parallel scans
    /// (materialization, partitioning, repair, neighbourhood). Sized from
    /// [`EngineConfig::num_threads`]; the portfolio hands each racing worker
    /// a [`ParExec::split`] share so the race and the inner loops draw on
    /// one thread budget. Results are bit-identical at every thread count.
    pub par: ParExec,
}

impl SolveOptions {
    /// Projects the solver-relevant fields out of an engine configuration;
    /// the partition sizes and the fanout are the [`crate::config`]
    /// constants. The budget is armed now, from `config.time_budget`.
    pub fn from_config(config: &EngineConfig) -> Self {
        SolveOptions {
            num_packages: config.num_packages,
            solver: config.solver.clone(),
            max_enumeration_nodes: config.max_enumeration_nodes,
            max_local_moves: config.max_local_moves,
            local_restarts: config.local_restarts,
            sketch_partition_size: SKETCH_PARTITION_SIZE,
            shade_fanout: SHADE_FANOUT,
            shade_leaf_size: SHADE_LEAF_SIZE,
            seed: config.seed,
            budget: Budget::starting_now(config.time_budget),
            par: ParExec::new(config.num_threads),
        }
    }

    /// These options with the budget re-armed: same limit, deadline measured
    /// from now, fresh stop flag.
    pub fn rearmed(&self) -> Self {
        SolveOptions {
            budget: self.budget.rearmed(),
            ..self.clone()
        }
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions::from_config(&EngineConfig::default())
    }
}

/// What a solver produced for one view.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Valid packages, best first, with objective values.
    pub packages: Vec<(Package, Option<f64>)>,
    /// Whether the first package is provably optimal (exact strategies that
    /// ran to completion).
    pub optimal: bool,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl SolveOutcome {
    /// An empty outcome for a strategy (used when pruning proves
    /// infeasibility before any solver runs).
    pub fn empty(strategy: StrategyUsed, candidates: usize, optimal: bool) -> Self {
        let mut stats = EvalStats::empty(strategy);
        stats.candidates = candidates;
        SolveOutcome {
            packages: Vec::new(),
            optimal,
            stats,
        }
    }
}

/// A package-query evaluation strategy over a columnar candidate view.
///
/// Solvers are `Send + Sync` so the engine can race them concurrently over
/// one borrowed view ([`crate::portfolio::PortfolioSolver`]); every
/// implementation is stateless, all per-solve state lives in `opts`.
///
/// Deadline contract: when `opts.budget` expires mid-solve, return the best
/// result found so far with `optimal: false` — never an error, never an
/// unbounded overrun.
pub trait Solver: Send + Sync {
    /// Which strategy this solver implements (reported in [`EvalStats`]).
    fn strategy(&self) -> StrategyUsed;

    /// Evaluates the view, returning up to `opts.num_packages` packages.
    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome>;
}

/// ILP translation + branch and bound (paper Section 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpSolver;

impl Solver for IlpSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::Ilp
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        let out = solve_ilp(
            view,
            &opts.solver,
            opts.num_packages,
            &opts.budget,
            opts.par,
        )?;
        Ok(SolveOutcome {
            packages: out.packages,
            optimal: out.complete,
            stats: out.stats,
        })
    }
}

/// Generate-and-validate enumeration, with or without the Section 4.1
/// pruning rules.
#[derive(Debug, Clone, Copy)]
pub struct EnumerationSolver {
    /// Apply cardinality and partial-sum pruning.
    pub prune: bool,
}

impl Solver for EnumerationSolver {
    fn strategy(&self) -> StrategyUsed {
        if self.prune {
            StrategyUsed::PrunedEnumeration
        } else {
            StrategyUsed::Exhaustive
        }
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        let out = enumerate(
            view,
            EnumerationOptions {
                prune: self.prune,
                max_nodes: opts.max_enumeration_nodes,
                keep: opts.num_packages,
                budget: opts.budget.clone(),
            },
        )?;
        let complete = out.complete;
        Ok(SolveOutcome {
            packages: out.packages,
            optimal: complete,
            stats: out.stats,
        })
    }
}

/// Greedy construction + k-replacement local search (paper Section 4.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::LocalSearch
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        let out = local_search(
            view,
            &LocalSearchOptions {
                max_moves: opts.max_local_moves,
                restarts: opts.local_restarts,
                seed: opts.seed,
                keep: opts.num_packages,
                budget: opts.budget.clone(),
                par: opts.par,
            },
        )?;
        Ok(SolveOutcome {
            packages: out.packages,
            optimal: false,
            stats: out.stats,
        })
    }
}

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
            let (evals, repair_moves) =
                crate::greedy::repair_to_feasibility(&mut state, budget, opts.par);
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

/// The solver a routed strategy names; a race gets `workers`. `Auto` names
/// none: [`crate::config::auto_route`] never routes to it, and a race
/// refuses it as a worker.
pub(crate) fn dispatch(strategy: Strategy, workers: &[Strategy]) -> PbResult<Box<dyn Solver>> {
    Ok(match strategy {
        Strategy::Ilp => Box::new(IlpSolver),
        Strategy::PrunedEnumeration => Box::new(EnumerationSolver { prune: true }),
        Strategy::Exhaustive => Box::new(EnumerationSolver { prune: false }),
        Strategy::LocalSearch => Box::new(LocalSearchSolver),
        Strategy::Greedy => Box::new(GreedySolver),
        Strategy::SketchRefine => Box::new(crate::sketch_refine::SketchRefineSolver),
        Strategy::ProgressiveShading => Box::new(crate::shading::ProgressiveShadingSolver),
        Strategy::Portfolio => Box::new(crate::portfolio::PortfolioSolver::new(workers.to_vec())?),
        Strategy::Auto => return Err(PbError::Internal("Auto was never routed".into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::spec_for;
    use datagen::{recipes, Seed};

    const SMALL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)";

    #[test]
    fn all_solvers_implement_the_trait_uniformly() {
        let t = recipes(20, Seed(1));
        let spec = spec_for(&t, SMALL_QUERY);
        let opts = SolveOptions::default();
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(IlpSolver),
            Box::new(EnumerationSolver { prune: true }),
            Box::new(EnumerationSolver { prune: false }),
            Box::new(LocalSearchSolver),
            Box::new(GreedySolver),
        ];
        let mut objectives = Vec::new();
        for solver in &solvers {
            let out = solver.solve(spec.view(), &opts).unwrap();
            assert_eq!(out.stats.strategy, solver.strategy());
            assert_eq!(out.stats.candidates, spec.candidate_count());
            for (p, obj) in &out.packages {
                assert!(
                    spec.is_valid(p).unwrap(),
                    "{} returned invalid package",
                    solver.strategy()
                );
                assert_eq!(*obj, spec.objective_value(p).unwrap());
            }
            objectives.push(out.packages.first().and_then(|(_, o)| *o));
        }
        // The exact solvers agree; heuristics never beat them.
        let exact = objectives[0].unwrap();
        assert!((objectives[1].unwrap() - exact).abs() < 1e-6);
        assert!((objectives[2].unwrap() - exact).abs() < 1e-6);
        for h in objectives[3..].iter().flatten() {
            assert!(*h <= exact + 1e-6);
        }
    }

    #[test]
    fn greedy_solver_repairs_towards_feasibility() {
        let t = recipes(150, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        );
        let out = GreedySolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        // The greedy start (3 highest-protein recipes) usually violates the
        // calorie window; the repair pass must fix it here.
        assert_eq!(out.packages.len(), 1, "greedy failed to repair feasibility");
        let (p, _) = &out.packages[0];
        assert!(spec.is_valid(p).unwrap());
        assert!(!out.optimal);
    }
}
