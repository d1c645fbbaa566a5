//! The unified solver interface.
//!
//! Every evaluation strategy — ILP translation, pruned/exhaustive
//! enumeration, greedy construction, local search and the sketch family —
//! implements one trait, and this is its only entry point:
//!
//! ```text
//! fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome>
//! ```
//!
//! Each strategy's module holds its `impl Solver` ([`crate::ilp`],
//! [`crate::enumerate`], [`crate::local_search`], [`crate::greedy`],
//! [`crate::sketch_refine`], [`crate::shading`], [`crate::portfolio`]); this
//! module holds the seam itself — the options every strategy reads its
//! settings from, the outcome whose [`EvalStats`] carries every counter, the
//! one rank for the packages a strategy keeps (`keep_ranked`) — and
//! re-exports the solver types.
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

use std::cmp::Ordering;

use lp_solver::SolverConfig;
use paql::ObjectiveDirection;

use crate::budget::Budget;
use crate::config::{EngineConfig, Strategy, SHADE_FANOUT, SHADE_LEAF_SIZE, SKETCH_PARTITION_SIZE};
use crate::error::PbError;
use crate::package::Package;
use crate::par::ParExec;
use crate::result::{EvalStats, StrategyUsed};
use crate::view::CandidateView;
use crate::PbResult;

pub use crate::enumerate::EnumerationSolver;
pub use crate::greedy::GreedySolver;
pub use crate::ilp::IlpSolver;
pub use crate::local_search::LocalSearchSolver;

/// Solver-facing slice of the engine configuration.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// How many packages to return (best first); every strategy reads it
    /// through [`SolveOptions::keep`], so 0 asks for one.
    pub num_packages: usize,
    /// Limits for the ILP substrate.
    pub solver: SolverConfig,
    /// Node budget for the enumeration strategies.
    pub max_enumeration_nodes: u64,
    /// Local search: maximum accepted moves per restart.
    pub max_local_moves: usize,
    /// Local search: number of restarts.
    pub local_restarts: usize,
    /// Sketch→refine: maximum partition size of the flat leaves.
    pub sketch_partition_size: usize,
    /// Progressive shading: maximum children per partition-tree node, which
    /// bounds every intermediate sketch ILP of the descent.
    pub shade_fanout: usize,
    /// Progressive shading: leaf partition size of the partition tree, as
    /// `sketch_partition_size` is on the flat path.
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

    /// How many packages a strategy keeps: `num_packages`, at least one.
    pub fn keep(&self) -> usize {
        self.num_packages.max(1)
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

    /// Evaluates the view, returning up to [`SolveOptions::keep`] packages.
    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome>;
}

/// Inserts `(package, objective)` into `kept`, a best-first list of at most
/// `k` entries: the one rank of every strategy that keeps several packages.
/// Evaluable objectives rank by `total_cmp` under `direction`; NaN and
/// `None` rank last in either direction (`total_cmp` alone would put NaN
/// above +inf and crown it the maximum). A newcomer goes after the entries
/// it ties with, and a package already kept is refused. `package` is built
/// only when the newcomer ranks within `k`. Returns the insert position, or
/// `None` when the package was not kept.
pub(crate) fn keep_ranked(
    kept: &mut Vec<(Package, Option<f64>)>,
    k: usize,
    direction: ObjectiveDirection,
    objective: Option<f64>,
    package: impl FnOnce() -> Package,
) -> Option<usize> {
    let evaluable = |o: Option<f64>| o.filter(|x| !x.is_nan());
    let rank = |a: Option<f64>, b: Option<f64>| match (evaluable(a), evaluable(b)) {
        (Some(x), Some(y)) => match direction {
            ObjectiveDirection::Maximize => y.total_cmp(&x),
            ObjectiveDirection::Minimize => x.total_cmp(&y),
        },
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    };
    let pos = kept.partition_point(|e| rank(e.1, objective) != Ordering::Greater);
    if pos >= k {
        return None;
    }
    let package = package();
    if kept.iter().any(|(q, _)| *q == package) {
        return None;
    }
    kept.insert(pos, (package, objective));
    kept.truncate(k);
    Some(pos)
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
    use minidb::TupleId;

    const SMALL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)";

    fn every_solver() -> Vec<Box<dyn Solver>> {
        vec![
            Box::new(IlpSolver),
            Box::new(EnumerationSolver { prune: true }),
            Box::new(EnumerationSolver { prune: false }),
            Box::new(LocalSearchSolver),
            Box::new(GreedySolver),
        ]
    }

    #[test]
    fn all_solvers_implement_the_trait_uniformly() {
        let t = recipes(20, Seed(1));
        let spec = spec_for(&t, SMALL_QUERY);
        let opts = SolveOptions::default();
        let solvers = every_solver();
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

    #[test]
    fn zero_packages_asked_means_one_for_every_solver() {
        // `num_packages` is a public field, so 0 reaches the solvers; read as
        // "keep none", enumeration once answered a feasible query with no
        // package and `optimal: true`, a proof of infeasibility.
        let t = recipes(20, Seed(1));
        let spec = spec_for(&t, SMALL_QUERY);
        let opts = SolveOptions {
            num_packages: 0,
            ..SolveOptions::default()
        };
        for solver in every_solver() {
            let out = solver.solve(spec.view(), &opts).unwrap();
            assert_eq!(out.packages.len(), 1, "{}", solver.strategy());
        }
    }

    #[test]
    fn kept_packages_share_one_rank() {
        use ObjectiveDirection::{Maximize, Minimize};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        type Arrival = (u32, Option<f64>, Option<usize>);
        // (direction, k, arrivals as (package id, objective, returned
        // position), the kept ids best first)
        let cases: &[(ObjectiveDirection, usize, &[Arrival], &[u32])] = &[
            // Both directions, by value.
            (
                Maximize,
                3,
                &[
                    (1, Some(1.0), Some(0)),
                    (2, Some(3.0), Some(0)),
                    (3, Some(2.0), Some(1)),
                ],
                &[2, 3, 1],
            ),
            (
                Minimize,
                3,
                &[
                    (1, Some(1.0), Some(0)),
                    (2, Some(3.0), Some(1)),
                    (3, Some(2.0), Some(1)),
                ],
                &[1, 3, 2],
            ),
            // NaN and None rank last in either direction, behind ±inf, and
            // tie with each other.
            (
                Maximize,
                4,
                &[
                    (1, Some(nan), Some(0)),
                    (2, None, Some(1)),
                    (3, Some(-inf), Some(0)),
                    (4, Some(inf), Some(0)),
                ],
                &[4, 3, 1, 2],
            ),
            (
                Minimize,
                4,
                &[
                    (1, None, Some(0)),
                    (2, Some(nan), Some(1)),
                    (3, Some(inf), Some(0)),
                    (4, Some(-inf), Some(0)),
                ],
                &[4, 3, 1, 2],
            ),
            // ±0 are distinct: -0 ranks below +0.
            (
                Maximize,
                2,
                &[(1, Some(-0.0), Some(0)), (2, Some(0.0), Some(0))],
                &[2, 1],
            ),
            (
                Minimize,
                2,
                &[(1, Some(0.0), Some(0)), (2, Some(-0.0), Some(0))],
                &[2, 1],
            ),
            // Ties keep arrival order.
            (
                Minimize,
                3,
                &[
                    (1, Some(5.0), Some(0)),
                    (2, Some(5.0), Some(1)),
                    (3, Some(5.0), Some(2)),
                ],
                &[1, 2, 3],
            ),
            // A package already kept is refused, even ranked first.
            (
                Maximize,
                3,
                &[(1, Some(1.0), Some(0)), (1, Some(9.0), None)],
                &[1],
            ),
            // Truncation at k: a newcomer behind k entries is not kept, a
            // better one pushes the last out.
            (
                Maximize,
                2,
                &[
                    (1, Some(1.0), Some(0)),
                    (2, Some(2.0), Some(0)),
                    (3, Some(0.5), None),
                    (4, Some(3.0), Some(0)),
                ],
                &[4, 2],
            ),
        ];
        for (case, &(direction, k, arrivals, want)) in cases.iter().enumerate() {
            let mut kept = Vec::new();
            for &(id, objective, position) in arrivals {
                let package = || Package::from_ids([TupleId(id)]);
                let got = keep_ranked(&mut kept, k, direction, objective, package);
                assert_eq!(got, position, "case {case}: package {id}");
            }
            let ids: Vec<u32> = kept.iter().map(|(p, _)| p.tuple_ids()[0].0).collect();
            assert_eq!(ids, want, "case {case}");
            // Each kept entry carries its own objective, bit for bit.
            for (p, objective) in &kept {
                let id = p.tuple_ids()[0].0;
                let arrived = arrivals.iter().find(|a| a.0 == id).unwrap().1;
                assert_eq!(
                    objective.map(f64::to_bits),
                    arrived.map(f64::to_bits),
                    "case {case}"
                );
            }
        }
    }
}
