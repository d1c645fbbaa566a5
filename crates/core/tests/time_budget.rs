//! Time-budget regression suite: no solver may ignore its deadline.
//!
//! The contract under test (see `packagebuilder::budget`): with a
//! budget of 10 ms, every solver terminates within ~2× the limit —
//! measured here with extra absolute slack for debug-profile builds and CI
//! scheduler noise — and returns its best-so-far result with
//! `optimal: false` instead of erroring or running unbounded. Before this
//! suite existed, `GreedySolver`'s repair loop started an `Instant` and
//! never looked at it again: a hostile candidate set ran unbounded.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use datagen::{recipes, scenario, scenarios, Seed};
use minidb::{Catalog, Table};
use packagebuilder::budget::Budget;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::par::ParExec;
use packagebuilder::portfolio::PortfolioSolver;
use packagebuilder::solver::{
    EnumerationSolver, GreedySolver, IlpSolver, LocalSearchSolver, SolveOptions, Solver,
};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{PackageEngine, ProgressiveShadingSolver, SketchRefineSolver};
use paql::compile;

/// The budget every solver must honour.
const LIMIT: Duration = Duration::from_millis(10);
/// Fixed per-solve setup that is proportional to the candidate count, not
/// to the time limit, and so does not scale down with it: chiefly the ILP
/// translation (one variable + row entries per candidate; ~30 ms for 15k
/// candidates in a debug build, where this suite runs), plus scheduler
/// noise headroom — `cargo test` runs whole suites concurrently, so on a
/// loaded single-core runner a portfolio race's worker threads can each
/// lose a scheduling quantum between deadline checks.
const SETUP_SLACK: Duration = Duration::from_millis(100);

/// Allowed wall-clock for one budgeted solve: the contract's ~2× factor on
/// the limit, plus the fixed setup slack above.
fn allowed(limit: Duration) -> Duration {
    limit * 2 + SETUP_SLACK
}

/// The largest datagen scenario in the suite: a recipes relation far beyond
/// anything a 10 ms budget could finish, with a query whose repair/search
/// phases are long (a 300-tuple package forces hundreds of greedy repair
/// passes over the full candidate set).
fn hostile_table() -> Table {
    recipes(15_000, Seed(20140901))
}

const HOSTILE_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 300 AND SUM(P.calories) BETWEEN 150000 AND 180000 \
    MAXIMIZE SUM(P.protein)";

fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
    let analyzed = compile(q, table.schema()).unwrap();
    PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap()
}

fn budgeted_options() -> SolveOptions {
    SolveOptions {
        budget: Budget::with_limit(LIMIT),
        ..SolveOptions::default()
    }
}

/// Runs `f` while every worker of the executor's pool is stuck in a job of
/// this function's own fan-out, so nothing `f` posts can get a helper. One
/// job per pool worker plus one: each thread that claims a job stays in it,
/// and the job that runs `f` waits for all the others to be claimed first.
fn with_the_pool_held<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let pool_workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
    let (held, released) = (AtomicUsize::new(0), AtomicBool::new(false));
    let mut out = ParExec::new(pool_workers + 1).run_chunks_width(pool_workers + 1, 1, |job, _| {
        if job > 0 {
            held.fetch_add(1, Ordering::SeqCst);
            while !released.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            return None;
        }
        // Workers busy with another test's jobs arrive when those finish.
        let patience = Instant::now();
        while held.load(Ordering::SeqCst) < pool_workers
            && patience.elapsed() < Duration::from_secs(60)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let all_held = held.load(Ordering::SeqCst) == pool_workers;
        let result = f();
        released.store(true, Ordering::SeqCst);
        assert!(
            all_held,
            "the pool never filled up: the race may have had help"
        );
        Some(result)
    });
    out.swap_remove(0).expect("job 0 ran `f`")
}

/// What the race's `thread::scope` used to give implicitly: every worker
/// started at once, so a floor existed however long the exact worker took.
/// Pool jobs start when a thread is free, and when none is — the pool is
/// busy, or the host has one core — the caller runs them one after another
/// in posting order. Posted exact-first (the configured order here), the ILP
/// would spend the whole deadline and the greedy worker would start on an
/// expired budget.
#[test]
fn a_race_without_helpers_still_has_its_floor_when_the_deadline_comes() {
    // An instance the exact worker needs about a second for in release (and
    // has no incumbent on after 50 ms in a debug build), where the greedy
    // fill is feasible in microseconds.
    let stocks = scenario("stocks").unwrap();
    let table = (stocks.build)(2_000, Seed(20140901));
    let spec = spec_for(&table, &stocks.queries[0].text);
    let floor = GreedySolver
        .solve(spec.view(), &SolveOptions::default())
        .unwrap();
    let (floor_package, floor_objective) = floor.packages[0].clone();
    let floor_objective = floor_objective.expect("the query has an objective");

    let limit = Duration::from_millis(50);
    let race = PortfolioSolver::new(vec![Strategy::Ilp, Strategy::Greedy]).unwrap();
    let (out, elapsed) = with_the_pool_held(|| {
        let opts = SolveOptions {
            budget: Budget::with_limit(limit),
            ..SolveOptions::default()
        };
        let start = Instant::now();
        (race.solve(spec.view(), &opts).unwrap(), start.elapsed())
    });
    assert!(elapsed <= allowed(limit), "the race took {elapsed:?}");
    assert!(!out.optimal, "nobody can prove this instance in {limit:?}");
    let (package, objective) = out.packages.first().expect("the floor was found");
    assert!(spec.is_valid(package).unwrap());
    let objective = objective.expect("the query has an objective");
    // The exact worker's incumbent may have overtaken the floor by the
    // deadline (it does in release); nothing may come in under it.
    assert!(
        objective >= floor_objective,
        "{objective} < {floor_objective}"
    );
    if objective == floor_objective {
        assert_eq!(package, &floor_package);
    }
}

#[test]
fn every_solver_terminates_within_twice_the_time_limit() {
    let table = hostile_table();
    let spec = spec_for(&table, HOSTILE_QUERY);
    let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
        ("ilp", Box::new(IlpSolver)),
        ("local-search", Box::new(LocalSearchSolver)),
        ("greedy", Box::new(GreedySolver)),
        ("sketch-refine", Box::new(SketchRefineSolver)),
        ("progressive-shading", Box::new(ProgressiveShadingSolver)),
        (
            "portfolio",
            Box::new(
                PortfolioSolver::new(vec![
                    Strategy::Ilp,
                    Strategy::SketchRefine,
                    Strategy::LocalSearch,
                    Strategy::Greedy,
                ])
                .unwrap(),
            ),
        ),
    ];
    for (name, solver) in solvers {
        let opts = budgeted_options();
        let start = Instant::now();
        let out = solver
            .solve(spec.view(), &opts)
            .unwrap_or_else(|e| panic!("{name} must truncate, not fail: {e}"));
        let elapsed = start.elapsed();
        assert!(
            elapsed <= allowed(LIMIT),
            "{name} overran its {LIMIT:?} budget: took {elapsed:?} (allowed {:?})",
            allowed(LIMIT)
        );
        assert!(
            !out.optimal,
            "{name} claimed optimality for a truncated solve"
        );
    }
}

#[test]
fn enumeration_terminates_within_twice_the_time_limit_on_20k_candidates() {
    // Regression test for the DFS stack overflow: the search used to recurse
    // once per candidate index, so anything past ~10k candidates blew the
    // thread stack before the budget could even matter. With the explicit
    // worklist the full 20,000-candidate hostile scenario must run — and
    // still honour its 10 ms budget.
    let table = recipes(20_000, Seed(20140901));
    let spec = spec_for(
        &table,
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 40 AND SUM(P.calories) BETWEEN 20000 AND 24000 \
         MAXIMIZE SUM(P.protein)",
    );
    let opts = budgeted_options();
    let start = Instant::now();
    let out = EnumerationSolver { prune: true }
        .solve(spec.view(), &opts)
        .unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed <= allowed(LIMIT),
        "pruned enumeration overran its {LIMIT:?} budget: took {elapsed:?}"
    );
    assert!(!out.optimal);
}

#[test]
fn greedy_repair_honours_a_tiny_time_limit_on_a_large_candidate_set() {
    // The original bug: the repair loop (`while violation > 0.0`) never
    // checked its clock against the budget, so this exact shape — a large
    // candidate set and a high-cardinality window needing hundreds of repair
    // moves — ran unbounded.
    let table = hostile_table();
    let spec = spec_for(&table, HOSTILE_QUERY);
    let opts = SolveOptions {
        budget: Budget::with_limit(Duration::from_millis(1)),
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = GreedySolver.solve(spec.view(), &opts).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed <= allowed(Duration::from_millis(1)),
        "greedy ignored a 1 ms budget: took {elapsed:?}"
    );
    assert!(!out.optimal);
    // Best-so-far contract: expiry yields a (possibly empty) truncated
    // result, never an error. Any package it does return must be valid.
    for (p, _) in &out.packages {
        assert!(spec.is_valid(p).unwrap());
    }
}

#[test]
fn expired_budgets_return_immediately_with_best_so_far() {
    let table = hostile_table();
    let spec = spec_for(&table, HOSTILE_QUERY);
    let opts = SolveOptions {
        budget: Budget::with_limit(Duration::ZERO),
        ..SolveOptions::default()
    };
    for solver in [
        Box::new(IlpSolver) as Box<dyn Solver>,
        Box::new(EnumerationSolver { prune: true }),
        Box::new(LocalSearchSolver),
        Box::new(GreedySolver),
        Box::new(SketchRefineSolver),
        Box::new(ProgressiveShadingSolver),
    ] {
        let start = Instant::now();
        let out = solver.solve(spec.view(), &opts).unwrap();
        assert!(!out.optimal);
        assert!(
            start.elapsed() < allowed(Duration::ZERO),
            "{} did not bail out of an already-expired budget",
            solver.strategy()
        );
    }
}

#[test]
fn expired_budgets_bail_out_on_every_registered_scenario() {
    // The registry sweep of the test above: whatever the family's schema or
    // constraint count (24-window metrics, 120-column wide, …), an
    // already-expired budget returns a truncated best-so-far immediately.
    for scenario in scenarios() {
        let table = (scenario.build)(scenario.property_n, Seed(20140901));
        let spec = spec_for(&table, &scenario.exact_query);
        let opts = SolveOptions {
            budget: Budget::with_limit(Duration::ZERO),
            ..SolveOptions::default()
        };
        for solver in [
            Box::new(IlpSolver) as Box<dyn Solver>,
            Box::new(EnumerationSolver { prune: true }),
            Box::new(LocalSearchSolver),
            Box::new(GreedySolver),
            Box::new(SketchRefineSolver),
            Box::new(ProgressiveShadingSolver),
        ] {
            let start = Instant::now();
            let out = solver.solve(spec.view(), &opts).unwrap();
            assert!(!out.optimal, "{}/{}", scenario.name, solver.strategy());
            assert!(
                start.elapsed() < allowed(Duration::ZERO),
                "{}/{} did not bail out of an already-expired budget",
                scenario.name,
                solver.strategy()
            );
            for (p, _) in &out.packages {
                assert!(spec.is_valid(p).unwrap());
            }
        }
    }
}

#[test]
fn expired_budget_entry_bails_the_shading_descent() {
    // Progressive shading's descent solves one sketch per tree layer; an
    // already-expired budget must bail before growing the tree at all, even
    // under a configuration that would build a genuinely deep one.
    let table = hostile_table();
    let spec = spec_for(&table, HOSTILE_QUERY);
    let opts = SolveOptions {
        budget: Budget::with_limit(Duration::ZERO),
        shade_leaf_size: 8,
        shade_fanout: 4,
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = ProgressiveShadingSolver.solve(spec.view(), &opts).unwrap();
    assert!(!out.optimal);
    assert!(
        start.elapsed() < allowed(Duration::ZERO),
        "shading did not bail out of an already-expired budget"
    );
    assert!(
        spec.view().partition_memo().tree_len() == 0,
        "an expired budget must not grow (or memoize) the partition tree"
    );
    for (p, _) in &out.packages {
        assert!(spec.is_valid(p).unwrap());
    }
}

#[test]
fn cancellation_stops_a_running_solver() {
    // The stop flag alone (no deadline) must end the race: arm an unlimited
    // budget, trip it, and the solver returns promptly.
    let table = hostile_table();
    let spec = spec_for(&table, HOSTILE_QUERY);
    let opts = SolveOptions::default();
    opts.budget.cancel();
    let start = Instant::now();
    let out = GreedySolver.solve(spec.view(), &opts).unwrap();
    assert!(!out.optimal);
    assert!(start.elapsed() < allowed(Duration::ZERO));
}

#[test]
fn engine_time_budget_reaches_the_solver_and_reports_non_optimal() {
    let mut catalog = Catalog::new();
    catalog.register(hostile_table());
    let engine = PackageEngine::with_config(
        catalog,
        EngineConfig::with_strategy(Strategy::Ilp).with_time_budget(LIMIT),
    );
    let start = Instant::now();
    let result = engine.execute_paql(HOSTILE_QUERY).unwrap();
    let elapsed = start.elapsed();
    // The engine path additionally parses the query and builds the columnar
    // view (linear in the relation, outside the solve budget by design), so
    // it gets one extra helping of setup slack on top of the solver bound.
    assert!(
        elapsed <= allowed(LIMIT) + SETUP_SLACK,
        "engine run overran the configured budget: {elapsed:?}"
    );
    assert!(
        !result.optimal,
        "a truncated engine run must not claim optimality"
    );
}
