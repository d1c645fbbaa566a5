//! Every `Strategy` dispatches through the unified `Solver` trait: the
//! engine's planner and a direct trait-object call must produce identical
//! packages, objectives and `StrategyUsed` stats. And the planner's route
//! names the solver that runs, with the caps and workers it runs with.

use minidb::Catalog;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::result::StrategyUsed;
use packagebuilder::solver::{
    EnumerationSolver, GreedySolver, IlpSolver, LocalSearchSolver, SolveOptions, Solver,
};
use packagebuilder::{PackageEngine, PbError};

use datagen::{recipes, scenarios, Seed};

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)";

fn engine(n: usize, seed: u64) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(recipes(n, Seed(seed)));
    PackageEngine::new(catalog)
}

#[test]
fn every_strategy_round_trips_through_the_solver_trait() {
    let engine = engine(20, 1);
    let query = paql::parse(QUERY).unwrap();
    let spec = engine.build_spec(&query).unwrap();
    let opts = SolveOptions::from_config(engine.config());

    let cases: [(Strategy, Box<dyn Solver>, StrategyUsed); 5] = [
        (Strategy::Ilp, Box::new(IlpSolver), StrategyUsed::Ilp),
        (
            Strategy::PrunedEnumeration,
            Box::new(EnumerationSolver { prune: true }),
            StrategyUsed::PrunedEnumeration,
        ),
        (
            Strategy::Exhaustive,
            Box::new(EnumerationSolver { prune: false }),
            StrategyUsed::Exhaustive,
        ),
        (
            Strategy::LocalSearch,
            Box::new(LocalSearchSolver),
            StrategyUsed::LocalSearch,
        ),
        (
            Strategy::Greedy,
            Box::new(GreedySolver),
            StrategyUsed::Greedy,
        ),
    ];
    for (strategy, solver, expected) in cases {
        // Path 1: the engine planner.
        let via_engine = engine.execute_with_strategy(&spec, strategy).unwrap();
        // Path 2: the trait object, directly on the view.
        let via_trait = solver.solve(spec.view(), &opts).unwrap();

        assert_eq!(
            via_engine.stats.strategy, expected,
            "engine stats for {strategy:?}"
        );
        assert_eq!(
            via_trait.stats.strategy, expected,
            "trait stats for {strategy:?}"
        );
        assert_eq!(solver.strategy(), expected);
        let trait_packages: Vec<_> = via_trait.packages.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(
            via_engine.packages, trait_packages,
            "planner and direct dispatch disagree for {strategy:?}"
        );
        assert_eq!(via_engine.objectives.len(), via_trait.packages.len());
        for ((p, obj), engine_obj) in via_trait.packages.iter().zip(&via_engine.objectives) {
            assert_eq!(obj, engine_obj);
            assert!(
                spec.is_valid(p).unwrap(),
                "{strategy:?} returned an invalid package"
            );
        }
        assert_eq!(via_engine.stats.candidates, spec.candidate_count());
    }
}

#[test]
fn auto_resolution_matches_the_forced_strategy() {
    // Tiny input → Auto resolves to pruned enumeration; the result must be
    // identical to forcing that strategy explicitly.
    let engine = engine(15, 2);
    let query = paql::parse(QUERY).unwrap();
    let spec = engine.build_spec(&query).unwrap();
    let auto = engine.execute_spec(&spec).unwrap();
    let resolved = engine.plan(&spec).unwrap().route.strategy;
    assert_eq!(resolved, Strategy::PrunedEnumeration);
    let forced = engine.execute_with_strategy(&spec, resolved).unwrap();
    assert_eq!(auto.packages, forced.packages);
    assert_eq!(auto.stats.strategy, forced.stats.strategy);
}

#[test]
fn exact_solvers_agree_and_heuristics_never_beat_them() {
    let engine = engine(18, 3);
    let query = paql::parse(QUERY).unwrap();
    let spec = engine.build_spec(&query).unwrap();
    let exact: Vec<f64> = [
        Strategy::Ilp,
        Strategy::PrunedEnumeration,
        Strategy::Exhaustive,
    ]
    .into_iter()
    .map(|s| {
        engine
            .execute_with_strategy(&spec, s)
            .unwrap()
            .best_objective()
            .expect("feasible")
    })
    .collect();
    assert!((exact[0] - exact[1]).abs() < 1e-6);
    assert!((exact[0] - exact[2]).abs() < 1e-6);
    for heuristic in [Strategy::LocalSearch, Strategy::Greedy] {
        if let Some(h) = engine
            .execute_with_strategy(&spec, heuristic)
            .unwrap()
            .best_objective()
        {
            assert!(h <= exact[0] + 1e-6, "{heuristic:?} beat the optimum");
        }
    }
}

#[test]
fn count_expr_terms_linearize_as_inclusion_indicators() {
    // Regression: COUNT(P.col) must contribute 0/1 coefficients to the ILP
    // rows and the enumeration's partial-sum bounds — not the column's
    // values. With value coefficients, ILP and pruned enumeration both
    // returned empty results (marked optimal) while exhaustive found the
    // optimum.
    let engine = engine(12, 5);
    let query = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(P.calories) = 2 MAXIMIZE SUM(P.protein)",
    )
    .unwrap();
    let spec = engine.build_spec(&query).unwrap();
    let exhaustive = engine
        .execute_with_strategy(&spec, Strategy::Exhaustive)
        .unwrap();
    let optimum = exhaustive
        .best_objective()
        .expect("a 2-recipe package exists");
    for strategy in [Strategy::PrunedEnumeration, Strategy::Ilp] {
        let result = engine.execute_with_strategy(&spec, strategy).unwrap();
        let obj = result
            .best_objective()
            .unwrap_or_else(|| panic!("{strategy:?} found no package, exhaustive found {optimum}"));
        assert!(
            (obj - optimum).abs() < 1e-6,
            "{strategy:?}: {obj} vs exhaustive {optimum}"
        );
    }
    // A filtered COUNT(expr) behaves the same way.
    let filtered = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(P.calories) FILTER (WHERE R.gluten = 'free') = 1 AND COUNT(*) = 2 \
         MAXIMIZE SUM(P.protein)",
    )
    .unwrap();
    let spec = engine.build_spec(&filtered).unwrap();
    let exhaustive = engine
        .execute_with_strategy(&spec, Strategy::Exhaustive)
        .unwrap();
    let ilp = engine.execute_with_strategy(&spec, Strategy::Ilp).unwrap();
    match (exhaustive.best_objective(), ilp.best_objective()) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "filtered COUNT(expr): {a} vs {b}"),
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "feasibility disagreement"),
    }
}

#[test]
fn strategy_overrides_via_config_flow_through_the_planner() {
    for (strategy, expected) in [
        (Strategy::LocalSearch, StrategyUsed::LocalSearch),
        (Strategy::Greedy, StrategyUsed::Greedy),
    ] {
        let mut catalog = Catalog::new();
        catalog.register(recipes(60, Seed(4)));
        let engine = PackageEngine::with_config(catalog, EngineConfig::with_strategy(strategy));
        let result = engine.execute_paql(QUERY).unwrap();
        assert_eq!(result.stats.strategy, expected);
        for p in &result.packages {
            let spec = engine.build_spec(&paql::parse(QUERY).unwrap()).unwrap();
            assert!(spec.is_valid(p).unwrap());
        }
    }
}

/// Over every scenario family at its property-suite size, `Auto` and each
/// forced strategy the family's first query accepts: the route's strategy
/// names the solver that reports the result, and the plan's node limit is
/// the route's cap (the configured limit when the route has none).
#[test]
fn every_route_names_the_solver_that_runs() {
    use Strategy::*;
    let strategies = [
        Auto,
        Ilp,
        PrunedEnumeration,
        Exhaustive,
        LocalSearch,
        Greedy,
        Portfolio,
        SketchRefine,
        ProgressiveShading,
    ];
    for s in scenarios() {
        let mut catalog = Catalog::new();
        catalog.register((s.build)(s.property_n, Seed(1)));
        let query = paql::parse(&s.queries[0].text).unwrap();
        for strategy in strategies {
            // The enumerations only need to run, not to finish: with columns
            // forced out of core every node reads its terms through the pool.
            let config = EngineConfig {
                max_enumeration_nodes: 100,
                ..EngineConfig::with_strategy(strategy)
            };
            let engine = PackageEngine::with_config(catalog.clone(), config);
            let spec = engine.build_spec(&query).unwrap();
            let plan = engine.plan(&spec).unwrap();
            let at = format!("{}/{strategy}: {plan}", s.name);
            let cap = plan.route.node_cap;
            let limit = engine.config().solver.max_nodes;
            assert_eq!(plan.options.solver.max_nodes, cap.unwrap_or(limit), "{at}");
            match engine.execute_spec(&spec) {
                Ok(result) => assert_eq!(
                    plan.route.strategy.to_string(),
                    result.stats.strategy.to_string(),
                    "{at}"
                ),
                Err(PbError::Unsupported(_)) if strategy != Auto => {}
                Err(e) => panic!("{at}: {e}"),
            }
        }
    }
}

/// A top-k request keeps its k packages on every host. At 256 candidates a
/// non-linear query used to go to the race, whose only worker that can take
/// it below four threads is greedy, and greedy returns one package.
#[test]
fn a_non_linear_top_k_request_keeps_its_packages_at_every_thread_count() {
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein) \
        MAXIMIZE SUM(P.protein)";
    let run = |threads| {
        let mut catalog = Catalog::new();
        catalog.register(recipes(256, Seed(10)));
        let config = EngineConfig::default()
            .packages(5)
            .with_num_threads(threads);
        PackageEngine::with_config(catalog, config)
            .execute_paql(query)
            .unwrap()
    };
    let one = run(1);
    assert_eq!(one.len(), 5);
    assert_eq!(one.stats.strategy, StrategyUsed::LocalSearch);
    let eight = run(8);
    assert_eq!(eight.packages, one.packages);
    assert_eq!(eight.objectives, one.objectives);
}

/// An empty race, or one that names `Auto` or `Portfolio`, is a bad
/// `EngineConfig::portfolio_workers`: the caller's error, not the engine's.
#[test]
fn a_bad_worker_set_is_the_callers_error() {
    use Strategy::*;
    let catalog = engine(40, 6).catalog().clone();
    for workers in [vec![], vec![Auto], vec![Ilp, Portfolio]] {
        let config = EngineConfig {
            portfolio_workers: workers,
            ..EngineConfig::with_strategy(Portfolio)
        };
        let engine = PackageEngine::with_config(catalog.clone(), config);
        let spec = engine.build_spec(&paql::parse(QUERY).unwrap()).unwrap();
        match engine.plan(&spec) {
            Err(PbError::Unsupported(m)) => assert!(m.contains("portfolio_workers"), "{m}"),
            other => panic!("{:?}", other.err()),
        }
    }
}

/// A plan's `Display` is the REPL's `EXPLAIN`: the route and the rule that
/// picked it, what the rule saw, a race's workers and node cap, the steps.
#[test]
fn a_plan_explains_its_route() {
    let explain = |config: EngineConfig, rows: usize, query: &str| {
        let mut catalog = Catalog::new();
        catalog.register(recipes(rows, Seed(9)));
        let engine = PackageEngine::with_config(catalog, config);
        let spec = engine.build_spec(&paql::parse(query).unwrap()).unwrap();
        engine.plan(&spec).unwrap().to_string()
    };
    assert_eq!(
        explain(EngineConfig::default(), 15, QUERY),
        "route: pruned-enumeration (Auto: candidates ≤ ENUMERATION_THRESHOLD (22))\n  \
         saw: 15 candidates, 1 package(s), linearizable\n  \
         steps: prune → solve → validate"
    );
    let non_linear = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein)";
    let race = EngineConfig {
        portfolio_workers: vec![Strategy::LocalSearch, Strategy::Greedy],
        ..EngineConfig::default()
    };
    assert_eq!(
        explain(race.clone(), 300, non_linear),
        "route: portfolio (Auto: candidates ≥ PORTFOLIO_THRESHOLD (256))\n  \
         saw: 300 candidates, 1 package(s), not linearizable: \
         AVG is only linearizable when compared against a constant bound\n  \
         race: local-search, greedy\n  \
         node cap: 20000\n  \
         steps: prune → solve → validate"
    );
    let forced = EngineConfig {
        strategy: Strategy::Portfolio,
        ..race
    };
    assert_eq!(
        explain(forced, 30, QUERY),
        "route: portfolio (forced by the caller)\n  \
         saw: 30 candidates, 1 package(s)\n  \
         race: local-search, greedy\n  \
         steps: prune → solve → validate"
    );
}

#[test]
fn strict_comparisons_on_their_bound_return_the_enumeration_optimum() {
    use minidb::{tuple, ColumnType, Schema, Table};
    // Each optimum of the non-strict query sits on the strict bound, which
    // the ILP must exclude exactly: integral rows by their integral bound,
    // fractional ones by the strict margin.
    let integral = |n: i64| {
        let mut t = Table::new(
            "t",
            Schema::build(&[("id", ColumnType::Int), ("w", ColumnType::Int)]),
        );
        for i in 1..=n {
            t.insert(tuple!(i, i)).unwrap();
        }
        t
    };
    let fractional = || {
        let mut t = Table::new(
            "t",
            Schema::build(&[("id", ColumnType::Int), ("w", ColumnType::Float)]),
        );
        for i in 1..=40i64 {
            t.insert(tuple!(i, 0.25 * i as f64)).unwrap();
        }
        t.insert(tuple!(41i64, 12.5)).unwrap();
        t
    };
    // (table, SUCH THAT …, optimum). The minimum of `COUNT(*) > 3` is the
    // four lightest rows, 1 + 2 + 3 + 4: with no upper cardinality bound,
    // pruned enumeration proves it through its objective bound.
    let cases = [
        (integral(40), "COUNT(*) < 3 MAXIMIZE SUM(P.w)", 79.0),
        (integral(40), "COUNT(*) > 3 MINIMIZE SUM(P.w)", 10.0),
        (
            integral(40),
            "COUNT(*) <= 4 AND SUM(P.w) < 100 MAXIMIZE SUM(P.w)",
            99.0,
        ),
        (
            fractional(),
            "COUNT(*) <= 2 AND SUM(P.w) < 22.5 MAXIMIZE SUM(P.w)",
            22.25,
        ),
    ];
    for (table, such_that, optimum) in cases {
        let mut catalog = Catalog::new();
        catalog.register(table);
        let engine = PackageEngine::new(catalog);
        let query = format!("SELECT PACKAGE(T) AS P FROM t T SUCH THAT {such_that}");
        let spec = engine.build_spec(&paql::parse(&query).unwrap()).unwrap();
        assert_eq!(
            engine.plan(&spec).unwrap().route.strategy,
            Strategy::Ilp,
            "{such_that}"
        );
        for strategy in [Strategy::PrunedEnumeration, Strategy::Ilp, Strategy::Auto] {
            let result = engine.execute_with_strategy(&spec, strategy).unwrap();
            assert!(result.optimal, "{strategy} on {such_that}");
            assert_eq!(
                result.best_objective(),
                Some(optimum),
                "{strategy} on {such_that}"
            );
        }
    }
}

#[test]
fn an_avg_objective_ranks_enumerated_packages() {
    // Enumeration ranks by each package's exact objective, so an AVG
    // objective it cannot linearize still picks the best package.
    let engine = engine(12, 3);
    let table = engine.catalog().table("recipes").unwrap();
    let mut protein: Vec<f64> = (0..table.len())
        .map(|i| {
            table
                .value_f64(minidb::TupleId(i as u32), "protein")
                .unwrap()
        })
        .collect();
    protein.sort_by(|a, b| b.total_cmp(a));
    let result = engine
        .execute_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 MAXIMIZE AVG(P.protein)",
        )
        .unwrap();
    assert_eq!(result.stats.strategy, StrategyUsed::PrunedEnumeration);
    assert!(result.optimal);
    assert_eq!(
        result.best_objective(),
        Some((protein[0] + protein[1]) / 2.0)
    );
}

#[test]
fn a_sum_whose_filter_admits_no_candidate_satisfies_no_atom() {
    use packagebuilder::package::Package;
    use packagebuilder::pruning::derive_bounds;
    // SUM over no included member is NULL, so the atom fails whichever way
    // it compares: pruning derives nothing from it, and every strategy
    // comes home empty, resident and paged alike.
    let strategies = [
        Strategy::Auto,
        Strategy::Ilp,
        Strategy::PrunedEnumeration,
        Strategy::Exhaustive,
        Strategy::LocalSearch,
        Strategy::Greedy,
        Strategy::Portfolio,
        Strategy::SketchRefine,
        Strategy::ProgressiveShading,
    ];
    let base = "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) BETWEEN 1 AND 4";
    for op in [">=", "<="] {
        let query =
            format!("{base} AND SUM(P.w) FILTER (WHERE T.w < 0) {op} 100 MAXIMIZE SUM(P.v)");
        let mut runs = Vec::new();
        for budget in [usize::MAX, 0] {
            let mut catalog = Catalog::new();
            catalog.register(datagen::uniform_table("t", 10, 5.0, 20.0, Seed(3)));
            let config = EngineConfig::default()
                .with_column_memory_budget(budget)
                .with_pool_pages(2);
            let engine = PackageEngine::with_config(catalog, config);
            let spec = engine.build_spec(&paql::parse(&query).unwrap()).unwrap();
            assert_eq!(spec.view().is_paged(), budget == 0);
            let without = format!("{base} MAXIMIZE SUM(P.v)");
            let without = engine.build_spec(&paql::parse(&without).unwrap()).unwrap();
            assert_eq!(
                derive_bounds(spec.view()),
                derive_bounds(without.view()),
                "{op}"
            );
            for k in 1..=4 {
                let p = Package::from_ids(spec.candidates.iter().copied().take(k));
                assert!(!spec.is_valid_interpreted(&p).unwrap(), "{op}: {k} members");
            }
            for strategy in strategies {
                let r = engine.execute_with_strategy(&spec, strategy).unwrap();
                assert!(r.is_empty(), "{strategy} on {op}");
                runs.push((strategy, r.optimal, r.stats.nodes));
            }
            // A race sums its workers' counters, and how far a heuristic
            // worker gets before the exact worker's proof cancels it is
            // timing. The proof always finishes, and no worker does more
            // than its own forced run: the race's nodes lie between the
            // forced ILP's and the sum of every worker's forced nodes.
            let side = &runs[runs.len() - strategies.len()..];
            let forced = |s: Strategy| side.iter().find(|r| r.0 == s).unwrap().2;
            let workers = &engine.config().portfolio_workers;
            let most: u64 = workers.iter().map(|&w| forced(w)).sum();
            let race = forced(Strategy::Portfolio);
            assert!(
                (forced(Strategy::Ilp)..=most).contains(&race),
                "{op}: race {race} nodes, forced ILP {}, workers {workers:?} {most}",
                forced(Strategy::Ilp)
            );
        }
        // Every forced strategy counts the same work resident and paged; the
        // race is bounded on each side above.
        let blind = |r: &(Strategy, bool, u64)| match r.0 {
            Strategy::Portfolio => (r.0, r.1, 0),
            _ => *r,
        };
        let (resident, paged) = runs.split_at(strategies.len());
        let resident: Vec<_> = resident.iter().map(blind).collect();
        let paged: Vec<_> = paged.iter().map(blind).collect();
        assert_eq!(resident, paged, "{op}");
    }
}
