//! Sketch→refine contract suite.
//!
//! Three properties, exercised over all four datagen scenarios (recipes,
//! stocks, travel, synthetic uniform):
//!
//! * **validity** — every package the solver returns passes full engine
//!   validation (the interpreted oracle, independent of the columnar view);
//! * **quality floor** — on linearizable queries the objective is never
//!   worse than [`Strategy::Greedy`]'s, and sketch→refine finds a package
//!   whenever greedy does;
//! * **determinism** — same seed ⇒ identical partitioning and identical
//!   package, across independently built engines.
//!
//! Plus the planner policy: at or above [`SKETCH_THRESHOLD`] candidates,
//! `Auto` stops trusting the monolithic ILP's latency for linearizable
//! single-package queries and races a portfolio (whose workers include
//! sketch→refine, with the exact worker node-capped). Every boundary of
//! the pure `packagebuilder::config::auto_route` is pinned by its table;
//! here the engine is driven across this one end to end.

use datagen::{recipes, stocks, travel_options, uniform_table, Seed};
use minidb::{Catalog, Table, Tuple, Value};
use packagebuilder::config::{EngineConfig, Strategy, SKETCH_THRESHOLD};
use packagebuilder::partition::partition_view;
use packagebuilder::result::StrategyUsed;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{Package, PackageEngine};
use paql::ObjectiveDirection;

/// The four scenario relations with one linearizable query each, at a size
/// where the sketch has real partitions to work with.
fn scenarios(seed: u64) -> Vec<(Table, &'static str)> {
    vec![
        (
            recipes(1_200, Seed(seed)),
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        ),
        (
            stocks(1_000, Seed(seed)),
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT COUNT(*) BETWEEN 3 AND 12 AND SUM(P.price) <= 30000 \
             MAXIMIZE SUM(P.expected_return)",
        ),
        (
            travel_options(600, 400, 150, Seed(seed)),
            "SELECT PACKAGE(T) AS P FROM travel_options T \
             SUCH THAT COUNT(*) FILTER (WHERE T.kind = 'flight') = 1 AND \
                       COUNT(*) FILTER (WHERE T.kind = 'hotel') = 1 AND \
                       SUM(P.price) <= 2000 \
             MAXIMIZE SUM(P.comfort)",
        ),
        (
            uniform_table("t", 1_000, 5.0, 20.0, Seed(seed)),
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) = 5 AND SUM(P.w) BETWEEN 40 AND 70 \
             MAXIMIZE SUM(P.v)",
        ),
    ]
}

fn engine_for(table: Table, strategy: Strategy, seed: u64) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(
        catalog,
        EngineConfig::with_strategy(strategy).with_seed(seed),
    )
}

#[test]
fn refined_packages_are_valid_and_never_worse_than_greedy_on_every_scenario() {
    for data_seed in [1u64, 7, 20140901] {
        for (table, query) in scenarios(data_seed) {
            let name = table.name().to_string();
            let parsed = paql::parse(query).unwrap();
            let engine = engine_for(table, Strategy::SketchRefine, 42);
            let spec = engine.build_spec(&parsed).unwrap();
            let sketch = engine
                .execute_with_strategy(&spec, Strategy::SketchRefine)
                .unwrap_or_else(|e| panic!("{name}: sketch-refine failed: {e}"));
            let greedy = engine
                .execute_with_strategy(&spec, Strategy::Greedy)
                .unwrap();
            // Validity is already enforced by the engine's interpreted
            // re-check; assert through the spec as well for a loud message.
            for p in &sketch.packages {
                assert!(spec.is_valid(p).unwrap(), "{name}: invalid package");
            }
            assert!(
                !sketch.optimal,
                "{name}: sketch-refine must not claim optimality"
            );
            if !greedy.is_empty() {
                assert!(
                    !sketch.is_empty(),
                    "{name}: greedy found a package but sketch-refine did not"
                );
                let direction = spec
                    .objective
                    .as_ref()
                    .map(|o| o.direction)
                    .unwrap_or(ObjectiveDirection::Maximize);
                let s = sketch.best_objective();
                let g = greedy.best_objective();
                assert!(
                    s == g || Package::better_objective(direction, s, g),
                    "{name}: sketch-refine objective {s:?} worse than greedy {g:?}"
                );
            }
        }
    }
}

#[test]
fn same_seed_means_identical_partitioning_and_package() {
    for (table, query) in scenarios(5) {
        let name = table.name().to_string();
        // Partitioning: rebuild the spec twice from scratch.
        let analyzed = paql::compile(query, table.schema()).unwrap();
        let spec_a = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        let spec_b = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        let part_a = partition_view(spec_a.view(), 64, 42);
        let part_b = partition_view(spec_b.view(), 64, 42);
        assert_eq!(part_a.len(), part_b.len(), "{name}: partition count");
        for (x, y) in part_a.partitions().iter().zip(part_b.partitions()) {
            assert_eq!(x.members, y.members, "{name}: members differ");
            assert_eq!(x.centroid, y.centroid, "{name}: centroids differ");
        }
        // Package: two independently built engines, same seed.
        let run = || {
            let mut catalog = Catalog::new();
            catalog.register(table.clone());
            let engine = PackageEngine::with_config(
                catalog,
                EngineConfig::with_strategy(Strategy::SketchRefine).with_seed(42),
            );
            engine.execute_paql(query).unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(first.packages, second.packages, "{name}: packages differ");
        assert_eq!(
            first.objectives, second.objectives,
            "{name}: objectives differ"
        );
        assert_eq!(
            first.stats.nodes, second.stats.nodes,
            "{name}: nodes differ"
        );
    }
}

#[test]
fn auto_races_a_portfolio_for_large_linearizable_queries() {
    // No WHERE clause, so every row is a candidate.
    let query = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
         MAXIMIZE SUM(P.protein)",
    )
    .unwrap();
    let engine_over = |rows: usize, config: EngineConfig| {
        let mut catalog = Catalog::new();
        catalog.register(recipes(rows, Seed(11)));
        PackageEngine::with_config(catalog, config)
    };
    let engine = engine_over(SKETCH_THRESHOLD, EngineConfig::default());
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(spec.candidate_count(), SKETCH_THRESHOLD);
    assert_eq!(
        engine.plan(&spec).unwrap().route.strategy,
        Strategy::Portfolio
    );
    let result = engine.execute_spec(&spec).unwrap();
    assert_eq!(result.stats.strategy, StrategyUsed::Portfolio);
    assert!(!result.is_empty());
    assert!(spec.is_valid(result.best().unwrap()).unwrap());
    // Below the threshold the exact ILP keeps the job.
    let engine = engine_over(SKETCH_THRESHOLD - 1, EngineConfig::default());
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(engine.plan(&spec).unwrap().route.strategy, Strategy::Ilp);
    // A top-k request also keeps the exact ILP (sketch→refine returns a
    // single approximate package and must not silently drop the other k−1).
    let engine = engine_over(SKETCH_THRESHOLD, EngineConfig::default().packages(5));
    let spec = engine.build_spec(&query).unwrap();
    assert_eq!(engine.plan(&spec).unwrap().route.strategy, Strategy::Ilp);
    let result = engine.execute_spec(&spec).unwrap();
    assert_eq!(result.len(), 5, "top-k must survive the sketch threshold");
}

#[test]
fn avg_constrained_queries_route_to_ilp_and_match_the_enumeration_oracle() {
    // Planner-level acceptance for the AVG linearization: AVG-vs-constant is
    // linear now, so `Auto` hands it to the ILP (not local search), and the
    // ILP optimum agrees with the exact enumeration oracle on small inputs.
    let mut catalog = Catalog::new();
    catalog.register(recipes(200, Seed(3)));
    let engine = PackageEngine::new(catalog);
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 3 AND AVG(P.calories) BETWEEN 400 AND 700 \
         MAXIMIZE SUM(P.protein)";
    let result = engine.execute_paql(query).unwrap();
    assert_eq!(result.stats.strategy, StrategyUsed::Ilp);
    assert!(result.optimal);

    let mut catalog = Catalog::new();
    catalog.register(recipes(16, Seed(3)));
    let engine = PackageEngine::new(catalog);
    let parsed = paql::parse(query).unwrap();
    let spec = engine.build_spec(&parsed).unwrap();
    let ilp = engine.execute_with_strategy(&spec, Strategy::Ilp).unwrap();
    let oracle = engine
        .execute_with_strategy(&spec, Strategy::PrunedEnumeration)
        .unwrap();
    assert!(oracle.optimal);
    match (ilp.best_objective(), oracle.best_objective()) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "ilp {a} vs oracle {b}"),
        (None, None) => {}
        other => panic!("ilp and oracle disagree on feasibility: {other:?}"),
    }
}

/// `(nodes, iterations, cold LPs, packages)` of `query` over `table` under
/// `config`.
fn work_of(table: Table, config: EngineConfig, query: &str) -> (u64, u64, u64, usize) {
    let mut catalog = Catalog::new();
    catalog.register(table);
    let engine = PackageEngine::with_config(catalog, config);
    let r = engine.execute_paql(query).unwrap();
    let s = &r.stats;
    (s.nodes, s.iterations, s.cold_solves, r.packages.len())
}

#[test]
fn the_narrow_windows_refine_to_a_package_and_report_every_ilp() {
    // Windows narrow enough that a leaf refined on its own against the
    // others' estimated contribution fails. One ILP over the drawn leaves'
    // members (100 here) finds a package; the count is its nodes plus the
    // sketch's.
    for strategy in [Strategy::SketchRefine, Strategy::ProgressiveShading] {
        let work = work_of(
            uniform_table("t", 400, 5.0, 20.0, Seed(3)),
            EngineConfig::with_strategy(strategy),
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) = 4 AND SUM(P.w) BETWEEN 50 AND 50.1 MAXIMIZE SUM(P.v)",
        );
        assert_eq!(work, (382, 1_991, 22, 1), "{strategy:?}");
    }
    // On this narrower window the greedy floor finds nothing; the ILP over
    // the drawn leaves' 312 members finds a package.
    let work = work_of(
        uniform_table("t", 2_000, 5.0, 20.0, Seed(3)),
        EngineConfig::with_strategy(Strategy::SketchRefine),
        "SELECT PACKAGE(T) AS P FROM t T \
         SUCH THAT COUNT(*) = 6 AND SUM(P.w) BETWEEN 70 AND 70.001 MAXIMIZE SUM(P.v)",
    );
    assert_eq!(work, (119_711, 364_679, 2_435, 1));
}

#[test]
fn a_refine_ilp_that_finds_nothing_still_reports_its_work() {
    // Every weight is 2.5, 4.5 or 6.5, so two members sum to an odd integer
    // and never land in `[9.2, 9.8]`; the leaf means are not so bound, and
    // the sketch draws two members (3 nodes). The refine ILP over the drawn
    // leaves' 35 members proves that infeasible in 265 nodes and reports
    // them; the greedy fills and the repair find nothing either, and no
    // package comes back.
    let mut table = Table::new("t", datagen::synthetic::synthetic_schema());
    for i in 0..280i64 {
        let w = (2 + 2 * (i % 3)) as f64 + 0.5;
        let v = ((i * 37) % 101) as f64;
        table
            .insert(Tuple::new(vec![
                Value::Int(i),
                Value::Float(w),
                Value::Float(v),
                Value::Float(0.5),
            ]))
            .unwrap();
    }
    for strategy in [Strategy::SketchRefine, Strategy::ProgressiveShading] {
        let work = work_of(
            table.clone(),
            EngineConfig::with_strategy(strategy),
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) = 2 AND SUM(P.w) BETWEEN 9.2 AND 9.8 MAXIMIZE SUM(P.v)",
        );
        assert_eq!(work, (3 + 265, 1_390, 2, 0), "{strategy:?}");
    }
}
