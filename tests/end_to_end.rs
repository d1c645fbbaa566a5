//! Cross-crate integration tests: PaQL text → parser → analyzer → engine →
//! packages, over the synthetic datasets, for all three scenarios the paper's
//! introduction motivates.

use packagebuilder_repro::datagen::{recipes, standard_catalog, stocks, travel_options, Seed};
use packagebuilder_repro::minidb::Catalog;
use packagebuilder_repro::packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder_repro::packagebuilder::PackageEngine;
use packagebuilder_repro::paql;

const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

#[test]
fn meal_planner_scenario_finds_a_valid_optimal_plan() {
    let mut catalog = Catalog::new();
    catalog.register(recipes(500, Seed(1)));
    let engine = PackageEngine::new(catalog);
    let result = engine.execute_paql(MEAL_QUERY).unwrap();
    assert!(result.optimal);
    let plan = result.best().expect("a feasible 3-meal plan exists");
    assert_eq!(plan.cardinality(), 3);

    // Re-verify every constraint directly against the raw table.
    let table = engine.catalog().table("recipes").unwrap();
    let mut calories = 0.0;
    for (tid, mult) in plan.members() {
        assert_eq!(mult, 1, "default REPEAT allows each recipe once");
        let row = table.require(tid).unwrap();
        assert_eq!(row.get_named("gluten").unwrap().to_string(), "free");
        calories += row.get_f64("calories").unwrap();
    }
    assert!(
        (2000.0..=2500.0).contains(&calories),
        "total calories {calories}"
    );
}

#[test]
fn vacation_planner_scenario_respects_the_budget_and_kind_constraints() {
    let mut catalog = Catalog::new();
    catalog.register(travel_options(400, 300, 100, Seed(2)));
    let engine = PackageEngine::new(catalog);
    let result = engine
        .execute_paql(
            "SELECT PACKAGE(T) AS P FROM travel_options T \
             SUCH THAT COUNT(*) FILTER (WHERE T.kind = 'flight') = 1 AND \
                       COUNT(*) FILTER (WHERE T.kind = 'hotel') = 1 AND \
                       COUNT(*) FILTER (WHERE T.kind = 'car') <= 1 AND \
                       SUM(P.price) FILTER (WHERE T.kind <> 'car') <= 2000 \
             MAXIMIZE SUM(P.comfort)",
        )
        .unwrap();
    let package = result.best().expect("a budget vacation exists");
    let table = engine.catalog().table("travel_options").unwrap();
    let mut flights = 0;
    let mut hotels = 0;
    let mut cars = 0;
    let mut core_price = 0.0;
    for (tid, _) in package.members() {
        let row = table.require(tid).unwrap();
        match row.get_named("kind").unwrap().to_string().as_str() {
            "flight" => {
                flights += 1;
                core_price += row.get_f64("price").unwrap();
            }
            "hotel" => {
                hotels += 1;
                core_price += row.get_f64("price").unwrap();
            }
            "car" => cars += 1,
            other => panic!("unexpected kind {other}"),
        }
    }
    assert_eq!(flights, 1);
    assert_eq!(hotels, 1);
    assert!(cars <= 1);
    assert!(
        core_price <= 2000.0 + 1e-6,
        "flights + hotels cost {core_price}"
    );
}

#[test]
fn portfolio_scenario_enforces_the_technology_share() {
    let mut catalog = Catalog::new();
    catalog.register(stocks(800, Seed(3)));
    let engine = PackageEngine::new(catalog);
    let result = engine
        .execute_paql(
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT SUM(P.price) <= 50000 AND \
                       SUM(P.price) FILTER (WHERE S.sector = 'technology') >= 0.3 * SUM(P.price) AND \
                       COUNT(*) >= 5 \
             MAXIMIZE SUM(P.expected_return)",
        )
        .unwrap();
    let package = result.best().expect("a feasible portfolio exists");
    let table = engine.catalog().table("stocks").unwrap();
    let total: f64 = package
        .members()
        .map(|(id, _)| table.value_f64(id, "price").unwrap())
        .sum();
    let tech: f64 = package
        .members()
        .filter(|(id, _)| {
            table
                .require(*id)
                .unwrap()
                .get_named("sector")
                .unwrap()
                .to_string()
                == "technology"
        })
        .map(|(id, _)| table.value_f64(id, "price").unwrap())
        .sum();
    assert!(total <= 50_000.0 + 1e-6);
    assert!(tech >= 0.3 * total - 1e-6);
    assert!(package.cardinality() >= 5);
}

#[test]
fn all_strategies_agree_on_small_instances() {
    let mut catalog = Catalog::new();
    catalog.register(recipes(20, Seed(4)));
    let query = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 2200 MAXIMIZE SUM(P.protein)",
    )
    .unwrap();

    let mut objectives = Vec::new();
    for strategy in [
        Strategy::Exhaustive,
        Strategy::PrunedEnumeration,
        Strategy::Ilp,
    ] {
        let engine =
            PackageEngine::with_config(catalog.clone(), EngineConfig::with_strategy(strategy));
        let result = engine.execute(&query).unwrap();
        objectives.push(result.best_objective().expect("feasible"));
    }
    assert!(
        (objectives[0] - objectives[1]).abs() < 1e-6,
        "exhaustive vs pruned: {objectives:?}"
    );
    assert!(
        (objectives[0] - objectives[2]).abs() < 1e-6,
        "exhaustive vs ilp: {objectives:?}"
    );

    // Local search never exceeds the exact optimum.
    let engine =
        PackageEngine::with_config(catalog, EngineConfig::with_strategy(Strategy::LocalSearch));
    let ls = engine.execute(&query).unwrap();
    if let Some(obj) = ls.best_objective() {
        assert!(obj <= objectives[0] + 1e-6);
    }
}

#[test]
fn infeasible_queries_report_empty_results_not_errors() {
    let engine = PackageEngine::new(standard_catalog(Seed(5)));
    let result = engine
        .execute_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND SUM(P.calories) >= 1000000 MAXIMIZE SUM(P.protein)",
        )
        .unwrap();
    assert!(result.is_empty());
    let table = engine.catalog().table("recipes").unwrap();
    assert!(result.describe(table).contains("no valid package"));
}

#[test]
fn errors_surface_with_useful_messages() {
    let engine = PackageEngine::new(standard_catalog(Seed(6)));
    // Unknown relation.
    let err = engine
        .execute_paql("SELECT PACKAGE(X) AS P FROM nowhere X SUCH THAT COUNT(*) = 1")
        .unwrap_err();
    assert!(err.to_string().contains("nowhere"));
    // Unknown column.
    let err = engine
        .execute_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.sugarz > 1 SUCH THAT COUNT(*) = 1",
        )
        .unwrap_err();
    assert!(err.to_string().contains("sugarz"));
    // Syntax error with position information.
    let err =
        paql::parse("SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) === 3").unwrap_err();
    assert!(matches!(err, paql::PaqlError::Parse { .. }));
}

#[test]
fn repeat_packages_allow_and_bound_multiplicities() {
    let mut catalog = Catalog::new();
    catalog.register(recipes(40, Seed(7)));
    let engine = PackageEngine::new(catalog);
    let with_repeat = engine
        .execute_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 3 \
             SUCH THAT COUNT(*) = 4 AND SUM(P.calories) <= 5000 MAXIMIZE SUM(P.protein)",
        )
        .unwrap();
    let without = engine
        .execute_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 4 AND SUM(P.calories) <= 5000 MAXIMIZE SUM(P.protein)",
        )
        .unwrap();
    let p = with_repeat.best().unwrap();
    assert!(p.max_multiplicity() <= 3);
    // Allowing repetition can only improve (or match) the optimum.
    assert!(with_repeat.best_objective().unwrap() >= without.best_objective().unwrap() - 1e-6);
}

#[test]
fn multiple_packages_are_distinct_valid_and_ordered() {
    let mut catalog = Catalog::new();
    catalog.register(recipes(100, Seed(8)));
    let engine = PackageEngine::with_config(catalog, EngineConfig::default().packages(4));
    let query = paql::parse(
        "SELECT PACKAGE(R) AS P FROM recipes R \
         SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 MAXIMIZE SUM(P.protein)",
    )
    .unwrap();
    let result = engine.execute(&query).unwrap();
    assert_eq!(result.len(), 4);
    let spec = engine.build_spec(&query).unwrap();
    for p in &result.packages {
        assert!(spec.is_valid(p).unwrap());
    }
    for i in 0..result.packages.len() {
        for j in i + 1..result.packages.len() {
            assert_ne!(result.packages[i], result.packages[j]);
        }
    }
    for w in result.objectives.windows(2) {
        assert!(w[0].unwrap() >= w[1].unwrap() - 1e-6);
    }
}
