//! Regression tests distilled from the workload gauntlet (the `gauntlet`
//! rows of `pb-bench`'s experiment table, `harness -- gauntlet`): each test
//! pins an engine behaviour the gauntlet's adversarial scenario families
//! first surfaced, at a size small enough for the tier-1 suite.

use datagen::{scenario, Seed};
use minidb::{Catalog, Table};
use packagebuilder::config::{EngineConfig, Strategy, AUTO_EXACT_NODE_CAP};
use packagebuilder::pruning::derive_bounds;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{PackageEngine, PackageResult};
use paql::{compile, parse};

fn engine_for(table: Table, strategy: Strategy) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(catalog, EngineConfig::with_strategy(strategy).with_seed(42))
}

fn run(table: Table, strategy: Strategy, query: &str) -> PackageResult {
    engine_for(table, strategy)
        .execute_paql(query)
        .unwrap_or_else(|e| panic!("{strategy:?} failed: {e}"))
}

/// The tight-feasibility knapsack: `SUM(weight) BETWEEN 98 AND 102` over a
/// population whose high-value "decoy" rows push a density-greedy pick far
/// over the window, so the greedy construction alone lands infeasible and
/// only cross-population repair (or honestly reporting no package) is
/// acceptable. The engine contract under test: a `Greedy` result is either
/// a *repaired feasible* package or empty — never a silently invalid
/// package handed back as a solution.
#[test]
fn greedy_on_the_tight_knapsack_window_is_repaired_feasible_or_empty() {
    let s = scenario("knapsack").expect("knapsack family is registered");
    let q = &s.queries[0];
    assert_eq!(q.label, "tight_window");
    assert!(q.expect_feasible);

    // The window is genuinely satisfiable: the exact route returns a valid
    // incumbent, which witnesses feasibility even when the optimality
    // *proof* is truncated at the branch-and-bound node cap (the
    // near-identical planted weights make the window highly symmetric, a
    // worst case for bound-based pruning).
    let exact = run((s.build)(s.exact_n, Seed(1)), Strategy::Ilp, &q.text);
    assert!(
        !exact.is_empty(),
        "the tight window must be feasible for this test to mean anything"
    );

    for seed in [1u64, 7, 23] {
        let table = (s.build)(s.exact_n, Seed(seed));
        let analyzed = compile(&q.text, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        // `execute_paql` returning Ok is itself part of the contract: an
        // invalid package would make the engine's internal re-validation
        // return an error instead.
        let greedy = run((s.build)(s.exact_n, Seed(seed)), Strategy::Greedy, &q.text);
        for p in &greedy.packages {
            assert!(
                spec.is_valid_interpreted(p).unwrap(),
                "seed {seed}: greedy returned an invalid package"
            );
        }
    }
}

/// An unreachable FILTERed SUM target on the wide family:
/// `derive_bounds` must prove infeasibility from chunk metadata alone —
/// the filtered value range caps what any package can reach.
#[test]
fn unreachable_filtered_sum_targets_are_proven_infeasible_by_pruning() {
    let s = scenario("wide").expect("wide family is registered");
    let q = s
        .queries
        .iter()
        .find(|q| q.label == "unreachable_target")
        .expect("the wide family registers its unreachable query");
    assert!(!q.expect_feasible);

    let table = (s.build)(s.property_n, Seed(5));
    let analyzed = compile(&q.text, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    let bounds = derive_bounds(spec.view())
        .clamp_to(spec.candidate_count() as u64 * spec.view().max_multiplicity() as u64);
    assert!(
        bounds.is_empty(),
        "chunk metadata must prove the 10^9 filtered target unreachable, got {bounds:?}"
    );
}

/// The same proof at the engine level: the contradiction short-circuits in
/// `run_plan` before any solver runs, for *every* strategy — an empty,
/// provably-optimal answer with zero search nodes, in microseconds.
#[test]
fn the_engine_short_circuits_provably_infeasible_queries_before_solving() {
    let s = scenario("wide").expect("wide family is registered");
    let q = s
        .queries
        .iter()
        .find(|q| q.label == "unreachable_target")
        .unwrap();
    for strategy in [
        Strategy::Auto,
        Strategy::Ilp,
        Strategy::PrunedEnumeration,
        Strategy::LocalSearch,
        Strategy::Greedy,
        Strategy::SketchRefine,
        Strategy::Portfolio,
    ] {
        let r = run((s.build)(s.property_n, Seed(5)), strategy, &q.text);
        assert!(r.is_empty(), "{strategy:?}: expected no package");
        assert!(
            r.optimal,
            "{strategy:?}: a proven contradiction is an exact (optimal) answer"
        );
        assert_eq!(
            r.stats.nodes, 0,
            "{strategy:?}: the proof must precede any search"
        );
    }
}

/// The knapsack family's unreachable window (`SUM(weight) BETWEEN 1 AND 40`
/// with `COUNT(*) = 5` over weights ≥ 19.6) is likewise proven infeasible
/// from the paper's cardinality rules: ⌊40 / MIN(weight)⌋ = 2 < 5.
#[test]
fn contradictory_knapsack_windows_short_circuit_from_cardinality_bounds() {
    let s = scenario("knapsack").expect("knapsack family is registered");
    let q = s
        .queries
        .iter()
        .find(|q| q.label == "unreachable_window")
        .expect("the knapsack family registers its unreachable query");
    assert!(!q.expect_feasible);

    let table = (s.build)(s.property_n, Seed(3));
    let analyzed = compile(&q.text, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    let bounds = derive_bounds(spec.view())
        .clamp_to(spec.candidate_count() as u64 * spec.view().max_multiplicity() as u64);
    assert!(
        bounds.is_empty(),
        "expected contradictory bounds: {bounds:?}"
    );

    let r = run((s.build)(s.property_n, Seed(3)), Strategy::Auto, &q.text);
    assert!(r.is_empty() && r.optimal && r.stats.nodes == 0);
}

/// Pins the `Auto` route per gauntlet family and size. The gauntlet
/// surfaced the misroute this guards against: the old policy handed
/// *every* large linearizable query to sketch→refine unconditionally, so
/// the lineitem family paid a ~2% objective gap (and the travel family
/// came home empty on a feasible query) at sizes where the exact proof is
/// milliseconds-cheap. Above `SKETCH_THRESHOLD`, `Auto` now races a
/// portfolio instead — the node-capped exact worker wins outright where
/// the proof is cheap, and the heuristic workers carry the query where it
/// is not.
#[test]
fn auto_routes_each_gauntlet_family_as_pinned() {
    // (family, rows, expected route for the family's first gauntlet query).
    // Routing keys off the *candidate* count, i.e. rows surviving the
    // query's base predicate — which is why recipes@500 pins `Ilp` while
    // lineitem@10_000 pins `Portfolio`.
    let cases: &[(&str, usize, Strategy)] = &[
        ("recipes", 500, Strategy::Ilp),
        ("recipes", 8_000, Strategy::Portfolio),
        ("stocks", 500, Strategy::Ilp),
        ("stocks", 8_000, Strategy::Portfolio),
        ("knapsack", 400, Strategy::Ilp),
        ("metrics", 1_000, Strategy::Ilp),
        ("wide", 600, Strategy::Ilp),
        ("lineitem", 10_000, Strategy::Portfolio),
    ];
    for &(family, n, expected) in cases {
        let s = scenario(family).unwrap_or_else(|| panic!("{family} is registered"));
        let q = &s.queries[0];
        let engine = engine_for((s.build)(n, Seed(1)), Strategy::Auto);
        let query = parse(&q.text).unwrap();
        let spec = engine.build_spec(&query).unwrap();
        assert_eq!(
            engine.plan(&spec).unwrap().route.strategy,
            expected,
            "{family}@{n} ({})",
            q.label
        );
    }
}

/// The `Auto` portfolio route must node-cap its exact worker — that cap is
/// what bounds the race's latency on branching-hostile instances — while a
/// caller *forcing* `Strategy::Portfolio` keeps the solver's own limits.
#[test]
fn the_auto_portfolio_route_node_caps_its_exact_worker() {
    let s = scenario("recipes").expect("recipes family is registered");
    let q = &s.queries[0];
    let engine = engine_for((s.build)(8_000, Seed(1)), Strategy::Auto);
    let query = parse(&q.text).unwrap();
    let spec = engine.build_spec(&query).unwrap();

    let auto_plan = engine.plan(&spec).unwrap();
    assert_eq!(auto_plan.route.strategy, Strategy::Portfolio);
    assert_eq!(auto_plan.route.node_cap, Some(AUTO_EXACT_NODE_CAP));
    assert_eq!(
        auto_plan.options.solver.max_nodes, AUTO_EXACT_NODE_CAP,
        "the policy-chosen race must cap its exact worker"
    );

    let forced = engine
        .plan_with_strategy(&spec, Strategy::Portfolio)
        .unwrap();
    assert_eq!(forced.route.node_cap, None);
    assert_eq!(
        forced.options.solver.max_nodes,
        engine.config().solver.max_nodes,
        "a forced race keeps the caller's solver limits"
    );
}
