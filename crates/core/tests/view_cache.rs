//! Engine-level tests of the cross-query view cache ([`packagebuilder::cache`]):
//! warm solves must be bit-identical to cold solves, relation mutation must
//! never serve a stale view, and the cached building blocks (columns,
//! partitionings) must actually be reused.

use std::sync::Arc;

use datagen::{recipes, Seed};
use minidb::{Catalog, Table, Tuple, Value};
use packagebuilder::budget::Budget;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::par::ParExec;
use packagebuilder::{Package, PackageEngine, PackageResult, ViewCache};

const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

const SMALL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)";

fn engine(n: usize, seed: u64, config: EngineConfig) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(recipes(n, Seed(seed)));
    PackageEngine::with_config(catalog, config)
}

/// A recipe row no generated recipe can beat: tiny calories, huge protein.
fn super_recipe(id: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(id),
        Value::Text("engineered protein bar".into()),
        Value::Text("snack".into()),
        Value::Text("american".into()),
        Value::Float(100.0), // calories
        Value::Float(500.0), // protein
        Value::Float(1.0),   // fat
        Value::Float(1.0),   // carbs
        Value::Float(0.0),   // sugar
        Value::Float(50.0),  // sodium
        Value::Float(0.0),   // fiber
        Value::Text("free".into()),
        Value::Bool(true),
        Value::Int(1),
        Value::Float(2.0),
        Value::Float(5.0),
    ])
}

#[test]
fn warm_solves_are_bit_identical_to_cold_solves() {
    // Same engine, same query, every strategy that Auto can deploy plus the
    // sketch path the cache most benefits: the second (cached) solve must
    // return exactly the first solve's package — the race's included.
    for strategy in [
        Strategy::Auto,
        Strategy::Ilp,
        Strategy::SketchRefine,
        Strategy::LocalSearch,
        Strategy::Greedy,
        Strategy::Portfolio,
    ] {
        let e = engine(
            2_000,
            11,
            EngineConfig::with_strategy(strategy).with_seed(11),
        );
        let cold = e.execute_paql(MEAL_QUERY).unwrap();
        let warm = e.execute_paql(MEAL_QUERY).unwrap();
        assert_eq!(
            cold.best(),
            warm.best(),
            "{strategy:?}: warm package differs from cold"
        );
        assert_eq!(cold.objectives, warm.objectives, "{strategy:?}");
        let stats = e.view_cache().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{strategy:?}");
        // The hit rebuilt nothing: every column came from the bank.
        assert_eq!(stats.columns_built, 3, "{strategy:?}");
        assert_eq!(stats.columns_reused, 3, "{strategy:?}");
    }
}

#[test]
fn cached_engines_agree_with_uncached_engines() {
    let cached = engine(1_500, 3, EngineConfig::default().with_seed(3));
    let uncached = engine(
        1_500,
        3,
        EngineConfig::default()
            .with_seed(3)
            .with_view_cache_capacity(0),
    );
    let a = cached.execute_paql(MEAL_QUERY).unwrap();
    let b = cached.execute_paql(MEAL_QUERY).unwrap(); // warm
    let c = uncached.execute_paql(MEAL_QUERY).unwrap();
    assert_eq!(a.best(), c.best());
    assert_eq!(b.best(), c.best());
    assert_eq!(uncached.view_cache().stats().misses, 0, "cache disabled");
    assert!(uncached.view_cache().is_empty());
}

#[test]
fn mutating_the_relation_never_serves_a_stale_view() {
    // The regression the cache must not introduce: solve, mutate the base
    // table, solve again — the second answer must reflect the new contents.
    let mut e = engine(60, 5, EngineConfig::with_strategy(Strategy::Ilp));
    let before = e.execute_paql(SMALL_QUERY).unwrap();
    let stale_objective = before.best_objective().unwrap();

    let id = e.catalog().table("recipes").unwrap().len() as i64;
    e.catalog_mut()
        .table_mut("recipes")
        .unwrap()
        .insert(super_recipe(id))
        .unwrap();

    let after = e.execute_paql(SMALL_QUERY).unwrap();
    let fresh_objective = after.best_objective().unwrap();
    assert!(
        fresh_objective > stale_objective + 100.0,
        "stale view served: {fresh_objective} vs {stale_objective}"
    );
    // The engineered recipe is in the winning package.
    let best = after.best().unwrap();
    assert!(best.tuple_ids().iter().any(|t| t.index() == id as usize));
    // Both solves were misses — the fingerprint moved, nothing could hit.
    let stats = e.view_cache().stats();
    assert_eq!((stats.misses, stats.hits), (2, 0));

    // And a from-scratch engine over the same mutated catalog agrees.
    let fresh = PackageEngine::new(e.catalog().clone());
    let oracle = fresh.execute_paql(SMALL_QUERY).unwrap();
    assert_eq!(after.best(), oracle.best());
}

#[test]
fn re_registering_a_relation_invalidates_too() {
    let mut e = engine(80, 7, EngineConfig::with_strategy(Strategy::Ilp));
    let before = e.execute_paql(SMALL_QUERY).unwrap();
    // Replace the relation wholesale with a differently-seeded table.
    e.catalog_mut().register(recipes(80, Seed(8)));
    let after = e.execute_paql(SMALL_QUERY).unwrap();
    let fresh = PackageEngine::new(e.catalog().clone());
    assert_eq!(
        after.best_objective(),
        fresh.execute_paql(SMALL_QUERY).unwrap().best_objective()
    );
    // (The two seeds may coincidentally share an objective; the strong
    // assertion is agreement with the oracle plus the forced miss below.)
    assert_eq!(e.view_cache().stats().hits, 0);
    assert_eq!(e.view_cache().stats().misses, 2);
    let _ = before;
}

#[test]
fn partitioning_is_computed_once_across_repeated_queries() {
    let e = engine(1_000, 9, EngineConfig::default().with_seed(9));
    let query = paql::parse(MEAL_QUERY).unwrap();
    let spec_a = e.build_spec(&query).unwrap();
    let spec_b = e.build_spec(&query).unwrap();
    let pa = spec_a
        .view()
        .partitioning(64, 9, &Budget::unlimited(), ParExec::sequential())
        .unwrap();
    let pb = spec_b
        .view()
        .partitioning(64, 9, &Budget::unlimited(), ParExec::sequential())
        .unwrap();
    assert!(
        Arc::ptr_eq(&pa, &pb),
        "second spec re-partitioned instead of pulling the memo"
    );
    assert_eq!(pa.len(), pb.len());
}

/// What a warm solve must repeat of a cold one: the packages, the objective
/// bits and the solver work (`nodes`, `iterations`, `cold_solves`).
fn answer_and_work(r: &PackageResult) -> (Vec<Package>, Vec<Option<u64>>, u64, u64, u64) {
    let bits = r.objectives.iter().map(|o| o.map(f64::to_bits)).collect();
    let s = &r.stats;
    (
        r.packages.clone(),
        bits,
        s.nodes,
        s.iterations,
        s.cold_solves,
    )
}

/// An engine over `table` alone, forced to `strategy`.
fn engine_over(table: Table, strategy: Strategy) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(catalog, EngineConfig::with_strategy(strategy))
}

/// `n` rows of the synthetic schema whose weights are 2.5, 4.5 or 6.5.
fn half_integer_weights(n: i64) -> Table {
    let mut table = Table::new("t", datagen::synthetic::synthetic_schema());
    for i in 0..n {
        let w = (2 + 2 * (i % 3)) as f64 + 0.5;
        let v = ((i * 37) % 101) as f64;
        let row = vec![Value::Int(i), Value::Float(w), Value::Float(v)];
        table
            .insert(Tuple::new([row, vec![Value::Float(0.5)]].concat()))
            .unwrap();
    }
    table
}

/// Runs `query` cold and then warm on one engine, and cold on a fresh one:
/// all three must return the same answer after the same work.
fn assert_warm_equals_cold(at: &str, engine: impl Fn() -> PackageEngine, query: &str) {
    let e = engine();
    let cold = answer_and_work(&e.execute_paql(query).unwrap());
    let warm = answer_and_work(&e.execute_paql(query).unwrap());
    let stats = e.view_cache().stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "{at}");
    let fresh = answer_and_work(&engine().execute_paql(query).unwrap());
    assert_eq!(cold, warm, "{at}: warm differs from cold");
    assert_eq!(cold, fresh, "{at}: cold differs from a fresh engine");
}

#[test]
fn warm_sketch_family_solves_equal_cold_and_fresh_ones_on_every_family() {
    // The view cache memoizes a solve's inputs (columns, partitionings),
    // never its answers: a warm repeat re-solves every sketch and the refine
    // ILP and must do exactly the work of the cold run.
    for strategy in [Strategy::SketchRefine, Strategy::ProgressiveShading] {
        for scenario in datagen::scenarios() {
            let n = scenario.gauntlet_sizes[0];
            let query = &scenario.queries[0];
            let engine = || engine_over((scenario.build)(n, Seed(20140901)), strategy);
            let at = format!("{}/{} at {n}, {strategy:?}", scenario.name, query.label);
            assert_warm_equals_cold(&at, engine, &query.text);
        }
        // A narrow window whose refine ILP is the solve's largest (its
        // drawn leaves' 100 members, 382 nodes with the sketch's).
        let window = || {
            engine_over(
                datagen::uniform_table("t", 400, 5.0, 20.0, Seed(3)),
                strategy,
            )
        };
        let query = "SELECT PACKAGE(T) AS P FROM t T \
            SUCH THAT COUNT(*) = 4 AND SUM(P.w) BETWEEN 50 AND 50.1 MAXIMIZE SUM(P.v)";
        assert_warm_equals_cold(&format!("narrow window, {strategy:?}"), window, query);
        // No registry query makes the refine ILP find nothing. This window
        // does: every weight is 2.5, 4.5 or 6.5, so two members sum to an
        // odd integer and never land in `[9.2, 9.8]`, while the leaf means
        // let the sketch draw two. The ILP is proven infeasible (265 nodes),
        // so the fallback runs: each drawn leaf is greedy-filled with its
        // count, and the repair pass tries to mend the fill.
        let parity = || engine_over(half_integer_weights(280), strategy);
        let query = "SELECT PACKAGE(T) AS P FROM t T \
            SUCH THAT COUNT(*) = 2 AND SUM(P.w) BETWEEN 9.2 AND 9.8 MAXIMIZE SUM(P.v)";
        assert_warm_equals_cold(&format!("parity window, {strategy:?}"), parity, query);
    }
}

#[test]
fn a_warm_minimize_after_a_maximize_equals_a_cold_minimize() {
    // Both directions of one SUCH THAT clause share a term signature, hence a
    // bank and its `PartitionMemo`, and their ILPs differ in nothing but
    // the sense: a MINIMIZE after a MAXIMIZE on one engine must equal a
    // MINIMIZE on a fresh engine down to the counters.
    let query = |direction: &str| {
        format!(
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 2500 {direction} SUM(P.protein)"
        )
    };
    for strategy in [Strategy::SketchRefine, Strategy::ProgressiveShading] {
        let shared = engine(40, 20140901, EngineConfig::with_strategy(strategy));
        shared.execute_paql(&query("MAXIMIZE")).unwrap();
        let after = shared.execute_paql(&query("MINIMIZE")).unwrap();
        let fresh = engine(40, 20140901, EngineConfig::with_strategy(strategy))
            .execute_paql(&query("MINIMIZE"))
            .unwrap();
        assert_eq!(
            answer_and_work(&after),
            answer_and_work(&fresh),
            "{strategy:?}"
        );
    }
}

#[test]
fn engines_can_share_a_cache() {
    let cache = ViewCache::new(8);
    let mut catalog = Catalog::new();
    catalog.register(recipes(400, Seed(13)));
    let a =
        PackageEngine::with_shared_cache(catalog.clone(), EngineConfig::default(), cache.clone());
    let b = PackageEngine::with_shared_cache(catalog, EngineConfig::default(), cache.clone());
    let ra = a.execute_paql(MEAL_QUERY).unwrap();
    let rb = b.execute_paql(MEAL_QUERY).unwrap(); // warm, via a's work
    assert_eq!(ra.best(), rb.best());
    assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
    // Cloned engines share too (a clone is another session over the cache).
    let c = a.clone();
    c.execute_paql(MEAL_QUERY).unwrap();
    assert_eq!(cache.stats().hits, 2);
}

#[test]
fn explicit_invalidation_reclaims_entries() {
    let e = engine(200, 17, EngineConfig::default());
    e.execute_paql(MEAL_QUERY).unwrap();
    assert_eq!(e.view_cache().len(), 1);
    e.invalidate_relation("recipes");
    assert!(e.view_cache().is_empty());
    // Next solve rebuilds and re-banks; correctness is unaffected.
    let again = e.execute_paql(MEAL_QUERY).unwrap();
    assert!(!again.is_empty());
    assert_eq!(e.view_cache().len(), 1);
}

#[test]
fn term_subset_queries_extend_rather_than_rebuild() {
    let e = engine(500, 19, EngineConfig::default());
    // Prime with a narrower query (2 terms), then run the meal query (3
    // terms): only SUM(protein) should be materialized the second time.
    e.execute_paql(
        "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
         SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500",
    )
    .unwrap();
    e.execute_paql(MEAL_QUERY).unwrap();
    let stats = e.view_cache().stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    assert_eq!(stats.columns_reused, 2);
    assert_eq!(stats.columns_built, 3, "2 on the miss + 1 extension");
}
