//! Parallel-determinism suite: chunked/parallel evaluation is **bit-identical
//! to the sequential path at every thread count**.
//!
//! The chunked columnar refactor fans view construction, partitioning,
//! greedy repair and the local search's neighbourhood scans out over
//! `ParExec` worker threads. The contract (see `packagebuilder::par`): chunk
//! boundaries are fixed and reductions combine in chunk order, so the thread
//! count may only change wall-clock — never packages, objectives, optimality
//! flags or even the evaluation counters. These tests pin that guarantee
//! across random queries over **every family in the scenario registry**
//! (`datagen::scenarios()`) × thread counts {1, 2, 8}, and separately pin
//! the anytime contract (budget expiry checked per chunk) under an 8-way
//! fan-out.

use std::time::{Duration, Instant};

use datagen::{recipes, scenario, scenarios, QueryParams, Seed};
use lp_solver::LpMatrix;
use minidb::{Catalog, Table};
use packagebuilder::budget::Budget;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::ilp::translate;
use packagebuilder::par::{ParExec, CHUNK_WIDTH};
use packagebuilder::solver::{GreedySolver, IlpSolver, LocalSearchSolver, SolveOptions, Solver};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{
    PackageEngine, PackageResult, ProgressiveShadingSolver, SketchRefineSolver, StrategyUsed,
};
use proptest::prelude::*;

/// The thread counts every case is evaluated at; 1 is the sequential
/// reference the parallel runs must match bit for bit.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Evaluates `query` on a fresh engine whose thread budget is `threads`.
/// Only `num_threads` varies between runs — the portfolio worker set is
/// pinned to the sequential default so the *configuration* is identical and
/// any result difference is attributable to the fan-out alone.
fn run_at(
    table: Table,
    strategy: Strategy,
    threads: usize,
    query: &str,
) -> Result<PackageResult, String> {
    let mut catalog = Catalog::new();
    catalog.register(table);
    let mut config = EngineConfig::with_strategy(strategy)
        .with_seed(7)
        .with_num_threads(1);
    config.num_threads = threads; // keep the worker set fixed; vary threads only
    PackageEngine::with_config(catalog, config)
        .execute_paql(query)
        .map_err(|e| e.to_string())
}

/// Asserts two runs are bit-identical, counters included.
fn assert_runs_identical(
    a: &Result<PackageResult, String>,
    b: &Result<PackageResult, String>,
    context: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.packages, y.packages, "{context}: packages differ");
            assert_eq!(x.objectives, y.objectives, "{context}: objectives differ");
            assert_eq!(x.optimal, y.optimal, "{context}: optimality differs");
            assert_eq!(x.stats.nodes, y.stats.nodes, "{context}: nodes differ");
            assert_eq!(
                x.stats.iterations, y.stats.iterations,
                "{context}: iterations differ"
            );
            assert_eq!(
                x.stats.cold_solves, y.stats.cold_solves,
                "{context}: cold LP counts differ"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{context}: errors differ"),
        (x, y) => panic!("{context}: one run failed, the other did not: {x:?} vs {y:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Random queries over every registered scenario, solved at 1/2/8
    /// threads with the Auto planner and both heuristic solvers: identical
    /// outcomes, down to the evaluation counters.
    #[test]
    fn thread_count_never_changes_results(
        scenario_pick in 0usize..64,
        strategy_pick in 0usize..3,
        seed in 0u64..5_000,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        agg_pick in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        use_filter in prop::bool::ANY,
        minimize in prop::bool::ANY,
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let strategy = [Strategy::Auto, Strategy::LocalSearch, Strategy::Greedy][strategy_pick];
        let text = scenario.random_query(&QueryParams {
            count, col_a, col_b, agg_pick, lo, width, use_filter, repeat: None, minimize,
        });
        let reference = run_at(
            (scenario.build)(scenario.property_n, Seed(seed)),
            strategy,
            THREAD_COUNTS[0],
            &text,
        );
        for &threads in &THREAD_COUNTS[1..] {
            let run = run_at(
                (scenario.build)(scenario.property_n, Seed(seed)),
                strategy,
                threads,
                &text,
            );
            assert_runs_identical(
                &reference,
                &run,
                &format!("{}/{strategy:?} at {threads} threads (query: {text})", scenario.name),
            );
        }
    }
}

const WIDE_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// Clears the counters of a raced result: the race sums its workers'
/// counters, and how far a worker got before the exact worker's proof
/// cancelled it is timing. What the race returns — packages, objectives,
/// optimality — is still compared, as the gauntlet compares it.
fn race_blind(mut r: PackageResult) -> PackageResult {
    if r.stats.strategy == StrategyUsed::Portfolio {
        (r.stats.nodes, r.stats.iterations, r.stats.cold_solves) = (0, 0, 0);
    }
    r
}

/// A candidate set wider than one chunk (5000 > CHUNK_WIDTH), so the swap
/// scans, partitioning spreads and column materialization genuinely cross
/// chunk boundaries — the regime where a reduction-order bug would show.
/// `Auto` sends 5 000 unfiltered candidates to the node-capped portfolio race.
#[test]
fn multi_chunk_candidate_sets_are_thread_count_invariant() {
    for strategy in [
        Strategy::Greedy,
        Strategy::SketchRefine,
        Strategy::ProgressiveShading,
        Strategy::LocalSearch,
        Strategy::Auto,
    ] {
        let reference = run_at(recipes(5_000, Seed(11)), strategy, 1, WIDE_QUERY).map(race_blind);
        assert!(reference.is_ok(), "{strategy:?} failed: {reference:?}");
        if strategy == Strategy::Auto {
            let route = reference.as_ref().unwrap().stats.strategy;
            assert_eq!(route, StrategyUsed::Portfolio, "Auto at n=5000");
        }
        for threads in [2usize, 8] {
            let run =
                run_at(recipes(5_000, Seed(11)), strategy, threads, WIDE_QUERY).map(race_blind);
            assert_runs_identical(
                &reference,
                &run,
                &format!("{strategy:?} at {threads} threads, n=5000"),
            );
        }
    }
}

/// Parallel view construction (base scan + column materialization) produces
/// the same columns, inclusion masks and chunk metadata as the sequential
/// build, bit for bit.
#[test]
fn parallel_view_builds_match_sequential_builds() {
    let table = recipes(9_000, Seed(3));
    let analyzed = paql::compile(WIDE_QUERY, table.schema()).unwrap();
    let sequential = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for threads in [2usize, 8] {
        let ctx = BuildCtx {
            par: ParExec::new(threads),
            ..BuildCtx::default()
        };
        let parallel = PackageSpec::build(&analyzed, &table, &ctx).unwrap();
        assert_eq!(sequential.candidates, parallel.candidates);
        assert_eq!(
            sequential.view().terms().len(),
            parallel.view().terms().len()
        );
        for (s, p) in sequential
            .view()
            .terms()
            .iter()
            .zip(parallel.view().terms())
        {
            assert_eq!(s.coeffs_vec(), p.coeffs_vec(), "{threads} threads");
            assert_eq!(s.included_vec(), p.included_vec(), "{threads} threads");
            assert_eq!(s.chunk_meta(), p.chunk_meta(), "{threads} threads");
        }
    }
}

/// A failing fused build reports one error, chosen by position alone:
/// first failing chunk, then first failing row in candidate order, then
/// first failing term in interning order — at every thread count and in both
/// storage modes. (A per-term build would report term 0's first failure
/// wherever it sat.) Two `MIN`/`MAX` terms over text columns that are NULL
/// everywhere except one poisoned row each; the analyzer only rejects
/// `SUM`/`AVG` of text statically, so these reach materialization.
#[test]
fn a_failing_fused_build_reports_the_same_error_everywhere() {
    use minidb::{ColumnType, DbError, Schema, Tuple, Value};
    use packagebuilder::{ColumnPolicy, PbError};

    const QUERY: &str = "SELECT PACKAGE(R) AS P FROM poisoned R \
        SUCH THAT COUNT(*) <= 3 AND MIN(P.a) >= 0 AND MAX(P.b) <= 9 MAXIMIZE SUM(P.v)";
    let schema = Schema::build(&[
        ("a", ColumnType::Text),
        ("b", ColumnType::Text),
        ("v", ColumnType::Float),
    ]);
    // (row poisoning term 1 = MIN(a), row poisoning term 2 = MAX(b)) → the
    // term and value the rule picks.
    let cases = [
        // Different chunks: the earlier chunk wins although its term is later.
        ((5_000, 100), ("MAX", "b100")),
        ((100, 9_000), ("MIN", "a100")),
        // Same chunk, different rows: the earlier row wins.
        ((4_200, 4_100), ("MAX", "b4100")),
        // Same row: the term interned first wins.
        ((7_000, 7_000), ("MIN", "a7000")),
    ];
    for ((bad_a, bad_b), (func, value)) in cases {
        let mut table = Table::new("poisoned", schema.clone());
        for i in 0..10_000usize {
            let text = |prefix: &str, bad: usize| match i == bad {
                true => Value::Text(format!("{prefix}{i}")),
                false => Value::Null,
            };
            table
                .insert(Tuple::new(vec![
                    text("a", bad_a),
                    text("b", bad_b),
                    Value::Float(i as f64),
                ]))
                .unwrap();
        }
        let analyzed = paql::compile(QUERY, table.schema()).unwrap();
        let expected = PbError::Db(DbError::TypeError(format!(
            "expected a numeric value in argument of {func}, got {value}"
        )));
        for policy in [ColumnPolicy::resident(), ColumnPolicy::paged(2)] {
            for threads in THREAD_COUNTS {
                let ctx = BuildCtx {
                    par: ParExec::new(threads),
                    policy,
                    cache: None,
                };
                let err = PackageSpec::build(&analyzed, &table, &ctx)
                    .expect_err("a text argument cannot be materialized");
                assert_eq!(
                    err, expected,
                    "poison at ({bad_a}, {bad_b}), {threads} threads, {policy:?}"
                );
            }
        }
    }
}

/// Rows × columns of the LP the ILP strategy builds for `query` over
/// `table`: branch and bound fans its batches out from one
/// [`CHUNK_WIDTH`] of them up (`lp_solver::branch_bound`).
fn lp_entries(table: &Table, query: &str) -> usize {
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap();
    let problem = translate(spec.view()).unwrap().problem;
    let matrix = LpMatrix::new(&problem).unwrap();
    matrix.rows() * matrix.cols()
}

/// The exact core under fan-out: parallel branch and bound (batched frontier
/// solves, merged in batch order — see `lp_solver::branch_bound`) returns
/// bit-identical packages, objectives, optimality flags *and* node/iteration
/// counters at every thread count. The LP is big enough (2 100 candidates ×
/// 2 rows ≥ [`CHUNK_WIDTH`]) that the thread budget genuinely reaches the
/// batches, so this pins the whole plumbing chain:
/// `EngineConfig::num_threads` → `SolveOptions::par` → `SolverConfig::num_threads`.
#[test]
fn exact_ilp_is_thread_count_invariant() {
    assert!(lp_entries(&recipes(2_100, Seed(11)), WIDE_QUERY) >= CHUNK_WIDTH);
    let reference = run_at(recipes(2_100, Seed(11)), Strategy::Ilp, 1, WIDE_QUERY);
    let ok = reference.as_ref().expect("exact solve at n=2100 succeeds");
    assert!(ok.optimal, "the exact worker should prove optimality here");
    for threads in [2usize, 8] {
        let run = run_at(recipes(2_100, Seed(11)), Strategy::Ilp, threads, WIDE_QUERY);
        assert_runs_identical(
            &reference,
            &run,
            &format!("Ilp at {threads} threads, n=2100"),
        );
    }
}

/// A small candidate set with a big LP: `metrics/many_windows` at 200
/// candidates has 24 windows over 16 columns, so its matrix crosses
/// [`CHUNK_WIDTH`] on rows, not candidates, and branch and bound fans out.
/// The search is bit-identical at every thread count: package, objective
/// bits, nodes, iterations and cold LPs.
#[test]
fn a_many_row_ilp_below_a_chunk_of_candidates_is_thread_count_invariant() {
    let metrics = scenario("metrics").unwrap();
    let query = &metrics.queries[0];
    assert_eq!(query.label, "many_windows");
    let table = || (metrics.build)(200, Seed(20140901).derive(1047).derive(3));
    let entries = lp_entries(&table(), &query.text);
    assert!(entries >= CHUNK_WIDTH, "{entries} coefficients stay inline");
    let reference = run_at(table(), Strategy::Ilp, 1, &query.text);
    let ok = reference.as_ref().expect("the exact solve succeeds");
    assert!(ok.stats.nodes > 1, "the search branches");
    for threads in [2usize, 8] {
        let run = run_at(table(), Strategy::Ilp, threads, &query.text);
        let context = format!("many_windows at {threads} threads");
        assert_runs_identical(&reference, &run, &context);
        let bits = |r: &PackageResult| -> Vec<Option<u64>> {
            r.objectives.iter().map(|o| o.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(ok), bits(run.as_ref().unwrap()), "{context}");
    }
}

/// The row count [`exact_ilp_is_thread_count_invariant_across_scenarios`]
/// solves a family's exact query at: one whose LP crosses [`CHUNK_WIDTH`]
/// (2 048 rows for the two-row LPs, 456 for `metrics`' nine rows) and
/// whose search at seed 17 still branches (`bulk`'s and `lineitem`'s root
/// relaxations are integral at 2 048 rows), so branch and bound fans its
/// batches out. The other families run inline at `exact_n`, which cannot
/// reach a second thread: `synthetic`'s root relaxation is integral at
/// every size and `wide`'s from 1 024 rows up, while `knapsack` and
/// `correlated` run into the node cap (seconds per solve) at the 2 048
/// rows their two-row LPs need.
const FAN_OUT_N: [(&str, usize); 6] = [
    ("recipes", 2_048),
    ("stocks", 2_048),
    ("travel", 2_048),
    ("bulk", 2_300),
    ("lineitem", 3_000),
    ("metrics", 456),
];

/// Same pin across **every registered scenario** at that scenario's
/// branching-heavy exact query (`Scenario::exact_query`), so branch and
/// bound explores a real frontier on every family — an integral root
/// relaxation would make the parallel path trivially identical. The
/// families of [`FAN_OUT_N`] run at a size whose LP fans out, the others
/// at `Scenario::exact_n`.
#[test]
fn exact_ilp_is_thread_count_invariant_across_scenarios() {
    for scenario in scenarios() {
        let fan_out = FAN_OUT_N.iter().find(|(name, _)| *name == scenario.name);
        let n = fan_out.map_or(scenario.exact_n, |&(_, n)| n);
        let table = || (scenario.build)(n, Seed(17));
        let reference = run_at(table(), Strategy::Ilp, 1, &scenario.exact_query);
        if fan_out.is_some() {
            let entries = lp_entries(&table(), &scenario.exact_query);
            assert!(
                entries >= CHUNK_WIDTH,
                "{}: {entries} coefficients stay inline",
                scenario.name
            );
            let nodes = reference.as_ref().map(|r| r.stats.nodes);
            assert!(nodes.unwrap() > 1, "{}: the search branches", scenario.name);
        }
        for threads in [2usize, 8] {
            let run = run_at(table(), Strategy::Ilp, threads, &scenario.exact_query);
            assert_runs_identical(
                &reference,
                &run,
                &format!("Ilp/{} at {threads} threads, n={n}", scenario.name),
            );
        }
    }
}

/// One pool, three fan-outs deep: two races run as jobs of an outer fan-out,
/// each race is a fan-out over its workers, and its ILP worker (an LP of
/// 2 100 candidates × 2 rows ≥ [`CHUNK_WIDTH`] coefficients) fans every
/// branch-and-bound batch out from inside its race job. Help-first means a job that finds the
/// pool busy is drained by its own caller, so this finishes at every thread
/// count — and without a deadline the exact worker's proof wins wherever it
/// ran: same winner, same package, same objective. (The race's summed
/// node/iteration counters depend on when the proof cancels the others, so
/// they are not compared.)
#[test]
fn a_race_nested_three_fan_outs_deep_finishes_with_the_same_winner() {
    let reference = run_at(recipes(2_100, Seed(11)), Strategy::Ilp, 1, WIDE_QUERY)
        .expect("exact solve at n=2100 succeeds");
    assert!(reference.optimal);
    for threads in THREAD_COUNTS {
        let races = ParExec::new(2).run_chunks_width(2, 1, |_, _| {
            run_at(
                recipes(2_100, Seed(11)),
                Strategy::Portfolio,
                threads,
                WIDE_QUERY,
            )
        });
        for race in races {
            let race = race.unwrap_or_else(|e| panic!("race at {threads} threads: {e}"));
            assert!(race.optimal, "{threads} threads: the exact worker won");
            assert_eq!(race.packages, reference.packages, "{threads} threads");
            assert_eq!(race.objectives, reference.objectives, "{threads} threads");
        }
    }
}

/// The anytime contract *inside* parallel branch and bound: a budget that
/// expires while a frontier batch is in flight stops the search at the next
/// batch boundary with the incumbent kept — never an error, never an
/// unbounded overrun, never a claimed optimum.
#[test]
fn budget_expiry_mid_batch_keeps_the_anytime_contract() {
    // An instance no machine finishes inside the budget: the registry's
    // symmetric knapsack window runs branch and bound to its 100 000-node
    // cap without a proof (seconds at this size, `BENCH_gauntlet.json`),
    // and 2 400 candidates × 2 rows is past the LP size from which branch
    // and bound hands its batches the eight threads.
    let knapsack = scenario("knapsack").unwrap();
    let table = (knapsack.build)(2_400, Seed(20140901));
    let query = knapsack
        .queries
        .iter()
        .find(|q| q.label == "tight_window")
        .map(|q| q.text.as_str())
        .unwrap();
    assert!(lp_entries(&table, query) >= CHUNK_WIDTH);
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    let limit = Duration::from_millis(30);
    let allowed = limit * 2 + Duration::from_millis(120);
    let opts = SolveOptions {
        budget: Budget::with_limit(limit),
        par: ParExec::new(8),
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = IlpSolver
        .solve(spec.view(), &opts)
        .expect("a truncated exact solve degrades, it does not fail");
    let elapsed = start.elapsed();
    assert!(
        elapsed <= allowed,
        "exact solver overran its {limit:?} budget under 8 threads: {elapsed:?}"
    );
    assert!(!out.optimal, "a truncated solve must not claim optimality");
    for (p, _) in &out.packages {
        assert!(spec.is_valid(p).unwrap());
    }
}

/// The anytime contract under fan-out: a budget that expires inside a
/// parallel chunk scan stops the scan at the next chunk boundary and the
/// solver returns its (valid) best-so-far result — never an error, never an
/// unbounded overrun. Mirrors the sequential bounds of `time_budget.rs`.
#[test]
fn budget_expiry_inside_a_parallel_chunk_scan_degrades_gracefully() {
    let table = recipes(15_000, Seed(20140901));
    let query = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 300 AND SUM(P.calories) BETWEEN 150000 AND 180000 \
        MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(query, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    let limit = Duration::from_millis(10);
    // Same allowance as the sequential time-budget suite: ~2× the limit plus
    // fixed setup slack for debug builds and scheduler noise.
    let allowed = limit * 2 + Duration::from_millis(60);
    let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
        ("greedy", Box::new(GreedySolver)),
        ("local-search", Box::new(LocalSearchSolver)),
        ("sketch-refine", Box::new(SketchRefineSolver)),
        ("progressive-shading", Box::new(ProgressiveShadingSolver)),
    ];
    for (name, solver) in solvers {
        let opts = SolveOptions {
            budget: Budget::with_limit(limit),
            par: ParExec::new(8),
            ..SolveOptions::default()
        };
        let start = Instant::now();
        let out = solver
            .solve(spec.view(), &opts)
            .unwrap_or_else(|e| panic!("{name} must truncate, not fail: {e}"));
        let elapsed = start.elapsed();
        assert!(
            elapsed <= allowed,
            "{name} overran its {limit:?} budget under 8-way fan-out: {elapsed:?}"
        );
        assert!(!out.optimal, "{name} claimed optimality when truncated");
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap(), "{name} returned invalid package");
        }
    }
    // An already-expired budget bails out before any chunk runs.
    let opts = SolveOptions {
        budget: Budget::with_limit(Duration::ZERO),
        par: ParExec::new(8),
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let out = GreedySolver.solve(spec.view(), &opts).unwrap();
    assert!(!out.optimal);
    assert!(start.elapsed() < allowed);
}
