//! The scenario registry: every workload family the engine is tested and
//! benchmarked against, in one enumerable table.
//!
//! Before this registry the property suites (`columnar_oracle`,
//! `determinism`, `parallel_determinism`, `paged_determinism`) each
//! hard-coded the same four scenarios; adding a family meant touching five
//! files and hoping none was forgotten. Now a family added here is
//! automatically covered by:
//!
//! * the **columnar-vs-interpreted oracle** properties (random queries via
//!   [`Scenario::random_query`] over [`Scenario::columns`]),
//! * the **determinism** suites (thread counts, paged vs resident storage,
//!   engine-instance reproducibility — seeded by [`Scenario::exact_query`]),
//! * the **gauntlet** (`harness -- gauntlet`; `gauntlet-smoke`, the first
//!   size only, in CI): two entries of the harness's one experiment table
//!   whose workloads are every [`Scenario::queries`] entry at every
//!   [`Scenario::gauntlet_sizes`] size, solved by every engine strategy at
//!   1 and 2 threads (the exact ones only up to [`Scenario::exact_cap`])
//!   and judged by the `pb_bench::Gate`s `Valid`, `EmptyWhenInfeasible`,
//!   `SameFingerprint`, `MaxGap` ([`ScenarioQuery::max_gap`]) and
//!   `NonEmptyWhenFeasible`.
//!
//! # Adding a scenario
//!
//! 1. Write a generator module with a prefix-stable `*_rows` stream and a
//!    `Table` builder (see [`crate::knapsack`] for the template), plus unit
//!    tests pinning its documented distributions.
//! 2. Append a [`Scenario`] entry in [`scenarios`]: pick a small
//!    `property_n` (tens of rows — the property suites run hundreds of
//!    cases), a branching-heavy `exact_query`, and 1–2 gauntlet queries
//!    with an explicit gap threshold.
//! 3. Run `cargo test` and `cargo run --release -p pb-bench --bin harness
//!    -- gauntlet`; tune `max_gap` to the measured worst gated gap plus
//!    head-room and document any family-specific reasoning here.
//!
//! # Threshold policy
//!
//! `max_gap` bounds the relative objective gap `(oracle − got) / |oracle|`
//! for the *gated* strategies (`Auto`, `Ilp`, `Portfolio`) — the routes a
//! user lands on without opting into a heuristic. Explicitly-chosen
//! heuristics (`Greedy`, `LocalSearch`, `SketchRefine`, truncated
//! enumeration) are recorded in `BENCH_gauntlet.json` but not gated: their
//! role is visibility, not guarantees — the gauntlet measures sketch gaps
//! from 0% (anti-correlated assets) to ~40% (the group-covering wide
//! query) and 63% (lineitem at 40 000), holes ROADMAP item 4 tracks.
//! `Auto` however is gated at *every* size, so its handoff thresholds
//! must only delegate to a heuristic where that heuristic clears the
//! family threshold. Thresholds are deliberately tight where exact routes
//! stay tractable (≤ 2%) and looser where truncation is expected.

use minidb::Table;

use crate::{
    assets, bulk_orders, knapsack_items, lineitem, metric_names, metrics_table, recipes, stocks,
    travel_mix, uniform_table, wide_names, wide_table, zipf_table, Seed,
};

/// One gauntlet query for a scenario family, with its gate.
#[derive(Debug, Clone)]
pub struct ScenarioQuery {
    /// Stable identifier used in `BENCH_gauntlet.json` rows.
    pub label: &'static str,
    /// Full PaQL text (alias `R`, package `P`) against [`Scenario::relation`].
    pub text: String,
    /// Whether a feasible package exists at every gauntlet size. Queries
    /// with `false` gate the *honesty* path instead of the gap: every
    /// strategy must report "no package", never an invalid one.
    pub expect_feasible: bool,
    /// Maximum relative objective gap vs the oracle tolerated for gated
    /// strategies (see the module-level threshold policy).
    pub max_gap: f64,
}

/// One workload family: a table builder plus the query material every
/// suite needs. See the module docs for what enumerates this.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry key (also the `BENCH_gauntlet.json` scenario name).
    pub name: &'static str,
    /// Relation name the builder registers (the `FROM` target).
    pub relation: &'static str,
    /// One-line description for docs and reports.
    pub summary: &'static str,
    /// Builds the table at a given row count and seed. Prefix-stable: the
    /// first `k` rows are identical for every `n ≥ k` at a fixed seed.
    pub build: fn(usize, Seed) -> Table,
    /// Numeric columns the property suites may aggregate over.
    pub columns: &'static [&'static str],
    /// A categorical FILTER clause (alias `R`), if the family has one.
    pub filter: Option<&'static str>,
    /// Row count used by the property suites (small: hundreds of cases).
    pub property_n: usize,
    /// A branching-heavy query the exact core can finish at [`Self::exact_n`]
    /// rows — the seed for determinism and thread-invariance pins.
    pub exact_query: String,
    /// Row count paired with [`Self::exact_query`].
    pub exact_n: usize,
    /// Largest gauntlet size at which exact/enumeration strategies run;
    /// above it the oracle falls back to best-known-over-strategies.
    pub exact_cap: usize,
    /// The `n` grid the gauntlet sweeps (ascending; prefix-stable builds
    /// mean feasibility at the smallest size implies it at the larger).
    pub gauntlet_sizes: [usize; 3],
    /// The gauntlet query set.
    pub queries: Vec<ScenarioQuery>,
}

/// Drawn parameters for [`Scenario::random_query`]; the property suites map
/// proptest draws straight onto this.
#[derive(Debug, Clone, Copy)]
pub struct QueryParams {
    /// COUNT(*) upper bound.
    pub count: u64,
    /// Index into [`Scenario::columns`] (wraps) for the constrained column.
    pub col_a: usize,
    /// Index into [`Scenario::columns`] (wraps) for the objective column.
    pub col_b: usize,
    /// Aggregate selector: SUM / AVG / MIN / MAX (wraps).
    pub agg_pick: usize,
    /// Window lower bound.
    pub lo: f64,
    /// Window width (upper bound is `lo + width`).
    pub width: f64,
    /// Attach the scenario's FILTER clause, if it has one.
    pub use_filter: bool,
    /// REPEAT bound (`None` = no REPEAT clause).
    pub repeat: Option<u32>,
    /// MINIMIZE instead of MAXIMIZE.
    pub minimize: bool,
}

impl Scenario {
    /// Builds a random PaQL query for this family from drawn parameters —
    /// the single query template shared by every property suite.
    pub fn random_query(&self, p: &QueryParams) -> String {
        let cols = self.columns;
        let a = cols[p.col_a % cols.len()];
        let b = cols[p.col_b % cols.len()];
        let agg = ["SUM", "AVG", "MIN", "MAX"][p.agg_pick % 4];
        let repeat = p.repeat.map(|k| format!(" REPEAT {k}")).unwrap_or_default();
        let filter = match (p.use_filter, self.filter) {
            (true, Some(f)) => format!(" FILTER (WHERE {f})"),
            _ => String::new(),
        };
        let dir = if p.minimize { "MINIMIZE" } else { "MAXIMIZE" };
        format!(
            "SELECT PACKAGE(R) AS P FROM {rel} R{repeat} \
             SUCH THAT COUNT(*) <= {count} AND {agg}(P.{a}){filter} BETWEEN {lo:.2} AND {hi:.2} \
             {dir} SUM(P.{b})",
            rel = self.relation,
            count = p.count,
            lo = p.lo,
            hi = p.lo + p.width,
        )
    }
}

fn build_recipes(n: usize, seed: Seed) -> Table {
    recipes(n, seed)
}

fn build_stocks(n: usize, seed: Seed) -> Table {
    stocks(n, seed)
}

fn build_travel(n: usize, seed: Seed) -> Table {
    travel_mix(n, seed)
}

fn build_synthetic(n: usize, seed: Seed) -> Table {
    // Even seeds draw the uniform table, odd seeds the heavy-tailed Zipf —
    // the same split the property suites historically used.
    if seed.0.is_multiple_of(2) {
        uniform_table("t", n, 2.0, 30.0, seed)
    } else {
        zipf_table("t", n, 1.3, 2.0, 30.0, seed)
    }
}

fn build_knapsack(n: usize, seed: Seed) -> Table {
    knapsack_items(n, seed)
}

fn build_bulk(n: usize, seed: Seed) -> Table {
    bulk_orders(n, seed)
}

fn build_metrics(n: usize, seed: Seed) -> Table {
    metrics_table(n, seed)
}

fn build_wide(n: usize, seed: Seed) -> Table {
    wide_table(n, seed)
}

fn build_correlated(n: usize, seed: Seed) -> Table {
    assets(n, seed)
}

fn build_lineitem(n: usize, seed: Seed) -> Table {
    lineitem(n, seed)
}

fn select(relation: &str, clauses: &[String], objective: &str) -> String {
    format!(
        "SELECT PACKAGE(R) AS P FROM {relation} R SUCH THAT {} {objective}",
        clauses.join(" AND ")
    )
}

/// Two dozen SUM/AVG windows, one per metric column — the many-constraint
/// gauntlet query.
fn metrics_gauntlet_query() -> String {
    let mut clauses = vec!["COUNT(*) = 6".to_string()];
    for name in metric_names() {
        clauses.push(format!("SUM(P.{name}) BETWEEN 6 AND 54"));
    }
    for name in metric_names().into_iter().take(8) {
        clauses.push(format!("AVG(P.{name}) BETWEEN 1 AND 9"));
    }
    select("metrics", &clauses, "MAXIMIZE SUM(P.m00)")
}

/// A tighter eight-window variant the exact core can finish quickly.
fn metrics_exact_query() -> String {
    let mut clauses = vec!["COUNT(*) = 5".to_string()];
    for name in metric_names().into_iter().take(8) {
        clauses.push(format!("SUM(P.{name}) BETWEEN 10 AND 40"));
    }
    select("metrics", &clauses, "MAXIMIZE SUM(P.m00)")
}

/// One FILTERed SUM cap per wide column, cycling over groups `g00`–`g03` —
/// hundreds of FILTERed terms, every cap slack. The cycle is deliberately
/// *narrower* than the package: under the engine's SQL semantics a FILTERed
/// SUM over an empty member set is NULL and its constraint unsatisfied
/// (never vacuously ≤ cap), so `COUNT(*) = 4` forces exactly one member
/// from each of the four filtered groups. Cycling all [`crate::WIDE_GROUPS`]
/// would make the query infeasible at any COUNT below 16.
fn wide_gauntlet_query() -> String {
    let mut clauses = vec!["COUNT(*) = 4".to_string()];
    for (j, name) in wide_names().iter().enumerate() {
        clauses.push(format!(
            "SUM(P.{name}) FILTER (WHERE R.grp = 'g{:02}') <= 2000",
            j % 4
        ));
    }
    select("wide", &clauses, "MAXIMIZE SUM(P.w000)")
}

/// A FILTERed SUM target no package can reach: `derive_bounds` must prove
/// this infeasible from chunk metadata before any solver runs.
fn wide_unreachable_query() -> String {
    "SELECT PACKAGE(R) AS P FROM wide R \
     SUCH THAT COUNT(*) <= 6 AND SUM(P.w000) FILTER (WHERE R.grp = 'g00') >= 1000000000 \
     MAXIMIZE SUM(P.w001)"
        .to_string()
}

/// The registry. Order is stable; suites index it by position in proptest
/// draws, so append new families at the end.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "recipes",
            relation: "recipes",
            summary: "meal planning: 16-column mixed-type rows, moderate windows",
            build: build_recipes,
            columns: &["calories", "protein", "fat", "price"],
            filter: Some("R.gluten = 'free'"),
            property_n: 60,
            exact_query: "SELECT PACKAGE(R) AS P FROM recipes R \
                          SUCH THAT COUNT(*) = 4 AND SUM(P.calories) BETWEEN 2400 AND 2600 \
                          MAXIMIZE SUM(P.protein)"
                .to_string(),
            exact_n: 700,
            exact_cap: usize::MAX,
            gauntlet_sizes: [500, 2_000, 8_000],
            queries: vec![ScenarioQuery {
                label: "meal_plan",
                text: "SELECT PACKAGE(R) AS P FROM recipes R \
                       SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
                       MAXIMIZE SUM(P.protein)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.02,
            }],
        },
        Scenario {
            name: "stocks",
            relation: "stocks",
            summary: "portfolio building: price/return/risk lots, budget caps",
            build: build_stocks,
            columns: &["price", "expected_return", "risk"],
            filter: Some("R.sector = 'technology'"),
            property_n: 60,
            exact_query: "SELECT PACKAGE(R) AS P FROM stocks R \
                          SUCH THAT COUNT(*) = 3 AND SUM(P.price) <= 2700 \
                          MAXIMIZE SUM(P.expected_return)"
                .to_string(),
            exact_n: 700,
            // Measured (release, seed 20140901): the monolithic ILP proves
            // budget_portfolio in ~0.25s at 500 and ~7s at 2 000, but at
            // 8 000 it burns ~210s only to truncate at the branch-and-bound
            // node cap without a proof — classic hard-knapsack blowup. The
            // uncapped exact strategies stop here; `Auto`'s node-capped race
            // still covers 8 000.
            exact_cap: 2_000,
            gauntlet_sizes: [500, 2_000, 8_000],
            queries: vec![ScenarioQuery {
                label: "budget_portfolio",
                text: "SELECT PACKAGE(R) AS P FROM stocks R \
                       SUCH THAT COUNT(*) <= 10 AND SUM(P.price) <= 20000 \
                       MAXIMIZE SUM(P.expected_return)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.02,
            }],
        },
        Scenario {
            name: "travel",
            relation: "travel_options",
            summary: "heterogeneous options (flights/hotels/cars) behind one relation",
            build: build_travel,
            columns: &["price", "comfort"],
            filter: Some("R.kind = 'hotel'"),
            property_n: 50,
            exact_query: "SELECT PACKAGE(R) AS P FROM travel_options R \
                          SUCH THAT COUNT(*) <= 4 AND SUM(P.price) <= 900 \
                          MAXIMIZE SUM(P.comfort)"
                .to_string(),
            exact_n: 700,
            exact_cap: usize::MAX,
            gauntlet_sizes: [500, 2_000, 8_000],
            queries: vec![ScenarioQuery {
                label: "vacation",
                text: "SELECT PACKAGE(R) AS P FROM travel_options R \
                       SUCH THAT COUNT(*) FILTER (WHERE R.kind = 'flight') = 1 \
                       AND COUNT(*) FILTER (WHERE R.kind = 'hotel') = 1 \
                       AND COUNT(*) <= 3 AND SUM(P.price) <= 2500 \
                       MAXIMIZE SUM(P.comfort)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.05,
            }],
        },
        Scenario {
            name: "synthetic",
            relation: "t",
            summary: "generic numeric rows; Zipf-heavy tails on odd seeds",
            build: build_synthetic,
            columns: &["w", "v"],
            filter: None,
            property_n: 50,
            exact_query: "SELECT PACKAGE(R) AS P FROM t R \
                          SUCH THAT COUNT(*) = 5 AND SUM(P.w) <= 70 MAXIMIZE SUM(P.v)"
                .to_string(),
            exact_n: 700,
            exact_cap: usize::MAX,
            gauntlet_sizes: [500, 2_000, 8_000],
            queries: vec![ScenarioQuery {
                label: "weight_cap",
                text: "SELECT PACKAGE(R) AS P FROM t R \
                       SUCH THAT COUNT(*) = 5 AND SUM(P.w) <= 70 MAXIMIZE SUM(P.v)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.02,
            }],
        },
        Scenario {
            name: "knapsack",
            relation: "knapsack",
            summary: "tight-feasibility window; greedy lands infeasible, repair must cross populations",
            build: build_knapsack,
            columns: &["weight", "value", "density"],
            filter: Some("R.kind = 'decoy'"),
            property_n: 48,
            exact_query: "SELECT PACKAGE(R) AS P FROM knapsack R \
                          SUCH THAT COUNT(*) = 5 AND SUM(P.weight) BETWEEN 98 AND 102 \
                          MAXIMIZE SUM(P.value)"
                .to_string(),
            exact_n: 320,
            // Measured: the near-identical planted weights make the window
            // maximally symmetric, so branch and bound always runs to its
            // node cap without a proof — ~4s at 400, ~15s at 1 600, and the
            // per-node cost keeps growing with n. Cap the uncapped exact
            // strategies at 1 600.
            exact_cap: 1_600,
            gauntlet_sizes: [400, 1_600, 6_400],
            queries: vec![
                ScenarioQuery {
                    label: "tight_window",
                    text: "SELECT PACKAGE(R) AS P FROM knapsack R \
                           SUCH THAT COUNT(*) = 5 AND SUM(P.weight) BETWEEN 98 AND 102 \
                           MAXIMIZE SUM(P.value)"
                        .to_string(),
                    expect_feasible: true,
                    max_gap: 0.05,
                },
                ScenarioQuery {
                    label: "unreachable_window",
                    text: "SELECT PACKAGE(R) AS P FROM knapsack R \
                           SUCH THAT COUNT(*) = 5 AND SUM(P.weight) BETWEEN 1 AND 40 \
                           MAXIMIZE SUM(P.value)"
                        .to_string(),
                    expect_feasible: false,
                    max_gap: 0.0,
                },
            ],
        },
        Scenario {
            name: "bulk",
            relation: "orders",
            summary: "high-cardinality packages: 1000-member purchase orders under budget",
            build: build_bulk,
            columns: &["unit_cost", "utility", "lead_days"],
            filter: Some("R.supplier = 'acme'"),
            property_n: 64,
            exact_query: "SELECT PACKAGE(R) AS P FROM orders R \
                          SUCH THAT COUNT(*) = 12 AND SUM(P.unit_cost) <= 20 \
                          MAXIMIZE SUM(P.utility)"
                .to_string(),
            exact_n: 600,
            exact_cap: usize::MAX,
            gauntlet_sizes: [2_000, 5_000, 12_000],
            queries: vec![ScenarioQuery {
                label: "bulk_1000",
                text: "SELECT PACKAGE(R) AS P FROM orders R \
                       SUCH THAT COUNT(*) = 1000 AND SUM(P.unit_cost) <= 2300 \
                       MAXIMIZE SUM(P.utility)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.02,
            }],
        },
        Scenario {
            name: "metrics",
            relation: "metrics",
            summary: "many-constraint queries: 24 SUM/AVG windows over 16 columns",
            build: build_metrics,
            columns: &["m00", "m01", "m07", "m15"],
            filter: None,
            property_n: 48,
            exact_query: metrics_exact_query(),
            exact_n: 256,
            // Measured: 24 simultaneous windows already cost the ILP ~9s
            // (proven) at 1 000 candidates; the many-constraint LP
            // relaxations dominate per-node cost, so larger sizes are left
            // to the heuristics and `Auto`'s capped race.
            exact_cap: 1_000,
            gauntlet_sizes: [1_000, 3_000, 6_000],
            queries: vec![ScenarioQuery {
                label: "many_windows",
                text: metrics_gauntlet_query(),
                expect_feasible: true,
                max_gap: 0.05,
            }],
        },
        Scenario {
            name: "wide",
            relation: "wide",
            summary: "wide schema: 120 columns, one FILTERed SUM term per column",
            build: build_wide,
            columns: &["w000", "w001", "w010", "w050"],
            filter: Some("R.grp = 'g00'"),
            property_n: 40,
            exact_query: "SELECT PACKAGE(R) AS P FROM wide R \
                          SUCH THAT COUNT(*) = 4 AND SUM(P.w000) BETWEEN 150 AND 250 \
                          AND SUM(P.w001) FILTER (WHERE R.grp = 'g01') <= 150 \
                          MAXIMIZE SUM(P.w001)"
                .to_string(),
            exact_n: 256,
            exact_cap: usize::MAX,
            gauntlet_sizes: [600, 1_500, 4_000],
            queries: vec![
                ScenarioQuery {
                    label: "filtered_caps",
                    text: wide_gauntlet_query(),
                    expect_feasible: true,
                    max_gap: 0.01,
                },
                ScenarioQuery {
                    label: "unreachable_target",
                    text: wide_unreachable_query(),
                    expect_feasible: false,
                    max_gap: 0.0,
                },
            ],
        },
        Scenario {
            name: "correlated",
            relation: "assets",
            summary: "strongly correlated cost/payoff pairs (Pisinger-hard) plus an anti-correlated control",
            build: build_correlated,
            columns: &["cost", "payoff_corr", "payoff_anti"],
            filter: Some("R.grade = 'a'"),
            property_n: 56,
            exact_query: "SELECT PACKAGE(R) AS P FROM assets R \
                          SUCH THAT COUNT(*) <= 8 AND SUM(P.cost) <= 300 \
                          MAXIMIZE SUM(P.payoff_corr)"
                .to_string(),
            exact_n: 240,
            // Measured: strongly correlated cost/payoff pairs are the
            // Pisinger-hard regime — the ILP needs ~1.4s at 500 and the
            // node count climbs steeply with n; 2 000 is the last size the
            // uncapped exact strategies attempt.
            exact_cap: 2_000,
            gauntlet_sizes: [500, 2_000, 8_000],
            queries: vec![
                ScenarioQuery {
                    label: "strongly_correlated",
                    text: "SELECT PACKAGE(R) AS P FROM assets R \
                           SUCH THAT COUNT(*) <= 8 AND SUM(P.cost) <= 300 \
                           MAXIMIZE SUM(P.payoff_corr)"
                        .to_string(),
                    expect_feasible: true,
                    max_gap: 0.05,
                },
                ScenarioQuery {
                    label: "anti_correlated",
                    text: "SELECT PACKAGE(R) AS P FROM assets R \
                           SUCH THAT COUNT(*) <= 8 AND SUM(P.cost) <= 300 \
                           MAXIMIZE SUM(P.payoff_anti)"
                        .to_string(),
                    expect_feasible: true,
                    max_gap: 0.02,
                },
            ],
        },
        Scenario {
            name: "lineitem",
            relation: "lineitem",
            summary: "TPC-H-lite order lines at production row counts",
            build: build_lineitem,
            columns: &["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
            filter: Some("R.l_returnflag = 'R'"),
            property_n: 64,
            exact_query: "SELECT PACKAGE(R) AS P FROM lineitem R \
                          SUCH THAT COUNT(*) <= 12 AND SUM(P.l_quantity) <= 120 \
                          MAXIMIZE SUM(P.l_extendedprice)"
                .to_string(),
            exact_n: 500,
            exact_cap: usize::MAX,
            gauntlet_sizes: [10_000, 40_000, 100_000],
            queries: vec![ScenarioQuery {
                label: "quantity_budget",
                text: "SELECT PACKAGE(R) AS P FROM lineitem R \
                       SUCH THAT COUNT(*) <= 40 AND SUM(P.l_quantity) <= 400 \
                       AND SUM(P.l_extendedprice) FILTER (WHERE R.l_returnflag = 'R') <= 100000 \
                       MAXIMIZE SUM(P.l_extendedprice)"
                    .to_string(),
                expect_feasible: true,
                max_gap: 0.02,
            }],
        },
    ]
}

/// Looks a scenario up by its registry [`Scenario::name`].
pub fn scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Tuple;

    fn rows(t: &Table) -> Vec<Tuple> {
        t.rows().map(|r| r.to_tuple()).collect()
    }

    #[test]
    fn names_and_labels_are_unique_and_sizes_ascend() {
        let all = scenarios();
        assert!(all.len() >= 10, "the gauntlet needs >= 6 families");
        for (i, s) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|o| o.name != s.name),
                "duplicate scenario name {}",
                s.name
            );
            assert!(
                s.gauntlet_sizes[0] < s.gauntlet_sizes[1]
                    && s.gauntlet_sizes[1] < s.gauntlet_sizes[2],
                "{}: sizes must ascend",
                s.name
            );
            assert!(!s.queries.is_empty(), "{}: no gauntlet queries", s.name);
            for (j, q) in s.queries.iter().enumerate() {
                assert!(
                    s.queries[j + 1..].iter().all(|o| o.label != q.label),
                    "{}: duplicate query label {}",
                    s.name,
                    q.label
                );
                assert!(q.max_gap >= 0.0);
            }
        }
    }

    #[test]
    fn every_builder_is_prefix_stable_and_names_its_relation() {
        for s in scenarios() {
            let small = (s.build)(24, Seed(99));
            let large = (s.build)(48, Seed(99));
            assert_eq!(small.name(), s.relation, "{}: relation mismatch", s.name);
            assert_eq!(
                rows(&small),
                &rows(&large)[..small.len()],
                "{}: builder is not prefix-stable",
                s.name
            );
            assert!(!small.is_empty(), "{}: builder returned no rows", s.name);
        }
    }

    #[test]
    fn random_query_renders_every_clause() {
        let s = scenario("knapsack").unwrap();
        let q = s.random_query(&QueryParams {
            count: 4,
            col_a: 0,
            col_b: 1,
            agg_pick: 0,
            lo: 50.0,
            width: 100.0,
            use_filter: true,
            repeat: Some(2),
            minimize: false,
        });
        assert!(q.contains("FROM knapsack R REPEAT 2"), "{q}");
        assert!(q.contains("COUNT(*) <= 4"), "{q}");
        assert!(
            q.contains("SUM(P.weight) FILTER (WHERE R.kind = 'decoy')"),
            "{q}"
        );
        assert!(q.contains("BETWEEN 50.00 AND 150.00"), "{q}");
        assert!(q.ends_with("MAXIMIZE SUM(P.value)"), "{q}");
    }
}
