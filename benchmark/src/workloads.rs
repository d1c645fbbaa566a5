//! The four workloads: which tables exist, how the engine is configured and
//! which operations one pass runs.
//!
//! Two seeds make the inputs, the way TPC-H separates its database from its
//! query streams. The **data seed** (`--data-seed`, default
//! [`DEFAULT_DATA_SEED`]) makes the tables through `datagen`; the **stream
//! seed** (`--seed`) orders the operations of a pass and makes the rows
//! `append_rebuild` appends. The tables do not follow `--seed` because
//! branch and bound is chaotic in its input: re-drawing the data moved
//! `session_small`'s pass from 214 to 1 812 ms and `exact_branchy`'s from
//! 698 to 1 702 ms across eight seeds, which no regression bound survives.
//! The engine sees only tables and PaQL text.

use datagen::{
    assets, knapsack_items, lineitem, lineitem_rows, metrics_table, recipe_rows, recipes, scenario,
    stocks, travel_mix, uniform_table, wide_table, Seed,
};
use minidb::{Catalog, Table, Tuple};
use packagebuilder::config::default_portfolio_workers;
use packagebuilder::{EngineConfig, PackageEngine, Strategy};

/// The workloads in `BENCHMARK.json` order, each with the kinds of its
/// script in canonical order. A kind names the metric `kind.<kind>_ms`.
pub const KINDS: [(&str, &[&str]); 4] = [
    (
        "session_small",
        &[
            "meal_gf_w1",
            "meal_fat_w1",
            "meal_gf_w2",
            "meal_fat_w2",
            "meal_gf_w3",
            "meal_fat_w3",
            "meal_gf_w4",
            "meal_fat_w4",
            "vacation",
            "weight_cap",
            "many_windows",
            "stock_budget",
            "avg_window",
            "repeat",
            "tiny_enum",
            "top_3",
            "unreachable",
            "suggest",
            "refine",
        ],
    ),
    (
        "exact_branchy",
        &[
            "x_correlated",
            "x_stocks",
            "x_metrics",
            "x_meal_20k",
            "x_lineitem",
            "x_knapsack",
        ],
    ),
    (
        "append_rebuild",
        &[
            "append",
            "li_flag_a",
            "li_flag_b",
            "li_all",
            "rec_sketch",
            "rec_all",
            "wide_caps",
        ],
    ),
    ("scale_paged", &["shade_a", "shade_b", "flat_sketch"]),
];

/// The data seed the checked-in references were first recorded for.
pub const DEFAULT_DATA_SEED: u64 = 20140901;

/// Rows appended to each growing relation per pass of `append_rebuild`.
pub const APPEND_ROWS: usize = 16;

/// What one operation of a script does.
#[derive(Debug, Clone)]
pub enum Action {
    /// One PaQL query, executed as parse → build_spec → plan → prune →
    /// solve → validate.
    Query {
        text: String,
        strategy: Strategy,
        num_packages: usize,
        expect_feasible: bool,
    },
    /// Appends [`APPEND_ROWS`] pending rows to every growing relation and
    /// drops the cached banks of `invalidate` (the write side of the cache).
    Append { invalidate: &'static str },
    /// `suggest(Highlight::Column)` on a relation.
    Suggest {
        relation: &'static str,
        column: &'static str,
    },
    /// One `ExplorationSession::refine` step: sample, reject the first
    /// member, re-sample.
    Refine { text: String },
}

/// One operation kind of a script. `kind` names the metric
/// `kind.<kind>_ms`; a kind appears once per pass.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: &'static str,
    pub action: Action,
}

/// A relation that grows during the run: rows not yet inserted.
pub struct Growing {
    pub relation: &'static str,
    pub pending: std::vec::IntoIter<Tuple>,
}

/// A workload instance: engine, script and the rows still to append.
///
/// `script` is in canonical order (the order of the `kind.*` metrics);
/// `groups` partitions its indices into runs whose inner order is part of
/// the workload (an append before its queries, a query before the one that
/// reuses its columns). A pass runs the groups in the stream seed's order.
pub struct Instance {
    pub engine: PackageEngine,
    pub script: Vec<Op>,
    pub groups: Vec<Vec<usize>>,
    pub growing: Vec<Growing>,
}

impl Instance {
    fn new(engine: PackageEngine, script: Vec<Op>) -> Self {
        let groups = (0..script.len()).map(|i| vec![i]).collect();
        Instance {
            engine,
            script,
            groups,
            growing: Vec::new(),
        }
    }

    /// The order one pass runs the script in: group 0 stays first when it
    /// is pinned (the append), the rest are shuffled by the stream seed.
    pub fn pass_order(&self, stream_seed: u64, pin_first: bool) -> Vec<usize> {
        let mut groups: Vec<&Vec<usize>> = self.groups.iter().collect();
        let start = usize::from(pin_first);
        let mut state = Seed(stream_seed);
        for i in (start + 1..groups.len()).rev() {
            state = state.derive(i as u64);
            let j = start + (state.0 % (i - start + 1) as u64) as usize;
            groups.swap(i, j);
        }
        groups.into_iter().flatten().copied().collect()
    }
}

/// Measured-phase wall time of one pass on the 2-core definition host, in
/// ms. `--seconds` is turned into a *fixed pass count* through this table
/// (fixed work, never fixed time), so deterministic counters repeat from
/// run to run; the numbers only need to be roughly right.
pub fn nominal_pass_ms(workload: &str) -> Option<f64> {
    Some(match workload {
        "session_small" => 310.0,
        "exact_branchy" => 735.0,
        "append_rebuild" => 480.0,
        "scale_paged" => 520.0,
        _ => return None,
    })
}

/// How many threads a workload's engine gets on a host with `cores` cores:
/// two at most (the definition host has two, and a workload must not change
/// with the machine), and one for `scale_paged`. On two threads
/// `scale_paged` is bimodal — most passes take 3.6x the one-thread time,
/// contending for the buffer pool's lock, and the rest run at one-thread
/// speed because the pool's worker woke too late to claim a chunk — and which
/// mode a pass gets depends on the host's scheduler, so no statistic of it
/// repeats. That finding is therefore outside the gated metrics; a traced
/// run shows it as `par.two_thread_*` (see [`contended_threads`]).
pub fn default_threads(workload: &str, cores: usize) -> usize {
    if workload == "scale_paged" {
        1
    } else {
        cores.clamp(1, 2)
    }
}

/// The thread count at which a traced run repeats a few plain passes, for
/// the one workload whose own thread count hides a finding.
pub fn contended_threads(workload: &str) -> Option<usize> {
    (workload == "scale_paged").then_some(2)
}

/// The engine configuration every workload starts from: the defaults, with
/// every environment-derived field overwritten so `PB_THREADS`,
/// `PB_COLUMN_BUDGET` and `PB_POOL_PAGES` cannot change a workload. No
/// wall-clock budget anywhere; truncation is by node and move caps only.
fn base_config(threads: usize) -> EngineConfig {
    EngineConfig {
        num_threads: threads,
        portfolio_workers: default_portfolio_workers(threads),
        column_memory_budget: packagebuilder::column_store::DEFAULT_COLUMN_MEMORY_BUDGET,
        pool_pages: packagebuilder::column_store::DEFAULT_POOL_PAGES,
        seed: 42,
        time_budget: None,
        ..EngineConfig::default()
    }
}

fn query(kind: &'static str, text: impl Into<String>, strategy: Strategy) -> Op {
    Op {
        kind,
        action: Action::Query {
            text: text.into(),
            strategy,
            num_packages: 1,
            expect_feasible: true,
        },
    }
}

/// A registry query by `scenario/label`.
fn registry(name: &str, label: &str) -> String {
    scenario(name)
        .and_then(|s| s.queries.into_iter().find(|q| q.label == label))
        .map(|q| q.text)
        .unwrap_or_else(|| panic!("registry query {name}/{label} is gone"))
}

/// The two seeds and the sizes one set-up needs.
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    pub data_seed: u64,
    pub stream_seed: u64,
    pub threads: usize,
    /// How many passes will append rows (sizes the pending-row reserve).
    pub append_passes: usize,
}

/// Builds a workload's tables, engine and script. `None` for a name that is
/// not a workload.
pub fn build(workload: &str, p: BuildParams) -> Option<Instance> {
    let data = Seed(p.data_seed);
    let instance = match workload {
        "session_small" => session_small(data, p.threads),
        "exact_branchy" => exact_branchy(data, p.threads),
        "append_rebuild" => append_rebuild(data, p),
        "scale_paged" => scale_paged(data, p.threads),
        _ => return None,
    };
    // The metric list is written down once, in `KINDS`; a script that
    // drifts from it would report under the wrong names.
    let kinds: Vec<&str> = instance.script.iter().map(|op| op.kind).collect();
    let listed = KINDS.iter().find(|(name, _)| *name == workload)?.1;
    assert_eq!(kinds, listed, "{workload}'s script and KINDS disagree");
    Some(instance)
}

fn engine(tables: Vec<Table>, config: EngineConfig) -> PackageEngine {
    let mut catalog = Catalog::new();
    for t in tables {
        catalog.register(t);
    }
    PackageEngine::with_config(catalog, config)
}

/// The paper's demo session: many small queries through `Auto`, a warm view
/// cache, and the interface layers.
///
/// The salt picks, among equally valid data sets, one whose 24-window
/// `many_windows` solve takes ~100 ms at both recorded data seeds instead
/// of the 0.5-1.5 s other draws need, so overhead stays a visible share.
fn session_small(seed: Seed, threads: usize) -> Instance {
    let seed = seed.derive(1019);
    let tables = vec![
        recipes(4_000, seed.derive(1)),
        travel_mix(3_000, seed.derive(2)),
        stocks(1_500, seed.derive(3)),
        // Always the uniform table: the registry's builder switches to Zipf
        // on odd seeds, which would make the workload bimodal across seeds.
        uniform_table("t", 2_000, 2.0, 30.0, seed.derive(4)),
        metrics_table(200, seed.derive(5)),
        knapsack_items(400, seed.derive(6)),
    ];
    let mut script = Vec::new();
    const WINDOWS: [(u32, u32, u32); 4] = [
        (3, 2000, 2500),
        (4, 2400, 2600),
        (3, 1800, 2200),
        (5, 3000, 3500),
    ];
    const GF: [&str; 4] = ["meal_gf_w1", "meal_gf_w2", "meal_gf_w3", "meal_gf_w4"];
    const FAT: [&str; 4] = ["meal_fat_w1", "meal_fat_w2", "meal_fat_w3", "meal_fat_w4"];
    for (i, (count, lo, hi)) in WINDOWS.into_iter().enumerate() {
        script.push(query(
            GF[i],
            format!(
                "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
                 SUCH THAT COUNT(*) = {count} AND SUM(P.calories) BETWEEN {lo} AND {hi} \
                 MAXIMIZE SUM(P.protein)"
            ),
            Strategy::Auto,
        ));
        script.push(query(
            FAT[i],
            format!(
                "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = {count} AND SUM(P.calories) BETWEEN {lo} AND {hi} \
                 AND SUM(P.fat) <= 90 MINIMIZE SUM(P.price)"
            ),
            Strategy::Auto,
        ));
    }
    script.push(query(
        "vacation",
        registry("travel", "vacation"),
        Strategy::Auto,
    ));
    script.push(query(
        "weight_cap",
        registry("synthetic", "weight_cap"),
        Strategy::Auto,
    ));
    script.push(query(
        "many_windows",
        registry("metrics", "many_windows"),
        Strategy::Auto,
    ));
    script.push(query(
        "stock_budget",
        "SELECT PACKAGE(R) AS P FROM stocks R \
         SUCH THAT COUNT(*) = 3 AND SUM(P.price) <= 2700 MAXIMIZE SUM(P.expected_return)",
        Strategy::Auto,
    ));
    // AVG against AVG is not linearizable, and 200 candidates stay below the
    // portfolio threshold, so `Auto` routes this to local search.
    script.push(query(
        "avg_window",
        "SELECT PACKAGE(R) AS P FROM metrics R \
         SUCH THAT COUNT(*) = 5 AND AVG(P.m00) >= AVG(P.m01) AND AVG(P.m02) BETWEEN 2 AND 8 \
         MAXIMIZE SUM(P.m03)",
        Strategy::Auto,
    ));
    script.push(query(
        "repeat",
        "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 2 WHERE R.gluten = 'free' \
         SUCH THAT COUNT(*) = 4 AND SUM(P.calories) BETWEEN 2400 AND 2600 \
         MAXIMIZE SUM(P.protein)",
        Strategy::Auto,
    ));
    // A selective WHERE leaves at most `enumeration_threshold` candidates,
    // so `Auto` enumerates.
    script.push(query(
        "tiny_enum",
        "SELECT PACKAGE(R) AS P FROM stocks R WHERE R.price <= 840 \
         SUCH THAT COUNT(*) = 3 AND SUM(P.price) <= 2700 MAXIMIZE SUM(P.expected_return)",
        Strategy::Auto,
    ));
    script.push(Op {
        kind: "top_3",
        action: Action::Query {
            text: "SELECT PACKAGE(R) AS P FROM stocks R \
                   SUCH THAT COUNT(*) = 3 AND SUM(P.price) <= 2700 \
                   MAXIMIZE SUM(P.expected_return)"
                .to_string(),
            strategy: Strategy::Auto,
            num_packages: 3,
            expect_feasible: true,
        },
    });
    script.push(Op {
        kind: "unreachable",
        action: Action::Query {
            text: registry("knapsack", "unreachable_window"),
            strategy: Strategy::Auto,
            num_packages: 1,
            expect_feasible: false,
        },
    });
    script.push(Op {
        kind: "suggest",
        action: Action::Suggest {
            relation: "recipes",
            column: "calories",
        },
    });
    script.push(Op {
        kind: "refine",
        action: Action::Refine {
            text: "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
                   SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
                   MAXIMIZE SUM(P.protein)"
                .to_string(),
        },
    });
    Instance::new(engine(tables, base_config(threads)), script)
}

/// Six exact solves: `lp-solver` and `ilp::translate` do the work.
///
/// The salt picks a data set on which, at both recorded data seeds, the
/// three knapsack-hard solves run to the node cap *with* an incumbent
/// (best-bound-first search finds none on most draws) and the three
/// provable ones take 40-350 nodes.
fn exact_branchy(seed: Seed, threads: usize) -> Instance {
    let seed = seed.derive(1047);
    let tables = vec![
        assets(500, seed.derive(1)),
        stocks(500, seed.derive(2)),
        metrics_table(200, seed.derive(3)),
        recipes(20_000, seed.derive(4)),
        lineitem(8_000, seed.derive(5)),
        knapsack_items(400, seed.derive(6)),
    ];
    let mut config = base_config(threads);
    config.solver.max_nodes = 4_000;
    let script = vec![
        query(
            "x_correlated",
            registry("correlated", "strongly_correlated"),
            Strategy::Ilp,
        ),
        query(
            "x_stocks",
            registry("stocks", "budget_portfolio"),
            Strategy::Ilp,
        ),
        query(
            "x_metrics",
            registry("metrics", "many_windows"),
            Strategy::Ilp,
        ),
        query(
            "x_meal_20k",
            registry("recipes", "meal_plan"),
            Strategy::Ilp,
        ),
        query(
            "x_lineitem",
            registry("lineitem", "quantity_budget"),
            Strategy::Ilp,
        ),
        query(
            "x_knapsack",
            registry("knapsack", "tight_window"),
            Strategy::Ilp,
        ),
    ];
    Instance::new(engine(tables, config), script)
}

/// The write side of the cache: every pass appends rows, so every
/// fingerprint changes and scan + materialization dominate.
fn append_rebuild(seed: Seed, p: BuildParams) -> Instance {
    let li = lineitem(200_000, seed.derive(1));
    let rec = recipes(100_000, seed.derive(2));
    // The appended rows are the stream's, not the database's: they come
    // from the same generators under the stream seed.
    let reserve = p.append_passes * APPEND_ROWS;
    let stream = Seed(p.stream_seed);
    let growing = vec![
        Growing {
            relation: "lineitem",
            pending: lineitem_rows(reserve, stream.derive(1))
                .collect::<Vec<_>>()
                .into_iter(),
        },
        Growing {
            relation: "recipes",
            pending: recipe_rows(reserve, stream.derive(2))
                .collect::<Vec<_>>()
                .into_iter(),
        },
    ];
    let tables = vec![li, rec, wide_table(4_000, seed.derive(3))];
    let script = vec![
        Op {
            kind: "append",
            action: Action::Append { invalidate: "wide" },
        },
        query(
            "li_flag_a",
            "SELECT PACKAGE(R) AS P FROM lineitem R WHERE R.l_returnflag = 'R' \
             SUCH THAT COUNT(*) <= 40 AND SUM(P.l_quantity) <= 400 \
             MAXIMIZE SUM(P.l_extendedprice)",
            Strategy::Greedy,
        ),
        // Same WHERE, one more term: subset reuse builds only SUM(l_tax).
        query(
            "li_flag_b",
            "SELECT PACKAGE(R) AS P FROM lineitem R WHERE R.l_returnflag = 'R' \
             SUCH THAT COUNT(*) <= 40 AND SUM(P.l_quantity) <= 400 AND SUM(P.l_tax) <= 2 \
             MAXIMIZE SUM(P.l_extendedprice)",
            Strategy::Greedy,
        ),
        query(
            "li_all",
            registry("lineitem", "quantity_budget"),
            Strategy::Greedy,
        ),
        query(
            "rec_sketch",
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
            Strategy::SketchRefine,
        ),
        // Caps only: the greedy fill is feasible as built (it finds no
        // package for the registry's calorie *window*).
        query(
            "rec_all",
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) <= 10 AND SUM(P.calories) <= 6000 AND SUM(P.fat) <= 250 \
             MAXIMIZE SUM(P.protein)",
            Strategy::Greedy,
        ),
        query(
            "wide_caps",
            registry("wide", "filtered_caps"),
            Strategy::Greedy,
        ),
    ];
    let mut instance = Instance::new(engine(tables, base_config(p.threads)), script);
    // The append leads every pass, and `li_flag_b` follows `li_flag_a`
    // because it reuses its columns.
    instance.groups = vec![vec![0], vec![1, 2], vec![3], vec![4], vec![5], vec![6]];
    instance.growing = growing;
    instance
}

/// Data larger than the program's own cache: every column is spilled and
/// read back through a 16-page pool.
fn scale_paged(seed: Seed, threads: usize) -> Instance {
    let tables = vec![recipes(120_000, seed.derive(1))];
    let mut config = base_config(threads);
    config.column_memory_budget = 0;
    config.pool_pages = 16;
    let script = vec![
        query(
            "shade_a",
            registry("recipes", "meal_plan"),
            Strategy::ProgressiveShading,
        ),
        query(
            "shade_b",
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 5 AND SUM(P.calories) BETWEEN 3000 AND 3500 \
             AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.protein)",
            Strategy::ProgressiveShading,
        ),
        query(
            "flat_sketch",
            registry("recipes", "meal_plan"),
            Strategy::SketchRefine,
        ),
    ];
    Instance::new(engine(tables, config), script)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(groups: Vec<Vec<usize>>) -> Instance {
        let ops = groups.iter().flatten().count();
        let script = (0..ops)
            .map(|_| Op {
                kind: "k",
                action: Action::Append { invalidate: "t" },
            })
            .collect();
        let mut instance = Instance::new(PackageEngine::new(Catalog::new()), script);
        instance.groups = groups;
        instance
    }

    #[test]
    fn pass_order_is_a_seeded_permutation_that_keeps_groups_whole() {
        let inst = instance(vec![vec![0], vec![1, 2], vec![3], vec![4], vec![5]]);
        let orders: Vec<Vec<usize>> = (0..20).map(|seed| inst.pass_order(seed, true)).collect();
        for order in &orders {
            assert_eq!(order[0], 0, "the pinned group leads");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
            let at = order.iter().position(|&i| i == 1).unwrap();
            assert_eq!(order[at + 1], 2, "a group's inner order is kept");
        }
        assert_eq!(inst.pass_order(7, true), inst.pass_order(7, true));
        assert!(orders.iter().any(|o| o != &orders[0]), "seeds differ");
        // Unpinned, the first group moves too.
        assert!((0..20).any(|seed| inst.pass_order(seed, false)[0] != 0));
    }

    #[test]
    fn every_workload_has_a_nominal_pass_time_and_unknown_names_do_not() {
        for (name, kinds) in KINDS {
            assert!(nominal_pass_ms(name).is_some(), "{name}");
            assert!(!kinds.is_empty());
        }
        assert!(nominal_pass_ms("nope").is_none());
    }
}
