//! The experiment harness: runs every experiment (README.md, "Benchmarks",
//! says what each table is read for) at a laptop-friendly scale and prints
//! one markdown table per experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pb-bench --bin harness            # every experiment but the gauntlet
//! cargo run --release -p pb-bench --bin harness -- all     # the same
//! cargo run --release -p pb-bench --bin harness -- e1 bnb  # a subset
//! cargo run --release -p pb-bench --bin harness -- gauntlet-smoke
//! ```
//!
//! `e1`, `e3` and `e5`–`e8` are hand-written demos of the paper's features.
//! `e2`, `bnb`, `sketch`, `portfolio` and `shade` are rows of [`EXPERIMENTS`],
//! all run by [`run_experiment`]: one row shape, one file writer, and gates
//! that exit the process nonzero when they fail. `bnb` runs before the first
//! deadline race (`sketch`'s and `portfolio`'s race arms): PR 24 saw a
//! `portfolio` run earlier in the same process take away `bnb`'s 2-thread
//! speed-up, cause unknown (ROADMAP item 5(a) tracks the pool). The
//! `gauntlet` (the full grid) and `gauntlet-smoke` (each family's smallest
//! size, the CI leg) run only when named: they write `BENCH_gauntlet.json`
//! and exit nonzero when a validity, cross-thread determinism or
//! objective-gap gate fails.

use std::time::{Duration, Instant};

use lp_solver::SolverConfig;
use minidb::TupleId;
use packagebuilder::budget::Budget;
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::diversity::{diversity_score, select_diverse};
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::explore::ExplorationSession;
use packagebuilder::ilp::solve_ilp;
use packagebuilder::local_search::{local_search, single_replacement_query, LocalSearchOptions};
use packagebuilder::package::Package;
use packagebuilder::par::chunk_count;
use packagebuilder::pruning::{derive_bounds, search_space};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::suggest::{suggest, Highlight};
use packagebuilder::summary::summarize;
use pb_bench::{
    gate_failures, identical, ms, print_header, print_row, recipe_engine, recipe_table,
    resource_json, run, Gate, Row, MEAL_PLAN_QUERY, MEAL_PLAN_QUERY_NO_FILTER,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let named = |name: &str| args.iter().any(|a| a == name);
    let want = |name: &str| args.is_empty() || named("all") || named(name);

    println!("PackageBuilder reproduction — experiment harness");
    println!(
        "(one markdown table per experiment; README.md, \"Benchmarks\", says what each is read for)\n"
    );

    let demos: [(&str, fn()); 6] = [
        ("e1", e1_pruning),
        ("e3", e3_replacement),
        ("e5", e5_interface),
        ("e6", e6_multiple),
        ("e7", e7_repeat),
        ("e8", e8_explore),
    ];
    for (name, demo) in demos {
        if want(name) {
            demo();
        }
    }
    let mut ok = true;
    for experiment in EXPERIMENTS {
        if want(experiment.name) {
            ok &= run_experiment(experiment);
        }
    }
    if named("gauntlet") || named("gauntlet-smoke") {
        ok &= gauntlet(!named("gauntlet"));
    }
    if !ok {
        eprintln!("a gate failed (listed above)");
        std::process::exit(1);
    }
}

/// Whether the out-of-band tier `name` (a `PB_…_LARGE`-style switch) was
/// asked for with `name=1`.
// A harness switch, not engine configuration: the one read clippy.toml
// tolerates beside `config::env_defaults`.
#[allow(clippy::disallowed_methods)]
fn opted_in(name: &str) -> bool {
    std::env::var(name).as_deref() == Ok("1")
}

/// The one bench-file writer: the experiment's own top-level members
/// (`header`, comma-terminated), the host stamp of [`resource_json`], then
/// the rows.
fn write_bench(file: &str, header: &str, rows: &[String]) {
    let json = format!(
        "{{\n  {header}\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        rows.join(",\n")
    );
    match std::fs::write(file, json) {
        Ok(()) => println!("(wrote {file})\n"),
        Err(e) => println!("(could not write {file}: {e})\n"),
    }
}

/// One scaling experiment: a query over the recipes relation, solved by
/// every arm at every size.
struct Experiment {
    /// The mode name on the command line.
    name: &'static str,
    /// What the table shows, printed as its heading.
    title: &'static str,
    /// Where the rows go; `None` only prints them.
    file: Option<&'static str>,
    query: &'static str,
    sizes: &'static [usize],
    /// Sizes added under `PB_<NAME>_LARGE=1` (datagen alone takes a while).
    large: &'static [usize],
    arms: &'static [Arm],
    gates: &'static [Gate],
}

/// One strategy of an experiment, run once per thread count.
struct Arm {
    label: &'static str,
    strategy: Strategy,
    /// Thread budgets; `0` is the engine's default (the host's cores unless
    /// `PB_THREADS` says otherwise), and a budget listed twice runs once.
    threads: &'static [usize],
    /// Sizes above this skip the arm.
    max_n: Option<usize>,
    race: Option<Race>,
    /// From this size up the columns go out of core through a pool of a
    /// sixteenth of the view's worst-case page count (3 terms per chunk).
    paged_from: Option<usize>,
}

/// A deadline race as the interface layer runs it.
struct Race {
    deadline: Duration,
    /// The raced worker set; empty keeps the engine's default.
    workers: &'static [Strategy],
}

/// The engine's default thread budget only.
const DEFAULT_THREADS: &[usize] = &[0];

/// An arm at every size, without a race or paging.
const fn arm(label: &'static str, strategy: Strategy, threads: &'static [usize]) -> Arm {
    Arm {
        label,
        strategy,
        threads,
        max_n: None,
        race: None,
        paged_from: None,
    }
}

/// The 25 ms race of `portfolio` and `sketch`, with the engine's workers or
/// PR 2's ILP / local-search / greedy trio (the race before sketch→refine
/// joined it).
const RACE: Race = Race {
    deadline: Duration::from_millis(25),
    workers: &[],
};
const TRIO: Race = Race {
    workers: &[Strategy::Ilp, Strategy::LocalSearch, Strategy::Greedy],
    ..RACE
};

/// Every scaling experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    // The paper's crossover: exact strategies against local search, with
    // the exhaustive walks only where 2^n is still small; the `gap %`
    // column is read against the ILP's proven optimum.
    Experiment {
        name: "e2",
        title: "strategy crossover (§4, §5)",
        file: None,
        query: MEAL_PLAN_QUERY,
        sizes: &[20, 50, 100, 200, 500, 1_000, 2_000, 3_000, 5_000],
        large: &[],
        arms: &[
            arm("ilp", Strategy::Ilp, DEFAULT_THREADS),
            Arm {
                max_n: Some(24),
                ..arm("exhaustive", Strategy::Exhaustive, DEFAULT_THREADS)
            },
            Arm {
                max_n: Some(60),
                ..arm("pruned-enum", Strategy::PrunedEnumeration, DEFAULT_THREADS)
            },
            arm("local-search", Strategy::LocalSearch, DEFAULT_THREADS),
        ],
        gates: &[],
    },
    // The exact core: warm-started parallel branch and bound against the
    // sketch→refine rival it races. Frontier batches have a fixed
    // composition and merge in batch order, so threads may change the
    // wall-clock only.
    Experiment {
        name: "bnb",
        title: "parallel branch & bound with warm starts across threads × n (meal plan)",
        file: Some("BENCH_bnb.json"),
        query: MEAL_PLAN_QUERY,
        sizes: &[2_000, 8_000, 20_000],
        large: &[],
        arms: &[
            arm("sketch-refine", Strategy::SketchRefine, &[1]),
            arm("ilp", Strategy::Ilp, &[1, 2, 0]),
        ],
        gates: &[Gate::SameFingerprint("ilp")],
    },
    // SketchRefine's claim (PVLDB 2016): near-optimal objectives at a small
    // fraction of the monolithic ILP's latency, and better than a deadline
    // race that can no longer finish the exact solve. The ILP baseline
    // stops at 20 000, where one more size would take minutes.
    Experiment {
        name: "sketch",
        title: "sketch→refine vs sequential ILP and the 25 ms portfolio (meal plan)",
        file: Some("BENCH_sketch.json"),
        query: MEAL_PLAN_QUERY,
        sizes: &[2_000, 8_000, 20_000, 50_000],
        large: &[],
        arms: &[
            Arm {
                max_n: Some(20_000),
                ..arm("ilp", Strategy::Ilp, DEFAULT_THREADS)
            },
            Arm {
                race: Some(TRIO),
                ..arm("race-trio", Strategy::Portfolio, DEFAULT_THREADS)
            },
            Arm {
                race: Some(RACE),
                ..arm("portfolio", Strategy::Portfolio, DEFAULT_THREADS)
            },
            arm("sketch-refine", Strategy::SketchRefine, DEFAULT_THREADS),
        ],
        gates: &[],
    },
    // The race against the sequential strategies at the sizes where the
    // planner deploys it; the first provable optimum cancels the rest.
    Experiment {
        name: "portfolio",
        title: "racing solve (deadline 25 ms) vs sequential strategies (meal plan)",
        file: Some("BENCH_portfolio.json"),
        query: MEAL_PLAN_QUERY,
        sizes: &[2_000, 8_000, 20_000],
        large: &[],
        arms: &[
            arm("ilp", Strategy::Ilp, DEFAULT_THREADS),
            arm("local-search", Strategy::LocalSearch, DEFAULT_THREADS),
            arm("greedy", Strategy::Greedy, DEFAULT_THREADS),
            Arm {
                race: Some(RACE),
                ..arm("portfolio", Strategy::Portfolio, DEFAULT_THREADS)
            },
        ],
        gates: &[],
    },
    // Progressive shading, the hierarchical sketch path for 10^6+
    // candidates (no filter, so candidates == n), with flat sketch→refine
    // as the baseline where its sketch is tractable. The flagship 10^7 row
    // solves out of core.
    Experiment {
        name: "shade",
        title: "progressive shading vs flat sketch→refine (meal plan, no filter)",
        file: Some("BENCH_shade.json"),
        query: MEAL_PLAN_QUERY_NO_FILTER,
        sizes: &[20_000, 120_000, 1_000_000],
        large: &[10_000_000],
        arms: &[
            Arm {
                paged_from: Some(10_000_000),
                ..arm("greedy", Strategy::Greedy, &[1])
            },
            Arm {
                max_n: Some(120_000),
                ..arm("sketch-refine", Strategy::SketchRefine, &[1])
            },
            Arm {
                paged_from: Some(10_000_000),
                ..arm(
                    "progressive-shading",
                    Strategy::ProgressiveShading,
                    &[1, 2, 8],
                )
            },
        ],
        gates: &[
            Gate::SameFingerprint("progressive-shading"),
            Gate::AtLeast {
                arm: "progressive-shading",
                floor: "greedy",
            },
        ],
    },
];

/// Runs `e`: every size × arm × thread budget, one [`Row`] each, printed as
/// it lands; then its gates and its file. Returns false when a gate failed.
fn run_experiment(e: &Experiment) -> bool {
    println!("## {} — {}\n", e.name.to_uppercase(), e.title);
    let widths = [9, 20, 7, 11, 10, 7, 8, 7, 10, 8, 13];
    print_header(
        &[
            "n",
            "strategy",
            "threads",
            "time (ms)",
            "objective",
            "gap %",
            "optimal?",
            "nodes",
            "iterations",
            "cold LPs",
            "identical",
        ],
        &widths,
    );
    let mut sizes = e.sizes.to_vec();
    if opted_in(&format!("PB_{}_LARGE", e.name.to_uppercase())) {
        sizes.extend(e.large);
    }
    let host = EngineConfig::default().num_threads;
    let mut rows: Vec<Row> = Vec::new();
    for n in sizes {
        for arm in e.arms.iter().filter(|a| a.max_n.is_none_or(|m| n <= m)) {
            let mut budgets: Vec<usize> = Vec::new();
            for t in arm.threads.iter().map(|&t| if t == 0 { host } else { t }) {
                if !budgets.contains(&t) {
                    budgets.push(t);
                }
            }
            for threads in budgets {
                let row = measure(e.query, n, arm, threads);
                // Against the proven optimum at this size, once a row has one.
                let optimum = rows.iter().find(|r| r.n == n && r.result.optimal);
                let gap = match (
                    optimum.and_then(|r| r.result.best_objective()),
                    row.result.best_objective(),
                ) {
                    (Some(o), Some(v)) => format!("{:.2}", 100.0 * (o - v) / o.abs().max(1e-9)),
                    _ => "-".into(),
                };
                let r = &row.result;
                print_row(
                    &[
                        n.to_string(),
                        arm.label.into(),
                        threads.to_string(),
                        format!("{:.3}", row.ms),
                        r.best_objective()
                            .map_or_else(|| "-".into(), |o| format!("{o:.1}")),
                        gap,
                        if r.optimal { "yes" } else { "no" }.into(),
                        r.stats.nodes.to_string(),
                        r.stats.iterations.to_string(),
                        r.stats.cold_solves.to_string(),
                        if identical(&rows, &row) {
                            "identical"
                        } else {
                            "DIFFERENT (!)"
                        }
                        .into(),
                    ],
                    &widths,
                );
                rows.push(row);
            }
        }
    }
    println!();
    let failures = gate_failures(e.gates, &rows);
    for failure in &failures {
        eprintln!("{} gate failed: {failure}", e.name.to_uppercase());
    }
    if let Some(file) = e.file {
        let json: Vec<String> = rows.iter().map(|r| r.json(identical(&rows, r))).collect();
        let header = format!(
            "\"experiment\": \"{}\",\n  \"query\": {:?},",
            e.name, e.query
        );
        write_bench(file, &header, &json);
    }
    failures.is_empty()
}

/// One timed run of `arm` at size `n` on `threads` threads (the engine is
/// built outside the clock).
fn measure(query: &str, n: usize, arm: &Arm, threads: usize) -> Row {
    let mut engine = recipe_engine(n, arm.strategy);
    let config = engine.config_mut();
    config.num_threads = threads;
    if let Some(race) = &arm.race {
        config.time_budget = Some(race.deadline);
        config.solver.time_limit = Some(race.deadline);
        if !race.workers.is_empty() {
            config.portfolio_workers = race.workers.to_vec();
        }
    }
    if arm.paged_from.is_some_and(|from| n >= from) {
        config.column_memory_budget = 0;
        config.pool_pages = (3 * chunk_count(n) / 16).max(2);
    }
    let t0 = Instant::now();
    let result = run(&engine, query);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Row {
        n,
        arm: arm.label,
        threads,
        ms,
        result,
    }
}

fn e1_pruning() {
    println!("## E1 — cardinality-based pruning (§4.1)\n");
    let widths = [4, 14, 14, 16, 12, 14, 12];
    print_header(
        &[
            "n",
            "space 2^n",
            "space pruned",
            "reduction (log2)",
            "nodes full",
            "nodes pruned",
            "same optimum",
        ],
        &widths,
    );
    for n in [12usize, 16, 20, 24] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        let bounds = derive_bounds(spec.view());
        let space = search_space(spec.view(), &bounds);
        let pruned = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: true,
                keep: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let full = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: false,
                keep: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let same = match (pruned.packages.first(), full.packages.first()) {
            (None, None) => "yes (both empty)".to_string(),
            (Some((_, a)), Some((_, b))) => {
                if (a.unwrap_or(0.0) - b.unwrap_or(0.0)).abs() < 1e-6 {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                }
            }
            _ => "NO".to_string(),
        };
        print_row(
            &[
                n.to_string(),
                format!("{:.3e}", space.unpruned()),
                format!("{:.3e}", space.pruned().unwrap_or(f64::NAN)),
                format!("{:.1}", space.reduction_log2().unwrap_or(f64::NAN)),
                full.nodes.to_string(),
                pruned.nodes.to_string(),
                same,
            ],
            &widths,
        );
    }
    println!();
}

fn e3_replacement() {
    println!("## E3 — k-tuple replacement neighbourhood (§4.2)\n");
    let widths = [6, 26, 14, 16];
    print_header(&["n", "operation", "time (ms)", "result size"], &widths);
    for n in [100usize, 400, 1600, 6400] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        // Pick the three recipes closest to 900 kcal: the package lands a few
        // hundred calories over the 2,500 budget, so single-tuple repairs exist
        // (mirroring the paper's 3,000-calorie example).
        let mut by_cal = spec.candidates.clone();
        by_cal.sort_by(|a, b| {
            let da = (table.value_f64(*a, "calories").unwrap() - 900.0).abs();
            let db = (table.value_f64(*b, "calories").unwrap() - 900.0).abs();
            da.total_cmp(&db)
        });
        let package = Package::from_ids(by_cal.iter().copied().take(3));
        let total: f64 = package
            .members()
            .map(|(id, m)| table.value_f64(id, "calories").unwrap() * m as f64)
            .sum();
        let t0 = Instant::now();
        let rel = single_replacement_query(
            &table,
            &package,
            &spec.candidates,
            "calories",
            total,
            2500.0,
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "1-replacement query".into(),
                ms(t0.elapsed()),
                format!("{} pairs", rel.len()),
            ],
            &widths,
        );
    }
    // Local search with k = 1 vs k = 2 at fixed n: neighbourhood blow-up.
    let table = recipe_table(300);
    let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for k in [1usize, 2] {
        let t0 = Instant::now();
        let out = local_search(
            spec.view(),
            &LocalSearchOptions {
                k,
                restarts: 2,
                max_moves: 100,
                ..Default::default()
            },
        )
        .unwrap();
        print_row(
            &[
                "300".into(),
                format!("local search k={k}"),
                ms(t0.elapsed()),
                format!("{} evals", out.evaluations),
            ],
            &widths,
        );
    }
    println!();
}

fn e5_interface() {
    println!("## E5 — interface backends (§3.1–3.2, Fig. 1)\n");
    let widths = [8, 28, 14, 14];
    print_header(&["size", "operation", "time (ms)", "output"], &widths);
    for n in [1_000usize, 10_000, 50_000] {
        let table = recipe_table(n);
        let t0 = Instant::now();
        let s = suggest(
            &table,
            "P",
            &Highlight::Cell {
                tuple: TupleId(0),
                column: "fat".into(),
            },
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "suggest (cell highlight)".into(),
                ms(t0.elapsed()),
                format!("{} suggestions", s.len()),
            ],
            &widths,
        );
        let t0 = Instant::now();
        let s = suggest(
            &table,
            "P",
            &Highlight::Column {
                column: "calories".into(),
            },
        )
        .unwrap();
        print_row(
            &[
                n.to_string(),
                "suggest (column highlight)".into(),
                ms(t0.elapsed()),
                format!("{} suggestions", s.len()),
            ],
            &widths,
        );
    }
    let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
    let t0 = Instant::now();
    let text = paql::pretty::describe_query(&query);
    print_row(
        &[
            "-".into(),
            "natural-language description".into(),
            ms(t0.elapsed()),
            format!("{} chars", text.len()),
        ],
        &widths,
    );
    let table = recipe_table(2_000);
    let analyzed = paql::compile(MEAL_PLAN_QUERY, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for m in [100usize, 1_000, 10_000] {
        let packages: Vec<Package> = (0..m)
            .map(|i| {
                Package::from_ids(
                    spec.candidates
                        .iter()
                        .copied()
                        .cycle()
                        .skip(i % spec.candidates.len())
                        .take(3),
                )
            })
            .collect();
        let t0 = Instant::now();
        let summary = summarize(&spec, &packages, Some(0)).unwrap();
        print_row(
            &[
                m.to_string(),
                "2-D package-space summary".into(),
                ms(t0.elapsed()),
                format!("{} glyphs", summary.glyphs.len()),
            ],
            &widths,
        );
    }
    println!();
}

fn e6_multiple() {
    println!("## E6 — multiple & diverse packages (§5)\n");
    let widths = [6, 26, 14, 16];
    print_header(&["p", "method", "time (ms)", "result"], &widths);
    let table = recipe_table(200);
    let q = "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 MAXIMIZE SUM(P.protein)";
    let analyzed = paql::compile(q, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for p in [1usize, 5, 10, 20] {
        let t0 = Instant::now();
        let out = solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            p,
            &Budget::unlimited(),
        )
        .unwrap();
        print_row(
            &[
                p.to_string(),
                "ilp + no-good cuts".into(),
                ms(t0.elapsed()),
                format!("{} packages", out.packages.len()),
            ],
            &widths,
        );
    }
    // Diversity: top-k by objective vs max-min diverse selection.
    let small = recipe_table(18);
    let analyzed = paql::compile(q, small.schema()).unwrap();
    let small_spec = PackageSpec::build(&analyzed, &small, &BuildCtx::default()).unwrap();
    let pool: Vec<Package> = enumerate(
        small_spec.view(),
        EnumerationOptions {
            keep: 5_000,
            ..Default::default()
        },
    )
    .unwrap()
    .packages
    .into_iter()
    .map(|(p, _)| p)
    .collect();
    for k in [5usize, 10] {
        let topk: Vec<Package> = pool.iter().take(k).cloned().collect();
        let t0 = Instant::now();
        let diverse = select_diverse(&pool, k);
        print_row(
            &[
                k.to_string(),
                "max-min diverse selection".into(),
                ms(t0.elapsed()),
                format!(
                    "div {:.2} vs top-k {:.2}",
                    diversity_score(&diverse),
                    diversity_score(&topk)
                ),
            ],
            &widths,
        );
    }
    println!();
}

fn e7_repeat() {
    println!("## E7 — REPEAT multiplicities (§2)\n");
    let widths = [8, 14, 16, 18];
    print_header(
        &["repeat", "time (ms)", "objective", "max multiplicity"],
        &widths,
    );
    let engine = recipe_engine(300, Strategy::Ilp);
    let mut last = f64::NEG_INFINITY;
    for k in [1u32, 2, 3, 4] {
        let q = format!(
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT {k} \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)"
        );
        let t0 = Instant::now();
        let r = run(&engine, &q);
        let obj = r.best_objective().unwrap_or(f64::NAN);
        let monotone = if obj + 1e-6 >= last {
            ""
        } else {
            "  (NOT monotone!)"
        };
        last = obj;
        print_row(
            &[
                k.to_string(),
                ms(t0.elapsed()),
                format!("{obj:.1}{monotone}"),
                r.best()
                    .map(|p| p.max_multiplicity().to_string())
                    .unwrap_or("-".into()),
            ],
            &widths,
        );
    }
    println!();
}

fn e8_explore() {
    println!("## E8 — adaptive exploration (§3.3)\n");
    let widths = [6, 8, 14, 18, 20];
    print_header(
        &[
            "n",
            "round",
            "time (ms)",
            "locked kept?",
            "inferred constraints",
        ],
        &widths,
    );
    for n in [500usize, 5_000] {
        let engine = recipe_engine(n, Strategy::Ilp);
        let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        let t0 = Instant::now();
        session.sample(&engine).unwrap();
        print_row(
            &[
                n.to_string(),
                "0".into(),
                ms(t0.elapsed()),
                "-".into(),
                "-".into(),
            ],
            &widths,
        );
        // Lock one tuple per round and refine.
        for round in 1..=3usize {
            let keep = session.current().unwrap().tuple_ids()[0];
            session.lock(keep).unwrap();
            let t0 = Instant::now();
            let r = session.refine(&engine).unwrap();
            let kept = r
                .best()
                .map(|p| session.locked().all(|t| p.multiplicity(t) > 0))
                .unwrap_or(false);
            let inferred = session.inferred_constraints(&engine).unwrap().len();
            print_row(
                &[
                    n.to_string(),
                    round.to_string(),
                    ms(t0.elapsed()),
                    if kept { "yes".into() } else { "NO".into() },
                    inferred.to_string(),
                ],
                &widths,
            );
        }
    }
    println!();
}

/// GAUNTLET — the adversarial workload gauntlet: every scenario family in
/// the `datagen` registry × every engine strategy × the family's size grid,
/// each cell solved at 1 and 2 threads. Three gates make the caller exit
/// nonzero:
///
/// 1. **Validity / honesty**: every returned package must pass the
///    *interpreted* validity oracle (not the columnar path the solvers
///    themselves use), and queries registered infeasible must come back
///    empty from every strategy — honestly infeasible, never silently
///    invalid.
/// 2. **Cross-thread identity**: packages, objectives and optimality flags
///    — plus node/iteration counters outside the timing-raced portfolio —
///    must be bit-identical at 1 and 2 threads.
/// 3. **Objective gap**: the gated strategies (`Auto`, `Ilp`, `Portfolio`
///    — the routes a user lands on without opting into a heuristic) must
///    stay within the family's documented `ScenarioQuery::max_gap` of the
///    oracle: the exact optimum where some strategy proved one at this
///    size, the best known objective across strategies otherwise.
///    Explicitly-chosen heuristics (`Greedy`, `LocalSearch`,
///    `SketchRefine`, truncated enumeration) are recorded, not gated —
///    but `Auto` is gated *everywhere*, so any route it hands a query to
///    must clear the family threshold at that size.
///
/// Cells use deterministic truncation only — node and move caps, see
/// `pb_bench::gauntlet_config` — because a wall-clock budget would make
/// gate 2 unenforceable. Exact and enumeration strategies sit out sizes
/// above the family's `exact_cap`. `smoke` restricts each family to its
/// smallest size (the CI configuration); the plain `gauntlet` mode runs
/// the full grid plus the lineitem **large tier** (n = 10^6, and 10^7 with
/// `PB_GAUNTLET_LARGE=1`), where only the scalable strategies run and
/// progressive shading joins the gated set against a relaxed 5% bound.
/// Writes `BENCH_gauntlet.json`.
fn gauntlet(smoke: bool) -> bool {
    use datagen::{scenarios, Seed};
    use pb_bench::{gauntlet_engine, try_run, BENCH_SEED};

    // Every engine strategy except `Exhaustive`: the engine itself refuses
    // unpruned enumeration beyond a couple dozen candidates (by design —
    // a truncated walk of an unordered 2^n space says nothing), so it can
    // never run at gauntlet sizes.
    let strategies: &[(&str, Strategy)] = &[
        ("auto", Strategy::Auto),
        ("ilp", Strategy::Ilp),
        ("pruned-enum", Strategy::PrunedEnumeration),
        ("local-search", Strategy::LocalSearch),
        ("greedy", Strategy::Greedy),
        ("sketch-refine", Strategy::SketchRefine),
        ("progressive-shading", Strategy::ProgressiveShading),
        ("portfolio", Strategy::Portfolio),
    ];
    // Large-tier cells additionally gate progressive shading: at 10^6+ the
    // hierarchical path is the route `Auto` takes, so it must clear a gap
    // bound against the best known objective (greedy, and at 10^6 the flat
    // sketch) — relaxed to 5% because the oracle itself is a heuristic there.
    const LARGE_TIER_GAP: f64 = 0.05;
    let gated = |label: &str, large_tier: bool| {
        matches!(label, "auto" | "ilp" | "portfolio")
            || (large_tier && label == "progressive-shading")
    };
    let exactish = |label: &str| matches!(label, "ilp" | "portfolio" | "pruned-enum");

    println!(
        "## GAUNTLET{} — scenario × strategy × n; gates: validity, cross-thread identity, gap\n",
        if smoke { " (smoke)" } else { "" }
    );

    let mut failures: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();

    struct Cell {
        label: &'static str,
        ms: f64,
        objective: Option<f64>,
        optimal: bool,
        empty: bool,
        identical: bool,
        nodes: u64,
        iterations: u64,
        pool: [u64; 4],
    }

    for scenario in scenarios() {
        println!("### {} — {}\n", scenario.name, scenario.summary);
        let widths = [20, 8, 13, 10, 12, 8, 9, 10];
        print_header(
            &[
                "query",
                "n",
                "strategy",
                "time (ms)",
                "objective",
                "gap %",
                "optimal?",
                "identical",
            ],
            &widths,
        );
        let mut sizes: Vec<usize> = if smoke {
            vec![scenario.gauntlet_sizes[0]]
        } else {
            scenario.gauntlet_sizes.to_vec()
        };
        // The large tier: sizes past the registered grid, where only the
        // scalable strategies run and progressive shading joins the gated
        // set. 10^6 rides the full (non-smoke) gauntlet; the 10^7 flagship
        // is opt-in via `PB_GAUNTLET_LARGE=1` (datagen alone takes a while),
        // like `shade`'s `PB_SHADE_LARGE`.
        if !smoke && scenario.name == "lineitem" {
            sizes.push(1_000_000);
            if opted_in("PB_GAUNTLET_LARGE") {
                sizes.push(10_000_000);
            }
        }
        for q in &scenario.queries {
            for &n in &sizes {
                // The independent validity oracle for this (query, n). The
                // engine re-checks results internally, but the gate must not
                // trust the code path it is gating.
                let table = (scenario.build)(n, Seed(BENCH_SEED));
                let spec = match paql::compile(&q.text, table.schema())
                    .map_err(|e| e.to_string())
                    .and_then(|a| {
                        PackageSpec::build(&a, &table, &BuildCtx::default())
                            .map_err(|e| e.to_string())
                    }) {
                    Ok(s) => s,
                    Err(e) => {
                        failures.push(format!(
                            "{}/{} n={n}: query rejected: {e}",
                            scenario.name, q.label
                        ));
                        continue;
                    }
                };

                let large_tier = n > *scenario.gauntlet_sizes.last().unwrap();
                let mut cells: Vec<Cell> = Vec::new();
                for &(label, strategy) in strategies {
                    if exactish(label) && n > scenario.exact_cap {
                        continue;
                    }
                    // Large-tier cells run the scalable trio only: exact and
                    // search strategies would grind for hours at 10^6+, and
                    // at 10^7 the flat sketch is itself the multi-minute
                    // baseline — the tier exists to gate progressive shading
                    // against greedy and (at 10^6) flat sketch-refine.
                    if large_tier
                        && !matches!(label, "greedy" | "sketch-refine" | "progressive-shading")
                    {
                        continue;
                    }
                    if n >= 10_000_000 && label == "sketch-refine" {
                        continue;
                    }
                    let ctx = format!("{}/{} n={n} {label}", scenario.name, q.label);
                    let solve = |threads: usize| {
                        let engine = gauntlet_engine(
                            (scenario.build)(n, Seed(BENCH_SEED)),
                            strategy,
                            threads,
                        );
                        let t0 = Instant::now();
                        let r = try_run(&engine, &q.text);
                        (r, t0.elapsed())
                    };
                    let pool_before = packagebuilder::pool_stats();
                    let (r1, elapsed) = solve(1);
                    let pool_after = packagebuilder::pool_stats();
                    let r1 = match r1 {
                        Ok(r) => r,
                        Err(e) => {
                            failures.push(format!("{ctx}: engine error: {e}"));
                            continue;
                        }
                    };
                    // Gate 1: validity / honesty.
                    for p in &r1.packages {
                        match spec.is_valid_interpreted(p) {
                            Ok(true) => {}
                            Ok(false) => failures.push(format!("{ctx}: INVALID package returned")),
                            Err(e) => failures.push(format!("{ctx}: validity oracle error: {e}")),
                        }
                    }
                    if !q.expect_feasible && !r1.is_empty() {
                        failures.push(format!(
                            "{ctx}: returned a package on a query registered infeasible"
                        ));
                    }
                    // Gate 2: cross-thread identity.
                    let (r2, _) = solve(2);
                    let identical = match r2 {
                        Err(e) => {
                            failures.push(format!("{ctx}: engine error at 2 threads: {e}"));
                            false
                        }
                        Ok(r2) => {
                            let bits = |r: &packagebuilder::PackageResult| {
                                r.objectives
                                    .iter()
                                    .map(|o| o.map(f64::to_bits))
                                    .collect::<Vec<_>>()
                            };
                            let same = r1.packages == r2.packages
                                && bits(&r1) == bits(&r2)
                                && r1.optimal == r2.optimal
                                && (label == "portfolio"
                                    || (r1.stats.nodes == r2.stats.nodes
                                        && r1.stats.iterations == r2.stats.iterations));
                            if !same {
                                failures
                                    .push(format!("{ctx}: results differ between 1 and 2 threads"));
                            }
                            same
                        }
                    };
                    cells.push(Cell {
                        label,
                        ms: elapsed.as_secs_f64() * 1e3,
                        objective: r1.best_objective(),
                        optimal: r1.optimal,
                        empty: r1.is_empty(),
                        identical,
                        nodes: r1.stats.nodes,
                        iterations: r1.stats.iterations,
                        pool: [
                            pool_after.hits - pool_before.hits,
                            pool_after.misses - pool_before.misses,
                            pool_after.evictions - pool_before.evictions,
                            pool_after.pages_spilled - pool_before.pages_spilled,
                        ],
                    });
                }

                // The oracle. Every registry gauntlet query MAXIMIZEs, so
                // "best known" is the maximum across strategies.
                let proven = cells
                    .iter()
                    .filter(|c| c.optimal)
                    .filter_map(|c| c.objective)
                    .fold(None, |acc: Option<f64>, o| {
                        Some(acc.map_or(o, |a| a.max(o)))
                    });
                let best_known = cells
                    .iter()
                    .filter_map(|c| c.objective)
                    .fold(None, |acc: Option<f64>, o| {
                        Some(acc.map_or(o, |a| a.max(o)))
                    });
                let oracle = proven.or(best_known);

                // Gate 3 plus reporting.
                for c in &cells {
                    let gap = match (oracle, c.objective) {
                        (Some(o), Some(v)) => Some(((o - v) / o.abs().max(1e-9)).max(0.0)),
                        _ => None,
                    };
                    let cell_max_gap = if large_tier {
                        q.max_gap.max(LARGE_TIER_GAP)
                    } else {
                        q.max_gap
                    };
                    if q.expect_feasible && gated(c.label, large_tier) {
                        match gap {
                            Some(g) if g <= cell_max_gap + 1e-12 => {}
                            Some(g) => failures.push(format!(
                                "{}/{} n={n} {}: gap {:.3}% exceeds the family max {:.3}%",
                                scenario.name,
                                q.label,
                                c.label,
                                g * 100.0,
                                cell_max_gap * 100.0
                            )),
                            None if c.empty => failures.push(format!(
                                "{}/{} n={n} {}: no package on a feasible query",
                                scenario.name, q.label, c.label
                            )),
                            None => {}
                        }
                    }
                    print_row(
                        &[
                            q.label.to_string(),
                            n.to_string(),
                            c.label.to_string(),
                            format!("{:.3}", c.ms),
                            c.objective
                                .map(|o| format!("{o:.1}"))
                                .unwrap_or_else(|| "-".into()),
                            gap.map(|g| format!("{:.2}", g * 100.0))
                                .unwrap_or_else(|| "-".into()),
                            if c.optimal { "yes".into() } else { "no".into() },
                            if c.identical {
                                "identical".into()
                            } else {
                                "DIFFERENT (!)".into()
                            },
                        ],
                        &widths,
                    );
                    json_rows.push(format!(
                        "    {{\"scenario\": \"{}\", \"query\": \"{}\", \"n\": {n}, \
                         \"strategy\": \"{}\", \"ms\": {:.3}, \"objective\": {}, \
                         \"gap\": {}, \"max_gap\": {}, \"gated\": {}, \"optimal\": {}, \
                         \"empty\": {}, \"identical\": {}, \"oracle\": {}, \
                         \"nodes\": {}, \"iterations\": {}, \
                         \"pool\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                         \"pages_spilled\": {}}}}}",
                        scenario.name,
                        q.label,
                        c.label,
                        c.ms,
                        c.objective
                            .map(|o| format!("{o:.3}"))
                            .unwrap_or_else(|| "null".into()),
                        gap.map(|g| format!("{g:.6}"))
                            .unwrap_or_else(|| "null".into()),
                        cell_max_gap,
                        gated(c.label, large_tier),
                        c.optimal,
                        c.empty,
                        c.identical,
                        oracle
                            .map(|o| format!("{o:.3}"))
                            .unwrap_or_else(|| "null".into()),
                        c.nodes,
                        c.iterations,
                        c.pool[0],
                        c.pool[1],
                        c.pool[2],
                        c.pool[3],
                    ));
                }
            }
        }
        println!();
    }

    let header =
        format!("\"experiment\": \"gauntlet\",\n  \"smoke\": {smoke},\n  \"seed\": {BENCH_SEED},");
    write_bench("BENCH_gauntlet.json", &header, &json_rows);
    if !failures.is_empty() {
        println!("GAUNTLET failures:");
        for f in &failures {
            println!("  - {f}");
        }
    }
    failures.is_empty()
}
