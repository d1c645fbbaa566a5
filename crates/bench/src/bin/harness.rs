//! The experiment harness: runs every experiment (README.md, "Benchmarks",
//! says what each table is read for) at a laptop-friendly scale and prints
//! one markdown table per experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pb-bench --bin harness            # every experiment but the gauntlet
//! cargo run --release -p pb-bench --bin harness -- all     # the same
//! cargo run --release -p pb-bench --bin harness -- shade   # one experiment
//! cargo run --release -p pb-bench --bin harness -- gauntlet-smoke
//! ```
//!
//! An argument that names no experiment exits nonzero before anything runs.
//! Every experiment is a row of [`EXPERIMENTS`] run by [`run_experiment`]:
//! one row shape, one oracle, one file writer, and [`Gate`]s that exit the
//! process nonzero when they fail. The `gauntlet` (every registry query at
//! every size) and `gauntlet-smoke` (each family's smallest size, the CI
//! leg) run only when named. The full grid writes the committed
//! `BENCH_gauntlet.json`; the smoke tier writes
//! `target/BENCH_gauntlet_smoke.json`, so a local smoke run leaves the
//! committed grid as it is.

use std::time::Instant;

use datagen::{scenario, scenarios, Scenario, Seed};
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::par::chunk_count;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{pool_stats, PackageEngine, PackageResult, PbResult, PoolStats};
use pb_bench::{
    engine, gate_failures, gauntlet_config, identical, ms, resource_json, score, seeded_config,
    Gate, Row, Workload, BENCH_SEED, MEAL_PLAN_QUERY,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let experiments = select(&args).unwrap_or_else(|unknown| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "unknown experiment `{unknown}`; expected `all` or one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    });

    println!("PackageBuilder reproduction — experiment harness");
    println!(
        "(one markdown table per experiment; README.md, \"Benchmarks\", says what each is read for)\n"
    );
    let mut ok = true;
    for experiment in experiments {
        ok &= run_experiment(experiment);
    }
    if !ok {
        eprintln!("a gate failed or a file could not be written (listed above)");
        std::process::exit(1);
    }
}

/// The experiments `args` ask for, in [`EXPERIMENTS`] order: the named ones,
/// plus every one but the on-demand tiers when `args` is empty or holds
/// `all`. `Err` is the first argument that is neither `all` nor a name.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    let named = |name: &str| args.iter().any(|a| a == name);
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "all" && !EXPERIMENTS.iter().any(|e| e.name == *a))
    {
        return Err(unknown);
    }
    let every = args.is_empty() || named("all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| named(e.name) || (every && !e.on_demand))
        .collect())
}

/// Whether the out-of-band tier `name` (`PB_SHADE_LARGE`) was asked for
/// with `name=1`.
// A harness switch, not engine configuration: the one read clippy.toml
// tolerates beside `config::env_defaults`.
#[allow(clippy::disallowed_methods)]
fn opted_in(name: &str) -> bool {
    std::env::var(name).as_deref() == Ok("1")
}

/// The one bench-file writer: the experiment's own top-level members
/// (`header`, comma-terminated), the host stamp of [`resource_json`], then
/// the rows, creating the file's directory when it is missing. Returns
/// false when the file could not be written.
fn write_bench(file: &str, header: &str, rows: &[String]) -> bool {
    let json = format!(
        "{{\n  {header}\n{}\n  \"rows\": [\n{}\n  ]\n}}\n",
        resource_json(),
        rows.join(",\n")
    );
    let dir = std::path::Path::new(file).parent();
    let written = dir.map_or(Ok(()), std::fs::create_dir_all);
    match written.and_then(|()| std::fs::write(file, json)) {
        Ok(()) => {
            println!("(wrote {file})\n");
            true
        }
        Err(e) => {
            eprintln!("could not write {file}: {e}");
            false
        }
    }
}

/// One experiment: its workloads, each solved by every arm at every size.
struct Experiment {
    /// The mode name on the command line.
    name: &'static str,
    /// What the table shows, printed as its heading.
    title: &'static str,
    /// Where the rows go; `None` only prints them. An entry that writes a
    /// file declares at least one gate.
    file: Option<&'static str>,
    /// Runs only when named, never under `all`.
    on_demand: bool,
    workloads: fn() -> Vec<Workload>,
    /// The engine configuration every arm starts from.
    config: fn(Strategy) -> EngineConfig,
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
    /// Sizes above the workload's `exact_cap` skip the arm.
    exact: bool,
    /// From this size up the columns go out of core through a pool of a
    /// sixteenth of the view's worst-case page count (3 terms per chunk).
    paged_from: Option<usize>,
}

/// The engine's default thread budget only.
const DEFAULT_THREADS: &[usize] = &[0];

/// An arm at every size, without paging.
const fn arm(label: &'static str, strategy: Strategy, threads: &'static [usize]) -> Arm {
    Arm {
        label,
        strategy,
        threads,
        max_n: None,
        exact: false,
        paged_from: None,
    }
}

/// The registry family `name`.
fn family(name: &str) -> Scenario {
    scenario(name).expect("the harness's families are registered")
}

/// The paper's gluten-free meal plan over the registry's recipes family.
fn meal_plan(sizes: &[usize]) -> Vec<Workload> {
    let recipes = family("recipes");
    vec![Workload {
        query: "meal_plan_gf",
        text: MEAL_PLAN_QUERY.into(),
        ..Workload::registry(&recipes, &recipes.queries[0], sizes)
    }]
}

/// Every registry query at every gauntlet size, or at the first for the
/// smoke tier.
fn gauntlet(smoke: bool) -> Vec<Workload> {
    let mut workloads = Vec::new();
    for s in scenarios() {
        let sizes = if smoke {
            &s.gauntlet_sizes[..1]
        } else {
            &s.gauntlet_sizes[..]
        };
        workloads.extend(s.queries.iter().map(|q| Workload::registry(&s, q, sizes)));
    }
    workloads
}

/// Every engine strategy but `Exhaustive` at 1 and 2 threads: the engine
/// refuses unpruned enumeration beyond a couple dozen candidates, so it can
/// never run at gauntlet sizes.
const GAUNTLET_ARMS: &[Arm] = &[
    arm("auto", Strategy::Auto, &[1, 2]),
    Arm {
        exact: true,
        ..arm("ilp", Strategy::Ilp, &[1, 2])
    },
    Arm {
        exact: true,
        ..arm("pruned-enum", Strategy::PrunedEnumeration, &[1, 2])
    },
    arm("local-search", Strategy::LocalSearch, &[1, 2]),
    arm("greedy", Strategy::Greedy, &[1, 2]),
    arm("sketch-refine", Strategy::SketchRefine, &[1, 2]),
    arm("progressive-shading", Strategy::ProgressiveShading, &[1, 2]),
    Arm {
        exact: true,
        ..arm("portfolio", Strategy::Portfolio, &[1, 2])
    },
];

/// The routes a user lands on without opting into a heuristic; `auto` is
/// gated at every size, so wherever it hands a query off must clear the
/// family's threshold. Explicitly chosen heuristics are recorded, not gated.
const GATED: &[&str] = &["auto", "ilp", "portfolio"];

const GAUNTLET_GATES: &[Gate] = &[
    Gate::Valid,
    Gate::EmptyWhenInfeasible,
    Gate::SameFingerprint,
    Gate::MaxGap(GATED),
    Gate::NonEmptyWhenFeasible(GATED),
];

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    // The paper's crossover: exact strategies against local search, with
    // the exhaustive walks only where 2^n is still small; the `gap %`
    // column is read against the ILP's proven optimum.
    Experiment {
        name: "e2",
        title: "strategy crossover (§4, §5)",
        file: None,
        on_demand: false,
        workloads: || meal_plan(&[20, 50, 100, 200, 500, 1_000, 2_000, 3_000, 5_000]),
        config: seeded_config,
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
    // Progressive shading, the hierarchical sketch path for 10^6+
    // candidates, with flat sketch→refine as the baseline where its sketch
    // is tractable: the unfiltered meal plan (candidates == n) and
    // lineitem's quantity budget. The flagship 10^7 rows solve out of core.
    Experiment {
        name: "shade",
        title: "progressive shading vs flat sketch→refine (meal plan, lineitem)",
        file: Some("BENCH_shade.json"),
        on_demand: false,
        workloads: || {
            // The 10^7 rows only under PB_SHADE_LARGE=1: datagen alone takes
            // a while.
            let large: &[usize] = if opted_in("PB_SHADE_LARGE") {
                &[10_000_000]
            } else {
                &[]
            };
            let shade = |name, sizes: &[usize]| {
                let s = family(name);
                Workload::registry(&s, &s.queries[0], &[sizes, large].concat())
            };
            vec![
                shade("recipes", &[20_000, 120_000, 1_000_000]),
                shade("lineitem", &[1_000_000]),
            ]
        },
        config: seeded_config,
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
            Gate::SameFingerprint,
            Gate::AtLeast {
                arm: "progressive-shading",
                floor: "greedy",
            },
        ],
    },
    // The adversarial workload gauntlet: every registry family × every
    // strategy × the family's sizes, under deterministic truncation only
    // (`gauntlet_config`), because a wall-clock budget would make the
    // identity gate unenforceable.
    Experiment {
        name: "gauntlet-smoke",
        title: "scenario × strategy at each family's smallest size",
        file: Some("target/BENCH_gauntlet_smoke.json"),
        on_demand: true,
        workloads: || gauntlet(true),
        config: gauntlet_config,
        arms: GAUNTLET_ARMS,
        gates: GAUNTLET_GATES,
    },
    Experiment {
        name: "gauntlet",
        title: "scenario × strategy × n",
        file: Some("BENCH_gauntlet.json"),
        on_demand: true,
        workloads: || gauntlet(false),
        config: gauntlet_config,
        arms: GAUNTLET_ARMS,
        gates: GAUNTLET_GATES,
    },
];

const HEADER: [&str; 12] = [
    "workload",
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
];
const WIDTHS: [usize; 12] = [28, 9, 20, 7, 11, 10, 7, 8, 7, 10, 8, 13];

/// Runs `e`: every workload × size × arm × thread budget, one [`Row`]
/// each, scored against the size's oracle and printed once the size is
/// done; then its gates and its file. Returns false when a gate failed or
/// the file could not be written.
fn run_experiment(e: &Experiment) -> bool {
    println!("## {} — {}\n", e.name.to_uppercase(), e.title);
    print_row(&HEADER);
    println!("|-{}-|", WIDTHS.map(|w| "-".repeat(w)).join("-|-"));
    let host = EngineConfig::default().num_threads;
    let workloads = (e.workloads)();
    let mut rows: Vec<Row> = Vec::new();
    for w in &workloads {
        for &n in &w.sizes {
            let start = rows.len();
            let arms = e
                .arms
                .iter()
                .filter(|a| a.max_n.is_none_or(|m| n <= m) && (!a.exact || n <= w.exact_cap));
            for arm in arms {
                let mut budgets: Vec<usize> = Vec::new();
                for t in arm.threads.iter().map(|&t| if t == 0 { host } else { t }) {
                    if !budgets.contains(&t) {
                        budgets.push(t);
                    }
                }
                for threads in budgets {
                    rows.push(measure(e, w, n, arm, threads));
                }
            }
            score(&mut rows[start..]);
            for row in &rows[start..] {
                print_row(&cells(row, identical(&rows, row)));
            }
        }
    }
    println!();
    let failures = gate_failures(e.gates, &rows);
    for failure in &failures {
        eprintln!("{} gate failed: {failure}", e.name.to_uppercase());
    }
    let written = e.file.is_none_or(|file| {
        let json: Vec<String> = rows.iter().map(|r| r.json(identical(&rows, r))).collect();
        let workloads: Vec<String> = workloads.iter().map(Workload::json).collect();
        let gates: Vec<String> = e
            .gates
            .iter()
            .map(|g| format!("{:?}", format!("{g:?}")))
            .collect();
        let header = format!(
            "\"experiment\": \"{}\",\n  \"seed\": {BENCH_SEED},\n  \"workloads\": [\n{}\n  ],\n  \
             \"gates\": [{}],",
            e.name,
            workloads.join(",\n"),
            gates.join(", ")
        );
        write_bench(file, &header, &json)
    });
    failures.is_empty() && written
}

/// Prints one fixed-width row of the experiment table.
fn print_row<S: AsRef<str>>(cells: &[S]) {
    let line: Vec<String> = cells
        .iter()
        .zip(WIDTHS)
        .map(|(c, w)| format!("{:>w$}", c.as_ref()))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// One printed table row.
fn cells(row: &Row, identical: bool) -> Vec<String> {
    let num = |v: Option<f64>, scale: f64, digits: usize| {
        v.map_or_else(|| "-".into(), |x| format!("{:.digits$}", x * scale))
    };
    let stat = |f: fn(&PackageResult) -> u64| {
        row.result
            .as_ref()
            .map_or_else(|_| "-".into(), |r| f(r).to_string())
    };
    vec![
        format!("{}/{}", row.workload.family, row.workload.query),
        row.n.to_string(),
        row.arm.into(),
        row.threads.to_string(),
        ms(row.elapsed),
        num(row.objective(), 1.0, 1),
        num(row.gap, 100.0, 2),
        if row.optimal() { "yes" } else { "no" }.into(),
        stat(|r| r.stats.nodes),
        stat(|r| r.stats.iterations),
        stat(|r| r.stats.cold_solves),
        if identical {
            "identical"
        } else {
            "DIFFERENT (!)"
        }
        .into(),
    ]
}

/// One timed solve of `w` at size `n` by `arm` on `threads` threads (the
/// relation and the engine are built outside the clock, the validity
/// oracle runs after it).
fn measure<'w>(e: &Experiment, w: &'w Workload, n: usize, arm: &Arm, threads: usize) -> Row<'w> {
    let mut config = (e.config)(arm.strategy);
    config.num_threads = threads;
    if arm.paged_from.is_some_and(|from| n >= from) {
        config.column_memory_budget = 0;
        config.pool_pages = (3 * chunk_count(n) / 16).max(2);
    }
    let engine = engine((w.build)(n, Seed(BENCH_SEED)), config);
    let before = pool_stats();
    let t0 = Instant::now();
    let result = engine.execute_paql(&w.text).map_err(|e| e.to_string());
    let elapsed = t0.elapsed();
    let after = pool_stats();
    let checked = e.gates.contains(&Gate::Valid);
    let valid = result
        .as_ref()
        .ok()
        .filter(|_| checked)
        .map(|r| interpreted_valid(&engine, &w.text, r).unwrap_or(false));
    Row {
        workload: w,
        n,
        arm: arm.label,
        threads,
        elapsed,
        result,
        valid,
        pool: PoolStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            pages_spilled: after.pages_spilled - before.pages_spilled,
        },
        oracle: None,
        gap: None,
    }
}

/// Whether every package of `r` passes the *interpreted* validity oracle
/// over a spec built apart from the engine's cache: the gate must not
/// trust the code path it is gating.
fn interpreted_valid(engine: &PackageEngine, text: &str, r: &PackageResult) -> PbResult<bool> {
    let query = paql::parse(text)?;
    let table = engine.relation(&query)?;
    let spec = PackageSpec::build(&engine.analyze(&query)?, table, &BuildCtx::default())?;
    for p in &r.packages {
        if !spec.is_valid_interpreted(p)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args)
            .map(|es| es.iter().map(|e| e.name).collect())
            .map_err(str::to_string)
    }

    #[test]
    fn unknown_arguments_are_refused_before_anything_runs() {
        assert_eq!(names(&["bnb"]), Err("bnb".into()));
        assert_eq!(names(&["shade", "sketch"]), Err("sketch".into()));
        assert_eq!(names(&["all", "portfolio"]), Err("portfolio".into()));
        assert_eq!(names(&[]), Ok(vec!["e2", "shade"]));
        assert_eq!(names(&["all"]), names(&[]));
        assert_eq!(
            names(&["gauntlet-smoke", "all"]),
            Ok(vec!["e2", "shade", "gauntlet-smoke"])
        );
        assert_eq!(names(&["shade", "shade"]), Ok(vec!["shade"]));
    }

    /// A committed bench file is worth its churn only if it gates something;
    /// one that just prints goes to stdout instead.
    #[test]
    fn every_experiment_that_writes_a_file_declares_a_gate() {
        for e in EXPERIMENTS {
            assert!(
                e.file.is_none() || !e.gates.is_empty(),
                "`{}` writes {:?} but declares no gate",
                e.name,
                e.file
            );
        }
    }
}
