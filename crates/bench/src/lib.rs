//! Shared workload definitions for the `harness` binary: every experiment it
//! runs (README.md, "Benchmarks") builds its inputs through this crate.

use datagen::{recipes, Seed};
use minidb::{Catalog, Table};
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::{PackageEngine, PackageResult, PbResult};

/// The paper's running example (Section 2): the athlete's daily meal plan.
pub const MEAL_PLAN_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    WHERE R.gluten = 'free' \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// A meal-plan variant without the gluten filter, used where the experiments
/// need the candidate count to equal the relation size exactly.
pub const MEAL_PLAN_QUERY_NO_FILTER: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// Default seed for all experiment workloads.
pub const BENCH_SEED: u64 = 20140901; // VLDB 2014

/// Builds an engine over a recipes table of `n` rows.
pub fn recipe_engine(n: usize, strategy: Strategy) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(recipes(n, Seed(BENCH_SEED)));
    PackageEngine::with_config(
        catalog,
        EngineConfig::with_strategy(strategy).with_seed(BENCH_SEED),
    )
}

/// Builds just the recipes table of `n` rows (for spec-level experiments).
pub fn recipe_table(n: usize) -> Table {
    recipes(n, Seed(BENCH_SEED))
}

/// Engine configuration for one gauntlet cell: fixed seed, a pinned
/// portfolio worker set, and **deterministic truncation only** — node and
/// move caps, never wall-clock budgets — so a truncated cell is still a
/// pure function of its inputs and the cross-thread identity gate stays
/// meaningful even where the full solve would be intractable.
pub fn gauntlet_config(strategy: Strategy, threads: usize) -> EngineConfig {
    // `with_num_threads(1)` first pins the portfolio worker set to the
    // sequential default; assigning `num_threads` afterwards then varies
    // only the execution fan-out, never the raced strategy mix.
    let mut config = EngineConfig::with_strategy(strategy)
        .with_seed(BENCH_SEED)
        .with_num_threads(1);
    config.num_threads = threads;
    config.max_enumeration_nodes = 200_000;
    // One restart and a short move budget: the standalone local-search cell
    // is informational (never gated), and a move's neighbourhood scan costs
    // O(package members × candidates) — the high-cardinality `bulk` family
    // (1 000-member packages) turns a generous move budget into minutes per
    // cell without changing any verdict.
    config.max_local_moves = 150;
    config.local_restarts = 1;
    config
}

/// Builds a gauntlet engine over an already-built scenario table.
pub fn gauntlet_engine(table: Table, strategy: Strategy, threads: usize) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(catalog, gauntlet_config(strategy, threads))
}

/// Runs a query on an engine and panics with context on error — benches want
/// loud failures, not silently skipped measurements.
pub fn run(engine: &PackageEngine, query: &str) -> PackageResult {
    match engine.execute_paql(query) {
        Ok(r) => r,
        Err(e) => panic!("benchmark query failed: {e}\nquery: {query}"),
    }
}

/// Runs a query, returning the error instead of panicking (used by harness
/// rows that probe intractable configurations).
pub fn try_run(engine: &PackageEngine, query: &str) -> PbResult<PackageResult> {
    engine.execute_paql(query)
}

/// Formats a duration in milliseconds with three decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or 0
/// where the proc interface is unavailable. Monotone over the process
/// lifetime — record it at the end of an experiment to bound that
/// experiment's memory footprint from above.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// First line of `program args…`'s standard output, or `"unknown"` when it
/// cannot be run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The fields every `BENCH_*.json` records besides its rows: where and when
/// the numbers were taken (host cores, the commit the tree was built from —
/// `-dirty` when it carries uncommitted changes — and the UTC date), the
/// process's peak RSS, and the cumulative buffer-pool counters of the
/// out-of-core column store (all zero for a run whose views stayed
/// resident). Rendered as top-level JSON members, ready to splice between
/// `"query"` and `"rows"`.
pub fn resource_json() -> String {
    let pool = packagebuilder::pool_stats();
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    format!(
        "  \"host\": {{\"cores\": {cores}, \"commit\": \"{}\", \"date\": \"{}\"}},\n  \
         \"peak_rss_bytes\": {},\n  \"pool\": {{\"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"pages_spilled\": {}}},",
        command_line("git", &["describe", "--always", "--dirty"]),
        command_line("date", &["-u", "+%Y-%m-%d"]),
        peak_rss_bytes(),
        pool.hits,
        pool.misses,
        pool.evictions,
        pool.pages_spilled
    )
}

/// One measured run of a scaling experiment: an arm's label, the size and
/// thread count it ran at, its wall-clock, and the engine's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Relation size.
    pub n: usize,
    /// The arm that ran (a strategy label such as `race-trio`).
    pub arm: &'static str,
    /// Engine thread budget.
    pub threads: usize,
    /// Wall-clock of the query, milliseconds.
    pub ms: f64,
    /// What the engine returned.
    pub result: PackageResult,
}

impl Row {
    /// The row as one line of a `BENCH_*.json` `rows` array — the one row
    /// shape every table experiment writes.
    pub fn json(&self, identical: bool) -> String {
        let r = &self.result;
        format!(
            "    {{\"n\": {}, \"strategy\": \"{}\", \"threads\": {}, \"ms\": {:.3}, \
             \"objective\": {}, \"optimal\": {}, \"nodes\": {}, \"iterations\": {}, \
             \"cold_solves\": {}, \"identical\": {identical}}}",
            self.n,
            self.arm,
            self.threads,
            self.ms,
            r.best_objective()
                .map_or_else(|| "null".into(), |o| format!("{o:.3}")),
            r.optimal,
            r.stats.nodes,
            r.stats.iterations,
            r.stats.cold_solves,
        )
    }
}

/// A check over an experiment's rows whose failure makes the harness exit
/// nonzero.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// The arm returns the same packages, objective bits, optimality flag
    /// and node/iteration/cold-LP counters at every thread count.
    SameFingerprint(&'static str),
    /// The arm's objective is at least the `floor` arm's at the same size
    /// (every harness query maximizes). A floor without a package passes.
    AtLeast {
        /// The gated arm.
        arm: &'static str,
        /// The arm it must match or beat.
        floor: &'static str,
    },
}

/// Whether `row` repeats the first row of its size and arm bit for bit.
pub fn identical(rows: &[Row], row: &Row) -> bool {
    let fingerprint = |r: &PackageResult| {
        let bits: Vec<_> = r.objectives.iter().map(|o| o.map(f64::to_bits)).collect();
        let s = &r.stats;
        (bits, r.optimal, s.nodes, s.iterations, s.cold_solves)
    };
    let first = rows.iter().find(|r| (r.n, r.arm) == (row.n, row.arm));
    first.is_none_or(|f| {
        f.result.packages == row.result.packages
            && fingerprint(&f.result) == fingerprint(&row.result)
    })
}

/// The failed `gates` over `rows`, one message each; empty when all hold.
pub fn gate_failures(gates: &[Gate], rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for gate in gates {
        for row in rows {
            let (n, threads) = (row.n, row.threads);
            match *gate {
                Gate::SameFingerprint(arm) if row.arm == arm && !identical(rows, row) => failures
                    .push(format!(
                        "{arm} at n={n}, {threads} threads: fingerprint differs"
                    )),
                Gate::AtLeast { arm, floor } if row.arm == arm => {
                    let floor_row = rows.iter().find(|r| (r.n, r.arm) == (n, floor));
                    let Some(f) = floor_row.and_then(|r| r.result.best_objective()) else {
                        continue;
                    };
                    if !row.result.best_objective().is_some_and(|v| v + 1e-9 >= f) {
                        failures.push(format!("{arm} at n={n}, {threads} threads: below {floor}"));
                    }
                }
                _ => {}
            }
        }
    }
    failures
}

/// Prints a fixed-width table row for the harness output.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Prints a table header and separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_run_the_meal_plan_query() {
        let engine = recipe_engine(120, Strategy::Auto);
        let r = run(&engine, MEAL_PLAN_QUERY);
        assert!(!r.is_empty());
    }

    #[test]
    fn ms_formats_three_decimals() {
        assert_eq!(ms(std::time::Duration::from_millis(1500)), "1500.000");
    }

    #[test]
    fn gates_judge_hand_made_rows() {
        use packagebuilder::{EvalStats, Package, StrategyUsed};
        let row = |arm, threads, objective: Option<f64>, nodes| {
            let mut stats = EvalStats::empty(StrategyUsed::Ilp);
            stats.nodes = nodes;
            let pairs = objective.map(|o| (Package::from_ids([minidb::TupleId(0)]), Some(o)));
            let result = PackageResult::from_pairs(pairs.into_iter().collect(), false, stats);
            Row {
                n: 10,
                arm,
                threads,
                ms: 1.0,
                result,
            }
        };
        let gates = [
            Gate::SameFingerprint("shade"),
            Gate::AtLeast {
                arm: "shade",
                floor: "greedy",
            },
        ];
        let floor = row("greedy", 1, Some(5.0), 0);
        let good = vec![
            floor.clone(),
            row("shade", 1, Some(6.0), 3),
            row("shade", 2, Some(6.0), 3),
        ];
        assert!(gate_failures(&gates, &good).is_empty());
        assert!(good.iter().all(|r| identical(&good, r)));

        // A counter that moves with the thread count is a fingerprint mismatch.
        let drift = vec![
            floor.clone(),
            row("shade", 1, Some(6.0), 3),
            row("shade", 2, Some(6.0), 4),
        ];
        assert_eq!(gate_failures(&gates, &drift).len(), 1);
        assert!(!identical(&drift, &drift[2]));

        // Below the floor, or no package over a floor that has one, fails.
        let low = vec![
            floor.clone(),
            row("shade", 1, Some(4.0), 3),
            row("shade", 2, None, 3),
        ];
        assert_eq!(gate_failures(&gates[1..], &low).len(), 2);

        // A floor without a package, or without a row at all, passes.
        let no_floor = vec![row("greedy", 1, None, 0), row("shade", 1, Some(1.0), 3)];
        assert!(gate_failures(&gates, &no_floor).is_empty());
        assert!(gate_failures(&gates, &no_floor[1..]).is_empty());
    }
}
