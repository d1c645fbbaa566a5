//! The row model of the `harness` binary: the workloads its experiments
//! solve, the engines they solve them on, one [`Row`] per solve, the oracle
//! that scores rows, and the [`Gate`]s judged over them (README.md,
//! "Benchmarks").

use std::time::Duration;

use datagen::{Scenario, ScenarioQuery, Seed};
use minidb::{Catalog, Table};
use packagebuilder::config::{EngineConfig, Strategy};
use packagebuilder::{PackageEngine, PackageResult, PoolStats, StrategyUsed};

/// The paper's running example (Section 2): the athlete's daily meal plan.
pub const MEAL_PLAN_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    WHERE R.gluten = 'free' \
    SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
    MAXIMIZE SUM(P.protein)";

/// Default seed for all experiment workloads.
pub const BENCH_SEED: u64 = 20140901; // VLDB 2014

/// One query an experiment solves at every size: a `datagen` registry
/// family's relation, the query text, and the bars its answers are held to.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The registry family ([`Scenario::name`]).
    pub family: &'static str,
    /// The query's label ([`ScenarioQuery::label`], or the experiment's own).
    pub query: &'static str,
    /// The PaQL text.
    pub text: String,
    /// Builds the relation at a size (the family's [`Scenario::build`]).
    pub build: fn(usize, Seed) -> Table,
    /// The relation sizes it is solved at.
    pub sizes: Vec<usize>,
    /// Sizes above this skip the exact arms ([`Scenario::exact_cap`]).
    pub exact_cap: usize,
    /// The relative gap to the oracle [`Gate::MaxGap`] tolerates.
    pub max_gap: f64,
    /// Whether a package exists at every size.
    pub expect_feasible: bool,
}

impl Workload {
    /// `query` of the registry family `scenario`, at `sizes`.
    pub fn registry(scenario: &Scenario, query: &ScenarioQuery, sizes: &[usize]) -> Self {
        Workload {
            family: scenario.name,
            query: query.label,
            text: query.text.clone(),
            build: scenario.build,
            sizes: sizes.to_vec(),
            exact_cap: scenario.exact_cap,
            max_gap: query.max_gap,
            expect_feasible: query.expect_feasible,
        }
    }

    /// The workload as one entry of a `BENCH_*.json` `workloads` array.
    pub fn json(&self) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"query\": \"{}\", \"text\": {:?}, \"max_gap\": {}, \
             \"expect_feasible\": {}}}",
            self.family, self.query, self.text, self.max_gap, self.expect_feasible
        )
    }
}

/// The engine configuration of a plain experiment: the strategy and the
/// bench seed, everything else at its default.
pub fn seeded_config(strategy: Strategy) -> EngineConfig {
    EngineConfig::with_strategy(strategy).with_seed(BENCH_SEED)
}

/// The gauntlet's engine configuration: a pinned portfolio worker set and
/// **deterministic truncation only** — node and move caps, never wall-clock
/// budgets — so a truncated solve is still a pure function of its inputs
/// and the cross-thread identity gate stays meaningful even where the full
/// solve would be intractable.
pub fn gauntlet_config(strategy: Strategy) -> EngineConfig {
    // `with_num_threads(1)` pins the portfolio worker set to the sequential
    // default; the runner's later assignment of `num_threads` then varies
    // only the execution fan-out, never the raced strategy mix.
    let mut config = seeded_config(strategy).with_num_threads(1);
    config.max_enumeration_nodes = 200_000;
    // One restart and a short move budget: the standalone local-search row
    // is informational (never gated), and a move's neighbourhood scan costs
    // O(package members × candidates) — the high-cardinality `bulk` family
    // (1 000-member packages) turns a generous move budget into minutes per
    // solve without changing any verdict.
    config.max_local_moves = 150;
    config.local_restarts = 1;
    config
}

/// An engine over `table` alone.
pub fn engine(table: Table, config: EngineConfig) -> PackageEngine {
    let mut catalog = Catalog::new();
    catalog.register(table);
    PackageEngine::with_config(catalog, config)
}

/// Formats a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or 0
/// where the proc interface is unavailable. Monotone over the process
/// lifetime — record it at the end of an experiment to bound that
/// experiment's memory footprint from above.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    kb.and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse().ok())
        .map_or(0, |kb: u64| kb * 1024)
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

/// Buffer-pool counters as one JSON object.
fn pool_json(pool: &PoolStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"pages_spilled\": {}}}",
        pool.hits, pool.misses, pool.evictions, pool.pages_spilled
    )
}

/// The fields every `BENCH_*.json` records besides its rows: where and when
/// the numbers were taken (host cores, the commit the tree was built from —
/// `-dirty` when it carries uncommitted changes — and the UTC date), the
/// process's peak RSS, and the cumulative buffer-pool counters of the
/// out-of-core column store (all zero for a run whose views stayed
/// resident). Rendered as top-level JSON members, ready to splice between
/// the experiment's own members and `"rows"`.
pub fn resource_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    format!(
        "  \"host\": {{\"cores\": {cores}, \"commit\": \"{}\", \"date\": \"{}\"}},\n  \
         \"peak_rss_bytes\": {},\n  \"pool\": {},",
        command_line("git", &["describe", "--always", "--dirty"]),
        command_line("date", &["-u", "+%Y-%m-%d"]),
        peak_rss_bytes(),
        pool_json(&packagebuilder::pool_stats())
    )
}

/// One measured solve: a workload at one size, solved by one arm on one
/// thread budget.
#[derive(Debug, Clone)]
pub struct Row<'w> {
    /// What was solved.
    pub workload: &'w Workload,
    /// Relation size.
    pub n: usize,
    /// The arm that ran (a strategy label such as `sketch-refine`).
    pub arm: &'static str,
    /// Engine thread budget.
    pub threads: usize,
    /// Wall-clock of the query.
    pub elapsed: Duration,
    /// What the engine returned, or its error.
    pub result: Result<PackageResult, String>,
    /// Whether every returned package passes the interpreted validity
    /// oracle; `None` where the experiment does not gate validity.
    pub valid: Option<bool>,
    /// Buffer-pool activity during the solve.
    pub pool: PoolStats,
    /// The proven optimum at this size, else the best known ([`score`]).
    pub oracle: Option<f64>,
    /// `(oracle − objective) / |oracle|`, floored at 0 ([`score`]).
    pub gap: Option<f64>,
}

impl Row<'_> {
    /// The best package's objective.
    pub fn objective(&self) -> Option<f64> {
        self.result.as_ref().ok()?.best_objective()
    }

    /// Whether the engine proved its answer optimal.
    pub fn optimal(&self) -> bool {
        self.result.as_ref().is_ok_and(|r| r.optimal)
    }

    /// Whether the engine answered with no package.
    fn empty(&self) -> bool {
        self.result.as_ref().is_ok_and(|r| r.is_empty())
    }

    /// The first row of `rows` that solved this row's workload at its size
    /// with `arm`.
    fn first<'r, 'w>(&self, rows: &'r [Row<'w>], arm: &str) -> Option<&'r Row<'w>> {
        rows.iter()
            .find(|r| std::ptr::eq(r.workload, self.workload) && (r.n, r.arm) == (self.n, arm))
    }

    /// The row as one line of a `BENCH_*.json` `rows` array — the one row
    /// shape every experiment writes.
    pub fn json(&self, identical: bool) -> String {
        let num = |v: Option<f64>, digits: usize| {
            v.map_or_else(|| "null".into(), |x| format!("{x:.digits$}"))
        };
        let stats = self.result.as_ref().ok().map(|r| &r.stats);
        let (nodes, iterations, cold_solves) =
            stats.map_or((0, 0, 0), |s| (s.nodes, s.iterations, s.cold_solves));
        let route = stats.map_or_else(|| "null".into(), |s| format!("\"{}\"", s.strategy));
        format!(
            "    {{\"scenario\": \"{}\", \"query\": \"{}\", \"n\": {}, \"strategy\": \"{}\", \
             \"threads\": {}, \"ms\": {}, \"route\": {route}, \"objective\": {}, \"oracle\": {}, \
             \"gap\": {}, \"optimal\": {}, \"valid\": {}, \"nodes\": {nodes}, \
             \"iterations\": {iterations}, \"cold_solves\": {cold_solves}, \
             \"identical\": {identical}, \"pool\": {}, \"error\": {}}}",
            self.workload.family,
            self.workload.query,
            self.n,
            self.arm,
            self.threads,
            ms(self.elapsed),
            num(self.objective(), 3),
            num(self.oracle, 3),
            num(self.gap, 6),
            self.optimal(),
            self.valid.map_or_else(|| "null".into(), |v| v.to_string()),
            pool_json(&self.pool),
            self.result
                .as_ref()
                .err()
                .map_or_else(|| "null".into(), |e| format!("{e:?}")),
        )
    }
}

/// Fills [`Row::oracle`] and [`Row::gap`] over the rows of one workload at
/// one size. The oracle is the best objective a row proved optimal, else
/// the best any row found (every harness query maximizes).
pub fn score(group: &mut [Row]) {
    let best = |proven: bool| {
        let rows = group.iter().filter(|r| !proven || r.optimal());
        rows.filter_map(Row::objective).max_by(f64::total_cmp)
    };
    let oracle = best(true).or_else(|| best(false));
    for row in group {
        row.oracle = oracle;
        row.gap = oracle
            .zip(row.objective())
            .map(|(o, v)| ((o - v) / o.abs().max(1e-9)).max(0.0));
    }
}

/// A check over an experiment's rows whose failure makes the harness exit
/// nonzero. An engine error fails every experiment, gated or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Every returned package passes the interpreted validity oracle (an AST
    /// evaluator sharing no code with the columnar path the solvers use).
    Valid,
    /// A workload registered infeasible comes back empty from every arm.
    EmptyWhenInfeasible,
    /// Every arm returns the same fingerprint ([`identical`]) at every
    /// thread count it ran.
    SameFingerprint,
    /// The arm's objective is at least the `floor` arm's on the same
    /// workload and size (every harness query maximizes). A floor without a
    /// package passes.
    AtLeast {
        /// The gated arm.
        arm: &'static str,
        /// The arm it must match or beat.
        floor: &'static str,
    },
    /// The arms stay within the workload's `max_gap` of the oracle on every
    /// workload registered feasible.
    MaxGap(&'static [&'static str]),
    /// The arms return a package on every workload registered feasible.
    NonEmptyWhenFeasible(&'static [&'static str]),
}

impl Gate {
    /// Why `row` fails this gate, if it does.
    fn judge(self, row: &Row, rows: &[Row]) -> Option<String> {
        let w = row.workload;
        let gated = |arms: &[&str]| w.expect_feasible && arms.contains(&row.arm);
        match self {
            Gate::Valid if row.valid == Some(false) => Some("INVALID package returned".into()),
            Gate::EmptyWhenInfeasible
                if !w.expect_feasible && row.result.is_ok() && !row.empty() =>
            {
                Some("returned a package on a query registered infeasible".into())
            }
            Gate::SameFingerprint if !identical(rows, row) => Some("fingerprint differs".into()),
            Gate::AtLeast { arm, floor } if row.arm == arm => {
                let f = row.first(rows, floor).and_then(Row::objective)?;
                (!row.objective().is_some_and(|v| v + 1e-9 >= f)).then(|| format!("below {floor}"))
            }
            Gate::MaxGap(arms) if gated(arms) => {
                let g = row.gap.filter(|&g| g > w.max_gap + 1e-12)?;
                Some(format!(
                    "gap {:.3}% exceeds the family max {:.3}%",
                    g * 100.0,
                    w.max_gap * 100.0
                ))
            }
            Gate::NonEmptyWhenFeasible(arms) if gated(arms) && row.empty() => {
                Some("no package on a feasible query".into())
            }
            _ => None,
        }
    }
}

/// Whether `row` repeats the first row of its workload, size and arm: the
/// same packages, objective bits, optimality flag and node/iteration/cold-LP
/// counters, or the same error. A raced result's counters are whichever
/// worker the clock let finish, so they are blinded, as the determinism
/// suites' `race_blind` does.
pub fn identical(rows: &[Row], row: &Row) -> bool {
    let fingerprint = |r: &PackageResult| {
        let bits: Vec<_> = r.objectives.iter().map(|o| o.map(f64::to_bits)).collect();
        let s = &r.stats;
        let counters = if s.strategy == StrategyUsed::Portfolio {
            [0; 3]
        } else {
            [s.nodes, s.iterations, s.cold_solves]
        };
        (bits, r.optimal, counters)
    };
    row.first(rows, row.arm)
        .is_none_or(|f| match (&f.result, &row.result) {
            (Ok(a), Ok(b)) => a.packages == b.packages && fingerprint(a) == fingerprint(b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        })
}

/// The failures of `gates` over `rows`, one message each, after one per
/// engine error; empty when all hold.
pub fn gate_failures(gates: &[Gate], rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let (w, n, arm, threads) = (row.workload, row.n, row.arm, row.threads);
        let at = format!("{}/{} n={n} {arm} at {threads} threads", w.family, w.query);
        if let Err(e) = &row.result {
            failures.push(format!("{at}: engine error: {e}"));
        }
        for why in gates.iter().filter_map(|g| g.judge(row, rows)) {
            failures.push(format!("{at}: {why}"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use packagebuilder::{EvalStats, Package};

    #[test]
    fn engines_run_the_meal_plan_query() {
        let table = datagen::recipes(120, Seed(BENCH_SEED));
        let r = engine(table, seeded_config(Strategy::Auto)).execute_paql(MEAL_PLAN_QUERY);
        assert!(!r.unwrap().is_empty());
    }

    #[test]
    fn ms_formats_three_decimals() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.000");
    }

    fn workload(expect_feasible: bool) -> Workload {
        Workload {
            family: "f",
            query: "q",
            text: String::new(),
            build: datagen::recipes,
            sizes: vec![10],
            exact_cap: usize::MAX,
            max_gap: 0.1,
            expect_feasible,
        }
    }

    fn row<'w>(w: &'w Workload, arm: &'static str, threads: usize, o: Option<f64>) -> Row<'w> {
        let mut stats = EvalStats::empty(StrategyUsed::Ilp);
        stats.nodes = 3;
        let pairs = o.map(|o| (Package::from_ids([minidb::TupleId(0)]), Some(o)));
        let result = PackageResult::from_pairs(pairs.into_iter().collect(), false, stats);
        Row {
            workload: w,
            n: 10,
            arm,
            threads,
            elapsed: Duration::from_millis(1),
            result: Ok(result),
            valid: None,
            pool: PoolStats::default(),
            oracle: None,
            gap: None,
        }
    }

    /// `r` after `edit`.
    fn with<'w>(mut r: Row<'w>, edit: impl FnOnce(&mut Row<'w>)) -> Row<'w> {
        edit(&mut r);
        r
    }

    /// `r` with its result's route and node / cold-LP counters set.
    fn counters(r: Row<'_>, route: StrategyUsed, nodes: u64, cold: u64) -> Row<'_> {
        with(r, |r| {
            let s = &mut r.result.as_mut().unwrap().stats;
            (s.strategy, s.nodes, s.cold_solves) = (route, nodes, cold);
        })
    }

    #[test]
    fn gates_judge_hand_made_rows() {
        use StrategyUsed::{Ilp, Portfolio};
        let (feasible, infeasible) = (workload(true), workload(false));
        let (w, x) = (&feasible, &infeasible);
        let shade = |threads, objective| row(w, "shade", threads, objective);
        let auto = |w, objective| row(w, "auto", 1, objective);
        let proven = |objective| {
            with(row(w, "ilp", 1, Some(objective)), |r| {
                r.result.as_mut().unwrap().optimal = true;
            })
        };
        let valid = |ok| with(row(w, "ilp", 1, Some(1.0)), |r| r.valid = Some(ok));
        let error = with(row(w, "ilp", 2, None), |r| r.result = Err("boom".into()));
        let floor = [Gate::AtLeast {
            arm: "shade",
            floor: "greedy",
        }];
        let fp = [Gate::SameFingerprint];
        let (gap, non_empty) = (
            [Gate::MaxGap(&["auto"])],
            [Gate::NonEmptyWhenFeasible(&["auto"])],
        );
        let honest = [Gate::EmptyWhenInfeasible];
        // (what the rows show, the gates, the rows, how many must fail)
        #[rustfmt::skip]
        let cases: Vec<(&str, &[Gate], Vec<Row>, usize)> = vec![
            ("same fingerprint", &fp, vec![shade(1, Some(6.0)), shade(2, Some(6.0))], 0),
            ("answer drift", &fp, vec![shade(1, Some(6.0)), shade(2, Some(5.0))], 1),
            ("node drift", &fp, vec![shade(1, Some(6.0)), counters(shade(2, Some(6.0)), Ilp, 4, 0)], 1),
            ("cold-LP drift", &fp, vec![shade(1, Some(6.0)), counters(shade(2, Some(6.0)), Ilp, 3, 1)], 1),
            ("raced counters are blinded", &fp, vec![
                counters(auto(w, Some(6.0)), Portfolio, 3, 0),
                counters(with(auto(w, Some(6.0)), |r| r.threads = 2), Portfolio, 9, 2),
            ], 0),
            ("above the floor", &floor, vec![row(w, "greedy", 1, Some(5.0)), shade(1, Some(6.0))], 0),
            ("below or empty over the floor", &floor, vec![
                row(w, "greedy", 1, Some(5.0)), shade(1, Some(4.0)), shade(2, None),
            ], 2),
            ("a floor without a package", &floor, vec![row(w, "greedy", 1, None), shade(1, None)], 0),
            ("no floor row", &floor, vec![shade(1, Some(1.0))], 0),
            ("an invalid package", &[Gate::Valid], vec![valid(false)], 1),
            ("valid or unchecked", &[Gate::Valid], vec![valid(true), row(w, "ilp", 2, None)], 0),
            ("a package on an infeasible query", &honest, vec![row(x, "greedy", 1, Some(1.0))], 1),
            ("honest", &honest, vec![row(x, "greedy", 1, None), row(w, "greedy", 1, Some(1.0))], 0),
            ("within max_gap", &gap, vec![proven(10.0), auto(w, Some(9.5))], 0),
            ("past max_gap of the optimum", &gap, vec![proven(10.0), auto(w, Some(8.0))], 1),
            ("past max_gap of the best known", &gap, vec![row(w, "greedy", 1, Some(4.0)), auto(w, Some(2.0))], 1),
            ("ungated or infeasible", &gap, vec![proven(10.0), row(w, "greedy", 1, Some(1.0)), auto(x, Some(1.0))], 0),
            ("gated and empty", &non_empty, vec![auto(w, None)], 1),
            ("ungated or infeasible", &non_empty, vec![row(w, "greedy", 1, None), auto(x, None)], 0),
            ("an engine error", &[], vec![row(w, "ilp", 1, None), error], 1),
        ];
        for (what, gates, mut rows, failing) in cases {
            score(&mut rows);
            let failures = gate_failures(gates, &rows);
            assert_eq!(failures.len(), failing, "{what}: {failures:?}");
        }

        // The oracle is the proven optimum, else the best known; a gap is
        // floored at 0; failures name the row.
        let mut rows = [
            proven(10.0),
            auto(w, Some(9.5)),
            row(w, "greedy", 1, Some(11.0)),
        ];
        score(&mut rows);
        let scored: Vec<_> = rows.iter().map(|r| (r.oracle, r.gap)).collect();
        assert_eq!(
            scored[1..],
            [(Some(10.0), Some(0.05)), (Some(10.0), Some(0.0))]
        );
        let mut rows = [row(w, "greedy", 1, Some(4.0)), auto(w, Some(2.0))];
        score(&mut rows);
        assert_eq!((rows[1].oracle, rows[1].gap), (Some(4.0), Some(0.5)));
        assert_eq!(
            gate_failures(&gap, &rows),
            ["f/q n=10 auto at 1 threads: gap 50.000% exceeds the family max 10.000%"]
        );
    }
}
