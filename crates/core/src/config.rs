//! Engine configuration.

use std::fmt;
use std::time::Duration;

use lp_solver::SolverConfig;

use crate::column_store::{
    ColumnPolicy, DEFAULT_COLUMN_MEMORY_BUDGET, DEFAULT_POOL_PAGES, MIN_POOL_PAGES,
};
use crate::ilp::NonLinearReason;

/// Which evaluation strategy to use for a package query.
///
/// The paper's engine "heuristically combines all of them to efficiently
/// derive packages" (Section 5); [`Strategy::Auto`] implements that policy,
/// while the explicit variants exist for experiments and for the ablation
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Let the engine pick: [`auto_route`] holds the policy.
    Auto,
    /// Translate to an integer linear program and call the solver.
    Ilp,
    /// Enumerate candidate packages with cardinality and partial-sum pruning.
    PrunedEnumeration,
    /// Enumerate all candidate packages without pruning (baseline).
    Exhaustive,
    /// Greedy construction plus k-tuple-replacement local search.
    LocalSearch,
    /// Pure greedy construction with a feasibility-repair pass (cheapest,
    /// anytime baseline; never picked by `Auto`).
    Greedy,
    /// Race several solvers over one candidate view under one shared
    /// [`crate::budget::Budget`] ([`crate::portfolio::PortfolioSolver`]); the
    /// workers come from [`EngineConfig::portfolio_workers`].
    Portfolio,
    /// Partition → sketch → refine over a flat partitioning
    /// ([`crate::sketch_refine::SketchRefineSolver`]): near-optimal at a
    /// fraction of the monolithic ILP's latency.
    SketchRefine,
    /// The same pipeline over a partition *tree*, after Progressive Shading
    /// (Mai et al. 2023; [`crate::shading::ProgressiveShadingSolver`]): every
    /// ILP stays small regardless of the candidate count, so this is the
    /// 10^6–10^8-candidate route.
    ProgressiveShading,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::Auto => "auto",
            Strategy::Ilp => "ilp",
            Strategy::PrunedEnumeration => "pruned-enumeration",
            Strategy::Exhaustive => "exhaustive",
            Strategy::LocalSearch => "local-search",
            Strategy::Greedy => "greedy",
            Strategy::Portfolio => "portfolio",
            Strategy::SketchRefine => "sketch-refine",
            Strategy::ProgressiveShading => "progressive-shading",
        })
    }
}

/// Candidate-set size at or below which `Auto` prefers pruned enumeration
/// over the solver (enumeration is exact and has no solver overhead for tiny
/// inputs).
pub const ENUMERATION_THRESHOLD: usize = 22;

/// Candidate-set size at or above which `Auto` races single-package queries
/// the ILP cannot take instead of handing them to local search.
pub const PORTFOLIO_THRESHOLD: usize = 256;

/// Candidate-set size at or above which `Auto` stops trusting the monolithic
/// ILP's latency for linearizable single-package queries ([`Rule::Race`]).
/// No single size threshold separates cheap ILPs from expensive ones — exact
/// cost tracks *branching hardness*, not candidate count (a 10^5-row
/// shipment query can prove optimality in milliseconds while a 2 000-row
/// correlated-knapsack portfolio takes seconds) — so above this size `Auto`
/// hedges with the race rather than guessing.
pub const SKETCH_THRESHOLD: usize = 4096;

/// Candidate-set size at or above which `Auto` (and a race's sketch worker,
/// [`Route::workers`]) routes linearizable single-package queries to
/// [`Strategy::ProgressiveShading`] instead of the flat sketch→refine race.
/// Below it the flat path's single sketch ILP is still small enough to win
/// outright; above it that sketch — one integer variable per partition,
/// ~`n / SKETCH_PARTITION_SIZE` of them (~8 000 here) — becomes the dominant
/// cost and the hierarchical descent takes over.
pub const SHADE_THRESHOLD: usize = 500_000;

/// Branch-and-bound node cap for the exact worker of a race `Auto` chose
/// ([`Route::node_cap`]). A branching-hostile instance truncates to its best
/// incumbent after this many nodes (deterministically: the cap is a pure
/// function of the search tree) instead of holding the race open, and the
/// race returns the best result across all workers. Easy instances still
/// prove optimality under the cap and cancel the race early.
pub const AUTO_EXACT_NODE_CAP: usize = 20_000;

/// Maximum partition size for [`Strategy::SketchRefine`]: the most columns
/// one drawn partition adds to the refine ILP, and (inversely) the size of
/// the sketch ILP — median halving yields partitions holding between half this
/// bound and the bound itself, i.e. roughly `n / size` to `2n / size`
/// representatives.
pub const SKETCH_PARTITION_SIZE: usize = 64;

/// Maximum children per [`crate::partition::PartitionTree`] node (and
/// maximum node count of the coarsest layer): bounds every intermediate
/// sketch ILP progressive shading solves during its descent.
pub const SHADE_FANOUT: usize = 64;

/// Leaf partition size for [`Strategy::ProgressiveShading`] — the same bound
/// [`SKETCH_PARTITION_SIZE`] puts on the flat path's leaves.
/// Equal to it so the two solvers share leaf partitionings through the view
/// cache.
pub const SHADE_LEAF_SIZE: usize = SKETCH_PARTITION_SIZE;

/// Which rule of [`auto_route`] picked a [`Route`]'s strategy: `Auto` takes
/// the first that fires, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The caller named the strategy; `Auto` was not asked.
    Forced,
    /// At most [`ENUMERATION_THRESHOLD`] candidates: pruned enumeration.
    Tiny,
    /// More than one package: the ILP, or local search when the query does
    /// not linearize, at every size (a race returns one package).
    TopK,
    /// Linearizable, from [`SHADE_THRESHOLD`]: progressive shading.
    Shade,
    /// Linearizable, from [`SKETCH_THRESHOLD`]: a node-capped race.
    Race,
    /// Linearizable, below [`SKETCH_THRESHOLD`]: the ILP.
    Exact,
    /// Not linearizable, from [`PORTFOLIO_THRESHOLD`]: the same capped race.
    NonLinearRace,
    /// Not linearizable, below [`PORTFOLIO_THRESHOLD`]: local search.
    NonLinear,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cmp, name, value) = match self {
            Rule::Forced => return f.write_str("forced by the caller"),
            Rule::TopK => return f.write_str("Auto: more than one package"),
            Rule::Tiny => ("≤", "ENUMERATION", ENUMERATION_THRESHOLD),
            Rule::Shade => ("≥", "SHADE", SHADE_THRESHOLD),
            Rule::Race => ("≥", "SKETCH", SKETCH_THRESHOLD),
            Rule::Exact => ("<", "SKETCH", SKETCH_THRESHOLD),
            Rule::NonLinearRace => ("≥", "PORTFOLIO", PORTFOLIO_THRESHOLD),
            Rule::NonLinear => ("<", "PORTFOLIO", PORTFOLIO_THRESHOLD),
        };
        write!(f, "Auto: candidates {cmp} {name}_THRESHOLD ({value})")
    }
}

/// The planner's decision for one query: the strategy, the rule that picked
/// it and what the rule saw, and a race's node cap and workers. Built by
/// [`auto_route`], carried by [`crate::engine::QueryPlan`], printed by its
/// `Display` (the REPL's `EXPLAIN`).
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The strategy the plan runs; never `Auto`.
    pub strategy: Strategy,
    /// The rule that picked it.
    pub rule: Rule,
    /// Candidates after the base predicate.
    pub candidates: usize,
    /// Why the ILP cannot take the query; `None` when it can, or when forced.
    pub obstacle: Option<NonLinearReason>,
    /// Packages asked for.
    pub packages: usize,
    /// [`AUTO_EXACT_NODE_CAP`] on a race `Auto` chose, else `None`: a
    /// forced strategy keeps [`EngineConfig::solver`]'s own limits.
    pub node_cap: Option<usize>,
    /// A race's workers, empty for every other strategy: the configured set,
    /// with [`Strategy::SketchRefine`] upgraded to
    /// [`Strategy::ProgressiveShading`] from [`SHADE_THRESHOLD`] candidates,
    /// where the flat sketch ILP is the bottleneck the descent removes.
    pub workers: Vec<Strategy>,
}

/// The planner, a pure function: routes the `requested` strategy, as asked
/// or by the first [`Rule`] that fires for `Auto`, given the candidates, what
/// keeps the ILP from the query (`None`: it linearizes), the packages asked
/// for and the configured race `workers`.
pub fn auto_route(
    requested: Strategy,
    candidates: usize,
    obstacle: Option<NonLinearReason>,
    packages: usize,
    workers: &[Strategy],
) -> Route {
    use Strategy::*;
    let linear = obstacle.is_none();
    let (strategy, rule) = match requested {
        Auto if candidates <= ENUMERATION_THRESHOLD => (PrunedEnumeration, Rule::Tiny),
        Auto if packages > 1 => (if linear { Ilp } else { LocalSearch }, Rule::TopK),
        Auto if linear && candidates >= SHADE_THRESHOLD => (ProgressiveShading, Rule::Shade),
        Auto if linear && candidates >= SKETCH_THRESHOLD => (Portfolio, Rule::Race),
        Auto if linear => (Ilp, Rule::Exact),
        Auto if candidates >= PORTFOLIO_THRESHOLD => (Portfolio, Rule::NonLinearRace),
        Auto => (LocalSearch, Rule::NonLinear),
        forced => (forced, Rule::Forced),
    };
    let race = strategy == Portfolio;
    // Only a race keeps (and allocates) its workers.
    let workers = workers.iter().filter(|_| race).map(|&w| match w {
        SketchRefine if candidates >= SHADE_THRESHOLD => ProgressiveShading,
        w => w,
    });
    Route {
        strategy,
        rule,
        candidates,
        obstacle,
        packages,
        node_cap: (race && rule != Rule::Forced).then_some(AUTO_EXACT_NODE_CAP),
        workers: workers.collect(),
    }
}

/// Tunable engine parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Strategy selection.
    pub strategy: Strategy,
    /// How many packages to return (best first). Values above 1 use no-good
    /// cuts (ILP, binary multiplicities), top-k tracking (enumeration) or
    /// restarts (local search).
    pub num_packages: usize,
    /// Solver limits for the ILP strategy.
    pub solver: SolverConfig,
    /// Maximum number of search nodes the enumeration strategies may expand.
    pub max_enumeration_nodes: u64,
    /// Local search: maximum number of moves per restart.
    pub max_local_moves: usize,
    /// Local search: number of random restarts.
    pub local_restarts: usize,
    /// Seed for the randomized components (starting packages, restarts).
    pub seed: u64,
    /// Overall wall-clock budget for one query evaluation (None = unlimited).
    /// Armed into a [`crate::budget::Budget`] per plan run; every solver
    /// honours it cooperatively and returns its best-so-far result with
    /// `optimal: false` on expiry.
    pub time_budget: Option<Duration>,
    /// Which solvers [`Strategy::Portfolio`] races. Workers that cannot
    /// evaluate the query (e.g. the ILP on a non-linear formula) drop out of
    /// the race without failing it. `Auto` and `Portfolio` are not valid
    /// workers.
    pub portfolio_workers: Vec<Strategy>,
    /// How many `(relation, base predicate)` banks the engine's
    /// [`crate::cache::ViewCache`] retains (least-recently-used eviction),
    /// reusing candidate lists, materialized columns and sketch→refine
    /// partitionings across repeated queries. Keys embed the relation's
    /// [`minidb::Table::fingerprint`], so a mutated relation can never serve
    /// a stale view, and hits are bit-identical to cold builds. 0 turns the
    /// cache off (every build is cold and nothing is counted); the capacity
    /// is read when the engine is constructed.
    pub view_cache_capacity: usize,
    /// The resident budget, in bytes, for one view build's freshly
    /// materialized term columns. At or below the budget the columns stay
    /// dense in memory; above it they spill to a temp file and page back in
    /// through a fixed-size buffer pool (see [`crate::column_store`]), so a
    /// view over 10^7+ rows evaluates in bounded memory. `0` forces every
    /// build out-of-core. Storage mode never changes results — solutions are
    /// bit-identical either way. Defaults to the `PB_COLUMN_BUDGET`
    /// environment variable, else 1 GiB ([`env_defaults`]).
    pub column_memory_budget: usize,
    /// Buffer-pool capacity, in pages (one page = one 4096-row column chunk
    /// plus its inclusion mask, ~32 KiB), for columns that spill under
    /// [`EngineConfig::column_memory_budget`]. Clamped to at least
    /// [`crate::column_store::MIN_POOL_PAGES`]. Defaults to the
    /// `PB_POOL_PAGES` environment variable, else 1024 pages ≈ 32 MiB
    /// ([`env_defaults`]).
    pub pool_pages: usize,
    /// The engine's **shared thread budget**: how many threads one query
    /// evaluation may use in total, across both portfolio racing *and*
    /// intra-solver chunk fan-out (view materialization, partitioning,
    /// repair and neighbourhood scans — see [`crate::par`]). The portfolio
    /// divides this budget among its racing workers
    /// ([`crate::par::ParExec::split`]), so workers and their inner loops
    /// never oversubscribe the host together.
    ///
    /// Defaults to `std::thread::available_parallelism()`, overridable with
    /// the `PB_THREADS` environment variable ([`env_defaults`]). Results are
    /// bit-identical at every value — this knob trades wall-clock for
    /// cores, never answers.
    pub num_threads: usize,
}

/// The process environment's say in the defaults, and the only place the
/// crate reads it: the thread budget from `PB_THREADS` (else
/// `std::thread::available_parallelism()`, 1 when even that is unknown) and
/// the column storage policy from `PB_COLUMN_BUDGET` (bytes, else 1 GiB;
/// `0` forces every column build out of core) and `PB_POOL_PAGES` (raised
/// to [`MIN_POOL_PAGES`], else 1024). A value that does not parse, and a
/// zero thread or page count, counts as unset.
///
/// [`EngineConfig::default`] and [`crate::spec::BuildCtx::default`] start
/// from these — how the CI legs `PB_THREADS=1` and `PB_COLUMN_BUDGET=0
/// PB_POOL_PAGES=4` push the whole test suite down the sequential and the
/// paged paths — and any value written into either wins over them.
// The one environment reader clippy.toml points at: configuration enters
// here and travels on as values.
#[allow(clippy::disallowed_methods)]
pub fn env_defaults() -> (usize, ColumnPolicy) {
    let var = |name: &str| std::env::var(name).ok();
    parse_env_defaults(
        var("PB_THREADS").as_deref(),
        var("PB_COLUMN_BUDGET").as_deref(),
        var("PB_POOL_PAGES").as_deref(),
    )
}

/// [`env_defaults`] over the three variables' values (`None` = unset).
fn parse_env_defaults(
    threads: Option<&str>,
    column_budget: Option<&str>,
    pool_pages: Option<&str>,
) -> (usize, ColumnPolicy) {
    let number = |text: Option<&str>| text.and_then(|v| v.trim().parse::<usize>().ok());
    let num_threads = number(threads).filter(|&t| t >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let policy = ColumnPolicy {
        memory_budget: number(column_budget).unwrap_or(DEFAULT_COLUMN_MEMORY_BUDGET),
        pool_pages: number(pool_pages)
            .filter(|&p| p >= 1)
            .map_or(DEFAULT_POOL_PAGES, |p| p.max(MIN_POOL_PAGES)),
    };
    (num_threads, policy)
}

/// The default portfolio worker set for a host with `num_threads` threads.
///
/// Racing four workers on a one-core host buys little beyond
/// deadline-bounding while quadrupling the work the core time-shares, so the
/// default race is sized from the thread budget. The floor is the trio that
/// covers every regime — [`Strategy::Ilp`] (provable optimality, and the
/// early-cancel that ends an unlimited-budget race), [`Strategy::SketchRefine`]
/// (near-optimal answers inside tight deadlines, where the ILP cannot
/// finish) and [`Strategy::Greedy`] (the anytime worker that can evaluate
/// *every* query, so the race never comes home empty-handed) —
/// [`Strategy::LocalSearch`], the most CPU-hungry heuristic and redundant
/// with greedy as a feasibility floor, only joins at four threads and up.
/// [`Strategy::Greedy`] is always the closer.
pub fn default_portfolio_workers(num_threads: usize) -> Vec<Strategy> {
    let specialists = [Strategy::Ilp, Strategy::SketchRefine, Strategy::LocalSearch];
    let slots = num_threads.clamp(3, specialists.len() + 1);
    let mut workers: Vec<Strategy> = specialists.into_iter().take(slots - 1).collect();
    workers.push(Strategy::Greedy);
    workers
}

impl Default for EngineConfig {
    fn default() -> Self {
        let (num_threads, policy) = env_defaults();
        EngineConfig {
            strategy: Strategy::Auto,
            num_packages: 1,
            solver: SolverConfig::default(),
            max_enumeration_nodes: 20_000_000,
            max_local_moves: 10_000,
            local_restarts: 8,
            seed: 42,
            time_budget: None,
            portfolio_workers: default_portfolio_workers(num_threads),
            view_cache_capacity: crate::cache::DEFAULT_VIEW_CACHE_CAPACITY,
            column_memory_budget: policy.memory_budget,
            pool_pages: policy.pool_pages,
            num_threads,
        }
    }
}

impl EngineConfig {
    /// Configuration forcing a specific strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        EngineConfig {
            strategy,
            ..Default::default()
        }
    }

    /// Sets the number of packages to return.
    pub fn packages(mut self, n: usize) -> Self {
        self.num_packages = n.max(1);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-query wall-clock budget (armed per plan run, and handed
    /// to the LP solver as its deadline).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the view cache capacity (entries; 0 turns the cache off).
    /// Applied when an engine is constructed from this configuration.
    pub fn with_view_cache_capacity(mut self, capacity: usize) -> Self {
        self.view_cache_capacity = capacity;
        self
    }

    /// Sets the resident byte budget for freshly materialized view columns
    /// (0 forces every view build out-of-core).
    pub fn with_column_memory_budget(mut self, bytes: usize) -> Self {
        self.column_memory_budget = bytes;
        self
    }

    /// Sets the buffer-pool capacity, in pages, for spilled columns
    /// (clamped to [`crate::column_store::MIN_POOL_PAGES`] when used).
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Sets the shared thread budget (clamped to at least 1) and resizes the
    /// default portfolio worker set to match. A worker set the caller
    /// already customized is left alone.
    pub fn with_num_threads(mut self, threads: usize) -> Self {
        let threads = threads.max(1);
        if self.portfolio_workers == default_portfolio_workers(self.num_threads) {
            self.portfolio_workers = default_portfolio_workers(threads);
        }
        self.num_threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOptions;

    #[test]
    fn auto_route_switches_exactly_at_each_threshold() {
        use Rule::*;
        use Strategy::*;
        const CAP: Option<usize> = Some(AUTO_EXACT_NODE_CAP);
        // (candidates, linearizable, packages, requested, strategy, cap, rule)
        let table = [
            // Tiny inputs enumerate, whatever the query or the package count.
            (0, true, 1, Auto, PrunedEnumeration, None, Tiny),
            (22, true, 1, Auto, PrunedEnumeration, None, Tiny),
            (22, false, 1, Auto, PrunedEnumeration, None, Tiny),
            (22, true, 5, Auto, PrunedEnumeration, None, Tiny),
            (22, false, 5, Auto, PrunedEnumeration, None, Tiny),
            (23, true, 1, Auto, Ilp, None, Exact),
            (23, false, 1, Auto, LocalSearch, None, NonLinear),
            (23, true, 5, Auto, Ilp, None, TopK),
            (23, false, 5, Auto, LocalSearch, None, TopK),
            // Single-package queries the ILP cannot take race from 256
            // candidates; a top-k request keeps local search at every size.
            (255, false, 1, Auto, LocalSearch, None, NonLinear),
            (256, false, 1, Auto, Portfolio, CAP, NonLinearRace),
            (255, false, 5, Auto, LocalSearch, None, TopK),
            (256, false, 5, Auto, LocalSearch, None, TopK),
            (255, true, 1, Auto, Ilp, None, Exact),
            (256, true, 1, Auto, Ilp, None, Exact),
            (4_095, false, 1, Auto, Portfolio, CAP, NonLinearRace),
            (499_999, false, 1, Auto, Portfolio, CAP, NonLinearRace),
            (500_000, false, 1, Auto, Portfolio, CAP, NonLinearRace),
            (500_000, false, 5, Auto, LocalSearch, None, TopK),
            // Linearizable single-package queries hedge with a race from
            // 4 096 candidates; a top-k request keeps the ILP.
            (4_095, true, 1, Auto, Ilp, None, Exact),
            (4_096, true, 1, Auto, Portfolio, CAP, Race),
            (4_095, true, 5, Auto, Ilp, None, TopK),
            (4_096, true, 5, Auto, Ilp, None, TopK),
            (4_096, false, 5, Auto, LocalSearch, None, TopK),
            // ... and descend the partition tree from 500 000.
            (499_999, true, 1, Auto, Portfolio, CAP, Race),
            (500_000, true, 1, Auto, ProgressiveShading, None, Shade),
            (499_999, true, 5, Auto, Ilp, None, TopK),
            (500_000, true, 5, Auto, Ilp, None, TopK),
            // A forced race keeps the configured node limit.
            (499_999, true, 1, Portfolio, Portfolio, None, Forced),
            (500_000, true, 1, Portfolio, Portfolio, None, Forced),
        ];
        let trio = [Ilp, SketchRefine, Greedy];
        for (n, linearizable, packages, requested, strategy, node_cap, rule) in table {
            let obstacle = (!linearizable).then_some(NonLinearReason::AvgVsNonConstant);
            let route = auto_route(requested, n, obstacle, packages, &trio);
            let at = format!("n={n} linearizable={linearizable} packages={packages}");
            let got = (route.strategy, route.node_cap, route.rule);
            assert_eq!(got, (strategy, node_cap, rule), "{at}");
            // A race's sketch worker descends the tree from SHADE_THRESHOLD.
            let race = strategy == Portfolio;
            let shaded = route.workers.contains(&ProgressiveShading);
            assert_eq!(route.workers.len(), if race { 3 } else { 0 }, "{at}");
            assert_eq!(shaded, race && n >= SHADE_THRESHOLD, "{at}");
        }
        // The table's boundaries are the constants'.
        assert_eq!(
            (
                ENUMERATION_THRESHOLD,
                PORTFOLIO_THRESHOLD,
                SKETCH_THRESHOLD,
                SHADE_THRESHOLD
            ),
            (22, 256, 4_096, 500_000)
        );
    }

    #[test]
    fn defaults_are_sensible() {
        let c = EngineConfig::default();
        assert_eq!(c.strategy, Strategy::Auto);
        assert_eq!(c.num_packages, 1);
        assert!(c.num_threads >= 1);
        assert_eq!(
            c.portfolio_workers,
            default_portfolio_workers(c.num_threads)
        );
    }

    #[test]
    fn the_environment_parser_falls_back_to_the_defaults() {
        let parse = parse_env_defaults;
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let unset = (
            host,
            ColumnPolicy {
                memory_budget: 1 << 30,
                pool_pages: 1024,
            },
        );
        assert_eq!(parse(None, None, None), unset);
        // Set values win, whitespace trimmed; a zero budget forces paging
        // and a pool below the floor is raised to it.
        let forced = ColumnPolicy {
            memory_budget: 0,
            pool_pages: MIN_POOL_PAGES,
        };
        assert_eq!(parse(Some(" 4 "), Some("0"), Some("1")), (4, forced));
        // Anything else is the default, never a panic ("0" is a budget).
        for junk in ["0", "-1", "abc", ""] {
            let budget = Some(junk).filter(|&j| j != "0");
            assert_eq!(parse(Some(junk), budget, Some(junk)), unset, "{junk:?}");
        }
    }

    #[test]
    fn portfolio_sizing_tracks_the_thread_budget() {
        // Always at least exact + greedy; greedy always closes the set.
        for t in 0usize..10 {
            let workers = default_portfolio_workers(t);
            assert!(workers.len() >= 3, "t={t}");
            assert!(workers.len() <= 4, "t={t}");
            assert_eq!(*workers.last().unwrap(), Strategy::Greedy, "t={t}");
            assert_eq!(workers[0], Strategy::Ilp, "t={t}");
        }
        assert_eq!(
            default_portfolio_workers(1),
            vec![Strategy::Ilp, Strategy::SketchRefine, Strategy::Greedy]
        );
        assert_eq!(
            default_portfolio_workers(3),
            vec![Strategy::Ilp, Strategy::SketchRefine, Strategy::Greedy]
        );
        assert_eq!(
            default_portfolio_workers(8),
            vec![
                Strategy::Ilp,
                Strategy::SketchRefine,
                Strategy::LocalSearch,
                Strategy::Greedy
            ]
        );
    }

    #[test]
    fn with_num_threads_resizes_only_the_default_worker_set() {
        let c = EngineConfig::default().with_num_threads(1);
        assert_eq!(c.num_threads, 1);
        assert_eq!(c.portfolio_workers, default_portfolio_workers(1));
        // A customized worker set survives a thread-budget change.
        let custom = EngineConfig {
            portfolio_workers: vec![Strategy::LocalSearch],
            ..EngineConfig::default()
        }
        .with_num_threads(8);
        assert_eq!(custom.portfolio_workers, vec![Strategy::LocalSearch]);
        assert_eq!(EngineConfig::default().with_num_threads(0).num_threads, 1);
    }

    #[test]
    fn builders_update_fields() {
        let c = EngineConfig::with_strategy(Strategy::Ilp)
            .packages(5)
            .with_seed(7)
            .with_time_budget(Duration::from_millis(100));
        assert_eq!(c.strategy, Strategy::Ilp);
        assert_eq!(c.num_packages, 5);
        assert_eq!(c.seed, 7);
        assert_eq!(
            SolveOptions::from_config(&c).budget.limit(),
            Some(Duration::from_millis(100))
        );
        assert_eq!(EngineConfig::default().packages(0).num_packages, 1);
    }
}
