//! The package query engine: the planner and the public API.
//!
//! The planner's decision is one value, a [`Route`] from the pure
//! [`auto_route`], carried by a [`QueryPlan`] whose `Display` is the REPL's
//! `EXPLAIN`. [`PackageEngine::run_plan`] runs every plan the same way, over
//! the columnar evaluation core:
//!
//! 1. **prune** — derive cardinality bounds from the view (Section 4.1); a
//!    contradictory window proves infeasibility before any solver runs;
//! 2. **solve** — run the route's [`Solver`] through the one trait;
//! 3. **validate** — defensively re-check every returned package against the
//!    spec, so no solver bug or numerical artefact can surface as a wrong
//!    answer.

use std::fmt;

use minidb::Catalog;
use paql::{analyze, parse, AnalyzedQuery, PaqlQuery};

use crate::cache::ViewCache;
use crate::column_store::ColumnPolicy;
use crate::config::{auto_route, EngineConfig, Route, Rule, Strategy};
use crate::error::PbError;
use crate::ilp::linearize;
use crate::par::ParExec;
use crate::pruning::derive_bounds;
use crate::result::PackageResult;
use crate::solver::{dispatch, SolveOptions, SolveOutcome, Solver};
use crate::spec::{BuildCtx, PackageSpec};
use crate::PbResult;

/// One fully-resolved execution plan: the route, its solver and options.
///
/// Exposed so callers (experiments, interface layers, future schedulers) can
/// inspect or override what the planner chose before running it.
pub struct QueryPlan {
    /// What the planner decided, and why.
    pub route: Route,
    /// The solver implementing the route's strategy.
    pub solver: Box<dyn Solver>,
    /// Options handed to the solver.
    pub options: SolveOptions,
}

/// The `EXPLAIN` text: the route and its rule, what the rule saw, a race's
/// workers and node cap, and the steps [`PackageEngine::run_plan`] takes.
impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.route;
        let linear = match (&r.obstacle, r.rule) {
            (Some(why), _) => format!(", not linearizable: {why}"),
            (None, Rule::Forced) => String::new(),
            (None, _) => ", linearizable".into(),
        };
        writeln!(f, "route: {} ({})", r.strategy, r.rule)?;
        let (n, k) = (r.candidates, r.packages);
        writeln!(f, "  saw: {n} candidates, {k} package(s){linear}")?;
        if !r.workers.is_empty() {
            let workers: Vec<String> = r.workers.iter().map(Strategy::to_string).collect();
            writeln!(f, "  race: {}", workers.join(", "))?;
        }
        if let Some(cap) = r.node_cap {
            writeln!(f, "  node cap: {cap}")?;
        }
        write!(f, "  steps: prune → solve → validate")
    }
}

/// The PackageBuilder query engine.
///
/// "PackageBuilder is an external module which communicates with the DBMS,
/// where the data resides, via SQL" (Section 4); here the [`Catalog`] plays
/// the role of that DBMS connection. The engine parses PaQL, evaluates base
/// constraints against the catalog, lowers the query onto a columnar
/// [`crate::view::CandidateView`], and plans an evaluation: the paper's
/// system "heuristically combines" SQL-based generate-and-validate,
/// constraint solvers, pruning and local search — [`Strategy::Auto`] encodes
/// that policy.
///
/// An engine is also a *session* over its [`ViewCache`]: repeated queries on
/// the same relation and base predicate reuse materialized view columns and
/// sketch→refine partitionings across [`PackageEngine::execute`] calls (see
/// [`crate::cache`]), and cloned engines — or engines built with
/// [`PackageEngine::with_shared_cache`] — warm each other's queries.
#[derive(Debug, Clone)]
pub struct PackageEngine {
    catalog: Catalog,
    config: EngineConfig,
    cache: ViewCache,
}

impl PackageEngine {
    /// Creates an engine with default configuration.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_config(catalog, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(catalog: Catalog, config: EngineConfig) -> Self {
        let cache = ViewCache::new(config.view_cache_capacity);
        PackageEngine {
            catalog,
            config,
            cache,
        }
    }

    /// Creates an engine sharing an existing view cache — several engines
    /// (or threads, the cache is `Send + Sync`) serving the same workload
    /// can warm each other's repeated queries. Fingerprinted keys make this
    /// safe even when the engines' catalogs hold different relation
    /// versions.
    pub fn with_shared_cache(catalog: Catalog, config: EngineConfig, cache: ViewCache) -> Self {
        PackageEngine {
            catalog,
            config,
            cache,
        }
    }

    /// The engine's view cache (inspect [`ViewCache::stats`], share it via
    /// [`PackageEngine::with_shared_cache`], or reclaim memory with
    /// [`ViewCache::clear`] / [`ViewCache::invalidate_relation`]).
    pub fn view_cache(&self) -> &ViewCache {
        &self.cache
    }

    /// Drops cached views of `relation`. Memory reclamation only — a mutated
    /// or re-registered relation changes its fingerprint and therefore
    /// already misses every stale entry.
    pub fn invalidate_relation(&self, relation: &str) {
        self.cache.invalidate_relation(relation);
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (to register new relations).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Parses, analyzes and evaluates a PaQL query.
    pub fn execute_paql(&self, text: &str) -> PbResult<PackageResult> {
        let query = parse(text)?;
        self.execute(&query)
    }

    /// Analyzes and evaluates an already-parsed query.
    pub fn execute(&self, query: &PaqlQuery) -> PbResult<PackageResult> {
        let spec = self.build_spec(query)?;
        self.execute_spec(&spec)
    }

    /// Analyzes a query against the catalog (resolving the relation schema).
    pub fn analyze(&self, query: &PaqlQuery) -> PbResult<AnalyzedQuery> {
        let table = self.relation(query)?;
        Ok(analyze(query, table.schema())?)
    }

    /// Looks up the base relation of a query.
    pub fn relation(&self, query: &PaqlQuery) -> PbResult<&minidb::Table> {
        self.catalog
            .table(&query.relation)
            .ok_or_else(|| PbError::UnknownRelation(query.relation.clone()))
    }

    /// The context every view build of this engine runs in: its thread
    /// budget, its column storage policy and its view cache.
    pub(crate) fn build_context(&self) -> BuildCtx<'_> {
        BuildCtx {
            par: ParExec::new(self.config.num_threads),
            policy: ColumnPolicy {
                memory_budget: self.config.column_memory_budget,
                pool_pages: self.config.pool_pages,
            },
            cache: Some(&self.cache),
        }
    }

    /// Builds the executable spec for a query (exposed for the interface
    /// layers: exploration, suggestion, summaries), through the engine's
    /// view cache, so repeated builds reuse materialized columns and
    /// partitionings.
    pub fn build_spec<'a>(&'a self, query: &PaqlQuery) -> PbResult<PackageSpec<'a>> {
        let analyzed = self.analyze(query)?;
        let table = self.relation(&analyzed.query)?;
        PackageSpec::build(&analyzed, table, &self.build_context())
    }

    /// Evaluates a spec with the configured strategy.
    pub fn execute_spec(&self, spec: &PackageSpec<'_>) -> PbResult<PackageResult> {
        let plan = self.plan(spec)?;
        self.run_plan(spec, &plan)
    }

    /// Builds the execution plan for a spec under the configured strategy:
    /// routes it, instantiates the solver, and projects the options.
    pub fn plan(&self, spec: &PackageSpec<'_>) -> PbResult<QueryPlan> {
        self.plan_with_strategy(spec, self.config.strategy)
    }

    /// Builds a plan with an explicit strategy (used by the experiments).
    pub fn plan_with_strategy(
        &self,
        spec: &PackageSpec<'_>,
        strategy: Strategy,
    ) -> PbResult<QueryPlan> {
        // Only `Auto` asks whether the query linearizes.
        let auto = strategy == Strategy::Auto;
        let obstacle = auto.then(|| linearize(spec.view()).obstacle()).flatten();
        let route = auto_route(
            strategy,
            spec.candidate_count(),
            obstacle,
            self.config.num_packages,
            &self.config.portfolio_workers,
        );
        let solver = dispatch(route.strategy, &route.workers)?;
        let mut options = SolveOptions::from_config(&self.config);
        if let Some(cap) = route.node_cap {
            options.solver.max_nodes = options.solver.max_nodes.min(cap);
        }
        Ok(QueryPlan {
            route,
            solver,
            options,
        })
    }

    /// Evaluates a spec with an explicit strategy (used by the experiments).
    pub fn execute_with_strategy(
        &self,
        spec: &PackageSpec<'_>,
        strategy: Strategy,
    ) -> PbResult<PackageResult> {
        let plan = self.plan_with_strategy(spec, strategy)?;
        self.run_plan(spec, &plan)
    }

    /// Runs a plan: prune → solve → validate.
    pub fn run_plan(&self, spec: &PackageSpec<'_>, plan: &QueryPlan) -> PbResult<PackageResult> {
        let view = spec.view();

        // Prune: a contradictory cardinality window proves infeasibility
        // without running any solver (the result is still "optimal" — the
        // empty answer is exact).
        let bounds = derive_bounds(view)
            .clamp_to(view.candidate_count() as u64 * view.max_multiplicity() as u64);
        let outcome = if bounds.is_empty() {
            SolveOutcome::empty(plan.solver.strategy(), view.candidate_count(), true)
        } else {
            // Solve through the unified trait. The budget is re-armed per run
            // so a reused plan never starts from a stale deadline or a stop
            // flag tripped by a previous portfolio race.
            plan.solver.solve(view, &plan.options.rearmed())?
        };

        // Validate: no solver result leaves the engine unchecked. The check
        // runs through the interpreted oracle (AST evaluation against the
        // base table), which shares no code with the columnar view the
        // solvers used — an independent second opinion.
        for (package, _) in &outcome.packages {
            if !spec.is_valid_interpreted(package)? {
                return Err(PbError::Internal(format!(
                    "solver '{}' returned a package that fails validation",
                    plan.solver.strategy()
                )));
            }
        }
        Ok(PackageResult::from_pairs(
            outcome.packages,
            outcome.optimal,
            outcome.stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SHADE_THRESHOLD;
    use crate::result::StrategyUsed;
    use datagen::{recipes, standard_catalog, Seed};

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    fn small_engine(n: usize, seed: u64) -> PackageEngine {
        let mut catalog = Catalog::new();
        catalog.register(recipes(n, Seed(seed)));
        PackageEngine::new(catalog)
    }

    #[test]
    fn executes_the_paper_query_end_to_end() {
        let engine = small_engine(300, 1);
        let result = engine.execute_paql(MEAL_QUERY).unwrap();
        assert!(!result.is_empty());
        let best = result.best().unwrap();
        assert_eq!(best.cardinality(), 3);
        assert!(result.best_objective().unwrap() > 0.0);
        assert!(result.optimal);
        let table = engine.catalog().table("recipes").unwrap();
        assert!(result.describe(table).contains("objective value"));
    }

    #[test]
    fn unknown_relation_is_reported() {
        let engine = small_engine(10, 2);
        let err = engine
            .execute_paql("SELECT PACKAGE(X) AS P FROM missing X SUCH THAT COUNT(*) = 1")
            .unwrap_err();
        assert!(matches!(err, PbError::UnknownRelation(r) if r == "missing"));
    }

    #[test]
    fn auto_uses_enumeration_for_tiny_inputs() {
        let engine = small_engine(15, 3);
        let result = engine
            .execute_paql("SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.protein)")
            .unwrap();
        assert_eq!(result.stats.strategy, StrategyUsed::PrunedEnumeration);
        assert!(result.optimal);
    }

    #[test]
    fn auto_uses_ilp_for_linear_queries_on_larger_inputs() {
        let engine = small_engine(200, 4);
        let result = engine.execute_paql(MEAL_QUERY).unwrap();
        assert_eq!(result.stats.strategy, StrategyUsed::Ilp);
    }

    // AVG vs AVG is one of the genuinely non-linear shapes left after the
    // AVG-vs-constant rewrite; recipes always have calories >> protein, so
    // the atom holds for every package and the heuristics can satisfy it.
    const NON_LINEAR_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein) \
        MAXIMIZE SUM(P.protein)";

    #[test]
    fn auto_falls_back_to_local_search_for_non_linear_queries() {
        let engine = small_engine(200, 5);
        let result = engine.execute_paql(NON_LINEAR_QUERY).unwrap();
        assert_eq!(result.stats.strategy, StrategyUsed::LocalSearch);
        if let Some(best) = result.best() {
            // The heuristic result must still be a valid package.
            let spec = engine
                .build_spec(&paql::parse(NON_LINEAR_QUERY).unwrap())
                .unwrap();
            assert!(spec.is_valid(best).unwrap());
        }
    }

    #[test]
    fn auto_routes_shade_threshold_candidates_to_progressive_shading() {
        // From `SHADE_THRESHOLD` candidates the policy hands linearizable
        // single-package queries to the hierarchical descent. Half a million
        // rows are too many for a unit test, so `auto_route` is asked with
        // what this spec's route saw, and the descent runs on a small relation.
        let engine = small_engine(600, 9);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let spec = engine.build_spec(&query).unwrap();
        let seen = engine.plan(&spec).unwrap().route;
        assert_eq!(seen.obstacle, None);
        let at = |n| auto_route(Strategy::Auto, n, None, seen.packages, &[]).strategy;
        assert_eq!(at(SHADE_THRESHOLD), Strategy::ProgressiveShading);
        assert_eq!(at(SHADE_THRESHOLD - 1), Strategy::Portfolio);
        let result = engine
            .execute_with_strategy(&spec, Strategy::ProgressiveShading)
            .unwrap();
        assert_eq!(result.stats.strategy, StrategyUsed::ProgressiveShading);
        assert!(!result.is_empty());
        let best = result.best().unwrap();
        assert!(spec.is_valid(best).unwrap());
    }

    #[test]
    fn auto_races_a_portfolio_for_large_non_linear_queries() {
        let engine = small_engine(600, 10);
        let query = paql::parse(NON_LINEAR_QUERY).unwrap();
        let spec = engine.build_spec(&query).unwrap();
        assert_eq!(
            engine.plan(&spec).unwrap().route.strategy,
            Strategy::Portfolio
        );
        let result = engine.execute_spec(&spec).unwrap();
        assert_eq!(result.stats.strategy, StrategyUsed::Portfolio);
        assert!(!result.is_empty());
    }

    #[test]
    fn strategies_agree_on_the_optimal_objective() {
        let engine = small_engine(60, 6);
        let query = paql::parse(
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1200 MAXIMIZE SUM(P.protein)",
        )
        .unwrap();
        let spec = engine.build_spec(&query).unwrap();
        let ilp = engine.execute_with_strategy(&spec, Strategy::Ilp).unwrap();
        let pruned = engine
            .execute_with_strategy(&spec, Strategy::PrunedEnumeration)
            .unwrap();
        let ls = engine
            .execute_with_strategy(&spec, Strategy::LocalSearch)
            .unwrap();
        let opt = ilp.best_objective().unwrap();
        assert!((pruned.best_objective().unwrap() - opt).abs() < 1e-6);
        // Local search is heuristic but must not exceed the optimum.
        assert!(ls.best_objective().unwrap() <= opt + 1e-6);
        // Greedy is heuristic too; when it finds a package it is valid and
        // bounded by the optimum.
        let greedy = engine
            .execute_with_strategy(&spec, Strategy::Greedy)
            .unwrap();
        if let Some(g) = greedy.best_objective() {
            assert!(g <= opt + 1e-6);
        }
    }

    #[test]
    fn planner_reports_the_resolved_strategy() {
        let engine = small_engine(15, 9);
        let query = paql::parse(
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.protein)",
        )
        .unwrap();
        let spec = engine.build_spec(&query).unwrap();
        let plan = engine.plan(&spec).unwrap();
        assert_eq!(plan.route.strategy, Strategy::PrunedEnumeration);
        assert_eq!(plan.solver.strategy(), StrategyUsed::PrunedEnumeration);
        // Contradictory bounds short-circuit before the solver runs.
        let infeasible = paql::parse(
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2",
        )
        .unwrap();
        let spec = engine.build_spec(&infeasible).unwrap();
        let result = engine.execute_spec(&spec).unwrap();
        assert!(result.is_empty());
        assert!(result.optimal, "pruning proves infeasibility exactly");
        assert_eq!(result.stats.nodes, 0);
    }

    #[test]
    fn multiple_packages_are_returned_best_first() {
        let mut catalog = Catalog::new();
        catalog.register(recipes(80, Seed(7)));
        let engine = PackageEngine::with_config(catalog, EngineConfig::default().packages(5));
        let result = engine
            .execute_paql(
                "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 MAXIMIZE SUM(P.protein)",
            )
            .unwrap();
        assert_eq!(result.len(), 5);
        for w in result.objectives.windows(2) {
            assert!(w[0].unwrap() >= w[1].unwrap() - 1e-6);
        }
    }

    #[test]
    fn standard_catalog_queries_run_on_every_scenario_relation() {
        let engine = PackageEngine::new(standard_catalog(Seed(8)));
        // Vacation: flights + hotels under $2000.
        let vacation = engine
            .execute_paql(
                "SELECT PACKAGE(T) AS P FROM travel_options T \
                 SUCH THAT COUNT(*) FILTER (WHERE T.kind = 'flight') = 1 AND \
                           COUNT(*) FILTER (WHERE T.kind = 'hotel') = 1 AND \
                           COUNT(*) FILTER (WHERE T.kind = 'car') <= 1 AND \
                           SUM(P.price) <= 2000 \
                 MAXIMIZE SUM(P.comfort)",
            )
            .unwrap();
        assert!(!vacation.is_empty());
        // Portfolio: budget + 30% technology.
        let portfolio = engine
            .execute_paql(
                "SELECT PACKAGE(S) AS P FROM stocks S \
                 SUCH THAT SUM(P.price) <= 50000 AND \
                           SUM(P.price) FILTER (WHERE S.sector = 'technology') >= 0.3 * SUM(P.price) \
                 MAXIMIZE SUM(P.expected_return)",
            )
            .unwrap();
        assert!(!portfolio.is_empty());
    }

    #[test]
    fn planning_reads_no_column() {
        use crate::column_store::SpillStore;
        use crate::spec::tests::respill;
        use std::sync::Arc;
        let engine = small_engine(600, 12);
        for (query, route) in [
            (MEAL_QUERY, Strategy::Ilp),
            (
                "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein)",
                Strategy::Portfolio,
            ),
        ] {
            let built = engine.build_spec(&parse(query).unwrap()).unwrap();
            // Every term column moves to a store nothing else reads.
            let store = SpillStore::create(4).unwrap();
            let stores = vec![Some(Arc::clone(&store)); built.view().terms().len()];
            let paged = respill(&built, &stores);
            let spec = PackageSpec::over(built.table, built.query.clone(), paged);
            assert!(spec.view().is_paged());
            let before = store.counters();
            let plan = engine.plan(&spec).unwrap();
            assert_eq!(plan.route.strategy, route, "{query}");
            assert_eq!(store.counters(), before, "planning read a page: {query}");
            // The store does see the solve's reads.
            engine.run_plan(&spec, &plan).unwrap();
            assert_ne!(store.counters(), before, "{query}");
        }
    }
}
