//! Runs passes of a script — plain or traced — and checks every answer.
//!
//! A plain operation is what a library caller writes: parse, `build_spec`,
//! `execute_with_strategy`. A traced operation makes the same public calls
//! `PackageEngine::execute` composes, one at a time with a span around each,
//! then times the layers the engine does not call separately as *probes*
//! outside the operation's span. Both must give the same answer.

use std::collections::BTreeMap;
use std::sync::Arc;

use packagebuilder::explore::ExplorationSession;
use packagebuilder::partition::{build_partition_tree, partition_view_budgeted};
use packagebuilder::pruning::derive_bounds;
use packagebuilder::solver::GreedySolver;
use packagebuilder::suggest::{suggest, Highlight};
use packagebuilder::{
    pool_stats, Budget, CacheStats, PackageEngine, PackageResult, PackageSpec, ParExec, PoolStats,
    QueryPlan, SolveOutcome, Solver, Strategy, StrategyUsed,
};

use crate::clock::Clock;
use crate::trace::Tracer;
use crate::workloads::{Action, Instance, APPEND_ROWS};

/// What one operation answered: everything that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub feasible: bool,
    pub packages: usize,
    pub objective: Option<f64>,
    pub cardinality: u64,
    pub strategy: String,
    pub optimal: bool,
    pub nodes: u64,
    pub iterations: u64,
    pub candidates: usize,
    /// The query minimizes its objective (quality ratios invert).
    pub minimize: bool,
}

impl Answer {
    fn of_result(spec: &PackageSpec<'_>, result: &PackageResult) -> Answer {
        Answer {
            minimize: spec
                .objective
                .as_ref()
                .is_some_and(|o| o.direction == paql::ObjectiveDirection::Minimize),
            feasible: !result.is_empty(),
            packages: result.packages.len(),
            objective: result.best_objective(),
            cardinality: result.best().map_or(0, |p| p.cardinality()),
            strategy: result.stats.strategy.to_string(),
            optimal: result.optimal,
            nodes: result.stats.nodes,
            iterations: result.stats.iterations,
            candidates: result.stats.candidates,
        }
    }

    /// The answer of a step that returns no package: `items` rows appended
    /// or suggestions made.
    fn of_step(label: &str, items: usize, candidates: usize) -> Answer {
        Answer {
            feasible: true,
            packages: items,
            objective: None,
            cardinality: 0,
            strategy: label.to_string(),
            optimal: false,
            nodes: 0,
            iterations: 0,
            candidates,
            minimize: false,
        }
    }

    /// Bitwise equality: `Some(NaN)` objectives compare equal to themselves.
    pub fn same_as(&self, other: &Answer) -> bool {
        self.objective.map(f64::to_bits) == other.objective.map(f64::to_bits)
            && Answer {
                objective: None,
                ..self.clone()
            } == Answer {
                objective: None,
                ..other.clone()
            }
    }
}

/// One pass: times and answers by script index, counter deltas, and (traced
/// passes only) counts taken at the layer boundaries.
#[derive(Debug, Clone)]
pub struct PassRecord {
    pub pass_ns: u64,
    pub op_ns: Vec<u64>,
    pub answers: Vec<Option<Answer>>,
    pub cache: CacheStats,
    pub pool: PoolStats,
    pub counts: Counts,
}

/// Operations attempted and failed over a whole run, set-ups included.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Runs passes over one instance and keeps the tally the contract asks for.
pub struct Runner {
    pub instance: Instance,
    order: Vec<usize>,
    /// Answers of the verification pass; later passes must repeat them
    /// unless the workload grows its tables.
    reference: Vec<Option<Answer>>,
    pub tally: Tally,
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        columns_reused: after.columns_reused - before.columns_reused,
        columns_built: after.columns_built - before.columns_built,
        ..after
    }
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        pages_spilled: after.pages_spilled - before.pages_spilled,
    }
}

fn solve_span(strategy: StrategyUsed) -> &'static str {
    match strategy {
        StrategyUsed::Ilp => "solve.ilp",
        StrategyUsed::PrunedEnumeration | StrategyUsed::Exhaustive => "solve.enumerate",
        StrategyUsed::LocalSearch => "solve.local_search",
        StrategyUsed::Greedy => "solve.greedy",
        StrategyUsed::Portfolio => "solve.portfolio",
        StrategyUsed::SketchRefine => "solve.sketch_refine",
        StrategyUsed::ProgressiveShading => "solve.shading",
    }
}

impl Runner {
    /// `tally` carries on from the run's earlier set-ups.
    pub fn new(instance: Instance, stream_seed: u64, tally: Tally) -> Self {
        let pin_first = !instance.growing.is_empty();
        let order = instance.pass_order(stream_seed, pin_first);
        let ops = instance.script.len();
        Runner {
            instance,
            order,
            reference: vec![None; ops],
            tally,
        }
    }

    /// The verification pass: canonical order, nothing appended, so the
    /// answers depend on the data seed alone and can be compared with the
    /// checked-in references. Its answers become the run's reference.
    pub fn verification_pass(&mut self, clock: &Clock) -> PassRecord {
        let order: Vec<usize> = (0..self.instance.script.len())
            .filter(|&i| !matches!(self.instance.script[i].action, Action::Append { .. }))
            .collect();
        let record = self.run(clock, &order, None);
        self.reference = record.answers.clone();
        record
    }

    /// One pass of the whole script in the stream seed's order.
    pub fn pass(&mut self, clock: &Clock, tracer: Option<&mut Tracer>) -> PassRecord {
        let order = self.order.clone();
        self.run(clock, &order, tracer)
    }

    fn run(
        &mut self,
        clock: &Clock,
        order: &[usize],
        mut tracer: Option<&mut Tracer>,
    ) -> PassRecord {
        let ops = self.instance.script.len();
        let mut record = PassRecord {
            pass_ns: 0,
            op_ns: vec![0; ops],
            answers: vec![None; ops],
            cache: CacheStats::default(),
            pool: PoolStats::default(),
            counts: BTreeMap::new(),
        };
        let cache_before = self.instance.engine.view_cache().stats();
        let pool_before = pool_stats();
        // Tables that grow change the answers from pass to pass.
        let stable = self.instance.growing.is_empty();
        let pass_start = clock.ns();
        for &i in order {
            let op = self.instance.script[i].clone();
            // `num_packages` is engine configuration, not part of a query:
            // set it for every operation, or one would inherit the last
            // query's (an exploration step after the top-3 query did).
            self.instance.engine.config_mut().num_packages = match op.action {
                Action::Query { num_packages, .. } => num_packages,
                _ => 1,
            };
            let start = clock.ns();
            let outcome = match tracer.as_deref_mut() {
                None => self.plain(&op.action),
                Some(t) => {
                    t.next_op();
                    self.traced(&op.action, t, &mut record.counts)
                }
            };
            record.op_ns[i] = clock.ns() - start;
            self.tally.attempted += 1;
            match outcome {
                Err(why) => self.tally.fail(format!("{}: {why}", op.kind)),
                Ok(answer) => {
                    if let Action::Query {
                        expect_feasible, ..
                    } = op.action
                    {
                        if answer.feasible != expect_feasible {
                            self.tally.fail(format!(
                                "{}: expected feasible={expect_feasible}, got {}",
                                op.kind, answer.feasible
                            ));
                        }
                    }
                    if let (true, Some(first)) = (stable, &self.reference[i]) {
                        if !answer.same_as(first) {
                            self.tally.fail(format!(
                                "{}: answer changed between passes: {first:?} then {answer:?}",
                                op.kind
                            ));
                        }
                    }
                    record.answers[i] = Some(answer);
                }
            }
        }
        record.pass_ns = clock.ns() - pass_start;
        record.cache = cache_delta(self.instance.engine.view_cache().stats(), cache_before);
        record.pool = pool_delta(pool_stats(), pool_before);
        record
    }

    fn append(&mut self, invalidate: &str) -> Result<Answer, String> {
        let mut appended = 0;
        for growing in &mut self.instance.growing {
            let rows: Vec<_> = growing.pending.by_ref().take(APPEND_ROWS).collect();
            if rows.len() < APPEND_ROWS {
                return Err(format!("no rows left to append to {}", growing.relation));
            }
            appended += rows.len();
            self.instance
                .engine
                .catalog_mut()
                .table_mut(growing.relation)
                .ok_or_else(|| format!("relation {} is gone", growing.relation))?
                .insert_all(rows)
                .map_err(text)?;
        }
        self.instance.engine.invalidate_relation(invalidate);
        Ok(Answer::of_step("append", appended, 0))
    }

    fn plain(&mut self, action: &Action) -> Result<Answer, String> {
        match action {
            Action::Query {
                text: paql,
                strategy,
                ..
            } => {
                let engine = &self.instance.engine;
                let query = paql::parse(paql).map_err(text)?;
                let spec = engine.build_spec(&query).map_err(text)?;
                let result = engine
                    .execute_with_strategy(&spec, *strategy)
                    .map_err(text)?;
                checked(&spec, &result)
            }
            Action::Append { invalidate } => self.append(invalidate),
            Action::Suggest { relation, column } => {
                suggest_op(&self.instance.engine, relation, column)
            }
            Action::Refine { text: paql } => refine_op(&self.instance.engine, paql),
        }
    }

    fn traced(
        &mut self,
        action: &Action,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<Answer, String> {
        match action {
            Action::Query {
                text: paql,
                strategy,
                ..
            } => traced_query(
                &self.instance.engine,
                paql,
                *strategy,
                // The probes fan out the way the engine itself does.
                ParExec::new(self.instance.engine.config().num_threads),
                t,
                counts,
            ),
            Action::Append { invalidate } => {
                spanned(t, "minidb.append", || self.append(invalidate))
            }
            Action::Suggest { relation, column } => spanned(t, "suggest", || {
                suggest_op(&self.instance.engine, relation, column)
            }),
            Action::Refine { text: paql } => spanned(t, "explore.refine", || {
                refine_op(&self.instance.engine, paql)
            }),
        }
    }
}

/// An answer whose every package passes the spec's own validity check.
fn checked(spec: &PackageSpec<'_>, result: &PackageResult) -> Result<Answer, String> {
    for package in &result.packages {
        if !spec.is_valid(package).map_err(text)? {
            return Err("a returned package fails PackageSpec::is_valid".to_string());
        }
    }
    Ok(Answer::of_result(spec, result))
}

fn suggest_op(engine: &PackageEngine, relation: &str, column: &str) -> Result<Answer, String> {
    let table = engine
        .catalog()
        .table(relation)
        .ok_or_else(|| format!("relation {relation} is gone"))?;
    let highlight = Highlight::Column {
        column: column.to_string(),
    };
    let suggestions = suggest(table, "P", &highlight).map_err(text)?;
    if suggestions.is_empty() {
        return Err("no suggestion for a numeric column".to_string());
    }
    Ok(Answer::of_step("suggest", suggestions.len(), table.len()))
}

/// Sample, reject the first member, re-sample: the refined package must be
/// valid for the query and must not contain the rejected tuple.
fn refine_op(engine: &PackageEngine, paql: &str) -> Result<Answer, String> {
    let query = paql::parse(paql).map_err(text)?;
    let mut session = ExplorationSession::new(query.clone());
    let first = session.sample(engine).map_err(text)?;
    let rejected = first
        .best()
        .and_then(|p| p.tuple_ids().first().copied())
        .ok_or("the first sample is empty")?;
    session.reject(rejected);
    let refined = session.refine(engine).map_err(text)?;
    if refined
        .packages
        .iter()
        .any(|p| p.multiplicity(rejected) > 0)
    {
        return Err("the refined package keeps the rejected tuple".to_string());
    }
    let spec = engine.build_spec(&query).map_err(text)?;
    checked(&spec, &refined)
}

/// Runs `f` inside a span. The span closes before the result is looked at,
/// so callers can use `?` on it and leave no span open.
fn spanned<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = t.open(name);
    let out = f();
    t.close(span);
    out
}

fn probed<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = t.open_probe(name);
    let out = f();
    t.close(span);
    out
}

/// Counts taken at layer boundaries during a traced pass, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

fn count(counts: &mut Counts, name: &'static str, by: u64) {
    *counts.entry(name).or_default() += by;
}

/// What the traced stages of one query leave behind for the probes.
struct Staged<'e> {
    query: paql::PaqlQuery,
    spec: PackageSpec<'e>,
    plan: QueryPlan,
    /// Cache counters the build moved.
    built: CacheStats,
    /// Pruning proved the query infeasible; no solver ran.
    pruned: bool,
    /// No partitioning (flat, tree) was memoized before the solve.
    cold: (bool, bool),
    result: PackageResult,
}

/// The public calls `PackageEngine::execute_paql` composes, one span each.
fn traced_stages<'e>(
    engine: &'e PackageEngine,
    paql: &str,
    strategy: Strategy,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Staged<'e>, String> {
    let query = spanned(t, "paql.parse", || paql::parse(paql)).map_err(text)?;
    spanned(t, "paql.analyze", || engine.analyze(&query)).map_err(text)?;

    let cache_before = engine.view_cache().stats();
    let span = t.open("cache.hit_build");
    let spec = engine.build_spec(&query);
    t.close(span);
    let built = cache_delta(engine.view_cache().stats(), cache_before);
    if built.misses + built.columns_built > 0 {
        t.rename(span, "cache.miss_build");
    }
    let spec = spec.map_err(text)?;
    let view = spec.view();
    count(counts, "spec.candidates", view.candidate_count() as u64);

    let plan = spanned(t, "engine.plan", || {
        engine.plan_with_strategy(&spec, strategy)
    })
    .map_err(text)?;
    let used = plan.solver.strategy();
    let memo = view.partition_memo();
    let cold = (memo.is_empty(), memo.tree_len() == 0);

    let bounds = spanned(t, "pruning.bounds", || {
        derive_bounds(view).clamp_to(view.candidate_count() as u64 * view.max_multiplicity() as u64)
    });
    let pruned = bounds.is_empty();
    let outcome = if pruned {
        count(counts, "pruning.short_circuits", 1);
        SolveOutcome::empty(used, view.candidate_count(), true)
    } else {
        let outcome = spanned(t, solve_span(used), || {
            plan.solver.solve(view, &plan.options.rearmed())
        })
        .map_err(text)?;
        let valid = spanned(t, "engine.validate", || {
            outcome
                .packages
                .iter()
                .try_fold(true, |ok, (p, _)| Ok(ok & spec.is_valid_interpreted(p)?))
        })
        .map_err(|e: packagebuilder::PbError| text(e))?;
        if !valid {
            return Err(format!("solver '{used}' returned an invalid package"));
        }
        outcome
    };
    let result = PackageResult::from_pairs(outcome.packages, outcome.optimal, outcome.stats);
    Ok(Staged {
        query,
        spec,
        plan,
        built,
        pruned,
        cold,
        result,
    })
}

/// Times the layers `execute` does not call separately. Results are
/// discarded; a probe that errors (a node cap without an incumbent) has
/// still done the work being timed.
fn probes(
    engine: &PackageEngine,
    staged: &Staged<'_>,
    par: ParExec,
    t: &mut Tracer,
    counts: &mut Counts,
) {
    let Staged {
        query,
        spec,
        plan,
        built,
        ..
    } = staged;
    let view = spec.view();
    if built.misses > 0 {
        count(counts, "view.terms_built", built.columns_built);
        if let Ok(table) = engine.relation(query) {
            count(counts, "spec.rows_scanned", table.len() as u64);
            let scanned = probed(t, "probe.scan", || {
                packagebuilder::spec::base_candidates_par(table, query.where_clause.as_ref(), par)
            });
            std::hint::black_box(scanned.map(|c| c.len()).ok());
        }
    }
    if staged.pruned {
        return;
    }
    match plan.solver.strategy() {
        StrategyUsed::Ilp => {
            let Ok(translation) = probed(t, "probe.translate", || {
                packagebuilder::ilp::translate(view)
            }) else {
                return;
            };
            let mut config = plan.options.solver.clone();
            // `solve_ilp_par` hands its threads to branch and bound from 512
            // candidates up.
            if view.candidate_count() >= 512 {
                config.num_threads = par.threads();
            }
            let solved = probed(t, "probe.milp", || {
                lp_solver::solve(&translation.problem, &config)
            });
            if let Ok(solution) = solved {
                count(counts, "probe.milp_iterations", solution.iterations as u64);
            }
            let relaxed = probed(t, "probe.root_lp", || {
                lp_solver::solve_lp(&translation.problem, None, &config)
            });
            std::hint::black_box(relaxed.map(|s| s.objective).ok());
        }
        used @ (StrategyUsed::SketchRefine | StrategyUsed::ProgressiveShading) => {
            let options = plan.options.rearmed();
            let floor = probed(t, "probe.greedy_floor", || {
                GreedySolver.solve(view, &options)
            });
            std::hint::black_box(floor.map(|o| o.packages.len()).ok());
            // Partitioning is memoized with the cached columns; only a cold
            // solve pays for it, so only a cold solve is probed.
            let shading = used == StrategyUsed::ProgressiveShading;
            let (size, was_cold) = if shading {
                (options.shade_leaf_size, staged.cold.1)
            } else {
                (options.sketch_partition_size, staged.cold.0)
            };
            if !was_cold {
                return;
            }
            let unlimited = Budget::unlimited();
            let Some(leaves) = probed(t, "probe.partition_flat", || {
                partition_view_budgeted(view, size, options.seed, &unlimited, par)
            }) else {
                return;
            };
            count(counts, "partition.leaves", leaves.len() as u64);
            if shading {
                let tree = probed(t, "probe.partition_tree", || {
                    build_partition_tree(
                        Arc::new(leaves),
                        options.shade_fanout,
                        options.seed,
                        &unlimited,
                        par,
                    )
                });
                std::hint::black_box(tree.map(|t| t.height()));
            }
        }
        _ => {}
    }
}

fn traced_query(
    engine: &PackageEngine,
    paql: &str,
    strategy: Strategy,
    par: ParExec,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Answer, String> {
    // The root span's self time is the glue between the staged calls.
    let root = t.open("engine.other");
    let staged = traced_stages(engine, paql, strategy, t, counts);
    t.close(root);
    let staged = staged?;
    let answer = checked(&staged.spec, &staged.result)?;
    probes(engine, &staged, par, t, counts);
    Ok(answer)
}
