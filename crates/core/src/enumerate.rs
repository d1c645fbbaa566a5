//! Enumeration strategies: exhaustive and pruned candidate-package search.
//!
//! This is the "generate and validate candidate packages" strategy of
//! Section 4, made practical by two bounding rules applied during the
//! depth-first search over candidate multiplicities:
//!
//! * **cardinality bounds** from [`crate::pruning`] — branches whose
//!   cardinality can no longer land inside `[l, u]` are cut;
//! * **partial-sum bounds** — for every linearizable conjunctive constraint
//!   the search keeps the running sum plus the best/worst contribution still
//!   reachable from the remaining candidates, and cuts branches that cannot
//!   possibly re-enter the feasible interval. A linear objective is one
//!   more such row once `keep` packages are kept: its bound is the last
//!   kept value, moved outward by a rounding slack, so a branch is cut only
//!   when all of it ranks strictly behind — ties are explored, and the kept
//!   packages are those of the search without the bound.
//!
//! Exhaustive mode disables both rules and is the brute-force baseline of
//! the harness's `e2` crossover table.

use lp_solver::ConstraintOp;
use paql::ObjectiveDirection;

use crate::budget::Budget;
use crate::error::PbError;
use crate::ilp::{linearize, LinearConstraint};
use crate::package::Package;
use crate::pruning::{derive_bounds, CardinalityBounds};
use crate::result::{EvalStats, StrategyUsed};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// Options for the enumeration strategies.
#[derive(Debug, Clone)]
pub struct EnumerationOptions {
    /// Apply cardinality and partial-sum pruning.
    pub prune: bool,
    /// Maximum number of search nodes to expand before giving up.
    pub max_nodes: u64,
    /// Number of best packages to keep (all feasible ones when the query has
    /// no objective, up to this many).
    pub keep: usize,
    /// Cooperative wall-clock budget; on expiry the search aborts and the
    /// best packages found so far are returned with `complete: false`.
    pub budget: Budget,
}

impl Default for EnumerationOptions {
    fn default() -> Self {
        EnumerationOptions {
            prune: true,
            max_nodes: 20_000_000,
            keep: 1,
            budget: Budget::unlimited(),
        }
    }
}

/// Outcome of an enumeration run.
pub struct EnumerationOutcome {
    /// Best packages found (best first under the objective, insertion order
    /// otherwise), with objective values.
    pub packages: Vec<(Package, Option<f64>)>,
    /// True when the whole (pruned) space was explored, i.e. the best package
    /// is provably optimal.
    pub complete: bool,
    /// Search nodes expanded.
    pub nodes: u64,
    /// Number of feasible packages encountered.
    pub feasible_found: u64,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

struct Searcher<'v> {
    view: &'v CandidateView,
    opts: EnumerationOptions,
    bounds: CardinalityBounds,
    linear: Vec<LinearConstraint>,
    /// The row of `linear` that bounds a linear objective, if any.
    objective_row: Option<usize>,
    /// Per-constraint suffix arrays: the maximum / minimum additional
    /// contribution obtainable from candidates `i..n`.
    suffix_max: Vec<Vec<f64>>,
    suffix_min: Vec<Vec<f64>>,
    objective: Option<ObjectiveDirection>,
    current: Vec<u32>,
    sums: Vec<f64>,
    cardinality: u64,
    nodes: u64,
    feasible: u64,
    best: Vec<(Package, Option<f64>)>,
    /// Each kept package's value on the objective row, in `best`'s order.
    best_linear: Vec<f64>,
    aborted: bool,
}

impl<'v> Searcher<'v> {
    fn new(view: &'v CandidateView, opts: EnumerationOptions) -> Self {
        let n = view.candidate_count();
        let r = view.max_multiplicity() as f64;
        let capacity = n as u64 * view.max_multiplicity() as u64;
        let bounds = if opts.prune {
            derive_bounds(view).clamp_to(capacity)
        } else {
            CardinalityBounds::unbounded().clamp_to(capacity)
        };
        // Linear constraints power the partial-sum bound; they are only an
        // accelerator, feasibility is always re-checked exactly.
        let (mut linear, mut objective_row) = (Vec::new(), None);
        // Any objective ranks the packages: the rank reads exact values.
        let objective = view.compiled_objective().map(|_| view.direction());
        if opts.prune {
            let (rows, objective_coeffs) = linearize(view).write(view);
            linear = rows.unwrap_or_default();
            // The objective row starts unbounded; kept packages bound it.
            let (op, bound) = match objective {
                Some(ObjectiveDirection::Minimize) => (ConstraintOp::Le, f64::INFINITY),
                _ => (ConstraintOp::Ge, f64::NEG_INFINITY),
            };
            if let Ok(Some(coeffs)) = objective_coeffs {
                if coeffs.iter().all(|c| c.is_finite()) {
                    objective_row = Some(linear.len());
                    linear.push(LinearConstraint {
                        coeffs,
                        op,
                        rhs: bound,
                        bound,
                    });
                }
            }
        }
        let mut suffix_max = Vec::with_capacity(linear.len());
        let mut suffix_min = Vec::with_capacity(linear.len());
        for lc in &linear {
            let mut smax = vec![0.0; n + 1];
            let mut smin = vec![0.0; n + 1];
            for i in (0..n).rev() {
                let c = lc.coeffs[i] * r;
                smax[i] = smax[i + 1] + c.max(0.0);
                smin[i] = smin[i + 1] + c.min(0.0);
            }
            suffix_max.push(smax);
            suffix_min.push(smin);
        }
        Searcher {
            view,
            bounds,
            linear,
            objective_row,
            suffix_max,
            suffix_min,
            objective,
            current: vec![0; n],
            sums: Vec::new(),
            cardinality: 0,
            nodes: 0,
            feasible: 0,
            best: Vec::new(),
            best_linear: Vec::new(),
            aborted: false,
            opts,
        }
    }

    /// Validates the leaf `current` and keeps it when it ranks among the
    /// best `keep`. The leaf is projected once, in ascending index order —
    /// what [`CandidateView::project`] does with the leaf's package, so
    /// feasibility and objective read the same accumulator bits — and
    /// becomes a [`Package`] only when kept.
    fn record_if_feasible(&mut self) {
        let members: Vec<(usize, u32)> = (self.current.iter().enumerate())
            .filter(|&(_, &m)| m > 0)
            .map(|(i, &m)| (i, m))
            .collect();
        let state = ViewState::of_members(self.view, &members);
        if !state.is_feasible() {
            return;
        }
        self.feasible += 1;
        let objective = state.objective_value();
        match &self.objective {
            None => {
                if self.best.len() < self.opts.keep {
                    self.best.push((state.to_package(), objective));
                }
            }
            Some(direction) => {
                // `best` is kept sorted best-first, so recording a package is
                // a binary-search insert + truncate, not a full re-sort per
                // feasible package. The rank uses `total_cmp` (like greedy
                // and local search) instead of `partial_cmp(..).unwrap_or(Equal)`,
                // so a NaN objective cannot silently compare Equal and
                // corrupt the top-k order; NaN and un-evaluable (None)
                // objectives both rank last for either direction (total_cmp
                // alone would put NaN *above* +inf and crown it the
                // "maximum").
                let dir = *direction;
                let rank = |a: &Option<f64>, b: &Option<f64>| -> std::cmp::Ordering {
                    let evaluable = |o: &Option<f64>| o.filter(|x| !x.is_nan());
                    match (evaluable(a), evaluable(b)) {
                        (Some(x), Some(y)) => match dir {
                            ObjectiveDirection::Maximize => y.total_cmp(&x),
                            ObjectiveDirection::Minimize => x.total_cmp(&y),
                        },
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => std::cmp::Ordering::Equal,
                    }
                };
                // Insert after any equal-ranked entries (stable, matching the
                // previous stable-sort tie behaviour).
                let pos = self
                    .best
                    .partition_point(|e| rank(&e.1, &objective) != std::cmp::Ordering::Greater);
                if pos < self.opts.keep {
                    self.best.insert(pos, (state.to_package(), objective));
                    self.best.truncate(self.opts.keep);
                    if let Some(o) = self.objective_row {
                        self.best_linear.insert(pos, self.sums[o]);
                        self.best_linear.truncate(self.opts.keep);
                        self.bound_the_objective(o);
                    }
                }
            }
        }
    }

    /// Once `keep` packages are kept and the last has an objective value,
    /// bounds objective row `o` by that package's value on the row, moved
    /// outward by a slack that covers how far rounding can move a package's
    /// exact objective from its row value (`Σ r·|c|` is the suffix spread).
    fn bound_the_objective(&mut self, o: usize) {
        let kept = self.best.len();
        if kept < self.opts.keep || self.best[kept - 1].1.is_none_or(|x| x.is_nan()) {
            return;
        }
        let last = self.best_linear[kept - 1];
        let spread = self.suffix_max[o][0] - self.suffix_min[o][0];
        let slack = 1e-9 * (1.0 + spread + last.abs());
        let row = &mut self.linear[o];
        row.bound = match row.op {
            ConstraintOp::Le => last + slack,
            _ => last - slack,
        };
    }

    /// True when the subtree rooted at position `idx` cannot contain a
    /// feasible package.
    fn prune_subtree(&self, idx: usize) -> bool {
        if !self.opts.prune {
            return false;
        }
        let n = self.view.candidate_count() as u64;
        let r = self.view.max_multiplicity() as u64;
        // Cardinality window.
        let remaining_capacity = (n - idx as u64) * r;
        if self.cardinality > self.bounds.upper.unwrap_or(u64::MAX) {
            return true;
        }
        if self.cardinality + remaining_capacity < self.bounds.lower {
            return true;
        }
        // Partial-sum windows, against the bounds as written: the LP's
        // tightened strict bound would cut packages the exact check accepts.
        for (c, lc) in self.linear.iter().enumerate() {
            let cur = self.sums[c];
            let max_additional = self.suffix_max[c][idx];
            let min_additional = self.suffix_min[c][idx];
            match lc.op {
                ConstraintOp::Le => {
                    if cur + min_additional > lc.bound + 1e-9 {
                        return true;
                    }
                }
                ConstraintOp::Ge => {
                    if cur + max_additional < lc.bound - 1e-9 {
                        return true;
                    }
                }
                ConstraintOp::Eq => {
                    if cur + min_additional > lc.bound + 1e-9
                        || cur + max_additional < lc.bound - 1e-9
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Depth-first search over multiplicity assignments, driven by an
    /// explicit worklist instead of recursion: the recursive formulation
    /// nested one stack frame per candidate index, which overflowed the
    /// thread stack past ~10k candidates. The worklist replays the exact
    /// recursive order — `Visit` is a node entry (counted, budget-checked,
    /// pruned), `Enter` applies one multiplicity on the way down, `Undo`
    /// retracts it on the way back up — so node counts and traversal order
    /// are identical to the old `dfs`.
    fn search(&mut self) {
        enum Step {
            /// Enter the search node at this candidate index.
            Visit(usize),
            /// Assign `mult` at `idx`, then visit `idx + 1`.
            Enter(usize, u32),
            /// Retract the assignment of `mult` at `idx`.
            Undo(usize, u32),
        }
        let n = self.view.candidate_count();
        let max_mult = self.view.max_multiplicity();
        let mut work: Vec<Step> = vec![Step::Visit(0)];
        while let Some(step) = work.pop() {
            match step {
                Step::Undo(idx, mult) => {
                    for (c, lc) in self.linear.iter().enumerate() {
                        self.sums[c] -= lc.coeffs[idx] * mult as f64;
                    }
                    self.cardinality -= mult as u64;
                    self.current[idx] = 0;
                }
                Step::Enter(idx, mult) => {
                    self.current[idx] = mult;
                    self.cardinality += mult as u64;
                    for (c, lc) in self.linear.iter().enumerate() {
                        self.sums[c] += lc.coeffs[idx] * mult as f64;
                    }
                    // LIFO: the undo runs after the whole subtree below.
                    work.push(Step::Undo(idx, mult));
                    work.push(Step::Visit(idx + 1));
                }
                Step::Visit(idx) => {
                    self.nodes += 1;
                    if self.nodes > self.opts.max_nodes {
                        self.aborted = true;
                        return;
                    }
                    // Deadline check every 256 nodes: cheap relative to the
                    // per-node work, frequent enough that a 10 ms budget
                    // overshoots by well under its own length.
                    if self.nodes.is_multiple_of(256) && self.opts.budget.expired() {
                        self.aborted = true;
                        return;
                    }
                    if self.prune_subtree(idx) {
                        continue;
                    }
                    if idx == n {
                        // A leaf is a complete multiplicity assignment.
                        if !self.opts.prune
                            || (self.cardinality >= self.bounds.lower
                                && self.cardinality <= self.bounds.upper.unwrap_or(u64::MAX))
                        {
                            self.record_if_feasible();
                        }
                        continue;
                    }
                    // Push high multiplicities first so the pop order tries
                    // mult = 0 first, exactly like the recursive loop did.
                    for mult in (0..=max_mult).rev() {
                        work.push(Step::Enter(idx, mult));
                    }
                }
            }
        }
    }
}

/// Enumerates packages for a candidate view.
pub fn enumerate(view: &CandidateView, opts: EnumerationOptions) -> PbResult<EnumerationOutcome> {
    // pb-lint: allow(time-containment) — stats clock only: stamps the
    // outcome's elapsed_ms; pruning deadlines go through the budget.
    let start = std::time::Instant::now();
    let prune = opts.prune;
    let outcome = |searcher: Option<Searcher<'_>>, complete: bool| {
        let (packages, nodes, feasible_found) = match searcher {
            Some(s) => (s.best, s.nodes, s.feasible),
            None => (Vec::new(), 0, 0),
        };
        EnumerationOutcome {
            packages,
            complete,
            nodes,
            feasible_found,
            stats: EvalStats {
                strategy: if prune {
                    StrategyUsed::PrunedEnumeration
                } else {
                    StrategyUsed::Exhaustive
                },
                candidates: view.candidate_count(),
                nodes,
                iterations: feasible_found,
                cold_solves: 0,
                elapsed: start.elapsed(),
            },
        }
    };
    if opts.budget.expired() {
        // Bail before Searcher setup: linearizing every constraint reads
        // all term columns (through the buffer pool when the view is
        // paged), which an already-expired budget must not pay for.
        return Ok(outcome(None, false));
    }
    if view.candidate_count() > 64 && !opts.prune {
        // 2^64 leaves is never going to finish; refuse instead of spinning.
        return Err(PbError::Unsupported(format!(
            "exhaustive enumeration over {} candidates is intractable; use pruning, the solver or local search",
            view.candidate_count()
        )));
    }
    let mut searcher = Searcher::new(view, opts);
    searcher.sums = vec![0.0; searcher.linear.len()];
    if searcher.bounds.is_empty() {
        // Contradictory cardinality bounds: provably no valid package.
        return Ok(outcome(None, true));
    }
    searcher.search();
    let complete = !searcher.aborted;
    Ok(outcome(Some(searcher), complete))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::spec_for;
    use datagen::{recipes, uniform_table, Seed};
    use lp_solver::SolverConfig;

    const SMALL_QUERY: &str = "SELECT PACKAGE(T) AS P FROM t T \
        SUCH THAT COUNT(*) = 3 AND SUM(P.w) BETWEEN 30 AND 40 MAXIMIZE SUM(P.v)";

    #[test]
    fn pruned_and_exhaustive_agree_on_the_optimum() {
        // The top five, ties and their order included: pruning only cuts
        // branches none of whose packages would be kept.
        let t = uniform_table("t", 14, 5.0, 20.0, Seed(1));
        for query in [
            SMALL_QUERY,
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) >= 2 AND SUM(P.w) >= 30 MINIMIZE SUM(P.v) - SUM(P.w) / 4 - 1000",
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) <= 3 MAXIMIZE COUNT(*)",
        ] {
            let spec = spec_for(&t, query);
            let run = |prune| {
                let opts = EnumerationOptions {
                    prune,
                    keep: 5,
                    ..Default::default()
                };
                enumerate(spec.view(), opts).unwrap()
            };
            let (pruned, exhaustive) = (run(true), run(false));
            assert!(pruned.complete && exhaustive.complete);
            assert_eq!(pruned.packages.len(), 5, "{query}");
            assert_eq!(pruned.packages, exhaustive.packages, "{query}");
            assert!(
                pruned.nodes < exhaustive.nodes,
                "pruning should expand fewer nodes ({} vs {})",
                pruned.nodes,
                exhaustive.nodes
            );
        }
    }

    #[test]
    fn pruning_matches_the_ilp_optimum() {
        let t = recipes(18, Seed(2));
        let q = "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 2500 \
                 MAXIMIZE SUM(P.protein)";
        let spec = spec_for(&t, q);
        let enumerated = enumerate(spec.view(), EnumerationOptions::default()).unwrap();
        let ilp = crate::ilp::solve_ilp(
            spec.view(),
            &SolverConfig::default(),
            1,
            &Budget::unlimited(),
            crate::par::ParExec::sequential(),
        )
        .unwrap();
        let a = enumerated.packages.first().map(|(_, o)| o.unwrap());
        let b = ilp.packages.first().map(|(_, o)| o.unwrap());
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6, "enumeration {x} vs ilp {y}"),
            (None, None) => {}
            other => panic!("strategies disagree on feasibility: {other:?}"),
        }
    }

    #[test]
    fn counts_feasible_packages_without_objective() {
        let t = uniform_table("t", 10, 5.0, 10.0, Seed(3));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2");
        let out = enumerate(
            spec.view(),
            EnumerationOptions {
                keep: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.feasible_found, 45); // C(10,2)
        assert_eq!(out.packages.len(), 45);
        assert!(out.complete);
    }

    #[test]
    fn node_budget_aborts_cleanly() {
        let t = uniform_table("t", 30, 5.0, 10.0, Seed(4));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 5");
        let out = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: true,
                max_nodes: 1000,
                keep: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.complete);
        assert!(out.nodes <= 1001);
    }

    #[test]
    fn exhaustive_over_large_inputs_is_refused() {
        let t = uniform_table("t", 80, 5.0, 10.0, Seed(5));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2");
        assert!(matches!(
            enumerate(
                spec.view(),
                EnumerationOptions {
                    prune: false,
                    ..Default::default()
                }
            ),
            Err(PbError::Unsupported(_))
        ));
    }

    #[test]
    fn contradictory_bounds_short_circuit() {
        let t = uniform_table("t", 25, 5.0, 10.0, Seed(6));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 3",
        );
        let out = enumerate(spec.view(), EnumerationOptions::default()).unwrap();
        assert!(out.packages.is_empty());
        assert!(out.complete);
        assert_eq!(out.nodes, 0);
    }

    #[test]
    fn repeat_multiplicities_are_enumerated() {
        let t = uniform_table("t", 6, 5.0, 10.0, Seed(7));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T REPEAT 2 SUCH THAT COUNT(*) = 4 MAXIMIZE SUM(P.v)",
        );
        let out = enumerate(spec.view(), EnumerationOptions::default()).unwrap();
        let (best, _) = out.packages.first().unwrap();
        assert_eq!(best.cardinality(), 4);
        // The optimum should repeat the highest-value tuples.
        assert!(best.max_multiplicity() <= 2);
    }

    #[test]
    fn nan_objectives_rank_last_not_first() {
        // Regression: the old `partial_cmp(..).unwrap_or(Equal)` let a NaN
        // objective float anywhere in the top-k; naive `total_cmp` would
        // crown it the maximum (NaN > +inf in the total order). It must rank
        // with the un-evaluable packages, i.e. last.
        use minidb::{tuple, ColumnType, Schema, Table};
        let mut t = Table::new(
            "t",
            Schema::build(&[("w", ColumnType::Float), ("v", ColumnType::Float)]),
        );
        t.insert(tuple!(1.0, 5.0)).unwrap();
        t.insert(tuple!(1.0, f64::NAN)).unwrap();
        t.insert(tuple!(1.0, 7.0)).unwrap();
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 1 MAXIMIZE SUM(P.v)",
        );
        let out = enumerate(
            spec.view(),
            EnumerationOptions {
                keep: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.packages.len(), 3);
        assert_eq!(out.packages[0].1, Some(7.0), "finite optimum must lead");
        assert_eq!(out.packages[1].1, Some(5.0));
        assert!(out.packages[2].1.unwrap().is_nan(), "NaN ranks last");
    }

    #[test]
    fn avg_constraints_prune_soundly() {
        // AVG-vs-constant atoms now contribute partial-sum rows (via the
        // multiply-through-by-COUNT rewrite); the pruned search must still
        // agree with the exhaustive one.
        let t = uniform_table("t", 12, 5.0, 10.0, Seed(8));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2 AND AVG(P.w) <= 7 MAXIMIZE SUM(P.v)",
        );
        let pruned = enumerate(spec.view(), EnumerationOptions::default()).unwrap();
        let full = enumerate(
            spec.view(),
            EnumerationOptions {
                prune: false,
                ..Default::default()
            },
        )
        .unwrap();
        for (p, _) in &pruned.packages {
            assert!(spec.is_valid(p).unwrap());
        }
        match (pruned.packages.first(), full.packages.first()) {
            (None, None) => {}
            (Some((_, a)), Some((_, b))) => {
                assert!(
                    (a.unwrap() - b.unwrap()).abs() < 1e-9,
                    "pruning changed the AVG optimum"
                );
            }
            other => panic!("pruning changed feasibility: {other:?}"),
        }
    }

    #[test]
    fn non_linear_formulas_still_enumerate_correctly() {
        // AVG vs AVG is genuinely non-linear, so no partial-sum pruning
        // applies, but the enumeration must still validate exactly.
        let t = uniform_table("t", 12, 5.0, 10.0, Seed(8));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T \
             SUCH THAT COUNT(*) = 2 AND AVG(P.w) <= AVG(P.v) + 10 MAXIMIZE SUM(P.v)",
        );
        let out = enumerate(spec.view(), EnumerationOptions::default()).unwrap();
        assert!(
            !out.packages.is_empty(),
            "every 2-subset satisfies the slack AVG bound"
        );
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }
}
