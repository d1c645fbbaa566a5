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
//!
//! [`EnumerationSolver`] is the strategy's one entry point, the
//! [`Solver`] impl. It reads the node cap (`max_enumeration_nodes`), the
//! packages to keep ([`SolveOptions::keep`]) and the budget from
//! [`SolveOptions`], keeps packages under the one rank
//! `solver::keep_ranked`, and counts the search nodes it expanded
//! in [`EvalStats::nodes`] and the feasible packages it found in
//! [`EvalStats::iterations`]. `optimal` means the whole (pruned) space was
//! explored.

use lp_solver::ConstraintOp;
use paql::ObjectiveDirection;

use crate::error::PbError;
use crate::ilp::{linearize, LinearConstraint};
use crate::package::Package;
use crate::pruning::{derive_bounds, CardinalityBounds};
use crate::result::{EvalStats, StrategyUsed};
use crate::solver::{keep_ranked, SolveOptions, SolveOutcome, Solver};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// Generate-and-validate enumeration, with or without the Section 4.1
/// pruning rules (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct EnumerationSolver {
    /// Apply cardinality and partial-sum pruning.
    pub prune: bool,
}

struct Searcher<'v> {
    view: &'v CandidateView,
    opts: &'v SolveOptions,
    prune: bool,
    bounds: CardinalityBounds,
    linear: Vec<LinearConstraint>,
    /// The row of `linear` that bounds a linear objective, if any.
    objective_row: Option<usize>,
    /// Per-constraint suffix arrays: the maximum / minimum additional
    /// contribution obtainable from candidates `i..n`.
    suffix_max: Vec<Vec<f64>>,
    suffix_min: Vec<Vec<f64>>,
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
    fn new(view: &'v CandidateView, prune: bool, opts: &'v SolveOptions) -> Self {
        let n = view.candidate_count();
        let r = view.max_multiplicity() as f64;
        let capacity = n as u64 * view.max_multiplicity() as u64;
        let bounds = if prune {
            derive_bounds(view).clamp_to(capacity)
        } else {
            CardinalityBounds::unbounded().clamp_to(capacity)
        };
        // Linear constraints power the partial-sum bound; they are only an
        // accelerator, feasibility is always re-checked exactly.
        let (mut linear, mut objective_row) = (Vec::new(), None);
        if prune {
            let (rows, objective_coeffs) = linearize(view).write(view);
            linear = rows.unwrap_or_default();
            // The objective row starts unbounded; kept packages bound it.
            let (op, bound) = match view.direction() {
                ObjectiveDirection::Minimize => (ConstraintOp::Le, f64::INFINITY),
                ObjectiveDirection::Maximize => (ConstraintOp::Ge, f64::NEG_INFINITY),
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
            opts,
            prune,
            bounds,
            sums: vec![0.0; linear.len()],
            linear,
            objective_row,
            suffix_max,
            suffix_min,
            current: vec![0; n],
            cardinality: 0,
            nodes: 0,
            feasible: 0,
            best: Vec::new(),
            best_linear: Vec::new(),
            aborted: false,
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
        // Without an objective every package ties, so the first `keep`
        // feasible ones are kept, in search order.
        let (direction, keep) = (self.view.direction(), self.opts.keep());
        let package = || state.to_package();
        let Some(pos) = keep_ranked(&mut self.best, keep, direction, objective, package) else {
            return;
        };
        if let Some(o) = self.objective_row {
            self.best_linear.insert(pos, self.sums[o]);
            self.best_linear.truncate(keep);
            self.bound_the_objective(o);
        }
    }

    /// Once `keep` packages are kept and the last has an objective value,
    /// bounds objective row `o` by that package's value on the row, moved
    /// outward by a slack that covers how far rounding can move a package's
    /// exact objective from its row value (`Σ r·|c|` is the suffix spread).
    fn bound_the_objective(&mut self, o: usize) {
        let kept = self.best.len();
        if kept < self.opts.keep() || self.best[kept - 1].1.is_none_or(|x| x.is_nan()) {
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
        if !self.prune {
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
                    if self.nodes > self.opts.max_enumeration_nodes {
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
                        if !self.prune
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

impl Solver for EnumerationSolver {
    fn strategy(&self) -> StrategyUsed {
        if self.prune {
            StrategyUsed::PrunedEnumeration
        } else {
            StrategyUsed::Exhaustive
        }
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps the
        // outcome's elapsed time; pruning deadlines go through the budget.
        let start = std::time::Instant::now();
        if opts.budget.expired() {
            // Bail before Searcher setup: linearizing every constraint reads
            // all term columns (through the buffer pool when the view is
            // paged), which an already-expired budget must not pay for.
            return Ok(SolveOutcome::empty(
                self.strategy(),
                view.candidate_count(),
                false,
            ));
        }
        if view.candidate_count() > 64 && !self.prune {
            // 2^64 leaves is never going to finish; refuse instead of spinning.
            return Err(PbError::Unsupported(format!(
                "exhaustive enumeration over {} candidates is intractable; use pruning, the solver or local search",
                view.candidate_count()
            )));
        }
        let mut searcher = Searcher::new(view, self.prune, opts);
        // Contradictory cardinality bounds prove that no package is valid.
        if !searcher.bounds.is_empty() {
            searcher.search();
        }
        Ok(SolveOutcome {
            packages: searcher.best,
            optimal: !searcher.aborted,
            stats: EvalStats {
                strategy: self.strategy(),
                candidates: view.candidate_count(),
                nodes: searcher.nodes,
                iterations: searcher.feasible,
                cold_solves: 0,
                elapsed: start.elapsed(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::spec_for;
    use datagen::{recipes, uniform_table, Seed};

    /// Enumerates `view`, keeping `keep` packages, at the default options.
    fn enumerate(view: &CandidateView, prune: bool, keep: usize) -> PbResult<SolveOutcome> {
        let opts = SolveOptions {
            num_packages: keep,
            ..SolveOptions::default()
        };
        EnumerationSolver { prune }.solve(view, &opts)
    }

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
            let run = |prune| enumerate(spec.view(), prune, 5).unwrap();
            let (pruned, exhaustive) = (run(true), run(false));
            assert!(pruned.optimal && exhaustive.optimal);
            assert_eq!(pruned.packages.len(), 5, "{query}");
            assert_eq!(pruned.packages, exhaustive.packages, "{query}");
            assert!(
                pruned.stats.nodes < exhaustive.stats.nodes,
                "pruning should expand fewer nodes ({} vs {})",
                pruned.stats.nodes,
                exhaustive.stats.nodes
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
        let enumerated = enumerate(spec.view(), true, 1).unwrap();
        let ilp = crate::ilp::IlpSolver
            .solve(spec.view(), &SolveOptions::default())
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
        let out = enumerate(spec.view(), true, 100).unwrap();
        assert_eq!(out.stats.iterations, 45); // C(10,2)
        assert_eq!(out.packages.len(), 45);
        assert!(out.optimal);
    }

    #[test]
    fn node_budget_aborts_cleanly() {
        let t = uniform_table("t", 30, 5.0, 10.0, Seed(4));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 5");
        let opts = SolveOptions {
            max_enumeration_nodes: 1000,
            ..SolveOptions::default()
        };
        let out = EnumerationSolver { prune: true }
            .solve(spec.view(), &opts)
            .unwrap();
        assert!(!out.optimal);
        assert!(out.stats.nodes <= 1001);
    }

    #[test]
    fn exhaustive_over_large_inputs_is_refused() {
        let t = uniform_table("t", 80, 5.0, 10.0, Seed(5));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2");
        assert!(matches!(
            enumerate(spec.view(), false, 1),
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
        let out = enumerate(spec.view(), true, 1).unwrap();
        assert!(out.packages.is_empty());
        assert!(out.optimal);
        assert_eq!(out.stats.nodes, 0);
    }

    #[test]
    fn repeat_multiplicities_are_enumerated() {
        let t = uniform_table("t", 6, 5.0, 10.0, Seed(7));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T REPEAT 2 SUCH THAT COUNT(*) = 4 MAXIMIZE SUM(P.v)",
        );
        let out = enumerate(spec.view(), true, 1).unwrap();
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
        let out = enumerate(spec.view(), true, 3).unwrap();
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
        let pruned = enumerate(spec.view(), true, 1).unwrap();
        let full = enumerate(spec.view(), false, 1).unwrap();
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
        let out = enumerate(spec.view(), true, 1).unwrap();
        assert!(
            !out.packages.is_empty(),
            "every 2-subset satisfies the slack AVG bound"
        );
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }
}
