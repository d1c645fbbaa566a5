//! Query results and evaluation statistics.

use std::fmt;
use std::time::Duration;

use minidb::Table;

use crate::package::Package;

/// Which strategy actually produced a result (the `Auto` policy resolves to
/// one of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyUsed {
    /// ILP translation + branch and bound.
    Ilp,
    /// Enumeration with cardinality/partial-sum pruning.
    PrunedEnumeration,
    /// Exhaustive enumeration.
    Exhaustive,
    /// Greedy construction + local search.
    LocalSearch,
    /// Pure greedy construction with feasibility repair.
    Greedy,
    /// A portfolio race across several solvers (the stats aggregate every
    /// worker; the packages come from the winning worker).
    Portfolio,
    /// Partition → sketch → refine (the stats aggregate the greedy baseline,
    /// the sketch ILP and every per-partition sub-ILP).
    SketchRefine,
    /// Hierarchical sketch→refine over a partition tree (the stats
    /// aggregate the greedy baseline, every per-layer sketch ILP of the
    /// descent and every leaf sub-ILP).
    ProgressiveShading,
}

impl fmt::Display for StrategyUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyUsed::Ilp => "ilp",
            StrategyUsed::PrunedEnumeration => "pruned-enumeration",
            StrategyUsed::Exhaustive => "exhaustive",
            StrategyUsed::LocalSearch => "local-search",
            StrategyUsed::Greedy => "greedy",
            StrategyUsed::Portfolio => "portfolio",
            StrategyUsed::SketchRefine => "sketch-refine",
            StrategyUsed::ProgressiveShading => "progressive-shading",
        };
        write!(f, "{s}")
    }
}

/// Statistics about one query evaluation.
#[derive(Debug, Clone)]
pub struct EvalStats {
    /// Strategy that produced the result.
    pub strategy: StrategyUsed,
    /// Number of candidate tuples after base constraints.
    pub candidates: usize,
    /// Branch-and-bound nodes (ILP), search nodes expanded (enumeration),
    /// or accepted moves (local search, greedy repair). The sketch family
    /// sums its greedy floor's with every sketch and sub-ILP's, a portfolio
    /// race its workers'.
    pub nodes: u64,
    /// Simplex iterations (ILP), feasible packages found (enumeration), or
    /// the moves the local search or greedy repair considered — whether
    /// scored or ruled out by a chunk's bound (`view::MoveScan::rules_out`).
    /// Summed like `nodes`.
    pub iterations: u64,
    /// Branch-and-bound LPs that fell back to the cold two-phase start
    /// (`lp_solver::Solution::cold_solves`), summed wherever `iterations`
    /// sums simplex iterations; zero for strategies that solve no LP.
    pub cold_solves: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl EvalStats {
    /// Stats placeholder for strategies that track nothing yet.
    pub fn empty(strategy: StrategyUsed) -> Self {
        EvalStats {
            strategy,
            candidates: 0,
            nodes: 0,
            iterations: 0,
            cold_solves: 0,
            elapsed: Duration::ZERO,
        }
    }
}

/// The result of evaluating a package query: zero or more valid packages,
/// best first when the query has an objective.
#[derive(Debug, Clone)]
pub struct PackageResult {
    /// Valid packages, best first.
    pub packages: Vec<Package>,
    /// Objective value per package (None when the query has no objective).
    pub objectives: Vec<Option<f64>>,
    /// Whether the strategy proves optimality of the first package
    /// (ILP/enumeration do, local search does not).
    pub optimal: bool,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl PackageResult {
    /// An empty (infeasible or not-found) result.
    pub fn empty(stats: EvalStats) -> Self {
        PackageResult {
            packages: Vec::new(),
            objectives: Vec::new(),
            optimal: false,
            stats,
        }
    }

    /// Builds a result from `(package, objective)` pairs.
    pub fn from_pairs(pairs: Vec<(Package, Option<f64>)>, optimal: bool, stats: EvalStats) -> Self {
        let (packages, objectives) = pairs.into_iter().unzip();
        PackageResult {
            packages,
            objectives,
            optimal,
            stats,
        }
    }

    /// The best package, if any was found.
    pub fn best(&self) -> Option<&Package> {
        self.packages.first()
    }

    /// The best objective value, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.objectives.first().copied().flatten()
    }

    /// True when no valid package was found.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Number of packages returned.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// Human-readable report: the best package's rows plus summary lines.
    pub fn describe(&self, table: &Table) -> String {
        let mut out = String::new();
        match self.best() {
            None => out.push_str("no valid package found\n"),
            Some(p) => {
                out.push_str(&p.render(table));
                if let Some(obj) = self.best_objective() {
                    out.push_str(&format!("objective value: {obj:.3}\n"));
                }
            }
        }
        out.push_str(&format!(
            "strategy: {} ({} candidates, {} nodes, {} iterations, {:.3} ms){}\n",
            self.stats.strategy,
            self.stats.candidates,
            self.stats.nodes,
            self.stats.iterations,
            self.stats.elapsed.as_secs_f64() * 1e3,
            if self.optimal { ", optimal" } else { "" }
        ));
        if self.len() > 1 {
            out.push_str(&format!("({} packages returned)\n", self.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{tuple, ColumnType, Schema, TupleId};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::build(&[("name", ColumnType::Text), ("v", ColumnType::Float)]),
        );
        t.insert(tuple!("a", 1.0)).unwrap();
        t.insert(tuple!("b", 2.0)).unwrap();
        t
    }

    #[test]
    fn empty_result_reports_no_package() {
        let r = PackageResult::empty(EvalStats::empty(StrategyUsed::Ilp));
        assert!(r.is_empty());
        assert!(r.best().is_none());
        assert!(r.describe(&table()).contains("no valid package"));
    }

    #[test]
    fn from_pairs_orders_and_describes() {
        let t = table();
        let p1 = Package::from_ids([TupleId(0), TupleId(1)]);
        let p2 = Package::from_ids([TupleId(1)]);
        let r = PackageResult::from_pairs(
            vec![(p1, Some(3.0)), (p2, Some(2.0))],
            true,
            EvalStats::empty(StrategyUsed::PrunedEnumeration),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.best_objective(), Some(3.0));
        let text = r.describe(&t);
        assert!(text.contains("objective value: 3.000"));
        assert!(text.contains("pruned-enumeration"));
        assert!(text.contains("optimal"));
        assert!(text.contains("2 packages"));
    }
}
