//! Progressive shading: what a partition *tree* adds to the sketch family.
//!
//! The family's pipeline ([`crate::sketch_refine`]) puts one integer variable
//! per leaf partition into its sketch ILP. At the default partition size of
//! 64, a 10^7-candidate view sketches over ~156 000 variables — the sketch
//! itself becomes the monolithic problem it was meant to avoid. Progressive
//! Shading (Mai, Abouzied, Brucato, Haas, Meliou: "Scaling Package Queries to
//! a Billion Tuples via Hierarchical Partitioning and Customized
//! Optimization", 2023) removes that bottleneck with a partition *tree*:
//!
//! 1. **Grow** ([`crate::partition::build_partition_tree`]): the flat leaf
//!    partitioning is grouped recursively — the same size-bounded k-d median
//!    split, applied to leaf centroids — until the coarsest layer has at most
//!    [`crate::solver::SolveOptions::shade_fanout`] nodes. Every node carries
//!    its subtree's exact candidate weight and mean-coefficient centroid.
//! 2. **Descend** (`descend`, this module's one stage): sketch the coarsest
//!    layer's representatives (an ILP with ≤ `shade_fanout` variables), keep
//!    only the nodes the sketch draws from, expand them into their children,
//!    and re-sketch — layer by layer down to a *shaded* set of leaves.
//!    Unselected subtrees are never expanded, so every intermediate ILP stays
//!    small *regardless of `n`*.
//!
//! Everything before and after is the shared pipeline, verbatim: the greedy
//! floor, the leaf means, the leaf sketch (over the shaded leaves only), the
//! refine loop with its failed-partition backtracking, warm-hinted
//! sub-ILPs and greedy degradation under deadline pressure. A tree
//! with no layers shades every leaf, which makes the flat
//! [`crate::sketch_refine::SketchRefineSolver`] the zero-layer case of this
//! solver, bit for bit (`tests::few_leaves_degenerate_to_the_flat_sketch_path`).
//! The tree is memoized next to the flat partitionings (see
//! [`crate::cache::PartitionMemo`]), so repeated queries — and portfolio
//! workers racing over clones of one view — grow it once. With
//! `shade_leaf_size` left equal to `sketch_partition_size` (the default), the
//! leaf partitioning *is* the flat solver's partitioning — one `Arc`.
//!
//! Determinism: layer means are aggregated in ascending child order, the
//! descent's active sets are sorted after every expansion, and all chunked
//! scans go through [`crate::par::ParExec`]'s fixed-width fan-out — the
//! solve is bit-identical at every thread count and storage mode
//! (`tests/parallel_determinism.rs`, `tests/paged_determinism.rs`).

use crate::partition::{Partition, TreeNode};
use crate::result::{EvalStats, StrategyUsed};
use crate::sketch_refine::{solve_sketch, solve_sketch_family, Linearized};
use crate::solver::{SolveOptions, SolveOutcome, Solver};
use crate::view::CandidateView;
use crate::PbResult;

/// Partition-tree descent evaluation (see the module docs).
///
/// Requires a linearizable query, like [`crate::sketch_refine::SketchRefineSolver`];
/// non-linearizable queries get [`crate::error::PbError::Unsupported`] so the
/// solver drops out of a portfolio race cleanly. Returns a single package
/// (`num_packages` is a documented no-op here, like the greedy solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressiveShadingSolver;

impl Solver for ProgressiveShadingSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::ProgressiveShading
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        solve_sketch_family(self.strategy(), view, opts)
    }
}

/// Narrows the leaf partitions `parts` to the shaded ones: sketch the
/// coarsest of `layers` (finest first, as [`crate::partition::PartitionTree::layers`]
/// has them), expand only the nodes the sketch draws from, re-sketch one
/// layer down, and so on to a sorted set of leaf ids. With no layers every
/// leaf is shaded and no ILP is solved — the flat sketch. `leaf_means[r][p]`
/// is leaf `p`'s representative for coefficient row `r` (a row per
/// constraint, then the objective's when the query has one). `Ok(None)`
/// means a layer sketch was infeasible or the budget ran out; an empty shade
/// means a layer sketch drew nothing.
pub(crate) fn descend(
    q: &Linearized<'_>,
    layers: &[Vec<TreeNode>],
    parts: &[Partition],
    leaf_means: &[Vec<f64>],
    stats: &mut EvalStats,
) -> PbResult<Option<Vec<usize>>> {
    // Per-layer representative means, rolled up from the leaf means: a
    // node's mean is the weight-proportional mean of its children's
    // (accumulated in ascending child order, then one division —
    // deterministic), laid out as `layer_means[layer][row][node]`.
    let mut weights: Vec<f64> = parts.iter().map(|p| p.members.len() as f64).collect();
    let mut layer_means: Vec<Vec<Vec<f64>>> = Vec::with_capacity(layers.len());
    for layer in layers {
        if q.opts.budget.expired() {
            return Ok(None);
        }
        let rolled: Vec<Vec<f64>> = layer_means
            .last()
            .map_or(leaf_means, Vec::as_slice)
            .iter()
            .map(|below| {
                layer
                    .iter()
                    .map(|node| {
                        let total: f64 = node.children.iter().map(|&c| weights[c] * below[c]).sum();
                        total / node.weight as f64
                    })
                    .collect()
            })
            .collect();
        weights = layer.iter().map(|node| node.weight as f64).collect();
        layer_means.push(rolled);
    }

    let mut active: Vec<usize> = (0..layers.last().map_or(parts.len(), Vec::len)).collect();
    for (layer, means) in layers.iter().zip(&layer_means).rev() {
        if q.opts.budget.expired() {
            return Ok(None);
        }
        let capacities = active.iter().map(|&i| layer[i].capacity(q.view)).collect();
        let Some(drawn) = solve_sketch(q, &active, capacities, means, stats)? else {
            return Ok(None);
        };
        active = active
            .iter()
            .zip(&drawn)
            .filter(|&(_, &count)| count > 0)
            .flat_map(|(&i, _)| layer[i].children.iter().copied())
            .collect();
        active.sort_unstable();
        if active.is_empty() {
            break;
        }
    }
    Ok(Some(active))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PbError;
    use crate::package::Package;
    use crate::par::ParExec;
    use crate::sketch_refine::SketchRefineSolver;
    use crate::solver::GreedySolver;
    use crate::spec::tests::spec_for;
    use datagen::{recipes, Seed};

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    /// Options forcing a genuinely multi-layer tree at test-sized `n`.
    fn deep_opts() -> SolveOptions {
        SolveOptions {
            shade_leaf_size: 8,
            shade_fanout: 4,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn shaded_packages_are_valid_and_beat_or_match_greedy() {
        let t = recipes(3_000, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = deep_opts();
        // ~470 gluten-free leaves at size 8 under fanout 4: several layers.
        let out = ProgressiveShadingSolver.solve(spec.view(), &opts).unwrap();
        assert_eq!(out.stats.strategy, StrategyUsed::ProgressiveShading);
        assert!(!out.optimal, "shading is approximate by design");
        let (p, obj) = out.packages.first().expect("a meal plan exists at n=3000");
        assert!(spec.is_valid(p).unwrap());
        let greedy = GreedySolver.solve(spec.view(), &opts).unwrap();
        if let Some((_, g)) = greedy.packages.first() {
            assert!(obj.unwrap() + 1e-9 >= g.unwrap(), "worse than greedy");
        }
    }

    #[test]
    fn descent_actually_runs_over_a_multi_layer_tree() {
        let t = recipes(3_000, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = deep_opts();
        let tree = spec
            .view()
            .partition_tree(
                opts.shade_leaf_size,
                opts.shade_fanout,
                opts.seed,
                &opts.budget,
                opts.par,
            )
            .expect("unlimited budget grows the tree");
        assert!(tree.height() >= 2, "test must exercise a real descent");
    }

    #[test]
    fn non_linearizable_queries_are_rejected_with_unsupported() {
        let t = recipes(100, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 3 AND AVG(P.calories) >= AVG(P.protein)",
        );
        let err = ProgressiveShadingSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, PbError::Unsupported(_)));
    }

    #[test]
    fn empty_candidate_sets_yield_an_empty_outcome() {
        let t = recipes(50, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 1",
        );
        let out = ProgressiveShadingSolver
            .solve(spec.view(), &SolveOptions::default())
            .unwrap();
        assert!(out.packages.is_empty());
        assert!(!out.optimal);
    }

    #[test]
    fn expired_budgets_return_the_anytime_result_without_error() {
        let t = recipes(2_000, Seed(4));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions {
            budget: crate::budget::Budget::with_limit(std::time::Duration::ZERO),
            ..deep_opts()
        };
        let out = ProgressiveShadingSolver.solve(spec.view(), &opts).unwrap();
        assert!(!out.optimal);
        for (p, _) in &out.packages {
            assert!(spec.is_valid(p).unwrap());
        }
    }

    #[test]
    fn shading_is_thread_count_invariant() {
        let t = recipes(3_000, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let base = deep_opts();
        let sequential = ProgressiveShadingSolver.solve(spec.view(), &base).unwrap();
        let threaded = ProgressiveShadingSolver
            .solve(
                spec.view(),
                &SolveOptions {
                    par: ParExec::new(4),
                    ..deep_opts()
                },
            )
            .unwrap();
        assert_eq!(sequential.packages, threaded.packages);
        assert_eq!(sequential.stats.nodes, threaded.stats.nodes);
        assert_eq!(sequential.stats.iterations, threaded.stats.iterations);
    }

    #[test]
    fn few_leaves_degenerate_to_the_flat_sketch_path() {
        // Leaves fit under the fanout: no layers, every leaf shaded, the
        // result must still be a valid package beating greedy's floor.
        let t = recipes(300, Seed(6));
        let spec = spec_for(&t, MEAL_QUERY);
        let opts = SolveOptions::default(); // leaf 64 / fanout 64 → height 0
        let tree = spec
            .view()
            .partition_tree(
                opts.shade_leaf_size,
                opts.shade_fanout,
                opts.seed,
                &opts.budget,
                opts.par,
            )
            .unwrap();
        assert_eq!(tree.height(), 0);
        let out = ProgressiveShadingSolver.solve(spec.view(), &opts).unwrap();
        let (p, _) = out.packages.first().expect("feasible at n=300");
        assert!(spec.is_valid(p).unwrap());

        // The subsumption itself: a fanout no leaf count reaches forces zero
        // layers at any `n`, and the tree solver must then *be* the flat one
        // — packages, objective bits and LP counters — on every family.
        for scenario in datagen::scenarios() {
            let table = (scenario.build)(scenario.gauntlet_sizes[0], Seed(20140901));
            for query in &scenario.queries {
                for leaf in [64, 16] {
                    let mut opts = SolveOptions {
                        sketch_partition_size: leaf,
                        shade_leaf_size: leaf,
                        shade_fanout: 1 << 30,
                        ..SolveOptions::default()
                    };
                    opts.solver.max_nodes = 4_000;
                    let run = |solver: &dyn Solver| {
                        let spec = spec_for(&table, &query.text);
                        let out = solver.solve(spec.view(), &opts).unwrap();
                        let bits = |(p, o): (Package, Option<f64>)| (p, o.map(f64::to_bits));
                        let packages: Vec<_> = out.packages.into_iter().map(bits).collect();
                        (packages, out.stats.nodes, out.stats.iterations)
                    };
                    assert_eq!(
                        run(&SketchRefineSolver),
                        run(&ProgressiveShadingSolver),
                        "{}/{} leaf {leaf}: (packages, nodes, iterations)",
                        scenario.name,
                        query.label
                    );
                }
            }
        }
    }
}
