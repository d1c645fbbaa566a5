//! Progressive shading: hierarchical sketch→refine for 10^6+ candidates.
//!
//! The flat sketch→refine solver ([`crate::sketch_refine`]) puts one integer
//! variable per partition into its sketch ILP. At the default partition size
//! of 64, a 10^7-candidate view sketches over ~156 000 variables — the
//! sketch itself becomes the monolithic problem it was meant to avoid.
//! Progressive Shading (Mai, Abouzied, Brucato, Haas, Meliou: "Scaling
//! Package Queries to a Billion Tuples via Hierarchical Partitioning and
//! Customized Optimization", 2023) removes that bottleneck with a partition
//! *tree*:
//!
//! 1. **Grow** ([`crate::partition::build_partition_tree`]): the flat leaf
//!    partitioning is grouped recursively — the same size-bounded k-d median
//!    split, applied to leaf centroids — until the coarsest layer has at most
//!    [`crate::solver::SolveOptions::shade_fanout`] nodes. Every node carries
//!    its subtree's exact candidate weight and mean-coefficient centroid.
//! 2. **Descend**: sketch the coarsest layer's representatives (an ILP with
//!    ≤ `shade_fanout` variables), keep only the nodes the sketch draws
//!    from, expand them into their children, and re-sketch — layer by layer
//!    down to the leaves. Unselected subtrees are never expanded, so every
//!    intermediate ILP stays small *regardless of `n`*.
//! 3. **Refine**: the shaded leaves run the flat solver's refinement
//!    verbatim — `sketch_refine`'s `refine_with_backtracking` with its
//!    failed-partition backtracking, warm-hinted and memoized sub-ILPs, and
//!    greedy degradation under deadline pressure.
//!
//! Like the flat solver, the greedy baseline runs first and is only replaced
//! by a strictly better shaded package, so the quality floor is
//! [`crate::solver::GreedySolver`]'s at every budget. The tree is memoized
//! next to the flat partitionings (see [`crate::cache::PartitionMemo`]), so
//! repeated queries — and portfolio workers racing over clones of one view —
//! grow it once. With `shade_leaf_size` left equal to
//! `sketch_partition_size` (the default), the leaf partitioning *is* the
//! flat solver's partitioning — one `Arc`, shared sub-ILP memo entries.
//!
//! Determinism: layer means are aggregated in ascending child order, the
//! descent's active sets are sorted after every expansion, and all chunked
//! scans go through [`crate::par::ParExec`]'s fixed-width fan-out — the
//! solve is bit-identical at every thread count and storage mode
//! (`tests/parallel_determinism.rs`, `tests/paged_determinism.rs`).

use crate::error::PbError;
use crate::ilp::{linearize_formula, linearize_objective, LinearConstraint};
use crate::package::Package;
use crate::result::{EvalStats, StrategyUsed};
use crate::sketch_refine::{
    partition_means, refine_with_backtracking, solve_sketch, Counters, RefineCtx,
};
use crate::solver::{GreedySolver, SolveOptions, SolveOutcome, Solver};
use crate::view::{CandidateView, ViewState};
use crate::PbResult;

/// Partition-tree descent evaluation (see the module docs).
///
/// Requires a linearizable query, like [`crate::sketch_refine::SketchRefineSolver`];
/// non-linearizable queries get [`PbError::Unsupported`] so the solver drops
/// out of a portfolio race cleanly. Returns a single package (`num_packages`
/// is a documented no-op here, like the greedy solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressiveShadingSolver;

impl Solver for ProgressiveShadingSolver {
    fn strategy(&self) -> StrategyUsed {
        StrategyUsed::ProgressiveShading
    }

    fn solve(&self, view: &CandidateView, opts: &SolveOptions) -> PbResult<SolveOutcome> {
        // pb-lint: allow(time-containment) — stats clock only: stamps
        // elapsed; descent deadlines go through the budget.
        let start = std::time::Instant::now();
        let rows = linearize_formula(view).map_err(|r| {
            PbError::Unsupported(format!(
                "progressive shading requires a linearizable query: {r}"
            ))
        })?;
        let objective = linearize_objective(view).map_err(|r| {
            PbError::Unsupported(format!(
                "progressive shading requires a linearizable objective: {r}"
            ))
        })?;
        if view.candidate_count() == 0 {
            return Ok(SolveOutcome::empty(
                StrategyUsed::ProgressiveShading,
                0,
                false,
            ));
        }

        // Greedy baseline first: the anytime answer, and the floor the
        // shaded package must beat to be returned.
        let baseline = GreedySolver.solve(view, opts)?;
        let mut counters = Counters {
            nodes: baseline.stats.nodes,
            iterations: baseline.stats.iterations,
        };
        let mut best: Option<(Package, Option<f64>)> = baseline.packages.into_iter().next();

        if !opts.budget.expired() {
            let shaded = shade_and_refine(
                view,
                &rows,
                objective.as_ref().map(|o| o.coeffs.as_slice()),
                opts,
                &mut counters,
            )?;
            if let Some((package, obj)) = shaded {
                let direction = view.direction();
                let replace = match &best {
                    None => true,
                    Some((_, cur)) => Package::better_objective(direction, obj, *cur),
                };
                if replace {
                    best = Some((package, obj));
                }
            }
        }

        Ok(SolveOutcome {
            packages: best.into_iter().collect(),
            optimal: false,
            stats: EvalStats {
                strategy: StrategyUsed::ProgressiveShading,
                candidates: view.candidate_count(),
                nodes: counters.nodes,
                iterations: counters.iterations,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// Grows (or fetches) the partition tree, descends it, and refines the
/// shaded leaves. `Ok(None)` means a sketch was infeasible, the budget ran
/// out mid-descent, or the refined package could not be repaired to
/// feasibility — the greedy baseline then stands. `Err` is reserved for
/// internal invariant violations (surfaced from the shared refine driver).
fn shade_and_refine(
    view: &CandidateView,
    rows: &[LinearConstraint],
    obj_coeffs: Option<&[f64]>,
    opts: &SolveOptions,
    counters: &mut Counters,
) -> PbResult<Option<(Package, Option<f64>)>> {
    let tree = match view.partition_tree(
        opts.shade_leaf_size,
        opts.shade_fanout,
        opts.seed,
        &opts.budget,
        opts.par,
    ) {
        Some(t) => t,
        None => return Ok(None),
    };
    let parts = tree.leaves().partitions();
    if parts.is_empty() {
        return Ok(None);
    }

    // Leaf representative means, one row per constraint (plus the
    // objective), chunk-fanned over `opts.par` exactly like the flat path.
    let mut means: Vec<Vec<f64>> = Vec::with_capacity(rows.len());
    for row in rows {
        match partition_means(parts, &row.coeffs, opts) {
            Some(m) => means.push(m),
            None => return Ok(None),
        }
    }
    let obj_means: Option<Vec<f64>> = match obj_coeffs {
        Some(o) => match partition_means(parts, o, opts) {
            Some(m) => Some(m),
            None => return Ok(None),
        },
        None => None,
    };
    if opts.budget.expired() {
        return Ok(None);
    }

    // Per-layer representative means, aggregated bottom-up from the leaf
    // means: a node's mean is the weight-proportional mean of its children's
    // (accumulated in ascending child order — deterministic). One coefficient
    // row per constraint plus (optionally) the objective, laid out as
    // `layer_means[layer][row][node]` with the objective last when present.
    let mut coeff_rows: Vec<&[f64]> = means.iter().map(|m| m.as_slice()).collect();
    if let Some(om) = obj_means.as_deref() {
        coeff_rows.push(om);
    }
    let leaf_weights: Vec<f64> = parts.iter().map(|p| p.members.len() as f64).collect();
    let mut layer_means: Vec<Vec<Vec<f64>>> = Vec::with_capacity(tree.height());
    for (l, layer) in tree.layers().iter().enumerate() {
        if opts.budget.expired() {
            return Ok(None);
        }
        let rolled: Vec<Vec<f64>> = coeff_rows
            .iter()
            .enumerate()
            .map(|(r, _)| {
                layer
                    .iter()
                    .map(|node| {
                        let total: f64 = node
                            .children
                            .iter()
                            .map(|&c| {
                                let (w, m) = if l == 0 {
                                    (leaf_weights[c], coeff_rows[r][c])
                                } else {
                                    (
                                        tree.layers()[l - 1][c].weight as f64,
                                        layer_means[l - 1][r][c],
                                    )
                                };
                                w * m
                            })
                            .sum();
                        total / node.weight as f64
                    })
                    .collect()
            })
            .collect();
        layer_means.push(rolled);
    }

    // Descent: sketch the coarsest layer, expand only the selected nodes,
    // re-sketch — down to a shaded set of leaf ids. With no layers (few
    // leaves), every leaf is shaded and this is exactly the flat sketch.
    let obj_row = obj_means.as_ref().map(|_| coeff_rows.len() - 1);
    let mut active: Vec<usize> = match tree.height() {
        0 => (0..parts.len()).collect(),
        h => (0..tree.layers()[h - 1].len()).collect(),
    };
    for l in (0..tree.height()).rev() {
        if opts.budget.expired() {
            return Ok(None);
        }
        let layer = &tree.layers()[l];
        let capacities: Vec<u64> = active.iter().map(|&i| layer[i].capacity(view)).collect();
        let gathered: Vec<Vec<f64>> = (0..rows.len())
            .map(|r| active.iter().map(|&i| layer_means[l][r][i]).collect())
            .collect();
        let means_rows: Vec<&[f64]> = gathered.iter().map(|m| m.as_slice()).collect();
        let layer_obj: Option<Vec<f64>> =
            obj_row.map(|r| active.iter().map(|&i| layer_means[l][r][i]).collect());
        let layer_counts = match solve_sketch(
            view,
            &capacities,
            rows,
            &means_rows,
            layer_obj.as_deref(),
            opts,
            counters,
        ) {
            Some(c) => c,
            None => return Ok(None),
        };
        let mut next: Vec<usize> = active
            .iter()
            .zip(&layer_counts)
            .filter(|&(_, &count)| count > 0)
            .flat_map(|(&i, _)| layer[i].children.iter().copied())
            .collect();
        next.sort_unstable();
        if next.is_empty() {
            // The sketch says the empty package: only useful if feasible.
            let state = ViewState::empty(view);
            return Ok(state
                .is_feasible()
                .then(|| (state.to_package(), state.objective_value())));
        }
        active = next;
    }

    // Leaf sketch over the shaded leaves, scattered back to full-length
    // counts for the shared refine driver (zero outside the shade).
    if opts.budget.expired() {
        return Ok(None);
    }
    let capacities: Vec<u64> = active.iter().map(|&p| parts[p].capacity(view)).collect();
    let gathered: Vec<Vec<f64>> = (0..rows.len())
        .map(|r| active.iter().map(|&p| means[r][p]).collect())
        .collect();
    let means_rows: Vec<&[f64]> = gathered.iter().map(|m| m.as_slice()).collect();
    let leaf_obj: Option<Vec<f64>> = obj_means
        .as_ref()
        .map(|om| active.iter().map(|&p| om[p]).collect());
    let shaded_counts = match solve_sketch(
        view,
        &capacities,
        rows,
        &means_rows,
        leaf_obj.as_deref(),
        opts,
        counters,
    ) {
        Some(c) => c,
        None => return Ok(None),
    };
    let mut counts = vec![0u64; parts.len()];
    for (&p, &c) in active.iter().zip(&shaded_counts) {
        counts[p] = c;
    }

    let mut order: Vec<usize> = active.iter().copied().filter(|&p| counts[p] > 0).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(counts[p]), p));
    if order.is_empty() {
        let state = ViewState::empty(view);
        return Ok(state
            .is_feasible()
            .then(|| (state.to_package(), state.objective_value())));
    }

    let ctx = RefineCtx {
        view,
        rows,
        obj_coeffs,
        parts,
        means: &means,
        counts: &counts,
        opts,
        partition_sig: opts.shade_leaf_size as u64,
    };
    refine_with_backtracking(&ctx, order, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParExec;
    use crate::spec::{BuildCtx, PackageSpec};
    use datagen::{recipes, Seed};
    use minidb::Table;
    use paql::compile;

    fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap()
    }

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
    }
}
