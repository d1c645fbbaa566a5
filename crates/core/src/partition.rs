//! Offline candidate partitioning for the sketch→refine solver.
//!
//! SketchRefine (Brucato, Abouzied, Meliou: "Scalable Package Queries in
//! Relational Database Systems", PVLDB 9(7), 2016) and its successor
//! Progressive Shading (Mai et al.: "Scaling Package Queries to a Billion
//! Tuples via Hierarchical Partitioning and Customized Optimization", 2023)
//! both rest on the same offline step: group the candidate tuples into
//! size-bounded partitions that are *tight* on the quality-sensitive
//! attributes — the attributes the query's constraints and objective
//! aggregate over — and summarize each partition by one representative row so
//! a tiny "sketch" problem can stand in for the full one.
//!
//! This module implements that step over the columnar
//! [`CandidateView`]: a k-d-style recursive median split of the candidate
//! index space along the view's term coefficient columns (those *are* the
//! quality-sensitive attributes — every aggregate the query can observe has a
//! column here). Splitting always halves the widest remaining column, so the
//! partitions end up compact in the coordinates that matter and nothing else.
//! One split routine serves the leaves and every tree layer above them; a
//! split reads each column once and selects the median instead of sorting,
//! so a whole level of the recursion costs expected `O(n · #columns)`.
//! The result is deterministic given a seed: the seed only rotates the scan
//! order used to break ties between equally-wide columns.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::par::ParExec;
use crate::view::CandidateView;

/// One partition of the candidate set.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Candidate indices (into the view's candidate order), ascending.
    pub members: Vec<usize>,
    /// The representative row: per-term mean coefficient over the members
    /// (excluded members contribute 0, exactly as they do to the term's
    /// aggregates).
    pub centroid: Vec<f64>,
}

impl Partition {
    /// Total multiplicity capacity of this partition: how many package slots
    /// its members can fill under the view's `REPEAT` bound.
    pub fn capacity(&self, view: &CandidateView) -> u64 {
        self.members.len() as u64 * view.max_multiplicity() as u64
    }

    /// Mean of an arbitrary per-candidate coefficient column over the
    /// members — the partition's "representative coefficient" for that
    /// column. This is what the sketch problem aggregates constraint rows
    /// with.
    pub fn mean_of(&self, coeffs: &[f64]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.members.iter().map(|&i| coeffs[i]).sum::<f64>() / self.members.len() as f64
    }
}

/// A size-bounded partitioning of a view's candidate set.
#[derive(Debug, Clone)]
pub struct Partitioning {
    partitions: Vec<Partition>,
    /// Candidate index → partition id.
    assignment: Vec<usize>,
}

impl Partitioning {
    /// The partitions, ordered by their smallest member index (stable ids).
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Rough heap footprint in bytes (assignment, member lists, centroids),
    /// for cache byte accounting — at 10^7 candidates a partitioning weighs
    /// on the order of the columns it splits, so the view cache must count
    /// it against its byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.assignment.len() * 8
            + self
                .partitions
                .iter()
                .map(|p| (p.members.len() + p.centroid.len()) * 8 + 48)
                .sum::<usize>()
    }

    /// Partition id of a candidate index.
    pub fn partition_of(&self, candidate_idx: usize) -> usize {
        self.assignment[candidate_idx]
    }

    /// Partition id of every candidate index, in candidate order.
    pub(crate) fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when the view had no candidates.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

/// Partitions the view's candidates into groups of at most
/// `max_partition_size` by recursive median splits of the widest term
/// column. Deterministic given `seed` (the seed breaks ties between
/// equally-wide columns by rotating the scan order).
pub fn partition_view(view: &CandidateView, max_partition_size: usize, seed: u64) -> Partitioning {
    partition_view_budgeted(
        view,
        max_partition_size,
        seed,
        &crate::budget::Budget::unlimited(),
        ParExec::sequential(),
    )
    // pb-lint: allow(no-panic-in-solver-paths) — invariant: the only error
    // path in the budgeted variant is budget expiry, and an unlimited
    // budget cannot expire.
    .expect("an unlimited budget cannot expire")
}

/// [`partition_view`] with a cooperative deadline and a chunk fan-out
/// executor. The split worklist checks the budget between splits and
/// returns `None` on expiry, so a caller whose budget ran out
/// mid-partitioning (the sketch solver after a slow greedy baseline) stops
/// within one split instead of finishing the whole job. A split costs
/// expected time linear in its subset (one fused spread scan, one median
/// selection), so a level of the recursion costs expected `O(n · #terms)`.
/// The spread scan — the data-heavy part of each split — fans out over
/// `par` in fixed-width member chunks; min/max reductions combine in chunk
/// order, so the partitioning is bit-identical at every thread count, and a
/// completed run is identical to the unbudgeted one.
pub fn partition_view_budgeted(
    view: &CandidateView,
    max_partition_size: usize,
    seed: u64,
    budget: &crate::budget::Budget,
    par: ParExec,
) -> Option<Partitioning> {
    let n = view.candidate_count();
    let terms = view.terms();
    if budget.expired() {
        return None;
    }
    // The split recursion reads members in *value* order, so once subsets
    // scatter across the column a paged view would fault the buffer pool on
    // nearly every access (at 10^7 candidates this thrash, not the solve,
    // dominated the wall clock: ~10^8 pool misses). Materialize each key
    // column once with a sequential chunk scan instead — transient
    // O(n · #terms) scratch, of the order of the permutation the split
    // holds anyway — and run the resident algorithm against the snapshot;
    // chunk-order copies are bit-identical to the resident bytes, so the
    // resulting partitioning is too.
    let columns: Vec<Cow<'_, [f64]>> = terms
        .iter()
        .map(|t| match t.resident_coeffs() {
            Some(col) => Cow::Borrowed(col),
            None => Cow::Owned(t.coeffs_vec()),
        })
        .collect();
    let cols: Vec<&[f64]> = columns.iter().map(|c| &**c).collect();
    let groups = median_split(
        n,
        cols.len(),
        |i, d| cols[d][i],
        max_partition_size,
        seed,
        budget,
        par,
    )?;

    let partitions: Vec<Partition> = groups
        .into_iter()
        .map(|members| {
            let centroid = cols
                .iter()
                .map(|col| members.iter().map(|&i| col[i]).sum::<f64>() / members.len() as f64)
                .collect();
            Partition { members, centroid }
        })
        .collect();

    let mut assignment = vec![0usize; n];
    for (pid, p) in partitions.iter().enumerate() {
        for &i in &p.members {
            assignment[i] = pid;
        }
    }
    Some(Partitioning {
        partitions,
        assignment,
    })
}

/// One internal node of a [`PartitionTree`] layer.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Ids of this node's children in the layer below — leaf partition ids
    /// for the lowest internal layer, node indices into the previous
    /// [`PartitionTree::layers`] entry above that. Always ascending.
    pub children: Vec<usize>,
    /// Total number of underlying candidates below this node.
    pub weight: usize,
    /// The node's representative row: per-term weighted mean of the
    /// children's centroids, which (by induction over the layers) equals the
    /// plain mean over every underlying candidate — the same quantity a leaf
    /// [`Partition::centroid`] holds, one aggregation level up.
    pub centroid: Vec<f64>,
}

impl TreeNode {
    /// Total multiplicity capacity of the node's subtree: how many package
    /// slots its underlying candidates can fill under the `REPEAT` bound.
    pub fn capacity(&self, view: &CandidateView) -> u64 {
        self.weight as u64 * view.max_multiplicity() as u64
    }
}

/// A hierarchical partitioning: the flat leaf [`Partitioning`] plus a stack
/// of progressively coarser grouping layers, as in Progressive Shading
/// (Mai et al., 2023). The shading solver sketches over the coarsest layer's
/// representatives and descends, so no ILP it ever builds has more than
/// roughly `fanout²` variables regardless of the candidate count.
///
/// # Invariants
///
/// * **Exact cover per layer.** The leaves partition the candidate set
///   (every candidate in exactly one leaf), and each layer's nodes partition
///   the layer below: every child id appears in exactly one node's
///   `children`, and `children` lists are ascending.
/// * **Fine → coarse order.** `layers[0]` groups the leaf partitions;
///   `layers[i]` groups `layers[i-1]`. The last entry is the coarsest layer
///   and has at most `fanout` nodes; every node has at most `fanout`
///   children (and, by the median split, at least `fanout/2` except in a
///   degenerate last group). `layers` is empty when the leaf count is
///   already ≤ `fanout`.
/// * **Exact aggregates.** A node's `weight` is the sum of its descendants'
///   member counts and its `centroid` the weight-proportional mean of its
///   children's centroids, accumulated in ascending child order — so the
///   representatives are a pure function of the leaf layer, independent of
///   thread count or storage mode. The leaf layer itself is built by
///   [`partition_view_budgeted`], whose scans stream through
///   `TermColumn::chunk` cursors on paged views; the upper layers only ever
///   touch the (small, resident) centroid matrix derived from it.
/// * **Determinism.** Given the same view, `fanout`, and `seed`, the tree is
///   bit-identical at every thread count: the grouping runs the same
///   widest-column median split as the leaf layer (seed-rotated tie scan,
///   `(total_cmp, index)` order, chunk-order spread reduction).
#[derive(Debug, Clone)]
pub struct PartitionTree {
    leaves: Arc<Partitioning>,
    layers: Vec<Vec<TreeNode>>,
}

impl PartitionTree {
    /// The leaf partitioning the tree was grown from.
    pub fn leaves(&self) -> &Partitioning {
        &self.leaves
    }

    /// The shared handle to the leaf partitioning (the same `Arc` the flat
    /// sketch→refine memo holds when leaf size and seed match).
    pub fn leaves_arc(&self) -> &Arc<Partitioning> {
        &self.leaves
    }

    /// Grouping layers, finest first, coarsest last (see the type docs).
    pub fn layers(&self) -> &[Vec<TreeNode>] {
        &self.layers
    }

    /// Number of grouping layers above the leaves.
    pub fn height(&self) -> usize {
        self.layers.len()
    }

    /// Rough heap footprint in bytes, for cache byte accounting.
    pub fn approx_bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|n| (n.children.len() + n.centroid.len()) * 8 + 48)
            .sum()
    }
}

/// Grows the grouping layers of a [`PartitionTree`] over an already-built
/// leaf partitioning. Returns `None` on budget expiry. The centroid matrix
/// of each layer is small (one row per node), so this never touches the
/// columns again — paged views pay their I/O in the leaf build only.
pub fn build_partition_tree(
    leaves: Arc<Partitioning>,
    fanout: usize,
    seed: u64,
    budget: &crate::budget::Budget,
    par: ParExec,
) -> Option<PartitionTree> {
    let fanout = fanout.max(2);
    let dims = leaves.partitions().first().map_or(0, |p| p.centroid.len());
    let mut layers: Vec<Vec<TreeNode>> = Vec::new();
    let mut points: Vec<(usize, Vec<f64>)> = leaves
        .partitions()
        .iter()
        .map(|p| (p.members.len(), p.centroid.clone()))
        .collect();
    while points.len() > fanout {
        let groups = median_split(
            points.len(),
            dims,
            |i, d| points[i].1[d],
            fanout,
            seed,
            budget,
            par,
        )?;
        let nodes: Vec<TreeNode> = groups
            .into_iter()
            .map(|children| {
                let weight: usize = children.iter().map(|&c| points[c].0).sum();
                let mut centroid = vec![0.0; dims];
                for &c in &children {
                    let (w, cent) = &points[c];
                    for (d, v) in cent.iter().enumerate() {
                        centroid[d] += *v * *w as f64;
                    }
                }
                for v in &mut centroid {
                    *v /= weight as f64;
                }
                TreeNode {
                    children,
                    weight,
                    centroid,
                }
            })
            .collect();
        points = nodes
            .iter()
            .map(|n| (n.weight, n.centroid.clone()))
            .collect();
        layers.push(nodes);
    }
    Some(PartitionTree { leaves, layers })
}

/// The one split worklist behind the leaves ([`partition_view_budgeted`],
/// `value(i, d)` = term column `d` at candidate `i`) and every tree layer
/// ([`build_partition_tree`], `value(i, d)` = coordinate `d` of point `i`'s
/// centroid): groups `0..n` into groups of at most `max_size` by recursive
/// median splits of the widest of the `dims` columns.
///
/// It works in place on one permutation of `0..n`, splitting index ranges.
/// A split makes one fused spread scan over its range — every column's
/// min/max in a single `par` chunk fan-out, combined in chunk order — picks
/// the widest column (the seed rotates the scan start, so ties between
/// equally wide columns resolve per seed), and moves the `len / 2` members
/// lowest in `(value.total_cmp, index)` to the front with a median
/// selection. That order is total, so the halves are the sets a full sort
/// would cut, and a split costs expected time linear in its range. A range
/// no column spreads across is sorted instead, by the column that cut it
/// out of its parent: the order a full sort would have left it in, so its
/// position-halving matches too. Groups come back
/// copied at their exact size, members ascending, ordered by smallest
/// member — the stable-id convention both callers use. `None` on budget
/// expiry (checked once per split).
fn median_split(
    n: usize,
    dims: usize,
    value: impl Fn(usize, usize) -> f64 + Sync,
    max_size: usize,
    seed: u64,
    budget: &crate::budget::Budget,
    par: ParExec,
) -> Option<Vec<Vec<usize>>> {
    let max_size = max_size.max(1);
    let order = |d: usize| {
        let value = &value;
        move |a: &usize, b: &usize| value(*a, d).total_cmp(&value(*b, d)).then(a.cmp(b))
    };
    let mut perm: Vec<usize> = (0..n).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // A range of `perm` still to split, with the column that last cut it
    // out of an ancestor (`None` while no column has spread).
    let mut work: Vec<(Range<usize>, Option<usize>)> = if n == 0 {
        Vec::new()
    } else {
        vec![(0..n, None)]
    };
    while let Some((range, cut)) = work.pop() {
        if budget.expired() {
            return None;
        }
        let members = &mut perm[range.clone()];
        if members.len() <= max_size {
            let mut group = members.to_vec();
            group.sort_unstable();
            groups.push(group);
            continue;
        }
        let spreads = {
            let members = &*members;
            par.fold_chunks(
                members.len(),
                |_, chunk| {
                    let members = &members[chunk];
                    (0..dims)
                        .map(|d| {
                            // Compare-selects rather than `f64::min`/`max`:
                            // one instruction each on the loop's dependency
                            // chain. A NaN loses every comparison, so it is
                            // skipped exactly as `min`/`max` skip it; only
                            // which sign of zero is kept can differ, and no
                            // spread comparison can see that.
                            let mut lo = f64::INFINITY;
                            let mut hi = f64::NEG_INFINITY;
                            for &i in members {
                                let v = value(i, d);
                                lo = if v < lo { v } else { lo };
                                hi = if v > hi { v } else { hi };
                            }
                            (lo, hi)
                        })
                        .collect::<Vec<_>>()
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x = (x.0.min(y.0), x.1.max(y.1));
                    }
                    a
                },
            )
            .unwrap_or_default()
        };
        let mut best: Option<(usize, f64)> = None;
        for k in 0..dims {
            let d = (k + seed as usize) % dims;
            let (lo, hi) = spreads[d];
            let spread = hi - lo;
            if spread > best.map_or(0.0, |(_, s)| s) {
                best = Some((d, spread));
            }
        }
        let mid = members.len() / 2;
        let cut = best.map(|(d, _)| d).or(cut);
        // With no cut column at all the range is a run of the identity
        // permutation, so it is in index order already.
        if let Some(d) = cut {
            if best.is_some() {
                members.select_nth_unstable_by(mid, order(d));
            } else {
                members.sort_unstable_by(order(d));
            }
        }
        work.push((range.start + mid..range.end, cut));
        work.push((range.start..range.start + mid, cut));
    }
    groups.sort_by_key(|g| g[0]);
    Some(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::SpillStore;
    use crate::spec::tests::respill;
    use crate::spec::{BuildCtx, PackageSpec};
    use datagen::{recipes, Seed};
    use minidb::Table;
    use paql::compile;

    fn view_for(table: &Table, q: &str) -> CandidateView {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table, &BuildCtx::default())
            .unwrap()
            .view()
            .clone()
    }

    const QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
        MAXIMIZE SUM(P.protein)";

    #[test]
    fn partitions_cover_every_candidate_exactly_once() {
        let t = recipes(500, Seed(1));
        let v = view_for(&t, QUERY);
        let p = partition_view(&v, 32, 7);
        let mut seen = vec![false; v.candidate_count()];
        for (pid, part) in p.partitions().iter().enumerate() {
            assert!(!part.members.is_empty());
            assert!(part.members.len() <= 32);
            for &i in &part.members {
                assert!(!seen[i], "candidate {i} appears in two partitions");
                seen[i] = true;
                assert_eq!(p.partition_of(i), pid);
            }
        }
        assert!(seen.iter().all(|&s| s), "some candidate unassigned");
    }

    #[test]
    fn partitioning_is_deterministic_per_seed() {
        let t = recipes(400, Seed(2));
        let v = view_for(&t, QUERY);
        let a = partition_view(&v, 16, 42);
        let b = partition_view(&v, 16, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.partitions().iter().zip(b.partitions()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.centroid, y.centroid);
        }
    }

    #[test]
    fn partitions_are_tight_on_the_split_columns() {
        // The per-partition spread of the widest column must be (weakly)
        // smaller than the global spread — that's the whole point of
        // quality-aware splitting.
        let t = recipes(600, Seed(3));
        let v = view_for(&t, QUERY);
        let p = partition_view(&v, 16, 1);
        for (d, term) in v.terms().iter().enumerate() {
            let coeffs = term.coeffs_vec();
            let global_lo = coeffs.iter().cloned().fold(f64::INFINITY, f64::min);
            let global_hi = coeffs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if global_hi - global_lo <= 0.0 {
                continue;
            }
            let mut max_local = 0.0f64;
            for part in p.partitions() {
                let lo = part
                    .members
                    .iter()
                    .map(|&i| coeffs[i])
                    .fold(f64::INFINITY, f64::min);
                let hi = part
                    .members
                    .iter()
                    .map(|&i| coeffs[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                max_local = max_local.max(hi - lo);
            }
            assert!(
                max_local <= global_hi - global_lo,
                "term {d}: local spread exceeds global"
            );
        }
    }

    #[test]
    fn empty_and_tiny_views_partition_cleanly() {
        let t = recipes(5, Seed(4));
        let v = view_for(&t, QUERY);
        let p = partition_view(&v, 16, 0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.partitions()[0].members.len(), 5);

        let t = recipes(20, Seed(5));
        let analyzed = compile(
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 SUCH THAT COUNT(*) = 1",
            t.schema(),
        )
        .unwrap();
        let spec = PackageSpec::build(&analyzed, &t, &BuildCtx::default()).unwrap();
        let p = partition_view(spec.view(), 16, 0);
        assert!(p.is_empty());
    }

    #[test]
    fn centroids_are_member_means() {
        let t = recipes(100, Seed(6));
        let v = view_for(&t, QUERY);
        let p = partition_view(&v, 8, 3);
        for part in p.partitions() {
            for (d, term) in v.terms().iter().enumerate() {
                let mean = part.mean_of(&term.coeffs_vec());
                assert!((part.centroid[d] - mean).abs() < 1e-12);
            }
        }
    }

    fn tree_for(n: usize, leaf: usize, fanout: usize, seed: u64) -> (Table, PartitionTree) {
        let t = recipes(n, Seed(11));
        let v = view_for(&t, QUERY);
        let leaves = Arc::new(partition_view(&v, leaf, seed));
        let tree = build_partition_tree(
            leaves,
            fanout,
            seed,
            &crate::budget::Budget::unlimited(),
            ParExec::sequential(),
        )
        .unwrap();
        (t, tree)
    }

    #[test]
    fn tree_layers_cover_each_level_exactly_once() {
        let (_t, tree) = tree_for(1200, 8, 4, 7);
        assert!(tree.height() >= 2, "1200/8 leaves at fanout 4 must stack");
        let mut below = tree.leaves().len();
        for layer in tree.layers() {
            assert!(layer.len() <= below);
            let mut seen = vec![false; below];
            for node in layer {
                assert!(!node.children.is_empty());
                assert!(node.children.len() <= 4);
                assert!(node.children.windows(2).all(|w| w[0] < w[1]));
                for &c in &node.children {
                    assert!(!seen[c], "child {c} grouped twice");
                    seen[c] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "some child of the layer unassigned"
            );
            below = layer.len();
        }
        let top = tree.layers().last().unwrap();
        assert!(top.len() <= 4, "coarsest layer exceeds the fanout");
    }

    #[test]
    fn tree_node_aggregates_match_their_descendants() {
        let (t, tree) = tree_for(800, 8, 4, 3);
        let v = view_for(&t, QUERY);
        // Walk each layer and check weight / centroid against the exact
        // member set reachable below the node.
        let leaf_members: Vec<&[usize]> = tree
            .leaves()
            .partitions()
            .iter()
            .map(|p| p.members.as_slice())
            .collect();
        let mut below: Vec<Vec<usize>> = leaf_members.iter().map(|m| m.to_vec()).collect();
        for layer in tree.layers() {
            let mut next: Vec<Vec<usize>> = Vec::new();
            for node in layer {
                let mut members: Vec<usize> = node
                    .children
                    .iter()
                    .flat_map(|&c| below[c].iter().copied())
                    .collect();
                members.sort_unstable();
                assert_eq!(node.weight, members.len());
                for (d, term) in v.terms().iter().enumerate() {
                    let coeffs = term.coeffs_vec();
                    let mean =
                        members.iter().map(|&i| coeffs[i]).sum::<f64>() / members.len() as f64;
                    assert!(
                        (node.centroid[d] - mean).abs() < 1e-9,
                        "layer node centroid drifts from the descendant mean"
                    );
                }
                next.push(members);
            }
            below = next;
        }
    }

    #[test]
    fn tree_construction_is_deterministic_and_thread_invariant() {
        let t = recipes(1000, Seed(12));
        let v = view_for(&t, QUERY);
        let leaves = Arc::new(partition_view(&v, 8, 5));
        let budget = crate::budget::Budget::unlimited();
        let a = build_partition_tree(leaves.clone(), 4, 5, &budget, ParExec::sequential()).unwrap();
        let par = ParExec::new(4);
        let b = build_partition_tree(leaves, 4, 5, &budget, par).unwrap();
        assert_eq!(a.height(), b.height());
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(lb) {
                assert_eq!(x.children, y.children);
                assert_eq!(x.weight, y.weight);
                assert_eq!(x.centroid, y.centroid);
            }
        }
    }

    #[test]
    fn every_group_is_allocated_at_its_exact_size() {
        // The cache charges `approx_bytes` against its byte budget, which
        // counts capacity: a group left holding its parent's buffer would
        // weigh several times what it reports.
        let (_t, tree) = tree_for(1200, 8, 4, 7);
        assert!(tree.height() >= 2);
        for p in tree.leaves().partitions() {
            assert_eq!(p.members.capacity(), p.members.len());
        }
        for node in tree.layers().iter().flatten() {
            assert_eq!(node.children.capacity(), node.children.len());
        }
    }

    /// The sort-based worklist [`median_split`] replaced, as the oracle:
    /// every split fully sorts its subset by `(total_cmp, index)` on the
    /// widest column and cuts it at `len / 2`; a subset no column spreads
    /// across keeps the order its parent's sort left it in.
    fn sorted_split(
        n: usize,
        dims: usize,
        value: impl Fn(usize, usize) -> f64,
        max_size: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let max_size = max_size.max(1);
        let mut groups = Vec::new();
        let mut work: Vec<Vec<usize>> = if n == 0 {
            Vec::new()
        } else {
            vec![(0..n).collect()]
        };
        while let Some(mut members) = work.pop() {
            if members.len() <= max_size {
                members.sort_unstable();
                groups.push(members);
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for k in 0..dims {
                let d = (k + seed as usize) % dims;
                let values = || members.iter().map(|&i| value(i, d));
                let lo = values().fold(f64::INFINITY, f64::min);
                let hi = values().fold(f64::NEG_INFINITY, f64::max);
                if hi - lo > best.map_or(0.0, |(_, s)| s) {
                    best = Some((d, hi - lo));
                }
            }
            if let Some((d, _)) = best {
                members.sort_by(|&a, &b| value(a, d).total_cmp(&value(b, d)).then(a.cmp(&b)));
            }
            let right = members.split_off(members.len() / 2);
            work.push(right);
            work.push(members);
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }

    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A column-major `n × dims` matrix in one of four shapes: heavy
    /// duplicates, the special values (±0, both NaN signs, ±∞) among
    /// duplicates, a constant column beside a spread one, and all-distinct.
    fn matrix(n: usize, dims: usize, shape: u64, salt: u64) -> Vec<Vec<f64>> {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.0,
            1.5,
        ];
        (0..dims)
            .map(|d| {
                (0..n)
                    .map(|i| {
                        let r = splitmix(salt ^ ((d as u64) << 40) ^ i as u64);
                        match shape {
                            0 => (r % 4) as f64,
                            1 => SPECIAL[(r % SPECIAL.len() as u64) as usize],
                            2 if d == 0 => 3.25,
                            _ => (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn median_split_equals_the_sort_based_split_on_hostile_matrices() {
        let budget = crate::budget::Budget::unlimited();
        let mut cases = 0;
        for (n, dims) in [(0, 2), (1, 1), (2, 3), (37, 0), (37, 1), (101, 3), (999, 2)] {
            for shape in 0..4 {
                let m = matrix(n, dims, shape, n as u64 * 31 + shape);
                let value = |i: usize, d: usize| m[d][i];
                for size in [1, 7, 64] {
                    for seed in [0, 1, 5] {
                        let want = sorted_split(n, dims, value, size, seed);
                        let got = median_split(
                            n,
                            dims,
                            value,
                            size,
                            seed,
                            &budget,
                            ParExec::sequential(),
                        )
                        .unwrap();
                        assert_eq!(
                            got, want,
                            "n={n} dims={dims} shape={shape} size={size} seed={seed}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        // Several chunks, so the spread scan fans out and its chunk-order
        // reduction meets ±0 and NaN across chunk boundaries.
        let n = 3 * crate::par::CHUNK_WIDTH + 5;
        for shape in 0..4 {
            let m = matrix(n, 3, shape, 17 + shape);
            let value = |i: usize, d: usize| m[d][i];
            let want = sorted_split(n, 3, value, 64, 1);
            for threads in [1, 2, 4] {
                let got = median_split(n, 3, value, 64, 1, &budget, ParExec::new(threads)).unwrap();
                assert_eq!(got, want, "shape={shape} threads={threads}");
                cases += 1;
            }
        }
        assert_eq!(cases, 7 * 4 * 3 * 3 + 4 * 3);
    }

    /// The layers the tree grows over `leaves`, grouped by [`sorted_split`]
    /// and aggregated as [`build_partition_tree`] does.
    fn sorted_layers(leaves: &Partitioning, fanout: usize, seed: u64) -> Vec<Vec<TreeNode>> {
        let mut points: Vec<(usize, Vec<f64>)> = leaves
            .partitions()
            .iter()
            .map(|p| (p.members.len(), p.centroid.clone()))
            .collect();
        let dims = points.first().map_or(0, |p| p.1.len());
        let mut layers: Vec<Vec<TreeNode>> = Vec::new();
        while points.len() > fanout {
            let groups = sorted_split(points.len(), dims, |i, d| points[i].1[d], fanout, seed);
            let layer: Vec<TreeNode> = groups
                .into_iter()
                .map(|children| {
                    let weight: usize = children.iter().map(|&c| points[c].0).sum();
                    let mut centroid = vec![0.0; dims];
                    for &c in &children {
                        for (d, v) in points[c].1.iter().enumerate() {
                            centroid[d] += *v * points[c].0 as f64;
                        }
                    }
                    centroid.iter_mut().for_each(|v| *v /= weight as f64);
                    TreeNode {
                        children,
                        weight,
                        centroid,
                    }
                })
                .collect();
            points = layer
                .iter()
                .map(|n| (n.weight, n.centroid.clone()))
                .collect();
            layers.push(layer);
        }
        layers
    }

    #[test]
    fn leaves_and_tree_are_thread_and_storage_invariant_across_chunks() {
        // 3 × CHUNK_WIDTH + 37 candidates: the top splits span four chunks,
        // so the spread scans fan out at 2 and 4 threads (and, with one
        // candidate per leaf, so do the first tree layer's).
        let t = recipes(3 * crate::par::CHUNK_WIDTH + 37, Seed(13));
        let analyzed = compile(QUERY, t.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &t, &BuildCtx::default()).unwrap();
        let store = SpillStore::create(4).unwrap();
        let paged = respill(&spec, &vec![Some(store); spec.view().terms().len()]);
        assert!(paged.terms().iter().all(|t| t.resident_coeffs().is_none()));
        let cols: Vec<Vec<f64>> = spec.view().terms().iter().map(|t| t.coeffs_vec()).collect();
        let budget = crate::budget::Budget::unlimited();
        let seed = 3;
        for leaf in [1, 64] {
            let want = sorted_split(cols[0].len(), cols.len(), |i, d| cols[d][i], leaf, seed);
            let want_layers = {
                let leaves = partition_view(spec.view(), leaf, seed);
                sorted_layers(&leaves, 4, seed)
            };
            for view in [spec.view(), &paged] {
                for threads in [1, 2, 4] {
                    let par = ParExec::new(threads);
                    let got = partition_view_budgeted(view, leaf, seed, &budget, par).unwrap();
                    assert_eq!(got.len(), want.len());
                    for (p, members) in got.partitions().iter().zip(&want) {
                        assert_eq!(&p.members, members, "leaf={leaf} threads={threads}");
                        for (c, col) in p.centroid.iter().zip(&cols) {
                            let mean =
                                members.iter().map(|&i| col[i]).sum::<f64>() / members.len() as f64;
                            assert_eq!(c.to_bits(), mean.to_bits());
                        }
                    }
                    let tree = build_partition_tree(Arc::new(got), 4, seed, &budget, par).unwrap();
                    assert_eq!(tree.height(), want_layers.len());
                    for (layer, want) in tree.layers().iter().zip(&want_layers) {
                        assert_eq!(layer.len(), want.len());
                        for (x, y) in layer.iter().zip(want) {
                            assert_eq!(x.children, y.children, "leaf={leaf} threads={threads}");
                            assert_eq!(x.weight, y.weight);
                            let bits =
                                |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&x.centroid), bits(&y.centroid));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_leaf_sets_need_no_layers() {
        let (_t, tree) = tree_for(60, 16, 8, 0);
        assert!(tree.leaves().len() <= 8);
        assert_eq!(tree.height(), 0);
    }
}
