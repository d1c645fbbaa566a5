//! Property-based tests for the package engine's core invariants.

use datagen::{uniform_table, zipf_table, Seed};
use minidb::Table;
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::package::Package;
use packagebuilder::pruning::{derive_bounds, search_space};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use proptest::prelude::*;

fn spec_query(count: u64, lo: f64, hi: f64) -> String {
    format!(
        "SELECT PACKAGE(T) AS P FROM t T \
         SUCH THAT COUNT(*) <= {count} AND SUM(P.w) BETWEEN {lo:.2} AND {hi:.2} \
         MAXIMIZE SUM(P.v)"
    )
}

fn build<'a>(query: &str, table: &'a Table) -> PackageSpec<'a> {
    let analyzed = paql::compile(query, table.schema()).unwrap();
    PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Pruning soundness (the paper's "without losing any valid solution"):
    /// on exhaustively enumerable instances, every feasible package has a
    /// cardinality inside the derived bounds, and pruned enumeration finds the
    /// same optimum as exhaustive enumeration.
    #[test]
    fn pruning_is_sound_on_random_instances(
        seed in 0u64..10_000,
        skewed in prop::bool::ANY,
        count in 2u64..5,
        lo in 10.0f64..60.0,
        width in 5.0f64..60.0,
    ) {
        let n = 11usize;
        let table = if skewed {
            zipf_table("t", n, 1.3, 2.0, 30.0, Seed(seed))
        } else {
            uniform_table("t", n, 2.0, 30.0, Seed(seed))
        };
        let spec = build(&spec_query(count, lo, lo + width), &table);
        let bounds = derive_bounds(spec.view()).clamp_to(n as u64);

        // Every feasible subset respects the cardinality bounds.
        for mask in 0u32..(1 << n) {
            let pkg = Package::from_ids(
                (0..n).filter(|i| mask & (1 << i) != 0).map(|i| spec.candidates[i]),
            );
            if spec.is_valid(&pkg).unwrap() {
                let c = pkg.cardinality();
                prop_assert!(c >= bounds.lower && c <= bounds.upper.unwrap_or(u64::MAX),
                    "feasible package of cardinality {} escapes bounds {:?}", c, bounds);
            }
        }

        // Pruned and exhaustive enumeration agree.
        let pruned = enumerate(spec.view(), EnumerationOptions { prune: true, ..Default::default() }).unwrap();
        let full = enumerate(spec.view(), EnumerationOptions { prune: false, ..Default::default() }).unwrap();
        prop_assert_eq!(pruned.packages.is_empty(), full.packages.is_empty());
        if let (Some((_, a)), Some((_, b))) = (pruned.packages.first(), full.packages.first()) {
            prop_assert!((a.unwrap() - b.unwrap()).abs() < 1e-6);
        }
        prop_assert!(pruned.nodes <= full.nodes);
    }

    /// The analytic search-space accounting is consistent: the pruned count
    /// never exceeds the unpruned count, and both are monotone in n.
    #[test]
    fn search_space_accounting_is_consistent(n1 in 5usize..40, extra in 1usize..20) {
        let n2 = n1 + extra;
        let q = "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 3";
        let t1 = uniform_table("t", n1, 1.0, 10.0, Seed(1));
        let t2 = uniform_table("t", n2, 1.0, 10.0, Seed(1));
        let (s1, s2) = (build(q, &t1), build(q, &t2));
        let sp1 = search_space(s1.view(), &derive_bounds(s1.view()));
        let sp2 = search_space(s2.view(), &derive_bounds(s2.view()));
        prop_assert!(sp1.pruned_log2.unwrap() <= sp1.unpruned_log2 + 1e-9);
        prop_assert!(sp2.pruned_log2.unwrap() <= sp2.unpruned_log2 + 1e-9);
        prop_assert!(sp2.unpruned_log2 > sp1.unpruned_log2);
        prop_assert!(sp2.pruned_log2.unwrap() >= sp1.pruned_log2.unwrap() - 1e-9);
    }

    /// Package aggregate evaluation is linear in multiplicity: doubling every
    /// multiplicity doubles COUNT and SUM.
    #[test]
    fn aggregates_scale_linearly_with_multiplicity(
        seed in 0u64..1000,
        picks in prop::collection::vec(0usize..20, 1..6),
        factor in 2u32..4,
    ) {
        let table = uniform_table("t", 20, 1.0, 10.0, Seed(seed));
        let q = "SELECT PACKAGE(T) AS P FROM t T REPEAT 8 SUCH THAT COUNT(*) >= 1 MAXIMIZE SUM(P.v)";
        let spec = build(q, &table);
        let base = Package::from_ids(picks.iter().map(|&i| spec.candidates[i]));
        let scaled = Package::from_members(base.members().map(|(t, m)| (t, m * factor)));

        let sum = |p: &Package| {
            p.eval_aggregate(
                &table,
                &paql::AggCall { func: paql::AggFunc::Sum, arg: Some(minidb::Expr::col("v")), filter: None },
            )
            .unwrap()
            .unwrap()
        };
        prop_assert!((sum(&scaled) - factor as f64 * sum(&base)).abs() < 1e-6);
        prop_assert_eq!(scaled.cardinality(), factor as u64 * base.cardinality());
    }
}
