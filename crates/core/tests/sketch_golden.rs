//! Golden answer-and-counter pins for the sketch family.
//!
//! Every registered scenario family's first gauntlet query is solved at two
//! sizes by the flat solver at its defaults and by the tree solver through a
//! genuinely multi-layer tree (leaf size 8, fanout 4). Each solve's objective
//! bits, node count, iteration count and a checksum of the package are
//! compared with recorded rows. A change that keeps every sketch, every
//! refine order and every sub-ILP reproduces all of them; one that reorders a
//! single roll-up sum or drops a leaf from the shade moves a counter or the
//! package.
//!
//! The rows were first recorded before the two solvers were merged into one
//! pipeline, and re-recorded when `LpMatrix::new` began merging constraints on one linear
//! form into one ranged row: the sketch and refine ILPs shrank, the counters
//! moved on every family but `wide` and `travel` (which never reaches a
//! sketch ILP), every objective kept its bits, and the package moved only
//! on `metrics` flat at 500 and 1 000. They were re-recorded once more when
//! a sketch or sub-ILP that ends without a solution began to count its
//! nodes and iterations: 11 rows rose by one infeasible 1-node ILP each
//! (`travel`'s four, `knapsack` 200's two and 400 tree, `wide`'s four), and
//! no objective or package moved.
//!
//! To re-record after an *intended* trajectory change, run the test: the
//! failure message prints the table of actual rows in source form.

use datagen::{scenarios, Seed};
use packagebuilder::solver::{SolveOptions, Solver};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::{ProgressiveShadingSolver, SketchRefineSolver};
use paql::compile;

/// `(family, n, "flat" | "tree", objective bits (`None` = no package), nodes,
/// iterations, package checksum)`.
type Row = (
    &'static str,
    usize,
    &'static str,
    Option<u64>,
    u64,
    u64,
    u64,
);

const SEED: u64 = 20140901;

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("recipes", 250, "flat", Some(0x406d000000000000), 30, 612, 0x3b1ed69f30fbaf24),
    ("recipes", 250, "tree", Some(0x406e200000000000), 16, 551, 0xc7fd8741c7f46f8c),
    ("recipes", 500, "flat", Some(0x406e800000000000), 24, 1079, 0x2e0bee788367636c),
    ("recipes", 500, "tree", Some(0x406d800000000000), 40, 1099, 0x143e253910d0a59c),
    ("stocks", 250, "flat", Some(0x40b0060000000000), 5547, 11316, 0x2d0ddedf5d4d1ca1),
    ("stocks", 250, "tree", Some(0x40b0a00000000000), 277, 558, 0xd36f15bd3b2dc713),
    ("stocks", 500, "flat", Some(0x40b07c0000000000), 1819, 3600, 0x279f5f889b67182f),
    ("stocks", 500, "tree", Some(0x40ad780000000000), 426, 806, 0x6d402fa3885b3569),
    ("travel", 250, "flat", None, 1, 255, 0x0000000000000000),
    ("travel", 250, "tree", None, 1, 254, 0x0000000000000000),
    ("travel", 500, "flat", None, 1, 506, 0x0000000000000000),
    ("travel", 500, "tree", None, 1, 505, 0x0000000000000000),
    ("synthetic", 250, "flat", Some(0x407ed30d6513bff3), 2, 33, 0x009a4239122e405a),
    ("synthetic", 250, "tree", Some(0x407ed30d6513bff3), 4, 25, 0x009a4239122e405a),
    ("synthetic", 500, "flat", Some(0x407f0d855cb001bc), 13, 48, 0x6e26b747e99bdfcf),
    ("synthetic", 500, "tree", Some(0x407f0d855cb001bc), 6, 31, 0x6e26b747e99bdfcf),
    ("knapsack", 200, "flat", None, 4, 803, 0x0000000000000000),
    ("knapsack", 200, "tree", None, 4, 803, 0x0000000000000000),
    ("knapsack", 400, "flat", Some(0x404d23d70a3d70a4), 7, 1624, 0x03c7df843df2b232),
    ("knapsack", 400, "tree", None, 4, 1603, 0x0000000000000000),
    ("bulk", 1000, "flat", Some(0x40b399028f5c28f8), 17, 1083, 0x5ba76aa473ab768d),
    ("bulk", 1000, "tree", Some(0x40b399028f5c28f8), 132, 1675, 0x5ba76aa473ab768d),
    ("bulk", 2000, "flat", Some(0x40bd4c970a3d70a4), 17, 1100, 0xa942ac5b9c008d8b),
    ("bulk", 2000, "tree", Some(0x40bd4c970a3d70a4), 132, 1684, 0xa942ac5b9c008d8b),
    ("metrics", 500, "flat", Some(0x404b000000000000), 924, 17902, 0x141baa5e284e9d1d),
    ("metrics", 500, "tree", Some(0x404a0a3d70a3d70a), 6, 1237, 0xb8ed75b0867abc47),
    ("metrics", 1000, "flat", Some(0x404b000000000000), 92, 5434, 0xe09bc374b1bc7ea0),
    ("metrics", 1000, "tree", Some(0x404a39999999999a), 17, 2367, 0xf573cf44843881c7),
    ("wide", 300, "flat", Some(0x406c866666666669), 9, 2527, 0xfbff37c0f83f1f69),
    ("wide", 300, "tree", Some(0x406c866666666669), 9, 2527, 0xfbff37c0f83f1f69),
    ("wide", 600, "flat", Some(0x406c86666666666e), 9, 4928, 0xfbff37c0f83f1f69),
    ("wide", 600, "tree", Some(0x406c86666666666e), 9, 4930, 0xfbff37c0f83f1f69),
    ("correlated", 250, "flat", Some(0x4074328f5c28f5c2), 984, 2416, 0xd7fa3b873863ab66),
    ("correlated", 250, "tree", Some(0x407415c28f5c28f5), 804, 1576, 0xa9cd6e08537f098b),
    ("correlated", 500, "flat", Some(0x40745bd70a3d70a4), 5530, 9029, 0x1f21fd92d2b7e59d),
    ("correlated", 500, "tree", Some(0x40744828f5c28f5c), 532, 1029, 0x37fe6ed1714ab66f),
    ("lineitem", 5000, "flat", Some(0x4127a4a58a3d70a3), 44118, 99072, 0x3a7d3dce0954de59),
    ("lineitem", 5000, "tree", Some(0x41275fadb3333333), 24416, 73435, 0x6fc84682e62ce721),
    ("lineitem", 10000, "flat", Some(0x4127e506c28f5c28), 143866, 297149, 0x1a5ac123e5bd741a),
    ("lineitem", 10000, "tree", Some(0x4127a37ba8f5c290), 1275, 23818, 0xab55b68a44314b8f),
];

/// FNV-1a over the `(tuple id, multiplicity)` pairs in tuple order.
fn checksum(package: &packagebuilder::Package) -> u64 {
    package
        .members()
        .flat_map(|(t, m)| [t.index() as u64, m as u64])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One family at one size: the flat row, then the tree row. Each solve builds
/// its own uncached spec.
fn solve_rows(scenario: &datagen::Scenario, n: usize) -> [Row; 2] {
    let table = (scenario.build)(n, Seed(SEED));
    let analyzed = compile(&scenario.queries[0].text, table.schema()).expect("query compiles");
    let solve = |kind: &'static str, solver: &dyn Solver, opts: &SolveOptions| -> Row {
        let spec =
            PackageSpec::build(&analyzed, &table, &BuildCtx::default()).expect("spec builds");
        let out = solver
            .solve(spec.view(), opts)
            .expect("gauntlet queries are linear");
        let (bits, sum) = match out.packages.first() {
            Some((p, obj)) => (Some(obj.map_or(0, f64::to_bits)), checksum(p)),
            None => (None, 0),
        };
        (
            scenario.name,
            n,
            kind,
            bits,
            out.stats.nodes,
            out.stats.iterations,
            sum,
        )
    };
    let deep = SolveOptions {
        shade_leaf_size: 8,
        shade_fanout: 4,
        ..SolveOptions::default()
    };
    [
        solve("flat", &SketchRefineSolver, &SolveOptions::default()),
        solve("tree", &ProgressiveShadingSolver, &deep),
    ]
}

#[test]
fn sketch_family_answers_and_counters_match_the_recorded_rows() {
    let mut actual: Vec<Row> = Vec::new();
    for scenario in scenarios() {
        let smallest = scenario.gauntlet_sizes[0];
        for n in [smallest / 2, smallest] {
            actual.extend(solve_rows(&scenario, n));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(f, n, k, bits, nodes, iters, sum)| {
                let bits = match bits {
                    Some(b) => format!("Some({b:#018x})"),
                    None => "None".to_string(),
                };
                format!("    ({f:?}, {n}, {k:?}, {bits}, {nodes}, {iters}, {sum:#018x}),\n")
            })
            .collect();
        panic!("sketch-family solves differ from the recorded rows; actual:\n{table}");
    }
}
