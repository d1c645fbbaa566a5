//! Golden answer-and-counter pins for the sketch family.
//!
//! Every registered scenario family's first gauntlet query is solved at two
//! sizes by the flat solver at its defaults and by the tree solver through a
//! genuinely multi-layer tree (leaf size 8, fanout 4). Each solve's objective
//! bits, node count, iteration count and a checksum of the package are
//! compared with recorded rows. A change that keeps every sketch and the
//! refine ILP reproduces all of them; one that reorders a
//! single roll-up sum or drops a leaf from the shade moves a counter or the
//! package.
//!
//! The rows were first recorded before the two solvers were merged into one
//! pipeline, and re-recorded when `LpMatrix::new` began merging constraints on one linear
//! form into one ranged row: the sketch and refine ILPs shrank, the counters
//! moved on every family but `wide` and `travel` (which never reaches a
//! sketch ILP), every objective kept its bits, and the package moved only
//! on `metrics` flat at 500 and 1 000. They were re-recorded once more when
//! a sketch or refine sub-ILP that ends without a solution began to count its
//! nodes and iterations: 11 rows rose by one infeasible 1-node ILP each
//! (`travel`'s four, `knapsack` 200's two and 400 tree, `wide`'s four), and
//! no objective or package moved.
//!
//! They were re-recorded again when refine became one ILP over the members
//! of every drawn leaf instead of one sub-ILP per leaf with backtracking.
//! 19 rows moved; no objective fell and no package was lost (objective,
//! nodes and iterations, old → new; "moved" means the package changed):
//!
//! | family | n | path | objective | nodes | iterations | package |
//! |--------|---|------|-----------|-------|------------|---------|
//! | recipes | 250 | flat | 232.0 → 242.0 | 30 → 73 | 612 → 777 | moved |
//! | recipes | 250 | tree | 241.0 → 241.0 | 16 → 27 | 551 → 577 | same |
//! | recipes | 500 | tree | 236.0 → 243.0 | 40 → 52 | 1099 → 1140 | moved |
//! | stocks | 250 | flat | 4102.0 → 4387.0 | 5547 → 2552 | 11316 → 5242 | moved |
//! | stocks | 250 | tree | 4256.0 → 4256.0 | 277 → 314 | 558 → 653 | same |
//! | stocks | 500 | flat | 4220.0 → 4451.0 | 1819 → 2040 | 3600 → 4354 | moved |
//! | synthetic | 500 | flat | 496.8451 → 496.8451 | 13 → 4 | 48 → 28 | same |
//! | bulk | 1000 | flat | 5017.01 → 5017.01 | 17 → 2 | 1083 → 1024 | same |
//! | bulk | 1000 | tree | 5017.01 → 5017.01 | 132 → 5 | 1675 → 1190 | same |
//! | bulk | 2000 | flat | 7500.59 → 7500.59 | 17 → 2 | 1100 → 1040 | same |
//! | bulk | 2000 | tree | 7500.59 → 7500.59 | 132 → 5 | 1684 → 1192 | same |
//! | correlated | 250 | flat | 323.16 → 327.87 | 984 → 3478 | 2416 → 8428 | moved |
//! | correlated | 250 | tree | 321.36 → 323.3 | 804 → 1760 | 1576 → 3544 | moved |
//! | correlated | 500 | flat | 325.74 → 328.51 | 5530 → 7570 | 9029 → 16502 | moved |
//! | correlated | 500 | tree | 324.51 → 326.32 | 532 → 1388 | 1029 → 2791 | moved |
//! | lineitem | 5000 | flat | 774738.77 → 778124.56 | 44118 → 37582 | 99072 → 115071 | moved |
//! | lineitem | 5000 | tree | 765910.85 → 765910.85 | 24416 → 24820 | 73435 → 74746 | same |
//! | lineitem | 10000 | flat | 782979.38 → 786189.96 | 143866 → 89046 | 297149 → 215480 | moved |
//! | lineitem | 10000 | tree | 774589.83 → 774589.83 | 1275 → 1597 | 23818 → 24905 | same |
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
    ("recipes", 250, "flat", Some(0x406e400000000000), 73, 777, 0x2aceb67880a6e058),
    ("recipes", 250, "tree", Some(0x406e200000000000), 27, 577, 0xc7fd8741c7f46f8c),
    ("recipes", 500, "flat", Some(0x406e800000000000), 24, 1079, 0x2e0bee788367636c),
    ("recipes", 500, "tree", Some(0x406e600000000000), 52, 1140, 0x0c32a16276076f28),
    ("stocks", 250, "flat", Some(0x40b1230000000000), 2552, 5242, 0xee5bbac0db744c7b),
    ("stocks", 250, "tree", Some(0x40b0a00000000000), 314, 653, 0xd36f15bd3b2dc713),
    ("stocks", 500, "flat", Some(0x40b1630000000000), 2040, 4354, 0x1df77f9410a91d01),
    ("stocks", 500, "tree", Some(0x40ad780000000000), 426, 806, 0x6d402fa3885b3569),
    ("travel", 250, "flat", None, 1, 255, 0x0000000000000000),
    ("travel", 250, "tree", None, 1, 254, 0x0000000000000000),
    ("travel", 500, "flat", None, 1, 506, 0x0000000000000000),
    ("travel", 500, "tree", None, 1, 505, 0x0000000000000000),
    ("synthetic", 250, "flat", Some(0x407ed30d6513bff3), 2, 33, 0x009a4239122e405a),
    ("synthetic", 250, "tree", Some(0x407ed30d6513bff3), 4, 25, 0x009a4239122e405a),
    ("synthetic", 500, "flat", Some(0x407f0d855cb001bc), 4, 28, 0x6e26b747e99bdfcf),
    ("synthetic", 500, "tree", Some(0x407f0d855cb001bc), 6, 31, 0x6e26b747e99bdfcf),
    ("knapsack", 200, "flat", None, 4, 803, 0x0000000000000000),
    ("knapsack", 200, "tree", None, 4, 803, 0x0000000000000000),
    ("knapsack", 400, "flat", Some(0x404d23d70a3d70a4), 7, 1624, 0x03c7df843df2b232),
    ("knapsack", 400, "tree", None, 4, 1603, 0x0000000000000000),
    ("bulk", 1000, "flat", Some(0x40b399028f5c28f8), 2, 1024, 0x5ba76aa473ab768d),
    ("bulk", 1000, "tree", Some(0x40b399028f5c28f8), 5, 1190, 0x5ba76aa473ab768d),
    ("bulk", 2000, "flat", Some(0x40bd4c970a3d70a4), 2, 1040, 0xa942ac5b9c008d8b),
    ("bulk", 2000, "tree", Some(0x40bd4c970a3d70a4), 5, 1192, 0xa942ac5b9c008d8b),
    ("metrics", 500, "flat", Some(0x404b000000000000), 924, 17902, 0x141baa5e284e9d1d),
    ("metrics", 500, "tree", Some(0x404a0a3d70a3d70a), 6, 1237, 0xb8ed75b0867abc47),
    ("metrics", 1000, "flat", Some(0x404b000000000000), 92, 5434, 0xe09bc374b1bc7ea0),
    ("metrics", 1000, "tree", Some(0x404a39999999999a), 17, 2367, 0xf573cf44843881c7),
    ("wide", 300, "flat", Some(0x406c866666666669), 9, 2527, 0xfbff37c0f83f1f69),
    ("wide", 300, "tree", Some(0x406c866666666669), 9, 2527, 0xfbff37c0f83f1f69),
    ("wide", 600, "flat", Some(0x406c86666666666e), 9, 4928, 0xfbff37c0f83f1f69),
    ("wide", 600, "tree", Some(0x406c86666666666e), 9, 4930, 0xfbff37c0f83f1f69),
    ("correlated", 250, "flat", Some(0x40747deb851eb852), 3478, 8428, 0xb82293bb92eef8c5),
    ("correlated", 250, "tree", Some(0x407434cccccccccc), 1760, 3544, 0x40172e0abd277393),
    ("correlated", 500, "flat", Some(0x40748828f5c28f5c), 7570, 16502, 0x6e41f2277f7bf57d),
    ("correlated", 500, "tree", Some(0x4074651eb851eb86), 1388, 2791, 0x0ba88d7e9c39bbb0),
    ("lineitem", 5000, "flat", Some(0x4127bf191eb851eb), 37582, 115071, 0x9b6117a42e7845d9),
    ("lineitem", 5000, "tree", Some(0x41275fadb3333333), 24820, 74746, 0x6fc84682e62ce721),
    ("lineitem", 10000, "flat", Some(0x4127fe1beb851eb8), 89046, 215480, 0x3ebda70c8869e047),
    ("lineitem", 10000, "tree", Some(0x4127a37ba8f5c290), 1597, 24905, 0xab55b68a44314b8f),
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
