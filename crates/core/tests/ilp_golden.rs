//! Golden pivot-sequence pins for the exact core.
//!
//! Every registered scenario family's first gauntlet query is translated to
//! an ILP at two sizes; its root LP relaxation is solved cold, and the ILP
//! with `max_nodes = 2 000` on one and two threads. Each solve's status,
//! objective bits, node count, iteration count and a checksum of the value
//! vector are compared with recorded rows (a node cap reached without an
//! incumbent is an error that carries no counts — the root LP row still pins
//! that family's cold path). A kernel change that keeps every entering/leaving
//! choice and every floating-point summation order reproduces all of them;
//! one that moves a single pivot shifts the iteration count of the node it
//! happens in and, on node-capped solves, usually the incumbent too.
//!
//! The rows were first recorded before the flat-kernel rewrite of
//! `lp-solver`, and re-recorded when `LpMatrix::new` began merging
//! constraints on one linear form into one ranged row. That change moved
//! every family but `wide`, whose query repeats no form: every LP kept its
//! status and its objective within one ulp, every optimal ILP its objective
//! within 1e-9, and the node-capped `knapsack` 320 incumbent went from 57.25
//! to 57.51.
//!
//! To re-record after an *intended* trajectory change, run the test: the
//! failure message prints the table of actual rows in source form.

use datagen::{scenarios, Seed};
use lp_solver::{SolverConfig, Status};
use packagebuilder::ilp::translate;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use paql::compile;

/// `(family, n, "lp" | "ilp", status, objective bits, nodes, iterations,
/// values checksum)`.
type Row = (
    &'static str,
    usize,
    &'static str,
    &'static str,
    u64,
    usize,
    usize,
    u64,
);

const SEED: u64 = 20140901;
const MAX_NODES: usize = 2_000;

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("recipes", 350, "lp", "optimal", 0x406f2973ca6fda30, 0, 17, 0x2800f8d6cf92688c),
    ("recipes", 350, "ilp", "optimal", 0x406f200000000000, 43, 175, 0x9adea2d9177bfb1d),
    ("recipes", 700, "lp", "optimal", 0x406f2973ca6fda33, 0, 16, 0x89b6f0a931896e5a),
    ("recipes", 700, "ilp", "optimal", 0x406f200000000000, 23, 96, 0xe1df88cb68f67e55),
    ("stocks", 350, "lp", "optimal", 0x40b211030c95fe2f, 0, 16, 0xe2e71718d67069f6),
    ("stocks", 350, "ilp", "node-limit", 0x0000000000000000, 0, 0, 0x0000000000000000),
    ("stocks", 700, "lp", "optimal", 0x40b2c0b8388e6c42, 0, 22, 0xac8046ab5abf557b),
    ("stocks", 700, "ilp", "node-limit", 0x0000000000000000, 0, 0, 0x0000000000000000),
    ("travel", 350, "lp", "optimal", 0x4035d47898b54066, 0, 13, 0xb4cd465524da6184),
    ("travel", 350, "ilp", "optimal", 0x403599999999999a, 45, 319, 0x297ea2d9177bfb1d),
    ("travel", 700, "lp", "optimal", 0x40376d971ede6764, 0, 12, 0x0630c85536088ab7),
    ("travel", 700, "ilp", "optimal", 0x403619999999999a, 161, 1195, 0x129f88cb68f67e55),
    ("synthetic", 350, "lp", "optimal", 0x407ef0dbe3003788, 0, 28, 0x70dea2d9177bfb1d),
    ("synthetic", 350, "ilp", "optimal", 0x407ef0dbe3003788, 1, 28, 0x70dea2d9177bfb1d),
    ("synthetic", 700, "lp", "optimal", 0x407f1e125c411b0a, 0, 28, 0x29df88cb68f67e55),
    ("synthetic", 700, "ilp", "optimal", 0x407f1e125c411b0a, 1, 28, 0x29df88cb68f67e55),
    ("knapsack", 160, "lp", "optimal", 0x405155f775e8dd00, 0, 18, 0xf09dfe06de5fb96e),
    ("knapsack", 160, "ilp", "limit", 0x404cc66666666668, 2000, 8957, 0x374169c331cabfa5),
    ("knapsack", 320, "lp", "optimal", 0x4051992aac3f9eb8, 0, 20, 0x91fefbec2174fc27),
    ("knapsack", 320, "ilp", "limit", 0x404cc147ae147ae1, 2000, 11202, 0xb72e74aa1eda9c25),
    ("bulk", 300, "lp", "infeasible", 0x0000000000000000, 0, 302, 0xcbf29ce484222325),
    ("bulk", 300, "ilp", "infeasible", 0x0000000000000000, 1, 302, 0xcbf29ce484222325),
    ("bulk", 600, "lp", "infeasible", 0x0000000000000000, 0, 602, 0xcbf29ce484222325),
    ("bulk", 600, "ilp", "infeasible", 0x0000000000000000, 1, 602, 0xcbf29ce484222325),
    ("metrics", 128, "lp", "optimal", 0x404b000000000001, 0, 279, 0x68d1157a2c159ef4),
    ("metrics", 128, "ilp", "optimal", 0x404b000000000000, 429, 15116, 0x1781ae126c7ced25),
    ("metrics", 256, "lp", "optimal", 0x404affffffffffff, 0, 345, 0xed7c5a68f4df3919),
    ("metrics", 256, "ilp", "optimal", 0x404b000000000000, 397, 21333, 0x60eac658736bb725),
    ("wide", 128, "lp", "optimal", 0x407754cccccccccd, 0, 357, 0xad41ae126c7ced25),
    ("wide", 128, "ilp", "optimal", 0x407754cccccccccd, 1, 357, 0xad41ae126c7ced25),
    ("wide", 256, "lp", "optimal", 0x4077a00000000000, 0, 478, 0x74cac658736bb725),
    ("wide", 256, "ilp", "optimal", 0x4077a00000000000, 1, 478, 0x74cac658736bb725),
    ("correlated", 120, "lp", "optimal", 0x4074889fb64272bd, 0, 22, 0xbd7d4925e75f7871),
    ("correlated", 120, "ilp", "node-limit", 0x0000000000000000, 0, 0, 0x0000000000000000),
    ("correlated", 240, "lp", "optimal", 0x40748d5391dcf4d9, 0, 26, 0xd81bad2be024258a),
    ("correlated", 240, "ilp", "optimal", 0x40748851eb851eb8, 1347, 3443, 0x30b6c4b09523c5e5),
    ("lineitem", 250, "lp", "optimal", 0x4126c20cc61093a2, 0, 50, 0x01b7200ce3cb8e4b),
    ("lineitem", 250, "ilp", "optimal", 0x4126bc381999999a, 263, 714, 0xf9244a4a4e0bd84d),
    ("lineitem", 500, "lp", "optimal", 0x4127b0fce7e85ceb, 0, 46, 0x8c3faed12737f33f),
    ("lineitem", 500, "ilp", "optimal", 0x4127aec166666667, 495, 1629, 0x6a63fce62bd816b5),
];

/// FNV-1a over the bit patterns of the solution vector.
fn checksum(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(name: &'static str, n: usize, kind: &'static str, s: &lp_solver::Solution) -> Row {
    let status = match s.status {
        Status::Optimal => "optimal",
        Status::Infeasible => "infeasible",
        Status::Unbounded => "unbounded",
        Status::LimitReached => "limit",
    };
    let bits = if s.status.has_solution() {
        s.objective.to_bits()
    } else {
        0
    };
    (
        name,
        n,
        kind,
        status,
        bits,
        s.nodes,
        s.iterations,
        checksum(&s.values),
    )
}

/// The root LP row and the ILP row of one family at one size.
fn solve_rows(name: &'static str, n: usize, threads: usize) -> [Row; 2] {
    let scenario = datagen::scenario(name).expect("family is registered");
    let table = (scenario.build)(n, Seed(SEED));
    let analyzed = compile(&scenario.queries[0].text, table.schema()).expect("query compiles");
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).expect("spec builds");
    let problem = translate(spec.view())
        .expect("gauntlet queries are linear")
        .problem;
    let config = SolverConfig {
        max_nodes: MAX_NODES,
        num_threads: threads,
        ..SolverConfig::default()
    };
    let lp = lp_solver::solve_lp(&problem, None, &config).expect("root LP solves");
    let ilp = match lp_solver::solve(&problem, &config) {
        Ok(s) => row(name, n, "ilp", &s),
        Err(lp_solver::LpError::NodeLimit) => (name, n, "ilp", "node-limit", 0, 0, 0, 0),
        Err(e) => panic!("{name} n={n}: unexpected solver error {e}"),
    };
    [row(name, n, "lp", &lp), ilp]
}

#[test]
fn ilp_trajectories_match_the_recorded_rows_at_one_and_two_threads() {
    let mut actual: Vec<Row> = Vec::new();
    for scenario in scenarios() {
        for n in [scenario.exact_n / 2, scenario.exact_n] {
            let one = solve_rows(scenario.name, n, 1);
            let two = solve_rows(scenario.name, n, 2);
            assert_eq!(
                one, two,
                "{} n={n}: thread count changed the solve",
                scenario.name
            );
            actual.extend(one);
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(f, n, k, s, bits, nodes, iters, sum)| {
                format!(
                    "    ({f:?}, {n}, {k:?}, {s:?}, {bits:#018x}, {nodes}, {iters}, {sum:#018x}),\n"
                )
            })
            .collect();
        panic!("solver trajectories differ from the recorded rows; actual:\n{table}");
    }
}
