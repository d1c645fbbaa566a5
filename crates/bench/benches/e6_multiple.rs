//! E6 — multiple and diverse package results (paper §5).
//!
//! Measures the cost of retrieving p packages by re-solving with no-good
//! cuts (the paper's "retrieving more packages requires modifying and
//! re-evaluating the query") and the max-min diverse selection over a pool of
//! enumerated packages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lp_solver::SolverConfig;
use packagebuilder::budget::Budget;
use packagebuilder::diversity::select_diverse;
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::ilp::solve_ilp;
use packagebuilder::package::Package;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use pb_bench::recipe_table;
use std::hint::black_box;

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R \
    SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1500 MAXIMIZE SUM(P.protein)";

fn bench_multiple(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_multiple");
    group.sample_size(10);

    let table = recipe_table(200);
    let analyzed = paql::compile(QUERY, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();

    for &p in &[1usize, 5, 10, 20] {
        group.bench_with_input(BenchmarkId::new("ilp_with_cuts", p), &p, |b, &p| {
            b.iter(|| {
                black_box(
                    solve_ilp(
                        spec.view(),
                        &SolverConfig::default(),
                        p,
                        &Budget::unlimited(),
                    )
                    .unwrap()
                    .packages
                    .len(),
                )
            })
        });
    }

    // Diverse selection over an enumerated pool (small relation keeps the
    // pool generation cheap; the measured part is the selection).
    let small = recipe_table(18);
    let analyzed = paql::compile(QUERY, small.schema()).unwrap();
    let small_spec = PackageSpec::build(&analyzed, &small, &BuildCtx::default()).unwrap();
    let pool: Vec<Package> = enumerate(
        small_spec.view(),
        EnumerationOptions {
            keep: 5_000,
            ..Default::default()
        },
    )
    .unwrap()
    .packages
    .into_iter()
    .map(|(p, _)| p)
    .collect();
    for &k in &[5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::new("select_diverse", k), &k, |b, &k| {
            b.iter(|| black_box(select_diverse(&pool, k).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multiple);
criterion_main!(benches);
