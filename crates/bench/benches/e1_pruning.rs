//! E1 — cardinality-based pruning (paper §4.1).
//!
//! Measures enumeration with and without pruning on the meal-plan query as
//! the candidate count grows, reproducing the claim that pruning shrinks the
//! search space from `2^n` to `Σ_k C(n,k)` without losing solutions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use pb_bench::{recipe_table, MEAL_PLAN_QUERY_NO_FILTER};
use std::hint::black_box;

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_pruning");
    group.sample_size(10);
    for &n in &[12usize, 16, 20] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    enumerate(
                        spec.view(),
                        EnumerationOptions {
                            prune: false,
                            keep: 1,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .nodes,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    enumerate(
                        spec.view(),
                        EnumerationOptions {
                            prune: true,
                            keep: 1,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .nodes,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
