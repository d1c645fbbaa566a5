//! E3 — the k-tuple replacement neighbourhood (paper §4.2).
//!
//! Measures (a) the single-tuple replacement relational query (a selection
//! over a Cartesian product, exactly the paper's SQL query) as the relation
//! grows, and (b) local search with k = 1 vs k = 2, reproducing the claim
//! that the 2k-way join "quickly becomes intractable".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use packagebuilder::local_search::{local_search, single_replacement_query, LocalSearchOptions};
use packagebuilder::package::Package;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use pb_bench::{recipe_table, MEAL_PLAN_QUERY_NO_FILTER};
use std::hint::black_box;

fn bench_replacement(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_replacement");
    group.sample_size(10);
    for &n in &[100usize, 400, 1600] {
        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        // Pick the three recipes closest to 900 kcal: the package lands a few
        // hundred calories over the 2,500 budget, so single-tuple repairs exist
        // (mirroring the paper's 3,000-calorie example).
        let mut by_cal = spec.candidates.clone();
        by_cal.sort_by(|a, b| {
            let da = (table.value_f64(*a, "calories").unwrap() - 900.0).abs();
            let db = (table.value_f64(*b, "calories").unwrap() - 900.0).abs();
            da.total_cmp(&db)
        });
        let package = Package::from_ids(by_cal.iter().copied().take(3));
        let total: f64 = package
            .members()
            .map(|(id, m)| table.value_f64(id, "calories").unwrap() * m as f64)
            .sum();
        group.bench_with_input(
            BenchmarkId::new("single_replacement_query", n),
            &n,
            |b, _| {
                b.iter(|| {
                    black_box(
                        single_replacement_query(
                            &table,
                            &package,
                            &spec.candidates,
                            "calories",
                            total,
                            2500.0,
                        )
                        .unwrap()
                        .len(),
                    )
                })
            },
        );
    }
    // Local search k = 1 vs k = 2 at a fixed size.
    let table = recipe_table(200);
    let analyzed = paql::compile(MEAL_PLAN_QUERY_NO_FILTER, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for k in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("local_search_k", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    local_search(
                        spec.view(),
                        &LocalSearchOptions {
                            k,
                            restarts: 2,
                            max_moves: 200,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .evaluations,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replacement);
criterion_main!(benches);
