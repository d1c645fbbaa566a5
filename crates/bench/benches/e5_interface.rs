//! E5 — interface backends (paper §3.1–§3.2, Figure 1).
//!
//! Measures the computations behind the interactive features: constraint
//! suggestion from a highlight, natural-language rendering of the query, and
//! the 2-D package-space summary, at interactive result-set sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minidb::TupleId;
use packagebuilder::package::Package;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::suggest::{suggest, Highlight};
use packagebuilder::summary::summarize;
use pb_bench::{recipe_table, MEAL_PLAN_QUERY};
use std::hint::black_box;

fn bench_interface(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_interface");
    group.sample_size(20);

    for &n in &[1_000usize, 10_000, 50_000] {
        let table = recipe_table(n);
        group.bench_with_input(BenchmarkId::new("suggest_cell", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    suggest(
                        &table,
                        "P",
                        &Highlight::Cell {
                            tuple: TupleId(0),
                            column: "fat".into(),
                        },
                    )
                    .unwrap()
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("suggest_column", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    suggest(
                        &table,
                        "P",
                        &Highlight::Column {
                            column: "calories".into(),
                        },
                    )
                    .unwrap()
                    .len(),
                )
            })
        });
    }

    // Natural-language description is independent of relation size.
    let query = paql::parse(MEAL_PLAN_QUERY).unwrap();
    group.bench_function("describe_query", |b| {
        b.iter(|| black_box(paql::pretty::describe_query(&query).len()))
    });

    // 2-D summary over m candidate packages.
    let table = recipe_table(2_000);
    let analyzed = paql::compile(MEAL_PLAN_QUERY, table.schema()).unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    for &m in &[100usize, 1_000, 10_000] {
        let packages: Vec<Package> = (0..m)
            .map(|i| {
                Package::from_ids(
                    spec.candidates
                        .iter()
                        .copied()
                        .cycle()
                        .skip(i % spec.candidates.len())
                        .take(3),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("summarize", m), &m, |b, _| {
            b.iter(|| black_box(summarize(&spec, &packages, Some(0)).unwrap().glyphs.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_interface);
criterion_main!(benches);
