//! E4 — the meal-plan query end to end (paper §2, §7).
//!
//! Measures the full pipeline (parse → analyze → base constraints → ILP
//! translation → branch and bound) and the ILP translation step alone, on the
//! demo's running example.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use packagebuilder::config::Strategy;
use packagebuilder::ilp::translate;
use packagebuilder::spec::{BuildCtx, PackageSpec};
use pb_bench::{recipe_engine, recipe_table, run, MEAL_PLAN_QUERY};
use std::hint::black_box;

fn bench_mealplan(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_mealplan");
    group.sample_size(10);
    for &n in &[100usize, 500, 2000] {
        let engine = recipe_engine(n, Strategy::Ilp);
        group.bench_with_input(BenchmarkId::new("end_to_end_ilp", n), &n, |b, _| {
            b.iter(|| black_box(run(&engine, MEAL_PLAN_QUERY).best_objective()))
        });

        let table = recipe_table(n);
        let analyzed = paql::compile(MEAL_PLAN_QUERY, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("ilp_translation_only", n), &n, |b, _| {
            b.iter(|| black_box(translate(spec.view()).unwrap().problem.num_constraints()))
        });
        group.bench_with_input(BenchmarkId::new("parse_and_analyze", n), &n, |b, _| {
            b.iter(|| black_box(paql::compile(MEAL_PLAN_QUERY, table.schema()).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mealplan);
criterion_main!(benches);
