//! E7 — REPEAT (multiset) semantics (paper §2).
//!
//! Measures the ILP strategy as the REPEAT bound grows, and checks the cost
//! of multiset enumeration on small inputs. The objective is monotone in the
//! REPEAT bound (verified by the harness), since every package valid under
//! `REPEAT k` is valid under `REPEAT k+1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use packagebuilder::config::Strategy;
use packagebuilder::enumerate::{enumerate, EnumerationOptions};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use pb_bench::{recipe_engine, recipe_table, run};
use std::hint::black_box;

fn repeat_query(k: u32) -> String {
    format!(
        "SELECT PACKAGE(R) AS P FROM recipes R REPEAT {k} \
         SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
         MAXIMIZE SUM(P.protein)"
    )
}

fn bench_repeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_repeat");
    group.sample_size(10);

    let engine = recipe_engine(300, Strategy::Ilp);
    for &k in &[1u32, 2, 3, 4] {
        let q = repeat_query(k);
        group.bench_with_input(BenchmarkId::new("ilp_repeat", k), &k, |b, _| {
            b.iter(|| black_box(run(&engine, &q).best_objective()))
        });
    }

    // Multiset enumeration: the unpruned space is (k+1)^n, so keep n tiny.
    let table = recipe_table(10);
    for &k in &[1u32, 2, 3] {
        let q = repeat_query(k);
        let analyzed = paql::compile(&q, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("enumeration_repeat", k), &k, |b, _| {
            b.iter(|| {
                black_box(
                    enumerate(spec.view(), EnumerationOptions::default())
                        .unwrap()
                        .nodes,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repeat);
criterion_main!(benches);
