//! Metric names, units and how each is computed from the recorded passes.
//!
//! Times are the fastest sample over passes (see [`crate::stats::best`]):
//! per operation kind for the plain passes, per layer for the traced ones.
//! Counts are the middle value over passes, which is the exact per-pass
//! count whenever the count repeats.

use std::collections::BTreeMap;

use packagebuilder::CacheStats;

use crate::clock::ms;
use crate::runner::PassRecord;
use crate::stats::{best, median, middle, quantile};
use crate::trace::PassSelfTimes;
use crate::workloads::KINDS;

/// One reported metric.
pub type Metric = (String, f64, &'static str);

/// Per-layer times: metric, unit of the metric, and the span it is the self
/// time of. `probe.*` spans repeat work outside the operation's span.
const SPAN_TIMES: [(&str, &str); 23] = [
    ("paql.parse_ms", "paql.parse"),
    ("paql.analyze_ms", "paql.analyze"),
    ("engine.plan_ms", "engine.plan"),
    ("engine.validate_ms", "engine.validate"),
    ("engine.other_ms", "engine.other"),
    ("pruning.bounds_ms", "pruning.bounds"),
    ("cache.hit_build_ms", "cache.hit_build"),
    ("cache.miss_build_ms", "cache.miss_build"),
    ("minidb.append_ms", "minidb.append"),
    ("greedy.solve_ms", "solve.greedy"),
    ("sketch_refine.solve_ms", "solve.sketch_refine"),
    ("shading.solve_ms", "solve.shading"),
    ("enumerate.solve_ms", "solve.enumerate"),
    ("local_search.solve_ms", "solve.local_search"),
    ("suggest.ms", "suggest"),
    ("explore.refine_ms", "explore.refine"),
    ("spec.scan_ms", "probe.scan"),
    ("ilp.translate_ms", "probe.translate"),
    ("lp-solver.solve_ms", "probe.milp"),
    ("lp-solver.root_lp_ms", "probe.root_lp"),
    ("greedy.floor_ms", "probe.greedy_floor"),
    ("partition.flat_ms", "probe.partition_flat"),
    ("partition.tree_ms", "probe.partition_tree"),
];

/// Counts taken at the layer boundaries of traced passes.
const TRACED_COUNTS: [&str; 5] = [
    "pruning.short_circuits",
    "spec.rows_scanned",
    "spec.candidates",
    "view.terms_built",
    "partition.leaves",
];

/// Search counters by the strategy label of the answers that carry them.
const SEARCH_COUNTS: [(&str, &str, bool); 6] = [
    ("lp-solver.nodes", "ilp", false),
    ("lp-solver.iterations", "ilp", true),
    ("sketch_refine.nodes", "sketch-refine", false),
    ("shading.nodes", "progressive-shading", false),
    ("enumerate.nodes", "pruned-enumeration", false),
    ("local_search.moves", "local-search", false),
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = SPAN_TIMES
        .iter()
        .map(|(metric, _)| (metric.to_string(), "ms"))
        .collect();
    for metric in ["engine.solve_ms", "view.materialize_ms"] {
        names.push((metric.to_string(), "ms"));
    }
    names.push(("lp-solver.us_per_iteration".to_string(), "us"));
    for metric in TRACED_COUNTS {
        names.push((metric.to_string(), "count"));
    }
    for (metric, ..) in SEARCH_COUNTS {
        names.push((metric.to_string(), "count"));
    }
    for metric in [
        "cache.hits",
        "cache.misses",
        "cache.columns_reused",
        "cache.columns_built",
        "column_store.pool_hits",
        "column_store.pool_misses",
        "column_store.pool_evictions",
        "column_store.pages_spilled",
    ] {
        names.push((metric.to_string(), "count"));
    }
    names.push(("column_store.hit_ratio".to_string(), "ratio"));
    names.push(("cache.resident_mb".to_string(), "MB"));
    names.push(("cache.memo_mb".to_string(), "MB"));
    for (_, kinds) in KINDS {
        for kind in kinds.iter() {
            names.push((format!("kind.{kind}_ms"), "ms"));
        }
    }
    for metric in [
        "par.two_thread_pass_ms",
        "host.pass_ms_p10",
        "host.pass_ms_p50",
        "host.query_ms_p95",
        "host.calib_ms",
    ] {
        names.push((metric.to_string(), "ms"));
    }
    for metric in [
        "par.two_thread_over_one",
        "host.pass_p50_over_best",
        "trace.overhead_ratio",
    ] {
        names.push((metric.to_string(), "ratio"));
    }
    names
}

fn pass_ms(passes: &[PassRecord]) -> Vec<f64> {
    passes.iter().map(|p| ms(p.pass_ns)).collect()
}

/// Per-kind latencies over the passes, by script index.
fn kind_ms(passes: &[PassRecord], index: usize) -> Vec<f64> {
    passes.iter().map(|p| ms(p.op_ns[index])).collect()
}

/// `VmHWM` of this process in MB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fastest latency of each kind over the passes, by script index.
fn kind_best(passes: &[PassRecord]) -> Vec<f64> {
    let kinds = passes.first().map_or(0, |p| p.op_ns.len());
    (0..kinds).map(|i| best(&kind_ms(passes, i))).collect()
}

/// The undisturbed time to serve the whole script: the sum over kinds of
/// each kind's fastest latency. A pass is long enough to overlap some
/// interference almost every time; its operations are short enough that
/// each meets a quiet moment within a run.
pub fn pass_ms_best(passes: &[PassRecord]) -> f64 {
    kind_best(passes).iter().sum()
}

pub fn end_to_end(setup_s: &[f64], passes: &[PassRecord], quality_mean: f64) -> Vec<Metric> {
    let fastest = kind_best(passes);
    let worst = fastest
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .unwrap_or(0.0);
    vec![
        ("setup_s".to_string(), best(setup_s), "s"),
        ("pass_ms_best".to_string(), fastest.iter().sum(), "ms"),
        ("query_ms_worst".to_string(), worst, "ms"),
        ("quality_mean".to_string(), quality_mean, "ratio"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
    ]
}

/// What a traced run hands over.
pub struct TraceInputs<'a> {
    /// Script kinds, by script index.
    pub kinds: Vec<&'static str>,
    pub untraced: &'a [PassRecord],
    pub calib_ms: &'a [f64],
    pub traced: &'a [(PassSelfTimes, PassRecord)],
    /// `scale_paged`'s plain passes on two threads; empty elsewhere.
    pub two_threads: &'a [PassRecord],
    pub cache: CacheStats,
}

pub fn per_layer(input: &TraceInputs<'_>) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let over_traced = |f: &dyn Fn(&PassSelfTimes, &PassRecord) -> f64| -> Vec<f64> {
        input.traced.iter().map(|(t, r)| f(t, r)).collect()
    };
    let span_ns = |t: &PassSelfTimes, span: &str| t.self_ns.get(span).copied().unwrap_or(0);

    for (metric, span) in SPAN_TIMES {
        values.insert(
            metric.to_string(),
            best(&over_traced(&|t, _| ms(span_ns(t, span)))),
        );
    }
    values.insert(
        "engine.solve_ms".to_string(),
        best(&over_traced(&|t, _| {
            ms(t.self_ns
                .iter()
                .filter(|(name, _)| name.starts_with("solve."))
                .map(|(_, ns)| *ns)
                .sum())
        })),
    );
    // Scan and materialization are one call from outside; the probe repeats
    // the scan, and the rest of the miss build is materialization.
    values.insert(
        "view.materialize_ms".to_string(),
        best(&over_traced(&|t, _| {
            ms(span_ns(t, "cache.miss_build").saturating_sub(span_ns(t, "probe.scan")))
        })),
    );
    values.insert(
        "lp-solver.us_per_iteration".to_string(),
        best(&over_traced(
            &|t, r| match r.counts.get("probe.milp_iterations") {
                Some(&iterations) if iterations > 0 => {
                    span_ns(t, "probe.milp") as f64 / 1e3 / iterations as f64
                }
                _ => 0.0,
            },
        )),
    );
    for metric in TRACED_COUNTS {
        values.insert(
            metric.to_string(),
            middle(&over_traced(&|_, r| {
                r.counts.get(metric).copied().unwrap_or(0) as f64
            })),
        );
    }

    let over_untraced = |f: &dyn Fn(&PassRecord) -> f64| -> f64 {
        middle(&input.untraced.iter().map(f).collect::<Vec<_>>())
    };
    for (metric, label, iterations) in SEARCH_COUNTS {
        values.insert(
            metric.to_string(),
            over_untraced(&|r| {
                r.answers
                    .iter()
                    .flatten()
                    .filter(|a| a.strategy == label)
                    .map(|a| if iterations { a.iterations } else { a.nodes })
                    .sum::<u64>() as f64
            }),
        );
    }
    type Read = fn(&PassRecord) -> u64;
    let counters: [(&str, Read); 8] = [
        ("cache.hits", |r| r.cache.hits),
        ("cache.misses", |r| r.cache.misses),
        ("cache.columns_reused", |r| r.cache.columns_reused),
        ("cache.columns_built", |r| r.cache.columns_built),
        ("column_store.pool_hits", |r| r.pool.hits),
        ("column_store.pool_misses", |r| r.pool.misses),
        ("column_store.pool_evictions", |r| r.pool.evictions),
        ("column_store.pages_spilled", |r| r.pool.pages_spilled),
    ];
    for (metric, read) in counters {
        values.insert(metric.to_string(), over_untraced(&|r| read(r) as f64));
    }
    let (hits, misses) = (
        values["column_store.pool_hits"],
        values["column_store.pool_misses"],
    );
    values.insert(
        "column_store.hit_ratio".to_string(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    values.insert(
        "cache.resident_mb".to_string(),
        input.cache.resident_bytes as f64 / 1e6,
    );
    values.insert(
        "cache.memo_mb".to_string(),
        input.cache.memo_bytes as f64 / 1e6,
    );

    for (kind, fastest) in input.kinds.iter().zip(kind_best(input.untraced)) {
        values.insert(format!("kind.{kind}_ms"), fastest);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let passes = pass_ms(input.untraced);
    let all_ops: Vec<f64> = input
        .untraced
        .iter()
        .flat_map(|p| p.op_ns.iter().map(|&ns| ms(ns)))
        .collect();
    // Medians, tails and the 10th percentile move with the host (the README
    // has the numbers); they are here so the interference is visible.
    values.insert("host.pass_ms_p10".to_string(), quantile(&passes, 0.10));
    values.insert("host.pass_ms_p50".to_string(), median(&passes));
    values.insert("host.query_ms_p95".to_string(), quantile(&all_ops, 0.95));
    values.insert("host.calib_ms".to_string(), best(input.calib_ms));
    values.insert(
        "host.pass_p50_over_best".to_string(),
        ratio(median(&passes), pass_ms_best(input.untraced)),
    );
    // Whole passes on both sides: a traced pass has no per-kind times that
    // exclude its probes.
    values.insert(
        "trace.overhead_ratio".to_string(),
        ratio(best(&over_traced(&|t, _| ms(t.root_ns))), best(&passes)),
    );
    let contended = pass_ms(input.two_threads);
    values.insert("par.two_thread_pass_ms".to_string(), median(&contended));
    values.insert(
        "par.two_thread_over_one".to_string(),
        ratio(median(&contended), median(&passes)),
    );

    // Every name, in report order; kinds of other workloads read 0.
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}
