//! Generic numeric tables for micro-benchmarks and property tests.

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

/// Schema of the generic benchmark tables: an id plus three numeric
/// attributes (`w`, `v`, `u`) usable as weight / value / auxiliary columns.
pub fn synthetic_schema() -> Schema {
    Schema::build(&[
        ("id", ColumnType::Int),
        ("w", ColumnType::Float),
        ("v", ColumnType::Float),
        ("u", ColumnType::Float),
    ])
}

/// `n` rows with `w ~ U(w_min, w_max)`, `v ~ U(0, 100)`, `u ~ U(0, 1)`.
pub fn uniform_table(name: &str, n: usize, w_min: f64, w_max: f64, seed: Seed) -> Table {
    let mut t = Table::new(name, synthetic_schema());
    for row in uniform_rows(n, w_min, w_max, seed) {
        t.insert(row).expect("synthetic tuple matches schema");
    }
    t
}

/// [`uniform_table`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn uniform_rows(n: usize, w_min: f64, w_max: f64, seed: Seed) -> impl Iterator<Item = Tuple> {
    assert!(w_max > w_min, "w_max must exceed w_min");
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float(rng.random_range(w_min..w_max)),
            Value::Float(rng.random_range(0.0..100.0)),
            Value::Float(rng.random_range(0.0..1.0)),
        ])
    })
}

/// `n` rows whose `w` follows an approximate Zipf(α) distribution over
/// `[w_min, w_max]` — a handful of very heavy tuples and a long light tail,
/// which stresses the cardinality-pruning bounds (MIN/MAX are extreme).
pub fn zipf_table(name: &str, n: usize, alpha: f64, w_min: f64, w_max: f64, seed: Seed) -> Table {
    let mut t = Table::new(name, synthetic_schema());
    for row in zipf_rows(n, alpha, w_min, w_max, seed) {
        t.insert(row).expect("synthetic tuple matches schema");
    }
    t
}

/// [`zipf_table`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn zipf_rows(
    n: usize,
    alpha: f64,
    w_min: f64,
    w_max: f64,
    seed: Seed,
) -> impl Iterator<Item = Tuple> {
    assert!(alpha > 0.0, "alpha must be positive");
    assert!(w_max > w_min, "w_max must exceed w_min");
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        // Power-law skew: raising a uniform sample to the (1 + α) power packs
        // most of the mass near `w_min` and leaves a heavy tail towards
        // `w_max`, which is the shape that stresses MIN/MAX-based pruning.
        let u: f64 = rng.random_range(0.0_f64..1.0).max(1e-12);
        let w = w_min + (w_max - w_min) * u.powf(1.0 + alpha);
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float(w),
            Value::Float(rng.random_range(0.0..100.0)),
            Value::Float(rng.random_range(0.0..1.0)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::stats::TableStats;

    #[test]
    fn uniform_stays_within_bounds() {
        let t = uniform_table("t", 500, 10.0, 20.0, Seed(1));
        let stats = TableStats::of_table(&t);
        let w = stats.column("w").unwrap();
        assert!(w.min >= 10.0 && w.max <= 20.0);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn zipf_is_skewed_towards_the_light_end() {
        let t = zipf_table("t", 2000, 1.2, 1.0, 1000.0, Seed(2));
        let below_mid = t.rows().filter(|r| r.get_f64("w").unwrap() < 500.0).count();
        assert!(
            below_mid > 1200,
            "zipf table should be skewed, got {below_mid}/2000 below midpoint"
        );
    }

    #[test]
    #[should_panic(expected = "w_max must exceed w_min")]
    fn invalid_bounds_panic() {
        uniform_table("t", 1, 5.0, 5.0, Seed(1));
    }
}
