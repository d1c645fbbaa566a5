//! Correlated and anti-correlated attribute pairs.
//!
//! The classic hard-knapsack literature (Pisinger) shows that *strongly
//! correlated* instances — where an item's payoff is proportional to its
//! cost plus a small constant — defeat greedy density ordering and widen
//! branch-and-bound trees: every item has nearly the same density, so LP
//! bounds are uninformative and ties abound. This family plants both
//! regimes in one relation:
//!
//! * `payoff_corr` ≈ `cost × U(0.9, 1.1)` — strongly correlated; maximising
//!   it under a cost budget is the adversarial case;
//! * `payoff_anti` ≈ `110 − cost` (±5) — anti-correlated; cheap items are
//!   the best items, so greedy is near-optimal and the pair acts as the
//!   control arm.
//!
//! Costs are uniform on (10, 100); `grade` buckets rows into quartiles by
//! cost for FILTERed aggregates.

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

/// Schema of the assets relation.
pub fn assets_schema() -> Schema {
    Schema::build(&[
        ("asset_id", ColumnType::Int),
        ("cost", ColumnType::Float),
        ("payoff_corr", ColumnType::Float),
        ("payoff_anti", ColumnType::Float),
        ("grade", ColumnType::Text),
    ])
}

/// `n` assets with the correlated/anti-correlated payoff pair.
pub fn assets(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("assets", assets_schema());
    for row in asset_rows(n, seed) {
        t.insert(row).expect("asset tuple matches schema");
    }
    t
}

/// [`assets`] as a lazy, prefix-stable row stream.
pub fn asset_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let cost = rng.random_range(10.0..100.0);
        let corr = cost * rng.random_range(0.9..1.1);
        let anti = 110.0 - cost + rng.random_range(-5.0..5.0);
        let grade = match cost {
            c if c < 32.5 => "a",
            c if c < 55.0 => "b",
            c if c < 77.5 => "c",
            _ => "d",
        };
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float((cost * 100.0).round() / 100.0),
            Value::Float((corr * 100.0).round() / 100.0),
            Value::Float((anti * 100.0).round() / 100.0),
            Value::Text(grade.to_string()),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payoffs_track_and_oppose_cost_as_documented() {
        let t = assets(400, Seed(6));
        for row in t.rows() {
            let cost = row.get_f64("cost").unwrap();
            let corr = row.get_f64("payoff_corr").unwrap();
            let anti = row.get_f64("payoff_anti").unwrap();
            assert!(
                corr >= cost * 0.9 - 0.01 && corr <= cost * 1.1 + 0.01,
                "corr {corr} vs cost {cost}"
            );
            assert!(
                (anti - (110.0 - cost)).abs() <= 5.01,
                "anti {anti} vs cost {cost}"
            );
        }
    }

    #[test]
    fn densities_cluster_near_one_in_the_correlated_arm() {
        // Near-constant value/weight density is what makes the instance hard.
        let t = assets(400, Seed(7));
        for row in t.rows() {
            let d = row.get_f64("payoff_corr").unwrap() / row.get_f64("cost").unwrap();
            assert!((0.89..=1.11).contains(&d), "density {d}");
        }
    }
}
