//! Tight-feasibility knapsack instances where greedy construction fails.
//!
//! The relation plants two populations:
//!
//! * **planted** items (every 8th row): weight ≈ 20 (±0.4), modest value —
//!   the only tuples that can land a 5-member package inside the tight
//!   98..102 weight window (5 × [19.6, 20.4] = [98, 102]);
//! * **decoy** items (the other 7/8): weight 33–70, value 45–90 — the
//!   high-value tuples a value-greedy construction grabs first, each one
//!   enough to overshoot the window.
//!
//! Any greedy pass ordered by objective value therefore builds an
//! infeasible package and must *repair* its way across the population gap
//! (swap every decoy for a planted item) — the adversarial regime of the
//! engine's `repair_to_feasibility`. The exact solver proves the instance
//! feasible, so "no package" is never an honest answer for the
//! `knapsack` queries in [`mod@crate::scenarios`].

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

/// Every 8th row is a planted (window-compatible) item.
pub const PLANT_STRIDE: usize = 8;

/// Schema of the knapsack relation: id, weight/value pair, the value/weight
/// density, and the population tag (`planted` / `decoy`).
pub fn knapsack_schema() -> Schema {
    Schema::build(&[
        ("item_id", ColumnType::Int),
        ("weight", ColumnType::Float),
        ("value", ColumnType::Float),
        ("density", ColumnType::Float),
        ("kind", ColumnType::Text),
    ])
}

/// `n` knapsack items with the planted/decoy split described in the module
/// docs.
pub fn knapsack_items(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("knapsack", knapsack_schema());
    for row in knapsack_rows(n, seed) {
        t.insert(row).expect("knapsack tuple matches schema");
    }
    t
}

/// [`knapsack_items`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn knapsack_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let planted = i.is_multiple_of(PLANT_STRIDE);
        let (weight, value, kind) = if planted {
            // Five of these always sum into [98, 102].
            let w = rng.random_range(19.6..20.4);
            let v = rng.random_range(8.0..12.0);
            (w, v, "planted")
        } else {
            // Individually juicy, collectively infeasible for the window.
            let w = rng.random_range(33.0..70.0);
            let v = rng.random_range(45.0..90.0);
            (w, v, "decoy")
        };
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float((weight * 100.0).round() / 100.0),
            Value::Float((value * 100.0).round() / 100.0),
            Value::Float((value / weight * 1000.0).round() / 1000.0),
            Value::Text(kind.to_string()),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::RowView;

    fn kind_of(row: &RowView<'_>) -> Value {
        row.get_named("kind").unwrap()
    }

    #[test]
    fn populations_are_separated_as_documented() {
        let t = knapsack_items(400, Seed(1));
        let planted_tag = Value::Text("planted".into());
        for row in t.rows() {
            let w = row.get_f64("weight").unwrap();
            if kind_of(&row) == planted_tag {
                assert!((19.5..=20.5).contains(&w), "planted weight {w}");
            } else {
                assert!((32.5..=70.5).contains(&w), "decoy weight {w}");
            }
        }
        let planted = t.rows().filter(|r| kind_of(r) == planted_tag).count();
        assert_eq!(planted, 400 / PLANT_STRIDE);
    }

    #[test]
    fn five_planted_items_fit_the_window_and_five_decoys_overshoot() {
        let t = knapsack_items(200, Seed(2));
        let planted_tag = Value::Text("planted".into());
        let planted: Vec<f64> = t
            .rows()
            .filter(|r| kind_of(r) == planted_tag)
            .map(|r| r.get_f64("weight").unwrap())
            .collect();
        let any_five: f64 = planted.iter().take(5).sum();
        assert!((98.0..=102.0).contains(&any_five), "planted sum {any_five}");
        let mut decoys: Vec<f64> = t
            .rows()
            .filter(|r| kind_of(r) != planted_tag)
            .map(|r| r.get_f64("weight").unwrap())
            .collect();
        decoys.sort_by(f64::total_cmp);
        let lightest_five: f64 = decoys.iter().take(5).sum();
        assert!(lightest_five > 102.0, "decoy sum {lightest_five}");
    }
}
