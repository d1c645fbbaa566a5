//! High-cardinality package instances: packages with ~10³ members.
//!
//! Every scenario before this one asked for packages of 3–10 tuples; the
//! paper's procurement workloads routinely select *thousands* of rows under
//! a budget. This family models a bulk purchase order: each row is an
//! order line with a `unit_cost` (uniform 1–3), an independent `utility`
//! (uniform 0.5–10) and a categorical `supplier`. The gauntlet query asks
//! for exactly 1 000 lines under a total-cost budget while maximising
//! utility — a shape whose LP relaxation is nearly integral (cost and
//! utility are independent) but whose *package size* stresses delta
//! evaluation, repair loops and local-search neighbourhood scans.

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

const SUPPLIERS: [&str; 8] = [
    "acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "hooli",
];

/// Schema of the bulk-order relation.
pub fn bulk_schema() -> Schema {
    Schema::build(&[
        ("line_id", ColumnType::Int),
        ("unit_cost", ColumnType::Float),
        ("utility", ColumnType::Float),
        ("lead_days", ColumnType::Float),
        ("supplier", ColumnType::Text),
    ])
}

/// `n` bulk order lines (see module docs for the distributions).
pub fn bulk_orders(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("orders", bulk_schema());
    for row in bulk_rows(n, seed) {
        t.insert(row).expect("bulk tuple matches schema");
    }
    t
}

/// [`bulk_orders`] as a lazy, prefix-stable row stream.
pub fn bulk_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let cost = rng.random_range(1.0..3.0);
        let utility = rng.random_range(0.5..10.0);
        let lead = rng.random_range(1.0..30.0);
        let supplier = SUPPLIERS[rng.random_range(0..SUPPLIERS.len())];
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float((cost * 100.0).round() / 100.0),
            Value::Float((utility * 100.0).round() / 100.0),
            Value::Float(lead.round()),
            Value::Text(supplier.to_string()),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_and_utilities_stay_in_their_documented_ranges() {
        let t = bulk_orders(500, Seed(3));
        for row in t.rows() {
            let c = row.get_f64("unit_cost").unwrap();
            let u = row.get_f64("utility").unwrap();
            assert!((1.0..=3.0).contains(&c), "cost {c}");
            assert!((0.5..=10.0).contains(&u), "utility {u}");
        }
    }

    #[test]
    fn a_thousand_cheapest_lines_fit_a_2300_budget_at_2000_rows() {
        // The gauntlet query (COUNT = 1000, SUM(unit_cost) <= 2300) must be
        // feasible at every gauntlet size; sizes are prefix-stable so the
        // smallest size is the binding check.
        let t = bulk_orders(2000, Seed(20140901));
        let mut costs: Vec<f64> = t.rows().map(|r| r.get_f64("unit_cost").unwrap()).collect();
        costs.sort_by(f64::total_cmp);
        let cheapest_1000: f64 = costs.iter().take(1000).sum();
        assert!(
            cheapest_1000 <= 2300.0,
            "cheapest 1000 cost {cheapest_1000}"
        );
    }
}
