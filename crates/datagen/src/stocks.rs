//! Synthetic stock dataset (the investment-portfolio scenario).

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

const SECTORS: &[&str] = &[
    "technology",
    "healthcare",
    "energy",
    "finance",
    "consumer",
    "industrial",
    "utilities",
    "materials",
];
const HORIZONS: &[&str] = &["short", "long"];

/// Stock schema: one row is a purchasable lot of a stock option.
pub fn stock_schema() -> Schema {
    Schema::build(&[
        ("lot_id", ColumnType::Int),
        ("ticker", ColumnType::Text),
        ("sector", ColumnType::Text),
        ("horizon", ColumnType::Text),
        ("price", ColumnType::Float),
        ("expected_return", ColumnType::Float),
        ("risk", ColumnType::Float),
        ("dividend_yield", ColumnType::Float),
    ])
}

/// Generates `n` stock lots.
///
/// Prices are drawn so that a $50K budget (the intro scenario) buys on the
/// order of 10–40 lots; roughly 30% of lots are technology so the "at least
/// 30% in technology" constraint is binding but satisfiable; expected return
/// is positively correlated with risk so the optimizer has a real trade-off.
pub fn stocks(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("stocks", stock_schema());
    for row in stock_rows(n, seed) {
        t.insert(row).expect("stock tuple matches schema");
    }
    t
}

/// [`stocks`] as a lazy row stream (see [`crate::recipes::recipe_rows`] for
/// the streaming contract: one row buffered at a time, prefix-stable).
pub fn stock_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let sector = if rng.random_range(0.0..1.0) < 0.30 {
            "technology"
        } else {
            SECTORS[rng.random_range(1..SECTORS.len())]
        };
        let horizon = HORIZONS[rng.random_range(0..HORIZONS.len())];
        let ticker: String = (0..4)
            .map(|_| (b'A' + rng.random_range(0..26) as u8) as char)
            .collect();
        let price = (rng.random_range(800.0..6000.0_f64)).round();
        let risk = rng.random_range(0.05..0.6_f64);
        // Expected annual return in dollars: correlated with risk and price.
        let expected_return = (price * (0.02 + risk * rng.random_range(0.1..0.4))).round();
        let dividend_yield = (rng.random_range(0.0..0.05_f64) * 1000.0).round() / 1000.0;
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Text(format!("{ticker}-{i}")),
            Value::Text(sector.to_string()),
            Value::Text(horizon.to_string()),
            Value::Float(price),
            Value::Float(expected_return),
            Value::Float((risk * 100.0).round() / 100.0),
            Value::Float(dividend_yield),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::stats::TableStats;

    #[test]
    fn size_and_schema() {
        let t = stocks(300, Seed(1));
        assert_eq!(t.len(), 300);
        assert_eq!(t.schema().arity(), stock_schema().arity());
    }

    #[test]
    fn tech_fraction_supports_the_30_percent_constraint() {
        let t = stocks(1000, Seed(2));
        let tech = t
            .rows()
            .filter(|r| r.values()[2] == Value::Text("technology".into()))
            .count();
        assert!(tech > 200 && tech < 450, "tech lots: {tech}");
    }

    #[test]
    fn budget_buys_a_nontrivial_portfolio() {
        let t = stocks(500, Seed(3));
        let stats = TableStats::of_table(&t);
        let price = stats.column("price").unwrap();
        assert!(price.min >= 800.0);
        assert!(price.max <= 6000.0);
        // $50K buys at least ~8 of the most expensive lots.
        assert!(50_000.0 / price.max >= 8.0);
    }

    #[test]
    fn return_is_positive_and_bounded_by_price() {
        let t = stocks(200, Seed(4));
        for row in t.rows() {
            let price = row.get_f64("price").unwrap();
            let ret = row.get_f64("expected_return").unwrap();
            assert!(ret > 0.0);
            assert!(ret < price * 0.3);
        }
    }
}
