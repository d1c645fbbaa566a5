//! TPC-H-lite `lineitem`: the production-scale table of the gauntlet.
//!
//! A deliberately simplified cousin of TPC-H's `lineitem` with the columns
//! package queries actually touch: quantity (1–50), extended price
//! (quantity × a unit price of 100–2 000), discount (0–0.10),
//! tax (0–0.08), a return flag (`A`/`N`/`R`, roughly TPC-H's mix) and a
//! ship mode. Generation is a single prefix-stable stream, so the
//! 10⁵-row CI size and the opt-in 10⁶–10⁷ sizes share every leading row —
//! results at one scale stay comparable with the next.
//!
//! This family is where out-of-core behaviour and view-build parallelism
//! matter: at 10⁶ rows a three-term query materialises ~24 MB of term
//! columns, crossing the default column-memory budget into the paged
//! store.

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

const SHIP_MODES: [&str; 7] = ["air", "air_reg", "fob", "mail", "rail", "ship", "truck"];

/// Schema of the lineitem relation.
pub fn lineitem_schema() -> Schema {
    Schema::build(&[
        ("l_linenumber", ColumnType::Int),
        ("l_quantity", ColumnType::Float),
        ("l_extendedprice", ColumnType::Float),
        ("l_discount", ColumnType::Float),
        ("l_tax", ColumnType::Float),
        ("l_returnflag", ColumnType::Text),
        ("l_shipmode", ColumnType::Text),
    ])
}

/// `n` line items (see module docs for the distributions).
pub fn lineitem(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("lineitem", lineitem_schema());
    for row in lineitem_rows(n, seed) {
        t.insert(row).expect("lineitem tuple matches schema");
    }
    t
}

/// [`lineitem`] as a lazy, prefix-stable row stream.
pub fn lineitem_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let quantity = rng.random_range(1..=50) as f64;
        let unit_price = rng.random_range(100.0..2000.0);
        let discount = rng.random_range(0..=10) as f64 / 100.0;
        let tax = rng.random_range(0..=8) as f64 / 100.0;
        // Roughly TPC-H's flag mix: half 'N', the rest split 'A'/'R'.
        let flag = match rng.random_range(0..4u32) {
            0 => "A",
            1 => "R",
            _ => "N",
        };
        let mode = SHIP_MODES[rng.random_range(0..SHIP_MODES.len())];
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Float(quantity),
            Value::Float((quantity * unit_price * 100.0).round() / 100.0),
            Value::Float(discount),
            Value::Float(tax),
            Value::Text(flag.to_string()),
            Value::Text(mode.to_string()),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantities_prices_and_rates_stay_in_tpch_ranges() {
        let t = lineitem(600, Seed(8));
        for row in t.rows() {
            let q = row.get_f64("l_quantity").unwrap();
            let p = row.get_f64("l_extendedprice").unwrap();
            let d = row.get_f64("l_discount").unwrap();
            let tax = row.get_f64("l_tax").unwrap();
            assert!(
                (1.0..=50.0).contains(&q) && q.fract() == 0.0,
                "quantity {q}"
            );
            assert!((100.0..=50.0 * 2000.0).contains(&p), "price {p}");
            assert!((0.0..=0.10).contains(&d), "discount {d}");
            assert!((0.0..=0.08).contains(&tax), "tax {tax}");
        }
    }

    #[test]
    fn rows_cost_their_typed_cells_and_nothing_per_row() {
        // The layout guard, as a count rather than a timing: five 8-byte
        // numbers, two 4-byte dictionary codes and seven NULL bits a row,
        // plus two dictionaries of 3 and 7 short strings. A row store of
        // 32-byte values behind a per-row vector was over 250 B/row.
        let n = 10_000;
        let bytes = lineitem(n, Seed(10)).approx_bytes();
        assert!(bytes >= n * (5 * 8 + 2 * 4));
        assert!(bytes <= n * 64, "{} B/row", bytes as f64 / n as f64);
    }

    #[test]
    fn return_flags_cover_all_three_classes() {
        let t = lineitem(600, Seed(9));
        for flag in ["A", "N", "R"] {
            let tag = Value::Text(flag.into());
            assert!(
                t.rows()
                    .any(|r| r.get_named("l_returnflag").unwrap() == tag),
                "no rows flagged {flag}"
            );
        }
    }
}
