//! Many-constraint instances: dozens of SUM/AVG windows over one relation.
//!
//! Sixteen independent metric columns `m00`–`m15`, each uniform on (0, 10).
//! The gauntlet query pins a window on *every* column (16 SUM windows plus
//! 8 AVG windows — two dozen global constraints), which stresses:
//!
//! * the per-term bookkeeping of the columnar view (24+ term columns),
//! * the ILP translation (dozens of rows, dense coefficient matrix),
//! * `Strategy::Auto`'s linearizable route: the query *is* linearizable,
//!   so at sketch-eligible sizes Auto must decide between `SketchRefine`
//!   (whose partition quality degrades with constraint dimensionality) and
//!   the exact ILP.
//!
//! Windows are centred on the population mean so random packages of the
//! requested cardinality are comfortably feasible — the difficulty is the
//! constraint *count*, not tightness.

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

/// Number of metric columns (`m00` … `m15`).
pub const METRIC_COLUMNS: usize = 16;

/// Column names `m00` … `m15`, in schema order.
pub fn metric_names() -> Vec<String> {
    (0..METRIC_COLUMNS).map(|j| format!("m{j:02}")).collect()
}

/// Schema of the metrics relation: a row id plus [`METRIC_COLUMNS`] floats.
pub fn metrics_schema() -> Schema {
    let mut cols = vec![minidb::Column::new("row_id", ColumnType::Int)];
    for name in metric_names() {
        cols.push(minidb::Column::new(&name, ColumnType::Float));
    }
    Schema::new(cols).expect("metric column names are unique")
}

/// `n` metric rows, each column independent uniform on (0, 10).
pub fn metrics_table(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("metrics", metrics_schema());
    for row in metrics_rows(n, seed) {
        t.insert(row).expect("metrics tuple matches schema");
    }
    t
}

/// [`metrics_table`] as a lazy, prefix-stable row stream.
pub fn metrics_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let mut values = Vec::with_capacity(METRIC_COLUMNS + 1);
        values.push(Value::Int(i as i64));
        for _ in 0..METRIC_COLUMNS {
            let v: f64 = rng.random_range(0.0..10.0);
            values.push(Value::Float((v * 100.0).round() / 100.0));
        }
        Tuple::new(values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_stays_inside_its_window_support() {
        let t = metrics_table(300, Seed(4));
        for row in t.rows() {
            for name in metric_names() {
                let v = row.get_f64(&name).unwrap();
                assert!((0.0..=10.0).contains(&v), "{name} = {v}");
            }
        }
    }

    #[test]
    fn schema_has_one_id_plus_all_metric_columns() {
        let s = metrics_schema();
        assert_eq!(s.columns().len(), METRIC_COLUMNS + 1);
    }
}
