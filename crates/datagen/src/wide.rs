//! Wide-schema instances: hundreds of columns driving FILTERed aggregates.
//!
//! The relation carries a categorical `grp` column (16 groups `g00`–`g15`)
//! plus [`WIDE_COLUMNS`] numeric columns `w000`, `w001`, … each uniform on
//! (0, 100). The gauntlet query attaches a `FILTER (WHERE R.grp = 'gXX')`
//! SUM cap to *hundreds* of those columns, which stresses:
//!
//! * term-column materialisation (every FILTERed aggregate is its own
//!   dense column in the engine's `CandidateView` — 100+ term columns per
//!   query),
//! * the FILTER-aware chunk metadata behind `pruning::derive_bounds`
//!   (included min/max/sum per chunk per term),
//! * the paged column store: wide views are the first workload whose term
//!   columns outweigh the base table.
//!
//! Caps sit far above what any small package can reach, so feasibility is
//! trivial — the difficulty is schema *width*. The registry also ships an
//! intentionally unreachable FILTERed SUM target for this family, which
//! `derive_bounds` must prove infeasible before any solver runs.

use minidb::{Column, ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

/// Number of numeric columns (`w000` … ).
pub const WIDE_COLUMNS: usize = 120;

/// Number of categorical groups (`g00` … `g15`).
pub const WIDE_GROUPS: usize = 16;

/// Column names `w000` … in schema order.
pub fn wide_names() -> Vec<String> {
    (0..WIDE_COLUMNS).map(|j| format!("w{j:03}")).collect()
}

/// Schema of the wide relation: row id, group tag, [`WIDE_COLUMNS`] floats.
pub fn wide_schema() -> Schema {
    let mut cols = vec![
        Column::new("row_id", ColumnType::Int),
        Column::new("grp", ColumnType::Text),
    ];
    for name in wide_names() {
        cols.push(Column::new(name, ColumnType::Float));
    }
    Schema::new(cols).expect("wide column names are unique")
}

/// `n` wide rows; groups cycle deterministically modulo the row index so
/// every group holds ~`n / 16` rows at any prefix length.
pub fn wide_table(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("wide", wide_schema());
    for row in wide_rows(n, seed) {
        t.insert(row).expect("wide tuple matches schema");
    }
    t
}

/// [`wide_table`] as a lazy, prefix-stable row stream.
pub fn wide_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let mut values = Vec::with_capacity(WIDE_COLUMNS + 2);
        values.push(Value::Int(i as i64));
        values.push(Value::Text(format!("g{:02}", i % WIDE_GROUPS)));
        for _ in 0..WIDE_COLUMNS {
            let v: f64 = rng.random_range(0.0..100.0);
            values.push(Value::Float((v * 10.0).round() / 10.0));
        }
        Tuple::new(values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cycle_and_values_stay_nonnegative() {
        let t = wide_table(64, Seed(5));
        for (i, row) in t.rows().enumerate() {
            assert_eq!(
                row.get_named("grp").unwrap(),
                Value::Text(format!("g{:02}", i % WIDE_GROUPS))
            );
            for name in wide_names().iter().take(5) {
                let v = row.get_f64(name).unwrap();
                assert!((0.0..=100.0).contains(&v), "{name} = {v}");
            }
        }
    }

    #[test]
    fn schema_width_matches_the_documented_constant() {
        assert_eq!(wide_schema().columns().len(), WIDE_COLUMNS + 2);
    }
}
