//! Per-column statistics.
//!
//! Cardinality-based pruning (paper Section 4.1) derives package-size bounds
//! from `MIN(col)` and `MAX(col)` over the tuples that satisfy the base
//! constraints. `ColumnStats` precomputes those (plus count/sum/mean, which
//! the greedy heuristics use) in one pass.

use std::collections::BTreeMap;

use crate::column::{ColumnData, ColumnVec};
use crate::error::DbError;
use crate::table::{Selection, Table};
use crate::tuple::TupleId;
use crate::DbResult;

/// Summary statistics of one numeric column over a set of rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Number of non-NULL values.
    pub count: usize,
    /// Number of NULL values.
    pub nulls: usize,
    /// Minimum non-NULL value (`f64::INFINITY` when `count == 0`).
    pub min: f64,
    /// Maximum non-NULL value (`f64::NEG_INFINITY` when `count == 0`).
    pub max: f64,
    /// Sum of non-NULL values.
    pub sum: f64,
    /// Mean of non-NULL values (0.0 when `count == 0`).
    pub mean: f64,
}

impl ColumnStats {
    /// Statistics of an empty column.
    pub fn empty() -> Self {
        ColumnStats {
            count: 0,
            nulls: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            mean: 0.0,
        }
    }

    /// Folds one value into everything but `mean`, which
    /// [`ColumnStats::finish`] sets once after the last value.
    #[inline]
    fn accumulate(&mut self, v: Option<f64>) {
        match v {
            None => self.nulls += 1,
            Some(x) => {
                self.count += 1;
                self.sum += x;
                if x < self.min {
                    self.min = x;
                }
                if x > self.max {
                    self.max = x;
                }
            }
        }
    }

    /// Sets `mean` from the accumulated `sum` and `count`.
    fn finish(&mut self) {
        if self.count > 0 {
            self.mean = self.sum / self.count as f64;
        }
    }

    /// True when no non-NULL value was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One column's values over the selected rows, folded in selection order.
fn fold_column<T: Copy>(
    sel: &Selection<'_>,
    column: &ColumnVec,
    values: &[T],
    to_f64: impl Fn(T) -> f64,
) -> ColumnStats {
    let mut stats = ColumnStats::empty();
    if column.has_no_nulls() {
        sel.for_each(values, |_, x| stats.accumulate(Some(to_f64(x))));
    } else {
        sel.for_each(values, |row, x| {
            stats.accumulate((!column.is_null(row)).then(|| to_f64(x)));
        });
    }
    stats
}

/// Statistics for all numeric columns of a relation.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    columns: BTreeMap<String, ColumnStats>,
    rows: usize,
}

impl TableStats {
    /// Computes statistics over all rows of `table`.
    pub fn of_table(table: &Table) -> Self {
        Self::fold(&table.select_all())
    }

    /// Computes statistics over the listed rows of `table` — how the engine
    /// profiles a candidate set. Errors on the first id the table does not
    /// have.
    ///
    /// Each numeric column is folded on its own, straight from its typed
    /// vector, in list order (so `sum` has the bits of a sequential sum);
    /// `mean` is one division of the final `sum` by the final `count`,
    /// which is what dividing after every value would have left behind.
    /// Names are resolved once, when the result map is built.
    pub fn of_ids(table: &Table, ids: &[TupleId]) -> DbResult<Self> {
        Ok(Self::fold(&table.select(ids)?))
    }

    fn fold(sel: &Selection<'_>) -> Self {
        let table = sel.table();
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ty.is_numeric())
            .filter_map(|(idx, c)| {
                let column = table.column(idx)?;
                let mut stats = match column.data() {
                    ColumnData::Float(v) => fold_column(sel, column, v, |x| x),
                    ColumnData::Int(v) => fold_column(sel, column, v, |x| x as f64),
                    _ => return None,
                };
                stats.finish();
                Some((c.name.to_ascii_lowercase(), stats))
            })
            .collect();
        TableStats {
            columns,
            rows: sel.len(),
        }
    }

    /// Number of rows the statistics were computed over.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Statistics for one column (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(&name.to_ascii_lowercase())
    }

    /// Statistics for one column, erroring when the column is unknown or
    /// non-numeric.
    pub fn require(&self, name: &str) -> DbResult<&ColumnStats> {
        self.column(name).ok_or_else(|| {
            DbError::UnknownColumn(format!("{name} (no numeric statistics available)"))
        })
    }

    /// Names of columns with statistics.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::tuple::Tuple;
    use crate::value::Value;
    use crate::{tuple, TupleId};

    fn table() -> Table {
        let schema = Schema::build(&[
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("protein", ColumnType::Float),
        ]);
        let mut t = Table::new("recipes", schema);
        t.insert(tuple!("a", 100.0, 5.0)).unwrap();
        t.insert(tuple!("b", 300.0, 20.0)).unwrap();
        t.insert(Tuple::new(vec![
            Value::Text("c".into()),
            Value::Null,
            Value::Float(10.0),
        ]))
        .unwrap();
        t
    }

    #[test]
    fn stats_cover_numeric_columns_only() {
        let s = TableStats::of_table(&table());
        assert_eq!(s.column_names(), vec!["calories", "protein"]);
        assert!(s.column("name").is_none());
        assert!(s.require("name").is_err());
    }

    #[test]
    fn min_max_sum_mean_nulls() {
        let s = TableStats::of_table(&table());
        let cal = s.column("CALORIES").unwrap();
        assert_eq!(cal.count, 2);
        assert_eq!(cal.nulls, 1);
        assert_eq!(cal.min, 100.0);
        assert_eq!(cal.max, 300.0);
        assert_eq!(cal.sum, 400.0);
        assert_eq!(cal.mean, 200.0);
        assert_eq!(s.row_count(), 3);
    }

    #[test]
    fn sum_and_mean_have_the_bits_of_a_row_order_fold() {
        let schema = Schema::build(&[("tag", ColumnType::Text), ("x", ColumnType::Float)]);
        let mut t = Table::new("t", schema);
        let (mut sum, mut count, mut mean) = (0.0f64, 0usize, 0.0f64);
        for i in 0..1000 {
            if i % 7 == 3 {
                t.insert(Tuple::new(vec![Value::Text("n".into()), Value::Null]))
                    .unwrap();
                continue;
            }
            let x = (i as f64).sin() * 1e3 + 0.1;
            t.insert(tuple!("v", x)).unwrap();
            sum += x;
            count += 1;
            // The per-value division the positional scan does once.
            mean = sum / count as f64;
        }
        let x = *TableStats::of_table(&t).column("x").unwrap();
        assert_eq!(x.count, count);
        assert_eq!(x.nulls, 1000 - count);
        assert_eq!(x.sum.to_bits(), sum.to_bits());
        assert_eq!(x.mean.to_bits(), mean.to_bits());
    }

    #[test]
    fn borrowed_row_stats_match_owned_rows() {
        let t = table();
        let all: Vec<TupleId> = t.iter().map(|(id, _)| id).collect();
        let listed = TableStats::of_ids(&t, &all).unwrap();
        // Any list, in list order: here the first two rows, backwards.
        let subset = TableStats::of_ids(&t, &[TupleId(1), TupleId(0)]).unwrap();
        assert_eq!(listed.row_count(), 3);
        assert_eq!(subset.row_count(), 2);
        assert_eq!(subset.column("calories").unwrap().max, 300.0);
        assert_eq!(
            listed.column("calories").unwrap(),
            TableStats::of_table(&t).column("calories").unwrap()
        );
        assert!(TableStats::of_ids(&t, &[TupleId(0), TupleId(3)]).is_err());
        assert_eq!(TableStats::of_ids(&t, &[]).unwrap().row_count(), 0);
    }

    #[test]
    fn empty_table_stats() {
        let schema = Schema::build(&[("x", ColumnType::Float)]);
        let t = Table::new("t", schema);
        let s = TableStats::of_table(&t);
        let x = s.column("x").unwrap();
        assert!(x.is_empty());
        assert_eq!(x.min, f64::INFINITY);
    }
}
