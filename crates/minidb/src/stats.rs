//! Per-column statistics of a whole relation: count, NULLs, min, max, sum
//! and mean of a numeric column, folded in one pass over its typed vector.
//! Query suggestions read one column's range ([`ColumnStats::of_column`]);
//! [`TableStats`] folds every numeric column. A package query's cardinality
//! pruning does not come here: it reads the ranges of the aggregates it
//! prunes on from their term columns' chunk metadata.

use std::collections::BTreeMap;

use crate::column::{ColumnData, ColumnVec};
use crate::error::DbError;
use crate::table::{Selection, Table};
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

    /// Statistics of one numeric column of `table` (case-insensitive), from
    /// that column's vector alone; errors when the column is unknown or
    /// non-numeric.
    pub fn of_column(table: &Table, name: &str) -> DbResult<Self> {
        let sel = table.select_all();
        let idx = table.schema().index_of(name);
        idx.and_then(|idx| Self::fold(&sel, idx)).ok_or_else(|| {
            DbError::UnknownColumn(format!("{name} (no numeric statistics available)"))
        })
    }

    /// Column `idx` folded over the selected rows, in selection order;
    /// `None` when the column is not numeric.
    fn fold(sel: &Selection<'_>, idx: usize) -> Option<Self> {
        let column = sel.table().column(idx)?;
        let mut stats = match column.data() {
            ColumnData::Float(v) => fold_column(sel, column, v, |x| x),
            ColumnData::Int(v) => fold_column(sel, column, v, |x| x as f64),
            _ => return None,
        };
        stats.finish();
        Some(stats)
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
    ///
    /// Each numeric column is folded on its own, straight from its typed
    /// vector, in row order (so `sum` has the bits of a sequential sum);
    /// `mean` is one division of the final `sum` by the final `count`,
    /// which is what dividing after every value would have left behind.
    pub fn of_table(table: &Table) -> Self {
        Self::fold(&table.select_all())
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
                Some((c.name.to_ascii_lowercase(), ColumnStats::fold(sel, idx)?))
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
        let t = table();
        let s = TableStats::of_table(&t);
        assert_eq!(s.column_names(), vec!["calories", "protein"]);
        assert!(s.column("name").is_none());
        assert!(ColumnStats::of_column(&t, "name").is_err());
        assert!(ColumnStats::of_column(&t, "fat").is_err());
        let one = ColumnStats::of_column(&t, "Calories").unwrap();
        assert_eq!(Some(&one), s.column("calories"));
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

    /// Every field of every numeric column — `Int` and `Float`, NULLs, −0,
    /// an all-NULL column — has the bits of a row-by-row fold that divides
    /// for the mean after every value.
    #[test]
    fn sum_and_mean_have_the_bits_of_a_row_order_fold() {
        let schema = Schema::build(&[
            ("tag", ColumnType::Text),
            ("i", ColumnType::Int),
            ("x", ColumnType::Float),
            ("z", ColumnType::Float),
        ]);
        let mut t = Table::new("t", schema.clone());
        for r in 0..5000i64 {
            let x = match r % 11 {
                0 => Value::Null,
                1 => Value::Float(-0.0),
                _ => Value::Float((r as f64).sin() * 1e3 + 1e-7),
            };
            let i = if r % 5 == 2 {
                Value::Null
            } else {
                Value::Int(r * 37 % 101 - 50)
            };
            t.insert(Tuple::new(vec![
                Value::Text(format!("r{}", r % 3)),
                i,
                x,
                Value::Null,
            ]))
            .unwrap();
        }
        let stats = TableStats::of_table(&t);
        assert_eq!(stats.row_count(), t.len());
        assert_eq!(stats.column_names(), vec!["i", "x", "z"]);
        for name in schema.numeric_columns() {
            let col = schema.require(name).unwrap();
            let (mut cnt, mut nul, mut sum, mut mean) = (0usize, 0usize, 0.0f64, 0.0f64);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for r in 0..t.len() {
                match t.require(TupleId(r as u32)).unwrap().values()[col].as_f64() {
                    None => nul += 1,
                    Some(x) => {
                        cnt += 1;
                        sum += x;
                        min = if x < min { x } else { min };
                        max = if x > max { x } else { max };
                        mean = sum / cnt as f64;
                    }
                }
            }
            let got = stats.column(name).unwrap();
            assert_eq!(
                (got.count, got.nulls, got.min.to_bits(), got.max.to_bits()),
                (cnt, nul, min.to_bits(), max.to_bits()),
                "{name}"
            );
            assert_eq!(
                (got.sum.to_bits(), got.mean.to_bits()),
                (sum.to_bits(), mean.to_bits()),
                "{name}"
            );
        }
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
