//! Constraint suggestion (paper Section 3.1).
//!
//! "As a user interacts with the template by highlighting elements in the
//! sample package, PackageBuilder suggests constraints. For example, when the
//! user selects a cell within the 'fats' column, the system proposes several
//! constraints that would restrict the amount of fat in each meal, and
//! objectives that would minimize the total amount of fat."
//!
//! [`suggest`] maps a highlight (cell, column, row or a set of values) to a
//! ranked list of candidate base constraints, global constraints and
//! objectives, each carrying both its PaQL fragment and the natural-language
//! description the interface shows.

use minidb::{ColumnType, Table, TupleId};

use crate::error::PbError;
use crate::PbResult;

/// What the user highlighted in the package template.
#[derive(Debug, Clone, PartialEq)]
pub enum Highlight {
    /// One cell: a tuple and a column.
    Cell {
        /// The highlighted tuple.
        tuple: TupleId,
        /// The highlighted column.
        column: String,
    },
    /// A whole column.
    Column {
        /// The highlighted column.
        column: String,
    },
    /// A whole row (tuple).
    Row {
        /// The highlighted tuple.
        tuple: TupleId,
    },
    /// Several cells in the same column.
    Values {
        /// The column the cells belong to.
        column: String,
        /// The highlighted tuples.
        tuples: Vec<TupleId>,
    },
}

/// What kind of clause a suggestion contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuggestionKind {
    /// A per-tuple predicate for the `WHERE` clause.
    BaseConstraint,
    /// A per-package predicate for the `SUCH THAT` clause.
    GlobalConstraint,
    /// A `MAXIMIZE`/`MINIMIZE` clause.
    Objective,
}

/// One suggested constraint or objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Which clause the suggestion belongs to.
    pub kind: SuggestionKind,
    /// The PaQL fragment to splice into the query.
    pub paql: String,
    /// The natural-language description shown in the interface.
    pub description: String,
}

/// Produces constraint and objective suggestions for a highlight, in the
/// order the interface should present them.
pub fn suggest(
    table: &Table,
    package_alias: &str,
    highlight: &Highlight,
) -> PbResult<Vec<Suggestion>> {
    match highlight {
        Highlight::Cell { tuple, column } => suggest_for_cell(table, package_alias, *tuple, column),
        Highlight::Column { column } => suggest_for_column(table, package_alias, column),
        Highlight::Row { tuple } => suggest_for_row(table, *tuple),
        Highlight::Values { column, tuples } => {
            suggest_for_values(table, package_alias, column, tuples)
        }
    }
}

fn column_type(table: &Table, column: &str) -> PbResult<ColumnType> {
    table
        .schema()
        .column(column)
        .map(|c| c.ty)
        .ok_or_else(|| PbError::Db(minidb::DbError::UnknownColumn(column.to_string())))
}

fn suggest_for_cell(
    table: &Table,
    package_alias: &str,
    tuple: TupleId,
    column: &str,
) -> PbResult<Vec<Suggestion>> {
    let ty = column_type(table, column)?;
    let value = table.require(tuple)?.get_named(column)?;
    let mut out = Vec::new();
    if ty.is_numeric() {
        let v = value.expect_f64("highlighted cell")?;
        out.push(Suggestion {
            kind: SuggestionKind::BaseConstraint,
            paql: format!("{column} <= {v}"),
            description: format!("every tuple in the package has {column} at most {v}"),
        });
        out.push(Suggestion {
            kind: SuggestionKind::BaseConstraint,
            paql: format!("{column} >= {v}"),
            description: format!("every tuple in the package has {column} at least {v}"),
        });
        out.push(Suggestion {
            kind: SuggestionKind::GlobalConstraint,
            paql: format!("SUM({package_alias}.{column}) <= {}", v * 3.0),
            description: format!("the total {column} of the package is at most {}", v * 3.0),
        });
        out.push(Suggestion {
            kind: SuggestionKind::Objective,
            paql: format!("MINIMIZE SUM({package_alias}.{column})"),
            description: format!("prefer packages with the smallest total {column}"),
        });
    } else {
        out.push(Suggestion {
            kind: SuggestionKind::BaseConstraint,
            paql: format!("{column} = '{value}'"),
            description: format!("every tuple in the package has {column} equal to '{value}'"),
        });
        out.push(Suggestion {
            kind: SuggestionKind::GlobalConstraint,
            paql: format!("COUNT(*) FILTER (WHERE {column} = '{value}') >= 1"),
            description: format!(
                "the package contains at least one tuple with {column} = '{value}'"
            ),
        });
    }
    Ok(out)
}

fn suggest_for_column(
    table: &Table,
    package_alias: &str,
    column: &str,
) -> PbResult<Vec<Suggestion>> {
    let ty = column_type(table, column)?;
    let mut out = Vec::new();
    if ty.is_numeric() {
        let s = minidb::stats::ColumnStats::of_column(table, column)?;
        let mid = (s.min + s.max) / 2.0;
        out.push(Suggestion {
            kind: SuggestionKind::Objective,
            paql: format!("MAXIMIZE SUM({package_alias}.{column})"),
            description: format!("prefer packages with the largest total {column}"),
        });
        out.push(Suggestion {
            kind: SuggestionKind::Objective,
            paql: format!("MINIMIZE SUM({package_alias}.{column})"),
            description: format!("prefer packages with the smallest total {column}"),
        });
        out.push(Suggestion {
            kind: SuggestionKind::GlobalConstraint,
            paql: format!(
                "SUM({package_alias}.{column}) BETWEEN {} AND {}",
                s.mean.round(),
                (3.0 * s.mean).round()
            ),
            description: format!(
                "the total {column} of the package is between {} and {}",
                s.mean.round(),
                (3.0 * s.mean).round()
            ),
        });
        out.push(Suggestion {
            kind: SuggestionKind::BaseConstraint,
            paql: format!("{column} <= {mid}"),
            description: format!("every tuple has {column} at most {mid}"),
        });
    } else {
        out.push(Suggestion {
            kind: SuggestionKind::GlobalConstraint,
            paql: "COUNT(*) >= 1".to_string(),
            description: "the package is not empty".to_string(),
        });
    }
    Ok(out)
}

fn suggest_for_row(table: &Table, tuple: TupleId) -> PbResult<Vec<Suggestion>> {
    let row = table.require(tuple)?;
    let mut out = Vec::new();
    // Text attributes of the highlighted row become "more like this" filters.
    for (idx, col) in table.schema().columns().iter().enumerate() {
        if col.ty == ColumnType::Text {
            let value = &row.values()[idx];
            if value.is_null() {
                continue;
            }
            out.push(Suggestion {
                kind: SuggestionKind::BaseConstraint,
                paql: format!("{} = '{}'", col.name, value),
                description: format!(
                    "only tuples with {} = '{}' (like the highlighted one)",
                    col.name, value
                ),
            });
        }
    }
    Ok(out)
}

fn suggest_for_values(
    table: &Table,
    package_alias: &str,
    column: &str,
    tuples: &[TupleId],
) -> PbResult<Vec<Suggestion>> {
    let ty = column_type(table, column)?;
    if !ty.is_numeric() || tuples.is_empty() {
        return suggest_for_column(table, package_alias, column);
    }
    let mut values = Vec::with_capacity(tuples.len());
    for t in tuples {
        values.push(table.value_f64(*t, column)?);
    }
    // pb-lint: allow(no-nan-unsafe-ordering) — suggestion text only: the
    // range feeds a human-readable constraint hint, never solver ordering.
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    // pb-lint: allow(no-nan-unsafe-ordering) — suggestion text only: the
    // range feeds a human-readable constraint hint, never solver ordering.
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = values.iter().sum();
    Ok(vec![
        Suggestion {
            kind: SuggestionKind::BaseConstraint,
            paql: format!("{column} BETWEEN {min} AND {max}"),
            description: format!(
                "every tuple has {column} between {min} and {max} (the highlighted range)"
            ),
        },
        Suggestion {
            kind: SuggestionKind::GlobalConstraint,
            paql: format!(
                "SUM({package_alias}.{column}) BETWEEN {} AND {}",
                (0.9 * sum).round(),
                (1.1 * sum).round()
            ),
            description: format!(
                "the total {column} stays within 10% of the highlighted total ({sum})"
            ),
        },
        Suggestion {
            kind: SuggestionKind::Objective,
            paql: format!("MAXIMIZE SUM({package_alias}.{column})"),
            description: format!("prefer packages with the largest total {column}"),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{recipes, Seed};
    use paql::parser::{parse_base_expr, parse_global_formula};

    #[test]
    fn cell_suggestions_for_numeric_columns_parse_as_paql() {
        let t = recipes(50, Seed(1));
        let suggestions = suggest(
            &t,
            "P",
            &Highlight::Cell {
                tuple: TupleId(3),
                column: "fat".into(),
            },
        )
        .unwrap();
        assert!(suggestions.len() >= 3);
        assert!(suggestions
            .iter()
            .any(|s| s.kind == SuggestionKind::Objective));
        for s in &suggestions {
            match s.kind {
                SuggestionKind::BaseConstraint => {
                    parse_base_expr(&s.paql).expect("base suggestion must parse");
                }
                SuggestionKind::GlobalConstraint => {
                    parse_global_formula(&s.paql).expect("global suggestion must parse");
                }
                SuggestionKind::Objective => {
                    assert!(s.paql.starts_with("MAXIMIZE") || s.paql.starts_with("MINIMIZE"))
                }
            }
        }
    }

    #[test]
    fn cell_suggestions_for_text_columns_use_equality() {
        let t = recipes(50, Seed(2));
        let suggestions = suggest(
            &t,
            "P",
            &Highlight::Cell {
                tuple: TupleId(0),
                column: "gluten".into(),
            },
        )
        .unwrap();
        assert!(suggestions.iter().any(|s| s.paql.contains("gluten = '")));
        assert!(suggestions.iter().any(|s| s.paql.contains("FILTER")));
    }

    #[test]
    fn column_suggestions_include_both_objective_directions() {
        let t = recipes(50, Seed(3));
        let suggestions = suggest(
            &t,
            "P",
            &Highlight::Column {
                column: "protein".into(),
            },
        )
        .unwrap();
        let objectives: Vec<_> = suggestions
            .iter()
            .filter(|s| s.kind == SuggestionKind::Objective)
            .collect();
        assert_eq!(objectives.len(), 2);
    }

    #[test]
    fn row_suggestions_cover_text_attributes() {
        let t = recipes(50, Seed(4));
        let suggestions = suggest(&t, "P", &Highlight::Row { tuple: TupleId(5) }).unwrap();
        assert!(suggestions
            .iter()
            .all(|s| s.kind == SuggestionKind::BaseConstraint));
        assert!(suggestions.iter().any(|s| s.paql.starts_with("course = ")));
    }

    #[test]
    fn values_suggestions_use_the_highlighted_range() {
        let t = recipes(50, Seed(5));
        let suggestions = suggest(
            &t,
            "P",
            &Highlight::Values {
                column: "calories".into(),
                tuples: vec![TupleId(1), TupleId(2), TupleId(3)],
            },
        )
        .unwrap();
        assert!(suggestions[0].paql.contains("BETWEEN"));
        parse_base_expr(&suggestions[0].paql).unwrap();
    }

    #[test]
    fn unknown_columns_error() {
        let t = recipes(10, Seed(6));
        assert!(suggest(
            &t,
            "P",
            &Highlight::Column {
                column: "unknown".into()
            }
        )
        .is_err());
    }
}
