//! Table schemas: named, typed columns.

use std::fmt;

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Boolean column.
    Bool,
    /// 64-bit integer column.
    Int,
    /// 64-bit float column.
    Float,
    /// UTF-8 text column.
    Text,
}

impl ColumnType {
    /// Whether a value is admissible in a column of this type.
    /// NULL is admissible everywhere; ints are admissible in float columns.
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_) | Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
        )
    }

    /// True for `Int` and `Float`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, ColumnType::Int | ColumnType::Float)
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Bool => "BOOL",
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Text => "TEXT",
        };
        write!(f, "{s}")
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema, case-insensitive lookup).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a new column definition.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from column definitions.
    ///
    /// Returns an error when two columns share a (case-insensitive) name.
    pub fn new(columns: Vec<Column>) -> DbResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            for other in &columns[i + 1..] {
                if c.name.eq_ignore_ascii_case(&other.name) {
                    return Err(DbError::SchemaError(format!(
                        "duplicate column name '{}'",
                        c.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// Builder-style helper used heavily in tests and generators.
    pub fn build(cols: &[(&str, ColumnType)]) -> Self {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
            // pb-lint: allow(no-panic-in-solver-paths) — invariant: callers
            // pass column lists written in the program text; a duplicate
            // name there is a bug, caught the first time the line runs.
            .expect("static schema definitions must not contain duplicates")
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive lookup of a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Lookup that produces a [`DbError::UnknownColumn`] on failure.
    pub fn require(&self, name: &str) -> DbResult<usize> {
        self.index_of(name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Names of all numeric columns, in declaration order.
    pub fn numeric_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.ty.is_numeric())
            .map(|c| c.name.as_str())
            .collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        write!(f, "({})", cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::build(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("gluten", ColumnType::Text),
        ])
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("CALORIES"), Some(2));
        assert_eq!(s.index_of("Id"), Some(0));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("A", ColumnType::Text),
        ]);
        assert!(matches!(r, Err(DbError::SchemaError(_))));
    }

    #[test]
    fn admits_follows_numeric_widening() {
        assert!(ColumnType::Float.admits(&Value::Int(3)));
        assert!(!ColumnType::Int.admits(&Value::Float(3.5)));
        assert!(ColumnType::Text.admits(&Value::Null));
    }

    #[test]
    fn numeric_columns_filters_text() {
        let s = sample();
        assert_eq!(s.numeric_columns(), vec!["id", "calories"]);
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::build(&[("a", ColumnType::Int)]);
        assert_eq!(s.to_string(), "(a INT)");
    }
}
