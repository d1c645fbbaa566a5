//! Tuples (rows) and tuple identifiers.

use std::fmt;

use crate::schema::Schema;
use crate::value::Value;
use crate::DbResult;

/// Identifier of a tuple within its table (its insertion index).
///
/// Package results reference tuples by `TupleId`, so packages stay cheap to
/// copy and compare regardless of tuple width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The identifier as a usize index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A row of values. A tuple on its own does not know its schema; the owning
/// [`crate::Table`] validates values against the schema on insertion.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values, by move.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value by column name, resolved through `schema`.
    pub fn get_named(&self, schema: &Schema, name: &str) -> DbResult<&Value> {
        let idx = schema.require(name)?;
        Ok(&self.values[idx])
    }

    /// Numeric value by column name (errors on non-numeric columns).
    pub fn get_f64(&self, schema: &Schema, name: &str) -> DbResult<f64> {
        self.get_named(schema, name)?
            .expect_f64(format_args!("column '{name}'"))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Convenience macro for building tuples in tests and generators.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    #[test]
    fn named_access_resolves_via_schema() {
        let schema = Schema::build(&[("id", ColumnType::Int), ("cal", ColumnType::Float)]);
        let t = tuple!(3, 250.0);
        assert_eq!(t.get_named(&schema, "cal").unwrap(), &Value::Float(250.0));
        assert_eq!(t.get_f64(&schema, "id").unwrap(), 3.0);
        assert!(t.get_named(&schema, "nope").is_err());
    }

    #[test]
    fn tuple_id_display() {
        assert_eq!(TupleId(7).to_string(), "t7");
        assert_eq!(TupleId(7).index(), 7);
    }

    #[test]
    fn display_joins_values() {
        assert_eq!(tuple!(1, "a", 2.5).to_string(), "(1, a, 2.5)");
    }
}
