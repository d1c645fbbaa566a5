//! `minidb` — a small in-memory relational engine.
//!
//! This crate is the database substrate for the PackageBuilder reproduction.
//! The original system delegates data storage, base-constraint evaluation and
//! the local-search replacement query to a full DBMS reached over SQL; this
//! crate provides the same capabilities as a library:
//!
//! * typed [`Value`]s, [`Schema`]s, [`Tuple`]s and [`Table`]s,
//! * a scalar [`expr::Expr`] language (selection predicates, i.e. PaQL *base
//!   constraints*) evaluated through [`eval::BoundExpr`]: bound to a schema
//!   once, then run against any number of rows,
//! * relational operators in [`ops`] (scan, filter, project, cross join,
//!   aggregate, sort, limit) used by the heuristic local search,
//! * per-column [`stats::ColumnStats`] used by cardinality-based pruning,
//! * CSV import/export in [`csv`].
//!
//! The engine is deliberately single-node and in-memory: package queries in
//! the paper operate on the (usually small) relation that survives the base
//! constraints, so an in-memory row store exercises the relevant code paths.

pub mod catalog;
pub mod csv;
pub mod error;
pub mod eval;
pub mod expr;
pub mod ops;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use error::DbError;
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use schema::{Column, ColumnType, Schema};
pub use table::Table;
pub use tuple::{Tuple, TupleId};
pub use value::Value;

/// Convenience result alias used across the crate.
pub type DbResult<T> = std::result::Result<T, DbError>;
