//! `minidb` — a small in-memory relational engine.
//!
//! This crate is the database substrate for the PackageBuilder reproduction.
//! The original system delegates data storage and base-constraint evaluation
//! to a full DBMS reached over SQL; this crate provides the same capabilities
//! as a library:
//!
//! * typed [`Value`]s, [`Schema`]s and [`Tuple`]s, and [`Table`]s that store
//!   them **by column** — one typed vector per column, text as dictionary
//!   codes, a NULL bit per cell; a [`Tuple`] is how a row goes in, a
//!   [`RowView`] how one is read back,
//! * a scalar [`expr::Expr`] language (selection predicates, i.e. PaQL *base
//!   constraints*) evaluated through [`eval::BoundExpr`]: bound to a schema
//!   once, then run a row at a time or — over a table's columns — a chunk of
//!   rows at a time,
//! * per-column [`stats::ColumnStats`] used by cardinality-based pruning,
//! * CSV import/export in [`csv`].
//!
//! The engine is deliberately single-node and in-memory: package queries in
//! the paper operate on the (usually small) relation that survives the base
//! constraints, so an in-memory store exercises the relevant code paths. It
//! is columnar because everything the package engine asks of a relation —
//! evaluate a predicate over every row, profile the candidates, lower an
//! aggregate's argument to a column of numbers — reads a few columns of
//! many rows.

pub mod catalog;
mod column;
pub mod csv;
pub mod error;
pub mod eval;
pub mod expr;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use error::DbError;
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use schema::{Column, ColumnType, Schema};
pub use table::{RowView, Selection, Table};
pub use tuple::{Tuple, TupleId};
pub use value::Value;

/// Convenience result alias used across the crate.
pub type DbResult<T> = std::result::Result<T, DbError>;
