//! `microdb` — a small in-memory relational database engine.
//!
//! This crate is the *storage substrate* of the Jacqueline
//! reproduction: the "existing relational database implementation"
//! that the paper's faceted object-relational mapping drives purely by
//! manipulating meta-data columns (§3 of Yang et al., PLDI 2016). It
//! supports exactly the relational surface the FORM needs — typed
//! columns, WHERE predicates, projection, inner equi-joins,
//! `ORDER BY`, `DISTINCT`, `LIMIT`, unions (insert-many), hash indexes
//! — plus the aggregates used by the non-faceted baseline
//! applications.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), microdb::DbError> {
//! use microdb::{ColumnDef, ColumnType, Database, Operand, Predicate, Query, Schema, SortOrder, Value};
//!
//! let mut db = Database::new();
//! db.create_table("users", Schema::new(vec![
//!     ColumnDef::new("id", ColumnType::Int).auto_increment(),
//!     ColumnDef::new("name", ColumnType::Str),
//! ]))?;
//! db.insert("users", vec![Value::Null, "alice".into()])?;
//! db.insert("users", vec![Value::Null, "bob".into()])?;
//!
//! let rows = Query::from("users")
//!     .filter(Predicate::eq(Operand::col("name"), Operand::lit("alice")))
//!     .execute(&mut db)?;
//! assert_eq!(rows.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod chunkstore;
mod database;
mod error;
pub mod faults;
mod predicate;
mod query;
mod schema;
pub mod snapshot;
mod table;
mod value;
pub mod wal;

pub use aggregate::Aggregate;
pub use database::{Database, Statement, TableMut, TableRef};
pub use error::{DbError, DbResult};
pub use predicate::{resolve_column, CmpOp, Operand, Predicate};
pub use query::{ExecStats, Query, ResultSet, SortOrder};
pub use schema::{ColumnDef, Schema};
pub use snapshot::{Snapshot, TableSnapshot};
pub use table::{Row, RowDelta, Table};
pub use value::{ColumnType, Value};
pub use wal::{BatchRecord, LoggedDelta, ReplayStats, SyncPolicy, TableSection, WriteLog};
