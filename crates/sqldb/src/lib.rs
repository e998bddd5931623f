//! # sqldb — embedded SQL engine substrate for the SQLoop reproduction
//!
//! A from-scratch, in-memory relational engine providing everything the
//! [SQLoop middleware](https://doi.org/10.1109/ICDCS.2018.00104) needs from
//! the database systems of its evaluation (PostgreSQL 9.6, MySQL 5.7,
//! MariaDB 10.2):
//!
//! * a SQL surface: DDL, DML, queries with joins / grouping / set operators,
//!   views, and secondary indexes;
//! * concurrent sessions with table-level two-phase locking, transactions and
//!   isolation levels — one [`Session`] per "connection", which is how SQLoop
//!   extracts parallelism from an unmodified engine;
//! * three [`EngineProfile`]s whose *executors and dialects genuinely
//!   differ* (hash joins vs. nested loops, `UPDATE … FROM` vs.
//!   `UPDATE … JOIN`, `Infinity` literals, recursive-CTE availability), so
//!   multi-engine experiments measure real architectural differences.
//!
//! ## Quick start
//!
//! ```
//! use sqldb::{Database, EngineProfile};
//!
//! # fn main() -> Result<(), sqldb::DbError> {
//! let db = Database::new(EngineProfile::Postgres);
//! let mut conn = db.connect();
//! conn.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")?;
//! conn.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 1, 0.5)")?;
//! let out = conn.query("SELECT src, COUNT(*) FROM edges GROUP BY src ORDER BY src")?;
//! assert_eq!(out.rows.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod batch;
pub mod bind;
pub mod budget;
pub mod catalog;
mod db;
pub mod dialect_check;
pub mod digest;
mod error;
pub mod exec;
pub mod explain;
pub mod join;
pub mod lexer;
pub mod op_profile;
pub mod parser;
pub mod plan_cache;
pub mod profile;
pub mod reads;
pub mod render;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod txn;
pub mod types;
pub mod value;

pub use budget::{row_bytes, MemoryBudget};
pub use db::StmtHandle;
pub use db::{Database, Session, DEFAULT_LOCK_TIMEOUT};
pub use digest::{
    normalize_sql, DigestEntry, DigestStats, SlowLog, SlowStatement, DIGEST_CAPACITY,
    SLOW_LOG_CAPACITY,
};
pub use error::{DbError, DbResult};
pub use exec::{QueryResult, StmtOutput};
pub use op_profile::{OpNode, OpProfiler};
pub use plan_cache::{PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY};
pub use profile::{Dialect, EngineProfile, JoinStrategy};
pub use snapshot::{SalvageReport, TableDump};
pub use stats::{Stats, StatsSnapshot};
pub use txn::IsolationLevel;
pub use types::{Column, DataType, Schema};
pub use value::{Row, Value};

#[cfg(test)]
mod batch_equivalence;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Session>();
        assert_send_sync::<DbError>();
        assert_send_sync::<Value>();
    }
}
