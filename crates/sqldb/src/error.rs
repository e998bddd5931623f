//! Error type shared by every layer of the engine.

use std::fmt;

/// Errors produced while parsing, planning or executing SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The SQL text could not be tokenized or parsed.
    Parse(String),
    /// A referenced catalog object (table, view, index, column) does not exist.
    NotFound(String),
    /// An object with the same name already exists.
    AlreadyExists(String),
    /// The statement is valid SQL but violates engine semantics
    /// (arity mismatch, duplicate primary key, type mismatch, ...).
    Invalid(String),
    /// Evaluation failed at runtime (division by zero, bad cast, ...).
    Eval(String),
    /// A lock could not be acquired before the deadlock-avoidance timeout.
    LockTimeout(String),
    /// The transaction was aborted and must be rolled back.
    TxnAborted(String),
    /// The engine profile does not support the requested feature
    /// (e.g. recursive CTEs on the MySQL 5.7 profile).
    Unsupported(String),
    /// A connectivity-layer failure (used by the `dbcp` crate).
    Connection(String),
    /// A budget was exhausted: the engine's memory, or a connection's
    /// prepared statements. Not retryable: the same statement against the
    /// same budget fails again.
    BudgetExceeded(String),
    /// The statement ran past its execution deadline.
    Timeout(String),
    /// The server is shedding load (admission control or statement
    /// high-water mark). Retryable: backing off and retrying is expected
    /// to succeed once in-flight work drains.
    Overloaded(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::NotFound(m) => write!(f, "not found: {m}"),
            DbError::AlreadyExists(m) => write!(f, "already exists: {m}"),
            DbError::Invalid(m) => write!(f, "invalid statement: {m}"),
            DbError::Eval(m) => write!(f, "evaluation error: {m}"),
            DbError::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            DbError::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DbError::Connection(m) => write!(f, "connection error: {m}"),
            DbError::BudgetExceeded(m) => write!(f, "budget exceeded: {m}"),
            DbError::Timeout(m) => write!(f, "statement timeout: {m}"),
            DbError::Overloaded(m) => write!(f, "overloaded: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenient result alias used across the engine.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = DbError::NotFound("table t".into());
        assert_eq!(e.to_string(), "not found: table t");
        let e = DbError::Parse("unexpected token".into());
        assert!(e.to_string().starts_with("parse error"));
        let e = DbError::BudgetExceeded("memory limit 1024 bytes".into());
        assert_eq!(e.to_string(), "budget exceeded: memory limit 1024 bytes");
        let e = DbError::Timeout("deadline passed".into());
        assert!(e.to_string().starts_with("statement timeout"));
        let e = DbError::Overloaded("64 statements in flight".into());
        assert!(e.to_string().starts_with("overloaded"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbError>();
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(DbError::Eval("division by zero".into()));
        assert!(e.to_string().contains("division by zero"));
    }
}
