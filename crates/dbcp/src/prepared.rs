//! Client-side prepared-statement handles.
//!
//! A [`PreparedStatement`] pins one SQL text and lazily prepares it on
//! whatever physical connection executes it. Server-side statement ids are
//! only valid for one physical connection (identified by
//! [`Connection::prepared_epoch`]), so after a retry/reconnect the handle
//! notices the epoch change and transparently re-prepares — composing with
//! [`crate::RetryPolicy`] replay without any caller involvement. Transports
//! that answer [`DbError::Unsupported`] (and epoch-free ones) degrade
//! permanently (per handle) to splicing parameter literals, rendered in the
//! connection's dialect, into the SQL text and using plain `execute`.

use crate::driver::Connection;
use crate::wire::PipelineStep;
use sqldb::ast::Expr;
use sqldb::{render, DbError, DbResult, EngineProfile, StmtOutput, Value};

/// A reusable statement bound to no particular connection.
///
/// Cheap to clone; clones share nothing (each re-prepares independently).
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: String,
    /// `(epoch, stmt_id)` of the live server-side statement, when prepared.
    cached: Option<(u64, u64)>,
    /// The transport refused to prepare; splice literals from now on.
    fallback: bool,
}

impl PreparedStatement {
    /// Wraps canonical SQL (with optional `?` placeholders).
    pub fn new(sql: impl Into<String>) -> PreparedStatement {
        PreparedStatement {
            sql: sql.into(),
            cached: None,
            fallback: false,
        }
    }

    /// The SQL text this handle executes.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// True once the transport declined preparation and the handle degraded
    /// to literal splicing.
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Ensures a live server-side statement on `conn`, re-preparing after
    /// reconnects. Returns `None` when the transport can't prepare.
    fn ensure(&mut self, conn: &mut dyn Connection) -> DbResult<Option<u64>> {
        if self.fallback {
            return Ok(None);
        }
        let epoch = conn.prepared_epoch();
        if epoch == 0 {
            // epoch-free transport: never prepares
            return Ok(None);
        }
        if let Some((ep, id)) = self.cached {
            if ep == epoch {
                return Ok(Some(id));
            }
        }
        match conn.prepare_statement(&self.sql) {
            Ok((id, _)) => {
                self.cached = Some((epoch, id));
                Ok(Some(id))
            }
            Err(DbError::Unsupported(_)) => {
                self.fallback = true;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Executes on `conn` with `params` filling the `?` placeholders,
    /// preparing (or re-preparing) first as needed.
    ///
    /// # Errors
    /// Everything [`Connection::execute_prepared`] can return; on the
    /// splicing fallback, everything [`Connection::execute`] can return.
    pub fn execute(&mut self, conn: &mut dyn Connection, params: &[Value]) -> DbResult<StmtOutput> {
        match self.ensure(conn)? {
            Some(id) => match conn.execute_prepared(id, params) {
                Err(DbError::NotFound(_)) => {
                    // the server dropped our statement (e.g. session was
                    // rebuilt under the same transport object) — one retry
                    // with a forced re-prepare
                    self.cached = None;
                    match self.ensure(conn)? {
                        Some(id) => conn.execute_prepared(id, params),
                        None => conn.execute(&splice_params(&self.sql, params, conn.profile())?),
                    }
                }
                other => other,
            },
            None => conn.execute(&splice_params(&self.sql, params, conn.profile())?),
        }
    }

    /// Converts this handle into one pipeline step for `conn`, preparing
    /// first as needed. Fallback handles become plain `Execute` steps.
    ///
    /// # Errors
    /// Prepare/transport errors, or a parameter-count mismatch on the
    /// splicing fallback.
    pub fn pipeline_step(
        &mut self,
        conn: &mut dyn Connection,
        params: &[Value],
    ) -> DbResult<PipelineStep> {
        match self.ensure(conn)? {
            Some(stmt_id) => Ok(PipelineStep::Prepared {
                stmt_id,
                params: params.to_vec(),
            }),
            None => {
                let sql = splice_params(&self.sql, params, conn.profile())?;
                Ok(PipelineStep::Execute(sql.into()))
            }
        }
    }

    /// Drops the server-side statement (best effort, idempotent).
    ///
    /// # Errors
    /// Transport failures from the close message.
    pub fn close(&mut self, conn: &mut dyn Connection) -> DbResult<()> {
        if let Some((ep, id)) = self.cached.take() {
            if ep == conn.prepared_epoch() {
                conn.close_prepared(id)?;
            }
        }
        Ok(())
    }
}

/// Replaces the `?` placeholders in `sql` with literals rendered in
/// `profile`'s dialect, skipping `?` inside single-quoted strings.
///
/// # Errors
/// [`DbError::Invalid`] when the placeholder and parameter counts differ.
pub(crate) fn splice_params(
    sql: &str,
    params: &[Value],
    profile: EngineProfile,
) -> DbResult<String> {
    if params.is_empty() && !sql.contains('?') {
        return Ok(sql.to_owned());
    }
    let mut out = String::with_capacity(sql.len() + params.len() * 8);
    let dialect = profile.dialect();
    let mut next = 0usize;
    let mut in_string = false;
    for ch in sql.chars() {
        match ch {
            '\'' => {
                // '' escapes inside strings toggle twice — harmless
                in_string = !in_string;
                out.push(ch);
            }
            '?' if !in_string => {
                let v = params.get(next).ok_or_else(|| {
                    DbError::Invalid(format!(
                        "statement has more than {} placeholder(s) but only {} value(s) were bound",
                        next,
                        params.len()
                    ))
                })?;
                out.push_str(&render::expr_to_sql(&Expr::Literal(v.clone()), &dialect));
                next += 1;
            }
            _ => out.push(ch),
        }
    }
    if next != params.len() {
        return Err(DbError::Invalid(format!(
            "statement has {next} placeholder(s) but {} value(s) were bound",
            params.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, LocalDriver};
    use sqldb::{Database, EngineProfile};

    const PG: EngineProfile = EngineProfile::Postgres;

    #[test]
    fn splice_basics() {
        assert_eq!(
            splice_params(
                "SELECT * FROM t WHERE a > ? AND b = ?",
                &[Value::Int(3), Value::Text("x'y".into())],
                PG
            )
            .unwrap(),
            "SELECT * FROM t WHERE a > 3 AND b = 'x''y'"
        );
        // ? inside string literals is not a placeholder
        assert_eq!(
            splice_params("SELECT '?' FROM t WHERE a = ?", &[Value::Float(2.0)], PG).unwrap(),
            "SELECT '?' FROM t WHERE a = 2.0"
        );
        assert!(splice_params("SELECT ?", &[], PG).is_err());
        assert!(splice_params("SELECT 1", &[Value::Int(1)], PG).is_err());
    }

    #[test]
    fn prepared_roundtrip_on_local_connection() {
        let db = Database::new(EngineProfile::Postgres);
        let driver = LocalDriver::new(db);
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        let mut ins = PreparedStatement::new("INSERT INTO t VALUES (?, ?)");
        for i in 0..5i64 {
            ins.execute(conn.as_mut(), &[Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let mut sel = PreparedStatement::new("SELECT COUNT(*) FROM t WHERE v >= ?");
        match sel.execute(conn.as_mut(), &[Value::Float(2.0)]).unwrap() {
            StmtOutput::Rows(r) => assert_eq!(r.rows[0][0], Value::Int(3)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!sel.is_fallback());
        sel.close(conn.as_mut()).unwrap();
        ins.close(conn.as_mut()).unwrap();
    }

    #[test]
    fn epoch_change_triggers_transparent_re_prepare() {
        let db = Database::new(EngineProfile::Postgres);
        let driver = LocalDriver::new(db);
        let mut a = driver.connect().unwrap();
        a.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        let mut stmt = PreparedStatement::new("INSERT INTO t VALUES (?)");
        stmt.execute(a.as_mut(), &[Value::Int(1)]).unwrap();
        // a different physical connection (new epoch): the handle must
        // re-prepare rather than use the stale id
        let mut b = driver.connect().unwrap();
        assert_ne!(a.prepared_epoch(), b.prepared_epoch());
        stmt.execute(b.as_mut(), &[Value::Int(2)]).unwrap();
        let r = b.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }
}
