//! Dialect translation module (paper §IV-B): parse, then render.
//!
//! SQLoop composes its internal statements in one canonical dialect
//! (PostgreSQL-flavored); translating one parses it and prints it with
//! [`sqldb::render`], which spells the target engine's dialect and holds the
//! pre-defined rewrite rules. The paper does this "every time before it submits
//! a new query"; here it happens once per *distinct* statement: setup,
//! cleanup and control statements are translated where they are submitted,
//! and the statements of Compute and Gather tasks — the same few texts,
//! submitted thousands of times — are translated by
//! [`crate::parallel_sql::SqlGen`] when a partition or message slot is
//! first seen and reused byte-identical after that.
//!
//! The engine *validates* every statement it receives against its profile
//! ([`sqldb::dialect_check`]), translated once or not at all, so a skipped
//! translation still fails loudly — as it would against the real engines.

use crate::error::{SqloopError, SqloopResult};
use sqldb::ast::SelectStmt;
use sqldb::profile::EngineProfile;
use sqldb::render;

/// Parses canonical SQL and renders it for `target`.
///
/// # Errors
/// Returns [`SqloopError::Grammar`] when the canonical SQL does not parse.
pub fn translate_sql(sql: &str, target: EngineProfile) -> SqloopResult<String> {
    let stmt = sqldb::parser::parse_statement(sql)
        .map_err(|e| SqloopError::Grammar(format!("canonical SQL: {e} in: {sql}")))?;
    Ok(render::statement_to_sql(&stmt, &target.dialect()))
}

/// Renders a bare canonical query for `target`.
pub fn translate_query_to_sql(q: &SelectStmt, target: EngineProfile) -> String {
    render::query_to_sql(q, &target.dialect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::dialect_check::validate;
    use sqldb::parser::parse_statement;

    /// every translated statement must validate on its target engine
    fn translate_and_validate(sql: &str, target: EngineProfile) -> String {
        let out = translate_sql(sql, target).unwrap();
        let stmt = parse_statement(&out).unwrap();
        validate(&stmt, &target.dialect()).unwrap_or_else(|e| panic!("{target}: {e}: {out}"));
        out
    }

    #[test]
    fn update_from_becomes_update_join_on_mysql() {
        let sql = "UPDATE r SET delta = m.v FROM msg AS m WHERE r.id = m.id";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("JOIN"), "{out}");
        assert!(!out.contains(" FROM "), "{out}");
        // unchanged on postgres
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("FROM"), "{out}");
    }

    #[test]
    fn update_join_becomes_update_from_on_postgres() {
        let sql = "UPDATE r JOIN msg ON r.id = msg.id SET delta = msg.v WHERE msg.v > 0";
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("FROM"), "{out}");
        // ON and WHERE merged
        assert!(out.contains("AND"), "{out}");
    }

    #[test]
    fn infinity_replaced_for_mysql_family() {
        let sql = "SELECT CASE WHEN a = 1 THEN 0 ELSE Infinity END FROM t";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("1e308"), "{out}");
        let out = translate_and_validate(sql, EngineProfile::MariaDb);
        assert!(out.contains("1e308"), "{out}");
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("Infinity"), "{out}");
    }

    #[test]
    fn concat_operator_becomes_function_on_mysql() {
        let sql = "SELECT a || b FROM t";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.to_uppercase().contains("CONCAT("), "{out}");
        let out = translate_and_validate(sql, EngineProfile::MariaDb);
        assert!(out.contains("||"), "{out}");
    }

    #[test]
    fn quoting_follows_target() {
        let out = translate_sql("SELECT a FROM t", EngineProfile::MySql).unwrap();
        assert!(out.contains('`'), "{out}");
        let out = translate_sql("SELECT a FROM t", EngineProfile::Postgres).unwrap();
        assert!(out.contains('"'), "{out}");
    }

    #[test]
    fn nested_infinity_inside_update_assignment() {
        let sql = "UPDATE r SET d = LEAST(d, Infinity) WHERE id = 1";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("1e308"), "{out}");
    }

    #[test]
    fn every_profile_accepts_its_own_translation_of_a_gather_statement() {
        // the exact statement shape the Gather task emits
        let sql = "UPDATE pr__pt3 SET delta = delta + inc.val FROM \
                   (SELECT id, SUM(val) AS val FROM \
                    (SELECT id, val FROM pr__msg_1_0 UNION ALL SELECT id, val FROM pr__msg_2_0) \
                    AS msgs GROUP BY id) AS inc \
                   WHERE pr__pt3.node = inc.id";
        for p in EngineProfile::ALL {
            translate_and_validate(sql, p);
        }
    }
}
