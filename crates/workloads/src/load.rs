//! Loading graphs into an engine as the `edges` table.

use crate::queries::EDGES_DDL;
use dbcp::Connection;
use graphgen::Graph;
use sqldb::Value;
use sqloop::common::{insert_rows, INSERT_CHUNK_ROWS};
use sqloop::translate::translate_sql;
use sqloop::{SqloopError, SqloopResult};

/// Creates and fills `edges(src, dst, weight)` with the paper's
/// `1/outdegree` weights, as typed parameters of prepared batch inserts.
///
/// # Errors
/// Engine/translation errors; [`SqloopError::Config`] for a node id beyond
/// `i64`, before anything is dropped.
pub fn load_edges(conn: &mut dyn Connection, graph: &Graph) -> SqloopResult<()> {
    if let Some(v) = graph.nodes().iter().find(|&&v| i64::try_from(v).is_err()) {
        return Err(SqloopError::Config(format!("node id {v} exceeds INT")));
    }
    run(conn, "DROP VIEW IF EXISTS both_edges")?;
    run(conn, "DROP TABLE IF EXISTS edges")?;
    run(conn, EDGES_DDL)?;
    // every id fits an i64 (checked above)
    let edge = |(s, d, w)| [Value::Int(s as i64), Value::Int(d as i64), Value::Float(w)];
    let rows = graph.weighted_edges().into_iter().map(edge);
    let columns = ["src", "dst", "weight"];
    insert_rows(conn, "edges", &columns, rows, INSERT_CHUNK_ROWS)?;
    // the index SQLoop's analyzer relies on for incoming-edge lookups
    run(conn, "CREATE INDEX IF NOT EXISTS edges_dst ON edges (dst)")?;
    Ok(())
}

fn run(conn: &mut dyn Connection, sql: &str) -> SqloopResult<()> {
    let translated = translate_sql(sql, conn.profile())?;
    conn.execute(&translated)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcp::{Driver, LocalDriver};
    use graphgen::chain;
    use sqldb::{Database, EngineProfile};

    #[test]
    fn load_into_every_profile() {
        for profile in EngineProfile::ALL {
            let db = Database::new(profile);
            let mut conn = LocalDriver::new(db).connect().unwrap();
            load_edges(conn.as_mut(), &chain(50)).unwrap();
            let n = conn.query("SELECT COUNT(*) FROM edges").unwrap();
            assert_eq!(n.rows[0][0], Value::Int(49), "{profile}");
        }
    }

    #[test]
    fn a_node_id_beyond_i64_is_refused() {
        let g = graphgen::Graph::from_edges(vec![(0, u64::MAX)]);
        let mut conn = LocalDriver::new(Database::new(EngineProfile::Postgres))
            .connect()
            .unwrap();
        let err = load_edges(conn.as_mut(), &g).unwrap_err();
        assert!(matches!(err, SqloopError::Config(_)), "{err}");
    }

    #[test]
    fn weights_are_inverse_outdegree() {
        let g = graphgen::Graph::from_edges(vec![(0, 1), (0, 2), (1, 2)]);
        let db = Database::new(EngineProfile::Postgres);
        let mut conn = LocalDriver::new(db).connect().unwrap();
        load_edges(conn.as_mut(), &g).unwrap();
        let r = conn
            .query("SELECT weight FROM edges WHERE src = 0 LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(0.5));
    }
}
