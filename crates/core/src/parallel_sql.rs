//! Canonical SQL generation for the parallel executor: partition tables,
//! the union view, the materialized constant join (`Rmjoin`), and the
//! Compute / Gather task statements (paper §V-B..D).
//!
//! Everything is composed in the canonical dialect; workers run each
//! statement through the translation module for their engine.

use crate::analysis::{ParallelPlan, EDGE_QUAL, SOURCE_QUAL};
use crate::common::{CteNames, CteSchema};
use sqldb::ast::{AggregateFunction, Expr};
use sqldb::profile::EngineProfile;
use sqldb::render;
use sqldb::{Row, Value};

/// Hidden column names used when the aggregate is `AVG` (paper §V-D: AVG
/// gathers need both the partial sum and the partial count).
pub const AVG_SUM_COL: &str = "__avg_sum";
/// See [`AVG_SUM_COL`].
pub const AVG_CNT_COL: &str = "__avg_cnt";
/// Hidden watermark column for idempotent aggregates (MIN/MAX): the delta
/// value last sent out. Idempotent deltas are *not* reset after a Compute
/// (resetting would make any stale incoming message look like progress);
/// instead a row only emits messages when its delta moved past the
/// watermark — Maiter\'s consumed-delta, adapted to idempotent ⊕.
pub const SENT_COL: &str = "__sent";

/// SQL builder bound to one CTE's names, schema and plan.
#[derive(Debug, Clone)]
pub struct SqlGen {
    names: CteNames,
    schema: CteSchema,
    plan: ParallelPlan,
    partitions: usize,
    materialize_join: bool,
}

impl SqlGen {
    /// Creates a builder.
    pub fn new(
        names: CteNames,
        schema: CteSchema,
        plan: ParallelPlan,
        partitions: usize,
        materialize_join: bool,
    ) -> SqlGen {
        SqlGen {
            names,
            schema,
            plan,
            partitions,
            materialize_join,
        }
    }

    /// The plan driving this builder.
    pub fn plan(&self) -> &ParallelPlan {
        &self.plan
    }

    /// The CTE schema.
    pub fn schema(&self) -> &CteSchema {
        &self.schema
    }

    /// The name helpers.
    pub fn names(&self) -> &CteNames {
        &self.names
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    fn is_avg(&self) -> bool {
        self.plan.aggregate == AggregateFunction::Avg
    }

    /// MIN/MAX keep their delta and use a sent-watermark instead of a reset.
    fn is_idempotent(&self) -> bool {
        matches!(
            self.plan.aggregate,
            AggregateFunction::Min | AggregateFunction::Max
        )
    }

    fn key(&self) -> &str {
        self.schema.key()
    }

    fn delta_col(&self) -> &str {
        &self.schema.columns[self.plan.delta_index]
    }

    /// Stable hash bucket for a key value (middleware-side partitioning on
    /// `Rid`, paper §V-B). Integer keys use modulo so the *same* function is
    /// expressible in SQL (`MOD(id, n)`), which lets Compute tasks report
    /// which partitions each message table targets; other types fall back
    /// to a middleware-only hash (and broadcast gathers).
    pub fn bucket(&self, key: &Value) -> usize {
        let n = self.partitions as u64;
        match key {
            Value::Int(i) => i.rem_euclid(self.partitions as i64) as usize,
            other => (stable_hash(other) % n) as usize,
        }
    }

    /// True when message routing (per-partition gather targeting) is
    /// available — requires an integer key column.
    pub fn routing_enabled(&self) -> bool {
        self.schema.types[0] == sqldb::DataType::Int
    }

    /// Query returning the distinct destination partitions of a message
    /// table (only valid when [`SqlGen::routing_enabled`]). The master
    /// normalizes the SQL truncating-modulo to `rem_euclid`.
    pub fn touched_partitions_sql(&self, msg_table: &str) -> String {
        format!(
            "SELECT DISTINCT MOD(id, {}) FROM {msg_table}",
            self.partitions
        )
    }

    /// Names of the hidden bookkeeping columns partition tables carry
    /// beyond the declared CTE schema (all `FLOAT`); the checkpoint dump
    /// needs them to capture the full partition state.
    pub fn hidden_columns(&self) -> Vec<&'static str> {
        let mut cols = Vec::new();
        if self.is_avg() {
            cols.push(AVG_SUM_COL);
            cols.push(AVG_CNT_COL);
        }
        if self.is_idempotent() {
            cols.push(SENT_COL);
        }
        cols
    }

    // -- setup statements -------------------------------------------------

    /// `CREATE TABLE <pt_x> (…)` including hidden bookkeeping columns.
    pub fn create_partition_sql(&self, x: usize) -> String {
        let mut body = self.schema.create_columns_sql(true);
        if self.is_avg() {
            body.push_str(&format!(", {AVG_SUM_COL} FLOAT, {AVG_CNT_COL} FLOAT"));
        }
        if self.is_idempotent() {
            body.push_str(&format!(", {SENT_COL} FLOAT"));
        }
        format!("CREATE TABLE {} ({})", self.names.partition(x), body)
    }

    /// Batched `INSERT` of rows into partition `x`.
    ///
    /// # Panics
    /// Panics if `rows` is empty (callers batch non-empty chunks).
    pub fn insert_partition_sql(&self, x: usize, rows: &[Row]) -> String {
        assert!(!rows.is_empty(), "insert batch must be non-empty");
        let cols = self.schema.columns.join(", ");
        let values = rows
            .iter()
            .map(|row| {
                let vals = row.iter().map(value_literal).collect::<Vec<_>>().join(", ");
                format!("({vals})")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "INSERT INTO {} ({cols}) VALUES {values}",
            self.names.partition(x)
        )
    }

    /// Initializes the hidden bookkeeping columns (`None` when none exist).
    pub fn init_hidden_sql(&self, x: usize) -> Option<String> {
        let mut sets = Vec::new();
        if self.is_avg() {
            sets.push(format!("{AVG_SUM_COL} = 0.0"));
            sets.push(format!("{AVG_CNT_COL} = 0.0"));
        }
        if self.is_idempotent() {
            sets.push(format!("{SENT_COL} = {}", self.plan.identity_sql()));
        }
        if sets.is_empty() {
            None
        } else {
            Some(format!(
                "UPDATE {} SET {}",
                self.names.partition(x),
                sets.join(", ")
            ))
        }
    }

    /// Redefines `R` as the union view over its partitions (paper §V-B:
    /// "to avoid copying data at the end of Ri back to R, we re-define R as
    /// a view of Rpt1 ∪ … ∪ Rptn").
    pub fn create_view_sql(&self) -> String {
        let cols = self.schema.columns.join(", ");
        let branches = (0..self.partitions)
            .map(|x| format!("SELECT {cols} FROM {}", self.names.partition(x)))
            .collect::<Vec<_>>()
            .join(" UNION ALL ");
        format!("CREATE VIEW {} AS {branches}", self.names.table)
    }

    /// Materializes the constant part of the join (paper §V-B `Rmjoin`):
    /// `__dst`, `__src`, plus every edge attribute the message expression
    /// uses. `R` must still be a base table when this runs.
    pub fn create_mjoin_sql(&self) -> String {
        let mut proj = vec![
            format!("__e.{} AS __dst", self.plan.edge_dst_col),
            format!("__e.{} AS __src", self.plan.edge_src_col),
        ];
        for c in &self.plan.edge_cols_used {
            proj.push(format!("__e.{c} AS {c}"));
        }
        format!(
            "CREATE TABLE {mj} AS SELECT {proj} FROM {edges} AS __e \
             JOIN {r} AS __r1 ON __r1.{k} = __e.{dst} \
             JOIN {r} AS __r2 ON __r2.{k} = __e.{src}",
            mj = self.names.mjoin(),
            proj = proj.join(", "),
            edges = self.plan.edge_table,
            r = self.names.table,
            k = self.key(),
            dst = self.plan.edge_dst_col,
            src = self.plan.edge_src_col,
        )
    }

    /// Index on the source column of the edge side of the Compute join
    /// (paper §V-C: "indexes on all tables"). Compute puts its partition
    /// first and the edges second, so on every profile the engine probes
    /// this index once per pending row instead of reading every edge.
    pub fn join_index_sql(&self) -> String {
        if self.materialize_join {
            format!(
                "CREATE INDEX {mj}__isrc ON {mj} (__src)",
                mj = self.names.mjoin()
            )
        } else {
            format!(
                "CREATE INDEX IF NOT EXISTS {e}__isrc ON {e} ({src})",
                e = self.plan.edge_table,
                src = self.plan.edge_src_col
            )
        }
    }

    // -- Compute task (paper §V-C, first + second step) --------------------

    /// Statement 1 of Compute(x): build the message table from partition
    /// `x`'s pending deltas, grouped by destination id.
    pub fn compute_message_sql(&self, x: usize, msg_table: &str) -> String {
        format!(
            "CREATE TABLE {msg_table} AS {}",
            self.message_select_body(x)
        )
    }

    /// `CREATE TABLE <slot> (…)` for a reusable message slot — the
    /// generation-stable replacement for per-round `CREATE TABLE … AS`.
    /// Slot names carry no round number, so every round's statements are
    /// textually identical and the plan cache serves them without a parse.
    pub fn create_message_slot_sql(&self, slot: &str) -> String {
        let id_ty = self.schema.types[0];
        if self.is_avg() {
            format!("CREATE TABLE {slot} (id {id_ty}, vsum FLOAT, vcnt FLOAT)")
        } else {
            format!("CREATE TABLE {slot} (id {id_ty}, val FLOAT)")
        }
    }

    /// `DELETE FROM <slot>`: truncates a reused message slot before the
    /// refill (which also makes a replayed Compute idempotent — the replay
    /// clears whatever a half-finished predecessor left behind).
    pub fn clear_message_slot_sql(&self, slot: &str) -> String {
        format!("DELETE FROM {slot}")
    }

    /// Statement 1 of Compute(x) in slot form: `INSERT INTO <slot> SELECT …`
    /// with the same body [`SqlGen::compute_message_sql`] materializes.
    pub fn insert_message_sql(&self, x: usize, slot: &str) -> String {
        let cols = if self.is_avg() {
            "id, vsum, vcnt"
        } else {
            "id, val"
        };
        format!(
            "INSERT INTO {slot} ({cols}) {}",
            self.message_select_body(x)
        )
    }

    /// The shared `SELECT` body both message-table forms project: partition
    /// `x`'s pending deltas joined to the (materialized) edges, aggregated
    /// per destination id.
    fn message_select_body(&self, x: usize) -> String {
        let msg_expr = render_expr(&self.plan.message_expr);
        let agg = self.plan.aggregate;
        let projection = if self.is_avg() {
            format!("SUM({msg_expr}) AS vsum, COUNT({msg_expr}) AS vcnt")
        } else {
            // the §V-D correction: Compute emits *partial counts* for COUNT
            // (Gather then SUMs them rather than re-counting messages)
            let f = match agg {
                AggregateFunction::Sum => "SUM",
                AggregateFunction::Count => "COUNT",
                AggregateFunction::Min => "MIN",
                AggregateFunction::Max => "MAX",
                AggregateFunction::Avg => unreachable!(),
            };
            format!("{f}({msg_expr}) AS val")
        };
        let mut filters = vec![self.pending_predicate(SOURCE_QUAL)];
        for f in &self.plan.source_filter {
            filters.push(render_expr(f));
        }
        // partition first: its pending rows are the outer side, and the
        // (materialized) edges — indexed on the source column by
        // `join_index_sql` — the inner one the engine probes
        let (edges, src, dst) = if self.materialize_join {
            (self.names.mjoin(), "__src", "__dst")
        } else {
            (
                self.plan.edge_table.clone(),
                self.plan.edge_src_col.as_str(),
                self.plan.edge_dst_col.as_str(),
            )
        };
        let from = format!(
            "{pt} AS {SOURCE_QUAL} JOIN {edges} AS {EDGE_QUAL} \
             ON {EDGE_QUAL}.{src} = {SOURCE_QUAL}.{k}",
            pt = self.names.partition(x),
            k = self.key(),
        );
        let dst_ref = format!("{EDGE_QUAL}.{dst}");
        format!(
            "SELECT {dst_ref} AS id, {projection} FROM {from} WHERE {} GROUP BY {dst_ref}",
            filters.join(" AND "),
        )
    }

    /// Statement 2 of Compute(x): apply local column updates and consume
    /// (reset) the delta column.
    pub fn compute_update_sql(&self, x: usize) -> String {
        let mut sets: Vec<String> = self
            .plan
            .local_exprs
            .iter()
            .map(|(i, e)| format!("{} = {}", self.schema.columns[*i], render_expr(e)))
            .collect();
        if self.is_idempotent() {
            // no reset: advance the sent-watermark to the emitted delta
            sets.push(format!("{SENT_COL} = {}", self.delta_col()));
        } else {
            sets.push(format!(
                "{} = {}",
                self.delta_col(),
                self.plan.identity_sql()
            ));
        }
        if self.is_avg() {
            sets.push(format!("{AVG_SUM_COL} = 0.0"));
            sets.push(format!("{AVG_CNT_COL} = 0.0"));
        }
        format!("UPDATE {} SET {}", self.names.partition(x), sets.join(", "))
    }

    // -- Gather task (paper §V-C/D) ----------------------------------------

    /// Gather(x): fold every unread message table into the delta column in
    /// a single statement (paper §V-C: "a single query that contains the
    /// union of all the message tables"). With routing, each branch of the
    /// union keeps only the rows addressed to partition `x`, so the fold
    /// and the update work on O(|partition|) rows instead of every message.
    ///
    /// # Panics
    /// Panics if `msg_tables` is empty.
    pub fn gather_sql(&self, x: usize, msg_tables: &[&str]) -> String {
        assert!(!msg_tables.is_empty(), "gather needs at least one table");
        let pt = self.names.partition(x);
        let k = self.key();
        let delta = self.delta_col();
        let routed = self.routed_to_sql(x);
        if self.is_avg() {
            let unions = msg_tables
                .iter()
                .map(|m| format!("SELECT id, vsum, vcnt FROM {m}{routed}"))
                .collect::<Vec<_>>()
                .join(" UNION ALL ");
            return format!(
                "UPDATE {pt} SET \
                 {AVG_SUM_COL} = {AVG_SUM_COL} + inc.vsum, \
                 {AVG_CNT_COL} = {AVG_CNT_COL} + inc.vcnt, \
                 {delta} = ({AVG_SUM_COL} + inc.vsum) / ({AVG_CNT_COL} + inc.vcnt) \
                 FROM (SELECT id, SUM(vsum) AS vsum, SUM(vcnt) AS vcnt \
                       FROM ({unions}) AS msgs GROUP BY id) AS inc \
                 WHERE {pt}.{k} = inc.id"
            );
        }
        let unions = msg_tables
            .iter()
            .map(|m| format!("SELECT id, val FROM {m}{routed}"))
            .collect::<Vec<_>>()
            .join(" UNION ALL ");
        // pre-fold across tables, then accumulate into the delta column
        let (pre, fold) = match self.plan.aggregate {
            AggregateFunction::Sum | AggregateFunction::Count => {
                ("SUM", format!("{delta} + inc.val"))
            }
            AggregateFunction::Min => ("MIN", format!("LEAST({delta}, inc.val)")),
            AggregateFunction::Max => ("MAX", format!("GREATEST({delta}, inc.val)")),
            AggregateFunction::Avg => unreachable!("handled above"),
        };
        format!(
            "UPDATE {pt} SET {delta} = {fold} \
             FROM (SELECT id, {pre}(val) AS val FROM ({unions}) AS msgs GROUP BY id) AS inc \
             WHERE {pt}.{k} = inc.id"
        )
    }

    /// ` WHERE …` clause keeping the message rows whose `id` falls into
    /// partition `x`: [`SqlGen::bucket`] in SQL. `%` truncates toward zero,
    /// so the remainder is shifted into `0..n` first (`rem_euclid`).
    /// Empty when the key type is not routed (every gather reads all).
    fn routed_to_sql(&self, x: usize) -> String {
        if !self.routing_enabled() {
            return String::new();
        }
        let n = self.partitions;
        format!(" WHERE (id % {n} + {n}) % {n} = {x}")
    }

    /// Predicate selecting rows whose delta is *pending* (≠ the aggregate's
    /// identity): identity-valued deltas produce no information, so Compute
    /// skips them — this is what makes traversal workloads touch only
    /// active partitions.
    fn pending_predicate(&self, qual: &str) -> String {
        let d = format!("{qual}.{}", self.delta_col());
        match self.plan.aggregate {
            AggregateFunction::Min => format!("{d} < Infinity"),
            AggregateFunction::Max => format!("{d} > -Infinity"),
            _ => format!("{d} != 0.0"),
        }
    }

    /// The same pending predicate without a qualifier, for partition-level
    /// activity probes.
    pub fn pending_count_sql(&self, x: usize) -> String {
        let d = self.delta_col();
        let pred = match self.plan.aggregate {
            AggregateFunction::Min => format!("{d} < {SENT_COL}"),
            AggregateFunction::Max => format!("{d} > {SENT_COL}"),
            _ => format!("{d} != 0.0"),
        };
        format!(
            "SELECT COUNT(*) FROM {} WHERE {pred}",
            self.names.partition(x)
        )
    }

    /// Drops every scratch object this builder may have created.
    pub fn cleanup_sql(&self) -> Vec<String> {
        let mut out = vec![
            format!("DROP VIEW IF EXISTS {}", self.names.table),
            format!("DROP TABLE IF EXISTS {}", self.names.mjoin()),
            format!("DROP TABLE IF EXISTS {}", self.names.delta_snapshot()),
        ];
        for x in 0..self.partitions {
            out.push(format!("DROP TABLE IF EXISTS {}", self.names.partition(x)));
        }
        out
    }
}

/// Deterministic, platform-independent hash for partitioning values.
pub fn stable_hash(v: &Value) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    match v {
        Value::Int(i) => (*i as u64).wrapping_mul(GOLDEN),
        Value::Float(f) => f.to_bits().wrapping_mul(GOLDEN),
        Value::Text(s) => {
            // FNV-1a
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in s.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
        Value::Bool(b) => u64::from(*b).wrapping_mul(GOLDEN),
        Value::Null => 0,
    }
}

fn render_expr(e: &Expr) -> String {
    render::expr_to_sql(e, &EngineProfile::Postgres.dialect())
}

/// Canonical-dialect SQL literal for a value (`Infinity` literals included);
/// the checkpoint restore path uses this to re-INSERT dumped rows.
pub(crate) fn value_literal(v: &Value) -> String {
    render::expr_to_sql(
        &Expr::Literal(v.clone()),
        &EngineProfile::Postgres.dialect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AnalysisOutcome};
    use crate::grammar::{parse, SqloopQuery};
    use crate::translate::translate_sql;
    use sqldb::DataType;

    fn pagerank_gen(partitions: usize, materialize: bool) -> SqlGen {
        let cte = match parse(
            "WITH ITERATIVE pr(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 FROM edges GROUP BY src \
             ITERATE \
             SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15), \
             COALESCE(0.85 * SUM(ir.Delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.Node = ie.dst \
             LEFT JOIN pr AS ir ON ir.Node = ie.src \
             GROUP BY pr.Node UNTIL 10 ITERATIONS) SELECT * FROM pr",
        )
        .unwrap()
        {
            SqloopQuery::Iterative(c) => c,
            _ => unreachable!(),
        };
        let cols = vec!["node".to_string(), "rank".to_string(), "delta".to_string()];
        let plan = match analyze(&cte, &cols).unwrap() {
            AnalysisOutcome::Parallelizable(p) => p,
            AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
        };
        let schema = CteSchema {
            columns: cols,
            types: vec![DataType::Int, DataType::Float, DataType::Float],
        };
        SqlGen::new(CteNames::new("pr"), schema, plan, partitions, materialize)
    }

    /// every generated statement must be translatable for every profile
    fn check_all_dialects(sql: &str) {
        for p in EngineProfile::ALL {
            translate_sql(sql, p).unwrap_or_else(|e| panic!("{p}: {e}\nsql: {sql}"));
        }
    }

    #[test]
    fn all_generated_statements_parse_in_all_dialects() {
        let g = pagerank_gen(4, true);
        check_all_dialects(&g.create_partition_sql(0));
        check_all_dialects(&g.create_view_sql());
        check_all_dialects(&g.create_mjoin_sql());
        check_all_dialects(&g.join_index_sql());
        check_all_dialects(&g.compute_message_sql(1, "pr__msg_1_0"));
        check_all_dialects(&g.create_message_slot_sql("pr__msgslot_1_0"));
        check_all_dialects(&g.clear_message_slot_sql("pr__msgslot_1_0"));
        check_all_dialects(&g.insert_message_sql(1, "pr__msgslot_1_0"));
        check_all_dialects(&g.compute_update_sql(1));
        check_all_dialects(&g.gather_sql(2, &["pr__msg_1_0", "pr__msg_3_4"]));
        check_all_dialects(&g.pending_count_sql(0));
        for s in g.cleanup_sql() {
            check_all_dialects(&s);
        }
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.0), Value::Float(0.15)],
            vec![Value::Int(2), Value::Float(0.0), Value::Float(0.15)],
        ];
        check_all_dialects(&g.insert_partition_sql(0, &rows));
    }

    #[test]
    fn compute_message_sql_shape() {
        let g = pagerank_gen(4, true);
        let sql = g.compute_message_sql(1, "pr__msg_1_0");
        assert!(sql.contains("CREATE TABLE pr__msg_1_0"), "{sql}");
        assert!(sql.contains("SUM"), "{sql}");
        assert!(sql.contains("pr__mjoin"), "{sql}");
        assert!(sql.contains("GROUP BY"), "{sql}");
        // pending filter excludes identity deltas
        assert!(sql.contains("!= 0.0"), "{sql}");
        // the 0.85 scale is folded into the per-message expression
        assert!(sql.contains("0.85"), "{sql}");
        // partition first, indexed edge join second: the engine probes
        // `pr__mjoin__isrc` with the partition's pending rows
        assert!(
            sql.contains("FROM pr__pt1 AS __s JOIN pr__mjoin AS __e ON __e.__src = __s.node"),
            "{sql}"
        );
        assert_eq!(
            g.join_index_sql(),
            "CREATE INDEX pr__mjoin__isrc ON pr__mjoin (__src)"
        );
    }

    #[test]
    fn slot_statements_are_generation_stable() {
        let g = pagerank_gen(4, true);
        // the slot form carries no round number: refilling the same slot in
        // two different rounds produces byte-identical SQL (the templating
        // property the plan cache depends on)
        let a = g.insert_message_sql(1, "pr__msgslot_1_0");
        let b = g.insert_message_sql(1, "pr__msgslot_1_0");
        assert_eq!(a, b);
        assert!(
            a.starts_with("INSERT INTO pr__msgslot_1_0 (id, val) SELECT"),
            "{a}"
        );
        // and shares its select body with the CTAS form
        let ctas = g.compute_message_sql(1, "m");
        let body = a.split_once(" SELECT").unwrap().1;
        assert!(ctas.ends_with(&format!("SELECT{body}")), "{ctas}\n{a}");
        let ddl = g.create_message_slot_sql("pr__msgslot_1_0");
        assert_eq!(ddl, "CREATE TABLE pr__msgslot_1_0 (id INT, val FLOAT)");
        assert_eq!(
            g.clear_message_slot_sql("pr__msgslot_1_0"),
            "DELETE FROM pr__msgslot_1_0"
        );
    }

    #[test]
    fn non_materialized_variant_joins_edges_directly() {
        let g = pagerank_gen(4, false);
        let sql = g.compute_message_sql(0, "m");
        assert!(
            sql.contains("FROM pr__pt0 AS __s JOIN edges AS __e ON __e.src = __s.node"),
            "{sql}"
        );
        assert!(sql.contains("GROUP BY __e.dst"), "{sql}");
        assert!(!sql.contains("mjoin"), "{sql}");
        let idx = g.join_index_sql();
        assert!(idx.contains("ON edges"), "{idx}");
    }

    #[test]
    fn gather_sql_folds_with_the_right_operator() {
        let g = pagerank_gen(4, true);
        let sql = g.gather_sql(0, &["m1", "m2"]);
        assert!(
            sql.contains("delta + inc.val") || sql.contains("\"delta\" + inc.val"),
            "{sql}"
        );
        assert!(sql.contains("UNION ALL"), "{sql}");
        assert!(sql.contains("SUM"), "{sql}");
        // each branch reads only the rows routed to partition 0
        assert_eq!(
            sql.matches("WHERE (id % 4 + 4) % 4 = 0").count(),
            2,
            "{sql}"
        );
    }

    #[test]
    fn routed_gather_filter_agrees_with_bucket() {
        let g = pagerank_gen(7, true);
        let db = sqldb::Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE m (id INT, val FLOAT)").unwrap();
        let ids: Vec<i64> = (-25..25).chain([i64::MIN + 1, i64::MAX - 7]).collect();
        let values: Vec<String> = ids.iter().map(|i| format!("({i}, 1.0)")).collect();
        s.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
            .unwrap();
        let mut seen = 0;
        for x in 0..7 {
            let sql = format!("SELECT id FROM m{}", g.routed_to_sql(x));
            for row in s.query(&sql).unwrap().rows {
                assert_eq!(g.bucket(&row[0]), x, "id {} in partition {x}", row[0]);
                seen += 1;
            }
        }
        assert_eq!(
            seen,
            ids.len(),
            "every message is routed to exactly one partition"
        );
    }

    #[test]
    fn unrouted_key_types_keep_the_broadcast_gather() {
        let mut g = pagerank_gen(4, true);
        g.schema.types[0] = DataType::Text;
        assert!(!g.routing_enabled());
        let sql = g.gather_sql(0, &["m1", "m2"]);
        assert!(!sql.contains("%"), "{sql}");
        assert!(sql.contains("SELECT id, val FROM m1 UNION ALL"), "{sql}");
    }

    #[test]
    fn compute_update_resets_delta() {
        let g = pagerank_gen(4, true);
        let sql = g.compute_update_sql(2);
        assert!(sql.contains("delta = 0.0"), "{sql}");
        assert!(sql.contains("rank = "), "{sql}");
    }

    #[test]
    fn bucket_is_stable_and_in_range() {
        let g = pagerank_gen(7, true);
        for i in 0..100i64 {
            let b1 = g.bucket(&Value::Int(i));
            let b2 = g.bucket(&Value::Int(i));
            assert_eq!(b1, b2);
            assert!(b1 < 7);
        }
        // text keys hash too
        assert!(g.bucket(&Value::Text("abc".into())) < 7);
    }

    #[test]
    fn buckets_spread_reasonably() {
        let g = pagerank_gen(8, true);
        let mut counts = vec![0usize; 8];
        for i in 0..8000i64 {
            counts[g.bucket(&Value::Int(i))] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > 500 && *c < 1500,
                "bucket {i} holds {c} of 8000 — bad spread: {counts:?}"
            );
        }
    }

    #[test]
    fn view_unions_every_partition() {
        let g = pagerank_gen(3, true);
        let sql = g.create_view_sql();
        assert_eq!(sql.matches("UNION ALL").count(), 2);
        assert!(sql.contains("pr__pt0") && sql.contains("pr__pt2"), "{sql}");
    }
}
