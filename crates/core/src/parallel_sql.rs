//! Canonical SQL generation for the parallel executor: partition tables,
//! the union view, the materialized constant join (`Rmjoin`), and the
//! Compute / Gather task statements (paper §V-B..D).
//!
//! Everything is composed in the canonical dialect. Setup and cleanup
//! statements are translated where they are submitted; the statements of a
//! Compute or Gather task leave this module already in the run's dialect,
//! each distinct statement translated once ([`SqlGen::compute_task_sql`],
//! [`SqlGen::gather_task_sql`]) and shared with the worker that runs it.

use crate::analysis::{ParallelPlan, EDGE_QUAL, SOURCE_QUAL};
use crate::common::{CteNames, CteSchema};
use crate::error::{SqloopError, SqloopResult};
use crate::translate::translate_sql;
use sqldb::ast::{AggregateFunction, Expr};
use sqldb::profile::EngineProfile;
use sqldb::render;
use sqldb::Value;
use std::collections::HashMap;
use std::sync::Arc;

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
/// Hidden column of a routed message slot: the partition each message row
/// is addressed to ([`SqlGen::bucket`] of its `id`, computed in SQL by the
/// Compute that fills the slot). Indexed, so a Gather seeks its own rows.
pub const TO_COL: &str = "__to";

/// A task statement in the run's dialect. The scheduler's books, a replay
/// and the worker all hold the same text.
pub type Sql = Arc<str>;

/// The statements of one Compute task, in the run's dialect.
#[derive(Debug, Clone)]
pub struct ComputeSql {
    /// Slot maintenance, the slot fill, the touched-partition query (when
    /// routed) and the partition update, in execution order.
    pub stmts: Vec<Sql>,
    /// Index in `stmts` of the `INSERT … SELECT` that fills the slot.
    pub fill_at: usize,
    /// Index in `stmts` of the partition update; everything before it is
    /// scratch maintenance.
    pub changed_from: usize,
}

/// What partition `x` contributes to its tasks, translated when the
/// partition is first scheduled.
#[derive(Debug, Clone)]
struct PartSql {
    /// Statement 2 of Compute(x).
    update: Sql,
    /// Gather(x) up to its first branch.
    gather_head: String,
    /// One branch of Gather(x) is `branch_pre + <slot> + branch_post`.
    branch_pre: String,
    /// See [`PartSql::branch_pre`].
    branch_post: String,
    /// Gather(x) after its last branch.
    gather_tail: String,
}

/// One message slot's statements, translated when the slot is created.
#[derive(Debug, Clone)]
struct SlotSql {
    /// `DROP TABLE IF EXISTS`, `CREATE TABLE`, and the `__to` index when
    /// routed: what a Compute runs the first time it uses the slot.
    create: Vec<Sql>,
    /// `DELETE FROM`: what it runs on every later use.
    clear: Sql,
    /// Statement 1 of Compute: the refill.
    fill: Sql,
    /// `SELECT DISTINCT __to` (routed slots only).
    touched: Option<Sql>,
}

/// Stand-in slot name used to find where a slot's name goes in a
/// partition's translated Gather text.
const SLOT_PROBE: &str = "__sqloop_slot_probe";

/// SQL builder bound to one CTE's names, schema and plan, and to the
/// dialect of the engine the run talks to.
#[derive(Debug, Clone)]
pub struct SqlGen {
    names: CteNames,
    schema: CteSchema,
    plan: ParallelPlan,
    partitions: usize,
    profile: EngineProfile,
    /// Indexed by partition; `None` until the partition is first scheduled.
    part_sql: Vec<Option<PartSql>>,
    /// Keyed by slot name.
    slot_sql: HashMap<String, SlotSql>,
    translations: u64,
}

impl SqlGen {
    /// Creates a builder whose task statements come out in `profile`'s
    /// dialect.
    pub fn new(
        names: CteNames,
        schema: CteSchema,
        plan: ParallelPlan,
        partitions: usize,
        profile: EngineProfile,
    ) -> SqlGen {
        SqlGen {
            names,
            schema,
            plan,
            partitions,
            profile,
            part_sql: vec![None; partitions],
            slot_sql: HashMap::new(),
            translations: 0,
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

    /// Stable hash bucket for a key value (partitioning on `Rid`, paper
    /// §V-B). Integer keys use modulo so the *same* function is expressible
    /// in SQL (`(id % n + n) % n`), which fills the partitions inside the
    /// engine and lets a Compute address each message row to its
    /// partition; other types fall back to a middleware-only hash (and
    /// broadcast gathers).
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

    /// [`SqlGen::bucket`] of the integer expression `id`, in SQL. `%`
    /// truncates toward zero, so the remainder is shifted into `0..n`
    /// first (`rem_euclid`).
    fn bucket_sql(&self, id: &str) -> String {
        let n = self.partitions;
        format!("({id} % {n} + {n}) % {n}")
    }

    /// Query returning the distinct destination partitions of a message
    /// slot (only valid when [`SqlGen::routing_enabled`]).
    pub fn touched_partitions_sql(&self, msg_table: &str) -> String {
        format!("SELECT DISTINCT {TO_COL} FROM {msg_table}")
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

    /// Fills partition `x` from `R` inside the engine: the rows whose key
    /// [`SqlGen::bucket`] assigns to `x`, in `R`'s order (only valid when
    /// [`SqlGen::routing_enabled`]).
    pub fn fill_partition_sql(&self, x: usize) -> String {
        let cols = self.schema.columns.join(", ");
        format!(
            "INSERT INTO {} ({cols}) SELECT {cols} FROM {} WHERE {} = {x}",
            self.names.partition(x),
            self.names.table,
            self.bucket_sql(self.key()),
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
        format!(
            "CREATE INDEX {mj}__isrc ON {mj} (__src)",
            mj = self.names.mjoin()
        )
    }

    // -- Compute task (paper §V-C, first + second step) --------------------

    /// The value columns of a message slot: the partial sum and count for
    /// `AVG` (paper §V-D), one partial aggregate otherwise.
    fn message_value_cols(&self) -> &'static [&'static str] {
        if self.is_avg() {
            &["vsum", "vcnt"]
        } else {
            &["val"]
        }
    }

    /// `CREATE TABLE <slot> (…)` for a reusable message slot. Slot names
    /// carry no round number, so every round's statements are textually
    /// identical and the plan cache serves them without a parse. A routed
    /// slot also carries [`TO_COL`].
    pub fn create_message_slot_sql(&self, slot: &str) -> String {
        let mut cols = format!("id {}", self.schema.types[0]);
        for c in self.message_value_cols() {
            cols.push_str(&format!(", {c} FLOAT"));
        }
        if self.routing_enabled() {
            cols.push_str(&format!(", {TO_COL} INT"));
        }
        format!("CREATE TABLE {slot} ({cols})")
    }

    /// Index on a routed slot's [`TO_COL`], created alongside the slot
    /// (`None` when the key type is not routed). Idempotent, so a replayed
    /// Compute may run it again.
    pub fn message_slot_index_sql(&self, slot: &str) -> Option<String> {
        self.routing_enabled()
            .then(|| format!("CREATE INDEX IF NOT EXISTS {slot}__ito ON {slot} ({TO_COL})"))
    }

    /// `DROP TABLE IF EXISTS <slot>`.
    pub fn drop_message_slot_sql(&self, slot: &str) -> String {
        format!("DROP TABLE IF EXISTS {slot}")
    }

    /// `DELETE FROM <slot>`: truncates a reused message slot before the
    /// refill (which also makes a replayed Compute idempotent — the replay
    /// clears whatever a half-finished predecessor left behind).
    pub fn clear_message_slot_sql(&self, slot: &str) -> String {
        format!("DELETE FROM {slot}")
    }

    /// Statement 1 of Compute(x): refill `slot` with partition `x`'s
    /// pending deltas joined to the materialized edges, aggregated per
    /// destination id — and, when routed, each row's destination partition.
    pub fn insert_message_sql(&self, x: usize, slot: &str) -> String {
        let msg_expr = render_expr(&self.plan.message_expr);
        let agg = self.plan.aggregate;
        let mut cols = format!("id, {}", self.message_value_cols().join(", "));
        let mut projection = if self.is_avg() {
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
        // materialized edges — indexed on the source column by
        // `join_index_sql` — the inner one the engine probes
        let from = format!(
            "{pt} AS {SOURCE_QUAL} JOIN {mj} AS {EDGE_QUAL} \
             ON {EDGE_QUAL}.__src = {SOURCE_QUAL}.{k}",
            pt = self.names.partition(x),
            mj = self.names.mjoin(),
            k = self.key(),
        );
        let dst_ref = format!("{EDGE_QUAL}.__dst");
        if self.routing_enabled() {
            cols.push_str(&format!(", {TO_COL}"));
            projection.push_str(&format!(", {} AS {TO_COL}", self.bucket_sql(&dst_ref)));
        }
        format!(
            "INSERT INTO {slot} ({cols}) \
             SELECT {dst_ref} AS id, {projection} FROM {from} WHERE {} GROUP BY {dst_ref}",
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

    /// One branch of Gather(x)'s union: the rows of `slot` addressed to
    /// partition `x` (every row when the key type is not routed).
    fn gather_branch_sql(&self, x: usize, slot: &str) -> String {
        let cols = self.message_value_cols().join(", ");
        if self.routing_enabled() {
            format!("SELECT id, {cols} FROM {slot} WHERE {TO_COL} = {x}")
        } else {
            format!("SELECT id, {cols} FROM {slot}")
        }
    }

    /// Gather(x): fold every unread message table into the delta column in
    /// a single statement (paper §V-C: "a single query that contains the
    /// union of all the message tables"). With routing, each branch of the
    /// union seeks the slot's [`TO_COL`] index for the rows addressed to
    /// partition `x`, so the read, the fold and the update work on
    /// O(|partition|) rows instead of every message; an unrouted key type
    /// reads every slot in full (broadcast).
    ///
    /// # Panics
    /// Panics if `msg_tables` is empty.
    pub fn gather_sql(&self, x: usize, msg_tables: &[&str]) -> String {
        assert!(!msg_tables.is_empty(), "gather needs at least one table");
        let pt = self.names.partition(x);
        let k = self.key();
        let delta = self.delta_col();
        let unions = msg_tables
            .iter()
            .map(|m| self.gather_branch_sql(x, m))
            .collect::<Vec<_>>()
            .join(" UNION ALL ");
        if self.is_avg() {
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

    // -- task statements in the run's dialect ------------------------------

    /// The one place a task statement is translated.
    fn translate(&mut self, canonical: &str) -> SqloopResult<Sql> {
        self.translations += 1;
        translate_sql(canonical, self.profile).map(Sql::from)
    }

    /// Statements translated so far. A run's count is bounded by its
    /// partitions and slots, not by its tasks.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    fn part_sql(&mut self, x: usize) -> SqloopResult<&PartSql> {
        if self.part_sql[x].is_none() {
            let update = self.translate(&self.compute_update_sql(x))?;
            // the slot names are the only thing that varies between two
            // Gathers of one partition: translate a one-branch Gather over a
            // stand-in slot and remember the text around the slot's name
            let gather = self.translate(&self.gather_sql(x, &[SLOT_PROBE]))?;
            let branch = self.translate(&self.gather_branch_sql(x, SLOT_PROBE))?;
            let (gather_head, gather_tail) = gather.split_once(&*branch).ok_or_else(|| {
                SqloopError::Grammar(format!("translated Gather lost its branch: {gather}"))
            })?;
            let (branch_pre, branch_post) = branch.split_once(SLOT_PROBE).ok_or_else(|| {
                SqloopError::Grammar(format!("translated Gather branch lost its slot: {branch}"))
            })?;
            self.part_sql[x] = Some(PartSql {
                update,
                gather_head: gather_head.into(),
                branch_pre: branch_pre.into(),
                branch_post: branch_post.into(),
                gather_tail: gather_tail.into(),
            });
        }
        Ok(self.part_sql[x].as_ref().expect("filled above"))
    }

    /// Compute(x) into `slot`, in the run's dialect: the slot's DDL when
    /// the slot is `fresh` (a crashed earlier run may have left the table
    /// behind, hence the `DROP`), its `DELETE` otherwise; then the refill,
    /// the touched-partition query when routed, and the partition update.
    /// Every statement is translated the first time its partition or slot
    /// is seen and handed out byte-identical after that.
    ///
    /// # Errors
    /// [`SqloopError::Grammar`] when a canonical statement does not parse.
    pub fn compute_task_sql(
        &mut self,
        x: usize,
        slot: &str,
        fresh: bool,
    ) -> SqloopResult<ComputeSql> {
        if !self.slot_sql.contains_key(slot) {
            let mut create = vec![
                self.translate(&self.drop_message_slot_sql(slot))?,
                self.translate(&self.create_message_slot_sql(slot))?,
            ];
            if let Some(index) = self.message_slot_index_sql(slot) {
                create.push(self.translate(&index)?);
            }
            let touched = if self.routing_enabled() {
                Some(self.translate(&self.touched_partitions_sql(slot))?)
            } else {
                None
            };
            let sql = SlotSql {
                create,
                clear: self.translate(&self.clear_message_slot_sql(slot))?,
                fill: self.translate(&self.insert_message_sql(x, slot))?,
                touched,
            };
            self.slot_sql.insert(slot.to_string(), sql);
        }
        let update = self.part_sql(x)?.update.clone();
        let s = &self.slot_sql[slot];
        let mut stmts = Vec::with_capacity(s.create.len() + 3);
        if fresh {
            stmts.extend(s.create.iter().cloned());
        } else {
            stmts.push(s.clear.clone());
        }
        let fill_at = stmts.len();
        stmts.push(s.fill.clone());
        stmts.extend(s.touched.clone());
        let changed_from = stmts.len();
        stmts.push(update);
        Ok(ComputeSql {
            stmts,
            fill_at,
            changed_from,
        })
    }

    /// [`SqlGen::gather_sql`] in the run's dialect, assembled from the
    /// partition's translated text and the slot names: a slot set never
    /// seen before costs a concatenation, not a parse.
    ///
    /// # Errors
    /// [`SqloopError::Grammar`] when the partition's canonical Gather does
    /// not parse.
    ///
    /// # Panics
    /// Panics if `slots` is empty.
    pub fn gather_task_sql(&mut self, x: usize, slots: &[&str]) -> SqloopResult<Sql> {
        assert!(!slots.is_empty(), "gather needs at least one table");
        let p = self.part_sql(x)?;
        let mut sql = String::with_capacity(
            p.gather_head.len()
                + p.gather_tail.len()
                + slots.len() * (p.branch_pre.len() + p.branch_post.len() + 32),
        );
        sql.push_str(&p.gather_head);
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 {
                sql.push_str(" UNION ALL ");
            }
            sql.push_str(&p.branch_pre);
            sql.push_str(slot);
            sql.push_str(&p.branch_post);
        }
        sql.push_str(&p.gather_tail);
        Ok(Sql::from(sql))
    }

    /// Predicate selecting rows whose delta is *pending*: for MIN/MAX, a
    /// delta that moved past the [`SENT_COL`] watermark (what the row last
    /// sent, the identity before its first send); otherwise a delta other
    /// than the identity. Anything else produces no information, so Compute
    /// skips it — this is what makes traversal workloads touch only active
    /// partitions.
    fn pending_predicate(&self, qual: &str) -> String {
        let d = format!("{qual}.{}", self.delta_col());
        match self.plan.aggregate {
            AggregateFunction::Min => format!("{d} < {qual}.{SENT_COL}"),
            AggregateFunction::Max => format!("{d} > {qual}.{SENT_COL}"),
            _ => format!("{d} != 0.0"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AnalysisOutcome};
    use crate::grammar::{parse, SqloopQuery};
    use crate::translate::translate_sql;
    use sqldb::DataType;

    fn pagerank_gen(partitions: usize) -> SqlGen {
        pagerank_gen_for(partitions, EngineProfile::Postgres)
    }

    fn pagerank_gen_for(partitions: usize, profile: EngineProfile) -> SqlGen {
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
        SqlGen::new(CteNames::new("pr"), schema, plan, partitions, profile)
    }

    /// every generated statement must be translatable for every profile
    fn check_all_dialects(sql: &str) {
        for p in EngineProfile::ALL {
            translate_sql(sql, p).unwrap_or_else(|e| panic!("{p}: {e}\nsql: {sql}"));
        }
    }

    #[test]
    fn all_generated_statements_parse_in_all_dialects() {
        let g = pagerank_gen(4);
        check_all_dialects(&g.create_partition_sql(0));
        check_all_dialects(&g.create_view_sql());
        check_all_dialects(&g.create_mjoin_sql());
        check_all_dialects(&g.join_index_sql());
        check_all_dialects(&g.create_message_slot_sql("pr__msgslot_1_0"));
        check_all_dialects(&g.message_slot_index_sql("pr__msgslot_1_0").unwrap());
        check_all_dialects(&g.touched_partitions_sql("pr__msgslot_1_0"));
        check_all_dialects(&g.clear_message_slot_sql("pr__msgslot_1_0"));
        check_all_dialects(&g.insert_message_sql(1, "pr__msgslot_1_0"));
        check_all_dialects(&g.compute_update_sql(1));
        check_all_dialects(&g.gather_sql(2, &["pr__msg_1_0", "pr__msg_3_4"]));
        check_all_dialects(&g.fill_partition_sql(3));
    }

    fn texts(stmts: &[Sql]) -> Vec<&str> {
        stmts.iter().map(|s| &**s).collect()
    }

    #[test]
    fn task_statements_equal_the_translated_canonical_text() {
        // the path this module replaced — canonical text through
        // `translate_sql`, once per task — is the reference
        for profile in EngineProfile::ALL {
            let sum = pagerank_gen_for(4, profile);
            let mut avg = sum.clone();
            avg.plan.aggregate = AggregateFunction::Avg;
            let mut text_key = sum.clone();
            text_key.schema.types[0] = DataType::Text;
            for (what, mut g) in [("SUM", sum), ("AVG", avg), ("TEXT key", text_key)] {
                let what = format!("{profile} / {what}");
                let translated = |canonical: Vec<String>| -> Vec<String> {
                    canonical
                        .iter()
                        .map(|sql| translate_sql(sql, profile).unwrap())
                        .collect()
                };
                let slot = "pr__msgslot_1_0";
                let routed = g.routing_enabled();
                // a Compute into a slot it has to create
                let mut expected = vec![
                    g.drop_message_slot_sql(slot),
                    g.create_message_slot_sql(slot),
                ];
                expected.extend(g.message_slot_index_sql(slot));
                let fill_at = expected.len();
                expected.push(g.insert_message_sql(1, slot));
                if routed {
                    expected.push(g.touched_partitions_sql(slot));
                }
                expected.push(g.compute_update_sql(1));
                let fresh = g.compute_task_sql(1, slot, true).unwrap();
                assert_eq!(texts(&fresh.stmts), translated(expected), "{what}");
                assert_eq!(fresh.fill_at, fill_at, "{what}");
                assert_eq!(fresh.changed_from, fresh.stmts.len() - 1, "{what}");
                // a Compute into the same slot, reused
                let mut expected = vec![
                    g.clear_message_slot_sql(slot),
                    g.insert_message_sql(1, slot),
                ];
                if routed {
                    expected.push(g.touched_partitions_sql(slot));
                }
                expected.push(g.compute_update_sql(1));
                let reused = g.compute_task_sql(1, slot, false).unwrap();
                assert_eq!(texts(&reused.stmts), translated(expected), "{what}");
                assert_eq!(reused.fill_at, 1, "{what}");
                assert_eq!(reused.changed_from, reused.stmts.len() - 1, "{what}");
                // Gathers over 1, 3 and 16 slots
                for n in [1, 3, 16] {
                    let slots: Vec<String> = (0..n)
                        .map(|i| format!("pr__msgslot_{}_{}", i % 4, i / 4))
                        .collect();
                    let slots: Vec<&str> = slots.iter().map(String::as_str).collect();
                    assert_eq!(
                        &*g.gather_task_sql(2, &slots).unwrap(),
                        translate_sql(&g.gather_sql(2, &slots), profile).unwrap(),
                        "{what}: {n} slots"
                    );
                }
            }
        }
    }

    #[test]
    fn a_task_built_again_shares_its_statements_and_translates_nothing() {
        let mut g = pagerank_gen_for(4, EngineProfile::MySql);
        let slot = "pr__msgslot_1_0";
        let fresh = g.compute_task_sql(1, slot, true).unwrap();
        let first = g.compute_task_sql(1, slot, false).unwrap();
        let gather = g.gather_task_sql(1, &["pr__msgslot_0_0", slot]).unwrap();
        // DROP, CREATE, CREATE INDEX, DELETE, INSERT, SELECT DISTINCT for the
        // slot; UPDATE, the Gather and its branch for the partition
        assert_eq!(g.translations(), 9);
        let again = g.compute_task_sql(1, slot, false).unwrap();
        assert_eq!(first.stmts.len(), again.stmts.len());
        for (a, b) in first.stmts.iter().zip(&again.stmts) {
            assert!(Arc::ptr_eq(a, b), "{a}");
        }
        // the fill and the update are the same strings in both forms
        assert!(Arc::ptr_eq(&fresh.stmts[fresh.fill_at], &first.stmts[1]));
        assert!(Arc::ptr_eq(
            fresh.stmts.last().unwrap(),
            first.stmts.last().unwrap()
        ));
        // the same Gather, and one over slots never seen together before
        assert_eq!(
            gather,
            g.gather_task_sql(1, &["pr__msgslot_0_0", slot]).unwrap()
        );
        g.gather_task_sql(1, &["pr__msgslot_3_2", "pr__msgslot_2_1", slot])
            .unwrap();
        assert_eq!(g.translations(), 9);
        // a second slot of the partition translates its own six statements
        // and nothing of the partition's
        g.compute_task_sql(1, "pr__msgslot_1_1", true).unwrap();
        assert_eq!(g.translations(), 15);
    }

    #[test]
    fn insert_message_sql_shape() {
        let g = pagerank_gen(4);
        let sql = g.insert_message_sql(1, "pr__msgslot_1_0");
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
        let g = pagerank_gen(4);
        // the slot form carries no round number: refilling the same slot in
        // two different rounds produces byte-identical SQL (the templating
        // property the plan cache depends on)
        let a = g.insert_message_sql(1, "pr__msgslot_1_0");
        let b = g.insert_message_sql(1, "pr__msgslot_1_0");
        assert_eq!(a, b);
        // each message row carries the partition it is addressed to
        assert!(
            a.starts_with("INSERT INTO pr__msgslot_1_0 (id, val, __to) SELECT __e.__dst AS id, "),
            "{a}"
        );
        assert!(a.contains(", (__e.__dst % 4 + 4) % 4 AS __to FROM"), "{a}");
        let ddl = g.create_message_slot_sql("pr__msgslot_1_0");
        assert_eq!(
            ddl,
            "CREATE TABLE pr__msgslot_1_0 (id INT, val FLOAT, __to INT)"
        );
        assert_eq!(
            g.message_slot_index_sql("pr__msgslot_1_0").unwrap(),
            "CREATE INDEX IF NOT EXISTS pr__msgslot_1_0__ito ON pr__msgslot_1_0 (__to)"
        );
        assert_eq!(
            g.touched_partitions_sql("pr__msgslot_1_0"),
            "SELECT DISTINCT __to FROM pr__msgslot_1_0"
        );
        assert_eq!(
            g.clear_message_slot_sql("pr__msgslot_1_0"),
            "DELETE FROM pr__msgslot_1_0"
        );
    }

    #[test]
    fn gather_sql_folds_with_the_right_operator() {
        let g = pagerank_gen(4);
        let sql = g.gather_sql(0, &["m1", "m2"]);
        assert!(
            sql.contains("delta + inc.val") || sql.contains("\"delta\" + inc.val"),
            "{sql}"
        );
        assert!(sql.contains("UNION ALL"), "{sql}");
        assert!(sql.contains("SUM"), "{sql}");
        // each branch seeks the rows addressed to partition 0
        assert_eq!(sql.matches("WHERE __to = 0").count(), 2, "{sql}");
        assert!(!sql.contains('%'), "{sql}");
    }

    #[test]
    fn routed_gather_filter_agrees_with_bucket() {
        let g = pagerank_gen(7);
        let db = sqldb::Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE m (id INT, val FLOAT)").unwrap();
        let ids: Vec<i64> = (-25..25).chain([i64::MIN + 1, i64::MAX - 7]).collect();
        let values: Vec<String> = ids.iter().map(|i| format!("({i}, 1.0)")).collect();
        s.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
            .unwrap();
        // the `__to` a Compute writes is the partition `bucket` assigns
        let sql = format!("SELECT id, {} FROM m", g.bucket_sql("id"));
        let rows = s.query(&sql).unwrap().rows;
        assert_eq!(rows.len(), ids.len());
        for row in rows {
            let to = row[1].as_i64().unwrap() as usize;
            assert_eq!(g.bucket(&row[0]), to, "id {} addressed to {to}", row[0]);
        }
    }

    #[test]
    fn gather_seeks_each_slot_for_its_own_rows() {
        let g = pagerank_gen(4);
        let db = sqldb::Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute(&g.create_partition_sql(1)).unwrap();
        // partition 1 of 4 owns -3, 1, 5, 9
        s.execute("INSERT INTO pr__pt1 VALUES (-3, 0.0, 0.15), (1, 0.0, 0.15), (5, 0.0, 0.15)")
            .unwrap();
        let slots = ["pr__msgslot_0_0", "pr__msgslot_2_0"];
        for slot in slots {
            s.execute(&g.create_message_slot_sql(slot)).unwrap();
            s.execute(&g.message_slot_index_sql(slot).unwrap()).unwrap();
            let rows: Vec<String> = (-8i64..8)
                .map(|id| format!("({id}, 0.5, {})", g.bucket(&Value::Int(id))))
                .collect();
            s.execute(&format!("INSERT INTO {slot} VALUES {}", rows.join(", ")))
                .unwrap();
        }
        let sql = g.gather_sql(1, &slots);
        let before = db.stats();
        let out = s.execute(&sql).unwrap();
        let d = db.stats().delta_since(&before);
        assert_eq!(out.rows_affected(), 3);
        // one seek per slot, returning the 4 of its 16 rows addressed here;
        // the fold's 4 rows then drive the update of the 3-row partition
        assert!(d.index_lookups >= 2, "{d:?}");
        assert!(d.rows_scanned < 32, "every message was read: {d:?}");
        let deltas = s.query("SELECT node, delta FROM pr__pt1").unwrap().rows;
        assert!(
            deltas.iter().all(|r| r[1] == Value::Float(1.15)),
            "{deltas:?}"
        );
        let plan = s.query(&format!("EXPLAIN {sql}")).unwrap().rows;
        for slot in slots {
            let line = format!("IndexSeek {slot} using {slot}__ito (__to = 1)");
            assert!(
                plan.iter().any(|r| r[0].to_string().contains(&line)),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn unrouted_key_types_keep_the_broadcast_gather() {
        let mut g = pagerank_gen(4);
        g.schema.types[0] = DataType::Text;
        assert!(!g.routing_enabled());
        let sql = g.gather_sql(0, &["m1", "m2"]);
        assert!(!sql.contains("__to"), "{sql}");
        assert!(sql.contains("SELECT id, val FROM m1 UNION ALL"), "{sql}");
        assert_eq!(
            g.create_message_slot_sql("m1"),
            "CREATE TABLE m1 (id TEXT, val FLOAT)"
        );
        assert_eq!(g.message_slot_index_sql("m1"), None);
        assert!(!g.insert_message_sql(0, "m1").contains("__to"));
    }

    #[test]
    fn compute_update_resets_delta() {
        let g = pagerank_gen(4);
        let sql = g.compute_update_sql(2);
        assert!(sql.contains("delta = 0.0"), "{sql}");
        assert!(sql.contains("rank = "), "{sql}");
    }

    #[test]
    fn bucket_is_stable_and_in_range() {
        let g = pagerank_gen(7);
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
        let g = pagerank_gen(8);
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
        let g = pagerank_gen(3);
        let sql = g.create_view_sql();
        assert_eq!(sql.matches("UNION ALL").count(), 2);
        assert!(sql.contains("pr__pt0") && sql.contains("pr__pt2"), "{sql}");
    }
}
