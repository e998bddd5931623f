//! The execution engine for iterative and recursive CTEs: one round loop
//! (`Scheduler::run`) under four scheduling policies — the
//! single-threaded algorithm of paper §III-A (Whole), which also runs a
//! recursive CTE's semi-naive evaluation (§II-A), and the three
//! schedulers of §V-E (Sync, Async, AsyncP) — plus the worker pool,
//! Compute/Gather task construction and the message-table registry the
//! partitioned policies use.
//!
//! The master thread owns all scheduling state; workers are dumb statement
//! runners, each holding its own engine connection (the paper's "each thread
//! opens a new connection with the target database engine"). A run with one
//! worker and no stall timeout starts no thread: worker 0 runs each task on
//! the master thread, on its own connection, through the same per-task body
//! a worker thread runs. Whole has no worker: its one task per round runs
//! on the master connection, through the same statement runner.
//!
//! ## Fault recovery
//!
//! Task failures are classified by [`SqloopError::is_retryable`]. A task
//! that fails transiently (connection drop, lock timeout) is **replayed**:
//! the worker reports the index of the failed statement along with the
//! partial results, and the master re-dispatches the task resuming at that
//! statement, up to [`SqloopConfig::task_retries`] replays. Resuming at the
//! failed statement (rather than rerunning the whole task) is what keeps
//! replay safe for the one non-idempotent statement in a Compute task — the
//! final delta-advancing UPDATE — because a failed statement surfaced its
//! error before taking effect. Workers that lose their engine connection
//! reconnect under the configured retry policy before running the next
//! task, an inline worker 0 as much as a worker thread. When the replay
//! budget is exhausted the scheduler aborts with [`SqloopError::Task`]; the
//! facade then optionally downgrades the run to Whole (see `api.rs`).
//! Whole's task, run on the master connection, is never replayed — that
//! connection cannot reconnect — and its error ends the run as it is.
//!
//! ## Stopping
//!
//! A run ends by its termination condition or stops early, in one place:
//! at each round boundary the loop decides once whether it stops — its
//! token cancelled (or its deadline passed), its round cap
//! ([`SqloopConfig::max_rounds`]) reached, or a watchdog verdict — and a
//! memory-budget trip anywhere ends it the same way. The stop lifts the
//! engine memory limit, records itself, quiesces, and snapshots that round
//! unless a checkpoint already holds it. A cancelled run returns its
//! partial result; every other stop is a governed abort, a typed error the
//! run can resume from.

use crate::analysis::ParallelPlan;
use crate::checkpoint::{
    check_fingerprint, dump_table_sql, load_latest_recover_with, restore_table_sql,
    run_fingerprint, trace_checkpoint, Checkpointer, LoopSnapshot, PartSnap,
};
use crate::ckpt_io::RealFs;
use crate::common::{
    create_cte_table, insert_rows, refresh_delta_snapshot, rewrite_table_refs, run, run_all,
    run_all_best_effort, run_query, with_output_names, CteNames, CteSchema, DeltaRefresher,
    PlanCacheProbe, TerminationProbe, INSERT_CHUNK_ROWS,
};
use crate::config::{ExecutionMode, SqloopConfig};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::{IterativeCte, Termination};
use crate::parallel_sql::{Sql, SqlGen};
use crate::progress::{ProgressSample, RecoveryCounters, Sampler};
use crate::supervisor::{now_us, panic_detail, HeartbeatSlot, STATE_BUSY};
use crate::translate::{translate_query_to_sql, translate_sql};
use crate::watchdog::Watchdog;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dbcp::{CancelToken, Connection, Driver, PipelineStep, PreparedStatement, RetryPolicy};
use obs::{EventKind, MetricsRegistry, Span, SpanKind, SpanOutcome, TraceHandle};
use sqldb::{DataType, DbError, QueryResult, Row, StmtOutput, Value};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a barrier wait blocks before it checks worker liveness
/// (heartbeats, dead threads): the bound on stall and panic detection
/// latency, and the least `stall_timeout` a config may set.
pub(crate) const SUPERVISOR_POLL: Duration = Duration::from_millis(20);

/// What an executed CTE run reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Result of the final query `Qf`.
    pub result: QueryResult,
    /// Rounds performed, the last one included.
    pub iterations: u64,
    /// Rows updated/appended by the last round.
    pub last_change: u64,
    /// The run was stopped cooperatively before its termination condition;
    /// `result` holds the final query over the partial fix-point.
    pub cancelled: bool,
}

/// The table layout a run executes on, which decides its policy.
#[derive(Debug)]
pub enum Layout {
    /// An iterative CTE over all of `R`: the single-threaded algorithm of
    /// paper §III-A.
    Whole,
    /// A recursive CTE's semi-naive evaluation (paper §II-A) as Whole, over
    /// `R` and two working tables.
    Recursive {
        /// `UNION ALL` (bag) vs `UNION` (set) accumulation.
        union_all: bool,
    },
    /// An iterative CTE over hash partitions, under the configured mode's
    /// scheduler and worker pool.
    Partitioned(Box<ParallelPlan>),
}

/// Report of one iterative run.
#[derive(Debug, Clone)]
pub struct IterativeRun {
    /// Result and iteration counts.
    pub outcome: RunOutcome,
    /// Compute tasks executed.
    pub computes: u64,
    /// Gather tasks executed.
    pub gathers: u64,
    /// Non-empty message tables created.
    pub messages: u64,
    /// Aggregate worker time spent executing tasks; `worker_busy / wall`
    /// is the overlap the workers achieved.
    pub worker_busy: std::time::Duration,
    /// Convergence samples (when a sampler was configured).
    pub samples: Vec<ProgressSample>,
    /// Path of the last checkpoint written (when checkpointing is on).
    pub checkpoint: Option<PathBuf>,
    /// Human-readable note when resume had to fall back past corrupt or
    /// unreadable snapshots (`None` on a clean load or a fresh run).
    pub recovery_note: Option<String>,
}

#[derive(Debug, Clone)]
enum TaskKind {
    Compute {
        msg_table: String,
        /// Index in `stmts` of the `INSERT … SELECT` that fills the slot;
        /// its affected-row count is the message's row count.
        fill_at: usize,
    },
    /// Reads the messages in `read_from..read_until` addressed to its
    /// partition.
    Gather { read_from: usize, read_until: usize },
    /// Whole's round over all of `R`: `DELETE Rtmp; INSERT INTO Rtmp Ri;
    /// UPDATE R … FROM Rtmp` (paper §III-A).
    Whole,
}

#[derive(Debug, Clone)]
struct Task {
    /// Scheduler-unique dispatch id, assigned at dispatch time. The
    /// supervisor keys its in-flight map by it, so a result coming back
    /// from an abandoned worker (whose task was replayed under a new id)
    /// can be recognized and discarded.
    task_id: u64,
    partition: usize,
    kind: TaskKind,
    /// The task's statements, already in the engine's dialect and shared
    /// with [`SqlGen`]'s books: cloning a task copies no SQL text.
    stmts: Vec<Sql>,
    /// Scheduler round/wave the task was built in (1-based; trace only).
    round: u64,
    /// 1-based attempt number of this dispatch.
    attempt: u32,
    /// Replay resume point: the worker executes `stmts[start_at..]`.
    start_at: usize,
    /// Statements below this index are scratch maintenance (message-slot
    /// `DELETE`/`INSERT`) whose affected-row counts must NOT feed the
    /// convergence delta; only `stmts[changed_from..]` contribute to
    /// [`Done::changed`].
    changed_from: usize,
    /// Changed-row count accumulated by earlier attempts' statements.
    acc_changed: u64,
    /// `Rows` outputs accumulated by earlier attempts' statements.
    acc_rows: Vec<sqldb::QueryResult>,
    /// Message row count, once an attempt has run the slot-filling INSERT
    /// (a replay resuming past it must still see it).
    acc_msg_rows: Option<u64>,
}

impl Task {
    /// A first attempt; the task id is assigned at dispatch.
    fn new(partition: usize, kind: TaskKind, stmts: Vec<Sql>, changed_from: usize) -> Task {
        Task {
            task_id: 0,
            partition,
            kind,
            stmts,
            round: 0,
            attempt: 1,
            start_at: 0,
            changed_from,
            acc_changed: 0,
            acc_rows: Vec::new(),
            acc_msg_rows: None,
        }
    }

    /// The partition trace records name: none for Whole, which covers `R`.
    fn trace_partition(&self) -> Option<u32> {
        match self.kind {
            TaskKind::Whole => None,
            _ => Some(self.partition as u32),
        }
    }
}

#[derive(Debug)]
struct Done {
    /// The task itself, returned so a failed one can be replayed.
    task: Task,
    /// Rows changed by this attempt's statements.
    changed: u64,
    /// `Rows` outputs of this attempt's statements, in order (a Compute:
    /// the touched-partition list when routing, else none).
    rows_outputs: Vec<sqldb::QueryResult>,
    /// Rows the slot-filling INSERT of a Compute wrote, when this attempt
    /// ran it.
    msg_rows: Option<u64>,
    elapsed: std::time::Duration,
    /// `(failed statement index, error)` — the statement at that index
    /// did not take effect.
    error: Option<(usize, SqloopError)>,
    /// Engine reconnects this worker performed while running the task.
    reconnects: u32,
}

#[derive(Debug, Clone)]
struct PartState {
    pending: bool,
    cursor: usize,
    in_flight: bool,
    computes: u64,
    msg_seq: u64,
    priority: f64,
    /// Strict Gather→Compute alternation (paper Fig. 3): set after a
    /// Gather so the next visit runs the Compute instead of re-gathering.
    prefer_compute: bool,
}

#[derive(Debug)]
struct MsgState {
    name: String,
    /// Partition that produced the message — the slot returns to this
    /// partition's free list once every reader has consumed it.
    partition: usize,
    /// Partitions the message addresses that have not gathered it yet;
    /// the message is live while this is above 0.
    unread: usize,
    /// Destination partitions with matching rows (`None` = broadcast).
    targets: Option<Vec<usize>>,
}

impl MsgState {
    /// True while the message is live and has rows for partition `x`.
    fn addresses(&self, x: usize) -> bool {
        self.unread > 0 && self.targets.as_ref().is_none_or(|t| t.contains(&x))
    }
}

/// Runs a CTE to its end on `layout`: partitioned under the configured
/// mode's scheduler and worker pool, or as Whole — the single-threaded
/// algorithm of paper §III-A, or a recursive CTE's semi-naive evaluation
/// (§II-A) — on the master connection. A recursive CTE comes in lowered:
/// its recursive part is `step` and its termination is `UNTIL 0 UPDATES`.
/// Spans (one per task attempt — an Iteration span per Whole round) and
/// events (retries, reconnects, faults, round boundaries) go into `trace`;
/// with a disabled handle the instrumentation costs one branch per
/// would-be record. The run counts into `metrics`, its own registry. The
/// recovery counters come back even when the run *fails* — an
/// `IterativeRun` never materializes on that path, yet the downgrade
/// report still wants to show what recovery attempted.
///
/// # Errors
/// Configuration errors (a partitioned layout in [`ExecutionMode::Single`]
/// among them), engine/translation errors from any task (after the
/// configured replay budget), checkpoint errors, or a governed abort: the
/// round cap, a watchdog verdict or the memory budget.
pub fn run_iterative(
    driver: &Arc<dyn Driver>,
    cte: &IterativeCte,
    layout: Layout,
    config: &SqloopConfig,
    trace: &TraceHandle,
    metrics: &Arc<MetricsRegistry>,
) -> (SqloopResult<IterativeRun>, RecoveryCounters) {
    let mut recovery = RecoveryCounters::default();
    let result = run_inner(driver, cte, layout, config, &mut recovery, trace, metrics);
    // the recovery counters are the run's one book of supervision; zombie
    // results, dropped on worker threads, are counted live (and resolved
    // here so the series shows on every run)
    let supervision = [
        ("stalls_detected", recovery.stalls),
        ("worker_replacements", recovery.worker_replacements),
        ("panics_caught", recovery.worker_panics),
    ];
    for (name, n) in supervision {
        metrics.counter(&format!("sqloop.supervisor.{name}")).add(n);
    }
    metrics.counter(ZOMBIES);
    (result, recovery)
}

/// The tables a run builds, as the drops that take them away: Whole's
/// scratch `Rtmp` and working tables, then `R` and its delta snapshot; a
/// partitioned run's view `R`, `Rmjoin`, delta snapshot, partition tables
/// and message `slots`. Scratch goes on every exit, the rest unless
/// `keep` is set. Every drop is `IF EXISTS`, so the list holds however far
/// set-up got.
fn artifact_drops(
    names: &CteNames,
    partitions: Option<usize>,
    slots: &[String],
    keep: bool,
) -> Vec<String> {
    let drop = |t: String| format!("DROP TABLE IF EXISTS {t}");
    let Some(partitions) = partitions else {
        let scratch = [names.tmp(), names.working(0), names.working(1)];
        let state = [names.table.clone(), names.delta_snapshot()];
        let state = state.into_iter().filter(|_| !keep);
        return scratch.into_iter().chain(state).map(drop).collect();
    };
    if keep {
        return Vec::new();
    }
    let tables = [names.mjoin(), names.delta_snapshot()]
        .into_iter()
        .chain((0..partitions).map(|x| names.partition(x)))
        .chain(slots.iter().cloned());
    std::iter::once(format!("DROP VIEW IF EXISTS {}", names.table))
        .chain(tables.map(drop))
        .collect()
}

/// The CTE's schema as `snap` dumped it in `table`, hidden bookkeeping
/// columns excluded — on resume the seed query never runs.
fn snapshot_schema(snap: &LoopSnapshot, table: &str) -> SqloopResult<CteSchema> {
    let dump = snap
        .tables
        .iter()
        .find(|t| t.name == table)
        .ok_or_else(|| SqloopError::Checkpoint(format!("snapshot holds no table named {table}")))?;
    let visible: Vec<_> = dump
        .columns
        .iter()
        .filter(|c| !c.name.starts_with("__"))
        .collect();
    Ok(CteSchema {
        columns: visible.iter().map(|c| c.name.clone()).collect(),
        types: visible.iter().map(|c| c.data_type).collect(),
    })
}

/// Builds Whole's layout and its tasks. `R` comes from the seed query
/// (fresh run) or from a checkpoint's table dumps (`resume`). An iterative
/// CTE (`recursive` is `None`) gets one task, rerun every round: the
/// scratch table `Rtmp` is created once, each round sets `Rtmp := Ri` and
/// then `R := R ⟵ Rtmp` matched on `Rid`, and only the UPDATE's rows count
/// as changed. A recursive CTE gets the two of [`recursive_tasks`].
/// Scratch tables are emptied, never recreated, so every statement stays
/// in the engine's plan cache.
fn whole_setup(
    main: &mut dyn Connection,
    cte: &IterativeCte,
    names: &CteNames,
    recursive: Option<bool>,
    resume: Option<&LoopSnapshot>,
) -> SqloopResult<(CteSchema, Vec<Task>)> {
    let schema = match resume {
        Some(snap) => {
            let schema = snapshot_schema(snap, &names.table)?;
            for t in &snap.tables {
                restore_table_sql(main, t, INSERT_CHUNK_ROWS)?;
            }
            schema
        }
        None => {
            // a recursive CTE's R is a bag: no key, types as the seed has them
            let keyed = recursive.is_none();
            let schema = create_cte_table(main, &cte.name, &cte.columns, &cte.seed, keyed, keyed)?;
            if cte.termination.needs_delta_snapshot() {
                refresh_delta_snapshot(main, names)?;
            }
            schema
        }
    };
    if let Some(union_all) = recursive {
        let tasks = recursive_tasks(main, cte, names, &schema, union_all, resume.is_none())?;
        return Ok((schema, tasks));
    }
    let profile = main.profile();
    let tmp = names.tmp();
    let clear = translate_sql(&format!("DELETE FROM {tmp}"), profile)?;
    let fill = format!(
        "INSERT INTO {} {}",
        profile.dialect().quote(&tmp),
        translate_query_to_sql(&cte.step, profile)
    );
    let assignments = schema.columns[1..]
        .iter()
        .map(|c| format!("{c} = {tmp}.{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    let apply = translate_sql(
        &format!(
            "UPDATE {r} SET {assignments} FROM {tmp} WHERE {r}.{k} = {tmp}.{k}",
            r = names.table,
            k = schema.key(),
        ),
        profile,
    )?;
    run(main, &format!("DROP TABLE IF EXISTS {tmp}"))?;
    run(
        main,
        &format!("CREATE TABLE {tmp} ({})", schema.create_columns_sql(true)),
    )?;
    let stmts = [clear, fill, apply].map(Sql::from).into();
    Ok((schema, vec![Task::new(0, TaskKind::Whole, stmts, 2)]))
}

/// A recursive CTE's two tasks over the working tables `W0` and `W1`,
/// which are created once — `W0` as a copy of the seeded `R` — unless a
/// checkpoint restored them (`create` is false). Task `p` reads `Wp` and
/// writes `W(p+1)`: it empties the next working table, fills it with the
/// step over the current one — under `UNION`, only the distinct rows `R`
/// does not hold yet, found through an index on `R`'s first column — and
/// appends it to `R`. The append's row count is the round's change, so
/// `UNTIL 0 UPDATES` ends the run at the first round that adds no row.
fn recursive_tasks(
    main: &mut dyn Connection,
    cte: &IterativeCte,
    names: &CteNames,
    schema: &CteSchema,
    union_all: bool,
    create: bool,
) -> SqloopResult<Vec<Task>> {
    let r = &names.table;
    if create {
        let (w0, w1) = (names.working(0), names.working(1));
        let columns = schema.create_columns_sql(false);
        run_all(
            main,
            [
                format!("DROP TABLE IF EXISTS {w0}"),
                format!("CREATE TABLE {w0} ({columns})"),
                format!("INSERT INTO {w0} SELECT * FROM {r}"),
                format!("DROP TABLE IF EXISTS {w1}"),
                format!("CREATE TABLE {w1} ({columns})"),
            ],
        )?;
    }
    let profile = main.profile();
    let q = |ident: &str| profile.dialect().quote(ident);
    let step = |p| {
        let step = rewrite_table_refs(&cte.step, r, &names.working(p));
        with_output_names(&step, &schema.columns)
    };
    // under UNION: the step's rows that R does not hold yet, NULLs compared
    // as equal, as set semantics do and `=` does not. Grouping the step's
    // rows (tagged 0) with R's NULL-key rows (tagged 1) dedups them and
    // drops the NULL-key rows R holds; an anti-join on the key, equal on
    // the other columns or NULL on both sides, drops the rest. The index
    // on R's key serves both reads of R, so neither scans it. The step's
    // rows are named by what it outputs (R's own columns, unless it
    // selects a wildcard), probed once.
    let step_cols = if union_all {
        Vec::new()
    } else {
        let key = schema.key();
        run(
            main,
            &format!("CREATE INDEX IF NOT EXISTS {r}__ikey ON {r} ({key})"),
        )?;
        let mut probe = step(0);
        probe.limit = Some(0);
        main.query(&translate_query_to_sql(&probe, profile))?
            .columns
    };
    let (quoted_r, tag) = (q(r), q("__in_r"));
    let (alias, all, new) = (
        q(&format!("{r}__step")),
        q(&format!("{r}__all")),
        q(&format!("{r}__new")),
    );
    let cols: Vec<String> = schema.columns.iter().map(|c| q(c)).collect();
    let renamed: Vec<String> = (step_cols.iter().zip(&cols))
        .map(|(s, c)| format!("{alias}.{} AS {c}", q(s)))
        .collect();
    let kept: Vec<String> = cols.iter().map(|c| format!("{new}.{c}")).collect();
    let same: Vec<String> = cols
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (n, h) = (format!("{new}.{c}"), format!("{quoted_r}.{c}"));
            match i {
                0 => format!("{n} = {h}"),
                _ => format!("({n} = {h} OR ({n} IS NULL AND {h} IS NULL))"),
            }
        })
        .collect();
    let key = &cols[0];
    let (renamed, kept, same, cols) = (
        renamed.join(", "),
        kept.join(", "),
        same.join(" AND "),
        cols.join(", "),
    );
    (0..2)
        .map(|p| {
            let next = names.working(p + 1);
            let step = translate_query_to_sql(&step(p), profile);
            let fill = match union_all {
                true => step,
                false => format!(
                    "SELECT {kept} FROM (SELECT {cols} FROM (\
                     SELECT {renamed}, 0 AS {tag} FROM ({step}) AS {alias} \
                     UNION ALL SELECT {cols}, 1 FROM {quoted_r} WHERE {key} IS NULL\
                     ) AS {all} GROUP BY {cols} HAVING MAX({tag}) = 0) AS {new} \
                     LEFT JOIN {quoted_r} ON {same} WHERE {quoted_r}.{key} IS NULL"
                ),
            };
            let stmts = [
                translate_sql(&format!("DELETE FROM {next}"), profile)?,
                format!("INSERT INTO {} {fill}", q(&next)),
                translate_sql(&format!("INSERT INTO {r} SELECT * FROM {next}"), profile)?,
            ];
            let stmts = stmts.map(Sql::from).into();
            Ok(Task::new(0, TaskKind::Whole, stmts, 2))
        })
        .collect()
}

/// Builds the partitioned table layout: either from the seed query (fresh
/// run) or from a checkpoint's table dumps (`resume`), ending in the same
/// state — partition tables, the union view `R`, `Rmjoin` + index, and a
/// delta snapshot when the termination condition reads one.
fn parallel_setup(
    main: &mut dyn Connection,
    cte: &IterativeCte,
    plan: ParallelPlan,
    config: &SqloopConfig,
    names: &CteNames,
    resume: Option<&LoopSnapshot>,
) -> SqloopResult<SqlGen> {
    let schema = match resume {
        Some(snap) => snapshot_schema(snap, &names.partition(0))?,
        None => create_cte_table(main, &cte.name, &cte.columns, &cte.seed, true, true)?,
    };
    let gen = SqlGen::new(
        names.clone(),
        schema,
        plan,
        config.partitions,
        main.profile(),
    );
    // Rmjoin (paper §V-B) plus its join index; Compute is correct without
    // the index, only slower, so failing to build it does not fail the run
    let mjoin = |main: &mut dyn Connection| -> SqloopResult<()> {
        run(main, &format!("DROP TABLE IF EXISTS {}", names.mjoin()))?;
        run(main, &gen.create_mjoin_sql())?;
        let _ = run(main, &gen.join_index_sql());
        Ok(())
    };
    if let Some(snap) = resume {
        // stale state from the interrupted run (same database) goes first
        let _ = run(main, &format!("DROP VIEW IF EXISTS {}", names.table));
        let _ = run(main, &format!("DROP TABLE IF EXISTS {}", names.table));
        for t in &snap.tables {
            restore_table_sql(main, t, INSERT_CHUNK_ROWS)?;
        }
        run(main, &gen.create_view_sql())?;
        mjoin(main)?;
        if cte.termination.needs_delta_snapshot()
            && !snap.tables.iter().any(|t| t.name == names.delta_snapshot())
        {
            refresh_delta_snapshot(main, names)?;
        }
        return Ok(gen);
    }
    // Rmjoin while R is still a base table
    mjoin(main)?;

    // hash-partition R on Rid (paper §V-B), then R becomes the union view:
    // statements that carry no result go out pipelined. An INT key is split
    // inside the engine by the bucket expression routed messages use; any
    // other key by the middleware-only hash, so its rows travel out and
    // come back as typed parameters
    let (g, parts) = (&gen, 0..config.partitions);
    let tables = parts.clone().flat_map(|x| {
        let drop = format!("DROP TABLE IF EXISTS {}", names.partition(x));
        [drop, g.create_partition_sql(x)]
    });
    let hidden = parts.clone().filter_map(|x| g.init_hidden_sql(x));
    let view = [format!("DROP TABLE {}", names.table), g.create_view_sql()];
    if gen.routing_enabled() {
        let fills = parts.map(|x| g.fill_partition_sql(x));
        run_all(main, tables.chain(fills).chain(hidden).chain(view))?;
    } else {
        let col_list = gen.schema().columns.join(", ");
        let rows = run_query(main, &format!("SELECT {col_list} FROM {}", names.table))?.rows;
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); config.partitions];
        for row in rows {
            buckets[gen.bucket(&row[0])].push(row);
        }
        run_all(main, tables)?;
        for (x, bucket) in buckets.iter().enumerate() {
            let (table, columns) = (names.partition(x), &gen.schema().columns);
            insert_rows(main, &table, columns, bucket, INSERT_CHUNK_ROWS)?;
        }
        run_all(main, hidden.chain(view))?;
    }
    if cte.termination.needs_delta_snapshot() {
        refresh_delta_snapshot(main, names)?;
    }
    Ok(gen)
}

fn run_inner(
    driver: &Arc<dyn Driver>,
    cte: &IterativeCte,
    layout: Layout,
    config: &SqloopConfig,
    recovery_out: &mut RecoveryCounters,
    trace: &TraceHandle,
    metrics: &Arc<MetricsRegistry>,
) -> SqloopResult<IterativeRun> {
    config.validate().map_err(SqloopError::Config)?;
    // a partitioned policy is picked before anything exists; Whole's tasks
    // are built at setup, and its tables have always fingerprinted as one
    // partition
    let (parallel, recursive, label) = match layout {
        Layout::Whole => (None, None, ExecutionMode::Single.label()),
        Layout::Recursive { union_all: true } => (None, Some(true), "recursive-union-all"),
        Layout::Recursive { union_all: false } => (None, Some(false), "recursive-union"),
        Layout::Partitioned(plan) => {
            let policy = Policy::for_mode(config.mode, config.partitions)?;
            (Some((*plan, policy)), None, config.mode.label())
        }
    };
    let partitions = parallel.as_ref().map_or(0, |_| config.partitions);
    let layout_parts = parallel.is_some().then_some(partitions);
    // governance: apply the engine memory budget for the whole run — the
    // scheduler holds the guard, which lifts it on every way out, the stop
    // early — and push the statement deadline onto every connection the
    // run opens
    let mem_limit = config.max_mem.map(|limit| MemoryLimit::arm(driver, limit));
    let mut main = driver.connect()?;
    if config.statement_timeout.is_some() {
        main.set_statement_timeout(config.statement_timeout)?;
    }
    let names = CteNames::new(&cte.name);

    let fingerprint = run_fingerprint(cte, label, partitions.max(1));
    let mut recovery_note: Option<String> = None;
    let resume_snap = match &config.resume_from {
        Some(path) => {
            let recovered = load_latest_recover_with(&RealFs, path)?;
            metrics.counter("sqloop.checkpoint.resumes").inc();
            metrics
                .counter("sqloop.ckpt.fallback_loads")
                .add(u64::from(recovered.note.is_some()));
            metrics
                .counter("sqloop.ckpt.corrupt_detected")
                .add(recovered.quarantined.len() as u64);
            let snap = recovered.snapshot;
            recovery_note = recovered.note;
            check_fingerprint(&snap, fingerprint, label)?;
            if snap.parts.len() != partitions {
                return Err(SqloopError::Checkpoint(format!(
                    "snapshot carries {} partition states but this run has {partitions} partitions",
                    snap.parts.len(),
                )));
            }
            Some(snap)
        }
        None => None,
    };
    // fail before any table exists when the checkpoint dir is unusable
    let checkpointer = match &config.checkpoint {
        Some(ck) => Some(Checkpointer::new(ck.clone())?),
        None => None,
    };

    // the master connection's recurring statements, prepared once at plan
    // time and executed as handles every round: the termination probe, the
    // in-place delta refresh, and one priority query per partition
    let profile = main.profile();
    let probe = TerminationProbe::new(&cte.name, &cte.termination, profile)?;
    let refresher = cte
        .termination
        .needs_delta_snapshot()
        .then(|| DeltaRefresher::new(&names, profile))
        .transpose()?;
    let prio_stmts = match &config.priority {
        Some(spec) => (0..partitions)
            .map(|x| {
                Ok(PreparedStatement::new(translate_sql(
                    &spec.query_for(&names.partition(x)),
                    profile,
                )?))
            })
            .collect::<SqloopResult<Vec<_>>>()?,
        None => Vec::new(),
    };

    let resume = resume_snap.as_ref();
    let setup = match parallel {
        Some((plan, policy)) => parallel_setup(main.as_mut(), cte, plan, config, &names, resume)
            .map(|gen| (gen.schema().clone(), Some(gen), policy)),
        None => whole_setup(main.as_mut(), cte, &names, recursive, resume)
            .map(|(schema, tasks)| (schema, None, Policy::Whole { tasks })),
    };
    let (schema, mut gen, policy) = match setup {
        Ok(setup) => setup,
        Err(e) => {
            // a half-built layout must not leak into the catalog; until
            // set-up swaps it for the view, a partitioned run's R is a table
            let keep = config.keep_artifacts;
            let mut drops = artifact_drops(&names, layout_parts, &[], keep);
            if layout_parts.is_some() && !keep {
                drops.push(format!("DROP TABLE IF EXISTS {}", names.table));
            }
            run_all_best_effort(main.as_mut(), drops);
            return Err(e);
        }
    };
    let start_round = resume.map_or(0, |s| s.round);
    if let Some(snap) = resume {
        trace.event(
            EventKind::Resume,
            None,
            Some(start_round),
            format!("resumed {} run at round {start_round}", snap.mode),
        );
    }
    // the tables that hold the loop state, which checkpoints dump and the
    // watchdog probes: R (plus the working tables of a recursive CTE) for
    // Whole, the partition tables otherwise
    let state_tables: Vec<(String, Option<usize>)> = match &gen {
        Some(_) => (0..partitions)
            .map(|x| (names.partition(x), Some(x)))
            .collect(),
        None => {
            let tables = [names.table.clone(), names.working(0), names.working(1)];
            let count = if recursive.is_some() { 3 } else { 1 };
            tables.into_iter().take(count).map(|t| (t, None)).collect()
        }
    };
    let state_cols: Vec<(String, DataType)> = schema
        .columns
        .iter()
        .cloned()
        .zip(schema.types.iter().copied())
        .chain(
            gen.iter()
                .flat_map(SqlGen::hidden_columns)
                .map(|c| (c.to_string(), DataType::Float)),
        )
        .collect();

    // convergence sampler
    let sampler = match (&config.sample_interval, &config.progress_query) {
        (Some(iv), Some(q)) => Some(Sampler::start(
            driver.connect()?,
            Some(driver.clone()),
            q.replace("{}", &cte.name),
            *iv,
            metrics,
        )),
        _ => None,
    };

    // Whole runs its task on the master connection; one worker runs on this
    // thread unless stall remediation needs a thread it can abandon; more
    // get the pool
    let workers = match gen {
        None => Workers::Master,
        Some(_) if config.threads == 1 && config.stall_timeout.is_none() => {
            Workers::Inline(WorkerConn::new(
                Arc::clone(driver),
                config.retry_backoff,
                config.statement_timeout,
                config.cancel.clone(),
                Arc::clone(metrics),
                0,
            ))
        }
        Some(_) => Workers::Pool(WorkerPool::start(driver, config, trace, metrics)?),
    };

    let fresh = PartSnap {
        pending: true,
        ..PartSnap::default()
    };
    let parts: Vec<PartState> = (0..partitions)
        .map(|x| {
            let p = resume.map_or(fresh, |s| s.parts[x]);
            PartState {
                pending: p.pending,
                cursor: 0,
                in_flight: false,
                computes: p.computes,
                msg_seq: p.msg_seq,
                priority: 0.0,
                prefer_compute: p.prefer_compute,
            }
        })
        .collect();
    let mut scheduler = Scheduler {
        gen: gen.as_mut(),
        config,
        names: &names,
        schema,
        tc: &cte.termination,
        main: main.as_mut(),
        threads: match workers {
            Workers::Master => 0,
            _ => config.threads,
        },
        workers,
        queued: VecDeque::new(),
        dispatched: HashMap::new(),
        next_task_id: 1,
        parts,
        msgs: Vec::new(),
        in_flight: 0,
        computes: 0,
        gathers: 0,
        messages: 0,
        all_msgs: Vec::new(),
        free_slots: vec![Vec::new(); partitions],
        slots_created: vec![0; partitions],
        needs_delta: cte.termination.needs_delta_snapshot(),
        probe,
        refresher,
        prio_stmts,
        worker_busy: std::time::Duration::ZERO,
        recovery: RecoveryCounters::default(),
        aborting: false,
        trace,
        metrics,
        cache_probe: PlanCacheProbe::new(driver),
        round: start_round + 1,
        cancel: &config.cancel,
        checkpointer,
        label,
        fingerprint,
        state_tables,
        state_cols,
        state_key: recursive.is_none().then_some(0),
        start_round,
        cancelled: false,
        saved: None,
        watchdog: config
            .watchdog
            .is_active()
            .then(|| Watchdog::new(config.watchdog, &cte.termination, metrics)),
        mem_limit,
    };

    let final_sql = translate_query_to_sql(&cte.final_query, profile);
    let ran = scheduler.run(policy, &final_sql);
    let Scheduler {
        computes,
        gathers,
        messages,
        worker_busy,
        all_msgs,
        recovery,
        cancelled,
        checkpointer,
        workers,
        ..
    } = scheduler;
    let checkpoint_path = checkpointer
        .as_ref()
        .and_then(|c| c.last_path().map(Path::to_path_buf));

    // stop workers and collect them; panics that escaped a worker loop
    // surface here as counted recoveries, never silently — and abandoned
    // workers (possibly hung forever) are detached, not joined, so
    // cleanup can't re-wedge a run the supervisor already saved
    *recovery_out = RecoveryCounters {
        worker_panics: recovery.worker_panics + workers.shutdown(),
        ..recovery
    };
    let samples = sampler.map(Sampler::stop).unwrap_or_default();

    let outcome = ran.map(|(iterations, last_change, result)| RunOutcome {
        result,
        iterations,
        last_change,
        cancelled,
    });
    let keep = config.keep_artifacts;
    let drops = artifact_drops(&names, layout_parts, &all_msgs, keep);
    run_all_best_effort(main.as_mut(), drops);
    Ok(IterativeRun {
        outcome: outcome?,
        computes,
        gathers,
        messages,
        worker_busy,
        samples,
        checkpoint: checkpoint_path,
        recovery_note,
    })
}

/// The engine memory limit a run with `max_mem` arms; dropping the guard
/// lifts it, so no exit path leaves the run's budget on the database.
struct MemoryLimit(Arc<dyn Driver>);

impl MemoryLimit {
    fn arm(driver: &Arc<dyn Driver>, limit: u64) -> MemoryLimit {
        driver.set_memory_limit(Some(limit));
        MemoryLimit(Arc::clone(driver))
    }
}

impl Drop for MemoryLimit {
    fn drop(&mut self) {
        self.0.set_memory_limit(None);
    }
}

/// Who runs a run's tasks.
enum Workers {
    /// Whole's tasks run on the master thread, on the master connection,
    /// which cannot reconnect: a failed task is not replayed.
    Master,
    /// One worker and no stall timeout: worker 0 runs each task on the
    /// master thread, so no task pays a hand-off to a thread and back.
    Inline(WorkerConn),
    /// `sqloop-worker-{id}` threads under the supervisor.
    Pool(WorkerPool),
}

impl Workers {
    /// Stops the workers and closes their connections; returns how many
    /// worker threads panicked outside a task.
    fn shutdown(self) -> u64 {
        match self {
            Workers::Pool(pool) => pool.shutdown(),
            _ => 0,
        }
    }
}

/// One worker's engine connection and the body it runs every task through,
/// on a pool thread or inline on the master thread. The connection opens
/// lazily, under a retry policy, so a refused connect becomes a retryable
/// task failure; a task that leaves it untrustworthy drops it, and the
/// next task reopens it.
struct WorkerConn {
    driver: Arc<dyn Driver>,
    policy: RetryPolicy,
    cancel: CancelToken,
    statement_timeout: Option<Duration>,
    /// The run's registry: reconnect waits, dropped zombie results.
    metrics: Arc<MetricsRegistry>,
    worker: u32,
    conn: Option<Box<dyn Connection>>,
    ever_connected: bool,
}

impl WorkerConn {
    fn new(
        driver: Arc<dyn Driver>,
        retry_backoff: Duration,
        statement_timeout: Option<Duration>,
        cancel: CancelToken,
        metrics: Arc<MetricsRegistry>,
        worker: u32,
    ) -> WorkerConn {
        WorkerConn {
            driver,
            policy: RetryPolicy {
                max_attempts: RECONNECT_ATTEMPTS,
                base_delay: retry_backoff,
                jitter_seed: u64::from(worker) + 1,
                ..RetryPolicy::default()
            },
            cancel,
            statement_timeout,
            metrics,
            worker,
            conn: None,
            ever_connected: false,
        }
    }

    /// Runs `task` as this worker: (re)connects first when it has no
    /// connection — calling `connected` once it has one — then runs the
    /// task through [`run_task`], and drops the connection when the task
    /// left it unusable. The `Done` counts the reconnect, if one happened.
    fn run(&mut self, task: Task, trace: &TraceHandle, connected: impl FnOnce()) -> Done {
        let mut reconnects = 0u32;
        let mut refused = None;
        if self.conn.is_none() {
            // interruptible reconnect backoff: a cancelled run must not
            // sit out the full exponential wait
            let driver = &self.driver;
            match self
                .policy
                .run_with_cancel(&self.cancel, &self.metrics, |_| driver.connect())
            {
                Ok(mut c) => {
                    if self.ever_connected {
                        reconnects += 1;
                    }
                    self.ever_connected = true;
                    if self.statement_timeout.is_some() {
                        let _ = c.set_statement_timeout(self.statement_timeout);
                    }
                    self.conn = Some(c);
                    connected();
                }
                Err(e) => refused = Some(SqloopError::from(e)),
            }
        }
        let conn = self.conn.as_deref_mut().ok_or_else(|| {
            refused.unwrap_or_else(|| SqloopError::Worker("worker lost its connection".into()))
        });
        let (mut done, usable) = run_task(conn, task, Some(self.worker), trace);
        if !usable {
            self.conn = None;
        }
        done.reconnects = reconnects;
        done
    }
}

/// Everything one worker thread needs, bundled so replacements are spawned
/// from the same recipe as the initial pool.
struct WorkerCtx {
    conn: WorkerConn,
    rx: Receiver<Task>,
    tx: Sender<Done>,
    trace: TraceHandle,
    /// This worker's heartbeat, shared with the supervisor.
    slot: Arc<HeartbeatSlot>,
    /// The pool's clock epoch heartbeats are stamped against.
    epoch: Instant,
}

/// One spawned worker as the supervisor sees it.
struct WorkerHandle {
    id: u32,
    slot: Arc<HeartbeatSlot>,
    handle: std::thread::JoinHandle<()>,
    /// Set when the supervisor gave up on this worker (stall or death
    /// verdict). Abandoned workers are replaced, their task replayed, and
    /// their thread detached at shutdown if it never finished.
    abandoned: bool,
}

/// Results of abandoned workers, discarded instead of applied (rare enough
/// that no handle is kept for them).
const ZOMBIES: &str = "sqloop.supervisor.zombie_results_dropped";

/// Attempts a worker makes to (re)open its engine connection after a drop,
/// before it gives up on the task at hand.
const RECONNECT_ATTEMPTS: u32 = 3;

/// The run's worker pool: both channels, the initial `sqloop-worker-{id}`
/// threads and replacements for abandoned ones, minted mid-run. It keeps
/// the workers' ends of both channels too, so a replacement can be wired
/// up at any time; `shutdown` drops them so idle workers see the task
/// stream end.
struct WorkerPool {
    driver: Arc<dyn Driver>,
    retry_backoff: std::time::Duration,
    statement_timeout: Option<std::time::Duration>,
    cancel: CancelToken,
    trace: TraceHandle,
    task_tx: Sender<Task>,
    task_rx: Receiver<Task>,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    /// Clock origin for heartbeat timestamps.
    epoch: Instant,
    metrics: Arc<MetricsRegistry>,
    workers: Vec<WorkerHandle>,
    next_id: u32,
}

impl WorkerPool {
    /// Spawns `config.threads` workers. Each opens its connection lazily,
    /// under a retry policy, so a refused connect becomes a retryable task
    /// failure instead of aborting the run before it starts.
    fn start(
        driver: &Arc<dyn Driver>,
        config: &SqloopConfig,
        trace: &TraceHandle,
        metrics: &Arc<MetricsRegistry>,
    ) -> SqloopResult<WorkerPool> {
        let (task_tx, task_rx) = unbounded::<Task>();
        let (done_tx, done_rx) = unbounded::<Done>();
        let mut pool = WorkerPool {
            driver: Arc::clone(driver),
            retry_backoff: config.retry_backoff,
            statement_timeout: config.statement_timeout,
            cancel: config.cancel.clone(),
            trace: trace.clone(),
            task_tx,
            task_rx,
            done_tx,
            done_rx,
            epoch: Instant::now(),
            metrics: Arc::clone(metrics),
            workers: Vec::new(),
            next_id: 0,
        };
        for _ in 0..config.threads {
            pool.spawn_worker()?;
        }
        Ok(pool)
    }

    /// Spawns a named `sqloop-worker-{id}` thread wired to the pool's
    /// channels; returns its id.
    fn spawn_worker(&mut self) -> SqloopResult<u32> {
        let id = self.next_id;
        self.next_id += 1;
        let slot = Arc::new(HeartbeatSlot::new(now_us(self.epoch)));
        let ctx = WorkerCtx {
            conn: WorkerConn::new(
                Arc::clone(&self.driver),
                self.retry_backoff,
                self.statement_timeout,
                self.cancel.clone(),
                Arc::clone(&self.metrics),
                id,
            ),
            rx: self.task_rx.clone(),
            tx: self.done_tx.clone(),
            trace: self.trace.clone(),
            slot: Arc::clone(&slot),
            epoch: self.epoch,
        };
        let handle = std::thread::Builder::new()
            .name(format!("sqloop-worker-{id}"))
            .spawn(move || worker_loop(ctx))
            .map_err(|e| SqloopError::Config(format!("spawn worker: {e}")))?;
        self.workers.push(WorkerHandle {
            id,
            slot,
            handle,
            abandoned: false,
        });
        Ok(id)
    }

    /// True when every non-abandoned worker thread has exited — with tasks
    /// still in flight, that means nobody is left to finish them.
    fn all_live_finished(&self) -> bool {
        let mut any_live = false;
        for w in &self.workers {
            if w.abandoned {
                continue;
            }
            any_live = true;
            if !w.handle.is_finished() {
                return false;
            }
        }
        any_live
    }

    /// Joins the workers and returns how many panicked outside a task body
    /// (the per-task `catch_unwind` makes that rare). Abandoned workers
    /// that never finished — e.g. hung forever inside an injected stall —
    /// are detached instead of joined, so shutdown can't re-wedge a run
    /// the supervisor already saved; their panics (if any) were accounted
    /// by the verdict that abandoned them.
    fn shutdown(self) -> u64 {
        drop(self.task_tx);
        drop(self.task_rx);
        drop(self.done_tx);
        let mut panics = 0u64;
        for w in self.workers {
            if w.abandoned {
                if w.handle.is_finished() {
                    let _ = w.handle.join();
                }
                continue;
            }
            if let Err(payload) = w.handle.join() {
                panics += 1;
                self.trace.event(
                    EventKind::Panic,
                    None,
                    None,
                    format!(
                        "worker {} panicked outside a task: {}",
                        w.id,
                        panic_detail(payload.as_ref())
                    ),
                );
            }
        }
        panics
    }
}

fn worker_loop(ctx: WorkerCtx) {
    let WorkerCtx {
        mut conn,
        rx,
        tx,
        trace,
        slot,
        epoch,
    } = ctx;
    for task in rx.iter() {
        slot.begin_task(now_us(epoch), task.task_id);
        let done = conn.run(task, &trace, || slot.beat(now_us(epoch)));
        // completion handshake: exactly one of {this CAS, the supervisor's
        // abandon CAS} wins. Losing means the supervisor already replayed
        // this task on a replacement — sending the result now would apply
        // the round's non-idempotent final UPDATE twice, so discard it and
        // exit (the replacement has this worker's job).
        if !slot.try_complete() {
            conn.metrics.counter(ZOMBIES).inc();
            return;
        }
        if tx.send(done).is_err() {
            return;
        }
        slot.finish(now_us(epoch));
    }
}

/// Runs `task.stmts[task.start_at..]` on `conn` (or fails at once with the
/// error that left a worker without one), folds the outputs into a
/// [`Done`] and records the attempt's span. `worker` is `None` when the
/// master thread runs the task on its own connection. The flag comes back
/// false when the connection can no longer be trusted — a transport
/// failure, a dead connection, a panic — and the caller must reconnect or
/// roll the session back.
fn run_task(
    conn: Result<&mut (dyn Connection + '_), SqloopError>,
    task: Task,
    worker: Option<u32>,
    trace: &TraceHandle,
) -> (Done, bool) {
    let started = Instant::now();
    let span_start = trace.now_us();
    let at = task.start_at;
    let fill_at = match task.kind {
        TaskKind::Compute { fill_at, .. } => Some(fill_at),
        _ => None,
    };
    let mut changed = 0u64;
    let mut rows_outputs = Vec::new();
    let mut msg_rows = None;
    let mut usable = true;
    let error = match conn {
        Err(e) => Some((at, e)),
        Ok(c) => {
            // the remaining statement sequence goes out as ONE pipelined
            // batch — a single wire round-trip however many statements the
            // task carries
            let steps: Vec<PipelineStep> = task.stmts[at..]
                .iter()
                .map(|sql| PipelineStep::Execute(sql.clone()))
                .collect();
            // the panic boundary: one panicking statement (an engine bug,
            // an injected chaos panic) must degrade into a typed task
            // failure, never take the process down or wedge the run
            let pipe =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run_pipeline(&steps)));
            match pipe {
                Ok(Ok(outcome)) => {
                    let executed = outcome.outputs.len();
                    for (i, out) in outcome.outputs.into_iter().enumerate() {
                        match out {
                            // slot-maintenance DELETE/INSERT counts are
                            // bookkeeping, not convergence delta
                            StmtOutput::Affected(n) => {
                                if at + i >= task.changed_from {
                                    changed += n;
                                } else if Some(at + i) == fill_at {
                                    msg_rows = Some(n);
                                }
                            }
                            StmtOutput::Rows(r) => rows_outputs.push(r),
                            StmtOutput::Done => {}
                        }
                    }
                    // the step at `executed` surfaced its error before
                    // taking effect — replay resumes there; a dead
                    // connection reported with a position (statement-at-a-
                    // time transports know how far they got) additionally
                    // forces a reconnect
                    outcome.error.map(|e| {
                        usable &= !matches!(e, DbError::Connection(_));
                        (at + executed, SqloopError::from(e))
                    })
                }
                Err(payload) => {
                    // a panic unwound through the driver: the session's
                    // state is unknown, so the caller drops it or rolls it
                    // back (releasing its locks), and the typed WorkerPanic
                    // is retryable — faults inject before their statement
                    // takes effect, so replaying from `at` is as safe as
                    // any transport replay
                    usable = false;
                    let detail = panic_detail(payload.as_ref());
                    let (who, detail) = match worker {
                        Some(w) => (format!("worker {w}"), detail),
                        None => (
                            "the master connection".to_string(),
                            format!("single-threaded iteration {}: {detail}", task.round),
                        ),
                    };
                    trace.event(
                        EventKind::Panic,
                        task.trace_partition(),
                        Some(task.round),
                        format!("{who} caught a panic: {detail}"),
                    );
                    Some((at, SqloopError::WorkerPanic { worker, detail }))
                }
                Ok(Err(e)) => {
                    // transport failure mid-batch: how far the batch got
                    // is unknown at statement granularity, so this
                    // attempt's outputs are discarded and the whole
                    // remaining sequence replays from `at` — safe because
                    // every statement before a task's final delta-advancing
                    // UPDATE is idempotent and the UPDATE is always last
                    // (it either never ran, or ran and the batch completed)
                    usable = false;
                    Some((at, SqloopError::from(e)))
                }
            }
        }
    };
    if trace.is_enabled() {
        trace.span(Span {
            kind: match task.kind {
                TaskKind::Compute { .. } => SpanKind::Compute,
                TaskKind::Gather { .. } => SpanKind::Gather,
                TaskKind::Whole => SpanKind::Iteration,
            },
            partition: task.trace_partition(),
            iteration: Some(task.round),
            worker,
            attempt: task.attempt,
            rows: changed,
            outcome: if error.is_some() {
                SpanOutcome::Failed
            } else {
                SpanOutcome::Ok
            },
            start_us: span_start,
            end_us: trace.now_us(),
        });
    }
    let done = Done {
        task,
        changed,
        rows_outputs,
        msg_rows,
        elapsed: started.elapsed(),
        error,
        reconnects: 0,
    };
    (done, usable)
}

struct Scheduler<'a> {
    /// Compute/Gather SQL of the partitioned layout (`None` for Whole).
    gen: Option<&'a mut SqlGen>,
    config: &'a SqloopConfig,
    names: &'a CteNames,
    /// The CTE's declared columns, which the watchdog probes.
    schema: CteSchema,
    tc: &'a Termination,
    main: &'a mut dyn Connection,
    /// Workers (0 for Whole): a task per worker plus one waiting may be in
    /// flight.
    threads: usize,
    /// Who runs the tasks. Through a pool, the supervisor inspects
    /// heartbeats, abandons stuck workers and spawns replacements.
    workers: Workers,
    /// Dispatched tasks that run on the master thread, in dispatch order:
    /// [`Self::recv_done`] runs the front one.
    queued: VecDeque<Task>,
    /// Tasks currently dispatched, keyed by task id — the supervisor's
    /// in-flight map and the zombie-result filter.
    dispatched: HashMap<u64, Task>,
    /// Next scheduler-unique task id.
    next_task_id: u64,
    parts: Vec<PartState>,
    msgs: Vec<MsgState>,
    in_flight: usize,
    computes: u64,
    gathers: u64,
    messages: u64,
    all_msgs: Vec<String>,
    /// Per-partition free lists of reusable message-slot tables. A Compute
    /// pops a slot (creating one only when the list is empty), truncates
    /// and refills it; the slot returns here when its message is consumed.
    /// Steady state: the pool stops growing and every per-round statement
    /// text is byte-identical across rounds, so the engine plan cache
    /// serves them without re-parsing.
    free_slots: Vec<Vec<String>>,
    /// Per-partition count of slots ever created (next slot index).
    slots_created: Vec<usize>,
    needs_delta: bool,
    /// Termination probe, prepared once at plan time.
    probe: TerminationProbe,
    /// Per-round in-place `<R>delta` refresh (`None` when no condition
    /// reads the snapshot).
    refresher: Option<DeltaRefresher>,
    /// One prepared priority query per partition (empty without a spec).
    prio_stmts: Vec<PreparedStatement>,
    worker_busy: std::time::Duration,
    /// What fault recovery did; `worker_panics` counts panics absorbed
    /// mid-run (caught at the task boundary or dead-thread verdicts), when
    /// their failed `Done` is processed.
    recovery: RecoveryCounters,
    /// Set on the first unrecoverable task failure: stop replaying, let
    /// the remaining in-flight tasks drain so the run can abort cleanly.
    aborting: bool,
    /// Trace recorder (no-op when tracing is off).
    trace: &'a TraceHandle,
    /// The run's registry.
    metrics: &'a MetricsRegistry,
    /// Per-round plan-cache hit/miss attribution, emitted at round ticks.
    cache_probe: PlanCacheProbe,
    /// Current 1-based round/wave, stamped into tasks for the trace.
    round: u64,
    /// Cooperative cancellation, checked at quiesce points and while
    /// dispatching.
    cancel: &'a CancelToken,
    /// Periodic durable snapshots (`None` = checkpointing off).
    checkpointer: Option<Checkpointer>,
    /// The policy's mode label: snapshots, plan-cache ticks.
    label: &'static str,
    /// [`run_fingerprint`] of this run, stamped into every snapshot.
    fingerprint: u64,
    /// The tables that hold the loop state, with the partition each one is
    /// (`None` for Whole's `R`): what checkpoints dump and the watchdog
    /// probes.
    state_tables: Vec<(String, Option<usize>)>,
    /// Their full column list (declared + hidden), for dumps.
    state_cols: Vec<(String, DataType)>,
    /// The key column dumps declare: `Rid`, except in a recursive CTE's
    /// tables, which have none.
    state_key: Option<usize>,
    /// Completed rounds carried over from a resumed checkpoint.
    start_round: u64,
    /// Set when the run stopped at a cancellation point.
    cancelled: bool,
    /// The round the last snapshot this run wrote holds.
    saved: Option<u64>,
    /// Watchdog state (`None` = no checks).
    watchdog: Option<Watchdog>,
    /// The engine memory limit of the run, lifted when dropped.
    mem_limit: Option<MemoryLimit>,
}

impl Scheduler<'_> {
    // -- task construction -------------------------------------------------

    fn build_compute(&mut self, x: usize) -> SqloopResult<Task> {
        // msg_seq stays a per-partition Compute ordinal (checkpointed for
        // format stability) but no longer names the message table: slots
        // have generation-stable names, so the statement texts below are
        // byte-identical every round and stay hot in the plan cache.
        self.parts[x].msg_seq += 1;
        let (slot, fresh) = match self.free_slots[x].pop() {
            Some(slot) => (slot, false),
            None => {
                let k = self.slots_created[x];
                self.slots_created[x] += 1;
                let slot = self.names.message_slot(x, k);
                self.all_msgs.push(slot.clone());
                (slot, true)
            }
        };
        // replays resume at the failed statement, so a fresh slot's DDL
        // never re-runs after it succeeded
        let sql = partitioned(&mut self.gen)?.compute_task_sql(x, &slot, fresh)?;
        let kind = TaskKind::Compute {
            msg_table: slot,
            fill_at: sql.fill_at,
        };
        Ok(Task {
            round: self.round,
            ..Task::new(x, kind, sql.stmts, sql.changed_from)
        })
    }

    /// Unread live message tables for `x`; advances the cursor over dead
    /// prefixes. `None` when there is nothing to read.
    fn build_gather(&mut self, x: usize) -> SqloopResult<Option<Task>> {
        let len = self.msgs.len();
        let mut tables: Vec<&str> = self.msgs[self.parts[x].cursor..len]
            .iter()
            .filter(|m| m.addresses(x))
            .map(|m| m.name.as_str())
            .collect();
        // canonical order: worker completion order varies run to run, but
        // the slot SET is stable — sorting makes the gather text
        // generation-stable so it stays hot in the plan cache too
        tables.sort_unstable();
        if tables.is_empty() {
            self.parts[x].cursor = len;
            return Ok(None);
        }
        let sql = partitioned(&mut self.gen)?.gather_task_sql(x, &tables)?;
        let kind = TaskKind::Gather {
            read_from: self.parts[x].cursor,
            read_until: len,
        };
        Ok(Some(Task {
            round: self.round,
            ..Task::new(x, kind, vec![sql], 0)
        }))
    }

    /// The dispatch-depth rule: a task per
    /// worker plus one waiting in the channel, so a worker that finishes
    /// finds its next task there instead of parking until this thread has
    /// woken, booked the completion and built a successor. Picks still
    /// happen only when a completion has been handled, which keeps a
    /// one-worker schedule a pure function of state; a queued task's
    /// partition is in flight like a running one's. Whole, without
    /// workers, has one task in flight at a time.
    fn has_room(&self) -> bool {
        self.in_flight <= self.threads
    }

    fn dispatch(&mut self, mut task: Task) -> SqloopResult<()> {
        task.task_id = self.next_task_id;
        self.next_task_id += 1;
        if let Some(p) = self.parts.get_mut(task.partition) {
            p.in_flight = true;
        }
        self.in_flight += 1;
        let Workers::Pool(pool) = &self.workers else {
            self.queued.push_back(task);
            return Ok(());
        };
        self.dispatched.insert(task.task_id, task.clone());
        pool.task_tx
            .send(task)
            .map_err(|_| SqloopError::Worker("worker pool shut down unexpectedly".into()))
    }

    /// Receives the next completion. Without a pool, it runs the front
    /// queued task on this thread: as worker 0 on that worker's
    /// connection, or Whole's on the master connection, whose session is
    /// rolled back when the task left it untrustworthy.
    fn recv_done(&mut self) -> SqloopResult<Done> {
        let worker = match &mut self.workers {
            Workers::Pool(_) => return self.recv_pooled(),
            Workers::Inline(worker) => Some(worker),
            Workers::Master => None,
        };
        let task = self
            .queued
            .pop_front()
            .ok_or_else(|| SqloopError::Worker("no task is queued to run".into()))?;
        Ok(match worker {
            Some(worker) => worker.run(task, self.trace, || {}),
            None => {
                let (done, usable) = run_task(Ok(&mut *self.main), task, None, self.trace);
                if !usable {
                    let _ = self.main.execute("ROLLBACK");
                }
                done
            }
        })
    }

    /// Receives the next completion from the pool, supervising it while
    /// waiting.
    ///
    /// The wait is bounded by [`SUPERVISOR_POLL`], and each timeout tick runs
    /// a supervision pass over the worker heartbeats, so a panicked or
    /// stalled worker becomes a typed verdict instead of an infinite block.
    /// Completions for tasks no longer in the dispatch map (a worker that
    /// lost the completion race but still had its `Done` buffered) are
    /// discarded.
    fn recv_pooled(&mut self) -> SqloopResult<Done> {
        loop {
            let received = match &self.workers {
                Workers::Pool(pool) => pool.done_rx.recv_timeout(SUPERVISOR_POLL),
                _ => Err(RecvTimeoutError::Disconnected),
            };
            match received {
                Ok(d) => {
                    if self.dispatched.contains_key(&d.task.task_id) {
                        return Ok(d);
                    }
                    self.metrics.counter(ZOMBIES).inc();
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(d) = self.supervise()? {
                        return Ok(d);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // the pool holds a sender clone for replacements, so
                    // this can only mean the pool itself is gone
                    return Err(SqloopError::WorkerPanic {
                        worker: None,
                        detail: format!(
                            "every worker exited with {} task(s) in flight",
                            self.in_flight
                        ),
                    });
                }
            }
        }
    }

    /// One supervision pass over the worker heartbeats.
    ///
    /// A busy worker whose thread has exited (panicked past the task-level
    /// `catch_unwind`) or whose heartbeat has been silent past
    /// `stall_timeout` is abandoned via the completion-race CAS, its task
    /// turned into a synthetic failed [`Done`] (so [`Self::handle_done`]
    /// applies the ordinary replay/budget/abort logic), and a replacement
    /// worker is spawned. Returns that verdict, if any.
    fn supervise(&mut self) -> SqloopResult<Option<Done>> {
        let Workers::Pool(pool) = &mut self.workers else {
            return Ok(None);
        };
        if self.in_flight == 0 {
            return Ok(None);
        }
        let now = now_us(pool.epoch);
        let stall_us = self.config.stall_timeout.map(|t| t.as_micros() as u64);
        for i in 0..pool.workers.len() {
            let (worker_id, task_id, dead, silent_us) = {
                let w = &pool.workers[i];
                if w.abandoned || w.slot.state() != STATE_BUSY {
                    continue;
                }
                let dead = w.handle.is_finished();
                let silent = now.saturating_sub(w.slot.beat_us());
                (w.id, w.slot.task_id(), dead, silent)
            };
            let stalled = !dead && stall_us.map(|t| silent_us > t).unwrap_or(false);
            if !dead && !stalled {
                continue;
            }
            // the completion race: if the worker sends its Done first, the
            // CAS fails and this verdict is void — take the real result
            if !pool.workers[i].slot.try_abandon() {
                continue;
            }
            pool.workers[i].abandoned = true;
            let replacement = pool.spawn_worker()?;
            self.recovery.worker_replacements += 1;
            let Some(task) = self.dispatched.remove(&task_id) else {
                // raced with a completion already consumed: the worker is
                // replaced, but there is nothing to replay
                continue;
            };
            let e = if dead {
                self.trace.event(
                    EventKind::Panic,
                    Some(task.partition as u32),
                    Some(task.round),
                    format!("worker {worker_id} thread exited mid-task"),
                );
                SqloopError::WorkerPanic {
                    worker: Some(worker_id),
                    detail: "worker thread exited mid-task".into(),
                }
            } else {
                self.recovery.stalls += 1;
                self.trace.event(
                    EventKind::Stall,
                    Some(task.partition as u32),
                    Some(task.round),
                    format!(
                        "worker {worker_id} heartbeat silent for {}ms — abandoning",
                        silent_us / 1000
                    ),
                );
                SqloopError::WorkerStalled {
                    worker: worker_id,
                    partition: task.partition,
                    waited_ms: silent_us / 1000,
                }
            };
            self.trace.event(
                EventKind::Replace,
                Some(task.partition as u32),
                Some(task.round),
                format!("spawned worker {replacement} to replace {worker_id}"),
            );
            let failed_at = task.start_at;
            return Ok(Some(Done {
                task,
                changed: 0,
                rows_outputs: Vec::new(),
                msg_rows: None,
                elapsed: std::time::Duration::ZERO,
                error: Some((failed_at, e)),
                reconnects: 0,
            }));
        }
        if pool.all_live_finished() {
            return Err(SqloopError::WorkerPanic {
                worker: None,
                detail: format!(
                    "every worker exited with {} task(s) in flight",
                    self.in_flight
                ),
            });
        }
        Ok(None)
    }

    /// Processes one completion; returns the number of changed rows.
    ///
    /// A failed task whose error is retryable is re-dispatched resuming at
    /// the failed statement (carrying the partial results along), until the
    /// replay budget runs out — then the failure is wrapped as
    /// [`SqloopError::Task`] and the scheduler aborts. Whole's task, which
    /// ran on the master connection, is not replayed, as that connection
    /// cannot reconnect: its error ends the run unwrapped.
    fn handle_done(&mut self, d: Done) -> SqloopResult<u64> {
        self.dispatched.remove(&d.task.task_id);
        self.in_flight -= 1;
        let x = d.task.partition;
        let part = d.task.trace_partition();
        if let Some(p) = self.parts.get_mut(x) {
            p.in_flight = false;
        }
        self.worker_busy += d.elapsed;
        self.recovery.worker_reconnects += u64::from(d.reconnects);
        if self.trace.is_enabled() {
            // one event per reconnect so the trace tally matches
            // RecoveryCounters::worker_reconnects exactly
            for _ in 0..d.reconnects {
                self.trace.event(
                    EventKind::Reconnect,
                    part,
                    Some(d.task.round),
                    "worker reopened its engine connection",
                );
            }
        }
        if let Some((failed_at, e)) = d.error {
            self.recovery.task_failures += 1;
            if matches!(e, SqloopError::WorkerPanic { .. }) {
                self.recovery.worker_panics += 1;
            }
            self.trace.event(
                EventKind::Fault,
                part,
                Some(d.task.round),
                format!("attempt {} failed at stmt {failed_at}: {e}", d.task.attempt),
            );
            let mut task = d.task;
            task.acc_changed += d.changed;
            task.acc_rows.extend(d.rows_outputs);
            task.acc_msg_rows = task.acc_msg_rows.or(d.msg_rows);
            task.start_at = failed_at;
            if matches!(self.workers, Workers::Master) {
                self.aborting = true;
                return Err(e);
            }
            if e.is_retryable() && task.attempt <= self.config.task_retries && !self.aborting {
                task.attempt += 1;
                self.recovery.task_retries += 1;
                self.trace.event(
                    EventKind::Retry,
                    part,
                    Some(task.round),
                    format!("replaying from stmt {failed_at} (attempt {})", task.attempt),
                );
                self.dispatch(task)?;
                return Ok(0);
            }
            self.aborting = true;
            return Err(SqloopError::Task {
                partition: x,
                attempt: task.attempt,
                source: Box::new(e),
            });
        }
        let Task {
            kind,
            acc_changed,
            mut acc_rows,
            acc_msg_rows,
            ..
        } = d.task;
        acc_rows.extend(d.rows_outputs);
        let changed = acc_changed + d.changed;
        let mut refresh = false;
        match &kind {
            TaskKind::Compute { msg_table, .. } => {
                self.computes += 1;
                self.parts[x].computes += 1;
                self.parts[x].pending = false;
                self.parts[x].prefer_compute = false;
                let msg_rows = acc_msg_rows.or(d.msg_rows).unwrap_or(0);
                // the slot's distinct `__to` values
                let targets = acc_rows.first().map(|r| {
                    let mut t: Vec<usize> = r
                        .rows
                        .iter()
                        .filter_map(|row| row[0].as_i64().map(|p| p as usize))
                        .collect();
                    t.sort_unstable();
                    t
                });
                let unread = targets.as_ref().map_or(self.parts.len(), Vec::len);
                if msg_rows > 0 {
                    self.messages += 1;
                }
                if msg_rows > 0 && unread > 0 {
                    self.msgs.push(MsgState {
                        name: msg_table.clone(),
                        partition: x,
                        unread,
                        targets,
                    });
                } else {
                    // a message no partition reads: hand the slot straight
                    // back — no DROP; the next reuse truncates it with a
                    // cached DELETE
                    self.free_slots[x].push(msg_table.clone());
                }
            }
            TaskKind::Gather {
                read_from,
                read_until,
            } => {
                self.gathers += 1;
                self.parts[x].cursor = *read_until;
                if changed > 0 {
                    self.parts[x].pending = true;
                    self.parts[x].prefer_compute = true;
                    refresh = true;
                }
                // the messages this Gather read; a slot every addressed
                // partition has read goes back to its owner's free list,
                // where the next Compute truncates and refills it with
                // statements the plan cache already knows
                for i in *read_from..*read_until {
                    if self.msgs[i].addresses(x) {
                        self.msgs[i].unread -= 1;
                        if self.msgs[i].unread == 0 {
                            let owner = self.msgs[i].partition;
                            self.free_slots[owner].push(self.msgs[i].name.clone());
                        }
                    }
                }
            }
            TaskKind::Whole => {}
        }
        if self.config.mode == ExecutionMode::AsyncPrio && refresh {
            self.refresh_priority(x);
        }
        Ok(changed)
    }

    /// Evaluates partition `x`'s priority query. A result that is not a
    /// number (`NULL` over an empty partition, NaN) ranks the partition
    /// last.
    fn eval_priority(&mut self, x: usize) -> SqloopResult<f64> {
        let descending = self.config.priority.as_ref().is_some_and(|s| s.descending);
        let worst = if descending {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let v = match self.prio_stmts[x].execute(&mut *self.main, &[])? {
            StmtOutput::Rows(r) => r.scalar().and_then(Value::as_f64),
            _ => None,
        };
        Ok(v.filter(|v| !v.is_nan()).unwrap_or(worst))
    }

    /// Re-reads partition `x`'s priority after a Gather changed its rows.
    /// The query ran when the run started, so a failure here is transient:
    /// the partition keeps the priority it had.
    fn refresh_priority(&mut self, x: usize) {
        match self.eval_priority(x) {
            Ok(v) => self.parts[x].priority = v,
            Err(e) => self.trace.event(
                EventKind::PriorityFailed,
                Some(x as u32),
                Some(self.round),
                format!("keeping priority {}: {e}", self.parts[x].priority),
            ),
        }
    }

    /// First evaluation of every partition's priority. A query that fails
    /// here would leave AsyncP scheduling in arbitrary order, so it fails
    /// the run instead.
    fn init_priorities(&mut self) -> SqloopResult<()> {
        for x in 0..self.parts.len() {
            self.parts[x].priority = self.eval_priority(x).map_err(|e| SqloopError::Priority {
                query: self.prio_stmts[x].sql().to_string(),
                source: Box::new(e),
            })?;
        }
        Ok(())
    }

    fn tc_check(&mut self, rounds: u64, changed: u64) -> SqloopResult<bool> {
        let done = self.probe.satisfied(&mut *self.main, rounds, changed)?;
        if let Some(r) = self.refresher.as_mut() {
            r.refresh(&mut *self.main)?;
        }
        Ok(done)
    }

    // -- the event loop (paper §V-E) ----------------------------------------

    /// Runs the loop to its end under `policy`, then the final query `Qf`,
    /// and returns `(iterations, last change, Qf's rows)`. Every error the
    /// run ends in passes through [`Self::fail`] here, once, so a
    /// memory-budget trip anywhere — a task, the termination probe, a
    /// checkpoint, `Qf` — stops the run governed.
    fn run(
        &mut self,
        mut policy: Policy,
        final_sql: &str,
    ) -> SqloopResult<(u64, u64, QueryResult)> {
        // rows changed in the current round
        let mut tally = 0u64;
        let ran = self
            .rounds(&mut policy, &mut tally)
            .and_then(|(iterations, last_change)| {
                Ok((iterations, last_change, self.main.query(final_sql)?))
            });
        ran.map_err(|e| self.fail(e, self.round - 1, policy.committed(tally)))
    }

    /// The round loop. This is the one place that dispatches, waits for
    /// completions (supervising the pool meanwhile), drains after the first
    /// unrecoverable failure, ticks rounds and decides whether the run
    /// stops; the policy only picks tasks, says when a round is over, and
    /// says when the loop has terminated.
    fn rounds(&mut self, policy: &mut Policy, tally: &mut u64) -> SqloopResult<(u64, u64)> {
        policy.begin(self)?;
        let mut rounds = self.start_round;
        let mut first_error: Option<SqloopError> = None;
        loop {
            // a failure or a cancellation stops feeding the pipeline; what is
            // already in flight drains below
            if first_error.is_none() && !self.cancel.cancelled() {
                while self.has_room() {
                    match policy.next(self)? {
                        Some(t) => self.dispatch(t)?,
                        None => break,
                    }
                }
            }
            let boundary = if self.in_flight > 0 {
                let d = match self.recv_done() {
                    Ok(d) => d,
                    Err(e) => return Err(first_error.unwrap_or(e)),
                };
                match self.handle_done(d) {
                    Ok(c) => {
                        *tally += c;
                        policy.completed()
                    }
                    Err(e) => {
                        first_error.get_or_insert(e);
                        Boundary::Within
                    }
                }
            } else if let Some(e) = first_error {
                return Err(e);
            } else {
                policy.idle(self, *tally)?
            };
            match boundary {
                Boundary::Within => continue,
                Boundary::Quiescent => return Ok((policy.reported(self, rounds + 1), *tally)),
                // a partial round: not counted, straight to the stop
                Boundary::Cancel => {}
                Boundary::Round => {
                    rounds += 1;
                    if self.trace.is_enabled() {
                        self.trace.event(
                            EventKind::Round,
                            None,
                            Some(rounds),
                            format!("{tally} row(s) changed"),
                        );
                    }
                    self.cache_probe.tick(self.trace, rounds, self.label);
                    self.round = rounds + 1;
                    if policy.terminated(self, rounds, *tally)? {
                        self.drain()?;
                        return Ok((policy.reported(self, rounds), *tally));
                    }
                }
            }
            // the round boundary is the loop's quiesce point: the run stops
            // here, or it checkpoints when one is due
            if let Some(stop) = self.stop_due(rounds, *tally) {
                self.stop(stop, rounds, *tally)?;
                return Ok((policy.reported(self, rounds), *tally));
            }
            *tally = self.maybe_checkpoint(rounds, *tally)?;
            policy.next_round(self)?;
        }
    }

    fn compute_allowed(&self, x: usize) -> bool {
        match self.tc {
            Termination::Iterations(n) => self.parts[x].computes < *n,
            _ => true,
        }
    }

    /// Priority scheduler (`AsyncP`, paper §V-E): schedules only partitions
    /// that can contribute — pending deltas or unread messages — ordered by
    /// the user's priority function, with strict G→C pairing per partition.
    fn pick_prio(&mut self) -> SqloopResult<Option<Task>> {
        let n = self.parts.len();
        let desc = self
            .config
            .priority
            .as_ref()
            .map(|p| p.descending)
            .unwrap_or(true);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (self.parts[a].priority, self.parts[b].priority);
            if desc {
                pb.total_cmp(&pa)
            } else {
                pa.total_cmp(&pb)
            }
        });
        // pass 1: productive partitions — gather-then-compute pairs, best
        // priority first (gathering right before the compute batches every
        // unread table into one statement)
        for &x in &order {
            if self.parts[x].in_flight {
                continue;
            }
            let can_compute = self.parts[x].pending && self.compute_allowed(x);
            if !can_compute {
                continue;
            }
            if self.parts[x].prefer_compute {
                return self.build_compute(x).map(Some);
            }
            if let Some(t) = self.build_gather(x)? {
                return Ok(Some(t));
            }
            return self.build_compute(x).map(Some);
        }
        // pass 2: bulk gathers — partitions with enough unread tables to be
        // worth a statement of their own
        const GATHER_BATCH: usize = 4;
        for &x in &order {
            if self.parts[x].in_flight {
                continue;
            }
            if self.unread_count(x) >= GATHER_BATCH {
                if let Some(t) = self.build_gather(x)? {
                    return Ok(Some(t));
                }
            }
        }
        // pass 3: nothing productive anywhere — drain stragglers so the
        // registry empties and termination can be detected
        if self.in_flight == 0 {
            for &x in &order {
                if let Some(t) = self.build_gather(x)? {
                    return Ok(Some(t));
                }
            }
        }
        Ok(None)
    }

    /// Live unread message tables targeted at partition `x`.
    fn unread_count(&self, x: usize) -> usize {
        let len = self.msgs.len();
        self.msgs[self.parts[x].cursor..len]
            .iter()
            .filter(|m| m.addresses(x))
            .count()
    }

    /// Waits for all in-flight tasks after a termination decision; returns
    /// the rows they changed.
    fn drain(&mut self) -> SqloopResult<u64> {
        let mut changed = 0u64;
        while self.in_flight > 0 {
            let d = self.recv_done()?;
            changed += self.handle_done(d)?;
        }
        Ok(changed)
    }

    // -- quiesce points and checkpoints (DESIGN.md §11) ---------------------

    /// Brings the loop to a quiesce point: waits out in-flight tasks, then
    /// force-gathers every unread message table until the registry is empty
    /// — after which the partition tables alone are the loop state. Returns
    /// the rows changed by the forced gathers (they belong to the next
    /// round's tally, not the completed one).
    fn quiesce(&mut self) -> SqloopResult<u64> {
        let mut changed = self.drain()?;
        loop {
            let mut dispatched = false;
            for x in 0..self.parts.len() {
                if let Some(t) = self.build_gather(x)? {
                    self.dispatch(t)?;
                    dispatched = true;
                }
            }
            if !dispatched {
                break;
            }
            changed += self.drain()?;
        }
        Ok(changed)
    }

    /// Writes a checkpoint when one is due at `rounds` completed rounds;
    /// returns the rows changed while quiescing (carry them into the next
    /// round's tally).
    fn maybe_checkpoint(&mut self, rounds: u64, last_change: u64) -> SqloopResult<u64> {
        if !self.checkpointer.as_ref().is_some_and(|c| c.due(rounds)) {
            return Ok(0);
        }
        self.save_quiesced(rounds, last_change)
    }

    /// Quiesces and, when checkpointing is on and no snapshot of this run
    /// holds `rounds` yet, dumps the quiesced loop state into one — the
    /// step behind periodic checkpoints and [`Self::stop`]. Returns the
    /// rows the quiesce changed.
    fn save_quiesced(&mut self, rounds: u64, last_change: u64) -> SqloopResult<u64> {
        let carried = self.quiesce()?;
        if self.checkpointer.is_none() || self.saved == Some(rounds) {
            return Ok(carried);
        }
        let mut tables = self
            .state_tables
            .iter()
            .map(|(table, _)| dump_table_sql(self.main, table, &self.state_cols, self.state_key))
            .collect::<SqloopResult<Vec<_>>>()?;
        if self.needs_delta {
            let visible: Vec<(String, DataType)> = self
                .state_cols
                .iter()
                .filter(|(n, _)| !n.starts_with("__"))
                .cloned()
                .collect();
            let delta = self.names.delta_snapshot();
            tables.push(dump_table_sql(self.main, &delta, &visible, None)?);
        }
        let snap = LoopSnapshot {
            fingerprint: self.fingerprint,
            mode: self.label.into(),
            round: rounds,
            last_change,
            parts: self
                .parts
                .iter()
                .map(|p| PartSnap {
                    computes: p.computes,
                    msg_seq: p.msg_seq,
                    pending: p.pending,
                    prefer_compute: p.prefer_compute,
                })
                .collect(),
            seeds: (0..self.threads as u64).map(|i| i + 1).collect(),
            tables,
        };
        if let Some(ck) = self.checkpointer.as_mut() {
            let path = ck.save(&snap, self.metrics)?;
            trace_checkpoint(self.trace, rounds, &path);
            self.saved = Some(rounds);
        }
        Ok(carried)
    }

    // -- stopping (DESIGN.md §§11–12) ---------------------------------------

    /// Decides at a round boundary whether the run stops there: its token
    /// is cancelled, `rounds` reached the round cap, or the watchdog has a
    /// verdict — the delta trend, then a NaN/±∞ probe of every loop-state
    /// table, whose engine errors count as verdicts too.
    fn stop_due(&mut self, rounds: u64, changed: u64) -> Option<Stop> {
        if self.cancel.cancelled() {
            return Some(Stop::Cancel);
        }
        if rounds >= self.config.max_rounds {
            return Some(Stop::Abort(SqloopError::BudgetExceeded {
                what: "max_rounds".into(),
                round: rounds,
            }));
        }
        let w = self.watchdog.as_mut()?;
        let mut result = w.check_round(rounds, changed);
        for (table, partition) in &self.state_tables {
            if result.is_err() {
                break;
            }
            let (columns, types) = (&self.schema.columns, &self.schema.types);
            result = w.probe_table(self.main, table, columns, types, *partition, rounds);
        }
        result.err().map(Stop::Abort)
    }

    /// Stops the run at `rounds` completed rounds, short of its termination
    /// condition: lifts the engine memory limit (an exhausted budget could
    /// not even quiesce), traces and counts the stop, then quiesces and
    /// snapshots that round. A cancelled run then returns its partial
    /// result.
    ///
    /// # Errors
    /// An abort's verdict; task errors while quiescing, dump and
    /// checkpoint-write errors.
    fn stop(&mut self, stop: Stop, rounds: u64, last_change: u64) -> SqloopResult<()> {
        self.mem_limit = None;
        let (kind, counter, detail) = match &stop {
            Stop::Cancel => (
                EventKind::Cancel,
                "sqloop.cancelled_runs",
                "cancelled at quiesce point".to_string(),
            ),
            Stop::Abort(verdict) => (
                EventKind::Watchdog,
                "sqloop.governed_aborts",
                format!("governed abort: {verdict}"),
            ),
        };
        self.trace.event(kind, None, Some(rounds), detail);
        self.metrics.counter(counter).inc();
        self.save_quiesced(rounds, last_change)?;
        match stop {
            Stop::Cancel => {
                self.cancelled = true;
                Ok(())
            }
            Stop::Abort(verdict) => Err(verdict),
        }
    }

    /// Routes the error a run ends in: one rooted in the engine's memory
    /// budget stops the run governed and becomes the typed
    /// [`SqloopError::BudgetExceeded`]; anything else passes through.
    fn fail(&mut self, e: SqloopError, rounds: u64, last_change: u64) -> SqloopError {
        let Some(m) = root_budget_exceeded(&e) else {
            return e;
        };
        let verdict = SqloopError::BudgetExceeded {
            what: format!("memory ({m})"),
            round: rounds,
        };
        // a stop that could not quiesce or snapshot reports the trip itself
        match self.stop(Stop::Abort(verdict), rounds, last_change) {
            Err(verdict @ SqloopError::BudgetExceeded { .. }) => verdict,
            _ => e,
        }
    }
}

/// Why a run stops short of its termination condition.
enum Stop {
    /// Its token was cancelled (or its deadline passed): the run returns
    /// its partial result.
    Cancel,
    /// A governed abort — the round cap, a watchdog verdict, the memory
    /// budget: the run fails with the verdict.
    Abort(SqloopError),
}

/// What a step of [`Scheduler::run`] ended at.
enum Boundary {
    /// Still inside the round.
    Within,
    /// The round is over: count it and tick.
    Round,
    /// Cancelled mid-round with nothing in flight: stop without counting
    /// the partial round.
    Cancel,
    /// Nothing in flight and nothing left to run: the loop is done.
    Quiescent,
}

/// The scheduling policy: which task runs next, when a round is over, and
/// when the loop has terminated. [`Scheduler::run`] owns everything else.
enum Policy {
    /// The single-threaded algorithm (paper §III-A): one task per round,
    /// built once at setup, over all of `R` — no partitions, no messages,
    /// no workers. A recursive CTE alternates two tasks between its working
    /// tables.
    Whole {
        /// The rounds' statements: round `r` runs `tasks[(r - 1) % len]`,
        /// stamped with the round at each pick — the absolute round, so a
        /// resumed run picks the task its snapshot left off at.
        tasks: Vec<Task>,
    },
    /// Two phases per round, each ended by a barrier: every partition
    /// computes, then every partition with unread messages gathers.
    Sync {
        /// The current phase's tasks, built when the phase starts.
        queue: VecDeque<Task>,
        /// In the gather phase: the rows the compute phase changed, which
        /// is what a failure reports as the last change.
        gathering: Option<u64>,
    },
    /// Blind round-robin (paper Fig. 3): every round, every partition gets
    /// a Gather (when unread message tables exist) and a Compute — no
    /// barrier between rounds, so tasks of round *i+1* start while
    /// stragglers of round *i* are still running, and Gathers consume
    /// whatever intermediate results already exist. The speedup over Sync
    /// comes purely from that freshness; like the paper's Async, it does
    /// not skip idle partitions — that is AsyncP's job.
    Async {
        /// Partitions that used their Gather slot this round.
        gathered: Vec<bool>,
        /// Partitions that used their Compute slot this round.
        computed: Vec<bool>,
    },
    /// Priority order ([`Scheduler::pick_prio`]); a round is a wave of
    /// `2·partitions` completions.
    AsyncPrio {
        /// Tasks completed in the current wave.
        completions: usize,
        /// Completions per wave.
        per_round: usize,
    },
}

impl Policy {
    fn for_mode(mode: ExecutionMode, partitions: usize) -> SqloopResult<Policy> {
        Ok(match mode {
            ExecutionMode::Sync => Policy::Sync {
                queue: VecDeque::new(),
                gathering: None,
            },
            ExecutionMode::Async => Policy::Async {
                gathered: vec![false; partitions],
                computed: vec![false; partitions],
            },
            ExecutionMode::AsyncPrio => Policy::AsyncPrio {
                completions: 0,
                per_round: (2 * partitions).max(1),
            },
            ExecutionMode::Single => {
                return Err(SqloopError::Config(
                    "single mode runs without a parallel plan".into(),
                ))
            }
        })
    }

    fn begin(&mut self, s: &mut Scheduler) -> SqloopResult<()> {
        if let Policy::AsyncPrio { .. } = self {
            s.init_priorities()?;
        }
        self.next_round(s)
    }

    /// Opens the next round.
    fn next_round(&mut self, s: &mut Scheduler) -> SqloopResult<()> {
        match self {
            Policy::Sync { queue, gathering } => {
                *queue = (0..s.parts.len())
                    .map(|x| s.build_compute(x))
                    .collect::<SqloopResult<_>>()?;
                *gathering = None;
            }
            Policy::Async { gathered, computed } => {
                gathered.fill(false);
                computed.fill(false);
            }
            Policy::AsyncPrio { completions, .. } => *completions = 0,
            Policy::Whole { .. } => {}
        }
        Ok(())
    }

    /// The next task to dispatch, if one can run now.
    ///
    /// Blind Async scans in partition order, so the first partition that
    /// still owes the round a task gets it: a partition whose Gather just
    /// finished is ahead of everything the scan has not reached yet, and
    /// its Compute is the next task picked — the `G;C` pairing of paper
    /// Fig. 3, which is what lets a message produced earlier in a round be
    /// gathered *and* applied later in the same round, however many tasks
    /// are dispatched at once.
    fn next(&mut self, s: &mut Scheduler) -> SqloopResult<Option<Task>> {
        match self {
            Policy::Whole { tasks } => Ok(Some(Task {
                round: s.round,
                ..tasks[((s.round - 1) % tasks.len() as u64) as usize].clone()
            })),
            Policy::Sync { queue, .. } => Ok(queue.pop_front()),
            Policy::Async { gathered, computed } => {
                for x in 0..s.parts.len() {
                    if s.parts[x].in_flight {
                        continue;
                    }
                    if !gathered[x] {
                        gathered[x] = true;
                        if let Some(t) = s.build_gather(x)? {
                            return Ok(Some(t));
                        }
                    }
                    if !computed[x] && s.compute_allowed(x) {
                        computed[x] = true;
                        return s.build_compute(x).map(Some);
                    }
                }
                Ok(None)
            }
            Policy::AsyncPrio { .. } => s.pick_prio(),
        }
    }

    /// After a task completed: Whole's task is its round; AsyncP's wave is
    /// over after `per_round`.
    fn completed(&mut self) -> Boundary {
        match self {
            Policy::Whole { .. } => Boundary::Round,
            Policy::AsyncPrio {
                completions,
                per_round,
            } => {
                *completions += 1;
                if *completions >= *per_round {
                    return Boundary::Round;
                }
                Boundary::Within
            }
            _ => Boundary::Within,
        }
    }

    /// Nothing in flight and nothing dispatched: Sync's phase has reached
    /// its barrier; blind Async's round has used every slot (its scan found
    /// nothing left); AsyncP has nothing left that can contribute; Whole,
    /// which always has its task, was cancelled. A cancelled Sync run still
    /// finishes its round (partially), the other policies stop mid-round.
    fn idle(&mut self, s: &mut Scheduler, tally: u64) -> SqloopResult<Boundary> {
        let cancelled = s.cancel.cancelled();
        Ok(match self {
            Policy::Sync { queue, gathering } => {
                // a cancelled phase drops the tasks it never dispatched
                queue.clear();
                let phase = match gathering {
                    Some(_) => "gather phase",
                    None => "compute phase",
                };
                s.trace
                    .event(EventKind::Barrier, None, Some(s.round), phase);
                if gathering.is_some() {
                    return Ok(Boundary::Round);
                }
                *gathering = Some(tally);
                for x in 0..s.parts.len() {
                    if let Some(t) = s.build_gather(x)? {
                        queue.push_back(t);
                    }
                }
                Boundary::Within
            }
            _ if cancelled => Boundary::Cancel,
            Policy::Async { .. } => Boundary::Round,
            Policy::AsyncPrio { .. } | Policy::Whole { .. } => Boundary::Quiescent,
        })
    }

    /// Checks the termination condition at a counted round boundary.
    fn terminated(&self, s: &mut Scheduler, rounds: u64, tally: u64) -> SqloopResult<bool> {
        let tc = s.tc;
        Ok(match (self, tc) {
            // a cancelled round ran partially — its (under-counted) change
            // tally must not drive a termination decision
            (Policy::Sync { .. }, _) => !s.cancel.cancelled() && s.tc_check(rounds, tally)?,
            (Policy::Whole { .. }, _)
            | (_, Termination::Data { .. } | Termination::Delta { .. }) => {
                s.tc_check(rounds, tally)?
            }
            // capped partitions can hold pending deltas forever, so blind
            // Iterations completes once caps are hit and messages are
            // drained; AsyncP runs until nothing can contribute
            (Policy::Async { .. }, Termination::Iterations(n)) => {
                s.parts.iter().all(|p| p.computes >= *n)
                    && (0..s.parts.len()).all(|x| s.unread_count(x) == 0)
            }
            (Policy::AsyncPrio { .. }, Termination::Iterations(_)) => false,
            (Policy::Async { .. }, Termination::Updates(n)) => tally <= *n,
            (Policy::AsyncPrio { .. }, Termination::Updates(n)) => {
                tally <= *n
                    && (0..s.parts.len()).all(|x| {
                        let p = &s.parts[x];
                        !p.in_flight && !p.pending && s.unread_count(x) == 0
                    })
            }
        })
    }

    /// Rows changed so far that a failure reports as the last change.
    fn committed(&self, tally: u64) -> u64 {
        match self {
            Policy::Sync { gathering, .. } => gathering.unwrap_or(0),
            _ => tally,
        }
    }

    /// Reported iteration count: Whole's and Sync's rounds; for the Async
    /// policies, per-partition compute rounds when the condition is
    /// `ITERATIONS n`, otherwise scheduler rounds.
    fn reported(&self, s: &Scheduler, rounds: u64) -> u64 {
        match (self, s.tc) {
            (Policy::Async { .. } | Policy::AsyncPrio { .. }, Termination::Iterations(_)) => {
                s.parts.iter().map(|p| p.computes).max().unwrap_or(0)
            }
            _ => rounds,
        }
    }
}

/// The partitioned layout's SQL, which only partition tasks are built from.
fn partitioned<'g>(gen: &'g mut Option<&mut SqlGen>) -> SqloopResult<&'g mut SqlGen> {
    gen.as_deref_mut()
        .ok_or_else(|| SqloopError::Worker("Whole has no partition tasks".into()))
}

/// Walks a (possibly [`SqloopError::Task`]-wrapped) error chain looking for
/// the engine's memory-budget refusal; returns its message when found so the
/// scheduler can convert the failure into a governed abort.
fn root_budget_exceeded(e: &SqloopError) -> Option<String> {
    match e {
        SqloopError::Db(DbError::BudgetExceeded(m)) => Some(m.clone()),
        SqloopError::Task { source, .. } => root_budget_exceeded(source),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{parse, SqloopQuery};
    use crate::SQLoop;
    use dbcp::LocalDriver;
    use sqldb::{Database, EngineProfile};

    fn driver_with_edges(profile: EngineProfile) -> Arc<dyn Driver> {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        // a small strongly-connected graph
        s.execute(
            "INSERT INTO edges VALUES \
             (1,2,0.5),(1,3,0.5),(2,3,1.0),(3,1,1.0),(4,1,1.0),(2,4,0.0)",
        )
        .ok();
        Arc::new(LocalDriver::new(db))
    }

    fn iterative(sql: &str) -> IterativeCte {
        match parse(sql).unwrap() {
            SqloopQuery::Iterative(c) => c,
            other => panic!("expected iterative: {other:?}"),
        }
    }

    fn run_iterative_single(
        driver: &Arc<dyn Driver>,
        cte: &IterativeCte,
        max_rounds: u64,
        keep_artifacts: bool,
    ) -> SqloopResult<RunOutcome> {
        let config = SqloopConfig {
            mode: ExecutionMode::Single,
            max_rounds,
            keep_artifacts,
            ..SqloopConfig::default()
        };
        let trace = TraceHandle::disabled();
        let metrics = Arc::default();
        run_iterative(driver, cte, Layout::Whole, &config, &trace, &metrics)
            .0
            .map(|run| run.outcome)
    }

    #[test]
    fn fibonacci_example_1() {
        // the paper's Example 1: sum of Fibonacci numbers below 1000
        let driver = driver_with_edges(EngineProfile::Postgres);
        let out = SQLoop::new(driver.clone())
            .execute(
                "WITH RECURSIVE Fibonacci(n, pn) AS (\
                 VALUES (0, 1) UNION ALL \
                 SELECT n + pn, n FROM Fibonacci WHERE n < 1000) \
                 SELECT SUM(n) FROM Fibonacci",
            )
            .unwrap();
        // 0,1,1,2,3,5,…,987 → sum = 2583 (includes the final 1597 > 1000? no:
        // rows are produced while n < 1000 recursion guard holds; the last
        // appended row is 1597 (from n=987), giving 0+1+1+2+…+987+1597 = 4180
        assert_eq!(out.rows[0][0], Value::Int(4180));
        // scratch tables dropped
        let mut c = driver.connect().unwrap();
        assert!(c.query("SELECT * FROM fibonacci").is_err());
    }

    #[test]
    fn recursive_union_set_semantics_terminates_on_cycle() {
        // reachability over a cyclic graph only terminates under UNION (set)
        let out = SQLoop::new(driver_with_edges(EngineProfile::Postgres))
            .execute(
                "WITH RECURSIVE reach(node) AS (\
                 SELECT 1 UNION \
                 SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) \
                 SELECT COUNT(*) FROM reach",
            )
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(4));
    }

    #[test]
    fn recursive_union_matches_a_wildcard_step_by_its_own_column_names() {
        // the step's output is named `m`, not after R's column `node`
        let out = SQLoop::new(driver_with_edges(EngineProfile::MySql))
            .execute(
                "WITH RECURSIVE reach(node) AS (SELECT 1 UNION \
                 SELECT * FROM (SELECT edges.dst AS m FROM reach \
                 JOIN edges ON reach.node = edges.src) AS x) \
                 SELECT COUNT(*) FROM reach",
            )
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(4));
    }

    #[test]
    fn iterative_pagerank_converges() {
        let pr = iterative(
            "WITH ITERATIVE PageRank(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src \
             ITERATE \
             SELECT PageRank.Node, \
             COALESCE(PageRank.Rank + PageRank.Delta, 0.15), \
             COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0) \
             FROM PageRank \
             LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst \
             LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src \
             GROUP BY PageRank.Node \
             UNTIL 50 ITERATIONS) \
             SELECT Node, Rank FROM PageRank ORDER BY Node",
        );
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
        assert_eq!(out.iterations, 50);
        assert_eq!(out.result.rows.len(), 4);
        // total rank approaches n * 0.15 / (1 - 0.85) = 4 (for a closed graph
        // with no dangling mass the delta-PR total converges to n)
        let total: f64 = out.result.rows.iter().map(|r| r[1].as_f64().unwrap()).sum();
        assert!(total > 3.0 && total < 4.2, "total rank {total}");
    }

    #[test]
    fn iterative_sssp_until_0_updates() {
        let sssp = iterative(
            "WITH ITERATIVE sssp (Node, Distance, Delta) AS (\
             SELECT src, Infinity, CASE WHEN src = 1 THEN 0 ELSE Infinity END \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src \
             ITERATE \
             SELECT sssp.Node, \
             LEAST(sssp.Distance, sssp.Delta), \
             COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
             FROM sssp \
             LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
             LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
             WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance \
             GROUP BY sssp.node \
             UNTIL 0 UPDATES) \
             SELECT sssp.Node, sssp.Distance FROM sssp ORDER BY sssp.Node",
        );
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &sssp, 1000, false).unwrap();
        // shortest distances from node 1: 1→2 = 0.5, 1→3 = 0.5, 1→4 = 0.5
        let rows = &out.result.rows;
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(0.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(0.5)]);
        assert_eq!(rows[2], vec![Value::Int(3), Value::Float(0.5)]);
        assert_eq!(rows[3], vec![Value::Int(4), Value::Float(0.5)]);
    }

    #[test]
    fn sssp_runs_on_every_engine_profile() {
        for profile in EngineProfile::ALL {
            let sssp = iterative(
                "WITH ITERATIVE sssp (Node, Distance, Delta) AS (\
                 SELECT src, Infinity, CASE WHEN src = 1 THEN 0 ELSE Infinity END \
                 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
                 ITERATE \
                 SELECT sssp.Node, LEAST(sssp.Distance, sssp.Delta), \
                 COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
                 FROM sssp \
                 LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
                 LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
                 WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance \
                 GROUP BY sssp.node UNTIL 0 UPDATES) \
                 SELECT sssp.Distance FROM sssp WHERE sssp.Node = 3",
            );
            let c = driver_with_edges(profile);
            let out = run_iterative_single(&c, &sssp, 1000, false)
                .unwrap_or_else(|e| panic!("{profile}: {e}"));
            assert_eq!(out.result.rows[0][0], Value::Float(0.5), "{profile}");
        }
    }

    #[test]
    fn delta_termination_condition() {
        // stop once total rank moves less than 0.001 between iterations
        let pr = iterative(
            "WITH ITERATIVE pr(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15), \
             COALESCE(0.85 * SUM(irank.Delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.Node = ie.dst \
             LEFT JOIN pr AS irank ON irank.Node = ie.src \
             GROUP BY pr.Node \
             UNTIL DELTA SELECT SUM(pr.Rank) - SUM(prdelta.Rank) FROM pr, prdelta < 0.001) \
             SELECT SUM(Rank) FROM pr",
        );
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
        assert!(out.iterations > 5, "should take several iterations");
        assert!(out.iterations < 200);
    }

    #[test]
    fn data_any_termination() {
        // stop as soon as any node's rank exceeds 0.5
        let pr = iterative(
            "WITH ITERATIVE pr(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15), \
             COALESCE(0.85 * SUM(irank.Delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.Node = ie.dst \
             LEFT JOIN pr AS irank ON irank.Node = ie.src \
             GROUP BY pr.Node \
             UNTIL ANY SELECT Node FROM pr WHERE Rank > 0.5) \
             SELECT COUNT(*) FROM pr WHERE Rank > 0.5",
        );
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
        assert!(out.result.rows[0][0].as_i64().unwrap() >= 1);
    }

    #[test]
    fn runaway_iteration_capped() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v) AS (\
             SELECT src, 0.0 FROM edges GROUP BY src \
             ITERATE SELECT r.id, MAX(r.v) + 1.0 FROM r GROUP BY r.id \
             UNTIL ANY SELECT id FROM r WHERE v < 0) \
             SELECT * FROM r",
        );
        let c = driver_with_edges(EngineProfile::Postgres);
        let err = run_iterative_single(&c, &cte, 25, false);
        assert!(
            matches!(&err, Err(SqloopError::BudgetExceeded { what, .. }) if what == "max_rounds"),
            "{err:?}"
        );
    }
}
