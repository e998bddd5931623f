//! Durable checkpoint/resume for iterative runs (DESIGN.md §11).
//!
//! A checkpoint is a [`LoopSnapshot`]: the loop's partition (or CTE) tables
//! as [`TableDump`]s plus the scheduler state needed to continue — round
//! counter, per-partition compute counts and message-sequence watermarks,
//! worker jitter seeds — bound to a **fingerprint** of the query, execution
//! mode and partition count so a checkpoint can never silently resume a
//! *different* run.
//!
//! Crash consistency comes from four properties (see DESIGN.md §15 for the
//! crash-point analysis):
//!
//! 1. every snapshot file ends in an FNV-64 checksum over its full content,
//!    so truncation or corruption is detected, never misread;
//! 2. snapshot and manifest writes go to a `.tmp` sibling first and are
//!    moved into place with an atomic rename, with full fsync discipline —
//!    file contents *and* the parent directory after every rename — so a
//!    power cut can neither tear a published file nor lose the rename;
//! 3. the manifest (`MANIFEST.json`) names the latest complete snapshot and
//!    is only written *after* that snapshot is durable; rotated snapshots
//!    are deleted only *after* the manifest durably stops naming them;
//! 4. recovery ([`load_latest_recover_with`]) never trusts a single file: a
//!    corrupt snapshot is quarantined to `<name>.corrupt` and resume falls
//!    back through older manifest generations — and, when the manifest
//!    itself is unreadable or names only missing files, through
//!    orphaned-but-valid `*.sqloop` files found by directory scan.
//!
//! All file I/O is routed through the [`CkptIo`] VFS so the identical
//! sequence runs against the real filesystem or the
//! [`TornFs`](crate::ckpt_io::TornFs) storage
//! fault injector (`ckpt_io.rs`); the crash-matrix harness in
//! `tests/tests/crash_matrix.rs` enumerates every crash point of the
//! write → manifest → rotate sequence in all four execution modes.
//!
//! Checkpoints are only taken at **quiesce points** (no task in flight, no
//! unread message table), which is why the snapshot does not need message
//! tables or partial-task state — the partition tables alone are the loop
//! state. See `parallel.rs` for how each scheduler reaches that point.

use crate::ckpt_io::{CkptIo, RealFs};
use crate::common::{insert_rows, run};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::IterativeCte;
use dbcp::Connection;
use obs::{Counter, EventKind, MetricsRegistry};
use sqldb::snapshot::TableDump;
use sqldb::{Column, DataType, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where and how often to checkpoint (see [`crate::SqloopConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the snapshot files and `MANIFEST.json`
    /// (created on first write).
    pub dir: PathBuf,
    /// Checkpoint every `interval` completed rounds (≥ 1).
    pub interval: u64,
    /// Snapshots retained after rotation (≥ 1).
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` every round, keeping the last two snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            interval: 1,
            keep_last: 2,
        }
    }

    /// Builder: checkpoint every `interval` rounds.
    pub fn every(mut self, interval: u64) -> CheckpointConfig {
        self.interval = interval;
        self
    }
}

/// Per-partition scheduler state carried through a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartSnap {
    /// Compute tasks this partition has completed (drives `ITERATIONS`
    /// caps).
    pub computes: u64,
    /// Next message-table sequence number (watermark), so a resumed run
    /// never reuses a message-table name from before the crash.
    pub msg_seq: u64,
    /// The partition held an unconsumed delta at checkpoint time.
    pub pending: bool,
    /// Strict G→C alternation state (see `parallel.rs`).
    pub prefer_compute: bool,
}

/// Everything needed to continue an interrupted iterative run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSnapshot {
    /// [`run_fingerprint`] of the query/mode/partitions that wrote this.
    pub fingerprint: u64,
    /// Execution-mode label ("Single", "Sync", "Async", "AsyncP").
    pub mode: String,
    /// Completed rounds/iterations at the time of the snapshot.
    pub round: u64,
    /// Rows changed by the last completed round.
    pub last_change: u64,
    /// Per-partition scheduler state (one entry per partition; a single-
    /// threaded run has none).
    pub parts: Vec<PartSnap>,
    /// The workers' retry-jitter seeds, `1..=threads`: a record only, as
    /// nothing reads them on resume — a resumed run seeds its workers the
    /// same way.
    pub seeds: Vec<u64>,
    /// The loop's tables: partition tables (parallel) or the CTE table plus
    /// optional delta snapshot (single-threaded).
    pub tables: Vec<TableDump>,
}

const SNAPSHOT_HEADER: &str = "sqloop-checkpoint v1";
const MANIFEST_NAME: &str = "MANIFEST.json";

/// Binds a checkpoint to the run that wrote it: FNV-64 over the parsed
/// query, the execution-mode label, and the partition count. A resume with
/// a different query, mode, or partitioning is a typed error, not a wrong
/// answer.
pub fn run_fingerprint(cte: &IterativeCte, mode_label: &str, partitions: usize) -> u64 {
    fnv64(format!("{cte:?}|{mode_label}|{partitions}").as_bytes())
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn ckpt_err(what: impl Into<String>) -> SqloopError {
    SqloopError::Checkpoint(what.into())
}

impl LoopSnapshot {
    /// Serializes the snapshot: a line-oriented header, length-prefixed
    /// [`TableDump`] blobs, and a trailing FNV-64 checksum line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "mode {}", self.mode);
        let _ = writeln!(out, "round {}", self.round);
        let _ = writeln!(out, "last_change {}", self.last_change);
        let _ = writeln!(out, "parts {}", self.parts.len());
        for p in &self.parts {
            let _ = writeln!(
                out,
                "part {} {} {} {}",
                p.computes,
                p.msg_seq,
                u8::from(p.pending),
                u8::from(p.prefer_compute)
            );
        }
        let seeds = self
            .seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "seeds {}{}{}",
            self.seeds.len(),
            if self.seeds.is_empty() { "" } else { " " },
            seeds
        );
        let _ = writeln!(out, "tables {}", self.tables.len());
        for t in &self.tables {
            let blob = t.encode();
            let _ = writeln!(out, "table {}", blob.len());
            out.push_str(&blob);
        }
        let _ = writeln!(out, "checksum {:016x}", fnv64(out.as_bytes()));
        out
    }

    /// Parses and checksum-verifies a snapshot produced by
    /// [`LoopSnapshot::encode`].
    ///
    /// # Errors
    /// [`SqloopError::Checkpoint`] on any header, framing, or checksum
    /// problem — a torn or corrupted snapshot never decodes.
    pub fn decode(text: &str) -> SqloopResult<LoopSnapshot> {
        let body_end = text
            .rfind("checksum ")
            .ok_or_else(|| ckpt_err("snapshot has no checksum line"))?;
        let (body, tail) = text.split_at(body_end);
        let declared = tail
            .strip_prefix("checksum ")
            .and_then(|t| u64::from_str_radix(t.trim_end_matches('\n'), 16).ok())
            .ok_or_else(|| ckpt_err("snapshot has a malformed checksum line"))?;
        let actual = fnv64(body.as_bytes());
        if declared != actual {
            return Err(ckpt_err(format!(
                "snapshot checksum mismatch (file says {declared:016x}, content hashes to {actual:016x}) — \
                 the file is truncated or corrupted"
            )));
        }

        fn next_line<'a>(rest: &mut &'a str) -> SqloopResult<&'a str> {
            let nl = rest
                .find('\n')
                .ok_or_else(|| ckpt_err("snapshot truncated"))?;
            let (line, r) = rest.split_at(nl);
            *rest = &r[1..];
            Ok(line)
        }
        let mut rest = body;
        if next_line(&mut rest)? != SNAPSHOT_HEADER {
            return Err(ckpt_err("unsupported snapshot header"));
        }
        let field = |line: &str, key: &str| -> SqloopResult<String> {
            line.strip_prefix(key)
                .and_then(|l| l.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| ckpt_err(format!("snapshot missing `{key}` field")))
        };
        let fingerprint = u64::from_str_radix(&field(next_line(&mut rest)?, "fingerprint")?, 16)
            .map_err(|_| ckpt_err("bad fingerprint"))?;
        let mode = field(next_line(&mut rest)?, "mode")?;
        let round = field(next_line(&mut rest)?, "round")?
            .parse::<u64>()
            .map_err(|_| ckpt_err("bad round"))?;
        let last_change = field(next_line(&mut rest)?, "last_change")?
            .parse::<u64>()
            .map_err(|_| ckpt_err("bad last_change"))?;
        let n_parts = field(next_line(&mut rest)?, "parts")?
            .parse::<usize>()
            .map_err(|_| ckpt_err("bad parts count"))?;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let line = field(next_line(&mut rest)?, "part")?;
            let mut it = line.split(' ');
            let mut num = || -> SqloopResult<u64> {
                it.next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| ckpt_err("bad part line"))
            };
            parts.push(PartSnap {
                computes: num()?,
                msg_seq: num()?,
                pending: num()? != 0,
                prefer_compute: num()? != 0,
            });
        }
        let seeds_line = field(next_line(&mut rest)?, "seeds")?;
        let mut seed_it = seeds_line.split(' ');
        let n_seeds = seed_it
            .next()
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ckpt_err("bad seeds line"))?;
        let seeds: Vec<u64> = seed_it
            .map(|v| v.parse::<u64>().map_err(|_| ckpt_err("bad seed value")))
            .collect::<SqloopResult<_>>()?;
        if seeds.len() != n_seeds {
            return Err(ckpt_err("seed count mismatch"));
        }
        let n_tables = field(next_line(&mut rest)?, "tables")?
            .parse::<usize>()
            .map_err(|_| ckpt_err("bad tables count"))?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let len = field(next_line(&mut rest)?, "table")?
                .parse::<usize>()
                .map_err(|_| ckpt_err("bad table length"))?;
            if rest.len() < len {
                return Err(ckpt_err("snapshot truncated inside a table dump"));
            }
            let (blob, r) = rest.split_at(len);
            rest = r;
            tables.push(
                TableDump::decode(blob)
                    .map_err(|e| ckpt_err(format!("embedded table dump: {e}")))?,
            );
        }
        if !rest.is_empty() {
            return Err(ckpt_err("trailing data in snapshot"));
        }
        Ok(LoopSnapshot {
            fingerprint,
            mode,
            round,
            last_change,
            parts,
            seeds,
            tables,
        })
    }
}

/// Writes rotating, manifest-tracked snapshots into one directory.
#[derive(Debug)]
pub struct Checkpointer {
    config: CheckpointConfig,
    io: Arc<dyn CkptIo>,
    /// File names of complete snapshots, oldest first.
    history: Vec<String>,
    /// Path of the most recently written snapshot.
    last_path: Option<PathBuf>,
}

impl Checkpointer {
    /// Prepares the checkpoint directory (creating it if needed) and loads
    /// any existing manifest history so rotation spans process restarts.
    ///
    /// # Errors
    /// [`SqloopError::Checkpoint`] when the directory cannot be created.
    pub fn new(config: CheckpointConfig) -> SqloopResult<Checkpointer> {
        Checkpointer::with_io(config, Arc::new(RealFs))
    }

    /// As [`Checkpointer::new`], routing all file I/O through `io` — the
    /// real filesystem in production, [`crate::TornFs`] under fault
    /// injection.
    ///
    /// # Errors
    /// [`SqloopError::Checkpoint`] when the directory cannot be created.
    pub fn with_io(config: CheckpointConfig, io: Arc<dyn CkptIo>) -> SqloopResult<Checkpointer> {
        io.create_dir_all(&config.dir).map_err(|e| {
            ckpt_err(format!(
                "cannot create checkpoint dir {}: {e}",
                config.dir.display()
            ))
        })?;
        let history = match read_manifest(&*io, &config.dir.join(MANIFEST_NAME)) {
            Ok(m) => m.history,
            Err(_) => Vec::new(),
        };
        Ok(Checkpointer {
            config,
            io,
            history,
            last_path: None,
        })
    }

    /// True when `completed_rounds` is a checkpoint boundary.
    pub fn due(&self, completed_rounds: u64) -> bool {
        completed_rounds > 0 && completed_rounds.is_multiple_of(self.config.interval.max(1))
    }

    /// The most recently written snapshot path, if any.
    pub fn last_path(&self) -> Option<&Path> {
        self.last_path.as_deref()
    }

    /// Durably writes `snap`: snapshot file first (tmp + fsync + rename +
    /// dir fsync), then the manifest pointing at it (same discipline), then
    /// rotation of snapshots beyond `keep_last` — deletion strictly *after*
    /// the manifest durably stops naming the dropped generations, so no
    /// crash point can leave the manifest pointing only at deleted files.
    /// Returns the snapshot path. The write is counted in the run's
    /// `metrics` (`sqloop.checkpoint.*`, `sqloop.ckpt.fsyncs`).
    ///
    /// # Errors
    /// [`SqloopError::Checkpoint`] on any I/O failure.
    pub fn save(
        &mut self,
        snap: &LoopSnapshot,
        metrics: &MetricsRegistry,
    ) -> SqloopResult<PathBuf> {
        let started = Instant::now();
        let fsyncs = metrics.counter("sqloop.ckpt.fsyncs");
        let file_name = format!("ckpt_r{:08}.sqloop", snap.round);
        let path = self.config.dir.join(&file_name);
        let encoded = snap.encode();
        let bytes = encoded.len() as u64;
        write_atomic(&*self.io, &path, &encoded, &fsyncs)?;
        if self.history.last().map(String::as_str) != Some(file_name.as_str()) {
            self.history.retain(|h| h != &file_name);
            self.history.push(file_name.clone());
        }
        let mut dropped = Vec::new();
        while self.history.len() > self.config.keep_last.max(1) {
            dropped.push(self.history.remove(0));
        }
        let manifest = render_manifest(snap, &file_name, &self.history);
        write_atomic(
            &*self.io,
            &self.config.dir.join(MANIFEST_NAME),
            &manifest,
            &fsyncs,
        )?;
        for old in dropped {
            // best-effort: a crash between the manifest write and this
            // delete merely leaves an orphaned (still valid) snapshot
            let _ = self.io.remove_file(&self.config.dir.join(old));
        }
        metrics.counter("sqloop.checkpoint.writes").inc();
        metrics.counter("sqloop.checkpoint.bytes").add(bytes);
        metrics
            .histogram("sqloop.checkpoint.write_latency")
            .observe(started.elapsed());
        self.last_path = Some(path.clone());
        Ok(path)
    }
}

/// Tmp + rename with full fsync discipline: the payload is synced before
/// the rename and the parent directory after it, so a power cut can never
/// publish a torn file or un-publish a completed rename. Each completed
/// sync is counted in `fsyncs`.
fn write_atomic(io: &dyn CkptIo, path: &Path, text: &str, fsyncs: &Counter) -> SqloopResult<()> {
    let tmp = path.with_extension("tmp");
    let err = |e: std::io::Error| ckpt_err(format!("writing {}: {e}", path.display()));
    io.write_file(&tmp, text.as_bytes()).map_err(err)?;
    io.sync_file(&tmp).map_err(err)?;
    fsyncs.inc();
    io.rename(&tmp, path).map_err(err)?;
    io.sync_dir(path.parent().unwrap_or(Path::new(".")))
        .map_err(err)?;
    fsyncs.inc();
    Ok(())
}

fn render_manifest(snap: &LoopSnapshot, latest: &str, history: &[String]) -> String {
    let hist = history
        .iter()
        .map(|h| format!("\"{}\"", obs::json::escape(h)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"version\": 1, \"latest\": \"{}\", \"round\": {}, \"mode\": \"{}\", \
         \"fingerprint\": \"{:016x}\", \"history\": [{}]}}\n",
        obs::json::escape(latest),
        snap.round,
        obs::json::escape(&snap.mode),
        snap.fingerprint,
        hist
    )
}

struct Manifest {
    latest: String,
    history: Vec<String>,
}

fn read_manifest(io: &dyn CkptIo, path: &Path) -> SqloopResult<Manifest> {
    let text = io
        .read_to_string(path)
        .map_err(|e| ckpt_err(format!("cannot read manifest {}: {e}", path.display())))?;
    let doc = obs::json::parse(&text).map_err(|e| {
        ckpt_err(format!(
            "manifest {} is not valid JSON: {e}",
            path.display()
        ))
    })?;
    let latest = doc
        .get("latest")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ckpt_err("manifest has no `latest` entry"))?
        .to_owned();
    let history = doc
        .get("history")
        .and_then(|v| v.as_array())
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    Ok(Manifest { latest, history })
}

/// A snapshot recovered by [`load_latest_recover_with`], with the story of
/// how it was found.
#[derive(Debug, Clone)]
pub struct RecoveredSnapshot {
    /// The loaded (checksum-verified) snapshot.
    pub snapshot: LoopSnapshot,
    /// Newer candidates that had to be skipped (corrupt or missing) before
    /// this one loaded; `0` on a clean first-try load.
    pub fallbacks: u64,
    /// Corrupt snapshot files moved aside to `<name>.corrupt` (a resume
    /// counts them in `sqloop.ckpt.corrupt_detected`).
    pub quarantined: Vec<PathBuf>,
    /// Human-readable recovery note (`None` when the load was clean) —
    /// surfaced on [`crate::ExecutionReport::recovery_note`].
    pub note: Option<String>,
}

/// Loads the most recent snapshot reachable from `path`, which may be a
/// checkpoint directory, a `MANIFEST.json`, or a snapshot file directly.
///
/// Convenience wrapper over [`load_latest_recover_with`] on the real
/// filesystem that discards the recovery details.
///
/// # Errors
/// [`SqloopError::Checkpoint`] when nothing loadable (and checksum-valid)
/// is found.
pub fn load_latest(path: &Path) -> SqloopResult<LoopSnapshot> {
    load_latest_recover_with(&RealFs, path).map(|r| r.snapshot)
}

/// [`load_latest`] over `io` (fault-injection harnesses pass
/// [`crate::TornFs`]), with corruption fallback: a corrupt newest snapshot is
/// quarantined to `<name>.corrupt` and the load falls back through older
/// manifest generations; when the manifest itself is torn, unreadable, or
/// names only missing files, orphaned `*.sqloop` files found by directory
/// scan are tried newest-first. It counts nothing: the resuming run books
/// what the returned [`RecoveredSnapshot`] says.
///
/// # Errors
/// [`SqloopError::Checkpoint`] when no candidate loads — never a wrong
/// answer: every returned snapshot passed its checksum.
pub fn load_latest_recover_with(io: &dyn CkptIo, path: &Path) -> SqloopResult<RecoveredSnapshot> {
    let is_manifest = path.file_name().and_then(|n| n.to_str()) == Some(MANIFEST_NAME);
    if !path.is_dir() && !is_manifest {
        // explicit snapshot file: load exactly that file, no fallback and
        // no quarantine — the caller named one precise artifact
        let text = io
            .read_to_string(path)
            .map_err(|e| ckpt_err(format!("cannot read snapshot {}: {e}", path.display())))?;
        let snap = LoopSnapshot::decode(&text)?;
        return Ok(RecoveredSnapshot {
            snapshot: snap,
            fallbacks: 0,
            quarantined: Vec::new(),
            note: None,
        });
    }
    let dir = if is_manifest {
        path.parent().unwrap_or(Path::new(".")).to_path_buf()
    } else {
        path.to_path_buf()
    };

    // candidate order: manifest `latest`, then older manifest generations
    // (newest first), then orphaned snapshot files from a directory scan
    // (newest first — zero-padded round numbers sort lexically)
    let mut trouble: Vec<String> = Vec::new();
    let mut candidates: Vec<String> = Vec::new();
    match read_manifest(io, &dir.join(MANIFEST_NAME)) {
        Ok(m) => {
            candidates.push(m.latest.clone());
            for h in m.history.iter().rev() {
                if !candidates.contains(h) {
                    candidates.push(h.clone());
                }
            }
        }
        Err(e) => trouble.push(format!("manifest unusable ({e})")),
    }
    if let Ok(names) = io.list_dir(&dir) {
        let mut orphans: Vec<String> = names
            .into_iter()
            .filter(|n| n.ends_with(".sqloop"))
            .collect();
        orphans.sort_by(|a, b| b.cmp(a));
        for o in orphans {
            if !candidates.contains(&o) {
                candidates.push(o);
            }
        }
    }
    if candidates.is_empty() {
        return Err(ckpt_err(format!(
            "no snapshot candidates in {}: {}",
            dir.display(),
            trouble.join("; ")
        )));
    }

    let mut fallbacks = 0u64;
    let mut quarantined = Vec::new();
    for name in &candidates {
        let snap_path = dir.join(name);
        let text = match io.read_to_string(&snap_path) {
            Ok(t) => t,
            Err(e) => {
                trouble.push(format!("{name}: unreadable ({e})"));
                fallbacks += 1;
                continue;
            }
        };
        match LoopSnapshot::decode(&text) {
            Ok(snapshot) => {
                let note = if fallbacks > 0 || !trouble.is_empty() {
                    Some(format!(
                        "recovered from {name} (round {}) after: {}",
                        snapshot.round,
                        trouble.join("; ")
                    ))
                } else {
                    None
                };
                return Ok(RecoveredSnapshot {
                    snapshot,
                    fallbacks,
                    quarantined,
                    note,
                });
            }
            Err(e) => {
                fallbacks += 1;
                // move the bad file aside so the next save cannot collide
                // with it and operators can inspect (or salvage) it later
                let bad = dir.join(format!("{name}.corrupt"));
                match io.rename(&snap_path, &bad) {
                    Ok(()) => {
                        trouble.push(format!("{name}: corrupt, quarantined ({e})"));
                        quarantined.push(bad);
                    }
                    Err(_) => trouble.push(format!("{name}: corrupt ({e})")),
                }
            }
        }
    }
    Err(ckpt_err(format!(
        "no loadable snapshot in {} — tried {} candidate(s): {}",
        dir.display(),
        candidates.len(),
        trouble.join("; ")
    )))
}

/// Verifies a loaded snapshot against the resuming run's identity.
///
/// # Errors
/// [`SqloopError::Checkpoint`] naming both fingerprints on mismatch.
pub fn check_fingerprint(snap: &LoopSnapshot, expected: u64, mode_label: &str) -> SqloopResult<()> {
    if snap.fingerprint != expected {
        return Err(ckpt_err(format!(
            "checkpoint fingerprint {:016x} (mode {}) does not match this run's {expected:016x} \
             (mode {mode_label}) — the query, execution mode, or partition count changed",
            snap.fingerprint, snap.mode
        )));
    }
    Ok(())
}

// -- table dump/restore over a driver connection ---------------------------

/// Exports `table` through `conn` as a [`TableDump`], typed by `columns`
/// (name/type pairs in table order).
///
/// # Errors
/// Engine errors from the scan query.
pub fn dump_table_sql(
    conn: &mut dyn Connection,
    table: &str,
    columns: &[(String, DataType)],
    primary_key: Option<usize>,
) -> SqloopResult<TableDump> {
    let col_list = columns
        .iter()
        .map(|(n, _)| n.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    let rows = crate::common::run_query(conn, &format!("SELECT {col_list} FROM {table}"))?.rows;
    Ok(TableDump {
        name: table.to_owned(),
        columns: columns
            .iter()
            .map(|(n, t)| Column::new(n.clone(), *t))
            .collect(),
        primary_key,
        rows,
    })
}

/// Recreates a dumped table through `conn`: `DROP` + `CREATE`, then the
/// rows as typed parameters of prepared `INSERT`s of `batch_rows` rows
/// ([`insert_rows`]).
///
/// # Errors
/// Engine errors, or [`SqloopError::Checkpoint`] for NaN floats — NaN has
/// no SQL literal, so a snapshot holding one cannot be restored through a
/// connection that splices literals (the in-process
/// [`sqldb::Database::import_table`] path can).
pub fn restore_table_sql(
    conn: &mut dyn Connection,
    dump: &TableDump,
    batch_rows: usize,
) -> SqloopResult<()> {
    let name = &dump.name;
    let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
    if dump.rows.iter().flatten().any(nan) {
        return Err(ckpt_err(format!(
            "table {name} holds a NaN, which has no SQL literal to restore through"
        )));
    }
    run(conn, &format!("DROP TABLE IF EXISTS {name}"))?;
    run(conn, &format!("DROP VIEW IF EXISTS {name}"))?;
    let cols = dump
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let pk = if dump.primary_key == Some(i) {
                " PRIMARY KEY"
            } else {
                ""
            };
            format!("{} {}{pk}", c.name, c.data_type)
        })
        .collect::<Vec<_>>()
        .join(", ");
    run(conn, &format!("CREATE TABLE {name} ({cols})"))?;
    let names: Vec<&str> = dump.columns.iter().map(|c| c.name.as_str()).collect();
    insert_rows(conn, name, &names, &dump.rows, batch_rows)
}

/// Records a checkpoint event into `trace` (helper shared by the
/// executors).
pub(crate) fn trace_checkpoint(trace: &obs::TraceHandle, round: u64, path: &Path) {
    trace.event(
        EventKind::Checkpoint,
        None,
        Some(round),
        format!("wrote {}", path.display()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::Row;

    fn sample_snapshot() -> LoopSnapshot {
        LoopSnapshot {
            fingerprint: 0xdead_beef_0123_4567,
            mode: "Async".into(),
            round: 7,
            last_change: 42,
            parts: vec![
                PartSnap {
                    computes: 7,
                    msg_seq: 9,
                    pending: true,
                    prefer_compute: false,
                },
                PartSnap {
                    computes: 6,
                    msg_seq: 8,
                    pending: false,
                    prefer_compute: true,
                },
            ],
            seeds: vec![1, 2, 3],
            tables: vec![TableDump {
                name: "pr__pt0".into(),
                columns: vec![
                    Column::new("node", DataType::Int),
                    Column::new("rank", DataType::Float),
                ],
                primary_key: Some(0),
                rows: vec![
                    vec![Value::Int(1), Value::Float(0.15)] as Row,
                    vec![Value::Int(2), Value::Float(f64::INFINITY)],
                ],
            }],
        }
    }

    #[test]
    fn snapshot_encode_decode_round_trip() {
        let s = sample_snapshot();
        assert_eq!(LoopSnapshot::decode(&s.encode()).unwrap(), s);
        // empty variant too
        let empty = LoopSnapshot {
            parts: Vec::new(),
            seeds: Vec::new(),
            tables: Vec::new(),
            ..s
        };
        assert_eq!(LoopSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample_snapshot().encode();
        // flip a digit in the body
        let corrupted = text.replacen("round 7", "round 8", 1);
        let err = LoopSnapshot::decode(&corrupted).unwrap_err();
        assert!(matches!(err, SqloopError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        // truncation
        let truncated = &text[..text.len() / 2];
        assert!(LoopSnapshot::decode(truncated).is_err());
    }

    #[test]
    fn checkpointer_writes_manifest_and_rotates() {
        let dir = std::env::temp_dir().join(format!(
            "sqloop_ckpt_test_{}_{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = Checkpointer::new(CheckpointConfig {
            dir: dir.clone(),
            interval: 2,
            keep_last: 2,
        })
        .unwrap();
        assert!(!ck.due(0));
        assert!(!ck.due(1));
        assert!(ck.due(2) && ck.due(4));

        let mut snap = sample_snapshot();
        let metrics = obs::MetricsRegistry::new();
        for round in [2u64, 4, 6] {
            snap.round = round;
            ck.save(&snap, &metrics).unwrap();
        }
        // three writes, each syncing the snapshot and the manifest twice
        assert_eq!(metrics.counter("sqloop.checkpoint.writes").get(), 3);
        assert_eq!(metrics.counter("sqloop.ckpt.fsyncs").get(), 12);
        // oldest rotated away, newest two remain
        assert!(!dir.join("ckpt_r00000002.sqloop").exists());
        assert!(dir.join("ckpt_r00000004.sqloop").exists());
        assert!(dir.join("ckpt_r00000006.sqloop").exists());

        // manifest points at the latest; load from dir, manifest, and file
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.round, 6);
        assert_eq!(load_latest(&dir.join(MANIFEST_NAME)).unwrap().round, 6);
        assert_eq!(
            load_latest(&dir.join("ckpt_r00000004.sqloop"))
                .unwrap()
                .round,
            4
        );

        // a stray .tmp from a simulated crash mid-write is ignored
        std::fs::write(dir.join("ckpt_r00000008.tmp"), "torn garbage").unwrap();
        assert_eq!(load_latest(&dir).unwrap().round, 6);

        // a fresh Checkpointer picks up rotation history from the manifest
        let ck2 = Checkpointer::new(CheckpointConfig {
            dir: dir.clone(),
            interval: 2,
            keep_last: 2,
        })
        .unwrap();
        assert_eq!(ck2.history.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let snap = sample_snapshot();
        assert!(check_fingerprint(&snap, snap.fingerprint, "Async").is_ok());
        let err = check_fingerprint(&snap, 1, "Sync").unwrap_err();
        assert!(matches!(err, SqloopError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn dump_and_restore_through_a_connection() {
        use dbcp::{Driver, LocalDriver};
        let db = sqldb::Database::new(sqldb::EngineProfile::Postgres);
        let driver = LocalDriver::new(db);
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1, 0.5), (2, Infinity), (3, -0.25)")
            .unwrap();
        let cols = vec![
            ("id".to_string(), DataType::Int),
            ("v".to_string(), DataType::Float),
        ];
        let dump = dump_table_sql(conn.as_mut(), "t", &cols, Some(0)).unwrap();
        assert_eq!(dump.rows.len(), 3);

        let db2 = sqldb::Database::new(sqldb::EngineProfile::Postgres);
        let driver2 = LocalDriver::new(db2);
        let mut conn2 = driver2.connect().unwrap();
        restore_table_sql(conn2.as_mut(), &dump, 2).unwrap();
        let out = conn2.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(3));
        let dump2 = dump_table_sql(conn2.as_mut(), "t", &cols, Some(0)).unwrap();
        let mut a = dump.rows.clone();
        let mut b = dump2.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);

        // NaN is refused, not silently mangled
        let nan_dump = TableDump {
            name: "bad".into(),
            columns: vec![Column::new("x", DataType::Float)],
            primary_key: None,
            rows: vec![vec![Value::Float(f64::NAN)]],
        };
        assert!(matches!(
            restore_table_sql(conn2.as_mut(), &nan_dump, 8),
            Err(SqloopError::Checkpoint(_))
        ));
    }
}
