//! Deterministic crash-matrix harness (DESIGN.md §15): enumerate **every**
//! crash point of the checkpoint write → manifest → rotate sequence, plus
//! the torn-write / failed-rename / duplicated-rename / bit-flip storage
//! faults, in all four execution modes — and prove that every resume either
//! reaches the identical oracle fixpoint or fails with a typed
//! [`SqloopError::Checkpoint`]. Never a wrong answer.
//!
//! The harness replays *real* snapshot generations (captured from a genuine
//! crashed run) through a [`Checkpointer`] whose I/O is routed through the
//! [`TornFs`] fault injector, then resumes from the post-power-cut disk
//! image on a fresh database.

use dbcp::Driver;
use sqldb::Database;
use sqloop::checkpoint::load_latest;
use sqloop::{
    CheckpointConfig, Checkpointer, ExecutionMode, ExecutionReport, LoopSnapshot, PrioritySpec,
    SQLoop, SqloopConfig, SqloopError, StorageFault, TornFs,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    sqloop_tests::scratch_dir("sqloop-cmx", tag)
}

fn fresh_driver(graph: &graphgen::Graph) -> Arc<dyn Driver> {
    let db = Database::new(sqldb::EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(dbcp::LocalDriver::new(db));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    driver
}

/// The run configuration shared by the crashing run and every resume — the
/// snapshot fingerprint binds query + mode + partitions, so these must not
/// drift between phases.
fn config_for(mode: ExecutionMode, dir: &Path) -> SqloopConfig {
    let mut config = SqloopConfig {
        mode,
        threads: 2,
        partitions: 4,
        retry_backoff: Duration::ZERO,
        downgrade_on_failure: false,
        checkpoint: Some(CheckpointConfig::new(dir).every(1)),
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
    }
    config
}

fn assert_sssp_matches(
    rows: &[Vec<sqldb::Value>],
    oracle: &std::collections::HashMap<u64, f64>,
    label: &str,
) {
    for row in rows {
        let node = row[0].as_i64().unwrap() as u64;
        let d = row[1].as_f64().unwrap();
        match oracle.get(&node) {
            Some(&expected) => assert!(
                (d - expected).abs() < 1e-9,
                "{label}: node {node} distance {d} vs {expected}"
            ),
            None => assert!(
                d.is_infinite(),
                "{label}: node {node} should be unreachable, got {d}"
            ),
        }
    }
}

/// Phase A: crash a real checkpointing run on a low iteration cap and
/// capture its two newest snapshot generations (oldest first).
fn capture_generations(mode: ExecutionMode, graph: &graphgen::Graph) -> Vec<LoopSnapshot> {
    let dir = scratch(&format!("capture-{mode}"));
    let mut config = config_for(mode, &dir);
    config.max_rounds = if mode == ExecutionMode::AsyncPrio {
        2
    } else {
        4
    };
    let err = SQLoop::new(fresh_driver(graph))
        .with_config(config)
        .execute(&workloads::queries::sssp_all(0))
        .unwrap_err();
    assert!(
        matches!(&err, SqloopError::BudgetExceeded { what, .. } if what == "max_rounds"),
        "{mode}: expected the iteration-cap crash, got {err}"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".sqloop"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 2,
        "{mode}: need two generations to replay, have {names:?}"
    );
    let gens: Vec<LoopSnapshot> = names
        .iter()
        .map(|n| load_latest(&dir.join(n)).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    gens
}

/// Replays one checkpoint sequence against a fresh directory: `old` is
/// written durably first (the prior generation a real run would have), then
/// `new` is saved through a [`TornFs`] armed with `fault`. Returns the
/// injector (for op counting) and the save outcome.
///
/// `keep_last: 1` makes the sequence include the rotation delete of `old`,
/// so the op numbering covers write(1) sync(2) rename(3) dirsync(4) of the
/// snapshot, the same four (5–8) for the manifest, and the remove(9).
fn replay_save(
    dir: &Path,
    old: &LoopSnapshot,
    new: &LoopSnapshot,
    keep_last: usize,
    fault: Option<StorageFault>,
) -> (Arc<TornFs>, Result<PathBuf, SqloopError>) {
    let cfg = CheckpointConfig {
        dir: dir.to_path_buf(),
        interval: 1,
        keep_last,
    };
    let metrics = obs::MetricsRegistry::new();
    Checkpointer::new(cfg.clone())
        .unwrap()
        .save(old, &metrics)
        .unwrap();
    let io = Arc::new(TornFs::new(dir, fault));
    let mut ck = Checkpointer::with_io(cfg, io.clone()).unwrap();
    let outcome = ck.save(new, &metrics);
    (io, outcome)
}

/// Phase B: resume from whatever the crash left in `dir` on a fresh
/// database. The only acceptable outcomes are the oracle fixpoint or a
/// typed `Checkpoint` error; anything else is a wrong answer. Returns the
/// report of a resume that succeeded.
fn resume_never_wrong(
    mode: ExecutionMode,
    dir: &Path,
    graph: &graphgen::Graph,
    oracle: &std::collections::HashMap<u64, f64>,
    label: &str,
) -> Option<ExecutionReport> {
    let mut config = config_for(mode, dir);
    config.resume_from = Some(dir.to_path_buf());
    match SQLoop::new(fresh_driver(graph))
        .with_config(config)
        .execute_detailed(&workloads::queries::sssp_all(0))
    {
        Ok(report) => {
            assert_eq!(
                report.result.rows.len(),
                graph.node_count(),
                "{label}: wrong row count"
            );
            assert_sssp_matches(&report.result.rows, oracle, label);
            Some(report)
        }
        Err(SqloopError::Checkpoint(_)) => None,
        Err(other) => panic!("{label}: resume must fail typed, got {other}"),
    }
}

/// The matrix for one mode: a power cut before every single mutating
/// operation of the save sequence (and one past the end — the fault-free
/// sequence followed by a cut), each resumed and oracle-checked.
fn crash_matrix_for(mode: ExecutionMode) {
    let graph = graphgen::chain(12);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let gens = capture_generations(mode, &graph);
    let (old, new) = (&gens[gens.len() - 2], &gens[gens.len() - 1]);

    // fault-free dry run enumerates the crash points
    let dry = scratch(&format!("dry-{mode}"));
    let (io, outcome) = replay_save(&dry, old, new, 1, None);
    outcome.unwrap();
    let total_ops = io.op_count();
    let _ = std::fs::remove_dir_all(&dry);
    assert!(
        total_ops >= 9,
        "{mode}: expected write+sync+rename+dirsync ×2 + rotate, saw {total_ops} ops"
    );

    let mut resumed_ok = 0u64;
    for op in 1..=total_ops + 1 {
        let dir = scratch(&format!("cut-{mode}-{op}"));
        let (io, outcome) = replay_save(&dir, old, new, 1, Some(StorageFault::Crash { op }));
        if op <= total_ops {
            // a cut during the best-effort rotation delete is deliberately
            // swallowed by save(); every earlier cut surfaces as an error
            assert!(
                io.crashed(),
                "{mode} op {op}: the injected cut must have fired"
            );
        } else {
            // one past the end: the full sequence completed, then the power
            // cut hit — full fsync discipline must make that loss-free
            outcome.unwrap();
            io.crash();
        }
        let label = format!("{mode} power cut before op {op}/{total_ops}");
        if resume_never_wrong(mode, &dir, &graph, &oracle, &label).is_some() {
            resumed_ok += 1;
        } else {
            panic!("{label}: the prior generation was durable, resume must succeed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(resumed_ok, total_ops + 1);

    // storage-fault variants beyond the pure power cut: torn snapshot
    // write, torn manifest write, failed/duplicated renames of both files
    let encoded_len = new.encode().len();
    let variants: Vec<(&str, StorageFault)> = vec![
        (
            "torn snapshot write",
            StorageFault::TornWrite {
                op: 1,
                keep: encoded_len / 2,
            },
        ),
        (
            "torn manifest write",
            StorageFault::TornWrite { op: 5, keep: 10 },
        ),
        ("failed snapshot rename", StorageFault::FailRename { op: 3 }),
        ("failed manifest rename", StorageFault::FailRename { op: 7 }),
        (
            "duplicated snapshot rename",
            StorageFault::DuplicateRename { op: 3 },
        ),
    ];
    for (what, fault) in variants {
        let dir = scratch(&format!("var-{mode}-{}", fault.op()));
        let (io, outcome) = replay_save(&dir, old, new, 1, Some(fault));
        if io.crashed() {
            // torn writes end in a power cut: land on the durable image
            assert!(outcome.is_err(), "{mode} {what}: torn write must error");
        } else if matches!(fault, StorageFault::FailRename { .. }) {
            assert!(outcome.is_err(), "{mode} {what}: failed rename must error");
        } else {
            outcome.unwrap();
        }
        let label = format!("{mode} {what}");
        assert!(
            resume_never_wrong(mode, &dir, &graph, &oracle, &label).is_some(),
            "{label}: a durable prior generation existed, resume must succeed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // manifest torn *at rest* (out-of-protocol corruption, e.g. media
    // damage): the orphan directory scan must still find the snapshots
    let dir = scratch(&format!("manifest-{mode}"));
    let (_io, outcome) = replay_save(&dir, old, new, 2, None);
    outcome.unwrap();
    let manifest = dir.join("MANIFEST.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() / 3]).unwrap();
    let report = resume_never_wrong(
        mode,
        &dir,
        &graph,
        &oracle,
        &format!("{mode} torn manifest"),
    )
    .expect("valid orphaned snapshots must carry a torn-manifest resume");
    // one resume, which the torn manifest made a fallback load of an
    // intact orphan
    let counters = &report.metrics.counters;
    assert_eq!(counters["sqloop.checkpoint.resumes"], 1, "{mode}");
    assert_eq!(counters["sqloop.ckpt.fallback_loads"], 1, "{mode}");
    assert_eq!(counters["sqloop.ckpt.corrupt_detected"], 0, "{mode}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_matrix_single_mode() {
    crash_matrix_for(ExecutionMode::Single);
}

#[test]
fn crash_matrix_sync_mode() {
    crash_matrix_for(ExecutionMode::Sync);
}

#[test]
fn crash_matrix_async_mode() {
    crash_matrix_for(ExecutionMode::Async);
}

#[test]
fn crash_matrix_asyncprio_mode() {
    crash_matrix_for(ExecutionMode::AsyncPrio);
}

/// The demonstrable fallback: the newest snapshot is bit-flipped (a latent
/// media fault the fsync discipline cannot see), resume detects it, moves
/// it to `<name>.corrupt`, falls back to the previous generation, converges
/// to the oracle, and reports the whole story.
#[test]
fn corrupt_newest_generation_falls_back_quarantines_and_counts() {
    let mode = ExecutionMode::Sync;
    let graph = graphgen::chain(12);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let gens = capture_generations(mode, &graph);
    let (old, new) = (&gens[gens.len() - 2], &gens[gens.len() - 1]);

    let dir = scratch("bitflip-fallback");
    // keep_last 2: the old generation survives rotation and is the net
    let (_io, outcome) = replay_save(
        &dir,
        old,
        new,
        2,
        Some(StorageFault::BitFlip { op: 1, bit: 2_000 }),
    );
    let new_path = outcome.unwrap();
    let new_name = new_path.file_name().unwrap().to_string_lossy().into_owned();

    let mut config = config_for(mode, &dir);
    config.resume_from = Some(dir.clone());
    let report = SQLoop::new(fresh_driver(&graph))
        .with_config(config)
        .execute_detailed(&workloads::queries::sssp_all(0))
        .unwrap();
    assert_sssp_matches(&report.result.rows, &oracle, "bit-flip fallback resume");

    // the story is told: counters, quarantine file, and the report note
    let counters = &report.metrics.counters;
    assert_eq!(
        counters["sqloop.ckpt.corrupt_detected"], 1,
        "the flipped snapshot must be detected as corrupt"
    );
    assert_eq!(
        counters["sqloop.ckpt.fallback_loads"], 1,
        "loading the older generation is a fallback load"
    );
    assert_eq!(counters["sqloop.checkpoint.resumes"], 1);
    assert!(
        dir.join(format!("{new_name}.corrupt")).is_file(),
        "the corrupt newest snapshot must be quarantined to .corrupt"
    );
    assert!(
        !new_path.is_file(),
        "the corrupt file must be moved, not copied"
    );
    let note = report
        .recovery_note
        .expect("a fallback resume carries a recovery note");
    assert!(
        note.contains("recovered from") && note.contains("quarantined"),
        "note should describe the fallback, got: {note}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// When *every* generation is gone or corrupt, resume is a typed
/// [`SqloopError::Checkpoint`] — it must never invent an answer.
#[test]
fn all_generations_corrupt_is_a_typed_error() {
    let mode = ExecutionMode::Sync;
    let graph = graphgen::chain(12);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let gens = capture_generations(mode, &graph);
    let (old, new) = (&gens[gens.len() - 2], &gens[gens.len() - 1]);

    let dir = scratch("all-corrupt");
    // keep_last 1 rotates the old generation away; the bit flip leaves the
    // only surviving snapshot corrupt — the worst reachable on-disk state
    let (_io, outcome) = replay_save(
        &dir,
        old,
        new,
        1,
        Some(StorageFault::BitFlip { op: 1, bit: 999 }),
    );
    outcome.unwrap();

    assert!(
        resume_never_wrong(mode, &dir, &graph, &oracle, "all-corrupt resume").is_none(),
        "no valid generation exists: resume must fail typed, not answer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
