//! Integration-test-only package; see `tests/tests/`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir, unique per call:
/// tests run on parallel threads and share tags, and a directory named by
/// process id and tag alone let one test's cleanup delete the directory
/// another was checkpointing into.
///
/// # Panics
/// Panics if the directory cannot be created.
pub fn scratch_dir(prefix: &str, tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}
