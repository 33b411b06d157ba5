//! Shared crash-safe filesystem primitives.
//!
//! Every durable artifact in the workspace — epoch snapshots and
//! write-ahead journal segments — commits through the same
//! sequence: encode into `<name>.tmp`, `fsync` the file, rename it to its
//! final name, then `fsync` the containing directory so the rename itself
//! survives a power loss. The rename is the commit point; a crash anywhere
//! before it leaves at worst a `.tmp` leftover and never a torn file under
//! a final name.
//!
//! This module is that sequence, extracted so the snapshot store and the
//! ingestion journal cannot drift apart in their crash-safety story.

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::{CwsError, Result};

/// Suffix of an in-flight (uncommitted) atomic write.
pub const TEMP_SUFFIX: &str = ".tmp";

/// Wraps a filesystem failure into the typed [`CwsError::Store`] the
/// durability layer reports everywhere.
#[must_use]
pub fn fs_error(op: &'static str, path: &Path, error: &std::io::Error) -> CwsError {
    CwsError::Store { op, path: path.display().to_string(), message: error.to_string() }
}

/// `<path>.tmp` — where an in-flight atomic write stages its bytes.
#[must_use]
pub fn temp_path(path: &Path) -> PathBuf {
    let mut temp = path.as_os_str().to_os_string();
    temp.push(TEMP_SUFFIX);
    PathBuf::from(temp)
}

/// Fsyncs a directory so renames within it are durable. On non-Unix
/// platforms directories cannot be opened for syncing; the rename is still
/// atomic, only its durability timing is left to the OS.
///
/// # Errors
/// [`CwsError::Store`] when the directory cannot be opened or synced.
pub fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        let handle = fs::File::open(dir).map_err(|e| fs_error("open_dir", dir, &e))?;
        handle.sync_all().map_err(|e| fs_error("fsync_dir", dir, &e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Atomically commits a file at `path`: stages the bytes `write` produces
/// into `<path>.tmp`, fsyncs the staged file, renames it into place, and
/// fsyncs the parent directory.
///
/// A crash at **any byte** of the sequence leaves either the previous
/// complete version of `path` (or its absence) plus at worst a `.tmp`
/// leftover — never a torn file under the final name. If `write` fails the
/// temp file is removed (best effort) and the error propagates untouched.
///
/// # Errors
/// [`CwsError::Store`] for filesystem failures; whatever `write` returns
/// for encoding failures.
pub fn atomic_write<F>(path: &Path, write: F) -> Result<()>
where
    F: FnOnce(&mut fs::File) -> Result<()>,
{
    let temp = temp_path(path);
    let mut file = fs::File::create(&temp).map_err(|e| fs_error("create", &temp, &e))?;
    let staged =
        write(&mut file).and_then(|()| file.sync_all().map_err(|e| fs_error("fsync", &temp, &e)));
    if let Err(error) = staged {
        // Best-effort cleanup; the leftover is harmless either way
        // (recovery passes remove temps).
        drop(file);
        let _ = fs::remove_file(&temp);
        return Err(error);
    }
    drop(file);
    fs::rename(&temp, path).map_err(|e| fs_error("rename", path, &e))?;
    if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cws-durable-{tag}-{}-{unique}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_commits_whole_files() {
        let dir = scratch_dir("commit");
        let path = dir.join("artifact.bin");
        atomic_write(&path, |file| {
            file.write_all(b"generation 1").map_err(|e| fs_error("write", &path, &e))
        })
        .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation 1");
        assert!(!temp_path(&path).exists(), "the staging file is gone after commit");
        // Overwrites go through the same staged rename.
        atomic_write(&path, |file| {
            file.write_all(b"generation 2").map_err(|e| fs_error("write", &path, &e))
        })
        .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation 2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_the_previous_version_untouched() {
        let dir = scratch_dir("fail");
        let path = dir.join("artifact.bin");
        atomic_write(&path, |file| {
            file.write_all(b"survivor").map_err(|e| fs_error("write", &path, &e))
        })
        .unwrap();
        let err = atomic_write(&path, |file| {
            file.write_all(b"half-").map_err(|e| fs_error("write", &path, &e))?;
            Err(CwsError::InvalidParameter { name: "test", message: "injected".to_string() })
        })
        .unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { .. }));
        assert_eq!(fs::read(&path).unwrap(), b"survivor", "the commit point was never reached");
        assert!(!temp_path(&path).exists(), "the failed staging file is cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_error_carries_op_and_path() {
        let err = fs_error("rename", Path::new("/tmp/x"), &std::io::Error::other("denied"));
        let text = err.to_string();
        assert!(text.contains("rename") && text.contains("/tmp/x") && text.contains("denied"));
    }
}
