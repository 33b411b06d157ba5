//! The directory rules the snapshot store and the write-ahead journal
//! share. Each keeps one flat directory of numbered files, and every
//! directory-level call either makes goes through here:
//!
//! * **Names.** `<prefix><number><suffix>`, the number zero-padded to 20
//!   digits (`u64::MAX` has 20) so lexicographic order is numeric order.
//!   `<name>.tmp` is an in-flight atomic write; `<name>.quarantined` is a
//!   condemned file kept for forensics.
//! * **Listing.** One sorted scan of the directory's regular files: live
//!   numbers, quarantined numbers, and (when asked) temps removed.
//! * **Commit.** [`atomic_write`]: the rename is the commit point, so a
//!   crash leaves at worst a `.tmp` leftover, never a torn file under a
//!   final name.
//! * **Removal.** The `.quarantined` rename, and unlinks followed by one
//!   directory fsync so the removals survive a power loss.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cws_core::{CwsError, Result};

const TEMP_SUFFIX: &str = ".tmp";
const QUARANTINE_SUFFIX: &str = ".quarantined";
const DIGITS: usize = 20;

/// Wraps a filesystem failure into the typed [`CwsError::Store`] both
/// directories report.
#[must_use]
pub(crate) fn fs_error(op: &'static str, path: &Path, error: &io::Error) -> CwsError {
    CwsError::Store { op, path: path.display().to_string(), message: error.to_string() }
}

/// One directory's file names: `<prefix><number:020><suffix>`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Names {
    pub(crate) prefix: &'static str,
    pub(crate) suffix: &'static str,
}

/// What one scan of a directory found, each list ascending.
#[derive(Debug, Default)]
pub(crate) struct Listing {
    /// Numbers of the live files.
    pub(crate) live: Vec<u64>,
    /// Numbers of the `.quarantined` files.
    pub(crate) quarantined: Vec<u64>,
    /// Abandoned `.tmp` files removed by the scan.
    pub(crate) removed_temps: usize,
}

impl Names {
    /// The live file name of `number`.
    pub(crate) fn name(self, number: u64) -> String {
        format!("{}{number:0DIGITS$}{}", self.prefix, self.suffix)
    }

    /// The number a live file name carries; `None` for any other name
    /// (temps, quarantined files, foreign files, unpadded numbers).
    pub(crate) fn parse(self, name: &str) -> Option<u64> {
        let digits = name.strip_prefix(self.prefix)?.strip_suffix(self.suffix)?;
        if digits.len() != DIGITS || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// The path of `number`'s quarantined file in `dir`.
    pub(crate) fn quarantined_path(self, dir: &Path, number: u64) -> PathBuf {
        suffixed(&dir.join(self.name(number)), QUARANTINE_SUFFIX)
    }

    /// Lists the regular files of `dir` in name order (other entries are
    /// skipped), unlinking this directory's own temps
    /// (`<prefix><number><suffix>.tmp`) on the way when `remove_temps` is
    /// set; those unlinks are not fsynced here. Any other `.tmp` file is
    /// foreign, like every other name these rules do not produce, and is
    /// left alone.
    pub(crate) fn list(self, dir: &Path, remove_temps: bool) -> Result<Listing> {
        let read_error = |e: io::Error| fs_error("read_dir", dir, &e);
        let mut files = Vec::new();
        for entry in fs::read_dir(dir).map_err(read_error)? {
            let entry = entry.map_err(read_error)?;
            if entry.file_type().is_ok_and(|kind| kind.is_file()) {
                files.extend(entry.file_name().into_string().ok());
            }
        }
        files.sort_unstable();
        let mut listing = Listing::default();
        for name in files {
            if name.strip_suffix(TEMP_SUFFIX).is_some_and(|stem| self.parse(stem).is_some()) {
                if remove_temps {
                    remove(&dir.join(&name))?;
                    listing.removed_temps += 1;
                }
            } else if let Some(number) = self.parse(&name) {
                listing.live.push(number);
            } else if let Some(number) =
                name.strip_suffix(QUARANTINE_SUFFIX).and_then(|stem| self.parse(stem))
            {
                listing.quarantined.push(number);
            }
        }
        Ok(listing)
    }
}

/// `<path><suffix>`.
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Fsyncs a directory so renames and unlinks within it are durable. On
/// non-Unix platforms directories cannot be opened for syncing; the rename
/// is still atomic, only its durability timing is left to the OS.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
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
/// temp file is removed (best effort) and its error propagates untouched.
pub(crate) fn atomic_write<F>(path: &Path, write: F) -> Result<()>
where
    F: FnOnce(&mut fs::File) -> Result<()>,
{
    let temp = suffixed(path, TEMP_SUFFIX);
    let mut file = fs::File::create(&temp).map_err(|e| fs_error("create", &temp, &e))?;
    let staged =
        write(&mut file).and_then(|()| file.sync_all().map_err(|e| fs_error("fsync", &temp, &e)));
    if let Err(error) = staged {
        // Best-effort cleanup; the leftover is harmless either way (the
        // next listing that removes temps takes it).
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

/// Renames `path` to `<path>.quarantined`, replacing an older forensics
/// file of the same name, and returns the new path. Not fsynced here.
pub(crate) fn quarantine(path: &Path) -> Result<PathBuf> {
    let condemned = suffixed(path, QUARANTINE_SUFFIX);
    fs::rename(path, &condemned).map_err(|e| fs_error("quarantine", path, &e))?;
    Ok(condemned)
}

fn remove(path: &Path) -> Result<()> {
    fs::remove_file(path).map_err(|e| fs_error("remove", path, &e))
}

/// Unlinks `paths` in order, then fsyncs `dir` once if there were any, and
/// returns how many went. The first failed unlink is returned at once: the
/// files after it stay and the directory is not fsynced.
pub(crate) fn remove_all(dir: &Path, paths: impl IntoIterator<Item = PathBuf>) -> Result<usize> {
    let mut removed = 0;
    for path in paths {
        remove(&path)?;
        removed += 1;
    }
    if removed > 0 {
        sync_dir(dir)?;
    }
    Ok(removed)
}

/// Unlinks `path`. On Unix the returned handle still holds the file's
/// blocks until it closes; elsewhere the unlink frees them and there is no
/// handle. The caller fsyncs the directory.
pub(crate) fn unlink_holding(path: &Path) -> io::Result<Option<fs::File>> {
    #[cfg(unix)]
    let handle = fs::File::open(path).ok();
    #[cfg(not(unix))]
    let handle = None;
    fs::remove_file(path).map(|()| handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    const SNAPSHOTS: Names = Names { prefix: "epoch-", suffix: ".cws" };

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cws-durable-{tag}-{}-{unique}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_round_trip_in_numeric_order() {
        assert_eq!(SNAPSHOTS.name(7), "epoch-00000000000000000007.cws");
        assert_eq!(SNAPSHOTS.parse(&SNAPSHOTS.name(0)), Some(0));
        assert_eq!(SNAPSHOTS.parse(&SNAPSHOTS.name(u64::MAX)), Some(u64::MAX));
        assert!(SNAPSHOTS.name(9) < SNAPSHOTS.name(10), "lexicographic = numeric");
        assert_eq!(SNAPSHOTS.parse("epoch-7.cws"), None, "unpadded names are foreign");
        assert_eq!(SNAPSHOTS.parse("epoch-0000000000000000000x.cws"), None);
        assert_eq!(SNAPSHOTS.parse(&format!("{}.tmp", SNAPSHOTS.name(3))), None);
    }

    /// The listing sorts, sorts quarantined files apart, skips foreign
    /// files (foreign temps too) and subdirectories, and removes its own
    /// temps only when asked.
    #[test]
    fn listing_sorts_and_removes_only_temps() {
        let dir = scratch_dir("listing");
        let foreign =
            ["MANIFEST".to_string(), "MANIFEST.tmp".to_string(), "epoch-7.cws.tmp".into()];
        for name in [SNAPSHOTS.name(12), SNAPSHOTS.name(3)].into_iter().chain(foreign.clone()) {
            fs::write(dir.join(name), b"x").unwrap();
        }
        fs::write(SNAPSHOTS.quarantined_path(&dir, 5), b"x").unwrap();
        fs::write(dir.join(format!("{}.tmp", SNAPSHOTS.name(13))), b"x").unwrap();
        fs::create_dir(dir.join(SNAPSHOTS.name(20))).unwrap();
        let kept = SNAPSHOTS.list(&dir, false).unwrap();
        assert_eq!((kept.live, kept.quarantined, kept.removed_temps), (vec![3, 12], vec![5], 0));
        let swept = SNAPSHOTS.list(&dir, true).unwrap();
        assert_eq!((swept.live, swept.quarantined, swept.removed_temps), (vec![3, 12], vec![5], 1));
        assert_eq!(SNAPSHOTS.list(&dir, true).unwrap().removed_temps, 0);
        assert!(foreign.iter().all(|name| dir.join(name).exists()));
        assert!(dir.join(SNAPSHOTS.name(20)).is_dir());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_and_remove_all_move_and_unlink() {
        let dir = scratch_dir("remove");
        let live = dir.join(SNAPSHOTS.name(4));
        fs::write(&live, b"rotten").unwrap();
        let condemned = quarantine(&live).unwrap();
        assert_eq!(condemned, SNAPSHOTS.quarantined_path(&dir, 4));
        assert!(!live.exists() && condemned.exists());
        assert_eq!(remove_all(&dir, [condemned.clone()]).unwrap(), 1);
        assert!(!condemned.exists());
        assert_eq!(remove_all(&dir, Vec::new()).unwrap(), 0);
        let err = remove_all(&dir, [condemned]).unwrap_err();
        assert!(matches!(err, CwsError::Store { op: "remove", .. }), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
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
        assert!(!suffixed(&path, TEMP_SUFFIX).exists(), "the staging file is gone after commit");
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
        assert!(!suffixed(&path, TEMP_SUFFIX).exists(), "the failed staging file is cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_error_carries_op_and_path() {
        let err = fs_error("rename", Path::new("/tmp/x"), &io::Error::other("denied"));
        let text = err.to_string();
        assert!(text.contains("rename") && text.contains("/tmp/x") && text.contains("denied"));
    }
}
