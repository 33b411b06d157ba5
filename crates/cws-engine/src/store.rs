//! Durable, crash-safe storage for published epoch snapshots.
//!
//! [`SnapshotStore`] gives the continuous pipeline
//! ([`EpochedPipeline`](crate::continuous::EpochedPipeline)) a durable
//! home: one directory holding one file per published epoch, written so
//! that a crash at **any byte** of a publish leaves the store recoverable
//! to the last good epoch bit-exactly. Its retention is also the window of
//! history a service keeps: any two retained epochs [`load`] back as
//! coordinated snapshots that
//! [`Drift::between`](crate::continuous::Drift::between) can compare.
//!
//! [`load`]: SnapshotStore::load
//!
//! # Layout
//!
//! ```text
//! store/
//! ├── epoch-00000000000000000007.cws   # one serialized Summary per epoch
//! ├── epoch-00000000000000000008.cws
//! ├── epoch-00000000000000000009.cws.tmp          # in-flight publish (crash leftover)
//! └── epoch-00000000000000000006.cws.quarantined  # corrupt file, kept for forensics
//! ```
//!
//! # Crash safety
//!
//! A publish is *atomic*: the snapshot is encoded into `<name>.tmp`, the
//! file is `fsync`ed, then renamed to its final name (and on Unix the
//! directory is fsynced so the rename itself is durable). A crash before
//! the rename leaves only a `.tmp` file — removed on recovery; a crash
//! after the rename leaves a complete, checksummed snapshot. The rename is
//! the commit point; there is no state in between in which a reader can
//! observe a half-written `epoch-*.cws`.
//!
//! If a torn file nevertheless appears under a final name (a corrupt disk,
//! a partial copy from elsewhere), the [codec's](cws_core::codec) header
//! and body checksums catch it: [`SnapshotStore::recover`] decodes every
//! `epoch-*.cws`, renames files that fail to `<name>.quarantined` (with the
//! typed decode error in the report), and resumes from the **highest epoch
//! that decodes cleanly**. The directory scan and the checksums are the
//! only source of truth: the store keeps no index file, and recovery
//! ignores any file that is not an epoch snapshot or a temp (such as the
//! advisory `MANIFEST` that older versions wrote).
//!
//! # At-rest scrubbing
//!
//! Recovery runs at startup; rot can set in *afterwards*, while the store
//! sits on disk between crashes. [`SnapshotStore::scrub`] is the at-rest
//! complement: the same verify-and-quarantine pass as recovery, without
//! touching temps, so it can run on a live store. Scrubbing touches only
//! the directory — continuous pipelines serve `Arc<Summary>` snapshots
//! from memory, so serving continues undisturbed while a scrub runs.
//!
//! The file names, the listing, the atomic commit and the removals are the
//! crate's shared directory rules, which the write-ahead journal follows
//! too.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cws_core::{CwsError, Result};

use crate::durable::{atomic_write, fs_error, quarantine, remove_all, sync_dir, Listing, Names};
use crate::summary::Summary;

/// `epoch-<n>.cws`: one committed snapshot per epoch.
const EPOCH_FILES: Names = Names { prefix: "epoch-", suffix: ".cws" };

/// A snapshot quarantined by [`SnapshotStore::recover`] or
/// [`SnapshotStore::scrub`].
#[derive(Debug, Clone)]
pub struct QuarantinedSnapshot {
    /// The file's path *after* quarantining (`…​.cws.quarantined`).
    pub path: PathBuf,
    /// The epoch number parsed from the file name.
    pub epoch: u64,
    /// The typed decode error that condemned it.
    pub error: CwsError,
}

/// What [`SnapshotStore::recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The highest epoch whose snapshot decoded cleanly, with the summary
    /// itself — byte-for-byte the one that was published.
    pub last_good: Option<(u64, Arc<Summary>)>,
    /// Corrupt snapshots renamed to `…​.quarantined`, with their typed
    /// decode errors. Empty in every run that did not hit disk corruption.
    pub quarantined: Vec<QuarantinedSnapshot>,
    /// Number of the store's own abandoned `epoch-…​.cws.tmp` files
    /// (crashes mid-publish) removed; a foreign `.tmp` file stays.
    pub removed_temps: usize,
    /// Number of old `…​.quarantined` files removed to keep forensics
    /// bounded (the store's epoch retention applies to them too).
    pub pruned_quarantined: usize,
}

/// A directory of epoch snapshots with atomic publish, bounded retention
/// and checksum-verified recovery.
///
/// ```no_run
/// use cws_engine::prelude::*;
/// use cws_engine::store::SnapshotStore;
///
/// let mut store = SnapshotStore::open("/var/lib/cws/snapshots", 24).unwrap();
/// let report = store.recover().unwrap();
/// if let Some((epoch, summary)) = report.last_good {
///     println!("resuming after epoch {epoch}: {} keys", summary.num_distinct_keys());
/// }
/// ```
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    retention: usize,
    /// The next retention unlink fails (root can unlink any file, so a
    /// test cannot make one fail through the filesystem).
    #[cfg(test)]
    fail_next_remove: bool,
}

impl SnapshotStore {
    /// Opens (creating if necessary) the store directory, retaining at most
    /// `retention` committed epochs (older ones are pruned at publish
    /// time). `retention` is clamped to at least 1 — a store that retains
    /// nothing cannot recover anything.
    ///
    /// # Errors
    /// [`CwsError::Store`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, retention: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| fs_error("create_dir", &dir, &e))?;
        Ok(Self {
            dir,
            retention: retention.max(1),
            #[cfg(test)]
            fail_next_remove: false,
        })
    }

    /// The path a given epoch's snapshot lives at (whether or not it
    /// currently exists).
    #[must_use]
    pub fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(EPOCH_FILES.name(epoch))
    }

    /// Durably publishes `summary` as `epoch`'s snapshot through the
    /// crate's atomic-write sequence (temp file, fsync, rename, directory
    /// fsync), then prunes epochs beyond the retention bound.
    ///
    /// The rename is the commit point — a crash anywhere before it leaves
    /// the previous epoch untouched and only a `.tmp` leftover;
    /// [`recover`](Self::recover) removes those. The retention prune runs
    /// after the commit point and is best-effort: an epoch it could not
    /// delete stays on disk, and the next publish retries it.
    ///
    /// # Errors
    /// [`CwsError::Store`] for filesystem failures before the commit point,
    /// [`CwsError::Codec`] if encoding fails. On error the final file is
    /// either absent or the previous complete version — never torn. A
    /// failed retention prune is not an error: the new snapshot is
    /// durable.
    pub fn publish(&mut self, epoch: u64, summary: &Summary) -> Result<PathBuf> {
        let final_path = self.epoch_path(epoch);
        atomic_write(&final_path, |file| summary.write_to(file))?;
        // Past the commit point. `prune` rescans the directory, so the next
        // publish retries whatever this one could not delete.
        let _ = self.prune();
        Ok(final_path)
    }

    /// Loads one epoch's snapshot, verifying its checksums.
    ///
    /// # Errors
    /// [`CwsError::Store`] when the file cannot be opened/read,
    /// [`CwsError::Codec`] when it does not decode cleanly.
    pub fn load(&self, epoch: u64) -> Result<Summary> {
        let path = self.epoch_path(epoch);
        let mut file = fs::File::open(&path).map_err(|e| fs_error("open", &path, &e))?;
        Summary::read_from(&mut file)
    }

    /// Epoch numbers of the committed snapshots currently on disk,
    /// ascending.
    ///
    /// # Errors
    /// [`CwsError::Store`] when the directory cannot be scanned.
    pub fn epochs(&self) -> Result<Vec<u64>> {
        Ok(EPOCH_FILES.list(&self.dir, false)?.live)
    }

    /// Scans the store, removes abandoned `.tmp` files, quarantines
    /// snapshots that fail their checksums, and returns the highest epoch
    /// that decodes cleanly (with its summary).
    ///
    /// Recovery is idempotent: running it twice changes nothing the first
    /// run did not already fix, and it never deletes a committed snapshot —
    /// corrupt files are renamed, not removed, so an operator can inspect
    /// them. Quarantined forensics are themselves bounded: only the newest
    /// `retention` `.quarantined` files survive a recovery, so a store that
    /// keeps hitting corruption cannot fill the disk with evidence.
    ///
    /// # Errors
    /// [`CwsError::Store`] when the directory cannot be scanned or a
    /// quarantine rename fails. Decode failures are *not* errors — they are
    /// reported in [`RecoveryReport::quarantined`].
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let listing = EPOCH_FILES.list(&self.dir, true)?;
        let removed_temps = listing.removed_temps;
        let (pass, newest) = self.verify(listing)?;
        Ok(RecoveryReport {
            last_good: newest.map(|(epoch, summary)| (epoch, Arc::new(summary))),
            quarantined: pass.quarantined,
            removed_temps,
            pruned_quarantined: pass.pruned_quarantined,
        })
    }

    /// Runs one at-rest integrity pass, the complement of crash-time
    /// [`recover`](Self::recover), on whatever cadence the operator
    /// chooses (a timer, a cron job, an admin endpoint). It:
    ///
    /// 1. re-reads every retained epoch and verifies its checksums,
    ///    catching rot that set in after publish;
    /// 2. quarantines (renames, never deletes) snapshots that no longer
    ///    decode, carrying the typed decode error in the report;
    /// 3. prunes `.quarantined` forensics to the store's retention, as
    ///    recovery does.
    ///
    /// Unlike recovery it leaves `.tmp` files alone. Serving reads
    /// `Arc<Summary>` snapshots from memory (e.g.
    /// [`EpochedPipeline::latest`](crate::continuous::EpochedPipeline::latest)),
    /// so queries keep answering bit-exactly while a scrub runs — even one
    /// that quarantines the latest epoch's file. A second pass over an
    /// undisturbed store verifies the same epochs and changes nothing.
    ///
    /// ```no_run
    /// use cws_engine::store::SnapshotStore;
    ///
    /// let mut store = SnapshotStore::open("/var/lib/cws/snapshots", 24).unwrap();
    /// for rotten in &store.scrub().unwrap().quarantined {
    ///     eprintln!("epoch {} rotted at rest: {}", rotten.epoch, rotten.error);
    /// }
    /// ```
    ///
    /// # Errors
    /// [`CwsError::Store`] when the directory cannot be scanned or a
    /// rename/remove fails. Decode failures are *not* errors — they are
    /// the findings, reported in [`ScrubReport::quarantined`].
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let (report, _) = self.verify(EPOCH_FILES.list(&self.dir, false)?)?;
        Ok(report)
    }

    /// The pass [`recover`](Self::recover) and [`scrub`](Self::scrub)
    /// share: decodes every live epoch of `listing`, quarantines those
    /// that fail, prunes forensics beyond the retention (oldest first),
    /// and fsyncs the directory. Also returns the newest clean summary.
    fn verify(&self, listing: Listing) -> Result<(ScrubReport, Option<(u64, Summary)>)> {
        let mut report = ScrubReport::default();
        let mut newest = None;
        let mut forensics = listing.quarantined;
        for epoch in listing.live {
            match self.load(epoch) {
                Ok(summary) => {
                    report.verified.push(epoch);
                    newest = Some((epoch, summary));
                }
                Err(error) => {
                    let path = quarantine(&self.epoch_path(epoch))?;
                    forensics.push(epoch);
                    report.quarantined.push(QuarantinedSnapshot { path, epoch, error });
                }
            }
        }
        forensics.sort_unstable();
        forensics.dedup();
        let excess = forensics.len().saturating_sub(self.retention);
        let condemned =
            forensics[..excess].iter().map(|&n| EPOCH_FILES.quarantined_path(&self.dir, n));
        report.pruned_quarantined = remove_all(&self.dir, condemned)?;
        sync_dir(&self.dir)?;
        Ok((report, newest))
    }

    /// Deletes committed epochs beyond the retention bound (oldest first).
    fn prune(&mut self) -> Result<()> {
        let epochs = self.epochs()?;
        let excess = epochs.len().saturating_sub(self.retention);
        #[cfg(test)]
        if excess > 0 && std::mem::take(&mut self.fail_next_remove) {
            let injected = std::io::Error::other("injected remove failure");
            return Err(fs_error("remove", &self.epoch_path(epochs[0]), &injected));
        }
        remove_all(&self.dir, epochs[..excess].iter().map(|&epoch| self.epoch_path(epoch)))?;
        Ok(())
    }
}

/// What one [`SnapshotStore::scrub`] pass found and did.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Epochs whose snapshots re-verified cleanly (header and body
    /// checksums), ascending.
    pub verified: Vec<u64>,
    /// Epochs whose snapshots rotted since they were published — renamed
    /// to `…​.quarantined`, with the typed decode error that condemned
    /// each.
    pub quarantined: Vec<QuarantinedSnapshot>,
    /// Number of old `…​.quarantined` files removed to keep forensics
    /// within the store's epoch retention.
    pub pruned_quarantined: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Ingest;
    use crate::pipeline::{Layout, Pipeline};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh per-test directory under the OS temp dir (no external
    /// tempfile crate in the offline build).
    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cws-store-{tag}-{}-{unique}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn sample_summary(seed: u64, records: u64) -> Summary {
        let mut pipeline = Pipeline::builder()
            .assignments(2)
            .k(16)
            .layout(Layout::Dispersed)
            .seed(seed)
            .build()
            .unwrap();
        for key in 0..records {
            pipeline.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
        }
        pipeline.finalize().unwrap()
    }

    #[test]
    fn publish_load_roundtrip_is_bit_exact() {
        let dir = scratch_dir("roundtrip");
        let mut store = SnapshotStore::open(&dir, 8).unwrap();
        let summary = sample_summary(3, 200);
        let path = store.publish(7, &summary).unwrap();
        assert!(path.ends_with("epoch-00000000000000000007.cws"));
        assert_eq!(store.load(7).unwrap(), summary);
        assert_eq!(store.epochs().unwrap(), vec![7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_oldest_epochs() {
        let dir = scratch_dir("retention");
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        for epoch in 1..=6u64 {
            store.publish(epoch, &sample_summary(9, 50 + epoch)).unwrap();
        }
        assert_eq!(store.epochs().unwrap(), vec![4, 5, 6]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A retention prune that fails after the commit rename does not fail
    /// the publish: the new snapshot is durable, the old epoch stays, and
    /// the next publish prunes it.
    #[test]
    fn a_failed_retention_prune_does_not_fail_a_committed_publish() {
        let dir = scratch_dir("prune-fails");
        let mut store = SnapshotStore::open(&dir, 2).unwrap();
        store.publish(1, &sample_summary(6, 60)).unwrap();
        store.publish(2, &sample_summary(6, 70)).unwrap();
        let third = sample_summary(6, 80);
        store.fail_next_remove = true;
        assert!(store.publish(3, &third).is_ok(), "epoch 3 committed before the prune");
        assert!(!store.fail_next_remove, "the prune reached its unlink");
        assert_eq!(store.epochs().unwrap(), vec![1, 2, 3]);
        assert_eq!(store.load(3).unwrap(), third);
        store.publish(4, &sample_summary(6, 90)).unwrap();
        assert_eq!(store.epochs().unwrap(), vec![3, 4], "the next publish retried the prune");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_removes_temps_and_resumes_last_good() {
        let dir = scratch_dir("recover");
        let mut store = SnapshotStore::open(&dir, 8).unwrap();
        let old = sample_summary(5, 100);
        let new = sample_summary(5, 300);
        store.publish(1, &old).unwrap();
        store.publish(2, &new).unwrap();
        // A crash mid-publish leaves a .tmp with arbitrary garbage.
        fs::write(dir.join("epoch-00000000000000000003.cws.tmp"), b"partial").unwrap();
        // Foreign files are ignored, including the advisory MANIFEST that
        // stores written by older versions still hold.
        fs::write(dir.join("README"), b"not a snapshot").unwrap();
        fs::write(dir.join("MANIFEST"), b"epoch 9 epoch-00000000000000000009.cws\n").unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.removed_temps, 1);
        assert!(report.quarantined.is_empty());
        let (epoch, summary) = report.last_good.unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(*summary, new);
        assert!(!dir.join("epoch-00000000000000000003.cws.tmp").exists());
        assert!(dir.join("README").exists());
        assert!(dir.join("MANIFEST").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_quarantines_corrupt_snapshots() {
        let dir = scratch_dir("quarantine");
        let mut store = SnapshotStore::open(&dir, 8).unwrap();
        let good = sample_summary(2, 150);
        store.publish(1, &good).unwrap();
        store.publish(2, &sample_summary(2, 250)).unwrap();
        // Corrupt epoch 2 (flip a body byte): the checksum must condemn it
        // and recovery must fall back to epoch 1.
        let path = store.epoch_path(2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].epoch, 2);
        assert!(matches!(report.quarantined[0].error, CwsError::Codec { .. }));
        assert!(report.quarantined[0].path.to_string_lossy().ends_with(".quarantined"));
        assert!(report.quarantined[0].path.exists());
        assert!(!path.exists(), "the corrupt file must be moved aside");
        let (epoch, summary) = report.last_good.unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(*summary, good);
        // Idempotent: a second recovery finds nothing new to fix.
        let again = store.recover().unwrap();
        assert_eq!(again.removed_temps, 0);
        assert!(again.quarantined.is_empty());
        assert_eq!(again.last_good.unwrap().0, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A scrub over a clean store verifies every epoch and changes
    /// nothing; over a rotted store it quarantines exactly the flipped
    /// epochs.
    #[test]
    fn scrub_verifies_clean_epochs_and_quarantines_rot() {
        let dir = scratch_dir("scrub");
        let mut store = SnapshotStore::open(&dir, 8).unwrap();
        for epoch in 1..=4u64 {
            store.publish(epoch, &sample_summary(7, 80 + epoch)).unwrap();
        }
        let clean = store.scrub().unwrap();
        assert_eq!(clean.verified, vec![1, 2, 3, 4]);
        assert!(clean.quarantined.is_empty());
        assert_eq!(clean.pruned_quarantined, 0);

        // Rot sets in at rest: flip one byte in epochs 2 and 4.
        for epoch in [2u64, 4] {
            let path = store.epoch_path(epoch);
            let mut bytes = fs::read(&path).unwrap();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
        }

        let report = store.scrub().unwrap();
        assert_eq!(report.verified, vec![1, 3]);
        assert_eq!(
            report.quarantined.iter().map(|q| q.epoch).collect::<Vec<_>>(),
            vec![2, 4],
            "exactly the flipped epochs are condemned"
        );
        for rotten in &report.quarantined {
            assert!(rotten.path.exists(), "forensics are renamed, not deleted");
        }
        // Idempotent: a second pass finds the store already settled.
        let again = store.scrub().unwrap();
        assert_eq!(again.verified, vec![1, 3]);
        assert!(again.quarantined.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `.quarantined` files do not accumulate forever: recovery and scrubs
    /// prune them oldest-first to the retention bound.
    #[test]
    fn quarantine_accumulation_is_bounded_by_retention() {
        let dir = scratch_dir("qretention");
        let mut store = SnapshotStore::open(&dir, 2).unwrap();
        // Manufacture a long history of quarantined forensics.
        for epoch in 1..=7u64 {
            let name = format!("epoch-{epoch:020}.cws.quarantined");
            fs::write(dir.join(name), b"old forensics").unwrap();
        }
        store.publish(8, &sample_summary(4, 90)).unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.pruned_quarantined, 5, "recovery prunes to the epoch retention");
        let survivors = EPOCH_FILES.list(&dir, false).unwrap().quarantined;
        assert_eq!(survivors, vec![6, 7], "the newest forensics survive");
        // A scrub keeps the same bound.
        fs::write(dir.join("epoch-00000000000000000005.cws.quarantined"), b"older").unwrap();
        assert_eq!(store.scrub().unwrap().pruned_quarantined, 1);
        assert_eq!(EPOCH_FILES.list(&dir, false).unwrap().quarantined, vec![6, 7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_empty_store_is_clean() {
        let dir = scratch_dir("empty");
        let mut store = SnapshotStore::open(&dir, 4).unwrap();
        let report = store.recover().unwrap();
        assert!(report.last_good.is_none());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.removed_temps, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
