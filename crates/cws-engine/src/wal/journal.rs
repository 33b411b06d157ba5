//! The segmented write-ahead journal: configuration, appends, rotation,
//! fsync policy, open-time torn-tail recovery, and watermark pruning.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cws_core::budget::ResourceBudget;
use cws_core::columns::RecordColumns;
use cws_core::durable::{fs_error, sync_dir, TEMP_SUFFIX};
use cws_core::{CwsError, Key, Result};

use super::frame::{
    encode_barrier, encode_elements, encode_records, max_records_per_frame, FramePayload,
    MAX_ELEMENTS_PER_FRAME,
};
use super::segment::{
    create_segment, decode_header, parse_segment_seq, scan_frames, QUARANTINE_SUFFIX,
    SEGMENT_HEADER_BYTES,
};

/// When journal appends are flushed to stable storage.
///
/// Epoch barriers and segment rotations **always** fsync regardless of the
/// policy, so a published epoch's records are durable by the time its
/// snapshot commits; the policy only tunes how much of the *current,
/// unpublished* window a power loss may cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append — the zero-loss default; each accepted
    /// record is durable before ingestion sees it.
    PerBatch,
    /// Fsync after every `n` appends — bounded loss (at most the last `n`
    /// batches on power failure; process crashes lose nothing since the OS
    /// still holds the written pages).
    EveryN(u64),
    /// Fsync only on rotation and barriers — fastest; a power loss may cost
    /// the whole unpublished window, a process crash still loses nothing.
    OnRotate,
}

/// Configuration of a write-ahead journal, attached to a pipeline with
/// [`PipelineBuilder::journal`](crate::pipeline::PipelineBuilder::journal).
#[derive(Debug, Clone)]
pub struct WalConfig {
    pub(crate) dir: PathBuf,
    pub(crate) segment_bytes: u64,
    pub(crate) sync: SyncPolicy,
    pub(crate) budget: ResourceBudget,
}

impl WalConfig {
    /// A journal living in `dir` with the defaults: 1 MiB segment rotation,
    /// [`SyncPolicy::PerBatch`], unlimited disk budget.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            sync: SyncPolicy::PerBatch,
            budget: ResourceBudget::unlimited(),
        }
    }

    /// Rotates the active segment at the first frame boundary at or past
    /// this many bytes (default 1 MiB). Epoch barriers also rotate, so one
    /// sealed segment never spans a publish boundary and pruning can
    /// reclaim it as soon as its epoch is covered by a snapshot.
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// The fsync policy (default [`SyncPolicy::PerBatch`]).
    #[must_use]
    pub fn sync(mut self, policy: SyncPolicy) -> Self {
        self.sync = policy;
        self
    }

    /// Caps the journal's total on-disk bytes (live segments, sealed +
    /// active). An append that would breach the cap fails with a typed
    /// [`CwsError::BudgetExceeded`] (`resource: "wal-bytes"`) **before**
    /// writing anything — the journal never silently truncates. Barrier
    /// frames are exempt: a full journal must still be able to publish,
    /// since publishing is exactly what prunes it.
    ///
    /// Only the byte cap of the budget is meaningful here; a key cap or
    /// deadline on a WAL budget is dead configuration and rejected at open.
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The journal directory this configuration points at.
    #[must_use]
    pub fn dir_path(&self) -> &Path {
        &self.dir
    }
}

/// What opening a journal found on disk and did about it.
#[derive(Debug, Clone, Default)]
pub struct WalOpenReport {
    /// Live segments that survived (the fresh active segment excluded).
    pub segments_kept: usize,
    /// Clean frames available for replay across surviving segments.
    pub clean_frames: usize,
    /// Segments whose tail was torn and truncated back to the last clean
    /// frame.
    pub torn_segments: usize,
    /// Bytes removed by torn-tail truncation.
    pub truncated_bytes: u64,
    /// Segments condemned (bad header, or stranded behind a torn segment)
    /// and renamed `…​.quarantined` for forensics.
    pub quarantined_segments: usize,
    /// Abandoned `…​.tmp` files (crashes mid-rotation) removed.
    pub removed_temps: usize,
}

#[derive(Debug)]
struct ActiveSegment {
    file: fs::File,
    path: PathBuf,
    seq: u64,
    len: u64,
    max_epoch: Option<u64>,
}

#[derive(Debug, Clone)]
struct SealedSegment {
    path: PathBuf,
    len: u64,
    max_epoch: Option<u64>,
}

/// A segmented write-ahead journal of ingestion batches.
///
/// Owned and driven by
/// [`EpochedPipeline`](crate::continuous::EpochedPipeline); user code
/// configures it through [`WalConfig`] and reads its state through the
/// accessors here.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    segment_bytes: u64,
    sync: SyncPolicy,
    max_bytes: Option<u64>,
    num_assignments: usize,
    sealed: Vec<SealedSegment>,
    active: ActiveSegment,
    appended_since_sync: u64,
    suppress_prune: bool,
}

impl Journal {
    /// Opens (creating if necessary) the journal directory, recovering it
    /// to a clean state: abandoned temps are removed, torn segment tails
    /// are truncated back to the last clean frame, segments with condemned
    /// headers — and any segment stranded behind a torn one, whose frames
    /// would otherwise replay with a hole in the middle of the stream —
    /// are renamed `…​.quarantined`, and a fresh active segment is started
    /// (sequence numbers are never reused).
    ///
    /// # Errors
    /// Typed [`CwsError::InvalidParameter`] for dead configuration (zero
    /// `EveryN`, a segment cap smaller than one header, a WAL budget with a
    /// key cap or deadline, or a directory written with a different
    /// assignment count); [`CwsError::Store`] for filesystem failures.
    /// On-disk corruption is never an error — it is quarantined/truncated
    /// and reported.
    pub(crate) fn open(config: WalConfig, num_assignments: usize) -> Result<(Self, WalOpenReport)> {
        let WalConfig { dir, segment_bytes, sync, budget } = config;
        if let SyncPolicy::EveryN(0) = sync {
            return Err(CwsError::InvalidParameter {
                name: "sync",
                message: "SyncPolicy::EveryN(0) never syncs; use OnRotate to say that".to_string(),
            });
        }
        if segment_bytes < SEGMENT_HEADER_BYTES as u64 {
            return Err(CwsError::InvalidParameter {
                name: "segment_bytes",
                message: format!(
                    "a segment cap of {segment_bytes} bytes cannot hold the \
                     {SEGMENT_HEADER_BYTES}-byte segment header"
                ),
            });
        }
        if budget.max_keys().is_some() || budget.deadline().is_some() {
            return Err(CwsError::InvalidParameter {
                name: "wal_budget",
                message: "a journal budget governs bytes only; a key cap or deadline on it \
                          is dead configuration"
                    .to_string(),
            });
        }
        fs::create_dir_all(&dir).map_err(|e| fs_error("create_dir", &dir, &e))?;

        let mut report = WalOpenReport::default();
        let mut live: Vec<(u64, PathBuf)> = Vec::new();
        let mut max_seq_seen: Option<u64> = None;
        let entries = fs::read_dir(&dir).map_err(|e| fs_error("read_dir", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| fs_error("read_dir", &dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(TEMP_SUFFIX) {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| fs_error("remove", &path, &e))?;
                report.removed_temps += 1;
            } else if let Some(seq) = parse_segment_seq(name) {
                max_seq_seen = Some(max_seq_seen.map_or(seq, |m: u64| m.max(seq)));
                live.push((seq, entry.path()));
            } else if let Some(stem) = name.strip_suffix(QUARANTINE_SUFFIX) {
                // Quarantined forensics from an earlier recovery; only their
                // sequence numbers matter (never reuse them).
                if let Some(seq) = parse_segment_seq(stem) {
                    max_seq_seen = Some(max_seq_seen.map_or(seq, |m: u64| m.max(seq)));
                }
            }
        }
        live.sort_by_key(|(seq, _)| *seq);

        let mut sealed = Vec::new();
        let mut condemn_rest = false;
        for (seq, path) in live {
            if condemn_rest {
                quarantine(&path)?;
                report.quarantined_segments += 1;
                continue;
            }
            let bytes = fs::read(&path).map_err(|e| fs_error("read", &path, &e))?;
            let header = match decode_header(&bytes) {
                Ok(header) if header.seq == seq => header,
                // Wrong magic/version/checksum, or a header disagreeing
                // with its own file name: condemned, along with everything
                // after it (the stream is broken here).
                _ => {
                    quarantine(&path)?;
                    report.quarantined_segments += 1;
                    condemn_rest = true;
                    continue;
                }
            };
            if header.num_assignments != num_assignments as u64 {
                return Err(CwsError::InvalidParameter {
                    name: "journal",
                    message: format!(
                        "journal segment {} was written with {} weight assignments, \
                         this pipeline has {num_assignments}",
                        path.display(),
                        header.num_assignments
                    ),
                });
            }
            let scan = scan_frames(&bytes, num_assignments);
            if scan.torn.is_some() {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| fs_error("open", &path, &e))?;
                file.set_len(scan.clean_len).map_err(|e| fs_error("truncate", &path, &e))?;
                file.sync_all().map_err(|e| fs_error("fsync", &path, &e))?;
                report.torn_segments += 1;
                report.truncated_bytes += bytes.len() as u64 - scan.clean_len;
                condemn_rest = true;
            }
            report.clean_frames += scan.frames.len();
            report.segments_kept += 1;
            sealed.push(SealedSegment { path, len: scan.clean_len, max_epoch: scan.max_epoch });
        }
        sync_dir(&dir)?;

        let next_seq = max_seq_seen.map_or(0, |m| m + 1);
        let (path, file) = create_segment(&dir, next_seq, num_assignments as u64)?;
        let active = ActiveSegment {
            file,
            path,
            seq: next_seq,
            len: SEGMENT_HEADER_BYTES as u64,
            max_epoch: None,
        };
        let journal = Self {
            dir,
            segment_bytes,
            sync,
            max_bytes: budget.max_bytes(),
            num_assignments,
            sealed,
            active,
            appended_since_sync: 0,
            suppress_prune: false,
        };
        Ok((journal, report))
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes of live segments (sealed + active).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.len).sum::<u64>() + self.active.len
    }

    /// Number of live segments, the active one included.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.sealed.len() + 1
    }

    /// The configured fsync policy.
    #[must_use]
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// `true` once pruning has been suspended to preserve unpublished data
    /// (after a failed self-heal); cleared only by reopening the journal
    /// through recovery.
    #[must_use]
    pub fn pruning_suppressed(&self) -> bool {
        self.suppress_prune
    }

    /// Stops [`mark_covered`](Self::mark_covered) from deleting anything —
    /// the last-resort switch when in-memory state could not be healed and
    /// the journal is the only copy of the data.
    pub(crate) fn suppress_pruning(&mut self) {
        self.suppress_prune = true;
    }

    fn check_record_shape(&self, weights: usize) -> Result<()> {
        if weights == self.num_assignments {
            Ok(())
        } else {
            Err(CwsError::InvalidParameter {
                name: "weights",
                message: format!(
                    "record carries {weights} weights, the journal (and pipeline) expect {}",
                    self.num_assignments
                ),
            })
        }
    }

    /// Journals one whole record under `epoch`.
    pub(crate) fn append_record(&mut self, epoch: u64, key: Key, weights: &[f64]) -> Result<()> {
        self.check_record_shape(weights.len())?;
        let frame = encode_records(epoch, &[key], weights, self.num_assignments);
        self.append_frame(&frame, false, epoch)
    }

    /// Journals a columnar batch under `epoch`, chunked to the frame cap.
    pub(crate) fn append_columns(&mut self, epoch: u64, columns: &RecordColumns) -> Result<()> {
        self.check_record_shape(columns.num_assignments())?;
        let keys = columns.keys();
        let cap = max_records_per_frame(self.num_assignments);
        let mut row = Vec::with_capacity(self.num_assignments);
        let mut start = 0;
        while start < keys.len() {
            let len = cap.min(keys.len() - start);
            let mut weights = Vec::with_capacity(len * self.num_assignments);
            for index in start..start + len {
                columns.copy_row_into(index, &mut row);
                weights.extend_from_slice(&row);
            }
            let frame =
                encode_records(epoch, &keys[start..start + len], &weights, self.num_assignments);
            self.append_frame(&frame, false, epoch)?;
            start += len;
        }
        Ok(())
    }

    /// Journals unaggregated elements under `epoch`, chunked to the frame
    /// cap. Assignment indices must fit `u32` (anything larger could not
    /// round-trip); semantic validation stays with the pipeline so replay
    /// reproduces its accept/reject decisions exactly.
    pub(crate) fn append_elements(
        &mut self,
        epoch: u64,
        elements: &[(Key, usize, f64)],
    ) -> Result<()> {
        let mut items = Vec::with_capacity(elements.len().min(MAX_ELEMENTS_PER_FRAME));
        for chunk in elements.chunks(MAX_ELEMENTS_PER_FRAME.max(1)) {
            items.clear();
            for &(key, assignment, weight) in chunk {
                let assignment =
                    u32::try_from(assignment).map_err(|_| CwsError::InvalidParameter {
                        name: "assignment",
                        message: format!("assignment index {assignment} does not fit the journal"),
                    })?;
                items.push((key, assignment, weight));
            }
            let frame = encode_elements(epoch, &items);
            self.append_frame(&frame, false, epoch)?;
        }
        Ok(())
    }

    /// Journals one unaggregated element under `epoch`.
    pub(crate) fn append_element(
        &mut self,
        epoch: u64,
        key: Key,
        assignment: usize,
        weight: f64,
    ) -> Result<()> {
        self.append_elements(epoch, &[(key, assignment, weight)])
    }

    /// Writes an epoch barrier: everything journaled before it belongs to
    /// `epoch`. Always fsyncs and rotates, so by the time the snapshot of
    /// `epoch` commits, every record it covers is durable in a sealed
    /// segment that [`mark_covered`](Self::mark_covered) can later reclaim
    /// whole.
    pub(crate) fn barrier(&mut self, epoch: u64) -> Result<()> {
        let frame = encode_barrier(epoch);
        self.append_frame(&frame, true, epoch)
    }

    /// Records that every epoch up to and including `epoch` is covered by a
    /// durable snapshot, deleting sealed segments whose frames are all
    /// covered. Returns how many segments were reclaimed. A no-op while
    /// pruning is suppressed.
    pub(crate) fn mark_covered(&mut self, epoch: u64) -> Result<usize> {
        if self.suppress_prune {
            return Ok(0);
        }
        let mut pruned = 0;
        while let Some(first) = self.sealed.first() {
            if first.max_epoch.is_some_and(|tag| tag > epoch) {
                break;
            }
            let segment = self.sealed.remove(0);
            fs::remove_file(&segment.path).map_err(|e| fs_error("remove", &segment.path, &e))?;
            pruned += 1;
        }
        if pruned > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(pruned)
    }

    /// Reads every clean frame currently in the journal, oldest first
    /// (sealed segments then the active one).
    pub(crate) fn read_frames(&self) -> Result<Vec<FramePayload>> {
        let mut frames = Vec::new();
        let paths = self.sealed.iter().map(|s| &s.path).chain(std::iter::once(&self.active.path));
        for path in paths {
            let bytes = fs::read(path).map_err(|e| fs_error("read", path, &e))?;
            frames.extend(scan_frames(&bytes, self.num_assignments).frames);
        }
        Ok(frames)
    }

    fn append_frame(&mut self, frame: &[u8], is_barrier: bool, epoch: u64) -> Result<()> {
        if let (Some(limit), false) = (self.max_bytes, is_barrier) {
            let used = self.total_bytes();
            let requested = frame.len() as u64;
            if used + requested > limit {
                return Err(CwsError::BudgetExceeded {
                    resource: "wal-bytes",
                    used,
                    requested,
                    limit,
                });
            }
        }
        self.active.file.write_all(frame).map_err(|e| fs_error("append", &self.active.path, &e))?;
        self.active.len += frame.len() as u64;
        self.active.max_epoch =
            Some(self.active.max_epoch.map_or(epoch, |seen: u64| seen.max(epoch)));
        if is_barrier {
            self.sync_active()?;
            return self.rotate();
        }
        let synced = match self.sync {
            SyncPolicy::PerBatch => true,
            SyncPolicy::EveryN(n) => {
                self.appended_since_sync += 1;
                self.appended_since_sync >= n
            }
            SyncPolicy::OnRotate => false,
        };
        // A segment is sealed durable: sync before rotating, once, whether
        // the policy or the rotation asked for it.
        let rotating = self.active.len >= self.segment_bytes;
        if synced || rotating {
            self.sync_active()?;
        }
        if rotating {
            self.rotate()?;
        }
        Ok(())
    }

    fn sync_active(&mut self) -> Result<()> {
        self.active.file.sync_all().map_err(|e| fs_error("fsync", &self.active.path, &e))?;
        self.appended_since_sync = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        let seq = self.active.seq + 1;
        let (path, file) = create_segment(&self.dir, seq, self.num_assignments as u64)?;
        let fresh =
            ActiveSegment { file, path, seq, len: SEGMENT_HEADER_BYTES as u64, max_epoch: None };
        let old = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(SealedSegment { path: old.path, len: old.len, max_epoch: old.max_epoch });
        Ok(())
    }
}

fn quarantine(path: &Path) -> Result<()> {
    let mut condemned = path.as_os_str().to_os_string();
    condemned.push(QUARANTINE_SUFFIX);
    fs::rename(path, &condemned).map_err(|e| fs_error("quarantine", path, &e))
}
