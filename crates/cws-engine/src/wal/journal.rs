//! The segmented write-ahead journal: configuration, appends, rotation,
//! fsync policy, open-time torn-tail recovery, and watermark pruning.
//!
//! An append is three calls. [`Journal::append`] encodes the push's frames
//! into one journal-owned buffer, writes them, and starts the fsync the
//! policy asks for — on the journal's helper thread when the caller has
//! work to overlap with it. [`Journal::sync`] waits for that fsync. Then
//! [`Journal::keep`] settles the append, or [`Journal::withdraw`] takes it
//! back when the pipeline refused the push. A failed write or fsync, and
//! a withdrawal, cut the append back off the segment (truncated to its old
//! length and fsynced), so it leaves no frame behind; if even that fails,
//! the journal refuses every later append until recovery reopens it.

use std::fs;
use std::hint::spin_loop;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cws_core::columns::{check_arity, RecordColumns};
use cws_core::durable::{fs_error, sync_dir, TEMP_SUFFIX};
use cws_core::{CwsError, Result};

use super::frame::{encode_barrier, encode_elements, encode_records, Frame};
use super::segment::{
    create_segment, decode_header, parse_segment_seq, scan_frames, QUARANTINE_SUFFIX,
    SEGMENT_HEADER_BYTES,
};
use crate::pipeline::Push;

/// When journal appends are flushed to stable storage.
///
/// Epoch barriers and segment rotations **always** fsync regardless of the
/// policy, so a published epoch's records are durable by the time its
/// snapshot commits; the policy only tunes how much of the *current,
/// unpublished* window a power loss may cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append — the zero-loss default. A push that
    /// returns `Ok` is durable. A push that returns `Err` absorbed nothing
    /// and left no frame behind, unless the pipeline refused it after
    /// absorbing part of it (a sum overflow mid-batch); that frame stays
    /// for recovery to replay.
    /// While the fsync is in flight the pipeline may already resolve the
    /// push's keys in its aggregation table, but it combines no weight
    /// before the fsync has succeeded.
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
    pub(crate) max_bytes: Option<u64>,
}

impl WalConfig {
    /// A journal living in `dir` with the defaults: 1 MiB segment rotation,
    /// [`SyncPolicy::PerBatch`], no cap on disk bytes.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            sync: SyncPolicy::PerBatch,
            max_bytes: None,
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
    #[must_use]
    pub fn max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
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
    /// Shared with the fsync helper while a sync is in flight.
    file: Arc<fs::File>,
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

/// Frame buffers that grew past this are released after their append
/// instead of being kept for the next one.
const RETAINED_FRAME_BYTES: usize = 4 << 20;

/// How long either side of the fsync helper spins for the other before it
/// parks: a few SSD fsyncs long, so back-to-back appends never park, and a
/// slow disk or an idle journal costs at most this much spinning per
/// append.
const SYNC_SPIN: Duration = Duration::from_millis(1);

/// Where a written append's fsync runs, if it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingSync {
    None,
    /// On the caller's thread, inside [`Journal::sync`].
    Inline,
    /// Already running on the helper thread.
    Helper,
}

/// An append that is written but not yet settled: what [`Journal::keep`]
/// and [`Journal::withdraw`] need to keep it or cut it back off.
#[derive(Debug)]
struct Unsettled {
    /// Active segment length and epoch watermark before the append.
    len: u64,
    max_epoch: Option<u64>,
    sync: PendingSync,
    /// The segment must rotate once this append is durable (a barrier,
    /// or the segment reached its byte cap).
    seal: bool,
}

/// The journal's fsync helper: one persistent thread that runs `sync_all`
/// on the active segment while the caller stages the push, joined when the
/// journal drops. Spawning a thread per append would cost more than the
/// overlap saves.
///
/// Both sides spin for [`SYNC_SPIN`] before they park: the caller for the
/// fsync's result, the helper for the next request. Parking on every
/// append halts and wakes both cores once per append; on a 2-vCPU KVM
/// guest that made the caller's publishes about 10% slower and made them
/// vary from run to run. On a single core spinning only delays the other
/// side, so neither spins there.
#[derive(Debug)]
struct SyncHelper {
    requests: Option<mpsc::Sender<Arc<fs::File>>>,
    results: mpsc::Receiver<io::Result<()>>,
    worker: Option<thread::JoinHandle<()>>,
    spin: Duration,
}

impl SyncHelper {
    fn spawn() -> io::Result<Self> {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        let spin = if cores > 1 { SYNC_SPIN } else { Duration::ZERO };
        let (requests, inbox) = mpsc::channel::<Arc<fs::File>>();
        let (outbox, results) = mpsc::channel();
        let worker = thread::Builder::new().name("cws-wal-fsync".to_string()).spawn(move || {
            while let Some(file) = recv_spinning(&inbox, spin) {
                if outbox.send(file.sync_all()).is_err() {
                    break;
                }
            }
        })?;
        Ok(Self { requests: Some(requests), results, worker: Some(worker), spin })
    }

    /// Starts an fsync of `file`; `false` if the helper is gone.
    fn start(&self, file: &Arc<fs::File>) -> bool {
        self.requests.as_ref().is_some_and(|requests| requests.send(Arc::clone(file)).is_ok())
    }

    /// Waits for the fsync [`start`](Self::start) began.
    fn wait(&self) -> io::Result<()> {
        recv_spinning(&self.results, self.spin)
            .unwrap_or_else(|| Err(io::Error::other("the fsync helper exited")))
    }
}

/// The next message on `channel`, spinning for up to `spin` before it
/// parks; `None` once the sender is gone.
fn recv_spinning<T>(channel: &mpsc::Receiver<T>, spin: Duration) -> Option<T> {
    let spin_until = Instant::now() + spin;
    loop {
        match channel.try_recv() {
            Ok(message) => return Some(message),
            Err(mpsc::TryRecvError::Disconnected) => return None,
            Err(mpsc::TryRecvError::Empty) if Instant::now() < spin_until => spin_loop(),
            Err(mpsc::TryRecvError::Empty) => return channel.recv().ok(),
        }
    }
}

impl Drop for SyncHelper {
    fn drop(&mut self) {
        self.requests = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Closes the handles of unlinked segments on a thread of its own.
///
/// Unlinking a file only removes its name; the filesystem frees its blocks
/// when the last handle closes, and on a filesystem that discards freed
/// blocks that is most of a prune's cost. [`Journal::mark_covered`] holds a
/// handle across each unlink and hands them here, so the freeing leaves
/// the caller's thread. It is not the fsync helper: queued there, the
/// closes would delay the next epoch's fsyncs. At most one reclaim is
/// outstanding: the previous one is joined before the next starts, and
/// when the journal drops.
#[derive(Debug, Default)]
struct Reclaimer {
    worker: Option<thread::JoinHandle<()>>,
    /// Handles handed over so far.
    #[cfg(test)]
    handed: usize,
}

impl Reclaimer {
    /// Closes `handles` on a fresh thread once the previous reclaim is
    /// done. A failed spawn drops the closure, and the handles with it, on
    /// this thread: the same outcome at the inline cost.
    fn release(&mut self, handles: Vec<fs::File>) {
        self.join();
        if handles.is_empty() {
            return;
        }
        #[cfg(test)]
        {
            self.handed += handles.len();
        }
        let spawned =
            thread::Builder::new().name("cws-wal-reclaim".to_string()).spawn(move || drop(handles));
        self.worker = spawned.ok();
    }

    fn join(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Reclaimer {
    fn drop(&mut self) {
        self.join();
    }
}

/// Unlinks `path`. On Unix the returned handle still holds the file's
/// blocks until it closes; elsewhere the unlink frees them and there is no
/// handle.
fn unlink_holding(path: &Path) -> io::Result<Option<fs::File>> {
    #[cfg(unix)]
    let handle = fs::File::open(path).ok();
    #[cfg(not(unix))]
    let handle = None;
    fs::remove_file(path).map(|()| handle)
}

/// Failures a test can arm for the journal's next write, fsync, cut-back
/// or reclaim.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedFault {
    /// The next append writes half its bytes, then fails.
    TornWrite,
    /// The next fsync fails.
    Sync,
    /// The next cut-back of a failed append fails, leaving the frame.
    CutBack,
    /// The next reclaim thread fails to spawn; its handles close inline.
    ReclaimSpawn,
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
    /// Appends written since the last successful fsync.
    appended_since_sync: u64,
    suppress_prune: bool,
    /// The frame buffer, reused across appends.
    buf: Vec<u8>,
    unsettled: Option<Unsettled>,
    /// Spawned at the first overlapped fsync.
    helper: Option<SyncHelper>,
    reclaimer: Reclaimer,
    /// The active segment is sealed durable and must rotate. Cleared by a
    /// successful rotation, so a failed one is retried at the next append.
    rotate_due: bool,
    /// Why appends are refused: a failed append could not be cut back off.
    refused: Option<String>,
    #[cfg(test)]
    faults: Vec<InjectedFault>,
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
    /// `EveryN`, a segment cap smaller than one header, or a directory
    /// written with a different assignment count); [`CwsError::Store`] for
    /// filesystem failures. On-disk corruption is never an error — it is
    /// quarantined/truncated and reported.
    pub(crate) fn open(config: WalConfig, num_assignments: usize) -> Result<(Self, WalOpenReport)> {
        let WalConfig { dir, segment_bytes, sync, max_bytes } = config;
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
            let scan = scan_frames(&bytes, num_assignments, |_| {});
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
            report.clean_frames += scan.frames;
            report.segments_kept += 1;
            sealed.push(SealedSegment { path, len: scan.clean_len, max_epoch: scan.max_epoch });
        }
        sync_dir(&dir)?;

        let next_seq = max_seq_seen.map_or(0, |m| m + 1);
        let (path, file) = create_segment(&dir, next_seq, num_assignments as u64)?;
        let active = ActiveSegment {
            file: Arc::new(file),
            path,
            seq: next_seq,
            len: SEGMENT_HEADER_BYTES as u64,
            max_epoch: None,
        };
        let journal = Self {
            dir,
            segment_bytes,
            sync,
            max_bytes,
            num_assignments,
            sealed,
            active,
            appended_since_sync: 0,
            suppress_prune: false,
            buf: Vec::new(),
            unsettled: None,
            helper: None,
            reclaimer: Reclaimer::default(),
            rotate_due: false,
            refused: None,
            #[cfg(test)]
            faults: Vec::new(),
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
    /// (after a store-layer publish failure); cleared only by reopening the
    /// journal through recovery.
    #[must_use]
    pub fn pruning_suppressed(&self) -> bool {
        self.suppress_prune
    }

    /// Stops [`mark_covered`](Self::mark_covered) from deleting anything —
    /// the switch for when a snapshot could not be stored and the journal
    /// is the only durable copy of its epoch.
    pub(crate) fn suppress_pruning(&mut self) {
        self.suppress_prune = true;
    }

    /// Frames `push` under `epoch` into the journal's buffer — records
    /// and elements copied once, straight from the caller's slices — and
    /// writes the frames. If the sync policy asks for an fsync, it starts
    /// on the helper thread when `overlap` says the caller has work to do
    /// meanwhile, and runs inside [`sync`](Self::sync) otherwise. Every
    /// `append` must be followed by `sync` and then [`keep`](Self::keep)
    /// or [`withdraw`](Self::withdraw).
    /// An empty batch writes nothing.
    ///
    /// # Errors
    /// Before anything is written: `InvalidParameter` for a record of the
    /// wrong arity or an assignment index beyond `u32`, `BudgetExceeded`
    /// (`"wal-bytes"`) when the frames would overflow the byte cap, and a
    /// typed `Store` error once appends are refused. A failed write is a
    /// `Store` error with the torn bytes already cut back off.
    pub(crate) fn append(&mut self, epoch: u64, push: Push<'_>, overlap: bool) -> Result<()> {
        debug_assert!(self.unsettled.is_none(), "keep or withdraw the last append first");
        self.buf.clear();
        let num_assignments = self.num_assignments;
        match push {
            Push::Record(key, weights) => {
                check_arity(num_assignments, weights.len())?;
                encode_records(&mut self.buf, epoch, &[key], num_assignments, |_, a| weights[a]);
            }
            Push::Columns(columns) => self.encode_columns(epoch, columns)?,
            Push::Element(key, assignment, weight) => {
                encode_elements(&mut self.buf, epoch, &[(key, assignment, weight)])?;
            }
            Push::Elements(elements) => encode_elements(&mut self.buf, epoch, elements)?,
        }
        self.write_buffered(epoch, false, overlap)
    }

    fn encode_columns(&mut self, epoch: u64, columns: &RecordColumns) -> Result<()> {
        check_arity(self.num_assignments, columns.num_assignments())?;
        let weight = |row: usize, assignment: usize| columns.lane(assignment)[row];
        encode_records(&mut self.buf, epoch, columns.keys(), self.num_assignments, weight);
        Ok(())
    }

    /// Writes an epoch barrier: everything journaled before it belongs to
    /// `epoch`. Always fsyncs and rotates, so by the time the snapshot of
    /// `epoch` commits, every record it covers is durable in a sealed
    /// segment that [`mark_covered`](Self::mark_covered) can later reclaim
    /// whole. A failed rotation does not fail the barrier: the frames are
    /// durable, and the rotation is retried at the next append.
    pub(crate) fn barrier(&mut self, epoch: u64) -> Result<()> {
        debug_assert!(self.unsettled.is_none(), "keep or withdraw the last append first");
        self.buf.clear();
        encode_barrier(&mut self.buf, epoch);
        self.write_buffered(epoch, true, false)?;
        self.sync()?;
        self.keep();
        Ok(())
    }

    /// Writes the buffered frames to the active segment and records the
    /// append as unsettled, starting its fsync if one is due.
    fn write_buffered(&mut self, epoch: u64, is_barrier: bool, overlap: bool) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if let Some(reason) = &self.refused {
            return Err(CwsError::Store {
                op: "append",
                path: self.active.path.display().to_string(),
                message: format!(
                    "the journal refuses appends until recovery reopens it: a failed append \
                     could not be cut back off ({reason})"
                ),
            });
        }
        if self.rotate_due {
            let _ = self.rotate();
        }
        if let (Some(limit), false) = (self.max_bytes, is_barrier) {
            let used = self.total_bytes();
            let requested = self.buf.len() as u64;
            if used + requested > limit {
                return Err(CwsError::BudgetExceeded {
                    resource: "wal-bytes",
                    used,
                    requested,
                    limit,
                });
            }
        }
        let (len, max_epoch) = (self.active.len, self.active.max_epoch);
        if let Err(error) = self.write_frames() {
            let error = fs_error("append", &self.active.path, &error);
            self.cut_back(len, max_epoch);
            return Err(error);
        }
        self.active.len += self.buf.len() as u64;
        self.active.max_epoch = Some(max_epoch.map_or(epoch, |seen: u64| seen.max(epoch)));
        self.appended_since_sync += 1;
        // A segment is sealed durable: sync before rotating, whether the
        // policy or the rotation asked for it.
        let seal = is_barrier || self.rotate_due || self.active.len >= self.segment_bytes;
        let due = seal
            || match self.sync {
                SyncPolicy::PerBatch => true,
                SyncPolicy::EveryN(n) => self.appended_since_sync >= n,
                SyncPolicy::OnRotate => false,
            };
        let sync = match (due, overlap) {
            (false, _) => PendingSync::None,
            (true, false) => PendingSync::Inline,
            (true, true) => self.start_helper_sync(),
        };
        self.unsettled = Some(Unsettled { len, max_epoch, sync, seal });
        if self.buf.capacity() > RETAINED_FRAME_BYTES {
            self.buf = Vec::new();
        }
        Ok(())
    }

    fn write_frames(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if self.take_fault(InjectedFault::TornWrite) {
            (&*self.active.file).write_all(&self.buf[..self.buf.len() / 2])?;
            return Err(io::Error::other("injected torn write"));
        }
        (&*self.active.file).write_all(&self.buf)
    }

    /// Hands the active segment's fsync to the helper thread, spawning it
    /// on first use; falls back to an inline fsync if it cannot run.
    fn start_helper_sync(&mut self) -> PendingSync {
        if self.helper.is_none() {
            self.helper = SyncHelper::spawn().ok();
        }
        match &self.helper {
            Some(helper) if helper.start(&self.active.file) => PendingSync::Helper,
            _ => PendingSync::Inline,
        }
    }

    /// Waits for the last [`append`](Self::append)'s fsync, or runs it.
    /// The append stays unsettled until [`keep`](Self::keep) or
    /// [`withdraw`](Self::withdraw). A no-op when nothing is unsettled or
    /// the policy asked for no fsync.
    ///
    /// # Errors
    /// A typed `Store` error when the fsync failed; the append has then
    /// been cut back off the segment and is settled.
    pub(crate) fn sync(&mut self) -> Result<()> {
        let Some(unsettled) = self.unsettled.as_mut() else {
            return Ok(());
        };
        let synced = match std::mem::replace(&mut unsettled.sync, PendingSync::None) {
            PendingSync::None => return Ok(()),
            PendingSync::Inline => self.active.file.sync_all(),
            PendingSync::Helper => self.helper.as_ref().expect("the helper started it").wait(),
        };
        #[cfg(test)]
        let synced = match self.take_fault(InjectedFault::Sync) {
            true => Err(io::Error::other("injected fsync failure")),
            false => synced,
        };
        if let Err(error) = synced {
            let error = fs_error("fsync", &self.active.path, &error);
            self.withdraw();
            return Err(error);
        }
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Keeps the last append once [`sync`](Self::sync) succeeded, and
    /// rotates if the segment is due. A no-op when nothing is unsettled.
    pub(crate) fn keep(&mut self) {
        let Some(unsettled) = self.unsettled.take() else {
            return;
        };
        debug_assert_eq!(unsettled.sync, PendingSync::None, "sync before keeping");
        self.rotate_due |= unsettled.seal;
        if self.rotate_due {
            // Best-effort: the frames are durable either way, and a failed
            // rotation is retried at the next append.
            let _ = self.rotate();
        }
    }

    /// Withdraws the last append, for a push the pipeline refused: waits
    /// out an fsync still in flight, then cuts the frames back off the
    /// segment. A no-op when nothing is unsettled.
    pub(crate) fn withdraw(&mut self) {
        let Some(unsettled) = self.unsettled.take() else {
            return;
        };
        if unsettled.sync == PendingSync::Helper {
            let _ = self.helper.as_ref().expect("the helper started it").wait();
        }
        self.cut_back(unsettled.len, unsettled.max_epoch);
    }

    /// Cuts a failed append back off the active segment: truncates it to
    /// `len` and fsyncs. If that fails too, the segment may still hold the
    /// frame, whole or torn, so every later append is refused until
    /// recovery reopens the journal and truncates at the last clean frame.
    #[cold]
    fn cut_back(&mut self, len: u64, max_epoch: Option<u64>) {
        #[cfg(test)]
        if self.take_fault(InjectedFault::CutBack) {
            self.refused = Some("injected truncate failure".to_string());
            return;
        }
        let file = &self.active.file;
        match file.set_len(len).and_then(|()| file.sync_all()) {
            Ok(()) => {
                self.active.len = len;
                self.active.max_epoch = max_epoch;
                self.appended_since_sync = 0;
            }
            Err(error) => self.refused = Some(error.to_string()),
        }
    }

    /// Arms `fault` for the next write, fsync, cut-back or reclaim it names.
    #[cfg(test)]
    pub(crate) fn fail_next(&mut self, fault: InjectedFault) {
        self.faults.push(fault);
    }

    /// Disarms and reports `fault` if a test armed it.
    #[cfg(test)]
    fn take_fault(&mut self, fault: InjectedFault) -> bool {
        let armed = self.faults.iter().position(|armed| *armed == fault);
        armed.map(|at| self.faults.remove(at)).is_some()
    }

    /// Records that every epoch up to and including `epoch` is covered by a
    /// durable snapshot, deleting sealed segments whose frames are all
    /// covered. Returns how many segments were reclaimed. A no-op while
    /// pruning is suppressed.
    ///
    /// The covered segments are unlinked and the directory fsynced before
    /// this returns, so their removal is durable. On Unix their blocks are
    /// freed just after, when a reclaim thread closes the handles held
    /// across the unlinks; at most one call's segments wait there.
    ///
    /// # Errors
    /// The first failed unlink, as a typed `Store` error. A segment that
    /// could not be deleted stays listed — and counted by
    /// [`total_bytes`](Self::total_bytes) — so the next call retries it.
    pub(crate) fn mark_covered(&mut self, epoch: u64) -> Result<usize> {
        if self.suppress_prune {
            return Ok(0);
        }
        let covered = self
            .sealed
            .iter()
            .take_while(|segment| segment.max_epoch.is_none_or(|tag| tag <= epoch))
            .count();
        let mut kept = Vec::new();
        let mut handles = Vec::new();
        let mut first_error = None;
        for segment in self.sealed.drain(..covered) {
            match unlink_holding(&segment.path) {
                Ok(handle) => handles.extend(handle),
                Err(error) if error.kind() == io::ErrorKind::NotFound => {}
                Err(error) => {
                    first_error.get_or_insert(fs_error("remove", &segment.path, &error));
                    kept.push(segment);
                }
            }
        }
        let pruned = covered - kept.len();
        self.sealed.splice(..0, kept);
        // A crash while the reclaim still holds handles is safe: the
        // directory fsync makes the name removal durable, and a crashed
        // orphan inode is reclaimed by the filesystem, never resurrected
        // under its name.
        if pruned > 0 {
            sync_dir(&self.dir)?;
        }
        self.reclaim(handles);
        first_error.map_or(Ok(pruned), Err)
    }

    /// Hands unlinked segments' handles to the reclaim thread.
    fn reclaim(&mut self, handles: Vec<fs::File>) {
        #[cfg(test)]
        if self.take_fault(InjectedFault::ReclaimSpawn) {
            // What a failed spawn does: the handles close here.
            drop(handles);
            return;
        }
        self.reclaimer.release(handles);
    }

    /// Hands every clean frame currently in the journal to `visit`, oldest
    /// first (sealed segments, then the active one). Segments are read one
    /// at a time into one reused buffer, and frames are decoded in place.
    pub(crate) fn for_each_frame(&self, mut visit: impl FnMut(Frame<'_>)) -> Result<()> {
        let mut bytes = Vec::new();
        let paths = self.sealed.iter().map(|s| &s.path).chain(std::iter::once(&self.active.path));
        for path in paths {
            bytes.clear();
            fs::File::open(path)
                .and_then(|mut file| file.read_to_end(&mut bytes))
                .map_err(|e| fs_error("read", path, &e))?;
            scan_frames(&bytes, self.num_assignments, &mut visit);
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        let seq = self.active.seq + 1;
        let (path, file) = create_segment(&self.dir, seq, self.num_assignments as u64)?;
        let fresh = ActiveSegment {
            file: Arc::new(file),
            path,
            seq,
            len: SEGMENT_HEADER_BYTES as u64,
            max_epoch: None,
        };
        let old = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(SealedSegment { path: old.path, len: old.len, max_epoch: old.max_epoch });
        self.rotate_due = false;
        Ok(())
    }
}

fn quarantine(path: &Path) -> Result<()> {
    let mut condemned = path.as_os_str().to_os_string();
    condemned.push(QUARANTINE_SUFFIX);
    fs::rename(path, &condemned).map_err(|e| fs_error("quarantine", path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cws-journal-{tag}-{}-{unique}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A journal whose epoch 1 fills several sealed 256-byte segments.
    fn journal_with_a_sealed_epoch(dir: &Path) -> Journal {
        let config = WalConfig::new(dir).segment_bytes(256).sync(SyncPolicy::OnRotate);
        let (mut journal, _) = Journal::open(config, 2).unwrap();
        for key in 0..20u64 {
            journal.append(1, Push::Record(key, &[1.0, 2.0]), false).unwrap();
            journal.sync().unwrap();
            journal.keep();
        }
        journal.barrier(1).unwrap();
        assert!(journal.sealed.len() >= 3, "256-byte segments must rotate");
        journal
    }

    fn file_names(dir: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> =
            fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    }

    /// When the reclaim thread cannot be spawned, the handles close on the
    /// caller's thread and the prune ends exactly as a spawned one does.
    #[test]
    fn a_failed_reclaim_spawn_prunes_exactly_as_a_spawned_one() {
        let (spawned_dir, inline_dir) = (scratch_dir("spawned"), scratch_dir("inline"));
        let mut spawned = journal_with_a_sealed_epoch(&spawned_dir);
        let mut inline = journal_with_a_sealed_epoch(&inline_dir);
        let covered = spawned.sealed.len();
        inline.fail_next(InjectedFault::ReclaimSpawn);
        assert_eq!(spawned.mark_covered(1).unwrap(), covered);
        assert_eq!(inline.mark_covered(1).unwrap(), covered);
        assert_eq!(file_names(&spawned_dir), file_names(&inline_dir));
        assert_eq!(file_names(&inline_dir).len(), 1, "only the active segment is left");
        assert_eq!(spawned.total_bytes(), inline.total_bytes());
        assert_eq!(spawned.reclaimer.handed, covered);
        assert_eq!(inline.reclaimer.handed, 0, "the handles closed inline");
        assert!(inline.faults.is_empty());
        drop((spawned, inline));
        fs::remove_dir_all(&spawned_dir).unwrap();
        fs::remove_dir_all(&inline_dir).unwrap();
    }

    /// A covered segment that cannot be unlinked stays listed, and its
    /// handle is closed at once instead of being handed to the reclaimer.
    #[test]
    fn a_segment_whose_unlink_fails_is_never_handed_to_the_reclaimer() {
        let dir = scratch_dir("stuck");
        let mut journal = journal_with_a_sealed_epoch(&dir);
        let covered = journal.sealed.len();
        // A non-empty directory where the oldest sealed segment was.
        let stuck = journal.sealed[0].path.clone();
        fs::remove_file(&stuck).unwrap();
        fs::create_dir(&stuck).unwrap();
        fs::write(stuck.join("pin"), b"keeps the directory non-empty").unwrap();
        let error = journal.mark_covered(1).unwrap_err();
        assert!(matches!(error, CwsError::Store { op: "remove", .. }), "{error:?}");
        assert_eq!(journal.reclaimer.handed, covered - 1, "every unlinked segment, and no other");
        assert_eq!(journal.num_segments(), 2, "the stuck segment stays listed");
        // Once the path is clear, the retry finds nothing left to hold.
        fs::remove_dir_all(&stuck).unwrap();
        assert_eq!(journal.mark_covered(1).unwrap(), 1);
        assert_eq!(journal.reclaimer.handed, covered - 1);
        assert_eq!(journal.num_segments(), 1);
        drop(journal);
        fs::remove_dir_all(&dir).unwrap();
    }
}
