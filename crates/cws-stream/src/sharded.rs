//! Sharded parallel ingestion: partition keys by hash across worker threads,
//! sample each shard independently, merge bit-exactly.
//!
//! Bottom-k sketches over **disjoint** key partitions merge into the sketch
//! of the union with *zero* approximation error (`BottomKSketch::
//! from_ranked_with_tail` — each partial's `r_{k+1}` competes as a tail
//! candidate, see [`crate::merge`]). That makes parallel ingestion free:
//! route every record to a shard by a deterministic hash of its key, run one
//! hash-once [`MultiAssignmentStreamSampler`] per shard on its own
//! `std::thread`, and merge the per-shard summaries at finalize.
//!
//! # Parity guarantee
//!
//! For any shard count, batch size, ingestion API and arrival order, the
//! finalized [`DispersedSummary`] is **bit-identical** (ranks, weights,
//! `r_{k+1}` tails and all) to the one produced by a single sequential
//! [`MultiAssignmentStreamSampler`] over the same records — sharding is an
//! execution strategy, not an approximation. The integration suite asserts
//! this across rank families, coordination modes and shard counts.
//!
//! # Zero-copy handoff
//!
//! Records cross the thread boundary as structure-of-arrays
//! [`RecordColumns`] batches, never record by record:
//!
//! * [`push_columns_shared`](ShardedDispersedSampler::push_columns_shared)
//!   forwards a whole `Arc<RecordColumns>` batch to a single shard's worker
//!   without touching a byte of it — the zero-copy path. It does not make
//!   one shard as fast as no sharding: on a 2-vCPU host, 2,000,000 keys ×
//!   8 assignments in 4096-record batches (k = 1024, IPPS, median of 7
//!   passes, two runs) ingested at 12.1–14.8 M rec/s with 1 shard and
//!   10.7–14.6 M rec/s with 2, against 29.2–31.9 M rec/s for the hash-once
//!   [`MultiAssignmentStreamSampler::push_columns`] on the caller's thread.
//! * With multiple shards, batches are partitioned lane-by-lane into
//!   per-shard column buffers drawn from an **allocate-once pool**: each
//!   worker returns processed buffers through a second (return) channel, so
//!   steady-state ingestion allocates nothing and backpressure is the pool
//!   running dry.
//! * The per-shard consumer runs the same chunked pre-filter kernels as the
//!   unsharded [`MultiAssignmentStreamSampler::push_columns`] — lanes arrive
//!   contiguous, so sharding adds routing, not a different inner loop.
//!
//! # Supervision and failure handling
//!
//! Every lane is *supervised*: worker death and worker stalls are detected
//! at the **push boundary**, typed, and recoverable — there is no window in
//! which records are silently dropped.
//!
//! * **Dead worker, detected at push time.** A push that needs a dead
//!   shard's channel joins the worker immediately and returns its cause as
//!   the push's own error — [`CwsError::ShardWorkerPanicked`] for a panic,
//!   the worker's typed error (e.g. an invalid weight in a zero-copy shared
//!   batch) otherwise. The failing push's records were **not** ingested;
//!   every later push to that shard returns the same error, and
//!   [`finalize`](ShardedDispersedSampler::finalize) reports it too.
//! * **Stalled worker, bounded waits.** Blocking paths (an empty recycle
//!   pool, a full batch channel) wait at most the
//!   [stall timeout](ShardedDispersedSampler::set_stall_timeout) and then
//!   return [`CwsError::ShardStalled`]. A stall is *not* fatal: the batch
//!   stays buffered on the producer side and the push that observed the
//!   stall can be retried once the shard drains.
//! * **Deterministic recovery.**
//!   [`respawn`](ShardedDispersedSampler::respawn) drains and joins every
//!   worker (dead or alive) and rebuilds
//!   all lanes from the original configuration — same seed, same routing —
//!   so re-ingesting the stream afterwards produces a summary bit-identical
//!   to an undisturbed run.
//! * **Deterministic fault injection.**
//!   [`inject_worker_fault`](ShardedDispersedSampler::inject_worker_fault)
//!   instructs one worker to
//!   exhibit a typed [`WorkerFault`] (panic, stall), which is how the fault
//!   battery exercises all of the above without `cfg(test)` hooks.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cws_core::columns::{first_invalid_weight, invalid_weight_error, RecordColumns};
use cws_core::fault::WorkerFault;
use cws_core::summary::{DispersedSummary, SummaryConfig};
use cws_core::{CwsError, Key, Result};
use cws_hash::KeyHasher;

use crate::kernel::COLUMN_CHUNK;
use crate::merge::merge_disjoint_summaries;
use crate::multi::MultiAssignmentStreamSampler;

/// Salt for the shard-routing hash stream, so routing is deterministic per
/// master seed yet uncorrelated with the rank hashes.
const ROUTER_STREAM: u64 = 0x5AAD_EDC0_DE00_0002;

/// What travels to a shard worker.
enum ShardMessage {
    /// A pooled buffer, returned through the recycle channel after
    /// processing.
    Pooled(RecordColumns),
    /// A shared batch forwarded zero-copy (single-shard fast path).
    Shared(Arc<RecordColumns>),
    /// An injected fault: the worker exhibits it on receipt (panic, stall),
    /// exercising the supervision paths deterministically.
    Fault(WorkerFault),
}

/// One supervised shard: the batch channel, the filling buffer, the
/// allocate-once recycling pool, the worker handle, and the worker's
/// harvested failure (if it died).
struct ShardLane {
    sender: mpsc::SyncSender<ShardMessage>,
    recycled: mpsc::Receiver<RecordColumns>,
    /// Buffers ready to be filled. Refilled from `recycled`; only drained
    /// to zero when the worker is slower than the producer, in which case
    /// the bounded refill wait is the backpressure.
    pool: Vec<RecordColumns>,
    filling: RecordColumns,
    /// The worker thread; taken (joined) the moment its death is detected.
    worker: Option<thread::JoinHandle<Result<DispersedSummary>>>,
    /// The worker's typed cause of death, harvested at detection time and
    /// returned from every subsequent push to this shard.
    failure: Option<CwsError>,
}

/// Outcome of a bounded (non-blocking-forever) channel send.
enum SendOutcome {
    Sent,
    /// The channel stayed full past the deadline; the message is handed
    /// back so the caller can restore its buffers.
    Stalled(ShardMessage),
    Disconnected,
}

/// Tries to send `message`, waiting at most `timeout` for channel space.
fn send_bounded(
    sender: &mpsc::SyncSender<ShardMessage>,
    timeout: Duration,
    mut message: ShardMessage,
) -> SendOutcome {
    let deadline = Instant::now() + timeout;
    loop {
        match sender.try_send(message) {
            Ok(()) => return SendOutcome::Sent,
            Err(mpsc::TrySendError::Full(returned)) => {
                if Instant::now() >= deadline {
                    return SendOutcome::Stalled(returned);
                }
                message = returned;
                thread::sleep(Duration::from_millis(1));
            }
            Err(mpsc::TrySendError::Disconnected(returned)) => {
                drop(returned);
                return SendOutcome::Disconnected;
            }
        }
    }
}

/// The typed error for a timed-out bounded wait on a shard: its records
/// stay buffered, and the push can be retried once the shard drains.
fn stalled(shard: usize, waited: Duration) -> CwsError {
    CwsError::ShardStalled { shard, timeout_ms: waited.as_millis() as u64 }
}

/// Joins a dead worker *now* and converts its outcome into the typed error
/// every subsequent push to this shard will return. Idempotent: once
/// harvested, the stored failure is reused.
fn harvest_failure(lane: &mut ShardLane, shard: usize) -> CwsError {
    if lane.failure.is_none() {
        let error = match lane.worker.take() {
            Some(handle) => match handle.join() {
                // The worker only returns `Ok` after its channel closes; a
                // hang-up observed while our sender is alive means it died.
                Ok(Ok(_)) => CwsError::ShardWorkerPanicked {
                    shard,
                    message: "worker exited before its channel closed".to_string(),
                },
                Ok(Err(error)) => error,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    CwsError::ShardWorkerPanicked { shard, message }
                }
            },
            None => CwsError::ShardWorkerPanicked {
                shard,
                message: "worker already joined".to_string(),
            },
        };
        lane.failure = Some(error);
    }
    lane.failure.clone().expect("failure was just stored")
}

/// Multi-assignment ingestion parallelized over `N` supervised key shards.
///
/// Construct with [`ShardedDispersedSampler::new`], feed records with
/// [`push_record`](ShardedDispersedSampler::push_record) /
/// [`push_columns`](ShardedDispersedSampler::push_columns) /
/// [`push_columns_shared`](ShardedDispersedSampler::push_columns_shared),
/// and call [`finalize`](ShardedDispersedSampler::finalize) to join the
/// workers and merge their summaries. The result is bit-identical to
/// sequential ingestion; worker failure and stalls surface as typed errors
/// at the push boundary (see the module docs).
pub struct ShardedDispersedSampler {
    config: SummaryConfig,
    num_assignments: usize,
    num_shards: usize,
    router: KeyHasher,
    batch_capacity: usize,
    stall_timeout: Duration,
    lanes: Vec<ShardLane>,
    processed: u64,
}

impl std::fmt::Debug for ShardedDispersedSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDispersedSampler")
            .field("num_assignments", &self.num_assignments)
            .field("num_shards", &self.num_shards)
            .field("batch_capacity", &self.batch_capacity)
            .field("stall_timeout", &self.stall_timeout)
            .field("failed_shards", &self.failed_shards())
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl ShardedDispersedSampler {
    /// Default number of records buffered per shard before a batch is handed
    /// to the worker thread.
    pub const DEFAULT_BATCH_CAPACITY: usize = 1024;

    /// Number of in-flight batches a shard channel holds before `push`
    /// backpressures, bounding memory under a fast producer.
    const CHANNEL_DEPTH: usize = 4;

    /// Default bound on how long a push waits for a stalled shard before
    /// returning [`CwsError::ShardStalled`]. Generous — a healthy worker
    /// drains a batch in microseconds — so it only fires when a shard is
    /// genuinely wedged. Tests lower it with
    /// [`set_stall_timeout`](ShardedDispersedSampler::set_stall_timeout).
    pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

    /// Spawns `num_shards` worker threads for `num_assignments` assignments.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`, `num_assignments == 0`, or the
    /// configuration uses independent-differences ranks (not realizable in
    /// the dispersed summary format).
    #[must_use]
    pub fn new(config: SummaryConfig, num_assignments: usize, num_shards: usize) -> Self {
        Self::with_batch_capacity(config, num_assignments, num_shards, Self::DEFAULT_BATCH_CAPACITY)
    }

    /// As [`ShardedDispersedSampler::new`] with an explicit batch size
    /// (mostly for tests, which use tiny batches to force many flushes).
    ///
    /// # Panics
    /// As [`ShardedDispersedSampler::new`]; additionally if
    /// `batch_capacity == 0`.
    #[must_use]
    pub fn with_batch_capacity(
        config: SummaryConfig,
        num_assignments: usize,
        num_shards: usize,
        batch_capacity: usize,
    ) -> Self {
        assert!(num_shards > 0, "at least one shard is required");
        assert!(batch_capacity > 0, "batch capacity must be positive");
        // Validate eagerly on the calling thread: the same construction runs
        // inside every worker, and a panic there would only surface later at
        // finalize time.
        assert!(num_assignments > 0, "at least one assignment is required");
        assert!(
            config.mode != cws_core::CoordinationMode::IndependentDifferences,
            "independent-differences ranks are not suited for dispersed weights"
        );
        let lanes = (0..num_shards)
            .map(|_| Self::spawn_lane(config, num_assignments, batch_capacity))
            .collect();
        Self {
            config,
            num_assignments,
            num_shards,
            router: KeyHasher::new(config.seed).derive(ROUTER_STREAM),
            batch_capacity,
            stall_timeout: Self::DEFAULT_STALL_TIMEOUT,
            lanes,
            processed: 0,
        }
    }

    /// Builds one supervised lane: channels, worker thread, and the
    /// allocate-once buffer pool. Deterministic — a respawned lane is
    /// indistinguishable from a fresh one.
    fn spawn_lane(
        config: SummaryConfig,
        num_assignments: usize,
        batch_capacity: usize,
    ) -> ShardLane {
        let (sender, receiver) = mpsc::sync_channel::<ShardMessage>(Self::CHANNEL_DEPTH);
        let (recycle_sender, recycled) = mpsc::channel::<RecordColumns>();
        let worker = thread::spawn(move || -> Result<DispersedSummary> {
            // Constructed inside the worker so the candidate arrays are
            // allocated (first-touched) on the thread that uses them.
            let mut sampler = MultiAssignmentStreamSampler::new(config, num_assignments);
            while let Ok(message) = receiver.recv() {
                match message {
                    ShardMessage::Pooled(mut columns) => {
                        sampler.push_columns_trusted(&columns);
                        columns.clear();
                        // The producer may already have hung up during
                        // finalize; a failed return just retires the
                        // buffer.
                        let _ = recycle_sender.send(columns);
                    }
                    // Shared batches skip producer-side validation
                    // (zero-copy means the producer never reads them);
                    // validate here and carry the typed error out —
                    // returning also hangs up the channel, so the
                    // supervision layer harvests it at the next push.
                    ShardMessage::Shared(columns) => sampler.push_columns(&columns)?,
                    ShardMessage::Fault(WorkerFault::Panic) => {
                        panic!("injected shard-worker panic")
                    }
                    ShardMessage::Fault(WorkerFault::Stall { millis }) => {
                        thread::sleep(Duration::from_millis(millis));
                    }
                    // `WorkerFault` is non-exhaustive upstream; unknown
                    // faults are ignored rather than guessed at.
                    ShardMessage::Fault(_) => {}
                }
            }
            Ok(sampler.finalize())
        });
        // The allocate-once pool: every buffer this shard will ever use.
        // `CHANNEL_DEPTH + 1` covers a full channel plus the buffer in
        // flight back through the recycle channel.
        let pool = (0..=Self::CHANNEL_DEPTH)
            .map(|_| RecordColumns::with_capacity(num_assignments, batch_capacity))
            .collect();
        ShardLane {
            sender,
            recycled,
            pool,
            filling: RecordColumns::with_capacity(num_assignments, batch_capacity),
            worker: Some(worker),
            failure: None,
        }
    }

    /// Number of shards (worker threads).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of assignments.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.num_assignments
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Bounds how long a push waits for a stalled shard (a full batch
    /// channel or an empty recycle pool) before returning
    /// [`CwsError::ShardStalled`]. Default:
    /// [`DEFAULT_STALL_TIMEOUT`](Self::DEFAULT_STALL_TIMEOUT).
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    /// The harvested failure of `shard`'s worker, if it died.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_failure(&self, shard: usize) -> Option<&CwsError> {
        self.lanes[shard].failure.as_ref()
    }

    /// Indices of shards whose workers have died (detected so far).
    #[must_use]
    pub fn failed_shards(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(shard, lane)| lane.failure.is_some().then_some(shard))
            .collect()
    }

    /// `true` when no worker death has been detected.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.lanes.iter().all(|lane| lane.failure.is_none())
    }

    /// The shard a key routes to — a deterministic hash uncorrelated with
    /// the rank assignment, so sharding never biases the sample.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: Key) -> usize {
        (self.router.hash_u64(key) % self.num_shards as u64) as usize
    }

    /// Routes one record to its shard, flushing that shard's previous batch
    /// to the worker when the buffer is full.
    ///
    /// # Errors
    /// Returns an error if any weight is NaN, infinite or negative (the
    /// record is rejected whole); [`CwsError::ShardWorkerPanicked`] or the
    /// worker's own typed error if the target shard's worker died (the
    /// record was **not** ingested — there is no silent-drop window); or
    /// [`CwsError::ShardStalled`] if the shard did not accept traffic within
    /// the stall timeout (the record was not ingested; the push can be
    /// retried).
    ///
    /// # Panics
    /// Panics if the vector length differs from the number of assignments.
    #[inline]
    pub fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        assert_eq!(weights.len(), self.num_assignments, "weight vector arity mismatch");
        if let Some(assignment) = first_invalid_weight(weights) {
            return Err(invalid_weight_error(key, assignment, weights[assignment]));
        }
        let shard = self.shard_of(key);
        if let Some(failure) = &self.lanes[shard].failure {
            return Err(failure.clone());
        }
        // Flush *before* buffering the new record: an error then means this
        // record was cleanly rejected (retryable), never half-ingested.
        if self.lanes[shard].filling.len() >= self.batch_capacity {
            self.flush_shard(shard)?;
        }
        self.lanes[shard].filling.push(key, weights);
        self.processed += 1;
        Ok(())
    }

    /// Routes a batch of row-major records.
    ///
    /// # Errors
    /// As [`ShardedDispersedSampler::push_record`]; records before the
    /// offending one were ingested.
    ///
    /// # Panics
    /// As [`ShardedDispersedSampler::push_record`].
    pub fn push_batch<'a, I>(&mut self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, &'a [f64])>,
    {
        for (key, weights) in records {
            self.push_record(key, weights)?;
        }
        Ok(())
    }

    /// Routes a structure-of-arrays batch, partitioning its columns into the
    /// per-shard buffers in chunked lane passes (single-shard streams skip
    /// routing entirely and bulk-copy whole lanes).
    ///
    /// # Errors
    /// Returns an error on a NaN, infinite or negative weight (chunks of
    /// `COLUMN_CHUNK` (1024) records are validated before being partitioned,
    /// so nothing of the failing chunk reaches a worker), on a dead shard
    /// worker (its typed cause), or on a saturated shard
    /// ([`CwsError::ShardStalled`]). Records of earlier
    /// chunks were ingested; records at or after the failure point were
    /// not.
    ///
    /// # Panics
    /// Panics if the batch's assignment count differs from the sampler's.
    pub fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        assert_eq!(columns.num_assignments(), self.num_assignments, "weight vector arity mismatch");
        let mut start = 0;
        while start < columns.len() {
            let len = COLUMN_CHUNK.min(columns.len() - start);
            columns.validate_span(start, len)?;
            self.partition_chunk(columns, start, len)?;
            self.processed += len as u64;
            start += len;
        }
        Ok(())
    }

    /// Hands a shared batch to the engine. With a **single shard** the
    /// `Arc` itself is forwarded to the worker — no weight or key is copied
    /// on the producer side (see the module docs for what that does and
    /// does not buy). With multiple shards this is
    /// [`push_columns`](ShardedDispersedSampler::push_columns) on the
    /// shared batch (partitioning is inherent to routing).
    ///
    /// # Errors
    /// In the multi-shard case, as
    /// [`push_columns`](ShardedDispersedSampler::push_columns). On the
    /// single-shard zero-copy path a dead or stalled worker is a typed
    /// error from this push (the batch was not ingested); an invalid weight
    /// inside the shared batch is detected by the worker and surfaces as
    /// the same typed error from the *next* push to the shard or from
    /// [`finalize`](ShardedDispersedSampler::finalize), whichever comes
    /// first.
    ///
    /// # Panics
    /// Panics if the batch's assignment count differs from the sampler's.
    pub fn push_columns_shared(&mut self, columns: &Arc<RecordColumns>) -> Result<()> {
        if self.num_shards > 1 {
            return self.push_columns(columns);
        }
        assert_eq!(columns.num_assignments(), self.num_assignments, "weight vector arity mismatch");
        if let Some(failure) = &self.lanes[0].failure {
            return Err(failure.clone());
        }
        // Preserve arrival order relative to any previously buffered
        // records (not required for correctness — the sample is
        // order-independent — but it keeps `processed` honest per worker).
        self.flush_shard(0)?;
        let timeout = self.stall_timeout;
        let lane = &mut self.lanes[0];
        match send_bounded(&lane.sender, timeout, ShardMessage::Shared(Arc::clone(columns))) {
            SendOutcome::Sent => {
                self.processed += columns.len() as u64;
                Ok(())
            }
            SendOutcome::Stalled(_) => Err(stalled(0, timeout)),
            SendOutcome::Disconnected => Err(harvest_failure(lane, 0)),
        }
    }

    /// Scatters one validated chunk into the per-shard column buffers.
    fn partition_chunk(&mut self, columns: &RecordColumns, start: usize, len: usize) -> Result<()> {
        if self.num_shards == 1 {
            // No routing decision to make: bulk-copy whole lane spans into
            // the filling buffer (a per-lane memcpy).
            let mut copied = 0;
            while copied < len {
                if self.lanes[0].filling.len() >= self.batch_capacity {
                    self.flush_shard(0)?;
                }
                let room = self.batch_capacity.saturating_sub(self.lanes[0].filling.len()).max(1);
                let take = room.min(len - copied);
                self.lanes[0].filling.extend_from(columns, start + copied, take);
                copied += take;
            }
            return Ok(());
        }
        for index in start..start + len {
            let shard = self.shard_of(columns.keys()[index]);
            if self.lanes[shard].filling.len() >= self.batch_capacity {
                self.flush_shard(shard)?;
            }
            self.lanes[shard].filling.push_row_from(columns, index);
        }
        Ok(())
    }

    /// Sends the shard's filling buffer to its worker and replaces it with a
    /// recycled one from the pool (waiting boundedly on the return channel —
    /// the backpressure path — only when the pool is dry).
    ///
    /// On a stall the filling buffer is left in place (nothing is lost, the
    /// flush can be retried); on worker death the worker is joined and its
    /// cause stored and returned.
    fn flush_shard(&mut self, shard: usize) -> Result<()> {
        let timeout = self.stall_timeout;
        let lane = &mut self.lanes[shard];
        if let Some(failure) = &lane.failure {
            return Err(failure.clone());
        }
        if lane.filling.is_empty() {
            return Ok(());
        }
        // Drain opportunistic returns first so the pool stays warm.
        while let Ok(buffer) = lane.recycled.try_recv() {
            lane.pool.push(buffer);
        }
        let replacement = match lane.pool.pop() {
            Some(buffer) => buffer,
            None => match lane.recycled.recv_timeout(timeout) {
                Ok(buffer) => buffer,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // A dry pool means every buffer is in flight: the whole
                    // window (channel depth + the recycle loop) is occupied.
                    return Err(stalled(shard, timeout));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Worker died without returning buffers: join it now and
                    // report the typed cause from this very push.
                    return Err(harvest_failure(lane, shard));
                }
            },
        };
        let full = std::mem::replace(&mut lane.filling, replacement);
        match send_bounded(&lane.sender, timeout, ShardMessage::Pooled(full)) {
            SendOutcome::Sent => Ok(()),
            SendOutcome::Stalled(message) => {
                // Undo: keep the unsent batch as the filling buffer so a
                // retry resends it, and return the fresh buffer to the pool.
                let ShardMessage::Pooled(full) = message else {
                    unreachable!("a pooled send hands back a pooled message")
                };
                let replacement = std::mem::replace(&mut lane.filling, full);
                lane.pool.push(replacement);
                Err(stalled(shard, timeout))
            }
            SendOutcome::Disconnected => Err(harvest_failure(lane, shard)),
        }
    }

    /// Instructs the worker of `shard` to exhibit `fault` when it processes
    /// its next message — the deterministic entry point the fault battery
    /// uses to exercise the supervision paths ([`WorkerFault::Panic`] →
    /// push-time [`CwsError::ShardWorkerPanicked`]; [`WorkerFault::Stall`] →
    /// push-time [`CwsError::ShardStalled`]).
    ///
    /// # Errors
    /// Returns the shard's harvested failure if its worker is already dead,
    /// or [`CwsError::ShardStalled`] if the fault message itself could not
    /// be delivered within the stall timeout.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn inject_worker_fault(&mut self, shard: usize, fault: WorkerFault) -> Result<()> {
        let timeout = self.stall_timeout;
        let lane = &mut self.lanes[shard];
        if let Some(failure) = &lane.failure {
            return Err(failure.clone());
        }
        match send_bounded(&lane.sender, timeout, ShardMessage::Fault(fault)) {
            SendOutcome::Sent => Ok(()),
            SendOutcome::Stalled(_) => Err(stalled(shard, timeout)),
            SendOutcome::Disconnected => Err(harvest_failure(lane, shard)),
        }
    }

    /// Drains and rebuilds the entire worker set deterministically: every
    /// worker (dead or alive) is joined, its partial state discarded, and
    /// every lane is respawned from the original configuration — same seed,
    /// same routing, fresh buffers, `processed` reset to zero.
    ///
    /// Because construction is deterministic, re-ingesting the same stream
    /// after a respawn yields a summary **bit-identical** to an undisturbed
    /// run — this is the recovery route after a worker death: respawn, then
    /// replay the epoch's records from their durable source.
    pub fn respawn(&mut self) {
        let lanes = std::mem::take(&mut self.lanes);
        for lane in lanes {
            let ShardLane { sender, recycled, pool, filling, worker, failure } = lane;
            // Close the channels first so a live worker drains and exits.
            drop(sender);
            drop(recycled);
            drop(pool);
            drop(filling);
            drop(failure);
            if let Some(handle) = worker {
                // The outcome — summary, error or panic — is deliberately
                // discarded: respawn abandons the partial epoch.
                let _ = handle.join();
            }
        }
        self.lanes = (0..self.num_shards)
            .map(|_| Self::spawn_lane(self.config, self.num_assignments, self.batch_capacity))
            .collect();
        self.processed = 0;
    }

    /// Flushes the remaining buffers, joins all workers and merges the
    /// per-shard summaries into the summary of the full stream.
    ///
    /// # Errors
    /// Returns [`CwsError::ShardWorkerPanicked`] if any worker thread
    /// panicked, the worker's own typed error (e.g. an invalid weight in a
    /// zero-copy shared batch) if it stopped with one, or
    /// [`CwsError::ShardStalled`] if a final flush timed out. Every worker
    /// is joined first either way, so no thread is leaked and finalize
    /// never hangs on a dead shard.
    pub fn finalize(mut self) -> Result<DispersedSummary> {
        let mut flush_failure = None;
        for shard in 0..self.lanes.len() {
            if let Err(error) = self.flush_shard(shard) {
                flush_failure.get_or_insert(error);
            }
        }
        let mut summaries = Vec::with_capacity(self.lanes.len());
        let mut failure = None;
        for (shard, lane) in self.lanes.drain(..).enumerate() {
            let ShardLane { sender, recycled, pool, filling, worker, failure: harvested } = lane;
            // Dropping the channel ends the worker's receive loop; it
            // drains its queue and finalizes.
            drop(sender);
            drop(recycled);
            drop(pool);
            drop(filling);
            if let Some(error) = harvested {
                failure.get_or_insert(error);
                continue;
            }
            let Some(handle) = worker else { continue };
            match handle.join() {
                Ok(Ok(summary)) => summaries.push(summary),
                Ok(Err(error)) => {
                    failure.get_or_insert(error);
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    failure.get_or_insert(CwsError::ShardWorkerPanicked { shard, message });
                }
            }
        }
        match failure.or(flush_failure) {
            Some(error) => Err(error),
            None => Ok(merge_disjoint_summaries(&summaries)
                .expect("per-shard summaries share one configuration by construction")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::ranks::RankFamily;
    use cws_core::weights::MultiWeighted;
    use cws_core::CoordinationMode;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..1200u64 {
            builder.add(key, 0, ((key % 17) + 1) as f64);
            builder.add(key, 1, ((key % 5) * 3) as f64);
            builder.add(key, 2, ((key * 7) % 23) as f64);
        }
        builder.build()
    }

    #[test]
    fn sharded_equals_sequential_bit_for_bit() {
        let data = fixture();
        let config = SummaryConfig::new(40, RankFamily::Ipps, CoordinationMode::SharedSeed, 9);
        let mut sequential = MultiAssignmentStreamSampler::new(config, 3);
        sequential.push_batch(data.iter()).unwrap();
        let expected = sequential.finalize();

        for shards in [1usize, 2, 4, 8] {
            // Tiny batches force many channel round-trips.
            let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 3, shards, 16);
            assert_eq!(sharded.num_shards(), shards);
            sharded.push_batch(data.iter()).unwrap();
            assert_eq!(sharded.processed(), 1200);
            let got = sharded.finalize().unwrap();
            assert_eq!(got, expected, "{shards} shards");
        }
    }

    #[test]
    fn columnar_routes_equal_sequential_bit_for_bit() {
        let data = fixture();
        let columns = Arc::new(data.to_columns());
        let config = SummaryConfig::new(32, RankFamily::Exp, CoordinationMode::SharedSeed, 41);
        let mut sequential = MultiAssignmentStreamSampler::new(config, 3);
        sequential.push_columns(&columns).unwrap();
        let expected = sequential.finalize();

        for shards in [1usize, 2, 5] {
            let mut borrowed = ShardedDispersedSampler::with_batch_capacity(config, 3, shards, 64);
            borrowed.push_columns(&columns).unwrap();
            assert_eq!(borrowed.processed(), 1200);
            assert_eq!(borrowed.finalize().unwrap(), expected, "borrowed, {shards} shards");

            let mut shared = ShardedDispersedSampler::with_batch_capacity(config, 3, shards, 64);
            for chunk in columns.split(100) {
                shared.push_columns_shared(&Arc::new(chunk)).unwrap();
            }
            assert_eq!(shared.processed(), 1200);
            assert_eq!(shared.finalize().unwrap(), expected, "shared, {shards} shards");
        }
    }

    #[test]
    fn mixed_apis_still_merge_bit_exactly() {
        let data = fixture();
        let columns = data.to_columns();
        let config = SummaryConfig::new(24, RankFamily::Ipps, CoordinationMode::Independent, 13);
        let mut sequential = MultiAssignmentStreamSampler::new(config, 3);
        sequential.push_columns(&columns).unwrap();
        let expected = sequential.finalize();

        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 3, 4, 32);
        let chunks = columns.split(500);
        sharded.push_columns(&chunks[0]).unwrap();
        sharded.push_columns_shared(&Arc::new(chunks[1].clone())).unwrap();
        let mut row = Vec::new();
        for index in 0..chunks[2].len() {
            chunks[2].copy_row_into(index, &mut row);
            sharded.push_record(chunks[2].keys()[index], &row).unwrap();
        }
        assert_eq!(sharded.processed(), 1200);
        assert_eq!(sharded.finalize().unwrap(), expected);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let sampler = ShardedDispersedSampler::new(config, 2, 4);
        let other = ShardedDispersedSampler::new(config, 2, 4);
        let mut seen = [false; 4];
        for key in 0..1000u64 {
            let shard = sampler.shard_of(key);
            assert_eq!(shard, other.shard_of(key));
            assert!(shard < 4);
            seen[shard] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards receive traffic");
        // Finalizing without records yields empty sketches, not a hang.
        let summary = sampler.finalize().unwrap();
        assert_eq!(summary.num_distinct_keys(), 0);
        let _ = other.finalize().unwrap();
    }

    /// Satellite regression: pushing after an injected panic returns a typed
    /// error from the push itself — the batch is rejected, never silently
    /// dropped — and finalize reports the same cause.
    #[test]
    fn pushes_after_worker_panic_return_typed_errors() {
        let data = fixture();
        let config = SummaryConfig::new(16, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 3, 3, 8);
        sharded.push_batch(data.iter().take(100)).unwrap();
        assert!(sharded.is_healthy());
        sharded.inject_worker_fault(1, WorkerFault::Panic).unwrap();
        // The worker dies asynchronously; keep pushing until the supervision
        // layer detects the death. Buffered/queued capacity is finite, so
        // this terminates — and must yield a typed error, not a hang or a
        // silent drop.
        let mut first_error = None;
        'drive: for _ in 0..100 {
            for (key, weights) in data.iter() {
                if let Err(error) = sharded.push_record(key, weights) {
                    first_error = Some(error);
                    break 'drive;
                }
            }
        }
        match first_error.expect("a push must observe the dead shard") {
            CwsError::ShardWorkerPanicked { shard, ref message } => {
                assert_eq!(shard, 1);
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(!sharded.is_healthy());
        assert_eq!(sharded.failed_shards(), vec![1]);
        assert!(matches!(
            sharded.shard_failure(1),
            Some(CwsError::ShardWorkerPanicked { shard: 1, .. })
        ));
        // Every further push to the dead shard fails fast with the same
        // typed cause (no double-join, no hang).
        let dead_key = (0..).find(|&key| sharded.shard_of(key) == 1).unwrap();
        let err = sharded.push_record(dead_key, &[1.0, 1.0, 1.0]).unwrap_err();
        assert!(matches!(err, CwsError::ShardWorkerPanicked { shard: 1, .. }));
        // And finalize reports it too, joining every worker.
        let err = sharded.finalize().unwrap_err();
        assert!(matches!(err, CwsError::ShardWorkerPanicked { shard: 1, .. }));
    }

    /// Satellite regression: the buffer-pool refill path against a dead
    /// worker returns a typed error promptly instead of hanging on
    /// `recv()`.
    #[test]
    fn pool_refill_against_dead_worker_errors_promptly() {
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 3);
        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 2, 1, 4);
        sharded.set_stall_timeout(Duration::from_millis(200));
        sharded.inject_worker_fault(0, WorkerFault::Panic).unwrap();
        let start = Instant::now();
        // Single shard: every record routes to the dead lane. The pool +
        // channel hold at most (CHANNEL_DEPTH + 1) * 4 records, so the
        // refill path is reached quickly and must fail, not block forever.
        let mut observed = None;
        for key in 0..10_000u64 {
            if let Err(error) = sharded.push_record(key, &[1.0, 2.0]) {
                observed = Some(error);
                break;
            }
        }
        let elapsed = start.elapsed();
        assert!(matches!(
            observed.expect("the dead worker must surface"),
            CwsError::ShardWorkerPanicked { shard: 0, .. }
        ));
        assert!(elapsed < Duration::from_secs(5), "death detection took {elapsed:?}");
        let _ = sharded.finalize().unwrap_err();
    }

    /// A stalled (but alive) worker produces `ShardStalled` within the
    /// timeout instead of blocking forever; finalize still joins it.
    #[test]
    fn stalled_shard_times_out_with_typed_error() {
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 11);
        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 2, 1, 2);
        sharded.set_stall_timeout(Duration::from_millis(50));
        sharded.inject_worker_fault(0, WorkerFault::Stall { millis: 400 }).unwrap();
        let start = Instant::now();
        let mut observed = None;
        for key in 0..10_000u64 {
            if let Err(error) = sharded.push_record(key, &[1.0, 2.0]) {
                observed = Some(error);
                break;
            }
        }
        let elapsed = start.elapsed();
        match observed.expect("the stalled shard must time out") {
            CwsError::ShardStalled { shard: 0, timeout_ms } => assert_eq!(timeout_ms, 50),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(elapsed < Duration::from_secs(5), "stall detection took {elapsed:?}");
        // The stall is transient: once the worker wakes and drains, the
        // same push path succeeds again and finalize completes.
        assert!(sharded.is_healthy());
        thread::sleep(Duration::from_millis(500));
        sharded.push_record(42, &[1.0, 2.0]).unwrap();
        let summary = sharded.finalize().unwrap();
        assert!(summary.num_distinct_keys() > 0);
    }

    /// Respawn rebuilds the lanes deterministically: after a worker death,
    /// re-ingesting the same stream yields a summary bit-identical to an
    /// undisturbed sequential run.
    #[test]
    fn respawn_then_reingest_is_bit_exact() {
        let data = fixture();
        let config = SummaryConfig::new(24, RankFamily::Ipps, CoordinationMode::SharedSeed, 17);
        let mut sequential = MultiAssignmentStreamSampler::new(config, 3);
        sequential.push_batch(data.iter()).unwrap();
        let expected = sequential.finalize();

        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 3, 3, 16);
        sharded.push_batch(data.iter().take(400)).unwrap();
        sharded.inject_worker_fault(2, WorkerFault::Panic).unwrap();
        // Drive the failure to detection.
        let mut saw_error = false;
        'drive: for _ in 0..100 {
            for (key, weights) in data.iter() {
                if sharded.push_record(key, weights).is_err() {
                    saw_error = true;
                    break 'drive;
                }
            }
        }
        assert!(saw_error);
        sharded.respawn();
        assert!(sharded.is_healthy());
        assert_eq!(sharded.processed(), 0);
        sharded.push_batch(data.iter()).unwrap();
        assert_eq!(sharded.processed(), 1200);
        assert_eq!(sharded.finalize().unwrap(), expected);
    }

    #[test]
    fn invalid_weights_are_rejected_at_the_push_boundary() {
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 2);
        for bad in [f64::NAN, f64::INFINITY, -4.0] {
            let mut sharded = ShardedDispersedSampler::new(config, 2, 2);
            assert!(sharded.push_record(5, &[1.0, bad]).is_err());
            let mut columns = RecordColumns::new(2);
            columns.push(1, &[1.0, 2.0]);
            columns.push(5, &[bad, 1.0]);
            assert!(sharded.push_columns(&columns).is_err());
            assert_eq!(sharded.processed(), 0);
            let _ = sharded.finalize().unwrap();
        }
    }

    #[test]
    fn invalid_shared_batch_surfaces_at_finalize() {
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 2);
        let mut sharded = ShardedDispersedSampler::new(config, 2, 1);
        let mut columns = RecordColumns::new(2);
        columns.push(1, &[1.0, f64::INFINITY]);
        // The zero-copy path defers validation to the worker...
        sharded.push_columns_shared(&Arc::new(columns)).unwrap();
        // ...which carries the same typed error to finalize.
        let err = sharded.finalize().unwrap_err();
        match err {
            CwsError::InvalidParameter { name, ref message } => {
                assert_eq!(name, "weight");
                assert!(message.contains("finite and non-negative"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let _ = ShardedDispersedSampler::new(config, 2, 0);
    }

    #[test]
    #[should_panic(expected = "not suited for dispersed")]
    fn independent_differences_rejected_eagerly() {
        let config =
            SummaryConfig::new(4, RankFamily::Exp, CoordinationMode::IndependentDifferences, 1);
        let _ = ShardedDispersedSampler::new(config, 2, 2);
    }

    #[test]
    #[should_panic(expected = "at least one assignment")]
    fn zero_assignments_rejected_eagerly() {
        let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let _ = ShardedDispersedSampler::new(config, 0, 2);
    }
}
