//! The write-ahead-journal battery: crash-consistent recovery with
//! bit-exact replay, proven the hard way.
//!
//! The paper's determinism contract — a coordinated summary is a pure
//! function of `(records, seed)` — is what makes a record-level WAL
//! sufficient for bit-exact recovery. This battery stress-tests that
//! chain end to end:
//!
//! * a crash at **every truncation point** of every surviving journal
//!   segment recovers to the last durable snapshot and replays the clean
//!   prefix of the tail, bit-identical to the undisturbed run;
//! * a **single flipped bit** at every byte offset is detected (CRC or
//!   structural validation), never silently ingested — recovery still
//!   converges bit-exactly after the lost suffix is re-offered;
//! * recovery is **idempotent** for both layers (snapshot store and
//!   journal): a second run is a no-op that reproduces the same state;
//! * a failed durable publish (store layer) loses **zero** records when a
//!   journal is attached — `DegradedState::records_replayable` carries the
//!   count;
//! * a full journal is a typed `BudgetExceeded`, never silent
//!   truncation, and epoch barriers stay exempt so publishing (which
//!   prunes) can always make progress;
//! * a covered segment that cannot be deleted stays listed and counted,
//!   and the next publish reclaims it;
//! * a crash right after a publish pruned its covered segments, while
//!   their blocks may still be waiting to be freed, never brings a pruned
//!   segment back;
//! * a multi-seed stress run (`CWS_WAL_SEEDS=1,2,3,…`) mutates
//!   plan-chosen bytes — truncations and bit rot, including during
//!   rotation-heavy multi-segment windows — and proves convergence.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use coordinated_sampling::core::{CwsError, FaultPlan};
use coordinated_sampling::prelude::*;

/// A fresh scratch directory under the OS temp dir (no tempfile crate in
/// the offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cws-wal-{tag}-{}-{unique}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A small dispersed-layout pipeline (tiny `k` keeps summaries and replay
/// loops fast enough for every-byte crash sweeps).
fn small_builder() -> PipelineBuilder {
    Pipeline::builder().assignments(2).k(4).layout(Layout::Dispersed).seed(77)
}

fn weights_for(key: u64) -> [f64; 2] {
    [((key % 7) + 1) as f64, ((key % 3) + 1) as f64]
}

/// The same builder with a journal attached. `OnRotate` keeps the
/// every-byte sweeps off the fsync path — crash *content* is modelled by
/// mutating the files directly, so the sync policy does not change what
/// the battery sees (a dedicated test covers all three policies).
fn journaled(wal_dir: &Path) -> PipelineBuilder {
    small_builder().journal(WalConfig::new(wal_dir).sync(SyncPolicy::OnRotate))
}

/// The undisturbed run: a one-shot summary over `keys` — bit-identical to
/// what a journaled epoch over the same records must publish.
fn reference_bytes(keys: std::ops::Range<u64>) -> Vec<u8> {
    let mut pipeline = small_builder().build().unwrap();
    for key in keys {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    pipeline.finalize().unwrap().to_bytes()
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// All live journal segments, ascending by sequence number.
fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cwsj"))
        .collect();
    files.sort();
    files
}

/// Ingests `0..p`, durably publishes epoch 1 (which prunes the covered
/// segments), ingests `p..n` into the journal only, then "crashes" by
/// dropping the pipeline. Returns the WAL and store directories.
fn build_crash_scene(tag: &str, config: WalConfig, p: u64, n: u64) -> (PathBuf, PathBuf) {
    let store_dir = scratch_dir(&format!("{tag}-store"));
    let wal_dir = config.dir_path().to_path_buf();
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let mut pipeline = EpochedPipeline::new(small_builder().journal(config)).unwrap();
    for key in 0..p {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    let report = pipeline.publish_into(&mut store).unwrap();
    assert_eq!((report.epoch, report.records), (1, p));
    for key in p..n {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    drop(pipeline); // the crash: nothing else is flushed or published
    (wal_dir, store_dir)
}

/// Runs the 1-call recovery on a (possibly mutated) scene and proves the
/// bit-exactness contract: the last durable snapshot serves unchanged, a
/// clean *prefix* of the tail was replayed (never a corrupt frame), and
/// after re-offering the lost suffix the next publish is bit-identical to
/// the undisturbed run's epoch 2.
fn recover_and_check(
    wal: &Path,
    store_dir: &Path,
    p: u64,
    n: u64,
    ref1: &[u8],
    ref2: &[u8],
    ctx: &str,
) {
    let mut store = SnapshotStore::open(store_dir, 16).unwrap();
    let recovery = recover_from_store_and_wal(journaled(wal), &mut store)
        .unwrap_or_else(|error| panic!("{ctx}: recovery must never fail: {error:?}"));
    let latest = recovery.pipeline.latest().unwrap_or_else(|| panic!("{ctx}: lost epoch 1"));
    assert_eq!(latest.to_bytes(), ref1, "{ctx}: recovered snapshot must be bit-identical");
    assert_eq!(recovery.replay.records_skipped, 0, "{ctx}: covered segments were pruned");
    assert_eq!(recovery.replay.rejected_records, 0, "{ctx}: every journaled record is valid");
    let replayed = recovery.replay.records_replayed;
    assert!(replayed <= n - p, "{ctx}: replayed {replayed} of {} tail records", n - p);
    // Re-offer exactly the suffix the crash destroyed. If recovery had
    // silently accepted a corrupt frame (or dropped a clean one), the
    // bits below could not match the undisturbed run.
    let mut pipeline = recovery.pipeline;
    for key in p + replayed..n {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    let report = pipeline.publish().unwrap();
    assert_eq!(report.epoch, 2, "{ctx}");
    assert_eq!(report.summary.to_bytes(), ref2, "{ctx}: epoch 2 must be bit-identical");
}

/// Crash at **every truncation point**: for every prefix length of every
/// surviving segment — mid-header, mid-frame-header, mid-payload, on a
/// frame boundary — recovery truncates at the last clean frame, replays
/// that prefix, and converges bit-exactly.
#[test]
fn crash_at_every_truncation_point_recovers_bit_exactly() {
    let (p, n) = (40u64, 58u64);
    let ref1 = reference_bytes(0..p);
    let ref2 = reference_bytes(p..n);
    let wal = scratch_dir("trunc-wal");
    let (wal, store_dir) =
        build_crash_scene("trunc", WalConfig::new(&wal).sync(SyncPolicy::OnRotate), p, n);
    let files = wal_files(&wal);
    assert!(!files.is_empty(), "the crash scene must leave a journal tail");
    for file in &files {
        let bytes = fs::read(file).unwrap();
        for cut in 0..=bytes.len() {
            let wal_copy = scratch_dir("trunc-wal-copy");
            let store_copy = scratch_dir("trunc-store-copy");
            copy_dir(&wal, &wal_copy);
            copy_dir(&store_dir, &store_copy);
            fs::write(wal_copy.join(file.file_name().unwrap()), &bytes[..cut]).unwrap();
            let ctx = format!("truncate {} at {cut}", file.display());
            recover_and_check(&wal_copy, &store_copy, p, n, &ref1, &ref2, &ctx);
            fs::remove_dir_all(&wal_copy).unwrap();
            fs::remove_dir_all(&store_copy).unwrap();
        }
    }
}

/// A single flipped bit at **every byte offset** — segment header, frame
/// length, frame CRC, epoch tag, key and weight bytes — is detected and
/// contained: the corrupt frame and everything after it are dropped, never
/// ingested, and recovery still converges bit-exactly.
#[test]
fn every_bit_flip_is_detected_and_recovery_stays_bit_exact() {
    let (p, n) = (40u64, 58u64);
    let ref1 = reference_bytes(0..p);
    let ref2 = reference_bytes(p..n);
    let wal = scratch_dir("flip-wal");
    let (wal, store_dir) =
        build_crash_scene("flip", WalConfig::new(&wal).sync(SyncPolicy::OnRotate), p, n);
    for file in &wal_files(&wal) {
        let bytes = fs::read(file).unwrap();
        for flip in 0..bytes.len() {
            let wal_copy = scratch_dir("flip-wal-copy");
            let store_copy = scratch_dir("flip-store-copy");
            copy_dir(&wal, &wal_copy);
            copy_dir(&store_dir, &store_copy);
            let mut rotten = bytes.clone();
            rotten[flip] ^= 1;
            fs::write(wal_copy.join(file.file_name().unwrap()), &rotten).unwrap();
            let ctx = format!("flip bit at {} of {}", flip, file.display());
            recover_and_check(&wal_copy, &store_copy, p, n, &ref1, &ref2, &ctx);
            fs::remove_dir_all(&wal_copy).unwrap();
            fs::remove_dir_all(&store_copy).unwrap();
        }
    }
}

/// Satellite: recovery is idempotent at both layers. After one recovery
/// has quarantined the rot and truncated the torn tail, a second recovery
/// finds nothing left to repair and reproduces the exact same state.
#[test]
fn recovery_is_idempotent_for_store_and_journal() {
    let (p, n) = (30u64, 44u64);
    let wal = scratch_dir("idem-wal");
    let (wal, store_dir) =
        build_crash_scene("idem", WalConfig::new(&wal).sync(SyncPolicy::OnRotate), p, n);
    // Rot both layers: a junk snapshot in the store, a torn journal tail.
    fs::write(store_dir.join("epoch-00000000000000000009.cws"), b"definitely not a snapshot")
        .unwrap();
    let tail = &wal_files(&wal)[0];
    let bytes = fs::read(tail).unwrap();
    fs::write(tail, &bytes[..bytes.len() - 7]).unwrap();

    let listing = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };

    // Store layer: the first pass quarantines the junk; the second pass is
    // a no-op over identical on-disk state and the same last-good epoch.
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let first = store.recover().unwrap();
    let (first_epoch, first_summary) = first.last_good.clone().unwrap();
    assert_eq!(first_epoch, 1);
    assert_eq!(first.quarantined.len(), 1, "the junk snapshot is quarantined");
    let after_first = listing(&store_dir);
    let second = store.recover().unwrap();
    let (second_epoch, second_summary) = second.last_good.clone().unwrap();
    assert_eq!(second_epoch, 1);
    assert_eq!(second_summary.to_bytes(), first_summary.to_bytes());
    assert!(second.quarantined.is_empty(), "nothing left to quarantine");
    assert_eq!(second.removed_temps, 0);
    assert_eq!(listing(&store_dir), after_first, "the second pass changed nothing");

    // Journal layer: the first recovery truncates the torn tail; the
    // second finds a clean journal, replays the same records, and the
    // published epoch is bit-identical.
    let first = recover_from_store_and_wal(journaled(&wal), &mut store).unwrap();
    assert!(first.replay.truncated_bytes > 0, "the torn tail was repaired");
    let replayed = first.replay.records_replayed;
    assert!(replayed > 0 && replayed < n - p);
    let mut pipeline = first.pipeline;
    let first_bits = pipeline.publish().unwrap().summary.to_bytes();
    drop(pipeline);
    let second = recover_from_store_and_wal(journaled(&wal), &mut store).unwrap();
    assert_eq!(second.replay.truncated_bytes, 0, "nothing left to truncate");
    assert_eq!(second.replay.quarantined_segments, 0);
    assert_eq!(second.replay.records_replayed, replayed);
    let mut pipeline = second.pipeline;
    assert_eq!(pipeline.publish().unwrap().summary.to_bytes(), first_bits);
}

/// Satellite regression: a publish that fails at the *store* layer loses
/// zero records when a journal is attached — the journaled count is
/// reported as replayable, pruning is suspended, and the 1-call recovery
/// re-ingests every record bit-exactly.
#[test]
fn store_layer_publish_failure_loses_zero_records_with_a_journal() {
    let (p, n) = (25u64, 40u64);
    let ref2 = reference_bytes(p..n);
    let wal = scratch_dir("storefail-wal");
    let store_dir = scratch_dir("storefail-store");
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let mut pipeline = EpochedPipeline::new(journaled(&wal)).unwrap();
    for key in 0..p {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    pipeline.publish_into(&mut store).unwrap();
    for key in p..n {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    // Sabotage exactly the next snapshot's temp path: a directory squats
    // on the name, so the store-layer write fails while epoch 1 survives.
    let squatter = store.epoch_path(2).with_extension("cws.tmp");
    fs::create_dir_all(&squatter).unwrap();
    let err = pipeline.publish_into(&mut store).unwrap_err();
    assert!(matches!(err, CwsError::Store { .. }), "{err:?}");
    let state = pipeline.degraded().unwrap();
    assert_eq!(state.records_replayable, n - p, "the journal holds the whole epoch");
    assert!(pipeline.journal().unwrap().pruning_suppressed());
    drop(pipeline); // crash while degraded

    // Heal the store and run the 1-call recovery: epoch 2 was never
    // durable, so its records replay from the journal.
    fs::remove_dir_all(&squatter).unwrap();
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let recovery = recover_from_store_and_wal(journaled(&wal), &mut store).unwrap();
    assert_eq!(recovery.store.last_good.as_ref().unwrap().0, 1);
    assert_eq!(recovery.replay.records_replayed, n - p);
    let mut pipeline = recovery.pipeline;
    let report = pipeline.publish_into(&mut store).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.summary.to_bytes(), ref2, "zero records lost end to end");
    assert_eq!(store.epochs().unwrap(), vec![1, 2]);
}

/// A full journal is a typed `BudgetExceeded` — never silent truncation —
/// checked *before* the frame is written, so the rejected record is
/// neither journaled nor ingested. Epoch barriers are exempt, so a
/// publish (which prunes covered segments) always reclaims space.
#[test]
fn full_journal_is_a_typed_budget_error_and_barriers_still_publish() {
    let wal = scratch_dir("budget-wal");
    let store_dir = scratch_dir("budget-store");
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let config = WalConfig::new(&wal).sync(SyncPolicy::OnRotate).max_bytes(400);
    let mut pipeline = EpochedPipeline::new(small_builder().journal(config)).unwrap();
    let mut accepted = 0u64;
    let mut hit = None;
    for key in 0..1_000u64 {
        match pipeline.push_record(key, &weights_for(key)) {
            Ok(()) => accepted += 1,
            Err(error) => {
                hit = Some(error);
                break;
            }
        }
    }
    match hit.expect("a 400-byte journal must fill up") {
        CwsError::BudgetExceeded { resource, used, requested, limit } => {
            assert_eq!(resource, "wal-bytes");
            assert_eq!(limit, 400);
            assert!(used + requested > limit, "{used} + {requested} vs {limit}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The barrier is exempt: the publish succeeds, covers the epoch, and
    // pruning frees the journal for the next epoch's appends.
    let report = pipeline.publish_into(&mut store).unwrap();
    assert_eq!(report.records, accepted, "the rejected record was never half-ingested");
    pipeline.push_record(9_999, &weights_for(9_999)).unwrap();
}

/// Epoch watermarks bound the journal: every durable publish prunes the
/// sealed segments its snapshot covers, leaving only the (empty) active
/// segment — across many rotation-heavy epochs.
#[test]
fn watermarks_prune_covered_segments_after_every_publish() {
    let wal = scratch_dir("prune-wal");
    let store_dir = scratch_dir("prune-store");
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let config = WalConfig::new(&wal).segment_bytes(256).sync(SyncPolicy::OnRotate);
    let mut pipeline = EpochedPipeline::new(small_builder().journal(config)).unwrap();
    let mut key = 0u64;
    for epoch in 1..=6u64 {
        for _ in 0..20 {
            pipeline.push_record(key, &weights_for(key)).unwrap();
            key += 1;
        }
        let journal = pipeline.journal().unwrap();
        assert!(journal.num_segments() >= 2, "256-byte segments must rotate mid-epoch");
        let report = pipeline.publish_into(&mut store).unwrap();
        assert_eq!(report.epoch, epoch);
        let journal = pipeline.journal().unwrap();
        assert_eq!(journal.num_segments(), 1, "only the fresh active segment survives");
        assert_eq!(wal_files(journal.dir()).len(), 1);
        assert!(!journal.pruning_suppressed());
    }
}

/// A prune that cannot delete a covered segment keeps it listed — and
/// counted against the journal's bytes — so the next publish retries it.
#[test]
fn failed_prune_keeps_the_segment_listed_and_the_next_publish_retries_it() {
    let wal = scratch_dir("prune-fail-wal");
    let store_dir = scratch_dir("prune-fail-store");
    let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
    let config = WalConfig::new(&wal).segment_bytes(256).sync(SyncPolicy::OnRotate);
    let mut pipeline = EpochedPipeline::new(small_builder().journal(config)).unwrap();
    for key in 0..20u64 {
        pipeline.push_record(key, &weights_for(key)).unwrap();
    }
    // 1. A non-empty directory where the oldest sealed segment was.
    let stuck = wal_files(&wal)[0].clone();
    let stuck_len = fs::metadata(&stuck).unwrap().len();
    fs::remove_file(&stuck).unwrap();
    fs::create_dir(&stuck).unwrap();
    fs::write(stuck.join("pin"), b"keeps the directory non-empty").unwrap();
    // 2. The publish succeeds; its best-effort prune fails on that path.
    pipeline.publish_into(&mut store).unwrap();
    let journal = pipeline.journal().unwrap();
    assert_eq!(journal.num_segments(), 2, "the stuck segment stays listed beside the active one");
    assert!(journal.total_bytes() >= stuck_len + 32, "and still counts against the budget");
    // 3. Once the path is clear, the next publish reclaims it.
    fs::remove_dir_all(&stuck).unwrap();
    pipeline.push_record(20, &weights_for(20)).unwrap();
    pipeline.publish_into(&mut store).unwrap();
    // 4. Only the fresh active segment is left.
    let journal = pipeline.journal().unwrap();
    assert_eq!(journal.num_segments(), 1);
    assert_eq!(wal_files(journal.dir()).len(), 1);
}

/// A crash right after `publish_into` pruned the covered segments — the
/// reclaim may still hold their handles — brings no pruned name back:
/// recovery replays nothing the snapshot covers, and a later crash
/// replays exactly the unpublished tail, bit-identical to the undisturbed
/// run. One case per fsync policy.
#[test]
fn a_crash_right_after_a_prune_resurrects_no_segment() {
    let (p, n) = (20u64, 34u64);
    let ref1 = reference_bytes(0..p);
    let ref2 = reference_bytes(p..n);
    for (index, policy) in
        [SyncPolicy::PerBatch, SyncPolicy::EveryN(3), SyncPolicy::OnRotate].into_iter().enumerate()
    {
        let ctx = format!("policy {policy:?}");
        let wal = scratch_dir(&format!("pruned{index}-wal"));
        let store_dir = scratch_dir(&format!("pruned{index}-store"));
        let config = || WalConfig::new(&wal).segment_bytes(256).sync(policy);
        let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
        let mut pipeline = EpochedPipeline::new(small_builder().journal(config())).unwrap();
        for key in 0..p {
            pipeline.push_record(key, &weights_for(key)).unwrap();
        }
        let pruned = wal_files(&wal);
        assert!(pruned.len() >= 3, "{ctx}: 256-byte segments must rotate mid-epoch");
        pipeline.publish_into(&mut store).unwrap();
        drop(pipeline); // the crash, right after the prune
        let survivors = wal_files(&wal);
        assert!(survivors.iter().all(|file| !pruned.contains(file)), "{ctx}: {survivors:?}");

        let mut store = SnapshotStore::open(&store_dir, 16).unwrap();
        let recovery =
            recover_from_store_and_wal(small_builder().journal(config()), &mut store).unwrap();
        assert_eq!(recovery.pipeline.latest().unwrap().to_bytes(), ref1, "{ctx}");
        assert_eq!(recovery.replay.frames_replayed, 0, "{ctx}: nothing is unpublished");
        assert_eq!(recovery.replay.records_skipped, 0, "{ctx}: no covered frame came back");
        // The unpublished tail, then a second crash.
        let mut pipeline = recovery.pipeline;
        for key in p..n {
            pipeline.push_record(key, &weights_for(key)).unwrap();
        }
        drop(pipeline);
        assert!(wal_files(&wal).iter().all(|file| !pruned.contains(file)), "{ctx}");
        let recovery =
            recover_from_store_and_wal(small_builder().journal(config()), &mut store).unwrap();
        assert_eq!(recovery.replay.records_replayed, n - p, "{ctx}: exactly the tail");
        assert_eq!(recovery.replay.records_skipped, 0, "{ctx}");
        let mut pipeline = recovery.pipeline;
        let report = pipeline.publish().unwrap();
        assert_eq!(report.epoch, 2, "{ctx}");
        assert_eq!(report.summary.to_bytes(), ref2, "{ctx}: epoch 2 must be bit-identical");
    }
}

/// Dead WAL configuration is a typed `InvalidParameter` at build time —
/// never a silently ignored knob.
#[test]
fn dead_wal_configurations_are_typed_errors() {
    let wal = scratch_dir("deadcfg-wal");
    let name_of = |result: std::result::Result<EpochedPipeline, CwsError>| match result.unwrap_err()
    {
        CwsError::InvalidParameter { name, .. } => name,
        other => panic!("expected InvalidParameter, got {other:?}"),
    };
    let journaled = |config: WalConfig| EpochedPipeline::new(small_builder().journal(config));
    assert_eq!(name_of(journaled(WalConfig::new(&wal).sync(SyncPolicy::EveryN(0)))), "sync");
    assert_eq!(name_of(journaled(WalConfig::new(&wal).segment_bytes(16))), "segment_bytes");
    // A one-shot pipeline has no epoch barriers to coordinate with.
    match small_builder().journal(WalConfig::new(&wal)).build().unwrap_err() {
        CwsError::InvalidParameter { name: "journal", .. } => {}
        other => panic!("expected InvalidParameter(journal), got {other:?}"),
    }
    // The 1-call recovery requires a journaled builder.
    let mut store = SnapshotStore::open(scratch_dir("deadcfg-store"), 4).unwrap();
    match recover_from_store_and_wal(small_builder(), &mut store).unwrap_err() {
        CwsError::InvalidParameter { name: "journal", .. } => {}
        other => panic!("expected InvalidParameter(journal), got {other:?}"),
    }
}

/// Every fsync policy recovers the same way: the policy trades
/// crash-window size for throughput, but torn-tail truncation and
/// bit-exact replay are policy-independent.
#[test]
fn every_sync_policy_recovers_bit_exactly() {
    let (p, n) = (10u64, 16u64);
    let ref1 = reference_bytes(0..p);
    let ref2 = reference_bytes(p..n);
    for (index, policy) in
        [SyncPolicy::PerBatch, SyncPolicy::EveryN(3), SyncPolicy::OnRotate].into_iter().enumerate()
    {
        let wal = scratch_dir(&format!("sync{index}-wal"));
        let config = WalConfig::new(&wal).sync(policy);
        let (wal, store_dir) = build_crash_scene(&format!("sync{index}"), config, p, n);
        // Tear the tail mid-frame; recovery must truncate and converge.
        let tail = wal_files(&wal).pop().unwrap();
        let bytes = fs::read(&tail).unwrap();
        fs::write(&tail, &bytes[..bytes.len() - 5]).unwrap();
        recover_and_check(&wal, &store_dir, p, n, &ref1, &ref2, &format!("policy {policy:?}"));
    }
}

/// Seed-driven stress: rotation-heavy multi-segment windows with a
/// plan-chosen mutation — a truncation or a single-bit rot at a random
/// offset of a random surviving segment (including segment boundaries and
/// the rotation-time header of a freshly created segment). CI widens
/// coverage with `CWS_WAL_SEEDS=1,2,3,…` in release mode.
#[test]
fn multi_seed_wal_stress_converges() {
    let seeds: Vec<u64> = std::env::var("CWS_WAL_SEEDS")
        .unwrap_or_else(|_| "1,2".to_string())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("CWS_WAL_SEEDS must be comma-separated integers"))
        .collect();
    for seed in seeds {
        let mut plan = FaultPlan::new(seed);
        let p = 20 + plan.next_below(20);
        let n = p + 10 + plan.next_below(30);
        let segment_bytes = 128 + plan.next_below(512);
        let ref1 = reference_bytes(0..p);
        let ref2 = reference_bytes(p..n);
        let wal = scratch_dir(&format!("stress{seed}-wal"));
        let config = WalConfig::new(&wal).segment_bytes(segment_bytes).sync(SyncPolicy::OnRotate);
        let (wal, store_dir) = build_crash_scene(&format!("stress{seed}"), config, p, n);
        let files = wal_files(&wal);
        let target = &files[plan.next_below(files.len() as u64) as usize];
        let mut bytes = fs::read(target).unwrap();
        let at = plan.next_below(bytes.len() as u64 + 1) as usize;
        let ctx = if plan.coin(2) {
            bytes.truncate(at);
            format!("seed {seed}: truncate {} at {at}", target.display())
        } else {
            let at = at.min(bytes.len().saturating_sub(1));
            bytes[at] ^= 1u8 << plan.next_below(8);
            format!("seed {seed}: rot {} at {at}", target.display())
        };
        fs::write(target, &bytes).unwrap();
        recover_and_check(&wal, &store_dir, p, n, &ref1, &ref2, &ctx);
    }
}
