//! The fault battery: deterministic failure injection across the whole
//! service stack.
//!
//! Locks down the robustness contract end to end:
//!
//! * a crash during a snapshot write **at every byte offset** leaves the
//!   store recoverable to the last good epoch bit-exactly;
//! * a stalled shard of the sharded sampler surfaces a typed timeout,
//!   never a hang;
//! * the codec round-trips bit-exactly through hostile I/O (1-byte-at-a-
//!   time, `ErrorKind::Interrupted` noise);
//! * `.quarantined` forensics files stay bounded by the store's retention
//!   under sustained rot;
//! * a multi-seed stress run (`CWS_FAULT_SEEDS=1,2,3 …`) injects
//!   plan-scheduled faults and proves respawn + re-ingest always converges
//!   to the undisturbed summary — then rots one plan-chosen byte at rest
//!   and proves the scrub catches it.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coordinated_sampling::core::fault::{
    FailingWriter, InterruptingReader, InterruptingWriter, ShortReader, ShortWriter,
};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::sharded::ShardedDispersedSampler;
use cws_engine::store::SnapshotStore;

/// A fresh scratch directory under the OS temp dir (no tempfile crate in
/// the offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cws-fault-{tag}-{}-{unique}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A small dispersed-layout pipeline (tiny `k` keeps encoded snapshots a
/// few hundred bytes, so every-byte crash loops stay fast).
fn small_builder() -> PipelineBuilder {
    Pipeline::builder().assignments(2).k(4).layout(Layout::Dispersed).seed(77)
}

fn small_summary(keys: std::ops::Range<u64>) -> Summary {
    let mut pipeline = small_builder().build().unwrap();
    for key in keys {
        pipeline.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
    }
    pipeline.finalize().unwrap()
}

/// Crash-during-write at **every byte offset** of a snapshot: whether the
/// torn prefix is left as an uncommitted `.tmp` (the atomic-publish case)
/// or under a final epoch name (disk corruption), recovery must quarantine
/// or remove it and resume from the last good epoch **bit-exactly**.
#[test]
fn crash_at_every_byte_offset_recovers_to_last_good_epoch() {
    let epoch1 = small_summary(0..120);
    let epoch1_bytes = epoch1.to_bytes();
    let epoch2 = small_summary(120..260);
    let epoch2_bytes = epoch2.to_bytes();

    let dir = scratch_dir("everybyte");
    let mut store = SnapshotStore::open(&dir, 16).unwrap();
    store.publish(1, &epoch1).unwrap();
    let torn_final = store.epoch_path(2);
    let torn_temp = dir.join("epoch-00000000000000000003.cws.tmp");

    for offset in 0..epoch2_bytes.len() {
        // Model the crash with the seedable fault framework: a writer that
        // dies at `offset` leaves exactly the prefix a real crash would.
        let mut writer = FailingWriter::new(Vec::new(), offset as u64, ErrorKind::WriteZero);
        assert!(epoch2.write_to(&mut writer).is_err(), "offset {offset}");
        let torn = writer.into_inner();
        assert_eq!(torn, &epoch2_bytes[..offset]);

        std::fs::write(&torn_final, &torn).unwrap();
        std::fs::write(&torn_temp, &torn).unwrap();

        let report = store.recover().unwrap();
        assert_eq!(report.removed_temps, 1, "offset {offset}");
        assert_eq!(report.quarantined.len(), 1, "offset {offset}");
        assert_eq!(report.quarantined[0].epoch, 2);
        let (epoch, recovered) = report.last_good.expect("epoch 1 must survive");
        assert_eq!(epoch, 1, "offset {offset}");
        assert_eq!(
            recovered.to_bytes(),
            epoch1_bytes,
            "recovery must be bit-exact at offset {offset}"
        );
        assert!(!torn_temp.exists());
        assert!(!torn_final.exists(), "the torn file must be quarantined away");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stalled shard produces a typed `ShardStalled` within the configured
/// timeout — never a hang — and the stall is transient: once the worker
/// wakes, the same push succeeds and finalize completes.
#[test]
fn stalled_shard_times_out_typed_and_recovers() {
    let config = coordinated_sampling::core::summary::SummaryConfig::new(
        8,
        RankFamily::Ipps,
        CoordinationMode::SharedSeed,
        19,
    );
    let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 2, 1, 2);
    sharded.set_stall_timeout(Duration::from_millis(50));
    sharded.inject_worker_fault(0, WorkerFault::Stall { millis: 400 }).unwrap();
    let started = std::time::Instant::now();
    let mut stalled = None;
    for key in 0..10_000u64 {
        if let Err(error) = sharded.push_record(key, &[1.0, 2.0]) {
            stalled = Some(error);
            break;
        }
    }
    match stalled.expect("the stall must surface as a typed error") {
        CwsError::ShardStalled { shard: 0, timeout_ms: 50 } => {}
        other => panic!("unexpected error {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "stall detection must be bounded");
    assert!(sharded.is_healthy(), "a stall is not a death");
    std::thread::sleep(Duration::from_millis(500));
    sharded.push_record(1, &[1.0, 2.0]).unwrap();
    let summary = sharded.finalize().unwrap();
    assert!(summary.num_distinct_keys() > 0);
}

/// Satellite: `write_to`/`read_from` driven through 1-byte-at-a-time I/O
/// round-trip bit-exactly for both layouts.
#[test]
fn codec_roundtrips_through_one_byte_io() {
    let dispersed = small_summary(0..200);
    let colocated = {
        let mut pipeline = Pipeline::builder()
            .assignments(3)
            .k(8)
            .layout(Layout::Colocated)
            .seed(5)
            .build()
            .unwrap();
        for key in 0..150u64 {
            pipeline.push_record(key, &[(key % 4) as f64, ((key % 6) + 1) as f64, 1.0]).unwrap();
        }
        pipeline.finalize().unwrap()
    };
    for summary in [dispersed, colocated] {
        let reference = summary.to_bytes();
        let mut writer = ShortWriter::new(Vec::new(), 1);
        summary.write_to(&mut writer).unwrap();
        let written = writer.into_inner();
        assert_eq!(written, reference, "1-byte writes must not alter the stream");
        let mut reader = ShortReader::new(written.as_slice(), 1);
        let decoded = Summary::read_from(&mut reader).unwrap();
        assert_eq!(decoded, summary);
        assert_eq!(decoded.to_bytes(), reference);
    }
}

/// Satellite: `ErrorKind::Interrupted` noise on a seeded schedule must be
/// absorbed by the codec's retry loops — bit-exact round-trip, typed error
/// never.
#[test]
fn codec_roundtrips_through_interrupted_io() {
    let summary = small_summary(0..250);
    let reference = summary.to_bytes();
    for seed in [1u64, 2, 3, 4, 5] {
        let mut writer = InterruptingWriter::new(Vec::new(), FaultPlan::new(seed), 2);
        summary.write_to(&mut writer).unwrap();
        let written = writer.into_inner();
        assert_eq!(written, reference, "seed {seed}");
        let mut reader =
            InterruptingReader::new(written.as_slice(), FaultPlan::new(seed.wrapping_mul(31)), 2);
        let decoded = Summary::read_from(&mut reader).unwrap();
        assert_eq!(decoded.to_bytes(), reference, "seed {seed}");
    }
}

/// Satellite: `.quarantined` forensics files must not accumulate without
/// bound — recovery and scrubbing both prune them to the store's epoch
/// retention.
#[test]
fn quarantined_file_accumulation_is_bounded() {
    let dir = scratch_dir("qbound");
    let retention = 3usize;
    let mut store = SnapshotStore::open(&dir, retention).unwrap();
    let good = small_summary(0..100);
    store.publish(1, &good).unwrap();

    // Years of rot: many epochs corrupted on disk, quarantined one by one.
    for epoch in 2..=12u64 {
        store.publish(epoch, &good).unwrap();
        let path = store.epoch_path(epoch);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(report.quarantined.len(), 1, "epoch {epoch}");
        let forensics = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|entry| {
                entry.as_ref().unwrap().file_name().to_string_lossy().ends_with(".quarantined")
            })
            .count();
        assert!(
            forensics <= retention,
            "epoch {epoch}: {forensics} forensics files exceed retention {retention}"
        );
    }

    // Recovery applies the same bound.
    let report = store.recover().unwrap();
    assert!(report.last_good.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Multi-seed stress: each seed derives a full fault schedule (which shard,
/// which fault, when) from a [`FaultPlan`]; whatever interleaving results,
/// respawn + re-ingest must converge to the undisturbed summary bit-exactly.
///
/// CI's stress job widens coverage with `CWS_FAULT_SEEDS=1,2,3,…` in
/// release mode; the default single seed keeps tier-1 fast.
#[test]
fn multi_seed_fault_stress_converges_after_respawn() {
    let seeds: Vec<u64> = std::env::var("CWS_FAULT_SEEDS")
        .unwrap_or_else(|_| "1".to_string())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("CWS_FAULT_SEEDS must be comma-separated integers"))
        .collect();

    let config = coordinated_sampling::core::summary::SummaryConfig::new(
        16,
        RankFamily::Ipps,
        CoordinationMode::SharedSeed,
        21,
    );
    let records: Vec<(u64, [f64; 2])> =
        (0..600u64).map(|key| (key, [((key % 13) + 1) as f64, ((key * 3) % 7) as f64])).collect();
    let mut sequential = coordinated_sampling::stream::MultiAssignmentStreamSampler::new(config, 2);
    for (key, weights) in &records {
        sequential.push_record(*key, weights).unwrap();
    }
    let expected = sequential.finalize();

    for &seed in &seeds {
        let mut plan = FaultPlan::new(seed);
        let shards = 2 + plan.next_below(3) as usize; // 2..=4
        let inject_at = plan.next_below(records.len() as u64) as usize;
        let shard = plan.next_below(shards as u64) as usize;
        let fault = if plan.coin(2) {
            WorkerFault::Panic
        } else {
            WorkerFault::Stall { millis: 50 + plan.next_below(150) }
        };

        let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, 2, shards, 16);
        sharded.set_stall_timeout(Duration::from_millis(40));
        let mut injected = false;
        let mut disturbed = false;
        for (index, (key, weights)) in records.iter().enumerate() {
            if index == inject_at && sharded.inject_worker_fault(shard, fault).is_ok() {
                injected = true;
            }
            if sharded.push_record(*key, weights).is_err() {
                disturbed = true;
            }
        }
        assert!(injected, "seed {seed}: the fault was never delivered");
        // Whether or not the interleaving surfaced an error before the end
        // of the stream, the recovery route is identical: respawn (a
        // deterministic rebuild) and re-ingest from the durable source.
        let _ = disturbed;
        sharded.respawn();
        assert!(sharded.is_healthy(), "seed {seed}");
        for (key, weights) in &records {
            sharded.push_record(*key, weights).unwrap();
        }
        let recovered = sharded
            .finalize()
            .unwrap_or_else(|error| panic!("seed {seed}: post-respawn finalize failed: {error:?}"));
        assert_eq!(recovered, expected, "seed {seed}: recovery must be bit-exact");

        // Scrub phase: persist the recovered epoch, rot one plan-chosen
        // byte at rest, and prove the scrub catches it while recovery
        // still restores the previous good epoch bit-exactly.
        let dir = scratch_dir(&format!("stress-scrub-{seed}"));
        let mut store = SnapshotStore::open(&dir, 4).unwrap();
        let good = Summary::Dispersed(expected.clone());
        store.publish(1, &good).unwrap();
        store.publish(2, &Summary::Dispersed(recovered)).unwrap();
        let rotten_path = store.epoch_path(2);
        let mut bytes = std::fs::read(&rotten_path).unwrap();
        let offset = plan.next_below(bytes.len() as u64) as usize;
        bytes[offset] ^= 1 + plan.next_below(255) as u8;
        std::fs::write(&rotten_path, &bytes).unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(
            report.quarantined.len(),
            1,
            "seed {seed}: the scrubber must catch the flip at offset {offset}"
        );
        assert_eq!(report.quarantined[0].epoch, 2);
        assert_eq!(report.verified, vec![1], "seed {seed}");
        let (epoch, from_disk) = store.recover().unwrap().last_good.expect("epoch 1 survives");
        assert_eq!(epoch, 1, "seed {seed}");
        assert_eq!(from_disk.to_bytes(), good.to_bytes(), "seed {seed}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
