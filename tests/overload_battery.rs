//! The overload battery: resource governance end to end.
//!
//! Locks down the governance contract of the service stack:
//!
//! * ingest under a byte/key budget surfaces **typed** errors
//!   (`BudgetExceeded`, never an OOM or a silent drop) and loses **zero**
//!   valid records — quarantined + ingested always equals offered;
//! * a query carrying an expired deadline returns `DeadlineExceeded`
//!   without poisoning the pipeline or the summary — the same query
//!   without a deadline still answers exactly;
//! * [`SnapshotStore::scrub`] detects **every single-byte flip** across every
//!   retained epoch while `latest()` keeps serving the last good snapshot.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coordinated_sampling::prelude::*;
use cws_engine::store::SnapshotStore;

/// A fresh scratch directory under the OS temp dir (no tempfile crate in
/// the offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("cws-overload-{tag}-{}-{unique}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A small governed element pipeline: aggregation stage in front of a
/// dispersed-layout sampler.
fn governed_builder() -> PipelineBuilder {
    Pipeline::builder()
        .assignments(2)
        .k(16)
        .layout(Layout::Dispersed)
        .seed(101)
        .aggregation(Aggregation::SumByKey)
}

/// The workload all budget tests offer: `total` elements, every
/// `poison_stride`-th one invalid (NaN weight). Returns
/// `(elements, valid_count, poison_count)`.
fn poisoned_workload(total: u64, poison_stride: u64) -> (Vec<(u64, usize, f64)>, u64, u64) {
    let mut elements = Vec::new();
    let (mut valid, mut poison) = (0u64, 0u64);
    for index in 0..total {
        if index % poison_stride == poison_stride - 1 {
            elements.push((index, 0, f64::NAN));
            poison += 1;
        } else {
            elements.push((index, (index % 2) as usize, ((index % 9) + 1) as f64));
            valid += 1;
        }
    }
    (elements, valid, poison)
}

/// Acceptance (a): ingest under a key budget returns typed errors and
/// loses zero valid records — `quarantined + ingested == offered`, and the
/// capped run's summary is bit-exact with the uncapped run's.
#[test]
fn budgeted_ingest_is_typed_and_loses_no_valid_records() {
    let (elements, valid, poison) = poisoned_workload(600, 7);

    // Batches of 12 distinct keys never exceed the 16-key cap on their
    // own, so the facade's flush-early path absorbs every batch.
    let mut capped =
        governed_builder().budget(ResourceBudget::unlimited().with_max_keys(16)).build().unwrap();
    let mut uncapped = governed_builder().build().unwrap();
    for batch in elements.chunks(12) {
        capped.push_elements(batch).unwrap();
        uncapped.push_elements(batch).unwrap();
    }

    assert_eq!(capped.processed(), valid, "every valid record must ingest");
    let report = capped.quarantined().expect("poison records must be quarantined");
    assert_eq!(report.count, poison);
    assert_eq!(
        capped.processed() + report.count,
        valid + poison,
        "quarantined + ingested must equal offered"
    );
    assert!(capped.peak_tracked_bytes() > 0, "budget accounting must track bytes");

    // Same records, same seed — the capped (flush-early) run finalizes
    // bit-exactly like the uncapped one.
    let capped_summary = capped.finalize().unwrap();
    let uncapped_summary = uncapped.finalize().unwrap();
    assert_eq!(capped_summary.to_bytes(), uncapped_summary.to_bytes());
}

/// Acceptance (a), typed-error half: a single batch wider than the key cap
/// cannot be admitted even after flush-early, and must surface as
/// `BudgetExceeded` — with the pipeline still usable afterwards.
#[test]
fn over_cap_batch_surfaces_budget_exceeded_and_is_recoverable() {
    let mut pipeline =
        governed_builder().budget(ResourceBudget::unlimited().with_max_keys(8)).build().unwrap();
    let wide: Vec<(u64, usize, f64)> = (0..32u64).map(|key| (key, 0, 1.0)).collect();
    match pipeline.push_elements(&wide) {
        Err(CwsError::BudgetExceeded { resource: "keys", limit: 8, .. }) => {}
        other => panic!("expected a typed keys budget breach, got {other:?}"),
    }
    // The breach rejected the batch atomically: splitting it under the cap
    // ingests everything.
    for batch in wide.chunks(8) {
        pipeline.push_elements(batch).unwrap();
    }
    assert_eq!(pipeline.processed(), 32);
    assert!(pipeline.finalize().unwrap().num_distinct_keys() > 0);

    // The byte-budget twin: a cap smaller than one tracked key.
    let mut starved =
        governed_builder().budget(ResourceBudget::unlimited().with_max_bytes(8)).build().unwrap();
    match starved.push_element(1, 0, 1.0) {
        Err(CwsError::BudgetExceeded { resource: "bytes", limit: 8, .. }) => {}
        other => panic!("expected a typed bytes budget breach, got {other:?}"),
    }
}

/// Acceptance (c): a query with an expired deadline returns a typed
/// `DeadlineExceeded` without poisoning anything — the identical query
/// minus the deadline still answers, and answers exactly.
#[test]
fn expired_query_deadline_is_typed_and_poisons_nothing() {
    let mut pipeline =
        Pipeline::builder().assignments(2).k(64).layout(Layout::Dispersed).seed(5).build().unwrap();
    for key in 0..400u64 {
        pipeline.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
    }
    let summary = pipeline.finalize().unwrap();

    let l1 = || QueryBatch::new().push(QuerySpec::l1(0, 1));
    match summary.query_batch(&l1().with_deadline(Duration::ZERO)) {
        Err(CwsError::DeadlineExceeded { op: "query", budget_ms: 0 }) => {}
        other => panic!("expected a typed query deadline breach, got {other:?}"),
    }
    let plain = summary.query(&QuerySpec::l1(0, 1)).unwrap();
    let generous = summary.query_batch(&l1().with_deadline(Duration::from_secs(3600))).unwrap();
    assert_eq!(
        plain.value.to_bits(),
        generous[0].value.to_bits(),
        "the summary must not be poisoned"
    );
}

/// Acceptance (c), ingest half: an expired ingest deadline rejects pushes
/// typed, but finalize still succeeds — work already ingested is never
/// lost to a timeout.
#[test]
fn expired_ingest_deadline_never_loses_ingested_work() {
    let mut pipeline = governed_builder().deadline(Duration::from_secs(3600)).build().unwrap();
    pipeline.push_element(1, 0, 2.0).unwrap();
    let mut expired = governed_builder().deadline(Duration::ZERO).build().unwrap();
    match expired.push_element(1, 0, 2.0) {
        Err(CwsError::DeadlineExceeded { op: "ingest", .. }) => {}
        other => panic!("expected a typed ingest deadline breach, got {other:?}"),
    }
    // Finalize is deliberately not deadline-checked.
    assert!(expired.finalize().is_ok());
}

/// Acceptance (d): a scrub detects **every** single-byte flip across
/// every retained epoch — quarantining exactly the rotten epoch — while
/// the serving side keeps answering from the last published snapshot.
#[test]
fn scrubber_detects_every_single_byte_flip_while_serving() {
    let dir = scratch_dir("everyflip");
    let mut store = SnapshotStore::open(&dir, 4).unwrap();
    let mut epochs = EpochedPipeline::new(
        Pipeline::builder().assignments(2).k(4).layout(Layout::Dispersed).seed(77),
    )
    .unwrap();
    for epoch in 0..3u64 {
        for key in (epoch * 100)..(epoch * 100 + 120) {
            epochs.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
        }
        epochs.publish_into(&mut store).unwrap();
    }
    let serving = epochs.latest().expect("three epochs were published");
    let baseline = serving.query(&QuerySpec::l1(0, 1)).unwrap();
    // Each detected flip's forensics file replaces the epoch's previous
    // one, so at most one per epoch stays within the store's retention.

    for epoch in store.epochs().unwrap() {
        let path = store.epoch_path(epoch);
        let pristine = std::fs::read(&path).unwrap();
        for offset in 0..pristine.len() {
            let mut rotten = pristine.clone();
            rotten[offset] ^= 0x01;
            std::fs::write(&path, &rotten).unwrap();

            let report = store.scrub().unwrap();
            assert_eq!(
                report.quarantined.len(),
                1,
                "epoch {epoch} offset {offset}: the flip must be detected"
            );
            assert_eq!(report.quarantined[0].epoch, epoch);
            assert!(!report.verified.contains(&epoch));

            // Serving never noticed: the in-memory snapshot still answers
            // bit-exactly.
            let still = epochs.latest().unwrap().query(&QuerySpec::l1(0, 1)).unwrap();
            assert_eq!(still.value.to_bits(), baseline.value.to_bits());

            // Restore the epoch for the next offset; the follow-up scrub
            // verifies it clean again.
            std::fs::write(&path, &pristine).unwrap();
        }
        let clean = store.scrub().unwrap();
        assert!(clean.quarantined.is_empty(), "epoch {epoch}: restore must scrub clean");
        assert!(clean.verified.contains(&epoch));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Governance survives epoch swaps: quarantine totals and the tracked-byte
/// high-water mark accumulate across `publish()` boundaries and surface
/// through the continuous layer.
#[test]
fn continuous_layer_accumulates_governance_across_epochs() {
    let mut epochs = EpochedPipeline::new(
        governed_builder().budget(ResourceBudget::unlimited().with_max_bytes(1 << 20)),
    )
    .unwrap();
    let mut offered_poison = 0u64;
    for epoch in 0..3u64 {
        let (elements, _, poison) = poisoned_workload(120 + epoch * 30, 11);
        offered_poison += poison;
        // Poison is only diverted on the batch path — feed batches.
        for batch in elements.chunks(10) {
            epochs.push_elements(batch).unwrap();
        }
        epochs.publish().unwrap();
        assert_eq!(
            epochs.quarantined_lifetime().expect("poison was offered").count,
            offered_poison,
            "epoch swap must not reset quarantine totals"
        );
        assert!(epochs.peak_tracked_bytes() > 0);
    }
}
