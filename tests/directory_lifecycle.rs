//! Characterisation of the two durable directories: the snapshot store and
//! the write-ahead journal, scripted through their whole lifecycle.
//!
//! One deterministic script drives a store and a journaled
//! `EpochedPipeline`: publishes past the store's retention, pushes across
//! segment rotations, durable publishes with their prunes, planted temps
//! and foreign files, a snapshot that rots at rest and is scrubbed, a torn
//! journal tail, a segment with a bad header, and both recovery entry
//! points. After every step it pins the sorted file listing of both
//! directories and every field of the reports the step returns, so any
//! change to a file name, a rename, an unlink or a report count shows up
//! here. A recovered snapshot is pinned by its epoch and a digest of its
//! bytes.

use std::fs;
use std::path::{Path, PathBuf};

use coordinated_sampling::prelude::*;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cws-lifecycle-{tag}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn builder(wal_dir: &Path) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(2)
        .k(4)
        .layout(Layout::Dispersed)
        .seed(77)
        .journal(WalConfig::new(wal_dir).segment_bytes(256))
}

fn push(pipeline: &mut EpochedPipeline, keys: std::ops::Range<u64>) {
    for key in keys {
        pipeline.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
    }
}

/// Every entry of `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> =
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

/// FNV-1a over a snapshot's encoded bytes.
fn digest(summary: &Summary) -> String {
    let hash = summary
        .to_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("{hash:016x}")
}

fn quarantined(found: &[QuarantinedSnapshot]) -> Vec<String> {
    found
        .iter()
        .map(|q| {
            let name = q.path.file_name().unwrap().to_string_lossy();
            format!("{} {name} {}", q.epoch, q.error)
        })
        .collect()
}

fn recovery(report: &RecoveryReport) -> String {
    let last_good =
        report.last_good.as_ref().map(|(epoch, summary)| format!("{epoch}:{}", digest(summary)));
    format!(
        "last_good={last_good:?} quarantined={:?} removed_temps={} pruned_quarantined={}",
        quarantined(&report.quarantined),
        report.removed_temps,
        report.pruned_quarantined
    )
}

fn scrub(report: &ScrubReport) -> String {
    format!(
        "verified={:?} quarantined={:?} pruned_quarantined={}",
        report.verified,
        quarantined(&report.quarantined),
        report.pruned_quarantined
    )
}

fn replay(report: &ReplayReport) -> String {
    format!(
        "frames_replayed={} records_replayed={} records_skipped={} rejected_records={} \
         truncated_bytes={} quarantined_segments={} removed_temps={}",
        report.frames_replayed,
        report.records_replayed,
        report.records_skipped,
        report.rejected_records,
        report.truncated_bytes,
        report.quarantined_segments,
        report.removed_temps
    )
}

/// What the script saw, one line per pinned item.
struct Transcript {
    store_dir: PathBuf,
    wal_dir: PathBuf,
    lines: Vec<String>,
}

impl Transcript {
    /// Pins both directory listings after `step`.
    fn dirs(&mut self, step: &str) {
        let (store, wal) = (listing(&self.store_dir), listing(&self.wal_dir));
        self.lines.push(format!("{step}: store {}", store.join(" ")));
        self.lines.push(format!("{step}: wal {}", wal.join(" ")));
    }

    fn line(&mut self, step: &str, what: String) {
        self.lines.push(format!("{step}: {what}"));
    }
}

/// The live segments of `dir`, oldest first.
fn live_segments(dir: &Path) -> Vec<PathBuf> {
    listing(dir).into_iter().filter(|n| n.ends_with(".cwsj")).map(|n| dir.join(n)).collect()
}

/// Flips one byte of `path` at `offset`.
fn flip(path: &Path, offset: impl Fn(usize) -> usize) {
    let mut bytes = fs::read(path).unwrap();
    let at = offset(bytes.len());
    bytes[at] ^= 0x01;
    fs::write(path, &bytes).unwrap();
}

const EXPECTED: &[&str] = &[
    "open: store ",
    "open: wal wal-00000000000000000000.cwsj",
    "publish 1: store epoch-00000000000000000001.cws",
    "publish 1: wal wal-00000000000000000001.cwsj",
    "publish 2: store epoch-00000000000000000001.cws epoch-00000000000000000002.cws",
    "publish 2: wal wal-00000000000000000002.cwsj",
    "publish 3: store epoch-00000000000000000002.cws epoch-00000000000000000003.cws",
    "publish 3: wal wal-00000000000000000003.cwsj",
    "rotations: store epoch-00000000000000000002.cws epoch-00000000000000000003.cws",
    "rotations: wal wal-00000000000000000003.cwsj wal-00000000000000000004.cwsj wal-00000000000000000005.cwsj wal-00000000000000000006.cwsj wal-00000000000000000007.cwsj wal-00000000000000000008.cwsj wal-00000000000000000009.cwsj",
    "publish 4: store epoch-00000000000000000003.cws epoch-00000000000000000004.cws",
    "publish 4: wal wal-00000000000000000010.cwsj",
    "publish 5: store epoch-00000000000000000004.cws epoch-00000000000000000005.cws",
    "publish 5: wal wal-00000000000000000013.cwsj",
    "planted: store MANIFEST epoch-00000000000000000001.cws.quarantined epoch-00000000000000000002.cws.quarantined epoch-00000000000000000004.cws epoch-00000000000000000005.cws epoch-00000000000000000099.cws.tmp",
    "planted: wal MANIFEST wal-00000000000000000013.cwsj wal-00000000000000000014.cwsj wal-00000000000000000015.cwsj wal-00000000000000000090.cwsj.quarantined wal-00000000000000000098.cwsj.tmp",
    "publish 6: store MANIFEST epoch-00000000000000000001.cws.quarantined epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws epoch-00000000000000000006.cws epoch-00000000000000000099.cws.tmp",
    "publish 6: wal MANIFEST wal-00000000000000000016.cwsj wal-00000000000000000090.cwsj.quarantined wal-00000000000000000098.cwsj.tmp",
    "scrub: verified=[6] quarantined=[\"5 epoch-00000000000000000005.cws.quarantined summary codec error at byte 272: body checksum mismatch\"] pruned_quarantined=1",
    "scrub: store MANIFEST epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws epoch-00000000000000000099.cws.tmp",
    "scrub: wal MANIFEST wal-00000000000000000016.cwsj wal-00000000000000000090.cwsj.quarantined wal-00000000000000000098.cwsj.tmp",
    "crash 1: store MANIFEST epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws epoch-00000000000000000099.cws.tmp",
    "crash 1: wal MANIFEST wal-00000000000000000016.cwsj wal-00000000000000000017.cwsj wal-00000000000000000018.cwsj wal-00000000000000000019.cwsj wal-00000000000000000020.cwsj wal-00000000000000000090.cwsj.quarantined wal-00000000000000000098.cwsj.tmp",
    "crash 1 recovery: last_good=Some(\"6:c8b7d580f35c7b21\") quarantined=[] removed_temps=1 pruned_quarantined=0",
    "crash 1 replay: frames_replayed=19 records_replayed=19 records_skipped=0 rejected_records=0 truncated_bytes=46 quarantined_segments=1 removed_temps=1",
    "crash 1 recovered: store MANIFEST epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws",
    "crash 1 recovered: wal MANIFEST wal-00000000000000000016.cwsj wal-00000000000000000017.cwsj wal-00000000000000000018.cwsj wal-00000000000000000019.cwsj wal-00000000000000000020.cwsj.quarantined wal-00000000000000000090.cwsj.quarantined wal-00000000000000000091.cwsj",
    "publish 7: store MANIFEST epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws epoch-00000000000000000007.cws",
    "publish 7: wal MANIFEST wal-00000000000000000020.cwsj.quarantined wal-00000000000000000090.cwsj.quarantined wal-00000000000000000092.cwsj",
    "crash 2: store MANIFEST epoch-00000000000000000002.cws.quarantined epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws epoch-00000000000000000007.cws epoch-00000000000000000008.cws.tmp",
    "crash 2: wal MANIFEST wal-00000000000000000020.cwsj.quarantined wal-00000000000000000090.cwsj.quarantined wal-00000000000000000092.cwsj wal-00000000000000000093.cwsj wal-00000000000000000094.cwsj wal-00000000000000000095.cwsj wal-00000000000000000096.cwsj wal-00000000000000000097.cwsj wal-00000000000000000098.cwsj",
    "crash 2 store recovery: last_good=Some(\"7:f13134f7f0ab5bd8\") quarantined=[\"6 epoch-00000000000000000006.cws.quarantined summary codec error at byte 272: body checksum mismatch\"] removed_temps=1 pruned_quarantined=1",
    "crash 2 store recovered: store MANIFEST epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws.quarantined epoch-00000000000000000007.cws",
    "crash 2 store recovered: wal MANIFEST wal-00000000000000000020.cwsj.quarantined wal-00000000000000000090.cwsj.quarantined wal-00000000000000000092.cwsj wal-00000000000000000093.cwsj wal-00000000000000000094.cwsj wal-00000000000000000095.cwsj wal-00000000000000000096.cwsj wal-00000000000000000097.cwsj wal-00000000000000000098.cwsj",
    "crash 2 recovery: last_good=Some(\"7:f13134f7f0ab5bd8\") quarantined=[] removed_temps=0 pruned_quarantined=0",
    "crash 2 replay: frames_replayed=25 records_replayed=25 records_skipped=0 rejected_records=0 truncated_bytes=0 quarantined_segments=2 removed_temps=0",
    "crash 2 recovered: store MANIFEST epoch-00000000000000000005.cws.quarantined epoch-00000000000000000006.cws.quarantined epoch-00000000000000000007.cws",
    "crash 2 recovered: wal MANIFEST wal-00000000000000000020.cwsj.quarantined wal-00000000000000000090.cwsj.quarantined wal-00000000000000000092.cwsj wal-00000000000000000093.cwsj wal-00000000000000000094.cwsj wal-00000000000000000095.cwsj wal-00000000000000000096.cwsj wal-00000000000000000097.cwsj.quarantined wal-00000000000000000098.cwsj.quarantined wal-00000000000000000099.cwsj",
    "crash 2 serving: f13134f7f0ab5bd8",
];

#[test]
fn store_and_journal_directories_follow_their_pinned_lifecycle() {
    let store_dir = scratch_dir("store");
    let wal_dir = scratch_dir("wal");
    let mut t =
        Transcript { store_dir: store_dir.clone(), wal_dir: wal_dir.clone(), lines: Vec::new() };
    let mut store = SnapshotStore::open(&store_dir, 2).unwrap();
    let mut pipeline = EpochedPipeline::new(builder(&wal_dir)).unwrap();
    t.dirs("open");

    // Publishes past the retention of two epochs.
    for keys in [0..3u64, 3..6, 6..9] {
        push(&mut pipeline, keys);
        let published = pipeline.publish_into(&mut store).unwrap();
        t.dirs(&format!("publish {}", published.epoch));
    }

    // Pushes across segment rotations, then two durable publishes, each
    // with its store prune and journal prune.
    push(&mut pipeline, 100..130);
    t.dirs("rotations");
    for keys in [200..210u64, 210..220] {
        let published = pipeline.publish_into(&mut store).unwrap();
        t.dirs(&format!("publish {}", published.epoch));
        push(&mut pipeline, keys);
    }

    // Planted temps, foreign files and old forensics, then a publish.
    fs::write(store_dir.join(format!("epoch-{:020}.cws.tmp", 99)), b"partial").unwrap();
    fs::write(store_dir.join("MANIFEST"), b"epoch 9\n").unwrap();
    for old in [1u64, 2] {
        fs::write(store_dir.join(format!("epoch-{old:020}.cws.quarantined")), b"old").unwrap();
    }
    fs::write(wal_dir.join(format!("wal-{:020}.cwsj.tmp", 98)), b"partial").unwrap();
    fs::write(wal_dir.join("MANIFEST"), b"foreign\n").unwrap();
    fs::write(wal_dir.join(format!("wal-{:020}.cwsj.quarantined", 90)), b"old").unwrap();
    t.dirs("planted");
    let published = pipeline.publish_into(&mut store).unwrap();
    t.dirs(&format!("publish {}", published.epoch));

    // A snapshot rots at rest; the scrub quarantines it and prunes the
    // forensics to the store's retention.
    flip(&store.epoch_path(published.epoch - 1), |len| len / 2);
    let scrubbed = store.scrub().unwrap();
    t.line("scrub", scrub(&scrubbed));
    t.dirs("scrub");

    // Crash one: a torn tail on the newest segment that holds frames
    // strands the header-only one after it; then the one-call recovery.
    push(&mut pipeline, 400..420);
    drop(pipeline);
    let live = live_segments(&wal_dir);
    let torn = &live[live.len() - 2];
    let len = fs::metadata(torn).unwrap().len();
    fs::OpenOptions::new().write(true).open(torn).unwrap().set_len(len - 3).unwrap();
    t.dirs("crash 1");
    let recovered = recover_from_store_and_wal(builder(&wal_dir), &mut store).unwrap();
    t.line("crash 1 recovery", recovery(&recovered.store));
    t.line("crash 1 replay", replay(&recovered.replay));
    t.dirs("crash 1 recovered");

    // Crash two: a segment with a bad header strands the one after it, and
    // the store recovers on its own first.
    let mut pipeline = recovered.pipeline;
    let published = pipeline.publish_into(&mut store).unwrap();
    t.dirs(&format!("publish {}", published.epoch));
    push(&mut pipeline, 500..530);
    drop(pipeline);
    let live = live_segments(&wal_dir);
    flip(&live[live.len() - 2], |_| 0);
    // The store recovery quarantines a rotten snapshot, removes a temp and
    // prunes the forensics.
    flip(&store.epoch_path(published.epoch - 1), |len| len - 1);
    fs::write(store_dir.join(format!("epoch-{:020}.cws.tmp", 8)), b"partial").unwrap();
    t.dirs("crash 2");
    let report = store.recover().unwrap();
    t.line("crash 2 store recovery", recovery(&report));
    t.dirs("crash 2 store recovered");
    let recovered = recover_from_store_and_wal(builder(&wal_dir), &mut store).unwrap();
    t.line("crash 2 recovery", recovery(&recovered.store));
    t.line("crash 2 replay", replay(&recovered.replay));
    t.dirs("crash 2 recovered");
    let latest = recovered.pipeline.latest().unwrap();
    t.line("crash 2 serving", digest(&latest));
    drop(recovered);
    fs::remove_dir_all(&store_dir).unwrap();
    fs::remove_dir_all(&wal_dir).unwrap();

    for (at, (seen, pinned)) in t.lines.iter().zip(EXPECTED).enumerate() {
        assert_eq!(seen, pinned, "transcript line {at}");
    }
    assert_eq!(t.lines.len(), EXPECTED.len(), "transcript:\n{}", t.lines.join("\n"));
}

/// Recovery removes only the temps the two stores write themselves
/// (`<prefix><number><suffix>.tmp`): a foreign `.tmp` file, such as an
/// operator's `MANIFEST.tmp` or an unpadded look-alike, survives both the
/// store's and the journal's recovery.
#[test]
fn recovery_leaves_foreign_temp_files_alone() {
    let store_dir = scratch_dir("foreign-store");
    let wal_dir = scratch_dir("foreign-wal");
    let mut store = SnapshotStore::open(&store_dir, 2).unwrap();
    let mut pipeline = EpochedPipeline::new(builder(&wal_dir)).unwrap();
    push(&mut pipeline, 0..5);
    pipeline.publish_into(&mut store).unwrap();
    push(&mut pipeline, 5..9);
    drop(pipeline);

    let own_store_temp = store_dir.join(format!("epoch-{:020}.cws.tmp", 2));
    let own_wal_temp = wal_dir.join(format!("wal-{:020}.cwsj.tmp", 40));
    let foreign = [
        store_dir.join("MANIFEST.tmp"),
        store_dir.join("epoch-2.cws.tmp"),
        wal_dir.join("MANIFEST.tmp"),
        wal_dir.join(format!("wal-{:020}.cws.tmp", 41)),
    ];
    for path in foreign.iter().chain([&own_store_temp, &own_wal_temp]) {
        fs::write(path, b"partial").unwrap();
    }

    let mut store = SnapshotStore::open(&store_dir, 2).unwrap();
    let report = store.recover().unwrap();
    assert_eq!(report.removed_temps, 1, "the store removes its own temp only");
    assert!(!own_store_temp.exists());
    let recovered = recover_from_store_and_wal(builder(&wal_dir), &mut store).unwrap();
    assert_eq!(recovered.store.removed_temps, 0, "the store's temp was already gone");
    assert_eq!(recovered.replay.removed_temps, 1, "the journal removes its own temp only");
    assert!(!own_wal_temp.exists());
    for path in &foreign {
        assert!(path.exists(), "recovery removed the foreign file {}", path.display());
    }
    drop(recovered);
    fs::remove_dir_all(&store_dir).unwrap();
    fs::remove_dir_all(&wal_dir).unwrap();
}
