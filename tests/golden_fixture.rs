//! Golden snapshot fixtures (ISSUE 6): the committed `.cws` binaries under
//! `tests/fixtures/` pin the on-disk format.
//!
//! Today's decoder must read each fixture into exactly the summary the
//! deterministic recipe below builds, and today's encoder must reproduce
//! the fixture **byte for byte**. A future PR that changes either direction
//! fails here — on-disk format changes must be deliberate (bump
//! `cws_core::codec::VERSION`, regenerate, document), never silent drift.
//!
//! Regenerate after a deliberate format change with:
//! `CWS_BLESS=1 cargo test --test golden_fixture`

use std::path::PathBuf;

use coordinated_sampling::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The fixed recipe behind the committed fixtures. Every constant here is
/// part of the golden contract — do not change without regenerating.
fn fixture_data() -> MultiWeighted {
    let mut builder = MultiWeighted::builder(3);
    for key in 0..24u64 {
        builder.add_vector(
            key,
            &[((key % 5) + 1) as f64, ((key % 3) * 2) as f64, 0.5 + (key % 7) as f64],
        );
    }
    builder.build()
}

fn golden_summaries() -> Vec<(&'static str, Summary)> {
    let data = fixture_data();
    let shared = SummaryConfig::new(6, RankFamily::Ipps, CoordinationMode::SharedSeed, 0xC0FFEE);
    let diffs =
        SummaryConfig::new(6, RankFamily::Exp, CoordinationMode::IndependentDifferences, 0xC0FFEE);
    vec![
        (
            "dispersed_sharedseed_ipps.cws",
            Summary::Dispersed(DispersedSummary::build(&data, &shared)),
        ),
        (
            "colocated_sharedseed_ipps.cws",
            Summary::Colocated(ColocatedSummary::build(&data, &shared)),
        ),
        ("colocated_inddiff_exp.cws", Summary::Colocated(ColocatedSummary::build(&data, &diffs))),
    ]
}

#[test]
fn golden_fixtures_decode_and_reencode_byte_for_byte() {
    let bless = std::env::var_os("CWS_BLESS").is_some();
    for (name, summary) in golden_summaries() {
        let path = fixture_path(name);
        let encoded = summary.to_bytes();
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &encoded).unwrap();
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing golden fixture {} ({e}); regenerate with CWS_BLESS=1", path.display())
        });
        // Decoder stability: the committed bytes parse into exactly the
        // summary the recipe builds today.
        let decoded = Summary::from_bytes(&committed)
            .unwrap_or_else(|e| panic!("fixture {name} no longer decodes: {e}"));
        assert_eq!(decoded, summary, "fixture {name}: decoder drifted from the recipe");
        // Encoder stability: the recipe re-encodes to the committed bytes.
        assert_eq!(encoded, committed, "fixture {name}: encoder output drifted");
    }
}

#[test]
fn golden_fixtures_are_queryable_after_decode() {
    if std::env::var_os("CWS_BLESS").is_some() {
        return;
    }
    let bytes = std::fs::read(fixture_path("dispersed_sharedseed_ipps.cws")).unwrap();
    let summary = Summary::from_bytes(&bytes).unwrap();
    let estimate = summary.query(&QuerySpec::min(0, 2)).unwrap();
    assert!(estimate.value >= 0.0);
    let exact = exact_aggregate(&fixture_data(), &AggregateFn::Min(vec![0, 2]), |_| true);
    assert!(exact >= 0.0);
}
