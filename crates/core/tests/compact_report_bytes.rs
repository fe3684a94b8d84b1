//! Byte identity of the compact JSON encoder on full reports.
//!
//! The fixtures under `tests/fixtures/compact-report-*.json` are the exact
//! `serde_json::to_vec` bytes of fixed-seed `GeolocationPipeline::analyze`
//! reports on the hourly and quarter-hour grids, pinned in git. The
//! snapshot route serves these bytes verbatim, so any change to the
//! encoder — field order, number text, string escaping — shows up here.
//! Regenerate (only if the wire form itself must change) with:
//!
//! ```text
//! cargo test -p crowdtz-core --test compact_report_bytes -- --ignored
//! ```

use crowdtz_core::{GeolocationPipeline, GeolocationReport, ZoneGrid};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::RegionDb;
use serde::{JsonWriter, Serialize};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// `(fixture file, region, seed, grid)`: the 96-zone Nepal crowd places
/// users at +5:45, so `zone_minutes` appears on the wire.
const CASES: [(&str, &str, u64, ZoneGrid); 2] = [
    ("compact-report-24.json", "italy", 7, ZoneGrid::Hourly),
    ("compact-report-96.json", "nepal", 21, ZoneGrid::QuarterHour),
];

fn report(region: &str, seed: u64, grid: ZoneGrid) -> GeolocationReport {
    let db = RegionDb::extended();
    let traces = PopulationSpec::new(db.get(&region.into()).unwrap().clone())
        .users(40)
        .seed(seed)
        .generate();
    // Explicit grid and thread count: both otherwise follow the
    // environment, and `threads` is part of the report.
    GeolocationPipeline::default()
        .grid(grid)
        .threads(1)
        .analyze(&traces)
        .expect("fixture crowd analyzes")
}

#[test]
#[ignore = "writes the committed fixtures; run manually"]
fn regenerate_compact_report_fixtures() {
    for (file, region, seed, grid) in CASES {
        let bytes = serde_json::to_vec(&report(region, seed, grid)).unwrap();
        std::fs::write(format!("{FIXTURES}/{file}"), bytes).unwrap();
    }
}

#[test]
fn compact_report_bytes_match_the_fixtures() {
    for (file, region, seed, grid) in CASES {
        let pinned = std::fs::read(format!("{FIXTURES}/{file}")).expect("committed fixture");
        let bytes = serde_json::to_vec(&report(region, seed, grid)).unwrap();
        assert!(
            bytes == pinned,
            "{file}: encoder output differs from the pinned bytes"
        );
        assert_eq!(
            serde_json::to_string(&report(region, seed, grid))
                .unwrap()
                .as_bytes(),
            pinned.as_slice(),
            "{file}: to_string must match to_vec"
        );
    }
}

#[test]
fn quarter_hour_fixture_exercises_zone_minutes() {
    let pinned = std::fs::read(format!("{FIXTURES}/compact-report-96.json")).unwrap();
    let text = String::from_utf8(pinned).unwrap();
    assert!(text.contains("\"zone_minutes\":45"), "no +5:45 placement");
    let hourly = std::fs::read_to_string(format!("{FIXTURES}/compact-report-24.json")).unwrap();
    assert!(!hourly.contains("zone_minutes"));
}

/// `x` written directly must equal its `Value` tree printed compactly.
fn assert_direct_matches_tree<T: Serialize + ?Sized>(what: &str, x: &T) {
    let mut tree = JsonWriter::new();
    x.to_value().write_compact(&mut tree);
    assert!(
        serde_json::to_vec(x).unwrap() == tree.into_bytes(),
        "{what}: direct encoding differs from the value tree"
    );
}

#[test]
fn every_report_type_encodes_like_its_value_tree() {
    for (file, region, seed, grid) in CASES {
        let report = report(region, seed, grid);
        assert_direct_matches_tree(file, &report);
        let profile = &report.profiles()[0];
        assert_direct_matches_tree("ActivityProfile", profile);
        assert_direct_matches_tree("Distribution24", profile.distribution());
        assert_direct_matches_tree("CrowdProfile", report.crowd_profile());
        assert_direct_matches_tree(
            "CrowdProfile.distribution",
            report.crowd_profile().distribution(),
        );
        assert_direct_matches_tree("placements", report.placements());
        assert_direct_matches_tree("PlacementHistogram", report.histogram());
        let single = report.single_fit();
        assert_direct_matches_tree("SingleRegionFit", single);
        assert_direct_matches_tree("GaussianCurve", &single.curve());
        assert_direct_matches_tree("FitQuality", &single.quality());
        let multi = report.multi_fit();
        assert_direct_matches_tree("MultiRegionFit", multi);
        assert_direct_matches_tree("GaussianMixture", multi.mixture());
        assert_direct_matches_tree("GaussianComponent", &multi.mixture().components()[0]);
    }
}
