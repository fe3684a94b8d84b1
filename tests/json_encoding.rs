//! The compact JSON a report goes out as, checked end to end through the
//! facade. Whatever front-end produced it — batch `analyze`, the
//! streaming engine, or the durable engine after a restart that replays
//! its log — a report's `serde_json::to_vec` bytes must equal its
//! `Value` tree printed compactly, decode back to a report that encodes
//! to the same bytes, and carry user names with every kind of escape
//! intact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crowdtz::core::{
    Batch, ConcurrentStreamingPipeline, GeolocationPipeline, GeolocationReport, ZoneGrid,
};
use crowdtz::synth::PopulationSpec;
use crowdtz::time::{RegionDb, Timestamp, TraceSet, UserTrace};
use proptest::prelude::*;
use serde::{JsonWriter, Serialize};

/// Regions the generated crowds come from; Nepal (+5:45) puts
/// `zone_minutes` on the wire under the quarter-hour grid.
const REGIONS: [&str; 4] = ["italy", "japan", "brazil", "nepal"];

/// User names that need every escape form the encoder has: quote,
/// backslash, named and `\u` control characters, DEL and U+2028 (both
/// passed through raw), and multi-byte UTF-8.
const ESCAPED_USERS: [&str; 8] = [
    "plain",
    "say \"hi\"",
    "back\\slash",
    "tab\there\nnewline",
    "bell\u{7}\u{1f}",
    "del\u{7f}",
    "line\u{2028}sep",
    "Zürich-用户-🧅",
];

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("crowdtz-json-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `threads` is part of the report, so every front-end pins it.
fn pipeline(grid: ZoneGrid) -> GeolocationPipeline {
    GeolocationPipeline::default()
        .grid(grid)
        .threads(1)
        .min_posts(1)
}

fn crowd(region: &str, users: usize, seed: u64) -> TraceSet {
    let db = RegionDb::extended();
    PopulationSpec::new(db.get(&region.into()).unwrap().clone())
        .users(users)
        .seed(seed)
        .generate()
}

/// A crowd whose users carry [`ESCAPED_USERS`] as their names.
fn escaped_crowd() -> TraceSet {
    let source = crowd("italy", ESCAPED_USERS.len(), 5);
    let mut traces = TraceSet::new();
    for (name, trace) in ESCAPED_USERS.iter().zip(source.iter()) {
        traces.insert(UserTrace::new(*name, trace.posts().to_vec()));
    }
    traces
}

fn tree_bytes<T: Serialize + ?Sized>(x: &T) -> Vec<u8> {
    let mut out = JsonWriter::new();
    x.to_value().write_compact(&mut out);
    out.into_bytes()
}

fn compact(report: &GeolocationReport) -> Vec<u8> {
    serde_json::to_vec(report).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any crowd, either grid: the direct encoding is the tree's, and
    /// `to_string` agrees with `to_vec`.
    #[test]
    fn batch_report_encodes_like_its_value_tree(
        region in 0usize..REGIONS.len(),
        seed in 0u64..1_000,
        quarter_hour in 0u8..2,
    ) {
        let grid = if quarter_hour == 1 { ZoneGrid::QuarterHour } else { ZoneGrid::Hourly };
        let report = pipeline(grid).analyze(&crowd(REGIONS[region], 24, seed)).unwrap();
        let bytes = compact(&report);
        prop_assert!(bytes == tree_bytes(&report), "{}: direct != tree", REGIONS[region]);
        prop_assert_eq!(serde_json::to_string(&report).unwrap().into_bytes(), bytes);
    }
}

#[test]
fn report_bytes_survive_a_decode_and_re_encode() {
    for (region, grid) in [
        ("italy", ZoneGrid::Hourly),
        ("nepal", ZoneGrid::QuarterHour),
    ] {
        let report = pipeline(grid).analyze(&crowd(region, 30, 11)).unwrap();
        let bytes = compact(&report);
        let decoded: GeolocationReport = serde_json::from_slice(&bytes).unwrap();
        assert!(compact(&decoded) == bytes, "{region}: compact round trip");
        let pretty = serde_json::to_string_pretty(&report).unwrap();
        let decoded: GeolocationReport = serde_json::from_str(&pretty).unwrap();
        assert!(compact(&decoded) == bytes, "{region}: pretty round trip");
    }
}

#[test]
fn escaped_user_names_encode_like_the_tree_and_round_trip() {
    let report = pipeline(ZoneGrid::Hourly)
        .analyze(&escaped_crowd())
        .unwrap();
    let bytes = compact(&report);
    assert!(bytes == tree_bytes(&report), "direct != tree");
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(text.contains(r#""say \"hi\"""#), "quote escape");
    assert!(text.contains(r#""tab\there\nnewline""#), "named escapes");
    assert!(text.contains(r#""bell\u0007\u001f""#), "\\u escapes");
    assert!(text.contains("\"line\u{2028}sep\""), "U+2028 passes raw");

    let decoded: GeolocationReport = serde_json::from_slice(&bytes).unwrap();
    let mut names: Vec<&str> = decoded.profiles().iter().map(|p| p.user()).collect();
    let mut want = ESCAPED_USERS.to_vec();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);
    assert!(compact(&decoded) == bytes, "round trip");
}

#[test]
fn streaming_snapshot_bytes_equal_batch_report_bytes() {
    for (region, grid) in [
        ("japan", ZoneGrid::Hourly),
        ("nepal", ZoneGrid::QuarterHour),
    ] {
        let traces = crowd(region, 30, 3);
        let batch = compact(&pipeline(grid).analyze(&traces).unwrap());
        let stream = ConcurrentStreamingPipeline::new(pipeline(grid));
        let deltas: Vec<(&str, &[Timestamp])> =
            traces.iter().map(|t| (t.id(), t.posts())).collect();
        let batch_of_all = Batch {
            ingest: &deltas,
            ..Batch::default()
        };
        stream.writer().apply(&batch_of_all).unwrap();
        let streamed = compact(stream.publish().unwrap().report());
        assert!(
            streamed == batch,
            "{region}: streaming bytes != batch bytes"
        );
    }
}

fn refs(posts: &[(String, Timestamp)]) -> Vec<(&str, Timestamp)> {
    posts.iter().map(|(u, t)| (u.as_str(), *t)).collect()
}

/// Log records with and without retractions, replayed after a restart
/// with no checkpoint, rebuild the same report bytes as an in-memory
/// engine fed the same deltas — escaped user names included.
#[test]
fn durable_replay_keeps_report_bytes_with_and_without_retractions() {
    let traces = escaped_crowd();
    let posts: Vec<(String, Timestamp)> = traces
        .iter()
        .flat_map(|t| t.posts().iter().map(|&ts| (t.id().to_string(), ts)))
        .collect();
    // Every third post of each user is taken down again.
    let retracted: Vec<(String, Timestamp)> = traces
        .iter()
        .flat_map(|t| {
            t.posts()
                .iter()
                .step_by(3)
                .map(|&ts| (t.id().to_string(), ts))
        })
        .collect();

    let reference = ConcurrentStreamingPipeline::new(pipeline(ZoneGrid::Hourly));
    let reference_writer = reference.writer();
    for (user, ts) in &posts {
        reference_writer.ingest_posts_ref(&[(user, *ts)]).unwrap();
    }
    for (user, ts) in &retracted {
        reference_writer.retract_posts_ref(&[(user, *ts)]).unwrap();
    }
    let want = compact(reference.publish().unwrap().report());

    let dir = tmp_dir("replay");
    {
        let engine =
            ConcurrentStreamingPipeline::open_durable(pipeline(ZoneGrid::Hourly), &dir).unwrap();
        let writer = engine.writer();
        writer.ingest_posts_ref(&refs(&posts)).unwrap();
        writer.retract_posts_ref(&refs(&retracted)).unwrap();
        assert!(
            compact(engine.publish().unwrap().report()) == want,
            "before restart"
        );
    }
    let engine =
        ConcurrentStreamingPipeline::open_durable(pipeline(ZoneGrid::Hourly), &dir).unwrap();
    assert!(
        compact(engine.publish().unwrap().report()) == want,
        "after replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
