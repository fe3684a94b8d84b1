//! End-to-end geolocation of crowds living at half-hour UTC offsets.
//!
//! Placement works over the 24 integer canonical zones, so a +5:30 crowd
//! splits its mass between UTC+5 and UTC+6; the Gaussian mixture fit then
//! recovers a fractional mean near the true offset. These tests pin that
//! behaviour for India (+5:30), central Australia (+9:30), and
//! Newfoundland (−3:30).

use crowdtz_core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet};

fn crowd(region: &str, seed: u64) -> TraceSet {
    let db = RegionDb::extended();
    PopulationSpec::new(db.get(&region.into()).unwrap().clone())
        .users(80)
        .seed(seed)
        .generate()
}

/// Dominant mixture mean for a single-region crowd, on the circular
/// [−12, 12) offset scale.
fn dominant_mean(region: &str, seed: u64) -> f64 {
    let report = GeolocationPipeline::default()
        .analyze(&crowd(region, seed))
        .unwrap();
    report.mixture().dominant().unwrap().mean
}

#[test]
fn india_places_near_plus_five_thirty() {
    let mean = dominant_mean("india", 11);
    assert!(
        (mean - 5.5).abs() < 1.5,
        "India is UTC+5:30, dominant mean {mean}"
    );
}

#[test]
fn central_australia_places_near_plus_nine_thirty() {
    let mean = dominant_mean("australia-central", 12);
    assert!(
        (mean - 9.5).abs() < 1.5,
        "central Australia is UTC+9:30, dominant mean {mean}"
    );
}

#[test]
fn newfoundland_places_near_minus_three_thirty() {
    let mean = dominant_mean("newfoundland", 13);
    assert!(
        (mean + 3.5).abs() < 1.5,
        "Newfoundland is UTC-3:30, dominant mean {mean}"
    );
}

#[test]
fn half_hour_crowds_survive_the_sharded_streaming_path() {
    // Same invariant as sharding_determinism, on a half-hour crowd: the
    // sharded streaming snapshot equals batch, byte for byte.
    let traces = crowd("india", 11);
    let batch = GeolocationPipeline::default()
        .shards(4)
        .analyze(&traces)
        .unwrap();
    let streaming = ConcurrentStreamingPipeline::new(GeolocationPipeline::default().shards(4));
    let deltas: Vec<(&str, &[Timestamp])> = traces.iter().map(|t| (t.id(), t.posts())).collect();
    let ingest = Batch {
        ingest: &deltas,
        ..Batch::default()
    };
    streaming.writer().apply(&ingest).unwrap();
    let snapshot = streaming.publish().unwrap();
    assert_eq!(
        serde_json::to_string(&batch).unwrap(),
        serde_json::to_string(snapshot.report()).unwrap()
    );
}
