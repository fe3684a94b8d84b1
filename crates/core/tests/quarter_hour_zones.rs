//! End-to-end geolocation of crowds at quarter-hour UTC offsets.
//!
//! Nepal (+5:45) and the Chatham Islands (+12:45) are unrepresentable on
//! the paper's 24 hourly zones *and* on the half-hour grid: those engines
//! must misplace every user into a neighbouring representable zone. The
//! 96-zone quarter-hour grid has an exact slot for both. These tests pin
//! the forced misplacement, the exact quarter-hour recovery, and the grid
//! selection paths (pipeline builder and the `CROWDTZ_GRID` environment
//! variable).

use crowdtz_core::{
    ActivityProfile, Batch, ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline,
    PlacementEngine, ZoneGrid,
};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet, TzOffset, UserTrace};

fn crowd(region: &str, seed: u64) -> TraceSet {
    let db = RegionDb::extended();
    PopulationSpec::new(db.get(&region.into()).unwrap().clone())
        .users(80)
        .seed(seed)
        .generate()
}

fn pipeline_on(grid: ZoneGrid) -> GeolocationPipeline {
    // Explicit grid everywhere: these tests share a process with the
    // env-var test below, and an explicit builder grid always wins.
    GeolocationPipeline::default().grid(grid)
}

/// Circular distance between two offsets, in hours on the 24 h circle.
fn circ(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(24.0);
    d.min(24.0 - d)
}

/// An idealized poster at `offset_minutes` east: posts follow the generic
/// reference curve exactly, spread over each local hour's quarter-hour
/// marks — no chronotype noise, no sampling noise.
fn ideal_poster(offset_minutes: i32) -> ActivityProfile {
    let generic = GenericProfile::reference();
    let mut posts = Vec::new();
    let mut day = 0i64;
    for hour in 0..24usize {
        let per_quarter = (generic.distribution().get(hour) * 200.0).round() as i64;
        for quarter in 0..4i64 {
            for _ in 0..per_quarter {
                let local_sec = day * 86_400 + hour as i64 * 3_600 + quarter * 900 + 450;
                posts.push(Timestamp::from_secs(
                    local_sec - i64::from(offset_minutes) * 60,
                ));
                day += 1;
            }
        }
    }
    ActivityProfile::from_trace_offset(&UserTrace::new("ideal", posts), TzOffset::UTC).unwrap()
}

#[test]
fn hourly_and_half_hour_grids_force_nepal_off_its_zone() {
    let generic = GenericProfile::reference();
    let nepal = ideal_poster(345);
    for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour] {
        let engine = PlacementEngine::with_grid(&generic, grid);
        let placed = engine.place(&nepal);
        assert_eq!(
            placed.offset_minutes() % grid.step_minutes(),
            0,
            "{grid} can only emit its own offsets"
        );
        assert_ne!(
            placed.offset_minutes(),
            345,
            "+5:45 is not representable on the {grid}"
        );
        // The misplacement is still the nearest representable neighbour.
        assert!(
            (placed.offset_minutes() - 345).abs() <= 60,
            "expected a neighbour of +5:45, got {} minutes",
            placed.offset_minutes()
        );
    }
}

#[test]
fn quarter_grid_places_ideal_nepal_and_chatham_exactly() {
    let generic = GenericProfile::reference();
    let engine = PlacementEngine::with_grid(&generic, ZoneGrid::QuarterHour);
    assert_eq!(engine.place(&ideal_poster(345)).offset_minutes(), 345);
    assert_eq!(engine.place(&ideal_poster(765)).offset_minutes(), 765);
    assert_eq!(engine.place(&ideal_poster(-210)).offset_minutes(), -210);
}

#[test]
fn quarter_grid_recovers_the_nepal_crowd() {
    let report = pipeline_on(ZoneGrid::QuarterHour)
        .analyze(&crowd("nepal", 21))
        .unwrap();
    // Every placement is on a quarter-hour slot, and the exact +5:45 slot
    // is populated — impossible on the hourly grid.
    assert!(report
        .placements()
        .iter()
        .all(|p| p.offset_minutes() % 15 == 0));
    assert!(report
        .placements()
        .iter()
        .any(|p| p.offset_minutes() == 345));
    let mean = report.mixture().dominant().unwrap().mean;
    assert!(
        circ(mean, 5.75) < 1.5,
        "dominant mean should sit near +5:45, got {mean}"
    );
}

#[test]
fn quarter_grid_recovers_the_chatham_crowd() {
    let report = pipeline_on(ZoneGrid::QuarterHour)
        .analyze(&crowd("chatham", 22))
        .unwrap();
    assert!(report
        .placements()
        .iter()
        .all(|p| p.offset_minutes() % 15 == 0));
    let mean = report.mixture().dominant().unwrap().mean;
    // +12:45 standard, +13:45 during the southern summer: the yearly mean
    // sits a little east of +12:45 (wrapping past the date line).
    assert!(
        circ(mean, 12.75) < 2.0,
        "dominant mean should sit near +12:45, got {mean}"
    );
}

#[test]
fn hourly_grid_forces_nepal_crowd_into_whole_hours() {
    let report = pipeline_on(ZoneGrid::Hourly)
        .analyze(&crowd("nepal", 21))
        .unwrap();
    assert!(!report.placements().is_empty());
    for p in report.placements() {
        assert_eq!(
            p.offset_minutes() % 60,
            0,
            "hourly grid can only emit whole-hour offsets, got {}",
            p.offset_minutes()
        );
    }
}

#[test]
fn quarter_grid_is_selectable_via_environment() {
    // Explicit builder grids shield every other test in this binary, so
    // the env var only steers pipelines that did not pick a grid.
    std::env::set_var("CROWDTZ_GRID", "96");
    let effective = GeolocationPipeline::default().effective_grid();
    std::env::remove_var("CROWDTZ_GRID");
    assert_eq!(effective, ZoneGrid::QuarterHour);
    assert_eq!(
        GeolocationPipeline::default().effective_grid(),
        ZoneGrid::Hourly
    );
}

#[test]
fn quarter_hour_crowds_survive_the_sharded_streaming_path() {
    let traces = crowd("nepal", 21);
    let batch = pipeline_on(ZoneGrid::QuarterHour)
        .shards(4)
        .analyze(&traces)
        .unwrap();
    let streaming = ConcurrentStreamingPipeline::new(pipeline_on(ZoneGrid::QuarterHour).shards(4));
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
