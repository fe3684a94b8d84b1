//! Observability is strictly out-of-band: attaching an observer never
//! changes a single byte of analysis output, and the metrics it records
//! satisfy exact invariants against the reports they describe — at every
//! worker-thread count.

use std::sync::Arc;

use crowdtz_core::{
    Batch, ConcurrentStreamingPipeline, GeolocationPipeline, GeolocationReport, WindowConfig,
    WindowedPipeline,
};
use crowdtz_obs::Observer;
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet};

/// A two-region crowd (Japan UTC+9 and Brazil UTC−3) so polish, the
/// mixture fit, and placement pruning all have real work to do.
fn two_region_crowd() -> TraceSet {
    let db = RegionDb::extended();
    let mut traces = PopulationSpec::new(db.get(&"japan".into()).unwrap().clone())
        .users(40)
        .seed(3)
        .posts_per_day(0.5)
        .generate();
    let brazil = PopulationSpec::new(db.get(&"brazil".into()).unwrap().clone())
        .users(40)
        .seed(4)
        .posts_per_day(0.5)
        .generate();
    for t in brazil.iter() {
        traces.insert(t.clone());
    }
    traces
}

fn full_json(report: &GeolocationReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// Every trace of a set as one batch through a fresh writer.
fn apply_traces(engine: &ConcurrentStreamingPipeline, traces: &TraceSet) {
    let deltas: Vec<(&str, &[Timestamp])> = traces.iter().map(|t| (t.id(), t.posts())).collect();
    let batch = Batch {
        ingest: &deltas,
        ..Batch::default()
    };
    engine.writer().apply(&batch).unwrap();
}

#[test]
fn observer_never_changes_batch_output() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let plain = GeolocationPipeline::default()
            .threads(threads)
            .analyze(&traces)
            .unwrap();
        let observed = GeolocationPipeline::default()
            .threads(threads)
            .observer(Observer::from_env())
            .analyze(&traces)
            .unwrap();
        assert_eq!(
            full_json(&plain),
            full_json(&observed),
            "observer changed batch output at {threads} threads"
        );
    }
}

#[test]
fn observer_never_changes_streaming_output() {
    let traces = two_region_crowd();
    for threads in [1usize, 2, 8] {
        let snapshot = |observer: Option<Arc<Observer>>| {
            let mut pipeline = GeolocationPipeline::default().threads(threads);
            if let Some(obs) = observer {
                pipeline = pipeline.observer(obs);
            }
            let streaming = ConcurrentStreamingPipeline::new(pipeline);
            apply_traces(&streaming, &traces);
            full_json(streaming.publish().unwrap().report())
        };
        assert_eq!(
            snapshot(None),
            snapshot(Some(Observer::from_env())),
            "observer changed streaming output at {threads} threads"
        );
    }
}

#[test]
fn placed_user_counter_matches_report() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let report = GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let metrics = observer.snapshot();
    assert_eq!(
        metrics.counters["pipeline.users_placed"],
        report.users_classified() as u64
    );
    assert_eq!(
        metrics.counters["placement.users"],
        report.users_classified() as u64
    );
    assert_eq!(metrics.counters["pipeline.analyses"], 1);
    assert_eq!(
        metrics.counters["pipeline.flat_removed"],
        report.flat_removed() as u64
    );
}

#[test]
fn pruning_histogram_counts_every_cache_miss_and_at_most_24_evals_each() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let report = GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let metrics = observer.snapshot();
    let hist = &metrics.histograms["placement.exact_evals_per_user"];
    let hits = metrics.counters["placement.cache_hits"];
    let misses = metrics.counters["placement.cache_misses"];
    // Every eligible (above-threshold) user resolved exactly once: as a
    // cache hit or as a miss that ran the exact scan.
    let eligible = (report.users_classified() + report.flat_removed()) as u64;
    assert_eq!(hits + misses, eligible);
    // One histogram observation per miss — hits skip the scan entirely.
    assert_eq!(hist.count, misses);
    assert_eq!(hist.buckets.iter().sum::<u64>(), misses);
    // Every evaluated profile costs at least one and at most 24 exact
    // EMD evaluations.
    assert!(hist.sum >= misses);
    assert!(
        hist.sum <= 24 * misses,
        "pruning bound violated: {}",
        hist.sum
    );
    assert_eq!(hist.sum, metrics.counters["placement.exact_evals"]);
}

#[test]
fn placement_cache_hits_appear_on_repeated_profiles() {
    // A low-post crowd where every user shares one profile shape: the
    // first resolution misses, the rest hit.
    let observer = Observer::from_env();
    let streaming = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default()
            .min_posts(1)
            .observer(Arc::clone(&observer)),
    );
    let posts = [
        Timestamp::from_secs(20 * 3_600),
        Timestamp::from_secs(86_400 + 20 * 3_600),
    ];
    let mut traces = TraceSet::default();
    for i in 0..25 {
        for &p in &posts {
            traces.record(&format!("u{i:02}"), p);
        }
    }
    apply_traces(&streaming, &traces);
    streaming.publish().unwrap();
    let metrics = observer.snapshot();
    assert_eq!(metrics.counters["placement.cache_misses"], 1);
    assert_eq!(metrics.counters["placement.cache_hits"], 24);
    assert_eq!(streaming.cache_stats(), (24, 1));
}

#[test]
fn shard_occupancy_gauges_partition_the_crowd() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let streaming = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default()
            .shards(4)
            .observer(Arc::clone(&observer)),
    );
    apply_traces(&streaming, &traces);
    streaming.publish().unwrap();
    let metrics = observer.snapshot();
    let total: f64 = (0..4)
        .map(|i| metrics.gauges[&format!("shard.{i:02}.users")])
        .sum();
    assert_eq!(total, traces.iter().count() as f64);
}

#[test]
fn streaming_dirty_gauge_tracks_delta_size() {
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    let streaming = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default().observer(Arc::clone(&observer)),
    );
    apply_traces(&streaming, &traces);
    streaming.publish().unwrap();
    // Everything was dirty on the priming snapshot.
    let total_users = traces.iter().count() as f64;
    assert_eq!(observer.snapshot().gauges["streaming.dirty"], total_users);

    // Touch exactly three users; the next refresh must gauge exactly 3.
    let ids: Vec<String> = traces.iter().take(3).map(|t| t.id().to_string()).collect();
    let writer = streaming.writer();
    for (i, id) in ids.iter().enumerate() {
        let post = Timestamp::from_secs(86_400 * (i as i64 + 400));
        writer.ingest_posts_ref(&[(id, post)]).unwrap();
    }
    streaming.publish().unwrap();
    let metrics = observer.snapshot();
    assert_eq!(metrics.gauges["streaming.dirty"], 3.0);
    assert_eq!(metrics.counters["streaming.snapshots"], 2);
    // The priming batch carries one delta per trace, plus the three
    // touches.
    assert_eq!(
        metrics.counters["streaming.deltas"],
        total_users as u64 + ids.len() as u64
    );
}

#[test]
fn metric_snapshots_are_identical_across_thread_counts() {
    let traces = two_region_crowd();
    let metrics_json = |threads: usize| {
        let observer = Observer::from_env();
        GeolocationPipeline::default()
            .threads(threads)
            .observer(Arc::clone(&observer))
            .analyze(&traces)
            .unwrap();
        serde_json::to_string(&observer.snapshot()).unwrap()
    };
    let baseline = metrics_json(1);
    for threads in [2usize, 8] {
        assert_eq!(
            baseline,
            metrics_json(threads),
            "metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn stage_timings_cover_every_pipeline_stage() {
    // Batch analyze is ingest-then-snapshot on the sharded engine, so
    // its stage spans are the streaming engine's plus the ingest span.
    let traces = two_region_crowd();
    let observer = Observer::from_env();
    GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze(&traces)
        .unwrap();
    let stages = observer.stage_timings();
    for expected in [
        "pipeline.ingest",
        "streaming.refresh",
        "streaming.snapshot",
        "streaming.fit",
    ] {
        let stage = stages
            .iter()
            .find(|s| s.name == expected)
            .unwrap_or_else(|| panic!("missing stage {expected}"));
        assert_eq!(stage.calls, 1);
        assert!(stage.total_ns > 0, "zero wall time for {expected}");
    }
}

/// Runs a three-round windowed workload — ingest, one explicit
/// retraction, and an expiry at the final publish — and returns the
/// final report JSON plus the observer (if any).
fn windowed_run(observer: Option<Arc<Observer>>) -> String {
    let engine =
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2));
    let window = WindowedPipeline::new(
        engine,
        WindowConfig {
            bucket_secs: 86_400,
            window_buckets: 2,
            drift_threshold: 0.5,
            drift_history: 2,
        },
        observer,
    );
    let writer = window.engine().writer();
    for day in 0..3i64 {
        let posts: Vec<(String, crowdtz_time::Timestamp)> = (0..6)
            .map(|u| {
                (
                    format!("obs-u{u}"),
                    crowdtz_time::Timestamp::from_secs(day * 86_400 + (u * 3 + day) * 3_600),
                )
            })
            .collect();
        let refs: Vec<(&str, crowdtz_time::Timestamp)> =
            posts.iter().map(|(u, t)| (u.as_str(), *t)).collect();
        window.ingest_posts(&writer, &refs).unwrap();
        if day == 1 {
            window
                .retract_posts(
                    &writer,
                    &[("obs-u0", crowdtz_time::Timestamp::from_secs(86_400 + 3_600))],
                )
                .unwrap();
        }
        window.publish().unwrap();
    }
    serde_json::to_string(window.publish().unwrap().report()).unwrap()
}

#[test]
fn observer_never_changes_windowed_output() {
    assert_eq!(
        windowed_run(None),
        windowed_run(Some(Observer::from_env())),
        "observer changed windowed output"
    );
}

#[test]
fn window_counters_match_the_workload() {
    let observer = Observer::from_env();
    windowed_run(Some(Arc::clone(&observer)));
    let metrics = observer.snapshot();
    // One explicit retraction (a day-1 post), plus all 6 day-0 posts
    // released when the day-0 bucket left the two-bucket window at the
    // day-2 publish.
    assert_eq!(metrics.counters["window.retractions"], 1 + 6);
    assert_eq!(metrics.counters["window.expired_buckets"], 1);
    // Changepoints depend on the estimator, but the counter must agree
    // with whatever the run recorded — here the day-1 retraction plus
    // expiry shuffle small-crowd fractions, so just require presence.
    assert!(metrics.counters.contains_key("window.changepoints"));
    let stages = observer.stage_timings();
    let publish = stages
        .iter()
        .find(|s| s.name == "window.publish")
        .expect("window.publish span recorded");
    assert_eq!(publish.calls, 4);
    assert!(publish.total_ns > 0);
}

#[test]
fn stage_timings_cover_every_profile_analysis_stage() {
    let traces = two_region_crowd();
    let profiles = crowdtz_core::ProfileBuilder::new().build(&traces);
    let observer = Observer::from_env();
    GeolocationPipeline::default()
        .observer(Arc::clone(&observer))
        .analyze_profiles(profiles, 1.0)
        .unwrap();
    let stages = observer.stage_timings();
    for expected in ["pipeline.placement", "pipeline.polish", "pipeline.fit"] {
        let stage = stages
            .iter()
            .find(|s| s.name == expected)
            .unwrap_or_else(|| panic!("missing stage {expected}"));
        assert_eq!(stage.calls, 1);
        assert!(stage.total_ns > 0, "zero wall time for {expected}");
    }
}

/// Feeds the two-region crowd through a concurrent engine in three
/// rounds, publishing after each, and returns every published report's
/// JSON. A publish before the first ingest fails and must not count.
fn concurrent_run(observer: Option<Arc<Observer>>) -> Vec<String> {
    let traces = two_region_crowd();
    let mut pipeline = GeolocationPipeline::default().threads(2);
    if let Some(obs) = observer {
        pipeline = pipeline.observer(obs);
    }
    let engine = ConcurrentStreamingPipeline::new(pipeline);
    assert!(engine.publish().is_err());
    let writer = engine.writer();
    (0..3usize)
        .map(|round| {
            let posts: Vec<(&str, crowdtz_time::Timestamp)> = traces
                .iter()
                .flat_map(|t| {
                    let ps = t.posts();
                    ps[ps.len() * round / 3..ps.len() * (round + 1) / 3]
                        .iter()
                        .map(move |&p| (t.id(), p))
                })
                .collect();
            writer.ingest_posts_ref(&posts).unwrap();
            full_json(engine.publish().unwrap().report())
        })
        .collect()
}

#[test]
fn publish_histogram_counts_every_publish_and_keeps_the_bytes() {
    let observer = Observer::from_env();
    assert_eq!(
        concurrent_run(None),
        concurrent_run(Some(Arc::clone(&observer))),
        "observer changed published output"
    );
    let metrics = observer.snapshot();
    let publishes = metrics.counters["ingest.publishes"];
    assert_eq!(publishes, 3);
    let hist = &metrics.histograms["ingest.publish_ns"];
    assert_eq!(hist.count, publishes);
    assert_eq!(hist.buckets.iter().sum::<u64>(), publishes);
    assert!(hist.sum > 0);
}
