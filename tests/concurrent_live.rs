//! End-to-end concurrent monitoring: several monitors feeding one
//! shared engine through `crowdtz::live::run_concurrent` must produce a
//! report byte-identical to the same polls fed sequentially (ISSUE 8).

use std::sync::Arc;

use crowdtz::core::{ConcurrentStreamingPipeline, GeolocationPipeline, PublishedReport};
use crowdtz::forum::{CrowdComponent, ForumHost, ForumSpec, Monitor, TimestampPolicy};
use crowdtz::live::run_concurrent;
use crowdtz::time::{CivilDateTime, Timestamp};
use crowdtz::tor::TorNetwork;

/// One forum per "mirror": same shape, different seed, so the monitors
/// observe distinct crowds with overlapping pseudonym styles.
fn forum_spec(seed: u64, crowd: &str) -> ForumSpec {
    ForumSpec::new("Hidden TS Forum", vec![CrowdComponent::new(crowd, 1.0)], 6)
        .seed(seed)
        .policy(TimestampPolicy::Hidden)
}

fn monitor_for(seed: u64, crowd: &str) -> Monitor {
    let forum = crowdtz::forum::SimulatedForum::generate(&forum_spec(seed, crowd));
    let host = ForumHost::new(forum).page_size(25);
    let mut net = TorNetwork::with_relays(30, 5);
    let addr = net.publish(host.into_hidden_service(1)).unwrap();
    Monitor::new(net.connect(&addr, 2).unwrap())
}

fn fleet() -> Vec<Monitor> {
    vec![
        monitor_for(11, "italy"),
        monitor_for(23, "japan"),
        monitor_for(37, "illinois"),
    ]
}

fn window() -> (Timestamp, Timestamp, i64) {
    let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
    let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 6, 0, 0, 0).unwrap());
    (from, to, 3_600)
}

fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default().min_posts(1)
}

/// Reference: each monitor's polls fed sequentially through one writer
/// of a fresh engine (monitor order is irrelevant — deltas commute).
fn sequential_replay() -> Arc<PublishedReport> {
    let (from, to, interval) = window();
    let reference = ConcurrentStreamingPipeline::new(pipeline());
    let writer = reference.writer();
    for monitor in &mut fleet() {
        monitor
            .run_batched(from, to, interval, |batch| {
                let posts: Vec<(&str, Timestamp)> = batch
                    .iter()
                    .map(|(user, ts)| (user.as_str(), *ts))
                    .collect();
                writer.ingest_posts_ref(&posts).unwrap();
            })
            .unwrap();
    }
    reference.publish().unwrap()
}

#[test]
fn concurrent_fleet_matches_sequential_replay() {
    let (from, to, interval) = window();
    let reference = sequential_replay();
    let want = serde_json::to_string(reference.report()).unwrap();

    // Live: the same fleet on threads, one shared concurrent engine.
    let engine = ConcurrentStreamingPipeline::new(pipeline());
    let mut monitors = fleet();
    run_concurrent(&engine, &mut monitors, from, to, interval).unwrap();
    assert_eq!(
        engine.active_writers(),
        0,
        "writers unregister on thread exit"
    );

    let published = engine.publish().unwrap();
    let got = serde_json::to_string(published.report()).unwrap();
    assert_eq!(got, want, "concurrent fleet must match sequential replay");
    assert_eq!(published.posts_ingested(), reference.posts_ingested());

    // The published cell serves the same report wait-free.
    let seen = engine.snapshot().expect("published");
    assert_eq!(seen.epoch(), published.epoch());
}

#[test]
fn snapshots_during_a_live_run_are_never_torn() {
    let (from, to, interval) = window();
    let engine = ConcurrentStreamingPipeline::new(pipeline());
    let mut monitors = fleet();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let done = &done;

        // Dashboard thread: publish + read concurrently with the crawl.
        let dashboard = scope.spawn(move || {
            let mut epochs = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                // Publishing mid-crawl may legitimately find zero users.
                if let Ok(p) = engine_ref.publish() {
                    epochs.push(p.epoch());
                }
                if let Some(seen) = engine_ref.snapshot() {
                    assert!(!seen.report().profiles().is_empty());
                }
                std::thread::yield_now();
            }
            epochs
        });

        let crawl = scope.spawn(move || {
            let mut monitors = std::mem::take(&mut monitors);
            run_concurrent(engine_ref, &mut monitors, from, to, interval)
        });

        crawl.join().expect("crawl thread").unwrap();
        done.store(true, std::sync::atomic::Ordering::Release);
        let epochs = dashboard.join().expect("dashboard thread");
        assert!(
            epochs.windows(2).all(|w| w[1] == w[0] + 1),
            "published epochs are dense and monotonic: {epochs:?}"
        );
    });

    // After the crawl, one more publish matches the sequential world.
    let want = serde_json::to_string(sequential_replay().report()).unwrap();
    let got = serde_json::to_string(engine.publish().unwrap().report()).unwrap();
    assert_eq!(
        got, want,
        "mid-run publishing must not perturb the final report"
    );
}
