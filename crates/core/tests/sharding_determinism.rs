//! The sharded streaming core is a pure refactor: snapshots are
//! byte-identical across shard counts, worker-thread counts, and with the
//! placement cache on or off.
//!
//! CI runs this file under `CROWDTZ_THREADS=1` and `CROWDTZ_THREADS=4`
//! alongside `streaming_identity.rs`, so the env knobs are exercised on
//! the sharded path too.

use proptest::prelude::*;

use crowdtz_core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline, GeolocationReport};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet};

const SHARD_GRID: [usize; 3] = [1, 4, 16];
const THREAD_GRID: [usize; 3] = [1, 2, 8];

/// A two-region crowd (Japan UTC+9 and Brazil UTC−3) so polish, the
/// mixture fit, and the dirty-set bookkeeping all have real work to do.
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

/// Every numeric product of the report, excluding the informational
/// `threads` tag — for comparisons *across* thread counts.
fn numeric_json(report: &GeolocationReport) -> String {
    serde_json::to_string(&(
        report.placements(),
        report.histogram(),
        report.single_fit(),
        report.multi_fit(),
    ))
    .unwrap()
}

/// One batch of every trace, its shards spread over `threads` workers,
/// then one snapshot: what batch analysis runs.
fn snapshot_json(traces: &TraceSet, shards: usize, threads: usize, cache: bool) -> String {
    let report = GeolocationPipeline::default()
        .shards(shards)
        .threads(threads)
        .placement_cache(cache)
        .analyze(traces)
        .unwrap();
    numeric_json(&report)
}

#[test]
fn snapshots_are_byte_identical_across_the_shard_and_thread_grid() {
    let traces = two_region_crowd();
    let baseline = snapshot_json(&traces, 1, 1, true);
    for shards in SHARD_GRID {
        for threads in THREAD_GRID {
            assert_eq!(
                baseline,
                snapshot_json(&traces, shards, threads, true),
                "snapshot diverged at {shards} shards / {threads} threads"
            );
        }
    }
}

#[test]
fn placement_cache_never_changes_a_snapshot() {
    let traces = two_region_crowd();
    for shards in SHARD_GRID {
        assert_eq!(
            snapshot_json(&traces, shards, 2, true),
            snapshot_json(&traces, shards, 2, false),
            "cache changed output at {shards} shards"
        );
    }
}

#[test]
fn sharded_batch_analyze_matches_single_shard_exactly() {
    // Batch analyze is ingest-then-snapshot on the same sharded engine,
    // so the shard count must be equally invisible there — including the
    // `threads` tag, which is held fixed here.
    let traces = two_region_crowd();
    let baseline = full_json(
        &GeolocationPipeline::default()
            .shards(1)
            .threads(2)
            .analyze(&traces)
            .unwrap(),
    );
    for shards in SHARD_GRID {
        let report = GeolocationPipeline::default()
            .shards(shards)
            .threads(2)
            .analyze(&traces)
            .unwrap();
        assert_eq!(
            baseline,
            full_json(&report),
            "batch analyze diverged at {shards} shards"
        );
    }
}

#[test]
fn incremental_rounds_are_shard_invariant() {
    // Three rounds of cumulative ingestion: after every refresh the
    // snapshot must be independent of how users were partitioned.
    let traces = two_region_crowd();
    let rounds = |shards: usize| {
        let streaming = ConcurrentStreamingPipeline::new(
            GeolocationPipeline::default().shards(shards).threads(2),
        );
        let writer = streaming.writer();
        let mut ingested = TraceSet::default();
        let mut out = Vec::new();
        for round in 0..3 {
            let mut cumulative = TraceSet::default();
            for trace in traces.iter() {
                let posts = trace.posts();
                for &ts in &posts[..posts.len() * (round + 1) / 3] {
                    cumulative.record(trace.id(), ts);
                }
            }
            for (user, posts) in cumulative.delta_from(&ingested) {
                let batch = Batch {
                    ingest: &[(user, &posts)],
                    ..Batch::default()
                };
                writer.apply(&batch).unwrap();
            }
            ingested = cumulative;
            out.push(full_json(streaming.publish().unwrap().report()));
        }
        out
    };
    let baseline = rounds(1);
    for shards in [4usize, 16] {
        assert_eq!(
            baseline,
            rounds(shards),
            "rounds diverged at {shards} shards"
        );
    }
}

/// A small random crowd: each draw encodes one post as
/// `user_id * SPAN + seconds`, over up to 12 users and a few weeks of
/// arbitrary hours.
fn arbitrary_traces() -> impl Strategy<Value = TraceSet> {
    const SPAN: i64 = 40 * 86_400;
    proptest::collection::vec(0i64..(12 * SPAN), 1..400).prop_map(|posts| {
        let mut traces = TraceSet::default();
        for encoded in posts {
            let (uid, secs) = (encoded / SPAN, encoded % SPAN);
            traces.record(&format!("u{uid:02}"), Timestamp::from_secs(secs));
        }
        traces
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_crowds_are_shard_thread_and_cache_invariant(traces in arbitrary_traces()) {
        let pipeline = || GeolocationPipeline::default().min_posts(1);
        let snapshot = |shards: usize, threads: usize, cache: bool| {
            // A degenerate random crowd may legitimately fail (all flat);
            // the failure itself must then be invariant too.
            pipeline()
                .shards(shards)
                .threads(threads)
                .placement_cache(cache)
                .analyze(&traces)
                .map(|r| numeric_json(&r))
                .map_err(|e| e.to_string())
        };
        let baseline = snapshot(1, 1, true);
        for shards in SHARD_GRID {
            for threads in THREAD_GRID {
                prop_assert_eq!(
                    &baseline,
                    &snapshot(shards, threads, true),
                    "diverged at {} shards / {} threads", shards, threads
                );
            }
            prop_assert_eq!(
                &baseline,
                &snapshot(shards, 2, false),
                "cache-off diverged at {} shards", shards
            );
        }
    }
}
