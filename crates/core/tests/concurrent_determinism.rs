//! Determinism must survive concurrency (ISSUE 8): reports published by
//! the multi-writer [`ConcurrentStreamingPipeline`] are byte-identical
//! (through `serde_json`) to batch analysis of the same posts — for
//! every writer count × shard count × zone grid, with and without
//! durability — and every report observed *mid-ingest* equals the batch
//! analysis of exactly the per-writer batch prefixes its watermark
//! vector names.
//!
//! The schedules are **seeded**: which batches each writer sends, and
//! in which order, is a pure function of the seed, so a failure here is
//! a reproducible interleaving family, not a flake.

use proptest::prelude::*;

use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline, IngestWriter, ZoneGrid};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet};

const WRITER_GRID: [usize; 3] = [1, 2, 8];
const SHARD_GRID: [usize; 3] = [1, 4, 16];

/// One ingest batch: a user and a chunk of their posts.
type Batch = (String, Vec<Timestamp>);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deterministic stream of non-empty batches from a two-region crowd:
/// every user's trace is split into chunks, and the chunk order is
/// shuffled by `seed` so cumulative prefixes interleave users.
fn batches(seed: u64) -> Vec<Batch> {
    let db = RegionDb::extended();
    let mut out: Vec<Batch> = Vec::new();
    for (region, rseed) in [("japan", 3u64), ("brazil", 4u64)] {
        let traces = PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(18)
            .seed(rseed)
            .posts_per_day(0.6)
            .generate();
        for trace in traces.iter() {
            for chunk in trace.posts().chunks(5) {
                out.push((trace.id().to_owned(), chunk.to_vec()));
            }
        }
    }
    // Fisher–Yates with a seeded xorshift: the schedule is the seed.
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Deal batches to `writers` round-robin: writer `w` sends batches
/// `w, w + writers, …` in that order. Together with the seeded shuffle
/// this fixes each writer's schedule exactly.
fn deal(batches: &[Batch], writers: usize) -> Vec<Vec<Batch>> {
    let mut per_writer: Vec<Vec<Batch>> = vec![Vec::new(); writers];
    for (i, batch) in batches.iter().enumerate() {
        per_writer[i % writers].push(batch.clone());
    }
    per_writer
}

fn pipeline(shards: usize, grid: ZoneGrid) -> GeolocationPipeline {
    GeolocationPipeline::default()
        .min_posts(1)
        .shards(shards)
        .threads(2)
        .grid(grid)
}

/// One user's posts as a single-delta ingest batch.
fn ingest(writer: &IngestWriter, user: &str, posts: &[Timestamp]) {
    let batch = crowdtz_core::Batch {
        ingest: &[(user, posts)],
        ..crowdtz_core::Batch::default()
    };
    assert!(writer.apply(&batch).unwrap());
}

/// The reference: batch analysis of every post the batches carry.
fn batch_json<'a>(
    batches: impl IntoIterator<Item = &'a Batch>,
    shards: usize,
    grid: ZoneGrid,
) -> String {
    let mut traces = TraceSet::default();
    for (user, posts) in batches {
        for &p in posts {
            traces.record(user, p);
        }
    }
    serde_json::to_string(&pipeline(shards, grid).analyze(&traces).unwrap()).unwrap()
}

/// The concurrent path: one thread per writer, then one publish.
fn concurrent_json(schedules: &[Vec<Batch>], shards: usize, grid: ZoneGrid) -> String {
    let engine = ConcurrentStreamingPipeline::new(pipeline(shards, grid));
    std::thread::scope(|scope| {
        for schedule in schedules {
            let writer = engine.writer();
            scope.spawn(move || {
                for (user, posts) in schedule {
                    ingest(&writer, user, posts);
                }
            });
        }
    });
    serde_json::to_string(engine.publish().unwrap().report()).unwrap()
}

#[test]
fn concurrent_matches_single_owner_across_writers_and_shards() {
    for seed in [1u64, 2, 3] {
        let all = batches(seed);
        for shards in SHARD_GRID {
            let want = batch_json(&all, shards, ZoneGrid::Hourly);
            for writers in WRITER_GRID {
                let got = concurrent_json(&deal(&all, writers), shards, ZoneGrid::Hourly);
                assert_eq!(
                    got, want,
                    "diverged at seed {seed}, {shards} shards, {writers} writers"
                );
            }
        }
    }
}

#[test]
fn concurrent_matches_single_owner_on_every_zone_grid() {
    let all = batches(7);
    for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
        let want = batch_json(&all, 4, grid);
        let got = concurrent_json(&deal(&all, 8), 4, grid);
        assert_eq!(got, want, "diverged on {grid:?}");
    }
}

#[test]
fn durable_concurrent_matches_plain_sequential_and_recovers_identically() {
    let all = batches(11);
    let want = batch_json(&all, 4, ZoneGrid::Hourly);

    let dir =
        std::env::temp_dir().join(format!("crowdtz-concurrent-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let engine =
        ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
    std::thread::scope(|scope| {
        for schedule in deal(&all, 8) {
            let writer = engine.writer();
            scope.spawn(move || {
                for (user, posts) in &schedule {
                    ingest(&writer, user, posts);
                }
            });
        }
    });
    let published = engine.publish().unwrap();
    assert_eq!(
        serde_json::to_string(published.report()).unwrap(),
        want,
        "durable concurrent diverged from plain sequential"
    );
    engine.checkpoint_now().unwrap().expect("durable engine");
    drop(engine);

    // Recovery replays the concurrent WAL as an ordinary log and lands
    // on the same state.
    let recovered =
        ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
    assert_eq!(
        serde_json::to_string(recovered.publish().unwrap().report()).unwrap(),
        want,
        "recovery diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_mid_ingest_report_equals_its_watermark_prefix_replayed() {
    let all = batches(5);
    let schedules = deal(&all, 4);
    let engine = ConcurrentStreamingPipeline::new(pipeline(4, ZoneGrid::Hourly));

    // Register writers *before* spawning so watermark index `i` is
    // schedule `i`, then publish concurrently with ingestion until the
    // cut covers every batch.
    let writers: Vec<_> = schedules.iter().map(|_| engine.writer()).collect();
    let total_batches: usize = schedules.iter().map(Vec::len).sum();
    let observed = std::thread::scope(|scope| {
        for (writer, schedule) in writers.iter().zip(&schedules) {
            scope.spawn(move || {
                for (user, posts) in schedule {
                    ingest(writer, user, posts);
                    std::thread::yield_now();
                }
            });
        }
        let mut observed = Vec::new();
        loop {
            // Mid-ingest publishes can race an empty engine (EmptyCrowd);
            // those cuts simply aren't observable reports.
            if let Ok(report) = engine.publish() {
                let done = report.watermarks().iter().sum::<u64>() as usize == total_batches;
                observed.push(report);
                if done {
                    break;
                }
            }
            std::thread::yield_now();
        }
        observed
    });
    drop(writers);

    // The final cut is the full run; every cut — including any caught
    // mid-ingest — must equal the batch analysis of exactly the
    // per-writer prefixes its watermark vector names: never torn, always
    // some-prefix-of-batches consistent.
    for report in &observed {
        let prefixes = report
            .watermarks()
            .iter()
            .enumerate()
            .flat_map(|(w, taken)| schedules[w].iter().take(*taken as usize));
        let want = batch_json(prefixes, 4, ZoneGrid::Hourly);
        let got = serde_json::to_string(report.report()).unwrap();
        assert_eq!(
            got,
            want,
            "cut {:?} diverged from its prefix replay",
            report.watermarks()
        );
    }
    let full = observed.last().expect("loop exits on the full cut");
    assert_eq!(
        serde_json::to_string(full.report()).unwrap(),
        batch_json(&all, 4, ZoneGrid::Hourly),
        "final cut diverged from the full sequential reference"
    );
}

/// A fresh temp directory for one durable test.
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-batch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn as_deltas(batches: &[Batch]) -> Vec<(&str, &[Timestamp])> {
    batches
        .iter()
        .map(|(user, posts)| (user.as_str(), posts.as_slice()))
        .collect()
}

#[test]
fn mixed_batch_bytes_match_across_live_reopen_and_survivors() {
    let all = batches(13);
    let (first, second) = all.split_at(all.len() / 2);
    // The mixed batch ingests the second half and, in the same record,
    // retracts the back half of every first-half chunk.
    let dropped: Vec<Batch> = first
        .iter()
        .map(|(user, posts)| (user.clone(), posts[posts.len() / 2..].to_vec()))
        .collect();
    let survivors: Vec<Batch> = first
        .iter()
        .map(|(user, posts)| (user.clone(), posts[..posts.len() / 2].to_vec()))
        .chain(second.iter().cloned())
        .collect();
    let want = batch_json(&survivors, 4, ZoneGrid::Hourly);

    let dir = tmp_dir("mixed");
    let live = {
        let engine =
            ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
        let writer = engine.writer();
        let seed = as_deltas(first);
        let ingest = as_deltas(second);
        let retract = as_deltas(&dropped);
        assert!(writer
            .apply(&crowdtz_core::Batch {
                ingest: &seed,
                ..crowdtz_core::Batch::default()
            })
            .unwrap());
        assert!(writer
            .apply(&crowdtz_core::Batch {
                ingest: &ingest,
                retract: &retract,
                ..crowdtz_core::Batch::default()
            })
            .unwrap());
        let published = engine.publish().unwrap();
        assert_eq!(published.watermarks(), &[2]);
        serde_json::to_string(published.report()).unwrap()
    };
    let reopened = {
        let engine =
            ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
        let published = engine.publish().unwrap();
        serde_json::to_string(published.report()).unwrap()
    };
    assert_eq!(live, want, "live mixed batch diverged from the survivors");
    assert_eq!(reopened, want, "replayed mixed record diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_writers_apply_one_source_seq_exactly_once() {
    let posts: Vec<Timestamp> = (0..6)
        .map(|d| Timestamp::from_secs(d * 86_400 + 20 * 3_600))
        .collect();
    let deltas = [("u", posts.as_slice())];
    let batch = crowdtz_core::Batch {
        ingest: &deltas,
        source_seq: 1,
        checkpoint: Some("after-1"),
        ..crowdtz_core::Batch::default()
    };
    for _ in 0..20 {
        let engine = ConcurrentStreamingPipeline::new(pipeline(4, ZoneGrid::Hourly));
        let writers = [engine.writer(), engine.writer()];
        let start = std::sync::Barrier::new(writers.len());
        let applied: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = writers
                .iter()
                .map(|writer| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        writer.apply(&batch).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(applied.iter().filter(|&&a| a).count(), 1, "{applied:?}");
        assert_eq!(engine.posts_ingested(), posts.len(), "posts counted once");
        assert_eq!(engine.last_source_seq(), 1);
        assert_eq!(engine.source_checkpoint().as_deref(), Some("after-1"));
        let published = engine.publish().unwrap();
        assert_eq!(published.watermarks().iter().sum::<u64>(), 1);
        let moved: Vec<u64> = writers.iter().map(IngestWriter::batches_applied).collect();
        let winner = applied.iter().position(|&a| a).unwrap();
        assert_eq!(moved[winner], 1);
        assert_eq!(moved[1 - winner], 0);
    }
}

#[test]
fn deduped_batch_appends_no_wal_record() {
    let dir = tmp_dir("dedup");
    let engine =
        ConcurrentStreamingPipeline::open_durable(pipeline(4, ZoneGrid::Hourly), &dir).unwrap();
    let writer = engine.writer();
    let all = batches(17);
    let first = as_deltas(&all[..10]);
    let batch = crowdtz_core::Batch {
        ingest: &first,
        source_seq: 7,
        checkpoint: Some("ckpt-7"),
        ..crowdtz_core::Batch::default()
    };
    assert!(writer.apply(&batch).unwrap());
    let log = dir.join(crowdtz_store::LOG_FILE);
    let len = std::fs::metadata(&log).unwrap().len();
    assert!(len > 0);
    // The same sequence number, and an older one, with other posts.
    let other = as_deltas(&all[10..20]);
    for source_seq in [7, 3] {
        let stale = crowdtz_core::Batch {
            ingest: &other,
            source_seq,
            checkpoint: Some("stale"),
            ..crowdtz_core::Batch::default()
        };
        assert!(!writer.apply(&stale).unwrap());
        assert_eq!(std::fs::metadata(&log).unwrap().len(), len);
    }
    assert_eq!(writer.batches_applied(), 1);
    assert_eq!(engine.source_checkpoint().as_deref(), Some("ckpt-7"));
    drop(writer);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn proptest_pins_concurrent_determinism(
        seed in 1u64..1_000,
        writers in 1usize..6,
        shards in 1usize..8,
    ) {
        let all = batches(seed);
        let want = batch_json(&all, shards, ZoneGrid::Hourly);
        let got = concurrent_json(&deal(&all, writers), shards, ZoneGrid::Hourly);
        prop_assert_eq!(got, want);
    }
}
