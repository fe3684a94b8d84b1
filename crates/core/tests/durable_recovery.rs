//! Recovery invariants of the durable streaming engine.
//!
//! The contract under test (ISSUE 6): for **any** crash point injected
//! by `FaultStore`, `open_durable` recovers either the pre-crash
//! snapshot state or the post-batch state — never a partial batch —
//! and the recovered engine's published report is serde_json
//! byte-identical to a never-crashed engine fed the same deltas.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crowdtz_core::{
    Batch, ConcurrentStreamingPipeline, CoreError, GeolocationPipeline, IngestWriter, ZoneGrid,
};
use crowdtz_store::{FaultPlan, FaultStore};
use crowdtz_time::Timestamp;
use proptest::prelude::*;

/// A fresh directory for one test: the counter makes every call's path
/// unique, so tests (or property cases) sharing a tag never wipe each
/// other's state.
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("crowdtz-durable-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic monitor-shaped batch `b` for workload `seed`: a few
/// users, each posting in a seed-dependent hour slot. Integer math
/// only, so every run of a case sees identical data.
fn batch(seed: u64, b: u64) -> Vec<(String, Timestamp)> {
    let mut posts = Vec::new();
    for i in 0..8u64 {
        let user = format!("u{:02}", (seed + i) % 10);
        let slot = ((seed * 31 + b * 7 + i * 13) % (40 * 24)) as i64;
        posts.push((user, Timestamp::from_secs(slot * 3_600)));
    }
    posts
}

/// Applies monitor batch `posts` as one [`Batch`] under sequence number
/// `seq`, with the checkpoint logged in the same record.
fn apply(
    writer: &IngestWriter,
    seq: u64,
    posts: &[(String, Timestamp)],
    checkpoint: Option<&str>,
) -> Result<bool, CoreError> {
    let ingest: Vec<(&str, &[Timestamp])> = posts
        .iter()
        .map(|(user, ts)| (user.as_str(), std::slice::from_ref(ts)))
        .collect();
    writer.apply(&Batch {
        ingest: &ingest,
        source_seq: seq,
        checkpoint,
        ..Batch::default()
    })
}

/// Feeds single-post observations to an in-memory reference engine.
fn ingest_posts(writer: &IngestWriter, posts: &[(String, Timestamp)]) {
    let refs: Vec<(&str, Timestamp)> = posts.iter().map(|(u, ts)| (u.as_str(), *ts)).collect();
    writer.ingest_posts_ref(&refs).unwrap();
}

/// Published report serialized to a comparable string; degenerate
/// crowds may legitimately error, and then the error must be identical
/// too.
fn published_json(engine: &ConcurrentStreamingPipeline) -> String {
    match engine.publish() {
        Ok(r) => serde_json::to_string(r.report()).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default().min_posts(1)
}

/// The never-crashed reference: a plain in-memory engine fed batches
/// `1..=upto`.
fn reference_json(seed: u64, upto: u64) -> String {
    let engine = ConcurrentStreamingPipeline::new(pipeline());
    let writer = engine.writer();
    for b in 1..=upto {
        ingest_posts(&writer, &batch(seed, b));
    }
    published_json(&engine)
}

#[test]
fn warm_restart_resumes_byte_identical() {
    let seed = 42;
    let dir = tmp_dir("warm-restart");

    // Run 1: ingest 5 monitor batches, rotating a snapshot generation
    // after each, then "die" abruptly (drop without any orderly
    // shutdown).
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=5u64 {
            let ckpt = format!("ckpt-{b}");
            assert!(apply(&writer, b, &batch(seed, b), Some(&ckpt)).unwrap());
            durable.checkpoint_now().unwrap();
        }
        assert_eq!(durable.last_source_seq(), 5);
    }

    // Run 2: recover, verify bookkeeping, and resume.
    let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    let writer = durable.writer();
    assert_eq!(durable.last_source_seq(), 5);
    assert_eq!(durable.source_checkpoint().as_deref(), Some("ckpt-5"));
    let recovered = published_json(&durable);
    assert_eq!(
        recovered,
        reference_json(seed, 5),
        "recovered state diverged"
    );

    // A re-delivered boundary batch (the monitor restart gap) is
    // dropped by sequence number, not double-counted.
    assert!(!apply(&writer, 5, &batch(seed, 5), Some("ckpt-5")).unwrap());
    assert_eq!(durable.posts_ingested(), 5 * 8);

    // Resuming matches an engine that never restarted.
    assert!(apply(&writer, 6, &batch(seed, 6), Some("ckpt-6")).unwrap());
    let resumed = published_json(&durable);
    assert_eq!(resumed, reference_json(seed, 6), "resumed state diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_restart_replays_only_the_log_suffix() {
    let seed = 7;
    let dir = tmp_dir("suffix-only");
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=20u64 {
            apply(&writer, b, &batch(seed, b), None).unwrap();
        }
        // Explicit rotation: everything so far is covered by the
        // snapshot and compacted out of the log...
        durable.checkpoint_now().unwrap();
        // ...and only these two records should ever replay again.
        apply(&writer, 21, &batch(seed, 21), None).unwrap();
        apply(&writer, 22, &batch(seed, 22), None).unwrap();
    }
    let vfs = FaultStore::new(FaultPlan::new(0));
    let durable =
        ConcurrentStreamingPipeline::open_durable_with(pipeline(), Box::new(vfs), &dir).unwrap();
    // 22 batches ingested, but the warm restart replayed only 2.
    assert_eq!(durable.last_source_seq(), 22);
    assert!(
        std::fs::metadata(dir.join(crowdtz_store::LOG_FILE))
            .unwrap()
            .len()
            > 0,
        "suffix records remain in the log"
    );
    let (_, rec) = crowdtz_store::DurableStore::open(&dir).unwrap();
    assert_eq!(
        rec.stats.records_replayed, 2,
        "replay scales with log suffix"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_tolerates_a_torn_log_tail() {
    let seed = 3;
    let dir = tmp_dir("torn-tail");
    {
        let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = durable.writer();
        for b in 1..=3u64 {
            apply(&writer, b, &batch(seed, b), None).unwrap();
        }
    }
    // Crash signature: a half-written record at the log tail.
    let log = dir.join(crowdtz_store::LOG_FILE);
    let mut data = std::fs::read(&log).unwrap();
    let garbage = crowdtz_store::encode_record(4, b"half-written batch record");
    data.extend_from_slice(&garbage[..garbage.len() / 2]);
    std::fs::write(&log, &data).unwrap();

    let durable = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    assert_eq!(
        durable.last_source_seq(),
        3,
        "torn tail recovers to last full batch"
    );
    let got = published_json(&durable);
    assert_eq!(got, reference_json(seed, 3));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sub-hour placements survive a checkpoint + warm restart byte-exactly.
///
/// Regression: the snapshot format once persisted placements as whole
/// hours, so recovery silently floored every ±15/±30/±45 quarter-grid
/// offset to its hour — an hourly-grid engine could never notice.
#[test]
fn quarter_grid_placements_survive_restart_exactly() {
    let dir = tmp_dir("quarter-grid");
    let quarter = || {
        GeolocationPipeline::default()
            .min_posts(1)
            .grid(ZoneGrid::QuarterHour)
    };
    // A clustered diurnal workload: 12 users, 5 posts per batch around a
    // per-user home hour with deterministic jitter. Enough activity to
    // survive polishing, shaped enough to place — and on the quarter
    // grid, placements land off the whole-hour lattice.
    let shifted: Vec<Vec<(String, Timestamp)>> = (0..4i64)
        .map(|day| {
            (0..12i64)
                .flat_map(|u| {
                    (0..5i64).map(move |p| {
                        let home = if u % 3 == 0 { 12 } else { 21 };
                        let jitter = (u * 7 + p * 3 + day) % 5 - 2;
                        let hour = (home + jitter).rem_euclid(24);
                        (
                            format!("user{u:02}"),
                            Timestamp::from_secs(day * 86_400 + hour * 3_600 + u * 60),
                        )
                    })
                })
                .collect()
        })
        .collect();

    let reference = {
        let engine = ConcurrentStreamingPipeline::new(quarter());
        let writer = engine.writer();
        for posts in &shifted {
            ingest_posts(&writer, posts);
        }
        published_json(&engine)
    };
    // `zone_minutes` is serialized only when nonzero, so its presence
    // proves the workload actually exercises sub-hour offsets.
    assert!(
        reference.contains("zone_minutes"),
        "workload must place at least one user off the whole-hour lattice: {reference}"
    );

    {
        let durable = ConcurrentStreamingPipeline::open_durable(quarter(), &dir).unwrap();
        let writer = durable.writer();
        for (b, posts) in shifted.iter().enumerate() {
            apply(&writer, b as u64 + 1, posts, None).unwrap();
        }
        // Force a snapshot generation so recovery rebuilds placements
        // from the persisted accumulator, not by replaying the log.
        durable.checkpoint_now().unwrap();
    }
    let recovered = ConcurrentStreamingPipeline::open_durable(quarter(), &dir).unwrap();
    let got = published_json(&recovered);
    assert_eq!(
        got, reference,
        "quarter-grid placements truncated by recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sweep seeded crash points through the full engine: recovery must
    /// land on a batch boundary (acked batches all present, at most the
    /// one in-flight batch beyond them) and be byte-identical to the
    /// never-crashed reference at that boundary.
    #[test]
    fn any_crash_point_recovers_a_batch_boundary(
        seed in 0u64..1000,
        crash_at in 0u64..120,
    ) {
        let dir = tmp_dir(&format!("crash-{seed}-{crash_at}"));
        let vfs = FaultStore::new(FaultPlan::new(seed).crash_at(crash_at));
        let probe = vfs.probe();
        let mut acked = 0u64;
        match ConcurrentStreamingPipeline::open_durable_with(pipeline(), Box::new(vfs), &dir) {
            Err(e) => {
                prop_assert!(
                    matches!(e, crowdtz_core::CoreError::Store(ref s) if s.is_injected_crash()),
                    "unexpected open failure: {}", e
                );
            }
            Ok(durable) => {
                // A rotation after every batch: part writes, manifest
                // rename and compaction happen mid-workload, putting
                // crash points inside every store code path.
                let writer = durable.writer();
                for b in 1..=6u64 {
                    let ckpt = format!("ckpt-{b}");
                    let step = apply(&writer, b, &batch(seed, b), Some(&ckpt))
                        .and_then(|applied| {
                            acked += u64::from(applied);
                            durable.checkpoint_now().map(|_| applied)
                        });
                    match step {
                        Ok(applied) => prop_assert!(applied),
                        Err(e) => {
                            prop_assert!(
                                matches!(e, crowdtz_core::CoreError::Store(ref s) if s.is_injected_crash()),
                                "unexpected ingest failure: {}", e
                            );
                            break;
                        }
                    }
                }
            }
        }

        // "Restart the process": reopen with a clean VFS.
        let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir)
            .map_err(|e| format!("recovery must never fail, got: {e}"))?;
        let r = recovered.last_source_seq();
        // Never a partial batch: the recovered sequence is a batch
        // boundary containing every acked batch, plus at most the one
        // batch whose ingest call crashed after its append was durable.
        prop_assert!(
            r == acked || r == acked + 1,
            "recovered seq {} vs acked {} (crash fired: {})",
            r, acked, probe.crashed()
        );
        if r >= 1 {
            let want = format!("ckpt-{r}");
            prop_assert_eq!(
                recovered.source_checkpoint(),
                Some(want),
                "checkpoint must travel with its batch"
            );
        }
        let got = published_json(&recovered);
        prop_assert_eq!(got, reference_json(seed, r), "diverged at boundary {}", r);
        std::fs::remove_dir_all(&dir).ok();
    }
}
