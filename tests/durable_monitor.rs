//! End-to-end durability: a monitoring session feeding the durable
//! streaming engine survives a mid-run kill.
//!
//! The pairing under test (ISSUE 6): `Monitor::resume_run_batched`
//! delivers each poll as a sequence-numbered batch, and a durable
//! `IngestWriter::apply` persists the batch *and* the monitor checkpoint
//! in one log record. Killing the process at any
//! batch boundary and restarting from the recovered checkpoint — even a
//! stale one — must end with a snapshot byte-identical to a session
//! that was never killed, with the boundary batch deduped by sequence
//! number rather than double-counted.

use std::path::PathBuf;

use crowdtz::core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline, IngestWriter};
use crowdtz::forum::{
    CrowdComponent, ForumHost, ForumSpec, Monitor, MonitorCheckpoint, TimestampPolicy,
};
use crowdtz::time::{CivilDateTime, Timestamp};
use crowdtz::tor::TorNetwork;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn forum_spec() -> ForumSpec {
    ForumSpec::new(
        "Hidden TS Forum",
        vec![CrowdComponent::new("italy", 1.0)],
        8,
    )
    .seed(42)
    .policy(TimestampPolicy::Hidden)
}

/// A fresh process: its own simulated forum instance (deterministic from
/// the spec seed) and a monitor with no in-memory cursor.
fn fresh_monitor() -> Monitor {
    let forum = crowdtz::forum::SimulatedForum::generate(&forum_spec());
    let host = ForumHost::new(forum).page_size(25);
    let mut net = TorNetwork::with_relays(30, 5);
    let addr = net.publish(host.into_hidden_service(1)).unwrap();
    Monitor::new(net.connect(&addr, 2).unwrap())
}

fn window() -> (Timestamp, Timestamp, i64) {
    let from = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 1, 0, 0, 0).unwrap());
    let to = Timestamp::from_civil_utc(CivilDateTime::new(2016, 3, 8, 0, 0, 0).unwrap());
    (from, to, 3_600)
}

fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default().min_posts(1)
}

/// One monitor poll as a sequenced [`Batch`], the serialized checkpoint
/// in the same log record; `false` when the sequence number was
/// already applied.
fn apply(writer: &IngestWriter, seq: u64, posts: &[(String, Timestamp)], checkpoint: &str) -> bool {
    let ingest: Vec<(&str, &[Timestamp])> = posts
        .iter()
        .map(|(user, ts)| (user.as_str(), std::slice::from_ref(ts)))
        .collect();
    let batch = Batch {
        ingest: &ingest,
        source_seq: seq,
        checkpoint: Some(checkpoint),
        ..Batch::default()
    };
    writer.apply(&batch).unwrap()
}

fn ingest_posts(writer: &IngestWriter, posts: &[(String, Timestamp)]) {
    let refs: Vec<(&str, Timestamp)> = posts.iter().map(|(u, ts)| (u.as_str(), *ts)).collect();
    writer.ingest_posts_ref(&refs).unwrap();
}

fn published_json(engine: &ConcurrentStreamingPipeline) -> String {
    serde_json::to_string(engine.publish().unwrap().report()).unwrap()
}

#[test]
fn killed_monitor_restarts_warm_and_matches_an_uninterrupted_run() {
    let (from, to, interval) = window();

    // Reference: never-killed session into a plain in-memory engine.
    let reference = ConcurrentStreamingPipeline::new(pipeline());
    let reference_writer = reference.writer();
    let mut total_batches = 0u64;
    fresh_monitor()
        .resume_run_batched(from, to, interval, MonitorCheckpoint::start(), |_, b, _| {
            ingest_posts(&reference_writer, b);
            total_batches += 1;
            true
        })
        .unwrap();
    assert!(total_batches >= 3, "window too small to exercise a kill");
    let want = published_json(&reference);
    let kill_after = total_batches / 2;

    let dir = tmp_dir("kill-restart");

    // Run 1: feed the durable engine, storing the serialized monitor
    // checkpoint transactionally with every batch, and "die" at a batch
    // boundary mid-window (drop with no orderly shutdown — the
    // write-ahead log and the snapshot generations rotated after every
    // batch are the only things that survive).
    {
        let engine = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = engine.writer();
        fresh_monitor()
            .resume_run_batched(
                from,
                to,
                interval,
                MonitorCheckpoint::start(),
                |seq, b, cp| {
                    let blob = serde_json::to_string(cp).unwrap();
                    assert!(apply(&writer, seq, b, &blob));
                    engine.checkpoint_now().unwrap();
                    seq < kill_after
                },
            )
            .unwrap();
        assert_eq!(engine.last_source_seq(), kill_after);
    }

    // Run 2 ("the restart"): recover the engine, resume the monitor from
    // the checkpoint the recovery hands back.
    let engine = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    let writer = engine.writer();
    assert_eq!(
        engine.last_source_seq(),
        kill_after,
        "warm restart lost batches"
    );
    let cp: MonitorCheckpoint =
        serde_json::from_str(&engine.source_checkpoint().expect("recovered checkpoint")).unwrap();
    assert_eq!(cp.batch_seq(), kill_after);
    fresh_monitor()
        .resume_run_batched(from, to, interval, cp, |seq, b, after| {
            let blob = serde_json::to_string(after).unwrap();
            assert!(apply(&writer, seq, b, &blob));
            true
        })
        .unwrap();
    assert_eq!(engine.last_source_seq(), total_batches);
    assert_eq!(
        published_json(&engine),
        want,
        "kill/restart diverged from the uninterrupted session"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_checkpoint_restart_dedupes_the_boundary_batch() {
    let (from, to, interval) = window();

    let reference = ConcurrentStreamingPipeline::new(pipeline());
    let reference_writer = reference.writer();
    let mut checkpoints: Vec<MonitorCheckpoint> = Vec::new();
    fresh_monitor()
        .resume_run_batched(
            from,
            to,
            interval,
            MonitorCheckpoint::start(),
            |_, b, cp| {
                ingest_posts(&reference_writer, b);
                checkpoints.push(cp.clone());
                true
            },
        )
        .unwrap();
    assert!(checkpoints.len() >= 3);
    let want = published_json(&reference);
    let boundary = checkpoints.len() as u64 / 2 + 1;

    let dir = tmp_dir("stale-restart");
    {
        let engine = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
        let writer = engine.writer();
        fresh_monitor()
            .resume_run_batched(
                from,
                to,
                interval,
                MonitorCheckpoint::start(),
                |seq, b, cp| {
                    let blob = serde_json::to_string(cp).unwrap();
                    assert!(apply(&writer, seq, b, &blob));
                    seq < boundary
                },
            )
            .unwrap();
    }

    // Restart from a checkpoint one batch *behind* the engine's durable
    // state — the worst-case restart gap. The monitor re-delivers the
    // boundary batch with its original sequence number; the engine must
    // drop it (`Ok(false)`), not double-count it.
    let engine = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    let writer = engine.writer();
    assert_eq!(engine.last_source_seq(), boundary);
    let stale = checkpoints[boundary as usize - 2].clone();
    let mut deduped = 0u32;
    fresh_monitor()
        .resume_run_batched(from, to, interval, stale, |seq, b, after| {
            let blob = serde_json::to_string(after).unwrap();
            if !apply(&writer, seq, b, &blob) {
                deduped += 1;
                assert_eq!(seq, boundary, "only the boundary batch may dedupe");
            }
            true
        })
        .unwrap();
    assert_eq!(deduped, 1, "boundary batch was not re-delivered/deduped");
    assert_eq!(
        published_json(&engine),
        want,
        "stale-checkpoint restart double-counted or lost observations"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
