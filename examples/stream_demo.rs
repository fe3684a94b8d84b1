//! Streaming demo: monitoring a 100 000-user crowd over 50 rounds,
//! batch re-analysis vs incremental snapshots.
//!
//! ```text
//! cargo run --release --example stream_demo [users] [rounds] \
//!     [--durable DIR] [--crash-after R]
//! ```
//!
//! Synthesizes a two-region crowd (60% Tokyo UTC+9, 40% São Paulo UTC−3)
//! as traces, primes an in-memory [`ConcurrentStreamingPipeline`] with it
//! through one writer, then plays 50 monitoring rounds in which ~1% of
//! the users post again. Each round is analyzed twice: a from-scratch
//! batch run over the cumulative traces, and an incremental publish that
//! re-places only the dirty users. The reports are byte-identical every
//! round; only the wall-clock differs.
//!
//! With `--durable DIR` the demo runs the crash-safe engine instead
//! (the same engine opened durable): every round is one
//! sequence-numbered [`Batch`] in `DIR`'s write-ahead log, and the
//! final report lands in `DIR/final_report.json`. Because
//! the workload is derived deterministically from the seed, re-running
//! the same command after a kill resumes from the recovered state and
//! produces a byte-identical final report — `--crash-after R` aborts
//! the process (no orderly shutdown) right after round `R` to prove it.

use std::path::PathBuf;
use std::time::Instant;

use crowdtz::core::{
    Batch, ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline, IngestWriter,
};
use crowdtz::time::{Timestamp, TraceSet, UserTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `users` traces from the reference generic profile shifted to
/// each user's home zone: 60% at UTC+9, 40% at UTC−3, 40 posts each.
fn synthesize(users: usize, seed: u64) -> TraceSet {
    let generic = GenericProfile::reference();
    let regions = [(9i32, 6usize), (-3, 4)]; // (zone, weight in tenths)
    let tables: Vec<[u64; 24]> = regions
        .iter()
        .map(|&(zone, _)| {
            let profile = generic.zone_profile(zone);
            let mut cum = [0u64; 24];
            let mut acc = 0u64;
            for (h, c) in cum.iter_mut().enumerate() {
                acc += (profile.as_slice()[h] * 1e6) as u64 + 1;
                *c = acc;
            }
            cum
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TraceSet::default();
    for i in 0..users {
        let table = &tables[usize::from(i % 10 >= regions[0].1)];
        let total = table[23];
        let posts: Vec<Timestamp> = (0..40)
            .map(|day: i64| {
                let r = rng.gen_range(0..total);
                let hour = table.iter().position(|&c| r < c).unwrap_or(23);
                Timestamp::from_secs(day * 86_400 + hour as i64 * 3_600)
            })
            .collect();
        out.insert(UserTrace::new(format!("u{i:06}"), posts));
    }
    out
}

/// Applies single-post observations as one sequenced [`Batch`] whose
/// checkpoint travels in the same log record; `false` when the batch was
/// already durable (a restart re-delivering it).
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
    writer.apply(&batch).expect("apply batch")
}

/// The durable path: every round is one sequenced batch into the
/// write-ahead log under `dir`. The workload (primer crowd + per-round
/// deltas) is a pure function of the seeds, so a killed run re-invoked
/// with the same arguments regenerates the same batches, the recovery
/// dedupes everything already durable by sequence number, and the final
/// report is byte-identical to an uninterrupted run.
fn durable_run(users: usize, rounds: usize, dir: PathBuf, crash_after: Option<u64>) {
    let dirty_per_round = (users / 100).max(1);
    println!("synthesizing {users} users (60% UTC+9, 40% UTC-3)…");
    let cumulative = synthesize(users, 42);

    let engine = ConcurrentStreamingPipeline::open_durable(GeolocationPipeline::default(), &dir)
        .expect("open durable engine");
    let writer = engine.writer();
    let recovered = engine.last_source_seq();
    if recovered > 0 {
        println!("warm restart: recovered through batch {recovered}, resuming…");
    }

    // Batch 1: the primer crowd. A restart skips it by sequence number.
    let primer: Vec<(String, crowdtz::time::Timestamp)> = cumulative
        .iter()
        .flat_map(|t| t.posts().iter().map(|&ts| (t.id().to_owned(), ts)))
        .collect();
    if apply(&writer, 1, &primer, "primed") {
        println!("primed the engine with {} posts (batch 1)…", primer.len());
        // Fold the primer into a snapshot generation immediately so a
        // crash never replays the whole crowd from the log.
        engine.checkpoint_now().expect("primer checkpoint");
    }

    println!("playing {rounds} monitor rounds, ~{dirty_per_round} active users each…");
    let mut rng = StdRng::seed_from_u64(7);
    for round in 1..=rounds as u64 {
        // The rng is drawn for every round — applied or skipped — so a
        // resumed run sees the same deltas as an uninterrupted one.
        let batch: Vec<(String, Timestamp)> = (0..dirty_per_round)
            .map(|_| {
                let user = format!("u{:06}", rng.gen_range(0..users));
                let ts = Timestamp::from_secs(
                    40 * 86_400 + round as i64 * 86_400 + rng.gen_range(0..86_400),
                );
                (user, ts)
            })
            .collect();
        let ckpt = format!("round-{round}");
        let applied = apply(&writer, 1 + round, &batch, &ckpt);
        if applied && Some(round) == crash_after {
            println!("crashing after round {round} (no orderly shutdown)…");
            std::process::abort();
        }
    }

    let published = engine.publish().expect("final publish");
    let report = published.report();
    let json = serde_json::to_string(report).expect("serialize report");
    let out = dir.join("final_report.json");
    std::fs::write(&out, &json).expect("write final report");
    println!(
        "{} users classified, {} flat profiles removed",
        report.users_classified(),
        report.flat_removed()
    );
    println!(
        "{} batches durable; final report written to {}",
        engine.last_source_seq(),
        out.display()
    );
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut durable_dir: Option<PathBuf> = None;
    let mut crash_after: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--durable" => {
                durable_dir = Some(args.next().expect("--durable needs a directory").into());
            }
            "--crash-after" => {
                crash_after = Some(
                    args.next()
                        .expect("--crash-after needs a round")
                        .parse()
                        .expect("--crash-after round must be an integer"),
                );
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let users: usize = positional
        .next()
        .map(|a| a.parse().expect("users must be an integer"))
        .unwrap_or(100_000);
    let rounds: usize = positional
        .next()
        .map(|a| a.parse().expect("rounds must be an integer"))
        .unwrap_or(50);
    if let Some(dir) = durable_dir {
        return durable_run(users, rounds, dir, crash_after);
    }
    let dirty_per_round = (users / 100).max(1);

    println!("synthesizing {users} users (60% UTC+9, 40% UTC-3)…");
    let mut cumulative = synthesize(users, 42);
    let pipeline = || GeolocationPipeline::default();

    println!("priming the streaming engine…");
    let streaming = ConcurrentStreamingPipeline::new(pipeline());
    let writer = streaming.writer();
    let crowd: Vec<(&str, &[Timestamp])> = cumulative.iter().map(|t| (t.id(), t.posts())).collect();
    let priming = Batch {
        ingest: &crowd,
        ..Batch::default()
    };
    writer.apply(&priming).expect("in-memory ingest");
    streaming.publish().expect("priming snapshot");

    println!("playing {rounds} monitor rounds, ~{dirty_per_round} active users each…");
    let mut rng = StdRng::seed_from_u64(7);
    let mut batch_total = 0.0f64;
    let mut incremental_total = 0.0f64;
    let mut last_pair = None;
    for round in 1..=rounds as i64 {
        // ~1% of the crowd posts once this round.
        let mut posts: Vec<(String, Timestamp)> = Vec::with_capacity(dirty_per_round);
        for _ in 0..dirty_per_round {
            let user = format!("u{:06}", rng.gen_range(0..users));
            let ts = Timestamp::from_secs(40 * 86_400 + round * 86_400 + rng.gen_range(0..86_400));
            cumulative.record(&user, ts);
            posts.push((user, ts));
        }
        let round_posts: Vec<(&str, Timestamp)> = posts
            .iter()
            .map(|(user, ts)| (user.as_str(), *ts))
            .collect();
        writer
            .ingest_posts_ref(&round_posts)
            .expect("in-memory ingest");

        let start = Instant::now();
        let batch = pipeline().analyze(&cumulative).expect("batch analyze");
        batch_total += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let snapshot = streaming.publish().expect("incremental snapshot");
        incremental_total += start.elapsed().as_secs_f64();

        // Published reports share their per-user row chunks with the
        // engine; a report held across the next refresh costs that refresh
        // one chunk copy per dirty user. Drop each round's reports (keeping
        // only the last) so the steady-state monitoring cost is what gets
        // measured.
        if round == rounds as i64 {
            last_pair = Some((batch, snapshot));
        }
    }

    println!("\nbatch re-analysis:      {batch_total:.2} s total over {rounds} rounds");
    println!("incremental snapshots:  {incremental_total:.2} s total over {rounds} rounds");
    println!(
        "speedup:                {:.1}x",
        batch_total / incremental_total
    );

    let (batch, published) = last_pair.expect("at least one round ran");
    let snapshot = published.report();
    assert_eq!(
        serde_json::to_string(&batch).expect("serialize"),
        serde_json::to_string(snapshot).expect("serialize"),
        "incremental snapshot diverged from batch — identity invariant broken"
    );
    println!("\nfinal-round reports are byte-identical; the crowd:");
    println!(
        "{} users classified, {} flat profiles removed",
        snapshot.users_classified(),
        snapshot.flat_removed()
    );
    let (hits, misses) = streaming.cache_stats();
    println!(
        "engine: {} accumulator shards, placement cache {hits} hits / {misses} misses",
        streaming.shard_count(),
    );
    for (zone, weight) in snapshot.multi_fit().time_zones() {
        println!(
            "  {:>3.0}% of the crowd in {}",
            weight * 100.0,
            crowdtz::time::zone_label(zone)
        );
    }
}
