//! Backward compatibility: write-ahead logs written *before* the
//! signed-delta extension (no `retractions` field in any record) must
//! recover byte-identically on today's engine.
//!
//! The fixture at `tests/fixtures/legacy-deltas.log` is a committed
//! old-format log — its bytes are pinned in git, so this test keeps
//! passing even if the current encoder evolves further. Regenerate it
//! (only if the fixture itself must change) with:
//!
//! ```text
//! cargo test -p crowdtz-core --test legacy_wal_compat -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crowdtz_core::{ConcurrentStreamingPipeline, GeolocationPipeline};
use crowdtz_store::{encode_record, LOG_FILE};
use crowdtz_time::{Timestamp, TraceSet};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/legacy-deltas.log"
);

/// A fresh directory for one test: the counter makes every call's path
/// unique, so tests (or property cases) sharing a tag never wipe each
/// other's state.
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("crowdtz-legacy-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The recovery configuration the fixture is pinned against.
fn pipeline() -> GeolocationPipeline {
    GeolocationPipeline::default()
        .shards(4)
        .threads(1)
        .min_posts(1)
}

/// One fixture batch: `(source_seq, checkpoint, deltas)`.
type FixtureBatch = (u64, Option<&'static str>, Vec<(&'static str, Vec<i64>)>);

/// The batches the fixture encodes. Shared by the regenerator and by
/// the in-memory reference below.
fn fixture_batches() -> Vec<FixtureBatch> {
    vec![
        (
            1,
            Some("round-1"),
            vec![
                ("legacy-a", vec![3_600, 7 * 3_600, 90_000]),
                ("legacy-b", vec![20 * 3_600, 21 * 3_600 + 1_800]),
            ],
        ),
        (
            2,
            None,
            vec![
                ("legacy-a", vec![2 * 86_400 + 8 * 3_600]),
                (
                    "legacy-c",
                    vec![13 * 3_600, 86_400 + 13 * 3_600, 2 * 86_400],
                ),
            ],
        ),
        (
            5,
            Some("round-5"),
            vec![("legacy-b", vec![3 * 86_400 + 4 * 3_600 + 900])],
        ),
    ]
}

/// Old-format payload, written out by hand so the bytes cannot drift
/// with the current encoder: `source_seq`, `checkpoint`, `deltas` — and
/// nothing else. No `retractions` field ever existed in these logs.
fn legacy_payload(seq: u64, checkpoint: Option<&str>, deltas: &[(&str, Vec<i64>)]) -> String {
    let deltas_json: Vec<String> = deltas
        .iter()
        .map(|(user, posts)| {
            let posts_json: Vec<String> = posts.iter().map(|s| s.to_string()).collect();
            format!("[\"{user}\",[{}]]", posts_json.join(","))
        })
        .collect();
    let checkpoint_json = match checkpoint {
        Some(c) => format!("\"{c}\""),
        None => "null".to_owned(),
    };
    format!(
        "{{\"source_seq\":{seq},\"checkpoint\":{checkpoint_json},\"deltas\":[{}]}}",
        deltas_json.join(",")
    )
}

/// Regenerates the committed fixture. Ignored: run it manually only
/// when the fixture itself has to change, then commit the result.
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_legacy_wal_fixture() {
    let mut log = Vec::new();
    for (seq, checkpoint, deltas) in fixture_batches() {
        let payload = legacy_payload(seq, checkpoint, &deltas);
        log.extend_from_slice(&encode_record(seq, payload.as_bytes()));
    }
    std::fs::create_dir_all(PathBuf::from(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, &log).unwrap();
}

/// A temp durable dir seeded with (only) the committed legacy log.
fn seeded_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = std::fs::read(FIXTURE).expect("committed fixture present");
    std::fs::write(dir.join(LOG_FILE), fixture).unwrap();
    dir
}

/// The report a batch analysis of the fixture's posts (no durability,
/// no recovery) produces, less the posts `skip` rejects.
fn reference_json_without(skip: impl Fn(&str, i64) -> bool) -> String {
    let mut traces = TraceSet::default();
    for (_, _, deltas) in fixture_batches() {
        for (user, posts) in deltas {
            for &s in posts.iter().filter(|&&s| !skip(user, s)) {
                traces.record(user, Timestamp::from_secs(s));
            }
        }
    }
    serde_json::to_string(&pipeline().analyze(&traces).unwrap()).unwrap()
}

fn reference_json() -> String {
    reference_json_without(|_, _| false)
}

#[test]
fn old_format_log_recovers_byte_identically_on_the_durable_engine() {
    let dir = seeded_dir("single");
    let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    assert_eq!(recovered.last_source_seq(), 5, "source seq recovered");
    assert_eq!(
        recovered.source_checkpoint().as_deref(),
        Some("round-5"),
        "checkpoint recovered"
    );
    let got = serde_json::to_string(recovered.publish().unwrap().report()).unwrap();
    assert_eq!(got, reference_json(), "legacy replay diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_format_log_recovers_byte_identically_on_the_concurrent_engine() {
    let dir = seeded_dir("concurrent");
    let recovered = ConcurrentStreamingPipeline::open_durable(pipeline(), &dir).unwrap();
    let published = recovered.publish().unwrap();
    let got = serde_json::to_string(published.report()).unwrap();
    assert_eq!(got, reference_json(), "legacy replay diverged");
    // The recovered engine keeps working as a signed-delta engine: a
    // retraction of one legacy post lands on the same bytes as never
    // having ingested it.
    let writer = recovered.writer();
    writer
        .retract_posts_ref(&[(
            "legacy-b",
            Timestamp::from_secs(3 * 86_400 + 4 * 3_600 + 900),
        )])
        .unwrap();
    assert_eq!(
        serde_json::to_string(recovered.publish().unwrap().report()).unwrap(),
        reference_json_without(|user, s| user == "legacy-b" && s == 3 * 86_400 + 4 * 3_600 + 900),
        "retraction on a recovered legacy engine diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
