//! Durable streaming analysis — crash-safe persistence of the shard
//! accumulators via `crowdtz-store`.
//!
//! A durable [`ConcurrentStreamingPipeline`](crate::ConcurrentStreamingPipeline)
//! keeps a store directory holding per-shard **snapshots** plus an
//! append-only, CRC-framed **delta log** (one record per
//! [`Batch`]). Every batch is write-ahead: it is appended and fsynced
//! *before* it is applied in memory, so once
//! [`IngestWriter::apply`](crate::IngestWriter::apply) returns `Ok` the
//! posts survive any crash. [`recover`] loads *snapshot + valid log
//! suffix* and the engine resumes **byte-identical** to one that never
//! crashed:
//!
//! * Everything the snapshot persists per user is integral — slot keys,
//!   post counts, the flatness flag, the zone, and the EMD as raw
//!   `f64::to_bits` — and everything derived (distributions, profiles,
//!   kept vectors, zone counts) is recomputed by the same pure
//!   functions the live engine uses, in the same global user-id order.
//! * Log records replay through the same delta path as live batches.
//! * The store assigns sequence numbers; a snapshot covers a prefix,
//!   recovery replays only the suffix — warm-restart cost scales with
//!   the log length, not the crawl length.
//!
//! A batch's *source* sequence number and opaque monitor checkpoint
//! ride in the same log record as its posts, transactionally: a monitor
//! that is killed and resumed from its persisted checkpoint may
//! re-deliver the boundary batch, and the engine drops it by sequence
//! number instead of double-counting posts.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use crowdtz_stats::{Histogram24, BINS};
use crowdtz_store::{DurableStore, StoreError, Vfs};
use crowdtz_time::Timestamp;
use serde::{Deserialize, Serialize};

use crate::concurrent::Batch;
use crate::error::CoreError;
use crate::pipeline::GeolocationPipeline;
use crate::placement::UserPlacement;
use crate::profile::ActivityProfile;
use crate::shard::{UserAccumulator, UserAnalysis};
use crate::streaming::StreamingPipeline;

/// One ingest batch as logged: the engine-visible deltas plus the
/// monitor bookkeeping stored transactionally with them.
///
/// # Record versioning
///
/// The signed-delta extension rides in the `retractions` field, omitted
/// from the wire when empty and defaulted when absent (hand-written
/// impls below — the vendored serde derive has no attribute support):
/// pre-signed-record logs, which have no such field, decode with no
/// retractions and replay as pure ingest, and a new log that only ever
/// ingests is byte-identical to what the old code would have written —
/// the field's *presence* is the version marker, no framing change
/// needed.
#[derive(Debug)]
struct LogBatch {
    /// Source (monitor) batch sequence number; `0` for unsequenced
    /// batches.
    source_seq: u64,
    /// Opaque monitor checkpoint valid *after* this batch.
    checkpoint: Option<String>,
    /// `(user, post timestamps as epoch seconds)` deltas.
    deltas: Vec<(String, Vec<i64>)>,
    /// Signed (negative) deltas, applied after `deltas` — same shape.
    retractions: Vec<(String, Vec<i64>)>,
}

impl Serialize for LogBatch {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("source_seq".to_owned(), self.source_seq.to_value()),
            ("checkpoint".to_owned(), self.checkpoint.to_value()),
            ("deltas".to_owned(), self.deltas.to_value()),
        ];
        if !self.retractions.is_empty() {
            fields.push(("retractions".to_owned(), self.retractions.to_value()));
        }
        serde::Value::object(fields)
    }

    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.raw("{\"source_seq\":");
        self.source_seq.write_json(out);
        out.raw(",\"checkpoint\":");
        self.checkpoint.write_json(out);
        out.raw(",\"deltas\":");
        self.deltas.write_json(out);
        if !self.retractions.is_empty() {
            out.raw(",\"retractions\":");
            self.retractions.write_json(out);
        }
        out.raw("}");
    }
}

impl Deserialize for LogBatch {
    fn from_value(value: &serde::Value) -> Result<LogBatch, serde::DeError> {
        Ok(LogBatch {
            source_seq: Deserialize::from_value(value.field("source_seq")?)?,
            checkpoint: Deserialize::from_value(value.field("checkpoint")?)?,
            deltas: Deserialize::from_value(value.field("deltas")?)?,
            // Absent in pre-signed-record logs → pure-ingest replay.
            retractions: match value.field("retractions") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// Persisted form of one user's placement analysis.
/// `offset_minutes`/`emd_bits` are meaningful only when `placed`; the
/// EMD travels as raw bits so the recovered value is the identical
/// `f64`, and the offset travels in minutes so sub-hour placements on
/// the half- and quarter-hour grids survive recovery exactly (a
/// whole-hours field would silently truncate ±15/±30/±45).
#[derive(Debug, Serialize, Deserialize)]
struct AnalysisSnap {
    flat: bool,
    placed: bool,
    offset_minutes: i32,
    emd_bits: u64,
}

/// Persisted form of one user's accumulator. Hour counts are derivable
/// from the slot keys and are rebuilt on load.
#[derive(Debug)]
struct UserSnap {
    id: String,
    slots: Vec<i64>,
    /// Live post count per slot, parallel to `slots` — the refcounts the
    /// retraction path needs. Absent in pre-signed-record snapshots
    /// (hand-written impls below, defaulted when missing);
    /// [`rebuild_accumulator`] then reconstructs counts that preserve
    /// the `sum == posts` invariant (analysis output never depends on
    /// the split, only later retractions would).
    slot_posts: Vec<u32>,
    posts: u64,
    analysis: Option<AnalysisSnap>,
}

impl Serialize for UserSnap {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("id".to_owned(), self.id.to_value()),
            ("slots".to_owned(), self.slots.to_value()),
        ];
        if !self.slot_posts.is_empty() {
            fields.push(("slot_posts".to_owned(), self.slot_posts.to_value()));
        }
        fields.push(("posts".to_owned(), self.posts.to_value()));
        fields.push(("analysis".to_owned(), self.analysis.to_value()));
        serde::Value::object(fields)
    }

    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.raw("{\"id\":");
        self.id.write_json(out);
        out.raw(",\"slots\":");
        self.slots.write_json(out);
        if !self.slot_posts.is_empty() {
            out.raw(",\"slot_posts\":");
            self.slot_posts.write_json(out);
        }
        out.raw(",\"posts\":");
        self.posts.write_json(out);
        out.raw(",\"analysis\":");
        self.analysis.write_json(out);
        out.raw("}");
    }
}

impl Deserialize for UserSnap {
    fn from_value(value: &serde::Value) -> Result<UserSnap, serde::DeError> {
        Ok(UserSnap {
            id: Deserialize::from_value(value.field("id")?)?,
            slots: Deserialize::from_value(value.field("slots")?)?,
            slot_posts: match value.field("slot_posts") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => Vec::new(),
            },
            posts: Deserialize::from_value(value.field("posts")?)?,
            analysis: Deserialize::from_value(value.field("analysis")?)?,
        })
    }
}

/// One snapshot part: a shard's users (in id order) plus its dirty ids.
#[derive(Debug, Serialize, Deserialize)]
struct ShardSnap {
    users: Vec<UserSnap>,
    dirty: Vec<String>,
}

/// The final snapshot part: engine-level bookkeeping.
#[derive(Debug, Serialize, Deserialize)]
struct MetaSnap {
    source_seq: u64,
    checkpoint: Option<String>,
}

fn codec_err(what: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Store(StoreError::Codec {
        reason: format!("{what}: {e}"),
    })
}

fn encode_json<T: Serialize>(what: &str, value: &T) -> Result<Vec<u8>, CoreError> {
    serde_json::to_vec(value).map_err(|e| codec_err(what, e))
}

fn decode_json<T: serde::Deserialize>(what: &str, bytes: &[u8]) -> Result<T, CoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| codec_err(what, e))?;
    serde_json::from_str(text).map_err(|e| codec_err(what, e))
}

/// Opens (creating if necessary) the store at `dir` and recovers its
/// state: the newest valid snapshot generation is loaded, then the
/// valid log suffix is replayed through the normal delta path. Returns
/// the recovered engine, the store, and the highest source sequence
/// number with its checkpoint. Corrupt snapshot generations are
/// quarantined with fallback to the previous one; a torn log tail is
/// truncated silently (it is the expected crash signature, not an
/// error).
///
/// # Errors
///
/// [`CoreError::Store`] when the directory is unusable or a CRC-valid
/// snapshot fails structural decoding.
pub(crate) fn recover(
    pipeline: GeolocationPipeline,
    vfs: Box<dyn Vfs>,
    dir: impl Into<PathBuf>,
) -> Result<(StreamingPipeline, DurableStore, u64, Option<String>), CoreError> {
    let obs = pipeline.obs();
    let (store, recovered) = DurableStore::open_with(vfs, dir, obs)?;
    let mut inner = StreamingPipeline::new(pipeline);
    let mut source_seq = 0u64;
    let mut checkpoint = None;
    if let Some(snap) = &recovered.snapshot {
        let (meta_part, shard_parts) = snap.parts.split_last().ok_or_else(|| {
            CoreError::Store(StoreError::Corrupt {
                path: String::new(),
                reason: "snapshot has no parts".into(),
            })
        })?;
        let meta: MetaSnap = decode_json("snapshot meta", meta_part)?;
        source_seq = meta.source_seq;
        checkpoint = meta.checkpoint;
        for part in shard_parts {
            let shard: ShardSnap = decode_json("shard snapshot", part)?;
            let dirty: BTreeSet<String> = shard.dirty.into_iter().collect();
            for user in shard.users {
                let was_dirty = dirty.contains(&user.id);
                let acc = rebuild_accumulator(&user)?;
                inner.shards_mut_ref().restore_user(user.id, acc, was_dirty);
            }
        }
        inner.rebuild_derived_state();
    }
    for (_, payload) in &recovered.deltas {
        let batch: LogBatch = decode_json("log record", payload)?;
        apply_batch(&inner, &batch);
        if batch.source_seq != 0 {
            source_seq = source_seq.max(batch.source_seq);
            if batch.checkpoint.is_some() {
                checkpoint = batch.checkpoint;
            }
        }
    }
    Ok((inner, store, source_seq, checkpoint))
}

/// Encodes one [`Batch`] as its WAL record. Recovery replays the record
/// through [`apply_batch`] unchanged.
pub(crate) fn encode_batch(batch: &Batch<'_>) -> Result<Vec<u8>, CoreError> {
    let owned = |deltas: &[(&str, &[Timestamp])]| -> Vec<(String, Vec<i64>)> {
        deltas
            .iter()
            .map(|(user, posts)| {
                (
                    (*user).to_owned(),
                    posts.iter().map(|t| t.as_secs()).collect(),
                )
            })
            .collect()
    };
    let record = LogBatch {
        source_seq: batch.source_seq,
        checkpoint: batch.checkpoint.map(str::to_owned),
        deltas: owned(batch.ingest),
        retractions: owned(batch.retract),
    };
    encode_json("log record", &record)
}

/// Builds the full snapshot part set — one [`ShardSnap`] per shard in
/// shard-index order, then the [`MetaSnap`] — for the engine's current
/// in-memory state: what every snapshot rotation persists.
pub(crate) fn build_snapshot_parts(
    stream: &StreamingPipeline,
    source_seq: u64,
    checkpoint: Option<&str>,
) -> Result<Vec<Vec<u8>>, CoreError> {
    let mut parts: Vec<Result<Vec<u8>, CoreError>> = Vec::new();
    stream.shards_ref().for_each_shard(|users, dirty| {
        let snap = ShardSnap {
            users: users
                .iter()
                .map(|(id, acc)| UserSnap {
                    id: id.clone(),
                    slots: acc.slots.clone(),
                    slot_posts: acc.slot_counts.clone(),
                    posts: acc.posts as u64,
                    analysis: acc.analysis.as_ref().map(|a| AnalysisSnap {
                        flat: a.flat,
                        placed: a.placement.is_some(),
                        offset_minutes: a
                            .placement
                            .as_ref()
                            .map_or(0, UserPlacement::offset_minutes),
                        emd_bits: a.placement.as_ref().map_or(0, |p| p.emd().to_bits()),
                    }),
                })
                .collect(),
            dirty: dirty.iter().cloned().collect(),
        };
        parts.push(encode_json("shard snapshot", &snap));
    });
    let meta = MetaSnap {
        source_seq,
        checkpoint: checkpoint.map(str::to_owned),
    };
    parts.push(encode_json("snapshot meta", &meta));
    parts.into_iter().collect()
}

/// Replays one logged batch through the live write path — one call per
/// sign, ingests first, then retractions, matching the live order.
fn apply_batch(inner: &StreamingPipeline, batch: &LogBatch) {
    for (deltas, retract) in [(&batch.deltas, false), (&batch.retractions, true)] {
        let posts: Vec<Vec<Timestamp>> = deltas
            .iter()
            .map(|(_, secs)| secs.iter().map(|&s| Timestamp::from_secs(s)).collect())
            .collect();
        let refs: Vec<(&str, &[Timestamp])> = deltas
            .iter()
            .zip(&posts)
            .map(|((user, _), p)| (user.as_str(), p.as_slice()))
            .collect();
        inner.apply(&refs, retract, 1, None);
    }
}

/// Rebuilds a [`UserAccumulator`] (hour counts, profile, placement)
/// from its persisted integer state, using the same pure functions the
/// live refresh uses so the result is bit-identical.
fn rebuild_accumulator(user: &UserSnap) -> Result<UserAccumulator, CoreError> {
    let mut hour_counts = [0u32; BINS];
    for &k in &user.slots {
        hour_counts[k.rem_euclid(24) as usize] += 1;
    }
    let analysis = match &user.analysis {
        None => None,
        Some(a) => {
            let mut bins = [0.0_f64; BINS];
            for (dst, &c) in bins.iter_mut().zip(hour_counts.iter()) {
                *dst = f64::from(c);
            }
            let distribution = Histogram24::from_bins(bins)
                .normalized()
                .map_err(|e| codec_err("snapshot analysis with empty activity", e))?;
            let profile = ActivityProfile::from_parts(
                user.id.as_str().into(),
                distribution,
                user.slots.len(),
                user.posts as usize,
            );
            let placement = a.placed.then(|| {
                UserPlacement::from_offset_minutes(
                    Arc::clone(profile.shared_user()),
                    a.offset_minutes,
                    f64::from_bits(a.emd_bits),
                )
            });
            Some(UserAnalysis {
                profile,
                flat: a.flat,
                placement,
            })
        }
    };
    let slot_counts = if user.slot_posts.len() == user.slots.len() {
        user.slot_posts.clone()
    } else {
        // Pre-signed-record snapshot: the per-slot split was not
        // persisted. Any split summing to `posts` yields the identical
        // analysis; park the surplus on the first slot so the refcount
        // invariant holds for whatever retractions come later.
        let mut counts = vec![1u32; user.slots.len()];
        if let Some(first) = counts.first_mut() {
            *first += (user.posts as usize).saturating_sub(user.slots.len()) as u32;
        }
        counts
    };
    Ok(UserAccumulator {
        slots: user.slots.clone(),
        slot_counts,
        hour_counts,
        posts: user.posts as usize,
        analysis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

    /// `(fixture file, record)`: a pure-ingest record (no `retractions`
    /// key on the wire) and a signed one. The checkpoint carries quotes,
    /// control characters and non-ASCII to pin string escaping.
    fn cases() -> Vec<(&'static str, LogBatch)> {
        let deltas = vec![
            ("alice".to_owned(), vec![3_600, 7 * 3_600, -90_000]),
            ("bob \"b\"".to_owned(), vec![i64::MAX, 0]),
        ];
        vec![
            (
                "log-batch-ingest.json",
                LogBatch {
                    source_seq: 7,
                    checkpoint: None,
                    deltas: deltas.clone(),
                    retractions: Vec::new(),
                },
            ),
            (
                "log-batch-signed.json",
                LogBatch {
                    source_seq: u64::MAX,
                    checkpoint: Some("round-9\n\t\u{1}\u{7f}\\ é \u{2028}".to_owned()),
                    deltas,
                    retractions: vec![("alice".to_owned(), vec![3_600])],
                },
            ),
        ]
    }

    #[test]
    #[ignore = "writes the committed fixtures; run manually"]
    fn regenerate_log_batch_fixtures() {
        for (file, batch) in cases() {
            let bytes = encode_json("fixture", &batch).unwrap();
            std::fs::write(format!("{FIXTURES}/{file}"), bytes).unwrap();
        }
    }

    #[test]
    fn hand_written_records_encode_like_their_value_tree() {
        fn tree_bytes<T: Serialize>(x: &T) -> Vec<u8> {
            let mut out = serde::JsonWriter::new();
            x.to_value().write_compact(&mut out);
            out.into_bytes()
        }
        for (file, batch) in cases() {
            assert_eq!(
                encode_json(file, &batch).unwrap(),
                tree_bytes(&batch),
                "{file}"
            );
        }
        for slot_posts in [Vec::new(), vec![2, 1]] {
            let snap = UserSnap {
                id: "u\\1".to_owned(),
                slots: vec![10, 11],
                slot_posts,
                posts: 3,
                analysis: Some(AnalysisSnap {
                    flat: false,
                    placed: true,
                    offset_minutes: -345,
                    emd_bits: 0.25f64.to_bits(),
                }),
            };
            assert_eq!(encode_json("snap", &snap).unwrap(), tree_bytes(&snap));
        }
    }

    #[test]
    fn log_batch_bytes_match_the_fixtures() {
        for (file, batch) in cases() {
            let pinned = std::fs::read(format!("{FIXTURES}/{file}")).expect("committed fixture");
            assert_eq!(
                encode_json("fixture", &batch).unwrap(),
                pinned,
                "{file}: WAL record bytes drifted"
            );
            let back: LogBatch = decode_json("fixture", &pinned).unwrap();
            assert_eq!(back.deltas, batch.deltas);
            assert_eq!(back.retractions, batch.retractions);
            // The live write path encodes a `Batch` to the same bytes.
            fn timestamps(deltas: &[(String, Vec<i64>)]) -> Vec<(&str, Vec<Timestamp>)> {
                deltas
                    .iter()
                    .map(|(u, secs)| {
                        (
                            u.as_str(),
                            secs.iter().map(|&s| Timestamp::from_secs(s)).collect(),
                        )
                    })
                    .collect()
            }
            fn borrow<'a>(
                deltas: &'a [(&'a str, Vec<Timestamp>)],
            ) -> Vec<(&'a str, &'a [Timestamp])> {
                deltas.iter().map(|(u, p)| (*u, p.as_slice())).collect()
            }
            let (ingest, retract) = (timestamps(&batch.deltas), timestamps(&batch.retractions));
            let live = Batch {
                ingest: &borrow(&ingest),
                retract: &borrow(&retract),
                source_seq: batch.source_seq,
                checkpoint: batch.checkpoint.as_deref(),
            };
            assert_eq!(
                encode_batch(&live).unwrap(),
                pinned,
                "{file}: Batch encoding drifted"
            );
        }
    }
}
