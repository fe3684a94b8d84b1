//! The output oracle: the paper's batch analysis over exactly the posts
//! the generator knows survive (ingested − retracted − expired).
//!
//! The service promises that `GET …/snapshot` returns
//! `serde_json::to_vec` of the report an engine publishes, and the
//! engine promises that report equals `GeolocationPipeline::analyze` of
//! the surviving posts. So the expected bytes need no server at all.

use std::sync::Arc;

use crowdtz_core::{GeolocationPipeline, ZoneGrid};
use crowdtz_time::{Timestamp, TraceSet};

use crate::gen::Crowd;

/// One tenant's engine configuration, as sent in its create body.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (`[A-Za-z0-9._-]`).
    pub name: String,
    /// Minimum posts before a user enters the analysis.
    pub min_posts: usize,
    /// Accumulator shards.
    pub shards: usize,
    /// Engine worker threads for refresh and fit.
    pub threads: usize,
    /// Journals to the server's durable root.
    pub durable: bool,
    /// `(bucket_secs, window_buckets)` for a sliding-window tenant.
    pub window: Option<(i64, usize)>,
}

impl TenantSpec {
    /// The `POST /v1/tenants/{name}` body.
    pub fn create_body(&self) -> Vec<u8> {
        let mut spec = serde_json::json!({
            "grid": 24,
            "min_posts": self.min_posts,
            "shards": self.shards,
            "threads": self.threads,
            "durable": self.durable,
        });
        if let (Some((bucket_secs, buckets)), serde_json::Value::Object(fields)) =
            (self.window, &mut spec)
        {
            fields.push((
                "window".to_string(),
                serde_json::json!({"bucket_secs": bucket_secs, "window_buckets": buckets}),
            ));
        }
        serde_json::to_vec(&spec).expect("tenant config encodes")
    }

    /// The batch pipeline the server builds for this config.
    pub fn pipeline(&self) -> GeolocationPipeline {
        GeolocationPipeline::default()
            .grid(ZoneGrid::Hourly)
            .min_posts(self.min_posts)
            .shards(self.shards)
            .threads(self.threads)
    }
}

/// Expected snapshot bytes for `spec` over the surviving posts, given as
/// `(crowd, [(user index, ts)])` groups. `observer` (traced runs only)
/// records the batch pipeline's own stage spans.
pub fn expected(
    spec: &TenantSpec,
    survivors: &[(&Crowd, &[(u32, i64)])],
    observer: Option<&Arc<crowdtz_obs::Observer>>,
) -> Vec<u8> {
    let mut traces = TraceSet::new();
    for (crowd, posts) in survivors {
        for &(user, ts) in *posts {
            traces.record(&crowd.users[user as usize].id, Timestamp::from_secs(ts));
        }
    }
    let mut pipeline = spec.pipeline();
    if let Some(observer) = observer {
        pipeline = pipeline.observer(Arc::clone(observer));
    }
    match pipeline.analyze(&traces) {
        Ok(report) => serde_json::to_vec(&report).expect("report encodes"),
        // An empty crowd has no report; the server answers 409 there.
        Err(e) => format!("no report: {e}").into_bytes(),
    }
}

/// Compares served bytes with the oracle's; `Err` names the tenant and
/// the first differing byte.
pub fn check(tenant: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{tenant}: snapshot differs from the oracle at byte {at} (expected {} bytes, got {})",
        expected.len(),
        got.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn spec() -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            min_posts: 5,
            shards: 2,
            threads: 1,
            durable: false,
            window: None,
        }
    }

    #[test]
    fn oracle_rejects_a_corrupted_report() {
        let mut rng = gen::rng(7, 0);
        let mut crowd = Crowd::new(&mut rng, "u", 40, 2);
        let posts: Vec<(u32, i64)> = (0..40u32)
            .flat_map(|u| (0..8).map(move |_| u))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|u| (u, crowd.next_post(&mut rng, u as usize)))
            .collect();
        let good = expected(&spec(), &[(&crowd, &posts)], None);
        assert!(check("t", &good, &good).is_ok());
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(check("t", &good, &flipped).is_err());
        assert!(check("t", &good, &good[..good.len() - 1]).is_err());
        // One lost post is a different report, not a rounding detail.
        let fewer = expected(&spec(), &[(&crowd, &posts[1..])], None);
        assert!(check("t", &good, &fewer).is_err());
    }
}
