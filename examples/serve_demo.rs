//! Serving demo: the analysis engine as a multi-tenant HTTP service.
//!
//! ```text
//! cargo run --release --example serve_demo [users]
//! ```
//!
//! Starts `crowdtz-serve` in-process on an ephemeral loopback port,
//! creates two tenants over HTTP — a quarter-hour-grid market and an
//! hourly-grid forum — and pushes a synthetic two-region crowd through
//! `POST /v1/tenants/{forum}/ingest` exactly as a monitor fleet would.
//! Then it pulls `…/snapshot?publish=1` and `…/drift` back off the wire
//! and proves the service invariant end to end: the snapshot body is
//! byte-identical to what an in-process engine publishes after the same
//! deltas.

use crowdtz::core::{
    Batch, ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline, ZoneGrid,
};
use crowdtz::serve::{serve, HttpClient, ServeConfig};
use crowdtz::time::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

/// Synthesizes `users` deltas from the reference generic profile: 60%
/// at UTC+9, 40% at UTC−3, 30 posts each.
fn synthesize(users: usize, seed: u64) -> Vec<(String, Vec<Timestamp>)> {
    let generic = GenericProfile::reference();
    let regions = [(9i32, 6usize), (-3, 4)];
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
    (0..users)
        .map(|i| {
            let table = &tables[usize::from(i % 10 >= regions[0].1)];
            let total = table[23];
            let posts: Vec<Timestamp> = (0..30)
                .map(|day: i64| {
                    let r = rng.gen_range(0..total);
                    let hour = table.iter().position(|&c| r < c).unwrap_or(23);
                    Timestamp::from_secs(day * 86_400 + hour as i64 * 3_600)
                })
                .collect();
            (format!("u{i:05}"), posts)
        })
        .collect()
}

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("users must be an integer"))
        .unwrap_or(400);

    let handle = serve(ServeConfig::default(), None).expect("bind loopback");
    println!("crowdtz-serve on http://{}", handle.addr());
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    // Two tenants, different grids — fully isolated engines.
    for (forum, grid) in [
        ("midnight-market", "quarter-hour"),
        ("onion-forum", "hourly"),
    ] {
        let created = client
            .post_json(
                &format!("/v1/tenants/{forum}"),
                &json!({"grid": grid, "min_posts": 10}),
            )
            .expect("create tenant");
        assert_eq!(created.status, 201, "create {forum}");
        println!("created tenant {forum} (grid {grid})");
    }

    println!("synthesizing {users} users (60% UTC+9, 40% UTC-3)…");
    let deltas = synthesize(users, 42);

    // Ingest in monitor-sized batches of 50 users.
    for chunk in deltas.chunks(50) {
        let batch: Vec<serde_json::Value> = chunk
            .iter()
            .map(|(user, posts)| {
                let secs: Vec<i64> = posts.iter().map(|t| t.as_secs()).collect();
                json!({"user": user, "posts": secs})
            })
            .collect();
        let body = json!({ "deltas": batch });
        for forum in ["midnight-market", "onion-forum"] {
            let r = client
                .post_json(&format!("/v1/tenants/{forum}/ingest"), &body)
                .expect("ingest");
            assert_eq!(r.status, 200, "ingest into {forum}");
        }
    }

    // Pull the analysis back off the wire.
    let snapshot = client
        .get("/v1/tenants/midnight-market/snapshot?publish=1")
        .expect("snapshot");
    assert_eq!(snapshot.status, 200);
    println!(
        "published epoch {} covering {} posts",
        snapshot.header("x-crowdtz-epoch").unwrap_or("?"),
        snapshot.header("x-crowdtz-posts").unwrap_or("?"),
    );

    let drift = client
        .get("/v1/tenants/midnight-market/drift?nonzero=1&top=5")
        .expect("drift");
    let drift = drift.json().expect("drift json");
    println!("top zones on the quarter-hour grid:");
    if let serde_json::Value::Array(zones) = drift.field("zones").expect("zones") {
        for zone in zones {
            let minutes = zone.field("offset_minutes").unwrap().as_i64().unwrap();
            let fraction = zone.field("fraction").unwrap().as_f64().unwrap();
            println!(
                "  UTC{:+03}:{:02}  {:>5.1}% of the crowd",
                minutes / 60,
                (minutes % 60).abs(),
                fraction * 100.0
            );
        }
    }

    // The invariant: the HTTP body equals an in-process engine's bytes.
    let engine = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default()
            .min_posts(10)
            .grid(ZoneGrid::QuarterHour),
    );
    let writer = engine.writer();
    for (user, posts) in &deltas {
        let batch = Batch {
            ingest: &[(user.as_str(), posts.as_slice())],
            ..Batch::default()
        };
        writer.apply(&batch).expect("in-process ingest");
    }
    let local = engine.publish().expect("in-process publish");
    let local_bytes = serde_json::to_vec(local.report()).expect("serialize");
    assert_eq!(
        snapshot.body, local_bytes,
        "HTTP snapshot diverged from the in-process engine"
    );
    println!(
        "byte-identity holds: {} bytes over HTTP == in-process publish",
        snapshot.body.len()
    );

    let metrics = client.get("/metrics").expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    for line in text.lines().filter(|l| {
        l.starts_with("crowdtz_serve_requests_total") || l.starts_with("crowdtz_serve_bytes")
    }) {
        println!("  {line}");
    }
    drop(client);
    handle.shutdown().expect("shutdown");
}
