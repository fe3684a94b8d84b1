//! Black-box integration for `crowdtz-serve` (ISSUE 9): concurrent HTTP
//! clients, multiple tenants, both grids, with and without durability —
//! and the one invariant that matters: the snapshot body that comes back
//! over the wire is **byte-identical** to what an in-process
//! [`ConcurrentStreamingPipeline`] publishes after ingesting the same
//! deltas.
//!
//! Every test runs the same shape: start a server on an ephemeral
//! loopback port, create two tenants on different grids over HTTP, fan
//! the workload out over N client threads (each with its own persistent
//! connection, hence its own per-tenant `IngestWriter` on the server),
//! interleave their batches across both tenants, then publish and
//! compare raw bytes. The engine's determinism guarantee — deltas
//! commute — is what makes the comparison exact for any interleaving
//! the threads produce.

use std::path::PathBuf;
use std::sync::Arc;

use crowdtz::core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline, ZoneGrid};
use crowdtz::serve::{serve, HttpClient, ServeConfig, ServerHandle, ServiceConfig};
use crowdtz::time::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

const USERS_PER_TENANT: usize = 60;
const POSTS_PER_USER: usize = 15;
const MIN_POSTS: usize = 8;
const BATCH_USERS: usize = 10;

/// The two tenants every test creates: name, grid label, grid.
const TENANTS: &[(&str, &str, ZoneGrid)] = &[
    ("midnight-market", "hourly", ZoneGrid::Hourly),
    ("onion-forum", "quarter-hour", ZoneGrid::QuarterHour),
];

/// Per-tenant workload: `(tenant name, [(user, posts)])`.
type TenantWorkload = (String, Vec<(String, Vec<Timestamp>)>);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdtz-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic two-region workload (70% UTC+1, 30% UTC+9), seeded per
/// tenant so the two tenants hold different crowds.
fn synthesize(seed: u64) -> Vec<(String, Vec<Timestamp>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..USERS_PER_TENANT)
        .map(|i| {
            let home_hour: i64 = if i % 10 < 7 { 20 } else { 12 };
            let posts: Vec<Timestamp> = (0..POSTS_PER_USER)
                .map(|p| {
                    let jitter: i64 = rng.gen_range(-2..=2);
                    let hour = (home_hour + jitter).rem_euclid(24);
                    Timestamp::from_secs((p as i64) * 86_400 + hour * 3_600 + (i as i64))
                })
                .collect();
            (format!("u{i:04}"), posts)
        })
        .collect()
}

fn batch_body(chunk: &[(String, Vec<Timestamp>)]) -> serde_json::Value {
    let entries: Vec<serde_json::Value> = chunk
        .iter()
        .map(|(user, posts)| {
            let secs: Vec<i64> = posts.iter().map(|t| t.as_secs()).collect();
            json!({"user": user, "posts": secs})
        })
        .collect();
    json!({ "deltas": entries })
}

/// The reference bytes: one in-process engine, one writer, same deltas.
fn in_process_reference(grid: ZoneGrid, deltas: &[(String, Vec<Timestamp>)]) -> Vec<u8> {
    let engine = ConcurrentStreamingPipeline::new(
        GeolocationPipeline::default()
            .min_posts(MIN_POSTS)
            .shards(4)
            .grid(grid),
    );
    let writer = engine.writer();
    for (user, posts) in deltas {
        let batch = Batch {
            ingest: &[(user.as_str(), posts.as_slice())],
            ..Batch::default()
        };
        writer.apply(&batch).expect("reference ingest");
    }
    let published = engine.publish().expect("reference publish");
    serde_json::to_vec(published.report()).expect("serialize reference")
}

fn start_server(durable_root: Option<PathBuf>) -> ServerHandle {
    let config = ServeConfig {
        workers: 4,
        service: ServiceConfig {
            durable_root,
            crash_after_batches: None,
        },
        ..ServeConfig::default()
    };
    serve(config, None).expect("bind loopback")
}

fn create_tenants(handle: &ServerHandle, durable: bool) {
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for (name, grid, _) in TENANTS {
        let created = client
            .post_json(
                &format!("/v1/tenants/{name}"),
                &json!({
                    "grid": *grid,
                    "min_posts": MIN_POSTS,
                    "shards": 4,
                    "durable": durable,
                }),
            )
            .expect("create tenant");
        assert_eq!(created.status, 201, "create {name}");
        let body = created.json().expect("create body");
        assert_eq!(
            body.field("durable").unwrap(),
            &json!(durable),
            "durable flag for {name}"
        );
    }
}

/// Fans the per-tenant batch lists out over `clients` threads. Each
/// thread owns one connection and posts its share of batches to *both*
/// tenants, interleaved, so server-side writers see mixed traffic.
fn ingest_concurrently(handle: &ServerHandle, clients: usize, workloads: &[TenantWorkload]) {
    let addr = handle.addr();
    let workloads = Arc::new(
        workloads
            .iter()
            .map(|(name, deltas)| {
                let batches: Vec<serde_json::Value> =
                    deltas.chunks(BATCH_USERS).map(batch_body).collect();
                (name.clone(), batches)
            })
            .collect::<Vec<_>>(),
    );
    std::thread::scope(|scope| {
        for client_idx in 0..clients {
            let workloads = Arc::clone(&workloads);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connect");
                let mut applied = 0u64;
                let batch_count = workloads.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
                for batch_idx in (client_idx..batch_count).step_by(clients) {
                    // Interleave: this batch index to every tenant that
                    // has it, back to back on the same connection.
                    for (name, batches) in workloads.iter() {
                        let Some(body) = batches.get(batch_idx) else {
                            continue;
                        };
                        let response = client
                            .post_json(&format!("/v1/tenants/{name}/ingest"), body)
                            .expect("ingest request");
                        assert_eq!(response.status, 200, "ingest into {name}");
                        let reply = response.json().expect("ingest reply");
                        let watermark = reply.field("watermark").unwrap().as_u64().unwrap();
                        assert!(
                            watermark > 0,
                            "writer watermark must advance on every batch"
                        );
                        applied += 1;
                    }
                }
                applied
            });
        }
    });
}

/// Publishes each tenant over HTTP and pins the body bytes against the
/// in-process reference; re-reads from the published cell to prove the
/// wait-free path serves the same Arc.
fn assert_snapshots_match(handle: &ServerHandle, workloads: &[TenantWorkload], clients: usize) {
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for ((name, deltas), (_, _, grid)) in workloads.iter().zip(TENANTS) {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("publish snapshot");
        assert_eq!(published.status, 200, "publish {name}");
        let expected = in_process_reference(*grid, deltas);
        assert_eq!(
            published.body, expected,
            "HTTP snapshot of {name} diverged from the in-process engine"
        );
        assert_eq!(
            published.header("x-crowdtz-posts"),
            Some((deltas.len() * POSTS_PER_USER).to_string().as_str()),
            "post count at the cut for {name}"
        );
        // One writer per ingesting connection, plus tenant-creation and
        // snapshot connections that never wrote.
        let watermarks: Vec<u64> = published
            .header("x-crowdtz-watermarks")
            .expect("watermark header")
            .split(',')
            .map(|w| w.parse().unwrap())
            .collect();
        let writers_used = watermarks.iter().filter(|&&w| w > 0).count();
        assert_eq!(
            writers_used,
            clients.min(deltas.chunks(BATCH_USERS).len()),
            "every ingesting connection shows as one watermark for {name}"
        );

        let replay = client
            .get(&format!("/v1/tenants/{name}/snapshot"))
            .expect("cached snapshot");
        assert_eq!(replay.status, 200);
        assert_eq!(
            replay.body, published.body,
            "wait-free read of {name} returned different bytes"
        );
        assert_eq!(
            replay.header("x-crowdtz-epoch"),
            published.header("x-crowdtz-epoch"),
            "cached read must serve the same epoch"
        );
    }
}

fn exercise(clients: usize, durable: bool, tag: &str) {
    let durable_root = durable.then(|| tmp_dir(tag));
    let handle = start_server(durable_root.clone());
    create_tenants(&handle, durable);
    let workloads: Vec<TenantWorkload> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| ((*name).to_string(), synthesize(1000 + i as u64)))
        .collect();
    ingest_concurrently(&handle, clients, &workloads);
    assert_snapshots_match(&handle, &workloads, clients);
    let checkpointed = handle.shutdown().expect("shutdown");
    if durable {
        assert_eq!(checkpointed, TENANTS.len(), "both tenants checkpointed");
        let root = durable_root.unwrap();
        for (name, _, _) in TENANTS {
            assert!(
                root.join(name).is_dir(),
                "durable tenant {name} journals under its own directory"
            );
        }
        let _ = std::fs::remove_dir_all(root);
    } else {
        assert_eq!(checkpointed, 0, "nothing durable to checkpoint");
    }
}

#[test]
fn two_clients_two_tenants_both_grids() {
    exercise(2, false, "2c");
}

#[test]
fn four_clients_two_tenants_both_grids() {
    exercise(4, false, "4c");
}

#[test]
fn two_clients_durable_tenants() {
    exercise(2, true, "2c-durable");
}

#[test]
fn four_clients_durable_tenants() {
    exercise(4, true, "4c-durable");
}

/// A windowed tenant over a real socket (ISSUE 10): ingest a migrating
/// crowd round by round, retract over HTTP, publish through the sliding
/// window, and read the drift trajectory back — the snapshot bytes pin
/// against an in-process [`WindowedPipeline`] driven identically, and
/// the trajectory flags the migration within one bucket of the truth.
#[test]
fn windowed_tenant_tracks_a_migration_over_the_wire() {
    use crowdtz::core::{WindowConfig, WindowedPipeline};
    use crowdtz::synth::MigrationSpec;
    use crowdtz::time::RegionDb;

    let db = RegionDb::extended();
    let spec = MigrationSpec::new(
        db.get(&"new-york".into()).unwrap().clone(),
        db.get(&"china".into()).unwrap().clone(),
    )
    .users(24)
    .rounds(8)
    .switch_round(4)
    .round_days(7)
    .seed(11)
    .posts_per_day(3.0);

    // The last round's posts by the first user — retracted over HTTP
    // before the final publish, and from the reference identically.
    let retract: Vec<(String, Vec<Timestamp>)> = {
        let posts: Vec<Timestamp> = spec
            .round_posts(spec.round_count() - 1)
            .into_iter()
            .filter(|(user, _)| user == "mig-u0")
            .map(|(_, ts)| ts)
            .collect();
        assert!(!posts.is_empty(), "fixture user posted in the last round");
        vec![("mig-u0".to_owned(), posts)]
    };
    let grouped = |round: usize| -> Vec<(String, Vec<Timestamp>)> {
        let mut by_user: Vec<(String, Vec<Timestamp>)> = Vec::new();
        for (user, ts) in spec.round_posts(round) {
            match by_user.iter_mut().find(|(u, _)| *u == user) {
                Some((_, posts)) => posts.push(ts),
                None => by_user.push((user, vec![ts])),
            }
        }
        by_user
    };

    let handle = start_server(None);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let created = client
        .post_json(
            "/v1/tenants/migrating-market",
            &json!({
                "min_posts": 1,
                "threads": 2,
                "window": json!({
                    "bucket_secs": spec.round_secs(),
                    "window_buckets": 2,
                    "drift_threshold": 1.2,
                    "drift_history": 3,
                }),
            }),
        )
        .expect("create windowed tenant");
    assert_eq!(created.status, 201);
    assert_eq!(
        created.json().unwrap().field("windowed").unwrap(),
        &json!(true),
        "creation reports the window"
    );

    // The in-process twin, driven through the same sequence of calls.
    let reference = WindowedPipeline::new(
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(1).threads(2)),
        WindowConfig {
            bucket_secs: spec.round_secs(),
            window_buckets: 2,
            drift_threshold: 1.2,
            drift_history: 3,
        },
        None,
    );
    let ref_writer = reference.engine().writer();

    let mut last_http_body = Vec::new();
    for round in 0..spec.round_count() {
        let batch = grouped(round);
        let response = client
            .post_json("/v1/tenants/migrating-market/ingest", &batch_body(&batch))
            .expect("ingest round");
        assert_eq!(response.status, 200, "ingest round {round}");
        let flat: Vec<(&str, Timestamp)> = batch
            .iter()
            .flat_map(|(user, posts)| posts.iter().map(move |&ts| (user.as_str(), ts)))
            .collect();
        reference.ingest_posts(&ref_writer, &flat).unwrap();

        if round == spec.round_count() - 1 {
            let retracted = client
                .post_json(
                    "/v1/tenants/migrating-market/retract",
                    &batch_body(&retract),
                )
                .expect("retract over the wire");
            assert_eq!(retracted.status, 200);
            assert_eq!(
                retracted
                    .json()
                    .unwrap()
                    .field("posts")
                    .unwrap()
                    .as_u64()
                    .unwrap(),
                retract[0].1.len() as u64,
                "every retraction target was live"
            );
            let flat: Vec<(&str, Timestamp)> = retract
                .iter()
                .flat_map(|(user, posts)| posts.iter().map(move |&ts| (user.as_str(), ts)))
                .collect();
            reference.retract_posts(&ref_writer, &flat).unwrap();
        }

        let published = client
            .get("/v1/tenants/migrating-market/snapshot?publish=1")
            .expect("publish round");
        assert_eq!(published.status, 200, "publish round {round}");
        last_http_body = published.body;
        reference.publish().unwrap();
    }
    assert_eq!(
        last_http_body,
        serde_json::to_vec(reference.engine().snapshot().unwrap().report()).unwrap(),
        "windowed snapshot over the wire diverged from the in-process twin"
    );

    let drift = client
        .get("/v1/tenants/migrating-market/drift?trajectory=1")
        .expect("drift trajectory");
    assert_eq!(drift.status, 200);
    let body = drift.json().expect("trajectory body");
    assert_eq!(
        body.field("window_buckets").unwrap().as_u64().unwrap(),
        2,
        "window config echoed"
    );
    assert!(
        body.field("changepoints").unwrap().as_u64().unwrap() >= 1,
        "the migration must be flagged"
    );
    let rows = match body.field("trajectory").unwrap() {
        serde_json::Value::Array(rows) => rows,
        other => panic!("trajectory must be an array, got {other:?}"),
    };
    assert_eq!(rows.len(), spec.round_count(), "one point per publish");
    let truth = spec
        .round_start(spec.ground_truth_round())
        .days_since_epoch()
        * 86_400
        / spec.round_secs();
    let first_flagged = rows
        .iter()
        .find(|row| row.field("changepoint").unwrap() == &json!(true))
        .expect("a flagged trajectory row");
    let bucket = first_flagged.field("bucket").unwrap().as_i64().unwrap();
    assert!(
        (bucket - truth).abs() <= 1,
        "wire trajectory flagged bucket {bucket}, switch at {truth}"
    );
    drop(client);
    handle.shutdown().expect("shutdown");
}

/// A durable tenant warm-restarts: shut the server down, start a new
/// one over the same root, re-create the tenant, and the recovered
/// engine publishes the same bytes without any re-ingest.
#[test]
fn durable_tenant_warm_restarts_into_identical_bytes() {
    let root = tmp_dir("restart");
    let handle = start_server(Some(root.clone()));
    create_tenants(&handle, true);
    let workloads: Vec<TenantWorkload> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| ((*name).to_string(), synthesize(2000 + i as u64)))
        .collect();
    ingest_concurrently(&handle, 2, &workloads);

    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let mut first: Vec<Vec<u8>> = Vec::new();
    for (name, _) in &workloads {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("first publish");
        assert_eq!(published.status, 200);
        first.push(published.body);
    }
    drop(client);
    handle.shutdown().expect("first shutdown");

    let handle = start_server(Some(root.clone()));
    create_tenants(&handle, true); // same names: recovered, not empty
    let mut client = HttpClient::connect(handle.addr()).expect("reconnect");
    for ((name, _), before) in workloads.iter().zip(&first) {
        let published = client
            .get(&format!("/v1/tenants/{name}/snapshot?publish=1"))
            .expect("second publish");
        assert_eq!(published.status, 200, "publish {name} after restart");
        assert_eq!(
            &published.body, before,
            "warm-restarted {name} must publish identical bytes"
        );
    }
    drop(client);
    handle.shutdown().expect("second shutdown");
    let _ = std::fs::remove_dir_all(root);
}
