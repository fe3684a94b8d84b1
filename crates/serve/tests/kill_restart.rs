//! Kill-and-restart durability for the real `crowdtz-serve` binary
//! (ISSUE 9, satellite): SIGABRT the process mid-ingest via
//! `--crash-after`, restart over the same `--durable-root`, and the
//! warm-recovered tenant serves byte-identical analysis.
//!
//! This is the only suite that exercises the *process* rather than an
//! in-process server: it spawns `CARGO_BIN_EXE_crowdtz-serve`, scrapes
//! the flushed `listening on` line for the ephemeral port, and speaks
//! plain HTTP to it. The crash point is deterministic — batch `N+1`
//! aborts before the write-ahead log or any shard sees it — so exactly
//! the acknowledged prefix survives, and a monitor-style retry of the
//! unacknowledged batch lands exactly once.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use crowdtz_core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline};
use crowdtz_serve::HttpClient;
use crowdtz_time::Timestamp;
use serde_json::json;

const USERS: usize = 10;
const POSTS_PER_USER: i64 = 12;
const USERS_PER_BATCH: usize = 2;
const MIN_POSTS: usize = 3;
/// Acknowledged prefix: requests 1..=3 succeed, request 4 aborts.
const CRASH_AFTER: u64 = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crowdtz-kill-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic placeable crowd, chunked into ingest batches.
fn batches() -> Vec<Vec<(String, Vec<Timestamp>)>> {
    let users: Vec<(String, Vec<Timestamp>)> = (0..USERS as i64)
        .map(|u| {
            let posts = (0..POSTS_PER_USER)
                .map(|p| {
                    let hour = (20 + (u * 5 + p * 3) % 4 - 2).rem_euclid(24);
                    Timestamp::from_secs(p * 86_400 + hour * 3_600 + u)
                })
                .collect();
            (format!("user{u:02}"), posts)
        })
        .collect();
    users.chunks(USERS_PER_BATCH).map(<[_]>::to_vec).collect()
}

fn batch_body(batch: &[(String, Vec<Timestamp>)]) -> serde_json::Value {
    let entries: Vec<serde_json::Value> = batch
        .iter()
        .map(|(user, posts)| {
            let secs: Vec<i64> = posts.iter().map(|t| t.as_secs()).collect();
            json!({"user": user, "posts": secs})
        })
        .collect();
    json!({ "deltas": entries })
}

/// The reference bytes for a crowd fed batches `0..upto`.
fn reference(upto: usize) -> Vec<u8> {
    let engine =
        ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(MIN_POSTS));
    let writer = engine.writer();
    for batch in &batches()[..upto] {
        for (user, posts) in batch {
            let batch = Batch {
                ingest: &[(user.as_str(), posts.as_slice())],
                ..Batch::default()
            };
            writer.apply(&batch).expect("reference ingest");
        }
    }
    serde_json::to_vec(engine.publish().expect("reference publish").report())
        .expect("serialize reference")
}

/// Spawns the real binary and scrapes its flushed listening line.
fn spawn_server(root: &Path, crash_after: Option<u64>) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crowdtz-serve"));
    cmd.arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .arg("--durable-root")
        .arg(root)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(n) = crash_after {
        cmd.arg("--crash-after").arg(n.to_string());
    }
    let mut child = cmd.spawn().expect("spawn crowdtz-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("crowdtz-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .parse()
        .expect("listening address");
    (child, addr)
}

fn create_tenant(client: &mut HttpClient) {
    let created = client
        .post_json(
            "/v1/tenants/market",
            &json!({"grid": "hourly", "min_posts": MIN_POSTS, "durable": true}),
        )
        .expect("create tenant");
    assert_eq!(created.status, 201, "create durable tenant");
}

#[test]
fn sigabrt_mid_ingest_recovers_the_acknowledged_prefix_exactly() {
    let root = tmp_dir("abort");
    let all = batches();

    // Run 1: crash on the (CRASH_AFTER+1)-th ingest request.
    let (mut child, addr) = spawn_server(&root, Some(CRASH_AFTER));
    let mut client = HttpClient::connect(addr).expect("connect");
    create_tenant(&mut client);
    for (i, batch) in all.iter().take(CRASH_AFTER as usize).enumerate() {
        let reply = client
            .post_json("/v1/tenants/market/ingest", &batch_body(batch))
            .expect("acknowledged ingest");
        assert_eq!(reply.status, 200, "batch {i} must be acknowledged");
    }
    // The next batch trips the crash point: the process SIGABRTs before
    // journaling it, so this request gets no acknowledgement.
    let doomed = client.post_json(
        "/v1/tenants/market/ingest",
        &batch_body(&all[CRASH_AFTER as usize]),
    );
    assert!(doomed.is_err(), "the crashing batch must never be acked");
    let status = child.wait().expect("reap crashed server");
    assert!(!status.success(), "server must die, not exit cleanly");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(status.signal(), Some(libc_sigabrt()), "died of SIGABRT");
    }

    // Run 2: restart over the same root. Re-creating the tenant warm-
    // recovers it from snapshot + log — no re-ingest — and it publishes
    // exactly the acknowledged prefix.
    let (mut child, addr) = spawn_server(&root, None);
    let mut client = HttpClient::connect(addr).expect("reconnect");
    create_tenant(&mut client);
    let recovered = client
        .get("/v1/tenants/market/snapshot?publish=1")
        .expect("publish after recovery");
    assert_eq!(recovered.status, 200);
    assert_eq!(
        recovered.body,
        reference(CRASH_AFTER as usize),
        "recovered snapshot must equal an uninterrupted run over the acknowledged prefix"
    );
    assert_eq!(
        recovered.header("x-crowdtz-posts"),
        Some(
            (CRASH_AFTER as usize * USERS_PER_BATCH * POSTS_PER_USER as usize)
                .to_string()
                .as_str()
        ),
        "only acknowledged posts survive the crash"
    );

    // A monitor retries the unacknowledged batch and sends the rest:
    // each lands exactly once, converging on the full-corpus bytes.
    for batch in &all[CRASH_AFTER as usize..] {
        let reply = client
            .post_json("/v1/tenants/market/ingest", &batch_body(batch))
            .expect("retry ingest");
        assert_eq!(reply.status, 200);
    }
    let full = client
        .get("/v1/tenants/market/snapshot?publish=1")
        .expect("publish full corpus");
    assert_eq!(full.status, 200);
    assert_eq!(
        full.body,
        reference(all.len()),
        "retried batches must not double-apply"
    );
    assert_eq!(
        full.header("x-crowdtz-posts"),
        Some((USERS * POSTS_PER_USER as usize).to_string().as_str()),
        "post count after retry matches the corpus exactly"
    );

    child.kill().expect("stop second server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(root);
}

/// SIGABRT's number without linking libc: POSIX fixes it at 6.
#[cfg(unix)]
fn libc_sigabrt() -> i32 {
    6
}
