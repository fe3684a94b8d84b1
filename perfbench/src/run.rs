//! The serving side of a run: the `crowdtz-serve` child process and the
//! closed-loop connections that drive it, recording every request.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crowdtz_serve::{ClientResponse, HttpClient};

/// The request kinds every serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `POST …/ingest`.
    Ingest,
    /// `POST …/retract`.
    Retract,
    /// `GET …/drift?publish=1`: a fresh consistent cut.
    Publish,
    /// `GET …/snapshot`: the published report's bytes.
    Read,
}

impl Kind {
    /// All kinds, in report order.
    pub const ALL: [Kind; 4] = [Kind::Ingest, Kind::Retract, Kind::Publish, Kind::Read];

    /// Lowercase label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Retract => "retract",
            Kind::Publish => "publish",
            Kind::Read => "read",
        }
    }

    fn method(self) -> &'static str {
        match self {
            Kind::Ingest | Kind::Retract => "POST",
            Kind::Publish | Kind::Read => "GET",
        }
    }
}

/// One request as sent and answered. Times are nanoseconds since the
/// start of the phase that sent it.
#[derive(Debug, Clone)]
pub struct Op {
    /// Generator connection that sent it.
    pub conn: usize,
    /// Tenant index.
    pub tenant: usize,
    /// Request kind.
    pub kind: Kind,
    /// Request target.
    pub path: String,
    /// Request body (empty for GET).
    pub body: Vec<u8>,
    /// Posts carried (ingest/retract).
    pub posts: usize,
    /// When the request was sent.
    pub sent: u64,
    /// When the whole response had been read.
    pub done: u64,
    /// Whether the reply was a correct answer.
    pub ok: bool,
}

/// The exact bytes `HttpClient::request` writes for a request.
pub fn raw_request(kind: Kind, path: &str, host: &str, body: &[u8]) -> Vec<u8> {
    let mut head = format!("{} {path} HTTP/1.1\r\nHost: {host}\r\n", kind.method());
    if kind.method() == "POST" {
        head.push_str(&format!(
            "Content-Length: {}\r\nContent-Type: application/json\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    let mut raw = head.into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// A `crowdtz-serve` child on an ephemeral loopback port. Dropping it
/// kills the process and waits for it.
#[derive(Debug)]
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin` with `workers` accept workers, journaling durable
    /// tenants under `durable_root` when given, and waits for its
    /// listening line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits before announcing itself.
    pub fn spawn(bin: &Path, workers: usize, durable_root: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.arg("127.0.0.1:0")
            .args(["--workers", &workers.to_string()])
            .env_remove("CROWDTZ_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(root) = durable_root {
            cmd.arg("--durable-root").arg(root);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not announce an address: {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL, then reap: no orderly shutdown, no final checkpoint.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One closed-loop generator connection: sends a request, reads the
/// whole reply, records it, and only then sends the next.
#[derive(Debug)]
pub struct Conn {
    client: HttpClient,
    start: Instant,
    /// Index of this connection in the run.
    pub id: usize,
    /// Every request sent, in order.
    pub ops: Vec<Op>,
    /// Descriptions of wrong or failed replies.
    pub errors: Vec<String>,
}

impl Conn {
    /// Connects to `addr`; times are taken relative to `start`.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(addr: SocketAddr, id: usize, start: Instant) -> io::Result<Conn> {
        Ok(Conn {
            client: HttpClient::connect(addr)?,
            start,
            id,
            ops: Vec::new(),
            errors: Vec::new(),
        })
    }

    /// Nanoseconds since the phase start.
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Paces the closed loop: sleeps until `interval` after `since` (a
    /// [`now`](Conn::now) reading), or returns at once when the requests
    /// since then took longer. Missed time is never made up in a burst.
    pub fn pace(&self, since: u64, interval: Duration) {
        let due = since + interval.as_nanos() as u64;
        let now = self.now();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    }

    /// Sends one request and records it. `check` validates the reply and
    /// returns a value the caller needs (an epoch, or 0); a failed check
    /// or a transport error marks the op failed and yields `None`.
    pub fn call(
        &mut self,
        tenant: usize,
        kind: Kind,
        path: String,
        body: Vec<u8>,
        posts: usize,
        check: impl FnOnce(&ClientResponse) -> Result<u64, String>,
    ) -> Option<u64> {
        let sent = self.now();
        let reply = self.client.request(
            kind.method(),
            &path,
            (kind.method() == "POST").then_some(body.as_slice()),
        );
        let done = self.now();
        let value = match reply.map_err(|e| e.to_string()).and_then(|r| check(&r)) {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors.push(format!("{} {path}: {e}", kind.label()));
                None
            }
        };
        self.ops.push(Op {
            conn: self.id,
            tenant,
            kind,
            path,
            body,
            posts,
            sent,
            done,
            ok: value.is_some(),
        });
        value
    }
}

/// A 2xx ack whose `"posts"` field equals `posts`.
pub fn ack_posts(posts: usize) -> impl FnOnce(&ClientResponse) -> Result<u64, String> {
    move |reply| {
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        let got = reply
            .json()
            .ok()
            .and_then(|v| v.field("posts").ok().and_then(serde_json::Value::as_u64));
        match got {
            Some(n) if n as usize == posts => Ok(0),
            other => Err(format!("ack posts {other:?}, expected {posts}")),
        }
    }
}

/// A 2xx drift reply; yields its `"epoch"`.
pub fn published(reply: &ClientResponse) -> Result<u64, String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    reply
        .json()
        .ok()
        .and_then(|v| v.field("epoch").ok().and_then(serde_json::Value::as_u64))
        .ok_or_else(|| "drift reply without an epoch".to_string())
}

/// A 2xx snapshot of epoch `min_epoch` or later; yields its epoch.
pub fn snapshot_since(min_epoch: u64) -> impl FnOnce(&ClientResponse) -> Result<u64, String> {
    move |reply| {
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        match reply
            .header("x-crowdtz-epoch")
            .and_then(|e| e.parse::<u64>().ok())
        {
            Some(epoch) if epoch >= min_epoch => Ok(epoch),
            other => Err(format!("snapshot epoch {other:?}, expected ≥ {min_epoch}")),
        }
    }
}

/// A per-run scratch directory under the checkout, removed on drop.
#[derive(Debug)]
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// Creates `.bench_run/<tag>-<pid>` under the working directory.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn create(tag: &str) -> io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir.canonicalize()?))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
