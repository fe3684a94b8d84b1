//! The traced run: the untraced run's requests replayed in-process, on
//! one thread.
//!
//! Each request is parsed by the server's HTTP layer
//! (`http::read_request`), answered by a real in-process
//! `AnalysisService::handle` and written by `Response::write_to`, each
//! call in a span the benchmark opens. The service's engines cannot be
//! timed from outside `handle`, so every op's engine work is then
//! repeated on a twin engine per tenant, built the way the service builds
//! its own and fed the same ops, so its state is the service's state. The
//! twin's calls (`IngestWriter`, `WindowedPipeline`, publish, snapshot,
//! the report encoding) are timed in spans nested under that op's
//! `service.handle` span; its durable store is timed through a `Vfs`
//! wrapping `RealVfs`; the program's existing spans
//! (`streaming.snapshot`, `streaming.refresh`, `streaming.fit`) are read
//! back from the twin's observer. A layer's self time is its span's
//! duration minus its children's, so the service's self time is `handle`
//! minus the engine work the twin measured for the same op.
//!
//! What the single-threaded replay cannot see — socket I/O, queueing
//! behind the other connection, lock waits under contention — is the
//! remainder `server.socket_us`: the untraced latency minus the traced
//! op time.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crowdtz_core::{ConcurrentStreamingPipeline, IngestWriter, WindowConfig, WindowedPipeline};
use crowdtz_obs::{LogLevel, Observer};
use crowdtz_serve::http::read_request;
use crowdtz_serve::{AnalysisService, ConnState, Request, ServiceConfig, DEFAULT_MAX_BODY_BYTES};
use crowdtz_store::{RealVfs, Vfs, VfsResult};
use crowdtz_time::Timestamp;
use serde_json::{json, Value};

use crate::report::Figure;
use crate::run::{raw_request, Kind, Op};
use crate::workloads::Outcome;

/// Largest share of a traced op its glue (benchmark code between layer
/// calls) may take, and largest amount by which the traced layers may
/// exceed the untraced latency, for the table to reconcile.
pub const GLUE_BOUND_PCT: f64 = 5.0;
/// See [`GLUE_BOUND_PCT`].
pub const OVERSHOOT_BOUND_PCT: f64 = 10.0;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: usize,
    bytes: u64,
}

/// In-memory span recorder, written out when the run ends.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    on: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            bytes: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    fn exit(&mut self, id: Option<usize>, bytes: u64) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
            self.spans[id].bytes = bytes;
            self.stack.pop();
        }
    }
}

type Shared = Arc<Mutex<Tracer>>;

fn lock(tracer: &Shared) -> MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn enter(tracer: &Shared, name: &'static str) -> Option<usize> {
    lock(tracer).enter(name)
}

fn exit(tracer: &Shared, id: Option<usize>) {
    lock(tracer).exit(id, 0);
}

/// The durable store's file operations, each in a `store.*` span.
#[derive(Debug)]
struct TimingVfs {
    inner: RealVfs,
    tracer: Shared,
}

impl TimingVfs {
    fn timed<T>(&self, name: &'static str, bytes: usize, f: impl FnOnce() -> T) -> T {
        let id = enter(&self.tracer, name);
        let result = f();
        lock(&self.tracer).exit(id, bytes as u64);
        result
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> VfsResult<Vec<u8>> {
        self.timed("store.read", 0, || self.inner.read(path))
    }
    fn write(&self, path: &Path, data: &[u8]) -> VfsResult<()> {
        self.timed("store.write", data.len(), || self.inner.write(path, data))
    }
    fn append(&self, path: &Path, data: &[u8]) -> VfsResult<()> {
        self.timed("store.append", data.len(), || self.inner.append(path, data))
    }
    fn sync(&self, path: &Path) -> VfsResult<()> {
        self.timed("store.sync", 0, || self.inner.sync(path))
    }
    fn sync_dir(&self, dir: &Path) -> VfsResult<()> {
        self.timed("store.sync", 0, || self.inner.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> VfsResult<()> {
        self.timed("store.rename", 0, || self.inner.rename(from, to))
    }
    fn remove(&self, path: &Path) -> VfsResult<()> {
        self.timed("store.remove", 0, || self.inner.remove(path))
    }
    fn truncate(&self, path: &Path, len: u64) -> VfsResult<()> {
        self.timed("store.truncate", 0, || self.inner.truncate(path, len))
    }
    fn list(&self, dir: &Path) -> VfsResult<Vec<String>> {
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn create_dir_all(&self, dir: &Path) -> VfsResult<()> {
        self.inner.create_dir_all(dir)
    }
}

/// One tenant's twin engine: built as `TenantRegistry::create` builds
/// the service's, but journaling through a [`TimingVfs`].
struct Engine {
    name: String,
    engine: ConcurrentStreamingPipeline,
    window: Option<WindowedPipeline>,
}

/// Per-run counts gathered outside the spans.
#[derive(Debug, Default)]
struct Counts {
    bytes_in: usize,
    bytes_out: usize,
    posts: usize,
    report_bytes: usize,
    retracted: usize,
    dirty: usize,
    pending: usize,
    placements: u64,
    components: usize,
    iterations: usize,
}

/// What the traced run reports.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer figures.
    pub figures: Vec<Figure>,
    /// The reconciliation table, for the result record.
    pub detail: Value,
    /// Human-readable reconciliation table.
    pub table: String,
    /// Final-state oracle and reconciliation checks made and failed.
    pub checks: usize,
    /// See [`Replay::checks`].
    pub failures: usize,
    /// Oracle mismatches, reconciliation breaches and replay failures.
    pub errors: Vec<String>,
}

/// The posts an ingest or retract body carries: the twin engine's input.
/// Decoded outside every span; the service's own decoding is timed inside
/// `AnalysisService::handle`.
fn posts_of(body: &[u8]) -> Vec<(String, Timestamp)> {
    let Ok(value) = serde_json::from_slice::<Value>(body) else {
        return Vec::new();
    };
    let Ok(Value::Array(entries)) = value.field("deltas") else {
        return Vec::new();
    };
    let mut posts = Vec::new();
    for entry in entries {
        let user = entry.field("user").ok().and_then(Value::as_str);
        if let (Some(user), Ok(Value::Array(times))) = (user, entry.field("posts")) {
            let times = times.iter().filter_map(Value::as_i64);
            posts.extend(times.map(|ts| (user.to_string(), Timestamp::from_secs(ts))));
        }
    }
    posts
}

/// A request as `read_request` would parse it, for the calls outside the
/// timed ops (tenant creation, the final oracle cut).
fn request(method: &str, path: &str, query: &[(&str, &str)], body: Vec<u8>) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body,
        close: false,
        wire_bytes: 0,
    }
}

struct Replayer {
    tracer: Shared,
    /// The twin engines' observer.
    observer: Arc<Observer>,
    /// Observer span times plus this give tracer times.
    observer_offset: u64,
    /// The service under test, answering every request.
    service: AnalysisService,
    /// The service's per-connection state, by generator connection.
    conns: HashMap<usize, ConnState>,
    /// The twin engines, by tenant index.
    engines: Vec<Engine>,
    writers: HashMap<(usize, usize), IngestWriter>,
    counts: Counts,
    /// Replay failures and answers that were not 2xx.
    errors: Vec<String>,
}

impl Replayer {
    /// Answers `op` through the server's HTTP layer and the service, then
    /// repeats its engine work on the twin.
    fn apply(&mut self, op: &Op) {
        let tracer = Arc::clone(&self.tracer);
        let raw = raw_request(op.kind, &op.path, "127.0.0.1", &op.body);
        let conn = self.conns.entry(op.conn).or_default();
        let root = {
            let mut t = lock(&tracer);
            t.op = t.spans.len();
            t.enter(match op.kind {
                Kind::Ingest => "op.ingest",
                Kind::Retract => "op.retract",
                Kind::Publish => "op.publish",
                Kind::Read => "op.read",
            })
        };
        let id = enter(&tracer, "http.parse");
        let request = read_request(&mut &raw[..], DEFAULT_MAX_BODY_BYTES);
        exit(&tracer, id);
        let Ok(request) = request else {
            exit(&tracer, root);
            self.errors
                .push(format!("replay: unparseable request {}", op.path));
            return;
        };
        let handle = enter(&tracer, "service.handle");
        let (response, _) = self.service.handle(&request, conn);
        exit(&tracer, handle);
        let id = enter(&tracer, "http.write");
        let mut wire = Vec::new();
        let _ = response.write_to(&mut wire, false);
        exit(&tracer, id);
        exit(&tracer, root);

        // Bookkeeping, outside every span.
        self.counts.bytes_in += raw.len();
        self.counts.bytes_out += wire.len();
        if op.kind == Kind::Read {
            self.counts.report_bytes += response.body.len();
        }
        if response.status / 100 != 2 {
            self.errors.push(format!(
                "replay: {} {} answered {}",
                op.kind.label(),
                op.path,
                response.status
            ));
        }
        self.twin(op, handle);
    }

    /// Repeats `op`'s engine work on the twin engine, whose state equals
    /// the service's engine, and nests its spans under the service span
    /// `parent` of the same op: the service's self time is then
    /// `AnalysisService::handle` minus the engine work inside it.
    fn twin(&mut self, op: &Op, parent: Option<usize>) {
        let tracer = Arc::clone(&self.tracer);
        if let Some(parent) = parent {
            lock(&tracer).stack.push(parent);
        }
        let engine = &self.engines[op.tenant];
        let mut publish_span = None;
        let mut published = None;
        let failed = match op.kind {
            Kind::Ingest | Kind::Retract => {
                let posts = posts_of(&op.body);
                let flat: Vec<(&str, Timestamp)> =
                    posts.iter().map(|(u, ts)| (u.as_str(), *ts)).collect();
                let writer = self
                    .writers
                    .entry((op.conn, op.tenant))
                    .or_insert_with(|| engine.engine.writer());
                self.counts.posts += flat.len();
                match (op.kind, &engine.window) {
                    (Kind::Ingest, window) => {
                        let id = enter(&tracer, "concurrent.apply");
                        let r = writer.ingest_posts_ref(&flat);
                        exit(&tracer, id);
                        if let (Ok(()), Some(window)) = (&r, window) {
                            let id = enter(&tracer, "window.track");
                            window.track(&flat);
                            exit(&tracer, id);
                        }
                        r.err().map(|e| e.to_string())
                    }
                    (_, Some(window)) => {
                        let id = enter(&tracer, "window.retract");
                        let r = window.retract_posts(writer, &flat);
                        exit(&tracer, id);
                        self.counts.retracted += r.as_ref().map_or(0, |n| *n);
                        r.err().map(|e| e.to_string())
                    }
                    (_, None) => {
                        let id = enter(&tracer, "concurrent.apply");
                        let r = writer.retract_posts_ref(&flat);
                        exit(&tracer, id);
                        r.err().map(|e| e.to_string())
                    }
                }
            }
            Kind::Publish => {
                let id = enter(
                    &tracer,
                    if engine.window.is_some() {
                        "window.publish"
                    } else {
                        "concurrent.publish"
                    },
                );
                let cut = match &engine.window {
                    Some(window) => window.publish(),
                    None => engine.engine.publish(),
                };
                exit(&tracer, id);
                publish_span = id;
                match cut {
                    Ok(p) => {
                        published = Some(p);
                        None
                    }
                    Err(e) => Some(e.to_string()),
                }
            }
            Kind::Read => {
                let id = enter(&tracer, "concurrent.snapshot");
                let snapshot = engine.engine.snapshot();
                exit(&tracer, id);
                let id = enter(&tracer, "service.encode");
                let body = snapshot.map(|p| serde_json::to_vec(p.report()));
                exit(&tracer, id);
                match body {
                    Some(Ok(_)) => None,
                    Some(Err(e)) => Some(e.to_string()),
                    None => Some("nothing published".to_string()),
                }
            }
        };
        if parent.is_some() {
            lock(&tracer).stack.pop();
        }
        if let Some(e) = failed {
            self.errors
                .push(format!("replay twin: {} {}: {e}", op.kind.label(), op.path));
        }
        if let Some(published) = published {
            let mixture = published.report().mixture();
            self.counts.components += mixture.len();
            self.counts.iterations += mixture.iterations();
            if let Some(window) = &engine.window {
                self.counts.pending += window.pending_posts();
            }
        }
        if let Some(parent) = publish_span {
            self.adopt_observer_spans(parent);
        }
    }

    /// Copies the program's own spans recorded inside publish span
    /// `parent` into the trace, nested as the program nested them.
    fn adopt_observer_spans(&mut self, parent: usize) {
        let mut t = lock(&self.tracer);
        let (start, end, op) = (
            t.spans[parent].start,
            t.spans[parent].end,
            t.spans[parent].op,
        );
        let mut snapshot = None;
        let mut events = self.observer.events();
        events.sort_by_key(|e| e.depth);
        for e in events {
            let name = match e.name.as_str() {
                "streaming.snapshot" => "streaming.snapshot",
                "streaming.refresh" => "streaming.refresh",
                "streaming.fit" => "streaming.fit",
                _ => continue,
            };
            let s = e.start_ns + self.observer_offset;
            if s + 50_000 < start || s > end {
                continue;
            }
            let parent = if name == "streaming.snapshot" {
                Some(parent)
            } else {
                snapshot.or(Some(parent))
            };
            let id = t.spans.len();
            t.spans.push(Span {
                name,
                start: s,
                end: s + e.duration_ns,
                parent,
                op,
                bytes: 0,
            });
            if name == "streaming.snapshot" {
                snapshot = Some(id);
            }
        }
    }

    /// Each tenant's report after a final cut, from the service and from
    /// the twin, both checked against the oracle.
    fn final_check(&self, expected: &[Vec<u8>], errors: &mut Vec<String>) -> (usize, usize) {
        let (mut checks, mut failures) = (0, 0);
        let mut conn = ConnState::default();
        for (engine, expected) in self.engines.iter().zip(expected) {
            let target = format!("/v1/tenants/{}/snapshot", engine.name);
            let cut = request("GET", &target, &[("publish", "1")], Vec::new());
            let served = self.service.handle(&cut, &mut conn).0.body;
            let cut = match &engine.window {
                Some(window) => window.publish(),
                None => engine.engine.publish(),
            };
            let twin = cut
                .map(|p| serde_json::to_vec(p.report()).unwrap_or_default())
                .unwrap_or_default();
            for (side, got) in [("service", served), ("twin", twin)] {
                checks += 1;
                if let Err(e) = crate::oracle::check(&engine.name, expected, &got) {
                    failures += 1;
                    errors.push(format!("replay oracle ({side}): {e}"));
                }
            }
        }
        (checks, failures)
    }
}

/// Replays `outcome`'s requests and measures every layer.
pub fn run(outcome: &Outcome, dir: &Path) -> Replay {
    let before = Instant::now();
    let observer = Observer::with_level(LogLevel::Off);
    let after = Instant::now();
    let tracer: Shared = Arc::new(Mutex::new(Tracer {
        epoch: before,
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
        on: false,
    }));
    let mut errors = Vec::new();
    let service_root = dir.join("service");
    if let Err(e) = std::fs::create_dir_all(&service_root) {
        errors.push(format!("replay: {}: {e}", service_root.display()));
    }
    let service = AnalysisService::new(
        ServiceConfig {
            durable_root: Some(service_root),
            ..ServiceConfig::default()
        },
        Some(Observer::with_level(LogLevel::Off)),
    );
    let engines: Vec<Engine> = outcome
        .tenants
        .iter()
        .map(|spec| {
            let create = request(
                "POST",
                &format!("/v1/tenants/{}", spec.name),
                &[],
                spec.create_body(),
            );
            let (created, _) = service.handle(&create, &mut ConnState::default());
            if created.status != 201 {
                errors.push(format!(
                    "replay: create {}: status {}",
                    spec.name, created.status
                ));
            }
            let pipeline = spec.pipeline().observer(Arc::clone(&observer));
            let engine = if spec.durable {
                let vfs = TimingVfs {
                    inner: RealVfs::new(),
                    tracer: Arc::clone(&tracer),
                };
                ConcurrentStreamingPipeline::open_durable_with(
                    pipeline,
                    Box::new(vfs),
                    dir.join("twin").join(&spec.name),
                )
                .unwrap_or_else(|e| {
                    errors.push(format!("replay: open {}: {e}", spec.name));
                    ConcurrentStreamingPipeline::new(spec.pipeline())
                })
            } else {
                ConcurrentStreamingPipeline::new(pipeline)
            };
            let window = spec.window.map(|(bucket_secs, window_buckets)| {
                let config = WindowConfig {
                    bucket_secs,
                    window_buckets,
                    ..WindowConfig::default()
                };
                WindowedPipeline::new(engine.clone(), config, Some(Arc::clone(&observer)))
            });
            Engine {
                name: spec.name.clone(),
                engine,
                window,
            }
        })
        .collect();
    let mut replayer = Replayer {
        tracer: Arc::clone(&tracer),
        observer: Arc::clone(&observer),
        observer_offset: (after - before).as_nanos() as u64 / 2,
        service,
        conns: HashMap::new(),
        engines,
        writers: HashMap::new(),
        counts: Counts::default(),
        errors,
    };
    for op in outcome.setup_ops.iter().filter(|op| op.ok) {
        replayer.apply(op);
    }
    replayer.counts = Counts::default();
    let cache_before = cache_totals(&replayer.engines);
    let placed = observer.counter("placement.users");
    let placed_before = placed.get();
    lock(&tracer).on = true;
    let timed: Vec<&Op> = outcome.ops.iter().filter(|op| op.ok).collect();
    let wall = Instant::now();
    for op in &timed {
        if op.kind == Kind::Publish {
            replayer.counts.dirty += replayer.engines[op.tenant].engine.dirty_users();
        }
        replayer.apply(op);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    lock(&tracer).on = false;
    replayer.counts.placements = placed.get() - placed_before;
    let cache_after = cache_totals(&replayer.engines);

    // The service's engines and the twins must land on the oracle's bytes.
    let mut errors = std::mem::take(&mut replayer.errors);
    let (mut checks, mut failures) = replayer.final_check(&outcome.expected, &mut errors);

    let spans = std::mem::take(&mut lock(&tracer).spans);
    let cache = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    let measured = measure(
        outcome,
        &spans,
        &replayer.counts,
        cache,
        wall_s,
        timed.len(),
    );
    checks += 1;
    if !measured.glue_ok {
        failures += 1;
        errors.push(format!(
            "trace does not reconcile: benchmark glue exceeds {GLUE_BOUND_PCT}% of a traced op"
        ));
    }
    Replay {
        figures: measured.figures,
        detail: json!({"reconcile": measured.detail, "spans_file": write_spans(outcome, &spans)}),
        table: measured.table,
        checks,
        failures,
        errors,
    }
}

fn cache_totals(engines: &[Engine]) -> (u64, u64) {
    engines.iter().fold((0, 0), |(h, m), e| {
        let (hits, misses) = e.engine.cache_stats();
        (h + hits, m + misses)
    })
}

/// Writes the spans as JSON next to the run's record; returns the path.
fn write_spans(outcome: &Outcome, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    out.push_str("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start,
            s.end,
            s.op
        );
    }
    out.push_str("\n]}\n");
    let dir = Path::new(".bench_out").join(&outcome.workload);
    let file = dir.join(format!("trace-seed-{}.json", outcome.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, out)) {
        Ok(()) => file.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What [`measure`] derives from the spans.
struct Measured {
    figures: Vec<Figure>,
    /// The reconciliation table, for the result record.
    detail: Value,
    /// The same table, human-readable.
    table: String,
    /// Whether every op kind's glue stays within [`GLUE_BOUND_PCT`].
    glue_ok: bool,
}

/// Self times → per-layer figures, plus the reconciliation table.
fn measure(
    outcome: &Outcome,
    spans: &[Span],
    counts: &Counts,
    cache: (u64, u64),
    wall_s: f64,
    ops: usize,
) -> Measured {
    let dur = |s: &Span| s.end.saturating_sub(s.start) as f64 / 1e3;
    let mut children = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += dur(s);
        }
    }
    let kind_of_op: HashMap<usize, Kind> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .filter_map(|(i, s)| {
            let kind = Kind::ALL
                .into_iter()
                .find(|k| s.name == format!("op.{}", k.label()))?;
            Some((i, kind))
        })
        .collect();
    // name → (self µs, calls); (kind, layer) → self µs; kind → (traced µs, ops)
    let mut by_name: HashMap<&str, (f64, usize, u64)> = HashMap::new();
    let mut by_layer: BTreeMap<(Kind, &str), f64> = BTreeMap::new();
    let mut traced: BTreeMap<Kind, (f64, usize)> = BTreeMap::new();
    let mut rotations = (0usize, 0.0f64);
    let mut store_in_op: HashMap<usize, (bool, f64)> = HashMap::new();
    // `handle` self time on ingest and retract: the service's decoding.
    let mut decode = (0.0f64, 0usize);
    for (i, s) in spans.iter().enumerate() {
        let own = dur(s) - children[i];
        let entry = by_name.entry(s.name).or_default();
        entry.0 += own;
        entry.1 += 1;
        entry.2 += s.bytes;
        let Some(&kind) = kind_of_op.get(&s.op) else {
            continue;
        };
        let layer = match s.name.split_once('.') {
            Some(("op", _)) => "glue",
            Some((layer, _)) => layer,
            None => s.name,
        };
        *by_layer.entry((kind, layer)).or_default() += own;
        if s.name == "service.handle" && matches!(kind, Kind::Ingest | Kind::Retract) {
            decode.0 += own;
            decode.1 += 1;
        }
        if s.parent.is_none() {
            let t = traced.entry(kind).or_default();
            t.0 += dur(s);
            t.1 += 1;
        }
        if kind == Kind::Publish && layer == "store" {
            let e = store_in_op.entry(s.op).or_default();
            e.0 |= s.name == "store.write";
            e.1 += own;
        }
    }
    for (rotated, store_us) in store_in_op.values() {
        if *rotated {
            rotations.0 += 1;
            rotations.1 += store_us / 1e3;
        }
    }
    let total = |name: &str| by_name.get(name).map_or(0.0, |e| e.0);
    let calls = |name: &str| by_name.get(name).map_or(0, |e| e.1) as f64;
    let mean = |name: &str| ratio(total(name), calls(name));
    let ops_of = |kinds: &[Kind]| {
        outcome
            .ops
            .iter()
            .filter(|op| op.ok && kinds.contains(&op.kind))
            .count() as f64
    };
    let publishes = ops_of(&[Kind::Publish]);
    let batches = ops_of(&[Kind::Ingest, Kind::Retract]);
    let durable = outcome.tenants.iter().any(|t| t.durable);
    let wal_bytes = by_name.get("store.append").map_or(0, |e| e.2) as f64;
    let (gate_wait, contention, server_batches) = server_counters(&outcome.server_metrics);
    let pipeline = outcome
        .oracle_obs
        .as_ref()
        .map(|o| {
            let stages: HashMap<String, f64> = o
                .stage_timings()
                .into_iter()
                .map(|s| (s.name, s.total_ns as f64 / 1e9))
                .collect();
            let users = o.counter("pipeline.users_placed").get() as f64;
            (stages, users)
        })
        .unwrap_or_default();
    let stage = |name: &str| pipeline.0.get(name).copied().unwrap_or(0.0);

    let mut figs = Vec::new();
    let mut fig = |name: &str, value: f64, unit: &'static str, better: &'static str| {
        figs.push(Figure::new(name, value, unit, better));
    };
    // The reconciliation: layers + glue + socket remainder = untraced latency.
    let mut rows = Vec::new();
    let mut table = String::new();
    let layers = [
        "http",
        "service",
        "concurrent",
        "window",
        "streaming",
        "store",
        "glue",
    ];
    let _ = writeln!(
        table,
        "# {:<22}{:>12}{:>12}{:>12}{:>12}",
        "self time, us per op", "ingest", "retract", "publish", "read"
    );
    for layer in layers {
        let _ = write!(table, "# {layer:<22}");
        for kind in Kind::ALL {
            let n = traced.get(&kind).map_or(0, |t| t.1) as f64;
            let v = ratio(by_layer.get(&(kind, layer)).copied().unwrap_or(0.0), n);
            let _ = write!(table, "{v:>12.1}");
        }
        let _ = writeln!(table);
    }
    let (mut glue_ok, mut overshoot_ok) = (true, true);
    let mut worst_glue = 0.0f64;
    let mut line = |label: &str, values: &[f64; 4]| {
        let _ = writeln!(
            table,
            "# {label:<22}{:>12.1}{:>12.1}{:>12.1}{:>12.1}",
            values[0], values[1], values[2], values[3]
        );
    };
    let (mut t_row, mut l_row, mut s_row) = ([0.0; 4], [0.0; 4], [0.0; 4]);
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let (sum, n) = traced.get(&kind).copied().unwrap_or((0.0, 0));
        let traced_us = ratio(sum, n as f64);
        let untraced: Vec<f64> = outcome
            .ops
            .iter()
            .filter(|op| op.ok && op.kind == kind)
            .map(|op| (op.done - op.sent) as f64 / 1e3)
            .collect();
        let latency_us = ratio(untraced.iter().sum(), untraced.len() as f64);
        let glue = ratio(
            by_layer.get(&(kind, "glue")).copied().unwrap_or(0.0),
            n as f64,
        );
        let glue_pct = 100.0 * ratio(glue, traced_us);
        let socket = latency_us - traced_us;
        worst_glue = worst_glue.max(glue_pct);
        if n > 0 {
            glue_ok &= glue_pct <= GLUE_BOUND_PCT;
            overshoot_ok &= socket >= -OVERSHOOT_BOUND_PCT / 100.0 * latency_us;
        }
        (t_row[i], l_row[i], s_row[i]) = (traced_us, latency_us, socket);
        fig(
            &format!("server.socket_us.{}", kind.label()),
            socket,
            "us",
            "lower",
        );
        rows.push(json!({
            "kind": kind.label(),
            "ops": n,
            "layers_us": layers.iter().map(|l| json!({"layer": l, "self_us": ratio(by_layer.get(&(kind, *l)).copied().unwrap_or(0.0), n as f64)})).collect::<Vec<_>>(),
            "traced_us": traced_us,
            "untraced_us": latency_us,
            "server_socket_us": socket,
            "glue_pct": glue_pct,
        }));
    }
    line("traced op", &t_row);
    line("untraced latency", &l_row);
    line("server.socket_us", &s_row);
    let _ = writeln!(
        table,
        "# glue within {GLUE_BOUND_PCT}% of each traced op: {glue_ok} (a breach fails the run); layers exceed the untraced latency by <= {OVERSHOOT_BOUND_PCT}%: {overshoot_ok} (reported only)"
    );

    fig("http.parse_us", mean("http.parse"), "us", "lower");
    fig("http.write_us", mean("http.write"), "us", "lower");
    fig(
        "http.bytes_in_per_op",
        ratio(counts.bytes_in as f64, ops as f64),
        "bytes",
        "lower",
    );
    fig(
        "http.bytes_out_per_op",
        ratio(counts.bytes_out as f64, ops as f64),
        "bytes",
        "lower",
    );
    fig(
        "service.decode_us",
        ratio(decode.0, decode.1 as f64),
        "us",
        "lower",
    );
    fig("service.encode_us", mean("service.encode"), "us", "lower");
    fig(
        "service.report_bytes",
        ratio(counts.report_bytes as f64, ops_of(&[Kind::Read])),
        "bytes",
        "lower",
    );
    fig("store.append_us", mean("store.append"), "us", "lower");
    fig("store.sync_us", mean("store.sync"), "us", "lower");
    fig(
        "store.syncs_per_batch",
        if durable {
            ratio(calls("store.sync"), batches)
        } else {
            0.0
        },
        "count",
        "lower",
    );
    fig(
        "store.wal_bytes_per_post",
        ratio(wal_bytes, counts.posts as f64),
        "bytes",
        "lower",
    );
    fig("store.rotations", rotations.0 as f64, "count", "lower");
    fig(
        "store.rotation_ms",
        ratio(rotations.1, rotations.0 as f64),
        "ms",
        "lower",
    );
    fig(
        "concurrent.apply_us",
        mean("concurrent.apply"),
        "us",
        "lower",
    );
    fig(
        "concurrent.publish_us",
        mean("concurrent.publish"),
        "us",
        "lower",
    );
    fig(
        "concurrent.gate_wait_ns",
        ratio(gate_wait, server_batches),
        "ns",
        "lower",
    );
    fig("concurrent.gate_contention", contention, "count", "lower");
    fig("window.track_us", mean("window.track"), "us", "lower");
    fig("window.retract_us", mean("window.retract"), "us", "lower");
    fig(
        "window.retracted_per_op",
        ratio(counts.retracted as f64, calls("window.retract")),
        "count",
        "higher",
    );
    fig("window.expire_us", mean("window.publish"), "us", "lower");
    fig(
        "window.pending_posts",
        ratio(counts.pending as f64, calls("window.publish")),
        "count",
        "lower",
    );
    fig(
        "streaming.refresh_us",
        ratio(total("streaming.refresh"), publishes),
        "us",
        "lower",
    );
    fig(
        "streaming.dirty_per_publish",
        ratio(counts.dirty as f64, publishes),
        "count",
        "lower",
    );
    fig(
        "streaming.assemble_us",
        ratio(total("streaming.snapshot"), publishes),
        "us",
        "lower",
    );
    fig(
        "streaming.fit_us",
        ratio(total("streaming.fit"), publishes),
        "us",
        "lower",
    );
    fig(
        "engine.placements_per_publish",
        ratio(counts.placements as f64, publishes),
        "count",
        "lower",
    );
    fig(
        "engine.cache_hit_ratio",
        ratio(cache.0 as f64, (cache.0 + cache.1) as f64),
        "ratio",
        "higher",
    );
    fig(
        "engine.place_users_per_s",
        ratio(counts.placements as f64, total("streaming.refresh") / 1e6),
        "1/s",
        "higher",
    );
    fig("pipeline.ingest_s", stage("pipeline.ingest"), "s", "lower");
    fig(
        "pipeline.refresh_s",
        stage("streaming.refresh"),
        "s",
        "lower",
    );
    fig("pipeline.fit_s", stage("streaming.fit"), "s", "lower");
    fig(
        "pipeline.users_per_s",
        ratio(
            pipeline.1,
            stage("pipeline.ingest") + stage("streaming.snapshot"),
        ),
        "1/s",
        "higher",
    );
    fig(
        "gmm.components",
        ratio(counts.components as f64, publishes),
        "count",
        "lower",
    );
    fig(
        "gmm.em_iterations",
        ratio(counts.iterations as f64, publishes),
        "count",
        "lower",
    );
    fig(
        "replay.posts_per_s",
        ratio(counts.posts as f64, wall_s),
        "1/s",
        "higher",
    );
    fig(
        "replay.ops_per_s",
        ratio(ops as f64, wall_s),
        "1/s",
        "higher",
    );
    fig("trace.glue_pct", worst_glue, "%", "lower");
    let detail = json!({"glue_ok": glue_ok, "overshoot_ok": overshoot_ok, "glue_bound_pct": GLUE_BOUND_PCT, "overshoot_bound_pct": OVERSHOOT_BOUND_PCT, "kinds": rows});
    Measured {
        figures: figs,
        detail,
        table,
        glue_ok,
    }
}

/// `(lock wait ns, gate contentions, batches)` over the timed phase, from
/// the server's `/metrics` before and after it.
fn server_counters(scrapes: &(String, String)) -> (f64, f64, f64) {
    let read = |text: &str, name: &str| -> f64 {
        text.lines()
            .filter_map(|l| l.strip_prefix(name))
            .filter_map(|rest| rest.strip_prefix(' '))
            .filter_map(|v| v.trim().parse::<f64>().ok())
            .sum()
    };
    let diff = |name: &str| read(&scrapes.1, name) - read(&scrapes.0, name);
    (
        diff("crowdtz_ingest_lock_wait_ns_sum"),
        diff("crowdtz_ingest_gate_contention_total"),
        diff("crowdtz_ingest_batches_total"),
    )
}
