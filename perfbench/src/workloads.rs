//! The three serving workloads: set-up, closed-loop timed phase, and the
//! post-phase oracle (plus crawl-durable's kill-and-restart check).
//!
//! Each generator connection owns its share of the generated state
//! (crowds and survivor lists), so the oracle knows exactly which posts
//! survive without any coordination between connections.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::gen::{self, Batch, Crowd, WEEK};
use crate::oracle::{self, TenantSpec};
use crate::run::{ack_posts, published, snapshot_since, Conn, Kind, Op, Server};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["crawl-durable", "analyst-large", "window-churn"];

/// Generator connections a workload uses. crawl-durable crawls with one:
/// with two, the writers' fsyncs and rotations queued on each other and
/// its p50s followed the host's CPU steal (1.6 ms at 1% steal, 3.2 ms at
/// 19%), past any bound the gate allows.
pub fn connections(workload: &str) -> usize {
    match workload {
        "crawl-durable" => 1,
        _ => 2,
    }
}

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `crowdtz-serve` binary.
    pub server_bin: PathBuf,
    /// Server accept workers (`--workers`).
    pub workers: usize,
    /// Engine threads per tenant (tenant config `threads`).
    pub threads: usize,
    /// Generator connections (one thread each).
    pub conns: usize,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny sizes for the benchmark's own tests.
    pub smoke: bool,
    /// Traced run: one set-up, and the oracle records its stage spans.
    pub trace: bool,
    /// Flip one byte of the first tenant's expected report, to prove a
    /// wrong report fails the run.
    pub corrupt_oracle: bool,
    /// Scratch directory for durable roots.
    pub dir: PathBuf,
}

impl Ctx {
    fn pick(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Tenant configurations, by tenant index.
    pub tenants: Vec<TenantSpec>,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Set-up requests of the kept server, in order.
    pub setup_ops: Vec<Op>,
    /// Timed-phase requests of every connection, by send time.
    pub ops: Vec<Op>,
    /// Server peak resident set at the end of the timed phase.
    pub rss_mb: f64,
    /// Oracle bytes per tenant.
    pub expected: Vec<Vec<u8>>,
    /// Wrong or failed replies and oracle mismatches.
    pub errors: Vec<String>,
    /// Oracle and recovery comparisons made.
    pub checks: usize,
    /// Those that failed.
    pub check_failures: usize,
    /// `/metrics` text just before and just after the timed phase.
    pub server_metrics: (String, String),
    /// The observer the oracle's batch analyses reported into.
    pub oracle_obs: Option<Arc<crowdtz_obs::Observer>>,
}

/// The request target for `kind` on `tenant`.
pub fn path(tenant: &TenantSpec, kind: Kind) -> String {
    let name = &tenant.name;
    match kind {
        Kind::Ingest => format!("/v1/tenants/{name}/ingest"),
        Kind::Retract => format!("/v1/tenants/{name}/retract"),
        Kind::Publish => format!("/v1/tenants/{name}/drift?publish=1"),
        Kind::Read => format!("/v1/tenants/{name}/snapshot"),
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Set-up failures (the server cannot start, or refuses set-up
/// requests); wrong replies during the timed phase are counted instead.
pub fn run(name: &str, ctx: &Ctx) -> io::Result<Outcome> {
    let mut outcome = match name {
        "crawl-durable" => crawl_durable(ctx),
        "analyst-large" => analyst_large(ctx),
        "window-churn" => window_churn(ctx),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}; known: {}", NAMES.join(", ")),
        )),
    }?;
    outcome.workload = name.to_string();
    outcome.seed = ctx.seed;
    Ok(outcome)
}

/// One tenant's surviving posts, as `(crowd, [(user index, ts)])` groups.
type Survivors<'a> = Vec<(&'a Crowd, &'a [(u32, i64)])>;

/// One set-up request: tenant, kind (ingest or publish), body, posts.
type Step = (usize, Kind, Vec<u8>, usize);

/// A server brought to its post-set-up state.
struct Setup {
    server: Server,
    root: PathBuf,
    ops: Vec<Op>,
    times: Vec<f64>,
}

/// Starts a server and brings it to the post-set-up state (tenants
/// created, backfilled and published), `SETUP_REPS` times over on fresh
/// durable roots in an untraced run; keeps the last one.
fn set_up(ctx: &Ctx, tenants: &[TenantSpec], durable: bool, steps: &[Step]) -> io::Result<Setup> {
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take());
        let root = ctx.dir.join(format!("root-{rep}"));
        std::fs::create_dir_all(&root)?;
        let start = Instant::now();
        let server = Server::spawn(&ctx.server_bin, ctx.workers, durable.then_some(&*root))?;
        create_all(&server, tenants)?;
        let mut conn = Conn::connect(server.addr, usize::MAX, start)?;
        for (t, kind, body, posts) in steps {
            let target = path(&tenants[*t], *kind);
            let answered = match kind {
                Kind::Publish => conn.call(*t, *kind, target, Vec::new(), 0, published),
                _ => conn.call(*t, *kind, target, body.clone(), *posts, ack_posts(*posts)),
            };
            if answered.is_none() {
                return Err(io::Error::other(format!(
                    "set-up request failed: {}",
                    conn.errors.join("; ")
                )));
            }
        }
        times.push(start.elapsed().as_secs_f64());
        kept = Some(Setup {
            server,
            root,
            ops: conn.ops,
            times: Vec::new(),
        });
    }
    let mut setup = kept.expect("at least one set-up");
    setup.times = times;
    Ok(setup)
}

/// Creates every tenant (a durable one recovers from its journal).
fn create_all(server: &Server, tenants: &[TenantSpec]) -> io::Result<()> {
    let mut client = crowdtz_serve::HttpClient::connect(server.addr)?;
    for tenant in tenants {
        let target = format!("/v1/tenants/{}", tenant.name);
        let reply = client.request("POST", &target, Some(&tenant.create_body()))?;
        if reply.status != 201 {
            return Err(io::Error::other(format!(
                "create {}: status {}",
                tenant.name, reply.status
            )));
        }
    }
    Ok(())
}

/// The timed phase: one thread and connection per state, each running
/// `role` until the deadline. Returns the connections and the states.
fn phase<S: Send>(
    server: &Server,
    states: Vec<S>,
    seconds: f64,
    role: impl Fn(&mut Conn, &mut S, Instant) + Sync,
) -> io::Result<(Vec<Conn>, Vec<S>)> {
    let start = Instant::now();
    let conns = (0..states.len())
        .map(|i| Conn::connect(server.addr, i, start))
        .collect::<io::Result<Vec<_>>>()?;
    let deadline = start + Duration::from_secs_f64(seconds);
    let role = &role;
    let finished: Vec<(Conn, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(states)
            .map(|(mut conn, mut state)| {
                scope.spawn(move || {
                    role(&mut conn, &mut state, deadline);
                    (conn, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    Ok(finished.into_iter().unzip())
}

/// `GET /metrics` (traced runs read the server's own counters).
fn scrape(server: &Server, ctx: &Ctx) -> String {
    if !ctx.trace {
        return String::new();
    }
    crowdtz_serve::HttpClient::connect(server.addr)
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default()
}

/// Oracle bytes per tenant from `(crowd, survivors)` groups. With
/// `corrupt_oracle` one byte of the first tenant's report is flipped.
fn expectations(
    ctx: &Ctx,
    tenants: &[TenantSpec],
    survivors: &[Survivors],
) -> (Vec<Vec<u8>>, Option<Arc<crowdtz_obs::Observer>>) {
    let observer = ctx
        .trace
        .then(|| crowdtz_obs::Observer::with_level(crowdtz_obs::LogLevel::Off));
    let mut expected: Vec<Vec<u8>> = tenants
        .iter()
        .zip(survivors)
        .map(|(spec, groups)| oracle::expected(spec, groups, observer.as_ref()))
        .collect();
    if ctx.corrupt_oracle {
        let report = &mut expected[0];
        let mid = report.len() / 2;
        report[mid] ^= 1;
    }
    (expected, observer)
}

/// Compares every tenant's fresh snapshot with the oracle.
fn verify(server: &Server, tenants: &[TenantSpec], expected: &[Vec<u8>], out: &mut Outcome) {
    let mut client = match crowdtz_serve::HttpClient::connect(server.addr) {
        Ok(client) => client,
        Err(e) => {
            out.checks += tenants.len();
            out.check_failures += tenants.len();
            out.errors.push(format!("oracle: connect: {e}"));
            return;
        }
    };
    for (tenant, expected) in tenants.iter().zip(expected) {
        out.checks += 1;
        let target = format!("/v1/tenants/{}/snapshot?publish=1", tenant.name);
        let result = match client.get(&target) {
            Ok(reply) => oracle::check(&tenant.name, expected, &reply.body),
            Err(e) => Err(format!("{}: {e}", tenant.name)),
        };
        if let Err(e) = result {
            out.check_failures += 1;
            out.errors.push(format!("oracle: {e}"));
        }
    }
}

/// Assembles the outcome of a finished phase (before the oracle).
fn outcome(
    tenants: Vec<TenantSpec>,
    setup: &mut Setup,
    conns: Vec<Conn>,
    server_metrics: (String, String),
) -> Outcome {
    let rss_mb = setup.server.peak_rss_mb();
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    for conn in conns {
        ops.extend(conn.ops);
        errors.extend(conn.errors);
    }
    ops.sort_by_key(|op| (op.sent, op.conn));
    Outcome {
        workload: String::new(),
        seed: 0,
        tenants,
        setup_s: std::mem::take(&mut setup.times),
        setup_ops: std::mem::take(&mut setup.ops),
        ops,
        rss_mb,
        expected: Vec::new(),
        errors,
        checks: 0,
        check_failures: 0,
        server_metrics,
        oracle_obs: None,
    }
}

/// `users` distinct random members of `crowd`, each with `posts` new
/// posts on consecutive days. `picks` is scratch holding `0..users`.
fn ingest_batch(
    rng: &mut StdRng,
    crowd: &mut Crowd,
    picks: &mut [usize],
    users: usize,
    posts: usize,
) -> Batch {
    let n = users.min(picks.len());
    for i in 0..n {
        let j = rng.gen_range(i..picks.len());
        picks.swap(i, j);
    }
    let mut chosen = picks[..n].to_vec();
    chosen.sort_unstable();
    chosen
        .into_iter()
        .map(|u| (u, (0..posts).map(|_| crowd.next_post(rng, u)).collect()))
        .collect()
}

/// Sends one generated batch as an ingest or retract; true when it was
/// acknowledged.
fn send(
    conn: &mut Conn,
    tenant: &TenantSpec,
    t: usize,
    kind: Kind,
    crowd: &Crowd,
    batch: &Batch,
) -> bool {
    let posts = gen::batch_posts(batch);
    if posts == 0 {
        return false;
    }
    let body = gen::body(crowd, batch);
    conn.call(t, kind, path(tenant, kind), body, posts, ack_posts(posts))
        .is_some()
}

/// crawl-durable: durable tenants crawled by one writer (per
/// [`connections`]) as fast as the server answers, cutting a sweep of its
/// forums every `sweep_batches` acknowledged batches; afterwards the
/// server is SIGKILLed and must recover every acknowledged batch.
fn crawl_durable(ctx: &Ctx) -> io::Result<Outcome> {
    let n_tenants = ctx.pick(8, 2);
    let crowd_users = ctx.pick(1_500, 40);
    let backfill_posts = ctx.pick(20, 10);
    let batch_users = ctx.pick(50, 10);
    let posts_per_user = ctx.pick(8, 4);
    let retract_posts = 20;
    // Sweeps fall due after a count of acknowledged batches, so the wait
    // for the next cut, and with it `visible_*`, follows ingest latency.
    let sweep_batches = ctx.pick(100, 10);
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| TenantSpec {
            name: format!("crawl-{i:02}"),
            min_posts: 8,
            shards: 4,
            threads: ctx.threads,
            durable: true,
            window: None,
        })
        .collect();

    // Each forum belongs to one writer, which alone ingests into it,
    // retracts from it and cuts it: one crawler per forum, so a writer
    // never queues behind the other's sweep and the oracle needs no
    // coordination.
    struct Forum {
        index: usize,
        crowd: Crowd,
        live: Vec<(u32, i64)>,
    }
    struct Writer {
        rng: StdRng,
        forums: Vec<Forum>,
    }
    let mut steps: Vec<Step> = Vec::new();
    let mut writers: Vec<Writer> = (0..ctx.conns)
        .map(|c| Writer {
            rng: gen::rng(ctx.seed, 100 + c as u64),
            forums: Vec::new(),
        })
        .collect();
    for t in 0..n_tenants {
        let w = &mut writers[t % ctx.conns];
        let mut crowd = Crowd::new(&mut w.rng, &format!("f{t}u"), crowd_users, 3);
        let batch: Batch = (0..crowd_users)
            .map(|u| {
                (
                    u,
                    (0..backfill_posts)
                        .map(|_| crowd.next_post(&mut w.rng, u))
                        .collect(),
                )
            })
            .collect();
        for chunk in batch.chunks(150) {
            let chunk = chunk.to_vec();
            steps.push((
                t,
                Kind::Ingest,
                gen::body(&crowd, &chunk),
                gen::batch_posts(&chunk),
            ));
        }
        let live = gen::flatten(&batch).collect();
        w.forums.push(Forum {
            index: t,
            crowd,
            live,
        });
    }
    steps.extend((0..n_tenants).map(|t| (t, Kind::Publish, Vec::new(), 0)));

    let mut setup = set_up(ctx, &tenants, true, &steps)?;
    let before = scrape(&setup.server, ctx);
    let (done, writers) = phase(&setup.server, writers, ctx.seconds, |conn, w, deadline| {
        let mut picks: Vec<usize> = (0..crowd_users).collect();
        let mut k = 0usize;
        let mut acked = 0usize;
        while Instant::now() < deadline {
            let f = w.rng.gen_range(0..w.forums.len());
            let forum = &mut w.forums[f];
            // Every fourth request reports posts the re-crawl found deleted.
            let (kind, batch) = if k % 4 == 3 {
                (
                    Kind::Retract,
                    gen::take_random(&mut w.rng, &mut forum.live, retract_posts),
                )
            } else {
                let batch = ingest_batch(
                    &mut w.rng,
                    &mut forum.crowd,
                    &mut picks,
                    batch_users,
                    posts_per_user,
                );
                forum.live.extend(gen::flatten(&batch));
                (Kind::Ingest, batch)
            };
            if send(
                conn,
                &tenants[forum.index],
                forum.index,
                kind,
                &forum.crowd,
                &batch,
            ) {
                acked += 1;
            }
            k += 1;
            if acked >= sweep_batches {
                acked = 0;
                // A crawl sweep's cut: publish each forum, save its report.
                for forum in &w.forums {
                    let (t, tenant) = (forum.index, &tenants[forum.index]);
                    if let Some(epoch) = conn.call(
                        t,
                        Kind::Publish,
                        path(tenant, Kind::Publish),
                        Vec::new(),
                        0,
                        published,
                    ) {
                        conn.call(
                            t,
                            Kind::Read,
                            path(tenant, Kind::Read),
                            Vec::new(),
                            0,
                            snapshot_since(epoch),
                        );
                    }
                }
            }
        }
    })?;
    let after = scrape(&setup.server, ctx);
    let mut out = outcome(tenants.clone(), &mut setup, done, (before, after));

    let mut forums: Vec<&Forum> = writers.iter().flat_map(|w| &w.forums).collect();
    forums.sort_by_key(|f| f.index);
    let survivors: Vec<Survivors> = forums
        .iter()
        .map(|f| vec![(&f.crowd, &f.live[..])])
        .collect();
    let (expected, observer) = expectations(ctx, &tenants, &survivors);
    verify(&setup.server, &tenants, &expected, &mut out);

    // Durability: SIGKILL, restart on the same root, recover, compare.
    let Setup { server, root, .. } = setup;
    server.kill();
    match Server::spawn(&ctx.server_bin, ctx.workers, Some(&root))
        .and_then(|server| create_all(&server, &tenants).map(|()| server))
    {
        Ok(server) => verify(&server, &tenants, &expected, &mut out),
        Err(e) => {
            out.checks += 1;
            out.check_failures += 1;
            out.errors.push(format!("restart after SIGKILL: {e}"));
        }
    }
    out.expected = expected;
    out.oracle_obs = observer;
    Ok(out)
}

/// analyst-large: one big in-memory crowd; connection 0 trickles ingest
/// and takedowns, connection 1 cuts reports and reads them in full.
fn analyst_large(ctx: &Ctx) -> io::Result<Outcome> {
    let users = ctx.pick(20_000, 2_000);
    let posts = ctx.pick(40, 15);
    let chunk_users = ctx.pick(1_000, 200);
    // Connection A paces its trickle to one request per 6 ms.
    let interval = Duration::from_millis(6);
    let tenants = vec![TenantSpec {
        name: "analyst".into(),
        min_posts: 10,
        shards: 8,
        threads: ctx.threads,
        durable: false,
        window: None,
    }];

    struct Trickle {
        rng: StdRng,
        crowd: Crowd,
        live: Vec<(u32, i64)>,
    }
    let mut rng = gen::rng(ctx.seed, 200);
    // A fixed mix of three well-separated regions (Americas, Europe, East
    // Asia): with neighbouring regions the mixture fit's model choice
    // flipped between seeds and publish times split into two modes.
    let mix = [(-6, 3), (1, 4), (8, 2)];
    let mut crowd = Crowd::with_mix("u", users, &mix);
    let mut live = Vec::with_capacity(users * posts);
    let mut steps: Vec<Step> = Vec::new();
    for first in (0..users).step_by(chunk_users) {
        let batch: Batch = (first..(first + chunk_users).min(users))
            .map(|u| {
                (
                    u,
                    (0..posts).map(|_| crowd.next_post(&mut rng, u)).collect(),
                )
            })
            .collect();
        live.extend(gen::flatten(&batch));
        steps.push((
            0,
            Kind::Ingest,
            gen::body(&crowd, &batch),
            gen::batch_posts(&batch),
        ));
    }
    steps.push((0, Kind::Publish, Vec::new(), 0));

    let mut setup = set_up(ctx, &tenants, false, &steps)?;
    let before = scrape(&setup.server, ctx);
    let states = vec![Some(Trickle { rng, crowd, live }), None];
    let tenant = &tenants[0];
    let (done, mut states) = phase(
        &setup.server,
        states,
        ctx.seconds,
        |conn, state, deadline| {
            match state {
                // Connection A: a trickle of small batches and takedowns.
                Some(a) => {
                    let mut picks: Vec<usize> = (0..users).collect();
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let cycle = conn.now();
                        if k % 10 == 9 {
                            let batch = gen::take_random(&mut a.rng, &mut a.live, 8);
                            send(conn, tenant, 0, Kind::Retract, &a.crowd, &batch);
                        } else {
                            let batch = ingest_batch(&mut a.rng, &mut a.crowd, &mut picks, 10, 8);
                            a.live.extend(gen::flatten(&batch));
                            send(conn, tenant, 0, Kind::Ingest, &a.crowd, &batch);
                        }
                        k += 1;
                        conn.pace(cycle, interval);
                    }
                }
                // Connection B: cut, then read the cut's report in full.
                None => {
                    while Instant::now() < deadline {
                        let cut = conn.call(
                            0,
                            Kind::Publish,
                            path(tenant, Kind::Publish),
                            Vec::new(),
                            0,
                            published,
                        );
                        if let Some(epoch) = cut {
                            conn.call(
                                0,
                                Kind::Read,
                                path(tenant, Kind::Read),
                                Vec::new(),
                                0,
                                snapshot_since(epoch),
                            );
                        }
                    }
                }
            }
        },
    )?;
    let after = scrape(&setup.server, ctx);
    let mut out = outcome(tenants.clone(), &mut setup, done, (before, after));
    let a = states.swap_remove(0).expect("connection A state");
    let (expected, observer) = expectations(ctx, &tenants, &[vec![(&a.crowd, &a.live[..])]]);
    verify(&setup.server, &tenants, &expected, &mut out);
    out.expected = expected;
    out.oracle_obs = observer;
    Ok(out)
}

/// One window-churn tenant as the generator models it.
struct WindowTenant {
    index: usize,
    rng: StdRng,
    crowd: Crowd,
    /// Posts still tracked by the window (not retracted, not expired).
    live: Vec<(u32, i64)>,
    max_bucket: i64,
    next_week: i64,
}

impl WindowTenant {
    const WINDOW: usize = 4;
    const POSTS_PER_WEEK: usize = 3;

    /// Next week's posts from the ~80% of members active that week.
    fn week_batch(&mut self) -> Batch {
        let week = self.next_week;
        self.next_week += 1;
        let mut batch: Batch = Vec::new();
        for u in 0..self.crowd.users.len() {
            if self.rng.gen_range(0..10) < 8 {
                let posts = self
                    .crowd
                    .week_posts(&mut self.rng, u, week, Self::POSTS_PER_WEEK);
                batch.push((u, posts));
            }
        }
        self.live.extend(gen::flatten(&batch));
        self.max_bucket = self.max_bucket.max(week);
        batch
    }

    /// What a windowed publish does first: drop buckets that left the
    /// window.
    fn expire(&mut self) {
        let cutoff = self.max_bucket - Self::WINDOW as i64 + 1;
        self.live.retain(|&(_, ts)| ts.div_euclid(WEEK) >= cutoff);
    }
}

/// window-churn: many small windowed tenants; every round each ingests a
/// week, loses 5% of its live posts to takedowns, and publishes (expiring
/// the oldest week), then its report is read.
fn window_churn(ctx: &Ctx) -> io::Result<Outcome> {
    let n_tenants = ctx.pick(200, 6);
    let users = ctx.pick(300, 60);
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| TenantSpec {
            name: format!("community-{i:03}"),
            min_posts: 6,
            shards: 2,
            threads: ctx.threads,
            durable: false,
            window: Some((WEEK, WindowTenant::WINDOW)),
        })
        .collect();
    let mut steps: Vec<Step> = Vec::new();
    let mut states: Vec<Vec<WindowTenant>> = (0..ctx.conns).map(|_| Vec::new()).collect();
    for t in 0..n_tenants {
        let mut rng = gen::rng(ctx.seed, 300 + t as u64);
        let regions = rng.gen_range(1..=3);
        let crowd = Crowd::new(&mut rng, "m", users, regions);
        let mut tenant = WindowTenant {
            index: t,
            rng,
            crowd,
            live: Vec::new(),
            max_bucket: i64::MIN,
            next_week: gen::FIRST_DAY / 7,
        };
        // Prime a full window, then cut once.
        for _ in 0..WindowTenant::WINDOW {
            let batch = tenant.week_batch();
            steps.push((
                t,
                Kind::Ingest,
                gen::body(&tenant.crowd, &batch),
                gen::batch_posts(&batch),
            ));
        }
        tenant.expire();
        steps.push((t, Kind::Publish, Vec::new(), 0));
        states[t % ctx.conns].push(tenant);
    }

    // Each connection starts a tenant's round at most every 24 ms, about
    // a third of what the server sustains on two CPUs (see crawl-durable).
    let interval = Duration::from_millis(24);
    let mut setup = set_up(ctx, &tenants, false, &steps)?;
    let before = scrape(&setup.server, ctx);
    let (done, states) = phase(
        &setup.server,
        states,
        ctx.seconds,
        |conn, owned, deadline| loop {
            for w in owned.iter_mut() {
                if Instant::now() >= deadline {
                    return;
                }
                let cycle = conn.now();
                let (t, spec) = (w.index, &tenants[w.index]);
                let batch = w.week_batch();
                send(conn, spec, t, Kind::Ingest, &w.crowd, &batch);
                let takedowns = w.live.len() / 20;
                let batch = gen::take_random(&mut w.rng, &mut w.live, takedowns);
                send(conn, spec, t, Kind::Retract, &w.crowd, &batch);
                w.expire();
                if let Some(epoch) = conn.call(
                    t,
                    Kind::Publish,
                    path(spec, Kind::Publish),
                    Vec::new(),
                    0,
                    published,
                ) {
                    conn.call(
                        t,
                        Kind::Read,
                        path(spec, Kind::Read),
                        Vec::new(),
                        0,
                        snapshot_since(epoch),
                    );
                }
                conn.pace(cycle, interval);
            }
        },
    )?;
    let after = scrape(&setup.server, ctx);
    let mut out = outcome(tenants.clone(), &mut setup, done, (before, after));
    let mut modelled: Vec<&WindowTenant> = states.iter().flatten().collect();
    modelled.sort_by_key(|w| w.index);
    let survivors: Vec<Survivors> = modelled
        .iter()
        .map(|w| vec![(&w.crowd, &w.live[..])])
        .collect();
    let (expected, observer) = expectations(ctx, &tenants, &survivors);
    verify(&setup.server, &tenants, &expected, &mut out);
    out.expected = expected;
    out.oracle_obs = observer;
    Ok(out)
}
