//! Metric definitions, the end-to-end figures of an untraced run, the
//! host record, and the result files a run leaves in `.bench_out/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::run::{Kind, Op};
use crate::workloads::Outcome;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Sample count and the percentile a tail really is.
    pub note: String,
    /// Whether the figure is in the result line `BENCHMARK.json` bounds.
    /// Tails are printed and recorded but not gated: on a shared host
    /// they follow the CPU time the hypervisor steals more than the
    /// program (see README.md).
    pub gated: bool,
}

impl Figure {
    /// A figure without a note.
    pub fn new(name: &str, value: f64, unit: &'static str, better: &'static str) -> Figure {
        Figure {
            name: name.to_string(),
            value,
            unit,
            better,
            note: String::new(),
            gated: true,
        }
    }
}

/// Nearest-rank value at `pct` of sorted `samples`, capped at the highest
/// rank that still has ten samples beyond it. Returns the value and the
/// percentile actually taken.
pub fn tail(sorted: &[f64], pct: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let wanted = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n.saturating_sub(11));
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// p50 and the tail at `tail_pct` of `samples` (latencies in ms), each
/// with its sample count; the tail is noted with the percentile it really
/// is.
fn latency_pair(out: &mut Vec<Figure>, base: &str, tail_pct: f64, samples: &[f64]) {
    let mut all = samples.to_vec();
    all.sort_by(f64::total_cmp);
    let n = all.len();
    let mut fig = Figure::new(&format!("{base}_p50_ms"), tail(&all, 50.0).0, "ms", "lower");
    fig.note = format!("n={n}");
    out.push(fig);
    let (value, pct) = tail(&all, tail_pct);
    let mut fig = Figure::new(&format!("{base}_p{tail_pct}_ms"), value, "ms", "lower");
    fig.note = format!("n={n} p{pct:.2}; not gated");
    fig.gated = false;
    out.push(fig);
}

/// Per-batch visibility in ms: from an ingest's send to the end of the
/// first publish of the same tenant sent after that ingest's ack.
pub fn visible_ms(ops: &[Op]) -> Vec<f64> {
    let mut cuts: Vec<(usize, u64, u64)> = ops
        .iter()
        .filter(|op| op.ok && op.kind == Kind::Publish)
        .map(|op| (op.tenant, op.sent, op.done))
        .collect();
    cuts.sort_unstable();
    ops.iter()
        .filter(|op| op.ok && op.kind == Kind::Ingest)
        .filter_map(|op| {
            let i = cuts.partition_point(|&(t, sent, _)| (t, sent) < (op.tenant, op.done));
            cuts.get(i)
                .filter(|&&(t, _, _)| t == op.tenant)
                .map(|&(_, _, done)| (done - op.sent) as f64 / 1e6)
        })
        .collect()
}

/// The end-to-end figures of an untraced run.
pub fn end_to_end(outcome: &Outcome) -> Vec<Figure> {
    let ms = |op: &Op| (op.done - op.sent) as f64 / 1e6;
    let of = |kind: Kind| -> Vec<f64> {
        outcome
            .ops
            .iter()
            .filter(|op| op.ok && op.kind == kind)
            .map(ms)
            .collect()
    };
    let mut figs = Vec::new();
    let mut setup = Figure::new("setup_s", median(&outcome.setup_s), "s", "lower");
    setup.note = format!("median of {} set-ups", outcome.setup_s.len());
    figs.push(setup);
    // The server's own ingest rate: the median over ingest requests of
    // posts acknowledged per second in flight. The generator's pacing and
    // its other requests do not enter it, so it follows the cost of one
    // ingest request. A sum over all requests followed their stalls
    // (IQR/median 0.19 on window-churn over ten seeds).
    let rates: Vec<f64> = outcome
        .ops
        .iter()
        .filter(|op| op.ok && op.kind == Kind::Ingest)
        .map(|op| op.posts as f64 / (ms(op) / 1e3))
        .collect();
    let mut rate = Figure::new("ingest_posts_per_s", median(&rates), "1/s", "higher");
    rate.note = format!("n={}", rates.len());
    figs.push(rate);
    latency_pair(&mut figs, "ingest", 99.0, &of(Kind::Ingest));
    latency_pair(&mut figs, "retract", 99.0, &of(Kind::Retract));
    latency_pair(&mut figs, "publish", 90.0, &of(Kind::Publish));
    latency_pair(&mut figs, "read", 90.0, &of(Kind::Read));
    latency_pair(&mut figs, "visible", 99.0, &visible_ms(&outcome.ops));
    figs.push(Figure::new("peak_rss_mb", outcome.rss_mb, "MiB", "lower"));
    figs
}

/// Where and how a result was measured. Results are only comparable when
/// everything but the seed and the commit agrees.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to the process.
    pub nproc: usize,
    /// Server `--workers`.
    pub workers: usize,
    /// Tenant engine threads.
    pub engine_threads: usize,
    /// Generator connections (and threads).
    pub conns: usize,
    /// Workload seed.
    pub seed: u64,
    /// Source commit, when the checkout is a git repository.
    pub commit: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl Host {
    /// Records the current host.
    pub fn detect(workers: usize, engine_threads: usize, conns: usize, seed: u64) -> Host {
        let cwd = std::env::current_dir().unwrap_or_default();
        // Never look for a repository above the working directory.
        let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
        let commit = command_line("git", &["rev-parse", "HEAD"], Some(&ceiling))
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"], None).unwrap_or_else(|| "unknown".into());
        Host {
            nproc: crate::nproc(),
            workers,
            engine_threads,
            conns,
            seed,
            commit,
            rustc,
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "nproc": self.nproc,
            "workers": self.workers,
            "engine_threads": self.engine_threads,
            "generator_connections": self.conns,
            "seed": self.seed,
            "commit": self.commit,
            "rustc": self.rustc,
        })
    }
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str], ceiling: Option<&Path>) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    if let Some(ceiling) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    let output = cmd.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Some(text.lines().next()?.trim().to_string())
}

/// The host-record fields that must agree for two results to compare.
const HOST_KEYS: [&str; 5] = [
    "nproc",
    "workers",
    "engine_threads",
    "generator_connections",
    "rustc",
];

/// Writes a run's record to `.bench_out/<workload>/seed-<s>-trace-<t>.json`
/// and returns its path.
///
/// # Errors
///
/// File-system failures.
pub fn write_record(
    workload: &str,
    trace: bool,
    host: &Host,
    figures: &[Figure],
    counts: (bool, usize, usize),
    errors: &[String],
    extra: Value,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_out").join(workload);
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!("seed-{}-trace-{}.json", host.seed, u8::from(trace)));
    let metrics: Vec<Value> = figures
        .iter()
        .map(|f| {
            json!({"name": f.name, "value": f.value, "unit": f.unit, "better": f.better, "note": f.note})
        })
        .collect();
    let record = json!({
        "workload": workload,
        "trace": trace,
        "host": host.to_json(),
        "correct": counts.0,
        "attempted": counts.1,
        "failed": counts.2,
        "metrics": metrics,
        "errors": errors.iter().take(20).cloned().collect::<Vec<_>>(),
        "detail": extra,
    });
    std::fs::write(
        &file,
        serde_json::to_string_pretty(&record).unwrap_or_default(),
    )?;
    Ok(file)
}

/// `perfbench compare <base-dir> <new-dir>`: per workload and metric,
/// each side's median and quartiles over its records and the change of
/// the medians. Refuses (returns `Err`) when any two records disagree on
/// the host fields that make results comparable.
///
/// # Errors
///
/// Unreadable records or differing host records.
pub fn compare(base: &Path, new: &Path) -> Result<String, String> {
    let sides = [load(base)?, load(new)?];
    let mut reference: Option<(PathBuf, Vec<String>)> = None;
    for (file, record) in sides.iter().flatten() {
        let host: Vec<String> = HOST_KEYS
            .iter()
            .map(|k| {
                record
                    .field("host")
                    .and_then(|h| h.field(k))
                    .map(|v| serde_json::to_string(v).unwrap_or_default())
                    .unwrap_or_default()
            })
            .collect();
        match &reference {
            None => reference = Some((file.clone(), host)),
            Some((first, expected)) if *expected != host => {
                return Err(format!(
                    "host records differ ({} vs {}): {expected:?} vs {host:?}; results are not comparable",
                    first.display(),
                    file.display()
                ));
            }
            Some(_) => {}
        }
    }
    let mut table = std::collections::BTreeMap::<(String, String), [Vec<f64>; 2]>::new();
    for (side, records) in sides.iter().enumerate() {
        for (_, record) in records {
            let workload = record
                .field("workload")
                .ok()
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let Ok(Value::Array(metrics)) = record.field("metrics") else {
                continue;
            };
            for m in metrics {
                let name = m.field("name").ok().and_then(Value::as_str).unwrap_or("?");
                let value = m.field("value").ok().and_then(Value::as_f64).unwrap_or(0.0);
                table
                    .entry((workload.clone(), name.to_string()))
                    .or_default()[side]
                    .push(value);
            }
        }
    }
    let mut out = String::new();
    for ((workload, metric), [a, b]) in &table {
        let (qa, qb) = (quartiles(a), quartiles(b));
        let change = if qa.1 != 0.0 {
            (qb.1 / qa.1 - 1.0) * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{workload:14} {metric:32} base {:.4} [{:.4}, {:.4}] n={}  new {:.4} [{:.4}, {:.4}] n={}  {change:+.1}%",
            qa.1, qa.0, qa.2, a.len(), qb.1, qb.0, qb.2, b.len()
        );
    }
    Ok(out)
}

/// `(q1, median, q3)`, interpolated as Python's `statistics.quantiles`
/// (exclusive method) does for `n=4`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

fn load(dir: &Path) -> Result<Vec<(PathBuf, Value)>, String> {
    let mut records = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let value: Value = serde_json::from_slice(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                if value.field("host").is_ok() {
                    records.push((path, value));
                }
            }
        }
    }
    records.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples, 50.0), (50.0, 50.0));
        assert_eq!(tail(&samples, 90.0), (90.0, 90.0));
        // p99 of 100 samples has one beyond it: fall back to p90, the
        // highest rank with ten beyond.
        assert_eq!(tail(&samples, 99.0), (90.0, 90.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0), (1980.0, 99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
