//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload and prints its metrics; the last stdout line is the
//! JSON result. `perfbench compare BASE_DIR NEW_DIR` compares two sets of
//! result records and refuses when their host records differ.

use std::process::ExitCode;

use perfbench::report::{self, Figure, Host};
use perfbench::workloads::{self, Ctx};
use perfbench::{nproc, replay, run};
use serde_json::{json, Value};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-oracle]\n       perfbench compare BASE_DIR NEW_DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, base, new] => match report::compare(base.as_ref(), new.as_ref()) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt_oracle) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = it.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = it.next().map(|v| v == "1"),
            "--smoke" => smoke = true,
            "--corrupt-oracle" => corrupt_oracle = true,
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let server_bin = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("crowdtz-serve"),
        Err(e) => return fail(&format!("cannot locate own executable: {e}")),
    };
    if !server_bin.exists() {
        return fail(&format!("{} not built", server_bin.display()));
    }
    let dir = match run::RunDir::create(&format!("{workload}-{seed}")) {
        Ok(dir) => dir,
        Err(e) => return fail(&format!("scratch directory: {e}")),
    };
    let ctx = Ctx {
        server_bin,
        workers: nproc(),
        // The accept workers already occupy every CPU; per-publish
        // worker threads would only oversubscribe them.
        threads: 1,
        conns: workloads::connections(&workload),
        seed,
        // A traced run drives the server for half the time: its replay
        // answers every request twice (service and twin engine) and takes
        // about twice as long as the phase it replays.
        seconds: if trace { seconds / 2.0 } else { seconds },
        smoke,
        trace,
        corrupt_oracle,
        dir: dir.0.clone(),
    };
    let host = Host::detect(ctx.workers, ctx.threads, ctx.conns, seed);
    let outcome = match workloads::run(&workload, &ctx) {
        Ok(outcome) => outcome,
        Err(e) => return fail(&format!("{workload}: {e}")),
    };

    let mut attempted = outcome.ops.len() + outcome.checks;
    let mut failed = outcome.ops.iter().filter(|op| !op.ok).count() + outcome.check_failures;
    let mut errors = outcome.errors.clone();
    let (figures, detail) = if trace {
        let replayed = replay::run(&outcome, &dir.0.join("replay"));
        print!("{}", replayed.table);
        attempted += replayed.checks;
        failed += replayed.failures;
        errors.extend(replayed.errors);
        (replayed.figures, replayed.detail)
    } else {
        (report::end_to_end(&outcome), Value::Null)
    };
    let correct = failed == 0;
    for e in errors.iter().take(10) {
        eprintln!("perfbench: {e}");
    }
    println!(
        "# host: nproc={} workers={} engine_threads={} connections={} seed={} commit={} rustc={:?}",
        host.nproc,
        host.workers,
        host.engine_threads,
        host.conns,
        host.seed,
        host.commit,
        host.rustc
    );
    println!(
        "# {:<34} {:>16} {:<6} {:<7} note",
        "metric", "value", "unit", "better"
    );
    for f in &figures {
        println!(
            "# {:<34} {:>16.4} {:<6} {:<7} {}",
            f.name, f.value, f.unit, f.better, f.note
        );
    }
    match report::write_record(
        &workload,
        trace,
        &host,
        &figures,
        (correct, attempted, failed),
        &errors,
        detail,
    ) {
        Ok(path) => println!("# record: {}", path.display()),
        Err(e) => eprintln!("perfbench: record not written: {e}"),
    }
    let metrics = Value::Object(
        figures
            .iter()
            .filter(|f| f.gated)
            .map(|f: &Figure| (f.name.clone(), json!({"value": f.value, "unit": f.unit})))
            .collect(),
    );
    println!(
        "{}",
        json!({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    ExitCode::FAILURE
}
