//! `perfbench` — the end-to-end benchmark of the crowdtz stack.
//!
//! One command runs one workload from a seed: it spawns `crowdtz-serve`,
//! sets up the workload's tenants, drives them over loopback with
//! closed-loop connections for a fixed time, checks every tenant's report
//! against the paper's batch analysis of the surviving posts, and prints
//! the end-to-end metrics. With `--trace 1` it also replays the same
//! requests in-process on one thread and splits their time by layer.
//! `README.md` in this directory has the workloads and the metric map.

#![forbid(unsafe_code)]

pub mod gen;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod workloads;

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
