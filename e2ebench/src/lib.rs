//! End-to-end benchmark of the DASP serving stack: text in, rows out through
//! `ServingEngine::serve`, with every answer checked. See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod check;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Config, Workload};

/// Environment variables that silently change routing, shard count, block
/// size or seal size, or inject faults. A run with any of them set would not
/// measure the configuration the benchmark describes, so it is refused.
pub const REFUSED_ENV: [&str; 5] =
    ["DASP_ROUTE", "DASP_SHARDS", "DASP_POSTING_BLOCK", "DASP_SEGMENT_SEAL", "DASP_FAULT_SEED"];

/// The refused variables that are set (to anything, even empty).
pub fn refused_env_set(get: impl Fn(&str) -> Option<String>) -> Vec<&'static str> {
    REFUSED_ENV.into_iter().filter(|name| get(name).is_some()).collect()
}

/// The build and host a result was measured on.
pub fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance nproc={nproc} rustc=\"{}\" profile={} commit={} source_digest={}",
        env!("E2EBENCH_RUSTC"),
        env!("E2EBENCH_PROFILE"),
        env!("E2EBENCH_COMMIT"),
        env!("E2EBENCH_SOURCE_DIGEST"),
    )
}
