//! End-to-end and per-layer benchmark of the CR&P flows and the
//! `crp-serve` daemon. See `README.md` beside this crate for the
//! workloads, the metrics and how to run them.

pub mod flow;
pub mod flows;
pub mod inputs;
pub mod metrics;
pub mod serve;
pub mod serve_run;
pub mod stats;
pub mod trace;

use metrics::Record;
use std::path::Path;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ispd_congested", "netlist_gp", "serve_closed"];

/// Runs `workload` for `seconds` in the scratch directory `dir`.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Record, String> {
    match workload {
        "ispd_congested" => Ok(flows::run(
            &flows::ispd_congested(100.0),
            seed,
            seconds,
            trace,
            dir,
        )),
        "netlist_gp" => Ok(flows::run(
            &flows::netlist_gp(10.0),
            seed,
            seconds,
            trace,
            dir,
        )),
        "serve_closed" => Ok(serve_run::run(seed, seconds, trace, dir)),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}
