//! Benchmark harness for the CR&P reproduction.
//!
//! [`flows`] runs the paper's four end-to-end flows on a benchmark
//! profile — baseline (GR + DR), the median-move state of the art \[18\],
//! and CR&P with k iterations — and returns the ISPD-2018-style scores
//! plus wall-clock timings. The `table2`, `table3`, `figure2`, `figure3`,
//! and `ablations` binaries print the paper's tables and figures from
//! these runs; see `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flows;

pub use flows::{
    default_scale, records_to_json, write_results, FlowOutcome, FlowRecord, FlowResult, FlowRunner,
    Optimizer, Start,
};
