//! Ablation benches for the design choices Section V.B credits for CR&P's
//! advantage over \[18\]:
//!
//! - **congestion-aware pricing** (Eq. 10 penalty) vs pure-length pricing,
//! - **critical-cell prioritization** (Algorithm 1 sort) vs id order,
//! - a **γ sweep** (fraction of cells considered per iteration),
//! - a **legalizer window sweep** (`N_site × N_row`),
//! - a **slope-factor `S` sweep** of the logistic penalty.
//!
//! ```text
//! cargo run -p crp-bench --bin ablations --release
//! ```

use crp_bench::{default_scale, FlowRunner, Optimizer, Start};
use crp_drouter::Score;
use crp_workload::ispd18_profiles;

fn main() {
    let scale = default_scale();
    // A congested profile, where the paper says the design choices matter.
    let profile = ispd18_profiles()[6].scaled(scale); // ispd18_test7 analogue
    let k = 5;
    println!("Ablations on {} (k = {k}, scale 1/{scale})", profile.name);

    let baseline = FlowRunner::default().run(&profile, Start::Generator, Optimizer::Baseline);
    let pct = Score::improvement_pct;
    // Runs CR&P k with `runner`'s configuration and prints it against the
    // baseline.
    let report = |label: &str, runner: &FlowRunner| {
        let r = runner.run(&profile, Start::Generator, Optimizer::Crp(k));
        println!(
            "{label:<38} WL {:+.2}%  vias {:+.2}%  DRVs {}  ({:.2}s)",
            pct(
                baseline.score.wirelength_dbu as f64,
                r.score.wirelength_dbu as f64
            ),
            pct(baseline.score.vias as f64, r.score.vias as f64),
            r.score.drvs,
            r.total_time().as_secs_f64(),
        );
    };
    report("CR&P (paper configuration)", &FlowRunner::default());

    // (a) congestion-blind pricing — the [18]-style cost model.
    let mut runner = FlowRunner::default();
    runner.crp.congestion_aware = false;
    report("  - congestion penalty off", &runner);

    // (b) no prioritization — cells visited in id order.
    let mut runner = FlowRunner::default();
    runner.crp.prioritize = false;
    report("  - prioritization off", &runner);

    // (c) γ sweep.
    for gamma in [0.2, 0.4, 0.6, 0.8] {
        let mut runner = FlowRunner::default();
        runner.crp.gamma = gamma;
        report(&format!("  gamma = {gamma}"), &runner);
    }

    // (d) legalizer window sweep.
    for (n_site, n_row) in [(10, 3), (20, 5), (40, 9)] {
        let mut runner = FlowRunner::default();
        runner.crp.n_site = n_site;
        runner.crp.n_row = n_row;
        report(
            &format!("  window = {n_site} sites x {n_row} rows"),
            &runner,
        );
    }

    // (e) slope factor S of the logistic penalty.
    for slope in [0.25, 1.0, 4.0] {
        let mut runner = FlowRunner::default();
        runner.grid.slope = slope;
        report(&format!("  slope S = {slope}"), &runner);
    }

    // (f) DP layer assignment in the global router (CUGR-style tree DP vs
    // the default greedy per-segment assignment).
    let mut runner = FlowRunner::default();
    runner.router.layer_dp = true;
    report("  router layer assignment = DP", &runner);
}
