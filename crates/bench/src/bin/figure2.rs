//! Regenerates Figure 2: runtime comparison between the baseline flow,
//! the median-move state of the art \[18\], and CR&P with k = 1 and k = 10.
//!
//! ```text
//! cargo run -p crp-bench --bin figure2 --release
//! ```

use crp_bench::{default_scale, FlowOutcome, FlowRunner, Optimizer, Start};
use crp_workload::ispd18_profiles;

fn main() {
    let scale = default_scale();
    let runner = FlowRunner::default();
    println!("Figure 2 reproduction — total flow runtime in seconds (scale 1/{scale})");
    println!(
        "{:<15} {:>10} {:>10} {:>10} {:>10}",
        "Benchmark", "Baseline", "[18]", "CR&P k=1", "CR&P k=10"
    );
    for profile in ispd18_profiles() {
        let p = profile.scaled(scale);
        let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
        let median = runner.run(&p, Start::Generator, Optimizer::Median);
        let k1 = runner.run(&p, Start::Generator, Optimizer::Crp(1));
        let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
        let secs = |d: std::time::Duration| format!("{:.3}", d.as_secs_f64());
        println!(
            "{:<15} {:>10} {:>10} {:>10} {:>10}",
            p.name,
            secs(baseline.total_time()),
            if median.outcome == FlowOutcome::Failed {
                format!("{}*", secs(median.total_time()))
            } else {
                secs(median.total_time())
            },
            secs(k1.total_time()),
            secs(k10.total_time()),
        );
    }
    println!();
    println!("* = [18] failed (emulated size cliff or node budget), matching the paper's");
    println!("ispd18_test10 entry.");
    println!("Paper shape: CR&P k=1 adds a small margin over baseline; k=10 grows by a");
    println!("constant factor, not exponentially; [18] is the slowest add-on.");
}
