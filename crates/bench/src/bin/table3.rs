//! Regenerates Table III: wirelength, DRVs, and via counts of the
//! baseline, the median-move state of the art \[18\], and CR&P with k = 1
//! and k = 10, on all ten benchmark profiles.
//!
//! ```text
//! cargo run -p crp-bench --bin table3 --release
//! ```
//!
//! Set `CRP_SCALE` to change the benchmark scale (default 100).

use crp_bench::{
    default_scale, records_to_json, write_results, FlowOutcome, FlowRecord, FlowRunner, Optimizer,
    Start,
};
use crp_drouter::Score;
use crp_workload::ispd18_profiles;

fn main() -> Result<(), String> {
    let scale = default_scale();
    let runner = FlowRunner::default();
    println!("Table III reproduction (scale 1/{scale})");
    println!(
        "{:<15} | {:>12} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} | {:>9} {:>7} {:>7} {:>7}",
        "Benchmark",
        "BL WL(dbu)",
        "[18]%",
        "k=1 %",
        "k=10 %",
        "BL#",
        "[18]#",
        "k=1#",
        "k=10#",
        "BL vias",
        "[18]%",
        "k=1 %",
        "k=10 %"
    );

    let mut sums = [0.0f64; 6];
    let mut counts = [0usize; 6];
    let mut records: Vec<FlowRecord> = Vec::new();
    let mut md = String::from(
        "| Benchmark | BL WL (dbu) | [18] WL% | k=1 WL% | k=10 WL% | BL DRV | [18] DRV | k=1 DRV | k=10 DRV | BL vias | [18] vias% | k=1 vias% | k=10 vias% |\n|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );

    for profile in ispd18_profiles() {
        let p = profile.scaled(scale);
        let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
        let median = runner.run(&p, Start::Generator, Optimizer::Median);
        let k1 = runner.run(&p, Start::Generator, Optimizer::Crp(1));
        let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
        records.extend([&baseline, &median, &k1, &k10].map(FlowRecord::from));

        let wl = |s: &Score| s.wirelength_dbu as f64;
        let vias = |s: &Score| s.vias as f64;
        let pct = Score::improvement_pct;

        let median_failed = median.outcome == FlowOutcome::Failed;
        let fmt_pct = |v: f64, failed: bool| {
            if failed {
                "Failed".to_string()
            } else {
                format!("{v:+.2}")
            }
        };

        let wl18 = pct(wl(&baseline.score), wl(&median.score));
        let wl1 = pct(wl(&baseline.score), wl(&k1.score));
        let wl10 = pct(wl(&baseline.score), wl(&k10.score));
        let v18 = pct(vias(&baseline.score), vias(&median.score));
        let v1 = pct(vias(&baseline.score), vias(&k1.score));
        let v10 = pct(vias(&baseline.score), vias(&k10.score));

        println!(
            "{:<15} | {:>12} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} | {:>9} {:>7} {:>7} {:>7}",
            p.name,
            baseline.score.wirelength_dbu,
            fmt_pct(wl18, median_failed),
            format!("{wl1:+.2}"),
            format!("{wl10:+.2}"),
            baseline.score.drvs,
            if median_failed {
                "-".into()
            } else {
                median.score.drvs.to_string()
            },
            k1.score.drvs,
            k10.score.drvs,
            baseline.score.vias,
            fmt_pct(v18, median_failed),
            format!("{v1:+.2}"),
            format!("{v10:+.2}"),
        );

        md.push_str(&format!(
            "| {} | {} | {} | {wl1:+.2} | {wl10:+.2} | {} | {} | {} | {} | {} | {} | {v1:+.2} | {v10:+.2} |\n",
            p.name,
            baseline.score.wirelength_dbu,
            fmt_pct(wl18, median_failed),
            baseline.score.drvs,
            if median_failed { "-".into() } else { median.score.drvs.to_string() },
            k1.score.drvs,
            k10.score.drvs,
            baseline.score.vias,
            fmt_pct(v18, median_failed),
        ));

        if !median_failed {
            sums[0] += wl18;
            counts[0] += 1;
            sums[3] += v18;
            counts[3] += 1;
        }
        sums[1] += wl1;
        counts[1] += 1;
        sums[2] += wl10;
        counts[2] += 1;
        sums[4] += v1;
        counts[4] += 1;
        sums[5] += v10;
        counts[5] += 1;
    }

    let avg = |i: usize| sums[i] / counts[i].max(1) as f64;
    println!(
        "{:<15} | {:>12} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} | {:>9} {:>7} {:>7} {:>7}",
        "Avg",
        "-",
        format!("{:+.2}", avg(0)),
        format!("{:+.2}", avg(1)),
        format!("{:+.2}", avg(2)),
        "-",
        "-",
        "-",
        "-",
        "-",
        format!("{:+.2}", avg(3)),
        format!("{:+.2}", avg(4)),
        format!("{:+.2}", avg(5)),
    );
    println!();
    println!(
        "Paper (Table III averages): [18] WL +(-0.74) vias +0.74; k=1 WL +0.04 vias +0.80; k=10 WL +0.14 vias +2.06"
    );
    md.push_str(&format!(
        "| **Avg** | | {:+.2} | {:+.2} | {:+.2} | | | | | | {:+.2} | {:+.2} | {:+.2} |\n",
        avg(0),
        avg(1),
        avg(2),
        avg(3),
        avg(4),
        avg(5)
    ));
    write_results(&[
        ("table3.json", &records_to_json(&records)),
        ("table3.md", &md),
    ])?;
    eprintln!("records written to results/table3.json and results/table3.md");
    Ok(())
}
