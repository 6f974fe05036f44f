//! The netlist-only differential: for each netlist-only profile, the two
//! CR&P trajectories on the same netlist — one from the generator's
//! scatter seed, one from the `crp-gp` analytical seed (electrostatic
//! GP + Abacus) — as baseline (GR+DR, no movement) and CR&P k=10
//! endpoints.
//!
//! ```text
//! cargo run -p crp-bench --bin gp_seed --release
//! ```
//!
//! Set `CRP_SCALE` to change the benchmark scale (default 100).

use crp_bench::{
    default_scale, records_to_json, write_results, FlowRecord, FlowRunner, Optimizer, Start,
};
use crp_gp::GpConfig;
use crp_workload::netlist_only_profiles;

fn main() -> Result<(), String> {
    let scale = default_scale();
    let runner = FlowRunner::default();
    let gp = GpConfig {
        threads: 2,
        ..GpConfig::default()
    };
    println!(
        "Netlist-only seed differential (scale 1/{scale}, gp {} iters)",
        gp.iterations
    );
    println!(
        "{:<12} {:<12} | {:>12} {:>6} {:>9} {:>10} | {:>12} {:>6} {:>9} {:>10}",
        "Benchmark",
        "Seed",
        "BL WL(dbu)",
        "BL#",
        "BL vias",
        "BL score",
        "k10 WL(dbu)",
        "k10#",
        "k10 vias",
        "k10 score",
    );

    let mut records: Vec<FlowRecord> = Vec::new();
    let mut md = String::from(
        "| Benchmark | Seed | BL WL (dbu) | BL DRV | BL vias | BL score | k=10 WL (dbu) | k=10 DRV | k=10 vias | k=10 score |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );

    for profile in netlist_only_profiles() {
        let p = profile.scaled(scale);
        let rows = [
            (
                "generator",
                runner.run(&p, Start::Generator, Optimizer::Baseline),
                runner.run(&p, Start::Generator, Optimizer::Crp(10)),
            ),
            (
                "crp-gp",
                runner.run(&p, Start::Gp(&gp), Optimizer::Baseline),
                runner.run(&p, Start::Gp(&gp), Optimizer::Crp(10)),
            ),
        ];
        for (seed, base, crp) in rows {
            records.extend([&base, &crp].map(FlowRecord::from));
            println!(
                "{:<12} {:<12} | {:>12} {:>6} {:>9} {:>10.1} | {:>12} {:>6} {:>9} {:>10.1}",
                p.name,
                seed,
                base.score.wirelength_dbu,
                base.score.drvs,
                base.score.vias,
                base.score.weighted,
                crp.score.wirelength_dbu,
                crp.score.drvs,
                crp.score.vias,
                crp.score.weighted,
            );
            md.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.1} | {} | {} | {} | {:.1} |\n",
                p.name,
                seed,
                base.score.wirelength_dbu,
                base.score.drvs,
                base.score.vias,
                base.score.weighted,
                crp.score.wirelength_dbu,
                crp.score.drvs,
                crp.score.vias,
                crp.score.weighted,
            ));
        }
    }

    write_results(&[
        ("gp_seed.json", &records_to_json(&records)),
        ("gp_seed.md", &md),
    ])?;
    eprintln!("records written to results/gp_seed.json and results/gp_seed.md");
    Ok(())
}
