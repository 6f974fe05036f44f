//! End-to-end flow runners shared by all table/figure binaries.

use crp_core::{Crp, CrpConfig, MedianMoveOutcome, MedianMover, MedianMoverConfig, StageTimers};
use crp_drouter::{evaluate, DetailedResult, DetailedRouter, DrConfig, Score};
use crp_grid::{GridConfig, RouteGrid};
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::Profile;
use std::time::{Duration, Instant};

/// The benchmark scale divisor: Table-II cell/net counts are divided by
/// this before generation. Override with the `CRP_SCALE` environment
/// variable; the default of 100 keeps the largest benchmark at ~2.9k
/// cells, which a laptop routes in seconds.
#[must_use]
pub fn default_scale() -> f64 {
    std::env::var("CRP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(100.0)
}

/// How the placement-optimization stage of a flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// The flow ran to completion.
    Completed,
    /// The median-move baseline abandoned the run (node budget), like the
    /// paper's "Failed" entry for `ispd18_test10`.
    Failed,
}

/// One flow's end-to-end result.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Flow label, e.g. `"baseline"`, `"median"`, `"crp_k10"`.
    pub flow: String,
    /// Benchmark name.
    pub benchmark: String,
    /// ISPD-2018-style score after detailed routing.
    pub score: Score,
    /// The raw detailed-routing result.
    pub detailed: DetailedResult,
    /// Whether the optimization stage completed.
    pub outcome: FlowOutcome,
    /// Global-routing wall clock (including RRR).
    pub gr_time: Duration,
    /// Placement-optimization wall clock (zero for the baseline).
    pub opt_time: Duration,
    /// Detailed-routing wall clock.
    pub dr_time: Duration,
    /// CR&P stage timers when the flow ran CR&P.
    pub stages: Option<StageTimers>,
}

impl FlowResult {
    /// Total flow wall clock.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.gr_time + self.opt_time + self.dr_time
    }
}

/// Drives the paper's flows on one profile with shared configurations.
#[derive(Debug, Clone)]
pub struct FlowRunner {
    /// Grid / cost-model configuration.
    pub grid: GridConfig,
    /// Global-router configuration.
    pub router: RouterConfig,
    /// Detailed-router configuration.
    pub dr: DrConfig,
    /// CR&P configuration.
    pub crp: CrpConfig,
    /// Median-move (\[18\]) configuration.
    pub median: MedianMoverConfig,
}

impl Default for FlowRunner {
    fn default() -> FlowRunner {
        // The paper's [18] binary failed on the 290K-cell ispd18_test10
        // but handled the 192K-cell test8/test9; place the emulated cliff
        // between, scaled like the benchmarks.
        let median = MedianMoverConfig {
            max_cells: Some((250_000.0 / default_scale()).round() as usize),
            ..MedianMoverConfig::default()
        };
        FlowRunner {
            grid: GridConfig::default(),
            router: RouterConfig::default(),
            dr: DrConfig::default(),
            crp: CrpConfig::default(),
            median,
        }
    }
}

/// Where a flow's placement comes from.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// The profile generator's own placement.
    Generator,
    /// The generator's placement stripped and rebuilt from the netlist
    /// alone by `crp-gp` (electrostatic global placement + Abacus
    /// legalization) — the netlist-only cold start.
    Gp(&'a crp_gp::GpConfig),
}

/// What runs between global and detailed routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimizer {
    /// Nothing: the baseline (GR + DR, no cell movement).
    Baseline,
    /// CR&P with this many iterations.
    Crp(usize),
    /// The median-move state of the art \[18\].
    Median,
}

impl FlowRunner {
    /// Runs one flow on `profile`: the placement from `start`, global
    /// routing, `optimizer`, then detailed routing and scoring. The flow
    /// label is `baseline`, `median` or `crp_k{k}`, prefixed with `gp_`
    /// for a [`Start::Gp`] placement.
    ///
    /// # Panics
    ///
    /// Panics when a [`Start::Gp`] placer cannot legalize the profile — a
    /// workload bug, not a recoverable flow outcome.
    #[must_use]
    pub fn run(&self, profile: &Profile, start: Start<'_>, optimizer: Optimizer) -> FlowResult {
        let mut design = profile.generate();
        if let Start::Gp(gp) = start {
            crp_gp::strip_placement(&mut design);
            crp_gp::place(&mut design, gp)
                .unwrap_or_else(|e| panic!("crp-gp failed on {}: {e}", profile.name));
        }

        let t = Instant::now();
        let mut grid = RouteGrid::new(&design, self.grid);
        let mut router = GlobalRouter::new(self.router);
        let mut routing = router.route_all(&design, &mut grid);
        let gr_time = t.elapsed();

        let t = Instant::now();
        let (outcome, stages) = match optimizer {
            Optimizer::Baseline => (FlowOutcome::Completed, None),
            Optimizer::Crp(k) => {
                let mut crp = Crp::new(self.crp);
                let _reports = crp.run(k, &mut design, &mut grid, &mut router, &mut routing);
                (FlowOutcome::Completed, Some(crp.timers))
            }
            Optimizer::Median => {
                let mover = MedianMover::new(self.median);
                match mover.run(&mut design, &mut grid, &mut router, &mut routing) {
                    MedianMoveOutcome::Completed { .. } => (FlowOutcome::Completed, None),
                    MedianMoveOutcome::Failed { .. } => (FlowOutcome::Failed, None),
                }
            }
        };
        let opt_time = match optimizer {
            Optimizer::Baseline => Duration::ZERO,
            _ => t.elapsed(),
        };

        let t = Instant::now();
        let detailed = DetailedRouter::new(self.dr).run(&design, &grid, &routing);
        let dr_time = t.elapsed();
        let score = evaluate(&detailed);
        let seed = if let Start::Gp(_) = start { "gp_" } else { "" };
        FlowResult {
            flow: match optimizer {
                Optimizer::Baseline => format!("{seed}baseline"),
                Optimizer::Crp(k) => format!("{seed}crp_k{k}"),
                Optimizer::Median => format!("{seed}median"),
            },
            benchmark: profile.name.clone(),
            score,
            detailed,
            outcome,
            gr_time,
            opt_time,
            dr_time,
            stages,
        }
    }
}

/// A serialization-friendly snapshot of a [`FlowResult`] (durations in
/// seconds), for JSON result files.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowRecord {
    /// Flow label.
    pub flow: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Wirelength in DBU.
    pub wirelength_dbu: i64,
    /// Via count.
    pub vias: u64,
    /// Total DRVs.
    pub drvs: usize,
    /// Weighted contest score.
    pub weighted_score: f64,
    /// Whether the optimization stage completed.
    pub completed: bool,
    /// Global-routing seconds.
    pub gr_secs: f64,
    /// Optimization seconds.
    pub opt_secs: f64,
    /// Detailed-routing seconds.
    pub dr_secs: f64,
}

impl From<&FlowResult> for FlowRecord {
    fn from(r: &FlowResult) -> FlowRecord {
        FlowRecord {
            flow: r.flow.clone(),
            benchmark: r.benchmark.clone(),
            wirelength_dbu: r.score.wirelength_dbu,
            vias: r.score.vias,
            drvs: r.score.drvs,
            weighted_score: r.score.weighted,
            completed: r.outcome == FlowOutcome::Completed,
            gr_secs: r.gr_time.as_secs_f64(),
            opt_secs: r.opt_time.as_secs_f64(),
            dr_secs: r.dr_time.as_secs_f64(),
        }
    }
}

/// Writes each `(file name, contents)` pair under `results/`, creating
/// the directory first. The error names the path that failed, so a bench
/// binary can return it from `main` instead of losing its output silently.
pub fn write_results(files: &[(&str, &str)]) -> Result<(), String> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Serializes records as a JSON array (hand-rolled: the workspace keeps
/// its dependency set minimal, and the record layout is flat).
#[must_use]
pub fn records_to_json(records: &[FlowRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"flow\": \"{}\", \"benchmark\": \"{}\", ",
                "\"wirelength_dbu\": {}, \"vias\": {}, \"drvs\": {}, ",
                "\"weighted_score\": {:.3}, \"completed\": {}, ",
                "\"gr_secs\": {:.4}, \"opt_secs\": {:.4}, \"dr_secs\": {:.4}}}{}\n"
            ),
            r.flow,
            r.benchmark,
            r.wirelength_dbu,
            r.vias,
            r.drvs,
            r.weighted_score,
            r.completed,
            r.gr_secs,
            r.opt_secs,
            r.dr_secs,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_workload::ispd18_profiles;

    #[test]
    fn baseline_flow_runs_clean_on_small_profile() {
        let profile = ispd18_profiles()[0].scaled(400.0);
        let r = FlowRunner::default().run(&profile, Start::Generator, Optimizer::Baseline);
        assert_eq!(r.outcome, FlowOutcome::Completed);
        assert!(r.score.wirelength_dbu > 0);
        assert!(r.score.vias > 0);
        assert_eq!(r.detailed.drc.opens, 0);
    }

    #[test]
    fn crp_flow_produces_stage_timers() {
        let profile = ispd18_profiles()[0].scaled(400.0);
        let r = FlowRunner::default().run(&profile, Start::Generator, Optimizer::Crp(2));
        assert!(r.stages.is_some());
        assert!(r.opt_time > Duration::ZERO);
    }

    #[test]
    fn records_serialize_to_wellformed_json() {
        let rec = FlowRecord {
            flow: "baseline".into(),
            benchmark: "ispd18_test1".into(),
            wirelength_dbu: 123,
            vias: 45,
            drvs: 0,
            weighted_score: 6.5,
            completed: true,
            gr_secs: 0.1,
            opt_secs: 0.0,
            dr_secs: 0.2,
        };
        let json = records_to_json(&[rec.clone(), rec]);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches('{').count(), 2);
        assert_eq!(json.matches('}').count(), 2);
        assert_eq!(json.matches("\"flow\": \"baseline\"").count(), 2);
        assert!(json.contains("\"vias\": 45"));
        // Exactly one comma between the two objects at top level.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn flows_are_deterministic() {
        let profile = ispd18_profiles()[1].scaled(800.0);
        let runner = FlowRunner::default();
        let a = runner.run(&profile, Start::Generator, Optimizer::Crp(1));
        let b = runner.run(&profile, Start::Generator, Optimizer::Crp(1));
        assert_eq!(a.score.wirelength_dbu, b.score.wirelength_dbu);
        assert_eq!(a.score.vias, b.score.vias);
        assert_eq!(a.score.drvs, b.score.drvs);
    }
}
