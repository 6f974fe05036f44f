//! The metric catalogue and the result record every run prints.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two equal.

use crate::stats::percentile;
use crp_serve::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("flow_s", "s", "lower", 0.25),
    ("score", "score", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("turnaround_p50_ms", "ms", "lower", 0.25),
    ("turnaround_p90_ms", "ms", "lower", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_p90_ms", "ms", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`. A unit ending in
/// `-inexact` marks a counter that does not repeat exactly between
/// identical runs, so it cannot be gated.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("lefdef.read_s", "s", "lower"),
    ("lefdef.write_s", "s", "lower"),
    ("lefdef.bytes", "bytes", "lower"),
    ("gp.place_s", "s", "lower"),
    ("gp.iterations", "count", "lower"),
    ("gp.final_overflow", "ratio", "lower"),
    ("gp.hpwl", "dbu", "lower"),
    ("gp.legalize_s", "s", "lower"),
    ("gr.route_s", "s", "lower"),
    ("gr.overflow", "tracks", "lower"),
    ("gr.overflowed_edges", "count", "lower"),
    ("gr.wirelength", "gcells", "lower"),
    ("gr.vias", "count", "lower"),
    ("crp.label_s", "s", "lower"),
    ("crp.gcp_s", "s", "lower"),
    ("crp.ecc_s", "s", "lower"),
    ("crp.select_s", "s", "lower"),
    ("crp.update_s", "s", "lower"),
    ("crp.other_s", "s", "lower"),
    ("crp.ecc_cache_hits", "count-inexact", "higher"),
    ("crp.ecc_cache_misses", "count-inexact", "lower"),
    ("crp.ecc_cache_lookups", "count", "lower"),
    ("crp.ecc_cache_hit_rate", "ratio-inexact", "higher"),
    ("crp.critical_cells", "count", "lower"),
    ("crp.candidates", "count", "lower"),
    ("crp.moved_cells", "count", "higher"),
    ("crp.move_ratio", "ratio", "higher"),
    ("crp.rerouted_nets", "count", "lower"),
    ("crp.cost_delta", "cost", "lower"),
    ("crp.zero_move_iterations", "count", "lower"),
    ("dr.s", "s", "lower"),
    ("dr.layer_bumps", "count", "lower"),
    ("dr.detours", "count", "lower"),
    ("dr.drvs", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    ("serve.submit_client_p50_ms", "ms", "lower"),
    ("serve.watch_client_p50_ms", "ms", "lower"),
    ("serve.fetch_client_p50_ms", "ms", "lower"),
    ("serve.submit_server_p50_us", "us", "lower"),
    ("serve.watch_server_p50_us", "us", "lower"),
    ("serve.fetch_server_p50_us", "us", "lower"),
    ("serve.submit_gap_ms", "ms", "lower"),
    ("serve.watch_gap_ms", "ms", "lower"),
    ("serve.fetch_gap_ms", "ms", "lower"),
    ("serve.job_run_ms", "ms", "lower"),
    ("serve.admission_rejects", "count", "lower"),
    ("samples.turnaround", "count", "higher"),
    ("samples.request", "count", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
];

/// Where a printed value's base or sample count is shown.
const BASES: [(&str, &str); 11] = [
    ("crp.ecc_cache_hit_rate", "crp.ecc_cache_lookups"),
    ("crp.move_ratio", "crp.critical_cells"),
    ("error_rate", "attempted"),
    ("turnaround_p50_ms", "samples.turnaround"),
    ("turnaround_p90_ms", "samples.turnaround"),
    ("request_p50_ms", "samples.request"),
    ("request_p90_ms", "samples.request"),
    ("flow_s", "samples.turnaround"),
    ("serve.submit_client_p50_ms", "samples.turnaround"),
    ("serve.watch_client_p50_ms", "samples.turnaround"),
    ("serve.fetch_client_p50_ms", "samples.turnaround"),
];

/// What one run prints.
#[derive(Debug, Default)]
pub struct Record {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Messages of the failures.
    pub failures: Vec<String>,
    /// Every metric measured, by name.
    pub values: BTreeMap<String, f64>,
    /// Remarks printed beside a metric (e.g. a percentile below the
    /// reporting rule).
    pub notes: BTreeMap<String, String>,
    /// Extra human-readable lines (the span table).
    pub lines: Vec<String>,
}

impl Record {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds a note to a metric.
    pub fn note(&mut self, name: &str, note: String) {
        self.notes.insert(name.to_string(), note);
    }

    /// Sets percentile `p` of `values`, times `scale`, noting when it has
    /// fewer than ten samples beyond it. The value is set either way,
    /// because every run prints every end-to-end metric.
    pub fn set_percentile(&mut self, name: &str, values: &[f64], p: f64, scale: f64) {
        if let Some(q) = percentile(values, p) {
            self.set(name, q.value * scale);
            if !q.reportable() {
                self.note(
                    name,
                    format!(
                        "n={}, {} beyond: below the ten-beyond reporting rule",
                        q.samples, q.beyond
                    ),
                );
            }
        }
    }

    /// Counts `n` attempts of which `failures` failed.
    pub fn count(&mut self, n: usize, failures: Vec<String>) {
        self.attempted += n as u64;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    /// Failed attempts over attempts.
    #[allow(clippy::cast_precision_loss)]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report followed by the JSON result line, which
    /// carries the end-to-end metrics (`traced == false`) or the
    /// per-layer ones (`traced == true`).
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let catalogue: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
        };
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let mut line = format!("{name:<30} {value:>16.6} {unit}");
            if let Some((_, base)) = BASES.iter().find(|(m, _)| *m == name) {
                let b = if *base == "attempted" {
                    self.attempted as f64
                } else {
                    self.values.get(*base).copied().unwrap_or(0.0)
                };
                line.push_str(&format!("  (base {base} = {b})"));
            }
            if let Some(n) = self.notes.get(name) {
                line.push_str(&format!("  [{n}]"));
            }
            out.push_str(&line);
            out.push('\n');
            metrics.push((
                name,
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::str(unit)),
                ]),
            ));
        }
        out.push_str(&format!(
            "error_rate {:.6} (failed {} of attempted {})\n",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("metrics", Json::obj(metrics)),
        ]);
        out.push_str(&result.to_string());
        out.push('\n');
        out
    }
}
