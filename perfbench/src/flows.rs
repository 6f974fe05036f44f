//! The flow workloads, `ispd_congested` and `netlist_gp`.

use crate::flow::{check_outputs, run_flow, FlowPlan, FlowSample};
use crate::inputs::write_design;
use crate::metrics::Record;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crp_core::CrpConfig;
use crp_gp::GpConfig;
use crp_workload::Profile;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Worker threads of CR&P and GP in the flows.
pub const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// A flow workload: its design and what runs on it.
pub struct FlowWorkload {
    /// Design profile (scaled; its own generator seed).
    pub profile: Profile,
    /// The flow between read and write.
    pub plan: FlowPlan,
}

fn crp_config() -> CrpConfig {
    CrpConfig {
        threads: THREADS,
        ..CrpConfig::default()
    }
}

/// `ispd_congested`: the `ispd18_test6` analogue at 1/100, placement
/// refined by the generator, k = 10.
pub fn ispd_congested(divisor: f64) -> FlowWorkload {
    FlowWorkload {
        profile: crp_workload::ispd18_profiles()[5].scaled(divisor),
        plan: FlowPlan {
            gp: None,
            k: 10,
            crp: crp_config(),
        },
    }
}

/// `netlist_gp`: `gp_mixed` at 1/10, placed from the netlist alone.
pub fn netlist_gp(divisor: f64) -> FlowWorkload {
    let profile = crp_workload::netlist_only_profiles()
        .into_iter()
        .find(|p| p.name == "gp_mixed")
        .expect("gp_mixed is a netlist-only profile")
        .scaled(divisor);
    FlowWorkload {
        profile,
        plan: FlowPlan {
            gp: Some(GpConfig {
                threads: THREADS,
                ..GpConfig::default()
            }),
            k: 10,
            crp: crp_config(),
        },
    }
}

/// Per-layer metrics of one traced flow: the flow's counters plus the
/// self time of its spans, grouped by layer.
#[allow(clippy::cast_precision_loss)]
pub fn layer_metrics(
    sample: &FlowSample,
    tracer: &Tracer,
    request: u64,
) -> BTreeMap<&'static str, f64> {
    let lt = tracer.layer_times(Some(request));
    let own = |n: &str| lt.get(n).map_or(0.0, |l| l.self_s);
    let mut m = sample.layers.clone();
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    m.insert(
        "lefdef.read_s",
        own("lefdef.parse_lef") + own("lefdef.parse_def"),
    );
    m.insert(
        "lefdef.write_s",
        own("lefdef.write_def") + own("lefdef.write_guides"),
    );
    m.insert("gp.place_s", own("gp.place"));
    m.insert("gp.legalize_s", own("gp.legalize"));
    m.insert("gr.route_s", own("gr.route"));
    m.insert("dr.s", own("dr.run") + own("dr.evaluate"));
    m.insert("flow.self_s", own("flow") + own("gp.strip_placement"));
    let stages: f64 = ["label", "gcp", "ecc", "select", "update"]
        .iter()
        .map(|s| get(&m, &format!("crp.{s}_s")))
        .sum();
    m.insert("crp.other_s", own("crp.iteration") - stages);
    add_ratios(&mut m);
    m
}

/// Recomputes the ratio metrics from their counts (after counts of
/// several flows are summed, too).
pub fn add_ratios(m: &mut BTreeMap<&'static str, f64>) {
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = get(m, "crp.ecc_cache_hits");
    let lookups = hits + get(m, "crp.ecc_cache_misses");
    m.insert("crp.ecc_cache_lookups", lookups);
    m.insert("crp.ecc_cache_hit_rate", ratio(hits, lookups));
    let moved = ratio(get(m, "crp.moved_cells"), get(m, "crp.critical_cells"));
    m.insert("crp.move_ratio", moved);
}

/// Runs a flow workload for `seconds`: set-up, timed flows, checks.
#[allow(clippy::cast_precision_loss)]
pub fn run(w: &FlowWorkload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Record {
    let mut rec = Record::default();
    let mut setup = Vec::new();
    let mut files = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        // Fresh file names: rewriting a file in place can make the file
        // system flush it, which would time the disk, not the set-up.
        let written = write_design(&w.profile, seed, dir, &format!("input{rep}"));
        setup.push(t.elapsed().as_secs_f64());
        match written {
            Ok(f) => {
                rec.count(1, vec![]);
                files = Some(f);
            }
            Err(e) => rec.count(1, vec![format!("set-up: {e}")]),
        }
    }
    rec.set("setup_s", median(&setup).unwrap_or(0.0));
    let Some(files) = files else {
        return rec;
    };

    let mut tracer = Tracer::new(trace);
    let mut untraced = Tracer::new(false);
    let (mut flow_s, mut traced_s, mut plain_s) = (vec![], vec![], vec![]);
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_def: Option<String> = None;
    let min_flows = if trace { 2 } else { 1 };
    let start = Instant::now();
    let mut i = 0u64;
    // Start a flow only while it is expected to end within `seconds`.
    let fits =
        |done: &[f64]| start.elapsed().as_secs_f64() + median(done).unwrap_or(0.0) <= seconds;
    while i < min_flows || fits(&flow_s) {
        // In a traced run every other flow runs untraced, for the
        // tracing overhead.
        let on = trace && i.is_multiple_of(2);
        let t = if on { &mut tracer } else { &mut untraced };
        t.set_request(i);
        match run_flow(&files, &w.plan, &dir.join(format!("output{i}")), t) {
            Ok(sample) => {
                rec.count(1, vec![]);
                let (mut failed, n) = check_outputs(&files, &sample);
                let first = first_def.get_or_insert_with(|| sample.def_text.clone());
                if *first != sample.def_text {
                    failed.push("flow output differs between repeats".to_string());
                }
                rec.count(n + 1, failed);
                flow_s.push(sample.flow_s);
                rec.set("score", sample.score.weighted);
                if on {
                    traced_s.push(sample.flow_s);
                    for (k, v) in layer_metrics(&sample, &tracer, i) {
                        layers.entry(k).or_default().push(v);
                    }
                } else {
                    plain_s.push(sample.flow_s);
                }
            }
            Err(e) => rec.count(1, vec![e]),
        }
        i += 1;
    }

    rec.set("flow_s", median(&flow_s).unwrap_or(0.0));
    rec.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    rec.set_percentile("turnaround_p50_ms", &flow_s, 0.5, 1e3);
    rec.set_percentile("turnaround_p90_ms", &flow_s, 0.9, 1e3);
    // A flow is one job and one request: the library user's call chain
    // from reading the design to writing the result.
    rec.set_percentile("request_p50_ms", &flow_s, 0.5, 1e3);
    rec.set_percentile("request_p90_ms", &flow_s, 0.9, 1e3);
    let busy: f64 = flow_s.iter().sum();
    rec.set(
        "jobs_per_s",
        if busy > 0.0 {
            flow_s.len() as f64 / busy
        } else {
            0.0
        },
    );
    rec.set("samples.turnaround", flow_s.len() as f64);
    rec.set("samples.request", flow_s.len() as f64);
    for (k, v) in &layers {
        rec.set(k, median(v).unwrap_or(0.0));
    }
    if let (Some(a), Some(b)) = (median(&traced_s), median(&plain_s)) {
        rec.set("trace.overhead_ms", (a - b) * 1e3);
    }
    if trace {
        rec.lines = tracer.table(traced_s.len());
    }
    rec.set("error_rate", rec.error_rate());
    rec
}
