//! Self-tests of the benchmark: `BENCHMARK.json` matches the metric
//! catalogue, and the flows' work counters repeat exactly between two
//! identical traced runs, except the ones marked `-inexact`.

use crp_perfbench::flows::{self, FlowWorkload};
use crp_perfbench::metrics::{END_TO_END, PER_LAYER};
use crp_serve::json::{parse, Json};
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Json, k: &str) -> &'a str {
    v.get(k).and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let b = benchmark_json();
    let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name, unit, better)
        );
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
    }
    let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name, unit, better)
        );
    }
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, crp_perfbench::WORKLOADS);
}

fn traced_run(w: &FlowWorkload, tag: &str) -> crp_perfbench::metrics::Record {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("counters-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Zero seconds: the traced run's minimum of one traced and one
    // untraced flow.
    let rec = flows::run(w, 7, 0.0, true, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.failed, 0, "{:?}", rec.failures);
    rec
}

/// Counters of the flow layers: every per-layer metric of the lefdef,
/// gp, gr, crp and dr layers that is not a time, plus the score.
fn flow_counters() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .filter(|(n, u, _)| {
            ["lefdef.", "gp.", "gr.", "crp.", "dr."]
                .iter()
                .any(|p| n.starts_with(p))
                && !["s", "ms", "us"].contains(u)
        })
        .map(|&(n, u, _)| (n, u))
        .chain([("score", "score")])
        .collect()
}

#[test]
fn flow_counters_repeat_exactly_between_traced_runs() {
    for (tag, w) in [
        ("ispd", flows::ispd_congested(400.0)),
        ("gp", flows::netlist_gp(100.0)),
    ] {
        let a = traced_run(&w, &format!("{tag}-a"));
        let b = traced_run(&w, &format!("{tag}-b"));
        let mut differing = Vec::new();
        for (name, unit) in flow_counters() {
            // A layer the flow does not run prints 0.
            let x = a.values.get(name).copied().unwrap_or(0.0);
            let y = b.values.get(name).copied().unwrap_or(0.0);
            if x.to_bits() != y.to_bits() {
                differing.push(name);
                assert!(
                    unit.ends_with("-inexact"),
                    "{tag}: {name} differs between identical runs ({x} vs {y}) but is gated"
                );
            }
        }
        eprintln!("{tag}: counters that did not repeat: {differing:?}");
        for must in [
            "crp.critical_cells",
            "crp.candidates",
            "crp.moved_cells",
            "crp.rerouted_nets",
            "gr.overflow",
            "dr.drvs",
            "score",
        ] {
            assert!(
                !differing.contains(&must),
                "{tag}: {must} must repeat exactly"
            );
        }
    }
}
