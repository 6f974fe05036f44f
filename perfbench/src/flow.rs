//! One timed flow: read LEF/DEF → (strip → GP → Abacus) → GR → CR&P k →
//! DR → write DEF + guides, and the checks on its output.
//!
//! When tracing, each call into a crate's public API is wrapped in a
//! span, and the per-layer counters are gathered; the untraced run times
//! the flow alone.

use crate::inputs::DesignFiles;
use crate::trace::Tracer;
use crp_core::{Crp, CrpConfig, StageTimers};
use crp_drouter::{evaluate, DetailedRouter, DrConfig, Score};
use crp_gp::{legalize_abacus, strip_placement, GlobalPlacer, GpConfig};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::Design;
use crp_router::{GlobalRouter, RouterConfig, Routing};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a flow runs between reading and writing.
#[derive(Debug, Clone)]
pub struct FlowPlan {
    /// Netlist-only start: strip the placement, then global placement and
    /// Abacus legalization with this configuration.
    pub gp: Option<GpConfig>,
    /// CR&P iterations.
    pub k: usize,
    /// CR&P configuration.
    pub crp: CrpConfig,
}

/// Result of one flow.
#[derive(Debug, Clone)]
pub struct FlowSample {
    /// Read-to-write wall time, seconds.
    pub flow_s: f64,
    /// ISPD-18 weighted score after DR.
    pub score: Score,
    /// Per-layer metrics (empty unless traced).
    pub layers: BTreeMap<&'static str, f64>,
    /// The written DEF.
    pub def_text: String,
    /// The written guides.
    pub guide_text: String,
    /// The flow's final in-memory state, for the connectivity check.
    pub design: Design,
    /// Final routing grid.
    pub grid: RouteGrid,
    /// Final global routes.
    pub routing: Routing,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[allow(clippy::cast_precision_loss)]
fn stage_deltas(
    before: &StageTimers,
    after: &StageTimers,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let mut add = |k: &'static str, v: f64| *layers.entry(k).or_default() += v;
    add("crp.label_s", secs(after.label - before.label));
    add("crp.gcp_s", secs(after.gcp - before.gcp));
    add("crp.ecc_s", secs(after.ecc - before.ecc));
    add("crp.select_s", secs(after.select - before.select));
    add("crp.update_s", secs(after.update - before.update));
    add(
        "crp.ecc_cache_hits",
        (after.ecc_cache_hits - before.ecc_cache_hits) as f64,
    );
    add(
        "crp.ecc_cache_misses",
        (after.ecc_cache_misses - before.ecc_cache_misses) as f64,
    );
}

/// Runs one flow on `files`, writing `<out>.def` / `<out>.guide`.
///
/// # Errors
///
/// Returns a description of the first call that failed (unreadable or
/// malformed input, failed legalization, failed write).
pub fn run_flow(
    files: &DesignFiles,
    plan: &FlowPlan,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<FlowSample, String> {
    let t0 = Instant::now();
    let root = tracer.open("flow");
    let sample = flow_calls(files, plan, out, tracer);
    tracer.close(root);
    let flow_s = t0.elapsed().as_secs_f64();
    sample.map(|s| FlowSample { flow_s, ..s })
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn flow_calls(
    files: &DesignFiles,
    plan: &FlowPlan,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<FlowSample, String> {
    let traced = tracer.is_on();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let def_path: PathBuf = out.with_extension("def");
    let guide_path: PathBuf = out.with_extension("guide");

    let (tech, lef_bytes) = tracer.span("lefdef.parse_lef", || {
        let text = std::fs::read_to_string(&files.lef).map_err(|e| format!("read LEF: {e}"))?;
        let bytes = text.len();
        crp_lefdef::parse_lef(&text)
            .map(|t| (t, bytes))
            .map_err(|e| format!("parse LEF: {e}"))
    })?;
    let (mut design, def_bytes) = tracer.span("lefdef.parse_def", || {
        let text = std::fs::read_to_string(&files.def).map_err(|e| format!("read DEF: {e}"))?;
        let bytes = text.len();
        crp_lefdef::parse_def(&text, &tech)
            .map(|d| (d, bytes))
            .map_err(|e| format!("parse DEF: {e}"))
    })?;
    let read_bytes = lef_bytes + def_bytes;

    if let Some(gp) = &plan.gp {
        tracer.span("gp.strip_placement", || strip_placement(&mut design));
        let (stats, targets) = tracer.span("gp.place", || {
            let mut placer = GlobalPlacer::new(&design, gp.clone());
            let stats = placer.run();
            (stats, placer.positions())
        });
        tracer
            .span("gp.legalize", || legalize_abacus(&mut design, &targets))
            .map_err(|e| format!("legalize: {e}"))?;
        if traced {
            let last = stats.last();
            layers.insert("gp.iterations", stats.len() as f64);
            layers.insert("gp.final_overflow", last.map_or(0.0, |s| s.overflow));
            layers.insert("gp.hpwl", last.map_or(0.0, |s| s.hpwl));
        }
    }

    let (mut grid, mut router, mut routing) = tracer.span("gr.route", || {
        let mut grid = RouteGrid::new(&design, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&design, &mut grid);
        (grid, router, routing)
    });
    if traced {
        let cong = grid.congestion();
        layers.insert("gr.overflow", cong.total_overflow);
        layers.insert("gr.overflowed_edges", cong.overflowed_edges as f64);
        layers.insert("gr.wirelength", routing.total_wirelength() as f64);
        layers.insert("gr.vias", routing.total_vias() as f64);
    }

    let mut crp = Crp::new(plan.crp);
    let mut zero_move = 0usize;
    let mut cost_first = None;
    let mut cost_last = 0.0;
    for i in 0..plan.k {
        let before = *crp.timers();
        let r = tracer.span("crp.iteration", || {
            crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing)
        });
        if traced {
            stage_deltas(&before, crp.timers(), &mut layers);
            let mut add = |k: &'static str, v: f64| *layers.entry(k).or_default() += v;
            add("crp.critical_cells", r.critical_cells as f64);
            add("crp.candidates", r.candidates as f64);
            add("crp.moved_cells", r.moved_cells as f64);
            add("crp.rerouted_nets", r.rerouted_nets as f64);
            if r.critical_cells > 0 && r.moved_cells == 0 {
                zero_move += 1;
            }
            cost_first.get_or_insert(r.cost_before);
            cost_last = r.cost_after;
        }
    }
    if traced {
        layers.insert("crp.zero_move_iterations", zero_move as f64);
        layers.insert(
            "crp.cost_delta",
            cost_last - cost_first.unwrap_or(cost_last),
        );
    }

    let result = tracer.span("dr.run", || {
        DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing)
    });
    let score = tracer.span("dr.evaluate", || evaluate(&result));
    if traced {
        layers.insert("dr.layer_bumps", result.layer_bumps as f64);
        layers.insert("dr.detours", result.detours as f64);
        layers.insert("dr.drvs", result.drc.total() as f64);
    }

    let def_text = tracer
        .span("lefdef.write_def", || {
            let text = crp_lefdef::write_def(&design);
            std::fs::write(&def_path, &text).map(|()| text)
        })
        .map_err(|e| format!("write DEF: {e}"))?;
    let guide_text = tracer
        .span("lefdef.write_guides", || {
            let text = crp_lefdef::write_guides(&design, &grid, &routing);
            std::fs::write(&guide_path, &text).map(|()| text)
        })
        .map_err(|e| format!("write guides: {e}"))?;
    if traced {
        layers.insert(
            "lefdef.bytes",
            (read_bytes + def_text.len() + guide_text.len()) as f64,
        );
    }

    Ok(FlowSample {
        flow_s: 0.0,
        score,
        layers,
        def_text,
        guide_text,
        design,
        grid,
        routing,
    })
}

/// The output checks, run outside the timed span: placement legality
/// and connectivity of every net on the flow's final state, and a written
/// DEF and guide file that parse back. Returns one message per failed
/// check and the number of checks made.
pub fn check_outputs(files: &DesignFiles, sample: &FlowSample) -> (Vec<String>, usize) {
    let mut failed = Vec::new();
    let checks = 5;
    let placement = crp_check::check_placement(&sample.design);
    if !placement.is_empty() {
        failed.push(format!("{} placement violations", placement.len()));
    }
    let open = crp_check::check_connectivity(&sample.design, &sample.grid, &sample.routing, None);
    if !open.is_empty() {
        failed.push(format!("{} nets not connected", open.len()));
    }
    let tech = match std::fs::read_to_string(&files.lef)
        .map_err(|e| e.to_string())
        .and_then(|t| crp_lefdef::parse_lef(&t).map_err(|e| e.to_string()))
    {
        Ok(t) => t,
        Err(e) => return (vec![format!("re-read LEF: {e}")], checks),
    };
    let design = match crp_lefdef::parse_def(&sample.def_text, &tech) {
        Ok(d) => d,
        Err(e) => return (vec![format!("written DEF does not parse: {e}")], checks),
    };
    if crp_lefdef::write_def(&design) != sample.def_text {
        failed.push("written DEF does not round-trip".to_string());
    }
    if let Err(e) = crp_lefdef::parse_guides(&sample.guide_text) {
        failed.push(format!("written guides do not parse: {e}"));
    }
    (failed, checks)
}
