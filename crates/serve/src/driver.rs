//! The per-job flow driver: builds the design, runs CR&P iterations,
//! checkpoints at iteration boundaries, and emits progress events.
//!
//! The driver is deliberately ignorant of scheduling — it receives its
//! thread budget and two control flags (`cancel`, `pause`) and reports
//! back through a [`RunOutcome`]. All state it needs to resume lives in
//! the job directory, so the scheduler can re-dispatch a paused or
//! crashed job at any time, on any worker.

use crate::checkpoint::{
    event_timers_to_json, load_gp_state, report_to_json, save_gp_state, Checkpoint,
};
use crate::error::ServeError;
use crate::json::Json;
use crate::spec::{JobMode, JobSpec, Workload};
use crp_core::{Crp, IterationReport, StageTimers};
use crp_gp::{legalize_abacus, strip_placement, GlobalPlacer, GpConfig, GpIterStats};
use crp_grid::{GridConfig, RouteGrid};
use crp_lefdef::{parse_def, parse_lef, write_def, write_guides};
use crp_netlist::Design;
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::{ispd18_profiles, netlist_only_profiles};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// File name of a job's CR&P checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// File name of a `place` job's GP-phase checkpoint. Kept separate from
/// the CR&P checkpoint: the two phases have disjoint state, and the
/// presence of a CR&P checkpoint is what marks the GP phase finished.
pub const GP_CHECKPOINT_FILE: &str = "gp_checkpoint.json";
/// File name of a finished job's placed-and-routed DEF.
pub const RESULT_DEF_FILE: &str = "result.def";
/// File name of a finished job's route guides.
pub const RESULT_GUIDE_FILE: &str = "result.guide";

/// One per-iteration progress event, streamed to `watch` subscribers.
///
/// For `place` jobs the iteration index runs over the *combined* range:
/// GP iterations first (`0..gp_iterations`), then CR&P iterations offset
/// by `gp_iterations`, with `total = gp_iterations + iterations`. GP
/// events carry a synthesized report — no routing exists yet, so the
/// route-centric counters are zero, `cost_before`/`cost_after` hold the
/// smooth WA wirelength and the exact HPWL, and `timers` carries the
/// density overflow and weight instead of stage timers.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// 0-based iteration that just completed.
    pub iteration: usize,
    /// Total iterations the job will run.
    pub total: usize,
    /// The iteration's statistics.
    pub report: IterationReport,
    /// The job's telemetry after this iteration.
    pub timers: EventTimers,
}

/// The telemetry a [`WatchEvent`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventTimers {
    /// The flow's accumulated CR&P stage timers, including the
    /// price-cache hit/miss counters.
    Crp(StageTimers),
    /// The GP solver's density overflow and weight for this iteration.
    Gp {
        /// Density overflow fraction.
        overflow: f64,
        /// Density weight.
        lambda: f64,
    },
}

impl WatchEvent {
    /// Serializes the event for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("iteration", Json::Int(self.iteration as i128)),
            ("total", Json::Int(self.total as i128)),
            ("report", report_to_json(&self.report)),
            ("timers", event_timers_to_json(&self.timers)),
        ])
    }
}

/// How a dispatch of [`run_job`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All iterations ran; results are on disk.
    Finished,
    /// The pause flag was honored at an iteration boundary; a checkpoint
    /// covering all completed iterations is on disk.
    Paused,
    /// The cancel flag was honored; the job will not resume.
    Cancelled,
}

/// Builds the job's base design: the profile regenerated from scratch or
/// the LEF/DEF pair re-parsed. Deterministic, so a resumed job restores
/// onto exactly the design the original run started from.
///
/// # Errors
///
/// Returns a [`ServeError`] for unknown profile names or unreadable /
/// malformed LEF/DEF files.
pub fn build_base_design(workload: &Workload) -> Result<Design, ServeError> {
    match workload {
        Workload::Profile { name, scale } => {
            let profile = ispd18_profiles()
                .into_iter()
                .chain(netlist_only_profiles())
                .find(|p| p.name == *name)
                .ok_or_else(|| ServeError::new(format!("unknown workload profile `{name}`")))?;
            Ok(profile.scaled(*scale).generate())
        }
        Workload::LefDef { lef, def } => {
            let lef_text = std::fs::read_to_string(lef)
                .map_err(|e| ServeError::new(format!("cannot read LEF `{lef}`: {e}")))?;
            let def_text = std::fs::read_to_string(def)
                .map_err(|e| ServeError::new(format!("cannot read DEF `{def}`: {e}")))?;
            let tech =
                parse_lef(&lef_text).map_err(|e| ServeError::new(format!("LEF parse: {e}")))?;
            parse_def(&def_text, &tech).map_err(|e| ServeError::new(format!("DEF parse: {e}")))
        }
    }
}

/// Shapes a GP iteration's stats as a [`WatchEvent`] report: GP has no
/// routing, so the route-centric counters are zero and the cost pair is
/// the smooth WA wirelength and the exact HPWL at the evaluated
/// reference point.
fn gp_report(stats: &GpIterStats) -> IterationReport {
    IterationReport {
        iteration: stats.iter,
        critical_cells: 0,
        candidates: 0,
        moved_cells: 0,
        rerouted_nets: 0,
        cost_before: stats.wl,
        cost_after: stats.hpwl,
        select_nodes: 0,
        select_unproven_components: 0,
        select_fallback_cells: 0,
    }
}

/// Runs (or resumes) the GP phase of a `place` job: strips the incoming
/// placement (the cold-start proof — nothing of the generator's
/// placement can leak through), spreads with the electrostatic solver,
/// and legalizes with Abacus. Checkpoints the [`crp_gp::GpState`] every
/// `spec.checkpoint_every` iterations and honors `cancel`/`pause` at
/// GP-iteration boundaries, exactly like the CR&P loop.
///
/// Returns `Some(outcome)` when cancel or pause ended the phase early,
/// `None` when the design is legally placed and CR&P should proceed.
fn run_gp_phase(
    spec: &JobSpec,
    design: &mut Design,
    dir: &Path,
    threads: usize,
    cancel: &AtomicBool,
    pause: &AtomicBool,
    on_event: &mut dyn FnMut(WatchEvent),
) -> Result<Option<RunOutcome>, ServeError> {
    let gp_ckpt_path = dir.join(GP_CHECKPOINT_FILE);
    let cfg = GpConfig {
        iterations: spec.gp_iterations,
        bins: spec.gp_bins,
        threads: threads.max(1),
        seed: spec.config.seed,
        ..GpConfig::default()
    };
    strip_placement(design);
    let mut placer = match load_gp_state(&gp_ckpt_path)? {
        Some(state) => GlobalPlacer::resume(design, cfg, state)
            .map_err(|e| ServeError::new(format!("gp checkpoint mismatch: {e}")))?,
        None => GlobalPlacer::new(design, cfg),
    };
    let grand_total = spec.total_iterations();
    while !placer.done() {
        if cancel.load(Ordering::Acquire) {
            return Ok(Some(RunOutcome::Cancelled));
        }
        if pause.load(Ordering::Acquire) {
            save_gp_state(placer.state(), &gp_ckpt_path)?;
            return Ok(Some(RunOutcome::Paused));
        }
        let stats = placer.step();
        on_event(WatchEvent {
            iteration: stats.iter,
            total: grand_total,
            report: gp_report(&stats),
            timers: EventTimers::Gp {
                overflow: stats.overflow,
                lambda: stats.lambda,
            },
        });
        let done = placer.state().iter;
        if spec.checkpoint_every > 0
            && done % spec.checkpoint_every == 0
            && done < spec.gp_iterations
        {
            save_gp_state(placer.state(), &gp_ckpt_path)?;
        }
    }
    let targets = placer.positions();
    legalize_abacus(design, &targets)
        .map_err(|e| ServeError::new(format!("legalization failed: {e}")))?;
    Ok(None)
}

/// Runs (or resumes) a job inside `dir` with a granted budget of
/// `threads` workers.
///
/// A fresh start routes the design from scratch; when `dir` holds a
/// checkpoint, the flow is restored from it instead and continues
/// bit-identically with the uninterrupted run. After each iteration the
/// driver emits a [`WatchEvent`], honors `cancel`/`pause`, and — every
/// `spec.checkpoint_every` iterations — atomically rewrites the
/// checkpoint. On completion it writes `result.def` and `result.guide`
/// plus a final checkpoint (whose reports back the `status` verb).
///
/// [`JobMode::Place`] jobs prepend the GP phase (`run_gp_phase`): a
/// CR&P checkpoint implies the GP phase already finished (its legalized
/// placement is part of the saved cell positions), so only a place job
/// with no CR&P checkpoint — fresh, or interrupted mid-GP — runs or
/// resumes it. A crash between the two phases replays the GP tail from
/// its own checkpoint deterministically, landing on the identical
/// legalized placement.
///
/// # Errors
///
/// Returns a [`ServeError`] when the base design cannot be built, a
/// checkpoint is unreadable or mismatched, legalization fails, or a
/// result fails to write.
pub fn run_job(
    spec: &JobSpec,
    dir: &Path,
    threads: usize,
    cancel: &AtomicBool,
    pause: &AtomicBool,
    on_event: &mut dyn FnMut(WatchEvent),
) -> Result<RunOutcome, ServeError> {
    let mut config = spec.config;
    config.threads = threads.max(1);

    let mut design = build_base_design(&spec.workload)?;
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let gp_off = spec.gp_phase_iterations();
    let grand_total = spec.total_iterations();

    let loaded = Checkpoint::load(&ckpt_path)?;
    if spec.mode == JobMode::Place && loaded.is_none() {
        if let Some(early) = run_gp_phase(spec, &mut design, dir, threads, cancel, pause, on_event)?
        {
            return Ok(early);
        }
    }

    let (mut grid, mut routing, mut crp, mut reports, start) = match loaded {
        Some(ckpt) => {
            let (grid, routing, crp) = ckpt.restore(&mut design, config)?;
            (
                grid,
                routing,
                crp,
                ckpt.reports.clone(),
                ckpt.iterations_done,
            )
        }
        None => {
            let mut grid = RouteGrid::try_new(&design, GridConfig::default())
                .map_err(|e| ServeError::new(format!("grid build failed: {e}")))?;
            let mut router = GlobalRouter::new(RouterConfig::default());
            let routing = router.route_all(&design, &mut grid);
            (grid, routing, Crp::new(config), Vec::new(), 0)
        }
    };
    // `reroute_net` — the only router entry the flow uses — ignores RRR
    // history, so a fresh router is equivalent to the original instance.
    let mut router = GlobalRouter::new(RouterConfig::default());

    let total = spec.iterations;
    for i in start..total {
        if cancel.load(Ordering::Acquire) {
            return Ok(RunOutcome::Cancelled);
        }
        if pause.load(Ordering::Acquire) {
            Checkpoint::capture(&design, &grid, &routing, &crp, i, total, &reports)
                .save(&ckpt_path)?;
            return Ok(RunOutcome::Paused);
        }
        let report = crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing);
        reports.push(report);
        on_event(WatchEvent {
            iteration: gp_off + i,
            total: grand_total,
            report,
            timers: EventTimers::Crp(*crp.timers()),
        });
        let done = i + 1;
        if spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0 && done < total {
            Checkpoint::capture(&design, &grid, &routing, &crp, done, total, &reports)
                .save(&ckpt_path)?;
        }
    }

    if cancel.load(Ordering::Acquire) {
        return Ok(RunOutcome::Cancelled);
    }
    std::fs::write(dir.join(RESULT_DEF_FILE), write_def(&design))?;
    std::fs::write(
        dir.join(RESULT_GUIDE_FILE),
        write_guides(&design, &grid, &routing),
    )?;
    // Final checkpoint: lets `status` report per-iteration history after
    // completion and makes `Done` recovery trivially idempotent.
    Checkpoint::capture(&design, &grid, &routing, &crp, total, total, &reports).save(&ckpt_path)?;
    // The GP snapshot is superseded by the final CR&P checkpoint; a
    // leftover would only waste space (it is never consulted once a
    // CR&P checkpoint exists).
    if spec.mode == JobMode::Place {
        let _ = std::fs::remove_file(dir.join(GP_CHECKPOINT_FILE));
    }
    Ok(RunOutcome::Finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "ispd18_test1".to_string(),
                scale: 800.0,
            },
            iterations: 3,
            ..JobSpec::default()
        }
    }

    fn place_spec() -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "gp_fanout".to_string(),
                scale: 400.0,
            },
            iterations: 2,
            mode: JobMode::Place,
            gp_iterations: 6,
            ..JobSpec::default()
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crp-driver-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_run_finishes_and_writes_results() {
        let dir = tmp_dir("fresh");
        let no = AtomicBool::new(false);
        let mut events = Vec::new();
        let outcome = run_job(&spec(), &dir, 1, &no, &no, &mut |e| events.push(e)).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);
        assert_eq!(events.len(), 3);
        assert!(dir.join(RESULT_DEF_FILE).exists());
        assert!(dir.join(RESULT_GUIDE_FILE).exists());
        let ckpt = Checkpoint::load(&dir.join(CHECKPOINT_FILE))
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.iterations_done, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paused_then_resumed_run_matches_uninterrupted() {
        let s = spec();
        let no = AtomicBool::new(false);

        // Reference: uninterrupted.
        let ref_dir = tmp_dir("ref");
        run_job(&s, &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
        let ref_def = std::fs::read_to_string(ref_dir.join(RESULT_DEF_FILE)).unwrap();
        let ref_guide = std::fs::read_to_string(ref_dir.join(RESULT_GUIDE_FILE)).unwrap();

        // Interrupted: pause after the first iteration, then resume.
        let dir = tmp_dir("resume");
        let pause = AtomicBool::new(false);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {
            pause.store(true, std::sync::atomic::Ordering::Release);
        })
        .unwrap();
        assert_eq!(outcome, RunOutcome::Paused);
        pause.store(false, std::sync::atomic::Ordering::Release);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);

        let def = std::fs::read_to_string(dir.join(RESULT_DEF_FILE)).unwrap();
        let guide = std::fs::read_to_string(dir.join(RESULT_GUIDE_FILE)).unwrap();
        assert_eq!(def, ref_def, "resumed DEF diverged");
        assert_eq!(guide, ref_guide, "resumed guides diverged");
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_without_results() {
        let dir = tmp_dir("cancel");
        let cancel = AtomicBool::new(true);
        let no = AtomicBool::new(false);
        let outcome = run_job(&spec(), &dir, 1, &cancel, &no, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Cancelled);
        assert!(!dir.join(RESULT_DEF_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn place_job_runs_gp_then_crp_and_finishes() {
        let dir = tmp_dir("place");
        let no = AtomicBool::new(false);
        let mut events = Vec::new();
        let s = place_spec();
        let outcome = run_job(&s, &dir, 1, &no, &no, &mut |e| events.push(e)).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);
        // 6 GP events then 2 CR&P events, one contiguous index range.
        assert_eq!(events.len(), 8);
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(ev.iteration, k);
            assert_eq!(ev.total, 8);
        }
        assert!(matches!(events[0].timers, EventTimers::Gp { .. }));
        assert!(matches!(events[7].timers, EventTimers::Crp(_)));
        assert!(dir.join(RESULT_DEF_FILE).exists());
        assert!(dir.join(RESULT_GUIDE_FILE).exists());
        assert!(
            !dir.join(GP_CHECKPOINT_FILE).exists(),
            "finished place job must drop its GP snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn place_job_paused_mid_gp_resumes_bit_identically() {
        let s = place_spec();
        let no = AtomicBool::new(false);

        // Reference: uninterrupted.
        let ref_dir = tmp_dir("place-ref");
        run_job(&s, &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
        let ref_def = std::fs::read_to_string(ref_dir.join(RESULT_DEF_FILE)).unwrap();
        let ref_guide = std::fs::read_to_string(ref_dir.join(RESULT_GUIDE_FILE)).unwrap();

        // Interrupted: pause after the second GP iteration, then resume.
        let dir = tmp_dir("place-resume");
        let pause = AtomicBool::new(false);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |e| {
            if e.iteration == 1 {
                pause.store(true, std::sync::atomic::Ordering::Release);
            }
        })
        .unwrap();
        assert_eq!(outcome, RunOutcome::Paused);
        assert!(
            dir.join(GP_CHECKPOINT_FILE).exists(),
            "pause mid-GP must leave a GP snapshot"
        );
        pause.store(false, std::sync::atomic::Ordering::Release);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);

        let def = std::fs::read_to_string(dir.join(RESULT_DEF_FILE)).unwrap();
        let guide = std::fs::read_to_string(dir.join(RESULT_GUIDE_FILE)).unwrap();
        assert_eq!(def, ref_def, "resumed place-job DEF diverged");
        assert_eq!(guide, ref_guide, "resumed place-job guides diverged");
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wire bytes of `watch`/`status` events, pinned to literals: clients
    /// parse this format, so it must not drift.
    #[test]
    fn watch_event_wire_bytes_are_pinned() {
        let wire = |timers| {
            let report = IterationReport {
                iteration: 4,
                critical_cells: 40,
                candidates: 310,
                moved_cells: 7,
                rerouted_nets: 19,
                cost_before: 1234.5,
                cost_after: 1200.25,
                select_nodes: 12,
                select_unproven_components: 0,
                select_fallback_cells: 0,
            };
            WatchEvent {
                iteration: 9,
                total: 10,
                report,
                timers,
            }
            .to_json()
            .to_string()
        };
        let nanos = std::time::Duration::from_nanos;
        let mut t = StageTimers {
            label: nanos(10),
            gcp: nanos(20),
            ecc: nanos(30),
            select: nanos(5),
            update: nanos(35),
            ecc_cache_hits: 2,
            ecc_cache_misses: 1,
        };
        assert_eq!(
            wire(EventTimers::Crp(t)),
            r#"{"iteration":9,"total":10,"report":{"iteration":4,"critical_cells":40,"candidates":310,"moved_cells":7,"rerouted_nets":19,"cost_before":1234.5,"cost_after":1200.25,"select_nodes":12,"select_unproven_components":0,"select_fallback_cells":0},"timers":{"label_ns":10,"gcp_ns":20,"ecc_ns":30,"select_ns":5,"update_ns":35,"total_ns":100,"ecc_cache_hits":2,"ecc_cache_misses":1,"ecc_cache_hit_rate":0.6666666666666666}}"#
        );
        (t.ecc_cache_hits, t.ecc_cache_misses) = (0, 0);
        assert_eq!(
            wire(EventTimers::Crp(t)),
            r#"{"iteration":9,"total":10,"report":{"iteration":4,"critical_cells":40,"candidates":310,"moved_cells":7,"rerouted_nets":19,"cost_before":1234.5,"cost_after":1200.25,"select_nodes":12,"select_unproven_components":0,"select_fallback_cells":0},"timers":{"label_ns":10,"gcp_ns":20,"ecc_ns":30,"select_ns":5,"update_ns":35,"total_ns":100,"ecc_cache_hits":0,"ecc_cache_misses":0,"ecc_cache_hit_rate":null}}"#
        );
        let gp = EventTimers::Gp {
            overflow: 0.1 + 0.2,
            lambda: 3.0,
        };
        assert_eq!(
            wire(gp),
            r#"{"iteration":9,"total":10,"report":{"iteration":4,"critical_cells":40,"candidates":310,"moved_cells":7,"rerouted_nets":19,"cost_before":1234.5,"cost_after":1200.25,"select_nodes":12,"select_unproven_components":0,"select_fallback_cells":0},"timers":{"gp_overflow":0.30000000000000004,"gp_lambda":3.0}}"#
        );
        // A whole-number rate is a float on the wire: `1.0`, never `1`.
        t.ecc_cache_hits = 3;
        let json = wire(EventTimers::Crp(t));
        assert!(json.ends_with(r#""ecc_cache_hit_rate":1.0}}"#), "{json}");
    }

    #[test]
    fn netlist_only_profiles_are_valid_workloads() {
        let d = build_base_design(&Workload::Profile {
            name: "gp_fanout".into(),
            scale: 400.0,
        })
        .unwrap();
        assert!(d.num_cells() > 0);
    }

    #[test]
    fn unknown_profile_is_an_error() {
        let err = build_base_design(&Workload::Profile {
            name: "nope".into(),
            scale: 1.0,
        })
        .unwrap_err();
        assert!(err.msg.contains("unknown workload profile"));
    }
}
