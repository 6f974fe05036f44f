//! Assembles the `serve_closed` record from set-up, the closed loop and
//! the daemon's own report.

use crate::flows::SETUP_REPS;
use crate::inputs::DesignFiles;
use crate::metrics::Record;
use crate::serve::{build_references, closed_loop, daemon_report, write_inputs, Daemon};
use crate::stats::{median, peak_rss_mb};
use crp_serve::json::Json;
use crp_serve::Client;
use std::path::Path;
use std::time::Instant;

/// One set-up: write the mix's inputs into the new directory `dir` and
/// start a daemon on the fresh data directory `dir/data`.
fn set_up(seed: u64, dir: &Path) -> Result<(Vec<DesignFiles>, Daemon), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let files = write_inputs(seed, dir).map_err(|e| e.to_string())?;
    Ok((files, Daemon::start(&dir.join("data"))?))
}

/// Whether the daemon answers a `ping`. Not part of the timed set-up:
/// the answer waits on the server's accept and idle polling sleeps,
/// whose phase is random.
fn ping(daemon: &Daemon) -> Result<(), String> {
    let mut c = Client::connect(daemon.addr()).map_err(|e| e.msg)?;
    c.call(&Json::obj(vec![("verb", Json::str("ping"))]))
        .map(|_| ())
        .map_err(|e| e.msg)
}

/// Runs `serve_closed` for `seconds`.
#[allow(clippy::cast_precision_loss)]
pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> Record {
    let mut rec = Record::default();
    let mut setup = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, d)) = ready.take() {
            if let Err(e) = Daemon::stop(d) {
                rec.count(1, vec![format!("daemon stop: {e}")]);
            }
        }
        let t = Instant::now();
        let up = set_up(seed, &dir.join(format!("setup{rep}")));
        setup.push(t.elapsed().as_secs_f64());
        match up.and_then(|(f, d)| ping(&d).map(|()| (f, d))) {
            Ok(v) => {
                rec.count(1, vec![]);
                ready = Some(v);
            }
            Err(e) => rec.count(1, vec![format!("set-up: {e}")]),
        }
    }
    rec.set("setup_s", median(&setup).unwrap_or(0.0));
    let Some((files, daemon)) = ready else {
        return rec;
    };
    let refs = build_references(&files, dir, trace);
    rec.count(refs.checks, refs.failures.clone());
    rec.set("score", refs.score);
    for (k, v) in &refs.layers {
        rec.set(k, *v);
    }

    let load = closed_loop(&daemon, &refs, seed, seconds, trace);
    rec.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    // Each job is one operation and one comparison with its reference.
    let failures: Vec<String> = load.jobs.iter().filter_map(|j| j.failure.clone()).collect();
    rec.count(load.jobs.len(), failures);
    let done: Vec<_> = load.jobs.iter().filter(|j| j.failure.is_none()).collect();
    let turnaround: Vec<f64> = done.iter().map(|j| j.turnaround_s).collect();
    let requests: Vec<f64> = done.iter().flat_map(|j| [j.submit_s, j.fetch_s]).collect();
    rec.set("flow_s", median(&turnaround).unwrap_or(0.0));
    rec.set_percentile("turnaround_p50_ms", &turnaround, 0.5, 1e3);
    rec.set_percentile("turnaround_p90_ms", &turnaround, 0.9, 1e3);
    rec.set_percentile("request_p50_ms", &requests, 0.5, 1e3);
    rec.set_percentile("request_p90_ms", &requests, 0.9, 1e3);
    rec.set("jobs_per_s", done.len() as f64 / load.wall_s.max(1e-9));
    rec.set("samples.turnaround", turnaround.len() as f64);
    rec.set("samples.request", requests.len() as f64);

    let client_p50 = |f: fn(&crate::serve::JobSample) -> f64| {
        median(&done.iter().map(|j| f(j)).collect::<Vec<_>>()).unwrap_or(0.0) * 1e3
    };
    let clients = [
        ("submit", client_p50(|j| j.submit_s)),
        ("watch", client_p50(|j| j.watch_s)),
        ("fetch", client_p50(|j| j.fetch_s)),
    ];
    match daemon_report(&daemon) {
        Ok(report) => {
            rec.count(1, vec![]);
            for (verb, client_ms) in clients {
                let server_us = report.server_p50_us.get(verb).copied().unwrap_or(0.0);
                rec.set(&format!("serve.{verb}_client_p50_ms"), client_ms);
                rec.set(&format!("serve.{verb}_server_p50_us"), server_us);
                rec.set(&format!("serve.{verb}_gap_ms"), client_ms - server_us / 1e3);
                rec.lines.push(format!(
                    "{verb:<7} client p50 {client_ms:.3} ms (n={}) | server p50 {server_us} us (n={}, log2-bucket upper bound) | gap {:.3} ms",
                    done.len(),
                    report.server_count.get(verb).copied().unwrap_or(0.0),
                    client_ms - server_us / 1e3
                ));
            }
            rec.set("serve.admission_rejects", report.admission_rejects);
            rec.set(
                "serve.job_run_ms",
                median(&report.job_run_ms).unwrap_or(0.0),
            );
        }
        Err(e) => rec.count(1, vec![format!("daemon report: {e}")]),
    }
    if let Err(e) = daemon.stop() {
        rec.count(1, vec![format!("daemon stop: {e}")]);
    }

    if trace {
        let traced: Vec<f64> = done
            .iter()
            .filter(|j| j.traced)
            .map(|j| j.turnaround_s)
            .collect();
        let plain: Vec<f64> = done
            .iter()
            .filter(|j| !j.traced)
            .map(|j| j.turnaround_s)
            .collect();
        if let (Some(a), Some(b)) = (median(&traced), median(&plain)) {
            rec.set("trace.overhead_ms", (a - b) * 1e3);
        }
        rec.lines.extend(load.tracer.table(traced.len()));
    }
    rec.set("error_rate", rec.error_rate());
    rec
}
