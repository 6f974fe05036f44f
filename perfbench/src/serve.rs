//! The `serve_closed` workload: an in-process `Scheduler` + `Server` on
//! loopback, driven by closed-loop clients over `crp_serve::Client`.
//!
//! Each client owns one connection. It submits a job, `watch`es it to
//! `done`, `fetch`es the result and compares it with a serial
//! `crp_serve::run_job` reference built during set-up, then submits the
//! next job. The job mix cycles through a seeded shuffle of a deck of
//! job kinds.

use crate::flow::{run_flow, FlowPlan};
use crate::inputs::{write_design, DesignFiles};
use crate::trace::Tracer;
use crp_gp::GpConfig;
use crp_serve::json::Json;
use crp_serve::scheduler::SchedConfig;
use crp_serve::spec::{JobMode, JobSpec, Workload};
use crp_serve::{Client, Scheduler, Server};
use crp_workload::{ispd18_profiles, netlist_only_profiles, Profile};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// CR&P iterations of every job.
const JOB_ITERATIONS: usize = 3;
/// GP iterations of a `place` job.
const GP_ITERATIONS: usize = 16;

/// One kind of job in the mix.
pub struct JobKind {
    /// Label used in the output.
    pub name: &'static str,
    /// The job as submitted.
    pub spec: JobSpec,
    /// Reference DEF from a serial `run_job`.
    pub def: String,
    /// Reference guides from the same run.
    pub guide: String,
}

fn profile(name: &str, divisor: f64) -> Profile {
    ispd18_profiles()
        .into_iter()
        .chain(netlist_only_profiles())
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("profile {name} exists"))
        .scaled(divisor)
}

/// The three designs of the mix: `(kind name, profile, divisor, mode)`.
/// High divisors keep each job's flow small, so transport, protocol,
/// scheduling and persistence dominate a job's turnaround.
const KINDS: [(&str, &str, f64, JobMode); 3] = [
    ("crp_test1", "ispd18_test1", 100.0, JobMode::Crp),
    ("crp_test2", "ispd18_test2", 400.0, JobMode::Crp),
    ("place_fanout", "gp_fanout", 200.0, JobMode::Place),
];

/// Deck the clients draw jobs from: mostly `crp` jobs, one `place` job
/// in five.
const DECK: [usize; 5] = [0, 1, 0, 1, 2];

/// Writes the mix's input designs under `dir` (the set-up that
/// `setup_s` times together with daemon start-up).
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_inputs(seed: u64, dir: &Path) -> std::io::Result<Vec<DesignFiles>> {
    KINDS
        .iter()
        .map(|&(name, prof, div, _)| write_design(&profile(prof, div), seed, dir, name))
        .collect()
}

fn spec_for(files: &DesignFiles, mode: JobMode) -> JobSpec {
    let abs = |p: &Path| {
        std::fs::canonicalize(p)
            .unwrap_or_else(|_| p.to_path_buf())
            .to_string_lossy()
            .into_owned()
    };
    JobSpec {
        workload: Workload::LefDef {
            lef: abs(&files.lef),
            def: abs(&files.def),
        },
        iterations: JOB_ITERATIONS,
        threads: 1,
        checkpoint_every: 1,
        mode,
        gp_iterations: GP_ITERATIONS,
        ..JobSpec::default()
    }
}

/// The library flow equivalent to a job: the same inputs, GP and CR&P
/// configuration as `run_job` uses, plus DR for the score.
pub fn plan_for(spec: &JobSpec) -> FlowPlan {
    let mut crp = spec.config;
    crp.threads = 1;
    FlowPlan {
        gp: (spec.mode == JobMode::Place).then(|| GpConfig {
            iterations: spec.gp_iterations,
            bins: spec.gp_bins,
            threads: 1,
            seed: spec.config.seed,
            ..GpConfig::default()
        }),
        k: spec.iterations,
        crp,
    }
}

/// What set-up learned from the serial references.
pub struct References {
    /// The job kinds with their reference outputs.
    pub kinds: Vec<JobKind>,
    /// Weighted score of the library flow on each kind, summed.
    pub score: f64,
    /// Per-layer metrics of the traced library flows, summed over kinds
    /// (ratios recomputed from the summed counts).
    pub layers: BTreeMap<&'static str, f64>,
    /// Checks made and failed while building the references.
    pub checks: usize,
    /// Messages of failed checks.
    pub failures: Vec<String>,
}

/// Builds each kind's serial `run_job` reference in `dir`, and runs the
/// equivalent library flow, whose DEF and guides must match it.
pub fn build_references(files: &[DesignFiles], dir: &Path, trace: bool) -> References {
    let mut refs = References {
        kinds: Vec::new(),
        score: 0.0,
        layers: BTreeMap::new(),
        checks: 0,
        failures: Vec::new(),
    };
    for (f, &(name, _, _, mode)) in files.iter().zip(KINDS.iter()) {
        let spec = spec_for(f, mode);
        let job_dir = dir.join(format!("ref_{name}"));
        let no = AtomicBool::new(false);
        refs.checks += 2;
        let reference = std::fs::create_dir_all(&job_dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                crp_serve::run_job(&spec, &job_dir, 1, &no, &no, &mut |_| {}).map_err(|e| e.msg)
            })
            .and_then(|_| {
                let def = std::fs::read_to_string(job_dir.join("result.def"));
                let guide = std::fs::read_to_string(job_dir.join("result.guide"));
                def.and_then(|d| guide.map(|g| (d, g)))
                    .map_err(|e| e.to_string())
            });
        let (def, guide) = match reference {
            Ok(v) => v,
            Err(e) => {
                refs.failures
                    .push(format!("{name}: reference run_job failed: {e}"));
                (String::new(), String::new())
            }
        };
        let mut tracer = Tracer::new(trace);
        match run_flow(f, &plan_for(&spec), &job_dir.join("flow"), &mut tracer) {
            Ok(sample) => {
                if sample.def_text != def || sample.guide_text != guide {
                    refs.failures.push(format!(
                        "{name}: library flow differs from run_job reference"
                    ));
                }
                refs.score += sample.score.weighted;
                for (k, v) in crate::flows::layer_metrics(&sample, &tracer, 0) {
                    *refs.layers.entry(k).or_default() += v;
                }
            }
            Err(e) => refs
                .failures
                .push(format!("{name}: library flow failed: {e}")),
        }
        crate::flows::add_ratios(&mut refs.layers);
        refs.kinds.push(JobKind {
            name,
            spec,
            def,
            guide,
        });
    }
    refs
}

/// A running daemon and its address.
pub struct Daemon {
    server: Server,
    addr: String,
}

impl Daemon {
    /// Starts a scheduler on a fresh `data_dir` and a server on an
    /// ephemeral loopback port, sized for the closed loop: two job
    /// threads, two running jobs, room to queue every client's job.
    ///
    /// # Errors
    ///
    /// Returns the daemon's error message.
    pub fn start(data_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let scheduler = Scheduler::new(SchedConfig {
            data_dir: data_dir.to_path_buf(),
            queue_capacity: 8,
            total_threads: 2,
            max_running: 2,
            ..SchedConfig::default()
        })
        .map_err(|e| e.msg)?;
        let server = Server::start("127.0.0.1:0", scheduler).map_err(|e| e.msg)?;
        let addr = server.local_addr().to_string();
        Ok(Daemon { server, addr })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends `shutdown` and waits until the server has stopped.
    ///
    /// # Errors
    ///
    /// Returns the client's error message.
    pub fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.msg)?;
        c.call(&Json::obj(vec![("verb", Json::str("shutdown"))]))
            .map_err(|e| e.msg)?;
        self.server.wait_for_shutdown();
        Ok(())
    }
}

/// One completed (or failed) job as its client saw it.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// Submit to fetched, seconds.
    pub turnaround_s: f64,
    /// `submit` call latency, seconds.
    pub submit_s: f64,
    /// `watch` request to its `done` line, seconds.
    pub watch_s: f64,
    /// `fetch` call latency, seconds.
    pub fetch_s: f64,
    /// Whether spans were recorded for this job.
    pub traced: bool,
    /// Why the job or its check failed, if it did.
    pub failure: Option<String>,
}

fn verb(name: &str, id: u64) -> Json {
    Json::obj(vec![
        ("verb", Json::str(name)),
        ("id", Json::Int(i128::from(id))),
    ])
}

/// Runs one job on `client`: submit, watch to done, fetch, compare.
/// Its spans carry `request`.
fn one_job(client: &mut Client, kind: &JobKind, tracer: &mut Tracer, request: u64) -> JobSample {
    let mut s = JobSample::default();
    tracer.set_request(request);
    let t0 = Instant::now();
    let root = tracer.open("serve.job");
    let submit = Json::obj(vec![
        ("verb", Json::str("submit")),
        ("spec", kind.spec.to_json()),
    ]);
    let id = tracer.span("serve.submit", || client.call(&submit));
    let t1 = Instant::now();
    s.submit_s = (t1 - t0).as_secs_f64();
    let id = match id.map(|v| v.get("id").and_then(Json::as_u64)) {
        Ok(Some(id)) => id,
        Ok(None) => {
            s.failure = Some("submit answered without an id".into());
            tracer.close(root);
            return s;
        }
        Err(e) => {
            s.failure = Some(format!("submit: {}", e.msg));
            tracer.close(root);
            return s;
        }
    };
    let watched = tracer.span("serve.watch", || -> Result<String, String> {
        client.send(&verb("watch", id)).map_err(|e| e.msg)?;
        loop {
            let line = client.read_response().map_err(|e| e.msg)?;
            if line.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(line
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string());
            }
        }
    });
    let t2 = Instant::now();
    s.watch_s = (t2 - t1).as_secs_f64();
    match watched {
        Ok(state) if state == "done" => {}
        Ok(state) => s.failure = Some(format!("job {id} ended {state}")),
        Err(e) => s.failure = Some(format!("watch: {e}")),
    }
    if s.failure.is_none() {
        let fetched = tracer.span("serve.fetch", || client.call(&verb("fetch", id)));
        let t3 = Instant::now();
        s.fetch_s = (t3 - t2).as_secs_f64();
        s.turnaround_s = (t3 - t0).as_secs_f64();
        match fetched {
            Ok(v) => {
                let def = v.get("def").and_then(Json::as_str);
                let guide = v.get("guide").and_then(Json::as_str);
                if def != Some(kind.def.as_str()) || guide != Some(kind.guide.as_str()) {
                    s.failure = Some(format!("job {id} ({}) differs from reference", kind.name));
                }
            }
            Err(e) => s.failure = Some(format!("fetch: {}", e.msg)),
        }
    }
    tracer.close(root);
    s
}

/// splitmix64 step, for the clients' deck shuffles.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Client `c`'s job order: the deck, shuffled per round from `seed`.
fn deck_order(seed: u64, c: usize, round: u64) -> [usize; 5] {
    let mut d = DECK;
    let mut state = mix(seed ^ mix(c as u64) ^ mix(round.wrapping_add(17)));
    for i in (1..d.len()).rev() {
        state = mix(state);
        #[allow(clippy::cast_possible_truncation)]
        let j = (state % (i as u64 + 1)) as usize;
        d.swap(i, j);
    }
    d
}

/// What the closed loop measured.
pub struct LoadResult {
    /// Every job, all clients.
    pub jobs: Vec<JobSample>,
    /// First submit to last fetch, seconds.
    pub wall_s: f64,
    /// Client-side spans of every client.
    pub tracer: Tracer,
}

/// Drives `daemon` with [`CLIENTS`] closed-loop clients until `seconds`
/// have passed; jobs in flight at the deadline complete. With `trace`,
/// every other job of each client is traced.
pub fn closed_loop(
    daemon: &Daemon,
    refs: &References,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> LoadResult {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<JobSample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = daemon.addr().to_string();
                scope.spawn(move || {
                    let mut traced = Tracer::with_origin(true, origin);
                    let mut untraced = Tracer::new(false);
                    let mut jobs = Vec::new();
                    let mut client = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => {
                            jobs.push(JobSample {
                                failure: Some(format!("connect: {}", e.msg)),
                                ..JobSample::default()
                            });
                            return (jobs, traced);
                        }
                    };
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let kind = deck_order(seed, c, n / 5)[usize::try_from(n % 5).unwrap_or(0)];
                        let on = trace && n.is_multiple_of(2);
                        let tracer = if on { &mut traced } else { &mut untraced };
                        let request = ((c as u64) << 32) | n;
                        let mut s = one_job(&mut client, &refs.kinds[kind], tracer, request);
                        s.traced = on;
                        jobs.push(s);
                        n += 1;
                    }
                    (jobs, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let mut tracer = Tracer::with_origin(trace, origin);
    let mut jobs = Vec::new();
    for (j, t) in results {
        jobs.extend(j);
        tracer.absorb(t);
    }
    LoadResult {
        jobs,
        wall_s,
        tracer,
    }
}

/// What the daemon reports about itself after the load: the `metrics`
/// and `status` verbs.
#[derive(Debug, Default)]
pub struct DaemonReport {
    /// Server-side p50 handling latency per verb, microseconds.
    pub server_p50_us: BTreeMap<&'static str, f64>,
    /// Requests the server counted per verb.
    pub server_count: BTreeMap<&'static str, f64>,
    /// Admission rejections summed over tenants.
    pub admission_rejects: f64,
    /// CR&P stage time of each done job from its status timers, ms.
    pub job_run_ms: Vec<f64>,
}

/// Asks the daemon for its `metrics` and `status`.
///
/// # Errors
///
/// Returns the client's error message or a malformed reply.
#[allow(clippy::cast_precision_loss)]
pub fn daemon_report(daemon: &Daemon) -> Result<DaemonReport, String> {
    let mut c = Client::connect(daemon.addr()).map_err(|e| e.msg)?;
    let metrics = c
        .call(&Json::obj(vec![("verb", Json::str("metrics"))]))
        .map_err(|e| e.msg)?;
    let mut r = DaemonReport::default();
    for v in ["submit", "watch", "fetch"] {
        let stats = metrics
            .get("server")
            .and_then(|s| s.get("verbs"))
            .and_then(|s| s.get(v))
            .ok_or_else(|| format!("metrics lacks verb {v}"))?;
        let p50 = stats
            .get("latency")
            .and_then(|l| l.get("p50_us"))
            .and_then(Json::as_f64)
            .ok_or("metrics lacks p50_us")?;
        r.server_p50_us.insert(v, p50);
        r.server_count
            .insert(v, stats.get("count").and_then(Json::as_f64).unwrap_or(0.0));
    }
    if let Some(Json::Obj(tenants)) = metrics.get("scheduler").and_then(|s| s.get("tenants")) {
        r.admission_rejects = tenants
            .iter()
            .filter_map(|(_, t)| t.get("rejected").and_then(Json::as_f64))
            .sum();
    }
    let status = c
        .call(&Json::obj(vec![("verb", Json::str("status"))]))
        .map_err(|e| e.msg)?;
    for job in status.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
        if job.get("state").and_then(Json::as_str) != Some("done") {
            continue;
        }
        if let Some(ns) = job
            .get("last")
            .and_then(|l| l.get("timers"))
            .and_then(|t| t.get("total_ns"))
            .and_then(Json::as_f64)
        {
            r.job_run_ms.push(ns / 1e6);
        }
    }
    Ok(r)
}
