//! The job scheduler: bounded admission with per-tenant quotas,
//! deficit-round-robin fair-share dispatch, thread-budget partitioning,
//! and crash recovery.
//!
//! One mutex + condvar protect all scheduler state. A dedicated
//! dispatcher thread pops the next runnable job — chosen by the
//! [`Ledger`]'s deficit round robin across tenants, high lane before
//! normal within a tenant — whenever a worker slot and enough thread
//! budget are free, and spawns a worker thread for it. Workers run
//! [`run_job`] under `catch_unwind`, so a panicking flow (e.g. a
//! `crp-check` invariant failure) marks the job `Failed` with the
//! diagnostic-bundle path instead of killing the daemon.
//!
//! Every state transition is persisted to `jobs/<id>/state.json` before
//! it is observable over the wire, so a SIGKILL at any instant leaves a
//! directory tree from which [`Scheduler::recover`] reconstructs the
//! queue: `Running` jobs (whose worker died with the process) simply
//! re-enter their lane and resume from their last checkpoint.

use crate::checkpoint::write_atomic;
use crate::driver::{run_job, EventTimers, RunOutcome, WatchEvent};
use crate::error::ServeError;
use crate::fairshare::{FinishKind, Ledger, TenantQuota, TenantView};
use crate::json::{parse, Json};
use crate::spec::{JobSpec, JobState, Lane};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Scheduler tunables.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Root data directory; jobs live under `<data_dir>/jobs/<id>/`.
    pub data_dir: PathBuf,
    /// Maximum jobs waiting in the lanes; submissions beyond this are
    /// rejected with a reason (admission control).
    pub queue_capacity: usize,
    /// Total worker-thread budget partitioned across running jobs.
    pub total_threads: usize,
    /// Maximum jobs running concurrently.
    pub max_running: usize,
    /// Quota for tenants without an explicit override. `None` means "no
    /// tighter than the daemon-wide limits above".
    pub default_quota: Option<TenantQuota>,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, TenantQuota)>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            data_dir: std::env::temp_dir().join("crpd-data"),
            queue_capacity: 16,
            total_threads: 4,
            max_running: 2,
            default_quota: None,
            quotas: Vec::new(),
        }
    }
}

/// Per-job control flags shared between the scheduler and the worker.
#[derive(Debug, Default)]
struct JobFlags {
    cancel: AtomicBool,
    pause: AtomicBool,
}

/// Everything the scheduler tracks about one job.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Error message when `Failed`.
    error: Option<String>,
    /// Iterations completed (from the last event or checkpoint).
    iterations_done: usize,
    /// Thread budget granted while `Running`.
    granted: usize,
    /// Per-iteration events observed so far (resume-aware: prefilled
    /// from the checkpoint's reports on recovery).
    events: Vec<WatchEvent>,
    flags: Arc<JobFlags>,
}

impl JobRecord {
    fn new(spec: JobSpec, state: JobState) -> JobRecord {
        JobRecord {
            spec,
            state,
            error: None,
            iterations_done: 0,
            granted: 0,
            events: Vec::new(),
            flags: Arc::new(JobFlags::default()),
        }
    }
}

#[derive(Debug)]
struct SchedState {
    jobs: BTreeMap<u64, JobRecord>,
    ledger: Ledger,
    next_id: u64,
    running: usize,
    free_threads: usize,
    draining: bool,
    /// `state.json` writes that failed (see `Scheduler::persist_state`).
    persist_failures: u64,
}

/// The shared scheduler handle. Cloning is cheap; all clones drive the
/// same state.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

struct SchedInner {
    config: SchedConfig,
    state: Mutex<SchedState>,
    /// Woken on every state change: the dispatcher re-evaluates and
    /// `drain` re-checks.
    cond: Condvar,
}

/// A point-in-time public view of one job, for `status` responses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// The tenant the job is accounted to.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling lane.
    pub priority: Lane,
    /// Iterations completed so far.
    pub iterations_done: usize,
    /// Total iterations requested.
    pub iterations_total: usize,
    /// Thread budget granted (0 unless running).
    pub granted_threads: usize,
    /// Failure message, when `Failed`.
    pub error: Option<String>,
    /// The last iteration's event, when any iteration has completed.
    pub last_event: Option<WatchEvent>,
}

impl JobStatus {
    /// Serializes the status for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::Int(i128::from(self.id))),
            ("tenant", Json::str(&self.tenant)),
            ("state", Json::str(self.state.as_str())),
            ("priority", Json::str(self.priority.as_str())),
            ("iterations_done", Json::Int(self.iterations_done as i128)),
            ("iterations_total", Json::Int(self.iterations_total as i128)),
            ("granted_threads", Json::Int(self.granted_threads as i128)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e)));
        }
        if let Some(ev) = &self.last_event {
            fields.push(("last", ev.to_json()));
        }
        Json::obj(fields)
    }
}

/// A point-in-time snapshot of the scheduler for the `metrics` verb:
/// queue depths per tenant and lane, grant utilization, admission
/// counters, job-state census, and aggregated price-cache statistics.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Global queue capacity.
    pub queue_capacity: usize,
    /// Jobs queued across all tenants.
    pub queued: usize,
    /// Jobs running.
    pub running: usize,
    /// Maximum concurrently running jobs.
    pub max_running: usize,
    /// Daemon-wide worker-thread budget.
    pub total_threads: usize,
    /// Threads not currently granted.
    pub free_threads: usize,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Per-tenant views, in name order.
    pub tenants: Vec<TenantView>,
    /// Count of jobs per lifecycle state, by wire name.
    pub states: BTreeMap<&'static str, usize>,
    /// Price-cache hits summed over every known job's latest timers.
    pub cache_hits: u64,
    /// Price-cache misses summed over every known job's latest timers.
    pub cache_misses: u64,
    /// `state.json` writes that failed since the daemon started.
    pub persist_failures: u64,
}

impl SchedMetrics {
    /// Serializes the snapshot for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let c = t.counters;
                (
                    t.name.clone(),
                    Json::obj(vec![
                        ("queued_high", Json::Int(t.queued_high as i128)),
                        ("queued_normal", Json::Int(t.queued_normal as i128)),
                        ("running", Json::Int(t.running as i128)),
                        ("threads_in_use", Json::Int(t.threads_in_use as i128)),
                        ("deficit", Json::Int(i128::from(t.deficit))),
                        (
                            "quota",
                            Json::obj(vec![
                                ("max_queued", Json::Int(t.quota.max_queued as i128)),
                                ("max_running", Json::Int(t.quota.max_running as i128)),
                                ("thread_share", Json::Int(t.quota.thread_share as i128)),
                            ]),
                        ),
                        ("admitted", Json::Int(i128::from(c.admitted))),
                        ("rejected", Json::Int(i128::from(c.rejected))),
                        ("dispatched", Json::Int(i128::from(c.dispatched))),
                        ("completed", Json::Int(i128::from(c.completed))),
                        ("failed", Json::Int(i128::from(c.failed))),
                        ("cancelled", Json::Int(i128::from(c.cancelled))),
                        ("parked", Json::Int(i128::from(c.parked))),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let states = self
            .states
            .iter()
            .map(|(&name, &n)| (name.to_string(), Json::Int(n as i128)))
            .collect::<Vec<_>>();
        let total_cache = self.cache_hits + self.cache_misses;
        #[allow(clippy::cast_precision_loss)]
        let hit_rate = if total_cache > 0 {
            Json::Float(self.cache_hits as f64 / total_cache as f64)
        } else {
            Json::Null
        };
        let in_use = self.total_threads.saturating_sub(self.free_threads);
        #[allow(clippy::cast_precision_loss)]
        let utilization = if self.total_threads > 0 {
            Json::Float(in_use as f64 / self.total_threads as f64)
        } else {
            Json::Null
        };
        Json::obj(vec![
            (
                "queue",
                Json::obj(vec![
                    ("capacity", Json::Int(self.queue_capacity as i128)),
                    ("queued", Json::Int(self.queued as i128)),
                    ("running", Json::Int(self.running as i128)),
                    ("max_running", Json::Int(self.max_running as i128)),
                    ("draining", Json::Bool(self.draining)),
                ]),
            ),
            (
                "threads",
                Json::obj(vec![
                    ("total", Json::Int(self.total_threads as i128)),
                    ("free", Json::Int(self.free_threads as i128)),
                    ("in_use", Json::Int(in_use as i128)),
                    ("utilization", utilization),
                ]),
            ),
            ("tenants", Json::Obj(tenants)),
            ("states", Json::Obj(states)),
            (
                "price_cache",
                Json::obj(vec![
                    ("hits", Json::Int(i128::from(self.cache_hits))),
                    ("misses", Json::Int(i128::from(self.cache_misses))),
                    ("hit_rate", hit_rate),
                ]),
            ),
            (
                "persist_failures",
                Json::Int(i128::from(self.persist_failures)),
            ),
        ])
    }
}

fn lock_state(inner: &SchedInner) -> std::sync::MutexGuard<'_, SchedState> {
    // A worker that panicked between state writes poisons nothing
    // observable: all invariants are re-established under this lock.
    inner
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    /// Creates a scheduler, its data directory, and the dispatcher
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the data directory cannot be
    /// created.
    pub fn new(config: SchedConfig) -> Result<Scheduler, ServeError> {
        std::fs::create_dir_all(config.data_dir.join("jobs"))?;
        let free_threads = config.total_threads.max(1);
        let default_quota = config.default_quota.unwrap_or_else(|| {
            TenantQuota::unlimited_within(config.queue_capacity, config.max_running, free_threads)
        });
        let ledger = Ledger::new(config.queue_capacity, default_quota, config.quotas.clone());
        let sched = Scheduler {
            inner: Arc::new(SchedInner {
                config,
                state: Mutex::new(SchedState {
                    jobs: BTreeMap::new(),
                    ledger,
                    next_id: 0,
                    running: 0,
                    free_threads,
                    draining: false,
                    persist_failures: 0,
                }),
                cond: Condvar::new(),
            }),
        };
        let for_dispatch = sched.clone();
        std::thread::Builder::new()
            .name("crpd-dispatch".to_string())
            .spawn(move || for_dispatch.dispatch_loop())
            .map_err(|e| ServeError::new(format!("cannot spawn dispatcher: {e}")))?;
        Ok(sched)
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.inner.config.data_dir.join("jobs").join(id.to_string())
    }

    /// The directory jobs live under (for result fetching).
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.inner.config.data_dir
    }

    /// Scans `jobs/` and re-enqueues every job a previous daemon process
    /// left unfinished. `Running` jobs become `Queued` again (their
    /// worker died with the old process; their checkpoint carries the
    /// completed iterations). Terminal jobs are kept for `status` /
    /// `fetch` but not re-run. Returns how many jobs were re-enqueued.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the jobs directory is unreadable;
    /// individual corrupt job dirs are skipped, not fatal.
    pub fn recover(&self) -> Result<usize, ServeError> {
        let jobs_root = self.inner.config.data_dir.join("jobs");
        let mut revived = 0;
        let mut entries: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&jobs_root)? {
            let entry = entry?;
            if let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            {
                entries.push(id);
            }
        }
        entries.sort_unstable();
        for id in entries {
            match self.recover_one(id) {
                Ok(true) => revived += 1,
                Ok(false) => {}
                Err(_) => {} // corrupt dir: skip, don't take the daemon down
            }
        }
        if revived > 0 {
            self.inner.cond.notify_all();
        }
        Ok(revived)
    }

    fn recover_one(&self, id: u64) -> Result<bool, ServeError> {
        let dir = self.job_dir(id);
        let spec_text = std::fs::read_to_string(dir.join("spec.json"))?;
        let spec = JobSpec::from_json(&parse(&spec_text)?)?;
        let state_text = std::fs::read_to_string(dir.join("state.json"))?;
        let state_json = parse(&state_text)?;
        let state = state_json
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::from_name)
            .ok_or_else(|| ServeError::new("bad state.json"))?;
        let error = state_json
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        let ckpt = crate::checkpoint::Checkpoint::load(&dir.join(crate::driver::CHECKPOINT_FILE))
            .unwrap_or(None);
        // Progress counts over the combined (GP + CR&P) range: a CR&P
        // checkpoint implies the GP phase finished, so its iteration
        // count is offset by the GP phase; with only a GP snapshot the
        // solver's own iteration counter is the progress.
        let iterations_done = match &ckpt {
            Some(c) => spec.gp_phase_iterations() + c.iterations_done,
            None => crate::checkpoint::load_gp_state(&dir.join(crate::driver::GP_CHECKPOINT_FILE))
                .unwrap_or(None)
                .map_or(0, |s| s.iter),
        };

        let mut st = lock_state(&self.inner);
        st.next_id = st.next_id.max(id + 1);
        let revive = !state.is_terminal();
        let record_state = if revive { JobState::Queued } else { state };
        let lane = spec.priority;
        let tenant = spec.tenant.clone();
        let mut rec = JobRecord::new(spec, record_state);
        rec.error = error;
        rec.iterations_done = iterations_done;
        st.jobs.insert(id, rec);
        if revive {
            st.ledger.enqueue_recovered(&tenant, lane, id);
        }
        drop(st);
        if revive {
            self.persist_state(id, JobState::Queued, None);
        }
        Ok(revive)
    }

    /// Admits a job or rejects it with a reason (queue full, tenant
    /// quota full, or draining).
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] with the rejection reason; the job is
    /// not recorded.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        let id;
        {
            let mut st = lock_state(&self.inner);
            if st.draining {
                return Err(ServeError::new("daemon is draining; not accepting jobs"));
            }
            id = st.next_id;
            st.ledger
                .admit(&spec.tenant, spec.priority, id)
                .map_err(ServeError::new)?;
            st.next_id += 1;
            st.jobs
                .insert(id, JobRecord::new(spec.clone(), JobState::Queued));
        }
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)?;
        write_atomic(&dir.join("spec.json"), spec.to_json().to_string())?;
        self.persist_state(id, JobState::Queued, None);
        self.inner.cond.notify_all();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs are removed from their lane
    /// immediately; running jobs stop at the next iteration boundary.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn cancel(&self, id: u64) -> Result<JobState, ServeError> {
        let mut st = lock_state(&self.inner);
        let rec = st
            .jobs
            .get(&id)
            .ok_or_else(|| ServeError::new(format!("unknown job {id}")))?;
        let state = rec.state;
        let tenant = rec.spec.tenant.clone();
        match state {
            JobState::Queued | JobState::Checkpointed => {
                // A queued job sits in a lane; a checkpointed job was
                // already struck from the ledger when it parked.
                if state == JobState::Queued {
                    st.ledger.cancel_queued(&tenant, id);
                }
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.state = JobState::Cancelled;
                    rec.flags.cancel.store(true, Ordering::Release);
                }
                drop(st);
                self.persist_state(id, JobState::Cancelled, None);
                self.inner.cond.notify_all();
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                rec.flags.cancel.store(true, Ordering::Release);
                Ok(JobState::Running) // will transition at the boundary
            }
            terminal => Ok(terminal),
        }
    }

    fn status_of(rec: &JobRecord, id: u64) -> JobStatus {
        JobStatus {
            id,
            tenant: rec.spec.tenant.clone(),
            state: rec.state,
            priority: rec.spec.priority,
            iterations_done: rec.iterations_done,
            iterations_total: rec.spec.total_iterations(),
            granted_threads: rec.granted,
            error: rec.error.clone(),
            last_event: rec.events.last().cloned(),
        }
    }

    /// A point-in-time view of one job.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn status(&self, id: u64) -> Result<JobStatus, ServeError> {
        let st = lock_state(&self.inner);
        let rec = st
            .jobs
            .get(&id)
            .ok_or_else(|| ServeError::new(format!("unknown job {id}")))?;
        Ok(Self::status_of(rec, id))
    }

    /// Status of every known job, in id order.
    #[must_use]
    pub fn status_all(&self) -> Vec<JobStatus> {
        let st = lock_state(&self.inner);
        st.jobs
            .iter()
            .map(|(&id, rec)| Self::status_of(rec, id))
            .collect()
    }

    /// A consistent snapshot of queue depths, tenant accounting, thread
    /// utilization, job-state census, and price-cache statistics —
    /// everything behind the `metrics` verb that the scheduler owns.
    #[must_use]
    pub fn metrics(&self) -> SchedMetrics {
        let st = lock_state(&self.inner);
        let mut states: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        for rec in st.jobs.values() {
            *states.entry(rec.state.as_str()).or_insert(0) += 1;
            // CR&P timers accumulate across iterations and survive
            // checkpoint restore, so the latest event holds the job's
            // lifetime totals; a GP event has no cache.
            if let Some(EventTimers::Crp(t)) = rec.events.last().map(|ev| ev.timers) {
                cache_hits += t.ecc_cache_hits;
                cache_misses += t.ecc_cache_misses;
            }
        }
        SchedMetrics {
            queue_capacity: self.inner.config.queue_capacity,
            queued: st.ledger.queued_total(),
            running: st.running,
            max_running: self.inner.config.max_running,
            total_threads: self.inner.config.total_threads.max(1),
            free_threads: st.free_threads,
            draining: st.draining,
            tenants: st.ledger.views(),
            states,
            cache_hits,
            cache_misses,
            persist_failures: st.persist_failures,
        }
    }

    /// The `watch` verb's view of a job: whatever events exist from
    /// `from` on (possibly none) and the job's current state, returned
    /// immediately. The connection pool polls this so one slow watcher
    /// cannot stall a socket worker.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn watch_poll(
        &self,
        id: u64,
        from: usize,
    ) -> Result<(Vec<WatchEvent>, JobState), ServeError> {
        let st = lock_state(&self.inner);
        let rec = st
            .jobs
            .get(&id)
            .ok_or_else(|| ServeError::new(format!("unknown job {id}")))?;
        let events = rec.events.get(from..).unwrap_or(&[]).to_vec();
        Ok((events, rec.state))
    }

    /// Begins draining: rejects new submissions, asks every running job
    /// to pause at its next iteration boundary, and returns once all
    /// workers have parked their jobs as `Checkpointed` (or finished).
    pub fn drain(&self) {
        let mut st = lock_state(&self.inner);
        st.draining = true;
        for rec in st.jobs.values() {
            if rec.state == JobState::Running {
                rec.flags.pause.store(true, Ordering::Release);
            }
        }
        self.inner.cond.notify_all();
        while st.running > 0 {
            let guard = self
                .inner
                .cond
                // crp-lint: allow(held-lock-blocking, condvar wait atomically releases the state mutex it is paired with; no other lock is held
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    /// Writes `state.json` for a job with [`write_atomic`]. Persistence
    /// is best-effort durability, not correctness: a failed write
    /// degrades crash recovery, never live behavior, so it is counted in
    /// [`SchedMetrics::persist_failures`] rather than returned.
    fn persist_state(&self, id: u64, state: JobState, error: Option<&str>) {
        let mut fields = vec![("state", Json::str(state.as_str()))];
        if let Some(e) = error {
            fields.push(("error", Json::str(e)));
        }
        let path = self.job_dir(id).join("state.json");
        if write_atomic(&path, Json::obj(fields).to_string()).is_err() {
            lock_state(&self.inner).persist_failures += 1;
        }
    }

    /// Dispatcher: runs until the process exits. Waits for a runnable
    /// job + free capacity, grants a thread budget, and spawns a worker.
    fn dispatch_loop(&self) {
        loop {
            let (id, granted) = {
                let mut st = lock_state(&self.inner);
                loop {
                    if let Some(pick) = self.pick_runnable(&mut st) {
                        break pick;
                    }
                    let guard = self
                        .inner
                        .cond
                        // crp-lint: allow(held-lock-blocking, condvar wait atomically releases the state mutex it is paired with; no other lock is held
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st = guard;
                }
            };
            let sched = self.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("crpd-job-{id}"))
                .spawn(move || sched.run_worker(id, granted));
            if spawned.is_err() {
                // Could not spawn: return the job to the front of its
                // lane, as if the dispatch never happened.
                let mut st = lock_state(&self.inner);
                st.running = st.running.saturating_sub(1);
                st.free_threads += granted;
                let returned = st.jobs.get_mut(&id).map(|rec| {
                    rec.state = JobState::Queued;
                    rec.granted = 0;
                    (rec.spec.tenant.clone(), rec.spec.priority)
                });
                if let Some((tenant, lane)) = returned {
                    st.ledger.rollback_dispatch(&tenant, lane, id, granted);
                }
            }
        }
    }

    /// Picks the next runnable job when a slot and budget are available.
    /// The ledger's deficit round robin chooses the tenant (high lane
    /// before normal within it); holding the lock, moves the job to
    /// `Running` and reserves its thread grant, capped by the tenant's
    /// remaining thread share.
    fn pick_runnable(&self, st: &mut SchedState) -> Option<(u64, usize)> {
        if st.draining || st.running >= self.inner.config.max_running || st.free_threads == 0 {
            return None;
        }
        let (tenant, id, _lane) = st.ledger.pick()?;
        let Some(rec) = st.jobs.get_mut(&id) else {
            // Record vanished (cancel raced): drop the pick entirely.
            st.ledger.finish(&tenant, 0, FinishKind::Cancelled);
            return None;
        };
        // Grant min(requested, free, tenant share left), at least 1 (the
        // ledger only picks tenants with share left). A job never waits
        // for more than one thread: shrinking the grant changes speed,
        // not results, because `run_indexed` is bit-identical at any
        // thread count.
        let share_left = st.ledger.share_left(&tenant).max(1);
        let granted = rec.spec.threads.clamp(1, st.free_threads).min(share_left);
        st.running += 1;
        st.free_threads -= granted;
        rec.state = JobState::Running;
        rec.granted = granted;
        st.ledger.grant_threads(&tenant, granted);
        Some((id, granted))
    }

    /// Worker body: runs the job, then applies the outcome under the
    /// lock and persists it.
    fn run_worker(&self, id: u64, granted: usize) {
        self.persist_state(id, JobState::Running, None);
        let (spec, flags) = {
            let st = lock_state(&self.inner);
            match st.jobs.get(&id) {
                Some(rec) => (rec.spec.clone(), Arc::clone(&rec.flags)),
                None => return,
            }
        };
        let dir = self.job_dir(id);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Watchers poll (`watch_poll`), so an event wakes no one.
            let mut on_event = |ev: WatchEvent| {
                let mut st = lock_state(&self.inner);
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.iterations_done = ev.iteration + 1;
                    rec.events.push(ev);
                }
            };
            run_job(
                &spec,
                &dir,
                granted,
                &flags.cancel,
                &flags.pause,
                &mut on_event,
            )
        }));

        let (state, error) = match result {
            Ok(Ok(RunOutcome::Finished)) => (JobState::Done, None),
            Ok(Ok(RunOutcome::Paused)) => (JobState::Checkpointed, None),
            Ok(Ok(RunOutcome::Cancelled)) => (JobState::Cancelled, None),
            Ok(Err(e)) => (JobState::Failed, Some(e.msg)),
            Err(payload) => {
                // A crp-check failure panics with the bundle path in its
                // message; surface it to `status` instead of dying.
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "worker panicked".to_string());
                (JobState::Failed, Some(msg))
            }
        };

        let mut st = lock_state(&self.inner);
        st.running = st.running.saturating_sub(1);
        st.free_threads += granted;
        let mut final_state = state;
        if let Some(rec) = st.jobs.get_mut(&id) {
            rec.granted = 0;
            // A cancel that raced the final iteration still wins.
            final_state = if rec.flags.cancel.load(Ordering::Acquire) && state != JobState::Done {
                JobState::Cancelled
            } else {
                state
            };
            rec.state = final_state;
            rec.error = error.clone();
            let kind = match final_state {
                JobState::Done => FinishKind::Completed,
                JobState::Failed => FinishKind::Failed,
                JobState::Checkpointed => FinishKind::Parked,
                _ => FinishKind::Cancelled,
            };
            let tenant = rec.spec.tenant.clone();
            st.ledger.finish(&tenant, granted, kind);
        }
        drop(st);
        self.persist_state(id, final_state, error.as_deref());
        self.inner.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn tiny_spec(iters: usize) -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "ispd18_test1".to_string(),
                scale: 800.0,
            },
            iterations: iters,
            ..JobSpec::default()
        }
    }

    fn tenant_spec(tenant: &str, iters: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            ..tiny_spec(iters)
        }
    }

    fn sched(tag: &str, cap: usize) -> Scheduler {
        let dir = std::env::temp_dir().join(format!("crp-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: cap,
            total_threads: 2,
            max_running: 2,
            ..SchedConfig::default()
        })
        .unwrap()
    }

    /// Polls `watch_poll` until the job has an event at index `>= from`
    /// or is terminal; returns the events from `from` on and the state.
    fn watch_wait(s: &Scheduler, id: u64, from: usize) -> (Vec<WatchEvent>, JobState) {
        loop {
            let (events, state) = s.watch_poll(id, from).unwrap();
            if !events.is_empty() || state.is_terminal() {
                return (events, state);
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    fn wait_terminal(s: &Scheduler, id: u64) -> JobState {
        watch_wait(s, id, usize::MAX).1
    }

    #[test]
    fn submit_run_watch_completes() {
        let s = sched("basic", 4);
        let id = s.submit(tiny_spec(2)).unwrap();
        let (events, state) = watch_wait(&s, id, 0);
        assert!(!events.is_empty());
        let state = if state.is_terminal() {
            state
        } else {
            wait_terminal(&s, id)
        };
        assert_eq!(state, JobState::Done);
        let status = s.status(id).unwrap();
        assert_eq!(status.iterations_done, 2);
        assert_eq!(status.tenant, "default");
        assert!(s.data_dir().join("jobs/0/result.def").exists());
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        let s = sched("full", 1);
        // Saturate: 2 can start running, 1 sits queued, the next must be
        // rejected. Submit quickly; jobs take long enough to overlap.
        let mut accepted = 0;
        let mut rejected = None;
        for _ in 0..8 {
            match s.submit(tiny_spec(50)) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("expected an admission rejection");
        assert!(e.msg.contains("queue full"), "{e}");
        assert!(accepted >= 1);
    }

    #[test]
    fn tenant_queue_quota_rejects_with_reason() {
        let dir = std::env::temp_dir().join(format!("crp-sched-quota-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: 64,
            total_threads: 2,
            max_running: 1,
            quotas: vec![(
                "greedy".to_string(),
                TenantQuota {
                    max_queued: 2,
                    max_running: 1,
                    thread_share: 1,
                },
            )],
            ..SchedConfig::default()
        })
        .unwrap();
        // Fill the running slot so submissions stay queued.
        let _running = s.submit(tenant_spec("greedy", 50)).unwrap();
        let mut rejected = None;
        for _ in 0..6 {
            match s.submit(tenant_spec("greedy", 50)) {
                Ok(_) => {}
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("expected a tenant quota rejection");
        assert!(e.msg.contains("tenant `greedy` queue quota"), "{e}");
        // Another tenant is still admitted.
        assert!(s.submit(tenant_spec("polite", 1)).is_ok());
        let m = s.metrics();
        let greedy = m.tenants.iter().find(|t| t.name == "greedy").unwrap();
        assert!(greedy.counters.rejected >= 1);
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let s = sched("cancel", 8);
        // Two long jobs occupy both slots; the third stays queued.
        let _a = s.submit(tiny_spec(6)).unwrap();
        let _b = s.submit(tiny_spec(6)).unwrap();
        let c = s.submit(tiny_spec(6)).unwrap();
        let state = s.cancel(c).unwrap();
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(s.status(c).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn unknown_job_is_an_error() {
        let s = sched("unknown", 4);
        assert!(s.status(99).is_err());
        assert!(s.cancel(99).is_err());
        assert!(s.watch_poll(99, 0).is_err());
    }

    #[test]
    fn drain_parks_running_jobs_checkpointed() {
        let s = sched("drain", 8);
        let id = s.submit(tiny_spec(50)).unwrap();
        // Wait until it has produced at least one event, then drain.
        let _ = watch_wait(&s, id, 0);
        s.drain();
        let state = s.status(id).unwrap().state;
        assert!(
            state == JobState::Checkpointed || state == JobState::Done,
            "after drain: {state:?}"
        );
        assert!(s.submit(tiny_spec(1)).is_err(), "draining must reject");
        // Per-tenant accounting returned to zero.
        let m = s.metrics();
        for t in &m.tenants {
            assert_eq!(t.running, 0, "{}", t.name);
            assert_eq!(t.threads_in_use, 0, "{}", t.name);
            assert_eq!(t.queued_high + t.queued_normal, 0, "{}", t.name);
        }
    }

    #[test]
    fn recover_requeues_unfinished_jobs() {
        let dir = std::env::temp_dir().join(format!("crp-sched-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SchedConfig {
            data_dir: dir.clone(),
            queue_capacity: 8,
            total_threads: 2,
            max_running: 2,
            ..SchedConfig::default()
        };
        {
            let s = Scheduler::new(config.clone()).unwrap();
            let id = s.submit(tiny_spec(50)).unwrap();
            let _ = watch_wait(&s, id, 0); // at least one iteration done
            s.drain(); // park it with a checkpoint, like a graceful stop
        }
        // "New process": a fresh scheduler over the same data dir.
        let s2 = Scheduler::new(config).unwrap();
        let revived = s2.recover().unwrap();
        assert_eq!(revived, 1);
        let id = s2.status_all()[0].id;
        let state = s2.status(id).unwrap().state;
        assert!(
            state == JobState::Queued || state == JobState::Running || state == JobState::Done,
            "recovered into {state:?}"
        );
    }

    /// A greedy tenant flooding the queue cannot delay another tenant's
    /// queued job beyond its fair turn: the polite tenant's single job
    /// completes while most of the flood is still queued.
    #[test]
    fn greedy_tenant_does_not_starve_polite_one() {
        let dir = std::env::temp_dir().join(format!("crp-sched-fair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: 64,
            total_threads: 1,
            max_running: 1,
            ..SchedConfig::default()
        })
        .unwrap();
        let mut flood = Vec::new();
        for _ in 0..10 {
            flood.push(s.submit(tenant_spec("greedy", 1)).unwrap());
        }
        let polite = s.submit(tenant_spec("polite", 1)).unwrap();
        let state = wait_terminal(&s, polite);
        assert_eq!(state, JobState::Done);
        // Fair share (equal weights): at most a couple of greedy jobs ran
        // before polite's turn came around.
        let done_before = flood
            .iter()
            .filter(|&&id| s.status(id).unwrap().state == JobState::Done)
            .count();
        assert!(
            done_before <= 3,
            "{done_before} greedy jobs finished before the polite tenant's single job"
        );
    }

    #[test]
    fn metrics_snapshot_is_internally_consistent() {
        let s = sched("metrics", 8);
        let a = s.submit(tenant_spec("a", 2)).unwrap();
        let b = s.submit(tenant_spec("b", 2)).unwrap();
        wait_terminal(&s, a);
        wait_terminal(&s, b);
        let m = s.metrics();
        let queued_sum: usize = m
            .tenants
            .iter()
            .map(|t| t.queued_high + t.queued_normal)
            .sum();
        assert_eq!(queued_sum, m.queued);
        assert_eq!(m.queued, 0);
        assert_eq!(m.free_threads, m.total_threads);
        let done = m.states.get("done").copied().unwrap_or(0);
        assert_eq!(done, 2);
        // Both jobs ran with the price cache on: hits+misses > 0 and the
        // snapshot carried them.
        assert!(m.cache_hits + m.cache_misses > 0);
        let json = m.to_json().to_string();
        let v = parse(&json).unwrap();
        assert_eq!(
            v.get("queue")
                .and_then(|q| q.get("queued"))
                .and_then(Json::as_usize),
            Some(0)
        );
    }

    #[test]
    fn failed_state_write_is_counted() {
        // No job is ever dispatched, so the queued job's only writes are
        // the ones this test provokes.
        let dir = std::env::temp_dir().join(format!("crp-sched-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::new(SchedConfig {
            data_dir: dir,
            max_running: 0,
            ..SchedConfig::default()
        })
        .unwrap();
        let id = s.submit(tiny_spec(1)).unwrap();
        assert_eq!(s.metrics().persist_failures, 0);
        std::fs::remove_dir_all(s.job_dir(id)).unwrap();
        assert_eq!(s.cancel(id).unwrap(), JobState::Cancelled);
        let m = s.metrics();
        assert_eq!(m.persist_failures, 1);
        let v = parse(&m.to_json().to_string()).unwrap();
        assert_eq!(v.get("persist_failures").and_then(Json::as_u64), Some(1));
    }
}
