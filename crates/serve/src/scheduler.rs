//! The worker-pool scheduler.
//!
//! Jobs are repair runs over registry subjects, driven step-wise through
//! [`RepairDriver`] so the pool can checkpoint, pause, cancel and resume
//! them at step granularity. Ready jobs wait in one FIFO run queue held in
//! the job table's `State` and guarded by its mutex. A worker pops the head
//! under that lock and, while the queue is empty, sleeps on the `work`
//! condvar of the same mutex. Pushes and sleeps share the lock, so a
//! wakeup cannot be missed and no worker needs a timed backstop.
//! [`Scheduler::wait`] sleeps on a second condvar, which every terminal
//! state transition notifies.
//!
//! Queue removal is eager: `cancel` and `pause` of a queued job, and
//! `shutdown`, take its id out of the queue under the lock that changes
//! its state. An id is in the queue exactly while its job is `Queued`, and
//! the queue never holds more than [`SchedulerOptions::max_queued_jobs`]
//! ids, which bounds the removal scan.
//!
//! # Admission control
//!
//! [`Scheduler::submit`] is bounded: past
//! [`SchedulerOptions::max_queued_jobs`] waiting jobs it refuses with a
//! typed [`ERR_OVERLOADED`] error instead of queueing without bound —
//! clients can distinguish "back off and retry" from a real failure.
//!
//! Control is cooperative: `cancel` and `pause` set a flag that the
//! running worker observes between driver steps, writes a durable snapshot
//! through the [`SnapshotStore`], and parks the job — so a canceled or
//! paused job can always be resumed later, bit-identically (the snapshot
//! differential test in `tests/determinism.rs` is the proof obligation).
//! `resume` appends a parked job to the back of the run queue.
//! Per-job budgets ride on [`RepairConfig`]: iteration and wall-clock
//! limits end a run through the driver's own [`StopReason`], producing a
//! normal report.
//!
//! # Fault containment
//!
//! A panic inside one job must never take the pool down. Job execution is
//! wrapped in `catch_unwind` — a panicking `RepairDriver` marks *that* job
//! failed with the panic payload in its status — and every lock
//! acquisition recovers a poisoned guard with `PoisonError::into_inner`
//! (every write under the lock is a field store or a queue push or
//! removal, none of which can panic halfway, so a recovering reader finds
//! the job table and the run queue consistent).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpr_core::{RepairConfig, RepairDriver, RepairProblem, StepStatus};
use cpr_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cpr_subjects::all_subjects;

use crate::json::Json;
use crate::protocol::{report_to_json, JobSpec, ServeError, ERR_OVERLOADED};
use crate::store::SnapshotStore;

/// Locks a mutex, recovering the guard if a previous holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default checkpoint cadence (driver steps between durable snapshots)
/// when a spec does not set one.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 8;

/// Default bound on waiting (queued) jobs before `submit` answers with a
/// typed `overloaded` error.
pub const DEFAULT_MAX_QUEUED_JOBS: usize = 256;

/// How a [`Scheduler`] is shaped: worker count and the admission bound.
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Ignored: the scheduler never reads it. It named the directory of
    /// a persistent solver-verdict cache that no longer exists, and stays
    /// only so that existing struct literals still compile.
    pub cache_dir: Option<PathBuf>,
    /// Admission bound: `submit` refuses (typed `overloaded`) while this
    /// many jobs are already waiting for a worker.
    pub max_queued_jobs: usize,
}

impl Default for SchedulerOptions {
    fn default() -> SchedulerOptions {
        SchedulerOptions {
            workers: 1,
            cache_dir: None,
            max_queued_jobs: DEFAULT_MAX_QUEUED_JOBS,
        }
    }
}

/// The lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is stepping it.
    Running,
    /// Suspended on request; a snapshot is stored.
    Paused,
    /// Stopped on request; a snapshot is stored if it had started.
    Canceled,
    /// Finished; the report is available.
    Done,
    /// The run could not proceed (bad subject, unreadable snapshot, ...).
    Failed,
}

impl JobState {
    /// The protocol name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Canceled => "canceled",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job can never run again without a `resume`.
    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Paused | JobState::Canceled | JobState::Done | JobState::Failed
        )
    }
}

/// A point-in-time public view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Subject name from the spec.
    pub subject: String,
    /// Current state.
    pub state: JobState,
    /// Repair-loop iterations completed so far.
    pub iterations: usize,
    /// Why the run stopped, for done jobs (`StopReason::name()`).
    pub stop_reason: Option<&'static str>,
    /// Failure message, for failed jobs.
    pub error: Option<String>,
}

impl JobStatus {
    /// The status as protocol JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("job", Json::Int(self.id as i64)),
            ("subject", Json::Str(self.subject.clone())),
            ("state", Json::Str(self.state.name().to_owned())),
            ("iterations", Json::Int(self.iterations as i64)),
            (
                "stop_reason",
                self.stop_reason
                    .map_or(Json::Null, |s| Json::Str(s.to_owned())),
            ),
            ("error", self.error.clone().map_or(Json::Null, Json::Str)),
        ])
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    iterations: usize,
    stop_reason: Option<&'static str>,
    report: Option<Json>,
    error: Option<String>,
    cancel_requested: bool,
    pause_requested: bool,
    /// Inputs injected by clients but not yet applied to the driver. A
    /// running job's worker drains this between steps; a parked or queued
    /// job drains it right after the driver is (re)built. The buffer is
    /// in-memory only — injections delivered to a parked job are applied
    /// on resume within this process, not across a server restart.
    inbox: Vec<Vec<(String, i64)>>,
    /// When the job last entered the queue (submit or resume).
    queued_at: Instant,
    /// Observability tallies, surfaced by the `stats` verb. They never
    /// feed back into scheduling or repair decisions.
    obs: JobObs,
}

/// Per-job observability tallies (all nanoseconds / bytes / counts).
#[derive(Debug, Clone, Copy, Default)]
struct JobObs {
    queue_wait_nanos: u64,
    steps: u64,
    step_nanos: u64,
    snapshots_written: u64,
    snapshot_bytes: u64,
    snapshot_fsync_nanos: u64,
    injections: u64,
}

impl JobObs {
    fn fields(self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "queue_wait_nanos",
                Json::Int(clamp_i64(self.queue_wait_nanos)),
            ),
            ("steps", Json::Int(clamp_i64(self.steps))),
            ("step_nanos", Json::Int(clamp_i64(self.step_nanos))),
            (
                "snapshots_written",
                Json::Int(clamp_i64(self.snapshots_written)),
            ),
            ("snapshot_bytes", Json::Int(clamp_i64(self.snapshot_bytes))),
            (
                "snapshot_fsync_nanos",
                Json::Int(clamp_i64(self.snapshot_fsync_nanos)),
            ),
            ("injections", Json::Int(clamp_i64(self.injections))),
        ]
    }
}

fn clamp_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Aggregate scheduler metrics, registered on the process-wide registry.
#[derive(Debug)]
struct ServeObs {
    queue_wait: Histogram,
    step: Histogram,
    snapshot_bytes: Histogram,
    snapshot_fsync: Histogram,
    jobs_submitted: Counter,
    jobs_done: Counter,
    jobs_failed: Counter,
    jobs_overloaded: Counter,
    snapshots_written: Counter,
    inject_accepted: Counter,
    inject_rejected: Counter,
    inject_applied: Counter,
    queue_depth: Gauge,
}

impl ServeObs {
    fn new(reg: &cpr_obs::MetricsRegistry) -> ServeObs {
        // The `fuzz.*` family rides along: campaigns usually run
        // client-side, but the stats response promises the full
        // documented metric set.
        cpr_fuzz::register_fuzz_metrics(reg);
        ServeObs {
            queue_wait: reg.histogram("serve.queue_wait_nanos"),
            step: reg.histogram("serve.step_nanos"),
            snapshot_bytes: reg.histogram("serve.snapshot_bytes"),
            snapshot_fsync: reg.histogram("serve.snapshot_fsync_nanos"),
            jobs_submitted: reg.counter("serve.jobs_submitted"),
            jobs_done: reg.counter("serve.jobs_done"),
            jobs_failed: reg.counter("serve.jobs_failed"),
            jobs_overloaded: reg.counter("serve.jobs_overloaded"),
            snapshots_written: reg.counter("serve.snapshots_written"),
            inject_accepted: reg.counter("serve.inject.accepted"),
            inject_rejected: reg.counter("serve.inject.rejected"),
            inject_applied: reg.counter("serve.inject.applied"),
            queue_depth: reg.gauge("serve.queue_depth"),
        }
    }
}

struct State {
    jobs: BTreeMap<u64, Job>,
    /// The run queue: ids of the `Queued` jobs, in claim order. Every verb
    /// that moves a job into or out of `Queued` pushes or removes its id
    /// here under the same lock.
    queue: VecDeque<u64>,
    next_id: u64,
    shutting_down: bool,
}

impl State {
    /// Takes a queued job's id out of the run queue.
    fn unqueue(&mut self, id: u64) {
        if let Some(pos) = self.queue.iter().position(|&q| q == id) {
            self.queue.remove(pos);
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// Notified on every terminal transition; [`Scheduler::wait`] sleeps
    /// here.
    cv: Condvar,
    /// Notified on every queue push and at shutdown; idle workers sleep
    /// here.
    work: Condvar,
    max_queued_jobs: usize,
    store: SnapshotStore,
    obs: ServeObs,
}

impl Inner {
    fn refresh_queue_depth(&self, st: &State) {
        self.obs.queue_depth.set(clamp_i64(st.queue.len() as u64));
    }
}

/// The worker pool. Dropping it without calling [`Scheduler::shutdown`]
/// detaches the workers; `shutdown` checkpoints running jobs and joins
/// them.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Resolves a spec's subject against the registry.
pub fn job_problem(spec: &JobSpec) -> Result<RepairProblem, String> {
    let subjects = all_subjects();
    let s = subjects
        .iter()
        .find(|s| s.name() == spec.subject || s.bug_id == spec.subject)
        .ok_or_else(|| format!("unknown subject `{}`", spec.subject))?;
    if s.not_supported {
        return Err(format!(
            "subject `{}` is marked N/A (unsupported)",
            spec.subject
        ));
    }
    Ok(s.problem())
}

/// The repair configuration a spec denotes: the quick profile plus the
/// spec's budget and thread overrides. Centralized so a served job and a
/// direct [`cpr_core::repair`] call on the same spec are guaranteed to
/// agree (the benchmark and the smoke test compare them byte for byte).
pub fn job_config(spec: &JobSpec) -> RepairConfig {
    let mut config = RepairConfig::quick();
    if let Some(n) = spec.max_iterations {
        config.max_iterations = n;
    }
    if let Some(ms) = spec.time_budget_ms {
        config.max_millis = Some(ms);
    }
    if let Some(t) = spec.threads {
        config.threads = t;
    }
    config
}

impl Scheduler {
    /// Starts `workers` worker threads over a snapshot store.
    ///
    /// Job ids are seeded past the highest id with a snapshot already in
    /// the store, so a fresh submit can never silently adopt a previous
    /// process's checkpoint — stale snapshots stay inert until a client
    /// claims one explicitly with [`JobSpec::resume_from`].
    pub fn new(workers: usize, store: SnapshotStore) -> Scheduler {
        Scheduler::with_options(
            SchedulerOptions {
                workers,
                ..SchedulerOptions::default()
            },
            store,
        )
    }

    /// The fully-shaped constructor: worker count and admission bound.
    pub fn with_options(opts: SchedulerOptions, store: SnapshotStore) -> Scheduler {
        Scheduler::start(opts, store, cpr_obs::global())
    }

    /// Builds the scheduler and spawns its workers, recording its
    /// aggregate metrics on `reg`.
    fn start(opts: SchedulerOptions, store: SnapshotStore, reg: &MetricsRegistry) -> Scheduler {
        let next_id = store
            .list()
            .ok()
            .and_then(|ids| ids.last().copied())
            .map_or(1, |max| max + 1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                next_id,
                shutting_down: false,
            }),
            cv: Condvar::new(),
            work: Condvar::new(),
            max_queued_jobs: opts.max_queued_jobs.max(1),
            store,
            obs: ServeObs::new(reg),
        });
        let handles = (0..opts.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Validates and enqueues a job; returns its id.
    ///
    /// Admission is bounded: while [`SchedulerOptions::max_queued_jobs`]
    /// jobs are already waiting, the submit is refused with a typed
    /// [`ERR_OVERLOADED`] error (running jobs don't count — they occupy
    /// workers, not queue space).
    ///
    /// With [`JobSpec::resume_from`], the job explicitly adopts the stored
    /// snapshot of that previous job (typically one a prior server process
    /// parked at shutdown) and continues it under the new id. The snapshot
    /// must exist and its header must match the spec's subject — both are
    /// checked here, so a wrong id fails the submit instead of the worker.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        // Resolve the subject up front so a typo fails the submit, not the
        // worker.
        let problem = job_problem(&spec)?;
        let inherited = match spec.resume_from {
            Some(old) => {
                let bytes = self
                    .inner
                    .store
                    .load(old)
                    .map_err(|e| format!("cannot read snapshot for job {old}: {e}"))?
                    .ok_or_else(|| format!("no snapshot for job {old} to resume from"))?;
                cpr_core::check_snapshot_header(&problem, &bytes)
                    .map_err(|e| format!("snapshot for job {old} does not fit this spec: {e}"))?;
                Some(bytes)
            }
            None => None,
        };
        let id = {
            let mut st = lock(&self.inner.state);
            if st.shutting_down {
                return Err("server is shutting down".into());
            }
            if st.queue.len() >= self.inner.max_queued_jobs {
                self.inner.obs.jobs_overloaded.inc();
                return Err(ServeError::coded(
                    ERR_OVERLOADED,
                    format!(
                        "job queue is full ({} queued); retry later",
                        self.inner.max_queued_jobs
                    ),
                ));
            }
            let id = st.next_id;
            st.next_id += 1;
            if let Some(bytes) = inherited {
                // Copied under the new id *before* the job is enqueued, so
                // the worker's snapshot lookup always finds it.
                self.inner
                    .store
                    .save(id, &bytes)
                    .map_err(|e| format!("cannot adopt snapshot for job {id}: {e}"))?;
            }
            st.jobs.insert(
                id,
                Job {
                    spec,
                    state: JobState::Queued,
                    iterations: 0,
                    stop_reason: None,
                    report: None,
                    error: None,
                    cancel_requested: false,
                    pause_requested: false,
                    inbox: Vec::new(),
                    queued_at: Instant::now(),
                    obs: JobObs::default(),
                },
            );
            st.queue.push_back(id);
            self.inner.obs.jobs_submitted.inc();
            self.inner.refresh_queue_depth(&st);
            id
        };
        self.inner.work.notify_one();
        Ok(id)
    }

    /// The status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        let st = lock(&self.inner.state);
        let job = st.jobs.get(&id).ok_or_else(|| format!("no job {id}"))?;
        Ok(status_of(id, job))
    }

    /// The status of every job, ascending by id.
    pub fn status_all(&self) -> Vec<JobStatus> {
        let st = lock(&self.inner.state);
        st.jobs.iter().map(|(id, j)| status_of(*id, j)).collect()
    }

    /// Per-job observability rows for the `stats` verb, ascending by id.
    pub fn job_stats(&self) -> Json {
        let st = lock(&self.inner.state);
        Json::Arr(
            st.jobs
                .iter()
                .map(|(id, j)| {
                    let mut row = vec![
                        ("job", Json::Int(*id as i64)),
                        ("subject", Json::Str(j.spec.subject.clone())),
                        ("state", Json::Str(j.state.name().to_owned())),
                        ("iterations", Json::Int(j.iterations as i64)),
                    ];
                    row.extend(j.obs.fields());
                    Json::obj(row)
                })
                .collect(),
        )
    }

    /// Requests cancellation. Queued jobs cancel immediately and leave
    /// the run queue; running jobs checkpoint first, so they stay
    /// resumable.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let mut st = lock(&self.inner.state);
        let job = st.jobs.get_mut(&id).ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Canceled;
                let status = status_of(id, job);
                st.unqueue(id);
                self.inner.refresh_queue_depth(&st);
                self.inner.cv.notify_all();
                Ok(status)
            }
            JobState::Running => {
                job.cancel_requested = true;
                Ok(status_of(id, job))
            }
            JobState::Paused => {
                // Already checkpointed; just reclassify.
                job.state = JobState::Canceled;
                self.inner.cv.notify_all();
                Ok(status_of(id, job))
            }
            s => Err(format!("job {id} is {} and cannot be canceled", s.name())),
        }
    }

    /// Requests suspension of a running or queued job.
    pub fn pause(&self, id: u64) -> Result<JobStatus, String> {
        let mut st = lock(&self.inner.state);
        let job = st.jobs.get_mut(&id).ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Paused;
                let status = status_of(id, job);
                st.unqueue(id);
                self.inner.refresh_queue_depth(&st);
                self.inner.cv.notify_all();
                Ok(status)
            }
            JobState::Running => {
                job.pause_requested = true;
                Ok(status_of(id, job))
            }
            s => Err(format!("job {id} is {} and cannot be paused", s.name())),
        }
    }

    /// Appends a paused or canceled job to the back of the run queue. It
    /// continues from its latest durable snapshot (or from scratch if it
    /// never started).
    pub fn resume(&self, id: u64) -> Result<JobStatus, String> {
        let mut st = lock(&self.inner.state);
        if st.shutting_down {
            return Err("server is shutting down".into());
        }
        let job = st.jobs.get_mut(&id).ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Paused | JobState::Canceled => {
                job.state = JobState::Queued;
                job.cancel_requested = false;
                job.pause_requested = false;
                job.queued_at = Instant::now();
                let status = status_of(id, job);
                st.queue.push_back(id);
                self.inner.refresh_queue_depth(&st);
                self.inner.work.notify_one();
                Ok(status)
            }
            s => Err(format!("job {id} is {} and cannot be resumed", s.name())),
        }
    }

    /// Streams an input into a live job — the continuous-repair entry
    /// point behind the protocol's `inject` verb. The input is validated
    /// against the subject's declared inputs here, so a malformed
    /// injection fails this call instead of the job. Valid inputs are
    /// buffered in the job's inbox; a running job's worker applies them
    /// between driver steps, and a queued/parked job applies them as soon
    /// as its driver is (re)built — in both cases through
    /// [`RepairDriver::inject_input`], so the injected-band determinism
    /// contract holds.
    ///
    /// Returns the number of injections delivered to this job so far
    /// (including ones still in the inbox).
    pub fn inject(&self, id: u64, input: &[(String, i64)]) -> Result<u64, String> {
        let reject = |msg: String| {
            self.inner.obs.inject_rejected.inc();
            Err(msg)
        };
        let spec = {
            let st = lock(&self.inner.state);
            let Some(job) = st.jobs.get(&id) else {
                return reject(format!("no job {id}"));
            };
            if matches!(job.state, JobState::Done | JobState::Failed) {
                return reject(format!(
                    "job {id} is {}; cannot inject into a finished run",
                    job.state.name()
                ));
            }
            job.spec.clone()
        };
        // Resolve the subject outside the lock (it parses the program) and
        // validate the valuation against its declared inputs.
        let problem = match job_problem(&spec) {
            Ok(p) => p,
            Err(e) => return reject(e),
        };
        if let Err(e) = validate_injection(&problem, input) {
            return reject(e);
        }
        let mut st = lock(&self.inner.state);
        let Some(job) = st.jobs.get_mut(&id) else {
            return reject(format!("no job {id}"));
        };
        // Re-check: the job may have finished while the lock was released.
        if matches!(job.state, JobState::Done | JobState::Failed) {
            return reject(format!(
                "job {id} is {}; cannot inject into a finished run",
                job.state.name()
            ));
        }
        let mut pairs: Vec<(String, i64)> = input.to_vec();
        pairs.sort();
        job.inbox.push(pairs);
        job.obs.injections += 1;
        let total = job.obs.injections;
        self.inner.obs.inject_accepted.inc();
        Ok(total)
    }

    /// The final report of a completed job, as protocol JSON.
    pub fn report(&self, id: u64) -> Result<Json, String> {
        let st = lock(&self.inner.state);
        let job = st.jobs.get(&id).ok_or_else(|| format!("no job {id}"))?;
        match (&job.report, job.state) {
            (Some(r), _) => Ok(r.clone()),
            (None, JobState::Failed) => Err(job
                .error
                .clone()
                .unwrap_or_else(|| format!("job {id} failed"))),
            (None, s) => Err(format!("job {id} is {}; no report yet", s.name())),
        }
    }

    /// Blocks until the job reaches a terminal state (done, failed,
    /// paused, canceled) or the timeout elapses; returns the final status
    /// observed.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobStatus, String> {
        let deadline = Instant::now().checked_add(timeout).unwrap_or_else(|| {
            // An effectively-infinite timeout overflowed Instant; cap it.
            Instant::now() + Duration::from_secs(60 * 60 * 24 * 365)
        });
        let mut st = lock(&self.inner.state);
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return Err(format!("no job {id}"));
            };
            if job.state.is_terminal() {
                return Ok(status_of(id, job));
            }
            // Saturating: a wakeup can land after the deadline (or a 0ms
            // timeout can start past it), and `deadline - now` would then
            // panic on Duration underflow and kill the caller.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(status_of(id, job));
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// The snapshot store backing this scheduler.
    pub fn store(&self) -> &SnapshotStore {
        &self.inner.store
    }

    /// Graceful shutdown: pause every running job (each checkpoints and
    /// parks), park queued jobs, and join the workers.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutting_down = true;
            // Queued jobs park as paused and leave the run queue. Their
            // snapshots (none yet for these) stay in the store; a future
            // scheduler over the same store seeds its ids past them and
            // can only pick one up when a client submits with
            // `resume_from` explicitly.
            for job in st.jobs.values_mut() {
                match job.state {
                    JobState::Queued => job.state = JobState::Paused,
                    JobState::Running => job.pause_requested = true,
                    _ => {}
                }
            }
            st.queue.clear();
            self.inner.refresh_queue_depth(&st);
            self.inner.cv.notify_all();
            self.inner.work.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Checks an injected valuation against the subject's declared inputs:
/// every declared input present and in range, no unknown names. Mirrors
/// [`RepairDriver::inject_input`]'s validation so malformed injections
/// fail at the protocol boundary instead of inside the worker.
fn validate_injection(problem: &RepairProblem, input: &[(String, i64)]) -> Result<(), String> {
    for decl in &problem.program.inputs {
        let Some(&(_, value)) = input.iter().find(|(name, _)| *name == decl.name) else {
            return Err(format!("injected input is missing \"{}\"", decl.name));
        };
        if value < decl.lo || value > decl.hi {
            return Err(format!(
                "injected value {}={} is outside the declared range [{}, {}]",
                decl.name, value, decl.lo, decl.hi
            ));
        }
    }
    if input.len() > problem.program.inputs.len() {
        let unknown = input
            .iter()
            .map(|(name, _)| name)
            .find(|name| !problem.program.inputs.iter().any(|d| &&d.name == name))
            .cloned()
            .unwrap_or_default();
        return Err(format!(
            "injected input names unknown variable \"{unknown}\""
        ));
    }
    Ok(())
}

fn status_of(id: u64, job: &Job) -> JobStatus {
    JobStatus {
        id,
        subject: job.spec.subject.clone(),
        state: job.state,
        iterations: job.iterations,
        stop_reason: job.stop_reason,
        error: job.error.clone(),
    }
}

/// Claims the job at the head of the run queue, sleeping on `work` while
/// the queue is empty. Returns `None` once the scheduler shuts down.
fn claim_job(inner: &Inner) -> Option<(u64, JobSpec)> {
    let mut st = lock(&inner.state);
    let id = loop {
        if st.shutting_down {
            return None;
        }
        if let Some(id) = st.queue.pop_front() {
            break id;
        }
        st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
    };
    let job = st.jobs.get_mut(&id).expect("a queued id names a job");
    job.state = JobState::Running;
    let waited = nanos_u64(job.queued_at.elapsed());
    job.obs.queue_wait_nanos += waited;
    inner.obs.queue_wait.record(waited);
    let spec = job.spec.clone();
    inner.refresh_queue_depth(&st);
    Some((id, spec))
}

fn worker_loop(inner: &Inner) {
    while let Some((id, spec)) = claim_job(inner) {
        run_job(inner, id, &spec);
    }
}

fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Marks a job terminal under the lock and wakes waiters.
fn finish_job(inner: &Inner, id: u64, f: impl FnOnce(&mut Job)) {
    let mut st = lock(&inner.state);
    if let Some(job) = st.jobs.get_mut(&id) {
        f(job);
        job.cancel_requested = false;
        job.pause_requested = false;
        match job.state {
            JobState::Done => inner.obs.jobs_done.inc(),
            JobState::Failed => inner.obs.jobs_failed.inc(),
            _ => {}
        }
    }
    inner.cv.notify_all();
}

/// Runs one job with panic containment: an unwinding `RepairDriver` (or
/// any other panic on this path) marks *this* job failed with the panic
/// payload and leaves every sibling job, worker, and server loop healthy.
fn run_job(inner: &Inner, id: u64, spec: &JobSpec) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run_job_inner(inner, id, spec))) {
        finish_job(inner, id, |job| {
            job.state = JobState::Failed;
            job.error = Some(format!("job panicked: {}", panic_message(&*payload)));
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
static PANIC_JOB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn run_job_inner(inner: &Inner, id: u64, spec: &JobSpec) {
    #[cfg(test)]
    if PANIC_JOB.load(std::sync::atomic::Ordering::Relaxed) == id {
        panic!("injected panic for job {id}");
    }
    let fail = |msg: String| {
        finish_job(inner, id, |job| {
            job.state = JobState::Failed;
            job.error = Some(msg);
        });
    };
    let problem = match job_problem(spec) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let config = job_config(spec);
    let checkpoint_every = spec
        .checkpoint_every
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY)
        .max(1);

    // Continue from the durable snapshot when one exists (a resumed or
    // re-run job), else start fresh.
    let mut driver = match inner.store.load(id) {
        Ok(Some(bytes)) => match RepairDriver::resume(problem, config, &bytes) {
            Ok(d) => d,
            Err(e) => return fail(format!("snapshot for job {id} is unusable: {e}")),
        },
        Ok(None) => RepairDriver::new(problem, config),
        Err(e) => return fail(format!("cannot read snapshot for job {id}: {e}")),
    };

    // Applies buffered injections to the driver — called right after the
    // driver is built (covers inputs injected while the job was queued or
    // parked) and between steps (covers a running job). Entries were
    // validated at the protocol boundary; a driver-side rejection here
    // (the run stopped in the meantime) only bumps the rejected counter.
    let drain_inbox = |driver: &mut RepairDriver| {
        let pending: Vec<Vec<(String, i64)>> = {
            let mut st = lock(&inner.state);
            st.jobs
                .get_mut(&id)
                .map(|job| std::mem::take(&mut job.inbox))
                .unwrap_or_default()
        };
        for pairs in pending {
            let input: cpr_core::TestInput = pairs.into_iter().collect();
            match driver.inject_input(&input) {
                Ok(()) => inner.obs.inject_applied.inc(),
                Err(_) => inner.obs.inject_rejected.inc(),
            }
        }
    };
    drain_inbox(&mut driver);

    // Checkpoint helper: times the durable write (create + write + fsync +
    // rename) and records snapshot size, per job and in the aggregates.
    let save_checkpoint = |driver: &RepairDriver| -> Result<(), String> {
        let bytes = driver.snapshot();
        let t0 = Instant::now();
        inner
            .store
            .save(id, &bytes)
            .map_err(|e| format!("cannot checkpoint job {id}: {e}"))?;
        let fsync_nanos = nanos_u64(t0.elapsed());
        inner.obs.snapshots_written.inc();
        inner.obs.snapshot_bytes.record(bytes.len() as u64);
        inner.obs.snapshot_fsync.record(fsync_nanos);
        let mut st = lock(&inner.state);
        if let Some(job) = st.jobs.get_mut(&id) {
            job.obs.snapshots_written += 1;
            job.obs.snapshot_bytes = bytes.len() as u64;
            job.obs.snapshot_fsync_nanos += fsync_nanos;
        }
        Ok(())
    };

    let mut steps = 0usize;
    loop {
        // Observe control flags between steps; park with a durable
        // snapshot so the job stays resumable.
        let (cancel, pause) = {
            let st = lock(&inner.state);
            match st.jobs.get(&id) {
                Some(job) => (job.cancel_requested, job.pause_requested),
                None => (true, false),
            }
        };
        if cancel || pause {
            // Fold pending injections into the checkpoint so the parked
            // snapshot carries them durably (the inbox itself is only
            // in-memory).
            drain_inbox(&mut driver);
            if let Err(e) = save_checkpoint(&driver) {
                return fail(e);
            }
            return finish_job(inner, id, |job| {
                job.state = if cancel {
                    JobState::Canceled
                } else {
                    JobState::Paused
                };
                job.iterations = driver.iterations();
            });
        }
        drain_inbox(&mut driver);
        let t0 = Instant::now();
        let status = driver.step();
        let step_nanos = nanos_u64(t0.elapsed());
        inner.obs.step.record(step_nanos);
        if status != StepStatus::Running {
            // Count the terminal step in the per-job tallies too.
            let mut st = lock(&inner.state);
            if let Some(job) = st.jobs.get_mut(&id) {
                job.obs.steps += 1;
                job.obs.step_nanos += step_nanos;
            }
            break;
        }
        steps += 1;
        if steps.is_multiple_of(checkpoint_every) {
            if let Err(e) = save_checkpoint(&driver) {
                return fail(e);
            }
        }
        {
            let mut st = lock(&inner.state);
            if let Some(job) = st.jobs.get_mut(&id) {
                job.iterations = driver.iterations();
                job.obs.steps += 1;
                job.obs.step_nanos += step_nanos;
            }
        }
    }

    let stop = driver.stop_reason().map(|s| s.name());
    let iterations = driver.iterations();
    let report = report_to_json(&driver.finish());
    // The job is complete; its checkpoint has served its purpose.
    let _ = inner.store.remove(id);
    finish_job(inner, id, |job| {
        job.state = JobState::Done;
        job.iterations = iterations;
        job.stop_reason = stop;
        job.report = Some(report);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("cpr_serve_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    fn quick_spec(subject: &str) -> JobSpec {
        let mut spec = JobSpec::new(subject);
        spec.max_iterations = Some(6);
        spec.checkpoint_every = Some(2);
        spec
    }

    fn first_subject() -> String {
        all_subjects()
            .iter()
            .find(|s| !s.not_supported)
            .unwrap()
            .name()
    }

    #[test]
    fn submit_rejects_unknown_and_unsupported_subjects() {
        let sched = Scheduler::new(1, temp_store("reject"));
        assert!(sched.submit(JobSpec::new("no/such-subject")).is_err());
        if let Some(s) = all_subjects().iter().find(|s| s.not_supported) {
            assert!(sched.submit(JobSpec::new(s.name())).is_err());
        }
        assert!(sched.status(99).is_err());
        assert!(sched.cancel(99).is_err());
        assert!(sched.report(99).is_err());
        sched.shutdown();
    }

    #[test]
    fn job_runs_to_done_and_matches_direct_repair() {
        let sched = Scheduler::new(2, temp_store("done"));
        let spec = quick_spec(&first_subject());
        let id = sched.submit(spec.clone()).unwrap();
        let status = sched.wait(id, Duration::from_secs(120)).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert!(status.stop_reason.is_some());
        let report = sched.report(id).unwrap();
        let direct = report_to_json(&cpr_core::repair(
            &job_problem(&spec).unwrap(),
            &job_config(&spec),
        ));
        assert_eq!(
            crate::protocol::report_fingerprint(&report),
            crate::protocol::report_fingerprint(&direct),
        );
        // Done jobs keep no checkpoint.
        assert_eq!(sched.store().load(id).unwrap(), None);
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn stale_snapshots_from_a_previous_process_are_never_adopted_implicitly() {
        // A "previous server process" left a checkpoint for a *different*
        // subject under job id 1. Under id collision, a fresh submit would
        // adopt it and fail with a subject mismatch; with ids seeded past
        // the store, the new job runs cold and completes.
        let subjects = all_subjects();
        let mut supported = subjects.iter().filter(|s| !s.not_supported);
        let subject_a = supported.next().unwrap().name();
        let subject_b = supported.next().expect("two supported subjects").name();

        let store = temp_store("stale");
        let stale_spec = quick_spec(&subject_b);
        let driver = RepairDriver::new(job_problem(&stale_spec).unwrap(), job_config(&stale_spec));
        store.save(1, &driver.snapshot()).unwrap();

        let sched = Scheduler::new(1, store);
        let id = sched.submit(quick_spec(&subject_a)).unwrap();
        assert_ne!(id, 1, "fresh submit must not reuse a stored job id");
        let status = sched.wait(id, Duration::from_secs(240)).unwrap();
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        // The stale snapshot is still there, inert, for an explicit
        // resume_from to claim.
        assert!(sched.store().load(1).unwrap().is_some());
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn resume_from_adopts_a_stored_snapshot_explicitly() {
        let subjects = all_subjects();
        let mut supported = subjects.iter().filter(|s| !s.not_supported);
        let subject_a = supported.next().unwrap().name();
        let subject_b = supported.next().expect("two supported subjects").name();

        // A mid-run checkpoint parked under job id 5 by an earlier run.
        let store = temp_store("adopt");
        let spec = quick_spec(&subject_a);
        let mut driver = RepairDriver::new(job_problem(&spec).unwrap(), job_config(&spec));
        driver.step();
        driver.step();
        store.save(5, &driver.snapshot()).unwrap();

        let sched = Scheduler::new(1, SnapshotStore::open(store.dir()).unwrap());
        // A missing snapshot fails the submit, not the worker.
        let mut missing = spec.clone();
        missing.resume_from = Some(42);
        assert!(sched.submit(missing).unwrap_err().contains("no snapshot"));
        // A wrong-subject snapshot is rejected up front too.
        let mut mismatched = quick_spec(&subject_b);
        mismatched.resume_from = Some(5);
        assert!(sched
            .submit(mismatched)
            .unwrap_err()
            .contains("does not fit"));
        // The right spec adopts the checkpoint and finishes with exactly
        // the report a cold direct run produces.
        let mut warm = spec.clone();
        warm.resume_from = Some(5);
        let id = sched.submit(warm).unwrap();
        assert!(id > 5, "ids are seeded past stored snapshots");
        let status = sched.wait(id, Duration::from_secs(240)).unwrap();
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let report = sched.report(id).unwrap();
        let direct = report_to_json(&cpr_core::repair(
            &job_problem(&spec).unwrap(),
            &job_config(&spec),
        ));
        assert_eq!(
            crate::protocol::report_fingerprint(&report),
            crate::protocol::report_fingerprint(&direct),
        );
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn wait_with_zero_and_tiny_timeouts_never_panics_under_load() {
        // Regression: `wait` computed `deadline - now` with Instant
        // subtraction; a wakeup landing after the deadline made the
        // Duration subtraction underflow and panic. Hammer `wait` with
        // 0ms/1ms budgets from several threads while jobs run, so wakeups
        // routinely straddle the deadline.
        let sched = Scheduler::new(2, temp_store("tinywait"));
        let subject = first_subject();
        let ids: Vec<u64> = (0..3)
            .map(|_| sched.submit(quick_spec(&subject)).unwrap())
            .collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = &sched;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..200u64 {
                        let timeout = Duration::from_millis((round + t) % 2);
                        for &id in ids {
                            let status = sched.wait(id, timeout).unwrap();
                            assert!(!status.subject.is_empty());
                        }
                    }
                });
            }
        });
        // The scheduler is still fully functional afterwards.
        for id in ids {
            let st = sched.wait(id, Duration::from_secs(240)).unwrap();
            assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        }
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn a_panicking_job_fails_alone_and_leaves_siblings_healthy() {
        // `PANIC_JOB` is process-wide and the unit tests run schedulers in
        // parallel, each numbering its jobs from 1. A stored snapshot under
        // id 1000 seeds this scheduler's ids past every sibling test's.
        let store = temp_store("poison");
        store.save(1000, b"inert").unwrap();
        let sched = Scheduler::new(1, store);
        let subject = first_subject();
        // The next submit gets this id; arm the injection before the
        // single worker can pick the job up.
        let doomed_id = {
            let st = lock(&sched.inner.state);
            st.next_id
        };
        PANIC_JOB.store(doomed_id, std::sync::atomic::Ordering::Relaxed);
        let doomed = sched.submit(quick_spec(&subject)).unwrap();
        assert_eq!(doomed, doomed_id);
        let sibling = sched.submit(quick_spec(&subject)).unwrap();

        let status = sched.wait(doomed, Duration::from_secs(240)).unwrap();
        PANIC_JOB.store(0, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(status.state, JobState::Failed);
        let err = status.error.expect("panic payload surfaces in status");
        assert!(err.contains("injected panic"), "unexpected error: {err}");

        // The sibling on the same worker still runs to completion, and the
        // control surface (status/report/submit) stays responsive.
        let st = sched.wait(sibling, Duration::from_secs(240)).unwrap();
        assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        assert!(sched.report(sibling).is_ok());
        assert!(sched.report(doomed).is_err());
        let late = sched.submit(quick_spec(&subject)).unwrap();
        let st = sched.wait(late, Duration::from_secs(240)).unwrap();
        assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn a_poisoned_state_mutex_is_recovered_not_cascaded() {
        // Poison the shared state mutex directly (a panic while holding
        // the guard), then check every handler keeps working through
        // `PoisonError::into_inner` instead of unwrapping the poison.
        let sched = Scheduler::new(1, temp_store("recover"));
        let subject = first_subject();
        let inner = Arc::clone(&sched.inner);
        let _ = std::thread::spawn(move || {
            let _guard = inner.state.lock().unwrap();
            panic!("poison the scheduler state mutex");
        })
        .join();
        assert!(sched.inner.state.is_poisoned());
        let id = sched.submit(quick_spec(&subject)).unwrap();
        assert!(sched.status(id).is_ok());
        assert_eq!(sched.status_all().len(), 1);
        let st = sched.wait(id, Duration::from_secs(240)).unwrap();
        assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        assert!(sched.report(id).is_ok());
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn job_stats_rows_cover_every_job_with_observability_tallies() {
        let sched = Scheduler::new(2, temp_store("jobstats"));
        let subject = first_subject();
        let id = sched.submit(quick_spec(&subject)).unwrap();
        let st = sched.wait(id, Duration::from_secs(240)).unwrap();
        assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        let Json::Arr(rows) = sched.job_stats() else {
            panic!("job_stats is an array")
        };
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.get("job").and_then(Json::as_u64), Some(id));
        assert_eq!(row.get("state").and_then(Json::as_str), Some("done"));
        // The job ran (6 iterations, checkpoint_every=2): steps and step
        // time accrued, and at least one checkpoint was written and fsynced.
        assert!(row.get("steps").and_then(Json::as_u64).unwrap() > 0);
        assert!(row.get("step_nanos").and_then(Json::as_u64).unwrap() > 0);
        assert!(row.get("snapshots_written").and_then(Json::as_u64).unwrap() > 0);
        assert!(row.get("snapshot_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(row.get("queue_wait_nanos").and_then(Json::as_u64).is_some());
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn injections_reach_parked_jobs_and_are_rejected_after_completion() {
        // One worker: the first job occupies it, the second parks, so the
        // injection lands in a parked job's inbox and is applied when its
        // driver is rebuilt on resume.
        let sched = Scheduler::new(1, temp_store("inject"));
        let subject = first_subject();
        let busy = sched.submit(quick_spec(&subject)).unwrap();
        let parked = sched.submit(quick_spec(&subject)).unwrap();
        sched.pause(parked).unwrap();

        let problem = job_problem(&quick_spec(&subject)).unwrap();
        let input: Vec<(String, i64)> = problem
            .program
            .inputs
            .iter()
            .map(|d| (d.name.clone(), d.lo))
            .collect();
        assert_eq!(sched.inject(parked, &input).unwrap(), 1);
        assert_eq!(sched.inject(parked, &input).unwrap(), 2);
        // Malformed injections fail at the protocol boundary, not the job.
        let mut unknown = input.clone();
        unknown.push(("no_such_input".into(), 0));
        let err = sched.inject(parked, &unknown).unwrap_err();
        assert!(err.contains("unknown variable"), "{err}");
        assert!(sched.inject(99, &input).is_err());

        sched.resume(parked).unwrap();
        for id in [busy, parked] {
            let st = sched.wait(id, Duration::from_secs(240)).unwrap();
            assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        }
        // Terminal jobs reject injections with a clear reason.
        let err = sched.inject(parked, &input).unwrap_err();
        assert!(err.contains("finished run"), "{err}");
        // The per-job tally counts accepted injections only.
        let Json::Arr(rows) = sched.job_stats() else {
            panic!("job_stats is an array")
        };
        let row = rows
            .iter()
            .find(|r| r.get("job").and_then(Json::as_u64) == Some(parked))
            .unwrap();
        assert_eq!(row.get("injections").and_then(Json::as_u64), Some(2));
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn queued_jobs_cancel_pause_and_resume() {
        // No free workers: the single worker is busy with the first job,
        // so the rest stay queued and exercise the queued-state paths.
        let sched = Scheduler::new(1, temp_store("queued"));
        let subject = first_subject();
        let busy = sched.submit(quick_spec(&subject)).unwrap();
        let a = sched.submit(quick_spec(&subject)).unwrap();
        let b = sched.submit(quick_spec(&subject)).unwrap();
        let canceled = sched.cancel(a).unwrap();
        assert_eq!(canceled.state, JobState::Canceled);
        let paused = sched.pause(b).unwrap();
        assert_eq!(paused.state, JobState::Paused);
        assert!(sched.report(a).is_err());
        // Both park states resume back into the queue and finish.
        sched.resume(a).unwrap();
        sched.resume(b).unwrap();
        for id in [busy, a, b] {
            let st = sched.wait(id, Duration::from_secs(240)).unwrap();
            assert_eq!(st.state, JobState::Done, "job {id}");
        }
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    #[test]
    fn submits_past_the_admission_bound_get_a_typed_overloaded_error() {
        // One worker occupied by a long-running job; a queue bound of 1
        // admits exactly one waiter, and the next submit is refused with
        // the machine-readable `overloaded` code.
        let store = temp_store("overload");
        let sched = Scheduler::with_options(
            SchedulerOptions {
                workers: 1,
                max_queued_jobs: 1,
                ..SchedulerOptions::default()
            },
            store,
        );
        let subject = first_subject();
        let mut long = quick_spec(&subject);
        long.max_iterations = Some(500);
        let busy = sched.submit(long).unwrap();
        // Wait until the worker has actually claimed it, so the admission
        // count sees one queued, not two.
        let deadline = Instant::now() + Duration::from_secs(60);
        while sched.status(busy).unwrap().state == JobState::Queued {
            assert!(Instant::now() < deadline, "job never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let waiter = sched.submit(quick_spec(&subject)).unwrap();
        let err = sched.submit(quick_spec(&subject)).unwrap_err();
        assert_eq!(err.code(), Some(crate::protocol::ERR_OVERLOADED));
        assert!(err.contains("queue is full"), "{err}");
        // Admission pressure clears as the queue drains: cancel the
        // waiter and the next submit is accepted again.
        sched.cancel(waiter).unwrap();
        assert!(sched.submit(quick_spec(&subject)).is_ok());
        sched.cancel(busy).unwrap();
        sched.shutdown();
        let _ = std::fs::remove_dir_all(sched.store().dir());
    }

    /// Polls until the single worker has claimed `id` (it left `Queued`).
    fn wait_claimed(sched: &Scheduler, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while sched.status(id).unwrap().state == JobState::Queued {
            assert!(Instant::now() < deadline, "job {id} never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_run_queue_is_fifo_with_eager_removal() {
        // One worker held busy by long jobs, and a private registry so the
        // depth gauge is this scheduler's alone (the unit tests run
        // schedulers in parallel).
        let sched = Scheduler::start(
            SchedulerOptions::default(),
            temp_store("fifo"),
            &MetricsRegistry::new(),
        );
        // After every verb the queue holds exactly the `Queued` jobs, in
        // `want` order, and the depth gauge reads its length.
        let check = |want: &[u64]| {
            let st = lock(&sched.inner.state);
            assert_eq!(st.queue.iter().copied().collect::<Vec<_>>(), want);
            let queued: Vec<u64> = st
                .jobs
                .iter()
                .filter(|(_, j)| j.state == JobState::Queued)
                .map(|(id, _)| *id)
                .collect();
            let mut sorted = want.to_vec();
            sorted.sort_unstable();
            assert_eq!(queued, sorted);
            assert_eq!(sched.inner.obs.queue_depth.get(), want.len() as i64);
        };
        let mut long = quick_spec(&first_subject());
        long.max_iterations = Some(500);
        let busy = sched.submit(long.clone()).unwrap();
        wait_claimed(&sched, busy);
        check(&[]);
        let ids: Vec<u64> = (0..4)
            .map(|_| sched.submit(long.clone()).unwrap())
            .collect();
        let [a, b, c, d] = ids[..] else {
            unreachable!()
        };
        check(&[a, b, c, d]);
        sched.pause(b).unwrap();
        check(&[a, c, d]);
        sched.cancel(c).unwrap();
        check(&[a, d]);
        // A resumed job goes behind the jobs already queued.
        sched.resume(b).unwrap();
        check(&[a, d, b]);

        // Releasing the worker claims the head; pausing each claimed job
        // in turn walks the queue in order.
        let mut running = busy;
        for (next, rest) in [(a, vec![d, b]), (d, vec![b]), (b, vec![])] {
            sched.pause(running).unwrap();
            wait_claimed(&sched, next);
            check(&rest);
            running = next;
        }

        // Shutdown with jobs queued behind the busy worker parks them,
        // empties the queue, and joins.
        sched.resume(a).unwrap();
        sched.resume(c).unwrap();
        check(&[a, c]);
        sched.shutdown();
        check(&[]);
        for id in [a, b, c] {
            assert_eq!(sched.status(id).unwrap().state, JobState::Paused);
        }
        let _ = std::fs::remove_dir_all(sched.store().dir());

        // Idle workers blocked on an empty queue wake for shutdown: there
        // is no timed backstop, so a missed notify would hang the join.
        let idle = Scheduler::new(2, temp_store("idle"));
        idle.shutdown();
        let _ = std::fs::remove_dir_all(idle.store().dir());
    }
}
