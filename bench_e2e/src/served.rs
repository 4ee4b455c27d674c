//! `served`: an in-process `serve_tcp` on loopback over
//! `Scheduler::with_options` (2 workers, default shards, a fresh state
//! directory per pass holding the snapshot store and the fleet cache),
//! drained by 2 closed-loop clients with one connection each.
//!
//! The job list is 16 corpus subjects, each submitted 3 times, as
//! quick-profile jobs at 1 thread checkpointing every 8 steps; the seed
//! shuffles its order. A client submits, polls `status` every [`POLL`]
//! until the job is terminal, and fetches the report; a job's latency runs
//! from sending the submit to receiving the report.
//!
//! Layer counts come from the `stats` verb (process metrics as deltas over
//! the pass, per-job rows, fleet tallies); status round trips are timed on
//! the client.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cpr_obs::{HistogramSnapshot, MetricsSnapshot};
use cpr_serve::scheduler::DEFAULT_CHECKPOINT_EVERY;
use cpr_serve::{
    job_problem, serve_tcp, Client, JobSpec, Json, Scheduler, SchedulerOptions, ServerHandle,
    SnapshotStore,
};

use crate::measure::{self, median, quantile, secs, Goldens, Metrics};
use crate::{Args, RunResult};

/// The served subjects: a fixed cross-section of the corpus (ExtractFix,
/// ManyBugs and SV-COMP rows) of its cheaper half, so every seed serves the
/// same work and a run fits several passes.
const SUBJECTS: [&str; 16] = [
    "Libtiff/CVE-2016-3186",
    "Libtiff/CVE-2016-9273",
    "Libtiff/CVE-2016-10094",
    "Libtiff/CVE-2017-7595",
    "Libtiff/CVE-2017-7601",
    "Binutils/CVE-2017-15025",
    "Libxml2/CVE-2012-5134",
    "Libxml2/CVE-2016-1834",
    "Libjpeg/CVE-2012-2806",
    "Libjpeg/CVE-2018-19664",
    "Jasper/CVE-2016-8691",
    "Coreutils/GNUBug 25003",
    "Coreutils/GNUBug 25023",
    "Libtiff/7d6e298",
    "gzip/884ef6d16c",
    "SV-COMP/recursive/addition",
];

/// Submissions of each subject per pass.
const REPEATS: usize = 3;

const CLIENTS: usize = 2;

/// Scheduler workers (each job runs at 1 thread).
const WORKERS: usize = 2;

/// Interval between `status` polls of a submitted job.
const POLL: Duration = Duration::from_millis(2);

/// A job still unfinished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(100);

/// Server start-ups timed for `setup_s`, besides each pass's own.
const SETUP_REPS: usize = 9;

fn spec(subject: &str) -> JobSpec {
    let mut spec = JobSpec::new(subject);
    spec.threads = Some(1);
    spec.checkpoint_every = Some(DEFAULT_CHECKPOINT_EVERY);
    spec
}

/// What one client saw of one job.
struct JobOutcome {
    subject: String,
    latency_ms: f64,
    /// The report's golden key, or why the job failed.
    result: Result<String, String>,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobOutcome>,
    status_rtts_ms: Vec<f64>,
}

fn run_job(client: &mut Client, spec: &JobSpec, log: &mut ClientLog) -> Result<String, String> {
    let id = client.submit(spec.clone())?;
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let t0 = Instant::now();
        let status = client.status(id)?;
        log.status_rtts_ms.push(secs(t0.elapsed()) * 1e3);
        match status.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("queued") | Some("running") => {}
            other => return Err(format!("job {id} ended {other:?}: {status:?}")),
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} timed out"));
        }
        std::thread::sleep(POLL);
    }
    Ok(measure::outcome_key(&client.report(id)?))
}

/// One closed-loop client: takes the next job off the shared list until
/// the list is drained.
fn client_loop(addr: std::net::SocketAddr, jobs: &[JobSpec], next: &AtomicUsize) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::connect(addr);
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(spec) = jobs.get(i) else { break };
        let t0 = Instant::now();
        let result = match &mut client {
            Ok(c) => run_job(c, spec, &mut log),
            Err(e) => Err(e.clone()),
        };
        log.jobs.push(JobOutcome {
            subject: spec.subject.clone(),
            latency_ms: secs(t0.elapsed()) * 1e3,
            result,
        });
    }
    log
}

/// Setup: a fresh state directory, the snapshot store, the scheduler with
/// its fleet cache, and the listening server.
fn start(dir: &Path, workers: usize) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let store = SnapshotStore::open(dir.join("store")).map_err(|e| format!("store: {e}"))?;
    let scheduler = Scheduler::with_options(
        SchedulerOptions {
            workers,
            cache_dir: Some(dir.join("fleet")),
            ..SchedulerOptions::default()
        },
        store,
    );
    let handle = serve_tcp("127.0.0.1:0", scheduler).map_err(|e| format!("serve_tcp: {e}"))?;
    Ok((handle, secs(t0.elapsed())))
}

fn stop(handle: ServerHandle, dir: &Path) {
    handle.stop();
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

struct Pass {
    setup: f64,
    wall: f64,
    logs: Vec<ClientLog>,
    /// `stats` responses before and after the clients ran (traced only).
    stats: Option<(Json, Json)>,
}

fn pass(dir: &Path, jobs: &[JobSpec], workers: usize, traced: bool) -> Result<Pass, String> {
    let (handle, setup) = start(dir, workers)?;
    let addr = handle.addr();
    let mut control = Client::connect(addr)?;
    let before = if traced { Some(control.stats()?) } else { None };
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client_loop(addr, jobs, &next)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = secs(start.elapsed());
    let stats = match before {
        Some(b) => Some((b, control.stats()?)),
        None => None,
    };
    drop(control);
    stop(handle, dir);
    Ok(Pass {
        setup,
        wall,
        logs,
        stats,
    })
}

/// Where passes keep their state: inside the working directory, under the
/// benchmark's build directory when one is set.
fn state_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join(format!("bench_e2e_served_{}", std::process::id()))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let nproc = measure::nproc();
    let workers = WORKERS.min(nproc);
    let comparable = workers == WORKERS;
    if !comparable {
        eprintln!(
            "bench_e2e: served runs {workers} worker(s) on this {nproc}-CPU host instead of \
             {WORKERS}; the result is marked not comparable"
        );
    }
    let mut jobs: Vec<JobSpec> = SUBJECTS
        .iter()
        .flat_map(|s| std::iter::repeat_with(move || spec(s)).take(REPEATS))
        .collect();
    measure::shuffle(&mut jobs, args.seed);
    let mut goldens = Goldens::new("served", args.bless);
    let dir = state_dir();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (handle, setup) = start(&dir.join("setup"), workers)?;
        setups.push(setup);
        stop(handle, &dir.join("setup"));
    }
    let seconds = if args.bless { 0.0 } else { args.seconds };
    let (passes, peak_rss_mb) = measure::passes(seconds, |i| {
        let p = pass(&dir.join(format!("pass{i}")), &jobs, workers, false)?;
        let wall = p.wall;
        Ok((p, wall))
    })?;
    let traced = if args.trace && !args.bless {
        Some(pass(&dir.join("traced"), &jobs, workers, true)?)
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut dev_ranks: Vec<(String, Option<i64>)> = Vec::new();
    for p in passes.iter().chain(traced.iter()) {
        for job in p.logs.iter().flat_map(|l| &l.jobs) {
            attempted += 1;
            match &job.result {
                Ok(fp) if goldens.check(&job.subject, fp) => {
                    if !dev_ranks.iter().any(|(s, _)| *s == job.subject) {
                        let rank = cpr_serve::json::parse(fp)
                            .ok()
                            .and_then(|r| r.get("dev_rank").and_then(Json::as_i64));
                        dev_ranks.push((job.subject.clone(), rank));
                    }
                }
                Ok(_) => failed += 1,
                Err(e) => {
                    eprintln!("bench_e2e: served job {} failed: {e}", job.subject);
                    failed += 1;
                }
            }
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    setups.extend(passes.iter().map(|p| p.setup));
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.logs
                .iter()
                .flat_map(|l| l.jobs.iter().map(|j| j.latency_ms))
        })
        .collect();
    let wall = median(&walls);
    let mut e2e = Metrics::default();
    e2e.set("wall_s", wall);
    e2e.set("job_p50_ms", quantile(&latencies, 0.50));
    e2e.set("job_p75_ms", quantile(&latencies, 0.75));
    e2e.set("jobs_per_s", jobs.len() as f64 / wall);
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set("reduction_pct", reduction_pct(&passes[0])?);

    let mut record = measure::base_record(args, 1);
    record.int("workers", workers as u64);
    record.int("clients", CLIENTS as u64);
    record.flag("comparable", comparable);
    record.int("jobs", jobs.len() as u64);
    record.int("passes", passes.len() as u64);
    record.int("job_samples", latencies.len() as u64);
    record.int("setup_samples", setups.len() as u64);
    record.nums("pass_wall_s", &walls);

    let mut layers = Metrics::default();
    if let Some(t) = &traced {
        trace_layers(&mut layers, t, &jobs, wall)?;
        layers.set(
            "rank.dev_top10",
            dev_ranks
                .iter()
                .filter(|(_, r)| r.is_some_and(|k| k <= 10))
                .count() as f64,
        );
        record.num("traced_wall_s", t.wall);
        record.text(
            "unobserved",
            "synthesize.solver_s driver.step_p50_ms driver.step_p98_ms reduce.call_p50_ms \
             rank.finish_s: per-step and per-phase timings stay inside the server",
        );
    }
    Ok(RunResult {
        attempted,
        failed,
        checks_ok: true,
        end_to_end: e2e,
        per_layer: layers,
        record,
    })
}

/// Mean `1 - P_final / P_init` over one pass's jobs, in percent.
fn reduction_pct(p: &Pass) -> Result<f64, String> {
    let mut total = 0.0;
    let mut n = 0usize;
    for job in p.logs.iter().flat_map(|l| &l.jobs) {
        let Ok(fp) = &job.result else { continue };
        let report = cpr_serve::json::parse(fp).map_err(|e| format!("report: {e}"))?;
        let field = |k: &str| -> f64 {
            report
                .get(k)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        total += 1.0 - field("p_final") / field("p_init").max(1.0);
        n += 1;
    }
    Ok(total / n.max(1) as f64 * 100.0)
}

/// The process section of a `stats` response as a metrics snapshot.
fn process_snapshot(stats: &Json) -> MetricsSnapshot {
    let process = stats.get("process");
    let mut snap = MetricsSnapshot::default();
    if let Some(Json::Obj(counters)) = process.and_then(|p| p.get("counters")) {
        for (name, v) in counters {
            snap.counters.push((name.clone(), v.as_u64().unwrap_or(0)));
        }
    }
    if let Some(Json::Arr(hists)) = process.and_then(|p| p.get("histograms")) {
        for h in hists {
            let int = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
            snap.histograms.push(HistogramSnapshot {
                name: h
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                count: int("count"),
                sum: int("sum"),
                buckets: Vec::new(),
            });
        }
    }
    snap
}

/// `after - before` for every counter and histogram.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    for (name, v) in &mut d.counters {
        *v -= measure::counter(before, name);
    }
    for h in &mut d.histograms {
        let (count, sum) = measure::histogram(before, &h.name);
        h.count -= count;
        h.sum -= sum;
    }
    d
}

fn trace_layers(
    m: &mut Metrics,
    t: &Pass,
    jobs: &[JobSpec],
    untraced_wall: f64,
) -> Result<(), String> {
    let (before, after) = t.stats.as_ref().ok_or("traced pass without stats")?;
    let snap = delta(&process_snapshot(before), &process_snapshot(after));
    let c = |name: &str| measure::counter(&snap, name) as f64;
    let h = |name: &str| measure::histogram(&snap, name);

    let problems = jobs
        .iter()
        .map(job_problem)
        .collect::<Result<Vec<_>, _>>()?;
    let synth_s = h("synthesize.phase_nanos").1 as f64 / 1e9;
    let (steps, step_ns) = h("driver.step_nanos");
    measure::repair_layers(
        m,
        &snap,
        synth_s,
        step_ns as f64 / 1e9,
        measure::enumerate(&problems),
    );
    m.set("driver.steps", steps as f64);

    let fleet = after.get("fleet");
    let fleet_int = |k: &str| {
        fleet
            .and_then(|f| f.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let lookups = fleet_int("hits") + fleet_int("misses");
    m.set("fleet.lookups", lookups);
    m.set(
        "fleet.hit_ratio",
        measure::ratio(fleet_int("hits"), lookups),
    );
    m.set("fleet.stores", c("solver.fleet.stores"));
    m.set("fleet.flushes", c("solver.fleet.flushes"));
    m.set("fleet.store_bytes", fleet_int("store_bytes"));
    m.set("fleet.load_errors", c("solver.fleet.load_errors"));

    let rows = match after.get("jobs") {
        Some(Json::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    let row = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let row_sum = |k: &str| -> f64 { rows.iter().map(|r| row(r, k)).sum() };
    let waits_ms: Vec<f64> = rows
        .iter()
        .map(|r| row(r, "queue_wait_nanos") / 1e6)
        .collect();
    let rtts: Vec<f64> = t
        .logs
        .iter()
        .flat_map(|l| l.status_rtts_ms.iter().copied())
        .collect();
    m.set("serve.queue_wait_p50_ms", quantile(&waits_ms, 0.50));
    m.set("serve.queue_wait_s", row_sum("queue_wait_nanos") / 1e9);
    m.set("serve.step_busy_s", row_sum("step_nanos") / 1e9);
    m.set("serve.snapshots_written", row_sum("snapshots_written"));
    m.set("serve.snapshot_bytes", row_sum("snapshot_bytes"));
    m.set(
        "serve.snapshot_fsync_s",
        row_sum("snapshot_fsync_nanos") / 1e9,
    );
    m.set("serve.status_rtt_p50_ms", quantile(&rtts, 0.50));
    m.set("serve.status_polls", rtts.len() as f64);
    m.set(
        "serve.overloaded",
        c("serve.jobs_overloaded") + c("serve.accept.overloaded"),
    );

    // Share of summed job latency the server accounts for: queue wait,
    // synthesis and driver steps.
    let latency_s: f64 = t
        .logs
        .iter()
        .flat_map(|l| l.jobs.iter().map(|j| j.latency_ms / 1e3))
        .sum();
    let attributed = row_sum("queue_wait_nanos") / 1e9 + synth_s + row_sum("step_nanos") / 1e9;
    m.set(
        "trace.attributed_share",
        measure::ratio(attributed, latency_s),
    );
    m.set("trace.overhead_pct", (t.wall / untraced_wall - 1.0) * 100.0);
    Ok(())
}
