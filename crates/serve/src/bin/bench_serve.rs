//! Service benchmarks: warm-resume reuse and serving-tier throughput.
//!
//! Two scenarios, both gated on report identity before any timing is
//! reported:
//!
//! 1. **Warm resume** — 8 concurrent jobs on a 4-worker scheduler versus
//!    the same 8 jobs run sequentially with direct `repair()` calls. The
//!    headline number is the win from durable checkpoint reuse, not raw
//!    scheduler throughput (the CPU count is recorded in the output, and
//!    a config row with more workers than CPUs is marked
//!    `"comparable": false`, its speedup written `null`): each submitted job
//!    names, via the protocol's explicit `resume_from` field, a
//!    checkpoint near completion that an earlier run parked in the
//!    snapshot store, while the sequential baseline recomputes every run
//!    from scratch — exactly the cost model that makes
//!    repair-as-a-service worth having for an anytime algorithm.
//!
//! 2. **Many connections** — many concurrent clients, small requests,
//!    high connection churn (each round is connect → request → close, the
//!    worst case for an accept path) against the epoll event-loop server.
//!    Reported as throughput (requests/s) and p50/p99 request latency;
//!    every request must be answered. An identity leg first submits real
//!    (small) jobs over TCP and asserts the served reports equal direct
//!    `repair()` reports.
//!
//! Writes `BENCH_serve.json` into the current directory (the repo root
//! when run via `cargo run -p cpr-serve --bin bench_serve`). With
//! `--check`, runs a reduced workload, asserts the same identity
//! invariants (but no timing thresholds — CI machines are noisy), and
//! writes nothing — the CI mode.

use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cpr_core::{RepairDriver, StepStatus};
use cpr_serve::scheduler::DEFAULT_CHECKPOINT_EVERY;
use cpr_serve::{
    job_config, job_problem, report_fingerprint, report_to_json, serve_tcp, Client, JobSpec,
    JobState, Scheduler, SnapshotStore,
};
use cpr_subjects::all_subjects;

/// Scheduler workers behind the many-connections server.
const CONN_WORKERS: usize = 1;

/// Whether a row timed with `workers` scheduler workers on `cpus` CPUs
/// times the configuration rather than oversubscription — the rule
/// `cpr_bench::comparable` applies to thread counts.
fn comparable(workers: usize, cpus: usize) -> bool {
    workers <= cpus
}

/// A ratio as a JSON value: two decimals, or `null` when it is derived
/// from a non-comparable row.
fn json_ratio(ratio: f64, comparable: bool) -> String {
    if comparable {
        format!("{ratio:.2}")
    } else {
        "null".to_owned()
    }
}

fn specs(jobs: usize, max_iterations: usize) -> Vec<JobSpec> {
    let subjects = all_subjects();
    let supported: Vec<String> = subjects
        .iter()
        .filter(|s| !s.not_supported)
        .take(4)
        .map(|s| s.name())
        .collect();
    assert!(!supported.is_empty(), "no supported subjects");
    (0..jobs)
        .map(|i| {
            let mut spec = JobSpec::new(supported[i % supported.len()].clone());
            spec.max_iterations = Some(max_iterations);
            spec.threads = Some(1);
            spec.checkpoint_every = Some(DEFAULT_CHECKPOINT_EVERY);
            spec
        })
        .collect()
}

/// Steps a fresh driver to completion, returning the step count and the
/// report fingerprint — the ground truth for one spec.
fn run_direct(spec: &JobSpec) -> (usize, String) {
    let mut driver = RepairDriver::new(job_problem(spec).unwrap(), job_config(spec));
    let mut steps = 0usize;
    while driver.step() == StepStatus::Running {
        steps += 1;
    }
    (steps, report_fingerprint(&report_to_json(&driver.finish())))
}

/// Writes the near-completion checkpoint for one seed job id into the
/// store: a fresh driver stepped to one step before its stopping point,
/// snapshotted durably — the steady state a long-lived server accumulates
/// on its own. Served specs then claim these checkpoints explicitly with
/// `resume_from` (a fresh submit never adopts a stored snapshot
/// implicitly).
fn prep_checkpoint(store: &SnapshotStore, job: u64, spec: &JobSpec, total_steps: usize) -> usize {
    let mut driver = RepairDriver::new(job_problem(spec).unwrap(), job_config(spec));
    let prefix = total_steps.saturating_sub(1);
    for _ in 0..prefix {
        assert_eq!(
            driver.step(),
            StepStatus::Running,
            "prefix shorter than run"
        );
    }
    store
        .save(job, &driver.snapshot())
        .expect("write checkpoint");
    prefix
}

struct Outcome {
    millis: f64,
    fingerprints: Vec<String>,
}

fn run_sequential(specs: &[JobSpec]) -> Outcome {
    let start = Instant::now();
    let fingerprints = specs
        .iter()
        .map(|spec| {
            let report = cpr_core::repair(&job_problem(spec).unwrap(), &job_config(spec));
            report_fingerprint(&report_to_json(&report))
        })
        .collect();
    Outcome {
        millis: start.elapsed().as_secs_f64() * 1e3,
        fingerprints,
    }
}

fn run_served(specs: &[JobSpec], workers: usize, store: SnapshotStore) -> Outcome {
    let sched = Scheduler::new(workers, store);
    let start = Instant::now();
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| sched.submit(spec.clone()).expect("submit"))
        .collect();
    let mut fingerprints = Vec::new();
    for &id in &ids {
        let status = sched.wait(id, Duration::from_secs(1800)).expect("wait");
        assert_eq!(
            status.state,
            JobState::Done,
            "job {id} ended {} ({:?})",
            status.state.name(),
            status.error
        );
        fingerprints.push(report_fingerprint(&sched.report(id).expect("report")));
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    sched.shutdown();
    Outcome {
        millis,
        fingerprints,
    }
}

struct ConnStats {
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    requests: usize,
}

/// Connection-churn load: `clients` concurrent threads, each doing
/// `rounds` of connect → one `status` request → read response → close.
/// Per-round latency covers the full cycle (the accept path included —
/// that is the point).
fn many_conn_load(addr: SocketAddr, clients: usize, rounds: usize) -> ConnStats {
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(clients * rounds));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut local = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("timeout");
                    stream
                        .write_all(b"{\"v\":1,\"cmd\":\"status\"}\n")
                        .expect("request");
                    let mut reply = String::new();
                    BufReader::new(&stream)
                        .read_line(&mut reply)
                        .expect("response");
                    assert!(reply.contains("\"ok\":true"), "bad response: {reply}");
                    local.push(t0.elapsed());
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort();
    let requests = lat.len();
    let pct = |p: f64| -> f64 {
        let idx = ((requests as f64 * p).ceil() as usize).clamp(1, requests) - 1;
        lat[idx].as_secs_f64() * 1e3
    };
    ConnStats {
        rps: requests as f64 / elapsed,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        requests,
    }
}

fn temp_store(tag: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("cpr_bench_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).expect("open store")
}

/// Identity leg of the serving-tier scenario: real (small) jobs submitted
/// over TCP through the epoll server must produce reports identical to
/// direct `repair()` calls on the same specs.
fn served_over_tcp_matches_direct(jobs: usize, workers: usize) {
    let specs = specs(jobs, 4);
    let handle = serve_tcp(
        "127.0.0.1:0",
        Scheduler::new(workers, temp_store("identity")),
    )
    .expect("serve_tcp");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| client.submit(spec.clone()).expect("submit"))
        .collect();
    for (spec, &id) in specs.iter().zip(&ids) {
        let status = client
            .wait_terminal(id, Duration::from_secs(1800))
            .expect("wait");
        assert_eq!(
            status.get("state").and_then(cpr_serve::Json::as_str),
            Some("done"),
            "job {id}: {status:?}"
        );
        let report = client.report(id).expect("report");
        let direct = report_to_json(&cpr_core::repair(
            &job_problem(spec).unwrap(),
            &job_config(spec),
        ));
        assert_eq!(
            report_fingerprint(&report),
            report_fingerprint(&direct),
            "served report for job {id} diverged from direct repair()"
        );
    }
    handle.stop();
    handle.join();
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (jobs, workers, max_iterations) = if check { (2, 2, 6) } else { (8, 4, 12) };
    let (conn_clients, conn_rounds) = if check { (8, 3) } else { (128, 20) };
    let specs = specs(jobs, max_iterations);

    let store_dir = std::env::temp_dir().join(format!("cpr_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).expect("open store");

    // Ground truth per spec: total steps and the direct-report
    // fingerprint. The same pass populates the server's warm store under
    // seed ids 1..; each served spec claims its seed checkpoint with
    // `resume_from` — the new jobs themselves get ids past the seeds.
    let mut resumed_steps = 0usize;
    let mut total_steps = 0usize;
    let mut direct = Vec::new();
    let mut served_specs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let seed_id = i as u64 + 1;
        let (steps, fp) = run_direct(spec);
        resumed_steps += steps - prep_checkpoint(&store, seed_id, spec, steps);
        total_steps += steps;
        direct.push(fp);
        let mut warm = spec.clone();
        warm.resume_from = Some(seed_id);
        served_specs.push(warm);
    }

    let sequential = run_sequential(&specs);
    let served = run_served(&served_specs, workers, store);

    // Identity first, timing second: every path — direct repair(), the
    // sequential baseline, and the served warm resume — must produce the
    // same report minus wall clock.
    assert_eq!(direct, sequential.fingerprints, "sequential diverged");
    assert_eq!(direct, served.fingerprints, "served reports diverged");

    // Serving-tier identity: jobs served over real TCP connections equal
    // direct repair() too.
    served_over_tcp_matches_direct(if check { 2 } else { 4 }, 2);

    // Serving-tier throughput: connection-churn load against the epoll
    // event loop.
    let epoll_handle = serve_tcp(
        "127.0.0.1:0",
        Scheduler::new(CONN_WORKERS, temp_store("epoll")),
    )
    .expect("serve_tcp");
    let epoll = many_conn_load(epoll_handle.addr(), conn_clients, conn_rounds);
    epoll_handle.stop();
    epoll_handle.join();

    let speedup = sequential.millis / served.millis;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "[bench_serve] {jobs} jobs: sequential-cold {:.0} ms, served-warm ({workers} workers) \
         {:.0} ms -> {speedup:.2}x warm-resume speedup; {resumed_steps}/{total_steps} steps \
         resumed, reports identical",
        sequential.millis, served.millis
    );
    eprintln!(
        "[bench_serve] {conn_clients} clients x {conn_rounds} connect-request-close rounds: \
         epoll {:.0} req/s (p50 {:.2} ms, p99 {:.2} ms)",
        epoll.rps, epoll.p50_ms, epoll.p99_ms
    );
    assert_eq!(epoll.requests, conn_clients * conn_rounds);

    if check {
        assert!(speedup > 0.0, "nonsensical speedup {speedup}");
        println!(
            "bench_serve --check: OK ({jobs} warm jobs + {} served-over-TCP requests, \
             reports identical)",
            epoll.requests
        );
        let _ = std::fs::remove_dir_all(&store_dir);
        return;
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"max_iterations\": {max_iterations},");
    let _ = writeln!(
        json,
        "  \"method\": \"two scenarios, both gated on report identity with direct repair(). \
         warm_resume: each served job explicitly adopts (via resume_from) a durable checkpoint \
         one step before completion, as a long-lived server accumulates; the sequential baseline \
         runs every job cold — the headline measures checkpoint reuse, not scheduler \
         parallelism. many_connections: concurrent clients doing connect-request-close rounds \
         against the epoll event-loop server\","
    );
    let _ = writeln!(json, "  \"total_steps\": {total_steps},");
    let _ = writeln!(json, "  \"resumed_steps\": {resumed_steps},");
    let _ = writeln!(json, "  \"reports_identical_to_direct_repair\": true,");
    let _ = writeln!(json, "  \"configs\": [");
    let _ = writeln!(
        json,
        "    {{\"label\": \"sequential-cold-direct\", \"workers\": 1, \"comparable\": {}, \
         \"millis\": {:.1}}},",
        comparable(1, cpus),
        sequential.millis
    );
    let _ = writeln!(
        json,
        "    {{\"label\": \"served-warm-resume\", \"workers\": {workers}, \"comparable\": {}, \
         \"millis\": {:.1}}}",
        comparable(workers, cpus),
        served.millis
    );
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"warm_resume_speedup_vs_cold_sequential\": {},",
        json_ratio(speedup, comparable(workers, cpus))
    );
    let _ = writeln!(json, "  \"many_connections\": {{");
    let _ = writeln!(json, "    \"clients\": {conn_clients},");
    let _ = writeln!(json, "    \"rounds_per_client\": {conn_rounds},");
    let _ = writeln!(json, "    \"requests\": {},", epoll.requests);
    let _ = writeln!(json, "    \"configs\": [");
    let conn_comparable = comparable(CONN_WORKERS, cpus);
    let _ = writeln!(
        json,
        "      {{\"label\": \"epoll-event-loop\", \"workers\": {CONN_WORKERS}, \
         \"comparable\": {conn_comparable}, \"rps\": {:.1}, \"p50_ms\": {:.2}, \
         \"p99_ms\": {:.2}}}",
        epoll.rps, epoll.p50_ms, epoll.p99_ms
    );
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(
        speedup >= 2.0,
        "acceptance: warm-resume speedup must be >= 2x cold sequential (got {speedup:.2}x)"
    );
}
