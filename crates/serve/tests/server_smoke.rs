//! End-to-end smoke test over a loopback TCP server: two concurrent jobs
//! from two connections, status polling, one canceled mid-flight. The
//! surviving job's report must match a direct `repair()` call byte for
//! byte (minus wall clock); the canceled job must leave a durable,
//! resumable snapshot — proven by resuming it through the server and
//! checking *its* final report against direct `repair()` too.

use std::time::Duration;

use cpr_core::{RepairDriver, RepairReport};
use cpr_serve::{
    job_config, job_problem, report_fingerprint, report_to_json, Client, JobSpec, Json, Scheduler,
    SnapshotStore,
};
use cpr_subjects::all_subjects;

fn direct_fingerprint(spec: &JobSpec) -> String {
    let report: RepairReport = cpr_core::repair(&job_problem(spec).unwrap(), &job_config(spec));
    report_fingerprint(&report_to_json(&report))
}

fn state_of(status: &Json) -> String {
    status
        .get("state")
        .and_then(Json::as_str)
        .expect("status has a state")
        .to_owned()
}

#[test]
fn loopback_server_runs_cancels_and_resumes_jobs() {
    let subjects = all_subjects();
    let subject_a = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("a supported subject")
        .name();
    // The victim must still have work left when the cancel lands. Most
    // subjects exhaust their inputs within a few iterations, in 0.1–0.3 s
    // whatever the budget, so no budget escalation can outlast them; this
    // one runs to its iteration budget, so a larger budget really leaves
    // more work after the observation point.
    let subject_b = "Binutils/CVE-2018-10372".to_string();
    assert!(
        subjects
            .iter()
            .any(|s| s.name() == subject_b && !s.not_supported),
        "{subject_b} is a supported registry subject"
    );

    let store_dir = std::env::temp_dir().join(format!("cpr_serve_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).unwrap();
    let store_probe = SnapshotStore::open(&store_dir).unwrap();

    let handle = cpr_serve::serve_tcp("127.0.0.1:0", Scheduler::new(2, store)).unwrap();
    let addr = handle.addr();

    // Two clients on separate connections, one job each — both run
    // concurrently on the two workers.
    let mut client_a = Client::connect(addr).unwrap();
    let mut client_b = Client::connect(addr).unwrap();

    let mut spec_a = JobSpec::new(subject_a);
    spec_a.max_iterations = Some(12);
    spec_a.checkpoint_every = Some(3);

    let job_a = client_a.submit(spec_a.clone()).unwrap();

    // The victim gets a per-step checkpoint cadence and a budget large
    // enough that it is still mid-flight when the cancel lands.
    // Cancellation is cooperative, so it can lose the race against a job
    // that finishes its whole budget between the progress observation and
    // the cancel request — every solver speedup widens that hazard. A
    // lost race is retried with a quadrupled budget, which multiplies the
    // work remaining after the observation point.
    let mut spec_b = JobSpec::new(subject_b);
    spec_b.checkpoint_every = Some(1);
    let mut canceled_job = None;
    for budget in [30usize, 120, 480, 1920] {
        spec_b.max_iterations = Some(budget);
        let id = client_b.submit(spec_b.clone()).unwrap();
        assert_ne!(job_a, id);

        // Poll until the victim has made observable progress, then cancel
        // it mid-flight.
        let mut progressed = false;
        for _ in 0..2400 {
            let status = client_b.status(id).unwrap();
            let iters = status.get("iterations").and_then(Json::as_i64).unwrap_or(0);
            let state = state_of(&status);
            if state == "running" && iters >= 2 {
                progressed = true;
                break;
            }
            if state == "done" {
                // Finished before progress was even observed; retry.
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        if progressed {
            // The cancel request itself can race completion ("done" jobs
            // reject it); the terminal state below decides the outcome.
            let _ = client_b.cancel(id);
            for _ in 0..2400 {
                let state = state_of(&client_b.status(id).unwrap());
                if state == "canceled" || state == "done" {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        if state_of(&client_b.status(id).unwrap()) == "canceled" {
            canceled_job = Some(id);
            break;
        }
    }
    let job_b = canceled_job.expect("cancel lost the completion race at every budget");
    // No report for a canceled job.
    assert!(client_b.report(job_b).is_err());

    // The survivor completes and matches a direct repair() run exactly.
    let done = client_a
        .wait_terminal(job_a, Duration::from_secs(300))
        .unwrap();
    assert_eq!(state_of(&done), "done");
    assert_eq!(
        done.get("stop_reason").and_then(Json::as_str),
        Some("iteration_budget")
    );
    let report_a = client_a.report(job_a).unwrap();
    assert_eq!(report_fingerprint(&report_a), direct_fingerprint(&spec_a));

    // The canceled job left a durable snapshot that this build can load.
    let snapshot = store_probe
        .load(job_b)
        .unwrap()
        .expect("canceled job keeps a snapshot");
    RepairDriver::resume(
        job_problem(&spec_b).unwrap(),
        job_config(&spec_b),
        &snapshot,
    )
    .expect("canceled job's snapshot is resumable");

    // And resuming it through the server finishes the run with the same
    // report a cold direct run produces — cancellation lost nothing.
    client_a.resume(job_b).unwrap();
    let resumed = client_a
        .wait_terminal(job_b, Duration::from_secs(600))
        .unwrap();
    assert_eq!(state_of(&resumed), "done");
    let report_b = client_a.report(job_b).unwrap();
    assert_eq!(report_fingerprint(&report_b), direct_fingerprint(&spec_b));

    // The jobs listing shows the survivor and every victim attempt, and
    // protocol errors are responses, not disconnects.
    let jobs = client_a.jobs().unwrap();
    assert!(jobs.len() >= 2, "{} jobs listed", jobs.len());
    assert!(client_a.report(999).is_err());
    assert!(client_a.status(999).is_err());

    client_a.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Parses `docs/metrics_allowlist.txt`: `[section]` markers, one metric
/// name per line, `#` comments.
fn read_allowlist() -> Vec<(String, Vec<String>)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/metrics_allowlist.txt"
    );
    let text = std::fs::read_to_string(path).expect("docs/metrics_allowlist.txt must exist");
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            sections.push((name.to_owned(), Vec::new()));
        } else {
            sections
                .last_mut()
                .expect("a metric name before any [section] marker")
                .1
                .push(line.to_owned());
        }
    }
    sections
}

#[test]
fn stats_verb_covers_the_documented_metric_allowlist() {
    // A loopback server that has completed one job must expose every
    // metric DESIGN.md §4.8 documents — presence, not values, so a
    // metric silently falling out of the snapshot (a renamed handle, a
    // registry that stopped being the process-wide one) fails here even
    // when nothing else notices. checkpoint_every=1 makes the job write
    // snapshots, so the serve.snapshot_* histograms see samples too.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("a supported subject")
        .name();

    let store_dir =
        std::env::temp_dir().join(format!("cpr_serve_stats_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).unwrap();
    let handle = cpr_serve::serve_tcp("127.0.0.1:0", Scheduler::new(1, store)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut spec = JobSpec::new(subject);
    spec.max_iterations = Some(4);
    spec.checkpoint_every = Some(1);
    let job = client.submit(spec).unwrap();
    let done = client.wait_terminal(job, Duration::from_secs(300)).unwrap();
    assert_eq!(state_of(&done), "done");

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("stats_version").and_then(Json::as_i64),
        Some(cpr_serve::STATS_VERSION)
    );
    let process = stats.get("process").expect("stats has a process section");
    let histogram_names: Vec<String> = match process.get("histograms") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|h| h.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect(),
        other => panic!("histograms must be an array, got {other:?}"),
    };
    let mut missing = Vec::new();
    for (section, names) in read_allowlist() {
        for name in names {
            let present = match section.as_str() {
                "counters" | "gauges" => process.get(&section).and_then(|s| s.get(&name)).is_some(),
                "histograms" => histogram_names.contains(&name),
                other => panic!("unknown allowlist section [{other}]"),
            };
            if !present {
                missing.push(format!("{section}/{name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "metrics documented in docs/metrics_allowlist.txt are absent from \
         the stats response: {missing:?}"
    );

    // The per-job rows carry the tallies for the job we just ran.
    let rows = match stats.get("jobs") {
        Some(Json::Arr(rows)) => rows.clone(),
        other => panic!("stats jobs must be an array, got {other:?}"),
    };
    let row = rows
        .iter()
        .find(|r| r.get("job").and_then(Json::as_u64) == Some(job))
        .expect("a stats row for the completed job");
    assert!(row.get("steps").and_then(Json::as_u64).unwrap() > 0);
    assert!(row.get("snapshots_written").and_then(Json::as_u64).unwrap() > 0);

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}
