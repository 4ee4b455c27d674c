//! Parallel phases must not change results: a full `repair()` run produces
//! a bit-identical [`RepairReport`] at every thread count — this covers both
//! the patch-space reduction walk and the generational-search expansion
//! phase (prefix flips + path-reduction feasibility probes). This is the end-to-end guarantee behind `RepairConfig::threads` —
//! wall-clock is the only observable difference.

use std::path::Path;

use cpr_core::{
    repair, test_input, RepairConfig, RepairDriver, RepairProblem, RepairReport, StepStatus,
};
use cpr_obs::MetricsRegistry;
use cpr_subjects::all_subjects;
use cpr_synth::{ComponentSet, SynthConfig};

/// Everything in the report except the wall clock, as a comparable string.
fn report_key(r: &RepairReport) -> String {
    let ranked: Vec<String> = r
        .ranked
        .iter()
        .map(|p| {
            format!(
                "id={} score={} concrete={} del={} display={}",
                p.id, p.score, p.concrete, p.deletion_evidence, p.display
            )
        })
        .collect();
    format!(
        "subject={} p_init={} p_final={} abs_init={} abs_final={} explored={} skipped={} \
         iters={} inputs={} patch_hit={:.6} bug_hit={:.6} dev_rank={:?} history={:?} \
         coverage={:?} queries={} top={:?} ranked=[{}]",
        r.subject,
        r.p_init,
        r.p_final,
        r.abstract_init,
        r.abstract_final,
        r.paths_explored,
        r.paths_skipped,
        r.iterations,
        r.inputs_generated,
        r.patch_loc_hit_ratio,
        r.bug_loc_hit_ratio,
        r.dev_rank,
        r.history,
        r.input_coverage,
        r.solver_queries,
        r.top_patched_source,
        ranked.join("; ")
    )
}

#[test]
fn repair_is_bit_identical_across_thread_counts() {
    // Three supported subjects, small enough for a quick() budget but
    // non-trivial (each explores several partitions and refines
    // parameterized patches).
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        let run = |threads: usize| {
            let mut config = RepairConfig::quick();
            config.max_iterations = 12;
            config.threads = threads;
            report_key(&repair(&problem, &config))
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(
                serial, parallel,
                "{name}: report differs between 1 and {threads} threads"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn repair_with_coverage_is_bit_identical_across_thread_counts() {
    // Coverage tracking adds model-counting work after the exploration
    // loop; it must be just as thread-count independent as the rest of the
    // report.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("at least one supported subject");
    let problem = subject.problem();
    let run = |threads: usize| {
        let mut config = RepairConfig::quick();
        config.max_iterations = 12;
        config.track_coverage = true;
        config.threads = threads;
        report_key(&repair(&problem, &config))
    };
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial,
            parallel,
            "{}: coverage-tracked report differs between 1 and {threads} threads",
            subject.name()
        );
    }
}

#[test]
fn snapshot_resume_is_lossless() {
    // The driver's snapshot/resume must be invisible to the algorithm:
    // running to completion in one process is bit-identical to
    // checkpointing every k steps through a full serialize → bytes →
    // deserialize round trip and continuing in a fresh driver — at 1 and
    // 4 threads, for every supported determinism subject. The solver
    // query cache is deliberately NOT in the snapshot (warm-start only);
    // this test is the proof that a cold cache after resume changes no
    // report field, including the solver query counters.
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        let config_for = |threads: usize| {
            let mut config = RepairConfig::quick();
            config.max_iterations = 12;
            config.threads = threads;
            config
        };
        for threads in [1, 4] {
            let config = config_for(threads);
            let straight = {
                let mut d = RepairDriver::new(problem.clone(), config.clone());
                while d.step() == StepStatus::Running {}
                report_key(&d.finish())
            };
            for k in [1usize, 3] {
                let mut d = RepairDriver::new(problem.clone(), config.clone());
                let mut steps = 0usize;
                while d.step() == StepStatus::Running {
                    steps += 1;
                    if steps.is_multiple_of(k) {
                        let bytes = d.snapshot();
                        d = RepairDriver::resume(problem.clone(), config.clone(), &bytes)
                            .expect("snapshot taken by this build must resume");
                    }
                }
                // One more checkpoint at the stopped state: finish() after
                // resume must also be identical.
                let bytes = d.snapshot();
                let resumed = RepairDriver::resume(problem.clone(), config.clone(), &bytes)
                    .expect("final snapshot must resume");
                assert_eq!(
                    straight,
                    report_key(&resumed.finish()),
                    "{name}: snapshot-every-{k}-steps at {threads} threads \
                     changed the report"
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn injected_inputs_preserve_bit_identical_reports() {
    // Streaming an input into a live run must be indistinguishable from
    // having known it upfront: the same input injected (a) before the
    // first step, (b) between steps mid-run while it still outranks every
    // generated candidate, and (c) mid-run with a snapshot → bytes →
    // resume cycle right after the injection, produces a bit-identical
    // report at 1 and 4 threads. This is the contract that lets `cpr
    // fuzz` stream findings into running jobs without forking their
    // state.
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        // An in-range input derived from the provided failing seed: the
        // first declared variable is pinned to its lower bound.
        let mut injected = problem.failing_inputs[0].clone();
        let first = &problem.program.inputs[0];
        injected.insert(first.name.clone(), first.lo);
        for threads in [1, 4] {
            let config = {
                let mut config = RepairConfig::quick();
                config.max_iterations = 12;
                config.threads = threads;
                config
            };
            let run = |inject_at: usize, cycle: bool| {
                let mut d = RepairDriver::new(problem.clone(), config.clone());
                let cycle_through_bytes = |d: RepairDriver| {
                    let bytes = d.snapshot();
                    RepairDriver::resume(problem.clone(), config.clone(), &bytes)
                        .expect("snapshot with injections must resume")
                };
                if inject_at == 0 {
                    d.inject_input(&injected).expect("injection accepted");
                    if cycle {
                        d = cycle_through_bytes(d);
                    }
                }
                let mut steps = 0usize;
                let mut landed = inject_at == 0;
                while d.step() == StepStatus::Running {
                    steps += 1;
                    if steps == inject_at {
                        d.inject_input(&injected).expect("injection accepted");
                        if cycle {
                            d = cycle_through_bytes(d);
                        }
                        landed = true;
                    }
                }
                assert!(landed, "{name}: the run stopped before step {inject_at}");
                report_key(&d.finish())
            };
            let upfront = run(0, false);
            assert_eq!(
                upfront,
                run(1, false),
                "{name}: mid-run injection diverged at {threads} threads"
            );
            assert_eq!(
                upfront,
                run(1, true),
                "{name}: inject → snapshot → resume diverged at {threads} threads"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn metrics_instrumentation_is_invisible_in_the_report() {
    // The observability layer is write-only: no phase reads a metric or a
    // span to make a decision, so the report must be bit-identical with
    // instrumentation on (recording into the process-wide registry) and
    // off (every record call a no-op, timers never reading the clock) —
    // serial and parallel alike.
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        let run = |threads: usize, metrics: bool| {
            let mut config = RepairConfig::quick();
            config.max_iterations = 12;
            config.threads = threads;
            config.metrics = metrics;
            report_key(&repair(&problem, &config))
        };
        for threads in [1, 4] {
            assert_eq!(
                run(threads, true),
                run(threads, false),
                "{name}: metrics instrumentation changed the report at {threads} threads"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn order_independent_counter_totals_are_thread_count_invariant() {
    // Counters whose increments commute (query totals, paths explored, pool
    // synthesis counts, RefinePatch witness answers) must reach the same total at
    // any thread count — the shared-atomic design has no per-thread state
    // to merge, so only scheduling-dependent *splits* (e.g. which worker
    // scores a cache hit vs a miss) may move. Each run records into its
    // own registry so parallel `cargo test` binaries can't interfere.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("at least one supported subject");
    let problem = subject.problem();
    let counters_at = |threads: usize| {
        let registry = MetricsRegistry::new();
        let mut config = RepairConfig::quick();
        config.max_iterations = 12;
        config.threads = threads;
        let mut d = RepairDriver::with_metrics(problem.clone(), config, &registry);
        while d.step() == StepStatus::Running {}
        let report = d.finish();
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {name} not registered"))
        };
        // The registry must agree with the report where they overlap.
        assert_eq!(get("driver.paths_explored"), report.paths_explored as u64);
        [
            get("solver.queries"),
            get("driver.paths_explored"),
            get("driver.paths_skipped"),
            get("driver.inputs_generated"),
            get("synthesize.patches"),
            get("reduce.patches_dropped"),
            get("expand.candidates"),
            get("refine.model_reuse_hits"),
        ]
    };
    let serial = counters_at(1);
    assert_eq!(
        serial,
        counters_at(4),
        "{}: order-independent counter totals differ between 1 and 4 threads",
        subject.name()
    );
}

/// A scratch fleet-cache directory, cleaned before use.
fn fleet_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cpr_determinism_fleet_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A job whose solver queries outlast the solver's local probe, so a run
/// with a fleet cache reads and writes the store: the registry subjects'
/// queries are all decided by the probe and never reach the fleet. The
/// nonlinear specification is `bench_cache`'s.
fn escalating_problem() -> RepairProblem {
    let program = cpr_lang::parse(
        "program fleet_escalation {
            input x in [-100000, 100000];
            input y in [-100000, 100000];
            input z in [-100000, 100000];
            if (__patch_cond__(x, y, z)) { return 1; }
            var w: int = 0;
            if (x > 0) { w = 1; } else { w = 2; }
            if (y > 0) { w = w + 10; }
            bug nonlinear_identity requires (x * y != z * z + 1);
            return w;
          }",
    )
    .unwrap();
    cpr_lang::check(&program).unwrap();
    RepairProblem::new(
        "fleet_escalation",
        program,
        ComponentSet::new()
            .with_all_comparisons()
            .with_logic()
            .with_variables(["x", "y", "z"])
            .with_constants(&[0, 1]),
        SynthConfig::default(),
        vec![
            test_input(&[("x", 7), ("y", 0), ("z", 1)]),
            test_input(&[("x", -3), ("y", -4), ("z", 20)]),
        ],
    )
}

/// One repair of `problem` with the fleet cache at `cache_dir` (or none):
/// the report key and the fleet hits the run scored.
fn fleet_run(
    problem: &RepairProblem,
    threads: usize,
    cache_dir: Option<&std::path::Path>,
) -> (String, u64) {
    let registry = MetricsRegistry::new();
    let mut config = RepairConfig::quick();
    config.max_iterations = 6;
    config.threads = threads;
    config.solver.max_nodes = 2_000;
    config.solver.cache_dir = cache_dir.map(Path::to_path_buf);
    let mut driver = RepairDriver::with_metrics(problem.clone(), config, &registry);
    while driver.step() == StepStatus::Running {}
    let key = report_key(&driver.finish());
    let hits = registry
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "solver.fleet.hits")
        .map_or(0, |(_, v)| *v);
    (key, hits)
}

#[test]
fn fleet_cache_never_changes_the_repair_report() {
    // The persistent fleet cache must be a pure accelerator with the
    // *full* report — query counters included — bit-identical across:
    // no cache, a cold cache (fresh directory, populated as the run
    // goes), and a warm cache (a second run over the store the first one
    // flushed), at 1 and 4 threads. This is the determinism contract that
    // makes the store safe to share across jobs and restarts: a
    // fleet-cached verdict replays exactly what a cold search would have
    // computed, because verdicts are content-addressed and answered in
    // content-canonical order.
    let problem = escalating_problem();
    let (baseline, _) = fleet_run(&problem, 1, None);
    for threads in [1, 4] {
        let dir = fleet_dir(&format!("identity_{threads}"));
        let (cold, _) = fleet_run(&problem, threads, Some(&dir));
        assert_eq!(
            baseline, cold,
            "a cold fleet cache changed the report at {threads} threads"
        );
        let (warm, hits) = fleet_run(&problem, threads, Some(&dir));
        assert_eq!(
            baseline, warm,
            "a warm fleet cache changed the report at {threads} threads"
        );
        assert!(
            hits > 0,
            "the warm run at {threads} threads scored no fleet hits"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_fleet_cache_falls_back_to_cold_and_identical() {
    // A damaged store must never panic, never alter a verdict, and never
    // move a report field: the load degrades to a cold start (the typed
    // error is surfaced in `SolverStats::fleet_load_errors`) and the
    // first flush rewrites the file wholesale. Garbage that fails the
    // magic check and a bit-flipped record that fails its checksum both
    // take that path.
    let problem = escalating_problem();
    let (baseline, _) = fleet_run(&problem, 1, None);
    let dir = fleet_dir("corrupt");
    // Populate a real store first and show a warm run reads it, then
    // damage it two different ways.
    assert_eq!(
        baseline,
        fleet_run(&problem, 1, Some(&dir)).0,
        "cold run diverged"
    );
    let log = dir.join("cache.log");
    let good = std::fs::read(&log).expect("populated cache.log");
    let (warm, hits) = fleet_run(&problem, 1, Some(&dir));
    assert_eq!(baseline, warm, "warm run diverged");
    assert!(hits > 0, "the intact store scored no fleet hits");
    for threads in [1, 4] {
        // Foreign bytes: fails the magic check.
        std::fs::write(&log, b"not a fleet cache at all").unwrap();
        assert_eq!(
            baseline,
            fleet_run(&problem, threads, Some(&dir)).0,
            "a garbage store changed the report at {threads} threads"
        );
        // Bit flip mid-record: fails that record's checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&log, &flipped).unwrap();
        assert_eq!(
            baseline,
            fleet_run(&problem, threads, Some(&dir)).0,
            "a bit-flipped store changed the report at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheduling_never_changes_the_repair_report() {
    // Which worker runs a job, and when, is never an input to the repair
    // itself. So a report produced by a 1-worker scheduler, a 4-worker
    // scheduler, and a job that was paused while queued and resumed to the
    // back of the queue must all be bit-identical to a direct `repair()`
    // call on the same spec.
    use std::time::Duration;

    use cpr_serve::{
        job_config, job_problem, report_fingerprint, report_to_json, JobSpec, JobState, Scheduler,
        SnapshotStore,
    };

    let store = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "cpr_determinism_sched_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open store")
    };
    let specs: Vec<JobSpec> = all_subjects()
        .iter()
        .filter(|s| !s.not_supported)
        .take(4)
        .map(|s| {
            let mut spec = JobSpec::new(s.name());
            spec.max_iterations = Some(8);
            spec.threads = Some(1);
            spec
        })
        .collect();
    assert!(specs.len() >= 3, "need at least 3 supported subjects");
    let direct: Vec<String> = specs
        .iter()
        .map(|spec| {
            report_fingerprint(&report_to_json(&cpr_core::repair(
                &job_problem(spec).unwrap(),
                &job_config(spec),
            )))
        })
        .collect();

    // Identity across worker counts: the same specs through a 1-worker
    // and a 4-worker scheduler.
    for (tag, workers) in [("one", 1usize), ("four", 4)] {
        let sched = Scheduler::new(workers, store(tag));
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| sched.submit(s.clone()).expect("submit"))
            .collect();
        for (&id, want) in ids.iter().zip(&direct) {
            let status = sched.wait(id, Duration::from_secs(600)).expect("wait");
            assert_eq!(status.state, JobState::Done, "{tag}: job {id} not done");
            assert_eq!(
                report_fingerprint(&sched.report(id).expect("report")),
                *want,
                "{tag} workers: job {id} report diverged from direct repair()"
            );
        }
        sched.shutdown();
    }

    // Identity across a requeue: with one worker, the later submits stay
    // queued behind the first; pause one while it is queued and resume it
    // behind the other, and every report must still match direct repair().
    let sched = Scheduler::new(1, store("requeue"));
    let ids: Vec<u64> = specs[..3]
        .iter()
        .map(|s| sched.submit(s.clone()).expect("submit"))
        .collect();
    let paused = sched.pause(ids[1]).expect("pause queued job");
    assert_eq!(paused.state, JobState::Paused);
    sched.resume(ids[1]).expect("resume paused job");
    for (&id, want) in ids.iter().zip(&direct) {
        let status = sched.wait(id, Duration::from_secs(600)).expect("wait");
        assert_eq!(status.state, JobState::Done, "job {id} not done");
        assert_eq!(
            report_fingerprint(&sched.report(id).expect("report")),
            *want,
            "requeued job {id} report diverged from direct repair()"
        );
    }
    sched.shutdown();
}
