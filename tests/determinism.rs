//! Parallel phases must not change results: a full `repair()` run produces
//! a bit-identical [`RepairReport`] at every thread count — this covers both
//! the patch-space reduction walk and the generational-search expansion
//! phase (prefix flips + path-reduction feasibility probes + the UNSAT-prefix
//! store). This is the end-to-end guarantee behind `RepairConfig::threads` —
//! wall-clock is the only observable difference.

use std::path::Path;

use cpr_core::{repair, RepairConfig, RepairDriver, RepairReport, StepStatus};
use cpr_obs::MetricsRegistry;
use cpr_subjects::all_subjects;

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

/// Drops the query-count field — the only report field a pure
/// accelerator (the UNSAT-prefix store) is allowed to move.
fn strip_queries(key: &str) -> String {
    key.split_whitespace()
        .filter(|f| !f.starts_with("queries="))
        .collect::<Vec<_>>()
        .join(" ")
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
    // report, and disabling the UNSAT-prefix store must not break that.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("at least one supported subject");
    let problem = subject.problem();
    let run = |threads: usize, unsat_prefix_capacity: usize| {
        let mut config = RepairConfig::quick();
        config.max_iterations = 12;
        config.track_coverage = true;
        config.threads = threads;
        config.unsat_prefix_capacity = unsat_prefix_capacity;
        report_key(&repair(&problem, &config))
    };
    let serial = run(1, 512);
    for threads in [2, 8] {
        let parallel = run(threads, 512);
        assert_eq!(
            serial,
            parallel,
            "{}: coverage-tracked report differs between 1 and {threads} threads",
            subject.name()
        );
    }
    // The store is a pure accelerator: with it disabled the verdicts (and
    // hence the whole report, minus query counts) must be unchanged.
    let no_store = run(1, 0);
    assert_eq!(
        strip_queries(&serial),
        strip_queries(&no_store),
        "{}: UNSAT-prefix store changed observable results",
        subject.name()
    );
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
    // Counters whose increments commute (query totals, paths explored, pool synthesis counts) must reach the same total at
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

#[test]
fn incremental_solving_never_changes_the_repair_report() {
    // The incremental-solving subsystem — assertion frames with trail undo
    // (`incremental`), no-good learning (`nogood_capacity`), and batched
    // candidate checking (`batch_candidates`) — must be a pure accelerator:
    // with all three on (the default) or all three off, the *full* report,
    // query counts included, is bit-identical at 1 and 4 threads. Frames
    // route every query through the same canonical-answer pipeline as a
    // from-scratch check, and no-goods only pre-answer queries the search
    // would refute anyway, so not even the issued-query counters may move.
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        let run = |threads: usize, on: bool| {
            let mut config = RepairConfig::quick();
            config.max_iterations = 12;
            config.threads = threads;
            config.solver.incremental = on;
            config.solver.batch_candidates = on;
            config.solver.nogood_capacity = if on { 512 } else { 0 };
            report_key(&repair(&problem, &config))
        };
        for threads in [1, 4] {
            assert_eq!(
                run(threads, true),
                run(threads, false),
                "{name}: incremental solving changed the report at {threads} threads"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn each_incremental_knob_is_independently_inert() {
    // Same contract, one knob at a time: flipping any single knob off
    // while the other two stay at their defaults changes nothing.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("at least one supported subject");
    let name = subject.name();
    let problem = subject.problem();
    let run = |mutate: &dyn Fn(&mut RepairConfig)| {
        let mut config = RepairConfig::quick();
        config.max_iterations = 12;
        config.threads = 4;
        mutate(&mut config);
        report_key(&repair(&problem, &config))
    };
    type KnobOff = (&'static str, &'static dyn Fn(&mut RepairConfig));
    let baseline = run(&|_| {});
    let variants: [KnobOff; 3] = [
        ("incremental off", &|c| c.solver.incremental = false),
        ("no-goods off", &|c| c.solver.nogood_capacity = 0),
        ("batching off", &|c| c.solver.batch_candidates = false),
    ];
    for (label, mutate) in variants {
        assert_eq!(baseline, run(mutate), "{name}: {label} changed the report");
    }
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
    let subjects = all_subjects();
    let mut checked = 0;
    for subject in subjects.iter().filter(|s| !s.not_supported).take(3) {
        let name = subject.name();
        let problem = subject.problem();
        let run = |threads: usize, cache_dir: Option<&std::path::Path>| {
            let mut config = RepairConfig::quick();
            config.max_iterations = 12;
            config.threads = threads;
            config.solver.cache_dir = cache_dir.map(Path::to_path_buf);
            report_key(&repair(&problem, &config))
        };
        let baseline = run(1, None);
        for threads in [1, 4] {
            let dir = fleet_dir(&format!("{name}_{threads}"));
            let cold = run(threads, Some(&dir));
            assert_eq!(
                baseline, cold,
                "{name}: a cold fleet cache changed the report at {threads} threads"
            );
            let warm = run(threads, Some(&dir));
            assert_eq!(
                baseline, warm,
                "{name}: a warm fleet cache changed the report at {threads} threads"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 supported subjects");
}

#[test]
fn corrupted_fleet_cache_falls_back_to_cold_and_identical() {
    // A damaged store must never panic, never alter a verdict, and never
    // move a report field: the load degrades to a cold start (the typed
    // error is surfaced in `SolverStats::fleet_load_errors`) and the
    // first flush rewrites the file wholesale. Garbage that fails the
    // magic check and a bit-flipped record that fails its checksum both
    // take that path.
    let subjects = all_subjects();
    let subject = subjects
        .iter()
        .find(|s| !s.not_supported)
        .expect("at least one supported subject");
    let name = subject.name();
    let problem = subject.problem();
    let run = |threads: usize, cache_dir: Option<&std::path::Path>| {
        let mut config = RepairConfig::quick();
        config.max_iterations = 12;
        config.threads = threads;
        config.solver.cache_dir = cache_dir.map(Path::to_path_buf);
        report_key(&repair(&problem, &config))
    };
    let baseline = run(1, None);
    let dir = fleet_dir("corrupt");
    // Populate a real store first, then damage it two different ways.
    assert_eq!(baseline, run(1, Some(&dir)), "{name}: cold run diverged");
    let log = dir.join("cache.log");
    let good = std::fs::read(&log).expect("populated cache.log");
    for threads in [1, 4] {
        // Foreign bytes: fails the magic check.
        std::fs::write(&log, b"not a fleet cache at all").unwrap();
        assert_eq!(
            baseline,
            run(threads, Some(&dir)),
            "{name}: a garbage store changed the report at {threads} threads"
        );
        // Bit flip mid-record: fails that record's checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&log, &flipped).unwrap();
        assert_eq!(
            baseline,
            run(threads, Some(&dir)),
            "{name}: a bit-flipped store changed the report at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_scheduling_never_changes_the_repair_report() {
    // Shard placement is pure scheduler bookkeeping — which run queue a
    // job id sits in is never an input to the repair itself. So a report
    // produced by a 1-shard/1-worker scheduler, a 4-shard/4-worker
    // scheduler, and a job that was parked and explicitly rebalanced to a
    // different shard mid-flight must all be bit-identical to a direct
    // `repair()` call on the same spec.
    use std::time::Duration;

    use cpr_serve::{
        job_config, job_problem, report_fingerprint, report_to_json, JobSpec, JobState, Json,
        Scheduler, SchedulerOptions, SnapshotStore,
    };

    let store = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "cpr_determinism_shards_{tag}_{}",
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
    assert!(specs.len() >= 2, "need at least 2 supported subjects");
    let direct: Vec<String> = specs
        .iter()
        .map(|spec| {
            report_fingerprint(&report_to_json(&cpr_core::repair(
                &job_problem(spec).unwrap(),
                &job_config(spec),
            )))
        })
        .collect();

    // Identity across shard counts: the same specs through a single-shard
    // and a four-shard scheduler (work stealing active in the latter).
    for (tag, workers, shards) in [("one", 1usize, 1usize), ("four", 4, 4)] {
        let sched = Scheduler::with_options(
            SchedulerOptions {
                workers,
                shards,
                ..SchedulerOptions::default()
            },
            store(tag),
        );
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
                "{tag} shard config: job {id} report diverged from direct repair()"
            );
        }
        sched.shutdown();
    }

    // Identity across a cross-shard rebalance: with one worker, the
    // second submit stays queued behind the first; park it, move it to a
    // different shard via resume_on, and the eventual report must still
    // match direct repair().
    let sched = Scheduler::with_options(
        SchedulerOptions {
            workers: 1,
            shards: 4,
            ..SchedulerOptions::default()
        },
        store("rebalance"),
    );
    let blocker = sched.submit(specs[0].clone()).expect("submit blocker");
    let parked = sched.submit(specs[1].clone()).expect("submit parked");
    sched.pause(parked).expect("pause queued job");
    let shard_of = |id: u64| -> i64 {
        let stats = sched.job_stats();
        match &stats {
            Json::Arr(rows) => rows
                .iter()
                .find(|r| r.get("job").and_then(Json::as_u64) == Some(id))
                .and_then(|r| r.get("shard"))
                .and_then(Json::as_i64)
                .expect("job row with shard"),
            other => panic!("job_stats must be an array, got {other:?}"),
        }
    };
    let home = shard_of(parked);
    let target = ((home as usize) + 1) % 4;
    sched
        .resume_on(parked, target)
        .expect("rebalance to another shard");
    assert_eq!(
        shard_of(parked),
        target as i64,
        "rebalance did not move the job's shard"
    );
    for (id, want) in [(blocker, &direct[0]), (parked, &direct[1])] {
        let status = sched.wait(id, Duration::from_secs(600)).expect("wait");
        assert_eq!(status.state, JobState::Done, "job {id} not done");
        assert_eq!(
            report_fingerprint(&sched.report(id).expect("report")),
            *want,
            "rebalanced job {id} report diverged from direct repair()"
        );
    }
    sched.shutdown();
}
