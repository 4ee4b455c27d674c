//! Implementation of the `cpr` command-line tool (see `src/bin/cpr.rs`).
//!
//! Kept in the library so the argument parsing and every subcommand are
//! unit-testable; the binary is a two-line wrapper around [`run`].

use std::collections::HashMap;

use cpr_core::{repair, RepairConfig, RepairProblem, TestInput};
use cpr_fuzz::{find_failing_input, FuzzConfig};
use cpr_lang::{check, parse, ConcretePatch, Interp, Program};
use cpr_smt::{ArithOp, Model};
use cpr_synth::{ComponentSet, SynthConfig};

const USAGE: &str = "\
cpr — concolic program repair (PLDI 2021, reproduced in Rust)

USAGE:
  cpr check <file>
      Parse and type-check a subject program, reporting its hole and bug
      location.

  cpr run <file> [-i name=value]... [--patch <expr>] [--max-steps N]
      Execute the program on the given inputs (missing inputs default to
      their range's lower bound); --patch fills the hole.

  cpr fuzz <file> [--baseline <expr>] [--max-execs N] [--seed N]
           [--concolic] [--corpus-dir DIR]
      Search for a failing input; --baseline fills the hole with the
      original buggy expression (default: false). By default a directed
      mutation fuzzer; with --concolic (or --corpus-dir), the pure-
      concolic engine: execute, negate each new branch constraint, solve,
      re-execute. Found inputs are written to --corpus-dir atomically.

  cpr fuzz --subject <name> [--serve-addr host:port] [--corpus-dir DIR]
           [--max-execs N] [--seed N] [--max-inputs N] [--cache-dir DIR]
      Pure-concolic fuzzing of a registry subject (continuous repair,
      DESIGN.md §4.13). Offline by default; with --serve-addr, streams
      findings into a running `cpr serve`: the first input with a fresh
      crash signature submits a repair job, and every finding is injected
      into its signature's live job between driver steps. --max-inputs
      stops after N findings; --cache-dir shares the fleet solver cache.

  cpr repair <file> --failing k=v[,k=v...] [options]
      Run concolic repair. Options:
        --failing k=v,...    error-exposing input (repeatable)
        --passing k=v,...    passing test (repeatable)
        --vars a,b           synthesis variables (default: hole arguments)
        --consts 0,8         constant components
        --arith add,sub,mul,div,rem
                             arithmetic components
        --no-logic           disable ∧/∨ templates
        --template <smtlib>  extra template in SMT-LIB syntax (repeatable)
        --range lo,hi        parameter range (default -10,10)
        --dev <expr>         developer patch, for rank reporting
        --baseline <expr>    original buggy expression
        --iters N            repair-loop budget (default 60)
        --max-iterations N   same as --iters
        --ms N               wall-clock budget for exploration (default 10000)
        --time-budget-ms N   same as --ms
        --top N              patches to print (default 10)
        --emit               print the repaired program (top patch applied)
        --metrics-out FILE   write the run's metrics (solver, phases) to
                             FILE as one JSON line after the repair
        --cache-dir DIR      persistent fleet solver cache: warm-load
                             solver verdicts from DIR before the repair
                             and flush what this run learned back after
                             (identical reports either way, often faster)

      Exhausting either budget is a normal stop: the anytime algorithm
      reports the ranked pool it has at that point.

  cpr subjects [--benchmark extractfix|manybugs|svcomp] [--run <name>]
      List the benchmark registry, or repair one registry subject.

  cpr serve [--addr host:port] [--workers N] [--shards N]
            [--max-queued N] [--state-dir DIR] [--cache-dir DIR] [--stdio]
      Start the repair job server (JSON-lines protocol, DESIGN.md §4.7;
      epoll serving tier, §4.14). Defaults: --addr 127.0.0.1:7411,
      --workers 4, --shards one per worker, --max-queued 256,
      --state-dir .cpr-serve. Work is sharded across per-shard run
      queues with work stealing; submits past --max-queued waiting jobs
      draw a typed `overloaded` error. With --cache-dir, every job
      shares a persistent fleet solver cache warm-loaded from DIR at
      startup and flushed at each checkpoint. With --stdio, serves one
      session on stdin/stdout instead of TCP.

  cpr submit <subject> [--addr host:port] [--max-iterations N]
             [--time-budget-ms N] [--threads N] [--checkpoint-every N]
             [--resume-from JOB] [--wait]
      Submit a registry subject to a running server; prints the job id.
      With --resume-from, the job adopts the durable snapshot stored for
      that previous job id (e.g. one a prior server process parked at
      shutdown) and continues it. With --wait, polls until the job stops
      and prints its report.

  cpr jobs [--addr host:port] [--job N] [--cancel N] [--pause N]
           [--resume N] [--report N] [--stats]
      List server jobs, show one, or cancel / pause / resume one, or
      fetch a finished job's report. With --stats, print the server's
      process-wide metrics and per-job tallies as one JSON line.

  cpr help
      Show this message.";

/// Default server address for `serve`, `submit` and `jobs`.
const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// Entry point: dispatches a full argument vector (without the program
/// name) to the subcommands.
///
/// # Errors
///
/// Returns the message the binary prints before exiting non-zero.
pub fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "check" => cmd_check(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "repair" => cmd_repair(&args[1..]),
        "subjects" => cmd_subjects(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "jobs" => cmd_jobs(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load_program(path: &str) -> Result<(Program, String), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = parse(&src).map_err(|e| e.render(&src))?;
    check(&program).map_err(|e| e.render(&src))?;
    Ok((program, src))
}

fn parse_kv_list(s: &str) -> Result<TestInput, String> {
    let mut out = HashMap::new();
    for pair in s.split(',') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("expected name=value, got `{pair}`"))?;
        let v: i64 = v
            .trim()
            .parse()
            .map_err(|_| format!("invalid integer `{v}`"))?;
        out.insert(k.trim().to_owned(), v);
    }
    Ok(out)
}

/// Pulls `--flag value` pairs and positional args out of an argument list.
struct Opts<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Opts<'a> {
    fn parse(
        args: &'a [String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    flags.push((name, None));
                } else if value_flags.contains(&name) {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name, Some(v.as_str())));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else if a == "-i" {
                i += 1;
                let v = args.get(i).ok_or("-i needs a value")?;
                flags.push(("i", Some(v.as_str())));
            } else {
                positional.push(a);
            }
            i += 1;
        }
        Ok(Opts { positional, flags })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &[])?;
    let [path] = opts.positional.as_slice() else {
        return Err("usage: cpr check <file>".into());
    };
    let (program, _) = load_program(path)?;
    println!("program `{}` is well-formed", program.name);
    println!("  inputs: {}", program.inputs.len());
    for i in &program.inputs {
        println!("    {} in [{}, {}]", i.name, i.lo, i.hi);
    }
    if !program.functions.is_empty() {
        println!("  functions: {}", program.functions.len());
    }
    match program.hole() {
        Some((kind, vars)) => println!("  patch hole: {kind:?} over {vars:?}"),
        None => println!("  patch hole: none"),
    }
    match program.bug() {
        Some((name, _)) => println!("  bug location: {name}"),
        None => println!("  bug location: none"),
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["patch", "max-steps"], &[])?;
    let [path] = opts.positional.as_slice() else {
        return Err("usage: cpr run <file> [-i name=value]...".into());
    };
    let (program, _) = load_program(path)?;
    let mut inputs: TestInput = HashMap::new();
    for kv in opts.values("i") {
        inputs.extend(parse_kv_list(kv)?);
    }
    let max_steps: u64 = opts
        .value("max-steps")
        .map(|v| v.parse().map_err(|_| "invalid --max-steps"))
        .transpose()?
        .unwrap_or(100_000);

    let mut pool = cpr_smt::TermPool::new();
    let patch = match opts.value("patch") {
        Some(src) => {
            let expr = cpr_core::lower_expr_src(&mut pool, src)?;
            Some(ConcretePatch {
                pool: &pool,
                expr,
                binding: Model::new(),
            })
        }
        None => None,
    };
    let result = Interp::with_max_steps(max_steps).run(&program, &inputs, patch.as_ref());
    println!("outcome:    {:?}", result.outcome);
    println!("patch hits: {}", result.patch_hits);
    println!("bug hits:   {}", result.bug_hits);
    println!("steps:      {}", result.steps);
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "baseline",
            "max-execs",
            "seed",
            "subject",
            "serve-addr",
            "corpus-dir",
            "max-inputs",
            "cache-dir",
        ],
        &["concolic"],
    )?;
    // Subject mode always runs the pure-concolic engine; file mode does
    // when asked to (--concolic, or any engine-only flag), and keeps the
    // directed mutation fuzzer otherwise.
    if let Some(subject_name) = opts.value("subject") {
        if !opts.positional.is_empty() {
            return Err("--subject and a <file> are mutually exclusive".into());
        }
        let subjects = cpr_subjects::all_subjects();
        let s = subjects
            .iter()
            .find(|s| s.name() == subject_name || s.bug_id == subject_name)
            .ok_or_else(|| format!("unknown subject `{subject_name}`"))?;
        if s.not_supported {
            return Err(format!("{} is marked N/A (unsupported)", s.name()));
        }
        let problem = s.problem();
        return fuzz_concolic(
            &problem.program,
            problem.baseline_expr.as_deref(),
            Some(&s.name()),
            &opts,
        );
    }
    let [path] = opts.positional.as_slice() else {
        return Err(
            "usage: cpr fuzz <file> [--baseline <expr>] | cpr fuzz --subject <name> [--serve-addr host:port]"
                .into(),
        );
    };
    let (program, _) = load_program(path)?;
    if opts.value("serve-addr").is_some() {
        return Err(
            "streaming (--serve-addr) needs --subject: the server only runs registry subjects"
                .into(),
        );
    }
    if opts.has("concolic") || opts.value("corpus-dir").is_some() {
        return fuzz_concolic(&program, opts.value("baseline"), None, &opts);
    }
    let mut pool = cpr_smt::TermPool::new();
    let baseline_src = opts.value("baseline").unwrap_or("false");
    let patch = if program.hole().is_some() {
        let expr = cpr_core::lower_expr_src(&mut pool, baseline_src)?;
        Some(ConcretePatch {
            pool: &pool,
            expr,
            binding: Model::new(),
        })
    } else {
        None
    };
    let config = FuzzConfig {
        max_execs: opts
            .value("max-execs")
            .map(|v| v.parse().map_err(|_| "invalid --max-execs"))
            .transpose()?
            .unwrap_or(100_000),
        seed: opts
            .value("seed")
            .map(|v| v.parse().map_err(|_| "invalid --seed"))
            .transpose()?
            .unwrap_or(0x5eed),
        ..FuzzConfig::default()
    };
    let r = find_failing_input(&program, patch.as_ref(), &config);
    match r.failing {
        Some(input) => {
            let mut kvs: Vec<String> = input.iter().map(|(k, v)| format!("{k}={v}")).collect();
            kvs.sort();
            println!(
                "failing input found after {} execs: {}",
                r.execs,
                kvs.join(",")
            );
            println!("failure: {:?}", r.failure.unwrap());
        }
        None => {
            println!(
                "no failing input in {} execs (best directedness score {})",
                r.execs, r.best_score
            );
        }
    }
    Ok(())
}

/// Runs a pure-concolic fuzzing campaign, optionally streaming findings
/// into a repair server: the first input with a fresh crash signature
/// auto-submits a repair job for the subject, and every finding (fresh or
/// repeat) is injected into its signature's job, so the live run's
/// patch-space reduction sees the new evidence mid-flight.
fn fuzz_concolic(
    program: &Program,
    baseline_expr: Option<&str>,
    subject: Option<&str>,
    opts: &Opts<'_>,
) -> Result<(), String> {
    let mut config = cpr_fuzz::ConcolicFuzzConfig::default();
    if let Some(n) = parse_opt_num::<u64>(opts, "max-execs")? {
        config.max_execs = n;
    }
    if let Some(n) = parse_opt_num::<u64>(opts, "seed")? {
        config.seed = n;
    }
    if let Some(n) = parse_opt_num::<usize>(opts, "max-inputs")? {
        config.max_findings = n;
    }
    config.corpus_dir = opts.value("corpus-dir").map(std::path::PathBuf::from);
    config.solver.cache_dir = opts.value("cache-dir").map(std::path::PathBuf::from);
    config.metrics = true;

    let mut fuzzer = cpr_fuzz::ConcolicFuzzer::new(program, &config);
    if program.hole().is_some() {
        let src = baseline_expr.unwrap_or("false");
        let theta = cpr_core::lower_expr_src(fuzzer.pool_mut(), src)?;
        fuzzer.set_baseline(theta, Model::new());
    }

    let mut client = match opts.value("serve-addr") {
        Some(addr) => Some(cpr_serve::Client::connect(addr)?),
        None => None,
    };
    let mut sig_jobs: HashMap<u64, u64> = HashMap::new();
    let mut injected = 0u64;
    let mut stream_errors = 0u64;
    let result = fuzzer
        .run_with(&mut |finding| {
            let kvs: Vec<String> = finding
                .input
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "[{}] exec {} signature {} ({}): {}",
                if finding.fresh_signature {
                    "new"
                } else {
                    "dup"
                },
                finding.execs,
                finding.signature.hex(),
                finding.signature.label,
                kvs.join(",")
            );
            let (Some(client), Some(subject)) = (client.as_mut(), subject) else {
                return;
            };
            let streamed = (|| -> Result<(), String> {
                let job = match sig_jobs.get(&finding.signature.digest) {
                    Some(&job) => job,
                    None => {
                        let job = client.submit(cpr_serve::JobSpec::new(subject))?;
                        println!(
                            "  submitted job {job} for signature {}",
                            finding.signature.hex()
                        );
                        sig_jobs.insert(finding.signature.digest, job);
                        job
                    }
                };
                client.inject(job, &finding.input)?;
                injected += 1;
                Ok(())
            })();
            if let Err(e) = streamed {
                stream_errors += 1;
                eprintln!("warning: could not stream the finding: {e}");
            }
        })
        .map_err(|e| format!("corpus store: {e}"))?;

    println!(
        "concolic fuzz: {} execs, {} findings, {} distinct signatures",
        result.execs,
        result.findings.len(),
        result.signatures
    );
    println!(
        "  divergence: {} sat / {} unsat of {} solver queries; frontier {} prefixes, {} candidates still queued",
        result.diverge_sat,
        result.diverge_unsat,
        result.solver_queries,
        result.frontier_len,
        result.queue_len
    );
    if let Some(execs) = result.first_signature_execs {
        println!("  first fresh signature after {execs} execs");
    }
    if client.is_some() {
        println!(
            "  streamed: {} jobs submitted, {injected} inputs injected, {stream_errors} errors",
            sig_jobs.len()
        );
    }
    Ok(())
}

fn parse_arith(s: &str) -> Result<Vec<ArithOp>, String> {
    s.split(',')
        .map(|op| match op.trim() {
            "add" => Ok(ArithOp::Add),
            "sub" => Ok(ArithOp::Sub),
            "mul" => Ok(ArithOp::Mul),
            "div" => Ok(ArithOp::Div),
            "rem" => Ok(ArithOp::Rem),
            other => Err(format!("unknown arithmetic op `{other}`")),
        })
        .collect()
}

fn cmd_repair(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "failing",
            "passing",
            "vars",
            "consts",
            "arith",
            "template",
            "range",
            "dev",
            "baseline",
            "iters",
            "max-iterations",
            "ms",
            "time-budget-ms",
            "top",
            "metrics-out",
            "cache-dir",
        ],
        &["no-logic", "emit"],
    )?;
    let [path] = opts.positional.as_slice() else {
        return Err("usage: cpr repair <file> --failing k=v,... [options]".into());
    };
    let (program, _) = load_program(path)?;
    let Some((hole_kind, hole_vars)) = program.hole() else {
        return Err("the program has no patch hole (__patch_cond__/__patch_expr__)".into());
    };

    let failing: Vec<TestInput> = opts
        .values("failing")
        .into_iter()
        .map(parse_kv_list)
        .collect::<Result<_, _>>()?;
    if failing.is_empty() {
        return Err("at least one --failing input is required (try `cpr fuzz` to find one)".into());
    }
    let passing: Vec<TestInput> = opts
        .values("passing")
        .into_iter()
        .map(parse_kv_list)
        .collect::<Result<_, _>>()?;

    let vars: Vec<String> = match opts.value("vars") {
        Some(v) => v.split(',').map(|s| s.trim().to_owned()).collect(),
        None => hole_vars,
    };
    let consts: Vec<i64> = match opts.value("consts") {
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("invalid constant `{s}`"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let arith = match opts.value("arith") {
        Some(v) => parse_arith(v)?,
        None => Vec::new(),
    };
    let range: (i64, i64) = match opts.value("range") {
        Some(v) => {
            let (lo, hi) = v.split_once(',').ok_or("expected --range lo,hi")?;
            (
                lo.trim().parse().map_err(|_| "invalid range low")?,
                hi.trim().parse().map_err(|_| "invalid range high")?,
            )
        }
        None => (-10, 10),
    };

    let mut components = ComponentSet::new()
        .with_all_comparisons()
        .with_arith(&arith)
        .with_variables(vars)
        .with_constants(&consts);
    if !opts.has("no-logic") {
        components = components.with_logic();
    }
    let synth = SynthConfig {
        hole_kind,
        param_range: range,
        extra_templates: opts
            .values("template")
            .into_iter()
            .map(str::to_owned)
            .collect(),
        ..SynthConfig::default()
    };
    let mut problem = RepairProblem::new(program.name.clone(), program, components, synth, failing)
        .with_passing_inputs(passing);
    if let Some(dev) = opts.value("dev") {
        problem = problem.with_developer_patch(dev);
    }
    if let Some(b) = opts.value("baseline") {
        problem = problem.with_baseline(b);
    }

    // `--max-iterations` / `--time-budget-ms` are the service-style
    // spellings of `--iters` / `--ms`; either works, the long spelling
    // wins when both are given.
    let mut config = RepairConfig {
        max_iterations: opts
            .value("max-iterations")
            .or_else(|| opts.value("iters"))
            .map(|v| v.parse().map_err(|_| "invalid --iters/--max-iterations"))
            .transpose()?
            .unwrap_or(60),
        max_millis: Some(
            opts.value("time-budget-ms")
                .or_else(|| opts.value("ms"))
                .map(|v| v.parse().map_err(|_| "invalid --ms/--time-budget-ms"))
                .transpose()?
                .unwrap_or(10_000),
        ),
        ..RepairConfig::default()
    };
    config.solver.cache_dir = opts.value("cache-dir").map(std::path::PathBuf::from);
    // Hold the fleet cache open for the whole run (the solver resolves the
    // same instance through the per-directory registry), then flush once
    // at the end so what this run learned is durable for the next one.
    let fleet = config
        .solver
        .cache_dir
        .as_deref()
        .map(|dir| cpr_smt::FleetCache::open_shared(dir, config.solver.fleet_capacity));
    let top: usize = opts
        .value("top")
        .map(|v| v.parse().map_err(|_| "invalid --top"))
        .transpose()?
        .unwrap_or(10);

    problem.validate()?;
    let report = repair(&problem, &config);
    if let Some(fleet) = &fleet {
        if fleet.flush().is_err() {
            eprintln!("warning: could not flush the fleet solver cache (report unaffected)");
        }
    }
    print_report(&report, top);
    if let Some(path) = opts.value("metrics-out") {
        // The repair recorded into the process-wide registry
        // (`RepairConfig::metrics` defaults to on); dump it in the same
        // shape the server's `stats` verb uses.
        let stats = cpr_serve::Json::obj(vec![
            (
                "stats_version",
                cpr_serve::Json::Int(cpr_serve::STATS_VERSION),
            ),
            (
                "process",
                cpr_serve::metrics_to_json(&cpr_obs::global().snapshot()),
            ),
        ]);
        let mut line = stats.to_line();
        line.push('\n');
        std::fs::write(path, line).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if opts.has("emit") {
        match &report.top_patched_source {
            Some(src) => println!("\nrepaired program (top patch applied):\n{src}"),
            None => println!("\n(no patch could be rendered as source)"),
        }
    }
    Ok(())
}

fn print_report(report: &cpr_core::RepairReport, top: usize) {
    println!("subject:          {}", report.subject);
    println!(
        "patch space:      {} -> {} concrete patches ({:.0}% reduction)",
        report.p_init,
        report.p_final,
        report.reduction_ratio()
    );
    println!(
        "exploration:      {} paths explored, {} skipped by path reduction, {} iterations",
        report.paths_explored, report.paths_skipped, report.iterations
    );
    if let Some(rank) = report.dev_rank {
        println!("developer patch:  rank {rank}");
    }
    println!("wall time:        {} ms", report.wall_millis);
    println!("\ntop {} patches:", top.min(report.ranked.len()));
    for p in report.ranked.iter().take(top) {
        println!(
            "  score {:>5}  [{} concrete]  {}",
            p.score, p.concrete, p.display
        );
    }
}

fn cmd_subjects(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["benchmark", "run"], &[])?;
    let subjects = cpr_subjects::all_subjects();
    if let Some(name) = opts.value("run") {
        let s = subjects
            .iter()
            .find(|s| s.name() == name || s.bug_id == name)
            .ok_or_else(|| format!("unknown subject `{name}`"))?;
        if s.not_supported {
            return Err(format!("{} is marked N/A (unsupported)", s.name()));
        }
        let config = RepairConfig {
            max_iterations: 60,
            max_millis: Some(10_000),
            ..RepairConfig::default()
        };
        let report = repair(&s.problem(), &config);
        print_report(&report, 10);
        return Ok(());
    }
    let filter = opts.value("benchmark").map(str::to_lowercase);
    println!(
        "{:<4} {:<12} {:<38} dev patch",
        "id", "benchmark", "subject"
    );
    for s in &subjects {
        let bench = format!("{}", s.benchmark).to_lowercase();
        if let Some(f) = &filter {
            if !bench.contains(f.trim_start_matches("sv-").trim()) && &bench != f {
                continue;
            }
        }
        println!("{:<4} {:<12} {:<38} {}", s.id, bench, s.name(), s.dev_patch);
    }
    Ok(())
}

fn parse_opt_num<T: std::str::FromStr>(opts: &Opts<'_>, name: &str) -> Result<Option<T>, String> {
    opts.value(name)
        .map(|v| v.parse().map_err(|_| format!("invalid --{name}")))
        .transpose()
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "workers",
            "shards",
            "max-queued",
            "state-dir",
            "cache-dir",
        ],
        &["stdio"],
    )?;
    if !opts.positional.is_empty() {
        return Err(
            "usage: cpr serve [--addr host:port] [--workers N] [--shards N] [--max-queued N] [--state-dir DIR] [--cache-dir DIR] [--stdio]".into(),
        );
    }
    let workers: usize = parse_opt_num(&opts, "workers")?.unwrap_or(4);
    let shards: usize = parse_opt_num(&opts, "shards")?.unwrap_or(0);
    let max_queued: usize =
        parse_opt_num(&opts, "max-queued")?.unwrap_or(cpr_serve::DEFAULT_MAX_QUEUED_JOBS);
    let state_dir = opts.value("state-dir").unwrap_or(".cpr-serve");
    let store = cpr_serve::SnapshotStore::open(state_dir)
        .map_err(|e| format!("cannot open state dir {state_dir}: {e}"))?;
    let cache_dir = opts.value("cache-dir").map(std::path::PathBuf::from);
    let scheduler = cpr_serve::Scheduler::with_options(
        cpr_serve::SchedulerOptions {
            workers,
            shards,
            cache_dir,
            max_queued_jobs: max_queued,
        },
        store,
    );
    let shard_count = scheduler.shards();
    if opts.has("stdio") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        cpr_serve::serve_lines(&scheduler, stdin.lock(), stdout.lock())
            .map_err(|e| format!("stdio server: {e}"))?;
        scheduler.shutdown();
        return Ok(());
    }
    let addr = opts.value("addr").unwrap_or(DEFAULT_ADDR);
    let handle =
        cpr_serve::serve_tcp(addr, scheduler).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "cpr serve: listening on {} ({workers} workers, {shard_count} shards, state in {state_dir})",
        handle.addr()
    );
    handle.join();
    println!("cpr serve: shut down");
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "max-iterations",
            "time-budget-ms",
            "threads",
            "checkpoint-every",
            "resume-from",
        ],
        &["wait"],
    )?;
    let [subject] = opts.positional.as_slice() else {
        return Err("usage: cpr submit <subject> [--addr host:port] [options]".into());
    };
    let spec = cpr_serve::JobSpec {
        subject: (*subject).to_owned(),
        max_iterations: parse_opt_num(&opts, "max-iterations")?,
        time_budget_ms: parse_opt_num(&opts, "time-budget-ms")?,
        threads: parse_opt_num(&opts, "threads")?,
        checkpoint_every: parse_opt_num(&opts, "checkpoint-every")?,
        resume_from: parse_opt_num(&opts, "resume-from")?,
    };
    let addr = opts.value("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = cpr_serve::Client::connect(addr)?;
    let job = client.submit(spec)?;
    println!("job {job} submitted");
    if opts.has("wait") {
        let status = client.wait_terminal(job, std::time::Duration::from_secs(24 * 3600))?;
        print_job_row(&status);
        if status.get("state").and_then(cpr_serve::Json::as_str) == Some("done") {
            println!("{}", client.report(job)?.to_line());
        }
    }
    Ok(())
}

fn print_job_row(status: &cpr_serve::Json) {
    use cpr_serve::Json;
    let field = |k: &str| {
        status
            .get(k)
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                other => other.to_line(),
            })
            .unwrap_or_default()
    };
    println!(
        "{:<5} {:<9} {:<38} iters={} stop={}",
        field("job"),
        field("state"),
        field("subject"),
        field("iterations"),
        field("stop_reason"),
    );
}

fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["addr", "job", "cancel", "pause", "resume", "report"],
        &["stats"],
    )?;
    if !opts.positional.is_empty() {
        return Err("usage: cpr jobs [--addr host:port] [--job N | --cancel N | --pause N | --resume N | --report N | --stats]".into());
    }
    let addr = opts.value("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = cpr_serve::Client::connect(addr)?;
    if opts.has("stats") {
        println!("{}", client.stats()?.to_line());
        return Ok(());
    }
    if let Some(id) = parse_opt_num::<u64>(&opts, "report")? {
        println!("{}", client.report(id)?.to_line());
        return Ok(());
    }
    let acted = if let Some(id) = parse_opt_num::<u64>(&opts, "cancel")? {
        Some(client.cancel(id)?)
    } else if let Some(id) = parse_opt_num::<u64>(&opts, "pause")? {
        Some(client.pause(id)?)
    } else if let Some(id) = parse_opt_num::<u64>(&opts, "resume")? {
        Some(client.resume(id)?)
    } else if let Some(id) = parse_opt_num::<u64>(&opts, "job")? {
        Some(client.status(id)?)
    } else {
        None
    };
    match acted {
        Some(status) => print_job_row(&status),
        None => {
            let jobs = client.jobs()?;
            if jobs.is_empty() {
                println!("no jobs");
            }
            for j in jobs {
                print_job_row(&j);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Writes the demo subject to a file of its own: tests run in parallel
    /// and each one removes its file when done.
    fn write_demo() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cpr_cli_demo_{}_{n}.cpr", std::process::id()));
        std::fs::write(
            &path,
            "program demo {
               input x in [-50, 50];
               if (__patch_cond__(x)) { return 0 - 1; }
               bug div_by_zero requires (x != 0);
               return 1000 / x;
             }",
        )
        .unwrap();
        path
    }

    #[test]
    fn opts_parser_handles_flags_and_positionals() {
        let a = args(&["file.cpr", "--failing", "x=1", "--no-logic", "-i", "y=2"]);
        let opts = Opts::parse(&a, &["failing"], &["no-logic"]).unwrap();
        assert_eq!(opts.positional, vec!["file.cpr"]);
        assert_eq!(opts.value("failing"), Some("x=1"));
        assert!(opts.has("no-logic"));
        assert_eq!(opts.values("i"), vec!["y=2"]);
        // Unknown flags are rejected.
        assert!(Opts::parse(&args(&["--nope"]), &[], &[]).is_err());
        // Missing values are rejected.
        assert!(Opts::parse(&args(&["--failing"]), &["failing"], &[]).is_err());
    }

    #[test]
    fn kv_lists_parse() {
        let m = parse_kv_list("x=1, y =-3").unwrap();
        assert_eq!(m["x"], 1);
        assert_eq!(m["y"], -3);
        assert!(parse_kv_list("oops").is_err());
        assert!(parse_kv_list("x=abc").is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        run(&args(&["help"])).unwrap();
        run(&[]).unwrap();
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn check_run_fuzz_and_repair_subcommands() {
        let path = write_demo();
        let p = path.to_str().unwrap();
        run(&args(&["check", p])).unwrap();
        run(&args(&["run", p, "-i", "x=4"])).unwrap();
        run(&args(&["run", p, "-i", "x=4", "--patch", "x == 0"])).unwrap();
        run(&args(&["fuzz", p, "--max-execs", "5000"])).unwrap();
        run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--consts",
            "0",
            "--dev",
            "x == 0",
            "--iters",
            "4",
            "--ms",
            "2000",
            "--top",
            "2",
            "--emit",
        ]))
        .unwrap();
        // Validation errors surface.
        assert!(run(&args(&["repair", p, "--failing", "x=99"])).is_err());
        assert!(run(&args(&["repair", p])).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fuzz_concolic_file_mode_and_flag_validation() {
        let path = write_demo();
        let p = path.to_str().unwrap();
        let corpus =
            std::env::temp_dir().join(format!("cpr_cli_fuzz_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&corpus);
        run(&args(&[
            "fuzz",
            p,
            "--concolic",
            "--max-execs",
            "500",
            "--corpus-dir",
            corpus.to_str().unwrap(),
        ]))
        .unwrap();
        // The demo program's x=0 crash was found and stored atomically.
        let entries: Vec<_> = std::fs::read_dir(&corpus)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            entries.iter().any(|n| n.ends_with(".corpus")),
            "corpus dir holds findings: {entries:?}"
        );
        // Streaming needs a registry subject, and the flags stay validated.
        assert!(run(&args(&["fuzz", p, "--serve-addr", "127.0.0.1:9"])).is_err());
        assert!(run(&args(&["fuzz", "--subject", "no/such-subject"])).is_err());
        assert!(run(&args(&["fuzz", p, "--subject", "x"])).is_err());
        assert!(run(&args(&["fuzz", p, "--concolic", "--max-execs", "abc"])).is_err());
        let _ = std::fs::remove_dir_all(&corpus);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fuzz_subject_offline_mode_reports_findings() {
        let subject = cpr_subjects::all_subjects()
            .iter()
            .find(|s| !s.not_supported)
            .unwrap()
            .name();
        run(&args(&[
            "fuzz",
            "--subject",
            &subject,
            "--max-execs",
            "300",
            "--max-inputs",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn subjects_listing_and_errors() {
        run(&args(&["subjects"])).unwrap();
        run(&args(&["subjects", "--benchmark", "manybugs"])).unwrap();
        assert!(run(&args(&["subjects", "--run", "no/such-subject"])).is_err());
        // The unsupported FFmpeg rows refuse to run.
        assert!(run(&args(&["subjects", "--run", "FFmpeg/CVE-2017-9992"])).is_err());
    }

    #[test]
    fn check_reports_missing_file() {
        assert!(run(&args(&["check", "/nonexistent/x.cpr"])).is_err());
    }

    #[test]
    fn repair_metrics_out_writes_a_parseable_stats_line() {
        let path = write_demo();
        let p = path.to_str().unwrap();
        let out = std::env::temp_dir().join(format!("cpr_cli_metrics_{}.json", std::process::id()));
        run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--consts",
            "0",
            "--iters",
            "2",
            "--ms",
            "2000",
            "--metrics-out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let line = std::fs::read_to_string(&out).unwrap();
        let stats = cpr_serve::json::parse(line.trim()).unwrap();
        assert_eq!(
            stats.get("stats_version").and_then(cpr_serve::Json::as_i64),
            Some(cpr_serve::STATS_VERSION)
        );
        let counters = stats.get("process").unwrap().get("counters").unwrap();
        let queries = counters
            .get("solver.queries")
            .and_then(cpr_serve::Json::as_u64)
            .unwrap();
        assert!(queries > 0, "a repair run must issue solver queries");
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn repair_budget_flags_exhaust_into_a_normal_report() {
        // `--max-iterations` / `--time-budget-ms` are accepted, and
        // exhausting the budgets is a normal stop — the subcommand
        // succeeds and prints a report instead of erroring out.
        let path = write_demo();
        let p = path.to_str().unwrap();
        run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--consts",
            "0",
            "--max-iterations",
            "1",
            "--time-budget-ms",
            "60000",
        ]))
        .unwrap();
        // A zero time budget exhausts immediately; still a normal report.
        run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--consts",
            "0",
            "--time-budget-ms",
            "0",
        ]))
        .unwrap();
        // The long spellings win over the short ones when both appear.
        run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--consts",
            "0",
            "--iters",
            "500000",
            "--max-iterations",
            "1",
            "--ms",
            "0",
            "--time-budget-ms",
            "60000",
        ]))
        .unwrap();
        assert!(run(&args(&[
            "repair",
            p,
            "--failing",
            "x=0",
            "--max-iterations",
            "abc"
        ]))
        .is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn serve_submit_and_jobs_roundtrip_over_tcp() {
        // A real `cpr serve` in a background thread, driven end-to-end
        // through `cpr submit --wait` and `cpr jobs`.
        let port = 41000 + (std::process::id() % 20000) as u16;
        let addr = format!("127.0.0.1:{port}");
        let state_dir = std::env::temp_dir().join(format!("cpr_cli_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = {
            let serve_args = args(&[
                "serve",
                "--addr",
                &addr,
                "--workers",
                "1",
                "--state-dir",
                state_dir.to_str().unwrap(),
            ]);
            std::thread::spawn(move || run(&serve_args))
        };
        // Wait for the listener.
        let mut up = false;
        for _ in 0..200 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(up, "server did not come up on {addr}");

        let subject = cpr_subjects::all_subjects()
            .iter()
            .find(|s| !s.not_supported)
            .unwrap()
            .name();
        run(&args(&[
            "submit",
            &subject,
            "--addr",
            &addr,
            "--max-iterations",
            "4",
            "--wait",
        ]))
        .unwrap();
        run(&args(&["jobs", "--addr", &addr])).unwrap();
        run(&args(&["jobs", "--addr", &addr, "--job", "1"])).unwrap();
        run(&args(&["jobs", "--addr", &addr, "--report", "1"])).unwrap();
        run(&args(&["jobs", "--addr", &addr, "--stats"])).unwrap();
        // Server-side errors surface as errors, not panics.
        assert!(run(&args(&["jobs", "--addr", &addr, "--report", "99"])).is_err());
        assert!(run(&args(&["submit", "no/such-subject", "--addr", &addr])).is_err());

        let mut client = cpr_serve::Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn submit_and_jobs_report_connection_errors() {
        // Nothing listens on the discard port; the commands fail cleanly.
        assert!(run(&args(&["submit", "x", "--addr", "127.0.0.1:9"])).is_err());
        assert!(run(&args(&["jobs", "--addr", "127.0.0.1:9"])).is_err());
        assert!(run(&args(&["submit"])).is_err());
        assert!(run(&args(&["jobs", "extra"])).is_err());
        assert!(run(&args(&["serve", "extra"])).is_err());
    }
}
