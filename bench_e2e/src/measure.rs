//! Shared measurement plumbing: the pass loop, percentiles over raw
//! samples, golden digests, layer counts and the run record.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cpr_core::RepairProblem;
use cpr_fuzz::rng::XorShiftRng;
use cpr_obs::MetricsSnapshot;
use cpr_serve::Json;

/// Golden digests, one `workload<TAB>key<TAB>digest` line per output.
const GOLDENS: &str = include_str!("../goldens.txt");

/// Named metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The run record printed before the result line: configuration facts
/// (CPU count, threads, sample counts) that make a result comparable.
#[derive(Debug, Default)]
pub struct Record(Vec<(String, Json)>);

impl Record {
    fn set(&mut self, key: &str, v: Json) {
        self.0.push((key.to_owned(), v));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.set(key, Json::Int(i64::try_from(v).unwrap_or(i64::MAX)));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.set(key, Json::Float(v));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        self.set(key, Json::Str(v.to_owned()));
    }

    pub fn flag(&mut self, key: &str, v: bool) {
        self.set(key, Json::Bool(v));
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) {
        self.set(key, Json::Arr(vs.iter().map(|&v| Json::Float(v)).collect()));
    }

    pub fn to_line(&self) -> String {
        Json::obj(vec![("record", Json::Obj(self.0.clone()))]).to_line()
    }
}

/// Starts the record every workload shares: what ran, on how many CPUs.
pub fn base_record(args: &crate::Args, workload_threads: usize) -> Record {
    let mut r = Record::default();
    r.text("workload", &args.workload);
    r.int("seed", args.seed);
    r.num("seconds", args.seconds);
    r.flag("trace", args.trace);
    r.int("nproc", nproc() as u64);
    r.int("threads", workload_threads as u64);
    r
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The `q`-quantile of raw samples, interpolating linearly between
/// closest ranks. Empty input yields 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs whole passes until `seconds` have elapsed: always one, and never
/// one the previous pass's duration says would overrun the budget.
/// `pass` returns its output and its wall time in seconds. Also returns
/// the peak RSS read after the first pass, so that memory does not depend
/// on how many passes fit in the run.
pub fn passes<T>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<(Vec<T>, f64), String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    let mut rss = 0.0;
    while out.is_empty() || secs(start.elapsed()) + last <= seconds {
        let (value, wall) = pass(out.len())?;
        if out.is_empty() {
            rss = peak_rss_mb();
        }
        out.push(value);
        last = wall;
    }
    Ok((out, rss))
}

/// Fisher–Yates shuffle driven by the in-repo xorshift generator.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_index(i + 1);
        items.swap(i, j);
    }
}

/// FNV-1a digest of an output, as the hex string goldens store.
pub fn digest(text: &str) -> String {
    format!("{:016x}", cpr_smt::wire::fnv1a(text.as_bytes()))
}

/// The fields of a serialized report that goldens pin: the repair outcome,
/// without wall-clock time and without the query accounting
/// (`solver_queries`, `queries_screened`) that a change to the solver
/// layers may move while every patch, rank and count of the repair stays.
pub fn outcome_key(report: &Json) -> String {
    match report {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "wall_millis" | "solver_queries" | "queries_screened"
                    )
                })
                .cloned()
                .collect(),
        )
        .to_line(),
        other => other.to_line(),
    }
}

/// Compares output digests against `goldens.txt`. With `bless`, prints
/// each first-seen output as a golden line instead of judging it.
pub struct Goldens {
    workload: &'static str,
    expected: HashMap<String, String>,
    bless: bool,
    blessed: Vec<String>,
}

impl Goldens {
    pub fn new(workload: &'static str, bless: bool) -> Goldens {
        let expected = GOLDENS
            .lines()
            .filter_map(|l| {
                let mut f = l.split('\t');
                match (f.next(), f.next(), f.next()) {
                    (Some(w), Some(k), Some(d)) if w == workload => {
                        Some((k.to_owned(), d.to_owned()))
                    }
                    _ => None,
                }
            })
            .collect();
        Goldens {
            workload,
            expected,
            bless,
            blessed: Vec::new(),
        }
    }

    /// Whether `output` for `key` matches its golden digest; a mismatch is
    /// reported on stderr.
    pub fn check(&mut self, key: &str, output: &str) -> bool {
        let got = digest(output);
        if self.bless {
            if !self.blessed.iter().any(|k| k == key) {
                println!("{}\t{key}\t{got}", self.workload);
                self.blessed.push(key.to_owned());
            }
            return true;
        }
        match self.expected.get(key) {
            Some(want) if *want == got => true,
            want => {
                eprintln!(
                    "bench_e2e: {} output for `{key}` is {got}, golden is {}",
                    self.workload,
                    want.map_or("missing", String::as_str)
                );
                false
            }
        }
    }
}

/// A counter's value in a metrics snapshot (0 when unregistered).
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// A histogram's `(count, sum)` in a metrics snapshot.
pub fn histogram(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0), |h| (h.count, h.sum))
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Candidates `cpr_synth::enumerate` yields for `problems`, and the time
/// it takes on scratch pools: the enumeration share of synthesis.
pub fn enumerate<'a>(problems: impl IntoIterator<Item = &'a RepairProblem>) -> (usize, f64) {
    let (mut n, mut s) = (0, 0.0);
    for p in problems {
        let mut pool = cpr_smt::TermPool::new();
        let t0 = Instant::now();
        n += cpr_synth::enumerate(&mut pool, &p.components, &p.synth).len();
        s += secs(t0.elapsed());
    }
    (n, s)
}

/// Synthesis, driver, reduce, expand, solver and screen layers from a
/// metrics snapshot of repair runs, given their summed synthesis and step
/// wall time and what [`enumerate`] measured for their problems.
pub fn repair_layers(
    m: &mut Metrics,
    snap: &MetricsSnapshot,
    synth_s: f64,
    step_s: f64,
    (enumerated, enumerate_s): (usize, f64),
) {
    let c = |name: &str| counter(snap, name) as f64;
    let patches = c("synthesize.patches");
    m.set("synthesize.busy_s", synth_s);
    m.set("synthesize.enumerate_s", enumerate_s);
    m.set("synthesize.validate_s", (synth_s - enumerate_s).max(0.0));
    m.set("synthesize.enumerated", enumerated as f64);
    m.set("synthesize.patches", patches);
    m.set("synthesize.yield", ratio(patches, enumerated as f64));
    let (calls, reduce_ns) = histogram(snap, "reduce.phase_nanos");
    let reduce_s = reduce_ns as f64 / 1e9;
    let expand_s = histogram(snap, "expand.phase_nanos").1 as f64 / 1e9;
    m.set("driver.other_s", step_s - reduce_s - expand_s);
    m.set("reduce.busy_s", reduce_s);
    m.set("reduce.calls", calls as f64);
    m.set("expand.busy_s", expand_s);
    for name in [
        "reduce.patches_dropped",
        "reduce.patches_refined",
        "expand.flips_expanded",
        "expand.candidates",
        "expand.model_reuse_hits",
    ] {
        m.set(name, c(name));
    }
    m.set("expand.paths_skipped", c("driver.paths_skipped"));
    solver_layers(m, snap, counter(snap, "solver.queries_screened"));
}

/// Solver and screen layer counts every workload reads from one metrics
/// snapshot (or snapshot delta), in per-layer metric names.
pub fn solver_layers(m: &mut Metrics, snap: &MetricsSnapshot, screened: u64) {
    let queries = counter(snap, "solver.queries");
    let hits = counter(snap, "solver.cache_hits");
    let misses = counter(snap, "solver.cache_misses");
    m.set("solver.queries", queries as f64);
    m.set(
        "solver.busy_s",
        histogram(snap, "solver.solve_nanos").1 as f64 / 1e9,
    );
    m.set(
        "solver.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("solver.unknown", counter(snap, "solver.unknown") as f64);
    m.set(
        "solver.frames_pushed",
        counter(snap, "solver.frames.pushed") as f64,
    );
    m.set(
        "solver.nogood_hits",
        counter(snap, "solver.nogood.hits") as f64,
    );
    m.set(
        "solver.prefix_short_circuits",
        counter(snap, "solver.prefix_short_circuits") as f64,
    );
    m.set("screen.screened", screened as f64);
    m.set(
        "screen.screened_ratio",
        ratio(screened as f64, (queries + screened) as f64),
    );
    m.set(
        "screen.cert_replay_s",
        histogram(snap, "screen.cert_replay_nanos").1 as f64 / 1e9,
    );
    m.set(
        "screen.cert_rejected",
        counter(snap, "screen.cert_rejected") as f64,
    );
}
