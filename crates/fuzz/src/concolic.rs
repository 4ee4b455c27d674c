//! Pure-concolic diverging-input generation (Leaf/SymCC style).
//!
//! Where the mutation fuzzer in the crate root guesses, this engine
//! *derives*: it executes the subject concretely while collecting the
//! symbolic path condition, negates each newly observed branch constraint,
//! asks the [`cpr_smt::Solver`] for an input that diverges at
//! exactly that branch, and re-executes — the generational search of the
//! paper's §3.4 turned into a standalone input-discovery campaign.
//!
//! The loop is deterministic for a fixed [`ConcolicFuzzConfig::seed`]:
//! every frontier decision is driven by the seeded RNG, the solver's
//! canonical search, and the [`SeenPrefixes`]-backed dedup set — no wall
//! clock, no address-dependent ordering. Observable failures are
//! deduplicated by [`CrashSignature`] (bug location + stop-reason digest),
//! and every distinct failing input can be persisted to a per-campaign
//! [`CorpusStore`] using the same atomic tmp+rename+fsync pattern as the
//! job server's snapshot store.

use std::collections::BTreeSet;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cpr_concolic::{
    prefix_flips, score_candidate, CandidateInput, ConcolicExecutor, HolePatch, InputQueue,
    SeenPrefixes,
};
use cpr_lang::{Outcome, Program};
use cpr_obs::{Counter, Histogram, MetricsRegistry};
use cpr_smt::{fsync_dir, Domains, Model, SatResult, Solver, SolverConfig, Sort, TermId, VarId};
use cpr_smt::{TermPool, Value};

use crate::rng::XorShiftRng;

/// Tuning knobs for a pure-concolic campaign.
#[derive(Debug, Clone)]
pub struct ConcolicFuzzConfig {
    /// RNG seed for the randomized initial corpus (campaigns are
    /// deterministic for a fixed seed).
    pub seed: u64,
    /// Maximum number of concrete executions.
    pub max_execs: u64,
    /// Stop after this many distinct failing inputs (`0` = no limit).
    pub max_findings: usize,
    /// Statement budget per execution.
    pub exec_max_steps: u64,
    /// Maximum recorded path length per execution.
    pub exec_max_path: usize,
    /// Solver configuration for the divergence queries; `cache_dir` plugs
    /// the campaign into the fleet verdict cache shared with repair jobs.
    pub solver: SolverConfig,
    /// Directory for the on-disk corpus of failing inputs (`None`
    /// disables persistence).
    pub corpus_dir: Option<PathBuf>,
    /// Record `fuzz.*` metrics on the process-wide [`cpr_obs::global`]
    /// registry. Write-only: nothing recorded feeds back into the search.
    pub metrics: bool,
}

impl Default for ConcolicFuzzConfig {
    fn default() -> Self {
        ConcolicFuzzConfig {
            seed: 0x5eed,
            max_execs: 2_000,
            max_findings: 0,
            exec_max_steps: 50_000,
            exec_max_path: 256,
            solver: SolverConfig::default(),
            corpus_dir: None,
            metrics: false,
        }
    }
}

/// Identity of an observable failure: the stop reason plus the source
/// location it fired at, digested so two inputs crashing the same way at
/// the same place collapse into one signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashSignature {
    /// Stable stop-reason label (`spec-violated:<bug>`, `crash:<kind>`,
    /// `assert-failed`).
    pub label: String,
    /// Byte span of the failing location in the subject source.
    pub location: (usize, usize),
    /// FNV-1a digest of label + location — the dedup key.
    pub digest: u64,
}

impl CrashSignature {
    /// Classifies an outcome; `None` for non-failures.
    pub fn of(outcome: &Outcome) -> Option<CrashSignature> {
        let (label, span) = match outcome {
            Outcome::Crash { kind, span } => (format!("crash:{kind}"), *span),
            Outcome::AssertFailed { span } => ("assert-failed".to_owned(), *span),
            Outcome::SpecViolated { bug, span } => (format!("spec-violated:{bug}"), *span),
            _ => return None,
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(label.as_bytes());
        eat(&(span.start as u64).to_le_bytes());
        eat(&(span.end as u64).to_le_bytes());
        Some(CrashSignature {
            label,
            location: (span.start, span.end),
            digest: h,
        })
    }

    /// The digest as a fixed-width hex string (corpus and log format).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// One distinct failing input discovered by the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFinding {
    /// The failing input as sorted `(name, value)` pairs.
    pub input: Vec<(String, i64)>,
    /// The failure's signature.
    pub signature: CrashSignature,
    /// Whether this signature had never been seen before in the campaign
    /// (the trigger for auto-submitting a repair job).
    pub fresh_signature: bool,
    /// Executions spent when the finding surfaced.
    pub execs: u64,
}

/// Campaign totals.
#[derive(Debug, Clone, Default)]
pub struct ConcolicFuzzResult {
    /// Every distinct failing input, in discovery order.
    pub findings: Vec<FuzzFinding>,
    /// Concrete executions spent.
    pub execs: u64,
    /// Divergence queries answered SAT (a new input was derived).
    pub diverge_sat: u64,
    /// Divergence queries answered UNSAT/unknown (branch proven or
    /// assumed one-sided).
    pub diverge_unsat: u64,
    /// Distinct path prefixes recorded by the frontier.
    pub frontier_len: usize,
    /// Candidates still queued when the campaign stopped.
    pub queue_len: usize,
    /// Distinct crash signatures observed.
    pub signatures: usize,
    /// Executions spent when the first fresh signature surfaced.
    pub first_signature_execs: Option<u64>,
    /// Total solver queries issued for divergence.
    pub solver_queries: u64,
}

/// `fuzz.*` observability handles (write-only, resolved once).
#[derive(Debug)]
struct FuzzObs {
    execs: Counter,
    findings: Counter,
    signatures: Counter,
    diverge_sat: Counter,
    diverge_unsat: Counter,
    exec_nanos: Histogram,
    solve_nanos: Histogram,
}

impl FuzzObs {
    fn new(registry: &MetricsRegistry) -> FuzzObs {
        FuzzObs {
            execs: registry.counter("fuzz.execs"),
            findings: registry.counter("fuzz.findings"),
            signatures: registry.counter("fuzz.signatures"),
            diverge_sat: registry.counter("fuzz.diverge_sat"),
            diverge_unsat: registry.counter("fuzz.diverge_unsat"),
            exec_nanos: registry.histogram("fuzz.exec_nanos"),
            solve_nanos: registry.histogram("fuzz.solve_nanos"),
        }
    }
}

/// Registers every `fuzz.*` metric on `registry` at zero. The job server
/// calls this at startup so a `stats` response always carries the full
/// documented metric set, even in a process that never runs a campaign
/// itself (campaigns usually run client-side, in `cpr fuzz`).
pub fn register_fuzz_metrics(registry: &MetricsRegistry) {
    let _ = FuzzObs::new(registry);
}

/// A pure-concolic fuzzing campaign over one subject program.
///
/// Construction interns the program's input variables in a fresh term
/// pool; [`ConcolicFuzzer::pool_mut`] exposes that pool so callers can
/// lower a baseline patch expression for subjects with a hole (see
/// [`ConcolicFuzzer::set_baseline`]), and [`ConcolicFuzzer::run`] /
/// [`ConcolicFuzzer::run_with`] drive the campaign.
#[derive(Debug)]
pub struct ConcolicFuzzer<'p> {
    program: &'p Program,
    config: ConcolicFuzzConfig,
    pool: TermPool,
    domains: Domains,
    inputs: Vec<(String, VarId, i64, i64)>,
    solver: Solver,
    exec: ConcolicExecutor,
    patch: Option<HolePatch>,
    obs: FuzzObs,
}

impl<'p> ConcolicFuzzer<'p> {
    /// Sets up a campaign: interns input variables, bounds their domains,
    /// and configures the solver (attaching fleet cache and
    /// metrics per the config).
    pub fn new(program: &'p Program, config: &ConcolicFuzzConfig) -> ConcolicFuzzer<'p> {
        let mut pool = TermPool::new();
        let mut domains = Domains::new();
        let mut inputs = Vec::with_capacity(program.inputs.len());
        for decl in &program.inputs {
            let v = pool.var(&decl.name, Sort::Int);
            domains.bound(v, decl.lo, decl.hi);
            inputs.push((decl.name.clone(), v, decl.lo, decl.hi));
        }
        let mut solver = Solver::new(config.solver.clone());
        let registry = if config.metrics {
            cpr_obs::global().clone()
        } else {
            MetricsRegistry::disabled()
        };
        solver.attach_metrics(&registry);
        ConcolicFuzzer {
            program,
            config: config.clone(),
            pool,
            domains,
            inputs,
            solver,
            exec: ConcolicExecutor::with_budgets(config.exec_max_steps, config.exec_max_path),
            patch: None,
            obs: FuzzObs::new(&registry),
        }
    }

    /// The campaign's term pool — the place to lower a baseline patch
    /// expression before [`ConcolicFuzzer::set_baseline`].
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Fills the program's patch hole with a concrete baseline (typically
    /// the original buggy expression) so subjects with a hole execute the
    /// unpatched behavior. Parameter values are pinned in the solver's
    /// domains so divergence models stay consistent with execution.
    pub fn set_baseline(&mut self, theta: TermId, params: Model) {
        for (var, value) in params.iter() {
            if let Value::Int(v) = value {
                self.domains.bound(var, v, v);
            }
        }
        self.patch = Some(HolePatch { theta, params });
    }

    /// Runs the campaign to completion.
    ///
    /// # Errors
    ///
    /// Only I/O errors from the corpus store (when
    /// [`ConcolicFuzzConfig::corpus_dir`] is set).
    pub fn run(&mut self) -> io::Result<ConcolicFuzzResult> {
        self.run_with(&mut |_| {})
    }

    /// [`ConcolicFuzzer::run`], invoking `sink` on each finding as it
    /// surfaces — the hook the streaming front end uses to auto-submit
    /// and inject into live repair jobs.
    ///
    /// # Errors
    ///
    /// Only I/O errors from the corpus store.
    pub fn run_with(
        &mut self,
        sink: &mut dyn FnMut(&FuzzFinding),
    ) -> io::Result<ConcolicFuzzResult> {
        let mut result = ConcolicFuzzResult::default();
        let corpus = match &self.config.corpus_dir {
            Some(dir) => Some(CorpusStore::open(dir)?),
            None => None,
        };
        let mut queue = InputQueue::new();
        let mut seen = SeenPrefixes::new();
        let mut known_inputs: BTreeSet<Vec<(String, i64)>> = BTreeSet::new();
        let mut signatures: BTreeSet<u64> = BTreeSet::new();

        // Initial corpus: the domain corners, zero (clamped), and two
        // seeded random draws. Scores sit in the provided band (>= 50),
        // above everything `score_candidate` can produce.
        let mut rng = XorShiftRng::seed_from_u64(self.config.seed);
        let mut seeds: Vec<Vec<(String, i64)>> = vec![
            self.inputs
                .iter()
                .map(|(n, _, lo, _)| (n.clone(), *lo))
                .collect(),
            self.inputs
                .iter()
                .map(|(n, _, _, hi)| (n.clone(), *hi))
                .collect(),
            self.inputs
                .iter()
                .map(|(n, _, lo, hi)| (n.clone(), 0i64.clamp(*lo, *hi)))
                .collect(),
        ];
        for _ in 0..2 {
            seeds.push(
                self.inputs
                    .iter()
                    .map(|(n, _, lo, hi)| (n.clone(), rng.gen_range_i64(*lo, *hi)))
                    .collect(),
            );
        }
        let mut next_seed_score = 100i64;
        for pairs in seeds {
            if known_inputs.insert(pairs.clone()) {
                queue.push(CandidateInput {
                    model: self.model_of(&pairs),
                    score: next_seed_score,
                    flipped_index: 0,
                });
                next_seed_score -= 1;
            }
        }

        'campaign: while result.execs < self.config.max_execs {
            let Some(candidate) = queue.pop() else { break };
            let t0 = self.obs.exec_nanos.start();
            let run = self.exec.execute(
                &mut self.pool,
                self.program,
                &candidate.model,
                self.patch.as_ref(),
            );
            self.obs.exec_nanos.stop(t0);
            result.execs += 1;
            self.obs.execs.inc();

            if run.outcome.is_failure() {
                if let Some(signature) = CrashSignature::of(&run.outcome) {
                    let fresh = signatures.insert(signature.digest);
                    if fresh {
                        result.signatures += 1;
                        self.obs.signatures.inc();
                        if result.first_signature_execs.is_none() {
                            result.first_signature_execs = Some(result.execs);
                        }
                    }
                    let finding = FuzzFinding {
                        input: self.pairs_of(&candidate.model),
                        signature,
                        fresh_signature: fresh,
                        execs: result.execs,
                    };
                    if let Some(store) = &corpus {
                        store.save(result.findings.len(), &finding)?;
                    }
                    self.obs.findings.inc();
                    sink(&finding);
                    result.findings.push(finding);
                    if self.config.max_findings != 0
                        && result.findings.len() >= self.config.max_findings
                    {
                        break 'campaign;
                    }
                }
            }

            // Generational expansion: one divergence query per fresh
            // prefix.
            for flip in &prefix_flips(&mut self.pool, &run.path) {
                if seen.insert(&flip.constraints) {
                    let t0 = self.obs.solve_nanos.start();
                    let verdict = self
                        .solver
                        .check(&self.pool, &flip.constraints, &self.domains);
                    self.obs.solve_nanos.stop(t0);
                    match verdict {
                        SatResult::Sat(model) => {
                            result.diverge_sat += 1;
                            self.obs.diverge_sat.inc();
                            let pairs = self.complete(&model);
                            if known_inputs.insert(pairs.clone()) {
                                queue.push(CandidateInput {
                                    model: self.model_of(&pairs),
                                    score: score_candidate(&run, flip),
                                    flipped_index: flip.flipped_index,
                                });
                            }
                        }
                        SatResult::Unsat | SatResult::Unknown => {
                            result.diverge_unsat += 1;
                            self.obs.diverge_unsat.inc();
                        }
                    }
                }
            }
        }

        result.frontier_len = seen.len();
        result.queue_len = queue.len();
        result.solver_queries = self.solver.stats().queries;
        if let Some(fleet) = self.solver.fleet() {
            let _ = fleet.flush();
        }
        Ok(result)
    }

    /// Builds the execution model for sorted input pairs.
    fn model_of(&self, pairs: &[(String, i64)]) -> Model {
        let mut model = Model::new();
        for (name, value) in pairs {
            if let Some((_, var, _, _)) = self.inputs.iter().find(|(n, ..)| n == name) {
                model.set(*var, *value);
            }
        }
        model
    }

    /// Projects a model onto the input variables as sorted pairs.
    fn pairs_of(&self, model: &Model) -> Vec<(String, i64)> {
        self.inputs
            .iter()
            .map(|(name, var, lo, _)| (name.clone(), model.int(*var).unwrap_or(*lo)))
            .collect()
    }

    /// Completes a solver model into a full input assignment: variables
    /// the divergence query left unconstrained take their lower bound
    /// (deterministic), and every value is clamped into its declared
    /// range.
    fn complete(&self, model: &Model) -> Vec<(String, i64)> {
        self.inputs
            .iter()
            .map(|(name, var, lo, hi)| {
                let v = model.int(*var).unwrap_or(*lo).clamp(*lo, *hi);
                (name.clone(), v)
            })
            .collect()
    }
}

/// One parsed corpus file: the sorted input pairs and the signature hex
/// digest from the header line (when present).
pub type CorpusEntry = (Vec<(String, i64)>, Option<String>);

/// On-disk corpus of failing inputs, one file per finding, written with
/// the same crash-safe discipline as the job server's `SnapshotStore`:
/// full write to a temp file, fsync, atomic rename, directory fsync.
#[derive(Debug, Clone)]
pub struct CorpusStore {
    dir: PathBuf,
}

impl CorpusStore {
    /// Opens (creating if needed) a corpus directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CorpusStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CorpusStore { dir })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, seq: usize) -> PathBuf {
        self.dir.join(format!("input-{seq:06}.corpus"))
    }

    /// Persists one finding under sequence number `seq` (atomic: a crash
    /// mid-save never leaves a partial corpus file).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from any step of the write.
    pub fn save(&self, seq: usize, finding: &FuzzFinding) -> io::Result<PathBuf> {
        let target = self.path(seq);
        let tmp = self.dir.join(format!("input-{seq:06}.corpus.tmp"));
        let mut text = format!(
            "# signature {} {}\n",
            finding.signature.hex(),
            finding.signature.label
        );
        for (name, value) in &finding.input {
            text.push_str(&format!("{name}={value}\n"));
        }
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &target)?;
        fsync_dir(&self.dir)?;
        Ok(target)
    }

    /// Lists corpus files in sequence order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "corpus")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("input-"))
            })
            .collect();
        out.sort();
        Ok(out)
    }

    /// Reads back one corpus file: the sorted input pairs and the
    /// signature hex digest from the header line.
    ///
    /// # Errors
    ///
    /// Propagates read failures; malformed lines are skipped.
    pub fn load(path: &Path) -> io::Result<CorpusEntry> {
        let text = std::fs::read_to_string(path)?;
        let mut pairs = Vec::new();
        let mut sig = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# signature ") {
                sig = rest.split_whitespace().next().map(str::to_owned);
            } else if let Some((name, value)) = line.split_once('=') {
                if let Ok(v) = value.trim().parse::<i64>() {
                    pairs.push((name.trim().to_owned(), v));
                }
            }
        }
        pairs.sort();
        Ok((pairs, sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_lang::{check, parse};

    fn program(src: &str) -> Program {
        let p = parse(src).unwrap();
        check(&p).unwrap();
        p
    }

    fn quick_config() -> ConcolicFuzzConfig {
        ConcolicFuzzConfig {
            max_execs: 200,
            ..ConcolicFuzzConfig::default()
        }
    }

    #[test]
    fn finds_a_guarded_crash_mutation_fuzzers_struggle_with() {
        // The bug only fires when 3x == 21, a single point in a 200001-wide
        // domain: negating the guard's branch constraint derives x = 7
        // directly.
        let p = program(
            "program needle {
               input x in [-100000, 100000];
               if (x * 3 == 21) {
                 bug needle requires (x != x);
               }
               return 0;
             }",
        );
        let mut fuzzer = ConcolicFuzzer::new(&p, &quick_config());
        let result = fuzzer.run().unwrap();
        assert!(!result.findings.is_empty(), "no finding in {result:?}");
        let f = &result.findings[0];
        assert_eq!(f.input, vec![("x".to_owned(), 7)]);
        assert!(f.fresh_signature);
        assert!(f.signature.label.starts_with("spec-violated:needle"));
        assert_eq!(result.signatures, 1);
        assert!(result.diverge_sat > 0);
    }

    #[test]
    fn campaigns_are_deterministic_for_a_fixed_seed() {
        let p = program(
            "program det {
               input x in [-1000, 1000];
               input y in [-1000, 1000];
               var w: int = 0;
               if (x > y) { w = 1; }
               if (x * y == 36) {
                 bug det requires (x > 100);
               }
               return w;
             }",
        );
        let run = || {
            let mut fuzzer = ConcolicFuzzer::new(&p, &quick_config());
            fuzzer.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.execs, b.execs);
        assert_eq!(a.diverge_sat, b.diverge_sat);
        assert_eq!(a.diverge_unsat, b.diverge_unsat);
        assert_eq!(a.frontier_len, b.frontier_len);
        assert_eq!(a.first_signature_execs, b.first_signature_execs);
    }

    #[test]
    fn crash_signatures_dedup_by_location_and_reason() {
        // Every x in [-5, 5] except the crash-free ones divides by zero at
        // the same location: many failing inputs, one signature.
        let p = program(
            "program dedup {
               input x in [-5, 5];
               bug div_by_zero requires (x != 0);
               return 100 / x;
             }",
        );
        let config = ConcolicFuzzConfig {
            max_execs: 400,
            ..ConcolicFuzzConfig::default()
        };
        let mut fuzzer = ConcolicFuzzer::new(&p, &config);
        let result = fuzzer.run().unwrap();
        assert_eq!(result.signatures, 1);
        let fresh: Vec<bool> = result.findings.iter().map(|f| f.fresh_signature).collect();
        assert_eq!(fresh.iter().filter(|&&b| b).count(), 1);
        assert!(fresh[0], "first finding carries the fresh signature");
        // Distinct inputs, same digest.
        let digests: BTreeSet<u64> = result.findings.iter().map(|f| f.signature.digest).collect();
        assert_eq!(digests.len(), 1);
        let inputs: BTreeSet<_> = result.findings.iter().map(|f| f.input.clone()).collect();
        assert_eq!(inputs.len(), result.findings.len());
    }

    #[test]
    fn baseline_patch_drives_subjects_with_a_hole() {
        let p = program(
            "program holed {
               input x in [-10, 10];
               input y in [-10, 10];
               if (__patch_cond__(x, y)) { return 1; }
               bug div_by_zero requires (x * y != 0);
               return 100 / (x * y);
             }",
        );
        let mut fuzzer = ConcolicFuzzer::new(&p, &quick_config());
        // Baseline `false`: the hole never redirects, the original bug is
        // reachable.
        let theta = fuzzer.pool_mut().bool(false);
        fuzzer.set_baseline(theta, Model::new());
        let result = fuzzer.run().unwrap();
        assert!(!result.findings.is_empty());
        assert!(result.findings[0].signature.label.contains("div_by_zero"));
        // Every finding's input really has x*y == 0.
        for f in &result.findings {
            let product: i64 = f.input.iter().map(|(_, v)| *v).product();
            assert_eq!(product, 0, "non-failing input reported: {f:?}");
        }
    }

    #[test]
    fn corpus_store_roundtrips_findings_atomically() {
        let dir = std::env::temp_dir().join(format!("cpr_fuzz_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = program(
            "program stored {
               input x in [-5, 5];
               bug div_by_zero requires (x != 0);
               return 10 / x;
             }",
        );
        let config = ConcolicFuzzConfig {
            max_execs: 100,
            corpus_dir: Some(dir.clone()),
            ..ConcolicFuzzConfig::default()
        };
        let mut fuzzer = ConcolicFuzzer::new(&p, &config);
        let result = fuzzer.run().unwrap();
        assert!(!result.findings.is_empty());
        let store = CorpusStore::open(&dir).unwrap();
        let files = store.list().unwrap();
        assert_eq!(files.len(), result.findings.len());
        let (pairs, sig) = CorpusStore::load(&files[0]).unwrap();
        assert_eq!(pairs, result.findings[0].input);
        assert_eq!(
            sig.as_deref(),
            Some(result.findings[0].signature.hex()).as_deref()
        );
        // No temp files left behind.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| e.path().extension().is_some_and(|x| x == "corpus")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_findings_bounds_the_campaign() {
        let p = program(
            "program capped {
               input x in [-50, 50];
               bug div_by_zero requires (x != 0);
               return 10 / x;
             }",
        );
        let config = ConcolicFuzzConfig {
            max_execs: 500,
            max_findings: 1,
            ..ConcolicFuzzConfig::default()
        };
        let mut fuzzer = ConcolicFuzzer::new(&p, &config);
        let result = fuzzer.run().unwrap();
        assert_eq!(result.findings.len(), 1);
    }

    #[test]
    fn signature_digests_separate_reason_and_location() {
        use cpr_lang::Span;
        let a = CrashSignature::of(&Outcome::SpecViolated {
            bug: "one".into(),
            span: Span::new(10, 20),
        })
        .unwrap();
        let b = CrashSignature::of(&Outcome::SpecViolated {
            bug: "two".into(),
            span: Span::new(10, 20),
        })
        .unwrap();
        let c = CrashSignature::of(&Outcome::SpecViolated {
            bug: "one".into(),
            span: Span::new(10, 21),
        })
        .unwrap();
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(
            a.digest,
            CrashSignature::of(&Outcome::SpecViolated {
                bug: "one".into(),
                span: Span::new(10, 20),
            })
            .unwrap()
            .digest
        );
        assert!(CrashSignature::of(&Outcome::Returned(3)).is_none());
        assert!(CrashSignature::of(&Outcome::StepLimit).is_none());
    }
}
