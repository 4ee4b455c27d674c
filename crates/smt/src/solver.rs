//! Branch-and-prune satisfiability solver over bounded integer domains.
//!
//! The solver answers the quantifier-free `IsSat`/`GetModel` queries issued
//! by the concolic repair loop (Algorithms 1–3 of the CPR paper). It combines
//! HC4-style forward/backward interval contraction over the formula tree
//! (including union-hull contraction through disjunctions, which is what
//! makes the disjunction-of-boxes parameter constraints `T_ρ` cheap) with
//! domain bisection and midpoint value probing.
//!
//! Results are three-valued: [`SatResult::Unknown`] plays the role of a
//! solver timeout in the original Z3-backed tool and is handled
//! conservatively by all callers.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cpr_obs::{Counter, Histogram, MetricsRegistry};

use crate::deps::DepGraph;
use crate::digest::{fleet_domain_digest, TermDigests};
use crate::fleet::{FleetCache, FleetKey, FleetVerdict};
use crate::interval::Interval;
use crate::model::{Model, Value};
use crate::term::{ArithOp, CmpOp, Sort, TermData, TermId, TermPool, VarId};
use crate::trail::FrameSession;
use crate::zone;

/// Initial variable domains for a query.
///
/// Variables not mentioned get the solver's default domain
/// ([`SolverConfig::default_domain`]).
#[derive(Debug, Default, Clone)]
pub struct Domains {
    map: BTreeMap<VarId, Interval>,
}

impl Domains {
    /// Creates an empty domain map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds `var` to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn bound(&mut self, var: VarId, lo: i64, hi: i64) -> &mut Self {
        self.map.insert(var, Interval::of(lo, hi));
        self
    }

    /// Sets the domain of `var` to an interval.
    pub fn set(&mut self, var: VarId, iv: Interval) -> &mut Self {
        self.map.insert(var, iv);
        self
    }

    /// The configured domain of `var`, if any.
    pub fn get(&self, var: VarId) -> Option<Interval> {
        self.map.get(&var).copied()
    }

    /// Iterates over all configured `(variable, interval)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Interval)> + '_ {
        self.map.iter().map(|(&v, &iv)| (v, iv))
    }

    /// Merges another domain map into this one (`other` wins on conflict).
    pub fn extend(&mut self, other: &Domains) {
        for (v, iv) in other.iter() {
            self.map.insert(v, iv);
        }
    }
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Proven unsatisfiable within the explored domains.
    Unsat,
    /// Budget exhausted before a verdict — treated like a solver timeout.
    Unknown,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Extracts the model from a sat result.
    pub fn model(self) -> Option<Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of search nodes per query before returning `Unknown`.
    pub max_nodes: u64,
    /// Maximum contraction fixpoint rounds per node.
    pub max_contraction_rounds: u32,
    /// Domain assumed for variables without an explicit bound.
    pub default_domain: Interval,
    /// Capacity of the memoizing query cache (entries per generation);
    /// `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Enables the incremental machinery: the precomputed term→variable
    /// dependency graph (see [`DepGraph`]) serving the hot-path variable
    /// lookups, and the assertion-frame entry points
    /// ([`Solver::open_frames`] and friends). Verdict-preserving: the
    /// determinism suite proves repair reports are bit-identical with this
    /// on or off.
    pub incremental: bool,
    /// Capacity of the no-good store: minimal contradicting constraint
    /// subsets extracted from root-refuted UNSAT queries, used to refute
    /// future superset queries by a sorted-id subset test before any
    /// propagation. `0` disables learning. Verdict-preserving by the
    /// monotone-refutation guarantee of [`Solver::refute_root`].
    pub nogood_capacity: usize,
    /// Routes prefix-sharing candidate batches ([`Solver::check_batch`]
    /// and the frame sessions reduce/expand thread through their query
    /// loops) through shared assertion frames instead of independent
    /// from-scratch checks. Requires `incremental`; verdict-preserving.
    pub batch_candidates: bool,
    /// Directory of the durable fleet cache (see [`crate::fleet`]):
    /// verdicts and no-goods keyed by content digest, shared across jobs
    /// and restarts. `None` (the default) disables the fleet path
    /// entirely. Verdict-preserving: a stored verdict is an exact replay
    /// of the local search on the same content, so a warm fleet cache may
    /// change counters but never an answer.
    pub cache_dir: Option<PathBuf>,
    /// Maximum entries (verdicts + no-goods) the fleet cache holds; at
    /// capacity new inserts are dropped (the store never evicts).
    pub fleet_capacity: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 50_000,
            max_contraction_rounds: 30,
            default_domain: Interval::of(-(1 << 30), 1 << 30),
            cache_capacity: 4_096,
            incremental: true,
            nogood_capacity: 512,
            batch_candidates: true,
            cache_dir: None,
            fleet_capacity: 65_536,
        }
    }
}

/// Counters accumulated across queries, exposed for the evaluation harness.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverStats {
    /// Total queries answered.
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown`.
    pub unknown: u64,
    /// Total search nodes explored.
    pub nodes: u64,
    /// Queries answered from the memoizing cache.
    pub cache_hits: u64,
    /// Queries that missed the cache and ran the full search.
    pub cache_misses: u64,
    /// Queries answered `Unsat` by UNSAT-prefix subsumption, without a
    /// cache lookup or search (see [`UnsatPrefixStore`]).
    pub prefix_short_circuits: u64,
    /// Assertion frames pushed ([`Solver::push_frame`]).
    pub frames_pushed: u64,
    /// Interval deltas undone by frame pops (total trail entries restored).
    pub trail_restores: u64,
    /// Queries answered `Unsat` by learned-no-good subsumption, without a
    /// cache lookup or search.
    pub nogood_hits: u64,
    /// Queries answered through the assertion-frame path
    /// ([`Solver::check_frames`] / [`Solver::check_batch`]); every such
    /// query also counts in `queries`.
    pub batched_queries: u64,
    /// Queries answered from the durable fleet cache (verdict lookups
    /// that resolved and revalidated; every such query also counts in
    /// `queries` and its per-verdict counter).
    pub fleet_hits: u64,
    /// Queries that consulted the fleet cache and missed.
    pub fleet_misses: u64,
    /// Queries answered `Unsat` by fleet no-good digest-subset
    /// subsumption, without a search.
    pub fleet_nogood_hits: u64,
    /// Verdicts and no-goods this solver recorded into the fleet cache.
    pub fleet_stores: u64,
    /// Whether the fleet store failed to load (degraded to a cold start):
    /// `1` on the solver that opened the errored store, else `0`. The
    /// typed error is available via `FleetCache::load_error`.
    pub fleet_load_errors: u64,
}

/// Canonical form of a query: the live constraints in sorted, deduplicated
/// `TermId` order plus a fingerprint of the variable domains. Because
/// constraints are conjunctive, sorting loses nothing — and the solver
/// *answers* the canonical set (iterated in content-digest order; see
/// [`crate::digest`]), so a result is a pure function of its canonical
/// form. Used both as the memoizing-cache key and as the entry type of
/// [`UnsatPrefixStore`].
pub type CanonicalQuery = (Vec<TermId>, u64);

type QueryKey = CanonicalQuery;

/// Bounded store of canonical queries known to be unsatisfiable, used for
/// *incremental prefix solving*: constraints are conjunctive, so every
/// superset of an UNSAT constraint set is UNSAT — once a path prefix is
/// proven infeasible, all of its extensions (deeper flips, re-targeted
/// patch probes, appended parameter constraints) can be refuted by a
/// subset check instead of a search.
///
/// Entries are deduplicated and evicted FIFO at `capacity`. Callers that
/// fan queries out across threads must treat the store as frozen for the
/// duration of the fan-out and fold newly learned UNSAT queries back in at
/// a deterministic merge point — a store mutated concurrently would make
/// verdicts depend on scheduling ([`Solver::check_prefixed`] only takes
/// `&self` for exactly this reason).
#[derive(Debug, Default, Clone)]
pub struct UnsatPrefixStore {
    /// Insertion-ordered entries (for FIFO eviction).
    entries: VecDeque<CanonicalQuery>,
    /// Exact-membership index (also the fast path of [`Self::subsumes`]).
    index: HashSet<CanonicalQuery>,
    capacity: usize,
}

impl UnsatPrefixStore {
    /// Creates a store holding at most `capacity` UNSAT queries;
    /// `0` disables the store (inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        UnsatPrefixStore {
            entries: VecDeque::new(),
            index: HashSet::new(),
            capacity,
        }
    }

    /// Records a canonical query as UNSAT. Returns `true` if it was new.
    ///
    /// The caller is responsible for only inserting genuinely
    /// unsatisfiable queries; the store itself does not verify them.
    pub fn insert(&mut self, key: CanonicalQuery) -> bool {
        if self.capacity == 0 || self.index.contains(&key) {
            return false;
        }
        while self.entries.len() >= self.capacity {
            if let Some(old) = self.entries.pop_front() {
                self.index.remove(&old);
            }
        }
        self.entries.push_back(key.clone());
        self.index.insert(key)
    }

    /// Whether some stored UNSAT query is a subset of `key` (same domain
    /// fingerprint, constraint set included in `key`'s) — in which case
    /// `key` is UNSAT by conjunction monotonicity.
    pub fn subsumes(&self, key: &CanonicalQuery) -> bool {
        if self.index.contains(key) {
            return true;
        }
        let (constraints, fingerprint) = key;
        self.entries.iter().any(|(set, fp)| {
            fp == fingerprint && set.len() < constraints.len() && is_subset(set, constraints)
        })
    }

    /// Number of stored UNSAT queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the stored queries in insertion (FIFO) order — the
    /// order a snapshot must preserve so that eviction behaves identically
    /// after a resume.
    pub fn iter(&self) -> impl Iterator<Item = &CanonicalQuery> + '_ {
        self.entries.iter()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The shared first stage of every query path: drops constant-`true`
/// constraints and keeps the rest, in caller order. `None` means a
/// constant-`false` constraint makes the conjunction trivially
/// unsatisfiable (each call site answers that case with its own
/// bookkeeping).
pub(crate) fn filter_live(pool: &TermPool, constraints: &[TermId]) -> Option<Vec<TermId>> {
    let mut live: Vec<TermId> = Vec::with_capacity(constraints.len());
    for &c in constraints {
        match pool.data(c) {
            TermData::BoolConst(true) => {}
            TermData::BoolConst(false) => return None,
            _ => live.push(c),
        }
    }
    Some(live)
}

/// The shared fast refutation of every query path: whether two live
/// constraints are literal complements of each other (common in
/// equivalence queries). `TermPool::complementary` is symmetric, so the
/// verdict is a function of the constraint *set* — scanning the sorted
/// canonical order and scanning caller order agree.
pub(crate) fn has_complementary_pair(pool: &TermPool, live: &[TermId]) -> bool {
    live.iter()
        .enumerate()
        .any(|(i, &a)| live[i + 1..].iter().any(|&b| pool.complementary(a, b)))
}

/// The widest non-point variable among `vars` (ties keep the earlier
/// variable in first-occurrence order) — the branch-variable heuristic,
/// shared by both `vars_of` routes of [`Solver::pick_branch_var`].
fn widest_var(vars: impl Iterator<Item = VarId>, vbox: &VarBox) -> Option<VarId> {
    let mut best: Option<(VarId, u64)> = None;
    for v in vars {
        let w = vbox.get(v).width();
        if w > 1 {
            match best {
                Some((_, bw)) if bw <= w => {}
                _ => best = Some((v, w)),
            }
        }
    }
    best.map(|(v, _)| v)
}

/// A witness model re-keyed by variable name (sorted), the
/// pool-independent form persisted in fleet `Sat` verdicts.
fn named_model(pool: &TermPool, m: &Model) -> Vec<(String, Value)> {
    let mut named: Vec<(String, Value)> = m
        .iter()
        .map(|(v, value)| (pool.var_name(v).to_string(), value))
        .collect();
    named.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    named
}

/// Subset test over sorted, deduplicated id slices (merge walk).
fn is_subset(sub: &[TermId], sup: &[TermId]) -> bool {
    let mut it = sup.iter();
    'outer: for s in sub {
        for t in it.by_ref() {
            match t.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Bounded memoization table for solver verdicts, evicted in two
/// generations: inserts land in `current`, and when it fills up the
/// previous generation is dropped wholesale. Recently-used entries are
/// promoted back into `current`, which approximates LRU without
/// per-entry bookkeeping.
#[derive(Debug, Default, Clone)]
struct QueryCache {
    current: HashMap<QueryKey, SatResult>,
    previous: HashMap<QueryKey, SatResult>,
}

impl QueryCache {
    fn get(&mut self, key: &QueryKey) -> Option<SatResult> {
        if let Some(r) = self.current.get(key) {
            return Some(r.clone());
        }
        if let Some(r) = self.previous.remove(key) {
            self.current.insert(key.clone(), r.clone());
            return Some(r);
        }
        None
    }

    fn insert(&mut self, key: QueryKey, result: SatResult, capacity: usize) {
        if self.current.len() >= capacity {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(key, result);
    }

    fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }
}

/// A keyed memo of solver verdicts. The solver's reuse stores — the
/// in-process [`SharedQueryCache`] and the durable fleet cache
/// ([`crate::fleet::FleetCache`]) — implement this pair of operations
/// over their respective key types (`TermId`-based in process,
/// content-digest-based on disk).
///
/// The contract every implementation must honor: a recorded verdict is a
/// **pure function of its key** — looking it up must return exactly what
/// recomputing it would, whichever solver (or process) recorded it.
pub trait VerdictStore {
    /// The canonical query key this store is addressed by.
    type Key;
    /// The verdict representation this store holds.
    type Verdict;

    /// The stored verdict for `key`, if any.
    fn lookup(&self, key: &Self::Key) -> Option<Self::Verdict>;

    /// Records a verdict for `key`.
    fn record(&mut self, key: Self::Key, verdict: Self::Verdict);
}

/// A store of known-unsatisfiable constraint subsets, queried by
/// subsumption: if a stored set is a subset of `key`'s constraint set
/// (under the same domain environment), `key` is UNSAT by conjunction
/// monotonicity. Implemented by the in-process [`UnsatPrefixStore`] (and
/// the solver's learned no-goods, which reuse it) over sorted `TermId`
/// sets, and by the fleet cache over sorted content-digest sets.
pub trait NoGoodStore {
    /// The canonical query key this store subsumes against.
    type Key;

    /// Whether some stored set refutes `key` by subset inclusion.
    fn subsumed(&self, key: &Self::Key) -> bool;

    /// Records a new known-UNSAT set. Returns `true` if it was new.
    fn learn(&mut self, key: Self::Key) -> bool;
}

impl NoGoodStore for UnsatPrefixStore {
    type Key = CanonicalQuery;

    fn subsumed(&self, key: &CanonicalQuery) -> bool {
        self.subsumes(key)
    }

    fn learn(&mut self, key: CanonicalQuery) -> bool {
        self.insert(key)
    }
}

/// The in-process verdict memo: the two-generation [`QueryCache`] behind
/// an `Arc<Mutex>`, shared between a solver and its forks so workers of a
/// parallel phase serve each other's repeated queries through one table.
/// Sharing is safe because verdicts are pure functions of the canonical
/// key — whichever thread computed one.
#[derive(Debug, Clone)]
pub struct SharedQueryCache {
    inner: Arc<Mutex<QueryCache>>,
    capacity: usize,
}

impl SharedQueryCache {
    /// Creates an empty cache bounded at `capacity` entries per
    /// generation; `0` disables it (the solver skips lookups entirely).
    pub fn new(capacity: usize) -> Self {
        SharedQueryCache {
            inner: Arc::new(Mutex::new(QueryCache::default())),
            capacity,
        }
    }

    /// The configured per-generation capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently memoized (both generations).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("query cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl VerdictStore for SharedQueryCache {
    type Key = CanonicalQuery;
    type Verdict = SatResult;

    fn lookup(&self, key: &CanonicalQuery) -> Option<SatResult> {
        self.inner.lock().expect("query cache poisoned").get(key)
    }

    fn record(&mut self, key: CanonicalQuery, verdict: SatResult) {
        self.inner
            .lock()
            .expect("query cache poisoned")
            .insert(key, verdict, self.capacity);
    }
}

impl VerdictStore for Arc<FleetCache> {
    type Key = FleetKey;
    type Verdict = FleetVerdict;

    fn lookup(&self, key: &FleetKey) -> Option<FleetVerdict> {
        self.lookup_verdict(key)
    }

    fn record(&mut self, key: FleetKey, verdict: FleetVerdict) {
        self.record_verdict(key, verdict);
    }
}

impl NoGoodStore for Arc<FleetCache> {
    type Key = FleetKey;

    fn subsumed(&self, key: &FleetKey) -> bool {
        self.nogood_subsumed(key)
    }

    fn learn(&mut self, key: FleetKey) -> bool {
        self.record_nogood(key)
    }
}

/// Observability handles mirroring [`SolverStats`], resolved once at
/// [`Solver::attach_metrics`] so the hot path is pure atomic adds. The
/// handles are `Arc` clones shared by every [`Solver::fork`]: relaxed
/// counter adds commute, so the order-independent totals (`queries`, the
/// per-verdict counts) are thread-count-invariant with no absorb step.
/// The cache hit/miss *split* is scheduling-dependent (whichever fork
/// solves a shared query first fills the cache) — exactly as it already
/// is in `SolverStats` — and only the totals are part of the determinism
/// contract.
#[derive(Debug, Clone)]
struct SolverObs {
    queries: Counter,
    sat: Counter,
    unsat: Counter,
    unknown: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    prefix_short_circuits: Counter,
    frames_pushed: Counter,
    frames_popped: Counter,
    trail_restores: Counter,
    nogood_hits: Counter,
    nogood_learned: Counter,
    batched_queries: Counter,
    fleet_hits: Counter,
    fleet_misses: Counter,
    fleet_nogood_hits: Counter,
    fleet_stores: Counter,
    fleet_load_errors: Counter,
    solve_nanos: Histogram,
    frame_contract_nanos: Histogram,
}

impl SolverObs {
    fn new(reg: &MetricsRegistry) -> SolverObs {
        SolverObs {
            queries: reg.counter("solver.queries"),
            sat: reg.counter("solver.sat"),
            unsat: reg.counter("solver.unsat"),
            unknown: reg.counter("solver.unknown"),
            cache_hits: reg.counter("solver.cache_hits"),
            cache_misses: reg.counter("solver.cache_misses"),
            prefix_short_circuits: reg.counter("solver.prefix_short_circuits"),
            frames_pushed: reg.counter("solver.frames.pushed"),
            frames_popped: reg.counter("solver.frames.popped"),
            trail_restores: reg.counter("solver.frames.trail_restores"),
            nogood_hits: reg.counter("solver.nogood.hits"),
            nogood_learned: reg.counter("solver.nogood.learned"),
            batched_queries: reg.counter("solver.batch.queries"),
            fleet_hits: reg.counter("solver.fleet.hits"),
            fleet_misses: reg.counter("solver.fleet.misses"),
            fleet_nogood_hits: reg.counter("solver.fleet.nogood_hits"),
            fleet_stores: reg.counter("solver.fleet.stores"),
            fleet_load_errors: reg.counter("solver.fleet.load_errors"),
            solve_nanos: reg.histogram("solver.solve_nanos"),
            frame_contract_nanos: reg.histogram("solver.frames.contract_nanos"),
        }
    }
}

impl Default for SolverObs {
    /// No-op handles: an un-attached solver records nothing.
    fn default() -> SolverObs {
        SolverObs::new(&MetricsRegistry::disabled())
    }
}

/// Fingerprint (FNV-1a) of the domain environment a query runs under, so
/// identical constraint sets solved under different domains never share a
/// cache entry.
pub(crate) fn domains_fingerprint(domains: &Domains, default: Interval) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(default.lo() as u64);
    mix(default.hi() as u64);
    for (var, iv) in domains.iter() {
        mix(u64::from(var.0) + 1);
        mix(iv.lo() as u64);
        mix(iv.hi() as u64);
    }
    h
}

/// The branch-and-prune solver. Stateless between queries apart from
/// [`SolverStats`] and the memoizing query cache; cheap to construct.
///
/// The cache is shared between a solver and its [`Solver::fork`]s: workers
/// of a parallel phase serve each other's repeated queries through one
/// table instead of each paying the search again. Sharing is safe because
/// [`Solver::check`] answers the canonical (sorted, deduplicated) form of
/// every query, making each verdict a pure function of its cache key —
/// whichever thread computed it.
#[derive(Debug, Clone)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    cache: SharedQueryCache,
    /// Queries mentioning a term id at or above this floor bypass the
    /// cache. Forked workers intern terms into their own pool forks; such
    /// ids name different terms in different forks, so only queries over
    /// the shared prefix (ids below the fork point) may touch the shared
    /// table. `usize::MAX` (the root solver) caches everything. The fleet
    /// cache is *not* floor-gated: its keys are content digests, which
    /// mean the same thing in every fork and every process.
    cache_floor: usize,
    /// Term → variable dependency lists, synced lazily against the pool
    /// when [`SolverConfig::incremental`] is on (see [`DepGraph`]).
    pub(crate) deps: DepGraph,
    /// Per-term content digests, synced lazily like `deps` (but
    /// unconditionally — content ordering is not gated on `incremental`).
    digests: TermDigests,
    /// Learned no-goods: minimal contradicting subsets of root-refuted
    /// UNSAT queries, private to this solver instance. Unlike the shared
    /// query cache this is plain owned state — [`Solver::fork`] copies the
    /// transferable entries and [`Solver::absorb`] merges learned ones
    /// back, keeping verdicts scheduling-independent (a no-good hit and a
    /// full search agree by the monotone-refutation guarantee).
    nogoods: UnsatPrefixStore,
    /// The durable fleet cache, when [`SolverConfig::cache_dir`] is set —
    /// one shared instance per directory per process, `Arc`-cloned into
    /// every fork. Safe to consult mid-phase: stored verdicts are pure
    /// functions of content keys.
    fleet: Option<Arc<FleetCache>>,
    obs: SolverObs,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new(SolverConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the given configuration. Observability is
    /// off until [`Solver::attach_metrics`] is called.
    pub fn new(config: SolverConfig) -> Self {
        let nogoods = UnsatPrefixStore::new(config.nogood_capacity);
        let fleet = config
            .cache_dir
            .as_ref()
            .map(|dir| FleetCache::open_shared(dir, config.fleet_capacity));
        let mut stats = SolverStats::default();
        if fleet.as_ref().is_some_and(|f| f.load_error().is_some()) {
            stats.fleet_load_errors = 1;
        }
        let cache = SharedQueryCache::new(config.cache_capacity);
        Solver {
            config,
            stats,
            cache,
            cache_floor: usize::MAX,
            deps: DepGraph::new(),
            digests: TermDigests::default(),
            nogoods,
            fleet,
            obs: SolverObs::default(),
        }
    }

    /// Resolves observability handles on `registry`; every subsequent
    /// query (in this solver and its future [`Solver::fork`]s) mirrors its
    /// statistics there. Attaching a [`MetricsRegistry::disabled`]
    /// registry turns recording back off. Metrics never feed back into
    /// verdicts — the determinism suite proves repair reports are
    /// bit-identical with instrumentation on or off.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs = SolverObs::new(registry);
        // The one stat whose event predates attachment: a fleet-store
        // load error is detected in `Solver::new`, so mirror it here.
        self.obs.fleet_load_errors.add(self.stats.fleet_load_errors);
    }

    /// Creates a worker solver for a parallel phase: same configuration,
    /// zeroed statistics (so [`Solver::absorb`] can sum worker counters
    /// without double-counting), and the *shared* query cache, gated at
    /// `base_terms`: the worker may consult and fill the cache only with
    /// queries whose term ids all lie below the fork point, because ids it
    /// interns into its own pool fork mean nothing in other forks.
    pub fn fork(&self, base_terms: usize) -> Solver {
        let floor = base_terms.min(self.cache_floor);
        // No-goods over shared-prefix terms transfer to the worker (the
        // ids name the same terms in its pool fork); anything above the
        // floor stays behind.
        let mut nogoods = UnsatPrefixStore::new(self.config.nogood_capacity);
        for key in self.nogoods.iter() {
            if key.0.last().is_none_or(|id| (id.0 as usize) < floor) {
                nogoods.insert(key.clone());
            }
        }
        Solver {
            config: self.config.clone(),
            stats: SolverStats::default(),
            cache: self.cache.clone(),
            cache_floor: floor,
            deps: self.deps.clone(),
            digests: self.digests.clone(),
            nogoods,
            // The fleet handle is shared outright: content keys are valid
            // in every fork, and stored verdicts are pure functions of
            // those keys, so mid-phase visibility cannot skew a verdict.
            fleet: self.fleet.clone(),
            // Shared cells: worker increments land directly in the same
            // totals, so absorb() has nothing to merge for metrics either.
            obs: self.obs.clone(),
        }
    }

    /// Folds a forked worker back in by summing its statistics and merging
    /// the no-goods it learned over shared-prefix terms (its cache floor
    /// guarantees those ids are meaningful here). Callers absorb workers
    /// in a deterministic order, so the merged store content is
    /// deterministic too. (The query cache is shared with the worker, so
    /// there is nothing to merge.)
    pub fn absorb(&mut self, worker: Solver) {
        let s = worker.stats;
        self.stats.queries += s.queries;
        self.stats.sat += s.sat;
        self.stats.unsat += s.unsat;
        self.stats.unknown += s.unknown;
        self.stats.nodes += s.nodes;
        self.stats.cache_hits += s.cache_hits;
        self.stats.cache_misses += s.cache_misses;
        self.stats.prefix_short_circuits += s.prefix_short_circuits;
        self.stats.frames_pushed += s.frames_pushed;
        self.stats.trail_restores += s.trail_restores;
        self.stats.nogood_hits += s.nogood_hits;
        self.stats.batched_queries += s.batched_queries;
        self.stats.fleet_hits += s.fleet_hits;
        self.stats.fleet_misses += s.fleet_misses;
        self.stats.fleet_nogood_hits += s.fleet_nogood_hits;
        self.stats.fleet_stores += s.fleet_stores;
        // `fleet_load_errors` is deliberately excluded: it is set once by
        // the solver that opened the store; workers fork with zeroed
        // stats, so summing would be a no-op anyway — but keeping it out
        // of the merge documents that it is not an accumulating counter.
        let floor = worker.cache_floor;
        for key in worker.nogoods.iter() {
            if key.0.last().is_none_or(|id| (id.0 as usize) < floor) {
                self.nogoods.insert(key.clone());
            }
        }
    }

    /// Number of entries currently memoized.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// The durable fleet cache handle, when one is configured.
    pub fn fleet(&self) -> Option<&Arc<FleetCache>> {
        self.fleet.as_ref()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
    }

    /// Overwrites the accumulated statistics — used when resuming a
    /// snapshotted repair run, whose report must carry the counters of the
    /// whole run, not just the post-resume tail. The query cache is *not*
    /// part of a snapshot (it is a warm-start optimization only): verdicts
    /// are pure functions of canonical queries and `queries` counts every
    /// check including cache hits, so a cold cache after restore changes
    /// no report field.
    pub fn restore_stats(&mut self, stats: SolverStats) {
        self.stats = stats;
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Checks satisfiability of the conjunction of `constraints` under the
    /// given initial `domains`, returning a model on success.
    pub fn check(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
    ) -> SatResult {
        self.check_with_store(pool, constraints, domains, None)
    }

    /// [`Solver::check`] with incremental prefix solving: before consulting
    /// the cache or searching, the canonical query is tested for subsumption
    /// by `store` — if a recorded UNSAT constraint set is a subset of this
    /// query, the query is UNSAT without any search.
    ///
    /// The store is read-only here so that a batch of queries fanned out
    /// across forked solvers sees one frozen store and verdicts stay
    /// independent of scheduling; learn new UNSAT queries into the store at
    /// a deterministic merge point via [`Solver::canonical_query`] +
    /// [`UnsatPrefixStore::insert`].
    pub fn check_prefixed(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
        store: &UnsatPrefixStore,
    ) -> SatResult {
        self.check_with_store(pool, constraints, domains, Some(store))
    }

    /// Opens an assertion-frame session over `domains`: an incremental
    /// alternative to per-call [`Solver::check`] for runs of queries that
    /// share constraint prefixes. Push constraints with
    /// [`Solver::push_frame`], undo them in LIFO order with
    /// [`Solver::pop_frame`], and decide the current conjunction with
    /// [`Solver::check_frames`] — which returns exactly what `check` on
    /// the pushed constraints would, verdicts and models alike.
    ///
    /// The domain environment is captured here and fixed for the session's
    /// lifetime.
    pub fn open_frames(&mut self, pool: &TermPool, domains: &Domains) -> FrameSession {
        if self.config.incremental {
            self.deps.sync(pool);
        }
        FrameSession::open(
            domains.clone(),
            self.config.default_domain,
            domains_fingerprint(domains, self.config.default_domain),
        )
    }

    /// Pushes `constraint` onto the session as a new assertion frame and
    /// re-contracts the session's warm state along the constraint's
    /// dependency cone, logging every narrowed interval on the undo trail.
    pub fn push_frame(&mut self, pool: &TermPool, frames: &mut FrameSession, constraint: TermId) {
        self.stats.frames_pushed += 1;
        self.obs.frames_pushed.inc();
        if self.config.incremental {
            self.deps.sync(pool);
        }
        let t0 = self.obs.frame_contract_nanos.start();
        let owned: Vec<VarId>;
        let vars: &[VarId] = if self.config.incremental && self.deps.covers(constraint) {
            self.deps.vars_of(constraint)
        } else {
            owned = pool.vars_of(constraint);
            &owned
        };
        frames.push(pool, constraint, vars, self.config.max_contraction_rounds);
        self.obs.frame_contract_nanos.stop(t0);
    }

    /// Pops the most recently pushed frame, restoring the session's warm
    /// state from the trail in O(entries this frame logged).
    ///
    /// # Panics
    ///
    /// Panics if the session has no pushed frame.
    pub fn pop_frame(&mut self, frames: &mut FrameSession) {
        let restored = frames.pop() as u64;
        self.stats.trail_restores += restored;
        self.obs.trail_restores.add(restored);
        self.obs.frames_popped.inc();
    }

    /// Decides the conjunction of the session's currently pushed
    /// constraints — with verdicts, models, and query accounting identical
    /// to [`Solver::check`] (or [`Solver::check_prefixed`], when `store`
    /// is given) on those constraints.
    ///
    /// The session's warm state never becomes the answer directly: the
    /// canonical query is derived from the frame stack and routed through
    /// the same pipeline as `check` (fast refutations, prefix/no-good
    /// subsumption, cache, search). A contraction failure observed during
    /// a push is only turned into `Unsat` after [`Solver::refute_root`]
    /// re-proves it, so the shortcut cannot diverge from `check` either.
    pub fn check_frames(
        &mut self,
        pool: &TermPool,
        frames: &mut FrameSession,
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        let t0 = self.obs.solve_nanos.start();
        let result = self.check_frames_inner(pool, frames, store);
        self.obs.solve_nanos.stop(t0);
        self.obs.queries.inc();
        self.obs.batched_queries.inc();
        match &result {
            SatResult::Sat(_) => self.obs.sat.inc(),
            SatResult::Unsat => self.obs.unsat.inc(),
            SatResult::Unknown => self.obs.unknown.inc(),
        }
        result
    }

    fn check_frames_inner(
        &mut self,
        pool: &TermPool,
        frames: &FrameSession,
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        self.stats.queries += 1;
        self.stats.batched_queries += 1;
        // Keep the digest table warm so the `&self` refutation path
        // below reads it instead of recomputing digests locally.
        self.digests.sync(pool);
        // The same trivial refutations `check` fires before
        // canonicalization. The complementary-pair scan runs over the
        // sorted canonical set instead of push order; `complementary` is
        // symmetric, so the outcome is the same.
        if frames.has_trivially_false() {
            self.stats.unsat += 1;
            return SatResult::Unsat;
        }
        if has_complementary_pair(pool, frames.canonical()) {
            self.stats.unsat += 1;
            return SatResult::Unsat;
        }
        let key: QueryKey = (frames.canonical().to_vec(), frames.fingerprint());
        // Warm-state shortcut: push-time contraction emptied a domain, so
        // the conjunction is almost certainly UNSAT — but the warm trace
        // interleaves frames differently than `check`'s canonical root
        // pass, so re-prove it with the exact root pass before answering.
        // (`refute_root == true` implies `check` would answer `Unsat`.)
        if frames.failed() && self.refute_root(pool, &key.0, frames.domains()) {
            self.stats.unsat += 1;
            return SatResult::Unsat;
        }
        self.answer(pool, key, frames.domains(), store)
    }

    /// Pushes `extras`, decides the resulting conjunction via
    /// [`Solver::check_frames`], then pops them again — the per-candidate
    /// step of batched checking.
    pub fn check_frames_with(
        &mut self,
        pool: &TermPool,
        frames: &mut FrameSession,
        extras: &[TermId],
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        for &c in extras {
            self.push_frame(pool, frames, c);
        }
        let result = self.check_frames(pool, frames, store);
        for _ in extras {
            self.pop_frame(frames);
        }
        result
    }

    /// Checks a batch of candidate queries sharing a constraint `prefix`:
    /// the prefix is pushed (and contracted) once, then each candidate's
    /// extra constraints are pushed, decided, and popped in O(delta).
    /// Returns one verdict per candidate, each identical to
    /// `check(prefix ++ candidate)` — when `incremental` or
    /// `batch_candidates` is off, that is literally what runs.
    pub fn check_batch(
        &mut self,
        pool: &TermPool,
        prefix: &[TermId],
        candidates: &[Vec<TermId>],
        domains: &Domains,
        store: Option<&UnsatPrefixStore>,
    ) -> Vec<SatResult> {
        if !(self.config.incremental && self.config.batch_candidates) {
            return candidates
                .iter()
                .map(|cand| {
                    let mut q: Vec<TermId> = Vec::with_capacity(prefix.len() + cand.len());
                    q.extend_from_slice(prefix);
                    q.extend_from_slice(cand);
                    self.check_with_store(pool, &q, domains, store)
                })
                .collect();
        }
        let mut frames = self.open_frames(pool, domains);
        for &c in prefix {
            self.push_frame(pool, &mut frames, c);
        }
        candidates
            .iter()
            .map(|cand| self.check_frames_with(pool, &mut frames, cand, store))
            .collect()
    }

    /// The canonical form of a query, exactly as [`Solver::check`] caches
    /// and answers it. `None` when a constant-`false` constraint makes the
    /// conjunction trivially unsatisfiable (such queries are answered
    /// before canonicalization and are not worth storing).
    pub fn canonical_query(
        &self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
    ) -> Option<CanonicalQuery> {
        let mut live = filter_live(pool, constraints)?;
        live.sort_unstable();
        live.dedup();
        Some((
            live,
            domains_fingerprint(domains, self.config.default_domain),
        ))
    }

    /// Sound *static* refutation of a conjunction: runs exactly the
    /// pre-search fast paths of [`Solver::check`] (constant `false`,
    /// complementary literal pair) plus the root search node's contraction
    /// fixpoint and forward enclosure — and nothing else. No branching, no
    /// statistics, no cache, no store, no interning.
    ///
    /// **Guarantee:** `refute_root(..) == true` implies that
    /// [`Solver::check`] on the same `(constraints, domains)` returns
    /// [`SatResult::Unsat`]. This holds by construction: `check`'s search
    /// performs this very pass at its root before any branching, and both
    /// passes iterate the identical canonical (sorted, deduplicated)
    /// constraint order, so the bounded contraction trace is the same.
    /// `false` carries no information.
    ///
    /// The frame path uses it to confirm a failed push, and no-good
    /// learning to re-verify a minimized conflict before storing it.
    pub fn refute_root(&self, pool: &TermPool, constraints: &[TermId], domains: &Domains) -> bool {
        let Some(mut live) = filter_live(pool, constraints) else {
            return true;
        };
        if has_complementary_pair(pool, &live) {
            return true;
        }
        // With a zero node budget, `check` answers `Unknown` before ever
        // reaching the root contraction pass; mirror that so the guarantee
        // stays exact.
        if self.config.max_nodes == 0 {
            return false;
        }
        live.sort_unstable();
        live.dedup();
        // Lockstep with `check`'s root node: the search iterates the
        // content-canonical order (see `answer`), so the bounded
        // contraction trace here must too — the guarantee above is exact
        // only if both passes apply constraints identically.
        let live = self.digests.sort_by_content(pool, &live);
        let vars = self.query_vars(pool, &live);
        let mut vbox = VarBox::new(pool, &vars, domains, self.config.default_domain);
        for _ in 0..self.config.max_contraction_rounds {
            vbox.clear_changed();
            for &c in &live {
                if contract_bool(pool, c, true, &mut vbox).is_err() {
                    return true;
                }
            }
            if !vbox.take_changed() {
                break;
            }
        }
        if live
            .iter()
            .any(|&c| enclose_bool(pool, c, &vbox) == Bool3::False)
        {
            return true;
        }
        // The relational tail of the root node, in lockstep with
        // `search`: a negative difference-constraint cycle over the
        // contracted box. (When the search would have answered `Sat`
        // here — all enclosures true — the pass finds no cycle by
        // soundness, so skipping the `all_true` short-circuit cannot
        // break the guarantee.)
        zone::zone_refute(pool, &live, &vbox).is_some()
    }

    fn check_with_store(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        // Observability wrapper: time the whole check (fast paths
        // included) and mirror the per-verdict counters. A detached (or
        // disabled-registry) solver skips even the clock reads.
        let t0 = self.obs.solve_nanos.start();
        let result = self.check_with_store_inner(pool, constraints, domains, store);
        self.obs.solve_nanos.stop(t0);
        self.obs.queries.inc();
        match &result {
            SatResult::Sat(_) => self.obs.sat.inc(),
            SatResult::Unsat => self.obs.unsat.inc(),
            SatResult::Unknown => self.obs.unknown.inc(),
        }
        result
    }

    fn check_with_store_inner(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        self.stats.queries += 1;
        // Fast path: constant constraints.
        let Some(mut live) = filter_live(pool, constraints) else {
            self.stats.unsat += 1;
            return SatResult::Unsat;
        };
        // Fast refutation: two top-level constraints that are literal
        // complements of each other (common in equivalence queries).
        if has_complementary_pair(pool, &live) {
            self.stats.unsat += 1;
            return SatResult::Unsat;
        }
        // Canonicalize: constraints are conjunctive, so sorted deduplicated
        // order is equivalent. The solver *answers* the canonical query
        // (not merely keys on it), which makes each verdict a pure function
        // of (canonical constraints, domains, config) — the property that
        // lets cached results be reused across forked solvers without
        // changing any answer.
        live.sort_unstable();
        live.dedup();
        let key: QueryKey = (
            live,
            domains_fingerprint(domains, self.config.default_domain),
        );
        self.answer(pool, key, domains, store)
    }

    /// The shared tail of every query path, taking over once a query is in
    /// canonical form (and its trivial refutations are ruled out): prefix
    /// subsumption, the memoizing cache, no-good subsumption, and finally
    /// the branch-and-prune search, with no-good learning on root-refuted
    /// UNSAT outcomes. Both [`Solver::check`] and the assertion-frame path
    /// ([`Solver::check_frames`]) end here, which is what makes the two
    /// entry points verdict-identical by construction.
    fn answer(
        &mut self,
        pool: &TermPool,
        key: QueryKey,
        domains: &Domains,
        store: Option<&UnsatPrefixStore>,
    ) -> SatResult {
        // UNSAT-prefix subsumption, ahead of the cache: a stored UNSAT
        // subset refutes this query outright. Checking before any cache
        // interaction keeps the verdict a pure function of (canonical
        // query, frozen store) — a cached `Unknown` must not shadow a
        // store-derived `Unsat`, and a store-derived `Unsat` must never be
        // inserted into the cache (call sites without the store expect
        // cache entries to be pure functions of the key alone).
        if let Some(store) = store {
            if store.subsumes(&key) {
                self.stats.prefix_short_circuits += 1;
                self.obs.prefix_short_circuits.inc();
                self.stats.unsat += 1;
                return SatResult::Unsat;
            }
        }
        let caching = self.cache.capacity() > 0
            && key
                .0
                .last()
                .is_none_or(|id| (id.0 as usize) < self.cache_floor);
        if caching {
            if let Some(result) = self.cache.lookup(&key) {
                self.stats.cache_hits += 1;
                self.obs.cache_hits.inc();
                match &result {
                    SatResult::Sat(_) => self.stats.sat += 1,
                    SatResult::Unsat => self.stats.unsat += 1,
                    SatResult::Unknown => self.stats.unknown += 1,
                }
                return result;
            }
            self.stats.cache_misses += 1;
            self.obs.cache_misses.inc();
        }
        // Learned no-goods, on a cache miss: a no-good is a verified
        // root-refutable subset, so subsumption implies the search below
        // would answer `Unsat` anyway (monotone refutation) — answering
        // early is invisible to every caller, and consistent with any
        // cache entry for the key (cached verdicts are pure functions of
        // the key, and that pure verdict is `Unsat` whenever a no-good
        // subsumes). Checking after the O(1) cache probe keeps the linear
        // subset scan off the repeated-query path; the no-good answer is
        // itself not cached, same purity reason as prefix short-circuits.
        if self.nogoods.capacity() > 0 && NoGoodStore::subsumed(&self.nogoods, &key) {
            self.stats.nogood_hits += 1;
            self.obs.nogood_hits.inc();
            self.stats.unsat += 1;
            return SatResult::Unsat;
        }
        if self.config.incremental {
            self.deps.sync(pool);
        }
        // Content-canonical answer order: the solver *answers* every
        // query with constraints iterated in content-digest order (ties
        // by id), unconditionally — fleet on or off. With the bounded
        // node budget, iteration order is observable in `Unknown`
        // cutoffs and in `Sat` witness models, so answering in an
        // id-independent order is what makes each verdict a pure
        // function of constraint *content* — the contract that lets a
        // fleet-cached verdict from another process stand in for a local
        // search bit-for-bit.
        self.digests.sync(pool);
        let live = self.digests.sort_by_content(pool, &key.0);
        // The fleet key: sorted content digests + the domain/knob digest.
        let fleet_key: Option<FleetKey> = self.fleet.as_ref().map(|_| {
            let mut digests = self.digests.of_terms(pool, &live);
            digests.sort_unstable();
            (digests, fleet_domain_digest(pool, domains, &self.config))
        });
        if let (Some(fleet), Some(fkey)) = (self.fleet.clone(), fleet_key.as_ref()) {
            if let Some(verdict) = fleet.lookup_verdict(fkey) {
                if let Some(result) = self.resolve_fleet_verdict(pool, &live, verdict) {
                    fleet.tally_hit();
                    self.stats.fleet_hits += 1;
                    self.obs.fleet_hits.inc();
                    match &result {
                        SatResult::Sat(_) => self.stats.sat += 1,
                        SatResult::Unsat => self.stats.unsat += 1,
                        SatResult::Unknown => self.stats.unknown += 1,
                    }
                    // Promote into the in-process cache: sound because
                    // the stored verdict is the same pure function of
                    // the canonical key the local search computes.
                    if caching {
                        self.cache.record(key, result.clone());
                    }
                    return result;
                }
            }
            fleet.tally_miss();
            self.stats.fleet_misses += 1;
            self.obs.fleet_misses.inc();
            // Fleet no-goods, by digest-subset subsumption: sound by the
            // same monotone-refutation argument as in-process no-goods,
            // and not promoted into the in-process cache (same purity
            // discipline as prefix short-circuits).
            if fleet.nogood_subsumed(fkey) {
                self.stats.fleet_nogood_hits += 1;
                self.obs.fleet_nogood_hits.inc();
                self.stats.unsat += 1;
                return SatResult::Unsat;
            }
        }
        let vars = self.query_vars(pool, &live);
        let mut vbox = VarBox::new(pool, &vars, domains, self.config.default_domain);
        let mut budget = self.config.max_nodes;
        let result = self.search(pool, &live, &mut vbox, &mut budget, true);
        match &result {
            SatResult::Sat(_) => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
        // A query refuted at the root (exactly one node spent) yields a
        // no-good: the minimal subset of its constraints that the root
        // contraction pass already contradicts.
        if result.is_unsat() && self.config.max_nodes - budget == 1 && self.nogoods.capacity() > 0 {
            self.learn_nogood(pool, &key, &live, domains, fleet_key.as_ref().map(|k| k.1));
        }
        if caching {
            self.cache.record(key, result.clone());
        }
        // Persist the fresh verdict — `Unknown` included: the node budget
        // is folded into the key's domain digest and the answer order is
        // content-canonical, so a budget cutoff is just as much a pure
        // function of the key as a decision is, and the capped searches
        // are the most expensive ones to redo in every job.
        if let (Some(fleet), Some(fkey)) = (&self.fleet, fleet_key) {
            let stored = match &result {
                SatResult::Sat(m) => FleetVerdict::Sat(named_model(pool, m)),
                SatResult::Unsat => FleetVerdict::Unsat,
                SatResult::Unknown => FleetVerdict::Unknown,
            };
            fleet.record_verdict(fkey, stored);
            self.stats.fleet_stores += 1;
            self.obs.fleet_stores.inc();
        }
        result
    }

    /// Turns a fleet verdict back into a [`SatResult`] against this
    /// pool, or `None` (treat as a miss) when it cannot be validated.
    /// `Unsat` and `Unknown` need no validation (`Unknown` is sound by
    /// vacuity, `Unsat` carries the store's authority like the in-process
    /// no-good store does). A `Sat` model is re-resolved by variable name
    /// and **re-checked against the live constraints**: a fleet hit never
    /// asserts satisfiability on the store's authority, only on the
    /// model's own evidence — so a corrupt or colliding entry can cost a
    /// lookup, never a wrong verdict.
    fn resolve_fleet_verdict(
        &self,
        pool: &TermPool,
        live: &[TermId],
        verdict: FleetVerdict,
    ) -> Option<SatResult> {
        match verdict {
            FleetVerdict::Unsat => Some(SatResult::Unsat),
            FleetVerdict::Unknown => Some(SatResult::Unknown),
            FleetVerdict::Sat(named) => {
                let mut model = Model::new();
                for (name, value) in &named {
                    model.set(pool.find_var(name)?, *value);
                }
                let vars = self.query_vars(pool, live);
                if !vars.iter().all(|&v| model.get(v).is_some()) {
                    return None;
                }
                if !model.satisfies(pool, live) {
                    return None;
                }
                Some(SatResult::Sat(model))
            }
        }
    }

    /// Collects the variables of a canonical query in first-occurrence
    /// order, through the dependency graph when it covers every constraint
    /// (always true on the incremental hot path, where [`DepGraph::sync`]
    /// runs first) and through `TermPool::vars_of` otherwise. The two
    /// routes produce the identical list — `DepGraph` replicates the
    /// `vars_of` order exactly, which its property test pins.
    fn query_vars(&self, pool: &TermPool, live: &[TermId]) -> Vec<VarId> {
        let mut vars: Vec<VarId> = Vec::new();
        if self.config.incremental && live.iter().all(|&c| self.deps.covers(c)) {
            for &c in live {
                for &v in self.deps.vars_of(c) {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
        } else {
            for &c in live {
                for v in pool.vars_of(c) {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
        }
        vars
    }

    /// Extracts and records the minimal contradicting subset of a
    /// root-refuted canonical query. Replays the root contraction pass
    /// recording which variable slots each constraint application
    /// narrowed, seeds a conflict set with the failing constraint (the one
    /// whose application emptied a domain, or the first with a `False`
    /// enclosure at the fixpoint), then closes it: any constraint that
    /// narrowed a variable of the conflict set joins it. Constraints
    /// outside the closure never touched a conflict variable, so the
    /// restricted run reproduces the identical refutation — and the result
    /// is re-verified with [`Solver::refute_root`] before it is stored, so
    /// a no-good in the store is *proof-carrying*: subsumption answers are
    /// backed by an actual root refutation, never by the minimization
    /// argument alone.
    fn learn_nogood(
        &mut self,
        pool: &TermPool,
        key: &QueryKey,
        live: &[TermId],
        domains: &Domains,
        fleet_domain: Option<u64>,
    ) {
        let Some(minimal) = self.minimize_conflict(pool, live, domains) else {
            return;
        };
        if !self.refute_root(pool, &minimal, domains) {
            return;
        }
        // Proof-carrying either way: the digest set recorded to the
        // fleet names the same verified root-refutable subset, keyed by
        // content so any process can subsume against it.
        if let (Some(fleet), Some(domain)) = (&self.fleet, fleet_domain) {
            let mut digests = self.digests.of_terms(pool, &minimal);
            digests.sort_unstable();
            if fleet.record_nogood((digests, domain)) {
                self.stats.fleet_stores += 1;
                self.obs.fleet_stores.inc();
            }
        }
        if self.nogoods.learn((minimal, key.1)) {
            self.obs.nogood_learned.inc();
        }
    }

    /// The replay-and-close step of [`Solver::learn_nogood`]. Returns the
    /// minimal subset in sorted order, or `None` when the *interval* root
    /// pass does not refute `live` on its own — which covers the two
    /// UNSAT-in-one-node cases that must not be generalized from this
    /// trace: the point-box concrete-check fallback (whose verdict depends
    /// on every constraint) and a zone-pass negative cycle (refutable, but
    /// not witnessed by any interval write this closure could follow).
    fn minimize_conflict(
        &self,
        pool: &TermPool,
        live: &[TermId],
        domains: &Domains,
    ) -> Option<Vec<TermId>> {
        let vars = self.query_vars(pool, live);
        let mut vbox = VarBox::new(pool, &vars, domains, self.config.default_domain);
        // Replay the root pass, recording (constraint index, narrowed
        // slots) per application until the refutation fires.
        let mut writes: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut seed: Option<usize> = None;
        'replay: for _ in 0..self.config.max_contraction_rounds {
            vbox.clear_changed();
            for (i, &c) in live.iter().enumerate() {
                let before = vbox.snapshot_ivs();
                if contract_bool(pool, c, true, &mut vbox).is_err() {
                    seed = Some(i);
                    break 'replay;
                }
                let narrowed: Vec<usize> = vbox.diff_slots(&before);
                if !narrowed.is_empty() {
                    writes.push((i, narrowed));
                }
            }
            if !vbox.take_changed() {
                break;
            }
        }
        if seed.is_none() {
            seed = live
                .iter()
                .position(|&c| enclose_bool(pool, c, &vbox) == Bool3::False);
        }
        let seed = seed?;
        let slots_of = |c: TermId| -> Vec<usize> {
            let list: Vec<VarId> = if self.config.incremental && self.deps.covers(c) {
                self.deps.vars_of(c).to_vec()
            } else {
                pool.vars_of(c)
            };
            list.into_iter()
                .filter_map(|v| vbox.slot_index(v))
                .collect()
        };
        let mut in_conflict = vec![false; live.len()];
        in_conflict[seed] = true;
        let mut conflict_slots = vec![false; vars.len()];
        for s in slots_of(live[seed]) {
            conflict_slots[s] = true;
        }
        loop {
            let mut grew = false;
            for (i, slots) in &writes {
                if in_conflict[*i] {
                    continue;
                }
                if slots.iter().any(|&s| conflict_slots[s]) {
                    in_conflict[*i] = true;
                    for s in slots_of(live[*i]) {
                        conflict_slots[s] = true;
                    }
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        // `live` arrives in content-canonical (answer) order — the order
        // the root pass actually ran in — not id order, so the minimal
        // set must be re-sorted by id before it can serve as an
        // `UnsatPrefixStore` entry (the subset merge walk requires
        // sorted, deduplicated ids).
        let mut minimal: Vec<TermId> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| in_conflict[*i])
            .map(|(_, &c)| c)
            .collect();
        minimal.sort_unstable();
        Some(minimal)
    }

    /// Counts the models of the conjunction over all variables occurring in
    /// it, by branch-and-count: boxes whose every point satisfies the
    /// constraints contribute their full volume, refuted boxes contribute
    /// nothing, and undecided boxes are bounded from both sides. The result
    /// is exact when `lo == hi`.
    ///
    /// This implements the model-counting refinement the paper suggests for
    /// the functionality-deletion ranking heuristic (§3.5.3): "find the
    /// proportion of inputs in a path affected by a patch insertion".
    pub fn count_models(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
    ) -> CountBounds {
        self.stats.queries += 1;
        let Some(live) = filter_live(pool, constraints) else {
            return CountBounds { lo: 0, hi: 0 };
        };
        if self.config.incremental {
            self.deps.sync(pool);
        }
        let vars = self.query_vars(pool, &live);
        let vbox = VarBox::new(pool, &vars, domains, self.config.default_domain);
        let mut budget = self.config.max_nodes;
        let mut bounds = CountBounds { lo: 0, hi: 0 };
        self.count_rec(pool, &live, vbox, &mut budget, &mut bounds);
        bounds
    }

    fn count_rec(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        mut vbox: VarBox,
        budget: &mut u64,
        bounds: &mut CountBounds,
    ) {
        if *budget == 0 {
            // Undecided remainder: count as possible but not certain.
            bounds.hi = bounds.hi.saturating_add(vbox.volume());
            return;
        }
        *budget -= 1;
        self.stats.nodes += 1;
        for _ in 0..self.config.max_contraction_rounds {
            vbox.clear_changed();
            for &c in constraints {
                if contract_bool(pool, c, true, &mut vbox).is_err() {
                    return; // refuted: contributes nothing
                }
            }
            if !vbox.take_changed() {
                break;
            }
        }
        let mut all_true = true;
        let mut unknown_constraint = None;
        for &c in constraints {
            match enclose_bool(pool, c, &vbox) {
                Bool3::False => return,
                Bool3::True => {}
                Bool3::Unknown => {
                    all_true = false;
                    if unknown_constraint.is_none() {
                        unknown_constraint = Some(c);
                    }
                }
            }
        }
        if all_true {
            let v = vbox.volume();
            bounds.lo = bounds.lo.saturating_add(v);
            bounds.hi = bounds.hi.saturating_add(v);
            return;
        }
        let Some(v) = self.pick_branch_var(pool, unknown_constraint.unwrap(), &vbox) else {
            // Point box with undecidable enclosure: concrete check.
            let m = vbox.midpoint_model();
            if m.satisfies(pool, constraints) {
                bounds.lo = bounds.lo.saturating_add(1);
                bounds.hi = bounds.hi.saturating_add(1);
            }
            return;
        };
        let dom = vbox.get(v);
        let mid = dom.midpoint();
        let children = [
            Interval::new(dom.lo(), mid),
            Interval::new(mid + 1, dom.hi()),
        ];
        for child in children.into_iter().flatten() {
            let mut sub = vbox.clone();
            sub.set(v, child);
            self.count_rec(pool, constraints, sub, budget, bounds);
        }
    }

    /// Convenience wrapper: is the conjunction satisfiable? `Unknown` maps to
    /// `None`.
    pub fn is_sat(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
    ) -> Option<bool> {
        match self.check(pool, constraints, domains) {
            SatResult::Sat(_) => Some(true),
            SatResult::Unsat => Some(false),
            SatResult::Unknown => None,
        }
    }

    fn search(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        vbox: &mut VarBox,
        budget: &mut u64,
        root: bool,
    ) -> SatResult {
        if *budget == 0 {
            return SatResult::Unknown;
        }
        *budget -= 1;
        self.stats.nodes += 1;

        // Contraction fixpoint.
        for _ in 0..self.config.max_contraction_rounds {
            vbox.clear_changed();
            for &c in constraints {
                if contract_bool(pool, c, true, vbox).is_err() {
                    return SatResult::Unsat;
                }
            }
            if !vbox.take_changed() {
                break;
            }
        }

        // Evaluate constraints under the contracted box.
        let mut all_true = true;
        let mut unknown_constraint = None;
        for &c in constraints {
            match enclose_bool(pool, c, vbox) {
                Bool3::False => return SatResult::Unsat,
                Bool3::True => {}
                Bool3::Unknown => {
                    all_true = false;
                    if unknown_constraint.is_none() {
                        unknown_constraint = Some(c);
                    }
                }
            }
        }
        if all_true {
            // Every assignment in the box satisfies the constraints.
            return SatResult::Sat(vbox.midpoint_model());
        }

        // Relational pass, at the root only: a negative cycle in the
        // difference-constraint graph refutes the whole box — catching
        // `x < y ∧ y < x`-shaped conjunctions the per-variable interval
        // contraction above cannot see. Root-only keeps the cost to one
        // Bellman–Ford scan per query; [`Solver::refute_root`] mirrors
        // this pass exactly, which is what keeps its guarantee
        // ("refute_root implies check says Unsat") valid for zones too.
        if root && zone::zone_refute(pool, constraints, vbox).is_some() {
            return SatResult::Unsat;
        }

        // Branch on a variable of an unknown constraint.
        let branch_var = self.pick_branch_var(pool, unknown_constraint.unwrap(), vbox);
        let Some(v) = branch_var else {
            // All variables are points yet a constraint is unknown: can only
            // happen through enclosure looseness; fall back to concrete check.
            let m = vbox.midpoint_model();
            return if m.satisfies(pool, constraints) {
                SatResult::Sat(m)
            } else {
                SatResult::Unsat
            };
        };
        let dom = vbox.get(v);
        let mid = dom.midpoint();
        // Probe the midpoint first (fast sat), then the two halves around it.
        let children = [
            Some(Interval::point(mid)),
            Interval::new(dom.lo(), mid - 1),
            Interval::new(mid + 1, dom.hi()),
        ];
        let mut saw_unknown = false;
        for child in children.into_iter().flatten() {
            let mut sub = vbox.clone();
            sub.set(v, child);
            match self.search(pool, constraints, &mut sub, budget, false) {
                SatResult::Sat(m) => return SatResult::Sat(m),
                SatResult::Unsat => {}
                SatResult::Unknown => saw_unknown = true,
            }
        }
        if saw_unknown {
            SatResult::Unknown
        } else {
            SatResult::Unsat
        }
    }

    fn pick_branch_var(&self, pool: &TermPool, constraint: TermId, vbox: &VarBox) -> Option<VarId> {
        // Branch-variable selection runs once per search node, making it
        // the hottest `vars_of` consumer by far — the dependency graph
        // turns each call from a DAG walk into a slice read.
        if self.config.incremental && self.deps.covers(constraint) {
            widest_var(self.deps.vars_of(constraint).iter().copied(), vbox)
        } else {
            widest_var(pool.vars_of(constraint).into_iter(), vbox)
        }
    }
}

/// Lower and upper bounds on a model count (exact when `lo == hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountBounds {
    /// Models certainly present.
    pub lo: u128,
    /// Models possibly present.
    pub hi: u128,
}

impl CountBounds {
    /// Midpoint estimate as a float (for ratio computations).
    pub fn estimate(&self) -> f64 {
        (self.lo as f64 + self.hi as f64) / 2.0
    }

    /// Whether the count is exact.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }
}

/// Three-valued boolean (Kleene logic) used by forward evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bool3 {
    True,
    False,
    Unknown,
}

impl Bool3 {
    fn not(self) -> Bool3 {
        match self {
            Bool3::True => Bool3::False,
            Bool3::False => Bool3::True,
            Bool3::Unknown => Bool3::Unknown,
        }
    }
    fn and(self, other: Bool3) -> Bool3 {
        match (self, other) {
            (Bool3::False, _) | (_, Bool3::False) => Bool3::False,
            (Bool3::True, Bool3::True) => Bool3::True,
            _ => Bool3::Unknown,
        }
    }
    fn or(self, other: Bool3) -> Bool3 {
        match (self, other) {
            (Bool3::True, _) | (_, Bool3::True) => Bool3::True,
            (Bool3::False, Bool3::False) => Bool3::False,
            _ => Bool3::Unknown,
        }
    }
}

/// The current variable box: one interval per variable in the query.
/// Boolean variables are encoded as `[0, 1]` intervals.
///
/// Variable lookup goes through a small sorted `(variable, slot)` table
/// and binary search instead of a hash map: the search clones the box at
/// every branch (three children per node, two more per disjunction
/// contraction), and two flat `Vec` copies are far cheaper to clone than
/// a rebuilt `HashMap`. Slot order is first-occurrence order of the
/// query's constraints — semantically irrelevant (contraction is per
/// variable, models are emitted through a sorted map) but kept stable
/// anyway.
#[derive(Debug, Clone)]
pub(crate) struct VarBox {
    vars: Vec<VarId>,
    ivs: Vec<Interval>,
    lookup: Vec<(VarId, u32)>,
    changed: bool,
}

impl VarBox {
    pub(crate) fn new(
        pool: &TermPool,
        vars: &[VarId],
        domains: &Domains,
        default: Interval,
    ) -> Self {
        let ivs = vars
            .iter()
            .map(|&v| initial_interval(pool, v, domains, default))
            .collect();
        VarBox::from_parts(vars.to_vec(), ivs)
    }

    /// Assembles a box from parallel variable/interval lists (the frame
    /// path hands over its warm layout this way).
    pub(crate) fn from_parts(vars: Vec<VarId>, ivs: Vec<Interval>) -> Self {
        debug_assert_eq!(vars.len(), ivs.len());
        let mut lookup: Vec<(VarId, u32)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        lookup.sort_unstable_by_key(|e| e.0);
        VarBox {
            vars,
            ivs,
            lookup,
            changed: false,
        }
    }

    fn slot(&self, v: VarId) -> usize {
        let i = self
            .lookup
            .binary_search_by_key(&v, |e| e.0)
            .expect("variable not in box");
        self.lookup[i].1 as usize
    }

    /// The slot of `v`, if it is in the box.
    pub(crate) fn slot_index(&self, v: VarId) -> Option<usize> {
        self.lookup
            .binary_search_by_key(&v, |e| e.0)
            .ok()
            .map(|i| self.lookup[i].1 as usize)
    }

    /// Number of variables in the box.
    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    /// The variables of the box, in slot order (the deterministic
    /// iteration order the zone pass derives its bound edges in).
    pub(crate) fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// A copy of the intervals (for before/after diffing).
    pub(crate) fn snapshot_ivs(&self) -> Vec<Interval> {
        self.ivs.clone()
    }

    /// Slots whose interval differs from `before` (a prior
    /// [`VarBox::snapshot_ivs`] of the same box).
    pub(crate) fn diff_slots(&self, before: &[Interval]) -> Vec<usize> {
        self.ivs
            .iter()
            .zip(before)
            .enumerate()
            .filter(|(_, (now, old))| now != old)
            .map(|(i, _)| i)
            .collect()
    }

    /// Overwrites a slot directly, bypassing the change flag — trail
    /// restores must not look like contraction progress.
    pub(crate) fn restore_slot(&mut self, slot: usize, iv: Interval) {
        self.ivs[slot] = iv;
    }

    /// Appends a variable with its initial interval, returning its slot.
    pub(crate) fn push_var(&mut self, v: VarId, iv: Interval) -> usize {
        let slot = self.vars.len() as u32;
        self.vars.push(v);
        self.ivs.push(iv);
        let at = self
            .lookup
            .binary_search_by_key(&v, |e| e.0)
            .expect_err("variable already in box");
        self.lookup.insert(at, (v, slot));
        slot as usize
    }

    /// Drops every variable with slot ≥ `n` (frames pop in LIFO order, so
    /// the variables a frame introduced occupy the tail).
    pub(crate) fn truncate_vars(&mut self, n: usize) {
        self.vars.truncate(n);
        self.ivs.truncate(n);
        self.lookup.retain(|e| (e.1 as usize) < n);
    }

    pub(crate) fn get(&self, v: VarId) -> Interval {
        self.ivs[self.slot(v)]
    }

    fn set(&mut self, v: VarId, iv: Interval) {
        let i = self.slot(v);
        if self.ivs[i] != iv {
            self.ivs[i] = iv;
            self.changed = true;
        }
    }

    /// Narrows the domain of `v` to its intersection with `iv`.
    fn narrow(&mut self, v: VarId, iv: Interval) -> Result<(), EmptyDomain> {
        let i = self.slot(v);
        let cur = self.ivs[i];
        match cur.intersect(iv) {
            Some(n) => {
                if n != cur {
                    self.ivs[i] = n;
                    self.changed = true;
                }
                Ok(())
            }
            None => Err(EmptyDomain),
        }
    }

    pub(crate) fn clear_changed(&mut self) {
        self.changed = false;
    }

    pub(crate) fn take_changed(&mut self) -> bool {
        self.changed
    }

    /// Replaces every domain by the hull of the corresponding domains of two
    /// sibling boxes (union-hull of a disjunction contraction).
    fn hull_of(&mut self, a: &VarBox, b: &VarBox) {
        for i in 0..self.ivs.len() {
            let h = a.ivs[i].hull(b.ivs[i]);
            if self.ivs[i] != h {
                self.ivs[i] = h;
                self.changed = true;
            }
        }
    }

    fn copy_from(&mut self, other: &VarBox) {
        for i in 0..self.ivs.len() {
            if self.ivs[i] != other.ivs[i] {
                self.ivs[i] = other.ivs[i];
                self.changed = true;
            }
        }
    }

    /// Number of integer points in the box (saturating).
    fn volume(&self) -> u128 {
        self.ivs
            .iter()
            .fold(1u128, |acc, iv| acc.saturating_mul(iv.width() as u128))
    }

    fn midpoint_model(&self) -> Model {
        let mut m = Model::new();
        for (i, &v) in self.vars.iter().enumerate() {
            m.set(v, self.ivs[i].midpoint());
        }
        m
    }
}

pub(crate) struct EmptyDomain;

/// The starting interval of a variable: `[0, 1]` for booleans, the
/// configured (or default) domain for integers.
pub(crate) fn initial_interval(
    pool: &TermPool,
    v: VarId,
    domains: &Domains,
    default: Interval,
) -> Interval {
    match pool.var_sort(v) {
        Sort::Bool => Interval::of(0, 1),
        Sort::Int => domains.get(v).unwrap_or(default),
    }
}

/// Forward evaluation: an interval enclosure of an integer term.
fn enclose_int(pool: &TermPool, t: TermId, vbox: &VarBox) -> Interval {
    match pool.data(t) {
        TermData::IntConst(v) => Interval::point(v),
        TermData::Var(v) => vbox.get(v),
        TermData::Arith(op, a, b) => {
            let ia = enclose_int(pool, a, vbox);
            let ib = enclose_int(pool, b, vbox);
            match op {
                ArithOp::Add => ia.add(ib),
                ArithOp::Sub => ia.sub(ib),
                ArithOp::Mul => ia.mul(ib),
                ArithOp::Div => ia.div_total(ib),
                ArithOp::Rem => ia.rem_total(ib),
            }
        }
        TermData::Neg(a) => enclose_int(pool, a, vbox).neg(),
        TermData::Ite(c, a, b) => match enclose_bool(pool, c, vbox) {
            Bool3::True => enclose_int(pool, a, vbox),
            Bool3::False => enclose_int(pool, b, vbox),
            Bool3::Unknown => enclose_int(pool, a, vbox).hull(enclose_int(pool, b, vbox)),
        },
        // Ill-sorted; treat as zero (cannot happen for well-typed queries).
        _ => Interval::point(0),
    }
}

/// Forward evaluation: three-valued truth of a boolean term.
fn enclose_bool(pool: &TermPool, t: TermId, vbox: &VarBox) -> Bool3 {
    match pool.data(t) {
        TermData::BoolConst(true) => Bool3::True,
        TermData::BoolConst(false) => Bool3::False,
        TermData::Var(v) => {
            let iv = vbox.get(v);
            if iv.is_point() {
                if iv.lo() == 0 {
                    Bool3::False
                } else {
                    Bool3::True
                }
            } else {
                Bool3::Unknown
            }
        }
        TermData::Not(a) => enclose_bool(pool, a, vbox).not(),
        TermData::And(a, b) => enclose_bool(pool, a, vbox).and(enclose_bool(pool, b, vbox)),
        TermData::Or(a, b) => enclose_bool(pool, a, vbox).or(enclose_bool(pool, b, vbox)),
        TermData::Cmp(op, a, b) => {
            let ia = enclose_int(pool, a, vbox);
            let ib = enclose_int(pool, b, vbox);
            cmp_enclosures(op, ia, ib)
        }
        _ => Bool3::Unknown,
    }
}

fn cmp_enclosures(op: CmpOp, a: Interval, b: Interval) -> Bool3 {
    match op {
        CmpOp::Lt => {
            if a.hi() < b.lo() {
                Bool3::True
            } else if a.lo() >= b.hi() {
                Bool3::False
            } else {
                Bool3::Unknown
            }
        }
        CmpOp::Le => {
            if a.hi() <= b.lo() {
                Bool3::True
            } else if a.lo() > b.hi() {
                Bool3::False
            } else {
                Bool3::Unknown
            }
        }
        CmpOp::Gt => cmp_enclosures(CmpOp::Lt, b, a),
        CmpOp::Ge => cmp_enclosures(CmpOp::Le, b, a),
        CmpOp::Eq => {
            if a.is_point() && b.is_point() && a.lo() == b.lo() {
                Bool3::True
            } else if a.intersect(b).is_none() {
                Bool3::False
            } else {
                Bool3::Unknown
            }
        }
        CmpOp::Ne => cmp_enclosures(CmpOp::Eq, a, b).not(),
    }
}

/// Backward contraction: require the boolean term `t` to have truth value
/// `required`, narrowing variable domains in `vbox`.
pub(crate) fn contract_bool(
    pool: &TermPool,
    t: TermId,
    required: bool,
    vbox: &mut VarBox,
) -> Result<(), EmptyDomain> {
    match pool.data(t) {
        TermData::BoolConst(b) => {
            if b == required {
                Ok(())
            } else {
                Err(EmptyDomain)
            }
        }
        TermData::Var(v) => {
            let target = if required { 1 } else { 0 };
            vbox.narrow(v, Interval::point(target))
        }
        TermData::Not(a) => contract_bool(pool, a, !required, vbox),
        TermData::And(a, b) => {
            if required {
                contract_bool(pool, a, true, vbox)?;
                contract_bool(pool, b, true, vbox)
            } else {
                contract_binary_disjunct(pool, (a, false), (b, false), vbox)
            }
        }
        TermData::Or(a, b) => {
            if required {
                contract_binary_disjunct(pool, (a, true), (b, true), vbox)
            } else {
                contract_bool(pool, a, false, vbox)?;
                contract_bool(pool, b, false, vbox)
            }
        }
        TermData::Cmp(op, a, b) => {
            let eff = if required { op } else { op.negate() };
            contract_cmp(pool, eff, a, b, vbox)
        }
        // Ill-sorted boolean position; no contraction.
        _ => Ok(()),
    }
}

/// Union-hull contraction through `lhs ∨ rhs` (or the dual for `¬(a ∧ b)`):
/// contracts each disjunct on a copy of the box and takes the per-variable
/// hull of the surviving copies.
fn contract_binary_disjunct(
    pool: &TermPool,
    (a, ra): (TermId, bool),
    (b, rb): (TermId, bool),
    vbox: &mut VarBox,
) -> Result<(), EmptyDomain> {
    let mut box_a = vbox.clone();
    let ok_a = contract_bool(pool, a, ra, &mut box_a).is_ok();
    let mut box_b = vbox.clone();
    let ok_b = contract_bool(pool, b, rb, &mut box_b).is_ok();
    match (ok_a, ok_b) {
        (false, false) => Err(EmptyDomain),
        (true, false) => {
            vbox.copy_from(&box_a);
            Ok(())
        }
        (false, true) => {
            vbox.copy_from(&box_b);
            Ok(())
        }
        (true, true) => {
            vbox.hull_of(&box_a, &box_b);
            Ok(())
        }
    }
}

/// HC4-revise for a comparison atom.
fn contract_cmp(
    pool: &TermPool,
    op: CmpOp,
    a: TermId,
    b: TermId,
    vbox: &mut VarBox,
) -> Result<(), EmptyDomain> {
    let ia = enclose_int(pool, a, vbox);
    let ib = enclose_int(pool, b, vbox);
    match op {
        CmpOp::Eq => {
            let meet = ia.intersect(ib).ok_or(EmptyDomain)?;
            push_int(pool, a, meet, vbox)?;
            push_int(pool, b, meet, vbox)
        }
        CmpOp::Ne => {
            if ia.is_point() && ib.is_point() && ia.lo() == ib.lo() {
                return Err(EmptyDomain);
            }
            if ib.is_point() {
                if let Some(na) = ia.remove_endpoint(ib.lo()) {
                    push_int(pool, a, na, vbox)?;
                } else {
                    return Err(EmptyDomain);
                }
            }
            if ia.is_point() {
                if let Some(nb) = ib.remove_endpoint(ia.lo()) {
                    push_int(pool, b, nb, vbox)?;
                } else {
                    return Err(EmptyDomain);
                }
            }
            Ok(())
        }
        CmpOp::Lt => {
            let na = ia.below_strict(ib).ok_or(EmptyDomain)?;
            let nb = ib.above_strict(ia).ok_or(EmptyDomain)?;
            push_int(pool, a, na, vbox)?;
            push_int(pool, b, nb, vbox)
        }
        CmpOp::Le => {
            let na = ia.below(ib).ok_or(EmptyDomain)?;
            let nb = ib.above(ia).ok_or(EmptyDomain)?;
            push_int(pool, a, na, vbox)?;
            push_int(pool, b, nb, vbox)
        }
        CmpOp::Gt => contract_cmp(pool, CmpOp::Lt, b, a, vbox),
        CmpOp::Ge => contract_cmp(pool, CmpOp::Le, b, a, vbox),
    }
}

/// Backward pass: require the integer term `t` to take a value inside `iv`,
/// narrowing variable domains.
fn push_int(
    pool: &TermPool,
    t: TermId,
    iv: Interval,
    vbox: &mut VarBox,
) -> Result<(), EmptyDomain> {
    match pool.data(t) {
        TermData::IntConst(v) => {
            if iv.contains(v) {
                Ok(())
            } else {
                Err(EmptyDomain)
            }
        }
        TermData::Var(v) => vbox.narrow(v, iv),
        TermData::Neg(a) => push_int(pool, a, iv.neg(), vbox),
        TermData::Arith(op, a, b) => {
            let ia = enclose_int(pool, a, vbox);
            let ib = enclose_int(pool, b, vbox);
            match op {
                ArithOp::Add => {
                    let na = Interval::back_add(iv, ib, ia).ok_or(EmptyDomain)?;
                    let nb = Interval::back_add(iv, ia, ib).ok_or(EmptyDomain)?;
                    push_int(pool, a, na, vbox)?;
                    push_int(pool, b, nb, vbox)
                }
                ArithOp::Sub => {
                    let na = Interval::back_sub_lhs(iv, ib, ia).ok_or(EmptyDomain)?;
                    let nb = Interval::back_sub_rhs(iv, ia, ib).ok_or(EmptyDomain)?;
                    push_int(pool, a, na, vbox)?;
                    push_int(pool, b, nb, vbox)
                }
                ArithOp::Mul => {
                    if let Some(na) = Interval::back_mul(iv, ib, ia) {
                        push_int(pool, a, na, vbox)?;
                    } else {
                        return Err(EmptyDomain);
                    }
                    if let Some(nb) = Interval::back_mul(iv, ia, ib) {
                        push_int(pool, b, nb, vbox)
                    } else {
                        Err(EmptyDomain)
                    }
                }
                // Division/remainder: forward-only (sound, no contraction).
                ArithOp::Div | ArithOp::Rem => Ok(()),
            }
        }
        TermData::Ite(c, a, b) => match enclose_bool(pool, c, vbox) {
            Bool3::True => push_int(pool, a, iv, vbox),
            Bool3::False => push_int(pool, b, iv, vbox),
            Bool3::Unknown => {
                let ia = enclose_int(pool, a, vbox);
                let ib = enclose_int(pool, b, vbox);
                match (ia.intersect(iv), ib.intersect(iv)) {
                    (None, None) => Err(EmptyDomain),
                    (Some(_), None) => {
                        contract_bool(pool, c, true, vbox)?;
                        push_int(pool, a, iv, vbox)
                    }
                    (None, Some(_)) => {
                        contract_bool(pool, c, false, vbox)?;
                        push_int(pool, b, iv, vbox)
                    }
                    (Some(_), Some(_)) => Ok(()),
                }
            }
        },
        // Ill-sorted integer position; no contraction.
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TermPool, Solver) {
        (TermPool::new(), Solver::new(SolverConfig::default()))
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let (mut p, mut s) = setup();
        let t = p.tt();
        let f = p.ff();
        assert!(s.check(&p, &[t], &Domains::new()).is_sat());
        assert!(s.check(&p, &[f], &Domains::new()).is_unsat());
        assert!(s.check(&p, &[], &Domains::new()).is_sat());
    }

    #[test]
    fn linear_constraints() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let three = p.int(3);
        let ten = p.int(10);
        let c1 = p.gt(x, three);
        let c2 = p.lt(x, ten);
        let mut d = Domains::new();
        d.bound(xv, -100, 100);
        let m = s.check(&p, &[c1, c2], &d).model().unwrap();
        let v = m.int(xv).unwrap();
        assert!(v > 3 && v < 10);
    }

    #[test]
    fn contradiction_is_unsat() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let c1 = p.lt(x, five);
        let c2 = p.gt(x, five);
        let mut d = Domains::new();
        d.bound(xv, -1000, 1000);
        assert!(s.check(&p, &[c1, c2], &d).is_unsat());
    }

    #[test]
    fn refute_root_catches_static_contradictions() {
        let (mut p, s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let mut d = Domains::new();
        d.bound(xv, -1000, 1000);
        // Constant false.
        let f = p.ff();
        assert!(s.refute_root(&p, &[f], &d));
        // Complementary pair (literal negation).
        let g = p.gt(x, five);
        let ng = p.not(g);
        assert!(s.refute_root(&p, &[g, ng], &d));
        // Contraction-refutable: x < 5 ∧ x > 5.
        let l = p.lt(x, five);
        assert!(s.refute_root(&p, &[l, g], &d));
        // Domain-refutable: x > 1000 with x ∈ [-1000, 1000].
        let k = p.int(1000);
        let over = p.gt(x, k);
        assert!(s.refute_root(&p, &[over], &d));
        // A satisfiable query is never refuted.
        assert!(!s.refute_root(&p, &[g], &d));
        assert!(!s.refute_root(&p, &[], &d));
    }

    #[test]
    fn refute_root_implies_check_unsat() {
        // The refute_root guarantee, exercised over a mixed batch including
        // queries the root pass cannot decide (nonlinear, needs branching):
        // whenever refute_root fires, check agrees with Unsat; refute_root
        // spends no queries and no nodes.
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let mut d = Domains::new();
        d.bound(xv, -50, 50);
        d.bound(yv, -50, 50);
        let c0 = p.int(0);
        let c5 = p.int(5);
        let c100 = p.int(100);
        let xy = p.mul(x, y);
        let queries: Vec<Vec<TermId>> = vec![
            vec![p.eq(xy, c5)],                // sat (1*5)
            vec![p.gt(x, c100)],               // unsat by domain
            vec![p.lt(x, c0), p.gt(x, c0)],    // unsat by contraction
            vec![p.eq(xy, c100), p.eq(x, c0)], // unsat, needs propagation
            vec![p.ge(x, c0), p.le(x, c100)],  // sat
        ];
        let mut fired = 0;
        for q in &queries {
            if s.refute_root(&p, q, &d) {
                fired += 1;
                assert!(
                    s.check(&p, q, &d).is_unsat(),
                    "refute_root disagreed on {q:?}"
                );
            }
        }
        assert!(
            fired >= 2,
            "refute_root never fired on the refutable queries"
        );
        // refute_root itself never touched the statistics.
        let fresh = Solver::new(SolverConfig::default());
        fresh.refute_root(&p, &queries[1], &d);
        assert_eq!(fresh.stats().queries, 0);
        assert_eq!(fresh.stats().nodes, 0);
    }

    #[test]
    fn refute_root_respects_zero_node_budget() {
        // With max_nodes == 0 `check` returns Unknown before the root pass;
        // refute_root must not claim Unsat for queries beyond the pre-search
        // fast paths (which `check` still answers).
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let l = p.lt(x, five);
        let g = p.gt(x, five);
        let mut d = Domains::new();
        d.bound(xv, -1000, 1000);
        let s = Solver::new(SolverConfig {
            max_nodes: 0,
            ..SolverConfig::default()
        });
        assert!(!s.refute_root(&p, &[l, g], &d));
        // The fast paths still fire (check answers those without a search).
        let f = p.ff();
        assert!(s.refute_root(&p, &[f], &d));
        let ng = p.not(g);
        assert!(s.refute_root(&p, &[g, ng], &d));
    }

    #[test]
    fn nonlinear_product_zero() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let three = p.int(3);
        let five = p.int(5);
        let zero = p.int(0);
        let m = p.mul(x, y);
        // x > 3 && y <= 5 && x*y == 0  => forces y == 0.
        let phi = [p.gt(x, three), p.le(y, five), p.eq(m, zero)];
        let mut d = Domains::new();
        d.bound(xv, -64, 64);
        d.bound(yv, -64, 64);
        let model = s.check(&p, &phi, &d).model().unwrap();
        assert!(model.int(xv).unwrap() > 3);
        assert_eq!(model.int(yv).unwrap(), 0);
    }

    #[test]
    fn nonlinear_unsat() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let one = p.int(1);
        let m = p.mul(x, y);
        let zero = p.int(0);
        // x >= 1 && y >= 1 && x*y == 0 is unsat.
        let phi = [p.ge(x, one), p.ge(y, one), p.eq(m, zero)];
        let mut d = Domains::new();
        d.bound(xv, -64, 64);
        d.bound(yv, -64, 64);
        assert!(s.check(&p, &phi, &d).is_unsat());
    }

    #[test]
    fn disjunction_hull_contraction() {
        let (mut p, mut s) = setup();
        let av = p.var("a", Sort::Int);
        let a = p.var_term(av);
        let c2 = p.int(2);
        let c4 = p.int(4);
        let c7 = p.int(7);
        let c9 = p.int(9);
        // (2 <= a <= 4) or (7 <= a <= 9), conjoined with a > 5 => a in [7,9]
        let lo1 = p.ge(a, c2);
        let hi1 = p.le(a, c4);
        let box1 = p.and(lo1, hi1);
        let lo2 = p.ge(a, c7);
        let hi2 = p.le(a, c9);
        let box2 = p.and(lo2, hi2);
        let region = p.or(box1, box2);
        let five = p.int(5);
        let gt5 = p.gt(a, five);
        let mut d = Domains::new();
        d.bound(av, -100, 100);
        let m = s.check(&p, &[region, gt5], &d).model().unwrap();
        let v = m.int(av).unwrap();
        assert!((7..=9).contains(&v));
    }

    #[test]
    fn model_satisfies_query() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let seven = p.int(7);
        let sum = p.add(x, y);
        let prod = p.mul(x, y);
        let twelve = p.int(12);
        let phi = [p.eq(sum, seven), p.eq(prod, twelve)];
        let mut d = Domains::new();
        d.bound(xv, -100, 100);
        d.bound(yv, -100, 100);
        let m = s.check(&p, &phi, &d).model().unwrap();
        assert!(m.satisfies(&p, &phi));
        let (a, b) = (m.int(xv).unwrap(), m.int(yv).unwrap());
        assert_eq!(a + b, 7);
        assert_eq!(a * b, 12);
    }

    #[test]
    fn bool_vars_are_supported() {
        let (mut p, mut s) = setup();
        let bv = p.var("flag", Sort::Bool);
        let b = p.var_term(bv);
        let nb = p.not(b);
        assert!(s.check(&p, &[b, nb], &Domains::new()).is_unsat());
        let m = s.check(&p, &[b], &Domains::new()).model().unwrap();
        assert_eq!(m.get(bv), Some(crate::Value::Int(1)));
    }

    #[test]
    fn division_constraints() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let hundred = p.int(100);
        let q = p.div(hundred, x);
        let t20 = p.int(20);
        let c = p.eq(q, t20);
        let one = p.int(1);
        let pos = p.ge(x, one);
        let mut d = Domains::new();
        d.bound(xv, -50, 50);
        let m = s.check(&p, &[c, pos], &d).model().unwrap();
        assert_eq!(100 / m.int(xv).unwrap(), 20);
    }

    #[test]
    fn stats_are_tracked() {
        let (mut p, mut s) = setup();
        let t = p.tt();
        let f = p.ff();
        s.check(&p, &[t], &Domains::new());
        s.check(&p, &[f], &Domains::new());
        let st = s.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.sat, 1);
        assert_eq!(st.unsat, 1);
    }

    #[test]
    fn default_domain_applies() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let big = p.int(1 << 29);
        let c = p.gt(x, big);
        // No explicit domain: default is [-2^30, 2^30], so sat.
        let m = s.check(&p, &[c], &Domains::new()).model().unwrap();
        assert!(m.int(xv).unwrap() > (1 << 29));
    }

    #[test]
    fn count_models_exact_on_linear_constraint() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let three = p.int(3);
        let nine = p.int(9);
        let q = [p.gt(x, three), p.lt(x, nine)];
        let mut d = Domains::new();
        d.bound(xv, -100, 100);
        let c = s.count_models(&p, &q, &d);
        assert!(c.is_exact());
        assert_eq!(c.lo, 5); // x ∈ {4,…,8}
    }

    #[test]
    fn count_models_two_vars() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let q = [p.le(x, y)];
        let mut d = Domains::new();
        d.bound(xv, 0, 3);
        d.bound(yv, 0, 3);
        let c = s.count_models(&p, &q, &d);
        assert!(c.is_exact());
        assert_eq!(c.lo, 10); // pairs with x <= y out of 16
    }

    #[test]
    fn count_models_unsat_is_zero() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let q = [p.lt(x, five), p.gt(x, five)];
        let mut d = Domains::new();
        d.bound(xv, -50, 50);
        let c = s.count_models(&p, &q, &d);
        assert_eq!(c, CountBounds { lo: 0, hi: 0 });
    }

    #[test]
    fn count_models_bounds_under_budget() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig {
            max_nodes: 3,
            ..SolverConfig::default()
        });
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let m = p.mul(x, y);
        let ten = p.int(10);
        let q = [p.gt(m, ten)];
        let mut d = Domains::new();
        d.bound(xv, -20, 20);
        d.bound(yv, -20, 20);
        let c = s.count_models(&p, &q, &d);
        // Sound bounds even when inexact.
        assert!(c.lo <= c.hi);
        assert!(c.hi <= 41 * 41);
    }

    #[test]
    fn unknown_on_tiny_budget() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig {
            max_nodes: 0,
            ..SolverConfig::default()
        });
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let c = p.gt(x, zero);
        assert_eq!(s.check(&p, &[c], &Domains::new()), SatResult::Unknown);
    }

    #[test]
    fn cache_answers_repeated_queries() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let a = p.gt(x, five);
        let b = p.lt(x, five);
        let mut d = Domains::new();
        d.bound(xv, -10, 10);
        let r1 = s.check(&p, &[a, b], &d);
        // Same conjunction in a different order hits the canonical entry.
        let r2 = s.check(&p, &[b, a], &d);
        assert_eq!(r1, r2);
        assert_eq!(s.stats().cache_misses, 1);
        assert_eq!(s.stats().cache_hits, 1);
        // Hits still count as queries with their verdict tallied.
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().unsat + s.stats().sat + s.stats().unknown, 2);
    }

    #[test]
    fn cache_distinguishes_domains() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let c = p.gt(x, five);
        let mut narrow = Domains::new();
        narrow.bound(xv, 0, 3);
        let mut wide = Domains::new();
        wide.bound(xv, 0, 30);
        assert!(s.check(&p, &[c], &narrow).is_unsat());
        assert!(s.check(&p, &[c], &wide).is_sat());
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig {
            cache_capacity: 0,
            ..SolverConfig::default()
        });
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let c = p.gt(x, zero);
        let mut d = Domains::new();
        d.bound(xv, -5, 5);
        let r1 = s.check(&p, &[c], &d);
        let r2 = s.check(&p, &[c], &d);
        assert_eq!(r1, r2);
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cache_misses, 0);
        assert_eq!(s.cache_entries(), 0);
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig {
            cache_capacity: 8,
            ..SolverConfig::default()
        });
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let mut d = Domains::new();
        d.bound(xv, -100, 100);
        for i in 0..100 {
            let bound = p.int(i);
            let c = p.gt(x, bound);
            let _ = s.check(&p, &[c], &d);
        }
        // Two generations of at most `capacity` entries each.
        assert!(s.cache_entries() <= 16, "{}", s.cache_entries());
    }

    #[test]
    fn unsat_prefix_store_subsumes_supersets() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let five = p.int(5);
        let pos = p.gt(x, zero);
        let neg = p.lt(x, zero);
        let extra = p.lt(x, five);
        let mut d = Domains::new();
        d.bound(xv, -10, 10);

        // x > 0 ∧ x < 0 is UNSAT; learn it.
        let mut store = UnsatPrefixStore::new(16);
        assert_eq!(
            s.check_prefixed(&p, &[pos, neg], &d, &store),
            SatResult::Unsat
        );
        let key = s.canonical_query(&p, &[pos, neg], &d).unwrap();
        assert!(store.insert(key.clone()));
        assert!(!store.insert(key), "dedup");
        assert_eq!(store.len(), 1);

        // Any superset — here with an extra constraint — is refuted by
        // subsumption, without a search.
        let before = s.stats().nodes;
        let r = s.check_prefixed(&p, &[extra, neg, pos], &d, &store);
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(s.stats().nodes, before, "no search ran");
        assert_eq!(s.stats().prefix_short_circuits, 1);

        // A different domain fingerprint is not subsumed.
        let mut wide = Domains::new();
        wide.bound(xv, -99, 99);
        let wide_key = s.canonical_query(&p, &[pos, neg], &wide).unwrap();
        assert!(!store.subsumes(&wide_key));

        // A mere overlap (not a superset) is not subsumed either.
        let other_key = s.canonical_query(&p, &[pos, extra], &d).unwrap();
        assert!(!store.subsumes(&other_key));
    }

    #[test]
    fn nogoods_learn_minimal_conflicts_and_subsume_new_supersets() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let zv = p.var("z", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let z = p.var_term(zv);
        let zero = p.int(0);
        let five = p.int(5);
        let hi = p.gt(x, five);
        let lo = p.lt(x, five);
        let y_pos = p.gt(y, zero);
        let z_neg = p.lt(z, zero);
        let mut d = Domains::new();
        d.bound(xv, -10, 10);
        d.bound(yv, -10, 10);
        d.bound(zv, -10, 10);

        // x > 5 ∧ x < 5 empties x's domain in the root contraction pass,
        // so the query is refuted in one node and learned as a no-good.
        // The query also drags in y > 0, which minimization must drop.
        assert!(s.check(&p, &[y_pos, hi, lo], &d).is_unsat());
        assert_eq!(s.stats().nogood_hits, 0);

        // A query never posed before that contains the conflict pair —
        // but *not* y > 0 — is refuted by subsumption, with no search.
        let nodes = s.stats().nodes;
        assert!(s.check(&p, &[hi, z_neg, lo], &d).is_unsat());
        assert_eq!(s.stats().nogood_hits, 1, "minimized no-good subsumed");
        assert_eq!(s.stats().nodes, nodes, "no search ran");

        // Repeating the original query answers from the cache, not the
        // no-good store: the O(1) cache probe comes first.
        assert!(s.check(&p, &[y_pos, hi, lo], &d).is_unsat());
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().nogood_hits, 1);
    }

    #[test]
    fn zero_nogood_capacity_disables_learning_and_subsumption() {
        let mut p = TermPool::new();
        let mut s = Solver::new(SolverConfig {
            nogood_capacity: 0,
            ..SolverConfig::default()
        });
        let xv = p.var("x", Sort::Int);
        let zv = p.var("z", Sort::Int);
        let x = p.var_term(xv);
        let z = p.var_term(zv);
        let zero = p.int(0);
        let five = p.int(5);
        let hi = p.gt(x, five);
        let lo = p.lt(x, five);
        let z_neg = p.lt(z, zero);
        let mut d = Domains::new();
        d.bound(xv, -10, 10);
        d.bound(zv, -10, 10);

        assert!(s.check(&p, &[hi, lo], &d).is_unsat());
        let nodes = s.stats().nodes;
        assert!(s.check(&p, &[hi, z_neg, lo], &d).is_unsat());
        assert_eq!(s.stats().nogood_hits, 0);
        assert!(
            s.stats().nodes > nodes,
            "superset was searched, not subsumed"
        );
    }

    #[test]
    fn unsat_prefix_store_is_bounded_fifo() {
        let mut p = TermPool::new();
        let s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let d = Domains::new();
        let mut store = UnsatPrefixStore::new(2);
        let keys: Vec<CanonicalQuery> = (0..3)
            .map(|i| {
                let c = p.int(i);
                let q = p.gt(x, c);
                s.canonical_query(&p, &[q], &d).unwrap()
            })
            .collect();
        for k in &keys {
            store.insert(k.clone());
        }
        assert_eq!(store.len(), 2);
        // Oldest entry evicted first.
        assert!(!store.subsumes(&keys[0]));
        assert!(store.subsumes(&keys[1]));
        assert!(store.subsumes(&keys[2]));

        // Capacity 0 disables the store.
        let mut off = UnsatPrefixStore::new(0);
        assert!(!off.insert(keys[0].clone()));
        assert!(off.is_empty());
    }

    #[test]
    fn canonical_query_matches_check_canonicalization() {
        let mut p = TermPool::new();
        let s = Solver::new(SolverConfig::default());
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let a = p.gt(x, zero);
        let b = p.lt(x, zero);
        let t = p.tt();
        let f = p.ff();
        let d = Domains::new();
        // Order-insensitive, `true` dropped, duplicates removed.
        let k1 = s.canonical_query(&p, &[a, b, t, a], &d).unwrap();
        let k2 = s.canonical_query(&p, &[b, a], &d).unwrap();
        assert_eq!(k1, k2);
        // Constant-false conjunctions have no canonical form.
        assert!(s.canonical_query(&p, &[a, f], &d).is_none());
    }

    #[test]
    fn fork_shares_cache_below_the_floor() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let base_query = p.gt(x, five);
        let base_terms = p.len();
        let mut d = Domains::new();
        d.bound(xv, -10, 10);

        let mut main = Solver::new(SolverConfig::default());
        let mut worker_pool = p.clone();
        let mut worker = main.fork(base_terms);
        assert_eq!(worker.stats().queries, 0);
        // One query over base terms, one over a worker-local term.
        let _ = worker.check(&worker_pool, &[base_query], &d);
        let seven = worker_pool.int(7);
        let local_query = worker_pool.gt(x, seven);
        let _ = worker.check(&worker_pool, &[local_query], &d);

        main.absorb(worker);
        assert_eq!(main.stats().queries, 2);
        // The base-term query was cached through the shared table, so the
        // main solver hits it; the worker-local query was never cached.
        assert_eq!(main.cache_entries(), 1);
        let _ = main.check(&p, &[base_query], &d);
        assert_eq!(main.stats().cache_hits, 1);

        // A second fork also sees the shared entry.
        let mut worker2 = main.fork(base_terms);
        let _ = worker2.check(&p, &[base_query], &d);
        assert_eq!(worker2.stats().cache_hits, 1);
    }
}
