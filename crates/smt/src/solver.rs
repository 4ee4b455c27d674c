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

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use cpr_obs::{Counter, Histogram, MetricsRegistry};

use crate::deps::DepGraph;
use crate::digest::TermDigests;
use crate::interval::Interval;
use crate::model::Model;
use crate::term::{ArithOp, CmpOp, Sort, TermData, TermId, TermPool, VarId};

/// Initial variable domains for a query.
///
/// Variables not mentioned get the solver's default domain
/// ([`SolverConfig::default_domain`]).
#[derive(Debug, Default, Clone, PartialEq)]
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
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 50_000,
            max_contraction_rounds: 30,
            default_domain: Interval::of(-(1 << 30), 1 << 30),
            cache_capacity: 4_096,
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
}

/// Canonical form of a query: the live constraints in sorted, deduplicated
/// `TermId` order plus a fingerprint of the variable domains. Because
/// constraints are conjunctive, sorting loses nothing — and the solver
/// *answers* the canonical set (iterated in content-digest order; see
/// [`crate::digest`]), so a result is a pure function of its canonical
/// form. The memoizing-cache key.
pub type CanonicalQuery = (Vec<TermId>, u64);

type QueryKey = CanonicalQuery;

/// The first stage of every query: drops constant-`true` constraints and
/// keeps the rest, in caller order. `None` means a constant-`false`
/// constraint makes the conjunction trivially unsatisfiable.
fn filter_live(pool: &TermPool, constraints: &[TermId]) -> Option<Vec<TermId>> {
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

/// The fast refutation of every query: whether two live constraints are
/// literal complements of each other (common in equivalence queries).
fn has_complementary_pair(pool: &TermPool, live: &[TermId]) -> bool {
    live.iter()
        .enumerate()
        .any(|(i, &a)| live[i + 1..].iter().any(|&b| pool.complementary(a, b)))
}

/// The branch-variable heuristic: the *narrowest* slot among `slots`
/// whose interval still holds more than one value (ties keep the earlier
/// slot in `slots` order, which is the constraint's first-occurrence
/// order). `None` when every slot is a point.
fn narrowest_open_slot(slots: &[u32], vbox: &VarBox) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for &s in slots {
        let s = s as usize;
        let w = vbox.ivs[s].width();
        if w > 1 {
            match best {
                Some((_, bw)) if bw <= w => {}
                _ => best = Some((s, w)),
            }
        }
    }
    best.map(|(s, _)| s)
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

    /// The memoized verdict for `key`, if any.
    pub fn lookup(&self, key: &CanonicalQuery) -> Option<SatResult> {
        self.inner.lock().expect("query cache poisoned").get(key)
    }

    /// Memoizes `verdict` for `key`. The contract: a recorded verdict is a
    /// pure function of its key, so a lookup returns exactly what
    /// recomputing it would, whichever solver recorded it.
    pub fn record(&self, key: CanonicalQuery, verdict: SatResult) {
        self.inner
            .lock()
            .expect("query cache poisoned")
            .insert(key, verdict, self.capacity);
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
    solve_nanos: Histogram,
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
            solve_nanos: reg.histogram("solver.solve_nanos"),
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
fn domains_fingerprint(domains: &Domains, default: Interval) -> u64 {
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
/// [`SolverStats`] and the memoizing query cache (its search buffers are
/// reused, but every search resets what it reads); cheap to construct.
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
    /// table. `usize::MAX` (the root solver) caches everything.
    cache_floor: usize,
    /// Term → variable dependency lists, synced lazily against the pool
    /// before every search (see [`DepGraph`]).
    deps: DepGraph,
    /// Per-term content digests, synced lazily like `deps`.
    digests: TermDigests,
    /// The search buffers, reused by every query of this solver.
    scratch: Scratch,
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
        let cache = SharedQueryCache::new(config.cache_capacity);
        Solver {
            config,
            stats: SolverStats::default(),
            cache,
            cache_floor: usize::MAX,
            deps: DepGraph::new(),
            digests: TermDigests::default(),
            scratch: Scratch::default(),
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
    }

    /// Creates a worker solver for a parallel phase: same configuration,
    /// zeroed statistics (so [`Solver::absorb`] can sum worker counters
    /// without double-counting), and the *shared* query cache, gated at
    /// `base_terms`: the worker may consult and fill the cache only with
    /// queries whose term ids all lie below the fork point, because ids it
    /// interns into its own pool fork mean nothing in other forks.
    pub fn fork(&self, base_terms: usize) -> Solver {
        Solver {
            config: self.config.clone(),
            stats: SolverStats::default(),
            cache: self.cache.clone(),
            cache_floor: base_terms.min(self.cache_floor),
            deps: self.deps.clone(),
            digests: self.digests.clone(),
            // Each worker grows its own buffers: they carry no state
            // between queries, and sharing them would serialize workers.
            scratch: Scratch::default(),
            // Shared cells: worker increments land directly in the same
            // totals, so absorb() has nothing to merge for metrics either.
            obs: self.obs.clone(),
        }
    }

    /// Folds a forked worker back in by summing its statistics. (The query
    /// cache is shared with the worker, so there is nothing to merge.)
    pub fn absorb(&mut self, worker: Solver) {
        let s = worker.stats;
        self.stats.queries += s.queries;
        self.stats.sat += s.sat;
        self.stats.unsat += s.unsat;
        self.stats.unknown += s.unknown;
        self.stats.nodes += s.nodes;
        self.stats.cache_hits += s.cache_hits;
        self.stats.cache_misses += s.cache_misses;
    }

    /// Number of entries currently memoized.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
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

    /// Checks satisfiability of the conjunction of `constraints` under the
    /// given initial `domains`, returning a model on success.
    pub fn check(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
    ) -> SatResult {
        // Observability wrapper: time the whole check (fast paths
        // included) and mirror the per-verdict counters. A detached (or
        // disabled-registry) solver skips even the clock reads.
        let t0 = self.obs.solve_nanos.start();
        let result = self.check_inner(pool, constraints, domains);
        self.obs.solve_nanos.stop(t0);
        self.obs.queries.inc();
        match &result {
            SatResult::Sat(_) => self.obs.sat.inc(),
            SatResult::Unsat => self.obs.unsat.inc(),
            SatResult::Unknown => self.obs.unknown.inc(),
        }
        result
    }

    fn check_inner(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        domains: &Domains,
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
        // Then the memoizing cache and the branch-and-prune search.
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
        self.deps.sync(pool);
        // Content-canonical answer order: the solver *answers* every
        // query with constraints iterated in content-digest order (ties
        // by id). With the bounded node budget, iteration order is
        // observable in `Unknown` cutoffs and in `Sat` witness models, so
        // answering in an id-independent order is what makes each verdict
        // a pure function of constraint *content*. Workers of a parallel
        // phase intern into their own pool forks, so one query can carry
        // different ids under different thread counts; this order is what
        // keeps repair reports identical across thread counts.
        self.digests.sync(pool);
        let live = self.digests.sort_by_content(&key.0);
        let (mut search, mut root) = self.start_search(pool, &live, domains, self.config.max_nodes);
        let result = search.sat(&mut root);
        self.finish_search(search, root);
        match &result {
            SatResult::Sat(_) => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
        if caching {
            self.cache.record(key, result.clone());
        }
        result
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
        let (mut search, mut root) = self.start_search(pool, &live, domains, self.config.max_nodes);
        let mut bounds = CountBounds { lo: 0, hi: 0 };
        search.count(&mut root, &mut bounds);
        self.finish_search(search, root);
        bounds
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

    /// Sets up a branch-and-prune search over `live` with a node budget of
    /// `budget` (the dependency graph synced here) and its root node, in
    /// the solver's scratch buffers: the box layout and the slot table are
    /// refilled, and the root's box, stamps and records are reset, so no
    /// state of an earlier query reaches this one.
    fn start_search<'q>(
        &mut self,
        pool: &'q TermPool,
        live: &'q [TermId],
        domains: &Domains,
        budget: u64,
    ) -> (Search<'q>, Node) {
        self.deps.sync(pool);
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch {
            layout,
            slots,
            offsets,
            root,
            ..
        } = &mut scratch;
        layout.clear();
        slots.clear();
        offsets.clear();
        offsets.push(0);
        for &c in live {
            slots.extend(
                self.deps
                    .vars_of(c)
                    .iter()
                    .map(|&v| layout.insert(v) as u32),
            );
            offsets.push(slots.len() as u32);
        }
        root.vbox
            .reset(pool, layout, domains, self.config.default_domain);
        root.revised.clear();
        root.revised.resize(live.len(), 0);
        root.enclosed.clear();
        root.enclosed.resize(live.len(), (0, Bool3::Unknown));
        let root = std::mem::take(root);
        let search = Search {
            pool,
            constraints: live,
            scratch,
            max_rounds: self.config.max_contraction_rounds,
            budget,
            nodes: 0,
        };
        (search, root)
    }

    /// Counts a finished search and takes its buffers back.
    fn finish_search(&mut self, search: Search<'_>, root: Node) {
        self.stats.nodes += search.nodes;
        self.scratch = search.scratch;
        self.scratch.root = root;
    }
}

/// The buffers of a search, kept by the solver between queries so that a
/// query's setup allocates nothing once they have grown: the box layout,
/// the per-constraint slot table, the root node, and the recycled node and
/// disjunction-box stacks. Every search refills or overwrites what it
/// reads before reading it.
#[derive(Debug, Default)]
struct Scratch {
    layout: BoxLayout,
    /// Constraint `i` reads slots `slots[offsets[i]..offsets[i + 1]]`, in
    /// [`DepGraph`] first-occurrence order.
    slots: Vec<u32>,
    offsets: Vec<u32>,
    /// Moved out into the running search and back when it finishes.
    root: Node,
    spare_nodes: Vec<Node>,
    spare_boxes: Vec<VarBox>,
}

impl Clone for Scratch {
    /// A clone starts empty: the buffers carry nothing between queries.
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    fn slots_of(&self, i: usize) -> &[u32] {
        &self.slots[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A search node: its box plus, per constraint, the box clock when its
/// last revise began and when its last enclosure ran (with the result).
/// `0` means "never". A child inherits its parent's records, so after the
/// branch variable is set only the constraints over it run again.
#[derive(Debug, Default)]
struct Node {
    vbox: VarBox,
    revised: Vec<u64>,
    enclosed: Vec<(u64, Bool3)>,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            vbox: self.vbox.clone(),
            revised: self.revised.clone(),
            enclosed: self.enclosed.clone(),
        }
    }

    fn clone_from(&mut self, other: &Self) {
        self.vbox.clone_from(&other.vbox);
        self.revised.clone_from(&other.revised);
        self.enclosed.clone_from(&other.enclosed);
    }
}

/// What one node step concluded about its box.
enum Step {
    /// A constraint is false on the whole box.
    Refuted,
    /// Every constraint is true on the whole box.
    Decided,
    /// The first constraint (by index) whose truth the box leaves open.
    Open(usize),
}

/// One branch-and-prune (or branch-and-count) search: the query's
/// constraints, the solver's scratch buffers (layout, the box slots each
/// constraint reads, and the recycled node and disjunction-box stacks that
/// keep node steps free of allocation) and the node budget.
struct Search<'q> {
    pool: &'q TermPool,
    constraints: &'q [TermId],
    scratch: Scratch,
    max_rounds: u32,
    budget: u64,
    nodes: u64,
}

impl Search<'_> {
    /// The node step shared by `sat` and `count`: HC4 contraction to a
    /// fixpoint (at most `max_rounds` rounds), then the three-valued
    /// enclosure of every constraint. A revise or enclosure reads only its
    /// constraint's variables, so when none of them changed since its last
    /// run, running it again is exactly a no-op and is skipped. A revise's
    /// record is the clock when it *began*, so a constraint that narrowed
    /// its own variables runs again next round (HC4-revise is not
    /// idempotent on `z*z`).
    fn step(&mut self, node: &mut Node) -> Step {
        let Node {
            vbox,
            revised,
            enclosed,
        } = node;
        let scratch = &mut self.scratch;
        let cx = Ctx {
            pool: self.pool,
            layout: &scratch.layout,
        };
        for _ in 0..self.max_rounds {
            let round_start = vbox.clock;
            for (i, &c) in self.constraints.iter().enumerate() {
                if !vbox.changed_since(scratch.slots_of(i), revised[i]) {
                    continue;
                }
                revised[i] = vbox.clock;
                if contract_bool(cx, c, true, vbox, &mut scratch.spare_boxes).is_err() {
                    return Step::Refuted;
                }
            }
            if vbox.clock == round_start {
                break;
            }
        }
        let mut open = None;
        for (i, &c) in self.constraints.iter().enumerate() {
            let (at, last) = enclosed[i];
            let truth = if vbox.changed_since(scratch.slots_of(i), at) {
                let truth = enclose_bool(cx, c, vbox);
                enclosed[i] = (vbox.clock, truth);
                truth
            } else {
                last
            };
            match truth {
                Bool3::False => return Step::Refuted,
                Bool3::True => {}
                Bool3::Unknown => {
                    open.get_or_insert(i);
                }
            }
        }
        match open {
            None => Step::Decided,
            Some(i) => Step::Open(i),
        }
    }

    /// Spends one node of the budget; `false` when it is exhausted.
    fn enter(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        self.nodes += 1;
        true
    }

    /// Runs `visit` on each child of `node` obtained by setting `slot` to
    /// one of `children` (in order, skipping empty ones) until it returns
    /// `true`. Every child but the last is a recycled copy of `node`; the
    /// last reuses `node` itself, which the parent no longer needs.
    fn branch(
        &mut self,
        node: &mut Node,
        slot: usize,
        children: &[Option<Interval>],
        mut visit: impl FnMut(&mut Self, &mut Node) -> bool,
    ) {
        let Some(last) = children.iter().rposition(Option::is_some) else {
            return;
        };
        for (k, child) in children.iter().enumerate() {
            let Some(child) = *child else { continue };
            if k == last {
                node.vbox.set_slot(slot, child);
                visit(self, node);
                return;
            }
            let mut sub = recycled_copy(node, &mut self.scratch.spare_nodes);
            sub.vbox.set_slot(slot, child);
            let stop = visit(self, &mut sub);
            self.scratch.spare_nodes.push(sub);
            if stop {
                return;
            }
        }
    }

    /// Branch-and-prune satisfiability of the box of `node`.
    fn sat(&mut self, node: &mut Node) -> SatResult {
        if !self.enter() {
            return SatResult::Unknown;
        }
        let open = match self.step(node) {
            Step::Refuted => return SatResult::Unsat,
            // Every assignment in the box satisfies the constraints.
            Step::Decided => return SatResult::Sat(node.vbox.midpoint_model(&self.scratch.layout)),
            Step::Open(i) => i,
        };
        // Branch on a variable of the first open constraint.
        let Some(slot) = narrowest_open_slot(self.scratch.slots_of(open), &node.vbox) else {
            // All variables are points yet a constraint is unknown: can only
            // happen through enclosure looseness; fall back to concrete check.
            let m = node.vbox.midpoint_model(&self.scratch.layout);
            return if m.satisfies(self.pool, self.constraints) {
                SatResult::Sat(m)
            } else {
                SatResult::Unsat
            };
        };
        let dom = node.vbox.ivs[slot];
        let mid = dom.midpoint();
        // Probe the midpoint first (fast sat), then the two halves around it.
        let children = [
            Some(Interval::point(mid)),
            Interval::new(dom.lo(), mid - 1),
            Interval::new(mid + 1, dom.hi()),
        ];
        let mut result = SatResult::Unsat;
        self.branch(node, slot, &children, |search, child| {
            match search.sat(child) {
                SatResult::Sat(m) => {
                    result = SatResult::Sat(m);
                    return true;
                }
                SatResult::Unsat => {}
                SatResult::Unknown => result = SatResult::Unknown,
            }
            false
        });
        result
    }

    /// Branch-and-count over the box of `node`, accumulating into `bounds`.
    fn count(&mut self, node: &mut Node, bounds: &mut CountBounds) {
        if !self.enter() {
            // Undecided remainder: count as possible but not certain.
            bounds.hi = bounds.hi.saturating_add(node.vbox.volume());
            return;
        }
        let open = match self.step(node) {
            // Refuted: contributes nothing.
            Step::Refuted => return,
            Step::Decided => {
                let v = node.vbox.volume();
                bounds.lo = bounds.lo.saturating_add(v);
                bounds.hi = bounds.hi.saturating_add(v);
                return;
            }
            Step::Open(i) => i,
        };
        let Some(slot) = narrowest_open_slot(self.scratch.slots_of(open), &node.vbox) else {
            // Point box with undecidable enclosure: concrete check.
            let m = node.vbox.midpoint_model(&self.scratch.layout);
            if m.satisfies(self.pool, self.constraints) {
                bounds.lo = bounds.lo.saturating_add(1);
                bounds.hi = bounds.hi.saturating_add(1);
            }
            return;
        };
        let dom = node.vbox.ivs[slot];
        let mid = dom.midpoint();
        let children = [
            Interval::new(dom.lo(), mid),
            Interval::new(mid + 1, dom.hi()),
        ];
        self.branch(node, slot, &children, |search, child| {
            search.count(child, bounds);
            false
        });
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

/// The part of a variable box shared by every box of one query: the
/// variables in slot order and, indexed by variable, each one's slot. Slot
/// order is first-occurrence order of the query's constraints —
/// semantically irrelevant (contraction is per variable, models are
/// emitted through a sorted map) but kept stable anyway. A layout lives in
/// the solver's scratch and is refilled per query; [`BoxLayout::clear`]
/// resets only the entries of the previous query's variables, so neither
/// step allocates once the table has grown to the pool's variables.
#[derive(Debug, Default)]
struct BoxLayout {
    vars: Vec<VarId>,
    /// `slot_of[v.index()]` is the slot of `v`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
}

/// The `slot_of` entry of a variable outside the layout.
const NO_SLOT: u32 = u32::MAX;

impl BoxLayout {
    /// Empties the layout.
    fn clear(&mut self) {
        for v in self.vars.drain(..) {
            self.slot_of[v.index()] = NO_SLOT;
        }
    }

    /// The slot of `v`, appending `v` as the next slot if it is new.
    fn insert(&mut self, v: VarId) -> usize {
        let i = v.index();
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, NO_SLOT);
        }
        if self.slot_of[i] == NO_SLOT {
            self.slot_of[i] = self.vars.len() as u32;
            self.vars.push(v);
        }
        self.slot_of[i] as usize
    }

    /// The slot of `v`, which must be in the layout.
    fn slot(&self, v: VarId) -> usize {
        match self.slot_of.get(v.index()) {
            Some(&s) if s != NO_SLOT => s as usize,
            _ => panic!("variable not in box"),
        }
    }
}

/// What every box operation of a query reads besides the box itself: the
/// term pool and the query's [`BoxLayout`].
#[derive(Clone, Copy)]
struct Ctx<'q> {
    pool: &'q TermPool,
    layout: &'q BoxLayout,
}

impl Ctx<'_> {
    /// The interval of variable `v` in `vbox`.
    fn get(self, vbox: &VarBox, v: VarId) -> Interval {
        vbox.ivs[self.layout.slot(v)]
    }
}

/// The current variable box: one interval per slot of the query's
/// [`BoxLayout`]. Boolean variables are encoded as `[0, 1]` intervals.
///
/// The box keeps a change clock: every change to a slot (through `narrow`,
/// `set_slot`, `copy_from` or `hull_of`) advances the clock and stamps the
/// slot with it, so "has any of these slots changed since clock `t`?" is a
/// scan of a few stamps. The layout is kept apart, once per query, so
/// copying a box copies only intervals and stamps.
#[derive(Debug, Default)]
struct VarBox {
    ivs: Vec<Interval>,
    stamps: Vec<u64>,
    clock: u64,
}

impl Clone for VarBox {
    fn clone(&self) -> Self {
        VarBox {
            ivs: self.ivs.clone(),
            stamps: self.stamps.clone(),
            clock: self.clock,
        }
    }

    /// Reuses `self`'s buffers: the search recycles boxes, so copying one
    /// into another allocates nothing.
    fn clone_from(&mut self, other: &Self) {
        self.ivs.clone_from(&other.ivs);
        self.stamps.clone_from(&other.stamps);
        self.clock = other.clock;
    }
}

impl VarBox {
    /// Refills the box with the initial domains of `layout`'s variables.
    /// The clock restarts at 1 and every stamp at 0, so clock value 0 can
    /// stand for "never" in the node records that compare against stamps.
    fn reset(&mut self, pool: &TermPool, layout: &BoxLayout, domains: &Domains, default: Interval) {
        self.ivs.clear();
        self.ivs.extend(
            layout
                .vars
                .iter()
                .map(|&v| initial_interval(pool, v, domains, default)),
        );
        self.stamps.clear();
        self.stamps.resize(self.ivs.len(), 0);
        self.clock = 1;
    }

    /// Whether any of `slots` changed after clock value `since`; always
    /// `true` for `since == 0` ("never").
    fn changed_since(&self, slots: &[u32], since: u64) -> bool {
        since == 0 || slots.iter().any(|&s| self.stamps[s as usize] > since)
    }

    /// Records a change of slot `i`.
    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.stamps[i] = self.clock;
    }

    fn set_slot(&mut self, i: usize, iv: Interval) {
        if self.ivs[i] != iv {
            self.ivs[i] = iv;
            self.touch(i);
        }
    }

    /// Narrows the domain of slot `i` to its intersection with `iv`.
    fn narrow(&mut self, i: usize, iv: Interval) -> Result<(), EmptyDomain> {
        let cur = self.ivs[i];
        match cur.intersect(iv) {
            Some(n) => {
                if n != cur {
                    self.ivs[i] = n;
                    self.touch(i);
                }
                Ok(())
            }
            None => Err(EmptyDomain),
        }
    }

    /// Replaces every domain by the hull of the corresponding domains of two
    /// sibling boxes (union-hull of a disjunction contraction).
    fn hull_of(&mut self, a: &VarBox, b: &VarBox) {
        for i in 0..self.ivs.len() {
            self.set_slot(i, a.ivs[i].hull(b.ivs[i]));
        }
    }

    fn copy_from(&mut self, other: &VarBox) {
        for i in 0..self.ivs.len() {
            self.set_slot(i, other.ivs[i]);
        }
    }

    /// Number of integer points in the box (saturating).
    fn volume(&self) -> u128 {
        self.ivs
            .iter()
            .fold(1u128, |acc, iv| acc.saturating_mul(iv.width() as u128))
    }

    fn midpoint_model(&self, layout: &BoxLayout) -> Model {
        let mut m = Model::new();
        for (i, &v) in layout.vars.iter().enumerate() {
            m.set(v, self.ivs[i].midpoint());
        }
        m
    }
}

struct EmptyDomain;

/// The starting interval of a variable: `[0, 1]` for booleans, the
/// configured (or default) domain for integers.
fn initial_interval(pool: &TermPool, v: VarId, domains: &Domains, default: Interval) -> Interval {
    match pool.var_sort(v) {
        Sort::Bool => Interval::of(0, 1),
        Sort::Int => domains.get(v).unwrap_or(default),
    }
}

/// Forward evaluation: an interval enclosure of an integer term.
fn enclose_int(cx: Ctx<'_>, t: TermId, vbox: &VarBox) -> Interval {
    match cx.pool.data(t) {
        TermData::IntConst(v) => Interval::point(v),
        TermData::Var(v) => cx.get(vbox, v),
        // Hash-consing makes a repeated operand the same term, so `t * t`
        // encloses as a square (`z*z` over [-k, k] is [0, k²], not [-k², k²]).
        TermData::Arith(ArithOp::Mul, a, b) if a == b => enclose_int(cx, a, vbox).sqr(),
        TermData::Arith(op, a, b) => {
            let ia = enclose_int(cx, a, vbox);
            let ib = enclose_int(cx, b, vbox);
            match op {
                ArithOp::Add => ia.add(ib),
                ArithOp::Sub => ia.sub(ib),
                ArithOp::Mul => ia.mul(ib),
                ArithOp::Div => ia.div_total(ib),
                ArithOp::Rem => ia.rem_total(ib),
            }
        }
        TermData::Neg(a) => enclose_int(cx, a, vbox).neg(),
        TermData::Ite(c, a, b) => match enclose_bool(cx, c, vbox) {
            Bool3::True => enclose_int(cx, a, vbox),
            Bool3::False => enclose_int(cx, b, vbox),
            Bool3::Unknown => enclose_int(cx, a, vbox).hull(enclose_int(cx, b, vbox)),
        },
        // Ill-sorted; treat as zero (cannot happen for well-typed queries).
        _ => Interval::point(0),
    }
}

/// Forward evaluation: three-valued truth of a boolean term.
fn enclose_bool(cx: Ctx<'_>, t: TermId, vbox: &VarBox) -> Bool3 {
    match cx.pool.data(t) {
        TermData::BoolConst(true) => Bool3::True,
        TermData::BoolConst(false) => Bool3::False,
        TermData::Var(v) => {
            let iv = cx.get(vbox, v);
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
        TermData::Not(a) => enclose_bool(cx, a, vbox).not(),
        TermData::And(a, b) => enclose_bool(cx, a, vbox).and(enclose_bool(cx, b, vbox)),
        TermData::Or(a, b) => enclose_bool(cx, a, vbox).or(enclose_bool(cx, b, vbox)),
        TermData::Cmp(op, a, b) => {
            let ia = enclose_int(cx, a, vbox);
            let ib = enclose_int(cx, b, vbox);
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

/// Backward contraction (HC4-revise): require the boolean term `t` to have
/// truth value `required`, narrowing variable domains in `vbox`. Reads and
/// narrows only the variables of `t`, as a function of their intervals
/// alone — the fact the stamped search node relies on. `spare` recycles the
/// working boxes of disjunctions.
fn contract_bool(
    cx: Ctx<'_>,
    t: TermId,
    required: bool,
    vbox: &mut VarBox,
    spare: &mut Vec<VarBox>,
) -> Result<(), EmptyDomain> {
    match cx.pool.data(t) {
        TermData::BoolConst(b) => {
            if b == required {
                Ok(())
            } else {
                Err(EmptyDomain)
            }
        }
        TermData::Var(v) => {
            let target = if required { 1 } else { 0 };
            vbox.narrow(cx.layout.slot(v), Interval::point(target))
        }
        TermData::Not(a) => contract_bool(cx, a, !required, vbox, spare),
        TermData::And(a, b) => {
            if required {
                contract_bool(cx, a, true, vbox, spare)?;
                contract_bool(cx, b, true, vbox, spare)
            } else {
                contract_binary_disjunct(cx, (a, false), (b, false), vbox, spare)
            }
        }
        TermData::Or(a, b) => {
            if required {
                contract_binary_disjunct(cx, (a, true), (b, true), vbox, spare)
            } else {
                contract_bool(cx, a, false, vbox, spare)?;
                contract_bool(cx, b, false, vbox, spare)
            }
        }
        TermData::Cmp(op, a, b) => {
            let eff = if required { op } else { op.negate() };
            contract_cmp(cx, eff, a, b, vbox, spare)
        }
        // Ill-sorted boolean position; no contraction.
        _ => Ok(()),
    }
}

/// Union-hull contraction through `lhs ∨ rhs` (or the dual for `¬(a ∧ b)`):
/// contracts each disjunct on a copy of the box and takes the per-variable
/// hull of the surviving copies. The copies come from `spare`, a stack of
/// recycled boxes, and go back onto it, so a search allocates working
/// boxes only up to its deepest nesting of disjunctions, once.
fn contract_binary_disjunct(
    cx: Ctx<'_>,
    (a, ra): (TermId, bool),
    (b, rb): (TermId, bool),
    vbox: &mut VarBox,
    spare: &mut Vec<VarBox>,
) -> Result<(), EmptyDomain> {
    let mut box_a = recycled_copy(vbox, spare);
    let ok_a = contract_bool(cx, a, ra, &mut box_a, spare).is_ok();
    let mut box_b = recycled_copy(vbox, spare);
    let ok_b = contract_bool(cx, b, rb, &mut box_b, spare).is_ok();
    let result = match (ok_a, ok_b) {
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
    };
    spare.push(box_a);
    spare.push(box_b);
    result
}

/// A copy of `of`, made in a value popped from `spare` (whose buffers
/// `clone_from` reuses), or a fresh clone when `spare` is empty.
fn recycled_copy<T: Clone>(of: &T, spare: &mut Vec<T>) -> T {
    match spare.pop() {
        Some(mut t) => {
            t.clone_from(of);
            t
        }
        None => of.clone(),
    }
}

/// HC4-revise for a comparison atom.
fn contract_cmp(
    cx: Ctx<'_>,
    op: CmpOp,
    a: TermId,
    b: TermId,
    vbox: &mut VarBox,
    spare: &mut Vec<VarBox>,
) -> Result<(), EmptyDomain> {
    let ia = enclose_int(cx, a, vbox);
    let ib = enclose_int(cx, b, vbox);
    match op {
        CmpOp::Eq => {
            let meet = ia.intersect(ib).ok_or(EmptyDomain)?;
            push_int(cx, a, meet, vbox, spare)?;
            push_int(cx, b, meet, vbox, spare)
        }
        CmpOp::Ne => {
            if ia.is_point() && ib.is_point() && ia.lo() == ib.lo() {
                return Err(EmptyDomain);
            }
            if ib.is_point() {
                if let Some(na) = ia.remove_endpoint(ib.lo()) {
                    push_int(cx, a, na, vbox, spare)?;
                } else {
                    return Err(EmptyDomain);
                }
            }
            if ia.is_point() {
                if let Some(nb) = ib.remove_endpoint(ia.lo()) {
                    push_int(cx, b, nb, vbox, spare)?;
                } else {
                    return Err(EmptyDomain);
                }
            }
            Ok(())
        }
        CmpOp::Lt => {
            let na = ia.below_strict(ib).ok_or(EmptyDomain)?;
            let nb = ib.above_strict(ia).ok_or(EmptyDomain)?;
            push_int(cx, a, na, vbox, spare)?;
            push_int(cx, b, nb, vbox, spare)
        }
        CmpOp::Le => {
            let na = ia.below(ib).ok_or(EmptyDomain)?;
            let nb = ib.above(ia).ok_or(EmptyDomain)?;
            push_int(cx, a, na, vbox, spare)?;
            push_int(cx, b, nb, vbox, spare)
        }
        CmpOp::Gt => contract_cmp(cx, CmpOp::Lt, b, a, vbox, spare),
        CmpOp::Ge => contract_cmp(cx, CmpOp::Le, b, a, vbox, spare),
    }
}

/// Backward pass: require the integer term `t` to take a value inside `iv`,
/// narrowing variable domains.
fn push_int(
    cx: Ctx<'_>,
    t: TermId,
    iv: Interval,
    vbox: &mut VarBox,
    spare: &mut Vec<VarBox>,
) -> Result<(), EmptyDomain> {
    match cx.pool.data(t) {
        TermData::IntConst(v) => {
            if iv.contains(v) {
                Ok(())
            } else {
                Err(EmptyDomain)
            }
        }
        TermData::Var(v) => vbox.narrow(cx.layout.slot(v), iv),
        TermData::Neg(a) => push_int(cx, a, iv.neg(), vbox, spare),
        TermData::Arith(op, a, b) => {
            let ia = enclose_int(cx, a, vbox);
            let ib = enclose_int(cx, b, vbox);
            match op {
                ArithOp::Add => {
                    let na = Interval::back_add(iv, ib, ia).ok_or(EmptyDomain)?;
                    let nb = Interval::back_add(iv, ia, ib).ok_or(EmptyDomain)?;
                    push_int(cx, a, na, vbox, spare)?;
                    push_int(cx, b, nb, vbox, spare)
                }
                ArithOp::Sub => {
                    let na = Interval::back_sub_lhs(iv, ib, ia).ok_or(EmptyDomain)?;
                    let nb = Interval::back_sub_rhs(iv, ia, ib).ok_or(EmptyDomain)?;
                    push_int(cx, a, na, vbox, spare)?;
                    push_int(cx, b, nb, vbox, spare)
                }
                ArithOp::Mul => {
                    if let Some(na) = Interval::back_mul(iv, ib, ia) {
                        push_int(cx, a, na, vbox, spare)?;
                    } else {
                        return Err(EmptyDomain);
                    }
                    if let Some(nb) = Interval::back_mul(iv, ia, ib) {
                        push_int(cx, b, nb, vbox, spare)
                    } else {
                        Err(EmptyDomain)
                    }
                }
                // Division/remainder: forward-only (sound, no contraction).
                ArithOp::Div | ArithOp::Rem => Ok(()),
            }
        }
        TermData::Ite(c, a, b) => match enclose_bool(cx, c, vbox) {
            Bool3::True => push_int(cx, a, iv, vbox, spare),
            Bool3::False => push_int(cx, b, iv, vbox, spare),
            Bool3::Unknown => {
                let ia = enclose_int(cx, a, vbox);
                let ib = enclose_int(cx, b, vbox);
                match (ia.intersect(iv), ib.intersect(iv)) {
                    (None, None) => Err(EmptyDomain),
                    (Some(_), None) => {
                        contract_bool(cx, c, true, vbox, spare)?;
                        push_int(cx, a, iv, vbox, spare)
                    }
                    (None, Some(_)) => {
                        contract_bool(cx, c, false, vbox, spare)?;
                        push_int(cx, b, iv, vbox, spare)
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
    fn static_contradictions_are_refuted_without_branching() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let five = p.int(5);
        let mut d = Domains::new();
        d.bound(xv, -1000, 1000);
        let f = p.ff();
        let g = p.gt(x, five);
        let ng = p.not(g);
        let l = p.lt(x, five);
        let k = p.int(1000);
        let over = p.gt(x, k);
        // Constant false and a complementary pair need no search node;
        // contraction (x < 5 ∧ x > 5) and the domain (x > 1000 with
        // x ∈ [-1000, 1000]) refute at the root node.
        for (q, nodes) in [
            (vec![f], 0),
            (vec![g, ng], 0),
            (vec![l, g], 1),
            (vec![over], 1),
        ] {
            let before = s.stats().nodes;
            assert!(s.check(&p, &q, &d).is_unsat(), "{q:?}");
            assert_eq!(s.stats().nodes - before, nodes, "{q:?}");
        }
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
    fn branching_picks_the_narrowest_open_variable() {
        let mut p = TermPool::new();
        let vars: Vec<VarId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| p.var(n, Sort::Int))
            .collect();
        let mut d = Domains::new();
        d.bound(vars[0], 5, 5); // a point: never branched on
        d.bound(vars[1], 0, 99);
        d.bound(vars[2], -3, 3); // width 7
        d.bound(vars[3], 10, 16); // width 7 too
        d.bound(vars[4], 0, 1); // width 2: the narrowest still open
        let mut layout = BoxLayout::default();
        for &v in &vars {
            layout.insert(v);
        }
        let mut vbox = VarBox::default();
        vbox.reset(&p, &layout, &d, Interval::of(-10, 10));
        assert_eq!(narrowest_open_slot(&[0, 1, 2, 3, 4], &vbox), Some(4));
        assert_eq!(narrowest_open_slot(&[0, 1, 2, 3], &vbox), Some(2));
        // Ties go to the slot listed first, not the lower slot.
        assert_eq!(narrowest_open_slot(&[3, 2], &vbox), Some(3));
        assert_eq!(narrowest_open_slot(&[1], &vbox), Some(1));
        assert_eq!(narrowest_open_slot(&[0], &vbox), None);
        assert_eq!(narrowest_open_slot(&[], &vbox), None);
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
    fn check_caches_the_canonical_query() {
        let (mut p, mut s) = setup();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let zero = p.int(0);
        let a = p.gt(x, zero);
        let b = p.lt(x, zero);
        let t = p.tt();
        let d = Domains::new();
        // Order-insensitive, `true` dropped, duplicates removed: one entry.
        assert!(s.check(&p, &[a, b, t, a], &d).is_unsat());
        assert!(s.check(&p, &[b, a], &d).is_unsat());
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.cache_entries(), 1);
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
