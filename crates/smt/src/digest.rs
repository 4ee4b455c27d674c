//! Content digests for terms: 128-bit structural hashes that are stable
//! across processes and independent of `TermId` assignment.
//!
//! The fleet cache (see [`crate::fleet`]) must key solver verdicts so that
//! two processes — or two runs of one process — interning the same
//! constraints in different orders produce the *same* key. `TermId`s are
//! interning-order-dependent, so the canonical in-process query key
//! (`CanonicalQuery`, sorted ids) cannot leave the process. A content
//! digest can: it hashes a term's structure bottom-up — the same tags the
//! [`TermPool::write_wire`] codec assigns, with variables hashed by *name*
//! and sort rather than by `VarId` — so structurally identical terms built
//! in any order, in any pool, digest identically. The property test below
//! pins exactly that contract.
//!
//! Digests also give queries a pool-independent *total order*: the solver
//! answers every query with its constraints iterated in content-digest
//! order (ties broken by `TermId`), which makes the bounded search trace —
//! and therefore the verdict, including `Unknown` cutoffs and `Sat`
//! witness models — a pure function of constraint *content* rather than of
//! interning history. That purity is what lets a fleet-cached verdict
//! stand in for a local search without changing any answer.

use std::collections::BTreeMap;

use crate::interval::Interval;
use crate::solver::{Domains, SolverConfig};
use crate::term::{arith_op_tag, cmp_op_tag, Sort, TermData, TermId, TermPool};
use crate::wire::{fnv1a, ByteWriter};

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Running FNV-1a-128 hasher over byte-sized inputs.
#[derive(Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// The content digest of a leaf or of a node whose children are already
/// digested. Tags mirror [`TermPool::write_wire`] exactly, so the digest
/// is pinned to the same structural alphabet the codec is.
fn combine(pool: &TermPool, data: TermData, child: impl Fn(TermId) -> u128) -> u128 {
    let mut h = Fnv128::new();
    match data {
        TermData::BoolConst(b) => {
            h.byte(0);
            h.byte(b as u8);
        }
        TermData::IntConst(v) => {
            h.byte(1);
            h.bytes(&v.to_le_bytes());
        }
        TermData::Var(v) => {
            // By name + sort, never by id: the whole point is stability
            // across pools that assigned `VarId`s in different orders.
            h.byte(2);
            let name = pool.var_name(v);
            h.bytes(&(name.len() as u32).to_le_bytes());
            h.bytes(name.as_bytes());
            h.byte(match pool.var_sort(v) {
                Sort::Bool => 0,
                Sort::Int => 1,
            });
        }
        TermData::Not(a) => {
            h.byte(3);
            h.u128(child(a));
        }
        TermData::And(a, b) => {
            h.byte(4);
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Or(a, b) => {
            h.byte(5);
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Cmp(op, a, b) => {
            h.byte(6);
            h.byte(cmp_op_tag(op));
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Arith(op, a, b) => {
            h.byte(7);
            h.byte(arith_op_tag(op));
            h.u128(child(a));
            h.u128(child(b));
        }
        TermData::Neg(a) => {
            h.byte(8);
            h.u128(child(a));
        }
        TermData::Ite(c, a, b) => {
            h.byte(9);
            h.u128(child(c));
            h.u128(child(a));
            h.u128(child(b));
        }
    }
    h.finish()
}

/// Lazily-synced table of per-term content digests, mirroring the
/// [`crate::deps::DepGraph`] pattern: children always precede parents in a
/// hash-consing pool, so one forward pass extends the table to the pool's
/// current length and a lookup costs an index.
#[derive(Debug, Default, Clone)]
pub(crate) struct TermDigests {
    table: Vec<u128>,
}

impl TermDigests {
    /// Whether `t`'s digest is cached.
    pub(crate) fn covers(&self, t: TermId) -> bool {
        t.index() < self.table.len()
    }

    /// The digest of a covered term.
    pub(crate) fn get(&self, t: TermId) -> u128 {
        self.table[t.index()]
    }

    /// Extends the table to cover every term currently in `pool`.
    pub(crate) fn sync(&mut self, pool: &TermPool) {
        let n = pool.len();
        if self.table.len() >= n {
            return;
        }
        self.table.reserve(n - self.table.len());
        for i in self.table.len()..n {
            let t = TermId(i as u32);
            let d = combine(pool, pool.data(t), |c| self.table[c.index()]);
            self.table.push(d);
        }
    }

    /// Digests of `terms` without requiring coverage: uses the synced
    /// table when it covers everything, and otherwise runs a local
    /// forward pass (the `&self` entry points — root refutation, conflict
    /// minimization — cannot sync the shared table).
    pub(crate) fn of_terms(&self, pool: &TermPool, terms: &[TermId]) -> Vec<u128> {
        if terms.iter().all(|&t| self.covers(t)) {
            return terms.iter().map(|&t| self.get(t)).collect();
        }
        let hi = terms.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut local: Vec<u128> = Vec::with_capacity(hi);
        for i in 0..hi {
            let t = TermId(i as u32);
            let d = combine(pool, pool.data(t), |c| local[c.index()]);
            local.push(d);
        }
        terms.iter().map(|&t| local[t.index()]).collect()
    }

    /// Reorders `live` into content-canonical order: ascending by content
    /// digest, ties (structurally identical terms cannot coexist in one
    /// hash-consed pool, so ties require a digest collision) broken by
    /// `TermId` for total determinism in-process. The table must cover
    /// every term of `live` ([`TermDigests::sync`] first).
    pub(crate) fn sort_by_content(&self, live: &[TermId]) -> Vec<TermId> {
        let mut sorted = live.to_vec();
        sorted.sort_unstable_by_key(|&t| (self.get(t), t));
        sorted
    }
}

/// Version of the `check` semantics themselves: bumped whenever the
/// search can answer differently on identical content + knobs (e.g. v2
/// added the relational zone pass at the root, turning some budget-capped
/// `Unknown`s into `Unsat`; v3 encloses `t*t` as a square, which decides
/// some `Unknown`s and changes some models; v4 removes the root zone pass,
/// so a query it refuted at one node is searched, and may need more nodes
/// or end `Unknown`). Folding it into every fleet key retires stale
/// persisted verdicts wholesale instead of replaying them, and the fleet
/// log header carries it so a stale log is not loaded at all.
pub(crate) const CHECK_SEMANTICS_VERSION: u32 = 4;

/// The domain-environment half of a fleet key: a 64-bit digest over the
/// solver knobs that can change a verdict (node budget, contraction
/// rounds, default domain) and the per-variable domains, with variables
/// identified by *name* so the digest is pool-independent. Two queries
/// share a fleet entry only when their constraint content, their domain
/// environment, and every verdict-relevant knob agree — which is what
/// makes a stored verdict an exact replay of the local search.
pub(crate) fn fleet_domain_digest(
    pool: &TermPool,
    domains: &Domains,
    config: &SolverConfig,
) -> u64 {
    let mut w = ByteWriter::new();
    w.u32(CHECK_SEMANTICS_VERSION);
    w.u64(config.max_nodes);
    w.u32(config.max_contraction_rounds);
    w.i64(config.default_domain.lo());
    w.i64(config.default_domain.hi());
    // `Domains` iterates in `VarId` order; re-key by name so two pools
    // that interned the variables in different orders digest identically.
    let by_name: BTreeMap<&str, Interval> = domains
        .iter()
        .map(|(v, iv)| (pool.var_name(v), iv))
        .collect();
    w.usize(by_name.len());
    for (name, iv) in by_name {
        w.str(name);
        w.i64(iv.lo());
        w.i64(iv.hi());
    }
    fnv1a(w.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Domains;

    /// Builds `(x > 3) ∧ (x + y <= z * 2) ∧ ite(y < 0, x, y) != 7` with
    /// the sub-terms interned in the order `order` dictates, returning the
    /// three constraint terms.
    fn build(pool: &mut TermPool, order: &[usize]) -> Vec<TermId> {
        // Interning unrelated terms first shifts every id without
        // changing any content.
        for &pad in order {
            for k in 0..pad {
                let c = pool.int(1000 + k as i64);
                let v = pool.named_var(["p", "q", "r"][k % 3], Sort::Int);
                let _ = pool.add(c, v);
            }
        }
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let z = pool.named_var("z", Sort::Int);
        let three = pool.int(3);
        let two = pool.int(2);
        let seven = pool.int(7);
        let zero = pool.int(0);
        let c1 = pool.gt(x, three);
        let sum = pool.add(x, y);
        let dbl = pool.mul(z, two);
        let c2 = pool.le(sum, dbl);
        let cond = pool.lt(y, zero);
        let sel = pool.ite(cond, x, y);
        let c3 = pool.ne(sel, seven);
        vec![c1, c2, c3]
    }

    #[test]
    fn digests_are_stable_across_interning_order() {
        // The content-addressing contract the fleet cache depends on:
        // the same query built in two pools, with different creation
        // orders (and different id paddings), digests identically.
        let mut pool_a = TermPool::new();
        let cs_a = build(&mut pool_a, &[0]);
        let mut pool_b = TermPool::new();
        let cs_b = build(&mut pool_b, &[7, 3]);

        let mut da = TermDigests::default();
        da.sync(&pool_a);
        let mut db = TermDigests::default(); // exercise the uncovered fallback
        let digests_a = da.of_terms(&pool_a, &cs_a);
        let digests_b = db.of_terms(&pool_b, &cs_b);
        assert_eq!(
            digests_a, digests_b,
            "content digests must not depend on ids"
        );
        // Ids genuinely differ between the pools, so equality above is
        // not vacuous.
        assert_ne!(cs_a, cs_b, "test must exercise different id assignments");

        // The content order is id-independent too.
        db.sync(&pool_b);
        let sorted_a = da.sort_by_content(&cs_a);
        let sorted_b = db.sort_by_content(&cs_b);
        let names = |pool: &TermPool, ts: &[TermId]| -> Vec<u128> {
            let d = TermDigests::default();
            d.of_terms(pool, ts)
        };
        assert_eq!(names(&pool_a, &sorted_a), names(&pool_b, &sorted_b));
    }

    #[test]
    fn distinct_content_gets_distinct_digests() {
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let five = pool.int(5);
        let a = pool.lt(x, five);
        let b = pool.lt(y, five);
        let c = pool.le(x, five);
        let mut d = TermDigests::default();
        d.sync(&pool);
        assert_ne!(d.get(a), d.get(b), "different variables");
        assert_ne!(d.get(a), d.get(c), "different comparison ops");
    }

    #[test]
    fn fleet_domain_digest_is_name_keyed_and_knob_sensitive() {
        let mut pool_a = TermPool::new();
        let ax = pool_a.var("x", Sort::Int);
        let ay = pool_a.var("y", Sort::Int);
        let mut pool_b = TermPool::new();
        // Opposite interning order: different VarIds, same names.
        let by = pool_b.var("y", Sort::Int);
        let bx = pool_b.var("x", Sort::Int);

        let config = SolverConfig::default();
        let mut da = Domains::new();
        da.bound(ax, -5, 5).bound(ay, 0, 9);
        let mut db = Domains::new();
        db.bound(bx, -5, 5).bound(by, 0, 9);
        assert_eq!(
            fleet_domain_digest(&pool_a, &da, &config),
            fleet_domain_digest(&pool_b, &db, &config),
        );

        let mut narrower = SolverConfig::default();
        narrower.max_nodes /= 2;
        assert_ne!(
            fleet_domain_digest(&pool_a, &da, &config),
            fleet_domain_digest(&pool_a, &da, &narrower),
            "a verdict-relevant knob must change the digest"
        );
    }

    /// Pins the fleet key of one fixed domain environment. A change to
    /// what `check` answers on identical content and knobs must bump
    /// `CHECK_SEMANTICS_VERSION` (so persisted verdicts from older
    /// binaries stop matching) and re-pin this value; a change to the
    /// digest's layout must re-pin it too.
    #[test]
    fn fleet_domain_digest_is_pinned() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Int);
        let y = pool.var("y", Sort::Int);
        let mut domains = Domains::new();
        domains.bound(x, -5, 5).bound(y, 0, 9);
        let digest = fleet_domain_digest(&pool, &domains, &SolverConfig::default());
        assert_eq!(CHECK_SEMANTICS_VERSION, 4);
        assert_eq!(
            digest, 10_531_197_721_343_242_511,
            "fleet key changed: re-pin it on purpose"
        );
    }
}
