//! Content digests for terms: 128-bit structural hashes that are stable
//! across pools and independent of `TermId` assignment.
//!
//! A digest hashes a term's structure bottom-up — the same tags the
//! [`TermPool::write_wire`] codec assigns, with variables hashed by *name*
//! and sort rather than by `VarId` — so structurally identical terms built
//! in any order, in any pool, digest identically. The property test below
//! pins exactly that contract.
//!
//! Digests give queries a pool-independent *total order*: the solver
//! answers every query with its constraints iterated in content-digest
//! order (ties broken by `TermId`), which makes the bounded search trace —
//! and therefore the verdict, including `Unknown` cutoffs and `Sat`
//! witness models — a pure function of constraint *content* rather than of
//! interning history. Parallel phases intern into per-worker pool forks,
//! so the same query can carry different ids depending on which worker
//! built it and how many threads ran; answering in content order is what
//! keeps repair reports identical across thread counts.

use crate::term::{arith_op_tag, cmp_op_tag, Sort, TermData, TermId, TermPool};

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

#[cfg(test)]
mod tests {
    use super::*;

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
        // The content-addressing contract the answer order depends on:
        // the same query built in two pools, with different creation
        // orders (and different id paddings), digests identically.
        let mut pool_a = TermPool::new();
        let cs_a = build(&mut pool_a, &[0]);
        let mut pool_b = TermPool::new();
        let cs_b = build(&mut pool_b, &[7, 3]);

        let mut da = TermDigests::default();
        da.sync(&pool_a);
        let mut db = TermDigests::default();
        db.sync(&pool_b);
        let digests = |d: &TermDigests, ts: &[TermId]| -> Vec<u128> {
            ts.iter().map(|&t| d.get(t)).collect()
        };
        assert_eq!(
            digests(&da, &cs_a),
            digests(&db, &cs_b),
            "content digests must not depend on ids"
        );
        // Ids genuinely differ between the pools, so equality above is
        // not vacuous.
        assert_ne!(cs_a, cs_b, "test must exercise different id assignments");

        // The content order is id-independent too.
        let sorted_a = da.sort_by_content(&cs_a);
        let sorted_b = db.sort_by_content(&cs_b);
        assert_eq!(digests(&da, &sorted_a), digests(&db, &sorted_b));
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
}
