//! Hash-consed term language: sorts, variables, terms and the [`TermPool`].

use std::collections::HashMap;
use std::fmt;

/// The sort (type) of a term or variable: boolean or bounded integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Integer sort (mathematical integers clamped to the solver's bounds).
    Int,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
        }
    }
}

/// An interned variable. Obtained from [`TermPool::var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw index of this variable inside its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consed term. Obtained from the constructor methods on [`TermPool`].
///
/// Equal `TermId`s from the same pool denote structurally identical terms,
/// so equality and hashing are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of this term inside its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// The comparison satisfied exactly when `self` is not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The comparison with operand order swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply the comparison to two concrete integers.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "distinct",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary arithmetic operators. Division and remainder are *total*: the
/// result of dividing by zero is defined as `0`, mirroring the guarded
/// semantics of the concolic engine (the actual divide-by-zero *crash* is
/// modelled by an explicit specification constraint, not by the term
/// algebra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating; total with `x / 0 = 0`)
    Div,
    /// remainder (total with `x rem 0 = 0`)
    Rem,
}

impl ArithOp {
    /// Apply the operator to concrete integers with saturating overflow
    /// semantics (values are clamped to `i64` limits; subject programs keep
    /// well inside them).
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            ArithOp::Add => a.saturating_add(b),
            ArithOp::Sub => a.saturating_sub(b),
            ArithOp::Mul => a.saturating_mul(b),
            ArithOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            ArithOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Rem => "rem",
        };
        write!(f, "{s}")
    }
}

/// The shape of a term. Most users construct terms through [`TermPool`]
/// methods and only inspect `TermData` when traversing formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermData {
    /// Boolean constant.
    BoolConst(bool),
    /// Integer constant.
    IntConst(i64),
    /// Variable reference.
    Var(VarId),
    /// Logical negation.
    Not(TermId),
    /// Conjunction.
    And(TermId, TermId),
    /// Disjunction.
    Or(TermId, TermId),
    /// Comparison of two integer terms.
    Cmp(CmpOp, TermId, TermId),
    /// Binary arithmetic.
    Arith(ArithOp, TermId, TermId),
    /// Unary integer negation.
    Neg(TermId),
    /// If-then-else over integers (`cond` is boolean, branches are integers).
    Ite(TermId, TermId, TermId),
}

#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    sort: Sort,
}

/// Arena of hash-consed terms and interned variables.
///
/// All terms referencing each other must come from the same pool; `TermId`s
/// are meaningless across pools.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    terms: Vec<TermData>,
    dedup: HashMap<TermData, TermId>,
    vars: Vec<VarInfo>,
    var_names: HashMap<String, VarId>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool contains no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a variable with the given name and sort, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the same name but *different* sort already
    /// exists — a name identifies one variable per pool.
    pub fn var(&mut self, name: &str, sort: Sort) -> VarId {
        if let Some(&v) = self.var_names.get(name) {
            assert_eq!(
                self.vars[v.index()].sort,
                sort,
                "variable {name} re-declared with different sort"
            );
            return v;
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            sort,
        });
        self.var_names.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_names.get(name).copied()
    }

    /// The name a variable was interned with.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// The sort of a variable.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.vars[v.index()].sort
    }

    /// Number of interned variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The structure of a term.
    pub fn data(&self, t: TermId) -> TermData {
        self.terms[t.index()]
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        match self.data(t) {
            TermData::BoolConst(_)
            | TermData::Not(_)
            | TermData::And(..)
            | TermData::Or(..)
            | TermData::Cmp(..) => Sort::Bool,
            TermData::IntConst(_) | TermData::Arith(..) | TermData::Neg(_) | TermData::Ite(..) => {
                Sort::Int
            }
            TermData::Var(v) => self.var_sort(v),
        }
    }

    /// Interns `data` as is, past the constructors' folding: the shapes a
    /// decoded pool may hold (e.g. `Neg` of a constant).
    #[cfg(test)]
    pub(crate) fn intern_unfolded(&mut self, data: TermData) -> TermId {
        self.intern(data)
    }

    fn intern(&mut self, data: TermData) -> TermId {
        if let Some(&t) = self.dedup.get(&data) {
            return t;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data);
        self.dedup.insert(data, id);
        id
    }

    /// Boolean constant `true`.
    pub fn tt(&mut self) -> TermId {
        self.intern(TermData::BoolConst(true))
    }

    /// Boolean constant `false`.
    pub fn ff(&mut self) -> TermId {
        self.intern(TermData::BoolConst(false))
    }

    /// Boolean constant of the given value.
    pub fn bool(&mut self, b: bool) -> TermId {
        self.intern(TermData::BoolConst(b))
    }

    /// Integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.intern(TermData::IntConst(v))
    }

    /// Term referring to a variable.
    pub fn var_term(&mut self, v: VarId) -> TermId {
        self.intern(TermData::Var(v))
    }

    /// Convenience: interns the variable and returns its term in one call.
    pub fn named_var(&mut self, name: &str, sort: Sort) -> TermId {
        let v = self.var(name, sort);
        self.var_term(v)
    }

    /// Logical negation (with light local simplification).
    pub fn not(&mut self, t: TermId) -> TermId {
        match self.data(t) {
            TermData::BoolConst(b) => self.bool(!b),
            TermData::Not(inner) => inner,
            TermData::Cmp(op, a, b) => self.intern(TermData::Cmp(op.negate(), a, b)),
            _ => self.intern(TermData::Not(t)),
        }
    }

    /// Conjunction (with unit/absorption simplification).
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.data(a), self.data(b)) {
            (TermData::BoolConst(true), _) => b,
            (_, TermData::BoolConst(true)) => a,
            (TermData::BoolConst(false), _) | (_, TermData::BoolConst(false)) => self.ff(),
            _ if a == b => a,
            _ => self.intern(TermData::And(a, b)),
        }
    }

    /// Disjunction (with unit/absorption simplification).
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.data(a), self.data(b)) {
            (TermData::BoolConst(false), _) => b,
            (_, TermData::BoolConst(false)) => a,
            (TermData::BoolConst(true), _) | (_, TermData::BoolConst(true)) => self.tt(),
            _ if a == b => a,
            _ => self.intern(TermData::Or(a, b)),
        }
    }

    /// Conjunction of an arbitrary number of terms (`true` when empty).
    pub fn and_many<I: IntoIterator<Item = TermId>>(&mut self, terms: I) -> TermId {
        let mut acc = self.tt();
        for t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction of an arbitrary number of terms (`false` when empty).
    pub fn or_many<I: IntoIterator<Item = TermId>>(&mut self, terms: I) -> TermId {
        let mut acc = self.ff();
        for t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// Implication `a ⇒ b`, encoded as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Bi-implication `a ⇔ b`, encoded as `(a ⇒ b) ∧ (b ⇒ a)`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(ab, ba)
    }

    /// Comparison term (with constant folding).
    pub fn cmp(&mut self, op: CmpOp, a: TermId, b: TermId) -> TermId {
        if let (TermData::IntConst(x), TermData::IntConst(y)) = (self.data(a), self.data(b)) {
            return self.bool(op.apply(x, y));
        }
        if a == b {
            return self.bool(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge));
        }
        self.intern(TermData::Cmp(op, a, b))
    }

    /// `a = b`
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Eq, a, b)
    }
    /// `a ≠ b`
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Ne, a, b)
    }
    /// `a < b`
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Lt, a, b)
    }
    /// `a ≤ b`
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Le, a, b)
    }
    /// `a > b`
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Gt, a, b)
    }
    /// `a ≥ b`
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.cmp(CmpOp::Ge, a, b)
    }

    /// Arithmetic term (with constant folding and unit simplification).
    pub fn arith(&mut self, op: ArithOp, a: TermId, b: TermId) -> TermId {
        if let (TermData::IntConst(x), TermData::IntConst(y)) = (self.data(a), self.data(b)) {
            return self.int(op.apply(x, y));
        }
        match (op, self.data(a), self.data(b)) {
            (ArithOp::Add, TermData::IntConst(0), _) => return b,
            (ArithOp::Add, _, TermData::IntConst(0)) | (ArithOp::Sub, _, TermData::IntConst(0)) => {
                return a
            }
            (ArithOp::Mul, TermData::IntConst(1), _) => return b,
            (ArithOp::Mul, _, TermData::IntConst(1)) | (ArithOp::Div, _, TermData::IntConst(1)) => {
                return a
            }
            (ArithOp::Mul, TermData::IntConst(0), _) | (ArithOp::Mul, _, TermData::IntConst(0)) => {
                return self.int(0)
            }
            _ => {}
        }
        self.intern(TermData::Arith(op, a, b))
    }

    /// `a + b`
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.arith(ArithOp::Add, a, b)
    }
    /// `a - b`
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.arith(ArithOp::Sub, a, b)
    }
    /// `a * b`
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.arith(ArithOp::Mul, a, b)
    }
    /// `a / b` (total, `x / 0 = 0`)
    pub fn div(&mut self, a: TermId, b: TermId) -> TermId {
        self.arith(ArithOp::Div, a, b)
    }
    /// `a rem b` (total, `x rem 0 = 0`)
    pub fn rem(&mut self, a: TermId, b: TermId) -> TermId {
        self.arith(ArithOp::Rem, a, b)
    }

    /// Unary negation `-a`. Only constants fold: negation saturates, so
    /// `-(-t)` is not `t` at `t = i64::MIN`.
    pub fn neg(&mut self, a: TermId) -> TermId {
        if let TermData::IntConst(x) = self.data(a) {
            return self.int(x.saturating_neg());
        }
        self.intern(TermData::Neg(a))
    }

    /// If-then-else over integer branches.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        match self.data(cond) {
            TermData::BoolConst(true) => then,
            TermData::BoolConst(false) => els,
            _ if then == els => then,
            _ => self.intern(TermData::Ite(cond, then, els)),
        }
    }

    /// Collects the set of variables occurring in `t` (deduplicated, in
    /// first-occurrence order).
    pub fn vars_of(&self, t: TermId) -> Vec<VarId> {
        let mut seen_terms = vec![false; self.terms.len()];
        let mut seen_vars = vec![false; self.vars.len()];
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(t) = stack.pop() {
            if seen_terms[t.index()] {
                continue;
            }
            seen_terms[t.index()] = true;
            match self.data(t) {
                TermData::Var(v) => {
                    if !seen_vars[v.index()] {
                        seen_vars[v.index()] = true;
                        out.push(v);
                    }
                }
                TermData::Not(a) | TermData::Neg(a) => stack.push(a),
                TermData::And(a, b)
                | TermData::Or(a, b)
                | TermData::Cmp(_, a, b)
                | TermData::Arith(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                TermData::Ite(c, a, b) => {
                    stack.push(c);
                    stack.push(a);
                    stack.push(b);
                }
                TermData::BoolConst(_) | TermData::IntConst(_) => {}
            }
        }
        out
    }

    /// Returns `true` if variable `v` occurs in term `t`.
    pub fn contains_var(&self, t: TermId, v: VarId) -> bool {
        self.vars_of(t).contains(&v)
    }

    /// Substitutes variables by terms throughout `t` (capture is not a
    /// concern: the language has no binders).
    pub fn substitute(&mut self, t: TermId, map: &HashMap<VarId, TermId>) -> TermId {
        let mut memo: HashMap<TermId, TermId> = HashMap::new();
        self.substitute_memo(t, map, &mut memo)
    }

    fn substitute_memo(
        &mut self,
        t: TermId,
        map: &HashMap<VarId, TermId>,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match self.data(t) {
            TermData::Var(v) => map.get(&v).copied().unwrap_or(t),
            TermData::BoolConst(_) | TermData::IntConst(_) => t,
            TermData::Not(a) => {
                let a = self.substitute_memo(a, map, memo);
                self.not(a)
            }
            TermData::Neg(a) => {
                let a = self.substitute_memo(a, map, memo);
                self.neg(a)
            }
            TermData::And(a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.and(a, b)
            }
            TermData::Or(a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.or(a, b)
            }
            TermData::Cmp(op, a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.cmp(op, a, b)
            }
            TermData::Arith(op, a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.arith(op, a, b)
            }
            TermData::Ite(c, a, b) => {
                let c = self.substitute_memo(c, map, memo);
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.ite(c, a, b)
            }
        };
        memo.insert(t, r);
        r
    }

    /// Renders the term in an SMT-LIB-flavoured s-expression syntax,
    /// useful for debugging and golden tests.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.display_into(t, &mut s);
        s
    }

    fn display_into(&self, t: TermId, out: &mut String) {
        use std::fmt::Write;
        match self.data(t) {
            TermData::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            TermData::IntConst(v) => {
                let _ = write!(out, "{v}");
            }
            TermData::Var(v) => {
                let _ = write!(out, "{}", self.var_name(v));
            }
            TermData::Not(a) => {
                out.push_str("(not ");
                self.display_into(a, out);
                out.push(')');
            }
            TermData::Neg(a) => {
                out.push_str("(- ");
                self.display_into(a, out);
                out.push(')');
            }
            TermData::And(a, b) => {
                out.push_str("(and ");
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
            TermData::Or(a, b) => {
                out.push_str("(or ");
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
            TermData::Cmp(op, a, b) => {
                use std::fmt::Write;
                let _ = write!(out, "({op} ");
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
            TermData::Arith(op, a, b) => {
                let _ = write!(out, "({op} ");
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
            TermData::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.display_into(c, out);
                out.push(' ');
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
        }
    }

    /// Size (node count) of the term viewed as a tree — used as the
    /// simplicity prior in patch ranking.
    pub fn tree_size(&self, t: TermId) -> usize {
        match self.data(t) {
            TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(_) => 1,
            TermData::Not(a) | TermData::Neg(a) => 1 + self.tree_size(a),
            TermData::And(a, b)
            | TermData::Or(a, b)
            | TermData::Cmp(_, a, b)
            | TermData::Arith(_, a, b) => 1 + self.tree_size(a) + self.tree_size(b),
            TermData::Ite(c, a, b) => 1 + self.tree_size(c) + self.tree_size(a) + self.tree_size(b),
        }
    }

    /// Whether `base` is a prefix of this pool: every variable and term of
    /// `base` exists here at the same index with the same content. A pool
    /// grown from `base` by interning always satisfies this, so a snapshot
    /// resume can verify that restored `TermId`s/`VarId`s mean the same
    /// thing they meant when the snapshot was written.
    pub fn is_extension_of(&self, base: &TermPool) -> bool {
        base.vars.len() <= self.vars.len()
            && base.terms.len() <= self.terms.len()
            && base
                .vars
                .iter()
                .zip(&self.vars)
                .all(|(a, b)| a.name == b.name && a.sort == b.sort)
            && base.terms.iter().zip(&self.terms).all(|(a, b)| a == b)
    }

    /// Serializes the pool structurally: the variable table in declaration
    /// order, then every term in creation order. Because `TermId`s are
    /// creation-order indices and children always precede their parents,
    /// this encoding is self-validating on read and byte-stable: encoding
    /// the same pool twice produces identical bytes.
    pub fn write_wire(&self, w: &mut crate::wire::ByteWriter) {
        w.usize(self.vars.len());
        for v in &self.vars {
            w.str(&v.name);
            w.u8(match v.sort {
                Sort::Bool => 0,
                Sort::Int => 1,
            });
        }
        w.usize(self.terms.len());
        for &t in &self.terms {
            match t {
                TermData::BoolConst(b) => {
                    w.u8(0);
                    w.bool(b);
                }
                TermData::IntConst(v) => {
                    w.u8(1);
                    w.i64(v);
                }
                TermData::Var(v) => {
                    w.u8(2);
                    w.u32(v.0);
                }
                TermData::Not(a) => {
                    w.u8(3);
                    w.u32(a.0);
                }
                TermData::And(a, b) => {
                    w.u8(4);
                    w.u32(a.0);
                    w.u32(b.0);
                }
                TermData::Or(a, b) => {
                    w.u8(5);
                    w.u32(a.0);
                    w.u32(b.0);
                }
                TermData::Cmp(op, a, b) => {
                    w.u8(6);
                    w.u8(cmp_op_tag(op));
                    w.u32(a.0);
                    w.u32(b.0);
                }
                TermData::Arith(op, a, b) => {
                    w.u8(7);
                    w.u8(arith_op_tag(op));
                    w.u32(a.0);
                    w.u32(b.0);
                }
                TermData::Neg(a) => {
                    w.u8(8);
                    w.u32(a.0);
                }
                TermData::Ite(c, a, b) => {
                    w.u8(9);
                    w.u32(c.0);
                    w.u32(a.0);
                    w.u32(b.0);
                }
            }
        }
    }

    /// Deserializes a pool written by [`TermPool::write_wire`].
    ///
    /// Terms are pushed *raw* — deliberately bypassing the simplifying
    /// constructors — so that `TermId`s in the restored pool coincide
    /// exactly with the ids of the pool that was serialized. Every child
    /// id is checked to precede its parent (acyclicity), every variable
    /// reference is bounds-checked, and structurally duplicate entries are
    /// rejected: a valid hash-consed pool never contains two.
    pub fn read_wire(
        r: &mut crate::wire::ByteReader<'_>,
    ) -> Result<TermPool, crate::wire::WireError> {
        use crate::wire::WireError;
        let mut pool = TermPool::new();
        let nvars = r.len("variable table")?;
        for _ in 0..nvars {
            let name = r.str("variable name")?;
            let sort = match r.u8("variable sort")? {
                0 => Sort::Bool,
                1 => Sort::Int,
                tag => return Err(WireError::BadTag { what: "sort", tag }),
            };
            if pool.var_names.contains_key(&name) {
                return Err(WireError::Invariant {
                    what: "duplicate variable name",
                });
            }
            let id = VarId(pool.vars.len() as u32);
            pool.var_names.insert(name.clone(), id);
            pool.vars.push(VarInfo { name, sort });
        }
        let nterms = r.len("term table")?;
        for i in 0..nterms {
            let child = |r: &mut crate::wire::ByteReader<'_>| -> Result<TermId, WireError> {
                crate::wire::read_term_id(r, i, "term child")
            };
            let data = match r.u8("term tag")? {
                0 => TermData::BoolConst(r.bool("bool const")?),
                1 => TermData::IntConst(r.i64("int const")?),
                2 => TermData::Var(crate::wire::read_var_id(
                    r,
                    pool.vars.len(),
                    "term variable",
                )?),
                3 => TermData::Not(child(r)?),
                4 => TermData::And(child(r)?, child(r)?),
                5 => TermData::Or(child(r)?, child(r)?),
                6 => {
                    let op = read_cmp_op(r)?;
                    TermData::Cmp(op, child(r)?, child(r)?)
                }
                7 => {
                    let op = read_arith_op(r)?;
                    TermData::Arith(op, child(r)?, child(r)?)
                }
                8 => TermData::Neg(child(r)?),
                9 => TermData::Ite(child(r)?, child(r)?, child(r)?),
                tag => return Err(WireError::BadTag { what: "term", tag }),
            };
            let id = TermId(pool.terms.len() as u32);
            if pool.dedup.insert(data, id).is_some() {
                return Err(WireError::Invariant {
                    what: "duplicate interned term",
                });
            }
            pool.terms.push(data);
        }
        Ok(pool)
    }
}

pub(crate) fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn read_cmp_op(r: &mut crate::wire::ByteReader<'_>) -> Result<CmpOp, crate::wire::WireError> {
    Ok(match r.u8("cmp op")? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        tag => {
            return Err(crate::wire::WireError::BadTag {
                what: "cmp op",
                tag,
            })
        }
    })
}

pub(crate) fn arith_op_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
        ArithOp::Rem => 4,
    }
}

fn read_arith_op(r: &mut crate::wire::ByteReader<'_>) -> Result<ArithOp, crate::wire::WireError> {
    Ok(match r.u8("arith op")? {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        4 => ArithOp::Rem,
        tag => {
            return Err(crate::wire::WireError::BadTag {
                what: "arith op",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let one_a = p.int(1);
        let one_b = p.int(1);
        assert_eq!(one_a, one_b);
        let s1 = p.add(x, one_a);
        let s2 = p.add(x, one_b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn var_redeclaration_same_sort_is_idempotent() {
        let mut p = TermPool::new();
        let a = p.var("x", Sort::Int);
        let b = p.var("x", Sort::Int);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different sort")]
    fn var_redeclaration_with_other_sort_panics() {
        let mut p = TermPool::new();
        p.var("x", Sort::Int);
        p.var("x", Sort::Bool);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.int(6);
        let b = p.int(7);
        let m = p.mul(a, b);
        assert_eq!(p.data(m), TermData::IntConst(42));
        let c = p.lt(a, b);
        assert_eq!(p.data(c), TermData::BoolConst(true));
    }

    #[test]
    fn division_by_zero_is_total() {
        let mut p = TermPool::new();
        let a = p.int(5);
        let z = p.int(0);
        let d = p.div(a, z);
        assert_eq!(p.data(d), TermData::IntConst(0));
        let r = p.rem(a, z);
        assert_eq!(p.data(r), TermData::IntConst(0));
    }

    #[test]
    fn double_negation_folds_only_constants() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let nx = p.neg(x);
        let nnx = p.neg(nx);
        assert_eq!(p.data(nnx), TermData::Neg(nx));
        let mut m = crate::model::Model::new();
        m.set(p.find_var("x").unwrap(), i64::MIN);
        assert_eq!(m.eval_int(&p, nnx), -i64::MAX);
        let min = p.int(i64::MIN);
        let nmin = p.neg(min);
        assert_eq!(p.data(nmin), TermData::IntConst(i64::MAX));
    }

    #[test]
    fn not_pushes_through_cmp() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let c = p.int(3);
        let lt = p.lt(x, c);
        let n = p.not(lt);
        assert!(matches!(p.data(n), TermData::Cmp(CmpOp::Ge, _, _)));
        // double negation
        assert_eq!(p.not(n), lt);
    }

    #[test]
    fn and_or_units() {
        let mut p = TermPool::new();
        let x = p.named_var("b", Sort::Bool);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.and(t, x), x);
        assert_eq!(p.and(x, f), f);
        assert_eq!(p.or(f, x), x);
        assert_eq!(p.or(x, t), t);
        assert_eq!(p.and(x, x), x);
    }

    #[test]
    fn substitution_replaces_vars() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let c = p.int(2);
        let e = p.add(x, c); // x + 2
        let seven = p.int(7);
        let mut map = HashMap::new();
        map.insert(xv, seven);
        let r = p.substitute(e, &map);
        assert_eq!(p.data(r), TermData::IntConst(9));
    }

    #[test]
    fn vars_of_collects_in_order() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let e = p.mul(x, y);
        let zero = p.int(0);
        let f = p.eq(e, zero);
        let vars = p.vars_of(f);
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&xv) && vars.contains(&yv));
        assert!(p.contains_var(f, xv));
    }

    #[test]
    fn display_is_smtlib_flavoured() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let c = p.int(3);
        let t = p.gt(x, c);
        assert_eq!(p.display(t), "(> x 3)");
    }

    #[test]
    fn tree_size_counts_nodes() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let y = p.named_var("y", Sort::Int);
        let c = p.int(0);
        let m = p.mul(x, y);
        let e = p.ne(m, c);
        assert_eq!(p.tree_size(e), 5);
    }

    #[test]
    fn wire_roundtrip_preserves_ids_and_bytes() {
        use crate::wire::{ByteReader, ByteWriter};
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let x = p.var_term(xv);
        let b = p.named_var("flag", Sort::Bool);
        let c = p.int(3);
        let gt = p.gt(x, c);
        let conj = p.and(gt, b);
        let body = p.mul(x, c);
        let ite = p.ite(conj, body, x);

        let mut w = ByteWriter::new();
        p.write_wire(&mut w);
        let bytes = w.into_bytes();
        let p2 = TermPool::read_wire(&mut ByteReader::new(&bytes)).unwrap();

        // Same ids, same structure, same rendering.
        assert_eq!(p2.len(), p.len());
        assert_eq!(p2.var_count(), p.var_count());
        assert_eq!(p2.data(ite), p.data(ite));
        assert_eq!(p2.display(conj), p.display(conj));
        assert_eq!(p2.find_var("x"), Some(xv));

        // Re-encoding is byte-identical, and interning into the restored
        // pool dedups against the restored table.
        let mut w2 = ByteWriter::new();
        p2.write_wire(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        let mut p3 = p2.clone();
        let c2 = p3.int(3);
        assert_eq!(c2, c);
    }

    #[test]
    fn wire_rejects_forward_child_and_bad_tags() {
        use crate::wire::{ByteReader, ByteWriter, WireError};
        // A Not term whose child id equals its own index (forward reference).
        let mut w = ByteWriter::new();
        w.usize(0); // no vars
        w.usize(1); // one term
        w.u8(3); // Not
        w.u32(0); // child 0 — but this IS term 0
        let bytes = w.into_bytes();
        assert!(matches!(
            TermPool::read_wire(&mut ByteReader::new(&bytes)),
            Err(WireError::IdOutOfRange { .. })
        ));

        // Unknown term tag.
        let mut w = ByteWriter::new();
        w.usize(0);
        w.usize(1);
        w.u8(0xEE);
        let bytes = w.into_bytes();
        assert!(matches!(
            TermPool::read_wire(&mut ByteReader::new(&bytes)),
            Err(WireError::BadTag { what: "term", .. })
        ));

        // Duplicate structural entry.
        let mut w = ByteWriter::new();
        w.usize(0);
        w.usize(2);
        w.u8(1);
        w.i64(7);
        w.u8(1);
        w.i64(7);
        let bytes = w.into_bytes();
        assert!(matches!(
            TermPool::read_wire(&mut ByteReader::new(&bytes)),
            Err(WireError::Invariant { .. })
        ));
    }

    #[test]
    fn ite_simplifies() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let y = p.named_var("y", Sort::Int);
        let t = p.tt();
        assert_eq!(p.ite(t, x, y), x);
        let f = p.ff();
        assert_eq!(p.ite(f, x, y), y);
        let c = p.named_var("c", Sort::Bool);
        assert_eq!(p.ite(c, x, x), x);
    }
}
