//! A small SMT-style constraint substrate for concolic program repair.
//!
//! This crate replaces the role Z3 plays in the original CPR tool
//! (PLDI 2021). It provides:
//!
//! * a hash-consed first-order term language over booleans and bounded
//!   integers ([`TermPool`], [`TermId`]),
//! * total evaluation under a [`Model`],
//! * a structural [`simplify`](TermPool::simplify) pass,
//! * saturating [`Interval`] arithmetic with forward/backward contractors,
//! * a branch-and-prune [`Solver`] answering `IsSat`/`GetModel` queries over
//!   quantifier-free (non)linear integer arithmetic with bounded domains,
//! * the [`Region`] (disjunction-of-boxes) algebra used to represent the
//!   parameter constraints `T_ρ` of abstract patches, including the exact
//!   `Split`/`Merge` operations of the paper's Algorithm 3 and exact model
//!   counting (the `# Concrete Patches` column of the paper's Figure 1).
//!
//! # Example
//!
//! ```
//! use cpr_smt::{TermPool, Sort, SatResult, Solver, SolverConfig, Domains};
//!
//! let mut pool = TermPool::new();
//! let x = pool.var("x", Sort::Int);
//! let y = pool.var("y", Sort::Int);
//! let xv = pool.var_term(x);
//! let yv = pool.var_term(y);
//! // x > 3 && y <= 5 && x * y == 0
//! let c3 = pool.int(3);
//! let c5 = pool.int(5);
//! let c0 = pool.int(0);
//! let g = pool.gt(xv, c3);
//! let l = pool.le(yv, c5);
//! let m = pool.mul(xv, yv);
//! let e = pool.eq(m, c0);
//! let phi = pool.and_many([g, l, e]);
//!
//! let mut domains = Domains::new();
//! domains.bound(x, -64, 64);
//! domains.bound(y, -64, 64);
//! let mut solver = Solver::new(SolverConfig::default());
//! match solver.check(&pool, &[phi], &domains) {
//!     SatResult::Sat(model) => {
//!         assert!(model.int(x).unwrap() > 3);
//!         assert_eq!(model.int(x).unwrap() * model.int(y).unwrap(), 0);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deps;
mod digest;
pub mod fleet;
pub mod interval;
mod model;
mod parse;
mod region;
mod simplify;
mod solver;
mod term;
mod trail;
pub mod wire;
pub mod zone;

pub use deps::DepGraph;
pub use fleet::{fsync_dir, FleetCache, FleetError, FleetKey, FleetVerdict, FlushStats};
pub use interval::Interval;
pub use model::{Model, Value};
pub use parse::ParseTermError;
pub use region::{ParamBox, Region};
pub use solver::{
    CanonicalQuery, CountBounds, Domains, NoGoodStore, SatResult, SharedQueryCache, Solver,
    SolverConfig, SolverStats, UnsatPrefixStore, VerdictStore,
};
pub use term::{ArithOp, CmpOp, Sort, TermData, TermId, TermPool, VarId};
pub use trail::FrameSession;
