//! The subject language of the CPR reproduction: a small C-flavoured
//! imperative language the benchmark programs are written in.
//!
//! This crate stands in for the C + LLVM front-end of the original tool.
//! It provides:
//!
//! * an [`ast`] with two repair-specific constructs — a single *patch hole*
//!   (`__patch_cond__` / `__patch_expr__`) and a single *bug location*
//!   (`bug <name> requires (σ);`),
//! * a hand-written [`lexer`](lex) and recursive-descent [`parser`](parse)
//!   with spanned diagnostics,
//! * a [type checker](check),
//! * a [pretty printer](pretty) whose output re-parses,
//! * the one [execution engine](engine), generic over a
//!   [`Shadow`](engine::Shadow) that rides along the run: it owns the
//!   concrete semantics, and the concolic executor (`cpr-concolic`) runs it
//!   with a term-building shadow,
//! * a sanitizer-style [interpreter](Interp) on that engine, whose shadow
//!   builds nothing: it detects crashes (divide-by-zero, out-of-bounds) and
//!   specification violations, and can splice a [`ConcretePatch`] into the
//!   hole.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), cpr_lang::LangError> {
//! use std::collections::HashMap;
//! use cpr_lang::{parse, check, Interp, Outcome};
//!
//! let program = parse(
//!     "program safe_div {
//!        input x in [-10, 10];
//!        bug div_by_zero requires (x != 0);
//!        return 100 / x;
//!      }",
//! )?;
//! check(&program)?;
//!
//! let mut inputs = HashMap::new();
//! inputs.insert("x".to_string(), 4i64);
//! let result = Interp::new().run(&program, &inputs, None);
//! assert_eq!(result.outcome, Outcome::Returned(25));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
mod error;
mod interp;
mod lexer;
mod parser;
mod pretty;
mod types;

pub use ast::{BinOp, Builtin, Expr, HoleKind, InputDecl, Program, Span, Stmt, Type, UnOp};
pub use engine::{CrashKind, Outcome, RunResult};
pub use error::{LangError, LangResult};
pub use interp::{ConcretePatch, Interp};
pub use lexer::{lex, Tok, Token};
pub use parser::{parse, parse_expr, MAX_DEPTH};
pub use pretty::{pretty, pretty_expr};
pub use types::check;
