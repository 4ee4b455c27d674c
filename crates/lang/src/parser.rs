//! Recursive-descent parser for the subject language.

use crate::ast::{
    BinOp, Builtin, Expr, FunDecl, HoleKind, InputDecl, Program, Span, Stmt, Type, UnOp,
};
use crate::error::{LangError, LangResult};
use crate::lexer::{lex, Tok, Token};

/// Parses a complete program from source text.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical or syntactic
/// problem encountered.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cpr_lang::LangError> {
/// let prog = cpr_lang::parse(
///     "program demo {
///        input x in [-10, 10];
///        if (__patch_cond__(x)) { return 1; }
///        bug div_by_zero requires (x != 0);
///        return 100 / x;
///      }",
/// )?;
/// assert_eq!(prog.name, "demo");
/// assert_eq!(prog.inputs.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> LangResult<Program> {
    Parser::new(lex(src)?).program()
}

/// Parses a standalone expression (used for developer patches and baseline
/// buggy expressions in the benchmark subjects).
///
/// # Errors
///
/// Returns a [`LangError`] if the source is not a single valid expression.
///
/// # Example
///
/// ```
/// let e = cpr_lang::parse_expr("x == 0 || y == 0").unwrap();
/// assert!(matches!(e, cpr_lang::Expr::Binary(cpr_lang::BinOp::Or, ..)));
/// ```
pub fn parse_expr(src: &str) -> LangResult<Expr> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

/// The deepest nesting the parser accepts: open blocks, plus open
/// parentheses, calls, indexing and unary operators, plus the height of a
/// binary operator chain. The parser, type checking, the execution engine,
/// term lowering and the solver all recurse once per level; a debug build
/// of the parser spends up to ~17 KB of stack per nested block, so the cap
/// keeps every stage within a 2 MB thread stack. Deeper source is hostile
/// or generated input and gets a parse error instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Names of the user functions declared so far (for call resolution).
    functions: Vec<String>,
    /// Open nesting levels at the current token (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            functions: Vec::new(),
            depth: 0,
        }
    }

    /// Fails if `levels` more nesting levels here would pass [`MAX_DEPTH`].
    fn check_depth(&self, levels: usize) -> LangResult<()> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.err_here(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> LangResult<T>) -> LangResult<T> {
        self.check_depth(1)?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok) -> LangResult<Token> {
        if self.peek().tok == tok {
            Ok(self.advance())
        } else {
            Err(self.err_here(format!("expected {tok}, found {}", self.peek().tok)))
        }
    }

    fn err_here(&self, message: String) -> LangError {
        LangError::Parse {
            message,
            span: self.peek().span,
        }
    }

    fn ident(&mut self) -> LangResult<(String, Span)> {
        match self.peek().tok.clone() {
            Tok::Ident(name) => {
                let span = self.peek().span;
                self.advance();
                Ok((name, span))
            }
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    /// A possibly-negated integer literal (used in ranges and array sizes).
    fn signed_int(&mut self) -> LangResult<i64> {
        let neg = if self.peek().tok == Tok::Minus {
            self.advance();
            true
        } else {
            false
        };
        match self.peek().tok {
            Tok::Int(v) => {
                self.advance();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(self.err_here(format!("expected integer, found {other}"))),
        }
    }

    fn program(&mut self) -> LangResult<Program> {
        self.expect(Tok::KwProgram)?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut functions = Vec::new();
        while self.peek().tok == Tok::KwFn {
            functions.push(self.fun_decl()?);
        }
        let mut inputs = Vec::new();
        while self.peek().tok == Tok::KwInput {
            inputs.push(self.input_decl()?);
        }
        let mut body = Vec::new();
        while self.peek().tok != Tok::RBrace {
            if self.peek().tok == Tok::Eof {
                return Err(self.err_here("unexpected end of input, expected `}`".into()));
            }
            body.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Eof)?;
        Ok(Program {
            name,
            functions,
            inputs,
            body,
        })
    }

    /// `fn name(p1: int, p2: int) -> int { body }`
    fn fun_decl(&mut self) -> LangResult<FunDecl> {
        let start = self.expect(Tok::KwFn)?.span;
        let (name, name_span) = self.ident()?;
        if Builtin::from_name(&name).is_some() || name.starts_with("__patch") {
            return Err(LangError::Parse {
                message: format!("function name `{name}` shadows a builtin"),
                span: name_span,
            });
        }
        if self.functions.contains(&name) {
            return Err(LangError::Parse {
                message: format!("function `{name}` declared twice"),
                span: name_span,
            });
        }
        // Register before parsing the body so recursion resolves.
        self.functions.push(name.clone());
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                let (p, p_span) = self.ident()?;
                self.expect(Tok::Colon)?;
                self.expect(Tok::KwInt)?;
                if params.contains(&p) {
                    return Err(LangError::Parse {
                        message: format!("duplicate parameter `{p}`"),
                        span: p_span,
                    });
                }
                params.push(p);
                if self.peek().tok == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Arrow)?;
        self.expect(Tok::KwInt)?;
        let body = self.block()?;
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(FunDecl {
            name,
            params,
            body,
            span,
        })
    }

    fn input_decl(&mut self) -> LangResult<InputDecl> {
        let start = self.peek().span;
        self.expect(Tok::KwInput)?;
        let (name, _) = self.ident()?;
        self.expect(Tok::KwIn)?;
        self.expect(Tok::LBracket)?;
        let lo = self.signed_int()?;
        self.expect(Tok::Comma)?;
        let hi = self.signed_int()?;
        self.expect(Tok::RBracket)?;
        let end = self.expect(Tok::Semi)?.span;
        if lo > hi {
            return Err(LangError::Parse {
                message: format!("empty input range [{lo}, {hi}] for `{name}`"),
                span: start.merge(end),
            });
        }
        Ok(InputDecl {
            name,
            lo,
            hi,
            span: start.merge(end),
        })
    }

    fn block(&mut self) -> LangResult<Vec<Stmt>> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> LangResult<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek().tok != Tok::RBrace {
            if self.peek().tok == Tok::Eof {
                return Err(self.err_here("unexpected end of input, expected `}`".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> LangResult<Stmt> {
        let start = self.peek().span;
        match self.peek().tok.clone() {
            Tok::KwVar => {
                self.advance();
                let (name, _) = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                let init = if self.peek().tok == Tok::Assign {
                    self.advance();
                    Some(self.expr()?)
                } else {
                    None
                };
                let end = self.expect(Tok::Semi)?.span;
                if matches!(ty, Type::IntArray(_)) && init.is_some() {
                    return Err(LangError::Parse {
                        message: "array declarations cannot have initializers".into(),
                        span: start.merge(end),
                    });
                }
                Ok(Stmt::Decl {
                    name,
                    ty,
                    init,
                    span: start.merge(end),
                })
            }
            Tok::KwIf => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek().tok == Tok::KwElse {
                    self.advance();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span: start,
                })
            }
            Tok::KwWhile => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While {
                    cond,
                    body,
                    span: start,
                })
            }
            Tok::KwReturn => {
                self.advance();
                let value = self.expr()?;
                let end = self.expect(Tok::Semi)?.span;
                Ok(Stmt::Return {
                    value,
                    span: start.merge(end),
                })
            }
            Tok::KwAssert => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let end = self.expect(Tok::Semi)?.span;
                Ok(Stmt::Assert {
                    cond,
                    span: start.merge(end),
                })
            }
            Tok::KwAssume => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let end = self.expect(Tok::Semi)?.span;
                Ok(Stmt::Assume {
                    cond,
                    span: start.merge(end),
                })
            }
            Tok::KwBug => {
                self.advance();
                let (name, _) = self.ident()?;
                self.expect(Tok::KwRequires)?;
                self.expect(Tok::LParen)?;
                let spec = self.expr()?;
                self.expect(Tok::RParen)?;
                let end = self.expect(Tok::Semi)?.span;
                Ok(Stmt::Bug {
                    name,
                    spec,
                    span: start.merge(end),
                })
            }
            Tok::Ident(name) => {
                self.advance();
                match self.peek().tok {
                    Tok::Assign => {
                        self.advance();
                        let value = self.expr()?;
                        let end = self.expect(Tok::Semi)?.span;
                        Ok(Stmt::Assign {
                            name,
                            value,
                            span: start.merge(end),
                        })
                    }
                    Tok::LBracket => {
                        self.advance();
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        self.expect(Tok::Assign)?;
                        let value = self.expr()?;
                        let end = self.expect(Tok::Semi)?.span;
                        Ok(Stmt::AssignIndex {
                            name,
                            index,
                            value,
                            span: start.merge(end),
                        })
                    }
                    ref other => Err(self.err_here(format!(
                        "expected `=` or `[` after identifier, found {other}"
                    ))),
                }
            }
            other => Err(self.err_here(format!("expected statement, found {other}"))),
        }
    }

    fn parse_type(&mut self) -> LangResult<Type> {
        match self.peek().tok {
            Tok::KwInt => {
                self.advance();
                if self.peek().tok == Tok::LBracket {
                    self.advance();
                    let n = self.signed_int()?;
                    self.expect(Tok::RBracket)?;
                    if n <= 0 {
                        return Err(self.err_here(format!("array size must be positive, got {n}")));
                    }
                    Ok(Type::IntArray(n as usize))
                } else {
                    Ok(Type::Int)
                }
            }
            Tok::KwBool => {
                self.advance();
                Ok(Type::Bool)
            }
            ref other => Err(self.err_here(format!("expected type, found {other}"))),
        }
    }

    fn expr(&mut self) -> LangResult<Expr> {
        self.nested_expr().map(|(e, _)| e)
    }

    /// An expression one nesting level deeper, with its height (a leaf is
    /// 1). The expression parsers carry heights so that the cap also sees
    /// the left-deep chains (`x + x + … + x`) they build in a loop.
    fn nested_expr(&mut self) -> LangResult<(Expr, usize)> {
        self.nested(Self::or_expr)
    }

    /// `lhs op rhs`, failing if its height would pass the cap here.
    fn binary(
        &self,
        op: BinOp,
        (lhs, lh): (Expr, usize),
        (rhs, rh): (Expr, usize),
    ) -> LangResult<(Expr, usize)> {
        let height = lh.max(rh) + 1;
        self.check_depth(height - 1)?;
        let span = lhs.span().merge(rhs.span());
        Ok((Expr::Binary(op, Box::new(lhs), Box::new(rhs), span), height))
    }

    fn or_expr(&mut self) -> LangResult<(Expr, usize)> {
        let mut lhs = self.and_expr()?;
        while self.peek().tok == Tok::OrOr {
            self.advance();
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> LangResult<(Expr, usize)> {
        let mut lhs = self.cmp_expr()?;
        while self.peek().tok == Tok::AndAnd {
            self.advance();
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> LangResult<(Expr, usize)> {
        let lhs = self.add_expr()?;
        let op = match self.peek().tok {
            Tok::EqEq => BinOp::Eq,
            Tok::NotEq => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.add_expr()?;
        self.binary(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> LangResult<(Expr, usize)> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> LangResult<(Expr, usize)> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> LangResult<(Expr, usize)> {
        let start = self.peek().span;
        let op = match self.peek().tok {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            _ => return self.primary_expr(),
        };
        self.advance();
        let (e, height) = self.nested(Self::unary_expr)?;
        let span = start.merge(e.span());
        // Fold negated literals so the pretty-printer's `-5` re-parses to
        // the `Expr::Int` it came from rather than a `Neg` node.
        if let (UnOp::Neg, Expr::Int(v, _)) = (op, &e) {
            return Ok((Expr::Int(v.wrapping_neg(), span), height));
        }
        Ok((Expr::Unary(op, Box::new(e), span), height + 1))
    }

    fn primary_expr(&mut self) -> LangResult<(Expr, usize)> {
        let tok = self.peek().clone();
        let leaf = match tok.tok {
            Tok::Int(v) => Expr::Int(v, tok.span),
            Tok::KwTrue => Expr::Bool(true, tok.span),
            Tok::KwFalse => Expr::Bool(false, tok.span),
            Tok::LParen => {
                self.advance();
                let e = self.nested_expr()?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(name) if self.peek2().tok == Tok::LParen => {
                self.advance(); // ident
                self.advance(); // (
                let (mut args, mut height) = (Vec::new(), 0);
                if self.peek().tok != Tok::RParen {
                    loop {
                        let (arg, h) = self.nested_expr()?;
                        args.push(arg);
                        height = height.max(h);
                        if self.peek().tok == Tok::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                let end = self.expect(Tok::RParen)?.span;
                let span = tok.span.merge(end);
                return Ok((self.make_call(name, args, span)?, height + 1));
            }
            Tok::Ident(name) if self.peek2().tok == Tok::LBracket => {
                self.advance(); // ident
                self.advance(); // [
                let (idx, height) = self.nested_expr()?;
                let end = self.expect(Tok::RBracket)?.span;
                let span = tok.span.merge(end);
                return Ok((Expr::Index(name, Box::new(idx), span), height + 1));
            }
            Tok::Ident(name) => Expr::Var(name, tok.span),
            other => return Err(self.err_here(format!("expected expression, found {other}"))),
        };
        self.advance();
        Ok((leaf, 1))
    }

    fn make_call(&self, name: String, args: Vec<Expr>, span: Span) -> LangResult<Expr> {
        let hole_kind = match name.as_str() {
            "__patch_cond__" => Some(HoleKind::Cond),
            "__patch_expr__" => Some(HoleKind::IntExpr),
            _ => None,
        };
        if let Some(kind) = hole_kind {
            let mut vars = Vec::with_capacity(args.len());
            for a in &args {
                match a {
                    Expr::Var(v, _) => vars.push(v.clone()),
                    other => {
                        return Err(LangError::Parse {
                            message: "patch hole arguments must be plain variables".into(),
                            span: other.span(),
                        })
                    }
                }
            }
            return Ok(Expr::Hole(kind, vars, span));
        }
        match Builtin::from_name(&name) {
            Some(b) => {
                if args.len() != b.arity() {
                    Err(LangError::Parse {
                        message: format!(
                            "builtin `{name}` expects {} argument(s), got {}",
                            b.arity(),
                            args.len()
                        ),
                        span,
                    })
                } else {
                    Ok(Expr::Call(b, args, span))
                }
            }
            None if self.functions.contains(&name) => Ok(Expr::UserCall(name, args, span)),
            None => Err(LangError::Parse {
                message: format!("unknown function `{name}`"),
                span,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_program() {
        let p = parse("program p { return 0; }").unwrap();
        assert_eq!(p.name, "p");
        assert!(p.inputs.is_empty());
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn parse_inputs_with_negative_ranges() {
        let p = parse("program p { input x in [-10, 10]; input y in [0, 5]; return 0; }").unwrap();
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.inputs[0].lo, -10);
        assert_eq!(p.inputs[1].hi, 5);
    }

    #[test]
    fn reject_empty_input_range() {
        assert!(parse("program p { input x in [5, -5]; return 0; }").is_err());
    }

    #[test]
    fn parse_precedence() {
        let p = parse("program p { input x in [0,9]; return 1 + x * 2; }").unwrap();
        let Stmt::Return { value, .. } = &p.body[0] else {
            panic!()
        };
        // 1 + (x * 2)
        let Expr::Binary(BinOp::Add, _, rhs, _) = value else {
            panic!("expected +, got {value:?}")
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn parse_logical_precedence() {
        let p = parse(
            "program p { input x in [0,9]; if (x > 1 && x < 5 || x == 7) { return 1; } return 0; }",
        )
        .unwrap();
        let Stmt::If { cond, .. } = &p.body[0] else {
            panic!()
        };
        // (a && b) || c
        assert!(matches!(cond, Expr::Binary(BinOp::Or, _, _, _)));
    }

    #[test]
    fn parse_hole_and_bug() {
        let p = parse(
            "program p {
               input x in [-10, 10];
               input y in [-10, 10];
               if (__patch_cond__(x, y)) { return 1; }
               bug div_by_zero requires (x * y != 0);
               return 100 / (x * y);
             }",
        )
        .unwrap();
        let (kind, args) = p.hole().unwrap();
        assert_eq!(kind, HoleKind::Cond);
        assert_eq!(args, vec!["x".to_owned(), "y".to_owned()]);
        let (bug, _) = p.bug().unwrap();
        assert_eq!(bug, "div_by_zero");
    }

    #[test]
    fn parse_expr_hole() {
        let p = parse(
            "program p { input x in [0, 9]; var y: int = 0; y = __patch_expr__(x); return y; }",
        )
        .unwrap();
        assert_eq!(p.hole().unwrap().0, HoleKind::IntExpr);
    }

    #[test]
    fn hole_args_must_be_variables() {
        assert!(parse(
            "program p { input x in [0,9]; if (__patch_cond__(x+1)) { return 1; } return 0; }"
        )
        .is_err());
    }

    #[test]
    fn parse_arrays() {
        let p = parse(
            "program p {
               input n in [0, 7];
               var buf: int[8];
               buf[n] = 3;
               return buf[n];
             }",
        )
        .unwrap();
        assert!(matches!(
            p.body[0],
            Stmt::Decl {
                ty: Type::IntArray(8),
                ..
            }
        ));
        assert!(matches!(p.body[1], Stmt::AssignIndex { .. }));
    }

    #[test]
    fn reject_array_initializer() {
        assert!(parse("program p { var a: int[3] = 5; return 0; }").is_err());
    }

    #[test]
    fn parse_while_and_builtins() {
        let p = parse(
            "program p {
               input n in [1, 10];
               var i: int = 0;
               var acc: int = 0;
               while (i < n) { acc = acc + max(i, 2); i = i + 1; }
               return roundup(acc, 4);
             }",
        )
        .unwrap();
        assert_eq!(p.body.len(), 4);
    }

    #[test]
    fn builtin_arity_is_checked() {
        assert!(parse("program p { return min(1); }").is_err());
        assert!(parse("program p { return abs(1, 2); }").is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(parse("program p { return foo(1); }").is_err());
    }

    #[test]
    fn error_mentions_expectation() {
        let err = parse("program p { return 1 }").unwrap_err();
        assert!(err.to_string().contains("expected `;`"), "{err}");
    }

    #[test]
    fn error_messages_are_actionable() {
        let cases = [
            ("program p { return 1 }", "expected `;`"),
            ("program p { input x in [1]; return 0; }", "expected `,`"),
            ("program p { if (1) { } return 0; }", "expected"),
            (
                "program p { var a: int[0]; return 0; }",
                "array size must be positive",
            ),
            (
                "program p { return min(1, 2, 3); }",
                "expects 2 argument(s)",
            ),
            ("program { return 0; }", "expected identifier"),
        ];
        for (src, needle) in cases {
            let err = parse(src)
                .err()
                .map(|e| e.render(src))
                .or_else(|| {
                    parse(src)
                        .ok()
                        .and_then(|p| crate::types::check(&p).err())
                        .map(|e| e.render(src))
                })
                .unwrap_or_else(|| panic!("`{src}` unexpectedly valid"));
            assert!(err.contains(needle), "`{src}`: {err}");
        }
    }

    #[test]
    fn parse_assume_assert() {
        let p = parse("program p { input x in [0, 9]; assume(x > 0); assert(x >= 1); return x; }")
            .unwrap();
        assert!(matches!(p.body[0], Stmt::Assume { .. }));
        assert!(matches!(p.body[1], Stmt::Assert { .. }));
    }

    #[test]
    fn parse_nested_if_else() {
        let p = parse(
            "program p {
               input x in [-5, 5];
               if (x > 0) {
                 if (x > 3) { return 2; } else { return 1; }
               } else {
                 return 0;
               }
             }",
        )
        .unwrap();
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &p.body[0]
        else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn parse_function_declarations() {
        let p = parse(
            "program p {
               fn wrap(v: int, m: int) -> int { return v % max(m, 1); }
               input x in [0, 9];
               return wrap(x, 4);
             }",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "wrap");
        assert_eq!(p.functions[0].params, vec!["v".to_owned(), "m".to_owned()]);
        assert!(p.function("wrap").is_some());
        assert!(p.function("nope").is_none());
    }

    #[test]
    fn function_declaration_errors() {
        // Shadowing a builtin.
        assert!(parse("program p { fn max(a: int) -> int { return a; } return 0; }").is_err());
        // Duplicate declaration.
        assert!(parse(
            "program p {
               fn f(a: int) -> int { return a; }
               fn f(b: int) -> int { return b; }
               return 0;
             }"
        )
        .is_err());
        // Duplicate parameter.
        assert!(
            parse("program p { fn f(a: int, a: int) -> int { return a; } return 0; }").is_err()
        );
        // Call before declaration of anything by that name.
        assert!(parse("program p { return g(1); }").is_err());
    }

    #[test]
    fn recursive_calls_parse() {
        let p = parse(
            "program p {
               fn fib(n: int) -> int {
                 if (n <= 1) { return n; }
                 return fib(n - 1) + fib(n - 2);
               }
               input k in [0, 10];
               return fib(k);
             }",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn unary_chains() {
        let p = parse("program p { input x in [-5,5]; return - - x; }").unwrap();
        let Stmt::Return { value, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Unary(UnOp::Neg, _, _)));
    }
}
