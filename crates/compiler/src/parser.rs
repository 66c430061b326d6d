//! Recursive-descent parser for XMTC.
//!
//! The grammar is the C subset of the paper's examples (Fig. 2a, Fig. 8)
//! plus the XMT constructs: `spawn(lo, hi) { ... }`, `$`, `ps`, `psm`,
//! and the `volatile`/`const` qualifiers on globals.

use crate::ast::*;
use crate::lexer::{lex, LexError, Span, Tok, Token};
use std::fmt;

/// Parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub span: Span,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { span: e.span, message: e.message }
    }
}

/// Parse a whole XMTC translation unit.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    Parser { toks, pos: 0 }.program()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Consume the current token. The parser never backs up, so the token
    /// moves out (leaving `Eof`); the last token, `Eof`, is never passed.
    fn bump(&mut self) -> Token {
        let eof = Token { tok: Tok::Eof, span: self.span() };
        let t = std::mem::replace(&mut self.toks[self.pos], eof);
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, ParseError> {
        if self.peek() == t {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { span: self.span(), message }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        let span = self.span();
        match self.bump().tok {
            Tok::Ident(s) => Ok((s, span)),
            other => Err(ParseError { span, message: format!("expected identifier, found `{other}`") }),
        }
    }

    // ---------------- types ----------------

    fn is_type_start(&self) -> bool {
        matches!(self.peek(), Tok::KwInt | Tok::KwFloat | Tok::KwVoid)
    }

    fn base_type(&mut self) -> Result<Type, ParseError> {
        let t = match self.peek() {
            Tok::KwInt => Type::Int,
            Tok::KwFloat => Type::Float,
            Tok::KwVoid => Type::Void,
            other => return Err(self.err(format!("expected type, found `{other}`"))),
        };
        self.bump();
        Ok(t)
    }

    fn full_type(&mut self) -> Result<Type, ParseError> {
        let mut t = self.base_type()?;
        while self.eat(&Tok::Star) {
            t = t.ptr();
        }
        Ok(t)
    }

    // ---------------- top level ----------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        while *self.peek() != Tok::Eof {
            let mut volatile = false;
            let mut is_const = false;
            loop {
                if self.eat(&Tok::KwVolatile) {
                    volatile = true;
                } else if self.eat(&Tok::KwConst) {
                    is_const = true;
                } else {
                    break;
                }
            }
            if !self.is_type_start() {
                return Err(self.err(format!(
                    "expected declaration, found `{}`",
                    self.peek()
                )));
            }
            let ty = self.full_type()?;
            let (name, span) = self.ident()?;
            if *self.peek() == Tok::LParen {
                if volatile || is_const {
                    return Err(self.err("qualifiers are not allowed on functions".into()));
                }
                prog.functions.push(self.function(ty, name, span)?);
            } else {
                prog.globals.push(self.global(ty, name, span, volatile, is_const)?);
                // Allow `int a, b;` at global scope.
                while self.eat(&Tok::Comma) {
                    let (name2, span2) = self.ident()?;
                    prog.globals
                        .push(self.global_tail(prog_last_base(&prog), name2, span2, volatile, is_const)?);
                }
                self.expect(&Tok::Semi)?;
            }
        }
        Ok(prog)
    }

    fn global(
        &mut self,
        ty: Type,
        name: String,
        span: Span,
        volatile: bool,
        is_const: bool,
    ) -> Result<GlobalDecl, ParseError> {
        let mut array = None;
        if self.eat(&Tok::LBracket) {
            array = Some(self.const_u32()?);
            self.expect(&Tok::RBracket)?;
        }
        let init = if self.eat(&Tok::Assign) { Some(self.global_init()?) } else { None };
        Ok(GlobalDecl { name, ty, array, init, volatile, is_const, span })
    }

    fn global_tail(
        &mut self,
        ty: Type,
        name: String,
        span: Span,
        volatile: bool,
        is_const: bool,
    ) -> Result<GlobalDecl, ParseError> {
        self.global(ty, name, span, volatile, is_const)
    }

    fn global_init(&mut self) -> Result<GlobalInit, ParseError> {
        if self.eat(&Tok::LBrace) {
            let mut vals = Vec::new();
            if *self.peek() != Tok::RBrace {
                loop {
                    vals.push(self.const_number()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBrace)?;
            Ok(GlobalInit::List(vals))
        } else {
            Ok(GlobalInit::Scalar(self.const_number()?))
        }
    }

    /// A constant numeric expression (literals, unary minus, + - * / %).
    fn const_number(&mut self) -> Result<f64, ParseError> {
        let e = self.expr()?;
        const_eval(&e).ok_or_else(|| self.err("expected constant expression".into()))
    }

    fn const_u32(&mut self) -> Result<u32, ParseError> {
        let v = self.const_number()?;
        if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
            return Err(self.err("expected nonnegative integer constant".into()));
        }
        Ok(v as u32)
    }

    fn function(&mut self, ret: Type, name: String, span: Span) -> Result<Function, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            if *self.peek() == Tok::KwVoid && *self.peek2() == Tok::RParen {
                self.bump(); // `f(void)`
            } else {
                loop {
                    let ty = self.full_type()?;
                    let (pname, pspan) = self.ident()?;
                    params.push(Param { name: pname, ty, span: pspan });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        Ok(Function { name, ret, params, body, span, is_outlined: false })
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unterminated block".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwInt | Tok::KwFloat => {
                let s = self.decl_stmt()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.block_or_stmt()?;
                let els = if self.eat(&Tok::KwElse) { Some(self.block_or_stmt()?) } else { None };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwDo => {
                self.bump();
                let body = self.block_or_stmt()?;
                self.expect(&Tok::KwWhile)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if *self.peek() == Tok::Semi {
                    None
                } else if matches!(self.peek(), Tok::KwInt | Tok::KwFloat) {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&Tok::Semi)?;
                let cond = if *self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(&Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(&Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::For { init, cond, step, body })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(span))
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(span))
            }
            Tok::KwReturn => {
                self.bump();
                let e = if *self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(e, span))
            }
            Tok::KwSpawn => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let lo = self.expr()?;
                self.expect(&Tok::Comma)?;
                let hi = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::Spawn { lo, hi, body, span })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    /// A single statement or a braced block, normalized to a block.
    fn block_or_stmt(&mut self) -> Result<Block, ParseError> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(Block { stmts: vec![self.stmt()?] })
        }
    }

    /// Local declaration (without the trailing semicolon).
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let ty = self.full_type()?;
        let (name, span) = self.ident()?;
        let mut array = None;
        if self.eat(&Tok::LBracket) {
            array = Some(self.const_u32()?);
            self.expect(&Tok::RBracket)?;
        }
        let init = if self.eat(&Tok::Assign) { Some(self.expr()?) } else { None };
        Ok(Stmt::Decl { name, ty, array, init, span })
    }

    /// Assignment / expression statement (no semicolon) — also used as a
    /// `for` init/step clause.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let e = self.expr()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            Tok::AmpAssign => Some(BinOp::BitAnd),
            Tok::PipeAssign => Some(BinOp::BitOr),
            Tok::CaretAssign => Some(BinOp::BitXor),
            Tok::ShlAssign => Some(BinOp::Shl),
            Tok::ShrAssign => Some(BinOp::Shr),
            Tok::PlusPlus => {
                self.bump();
                return Ok(Stmt::Assign {
                    target: e,
                    op: Some(BinOp::Add),
                    value: Expr::IntLit(1),
                    span,
                });
            }
            Tok::MinusMinus => {
                self.bump();
                return Ok(Stmt::Assign {
                    target: e,
                    op: Some(BinOp::Sub),
                    value: Expr::IntLit(1),
                    span,
                });
            }
            _ => return Ok(Stmt::Expr(e)),
        };
        self.bump();
        let value = self.expr()?;
        Ok(Stmt::Assign { target: e, op, value, span })
    }

    // ---------------- expressions (precedence climbing) ----------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let c = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let t = self.expr()?;
            self.expect(&Tok::Colon)?;
            let e = self.expr()?;
            Ok(Expr::Ternary { c: Box::new(c), t: Box::new(t), e: Box::new(e) })
        } else {
            Ok(c)
        }
    }

    fn bin_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            Tok::OrOr => (BinOp::LogOr, 1),
            Tok::AndAnd => (BinOp::LogAnd, 2),
            Tok::Pipe => (BinOp::BitOr, 3),
            Tok::Caret => (BinOp::BitXor, 4),
            Tok::Amp => (BinOp::BitAnd, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.bin_op() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary { op, l: Box::new(lhs), r: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::Neg, e: Box::new(self.unary()?) })
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::Not, e: Box::new(self.unary()?) })
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::BitNot, e: Box::new(self.unary()?) })
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.unary()?)))
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary()?), span))
            }
            Tok::LParen if matches!(self.peek2(), Tok::KwInt | Tok::KwFloat | Tok::KwVoid) => {
                // Cast: `(type*) expr`.
                self.bump();
                let ty = self.full_type()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Cast { ty, e: Box::new(self.unary()?) })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat(&Tok::LBracket) {
                let idx = self.expr()?;
                self.expect(&Tok::RBracket)?;
                e = Expr::Index { base: Box::new(e), idx: Box::new(idx) };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.bump().tok {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Dollar => Ok(Expr::Dollar(span)),
            Tok::KwPs => {
                self.expect(&Tok::LParen)?;
                let local = self.expr()?;
                self.expect(&Tok::Comma)?;
                let base = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Ps { local: Box::new(local), base: Box::new(base), span })
            }
            Tok::KwPsm => {
                self.expect(&Tok::LParen)?;
                let local = self.expr()?;
                self.expect(&Tok::Comma)?;
                let target = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Psm { local: Box::new(local), target: Box::new(target), span })
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Call { name, args, span })
                } else {
                    Ok(Expr::Ident(name, span))
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(ParseError {
                span,
                message: format!("expected expression, found `{other}`"),
            }),
        }
    }
}

/// Type of the most recent global's base declaration (for `int a, b;`).
fn prog_last_base(prog: &Program) -> Type {
    prog.globals.last().map(|g| g.ty.clone()).unwrap_or(Type::Int)
}

/// Evaluate a constant numeric expression (global initializers and array
/// bounds).
pub fn const_eval(e: &Expr) -> Option<f64> {
    match e {
        Expr::IntLit(v) => Some(*v as f64),
        Expr::FloatLit(v) => Some(*v),
        Expr::Unary { op: UnOp::Neg, e } => Some(-const_eval(e)?),
        Expr::Binary { op, l, r } => {
            let (a, b) = (const_eval(l)?, const_eval(r)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 2a array-compaction program, verbatim modulo
    /// whitespace.
    pub const FIG2A: &str = r#"
        int A[8]; int B[8]; int base = 0; int N = 8;
        void main() {
            spawn(0, N - 1) {
                int inc = 1;
                if (A[$] != 0) {
                    ps(inc, base);
                    B[inc] = A[$];
                }
            }
        }
    "#;

    #[test]
    fn parses_fig2a() {
        let p = parse(FIG2A).unwrap();
        assert_eq!(p.globals.len(), 4);
        assert_eq!(p.functions.len(), 1);
        let main = p.function("main").unwrap();
        let Stmt::Spawn { body, .. } = &main.body.stmts[0] else {
            panic!("expected spawn")
        };
        let Stmt::If { cond, then, .. } = &body.stmts[1] else {
            panic!("expected if")
        };
        assert!(matches!(cond, Expr::Binary { op: BinOp::Ne, .. }));
        assert!(matches!(then.stmts[0], Stmt::Expr(Expr::Ps { .. })));
    }

    #[test]
    fn precedence_and_associativity() {
        let p = parse("int x; void main() { x = 1 + 2 * 3 - 4; }").unwrap();
        let Stmt::Assign { value, .. } = &p.functions[0].body.stmts[0] else {
            panic!()
        };
        // ((1 + (2*3)) - 4)
        assert_eq!(const_eval(value), Some(3.0));
    }

    #[test]
    fn control_flow_statements() {
        let src = r#"
            void main() {
                int i;
                for (i = 0; i < 10; i++) {
                    if (i == 5) continue;
                    while (i > 20) { break; }
                    do { i += 1; } while (i < 3);
                }
            }
        "#;
        let p = parse(src).unwrap();
        assert!(matches!(p.functions[0].body.stmts[1], Stmt::For { .. }));
    }

    #[test]
    fn pointers_casts_addrof() {
        let src = r#"
            void f(int* p, float* q) {
                *p = 1;
                q[2] = (float)(*p);
                p = &p[3];
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].params[0].ty, Type::Int.ptr());
        assert!(matches!(
            p.functions[0].body.stmts[1],
            Stmt::Assign { value: Expr::Cast { .. }, .. }
        ));
    }

    #[test]
    fn global_arrays_and_initializers() {
        let p = parse("const int T[4] = {1, 2, 3, 4}; volatile int flag; float g = 9.81;")
            .unwrap();
        assert_eq!(p.globals[0].array, Some(4));
        assert!(p.globals[0].is_const);
        assert_eq!(
            p.globals[0].init,
            Some(GlobalInit::List(vec![1.0, 2.0, 3.0, 4.0]))
        );
        assert!(p.globals[1].volatile);
        assert_eq!(p.globals[2].init, Some(GlobalInit::Scalar(9.81)));
    }

    #[test]
    fn array_size_constant_expressions() {
        let p = parse("int A[2 * 8]; void main() { }").unwrap();
        assert_eq!(p.globals[0].array, Some(16));
    }

    #[test]
    fn psm_parses() {
        let p = parse("int c; void main() { int v = 1; psm(v, c); }").unwrap();
        assert!(matches!(
            p.functions[0].body.stmts[1],
            Stmt::Expr(Expr::Psm { .. })
        ));
    }

    #[test]
    fn errors_have_positions() {
        let err = parse("void main() { int = 3; }").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("identifier"));
        assert!(parse("void main() { x = ; }").is_err());
        assert!(parse("int A[-1];").is_err());
    }

    #[test]
    fn ternary_and_logical() {
        let p = parse("int x; void main() { x = x > 0 && x < 10 ? 1 : 0; }").unwrap();
        let Stmt::Assign { value, .. } = &p.functions[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Ternary { .. }));
    }
}
