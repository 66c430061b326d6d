//! Outlining (method extraction) of spawn blocks — the paper's CIL
//! pre-pass transformation (§IV-B, Fig. 8).
//!
//! The core-pass is a serial optimizer; left inline, a spawn statement
//! looks to it like a plain code block, opening the door to *illegal
//! dataflow*: code motion across the spawn boundary, and register
//! promotion of variables that the parallel TCUs can only observe through
//! memory. Outlining places each spawn statement in a new function and
//! replaces it with a call. Variables of the enclosing scope that the
//! spawn accesses become parameters: read-only `int`/pointer scalars by
//! value, written scalars by reference (as `found` in Fig. 8c), arrays by
//! (decayed) pointer. A `float` scalar always goes by reference, since
//! parameters are passed in integer registers and XMTC has no `float`
//! parameter.
//!
//! With outlining disabled (the `Options::outline` flag) the compiler
//! reproduces the paper's hazard: a scalar written inside the spawn block
//! lives in a master register that the TCUs never write back — the
//! `fig8_illegal_dataflow` integration test demonstrates the divergence.

use crate::ast::*;
use std::collections::{BTreeMap, HashSet};

/// Outline every spawn statement of every function in the program.
pub fn outline(program: &mut Program) {
    let mut new_fns = Vec::new();
    let mut counter = 0u32;
    for f in &mut program.functions {
        let mut scope = Scope::default();
        for p in &f.params {
            scope.declare(&p.name, p.ty.clone(), false);
        }
        outline_block(&mut f.body, &mut scope, &mut new_fns, &mut counter);
    }
    program.functions.extend(new_fns);
}

/// Lexical scope tracking for capture analysis.
#[derive(Default, Clone)]
struct Scope {
    /// Stack of frames; each maps name → (type, is_array).
    frames: Vec<BTreeMap<String, (Type, bool)>>,
}

impl Scope {
    fn push(&mut self) {
        self.frames.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: Type, is_array: bool) {
        if self.frames.is_empty() {
            self.frames.push(BTreeMap::new());
        }
        self.frames
            .last_mut()
            .unwrap()
            .insert(name.to_string(), (ty, is_array));
    }

    fn lookup(&self, name: &str) -> Option<&(Type, bool)> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }
}

fn outline_block(
    b: &mut Block,
    scope: &mut Scope,
    new_fns: &mut Vec<Function>,
    counter: &mut u32,
) {
    scope.push();
    for s in &mut b.stmts {
        outline_stmt(s, scope, new_fns, counter);
    }
    scope.pop();
}

fn outline_stmt(
    s: &mut Stmt,
    scope: &mut Scope,
    new_fns: &mut Vec<Function>,
    counter: &mut u32,
) {
    match s {
        Stmt::Decl { name, ty, array, .. } => {
            scope.declare(name, ty.clone(), array.is_some());
        }
        Stmt::If { then, els, .. } => {
            outline_block(then, scope, new_fns, counter);
            if let Some(e) = els {
                outline_block(e, scope, new_fns, counter);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
            outline_block(body, scope, new_fns, counter)
        }
        Stmt::For { init, body, .. } => {
            scope.push();
            if let Some(i) = init {
                outline_stmt(i, scope, new_fns, counter);
            }
            outline_block(body, scope, new_fns, counter);
            scope.pop();
        }
        Stmt::Block(b) => outline_block(b, scope, new_fns, counter),
        Stmt::Spawn { lo, hi, body, span } => {
            let k = *counter;
            *counter += 1;
            let fname = format!("__outl_spawn{k}");

            // 1. Capture analysis over lo/hi/body.
            let mut caps = Captures {
                scope,
                reads: Vec::new(),
                writes: HashSet::new(),
                locals: vec![HashSet::new()],
            };
            caps.expr(lo, false);
            caps.expr(hi, false);
            caps.block(body);
            let Captures { reads, writes, .. } = caps;

            // 2. Build the parameter list: stable order of first use.
            let mut params = Vec::new();
            let mut by_ref = HashSet::new();
            for (name, ty, is_array) in &reads {
                let (pty, r) = if *is_array {
                    // Arrays decay: pass the element pointer by value.
                    (array_decay(ty), false)
                } else if writes.contains(name) || *ty == Type::Float {
                    (ty.clone().ptr(), true)
                } else {
                    (ty.clone(), false)
                };
                if r {
                    by_ref.insert(name.clone());
                }
                params.push(Param { name: name.clone(), ty: pty, span: *span });
            }

            // 3. Rewrite by-ref uses inside the spawn (v → *v). The spawn
            // moves into the new function: `*s` is replaced below.
            let mut new_lo = std::mem::replace(lo, Expr::IntLit(0));
            let mut new_hi = std::mem::replace(hi, Expr::IntLit(0));
            let mut new_body = std::mem::take(body);
            if !by_ref.is_empty() {
                let mut rw = Rewriter { by_ref: &by_ref, shadow: vec![HashSet::new()] };
                rw.expr(&mut new_lo);
                rw.expr(&mut new_hi);
                rw.block(&mut new_body);
            }

            // 4. Emit the outlined function and the replacing call.
            let args: Vec<Expr> = reads
                .iter()
                .map(|(name, _, is_array)| {
                    if by_ref.contains(name) && !is_array {
                        Expr::AddrOf(Box::new(Expr::Ident(name.clone(), *span)), *span)
                    } else {
                        Expr::Ident(name.clone(), *span)
                    }
                })
                .collect();
            new_fns.push(Function {
                name: fname.clone(),
                ret: Type::Void,
                params,
                body: Block {
                    stmts: vec![Stmt::Spawn {
                        lo: new_lo,
                        hi: new_hi,
                        body: new_body,
                        span: *span,
                    }],
                },
                span: *span,
                is_outlined: true,
            });
            *s = Stmt::Expr(Expr::Call { name: fname, args, span: *span });
        }
        _ => {}
    }
}

fn array_decay(elem: &Type) -> Type {
    elem.clone().ptr()
}

/// Collects enclosing-scope variables referenced by a spawn statement.
struct Captures<'a> {
    scope: &'a Scope,
    /// (name, type, is_array) in order of first use.
    reads: Vec<(String, Type, bool)>,
    writes: HashSet<String>,
    /// Names declared inside the spawn body (shadow the captures).
    locals: Vec<HashSet<String>>,
}

impl Captures<'_> {
    fn is_local(&self, name: &str) -> bool {
        self.locals.iter().any(|f| f.contains(name))
    }

    fn note(&mut self, name: &str, written: bool) {
        if self.is_local(name) {
            return;
        }
        let Some((ty, is_array)) = self.scope.lookup(name) else {
            return; // a global — stays in shared memory, no capture
        };
        if !self.reads.iter().any(|(n, _, _)| n == name) {
            self.reads.push((name.to_string(), ty.clone(), *is_array));
        }
        if written {
            self.writes.insert(name.to_string());
        }
    }

    fn block(&mut self, b: &Block) {
        self.locals.push(HashSet::new());
        for s in &b.stmts {
            self.stmt(s);
        }
        self.locals.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    self.expr(e, false);
                }
                self.locals.last_mut().unwrap().insert(name.clone());
            }
            Stmt::Assign { target, value, op, .. } => {
                // Compound assignment also reads the target.
                self.expr(value, false);
                self.lvalue(target, op.is_some());
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond, false);
                self.block(then);
                if let Some(e) = els {
                    self.block(e);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond, false);
                self.block(body);
            }
            Stmt::For { init, cond, step, body } => {
                self.locals.push(HashSet::new());
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c, false);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
                self.locals.pop();
            }
            Stmt::Return(Some(e), _) => self.expr(e, false),
            Stmt::Expr(e) => self.expr(e, false),
            Stmt::Block(b) => self.block(b),
            Stmt::Spawn { .. } => unreachable!("nested spawns serialized before outlining"),
            _ => {}
        }
    }

    /// Record an lvalue occurrence; `also_reads` for compound assignment.
    fn lvalue(&mut self, e: &Expr, also_reads: bool) {
        match e {
            Expr::Ident(name, _) => {
                self.note(name, true);
                let _ = also_reads; // note() already records the read
            }
            Expr::Index { base, idx } => {
                // Writing through an array/pointer reads the base.
                self.expr(base, false);
                self.expr(idx, false);
            }
            Expr::Deref(inner) => self.expr(inner, false),
            other => self.expr(other, false),
        }
    }

    fn expr(&mut self, e: &Expr, _write: bool) {
        match e {
            Expr::Ident(name, _) => self.note(name, false),
            Expr::AddrOf(inner, _) => {
                // Taking an address forces by-ref capture.
                if let Expr::Ident(name, _) = inner.as_ref() {
                    self.note(name, true);
                } else {
                    self.expr(inner, false);
                }
            }
            Expr::Unary { e, .. } | Expr::Deref(e) | Expr::Cast { e, .. } => self.expr(e, false),
            Expr::Binary { l, r, .. } => {
                self.expr(l, false);
                self.expr(r, false);
            }
            Expr::Ternary { c, t, e } => {
                self.expr(c, false);
                self.expr(t, false);
                self.expr(e, false);
            }
            Expr::Index { base, idx } => {
                self.expr(base, false);
                self.expr(idx, false);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a, false);
                }
            }
            Expr::Ps { local, base, .. } => {
                // ps writes its `local` argument.
                self.lvalue(local, true);
                self.expr(base, false);
            }
            Expr::Psm { local, target, .. } => {
                self.lvalue(local, true);
                self.lvalue(target, true);
            }
            _ => {}
        }
    }
}

/// Rewrites by-ref captured identifiers `v` into `*v`, respecting
/// shadowing by spawn-local declarations.
struct Rewriter<'a> {
    by_ref: &'a HashSet<String>,
    shadow: Vec<HashSet<String>>,
}

impl Rewriter<'_> {
    fn shadowed(&self, name: &str) -> bool {
        self.shadow.iter().any(|f| f.contains(name))
    }

    fn block(&mut self, b: &mut Block) {
        self.shadow.push(HashSet::new());
        for s in &mut b.stmts {
            self.stmt(s);
        }
        self.shadow.pop();
    }

    fn stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                self.shadow.last_mut().unwrap().insert(name.clone());
            }
            Stmt::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond);
                self.block(then);
                if let Some(e) = els {
                    self.block(e);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond);
                self.block(body);
            }
            Stmt::For { init, cond, step, body } => {
                self.shadow.push(HashSet::new());
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
                self.shadow.pop();
            }
            Stmt::Return(Some(e), _) => self.expr(e),
            Stmt::Expr(e) => self.expr(e),
            Stmt::Block(b) => self.block(b),
            _ => {}
        }
    }

    fn expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Ident(name, span)
                if self.by_ref.contains(name.as_str()) && !self.shadowed(name) => {
                    *e = Expr::Deref(Box::new(Expr::Ident(name.clone(), *span)));
                }
            Expr::AddrOf(inner, _) => {
                self.expr(inner);
                // `&*p` simplifies to `p`.
                if let Expr::AddrOf(x, _) = e {
                    if let Expr::Deref(p) = x.as_mut() {
                        *e = (**p).clone();
                    }
                }
            }
            Expr::Unary { e, .. } | Expr::Deref(e) | Expr::Cast { e, .. } => self.expr(e),
            Expr::Binary { l, r, .. } => {
                self.expr(l);
                self.expr(r);
            }
            Expr::Ternary { c, t, e } => {
                self.expr(c);
                self.expr(t);
                self.expr(e);
            }
            Expr::Index { base, idx } => {
                self.expr(base);
                self.expr(idx);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Ps { local, base, .. } => {
                self.expr(local);
                self.expr(base);
            }
            Expr::Psm { local, target, .. } => {
                self.expr(local);
                self.expr(target);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::check;

    fn outlined(src: &str) -> Program {
        let mut p = check(parse(src).unwrap()).unwrap().program;
        outline(&mut p);
        p
    }

    #[test]
    fn fig8_outlining_shape() {
        // Paper Fig. 8a → Fig. 8c: `found` is written in the spawn block
        // so it is passed by reference; the array is a global and is not
        // captured.
        let p = outlined(
            "int A[16]; int counter;
             void main() {
                 int found = 0;
                 spawn(0, 15) { if (A[$] != 0) { found = 1; } }
                 if (found) { counter += 1; }
             }",
        );
        let f = p.function("__outl_spawn0").expect("outlined function exists");
        assert!(f.is_outlined);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "found");
        assert_eq!(f.params[0].ty, Type::Int.ptr());
        // The body writes through the pointer.
        let Stmt::Spawn { body, .. } = &f.body.stmts[0] else { panic!() };
        let Stmt::If { then, .. } = &body.stmts[0] else { panic!() };
        let Stmt::Assign { target, .. } = &then.stmts[0] else { panic!() };
        assert!(matches!(target, Expr::Deref(_)));

        // The call site passes &found.
        let main = p.function("main").unwrap();
        let Stmt::Expr(Expr::Call { name, args, .. }) = &main.body.stmts[1] else {
            panic!("spawn replaced by call")
        };
        assert_eq!(name, "__outl_spawn0");
        assert!(matches!(args[0], Expr::AddrOf(..)));
    }

    #[test]
    fn read_only_scalars_by_value() {
        let p = outlined(
            "int A[8];
             void main() { int n = 4; spawn(0, 7) { A[$] = n; } }",
        );
        let f = p.function("__outl_spawn0").unwrap();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Type::Int);
    }

    #[test]
    fn float_scalars_by_reference() {
        // A read-only float capture goes by reference: there is no float
        // parameter. The spawn reads it through the pointer.
        let p = outlined(
            "float F[4];
             void main() { float x = F[1]; spawn(0, 3) { F[$] = x; } }",
        );
        let f = p.function("__outl_spawn0").unwrap();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Type::Float.ptr());
        let Stmt::Spawn { body, .. } = &f.body.stmts[0] else { panic!() };
        assert!(matches!(&body.stmts[0], Stmt::Assign { value: Expr::Deref(_), .. }));
        let main = p.function("main").unwrap();
        let Stmt::Expr(Expr::Call { args, .. }) = &main.body.stmts[1] else { panic!() };
        assert!(matches!(args[0], Expr::AddrOf(..)));
    }

    #[test]
    fn local_arrays_by_decayed_pointer() {
        let p = outlined(
            "void main() { int t[8]; spawn(0, 7) { t[$] = $; } }",
        );
        let f = p.function("__outl_spawn0").unwrap();
        assert_eq!(f.params[0].ty, Type::Int.ptr());
        // Writes go through indexing, not deref-rewrite.
        let Stmt::Spawn { body, .. } = &f.body.stmts[0] else { panic!() };
        assert!(matches!(&body.stmts[0], Stmt::Assign { target: Expr::Index { .. }, .. }));
    }

    #[test]
    fn spawn_bounds_capture_locals() {
        let p = outlined("void main() { int n = 9; int s = 0; spawn(0, n) { s += $; } }");
        let f = p.function("__outl_spawn0").unwrap();
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"n"));
        assert!(names.contains(&"s"));
        // n read-only, s by-ref.
        let n = f.params.iter().find(|p| p.name == "n").unwrap();
        let s = f.params.iter().find(|p| p.name == "s").unwrap();
        assert_eq!(n.ty, Type::Int);
        assert_eq!(s.ty, Type::Int.ptr());
    }

    #[test]
    fn spawn_locals_shadow_captures() {
        // The spawn-local `x` shadows the outer `x`: no capture of the
        // outer one is needed for the inner uses.
        let p = outlined(
            "int A[4];
             void main() { int x = 1; spawn(0, 3) { int x = 2; A[$] = x; } x += 1; }",
        );
        let f = p.function("__outl_spawn0").unwrap();
        assert!(f.params.is_empty(), "shadowed variable must not be captured: {:?}", f.params);
    }

    #[test]
    fn ps_local_capture_is_by_ref() {
        // Fig 2a shape but with the ps local coming from the enclosing
        // scope — it must be captured by reference (ps writes it).
        let p = outlined(
            "int base; int B[8];
             void main() { int inc = 1; spawn(0, 7) { ps(inc, base); B[inc] = 1; } }",
        );
        let f = p.function("__outl_spawn0").unwrap();
        assert_eq!(f.params[0].name, "inc");
        assert_eq!(f.params[0].ty, Type::Int.ptr());
    }
}
