//! Inlining of function calls inside spawn blocks.
//!
//! The current XMT release has no parallel (cactus) stack, so virtual
//! threads cannot *call* functions — the paper lists cactus-stack
//! support as under development (§IV-E). This pre-pass recovers most of
//! the expressiveness without any stack: calls in parallel code are
//! **inlined** at compile time. Two shapes are supported:
//!
//! * *expression functions* — a body of exactly `return expr;`: the call
//!   becomes a fresh temporary bound to the substituted expression;
//! * *simple procedures* — `void` functions without `return`, `spawn`
//!   or local arrays: the call becomes the renamed body block.
//!
//! Arguments are bound to fresh locals first (each argument is evaluated
//! exactly once, C semantics), and inlined bodies may themselves contain
//! calls — resolved iteratively with a depth limit, so recursion in
//! parallel code is still rejected with a clear error.

use crate::ast::*;
use crate::lexer::Span;
use crate::CompileError;
use std::collections::HashMap;

/// Maximum nesting of inlined calls (catches recursion).
const MAX_DEPTH: u32 = 16;

/// Inline calls inside every spawn body of the program.
pub fn inline_parallel_calls(program: &mut Program) -> Result<(), CompileError> {
    if !spawn_calls(program) {
        return Ok(()); // nothing to inline, and nothing to reject
    }
    // Snapshot callee definitions (functions may call one another).
    let callees: HashMap<String, Function> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.clone()))
        .collect();
    let mut counter = 0u32;
    for f in &mut program.functions {
        let mut scope: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
        inline_in_block(&mut f.body, false, &callees, &mut counter, 0, &mut scope)?;
    }
    Ok(())
}

/// Does a spawn body call a function of the program? Only such a call is
/// inlined, or rejected.
fn spawn_calls(program: &Program) -> bool {
    fn in_block(b: &Block, names: &[&str]) -> bool {
        b.stmts.iter().any(|s| in_stmt(s, names))
    }
    fn in_stmt(s: &Stmt, names: &[&str]) -> bool {
        match s {
            Stmt::Spawn { body, .. } => {
                let mut hit = false;
                crate::sema::walk_exprs(body, &mut |e| {
                    if let Expr::Call { name, .. } = e {
                        hit |= names.contains(&name.as_str());
                    }
                });
                hit
            }
            Stmt::If { then, els, .. } => {
                in_block(then, names) || els.as_ref().is_some_and(|e| in_block(e, names))
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                in_block(body, names)
            }
            Stmt::Block(b) => in_block(b, names),
            _ => false,
        }
    }
    let names: Vec<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
    program.functions.iter().any(|f| in_block(&f.body, &names))
}

/// Identifiers an expression references that are not bound by `bound`.
fn free_idents(e: &Expr, bound: &std::collections::HashSet<String>, out: &mut Vec<String>) {
    crate::sema::walk_expr(e, &mut |x| {
        if let Expr::Ident(n, _) = x {
            if !bound.contains(n) && !out.contains(n) {
                out.push(n.clone());
            }
        }
    });
}

/// Free identifiers of a block (locals and `bound` excluded).
fn free_idents_block(
    b: &Block,
    bound: &mut std::collections::HashSet<String>,
    out: &mut Vec<String>,
) {
    for s in &b.stmts {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    free_idents(e, bound, out);
                }
                bound.insert(name.clone());
            }
            Stmt::Assign { target, value, .. } => {
                free_idents(target, bound, out);
                free_idents(value, bound, out);
            }
            Stmt::If { cond, then, els } => {
                free_idents(cond, bound, out);
                free_idents_block(then, &mut bound.clone(), out);
                if let Some(e) = els {
                    free_idents_block(e, &mut bound.clone(), out);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                free_idents(cond, bound, out);
                free_idents_block(body, &mut bound.clone(), out);
            }
            Stmt::For { init, cond, step, body } => {
                let mut inner = bound.clone();
                if let Some(i) = init {
                    if let Stmt::Decl { name, init: ie, .. } = i.as_ref() {
                        if let Some(e) = ie {
                            free_idents(e, &inner, out);
                        }
                        inner.insert(name.clone());
                    }
                }
                if let Some(c) = cond {
                    free_idents(c, &inner, out);
                }
                if let Some(st) = step {
                    if let Stmt::Assign { target, value, .. } = st.as_ref() {
                        free_idents(target, &inner, out);
                        free_idents(value, &inner, out);
                    }
                }
                free_idents_block(body, &mut inner, out);
            }
            Stmt::Return(Some(e), _) | Stmt::Expr(e) => free_idents(e, bound, out),
            Stmt::Block(b) => free_idents_block(b, &mut bound.clone(), out),
            _ => {}
        }
    }
}

/// Hygiene check: the inlined body's free identifiers must refer to
/// globals; if the call site shadows one with a local, substitution would
/// capture it silently — reject with a clear diagnostic instead.
fn check_hygiene(
    callee: &Function,
    scope: &[String],
    span: Span,
) -> Result<(), CompileError> {
    let mut bound: std::collections::HashSet<String> =
        callee.params.iter().map(|p| p.name.clone()).collect();
    let mut free = Vec::new();
    free_idents_block(&callee.body, &mut bound, &mut free);
    for name in free {
        if scope.contains(&name) {
            return Err(CompileError::sema(
                format!(
                    "cannot inline `{}` here: it reads global `{name}`, which a local of the same name shadows at this call site — rename the local",
                    callee.name
                ),
                span,
            ));
        }
    }
    Ok(())
}

/// Remove functions that are no longer reachable from `main` through
/// remaining (serial) calls — in particular helpers that existed only to
/// be inlined into spawn blocks. Keeps unreachable-but-valid code from
/// tripping ABI limits it never exercises (e.g. float parameters).
pub fn prune_dead_functions(program: &mut Program) {
    use std::collections::HashSet;
    let mut live: HashSet<String> = HashSet::new();
    let mut work = vec!["main".to_string()];
    while let Some(name) = work.pop() {
        if !live.insert(name.clone()) {
            continue;
        }
        if let Some(f) = program.function(&name) {
            crate::sema::walk_exprs(&f.body, &mut |e| {
                if let Expr::Call { name, .. } = e {
                    if !live.contains(name) {
                        work.push(name.clone());
                    }
                }
            });
        }
    }
    program.functions.retain(|f| live.contains(&f.name));
}

/// What kind of inlining a callee supports.
enum Shape<'a> {
    /// `return expr;`
    Expr(&'a Expr),
    /// `void` body without returns/spawns/arrays.
    Block(&'a Block),
}

fn shape_of(f: &Function) -> Option<Shape<'_>> {
    // Expression function: single `return expr;`.
    if let [Stmt::Return(Some(e), _)] = f.body.stmts.as_slice() {
        return Some(Shape::Expr(e));
    }
    // Simple procedure.
    if f.ret == Type::Void {
        let mut ok = true;
        walk_stmts(&f.body, &mut |s| match s {
            Stmt::Return(..) | Stmt::Spawn { .. } => ok = false,
            Stmt::Decl { array: Some(_), .. } => ok = false,
            _ => {}
        });
        if ok {
            return Some(Shape::Block(&f.body));
        }
    }
    None
}

fn inline_in_block(
    b: &mut Block,
    in_spawn: bool,
    callees: &HashMap<String, Function>,
    counter: &mut u32,
    depth: u32,
    scope: &mut Vec<String>,
) -> Result<(), CompileError> {
    let mark = scope.len();
    let mut out: Vec<Stmt> = Vec::with_capacity(b.stmts.len());
    for mut s in std::mem::take(&mut b.stmts) {
        // Recurse into nested structures first.
        match &mut s {
            Stmt::If { then, els, .. } => {
                inline_in_block(then, in_spawn, callees, counter, depth, scope)?;
                if let Some(e) = els {
                    inline_in_block(e, in_spawn, callees, counter, depth, scope)?;
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                inline_in_block(body, in_spawn, callees, counter, depth, scope)?
            }
            Stmt::For { init, body, .. } => {
                let m = scope.len();
                if let Some(Stmt::Decl { name, .. }) = init.as_deref() {
                    scope.push(name.clone());
                }
                inline_in_block(body, in_spawn, callees, counter, depth, scope)?;
                scope.truncate(m);
            }
            Stmt::Block(inner) => {
                inline_in_block(inner, in_spawn, callees, counter, depth, scope)?
            }
            Stmt::Spawn { body, .. } => {
                inline_in_block(body, true, callees, counter, depth, scope)?;
            }
            Stmt::Decl { name, .. } => scope.push(name.clone()),
            _ => {}
        }
        if in_spawn {
            // Lift calls out of this statement's expressions.
            let mut prelude = Vec::new();
            lift_calls_in_stmt(&mut s, callees, counter, depth, &mut prelude, scope)?;
            out.extend(prelude);
        }
        out.push(s);
    }
    b.stmts = out;
    scope.truncate(mark);
    Ok(())
}

/// Replace every inlinable call in the statement's expressions with a
/// fresh temporary, emitting the binding statements into `prelude`.
fn lift_calls_in_stmt(
    s: &mut Stmt,
    callees: &HashMap<String, Function>,
    counter: &mut u32,
    depth: u32,
    prelude: &mut Vec<Stmt>,
    scope: &[String],
) -> Result<(), CompileError> {
    match s {
        Stmt::Decl { init: Some(e), .. } | Stmt::Return(Some(e), _) => {
            lift_calls(e, callees, counter, depth, prelude, scope)
        }
        Stmt::Assign { target, value, .. } => {
            lift_calls(target, callees, counter, depth, prelude, scope)?;
            lift_calls(value, callees, counter, depth, prelude, scope)
        }
        Stmt::If { cond, .. } => lift_calls(cond, callees, counter, depth, prelude, scope),
        Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => {
            // Calls in loop conditions would need per-iteration
            // re-evaluation; lifting once would change semantics.
            let mut has_call = false;
            crate::sema::walk_expr(cond, &mut |e| {
                if let Expr::Call { name, .. } = e {
                    if callees.contains_key(name) {
                        has_call = true;
                    }
                }
            });
            if has_call {
                return Err(CompileError::sema(
                    "calls in parallel loop conditions cannot be inlined; \
                     hoist the call into the loop body",
                    cond.span(),
                ));
            }
            Ok(())
        }
        Stmt::For { cond, step, init, .. } => {
            for part in [init.as_deref_mut(), step.as_deref_mut()].into_iter().flatten() {
                lift_calls_in_stmt(part, callees, counter, depth, prelude, scope)?;
            }
            if let Some(c) = cond {
                let mut has_call = false;
                crate::sema::walk_expr(c, &mut |e| {
                    if let Expr::Call { name, .. } = e {
                        if callees.contains_key(name) {
                            has_call = true;
                        }
                    }
                });
                if has_call {
                    return Err(CompileError::sema(
                        "calls in parallel loop conditions cannot be inlined",
                        c.span(),
                    ));
                }
            }
            Ok(())
        }
        Stmt::Expr(e) => lift_calls(e, callees, counter, depth, prelude, scope),
        _ => Ok(()),
    }
}

fn lift_calls(
    e: &mut Expr,
    callees: &HashMap<String, Function>,
    counter: &mut u32,
    depth: u32,
    prelude: &mut Vec<Stmt>,
    scope: &[String],
) -> Result<(), CompileError> {
    // Depth-first: inner calls first.
    match e {
        Expr::Unary { e, .. } | Expr::Deref(e) | Expr::AddrOf(e, _) | Expr::Cast { e, .. } => {
            lift_calls(e, callees, counter, depth, prelude, scope)?
        }
        Expr::Binary { l, r, .. } => {
            lift_calls(l, callees, counter, depth, prelude, scope)?;
            lift_calls(r, callees, counter, depth, prelude, scope)?;
        }
        Expr::Ternary { c, t, e: ee } => {
            lift_calls(c, callees, counter, depth, prelude, scope)?;
            // Calls in ternary arms are conditionally evaluated; lifting
            // them would evaluate unconditionally. Keep it strict.
            let check = |x: &Expr| -> Result<(), CompileError> {
                let mut has = false;
                crate::sema::walk_expr(x, &mut |e| {
                    if let Expr::Call { name, .. } = e {
                        if callees.contains_key(name) {
                            has = true;
                        }
                    }
                });
                if has {
                    Err(CompileError::sema(
                        "calls in parallel ternary arms cannot be inlined; \
                         use an if statement",
                        x.span(),
                    ))
                } else {
                    Ok(())
                }
            };
            check(t)?;
            check(ee)?;
        }
        Expr::Index { base, idx } => {
            lift_calls(base, callees, counter, depth, prelude, scope)?;
            lift_calls(idx, callees, counter, depth, prelude, scope)?;
        }
        Expr::Ps { local, base, .. } => {
            lift_calls(local, callees, counter, depth, prelude, scope)?;
            lift_calls(base, callees, counter, depth, prelude, scope)?;
        }
        Expr::Psm { local, target, .. } => {
            lift_calls(local, callees, counter, depth, prelude, scope)?;
            lift_calls(target, callees, counter, depth, prelude, scope)?;
        }
        Expr::Call { args, .. } => {
            for a in args.iter_mut() {
                lift_calls(a, callees, counter, depth, prelude, scope)?;
            }
        }
        _ => {}
    }

    // Now handle this node if it is itself an inlinable call.
    if let Expr::Call { name, args, span } = e {
        let Some(callee) = callees.get(name.as_str()) else {
            return Ok(()); // builtin (print/alloc): sema's rules apply
        };
        if depth >= MAX_DEPTH {
            return Err(CompileError::sema(
                format!(
                    "call chain through `{name}` in parallel code is too deep \
                     (recursive functions need the cactus stack, paper §IV-E)"
                ),
                *span,
            ));
        }
        if callee.params.len() != args.len() {
            // Let lowering produce its arity diagnostic.
            return Ok(());
        }
        check_hygiene(callee, scope, *span)?;
        match shape_of(callee) {
            Some(Shape::Expr(body_expr)) => {
                let k = *counter;
                *counter += 1;
                // Bind arguments once.
                let mut subst: HashMap<String, String> = HashMap::new();
                for (p, a) in callee.params.iter().zip(args.iter()) {
                    let tmp = format!("__inl{k}_{}", p.name);
                    prelude.push(Stmt::Decl {
                        name: tmp.clone(),
                        ty: p.ty.clone(),
                        array: None,
                        init: Some(a.clone()),
                        span: *span,
                    });
                    subst.insert(p.name.clone(), tmp);
                }
                let mut inlined = body_expr.clone();
                rename_idents(&mut inlined, &subst);
                // Inner calls inside the inlined expression resolve at
                // depth + 1.
                lift_calls(&mut inlined, callees, counter, depth + 1, prelude, scope)?;
                let ret_tmp = format!("__inl{k}_ret");
                prelude.push(Stmt::Decl {
                    name: ret_tmp.clone(),
                    ty: callee.ret.clone(),
                    array: None,
                    init: Some(inlined),
                    span: *span,
                });
                *e = Expr::Ident(ret_tmp, *span);
            }
            Some(Shape::Block(body)) => {
                let k = *counter;
                *counter += 1;
                let mut subst: HashMap<String, String> = HashMap::new();
                for (p, a) in callee.params.iter().zip(args.iter()) {
                    let tmp = format!("__inl{k}_{}", p.name);
                    prelude.push(Stmt::Decl {
                        name: tmp.clone(),
                        ty: p.ty.clone(),
                        array: None,
                        init: Some(a.clone()),
                        span: *span,
                    });
                    subst.insert(p.name.clone(), tmp);
                }
                let mut inlined = body.clone();
                rename_block(&mut inlined, &mut subst, k);
                // Resolve nested calls inside the inlined body.
                inline_block_at_depth(&mut inlined, callees, counter, depth + 1, scope)?;
                prelude.push(Stmt::Block(inlined));
                // The call expression itself becomes a no-op constant.
                *e = Expr::IntLit(0);
            }
            None => {
                return Err(CompileError::sema(
                    format!(
                        "`{name}` cannot be inlined into parallel code: only \
                         single-`return expr;` functions and return-free void \
                         procedures are supported without the parallel cactus \
                         stack (paper §IV-E)"
                    ),
                    *span,
                ));
            }
        }
    }
    Ok(())
}

/// Inline calls inside an already-substituted body block (procedures may
/// call further functions).
fn inline_block_at_depth(
    b: &mut Block,
    callees: &HashMap<String, Function>,
    counter: &mut u32,
    depth: u32,
    scope: &[String],
) -> Result<(), CompileError> {
    let mut out = Vec::with_capacity(b.stmts.len());
    for mut s in std::mem::take(&mut b.stmts) {
        match &mut s {
            Stmt::If { then, els, .. } => {
                inline_block_at_depth(then, callees, counter, depth, scope)?;
                if let Some(e) = els {
                    inline_block_at_depth(e, callees, counter, depth, scope)?;
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                inline_block_at_depth(body, callees, counter, depth, scope)?
            }
            Stmt::Block(inner) => inline_block_at_depth(inner, callees, counter, depth, scope)?,
            _ => {}
        }
        let mut prelude = Vec::new();
        lift_calls_in_stmt(&mut s, callees, counter, depth, &mut prelude, scope)?;
        out.extend(prelude);
        out.push(s);
    }
    b.stmts = out;
    Ok(())
}

/// Rename identifier occurrences per the substitution map.
fn rename_idents(e: &mut Expr, subst: &HashMap<String, String>) {
    match e {
        Expr::Ident(n, _) => {
            if let Some(r) = subst.get(n) {
                *n = r.clone();
            }
        }
        Expr::Unary { e, .. } | Expr::Deref(e) | Expr::AddrOf(e, _) | Expr::Cast { e, .. } => {
            rename_idents(e, subst)
        }
        Expr::Binary { l, r, .. } => {
            rename_idents(l, subst);
            rename_idents(r, subst);
        }
        Expr::Ternary { c, t, e } => {
            rename_idents(c, subst);
            rename_idents(t, subst);
            rename_idents(e, subst);
        }
        Expr::Index { base, idx } => {
            rename_idents(base, subst);
            rename_idents(idx, subst);
        }
        Expr::Call { args, .. } => {
            for a in args {
                rename_idents(a, subst);
            }
        }
        Expr::Ps { local, base, .. } => {
            rename_idents(local, subst);
            rename_idents(base, subst);
        }
        Expr::Psm { local, target, .. } => {
            rename_idents(local, subst);
            rename_idents(target, subst);
        }
        _ => {}
    }
}

/// Rename a procedure body: parameters per `subst`, plus every local
/// declaration (and its uses) with a unique `__inlK_` prefix.
fn rename_block(b: &mut Block, subst: &mut HashMap<String, String>, k: u32) {
    for s in &mut b.stmts {
        rename_stmt(s, subst, k);
    }
}

fn rename_stmt(s: &mut Stmt, subst: &mut HashMap<String, String>, k: u32) {
    match s {
        Stmt::Decl { name, init, .. } => {
            if let Some(e) = init {
                rename_idents(e, subst);
            }
            let fresh = format!("__inl{k}_{name}");
            subst.insert(name.clone(), fresh.clone());
            *name = fresh;
        }
        Stmt::Assign { target, value, .. } => {
            rename_idents(target, subst);
            rename_idents(value, subst);
        }
        Stmt::If { cond, then, els } => {
            rename_idents(cond, subst);
            rename_block(then, &mut subst.clone(), k);
            if let Some(e) = els {
                rename_block(e, &mut subst.clone(), k);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            rename_idents(cond, subst);
            rename_block(body, &mut subst.clone(), k);
        }
        Stmt::For { init, cond, step, body } => {
            let mut inner = subst.clone();
            if let Some(i) = init {
                rename_stmt(i, &mut inner, k);
            }
            if let Some(c) = cond {
                rename_idents(c, &inner);
            }
            if let Some(st) = step {
                rename_stmt(st, &mut inner, k);
            }
            rename_block(body, &mut inner, k);
        }
        Stmt::Expr(e) => rename_idents(e, subst),
        Stmt::Block(b) => rename_block(b, &mut subst.clone(), k),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Result<Program, CompileError> {
        let mut p = parse(src).unwrap();
        inline_parallel_calls(&mut p)?;
        Ok(p)
    }

    #[test]
    fn expression_function_inlined() {
        let p = run(
            "int sq(int x) { return x * x; }
             int A[8];
             void main() { spawn(0, 7) { A[$] = sq($ + 1); } }",
        )
        .unwrap();
        // The spawn body now contains decls and no Call to sq.
        let main = p.function("main").unwrap();
        let Stmt::Spawn { body, .. } = &main.body.stmts[0] else { panic!() };
        let mut calls = 0;
        crate::sema::walk_exprs(body, &mut |e| {
            if matches!(e, Expr::Call { .. }) {
                calls += 1;
            }
        });
        assert_eq!(calls, 0, "call replaced: {body:#?}");
        assert!(body.stmts.len() >= 3, "arg bind + ret bind + assignment");
    }

    #[test]
    fn nested_expression_calls_inline() {
        run(
            "int inc(int x) { return x + 1; }
             int twice(int x) { return inc(inc(x)); }
             int A[8];
             void main() { spawn(0, 7) { A[$] = twice($); } }",
        )
        .unwrap();
    }

    #[test]
    fn void_procedure_inlined() {
        let p = run(
            "int A[8];
             void bump(int i, int d) { int t = A[i]; A[i] = t + d; }
             void main() { spawn(0, 7) { bump($, 3); } }",
        )
        .unwrap();
        let main = p.function("main").unwrap();
        let Stmt::Spawn { body, .. } = &main.body.stmts[0] else { panic!() };
        let mut calls = 0;
        crate::sema::walk_exprs(body, &mut |e| {
            if matches!(e, Expr::Call { .. }) {
                calls += 1;
            }
        });
        assert_eq!(calls, 0);
    }

    #[test]
    fn recursion_rejected_with_cactus_hint() {
        let err = run(
            "int fact(int n) { return n <= 1 ? 1 : n; }
             int looped(int n) { return helper(n); }
             int helper(int n) { return looped(n); }
             int A[4];
             void main() { spawn(0, 3) { A[$] = looped($); } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("cactus"), "{err}");
    }

    #[test]
    fn uninlinable_shapes_get_clear_errors() {
        let err = run(
            "int f(int n) { int acc = 0; for (int i = 0; i < n; i++) { acc += i; } return acc; }
             int A[4];
             void main() { spawn(0, 3) { A[$] = f($); } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("cannot be inlined"), "{err}");
    }

    #[test]
    fn serial_calls_left_alone() {
        let p = run(
            "int sq(int x) { return x * x; }
             void main() { print(sq(4)); }",
        )
        .unwrap();
        let main = p.function("main").unwrap();
        let mut calls = 0;
        crate::sema::walk_exprs(&main.body, &mut |e| {
            if let Expr::Call { name, .. } = e {
                if name == "sq" {
                    calls += 1;
                }
            }
        });
        assert_eq!(calls, 1, "serial code keeps the real call");
    }
}
