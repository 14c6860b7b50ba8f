"""A modelled C optimiser: the transformations the paper reasons about.

The paper's S3 design discussion turns on what *standard compiler
optimisations* may do to CHERI C programs:

* S3.1 -- the doomed out-of-bounds write can be eliminated entirely at
  -O2 ("the current Clang/LLVM-based CHERI C compiler compiles this code
  to just return zero"), or survive when the address escapes, and be
  eliminated again at -O3;
* S3.1 -- ``a[i]`` with ``a`` of length 1 is rewritten to ``a[0]`` (the
  compiler assumes the absence of UB);
* S3.2/S3.3 -- transient out-of-bounds arithmetic ``(p+100001)-100000``
  collapses to ``p+1``, eliminating excursions into non-representability;
* S3.5 -- identity byte writes (``p[0] = p[0]``) are removed, and byte
  copy loops become ``memcpy`` (GCC's tree-loop-distribute-patterns),
  which at the hardware level *preserves* tags the loop would have lost.

This module implements exactly those transformations as AST passes, so
the simulated Clang/GCC implementations (:mod:`repro.impls`) reproduce
the divergences the paper narrates.  It is intentionally not a general
optimiser: each pass is the minimal sound-looking rewrite a real compiler
performs, applied at the optimisation levels the paper associates with
it.

The passes are *bridged* over the Core IR rather than re-expressed on
it: the pipeline is parse -> optimise (here, on the typed AST) ->
elaborate (:mod:`repro.core.elaborate`), so the Core program is built
from the already-optimised AST and both evaluators execute identical
post-optimisation semantics.  Rewriting the passes as Core-to-Core
transformations would buy nothing -- they model *source-level* compiler
reasoning, which is exactly what the AST form expresses.
"""

from __future__ import annotations

from dataclasses import replace
from operator import is_

from repro.core.cast import (
    Assign, Binary, Block, Call, Cast, Comma, Conditional, Declarator,
    DeclStmt, Empty, Expr, ExprStmt, For, FuncDef, Ident, If, Index,
    InitList, IntLit, Member, OffsetofExpr, Program, Return,
    SizeofType, Stmt, Switch, Unary, VaArg, While,
)
from repro.ctypes.layout import TargetLayout
from repro.ctypes.types import ArrayT, Void


def optimize_program(program: Program, layout: TargetLayout,
                     level: int) -> Program:
    """Apply the modelled passes for the given -O level."""
    if level <= 0:
        return program
    # Escape analysis runs on the source program: substitution duplicates
    # address-of expressions, which must not count as extra escapes.
    escape_counts = {f.name: _count_ident_uses(f)
                     for f in program.functions if f.body is not None}
    program = _map_functions(program, lambda f: _fold_function(f, layout))
    if level >= 2:
        program = _inline_small_calls(program)
        # Pattern passes run before forward substitution, which rewrites
        # identifier-based patterns into substituted expressions.
        program = _map_functions(program, _eliminate_identity_writes)
        program = _map_functions(program, lambda f: _loops_to_memcpy(f, layout))
        program = _map_functions(
            program, lambda f: _substitute_and_fold(f, layout))
        program = _map_functions(program, _assume_in_bounds)
        program = _map_functions(
            program, lambda f: _eliminate_doomed_writes(
                f, level, escape_counts.get(f.name, {})))
        program = _map_functions(program, lambda f: _fold_function(f, layout))
    return program


def _map_functions(program: Program, fn) -> Program:
    return _rebuild(program, functions=_map_all(
        program.functions, lambda f: fn(f) if f.body is not None else f))


# ---------------------------------------------------------------------------
# Generic AST walking
#
# Every rewrite copies on change: a node (or a tuple of children) is
# rebuilt only when some child's identity changed, so a pass with
# nothing to rewrite returns its input object and unchanged subtrees
# are shared between the input and the output.  That sharing is safe
# because AST nodes are frozen -- nothing downstream mutates them.
# ---------------------------------------------------------------------------


def _rebuild(node, **children):
    """``replace(node, **children)``, or ``node`` itself when every
    child is (by identity) the one it already holds."""
    for name, child in children.items():
        if child is not getattr(node, name):
            return replace(node, **children)
    return node


def _tuple_of(new, old: tuple) -> tuple:
    """``tuple(new)``, or ``old`` itself when the two hold the same
    elements (by identity)."""
    new = tuple(new)
    if len(new) == len(old) and all(map(is_, new, old)):
        return old
    return new


def _map_all(items: tuple, fn) -> tuple:
    return _tuple_of(map(fn, items), items)


def _map_expr(expr: Expr | None, fn) -> Expr | None:
    """Bottom-up expression rewrite."""
    if expr is None:
        return None
    if isinstance(expr, (Unary, Cast)):
        expr = _rebuild(expr, operand=_map_expr(expr.operand, fn))
    elif isinstance(expr, (Binary, Comma)):
        expr = _rebuild(expr, lhs=_map_expr(expr.lhs, fn),
                        rhs=_map_expr(expr.rhs, fn))
    elif isinstance(expr, Assign):
        expr = _rebuild(expr, target=_map_expr(expr.target, fn),
                        value=_map_expr(expr.value, fn))
    elif isinstance(expr, Conditional):
        expr = _rebuild(expr, cond=_map_expr(expr.cond, fn),
                        then=_map_expr(expr.then, fn),
                        other=_map_expr(expr.other, fn))
    elif isinstance(expr, Call):
        expr = _rebuild(expr, func=_map_expr(expr.func, fn),
                        args=_map_all(expr.args,
                                      lambda a: _map_expr(a, fn)))
    elif isinstance(expr, Index):
        expr = _rebuild(expr, base=_map_expr(expr.base, fn),
                        index=_map_expr(expr.index, fn))
    elif isinstance(expr, Member):
        expr = _rebuild(expr, base=_map_expr(expr.base, fn))
    elif isinstance(expr, InitList):
        expr = _rebuild(expr, items=_map_all(
            expr.items, lambda i: _map_expr(i, fn)))
    elif isinstance(expr, VaArg):
        expr = _rebuild(expr, ap=_map_expr(expr.ap, fn))
    return fn(expr)


def _map_stmt(stmt: Stmt | None, expr_fn, stmt_fn=None) -> Stmt | None:
    if stmt is None:
        return None

    def sub(s: Stmt | None) -> Stmt | None:
        return _map_stmt(s, expr_fn, stmt_fn)

    if isinstance(stmt, ExprStmt):
        stmt = _rebuild(stmt, expr=_map_expr(stmt.expr, expr_fn))
    elif isinstance(stmt, DeclStmt):
        stmt = _rebuild(stmt, decls=_map_all(
            stmt.decls,
            lambda d: _rebuild(d, init=_map_expr(d.init, expr_fn))))
    elif isinstance(stmt, Block):
        stmt = _rebuild(stmt, stmts=_map_all(stmt.stmts, sub))
    elif isinstance(stmt, If):
        stmt = _rebuild(stmt, cond=_map_expr(stmt.cond, expr_fn),
                        then=sub(stmt.then), other=sub(stmt.other))
    elif isinstance(stmt, While):
        stmt = _rebuild(stmt, cond=_map_expr(stmt.cond, expr_fn),
                        body=sub(stmt.body))
    elif isinstance(stmt, For):
        stmt = _rebuild(stmt, init=sub(stmt.init),
                        cond=_map_expr(stmt.cond, expr_fn),
                        step=_map_expr(stmt.step, expr_fn),
                        body=sub(stmt.body))
    elif isinstance(stmt, Switch):
        stmt = _rebuild(stmt, cond=_map_expr(stmt.cond, expr_fn),
                        stmts=_map_all(stmt.stmts, sub))
    elif isinstance(stmt, Return):
        stmt = _rebuild(stmt, value=_map_expr(stmt.value, expr_fn))
    if stmt_fn is not None:
        stmt = stmt_fn(stmt)
    return stmt


def _walk_exprs(node) -> list[Expr]:
    """Flat list of all expressions under a statement/expression.

    Read-only: the collecting callback returns every node unchanged,
    so the copy-on-change walkers rebuild nothing."""
    found: list[Expr] = []

    def collect(e: Expr) -> Expr:
        found.append(e)
        return e

    if isinstance(node, Stmt):
        _map_stmt(node, collect)
    else:
        _map_expr(node, collect)
    return found


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _fold_function(fdef: FuncDef, layout: TargetLayout) -> FuncDef:
    def fold(expr: Expr) -> Expr:
        return _fold_expr(expr, layout)

    return _rebuild(fdef, body=_map_stmt(fdef.body, fold))


def _fold_expr(expr: Expr, layout: TargetLayout) -> Expr:
    """One step of bottom-up folding (children already folded)."""
    if isinstance(expr, SizeofType):
        try:
            return IntLit(value=layout.sizeof(expr.ctype), line=expr.line)
        except Exception:
            return expr
    if isinstance(expr, Binary) and isinstance(expr.lhs, IntLit) \
            and isinstance(expr.rhs, IntLit):
        a, b = expr.lhs.value, expr.rhs.value
        table = {"+": a + b, "-": a - b, "*": a * b,
                 "&": a & b, "|": a | b, "^": a ^ b,
                 "<<": a << b if 0 <= b < 64 else None,
                 ">>": a >> b if 0 <= b < 64 else None,
                 "/": None if b == 0 else int(a / b) if b else None,
                 "%": None if b == 0 else a - int(a / b) * b,
                 "==": int(a == b), "!=": int(a != b),
                 "<": int(a < b), ">": int(a > b),
                 "<=": int(a <= b), ">=": int(a >= b)}
        result = table.get(expr.op)
        if result is not None:
            return IntLit(value=result, ctype=expr.lhs.ctype, line=expr.line)
    if isinstance(expr, Unary) and expr.op == "-" \
            and isinstance(expr.operand, IntLit):
        return IntLit(value=-expr.operand.value,
                      ctype=expr.operand.ctype, line=expr.line)
    # Transient-arithmetic collapsing (S3.2/S3.3): (e + c1) - c2 and
    # (e - c1) + c2 reassociate to a single offset, eliminating any
    # excursion into non-representability.
    if isinstance(expr, Binary) and expr.op in ("+", "-") \
            and isinstance(expr.rhs, IntLit) \
            and isinstance(expr.lhs, Binary) \
            and expr.lhs.op in ("+", "-") \
            and isinstance(expr.lhs.rhs, IntLit):
        inner = expr.lhs.rhs.value if expr.lhs.op == "+" \
            else -expr.lhs.rhs.value
        outer = expr.rhs.value if expr.op == "+" else -expr.rhs.value
        total = inner + outer
        if total >= 0:
            return Binary(op="+", lhs=expr.lhs.lhs,
                          rhs=IntLit(value=total, line=expr.line),
                          line=expr.line)
        return Binary(op="-", lhs=expr.lhs.lhs,
                      rhs=IntLit(value=-total, line=expr.line),
                      line=expr.line)
    return expr


# ---------------------------------------------------------------------------
# Inlining (statement-position calls to small void functions)
# ---------------------------------------------------------------------------


def _inline_small_calls(program: Program) -> Program:
    by_name = {f.name: f for f in program.functions if f.body is not None}
    counter = [0]

    def inline_stmt(stmt: Stmt) -> Stmt:
        if not isinstance(stmt, ExprStmt) or not isinstance(stmt.expr, Call):
            return stmt
        call = stmt.expr
        if not isinstance(call.func, Ident):
            return stmt
        callee = by_name.get(call.func.name)
        if callee is None or callee.body is None:
            return stmt
        if not isinstance(callee.ret, Void) or callee.variadic:
            return stmt
        if len(callee.body.stmts) > 8 or _calls_self(callee):
            return stmt
        if len(call.args) != len(callee.params):
            return stmt
        counter[0] += 1
        suffix = f"__inl{counter[0]}"
        renames = {p.name: p.name + suffix for p in callee.params}
        decls = tuple(
            Declarator(name=p.name + suffix, ctype=p.ctype, init=arg,
                       line=stmt.line)
            for p, arg in zip(callee.params, call.args))
        body = _rename_locals(callee.body, renames, suffix)
        return Block(stmts=(DeclStmt(decls=decls, line=stmt.line), body),
                     line=stmt.line)

    def transform(fdef: FuncDef) -> FuncDef:
        if fdef.name != "main":
            return fdef
        return _rebuild(fdef, body=_map_stmt(fdef.body, lambda e: e,
                                             inline_stmt))

    return _map_functions(program, transform)


def _calls_self(fdef: FuncDef) -> bool:
    for expr in _walk_exprs(fdef.body):
        if isinstance(expr, Call) and isinstance(expr.func, Ident) \
                and expr.func.name == fdef.name:
            return True
    return False


def _rename_locals(block: Block, renames: dict[str, str],
                   suffix: str) -> Block:
    renames = dict(renames)

    def rename_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, DeclStmt):
            new_decls = []
            for d in stmt.decls:
                renames[d.name] = d.name + suffix
                new_decls.append(replace(d, name=d.name + suffix))
            return replace(stmt, decls=tuple(new_decls))
        if isinstance(stmt, Return):
            return Empty(line=stmt.line)
        return stmt

    def rename_expr(expr: Expr) -> Expr:
        if isinstance(expr, Ident) and expr.name in renames:
            return replace(expr, name=renames[expr.name])
        return expr

    # Declarations are renamed in a first pass (so later uses resolve),
    # then identifiers in a second.
    pass1 = _map_stmt(block, lambda e: e, rename_stmt)
    return _map_stmt(pass1, rename_expr)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Forward substitution of single-assignment pure locals
# ---------------------------------------------------------------------------


def _substitute_and_fold(fdef: FuncDef, layout: TargetLayout) -> FuncDef:
    """Forward-substitute straight-line value chains and fold.

    This is what turns ``j = i + A; k = j - B;`` into ``k = i + (A-B)``
    (the S3.3 excursion-eliminating rewrite) -- including through plain
    reassignments, as the S3.2 listing needs.

    Soundness: a captured expression may only mention *stable* names --
    locals that are never reassigned and never have their address taken
    (so neither an alias nor a call can change them).  Keys may be
    reassigned locals (each assignment updates the entry) but never
    address-taken ones.  Control flow clears the environment.
    """
    address_taken = _address_taken_names(fdef)
    mutated = _mutated_names(fdef)
    local_names = {p.name for p in fdef.params}
    for stmt in _walk_stmts(fdef.body):
        if isinstance(stmt, DeclStmt):
            local_names.update(d.name for d in stmt.decls)
    stable = {n for n in local_names
              if n not in mutated and n not in address_taken}

    def all_stable(expr: Expr) -> bool:
        """Every *value-read* identifier is stable.  An identifier under
        a direct address-of is an address use -- constant for the whole
        scope -- so it does not need value stability."""
        return all(name in stable for name in _value_read_idents(expr))

    def rewrite(expr: Expr, env: dict[str, Expr]) -> Expr:
        return _rewrite_with_env(expr, env, layout)

    def side_effect_targets(expr: Expr) -> list[str]:
        names = []
        for e in _walk_exprs(expr):
            if isinstance(e, Assign) and isinstance(e.target, Ident):
                names.append(e.target.name)
            if isinstance(e, Unary) and e.op in ("++", "--") and \
                    isinstance(e.operand, Ident):
                names.append(e.operand.name)
        return names

    def process_block(stmt: Stmt) -> Stmt:
        if not isinstance(stmt, Block):
            return stmt
        env: dict[str, Expr] = {}
        out: list[Stmt] = []
        for s in stmt.stmts:
            if isinstance(s, DeclStmt) and not s.static:
                new_decls = []
                for d in s.decls:
                    init = d.init
                    if init is not None:
                        init = rewrite(init, env)
                        if (_is_pure(init) and all_stable(init)
                                and d.name not in address_taken):
                            env[d.name] = init
                        else:
                            env.pop(d.name, None)
                    new_decls.append(_rebuild(d, init=init))
                out.append(_rebuild(s, decls=_tuple_of(new_decls,
                                                       s.decls)))
            elif isinstance(s, ExprStmt):
                e = s.expr
                if isinstance(e, Assign) and not e.op and \
                        isinstance(e.target, Ident):
                    value = rewrite(e.value, env)
                    out.append(_rebuild(s, expr=_rebuild(e, value=value)))
                    name = e.target.name
                    if (name not in address_taken and _is_pure(value)
                            and all_stable(value)):
                        env[name] = value
                    else:
                        env.pop(name, None)
                else:
                    new_e = rewrite(e, env)
                    out.append(_rebuild(s, expr=new_e))
                    for name in side_effect_targets(new_e):
                        env.pop(name, None)
            elif isinstance(s, (Return, Empty)):
                out.append(_map_stmt_whole(
                    s, lambda x: rewrite(x, env)))
            else:
                # Control flow: a body may execute repeatedly and may
                # reassign or shadow names, so only entries untouched
                # inside it may be substituted into it.
                unsafe = _names_written_or_declared(s)
                safe_env = {k: v for k, v in env.items()
                            if k not in unsafe}
                out.append(_map_stmt_whole(
                    s, lambda x: rewrite(x, safe_env)))
                env.clear()   # stop propagating past the join
        return _rebuild(stmt, stmts=_tuple_of(out, stmt.stmts))

    return _rebuild(fdef, body=_map_stmt(fdef.body, lambda e: e,
                                         process_block))


def _names_written_or_declared(stmt: Stmt) -> set[str]:
    """Names a statement assigns, increments, or (re)declares anywhere
    inside itself -- unsafe to substitute into it from outside."""
    names: set[str] = set()
    for sub in _walk_stmts(stmt):
        if isinstance(sub, DeclStmt):
            names.update(d.name for d in sub.decls)
    for e in _walk_exprs(stmt):
        if isinstance(e, Assign) and isinstance(e.target, Ident):
            names.add(e.target.name)
        if isinstance(e, Unary) and e.op in ("++", "--") and \
                isinstance(e.operand, Ident):
            names.add(e.operand.name)
    return names


def _value_read_idents(expr: Expr) -> list[str]:
    """Identifiers whose *value* the expression reads (address-of a bare
    identifier is an address use, not a value read)."""
    if isinstance(expr, Ident):
        return [expr.name]
    if isinstance(expr, Unary) and expr.op == "&" and \
            isinstance(expr.operand, Ident):
        return []
    out: list[str] = []
    for e in _walk_exprs(expr):
        if e is expr:
            continue
        if isinstance(e, Unary) and e.op == "&" and \
                isinstance(e.operand, Ident):
            continue
        if isinstance(e, Ident):
            out.append(e.name)
    # _walk_exprs flattens; remove idents that sit directly under an
    # address-of (they were collected by the flat walk).
    addressed = [e.operand.name for e in _walk_exprs(expr)
                 if isinstance(e, Unary) and e.op == "&"
                 and isinstance(e.operand, Ident)]
    for name in addressed:
        if name in out:
            out.remove(name)
    return out


def _rewrite_with_env(expr: Expr, env: dict[str, Expr],
                      layout: TargetLayout) -> Expr:
    """Substitute + fold, but never substitute an identifier in *direct*
    lvalue position (assignment target, ++/-- operand): the store must
    still go to the variable.  Identifiers nested under derefs/indexing
    in a target are value uses and substitute normally."""
    if isinstance(expr, Assign):
        if isinstance(expr.target, Ident):
            target: Expr = expr.target
        else:
            target = _rewrite_with_env(expr.target, env, layout)
        return _rebuild(expr, target=target,
                        value=_rewrite_with_env(expr.value, env, layout))
    if isinstance(expr, Unary) and expr.op in ("++", "--"):
        if isinstance(expr.operand, Ident):
            return expr
        return _rebuild(expr, operand=_rewrite_with_env(expr.operand, env,
                                                        layout))
    if isinstance(expr, Unary) and expr.op == "&" and \
            isinstance(expr.operand, Ident):
        # &x must keep naming the object, not its value.
        return expr

    def leaf(e: Expr) -> Expr:
        return _fold_expr(_subst_leaf(e, env), layout)

    # Rebuild children through this function (so nested assignments keep
    # their targets), then fold/substitute the node itself.
    def sub(e: Expr) -> Expr:
        return _rewrite_with_env(e, env, layout)

    if isinstance(expr, (Binary, Comma)):
        node: Expr = _rebuild(expr, lhs=sub(expr.lhs), rhs=sub(expr.rhs))
    elif isinstance(expr, (Unary, Cast)):
        node = _rebuild(expr, operand=sub(expr.operand))
    elif isinstance(expr, Conditional):
        node = _rebuild(expr, cond=sub(expr.cond), then=sub(expr.then),
                        other=sub(expr.other))
    elif isinstance(expr, Call):
        node = _rebuild(expr, args=_map_all(expr.args, sub))
    elif isinstance(expr, Index):
        node = _rebuild(expr, base=sub(expr.base), index=sub(expr.index))
    elif isinstance(expr, Member):
        node = _rebuild(expr, base=sub(expr.base))
    elif isinstance(expr, InitList):
        node = _rebuild(expr, items=_map_all(expr.items, sub))
    else:
        node = expr
    return leaf(node)


def _map_stmt_whole(stmt: Stmt | None, fn) -> Stmt | None:
    """Apply ``fn`` to each complete expression tree in a statement."""
    if stmt is None:
        return None

    def sub(s: Stmt | None) -> Stmt | None:
        return _map_stmt_whole(s, fn)

    if isinstance(stmt, ExprStmt):
        return _rebuild(stmt, expr=fn(stmt.expr))
    if isinstance(stmt, DeclStmt):
        return _rebuild(stmt, decls=_map_all(stmt.decls, lambda d: _rebuild(
            d, init=fn(d.init) if d.init is not None else None)))
    if isinstance(stmt, Block):
        return _rebuild(stmt, stmts=_map_all(stmt.stmts, sub))
    if isinstance(stmt, If):
        return _rebuild(stmt, cond=fn(stmt.cond), then=sub(stmt.then),
                        other=sub(stmt.other))
    if isinstance(stmt, While):
        return _rebuild(stmt, cond=fn(stmt.cond), body=sub(stmt.body))
    if isinstance(stmt, For):
        return _rebuild(
            stmt, init=sub(stmt.init),
            cond=fn(stmt.cond) if stmt.cond is not None else None,
            step=fn(stmt.step) if stmt.step is not None else None,
            body=sub(stmt.body))
    if isinstance(stmt, Switch):
        return _rebuild(stmt, cond=fn(stmt.cond),
                        stmts=_map_all(stmt.stmts, sub))
    if isinstance(stmt, Return):
        return _rebuild(stmt, value=fn(stmt.value)
                        if stmt.value is not None else None)
    return stmt


def _subst_leaf(expr: Expr, env: dict[str, Expr]) -> Expr:
    if isinstance(expr, Ident) and expr.name in env:
        return env[expr.name]
    return expr


def _is_pure(expr: Expr) -> bool:
    """Syntactically side-effect-free and cheap enough to duplicate."""
    if isinstance(expr, (IntLit, Ident, SizeofType, OffsetofExpr)):
        return True
    if isinstance(expr, Unary):
        return expr.op in ("-", "+", "~", "!", "&") and \
            _is_pure(expr.operand)
    if isinstance(expr, Binary):
        return _is_pure(expr.lhs) and _is_pure(expr.rhs)
    if isinstance(expr, Cast):
        return _is_pure(expr.operand)
    return False


def _mutated_names(fdef: FuncDef) -> set[str]:
    names: set[str] = set()
    for expr in _walk_exprs(fdef.body):
        if isinstance(expr, Assign) and isinstance(expr.target, Ident):
            names.add(expr.target.name)
        if isinstance(expr, Unary) and expr.op in ("++", "--") \
                and isinstance(expr.operand, Ident):
            names.add(expr.operand.name)
    return names


def _address_taken_names(fdef: FuncDef) -> set[str]:
    names: set[str] = set()
    for expr in _walk_exprs(fdef.body):
        if isinstance(expr, Unary) and expr.op == "&" \
                and isinstance(expr.operand, Ident):
            names.add(expr.operand.name)
    return names


# ---------------------------------------------------------------------------
# Identity-write elimination (S3.5)
# ---------------------------------------------------------------------------


def _eliminate_identity_writes(fdef: FuncDef) -> FuncDef:
    def clean(stmt: Stmt) -> Stmt:
        if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign) \
                and not stmt.expr.op \
                and _same_lvalue(stmt.expr.target, stmt.expr.value) \
                and _is_pure_lvalue(stmt.expr.target):
            return Empty(line=stmt.line)
        return stmt

    return _rebuild(fdef, body=_map_stmt(fdef.body, lambda e: e, clean))


def _same_lvalue(a: Expr, b: Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Ident):
        return a.name == b.name  # type: ignore[union-attr]
    if isinstance(a, IntLit):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, Index):
        return _same_lvalue(a.base, b.base) and \
            _same_lvalue(a.index, b.index)  # type: ignore[union-attr]
    if isinstance(a, Unary):
        return a.op == b.op and \
            _same_lvalue(a.operand, b.operand)  # type: ignore[union-attr]
    if isinstance(a, Member):
        return a.name == b.name and a.arrow == b.arrow and \
            _same_lvalue(a.base, b.base)  # type: ignore[union-attr]
    if isinstance(a, Cast):
        return a.ctype == b.ctype and \
            _same_lvalue(a.operand, b.operand)  # type: ignore[union-attr]
    return False


def _is_pure_lvalue(expr: Expr) -> bool:
    if isinstance(expr, Ident):
        return True
    if isinstance(expr, Index):
        return _is_pure_lvalue(expr.base) and _is_pure(expr.index)
    if isinstance(expr, Unary) and expr.op == "*":
        return _is_pure(expr.operand)
    if isinstance(expr, Member):
        return _is_pure_lvalue(expr.base)
    return False


# ---------------------------------------------------------------------------
# Byte-copy loops -> memcpy (S3.5, GCC tree-loop-distribute-patterns)
# ---------------------------------------------------------------------------


def _loops_to_memcpy(fdef: FuncDef, layout: TargetLayout) -> FuncDef:
    def rewrite(stmt: Stmt) -> Stmt:
        match = _match_copy_loop(stmt, layout)
        if match is None:
            return stmt
        dest, src, count, line = match
        call = Call(func=Ident(name="memcpy", line=line),
                    args=(Ident(name=dest, line=line),
                          Ident(name=src, line=line),
                          IntLit(value=count, line=line)),
                    line=line)
        return ExprStmt(expr=call, line=line)

    return _rebuild(fdef, body=_map_stmt(fdef.body, lambda e: e, rewrite))


def _match_copy_loop(stmt: Stmt, layout: TargetLayout):
    """Match ``for (i=0; i<N; i++) d[i] = s[i];`` with constant N."""
    if not isinstance(stmt, For) or stmt.cond is None or stmt.step is None:
        return None
    # init: i = 0 (decl or assignment)
    if isinstance(stmt.init, DeclStmt) and len(stmt.init.decls) == 1:
        d = stmt.init.decls[0]
        var, init = d.name, d.init
    elif isinstance(stmt.init, ExprStmt) and \
            isinstance(stmt.init.expr, Assign) and \
            isinstance(stmt.init.expr.target, Ident):
        var, init = stmt.init.expr.target.name, stmt.init.expr.value
    else:
        return None
    if not (isinstance(init, IntLit) and init.value == 0):
        return None
    # cond: i < N
    cond = stmt.cond
    if not (isinstance(cond, Binary) and cond.op == "<"
            and isinstance(cond.lhs, Ident) and cond.lhs.name == var):
        return None
    bound = cond.rhs
    if isinstance(bound, SizeofType):
        count = layout.sizeof(bound.ctype)
    elif isinstance(bound, IntLit):
        count = bound.value
    else:
        return None
    # step: i++ (or ++i)
    step = stmt.step
    if not (isinstance(step, Unary) and step.op == "++"
            and isinstance(step.operand, Ident)
            and step.operand.name == var):
        return None
    # body: d[i] = s[i];
    body = stmt.body
    if isinstance(body, Block) and len(body.stmts) == 1:
        body = body.stmts[0]
    if not (isinstance(body, ExprStmt) and isinstance(body.expr, Assign)
            and not body.expr.op):
        return None
    tgt, val = body.expr.target, body.expr.value
    if not (isinstance(tgt, Index) and isinstance(tgt.base, Ident)
            and isinstance(tgt.index, Ident) and tgt.index.name == var):
        return None
    if not (isinstance(val, Index) and isinstance(val.base, Ident)
            and isinstance(val.index, Ident) and val.index.name == var):
        return None
    return tgt.base.name, val.base.name, count, stmt.line


# ---------------------------------------------------------------------------
# In-bounds assumption (S3.1's g(): a[i] with a[1] becomes a[0])
# ---------------------------------------------------------------------------


def _assume_in_bounds(fdef: FuncDef) -> FuncDef:
    lengths: dict[str, int] = {}
    for stmt in _walk_stmts(fdef.body):
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                if isinstance(d.ctype, ArrayT) and d.ctype.length == 1:
                    lengths[d.name] = 1

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Index) and isinstance(expr.base, Ident) \
                and lengths.get(expr.base.name) == 1 \
                and not isinstance(expr.index, IntLit):
            return replace(expr, index=IntLit(value=0, line=expr.line))
        return expr

    return _rebuild(fdef, body=_map_stmt(fdef.body, rewrite))


def _walk_stmts(stmt: Stmt | None) -> list[Stmt]:
    found: list[Stmt] = []

    def collect(s: Stmt) -> Stmt:
        found.append(s)
        return s

    _map_stmt(stmt, lambda e: e, collect)
    return found


# ---------------------------------------------------------------------------
# Doomed-write elimination (S3.1)
# ---------------------------------------------------------------------------


def _eliminate_doomed_writes(fdef: FuncDef, level: int,
                             ident_uses: dict[str, int]) -> FuncDef:
    """Remove stores through statically out-of-bounds pointers to locals.

    After inlining + substitution, the S3.1 store is ``*(&x + 1) = 42``.
    The compiler may assume no UB and treat the store as unreachable; it
    removes it when the target local does not escape (-O2) or regardless
    (-O3) -- matching the paper's account of how the surviving write
    depends "in subtle and hard-to-predict ways on the rest of the code".
    ``ident_uses`` counts address-of occurrences in the *source* program
    (one occurrence = the call argument itself = non-escaping).
    """

    def clean(stmt: Stmt) -> Stmt:
        if not (isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign)
                and not stmt.expr.op):
            return stmt
        target = stmt.expr.target
        name = _oob_scalar_store_target(target)
        if name is None:
            return stmt
        escapes = ident_uses.get(name, 0) > 1
        if escapes and level < 3:
            return stmt
        return Empty(line=stmt.line)

    return _rebuild(fdef, body=_map_stmt(fdef.body, lambda e: e, clean))


def _oob_scalar_store_target(target: Expr) -> str | None:
    """Match ``*(&x + c)`` / ``(&x)[c]`` with c != 0: statically OOB for
    a scalar ``x``.  Returns the local's name."""
    if isinstance(target, Unary) and target.op == "*":
        inner = target.operand
    elif isinstance(target, Index):
        if isinstance(target.base, Unary) and target.base.op == "&" and \
                isinstance(target.base.operand, Ident) and \
                isinstance(target.index, IntLit) and target.index.value != 0:
            return target.base.operand.name
        return None
    else:
        return None
    while isinstance(inner, Cast):
        inner = inner.operand
    if isinstance(inner, Binary) and inner.op in ("+", "-") and \
            isinstance(inner.rhs, IntLit) and inner.rhs.value != 0:
        base = inner.lhs
        while isinstance(base, Cast):
            base = base.operand
        if isinstance(base, Unary) and base.op == "&" and \
                isinstance(base.operand, Ident):
            return base.operand.name
    return None


def _count_ident_uses(fdef: FuncDef) -> dict[str, int]:
    counts: dict[str, int] = {}
    for expr in _walk_exprs(fdef.body):
        if isinstance(expr, Unary) and expr.op == "&" and \
                isinstance(expr.operand, Ident):
            counts[expr.operand.name] = counts.get(expr.operand.name, 0) + 1
    return counts
