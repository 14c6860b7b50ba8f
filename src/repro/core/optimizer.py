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
it.  Every pass may exploit undefined behaviour but never changes what
a defined program does.

All passes walk the AST through one table, :data:`_CHILDREN` (node type
-> child fields in evaluation order), and three functions over it:
:func:`_map` (bottom-up, copy-on-change), :func:`_map_trees` (each whole
expression of a statement) and :func:`_nodes` (read-only iteration).

The passes are *bridged* over the Core IR rather than re-expressed on
it: the pipeline is parse -> optimise (here, on the typed AST) ->
elaborate (:mod:`repro.core.elaborate`), so the Core program is built
from the already-optimised AST and both evaluators execute identical
post-optimisation semantics.  Rewriting the passes as Core-to-Core
transformations would buy nothing -- they model *source-level* compiler
reasoning, which is exactly what the AST form expresses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import count
from operator import is_

from repro.core.cast import (
    Assign, Binary, Block, Call, Cast, Comma, Conditional, Declarator,
    DeclStmt, Empty, Expr, ExprStmt, For, FuncDef, Ident, If, Index,
    InitList, IntLit, Member, OffsetofExpr, Program, Return,
    SizeofType, Stmt, Switch, Unary, VaArg, While,
)
from repro.ctypes.layout import RELATIONAL, TargetLayout
from repro.ctypes.types import (
    ArrayT, CType, IKind, INT, Integer, Pointer, SIZE_T, Void, strip_const,
)
from repro.errors import CTypeError


def optimize_program(program: Program, layout: TargetLayout,
                     level: int) -> Program:
    """Apply the modelled passes for the given -O level."""
    if level <= 0:
        return program
    # Escape analysis runs on the source program: substitution duplicates
    # address-of expressions, which must not count as extra escapes.
    escape_counts = {f.name: _address_uses(f)
                     for f in program.functions if f.body is not None}
    program = _map_functions(program, lambda f: _fold_function(f, layout))
    if level >= 2:
        program = _inline_small_calls(program)
        # Pattern passes run before forward substitution, which rewrites
        # identifier-based patterns into substituted expressions.
        program = _map_functions(
            program, lambda f: _rewrite_byte_copies(f, layout))
        program = _map_functions(
            program, lambda f: _substitute_and_fold(f, layout))
        program = _map_functions(
            program, lambda f: _assume_no_ub(
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


#: Each node type's child fields, in evaluation order.  A field holds a
#: node, ``None`` or a tuple of nodes.  Unlisted types are leaves --
#: ``sizeof expr`` among them, since its operand is never evaluated.
_CHILDREN: dict[type, tuple[str, ...]] = {
    Unary: ("operand",), Cast: ("operand",), Member: ("base",),
    Binary: ("lhs", "rhs"), Comma: ("lhs", "rhs"),
    Assign: ("target", "value"), Index: ("base", "index"),
    Conditional: ("cond", "then", "other"),
    Call: ("func", "args"), VaArg: ("ap",), InitList: ("items",),
    ExprStmt: ("expr",), DeclStmt: ("decls",), Declarator: ("init",),
    Block: ("stmts",), If: ("cond", "then", "other"),
    While: ("cond", "body"), For: ("init", "cond", "body", "step"),
    Switch: ("cond", "stmts"), Return: ("value",), FuncDef: ("body",),
}

#: What substitution rewrites: not a callee expression (a call through
#: a function pointer stays a call through that pointer) nor the
#: ``va_list`` that ``va_arg`` advances in place.
_SUBSTITUTED = {**_CHILDREN, Call: ("args",), VaArg: ()}


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


def _map_children(node, fn, children=_CHILDREN):
    """``node`` with ``fn`` applied to each child it holds."""
    changed = None
    for name in children.get(type(node), ()):
        old = getattr(node, name)
        if old is None:
            continue
        new = _map_all(old, fn) if type(old) is tuple else fn(old)
        if new is not old:
            if changed is None:
                changed = {}
            changed[name] = new
    return node if changed is None else replace(node, **changed)


def _map(node, expr_fn=None, stmt_fn=None):
    """Bottom-up rewrite: each expression through ``expr_fn`` and each
    statement through ``stmt_fn``, after its children.  Without
    ``expr_fn`` no expression is entered (none holds a statement)."""
    def walk(n):
        if isinstance(n, Expr):
            return n if expr_fn is None else expr_fn(_map_children(n, walk))
        n = _map_children(n, walk)
        return n if stmt_fn is None or not isinstance(n, Stmt) else stmt_fn(n)

    return walk(node)


def _map_trees(node, fn):
    """``fn`` applied to each whole expression in a statement."""
    def walk(n):
        return fn(n) if isinstance(n, Expr) else _map_children(n, walk)

    return walk(node)


def _nodes(node):
    """``node`` and every node under it, read-only, in no fixed order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in _CHILDREN.get(type(node), ()):
            child = getattr(node, name)
            if type(child) is tuple:
                stack.extend(child)
            elif child is not None:
                stack.append(child)


def _written_name(expr) -> str | None:
    """The variable an assignment or ``++``/``--`` stores to directly."""
    if isinstance(expr, Assign):
        target = expr.target
    elif isinstance(expr, Unary) and expr.op in ("++", "--"):
        target = expr.operand
    else:
        return None
    return target.name if isinstance(target, Ident) else None


def _addressed_name(expr) -> str | None:
    """``x`` for ``&x``."""
    if isinstance(expr, Unary) and expr.op == "&" and \
            isinstance(expr.operand, Ident):
        return expr.operand.name
    return None


def _names_written(node) -> set[str]:
    return {name for n in _nodes(node)
            if (name := _written_name(n)) is not None}


def _names_declared(node) -> set[str]:
    return {n.name for n in _nodes(node) if isinstance(n, Declarator)}


def _address_uses(node) -> Counter:
    """How often each variable has its address taken."""
    return Counter(name for n in _nodes(node)
                   if (name := _addressed_name(n)) is not None)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _fold_function(fdef: FuncDef, layout: TargetLayout) -> FuncDef:
    return _map(fdef, lambda expr: _fold_expr(expr, layout))


def _fold_expr(expr: Expr, layout: TargetLayout) -> Expr:
    """One step of bottom-up folding (children already folded)."""
    if isinstance(expr, SizeofType):
        try:
            return IntLit(value=layout.sizeof(expr.ctype), ctype=SIZE_T,
                          line=expr.line)
        except CTypeError:
            return expr
    if isinstance(expr, Binary) and expr.op not in ("&&", "||") \
            and isinstance(expr.lhs, IntLit) and isinstance(expr.rhs, IntLit):
        return _fold_arith(expr, layout, expr.lhs, expr.rhs)
    if isinstance(expr, Unary) and expr.op == "-" \
            and isinstance(expr.operand, IntLit):
        return _fold_arith(expr, layout, expr.operand)
    # Transient-arithmetic collapsing (S3.2/S3.3): (e + c1) - c2 and
    # (e - c1) + c2 reassociate to a single offset, eliminating any
    # excursion into non-representability.  Both constants must have
    # one type, which the offset keeps: then ``e`` converts as before.
    if isinstance(expr, Binary) and expr.op in ("+", "-") \
            and isinstance(expr.rhs, IntLit) \
            and isinstance(expr.lhs, Binary) \
            and expr.lhs.op in ("+", "-") \
            and isinstance(expr.lhs.rhs, IntLit):
        kind = _literal_kind(expr.rhs)
        inner = expr.lhs.rhs.value if expr.lhs.op == "+" \
            else -expr.lhs.rhs.value
        outer = expr.rhs.value if expr.op == "+" else -expr.rhs.value
        total = inner + outer
        if kind is not _literal_kind(expr.lhs.rhs) \
                or not layout.in_range(kind, abs(total)):
            return expr
        return Binary(op="+" if total >= 0 else "-", lhs=expr.lhs.lhs,
                      rhs=IntLit(value=abs(total), ctype=expr.rhs.ctype,
                                 line=expr.line),
                      line=expr.line)
    return expr


def _fold_arith(expr: Expr, layout: TargetLayout, lhs: IntLit,
                rhs: IntLit | None = None) -> Expr:
    """``lhs op rhs``, or the unary ``op lhs``, as C computes it.  What
    C leaves undefined -- a signed result out of range, a bad shift
    count, division by zero -- stays unfolded, for the program to meet
    when it runs."""
    lk = _literal_kind(lhs)
    if rhs is None:
        value, kind, ub = layout.arith(expr.op, lhs.value, lk)
    else:
        value, kind, ub = layout.arith(expr.op, lhs.value, lk, rhs.value,
                                       _literal_kind(rhs))
    if ub is not None:
        return expr
    if expr.op in RELATIONAL:
        ctype = INT
    else:
        ctype = lhs.ctype if lk is kind else Integer(kind)
    return IntLit(value=value, ctype=ctype, line=expr.line)


def _literal_kind(lit: IntLit) -> IKind:
    """A literal's integer kind (the optimiser's own literals are int)."""
    return IKind.INT if lit.ctype is None else lit.ctype.kind


# ---------------------------------------------------------------------------
# Inlining (statement-position calls to small void functions)
# ---------------------------------------------------------------------------


def _inline_small_calls(program: Program) -> Program:
    by_name = {f.name: f for f in program.functions if f.body is not None}
    main = by_name.get("main")
    if main is None:
        return program
    main_names = {p.name for p in main.params} | _names_declared(main)
    file_names = {f.name for f in program.functions} | \
        {g.decl.name for g in program.globals}
    counter = count(1)

    def bound_names(callee: FuncDef) -> set[str] | None:
        """The parameters and locals of a small void callee, renamed
        when it is spliced into main; ``None`` when the splice would not
        mean the same: an early ``return`` would fall through, a
        ``static`` local would become one object per call site, a local
        shadowing a file-scope name would have that name's uses renamed
        with it, and a free name could be captured by a local of main."""
        body = callee.body
        if not isinstance(callee.ret, Void) or callee.variadic \
                or len(body.stmts) > 8:
            return None
        nodes = list(_nodes(body))
        used = {n.name for n in nodes if isinstance(n, Ident)}
        returns = sum(isinstance(n, Return) for n in nodes)
        locals_ = _names_declared(body)
        bound = locals_ | {p.name for p in callee.params}
        if callee.name in used or locals_ & file_names \
                or (used - bound) & main_names \
                or any(isinstance(n, DeclStmt) and n.static for n in nodes) \
                or returns != (bool(body.stmts)
                               and isinstance(body.stmts[-1], Return)):
            return None
        return bound

    def inline_stmt(stmt: Stmt) -> Stmt:
        if not isinstance(stmt, ExprStmt) or not isinstance(stmt.expr, Call):
            return stmt
        call = stmt.expr
        if not isinstance(call.func, Ident):
            return stmt
        callee = by_name.get(call.func.name)
        if callee is None or len(call.args) != len(callee.params) \
                or (names := bound_names(callee)) is None:
            return stmt
        suffix = f"__inl{next(counter)}"
        decls = tuple(
            Declarator(name=p.name + suffix, ctype=p.ctype, init=arg,
                       line=stmt.line)
            for p, arg in zip(callee.params, call.args))
        body = _rename_locals(callee.body, names, suffix)
        return Block(stmts=(DeclStmt(decls=decls, line=stmt.line), body),
                     line=stmt.line)

    return _map_functions(program, lambda f: _map(f, stmt_fn=inline_stmt)
                          if f is main else f)


def _rename_locals(body: Block, names: set[str], suffix: str) -> Block:
    """``body`` with each of ``names`` suffixed and its final
    ``return`` dropped."""
    def rename_expr(expr: Expr) -> Expr:
        if isinstance(expr, Ident) and expr.name in names:
            return replace(expr, name=expr.name + suffix)
        return expr

    def rename_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, DeclStmt):
            return replace(stmt, decls=tuple(
                replace(d, name=d.name + suffix) for d in stmt.decls))
        return Empty(line=stmt.line) if isinstance(stmt, Return) else stmt

    return _map(body, rename_expr, rename_stmt)


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
    address-taken ones, nor globals (a call may store to them).  A
    store nested in a value drops its target's entry.  Control flow
    clears the environment.
    """
    address_taken = set(_address_uses(fdef))
    local_names = {p.name for p in fdef.params} | _names_declared(fdef)
    stable = local_names - _names_written(fdef) - address_taken

    def bind(env: dict[str, Expr], name: str, value: Expr) -> None:
        """After ``name = value``: remember the value if it may be
        substituted for ``name``, and forget whatever it writes."""
        if name in local_names and name not in address_taken and \
                _is_pure(value) and \
                all(read in stable for read in _value_reads(value)):
            env[name] = value
        else:
            env.pop(name, None)
            for written in _names_written(value):
                env.pop(written, None)

    def rewrite(expr: Expr, env: dict[str, Expr]) -> Expr:
        """Substitute + fold, bottom-up.  An identifier an assignment or
        ``++``/``--`` writes directly keeps naming the variable (the
        store must still go to it), as does the operand of ``&x``;
        identifiers nested under derefs/indexing in a target are value
        uses and substitute normally."""
        if isinstance(expr, Ident):
            return _fold_expr(env.get(expr.name, expr), layout)
        if _addressed_name(expr) is not None:
            return expr
        if _written_name(expr) is not None:
            return _rebuild(expr, value=rewrite(expr.value, env)) \
                if isinstance(expr, Assign) else expr
        return _fold_expr(_map_children(
            expr, lambda e: rewrite(e, env), _SUBSTITUTED), layout)

    def declare(env: dict[str, Expr], decl: Declarator) -> Declarator:
        decl = _map_trees(decl, lambda x: rewrite(x, env))
        if decl.init is not None:
            bind(env, decl.name, decl.init)
        return decl

    def process_block(stmt: Stmt) -> Stmt:
        if not isinstance(stmt, Block):
            return stmt
        env: dict[str, Expr] = {}
        out: list[Stmt] = []
        for s in stmt.stmts:
            if isinstance(s, DeclStmt) and not s.static:
                out.append(_map_children(s, lambda d: declare(env, d)))
            elif isinstance(s, ExprStmt):
                e = rewrite(s.expr, env)
                out.append(_rebuild(s, expr=e))
                if isinstance(e, Assign) and not e.op and \
                        isinstance(e.target, Ident):
                    bind(env, e.target.name, e.value)
                else:
                    for name in _names_written(e):
                        env.pop(name, None)
            elif isinstance(s, (Return, Empty)):
                out.append(_map_trees(s, lambda x: rewrite(x, env)))
            else:
                # Control flow: a body may execute repeatedly and may
                # reassign or shadow names, so only entries untouched
                # inside it may be substituted into it.
                unsafe = _names_written(s) | _names_declared(s)
                safe_env = {k: v for k, v in env.items()
                            if k not in unsafe}
                out.append(_map_trees(s, lambda x: rewrite(x, safe_env)))
                env.clear()   # stop propagating past the join
        return _rebuild(stmt, stmts=_tuple_of(out, stmt.stmts))

    return _map(fdef, stmt_fn=process_block)


def _value_reads(expr: Expr) -> Counter:
    """Identifiers whose *value* the expression reads (``&x`` uses the
    address of ``x``, constant for its whole scope, not its value)."""
    nodes = list(_nodes(expr))
    return Counter(n.name for n in nodes if isinstance(n, Ident)) \
        - Counter(filter(None, map(_addressed_name, nodes)))


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


# ---------------------------------------------------------------------------
# Byte copies (S3.5): identity writes go, byte-copy loops become memcpy
# (GCC tree-loop-distribute-patterns)
# ---------------------------------------------------------------------------


def _rewrite_byte_copies(fdef: FuncDef, layout: TargetLayout) -> FuncDef:
    def rewrite(stmt: Stmt) -> Stmt:
        if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign) \
                and not stmt.expr.op \
                and _same_lvalue(stmt.expr.target, stmt.expr.value) \
                and _is_pure_lvalue(stmt.expr.target):
            return Empty(line=stmt.line)    # an identity write
        match = _match_copy_loop(stmt)
        if match is None:
            return stmt
        dest, src, count, line = match
        elem = _element_type(fdef, dest)
        if elem is None or elem != _element_type(fdef, src):
            return stmt
        call = Call(func=Ident(name="memcpy", line=line),
                    args=(Ident(name=dest, line=line),
                          Ident(name=src, line=line),
                          IntLit(value=count * layout.sizeof(elem),
                                 line=line)),
                    line=line)
        return ExprStmt(expr=call, line=line)

    return _map(fdef, stmt_fn=rewrite)


def _element_type(fdef: FuncDef, name: str) -> CType | None:
    """The complete element type of ``name``, an array or pointer the
    function declares once: a copy loop becomes memcpy only between two
    of one element type."""
    ctypes = [p.ctype for p in fdef.params if p.name == name] + [
        n.ctype for n in _nodes(fdef)
        if isinstance(n, Declarator) and n.name == name]
    ctype = ctypes[0] if len(ctypes) == 1 else None
    elem = ctype.elem if isinstance(ctype, ArrayT) else \
        ctype.pointee if isinstance(ctype, Pointer) else None
    return strip_const(elem) if elem is not None and elem.is_complete \
        else None


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


def _match_copy_loop(stmt: Stmt):
    """Match ``for (i=0; i<N; i++) d[i] = s[i];`` with constant N."""
    if not isinstance(stmt, For) or stmt.cond is None or stmt.step is None:
        return None
    # init: i = 0 (decl or assignment)
    if isinstance(stmt.init, DeclStmt) and len(stmt.init.decls) == 1:
        var, init = stmt.init.decls[0].name, stmt.init.decls[0].init
    elif isinstance(stmt.init, ExprStmt) and \
            isinstance(stmt.init.expr, Assign) and \
            (var := _written_name(stmt.init.expr)) is not None:
        init = stmt.init.expr.value
    else:
        return None
    if not (isinstance(init, IntLit) and init.value == 0):
        return None
    # cond: i < N
    cond = stmt.cond
    if not (isinstance(cond, Binary) and cond.op == "<"
            and isinstance(cond.lhs, Ident) and cond.lhs.name == var):
        return None
    if not isinstance(cond.rhs, IntLit):   # sizeof is folded by now
        return None
    # step: i++ (or ++i)
    step = stmt.step
    if not (isinstance(step, Unary) and step.op == "++"
            and _written_name(step) == var):
        return None
    # body: d[i] = s[i];
    body = stmt.body
    if isinstance(body, Block) and len(body.stmts) == 1:
        body = body.stmts[0]
    if not (isinstance(body, ExprStmt) and isinstance(body.expr, Assign)
            and not body.expr.op):
        return None
    arrays = [e.base.name for e in (body.expr.target, body.expr.value)
              if isinstance(e, Index) and isinstance(e.base, Ident)
              and isinstance(e.index, Ident) and e.index.name == var]
    if len(arrays) != 2:
        return None
    return arrays[0], arrays[1], cond.rhs.value, stmt.line


# ---------------------------------------------------------------------------
# Assuming no UB (S3.1): ``a[i]`` with ``a[1]`` becomes ``a[0]``, and
# stores through statically out-of-bounds pointers to locals go
# ---------------------------------------------------------------------------


def _assume_no_ub(fdef: FuncDef, level: int,
                  address_uses: dict[str, int]) -> FuncDef:
    """The in-bounds assumption on each expression, then doomed-write
    elimination on each statement.

    After inlining + substitution, the S3.1 store is ``*(&x + 1) = 42``.
    The compiler may assume no UB and treat the store as unreachable; it
    removes it when the target local does not escape (-O2) or regardless
    (-O3) -- matching the paper's account of how the surviving write
    depends "in subtle and hard-to-predict ways on the rest of the code".
    ``address_uses`` counts address-of occurrences in the *source*
    program (one occurrence = the call argument itself = non-escaping).
    """
    singletons = {n.name for n in _nodes(fdef) if isinstance(n, Declarator)
                  and isinstance(n.ctype, ArrayT) and n.ctype.length == 1}

    def in_bounds(expr: Expr) -> Expr:
        if isinstance(expr, Index) and isinstance(expr.base, Ident) \
                and expr.base.name in singletons \
                and not isinstance(expr.index, IntLit):
            return replace(expr, index=IntLit(value=0, line=expr.line))
        return expr

    def drop_doomed(stmt: Stmt) -> Stmt:
        if not (isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign)
                and not stmt.expr.op):
            return stmt
        name = _oob_scalar_store_target(stmt.expr.target)
        if name is None:
            return stmt
        escapes = address_uses.get(name, 0) > 1
        if escapes and level < 3:
            return stmt
        return Empty(line=stmt.line)

    return _map(fdef, in_bounds, drop_doomed)


def _oob_scalar_store_target(target: Expr) -> str | None:
    """Match ``*(&x + c)`` / ``(&x)[c]`` with c != 0: statically OOB for
    a scalar ``x``.  Returns the local's name."""
    if isinstance(target, Unary) and target.op == "*":
        inner = target.operand
    elif isinstance(target, Index):
        if isinstance(target.index, IntLit) and target.index.value != 0:
            return _addressed_name(target.base)
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
        return _addressed_name(base)
    return None
