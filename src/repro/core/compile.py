"""Direct-threaded compilation of Core IR (the ``compiled`` evaluator).

:func:`compile_core` lowers each Core function's flat op list into a
table of pre-bound Python closures.  Dispatch is *direct-threaded*:
every closure finishes by returning the next closure to run, so the
inner loop is ``k = k(ev, frame)`` -- no per-step dict or array
indexing (the dispatch arrays of :class:`~repro.core.coreeval
.CoreEvaluator` are indexed once per op; here only control transfers
index the table).  Three superinstructions fuse the hot op pairs
(load+binop, cmp+branch, const+store), member/offset resolution gets a
per-site inline cache, and pure constant regions are folded at compile
time.

Semantic ground rules (the whole point of the two-way differential
gate):

* **Charge identity.**  Every closure charges exactly the steps its
  ops would have charged under the Core loop, *before* running, with
  the same step-budget cut-off message and the same 1024-step deadline
  poll.  A folded region batch-charges its step count (splitting into
  single steps whenever a budget or deadline could observe the
  difference), so ``resource_exhausted`` outcomes are byte-identical.
* **Folding never erases semantics.**  A region is folded only if it
  consists of pure integer ops (``push_int``/``binop``/``unary``/
  ``not`` plus their ``charge`` markers), is evaluated successfully
  under *both* the abstract machine and hardware mode on scratch
  evaluators, both modes agree, and the result is a plain
  provenance-free integer.  Division by zero, signed overflow, shifts
  past the width, anything capability-carrying -- all fail that trial
  evaluation and stay unfolded, so UB, traps, and provenance remain
  observable exactly where the CoreEvaluator raises them.
* **Traced runs delegate.**  When an event bus is attached the
  evaluator runs the inherited Core dispatch loop over the *same*
  ``CoreProgram``, so every event carries the stable ``function:index``
  op id and ``bus.step`` stamp the explainer expects; tracing already
  pays per-event costs that dwarf dispatch, and delegation makes event
  identity structural rather than re-proved per optimisation.

Snapshots: for untraced, fault-free runs the evaluator additionally
memoises the post-globals-phase machine state per run configuration
(mode, address map, options...) on the :class:`CompiledProgram`, so
repeated runs of a cached program skip static-storage registration and
global initialisation entirely.  The snapshot records its step and
allocation usage and is bypassed whenever a budget could have observed
the globals phase differently.

Run memoisation: the logical completion of the snapshot.  A run with
no event bus, no budget meter, and no fault plan is a *pure* function
of the compiled program and the run configuration -- programs are
frozen, the allocator is deterministic, and every observable
(exit status, stdout, UB, trap, unspecified-ness) lands in the frozen
:class:`~repro.errors.Outcome`.  The evaluator therefore memoises the
complete Outcome per ``(entry point, run configuration)`` on the
:class:`CompiledProgram`: the first run of each configuration executes
for real (and is what the two-way differential gate checks), repeats
are served from the memo.  Traced, metered, or fault-injected runs
never consult or populate it.  This is the dominant term in the
compliance benchmark's warm-cache speedup; the fuzz axis (fresh
programs every iteration, no memo hits) is what isolates raw dispatch
performance -- both are reported in ``BENCH_engine.json``.

Closures do not pickle; :class:`CompiledProgram` reduces to its
retained :class:`~repro.core.coreir.CoreProgram` and is recompiled on
unpickle (without the fold pass, which preserves semantics and charges
exactly -- folding only batches them).
"""

from __future__ import annotations

from repro.core.coreeval import CoreEvaluator, CoreFrame
from repro.core.coreir import (
    BinOp, Charge, CoreFunc, CoreProgram, Halt, InitStore, Invoke, Jump,
    JumpIfFalse, JumpIfTrue, LoadFrom, LoadIdent, LvArrow, LvDot, NotOp,
    PushInt, Ret, StaticCheck, StoreValue, SwitchDispatch, UnaryArith,
    render_func,
)
from repro.ctypes.types import Pointer, StructT, UnionT
from repro.errors import CTypeError, Outcome
from repro.memory.model import MemoryModel, Mode
from repro.memory.state import CapMeta
from repro.memory.values import IntegerValue, MVInteger

__all__ = [
    "CompiledFunc", "CompiledProgram", "CompiledEvaluator",
    "compile_core", "render_compiled",
]


# ---------------------------------------------------------------------------
# Compiled containers
# ---------------------------------------------------------------------------


class CompiledFunc:
    """One function's closure table.

    ``entry`` is the first closure (``None`` for an empty op list);
    ``plan`` and ``slot_ids`` are deterministic descriptions of the
    slot structure (op / fused pair / folded region per table start),
    used by tests and ``--dump-core`` -- compiling the same
    ``CoreFunc`` twice yields identical plans and slot ids.  Running a
    program never reads them, so both are derived from the slot list
    the first time they are read.
    """

    __slots__ = ("name", "core", "table", "entry", "_slots", "_plan")

    def __init__(self, name: str, core: CoreFunc, table, slots) -> None:
        self.name = name
        self.core = core
        self.table = table
        self.entry = table[0] if table else None
        self._slots = slots
        self._plan = None

    @property
    def plan(self) -> tuple:
        if self._plan is None:
            self._plan = tuple(_plan_entry(slot, self.core.ops)
                               for slot in self._slots)
        return self._plan

    @property
    def slot_ids(self) -> tuple[str, ...]:
        return tuple(_slot_id(self.name, entry) for entry in self.plan)


def _plan_entry(slot: tuple, ops) -> tuple:
    kind, start = slot[0], slot[1]
    if kind == "fold":
        end, charges, mv = slot[2]
        return ("fold", start, end, charges,
                f"{mv.ival.value()} : {mv.ctype}")
    if kind == "fused":
        return ("fused", start, slot[2])
    return ("op", start, ops[start].name)


def _slot_id(fname: str, entry: tuple) -> str:
    kind, index = entry[0], entry[1]
    detail = ":".join(str(part) for part in entry[2:])
    return f"{fname}:{index}:{kind}" + (f":{detail}" if detail else "")


class _Snapshot:
    """Post-globals-phase machine state (see the module docstring)."""

    __slots__ = ("allocations", "iotas", "bytes", "capmeta", "allocator",
                 "next_alloc_id", "next_iota_id", "functions", "func_ptrs",
                 "func_by_addr", "globals", "statics", "string_literals",
                 "steps", "out", "alloc_bytes", "alloc_count")


def run_config_key(model) -> tuple:
    """Every run-only axis of a :class:`MemoryModel`, as a memo key.

    A compiled program is valid across all of these axes (the compile
    caches are deliberately policy-/mode-/map-independent), so run memos
    and globals snapshots must key on *every* one of them -- missing one
    silently aliases outcomes across configurations.  The cache-key
    audit (``tests/test_cache_key_audit.py``) cross-checks this tuple
    against :data:`repro.impls.config.RUN_AXES`.

    ``type(model)`` matters too: the seeded-fault implementations
    (:mod:`repro.impls.faults`) share every configuration axis with
    their clean base and differ only in the MemoryModel subclass, so a
    snapshot or memoised outcome must never cross model classes.
    """
    return (type(model), model.mode, model.arch.name,
            model.state.allocator.address_map,
            model.state.allocator.policy,
            model.subobject_bounds, model.options, model.revocation)


class CompiledProgram:
    """A Core program lowered to closure tables.

    Retains the :class:`~repro.core.coreir.CoreProgram` (whose ``ast``
    backs static-storage registration, and whose dispatch arrays back
    traced runs), plus per-run-configuration snapshots of the
    post-globals machine state.
    """

    __slots__ = ("core", "functions", "globals_init", "snapshots",
                 "outcomes")

    def __init__(self, core: CoreProgram,
                 functions: dict[str, CompiledFunc],
                 globals_init: CompiledFunc) -> None:
        self.core = core
        self.functions = functions
        self.globals_init = globals_init
        #: run-config key -> _Snapshot (process-local, never pickled)
        self.snapshots: dict = {}
        #: (main, run-config key) -> Outcome for pure runs (no bus, no
        #: meter, no faults); see "Run memoisation" in the module
        #: docstring.  Process-local, never pickled.
        self.outcomes: dict = {}

    @property
    def ast(self):
        return self.core.ast

    def __reduce__(self):
        # Closures (and snapshots full of live state) do not pickle:
        # reduce to the Core program and recompile on unpickle.  The
        # recompile runs without the fold pass (no Implementation in
        # hand), which is charge- and semantics-identical.
        return (compile_core, (self.core,))


# ---------------------------------------------------------------------------
# Jump targets and superinstruction selection
# ---------------------------------------------------------------------------


def _jump_targets(ops) -> set[int]:
    """Every pc that some op can transfer control to.  A fused pair or
    folded region must never contain one of these in its interior."""
    targets: set[int] = set()
    for op in ops:
        cls = type(op)
        if cls is Jump or cls is JumpIfFalse or cls is JumpIfTrue:
            targets.add(op.target)
        elif cls is SwitchDispatch:
            targets.update(op.stmt_targets)
            targets.add(op.end)
        elif cls is StaticCheck:
            targets.add(op.bind_target)
    return targets


_CMP_OPS = frozenset(("<", "<=", ">", ">=", "==", "!="))


def _pair_kind(op, op2) -> str | None:
    """The superinstruction table: exactly the three hot pairs, fused
    only when the charge pattern keeps step accounting a prefix of the
    pair (first op may charge; second never does)."""
    if op2.charge:
        return None
    t1, t2 = type(op), type(op2)
    if t2 is BinOp and (t1 is LoadIdent and op.charge
                        or t1 is LoadFrom and not op.charge):
        return "load_binop"
    if (t1 is BinOp and not op.charge and op.op in _CMP_OPS
            and (t2 is JumpIfFalse or t2 is JumpIfTrue)):
        return "cmp_branch"
    if t1 is PushInt and (t2 is StoreValue or t2 is InitStore):
        return "const_store"
    return None


# ---------------------------------------------------------------------------
# Constant folding (trial evaluation on scratch evaluators)
# ---------------------------------------------------------------------------

#: Ops a foldable region may consist of.  Everything else -- loads,
#: stores, casts, pointer arithmetic, calls -- is conservatively
#: opaque, so no foldable region can touch memory, provenance, or
#: ghost state.
_FOLDABLE = (Charge, PushInt, BinOp, UnaryArith, NotOp)


class _ScratchFrame:
    __slots__ = ("stack",)

    def __init__(self, stack) -> None:
        self.stack = stack


def _scratch_pair(core: CoreProgram, impl):
    """Two scratch evaluators -- abstract machine and hardware mode --
    for trial evaluation under ``impl``'s compile-relevant axes."""
    evs = []
    for mode in (Mode.ABSTRACT, Mode.HARDWARE):
        model = MemoryModel(impl.arch, mode, impl.address_map,
                            subobject_bounds=impl.subobject_bounds,
                            options=impl.options)
        evs.append(CoreEvaluator(core, model))
    return tuple(evs)


def _trial(ev, op, args):
    """Run one pure op on a scratch frame; the result only counts if
    the op succeeds and leaves a single plain provenance-free integer."""
    frame = _ScratchFrame(list(args))
    try:
        op.run(ev, frame)
    except BaseException:
        return None
    if len(frame.stack) != 1:
        return None
    result = frame.stack[0]
    if type(result) is not MVInteger:
        return None
    ival = result.ival
    if ival.cap is not None or ival.num is None or not ival.prov.is_empty:
        return None
    return result


def _trial_both(scratch, op, args_abs, args_hw):
    ra = _trial(scratch[0], op, args_abs)
    if ra is None:
        return None
    rh = _trial(scratch[1], op, args_hw)
    if rh is None or ra != rh:
        return None
    return (ra, rh)


class _Region:
    """A candidate constant region [start, end] with its per-mode
    values (equal by construction when the region survives)."""

    __slots__ = ("start", "end", "vals")

    def __init__(self, start: int, end: int, vals) -> None:
        self.start = start
        self.end = end
        self.vals = vals


def _plan_folds(func: CoreFunc, targets: set[int], scratch) -> dict:
    """Linear symbolic scan of the op list.  The symbolic stack models
    a *suffix* of the runtime operand stack: regions of known constant
    value, or ``None`` for opaque entries.  Any op outside the
    whitelist flushes the stack (committing surviving regions as
    folds); every jump target is a control merge and clears it.
    Returns ``{start: (end, charges, MVInteger)}``."""
    if scratch is None:
        return {}
    ops = func.ops
    folds: dict[int, tuple] = {}
    stack: list = []
    run_start = None   # first index of the current contiguous Charge run

    def commit(region) -> None:
        if region is not None and region.end > region.start:
            charges = sum(1 for j in range(region.start, region.end + 1)
                          if ops[j].charge)
            folds[region.start] = (region.end, charges, region.vals[0])

    def flush() -> None:
        for entry in stack:
            commit(entry)
        del stack[:]

    for i, op in enumerate(ops):
        if i in targets:
            flush()
            run_start = None
        cls = type(op)
        if cls is Charge:
            if run_start is None:
                run_start = i
            continue
        if cls is PushInt:
            # Absorb the immediately preceding charge run (pre-order
            # charges of the enclosing pure expression): charges are
            # no-ops, so their position within the region is free.
            start = run_start if run_start is not None else i
            mv = MVInteger(op.ctype, IntegerValue.of_int(op.value))
            stack.append(_Region(start, i, (mv, mv)))
            run_start = None
            continue
        run_start = None
        if cls is NotOp or cls is UnaryArith:
            top = stack.pop() if stack else None
            if top is not None and top.end == i - 1:
                vals = _trial_both(scratch, op,
                                   [top.vals[0]], [top.vals[1]])
                if vals is not None:
                    stack.append(_Region(top.start, i, vals))
                    continue
            commit(top)
            stack.append(None)
            continue
        if cls is BinOp:
            rhs = stack.pop() if stack else None
            lhs = stack.pop() if stack else None
            if (lhs is not None and rhs is not None
                    and rhs.end == i - 1 and rhs.start == lhs.end + 1):
                vals = _trial_both(scratch, op,
                                   [lhs.vals[0], rhs.vals[0]],
                                   [lhs.vals[1], rhs.vals[1]])
                if vals is not None:
                    stack.append(_Region(lhs.start, i, vals))
                    continue
            commit(lhs)
            commit(rhs)
            stack.append(None)
            continue
        # Opaque op: arbitrary stack effect -- commit and forget.
        flush()
    flush()
    return folds


# ---------------------------------------------------------------------------
# Closure factories
#
# The charge prologue is written out inline in each charged closure (a
# helper call would cost what threading saves).  It is byte-for-byte
# the Core loop's: charge before running, cut with the same message,
# poll the deadline on 1024-step boundaries.
# ---------------------------------------------------------------------------


def _charge_closure(nxt):
    def clos(ev, frame):
        steps = ev.steps + 1
        ev.steps = steps
        if steps > ev._max_steps:
            ev._steps_exhausted()
        if ev._deadline_at is not None and not (steps & 1023):
            ev.meter.check_deadline(steps)
        return nxt
    return clos


def _push_int_closure(op, nxt):
    mv = MVInteger(op.ctype, IntegerValue.of_int(op.value))
    if op.charge:
        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            frame.stack.append(mv)
            return nxt
    else:
        def clos(ev, frame):
            frame.stack.append(mv)
            return nxt
    return clos


def _fold_closure(mv, charges, nxt):
    def clos(ev, frame):
        steps = ev.steps + charges
        if steps <= ev._max_steps and ev._deadline_at is None:
            ev.steps = steps
        else:
            # A budget or deadline could observe the batch: charge
            # one step at a time, exactly as the unfolded ops would.
            remaining = charges
            while remaining:
                remaining -= 1
                step = ev.steps + 1
                ev.steps = step
                if step > ev._max_steps:
                    ev._steps_exhausted()
                if ev._deadline_at is not None and not (step & 1023):
                    ev.meter.check_deadline(step)
        frame.stack.append(mv)
        return nxt
    return clos


def _jump_closure(table, target):
    def clos(ev, frame):
        return table[target]
    return clos


def _branch_closure(table, target, nxt, branch_when):
    if branch_when:
        def clos(ev, frame):
            if ev.truthy(frame.stack.pop()):
                return table[target]
            return nxt
    else:
        def clos(ev, frame):
            if ev.truthy(frame.stack.pop()):
                return nxt
            return table[target]
    return clos


def _pc_closure(op, index, table):
    """Computed-goto ops (switch dispatch, static check) keep their pc
    protocol: give them the Core loop's ``pc+1`` and continue at
    whatever slot they leave ``frame.pc`` on."""
    run = op.run
    fallthrough = index + 1

    def clos(ev, frame):
        frame.pc = fallthrough
        run(ev, frame)
        return table[frame.pc]
    return clos


def _invoke_closure(op, nxt):
    run = op.run

    def clos(ev, frame):
        frame.resume = nxt
        if run(ev, frame):
            return None
        return nxt
    return clos


def _final_closure(op):
    run = op.run

    def clos(ev, frame):
        run(ev, frame)
        return None
    return clos


def _lv_member_closure(op, nxt):
    """``lv_arrow`` / ``lv_dot`` with a per-site monomorphic inline
    cache over the struct type's identity: field type and offset are
    resolved once per site per struct type (Core programs are cached
    and reused, so type identity is stable across runs)."""
    member = op.member
    line = op.line
    arrow = type(op) is LvArrow
    cache = [None, None, 0]

    def clos(ev, frame):
        stack = frame.stack
        if arrow:
            base = stack.pop()
            btype, bptr = ev._as_pointer(base, line)
            if not isinstance(btype, Pointer) or \
                    not isinstance(btype.pointee, StructT):
                raise CTypeError(f"-> on non-struct-pointer {base.ctype}")
            stype = btype.pointee
        else:
            stype, bptr = stack.pop()
            if not isinstance(stype, StructT):
                raise CTypeError(f". on non-struct {stype}")
        if cache[0] is stype:
            member_t = cache[1]
            offset = cache[2]
        else:
            member_t = stype.field_type(member)
            offset = ev.layout.offsetof(stype, member)
            cache[0] = stype
            cache[1] = member_t
            cache[2] = offset
        stack.append((member_t, ev.model.member_shift(
            bptr, stype, member, offset=offset, member_t=member_t)))
        return nxt
    return clos


def _generic_closure(op, nxt):
    run = op.run
    if op.charge:
        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            run(ev, frame)
            return nxt
    else:
        def clos(ev, frame):
            run(ev, frame)
            return nxt
    return clos


def _op_closure(op, index, nxt, table):
    t = type(op)
    if t is Charge:
        return _charge_closure(nxt)
    if t is PushInt:
        return _push_int_closure(op, nxt)
    if t is Jump:
        clos = _jump_closure(table, op.target)
    elif t is JumpIfFalse:
        clos = _branch_closure(table, op.target, nxt, False)
    elif t is JumpIfTrue:
        clos = _branch_closure(table, op.target, nxt, True)
    elif t is SwitchDispatch or t is StaticCheck:
        clos = _pc_closure(op, index, table)
    elif t is Invoke:
        clos = _invoke_closure(op, nxt)
    elif t is Ret or t is Halt:
        clos = _final_closure(op)
    elif t is LvArrow or t is LvDot:
        clos = _lv_member_closure(op, nxt)
    else:
        return _generic_closure(op, nxt)
    # The elaborator never charges control/lvalue ops (the Charge op
    # carries the step); if that ever changes, chain the prologue in
    # front rather than silently dropping the step.
    return _charge_closure(clos) if op.charge else clos


# -- fused closures ---------------------------------------------------------


def _load_binop_closure(op1, op2, nxt):
    bop = op2.op
    line = op2.line
    if type(op1) is LoadIdent:
        expr = op1.expr

        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            stack = frame.stack
            rhs = ev._eval_ident(expr)
            lhs = stack.pop()
            stack.append(ev.binary_op(bop, lhs, rhs, line))
            return nxt
    else:  # LoadFrom (uncharged)
        def clos(ev, frame):
            stack = frame.stack
            ctype, ptr = stack.pop()
            rhs = ev._load_decayed(ctype, ptr)
            lhs = stack.pop()
            stack.append(ev.binary_op(bop, lhs, rhs, line))
            return nxt
    return clos


def _cmp_branch_closure(op1, op2, nxt, table):
    bop = op1.op
    line = op1.line
    target = op2.target
    if type(op2) is JumpIfTrue:
        def clos(ev, frame):
            stack = frame.stack
            rhs = stack.pop()
            lhs = stack.pop()
            if ev.truthy(ev.binary_op(bop, lhs, rhs, line)):
                return table[target]
            return nxt
    else:
        def clos(ev, frame):
            stack = frame.stack
            rhs = stack.pop()
            lhs = stack.pop()
            if ev.truthy(ev.binary_op(bop, lhs, rhs, line)):
                return nxt
            return table[target]
    return clos


def _const_store_closure(op1, op2, nxt):
    mv = MVInteger(op1.ctype, IntegerValue.of_int(op1.value))
    charged = op1.charge
    if type(op2) is InitStore:
        if charged:
            def clos(ev, frame):
                steps = ev.steps + 1
                ev.steps = steps
                if steps > ev._max_steps:
                    ev._steps_exhausted()
                if ev._deadline_at is not None and not (steps & 1023):
                    ev.meter.check_deadline(steps)
                ctype, ptr = frame.stack.pop()
                ev.model.store(ctype, ptr, mv, initialising=True)
                return nxt
        else:
            def clos(ev, frame):
                ctype, ptr = frame.stack.pop()
                ev.model.store(ctype, ptr, mv, initialising=True)
                return nxt
    else:  # StoreValue
        if charged:
            def clos(ev, frame):
                steps = ev.steps + 1
                ev.steps = steps
                if steps > ev._max_steps:
                    ev._steps_exhausted()
                if ev._deadline_at is not None and not (steps & 1023):
                    ev.meter.check_deadline(steps)
                stack = frame.stack
                ctype, ptr = stack.pop()
                converted = ev.convert(mv, ctype)
                if isinstance(ctype, UnionT):
                    raise CTypeError(
                        "whole-union assignment is not supported")
                ev.model.store(ctype, ptr, converted)
                stack.append(converted)
                return nxt
        else:
            def clos(ev, frame):
                stack = frame.stack
                ctype, ptr = stack.pop()
                converted = ev.convert(mv, ctype)
                if isinstance(ctype, UnionT):
                    raise CTypeError(
                        "whole-union assignment is not supported")
                ev.model.store(ctype, ptr, converted)
                stack.append(converted)
                return nxt
    return clos


# ---------------------------------------------------------------------------
# The compile pass
# ---------------------------------------------------------------------------


def _compile_func(func: CoreFunc, scratch) -> CompiledFunc:
    ops = func.ops
    n = len(ops)
    targets = _jump_targets(ops)
    folds = _plan_folds(func, targets, scratch)

    # Slot structure: folded region / fused pair / single op per start.
    slots: list[tuple] = []
    i = 0
    while i < n:
        fold = folds.get(i)
        if fold is not None:
            slots.append(("fold", i, fold))
            i = fold[0] + 1
            continue
        j = i + 1
        if j < n and j not in targets and j not in folds:
            kind = _pair_kind(ops[i], ops[j])
            if kind is not None:
                slots.append(("fused", i, kind))
                i += 2
                continue
        slots.append(("op", i))
        i += 1

    # Build closures back-to-front so each slot's successor exists for
    # direct pre-binding; control transfers go through ``table`` (one
    # list index per *taken* branch, none per straight-line op).
    table: list = [None] * n
    for slot in reversed(slots):
        kind, start = slot[0], slot[1]
        if kind == "fold":
            end, charges, mv = slot[2]
            nxt = table[end + 1] if end + 1 < n else None
            table[start] = _fold_closure(mv, charges, nxt)
        elif kind == "fused":
            nxt = table[start + 2] if start + 2 < n else None
            pair = slot[2]
            if pair == "load_binop":
                table[start] = _load_binop_closure(
                    ops[start], ops[start + 1], nxt)
            elif pair == "cmp_branch":
                table[start] = _cmp_branch_closure(
                    ops[start], ops[start + 1], nxt, table)
            else:
                table[start] = _const_store_closure(
                    ops[start], ops[start + 1], nxt)
        else:
            nxt = table[start + 1] if start + 1 < n else None
            table[start] = _op_closure(ops[start], start, nxt, table)
    return CompiledFunc(func.name, func, table, slots)


def compile_core(program: CoreProgram, impl=None) -> CompiledProgram:
    """Lower ``program`` into direct-threaded closure tables.

    ``impl`` (an :class:`~repro.impls.config.Implementation`) enables
    the constant-folding pass, which trial-evaluates candidate regions
    under both execution modes of ``impl``'s compile axes; ``None``
    compiles structurally (fuse + thread, no folds) -- used by the
    unpickle path, where no implementation is in hand.
    """
    scratch = _scratch_pair(program, impl) if impl is not None else None
    functions = {name: _compile_func(func, scratch)
                 for name, func in program.functions.items()}
    globals_init = _compile_func(program.globals_init, scratch)
    return CompiledProgram(program, functions, globals_init)


def render_compiled(compiled: CompiledProgram) -> str:
    """The ``--dump-core`` listing under the compiled evaluator: the
    Core listing per function plus what the compiler did to it (folded
    regions with their replacement constant and batched charges, fused
    pairs).  Deterministic, suitable for golden tests."""
    sections = []
    funcs = []
    gi = compiled.globals_init
    if gi.core.ops and len(gi.core.ops) > 1:
        funcs.append(gi)
    funcs.extend(cf for cf in compiled.functions.values() if cf.core.ops)
    for cf in funcs:
        lines = [render_func(cf.core)]
        notes = []
        for entry in cf.plan:
            if entry[0] == "fold":
                _, start, end, charges, value = entry
                notes.append(f"    fold {start}-{end} -> push {value} "
                             f"({charges} charge(s))")
            elif entry[0] == "fused":
                _, start, kind = entry
                notes.append(f"    fuse {start}+{start + 1} {kind}")
        if notes:
            lines.append("  compiled:")
            lines.extend(notes)
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class CompiledEvaluator(CoreEvaluator):
    """Run a :class:`CompiledProgram` by direct-threaded dispatch.

    Inherits every semantic helper and the calling convention from
    :class:`~repro.core.coreeval.CoreEvaluator`; only the dispatch
    strategy differs.  Traced runs (an attached bus) delegate wholesale
    to the inherited Core loop -- see the module docstring."""

    def __init__(self, compiled: CompiledProgram,
                 model: MemoryModel) -> None:
        super().__init__(compiled.core, model)
        self.compiled = compiled

    # -- dispatch ----------------------------------------------------------

    def _loop(self) -> None:
        if self.bus is not None:
            return super()._loop()
        frames = self.frames
        while frames:
            frame = frames[-1]
            k = frame.resume
            while k is not None:
                k = k(self, frame)

    def invoke_user(self, fdef, args, varargs) -> None:
        super().invoke_user(fdef, args, varargs)
        if self.bus is None:
            self.frames[-1].resume = \
                self.compiled.functions[fdef.name].entry

    # -- top level ---------------------------------------------------------

    def run(self, main: str = "main") -> Outcome:
        """Run ``main``, serving pure repeat runs from the run memo.

        A run with no bus, no meter (hence no budget and no fault
        plan) is deterministic in the compiled program and the run
        configuration, so its frozen Outcome is shared across repeats;
        any attached instrumentation bypasses the memo entirely (the
        run must actually step to emit events, charge budgets, or meet
        a fault plan).  On a memo hit this evaluator has not executed:
        ``steps`` stays 0 and ``out`` stays empty.
        """
        if self.bus is None and self.meter is None:
            key = (main, self._snapshot_key())
            outcome = self.compiled.outcomes.get(key)
            if outcome is None:
                outcome = super().run(main)
                self.compiled.outcomes[key] = outcome
            return outcome
        return super().run(main)

    def _execute(self, main: str) -> Outcome:
        if self.bus is not None:
            return super()._execute(main)
        compiled = self.compiled
        key = self._snapshot_key()
        try:
            snap = compiled.snapshots.get(key)
            if snap is not None and self._restorable(snap):
                self._restore(snap)
            else:
                self._register_static_storage()
                frame = CoreFrame("<globals>", self.core.globals_init)
                frame.resume = compiled.globals_init.entry
                self.frames.append(frame)
                self._base_frames = 1
                self._loop()
                self._base_frames = 0
                if snap is None and self._capturable():
                    compiled.snapshots[key] = self._capture()
            fdef = self.functions.get(main)
            if fdef is None or fdef.body is None:
                return Outcome.frontend_error(f"no function {main!r}")
            self.invoke_user(fdef, [], None)
            self._loop()
        except BaseException:
            self._unwind_all()
            raise
        return self._main_outcome(self._result)

    # -- snapshots ---------------------------------------------------------

    def _snapshot_key(self) -> tuple:
        return run_config_key(self.model)

    def _capturable(self) -> bool:
        # State after a clean globals phase is a pure function of the
        # program and the run configuration; fault plans are excluded
        # because a plan that did not fire here must still be able to
        # fire at the same allocation index in a later run.
        meter = self.meter
        return meter is None or meter.faults is None

    def _restorable(self, snap: _Snapshot) -> bool:
        """A governed run may only skip the globals phase when the
        budget provably could not have observed it: no fault plan, no
        deadline pressure recorded per-step (the capture already
        charged deterministically), and every deterministic axis at
        least as large as the snapshot's usage."""
        meter = self.meter
        if meter is None:
            return snap.steps <= self._max_steps
        if meter.faults is not None:
            return False
        if snap.steps > self._max_steps:
            return False
        budget = meter.budget
        if budget.max_allocations is not None and \
                snap.alloc_count > budget.max_allocations:
            return False
        if budget.max_alloc_bytes is not None and \
                snap.alloc_bytes > budget.max_alloc_bytes:
            return False
        return True

    def _capture(self) -> _Snapshot:
        state = self.model.state
        snap = _Snapshot()
        snap.allocations = {
            ident: Allocation_clone(alloc)
            for ident, alloc in state.allocations.items()
        }
        snap.iotas = dict(state.iotas)
        snap.bytes = dict(state.bytes)        # AbsByte is frozen
        snap.capmeta = {addr: CapMeta(meta.tag, meta.ghost)
                        for addr, meta in state.capmeta.items()}
        snap.allocator = state.allocator.snapshot()
        snap.next_alloc_id = state._next_alloc_id
        snap.next_iota_id = state._next_iota_id
        snap.functions = dict(self.functions)
        snap.func_ptrs = dict(self.func_ptrs)
        snap.func_by_addr = dict(self.func_by_addr)
        snap.globals = dict(self.globals)     # Bindings are never mutated
        snap.statics = dict(self.statics)
        snap.string_literals = dict(self.string_literals)
        snap.steps = self.steps
        snap.out = self.out.getvalue()
        snap.alloc_count = len(state.allocations)
        snap.alloc_bytes = sum(a.cap_size
                               for a in state.allocations.values())
        return snap

    def _restore(self, snap: _Snapshot) -> None:
        state = self.model.state
        state.allocations = {ident: Allocation_clone(alloc)
                             for ident, alloc in snap.allocations.items()}
        state.iotas = dict(snap.iotas)
        state.bytes = dict(snap.bytes)
        state.capmeta = {addr: CapMeta(meta.tag, meta.ghost)
                         for addr, meta in snap.capmeta.items()}
        state.allocator.restore(snap.allocator)
        state._next_alloc_id = snap.next_alloc_id
        state._next_iota_id = snap.next_iota_id
        self.functions.update(snap.functions)
        self.func_ptrs.update(snap.func_ptrs)
        self.func_by_addr.update(snap.func_by_addr)
        self.globals.update(snap.globals)
        self.statics.update(snap.statics)
        self.string_literals.update(snap.string_literals)
        self.steps = snap.steps
        if snap.out:
            self.out.write(snap.out)
        meter = self.meter
        if meter is not None:
            meter.allocations = snap.alloc_count
            meter.alloc_bytes = snap.alloc_bytes


def Allocation_clone(alloc):
    """Field-by-field Allocation copy (``alive``/``exposed`` are
    mutated at runtime, so snapshot entries must be private)."""
    from repro.memory.allocation import Allocation
    new = Allocation.__new__(Allocation)
    new.ident = alloc.ident
    new.base = alloc.base
    new.size = alloc.size
    new.align = alloc.align
    new.kind = alloc.kind
    new.ctype = alloc.ctype
    new.name = alloc.name
    new.readonly = alloc.readonly
    new.alive = alloc.alive
    new.exposed = alloc.exposed
    new.cap_base = alloc.cap_base
    new.cap_size = alloc.cap_size
    return new
