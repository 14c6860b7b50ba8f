"""The Core IR: an explicit-effect instruction language for CHERI C.

This is the repo's analogue of Cerberus's *Core* language (the paper,
S2.2): the typed AST is *elaborated* (:mod:`repro.core.elaborate`) into
flat per-function instruction lists in which evaluation order, implicit
integer-rank conversions, lvalue decay, and the explicit S4.4
capability-derivation step are all visible as individual ops.  Control
flow is structured jumps over the flat list -- there is no hidden host
recursion and no exception-based ``break``/``continue``/``return``; the
iterative :class:`~repro.core.coreeval.CoreEvaluator` runs the ops with
an explicit frame stack.

Op taxonomy (docs/SEMANTICS.md has the rationale per group):

``Charge``
    pure step-metering op for an interior AST node (leaf ops carry
    their own charge flag), so one step is charged per evaluated
    statement or expression node;
``PushInt / PushString / LoadIdent / TypeInfo``
    value creation (literals, identifier loads with array/function
    decay, ``sizeof``/``alignof``/``offsetof``);
``LvIdent / LvDeref / LvIndex / LvArrow / LvDot / LvString / LvError``
    lvalue computation -- each leaves an ``(ctype, pointer)`` pair on
    the operand stack, making every address computation explicit;
``LoadFrom / StoreValue / StoreCompound / LoadForAssign / InitStore /
GlobalStore``
    the explicit memory effects: every load and store in a Core listing
    is one of these ops (plus the intrinsic calls);
``ConvertTo / UnaryArith / BinOp / IncDec / NotOp / SizeofOf``
    conversions and arithmetic; integer arithmetic ops perform the
    explicit S4.4 derivation step on capability-carrying values;
``Jump / JumpIfFalse / JumpIfTrue / SwitchDispatch``
    structured control flow lowered to jumps over the flat op list;
``PushScope / PopScope / PopScopes``
    lexical scope management (``break``/``continue`` compile to a
    statically-computed ``PopScopes`` + ``Jump``);
``DeclAlloc / StaticCheck / StaticBind``
    object creation for local declarations and function-local statics;
``ResolveCall / ResolveTarget / Invoke / Ret / Halt``
    the calling convention: resolution (including function-pointer
    capability checks) happens *before* argument evaluation;
    ``Invoke`` pushes a frame, ``Ret`` pops one --
    call depth is bounded by the frame stack, not the host stack;
``VaStart / VaCopy / VaArgOp``
    the variadic-argument protocol;
``BuildArray / BuildStruct / BuildUnion / PushStrArray / PushZero``
    initialiser composition;
``RaiseOp``
    runtime-raising op for programs rejected only *when executed*
    (elaboration is total: it never rejects parser output).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import builtins as builtin_mod
from repro.ctypes.types import (
    ArrayT, CHAR_CONST, CType, INT, Integer, Pointer, SIZE_T, StructT,
    UnionT,
)
from repro.errors import CTypeError, UB, UndefinedBehaviour
from repro.memory.allocation import AllocKind
from repro.memory.derivation import derive
from repro.memory.values import (
    IntegerValue, MVArray, MVInteger, MVPointer, MVStruct, MVUnion,
    MVUnspecified, PointerValue,
)


@dataclass
class Binding:
    """A named object in scope: its declared type, the capability to
    its storage, and its allocation id (0 when provenance is empty)."""

    ctype: CType
    ptr: PointerValue
    alloc_id: int


class Op:
    """One Core instruction.  ``charge`` marks the ops that count as an
    evaluation step (exactly one charged op per evaluated statement or
    expression node, so budgets and traces agree byte-for-byte across
    evaluators).  ``run`` returns True when it switched the
    active frame (call/return)."""

    __slots__ = ("line", "charge", "id")
    name = "op"

    def __init__(self, line: int = 0, *, charge: bool = False) -> None:
        self.line = line
        self.charge = charge
        self.id = ""

    def operands(self) -> str:
        return ""

    def show(self) -> str:
        detail = self.operands()
        return f"{self.name:<14s}{' ' + detail if detail else ''}"

    def run(self, ev, frame):  # pragma: no cover - abstract
        raise NotImplementedError(self.name)


# ---------------------------------------------------------------------------
# Step metering
# ---------------------------------------------------------------------------


class Charge(Op):
    """Pre-order step charge for an interior AST node."""

    __slots__ = ("node",)
    name = "charge"

    def __init__(self, node: str, line: int = 0) -> None:
        super().__init__(line, charge=True)
        self.node = node

    def operands(self) -> str:
        return self.node

    def run(self, ev, frame):
        return False


# ---------------------------------------------------------------------------
# Value creation
# ---------------------------------------------------------------------------


class PushInt(Op):
    __slots__ = ("ctype", "value")
    name = "push_int"

    def __init__(self, ctype, value: int, line: int = 0, *,
                 charge: bool = True) -> None:
        super().__init__(line, charge=charge)
        self.ctype = ctype
        self.value = value

    def operands(self) -> str:
        return f"{self.value} : {self.ctype}"

    def run(self, ev, frame):
        frame.stack.append(MVInteger(self.ctype,
                                     IntegerValue.of_int(self.value)))
        return False


class PushString(Op):
    __slots__ = ("text",)
    name = "push_string"

    def __init__(self, text: str, line: int = 0) -> None:
        super().__init__(line, charge=True)
        self.text = text

    def operands(self) -> str:
        return repr(self.text)

    def run(self, ev, frame):
        ptr = ev._string_ptr(self.text)
        frame.stack.append(MVPointer(Pointer(CHAR_CONST), ptr))
        return False


class LoadIdent(Op):
    """Rvalue identifier: function designators decay to function
    pointers, arrays decay to element pointers, objects are loaded."""

    __slots__ = ("expr",)
    name = "load_ident"

    def __init__(self, expr, line: int = 0) -> None:
        super().__init__(line, charge=True)
        self.expr = expr

    def operands(self) -> str:
        return self.expr.name

    def run(self, ev, frame):
        frame.stack.append(ev._eval_ident(self.expr))
        return False


class TypeInfo(Op):
    """``sizeof(T)`` / ``alignof(T)`` / ``offsetof(T, member)``."""

    __slots__ = ("kind", "ctype", "member")
    name = "type_info"

    def __init__(self, kind: str, ctype, member: str = "",
                 line: int = 0) -> None:
        super().__init__(line, charge=True)
        self.kind = kind
        self.ctype = ctype
        self.member = member

    def operands(self) -> str:
        suffix = f", {self.member}" if self.member else ""
        return f"{self.kind}({self.ctype}{suffix})"

    def run(self, ev, frame):
        if self.kind == "sizeof":
            result = ev.layout.sizeof(self.ctype)
        elif self.kind == "alignof":
            result = ev.layout.alignof(self.ctype)
        else:
            if not isinstance(self.ctype, StructT):
                raise CTypeError("offsetof requires a struct/union type")
            result = ev.layout.offsetof(self.ctype, self.member)
        frame.stack.append(MVInteger(SIZE_T, IntegerValue.of_int(result)))
        return False


class SizeofOf(Op):
    """``sizeof(expr)``: the static typing of the operand is the
    pre-elaborated ``steps`` chain; a non-static innermost operand was
    elaborated as ordinary rvalue ops whose result this op consumes
    (evaluate and take its ``.ctype``)."""

    __slots__ = ("leaf", "steps")
    name = "sizeof_of"

    def __init__(self, leaf, steps, line: int = 0) -> None:
        super().__init__(line)
        self.leaf = leaf      # ("static", ctype) | ("ident", name) | ("eval",)
        self.steps = steps    # applied innermost-out

    def operands(self) -> str:
        kind = self.leaf[0]
        detail = "" if kind == "eval" else f" {self.leaf[1]}"
        chain = "".join(f" .{s[0]}" for s in self.steps)
        return f"{kind}{detail}{chain}"

    def run(self, ev, frame):
        kind = self.leaf[0]
        if kind == "eval":
            ctype = frame.stack.pop().ctype
        elif kind == "ident":
            binding = ev._lookup(self.leaf[1])
            if binding is None:
                raise CTypeError(
                    f"undeclared identifier {self.leaf[1]!r}")
            ctype = binding.ctype
        else:
            ctype = self.leaf[1]
        for step in self.steps:
            tag = step[0]
            if tag == "deref":
                if isinstance(ctype, Pointer):
                    ctype = ctype.pointee
                elif isinstance(ctype, ArrayT):
                    ctype = ctype.elem
                else:
                    raise CTypeError("dereference of non-pointer in sizeof")
            elif tag == "addr":
                ctype = Pointer(ctype)
            elif tag == "index":
                if isinstance(ctype, ArrayT):
                    ctype = ctype.elem
                elif isinstance(ctype, Pointer):
                    ctype = ctype.pointee
                else:
                    raise CTypeError("index of non-pointer in sizeof")
            else:  # ("member", name, arrow)
                if step[2] and isinstance(ctype, Pointer):
                    ctype = ctype.pointee
                if isinstance(ctype, StructT):
                    ctype = ctype.field_type(step[1])
                else:
                    raise CTypeError("member of non-struct in sizeof")
        frame.stack.append(MVInteger(
            SIZE_T, IntegerValue.of_int(ev.layout.sizeof(ctype))))
        return False


# ---------------------------------------------------------------------------
# Lvalues
# ---------------------------------------------------------------------------


class LvIdent(Op):
    __slots__ = ("expr",)
    name = "lv_ident"

    def __init__(self, expr, line: int = 0) -> None:
        super().__init__(line)
        self.expr = expr

    def operands(self) -> str:
        return self.expr.name

    def run(self, ev, frame):
        binding = ev._lookup(self.expr.name)
        if binding is None:
            raise CTypeError(f"undeclared identifier {self.expr.name!r} "
                             f"(line {self.expr.line})")
        frame.stack.append((binding.ctype, binding.ptr))
        return False


class LvDeref(Op):
    name = "lv_deref"
    __slots__ = ()

    def run(self, ev, frame):
        value = frame.stack.pop()
        ctype, ptr = ev._as_pointer(value, self.line)
        if isinstance(ctype, Pointer):
            frame.stack.append((ctype.pointee, ptr))
            return False
        raise CTypeError(f"cannot dereference {value.ctype}")


class LvIndex(Op):
    name = "lv_index"
    __slots__ = ()

    def run(self, ev, frame):
        index = frame.stack.pop()
        base = frame.stack.pop()
        ctype, ptr = ev._as_pointer(base, self.line)
        if not isinstance(ctype, Pointer):
            raise CTypeError(f"cannot index {base.ctype}")
        n = ev._int_of(index, self.line)
        shifted = ev.model.array_shift(ptr, ctype.pointee, n)
        frame.stack.append((ctype.pointee, shifted))
        return False


class LvArrow(Op):
    __slots__ = ("member",)
    name = "lv_arrow"

    def __init__(self, member: str, line: int = 0) -> None:
        super().__init__(line)
        self.member = member

    def operands(self) -> str:
        return self.member

    def run(self, ev, frame):
        base = frame.stack.pop()
        btype, bptr = ev._as_pointer(base, self.line)
        if not isinstance(btype, Pointer) or \
                not isinstance(btype.pointee, StructT):
            raise CTypeError(f"-> on non-struct-pointer {base.ctype}")
        stype = btype.pointee
        member_t = stype.field_type(self.member)
        frame.stack.append(
            (member_t, ev.model.member_shift(bptr, stype, self.member)))
        return False


class LvDot(Op):
    __slots__ = ("member",)
    name = "lv_dot"

    def __init__(self, member: str, line: int = 0) -> None:
        super().__init__(line)
        self.member = member

    def operands(self) -> str:
        return self.member

    def run(self, ev, frame):
        stype, bptr = frame.stack.pop()
        if not isinstance(stype, StructT):
            raise CTypeError(f". on non-struct {stype}")
        member_t = stype.field_type(self.member)
        frame.stack.append(
            (member_t, ev.model.member_shift(bptr, stype, self.member)))
        return False


class LvString(Op):
    __slots__ = ("text",)
    name = "lv_string"

    def __init__(self, text: str, line: int = 0) -> None:
        super().__init__(line)
        self.text = text

    def operands(self) -> str:
        return repr(self.text)

    def run(self, ev, frame):
        ptr = ev._string_ptr(self.text)
        frame.stack.append(
            (ArrayT(elem=CHAR_CONST, length=len(self.text) + 1), ptr))
        return False


class LvError(Op):
    __slots__ = ("message",)
    name = "lv_error"

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(line)
        self.message = message

    def operands(self) -> str:
        return repr(self.message)

    def run(self, ev, frame):
        raise CTypeError(self.message)


# ---------------------------------------------------------------------------
# Memory effects
# ---------------------------------------------------------------------------


class LoadFrom(Op):
    """Load through an lvalue with array/function-to-pointer decay."""

    name = "load"
    __slots__ = ()

    def run(self, ev, frame):
        ctype, ptr = frame.stack.pop()
        frame.stack.append(ev._load_decayed(ctype, ptr))
        return False


class AddrOf(Op):
    name = "addr_of"
    __slots__ = ()

    def run(self, ev, frame):
        ctype, ptr = frame.stack.pop()
        frame.stack.append(MVPointer(Pointer(ctype), ptr))
        return False


class AddrFunc(Op):
    """``&f`` on a function designator (no lvalue is formed)."""

    __slots__ = ("expr",)
    name = "addr_func"

    def __init__(self, expr, line: int = 0) -> None:
        super().__init__(line)
        self.expr = expr

    def operands(self) -> str:
        return self.expr.name

    def run(self, ev, frame):
        frame.stack.append(ev._eval_ident(self.expr))
        return False


class LoadForAssign(Op):
    """Compound assignment: load the old value, keeping the lvalue."""

    name = "load_old"
    __slots__ = ()

    def run(self, ev, frame):
        ctype, ptr = frame.stack[-1]
        frame.stack.append(ev._load_decayed(ctype, ptr))
        return False


class StoreValue(Op):
    name = "store"
    __slots__ = ()

    def run(self, ev, frame):
        value = frame.stack.pop()
        ctype, ptr = frame.stack.pop()
        converted = ev.convert(value, ctype)
        if isinstance(ctype, UnionT):
            raise CTypeError("whole-union assignment is not supported")
        ev.model.store(ctype, ptr, converted)
        frame.stack.append(converted)
        return False


class StoreCompound(Op):
    __slots__ = ("op",)
    name = "store_op"

    def __init__(self, op: str, line: int = 0) -> None:
        super().__init__(line)
        self.op = op

    def operands(self) -> str:
        return self.op

    def run(self, ev, frame):
        rhs = frame.stack.pop()
        old = frame.stack.pop()
        ctype, ptr = frame.stack.pop()
        value = ev.binary_op(self.op, old, rhs, self.line)
        converted = ev.convert(value, ctype)
        if isinstance(ctype, UnionT):
            raise CTypeError("whole-union assignment is not supported")
        ev.model.store(ctype, ptr, converted)
        frame.stack.append(converted)
        return False


class InitStore(Op):
    """Store an initialiser value through the lvalue beneath it."""

    name = "init_store"
    __slots__ = ()

    def run(self, ev, frame):
        value = frame.stack.pop()
        ctype, ptr = frame.stack.pop()
        ev.model.store(ctype, ptr, value, initialising=True)
        return False


class GlobalStore(Op):
    """Store a global's initialiser (globals-phase only)."""

    __slots__ = ("name_",)
    name = "global_store"

    def __init__(self, name_: str, line: int = 0) -> None:
        super().__init__(line)
        self.name_ = name_

    def operands(self) -> str:
        return self.name_

    def run(self, ev, frame):
        binding = ev.globals[self.name_]
        value = frame.stack.pop()
        ev.model.store(binding.ctype, binding.ptr, value, initialising=True)
        return False


# ---------------------------------------------------------------------------
# Conversions and arithmetic
# ---------------------------------------------------------------------------


class ConvertTo(Op):
    __slots__ = ("ctype", "explicit")
    name = "convert"

    def __init__(self, ctype, explicit: bool, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype
        self.explicit = explicit

    def operands(self) -> str:
        return f"{self.ctype}{' explicit' if self.explicit else ''}"

    def run(self, ev, frame):
        frame.stack.append(ev.convert(frame.stack.pop(), self.ctype,
                                      explicit=self.explicit))
        return False


class NotOp(Op):
    name = "not"
    __slots__ = ()

    def run(self, ev, frame):
        value = frame.stack.pop()
        frame.stack.append(MVInteger(
            INT, IntegerValue.of_int(0 if ev.truthy(value) else 1)))
        return False


class UnaryArith(Op):
    """``- + ~`` with promotion and the explicit S4.4 derivation."""

    __slots__ = ("op",)
    name = "unary"

    def __init__(self, op: str, line: int = 0) -> None:
        super().__init__(line)
        self.op = op

    def operands(self) -> str:
        return self.op

    def run(self, ev, frame):
        value = frame.stack.pop()
        if isinstance(value, MVUnspecified):
            frame.stack.append(MVUnspecified(value.ctype))
            return False
        if not isinstance(value, MVInteger):
            raise CTypeError(f"unary {self.op} on {value.ctype}")
        promoted = ev.integer_promote(value)
        kind = promoted.ctype.kind
        raw = promoted.ival.value()
        if self.op == "-":
            result = -raw
        elif self.op == "+":
            result = raw
        elif self.op == "~":
            result = ~raw
        else:
            raise CTypeError(f"unhandled unary {self.op}")
        result = ev._finish_arith(kind, result, self.line)
        ival = derive(promoted.ival, None, result,
                      signed=kind.is_signed, hardware=ev.model.hardware,
                      model=ev.model)
        frame.stack.append(MVInteger(promoted.ctype, ival))
        return False


class BinOp(Op):
    __slots__ = ("op",)
    name = "binop"

    def __init__(self, op: str, line: int = 0) -> None:
        super().__init__(line)
        self.op = op

    def operands(self) -> str:
        return self.op

    def run(self, ev, frame):
        rhs = frame.stack.pop()
        lhs = frame.stack.pop()
        frame.stack.append(ev.binary_op(self.op, lhs, rhs, self.line))
        return False


class IncDec(Op):
    __slots__ = ("op", "postfix")
    name = "incdec"

    def __init__(self, op: str, postfix: bool, line: int = 0) -> None:
        super().__init__(line)
        self.op = op
        self.postfix = postfix

    def operands(self) -> str:
        return f"{'post' if self.postfix else 'pre'} {self.op}"

    def run(self, ev, frame):
        ctype, ptr = frame.stack.pop()
        old = ev.model.load(ctype, ptr)
        delta = 1 if self.op == "++" else -1
        if isinstance(ctype, Pointer):
            if not isinstance(old, MVPointer):
                raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                         "++/-- on uninitialised pointer")
            moved = ev.model.array_shift(old.ptr, ctype.pointee, delta)
            new = MVPointer(ctype, moved)
        else:
            if not isinstance(old, MVInteger):
                raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                         "++/-- on uninitialised value")
            kind = old.ctype.kind
            result = ev._finish_arith(kind, old.ival.value() + delta,
                                      self.line)
            new = MVInteger(old.ctype,
                            derive(old.ival, None, result,
                                   signed=kind.is_signed,
                                   hardware=ev.model.hardware,
                                   model=ev.model))
        ev.model.store(ctype, ptr, new)
        frame.stack.append(old if self.postfix else new)
        return False


class PopValue(Op):
    name = "pop"
    __slots__ = ()

    def run(self, ev, frame):
        frame.stack.pop()
        return False


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Jump(Op):
    __slots__ = ("target",)
    name = "jump"

    def __init__(self, target: int = -1, line: int = 0) -> None:
        super().__init__(line)
        self.target = target

    def operands(self) -> str:
        return f"-> {self.target}"

    def run(self, ev, frame):
        frame.pc = self.target
        return False


class JumpIfFalse(Op):
    __slots__ = ("target",)
    name = "jump_false"

    def __init__(self, target: int = -1, line: int = 0) -> None:
        super().__init__(line)
        self.target = target

    def operands(self) -> str:
        return f"-> {self.target}"

    def run(self, ev, frame):
        if not ev.truthy(frame.stack.pop()):
            frame.pc = self.target
        return False


class JumpIfTrue(Op):
    __slots__ = ("target",)
    name = "jump_true"

    def __init__(self, target: int = -1, line: int = 0) -> None:
        super().__init__(line)
        self.target = target

    def operands(self) -> str:
        return f"-> {self.target}"

    def run(self, ev, frame):
        if ev.truthy(frame.stack.pop()):
            frame.pc = self.target
        return False


class SwitchDispatch(Op):
    """Pop the selector, pick a case label, push the switch scope.
    No match and no default jumps straight past the switch without
    pushing a scope."""

    __slots__ = ("cases", "stmt_targets", "end")
    name = "switch"

    def __init__(self, cases, line: int = 0) -> None:
        super().__init__(line)
        self.cases = cases            # tuple of (value | None, stmt index)
        self.stmt_targets = ()        # stmt index -> pc (finalized)
        self.end = -1

    def operands(self) -> str:
        arms = ", ".join(
            f"{'default' if v is None else v} -> {self.stmt_targets[i]}"
            for v, i in self.cases) if self.stmt_targets else "?"
        return f"[{arms}] else -> {self.end}"

    def run(self, ev, frame):
        value = frame.stack.pop()
        if isinstance(value, MVUnspecified):
            if not ev.model.hardware:
                raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                         "switch on unspecified value")
            selector = 0
        else:
            selector = ev._int_of(value, self.line)
        start = None
        default = None
        for case_value, case_index in self.cases:
            if case_value is None:
                default = case_index
            elif case_value == selector:
                start = case_index
                break
        if start is None:
            start = default
        if start is None:
            frame.pc = self.end
            return False
        frame.push()
        frame.pc = self.stmt_targets[start]
        return False


class PushScope(Op):
    name = "scope_push"
    __slots__ = ()

    def run(self, ev, frame):
        frame.push()
        return False


class PopScope(Op):
    name = "scope_pop"
    __slots__ = ()

    def run(self, ev, frame):
        frame.pop()
        return False


class PopScopes(Op):
    """``break``/``continue``: unwind a statically-known scope depth."""

    __slots__ = ("count",)
    name = "scope_popn"

    def __init__(self, count: int, line: int = 0) -> None:
        super().__init__(line)
        self.count = count

    def operands(self) -> str:
        return str(self.count)

    def run(self, ev, frame):
        for _ in range(self.count):
            frame.pop()
        return False


class RaiseOp(Op):
    """Raise a runtime error mid-evaluation; elaboration is total, so
    rejection happens at the execution point (and is charged there)
    rather than at compile time."""

    __slots__ = ("exc", "args")
    name = "raise"

    def __init__(self, exc, args: tuple = (), line: int = 0) -> None:
        super().__init__(line)
        self.exc = exc
        self.args = args

    def operands(self) -> str:
        detail = ", ".join(repr(a) for a in self.args)
        return f"{self.exc.__name__}({detail})"

    def run(self, ev, frame):
        raise self.exc(*self.args)


# ---------------------------------------------------------------------------
# Declarations and initialisers
# ---------------------------------------------------------------------------


class DeclAlloc(Op):
    """Allocate + bind a local object (binding precedes initialisation,
    so ``int x = x;`` sees the new ``x``)."""

    __slots__ = ("decl", "readonly", "push_lv")
    name = "decl"

    def __init__(self, decl, readonly: bool, push_lv: bool,
                 line: int = 0) -> None:
        super().__init__(line)
        self.decl = decl
        self.readonly = readonly
        self.push_lv = push_lv

    def operands(self) -> str:
        return f"{self.decl.name} : {self.decl.ctype}"

    def run(self, ev, frame):
        decl = self.decl
        ptr = ev.model.allocate_object(
            decl.ctype, AllocKind.STACK, decl.name, readonly=self.readonly)
        binding = Binding(decl.ctype, ptr,
                          ptr.prov.ident if not ptr.prov.is_empty else 0)
        frame.bind(decl.name, binding)
        frame.allocs.append(binding.alloc_id)
        if self.push_lv:
            frame.stack.append((decl.ctype, ptr))
        return False


class StaticCheck(Op):
    """Function-local static: on first execution allocate and fall
    through to the (one-shot) initialiser ops; afterwards jump straight
    to the ``StaticBind``."""

    __slots__ = ("key", "decl", "bind_target")
    name = "static"

    def __init__(self, key, decl, line: int = 0) -> None:
        super().__init__(line)
        self.key = key
        self.decl = decl
        self.bind_target = -1

    def operands(self) -> str:
        return f"{self.key[0]}.{self.key[1]} bound -> {self.bind_target}"

    def run(self, ev, frame):
        if self.key in ev.statics:
            frame.pc = self.bind_target
            return False
        decl = self.decl
        ptr = ev.model.allocate_object(
            decl.ctype, AllocKind.GLOBAL, decl.name,
            readonly=decl.ctype.const)
        binding = Binding(decl.ctype, ptr,
                          ptr.prov.ident if not ptr.prov.is_empty else 0)
        ev.statics[self.key] = binding
        frame.stack.append((decl.ctype, binding.ptr))
        return False


class StaticBind(Op):
    __slots__ = ("key", "name_")
    name = "static_bind"

    def __init__(self, key, name_: str, line: int = 0) -> None:
        super().__init__(line)
        self.key = key
        self.name_ = name_

    def operands(self) -> str:
        return self.name_

    def run(self, ev, frame):
        frame.bind(self.name_, ev.statics[self.key])
        return False


class PushZero(Op):
    __slots__ = ("ctype",)
    name = "push_zero"

    def __init__(self, ctype, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype

    def operands(self) -> str:
        return str(self.ctype)

    def run(self, ev, frame):
        frame.stack.append(ev.zero_value(self.ctype))
        return False


class PushStrArray(Op):
    """``char s[] = "...";``: string-literal array initialiser."""

    __slots__ = ("ctype", "text")
    name = "push_strarr"

    def __init__(self, ctype, text: str, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype
        self.text = text

    def operands(self) -> str:
        return f"{self.text!r} : {self.ctype}"

    def run(self, ev, frame):
        data = self.text.encode("latin-1") + b"\x00"
        ctype = self.ctype
        length = ctype.length or len(data)
        elems = []
        for i in range(length):
            byte = data[i] if i < len(data) else 0
            elems.append(MVInteger(ctype.elem, IntegerValue.of_int(byte)))
        frame.stack.append(MVArray(ctype, tuple(elems)))
        return False


class BuildArray(Op):
    __slots__ = ("ctype", "length", "given")
    name = "build_array"

    def __init__(self, ctype, length: int, given: int,
                 line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype
        self.length = length
        self.given = given

    def operands(self) -> str:
        return f"{self.ctype} ({self.given}/{self.length} given)"

    def run(self, ev, frame):
        stack = frame.stack
        elems = stack[len(stack) - self.given:] if self.given else []
        del stack[len(stack) - self.given:]
        for _ in range(self.length - self.given):
            elems.append(ev.zero_value(self.ctype.elem))
        stack.append(MVArray(self.ctype, tuple(elems)))
        return False


class BuildStruct(Op):
    __slots__ = ("ctype", "given")
    name = "build_struct"

    def __init__(self, ctype, given: int, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype
        self.given = given

    def operands(self) -> str:
        return f"{self.ctype} ({self.given} given)"

    def run(self, ev, frame):
        stack = frame.stack
        values = stack[len(stack) - self.given:] if self.given else []
        del stack[len(stack) - self.given:]
        fields = self.ctype.fields or ()
        members = []
        for i, f in enumerate(fields):
            if i < self.given:
                members.append((f.name, values[i]))
            else:
                members.append((f.name, ev.zero_value(f.ctype)))
        stack.append(MVStruct(self.ctype, tuple(members)))
        return False


class BuildUnion(Op):
    """Pop the first initialiser (already elaborated for the first
    field's type) into a union value; ``active=""`` when the union has
    no fields or the initialiser list is empty."""

    __slots__ = ("ctype", "active")
    name = "build_union"

    def __init__(self, ctype, active: str, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype
        self.active = active

    def operands(self) -> str:
        return f"{self.ctype} .{self.active or '<empty>'}"

    def run(self, ev, frame):
        if not self.active:
            frame.stack.append(MVUnion(self.ctype, active="", value=None))
            return False
        value = frame.stack.pop()
        frame.stack.append(MVUnion(self.ctype, active=self.active,
                                   value=value))
        return False


# ---------------------------------------------------------------------------
# Calls and returns
# ---------------------------------------------------------------------------


class ResolveCall(Op):
    """Resolve a named call target *before* argument evaluation: local
    binding -> call through the stored function pointer (capability
    checks happen here); otherwise builtin or
    user function by name."""

    __slots__ = ("expr",)
    name = "resolve"

    def __init__(self, expr, line: int = 0) -> None:
        super().__init__(line)
        self.expr = expr

    def operands(self) -> str:
        return self.expr.func.name

    def run(self, ev, frame):
        name = self.expr.func.name
        binding = ev._lookup(name)
        if binding is None:
            if name in builtin_mod.BUILTIN_NAMES and \
                    name not in ev.functions:
                frame.stack.append(("builtin", name))
                return False
            fdef = ev.functions.get(name)
            if fdef is not None:
                frame.stack.append(("user", fdef))
                return False
            raise CTypeError(f"call to unknown function {name!r} "
                             f"(line {self.expr.line})")
        # A local/global object: call through the stored pointer.  The
        # function expression is evaluated (one charged step), then the
        # capability is checked before the arguments.
        ev.charge_step()
        target = ev._eval_ident(self.expr.func)
        if not isinstance(target, MVPointer):
            raise CTypeError("called object is not a function pointer")
        frame.stack.append(("user", ev.resolve_code_pointer(target.ptr)))
        return False


class ResolveTarget(Op):
    """Resolve a computed call target (non-identifier callee) whose
    rvalue ops ran just before this op."""

    name = "resolve_ptr"
    __slots__ = ()

    def run(self, ev, frame):
        target = frame.stack.pop()
        if not isinstance(target, MVPointer):
            raise CTypeError("called object is not a function pointer")
        frame.stack.append(("user", ev.resolve_code_pointer(target.ptr)))
        return False


class Invoke(Op):
    """Pop ``nargs`` arguments plus the resolved target; dispatch a
    builtin inline or push a new frame for a user function (the only
    frame-switching op besides ``Ret``/``Halt``)."""

    __slots__ = ("nargs",)
    name = "invoke"

    def __init__(self, nargs: int, line: int = 0) -> None:
        super().__init__(line)
        self.nargs = nargs

    def operands(self) -> str:
        return f"{self.nargs} arg(s)"

    def run(self, ev, frame):
        stack = frame.stack
        nargs = self.nargs
        args = stack[len(stack) - nargs:] if nargs else []
        del stack[len(stack) - nargs:]
        kind, payload = stack.pop()
        if kind == "builtin":
            result = builtin_mod.dispatch(ev, payload, args, self.line)
            stack.append(result if result is not None
                         else MVInteger(INT, IntegerValue.of_int(0)))
            return False
        fdef = payload
        fixed = args[:len(fdef.params)]
        extra = args[len(fdef.params):]
        if extra and not fdef.variadic:
            raise CTypeError(f"too many arguments to {fdef.name}")
        ev.invoke_user(fdef, fixed, extra or None)
        return True


class Ret(Op):
    """Return from the active frame: convert the value (explicit
    returns), tear the frame down, and push the normalized result onto
    the caller -- or finish the run when this was the entry frame."""

    __slots__ = ("mode", "ret_ctype", "is_main")
    name = "ret"

    def __init__(self, mode: str, ret_ctype, is_main: bool,
                 line: int = 0, *, charge: bool = False) -> None:
        super().__init__(line, charge=charge)
        self.mode = mode              # "value" | "void" | "falloff"
        self.ret_ctype = ret_ctype    # None: no conversion (void return)
        self.is_main = is_main

    def operands(self) -> str:
        return self.mode

    def run(self, ev, frame):
        if self.mode == "value":
            value = frame.stack.pop()
            result = None if self.ret_ctype is None \
                else ev.convert(value, self.ret_ctype)
        elif self.mode == "void":
            result = None
        else:  # falloff
            result = MVInteger(INT, IntegerValue.of_int(0)) \
                if self.is_main else None
        ev.return_from_frame(result)
        return True


class VaStart(Op):
    name = "va_start"
    __slots__ = ()

    def run(self, ev, frame):
        ctype, ptr = frame.stack.pop()
        ev.model.store(ctype, ptr,
                       MVInteger(ctype, IntegerValue.of_int(0)))
        frame.stack.append(MVInteger(INT, IntegerValue.of_int(0)))
        return False


class VaCopy(Op):
    name = "va_copy"
    __slots__ = ()

    def run(self, ev, frame):
        sv = frame.stack.pop()
        dt, dp = frame.stack.pop()
        ev.model.store(dt, dp, ev.convert(sv, dt))
        frame.stack.append(MVInteger(INT, IntegerValue.of_int(0)))
        return False


class VaArgOp(Op):
    __slots__ = ("ctype",)
    name = "va_arg"

    def __init__(self, ctype, line: int = 0) -> None:
        super().__init__(line)
        self.ctype = ctype

    def operands(self) -> str:
        return str(self.ctype)

    def run(self, ev, frame):
        ctype, ptr = frame.stack.pop()
        state = ev.model.load(ctype, ptr)
        index = ev._int_of(state, self.line)
        if not 0 <= index < len(frame.varargs):
            raise UndefinedBehaviour(
                UB.READ_UNINITIALISED,
                f"va_arg past the end of the argument list "
                f"(line {self.line})")
        _vt, value = frame.varargs[index]
        ev.model.store(ctype, ptr, MVInteger(
            state.ctype, IntegerValue.of_int(index + 1)))
        frame.stack.append(ev.convert(value, self.ctype))
        return False


class Halt(Op):
    """End of the globals-initialisation phase: pop the phantom frame
    (no allocations to tear down) and stop the loop."""

    name = "halt"
    __slots__ = ()

    def run(self, ev, frame):
        ev.frames.pop()
        return True


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


class CoreFunc:
    """One elaborated function: a flat op list addressed by pc.

    ``runs``/``charges``/``ids`` are parallel dispatch arrays derived
    from ``ops`` by :func:`finalize_func` -- pre-bound ``run`` methods
    and pre-extracted flags, so the evaluator's inner loop indexes
    lists instead of resolving two attributes and binding a method per
    executed op.
    """

    __slots__ = ("name", "fdef", "ops", "runs", "charges", "ids")

    def __init__(self, name: str, fdef, ops) -> None:
        self.name = name
        self.fdef = fdef
        self.ops = ops
        self.runs: list = []
        self.charges: list = []
        self.ids: list = []


class CoreProgram:
    """An elaborated translation unit.

    Keeps the originating (optimised) AST ``Program`` as ``ast``: the
    evaluator still registers functions/globals from it, and
    :meth:`Implementation.run_compiled` accepts either representation.
    """

    __slots__ = ("ast", "functions", "globals_init")

    def __init__(self, ast, functions: dict[str, CoreFunc],
                 globals_init: CoreFunc) -> None:
        self.ast = ast
        self.functions = functions
        self.globals_init = globals_init


def finalize_func(func: CoreFunc) -> CoreFunc:
    """Assign the stable per-op ids (``function:index``) the obs layer
    attaches to events, and build the evaluator's dispatch arrays."""
    for index, op in enumerate(func.ops):
        op.id = f"{func.name}:{index}"
    func.runs = [op.run for op in func.ops]
    func.charges = [op.charge for op in func.ops]
    func.ids = [op.id for op in func.ops]
    return func


def render_func(func: CoreFunc) -> str:
    lines = [f"func {func.name} ({len(func.ops)} ops):"]
    for index, op in enumerate(func.ops):
        mark = "*" if op.charge else " "
        lines.append(f"  {index:4d} {mark} {op.show()}")
    return "\n".join(lines)


def render_core(core: CoreProgram) -> str:
    """The ``repro run --dump-core`` listing: deterministic, suitable
    for golden tests (charged ops are starred)."""
    sections = []
    if core.globals_init.ops and len(core.globals_init.ops) > 1:
        sections.append(render_func(core.globals_init))
    for name, func in core.functions.items():
        if func.ops:
            sections.append(render_func(func))
    return "\n\n".join(sections) + "\n"
