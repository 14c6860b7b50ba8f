"""Target layout: sizes, alignments, integer ranges, struct layout.

Everything implementation-defined about types lives here, derived from an
:class:`~repro.capability.abstract.Architecture`:

* ``sizeof(intptr_t)`` is the capability size (16 on Morello, 8 on the
  CHERIoT-style target) while its *value range* is the address range --
  the capability metadata is storage, not value (S3.3).
* ``ptraddr_t`` is an unsigned integer of address width (S3.10).
* Pointers are capability-sized and capability-aligned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from repro.capability.abstract import Architecture
from repro.ctypes.types import (
    ArrayT,
    CType,
    FuncT,
    IKind,
    Integer,
    Pointer,
    RANK,
    StructT,
    UnionT,
    Void,
)
from repro.errors import CTypeError, UB


#: The unsigned type of each signed kind the usual arithmetic
#: conversions can pick (ISO 6.3.1.8's last rule).
_UNSIGNED_OF = {
    IKind.INT: IKind.UINT, IKind.LONG: IKind.ULONG,
    IKind.LLONG: IKind.ULLONG, IKind.INTPTR: IKind.UINTPTR,
    IKind.PTRDIFF: IKind.SIZE,
}


def _c_div(a: int, b: int) -> int:
    """C division truncates toward zero."""
    return a // b if (a < 0) == (b < 0) else -(-a // b)


#: C's integer operators on operands already promoted and converted.
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_div, "%": lambda a, b: a - _c_div(a, b) * b,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}
_UNARY = {"-": operator.neg, "+": operator.pos, "~": operator.invert}
_INT_RANK = RANK[IKind.INT]

#: The operators whose result is an ``int`` truth value.
RELATIONAL = frozenset(("==", "!=", "<", ">", "<=", ">="))


@dataclass(frozen=True)
class FieldLayout:
    name: str
    ctype: CType
    offset: int


#: One layout per architecture: layouts are pure functions of the
#: (frozen) architecture and memoise struct layout per type node, so
#: every call site shares a single instance instead of rebuilding the
#: sizing tables per run.
_INSTANCES: dict[str, "TargetLayout"] = {}

#: Bound on each per-layout type-node memo before it is dropped and
#: rebuilt (a long fuzz campaign generates fresh type nodes).
_MEMO_LIMIT = 4096


class TargetLayout:
    """Sizing and layout rules for one architecture."""

    def __new__(cls, arch: Architecture) -> "TargetLayout":
        inst = _INSTANCES.get(arch.name)
        if inst is None or inst.arch is not arch:
            inst = super().__new__(cls)
            _INSTANCES[arch.name] = inst
        return inst

    def __init__(self, arch: Architecture) -> None:
        if getattr(self, "arch", None) is arch:
            return      # shared per-arch instance, already initialised
        self.arch = arch
        bits64 = arch.address_width == 64
        self._int_sizes: dict[IKind, int] = {
            IKind.BOOL: 1,
            IKind.CHAR: 1, IKind.SCHAR: 1, IKind.UCHAR: 1,
            IKind.SHORT: 2, IKind.USHORT: 2,
            IKind.INT: 4, IKind.UINT: 4,
            IKind.LONG: 8 if bits64 else 4,
            IKind.ULONG: 8 if bits64 else 4,
            IKind.LLONG: 8, IKind.ULLONG: 8,
            IKind.SIZE: 8 if bits64 else 4,
            IKind.PTRDIFF: 8 if bits64 else 4,
            IKind.PTRADDR: arch.ptraddr_size,
            IKind.INTPTR: arch.capability_size,
            IKind.UINTPTR: arch.capability_size,
        }
        # Precomputed per-kind range tables: every integer conversion
        # consults these.
        self._widths = {k: (arch.address_width
                            if k.is_capability_carrying else s * 8)
                        for k, s in self._int_sizes.items()}
        self._mins = {k: (-(1 << (w - 1)) if k.is_signed else 0)
                      for k, w in self._widths.items()}
        self._maxs = {k: ((1 << (w - 1)) - 1 if k.is_signed
                          else (1 << w) - 1)
                      for k, w in self._widths.items()}
        # id-keyed struct-layout memo; each entry retains the key object
        # so a recycled id can never alias a different type node.
        self._struct_memo: dict[int, tuple] = {}
        self._plan_memo: dict[int, tuple] = {}

    # -- integer properties ------------------------------------------------

    def int_size(self, kind: IKind) -> int:
        """Storage size in bytes (capability-sized for ``(u)intptr_t``)."""
        return self._int_sizes[kind]

    def value_width(self, kind: IKind) -> int:
        """Width in bits of the *value* range.

        For capability-carrying types this is the address width: the
        metadata half of the representation does not contribute to the
        integer value (S3.3, S4.3 ``integer_value``).
        """
        return self._widths[kind]

    def int_min(self, kind: IKind) -> int:
        return self._mins[kind]

    def int_max(self, kind: IKind) -> int:
        return self._maxs[kind]

    def in_range(self, kind: IKind, value: int) -> bool:
        return self._mins[kind] <= value <= self._maxs[kind]

    def wrap(self, kind: IKind, value: int) -> int:
        """Reduce ``value`` modulo the type's range (conversion to an
        unsigned type, or the implementation-defined signed conversion)."""
        width = self._widths[kind]
        value &= (1 << width) - 1
        if value >> (width - 1) and kind.is_signed:
            value -= 1 << width
        return value

    @staticmethod
    def rank(kind: IKind) -> int:
        return RANK[kind]

    @staticmethod
    def promoted(kind: IKind) -> IKind:
        """The integer promotion of ``kind`` (ISO 6.3.1.1)."""
        return IKind.INT if RANK[kind] < RANK[IKind.INT] else kind

    def common_kind(self, lk: IKind, rk: IKind) -> IKind:
        """The common type the usual arithmetic conversions give two
        promoted kinds (ISO 6.3.1.8, with CHERI C's ranks)."""
        lr, rr = RANK[lk], RANK[rk]
        if lr == rr:
            # Same rank: unsigned wins.
            return lk if not lk.is_signed else rk
        hi, lo = (lk, rk) if lr > rr else (rk, lk)
        if not hi.is_signed:
            return hi
        if self._maxs[hi] >= self._maxs[lo]:
            return hi
        # Signed type cannot represent the unsigned one: unsigned version.
        return _UNSIGNED_OF.get(hi, hi)

    def arith(self, op: str, a: int, ka: IKind, b: int = 0,
              kb: IKind | None = None) -> tuple[int, IKind, UB | None]:
        """C's integer operator ``op`` on ``a`` of kind ``ka`` and ``b``
        of kind ``kb``, or the unary ``op a`` when ``kb`` is None.

        The operands are promoted; except for a shift, whose right
        operand is only a count, both then convert to their common type.
        Returns ``(value, kind, ub)``, where a relational operator gives
        an ``int`` 0 or 1.  ``ub`` is None when C defines the result,
        else why it does not (signed overflow, a shift count out of
        range, division by zero); ``value`` is then the result wrapped
        into ``kind``, or 0 where there is none.
        """
        mins, maxs = self._mins, self._maxs
        kind = ka if RANK[ka] >= _INT_RANK else IKind.INT
        shift = op == "<<" or op == ">>"
        if kb is not None and not shift:
            kb = kb if RANK[kb] >= _INT_RANK else IKind.INT
            if kb is not kind:
                kind = self.common_kind(kind, kb)
            if not mins[kind] <= b <= maxs[kind]:
                b = self.wrap(kind, b)
        if not mins[kind] <= a <= maxs[kind]:
            a = self.wrap(kind, a)
        if kb is None:
            result = _UNARY[op](a)
        elif shift and not 0 <= b < self._widths[kind]:
            return 0, kind, UB.SHIFT_OUT_OF_RANGE
        elif op in RELATIONAL:
            return int(_BINARY[op](a, b)), IKind.INT, None
        elif b == 0 and (op == "/" or op == "%"):
            return 0, kind, UB.DIVISION_BY_ZERO
        else:
            result = _BINARY[op](a, b)
        if mins[kind] <= result <= maxs[kind]:
            return result, kind, None
        return (self.wrap(kind, result), kind,
                UB.SIGNED_OVERFLOW if kind.is_signed else None)

    # -- sizeof / alignof ----------------------------------------------------

    def sizeof(self, ctype: CType) -> int:
        if isinstance(ctype, Void):
            raise CTypeError("sizeof(void) is invalid")
        if isinstance(ctype, Integer):
            return self.int_size(ctype.kind)
        if isinstance(ctype, Pointer):
            return self.arch.capability_size
        if isinstance(ctype, ArrayT):
            if ctype.length is None:
                raise CTypeError("sizeof on incomplete array type")
            return self.sizeof(ctype.elem) * ctype.length
        if isinstance(ctype, (StructT, UnionT)):
            return self.struct_size(ctype)
        if isinstance(ctype, FuncT):
            raise CTypeError("sizeof on a function type")
        raise CTypeError(f"sizeof: unhandled type {ctype}")

    def alignof(self, ctype: CType) -> int:
        if isinstance(ctype, Integer):
            size = self.int_size(ctype.kind)
            if ctype.kind.is_capability_carrying:
                return self.arch.capability_size
            return size
        if isinstance(ctype, Pointer):
            return self.arch.capability_size
        if isinstance(ctype, ArrayT):
            return self.alignof(ctype.elem)
        if isinstance(ctype, (StructT, UnionT)):
            if ctype.fields is None:
                raise CTypeError(f"alignof on incomplete {ctype}")
            return max((self.alignof(f.ctype) for f in ctype.fields),
                       default=1)
        raise CTypeError(f"alignof: unhandled type {ctype}")

    # -- struct / union layout ---------------------------------------------

    def struct_fields(self, ctype: StructT) -> list[FieldLayout]:
        """Member offsets using the standard C layout algorithm.

        The layout of a (frozen) type node never changes, so results are
        memoised per node; callers must treat the list as read-only.
        """
        memo = self._struct_memo.get(id(ctype))
        if memo is not None and memo[0] is ctype:
            return memo[1]
        if ctype.fields is None:
            raise CTypeError(f"layout of incomplete {ctype}")
        out: list[FieldLayout] = []
        if isinstance(ctype, UnionT):
            for f in ctype.fields:
                out.append(FieldLayout(f.name, f.ctype, 0))
        else:
            offset = 0
            for f in ctype.fields:
                align = self.alignof(f.ctype)
                offset = _align_up(offset, align)
                out.append(FieldLayout(f.name, f.ctype, offset))
                offset += self.sizeof(f.ctype)
        if len(self._struct_memo) >= _MEMO_LIMIT:
            self._struct_memo.clear()
        self._struct_memo[id(ctype)] = (ctype, out)
        return out

    def struct_size(self, ctype: StructT) -> int:
        if ctype.fields is None:
            raise CTypeError(f"sizeof on incomplete {ctype}")
        align = self.alignof(ctype)
        if isinstance(ctype, UnionT):
            raw = max((self.sizeof(f.ctype) for f in ctype.fields), default=0)
        else:
            fields = self.struct_fields(ctype)
            raw = 0
            if fields:
                last = fields[-1]
                raw = last.offset + self.sizeof(last.ctype)
        return max(_align_up(raw, align), 1)

    def offsetof(self, ctype: StructT, member: str) -> int:
        for f in self.struct_fields(ctype):
            if f.name == member:
                return f.offset
        raise CTypeError(f"{ctype} has no member {member!r}")

    # -- typed-access plan ----------------------------------------------

    def access_plan(self, ctype: CType) -> tuple[int, bool, bool]:
        """What a typed load or store needs to know about its type:
        ``(sizeof(ctype), is_capability_type(ctype), is a non-capability
        integer)``.

        Memoised per type node, keyed by identity like
        :meth:`struct_fields`; a type ``sizeof`` rejects raises every
        time and is never memoised.
        """
        memo = self._plan_memo.get(id(ctype))
        if memo is not None and memo[0] is ctype:
            return memo[1]
        plan = (self.sizeof(ctype), self.is_capability_type(ctype),
                isinstance(ctype, Integer)
                and not ctype.kind.is_capability_carrying)
        if len(self._plan_memo) >= _MEMO_LIMIT:
            self._plan_memo.clear()
        self._plan_memo[id(ctype)] = (ctype, plan)
        return plan

    # -- capability-carrying predicate ---------------------------------------

    def is_capability_type(self, ctype: CType) -> bool:
        """Types represented at runtime by a full capability (S3.3)."""
        if isinstance(ctype, Pointer):
            return True
        return (isinstance(ctype, Integer)
                and ctype.kind.is_capability_carrying)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
