"""C type representations.

The type grammar covers everything the paper's test programs use:
integer types (including the CHERI C additions ``intptr_t``,
``uintptr_t`` -- capability-carrying -- and ``ptraddr_t``), pointers,
arrays, structs, unions, and function types.

CHERI C constraint (S3.7): "no other standard integer type shall have a
higher integer conversion rank than ``intptr_t`` and ``uintptr_t``" --
see :data:`RANK`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import CTypeError


class IKind(enum.Enum):
    """Integer type kinds. ``SIZE``/``PTRDIFF`` are distinct kinds so the
    frontend can report them by name, but alias LONG-width integers."""

    BOOL = "_Bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LLONG = "long long"
    ULLONG = "unsigned long long"
    SIZE = "size_t"
    PTRDIFF = "ptrdiff_t"
    PTRADDR = "ptraddr_t"
    INTPTR = "intptr_t"
    UINTPTR = "uintptr_t"

    @property
    def is_signed(self) -> bool:
        return self in _SIGNED_KINDS

    @property
    def is_capability_carrying(self) -> bool:
        """True for the types represented by a full capability (S3.3)."""
        return self in _CAPABILITY_KINDS

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash -- and C-speed.  Layout tables, RANK, and signed
    # checks key dicts/sets by IKind on every integer operation.
    __hash__ = object.__hash__


_CAPABILITY_KINDS = frozenset({IKind.INTPTR, IKind.UINTPTR})

_SIGNED_KINDS = frozenset({
    IKind.CHAR,   # char is signed on our targets (AArch64 is unsigned in
                  # reality; signed matches the paper's x86-authored tests)
    IKind.SCHAR, IKind.SHORT, IKind.INT, IKind.LONG, IKind.LLONG,
    IKind.PTRDIFF, IKind.INTPTR,
})


#: Integer conversion ranks.  ``(u)intptr_t`` are maximal (S3.7).
RANK: dict[IKind, int] = {
    IKind.BOOL: 0,
    IKind.CHAR: 1, IKind.SCHAR: 1, IKind.UCHAR: 1,
    IKind.SHORT: 2, IKind.USHORT: 2,
    IKind.INT: 3, IKind.UINT: 3,
    IKind.LONG: 4, IKind.ULONG: 4,
    IKind.SIZE: 4, IKind.PTRDIFF: 4, IKind.PTRADDR: 4,
    IKind.LLONG: 5, IKind.ULLONG: 5,
    IKind.INTPTR: 6, IKind.UINTPTR: 6,
}


@dataclass(frozen=True)
class CType:
    """Base class for C types. ``const`` is the only qualifier modelled;
    S3.9 is the only place it has capability-level meaning."""

    const: bool = field(default=False, kw_only=True)

    def qualified_const(self) -> "CType":
        return replace(self, const=True)

    def unqualified(self) -> "CType":
        return replace(self, const=False) if self.const else self

    # Overridden by subclasses:
    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_pointer

    @property
    def is_complete(self) -> bool:
        return True


@dataclass(frozen=True)
class Void(CType):
    @property
    def is_complete(self) -> bool:
        return False

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class Integer(CType):
    kind: IKind = IKind.INT

    @property
    def is_integer(self) -> bool:
        return True

    @property
    def is_signed(self) -> bool:
        return self.kind.is_signed

    @property
    def is_capability_carrying(self) -> bool:
        return self.kind.is_capability_carrying

    def __str__(self) -> str:
        prefix = "const " if self.const else ""
        return prefix + str(self.kind)


@dataclass(frozen=True)
class Pointer(CType):
    pointee: CType = field(default_factory=Void)

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        suffix = " const" if self.const else ""
        return f"{self.pointee}*{suffix}"


@dataclass(frozen=True)
class ArrayT(CType):
    elem: CType = field(default_factory=lambda: Integer(IKind.INT))
    length: int | None = None

    @property
    def is_complete(self) -> bool:
        return self.length is not None

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.elem}[{n}]"


@dataclass(frozen=True)
class Field:
    name: str
    ctype: CType


@dataclass(frozen=True)
class StructT(CType):
    tag: str = ""
    fields: tuple[Field, ...] | None = None

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def field_type(self, name: str) -> CType:
        for f in self.fields or ():
            if f.name == name:
                return f.ctype
        raise CTypeError(f"{self} has no member {name!r}")

    def __str__(self) -> str:
        return f"struct {self.tag}"

    def __eq__(self, other: object) -> bool:
        # struct identity is by tag (one definition per program)
        return (isinstance(other, StructT) and not isinstance(other, UnionT)
                and other.tag == self.tag)

    def __hash__(self) -> int:
        return hash(("struct", self.tag))


@dataclass(frozen=True, eq=False)
class UnionT(StructT):
    def __str__(self) -> str:
        return f"union {self.tag}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnionT) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("union", self.tag))


@dataclass(frozen=True)
class FuncT(CType):
    ret: CType = field(default_factory=Void)
    params: tuple[CType, ...] = ()
    variadic: bool = False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.ret}({params})"


# -- canonical instances --------------------------------------------------

VOID = Void()
BOOL = Integer(IKind.BOOL)
CHAR = Integer(IKind.CHAR)
SCHAR = Integer(IKind.SCHAR)
UCHAR = Integer(IKind.UCHAR)
SHORT = Integer(IKind.SHORT)
USHORT = Integer(IKind.USHORT)
INT = Integer(IKind.INT)
UINT = Integer(IKind.UINT)
LONG = Integer(IKind.LONG)
ULONG = Integer(IKind.ULONG)
LLONG = Integer(IKind.LLONG)
ULLONG = Integer(IKind.ULLONG)
INTPTR = Integer(IKind.INTPTR)
UINTPTR = Integer(IKind.UINTPTR)
PTRADDR = Integer(IKind.PTRADDR)
SIZE_T = Integer(IKind.SIZE)
PTRDIFF_T = Integer(IKind.PTRDIFF)
#: The element type of a string literal's array.
CHAR_CONST = Integer(IKind.CHAR, const=True)


def is_const_array(ctype: CType) -> bool:
    """An array whose elements are const (its storage is read-only)."""
    return isinstance(ctype, ArrayT) and ctype.elem.const


def strip_const(ctype: CType) -> CType:
    """Remove top-level const (array element const also stripped, since
    arrays inherit qualification from their elements)."""
    if isinstance(ctype, ArrayT):
        return replace(ctype, const=False, elem=strip_const(ctype.elem))
    return ctype.unqualified()


def compatible(a: CType, b: CType) -> bool:
    """Loose compatibility for assignment/comparison diagnostics.

    Qualifiers are ignored; pointer targets are compared recursively with
    ``void*`` compatible with every object pointer.
    """
    a, b = strip_const(a), strip_const(b)
    if a == b:
        return True
    if isinstance(a, Pointer) and isinstance(b, Pointer):
        if isinstance(a.pointee, Void) or isinstance(b.pointee, Void):
            return True
        return compatible(a.pointee, b.pointee)
    if a.is_integer and b.is_integer:
        return True
    return False
