"""Memory values and the capability-carrying integer value (S4.3).

The paper defines ``integer_value = Z (+) (B x Cap)``: an integer value
is either a plain mathematical integer or a capability together with a
signedness flag, the latter being the representation of ``(u)intptr_t``
values.  "This representation allows us to preserve all capability
fields when casting pointers to (u)intptr_t and back."

Pointer values pair a provenance with a capability.  Integer values also
carry a provenance: PNVI-ae-udi itself keeps integers provenance-free,
but the CHERI C memory model (like the Cerberus-CHERI implementation)
threads the originating allocation through ``(u)intptr_t`` values so that
round-trip casts (S3.3) and union type punning (S3.4) re-establish the
same provenance without an exposed-allocation search when possible; the
exposure machinery remains the fallback for plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability.abstract import Capability
from repro.ctypes.types import ArrayT, CType, StructT, UnionT
from repro.memory.provenance import Provenance

_new = object.__new__
_EMPTY_PROV = Provenance.empty()


@dataclass(frozen=True)
class IntegerValue:
    """``Z (+) (B x Cap)``: exactly one of ``num`` / ``cap`` is set.

    ``signed`` only matters in the capability case (it is the ``B`` of
    the paper's sum type); plain integers carry their value exactly and
    take their type's signedness from context.
    """

    num: int | None = None
    cap: Capability | None = None
    signed: bool = True
    prov: Provenance = field(default_factory=Provenance.empty)

    def __post_init__(self) -> None:
        if (self.num is None) == (self.cap is None):
            raise ValueError("IntegerValue must be exactly one of num/cap")

    @classmethod
    def of_int(cls, value: int) -> "IntegerValue":
        """The plain integer ``value``.  Every loaded integer is built
        here, so the fields go straight into the instance dictionary
        (as ``_make_cap`` does for capabilities) instead of through the
        frozen dataclass ``__init__`` and its check."""
        ival = _new(cls)
        state = ival.__dict__
        state["num"] = value
        state["cap"] = None
        state["signed"] = True
        state["prov"] = _EMPTY_PROV
        return ival

    @classmethod
    def of_cap(cls, cap: Capability, signed: bool,
               prov: Provenance | None = None) -> "IntegerValue":
        return cls(cap=cap, signed=signed,
                   prov=prov if prov is not None else Provenance.empty())

    @property
    def is_capability(self) -> bool:
        return self.cap is not None

    def value(self) -> int:
        """The mathematical integer value.

        For capability-carrying values this is the address part,
        interpreted according to the signedness flag -- the metadata does
        not contribute (S4.3 ``integer_value``).
        """
        if self.cap is None:
            assert self.num is not None
            return self.num
        addr = self.cap.address
        width = self.cap.arch.address_width
        if self.signed and addr >> (width - 1):
            addr -= 1 << width
        return addr

    def with_value(self, new: int) -> "IntegerValue":
        """Same shape, new numeric value.

        In the capability case the address moves via the abstract-machine
        *ghost* path (S3.3 option (c)): non-representable excursions are
        recorded in ghost state, never lose the numeric value.
        """
        if self.cap is None:
            return IntegerValue.of_int(new)
        width = self.cap.arch.address_width
        return IntegerValue.of_cap(
            self.cap.with_address_ghost(new & ((1 << width) - 1)),
            self.signed, self.prov)

    def with_value_hardware(self, new: int) -> "IntegerValue":
        """Hardware semantics: non-representable moves clear the tag."""
        if self.cap is None:
            return IntegerValue.of_int(new)
        width = self.cap.arch.address_width
        return IntegerValue.of_cap(
            self.cap.with_address(new & ((1 << width) - 1)),
            self.signed, self.prov)


@dataclass(frozen=True)
class PointerValue:
    """A pointer value: provenance plus capability (S4.3 rule (2a))."""

    prov: Provenance
    cap: Capability

    @property
    def address(self) -> int:
        return self.cap.address

    def with_cap(self, cap: Capability) -> "PointerValue":
        return PointerValue(self.prov, cap)

    def with_prov(self, prov: Provenance) -> "PointerValue":
        return PointerValue(prov, self.cap)

    def is_null(self) -> bool:
        return self.cap.is_null()


# ---------------------------------------------------------------------------
# Memory values (the typed view of object contents)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryValue:
    """Base class: a typed value as read from / written to memory."""

    ctype: CType


@dataclass(frozen=True)
class MVUnspecified(MemoryValue):
    """An unspecified value (uninitialised object, or a capability whose
    ghost state makes a field unspecified)."""


@dataclass(frozen=True)
class MVInteger(MemoryValue):
    ival: IntegerValue = IntegerValue.of_int(0)


@dataclass(frozen=True)
class MVPointer(MemoryValue):
    ptr: PointerValue = None  # type: ignore[assignment]


@dataclass(frozen=True)
class MVArray(MemoryValue):
    elems: tuple[MemoryValue, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.ctype, ArrayT):
            raise TypeError("MVArray requires an array type")


@dataclass(frozen=True)
class MVStruct(MemoryValue):
    members: tuple[tuple[str, MemoryValue], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.ctype, StructT):
            raise TypeError("MVStruct requires a struct/union type")

    def member(self, name: str) -> MemoryValue:
        for n, v in self.members:
            if n == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class MVUnion(MemoryValue):
    """A union value: the active member and its value."""

    active: str = ""
    value: MemoryValue | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.ctype, UnionT):
            raise TypeError("MVUnion requires a union type")
