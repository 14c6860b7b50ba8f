"""Pointer provenance (PNVI-ae-udi, S2.3 / S3.11).

A provenance is one of:

* **empty** -- no associated allocation (e.g. a pointer fabricated from
  an integer that matched no exposed allocation); any access through it
  is UB;
* **an allocation ID** -- the normal case;
* **symbolic** (``iota``) -- the "user disambiguation" of PNVI-ae-udi:
  an integer-to-pointer cast whose address sits exactly on the boundary
  between two exposed allocations (one-past the end of one, the start of
  the other) is ambiguous; the choice is deferred and resolved by the
  first use that disambiguates it.

Provenance is an abstract-machine notion only; it is never represented at
runtime by conventional implementations and is *complementary* to, not
subsumed by, capability checks (S3.11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ProvKind(enum.Enum):
    EMPTY = "empty"
    ALLOC = "alloc"
    SYMBOLIC = "iota"


@dataclass(frozen=True)
class Provenance:
    kind: ProvKind
    ident: int = 0  # allocation id, or iota id for SYMBOLIC

    @classmethod
    def empty(cls) -> "Provenance":
        return _EMPTY

    @classmethod
    def alloc(cls, alloc_id: int) -> "Provenance":
        # Built per allocation, so the fields go straight into the
        # instance dictionary rather than through the frozen
        # dataclass's per-field ``object.__setattr__``.
        prov = _new(cls)
        state = prov.__dict__
        state["kind"] = ProvKind.ALLOC
        state["ident"] = alloc_id
        return prov

    @classmethod
    def symbolic(cls, iota_id: int) -> "Provenance":
        return cls(ProvKind.SYMBOLIC, iota_id)

    @property
    def is_empty(self) -> bool:
        return self.kind is ProvKind.EMPTY

    @property
    def is_symbolic(self) -> bool:
        return self.kind is ProvKind.SYMBOLIC

    @property
    def alloc_id(self) -> int:
        if self.kind is not ProvKind.ALLOC:
            raise ValueError(f"provenance {self} has no allocation id")
        return self.ident

    def describe(self) -> str:
        """Appendix-A style: ``@86`` for allocations, ``@empty``."""
        if self.kind is ProvKind.EMPTY:
            return "@empty"
        if self.kind is ProvKind.SYMBOLIC:
            return f"@iota{self.ident}"
        return f"@{self.ident}"


_new = object.__new__
_EMPTY = Provenance(ProvKind.EMPTY)
