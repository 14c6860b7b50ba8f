"""Abstract memory bytes.

S4.3: "Each byte consists of provenance (pi), an optional 8-bit numeric
value, and an optional integer index."

The optional value models uninitialised memory (reading it yields an
unspecified value).  The index records, for bytes of a stored pointer
representation, *which* byte of the capability this is; the abstraction
function uses it to check that a pointer read back bytewise was copied
coherently (a requirement inherited from the PNVI models).

``AbsByte`` is the observable form of a byte, not its storage: the
byte store (:mod:`repro.memory.state`) keeps plain bytes as values in a
page, a capability's bytes as values plus one provenance per slot, and
only the rest as ``AbsByte`` objects.  ``MemState.read_byte`` rebuilds
the abstract byte on demand (plain ones are the interned
:meth:`AbsByte.plain` objects).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.provenance import Provenance


@dataclass(frozen=True, init=False)
class AbsByte:
    prov: Provenance
    value: int | None = None
    index: int | None = None

    def __init__(self, prov: Provenance, value: int | None = None,
                 index: int | None = None) -> None:
        # Every stored byte is built here, so the fields go straight
        # into the instance dictionary rather than through the frozen
        # dataclass's per-field ``object.__setattr__``.
        if value is not None and not 0 <= value <= 0xFF:
            raise ValueError(f"byte value out of range: {value}")
        state = self.__dict__
        state["prov"] = prov
        state["value"] = value
        state["index"] = index

    @classmethod
    def unspec(cls) -> "AbsByte":
        """An uninitialised byte."""
        return _UNSPEC

    @classmethod
    def plain(cls, value: int) -> "AbsByte":
        """The provenance-free byte ``value`` (0..255).

        Bytes are immutable, so the 256 plain ones are interned: integer
        stores and ``memset`` share them instead of building a fresh
        byte per address.
        """
        return _PLAIN[value]

    @property
    def is_unspecified(self) -> bool:
        return self.value is None


_UNSPEC = AbsByte(Provenance.empty())
_PLAIN = tuple(AbsByte(Provenance.empty(), v) for v in range(256))
