"""The memory state ``(A, S, M)`` with ``M = B x C`` (S4.3).

``A`` is the allocation table; ``S`` is the PNVI-ae-udi bookkeeping (the
exposure flags live on allocations, symbolic ``iota`` provenances here);
``B`` maps addresses to abstract bytes; ``C`` maps capability-aligned
addresses to ``(tag, ghost_state)`` pairs.

The paper's Coq model threads this state through a ``memM`` monad; in
Python the state is a mutable object owned by the
:class:`~repro.memory.model.MemoryModel`, which is the only writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability.abstract import Architecture
from repro.capability.ghost import GhostState
from repro.memory.absbyte import AbsByte
from repro.memory.allocation import Allocation
from repro.memory.allocator import AddressMap, make_allocator
from repro.memory.provenance import Provenance


@dataclass
class CapMeta:
    """One entry of the ``C`` dictionary: tag bit + two ghost bits."""

    tag: bool = False
    ghost: GhostState = field(default_factory=GhostState)


class MemState:
    """Mutable memory state.  See the module docstring for the mapping
    onto the paper's ``(A, S, (B, C))`` tuple."""

    def __init__(self, arch: Architecture, address_map: AddressMap,
                 allocator: str = "bump") -> None:
        self.arch = arch
        self.allocations: dict[int, Allocation] = {}        # A
        self.iotas: dict[int, tuple[int, ...]] = {}          # S (udi part)
        self.bytes: dict[int, AbsByte] = {}                  # B
        self.capmeta: dict[int, CapMeta] = {}                # C
        self.allocator = make_allocator(allocator, address_map,
                                        arch.compression)
        self._next_alloc_id = 1
        self._next_iota_id = 1

    # -- A: allocations -----------------------------------------------------

    def fresh_allocation_id(self) -> int:
        ident = self._next_alloc_id
        self._next_alloc_id += 1
        return ident

    def allocation(self, ident: int) -> Allocation:
        return self.allocations[ident]

    def add_allocation(self, alloc: Allocation) -> None:
        self.allocations[alloc.ident] = alloc

    def live_allocation_at(self, addr: int) -> Allocation | None:
        """The live allocation whose object footprint contains ``addr``."""
        for alloc in self.allocations.values():
            if alloc.alive and alloc.base <= addr < alloc.top:
                return alloc
        return None

    def exposed_candidates(self, addr: int) -> list[Allocation]:
        """Exposed live allocations for which ``addr`` is within bounds or
        one-past -- the PNVI-ae integer-to-pointer candidates."""
        return [a for a in self.allocations.values()
                if a.alive and a.exposed and a.base <= addr <= a.top]

    def expose(self, ident: int) -> None:
        """PNVI-ae exposure: mark the allocation, if live."""
        alloc = self.allocations.get(ident)
        if alloc is not None and alloc.alive:
            alloc.exposed = True

    # -- S: symbolic provenances (udi) ----------------------------------------

    def fresh_iota(self, candidates: tuple[int, ...]) -> Provenance:
        iota = self._next_iota_id
        self._next_iota_id += 1
        self.iotas[iota] = candidates
        return Provenance.symbolic(iota)

    def iota_candidates(self, iota_id: int) -> tuple[int, ...]:
        return self.iotas[iota_id]

    def resolve_iota(self, iota_id: int, ident: int) -> None:
        """Collapse a symbolic provenance to one allocation (first use)."""
        self.iotas[iota_id] = (ident,)

    # -- B: bytes -------------------------------------------------------

    def read_byte(self, addr: int) -> AbsByte:
        return self.bytes.get(addr, AbsByte.unspec())

    def write_byte(self, addr: int, byte: AbsByte) -> None:
        self.bytes[addr] = byte

    # -- C: capability metadata ------------------------------------------

    def cap_align_down(self, addr: int) -> int:
        size = self.arch.capability_size
        return addr & ~(size - 1)

    def cap_slots(self, addr: int, size: int) -> range:
        """Capability-aligned slot addresses overlapping [addr, addr+size).

        A ``range``, so sizing or indexing the slots of a large region
        costs nothing.
        """
        if size <= 0:
            return range(0)
        cap = self.arch.capability_size
        first = self.cap_align_down(addr)
        last = self.cap_align_down(addr + size - 1)
        return range(first, last + 1, cap)

    def capmeta_at(self, addr: int) -> CapMeta:
        return self.capmeta.get(addr, CapMeta())

    def set_capmeta(self, addr: int, meta: CapMeta) -> None:
        self.capmeta[addr] = meta

    def taint_capmeta(self, addr: int, size: int, hardware: bool) -> None:
        """A non-capability write landed on [addr, addr+size).

        Hardware: overlapping tags are *cleared* (S2.1 unforgeability).
        Abstract machine: previously set tags become *unspecified* in
        ghost state (S3.5, S4.3), licensing optimisations that remove the
        write.
        """
        if not self.capmeta:
            return
        for slot in self.cap_slots(addr, size):
            meta = self.capmeta.get(slot)
            if meta is None:
                continue
            if hardware:
                meta.tag = False
            elif meta.tag or not meta.ghost.tag_unspecified:
                meta.ghost = meta.ghost.with_tag_unspecified()
