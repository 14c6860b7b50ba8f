"""The memory state ``(A, S, M)`` with ``M = B x C`` (S4.3).

``A`` is the allocation table; ``S`` is the PNVI-ae-udi bookkeeping (the
exposure flags live on allocations, symbolic ``iota`` provenances here);
``B`` maps addresses to abstract bytes; ``C`` maps capability-aligned
addresses to ``(tag, ghost_state)`` pairs.

``B`` stays a function of address -- hardware-mode accesses carry no
provenance, and stack rewinds and freelist reuse put several
allocations, live and dead, over one address -- but it is stored the
way Park et al. model CHERI-C memory: contiguous byte content with
provenance kept beside it.  Memory is cut into 4 KiB pages, each a
``bytearray`` of values plus one *kind* byte per address:

* ``UNSPEC`` -- never written, or cleared: reads as ``AbsByte.unspec()``;
* ``PLAIN`` -- a provenance-free value: reads as ``AbsByte.plain(v)``;
* ``RICH`` -- any other byte (one with a provenance or an index), kept
  whole in a sparse ``addr -> AbsByte`` side table;
* ``CAP`` -- byte ``addr - slot`` of a capability stored at the
  capability-aligned ``slot``: its provenance is the one entry kept per
  slot, its index ``addr - slot``.

So an integer store is two slice assignments and a capability store
two slices plus one provenance entry, instead of one ``AbsByte`` per
address.  :meth:`MemState.read_byte`, :meth:`MemState.write_byte` and
:meth:`MemState.items` are the one way to observe ``B``; the run-level
methods beside them are the model's fast paths and answer ``None``
where only the byte-wise path can (a run straddling a page, a partly
overwritten capability, bytes copied char-wise out of a pointer).

The paper's Coq model threads this state through a ``memM`` monad; in
Python the state is a mutable object owned by the
:class:`~repro.memory.model.MemoryModel`, which is the only writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.capability.abstract import Architecture
from repro.capability.ghost import GhostState
from repro.memory.absbyte import AbsByte
from repro.memory.allocation import Allocation
from repro.memory.allocator import AddressMap, make_allocator
from repro.memory.provenance import Provenance, ProvKind

#: Page geometry of ``B``.
PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
_OFFSET_MASK = PAGE_SIZE - 1

# Byte kinds (see the module docstring).
UNSPEC = 0
PLAIN = 1
RICH = 2
CAP = 3

_UNSPEC_RUN = bytes(PAGE_SIZE)
_PLAIN_RUN = bytes((PLAIN,)) * PAGE_SIZE
#: Kind byte -> 1 if the address holds a specified byte, for scanning.
_WRITTEN = bytes((0,)) + bytes((1,)) * 255
_UNSPEC_BYTE = AbsByte.unspec()
_plain = AbsByte.plain


@dataclass
class CapMeta:
    """One entry of the ``C`` dictionary: tag bit + two ghost bits."""

    tag: bool = False
    ghost: GhostState = field(default_factory=GhostState)


class MemState:
    """Mutable memory state.  See the module docstring for the mapping
    onto the paper's ``(A, S, (B, C))`` tuple.

    ``B`` lives in ``_pages`` (page number -> ``(values, kinds)``
    bytearrays), ``_rich`` (address -> rich ``AbsByte``) and
    ``_slot_prov`` (capability slot -> provenance of the capability
    stored there); read it through :meth:`read_byte` / :meth:`items`
    and write it through :meth:`write_byte` or the run-level writers.
    """

    def __init__(self, arch: Architecture, address_map: AddressMap,
                 allocator: str = "bump") -> None:
        self.arch = arch
        self.allocations: dict[int, Allocation] = {}        # A
        self.iotas: dict[int, tuple[int, ...]] = {}          # S (udi part)
        # B: page number -> (values, kinds), plus the side tables.
        self._pages: dict[int, tuple[bytearray, bytearray]] = {}
        self._rich: dict[int, AbsByte] = {}
        self._slot_prov: dict[int, Provenance] = {}
        self._cap_size = arch.capability_size
        self._cap_run = bytes((CAP,)) * self._cap_size
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
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            return _UNSPEC_BYTE
        values, kinds = page
        off = addr & _OFFSET_MASK
        kind = kinds[off]
        if kind == PLAIN:
            return _plain(values[off])
        if kind == UNSPEC:
            return _UNSPEC_BYTE
        if kind == RICH:
            return self._rich[addr]
        slot = addr & -self._cap_size
        return AbsByte(self._slot_prov[slot], values[off], addr - slot)

    def write_byte(self, addr: int, byte: AbsByte) -> None:
        values, kinds = self._page(addr >> PAGE_BITS)
        off = addr & _OFFSET_MASK
        if kinds[off] == RICH:
            del self._rich[addr]
        value = byte.value
        if byte.index is None and byte.prov.kind is ProvKind.EMPTY:
            if value is None:
                kinds[off] = UNSPEC
            else:
                values[off] = value
                kinds[off] = PLAIN
            return
        values[off] = value or 0
        kinds[off] = RICH
        self._rich[addr] = byte

    def items(self) -> Iterator[tuple[int, AbsByte]]:
        """``B`` as ``(address, byte)`` pairs in address order.
        Unspecified bytes are the map's default and are not listed."""
        for number in sorted(self._pages):
            written = self._pages[number][1].translate(_WRITTEN)
            base = number << PAGE_BITS
            start = written.find(1)
            while start >= 0:
                end = written.find(0, start)
                if end < 0:
                    end = PAGE_SIZE
                for addr in range(base + start, base + end):
                    yield addr, self.read_byte(addr)
                start = written.find(1, end)

    def plain_bytes(self, addr: int, size: int) -> bytearray | None:
        """The values of ``[addr, addr+size)`` when every byte is plain
        and the run sits in one page; ``None`` otherwise."""
        off = addr & _OFFSET_MASK
        end = off + size
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None or end > PAGE_SIZE:
            return None
        values, kinds = page
        if kinds.count(PLAIN, off, end) != size:
            return None
        return values[off:end]

    def stored_capability(self, addr: int) -> tuple[bytes, Provenance] | None:
        """The representation and provenance of the capability stored
        whole at slot ``addr``; ``None`` unless every byte of the slot
        still holds that store's byte."""
        size = self._cap_size
        if addr & (size - 1):
            return None
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            return None
        values, kinds = page
        off = addr & _OFFSET_MASK
        end = off + size
        if kinds[off:end] != self._cap_run:
            return None
        return bytes(values[off:end]), self._slot_prov[addr]

    def slot_bytes(self, slot: int) -> bytes:
        """Capability slot ``slot``'s bytes (unspecified bytes read 0)."""
        stored = self.stored_capability(slot)
        return stored[0] if stored is not None else bytes(
            self.read_byte(slot + i).value or 0
            for i in range(self._cap_size))

    def write_plain(self, addr: int, data: bytes) -> None:
        """Store provenance-free bytes: ``AbsByte.plain`` at each address."""
        size = len(data)
        off = addr & _OFFSET_MASK
        end = off + size
        if end > PAGE_SIZE:
            for i, value in enumerate(data):
                self.write_byte(addr + i, _plain(value))
            return
        number = addr >> PAGE_BITS
        values, kinds = self._page(number)
        if self._rich and RICH in kinds[off:end]:
            self._drop_rich(number, kinds, off, end)
        values[off:end] = data
        kinds[off:end] = _PLAIN_RUN[:size]

    def write_capability(self, addr: int, data: bytes,
                         prov: Provenance) -> None:
        """Store a capability representation: byte ``i`` is
        ``AbsByte(prov, data[i], i)``."""
        size = self._cap_size
        if addr & (size - 1):
            for i, value in enumerate(data):
                self.write_byte(addr + i, AbsByte(prov, value, i))
            return
        number = addr >> PAGE_BITS
        values, kinds = self._page(number)
        off = addr & _OFFSET_MASK
        end = off + size
        if self._rich and RICH in kinds[off:end]:
            self._drop_rich(number, kinds, off, end)
        values[off:end] = data
        kinds[off:end] = self._cap_run
        self._slot_prov[addr] = prov

    def copy(self, daddr: int, saddr: int, size: int) -> None:
        """``memmove`` of ``B``: ``[daddr, daddr+size)`` takes the bytes
        ``[saddr, saddr+size)`` held before the copy.  A capability
        stored whole in a copied slot is re-stored as one (slot-wise
        when the phase is kept); every other byte is copied byte-wise,
        so a capability byte becomes the rich byte it reads as."""
        cap_size = self._cap_size
        first = -(-saddr // cap_size) * cap_size
        whole = [(slot + daddr - saddr, *stored)
                 for slot in range(first, saddr + size - cap_size + 1,
                                   cap_size)
                 if (stored := self.stored_capability(slot)) is not None]
        skip = {slot - daddr + i for slot, _d, _p in whole
                for i in range(cap_size)}
        snapshot = [(i, self.read_byte(saddr + i)) for i in range(size)
                    if i not in skip]
        for i, byte in snapshot:
            self.write_byte(daddr + i, byte)
        for slot, data, prov in whole:
            self.write_capability(slot, data, prov)

    def fill(self, addr: int, size: int, value: int) -> None:
        """``memset``: the plain byte ``value`` over ``[addr, addr+size)``."""
        top = addr + size
        while addr < top:
            number = addr >> PAGE_BITS
            off = addr & _OFFSET_MASK
            end = min(PAGE_SIZE, off + top - addr)
            values, kinds = self._page(number)
            if self._rich and RICH in kinds[off:end]:
                self._drop_rich(number, kinds, off, end)
            values[off:end] = bytes((value,)) * (end - off)
            kinds[off:end] = _PLAIN_RUN[:end - off]
            addr += end - off

    def clear_bytes(self, addr: int, size: int) -> None:
        """Make ``[addr, addr+size)`` unspecified.  Only pages already
        present are touched, so clearing a huge region costs nothing."""
        pages = self._pages
        if size <= 0 or not pages:
            return
        top = addr + size
        first, last = addr >> PAGE_BITS, (top - 1) >> PAGE_BITS
        if last - first < len(pages):
            numbers = range(first, last + 1)
        else:
            numbers = sorted(n for n in pages if first <= n <= last)
        for number in numbers:
            page = pages.get(number)
            if page is None:
                continue
            kinds = page[1]
            base = number << PAGE_BITS
            lo = max(addr, base) - base
            hi = min(top, base + PAGE_SIZE) - base
            if self._rich and RICH in kinds[lo:hi]:
                self._drop_rich(number, kinds, lo, hi)
            kinds[lo:hi] = _UNSPEC_RUN[:hi - lo]

    def reset_region(self, base: int, size: int) -> None:
        """A fresh region: unspecified contents and no capability
        metadata (this also clears stale state when addresses are
        reused).  Scans whichever side is smaller, the slots or the
        metadata map, so a multi-megabyte region stays cheap."""
        self.clear_bytes(base, size)
        capmeta = self.capmeta
        if capmeta:
            slots = self.cap_slots(base, size)
            if len(slots) <= len(capmeta):
                for slot in slots:
                    capmeta.pop(slot, None)
            else:
                first, last = slots[0], slots[-1]
                for slot in [s for s in capmeta if first <= s <= last]:
                    del capmeta[slot]

    def _page(self, number: int) -> tuple[bytearray, bytearray]:
        page = self._pages.get(number)
        if page is None:
            page = (bytearray(PAGE_SIZE), bytearray(PAGE_SIZE))
            self._pages[number] = page
        return page

    def _drop_rich(self, number: int, kinds: bytearray, lo: int,
                   hi: int) -> None:
        """Forget the side-table entries of the rich bytes in
        ``kinds[lo:hi]`` before they are overwritten."""
        base = number << PAGE_BITS
        rich = self._rich
        for off in range(lo, hi):
            if kinds[off] == RICH:
                del rich[base + off]

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
