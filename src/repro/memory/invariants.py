"""Machine-checked global invariants of the memory object model.

The paper's S7: the Coq mechanisation "makes it potentially usable for
proof about the language, e.g. to make precise properties such as
provenance validity and capability integrity that are informally
described in the CHERI architecture specification."  This module states
those two properties precisely over our state and checks them
dynamically: :class:`CheckedMemoryModel` re-validates the full state
after every mutating operation, so running the whole validation suite
under it is a bounded-exhaustive check of the invariants over every
reachable state of every test program.

**Capability integrity** (after [44]'s informal statement): every
*reliably* tagged capability in memory (tag set, ghost clean) was
legitimately derived -- its bounds lie within the capability footprint
of some allocation (live or dead: CHERI without revocation does not
revoke on free), or it is one of the implementation's own root-derived
capabilities (function sentries, the sealing root).

**Provenance validity** (after [28]): every abstract byte's provenance
and every allocation-provenance in the state names an allocation that
exists in ``A``; tag metadata exists only at capability-aligned
addresses; allocations' capability footprints are pairwise disjoint.
"""

from __future__ import annotations

from repro.errors import MemoryModelError
from repro.memory.model import MemoryModel
from repro.memory.provenance import ProvKind


def check_invariants(model: MemoryModel) -> None:
    """Raise :class:`MemoryModelError` on any invariant violation."""
    _check_allocation_disjointness(model)
    _check_provenance_validity(model)
    _check_tag_alignment(model)
    _check_capability_integrity(model)


def _check_allocation_disjointness(model: MemoryModel) -> None:
    # Only live allocations must be disjoint: dead records are retained
    # (for temporal UB detection) and stack/heap space is legitimately
    # reused after their lifetime ends.
    spans = sorted((a.cap_base, a.cap_base + a.cap_size, a.ident)
                   for a in model.state.allocations.values() if a.alive)
    for (a0, a1, ai), (b0, _b1, bi) in zip(spans, spans[1:]):
        if a1 > b0:
            raise MemoryModelError(
                f"allocations @{ai} and @{bi} overlap: "
                f"[{a0:#x},{a1:#x}) vs base {b0:#x}")


def _check_provenance_validity(model: MemoryModel) -> None:
    allocations = model.state.allocations
    for addr, byte in model.state.items():
        if byte.prov.kind is ProvKind.ALLOC and \
                byte.prov.ident not in allocations:
            raise MemoryModelError(
                f"byte at {addr:#x} carries provenance @{byte.prov.ident} "
                "which names no allocation")
        if byte.prov.is_symbolic and \
                byte.prov.ident not in model.state.iotas:
            raise MemoryModelError(
                f"byte at {addr:#x} carries unknown iota "
                f"@{byte.prov.ident}")
    for iota, candidates in model.state.iotas.items():
        for ident in candidates:
            if ident not in allocations:
                raise MemoryModelError(
                    f"iota {iota} references missing allocation @{ident}")


def _check_tag_alignment(model: MemoryModel) -> None:
    size = model.arch.capability_size
    for addr in model.state.capmeta:
        if addr % size:
            raise MemoryModelError(
                f"capability metadata at misaligned address {addr:#x}")


def _check_capability_integrity(model: MemoryModel) -> None:
    space = 1 << model.arch.address_width
    allocations = list(model.state.allocations.values())
    for slot, meta in model.state.capmeta.items():
        if not meta.tag or not meta.ghost.is_clean:
            continue
        cap = model.arch.decode(model.state.slot_bytes(slot), True)
        bounds = cap.decoded()
        derived_ok = any(
            a.cap_base <= bounds.base and
            bounds.top <= a.cap_base + a.cap_size
            for a in allocations)
        # Root-derived implementation capabilities (the sealing root,
        # NULL-derived whole-space values) span beyond any allocation.
        whole_space = bounds.base == 0 and bounds.top == space
        otype_root = bounds.top <= (1 << model.arch.otype_width)
        if not (derived_ok or whole_space or otype_root):
            raise MemoryModelError(
                f"tagged capability at slot {slot:#x} has bounds "
                f"[{bounds.base:#x},{bounds.top:#x}) derived from no "
                "allocation")


class CheckedMemoryModel(MemoryModel):
    """A memory model that re-checks all global invariants after every
    mutating operation -- the dynamic analogue of mechanised proof."""

    #: Mutating public operations to guard.
    _GUARDED = ("allocate_object", "allocate_region", "allocate_string",
                "allocate_function", "free", "realloc", "store", "memcpy",
                "memset", "kill_allocation")

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name in CheckedMemoryModel._GUARDED:
            def guarded(*args, **kwargs):
                result = attr(*args, **kwargs)
                check_invariants(self)
                return result
            return guarded
        return attr
