"""Seeded implementation faults: the suite as a bug finder (S5).

The paper's experimental claim is not just that implementations pass
the suite, but that the suite *finds real bugs*: "Our test suite
independently identified two known issues ... It also rediscovered an
upstream bug ... Additionally, our suite detected ... two bugs in the
realloc function of the CheriBSD jemalloc library" (S5.2) and "Our test
suite identified five issues in the latest public release" (S5.3).

We cannot re-find those exact bugs (our simulated implementations are
bug-free by construction), so this module reproduces the *capability to
find them*: each :class:`Fault` seeds a realistic implementation bug --
modelled on the classes of bug the paper reports -- into a hardware
implementation, and ``benchmarks/bench_bug_detection.py`` verifies the
suite flags every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.impls.config import Implementation
from repro.impls.registry import CLANG_MORELLO_O0
from repro.memory.model import MemoryModel
from repro.memory.values import PointerValue


class ReallocDropsTagModel(MemoryModel):
    """The CheriBSD jemalloc-realloc class of bug (S5.2): realloc
    returns a capability whose tag was lost on the resize path."""

    def realloc(self, ptr, new_size):
        out = super().realloc(ptr, new_size)
        return out.with_cap(out.cap.with_tag(False))


class MemcpyBytewiseModel(MemoryModel):
    """A libc that copies bytewise: capabilities lose their tags in
    memcpy, breaking S3.5's preservation requirement (the newlib /
    bare-metal runtime class of bug deferred in S5.3)."""

    def _raw_copy(self, daddr, saddr, n):
        snapshot = [self.state.read_byte(saddr + i) for i in range(n)]
        for i, b in enumerate(snapshot):
            self.state.write_byte(daddr + i, b)
        self.state.taint_capmeta(daddr, n, hardware=True)


class MallocUnpaddedModel(MemoryModel):
    """An allocator that ignores representability padding (violating the
    S3.2 obligation): large allocations get capabilities whose rounded
    bounds overlap the neighbouring allocation."""

    def allocate_region(self, size, align=None, name="malloc"):
        alignment = align if align is not None else \
            self.arch.capability_size
        # Reserve the *exact* size (no representability padding)...
        from repro.memory.allocation import Allocation, AllocKind
        cursor = self.state.allocator.cursor(AllocKind.HEAP)
        base = (cursor + alignment - 1) & ~(alignment - 1)
        self.state.allocator.rewind(AllocKind.HEAP, base + size)
        ident = self.state.fresh_allocation_id()
        self.state.add_allocation(Allocation(
            ident=ident, base=base, size=size, align=alignment,
            kind=AllocKind.HEAP, name=name))
        for addr in range(base, base + size):
            self.state.bytes.pop(addr, None)
        for slot in self.state.cap_slots(base, size):
            self.state.capmeta.pop(slot, None)
        # ...so the capability's rounded bounds may exceed it.
        cap, _ = self._data_root.set_bounds(base, size)
        from repro.memory.provenance import Provenance
        return PointerValue(Provenance.alloc(ident), cap)


class ConstWritableModel(MemoryModel):
    """A compiler/linker that forgets to drop write permissions on
    capabilities to const objects (the S3.9 requirement; the paper's
    S5.1 notes even Cerberus had 'one known bug relating to const')."""

    def allocate_object(self, ctype, kind, name="", *, readonly=False,
                        align=None):
        out = super().allocate_object(ctype, kind, name,
                                      readonly=False, align=align)
        return out

    def allocate_string(self, data, name=""):
        ptr = super().allocate_string(data, name=name)
        # Rebuild the string capability with full (writable) permissions.
        cap, _ = self.arch.root_capability().set_bounds(ptr.cap.base,
                                                        ptr.cap.length)
        alloc = self.state.allocations.get(ptr.prov.ident)
        if alloc is not None:
            alloc.readonly = False
        return ptr.with_cap(cap)


@dataclass(frozen=True)
class FaultyImplementation(Implementation):
    """An implementation with a seeded model-level bug."""

    model_class: type[MemoryModel] = MemoryModel


def _faulty(name: str, model_class: type[MemoryModel],
            description: str) -> FaultyImplementation:
    base = CLANG_MORELLO_O0
    return FaultyImplementation(
        name=name, arch=base.arch, mode=base.mode,
        address_map=base.address_map, opt_level=base.opt_level,
        description=description, model_class=model_class)


#: The seeded-bug registry: name -> (implementation, bug summary).
FAULTS: dict[str, FaultyImplementation] = {
    "realloc-drops-tag": _faulty(
        "buggy-realloc-drops-tag", ReallocDropsTagModel,
        "realloc loses the capability tag (CheriBSD jemalloc class)"),
    "memcpy-bytewise": _faulty(
        "buggy-memcpy-bytewise", MemcpyBytewiseModel,
        "memcpy copies bytewise, clearing tags (S3.5 violation)"),
    "malloc-unpadded": _faulty(
        "buggy-malloc-unpadded", MallocUnpaddedModel,
        "allocator skips representability padding (S3.2 violation)"),
    "const-writable": _faulty(
        "buggy-const-writable", ConstWritableModel,
        "const objects keep write permission (S3.9 violation)"),
}
