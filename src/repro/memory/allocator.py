"""Address-space policy: where allocations land.

The appendix of the paper shows that observable CHERI C behaviour can
depend on *allocator address ranges*: GCC's bare-metal allocator places
the stack below 2^31, so masking an ``intptr_t`` with ``INT_MAX`` is the
identity there, while Clang/CheriBSD stacks sit high enough that the same
mask moves the address far out of bounds ("In contrast, GCC does not
exhibit this issue, likely because of its memory allocator's address
ranges").  Each simulated implementation therefore gets its own
:class:`AddressMap`.

Behaviour can equally depend on the *allocation policy* ("Picking a
CHERI Allocator: Security and Performance Considerations", Bramley et
al.): whether ``free``'d heap addresses are reused decides whether a
use-after-free capability aliases a fresh object, and temporal-safety
designs (CHERIoT) quarantine freed regions until revocation has swept
them.  The policy surface is :class:`AllocatorPolicy`; three
deterministic implementations are provided:

``bump`` (:class:`BumpAllocator`)
    The historical default.  Dead regions are never reused except via
    :meth:`~AllocatorPolicy.rewind` on scope exit.
``freelist`` (:class:`FreeListAllocator`)
    Size-class free lists: a freed heap region's capability footprint is
    recycled for the next same-size ``malloc``, so dangling capabilities
    alias the new object exactly as on conventional hardware allocators.
``quarantine`` (:class:`QuarantineAllocator`)
    Free-list reuse delayed by a bounded FIFO quarantine (CHERIoT-style
    temporal safety): a freed region only becomes reusable after
    :data:`QUARANTINE_CAPACITY` further frees, giving revocation sweeps
    a window to invalidate dangling capabilities first.

The allocator also implements the representability padding of S3.2:
"allocators need to use additional padding and/or alignment to ensure
that the required capability is representable and does not overlap other
allocations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.capability.concentrate import CompressionParams
from repro.errors import MemoryModelError
from repro.memory.allocation import AllocKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.allocation import Allocation


#: FIFO depth of the ``quarantine`` policy: a freed region becomes
#: reusable only once this many *younger* frees have queued behind it.
QUARANTINE_CAPACITY = 4


@dataclass(frozen=True)
class AddressMap:
    """Base addresses for each storage region (see repro.impls for the
    per-implementation instances)."""

    name: str
    stack_base: int      # stack allocations grow downward from here
    heap_base: int       # heap allocations grow upward from here
    globals_base: int    # static-storage objects grow upward from here
    code_base: int       # function "allocations" grow upward from here

    def region_base(self, kind: AllocKind) -> int:
        if kind is AllocKind.STACK:
            return self.stack_base
        if kind is AllocKind.HEAP:
            return self.heap_base
        if kind is AllocKind.FUNCTION:
            return self.code_base
        return self.globals_base


def representable_region(params: CompressionParams, size: int,
                         align: int) -> tuple[int, int]:
    """Alignment and padded size making bounds exactly representable.

    Returns ``(align', size')`` such that any base aligned to ``align'``
    with length ``size'`` encodes exactly under ``params`` and
    ``size' >= size``, ``align' >= align``.  Iterates because padding the
    length can bump the required exponent.
    """
    if size < 0:
        raise MemoryModelError("negative allocation size")
    mw, eb = params.mantissa_width, params.exponent_low_bits
    cur_size = max(size, 1)
    while True:
        exponent = (cur_size >> (mw - 1)).bit_length()
        internal = exponent != 0 or bool((cur_size >> (mw - 2)) & 1)
        if not internal:
            return max(align, 1), cur_size
        granule = 1 << (exponent + eb)
        new_size = _align_up(cur_size, granule)
        new_align = max(align, granule)
        if new_size == cur_size:
            return new_align, new_size
        cur_size = new_size


class AllocatorPolicy:
    """Region-per-kind allocator with a pluggable heap-reuse policy.

    Stack allocations grow downward (matching the appendix traces where
    successive frames have decreasing addresses); everything else grows
    upward.  Subclasses decide what happens to *freed heap regions* by
    overriding :meth:`release` and :meth:`_take_reusable`; the base
    class never reuses anything except via :meth:`rewind`, which the
    interpreter uses on scope exit so that stack reuse -- the behaviour
    that makes use-after-scope observable on real hardware -- is
    faithfully modelled.

    The policy name is the value of the ``allocator`` Implementation
    axis.  It is a *run-only* axis: compiled programs are
    policy-independent (the compile caches are shared across policies).
    It is also *release-only*: until the first :meth:`release` every
    policy's reuse pool is empty and :meth:`allocate` bumps the same
    cursors, so the run memo keys on the policy only for a run that
    released a heap region (see :func:`repro.impls.config.memo_keys`).
    """

    #: The registry key and the value carried on region events.
    policy = "bump"

    def __init__(self, address_map: AddressMap,
                 params: CompressionParams) -> None:
        self.address_map = address_map
        self.params = params
        #: Optional event bus (set by the owning MemoryModel); when
        #: attached, every reservation emits ``region.reserve`` (or
        #: ``region.reuse`` when a freed region is recycled).
        self.bus = None
        #: Optional :class:`~repro.robust.BudgetMeter` (set by the
        #: owning MemoryModel); when attached, every reservation is
        #: charged against the run's allocation budget.
        self.meter = None
        self._cursors: dict[AllocKind, int] = {
            kind: address_map.region_base(kind) for kind in AllocKind
        }

    @staticmethod
    def _region(kind: AllocKind) -> AllocKind:
        """String literals live in the globals region (rodata)."""
        return AllocKind.GLOBAL if kind is AllocKind.STRING else kind

    def cursor(self, kind: AllocKind) -> int:
        return self._cursors[self._region(kind)]

    def rewind(self, kind: AllocKind, cursor: int) -> None:
        """Reset a region cursor (stack frame pop)."""
        self._cursors[self._region(kind)] = cursor

    def allocate(self, kind: AllocKind, size: int,
                 align: int) -> tuple[int, int]:
        """Reserve a region; returns ``(base, padded_size)``.

        The padded size and alignment guarantee an exactly representable
        capability (S3.2) and keep distinct allocations' capability
        footprints disjoint.  Heap requests first consult the policy's
        reuse pool (:meth:`_take_reusable`); everything else -- and any
        heap request the pool cannot satisfy -- bumps the region cursor.
        """
        region = self._region(kind)
        align2, size2 = representable_region(self.params, size, align)
        meter = self.meter
        if meter is not None:
            # Charge the *padded* size before moving the cursor so a
            # cut-off run leaves the region untouched past the cut.
            meter.charge_allocation(size2,
                                    f"{region.name.lower()} allocation")
        if region is AllocKind.HEAP:
            base = self._take_reusable(size2, align2)
            if base is not None:
                bus = self.bus
                if bus is not None:
                    bus.emit("region.reuse", region=region.name.lower(),
                             base=hex(base), size=size, padded_size=size2,
                             align=align2, policy=self.policy,
                             what=f"heap [{base:#x},+{size2}) reused for "
                                  f"{size} bytes ({self.policy} policy)")
                return base, size2
        cursor = self._cursors[region]
        if kind is AllocKind.STACK:
            base = _align_down(cursor - size2, align2)
            if base < 0:
                raise MemoryModelError("stack region exhausted")
            self._cursors[region] = base
        else:
            base = _align_up(cursor, align2)
            self._cursors[region] = base + size2
        bus = self.bus
        if bus is not None:
            bus.emit("region.reserve", region=region.name.lower(),
                     base=hex(base), size=size, padded_size=size2,
                     align=align2, policy=self.policy,
                     what=f"{region.name.lower()} [{base:#x},+{size2}) for "
                          f"{size} bytes (representability pad "
                          f"{size2 - size})")
        return base, size2

    # -- the policy surface -------------------------------------------------

    def release(self, alloc: "Allocation") -> None:
        """A heap allocation died (``free``/``realloc``).

        The bump policy never reuses freed regions, so this is a no-op;
        reusing policies record the capability footprint for recycling.
        """

    def _take_reusable(self, padded_size: int,
                       align: int) -> int | None:
        """A base address to recycle for a heap request, or ``None``."""
        return None


class BumpAllocator(AllocatorPolicy):
    """The historical default: freed heap regions are never reused.

    Kept as a distinct class (rather than an alias) so the registry and
    long-standing tests can continue to name it, and so its behaviour is
    pinned byte-identical to the pre-policy allocator.
    """

    policy = "bump"


class FreeListAllocator(AllocatorPolicy):
    """Size-class free lists with immediate reuse.

    ``free`` pushes the capability footprint onto a per-padded-size
    list; the next ``malloc`` whose padded size matches pops the most
    recently freed compatible region (LIFO, like glibc tcache/fastbins).
    A dangling capability therefore aliases the replacement object --
    the use-after-free behaviour conventional allocators exhibit and the
    reason temporal-safety work (revocation, quarantine) exists.
    """

    policy = "freelist"

    def __init__(self, address_map: AddressMap,
                 params: CompressionParams) -> None:
        super().__init__(address_map, params)
        #: padded capability size -> freed base addresses, oldest first.
        self._free: dict[int, list[int]] = {}

    def release(self, alloc: "Allocation") -> None:
        self._free.setdefault(alloc.cap_size, []).append(alloc.cap_base)

    def _take_reusable(self, padded_size: int,
                       align: int) -> int | None:
        bucket = self._free.get(padded_size)
        if not bucket:
            return None
        # LIFO, but only a base the request's alignment permits; the
        # scan is deterministic (most recent compatible entry wins).
        for i in range(len(bucket) - 1, -1, -1):
            if bucket[i] % align == 0:
                return bucket.pop(i)
        return None


class QuarantineAllocator(FreeListAllocator):
    """Free-list reuse delayed by a bounded FIFO quarantine.

    Models CHERIoT-style temporal safety: a freed region sits in
    quarantine (unreusable) until :data:`QUARANTINE_CAPACITY` younger
    frees have queued behind it, at which point the oldest entry
    graduates to the free list.  Composed with the ``revocation``
    Implementation flag this approximates the sweep-before-reuse
    guarantee; without revocation it merely *delays* the aliasing the
    ``freelist`` policy makes immediate.
    """

    policy = "quarantine"

    def __init__(self, address_map: AddressMap,
                 params: CompressionParams) -> None:
        super().__init__(address_map, params)
        #: FIFO of quarantined (cap_size, cap_base), oldest first.
        self._quarantine: list[tuple[int, int]] = []

    def release(self, alloc: "Allocation") -> None:
        self._quarantine.append((alloc.cap_size, alloc.cap_base))
        bus = self.bus
        if bus is not None:
            bus.emit("region.quarantine", region="heap",
                     base=hex(alloc.cap_base), padded_size=alloc.cap_size,
                     depth=len(self._quarantine), policy=self.policy,
                     what=f"heap [{alloc.cap_base:#x},+{alloc.cap_size}) "
                          f"quarantined ({len(self._quarantine)}/"
                          f"{QUARANTINE_CAPACITY})")
        while len(self._quarantine) > QUARANTINE_CAPACITY:
            size, base = self._quarantine.pop(0)
            self._free.setdefault(size, []).append(base)


#: The ``allocator`` axis registry: policy name -> class.
ALLOCATOR_POLICIES: dict[str, type[AllocatorPolicy]] = {
    BumpAllocator.policy: BumpAllocator,
    FreeListAllocator.policy: FreeListAllocator,
    QuarantineAllocator.policy: QuarantineAllocator,
}


def make_allocator(policy: str, address_map: AddressMap,
                   params: CompressionParams) -> AllocatorPolicy:
    """Instantiate the named allocator policy."""
    try:
        cls = ALLOCATOR_POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(ALLOCATOR_POLICIES))
        raise MemoryModelError(
            f"unknown allocator policy {policy!r} (known: {known})"
        ) from None
    return cls(address_map, params)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def _align_down(value: int, align: int) -> int:
    return value & ~(align - 1)
