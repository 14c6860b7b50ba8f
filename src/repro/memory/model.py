"""The CHERI C memory object model (S4.3).

This is the Python rendering of the paper's Coq ``CheriMemory`` module:
allocation and deallocation, typed loads and stores with the full CHERI
check sequence (permissions, ghost tag, tag, bounds, then the PNVI
provenance checks), pointer arithmetic under the strict ISO rule (S3.2
option (a)), pointer/integer conversions with PNVI-ae exposure and udi
symbolic provenance, and the bulk operations (``memcpy`` et al.) with
capability-preserving semantics (S3.5).

Two execution modes share this one implementation:

* :attr:`Mode.ABSTRACT` -- the paper's abstract machine.  Violations are
  undefined behaviour (:class:`~repro.errors.UndefinedBehaviour` with the
  S4.2 catalogue); ghost state records representability excursions and
  representation-byte writes.
* :attr:`Mode.HARDWARE` -- what a CHERI CPU does: tags are really
  cleared, violations raise :class:`~repro.errors.CheriTrap`, there are
  no provenance or liveness checks (temporal safety is not guaranteed,
  S3 objective 3), and uninitialised memory reads as zero bytes.

The divergence between the two modes on the same program is exactly the
subject of the paper's S3 discussion and S5 experimental comparison.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.capability.abstract import Architecture, Capability
from repro.capability.ghost import GhostState
from repro.capability.permissions import Permission, PermissionSet
from repro.ctypes.layout import TargetLayout
from repro.ctypes.types import (
    ArrayT,
    CType,
    IKind,
    Integer,
    Pointer,
    StructT,
    UnionT,
)
from repro.errors import (
    CheriTrap,
    MemoryModelError,
    TrapKind,
    UB,
    UndefinedBehaviour,
)
from repro.memory.absbyte import AbsByte
from repro.memory.allocation import Allocation, AllocKind
from repro.memory.allocator import AddressMap
from repro.memory.options import (
    EqualityPolicy, OOBArithPolicy, PAPER_CHOICES, SemanticsOptions,
)
from repro.memory.provenance import Provenance, ProvKind
from repro.memory.state import CapMeta, MemState
from repro.memory.values import (
    IntegerValue,
    MemoryValue,
    MVArray,
    MVInteger,
    MVPointer,
    MVStruct,
    MVUnion,
    MVUnspecified,
    PointerValue,
)
from repro.obs.events import EventBus
from repro.reporting.capprint import format_capability

if TYPE_CHECKING:  # pragma: no cover - hints only (import cycle guard)
    from repro.robust.budget import BudgetMeter


#: The ghost state of a slot with no metadata, and of every hardware
#: capability (immutable, so shared).
_CLEAN_GHOST = GhostState()


class Mode(enum.Enum):
    ABSTRACT = "abstract"
    HARDWARE = "hardware"


#: Permissions granted to data allocations (intersected with the
#: architecture's available set; STORE/STORE_CAP dropped for const).
DATA_PERMS = PermissionSet.of(
    Permission.GLOBAL, Permission.LOAD, Permission.STORE,
    Permission.LOAD_CAP, Permission.STORE_CAP, Permission.STORE_LOCAL_CAP,
    Permission.MUTABLE_LOAD,
)

#: Data allocations of const objects lack write permission (S3.9).
CONST_PERMS = DATA_PERMS.without(
    Permission.STORE, Permission.STORE_CAP, Permission.STORE_LOCAL_CAP)

#: Permissions granted to function capabilities.
CODE_PERMS = PermissionSet.of(
    Permission.GLOBAL, Permission.LOAD, Permission.EXECUTE,
    Permission.LOAD_CAP, Permission.SYSTEM, Permission.EXECUTIVE,
)


class MemoryModel:
    """The memory object model interface (S4.3).

    One instance owns one :class:`~repro.memory.state.MemState` and is
    the only mutator of it.  ``subobject_bounds`` enables the stricter
    Clang sub-object mode (S3.8; off by default, matching the paper's
    "conservative" setting).
    """

    def __init__(self, arch: Architecture, mode: Mode,
                 address_map: AddressMap, *,
                 subobject_bounds: bool = False,
                 options: SemanticsOptions | None = None,
                 revocation: bool = False,
                 allocator: str = "bump",
                 bus: EventBus | None = None,
                 meter: "BudgetMeter | None" = None) -> None:
        self.arch = arch
        self.mode = mode
        #: ``mode is Mode.HARDWARE``, read on every access.
        self.hardware = mode is Mode.HARDWARE
        self.layout = TargetLayout(arch)
        self.state = MemState(arch, address_map, allocator)
        self.subobject_bounds = subobject_bounds
        self.options = options if options is not None else PAPER_CHOICES
        self.revocation = revocation
        #: Set by the first :meth:`_release_heap`.  Until then neither
        #: the allocator policy nor ``revocation`` has been read, so the
        #: run is the same under every value of either (the run memo's
        #: policy-blind key, :func:`repro.impls.config.memo_keys`).
        self.heap_released = False
        self.bus = bus
        self.state.allocator.bus = bus
        #: Resource governance (see :mod:`repro.robust`): the allocator
        #: charges every reservation against it and the interpreter
        #: flattens its step/deadline limits onto the hot path.
        self.meter = meter
        self.state.allocator.meter = meter
        # Every allocation's capability is one of these roots with its
        # bounds set; the roots are shared per architecture.
        self._data_root = arch.derived_root(DATA_PERMS)
        self._const_root = arch.derived_root(CONST_PERMS)
        self._code_root = arch.derived_root(CODE_PERMS)

    # ------------------------------------------------------------------
    # Error helpers
    # ------------------------------------------------------------------

    def _ub(self, ub: UB, detail: str = "", **ctx) -> UndefinedBehaviour:
        bus = self.bus
        if bus is not None:
            bus.emit("check.ub", ub=str(ub),
                     what=f"{ub}: {detail}" if detail else str(ub), **ctx)
        return UndefinedBehaviour(ub, detail)

    def _trap(self, kind: TrapKind, detail: str = "", **ctx) -> CheriTrap:
        bus = self.bus
        if bus is not None:
            bus.emit("check.trap", trap=str(kind),
                     what=f"{kind}: {detail}" if detail else str(kind), **ctx)
        return CheriTrap(kind, detail)

    def _fmt_cap(self, cap: Capability, prov: Provenance | None) -> str:
        """Appendix-A rendering respecting the mode (hardware output
        must not carry a provenance, see reporting.capprint)."""
        if self.hardware:
            return format_capability(cap, hardware=True)
        return format_capability(cap, prov)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_object(self, ctype: CType, kind: AllocKind, name: str = "",
                        *, readonly: bool = False,
                        align: int | None = None) -> PointerValue:
        """Create an object allocation and its bounded capability.

        "The (non-optimised) generated code for &x constructs a
        capability with bounds spanning exactly the footprint of the
        stack slot used for x" (S3.1).  The capability footprint may be
        padded for representability (S3.2); the *object* footprint (used
        by provenance checks) is exactly ``sizeof(ctype)``.
        """
        size = self.layout.sizeof(ctype)
        alignment = align if align is not None else self.layout.alignof(ctype)
        return self._allocate(size, alignment, kind, name, readonly,
                              ctype=ctype)

    def allocate_region(self, size: int, align: int | None = None,
                        name: str = "malloc") -> PointerValue:
        """``malloc``: an untyped heap allocation."""
        alignment = align if align is not None else self.arch.capability_size
        return self._allocate(size, alignment, AllocKind.HEAP, name,
                              readonly=False, ctype=None)

    def allocate_string(self, data: bytes, name: str = "") -> PointerValue:
        """A string literal: read-only static storage, NUL-terminated."""
        payload = data + b"\x00"
        ptr = self._allocate(len(payload), 1, AllocKind.STRING, name,
                             readonly=True, ctype=None)
        for i, b in enumerate(payload):
            self.state.write_byte(ptr.address + i, AbsByte(ptr.prov, b))
        return ptr

    def allocate_function(self, name: str) -> PointerValue:
        """A function designator: sealed-entry (sentry) code capability.

        CHERI C function pointers are sealed so they cannot be modified
        or dereferenced as data, only branched to (S2.1).
        """
        ptr = self._allocate(16, 16, AllocKind.FUNCTION, name,
                             readonly=True, ctype=None)
        # Code capabilities are derived from the PCC-like root, not from
        # a data capability: rebuild from the root with code permissions.
        return ptr.with_cap(self._code_root.sentry(ptr.cap.base,
                                                   ptr.cap.length))

    def _allocate(self, size: int, align: int, kind: AllocKind, name: str,
                  readonly: bool, ctype: CType | None) -> PointerValue:
        base, padded = self.state.allocator.allocate(kind, size, align)
        ident = self.state.fresh_allocation_id()
        alloc = Allocation(
            ident=ident, base=base, size=size, align=align, kind=kind,
            ctype=ctype, name=name, readonly=readonly,
            cap_base=base, cap_size=padded,
        )
        self.state.add_allocation(alloc)
        # Fresh objects have unspecified contents and no tags.
        self.state.reset_region(base, padded)

        # S3.9: capabilities to const objects lack write permission.
        root = self._const_root if readonly else self._data_root
        cap = root.bounded(base, size)
        if not cap.tag:
            raise MemoryModelError(
                f"allocator produced unrepresentable bounds at {base:#x}")
        prov = Provenance.alloc(ident)
        bus = self.bus
        if bus is not None:
            bus.emit("alloc.create", alloc=ident, name=name,
                     storage=kind.name.lower(), base=hex(base),
                     top=hex(base + size), size=size,
                     cap=self._fmt_cap(cap, prov),
                     what=f"@{ident} '{name}' {size} bytes "
                          f"{self._fmt_cap(cap, prov)}")
        return PointerValue(prov, cap)

    def kill_allocation(self, ident: int) -> None:
        """End of lifetime (scope exit); the allocation is retained dead
        so later uses are detectable as UB."""
        alloc = self.state.allocations.get(ident)
        if alloc is not None:
            alloc.alive = False
            bus = self.bus
            if bus is not None:
                bus.emit("alloc.kill", alloc=ident, name=alloc.name,
                         what=f"@{ident} '{alloc.name}' lifetime ended "
                              f"(scope exit)")

    def stack_mark(self) -> int:
        """Cursor save for a stack frame (pop with :meth:`stack_release`)."""
        return self.state.allocator.cursor(AllocKind.STACK)

    def stack_release(self, mark: int) -> None:
        self.state.allocator.rewind(AllocKind.STACK, mark)

    def free(self, ptr: PointerValue) -> None:
        """``free``: kill a heap allocation.

        Abstract machine: the pointer must carry the provenance of a live
        heap allocation and point at its start (UB otherwise).  Hardware
        mode performs the allocator's address lookup only -- double frees
        and wild frees are *not* reliably detected, which is why temporal
        errors survive on CHERI without revocation (S3.11).
        """
        if ptr.is_null():
            return
        if self.hardware:
            alloc = self._live_heap_block_at(ptr.address)
            if alloc is not None:
                self._release_heap(alloc)
            return
        alloc = self._prov_allocation(ptr)
        if alloc is None or alloc.kind is not AllocKind.HEAP:
            raise self._ub(UB.FREE_NON_MATCHING,
                           f"free of {ptr.address:#x}",
                           **self._prov_ctx(ptr))
        if not alloc.alive:
            raise self._ub(UB.DOUBLE_FREE, f"free of {ptr.address:#x}",
                           alloc=alloc.ident)
        if ptr.address != alloc.base:
            raise self._ub(UB.FREE_NON_MATCHING,
                           "free of interior pointer", alloc=alloc.ident)
        self._release_heap(alloc)

    def _live_heap_block_at(self, address: int) -> Allocation | None:
        """Hardware ``free``/``realloc``: the allocator's address lookup."""
        for alloc in self.state.allocations.values():
            if (alloc.kind is AllocKind.HEAP and alloc.alive
                    and alloc.base == address):
                return alloc
        return None

    def _release_heap(self, alloc: Allocation) -> None:
        """End a heap block's lifetime (``free``, and ``realloc``'s old
        block): kill it, return it to the allocator, record the free,
        and sweep stale capabilities when the implementation revokes.
        Revocation is a hardware mechanism; the abstract machine's
        liveness check (1f) already makes every later use UB.

        This is the one place that reads ``revocation`` and hands a
        region to the allocator policy (``release``); until it runs,
        every policy's ``allocate`` bumps the same cursors.  It marks
        :attr:`heap_released`."""
        self.heap_released = True
        alloc.alive = False
        self.state.allocator.release(alloc)
        self._emit_free(alloc)
        if self.revocation and self.hardware:
            self._revoke_region(alloc.base, alloc.top)

    def _emit_free(self, alloc: Allocation) -> None:
        bus = self.bus
        if bus is not None:
            bus.emit("alloc.free", alloc=alloc.ident, name=alloc.name,
                     what=f"@{alloc.ident} freed "
                          f"[{alloc.base:#x},{alloc.top:#x})")

    def _prov_ctx(self, ptr: PointerValue) -> dict:
        """Event-payload keys identifying a pointer's provenance (the
        explainer's causal-chain join keys)."""
        prov = ptr.prov
        if prov.kind is ProvKind.ALLOC:
            return {"alloc": prov.ident}
        if prov.is_symbolic:
            return {"iota": prov.ident}
        return {}

    def realloc(self, ptr: PointerValue, new_size: int) -> PointerValue:
        """``realloc``: new region, contents copied, old region killed."""
        if ptr.is_null():
            return self.allocate_region(new_size, name="realloc")
        if not self.hardware:
            alloc = self._prov_allocation(ptr)
            if (alloc is None or alloc.kind is not AllocKind.HEAP
                    or ptr.address != alloc.base):
                raise self._ub(UB.FREE_NON_MATCHING, "realloc of non-heap")
            if not alloc.alive:
                raise self._ub(UB.DOUBLE_FREE, "realloc after free")
        else:
            alloc = self._live_heap_block_at(ptr.address)
            if alloc is None:
                return self.allocate_region(new_size, name="realloc")
        new_ptr = self.allocate_region(new_size, name="realloc")
        count = min(alloc.size, new_size)
        self._raw_copy(new_ptr.address, ptr.address, count)
        self._release_heap(alloc)
        return new_ptr

    def _revoke_region(self, base: int, top: int) -> None:
        """Load-barrier-style revocation sweep (S3.11 footnote / S5.4).

        CHERIoT (and Cornucopia for CheriBSD) provide temporal safety by
        invalidating every stored capability whose bounds overlap a
        freed region.  We model the post-sweep state directly: any
        tagged in-memory capability into ``[base, top)`` loses its tag.
        """
        cleared = 0
        for slot, meta in self.state.capmeta.items():
            if not meta.tag:
                continue
            cap = self.arch.decode(self.state.slot_bytes(slot), True)
            bounds = cap.decoded()
            if bounds.base < top and bounds.top > base:
                meta.tag = False
                cleared += 1
        bus = self.bus
        if bus is not None:
            bus.emit("alloc.revoke", base=hex(base), top=hex(top),
                     cleared=cleared,
                     what=f"revocation sweep over [{base:#x},{top:#x}) "
                          f"cleared {cleared} stored tag(s)")

    # ------------------------------------------------------------------
    # The access check (S4.3 bounds_check / load rule)
    # ------------------------------------------------------------------

    def _check_access(self, ptr: PointerValue, size: int, *,
                      store: bool, need_cap_perm: bool = False,
                      initialising: bool = False) -> Allocation | None:
        """The full check sequence before any memory access.

        Hardware mode checks what the CPU checks (tag, seal, permission,
        bounds); the abstract machine additionally enforces the ghost and
        provenance conditions of the paper's load/store rules.

        The capability checks (:meth:`_check_capability`) read only the
        frozen capability and the access's shape, so a pass is memoised
        on the capability.  The checks that read mutable state --
        provenance resolution, (1f) liveness, (1g) footprint and
        write-to-const -- run on every access.
        """
        cap = ptr.cap
        hardware = self.hardware
        shape = (hardware, size, store, initialising)
        passed = cap.passed_checks()
        if shape not in passed:
            self._check_capability(ptr, size, store, initialising)
            passed.add(shape)
        op = "store" if store else "load"
        if hardware:
            bus = self.bus
            if bus is not None:
                bus.emit("check.access", op=op, addr=hex(cap.address),
                         size=size,
                         what=f"{op} [{cap.address:#x},+{size}) ok")
            return None

        alloc = self._resolve_for_access(ptr, size)
        if alloc is None:
            raise self._ub(UB.EMPTY_PROVENANCE_ACCESS,
                           f"access at {cap.address:#x}",
                           **self._prov_ctx(ptr))
        if not alloc.alive:                                        # (1f)
            raise self._ub(UB.ACCESS_DEAD_ALLOCATION,
                           f"allocation @{alloc.ident} is dead",
                           alloc=alloc.ident)
        if not alloc.footprint_contains(cap.address, size):        # (1g)
            raise self._ub(
                UB.ACCESS_OUT_OF_BOUNDS,
                f"[{cap.address:#x},+{size}) outside allocation "
                f"@{alloc.ident} [{alloc.base:#x},{alloc.top:#x})",
                alloc=alloc.ident)
        if store and alloc.readonly and not initialising:
            raise self._ub(UB.WRITE_TO_CONST, alloc.name, alloc=alloc.ident)
        bus = self.bus
        if bus is not None:
            bus.emit("check.access", op=op, addr=hex(cap.address), size=size,
                     alloc=alloc.ident,
                     what=f"{op} [{cap.address:#x},+{size}) ok "
                          f"via @{alloc.ident}")
        return alloc

    def _check_capability(self, ptr: PointerValue, size: int, store: bool,
                          initialising: bool) -> None:
        """The checks that depend on the capability alone; raises the
        first failure.  A pure function of the capability and ``(mode,
        size, store, initialising)``."""
        cap = ptr.cap
        perm = Permission.STORE if store else Permission.LOAD
        if self.hardware:
            if not cap.tag:
                raise self._trap(
                    TrapKind.TAG_VIOLATION,
                    f"access via untagged cap at {cap.address:#x}")
            if cap.is_sealed:
                raise self._trap(
                    TrapKind.SEAL_VIOLATION,
                    f"access via sealed cap at {cap.address:#x}")
            if not cap.has_perm(perm) and not initialising:
                raise self._trap(TrapKind.PERMISSION_VIOLATION,
                                 f"missing {perm.name}")
            if not cap.in_bounds(cap.address, size):
                d = cap.decoded()
                raise self._trap(
                    TrapKind.BOUNDS_VIOLATION,
                    f"[{cap.address:#x},+{size}) outside "
                    f"[{d.base:#x},{d.top:#x})")
            return

        # -- abstract machine ---------------------------------------------
        # Check order mirrors hardware fault priority (tag before
        # permissions), so an untagged NULL-derived capability -- which
        # also has no permissions -- reports UB_CHERI_InvalidCap.
        if cap.is_null():
            raise self._ub(UB.NULL_DEREFERENCE)
        if cap.ghost.tag_unspecified or cap.ghost.bounds_unspecified:  # (1c)
            raise self._ub(UB.CHERI_UNDEFINED_TAG,
                           "capability with unspecified ghost state",
                           **self._prov_ctx(ptr))
        if not cap.tag:                                            # (1d)
            raise self._ub(UB.CHERI_INVALID_CAP,
                           f"untagged cap at {cap.address:#x}",
                           **self._prov_ctx(ptr))
        if cap.is_sealed:
            raise self._ub(UB.CHERI_INVALID_CAP, "sealed capability",
                           **self._prov_ctx(ptr))
        if not cap.has_perm(perm) and not initialising:            # (1b)
            raise self._ub(UB.CHERI_INSUFFICIENT_PERMISSIONS,
                           f"missing {perm.name}", **self._prov_ctx(ptr))
        if not cap.in_bounds(cap.address, size):                   # (1e)
            d = cap.decoded()
            raise self._ub(
                UB.CHERI_BOUNDS_VIOLATION,
                f"[{cap.address:#x},+{size}) outside [{d.base:#x},{d.top:#x})",
                **self._prov_ctx(ptr))

    def _prov_allocation(self, ptr: PointerValue) -> Allocation | None:
        """The allocation identified by a (resolved) provenance."""
        prov = ptr.prov
        if prov.kind is ProvKind.ALLOC:
            return self.state.allocations.get(prov.ident)
        if prov.is_symbolic:
            cands = self.state.iota_candidates(prov.ident)
            if len(cands) == 1:
                return self.state.allocations.get(cands[0])
        return None

    def _resolve_for_access(self, ptr: PointerValue,
                            size: int) -> Allocation | None:
        """Resolve symbolic (udi) provenance at first use (S2.3)."""
        prov = ptr.prov
        if prov.kind is ProvKind.ALLOC:
            return self.state.allocations.get(prov.ident)
        if prov.is_symbolic:
            cands = self.state.iota_candidates(prov.ident)
            viable = [i for i in cands
                      if (a := self.state.allocations.get(i)) is not None
                      and a.alive
                      and a.footprint_contains(ptr.address, size)]
            if len(viable) >= 1:
                self._resolve_iota(prov.ident, viable[0], cands)
                return self.state.allocations[viable[0]]
            return None
        return None

    def _resolve_iota(self, iota_id: int, ident: int,
                      cands: tuple[int, ...]) -> None:
        """Collapse a symbolic provenance at first use (S2.3 udi)."""
        self.state.resolve_iota(iota_id, ident)
        bus = self.bus
        if bus is not None and len(cands) > 1:
            # Only a genuine collapse is an event; later uses of an
            # already-resolved iota re-derive the same singleton.
            bus.emit("prov.iota_resolve", iota=iota_id, chosen=ident,
                     candidates=list(cands),
                     what=f"@iota{iota_id} {tuple(cands)} resolved to "
                          f"@{ident} at first use")

    # ------------------------------------------------------------------
    # Typed load / store
    # ------------------------------------------------------------------

    def load(self, ctype: CType, ptr: PointerValue) -> MemoryValue:
        """The ``load`` rule of S4.3."""
        size, is_cap, _ = self.layout.access_plan(ctype)
        if is_cap:
            self._check_cap_align(ptr.address)
        self._check_access(ptr, size, store=False)
        value = self._decode_value(ctype, ptr.address, via=ptr.cap)
        bus = self.bus
        if bus is not None:
            bus.emit("mem.load", addr=hex(ptr.address), size=size,
                     ctype=str(ctype), **self._prov_ctx(ptr),
                     what=f"load {ctype} at {ptr.address:#x}")
        return value

    def store(self, ctype: CType, ptr: PointerValue, value: MemoryValue,
              *, initialising: bool = False) -> None:
        size, is_cap, _ = self.layout.access_plan(ctype)
        if is_cap:
            self._check_cap_align(ptr.address)
        self._check_access(ptr, size, store=True, initialising=initialising)
        self._encode_value(ctype, ptr.address, value, via=ptr.cap)
        bus = self.bus
        if bus is not None:
            bus.emit("mem.store", addr=hex(ptr.address), size=size,
                     ctype=str(ctype), **self._prov_ctx(ptr),
                     what=f"store {ctype} at {ptr.address:#x}")

    def _check_cap_align(self, addr: int) -> None:
        """Capability-sized accesses must be capability-aligned; hardware
        raises an alignment abort, the abstract machine flags UB."""
        if addr % self.arch.capability_size == 0:
            return
        if self.hardware:
            raise self._trap(TrapKind.SIGSEGV,
                             f"misaligned capability access at {addr:#x}")
        raise self._ub(UB.MISALIGNED_ACCESS,
                       f"capability access at {addr:#x}")

    # -- decoding (the ``abst`` function) ----------------------------------

    def _decode_value(self, ctype: CType, addr: int, *,
                      via: Capability | None) -> MemoryValue:
        _, is_cap, is_int = self.layout.access_plan(ctype)
        if is_cap:
            return self._decode_capability(ctype, addr, via=via)
        if is_int:
            return self._decode_integer(ctype, addr)
        if isinstance(ctype, ArrayT):
            esize = self.layout.sizeof(ctype.elem)
            elems = tuple(
                self._decode_value(ctype.elem, addr + i * esize, via=via)
                for i in range(ctype.length))
            return MVArray(ctype, elems)
        if isinstance(ctype, UnionT):
            # Reading a whole union yields its bytes through the first
            # member's view; the frontend reads members individually.
            raise MemoryModelError("whole-union load is not used")
        if isinstance(ctype, StructT):
            members = tuple(
                (f.name, self._decode_value(f.ctype, addr + f.offset, via=via))
                for f in self.layout.struct_fields(ctype))
            return MVStruct(ctype, members)
        raise MemoryModelError(f"load at unhandled type {ctype}")

    def _decode_integer(self, ctype: Integer, addr: int) -> MemoryValue:
        kind = ctype.kind
        size = self.layout.int_size(kind)
        data = self.state.plain_bytes(addr, size)
        if data is not None:
            # Plain bytes: no provenance to keep or expose.
            value = self.layout.wrap(kind, int.from_bytes(data, "little"))
            return MVInteger(ctype, IntegerValue.of_int(value))
        read = self.state.read_byte
        raw = [read(a) for a in range(addr, addr + size)]
        values = [b.value for b in raw]
        if None in values:
            if not self.hardware:
                return MVUnspecified(ctype)
            values = [v or 0 for v in values]
        value = int.from_bytes(bytes(values), "little")
        value = self.layout.wrap(kind, value)
        ival = IntegerValue.of_int(value)
        if size == 1 and not raw[0].prov.is_empty:
            # Keep byte identity so char-wise pointer copies round-trip
            # their provenance (PNVI; the S3.5 loop-copy example).
            ival = IntegerValue(num=value, prov=raw[0].prov)
        self._expose_bytes(raw)
        return MVInteger(ctype, ival)

    def _decode_capability(self, ctype: CType, addr: int, *,
                           via: Capability | None) -> MemoryValue:
        stored = self.state.stored_capability(addr)
        if stored is not None:
            # Every byte is the stored capability's own, in order: the
            # representation is coherent and carries the slot provenance.
            data, prov = stored
            raw = None
        else:
            data, raw = self._capability_bytes(addr)
            if data is None:
                return MVUnspecified(ctype)
            prov = self._bytes_provenance(raw)
        meta = self.state.capmeta.get(addr)
        if meta is None:
            tag, ghost = False, _CLEAN_GHOST
        else:
            tag, ghost = meta.tag, meta.ghost
        if self.hardware:
            ghost = _CLEAN_GHOST
        # Loading a capability through a capability lacking LOAD_CAP
        # strips the tag rather than trapping.
        if via is not None and tag and not via.has_perm(Permission.LOAD_CAP):
            tag = False
        cap = self.arch.decode(data, tag, ghost)
        if isinstance(ctype, Integer):
            # (u)intptr_t: the S4.3 integer_value (B x Cap) case.
            if raw is None:
                if prov.kind is ProvKind.ALLOC and not self.hardware:
                    self._expose(prov.ident, "pointer bytes read at "
                                             "integer type")
            else:
                self._expose_bytes(raw)
            return MVInteger(ctype, IntegerValue.of_cap(
                cap, ctype.is_signed, prov))
        return MVPointer(ctype, PointerValue(prov, cap))

    def _capability_bytes(self, addr: int
                          ) -> tuple[bytes | None, list[AbsByte]]:
        """The byte-wise read of a capability representation: its data
        (``None`` when wholly unspecified in the abstract machine) and
        the abstract bytes."""
        size = self.arch.capability_size
        read = self.state.read_byte
        raw = [read(a) for a in range(addr, addr + size)]
        values = [b.value for b in raw]
        if None in values:
            if not self.hardware:
                if values.count(None) == size:
                    return None, raw
                # Partially-overwritten capability representation:
                # decoding the stored representation fails (ISO UB012,
                # S4.2).
                raise self._ub(UB.READ_TRAP_REPRESENTATION,
                               f"partial capability at {addr:#x}")
            values = [v or 0 for v in values]
        return bytes(values), raw

    def _bytes_provenance(self, raw: list[AbsByte]) -> Provenance:
        """The ``abst`` provenance-coherence rule: a pointer read back
        bytewise carries its provenance only if every byte agrees and the
        byte indices form the original sequence."""
        first = raw[0].prov
        if first.is_empty:
            return Provenance.empty()
        for i, b in enumerate(raw):
            if b.prov is not first and b.prov != first:
                return Provenance.empty()
            if b.index is not None and b.index != i:
                return Provenance.empty()
        return first

    def _expose_bytes(self, raw: list[AbsByte]) -> None:
        """Reading pointer bytes at integer type exposes the allocations
        (the ``expose(A, I_tainted)`` step of the S4.3 load rule)."""
        if self.hardware:
            return
        seen: set[int] = set()
        for b in raw:
            if b.prov.kind is ProvKind.ALLOC and b.prov.ident not in seen:
                seen.add(b.prov.ident)
                self._expose(b.prov.ident, "pointer bytes read at "
                                           "integer type")

    def _expose(self, ident: int, why: str) -> None:
        """PNVI-ae exposure with its event."""
        alloc = self.state.allocations.get(ident)
        already = alloc is not None and alloc.exposed
        self.state.expose(ident)
        bus = self.bus
        if bus is not None and not already:
            bus.emit("prov.expose", alloc=ident,
                     what=f"@{ident} exposed ({why})")

    # -- encoding ---------------------------------------------------------

    def _encode_value(self, ctype: CType, addr: int, value: MemoryValue, *,
                      via: Capability | None) -> None:
        size, is_cap, is_int = self.layout.access_plan(ctype)
        if isinstance(value, MVUnspecified):
            self.state.clear_bytes(addr, size)
            self.state.taint_capmeta(addr, size, self.hardware)
            return
        if is_cap:
            self._encode_capability(ctype, addr, value, via=via)
            return
        if is_int:
            self._encode_integer(ctype, addr, value)
            return
        if isinstance(ctype, ArrayT):
            if not isinstance(value, MVArray):
                raise MemoryModelError("array store needs MVArray")
            esize = self.layout.sizeof(ctype.elem)
            for i, elem in enumerate(value.elems):
                self._encode_value(ctype.elem, addr + i * esize, elem,
                                   via=via)
            return
        if isinstance(ctype, UnionT):
            if not isinstance(value, MVUnion):
                raise MemoryModelError("union store needs MVUnion")
            if value.value is not None:
                member_t = ctype.field_type(value.active)
                self._encode_value(member_t, addr, value.value, via=via)
            return
        if isinstance(ctype, StructT):
            if not isinstance(value, MVStruct):
                raise MemoryModelError("struct store needs MVStruct")
            for f in self.layout.struct_fields(ctype):
                self._encode_value(f.ctype, addr + f.offset,
                                   value.member(f.name), via=via)
            return
        raise MemoryModelError(f"store at unhandled type {ctype}")

    def _encode_integer(self, ctype: Integer, addr: int,
                        value: MemoryValue) -> None:
        if not isinstance(value, MVInteger):
            raise MemoryModelError(f"integer store needs MVInteger, "
                                   f"got {type(value).__name__}")
        size = self.layout.int_size(ctype.kind)
        ival = value.ival
        num = self.layout.wrap(ctype.kind, ival.value())
        data = (num & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        copied_cap_byte = (size == 1 and not ival.prov.is_empty
                           and ival.cap is None)
        if copied_cap_byte:
            # A char value read from a pointer representation keeps its
            # provenance through the copy (S3.5 loop example).
            self.state.write_byte(addr, AbsByte(ival.prov, data[0]))
        else:
            self.state.write_plain(addr, data)
        self._taint_after_data_write(addr, size, copied_cap_byte)

    def _taint_after_data_write(self, addr: int, size: int,
                                copied_cap_byte: bool) -> None:
        """Non-capability writes invalidate overlapped tags.

        Hardware clears them; the abstract machine marks previously-set
        tags unspecified (S3.5).  Additionally, a byte that was itself
        copied out of a capability representation leaves the destination
        slot tag-*unspecified* rather than determinately cleared, so that
        loop-to-memcpy optimisation (which would preserve the tag) stays
        sound.
        """
        bus = self.bus
        if bus is not None and not self.hardware:
            hit = [slot for slot in self.state.cap_slots(addr, size)
                   if (m := self.state.capmeta.get(slot)) is not None
                   and (m.tag or not m.ghost.tag_unspecified)]
            if hit or copied_cap_byte:
                bus.emit("ghost.set", ghost="tag?",
                         slots=[hex(s) for s in hit],
                         what=f"data write [{addr:#x},+{size}) made stored "
                              f"tag unspecified (S3.5)")
        self.state.taint_capmeta(addr, size, self.hardware)
        if copied_cap_byte and not self.hardware:
            for slot in self.state.cap_slots(addr, size):
                meta = self.state.capmeta.get(slot)
                if meta is None:
                    meta = CapMeta()
                    self.state.set_capmeta(slot, meta)
                meta.ghost = meta.ghost.with_tag_unspecified()

    def _encode_capability(self, ctype: CType, addr: int,
                           value: MemoryValue, *,
                           via: Capability | None) -> None:
        if isinstance(value, MVPointer):
            cap, prov = value.ptr.cap, value.ptr.prov
        elif isinstance(value, MVInteger):
            ival = value.ival
            if ival.cap is None:
                # A plain integer stored at (u)intptr_t type: the value
                # is a NULL-derived capability with that address.
                width = self.arch.address_width
                cap = self.arch.null_capability(ival.value()
                                                & ((1 << width) - 1))
                prov = Provenance.empty()
            else:
                cap, prov = ival.cap, ival.prov
        else:
            raise MemoryModelError("capability store needs pointer/integer")

        if cap.tag and via is not None and \
                not via.has_perm(Permission.STORE_CAP):
            if self.hardware:
                raise self._trap(
                    TrapKind.PERMISSION_VIOLATION,
                    "storing tagged capability without STORE_CAP")
            raise self._ub(UB.CHERI_INSUFFICIENT_PERMISSIONS,
                           "missing STORE_CAP")
        self.state.write_capability(addr, self.arch.encode(cap), prov)
        ghost = _CLEAN_GHOST if self.hardware else cap.ghost
        self.state.set_capmeta(addr, CapMeta(tag=cap.tag, ghost=ghost))

    # ------------------------------------------------------------------
    # Pointer arithmetic (S3.2 option (a): strict ISO)
    # ------------------------------------------------------------------

    def array_shift(self, ptr: PointerValue, elem: CType,
                    n: int) -> PointerValue:
        """``p + n`` at pointer type.

        Abstract machine: UB beyond [base, one-past] of the provenance
        allocation (ISO 6.5.6p8, kept for CHERI C by S3.2).  Hardware:
        unchecked capability arithmetic -- the tag is cleared if the new
        address leaves the representable region.
        """
        esize = self.layout.sizeof(elem)
        new_addr = ptr.address + n * esize
        bus = self.bus
        if self.hardware:
            masked = new_addr & self.arch.address_mask
            if bus is not None and n != 0:
                bus.emit("deriv.shift", frm=hex(ptr.address), to=hex(masked),
                         n=n, what=f"p+({n}): {ptr.address:#x} -> "
                                   f"{masked:#x} (unchecked)")
            return ptr.with_cap(ptr.cap.with_address(masked))

        if ptr.is_null():
            if n == 0:
                return ptr
            raise self._ub(UB.OUT_OF_BOUNDS_PTR_ARITH,
                           "arithmetic on null pointer")
        alloc = self._resolve_arith(ptr, new_addr)
        if alloc is None:
            raise self._ub(UB.OUT_OF_BOUNDS_PTR_ARITH,
                           "arithmetic on pointer with empty provenance",
                           **self._prov_ctx(ptr))
        if not alloc.alive:
            raise self._ub(UB.ACCESS_DEAD_ALLOCATION,
                           "arithmetic on pointer to dead allocation",
                           alloc=alloc.ident)
        self._check_arith_policy(ptr, alloc, new_addr)
        if bus is not None and n != 0:
            bus.emit("deriv.shift", alloc=alloc.ident, frm=hex(ptr.address),
                     to=hex(new_addr), n=n,
                     what=f"p+({n}): {ptr.address:#x} -> {new_addr:#x} "
                          f"within @{alloc.ident}")
        return ptr.with_cap(ptr.cap.with_address(new_addr))

    def _check_arith_policy(self, ptr: PointerValue, alloc: Allocation,
                            new_addr: int) -> None:
        """The S3.2 design options for pointer construction."""
        policy = self.options.oob_arith
        if policy is OOBArithPolicy.ISO_UB:
            if not alloc.in_range_or_one_past(new_addr):
                raise self._ub(
                    UB.OUT_OF_BOUNDS_PTR_ARITH,
                    f"{new_addr:#x} outside [{alloc.base:#x},"
                    f"{alloc.top:#x}] of allocation @{alloc.ident}",
                    alloc=alloc.ident)
            return
        if policy is OOBArithPolicy.PORTABLE_ENVELOPE:
            lo, hi = self.arch.portable_representable_limits(
                alloc.base, alloc.size)
            if not lo <= new_addr < hi:
                raise self._ub(
                    UB.OUT_OF_BOUNDS_PTR_ARITH,
                    f"{new_addr:#x} outside the portable envelope "
                    f"[{lo:#x},{hi:#x})", alloc=alloc.ident)
            return
        # ARCH_REPRESENTABLE: anything the encoding can express.
        if not ptr.cap.bounds_fields.is_representable(ptr.cap.address,
                                                      new_addr):
            raise self._ub(
                UB.OUT_OF_BOUNDS_PTR_ARITH,
                f"{new_addr:#x} outside the representable region",
                alloc=alloc.ident)

    def _resolve_arith(self, ptr: PointerValue,
                       new_addr: int) -> Allocation | None:
        prov = ptr.prov
        if prov.kind is ProvKind.ALLOC:
            return self.state.allocations.get(prov.ident)
        if prov.is_symbolic:
            cands = self.state.iota_candidates(prov.ident)
            viable = [i for i in cands
                      if (a := self.state.allocations.get(i)) is not None
                      and a.alive and a.in_range_or_one_past(new_addr)]
            if len(viable) == 1:
                self._resolve_iota(prov.ident, viable[0], cands)
                return self.state.allocations[viable[0]]
            if viable:
                return self.state.allocations[viable[0]]
            return None
        return None

    def member_shift(self, ptr: PointerValue, struct_t: StructT,
                     member: str, *, offset: int | None = None,
                     member_t: CType | None = None) -> PointerValue:
        """``&p->member``.  Sub-object bounds narrowing is off by default
        (S3.8: "the current default behaviour of CHERI C is to not
        enforce subobject bounds").

        ``offset``/``member_t`` let a caller holding the resolved
        layout (the compiled evaluator's per-site inline caches) skip
        re-deriving it; they must equal ``layout.offsetof(struct_t,
        member)`` / ``struct_t.field_type(member)``.
        """
        if offset is None:
            offset = self.layout.offsetof(struct_t, member)
        new_addr = ptr.address + offset
        cap = ptr.cap.with_address(new_addr)
        if self.subobject_bounds:
            if member_t is None:
                member_t = struct_t.field_type(member)
            cap, _ = cap.set_bounds(new_addr, self.layout.sizeof(member_t))
        bus = self.bus
        if bus is not None:
            bus.emit("deriv.member", member=member, offset=offset,
                     to=hex(new_addr), narrowed=self.subobject_bounds,
                     **self._prov_ctx(ptr),
                     what=f"&p->{member}: +{offset} -> {new_addr:#x}"
                          + (" (sub-object bounds)" if self.subobject_bounds
                             else ""))
        return ptr.with_cap(cap)

    # ------------------------------------------------------------------
    # Pointer comparisons (S3.6 option (3): address equality)
    # ------------------------------------------------------------------

    def eq(self, a: PointerValue, b: PointerValue) -> bool:
        """Pointer ``==`` under the configured S3.6 option.

        The default (the paper's choice, option 3) compares address
        fields only; options 1 and 2 -- the early CHERI C behaviour --
        compare representations with/without the tag.
        """
        policy = self.options.equality
        if policy is EqualityPolicy.ADDRESS_ONLY:
            return a.address == b.address
        if policy is EqualityPolicy.EXACT_WITH_TAGS:
            return a.cap.equal_exact(b.cap)
        return self.arch.encode(a.cap) == self.arch.encode(b.cap)

    def relational(self, op: str, a: PointerValue, b: PointerValue) -> bool:
        """``<``/``<=``/``>``/``>=``: same-provenance required (UB else)."""
        if not self.hardware:
            ida = self._effective_prov_id(a)
            idb = self._effective_prov_id(b)
            if ida is None or idb is None or ida != idb:
                raise self._ub(UB.PTR_RELATIONAL_DIFFERENT_PROVENANCE,
                               f"{a.address:#x} {op} {b.address:#x}")
        x, y = a.address, b.address
        return {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y}[op]

    def diff(self, a: PointerValue, b: PointerValue, elem: CType) -> int:
        """Pointer subtraction (ISO 6.5.6p9: same array required)."""
        if not self.hardware:
            ida = self._effective_prov_id(a)
            idb = self._effective_prov_id(b)
            if ida is None or idb is None or ida != idb:
                raise self._ub(UB.PTR_DIFF_DIFFERENT_PROVENANCE,
                               f"{a.address:#x} - {b.address:#x}")
        esize = self.layout.sizeof(elem)
        # Floor division: the rounding of a non-multiple distance is
        # implementation-defined.
        return (a.address - b.address) // esize

    def _effective_prov_id(self, ptr: PointerValue) -> int | None:
        prov = ptr.prov
        if prov.kind is ProvKind.ALLOC:
            return prov.ident
        if prov.is_symbolic:
            cands = self.state.iota_candidates(prov.ident)
            if len(cands) == 1:
                return cands[0]
            viable = [i for i in cands
                      if (a := self.state.allocations.get(i)) is not None
                      and a.alive and a.in_range_or_one_past(ptr.address)]
            if len(viable) == 1:
                self._resolve_iota(prov.ident, viable[0], cands)
                return viable[0]
        return None

    # ------------------------------------------------------------------
    # Pointer / integer conversions (S3.3, PNVI-ae-udi)
    # ------------------------------------------------------------------

    def null_pointer(self, address: int = 0) -> PointerValue:
        return PointerValue(Provenance.empty(),
                            self.arch.null_capability(address))

    def ptr_to_int(self, ptr: PointerValue, kind: IKind) -> IntegerValue:
        """Pointer-to-integer cast.

        To ``(u)intptr_t``: the capability is carried whole (no-op cast,
        S3.3).  To any other integer type: the address, truncated to the
        target's width.  Either way the allocation becomes *exposed*
        (PNVI-ae).
        """
        if not self.hardware and ptr.prov.kind is ProvKind.ALLOC:
            self._expose(ptr.prov.ident, "pointer-to-integer cast")
        if kind.is_capability_carrying:
            return IntegerValue.of_cap(ptr.cap, kind.is_signed, ptr.prov)
        return IntegerValue.of_int(self.layout.wrap(kind, ptr.address))

    def int_to_ptr(self, ival: IntegerValue,
                   pointee: CType) -> PointerValue:
        """Integer-to-pointer cast.

        From ``(u)intptr_t``: the capability is carried whole; the
        provenance is the carried one when still usable, else re-derived
        PNVI-ae style.  From a plain integer: a NULL-derived (untagged)
        capability -- on CHERI, integers cannot forge authority -- with
        PNVI-ae(-udi) provenance lookup among exposed allocations.
        """
        if ival.cap is not None:
            prov = ival.prov
            if prov.kind is ProvKind.ALLOC:
                alloc = self.state.allocations.get(prov.ident)
                if alloc is None:
                    prov = Provenance.empty()
            elif prov.is_empty and not self.hardware:
                prov = self._pnvi_lookup(ival.cap.address)
            return PointerValue(prov, ival.cap)
        addr = ival.value() & self.arch.address_mask
        if addr == 0:
            return self.null_pointer()
        prov = (Provenance.empty() if self.hardware
                else self._pnvi_lookup(addr))
        return PointerValue(prov, self.arch.null_capability(addr))

    def _pnvi_lookup(self, addr: int) -> Provenance:
        """PNVI-ae-udi provenance for an integer-sourced address."""
        cands = self.state.exposed_candidates(addr)
        bus = self.bus
        if not cands:
            if bus is not None:
                bus.emit("prov.lookup", addr=hex(addr), result="@empty",
                         what=f"{addr:#x} matches no exposed allocation: "
                              f"@empty")
            return Provenance.empty()
        if len(cands) == 1:
            ident = cands[0].ident
            if bus is not None:
                bus.emit("prov.lookup", addr=hex(addr), alloc=ident,
                         result=f"@{ident}",
                         what=f"{addr:#x} is inside exposed @{ident}")
            return Provenance.alloc(ident)
        # Boundary between two exposed allocations: defer (udi).
        idents = tuple(a.ident for a in cands)
        prov = self.state.fresh_iota(idents)
        if bus is not None:
            bus.emit("prov.iota_fresh", iota=prov.ident,
                     candidates=list(idents), addr=hex(addr),
                     what=f"{addr:#x} on the boundary of {idents}: fresh "
                          f"symbolic @iota{prov.ident} (udi)")
        return prov

    # ------------------------------------------------------------------
    # Bulk operations (S3.5: memcpy must preserve capabilities)
    # ------------------------------------------------------------------

    def memcpy(self, dest: PointerValue, src: PointerValue,
               n: int) -> PointerValue:
        """``memcpy`` "implemented with capability-sized and aligned
        accesses where possible, to preserve pointers" (S3.5)."""
        if n == 0:
            return dest
        self._check_access(src, n, store=False)
        self._check_access(dest, n, store=True)
        self._raw_copy(dest.address, src.address, n)
        bus = self.bus
        if bus is not None:
            bus.emit("mem.copy", dest=hex(dest.address),
                     src=hex(src.address), size=n,
                     what=f"memcpy {n} bytes {src.address:#x} -> "
                          f"{dest.address:#x}")
        return dest

    def _raw_copy(self, daddr: int, saddr: int, n: int) -> None:
        cap_size = self.arch.capability_size
        self.state.copy(daddr, saddr, n)
        # Capability metadata: whole aligned capability chunks carry
        # their tag+ghost across; any other destination slot the copy
        # touches is tainted like a data write.
        phase_match = (daddr - saddr) % cap_size == 0
        preserved: set[int] = set()
        if phase_match:
            first = _align_up(daddr, cap_size)
            slot = first
            while slot + cap_size <= daddr + n:
                src_slot = slot - daddr + saddr
                meta = self.state.capmeta_at(src_slot)
                self.state.set_capmeta(slot, CapMeta(meta.tag, meta.ghost))
                preserved.add(slot)
                slot += cap_size
        tainted: list[int] = []
        for slot in self.state.cap_slots(daddr, n):
            if slot not in preserved:
                meta = self.state.capmeta.get(slot)
                if meta is None:
                    continue
                if self.hardware:
                    meta.tag = False
                else:
                    meta.ghost = meta.ghost.with_tag_unspecified()
                    tainted.append(slot)
        bus = self.bus
        if bus is not None and tainted:
            bus.emit("ghost.set", ghost="tag?",
                     slots=[hex(s) for s in tainted],
                     what=f"unaligned copy into [{daddr:#x},+{n}) made "
                          f"stored tag unspecified (S3.5)")

    def memcmp(self, a: PointerValue, b: PointerValue, n: int) -> int:
        self._check_access(a, n, store=False)
        self._check_access(b, n, store=False)
        for i in range(n):
            xa = self.state.read_byte(a.address + i)
            xb = self.state.read_byte(b.address + i)
            if (xa.is_unspecified or xb.is_unspecified) and not self.hardware:
                raise self._ub(UB.READ_UNINITIALISED,
                               f"memcmp of uninitialised byte at +{i}")
            va, vb = xa.value or 0, xb.value or 0
            if va != vb:
                return -1 if va < vb else 1
        return 0

    def memset(self, dest: PointerValue, byte: int, n: int) -> PointerValue:
        if n == 0:
            return dest
        self._check_access(dest, n, store=True)
        self.state.fill(dest.address, n, byte & 0xFF)
        self.state.taint_capmeta(dest.address, n, self.hardware)
        bus = self.bus
        if bus is not None:
            bus.emit("mem.set", dest=hex(dest.address), size=n,
                     byte=byte & 0xFF,
                     what=f"memset {n} bytes at {dest.address:#x}")
        return dest

    # ------------------------------------------------------------------
    # Queries used by intrinsics and the pretty-printer
    # ------------------------------------------------------------------

    def effective_ghost(self, cap: Capability) -> GhostState:
        return cap.ghost

    def allocation_of(self, ptr: PointerValue) -> Allocation | None:
        return self._prov_allocation(ptr)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
