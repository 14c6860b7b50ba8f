"""The CHERI C memory object model (S4.3).

State is the paper's ``mem_state = A x S x M`` with ``M = B x C``:

* ``A`` -- allocations (:mod:`repro.memory.allocation`);
* ``S`` -- PNVI-ae-udi bookkeeping: exposure flags live on allocations,
  symbolic (``iota``) provenances in :class:`~repro.memory.state.MemState`;
* ``B`` -- an address-indexed map of abstract bytes
  (:mod:`repro.memory.absbyte`), stored in pages
  (:mod:`repro.memory.state`);
* ``C`` -- per-capability-aligned-location tag + two-bit ghost state.

The operational interface -- allocate, kill, load, store, pointer
arithmetic, casts, memcpy and friends -- is
:class:`~repro.memory.model.MemoryModel`, which runs in either of two
modes (:class:`~repro.memory.model.Mode`): the *abstract machine* of the
paper's semantics (UB + ghost state) or *hardware* execution (traps,
real tag clearing) used by the simulated Clang/GCC implementations.
"""

from repro.memory.allocation import Allocation, AllocKind
from repro.memory.allocator import (
    ALLOCATOR_POLICIES,
    AllocatorPolicy,
    BumpAllocator,
    FreeListAllocator,
    QuarantineAllocator,
    make_allocator,
)
from repro.memory.invariants import CheckedMemoryModel, check_invariants
from repro.memory.absbyte import AbsByte
from repro.memory.model import MemoryModel, Mode
from repro.memory.provenance import Provenance
from repro.memory.state import MemState
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

__all__ = [
    "AbsByte", "Allocation", "AllocKind", "ALLOCATOR_POLICIES",
    "AllocatorPolicy", "BumpAllocator", "CheckedMemoryModel",
    "FreeListAllocator", "QuarantineAllocator", "check_invariants",
    "make_allocator", "IntegerValue", "MemoryModel",
    "MemoryValue", "MemState", "Mode", "MVArray", "MVInteger", "MVPointer",
    "MVStruct", "MVUnion", "MVUnspecified", "PointerValue", "Provenance",
]
