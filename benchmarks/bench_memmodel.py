"""E7 -- memory-object-model microbenchmarks (harness health).

The paper reports no performance numbers (it is a semantics paper); these
measure the executable semantics itself so regressions in the oracle's
usability as "a test oracle for more aggressive compiler testing" (S7)
are visible.

Each substrate operation is costed on its own: typed loads and stores
(abstract and hardware mode, integer and capability, on both capability
formats), CHERI Concentrate encode/decode, heap allocate/release under
each allocator policy, and the byte-store paths off the typed fast
paths (a char-wise pointer copy, a partly overwritten capability, a
multi-page ``memset``, a function-designator allocation).  Every body checks its result, so

    python -m pytest benchmarks/bench_memmodel.py -q --benchmark-disable

runs each body once as a smoke test.
"""

from __future__ import annotations

import pytest

from repro.capability import CHERIOT, MORELLO, CompressedBounds
from repro.ctypes import ArrayT, IKind, INT, LONG, Pointer, UCHAR, UINT
from repro.impls.registry import CERBERUS_MAP, CHERIOT_MAP, CLANG_MORELLO_MAP
from repro.memory import (
    ALLOCATOR_POLICIES, IntegerValue, MemoryModel, Mode, MVInteger,
    MVPointer,
)
from repro.memory.allocation import AllocKind

ARCH_MAPS = {MORELLO.name: (MORELLO, CERBERUS_MAP),
             CHERIOT.name: (CHERIOT, CHERIOT_MAP)}


@pytest.fixture
def model():
    return MemoryModel(MORELLO, Mode.ABSTRACT, CERBERUS_MAP)


def test_bench_allocate_object(benchmark, model):
    benchmark(model.allocate_object, INT, AllocKind.STACK, "x")


def test_bench_load_store_int(benchmark, model):
    p = model.allocate_object(INT, AllocKind.STACK, "x")
    value = MVInteger(INT, IntegerValue.of_int(42))

    def op():
        model.store(INT, p, value)
        return model.load(INT, p)

    out = benchmark(op)
    assert out.ival.value() == 42


def test_bench_load_store_capability(benchmark, model):
    x = model.allocate_object(LONG, AllocKind.STACK, "x")
    slot = model.allocate_object(Pointer(LONG), AllocKind.STACK, "p")
    value = MVPointer(Pointer(LONG), x)

    def op():
        model.store(Pointer(LONG), slot, value)
        return model.load(Pointer(LONG), slot)

    out = benchmark(op)
    assert out.ptr.cap.tag


def test_bench_pointer_arith(benchmark, model):
    t = ArrayT(elem=INT, length=64)
    a = model.allocate_object(t, AllocKind.STACK, "a")
    benchmark(model.array_shift, a, INT, 63)


def test_bench_int_ptr_roundtrip(benchmark, model):
    x = model.allocate_object(INT, AllocKind.STACK, "x")

    def op():
        iv = model.ptr_to_int(x, IKind.UINTPTR)
        return model.int_to_ptr(iv, INT)

    out = benchmark(op)
    assert out.cap.tag


def test_bench_memcpy_capabilities(benchmark, model):
    t = ArrayT(elem=Pointer(INT), length=16)
    x = model.allocate_object(INT, AllocKind.STACK, "x")
    src = model.allocate_object(t, AllocKind.STACK, "src")
    dst = model.allocate_object(t, AllocKind.STACK, "dst")
    for i in range(16):
        slot = src.with_cap(src.cap.with_address(src.address + i * 16))
        model.store(Pointer(INT), slot, MVPointer(Pointer(INT), x))
    benchmark(model.memcpy, dst, src, 16 * 16)


def test_bench_interpreter_throughput(benchmark):
    """End-to-end: a small but non-trivial program through parse,
    (no) optimisation, and evaluation."""
    from repro.impls import CERBERUS
    src = """
#include <stdint.h>
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int main(void) {
  int a[32];
  for (int i = 0; i < 32; i++) a[i] = i;
  uintptr_t ip = (uintptr_t)a;
  int *p = (int*)(ip + 8 * sizeof(int));
  return sum(a, 32) + *p - 504;
}
"""
    out = benchmark(CERBERUS.run, src)
    assert out.ok


def test_bench_hardware_mode_overhead(benchmark):
    """Hardware mode skips provenance checks; it should not be slower."""
    from repro.impls import by_name
    src = """
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i++) a[i] = i;
  int s = 0;
  for (int i = 0; i < 64; i++) s += a[i];
  return s == 2016 ? 0 : 1;
}
"""
    impl = by_name("clang-morello-O0")
    out = benchmark(impl.run, src)
    assert out.ok


# ---------------------------------------------------------------------------
# Substrate operations, one at a time
# ---------------------------------------------------------------------------


@pytest.fixture
def hardware_model():
    return MemoryModel(MORELLO, Mode.HARDWARE, CLANG_MORELLO_MAP)


def _int_round_trip(model):
    p = model.allocate_object(INT, AllocKind.STACK, "x")
    value = MVInteger(INT, IntegerValue.of_int(42))

    def op():
        model.store(INT, p, value)
        return model.load(INT, p)
    return op


def _cap_round_trip(model):
    x = model.allocate_object(LONG, AllocKind.STACK, "x")
    slot = model.allocate_object(Pointer(LONG), AllocKind.STACK, "p")
    value = MVPointer(Pointer(LONG), x)

    def op():
        model.store(Pointer(LONG), slot, value)
        return model.load(Pointer(LONG), slot)
    return op, x


def test_bench_hardware_load_store_int(benchmark, hardware_model):
    out = benchmark(_int_round_trip(hardware_model))
    assert out.ival.value() == 42


def test_bench_hardware_load_store_capability(benchmark, hardware_model):
    op, x = _cap_round_trip(hardware_model)
    out = benchmark(op)
    assert out.ptr.cap == x.cap and out.ptr.cap.tag


@pytest.mark.parametrize("fmt", sorted(ARCH_MAPS))
def test_bench_load_store_capability_format(benchmark, fmt):
    arch, address_map = ARCH_MAPS[fmt]
    op, x = _cap_round_trip(MemoryModel(arch, Mode.ABSTRACT, address_map))
    out = benchmark(op)
    assert out.ptr.cap == x.cap and out.ptr.prov == x.prov


@pytest.mark.parametrize("fmt", sorted(ARCH_MAPS))
def test_bench_concentrate_encode(benchmark, fmt):
    params = ARCH_MAPS[fmt][0].compression
    bounds, exact = benchmark(CompressedBounds.encode, params, 0x12340, 3000)
    d = bounds.decode(0x12340)
    assert d.base <= 0x12340 and d.top >= 0x12340 + 3000
    assert exact == (d.base == 0x12340 and d.top == 0x12340 + 3000)


@pytest.mark.parametrize("fmt", sorted(ARCH_MAPS))
def test_bench_concentrate_decode(benchmark, fmt):
    params = ARCH_MAPS[fmt][0].compression
    bounds, _ = CompressedBounds.encode(params, 0x12340, 3000)
    d = benchmark(bounds.decode, 0x12340 + 1500)
    assert d == bounds.decode(0x12340)


@pytest.mark.parametrize("policy", sorted(ALLOCATOR_POLICIES))
def test_bench_allocate_release(benchmark, policy):
    """One ``malloc``/``free`` pair through the model and the policy."""
    model = MemoryModel(MORELLO, Mode.ABSTRACT, CERBERUS_MAP,
                        allocator=policy)

    def op():
        p = model.allocate_region(48)
        model.free(p)
        return p

    p = benchmark(op)
    assert p.cap.tag and p.cap.length >= 48
    assert not model.allocation_of(p).alive
    again = op().address
    if policy == "freelist":
        assert again == p.address       # LIFO reuse of the freed block
    else:
        assert again != p.address       # bump never, quarantine not yet


# ---------------------------------------------------------------------------
# Byte-store paths the typed round trips above never take
# ---------------------------------------------------------------------------


def _byte_ptr(ptr, offset=0):
    """``(unsigned char *)ptr + offset`` without the model's checks."""
    return ptr.with_cap(ptr.cap.with_address(ptr.address + offset))


def test_bench_charwise_pointer_copy(benchmark, model):
    """The S3.5 loop copy: a pointer copied one ``unsigned char`` at a
    time keeps its provenance (rich bytes, the byte-wise path)."""
    size = model.arch.capability_size
    x = model.allocate_object(LONG, AllocKind.STACK, "x")
    src = model.allocate_object(Pointer(LONG), AllocKind.STACK, "src")
    dst = model.allocate_object(Pointer(LONG), AllocKind.STACK, "dst")
    model.store(Pointer(LONG), src, MVPointer(Pointer(LONG), x))
    src_bytes = [_byte_ptr(src, i) for i in range(size)]
    dst_bytes = [_byte_ptr(dst, i) for i in range(size)]

    def op():
        for s, d in zip(src_bytes, dst_bytes):
            model.store(UCHAR, d, model.load(UCHAR, s))
        return model.load(Pointer(LONG), dst)

    out = benchmark(op)
    assert out.ptr.prov == x.prov and out.ptr.address == x.address


def test_bench_partly_overwritten_capability(benchmark, model):
    """A capability store, one byte overwritten, then a reload: the
    slot is no longer whole, so the load reads byte-wise and the
    provenance is lost."""
    x = model.allocate_object(LONG, AllocKind.STACK, "x")
    slot = model.allocate_object(Pointer(LONG), AllocKind.STACK, "p")
    value = MVPointer(Pointer(LONG), x)
    byte = MVInteger(UCHAR, IntegerValue.of_int(0))
    third = _byte_ptr(slot, 3)

    def op():
        model.store(Pointer(LONG), slot, value)
        model.store(UCHAR, third, byte)
        return model.load(Pointer(LONG), slot)

    out = benchmark(op)
    assert out.ptr.prov.is_empty
    assert out.ptr.cap.ghost.tag_unspecified


def test_bench_memset_pages(benchmark, model):
    """``memset`` over a region spanning several 4 KiB pages."""
    n = 3 * 4096 + 100
    p = model.allocate_region(n)

    out = benchmark(model.memset, p, 0xAB, n)
    last = model.load(UCHAR, _byte_ptr(out, n - 1))
    assert last.ival.value() == 0xAB
    assert model.load(UINT, p).ival.value() == 0xABABABAB


def test_bench_allocate_function(benchmark, model):
    """A function designator: an allocation plus its sealed-entry code
    capability, derived from the memoised sentry."""
    out = benchmark(model.allocate_function, "f")
    assert out.cap.tag and out.cap.is_sealed and out.cap.length == 16
