"""The paged byte store ``B`` against a plain ``dict[int, AbsByte]``.

:class:`~repro.memory.state.MemState` keeps ``B`` as 4 KiB pages of
values and kinds, a side table of rich bytes and one provenance per
stored capability slot.  Hypothesis drives it and a dictionary reference
with the same random operations -- single bytes, plain runs, capability
stores on both slot sizes, range clears, partial overwrites of a stored
capability and phase-shifted copies -- over a window that straddles a
page boundary, and requires every byte, the ordered ``items()`` and the
fast-path readers to agree.  The 94-case suite never crosses a page, so
this is the only coverage of those paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.capability import CHERIOT, MORELLO
from repro.impls.registry import CERBERUS_MAP, CHERIOT_MAP
from repro.memory.absbyte import AbsByte
from repro.memory.provenance import Provenance
from repro.memory.state import PAGE_SIZE, MemState

#: Addresses drawn around the boundary between pages 2 and 3.
LO = 3 * PAGE_SIZE - 48
HI = 3 * PAGE_SIZE + 48

PROVS = (Provenance.empty(), Provenance.alloc(1), Provenance.alloc(2),
         Provenance.symbolic(3))

ARCHES = {MORELLO.name: (MORELLO, CERBERUS_MAP),
          CHERIOT.name: (CHERIOT, CHERIOT_MAP)}

addrs = st.integers(LO, HI)
values = st.integers(0, 255)
abs_bytes = st.one_of(
    st.just(AbsByte.unspec()),
    values.map(AbsByte.plain),
    st.builds(AbsByte, st.sampled_from(PROVS), values,
              st.one_of(st.none(), st.integers(0, 15))),
)


class Reference:
    """``B`` as the dictionary it models: unspecified bytes are absent."""

    def __init__(self) -> None:
        self.bytes: dict[int, AbsByte] = {}

    def write(self, addr: int, byte: AbsByte) -> None:
        if byte == AbsByte.unspec():
            self.bytes.pop(addr, None)
        else:
            self.bytes[addr] = byte

    def read(self, addr: int) -> AbsByte:
        return self.bytes.get(addr, AbsByte.unspec())


def apply(op, state: MemState, ref: Reference, cap_size: int) -> None:
    name, *args = op
    if name == "byte":
        addr, byte = args
        state.write_byte(addr, byte)
        ref.write(addr, byte)
    elif name == "plain":
        addr, data = args
        state.write_plain(addr, data)
        for i, value in enumerate(data):
            ref.write(addr + i, AbsByte.plain(value))
    elif name == "cap":
        addr, data, prov = args
        # Aligned stores take the slot path; misaligned ones (a struct
        # at a misaligned address) fall back to rich bytes.
        data = data[:cap_size].ljust(cap_size, b"\0")
        state.write_capability(addr, data, prov)
        for i, value in enumerate(data):
            ref.write(addr + i, AbsByte(prov, value, i))
    elif name == "clear":
        addr, size = args
        state.clear_bytes(addr, size)
        for a in range(addr, addr + size):
            ref.write(a, AbsByte.unspec())
    elif name == "fill":
        addr, size, value = args
        state.fill(addr, size, value)
        for a in range(addr, addr + size):
            ref.write(a, AbsByte.plain(value))
    elif name == "copy":
        # ``memmove`` semantics: snapshot the source, then write.
        daddr, saddr, size = args
        state.copy(daddr, saddr, size)
        snapshot = [ref.read(saddr + i) for i in range(size)]
        for i, byte in enumerate(snapshot):
            ref.write(daddr + i, byte)
    else:  # pragma: no cover - strategy and dispatcher out of step
        raise AssertionError(name)


def aligned(cap_size: int):
    return addrs.map(lambda a: a & -cap_size)


def operations(cap_size: int):
    slot = st.one_of(aligned(cap_size), addrs)
    return st.one_of(
        st.tuples(st.just("byte"), addrs, abs_bytes),
        st.tuples(st.just("plain"), addrs, st.binary(min_size=1,
                                                     max_size=40)),
        st.tuples(st.just("cap"), slot, st.binary(min_size=cap_size,
                                                  max_size=cap_size),
                  st.sampled_from(PROVS)),
        # A small write into a slot: partly overwrites a stored
        # capability when one is there.
        st.tuples(st.just("plain"), aligned(cap_size).flatmap(
            lambda a: st.integers(a, a + cap_size - 1)),
            st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("clear"), addrs, st.integers(0, 64)),
        st.tuples(st.just("fill"), addrs, st.integers(0, 64), values),
        st.tuples(st.just("copy"), addrs, addrs, st.integers(0, 48)),
        # Phase-kept copies of whole slots (the capability-preserving
        # memcpy of S3.5) and their partial edges.
        st.tuples(st.just("copy"), aligned(cap_size), aligned(cap_size),
                  st.integers(0, 3 * cap_size)),
    )


def check_agrees(state: MemState, ref: Reference, cap_size: int) -> None:
    for addr in range(LO - 8, HI + 112):
        assert state.read_byte(addr) == ref.read(addr), hex(addr)
    assert list(state.items()) == sorted(ref.bytes.items())
    # Plain bytes read back as the interned objects.
    for addr, byte in state.items():
        if byte.index is None and byte.prov.is_empty:
            assert byte is AbsByte.plain(byte.value)
    # The rich side table holds live bytes only (no stale entries left
    # behind by overwrites and clears).
    assert all(state.read_byte(addr) is byte
               for addr, byte in state._rich.items())
    # Fast paths may decline, but never disagree with the bytes.
    for addr in range(LO - 8, HI + 64):
        for size in (1, 2, 4, 8):
            data = state.plain_bytes(addr, size)
            if data is not None:
                assert [AbsByte.plain(v) for v in data] == \
                    [ref.read(addr + i) for i in range(size)]
    for addr in range(LO & -cap_size, HI + 64, cap_size):
        stored = state.stored_capability(addr)
        if stored is not None:
            data, prov = stored
            assert [AbsByte(prov, v, i) for i, v in enumerate(data)] == \
                [ref.read(addr + i) for i in range(cap_size)]


@pytest.mark.parametrize("fmt", sorted(ARCHES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_paged_store_matches_dict_reference(fmt, data):
    arch, address_map = ARCHES[fmt]
    cap_size = arch.capability_size
    state = MemState(arch, address_map)
    ref = Reference()
    for op in data.draw(st.lists(operations(cap_size), max_size=25)):
        apply(op, state, ref, cap_size)
    check_agrees(state, ref, cap_size)


@pytest.mark.parametrize("fmt", sorted(ARCHES))
def test_whole_capability_round_trips_through_its_slot(fmt):
    arch, address_map = ARCHES[fmt]
    size = arch.capability_size
    state = MemState(arch, address_map)
    slot = 3 * PAGE_SIZE - size
    data = bytes(range(1, size + 1))
    prov = Provenance.alloc(7)
    state.write_capability(slot, data, prov)
    assert state.stored_capability(slot) == (data, prov)
    assert state.read_byte(slot + 2) == AbsByte(prov, 3, 2)
    state.write_plain(slot + 1, b"\xff")
    assert state.stored_capability(slot) is None
    assert state.read_byte(slot + 2) == AbsByte(prov, 3, 2)
    assert state.read_byte(slot + 1) is AbsByte.plain(0xFF)


def test_clearing_a_huge_region_touches_only_present_pages():
    state = MemState(MORELLO, CERBERUS_MAP)
    state.write_plain(0x10_0000, b"\x01\x02")
    state.clear_bytes(0, 1 << 40)
    assert list(state.items()) == []


@pytest.mark.parametrize("fmt", sorted(ARCHES))
def test_copying_part_of_a_slot_keeps_the_rest_of_the_destination(fmt):
    """A phase-kept copy that covers all but the last byte of a slot
    must not re-home the destination slot's remaining byte."""
    arch, address_map = ARCHES[fmt]
    size = arch.capability_size
    state = MemState(arch, address_map)
    src, dst = 2 * PAGE_SIZE, 2 * PAGE_SIZE + 4 * size
    old, new = Provenance.alloc(1), Provenance.alloc(2)
    state.write_capability(dst, bytes([0xAA]) * size, old)
    state.write_capability(src, bytes([0xBB]) * size, new)
    state.copy(dst, src, size - 1)
    assert [state.read_byte(dst + i) for i in range(size)] == \
        [AbsByte(new, 0xBB, i) for i in range(size - 1)] + \
        [AbsByte(old, 0xAA, size - 1)]
    assert state.stored_capability(dst) is None
    state.copy(dst, src, size)
    assert state.stored_capability(dst) == (bytes([0xBB]) * size, new)
