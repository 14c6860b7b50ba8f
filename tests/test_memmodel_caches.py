"""The memory model's hot-path caches leave the semantics unchanged.

Every cache here is a pure function of immutable inputs:

* decoded bounds carried by capability clones -- only across moves
  inside the representable window, and across metadata-only clones;
* memoised passes of the capability checks -- keyed by the access's
  ``(mode, size, store, initialising)``, never recording a failure;
* the per-architecture decode memo, derived allocation roots, per-type
  access plans and interned plain bytes;
* allocation bounds and function sentries memoised per root (fresh
  capabilities from packed bounds fields), encodings memoised per
  capability.

The UB-event tests pin the explainer's join keys now that the
provenance payload is built only on the raising branches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.capability import (
    CHERIOT,
    MORELLO,
    CompressedBounds,
    GhostState,
    OType,
    Permission,
    PermissionSet,
)
from repro.ctypes import ArrayT, INT, LONG, Pointer
from repro.ctypes.layout import TargetLayout
from repro.ctypes.types import CHAR, FuncT, IKind, Integer, StructT, VOID
from repro.errors import CheriTrap, CTypeError, TrapKind, UB, \
    UndefinedBehaviour
from repro.impls.registry import CERBERUS_MAP, CHERIOT_MAP
from repro.memory import IntegerValue, MemoryModel, Mode, MVInteger
from repro.memory.absbyte import AbsByte
from repro.memory.allocation import AllocKind
from repro.memory.model import CODE_PERMS, CONST_PERMS, DATA_PERMS
from repro.memory.provenance import Provenance
from repro.obs import EventBus, TraceRecorder

ARCHES = [MORELLO, CHERIOT]
MAPS = {MORELLO.name: CERBERUS_MAP, CHERIOT.name: CHERIOT_MAP}


def arch_ids(arch):
    return arch.name


@st.composite
def capabilities(draw, arch):
    """A capability with encoded bounds, its address anywhere in them,
    and its decoded-bounds memo filled (as after any access)."""
    max_addr = (1 << arch.address_width) - 1
    length = draw(st.one_of(
        st.integers(0, arch.compression.max_exact_length),
        st.integers(0, 1 << (arch.address_width // 2)),
        st.integers(0, max_addr)))
    base = draw(st.integers(0, max_addr - length))
    cap, _exact = arch.root_capability().set_bounds(base, length)
    offset = draw(st.integers(0, max(length - 1, 0)))
    cap = cap.with_address(base + offset)
    cap.decoded()
    return cap


@st.composite
def moves(draw, arch, cap):
    """A new address near the representable window's edges, or anywhere."""
    space = 1 << arch.address_width
    lo, hi = cap.representable_limits()
    edge = draw(st.sampled_from([lo, hi, cap.base, cap.top]))
    return draw(st.one_of(
        st.integers(edge - 2, edge + 2).map(lambda a: a % space),
        st.integers(0, space - 1)))


def assert_memo_is_fresh(cap):
    assert cap.decoded() == cap.bounds_fields.decode(cap.address)


# ---------------------------------------------------------------------------
# Decoded bounds shared by clones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_address_moves_decode_like_a_fresh_decode(arch, data):
    cap = data.draw(capabilities(arch))
    new_address = data.draw(moves(arch, cap))
    assert_memo_is_fresh(cap.with_address(new_address))
    assert_memo_is_fresh(cap.with_address_ghost(new_address))


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_unrepresentable_moves_do_not_inherit_the_memo(arch):
    cap, _ = arch.root_capability().set_bounds(0x10000, 16)
    cap.decoded()
    far = cap.address + (1 << (arch.address_width - 2))
    assert not cap.bounds_fields.is_representable(cap.address, far)
    for moved in (cap.with_address(far), cap.with_address_ghost(far)):
        assert "_decoded_memo" not in moved.__dict__
        assert_memo_is_fresh(moved)
    near = cap.with_address(cap.address + 8)
    assert near.__dict__["_decoded_memo"] is cap.decoded()


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_metadata_clones_decode_like_a_fresh_decode(arch, data):
    cap = data.draw(capabilities(arch))
    perm = data.draw(st.sampled_from(arch.perm_order))
    clones = [
        cap.with_tag(not cap.tag),
        cap.without_perms(perm),
        cap.with_perms_masked(PermissionSet.of(perm)),
        cap.sealed_with(OType.sentry()),
        cap.sealed_with(OType.sentry()).sealed_with(OType.user(1)),
        cap.sealed_with(OType.user(0)).unsealed(),
        cap.with_ghost(GhostState(True, False)),
        cap.merge_ghost(GhostState(False, True)),
    ]
    for clone in clones:
        assert clone.address == cap.address
        assert clone.bounds_fields is cap.bounds_fields
        assert_memo_is_fresh(clone)
        assert "_passed_memo" not in clone.__dict__


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_clones_equal_their_dataclass_construction(arch):
    cap, _ = arch.root_capability().set_bounds(0x4000, 64)
    clone = cap.without_perms(Permission.STORE).with_tag(False)
    assert clone == type(cap)(
        arch=arch, address=cap.address, bounds_fields=cap.bounds_fields,
        perms=cap.perms.without(Permission.STORE), otype=cap.otype,
        tag=False, ghost=cap.ghost)
    assert hash(clone) == hash(type(cap)(
        arch, cap.address, cap.bounds_fields,
        cap.perms.without(Permission.STORE), cap.otype, False, cap.ghost))


# ---------------------------------------------------------------------------
# Memoised capability checks
# ---------------------------------------------------------------------------


def fresh_model(arch, mode, bus=None):
    return MemoryModel(arch, mode, MAPS[arch.name], bus=bus)


def failure_kind(exc):
    if isinstance(exc, UndefinedBehaviour):
        return exc.ub
    assert isinstance(exc, CheriTrap)
    return exc.kind


BOUNDS_FAILURE = {Mode.ABSTRACT: UB.CHERI_BOUNDS_VIOLATION,
                  Mode.HARDWARE: TrapKind.BOUNDS_VIOLATION}
PERMISSION_FAILURE = {Mode.ABSTRACT: UB.CHERI_INSUFFICIENT_PERMISSIONS,
                      Mode.HARDWARE: TrapKind.PERMISSION_VIOLATION}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
@given(length=st.integers(4, 48), passed=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_a_memoised_pass_never_masks_another_access_shape(arch, mode,
                                                          length, passed):
    """A const object's capability passes a small load, then must still
    fail a wider load on bounds and any store on permission."""
    model = fresh_model(arch, mode)
    ptr = model.allocate_object(ArrayT(CHAR, length), AllocKind.GLOBAL,
                                "k", readonly=True)
    model.load(ArrayT(CHAR, passed), ptr)
    model.load(ArrayT(CHAR, passed), ptr)       # a memo hit
    assert (mode is Mode.HARDWARE, passed, False, False) \
        in ptr.cap.passed_checks()

    wide = ArrayT(CHAR, ptr.cap.length + 1)
    for _ in range(2):
        with pytest.raises((UndefinedBehaviour, CheriTrap)) as info:
            model.load(wide, ptr)
        assert failure_kind(info.value) is BOUNDS_FAILURE[mode]
        with pytest.raises((UndefinedBehaviour, CheriTrap)) as info:
            model.store(ArrayT(CHAR, passed), ptr,
                        model.load(ArrayT(CHAR, passed), ptr))
        assert failure_kind(info.value) is PERMISSION_FAILURE[mode]
    assert len(ptr.cap.passed_checks()) == 1

    # An initialising store skips the permission check, under its own key.
    model.store(ArrayT(CHAR, passed), ptr,
                model.load(ArrayT(CHAR, passed), ptr), initialising=True)
    assert (mode is Mode.HARDWARE, passed, True, True) \
        in ptr.cap.passed_checks()


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_a_4_byte_load_pass_keeps_16_byte_and_store_failures(arch, mode):
    model = fresh_model(arch, mode)
    ptr = model.allocate_object(INT, AllocKind.GLOBAL, "k", readonly=True)
    model.load(INT, ptr)
    with pytest.raises((UndefinedBehaviour, CheriTrap)) as info:
        model.load(ArrayT(CHAR, 16), ptr)
    assert failure_kind(info.value) is BOUNDS_FAILURE[mode]
    with pytest.raises((UndefinedBehaviour, CheriTrap)) as info:
        model.store(INT, ptr, MVInteger(INT, IntegerValue.of_int(1)))
    assert failure_kind(info.value) is PERMISSION_FAILURE[mode]


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_a_pass_in_one_mode_is_not_a_pass_in_the_other(arch):
    """Hardware does not check ghost state: its pass must not let a
    ghost-tainted capability through the abstract machine."""
    hardware = fresh_model(arch, Mode.HARDWARE)
    ptr = hardware.allocate_object(INT, AllocKind.STACK, "x")
    tainted = ptr.with_cap(ptr.cap.with_ghost(GhostState(True, False)))
    hardware.load(INT, tainted)
    abstract = fresh_model(arch, Mode.ABSTRACT)
    with pytest.raises(UndefinedBehaviour) as info:
        abstract.load(INT, tainted)
    assert info.value.ub is UB.CHERI_UNDEFINED_TAG


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_liveness_is_checked_on_every_access(arch):
    """The memo covers only the capability checks: a cached pass must
    not hide (1f) once the allocation dies."""
    model = fresh_model(arch, Mode.ABSTRACT)
    ptr = model.allocate_object(INT, AllocKind.STACK, "x")
    model.store(INT, ptr, MVInteger(INT, IntegerValue.of_int(1)))
    assert model.load(INT, ptr).ival.value() == 1
    model.kill_allocation(ptr.prov.ident)
    with pytest.raises(UndefinedBehaviour) as info:
        model.load(INT, ptr)
    assert info.value.ub is UB.ACCESS_DEAD_ALLOCATION


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_trace_emits_every_access_on_memo_hits(arch):
    for mode in Mode:
        bus = EventBus()
        recorder = TraceRecorder()
        recorder.attach(bus)
        model = fresh_model(arch, mode, bus=bus)
        ptr = model.allocate_object(INT, AllocKind.STACK, "x")
        value = MVInteger(INT, IntegerValue.of_int(3))
        for _ in range(3):
            model.store(INT, ptr, value)
            model.load(INT, ptr)
        checks = [e for e in recorder.events() if e.kind == "check.access"]
        assert [e.data["op"] for e in checks] == ["store", "load"] * 3


# ---------------------------------------------------------------------------
# UB-event join keys under the lazily built payload
# ---------------------------------------------------------------------------


def _ghost(model, ptr):
    return ptr.with_cap(ptr.cap.with_ghost(GhostState(True, False)))


def _untagged(model, ptr):
    return ptr.with_cap(ptr.cap.with_tag(False))


def _sealed(model, ptr):
    return ptr.with_cap(ptr.cap.sealed_with(OType.user(0)))


def _no_load(model, ptr):
    return ptr.with_cap(ptr.cap.without_perms(Permission.LOAD))


def _out_of_bounds(model, ptr):
    return ptr.with_cap(ptr.cap.with_address(ptr.cap.top))


def _no_allocation(model, ptr):
    """Provenance that resolves to no live allocation."""
    if ptr.prov.is_symbolic:
        for ident in model.state.iota_candidates(ptr.prov.ident):
            model.kill_allocation(ident)
        return ptr
    return ptr.with_prov(Provenance.alloc(10_000))


UB_CHECKS = {
    "ghost": (_ghost, UB.CHERI_UNDEFINED_TAG),
    "untagged": (_untagged, UB.CHERI_INVALID_CAP),
    "sealed": (_sealed, UB.CHERI_INVALID_CAP),
    "permission": (_no_load, UB.CHERI_INSUFFICIENT_PERMISSIONS),
    "bounds": (_out_of_bounds, UB.CHERI_BOUNDS_VIOLATION),
    "empty-provenance": (_no_allocation, UB.EMPTY_PROVENANCE_ACCESS),
}


@pytest.mark.parametrize("provenance", ["alloc", "iota"])
@pytest.mark.parametrize("check", sorted(UB_CHECKS))
def test_ub_event_carries_the_provenance_join_key(check, provenance):
    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    model = fresh_model(MORELLO, Mode.ABSTRACT, bus=bus)
    ptr = model.allocate_object(INT, AllocKind.STACK, "x")
    other = model.allocate_object(INT, AllocKind.STACK, "y")
    if provenance == "iota":
        ptr = ptr.with_prov(model.state.fresh_iota(
            (ptr.prov.ident, other.prov.ident)))
    corrupt, expected = UB_CHECKS[check]
    bad = corrupt(model, ptr)
    with pytest.raises(UndefinedBehaviour) as info:
        model.load(INT, bad)
    assert info.value.ub is expected
    event = [e for e in recorder.events() if e.kind == "check.ub"][-1]
    assert event.data["ub"] == str(expected)
    if provenance == "alloc":
        assert event.data["alloc"] == bad.prov.ident
        assert "iota" not in event.data
    else:
        assert event.data["iota"] == bad.prov.ident
        assert "alloc" not in event.data


def test_null_dereference_carries_no_join_key():
    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    model = fresh_model(MORELLO, Mode.ABSTRACT, bus=bus)
    with pytest.raises(UndefinedBehaviour):
        model.load(INT, model.null_pointer())
    event = [e for e in recorder.events() if e.kind == "check.ub"][-1]
    assert "alloc" not in event.data and "iota" not in event.data


# ---------------------------------------------------------------------------
# Shared values: decode memo, derived roots, access plans, plain bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_decode_shares_one_instance_per_representation(arch):
    cap, _ = arch.root_capability().set_bounds(0x8000, 32)
    data = arch.encode(cap)
    first = arch.decode(data, True)
    assert arch.decode(data, True) is first
    assert first == cap
    assert arch.decode(data, False) is not first
    ghost = GhostState(True, False)
    assert arch.decode(data, True, ghost).ghost == ghost
    assert arch.encode(first) == data


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_derived_roots_are_shared_and_equal_the_masked_root(arch):
    root = arch.root_capability()
    for mask in (DATA_PERMS, CONST_PERMS, CODE_PERMS):
        derived = arch.derived_root(mask)
        assert derived is arch.derived_root(mask)
        assert derived == root.with_perms_masked(mask)
    assert not arch.derived_root(CONST_PERMS).has_perm(Permission.STORE)


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_access_plan_matches_the_layout_queries(arch):
    layout = TargetLayout(arch)
    s = StructT("s", None)
    types = [INT, LONG, CHAR, Integer(IKind.UINTPTR), Integer(IKind.PTRADDR),
             Pointer(INT), ArrayT(INT, 4), ArrayT(Pointer(INT), 2)]
    for ctype in types:
        size, is_cap, is_int = layout.access_plan(ctype)
        assert size == layout.sizeof(ctype)
        assert is_cap == layout.is_capability_type(ctype)
        assert is_int == (isinstance(ctype, Integer) and not is_cap)
        assert layout.access_plan(ctype) is layout.access_plan(ctype)
    for bad in (VOID, FuncT(INT, ()), ArrayT(INT, None), s):
        for _ in range(2):
            with pytest.raises(CTypeError):
                layout.access_plan(bad)


def test_plain_bytes_are_interned_and_equal_constructed_ones():
    empty = Provenance.empty()
    for value in (0, 1, 0x7F, 0xFF):
        assert AbsByte.plain(value) is AbsByte.plain(value)
        assert AbsByte.plain(value) == AbsByte(empty, value)
    for bad in (-1, 0x100):
        with pytest.raises(ValueError):
            AbsByte(Provenance.alloc(1), bad)


def test_integer_stores_write_plain_bytes_and_keep_char_provenance():
    model = fresh_model(MORELLO, Mode.ABSTRACT)
    ptr = model.allocate_object(INT, AllocKind.STACK, "x")
    model.store(INT, ptr, MVInteger(INT, IntegerValue.of_int(0x01020304)))
    stored = [model.state.read_byte(ptr.address + i) for i in range(4)]
    assert stored == [AbsByte.plain(b) for b in (4, 3, 2, 1)]
    assert all(b is AbsByte.plain(b.value) for b in stored)
    c = model.allocate_object(CHAR, AllocKind.STACK, "c")
    prov = Provenance.alloc(ptr.prov.ident)
    model.store(CHAR, c, MVInteger(CHAR, IntegerValue(num=7, prov=prov)))
    assert model.state.read_byte(c.address) == AbsByte(prov, 7)



@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_pickled_architecture_leaves_its_memos_behind(arch):
    import pickle
    cap, _ = arch.derived_root(DATA_PERMS).set_bounds(0x8000, 32)
    arch.decode(arch.encode(cap), True)
    blob = pickle.dumps(arch)
    assert b"_decode_memo" not in blob and b"_derived_roots" not in blob
    clone = pickle.loads(blob)
    assert clone == arch
    assert clone.decode(arch.encode(cap), True) == cap


# ---------------------------------------------------------------------------
# Memoised derivations: allocation bounds, sentries, encodings
# ---------------------------------------------------------------------------



@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_allocation_capabilities_are_fresh_with_memoised_bounds(arch):
    caps = [fresh_model(arch, Mode.ABSTRACT).allocate_object(
        LONG, AllocKind.STACK, "x").cap for _ in range(2)]
    root = arch.derived_root(DATA_PERMS)
    expected, _exact = root.set_bounds(caps[0].base, caps[0].length)
    assert caps[0] == caps[1] == expected
    assert caps[0] is not caps[1]
    caps[0].passed_checks().add("shape")
    assert caps[1].passed_checks() == set()


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_bounded_derivations_rebuild_from_the_memo(arch):
    root = arch.root_capability().without_perms(Permission.SYSTEM)
    first = root.bounded(0x8000, 48)
    assert first == root.set_bounds(0x8000, 48)[0]
    first.passed_checks().add("shape")
    again = root.bounded(0x8000, 48)
    assert again == first and again is not first
    assert again.decoded() == first.decoded()
    assert again.passed_checks() == set()
    assert arch.encode(again) == arch._encode(again)
    # Past the address space the derivation is untagged: not memoised.
    space = 1 << arch.address_width
    assert root.bounded(space - 16, 32) == root.set_bounds(space - 16,
                                                           32)[0]
    assert not root.bounded(space - 16, 32).tag


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_bounds_fields_round_trip(arch, data):
    cap = data.draw(capabilities(arch))
    fields_ = cap.bounds_fields
    again = CompressedBounds.unpack(arch.compression, fields_.pack())
    assert again == fields_
    assert again.decode(cap.address) == cap.decoded()


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
def test_function_sentries_match_the_derivation(arch):
    model = fresh_model(arch, Mode.ABSTRACT)
    f = model.allocate_function("f")
    g = fresh_model(arch, Mode.ABSTRACT).allocate_function("f")
    derived, _exact = arch.derived_root(CODE_PERMS).set_bounds(
        f.cap.base, f.cap.length)
    assert f.cap == g.cap == derived.sealed_with(OType.sentry())
    assert f.cap is not g.cap and f.cap.is_sealed and f.cap.tag


@pytest.mark.parametrize("arch", ARCHES, ids=arch_ids)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_encode_memo_agrees_with_the_representation(arch, data):
    raw = data.draw(st.binary(min_size=arch.capability_size,
                              max_size=arch.capability_size))
    cap = arch.decode(raw, data.draw(st.booleans()))
    assert arch.encode(cap) == raw
    clone = cap.with_address(cap.address ^ 1)
    assert arch.encode(clone) == arch.encode(clone) == arch._encode(clone)
