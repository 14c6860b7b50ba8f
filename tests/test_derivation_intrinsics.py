"""Capability derivation (S3.7/S4.4) and the intrinsics layer (S4.5)."""

import pytest

from repro.capability.otype import OType
from repro.capability.permissions import Permission
from repro.ctypes import INT
from repro.errors import OutcomeKind
from repro.impls import by_name
from repro.memory import IntegerValue
from repro.memory.allocation import AllocKind
from repro.memory.derivation import derive
from repro.memory.intrinsics import (
    Intrinsics, SAME_AS_ARG0, SIGNATURES, UNSPECIFIED,
)


@pytest.fixture
def cap(model):
    return model.allocate_object(INT, AllocKind.STACK, "x").cap


@pytest.fixture
def intr(model):
    return Intrinsics(model)


class TestDerivation:
    def test_left_cap_wins(self, cap):
        lhs = IntegerValue.of_cap(cap, True)
        rhs = IntegerValue.of_int(4)
        out = derive(lhs, rhs, cap.address + 4, signed=True, hardware=False)
        assert out.cap is not None
        assert out.cap.address == cap.address + 4
        assert out.cap.base == cap.base

    def test_right_cap_when_left_plain(self, cap):
        lhs = IntegerValue.of_int(4)
        rhs = IntegerValue.of_cap(cap, True)
        out = derive(lhs, rhs, cap.address + 4, signed=True, hardware=False)
        assert out.cap is not None
        assert out.cap.base == cap.base

    def test_left_preferred_over_right(self, model, cap):
        other = model.allocate_object(INT, AllocKind.STACK, "y").cap
        lhs = IntegerValue.of_cap(cap, True)
        rhs = IntegerValue.of_cap(other, True)
        out = derive(lhs, rhs, cap.address, signed=True, hardware=False)
        assert out.cap.base == cap.base

    def test_plain_plain_stays_plain(self):
        out = derive(IntegerValue.of_int(1), IntegerValue.of_int(2), 3,
                     signed=True, hardware=False)
        assert out.cap is None
        assert out.value() == 3

    def test_unary_derives_from_operand(self, cap):
        out = derive(IntegerValue.of_cap(cap, False), None,
                     cap.address ^ 0xF0, signed=False, hardware=False)
        assert out.cap is not None

    def test_abstract_ghost_vs_hardware_tag(self, cap):
        lhs = IntegerValue.of_cap(cap, True)
        far = cap.address + (1 << 30)
        ghost = derive(lhs, None, far, signed=True, hardware=False)
        assert ghost.cap.tag and ghost.cap.ghost.bounds_unspecified
        hard = derive(lhs, None, far, signed=True, hardware=True)
        assert not hard.cap.tag and hard.cap.ghost.is_clean


class TestIntrinsics:
    def test_field_getters(self, intr, cap):
        assert intr.address_get(cap) == cap.address
        assert intr.base_get(cap) == cap.base
        assert intr.length_get(cap) == 4
        assert intr.offset_get(cap) == 0
        assert intr.top_get(cap) == cap.top
        assert intr.tag_get(cap) is True
        assert intr.type_get(cap) == 0
        assert intr.is_sealed(cap) is False

    def test_ghost_makes_queries_unspecified(self, intr, cap):
        g = cap.with_ghost(cap.ghost.with_tag_unspecified()
                           .with_bounds_unspecified())
        assert intr.tag_get(g) is UNSPECIFIED
        assert intr.base_get(g) is UNSPECIFIED
        assert intr.length_get(g) is UNSPECIFIED
        assert intr.offset_get(g) is UNSPECIFIED
        # Address and perms stay defined (S3.3, S3.5):
        assert intr.address_get(g) == cap.address
        assert isinstance(intr.perms_get(g), int)
        assert intr.is_equal_exact(g, cap) is UNSPECIFIED
        assert intr.is_subset(g, cap) is UNSPECIFIED

    def test_perms_get_bit_positions(self, intr, model, cap):
        word = intr.perms_get(cap)
        order = model.arch.perm_order
        assert bool(word & (1 << order.index(Permission.LOAD)))
        assert not bool(word & (1 << order.index(Permission.EXECUTE)))

    def test_perms_and_monotonic(self, intr, model, cap):
        order = model.arch.perm_order
        only_load = 1 << order.index(Permission.LOAD)
        out = intr.perms_and(cap, only_load)
        assert out.has_perm(Permission.LOAD)
        assert not out.has_perm(Permission.STORE)
        regained = intr.perms_and(out, (1 << len(order)) - 1)
        assert not regained.has_perm(Permission.STORE)

    def test_bounds_set_exact_detags_when_inexact(self, intr, model):
        big = model.allocate_region(1 << 20)
        inexact = intr.bounds_set_exact(big.cap, (1 << 19) + 3)
        assert not inexact.tag
        rounded = intr.bounds_set(big.cap, (1 << 19) + 3)
        assert rounded.tag
        assert rounded.length >= (1 << 19) + 3

    def test_seal_unseal_with_authority(self, intr, model, cap):
        root = model.arch.root_capability()
        authority = root.with_address(OType.FIRST_USER)
        sealed = intr.seal(cap, authority)
        assert sealed.tag and sealed.is_sealed
        unsealed = intr.unseal(sealed, authority)
        assert unsealed.tag and not unsealed.is_sealed

    def test_seal_without_authority_detags(self, intr, model, cap):
        root = model.arch.root_capability()
        no_auth = root.without_perms(Permission.SEAL).with_address(
            OType.FIRST_USER)
        sealed = intr.seal(cap, no_auth)
        assert not sealed.tag

    def test_unseal_wrong_otype_detags(self, intr, model, cap):
        root = model.arch.root_capability()
        sealed = intr.seal(cap, root.with_address(OType.FIRST_USER))
        wrong = intr.unseal(sealed, root.with_address(OType.FIRST_USER + 1))
        assert not wrong.tag

    def test_representable_length_idempotent(self, intr):
        big = (1 << 22) + 1
        r = intr.representable_length(big)
        assert r >= big
        assert intr.representable_length(r) == r
        assert intr.representable_length(100) == 100

    def test_representable_alignment_mask(self, intr, model):
        mask = intr.representable_alignment_mask((1 << 22) + 1)
        assert mask != model.arch.address_mask
        assert intr.representable_alignment_mask(64) == \
            model.arch.address_mask

    def test_address_set_modes(self, model, hw_model):
        cap_a = model.allocate_object(INT, AllocKind.STACK, "x").cap
        far = cap_a.address + (1 << 30)
        ghosted = Intrinsics(model).address_set(cap_a, far)
        assert ghosted.ghost.bounds_unspecified
        cap_h = hw_model.allocate_object(INT, AllocKind.STACK, "x").cap
        cleared = Intrinsics(hw_model).address_set(cap_h,
                                                   cap_h.address + (1 << 30))
        assert not cleared.tag

    def test_signature_table_well_formed(self):
        for name, sig in SIGNATURES.items():
            assert name.startswith("cheri_")
            assert sig.params, name
            assert sig.ret is SAME_AS_ARG0 or sig.ret is not None


class TestOutOfRangeLengths:
    """Length arguments are ``size_t`` (as the intrinsics' prototypes
    declare): a negative length wraps to a huge one, and a region past
    the top of the address space is out of bounds like any other --
    the tag is cleared.  None of these may escape as a host error."""

    IMPLS = ("cerberus", "clang-morello-O0", "cheriot-O0")

    BOUNDS = """
#include <cheriintrin.h>
#include <stddef.h>
int main(void) {
  int x[4];
  int *p = %s(x, %s);
  return cheri_tag_get(p);
}
"""

    @pytest.mark.parametrize("impl_name", IMPLS)
    @pytest.mark.parametrize("evaluator", ["core", "compiled"])
    @pytest.mark.parametrize("fn", ["cheri_bounds_set",
                                    "cheri_bounds_set_exact"])
    @pytest.mark.parametrize("length", ["-1", "(size_t)-1", "-16"])
    def test_bounds_past_the_address_space_clear_the_tag(
            self, impl_name, evaluator, fn, length):
        out = by_name(impl_name).run(self.BOUNDS % (fn, length),
                                     evaluator=evaluator)
        assert out.kind is OutcomeKind.EXIT, out.describe() + out.detail
        assert out.exit_status == 0

    @pytest.mark.parametrize("impl_name", IMPLS)
    @pytest.mark.parametrize("evaluator", ["core", "compiled"])
    def test_representability_queries_take_size_t(self, impl_name,
                                                   evaluator):
        impl = by_name(impl_name)
        source = """
#include <cheriintrin.h>
#include <stddef.h>
int main(void) {
  size_t n = cheri_representable_length(-1);
  size_t m = cheri_representable_alignment_mask(-1);
  return (n == cheri_representable_length((size_t)-1))
      + 2 * (m == cheri_representable_alignment_mask((size_t)-1));
}
"""
        out = impl.run(source, evaluator=evaluator)
        assert out.kind is OutcomeKind.EXIT, out.describe() + out.detail
        assert out.exit_status == 3

    def test_capability_layer_clears_the_tag(self, cap):
        top = 1 << cap.arch.address_width
        narrowed, exact = cap.set_bounds(cap.address, top - cap.address + 1)
        assert not narrowed.tag and not exact
        assert (narrowed.base, narrowed.top) == (cap.base, cap.top)
