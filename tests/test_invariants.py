"""Dynamic verification of the S7 properties: provenance validity and
capability integrity hold in every reachable state of every suite
program (checked after each mutating memory-model operation), under
both the Core evaluator and the compiled backend."""

import pytest

from repro.capability import MORELLO
from repro.core.compile import CompiledEvaluator, compile_core
from repro.core.coreeval import CoreEvaluator
from repro.core.cparser import parse_program
from repro.core.elaborate import elaborate_program
from repro.errors import MemoryModelError, OutcomeKind
from repro.impls import CERBERUS
from repro.impls.registry import CERBERUS_MAP
from repro.memory.invariants import CheckedMemoryModel, check_invariants
from repro.memory.model import MemoryModel, Mode
from repro.testsuite.suite import all_cases

CASES = all_cases()


def run_checked(source: str):
    """The program's outcome under each evaluator, every run on a
    fresh invariant-checking model."""
    core = elaborate_program(parse_program(source, CERBERUS.layout))
    compiled = compile_core(core, CERBERUS)

    def model():
        return CheckedMemoryModel(MORELLO, Mode.ABSTRACT, CERBERUS_MAP)
    return {"core": CoreEvaluator(core, model()).run(),
            "compiled": CompiledEvaluator(compiled, model()).run()}


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_invariants_hold_throughout_suite(case):
    """Every suite program runs to its outcome with the invariants
    checked after each mutating operation; an invariant violation would
    surface as an OutcomeKind.ERROR / MemoryModelError."""
    expected = case.expected_for("cerberus", is_hardware=False, opt_level=0)
    for evaluator, outcome in run_checked(case.source).items():
        assert expected.check(outcome), (
            f"{case.name} under invariant checking ({evaluator}): "
            f"expected {expected.describe()}, got {outcome.describe()} "
            f"[{outcome.detail}]")


class TestCheckerCatchesViolations:
    """The checker is not vacuous: seeded corruptions are detected."""

    def make_model(self):
        return MemoryModel(MORELLO, Mode.ABSTRACT, CERBERUS_MAP)

    def test_clean_model_passes(self):
        model = self.make_model()
        from repro.ctypes import INT, Pointer
        from repro.memory import MVPointer
        from repro.memory.allocation import AllocKind
        x = model.allocate_object(INT, AllocKind.STACK, "x")
        slot = model.allocate_object(Pointer(INT), AllocKind.STACK, "p")
        model.store(Pointer(INT), slot, MVPointer(Pointer(INT), x))
        check_invariants(model)

    def test_detects_misaligned_tag(self):
        model = self.make_model()
        from repro.memory.state import CapMeta
        model.state.capmeta[0x1001] = CapMeta(tag=True)
        with pytest.raises(MemoryModelError):
            check_invariants(model)

    def test_detects_dangling_provenance(self):
        model = self.make_model()
        from repro.memory.absbyte import AbsByte
        from repro.memory.provenance import Provenance
        model.state.write_byte(0x5000, AbsByte(Provenance.alloc(999), 1))
        with pytest.raises(MemoryModelError):
            check_invariants(model)

    def test_detects_overlapping_allocations(self):
        model = self.make_model()
        from repro.memory.allocation import Allocation, AllocKind
        model.state.add_allocation(Allocation(
            ident=900, base=0x8000, size=64, align=1,
            kind=AllocKind.HEAP))
        model.state.add_allocation(Allocation(
            ident=901, base=0x8020, size=64, align=1,
            kind=AllocKind.HEAP))
        with pytest.raises(MemoryModelError):
            check_invariants(model)

    def test_detects_forged_capability(self):
        """A tagged capability whose bounds match no allocation is a
        capability-integrity violation."""
        model = self.make_model()
        from repro.ctypes import Pointer, INT
        from repro.memory.allocation import AllocKind
        from repro.memory.state import CapMeta
        slot = model.allocate_object(Pointer(INT), AllocKind.STACK, "p")
        forged, _ = model.arch.root_capability().set_bounds(0x666000, 64)
        data = model.arch.encode(forged)
        from repro.memory.absbyte import AbsByte
        from repro.memory.provenance import Provenance
        for i, b in enumerate(data):
            model.state.write_byte(slot.address + i,
                                   AbsByte(Provenance.empty(), b, i))
        model.state.set_capmeta(slot.address, CapMeta(tag=True))
        with pytest.raises(MemoryModelError):
            check_invariants(model)

    def test_dead_allocations_still_license_capabilities(self):
        """Without revocation, a capability into a freed region is not
        an integrity violation (S3.11) -- the allocation record remains."""
        model = self.make_model()
        from repro.ctypes import Pointer, UCHAR
        from repro.memory import MVPointer
        from repro.memory.allocation import AllocKind
        region = model.allocate_region(64)
        slot = model.allocate_object(Pointer(UCHAR), AllocKind.STACK, "p")
        model.store(Pointer(UCHAR), slot,
                    MVPointer(Pointer(UCHAR), region))
        model.free(region)
        check_invariants(model)    # no violation
