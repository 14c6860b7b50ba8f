"""The premise of the run memo's policy-blind key, checked without it.

:data:`~repro.impls.config.RELEASE_AXES` (``revocation``,
``allocator``) are read only when a run releases a heap region
(:meth:`~repro.memory.model.MemoryModel._release_heap`).  So a run that
released nothing must give the same outcome under every value of them,
and whether a run releases at all must not depend on them.  The run
memo stores such a run under a key without those axes
(:func:`~repro.impls.config.memo_keys`); this module checks the premise
on the Core loop directly -- no memo, no compile-cache run -- over
every S5 case and a few hundred seeded heap-reuse fuzz programs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CSyntaxError, CTypeError
from repro.fuzz.driver import program_for
from repro.impls import CERBERUS, with_allocator
from repro.impls.registry import CHERIOT_HARDWARE, CLANG_MORELLO_O0
from repro.perf import compile_core
from repro.robust.budget import DEFAULT_FUZZ_BUDGET
from repro.testsuite.suite import all_cases

POLICIES = ("bump", "freelist", "quarantine")

#: Seeded ``heap_reuse=True`` fuzz programs (free-then-malloc shapes).
FUZZ_PROGRAMS = 200


def variants(impl):
    """``impl`` under every allocator policy, with and without
    revocation."""
    return [dataclasses.replace(with_allocator(impl, policy),
                                revocation=revocation)
            for policy in POLICIES for revocation in (False, True)]


def core_run(impl, program):
    """One Core-loop run: its outcome and whether it released a heap
    region."""
    models = []
    outcome = impl.run_compiled(program, budget=DEFAULT_FUZZ_BUDGET,
                                evaluator="core", _models=models)
    return outcome, models[0].heap_released


def sources():
    yield from (case.source for case in all_cases())
    for index in range(FUZZ_PROGRAMS):
        yield program_for(0, index, heap_reuse=True).render()


@pytest.mark.parametrize("base", (CERBERUS, CLANG_MORELLO_O0,
                                  CHERIOT_HARDWARE),
                         ids=lambda impl: impl.name)
def test_a_run_that_releases_nothing_ignores_the_release_axes(
        base, fresh_global_cache):
    bump = with_allocator(base, "bump")
    blind = released = 0
    for source in sources():
        try:
            program = compile_core(bump, source, persist=False)
        except (CSyntaxError, CTypeError):
            continue
        reference, reference_released = core_run(bump, program)
        for impl in variants(base):
            outcome, impl_released = core_run(impl, program)
            assert impl_released == reference_released, (impl.name, source)
            if not impl_released:
                assert outcome == reference, (impl.name, source)
        blind += not reference_released
        released += reference_released
    # Both kinds of run occur, so neither half of the check is vacuous.
    assert blind and released
