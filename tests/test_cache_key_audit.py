"""Cache-key completeness audit (ISSUE 10, satellite 1).

Every :class:`~repro.impls.config.Implementation` field is declared as
exactly one of ``COMPILE_AXES`` (feeds the compiled program, so it must
appear in every compile-cache key and the on-disk digest), ``RUN_AXES``
(affects only running a compiled program, so it must appear in the run
configuration key and must NOT fragment the compile layers), or
``META_AXES`` (labels).  This test enforces the partition *by
reflection*: adding a new Implementation field without sorting it into
an axis tuple -- or sorting it into one the caches don't honour --
fails here, not as a silent stale-cache bug.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.capability.cheriot import CHERIOT
from repro.impls import (
    COMPILE_AXES, META_AXES, RUN_AXES, CERBERUS, Implementation,
    with_allocator,
)
from repro.impls.config import run_config_key
from repro.impls.faults import FAULTS
from repro.impls.registry import CHERIOT_MAP
from repro.memory.model import MemoryModel, Mode
from repro.memory.options import OOBArithPolicy, SemanticsOptions
from repro.perf.cache import CompileCache
from repro.perf.disk import digest_for

SOURCE = "int main(void) { return 0; }"

#: One alternate value per semantic axis, each differing from
#: CERBERUS's value on that axis.  A new axis must be added here (and
#: to exactly one axis tuple) before this module passes again.
ALTERNATES = {
    "arch": CHERIOT,
    "opt_level": 3,
    "subobject_bounds": True,
    "options": SemanticsOptions(oob_arith=OOBArithPolicy.ARCH_REPRESENTABLE),
    "mode": Mode.HARDWARE,
    "address_map": CHERIOT_MAP,
    "revocation": True,
    "allocator": "freelist",
}


def variant(axis: str) -> Implementation:
    return dataclasses.replace(CERBERUS, **{axis: ALTERNATES[axis]})


def test_axis_tuples_partition_the_implementation_fields():
    declared = COMPILE_AXES + RUN_AXES + META_AXES
    assert len(set(declared)) == len(declared), \
        "an axis is declared in more than one tuple"
    actual = {f.name for f in dataclasses.fields(Implementation)}
    assert set(declared) == actual, (
        "Implementation fields and the declared axis tuples disagree; "
        "sort every new field into COMPILE_AXES, RUN_AXES, or META_AXES")


def test_alternates_cover_every_semantic_axis():
    assert set(ALTERNATES) == set(COMPILE_AXES) | set(RUN_AXES)
    for axis, value in ALTERNATES.items():
        assert value != getattr(CERBERUS, axis), axis


@pytest.mark.parametrize("axis", COMPILE_AXES)
def test_compile_axes_reach_memo_key_and_disk_digest(axis):
    base_key = CompileCache.key_for(CERBERUS, SOURCE)
    alt_key = CompileCache.key_for(variant(axis), SOURCE)
    assert alt_key != base_key, \
        f"compile axis {axis!r} does not reach CompileCache.key_for"
    assert digest_for(alt_key) != digest_for(base_key), \
        f"compile axis {axis!r} does not reach the disk digest"


@pytest.mark.parametrize("axis", RUN_AXES)
def test_run_axes_never_fragment_the_compile_layers(axis):
    base_key = CompileCache.key_for(CERBERUS, SOURCE)
    alt_key = CompileCache.key_for(variant(axis), SOURCE)
    assert alt_key == base_key, \
        f"run-only axis {axis!r} leaked into the compile key"
    assert digest_for(alt_key) == digest_for(base_key)


@pytest.mark.parametrize("axis", RUN_AXES)
def test_run_axes_reach_the_run_config_key(axis):
    base = run_config_key(CERBERUS)
    alt = run_config_key(variant(axis))
    assert alt != base, (
        f"run axis {axis!r} does not reach run_config_key: the run "
        f"memo could replay an outcome under the wrong configuration")


def test_run_config_key_is_stable_for_equal_configurations():
    assert run_config_key(CERBERUS) \
        == run_config_key(dataclasses.replace(CERBERUS))


def test_run_config_key_is_the_model_class_then_every_run_axis():
    """The memo key's run part is derived from RUN_AXES -- one value
    per axis, in order, after the model class -- so a new run axis
    reaches the memo without anyone editing the key."""
    for impl in (CERBERUS, variant("allocator"), *FAULTS.values()):
        assert run_config_key(impl) == (
            type(impl.fresh_model()),
            *(getattr(impl, axis) for axis in RUN_AXES))
    assert run_config_key(CERBERUS)[0] is MemoryModel


@pytest.mark.parametrize("policy", ("bump", "freelist", "quarantine"))
def test_the_run_config_key_names_the_policy_runs_use(policy):
    """Every implementation -- seeded-fault ones too -- builds the
    allocator policy its ``allocator`` axis (and so its memo key)
    names."""
    for base in (CERBERUS, *FAULTS.values()):
        impl = with_allocator(base, policy)
        model = impl.fresh_model()
        assert type(model) is run_config_key(impl)[0]
        assert model.state.allocator.policy == policy, impl.name


def test_compile_axes_stay_out_of_the_run_config_key():
    # The memo lives on a compile-cache entry, whose key fixes them.
    for axis in COMPILE_AXES:
        assert run_config_key(variant(axis)) == run_config_key(CERBERUS)


@pytest.mark.parametrize("axis", RUN_AXES)
def test_no_memo_hit_crosses_a_run_axis(axis, fresh_global_cache):
    """End to end: a memoised run under CERBERUS never serves the same
    program under a variant that differs on one run axis."""
    CERBERUS.run(SOURCE)
    CERBERUS.run(SOURCE)            # a hit: the memo is live
    variant(axis).run(SOURCE)
    memo = fresh_global_cache.stats.memo
    assert (memo.hits, memo.misses) == (1, 2), axis
