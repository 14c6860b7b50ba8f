"""Cache-key completeness audit (ISSUE 10, satellite 1).

Every :class:`~repro.impls.config.Implementation` field is declared as
exactly one of ``COMPILE_AXES`` (feeds the compiled program, so it must
appear in every compile-cache key and the on-disk digest), ``RUN_AXES``
(affects only running a compiled program, so it must appear in the run
configuration key and must NOT fragment the compile layers), or
``META_AXES`` (labels).  This test enforces the partition *by
reflection*: adding a new Implementation field without sorting it into
an axis tuple -- or sorting it into one the caches don't honour --
fails here, not as a silent stale-cache bug.  The ``RELEASE_AXES``
subset of the run axes is observable only once a run releases a heap
region, so a run that released nothing is memoised under a key
without them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.capability.cheriot import CHERIOT
from repro.impls import (
    COMPILE_AXES, META_AXES, RUN_AXES, CERBERUS, Implementation,
    with_allocator,
)
from repro.impls.config import RELEASE_AXES, memo_keys, run_config_key
from repro.impls.faults import FAULTS
from repro.impls.registry import CHERIOT_MAP
from repro.memory.model import MemoryModel, Mode
from repro.memory.options import OOBArithPolicy, SemanticsOptions
from repro.perf.cache import CompileCache
from repro.perf.disk import digest_for

SOURCE = "int main(void) { return 0; }"

#: Programs that release a heap region, each way a run can.
FREEING_SOURCES = (
    "#include <stdlib.h>\n"
    "int main(void) { char *p = malloc(8); free(p); return 0; }",
    "#include <stdlib.h>\n"
    "int main(void) { char *p = malloc(8); p = realloc(p, 64);\n"
    "  return p == 0; }",
)

#: A program that allocates on the heap and frees nothing.
HOLDING_SOURCE = (
    "#include <stdlib.h>\n"
    "int main(void) { char *p = malloc(8); char *q = malloc(8);\n"
    "  p[0] = 1; q[0] = 2; return p[0] + q[0]; }")

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
    reaches the memo without anyone editing the key.  The policy-blind
    key is the same derivation over the run axes outside
    RELEASE_AXES, and memo_keys pairs the two with ``main`` and the
    budget."""
    assert set(RELEASE_AXES) < set(RUN_AXES)
    for impl in (CERBERUS, variant("allocator"), *FAULTS.values()):
        assert run_config_key(impl) == (
            type(impl.fresh_model()),
            *(getattr(impl, axis) for axis in RUN_AXES))
        assert run_config_key(impl, released=False) == (
            type(impl.fresh_model()),
            *(getattr(impl, axis) for axis in RUN_AXES
              if axis not in RELEASE_AXES))
        assert memo_keys(impl, "f", None) == (
            (run_config_key(impl, released=False), "f", None),
            (run_config_key(impl), "f", None))
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
    """End to end: a memoised run under one configuration never serves
    the same program under a variant that differs on one run axis --
    in either order.  A release axis is observable only once a run
    releases a heap region, so for those the programs free (or
    realloc); the other axes are checked on those and on a program
    that frees nothing."""
    sources = FREEING_SOURCES
    if axis not in RELEASE_AXES:
        sources += (SOURCE, HOLDING_SOURCE)
    for source in sources:
        for first, second in ((CERBERUS, variant(axis)),
                              (variant(axis), CERBERUS)):
            fresh_global_cache.clear()
            first.run(source)
            first.run(source)           # a hit: the memo is live
            second.run(source)
            memo = fresh_global_cache.stats.memo
            assert (memo.hits, memo.misses) == (1, 2), (axis, source)


@pytest.mark.parametrize("axis", RELEASE_AXES)
def test_a_run_that_frees_nothing_is_served_across_a_release_axis(
        axis, fresh_global_cache):
    """The policy-blind key: a run that released no heap region serves
    the variant, with the outcome the reference Core loop gives it."""
    for source in (SOURCE, HOLDING_SOURCE):
        fresh_global_cache.clear()
        CERBERUS.run(source)
        served = variant(axis).run(source)
        memo = fresh_global_cache.stats.memo
        assert (memo.hits, memo.misses) == (1, 1), source
        assert served == variant(axis).run(source, evaluator="core")


#: ``digest_for(CompileCache.key_for(impl, SOURCE))`` as published by
#: the disk layer: a refactoring of the key derivation must keep
#: existing disk caches valid.  Refresh deliberately when
#: ``DISK_FORMAT_VERSION`` is bumped (last: 2, when the optimiser's
#: folding and inlining fixes changed the Core programs built).
PINNED_DIGESTS = {
    "cerberus":
        "3c4536f40daf50dbcce469a8b27362772b3a7f346bc1e336c8887a19fc9e5c92",
    "cheriot-O0":
        "0b0846ce7655c753fa1b3b5033f88cbc8977b634688b4b884e5968880780d482",
    "clang-morello-O3-subobject-safe":
        "3b50bab23771ebbcd8f00a803b2f007489378f5734883350a7dea36f833ced26",
}


def test_disk_digests_are_unchanged():
    from repro.impls.registry import (
        CHERIOT_HARDWARE, CLANG_MORELLO_O3_SUBOBJECT,
    )
    for impl in (CERBERUS, CHERIOT_HARDWARE, CLANG_MORELLO_O3_SUBOBJECT):
        assert digest_for(CompileCache.key_for(impl, SOURCE)) == \
            PINNED_DIGESTS[impl.name], impl.name


def test_compile_key_and_digest_follow_compile_axes(monkeypatch):
    """Both keys are derived from COMPILE_AXES: declaring one more axis
    (here ``mode``) changes the memo key and the disk digest, with no
    edit to either."""
    import repro.impls.config as config
    base = variant("mode")
    before = (CompileCache.key_for(CERBERUS, SOURCE),
              CompileCache.key_for(base, SOURCE))
    assert before[0] == before[1]
    monkeypatch.setattr(config, "COMPILE_AXES", COMPILE_AXES + ("mode",))
    after = (CompileCache.key_for(CERBERUS, SOURCE),
             CompileCache.key_for(base, SOURCE))
    assert after[0] != after[1]
    assert digest_for(after[0]) != digest_for(after[1])
    with pytest.raises(ValueError):
        digest_for(before[0])    # a key of the old shape is refused
