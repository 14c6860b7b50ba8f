"""The frontend record: one Core program per ``(source, arch, opt_level)``.

The compile cache keys its entries by all five compile axes, but the
Core program reads only three: ``subobject_bounds`` and ``options``
change how a program runs, not what it compiles to.  The properties
under test:

* a sibling key (same source, arch and level; other subobject or
  options) takes its Core program from the frontend record without
  running the optimiser or the elaborator again;
* entries and run memos still stay separate per five-axis key;
* the shared Core program renders exactly like an uncached compile,
  under every implementation;
* every five-axis key is still published to disk, so a warm start
  compiles nothing;
* a source the parser rejects is parsed once per architecture;
* a memoised run derives its compile key once.
"""

from __future__ import annotations

import pytest

import repro.perf.cache as cache_module
from repro.core.coreir import render_core
from repro.errors import CSyntaxError
from repro.impls import ALL_IMPLEMENTATIONS
from repro.impls.config import memo_keys
from repro.impls.registry import (
    CERBERUS,
    CERBERUS_PERMISSIVE,
    CHERIOT_ABSTRACT,
    CHERIOT_HARDWARE,
    CLANG_MORELLO_O3,
    CLANG_MORELLO_O3_SUBOBJECT,
)
from repro.perf.cache import CompileCache
from repro.perf.disk import DiskCache
from repro.testsuite.suite import all_cases

SOURCE = "int main(void) { int a[2]; a[0] = 7; return a[0]; }\n"
BAD_SOURCE = "int main(void { return 0; }\n"

#: (plain, sibling): keys that differ only in axes the compiler ignores.
SIBLINGS = [
    (CLANG_MORELLO_O3, CLANG_MORELLO_O3_SUBOBJECT),   # subobject_bounds
    (CERBERUS, CERBERUS_PERMISSIVE),                  # options
]

#: Every registered implementation, siblings included.
EVERY_IMPL = ALL_IMPLEMENTATIONS + (CLANG_MORELLO_O3_SUBOBJECT,
                                   CHERIOT_ABSTRACT, CHERIOT_HARDWARE,
                                   CERBERUS_PERMISSIVE)


@pytest.fixture
def frontend_calls(monkeypatch):
    """Counts of the frontend stages, at the names the cache resolves."""
    calls = {"parse": 0, "optimize": 0, "elaborate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cache_module, "parse_program",
                        counted("parse", cache_module.parse_program))
    monkeypatch.setattr(cache_module, "optimize_program",
                        counted("optimize", cache_module.optimize_program))
    monkeypatch.setattr(cache_module, "elaborate_program",
                        counted("elaborate", cache_module.elaborate_program))
    return calls


@pytest.mark.parametrize("plain,sibling", SIBLINGS,
                         ids=lambda impl: impl.name)
def test_sibling_compile_runs_no_optimiser_or_elaborator(
        plain, sibling, frontend_calls):
    cache = CompileCache(disk=None)
    shared = cache.core(plain, SOURCE)
    assert frontend_calls == {"parse": 1, "optimize": 1, "elaborate": 1}
    assert cache.core(sibling, SOURCE) is shared
    assert frontend_calls == {"parse": 1, "optimize": 1, "elaborate": 1}
    assert (cache.stats.compiled.hits, cache.stats.compiled.misses) == (1, 1)
    assert cache.stats.compiles_performed == 1


def test_other_arch_or_level_still_compiles(frontend_calls):
    cache = CompileCache(disk=None)
    cache.core(CERBERUS, SOURCE)
    cache.core(CLANG_MORELLO_O3, SOURCE)      # same arch, other level
    cache.core(CHERIOT_ABSTRACT, SOURCE)      # other arch
    assert frontend_calls == {"parse": 2, "optimize": 3, "elaborate": 3}


@pytest.mark.parametrize("plain,sibling", SIBLINGS,
                         ids=lambda impl: impl.name)
def test_entries_and_memos_stay_per_key(plain, sibling, monkeypatch):
    cache = CompileCache(disk=None)
    monkeypatch.setattr(cache_module, "_GLOBAL_CACHE", cache)
    first = plain.run(SOURCE)
    assert plain.run(SOURCE) is first              # plain's memo
    other = sibling.run(SOURCE)
    assert other is not first                      # not plain's memo
    assert sibling.run(SOURCE) is other
    assert cache.entry_counts()["entries"] == 2
    assert cache.entry_counts()["memo"] == 2
    assert (cache.stats.memo.hits, cache.stats.memo.misses) == (2, 2)
    assert cache.stats.core.hits == 0


@pytest.mark.parametrize("case", all_cases()[::9], ids=lambda c: c.name)
def test_shared_core_renders_like_an_uncached_compile(case):
    cache = CompileCache(disk=None)
    for impl in EVERY_IMPL:
        shared = render_core(cache.core(impl, case.source))
        alone = render_core(CompileCache(disk=None).core(impl, case.source))
        assert shared == alone, impl.name


def test_every_key_is_published_to_disk(tmp_path, frontend_calls):
    disk = DiskCache(tmp_path)
    cache = CompileCache(disk=disk)
    for plain, sibling in SIBLINGS:
        cache.core(plain, SOURCE)
        cache.core(sibling, SOURCE)
    assert frontend_calls["optimize"] == 2
    for impl in (impl for pair in SIBLINGS for impl in pair):
        assert disk.load(CompileCache.key_for(impl, SOURCE)) is not None
    warm = CompileCache(disk=DiskCache(tmp_path))
    for impl in (impl for pair in SIBLINGS for impl in pair):
        warm.core(impl, SOURCE)
    assert warm.stats.compiles_performed == 0
    assert warm.stats.disk.hits == 4


def test_one_shot_sibling_publishes_nothing(tmp_path):
    cache = CompileCache(disk=DiskCache(tmp_path))
    cache.core(CLANG_MORELLO_O3, SOURCE, persist=False)
    cache.core(CLANG_MORELLO_O3_SUBOBJECT, SOURCE, persist=False)
    assert not list(tmp_path.rglob("*.pkl"))


def test_rejected_source_is_parsed_once_per_arch(frontend_calls):
    cache = CompileCache(disk=None)
    for impl in EVERY_IMPL:
        with pytest.raises(CSyntaxError):
            cache.core(impl, BAD_SOURCE)
    arches = {impl.arch.name for impl in EVERY_IMPL}
    assert len(arches) == 2
    assert frontend_calls == {"parse": len(arches), "optimize": 0,
                              "elaborate": 0}
    assert cache.stats.compiles_performed == len(arches)


def test_one_key_per_memoised_run(monkeypatch):
    cache = CompileCache(disk=None)
    monkeypatch.setattr(cache_module, "_GLOBAL_CACHE", cache)
    calls = []
    key_for = CompileCache.key_for

    def counted(impl, source):
        calls.append(impl.name)
        return key_for(impl, source)

    monkeypatch.setattr(CompileCache, "key_for", staticmethod(counted))
    CERBERUS.run(SOURCE)                        # memo miss: run, store
    CERBERUS.run(SOURCE)                        # memo hit
    assert cache.stats.memo.misses == cache.stats.memo.hits == 1
    assert len(calls) == 2
    assert cache.tiered(CERBERUS, SOURCE, memo_keys(CERBERUS))[0] \
        is not None
