"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.capability import CHERIOT, MORELLO
from repro.impls.registry import CERBERUS_MAP
from repro.memory.allocator import AddressMap
from repro.memory.model import MemoryModel, Mode


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Keep the suite hermetic: no test touches ``~/.cache/repro``.

    The on-disk compile-cache layer is disabled for every test by
    default -- tests that exercise it opt back in with
    ``configure_disk_cache`` or an explicit ``DiskCache`` -- and
    ``REPRO_CACHE_DIR`` points any code path that re-enables the
    default directory (the CLI mains do) at a throwaway location.
    """
    from repro.perf import cache as perf_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "disk-cache"))
    enabled, directory = perf_cache.disk_cache_config()
    perf_cache.configure_disk_cache(enabled=False, directory=None)
    yield
    perf_cache.configure_disk_cache(enabled=enabled, directory=directory)


@pytest.fixture
def fresh_global_cache():
    """The process-wide compile cache (run memo included), emptied
    before and after the test."""
    from repro.perf import clear_cache, global_cache
    clear_cache()
    yield global_cache()
    clear_cache()


@pytest.fixture
def amap() -> AddressMap:
    return CERBERUS_MAP


@pytest.fixture
def model(amap) -> MemoryModel:
    """A fresh abstract-machine memory model on Morello."""
    return MemoryModel(MORELLO, Mode.ABSTRACT, amap)


@pytest.fixture
def hw_model(amap) -> MemoryModel:
    """A fresh hardware-mode memory model on Morello."""
    return MemoryModel(MORELLO, Mode.HARDWARE, amap)


@pytest.fixture
def cheriot_model() -> MemoryModel:
    from repro.impls.registry import CHERIOT_MAP
    return MemoryModel(CHERIOT, Mode.ABSTRACT, CHERIOT_MAP)


def run_abstract(source: str):
    """Run a program on the reference implementation."""
    from repro.impls import CERBERUS
    return CERBERUS.run(source)


def run_hardware(source: str, opt: int = 0):
    from repro.impls import by_name
    name = f"clang-morello-O{opt}"
    return by_name(name).run(source)
