"""The on-disk compile cache and warm-start behaviour (ISSUE 8).

The properties under test:

* a warm-started process (fresh in-memory caches, shared disk
  directory) performs **zero frontend compiles** -- every Core program
  is served from disk -- and renders a byte-identical suite report;
* damaged disk entries (corrupt bytes, truncation, a stale format
  version) read as misses, never crashes, and the recompile rewrites
  them so the cache heals itself;
* any number of concurrent processes may share one cache directory and
  still produce identical reports;
* the content address covers every compile axis, so changing e.g. the
  opt level can never serve a stale program;
* one-shot programs stay in memory: fuzzing (blind, pooled, guided)
  neither reads nor writes the directory, while the suite still fills
  it.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys

import pytest

from repro.core.coreir import render_core
from repro.impls import CERBERUS, by_name
from repro.perf import CompileCache, DiskCache
from repro.perf.disk import DISK_FORMAT_VERSION, digest_for
from repro.testsuite.compare import run_suite
from repro.testsuite.suite import all_cases

CASES = tuple(all_cases()[:12])


def _entry_path(disk: DiskCache, key: tuple):
    return disk._path_for(digest_for(key))


def _key(source: str) -> tuple:
    return CompileCache.key_for(CERBERUS, source)


SOURCE = CASES[0].source


class TestDiskCacheBasics:
    def test_roundtrip_preserves_the_core_program(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=None)
        core = cache.core(CERBERUS, SOURCE)
        assert disk.store(_key(SOURCE), core)
        loaded = DiskCache(tmp_path).load(_key(SOURCE))
        assert loaded is not None
        assert render_core(loaded) == render_core(core)

    def test_missing_key_is_a_miss(self, tmp_path):
        assert DiskCache(tmp_path).load(_key("int main() { return 9; }")) \
            is None

    def test_len_counts_published_entries(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert len(disk) == 0
        cache = CompileCache(disk=disk)
        for case in CASES[:4]:
            cache.core(CERBERUS, case.source)
        assert len(disk) == 4

    def test_digest_covers_every_compile_axis(self):
        base = _key(SOURCE)
        o2 = CompileCache.key_for(by_name("clang-morello-O3"), SOURCE)
        other_source = _key(SOURCE + "\n")
        assert digest_for(base) != digest_for(o2)
        assert digest_for(base) != digest_for(other_source)
        # Stable across calls (it is the on-disk address).
        assert digest_for(base) == digest_for(base)


class TestDamagedEntries:
    """Every failure mode reads as a miss and is then rewritten."""

    def _primed(self, tmp_path):
        disk = DiskCache(tmp_path)
        CompileCache(disk=disk).core(CERBERUS, SOURCE)
        path = _entry_path(disk, _key(SOURCE))
        assert path.exists()
        return disk, path

    def _assert_miss_then_heal(self, disk, path):
        assert disk.load(_key(SOURCE)) is None  # miss, no crash
        cache = CompileCache(disk=disk)
        core = cache.core(CERBERUS, SOURCE)  # recompiles...
        assert cache.stats.disk.misses == 1
        assert cache.stats.compiles_performed == 1
        assert path.exists()  # ...and republished
        loaded = disk.load(_key(SOURCE))
        assert loaded is not None
        assert render_core(loaded) == render_core(core)

    def test_corrupt_bytes(self, tmp_path):
        disk, path = self._primed(tmp_path)
        path.write_bytes(b"not a pickle at all")
        self._assert_miss_then_heal(disk, path)

    def test_truncated_entry(self, tmp_path):
        disk, path = self._primed(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        self._assert_miss_then_heal(disk, path)

    def test_wrong_format_version(self, tmp_path):
        disk, path = self._primed(tmp_path)
        entry = pickle.loads(path.read_bytes())
        entry["version"] = DISK_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        self._assert_miss_then_heal(disk, path)

    def test_wrong_digest(self, tmp_path):
        disk, path = self._primed(tmp_path)
        entry = pickle.loads(path.read_bytes())
        entry["digest"] = "0" * 64
        path.write_bytes(pickle.dumps(entry))
        self._assert_miss_then_heal(disk, path)

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        disk, path = self._primed(tmp_path)
        path.write_bytes(pickle.dumps(["wrong", "shape"]))
        assert disk.load(_key(SOURCE)) is None


def _report_bytes(report) -> str:
    lines = [report.summary_line()]
    for result in report.results:
        lines.append(f"{result.case.name} {result.outcome.describe()} "
                     f"{result.outcome.stdout!r} {result.passed}")
    return "\n".join(lines)


class TestWarmStart:
    def test_second_cache_performs_zero_compiles(self, tmp_path):
        disk = DiskCache(tmp_path)
        first = CompileCache(disk=disk)
        for case in CASES:
            first.core(CERBERUS, case.source)
        assert first.stats.compiles_performed == len(CASES)

        warm = CompileCache(disk=disk)  # a "new process"
        for case in CASES:
            warm.core(CERBERUS, case.source)
        assert warm.stats.compiles_performed == 0
        assert warm.stats.parse.misses == 0
        assert warm.stats.disk.hits == len(CASES)
        assert warm.stats.disk.misses == 0
        assert warm.stats.disk.hit_rate == 1.0

    def test_warm_suite_report_is_byte_identical(self, tmp_path):
        from repro.perf import cache as perf_cache
        perf_cache.configure_disk_cache(enabled=True,
                                        directory=str(tmp_path))
        perf_cache.clear_cache()
        cold = run_suite(CERBERUS, CASES, jobs=1)
        perf_cache.clear_cache()  # drop memory layers; disk survives
        warm = run_suite(CERBERUS, CASES, jobs=1)
        stats = perf_cache.global_cache().stats
        assert stats.compiles_performed == 0
        assert stats.disk.hits > 0
        assert _report_bytes(warm) == _report_bytes(cold)

    def test_rejections_are_not_written_to_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        from repro.errors import CSyntaxError, CTypeError
        with pytest.raises((CSyntaxError, CTypeError)):
            cache.core(CERBERUS, "int main( {")
        assert len(disk) == 0


class TestConcurrentProcesses:
    def test_two_processes_share_one_directory(self, tmp_path):
        """Two concurrent suite runs over one ``--cache-dir`` must both
        succeed and print identical reports (the atomic-rename contract:
        racing writers publish identical entries, readers never see a
        torn one)."""
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["repro"].__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "repro", "suite",
               "--impl", "cerberus", "--cache-dir",
               str(tmp_path / "shared")]
        procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (stdout, stderr) in zip(procs, outputs):
            assert proc.returncode == 0, stderr
        assert outputs[0][0] == outputs[1][0]
        assert len(DiskCache(tmp_path / "shared")) > 0


class TestOneShotProgramsStayInMemory:
    """Fuzz requests are made with ``persist=False``: they share the
    in-memory entries but never look up or publish on disk."""

    @staticmethod
    def _fresh_disk(directory):
        from repro.perf import cache as perf_cache
        perf_cache.configure_disk_cache(enabled=True,
                                        directory=str(directory))
        perf_cache.clear_cache()

    @staticmethod
    def _pickles(directory) -> list:
        return sorted(directory.rglob("*.pkl"))

    def test_fuzzing_writes_nothing_and_the_suite_still_persists(
            self, tmp_path):
        from repro.fuzz import run_campaign, run_fuzz
        from repro.impls import ALL_IMPLEMENTATIONS
        from repro.perf import global_cache
        from repro.testsuite.compare import compare_implementations

        directory = tmp_path / "cache"
        self._fresh_disk(directory)
        run_fuzz(seed=0, iterations=4, shrink_budget=10)
        assert self._pickles(directory) == []
        run_fuzz(seed=1, iterations=4, shrink_budget=10, jobs=2)
        assert self._pickles(directory) == []
        run_campaign(seed=0, iterations=6, corpus_dir=tmp_path / "corpus")
        assert self._pickles(directory) == []
        stats = global_cache().stats
        assert (stats.disk.hits, stats.disk.misses) == (0, 0)
        assert stats.compiles_performed > 0

        compare_implementations(ALL_IMPLEMENTATIONS)
        assert len(self._pickles(directory)) == 188
        assert len(DiskCache(directory)) == 188

    def test_a_persistent_request_after_a_one_shot_one_shares_memory(
            self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        core = cache.core(CERBERUS, SOURCE, persist=False)
        assert cache.threaded(CERBERUS, SOURCE, persist=False).core is core
        assert len(disk) == 0
        assert cache.core(CERBERUS, SOURCE) is core
        assert cache.stats.compiles_performed == 1
        assert (cache.stats.disk.hits, cache.stats.disk.misses) == (0, 0)

    def test_a_one_shot_request_ignores_a_filled_entry_on_disk(
            self, tmp_path):
        disk = DiskCache(tmp_path)
        CompileCache(disk=disk).core(CERBERUS, SOURCE)
        cache = CompileCache(disk=disk)
        cache.core(CERBERUS, SOURCE, persist=False)
        assert cache.stats.compiles_performed == 1
        assert (cache.stats.disk.hits, cache.stats.disk.misses) == (0, 0)

    def test_fuzz_cli_metrics_report_no_disk_traffic(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.perf import cache as perf_cache
        perf_cache.clear_cache()   # the table is this process's stats
        directory = tmp_path / "cache"
        status = main(["fuzz", "--seed", "3", "--iterations", "2",
                       "--quiet", "--metrics",
                       "--cache-dir", str(directory)])
        out = capsys.readouterr().out
        assert status == 0
        assert re.search(r"^  disk +0 / +0 ", out, re.MULTILINE), out
        assert not re.search(r"compiles performed: 0$", out,
                             re.MULTILINE), out
        assert self._pickles(directory) == []
