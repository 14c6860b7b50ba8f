"""The execution engine: compile cache, worker pool, and determinism.

Covers the engine's contract: parallel suite/compare/fuzz runs are
bit-identical to serial ones, the compilation cache never leaks a
compiled program across configuration axes that affect compilation,
and explicit-empty suite selections stay empty.
"""

import pathlib

import pytest

from repro.errors import CSyntaxError
from repro.fuzz.driver import iteration_seed, program_for, run_fuzz
from repro.impls import ALL_IMPLEMENTATIONS
from repro.impls.registry import (
    CERBERUS,
    CHERIOT_ABSTRACT,
    CLANG_MORELLO_O0,
    CLANG_MORELLO_O3,
    CLANG_MORELLO_O3_SUBOBJECT,
    CERBERUS_PERMISSIVE,
)
from repro.obs.metrics import Metrics
from repro.perf.cache import CompileCache, compile_core
from repro.perf.pool import parallel_map, resolve_jobs
from repro.reporting.tables import render_compliance
from repro.testsuite.compare import compare_implementations, run_suite
from repro.testsuite.suite import all_cases

SOURCE = "int main(void) { int a[2]; a[0] = 7; return a[0]; }\n"
BAD_SOURCE = "int main(void { return 0; }\n"


class TestCompileCache:
    def test_hit_after_miss(self):
        cache = CompileCache(disk=None)
        first = cache.core(CERBERUS, SOURCE)
        second = cache.core(CERBERUS, SOURCE)
        assert first is second
        assert cache.stats.core.hits == 1
        assert cache.stats.core.misses == 1
        assert cache.stats.core.hit_rate == 0.5
        # The optimised AST is not kept: the one optimiser run is the
        # compiled layer's one miss, and it never hits.
        assert (cache.stats.compiled.hits,
                cache.stats.compiled.misses) == (0, 1)
        # One parse actually ran -- the "compiles performed" number the
        # warm-start gate asserts on.
        assert cache.stats.compiles_performed == 1

    def test_shared_across_run_only_axes(self):
        # The -O0 implementations differ from the reference only in
        # run-time axes (address map, mode), so they all share one
        # compiled program.
        cache = CompileCache(disk=None)
        o0 = [impl for impl in ALL_IMPLEMENTATIONS if impl.opt_level == 0]
        assert CERBERUS in o0 and CLANG_MORELLO_O0 in o0
        programs = {id(cache.core(impl, SOURCE)) for impl in o0}
        assert len(programs) == 1
        assert cache.stats.core.hits == len(o0) - 1
        assert cache.entry_counts()["entries"] == 1

    @pytest.mark.parametrize("other", [
        CLANG_MORELLO_O3,            # opt_level axis
        CLANG_MORELLO_O3_SUBOBJECT,  # opt_level + subobject_bounds axes
        CHERIOT_ABSTRACT,            # arch axis
        CERBERUS_PERMISSIVE,         # options axis
    ])
    def test_isolated_across_compile_axes(self, other):
        # Distinct (arch, opt_level, subobject_bounds, options) keys
        # never serve each other's entries: two misses, two entries.
        cache = CompileCache(disk=None)
        cache.core(CERBERUS, SOURCE)
        cache.core(other, SOURCE)
        assert cache.stats.core.hits == 0
        assert cache.stats.core.misses == 2
        assert cache.entry_counts()["entries"] == 2

    def test_subobject_key_isolated_from_plain_o3(self):
        # The two keys may share one Core program (the compiler reads
        # neither subobject_bounds nor options), but not an entry: two
        # entries, no core-slot hit, and a run memo each.
        from repro.impls.config import memo_keys
        cache = CompileCache(disk=None)
        plain = cache.core(CLANG_MORELLO_O3, SOURCE)
        cache.core(CLANG_MORELLO_O3_SUBOBJECT, SOURCE)
        assert cache.entry_counts()["entries"] == 2
        assert cache.stats.core.hits == 0
        keys = memo_keys(CLANG_MORELLO_O3)
        outcome = CLANG_MORELLO_O3.run_compiled(plain)
        cache.memoise(CLANG_MORELLO_O3, SOURCE, keys, outcome, False)
        assert cache.tiered(CLANG_MORELLO_O3, SOURCE, keys)[0] is outcome
        assert cache.tiered(CLANG_MORELLO_O3_SUBOBJECT, SOURCE,
                            keys)[0] is None
        assert cache.entry_counts()["memo"] == 1

    def test_parse_shared_across_opt_levels(self):
        # O0 and O3 compile to different programs but share the parse.
        cache = CompileCache(disk=None)
        cache.core(CERBERUS, SOURCE)
        assert cache.entry_counts()["parse"] == 1
        cache.core(CLANG_MORELLO_O3, SOURCE)
        assert cache.entry_counts()["parse"] == 1
        assert cache.stats.parse.hits == 1
        assert cache.stats.parse.misses == 1

    def test_frontend_error_cached(self):
        cache = CompileCache(disk=None)
        with pytest.raises(CSyntaxError):
            cache.core(CERBERUS, BAD_SOURCE)
        with pytest.raises(CSyntaxError):
            cache.core(CERBERUS, BAD_SOURCE)
        assert cache.stats.core.hits == 1
        assert cache.stats.parse.misses == 1
        assert cache.entry_counts()["entries"] == 1

    def test_core_layer_shares_elaborated_program(self):
        cache = CompileCache(disk=None)
        first = cache.core(CERBERUS, SOURCE)
        second = cache.core(CLANG_MORELLO_O0, SOURCE)
        assert first is second
        assert cache.stats.core.hits == 1
        assert cache.stats.core.misses == 1

    def test_elaboration_error_cached_once_across_impls(self, monkeypatch):
        # A program the elaborator rejects is rejected once per compile
        # key, not once per implementation: cerberus and
        # clang-morello-O0 share the key, so the second lookup must
        # re-raise the cached error without re-elaborating.
        import repro.perf.cache as cache_mod
        from repro.core import ElaborationError
        calls = []

        def failing(program):
            calls.append(program)
            raise ElaborationError("synthetic elaboration failure")

        monkeypatch.setattr(cache_mod, "elaborate_program", failing)
        cache = CompileCache(disk=None)
        with pytest.raises(ElaborationError):
            cache.core(CERBERUS, SOURCE)
        with pytest.raises(ElaborationError):
            cache.core(CLANG_MORELLO_O0, SOURCE)
        with pytest.raises(ElaborationError):
            cache.threaded(CLANG_MORELLO_O0, SOURCE)
        assert len(calls) == 1

    def test_elaboration_error_is_a_frontend_outcome(self, monkeypatch):
        # Through Implementation.run the cached elaboration rejection
        # surfaces as the same structured frontend_error outcome as a
        # parse failure.
        import repro.perf.cache as cache_mod
        from repro.core import ElaborationError
        from repro.errors import OutcomeKind

        def failing(program):
            raise ElaborationError("synthetic elaboration failure")

        monkeypatch.setattr(cache_mod, "elaborate_program", failing)
        cache_mod.clear_cache()
        try:
            outcome = CERBERUS.run(SOURCE, evaluator="core")
            assert outcome.kind is OutcomeKind.ERROR
            assert "synthetic elaboration failure" in outcome.detail
        finally:
            cache_mod.clear_cache()

    def test_eviction_is_bounded(self):
        cache = CompileCache(maxsize=2, disk=None)
        for status in range(4):
            cache.core(CERBERUS,
                       f"int main(void) {{ return {status}; }}\n")
        assert cache.entry_counts()["entries"] <= 2
        assert cache.entry_counts()["parse"] <= 2

    def test_uncached_compile_bypasses_global_cache(self):
        from repro.perf import global_cache
        before = global_cache().stats.lookups
        first = compile_core(CERBERUS, SOURCE, use_cache=False)
        second = compile_core(CERBERUS, SOURCE, use_cache=False)
        assert first.functions
        assert first is not second
        assert global_cache().stats.lookups == before

    def test_cached_outcome_matches_uncached(self):
        for impl in ALL_IMPLEMENTATIONS:
            cached = impl.run(SOURCE, use_cache=True)
            uncached = impl.run(SOURCE, use_cache=False)
            assert cached == uncached, impl.name


class TestThreadedCacheLayer:
    """Direct-threaded CompiledPrograms, the entry's second slot."""

    def test_hit_after_miss_shares_the_compiled_program(self):
        cache = CompileCache()
        first = cache.threaded(CERBERUS, SOURCE)
        second = cache.threaded(CERBERUS, SOURCE)
        assert first is second
        assert cache.entry_counts()["threaded"] == 1

    def test_shared_across_run_only_axes(self):
        cache = CompileCache()
        assert cache.threaded(CERBERUS, SOURCE) is \
            cache.threaded(CLANG_MORELLO_O0, SOURCE)

    def test_isolated_from_the_core_layer(self):
        # The threaded slot holds a CompiledProgram built *from* the
        # entry's Core program, never aliases it: requesting the Core
        # program afterwards serves the Core object from the same
        # entry, without compiling again.
        from repro.core.compile import CompiledProgram
        from repro.core.coreir import CoreProgram
        cache = CompileCache()
        threaded = cache.threaded(CERBERUS, SOURCE)
        core = cache.core(CERBERUS, SOURCE)
        assert isinstance(threaded, CompiledProgram)
        assert isinstance(core, CoreProgram)
        assert threaded is not core
        assert threaded.core is core  # built from the cached Core
        assert cache.entry_counts() == {"parse": 1, "entries": 1,
                                        "core": 1, "threaded": 1,
                                        "memo": 0}
        assert cache.stats.core.hits == 1
        assert cache.stats.compiles_performed == 1

    def test_core_first_then_threaded_reuses_the_core_program(self):
        cache = CompileCache()
        core = cache.core(CERBERUS, SOURCE)
        assert cache.entry_counts()["threaded"] == 0
        threaded = cache.threaded(CLANG_MORELLO_O0, SOURCE)
        assert threaded.core is core
        assert cache.stats.core.hits == 1
        assert cache.stats.threaded.misses == 1
        assert cache.stats.compiled.misses == 1

    def test_isolated_across_compile_axes(self):
        cache = CompileCache()
        plain = cache.threaded(CLANG_MORELLO_O3, SOURCE)
        subobject = cache.threaded(CLANG_MORELLO_O3_SUBOBJECT, SOURCE)
        assert plain is not subobject
        assert cache.entry_counts()["threaded"] == 2

    def test_eviction_is_bounded(self):
        cache = CompileCache(maxsize=2)
        for status in range(4):
            cache.threaded(CERBERUS,
                           f"int main(void) {{ return {status}; }}\n")
        assert cache.entry_counts()["entries"] <= 2

    def test_frontend_error_cached_in_threaded_layer(self):
        cache = CompileCache()
        with pytest.raises(CSyntaxError):
            cache.threaded(CERBERUS, BAD_SOURCE)
        with pytest.raises(CSyntaxError):
            cache.threaded(CERBERUS, BAD_SOURCE)
        assert cache.entry_counts()["entries"] == 1
        assert cache.stats.threaded.hits == 1
        assert cache.stats.parse.misses == 1

    def test_uncached_threaded_compile_bypasses_every_layer(self):
        # The --no-compile-cache contract for the compiled evaluator:
        # no lookups, no stored entries, a private program per call
        # (hence a private run memo; see test_core_compile).
        from repro.perf import global_cache
        from repro.perf.cache import compile_threaded
        before = global_cache().stats.lookups
        entries = global_cache().entry_counts()
        first = compile_threaded(CERBERUS, SOURCE, use_cache=False)
        second = compile_threaded(CERBERUS, SOURCE, use_cache=False)
        assert first is not second
        assert global_cache().stats.lookups == before
        assert global_cache().entry_counts() == entries

    def test_cached_compiled_outcome_matches_uncached(self):
        for impl in ALL_IMPLEMENTATIONS:
            cached = impl.run(SOURCE, use_cache=True,
                              evaluator="compiled")
            uncached = impl.run(SOURCE, use_cache=False,
                                evaluator="compiled")
            assert cached == uncached, impl.name


class TestGridStageAccounting:
    """The per-layer counts of one cold S5 grid (94 cases x 7 impls),
    the counters behind the benchmark's ``perf.cache.*`` metrics."""

    def test_cold_grid_then_core_requests(self, tmp_path):
        from repro.perf import (
            clear_cache, configure_disk_cache, global_cache,
        )
        configure_disk_cache(enabled=True,
                             directory=str(tmp_path / "grid-cache"))
        clear_cache()
        try:
            compare_implementations(ALL_IMPLEMENTATIONS, jobs=1,
                                    use_cache=True, evaluator="compiled")
            stats = global_cache().stats.to_dict()
            counts = {layer: (stats[layer]["hits"], stats[layer]["misses"])
                      for layer in ("parse", "compiled", "core",
                                    "threaded", "disk")}
            # 188 compile keys (94 sources x 2 opt levels); O3 reuses
            # the O0 parse; every other cell hits its Core entry.  Each
            # cell is the first run of its configuration, so it runs on
            # the Core loop: nothing is threaded, and every run is
            # stored in the memo and none is served from it.
            assert counts == {"parse": (94, 94), "compiled": (0, 188),
                              "core": (470, 188), "threaded": (0, 0),
                              "disk": (0, 188)}
            assert (stats["memo"]["hits"], stats["memo"]["misses"]) \
                == (0, 658)
            assert stats["compiles_performed"] == 94
            for case in all_cases():
                for impl in ALL_IMPLEMENTATIONS:
                    compile_core(impl, case.source)
            after = global_cache().stats.to_dict()
            assert after["core"]["hits"] == 470 + 658
            assert after["total"]["misses"] == stats["total"]["misses"]
        finally:
            clear_cache()


REALLOC_SOURCE = """
#include <stdlib.h>
int main(void) {
  int *p = malloc(sizeof(int));
  p = realloc(p, 2 * sizeof(int));
  *p = 3;
  return *p;
}
"""


class TestRunMemoSoundness:
    """The run memo on the compile-cache entry serves a run only when
    it is deterministic and every input that reaches its outcome
    matches; a run it cannot serve executes.  The bus, deadline and
    ``use_cache=False`` cases are in ``tests/test_core_compile.py``
    (``TestRunMemo``), the run axes in ``tests/test_cache_key_audit.py``."""

    @staticmethod
    def memo_counts(cache) -> tuple[int, int]:
        return cache.stats.memo.hits, cache.stats.memo.misses

    def test_no_hit_crosses_a_model_class(self, fresh_global_cache):
        from repro.impls.faults import FAULTS
        faulty = FAULTS["realloc-drops-tag"]
        clean = CLANG_MORELLO_O0.run(REALLOC_SOURCE)
        buggy = faulty.run(REALLOC_SOURCE)
        assert clean.exit_status == 3
        assert buggy != clean
        assert self.memo_counts(fresh_global_cache) == (0, 2)

    def test_no_hit_crosses_main(self, fresh_global_cache):
        source = "int other(void) { return 4; }\n" + SOURCE
        assert CERBERUS.run(source).exit_status == 7
        assert CERBERUS.run(source, main="other").exit_status == 4
        assert self.memo_counts(fresh_global_cache) == (0, 2)

    def test_no_hit_crosses_the_budget(self, fresh_global_cache):
        from repro.errors import OutcomeKind
        from repro.robust import Budget
        unlimited = CERBERUS.run(SOURCE)
        cut = CERBERUS.run(SOURCE, budget=Budget(max_steps=2))
        roomy = CERBERUS.run(SOURCE, budget=Budget(max_steps=10_000))
        assert cut.kind is OutcomeKind.RESOURCE
        assert unlimited == roomy and roomy is not unlimited
        assert self.memo_counts(fresh_global_cache) == (0, 3)
        assert CERBERUS.run(SOURCE, budget=Budget(max_steps=2)) is cut
        assert self.memo_counts(fresh_global_cache) == (1, 3)

    def test_a_fault_plan_after_a_memoised_run_still_fires(
            self, fresh_global_cache):
        from repro.robust import FaultPlan
        CERBERUS.run(SOURCE)
        CERBERUS.run(SOURCE)
        assert self.memo_counts(fresh_global_cache) == (1, 1)
        faulted = CERBERUS.run(SOURCE, faults=FaultPlan(fail_alloc_index=0))
        assert faulted.limit == "fault"
        assert self.memo_counts(fresh_global_cache) == (1, 1)

    def test_the_core_evaluator_never_touches_the_memo(
            self, fresh_global_cache):
        CERBERUS.run(SOURCE)
        for _ in range(2):
            assert CERBERUS.run(SOURCE, evaluator="core").exit_status == 7
        assert self.memo_counts(fresh_global_cache) == (0, 1)
        assert fresh_global_cache.entry_counts()["memo"] == 1

    def test_the_memo_is_bounded_and_cleared(self, fresh_global_cache):
        from repro.perf import clear_cache
        from repro.perf.cache import MEMO_PER_ENTRY
        from repro.robust import Budget
        for steps in range(MEMO_PER_ENTRY + 5):
            CERBERUS.run(SOURCE, budget=Budget(max_steps=1_000 + steps))
        assert fresh_global_cache.entry_counts()["memo"] == MEMO_PER_ENTRY
        clear_cache()
        assert fresh_global_cache.entry_counts()["memo"] == 0

    def test_the_memo_goes_with_its_evicted_entry(self):
        from repro.perf.cache import CompileCache
        from repro.impls.config import memo_keys
        cache = CompileCache(maxsize=1, disk=None)
        keys = memo_keys(CERBERUS)
        _, program = cache.tiered(CERBERUS, SOURCE, keys)
        outcome = CERBERUS.run_compiled(program)
        cache.memoise(CERBERUS, SOURCE, keys, outcome, False)
        assert cache.tiered(CERBERUS, SOURCE, keys)[0] is outcome
        cache.core(CERBERUS, "int main(void) { return 1; }\n")  # evicts
        assert cache.entry_counts()["memo"] == 0
        assert cache.tiered(CERBERUS, SOURCE, keys)[0] is None


class TestMetricsUnderJobs:
    def test_worker_compiles_reach_the_metrics_table(self, tmp_path):
        """``--metrics`` under ``--jobs`` counts what the pool workers
        compiled, not just the parent's (empty) cache."""
        import os
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "suite", "--impl", "cerberus",
             "--jobs", "2", "--metrics", "--cache-dir",
             str(tmp_path / "fresh-cache")],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True,
            timeout=300, check=False)
        assert proc.returncode == 0, proc.stdout
        assert "compiles performed: 94" in proc.stdout
        assert "  memo " in proc.stdout


class TestBenchGateSkipReason:
    """benchmarks/bench_engine.py records *why* a gate did not apply."""

    @staticmethod
    def bench_module():
        import importlib.util
        path = pathlib.Path(__file__).parent.parent / "benchmarks" / \
            "bench_engine.py"
        spec = importlib.util.spec_from_file_location("bench_engine",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_single_core_skips_with_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(4, 1) == "cores<2"
        assert bench.throughput_gate_skip_reason(4, None) == "cores<2"

    def test_serial_request_skips_with_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(1, 8) == "jobs<2"

    def test_applicable_gate_has_no_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(4, 8) == ""


class TestBenchGateVerdict:
    """benchmarks/bench_engine.py reports a missed performance gate as
    a gate failure, never as non-determinism."""

    bench_module = staticmethod(TestBenchGateSkipReason.bench_module)

    REPORTS = dict(
        compare_reports={"serial": "r", "cached": "r", "parallel": "r"},
        fuzz_signatures={"serial": ["g"], "parallel": ["g"]},
        warm_reports={"cold": "r", "warm": "r"},
        evaluator_reports={"core": "r", "compiled": "r",
                           "fuzz_core": "f", "fuzz_compiled": "f"},
    )

    @staticmethod
    def timings(speedup_parallel=2.0, compiled=56.0, ratio=1.5):
        return dict(
            warm={"compiles_performed": 0},
            allocator={"policy_grid_extra_compiles": 0},
            evaluator={"speedup_compiled_compliance": compiled,
                       "compliance_compiled_s": 0.1,
                       "compliance_core_s": 0.1 * compiled},
            fuzz={"speedup_parallel": speedup_parallel},
            coverage={"guided_blind_ratio": ratio,
                      "guided_ops_per_1k": 1.0, "blind_ops_per_1k": 1.0},
        )

    def test_parallel_gate_miss_is_a_gate_failure(self):
        bench = self.bench_module()
        mismatches = bench.report_mismatches(**self.REPORTS)
        gates = bench.failed_gates(**self.timings(speedup_parallel=1.058),
                                   jobs=2, cores=2, programs=120)
        assert mismatches == []
        assert [name for name, _ in gates] == ["parallel-fuzz-1.5x"]
        assert bench.verdict(mismatches, gates) == "GATE FAIL"

    def test_every_gate_is_named(self):
        bench = self.bench_module()
        timings = self.timings(speedup_parallel=1.0, compiled=1.5,
                               ratio=1.0)
        timings["warm"]["compiles_performed"] = 3
        timings["allocator"]["policy_grid_extra_compiles"] = 1
        gates = bench.failed_gates(**timings, jobs=2, cores=2,
                                   programs=120)
        assert [name for name, _ in gates] == [
            "warm-start-compiles", "allocator-grid-compiles",
            "compiled-2x", "parallel-fuzz-1.5x", "coverage"]

    def test_skipped_gates_do_not_fail(self):
        bench = self.bench_module()
        timings = self.timings(speedup_parallel=1.0, ratio=1.0)
        assert bench.failed_gates(**timings, jobs=2, cores=1,
                                  programs=50) == []

    def test_report_mismatch_is_divergence(self):
        bench = self.bench_module()
        reports = dict(self.REPORTS,
                       fuzz_signatures={"serial": ["g"], "parallel": []})
        mismatches = bench.report_mismatches(**reports)
        assert mismatches == ["parallel fuzz report diverges from serial"]
        gates = bench.failed_gates(**self.timings(speedup_parallel=1.0),
                                   jobs=2, cores=2, programs=120)
        assert bench.verdict(mismatches, gates) == "DIVERGENCE"
        assert bench.verdict([], []) == "OK"


class TestCompileRunSplit:
    def test_run_compiled_reusable_across_runs(self):
        program = compile_core(CERBERUS, SOURCE)
        first = CERBERUS.run_compiled(program)
        second = CERBERUS.run_compiled(program)
        assert first == second
        assert first.exit_status == 7

    def test_frontend_error_still_an_outcome(self):
        outcome = CERBERUS.run(BAD_SOURCE)
        from repro.errors import OutcomeKind
        assert outcome.kind is OutcomeKind.ERROR


class TestSuiteSelection:
    def test_none_selects_full_suite(self):
        report = run_suite(CERBERUS, None)
        assert len(report.results) == len(all_cases())

    def test_empty_selection_is_empty_report(self):
        # The old truthiness fallback silently ran all 94 tests here.
        report = run_suite(CERBERUS, ())
        assert report.results == []
        assert (report.passed, report.failed, report.unclaimed) == (0, 0, 0)

    def test_explicit_selection_runs_exactly_those(self):
        picked = all_cases()[:3]
        report = run_suite(CERBERUS, picked)
        assert [r.case.name for r in report.results] == \
            [c.name for c in picked]


class TestMetricsGuards:
    def test_double_start_raises(self):
        metrics = Metrics().start()
        with pytest.raises(RuntimeError):
            metrics.start()

    def test_finish_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Metrics().finish()

    def test_start_finish_cycles_accumulate(self):
        metrics = Metrics()
        metrics.start()
        metrics.finish()
        first = metrics.wall_seconds
        metrics.start()
        metrics.finish()
        assert metrics.wall_seconds >= first

    def test_merge_sums(self):
        left = Metrics()
        left.count("derivations", 2)
        left.steps = 10
        left.wall_seconds = 0.5
        right = Metrics()
        right.count("derivations", 3)
        right.count("allocator.reserved_bytes", 16)
        right.steps = 5
        right.wall_seconds = 0.25
        left.merge(right)
        assert left.counters["derivations"] == 5
        assert left.counters["allocator.reserved_bytes"] == 16
        assert left.steps == 15
        assert left.wall_seconds == 0.75

    def test_merge_running_timer_raises(self):
        with pytest.raises(RuntimeError):
            Metrics().merge(Metrics().start())


def _square(value: int) -> int:
    return value * value


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == \
            parallel_map(_square, items, jobs=2) == \
            [v * v for v in items]

    def test_resolve_jobs(self):
        import os
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestParallelEquality:
    """Parallel runs must be bit-identical to serial ones."""

    CASES = all_cases()[:12]

    def test_suite_parallel_equals_serial(self):
        serial = run_suite(CERBERUS, self.CASES, jobs=1)
        parallel = run_suite(CERBERUS, self.CASES, jobs=2)
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in parallel.results]
        assert [r.passed for r in serial.results] == \
            [r.passed for r in parallel.results]

    def test_compare_parallel_equals_serial(self):
        serial = render_compliance(compare_implementations(
            ALL_IMPLEMENTATIONS, self.CASES, jobs=1))
        parallel = render_compliance(compare_implementations(
            ALL_IMPLEMENTATIONS, self.CASES, jobs=2))
        assert serial == parallel

    def test_fuzz_parallel_equals_serial(self):
        serial = run_fuzz(seed=3, iterations=8, shrink_budget=20, jobs=1)
        parallel = run_fuzz(seed=3, iterations=8, shrink_budget=20, jobs=2)
        assert serial.iterations == parallel.iterations
        assert serial.reference_counts == parallel.reference_counts
        assert [g.describe() for g in serial.sorted_groups()] == \
            [g.describe() for g in parallel.sorted_groups()]
        assert [(g.first_iteration, g.example.render())
                for g in serial.sorted_groups()] == \
            [(g.first_iteration, g.example.render())
             for g in parallel.sorted_groups()]
        assert sorted(g.minimized_source for g in serial.groups) == \
            sorted(g.minimized_source for g in parallel.groups)

    def test_suite_metrics_merge_parallel_equals_serial(self):
        serial = run_suite(CERBERUS, self.CASES, jobs=1,
                           with_metrics=True)
        parallel = run_suite(CERBERUS, self.CASES, jobs=2,
                             with_metrics=True)
        assert serial.metrics is not None
        assert serial.metrics.steps == parallel.metrics.steps
        # Wall time is timing-dependent; event counters are not.
        assert serial.metrics.counters == parallel.metrics.counters
        assert serial.metrics.steps > 0


class TestFuzzIterationSeeds:
    def test_iteration_seed_is_stable_and_hash_free(self):
        assert iteration_seed(0, 5) == "0:5"
        assert iteration_seed(12, 34) == "12:34"

    def test_program_reproducible_in_isolation(self):
        campaign = [program_for(7, i).render() for i in range(6)]
        # Recomputing any single iteration, in any order, matches.
        assert program_for(7, 4).render() == campaign[4]
        assert program_for(7, 0).render() == campaign[0]
        recomputed = [program_for(7, i).render()
                      for i in reversed(range(6))]
        assert recomputed == campaign[::-1]

    def test_distinct_iterations_differ(self):
        rendered = {program_for(0, i).render() for i in range(8)}
        assert len(rendered) > 1

    def test_distinct_campaigns_differ(self):
        assert [program_for(1, i).render() for i in range(4)] != \
            [program_for(2, i).render() for i in range(4)]

    def test_run_fuzz_examples_come_from_derived_seeds(self):
        report = run_fuzz(seed=3, iterations=6, shrink_budget=10)
        for group in report.groups:
            assert group.example.render() == \
                program_for(3, group.first_iteration).render()
