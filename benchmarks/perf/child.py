"""One workload in one fresh process: set up, then measure.

``run.py`` starts this script once per workload run (and, for untraced
runs, a few more times with ``--setup-only`` to sample set-up time) and
reads the JSON object it prints as its last line.  Set-up -- importing
the pipeline, warm-up, cache fill -- ends at ``setup_done``, a
``time.monotonic()`` reading the parent compares with its own reading
from before the spawn.

The timed loop comes first.  Then, off the clock, the expected output
and the implementation runs of one repetition are established (see
``Workload.expected``) and every repetition's output is checked.

An untraced run installs no wrapper while the clock runs.  A traced run
first repeats the workload untraced for a third of its time, then
installs the layer wrappers of :mod:`tracing` for the rest, so
``trace.overhead`` compares repetitions of the same work in the same
process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
#: Run-time output (scratch caches and corpora, span traces); ignored
#: by git.
OUT = HERE / ".out"

#: End-to-end metrics the child measures (run.py adds ``setup_s`` and
#: ``setup_rss_mb``).
END_TO_END_UNITS = {"runs_per_s": "1/s"}

#: Layers reported as ``<layer>.calls`` (per repetition) and
#: ``<layer>.self_share`` (self time over traced wall time).
LAYERS = (
    "testsuite.compare.run_case",
    "fuzz.driver.iteration",
    "fuzz.campaign.candidate",
    "core.cparser.parse",
    "core.optimizer.optimize",
    "core.elaborate.elaborate",
    "core.compile.thread",
    "perf.disk.load",
    "perf.disk.store",
    "impls.run_compiled.compiled",
    "impls.run_compiled.core",
    "memory.model.load",
    "memory.model.store",
    "memory.model.allocate",
    "memory.model.free",
    "memory.allocator.bump.allocate",
    "memory.allocator.bump.release",
    "memory.allocator.freelist.allocate",
    "memory.allocator.freelist.release",
    "memory.allocator.quarantine.allocate",
    "memory.allocator.quarantine.release",
    "capability.concentrate.encode",
    "capability.concentrate.decode",
    "fuzz.oracle.evaluate",
    "fuzz.shrinker.shrink",
    "fuzz.coverage.coverage_of",
    "fuzz.mutate.mutate",
    "fuzz.corpus.write",
    "fuzz.corpus.read",
    "fuzz.generator.generate",
)
#: Layers whose children matter as much as their own code: also
#: reported as ``<layer>.total_share``.
TOTAL_SHARE_LAYERS = ("fuzz.oracle.evaluate", "fuzz.shrinker.shrink",
                      "fuzz.coverage.coverage_of")
CACHE_LAYERS = ("parse", "compiled", "core", "threaded", "disk")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.calls", "count", "lower"))
        spec.append((f"{layer}.self_share", "ratio", "lower"))
    spec += [(f"{layer}.total_share", "ratio", "lower")
             for layer in TOTAL_SHARE_LAYERS]
    spec += [
        ("impls.run_compiled.compiled.p50_ms", "ms", "lower"),
        ("impls.run_compiled.compiled.p99_ms", "ms", "lower"),
        ("impls.run_compiled.compiled.memo_hits", "count", "higher"),
        ("fuzz.shrinker.shrink.evals", "count", "lower"),
        ("fuzz.coverage.ops_covered", "count", "higher"),
    ]
    for layer in CACHE_LAYERS:
        spec.append((f"perf.cache.{layer}.hits", "count", "higher"))
        spec.append((f"perf.cache.{layer}.misses", "count", "lower"))
    spec += [
        ("perf.cache.compiles_performed", "count", "lower"),
        ("trace.covered_ratio", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.rep_s", "s", "lower"),
    ]
    return spec


class _Outputs:
    """Checks every repetition's output against the first one, and the
    first against the expected one."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, result) -> None:
        output = self.workload.observe(result)
        if self.first is None:
            self.first = output
        elif output != self.first:
            self.problems.append(f"{self.workload.name}: a repetition "
                                 f"rendered differently from the first")
        self.attempted += self.workload.items
        self.failed += self.workload.failed(result)

    def check(self) -> int:
        """Check the first output against the expected one (off the
        clock); returns the implementation runs of one repetition."""
        expected, runs, problems = self.workload.expected()
        self.problems += problems
        if self.first != expected:
            self.problems.append(f"{self.workload.name}: output differs "
                                 f"from the expected output")
        return runs


def _repeat(workload, outputs: _Outputs, budget: float,
            after_rep=None) -> list[float]:
    """Closed loop: repeat until the next repetition would overrun
    ``budget`` seconds (at least once); returns each repetition's wall
    time."""
    walls: list[float] = []
    started = perf_counter()
    while True:
        workload.prepare()
        # Each repetition starts from a clean heap, as a fresh process
        # would, instead of paying for the previous one's garbage.
        gc.collect()
        start = perf_counter()
        result = workload.run()
        walls.append(perf_counter() - start)
        outputs.record(result)
        if after_rep is not None:
            after_rep()
        if perf_counter() - started + statistics.median(walls) > budget:
            return walls


def _rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(tracer, walls, untraced, cache_totals, output) -> dict:
    from tracing import LayerStats, percentile_ms
    reps = len(walls)
    wall = sum(walls)
    values = {}
    for layer in LAYERS:
        stats = tracer.layers.get(layer, LayerStats())
        values[f"{layer}.calls"] = stats.calls / reps
        values[f"{layer}.self_share"] = stats.self_s / wall
    for layer in TOTAL_SHARE_LAYERS:
        stats = tracer.layers.get(layer, LayerStats())
        values[f"{layer}.total_share"] = stats.total_s / wall
    runs = tracer.durations("impls.run_compiled.compiled")
    values["impls.run_compiled.compiled.p50_ms"] = percentile_ms(runs, 50)
    values["impls.run_compiled.compiled.p99_ms"] = percentile_ms(runs, 99)
    values["impls.run_compiled.compiled.memo_hits"] = tracer.memo_hits / reps
    values["fuzz.shrinker.shrink.evals"] = tracer.nested_calls(
        "fuzz.oracle.evaluate", "fuzz.shrinker.shrink") / reps
    values["fuzz.coverage.ops_covered"] = output.get("ops_covered", 0)
    for key, total in cache_totals.items():
        values[f"perf.cache.{key}"] = total / reps
    values["trace.covered_ratio"] = tracer.toplevel_s / wall
    values["trace.overhead"] = \
        statistics.median(walls) / statistics.median(untraced) - 1.0
    values["trace.rep_s"] = statistics.median(walls)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def measure(workload, seconds: float, trace: bool = False,
            trace_dir: pathlib.Path | None = None) -> dict:
    """Measure a set-up ``workload`` for ``seconds`` and check every
    output.  Returns the result fields run.py prints."""
    outputs = _Outputs(workload)
    if not trace:
        walls = _repeat(workload, outputs, seconds)
        runs = outputs.check()
        metrics = {"runs_per_s": {"value": runs / statistics.median(walls),
                                  "unit": END_TO_END_UNITS["runs_per_s"]}}
    else:
        from repro.perf import global_cache
        from tracing import Tracer, install

        untraced = _repeat(workload, outputs, seconds / 3.0)
        cache_totals = {f"{layer}.{kind}": 0 for layer in CACHE_LAYERS
                        for kind in ("hits", "misses")}
        cache_totals["compiles_performed"] = 0

        def add_cache_stats() -> None:
            stats = global_cache().stats
            for layer in CACHE_LAYERS:
                cache_totals[f"{layer}.hits"] += stats.layer(layer).hits
                cache_totals[f"{layer}.misses"] += stats.layer(layer).misses
            cache_totals["compiles_performed"] += stats.compiles_performed

        tracer = Tracer()
        origin = perf_counter()
        installed = install(tracer)
        try:
            walls = _repeat(workload, outputs, seconds * 2.0 / 3.0,
                            after_rep=add_cache_stats)
        finally:
            installed.restore()
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(trace_dir / f"{workload.name}.jsonl", origin)
        runs = outputs.check()
        metrics = _per_layer(tracer, walls, untraced, cache_totals,
                             outputs.first)
    return {"correct": not outputs.problems,
            # Includes the reference pass; printed, not a metric, because
            # a fuzz run's memory depends on its seed (56-110 MB for
            # ten blind seeds).
            "peak_rss_mb": _rss_mb(),
            "item": workload.item,
            "attempted": outputs.attempted,
            "failed": outputs.failed,
            "problems": outputs.problems,
            "reps": len(walls),
            "runs": runs,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload in this process "
                    "(started by run.py).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=pathlib.Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = OUT / "work" / f"{args.workload}-{os.getpid()}"
    # Nothing may fall back to ~/.cache: every disk cache lives here.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    from workloads import make
    workload = make(args.workload, scratch, seed=args.seed)
    try:
        workload.setup()
        result = {"setup_done": time.monotonic(), "setup_rss_mb": _rss_mb()}
        if not args.setup_only:
            result.update(measure(workload, args.seconds,
                                  trace=bool(args.trace),
                                  trace_dir=args.trace_dir))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
