"""Outside-in layer tracing for the benchmark's ``--trace`` runs.

Nothing under ``src/`` knows it is being traced.  :func:`install`
replaces the public functions of each pipeline layer -- at the binding
the caller actually resolves -- with wrappers that time every call,
and :meth:`Installed.restore` puts the originals back.  An untraced run
never calls :func:`install`, so it pays nothing.

Every wrapped call is a span with a name, start, end, parent span and
request id (the request is the outermost open span).  A span's *self*
time is its duration minus the time its child spans cover.  Spans of
the structural layers are kept in memory and written as JSONL when the
run ends; the substrate leaves (memory model, allocator, Concentrate
codec) run hundreds of thousands of times per repetition, so they are
only aggregated -- calls and self time -- and still subtract from their
parents' self time.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, request id) per kept span.
        self.spans: list[tuple] = []
        self.layers: dict[str, LayerStats] = {}
        #: Pure compiled runs served from the run memo.
        self.memo_hits = 0
        #: Wall time covered by spans opened with no span around them.
        self.toplevel_s = 0.0
        self._stack: list[list] = []
        self._next_id = 1

    def wrap(self, fn, name, keep: bool = True):
        """``fn`` timed as layer ``name``.

        ``name`` is a string or a function of the call's positional
        arguments (for layers split by receiver, e.g. allocator policy).
        ``keep=False`` aggregates the layer without storing its spans.
        """
        stack = self._stack
        spans = self.spans
        layers = self.layers
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = fixed or name(args, kwargs)
            if keep:
                span_id = self._next_id
                self._next_id = span_id + 1
            else:
                span_id = 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats = layers.get(layer)
                if stats is None:
                    stats = layers[layer] = LayerStats()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.toplevel_s += duration
                if keep:
                    parent = next((outer[0] for outer in reversed(stack)
                                   if outer[0]), None)
                    request = next((outer[0] for outer in stack
                                    if outer[0]), span_id)
                    spans.append((span_id, layer, start, end, parent,
                                  request))

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for _, layer, start, end, _, _ in self.spans
                if layer == name]

    def nested_calls(self, name: str, ancestor: str) -> int:
        """Kept spans of ``name`` with a ``ancestor`` span around them."""
        names = {span[0]: span[1] for span in self.spans}
        parents = {span[0]: span[4] for span in self.spans}
        found = 0
        for span_id, layer, *_ in self.spans:
            if layer != name:
                continue
            parent = parents[span_id]
            while parent is not None:
                if names[parent] == ancestor:
                    found += 1
                    break
                parent = parents[parent]
        return found

    def write_jsonl(self, path, origin: float) -> None:
        """Write every kept span as one JSON line, times in seconds
        relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": layer,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "request": request}) + "\n")


def percentile_ms(values: list[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (seconds) in milliseconds;
    0.0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100,
                                method="inclusive")[q - 1] * 1000.0


class Installed:
    """The wrappers of one :func:`install`; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _policy_layer(method: str):
    return lambda args, kwargs: f"memory.allocator.{args[0].policy}.{method}"


def _evaluator_of(kwargs) -> str:
    from repro.core.coreeval import default_evaluator
    return kwargs.get("evaluator") or default_evaluator()


def install(tracer: Tracer) -> Installed:
    """Wrap every traced layer; the caller must ``restore()``."""
    import repro.fuzz.campaign as campaign
    import repro.fuzz.driver as driver
    import repro.perf.cache as cache
    import repro.testsuite.compare as compare
    from repro.capability.concentrate import CompressedBounds
    from repro.core.compile import CompiledProgram
    from repro.fuzz.generator import ProgramGenerator
    from repro.impls.config import Implementation
    from repro.memory import allocator
    from repro.memory.model import MemoryModel
    from repro.perf.disk import DiskCache

    done = Installed()

    def module_fn(module, attr: str, name: str) -> None:
        done.replace(module, attr, tracer.wrap(getattr(module, attr), name))

    def method(cls, attr: str, name, keep: bool = True) -> None:
        done.replace(cls, attr, tracer.wrap(cls.__dict__[attr], name, keep))

    # Requests: one grid cell, one blind program, one guided candidate.
    module_fn(compare, "_run_case", "testsuite.compare.run_case")
    module_fn(driver, "_evaluate_iteration", "fuzz.driver.iteration")
    module_fn(campaign, "_evaluate_candidate", "fuzz.campaign.candidate")

    # Frontend and threading, at the names repro.perf.cache resolves.
    module_fn(cache, "parse_program", "core.cparser.parse")
    module_fn(cache, "optimize_program", "core.optimizer.optimize")
    module_fn(cache, "elaborate_program", "core.elaborate.elaborate")
    module_fn(cache, "compile_threaded_ir", "core.compile.thread")
    method(DiskCache, "load", "perf.disk.load")
    method(DiskCache, "store", "perf.disk.store")

    # Execution, split by evaluator; pure compiled runs that add no
    # run-memo entry were served from the memo.
    timed_run = tracer.wrap(
        Implementation.__dict__["run_compiled"],
        lambda args, kwargs: f"impls.run_compiled.{_evaluator_of(kwargs)}")

    def run_compiled(impl, program, *args, **kwargs):
        pure = (isinstance(program, CompiledProgram)
                and kwargs.get("bus") is None
                and kwargs.get("budget") is None
                and kwargs.get("faults") is None
                and _evaluator_of(kwargs) == "compiled")
        before = len(program.outcomes) if pure else -1
        outcome = timed_run(impl, program, *args, **kwargs)
        if pure and len(program.outcomes) == before:
            tracer.memo_hits += 1
        return outcome

    done.replace(Implementation, "run_compiled", run_compiled)

    # Substrate leaves: aggregated only.
    method(MemoryModel, "load", "memory.model.load", keep=False)
    method(MemoryModel, "store", "memory.model.store", keep=False)
    method(MemoryModel, "_allocate", "memory.model.allocate", keep=False)
    method(MemoryModel, "free", "memory.model.free", keep=False)
    method(allocator.AllocatorPolicy, "allocate", _policy_layer("allocate"),
           keep=False)
    for cls in (allocator.AllocatorPolicy, allocator.FreeListAllocator,
                allocator.QuarantineAllocator):
        method(cls, "release", _policy_layer("release"), keep=False)
    method(CompressedBounds, "decode", "capability.concentrate.decode",
           keep=False)
    encode = CompressedBounds.__dict__["encode"].__func__
    done.replace(CompressedBounds, "encode", classmethod(
        tracer.wrap(encode, "capability.concentrate.encode", keep=False)))

    # Fuzzing: the driver's and the campaign's own bindings.
    module_fn(driver, "evaluate_program", "fuzz.oracle.evaluate")
    module_fn(driver, "shrink", "fuzz.shrinker.shrink")
    module_fn(campaign, "evaluate_program", "fuzz.oracle.evaluate")
    module_fn(campaign, "coverage_of", "fuzz.coverage.coverage_of")
    module_fn(campaign, "mutate", "fuzz.mutate.mutate")
    for attr in ("save_seed", "record_witness", "save_state"):
        module_fn(campaign, attr, "fuzz.corpus.write")
    for attr in ("load_seed_corpus", "load_findings", "load_state"):
        module_fn(campaign, attr, "fuzz.corpus.read")
    method(ProgramGenerator, "generate", "fuzz.generator.generate")
    return done
