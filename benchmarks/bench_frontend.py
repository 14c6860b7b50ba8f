"""Frontend microbenchmarks: what one compile pays, stage by stage.

Every program the oracle runs is first lexed, parsed, optimised for its
``-O`` level and elaborated to Core (:mod:`repro.perf.cache` pays each
stage at most once per source, architecture and level).  These bodies
time each stage on its own, over two source sets: the 94 suite cases
and the ten blind-fuzz programs of seed 1 (the ``fuzz_blind``
benchmark workload's programs at ``--seed 1``).  Every body checks its
result, so

    python -m pytest benchmarks/bench_frontend.py -q --benchmark-disable

runs each body once as a smoke test.
"""

from __future__ import annotations

import pytest

from repro.core.clexer import tokenize
from repro.core.coreir import CoreProgram
from repro.core.cparser import parse_program
from repro.core.elaborate import elaborate_program
from repro.core.optimizer import optimize_program
from repro.fuzz import program_for
from repro.impls.registry import CLANG_MORELLO_O3
from repro.testsuite.suite import all_cases

LAYOUT = CLANG_MORELLO_O3.layout


def _sources(name: str) -> list[str]:
    if name == "suite":
        return [case.source for case in all_cases()]
    return [program_for(1, index).render() for index in range(10)]


@pytest.fixture(params=["suite", "fuzz-seed1"])
def sources(request):
    return _sources(request.param)


def test_bench_tokenize(benchmark, sources):
    out = benchmark(lambda: [tokenize(source) for source in sources])
    assert len(out) == len(sources)
    assert all(toks[-1].kind == "eof" and len(toks) > 10 for toks in out)


def test_bench_parse(benchmark, sources):
    out = benchmark(lambda: [parse_program(source, LAYOUT)
                             for source in sources])
    assert all(any(fn.name == "main" for fn in program.functions)
               for program in out)


def test_bench_optimize_o3(benchmark, sources):
    asts = [parse_program(source, LAYOUT) for source in sources]
    out = benchmark(lambda: [optimize_program(ast, LAYOUT, 3)
                             for ast in asts])
    assert len(out) == len(asts)
    assert all(any(fn.name == "main" for fn in program.functions)
               for program in out)


def test_bench_elaborate(benchmark, sources):
    programs = [optimize_program(parse_program(source, LAYOUT), LAYOUT, 3)
                for source in sources]
    out = benchmark(lambda: [elaborate_program(program)
                             for program in programs])
    assert all(isinstance(core, CoreProgram) and "main" in core.functions
               for core in out)
