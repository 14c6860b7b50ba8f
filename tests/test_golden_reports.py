"""Golden-output regression tests for the deterministic paper artefacts.

The Appendix-A trace, the Figure-1 layout, and the S5 compliance report
are fully deterministic, so any change to their regenerated text signals
a semantic change in capability printing, allocator address policy, the
encoding layout, or an implementation's behaviour on the 94-test suite.
The seed-0 fuzz reports (12 and 500 programs) pin generation,
divergence classification, and shrinking the same way; they were
frozen while three evaluators still agreed on them, and the 500-program
one is checked by ``scripts/evaluator_differential.py``.
The golden copies live in ``tests/golden/``; refresh them deliberately
when a change is intended:

    pytest benchmarks/bench_appendix_a.py benchmarks/bench_figure1.py \
        --benchmark-only
    cp benchmarks/reports/{appendix_a,figure1}.txt tests/golden/
    python -c "from tests.test_golden_reports import regenerate_compliance; \
        print(regenerate_compliance(), end='')" > tests/golden/compliance.txt
    python -c "from tests.test_golden_reports import regenerate_fuzz; \
        print(regenerate_fuzz(12), end='')" > tests/golden/fuzz_seed0.txt
"""

import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

# The paper's Appendix A listing, verbatim.
APPENDIX_SRC = r"""
#include <stdint.h>
#include <stdio.h>
#include <limits.h>
#include "capprint.h"

int main(void) {
  int x[2]={42,43};
  intptr_t ip = (intptr_t)&x;
  fprintf(stderr,"cap %" PTR_FMT "\n", sptr((void*)ip));
  intptr_t ip2 = ip & UINT_MAX;
  fprintf(stderr,"cap&uint %" PTR_FMT "\n", sptr((void*)ip2));
  intptr_t ip3 = ip & INT_MAX;
  fprintf(stderr,"cap&int %" PTR_FMT "\n", sptr((void*)ip3));
}
"""


def regenerate_appendix() -> str:
    from repro.impls import APPENDIX_IMPLEMENTATIONS
    blocks = []
    for impl in APPENDIX_IMPLEMENTATIONS:
        out = impl.run(APPENDIX_SRC)
        blocks.append(f"{impl.name}:\n{out.stdout}")
    return "\n".join(blocks)


def regenerate_figure1() -> str:
    import importlib.util
    import sys
    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_figure1", bench_dir / "bench_figure1.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.render_figure1()
    finally:
        sys.path.remove(str(bench_dir))


def regenerate_compliance() -> str:
    from repro.impls.registry import ALL_IMPLEMENTATIONS
    from repro.reporting.tables import render_compliance
    from repro.testsuite.compare import compare_implementations
    return render_compliance(compare_implementations(ALL_IMPLEMENTATIONS))


def regenerate_fuzz(iterations: int, evaluator: str | None = None) -> str:
    from repro.fuzz import run_fuzz
    from repro.reporting.tables import render_fuzz_summary
    report = run_fuzz(seed=0, iterations=iterations, evaluator=evaluator)
    report.elapsed = 0.0  # wall clock: the one nondeterministic field
    return render_fuzz_summary(report)


def test_appendix_a_is_stable():
    assert regenerate_appendix() == (GOLDEN / "appendix_a.txt").read_text()


def test_figure1_is_stable():
    assert regenerate_figure1() == (GOLDEN / "figure1.txt").read_text()


def test_compliance_report_is_stable():
    """The full S5 comparison (7 implementations x 94 tests) renders
    byte-identically run over run; a diff here means an implementation's
    observable behaviour moved."""
    assert regenerate_compliance() == (GOLDEN / "compliance.txt").read_text()


@pytest.mark.parametrize("evaluator", ["core", "compiled"])
def test_fuzz_report_is_stable(evaluator):
    """A 12-program seed-0 fuzz report renders identically under both
    evaluators and matches the frozen golden."""
    assert regenerate_fuzz(12, evaluator) == \
        (GOLDEN / "fuzz_seed0.txt").read_text()
