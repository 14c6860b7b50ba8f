#!/usr/bin/env python
"""The evaluator-differential gate (CI job ``evaluator-differential``).

The repository carries two execution strategies for the same
semantics: the iterative Core-IR evaluator
(:mod:`repro.core.coreeval`), the reference, and direct-threaded
closure dispatch (:mod:`repro.core.compile`, with superinstruction
fusion and constant folding).  The process default, ``compiled``,
runs the Core loop behind a run memo and threads nothing -- so on its
own it would run no closure here.  This gate therefore renders

* the full S5 compliance report (every implementation x every suite
  case), and
* a fixed-seed fuzz campaign report (default 500 generated programs,
  every divergence classified and minimized),

under three evaluators -- ``core``, the tiered default ``compiled``,
and ``threaded``, which threads every program and runs it by closure
dispatch with no memo -- serially and with a worker pool, and demands
the rendered reports be **byte-identical** to each other and -- where
one exists -- to the committed golden: ``tests/golden/compliance.txt``
for the S5 report, ``tests/golden/fuzz_seed0.txt`` /
``fuzz_seed0_500.txt`` for seed 0 at 12 / 500 programs.  Those goldens
were frozen while a third, recursive AST-walking evaluator still agreed
with both, so its verdicts remain part of the gate.  Outcome kinds,
exit codes, stdout, UB catalogue entries, step-metered budget cutoffs,
divergence grouping, and shrinker results all feed those renderings,
so a single differing byte fails the gate.

It additionally pins the ``--allocator bump`` identity: running the S5
grid and the fuzz campaign with an *explicit* ``bump`` allocator
override (the way ``repro compare --allocator bump`` builds them) must
be byte-identical to the default renderings -- the default allocator
axis is inert, so the pre-policy goldens all stand.

``FuzzReport.elapsed`` is wall-clock and is the one intentionally
nondeterministic field in the rendering; it is normalised to zero on
every report before comparison.

Exit status 0 = the evaluators and goldens agree; 1 = any report
differs (a unified diff is printed).
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
import time

from repro.core.coreeval import EVALUATORS, THREADED
from repro.fuzz import run_fuzz
from repro.impls import ALL_IMPLEMENTATIONS
from repro.reporting.tables import render_compliance, render_fuzz_summary
from repro.testsuite.compare import compare_implementations

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

#: Every strategy the gate compares: the reference, the tiered default,
#: and closure dispatch on every run.
ARMS = EVALUATORS + (THREADED,)

#: Committed fuzz renderings, by (seed, iterations).
FUZZ_GOLDENS = {(0, 12): "fuzz_seed0.txt", (0, 500): "fuzz_seed0_500.txt"}


def suite_rendering(evaluator: str, jobs: int) -> str:
    reports = compare_implementations(ALL_IMPLEMENTATIONS, jobs=jobs,
                                      evaluator=evaluator)
    return render_compliance(reports)


def fuzz_rendering(evaluator: str | None, jobs: int, seed: int,
                   iterations: int, **kwargs) -> str:
    report = run_fuzz(seed=seed, iterations=iterations, jobs=jobs,
                      evaluator=evaluator, **kwargs)
    # Wall-clock is the only nondeterministic field in the rendering.
    report.elapsed = 0.0
    return render_fuzz_summary(report)


def agree(label: str, renderings: dict[str, str]) -> bool:
    """Byte-identity of every rendering against the first one (the
    golden when there is one); prints a unified diff per mismatch."""
    names = list(renderings)
    baseline = renderings[names[0]]
    ok = True
    for other in names[1:]:
        text = renderings[other]
        if text == baseline:
            continue
        ok = False
        print(f"  {label}: REPORTS DIFFER ({names[0]} vs {other})")
        sys.stdout.writelines(difflib.unified_diff(
            baseline.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"{label} [{names[0]}]",
            tofile=f"{label} [{other}]"))
    if ok:
        print(f"  {label}: byte-identical across "
              f"{'/'.join(names)} ({len(baseline)} bytes)")
    return ok


def with_golden(name: str | None, renderings: dict[str, str]
                ) -> dict[str, str]:
    if name is None:
        return renderings
    return {"golden": (GOLDEN / name).read_text(), **renderings}


def bump_override_check(seed: int, iterations: int) -> bool:
    """``--allocator bump`` (the default policy made explicit) must
    change nothing: byte-identical S5 compliance and fuzz reports."""
    from repro.fuzz.oracle import FUZZ_TARGETS, allocator_fuzz_targets
    from repro.impls import with_allocator

    grid = tuple(with_allocator(impl, "bump")
                 for impl in ALL_IMPLEMENTATIONS)
    ok = agree("--allocator bump, S5 compliance report", {
        "default": render_compliance(
            compare_implementations(ALL_IMPLEMENTATIONS, jobs=1)),
        "bump": render_compliance(compare_implementations(grid, jobs=1)),
    })
    # The CLI's --allocator bump target construction: the identity
    # policy contributes no extra targets and leaves heap_reuse off.
    targets = FUZZ_TARGETS + allocator_fuzz_targets("bump")
    ok &= agree(f"--allocator bump, fuzz report ({iterations} programs)", {
        "default": fuzz_rendering(None, 1, seed, iterations),
        "bump": fuzz_rendering(None, 1, seed, iterations, targets=targets,
                               heap_reuse=False),
    })
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Require byte-identical suite and fuzz reports from "
                    "the Core loop, the tiered default, closure dispatch "
                    "and the goldens")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzz campaign seed (default: 0)")
    parser.add_argument("--fuzz-iterations", type=int, default=500,
                        metavar="N",
                        help="fuzz programs per campaign (default: 500)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker count for the parallel arm "
                             "(default: 4; the serial arm always runs)")
    args = parser.parse_args(argv)

    fuzz_golden = FUZZ_GOLDENS.get((args.seed, args.fuzz_iterations))
    ok = True
    for jobs, arm in ((1, "serial"), (args.jobs, f"--jobs {args.jobs}")):
        started = time.monotonic()
        ok &= agree(f"S5 compliance report, {arm}", with_golden(
            "compliance.txt",
            {e: suite_rendering(e, jobs) for e in ARMS}))
        ok &= agree(
            f"fuzz report (seed {args.seed}, "
            f"{args.fuzz_iterations} programs), {arm}",
            with_golden(fuzz_golden, {
                e: fuzz_rendering(e, jobs, args.seed,
                                  args.fuzz_iterations)
                for e in ARMS}))
        print(f"  [{arm} arm: {time.monotonic() - started:.1f}s]")
    ok &= bump_override_check(args.seed, min(args.fuzz_iterations, 50))
    print("evaluator-differential: "
          + ("PASS" if ok else "FAIL (reports disagree)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
