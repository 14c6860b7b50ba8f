"""Cross-implementation comparison (the S5 experiment).

``run_suite`` checks every test against one implementation;
``compare_implementations`` reproduces the S5.1-S5.3 compliance report:
each implementation's pass/fail/no-claim counts plus the list of
divergences with their causes.

Both fan out across worker processes when ``jobs > 1``: every case run
is independent (a fresh memory model per run) and results are stitched
back in input order, so a parallel report is bit-identical to the
serial one.  Compilation is shared through :mod:`repro.perf.cache`, so
the 94 programs are parsed/optimised once per distinct compile
configuration instead of once per implementation.

Robustness (docs/ROBUSTNESS.md): a per-run ``budget`` turns hangs and
allocation bombs into ``resource_exhausted`` verdicts, and the hardened
pool retries crashed workers -- a case whose worker dies twice lands in
the report as *quarantined* (``Outcome.quarantined``) rather than
aborting the comparison, so the report always carries one verdict per
(implementation, case) cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import Outcome
from repro.impls.config import Implementation
from repro.memory.model import Mode
from repro.obs.metrics import Metrics
from repro.perf.pool import TaskFailure, parallel_map
from repro.testsuite.case import Expected, TestCase
from repro.testsuite.suite import all_cases


@dataclass
class CaseResult:
    case: TestCase
    outcome: Outcome
    expected: Expected | None      # None: the suite makes no claim here

    @property
    def passed(self) -> bool | None:
        if self.expected is None:
            return None
        if self.quarantined:
            # No run completed, so the suite's claim was never tested;
            # surfaced separately rather than counted as a failure.
            return None
        return self.expected.check(self.outcome)

    @property
    def quarantined(self) -> bool:
        return self.outcome.limit == "worker"


@dataclass
class SuiteReport:
    impl: Implementation
    results: list[CaseResult] = field(default_factory=list)
    #: Merged per-run metrics when the suite ran with ``with_metrics``;
    #: ``wall_seconds`` is total compute time across all case runs.
    metrics: Metrics | None = None

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed is True)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.passed is False)

    @property
    def unclaimed(self) -> int:
        return sum(1 for r in self.results
                   if r.passed is None and not r.quarantined)

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if r.passed is False]

    def summary_line(self) -> str:
        line = (f"{self.impl.name:32s} pass {self.passed:3d}  "
                f"fail {self.failed:3d}  no-claim {self.unclaimed:3d}")
        if self.quarantined:
            line += f"  quarantined {self.quarantined:3d}"
        return line


def _run_case(task) -> tuple[Outcome, Metrics | None]:
    """Worker body: one (implementation, case) run, optionally metered.

    Top-level so the worker pool can pickle it; the serial path calls
    it directly with the same tasks.
    """
    impl, case, with_metrics, use_cache, budget, evaluator = task
    bus = metrics = None
    if with_metrics:
        from repro.obs import EventBus
        bus = EventBus()
        metrics = Metrics().attach(bus).start()
    outcome = impl.run(case.source, bus=bus, use_cache=use_cache,
                       budget=budget, evaluator=evaluator)
    if metrics is not None:
        metrics.finish(steps=bus.step)
    return outcome, metrics


def _report_for(impl: Implementation, cases: tuple[TestCase, ...],
                runs: list, with_metrics: bool) -> SuiteReport:
    report = SuiteReport(impl, metrics=Metrics() if with_metrics else None)
    for case, run in zip(cases, runs):
        if isinstance(run, TaskFailure):
            outcome, metrics = Outcome.quarantined(run.error), None
        else:
            outcome, metrics = run
        expected = case.expected_for(
            impl.name,
            is_hardware=impl.mode is Mode.HARDWARE,
            opt_level=impl.opt_level)
        report.results.append(CaseResult(case, outcome, expected))
        if metrics is not None:
            report.metrics.merge(metrics)
    return report


def _default_task_timeout(budget, task_timeout):
    """A pool-level backstop over the per-run wall-clock budget: the
    worker should cut itself off at ``budget.deadline``, so a task that
    overruns severalfold is hung outside governed code."""
    if task_timeout is not None:
        return task_timeout
    if budget is not None and budget.deadline is not None:
        return budget.deadline * 4 + 1.0
    return None


def run_suite(impl: Implementation,
              cases: tuple[TestCase, ...] | None = None, *,
              jobs: int = 1,
              with_metrics: bool = False,
              use_cache: bool | None = None,
              budget=None,
              fault_plan=None,
              task_timeout: float | None = None,
              bus=None,
              evaluator: str | None = None) -> SuiteReport:
    """Run one implementation over ``cases`` (``None`` = the full
    suite; an explicitly empty selection yields an empty report).

    ``budget`` governs each case run (see :mod:`repro.robust`);
    ``fault_plan``/``task_timeout``/``bus`` drive the hardened pool
    (``fault_plan`` is test-only and ignored on the serial path).
    ``evaluator`` selects the execution strategy for every case run
    (``core``/``compiled``/``None`` = process default); it travels inside
    each task so worker processes apply it regardless of their own
    default.
    """
    if cases is None:
        cases = all_cases()
    cases = tuple(cases)
    tasks = [(impl, case, with_metrics, use_cache, budget, evaluator)
             for case in cases]
    runs = parallel_map(_run_case, tasks, jobs=jobs,
                        task_timeout=_default_task_timeout(budget,
                                                           task_timeout),
                        fault_plan=fault_plan, bus=bus)
    return _report_for(impl, cases, runs, with_metrics)


def compare_implementations(
        impls: tuple[Implementation, ...],
        cases: tuple[TestCase, ...] | None = None, *,
        jobs: int = 1,
        with_metrics: bool = False,
        use_cache: bool | None = None,
        budget=None,
        fault_plan=None,
        task_timeout: float | None = None,
        bus=None,
        evaluator: str | None = None) -> list[SuiteReport]:
    """The S5 compliance comparison over every implementation.

    The (implementation, case) grid is flattened into one task list so
    a worker pool load-balances across the whole comparison rather than
    one suite at a time.  Robustness knobs as in :func:`run_suite`.
    """
    if cases is None:
        cases = all_cases()
    cases = tuple(cases)
    tasks = [(impl, case, with_metrics, use_cache, budget, evaluator)
             for impl in impls for case in cases]
    runs = parallel_map(_run_case, tasks, jobs=jobs,
                        task_timeout=_default_task_timeout(budget,
                                                           task_timeout),
                        fault_plan=fault_plan, bus=bus)
    return [_report_for(impl, cases,
                        runs[i * len(cases):(i + 1) * len(cases)],
                        with_metrics)
            for i, impl in enumerate(impls)]
