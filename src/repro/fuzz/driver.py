"""Blind fuzzing: generate, classify, aggregate, shrink, record.

``run_fuzz`` is the engine behind ``repro fuzz --seed N --iterations K
--time-budget S``: the campaign engine's corpus-less, unsharded window
(:func:`repro.fuzz.campaign.run_window`).  Divergences are aggregated
into groups keyed by (implementation, cause, outcome-kind pair); the
first program seen for each group is kept as its representative and
minimized by the shrinker once the window finishes, so **every
reported divergence carries a minimized program and a cause tag**.
Findings (unexplained divergences, interpreter crashes, frontend
rejections) additionally flip the report's ``ok`` bit and are written
to the regression corpus when a corpus directory is given.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable

# DEFAULT_ITERATIONS and iteration_seed stay importable from here.
from repro.fuzz.campaign import (  # noqa: F401
    DEFAULT_ITERATIONS,
    FuzzTask,
    derive_candidate,
    iteration_seed,
    reference_label,
    run_window,
)
from repro.fuzz.corpus import CorpusCase, save_case
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import (
    Cause,
    Divergence,
    FUZZ_TARGETS,
    FuzzTarget,
    evaluate_program,
)
from repro.fuzz.shrinker import shrink
from repro.robust.budget import DEFAULT_FUZZ_BUDGET


def program_for(seed: int, index: int,
                heap_reuse: bool = False) -> FuzzProgram:
    """Generate the program of iteration ``index`` in isolation: the
    empty-snapshot case of :func:`~repro.fuzz.campaign.derive_candidate`."""
    return derive_candidate(seed, index, heap_reuse=heap_reuse)[0]


def _evaluate_iteration(task: FuzzTask):
    """Worker body: classify one blind program.

    Top-level and argument-picklable so the worker pool can ship it;
    the serial path runs the identical function in-process.
    """
    return evaluate_program(task.program, task.target_set,
                            budget=task.budget)


def _kind_token(described: str) -> str:
    """The outcome-kind part of an ``Outcome.describe()`` string."""
    return described.split()[0].rstrip(":") if described else ""


def _group_key(div: Divergence) -> tuple[str, str, str, str]:
    return (div.impl_name, div.cause.value,
            _kind_token(div.reference), _kind_token(div.observed))


@dataclass
class DivergenceGroup:
    """All divergences sharing (implementation, cause, kind pair)."""

    impl_name: str
    cause: Cause
    reference_kind: str
    observed_kind: str
    count: int = 0
    first_iteration: int = 0
    example: FuzzProgram | None = None
    example_divergence: Divergence | None = None
    minimized_source: str | None = None
    minimized_outcomes: dict = field(default_factory=dict)

    @property
    def is_finding(self) -> bool:
        return self.cause.is_finding

    def describe(self) -> str:
        return (f"{self.impl_name:32s} {self.cause.value:20s} "
                f"{self.reference_kind:>5s} -> {self.observed_kind:<6s} "
                f"x{self.count}")


@dataclass
class FuzzReport:
    """The result of one fuzzing run."""

    seed: int
    iterations: int = 0
    elapsed: float = 0.0
    reference_counts: dict[str, int] = field(default_factory=dict)
    groups: list[DivergenceGroup] = field(default_factory=list)
    corpus_paths: list[pathlib.Path] = field(default_factory=list)
    trace_paths: list[pathlib.Path] = field(default_factory=list)
    #: Iteration indices whose pool worker died twice (retry exhausted);
    #: their programs were never classified (see docs/ROBUSTNESS.md).
    quarantined: list[int] = field(default_factory=list)

    @property
    def findings(self) -> list[DivergenceGroup]:
        return [g for g in self.groups if g.is_finding]

    @property
    def divergence_total(self) -> int:
        return sum(g.count for g in self.groups)

    @property
    def ok(self) -> bool:
        """True when every divergence has a known cause and nothing
        crashed -- the acceptance bar for a clean fuzz run."""
        return not self.findings

    def sorted_groups(self) -> list[DivergenceGroup]:
        return sorted(self.groups,
                      key=lambda g: (not g.is_finding, -g.count,
                                     g.impl_name, g.cause.value))


def _preserves_group(group: DivergenceGroup,
                     targets: tuple[FuzzTarget, ...],
                     signature: tuple | None = None,
                     budget=None):
    """Predicate: does a candidate still exhibit this group's failure?

    With ``signature`` set, the candidate must additionally preserve
    the reference trace's explaining signature -- the "same explaining
    event" shrink mode: minimisation may not swap the semantic cause
    (e.g. trade a bounds violation for a tag violation) even when the
    observable outcome pair stays the same.
    """
    subset = tuple(t for t in targets if t.impl.name == group.impl_name)

    def predicate(candidate: FuzzProgram) -> bool:
        verdict = evaluate_program(candidate, subset,
                                   attach_evidence=False, budget=budget)
        if not any(_group_key(d) == (group.impl_name, group.cause.value,
                                     group.reference_kind,
                                     group.observed_kind)
                   for d in verdict.divergences):
            return False
        if signature is not None:
            from repro.fuzz.evidence import reference_signature
            return reference_signature(candidate) == signature
        return True

    return predicate


def run_fuzz(seed: int = 0,
             iterations: int | None = None,
             time_budget: float | None = None,
             targets: tuple[FuzzTarget, ...] = FUZZ_TARGETS,
             shrink_budget: int = 200,
             corpus_dir: pathlib.Path | str | None = None,
             save_known: bool = False,
             trace_dir: pathlib.Path | str | None = None,
             preserve_explanation: bool = False,
             progress: Callable[[int, "FuzzReport"], None] | None = None,
             jobs: int = 1,
             use_cache: bool | None = None,
             budget=DEFAULT_FUZZ_BUDGET,
             fault_plan=None,
             task_timeout: float | None = None,
             bus=None,
             evaluator: str | None = None,
             heap_reuse: bool = False,
             ) -> FuzzReport:
    """Run the differential fuzzing loop.

    Stops after ``iterations`` programs or ``time_budget`` seconds,
    whichever comes first (defaults to :data:`DEFAULT_ITERATIONS` when
    neither is given).  Every divergence group's representative program
    is minimized before the report is returned.

    Each iteration draws from its own derived seed
    (:func:`iteration_seed`), so ``jobs > 1`` fans candidate evaluation
    across worker processes with results merged in iteration order --
    a parallel run with a fixed ``iterations`` count is bit-identical
    to the serial one.  Under ``time_budget`` it evaluates in chunks
    (see :func:`~repro.fuzz.campaign.run_window`).

    Every run is governed by ``budget`` (default
    :data:`~repro.robust.DEFAULT_FUZZ_BUDGET`, whose axes are all
    deterministic): a nonterminating or allocation-bombing candidate
    classifies as ``resource_exhausted`` instead of hanging the
    campaign.  Pass ``budget=None`` for ungoverned runs.  Iterations
    whose pool worker dies twice are recorded in
    ``report.quarantined`` (and counted under the ``quarantined``
    reference label) rather than aborting the campaign;
    ``fault_plan``/``task_timeout``/``bus`` feed the hardened pool
    (test-only / backstop / observability).

    ``trace_dir`` persists a full reference JSONL trace of every
    finding group's minimized reproducer.  ``preserve_explanation``
    makes shrinking of findings additionally preserve the reference
    trace's explaining signature (see :func:`_preserves_group`).

    ``evaluator`` (``core``/``compiled``/``None`` = process default)
    and ``use_cache`` become the parent's defaults for the whole run,
    which the pool initializer ships to every worker, so classification,
    minimisation, and evidence capture all run under the same settings.

    ``heap_reuse`` switches on the generator's free-then-malloc and
    dangling-read statement shapes (``repro fuzz --allocator ...``);
    off by default so the stock program stream is unchanged.
    """
    report = FuzzReport(seed=seed)
    groups: dict[tuple, DivergenceGroup] = {}
    started = time.monotonic()

    def consume(index: int, program: FuzzProgram, verdict) -> str:
        for div in verdict.divergences:
            key = _group_key(div)
            group = groups.get(key)
            if group is None:
                group = DivergenceGroup(
                    impl_name=div.impl_name, cause=div.cause,
                    reference_kind=key[2], observed_kind=key[3],
                    first_iteration=index, example=program,
                    example_divergence=div)
                groups[key] = group
                report.groups.append(group)
            group.count += 1
        return reference_label(verdict.reference)

    report.iterations, _ = run_window(
        report, _evaluate_iteration, consume, seed=seed,
        heap_reuse=heap_reuse, iterations=iterations,
        time_budget=time_budget, targets=targets, budget=budget,
        jobs=jobs, use_cache=use_cache, evaluator=evaluator,
        progress=progress, task_timeout=task_timeout,
        fault_plan=fault_plan, bus=bus)

    # Minimize every group's representative (cause-tagged evidence).
    for group in report.groups:
        if group.example is None:
            continue
        signature = None
        if preserve_explanation and group.is_finding:
            from repro.fuzz.evidence import reference_signature
            signature = reference_signature(group.example)
        predicate = _preserves_group(group, targets, signature, budget)
        try:
            minimized = shrink(group.example, predicate,
                               max_evals=shrink_budget)
        except ValueError:
            # The representative stopped reproducing under the
            # single-target subset (e.g. a crash consumed the example);
            # fall back to the unminimized program.
            minimized = group.example
        group.minimized_source = minimized.render()
        group.minimized_outcomes = dict(
            evaluate_program(minimized, targets, attach_evidence=False,
                             budget=budget).outcomes)

    if trace_dir is not None:
        import json as _json

        from repro.fuzz.corpus import atomic_write_text
        from repro.fuzz.evidence import capture_trace
        directory = pathlib.Path(trace_dir)
        for group in report.findings:
            if group.minimized_source is None:
                continue
            _outcome, recorder = capture_trace(group.minimized_source)
            stem = f"{group.impl_name}-{group.cause.value}".replace(
                ":", "_").replace("/", "_")
            path = directory / f"{stem}.jsonl"
            # Same publication discipline as the corpus stores: a
            # killed run leaves whole artefacts or none, never torn.
            atomic_write_text(path, "".join(
                _json.dumps(event) + "\n" for event in recorder.dicts()))
            atomic_write_text(directory / f"{stem}.c",
                              group.minimized_source)
            report.trace_paths.append(path)

    if corpus_dir is not None:
        from repro.fuzz.evidence import reference_signature
        for group in report.sorted_groups():
            if not (group.is_finding or save_known):
                continue
            if group.minimized_source is None:
                continue
            explaining = reference_signature(group.minimized_source)
            case = CorpusCase.from_outcomes(
                cause=group.cause.value, source=group.minimized_source,
                outcomes=group.minimized_outcomes, seed=seed,
                note=(f"{group.impl_name}: {group.reference_kind} -> "
                      f"{group.observed_kind}, seen x{group.count} "
                      f"(seed {seed})"),
                explaining=explaining)
            report.corpus_paths.append(save_case(corpus_dir, case))

    report.elapsed = time.monotonic() - started
    return report
