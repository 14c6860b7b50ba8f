"""The fuzz engine: coverage-guided campaigns and the blind window.

``run_campaign`` is the engine behind ``repro fuzz --guided --corpus-dir
DIR [--shard i/n] [--resume]``; blind fuzzing
(:func:`repro.fuzz.driver.run_fuzz`) is the same :func:`run_window`,
unsharded, over an empty snapshot.  The guided campaign adds:

* **Guidance.**  Every candidate's traced reference run yields a
  :class:`~repro.fuzz.coverage.Coverage` fingerprint; candidates whose
  fingerprint contains keys the corpus snapshot lacks are admitted as
  seeds, and once the corpus is non-empty most candidates are
  *mutations* of stored seeds (rarity-weighted scheduling, AFL-style)
  rather than fresh draws from the blind grammar.  The oracle
  classifies against that same traced run.

* **Dedup.**  Findings are keyed by the explainer's explaining
  signature (``repro.obs.explain.explaining_signature`` of the
  reference trace): one ``findings/<digest>.json`` per *distinct bug*,
  accumulating every witness program, instead of one report per
  duplicate discovery.

* **Sharding and resume.**  Candidate ``k`` is a pure function of
  ``(campaign seed, k, corpus snapshot)``; the snapshot is loaded once
  per invocation and **never updated mid-run**.  Shard ``i/n``
  evaluates exactly the global indices ``k % n == i`` of the same
  window, so ``--shard 0/2`` + ``--shard 1/2`` over one seed partition
  the unsharded campaign's work and their corpora merge byte-for-byte
  into what the unsharded run writes (every on-disk payload is a pure
  function of program + campaign seed; nothing records run order).
  ``state.json`` carries the window cursor, so ``--resume`` continues
  where a previous invocation -- or a killed one -- left off.
  Guidance still compounds across invocations: each new invocation
  snapshots the seeds every earlier window admitted.

The trade-off is honest: within one invocation, two shards of a window
mutate the *same* snapshot (determinism), so guidance sharpens only at
invocation boundaries.  Run campaigns as rounds of windows (the bench
coverage axis does exactly this) to get both properties at once.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

from repro.core.coreeval import set_default_evaluator
from repro.errors import OutcomeKind
from repro.fuzz.corpus import (
    FindingRecord,
    SeedEntry,
    atomic_write_text,
    load_findings,
    load_seed_corpus,
    record_witness,
    save_seed,
)
from repro.fuzz.coverage import Coverage, coverage_of
from repro.fuzz.generator import FuzzProgram, ProgramGenerator
from repro.fuzz.mutate import mutate
from repro.fuzz.oracle import FUZZ_TARGETS, evaluate_program
from repro.perf.cache import set_cache_enabled
from repro.perf.pool import TaskFailure, parallel_map, resolve_jobs
from repro.robust.budget import DEFAULT_FUZZ_BUDGET

#: ``state.json`` format version (bump on incompatible change).
STATE_VERSION = 1

#: Fraction of candidates drawn fresh from the blind grammar even when
#: the corpus is non-empty (AFL's havoc/import balance): pure mutation
#: of early seeds would trap the campaign in their neighbourhood.
FRESH_FRACTION = 0.2

#: Default window size when neither --iterations nor --time-budget is
#: given.
DEFAULT_ITERATIONS = 100


class CampaignError(RuntimeError):
    """A campaign invocation that cannot proceed (bad shard spec,
    seed/state mismatch, un-resumed prior state)."""


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/n"`` into ``(i, n)`` with ``0 <= i < n``."""
    try:
        index_text, _, total_text = text.partition("/")
        shard = (int(index_text), int(total_text))
    except ValueError:
        raise CampaignError(f"shard must look like i/n, got {text!r}") \
            from None
    if not 0 <= shard[0] < shard[1]:
        raise CampaignError(
            f"shard index must satisfy 0 <= i < n, got {text!r}")
    return shard


# ---------------------------------------------------------------------------
# Campaign state (the resume cursor)

def state_path(directory: pathlib.Path | str) -> pathlib.Path:
    return pathlib.Path(directory) / "state.json"


def load_state(directory: pathlib.Path | str) -> dict | None:
    """The campaign state, or ``None`` when absent or damaged."""
    try:
        payload = json.loads(
            state_path(directory).read_text(encoding="utf-8"))
        if payload.get("version") != STATE_VERSION:
            return None
        return {"version": STATE_VERSION,
                "seed": int(payload["seed"]),
                "shard": (int(payload["shard"][0]),
                          int(payload["shard"][1])),
                "next_index": int(payload["next_index"])}
    except Exception:                        # noqa: BLE001 - reader contract
        return None


def save_state(directory: pathlib.Path | str, seed: int,
               shard: tuple[int, int], next_index: int) -> pathlib.Path:
    payload = {"version": STATE_VERSION, "seed": seed,
               "shard": [shard[0], shard[1]], "next_index": next_index}
    return atomic_write_text(state_path(directory),
                             json.dumps(payload, indent=2,
                                        sort_keys=False) + "\n")


def merge_states(dest: pathlib.Path | str, sources) -> None:
    """Fold shard cursors into the canonical unsharded cursor.

    Shards of one campaign window agree on seed and ``next_index``;
    the merged state claims the full ``[0, 1]`` shard so the merged
    directory is resumable as (and byte-identical to) an unsharded
    campaign."""
    states = [s for s in (load_state(src) for src in sources)
              if s is not None]
    if not states:
        return
    seeds = {s["seed"] for s in states}
    if len(seeds) != 1:
        raise CampaignError(
            "cannot merge corpora from different campaign seeds: "
            f"{sorted(seeds)}")
    save_state(dest, seeds.pop(), (0, 1),
               max(s["next_index"] for s in states))


# ---------------------------------------------------------------------------
# The corpus snapshot and candidate derivation

def iteration_seed(seed: int, index: int) -> str:
    """The stable seed for candidate ``index`` of campaign ``seed``.

    A string, not ``hash((seed, index))``: :class:`random.Random` seeds
    strings through SHA-512, so the derivation is independent of
    ``PYTHONHASHSEED`` and identical on every platform.  Deriving per
    candidate (instead of drawing from one sequential stream) makes
    candidate ``i`` reproducible in isolation -- reordering, skipping,
    or fanning candidates across workers cannot change what any
    candidate is.
    """
    return f"{seed}:{index}"


@dataclass(frozen=True)
class Snapshot:
    """A campaign invocation's frozen view of its corpus.

    Loaded once at invocation start; mid-run admissions do not feed
    back (the shard-determinism contract).  ``weights`` are the
    rarity-weighted scheduler's per-entry draw weights; ``baseline``
    is the union of stored coverage keys that admission is judged
    against.  The empty snapshot is blind fuzzing's."""

    entries: tuple = ()
    weights: tuple = ()
    baseline: frozenset = frozenset()

    @property
    def pool(self) -> tuple:
        return tuple(entry.program for entry in self.entries)


def _scheduler_weights(entries) -> tuple:
    """Rarity-weighted scheduling: a seed holding keys few other seeds
    hold is mutated more often.  Key iteration is sorted so the float
    sum -- and therefore every ``rng.choices`` draw -- is identical on
    every platform and hash seed."""
    counts: dict[str, int] = {}
    for entry in entries:
        for key in entry.coverage.keys():
            counts[key] = counts.get(key, 0) + 1
    weights = []
    for entry in entries:
        rarity = sum(1.0 / counts[key]
                     for key in sorted(entry.coverage.keys()))
        weights.append(1.0 + rarity)
    return tuple(weights)


def take_snapshot(directory: pathlib.Path | str) -> Snapshot:
    entries = tuple(load_seed_corpus(directory))
    baseline = frozenset().union(
        *(entry.coverage.keys() for entry in entries)) \
        if entries else frozenset()
    return Snapshot(entries=entries,
                    weights=_scheduler_weights(entries),
                    baseline=baseline)


def derive_candidate(seed: int, index: int,
                     snapshot: Snapshot = Snapshot(),
                     heap_reuse: bool = False) -> tuple[FuzzProgram, str]:
    """Candidate ``index`` of campaign ``seed`` over ``snapshot``.

    Pure: the same arguments produce the same program on every shard,
    platform, and worker count.  With an empty snapshot this is blind
    fuzzing's program (:func:`repro.fuzz.driver.program_for`; its
    ``heap_reuse`` enables the generator's heap-reuse shapes), so a
    guided campaign's first window is an honest blind baseline.
    Returns ``(program, "fresh" | "mutant")``.
    """
    rng = random.Random(iteration_seed(seed, index))
    if snapshot.entries and rng.random() >= FRESH_FRACTION:
        entry = rng.choices(snapshot.entries,
                            weights=snapshot.weights, k=1)[0]
        return mutate(entry.program, rng, pool=snapshot.pool), "mutant"
    return ProgramGenerator(rng, heap_reuse=heap_reuse).generate(), "fresh"


# ---------------------------------------------------------------------------
# Candidate evaluation (worker bodies)

@dataclass(frozen=True)
class FuzzTask:
    """One candidate as a pool worker receives it: the program, then
    keyword-only settings.  ``targets=None`` stands for
    :data:`~repro.fuzz.oracle.FUZZ_TARGETS`, so the pickle does not
    carry the registry; ``classify=False`` probes coverage only."""

    program: FuzzProgram
    _: KW_ONLY
    targets: tuple | None = None
    budget: object = DEFAULT_FUZZ_BUDGET
    classify: bool = True

    @property
    def target_set(self) -> tuple:
        return FUZZ_TARGETS if self.targets is None else self.targets


@dataclass(frozen=True)
class CandidateResult:
    """What one guided candidate evaluation ships back from a worker."""

    coverage: Coverage
    signature: tuple | None
    label: str
    divergences: tuple = ()


def reference_label(outcome) -> str:
    """The reference-outcome label a report counts (``None`` = the
    reference crashed)."""
    if outcome is None:
        return "crash"
    if outcome.kind is OutcomeKind.EXIT:
        return "exit"
    return outcome.describe()


def _evaluate_candidate(task: FuzzTask) -> CandidateResult:
    """Worker body: probe coverage and (optionally) classify one
    candidate.  Top-level and argument-picklable for the pool; the
    serial path runs the identical function in-process."""
    # One traced reference run yields coverage, the dedup signature,
    # and the reference outcome -- evaluator pinned inside coverage_of,
    # never the campaign's choice (the determinism contract).  The
    # oracle classifies against that run instead of repeating it.
    probe = coverage_of(task.program, budget=task.budget)
    divergences: tuple = ()
    if task.classify:
        verdict = evaluate_program(
            task.program, task.target_set, attach_evidence=False,
            budget=task.budget, reference_run=(probe.outcome, probe.crash))
        divergences = tuple(verdict.divergences)
    return CandidateResult(
        coverage=probe.coverage, signature=probe.signature,
        label=(reference_label(probe.outcome) if task.classify
               else "unclassified"),
        divergences=divergences)


def _witness_payload(program: FuzzProgram, divergences) -> dict:
    """The finding witness for one program: a pure function of the
    program and the (deterministic) oracle verdict, so every shard
    that rediscovers it writes identical bytes."""
    observations = sorted(
        ({"impl": d.impl_name, "cause": d.cause.value,
          "reference": d.reference, "observed": d.observed}
         for d in divergences if d.is_finding),
        key=lambda o: (o["impl"], o["cause"], o["observed"]))
    return {"source": program.render(),
            "program": program.to_dict(),
            "observations": observations}


# ---------------------------------------------------------------------------
# The window runner (blind and guided)

def run_window(report, worker: Callable, consume: Callable, *,
               seed: int, snapshot: Snapshot = Snapshot(),
               heap_reuse: bool = False, start: int = 0,
               iterations: int | None = None,
               time_budget: float | None = None,
               shard: tuple[int, int] = (0, 1), targets=FUZZ_TARGETS,
               budget=DEFAULT_FUZZ_BUDGET, classify: bool = True,
               jobs: int = 1, use_cache: bool | None = None,
               evaluator: str | None = None,
               progress: Callable | None = None,
               **pool) -> tuple[int, dict[str, int]]:
    """Evaluate one window of candidates; return the cursor after it
    and the candidates' counts by origin (``fresh``/``mutant``).

    The window is ``[start, start + iterations)`` (default
    :data:`DEFAULT_ITERATIONS`); this shard takes the indices congruent
    to ``shard[0]`` mod ``shard[1]``.  Each is derived in the parent and
    evaluated as a :class:`FuzzTask` by ``worker`` through the pool
    (``pool``: ``task_timeout``/``fault_plan``/``bus``);
    ``consume(index, program, result)`` folds each result into
    ``report`` in index order and returns its reference label.  The
    runner keeps ``report.reference_counts`` and ``report.quarantined``
    (candidates whose worker died twice) and calls ``progress(count,
    report)`` after every candidate.

    A fixed count is one pool pass.  Under ``time_budget`` the window
    grows in chunks of ``4 * jobs * shards`` indices until the budget
    has elapsed, so it may overshoot by up to one chunk and the cursor
    lands on a chunk boundary.  ``evaluator`` and ``use_cache``
    (``None`` = keep) become this process's defaults, which reach pool
    workers through the initializer.
    """
    if iterations is None and time_budget is None:
        iterations = DEFAULT_ITERATIONS
    if evaluator is not None:
        set_default_evaluator(evaluator)
    if use_cache is not None:
        set_cache_enabled(use_cache)
    task_targets = None if targets is FUZZ_TARGETS else targets
    started = time.monotonic()
    derived: dict[str, int] = {}
    processed = 0

    def window(begin: int, end: int) -> None:
        nonlocal processed
        indices = [k for k in range(begin, end)
                   if k % shard[1] == shard[0]]
        candidates = [derive_candidate(seed, k, snapshot, heap_reuse)
                      for k in indices]
        tasks = [FuzzTask(program, targets=task_targets, budget=budget,
                          classify=classify)
                 for program, _ in candidates]
        results = parallel_map(worker, tasks, jobs=jobs, **pool)
        for k, (program, origin), result in zip(indices, candidates,
                                                 results):
            derived[origin] = derived.get(origin, 0) + 1
            if isinstance(result, TaskFailure):
                report.quarantined.append(k)
                label = "quarantined"
            else:
                label = consume(k, program, result)
            report.reference_counts[label] = \
                report.reference_counts.get(label, 0) + 1
            processed += 1
            if progress is not None:
                progress(processed, report)

    chunk = iterations if time_budget is None \
        else 4 * resolve_jobs(jobs) * shard[1]
    cursor = start
    while ((iterations is None or cursor - start < iterations)
           and (time_budget is None
                or time.monotonic() - started < time_budget)):
        end = cursor + chunk
        if iterations is not None:
            end = min(end, start + iterations)
        window(cursor, end)
        cursor = end
    return cursor, derived


# ---------------------------------------------------------------------------
# The campaign loop

@dataclass
class CampaignReport:
    """The result of one guided-campaign invocation."""

    seed: int
    shard: tuple[int, int]
    corpus_dir: pathlib.Path
    start_index: int = 0
    next_index: int = 0
    processed: int = 0
    elapsed: float = 0.0
    derived: dict[str, int] = field(default_factory=dict)
    reference_counts: dict[str, int] = field(default_factory=dict)
    #: Seed entry names admitted by this invocation (corpus growth).
    new_seeds: list[str] = field(default_factory=list)
    corpus_size: int = 0
    #: Finding digests first recorded by this invocation.
    new_bugs: list[str] = field(default_factory=list)
    new_witnesses: int = 0
    #: Finding divergences encountered this invocation (pre-dedup).
    finding_hits: int = 0
    #: Every distinct bug on disk after this invocation.
    findings: list[FindingRecord] = field(default_factory=list)
    covered: Coverage = field(default_factory=Coverage)
    #: Coverage keys this invocation reached beyond its snapshot.
    new_keys: int = 0
    quarantined: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when this invocation hit no finding-class divergence
        (known-cause divergences are expected and fine)."""
        return self.finding_hits == 0


def run_campaign(seed: int = 0,
                 iterations: int | None = None,
                 time_budget: float | None = None,
                 corpus_dir: pathlib.Path | str = None,
                 shard: tuple[int, int] = (0, 1),
                 resume: bool = False,
                 targets=FUZZ_TARGETS,
                 jobs: int = 1,
                 use_cache: bool | None = None,
                 budget=DEFAULT_FUZZ_BUDGET,
                 evaluator: str | None = None,
                 classify: bool = True,
                 fault_plan=None,
                 task_timeout: float | None = None,
                 bus=None,
                 progress: Callable[[int, "CampaignReport"], None]
                 | None = None,
                 ) -> CampaignReport:
    """Run one window of a coverage-guided campaign.

    The window is ``[start, start + iterations)`` global candidate
    indices, where ``start`` is 0 or -- under ``resume`` -- the stored
    cursor; this shard evaluates the indices congruent to its shard
    index.  Under a ``time_budget`` the window instead grows in chunks
    until the budget elapses (see :func:`run_window`).

    ``classify=False`` skips the differential oracle (coverage probe
    only) -- the bench coverage axis uses it to measure guidance
    without paying for the full target grid.  Everything else
    (``jobs``, ``use_cache``, ``budget``, ``evaluator``, fault
    injection) matches :func:`repro.fuzz.driver.run_fuzz`.
    """
    if corpus_dir is None:
        raise CampaignError("a guided campaign requires a corpus "
                            "directory (--corpus-dir)")
    if not 0 <= shard[0] < shard[1]:
        raise CampaignError(f"shard index must satisfy 0 <= i < n, "
                            f"got {shard[0]}/{shard[1]}")
    corpus_dir = pathlib.Path(corpus_dir)

    state = load_state(corpus_dir)
    if state is not None:
        if state["seed"] != seed:
            raise CampaignError(
                f"corpus at {corpus_dir} belongs to campaign seed "
                f"{state['seed']}, not {seed}")
        if not resume and state["next_index"] > 0:
            raise CampaignError(
                f"corpus at {corpus_dir} has prior campaign state "
                f"(cursor {state['next_index']}); pass resume=True / "
                "--resume to continue it, or use a fresh directory")
    start = state["next_index"] if (resume and state is not None) else 0

    snapshot = take_snapshot(corpus_dir)
    report = CampaignReport(seed=seed, shard=shard,
                            corpus_dir=corpus_dir, start_index=start)
    started = time.monotonic()

    def consume(index: int, program: FuzzProgram,
                result: CandidateResult) -> str:
        report.covered = report.covered.union(result.coverage)
        if result.coverage.keys() - snapshot.baseline:
            entry = SeedEntry.from_program(program, seed, result.coverage)
            save_seed(corpus_dir, entry)
            if entry.name not in report.new_seeds:
                report.new_seeds.append(entry.name)
        findings = [d for d in result.divergences if d.is_finding]
        if findings:
            report.finding_hits += len(findings)
            _, new_bug, new_witness = record_witness(
                corpus_dir, result.signature,
                _witness_payload(program, findings))
            if new_bug:
                from repro.fuzz.corpus import signature_digest
                report.new_bugs.append(signature_digest(result.signature))
            report.new_witnesses += int(new_witness)
        return result.label

    cursor, report.derived = run_window(
        report, _evaluate_candidate, consume, seed=seed,
        snapshot=snapshot, start=start, iterations=iterations,
        time_budget=time_budget, shard=shard, targets=targets,
        budget=budget, classify=classify, jobs=jobs, use_cache=use_cache,
        evaluator=evaluator, progress=progress, task_timeout=task_timeout,
        fault_plan=fault_plan, bus=bus)

    save_state(corpus_dir, seed, shard, cursor)
    report.next_index = cursor
    report.processed = sum(report.reference_counts.values())
    report.new_keys = len(report.covered.keys() - snapshot.baseline)
    report.corpus_size = len(load_seed_corpus(corpus_dir))
    report.findings = load_findings(corpus_dir)
    report.elapsed = time.monotonic() - started
    return report
