"""Deterministic, fault-tolerant multiprocessing fan-out with
persistent warm workers.

Every run in this codebase is a pure function of its inputs: an
implementation configuration plus a program (each run builds a fresh
:class:`~repro.memory.model.MemoryModel`, and nothing reads the clock or
global mutable state during interpretation).  :func:`parallel_map`
exploits that: it fans items across a process pool and returns results
**in input order**, so a parallel run is bit-identical to the serial
one -- the scheduling of workers can never leak into a report.

Workers are **long-lived**: one process-wide
:class:`ProcessPoolExecutor` is created on first use and reused across
``parallel_map`` calls, so each worker's process-local
:class:`~repro.perf.cache.CompileCache` stays populated from task to
task and from call to call.  Before PR 8 every call (and every retry)
built and tore down its own executor, which is why ``--jobs N`` ran
*slower* than serial on real workloads: workers were born cold,
recompiled everything, and died with their caches.  The warm pool plus
the shared on-disk cache layer (:mod:`repro.perf.disk`, whose
configuration ships to every worker through the pool initializer) is
what makes fan-out pay.  Task groups are sized from the *measured*
per-item cost of previous calls (:data:`_CHUNK_TARGET_SECONDS` of work
per group), so cheap items batch enough to amortise IPC while expensive
items keep groups small for load balance and prompt hang detection.

The pool is *hardened* (docs/ROBUSTNESS.md): a worker that crashes
(``os._exit``, OOM kill, segfault) or blows its per-task deadline does
not take the run with it.  Deadlines are tracked **incrementally**
(``wait(..., FIRST_COMPLETED)`` with a per-group allowance) so a hung
worker is detected within roughly ``task_timeout`` of its group's
start, not after the whole batch's collective budget.  The affected
items are retried -- once by default -- each in its own single-item
single-worker executor after an exponential backoff, so one bad item
cannot poison its neighbours twice; a broken or hung persistent pool is
torn down and rebuilt warm (from the disk cache) on the next call.
Items that still fail come back as :class:`TaskFailure` sentinels in
their input slot, which the callers (``run_suite`` /
``compare_implementations`` / ``run_fuzz``) render as *quarantined*
per-case verdicts instead of aborting.  Because a transient fault is
retried to completion, the stitched result list -- and therefore the
final report -- stays identical to a fault-free serial run.

``jobs <= 1`` (or a single item) short-circuits to a plain in-process
list comprehension: the serial path and the parallel path execute the
same worker function on the same items, differing only in *where*.
Environments without working multiprocessing primitives (restricted
sandboxes) fall back to the serial path rather than failing.  Neither
serial path consults the test-only :class:`~repro.robust.FaultPlan`;
fault-plan runs always use a dedicated throwaway executor so injected
kills and hangs can never leave a poisoned persistent pool behind.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Slot marker for "no result yet" (distinct from any fn() result).
_PENDING = object()

#: Exceptions that mean "the worker died under us", not "fn raised":
#: these are retried; anything else propagates (a bug in fn is a bug).
_WORKER_DEATH = (BrokenProcessPool, OSError, EOFError)

#: Exceptions that mean "no usable multiprocessing primitives here"
#: when raised by executor construction (e.g. /dev/shm sealed off).
_NO_MULTIPROCESSING = (OSError, PermissionError, ImportError, ValueError)

#: The fault plan installed in this worker process (tests only).
_WORKER_PLAN = None

#: Target wall-clock work per task group: long enough to amortise one
#: submit/result round-trip, short enough for load balance and prompt
#: hang detection.
_CHUNK_TARGET_SECONDS = 0.25

#: EWMA of measured per-item cost, keyed per worker function, feeding
#: the next call's chunk sizing.
_COST_ESTIMATES: dict[str, float] = {}


@dataclass(frozen=True)
class TaskFailure:
    """Input-slot sentinel for an item whose worker died repeatedly.

    Attributes:
        index: the item's input index.
        error: one-line description of the last failure.
        attempts: how many times the item was attempted.
    """

    index: int
    error: str
    attempts: int


def resolve_jobs(jobs: int | None) -> int:
    """Translate a CLI ``--jobs`` value: ``None``/``0`` = all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _init_worker(plan, engine_config=None) -> None:
    """Worker initializer: install the fault plan (tests only) and the
    parent's engine configuration (disk-cache layer), so a spawned or
    recycled worker resolves the same shared cache directory as the
    parent instead of its own defaults."""
    global _WORKER_PLAN
    _WORKER_PLAN = plan
    if engine_config is not None:
        from repro.perf.cache import apply_worker_config
        apply_worker_config(engine_config)


def _run_group(fn, pairs):
    """Run one task group ``[(index, item), ...]`` inside a worker.

    Grouping amortises IPC: one submit/result round-trip carries many
    items.  The fault plan (if any) is consulted per *item index*, so a
    planned kill targets the same logical task regardless of grouping.
    Returns ``(values, elapsed_seconds, cache_stats)``: the elapsed time
    feeds the parent's per-item cost estimate for future chunk sizing,
    and the group's compile-cache stats are added to the parent's
    (:func:`repro.perf.cache.add_worker_stats`).
    """
    from repro.perf.cache import CacheStatsSet, global_cache
    plan = _WORKER_PLAN
    out = []
    # Count this group only: not the previous groups', nor what a
    # forked worker inherited from its parent.
    global_cache().stats = CacheStatsSet()
    started = time.perf_counter()
    for index, item in pairs:
        if plan is not None:
            plan.maybe_kill(index)
        out.append(fn(item))
    return out, time.perf_counter() - started, global_cache().stats


def _fn_cost_key(fn) -> str:
    return (f"{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', repr(fn))}")


def _record_cost(fn, items: int, seconds: float) -> None:
    if items <= 0 or seconds <= 0.0:
        return
    per_item = seconds / items
    key = _fn_cost_key(fn)
    previous = _COST_ESTIMATES.get(key)
    _COST_ESTIMATES[key] = per_item if previous is None \
        else 0.5 * previous + 0.5 * per_item


def _auto_chunksize(fn, count: int, jobs: int) -> int:
    """Group size targeting :data:`_CHUNK_TARGET_SECONDS` of measured
    work per group, bounded so every worker gets at least ~2 groups
    (load balance).  With no measurement yet (first call for this fn),
    fall back to the static jobs*4 split."""
    cost = _COST_ESTIMATES.get(_fn_cost_key(fn))
    if cost is None or cost <= 0.0:
        return max(1, count // (jobs * 4))
    size = max(1, round(_CHUNK_TARGET_SECONDS / cost))
    return max(1, min(size, math.ceil(count / (jobs * 2))))


class WorkerPool:
    """The process-wide persistent executor behind :func:`parallel_map`.

    Reused across calls so workers stay warm; rebuilt when more workers
    are requested, when the engine configuration changes (workers must
    share the parent's disk-cache directory), or after it broke (worker
    death / hang teardown).  Fault-plan runs never touch it.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._config = None

    def acquire(self, workers: int) -> ProcessPoolExecutor | None:
        """A warm executor with at least ``workers`` workers, or
        ``None`` when multiprocessing is unusable here."""
        from repro.perf.cache import disk_cache_config
        config = disk_cache_config()
        if (self._executor is None or self._workers < workers
                or self._config != config
                or getattr(self._executor, "_broken", False)):
            self.shutdown()
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context(),
                    initializer=_init_worker, initargs=(None, config))
            except _NO_MULTIPROCESSING:
                self._executor = None
                return None
            self._workers = workers
            self._config = config
        return self._executor

    @property
    def workers(self) -> int:
        return self._workers if self._executor is not None else 0

    def shutdown(self, *, hard: bool = False) -> None:
        executor, self._executor = self._executor, None
        self._workers = 0
        self._config = None
        if executor is not None:
            _teardown(executor, hard=hard)


_POOL = WorkerPool()


def shutdown_workers() -> None:
    """Shut the persistent worker pool down (atexit; tests)."""
    _POOL.shutdown()


atexit.register(shutdown_workers)


def _run_isolated(fn, item, index, fault_plan, task_timeout):
    """Run one item on a dedicated single-worker executor.

    Returns ``(value, None)`` on success or ``(None, error)`` when the
    worker died or timed out.  Used for retries, where isolation keeps
    a persistently-crashing item from poisoning its pool-mates.
    """
    from repro.perf.cache import add_worker_stats, disk_cache_config
    try:
        executor = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context(),
            initializer=_init_worker,
            initargs=(fault_plan, disk_cache_config()))
    except _NO_MULTIPROCESSING as exc:
        # The item being retried is *known bad* -- its worker already
        # died or hung once.  Running it inline here would let a
        # crash-looping item take down the whole run and would silently
        # ignore task_timeout, so the quarantine contract wins: report
        # a retryable error and let the caller quarantine.
        return None, (f"no isolated worker available for retry "
                      f"(multiprocessing unusable: {exc!r})")
    hung = False
    try:
        try:
            future = executor.submit(_run_group, fn, [(index, item)])
        except _WORKER_DEATH as exc:
            return None, f"worker died: {exc!r}"
        timeout = None if task_timeout is None else task_timeout + 1.0
        done, not_done = wait([future], timeout=timeout)
        if not_done:
            hung = True
            return None, f"task exceeded its {task_timeout}s deadline"
        try:
            values, _, stats = future.result()
        except _WORKER_DEATH as exc:
            return None, f"worker died: {exc!r}"
        add_worker_stats(stats)
        return values[0], None
    finally:
        _teardown(executor, hard=hung)


def _teardown(executor: ProcessPoolExecutor, *, hard: bool) -> None:
    """Shut an executor down; ``hard`` kills possibly-hung workers."""
    if hard:
        processes = getattr(executor, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
    try:
        executor.shutdown(wait=not hard, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pool cleanup races
        pass


def _collect(fn, future_groups, task_timeout, workers, results, errors):
    """Drain the first attempt's futures into ``results``/``errors``.

    Deadline tracking is incremental: groups are assumed to start in
    submission order as worker slots free up, and each running group
    gets ``task_timeout * len(group)`` from its (estimated) start.  The
    first overdue group trips the timeout -- within ~one group budget
    of the hang, not after the whole batch's collective budget as the
    pre-PR-8 single collective ``wait`` allowed.

    Returns ``(timed_out, died)``: whether a deadline fired (the caller
    must tear the executor down hard) and whether any worker died (the
    caller must not reuse a possibly-broken persistent pool).
    """
    from repro.perf.cache import add_worker_stats
    died = False

    def settle(future) -> None:
        nonlocal died
        group = future_groups[future]
        try:
            values, elapsed, stats = future.result()
        except _WORKER_DEATH as exc:
            died = True
            for index in group:
                errors[index] = f"worker died: {exc!r}"
            return
        _record_cost(fn, len(values), elapsed)
        add_worker_stats(stats)
        for index, value in zip(group, values):
            results[index] = value

    if task_timeout is None:
        done, _ = wait(future_groups)
        for future in done:
            settle(future)
        return False, died

    pending = set(future_groups)
    # Submission order approximates start order: the executor hands
    # queued groups to workers first-come-first-served, so at any
    # moment the first `workers` unfinished groups are "running" and
    # carry a deadline; the rest are queued with no clock ticking.
    queued = list(future_groups)
    running: dict = {}

    def promote(now: float) -> None:
        while queued and len(running) < workers:
            future = queued.pop(0)
            if future in pending:
                running[future] = \
                    now + task_timeout * len(future_groups[future])

    promote(time.monotonic())
    timed_out = False
    while pending:
        now = time.monotonic()
        next_deadline = min(running.values(),
                            default=now + task_timeout)
        done, _ = wait(pending, timeout=max(0.0, next_deadline - now),
                       return_when=FIRST_COMPLETED)
        now = time.monotonic()
        for future in done:
            settle(future)
            pending.discard(future)
            running.pop(future, None)
        if done:
            promote(now)
        elif any(deadline <= now for deadline in running.values()):
            timed_out = True
            break
    if timed_out:
        # Everything unfinished -- the hung group and any group queued
        # behind it -- is handed to the retry stage; the executor is
        # torn down hard, so innocents re-run on fresh workers.
        for future in pending:
            for index in future_groups[future]:
                if results[index] is _PENDING:
                    errors[index] = (f"task exceeded its "
                                     f"{task_timeout}s deadline")
    return timed_out, died


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T],
                 jobs: int | None = 1,
                 chunksize: int | None = None, *,
                 retries: int = 1,
                 task_timeout: float | None = None,
                 backoff: float = 0.1,
                 fault_plan=None,
                 bus=None) -> list:
    """Ordered map of ``fn`` over ``items`` across ``jobs`` processes.

    ``fn`` and every item must be picklable (top-level functions and
    frozen-dataclass configurations are).  Results are ordered by input
    index regardless of worker completion order.

    The first attempt runs on the persistent warm pool (see module
    docstring) in IPC-amortising groups sized from measured per-item
    cost (``chunksize`` overrides).  Fault tolerance: a crashed worker
    fails only the items of its task group; those are retried
    ``retries`` times on a fresh single-item executor (exponential
    ``backoff``).  With ``task_timeout`` set, a group that exceeds its
    wall-clock allowance trips within about one group budget, the pool
    is torn down hard, and its unfinished items are treated like
    crashes.  Items that exhaust their retries yield
    :class:`TaskFailure` in their result slot -- callers decide whether
    that is a quarantined verdict or an error.  ``fault_plan`` installs
    a test-only :class:`~repro.robust.FaultPlan` in each worker (on a
    dedicated throwaway executor, never the persistent pool);
    ``bus`` receives ``robust.retry`` / ``robust.quarantine`` events.

    Exceptions *raised by fn itself* propagate unchanged (a bug in the
    worker function must stay loud); only worker death and timeouts are
    converted into retries and failures.
    """
    seq: Sequence[_T] = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    jobs = min(jobs, len(seq))
    if chunksize is None:
        chunksize = _auto_chunksize(fn, len(seq), jobs)

    results: list = [_PENDING] * len(seq)
    errors: dict[int, str] = {}
    pending = list(range(len(seq)))

    # -- first attempt: warm persistent pool, IPC-amortising groups ----
    groups = [pending[i:i + chunksize]
              for i in range(0, len(pending), chunksize)]
    workers = min(jobs, len(groups))
    if fault_plan is not None:
        # Fault-plan runs get a throwaway executor: injected kills and
        # hangs must never leave a poisoned persistent pool behind, and
        # the plan itself only installs through an initializer.
        from repro.perf.cache import disk_cache_config
        try:
            executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(),
                initializer=_init_worker,
                initargs=(fault_plan, disk_cache_config()))
        except _NO_MULTIPROCESSING:
            executor = None
        persistent = False
    else:
        executor = _POOL.acquire(workers)
        persistent = True
    if executor is None:
        # No usable multiprocessing primitives (e.g. /dev/shm sealed
        # off); the serial path computes the identical result (and
        # never injects faults).
        return [fn(item) for item in seq]
    timed_out = died = False
    try:
        future_groups = {}
        for group in groups:
            try:
                future = executor.submit(
                    _run_group, fn, [(i, seq[i]) for i in group])
            except _WORKER_DEATH as exc:
                died = True
                for index in group:
                    errors[index] = f"worker died: {exc!r}"
                continue
            future_groups[future] = group
        timed_out, died_collecting = _collect(
            fn, future_groups, task_timeout, workers, results, errors)
        died = died or died_collecting
    finally:
        if not persistent:
            _teardown(executor, hard=timed_out)
        elif timed_out or died:
            # A broken or hung pool is discarded; the next call builds
            # a fresh one that warm-starts from the disk cache.
            _POOL.shutdown(hard=timed_out)
    pending = [i for i in pending if results[i] is _PENDING]

    # -- retries: each item in its own single-worker executor ----------
    # A crashed worker fails every unfinished future on its executor
    # (BrokenProcessPool poisons the pool), so rerunning survivors next
    # to a persistent offender would re-fail them.  Isolation makes a
    # second failure attributable to the item itself.
    for attempt in range(1, retries + 1):
        if not pending:
            break
        time.sleep(backoff * (2 ** (attempt - 1)))
        if bus is not None:
            bus.emit("robust.retry", attempt=attempt,
                     indices=list(pending),
                     what=f"retrying {len(pending)} task(s) on fresh "
                          f"isolated workers (attempt {attempt + 1})")
        still = []
        for index in pending:
            value, error = _run_isolated(fn, seq[index], index,
                                         fault_plan, task_timeout)
            if error is None:
                results[index] = value
                errors.pop(index, None)
            else:
                errors[index] = error
                still.append(index)
        pending = still

    attempts = retries + 1
    for index in pending:
        error = errors.get(index, "worker died")
        results[index] = TaskFailure(index, error, attempts)
        if bus is not None:
            bus.emit("robust.quarantine", index=index, error=error,
                     what=f"task {index} quarantined after {attempts} "
                          f"attempt(s): {error}")
    return results
