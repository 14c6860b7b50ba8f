#!/usr/bin/env python
"""Engine benchmark: serial vs cached vs parallel suite + fuzz runs.

Measures the execution engine (:mod:`repro.perf`) on its two real
workloads and appends one entry to the ``BENCH_engine.json`` trajectory
at the repository root:

* the S5 compliance comparison (``repro compare``) -- serial uncached
  baseline, cold-cache serial, and cached + parallel (``--jobs``);
* differential fuzzing throughput (``repro fuzz``) -- serial vs
  parallel candidate evaluation for a fixed seed and iteration count;
* the evaluator axis (``--evaluator core``/``compiled``) -- the
  iterative Core-IR evaluator against the tiered default, on a serial
  compliance run (best of three) with the run memo on (warm in-memory
  caches) and off (fresh in-memory caches, as a new process has), and
  on fuzz throughput;
* the warm-start axis (ISSUE 8) -- a cold compliance run populates the
  on-disk compile cache, every in-memory layer is dropped, and the
  re-run must perform **zero frontend compiles** (every Core program
  served from disk) while rendering a byte-identical report;
* the coverage axis (ISSUE 9) -- a guided campaign (``repro fuzz
  --guided``, run in resumed rounds so the corpus scheduler actually
  feeds mutation) against the blind generator on the same number of
  programs, measured as distinct Core ops covered per 1k programs.
  Guided must reach **>= 1.2x** the blind op coverage; below the
  minimum campaign size the gate is skipped and the entry records why
  (``coverage_gate_skipped_reason``);
* the allocator-policy axis (ISSUE 10) -- the compare grid re-run
  under the ``freelist`` and ``quarantine`` policies after a ``bump``
  warm-up.  Compile identity is policy-independent, so the warm grid
  must perform **zero additional frontend compiles** and keep the
  compile-layer hit rates: a policy axis that invalidated compile
  caches would multiply every grid's cost by the policy count.

Every phase runs against its own fresh temporary disk-cache directory,
so the numbers are honest cold/warm measurements and the benchmark
never touches ``~/.cache/repro``.

Correctness is part of the benchmark: the run **fails (exit 1) if the
parallel compliance report or the parallel fuzz groups diverge from the
serial ones, or if any evaluator renders a differing compliance or
fuzz report**, so CI's benchmark smoke job doubles as a determinism
gate for the worker pool.  It also exits 1 when a performance or
compile-count gate fails, but reports the two apart: the entry's
``deterministic`` is false only on a report mismatch, ``gates_failed``
names each failed gate, and the last line reads ``OK``,
``DIVERGENCE`` or ``GATE FAIL``.  The evaluator axis additionally gates
**compiled >= 2x Core on the serial warm-cache compliance run** (best
of three timings each).  Read that number with its mechanism in mind:
warm-cache repeats of a deterministic run are served by the run memo
on the compile-cache entry (see :mod:`repro.perf.cache`), so the gate
measures memo hits, which a fresh ``repro compare`` never gets.  The
entry therefore also records the same timings with the memo off
(``compliance_*_memo_off_s``: every in-memory layer dropped before each
run, the disk layer warm), where the tiered default runs every cell
on the Core loop.  The fuzz axis (fresh caches per run, where only
repeats within the run -- shrink candidates, minimised programs --
hit the memo) measures the end-to-end effect.

Every gate that does not apply records *why* in the trajectory entry
(``gate_skipped_reason``, e.g. ``cores<2`` for the parallel-throughput
gate on a single-core runner) so a skipped gate is distinguishable
from a passed one.

Usage::

    python benchmarks/bench_engine.py [--quick] [--jobs N]
                                      [--output BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if not any((pathlib.Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz.campaign import run_campaign                # noqa: E402
from repro.fuzz.coverage import Coverage, coverage_of       # noqa: E402
from repro.fuzz.driver import program_for, run_fuzz         # noqa: E402
from repro.impls import ALL_IMPLEMENTATIONS                 # noqa: E402
from repro.perf import (                                    # noqa: E402
    clear_cache,
    configure_disk_cache,
    global_cache,
    resolve_jobs,
    shutdown_workers,
)
from repro.reporting.tables import render_compliance        # noqa: E402
from repro.testsuite.compare import compare_implementations  # noqa: E402
from repro.testsuite.suite import all_cases                 # noqa: E402

SCHEMA_VERSION = 1

# The coverage-axis gate (ISSUE 9): guided must cover >= this multiple
# of the blind generator's distinct Core ops per 1k programs, judged
# only when the campaign is at least COVERAGE_MIN_PROGRAMS programs
# (smaller campaigns have not filled the corpus yet, so the comparison
# would measure noise, not the scheduler).
COVERAGE_GATE = 1.2
COVERAGE_MIN_PROGRAMS = 100


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def fresh_disk(disk_base: pathlib.Path, phase: str) -> None:
    """Point the disk layer at an empty per-phase directory, so each
    phase's cold/warm behaviour is measured, not inherited."""
    configure_disk_cache(enabled=True,
                         directory=str(disk_base / phase))


def bench_compare(cases, jobs, disk_base):
    """The three engine configurations over the compliance comparison."""
    clear_cache()
    serial, t_serial = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=False))

    fresh_disk(disk_base, "compare-cached")
    clear_cache()
    cached, t_cached = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=True))
    cache_stats = global_cache().stats.to_dict()

    fresh_disk(disk_base, "compare-parallel")
    clear_cache()
    parallel, t_parallel = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=jobs, use_cache=True))

    reports = {
        "serial": render_compliance(serial),
        "cached": render_compliance(cached),
        "parallel": render_compliance(parallel),
    }
    timings = {
        "serial_uncached_s": round(t_serial, 4),
        "cached_s": round(t_cached, 4),
        "cached_parallel_s": round(t_parallel, 4),
        "speedup_cached": round(t_serial / t_cached, 3),
        "speedup_cached_parallel": round(t_serial / t_parallel, 3),
        "compile_cache": cache_stats,
    }
    return reports, timings


def fuzz_signature(report):
    """The order-sensitive content of a fuzz report (for equality)."""
    return {
        "iterations": report.iterations,
        "reference_counts": report.reference_counts,
        "groups": [g.describe() for g in report.sorted_groups()],
        "minimized": sorted(g.minimized_source or ""
                            for g in report.groups),
    }


def bench_warm_start(cases, disk_base):
    """The warm-start axis (ISSUE 8): a cold run populates the disk
    cache, the in-memory layers are dropped (simulating a fresh
    process over a shared cache directory), and the re-run must serve
    every Core program from disk -- zero frontend compiles -- while
    rendering a byte-identical compliance report."""
    fresh_disk(disk_base, "warm-start")
    clear_cache()
    cold, t_cold = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=True))
    clear_cache()  # drops memory layers and stats; the disk survives
    warm, t_warm = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=True))
    stats = global_cache().stats
    reports = {"cold": render_compliance(cold),
               "warm": render_compliance(warm)}
    timings = {
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "speedup_warm": round(t_cold / t_warm, 3),
        "compiles_performed": stats.compiles_performed,
        "disk_hit_rate": round(stats.disk.hit_rate, 4),
        "compile_cache": stats.to_dict(),
    }
    return reports, timings


def bench_allocator_grid(cases, disk_base):
    """The allocator-policy axis (ISSUE 10): the compare grid under
    each policy, sharing one compile-cache population.

    A ``bump`` run warms every cache layer; the ``freelist`` and
    ``quarantine`` grids then re-run over the same caches.  Because the
    allocator is a run-only axis (absent from compile/disk keys), the
    whole policy grid must be served from the already-warm compile
    layers: ``compiles_performed`` must not grow at all.  A run that
    frees nothing is served from its ``bump`` twin's run-memo entry,
    so ``policy_grid_memo_hits`` and ``policy_grid_runs_executed`` (the
    memo misses) say how much of the policy grid actually ran.
    """
    from repro.impls import with_allocator

    fresh_disk(disk_base, "allocator-grid")
    clear_cache()
    reports = {}
    timings = {}
    _, t_bump = timed(lambda: compare_implementations(
        ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=True))
    timings["bump_s"] = round(t_bump, 4)
    compiles_after_bump = global_cache().stats.compiles_performed
    memo = global_cache().stats.memo
    memo_after_bump = (memo.hits, memo.misses)
    for policy in ("freelist", "quarantine"):
        grid = tuple(with_allocator(impl, policy)
                     for impl in ALL_IMPLEMENTATIONS)
        report, elapsed = timed(lambda: compare_implementations(
            grid, cases, jobs=1, use_cache=True))
        reports[policy] = render_compliance(report)
        timings[f"{policy}_s"] = round(elapsed, 4)
    stats = global_cache().stats
    timings["compiles_after_bump"] = compiles_after_bump
    timings["policy_grid_extra_compiles"] = \
        stats.compiles_performed - compiles_after_bump
    timings["policy_grid_memo_hits"] = stats.memo.hits - memo_after_bump[0]
    timings["policy_grid_runs_executed"] = \
        stats.memo.misses - memo_after_bump[1]
    timings["compile_cache"] = stats.to_dict()
    return reports, timings


def bench_fuzz(seed, iterations, jobs, shrink_budget, disk_base):
    fresh_disk(disk_base, "fuzz-serial")
    clear_cache()
    serial, t_serial = timed(lambda: run_fuzz(
        seed=seed, iterations=iterations, jobs=1,
        shrink_budget=shrink_budget, use_cache=True))
    fresh_disk(disk_base, "fuzz-parallel")
    clear_cache()
    parallel, t_parallel = timed(lambda: run_fuzz(
        seed=seed, iterations=iterations, jobs=jobs,
        shrink_budget=shrink_budget, use_cache=True))
    signatures = {
        "serial": fuzz_signature(serial),
        "parallel": fuzz_signature(parallel),
    }
    timings = {
        "iterations": iterations,
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "serial_programs_per_s": round(iterations / t_serial, 3),
        "parallel_programs_per_s": round(iterations / t_parallel, 3),
        "speedup_parallel": round(t_serial / t_parallel, 3),
    }
    return signatures, timings


def bench_evaluators(cases, seed, iterations, shrink_budget, disk_base):
    """The evaluator axis: Core vs compiled, serial.

    Compliance timings are best-of-three after one untimed run that
    fills the disk layer and, for the tiered ``compiled`` default, the
    run memo.  ``memo_on`` keeps the in-memory caches between runs, so
    every ``compiled`` cell is a memo hit; ``memo_off`` drops them
    before each run, as a new process starts, so every cell executes
    (Core programs come from disk, no frontend compile).  The rendered
    compliance and fuzz reports must be byte-identical across the two
    evaluators.
    """
    def compliance(evaluator):
        def grid():
            return compare_implementations(
                ALL_IMPLEMENTATIONS, cases, jobs=1, use_cache=True,
                evaluator=evaluator)

        def best_of_three(fresh: bool):
            times = []
            for _ in range(3):
                if fresh:
                    clear_cache()
                report, elapsed = timed(grid)
                times.append(elapsed)
            return report, min(times)

        fresh_disk(disk_base, f"eval-{evaluator}")
        clear_cache()
        grid()
        report, memo_on = best_of_three(fresh=False)
        _, memo_off = best_of_three(fresh=True)
        return render_compliance(report), memo_on, memo_off

    def fuzz(evaluator):
        fresh_disk(disk_base, f"eval-fuzz-{evaluator}")
        clear_cache()
        report, elapsed = timed(lambda: run_fuzz(
            seed=seed, iterations=iterations, jobs=1,
            shrink_budget=shrink_budget, use_cache=True,
            evaluator=evaluator))
        return fuzz_signature(report), elapsed

    reports = {}
    timings = {}
    t_compliance = {}
    t_memo_off = {}
    t_fuzz = {}
    for evaluator in ("core", "compiled"):
        reports[evaluator], t_compliance[evaluator], \
            t_memo_off[evaluator] = compliance(evaluator)
        reports[f"fuzz_{evaluator}"], t_fuzz[evaluator] = fuzz(evaluator)
        timings[f"compliance_{evaluator}_s"] = \
            round(t_compliance[evaluator], 4)
        timings[f"compliance_{evaluator}_memo_off_s"] = \
            round(t_memo_off[evaluator], 4)
        timings[f"fuzz_{evaluator}_programs_per_s"] = \
            round(iterations / t_fuzz[evaluator], 3)
    timings["speedup_compiled_compliance"] = \
        round(t_compliance["core"] / t_compliance["compiled"], 3)
    timings["speedup_compiled_compliance_memo_off"] = \
        round(t_memo_off["core"] / t_memo_off["compiled"], 3)
    timings["speedup_compiled_fuzz"] = \
        round(t_fuzz["core"] / t_fuzz["compiled"], 3)
    return reports, timings


def bench_coverage(seed, programs, rounds, disk_base):
    """The coverage axis (ISSUE 9): guided vs blind op coverage.

    The blind baseline unions :func:`coverage_of` over the first
    ``programs`` generator outputs -- exactly what ``repro fuzz``
    evaluates without guidance.  The guided run spends the same program
    budget in a campaign split into ``rounds`` resumed invocations:
    guidance only sharpens at invocation boundaries (the snapshot is
    frozen per invocation), so a single big invocation would mostly
    measure fresh draws.  Both sides count *distinct Core op ids*
    reached on the traced reference run; ``classify=False`` skips the
    differential oracle so the two sides do comparable work per
    program.
    """
    fresh_disk(disk_base, "coverage-blind")
    clear_cache()

    def blind_union():
        covered = Coverage()
        for k in range(programs):
            probe = coverage_of(program_for(seed, k))
            covered = covered.union(probe.coverage)
        return covered

    blind, t_blind = timed(blind_union)

    fresh_disk(disk_base, "coverage-guided")
    clear_cache()
    per_round = programs // rounds

    def guided_union():
        covered = Coverage()
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-corpus-") as corpus:
            for round_index in range(rounds):
                report = run_campaign(
                    seed=seed, iterations=per_round, corpus_dir=corpus,
                    jobs=1, use_cache=True, classify=False,
                    resume=round_index > 0)
                covered = covered.union(report.covered)
        return covered

    guided, t_guided = timed(guided_union)

    guided_programs = per_round * rounds
    blind_per_1k = len(blind.ops) / programs * 1000
    guided_per_1k = len(guided.ops) / max(guided_programs, 1) * 1000
    ratio = (guided_per_1k / blind_per_1k) if blind_per_1k else float("inf")
    timings = {
        "programs": programs,
        "guided_programs": guided_programs,
        "rounds": rounds,
        "blind_s": round(t_blind, 4),
        "guided_s": round(t_guided, 4),
        "blind_ops": len(blind.ops),
        "guided_ops": len(guided.ops),
        "blind_keys": len(blind.keys()),
        "guided_keys": len(guided.keys()),
        "blind_ops_per_1k": round(blind_per_1k, 1),
        "guided_ops_per_1k": round(guided_per_1k, 1),
        "guided_blind_ratio": round(ratio, 3),
    }
    return timings


def coverage_gate_skip_reason(programs: int) -> str:
    """Why the coverage gate does not apply, or ``""``."""
    if programs < COVERAGE_MIN_PROGRAMS:
        return f"programs<{COVERAGE_MIN_PROGRAMS}"
    return ""


def throughput_gate_skip_reason(jobs: int, cores: int | None) -> str:
    """Why the parallel-throughput gate does not apply, or ``""``.

    A skipped gate must be distinguishable from a passed one in the
    trajectory, so the reason is recorded verbatim (``cores<2`` on a
    single-core runner, ``jobs<2`` when parallelism was not requested).
    """
    if (cores or 1) < 2:
        return "cores<2"
    if jobs < 2:
        return "jobs<2"
    return ""


def report_mismatches(compare_reports: dict, fuzz_signatures: dict,
                      warm_reports: dict, evaluator_reports: dict
                      ) -> list[str]:
    """The report comparisons that disagreed.

    Each pair of runs must render byte-identical output; a mismatch is
    non-determinism (or an evaluator disagreement), never a slow run.
    """
    pairs = (
        ("cached compliance report diverges from serial",
         compare_reports["cached"], compare_reports["serial"]),
        ("parallel compliance report diverges from serial",
         compare_reports["parallel"], compare_reports["serial"]),
        ("parallel fuzz report diverges from serial",
         fuzz_signatures["parallel"], fuzz_signatures["serial"]),
        ("warm-started compliance report diverges from cold",
         warm_reports["warm"], warm_reports["cold"]),
        ("compiled-evaluator compliance report diverges from the Core "
         "evaluator's",
         evaluator_reports["compiled"], evaluator_reports["core"]),
        ("compiled-evaluator fuzz report diverges from the Core "
         "evaluator's",
         evaluator_reports["fuzz_compiled"], evaluator_reports["fuzz_core"]),
    )
    return [what for what, got, want in pairs if got != want]


def failed_gates(warm: dict, allocator: dict, evaluator: dict, fuzz: dict,
                 coverage: dict, *, jobs: int, cores: int | None,
                 programs: int) -> list[tuple[str, str]]:
    """The performance and compile-count gates that failed, as
    ``(gate name, message)`` pairs.  No report comparison is here: a
    gate measures cost, so a miss is ``GATE FAIL``, not divergence."""
    failed = []
    # Warm-start gate: applies on every runner -- a
    # warm-started process must serve every Core program from the
    # shared disk cache (zero frontend compiles).
    if warm["compiles_performed"] != 0:
        failed.append(("warm-start-compiles",
                       f"warm start performed {warm['compiles_performed']} "
                       f"compiles (expected 0: every Core program should "
                       f"come from disk)"))
    # Allocator-grid gate: the policy axis is run-only, so
    # the freelist/quarantine grids must add zero frontend compiles
    # over the bump warm-up -- compile layers are shared across the
    # whole policy grid.
    if allocator["policy_grid_extra_compiles"] != 0:
        failed.append(("allocator-grid-compiles",
                       f"allocator-policy grid performed "
                       f"{allocator['policy_grid_extra_compiles']} extra "
                       f"compiles (expected 0: compile identity is "
                       f"policy-independent)"))
    # Evaluator-cost gate: the compiled backend is the process default,
    # so it must deliver >= 2x over the Core evaluator it is checked
    # against on the serial warm-cache compliance run (best-of-three
    # each).
    if evaluator["speedup_compiled_compliance"] < 2.0:
        failed.append(("compiled-2x",
                       f"compiled backend below the 2x compliance gate "
                       f"({evaluator['compliance_compiled_s']}s vs "
                       f"{evaluator['compliance_core_s']}s = "
                       f"{evaluator['speedup_compiled_compliance']}x)"))
    # Throughput gate: with persistent
    # warm workers the batched parallel fuzz path must *beat* serial by
    # 1.5x on a real multi-core box, not merely match it.  On a single
    # core (or with jobs=1) parallelism cannot win, so the gate only
    # applies when both the request and the hardware allow it.
    if not throughput_gate_skip_reason(jobs, cores) and \
            fuzz["speedup_parallel"] < 1.5:
        failed.append(("parallel-fuzz-1.5x",
                       f"parallel fuzz throughput below the 1.5x gate "
                       f"({fuzz['speedup_parallel']}x with jobs={jobs} "
                       f"on {cores} cores)"))
    # Coverage gate: the scheduler exists to reach program
    # shapes the blind generator does not, so on any real campaign
    # guided coverage must beat blind by 1.2x distinct Core ops per 1k
    # programs.  Below the minimum campaign size the comparison is
    # noise and the entry records why it was skipped.
    if not coverage_gate_skip_reason(programs) and \
            coverage["guided_blind_ratio"] < COVERAGE_GATE:
        failed.append(("coverage",
                       f"guided coverage below the {COVERAGE_GATE}x gate "
                       f"({coverage['guided_ops_per_1k']} vs "
                       f"{coverage['blind_ops_per_1k']} ops/1k programs "
                       f"= {coverage['guided_blind_ratio']}x)"))
    return failed


def verdict(mismatches: list[str], gates: list[tuple[str, str]]) -> str:
    """The last line's word: a report mismatch outranks a gate miss."""
    if mismatches:
        return "DIVERGENCE"
    if gates:
        return "GATE FAIL"
    return "OK"


def append_trajectory(path: pathlib.Path, entry: dict) -> None:
    trajectory = {"schema": SCHEMA_VERSION, "benchmark": "engine",
                  "entries": []}
    if path.exists():
        trajectory = json.loads(path.read_text(encoding="utf-8"))
    trajectory["entries"].append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n",
                    encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker count for the parallel runs "
                             "(default: all cores)")
    parser.add_argument("--output", default=str(REPO_ROOT /
                                                "BENCH_engine.json"),
                        metavar="FILE",
                        help="trajectory file to append to")
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    cases = all_cases()
    if args.quick:
        cases = cases[:30]
    fuzz_iterations = 24 if args.quick else 80
    shrink_budget = 20 if args.quick else 60
    coverage_programs = 120 if args.quick else 400
    coverage_rounds = 6 if args.quick else 8

    print(f"engine benchmark: {len(cases)} suite cases x "
          f"{len(ALL_IMPLEMENTATIONS)} impls, {fuzz_iterations} fuzz "
          f"iterations, jobs={jobs} "
          f"({os.cpu_count()} cores)", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        disk_base = pathlib.Path(tmp)
        compare_reports, compare_timings = bench_compare(
            cases, jobs, disk_base)
        warm_reports, warm_timings = bench_warm_start(cases, disk_base)
        _allocator_reports, allocator_timings = bench_allocator_grid(
            cases, disk_base)
        fuzz_signatures, fuzz_timings = bench_fuzz(
            seed=0, iterations=fuzz_iterations, jobs=jobs,
            shrink_budget=shrink_budget, disk_base=disk_base)
        evaluator_reports, evaluator_timings = bench_evaluators(
            cases, seed=0, iterations=fuzz_iterations,
            shrink_budget=shrink_budget, disk_base=disk_base)
        coverage_timings = bench_coverage(
            seed=0, programs=coverage_programs, rounds=coverage_rounds,
            disk_base=disk_base)
        shutdown_workers()  # release the warm pool before the dir goes
    configure_disk_cache(enabled=False, directory=None)

    mismatches = report_mismatches(compare_reports, fuzz_signatures,
                                   warm_reports, evaluator_reports)
    for what in mismatches:
        print(f"FAIL: {what}", file=sys.stderr)
    gate_skipped_reason = throughput_gate_skip_reason(jobs, os.cpu_count())
    throughput_gated = not gate_skipped_reason
    coverage_skipped_reason = coverage_gate_skip_reason(coverage_programs)
    gates = failed_gates(
        warm_timings, allocator_timings, evaluator_timings, fuzz_timings,
        coverage_timings, jobs=jobs, cores=os.cpu_count(),
        programs=coverage_programs)
    for _name, message in gates:
        print(f"FAIL: {message}", file=sys.stderr)
    if gate_skipped_reason:
        print(f"note: parallel-throughput gate skipped "
              f"({gate_skipped_reason})")
    if coverage_skipped_reason:
        print(f"note: coverage gate skipped ({coverage_skipped_reason})")

    entry = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "quick": args.quick,
        "cores": os.cpu_count(),
        "jobs": jobs,
        "suite_cases": len(cases),
        "implementations": len(ALL_IMPLEMENTATIONS),
        "compare": compare_timings,
        "warm_start": warm_timings,
        "allocator_grid": allocator_timings,
        "fuzz": fuzz_timings,
        "evaluator": evaluator_timings,
        "coverage": coverage_timings,
        "throughput_gate": throughput_gated,
        "gate_skipped_reason": gate_skipped_reason,
        "coverage_gate_skipped_reason": coverage_skipped_reason,
        "deterministic": not mismatches,
        "gates_failed": [name for name, _message in gates],
    }
    output = pathlib.Path(args.output)
    append_trajectory(output, entry)

    print(f"compliance: serial {compare_timings['serial_uncached_s']}s, "
          f"cached {compare_timings['cached_s']}s "
          f"({compare_timings['speedup_cached']}x), "
          f"cached+parallel {compare_timings['cached_parallel_s']}s "
          f"({compare_timings['speedup_cached_parallel']}x)")
    print(f"warm start: cold {warm_timings['cold_s']}s, warm "
          f"{warm_timings['warm_s']}s "
          f"({warm_timings['speedup_warm']}x), "
          f"{warm_timings['compiles_performed']} compiles, disk hit "
          f"rate {warm_timings['disk_hit_rate']}")
    print(f"allocator grid: bump {allocator_timings['bump_s']}s, "
          f"freelist {allocator_timings['freelist_s']}s, quarantine "
          f"{allocator_timings['quarantine_s']}s, "
          f"{allocator_timings['policy_grid_extra_compiles']} extra "
          f"compiles")
    print(f"fuzz: serial {fuzz_timings['serial_programs_per_s']} "
          f"programs/s, parallel "
          f"{fuzz_timings['parallel_programs_per_s']} programs/s "
          f"({fuzz_timings['speedup_parallel']}x)")
    print(f"evaluator compliance, memo on: core "
          f"{evaluator_timings['compliance_core_s']}s, compiled "
          f"{evaluator_timings['compliance_compiled_s']}s "
          f"({evaluator_timings['speedup_compiled_compliance']}x)")
    print(f"evaluator compliance, memo off: core "
          f"{evaluator_timings['compliance_core_memo_off_s']}s, compiled "
          f"{evaluator_timings['compliance_compiled_memo_off_s']}s "
          f"({evaluator_timings['speedup_compiled_compliance_memo_off']}x)")
    print(f"evaluator fuzz: core "
          f"{evaluator_timings['fuzz_core_programs_per_s']}, compiled "
          f"{evaluator_timings['fuzz_compiled_programs_per_s']} "
          f"programs/s ({evaluator_timings['speedup_compiled_fuzz']}x)")
    print(f"coverage: blind {coverage_timings['blind_ops_per_1k']} "
          f"ops/1k, guided {coverage_timings['guided_ops_per_1k']} "
          f"ops/1k ({coverage_timings['guided_blind_ratio']}x over "
          f"{coverage_timings['programs']} programs, "
          f"{coverage_timings['rounds']} rounds)")
    status = verdict(mismatches, gates)
    print(f"{status}: trajectory entry appended to {output}")
    return 0 if status == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
