#!/usr/bin/env python3
"""The repository benchmark: four closed-loop workloads over the real
pipeline, timed end to end, with outside-in per-layer tracing.

Usage::

    python benchmarks/perf/run.py [--workload NAME] [--seed S]
                                  [--seconds N] [--trace [0|1]]
                                  [--trace-dir DIR]
    python benchmarks/perf/run.py --regen-expected [--workload NAME]
                                  [--seed S]

Each workload runs in its own fresh child process (``child.py``), one
at a time.  On untraced runs, set-up -- process start, imports,
warm-up, cache fill -- is sampled in ``SETUP_SAMPLES`` fresh processes
and reported as their median.  An untraced run prints the end-to-end
metrics, a traced run the per-layer ones; ``BENCHMARK.json`` at the
repository root names both.  Every metric is printed by name with its
unit, every output is checked against the expected one, and the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output is wrong.

``--seed`` is the campaign seed of the fuzz workloads; the compare
workloads run the fixed suite and ignore it.  ``--regen-expected``
rewrites the committed expected outputs for ``--seed`` from the Core
evaluator, the independent reference interpreter.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / ".out"
WORKLOAD_NAMES = ("compare_cold", "compare_policy_grid", "fuzz_blind",
                  "fuzz_guided")
#: Fresh processes that set up each workload; the last one measures.
SETUP_SAMPLES = 5
#: Wall-clock allowance for all processes of one workload run.
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A workload run that produced no result."""


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           trace_dir: pathlib.Path, setup_only: bool,
           deadline: float) -> tuple[dict, float]:
    """One child process; returns its result and its set-up time."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds),
               "--trace", str(trace), "--trace-dir", str(trace_dir)]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0),
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child process killed after the "
                         f"{WORKLOAD_DEADLINE_S:.0f}s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child process exited with code "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["setup_done"] - started


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 trace_dir: pathlib.Path) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    # A traced run reports no set-up time, so it sets up once.
    samples = 1 if trace else SETUP_SAMPLES
    setups, rss = [], []
    for sample in range(samples):
        result, setup_s = _spawn(workload, seed, seconds, trace, trace_dir,
                                 sample < samples - 1, deadline)
        setups.append(setup_s)
        rss.append(result["setup_rss_mb"])
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        result["metrics"]["setup_rss_mb"] = {
            "value": statistics.median(rss), "unit": "MB"}
    return result


def _print_result(workload: str, result: dict) -> None:
    verdict = "ok" if result["correct"] else "WRONG"
    print(f"== {workload}: {result['reps']} repetitions of "
          f"{result['runs']} implementation runs, "
          f"{result['attempted']} {result['item']}s attempted, "
          f"{result['failed']} failed, outputs {verdict}, "
          f"peak RSS {result['peak_rss_mb']:.1f} MB")
    for problem in result["problems"]:
        print(f"   !! {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:44s} {metric['value']:>14.6g} {metric['unit']}")


def regen_expected(names, seed: int) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import make
    scratch = OUT / "work" / "regen"
    try:
        for name in names:
            workload = make(name, scratch, seed=seed)
            workload.setup()
            path = workload.write_expected()
            print(f"{name}: wrote {path}" if path else
                  f"{name}: nothing to write, the golden file is its "
                  f"expected output")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed of the fuzz workloads "
                             "(default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="measure the per-layer metrics instead of "
                             "the end-to-end ones")
    parser.add_argument("--trace-dir", type=pathlib.Path,
                        default=OUT / "traces",
                        help="where traced runs write <workload>.jsonl")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite the expected outputs under "
                             "expected/ on the Core evaluator and exit")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "repro",
                   ROOT / "tests" / "golden" / "compliance.txt"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout "
                  f"of the repository", file=sys.stderr)
            return 2
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    if args.regen_expected:
        return regen_expected(names, args.seed)
    seconds = args.seconds
    if seconds is None:
        config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        seconds = float(config["run_seconds"])

    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds,
                                         args.trace, args.trace_dir)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_result(name, results[name])

    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
