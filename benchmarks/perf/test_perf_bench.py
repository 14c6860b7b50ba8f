"""Self-test of the benchmark: ``pytest benchmarks/perf -q``.

Each workload runs in-process at a tiny size, untraced and traced; its
expected output is then computed on the Core evaluator, so the
reference path is exercised too.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import child
import run
from workloads import WORKLOADS, counting_runs, make

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

TINY = {
    "compare_cold": {"cases": 3},
    "compare_policy_grid": {"cases": 3},
    "fuzz_blind": {"iterations": 2, "shrink_budget": 3},
    "fuzz_guided": {"rounds": 2, "per_round": 2},
}


@pytest.fixture(autouse=True)
def _restore_engine(tmp_path, monkeypatch):
    """Keep process-wide engine settings as they were."""
    from repro.core.coreeval import default_evaluator, set_default_evaluator
    from repro.perf import configure_disk_cache, disk_cache_config
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    enabled, directory = disk_cache_config()
    evaluator = default_evaluator()
    yield
    configure_disk_cache(enabled=enabled, directory=directory)
    set_default_evaluator(evaluator)


def _units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def _measure(name: str, tmp_path, trace: bool, seed: int = 0) -> dict:
    workload = make(name, tmp_path / "scratch", seed=seed, **TINY[name])
    workload.setup()
    result = child.measure(workload, seconds=0.01, trace=trace,
                           trace_dir=tmp_path / "traces")
    workload.drop_rep_dirs()
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= workload.items
    assert result["runs"] >= workload.items
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = _measure(name, tmp_path, trace=False)
    wanted = _units(BENCHMARK["end_to_end"])
    # run.py adds the set-up time and memory it samples across processes.
    wanted.pop("setup_s")
    wanted.pop("setup_rss_mb")
    assert {metric: value["unit"] for metric, value
            in result["metrics"].items()} == wanted
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores(name, tmp_path):
    import repro.perf.cache as cache
    from repro.core.cparser import parse_program
    from repro.impls.config import Implementation
    from repro.memory.model import MemoryModel

    run_compiled = Implementation.__dict__["run_compiled"]
    load = MemoryModel.__dict__["load"]
    result = _measure(name, tmp_path, trace=True)
    metrics = result["metrics"]
    assert {metric: value["unit"] for metric, value in metrics.items()} \
        == _units(BENCHMARK["per_layer"])
    assert metrics["trace.covered_ratio"]["value"] >= 0.9
    assert metrics["impls.run_compiled.compiled.calls"]["value"] > 0
    assert cache.parse_program is parse_program
    assert Implementation.__dict__["run_compiled"] is run_compiled
    assert MemoryModel.__dict__["load"] is load
    spans = (tmp_path / "traces" / f"{name}.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "request"}


def test_seed_reaches_only_the_fuzz_workloads(tmp_path):
    assert make("fuzz_blind", tmp_path, seed=7).params["seed"] == 7
    assert make("fuzz_guided", tmp_path, seed=7).params["seed"] == 7
    assert "seed" not in make("compare_cold", tmp_path, seed=7).params


def test_an_unseen_seed_is_checked_against_the_reference(tmp_path):
    from repro.impls.config import Implementation

    run_method = Implementation.__dict__["run"]
    result = _measure("fuzz_blind", tmp_path, trace=False, seed=12345)
    assert result["runs"] > TINY["fuzz_blind"]["iterations"]
    assert Implementation.__dict__["run"] is run_method


def test_a_grid_cell_is_one_run(tmp_path):
    workload = make("compare_cold", tmp_path, **TINY["compare_cold"])
    with counting_runs() as calls:
        workload.prepare()
        workload.run()
    assert calls[0] == workload.items


def test_committed_expected_outputs_match_the_default_sizes(tmp_path):
    for name in WORKLOADS:
        assert make(name, tmp_path).known_output() is not None, name


def test_declared_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_cli_prints_every_metric_and_a_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "compare_cold",
         "--seconds", "0.1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=False)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name, unit in _units(BENCHMARK["end_to_end"]).items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name


def test_cli_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "fuzz_blind", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
