"""The repository tracks only source: no interpreter build residue."""

from __future__ import annotations

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def tracked_files() -> list[str]:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(["git", "ls-files"], cwd=ROOT,
                            capture_output=True, text=True)
    if result.returncode != 0:
        pytest.skip(f"git ls-files failed: {result.stderr.strip()}")
    return result.stdout.splitlines()


def test_no_bytecode_is_tracked():
    residue = [path for path in tracked_files()
               if "__pycache__/" in path or path.endswith(".pyc")]
    assert residue == []
