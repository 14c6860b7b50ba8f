"""Optimised-AST golden: what the modelled optimiser makes of every input.

A restructuring of :mod:`repro.core.optimizer` that claims to keep its
behaviour must produce the same optimised program -- compared by
``repr`` -- for every source, target and -O level.
``tests/golden/optimized_digests.txt`` holds one sha256 per (source
group, architecture, -O level): the groups are the token golden's
suite, corpus, examples and fuzz programs, the architectures Morello
and CHERIoT, the levels 1 to 3 (-O0 returns its input).  A source the
frontend rejects contributes its error instead.  Refresh it
deliberately when a change is meant to alter the optimised program:

    python -c "from tests.test_optimizer_identity import regenerate; \\
        print(regenerate(), end='')" > tests/golden/optimized_digests.txt
"""

from __future__ import annotations

import functools
import hashlib
import pathlib

import pytest

from repro.capability import CHERIOT, MORELLO
from repro.core.cparser import parse_program
from repro.core.optimizer import optimize_program
from repro.ctypes import TargetLayout
from repro.errors import ReproError
from tests.test_token_identity import group_sources

GOLDEN = pathlib.Path(__file__).parent / "golden" / "optimized_digests.txt"
GROUPS = ("suite", "corpus", "examples", "fuzz")
ARCHS = {"morello": MORELLO, "cheriot": CHERIOT}
LEVELS = (1, 2, 3)


@functools.lru_cache(maxsize=None)
def _sources() -> dict[str, list[str]]:
    groups = group_sources()
    return {name: groups[name] for name in GROUPS}


def _optimised(source: str, layout: TargetLayout, level: int) -> str:
    try:
        return repr(optimize_program(parse_program(source, layout),
                                     layout, level))
    except ReproError as exc:
        return f"error {type(exc).__name__} {exc}"


def digest(group: str, arch: str, level: int) -> str:
    layout = TargetLayout(ARCHS[arch])
    sha = hashlib.sha256()
    for source in _sources()[group]:
        sha.update(f"{source!r}\n".encode())
        sha.update(f"{_optimised(source, layout, level)}\n".encode())
    return sha.hexdigest()


def regenerate() -> str:
    return "".join(f"{group} {arch} O{level} {digest(group, arch, level)}\n"
                   for group in GROUPS for arch in ARCHS for level in LEVELS)


def _golden() -> dict[tuple[str, str, str], str]:
    rows = (line.split() for line in GOLDEN.read_text().splitlines())
    return {(group, arch, level): sha for group, arch, level, sha in rows}


def test_golden_covers_every_group_arch_and_level():
    assert list(_golden()) == [(g, a, f"O{level}") for g in GROUPS
                               for a in ARCHS for level in LEVELS]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("arch", ARCHS)
def test_optimised_programs_match_golden(group, arch):
    golden = _golden()
    for level in LEVELS:
        assert digest(group, arch, level) == golden[group, arch,
                                                    f"O{level}"], level
