"""Traced-identity golden: outcomes and full event sequences, per
implementation, over the 94-case suite.

A memory-model change that claims to be a pure refactor (a new byte
representation, memoised derivations) must leave every traced run as it
was: the same :class:`~repro.errors.Outcome` and the same ordered event
stream, payloads included.  ``tests/golden/trace_digests.txt`` holds one
sha256 per implementation -- the 21 allocator-policy variants of the S5
grid and the four seeded-fault implementations -- over the ``repr`` of
each case's outcome followed by each of its ``TraceRecorder.dicts()``.
Refresh it deliberately when a change is meant to alter a trace:

    python -c "from tests.test_trace_identity import regenerate; \\
        print(regenerate(), end='')" > tests/golden/trace_digests.txt
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.impls import ALL_IMPLEMENTATIONS, with_allocator
from repro.impls.faults import FAULTS
from repro.obs import EventBus, TraceRecorder
from repro.testsuite.suite import all_cases

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digests.txt"
POLICIES = ("bump", "freelist", "quarantine")


def traced_implementations():
    grid = [with_allocator(impl, policy)
            for policy in POLICIES for impl in ALL_IMPLEMENTATIONS]
    return grid + [FAULTS[name] for name in sorted(FAULTS)]


def trace_digest(impl) -> str:
    """sha256 over every case's outcome and traced event sequence."""
    digest = hashlib.sha256()
    for case in all_cases():
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        outcome = impl.run(case.source, bus=bus)
        digest.update(f"{case.name}\n{outcome!r}\n".encode())
        for event in recorder.dicts():
            digest.update(json.dumps(event, default=repr).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def regenerate() -> str:
    return "".join(f"{impl.name} {trace_digest(impl)}\n"
                   for impl in traced_implementations())


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines())
    return {name: digest for name, digest in pairs}


def test_golden_names_every_traced_implementation():
    names = [impl.name for impl in traced_implementations()]
    assert len(names) == len(set(names)) == 25
    assert list(_golden()) == names


@pytest.mark.parametrize("impl", traced_implementations(),
                         ids=lambda impl: impl.name)
def test_traced_runs_match_golden(impl):
    assert trace_digest(impl) == _golden()[impl.name]
