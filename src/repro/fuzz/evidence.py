"""Trace evidence for fuzz findings.

When the oracle flags a finding (an unexplained divergence or a crash),
a plain outcome pair -- "reference exited 0, target trapped" -- says
*that* the implementations disagree but not *why*.  This module re-runs
the global reference with the event-trace subsystem attached and
extracts the reference trace's explaining event (the last UB verdict,
ghost excursion, or notable capability transition), which the driver
attaches to the finding and ``repro fuzz --trace-dir`` persists as a
full JSONL trace.

It also provides the shrinker's "same explaining event" predicate
ingredient: :func:`reference_signature` fingerprints *why* the reference
behaved as it did, so minimisation can be required to preserve the
semantic explanation, not just the observable outcome pair.
"""

from __future__ import annotations

from repro.errors import Outcome
from repro.fuzz.generator import FuzzProgram
from repro.impls.config import Implementation
from repro.impls.registry import CERBERUS
from repro.obs import (
    EventBus,
    TraceRecorder,
    explaining_signature,
    final_event,
)


def capture_trace(source: str,
                  impl: Implementation = CERBERUS,
                  ) -> tuple[Outcome | None, TraceRecorder]:
    """Run ``impl`` on ``source`` with tracing attached.

    Returns ``(outcome, recorder)``; the outcome is ``None`` when the
    run crashed (the recorder still holds every event up to the crash).
    """
    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    try:
        outcome = impl.run(source, bus=bus, persist=False)
    except Exception:                        # noqa: BLE001 - fuzz boundary
        outcome = None
    return outcome, recorder


def _render(program: FuzzProgram | str) -> str:
    return program.render() if isinstance(program, FuzzProgram) else program


def reference_evidence(program: FuzzProgram | str) -> dict | None:
    """The reference trace's explaining event for one program (a JSONL
    dict, or ``None`` when the trace is empty)."""
    _outcome, recorder = capture_trace(_render(program))
    return final_event(recorder.events())


def reference_signature(program: FuzzProgram | str) -> tuple | None:
    """The reference trace's explaining signature: a comparable
    fingerprint of why the reference behaved as it did."""
    _outcome, recorder = capture_trace(_render(program))
    return explaining_signature(recorder.events())
