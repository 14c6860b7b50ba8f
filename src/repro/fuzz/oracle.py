"""The differential oracle: classify one program across implementations.

Every fuzz target is paired with a *matched reference*: the abstract
machine instantiated with the target's own capability format, allocator
address map, bounds-setting mode, and semantics options.  A target that
disagrees with the global reference (``cerberus``) but agrees with its
matched reference has a mechanically attributable *known cause* -- the
one configuration axis separating the matched reference from the global
one.  A target that disagrees with both, on a program the matched
reference says is defined, is an **unexplained divergence**: exactly the
kind of evidence the paper's S5 comparison surfaces by hand.

Known causes, in attribution priority order:

* ``ub-licensed`` -- the matched reference flags UB, so compiled
  implementations may do anything (the S3 licence);
* ``capability-format`` -- the target runs the CHERIoT-style 64-bit
  format (S3.10): bounds granularity and ``(u)intptr_t`` width differ;
* ``memory-model-mode`` -- the target runs a non-default point of the S3
  design space (the permissive pointer-arithmetic mode);
* ``bounds-setting-mode`` -- the target narrows sub-object bounds
  (S3.8), a stricter bounds-setting mode than the paper's default;
* ``allocator-policy`` -- the target runs a reusing heap allocator
  (``freelist``/``quarantine``): freed addresses recycle, so
  use-after-free aliasing and address-equality probes diverge from the
  never-reusing ``bump`` reference ("Picking a CHERI Allocator");
* ``address-map`` -- the behaviour depends on allocator address ranges
  (the Appendix-A ``& UINT_MAX`` / ``& INT_MAX`` masking divergences);
* ``unspecified-value`` -- the matched reference completed but its exit
  status is an S3.5 *unspecified value* (ghost state reached ``main``'s
  return), so any concrete status the target produced is consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import Outcome, OutcomeKind
from repro.fuzz.generator import FuzzProgram
from repro.impls.config import Implementation
from repro.impls.registry import (
    ALL_IMPLEMENTATIONS,
    CERBERUS,
    CERBERUS_PERMISSIVE,
    CHERIOT_ABSTRACT,
    CHERIOT_HARDWARE,
    CLANG_MORELLO_O3_SUBOBJECT,
)
from repro.memory.model import Mode


class Cause(enum.Enum):
    """Why a target's outcome may differ from the global reference."""

    UB_LICENSED = "ub-licensed"
    CAPABILITY_FORMAT = "capability-format"
    MEMORY_MODEL_MODE = "memory-model-mode"
    BOUNDS_SETTING_MODE = "bounds-setting-mode"
    ALLOCATOR_POLICY = "allocator-policy"
    ADDRESS_MAP = "address-map"
    UNSPECIFIED_VALUE = "unspecified-value"
    UNEXPLAINED = "unexplained"
    CRASH = "interpreter-crash"
    FRONTEND = "frontend-reject"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_finding(self) -> bool:
        """True for the causes that demand investigation (and shrinking)."""
        return self in (Cause.UNEXPLAINED, Cause.CRASH, Cause.FRONTEND)


#: The implementations the fuzzer compares, beyond the S5 seven: the
#: sub-object bounds mode, both CHERIoT-style machines, and the
#: permissive memory-model mode (the strict mode is ``cerberus`` itself).
FUZZ_IMPLEMENTATIONS: tuple[Implementation, ...] = (
    ALL_IMPLEMENTATIONS
    + (CLANG_MORELLO_O3_SUBOBJECT, CHERIOT_ABSTRACT, CHERIOT_HARDWARE,
       CERBERUS_PERMISSIVE)
)


def outcome_signature(outcome: Outcome) -> tuple:
    """The comparable footprint of an outcome (stdout-sensitive)."""
    status: object = None
    if outcome.kind is OutcomeKind.EXIT:
        status = "unspecified" if outcome.unspecified else outcome.exit_status
    return (outcome.kind.value,
            status,
            outcome.ub.value if outcome.ub else None,
            outcome.trap.value if outcome.trap else None,
            outcome.limit or None,
            outcome.stdout)


@dataclass(frozen=True)
class FuzzTarget:
    """One execution target plus its matched abstract-machine reference."""

    impl: Implementation
    reference: Implementation

    @classmethod
    def of(cls, impl: Implementation) -> "FuzzTarget":
        if impl.mode is Mode.ABSTRACT and impl.opt_level == 0 \
                and not impl.revocation:
            return cls(impl, impl)
        ref = replace(impl, name="ref:" + impl.name, mode=Mode.ABSTRACT,
                      opt_level=0, revocation=False)
        return cls(impl, ref)

    def known_cause(self) -> Cause:
        """The configuration axis separating this target's matched
        reference from the global one, by attribution priority."""
        # Value comparison, not identity: targets that crossed a worker
        # -process boundary carry unpickled (fresh) Architecture objects.
        if self.impl.arch != CERBERUS.arch:
            return Cause.CAPABILITY_FORMAT
        if self.impl.options != CERBERUS.options:
            return Cause.MEMORY_MODEL_MODE
        if self.impl.subobject_bounds != CERBERUS.subobject_bounds:
            return Cause.BOUNDS_SETTING_MODE
        if self.impl.allocator != CERBERUS.allocator:
            return Cause.ALLOCATOR_POLICY
        return Cause.ADDRESS_MAP


#: Default target set: every fuzz implementation except the global
#: reference itself (which anchors the comparison).
FUZZ_TARGETS: tuple[FuzzTarget, ...] = tuple(
    FuzzTarget.of(impl) for impl in FUZZ_IMPLEMENTATIONS
    if impl is not CERBERUS)


@dataclass
class Divergence:
    """One target disagreeing with the global reference on one program."""

    impl_name: str
    cause: Cause
    reference: str      # global reference outcome, Outcome.describe() form
    observed: str       # this target's outcome (or crash repr)
    detail: str = ""
    evidence: dict | None = None   # reference trace's explaining event

    @property
    def is_finding(self) -> bool:
        return self.cause.is_finding

    def describe(self) -> str:
        return (f"{self.impl_name}: reference {self.reference}, observed "
                f"{self.observed} [{self.cause}]")


@dataclass
class ProgramVerdict:
    """The differential classification of one generated program."""

    source: str
    reference: Outcome | None          # None when the reference crashed
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def findings(self) -> list[Divergence]:
        return [d for d in self.divergences if d.is_finding]

    @property
    def clean(self) -> bool:
        return not self.findings


def _safe_run(impl: Implementation, source: str,
              budget=None) -> tuple[Outcome | None, BaseException | None]:
    # Fuzz programs are one-shot: their compiles stay in memory and
    # never reach the disk cache (``persist=False``).
    try:
        return impl.run(source, budget=budget, persist=False), None
    except Exception as exc:                 # noqa: BLE001 - fuzz boundary
        return None, exc


def _reference_key(impl: Implementation) -> tuple:
    return (impl.arch.name, impl.address_map.name, impl.subobject_bounds,
            impl.options, impl.revocation, impl.allocator)


def allocator_fuzz_targets(policy: str) -> tuple[FuzzTarget, ...]:
    """Extra fuzz targets exercising a non-default allocator policy.

    A representative slice of the grid (the global reference's own
    configuration plus one hardware target per address-map family)
    rather than the full product -- each target costs one run per
    program.  The identity policy contributes nothing: ``bump`` targets
    are already in :data:`FUZZ_TARGETS`.
    """
    if policy == CERBERUS.allocator:
        return ()
    from repro.impls.registry import (
        CLANG_MORELLO_O0, CLANG_RISCV_O3, with_allocator,
    )
    return tuple(FuzzTarget.of(with_allocator(impl, policy))
                 for impl in (CERBERUS, CLANG_MORELLO_O0, CLANG_RISCV_O3))


def evaluate_program(
        program: FuzzProgram | str,
        targets: tuple[FuzzTarget, ...] = FUZZ_TARGETS, *,
        attach_evidence: bool = True,
        budget=None,
        reference_run: tuple | None = None) -> ProgramVerdict:
    """Run one program everywhere and classify every divergence.

    Matched-reference runs are computed lazily (only when a target
    disagrees with the global reference) and cached per configuration,
    so agreeing programs cost one reference run plus one run per target.

    ``budget`` governs every run (see :mod:`repro.robust`): the fuzz
    driver passes its deterministic safety net so a nonterminating
    candidate classifies as ``resource_exhausted`` on every machine
    instead of hanging the campaign.

    ``reference_run`` is the ``(outcome, exception)`` of a global
    reference run the caller already made (a guided candidate's
    coverage probe), classified against instead of a fresh run.

    When the verdict contains findings and ``attach_evidence`` is on,
    the reference is re-run once with tracing and the explaining event
    of its trace is attached to every finding (the semantic "why"
    behind the outcome pair; see :mod:`repro.fuzz.evidence`).
    """
    source = program.render() if isinstance(program, FuzzProgram) else program

    reference, ref_crash = reference_run or _safe_run(CERBERUS, source,
                                                      budget)
    verdict = ProgramVerdict(source=source, reference=reference)
    if ref_crash is not None:
        verdict.divergences.append(Divergence(
            impl_name=CERBERUS.name, cause=Cause.CRASH,
            reference="(crashed)", observed=repr(ref_crash)))
        return verdict
    verdict.outcomes[CERBERUS.name] = reference
    if reference.kind is OutcomeKind.ERROR:
        # The shared frontend rejected the program: a generator bug, not
        # a property of any implementation.
        verdict.divergences.append(Divergence(
            impl_name=CERBERUS.name, cause=Cause.FRONTEND,
            reference=reference.describe(), observed=reference.describe(),
            detail=reference.detail))
        return verdict

    ref_sig = outcome_signature(reference)
    local_cache: dict[tuple, tuple[Outcome | None, BaseException | None]] = {}

    def local_oracle(impl: Implementation):
        key = _reference_key(impl)
        if key not in local_cache:
            local_cache[key] = _safe_run(impl, source, budget)
        return local_cache[key]

    local_cache[_reference_key(CERBERUS)] = (reference, None)

    for target in targets:
        outcome, crash = _safe_run(target.impl, source, budget)
        if crash is not None:
            verdict.divergences.append(Divergence(
                impl_name=target.impl.name, cause=Cause.CRASH,
                reference=reference.describe(), observed=repr(crash)))
            continue
        verdict.outcomes[target.impl.name] = outcome
        sig = outcome_signature(outcome)
        if sig == ref_sig:
            continue

        local, local_crash = local_oracle(target.reference)
        if local_crash is not None:
            verdict.divergences.append(Divergence(
                impl_name=target.reference.name, cause=Cause.CRASH,
                reference=reference.describe(), observed=repr(local_crash)))
            continue

        cause = Cause.UNEXPLAINED
        if sig == outcome_signature(local):
            cause = target.known_cause()
            if cause is Cause.BOUNDS_SETTING_MODE:
                # The sub-object target also runs a non-reference address
                # map; attribute to the map when it alone explains the
                # behaviour (bounds narrowing irrelevant).
                plain = replace(target.reference,
                                name=target.reference.name + ":plain",
                                subobject_bounds=False)
                plain_out, plain_crash = local_oracle(plain)
                if plain_crash is None and \
                        sig == outcome_signature(plain_out):
                    cause = Cause.ADDRESS_MAP
            elif cause is Cause.ALLOCATOR_POLICY:
                # A non-bump target may also run a non-reference address
                # map; attribute to the map when the bump-policy matched
                # reference already reproduces the behaviour (heap reuse
                # irrelevant).
                bump = replace(target.reference,
                               name=target.reference.name + ":bump",
                               allocator=CERBERUS.allocator)
                bump_out, bump_crash = local_oracle(bump)
                if bump_crash is None and \
                        sig == outcome_signature(bump_out):
                    cause = Cause.ADDRESS_MAP
        elif local.kind is OutcomeKind.UNDEFINED and (
                target.impl.mode is Mode.HARDWARE
                or target.impl.opt_level > 0):
            cause = Cause.UB_LICENSED
        elif (local.kind is OutcomeKind.EXIT and local.unspecified
                and outcome.kind is OutcomeKind.EXIT
                and outcome.stdout == local.stdout):
            # The matched reference's exit status is an S3.5 unspecified
            # value; the target merely picked a concrete bit pattern.
            cause = Cause.UNSPECIFIED_VALUE

        verdict.divergences.append(Divergence(
            impl_name=target.impl.name, cause=cause,
            reference=reference.describe(), observed=outcome.describe(),
            detail=outcome.detail))

    if attach_evidence and any(d.is_finding for d in verdict.divergences):
        from repro.fuzz.evidence import reference_evidence
        evidence = reference_evidence(source)
        for div in verdict.divergences:
            if div.is_finding:
                div.evidence = evidence
    return verdict
