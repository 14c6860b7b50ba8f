"""One simulated CHERI C implementation = arch + mode + optimiser + allocator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability.abstract import Architecture
from repro.core.coreeval import (
    CoreEvaluator, THREADED, check_evaluator, default_evaluator,
)
from repro.core.coreir import CoreProgram
from repro.ctypes.layout import TargetLayout
from repro.errors import CSyntaxError, CTypeError, Outcome
from repro.memory.allocator import AddressMap
from repro.memory.model import MemoryModel, Mode
from repro.memory.options import PAPER_CHOICES, SemanticsOptions
from repro.perf.cache import cache_for


#: Axes that determine the *compiled program*: the frontend, the
#: modelled optimiser, and the bounds-narrowing passes read exactly
#: these, so they (and only they) belong in compile-cache keys
#: (:func:`repro.perf.cache.CompileCache.key_for`, the disk digest).
COMPILE_AXES = ("arch", "opt_level", "subobject_bounds", "options")

#: Axes that only affect *running* a compiled program: a compiled
#: program is valid across all of them (compile caches are shared), and
#: the run memo keys on them (:func:`run_config_key`).
RUN_AXES = ("mode", "address_map", "revocation", "allocator")

#: The run axes a run observes only once it releases a heap region
#: (:meth:`MemoryModel._release_heap` is their one reader): until then
#: every allocator policy hands out the same addresses and no
#: revocation sweep runs.  A run that released nothing is memoised
#: without them (:func:`memo_keys`).
RELEASE_AXES = ("revocation", "allocator")

#: Axes with no semantic effect (labels for reports).
META_AXES = ("name", "description")


def run_config_key(impl, released: bool = True) -> tuple:
    """The run configuration of ``impl``, as a memo key: the memory-model
    class its runs build, then its value on every :data:`RUN_AXES` axis
    -- or, with ``released=False``, on every one but the
    :data:`RELEASE_AXES` (the *policy-blind* key).

    A compiled program is valid across all of these axes (the compile
    caches are deliberately policy-/mode-/map-independent), so the run
    memo (:meth:`repro.perf.cache.CompileCache.tiered`) must key on
    every axis a run observed -- missing one silently aliases outcomes
    across configurations.  A run that released no heap region observed
    no release axis, so its outcome stands for every value of them.
    The compile axes are not needed: the memo lives on a compile-cache
    entry, which fixes them.  The model class matters too: the
    seeded-fault implementations (:mod:`repro.impls.faults`) share
    every axis with their clean base and differ only in the
    :class:`MemoryModel` subclass.  The cache-key audit
    (``tests/test_cache_key_audit.py``) checks this derivation.
    """
    return (impl.model_class,
            *[getattr(impl, axis) for axis in RUN_AXES
              if released or axis not in RELEASE_AXES])


def memo_keys(impl, main: str = "main", budget=None) -> tuple:
    """The run memo's two keys for running ``main`` under ``impl`` with
    ``budget``: the policy-blind key, for a run that released no heap
    region, then the full key, for one that did.  Two runs that differ
    only on :data:`RELEASE_AXES` execute identically up to their first
    release, so for one (configuration, ``main``, budget) at most one
    of the two is ever stored."""
    return ((run_config_key(impl, released=False), main, budget),
            (run_config_key(impl), main, budget))


@dataclass(frozen=True)
class Implementation:
    """A runnable CHERI C implementation configuration.

    Attributes:
        name: e.g. ``clang-riscv-O3-bounds-conservative``.
        arch: capability format (Morello-style or CHERIoT-style).
        mode: abstract machine vs hardware execution.
        address_map: where the allocator places stack/heap/globals --
            observable through pointer-to-integer casts (Appendix A).
        opt_level: the modelled -O level.
        subobject_bounds: Clang's sub-object bounds mode (S3.8); the
            default (False) is the paper's "conservative" setting.
        allocator: heap-reuse policy (``bump``/``freelist``/
            ``quarantine``, see :mod:`repro.memory.allocator`) --
            observable through use-after-free aliasing.
        description: one line for reports.
    """

    name: str
    arch: Architecture
    mode: Mode
    address_map: AddressMap
    opt_level: int = 0
    subobject_bounds: bool = False
    options: SemanticsOptions = field(default_factory=lambda: PAPER_CHOICES)
    revocation: bool = False
    allocator: str = "bump"
    description: str = ""

    #: The memory-model class runs build; seeded-fault implementations
    #: make it a field (:class:`repro.impls.faults.FaultyImplementation`).
    #: Unannotated, so it is no dataclass field here.
    model_class = MemoryModel

    def fresh_model(self, bus=None, meter=None) -> MemoryModel:
        return self.model_class(self.arch, self.mode, self.address_map,
                                subobject_bounds=self.subobject_bounds,
                                options=self.options,
                                revocation=self.revocation,
                                allocator=self.allocator,
                                bus=bus, meter=meter)

    @property
    def layout(self) -> TargetLayout:
        return TargetLayout(self.arch)

    def run_compiled(self, program: CoreProgram, main: str = "main", *,
                     bus=None, budget=None, faults=None,
                     evaluator: str | None = None,
                     _models: list | None = None) -> Outcome:
        """The run stage: interpret a compiled program on a fresh model.

        Compiled programs are immutable (Core op lists are only ever
        read), so one cached compile can back any number of concurrent
        runs.  ``program`` is an elaborated
        :class:`~repro.core.coreir.CoreProgram` (from
        :func:`~repro.perf.cache.compile_core`) or a direct-threaded
        :class:`~repro.core.compile.CompiledProgram` (from
        :func:`~repro.perf.cache.compile_threaded`).  ``evaluator``
        (``None`` = the process default) picks how it runs:
        ``threaded`` runs closure dispatch, threading a Core program on
        the fly; ``core`` and ``compiled`` run the Core loop (over a
        threaded program's retained Core program).  When a
        :class:`~repro.robust.Budget` (or a test-only
        :class:`~repro.robust.FaultPlan`) is given, the run is
        governed: it always terminates with a structured outcome,
        never a hang or a raw ``RecursionError``/``MemoryError``.
        ``_models`` (for :meth:`run`) receives the run's memory model,
        whose ``heap_released`` picks the run memo key.
        """
        from repro.core.compile import CompiledEvaluator, CompiledProgram
        meter = None
        if budget is not None or faults is not None:
            from repro.robust.budget import BudgetMeter
            meter = BudgetMeter(budget, bus=bus, faults=faults)
        model = self.fresh_model(bus=bus, meter=meter)
        if _models is not None:
            _models.append(model)
        if evaluator is None:
            evaluator = default_evaluator()
        else:
            check_evaluator(evaluator)
        if evaluator == THREADED:
            if not isinstance(program, CompiledProgram):
                from repro.core.compile import compile_core as thread_core
                program = thread_core(program, self)
            return CompiledEvaluator(program, model).run(main)
        if isinstance(program, CompiledProgram):
            program = program.core
        return CoreEvaluator(program, model).run(main)

    def run(self, source: str, main: str = "main", *, bus=None,
            use_cache: bool | None = None, budget=None,
            faults=None, evaluator: str | None = None,
            persist: bool = True) -> Outcome:
        """Compile (parse + modelled optimisation + elaboration) and
        run one program.

        ``bus`` attaches an :class:`~repro.obs.events.EventBus` for the
        run (``repro trace``, fuzz evidence capture); None = untraced.
        ``evaluator`` selects the strategy; ``None`` defers to the
        process default, ``compiled``.  ``budget``/``faults`` govern
        the run stage (see :meth:`run_compiled`); the compile stage
        additionally honours a fault plan's ``compile_delay`` and
        converts host recursion blow-ups on pathological inputs into
        structured outcomes.  ``persist=False`` marks a one-shot
        program (a fuzz candidate): its compile stays in memory and is
        never looked up on, or written to, the disk cache.

        ``compiled`` is *tiered*: it pays for reuse only when reuse
        happens.  A deterministic run -- no bus, no fault plan, and no
        budget or one without a ``deadline`` -- is memoised on its
        compile-cache entry by (:func:`run_config_key`, ``main``,
        ``budget``), and an identical repeat returns the stored
        :class:`Outcome` without executing.  A run that released no
        heap region is stored under the policy-blind key
        (:func:`memo_keys`), so it also serves the same run under every
        other value of the :data:`RELEASE_AXES`.  Every other run -- a
        first run, a traced one, one with a deadline or a fault plan --
        takes the Core loop; nothing is threaded.  ``core`` -- the independent
        reference -- executes every run and never touches the memo;
        ``threaded`` threads every program and runs it by closure
        dispatch, never touching the memo either (the differential
        gate's arm).
        """
        if faults is not None and faults.compile_delay is not None:
            import time
            time.sleep(faults.compile_delay)
        if evaluator is None:
            evaluator = default_evaluator()
        cache = cache_for(use_cache)
        keys = None
        if (evaluator == "compiled" and bus is None and faults is None
                and (budget is None or budget.deadline is None)):
            keys = memo_keys(self, main, budget)
        try:
            if evaluator == "compiled":
                key = cache.key_for(self, source)
                outcome, program = cache.tiered(self, source, keys,
                                                persist, key)
                if outcome is not None:
                    return outcome
            elif evaluator == THREADED:
                program = cache.threaded(self, source, persist)
            else:
                program = cache.core(self, source, persist)
        except (CSyntaxError, CTypeError) as exc:
            return Outcome.frontend_error(str(exc))
        except RecursionError:
            return Outcome.resource_exhausted(
                "python-recursion",
                "host recursion limit while compiling")
        except MemoryError:
            return Outcome.resource_exhausted(
                "python-memory", "host out of memory while compiling")
        models = []
        outcome = self.run_compiled(program, main, bus=bus, budget=budget,
                                    faults=faults, evaluator=evaluator,
                                    _models=models)
        if keys is not None:
            cache.memoise(self, source, keys, outcome,
                          models[0].heap_released, key)
        return outcome
