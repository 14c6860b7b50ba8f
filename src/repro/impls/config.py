"""One simulated CHERI C implementation = arch + mode + optimiser + allocator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability.abstract import Architecture
from repro.core.coreeval import (
    CoreEvaluator, EVALUATORS, default_evaluator,
)
from repro.core.coreir import CoreProgram
from repro.ctypes.layout import TargetLayout
from repro.errors import CSyntaxError, CTypeError, Outcome
from repro.memory.allocator import AddressMap
from repro.memory.model import MemoryModel, Mode
from repro.memory.options import PAPER_CHOICES, SemanticsOptions
from repro.perf.cache import compile_core, compile_threaded


#: Axes that determine the *compiled program*: the frontend, the
#: modelled optimiser, and the bounds-narrowing passes read exactly
#: these, so they (and only they) belong in compile-cache keys
#: (:func:`repro.perf.cache.CompileCache.key_for`, the disk digest).
COMPILE_AXES = ("arch", "opt_level", "subobject_bounds", "options")

#: Axes that only affect *running* a compiled program: a compiled
#: program is valid across all of them (compile caches are shared), but
#: any run memo or state snapshot must key on every one of them
#: (:func:`repro.core.compile.run_config_key`).
RUN_AXES = ("mode", "address_map", "revocation", "allocator")

#: Axes with no semantic effect (labels for reports).
META_AXES = ("name", "description")


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

    def fresh_model(self, bus=None, meter=None) -> MemoryModel:
        return MemoryModel(self.arch, self.mode, self.address_map,
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
                     evaluator: str | None = None) -> Outcome:
        """The run stage: interpret a compiled program on a fresh model.

        Compiled programs are immutable (Core op lists are only ever
        read), so one cached compile can back any number of concurrent
        runs.  ``program`` is an elaborated
        :class:`~repro.core.coreir.CoreProgram` (from
        :func:`~repro.perf.cache.compile_core`) or a direct-threaded
        :class:`~repro.core.compile.CompiledProgram` (from
        :func:`~repro.perf.cache.compile_threaded`); ``evaluator``
        picks the strategy (``None`` = the process default,
        ``compiled``) -- a Core program run by the compiled evaluator
        is threaded on the fly.  When a :class:`~repro.robust.Budget`
        (or a test-only :class:`~repro.robust.FaultPlan`) is given, the
        run is governed: it always terminates with a structured
        outcome, never a hang or a raw
        ``RecursionError``/``MemoryError``.
        """
        from repro.core.compile import CompiledEvaluator, CompiledProgram
        meter = None
        if budget is not None or faults is not None:
            from repro.robust.budget import BudgetMeter
            meter = BudgetMeter(budget, bus=bus, faults=faults)
        model = self.fresh_model(bus=bus, meter=meter)
        if evaluator is None:
            evaluator = default_evaluator()
        elif evaluator not in EVALUATORS:
            raise ValueError(f"unknown evaluator {evaluator!r} "
                             f"(expected one of {EVALUATORS})")
        if evaluator == "compiled":
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
        ``evaluator`` selects ``core`` (the iterative Core evaluator)
        or ``compiled`` (the direct-threaded closure backend); ``None``
        defers to the process default.  ``budget``/``faults`` govern
        the run stage (see :meth:`run_compiled`); the compile stage
        additionally honours a fault plan's ``compile_delay`` and
        converts host recursion blow-ups on pathological inputs into
        structured outcomes.  ``persist=False`` marks a one-shot
        program (a fuzz candidate): its compile stays in memory and is
        never looked up on, or written to, the disk cache.
        """
        if faults is not None and faults.compile_delay is not None:
            import time
            time.sleep(faults.compile_delay)
        if evaluator is None:
            evaluator = default_evaluator()
        try:
            if evaluator == "compiled":
                program = compile_threaded(self, source,
                                           use_cache=use_cache,
                                           persist=persist)
            else:
                program = compile_core(self, source, use_cache=use_cache,
                                       persist=persist)
        except (CSyntaxError, CTypeError) as exc:
            return Outcome.frontend_error(str(exc))
        except RecursionError:
            return Outcome.resource_exhausted(
                "python-recursion",
                "host recursion limit while compiling")
        except MemoryError:
            return Outcome.resource_exhausted(
                "python-memory", "host out of memory while compiling")
        return self.run_compiled(program, main, bus=bus, budget=budget,
                                 faults=faults, evaluator=evaluator)
