"""The direct-threaded compiled backend (``repro.core.compile``).

What keeps closure dispatch a faithful twin of the Core loop is pinned
here, alongside the differential harness and the engine benchmark's
identity checks.  The identity tests run threaded programs directly --
through :func:`~repro.perf.compile_threaded` and
:class:`CompiledEvaluator`, or the ``threaded`` evaluator -- because
the default ``compiled`` evaluator threads nothing:

* **Observable identity** -- outcomes, step counts, budget cut-offs,
  and (traced) event streams match the Core evaluator's exactly; the
  superinstructions and the constant folder only change *how* steps
  are spent, never how many or what they observe.
* **Fusion boundaries** -- a pair whose second op is a jump target is
  never fused and a folded region never spans a control merge, over
  every program in the compliance suite, not just hand-picked cases.
* **Deterministic compilation** -- the same Core function compiles to
  the same slot plan and slot ids every time, so ``--dump-core``
  listings and differential failures are reproducible.
* **Folding never erases semantics** -- division by zero, signed
  overflow, capability-carrying arithmetic, and unspecified reads all
  refuse to fold and reach the same UB/trap outcome (with the same
  explainer chain) as the unoptimised evaluators; what *does* fold is
  pinned by a golden ``--dump-core`` listing.
* **The run memo and tiering are invisible** -- deterministic repeat
  runs are served from the memo and every other run takes the Core
  loop, never closures; every path renders the Core loop's outcome.
"""

from __future__ import annotations

import pathlib
import pickle

import pytest

from repro.core.compile import (
    CompiledEvaluator, CompiledProgram, render_compiled,
)
from repro.core.coreeval import THREADED, CoreEvaluator
from repro.core.coreir import Jump, JumpIfFalse, JumpIfTrue
from repro.errors import OutcomeKind
from repro.impls import CERBERUS, by_name
from repro.obs import EventBus, TraceRecorder
from repro.perf import compile_threaded, global_cache
from repro.robust import Budget, FaultPlan
from repro.testsuite.suite import all_cases

GOLDEN = pathlib.Path(__file__).parent / "golden"

LOOP_SUM = """
int main(void) {
  int total = 0;
  int i;
  for (i = 0; i < 40; i = i + 1) { total = total + i; }
  return total > 255 ? 255 : total;
}
"""

FOLDS_AND_NON_FOLDS = """
int main(void) {
  int folded = 2 + 3 * 4;
  int chain = (10 - 4) / 3;
  int a[2] = {1, 2};
  int runtime = a[0] + a[1];
  return folded + chain + runtime;
}
"""


def fresh_compiled(source: str, impl=CERBERUS) -> CompiledProgram:
    """A private CompiledProgram with folds on."""
    return compile_threaded(impl, source, use_cache=False)


def evaluator_pair(source: str, impl=CERBERUS):
    compiled = fresh_compiled(source, impl)
    return (CoreEvaluator(compiled.core, impl.fresh_model()),
            CompiledEvaluator(compiled, impl.fresh_model()))


class TestObservableIdentity:
    def test_outcome_and_step_count_match_core(self):
        core_ev, compiled_ev = evaluator_pair(LOOP_SUM)
        assert core_ev.run() == compiled_ev.run()
        assert core_ev.steps == compiled_ev.steps
        assert core_ev.steps > 0

    def test_step_counts_match_over_the_suite(self):
        # The charge-identity property, over real programs: fused
        # pairs and folded regions must spend exactly the Core loop's
        # steps on every suite case the frontend accepts.
        checked = 0
        for case in all_cases()[:25]:
            try:
                compiled = fresh_compiled(case.source)
            except Exception:
                continue  # frontend-rejected cases have no run stage
            core_ev = CoreEvaluator(compiled.core, CERBERUS.fresh_model())
            compiled_ev = CompiledEvaluator(compiled,
                                            CERBERUS.fresh_model())
            assert core_ev.run() == compiled_ev.run(), case.name
            assert core_ev.steps == compiled_ev.steps, case.name
            checked += 1
        assert checked >= 10

    def test_budget_cutoffs_identical(self):
        # A fold batch-charges only when no budget can observe it; at
        # every cut-off point the resource_exhausted outcome must be
        # byte-identical (same step number in the detail).
        for max_steps in (1, 7, 50, 137):
            budget = Budget(max_steps=max_steps)
            core = CERBERUS.run(LOOP_SUM, evaluator="core",
                                use_cache=False, budget=budget)
            threaded = CERBERUS.run(LOOP_SUM, evaluator=THREADED,
                                    use_cache=False, budget=budget)
            assert core == threaded, max_steps

    def test_traced_event_streams_identical(self):
        # Traced runs delegate to the Core dispatch loop: every event
        # must carry the same core_op id and step stamp.
        streams = []
        for evaluator in ("core", THREADED):
            bus = EventBus()
            recorder = TraceRecorder().attach(bus)
            outcome = CERBERUS.run(FOLDS_AND_NON_FOLDS, bus=bus,
                                   use_cache=False, evaluator=evaluator)
            assert outcome.kind is OutcomeKind.EXIT
            streams.append(recorder.dicts())
        assert streams[0] == streams[1]
        assert streams[0]  # the program does emit events


class TestFusionBoundaries:
    def branch_targets(self, func) -> set[int]:
        targets = set()
        for op in func.ops:
            if type(op) in (Jump, JumpIfFalse, JumpIfTrue):
                targets.add(op.target)
        return targets

    def test_no_fused_pair_or_fold_spans_a_jump_target(self):
        # A branch into the middle of a superinstruction would skip
        # its first half; the planner must break the pair instead.
        # Checked across the whole compliance suite for depth.
        funcs_with_pairs = 0
        for case in all_cases():
            try:
                compiled = fresh_compiled(case.source)
            except Exception:
                continue
            for cf in list(compiled.functions.values()) + \
                    [compiled.globals_init]:
                targets = self.branch_targets(cf.core)
                for entry in cf.plan:
                    if entry[0] == "fused":
                        assert entry[1] + 1 not in targets, \
                            (case.name, cf.name, entry)
                        funcs_with_pairs += 1
                    elif entry[0] == "fold":
                        _, start, end = entry[0], entry[1], entry[2]
                        assert not (targets &
                                    set(range(start + 1, end + 1))), \
                            (case.name, cf.name, entry)
        assert funcs_with_pairs > 0

    def test_loop_back_edge_blocks_fusion(self):
        # The `i < 40` comparison at a loop head is a jump target for
        # the back edge: a cmp+branch pair there must stay split while
        # the loop still runs correctly.
        compiled = fresh_compiled(LOOP_SUM)
        main = compiled.functions["main"]
        targets = self.branch_targets(main.core)
        for entry in main.plan:
            if entry[0] == "fused":
                assert entry[1] + 1 not in targets
        outcome = CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        assert outcome.exit_status == 255  # sum(range(40)) clamps


class TestDeterministicCompilation:
    def test_same_source_compiles_to_identical_plans(self):
        first = fresh_compiled(FOLDS_AND_NON_FOLDS)
        second = fresh_compiled(FOLDS_AND_NON_FOLDS)
        assert set(first.functions) == set(second.functions)
        for name in first.functions:
            assert first.functions[name].plan == \
                second.functions[name].plan
            assert first.functions[name].slot_ids == \
                second.functions[name].slot_ids
        assert first.globals_init.plan == second.globals_init.plan

    def test_slot_ids_name_function_index_and_kind(self):
        compiled = fresh_compiled(FOLDS_AND_NON_FOLDS)
        main = compiled.functions["main"]
        assert all(sid.startswith("main:") for sid in main.slot_ids)
        kinds = {sid.split(":")[2] for sid in main.slot_ids}
        assert kinds <= {"op", "fused", "fold"}

    def test_render_compiled_is_deterministic(self):
        assert render_compiled(fresh_compiled(FOLDS_AND_NON_FOLDS)) == \
            render_compiled(fresh_compiled(FOLDS_AND_NON_FOLDS))


class TestConstantFolding:
    @staticmethod
    def folded_indices(cf) -> set[int]:
        covered: set[int] = set()
        for entry in cf.plan:
            if entry[0] == "fold":
                covered.update(range(entry[1], entry[2] + 1))
        return covered

    @classmethod
    def binop_stays_unfolded(cls, compiled, op_name: str) -> bool:
        """True iff every ``op_name`` binop in main survives folding.
        (Charge+literal prefixes may still fold -- that is harmless --
        but the operation that would trap/UB must execute.)"""
        from repro.core.coreir import BinOp
        main = compiled.functions["main"]
        covered = cls.folded_indices(main)
        sites = [i for i, op in enumerate(main.core.ops)
                 if type(op) is BinOp and op.op == op_name]
        assert sites, f"no {op_name!r} binop elaborated"
        return all(i not in covered for i in sites)

    def assert_same_outcome(self, source: str, kind: OutcomeKind):
        core = CERBERUS.run(source, evaluator="core", use_cache=False)
        threaded = CERBERUS.run(source, evaluator=THREADED,
                                use_cache=False)
        assert core == threaded
        assert threaded.kind is kind
        return threaded

    def test_pure_arithmetic_folds(self):
        compiled = fresh_compiled(FOLDS_AND_NON_FOLDS)
        folds = [entry for entry in
                 compiled.functions["main"].plan if entry[0] == "fold"]
        assert folds, "2 + 3 * 4 should fold"
        outcome = CompiledEvaluator(compiled,
                                    CERBERUS.fresh_model()).run()
        assert outcome.exit_status == 14 + 2 + 3

    def test_division_by_zero_never_folds(self):
        source = "int main(void) { return 1 / 0; }"
        compiled = fresh_compiled(source)
        assert self.binop_stays_unfolded(compiled, "/")
        outcome = self.assert_same_outcome(source, OutcomeKind.UNDEFINED)
        assert outcome.ub is not None

    def test_signed_overflow_never_folds(self):
        source = """
#include <limits.h>
int main(void) { int x = INT_MAX + 1; return x != 0; }
"""
        compiled = fresh_compiled(source)
        assert self.binop_stays_unfolded(compiled, "+")
        core = CERBERUS.run(source, evaluator="core", use_cache=False)
        assert core == CERBERUS.run(source, evaluator=THREADED,
                                    use_cache=False)

    def test_oob_capability_arithmetic_never_folds(self):
        # Pointer/capability arithmetic is outside the fold whitelist
        # entirely, so the OOB dereference trap (hardware mode) and UB
        # (abstract mode) fire exactly as under the Core evaluator.
        source = "int main(void) { int a[2]; int *p = a + 2;" \
                 " return *p; }"
        for impl in (CERBERUS, by_name("clang-morello-O0")):
            compiled = compile_threaded(impl, source, use_cache=False)
            assert self.binop_stays_unfolded(compiled, "+")
            core = impl.run(source, evaluator="core", use_cache=False)
            threaded = impl.run(source, evaluator=THREADED,
                                use_cache=False)
            assert core == threaded, impl.name
            assert threaded.kind in (OutcomeKind.UNDEFINED,
                                     OutcomeKind.TRAP)

    def test_unspecified_read_never_folds(self):
        source = "int main(void) { int x; return x & 0; }"
        compiled = fresh_compiled(source)
        assert self.binop_stays_unfolded(compiled, "&")
        core = CERBERUS.run(source, evaluator="core", use_cache=False)
        assert core == CERBERUS.run(source, evaluator=THREADED,
                                    use_cache=False)

    def test_ub_explainer_chain_matches_core(self):
        # The explainer consumes the traced event stream; traced runs
        # delegate, so the explaining chain is the Core evaluator's.
        from repro.obs import explain
        chains = []
        for evaluator in ("core", THREADED):
            bus = EventBus()
            recorder = TraceRecorder().attach(bus)
            outcome = CERBERUS.run("int main(void) { return 1 / 0; }",
                                   bus=bus, use_cache=False,
                                   evaluator=evaluator)
            assert outcome.kind is OutcomeKind.UNDEFINED
            chains.append(explain(recorder.dicts(),
                                  outcome=outcome.describe()))
        assert chains[0] == chains[1]

    def test_golden_folds_listing(self):
        """The ``--dump-core`` listing under the compiled evaluator
        (refresh deliberately: ``python - <<'EOF'`` rebuilding via
        :func:`render_compiled` and writing
        ``tests/golden/compiled_folds.txt``)."""
        listing = render_compiled(fresh_compiled(FOLDS_AND_NON_FOLDS))
        expected = (GOLDEN / "compiled_folds.txt").read_text()
        assert listing == expected

    def test_dump_core_prints_compiled_section(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "folds.c"
        path.write_text(FOLDS_AND_NON_FOLDS, encoding="utf-8")
        status = main(["run", str(path), "--dump-core"])
        printed = capsys.readouterr().out
        assert status == 0
        assert "compiled:" in printed
        assert "fold" in printed


#: A deterministic budget: memoised, never threaded.
DEADLINE_FREE = Budget(max_steps=10_000)


@pytest.mark.usefixtures("fresh_global_cache")
class TestRunMemo:
    """The run memo on the compile-cache entry, seen from
    :meth:`Implementation.run` (more soundness cases are in
    ``tests/test_perf_engine.py::TestRunMemoSoundness``)."""

    def test_repeat_pure_runs_are_served_from_the_memo(self):
        first = CERBERUS.run(LOOP_SUM)
        assert global_cache().entry_counts()["memo"] == 1
        second = CERBERUS.run(LOOP_SUM)
        assert second is first  # the frozen Outcome itself is shared
        memo = global_cache().stats.memo
        assert (memo.hits, memo.misses) == (1, 1)

    def test_distinct_run_configs_memoise_separately(self):
        ref = CERBERUS.run(LOOP_SUM)
        hw = by_name("clang-morello-O0").run(LOOP_SUM)
        assert global_cache().entry_counts()["memo"] == 2
        assert global_cache().stats.memo.hits == 0
        assert ref == hw  # this program is mode-independent

    def test_deadline_budgeted_runs_bypass_the_memo(self):
        CERBERUS.run(LOOP_SUM)
        # A deadline reads the wall clock, so the run must execute (and
        # must not overwrite the deterministic entry).
        budget = Budget(max_steps=7, deadline=60.0)
        governed = CERBERUS.run(LOOP_SUM, budget=budget)
        assert governed.kind is OutcomeKind.RESOURCE
        assert global_cache().entry_counts()["memo"] == 1
        assert global_cache().stats.memo.hits == 0

    def test_traced_runs_bypass_the_memo(self):
        CERBERUS.run(LOOP_SUM)
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        outcome = CERBERUS.run(LOOP_SUM, bus=bus)
        assert outcome.kind is OutcomeKind.EXIT
        assert recorder.seen > 0
        memo = global_cache().stats.memo
        assert (memo.hits, memo.misses) == (0, 1)

    def test_uncached_cli_runs_never_share_a_memo(self):
        # use_cache=False compiles into a private cache per run, so
        # --no-compile-cache implies no run memo either.
        first = CERBERUS.run(LOOP_SUM, use_cache=False)
        second = CERBERUS.run(LOOP_SUM, use_cache=False)
        assert first == second
        assert first is not second


@pytest.mark.usefixtures("fresh_global_cache")
class TestTiering:
    """The default evaluator has two tiers, the run memo and the Core
    loop, and threads nothing -- not even a run the memo cannot serve."""

    DEADLINE = Budget(deadline=60.0)

    def threaded_entries(self) -> int:
        return global_cache().entry_counts()["threaded"]

    def test_first_and_memoised_runs_never_thread(self):
        CERBERUS.run(LOOP_SUM)
        CERBERUS.run(LOOP_SUM)
        CERBERUS.run(LOOP_SUM, budget=DEADLINE_FREE)
        by_name("clang-morello-O0").run(LOOP_SUM, budget=self.DEADLINE)
        assert self.threaded_entries() == 0
        assert global_cache().stats.threaded.lookups == 0

    def test_repeated_deadline_runs_never_thread(self):
        CERBERUS.run(LOOP_SUM)
        first = CERBERUS.run(LOOP_SUM, budget=self.DEADLINE)
        second = CERBERUS.run(LOOP_SUM, budget=self.DEADLINE)
        assert self.threaded_entries() == 0
        assert first == second == CERBERUS.run(LOOP_SUM, evaluator="core")

    def test_repeated_fault_plan_runs_never_thread_and_fire(self):
        plan = FaultPlan(fail_alloc_index=0)
        first = CERBERUS.run(LOOP_SUM, faults=plan)
        second = CERBERUS.run(LOOP_SUM, faults=plan)
        assert self.threaded_entries() == 0
        assert first == second
        assert first.limit == "fault"
        assert first == CERBERUS.run(LOOP_SUM, faults=plan,
                                     evaluator="core")

    def test_traced_runs_never_thread(self):
        for _ in range(2):
            CERBERUS.run(LOOP_SUM, bus=EventBus(), budget=self.DEADLINE)
        assert self.threaded_entries() == 0

    def test_every_tier_matches_core_over_the_suite(self):
        # The tiered default over real programs: the first run, the
        # memoised repeat, and repeated deadline runs (the Core loop,
        # unmemoised) all render the Core loop's outcome.
        for case in all_cases()[:25]:
            core = CERBERUS.run(case.source, evaluator="core")
            first = CERBERUS.run(case.source)
            assert CERBERUS.run(case.source) is first
            assert core == first, case.name
            for _ in range(2):
                governed = CERBERUS.run(case.source, budget=self.DEADLINE)
                assert core == governed, case.name
        assert self.threaded_entries() == 0


class TestPickleFallback:
    def test_compiled_program_reduces_to_core_and_recompiles(self):
        compiled = fresh_compiled(LOOP_SUM)
        first = CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledProgram)
        assert clone.core is not compiled.core  # core pickles by value
        assert CompiledEvaluator(clone, CERBERUS.fresh_model()).run() == \
            first

    def test_worker_pool_runs_compiled_evaluator(self):
        # Tasks ship sources, not closures: a spawned/forked worker
        # threads locally and must agree with the serial run.
        from repro.testsuite.compare import run_suite
        cases = all_cases()[:8]
        serial = run_suite(CERBERUS, cases, jobs=1, evaluator=THREADED)
        pooled = run_suite(CERBERUS, cases, jobs=2, evaluator=THREADED)
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in pooled.results]


class TestLazyPlan:
    """``plan``/``slot_ids`` are listing data: running a program never
    builds them, and the first read derives them from the slot list."""

    def test_running_builds_no_plan(self):
        source = "/* lazy plan */\n" + FOLDS_AND_NON_FOLDS
        outcome = CERBERUS.run(source, evaluator=THREADED)
        assert outcome.exit_status == 14 + 2 + 3
        compiled = compile_threaded(CERBERUS, source)   # the cached entry
        funcs = [*compiled.functions.values(), compiled.globals_init]
        assert all(cf._plan is None for cf in funcs)

    def test_first_read_builds_the_plan_once(self):
        compiled = fresh_compiled(FOLDS_AND_NON_FOLDS)
        CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        main = compiled.functions["main"]
        assert main._plan is None
        plan = main.plan
        assert main._plan is plan and main.plan is plan
        assert any(entry[0] == "fold" for entry in plan)
        assert len(main.slot_ids) == len(plan)
