"""The direct-threaded compiled backend (``repro.core.compile``).

What justifies making closure dispatch the process default is pinned
here, alongside the two-way differential harness and the engine
benchmark's identity checks:

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
* **The run memo is invisible** -- pure repeat runs are served from
  the memo, while traced, metered, and fault-injected runs always
  execute for real.
"""

from __future__ import annotations

import pathlib
import pickle

from repro.core.compile import (
    CompiledEvaluator, CompiledProgram, render_compiled,
)
from repro.core.coreeval import CoreEvaluator
from repro.core.coreir import Jump, JumpIfFalse, JumpIfTrue
from repro.errors import OutcomeKind
from repro.impls import CERBERUS, by_name
from repro.obs import EventBus, TraceRecorder
from repro.perf import compile_threaded
from repro.robust import Budget
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
    """A private CompiledProgram (cold snapshots/memo) with folds on."""
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
            compiled = CERBERUS.run(LOOP_SUM, evaluator="compiled",
                                    use_cache=False, budget=budget)
            assert core == compiled, max_steps

    def test_traced_event_streams_identical(self):
        # Traced runs delegate to the Core dispatch loop: every event
        # must carry the same core_op id and step stamp.
        streams = []
        for evaluator in ("core", "compiled"):
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
        compiled = CERBERUS.run(source, evaluator="compiled",
                                use_cache=False)
        assert core == compiled
        assert compiled.kind is kind
        return compiled

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
        assert core == CERBERUS.run(source, evaluator="compiled",
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
            threaded = impl.run(source, evaluator="compiled",
                                use_cache=False)
            assert core == threaded, impl.name
            assert threaded.kind in (OutcomeKind.UNDEFINED,
                                     OutcomeKind.TRAP)

    def test_unspecified_read_never_folds(self):
        source = "int main(void) { int x; return x & 0; }"
        compiled = fresh_compiled(source)
        assert self.binop_stays_unfolded(compiled, "&")
        core = CERBERUS.run(source, evaluator="core", use_cache=False)
        assert core == CERBERUS.run(source, evaluator="compiled",
                                    use_cache=False)

    def test_ub_explainer_chain_matches_core(self):
        # The explainer consumes the traced event stream; traced runs
        # delegate, so the explaining chain is the Core evaluator's.
        from repro.obs import explain
        chains = []
        for evaluator in ("core", "compiled"):
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


class TestRunMemo:
    def test_repeat_pure_runs_are_served_from_the_memo(self):
        compiled = fresh_compiled(LOOP_SUM)
        first = CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        assert len(compiled.outcomes) == 1
        second = CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        assert second is first  # the frozen Outcome itself is shared
        assert len(compiled.outcomes) == 1

    def test_distinct_run_configs_memoise_separately(self):
        source = LOOP_SUM
        compiled_ref = fresh_compiled(source, CERBERUS)
        ref = CompiledEvaluator(compiled_ref, CERBERUS.fresh_model()).run()
        hw = CompiledEvaluator(
            compiled_ref, by_name("clang-morello-O0").fresh_model()).run()
        assert len(compiled_ref.outcomes) == 2
        assert ref == hw  # this program is mode-independent

    def test_metered_runs_bypass_the_memo(self):
        compiled = fresh_compiled(LOOP_SUM)
        CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        assert len(compiled.outcomes) == 1
        # A governed run must execute for real (its budget could cut
        # it off) and must not overwrite the pure entry.
        from repro.robust.budget import BudgetMeter
        meter = BudgetMeter(Budget(max_steps=7))
        model = CERBERUS.fresh_model(meter=meter)
        governed = CompiledEvaluator(compiled, model).run()
        assert governed.kind is OutcomeKind.RESOURCE
        assert len(compiled.outcomes) == 1

    def test_traced_runs_bypass_the_memo(self):
        compiled = fresh_compiled(LOOP_SUM)
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        model = CERBERUS.fresh_model(bus=bus)
        outcome = CompiledEvaluator(compiled, model).run()
        assert outcome.kind is OutcomeKind.EXIT
        assert recorder.seen > 0
        assert compiled.outcomes == {}

    def test_uncached_cli_runs_never_share_a_memo(self):
        # use_cache=False builds a fresh CompiledProgram per run, so
        # --no-compile-cache implies no run memo either.
        first = CERBERUS.run(LOOP_SUM, evaluator="compiled",
                             use_cache=False)
        second = CERBERUS.run(LOOP_SUM, evaluator="compiled",
                              use_cache=False)
        assert first == second
        assert first is not second


class TestPickleFallback:
    def test_compiled_program_reduces_to_core_and_recompiles(self):
        compiled = fresh_compiled(LOOP_SUM)
        CompiledEvaluator(compiled, CERBERUS.fresh_model()).run()
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledProgram)
        assert clone.core is not compiled.core  # core pickles by value
        assert clone.snapshots == {} and clone.outcomes == {}
        assert CompiledEvaluator(clone, CERBERUS.fresh_model()).run() == \
            compiled.outcomes[next(iter(compiled.outcomes))]

    def test_worker_pool_runs_compiled_evaluator(self):
        # Tasks ship sources, not closures: a spawned/forked worker
        # compiles locally and must agree with the serial run.
        from repro.testsuite.compare import run_suite
        cases = all_cases()[:8]
        serial = run_suite(CERBERUS, cases, jobs=1, evaluator="compiled")
        pooled = run_suite(CERBERUS, cases, jobs=2, evaluator="compiled")
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in pooled.results]
