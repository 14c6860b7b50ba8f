"""Budget governance: execution under a Budget always ends in an Outcome.

The property this file defends (ISSUE 4, docs/ROBUSTNESS.md): for *any*
program -- hand-written pathological ones and fuzz-generated ones alike
-- a governed run returns a structured :class:`~repro.errors.Outcome`.
It never hangs past its deadline, never leaks a raw ``RecursionError``
or ``MemoryError``, and the memory-model invariants still hold at the
point of cutoff.
"""

from __future__ import annotations

import time

import pytest

from repro.capability import MORELLO
from repro.core.coreeval import CALL_DEPTH_LIMIT, CoreEvaluator
from repro.core.cparser import parse_program
from repro.core.elaborate import elaborate_program
from repro.errors import Outcome, OutcomeKind, ResourceExhausted
from repro.fuzz.driver import program_for
from repro.impls import CERBERUS
from repro.impls.registry import CERBERUS_MAP
from repro.memory.invariants import check_invariants
from repro.memory.model import MemoryModel, Mode
from repro.obs import EventBus
from repro.robust import Budget, BudgetMeter, DEFAULT_FUZZ_BUDGET, FaultPlan

SPIN = "int main(void) { for (;;) { } return 0; }"
RECURSE = "int f(int n) { return f(n + 1); } int main(void) { return f(0); }"
CHURN = """
int main(void) {
  int i;
  for (i = 0; i < 1000; i = i + 1) { int x; x = i; }
  return 0;
}
"""


class TestBudgetAxes:
    def test_spin_hits_step_budget(self):
        out = CERBERUS.run(SPIN, budget=Budget(max_steps=1_000))
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "steps"
        assert "resource_exhausted (steps)" in out.describe()

    def test_spin_hits_deadline(self):
        started = time.monotonic()
        out = CERBERUS.run(SPIN, budget=Budget(max_steps=10**9,
                                               deadline=0.2))
        elapsed = time.monotonic() - started
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "deadline"
        assert elapsed < 30.0  # never hangs past the deadline

    def test_recursion_is_deterministic_call_depth(self):
        # NOT python-recursion: the semantics' own frame limit must win
        # over the host stack (whose depth varies between processes).
        out = CERBERUS.run(RECURSE)
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "call-depth"
        assert str(CALL_DEPTH_LIMIT) in out.detail

    def test_allocation_count_budget(self):
        out = CERBERUS.run(CHURN, budget=Budget(max_allocations=10))
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "allocations"

    def test_allocation_bytes_budget(self):
        out = CERBERUS.run(CHURN, budget=Budget(max_alloc_bytes=64))
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "memory"

    def test_generous_budget_changes_nothing(self):
        plain = CERBERUS.run("int main(void) { return 42; }")
        governed = CERBERUS.run("int main(void) { return 42; }",
                                budget=DEFAULT_FUZZ_BUDGET)
        assert plain == governed
        assert governed.exit_status == 42

    def test_default_fuzz_budget_is_deterministic(self):
        # Wall-clock axes would break parallel == serial bit-identity.
        assert DEFAULT_FUZZ_BUDGET.deadline is None
        assert DEFAULT_FUZZ_BUDGET.max_steps is not None

    def test_unlimited_budget_property(self):
        assert Budget().unlimited
        assert not Budget(max_steps=1).unlimited


class TestStructuredOutcomes:
    def test_resource_outcome_shape(self):
        out = Outcome.resource_exhausted("steps", "at step 7")
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "steps"
        assert out.describe() == "resource_exhausted (steps)"
        assert not out.ok

    def test_quarantined_outcome_shape(self):
        out = Outcome.quarantined("worker died")
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "worker"
        assert out.describe() == "quarantined: worker died"

    def test_resource_exhausted_error_message(self):
        err = ResourceExhausted("memory", "1024 bytes over")
        assert err.limit == "memory"
        assert "resource exhausted (memory)" in str(err)

    def test_cutoff_emits_robust_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        out = CERBERUS.run(SPIN, bus=bus, budget=Budget(max_steps=500))
        assert out.limit == "steps"
        cutoffs = [e for e in seen if e.kind == "robust.cutoff"]
        assert len(cutoffs) == 1
        assert cutoffs[0].data["limit"] == "steps"
        # The run.outcome record carries the limit for the explainer.
        outcomes = [e for e in seen if e.kind == "run.outcome"]
        assert outcomes[-1].data["limit"] == "steps"


class TestGeneratedPrograms:
    """Fuzz-generated programs under tiny budgets: always an Outcome."""

    TINY = Budget(max_steps=500, max_alloc_bytes=1 << 16,
                  max_allocations=64)

    @pytest.mark.parametrize("index", range(25))
    def test_always_structured_outcome(self, index):
        program = program_for(seed=0, index=index)
        out = CERBERUS.run(program.render(), budget=self.TINY)
        assert isinstance(out, Outcome)
        assert out.kind in OutcomeKind
        if out.kind is OutcomeKind.RESOURCE:
            assert out.limit in ("steps", "memory", "allocations",
                                 "call-depth")

    def test_budgeted_outcome_is_reproducible(self):
        for index in range(8):
            source = program_for(seed=3, index=index).render()
            first = CERBERUS.run(source, budget=self.TINY)
            second = CERBERUS.run(source, budget=self.TINY)
            assert first == second


def run_core(source: str, model: MemoryModel) -> Outcome:
    core = elaborate_program(parse_program(source, model.layout))
    return CoreEvaluator(core, model).run()


class TestInvariantsAtCutoff:
    def _governed_model(self, budget):
        return MemoryModel(MORELLO, Mode.ABSTRACT, CERBERUS_MAP,
                           meter=BudgetMeter(budget))

    def test_invariants_hold_after_allocation_cutoff(self):
        model = self._governed_model(Budget(max_allocations=8))
        out = run_core(CHURN, model)
        assert out.kind is OutcomeKind.RESOURCE
        check_invariants(model)  # must not raise

    def test_invariants_hold_after_step_cutoff(self):
        model = self._governed_model(Budget(max_steps=300))
        out = run_core(SPIN, model)
        assert out.kind is OutcomeKind.RESOURCE
        check_invariants(model)

    @pytest.mark.parametrize("index", range(10))
    def test_invariants_hold_for_generated_programs(self, index):
        model = self._governed_model(
            Budget(max_steps=400, max_allocations=32))
        source = program_for(seed=1, index=index).render()
        out = run_core(source, model)
        assert isinstance(out, Outcome)
        check_invariants(model)


class TestFaultInjection:
    def test_nth_allocation_fails(self):
        out = CERBERUS.run(CHURN, faults=FaultPlan(fail_alloc_index=5))
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "fault"
        assert "#5" in out.detail

    def test_fault_emits_robust_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        CERBERUS.run(CHURN, bus=bus, faults=FaultPlan(fail_alloc_index=3))
        assert any(e.kind == "robust.fault" for e in seen)

    def test_once_token_fires_once(self, tmp_path):
        token = tmp_path / "latch"
        plan = FaultPlan(fail_alloc_index=0, once_token=str(token))
        first = CERBERUS.run(CHURN, faults=plan)
        second = CERBERUS.run(CHURN, faults=plan)
        assert first.limit == "fault"
        assert second.kind is OutcomeKind.EXIT

    def test_compile_delay_applies(self):
        started = time.monotonic()
        out = CERBERUS.run("int main(void) { return 0; }",
                           faults=FaultPlan(compile_delay=0.2))
        assert time.monotonic() - started >= 0.2
        assert out.kind is OutcomeKind.EXIT
