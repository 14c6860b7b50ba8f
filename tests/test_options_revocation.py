"""The S3 design-option switches and CHERIoT-style revocation."""

from dataclasses import replace

import pytest

from repro.errors import OutcomeKind, TrapKind, UB
from repro.impls import CERBERUS, by_name
from repro.memory.options import (
    EqualityPolicy, IntptrPolicy, OOBArithPolicy, PAPER_CHOICES,
    SemanticsOptions,
)


def run_with(src, **option_kwargs):
    impl = replace(CERBERUS, options=SemanticsOptions(**option_kwargs))
    return impl.run(src)


class TestDefaults:
    def test_paper_choices(self):
        assert PAPER_CHOICES.oob_arith is OOBArithPolicy.ISO_UB
        assert PAPER_CHOICES.intptr is IntptrPolicy.DEFINED_WITH_GHOST
        assert PAPER_CHOICES.equality is EqualityPolicy.ADDRESS_ONLY

    def test_describe(self):
        assert "iso_ub" in PAPER_CHOICES.describe()


class TestOOBArithOptions:
    BELOW = """
int main(void) {
  int a[4];
  int *p = a - 1;     /* one below: ISO-UB, architecturally fine */
  (void)p;
  return 0;
}
"""

    def test_iso_rejects_one_below(self):
        out = run_with(self.BELOW, oob_arith=OOBArithPolicy.ISO_UB)
        assert out.ub is UB.OUT_OF_BOUNDS_PTR_ARITH

    def test_envelope_accepts_one_below(self):
        out = run_with(self.BELOW,
                       oob_arith=OOBArithPolicy.PORTABLE_ENVELOPE)
        assert out.ok

    def test_arch_accepts_one_below(self):
        out = run_with(self.BELOW,
                       oob_arith=OOBArithPolicy.ARCH_REPRESENTABLE)
        assert out.ok

    def test_access_still_checked_under_loose_options(self):
        src = """
int main(void) {
  int a[4];
  int *p = a - 1;
  return *p;        /* construction allowed; access never is */
}
"""
        out = run_with(src, oob_arith=OOBArithPolicy.ARCH_REPRESENTABLE)
        assert out.ub is UB.CHERI_BOUNDS_VIOLATION


class TestIntptrOptions:
    EXCURSION = """
#include <stdint.h>
int main(void) {
  int x;
  uintptr_t u = (uintptr_t)&x;
  uintptr_t far = u + (1 << 24);
  uintptr_t back = far - (1 << 24);
  return (int)(back - u);
}
"""
    ONE_PAST = """
#include <stdint.h>
int main(void) {
  int x;
  uintptr_t u = (uintptr_t)&x;
  u = u + sizeof(int);      /* one past: fine under every option */
  return 0;
}
"""

    def test_option1_rejects_excursion(self):
        out = run_with(self.EXCURSION,
                       intptr=IntptrPolicy.UB_OUTSIDE_BOUNDS)
        assert out.ub is UB.OUT_OF_BOUNDS_PTR_ARITH

    def test_option2_rejects_excursion(self):
        out = run_with(self.EXCURSION,
                       intptr=IntptrPolicy.UB_OUTSIDE_REPRESENTABLE)
        assert out.ub is UB.OUT_OF_BOUNDS_PTR_ARITH

    def test_option3_defines_excursion(self):
        out = run_with(self.EXCURSION,
                       intptr=IntptrPolicy.DEFINED_WITH_GHOST)
        assert out.ok

    @pytest.mark.parametrize("policy", list(IntptrPolicy),
                             ids=lambda p: p.name)
    def test_one_past_fine_everywhere(self, policy):
        assert run_with(self.ONE_PAST, intptr=policy).ok

    def test_option2_accepts_small_roam(self):
        """Option (2) is strictly looser than (1): within the
        representable window but beyond one-past."""
        src = """
#include <stdint.h>
int main(void) {
  int x;
  uintptr_t u = (uintptr_t)&x;
  u = u + 64;               /* beyond one-past, still representable */
  return 0;
}
"""
        out1 = run_with(src, intptr=IntptrPolicy.UB_OUTSIDE_BOUNDS)
        out2 = run_with(src, intptr=IntptrPolicy.UB_OUTSIDE_REPRESENTABLE)
        assert out1.kind is OutcomeKind.UNDEFINED
        assert out2.ok


class TestEqualityOptions:
    UNTAGGED = """
#include <cheriintrin.h>
int main(void) {
  int x;
  int *p = &x;
  int *q = cheri_tag_clear(p);
  return p == q ? 0 : 1;
}
"""

    def test_option1_sees_tag(self):
        out = run_with(self.UNTAGGED,
                       equality=EqualityPolicy.EXACT_WITH_TAGS)
        assert out.exit_status == 1

    def test_option2_ignores_tag(self):
        out = run_with(self.UNTAGGED,
                       equality=EqualityPolicy.EXACT_WITHOUT_TAGS)
        assert out.exit_status == 0

    def test_option3_address_only(self):
        out = run_with(self.UNTAGGED,
                       equality=EqualityPolicy.ADDRESS_ONLY)
        assert out.exit_status == 0

    def test_option2_sees_bounds(self):
        src = """
#include <cheriintrin.h>
int main(void) {
  char buf[32];
  char *n = cheri_bounds_set(buf, 8);
  return buf == n ? 0 : 1;
}
"""
        assert run_with(src,
                        equality=EqualityPolicy.EXACT_WITHOUT_TAGS
                        ).exit_status == 1
        assert run_with(src,
                        equality=EqualityPolicy.ADDRESS_ONLY
                        ).exit_status == 0


class TestRevocation:
    UAF = """
#include <stdlib.h>
int main(void) {
  int *p = malloc(sizeof(int));
  *p = 5;
  free(p);
  return *p;
}
"""

    def test_plain_hardware_misses_uaf(self):
        out = by_name("clang-morello-O0").run(self.UAF)
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 5

    def test_cheriot_revocation_catches_uaf(self):
        out = by_name("cheriot-O0").run(self.UAF)
        assert out.kind is OutcomeKind.TRAP
        assert out.trap is TrapKind.TAG_VIOLATION

    def test_revocation_spares_unrelated_capabilities(self):
        src = """
#include <stdlib.h>
int main(void) {
  int *keep = malloc(sizeof(int));
  int *dead = malloc(sizeof(int));
  *keep = 1;
  free(dead);
  return *keep;     /* keep must survive the sweep */
}
"""
        out = by_name("cheriot-O0").run(src)
        assert out.exit_status == 1

    def test_revocation_sweeps_aliases(self):
        src = """
#include <stdlib.h>
int *alias;
int main(void) {
  int *p = malloc(sizeof(int));
  alias = p;          /* second stored copy */
  free(p);
  return *alias;      /* also revoked */
}
"""
        out = by_name("cheriot-O0").run(src)
        assert out.kind is OutcomeKind.TRAP

    def test_suite_temporal_cases_trap_under_revocation(self):
        from repro.testsuite.suite import cases_by_category
        from repro.testsuite.categories import Category
        impl = by_name("cheriot-O0")
        for case in cases_by_category(Category.TEMPORAL):
            if case.name in ("temporal-use-after-free",
                             "temporal-write-after-free"):
                out = impl.run(case.source)
                assert out.kind is OutcomeKind.TRAP, (case.name,
                                                      out.describe())


class TestReallocReleasesLikeFree:
    """``realloc``'s old block goes through ``free``'s bookkeeping: the
    ``alloc.free`` event, and the revocation sweep on CHERIoT."""

    SOURCE = """
#include <stdlib.h>
#include <stdio.h>
int *stale;
int main(void) {
  int *p = malloc(sizeof(int));
  *p = 7;
  stale = p;          /* stored before the block moves */
  int *q = %s;
  printf("%%d\\n", *stale);
  free(q);
  return 0;
}
"""
    REALLOC = SOURCE % "realloc(p, 64 * sizeof(int))"
    FREE = SOURCE % "(free(p), malloc(64 * sizeof(int)))"

    @pytest.mark.parametrize("impl", ["cheriot-O0", "cheriot-O0-quarantine"])
    @pytest.mark.parametrize("release", ["realloc", "free"])
    def test_revocation_clears_stored_capabilities_to_the_old_block(
            self, impl, release):
        source = self.REALLOC if release == "realloc" else self.FREE
        out = by_name(impl).run(source)
        assert out.kind is OutcomeKind.TRAP, out.describe()
        assert out.trap is TrapKind.TAG_VIOLATION

    def test_without_revocation_the_stale_capability_still_reads(self):
        out = by_name("clang-morello-O0").run(self.REALLOC)
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 0
        assert out.stdout == "7\n"

    def test_abstract_machine_reports_the_dead_block_and_its_free(self):
        from repro.obs import EventBus, TraceRecorder
        bus = EventBus()
        recorder = TraceRecorder()
        recorder.attach(bus)
        out = CERBERUS.run(self.REALLOC, bus=bus)
        assert out.kind is OutcomeKind.UNDEFINED
        assert out.ub is UB.ACCESS_DEAD_ALLOCATION
        events = recorder.events()
        verdict = [e for e in events if e.kind == "check.ub"][-1]
        frees = [e for e in events if e.kind == "alloc.free"]
        assert [e.data["alloc"] for e in frees] == [verdict.data["alloc"]]
