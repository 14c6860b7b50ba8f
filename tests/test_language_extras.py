"""Language extensions: switch, enum, and real varargs (va_list)."""

import pytest

from repro.errors import OutcomeKind, UB
from repro.impls import CERBERUS, by_name
from tests.conftest import run_abstract


def expect_exit(src, status=0):
    out = run_abstract(src)
    assert out.kind is OutcomeKind.EXIT, (out.describe(), out.detail)
    assert out.exit_status == status, out.describe()
    return out


class TestSwitch:
    def test_basic_dispatch(self):
        expect_exit("""
int classify(int x) {
  switch (x) {
    case 0: return 10;
    case 1: return 11;
    default: return 99;
  }
}
int main(void) {
  if (classify(0) != 10) return 1;
  if (classify(1) != 11) return 2;
  if (classify(7) != 99) return 3;
  return 0;
}""")

    def test_fallthrough(self):
        expect_exit("""
int main(void) {
  int n = 0;
  switch (2) {
    case 1: n += 1;
    case 2: n += 2;     /* matched: falls through */
    case 3: n += 4;
    default: n += 8;
  }
  return n;             /* 2 + 4 + 8 */
}""", 14)

    def test_break_stops_fallthrough(self):
        expect_exit("""
int main(void) {
  int n = 0;
  switch (1) {
    case 1: n = 5; break;
    case 2: n = 9; break;
  }
  return n;
}""", 5)

    def test_no_match_no_default(self):
        expect_exit("""
int main(void) {
  switch (42) { case 1: return 1; }
  return 0;
}""")

    def test_switch_in_loop(self):
        expect_exit("""
int main(void) {
  int total = 0;
  for (int i = 0; i < 5; i++) {
    switch (i % 2) {
      case 0: total += 10; break;
      default: total += 1; break;
    }
  }
  return total;      /* 3*10 + 2*1 */
}""", 32)

    def test_switch_on_unspecified_is_ub(self):
        out = run_abstract("""
int main(void) {
  int x;
  switch (x) { default: return 1; }
}""")
        assert out.ub is UB.READ_UNINITIALISED

    def test_case_constant_expressions(self):
        expect_exit("""
int main(void) {
  switch (8) {
    case 2 * 4: return 0;
    default: return 1;
  }
}""")

    @pytest.mark.parametrize("evaluator", ["core", "threaded"])
    @pytest.mark.parametrize("impl", ["cerberus", "clang-morello-O0"])
    def test_case_label_converts_to_the_selector_type(self, impl,
                                                      evaluator):
        """ISO 6.8.4.2p5: ``case -1`` matches an unsigned selector of
        UINT_MAX; a ``char`` selector promotes to ``int``, so 255 does
        not match it."""
        out = by_name(impl).run("""
int main(void) {
  unsigned x = 0u - 1;
  signed char c = -1;
  switch (c) { case 255: return 3; default: break; }
  switch (x) { case -1: return 1; default: return 2; }
}""", evaluator=evaluator)
        assert out.kind is OutcomeKind.EXIT, (out.describe(), out.detail)
        assert out.exit_status == 1


class TestEnum:
    def test_sequential_values(self):
        expect_exit("""
enum colour { RED, GREEN, BLUE };
int main(void) { return RED + GREEN * 10 + BLUE * 100; }
""", 210)

    def test_explicit_values(self):
        expect_exit("""
enum flags { A = 1, B = 4, C, D = 16 };
int main(void) { return A + B + C + D; }   /* 1+4+5+16 */
""", 26)

    def test_enum_as_type(self):
        expect_exit("""
enum mode { OFF, ON };
enum mode flip(enum mode m) { return m == ON ? OFF : ON; }
int main(void) { return flip(OFF) == ON ? 0 : 1; }
""")

    def test_enum_in_switch(self):
        expect_exit("""
enum op { ADD, SUB };
int apply(enum op o, int a, int b) {
  switch (o) {
    case ADD: return a + b;
    case SUB: return a - b;
  }
  return -1;
}
int main(void) { return apply(ADD, 20, 22) - apply(SUB, 44, 2); }
""")


class TestVarargs:
    def test_sum_ints(self):
        expect_exit("""
#include <stdarg.h>
int sum(int n, ...) {
  va_list ap;
  va_start(ap, n);
  int total = 0;
  for (int i = 0; i < n; i++) total += va_arg(ap, int);
  va_end(ap);
  return total;
}
int main(void) { return sum(4, 10, 20, 5, 7); }
""", 42)

    def test_pointer_through_varargs(self):
        """Capabilities pass whole through variadic calls (the S5
        calling-convention concern)."""
        expect_exit("""
#include <stdarg.h>
#include <cheriintrin.h>
int deref_nth(int n, ...) {
  va_list ap;
  va_start(ap, n);
  int *p = 0;
  for (int i = 0; i <= n; i++) p = va_arg(ap, int*);
  va_end(ap);
  if (!cheri_tag_get(p)) return -1;
  return *p;
}
int main(void) {
  int a = 1, b = 2, c = 3;
  return deref_nth(2, &a, &b, &c) - 3;
}
""")

    def test_va_copy(self):
        expect_exit("""
#include <stdarg.h>
int twice(int n, ...) {
  va_list ap, ap2;
  va_start(ap, n);
  va_copy(ap2, ap);
  int first = va_arg(ap, int);
  int again = va_arg(ap2, int);
  va_end(ap);
  va_end(ap2);
  return first + again;
}
int main(void) { return twice(1, 21); }
""", 42)

    def test_overrun_is_ub(self):
        out = run_abstract("""
#include <stdarg.h>
int f(int n, ...) {
  va_list ap;
  va_start(ap, n);
  return va_arg(ap, int);    /* no variadic args were passed */
}
int main(void) { return f(0); }
""")
        assert out.kind is OutcomeKind.UNDEFINED

    def test_mixed_types(self):
        expect_exit("""
#include <stdarg.h>
#include <stdint.h>
long mix(int n, ...) {
  va_list ap;
  va_start(ap, n);
  int i = va_arg(ap, int);
  long l = va_arg(ap, long);
  uintptr_t u = va_arg(ap, uintptr_t);
  va_end(ap);
  return i + l + (long)(u & 0xff);
}
int main(void) {
  return (int)mix(3, 1, 2L, (uintptr_t)39);
}
""", 42)

    def test_varargs_on_hardware(self):
        src = """
#include <stdarg.h>
int sum(int n, ...) {
  va_list ap;
  va_start(ap, n);
  int total = 0;
  for (int i = 0; i < n; i++) total += va_arg(ap, int);
  va_end(ap);
  return total;
}
int main(void) { return sum(3, 1, 2, 3) - 6; }
"""
        assert by_name("clang-morello-O0").run(src).ok
        assert by_name("gcc-morello-O3").run(src).ok
