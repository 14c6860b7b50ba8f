"""The modelled optimiser: each pass and its semantic consequences."""

import pytest

from repro.capability import MORELLO
from repro.core import cast as A
from repro.core.cparser import parse_program
from repro.core.optimizer import optimize_program
from repro.ctypes import TargetLayout
from repro.errors import OutcomeKind
from repro.impls import by_name

LAYOUT = TargetLayout(MORELLO)


def optimize(src, level=3):
    return optimize_program(parse_program(src, LAYOUT), LAYOUT, level)


def main_stmts(prog):
    main = next(f for f in prog.functions if f.name == "main")
    return main.body.stmts


def flat(stmts):
    out = []
    for s in stmts:
        out.append(s)
        if isinstance(s, A.Block):
            out.extend(flat(s.stmts))
    return out


class TestConstantFolding:
    def test_sizeof_folds(self):
        prog = optimize("int main(void){ return sizeof(int) * 3; }", 1)
        ret = main_stmts(prog)[0]
        assert isinstance(ret.value, A.IntLit)
        assert ret.value.value == 12

    def test_transient_arith_collapses(self):
        prog = optimize(
            "int main(void){ int *p; int *q = p + 100001 - 100000;"
            " return 0; }", 1)
        decl = main_stmts(prog)[1]
        init = decl.decls[0].init
        assert isinstance(init, A.Binary) and init.op == "+"
        assert isinstance(init.rhs, A.IntLit) and init.rhs.value == 1

    def test_collapse_handles_negative_net(self):
        prog = optimize(
            "int main(void){ int *p; int *q = p + 5 - 8; return 0; }", 1)
        init = main_stmts(prog)[1].decls[0].init
        assert init.op == "-" and init.rhs.value == 3

    def test_level_zero_is_identity(self):
        src = "int main(void){ return sizeof(int) * 3; }"
        prog = optimize(src, 0)
        assert isinstance(main_stmts(prog)[0].value, A.Binary)


class TestIdentityWriteElimination:
    SRC = """
int main(void) {
  int x = 0;
  int *px = &x;
  unsigned char *p = (unsigned char *)&px;
  p[0] = p[0];
  *px = 1;
  return x;
}
"""

    def test_statement_removed(self):
        prog = optimize(self.SRC)
        assigns = [s for s in flat(main_stmts(prog))
                   if isinstance(s, A.ExprStmt)
                   and isinstance(s.expr, A.Assign)]
        # only *px = 1 remains
        assert len(assigns) == 1

    def test_semantic_effect(self):
        assert by_name("clang-morello-O0").run(self.SRC).kind \
            is OutcomeKind.TRAP
        out = by_name("clang-morello-O3").run(self.SRC)
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 1


class TestLoopToMemcpy:
    SRC = """
int main(void) {
  int x = 0;
  int *px0 = &x;
  int *px1;
  unsigned char *p0 = (unsigned char *)&px0;
  unsigned char *p1 = (unsigned char *)&px1;
  for (int i=0; i<sizeof(int*); i++)
    p1[i] = p0[i];
  *px1 = 1;
  return x;
}
"""

    def test_loop_becomes_memcpy(self):
        prog = optimize(self.SRC)
        calls = [s.expr for s in flat(main_stmts(prog))
                 if isinstance(s, A.ExprStmt)
                 and isinstance(s.expr, A.Call)]
        assert any(isinstance(c.func, A.Ident) and c.func.name == "memcpy"
                   for c in calls)

    def test_semantic_effect_tag_preserved(self):
        assert by_name("clang-riscv-O0").run(self.SRC).kind \
            is OutcomeKind.TRAP
        out = by_name("clang-riscv-O3").run(self.SRC)
        assert out.exit_status == 1

    def test_non_copy_loops_untouched(self):
        src = """
int main(void){
  int a[4]; int b[4];
  for (int i = 0; i < 4; i++) a[i] = b[i] + 1;
  return 0;
}
"""
        prog = optimize(src)
        loops = [s for s in flat(main_stmts(prog)) if isinstance(s, A.For)]
        assert loops


class TestInBoundsAssumption:
    def test_rewrites_index_on_length1_array(self):
        src = """
char g(int i) { char a[1]; a[0] = 7; return a[i]; }
int main(void){ return g(1); }
"""
        prog = optimize(src)
        g = next(f for f in prog.functions if f.name == "g")
        ret = [s for s in flat(g.body.stmts) if isinstance(s, A.Return)][0]
        assert isinstance(ret.value.index, A.IntLit)
        assert ret.value.index.value == 0

    def test_literal_indices_untouched(self):
        src = "int main(void){ char a[1]; a[0] = 1; return a[0]; }"
        prog = optimize(src)
        out = by_name("clang-morello-O3").run(src)
        assert out.exit_status == 1


class TestDoomedWriteElimination:
    BASE = """
void f(int *p, int i) {
  int *q = p + i;
  *q = 42;
}
int main(void) {
  int x=0, y=0;
  f(&x, 1);
  return y;
}
"""
    ESCAPED = """
int *g;
void f(int *p, int i) {
  int *q = p + i;
  *q = 42;
}
int main(void) {
  int x=0, y=0;
  g = &x;
  f(&x, 1);
  return y;
}
"""

    def test_eliminated_at_o3(self):
        out = by_name("clang-morello-O3").run(self.BASE)
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 0

    def test_survives_at_o0(self):
        assert by_name("clang-morello-O0").run(self.BASE).kind \
            is OutcomeKind.TRAP

    def test_escaped_still_eliminated_at_o3(self):
        # "while at -O3 the doomed write is again eliminated" (S3.1)
        out = by_name("clang-morello-O3").run(self.ESCAPED)
        assert out.kind is OutcomeKind.EXIT

    def test_escaped_survives_at_o2(self):
        # "if &x is assigned to a global, then at -O2 the inlined f
        # survives and performs the doomed write" (S3.1)
        from dataclasses import replace
        from repro.impls.registry import CLANG_MORELLO_O3
        o2 = replace(CLANG_MORELLO_O3, name="clang-morello-O2", opt_level=2)
        out = o2.run(self.ESCAPED)
        assert out.kind is OutcomeKind.TRAP

    def test_nonescaped_eliminated_at_o2(self):
        from dataclasses import replace
        from repro.impls.registry import CLANG_MORELLO_O3
        o2 = replace(CLANG_MORELLO_O3, name="clang-morello-O2", opt_level=2)
        out = o2.run(self.BASE)
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 0


class TestSubstitution:
    def test_transient_intptr_collapse_through_locals(self):
        src = """
#include <stdint.h>
int main(void) {
  int x[2];
  x[1] = 3;
  uintptr_t i = (uintptr_t)&x[0];
  uintptr_t j = i + 100001 * sizeof(int);
  uintptr_t k = j - 100000 * sizeof(int);
  int *q = (int*)k;
  return *q;
}
"""
        out0 = by_name("clang-morello-O0").run(src)
        assert out0.kind is OutcomeKind.TRAP
        out3 = by_name("clang-morello-O3").run(src)
        assert out3.kind is OutcomeKind.EXIT and out3.exit_status == 3

    def test_mutated_locals_not_substituted(self):
        src = """
int main(void){
  int a = 1;
  a = 2;
  int b = a + 1;
  return b;
}
"""
        out = by_name("clang-morello-O3").run(src)
        assert out.exit_status == 3

    def test_address_taken_locals_not_substituted(self):
        src = """
int main(void){
  int a = 1;
  int *p = &a;
  *p = 5;
  int b = a;
  return b;
}
"""
        out = by_name("clang-morello-O3").run(src)
        assert out.exit_status == 5


class TestCopyOnChange:
    """Rewrites rebuild a node only when a child changed: a pass with
    nothing to rewrite returns its input, and unchanged subtrees are
    shared between a pass's input and output."""

    NOTHING_TO_REWRITE = """
int total_of(int *p, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    if (p[i] > 0) total += p[i]; else total -= 1;
  }
  while (total > 100) { total = total / 2; }
  return total;
}
int main(void) {
  int a[3] = {1, 2, 3};
  int *q = &a[1];
  *q = total_of(a, 3);
  return total_of(a, 3) + *q;
}
"""

    def test_a_pass_with_nothing_to_rewrite_returns_its_input(self):
        from repro.core import optimizer as O
        prog = parse_program(self.NOTHING_TO_REWRITE, LAYOUT)
        passes = (
            lambda f: O._fold_function(f, LAYOUT),
            lambda f: O._rewrite_byte_copies(f, LAYOUT),
            lambda f: O._substitute_and_fold(f, LAYOUT),
            lambda f: O._assume_no_ub(f, 3, {}),
        )
        for fdef in prog.functions:
            for rewrite in passes:
                assert rewrite(fdef) is fdef
        assert optimize_program(prog, LAYOUT, 3) is prog

    def test_a_rewrite_shares_the_untouched_subtrees(self):
        src = ("int main(void){ int x = 4; int y = x;"
               " return sizeof(int) * 3; }")
        prog = parse_program(src, LAYOUT)
        folded = optimize_program(prog, LAYOUT, 1)
        assert folded is not prog
        before, after = main_stmts(prog), main_stmts(folded)
        assert after[0] is before[0] and after[1] is before[1]
        assert after[2] is not before[2]

    def test_o3_after_o0_leaves_the_o0_core_unchanged(self):
        """The parse memo shares one AST across opt levels, and
        copy-on-change shares its subtrees with every optimised
        program: optimising must never alter what -O0 elaborates."""
        from repro.core.coreir import render_core
        from repro.core.elaborate import elaborate_program
        from repro.impls import CERBERUS
        from repro.perf import CompileCache
        from repro.testsuite.suite import all_cases

        o3 = by_name("clang-morello-O3")
        assert o3.arch.name == CERBERUS.arch.name   # one parse memo entry
        cache = CompileCache(disk=None)
        shared = 0
        for case in all_cases():
            try:
                before = render_core(cache.core(CERBERUS, case.source))
            except Exception:
                continue
            ast = parse_program(case.source, LAYOUT)
            optimised = optimize_program(ast, LAYOUT, 3)
            shared += sum(f3 is f0 for f3, f0
                          in zip(optimised.functions, ast.functions))
            elaborate_program(optimised)
            cache.core(o3, case.source)
            assert render_core(cache.core(CERBERUS, case.source)) == before
            assert render_core(elaborate_program(ast)) == before, case.name
        assert shared > 0
