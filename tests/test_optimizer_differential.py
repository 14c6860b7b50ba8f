"""Differential testing of the modelled optimiser: on *well-defined*
programs, every optimisation level must agree with the abstract machine
(optimisations may only exploit UB, never change defined behaviour)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutcomeKind
from repro.impls import CERBERUS, by_name

O0 = by_name("clang-morello-O0")
O3 = by_name("clang-morello-O3")

#: Well-defined programs whose result the modelled optimiser once
#: changed: each must give the same outcome at -O0 and -O3.
DEFINED_PROGRAMS = {
    "division-is-integer-division": """
int main(void) {
  long x = 9007199254740993 / 1 - 9007199254740992;
  return (int)x;
}
""",
    "usual-arithmetic-conversions-and-wrap": """
int main(void) {
  int r = 0;
  if (-1 < 0u) r += 1;
  if (0u - 1u == 4294967295u) r += 10;
  if (4294967295u * 2u == 4294967294u) r += 20;
  return r;
}
""",
    "sizeof-is-size_t": """
int main(void) { return sizeof(int) - 8 > 0 ? 3 : 2; }
""",
    "inlined-early-return": """
void f(int *p, int c) { if (c) return; *p = 1; }
int main(void) { int x = 0; f(&x, 1); return x; }
""",
    "inlined-global-not-captured": """
int g = 5;
void f(void) { g = 9; }
int main(void) { int g = 1; f(); return g; }
""",
    "negated-unsigned-wraps": """
int main(void) { unsigned u = 0; return -1u > u; }
""",
    "no-reassociation-across-unsigned": """
int h(int x) { return (x + 1u) - 2 > 5; }
int main(void) { return h(0); }
""",
    "no-reassociation-across-sizeof": """
int h(int x) { return (x + sizeof(int)) - 8 > 5; }
int main(void) { return h(0); }
""",
    "chained-assignment": """
int main(void) { int b = 1; int a; a = b = 5; return a + b; }
""",
    "initialiser-with-side-effect": """
int main(void) { int b = 1; int a = b++; return a + b; }
""",
    "global-not-substituted-across-call": """
int g;
int f(void) { g = 9; return 0; }
int main(void) { g = 5; f(); return g; }
""",
    "inlined-static-local-is-shared": """
int g;
void f(void) { static int n = 0; n++; g = n; }
int main(void) { f(); f(); return g; }
""",
    "inlined-local-shadowing-a-global": """
int g = 5;
void f(void) { g = 9; { int g = 1; g++; } }
int main(void) { f(); return g; }
""",
    "int-copy-loop-copies-every-byte": """
int main(void) {
  int a[4] = {1, 2, 3, 4};
  int b[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; i++) b[i] = a[i];
  return b[3];
}
""",
}


@pytest.mark.parametrize("family", ["clang-morello", "gcc-morello",
                                    "clang-riscv"])
@pytest.mark.parametrize("name", DEFINED_PROGRAMS)
def test_defined_program_agrees_across_levels(name, family):
    src = DEFINED_PROGRAMS[name]
    o0 = by_name(f"{family}-O0").run(src)
    assert o0.kind is OutcomeKind.EXIT, (o0.describe(), o0.detail)
    o3 = by_name(f"{family}-O3").run(src)
    assert (o3.kind, o3.exit_status) == (o0.kind, o0.exit_status), \
        o3.describe()


@st.composite
def defined_programs(draw):
    """Random well-defined programs: straight-line integer/array/pointer
    code with in-bounds accesses and a loop or two."""
    n = draw(st.integers(2, 6))
    lines = [
        "#include <stdint.h>",
        "int main(void) {",
        f"  int a[{n}];",
        f"  for (int i = 0; i < {n}; i++) a[i] = i + 1;",
        "  int acc = 0;",
        "  int t = 0;",
    ]
    stmts = draw(st.integers(2, 8))
    for _ in range(stmts):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            idx = draw(st.integers(0, n - 1))
            lines.append(f"  acc += a[{idx}];")
        elif kind == 1:
            c = draw(st.integers(-50, 50))
            lines.append(f"  t = acc + {c};")
        elif kind == 2:
            lines.append("  acc += t;")
        elif kind == 3:
            idx = draw(st.integers(0, n - 1))
            lines.append(f"  {{ int *p = a + {idx}; acc += *p; }}")
        elif kind == 4:
            a_off = draw(st.integers(0, n))
            b_off = draw(st.integers(0, a_off))
            lines.append(f"  {{ int *p = a + {a_off} - {b_off};"
                         f" acc += p == a ? 1 : 2; }}")
        elif kind == 5:
            bound = draw(st.integers(0, n))
            lines.append(f"  for (int i = 0; i < {bound}; i++)"
                         " acc += a[i];")
        elif kind == 6:
            idx = draw(st.integers(0, n - 1))
            lines.append(f"  a[{idx}] = a[{idx}] + t;")
        else:
            # A prime modulus keeps a wrong wrap-around visible.
            lines.append(f"  acc += (int)(({draw(constant_expressions())})"
                         " % 251);")
        # Keep values bounded so signed overflow cannot occur.
        lines.append("  acc &= 0xffff;")
        lines.append("  t &= 0xff;")
    lines.append("  return acc & 127;")
    lines.append("}")
    return "\n".join(lines)


@st.composite
def constant_operands(draw):
    """A constant operand and whether it is signed and large: a small
    int, an unsigned int (perhaps negated), a ``sizeof`` or a long
    beyond the range of int."""
    kind = draw(st.sampled_from(["small", "unsigned", "sizeof", "large"]))
    if kind == "small":
        return str(draw(st.integers(-50, 50))), False
    if kind == "unsigned":
        minus = draw(st.sampled_from(["", "-"]))
        return f"{minus}{draw(st.integers(0, 4294967295))}u", False
    if kind == "sizeof":
        ctype = draw(st.sampled_from(["char", "int", "long", "int*"]))
        return f"sizeof({ctype})", False
    return str(draw(st.integers(1 << 31, 1 << 53))), True


@st.composite
def constant_expressions(draw):
    """A defined binary operation on two constant operands: the
    optimiser folds it, so it must fold it as C evaluates it."""
    (lhs, lhs_large), (rhs, rhs_large) = (draw(constant_operands()),
                                          draw(constant_operands()))
    ops = ["+", "-", "/", "%", "<", ">", "<=", ">=", "==", "!=",
           "&", "|", "^"]
    if not (lhs_large or rhs_large):
        ops.append("*")       # a large product may overflow long
    op = draw(st.sampled_from(ops))
    if op in ("/", "%") and rhs in ("0", "0u", "-0u"):
        rhs = "1"
    if draw(st.integers(0, 4)) == 0:
        shift = draw(st.sampled_from(["<<", ">>"]))
        return f"{draw(st.integers(0, 4294967295))}u {shift} " \
            f"{draw(st.integers(0, 31))}"
    return f"{lhs} {op} {rhs}"


@given(src=defined_programs())
@settings(max_examples=80, deadline=None)
def test_optimisation_preserves_defined_behaviour(src):
    oracle = CERBERUS.run(src)
    assert oracle.kind is OutcomeKind.EXIT, (oracle.describe(),
                                             oracle.detail, src)
    for impl in (O0, O3):
        got = impl.run(src)
        assert got.kind is OutcomeKind.EXIT, (impl.name, got.describe(),
                                              got.detail, src)
        assert got.exit_status == oracle.exit_status, (impl.name, src)


@st.composite
def byte_copy_programs(draw):
    """Programs copying pointer representations in the ways S3.5 cares
    about; the optimiser must keep defined copies working."""
    use_memcpy = draw(st.booleans())
    if use_memcpy:
        body = "  memcpy(&dst, &src, sizeof(int*));"
    else:
        body = ("  for (int i = 0; i < (int)sizeof(int*); i++)\n"
                "    ((unsigned char*)&dst)[i]"
                " = ((unsigned char*)&src)[i];")
    check = draw(st.sampled_from([
        "return dst == src ? 0 : 1;",            # address compare: defined
        "return (int)((uintptr_t)dst & 1);",      # address use: defined
    ]))
    return f"""
#include <string.h>
#include <stdint.h>
int main(void) {{
  int x = 3;
  int *src = &x;
  int *dst;
{body}
  {check}
}}
"""


@given(src=byte_copy_programs())
@settings(max_examples=40, deadline=None)
def test_representation_copies_defined_uses_agree(src):
    """Uses that S3.5 keeps defined (address comparison/inspection of a
    byte-copied pointer) agree across optimisation levels."""
    oracle = CERBERUS.run(src)
    assert oracle.kind is OutcomeKind.EXIT, (oracle.describe(),
                                             oracle.detail)
    for impl in (O0, O3):
        got = impl.run(src)
        assert got.kind is OutcomeKind.EXIT
        assert got.exit_status == oracle.exit_status, (impl.name, src)
