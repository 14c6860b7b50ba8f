"""Differential testing of integer arithmetic: random C expressions
evaluated by the interpreter against an independent Python model of the
ISO C semantics (promotions, usual conversions, wrapping), plus a
metamorphic property of the parser's integer constant expressions."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import OutcomeKind
from repro.impls import ALL_IMPLEMENTATIONS, CERBERUS, by_name
from tests.test_optimizer_differential import constant_expressions

U32 = 1 << 32
U64 = 1 << 64


class CExpr:
    """A tiny independent model of C unsigned/signed arithmetic."""

    def __init__(self, text: str, value: int, unsigned64: bool) -> None:
        self.text = text
        self.value = value           # mathematical value after wrapping
        self.unsigned64 = unsigned64


def _wrap_u64(v: int) -> int:
    return v % U64


@st.composite
def u64_exprs(draw, depth: int = 0):
    """Random expressions over unsigned long (no UB possible)."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(0, U64 - 1))
        return CExpr(f"{value}ul", value, True)
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", ">>", "<<"]))
    lhs = draw(u64_exprs(depth=depth + 1))
    if op in (">>", "<<"):
        amount = draw(st.integers(0, 63))
        value = (_wrap_u64(lhs.value << amount) if op == "<<"
                 else lhs.value >> amount)
        return CExpr(f"({lhs.text} {op} {amount})", value, True)
    rhs = draw(u64_exprs(depth=depth + 1))
    table = {"+": lhs.value + rhs.value, "-": lhs.value - rhs.value,
             "*": lhs.value * rhs.value, "&": lhs.value & rhs.value,
             "|": lhs.value | rhs.value, "^": lhs.value ^ rhs.value}
    return CExpr(f"({lhs.text} {op} {rhs.text})",
                 _wrap_u64(table[op]), True)


@given(expr=u64_exprs())
@settings(max_examples=150, deadline=None)
def test_unsigned_arithmetic_matches_c_model(expr):
    src = f"""
int main(void) {{
  unsigned long v = {expr.text};
  return v == {expr.value}ul ? 0 : 1;
}}
"""
    out = CERBERUS.run(src)
    assert out.kind is OutcomeKind.EXIT, (out.describe(), out.detail,
                                          expr.text)
    assert out.exit_status == 0, (expr.text, expr.value)


@given(a=st.integers(-(2**31), 2**31 - 1), b=st.integers(-(2**31), 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_signed_addition_matches_or_flags_overflow(a, b):
    total = a + b
    in_range = -(2**31) <= total <= 2**31 - 1
    src = f"""
int main(void) {{
  int a = {a};
  int b = {b};
  int c = a + b;
  return c == {total if in_range else 0} ? 0 : 1;
}}
"""
    out = CERBERUS.run(src)
    if in_range:
        assert out.kind is OutcomeKind.EXIT and out.exit_status == 0
    else:
        assert out.kind is OutcomeKind.UNDEFINED


@given(a=st.integers(0, 2**32 - 1), b=st.integers(1, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_unsigned_divmod_matches(a, b):
    src = f"""
int main(void) {{
  unsigned a = {a}u;
  unsigned b = {b}u;
  if (a / b != {a // b}u) return 1;
  if (a % b != {a % b}u) return 2;
  return 0;
}}
"""
    out = CERBERUS.run(src)
    assert out.ok, (a, b, out.describe())


@given(a=st.integers(-(2**31) + 1, 2**31 - 1),
       b=st.integers(-(2**31) + 1, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_signed_divmod_truncates_toward_zero(a, b):
    assume(b != 0)
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    r = a - q * b
    src = f"""
int main(void) {{
  int a = {a};
  int b = {b};
  if (a / b != {q}) return 1;
  if (a % b != {r}) return 2;
  return 0;
}}
"""
    out = CERBERUS.run(src)
    assert out.ok, (a, b, q, r, out.describe())


@given(v=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_narrowing_conversions_match(v):
    src = f"""
#include <stdint.h>
int main(void) {{
  unsigned long v = {v}ul;
  if ((uint32_t)v != {v % U32}u) return 1;
  if ((uint8_t)v != {v % 256}) return 2;
  if ((int)(uint32_t)(v & 0x7fffffff) != {v & 0x7fffffff}) return 3;
  return 0;
}}
"""
    out = CERBERUS.run(src)
    assert out.ok, (v, out.describe())


#: ``(C type, bits, signed)`` of the types narrower than ``int``.
NARROW_TYPES = [("signed char", 8, True), ("unsigned char", 8, False),
                ("short", 16, True), ("unsigned short", 16, False)]


def _wrap_to(value: int, bits: int, signed: bool) -> int:
    value %= 1 << bits
    if signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


@given(ctype=st.sampled_from(NARROW_TYPES), op=st.sampled_from(["++", "--"]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_narrow_increment_is_defined(ctype, op, data):
    """``c++`` is ``c += 1`` (ISO 6.5.2.4): it computes in ``int``, so
    it never overflows a narrow type; the conversion back wraps."""
    name, bits, signed = ctype
    low = -(1 << (bits - 1)) if signed else 0
    high = low + (1 << bits) - 1
    value = data.draw(st.sampled_from([low, high]) | st.integers(low, high))
    expected = _wrap_to(value + (1 if op == "++" else -1), bits, signed)
    src = f"""
int main(void) {{
  {name} c = {value};
  {name} old = c{op};
  return old == {value} && c == {expected};
}}
"""
    out = CERBERUS.run(src)
    assert out.kind is OutcomeKind.EXIT, (out.describe(), out.detail, src)
    assert out.exit_status == 1, src


@pytest.mark.parametrize("src", [
    "int main(void) { signed char c = 127; c++; return c == -128; }",
    "int main(void) { short s = -32768; s--; return s == 32767; }",
    # Converting to _Bool gives 0 or 1, never 2 or 255.
    "int main(void) { _Bool b = 1, d = 0; b++; d--; return b + d == 2; }",
])
def test_narrow_increment_at_the_type_limit(src):
    out = CERBERUS.run(src)
    assert out.kind is OutcomeKind.EXIT, (out.describe(), out.detail)
    assert out.exit_status == 1


#: The implementations the constant-expression property runs on: the
#: reference and every modelled -O3 compiler (each folds constants).
FOLDING = (CERBERUS,) + tuple(impl for impl in ALL_IMPLEMENTATIONS
                              if impl.opt_level == 3)


def _is_constraint_error(out) -> bool:
    return out.kind is OutcomeKind.ERROR and (
        "does not fit in int" in out.detail
        or "constant expression is undefined" in out.detail)


@given(expr=constant_expressions())
@settings(max_examples=60, deadline=None)
def test_enum_constant_equals_its_expression(expr):
    """The parser evaluates a constant expression as the program does:
    ``enum { K = E }`` gives ``K == (E)``, or the enumerator is a
    constraint error (``E`` does not fit in ``int`` or is undefined)."""
    src = f"enum {{ K = {expr} }};\n" \
        f"int main(void) {{ return K == ({expr}); }}\n"
    for impl in FOLDING:
        out = impl.run(src)
        if _is_constraint_error(out):
            continue
        assert out.kind is OutcomeKind.EXIT, (impl.name, out.describe(),
                                              out.detail, src)
        assert out.exit_status == 1, (impl.name, src)


CLANG_MORELLO = (CERBERUS, by_name("clang-morello-O0"),
                 by_name("clang-morello-O3"))


@pytest.mark.parametrize("src,status", [
    # C division truncates toward zero, in constants too.
    ("enum { A = -7 / 2 };\n"
     "int main(void) { int x = -7, y = 2; return A == x / y ? 1 : 2; }", 1),
    ("int main(void) { char a[-7 / 2 + 5]; return sizeof a; }", 2),
    # ~0u is UINT_MAX, not -1.
    ("enum { D = ~0u > 0 }; int main(void) { return D; }", 1),
])
def test_constant_expressions_follow_c(src, status):
    for impl in CLANG_MORELLO:
        out = impl.run(src)
        assert out.kind is OutcomeKind.EXIT, (impl.name, out.describe(),
                                              out.detail)
        assert out.exit_status == status, impl.name


@pytest.mark.parametrize("src", [
    "enum { S = 1 << 40 }; int main(void) { return 0; }",
    "enum { M = 2147483647, N }; int main(void) { return 0; }",
])
def test_enumerators_out_of_int_are_constraint_errors(src):
    out = CERBERUS.run(src)
    assert _is_constraint_error(out), (out.describe(), out.detail)
