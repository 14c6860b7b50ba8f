"""The parser: declarators, types, expressions, statements."""

import pytest

from repro.capability import MORELLO
from repro.core import cast as A
from repro.core.cparser import parse_program, Parser
from repro.core.clexer import tokenize
from repro.ctypes import (
    ArrayT, CHAR, FuncT, IKind, INT, Integer, INTPTR, LONG, Pointer,
    StructT, TargetLayout, UINT, ULONG, UnionT,
)
from repro.errors import CSyntaxError

LAYOUT = TargetLayout(MORELLO)


def parse(src):
    return parse_program(src, LAYOUT)


def parse_type(src: str):
    parser = Parser(tokenize(src + ";"), LAYOUT)
    base, _, _ = parser.parse_specifiers()
    return parser.parse_declarator(base)


class TestDeclarators:
    def test_simple(self):
        name, t = parse_type("int x")
        assert (name, t) == ("x", INT)

    def test_pointer_chain(self):
        name, t = parse_type("int **p")
        assert t == Pointer(Pointer(INT))

    def test_array(self):
        _, t = parse_type("int a[3]")
        assert t == ArrayT(elem=INT, length=3)

    def test_array_of_pointers(self):
        _, t = parse_type("int *a[3]")
        assert t == ArrayT(elem=Pointer(INT), length=3)

    def test_pointer_to_array(self):
        _, t = parse_type("int (*p)[3]")
        assert t == Pointer(ArrayT(elem=INT, length=3))

    def test_function_pointer(self):
        name, t = parse_type("int (*fp)(int, long)")
        assert name == "fp"
        assert t == Pointer(FuncT(ret=INT, params=(INT, LONG)))

    def test_array_of_function_pointers(self):
        _, t = parse_type("int (*table[3])(void)")
        assert t == ArrayT(elem=Pointer(FuncT(ret=INT)), length=3)

    def test_multidim_array(self):
        _, t = parse_type("int m[2][3]")
        assert t == ArrayT(elem=ArrayT(elem=INT, length=3), length=2)

    def test_const_pointer_vs_pointer_to_const(self):
        _, t1 = parse_type("const int *p")
        assert t1 == Pointer(INT.qualified_const())
        _, t2 = parse_type("int *const p")
        assert t2.const and t2.pointee == INT

    def test_sized_by_constant_expression(self):
        _, t = parse_type("char buf[4 * 4]")
        assert t.length == 16

    def test_unsigned_combos(self):
        assert parse_type("unsigned long x")[1] == ULONG
        assert parse_type("long unsigned x")[1] == ULONG
        assert parse_type("unsigned x")[1] == UINT

    def test_stdint_typedefs(self):
        assert parse_type("intptr_t v")[1] == INTPTR
        assert parse_type("size_t v")[1].kind is IKind.SIZE
        assert parse_type("ptraddr_t v")[1].kind is IKind.PTRADDR


class TestStructsAndTypedefs:
    def test_struct_definition(self):
        prog = parse("struct p { int x; int y; }; struct p g;")
        decl = prog.globals[0].decl
        assert isinstance(decl.ctype, StructT)
        assert decl.ctype.tag == "p"

    def test_union_definition(self):
        prog = parse(
            "union u { int *p; intptr_t i; }; union u g;")
        assert isinstance(prog.globals[0].decl.ctype, UnionT)

    def test_typedef(self):
        prog = parse("typedef unsigned long word; word g;")
        assert prog.globals[0].decl.ctype == ULONG

    def test_typedef_pointer(self):
        prog = parse("typedef int *iptr; iptr g;")
        assert prog.globals[0].decl.ctype == Pointer(INT)

    def test_struct_self_reference(self):
        prog = parse("""
struct node { struct node *next; int v; };
struct node head;
""")
        node = prog.globals[0].decl.ctype
        assert node.fields[0].ctype.pointee.tag == "node"


class TestFunctions:
    def test_definition_with_params(self):
        prog = parse("int add(int a, int b) { return a + b; }")
        f = prog.functions[0]
        assert f.name == "add"
        assert [p.name for p in f.params] == ["a", "b"]
        assert f.ret == INT

    def test_void_params(self):
        prog = parse("int main(void) { return 0; }")
        assert prog.functions[0].params == ()

    def test_variadic(self):
        prog = parse("int printf(const char *fmt, ...);")
        assert prog.functions[0].variadic

    def test_array_param_decays(self):
        prog = parse("int f(int a[]) { return 0; }")
        assert prog.functions[0].params[0].ctype == Pointer(INT)


class TestExpressions:
    def get_expr(self, src):
        prog = parse(f"int main(void) {{ return {src}; }}")
        return prog.functions[0].body.stmts[0].value

    def test_precedence(self):
        e = self.get_expr("1 + 2 * 3")
        assert isinstance(e, A.Binary) and e.op == "+"
        assert isinstance(e.rhs, A.Binary) and e.rhs.op == "*"

    def test_associativity(self):
        e = self.get_expr("10 - 3 - 2")
        assert e.op == "-" and isinstance(e.lhs, A.Binary)

    def test_conditional(self):
        e = self.get_expr("a ? b : c")
        assert isinstance(e, A.Conditional)

    def test_cast_vs_parenthesised_expr(self):
        e = self.get_expr("(int)x")
        assert isinstance(e, A.Cast) and e.ctype == INT
        e = self.get_expr("(x)")
        assert isinstance(e, A.Ident)

    def test_cast_of_unary(self):
        e = self.get_expr("(intptr_t)&x")
        assert isinstance(e, A.Cast)
        assert isinstance(e.operand, A.Unary) and e.operand.op == "&"

    def test_nested_deref(self):
        e = self.get_expr("**pp")
        assert isinstance(e, A.Unary) and isinstance(e.operand, A.Unary)

    def test_sizeof_type_and_expr(self):
        assert isinstance(self.get_expr("sizeof(int*)"), A.SizeofType)
        assert isinstance(self.get_expr("sizeof x"), A.SizeofExpr)
        assert isinstance(self.get_expr("sizeof(x)"), A.SizeofExpr)

    def test_limit_macros_resolved(self):
        e = self.get_expr("INT_MAX")
        assert isinstance(e, A.IntLit) and e.value == 2**31 - 1
        e = self.get_expr("UINT_MAX")
        assert e.value == 2**32 - 1

    def test_null_is_void_pointer_cast(self):
        e = self.get_expr("NULL")
        assert isinstance(e, A.Cast) and isinstance(e.ctype, Pointer)

    def test_literal_typing(self):
        assert self.get_expr("1").ctype == INT
        assert self.get_expr("5000000000").ctype == LONG
        assert self.get_expr("1u").ctype == UINT
        # Hex literals can become unsigned without a suffix:
        assert self.get_expr("0xffffffff").ctype == UINT

    def test_cheri_perm_constants(self):
        e = self.get_expr("CHERI_PERM_LOAD")
        assert isinstance(e, A.IntLit) and e.value > 0

    def test_offsetof(self):
        prog = parse("""
struct s { int a; int b; };
int main(void) { return offsetof(struct s, b); }
""")
        e = prog.functions[0].body.stmts[0].value
        assert isinstance(e, A.OffsetofExpr) and e.member == "b"

    def test_postfix_chain(self):
        e = self.get_expr("a.b[1]")
        assert isinstance(e, A.Index) and isinstance(e.base, A.Member)

    def test_assignment_ops(self):
        prog = parse("int main(void) { int x; x <<= 2; return x; }")
        stmt = prog.functions[0].body.stmts[1]
        assert isinstance(stmt.expr, A.Assign) and stmt.expr.op == "<<"


class TestStatements:
    def test_for_loop_with_decl(self):
        prog = parse(
            "int main(void) { for (int i = 0; i < 3; i++) ; return 0; }")
        loop = prog.functions[0].body.stmts[0]
        assert isinstance(loop, A.For)
        assert isinstance(loop.init, A.DeclStmt)

    def test_do_while(self):
        prog = parse("int main(void) { do { } while (0); return 0; }")
        loop = prog.functions[0].body.stmts[0]
        assert isinstance(loop, A.While) and loop.do_while

    def test_else_binds_to_nearest_if(self):
        prog = parse("""
int main(void) { if (1) if (0) return 1; else return 2; return 3; }
""")
        outer = prog.functions[0].body.stmts[0]
        assert outer.other is None
        assert outer.then.other is not None

    def test_error_messages_carry_location(self):
        with pytest.raises(CSyntaxError) as exc:
            parse("int main(void) { return 1 +; }")
        assert ":" in str(exc.value)

    def test_missing_semicolon(self):
        with pytest.raises(CSyntaxError):
            parse("int main(void) { return 0 }")


def array_length(size: str, prelude: str = "") -> int:
    """The length the parser gives ``char a[size]``."""
    prog = parse(f"{prelude} char a[{size}];")
    return prog.globals[0].decl.ctype.length


class TestConstantExpressions:
    """Integer constant expressions (ISO 6.6) follow C's arithmetic."""

    def test_division_truncates_toward_zero(self):
        assert array_length("-7 / 2 + 5") == 2
        assert array_length("-7 % 2 + 5") == 4

    def test_usual_arithmetic_conversions(self):
        assert array_length("(~0u > 0) + 1") == 2
        assert array_length("(-1 < 0u) + 1") == 1

    def test_conditional(self):
        assert array_length("C", "enum { C = 1 ? 2 : 3 };") == 2
        # The arms take their common type: -1 becomes UINT_MAX.
        assert array_length("(0 ? 0u : -1) > 0 ? 5 : 6") == 5

    def test_casts_to_integer_types(self):
        assert array_length("(unsigned char)258") == 2
        assert array_length("(_Bool)5 + (long)3") == 4
        with pytest.raises(CSyntaxError):
            array_length("(char*)3")

    def test_unevaluated_operand_may_be_undefined(self):
        assert array_length("1 || 1 / 0") == 1
        assert array_length("0 && 1 << 40 ? 1 : 3") == 3
        assert array_length("0 ? 1 / 0 : 3") == 3

    @pytest.mark.parametrize("size", [
        "1 / 0", "1 << 40", "1 << -1", "2147483647 + 1", "-(-2147483647 - 1)",
    ])
    def test_undefined_result_is_a_constraint_error(self, size):
        with pytest.raises(CSyntaxError, match="constant expression is "
                                               "undefined"):
            array_length(size)

    def test_unsigned_arithmetic_wraps(self):
        assert array_length("0u - 4294967295u") == 1

    @pytest.mark.parametrize("size", ["0", "-1", "2 - 3"])
    def test_array_size_must_be_positive(self, size):
        with pytest.raises(CSyntaxError, match="array size must be positive"):
            array_length(size)

    def test_non_positive_local_array_is_a_frontend_error(self):
        from repro.impls import CERBERUS
        from repro.errors import OutcomeKind
        out = CERBERUS.run("int main(void) { char a[-1]; return 0; }")
        assert out.kind is OutcomeKind.ERROR, out.describe()

    def test_enumerator_must_fit_in_int(self):
        assert array_length("M - 2147483646", "enum { M = 2147483647 };") == 1
        for prelude in ("enum { M = 2147483647, N };",
                        "enum { L = 2147483648 };", "enum { U = -1u };"):
            with pytest.raises(CSyntaxError, match="does not fit in int"):
                parse(prelude)

    def test_non_constant_operand_is_rejected(self):
        with pytest.raises(CSyntaxError, match="integer constant expression"):
            parse("int n; char a[n];")
