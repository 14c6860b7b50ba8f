"""The lexer and its mini-preprocessor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clexer import Lexer, tokenize
from repro.errors import CSyntaxError


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


class TestBasics:
    def test_identifiers_and_keywords(self):
        toks = kinds("int foo _bar2")
        assert toks == [("kw", "int"), ("id", "foo"), ("id", "_bar2")]

    def test_punctuators_maximal_munch(self):
        toks = [t.text for t in tokenize("a->b <<= c >> 1") if t.kind == "punct"]
        assert toks == ["->", "<<=", ">>"]

    def test_ellipsis(self):
        assert ("punct", "...") in kinds("f(int, ...)")

    def test_comments_skipped(self):
        toks = kinds("a /* x */ b // y\n c")
        assert [t for _, t in toks] == ["a", "b", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(CSyntaxError):
            tokenize("/* never ends")

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:3]] == [1, 2, 3]
        assert toks[2].col == 3


class TestNumbers:
    def test_decimal(self):
        t = tokenize("42")[0]
        assert t.kind == "num" and t.value == 42 and t.base == 10

    def test_hex(self):
        t = tokenize("0xfffe")[0]
        assert t.value == 0xFFFE and t.base == 16

    def test_octal(self):
        t = tokenize("0755")[0]
        assert t.value == 0o755 and t.base == 8

    def test_suffixes(self):
        t = tokenize("100001ul")[0]
        assert t.suffix == "ul"
        t = tokenize("5LL")[0]
        assert t.suffix == "ll"

    def test_float_rejected(self):
        with pytest.raises(CSyntaxError):
            tokenize("1.5")


class TestCharsAndStrings:
    def test_char_constant(self):
        assert tokenize("'h'")[0].value == ord("h")

    def test_escapes(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_string(self):
        t = tokenize('"hi\\n"')[0]
        assert t.kind == "str" and t.value == "hi\n"

    def test_adjacent_strings_merge(self):
        t = tokenize('"a" "b"')[0]
        assert t.value == "ab"

    def test_unterminated_string(self):
        with pytest.raises(CSyntaxError):
            tokenize('"oops')


class TestPreprocessor:
    def test_include_skipped(self):
        assert kinds("#include <stdint.h>\nint") == [("kw", "int")]

    def test_define_object_macro(self):
        toks = kinds("#define N 42\nint x = N;")
        assert ("num", "42") in toks

    def test_macro_multi_token(self):
        toks = kinds("#define EXPR (1 + 2)\nEXPR")
        assert [t for _, t in toks] == ["(", "1", "+", "2", ")"]

    def test_nested_macros(self):
        toks = kinds("#define A B\n#define B 7\nA")
        assert toks == [("num", "7")]

    def test_self_referential_macro_terminates(self):
        toks = kinds("#define X X\nX")
        assert toks == [("id", "X")]

    def test_function_like_macro_rejected(self):
        with pytest.raises(CSyntaxError):
            tokenize("#define F(x) x\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(CSyntaxError):
            tokenize("#if 1\n#endif\n")

    def test_pragma_skipped(self):
        assert kinds("#pragma once\nint") == [("kw", "int")]


class TestLexerRobustness:
    """Random byte soup must produce tokens or CSyntaxError, not crash."""

    def test_random_printable_soup(self):
        import random
        import string
        rng = random.Random(17)
        alphabet = string.ascii_letters + string.digits + \
            "+-*/%&|^~!<>=?:;,.()[]{}#\"' \n\t_"
        for _ in range(300):
            soup = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 120)))
            try:
                tokenize(soup)
            except CSyntaxError:
                pass

    def test_parser_survives_token_soup(self):
        import random
        import string
        from repro.capability import MORELLO
        from repro.core.cparser import parse_program
        from repro.ctypes import TargetLayout
        from repro.errors import CTypeError
        layout = TargetLayout(MORELLO)
        rng = random.Random(23)
        words = ["int", "char", "*", "x", "y", "(", ")", "{", "}", ";",
                 "=", "1", "return", "if", "for", "[", "]", "+", ",",
                 "struct", "void", "static", "&", "sizeof", "while"]
        for _ in range(300):
            soup = " ".join(rng.choice(words)
                            for _ in range(rng.randint(1, 60)))
            try:
                parse_program(soup, layout)
            except (CSyntaxError, CTypeError):
                pass


class TestMalformedConstants:
    """Constants int() cannot read are syntax errors at their line:col."""

    @pytest.mark.parametrize("source,message,col", [
        ("int x = 08;", "invalid digit '8' in octal constant", 9),
        ("int x = 0779;", "invalid digit '9' in octal constant", 9),
        ("int x = 0x;", "hexadecimal constant has no digits", 9),
        ("int x = 0XuL;", "hexadecimal constant has no digits", 9),
        ("char c = '\\x';", "\\x used with no following hex digits", 10),
        ('char *s = "ab\\xZ";', "\\x used with no following hex digits",
         11),
        ("int x = \u00b2;", "invalid digit '\u00b2' in constant", 9),
        ("int x = " + "1" * 5000 + ";",
         "integer constant has too many digits", 9),
    ], ids=["octal-8", "octal-9", "hex-empty", "hex-empty-suffix",
            "char-x", "string-x", "superscript-digit", "too-long"])
    def test_rejected_at_the_constant(self, source, message, col):
        with pytest.raises(CSyntaxError) as info:
            tokenize("\n" + source)
        assert (info.value.line, info.value.col) == (2, col)
        assert str(info.value) == f"2:{col}: {message}"

    def test_a_final_zero_is_a_constant(self):
        # A lone 0 as the last character once read as an unfinished
        # hexadecimal prefix ("unexpected end of input").
        toks = tokenize("x = 0")
        assert (toks[2].kind, toks[2].value, toks[2].base) == ("num", 0, 10)

    def test_run_reports_a_frontend_error(self):
        from repro.errors import OutcomeKind
        from repro.impls import CERBERUS
        outcome = CERBERUS.run("int main(void) { return 08; }\n",
                               use_cache=False)
        assert outcome.kind is OutcomeKind.ERROR
        assert "invalid digit '8' in octal constant" in outcome.detail


#: Lexer-shaped fragments: digit runs, hex and octal prefixes, escapes,
#: quotes, comment and directive openers.
_FRAGMENTS = st.one_of(
    st.sampled_from(["\\", "\\x", "0x", "0X", "08", "0", "9", "'", '"',
                     "#define ", "#", "/*", "*/", "//", ".", "e", "u", "L",
                     "\n", " ", "\t", "x", "_a", "(", ";", "->", "\u00b2"]),
    st.from_regex(r"[0-9]{1,12}", fullmatch=True),
    st.text(alphabet="0123456789abcdefxXuUlL.\\'\"eE ", max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=30).map("".join))
def test_only_syntax_errors_escape_tokenize(source):
    try:
        tokenize(source)
    except CSyntaxError:
        pass
