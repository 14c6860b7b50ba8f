"""Token-identity golden: every token the lexer produces, per source group.

A lexer rewrite that claims to be a pure speed-up must produce the same
tokens -- ``kind, text, line, col, value, suffix, base`` -- for every
input, and the same ``CSyntaxError`` (message, line, col) for every
input it rejects.  ``tests/golden/token_digests.txt`` holds one sha256
per group: the 94 suite cases, the corpus, the C sources embedded in
``examples/``, the 500 blind-fuzz programs of seed 0 (the fuzz goldens'
programs), a list of lexer edge cases, and a list of malformed inputs
covering each error the lexer raises.  Refresh it deliberately when a
change is meant to alter tokens:

    python -c "from tests.test_token_identity import regenerate; \\
        print(regenerate(), end='')" > tests/golden/token_digests.txt
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib

import pytest

from repro.core.clexer import tokenize
from repro.errors import CSyntaxError

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "token_digests.txt"

#: Inputs the lexer accepts whose tokens exercise its corners:
#: preprocessor lines, macro expansion positions, suffixes and bases,
#: line/column tracking across blanks, comments and CRLF, Unicode.
EDGE_CASES = (
    "#define A B\n#define B A\nx A y\n",
    "#define X X\n  X X\n",
    "#define X /* spans\n lines */ 5\nX\n",
    "#define E\nint E x;\n",
    "#define S \"a\" \"b\"\nS \"c\"\n",
    "#define P . 5 ->\nP\n",
    "  #  include <stdio.h>\n\t#pragma once\n#\n#undef X\nint\n",
    '"a" "b"\n"c"',
    "a\r\nb\r\n\tc\t d",
    "0X1Fu 5LL 0755 07.x 1e 1e+5 0x1.x 0xfUL 10lu 0 00 12u.x",
    "...5 .. a.b a->b <<= >>= << >> ++ -- && || != == <= >=",
    "+= -= *= /= %= &= |= ^= ~ ! ? : ; , ( ) [ ] { } % ^",
    r"'\x41' '\n' '\0' '\\' '\'' '\"' '\a' '\b' '\f' '\v' '\t' '\r'",
    r'"\x4142\x7 tail" "q\"q"',
    "'''",
    '"multi\nline" after',
    "a/**/b/* x */c// tail\nd",
    "été1 aé _1 x² ٣",
    "",
    "   \n\n  ",
    "// only a comment",
)

#: One input per error the lexer raises (and per position rule).
MALFORMED = (
    "'",
    "'\\",
    '"\\',
    "/* never ends",
    "int a;\n/* never\n ends",
    "int @;",
    "a\n\t  $",
    "\\",
    "`",
    "\f",
    "a # b",
    "/* c */ #define X 1\n",
    "½",
    "#if 1\n#endif\n",
    "#  elif\n",
    "#define 1\n",
    "#define\n",
    "#define F(x) x\n",
    "1.5",
    ".5",
    "x = 1e5;",
    "0.",
    "2E9",
    ".²",
    "1e²",
    "#define H 1.5\n",
    "'ab'",
    "'a",
    "'\\q'",
    '"\\q"',
    '"abc',
    "\"abc\ndef",
    "#define X 'ab'\n",
    "#define X @\n",
    "int x;\n#define Y\n  # define Z q\n @",
)


def _token_fields(tok) -> tuple:
    return (tok.kind, tok.text, tok.line, tok.col, tok.value, tok.suffix,
            tok.base)


def _lexed(source: str) -> str:
    """Every token's fields, or the error, one ``repr`` per line."""
    try:
        return "".join(f"{_token_fields(tok)!r}\n"
                       for tok in tokenize(source))
    except CSyntaxError as exc:
        return f"error {(str(exc), exc.line, exc.col)!r}\n"


def _examples_sources() -> list[str]:
    """The C programs embedded as string literals in ``examples/``."""
    sources = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "main(" in node.value):
                sources.append(node.value)
    return sources


def _fuzz_sources() -> list[str]:
    from repro.fuzz import program_for
    return [program_for(0, index).render() for index in range(500)]


def group_sources() -> dict[str, list[str]]:
    from repro.testsuite.suite import all_cases
    corpus = [json.loads(path.read_text())["source"]
              for path in sorted((ROOT / "tests" / "corpus").glob("*.json"))]
    return {
        "suite": [case.source for case in all_cases()],
        "corpus": corpus,
        "examples": _examples_sources(),
        "fuzz": _fuzz_sources(),
        "edge": list(EDGE_CASES),
        "malformed": list(MALFORMED),
    }


def group_digest(sources: list[str]) -> str:
    digest = hashlib.sha256()
    for source in sources:
        digest.update(f"{source!r}\n".encode())
        digest.update(_lexed(source).encode())
    return digest.hexdigest()


def regenerate() -> str:
    return "".join(f"{name} {group_digest(sources)}\n"
                   for name, sources in group_sources().items())


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines())
    return {name: digest for name, digest in pairs}


def test_groups_are_populated():
    groups = group_sources()
    assert list(groups) == list(_golden())
    assert len(groups["suite"]) == 94
    assert len(groups["corpus"]) == 10
    assert len(groups["examples"]) >= 6
    assert len(groups["fuzz"]) == 500


@pytest.mark.parametrize("name", ["suite", "corpus", "examples", "fuzz",
                                  "edge", "malformed"])
def test_tokens_match_golden(name):
    assert group_digest(group_sources()[name]) == _golden()[name]
