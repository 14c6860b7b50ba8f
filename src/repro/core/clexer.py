"""Lexer (with a minimal preprocessor) for the CHERI C subset.

The preprocessor supports what the paper's test programs need:
``#include`` lines are recognised and skipped (the standard headers'
contents -- ``stdint.h`` typedefs, ``limits.h`` macros, the CHERI
intrinsics of ``cheriintrin.h`` -- are built into the parser and
interpreter), and object-like ``#define`` macros are expanded at the
token level.

Tokens are scanned with one compiled pattern (:data:`_TOKEN`), matched
once per token: it skips blanks and comments and then takes an
identifier, a number or a punctuator by maximal munch.  Line and column
follow from the offsets of the newlines passed.  Character and string
constants and ``#`` lines, which are rare, are read by the
character-level helpers.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import CSyntaxError

KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "signed", "unsigned", "_Bool",
    "const", "volatile", "static", "extern", "struct", "union", "enum",
    "typedef", "sizeof", "return", "if", "else", "while", "do", "for",
    "break", "continue", "switch", "case", "default", "goto", "float",
    "double", "inline", "restrict", "_Alignof",
})

#: Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

#: One token after any blanks and comments; the named group that
#: matched (``lastgroup``) is the token's class.  ``dot`` is a ``.``
#: that may start a (rejected) floating constant, ``uid`` a word that
#: starts with a non-ASCII character (an identifier if that is a
#: letter), ``open`` an unterminated block comment.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?:
      (?P<id>[A-Za-z_]\w*)
    | (?P<open>/\*)
    | (?P<dot>\.(?=[0-9]|[^\x00-\x7f]))
    | (?P<punct>""" + "|".join(map(re.escape, PUNCTUATORS)) + r""")
    | (?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)
    | (?P<dec>\d+[uUlL]*)
    | (?P<str>")
    | (?P<char>')
    | (?P<end>\Z)
    | (?P<hash>\#)
    | (?P<uid>[^\W\d]\w*)
    | (?P<other>.)
    )
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str          # "id", "kw", "num", "char", "str", "punct", "eof"
    text: str
    line: int
    col: int
    value: object = None   # int value for num/char; decoded str for str
    suffix: str = ""       # numeric suffix, lowercased (e.g. "ul")
    base: int = 10         # numeric base (8/10/16)

    def is_punct(self, *texts: str) -> bool:
        return self.kind == "punct" and self.text in texts

    def is_kw(self, *names: str) -> bool:
        return self.kind == "kw" and self.text in names


#: Predefined object-like macros (the capprint.h helper of Appendix A:
#: ``"%" PTR_FMT`` formats a capability string produced by ``sptr``).
PREDEFINED_MACROS: dict[str, list] = {
    "PTR_FMT": [Token("str", '"s"', 0, 0, value="s")],
}


class Lexer:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.macros: dict[str, list[Token]] = dict(PREDEFINED_MACROS)

    def error(self, message: str) -> CSyntaxError:
        return CSyntaxError(message, self.line, self.col)

    # -- character helpers ----------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self) -> str:
        if self.pos >= len(self.source):
            raise self.error("unexpected end of input")
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_space_and_comments(self, *, stop_at_newline: bool = False) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n" and stop_at_newline:
                return
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(), self._advance()
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(), self._advance()
                        break
                    self._advance()
                else:
                    raise self.error("unterminated comment")
            else:
                return

    # -- tokenisation ----------------------------------------------------

    def tokens(self) -> list[Token]:
        """Tokenise the whole input, applying the mini-preprocessor."""
        source, match, find = self.source, _TOKEN.match, self.source.find
        macros = self.macros
        out: list[Token] = []
        append = out.append
        pos, line, line_start = 0, 1, 0
        next_newline = find("\n")
        while True:
            m = match(source, pos)
            kind = m.lastgroup
            start, pos = m.span(kind)
            if start > next_newline >= 0:
                line += source.count("\n", next_newline, start)
                line_start = source.rfind("\n", 0, start) + 1
                next_newline = find("\n", start)
            col = start - line_start + 1
            if kind == "punct":
                append(Token("punct", source[start:pos], line, col))
                continue
            if kind == "id":
                text = source[start:pos]
                tok = Token("kw" if text in KEYWORDS else "id", text, line,
                            col)
            elif kind == "end":
                append(Token("eof", "", line, col))
                return out
            else:
                # The rarer classes may read on by character: hand over
                # the position, then take it back.
                self.pos, self.line, self.col = start, line, col
                if kind == "hash" and self._at_line_start():
                    self._preprocessor_line()
                    tok = None
                else:
                    tok = self._token(m, kind)
                pos, line = self.pos, self.line
                line_start = pos - self.col + 1
                next_newline = find("\n", pos)
                if tok is None:
                    continue
            if tok.kind == "id" and tok.text in macros:
                out.extend(self._expand(tok.text, set(), tok.line,
                                        tok.col + len(tok.text)))
            else:
                append(tok)

    def _expand(self, name: str, expanding: set[str], line: int,
                col: int) -> list[Token]:
        """``name``'s body, its macros expanded; a macro met again
        inside its own expansion stays an identifier at (line, col),
        just after the use being expanded."""
        if name in expanding:
            return [Token("id", name, line, col)]
        expanding = expanding | {name}
        out: list[Token] = []
        for tok in self.macros[name]:
            if tok.kind == "id" and tok.text in self.macros:
                out.extend(self._expand(tok.text, expanding, line, col))
            else:
                out.append(tok)
        return out

    def _token(self, m: re.Match, kind: str, body: bool = False):
        """The token of ``m``, a match of class ``kind`` at ``self.pos``;
        ``self`` ends after it.  In a ``#define`` body (``body``) a
        ``.`` never starts a number, and what cannot be a body token
        ends the body: ``None``."""
        line, col = self.line, self.col
        text, end = m.group(kind), m.end()
        if kind == "uid" and text[0].isdigit():
            # A digit outside ``\d`` (e.g. '²'): a number int() rejects.
            kind, end = "dec", self.pos + 1
            while end < len(self.source) and self.source[end].isdigit():
                end += 1
            text = self.source[self.pos:end]
        if kind == "id" or kind == "uid" and text[0].isalpha():
            self.pos, self.col = end, col + len(text)
            return Token("kw" if text in KEYWORDS else "id", text, line, col)
        if kind == "punct" or kind == "dot" and body:
            self.pos, self.col = end, col + len(text)
            return Token("punct", text, line, col)
        if kind == "hex" or kind == "dec":
            self.pos, self.col = end, col + len(text)
            return self._number(kind, text, line, col)
        if kind == "char":
            return self._char_const(line, col)
        if kind == "str":
            return self._string(line, col)
        if body:
            return None
        if kind == "open":
            self._skip_space_and_comments()   # raises at the end of input
        if kind == "dot":
            if self._peek(1).isdigit():
                raise self.error("floating-point constants not supported")
            self.pos, self.col = end, col + 1
            return Token("punct", ".", line, col)
        raise self.error(f"unexpected character {self._peek()!r}")

    def _at_line_start(self) -> bool:
        i = self.pos - 1
        while i >= 0 and self.source[i] in " \t":
            i -= 1
        return i < 0 or self.source[i] == "\n"

    # -- preprocessor -----------------------------------------------------

    def _preprocessor_line(self) -> None:
        self._advance()  # '#'
        self._skip_space_and_comments(stop_at_newline=True)
        directive = ""
        while self._peek().isalpha():
            directive += self._advance()
        if directive in ("include", "pragma", "undef", ""):
            self._skip_to_eol()
            return
        if directive == "define":
            self._define()
            return
        raise self.error(f"unsupported preprocessor directive #{directive}")

    def _define(self) -> None:
        self._skip_space_and_comments(stop_at_newline=True)
        if not (self._peek().isalpha() or self._peek() == "_"):
            raise self.error("#define needs a name")
        m = _TOKEN.match(self.source, self.pos)
        name = self._token(m, m.lastgroup).text
        if self._peek() == "(":
            raise self.error("function-like macros are not supported")
        body: list[Token] = []
        while True:
            self._skip_space_and_comments(stop_at_newline=True)
            if self.pos >= len(self.source) or self._peek() == "\n":
                break
            m = _TOKEN.match(self.source, self.pos)
            tok = self._token(m, m.lastgroup, body=True)
            if tok is None:
                break
            body.append(tok)
        self.macros[name] = body

    def _skip_to_eol(self) -> None:
        end = self.source.find("\n", self.pos)
        end = len(self.source) if end < 0 else end
        self.pos, self.col = end, self.col + end - self.pos

    # -- token classes ------------------------------------------------------

    def _number(self, kind: str, text: str, line: int, col: int) -> Token:
        """The constant ``text`` (digits and suffix) at line:col, which
        ends at ``self.pos``."""
        digits = text.rstrip("uUlL")
        suffix = text[len(digits):].lower()
        if kind == "hex":
            base = 16
            if len(digits) == 2:
                raise CSyntaxError("hexadecimal constant has no digits",
                                   line, col)
        else:
            base = 8 if len(digits) > 1 and digits[0] == "0" else 10
            if base == 10 and not suffix:
                after = self.source[self.pos:self.pos + 2]
                if after[:1] == "." or (after[:1] in ("e", "E")
                                        and after[1:].isdigit()):
                    raise CSyntaxError(
                        "floating-point constants not supported",
                        line, col + len(text))
        try:
            value = int(digits[2:] if base == 16 else digits, base)
        except ValueError:
            bad = [ch for ch in digits
                   if not ch.isdecimal() or int(ch) >= base]
            message = (f"invalid digit {bad[0]!r} in "
                       f"{'octal ' if base == 8 else ''}constant" if bad
                       else "integer constant has too many digits")
            raise CSyntaxError(message, line, col) from None
        return Token("num", digits + suffix, line, col, value=value,
                     suffix=suffix, base=base)

    def _char_const(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        if self._peek() == "\\":
            self._advance()
            value = self._escape(line, col)
        else:
            value = ord(self._advance())
        if self._peek() != "'":
            raise self.error("unterminated character constant")
        self._advance()
        return Token("char", f"'{chr(value)}'", line, col, value=value)

    def _escape(self, line: int, col: int) -> int:
        """The escape after a backslash, in the constant at line:col."""
        ch = self._advance()
        simple = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39,
                  '"': 34, "a": 7, "b": 8, "f": 12, "v": 11}
        if ch in simple:
            return simple[ch]
        if ch == "x":
            digits = ""
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                digits += self._advance()
            if not digits:
                raise CSyntaxError("\\x used with no following hex digits",
                                   line, col)
            return int(digits, 16) & 0xFF
        raise self.error(f"unsupported escape \\{ch}")

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated string literal")
            ch = self._peek()
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                chars.append(chr(self._escape(line, col)))
            else:
                chars.append(self._advance())
        return Token("str", '"' + "".join(chars) + '"', line, col,
                     value="".join(chars))


def tokenize(source: str) -> list[Token]:
    """Lex a translation unit, merging adjacent string literals."""
    toks = Lexer(source).tokens()
    out: list[Token] = []
    for tok in toks:
        if (tok.kind == "str" and out and out[-1].kind == "str"):
            prev = out.pop()
            merged = prev.value + tok.value  # type: ignore[operator]
            out.append(Token("str", f'"{merged}"', prev.line, prev.col,
                             value=merged))
        else:
            out.append(tok)
    return out
