"""Recursive-descent parser for the CHERI C subset.

Covers the language the paper's 94-test validation suite needs:
declarations with full C declarator syntax (pointers, arrays, function
pointers), struct/union definitions, typedefs, const, static, the full
expression grammar with C precedence, and the statement forms.  The
standard headers are built in: ``stdint.h``/``stddef.h`` typedefs,
``limits.h``/``stdint.h`` limit macros (target-dependent, hence the
parser takes a :class:`~repro.ctypes.layout.TargetLayout`), and
``cheriintrin.h`` intrinsics (known to the interpreter).
"""

from __future__ import annotations

from dataclasses import replace

from repro.ctypes.layout import TargetLayout
from repro.ctypes.types import (
    ArrayT, BOOL, CHAR, CType, Field, FuncT, IKind, INT, Integer, INTPTR,
    LLONG, LONG, Pointer, PTRADDR, PTRDIFF_T, SCHAR, SHORT, SIZE_T, StructT,
    UCHAR, UINT, UINTPTR, ULLONG, ULONG, UnionT, USHORT, VOID, Void,
)
from repro.core.cast import (
    AlignofType, Assign, Binary, Block, Break, Call, Cast, Comma,
    Conditional, Continue, Declarator, DeclStmt, Empty, Expr, ExprStmt, For,
    FuncDef, GlobalDecl, Ident, If, Index, InitList, IntLit, Member,
    OffsetofExpr, Param, Program, Return, SizeofExpr, SizeofType, Stmt,
    StrLit, Switch, SwitchCase, Unary, VaArg, While,
)
from repro.core.clexer import Token, tokenize
from repro.errors import CSyntaxError

#: Built-in typedef names available without any #include.
BUILTIN_TYPEDEFS: dict[str, CType] = {
    "size_t": SIZE_T,
    "ptrdiff_t": PTRDIFF_T,
    "intptr_t": INTPTR,
    "uintptr_t": UINTPTR,
    "ptraddr_t": PTRADDR,
    "vaddr_t": PTRADDR,
    "bool": BOOL,
    "int8_t": SCHAR, "uint8_t": UCHAR,
    "int16_t": SHORT, "uint16_t": USHORT,
    "int32_t": INT, "uint32_t": UINT,
    "int64_t": LLONG, "uint64_t": ULLONG,
    # va_list is an index into the callee's variadic-argument vector.
    "va_list": LONG,
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

#: Binary operator precedence (higher binds tighter).
PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    def __init__(self, tokens: list[Token], layout: TargetLayout) -> None:
        self.toks = tokens
        self.pos = 0
        self.layout = layout
        self.typedefs: dict[str, CType] = dict(BUILTIN_TYPEDEFS)
        self.tags: dict[str, StructT] = {}
        self.constants = _limit_constants(layout)
        #: Enclosing loops and switches of the statement being parsed:
        #: ``break`` needs either, ``continue`` a loop (C11 6.8.6.2p1,
        #: 6.8.6.3p1).
        self.loop_depth = 0
        self.switch_depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[idx]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise CSyntaxError(f"expected {text!r}, found {tok.text!r}",
                               tok.line, tok.col)
        return self.next()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def error(self, message: str) -> CSyntaxError:
        tok = self.peek()
        return CSyntaxError(message + f" (at {tok.text!r})",
                            tok.line, tok.col)

    # -- type recognition ---------------------------------------------------

    TYPE_KEYWORDS = frozenset({
        "void", "char", "short", "int", "long", "signed", "unsigned",
        "_Bool", "const", "volatile", "struct", "union", "float", "double",
    })

    def at_type(self, offset: int = 0) -> bool:
        tok = self.peek(offset)
        if tok.kind == "kw" and tok.text in self.TYPE_KEYWORDS:
            return True
        return tok.kind == "id" and tok.text in self.typedefs

    def at_declaration(self) -> bool:
        tok = self.peek()
        if tok.is_kw("static", "typedef", "extern"):
            return True
        return self.at_type()

    # -- declaration specifiers ------------------------------------------

    def parse_specifiers(self) -> tuple[CType, bool, bool]:
        """Returns (base type, is_static, is_typedef)."""
        is_static = is_typedef = False
        const = False
        words: list[str] = []
        base: CType | None = None
        while True:
            tok = self.peek()
            if tok.is_kw("static", "extern"):
                self.next()
                is_static = True
            elif tok.is_kw("typedef"):
                self.next()
                is_typedef = True
            elif tok.is_kw("const"):
                self.next()
                const = True
            elif tok.is_kw("volatile", "inline", "restrict"):
                self.next()
            elif tok.is_kw("struct", "union"):
                base = self.parse_struct_union()
            elif tok.is_kw("enum"):
                base = self.parse_enum()
            elif tok.is_kw("float", "double"):
                raise self.error("floating-point types are not supported")
            elif tok.is_kw("void", "char", "short", "int", "long",
                           "signed", "unsigned", "_Bool"):
                words.append(self.next().text)
            elif (tok.kind == "id" and tok.text in self.typedefs
                  and base is None and not words):
                base = self.typedefs[self.next().text]
            else:
                break
        if base is None:
            base = _base_from_words(words, self)
        if const:
            base = base.qualified_const()
        return base, is_static, is_typedef

    def parse_struct_union(self) -> StructT:
        kw = self.next().text            # struct | union
        is_union = kw == "union"
        tag = ""
        if self.peek().kind == "id":
            tag = self.next().text
        if not self.accept("{"):
            key = ("union " if is_union else "struct ") + tag
            existing = self.tags.get(key)
            if existing is not None:
                return existing
            forward = (UnionT(tag=tag, fields=None) if is_union
                       else StructT(tag=tag, fields=None))
            self.tags[key] = forward
            return forward
        fields: list[Field] = []
        while not self.accept("}"):
            base, _static, _td = self.parse_specifiers()
            while True:
                name, ctype = self.parse_declarator(base)
                fields.append(Field(name, ctype))
                if not self.accept(","):
                    break
            self.expect(";")
        if not tag:
            tag = f"__anon{len(self.tags)}"
        cls = UnionT if is_union else StructT
        result = cls(tag=tag, fields=tuple(fields))
        self.tags[("union " if is_union else "struct ") + tag] = result
        return result

    def parse_enum(self) -> CType:
        """Enumerations: each enumerator becomes an int constant."""
        self.expect("enum")
        if self.peek().kind == "id":
            self.next()   # tag (no separate enum-type identity needed)
        if self.accept("{"):
            value = 0
            while not self.accept("}"):
                name_tok = self.next()
                if name_tok.kind != "id":
                    raise self.error("expected an enumerator name")
                if self.accept("="):
                    value = self.parse_constant_expression()
                self.constants[name_tok.text] = (
                    lambda v: lambda line: IntLit(value=v, ctype=INT,
                                                  line=line))(value)
                value += 1
                if not self.accept(","):
                    self.expect("}")
                    break
        return INT

    # -- declarators ---------------------------------------------------------

    def parse_declarator(self, base: CType) -> tuple[str, CType]:
        """Full C declarator syntax (pointers, arrays, function pointers).

        Also records, in ``self._last_params``, the parameter list of the
        function suffix directly attached to the declared name -- what a
        function *definition* needs for its parameter names.
        """
        self._last_params = None
        name, ctype = self._declarator(base)
        return name, ctype

    def _declarator(self, base: CType) -> tuple[str, CType]:
        if self.accept("*"):
            ptr: CType = Pointer(base)
            while self.peek().is_kw("const", "volatile", "restrict"):
                if self.next().text == "const":
                    ptr = ptr.qualified_const()
            return self._declarator(ptr)
        return self._direct_declarator(base)

    def _direct_declarator(self, base: CType) -> tuple[str, CType]:
        tok = self.peek()
        if tok.is_punct("(") and self.peek(1).is_punct("*", "("):
            # Parenthesised inner declarator: parse the suffixes that
            # follow the closing paren first (they bind to the base),
            # then re-parse the inner declarator against that type.
            self.next()
            inner_start = self.pos
            self._skip_balanced_parens()
            applied = self._parse_suffixes(base, attach_params=False)
            end_pos = self.pos
            self.pos = inner_start
            name, ctype = self._declarator(applied)
            self.expect(")")
            self.pos = end_pos
            return name, ctype
        name = ""
        if tok.kind == "id":
            name = self.next().text
        ctype = self._parse_suffixes(base, attach_params=True)
        return name, ctype

    def _skip_balanced_parens(self) -> None:
        depth = 1
        while depth:
            t = self.next()
            if t.kind == "eof":
                raise self.error("unbalanced parentheses in declarator")
            if t.is_punct("("):
                depth += 1
            elif t.is_punct(")"):
                depth -= 1

    def _parse_suffixes(self, base: CType, *, attach_params: bool) -> CType:
        suffixes: list[tuple[str, object]] = []
        first_func_params: list[Param] | None = None
        while True:
            if self.accept("["):
                if self.accept("]"):
                    suffixes.append(("array", None))
                else:
                    size = self.parse_constant_expression()
                    self.expect("]")
                    suffixes.append(("array", size))
            elif self.peek().is_punct("("):
                self.next()
                params, variadic = self._param_list()
                if first_func_params is None:
                    first_func_params = params
                suffixes.append(("func", (params, variadic)))
            else:
                break
        ctype = base
        for kind, payload in reversed(suffixes):
            if kind == "array":
                ctype = ArrayT(elem=ctype, length=payload)  # type: ignore[arg-type]
            else:
                params, variadic = payload  # type: ignore[misc]
                ctype = FuncT(ret=ctype,
                              params=tuple(p.ctype for p in params),
                              variadic=variadic)
        if attach_params and first_func_params is not None:
            self._last_params = first_func_params
        return ctype

    def _param_list(self) -> tuple[list[Param], bool]:
        params: list[Param] = []
        variadic = False
        if self.accept(")"):
            return params, variadic
        if self.peek().is_kw("void") and self.peek(1).is_punct(")"):
            self.next(), self.next()
            return params, variadic
        while True:
            if self.accept("..."):
                variadic = True
                break
            base, _static, _td = self.parse_specifiers()
            name, ctype = self.parse_declarator(base)
            # Array parameters decay to pointers; function params too.
            if isinstance(ctype, ArrayT):
                ctype = Pointer(ctype.elem)
            elif isinstance(ctype, FuncT):
                ctype = Pointer(ctype)
            params.append(Param(name, ctype))
            if not self.accept(","):
                break
        self.expect(")")
        return params, variadic

    def parse_type_name(self) -> CType:
        base, _static, _td = self.parse_specifiers()
        name, ctype = self.parse_abstract_declarator(base)
        if name:
            raise self.error("type name must not declare an identifier")
        return ctype

    def parse_abstract_declarator(self, base: CType) -> tuple[str, CType]:
        return self.parse_declarator(base)

    # -- constant expressions (array sizes) ----------------------------------

    def parse_constant_expression(self) -> int:
        expr = self.parse_conditional()
        value = _const_eval(expr, self.layout)
        if value is None:
            raise self.error("expected an integer constant expression")
        return value

    # -- expressions ----------------------------------------------------

    def parse_expression(self) -> Expr:
        expr = self.parse_assignment()
        while self.peek().is_punct(","):
            line = self.next().line
            rhs = self.parse_assignment()
            expr = Comma(lhs=expr, rhs=rhs, line=line)
        return expr

    def parse_assignment(self) -> Expr:
        lhs = self.parse_conditional()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ASSIGN_OPS:
            self.next()
            rhs = self.parse_assignment()
            op = "" if tok.text == "=" else tok.text[:-1]
            return Assign(op=op, target=lhs, value=rhs, line=tok.line)
        return lhs

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(1)
        if self.peek().is_punct("?"):
            line = self.next().line
            then = self.parse_expression()
            self.expect(":")
            other = self.parse_conditional()
            return Conditional(cond=cond, then=then, other=other, line=line)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.text) if tok.kind == "punct" else None
            if prec is None or prec < min_prec:
                return lhs
            self.next()
            rhs = self.parse_binary(prec + 1)
            lhs = Binary(op=tok.text, lhs=lhs, rhs=rhs, line=tok.line)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.is_punct("++", "--"):
            self.next()
            operand = self.parse_unary()
            return Unary(op=tok.text, operand=operand, line=tok.line)
        if tok.is_punct("-", "+", "~", "!", "&", "*"):
            self.next()
            operand = self.parse_cast_expr_or_unary()
            return Unary(op=tok.text, operand=operand, line=tok.line)
        if tok.is_kw("sizeof"):
            self.next()
            if self.peek().is_punct("(") and self.at_type(1):
                self.expect("(")
                ctype = self.parse_type_name()
                self.expect(")")
                return SizeofType(ctype=ctype, line=tok.line)
            operand = self.parse_unary()
            return SizeofExpr(operand=operand, line=tok.line)
        if tok.is_kw("_Alignof"):
            self.next()
            self.expect("(")
            ctype = self.parse_type_name()
            self.expect(")")
            return AlignofType(ctype=ctype, line=tok.line)
        return self.parse_cast_expr()

    def parse_cast_expr(self) -> Expr:
        tok = self.peek()
        if tok.is_punct("(") and self.at_type(1):
            self.next()
            ctype = self.parse_type_name()
            self.expect(")")
            if self.peek().is_punct("{"):
                raise self.error("compound literals are not supported")
            operand = self.parse_cast_expr_or_unary()
            return Cast(ctype=ctype, operand=operand, line=tok.line)
        return self.parse_postfix()

    def parse_cast_expr_or_unary(self) -> Expr:
        tok = self.peek()
        if tok.is_punct("-", "+", "~", "!", "&", "*", "++", "--") or \
                tok.is_kw("sizeof", "_Alignof"):
            return self.parse_unary()
        return self.parse_cast_expr()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.is_punct("["):
                self.next()
                index = self.parse_expression()
                self.expect("]")
                expr = Index(base=expr, index=index, line=tok.line)
            elif tok.is_punct("("):
                self.next()
                args: list[Expr] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                    self.expect(")")
                expr = Call(func=expr, args=tuple(args), line=tok.line)
            elif tok.is_punct("."):
                self.next()
                name = self.next().text
                expr = Member(base=expr, name=name, arrow=False,
                              line=tok.line)
            elif tok.is_punct("->"):
                self.next()
                name = self.next().text
                expr = Member(base=expr, name=name, arrow=True,
                              line=tok.line)
            elif tok.is_punct("++", "--"):
                self.next()
                expr = Unary(op=tok.text, operand=expr, postfix=True,
                             line=tok.line)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            ctype = _literal_type(tok, self.layout)
            return IntLit(value=tok.value, ctype=ctype,   # type: ignore[arg-type]
                          line=tok.line)
        if tok.kind == "char":
            self.next()
            return IntLit(value=tok.value, ctype=INT,     # type: ignore[arg-type]
                          line=tok.line)
        if tok.kind == "str":
            self.next()
            return StrLit(value=tok.value, line=tok.line)  # type: ignore[arg-type]
        if tok.kind == "id":
            if tok.text == "va_arg" and self.peek(1).is_punct("("):
                self.next(), self.next()
                ap = self.parse_assignment()
                self.expect(",")
                ctype = self.parse_type_name()
                self.expect(")")
                return VaArg(ap=ap, ctype=ctype, line=tok.line)
            if tok.text == "offsetof" and self.peek(1).is_punct("("):
                self.next(), self.next()
                ctype = self.parse_type_name()
                self.expect(",")
                member = self.next().text
                self.expect(")")
                return OffsetofExpr(ctype=ctype, member=member,
                                    line=tok.line)
            if tok.text in self.constants:
                self.next()
                return self.constants[tok.text](tok.line)
            self.next()
            return Ident(name=tok.text, line=tok.line)
        if tok.is_punct("("):
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise self.error("expected an expression")

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_punct(";"):
            self.next()
            return Empty(line=tok.line)
        if tok.is_kw("if"):
            self.next()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then = self.parse_statement()
            other = self.parse_statement() if self.accept("else") else None
            return If(cond=cond, then=then, other=other, line=tok.line)
        if tok.is_kw("while"):
            self.next()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_loop_body()
            return While(cond=cond, body=body, line=tok.line)
        if tok.is_kw("do"):
            self.next()
            body = self.parse_loop_body()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            self.expect(";")
            return While(cond=cond, body=body, do_while=True, line=tok.line)
        if tok.is_kw("for"):
            return self.parse_for()
        if tok.is_kw("return"):
            self.next()
            value = None
            if not self.peek().is_punct(";"):
                value = self.parse_expression()
            self.expect(";")
            return Return(value=value, line=tok.line)
        if tok.is_kw("switch"):
            return self.parse_switch()
        if tok.is_kw("break"):
            if not (self.loop_depth or self.switch_depth):
                raise self.error("break statement not within a loop "
                                 "or switch")
            self.next(), self.expect(";")
            return Break(line=tok.line)
        if tok.is_kw("continue"):
            if not self.loop_depth:
                raise self.error("continue statement not within a loop")
            self.next(), self.expect(";")
            return Continue(line=tok.line)
        if self.at_declaration():
            return self.parse_declaration_stmt()
        expr = self.parse_expression()
        self.expect(";")
        return ExprStmt(expr=expr, line=tok.line)

    def parse_for(self) -> Stmt:
        tok = self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if not self.accept(";"):
            if self.at_declaration():
                init = self.parse_declaration_stmt()
            else:
                expr = self.parse_expression()
                self.expect(";")
                init = ExprStmt(expr=expr, line=tok.line)
        cond = None
        if not self.peek().is_punct(";"):
            cond = self.parse_expression()
        self.expect(";")
        step = None
        if not self.peek().is_punct(")"):
            step = self.parse_expression()
        self.expect(")")
        body = self.parse_loop_body()
        return For(init=init, cond=cond, step=step, body=body, line=tok.line)

    def parse_loop_body(self) -> Stmt:
        self.loop_depth += 1
        body = self.parse_statement()
        self.loop_depth -= 1
        return body

    def parse_switch(self) -> Stmt:
        tok = self.expect("switch")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect("{")
        stmts: list[Stmt] = []
        cases: list[SwitchCase] = []
        while not self.accept("}"):
            if self.peek().is_kw("case"):
                self.next()
                value = self.parse_constant_expression()
                self.expect(":")
                cases.append(SwitchCase(value, len(stmts)))
                continue
            if self.peek().is_kw("default"):
                self.next()
                self.expect(":")
                cases.append(SwitchCase(None, len(stmts)))
                continue
            self.switch_depth += 1
            stmts.append(self.parse_statement())
            self.switch_depth -= 1
        return Switch(cond=cond, stmts=tuple(stmts), cases=tuple(cases),
                      line=tok.line)

    def parse_block(self) -> Block:
        tok = self.expect("{")
        stmts: list[Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_statement())
        return Block(stmts=tuple(stmts), line=tok.line)

    def parse_declaration_stmt(self) -> Stmt:
        line = self.peek().line
        base, is_static, is_typedef = self.parse_specifiers()
        if is_typedef:
            while True:
                name, ctype = self.parse_declarator(base)
                self.typedefs[name] = ctype
                if not self.accept(","):
                    break
            self.expect(";")
            return Empty(line=line)
        if self.peek().is_punct(";"):
            # A bare struct/union definition.
            self.next()
            return Empty(line=line)
        decls: list[Declarator] = []
        while True:
            dline = self.peek().line
            name, ctype = self.parse_declarator(base)
            init = None
            if self.accept("="):
                init = self.parse_initializer()
            if init is not None and isinstance(ctype, ArrayT) \
                    and ctype.length is None:
                ctype = _complete_array(ctype, init)
            decls.append(Declarator(name, ctype, init, dline))
            if not self.accept(","):
                break
        self.expect(";")
        return DeclStmt(decls=tuple(decls), static=is_static, line=line)

    def parse_initializer(self) -> Expr:
        if self.peek().is_punct("{"):
            tok = self.next()
            items: list[Expr] = []
            if not self.accept("}"):
                while True:
                    items.append(self.parse_initializer())
                    if not self.accept(","):
                        break
                    if self.peek().is_punct("}"):
                        break
                self.expect("}")
            return InitList(items=tuple(items), line=tok.line)
        return self.parse_assignment()

    # -- top level ------------------------------------------------------

    def parse_program(self) -> Program:
        functions: list[FuncDef] = []
        globals_: list[GlobalDecl] = []
        while self.peek().kind != "eof":
            line = self.peek().line
            base, is_static, is_typedef = self.parse_specifiers()
            if is_typedef:
                while True:
                    name, ctype = self.parse_declarator(base)
                    self.typedefs[name] = ctype
                    if not self.accept(","):
                        break
                self.expect(";")
                continue
            if self.peek().is_punct(";"):
                self.next()   # bare struct definition
                continue
            name, ctype = self.parse_declarator(base)
            if isinstance(ctype, FuncT) and self.peek().is_punct("{"):
                # _last_params was recorded by the declarator; grab it
                # before the body's declarations overwrite it.
                params = self._last_params or []
                body = self.parse_block()
                functions.append(FuncDef(
                    name=name, ret=ctype.ret, params=tuple(params),
                    variadic=ctype.variadic, body=body, line=line))
                continue
            if isinstance(ctype, FuncT):
                self.expect(";")
                functions.append(FuncDef(
                    name=name, ret=ctype.ret,
                    params=tuple(self._last_params or []),
                    variadic=ctype.variadic, body=None, line=line))
                continue
            init = None
            if self.accept("="):
                init = self.parse_initializer()
            if init is not None and isinstance(ctype, ArrayT) \
                    and ctype.length is None:
                ctype = _complete_array(ctype, init)
            globals_.append(GlobalDecl(
                decl=Declarator(name, ctype, init, line),
                static=is_static, line=line))
            while self.accept(","):
                dline = self.peek().line
                name, ctype = self.parse_declarator(base)
                init = None
                if self.accept("="):
                    init = self.parse_initializer()
                globals_.append(GlobalDecl(
                    decl=Declarator(name, ctype, init, dline),
                    static=is_static, line=dline))
            self.expect(";")
        return Program(functions=tuple(functions), globals=tuple(globals_))

    _last_params: list[Param] | None = None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _base_from_words(words: list[str], parser: Parser) -> CType:
    """Map a multiset of type keywords to a canonical type."""
    if not words:
        raise parser.error("expected a type")
    ws = sorted(words)
    table = {
        ("void",): VOID,
        ("_Bool",): BOOL,
        ("char",): CHAR,
        ("char", "signed"): SCHAR,
        ("char", "unsigned"): UCHAR,
        ("short",): SHORT, ("int", "short"): SHORT,
        ("short", "signed"): SHORT, ("int", "short", "signed"): SHORT,
        ("short", "unsigned"): USHORT, ("int", "short", "unsigned"): USHORT,
        ("int",): INT, ("signed",): INT, ("int", "signed"): INT,
        ("unsigned",): UINT, ("int", "unsigned"): UINT,
        ("long",): LONG, ("int", "long"): LONG,
        ("long", "signed"): LONG, ("int", "long", "signed"): LONG,
        ("long", "unsigned"): ULONG, ("int", "long", "unsigned"): ULONG,
        ("long", "long"): LLONG, ("int", "long", "long"): LLONG,
        ("long", "long", "signed"): LLONG,
        ("int", "long", "long", "signed"): LLONG,
        ("long", "long", "unsigned"): ULLONG,
        ("int", "long", "long", "unsigned"): ULLONG,
    }
    ctype = table.get(tuple(ws))
    if ctype is None:
        raise parser.error(f"unsupported type {' '.join(words)!r}")
    return ctype


def _literal_type(tok: Token, layout: TargetLayout) -> CType:
    """ISO C literal typing from value, base, and suffix (6.4.4.1)."""
    unsigned = "u" in tok.suffix
    longish = tok.suffix.count("l")
    if unsigned:
        candidates = {0: [UINT, ULONG, ULLONG], 1: [ULONG, ULLONG],
                      2: [ULLONG]}[longish]
    elif tok.base != 10:
        candidates = {0: [INT, UINT, LONG, ULONG, LLONG, ULLONG],
                      1: [LONG, ULONG, LLONG, ULLONG],
                      2: [LLONG, ULLONG]}[longish]
    else:
        candidates = {0: [INT, LONG, LLONG], 1: [LONG, LLONG],
                      2: [LLONG]}[longish]
    value = tok.value
    for cand in candidates:
        if layout.in_range(cand.kind, value):  # type: ignore[union-attr]
            return cand
    return candidates[-1]


def _limit_constants(layout: TargetLayout):
    """The ``limits.h``/``stdint.h`` macros, resolved for this target."""
    def lit(kind: IKind, value: int):
        ctype = Integer(kind)
        return lambda line: IntLit(value=value, ctype=ctype, line=line)

    def null(line: int):
        return Cast(ctype=Pointer(VOID), operand=IntLit(value=0, ctype=INT),
                    line=line)

    consts = {
        "NULL": null,
        "true": lit(IKind.INT, 1),
        "false": lit(IKind.INT, 0),
        "CHAR_BIT": lit(IKind.INT, 8),
        "SCHAR_MAX": lit(IKind.INT, 127),
        "SCHAR_MIN": lit(IKind.INT, -128),
        "UCHAR_MAX": lit(IKind.INT, 255),
        "CHAR_MAX": lit(IKind.INT, 127),
        "CHAR_MIN": lit(IKind.INT, -128),
        "SHRT_MAX": lit(IKind.INT, layout.int_max(IKind.SHORT)),
        "SHRT_MIN": lit(IKind.INT, layout.int_min(IKind.SHORT)),
        "USHRT_MAX": lit(IKind.INT, layout.int_max(IKind.USHORT)),
        "INT_MAX": lit(IKind.INT, layout.int_max(IKind.INT)),
        "INT_MIN": lit(IKind.INT, layout.int_min(IKind.INT)),
        "UINT_MAX": lit(IKind.UINT, layout.int_max(IKind.UINT)),
        "LONG_MAX": lit(IKind.LONG, layout.int_max(IKind.LONG)),
        "LONG_MIN": lit(IKind.LONG, layout.int_min(IKind.LONG)),
        "ULONG_MAX": lit(IKind.ULONG, layout.int_max(IKind.ULONG)),
        "LLONG_MAX": lit(IKind.LLONG, layout.int_max(IKind.LLONG)),
        "LLONG_MIN": lit(IKind.LLONG, layout.int_min(IKind.LLONG)),
        "ULLONG_MAX": lit(IKind.ULLONG, layout.int_max(IKind.ULLONG)),
        "SIZE_MAX": lit(IKind.SIZE, layout.int_max(IKind.SIZE)),
        "INTPTR_MAX": lit(IKind.INTPTR, layout.int_max(IKind.INTPTR)),
        "INTPTR_MIN": lit(IKind.INTPTR, layout.int_min(IKind.INTPTR)),
        "UINTPTR_MAX": lit(IKind.UINTPTR, layout.int_max(IKind.UINTPTR)),
        "PTRADDR_MAX": lit(IKind.PTRADDR, layout.int_max(IKind.PTRADDR)),
    }
    # cheriintrin.h permission constants, at this target's bit positions.
    for i, perm in enumerate(layout.arch.perm_order):
        consts[f"CHERI_PERM_{perm.name}"] = lit(IKind.SIZE, 1 << i)
    return consts


def _const_eval(expr: Expr, layout: TargetLayout) -> int | None:
    """Fold integer constant expressions (array sizes and friends)."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, SizeofType):
        return layout.sizeof(expr.ctype)
    if isinstance(expr, AlignofType):
        return layout.alignof(expr.ctype)
    if isinstance(expr, Unary) and not expr.postfix:
        v = _const_eval(expr.operand, layout)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(not v)}.get(expr.op)
    if isinstance(expr, Binary):
        lv = _const_eval(expr.lhs, layout)
        rv = _const_eval(expr.rhs, layout)
        if lv is None or rv is None:
            return None
        try:
            return {
                "+": lv + rv, "-": lv - rv, "*": lv * rv,
                "/": lv // rv if rv else None,
                "%": lv % rv if rv else None,
                "<<": lv << rv, ">>": lv >> rv,
                "&": lv & rv, "|": lv | rv, "^": lv ^ rv,
                "==": int(lv == rv), "!=": int(lv != rv),
                "<": int(lv < rv), ">": int(lv > rv),
                "<=": int(lv <= rv), ">=": int(lv >= rv),
                "&&": int(bool(lv) and bool(rv)),
                "||": int(bool(lv) or bool(rv)),
            }.get(expr.op)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def _complete_array(ctype: ArrayT, init: Expr) -> ArrayT:
    if isinstance(init, InitList):
        return replace(ctype, length=len(init.items))
    if isinstance(init, StrLit):
        return replace(ctype, length=len(init.value) + 1)
    return ctype


def parse_program(source: str, layout: TargetLayout) -> Program:
    """Parse a translation unit for the given target."""
    return Parser(tokenize(source), layout).parse_program()
