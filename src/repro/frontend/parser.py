"""Recursive-descent parser for the annotated P4 dialect.

The grammar is a concrete syntax for the Core P4 fragment of Figure 1:

* ``header`` / ``struct`` / ``typedef`` / ``match_kind`` type declarations,
* ``control`` blocks with local ``action`` / ``function`` / ``table`` /
  variable declarations and an ``apply`` block,
* the statements and expressions of Figures 1a/1b.

Security annotations are written ``<type, label>`` wherever a type may
appear, e.g. ``<bit<8>, high> ttl;`` inside a header.  A control block may
be prefixed by ``@pc(label)`` to request type checking under a non-bottom
program counter (isolation case study, Section 5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.frontend.errors import ParserError
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.syntax.declarations import (
    ActionRef,
    ControlDecl,
    Declaration,
    Direction,
    FunctionDecl,
    HeaderDecl,
    MatchKindDecl,
    Param,
    StructDecl,
    TableDecl,
    TableKey,
    TypedefDecl,
    VarDecl,
)
from repro.syntax.expressions import (
    BinaryOp,
    BoolLiteral,
    Call,
    Expression,
    FieldAccess,
    Index,
    IntLiteral,
    RecordLiteral,
    UnaryOp,
    Var,
)
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.statements import (
    Assign,
    Block,
    CallStmt,
    Exit,
    If,
    Return,
    Statement,
    VarDeclStmt,
)
from repro.syntax.types import (
    AnnotatedType,
    BitType,
    BoolType,
    Field,
    IntType,
    StackType,
    Type,
    TypeName,
    UnitType,
)

#: Binary operator precedence levels, lowest binding first.  Each level is a
#: tuple of operators parsed left-associatively.
_BINARY_PRECEDENCE: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: Operator -> precedence level, for precedence climbing.
_OPERATOR_LEVEL: Dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_PRECEDENCE) for op in ops
}

_TYPE_KEYWORDS = frozenset({"bit", "bool", "int", "void"})

#: How deeply expressions and statement blocks may nest.  Every recursive
#: descent of the parser passes through a nesting check, and each level
#: costs at most a handful of Python frames, so this bound keeps parsing
#: (and the recursive passes that walk the tree afterwards) well inside
#: CPython's default recursion limit: a pathological input gets a
#: :class:`ParserError` instead of a ``RecursionError``.
MAX_NESTING = 100

#: One top-level unit of a program: a named declaration or a control block.
Unit = Union[Declaration, ControlDecl]


class Parser:
    """Parses a token stream into the Core P4 AST."""

    def __init__(self, tokens: List[Token], filename: str = "<input>") -> None:
        self._tokens = tokens
        self._filename = filename
        self._index = 0
        self._depth = 0

    # ------------------------------------------------------------------ utils

    def _peek(self, ahead: int = 0) -> Token:
        try:
            return self._tokens[self._index + ahead]
        except IndexError:  # looking past the end: the EOF token
            return self._tokens[-1]

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check_punct(self, text: str, ahead: int = 0) -> bool:
        return self._peek(ahead).is_punct(text)

    def _check_keyword(self, text: str, ahead: int = 0) -> bool:
        return self._peek(ahead).is_keyword(text)

    def _match_punct(self, text: str) -> Optional[Token]:
        if self._check_punct(text):
            return self._advance()
        return None

    def _expect_punct(self, text: str, context: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParserError(
                f"expected {text!r} {context}, found {token}", token.span
            )
        return self._advance()

    def _expect_keyword(self, text: str, context: str) -> Token:
        token = self._peek()
        if not token.is_keyword(text):
            raise ParserError(
                f"expected keyword {text!r} {context}, found {token}", token.span
            )
        return self._advance()

    def _enter(self, token: Token, what: str = "expression") -> None:
        """Count one level of nesting opened by ``token``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParserError(f"{what} nested too deeply", token.span)

    def _expect_ident(self, context: str) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParserError(
                f"expected an identifier {context}, found {token}", token.span
            )
        return self._advance()

    # ------------------------------------------------------------------ program

    def parse_units(self) -> List[Tuple[Unit, int, int]]:
        """Parse top-level units up to EOF, in source order.

        Each unit comes with the index of its first token (a leading
        ``@pc`` included) and the index just past its last token.
        """
        units: List[Tuple[Unit, int, int]] = []
        while not self._at_end():
            first = self._index
            units.append((self._parse_unit(), first, self._index))
        return units

    def _parse_unit(self) -> Unit:
        pc_label = self._parse_optional_pc_annotation()
        token = self._peek()
        if token.is_keyword("control"):
            return self._parse_control(pc_label)
        if pc_label is not None:
            raise ParserError(
                "@pc(...) annotations may only precede a control block",
                token.span,
            )
        if token.is_keyword("header"):
            return self._parse_header_or_struct(header=True)
        if token.is_keyword("struct"):
            return self._parse_header_or_struct(header=False)
        if token.is_keyword("typedef"):
            return self._parse_typedef()
        if token.is_keyword("match_kind"):
            return self._parse_match_kind()
        if token.is_keyword("const") or self._looks_like_type_start():
            return self._parse_var_decl(allow_const=True)
        raise ParserError(f"unexpected token {token} at top level", token.span)

    def _parse_optional_pc_annotation(self) -> Optional[str]:
        if not self._check_punct("@"):
            return None
        at_token = self._advance()
        name = self._expect_ident("after '@'")
        if name.text != "pc":
            raise ParserError(
                f"unknown annotation @{name.text}; only @pc(label) is supported",
                at_token.span,
            )
        self._expect_punct("(", "after '@pc'")
        label = self._parse_label_text(")")
        self._expect_punct(")", "to close '@pc('")
        return label

    # ------------------------------------------------------------------ type declarations

    def _parse_header_or_struct(self, *, header: bool) -> Declaration:
        keyword = self._advance()
        name = self._expect_ident("after 'header'/'struct'")
        self._expect_punct("{", f"to open {keyword.text} {name.text}")
        fields: List[Field] = []
        while not self._check_punct("}"):
            field_type = self._parse_annotated_type()
            field_name = self._expect_ident("as a field name")
            self._expect_punct(";", "after a field declaration")
            fields.append(Field(field_name.text, field_type))
        close = self._expect_punct("}", f"to close {keyword.text} {name.text}")
        self._match_punct(";")
        span = keyword.span.merge(close.span)
        if header:
            return HeaderDecl(name.text, tuple(fields), span=span)
        return StructDecl(name.text, tuple(fields), span=span)

    def _parse_typedef(self) -> TypedefDecl:
        keyword = self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as the typedef name")
        semi = self._expect_punct(";", "after a typedef")
        return TypedefDecl(ty, name.text, span=keyword.span.merge(semi.span))

    def _parse_match_kind(self) -> MatchKindDecl:
        keyword = self._advance()
        self._expect_punct("{", "after 'match_kind'")
        members: List[str] = []
        while not self._check_punct("}"):
            member = self._expect_ident("as a match_kind member")
            members.append(member.text)
            if not self._match_punct(","):
                break
        close = self._expect_punct("}", "to close match_kind")
        self._match_punct(";")
        return MatchKindDecl(tuple(members), span=keyword.span.merge(close.span))

    # ------------------------------------------------------------------ controls

    def _parse_control(self, pc_label: Optional[str]) -> ControlDecl:
        keyword = self._expect_keyword("control", "to start a control block")
        name = self._expect_ident("as the control name")
        self._expect_punct("(", "after the control name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the control parameter list")
        self._expect_punct("{", "to open the control body")
        locals_: List[Declaration] = []
        apply_block: Optional[Block] = None
        while not self._check_punct("}"):
            token = self._peek()
            if token.is_keyword("apply"):
                self._advance()
                apply_block = self._parse_block()
            elif token.is_keyword("action"):
                locals_.append(self._parse_action())
            elif token.is_keyword("function"):
                locals_.append(self._parse_function())
            elif token.is_keyword("table"):
                locals_.append(self._parse_table())
            elif self._looks_like_type_start() or token.is_keyword("const"):
                locals_.append(self._parse_var_decl(allow_const=True))
            else:
                raise ParserError(
                    f"unexpected token {token} inside control {name.text!r}",
                    token.span,
                )
        close = self._expect_punct("}", f"to close control {name.text!r}")
        if apply_block is None:
            apply_block = Block((), span=close.span)
        return ControlDecl(
            name.text,
            tuple(params),
            tuple(locals_),
            apply_block,
            pc_label=pc_label,
            span=keyword.span.merge(close.span),
        )

    def _parse_param_list(self) -> List[Param]:
        params: List[Param] = []
        if self._check_punct(")"):
            return params
        while True:
            params.append(self._parse_param())
            if not self._match_punct(","):
                return params

    def _parse_param(self) -> Param:
        start = self._peek().span
        direction = Direction.NONE
        token = self._peek()
        if token.is_keyword("in"):
            direction = Direction.IN
            self._advance()
        elif token.is_keyword("out"):
            direction = Direction.OUT
            self._advance()
        elif token.is_keyword("inout"):
            direction = Direction.INOUT
            self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a parameter name")
        return Param(direction, name.text, ty, span=start.merge(name.span))

    # ------------------------------------------------------------------ actions / functions

    def _parse_action(self) -> FunctionDecl:
        keyword = self._advance()
        name = self._expect_ident("as the action name")
        self._expect_punct("(", "after the action name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the action parameter list")
        body = self._parse_block()
        return FunctionDecl(
            name.text,
            tuple(params),
            body,
            return_type=None,
            is_action=True,
            span=keyword.span.merge(body.span),
        )

    def _parse_function(self) -> FunctionDecl:
        keyword = self._advance()
        if self._check_keyword("void"):
            self._advance()
            return_type: Optional[AnnotatedType] = None
        else:
            return_type = self._parse_annotated_type()
        name = self._expect_ident("as the function name")
        self._expect_punct("(", "after the function name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the function parameter list")
        body = self._parse_block()
        return FunctionDecl(
            name.text,
            tuple(params),
            body,
            return_type=return_type,
            is_action=False,
            span=keyword.span.merge(body.span),
        )

    # ------------------------------------------------------------------ tables

    def _parse_table(self) -> TableDecl:
        keyword = self._advance()
        name = self._expect_ident("as the table name")
        self._expect_punct("{", "to open the table body")
        keys: List[TableKey] = []
        actions: List[ActionRef] = []
        while not self._check_punct("}"):
            token = self._peek()
            if token.is_keyword("key"):
                self._advance()
                self._expect_punct("=", "after 'key'")
                self._expect_punct("{", "to open the key list")
                while not self._check_punct("}"):
                    key_expr = self.parse_expression()
                    self._expect_punct(":", "between a key expression and its match kind")
                    kind = self._expect_ident("as a match kind")
                    self._match_punct(";")
                    keys.append(
                        TableKey(key_expr, kind.text, span=key_expr.span.merge(kind.span))
                    )
                self._expect_punct("}", "to close the key list")
                self._match_punct(";")
            elif token.is_keyword("actions"):
                self._advance()
                self._expect_punct("=", "after 'actions'")
                self._expect_punct("{", "to open the action list")
                while not self._check_punct("}"):
                    actions.append(self._parse_action_ref())
                    if not (self._match_punct(";") or self._match_punct(",")):
                        break
                self._expect_punct("}", "to close the action list")
                self._match_punct(";")
            else:
                raise ParserError(
                    f"unexpected token {token} inside table {name.text!r}; "
                    "expected 'key = {...}' or 'actions = {...}'",
                    token.span,
                )
        close = self._expect_punct("}", f"to close table {name.text!r}")
        self._match_punct(";")
        return TableDecl(
            name.text, tuple(keys), tuple(actions), span=keyword.span.merge(close.span)
        )

    def _parse_action_ref(self) -> ActionRef:
        name = self._expect_ident("as an action reference")
        arguments: List[Expression] = []
        span = name.span
        if self._match_punct("("):
            if not self._check_punct(")"):
                while True:
                    arguments.append(self.parse_expression())
                    if not self._match_punct(","):
                        break
            close = self._expect_punct(")", "to close action arguments")
            span = span.merge(close.span)
        return ActionRef(name.text, tuple(arguments), span=span)

    # ------------------------------------------------------------------ variable declarations

    def _parse_var_decl(self, *, allow_const: bool = False) -> VarDecl:
        start = self._peek().span
        if allow_const and self._check_keyword("const"):
            self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a variable name")
        init: Optional[Expression] = None
        if self._match_punct("="):
            init = self.parse_expression()
        semi = self._expect_punct(";", "after a variable declaration")
        return VarDecl(ty, name.text, init, span=start.merge(semi.span))

    def _looks_like_type_start(self) -> bool:
        """Decide whether the upcoming tokens begin a (possibly annotated) type.

        Used to disambiguate variable declarations from expression statements
        without backtracking.  A statement starts a declaration when it
        begins with ``<`` (an annotated type), a type keyword, or an
        identifier immediately followed by another identifier (``ipv4_t x``)
        or by ``[n] ident`` (a stack-typed variable).
        """
        token = self._peek()
        if token.is_punct("<"):
            return True
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.IDENT:
            nxt = self._peek(1)
            if nxt.kind is TokenKind.IDENT:
                return True
            if (
                nxt.is_punct("[")
                and self._peek(2).kind is TokenKind.INT
                and self._peek(3).is_punct("]")
                and self._peek(4).kind is TokenKind.IDENT
            ):
                return True
        return False

    # ------------------------------------------------------------------ statements

    def _parse_block(self) -> Block:
        open_brace = self._expect_punct("{", "to open a block")
        self._enter(open_brace, "statement")
        statements: List[Statement] = []
        while not self._check_punct("}"):
            statements.append(self._parse_statement())
        close = self._expect_punct("}", "to close a block")
        self._depth -= 1
        return Block(tuple(statements), span=open_brace.span.merge(close.span))

    def _parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("exit"):
            self._advance()
            semi = self._expect_punct(";", "after 'exit'")
            return Exit(span=token.span.merge(semi.span))
        if token.is_keyword("return"):
            self._advance()
            if self._check_punct(";"):
                semi = self._advance()
                return Return(None, span=token.span.merge(semi.span))
            value = self.parse_expression()
            semi = self._expect_punct(";", "after a return value")
            return Return(value, span=token.span.merge(semi.span))
        if self._looks_like_type_start() or token.is_keyword("const"):
            decl = self._parse_var_decl(allow_const=True)
            return VarDeclStmt(decl, span=decl.span)
        return self._parse_expression_statement()

    def _parse_if(self) -> If:
        keyword = self._advance()
        self._expect_punct("(", "after 'if'")
        condition = self.parse_expression()
        self._expect_punct(")", "to close the if condition")
        then_branch = self._parse_block()
        else_branch = Block((), span=then_branch.span)
        if self._check_keyword("else"):
            self._advance()
            if self._check_keyword("if"):
                self._enter(self._peek(), "statement")
                nested = self._parse_if()
                self._depth -= 1
                else_branch = Block((nested,), span=nested.span)
            else:
                else_branch = self._parse_block()
        return If(
            condition,
            then_branch,
            else_branch,
            span=keyword.span.merge(else_branch.span),
        )

    def _parse_expression_statement(self) -> Statement:
        expr = self.parse_expression()
        if self._match_punct("="):
            value = self.parse_expression()
            semi = self._expect_punct(";", "after an assignment")
            return Assign(expr, value, span=expr.span.merge(semi.span))
        semi = self._expect_punct(";", "after an expression statement")
        if isinstance(expr, Call):
            return CallStmt(expr, span=expr.span.merge(semi.span))
        raise ParserError(
            f"expression {expr.describe()!r} cannot be used as a statement",
            expr.span,
        )

    # ------------------------------------------------------------------ expressions

    def parse_expression(self) -> Expression:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> Expression:
        """Precedence climbing: operands bind operators of ``level`` and
        tighter, left-associatively."""
        left = self._parse_unary()
        chained = 0
        while True:
            op = self._peek()
            op_level = (
                _OPERATOR_LEVEL.get(op.text) if op.kind is TokenKind.PUNCT else None
            )
            if op_level is None or op_level < level:
                self._depth -= chained
                return left
            self._advance()
            # Each operator of a chain nests the tree one level deeper (it
            # is left-deep), so the chain counts towards the limit too.
            self._enter(op)
            chained += 1
            right = self._parse_binary(op_level + 1)
            left = BinaryOp(op.text, left, right, span=left.span.merge(right.span))

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("!", "-", "~"):
            self._advance()
            self._enter(token)
            operand = self._parse_unary()
            self._depth -= 1
            return UnaryOp(token.text, operand, span=token.span.merge(operand.span))
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expr = self._parse_primary()
        while True:
            if self._check_punct("."):
                self._advance()
                field = self._peek()
                if field.is_keyword("apply"):
                    # table application t.apply(...) desugars to t(...)
                    self._advance()
                    arguments = self._parse_call_arguments(
                        self._expect_punct("(", "after '.apply'")
                    )
                    close_span = self._tokens[self._index - 1].span
                    expr = Call(expr, tuple(arguments), span=expr.span.merge(close_span))
                    continue
                if field.kind is not TokenKind.IDENT:
                    raise ParserError(
                        f"expected a field name after '.', found {field}", field.span
                    )
                self._advance()
                expr = FieldAccess(expr, field.text, span=expr.span.merge(field.span))
            elif self._check_punct("["):
                self._enter(self._advance())
                index = self.parse_expression()
                close = self._expect_punct("]", "to close an index expression")
                self._depth -= 1
                expr = Index(expr, index, span=expr.span.merge(close.span))
            elif self._check_punct("("):
                arguments = self._parse_call_arguments(self._advance())
                close_span = self._tokens[self._index - 1].span
                expr = Call(expr, tuple(arguments), span=expr.span.merge(close_span))
            else:
                return expr

    def _parse_call_arguments(self, open_paren: Token) -> List[Expression]:
        self._enter(open_paren)
        arguments: List[Expression] = []
        if not self._check_punct(")"):
            while True:
                arguments.append(self.parse_expression())
                if not self._match_punct(","):
                    break
        self._expect_punct(")", "to close a call")
        self._depth -= 1
        return arguments

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return IntLiteral(token.value or 0, token.width, span=token.span)
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return BoolLiteral(token.text == "true", span=token.span)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return Var(token.text, span=token.span)
        if token.is_punct("("):
            self._advance()
            self._enter(token)
            inner = self.parse_expression()
            self._expect_punct(")", "to close a parenthesised expression")
            self._depth -= 1
            return inner
        if token.is_punct("{"):
            return self._parse_record_literal()
        raise ParserError(f"expected an expression, found {token}", token.span)

    def _parse_record_literal(self) -> RecordLiteral:
        open_brace = self._advance()
        self._enter(open_brace)
        fields: List[Tuple[str, Expression]] = []
        while not self._check_punct("}"):
            name = self._expect_ident("as a record field name")
            self._expect_punct("=", "after a record field name")
            value = self.parse_expression()
            fields.append((name.text, value))
            if not self._match_punct(","):
                break
        close = self._expect_punct("}", "to close a record literal")
        self._depth -= 1
        return RecordLiteral(tuple(fields), span=open_brace.span.merge(close.span))

    # ------------------------------------------------------------------ types

    def _parse_annotated_type(self) -> AnnotatedType:
        token = self._peek()
        if token.is_punct("<"):
            open_angle = self._advance()
            inner = self._parse_type()
            self._expect_punct(",", "between a type and its security label")
            label = self._parse_label_text(">")
            close = self._expect_punct(">", "to close a security annotation")
            return AnnotatedType(inner, label, span=open_angle.span.merge(close.span))
        span_start = token.span
        ty = self._parse_type()
        # Span the whole type, not just its first token: ``bit<8>`` and
        # ``ipv4_t[4]`` span through the last consumed token, so SARIF
        # regions cover the full type expression.
        span_end = self._tokens[self._index - 1].span
        return AnnotatedType(ty, None, span=span_start.merge(span_end))

    def _parse_type(self) -> Type:
        token = self._peek()
        base: Type
        if token.is_keyword("bit"):
            self._advance()
            self._expect_punct("<", "after 'bit'")
            width = self._peek()
            if width.kind is not TokenKind.INT:
                raise ParserError("expected a bit width", width.span)
            self._advance()
            self._expect_punct(">", "to close 'bit<...>'")
            base = BitType(width.value or 0)
        elif token.is_keyword("bool"):
            self._advance()
            base = BoolType()
        elif token.is_keyword("int"):
            self._advance()
            base = IntType()
        elif token.is_keyword("void"):
            self._advance()
            base = UnitType()
        elif token.kind is TokenKind.IDENT:
            self._advance()
            base = TypeName(token.text)
        else:
            raise ParserError(f"expected a type, found {token}", token.span)
        # header stacks / arrays: τ[n]
        while self._check_punct("[") and self._peek(1).kind is TokenKind.INT:
            self._advance()
            size = self._advance()
            self._expect_punct("]", "to close a stack type")
            base = StackType(AnnotatedType(base, None), size.value or 0)
        return base

    def _parse_label_text(self, closing: str) -> str:
        """Collect the raw spelling of a security label up to ``closing``.

        Labels are usually a single identifier (``high``, ``A``) but may be
        a brace-enclosed principal set (``{alice, bob}``) or a parenthesised
        pair for product lattices.
        """
        parts: List[str] = []
        depth = 0
        while True:
            token = self._peek()
            if token.kind is TokenKind.EOF:
                raise ParserError("unterminated security label", token.span)
            if depth == 0 and token.is_punct(closing):
                break
            if token.kind is TokenKind.PUNCT and token.text in "({":
                depth += 1
            elif token.kind is TokenKind.PUNCT and token.text in ")}":
                depth -= 1
            parts.append(token.text)
            self._advance()
        text = "".join(
            part if part in ",(){}" else (" " + part) for part in parts
        ).replace("( ", "(").replace("{ ", "{").strip()
        if not text:
            raise ParserError("empty security label", self._peek().span)
        return text


def build_program(units: Sequence[Unit], span: SourceSpan, name: str) -> Program:
    """The :class:`Program` of top-level ``units`` given in source order."""
    return Program(
        tuple(unit for unit in units if not isinstance(unit, ControlDecl)),
        tuple(unit for unit in units if isinstance(unit, ControlDecl)),
        span=span,
        name=name,
    )


def parse_program(source: str, filename: str = "<input>", name: str | None = None) -> Program:
    """Parse ``source`` into a :class:`Program`."""
    tokens = tokenize(source, filename)
    units = Parser(tokens, filename).parse_units()
    # From the first token through EOF (just EOF for an empty program).
    span = tokens[0].span.merge(tokens[-1].span)
    return build_program([unit for unit, _, _ in units], span, name or filename)


def parse_expression(source: str, filename: str = "<expr>") -> Expression:
    """Parse a standalone expression (used by tests and builders)."""
    tokens = tokenize(source, filename)
    parser = Parser(tokens, filename)
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParserError(f"unexpected trailing token {trailing}", trailing.span)
    return expr
