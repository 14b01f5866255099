"""The original character-at-a-time lexer, kept as a test oracle.

:mod:`repro.frontend.lexer` scans with one master regular expression and
derives positions from a line-start table.  This module is the lexer it
replaced: a direct, one-character-at-a-time reading of the dialect's
lexical rules.  ``tests/test_lexer_oracle.py`` checks that both produce
identical token lists -- or raise identical errors -- on the same text.
"""

from __future__ import annotations

from typing import List

from repro.frontend.errors import LexerError
from repro.frontend.lexer import KEYWORDS, Token, TokenKind
from repro.syntax.source import Position, SourceSpan

#: Multi-character operators, longest first so maximal munch works.
_MULTI_CHAR_OPERATORS = ("<<", ">>", "==", "!=", "<=", ">=", "&&", "||")

#: ``?`` only ever appears as the short spelling of an ``infer`` security
#: annotation (``<bit<8>, ?>``); the parser rejects it anywhere else.
_SINGLE_CHAR_TOKENS = frozenset("{}()[]<>,;:.=+-*/%&|^~!@?")


class Lexer:
    """Single-pass lexer over a source string."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self._source = source
        self._filename = filename
        self._offset = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> List[Token]:
        """Lex the whole input, appending a trailing EOF token."""
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self._at_end():
                tokens.append(Token(TokenKind.EOF, "", self._point_span(), None))
                return tokens
            tokens.append(self._next_token())

    # -- character helpers ----------------------------------------------------

    def _at_end(self) -> bool:
        return self._offset >= len(self._source)

    def _peek(self, ahead: int = 0) -> str:
        index = self._offset + ahead
        if index >= len(self._source):
            return "\0"
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._offset]
        self._offset += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _position(self) -> Position:
        return Position(self._line, self._column)

    def _point_span(self) -> SourceSpan:
        pos = self._position()
        return SourceSpan(pos, pos, self._filename)

    def _span_from(self, start: Position) -> SourceSpan:
        return SourceSpan(start, self._position(), self._filename)

    # -- trivia -----------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self._position()
        self._advance()
        self._advance()
        while True:
            if self._at_end():
                raise LexerError(
                    "unterminated block comment",
                    SourceSpan(start, self._position(), self._filename),
                )
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()

    # -- token scanning -----------------------------------------------------------

    def _next_token(self) -> Token:
        start = self._position()
        char = self._peek()
        if char.isalpha() or char == "_":
            return self._lex_word(start)
        if char.isdigit():
            return self._lex_number(start)
        return self._lex_punct(start)

    def _lex_word(self, start: Position) -> Token:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, self._span_from(start))

    def _lex_number(self, start: Position) -> Token:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars)
        span = self._span_from(start)
        value, width = self._parse_number(text, span)
        return Token(TokenKind.INT, text, span, value=value, width=width)

    @staticmethod
    def _parse_number(text: str, span: SourceSpan) -> tuple[int, int | None]:
        cleaned = text.replace("_", "")
        # width-annotated literals such as 8w255 or 32w0xFF
        if "w" in cleaned and not cleaned.lower().startswith("0x"):
            width_text, _, value_text = cleaned.partition("w")
            if width_text.isdigit() and value_text:
                try:
                    return int(value_text, 0), int(width_text)
                except ValueError as exc:
                    raise LexerError(f"malformed literal {text!r}", span) from exc
        try:
            return int(cleaned, 0), None
        except ValueError as exc:
            raise LexerError(f"malformed literal {text!r}", span) from exc

    def _lex_punct(self, start: Position) -> Token:
        for op in _MULTI_CHAR_OPERATORS:
            if self._source.startswith(op, self._offset):
                for _ in op:
                    self._advance()
                return Token(TokenKind.PUNCT, op, self._span_from(start))
        char = self._peek()
        if char in _SINGLE_CHAR_TOKENS:
            self._advance()
            return Token(TokenKind.PUNCT, char, self._span_from(start))
        raise LexerError(f"unexpected character {char!r}", self._point_span())
