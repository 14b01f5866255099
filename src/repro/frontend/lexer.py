"""Lexer for the annotated P4 dialect.

Produces a flat list of :class:`Token` objects with source spans.  All
context-sensitive decisions -- e.g. whether ``<`` opens a security
annotation or is a comparison -- are made by the parser.

One master regular expression does the scanning: each match is the trivia
(whitespace and comments) in front of a token plus the token itself, and
the name of the alternative that matched is the token's category.  Line
and column come from a line-start table (:func:`line_starts`), not from a
character-by-character walk, so :func:`scan` can start at any offset of a
text.  Lexing a whole file and re-lexing one edited region of it (see
:meth:`repro.workspace.session.Workspace.edit`) run the same function.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.frontend.errors import LexerError
from repro.syntax.source import Position, SourceSpan

#: Keywords of the dialect.  Identifiers are never allowed to shadow them.
KEYWORDS = frozenset(
    {
        "header",
        "struct",
        "typedef",
        "match_kind",
        "control",
        "action",
        "function",
        "table",
        "key",
        "actions",
        "apply",
        "if",
        "else",
        "exit",
        "return",
        "true",
        "false",
        "bit",
        "int",
        "bool",
        "void",
        "in",
        "out",
        "inout",
        "const",
    }
)


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    PUNCT = "punctuation"
    EOF = "end-of-file"


class Token(NamedTuple):
    """A single token: its kind, source text, value, and span."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: Optional[int] = None
    width: Optional[int] = None

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


#: Trivia, then exactly one token alternative.  Python's ``\w`` is
#: ``str.isalnum()`` plus ``_``, so word and number bodies follow the
#: dialect's rules exactly; a non-ASCII first character is classified in
#: :func:`scan` (``isalpha`` starts a word, ``isdigit`` a number).  The
#: last two alternatives always match, so the scan never backtracks: an
#: ``/*`` that reaches the ``comment`` alternative is unterminated (a
#: terminated one is trivia), and ``other`` is an unexpected character.
#: ``?`` only ever spells an ``infer`` annotation (``<bit<8>, ?>``); the
#: parser rejects it anywhere else.
_TOKEN_RE = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?: (?P<word>[A-Za-z_]\w*)
      | (?P<number>[0-9]\w*)
      | (?P<punct><< | >> | == | != | <= | >= | && | \|\|
                 | [{}()\[\]<>,;:.=+\-*%&|^~!@?] | /(?!\*))
      | (?P<unicode>[^\W\x00-\x7f]\w*)
      | (?P<comment>/\*)
      | (?P<other>.)
      | (?P<eof>\Z)
    )
    """,
    re.DOTALL | re.VERBOSE,
)
#: Group numbers of the alternatives; everything past ``_PUNCT`` is rare.
_WORD, _NUMBER, _PUNCT, _UNICODE, _COMMENT, _OTHER, _EOF = range(1, 8)

_NEWLINE = re.compile("\n")

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_INT = TokenKind.INT
_PUNCT_KIND = TokenKind.PUNCT

#: ``tuple.__new__`` builds a named tuple without its Python-level
#: ``__new__``; the scan below creates four tuples per token.
_new = tuple.__new__


def line_starts(source: str) -> List[int]:
    """The offset at which each line of ``source`` starts (1-based line
    ``n`` starts at ``line_starts(source)[n - 1]``)."""
    return [0, *[match.end() for match in _NEWLINE.finditer(source)]]


def position_at(lines: List[int], offset: int) -> Position:
    """The line/column :class:`Position` of ``offset``, given the text's
    :func:`line_starts` table."""
    line = bisect_right(lines, offset)
    return Position(line, offset - lines[line - 1] + 1)


def _literal_value(text: str, span: SourceSpan) -> Tuple[int, Optional[int]]:
    """The value and optional width of an integer literal's spelling."""
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


def scan(
    source: str,
    filename: str = "<input>",
    *,
    start: int = 0,
    stop: Optional[int] = None,
    lines: Optional[List[int]] = None,
) -> Optional[List[Token]]:
    """Lex ``source`` from offset ``start`` into tokens ending with EOF.

    ``start`` must lie between two tokens (or at offset 0).  Without
    ``stop`` the scan runs to the end of the text.  With ``stop`` it ends
    at that offset, which must be where the next token begins: the tokens
    before it are returned with an EOF token at ``stop``, and ``None`` is
    returned when a token or a comment runs across ``stop`` (or trivia
    ends past it).  ``lines`` is the text's :func:`line_starts` table,
    computed when not given.  Raises :class:`LexerError` on an
    unexpected character, an unterminated block comment, or a malformed
    literal.
    """
    if lines is None:
        lines = line_starts(source)
    limit = len(source) if stop is None else stop
    last_line = len(lines)
    line = bisect_right(lines, start)
    line_start = lines[line - 1]
    next_line = lines[line] if line < last_line else len(source) + 1
    literals: Dict[str, Tuple[int, Optional[int]]] = {}
    #: One string object per distinct spelling: the AST keeps them as names.
    texts: Dict[str, str] = {}
    tokens: List[Token] = []
    append = tokens.append
    prev_end = -1
    prev_position = None
    for match in _TOKEN_RE.finditer(source, start):
        group = match.lastindex
        begin, end = match.span(group)
        if end > limit:
            if begin != limit:
                return None
            group = _EOF
        if group > _PUNCT:
            if group == _UNICODE:
                head = source[begin]
                group = (
                    _WORD if head.isalpha() else _NUMBER if head.isdigit() else _OTHER
                )
            if group > _PUNCT:
                position = position_at(lines, begin)
                if group == _EOF:
                    span = SourceSpan(position, position, filename)
                    append(Token(TokenKind.EOF, "", span))
                    return tokens
                if group == _OTHER:
                    span = SourceSpan(position, position, filename)
                    raise LexerError(f"unexpected character {source[begin]!r}", span)
                span = SourceSpan(position, position_at(lines, len(source)), filename)
                raise LexerError("unterminated block comment", span)
        if begin >= next_line:
            line = bisect_right(lines, begin, line)
            line_start = lines[line - 1]
            next_line = lines[line] if line < last_line else len(source) + 1
        column = begin - line_start + 1
        position = (
            prev_position if begin == prev_end else _new(Position, (line, column))
        )
        prev_end = end
        prev_position = _new(Position, (line, column + end - begin))
        span = _new(SourceSpan, (position, prev_position, filename))
        text = source[begin:end]
        text = texts.setdefault(text, text)
        if group == _PUNCT:
            append(_new(Token, (_PUNCT_KIND, text, span, None, None)))
        elif group == _WORD:
            kind = _KEYWORD if text in KEYWORDS else _IDENT
            append(_new(Token, (kind, text, span, None, None)))
        else:
            literal = literals.get(text)
            if literal is None:
                literal = literals[text] = _literal_value(text, span)
            append(_new(Token, (_INT, text, span, literal[0], literal[1])))
    raise AssertionError("the token pattern always ends with an EOF match")


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Lex the whole of ``source`` into a token list ending with EOF."""
    return scan(source, filename)  # type: ignore[return-value]
