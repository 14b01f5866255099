"""Source positions and spans for diagnostics.

Every AST node carries an optional :class:`SourceSpan` so that both the
ordinary type checker and the IFC checker can report errors at the precise
location of the offending expression, mirroring how P4BID extends p4c's
diagnostics.

Both are immutable named tuples rather than frozen dataclasses: the lexer
builds two positions and a span for every token, and a tuple costs a
fraction of a frozen dataclass's ``__init__`` to construct.  Equality and
hashing are field-wise, exactly as before; a position also orders as its
``(line, column)`` pair.
"""

from __future__ import annotations

from typing import NamedTuple


class Position(NamedTuple):
    """A 1-based line/column position in a source file."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class SourceSpan(NamedTuple):
    """A half-open region of source text, with an optional file name."""

    start: Position
    end: Position
    filename: str = "<input>"

    @classmethod
    def unknown(cls) -> "SourceSpan":
        """A placeholder span for synthesised nodes (tests, builders).

        Spans are immutable, so every placeholder is one shared object:
        synthesised constraint systems carry tens of thousands of them.
        """
        return _UNKNOWN

    @classmethod
    def point(cls, line: int, column: int, filename: str = "<input>") -> "SourceSpan":
        """A zero-width span at a single position."""
        position = Position(line, column)
        return cls(position, position, filename)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """The smallest span covering both ``self`` and ``other``."""
        if self.start.line == 0:
            return other
        if other.start.line == 0:
            return self
        return SourceSpan(
            min(self.start, other.start), max(self.end, other.end), self.filename
        )

    def is_unknown(self) -> bool:
        return self.start.line == 0

    def __str__(self) -> str:
        if self.start.line == 0:
            return "<unknown>"
        return f"{self.filename}:{self.start}"


_UNKNOWN = SourceSpan(Position(0, 0), Position(0, 0), "<synthesised>")
