"""Parses that remember where each top-level unit's text lies.

A :class:`ParsedSource` is one parsed revision of a file: the text, its
line-start table, and every top-level unit (a named declaration or a
control block) with the offsets of its first and last token.
:func:`reparse` parses the next revision of that text by re-lexing and
re-parsing only the region between the common prefix and the common
suffix of the two texts.  Every other unit keeps its AST node *object*,
so a consumer that caches per-node work (see
:mod:`repro.workspace.diff`) recognises it by identity.

A unit is spliced in only when a full parse of the new text would build
it byte-for-byte, positions included:

* a leading unit is kept when its text and the character after it lie in
  the common prefix (the character after decides where its last token
  ends);
* trailing units are kept when their text lies in the common suffix and
  the first of them starts at the same line and column as before (every
  later position then matches too); when lines moved, the region runs to
  the end of the text and those units are parsed afresh;
* the region is lexed from the end of the last kept leading unit and
  must reach the first kept trailing unit exactly at a token boundary
  (:func:`repro.frontend.lexer.scan` with ``stop``), and the parser must
  turn it into whole units.

When any of this fails -- a comment or a token runs across the boundary,
the region does not parse, the file name changed -- :func:`reparse` falls
back to :func:`parse_source`, the full parse, so error messages and spans
are exactly those of a cold parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.frontend.errors import FrontendError
from repro.frontend.lexer import Token, line_starts, position_at, scan
from repro.frontend.parser import Parser, Unit, build_program
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.telemetry.recorder import current_recorder


class UnitExtent(NamedTuple):
    """One top-level unit and where its text lies."""

    #: Offset of the unit's first token (a leading ``@pc(...)`` included).
    start: int
    #: Offset just past the unit's last token.
    end: int
    node: Unit


@dataclass
class ParsedSource:
    """One parsed revision of a file."""

    source: str
    filename: str
    #: :func:`repro.frontend.lexer.line_starts` of ``source``.
    lines: List[int]
    #: The top-level units, in source order.
    units: List[UnitExtent]

    def program(self, name: str) -> Program:
        """The :class:`Program` a full parse of ``source`` builds."""
        first = self.units[0].start if self.units else len(self.source)
        span = SourceSpan(
            position_at(self.lines, first),
            position_at(self.lines, len(self.source)),
            self.filename,
        )
        return build_program([unit.node for unit in self.units], span, name)

    def replace_nodes(self, replacements: dict) -> None:
        """Swap unit nodes, keyed by ``id`` of the node they replace (a
        consumer that keeps an equal node of its own hands it back, so
        the next revision splices that one in)."""
        self.units = [
            unit._replace(node=replacements.get(id(unit.node), unit.node))
            for unit in self.units
        ]


def parse_source(source: str, filename: str = "<input>") -> ParsedSource:
    """Lex and parse the whole of ``source``; raises
    :class:`~repro.frontend.errors.FrontendError` when it is malformed."""
    recorder = current_recorder()
    lines = line_starts(source)
    with recorder.span("frontend.lex"):
        tokens = scan(source, filename, lines=lines)
    with recorder.span("frontend.parse"):
        units = Parser(tokens, filename).parse_units()
    return ParsedSource(source, filename, lines, _extents(units, tokens, lines))


def reparse(previous: ParsedSource, source: str, filename: str) -> ParsedSource:
    """Parse ``source``, the next revision of ``previous.source``, reusing
    the units of ``previous`` that the edit did not touch (see the module
    docstring); falls back to :func:`parse_source`."""
    old = previous.source
    if filename != previous.filename:
        return parse_source(source, filename)
    if source == old:
        return ParsedSource(source, filename, previous.lines, list(previous.units))
    prefix = _common_prefix(old, source)
    suffix = _common_suffix(old, source, min(len(old), len(source)) - prefix)
    units = previous.units
    head = 0
    while head < len(units) and units[head].end < prefix:
        head += 1
    tail = len(units)
    while tail > head and units[tail - 1].start >= len(old) - suffix:
        tail -= 1
    shift = len(source) - len(old)
    lines = line_starts(source)
    stop: Optional[int] = None
    if tail < len(units):
        stop = units[tail].start + shift
        if position_at(lines, stop) != position_at(previous.lines, units[tail].start):
            tail, stop = len(units), None
    start = units[head - 1].end if head else 0

    recorder = current_recorder()
    region: Optional[List[Tuple[Unit, int, int]]] = None
    try:
        with recorder.span("frontend.lex"):
            tokens = scan(source, filename, start=start, stop=stop, lines=lines)
        if tokens is not None:
            with recorder.span("frontend.parse"):
                region = Parser(tokens, filename).parse_units()
    except FrontendError:
        region = None
    if region is None:
        return parse_source(source, filename)
    middle = _extents(region, tokens, lines)
    spliced = [
        *units[:head],
        *middle,
        *(UnitExtent(u.start + shift, u.end + shift, u.node) for u in units[tail:]),
    ]
    return ParsedSource(source, filename, lines, spliced)


def _extents(
    units: List[Tuple[Unit, int, int]], tokens: List[Token], lines: List[int]
) -> List[UnitExtent]:
    extents = []
    for node, first, end in units:
        begin = tokens[first].span.start
        finish = tokens[end - 1].span.end
        extents.append(
            UnitExtent(
                lines[begin.line - 1] + begin.column - 1,
                lines[finish.line - 1] + finish.column - 1,
                node,
            )
        )
    return extents


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by bisection over slices (each
    comparison is one C-level memory compare)."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n  # a[:lo] == b[:lo] and a[:hi] != b[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _common_suffix(a: str, b: str, limit: int) -> int:
    """Length of the longest common suffix, at most ``limit``."""
    la, lb = len(a), len(b)
    if a[la - limit :] == b[lb - limit :]:
        return limit
    lo, hi = 0, limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[la - mid : la - lo] == b[lb - mid : lb - lo]:
            lo = mid
        else:
            hi = mid
    return lo
