"""The master-regex lexer against the character-at-a-time oracle.

:func:`repro.frontend.lexer.tokenize` must produce exactly the token list
of the lexer it replaced (kept in ``tests/legacy_lexer.py``) -- kinds,
texts, values, widths and spans -- or raise a :class:`LexerError` with an
identical message and span.  A region scan (``scan`` with ``start`` and
``stop``) must agree with the whole-text scan on the tokens in between.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from legacy_lexer import Lexer
from repro import synth
from repro.casestudies import all_case_studies
from repro.frontend.errors import LexerError
from repro.frontend.lexer import TokenKind, line_starts, position_at, scan, tokenize
from repro.syntax.source import SourceSpan


def outcome(lex, source: str, filename: str):
    """Tokens, or the error's message and span, as comparable data."""
    try:
        return "tokens", lex(source, filename)
    except LexerError as exc:
        return "error", exc.message, exc.span


def new_lexer(source: str, filename: str):
    return tokenize(source, filename)


def old_lexer(source: str, filename: str):
    return Lexer(source, filename).tokenize()


def assert_same(source: str, filename: str = "f.p4") -> None:
    assert outcome(new_lexer, source, filename) == outcome(old_lexer, source, filename)


#: Characters that stress every lexical rule: trivia, comment openers,
#: operator prefixes, literal suffixes, and non-ASCII characters on each
#: side of the ``isalpha``/``isdigit``/``isalnum`` lines (``²`` is a digit
#: but not a decimal, ``½`` numeric but not a digit, ``٣`` an Arabic-Indic
#: decimal, ``\xa0`` whitespace the dialect does not accept).
TRICKY = "ab_xwX09 \t\r\n/*{}()[]<>=!&|^~%+-.,;:@?$#\"'²½٣éǅ\xa0\x00"

SOURCES = [
    synth.sharded_dataflow_program(3, depth=3),
    synth.scc_cycle_program(4, 3, width=8),
    synth.wide_table_program(tables=3, actions_per_table=2, secure=True, seed=7),
    synth.random_straightline_program(11, statements=20),
] + [case.secure_source for case in all_case_studies()]


@given(st.text(alphabet=TRICKY, max_size=60))
@settings(max_examples=400, deadline=None)
def test_random_text_lexes_identically(source):
    assert_same(source)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_arbitrary_unicode_lexes_identically(source):
    assert_same(source)


@given(
    st.sampled_from(SOURCES),
    st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.integers(min_value=0, max_value=6),
            st.text(alphabet=TRICKY, max_size=4),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_mutated_programs_lex_identically(source, edits):
    for at, cut, insert in edits:
        at %= len(source) + 1
        source = source[:at] + insert + source[at + cut :]
    assert_same(source, "mutated.p4")


@pytest.mark.parametrize(
    "source",
    [
        "",
        "   \n\t ",
        "/* never closed",
        "a\n/* never\nclosed",
        "x $ y",
        "8wxyz",
        "²",
        "²w5",
        "½",
        "a½b",
        "٣",
        "1٣",
        "\xa0",
        "/*/",
        "a//b\nc",
        "<<=",
        "x\r\ny",
        "0xFFw",
        "8w",
        "32w0xFF",
        "1_000",
        "a\x00",
        "/**/x/***/",
    ],
)
def test_edge_cases_lex_identically(source):
    assert_same(source)


def test_errors_carry_the_oracle_messages():
    with pytest.raises(LexerError) as unexpected:
        tokenize("a\n  $", "f.p4")
    assert unexpected.value.message == "unexpected character '$'"
    assert unexpected.value.span == SourceSpan.point(2, 3, "f.p4")
    with pytest.raises(LexerError) as comment:
        tokenize("a /* x\ny", "f.p4")
    assert comment.value.message == "unterminated block comment"
    assert str(comment.value.span) == "f.p4:1:3"
    assert comment.value.span.end == position_at(line_starts("a /* x\ny"), 8)
    with pytest.raises(LexerError) as literal:
        tokenize("x = 8wq;", "f.p4")
    assert literal.value.message == "malformed literal '8wq'"


@pytest.mark.parametrize("source", SOURCES[:4])
def test_region_scans_agree_with_the_whole_scan(source):
    """Scanning from any token boundary up to any later token start gives
    the whole scan's tokens in between, then EOF at the boundary."""
    whole = tokenize(source, "f.p4")
    lines = line_starts(source)

    def offset(position):
        return lines[position.line - 1] + position.column - 1

    step = max(1, len(whole) // 12)
    for first in range(0, len(whole) - 1, step):
        start = offset(whole[first - 1].span.end) if first else 0
        for last in range(first, len(whole) - 1, step):
            stop = offset(whole[last].span.start)
            region = scan(source, "f.p4", start=start, stop=stop, lines=lines)
            assert region is not None
            assert region[:-1] == whole[first:last]
            assert region[-1].kind is TokenKind.EOF
            assert region[-1].span.start == whole[last].span.start
        assert scan(source, "f.p4", start=start, lines=lines) == whole[first:]


def test_region_scan_refuses_a_boundary_inside_a_token_or_comment():
    source = "abc def /* note */ ghi"
    assert scan(source, start=0, stop=5) is None  # inside ``def``
    assert scan(source, start=0, stop=10) is None  # inside the comment
    assert scan(source, start=0, stop=7) is None  # trivia runs past it
    tokens = scan(source, start=0, stop=19)
    assert [t.text for t in tokens] == ["abc", "def", ""]
