"""Robustness of the front end: malformed input must fail cleanly (with a
located FrontendError), never crash or hang, and valid programs produced by
the printer or the synthesiser must always be re-accepted."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.errors import FrontendError, ParserError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import MAX_NESTING, parse_expression, parse_program
from repro.syntax.source import Position, SourceSpan
from repro.synth import random_straightline_program
from repro.syntax.printer import pretty_print

printable_soup = st.text(
    alphabet=string.ascii_letters + string.digits + "{}()[]<>,;:.=+-*/%&|^~!@ \n\t",
    max_size=200,
)


@given(printable_soup)
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_token_soup(source):
    try:
        parse_program(source)
    except FrontendError as exc:
        assert exc.span is not None
        assert exc.message


@given(printable_soup)
@settings(max_examples=300, deadline=None)
def test_lexer_never_crashes(source):
    try:
        tokens = tokenize(source)
    except FrontendError:
        return
    assert tokens[-1].kind.name == "EOF"


@given(st.text(max_size=120))
@settings(max_examples=200, deadline=None)
def test_arbitrary_unicode_is_rejected_cleanly(source):
    try:
        parse_program(source)
    except FrontendError:
        pass


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=50, deadline=None)
def test_synthesised_programs_roundtrip_through_the_printer(seed):
    source = random_straightline_program(seed, statements=4)
    program = parse_program(source)
    printed = pretty_print(program)
    reparsed = parse_program(printed)
    assert pretty_print(reparsed) == printed  # printing is a fixed point


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=100)
def test_expression_parser_handles_generated_arithmetic(a, b):
    expr = parse_expression(f"(({a} + hdr.x) * {b}) - (hdr.y & {a})")
    assert expr.describe()


def test_deeply_nested_expressions_parse():
    # ~10 recursive precedence levels per parenthesis pair; 60 pairs stays
    # comfortably inside CPython's default recursion limit.
    depth = 60
    source = "(" * depth + "x" + ")" * depth
    expr = parse_expression(source)
    assert expr.describe() == "x"


def _in_apply(statement: str) -> str:
    return (
        "header h_t { bit<8> a; } struct headers { h_t h; }\n"
        "control C(inout headers hdr) { apply {\n" + statement + "\n} }"
    )


def test_pathologically_nested_expressions_are_a_parse_error():
    # 5,000 parentheses would exhaust the interpreter's stack in a
    # recursive-descent parser; the nesting limit reports a located
    # diagnostic at the opening parenthesis that crosses it instead.
    depth = 5_000
    with pytest.raises(ParserError) as excinfo:
        parse_expression("(" * depth + "x" + ")" * depth, filename="deep.p4")
    assert excinfo.value.message == "expression nested too deeply"
    # The span of the parenthesis that opens level MAX_NESTING + 1.
    assert excinfo.value.span == SourceSpan(
        Position(1, MAX_NESTING + 1), Position(1, MAX_NESTING + 2), "deep.p4"
    )


@pytest.mark.parametrize(
    "statement, message",
    [
        ("hdr.h.a = " + "(" * 5_000 + "1" + ")" * 5_000 + ";", "expression nested too deeply"),
        ("hdr.h.a = " + "-" * 5_000 + "1;", "expression nested too deeply"),
        ("hdr.h.a = " + "f(" * 5_000 + ")" * 5_000 + ";", "expression nested too deeply"),
        ("hdr.h.a = x" + "[x" * 5_000 + "]" * 5_000 + ";", "expression nested too deeply"),
        ("hdr.h.a = " + "{f = " * 5_000 + "1" + "}" * 5_000 + ";", "expression nested too deeply"),
        ("hdr.h.a = " + " + ".join(["1"] * 5_000) + ";", "expression nested too deeply"),
        ("{" * 5_000 + "}" * 5_000, "statement nested too deeply"),
        ("if (true) {} " + "else if (true) {} " * 5_000, "statement nested too deeply"),
    ],
    ids=["parens", "unary", "calls", "indices", "records", "chain", "blocks", "else-if"],
)
def test_every_recursive_construct_is_bounded(statement, message):
    with pytest.raises(ParserError) as excinfo:
        parse_program(_in_apply(statement))
    assert excinfo.value.message == message
    assert excinfo.value.span.start.line == 3


def test_nesting_at_the_limit_still_parses():
    inner = "(" * (MAX_NESTING - 1) + "hdr.h.a" + ")" * (MAX_NESTING - 1)
    program = parse_program(_in_apply(f"hdr.h.a = {inner};"))
    assert program.controls[0].apply_block.statements


def test_long_field_chains():
    chain = "hdr" + ".f" * 300
    expr = parse_expression(chain)
    assert expr.describe() == chain


def test_very_long_statement_sequences_parse():
    body = "\n".join(f"        hdr.h.a = {i};" for i in range(2_000))
    source = (
        "header h_t { bit<32> a; } struct headers { h_t h; }\n"
        "control C(inout headers hdr) { apply {\n" + body + "\n} }"
    )
    program = parse_program(source)
    assert len(program.controls[0].apply_block.statements) == 2_000
