"""Spliced parses must be indistinguishable from full parses.

:meth:`Workspace.edit` re-lexes and re-parses only the region between the
common prefix and suffix of two revisions, keeping every other top-level
unit's AST node (:mod:`repro.frontend.incremental`).  That is only sound if
the program it assembles is *equal* to what a full parse of the new text
builds -- spans included -- and if it fails exactly like a full parse when
the new text does not parse.  These tests hold it to that after every
edit of hypothesis-driven edit scripts and of named edge cases, both right
after the edit and after a re-check (which swaps in the workspace's cached
nodes), and compare the re-check's verdict with a cold check.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import synth
from repro.casestudies import all_case_studies
from repro.frontend.errors import FrontendError
from repro.frontend.parser import parse_program
from repro.lattice.registry import get_lattice
from repro.tool.pipeline import check_source
from repro.workspace import Workspace

BASE = """\
// A small program with one unit of every top-level kind.
match_kind { exact, ternary }

typedef bit<8> byte_t;

header meta_t {
    <bit<8>, high> secret;
    byte_t open;
}

struct headers {
    meta_t meta;
}

  byte_t spare;

const bit<8> LIMIT = 8w200;

control Ingress(inout headers hdr) {
    action tag(bit<8> v) {
        hdr.meta.open = v;
    }
    table lookup {
        key = { hdr.meta.open: exact; }
        actions = { tag; }
    }
    apply {
        if (hdr.meta.open < LIMIT) {
            lookup.apply();
        }
    }
}

@pc(high)
control Audit(inout headers hdr) {
    apply {
        hdr.meta.secret = hdr.meta.secret + 1;
    }
}
"""

BASE_UNITS = 8


def assert_like_full_parse(workspace: Workspace, source: str, filename: str, lattice: str):
    """The workspace's revision equals a full parse of ``source`` (or
    failed with the same error), before and after a re-check, and the
    re-check's verdict equals a cold check's."""
    try:
        expected = parse_program(source, filename)
    except FrontendError as exc:
        assert workspace.program is None
        assert workspace.parse_error == str(exc)
        return None
    assert workspace.parse_error is None
    assert workspace.program == expected
    report = workspace.check(infer=True)
    assert workspace.program == expected
    cold = check_source(source, lattice, infer=True, filename=filename)
    assert report.ok == cold.ok
    assert [str(d) for d in report.diagnostics] == [str(d) for d in cold.diagnostics]
    return report


def run_script(base: str, revisions, *, lattice: str = "two-point", filename="prog.p4"):
    workspace = Workspace(get_lattice(lattice))
    workspace.open(base, filename=filename)
    assert_like_full_parse(workspace, base, filename, lattice)
    for source in revisions:
        workspace.edit(source)
        assert_like_full_parse(workspace, source, filename, lattice)
    return workspace


# ---------------------------------------------------------------- named cases

NAMED_SCRIPTS = {
    "line comment before a kept unit": [
        BASE.replace("struct headers {", "//struct headers {"),
        BASE,
    ],
    "line comment ending the previous unit's line": [
        BASE.replace("byte_t open;\n}\n", "byte_t open;\n} // done\n"),
    ],
    "unterminated block comment before a kept unit": [
        BASE.replace("const bit<8>", "/* const bit<8>"),
        BASE,
    ],
    "block comment around a kept unit": [
        BASE.replace("  byte_t spare;", "/* byte_t spare; */"),
        BASE,
    ],
    "identifiers joined across a unit boundary": [
        BASE.replace("\n  byte_t spare;", "\nmybyte_t spare;"),
        BASE,
    ],
    "semicolon after a kept header": [
        BASE.replace("byte_t open;\n}\n\n", "byte_t open;\n}\n;\n"),
        BASE,
    ],
    "deleted closing brace of a control": [
        BASE.replace("    }\n}\n\n@pc", "    }\n\n\n@pc"),
        BASE,
    ],
    "deleted closing brace of a block": [
        BASE.replace("lookup.apply();\n        }", "lookup.apply();\n        "),
        BASE,
    ],
    "edited @pc annotation": [
        BASE.replace("@pc(high)", "@pc(low)"),
        BASE.replace("@pc(high)\n", ""),
        BASE.replace("control Ingress", "@pc(low) control Ingress"),
        BASE.replace("@pc(high)", "@pc(high"),
        BASE,
    ],
    "whitespace-only edits": [
        BASE.replace("    byte_t open;", "\tbyte_t open;"),
        BASE.replace("    byte_t open;", "\tbyte_t open;") + "   \n\n",
        BASE.replace("struct headers", "\n\nstruct headers"),
        BASE,
    ],
    "comment-only edits": [
        BASE.replace("hdr.meta.open = v;", "hdr.meta.open = v; // tag it"),
        BASE.replace("LIMIT = 8w200;", "LIMIT = /* cap */ 8w200;"),
        BASE.replace("// A small program", "/* A small\n program */ //"),
        BASE,
    ],
    "line inserted at the top": ["// a new first line\n" + BASE, BASE],
    "parse failure followed by a fix": [
        "header broken {{{",
        BASE.replace("<bit<8>, high> secret", "<bit<8>, low> secret"),
        BASE.replace("8w200", "8wzz"),
        BASE,
    ],
    "unit deleted and restored": [
        BASE.replace("typedef bit<8> byte_t;\n", ""),
        BASE,
    ],
    "unit inserted between kept units": [
        BASE.replace("const bit<8>", "header extra_t {\n    bit<8> f;\n}\nconst bit<8>"),
        BASE,
    ],
}


@pytest.mark.parametrize("name", sorted(NAMED_SCRIPTS))
def test_named_edit_scripts_match_full_parses(name):
    run_script(BASE, NAMED_SCRIPTS[name])


def test_an_edit_inside_one_unit_reparses_only_that_unit():
    workspace = run_script(
        BASE, [BASE.replace("<bit<8>, high> secret", "<bit<8>, low> secret")]
    )
    regen = workspace.stats()["regen"]
    assert regen["units_total"] == BASE_UNITS
    assert regen["units_spliced"] == BASE_UNITS - 1
    assert regen["units_reparsed"] == 1


def test_an_edit_that_moves_lines_reparses_the_units_after_it():
    # The comment adds a line inside the header, so every later unit
    # starts on a new line: those are parsed afresh (and re-spanned onto
    # the cached nodes); only the units before the header are spliced.
    workspace = run_script(
        BASE, [BASE.replace("byte_t open;", "byte_t open;\n    // moved")]
    )
    regen = workspace.stats()["regen"]
    assert regen["units_spliced"] == 2
    assert regen["units_reparsed"] == BASE_UNITS - 2


def test_duplicate_units_keep_their_own_cached_nodes():
    # Two identical units, the first spliced in by identity and the second
    # re-parsed because the edit moved its lines: the re-parsed twin must
    # claim the second cached state, never re-span the first twin's node.
    twins = BASE.replace("const bit<8>", "bit<8> twin;\nconst bit<8>") + "bit<8> twin;\n"
    run_script(twins, [twins.replace("lookup.apply();", "lookup.apply();\n")])


def test_a_filename_change_through_open_reparses_everything():
    edited = BASE.replace("@pc(high)", "@pc(low)")
    workspace = Workspace()
    assert workspace.open(BASE, filename="a.p4")
    workspace.check(infer=True)
    assert workspace.open(edited, filename="b.p4")
    assert_like_full_parse(workspace, edited, "b.p4", "two-point")
    assert workspace.edit(BASE)
    assert_like_full_parse(workspace, BASE, "b.p4", "two-point")


def test_repeated_edits_without_a_recheck_in_between():
    workspace = Workspace()
    assert workspace.open(BASE, filename="prog.p4")
    workspace.check(infer=True)
    first = "// top\n" + BASE
    second = first.replace("@pc(high)", "@pc(low)")
    assert workspace.edit(first)
    assert workspace.edit(second)
    assert_like_full_parse(workspace, second, "prog.p4", "two-point")


# ---------------------------------------------------------------- edit scripts

CASES = {case.name: case for case in all_case_studies()}

#: (source, lattice) pairs the scripts start from.
BASES = [
    (BASE, "two-point"),
    (synth.sharded_dataflow_program(3, depth=3), "two-point"),
    (synth.wide_table_program(tables=3, actions_per_table=2, secure=True, seed=5), "two-point"),
    (synth.random_straightline_program(3, statements=12), "two-point"),
] + [(case.secure_source, case.lattice_name) for case in CASES.values()]

SNIPPETS = [
    "",
    " ",
    "\n",
    "\t",
    "// note\n",
    "/* note */",
    "/*",
    "//",
    "}",
    "{",
    ";",
    "x",
    "high",
    "low",
    "@pc(high)\n",
    "header extra_t {\n    bit<8> f;\n}\n",
    "bit<8> spare;\n",
]

edit_steps = st.lists(
    st.tuples(
        st.booleans(),  # at a line start (a unit boundary, often) or anywhere
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(SNIPPETS),
    ),
    min_size=1,
    max_size=5,
)


def apply_step(source: str, step) -> str:
    at_line_start, where, cut, insert = step
    if at_line_start:
        starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
        at = starts[where % len(starts)]
    else:
        at = where % (len(source) + 1)
    return source[:at] + insert + source[at + cut :]


@given(st.integers(min_value=0, max_value=len(BASES) - 1), edit_steps)
@settings(max_examples=60, deadline=None)
def test_edit_scripts_match_full_parses(which, steps):
    base, lattice = BASES[which]
    revisions = []
    source = base
    for step in steps:
        source = apply_step(source, step)
        revisions.append(source)
    run_script(base, revisions, lattice=lattice)


@given(st.sampled_from(sorted(CASES)), st.booleans())
@settings(max_examples=12, deadline=None)
def test_case_study_revisions_match_full_parses(name, back_and_forth):
    case = CASES[name]
    if not case.insecure_source:
        return
    revisions = [case.insecure_source]
    if back_and_forth:
        revisions += [case.secure_source, case.insecure_source]
    run_script(case.secure_source, revisions, lattice=case.lattice_name)
