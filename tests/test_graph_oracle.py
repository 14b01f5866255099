"""Differential oracle: the id-based propagation graph vs the object-keyed one.

:class:`repro.inference.graph.PropagationGraph` builds, condenses and
solves over dense integer variable ids.  ``tests/legacy_graph.py`` keeps
the object-keyed build it replaced.  On every generated system and every
registered lattice, with and without a shared
:class:`~repro.inference.graph.NormalisationCache`, both must agree
exactly: variables in discovery order, checks, every edge (lhs, target,
cover, provenance in order, sources), component order, cyclic flags,
least assignments, conflicts, unsat cores and leak-path witnesses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_graph import LegacyGraph, legacy_witness
from repro.analysis import witness_for_conflict
from repro.frontend.parser import parse_program
from repro.inference import (
    Constraint,
    ConstTerm,
    JoinTerm,
    MeetTerm,
    PropagationGraph,
    VarSupply,
    VarTerm,
    generate_constraints,
    join_terms,
)
from repro.inference.graph import NormalisationCache
from repro.lattice.chain import ChainLattice
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import (
    mega_constraint_system,
    random_straightline_program,
    scc_cycle_program,
)

LATTICE_NAMES = sorted(set(available_lattices()) | {"chain-3", "chain-5"})

#: Label spellings a synthetic program can use, lowest first.
_PROGRAM_LEVELS = {
    "two-point": ["low", "high"],
    "diamond": ["bot", "A", "top"],
    "policy-mini": ["P__R__t0", "Pads_analytics__Rpartner_store__t2"],
}


def _levels(lattice):
    if isinstance(lattice, ChainLattice):
        return list(lattice.levels)
    return _PROGRAM_LEVELS[lattice.name]


def assert_matches_legacy(lattice, constraints, *, overrides=None):
    """Build both graphs -- bare, and through a cache shared by two builds --
    and compare everything they expose."""
    legacy = LegacyGraph(lattice, constraints)
    cache = NormalisationCache(lattice)
    builds = [
        PropagationGraph(lattice, constraints),
        PropagationGraph(lattice, constraints, cache=cache),
        PropagationGraph(lattice, constraints, cache=cache),
    ]
    expected_assignment, expected_conflicts = legacy.solve(overrides)
    for graph in builds:
        assert graph.variables == legacy.variables
        assert graph.checks == legacy.checks
        assert len(graph.edges) == len(legacy.edges)
        for index, (lhs, target, cover, origins, sources) in enumerate(legacy.edges):
            edge = graph.edge(index)
            assert edge.lhs == lhs
            assert edge.target == target
            assert edge.cover == cover
            assert edge.constraints == origins
            assert edge.sources == sources
            assert graph.edge_origin(index) == origins[0]
        components = [
            tuple(graph.variables[vid] for vid in component)
            for component in graph.components
        ]
        assert components == legacy.components
        assert graph._cyclic == legacy.cyclic
        for var, comp_index in legacy.component_of.items():
            assert graph.component_of_var(var) == comp_index
        solution = graph.solve(overrides)
        assert solution.assignment == expected_assignment
        assert solution.conflicts == expected_conflicts
        for conflict in solution.conflicts:
            hops = witness_for_conflict(graph, solution.assignment, conflict).hops
            assert [(h.constraint, h.var, h.value) for h in hops] == legacy_witness(
                legacy, expected_assignment, conflict
            )
    return builds[0]


# ---------------------------------------------------------------------------
# generated constraint systems


@pytest.mark.parametrize("name", LATTICE_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_mega_constraint_systems(name, seed):
    lattice = get_lattice(name)
    constraints, tails = mega_constraint_system(
        600, lattice, seed=seed, chains=8, cycle_every=13
    )
    graph = assert_matches_legacy(lattice, constraints)
    assert graph.cyclic_component_count > 0
    assert_matches_legacy(lattice, constraints, overrides={tails[0]: lattice.top})


@pytest.mark.parametrize("name", LATTICE_NAMES)
def test_scc_cycle_programs(name):
    lattice = get_lattice(name)
    levels = _levels(lattice)
    source = scc_cycle_program(4, 3, source_level=levels[-1])
    generation = generate_constraints(parse_program(source), lattice)
    assert not generation.errors
    graph = assert_matches_legacy(lattice, generation.constraints)
    assert graph.cyclic_component_count == 4


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(LATTICE_NAMES),
)
def test_random_straightline_programs(seed, name):
    lattice = get_lattice(name)
    source = random_straightline_program(seed, statements=8, levels=_levels(lattice))
    generation = generate_constraints(parse_program(source), lattice)
    assert not generation.errors
    assert_matches_legacy(lattice, generation.constraints)


def _systems(draw, lattice, n_vars):
    """Random systems whose right-hand sides include joins and meets."""
    supply = VarSupply()
    variables = [supply.fresh(f"v{i}") for i in range(n_vars)]
    labels = list(lattice.labels())[:8]

    def atom():
        if draw(st.booleans()):
            return VarTerm(draw(st.sampled_from(variables)))
        return ConstTerm(draw(st.sampled_from(labels)))

    def term(max_parts=3):
        parts = [atom() for _ in range(draw(st.integers(1, max_parts)))]
        if len(parts) > 1 and draw(st.booleans()):
            return MeetTerm(tuple(parts))
        return join_terms(lattice, parts)

    constraints = []
    for _ in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(["var", "join", "meet", "check"]))
        lhs = term()
        if shape == "var":
            rhs = VarTerm(draw(st.sampled_from(variables)))
        elif shape == "join":
            rhs = JoinTerm(
                (VarTerm(draw(st.sampled_from(variables))), ConstTerm(draw(st.sampled_from(labels))))
            )
        elif shape == "meet":
            rhs = MeetTerm((term(2), VarTerm(draw(st.sampled_from(variables)))))
        else:
            rhs = ConstTerm(draw(st.sampled_from(labels)))
        rule = draw(st.sampled_from(["T-Assign", "T-TblDecl"]))
        constraints.append(Constraint(lhs, rhs, rule=rule))
        if draw(st.integers(0, 4)) == 0:
            constraints.append(constraints[draw(st.integers(0, len(constraints) - 1))])
    return variables, constraints


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_join_and_meet_right_hand_sides(data, name):
    lattice = get_lattice(name)
    variables, constraints = _systems(data.draw, lattice, n_vars=4)
    assert_matches_legacy(lattice, constraints)
    pinned = data.draw(st.sampled_from(variables))
    label = data.draw(st.sampled_from(list(lattice.labels())[:8]))
    assert_matches_legacy(lattice, constraints, overrides={pinned: label})


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_systems_merged_from_several_supplies(data, name):
    """Distinct variables sharing a uid (separate supplies) stay distinct."""
    lattice = get_lattice(name)
    _, first = _systems(data.draw, lattice, n_vars=3)
    _, second = _systems(data.draw, lattice, n_vars=3)
    assert_matches_legacy(lattice, first + second)


def test_merged_supplies_keep_uid_twins_apart():
    lattice = get_lattice("two-point")
    a, b = VarSupply().fresh("a"), VarSupply().fresh("b")
    assert a.uid == b.uid and a != b
    constraints = [
        Constraint(ConstTerm("high"), VarTerm(a)),
        Constraint(VarTerm(a), ConstTerm("low")),
        Constraint(ConstTerm("low"), VarTerm(b)),
        Constraint(VarTerm(b), VarTerm(a)),
    ]
    graph = assert_matches_legacy(lattice, constraints)
    assert graph.variables == [a, b]
    assert graph.id_of(a) == 0 and graph.id_of(b) == 1
    assert graph.cone_of([b]) == {a, b}
    solution = graph.solve()
    assert solution.value_of(a) == "high" and solution.value_of(b) == "low"
