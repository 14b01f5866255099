"""Property tests: the pre-solve reduction is an exact optimisation.

``solve(..., presolve=True)`` folds constant labels through singleton
acyclic components before the Kleene iteration starts
(:func:`repro.analysis.presolve.presolve_graph`).  The contract is
*exactness*: the least solution, the conflict set, and every unsat core
are identical to the unreduced solve -- only the amount of live work
changes.  Tested on random constraint systems (with failing checks) and
on synthetic programs across every registered lattice.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.presolve import presolve_graph
from repro.frontend.parser import parse_program
from repro.inference import (
    Constraint,
    ConstTerm,
    VarSupply,
    VarTerm,
    generate_constraints,
    infer_labels,
    join_terms,
    solve,
)
from repro.inference.graph import PropagationGraph
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import (
    chain_pipeline_program,
    deep_dataflow_program,
    random_straightline_program,
    scc_cycle_program,
)

LATTICE_NAMES = sorted(set(available_lattices()) | {"chain-3", "chain-5"})


def _systems_with_checks(draw, lattice, n_vars):
    """Random propagation constraints plus failing-prone check constraints."""
    supply = VarSupply()
    variables = [supply.fresh(f"v{i}") for i in range(n_vars)]
    labels = list(lattice.labels())

    def atom():
        if draw(st.booleans()):
            return VarTerm(draw(st.sampled_from(variables)))
        return ConstTerm(draw(st.sampled_from(labels)))

    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        lhs_atoms = [atom() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        lhs = join_terms(lattice, lhs_atoms)
        target = draw(st.sampled_from(variables))
        constraints.append(Constraint(lhs, VarTerm(target)))
    # Checks: upper bounds that the least solution may or may not violate.
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lhs_atoms = [atom() for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        lhs = join_terms(lattice, lhs_atoms)
        bound = draw(st.sampled_from(labels))
        constraints.append(Constraint(lhs, ConstTerm(bound)))
    return variables, constraints


def _conflict_key(conflict):
    return (
        str(conflict.constraint),
        str(conflict.observed),
        str(conflict.required),
        tuple(str(c) for c in conflict.core),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_presolve_preserves_solution_conflicts_and_cores(data, name):
    """solve(reduce(S)) == solve(S): assignment, conflicts, and cores."""
    lattice = get_lattice(name)
    variables, constraints = _systems_with_checks(data.draw, lattice, n_vars=5)
    plain = solve(lattice, constraints)
    reduced = solve(lattice, constraints, presolve=True)
    for var in variables:
        assert plain.value_of(var) == reduced.value_of(var)
    assert [_conflict_key(c) for c in plain.conflicts] == [
        _conflict_key(c) for c in reduced.conflicts
    ]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_presolve_reduction_is_sound_in_isolation(data, name):
    """Every value presolve resolves equals the final least solution's."""
    lattice = get_lattice(name)
    _, constraints = _systems_with_checks(data.draw, lattice, n_vars=5)
    graph = PropagationGraph(lattice, constraints)
    reduction = presolve_graph(graph)
    solution = graph.solve()
    for var, value in reduction.values.items():
        assert solution.value_of(var) == value


@pytest.mark.parametrize("seed", range(12))
def test_presolve_agrees_on_random_programs(seed):
    """End-to-end: identical verdicts and labels on synthetic programs."""
    lattice = get_lattice("two-point")
    source = random_straightline_program(seed, statements=10)
    program = parse_program(source)
    plain = infer_labels(program, lattice)
    reduced = infer_labels(program, lattice, presolve=True)
    assert plain.ok == reduced.ok
    assert [str(d) for d in plain.diagnostics] == [
        str(d) for d in reduced.diagnostics
    ]
    assert {
        (slot.hint, str(slot.label)) for slot in plain.inferred
    } == {(slot.hint, str(slot.label)) for slot in reduced.inferred}


@pytest.mark.parametrize(
    "source,lattice_name",
    [
        (deep_dataflow_program(40, chains=4), "two-point"),
        (deep_dataflow_program(30, chains=2, sink_level="low"), "two-point"),
        (chain_pipeline_program(["L0", "L1", "L2", "L3", "L4"], rounds=3), "chain-5"),
        (scc_cycle_program(6, 3), "two-point"),
    ],
    ids=["deep-chains", "deep-leaky", "chain-pipeline", "scc-rings"],
)
def test_presolve_agrees_on_structured_programs(source, lattice_name):
    lattice = get_lattice(lattice_name)
    program = parse_program(source)
    plain = infer_labels(program, lattice)
    reduced = infer_labels(program, lattice, presolve=True)
    assert plain.ok == reduced.ok
    assert [str(d) for d in plain.diagnostics] == [
        str(d) for d in reduced.diagnostics
    ]
    for slot_a, slot_b in zip(plain.inferred, reduced.inferred):
        assert slot_a.hint == slot_b.hint
        assert slot_a.label == slot_b.label


def test_presolve_reduces_live_work_on_deep_chains():
    """Acyclic def-use chains fold away entirely before iteration."""
    lattice = get_lattice("two-point")
    program = parse_program(deep_dataflow_program(50, chains=4))
    generation = generate_constraints(program, lattice)
    graph = PropagationGraph(lattice, generation.constraints)
    plain = graph.solve()
    reduced = graph.solve(presolve=True)
    assert reduced.stats.presolve_resolved_vars > 0
    assert reduced.stats.presolve_pruned_edges > 0
    assert reduced.stats.edges_visited < plain.stats.edges_visited
    for var, value in plain.assignment.items():
        assert reduced.value_of(var) == value


def test_presolve_skips_cyclic_components():
    """SCC rings cannot be folded; presolve must leave them to iteration."""
    lattice = get_lattice("two-point")
    program = parse_program(scc_cycle_program(4, 3))
    generation = generate_constraints(program, lattice)
    graph = PropagationGraph(lattice, generation.constraints)
    reduction = presolve_graph(graph)
    for comp_index in reduction.resolved_components:
        assert not graph._cyclic[comp_index]
    solution = graph.solve(presolve=True)
    assert solution.ok


def test_presolve_respects_overrides():
    """Pinned floors (the incremental solver's overrides) stay exact."""
    lattice = get_lattice("two-point")
    program = parse_program(deep_dataflow_program(10, chains=2))
    generation = generate_constraints(program, lattice)
    graph = PropagationGraph(lattice, generation.constraints)
    var = next(
        (graph.variables[ids[0]] for ids in graph.edge_sources if ids), None
    )
    if var is None:
        pytest.skip("no propagation edges in this system")
    overrides = {var: lattice.top}
    plain = graph.solve(overrides)
    reduced = graph.solve(overrides, presolve=True)
    assert dict(plain.assignment) == dict(reduced.assignment)
