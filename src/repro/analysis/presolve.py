"""Constant-label pre-solve reduction over the propagation graph.

Most label variables in a realistic system are *trivially fixed*: their
value is forced entirely by constants and by other already-fixed variables,
through acyclic (singleton-SCC) regions of the propagation graph.  Kleene
iteration still schedules every such component, seeds every in-edge and
joins bottom onto bottom, which at 10k-constraint scale is most of the
solver's work.

:func:`presolve_graph` folds that region away up front.  It walks the
graph's SCC condensation in topological order and *resolves* every
singleton acyclic component whose in-edges draw only on already-resolved
variables: the variable's least value is computed directly (the join of its
in-edge values above its override floor, with join covers honoured), the
component is marked to be skipped by the schedule, and its in-edges are
counted as pruned.  Cyclic components -- and anything downstream of one --
are left for the normal Kleene iteration.

The reduction is *exact* by construction: the value computed for a resolved
variable is precisely the value the full schedule would converge to
(induction over topological order), the graph structure itself is never
mutated, and the checks and unsat-core slicing run over the same edges and
the same final assignment.  Least solutions, conflict sets and cores are
therefore preserved bit-for-bit; the property tests in
``tests/test_analysis_presolve.py`` pin this across every registered
lattice.  What changes is :class:`~repro.inference.graph.SolverStats`:
``edges_visited`` / ``worklist_pops`` drop by the pruned region and the
``presolve_*`` fields record what was folded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set

from repro.inference.terms import LabelVar
from repro.lattice.base import Label

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.inference.graph import PropagationGraph, SolverStats


@dataclass
class PresolveReduction:
    """Outcome of the constant-label reduction on one propagation graph.

    ``by_id`` holds the exact least-solution value of every resolved
    variable, keyed by its graph id (``values`` spells the same keyed by
    variable); ``resolved_components`` are the component indices the
    SCC schedule may skip; ``pruned_edges`` counts the in-edges of those
    components (the edges Kleene iteration never has to evaluate).
    """

    variables: Sequence[LabelVar] = ()
    by_id: Dict[int, Label] = field(default_factory=dict)
    resolved_components: Set[int] = field(default_factory=set)
    pruned_edges: int = 0
    elapsed_ms: float = 0.0

    @property
    def values(self) -> Dict[LabelVar, Label]:
        return {self.variables[vid]: label for vid, label in self.by_id.items()}

    @property
    def resolved_count(self) -> int:
        return len(self.by_id)

    def apply(self, values: List[Label], stats: "SolverStats") -> None:
        """Seed the resolved values into ``values`` (by id), record stats."""
        for vid, label in self.by_id.items():
            values[vid] = label
        stats.presolve_resolved_vars = len(self.by_id)
        stats.presolve_pruned_edges = self.pruned_edges
        stats.presolve_ms = self.elapsed_ms


def presolve_graph(
    graph: "PropagationGraph",
    overrides: Optional[Mapping[LabelVar, Label]] = None,
) -> PresolveReduction:
    """Resolve the constant-reachable acyclic region of ``graph``.

    ``overrides`` are the same floors a subsequent
    :meth:`~repro.inference.graph.PropagationGraph.solve` would start
    from; resolved values sit above them exactly as the full solve's
    would.
    """
    start = time.perf_counter()
    lattice = graph.lattice
    # Working values: floors for everything, exact values once resolved.
    # Only edges whose sources are all resolved are ever evaluated, so the
    # unresolved floors are never read through an edge.
    values = graph.fresh_assignment(overrides)
    edges_into = graph.edges_into
    edge_sources = graph.edge_sources
    edge_cover = graph.edge_cover
    reduction = PresolveReduction(graph.variables)
    resolved = [False] * len(values)
    for comp_index, component in enumerate(graph.components):
        if graph._cyclic[comp_index]:
            continue
        vid = component[0]
        in_edges = edges_into[vid]
        if not all(
            resolved[src] for index in in_edges for src in edge_sources[index]
        ):
            continue  # fed (transitively) by a cycle: leave to the schedule
        value = values[vid]
        for index in in_edges:
            flowed = graph.edge_value(index, values)
            cover = edge_cover[index]
            if cover is not None and lattice.leq(flowed, cover):
                continue  # the join's constant part absorbs the flow
            value = lattice.join(value, flowed)
        values[vid] = value
        resolved[vid] = True
        reduction.by_id[vid] = value
        reduction.resolved_components.add(comp_index)
        reduction.pruned_edges += len(in_edges)
    reduction.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return reduction
