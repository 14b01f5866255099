"""Leak-path witnesses: the shortest provenance chain behind a conflict.

An unsat core (:meth:`repro.inference.graph.PropagationGraph.unsat_core`)
is the *complete* backward slice of a failing check -- every constraint
that helped push the offending label above its bound.  That is the right
artefact for minimisation but a poor explanation: at case-study size a
core routinely names a dozen constraints with no order a reader can
follow.

A :class:`LeakWitness` is the complementary artefact: one *shortest* chain
of propagation hops from a source (an edge whose high label is introduced
by constants alone -- an annotation, a literal's context, a pinned slot)
down to the failing ``require_leq`` obligation.  It is computed by a
breadth-first walk backwards over the deduplicated propagation graph,
restricted to edges that actually carried the offending label (evaluated
value above the check's bound, join covers honoured), so every hop is a
step the leak really takes and carries the source span of the constraint
that induced it.

``witnesses_for_solution`` builds one witness per conflict and orders the
conflicts by witness length -- shortest explanation first -- which is the
order ``p4bid`` reports them in (the CDCL-lifting line of work motivates
ranking conflict evidence by explanatory size).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.inference.constraints import Constraint
from repro.inference.solve import InferenceConflict, Solution
from repro.inference.terms import LabelVar, evaluate, free_vars
from repro.lattice.base import Label, Lattice
from repro.syntax.source import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.inference.graph import PropagationGraph


@dataclass(frozen=True)
class WitnessHop:
    """One step of a leak path.

    ``var`` is the variable this hop raised above the bound (``None`` for
    the final hop, which is the failing check itself); ``value`` is the
    label the hop carried under the least solution.
    """

    constraint: Constraint
    var: Optional[LabelVar]
    value: Label

    @property
    def span(self) -> SourceSpan:
        return self.constraint.span

    def describe(self, lattice: Lattice) -> str:
        carried = lattice.format_label(self.value)
        where = "" if self.span.is_unknown() else f" at {self.span}"
        if self.var is None:
            return f"fails the check {self.constraint.describe()}{where}"
        return (
            f"raises {self.var.hint} to {carried}{where} "
            f"({self.constraint.reason or self.constraint.rule})"
        )


@dataclass(frozen=True)
class LeakWitness:
    """The shortest source→sink provenance chain behind one conflict."""

    conflict: InferenceConflict
    #: Source-first, sink-last; the final hop is the failing check.
    hops: Tuple[WitnessHop, ...]

    @property
    def length(self) -> int:
        return len(self.hops)

    def describe(self, lattice: Lattice) -> str:
        header = (
            f"leak path ({self.length} hop(s)): "
            f"{lattice.format_label(self.conflict.observed)} reaches a sink "
            f"bounded by {lattice.format_label(self.conflict.required)}"
        )
        lines = [header]
        for index, hop in enumerate(self.hops):
            lines.append(f"  {index + 1}. {hop.describe(lattice)}")
        return "\n".join(lines)


def _provenance(graph: "PropagationGraph", index: int) -> Constraint:
    """The constraint to show for edge ``index``: prefer one with a real span."""
    for constraint in graph.edge_constraints(index):
        if not constraint.span.is_unknown():
            return constraint
    return graph.edge_origin(index)


def witness_for_conflict(
    graph: "PropagationGraph",
    assignment: Dict[LabelVar, Label],
    conflict: InferenceConflict,
) -> LeakWitness:
    """Shortest leak path for ``conflict`` over the solved ``graph``.

    Breadth-first from the variables of the failing check backwards along
    the in-edges that carried the offending label; the first edge found
    whose own high label comes from constants alone (no source variable
    above the bound) is the nearest *source*, and the BFS parent pointers
    reconstruct the chain down to the check.  When the failing check
    involves no variables (a constant obligation, e.g. ``pc_fn ⊑ ⊥`` over
    an explicitly-labelled body), the witness is the single check hop.
    """
    lattice = graph.lattice
    bound = conflict.required
    variables = graph.variables
    check_hop = WitnessHop(conflict.constraint, None, conflict.observed)
    seeds = [
        vid
        for vid in map(
            graph.id_of,
            sorted(free_vars(conflict.constraint.lhs), key=lambda v: v.uid),
        )
        if vid is not None
        and variables[vid] in assignment
        and not lattice.leq(assignment[variables[vid]], bound)
    ]
    if not seeds:
        return LeakWitness(conflict, (check_hop,))
    #: upstream id -> (index of the edge that raised it from the downstream
    #: side, the downstream id it was reached from).
    parents: Dict[int, Tuple[int, int]] = {}
    visited = set(seeds)
    queue: deque = deque(seeds)
    terminal: Optional[Tuple[int, int]] = None
    while queue and terminal is None:
        vid = queue.popleft()
        for index in graph.edges_into[vid]:
            value = evaluate(graph.edge_lhs[index], lattice, assignment)
            cover = graph.edge_cover[index]
            if cover is not None and lattice.leq(value, cover):
                continue  # the join's constant part absorbed the flow
            if lattice.leq(value, bound):
                continue  # this edge never pushed the variable over
            high_sources = [
                src
                for src in graph.edge_sources[index]
                if not lattice.leq(assignment[variables[src]], bound)
            ]
            if not high_sources:
                # The high label is introduced right here, by constants:
                # the nearest source annotation.  BFS order makes this the
                # shortest chain.
                terminal = (index, vid)
                break
            for src in high_sources:
                if src not in visited:
                    visited.add(src)
                    parents[src] = (index, vid)
                    queue.append(src)
    if terminal is None:
        # Every blamed variable is (transitively) raised only through
        # cycles of variables -- possible only via override floors; fall
        # back to the bare check so callers always get a witness.
        return LeakWitness(conflict, (check_hop,))

    def hop(index: int, vid: int) -> WitnessHop:
        value = evaluate(graph.edge_lhs[index], lattice, assignment)
        return WitnessHop(_provenance(graph, index), variables[vid], value)

    hops: List[WitnessHop] = [hop(*terminal)]
    cursor = terminal[1]
    while cursor in parents:
        down_index, down_vid = parents[cursor]
        hops.append(hop(down_index, down_vid))
        cursor = down_vid
    hops.append(check_hop)
    return LeakWitness(conflict, tuple(hops))


def witnesses_for_solution(solution: Solution) -> List[LeakWitness]:
    """One witness per conflict, ordered shortest-explanation-first.

    Requires a solution produced by the graph-based solvers (which set
    :attr:`~repro.inference.solve.Solution.graph`); a graphless solution
    yields bare single-hop witnesses so callers never need a special case.
    """
    graph = solution.graph
    witnesses: List[LeakWitness] = []
    for conflict in solution.conflicts:
        if graph is None:
            witnesses.append(
                LeakWitness(
                    conflict,
                    (WitnessHop(conflict.constraint, None, conflict.observed),),
                )
            )
        else:
            witnesses.append(
                witness_for_conflict(graph, solution.assignment, conflict)
            )
    witnesses.sort(
        key=lambda w: (w.length, str(w.conflict.constraint.span))
    )
    return witnesses
