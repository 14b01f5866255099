"""The object-keyed propagation-graph build, kept as a test oracle.

:class:`repro.inference.graph.PropagationGraph` works on dense integer
variable ids: it deduplicates edges on int keys, runs Tarjan over int
successor lists and solves over a list of values indexed by id.  This
module is the graph it replaced, keyed by :class:`LabelVar` objects
throughout: every constraint normalised, edges deduplicated by ``(lhs,
target, cover)``, components condensed over ``LabelVar`` successor lists,
and the SCC schedule, checks, unsat cores and leak-path witnesses run
over a ``LabelVar -> Label`` dict.  ``tests/test_graph_oracle.py`` checks
that both produce the same edges, provenance, components, assignments,
conflicts, cores and witnesses.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.inference.constraints import Constraint
from repro.inference.solve import InferenceConflict, _height_bound, _normalise
from repro.inference.terms import LabelVar, Term, evaluate, free_vars
from repro.lattice.base import Label, Lattice

#: One edge: (lhs, target, cover, originating constraints, sources).
LegacyEdge = Tuple[Term, LabelVar, Optional[Label], Tuple[Constraint, ...], Tuple[LabelVar, ...]]


class LegacyGraph:
    """Edges, components and the SCC-scheduled solve, keyed by ``LabelVar``."""

    def __init__(self, lattice: Lattice, constraints, *, cache=None) -> None:
        self.lattice = lattice
        self.constraints: List[Constraint] = list(constraints)
        self._cache = cache
        self.edges: List[LegacyEdge] = []
        self.checks: List[Tuple[Term, Term, Constraint]] = []
        self.variables: List[LabelVar] = []
        self.dependents: Dict[LabelVar, List[int]] = {}
        self.edges_into: Dict[LabelVar, List[int]] = {}
        self._build_edges()
        self.components: List[Tuple[LabelVar, ...]] = []
        self.component_of: Dict[LabelVar, int] = {}
        self.cyclic: List[bool] = []
        self._condense()
        self._height = _height_bound(lattice)

    # -- construction -------------------------------------------------------

    def _build_edges(self) -> None:
        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
        checks: List[Tuple[Term, Term, Constraint]] = []
        seen_vars: Set[LabelVar] = set()
        for constraint in self.constraints:
            if self._cache is not None:
                self._cache.normalise(constraint, raw, checks)
            else:
                _normalise(
                    self.lattice, constraint, constraint.lhs, constraint.rhs, raw, checks
                )
            for var in sorted(constraint.variables(), key=lambda v: v.uid):
                if var not in seen_vars:
                    seen_vars.add(var)
                    self.variables.append(var)
        self.checks = checks
        by_key: Dict[Tuple[Term, LabelVar, Optional[Label]], int] = {}
        origins: List[List[Constraint]] = []
        origin_sets: List[Set[Constraint]] = []
        shapes: List[Tuple[Term, LabelVar, Optional[Label]]] = []
        for lhs, target, origin, cover in raw:
            key = (lhs, target, cover)
            index = by_key.get(key)
            if index is None:
                by_key[key] = len(shapes)
                shapes.append(key)
                origins.append([origin])
                origin_sets.append({origin})
            elif origin not in origin_sets[index]:
                origin_sets[index].add(origin)
                origins[index].append(origin)
        for (lhs, target, cover), edge_origins in zip(shapes, origins):
            sources = tuple(sorted(free_vars(lhs), key=lambda v: v.uid))
            index = len(self.edges)
            self.edges.append((lhs, target, cover, tuple(edge_origins), sources))
            self.edges_into.setdefault(target, []).append(index)
            for var in sources:
                self.dependents.setdefault(var, []).append(index)

    def _successors(self, var: LabelVar) -> List[LabelVar]:
        seen: Set[LabelVar] = set()
        result: List[LabelVar] = []
        for index in self.dependents.get(var, ()):
            target = self.edges[index][1]
            if target not in seen:
                seen.add(target)
                result.append(target)
        return result

    def _condense(self) -> None:
        index_of: Dict[LabelVar, int] = {}
        lowlink: Dict[LabelVar, int] = {}
        on_stack: Set[LabelVar] = set()
        stack: List[LabelVar] = []
        emitted: List[Tuple[LabelVar, ...]] = []
        counter = 0
        for root in self.variables:
            if root in index_of:
                continue
            work: List[Tuple[LabelVar, Iterable[LabelVar]]] = [
                (root, iter(self._successors(root)))
            ]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self._successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index_of[node]:
                    component: List[LabelVar] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    emitted.append(tuple(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        emitted.reverse()
        self.components = emitted
        for comp_index, component in enumerate(emitted):
            for var in component:
                self.component_of[var] = comp_index
        self.cyclic = [
            len(component) > 1
            or any(
                component[0] in self.edges[i][4]
                for i in self.edges_into.get(component[0], ())
            )
            for component in self.components
        ]

    # -- solving -------------------------------------------------------------

    def _run_component(self, comp_index: int, assignment: Dict[LabelVar, Label]) -> None:
        lattice = self.lattice
        component = self.components[comp_index]
        in_edges: List[int] = []
        for var in component:
            in_edges.extend(self.edges_into.get(var, ()))
        if not in_edges:
            return
        pending: deque = deque(in_edges)
        queued: Set[int] = set(in_edges)
        while pending:
            index = pending.popleft()
            queued.discard(index)
            lhs, target, cover, _origins, _sources = self.edges[index]
            value = evaluate(lhs, lattice, assignment)
            if cover is not None and lattice.leq(value, cover):
                continue
            current = assignment[target]
            if not lattice.leq(value, current):
                assignment[target] = lattice.join(current, value)
                for dependent in self.dependents.get(target, ()):
                    if (
                        self.component_of[self.edges[dependent][1]] == comp_index
                        and dependent not in queued
                    ):
                        queued.add(dependent)
                        pending.append(dependent)

    def solve(
        self, overrides: Optional[Mapping[LabelVar, Label]] = None
    ) -> Tuple[Dict[LabelVar, Label], List[InferenceConflict]]:
        """The least assignment above ``overrides`` and its conflicts."""
        assignment = {var: self.lattice.bottom for var in self.variables}
        for var, label in (overrides or {}).items():
            assignment[var] = self.lattice.join(
                assignment.get(var, self.lattice.bottom), label
            )
        for comp_index in range(len(self.components)):
            self._run_component(comp_index, assignment)
        conflicts = []
        for lhs, rhs, origin in self.checks:
            observed = evaluate(lhs, self.lattice, assignment)
            required = evaluate(rhs, self.lattice, assignment)
            if not self.lattice.leq(observed, required):
                core = self.unsat_core(assignment, lhs, required)
                conflicts.append(InferenceConflict(origin, observed, required, tuple(core)))
        return assignment, conflicts

    def unsat_core(
        self, assignment: Dict[LabelVar, Label], lhs: Term, bound: Label
    ) -> List[Constraint]:
        lattice = self.lattice
        blamed: deque = deque(
            var
            for var in sorted(free_vars(lhs), key=lambda v: v.uid)
            if not lattice.leq(assignment[var], bound)
        )
        visited: Set[LabelVar] = set(blamed)
        core: List[Constraint] = []
        in_core: Set[Constraint] = set()
        while blamed:
            var = blamed.popleft()
            for index in self.edges_into.get(var, ()):
                edge_lhs, _target, cover, origins, sources = self.edges[index]
                value = evaluate(edge_lhs, lattice, assignment)
                if cover is not None and lattice.leq(value, cover):
                    continue
                if lattice.leq(value, bound):
                    continue
                for origin in origins:
                    if origin not in in_core:
                        in_core.add(origin)
                        core.append(origin)
                for upstream in sources:
                    if upstream not in visited and not lattice.leq(
                        assignment[upstream], bound
                    ):
                        visited.add(upstream)
                        blamed.append(upstream)
        return core


def legacy_witness(
    graph: LegacyGraph, assignment: Dict[LabelVar, Label], conflict: InferenceConflict
) -> List[Tuple[Constraint, Optional[LabelVar], Label]]:
    """The leak-path witness hops ``(constraint, var, value)`` for
    ``conflict``, found over the object-keyed edges."""
    lattice = graph.lattice
    bound = conflict.required
    check_hop = (conflict.constraint, None, conflict.observed)

    def provenance(origins: Tuple[Constraint, ...]) -> Constraint:
        for constraint in origins:
            if not constraint.span.is_unknown():
                return constraint
        return origins[0]

    seeds = [
        var
        for var in sorted(free_vars(conflict.constraint.lhs), key=lambda v: v.uid)
        if var in assignment and not lattice.leq(assignment[var], bound)
    ]
    parents: Dict[LabelVar, Tuple[LegacyEdge, LabelVar]] = {}
    visited = set(seeds)
    queue: deque = deque(seeds)
    terminal: Optional[Tuple[LegacyEdge, LabelVar]] = None
    while queue and terminal is None:
        var = queue.popleft()
        for index in graph.edges_into.get(var, ()):
            edge = graph.edges[index]
            lhs, _target, cover, _origins, sources = edge
            value = evaluate(lhs, lattice, assignment)
            if cover is not None and lattice.leq(value, cover):
                continue
            if lattice.leq(value, bound):
                continue
            high = [src for src in sources if not lattice.leq(assignment[src], bound)]
            if not high:
                terminal = (edge, var)
                break
            for src in high:
                if src not in visited:
                    visited.add(src)
                    parents[src] = (edge, var)
                    queue.append(src)
    if terminal is None:
        return [check_hop]
    edge, var = terminal
    hops = [(provenance(edge[3]), var, evaluate(edge[0], lattice, assignment))]
    cursor = var
    while cursor in parents:
        down_edge, down_var = parents[cursor]
        hops.append(
            (provenance(down_edge[3]), down_var, evaluate(down_edge[0], lattice, assignment))
        )
        cursor = down_var
    hops.append(check_hop)
    return hops
