"""The inference pipeline: generate → solve → elaborate.

:func:`infer_labels` is the public entry point.  It produces an
:class:`InferenceResult` carrying the solved per-slot assignment (for
reporting), the conflicts mapped back to source spans as
:class:`~repro.ifc.errors.IfcDiagnostic` values, and -- when the system is
satisfiable -- a fully annotated program ready for independent
re-verification by the stock checker.

:class:`Solver` is the persistent counterpart for interactive use (an
IDE/LSP-style annotation assistant): it builds the propagation graph once
and, after an annotation edit, :meth:`Solver.resolve` recomputes only the
edit's cone of influence instead of restarting from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from repro.ifc.errors import IfcDiagnostic
from repro.inference.constraints import Constraint
from repro.inference.elaborate import elaborate_program
from repro.inference.generate import GenerationResult, generate_constraints
from repro.inference.graph import NormalisationCache, PropagationGraph
from repro.inference.solve import InferenceConflict, Solution, solve
from repro.inference.terms import (
    ConstTerm,
    JoinTerm,
    LabelVar,
    MeetTerm,
    Term,
    VarTerm,
    evaluate,
    free_vars,
    join_terms,
    meet_terms,
)
from repro.lattice.base import Label, Lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.telemetry.recorder import current_recorder


@dataclass(frozen=True)
class InferredLabel:
    """One solved annotation slot, for reports and the CLI."""

    hint: str
    span: SourceSpan
    label: Label

    def describe(self, lattice: Lattice) -> str:
        location = "" if self.span.is_unknown() else f" ({self.span})"
        return f"{self.hint}: {lattice.format_label(self.label)}{location}"


@dataclass
class InferenceResult:
    """Outcome of constraint-based label inference over one program."""

    program: Program
    lattice: Lattice
    generation: GenerationResult
    solution: Solution
    #: Solved labels, one per annotation slot that received a variable,
    #: in slot-discovery order.
    inferred: List[InferredLabel] = field(default_factory=list)
    #: Label errors from generation plus conflicts from solving.
    diagnostics: List[IfcDiagnostic] = field(default_factory=list)
    #: The fully annotated program (best effort when there are conflicts).
    elaborated: Optional[Program] = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def constraint_count(self) -> int:
        return len(self.generation.constraints)

    @property
    def variable_count(self) -> int:
        return len(self.inferred) + len(self.generation.control_pc_vars)

    def assignment_by_hint(self) -> Dict[str, Label]:
        """The solved assignment keyed by slot description (for tests/JSON)."""
        return {site.hint: site.label for site in self.inferred}


def _maximise_control_pcs(
    lattice: Lattice,
    generation: GenerationResult,
    solution: Solution,
    *,
    backend: str = "graph",
    workers: int = 1,
) -> Solution:
    """Re-solve with each ``@pc(infer)`` variable pushed as high as it goes.

    A control's pc only ever appears on constraint *left* sides (it lower
    bounds the writes the body performs), so the least solution would
    trivially report ⊥ for every program.  The informative answer is the
    *greatest* admissible pc -- admissible against the least labels of
    everything else: every non-pc slot is frozen at its least-solution
    value, so a raised pc never drags unconstrained slots upward (that
    would break ``infer_labels``' least-label contract).  With the slots
    frozen the answer is direct: a pc variable occurs only on constraint
    left sides, so its greatest admissible value is the meet of the
    right-hand sides of the constraints that mention it, evaluated under
    the least solution (⊤ when unconstrained).  One re-solve with the pc
    variables pinned there produces the reported solution; it cannot
    conflict by construction, but if it somehow does the least solution is
    returned unchanged.
    """
    candidates = {}
    # ``control_pc_vars`` pairs are walked through a set; sort by uid so the
    # pin-constraint order (and everything downstream of it) is stable
    # across runs regardless of PYTHONHASHSEED.
    pc_vars = sorted(
        {var for _control, var in generation.control_pc_vars}, key=lambda v: v.uid
    )
    for var in pc_vars:
        bounds = [
            evaluate(constraint.rhs, lattice, solution.assignment)
            for constraint in generation.constraints
            if var in free_vars(constraint.lhs)
        ]
        candidates[var] = lattice.meet_all(bounds)
    if all(lattice.equal(label, lattice.bottom) for label in candidates.values()):
        return solution
    freezes = [
        Constraint(
            VarTerm(site.var),
            ConstTerm(solution.value_of(site.var)),
            site.span,
            rule="@pc",
            reason=f"{site.hint} is frozen at its least label",
        )
        for site in generation.sites
    ]
    pins = [
        Constraint(
            ConstTerm(label),
            VarTerm(var),
            var.span,
            rule="@pc",
            reason=f"greatest admissible {var.hint}",
        )
        for var, label in candidates.items()
    ]
    boosted = solve(
        lattice,
        generation.constraints + freezes + pins,
        backend=backend,
        workers=workers,
    )
    if not boosted.ok:
        return solution
    # Report the *user's* constraint system, not the internal augmented one
    # (whose freeze/pin constraints would inflate edge and check counts):
    # keep the primary solve's counters and structural stats, accumulating
    # the time this second solve took so solve_ms stays the total solver
    # share of infer.
    boosted.propagation_count = solution.propagation_count
    boosted.check_count = solution.check_count
    boosted.iterations = solution.iterations
    if solution.stats is not None and boosted.stats is not None:
        solution.stats.build_ms += boosted.stats.build_ms
        solution.stats.solve_ms += boosted.stats.solve_ms
        boosted.stats = solution.stats
    return boosted


class Solver:
    """A persistent solver over one constraint system.

    Construction builds the :class:`~repro.inference.graph.PropagationGraph`
    once (normalisation, edge deduplication, SCC condensation).
    :meth:`solve` produces the least solution; after an edit,
    :meth:`resolve` recomputes *only the cone of influence* of the edited
    label slots -- everything the edit cannot reach keeps its converged
    value and its cached check verdicts.  This is the reasoning core an
    IDE-style annotation assistant needs: per-keystroke cost proportional
    to what the keystroke can change, not to the program.

    Edits are modelled as *pins*: ``resolve({slot: label})`` makes ``label``
    a floor of ``slot`` (as if the user wrote the annotation), and
    ``resolve({slot: None})`` removes the pin again.  Both raising and
    lowering are supported; the cone is reset to ``⊥`` (plus pins) and the
    SCC schedule is replayed over the cone's components only, which yields
    exactly the assignment a from-scratch solve with the same pins would.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint],
        *,
        cache: Optional[NormalisationCache] = None,
        backend: str = "graph",
        workers: int = 1,
        graph: Optional[PropagationGraph] = None,
    ) -> None:
        self.lattice = lattice
        self.backend = backend
        self.workers = workers
        self._cache = cache
        #: ``graph`` lets a caller that already built the propagation graph
        #: over exactly these constraints (e.g. a workspace adopting a cold
        #: solution) hand it over instead of paying a second construction.
        self.graph = graph or PropagationGraph(lattice, constraints, cache=cache)
        self._pins: Dict[LabelVar, Label] = {}
        #: The current assignment: values by graph id, plus the pinned slots
        #: the graph never mentions (they surface in solutions as pinned).
        self._values: Optional[List[Label]] = None
        self._extra: Dict[LabelVar, Label] = {}
        #: Cached per-check verdicts, aligned with ``graph.checks``.
        self._check_results: List[Optional[InferenceConflict]] = []
        self._check_ids: List[FrozenSet[int]] = self.graph.check_var_ids()
        self._solution: Optional[Solution] = None

    @property
    def pins(self) -> Dict[LabelVar, Label]:
        """The currently pinned slot labels (a copy)."""
        return dict(self._pins)

    def solve(self) -> Solution:
        """The least solution above the current pins (cached)."""
        if self._solution is None:
            recorder = current_recorder()
            start = time.perf_counter()
            graph = self.graph
            with recorder.span(
                "solver.solve",
                edges=len(graph.edge_target),
                variables=len(graph.variables),
                persistent=True,
            ):
                stats = graph._new_stats()
                self._values = graph.fresh_assignment(self._pins)
                self._extra = self._outside_pins(graph)
                graph.propagate(self._values, stats)
                self._check_results = graph.check_conflicts(self._values)
            stats.solve_ms = (time.perf_counter() - start) * 1000.0
            self._solution = self._snapshot(stats)
        return self._solution

    def resolve(
        self, changes: Mapping[LabelVar, Optional[Label]]
    ) -> Solution:
        """Incrementally re-solve after editing the given label slots.

        ``changes`` maps each edited slot to its new pinned label (``None``
        removes the pin).  Only the forward closure (cone of influence) of
        the edited slots is reset and re-propagated; checks outside the
        cone keep their cached verdicts.  The result is identical to a
        from-scratch :meth:`solve` with the updated pins.
        """
        if self._values is None:
            for var, label in changes.items():
                self._apply_pin(var, label)
            return self.solve()
        recorder = current_recorder()
        start = time.perf_counter()
        for var, label in changes.items():
            self._apply_pin(var, label)
        graph = self.graph
        cone = graph.cone_ids(
            vid for vid in map(graph.id_of, changes) if vid is not None
        )
        components = {graph.component_of[vid] for vid in cone}
        with recorder.span(
            "solver.resolve",
            edited=len(changes),
            cone=len(cone),
            components=len(components),
        ):
            stats = graph._new_stats()
            stats.build_ms = 0.0
            # Reset the cone to ⊥ (plus pins) and replay the schedule over its
            # components; an SCC is entirely inside or outside the cone, so the
            # restricted schedule sees exactly the edges it must revisit.
            self._reset_cone(graph, cone, self._values)
            graph.propagate(self._values, stats, components)
            # Slots outside the graph (never constrained) still surface edits.
            for var, label in changes.items():
                if graph.id_of(var) is None:
                    if label is None:
                        self._extra.pop(var, None)
                    else:
                        self._extra[var] = label
            affected = [
                index
                for index, ids in enumerate(self._check_ids)
                if not ids.isdisjoint(cone)
            ]
            for index, verdict in zip(
                affected, graph.check_conflicts(self._values, affected)
            ):
                self._check_results[index] = verdict
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
        if recorder.enabled:
            # Cache accounting: how much of the graph the edit did *not*
            # have to revisit -- the quantity that makes the incremental
            # path worth having.
            recorder.count("solver.resolve.calls")
            recorder.count("solver.resolve.cone_vars", len(cone))
            recorder.count(
                "solver.resolve.vars_reused", len(graph.variables) - len(cone)
            )
            recorder.count(
                "solver.resolve.edges_skipped",
                len(graph.edge_target) - stats.edges_visited,
            )
            recorder.count("solver.resolve.checks_reevaluated", len(affected))
            recorder.count(
                "solver.resolve.checks_cached",
                len(self._check_results) - len(affected),
            )
        self._solution = self._snapshot(stats)
        return self._solution

    def adopt(self, solution: Solution) -> None:
        """Seed the persistent state from an externally computed solution.

        Used by a workspace whose *initial* solve ran through another
        backend (``solve(..., backend="packed")``): the assignment is
        taken over, the per-check verdicts are re-derived against this
        solver's graph (so they are aligned for incremental updates), and
        ``solution`` becomes the cached result.  Only valid before any
        pin has been applied.
        """
        if self._pins:
            raise ValueError("adopt() requires a pristine solver (no pins)")
        graph = self.graph
        assignment = solution.assignment
        bottom = self.lattice.bottom
        self._values = [assignment.get(var, bottom) for var in graph.variables]
        self._extra = {
            var: label for var, label in assignment.items() if graph.id_of(var) is None
        }
        self._check_results = graph.check_conflicts(self._values)
        self._solution = solution

    def rebase(
        self,
        constraints: Sequence[Constraint],
        *,
        pins: Optional[Mapping[LabelVar, Label]] = None,
    ) -> Solution:
        """Re-anchor the solver on an edited constraint system.

        Where :meth:`resolve` handles *pin* edits over a fixed system,
        ``rebase`` handles *structural* edits: the constraint list itself
        changed (a workspace re-generated some declarations).  The new
        propagation graph is built (through the shared
        :class:`~repro.inference.graph.NormalisationCache`, so surviving
        constraints skip term decomposition), and only the cone of
        influence of what actually changed is re-solved:

        * seeds are the targets of *added or removed* edges (by the
          ``(lhs, target, cover)`` dedup key), variables new to the
          system, and variables whose pin changed;
        * every surviving variable outside the cone keeps its converged
          value -- correct because a variable none of whose in-edges
          changed, and none of whose sources changed value, is still at
          its least fixpoint (a changed source would put it in the
          forward closure);
        * check verdicts migrate: a check that previously *passed* and
          whose variables lie outside the cone keeps its verdict;
          failing or cone-touching checks are re-evaluated against the
          new graph (conflicts embed provenance and cores, which must
          reflect the new system).

        ``pins`` optionally replaces the pin set wholesale (the workspace
        re-keys pins across re-allocated slot variables); ``None`` keeps
        the current pins.  Removing a pin this way restores the inferred
        least solution for that slot, exactly as ``resolve({slot: None})``
        does over a fixed system.
        """
        recorder = current_recorder()
        start = time.perf_counter()
        old_graph = self.graph
        old_pins = self._pins
        new_pins = dict(pins) if pins is not None else dict(old_pins)
        cache_hits_before = self._cache.hits if self._cache is not None else 0
        new_graph = PropagationGraph(self.lattice, constraints, cache=self._cache)
        if self._cache is not None:
            self._cache.retain(constraints)
        if self._values is None:
            self.graph = new_graph
            self._pins = new_pins
            self._check_results = []
            self._check_ids = new_graph.check_var_ids()
            self._solution = None
            return self.solve()
        old_values = self._values
        old_keys = old_graph.edge_keys()
        new_keys = new_graph.edge_keys()
        added = new_keys - old_keys
        removed = old_keys - new_keys
        seeds = set()
        for _lhs, target, _cover in added | removed:
            vid = new_graph.id_of(target)
            if vid is not None:
                seeds.add(vid)
        bottom = self.lattice.bottom
        carried: List[Label] = [bottom] * len(new_graph.variables)
        for vid, var in enumerate(new_graph.variables):
            old = old_graph.id_of(var)
            if old is not None:
                carried[vid] = old_values[old]
                continue
            value = self._extra.get(var)
            if value is None:
                seeds.add(vid)
            else:
                carried[vid] = value
        for var in set(old_pins) | set(new_pins):
            vid = new_graph.id_of(var)
            if vid is None:
                continue
            before, after = old_pins.get(var), new_pins.get(var)
            if (before is None) != (after is None) or (
                before is not None and not self.lattice.equal(before, after)
            ):
                seeds.add(vid)
        self._pins = new_pins
        cone = new_graph.cone_ids(seeds)
        components = {new_graph.component_of[vid] for vid in cone}
        with recorder.span(
            "solver.rebase",
            edges_added=len(added),
            edges_removed=len(removed),
            seeds=len(seeds),
            cone=len(cone),
            components=len(components),
        ):
            stats = new_graph._new_stats()
            self._reset_cone(new_graph, cone, carried)
            if components:
                if self.backend == "graph":
                    new_graph.propagate(carried, stats, components)
                else:
                    self._solve_cone_packed(new_graph, cone, carried, stats)
            passed = {
                (lhs, rhs)
                for (lhs, rhs, _origin), verdict in zip(
                    old_graph.checks, self._check_results
                )
                if verdict is None
            }
            self._check_ids = new_graph.check_var_ids()
            results: List[Optional[InferenceConflict]] = [None] * len(new_graph.checks)
            affected = [
                index
                for index, (lhs, rhs, _origin) in enumerate(new_graph.checks)
                if (lhs, rhs) not in passed or not self._check_ids[index].isdisjoint(cone)
            ]
            self.graph = new_graph
            self._values = carried
            self._extra = self._outside_pins(new_graph)
            for index, verdict in zip(
                affected, new_graph.check_conflicts(carried, affected)
            ):
                results[index] = verdict
            self._check_results = results
        stats.solve_ms = (time.perf_counter() - start) * 1000.0 - new_graph.build_ms
        if recorder.enabled:
            recorder.count("solver.rebase.calls")
            recorder.count("solver.rebase.edges_added", len(added))
            recorder.count("solver.rebase.edges_removed", len(removed))
            recorder.count("solver.rebase.cone_vars", len(cone))
            recorder.count(
                "solver.rebase.vars_reused", len(new_graph.variables) - len(cone)
            )
            recorder.count("solver.rebase.checks_reevaluated", len(affected))
            recorder.count(
                "solver.rebase.checks_cached", len(results) - len(affected)
            )
            if self._cache is not None:
                recorder.count(
                    "solver.rebase.normalisations_cached",
                    self._cache.hits - cache_hits_before,
                )
        self._solution = self._snapshot(stats)
        return self._solution

    def _reset_cone(
        self, graph: PropagationGraph, cone: Set[int], values: List[Label]
    ) -> None:
        """Put every cone variable back at ``⊥``, or at its pin."""
        bottom = self.lattice.bottom
        for vid in cone:
            values[vid] = bottom
        for var, pin in self._pins.items():
            vid = graph.id_of(var)
            if vid in cone:
                values[vid] = pin

    def _outside_pins(self, graph: PropagationGraph) -> Dict[LabelVar, Label]:
        """The pins on slots ``graph`` never mentions."""
        return {
            var: label for var, label in self._pins.items() if graph.id_of(var) is None
        }

    def _solve_cone_packed(
        self,
        graph: PropagationGraph,
        cone: Set[int],
        carried: List[Label],
        stats,
    ) -> None:
        """Re-solve the cone through the configured (packed) backend.

        The cone is forward-closed, so every in-edge of a cone variable
        has converged sources outside it: substituting those sources with
        their carried values yields a *self-contained* subsystem whose
        least solution is exactly the restriction of the global one.
        Pins become explicit floor constraints.  Checks, cores and
        witnesses are never computed here -- they always run against the
        main graph, so the output is byte-identical across backends.
        """
        variables = graph.variables
        sub: List[Constraint] = []
        edge_indices = sorted(
            {index for vid in cone for index in graph.edges_into[vid]}
        )
        for index in edge_indices:
            lhs = _substitute(graph.edge_lhs[index], graph, cone, carried, self.lattice)
            target: Term = VarTerm(variables[graph.edge_target[index]])
            cover = graph.edge_cover[index]
            rhs = target if cover is None else join_terms(
                self.lattice, [target, ConstTerm(cover)]
            )
            origin = graph.edge_origin(index)
            sub.append(Constraint(lhs, rhs, origin.span, origin.rule))
        for vid in sorted(cone, key=lambda v: variables[v].uid):
            var = variables[vid]
            pin = self._pins.get(var)
            if pin is not None:
                sub.append(
                    Constraint(ConstTerm(pin), VarTerm(var), var.span, rule="@pin")
                )
        solution = solve(
            self.lattice, sub, backend=self.backend, workers=self.workers
        )
        for vid in cone:
            carried[vid] = solution.value_of(variables[vid])
        sub_stats = solution.stats
        if sub_stats is not None:
            stats.backend = sub_stats.backend
            stats.encode_ms = sub_stats.encode_ms
            stats.sweeps = sub_stats.sweeps
            stats.waves = sub_stats.waves
            stats.max_wave_width = sub_stats.max_wave_width
            stats.clusters = sub_stats.clusters
            stats.workers = sub_stats.workers
            stats.fallback_reason = sub_stats.fallback_reason
            stats.edges_visited = sub_stats.edges_visited
            stats.worklist_pops = sub_stats.worklist_pops

    def _apply_pin(self, var: LabelVar, label: Optional[Label]) -> None:
        if label is None:
            self._pins.pop(var, None)
        else:
            self._pins[var] = label

    def _snapshot(self, stats) -> Solution:
        graph = self.graph
        assignment = graph.assignment_of(self._values or ())
        assignment.update(self._extra)
        solution = Solution(
            self.lattice,
            assignment,
            [c for c in self._check_results if c is not None],
            iterations=stats.worklist_pops,
            propagation_count=len(graph.edge_target),
            check_count=len(graph.checks),
        )
        solution.stats = stats
        solution.graph = graph
        return solution


def _substitute(
    term: Term,
    graph: PropagationGraph,
    cone: Set[int],
    carried: List[Label],
    lattice: Lattice,
) -> Term:
    """Replace out-of-cone variables in ``term`` with their carried values."""
    if isinstance(term, VarTerm):
        vid = graph.id_of(term.var)
        if vid in cone:
            return term
        return ConstTerm(carried[vid])
    if isinstance(term, JoinTerm):
        return join_terms(
            lattice,
            [_substitute(part, graph, cone, carried, lattice) for part in term.parts],
        )
    if isinstance(term, MeetTerm):
        return meet_terms(
            lattice,
            [_substitute(part, graph, cone, carried, lattice) for part in term.parts],
        )
    return term


def infer_labels(
    program: Program,
    lattice: Optional[Lattice] = None,
    *,
    allow_declassification: bool = False,
    presolve: bool = False,
    backend: str = "graph",
    solver_workers: int = 1,
) -> InferenceResult:
    """Infer a least label assignment for ``program`` under ``lattice``.

    The returned assignment is point-wise smallest among all assignments
    satisfying the Figure 5–7 side conditions (missing annotations default
    as low as the flows permit).  The one exception is ``@pc(infer)``
    control annotations, which are solved to the *greatest* pc admissible
    against that least assignment (the least pc would always be the
    uninformative ⊥).  When no assignment exists, the conflicts
    are reported as diagnostics whose spans and unsatisfiable cores point at
    the source constructs that clash.
    """
    resolved = lattice or TwoPointLattice()
    recorder = current_recorder()
    with recorder.span("infer.generate") as generate_span:
        generation = generate_constraints(
            program, resolved, allow_declassification=allow_declassification
        )
    if recorder.enabled:
        generate_span.attrs["constraints"] = len(generation.constraints)
        generate_span.attrs["slots"] = len(generation.sites)
        recorder.count("infer.runs")
        recorder.count("infer.constraints_generated", len(generation.constraints))
        recorder.count("infer.slots", len(generation.sites))
    solution = solve(
        resolved,
        generation.constraints,
        presolve=presolve,
        backend=backend,
        workers=solver_workers,
    )
    if solution.ok and generation.control_pc_vars:
        with recorder.span("infer.maximise-pc", pcs=len(generation.control_pc_vars)):
            solution = _maximise_control_pcs(
                resolved,
                generation,
                solution,
                backend=backend,
                workers=solver_workers,
            )
    inferred = [
        InferredLabel(
            site.hint,
            site.span,
            # Augmentation slots sit on top of a declared floor: report the
            # effective label, not the bare variable's (often ⊥) value.
            solution.value_of(site.var)
            if site.floor is None
            else resolved.join(solution.value_of(site.var), site.floor),
        )
        for site in generation.sites
    ]
    diagnostics = list(generation.errors)
    diagnostics.extend(
        conflict.as_diagnostic(resolved) for conflict in solution.conflicts
    )
    with recorder.span("infer.elaborate"):
        elaborated = elaborate_program(generation, solution)
    return InferenceResult(
        program,
        resolved,
        generation,
        solution,
        inferred,
        diagnostics,
        elaborated,
    )
