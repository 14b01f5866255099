"""The propagation-graph subsystem behind the constraint solver.

The seed solver normalised constraints into a flat edge list and ran one
global Kleene worklist over it.  That is fine at case-study size but wastes
work at scale: edges are revisited in arbitrary order, acyclic regions are
re-examined long after they have converged, and nothing is reusable between
solves.  This module makes the propagation structure explicit:

* :class:`PropagationGraph` -- edges, checks and the variable-level
  adjacency built **once** from a constraint list, condensed into strongly
  connected components with Tarjan's algorithm;
* dense variable ids -- every variable the system mentions gets an integer
  id (its position in :attr:`PropagationGraph.variables`, in discovery
  order), and the whole structure is parallel arrays and lists indexed by
  those ids, so building, condensing and solving hash ints, not
  :class:`~repro.inference.terms.LabelVar` objects;
* :class:`PropagationEdge` -- one *deduplicated* edge ``lhs → target``
  (with the optional join *cover*), carrying every constraint that gave
  rise to it so unsat cores keep full provenance; materialised on demand
  from the arrays (:meth:`PropagationGraph.edge`);
* SCC-scheduled solving -- components are processed in topological order,
  so every acyclic region is solved in a single pass over its in-edges and
  Kleene iteration is confined to components that are genuine cycles;
* cone-of-influence queries -- the forward closure of a set of label
  slots, which is exactly the region an incremental re-solve (a restricted
  :meth:`PropagationGraph.propagate`, wrapped by
  :meth:`repro.inference.engine.Solver.resolve`) has to revisit after an
  edit.

Because an SCC is either entirely inside or entirely outside the forward
closure of any slot set, an incremental re-solve simply resets the cone to
``⊥`` (plus pinned edit values) and replays the schedule restricted to the
cone's components; everything upstream keeps its converged values and is
read, never written.

:class:`SolverStats` records what the scheduler did -- component counts,
edges visited, worklist pops, passes per component, build and solve time --
and is threaded through :class:`~repro.inference.solve.Solution` into the
pipeline report and the CLI (``p4bid --solver-stats``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.inference.constraints import Constraint
from repro.inference.solve import (
    InferenceConflict,
    InferenceError,
    Solution,
    _height_bound,
    _normalise,
)
from repro.inference.terms import (
    ConstTerm,
    JoinTerm,
    LabelVar,
    MeetTerm,
    Term,
    VarTerm,
    free_vars,
)
from repro.lattice.base import Label, Lattice
from repro.telemetry.instrument import CountingLattice
from repro.telemetry.recorder import current_recorder


class NormalisationCache:
    """Memoised constraint normalisation, shared across graph rebuilds.

    :func:`~repro.inference.solve._normalise` decomposes a constraint into
    propagation-edge shapes and residual checks purely from its ``(lhs,
    rhs)`` term pair -- the span, rule and provenance ride along untouched.
    A workspace rebuilding its graph after an edit therefore re-derives
    identical shapes for every *surviving* constraint; this cache skips
    that re-derivation (the originating constraint is re-attached per
    call, so provenance stays exact).  The graph build consults it only
    for the shapes outside its fast path (a variable or constant flowing
    into a variable, a variable under a constant bound), which need no
    derivation at all.

    The decomposition consults the lattice (constant folding of join
    covers), so a cache is bound to one lattice and refuses reuse under
    another.
    """

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice
        self._memo: Dict[
            Tuple[Term, Term],
            Tuple[
                Tuple[Tuple[Term, LabelVar, Optional[Label]], ...],
                Tuple[Tuple[Term, Term], ...],
            ],
        ] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def retain(self, constraints: Sequence[Constraint]) -> None:
        """Forget the entries no constraint of ``constraints`` uses, once
        they outnumber the live ones: an edit re-allocates the variables
        of every re-walked declaration, so its old entries never hit again."""
        if len(self._memo) <= 2 * len(constraints):
            return
        memo = self._memo
        live = ((c.lhs, c.rhs) for c in constraints)
        self._memo = {key: memo[key] for key in live if key in memo}

    def normalise(
        self,
        constraint: Constraint,
        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]],
        checks: List[Tuple[Term, Term, Constraint]],
    ) -> None:
        """Append ``constraint``'s shapes to ``raw`` / ``checks``."""
        key = (constraint.lhs, constraint.rhs)
        entry = self._memo.get(key)
        if entry is None:
            self.misses += 1
            local_raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
            local_checks: List[Tuple[Term, Term, Constraint]] = []
            _normalise(
                self.lattice, constraint, constraint.lhs, constraint.rhs,
                local_raw, local_checks,
            )
            entry = (
                tuple((lhs, target, cover) for lhs, target, _c, cover in local_raw),
                tuple((lhs, rhs) for lhs, rhs, _c in local_checks),
            )
            self._memo[key] = entry
        else:
            self.hits += 1
        for lhs, target, cover in entry[0]:
            raw.append((lhs, target, constraint, cover))
        for lhs, rhs in entry[1]:
            checks.append((lhs, rhs, constraint))


class PropagationEdge(NamedTuple):
    """One deduplicated propagation edge ``lhs → target``, as a record.

    ``cover`` is the constant part of a join on the right-hand side: the
    edge propagates nothing while the evaluated left side fits under it.
    ``constraints`` holds *every* originating constraint that normalised to
    this edge (repeated use sites collapse to one edge but keep all their
    provenance for unsat cores); ``sources`` is ``free_vars(lhs)`` in uid
    order.  The graph keeps edges as parallel id arrays and builds these
    records only when asked (:meth:`PropagationGraph.edge`).
    """

    lhs: Term
    target: LabelVar
    cover: Optional[Label]
    constraints: Tuple[Constraint, ...]
    sources: Tuple[LabelVar, ...]

    @property
    def origin(self) -> Constraint:
        """The first constraint that produced this edge."""
        return self.constraints[0]


@dataclass
class SolverStats:
    """What the SCC-condensed scheduler did during one solve.

    ``edges_visited`` counts the *distinct* edges the schedule touched
    (every in-edge of every solved component -- for an incremental
    re-solve, the size of the replayed cone); ``worklist_pops`` counts
    total edge evaluations, so it exceeds ``edges_visited`` exactly when
    cyclic components iterate.  ``max_passes`` is the worst number of
    sweeps any single component needed before converging (1 for every
    acyclic component).
    """

    variable_count: int = 0
    edge_count: int = 0
    check_count: int = 0
    scc_count: int = 0
    cyclic_scc_count: int = 0
    largest_scc: int = 0
    edges_visited: int = 0
    worklist_pops: int = 0
    max_passes: int = 0
    components_solved: int = 0
    solve_ms: float = 0.0
    #: Time spent building the propagation graph this solve ran on
    #: (normalisation, edge deduplication and SCC condensation); 0 when
    #: the solve reused a graph it did not build (``Solver.resolve``).
    #: ``build_ms + solve_ms`` is the constraints → solution time.
    build_ms: float = 0.0
    #: What the constant-label pre-solve reduction (``solve(presolve=True)``,
    #: :mod:`repro.analysis.presolve`) folded away before Kleene iteration:
    #: variables whose least value was fixed by constant propagation, and
    #: the edges into them that the schedule therefore never visited.
    presolve_resolved_vars: int = 0
    presolve_pruned_edges: int = 0
    presolve_ms: float = 0.0
    #: Which backend produced these stats: ``"graph"`` (the SCC-scheduled
    #: object solver), ``"packed"`` (:mod:`repro.inference.packed`) or
    #: ``"worklist"``.  The remaining fields are packed-backend counters:
    #: time spent encoding the graph into int arrays, batched sweep count,
    #: topological wave count / widest wave / independent cluster count of
    #: the component DAG, the worker processes used, and -- when the packed
    #: backend delegated back to the object solver -- why.
    backend: str = "graph"
    encode_ms: float = 0.0
    sweeps: int = 0
    waves: int = 0
    max_wave_width: int = 0
    clusters: int = 0
    workers: int = 1
    fallback_reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "encode_ms": self.encode_ms,
            "sweeps": self.sweeps,
            "waves": self.waves,
            "max_wave_width": self.max_wave_width,
            "clusters": self.clusters,
            "workers": self.workers,
            "fallback_reason": self.fallback_reason,
            "variables": self.variable_count,
            "edges": self.edge_count,
            "checks": self.check_count,
            "sccs": self.scc_count,
            "cyclic_sccs": self.cyclic_scc_count,
            "largest_scc": self.largest_scc,
            "edges_visited": self.edges_visited,
            "worklist_pops": self.worklist_pops,
            "max_passes": self.max_passes,
            "components_solved": self.components_solved,
            "build_ms": self.build_ms,
            "solve_ms": self.solve_ms,
            "presolve_resolved_vars": self.presolve_resolved_vars,
            "presolve_pruned_edges": self.presolve_pruned_edges,
            "presolve_ms": self.presolve_ms,
        }

    def describe(self) -> str:
        return (
            f"{self.edge_count} edge(s) over {self.variable_count} variable(s), "
            f"{self.scc_count} SCC(s) ({self.cyclic_scc_count} cyclic, "
            f"largest {self.largest_scc}), {self.worklist_pops} worklist pop(s), "
            f"max {self.max_passes} pass(es) per component, "
            f"build {self.build_ms:.2f} ms, solve {self.solve_ms:.2f} ms"
        )


class _EdgeView(Sequence[PropagationEdge]):
    """``graph.edges``: the edge arrays read as :class:`PropagationEdge`s."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "PropagationGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.edge_target)

    def __getitem__(self, index):  # type: ignore[override]
        return self._graph.edge(index)


class PropagationGraph:
    """The propagation structure of one constraint system, built once.

    Construction gives every variable a dense id, normalises the
    constraints (exactly as the seed solver did), deduplicates edges by
    ``(lhs, target, cover)``, indexes them by source and by target, and
    condenses the variable-level graph into strongly connected components
    in topological order.  Solving and incremental re-solving then only
    *schedule* over this structure.

    Ids follow discovery order: the uid-sorted variables of each
    constraint, in constraint order.  Edges are parallel arrays --
    :attr:`edge_lhs`, :attr:`edge_target` (an id), :attr:`edge_sources` (ids,
    in uid order), :attr:`edge_cover` -- and :attr:`edges_into`,
    :attr:`dependents` and :attr:`component_of` are lists indexed by id.
    Assignments passed to :meth:`propagate`, :meth:`check_conflicts` and
    :meth:`unsat_core` are lists of labels indexed by id
    (:meth:`fresh_assignment`); :meth:`solve` decodes its result into a
    ``LabelVar``-keyed :class:`~repro.inference.solve.Solution`.

    Variables are looked up by uid, which is unique within one variable
    supply; a system merged from several supplies can hold distinct
    variables sharing a uid, and those get ids of their own through an
    alias table that only such collisions consult.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint],
        *,
        cache: Optional[NormalisationCache] = None,
    ) -> None:
        if cache is not None and cache.lattice is not lattice:
            raise ValueError(
                "normalisation cache was built for a different lattice"
            )
        self._cache = cache
        self.lattice = lattice
        self.constraints: List[Constraint] = list(constraints)
        self.checks: List[Tuple[Term, Term, Constraint]] = []
        #: Every variable the system mentions; its index is its id.
        self.variables: List[LabelVar] = []
        #: uid -> id of the first variable seen with that uid; later,
        #: distinct variables with a taken uid map in ``_aliases``.
        self.ids: Dict[int, int] = {}
        self._aliases: Dict[LabelVar, int] = {}
        self.edge_lhs: List[Term] = []
        self.edge_target: List[int] = []
        self.edge_sources: List[Tuple[int, ...]] = []
        self.edge_cover: List[Optional[Label]] = []
        #: The first originating constraint of each edge; further distinct
        #: ones (rare: repeated use sites) in ``_more_origins``.
        self._origins: List[Constraint] = []
        self._more_origins: Dict[int, List[Constraint]] = {}
        #: id -> edge indices whose *left side* mentions it.
        self.dependents: List[List[int]] = []
        #: id -> edge indices *targeting* it.
        self.edges_into: List[List[int]] = []
        #: SCCs of the variable graph (tuples of ids), dependencies first.
        self.components: List[Tuple[int, ...]] = []
        #: id -> index of its component.
        self.component_of: List[int] = []
        self._cyclic: List[bool] = []
        recorder = current_recorder()
        start = time.perf_counter()
        with recorder.span("solver.build", constraints=len(self.constraints)):
            with recorder.span("solver.normalise"):
                self_loops = self._build_edges()
            with recorder.span("solver.condense"):
                self._condense(self_loops)
        #: Wall time of normalisation, deduplication and condensation.
        self.build_ms = (time.perf_counter() - start) * 1000.0
        self._height = _height_bound(lattice)
        if recorder.enabled:
            recorder.count("solver.graphs_built")
            recorder.count("solver.edges_built", len(self.edge_target))
            recorder.count("solver.sccs_built", len(self.components))

    # -- construction -------------------------------------------------------

    def _build_edges(self) -> Set[int]:
        """Intern variables, normalise and deduplicate edges; returns the
        ids with an edge into themselves."""
        variables = self.variables
        ids = self.ids
        dependents = self.dependents
        edges_into = self.edges_into
        edge_lhs = self.edge_lhs
        edge_target = self.edge_target
        edge_sources = self.edge_sources
        edge_cover = self.edge_cover
        origins = self._origins
        checks = self.checks
        self_loops: Set[int] = set()
        # Deduplication by (lhs, target, cover), on int keys where the shape
        # allows: repeated use sites emit the same edge over and over; one
        # edge suffices for propagation, but every originating constraint
        # is kept for unsat-core provenance.  The three key spaces hold
        # disjoint shapes, so together they still key every edge by its
        # (lhs, target, cover).
        by_var_edge: Dict[int, int] = {}  # src << 32 | target, no cover
        by_const_edge: Dict[Tuple[int, Label], int] = {}  # (target, label)
        by_term_edge: Dict[Tuple[Term, int, Optional[Label]], int] = {}

        aliases = self._aliases

        def intern(var: LabelVar) -> int:
            vid = ids.get(var.uid)
            if vid is not None and (variables[vid] is var or variables[vid] == var):
                return vid
            if vid is not None:
                vid = aliases.get(var)
                if vid is not None:
                    return vid
                vid = aliases[var] = len(variables)
            else:
                vid = ids[var.uid] = len(variables)
            variables.append(var)
            dependents.append([])
            edges_into.append([])
            return vid

        id_of = self.id_of

        def add_edge(
            lhs: Term,
            target: int,
            cover: Optional[Label],
            constraint: Constraint,
            source: int = -1,
        ) -> None:
            kind = type(lhs)
            if cover is None and kind is VarTerm:
                if source < 0:
                    source = id_of(lhs.var)
                table: Dict[Any, int] = by_var_edge
                key: Any = source << 32 | target
            elif cover is None and kind is ConstTerm:
                table, key = by_const_edge, (target, lhs.label)
            else:
                table, key = by_term_edge, (lhs, target, cover)
            index = table.get(key)
            if index is not None:
                self._add_origin(index, constraint)
                return
            if table is by_var_edge:
                sources: Tuple[int, ...] = (source,)
            elif table is by_const_edge:
                sources = ()
            else:
                sources = self.term_ids(lhs)
            index = table[key] = len(edge_target)
            edge_lhs.append(lhs)
            edge_target.append(target)
            edge_sources.append(sources)
            edge_cover.append(cover)
            origins.append(constraint)
            edges_into[target].append(index)
            for source in sources:
                dependents[source].append(index)
            if target in sources:
                self_loops.add(target)

        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
        for constraint in self.constraints:
            lhs, rhs = constraint.lhs, constraint.rhs
            lhs_kind, rhs_kind = type(lhs), type(rhs)
            # Fast path: the shapes nearly every real system consists of,
            # which normalise to themselves.  Variables are interned in
            # uid order, as the general path below does.
            if rhs_kind is VarTerm and lhs_kind is VarTerm:
                source_var, target_var = lhs.var, rhs.var
                if source_var.uid < target_var.uid:
                    source = intern(source_var)
                    add_edge(lhs, intern(target_var), None, constraint, source)
                    continue
                if source_var.uid > target_var.uid:
                    target = intern(target_var)
                    add_edge(lhs, target, None, constraint, intern(source_var))
                    continue
            if rhs_kind is VarTerm and lhs_kind is ConstTerm:
                add_edge(lhs, intern(rhs.var), None, constraint)
                continue
            if rhs_kind is ConstTerm and lhs_kind is VarTerm:
                intern(lhs.var)
                checks.append((lhs, rhs, constraint))
                continue
            # ``variables()`` is a frozenset; iterate it in uid order so the
            # discovery order -- and with it the Tarjan visit order, the
            # component numbering and ultimately unsat-core ordering -- is
            # identical across runs regardless of PYTHONHASHSEED.
            for var in sorted(constraint.variables(), key=lambda v: v.uid):
                intern(var)
            if self._cache is not None:
                self._cache.normalise(constraint, raw, checks)
            else:
                _normalise(self.lattice, constraint, lhs, rhs, raw, checks)
            for edge_lhs_term, target_var, origin, cover in raw:
                add_edge(edge_lhs_term, id_of(target_var), cover, origin)
            raw.clear()
        return self_loops

    def _add_origin(self, index: int, constraint: Constraint) -> None:
        """Record ``constraint`` as a further origin of edge ``index``
        unless an equal one is already there."""
        first = self._origins[index]
        if first is constraint:
            return
        more = self._more_origins.get(index)
        if more is None:
            if first != constraint:
                self._more_origins[index] = [constraint]
        elif first != constraint and constraint not in more:
            more.append(constraint)

    def _condense(self, self_loops: Set[int]) -> None:
        """Tarjan's SCC algorithm (iterative, over ids), components in
        topological order of the propagation direction: sources before
        sinks."""
        count = len(self.variables)
        dependents = self.dependents
        edge_target = self.edge_target
        # A finished node's index becomes ``count``, above every live
        # index, so it never lowers a lowlink: no separate on-stack set.
        done = count
        index_of = [-1] * count
        lowlink = [0] * count
        stack: List[int] = []
        emitted: List[Tuple[int, ...]] = []
        counter = 0
        for root in range(count):
            if index_of[root] >= 0:
                continue
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            # The DFS path, and how far into its dependents each node got.
            nodes = [root]
            positions = [0]
            while nodes:
                node = nodes[-1]
                out = dependents[node]
                position = positions[-1]
                low = lowlink[node]
                descended = False
                while position < len(out):
                    succ = edge_target[out[position]]
                    position += 1
                    seen = index_of[succ]
                    if seen < 0:
                        positions[-1] = position
                        lowlink[node] = low
                        index_of[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        nodes.append(succ)
                        positions.append(0)
                        descended = True
                        break
                    if seen < low:
                        low = seen
                if descended:
                    continue
                nodes.pop()
                positions.pop()
                if low == index_of[node]:
                    member = stack.pop()
                    index_of[member] = done
                    if member == node:
                        emitted.append((node,))
                    else:
                        component = [member]
                        while member != node:
                            member = stack.pop()
                            index_of[member] = done
                            component.append(member)
                        emitted.append(tuple(component))
                elif low < lowlink[nodes[-1]]:
                    lowlink[nodes[-1]] = low
        # Tarjan emits an SCC only after everything it reaches; reversing
        # the emission order puts dependencies (sources) first.
        emitted.reverse()
        self.components = emitted
        component_of = [0] * count
        for comp_index, component in enumerate(emitted):
            for var in component:
                component_of[var] = comp_index
        self.component_of = component_of
        self._cyclic = [
            len(component) > 1 or component[0] in self_loops
            for component in emitted
        ]
        # Cached once: stats snapshots read these per solve, and scanning
        # 100k+ components each time is measurable at mega scale.
        self._cyclic_count = sum(self._cyclic)
        self._largest = max((len(c) for c in emitted), default=0)

    # -- structure queries ---------------------------------------------------

    @property
    def edges(self) -> Sequence[PropagationEdge]:
        """The edges as :class:`PropagationEdge` records, built on access."""
        return _EdgeView(self)

    def edge(self, index: int) -> PropagationEdge:
        """Edge ``index`` as a :class:`PropagationEdge` record."""
        variables = self.variables
        return PropagationEdge(
            self.edge_lhs[index],
            variables[self.edge_target[index]],
            self.edge_cover[index],
            self.edge_constraints(index),
            tuple(variables[source] for source in self.edge_sources[index]),
        )

    def edge_constraints(self, index: int) -> Tuple[Constraint, ...]:
        """Every constraint that normalised to edge ``index``, in order."""
        more = self._more_origins.get(index)
        first = self._origins[index]
        return (first,) if more is None else (first, *more)

    def edge_origin(self, index: int) -> Constraint:
        """The first constraint that produced edge ``index``."""
        return self._origins[index]

    def edge_value(
        self, index: int, values: Sequence[Label], lattice: Optional[Lattice] = None
    ) -> Label:
        """The value edge ``index``'s left side evaluates to under ``values``."""
        lhs = self.edge_lhs[index]
        kind = type(lhs)
        if kind is VarTerm:
            return values[self.edge_sources[index][0]]
        if kind is ConstTerm:
            return lhs.label
        return self._evaluate(lhs, lattice or self.lattice, values)

    def _evaluate(self, term: Term, lattice: Lattice, values: Sequence[Label]) -> Label:
        """:func:`~repro.inference.terms.evaluate` over ``values`` by id."""
        if isinstance(term, VarTerm):
            return values[self.id_of(term.var)]  # type: ignore[index]
        if isinstance(term, ConstTerm):
            return term.label
        if isinstance(term, JoinTerm):
            return lattice.join_all(self._evaluate(p, lattice, values) for p in term.parts)
        if isinstance(term, MeetTerm):
            return lattice.meet_all(self._evaluate(p, lattice, values) for p in term.parts)
        raise TypeError(f"cannot evaluate {type(term).__name__}")

    @property
    def cyclic_component_count(self) -> int:
        return self._cyclic_count

    @property
    def largest_component(self) -> int:
        return self._largest

    def id_of(self, var: LabelVar) -> Optional[int]:
        """The id of ``var``, or ``None`` when the system never mentions it."""
        vid = self.ids.get(var.uid)
        if vid is None:
            return None
        known = self.variables[vid]
        if known is var or known == var:
            return vid
        return self._aliases.get(var)

    def term_ids(self, term: Term) -> Tuple[int, ...]:
        """Ids of ``term``'s variables, in uid order (all must be known)."""
        return tuple(
            map(self.id_of, sorted(free_vars(term), key=lambda v: v.uid))
        )  # type: ignore[arg-type]

    def check_var_ids(self) -> List[FrozenSet[int]]:
        """Per check (aligned with :attr:`checks`), the ids it mentions."""
        return [
            frozenset(self.term_ids(lhs) + self.term_ids(rhs))
            for lhs, rhs, _origin in self.checks
        ]

    def component_of_var(self, var: LabelVar) -> Optional[int]:
        """The component index of ``var`` (``None`` when not in the graph)."""
        vid = self.id_of(var)
        return None if vid is None else self.component_of[vid]

    def cone_ids(self, seeds: Iterable[int]) -> Set[int]:
        """Forward closure of the ids ``seeds`` along the propagation edges."""
        dependents = self.dependents
        edge_target = self.edge_target
        pending: deque = deque(seeds)
        cone: Set[int] = set(pending)
        while pending:
            for index in dependents[pending.popleft()]:
                target = edge_target[index]
                if target not in cone:
                    cone.add(target)
                    pending.append(target)
        return cone

    def cone_of(self, slots: Iterable[LabelVar]) -> Set[LabelVar]:
        """Forward closure of ``slots`` along the propagation edges.

        This is the cone of influence of an edit: the only variables whose
        solved value can change when those slots change.  Since members of
        an SCC reach each other, the cone is always a union of whole
        components.
        """
        seeds = [vid for vid in map(self.id_of, slots) if vid is not None]
        variables = self.variables
        return {variables[vid] for vid in self.cone_ids(seeds)}

    def edge_keys(self) -> Set[Tuple[Term, LabelVar, Optional[Label]]]:
        """Every edge's dedup key ``(lhs, target, cover)``.

        The keys name variables, not ids, so two graphs over overlapping
        constraint systems (a rebase) can diff their edge sets.
        """
        variables = self.variables
        return {
            (lhs, variables[target], cover)
            for lhs, target, cover in zip(self.edge_lhs, self.edge_target, self.edge_cover)
        }

    # -- solving -------------------------------------------------------------

    def _run_component(
        self,
        comp_index: int,
        values: List[Label],
        stats: SolverStats,
        lattice: Optional[Lattice] = None,
    ) -> None:
        if not self._cyclic[comp_index]:
            self._schedule((comp_index,), values, stats, lattice)
            return
        lattice = lattice or self.lattice
        component = self.components[comp_index]
        in_edges = [index for var in component for index in self.edges_into[var]]
        if not in_edges:
            return
        edge_cover = self.edge_cover
        edge_target = self.edge_target
        leq = lattice.leq
        join = lattice.join
        stats.components_solved += 1
        # Every in-edge is seeded (and so evaluated) exactly once per
        # component, and each edge belongs to exactly one component.
        stats.edges_visited += len(in_edges)
        dependents = self.dependents
        component_of = self.component_of
        pending: deque = deque(in_edges)
        queued: Set[int] = set(in_edges)
        pops = 0
        # Monotone transfer functions + finite lattice => termination; the
        # budget only guards against a lattice violating the ascending
        # chain condition, and is now per component.
        budget = (len(in_edges) + 1) * (len(component) + 1) * self._height
        while pending:
            index = pending.popleft()
            queued.discard(index)
            pops += 1
            stats.worklist_pops += 1
            if pops > budget:
                raise InferenceError(
                    "constraint solving did not converge; the lattice violates "
                    "the ascending chain condition"
                )
            value = self.edge_value(index, values, lattice)
            cover = edge_cover[index]
            if cover is not None and leq(value, cover):
                continue  # the join's constant part absorbs the flow
            target = edge_target[index]
            current = values[target]
            if not leq(value, current):
                values[target] = join(current, value)
                for dependent in dependents[target]:
                    # Only edges inside this component can need re-examining
                    # now: edges into later components are seeded wholesale
                    # when their component's turn comes, and topological
                    # order guarantees no edge leads to an earlier one.
                    if (
                        component_of[edge_target[dependent]] == comp_index
                        and dependent not in queued
                    ):
                        queued.add(dependent)
                        pending.append(dependent)
        stats.max_passes = max(
            stats.max_passes, -(-pops // len(in_edges))  # ceil division
        )

    def _schedule(
        self,
        order: Iterable[int],
        values: List[Label],
        stats: SolverStats,
        lattice: Optional[Lattice] = None,
    ) -> None:
        """Solve the components ``order`` names, in that order.

        An acyclic component is a singleton whose sources are all in
        earlier components, so one sweep over its in-edges is its
        fixpoint -- no worklist bookkeeping at all.  That case runs inline
        here (most components are acyclic singletons, and a call per
        component costs more than its sweep); cyclic components iterate
        in :meth:`_run_component`.
        """
        lattice = lattice or self.lattice
        leq = lattice.leq
        join = lattice.join
        components = self.components
        cyclic = self._cyclic
        edges_into = self.edges_into
        edge_lhs = self.edge_lhs
        edge_sources = self.edge_sources
        edge_cover = self.edge_cover
        edge_target = self.edge_target
        solved = visited = 0
        for comp_index in order:
            if cyclic[comp_index]:
                self._run_component(comp_index, values, stats, lattice)
                continue
            in_edges = edges_into[components[comp_index][0]]
            if not in_edges:
                continue
            solved += 1
            visited += len(in_edges)
            for index in in_edges:
                lhs = edge_lhs[index]
                kind = type(lhs)
                if kind is VarTerm:
                    value = values[edge_sources[index][0]]
                elif kind is ConstTerm:
                    value = lhs.label
                else:
                    value = self._evaluate(lhs, lattice, values)
                cover = edge_cover[index]
                if cover is not None and leq(value, cover):
                    continue
                target = edge_target[index]
                current = values[target]
                if not leq(value, current):
                    values[target] = join(current, value)
        if solved:
            stats.components_solved += solved
            stats.edges_visited += visited
            stats.worklist_pops += visited
            stats.max_passes = max(stats.max_passes, 1)

    def propagate(
        self,
        values: List[Label],
        stats: SolverStats,
        component_indices: Optional[Iterable[int]] = None,
    ) -> None:
        """Run the SCC-condensed schedule over ``values`` (by id) in place.

        With ``component_indices`` the schedule is restricted to those
        components (still in topological order); everything else is treated
        as already converged and only read.
        """
        order = (
            range(len(self.components))
            if component_indices is None
            else sorted(component_indices)
        )
        recorder = current_recorder()
        if not recorder.enabled:
            # The disabled hot path: no per-component telemetry work at all.
            self._schedule(order, values, stats)
            return
        counting = CountingLattice(self.lattice, recorder, scope="propagate")
        with recorder.span("solver.propagate", components=len(order)):
            for comp_index in order:
                component = self.components[comp_index]
                if not any(self.edges_into[var] for var in component):
                    continue  # no in-edges: nothing to solve or record
                before = stats.worklist_pops
                with recorder.span(
                    "solver.component",
                    index=comp_index,
                    size=len(component),
                    cyclic=self._cyclic[comp_index],
                ) as span:
                    self._run_component(comp_index, values, stats, counting)
                    span.attrs["pops"] = stats.worklist_pops - before
                recorder.observe(
                    "solver.pops_per_component", stats.worklist_pops - before
                )
        counting.flush()

    def fresh_assignment(
        self, overrides: Optional[Mapping[LabelVar, Label]] = None
    ) -> List[Label]:
        """Every variable at ``⊥``, by id, with ``overrides`` joined on as
        floors (overrides for variables outside the graph are ignored)."""
        lattice = self.lattice
        values = [lattice.bottom] * len(self.variables)
        for var, label in (overrides or {}).items():
            vid = self.id_of(var)
            if vid is not None:
                values[vid] = lattice.join(values[vid], label)
        return values

    def assignment_of(
        self,
        values: Sequence[Label],
        overrides: Optional[Mapping[LabelVar, Label]] = None,
    ) -> Dict[LabelVar, Label]:
        """``values`` (by id) as a ``LabelVar``-keyed assignment, plus the
        ``overrides`` of variables outside the graph (their own floors)."""
        assignment = dict(zip(self.variables, values))
        for var, label in (overrides or {}).items():
            if self.id_of(var) is None:
                assignment[var] = self.lattice.join(self.lattice.bottom, label)
        return assignment

    def solve(
        self,
        overrides: Optional[Mapping[LabelVar, Label]] = None,
        *,
        presolve: bool = False,
    ) -> Solution:
        """Full SCC-scheduled solve; least solution above ``overrides``.

        ``presolve=True`` runs the constant-label reduction
        (:func:`repro.analysis.presolve.presolve_graph`) first: variables
        whose least value is forced by constants alone are fixed up front
        and their components skipped by the schedule, so the Kleene
        iteration only ever sees the *live* region of the graph.  The
        assignment and conflict set are identical either way (property
        tested); only :class:`SolverStats` shows the difference.
        """
        recorder = current_recorder()
        start = time.perf_counter()
        with recorder.span(
            "solver.solve", edges=len(self.edge_target), variables=len(self.variables)
        ):
            stats = self._new_stats()
            values = self.fresh_assignment(overrides)
            skip_components: Optional[Set[int]] = None
            if presolve:
                from repro.analysis.presolve import presolve_graph

                reduction = presolve_graph(self, overrides)
                reduction.apply(values, stats)
                skip_components = reduction.resolved_components
            if skip_components:
                self.propagate(
                    values,
                    stats,
                    (
                        index
                        for index in range(len(self.components))
                        if index not in skip_components
                    ),
                )
            else:
                self.propagate(values, stats)
            conflicts = [c for c in self.check_conflicts(values) if c is not None]
            assignment = self.assignment_of(values, overrides)
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
        if recorder.enabled:
            recorder.count("solver.solves")
            recorder.count("solver.edges_visited", stats.edges_visited)
            recorder.count("solver.worklist_pops", stats.worklist_pops)
            recorder.count("solver.conflicts", len(conflicts))
            if presolve:
                recorder.count(
                    "solver.presolve.vars_resolved", stats.presolve_resolved_vars
                )
                recorder.count(
                    "solver.presolve.edges_pruned", stats.presolve_pruned_edges
                )
        solution = Solution(
            self.lattice,
            assignment,
            conflicts,
            iterations=stats.worklist_pops,
            propagation_count=len(self.edge_target),
            check_count=len(self.checks),
        )
        solution.stats = stats
        solution.graph = self
        return solution

    def _new_stats(self) -> SolverStats:
        return SolverStats(
            variable_count=len(self.variables),
            edge_count=len(self.edge_target),
            check_count=len(self.checks),
            scc_count=len(self.components),
            cyclic_scc_count=self.cyclic_component_count,
            largest_scc=self.largest_component,
            build_ms=self.build_ms,
        )

    # -- checks and unsat cores ---------------------------------------------

    def check_conflicts(
        self,
        values: Sequence[Label],
        check_indices: Optional[Iterable[int]] = None,
    ) -> List[Optional[InferenceConflict]]:
        """Evaluate checks (all, or the given indices) under ``values``.

        The result is aligned with :attr:`checks` when run in full; when
        restricted, it is aligned with ``check_indices`` -- the caller
        (incremental re-solve) merges it into its cached per-check slots.
        """
        indices = list(
            range(len(self.checks)) if check_indices is None else check_indices
        )
        recorder = current_recorder()
        lattice: Lattice = self.lattice
        if recorder.enabled:
            lattice = CountingLattice(self.lattice, recorder, scope="check")
        results: List[Optional[InferenceConflict]] = []
        with recorder.span("solver.check", checks=len(indices)):
            for index in indices:
                lhs, rhs, origin = self.checks[index]
                observed = self._evaluate(lhs, lattice, values)
                required = self._evaluate(rhs, lattice, values)
                if lattice.leq(observed, required):
                    results.append(None)
                else:
                    core = self.unsat_core(values, lhs, required)
                    results.append(
                        InferenceConflict(origin, observed, required, tuple(core))
                    )
        if recorder.enabled:
            recorder.count("solver.checks_evaluated", len(indices))
            lattice.flush()
        return results

    def unsat_core(
        self, values: Sequence[Label], lhs: Term, bound: Label
    ) -> List[Constraint]:
        """Slice backwards from ``lhs`` through the edges that pushed it
        above ``bound``.

        A breadth-first walk (a :class:`~collections.deque`, so the whole
        slice is linear in the edges it touches) from the variables of the
        violated check back towards the annotated sources: a variable is
        *blamed* when its solved value does not fit under the bound, and
        every edge into a blamed variable whose own value also exceeds the
        bound contributes its originating constraints.  The resulting core
        is ordered from the conflicting check back towards the sources.
        """
        recorder = current_recorder()
        with recorder.span("solver.unsat-core"):
            return self._unsat_core(values, lhs, bound)

    def _unsat_core(
        self, values: Sequence[Label], lhs: Term, bound: Label
    ) -> List[Constraint]:
        lattice = self.lattice
        blamed: deque = deque(
            vid for vid in self.term_ids(lhs) if not lattice.leq(values[vid], bound)
        )
        visited: Set[int] = set(blamed)
        core: List[Constraint] = []
        in_core: Set[Constraint] = set()
        while blamed:
            vid = blamed.popleft()
            for index in self.edges_into[vid]:
                value = self.edge_value(index, values)
                cover = self.edge_cover[index]
                if cover is not None and lattice.leq(value, cover):
                    continue  # the edge propagated nothing (flow was covered)
                if lattice.leq(value, bound):
                    continue  # this edge alone kept the variable within bounds
                for origin in self.edge_constraints(index):
                    if origin not in in_core:
                        in_core.add(origin)
                        core.append(origin)
                for upstream in self.edge_sources[index]:
                    if upstream not in visited and not lattice.leq(
                        values[upstream], bound
                    ):
                        visited.add(upstream)
                        blamed.append(upstream)
        return core
