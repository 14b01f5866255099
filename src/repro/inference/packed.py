"""The bit-packed, parallel solver backend (``solve(..., backend="packed")``).

The SCC-condensed scheduler in :mod:`repro.inference.graph` already visits
each edge a near-optimal number of times; what remains at 10k+ constraints
is pure interpreter overhead -- per-edge :func:`~repro.inference.terms.evaluate`
recursion, per-operation lattice method calls, membership ``require``
checks, frozenset unions.  This module removes that constant factor by
changing the *data layout*, not the algorithm:

* **Int codec** -- labels of structured lattices embed into machine
  integers so the lattice operations become single int instructions:
  ``join = |``, ``meet = &``, ``leq(a, b) = (a | b == b)``.  Powersets get
  one bit per principal, chains the rank-unary encoding ``L_i ↦ 2^i - 1``,
  products the concatenation of their component codecs, and any other
  finite lattice the generic Birkhoff embedding over its join-irreducible
  elements -- *verified exhaustively* against the object lattice at build
  time, so a lattice the encoding cannot represent faithfully (any
  non-distributive order) is rejected and the solver falls back to the
  object backend instead of computing wrong joins.

* **Flattened propagation arrays** -- the deduplicated
  :class:`~repro.inference.graph.PropagationGraph` edges compile into flat
  parallel tuples ``(target, const_bits, source_indices, cover_bits)``
  (plus one ``eval``-compiled int expression per edge whose left side
  mixes joins and meets), and variables into integer indices, so the inner
  loop touches only small ints and a flat list.

* **Batched Kleene sweeps** -- maximal runs of consecutive *acyclic*
  components in the topological component order collapse into one edge
  block swept exactly once (the SCC schedule guarantees every source is
  final when its edge is reached); cyclic components iterate locally with
  whole-block sweeps until a sweep changes nothing.

* **Parallel component scheduling** -- the condensation's weakly connected
  *clusters* (maximal groups of SCC components linked by any edge) are
  mutually independent, so they dispatch concurrently across a
  ``ProcessPoolExecutor`` in topological waves; every worker runs the same
  batched sweeps over its clusters and returns only its cluster's solved
  bits.  Results are byte-identical for any worker count because clusters
  write disjoint variable sets and merge in cluster order.

The backend is *exactly* equivalent to the object backends: the packed
fixpoint is decoded back through the codec and the checks, unsat cores,
witnesses, and pre-solve reduction all run over the same
:class:`PropagationGraph` and the same (object) assignment, so
``tests/test_packed_backend.py`` pins solutions, conflicts, cores and
leak-path witnesses bit-for-bit against ``backend="graph"`` and
:func:`~repro.inference.solve.solve_worklist`.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.inference.constraints import Constraint
from repro.inference.solve import InferenceError, Solution
from repro.inference.terms import ConstTerm, JoinTerm, LabelVar, MeetTerm, Term, VarTerm
from repro.lattice.base import Label, Lattice, LatticeError
from repro.lattice.chain import ChainLattice
from repro.lattice.finite import FiniteLattice
from repro.lattice.policy import PolicyLattice
from repro.lattice.powerset import PowersetLattice
from repro.lattice.product import ProductLattice
from repro.telemetry.recorder import current_recorder


class CodecError(LatticeError):
    """The lattice has no faithful bitset encoding (or the label is foreign)."""


# ---------------------------------------------------------------------------
# label codecs


class LabelCodec:
    """An order-embedding of a lattice into int bitsets.

    The contract every codec guarantees (and :class:`TableCodec` verifies
    exhaustively): for all labels ``a``, ``b`` of the lattice,

    * ``decode(encode(a)) == a`` (the embedding is injective and ``decode``
      is its inverse on the image),
    * ``leq(a, b)  ⇔  encode(a) | encode(b) == encode(b)``,
    * ``encode(join(a, b)) == encode(a) | encode(b)``,
    * ``encode(meet(a, b)) == encode(a) & encode(b)``,
    * ``encode(bottom) == 0``.
    """

    #: Number of bits the encoding uses.
    width: int = 0

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice

    def encode(self, label: Label) -> int:
        raise NotImplementedError

    def decode(self, bits: int) -> Label:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}({self.lattice.name}, {self.width} bit(s))"


class PowersetCodec(LabelCodec):
    """One bit per principal; join/meet are exactly ``|`` / ``&``."""

    def __init__(self, lattice: PowersetLattice) -> None:
        super().__init__(lattice)
        self._principals: Tuple[str, ...] = tuple(lattice.principals)
        self._bit_of: Dict[str, int] = {
            principal: 1 << index for index, principal in enumerate(self._principals)
        }
        self.width = len(self._principals)

    def encode(self, label: Label) -> int:
        bits = 0
        try:
            for principal in label:  # type: ignore[union-attr]
                bits |= self._bit_of[principal]
        except (TypeError, KeyError) as exc:
            raise CodecError(
                f"label {label!r} is not a subset of {self.lattice.name!r}"
            ) from exc
        return bits

    def decode(self, bits: int) -> Label:
        if bits >> self.width:
            raise CodecError(f"bit pattern {bits:#x} exceeds {self.width} principals")
        return frozenset(
            principal
            for index, principal in enumerate(self._principals)
            if bits >> index & 1
        )


class ChainCodec(LabelCodec):
    """Rank-unary encoding: level ``i`` becomes the ``i`` lowest bits set.

    The images are nested (``2^i - 1 ⊆ 2^j - 1`` iff ``i <= j``), so the
    total order, max-join and min-meet all coincide with the bitset
    operations.
    """

    def __init__(self, lattice: ChainLattice) -> None:
        super().__init__(lattice)
        self._levels: Tuple[str, ...] = tuple(lattice.levels)
        self._rank_of: Dict[Label, int] = {
            level: index for index, level in enumerate(self._levels)
        }
        self.width = len(self._levels) - 1

    def encode(self, label: Label) -> int:
        rank = self._rank_of.get(label)
        if rank is None:
            raise CodecError(f"label {label!r} is not a level of {self.lattice.name!r}")
        return (1 << rank) - 1

    def decode(self, bits: int) -> Label:
        rank = bits.bit_length()
        if bits != (1 << rank) - 1 or rank >= len(self._levels):
            raise CodecError(f"bit pattern {bits:#x} is not a rank of {self.lattice.name!r}")
        return self._levels[rank]


class ProductCodec(LabelCodec):
    """Component codecs concatenated: the left component in the high bits."""

    def __init__(self, lattice: ProductLattice, left: LabelCodec, right: LabelCodec) -> None:
        super().__init__(lattice)
        self._left = left
        self._right = right
        self.width = left.width + right.width

    def encode(self, label: Label) -> int:
        if not isinstance(label, tuple) or len(label) != 2:
            raise CodecError(f"label {label!r} is not a pair of {self.lattice.name!r}")
        return self._left.encode(label[0]) << self._right.width | self._right.encode(
            label[1]
        )

    def decode(self, bits: int) -> Label:
        mask = (1 << self._right.width) - 1
        return (self._left.decode(bits >> self._right.width), self._right.decode(bits & mask))


class PolicyCodec(LabelCodec):
    """Policy labels packed as purpose bits | recipient bits | retention rank.

    Purposes take the lowest bits (declaration order), recipients the next
    block, and the retention chain the highest block in the rank-unary
    spelling (class ``i`` becomes the ``i`` lowest bits of the block).  All
    three components are distributive, so the concatenation satisfies the
    full codec contract by construction — no carrier enumeration, which is
    the point: a 216-principal policy lattice encodes into one 223-bit int.
    """

    def __init__(self, lattice: "PolicyLattice") -> None:
        super().__init__(lattice)
        self._purpose_bit: Dict[str, int] = {
            name: 1 << index for index, name in enumerate(lattice.purposes)
        }
        offset = len(lattice.purposes)
        self._recipient_bit: Dict[str, int] = {
            name: 1 << (offset + index)
            for index, name in enumerate(lattice.recipients)
        }
        self._retention_shift = offset + len(lattice.recipients)
        self._levels: Tuple[str, ...] = tuple(lattice.retention_classes)
        self.width = self._retention_shift + len(self._levels) - 1

    def encode(self, label: Label) -> int:
        try:
            bits = 0
            for purpose in label.purposes:  # type: ignore[union-attr]
                bits |= self._purpose_bit[purpose]
            for recipient in label.recipients:  # type: ignore[union-attr]
                bits |= self._recipient_bit[recipient]
            rank = self._levels.index(label.retention)  # type: ignore[union-attr]
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            raise CodecError(
                f"label {label!r} is not a member of {self.lattice.name!r}"
            ) from exc
        return bits | ((1 << rank) - 1) << self._retention_shift

    def decode(self, bits: int) -> Label:
        if bits >> self.width:
            raise CodecError(
                f"bit pattern {bits:#x} exceeds {self.width} bits of "
                f"{self.lattice.name!r}"
            )
        retention_bits = bits >> self._retention_shift
        rank = retention_bits.bit_length()
        if retention_bits != (1 << rank) - 1:
            raise CodecError(
                f"bit pattern {bits:#x} has a non-rank retention block for "
                f"{self.lattice.name!r}"
            )
        from repro.lattice.policy import PolicyLabel

        return PolicyLabel(
            frozenset(
                name for name, bit in self._purpose_bit.items() if bits & bit
            ),
            frozenset(
                name for name, bit in self._recipient_bit.items() if bits & bit
            ),
            self._levels[rank],
        )


class TableCodec(LabelCodec):
    """The Birkhoff embedding for any (small) finite lattice.

    Every label maps to the set of join-irreducible elements below it.
    The map is an order embedding for *any* finite lattice and turns
    meets into intersections; joins become unions exactly when the
    lattice is distributive -- which is why construction verifies the
    full contract over the carrier and raises :class:`CodecError` for
    anything it cannot represent faithfully (e.g. the M3 diamond), so
    the caller falls back to the object backend instead of mis-solving.
    """

    #: Refuse to enumerate carriers larger than this (a structured codec
    #: should exist for them instead).
    MAX_CARRIER = 1024

    def __init__(self, lattice: Lattice) -> None:
        super().__init__(lattice)
        members: List[Label] = []
        for label in lattice.labels():
            members.append(label)
            if len(members) > self.MAX_CARRIER:
                raise CodecError(
                    f"lattice {lattice.name!r} has more than {self.MAX_CARRIER} "
                    f"labels; no generic bitset encoding is attempted"
                )
        # A label is join-irreducible when it is not the join of the labels
        # strictly below it (bottom, the empty join, never is).
        irreducibles = [
            label
            for label in members
            if not lattice.equal(
                label,
                lattice.join_all(m for m in members if lattice.lt(m, label)),
            )
        ]
        self.width = len(irreducibles)
        self._encode_table: Dict[Label, int] = {}
        self._decode_table: Dict[int, Label] = {}
        for label in members:
            bits = 0
            for index, irreducible in enumerate(irreducibles):
                if lattice.leq(irreducible, label):
                    bits |= 1 << index
            if bits in self._decode_table:
                raise CodecError(
                    f"lattice {lattice.name!r}: labels {self._decode_table[bits]!r} "
                    f"and {label!r} encode identically; not embeddable"
                )
            self._encode_table[label] = bits
            self._decode_table[bits] = label
        self._verify(members)

    def _verify(self, members: Sequence[Label]) -> None:
        lattice = self.lattice
        encode = self._encode_table
        if encode[lattice.bottom] != 0:
            raise CodecError(f"lattice {lattice.name!r}: bottom does not encode to 0")
        for a in members:
            ea = encode[a]
            for b in members:
                eb = encode[b]
                if lattice.leq(a, b) != (ea | eb == eb):
                    raise CodecError(
                        f"lattice {lattice.name!r}: order of {a!r} ⊑ {b!r} "
                        f"disagrees with the subset test; not embeddable"
                    )
                if encode[lattice.join(a, b)] != ea | eb:
                    raise CodecError(
                        f"lattice {lattice.name!r}: join({a!r}, {b!r}) is not "
                        f"bitwise-or (the lattice is not distributive)"
                    )
                if encode[lattice.meet(a, b)] != ea & eb:
                    raise CodecError(
                        f"lattice {lattice.name!r}: meet({a!r}, {b!r}) is not "
                        f"bitwise-and (the lattice is not distributive)"
                    )

    def encode(self, label: Label) -> int:
        bits = self._encode_table.get(label)
        if bits is None:
            raise CodecError(f"label {label!r} is not a member of {self.lattice.name!r}")
        return bits

    def decode(self, bits: int) -> Label:
        label = self._decode_table.get(bits)
        if label is None:
            raise CodecError(
                f"bit pattern {bits:#x} encodes no label of {self.lattice.name!r}"
            )
        return label


def _build_codec(lattice: Lattice) -> LabelCodec:
    if isinstance(lattice, PolicyLattice):
        return PolicyCodec(lattice)
    if isinstance(lattice, PowersetLattice):
        return PowersetCodec(lattice)
    if isinstance(lattice, ChainLattice):
        return ChainCodec(lattice)
    if isinstance(lattice, ProductLattice):
        return ProductCodec(lattice, _build_codec(lattice.left), _build_codec(lattice.right))
    if isinstance(lattice, FiniteLattice):
        return TableCodec(lattice)
    raise CodecError(
        f"lattice {lattice.name!r} ({type(lattice).__name__}) has no int encoding"
    )


def codec_for(lattice: Lattice) -> Optional[LabelCodec]:
    """A verified int codec for ``lattice``, or ``None`` when unencodable.

    ``None`` is the fallback signal: :func:`solve_packed` then delegates to
    the object-lattice graph backend (and records why in
    :attr:`~repro.inference.graph.SolverStats.fallback_reason`).
    """
    try:
        return _build_codec(lattice)
    except CodecError:
        return None


# ---------------------------------------------------------------------------
# edge compilation


def _term_spec(
    term: Term, sources: Tuple[int, ...], codec: LabelCodec, graph
) -> Tuple[int, Optional[Tuple[int, ...]], Optional[str]]:
    """Compile one left-hand term to ``(const_bits, sources, expr)``.

    ``sources`` are ``graph``'s ids of the term's variables.  Join-shaped
    terms (the overwhelming majority) become the *fast* form: constant
    bits plus a tuple of source variable ids, OR-ed inline by the sweep
    loop.  Anything containing a meet compiles to a Python int expression
    over ``V`` (the values list), evaluated as one call per edge -- still
    orders of magnitude cheaper than the recursive object evaluator.
    """
    if isinstance(term, VarTerm):
        return 0, sources, None
    if isinstance(term, ConstTerm):
        return codec.encode(term.label), (), None
    if isinstance(term, JoinTerm) and all(
        isinstance(part, (ConstTerm, VarTerm)) for part in term.parts
    ):
        const = 0
        parts: List[int] = []
        for part in term.parts:
            if isinstance(part, ConstTerm):
                const |= codec.encode(part.label)
            else:
                parts.append(graph.id_of(part.var))
        return const, tuple(parts), None
    return 0, None, _term_expr(term, codec, graph)


def _term_expr(term: Term, codec: LabelCodec, graph) -> str:
    if isinstance(term, ConstTerm):
        return str(codec.encode(term.label))
    if isinstance(term, VarTerm):
        return f"V[{graph.id_of(term.var)}]"
    if isinstance(term, JoinTerm):
        return "(" + " | ".join(_term_expr(p, codec, graph) for p in term.parts) + ")"
    if isinstance(term, MeetTerm):
        return "(" + " & ".join(_term_expr(p, codec, graph) for p in term.parts) + ")"
    raise CodecError(f"cannot compile {type(term).__name__} to an int expression")


def _compile_expr(expr: str) -> Callable[[Any], int]:
    return eval("lambda V: " + expr, {"__builtins__": {}})  # noqa: S307


#: One compiled edge: (target index, constant bits, source index tuple or
#: None, cover bits or None, compiled expression or None).  ``sources`` is
#: None exactly when ``fn`` is set.
_CompiledEdge = Tuple[int, int, Optional[Tuple[int, ...]], Optional[int], Optional[Callable]]


def _compile_edges(
    specs: Sequence[Tuple[int, int, Optional[Tuple[int, ...]], Optional[int], Optional[str]]],
) -> List[_CompiledEdge]:
    return [
        (target, const, sources, cover, None if expr is None else _compile_expr(expr))
        for target, const, sources, cover, expr in specs
    ]


def _flow(
    edge: Tuple[int, Optional[Tuple[int, ...]], Optional[int], Optional[Callable]],
    values: Any,
) -> Optional[int]:
    """The bits a general compiled edge carries, or None when covered."""
    const, sources, cover, fn = edge
    if fn is None:
        value = const
        for source in sources:  # type: ignore[union-attr]
            value |= values[source]
    else:
        value = fn(values)
    if cover is not None and value | cover == cover:
        return None  # the join's constant part absorbs the flow
    return value


#: A block of compiled edges as the sweeps read it: target ids and source
#: ids as flat int arrays, one entry per source of each join-shaped edge
#: (``values[target] |= values[source]``; join distributes, so an edge
#: ``a ⊔ b → t`` is the two copies ``a → t`` and ``b → t``), source -1
#: marking a general edge (constant bits, a cover or a compiled
#: expression), whose ``(const, sources, cover, fn)`` follow in block
#: order; and the number of edges.  Flat arrays keep the sweep's reads
#: sequential: the int objects in a list of per-edge tuples lie wherever
#: the graph build allocated them.
_Block = Tuple["array[int]", "array[int]", List[Any], int]


def _block(edges: Sequence[_CompiledEdge]) -> _Block:
    targets: List[int] = []
    sources: List[int] = []
    general: List[Any] = []
    for target, const, edge_sources, cover, fn in edges:
        if fn is None and cover is None and not const:
            for source in edge_sources:  # type: ignore[union-attr]
                targets.append(target)
                sources.append(source)
        else:
            targets.append(target)
            sources.append(-1)
            general.append((const, edge_sources, cover, fn))
    return array("q", targets), array("q", sources), general, len(edges)


def _build_plan(
    compiled: Sequence[_CompiledEdge],
    comp_edges: Sequence[Sequence[int]],
    cyclic: Sequence[bool],
    comp_vars: Sequence[Tuple[int, ...]],
    order: Iterable[int],
) -> List[Tuple[str, _Block, int]]:
    """Blocks in schedule order for the components ``order`` names.

    Consecutive acyclic components collapse into one ``("sweep", block,
    components)`` entry: in topological order each of their edges reads
    only final values, so a single batched pass over the concatenation is
    exactly the per-component schedule (this is what removes the
    per-component interpreter overhead at 1M singleton components).  A
    cyclic component is one ``("iterate", block, size)`` entry.
    """
    plan: List[Tuple[str, _Block, int]] = []
    run: List[_CompiledEdge] = []
    run_size = 0
    for comp_index in order:
        edges = [compiled[i] for i in comp_edges[comp_index]]
        if cyclic[comp_index]:
            if run:
                plan.append(("sweep", _block(run), run_size))
                run, run_size = [], 0
            plan.append(("iterate", _block(edges), len(comp_vars[comp_index])))
        elif edges:
            run.extend(edges)
            run_size += 1
    if run:
        plan.append(("sweep", _block(run), run_size))
    return plan


def _sweep_once(block: _Block, values: Any) -> None:
    """One batched pass over an acyclic edge block (every source final)."""
    targets, sources, general, _edges = block
    pending = iter(general)
    for target, source in zip(targets, sources):
        if source >= 0:
            values[target] |= values[source]
        else:
            value = _flow(next(pending), values)
            if value is not None:
                values[target] |= value


def _sweep(block: _Block, values: Any) -> bool:
    """One batched pass over an edge block; True when anything rose."""
    targets, sources, general, _edges = block
    pending = iter(general)
    changed = False
    for target, source in zip(targets, sources):
        if source >= 0:
            value = values[source]
        else:
            value = _flow(next(pending), values)
            if value is None:
                continue
        current = values[target]
        merged = current | value
        if merged != current:
            values[target] = merged
            changed = True
    return changed


def _run_plan(
    plan: Sequence[Tuple[str, Any]], values: Any, height: int
) -> Tuple[int, int, int, int]:
    """Run compiled blocks over ``values``; (pops, sweeps, max_passes, comps).

    ``("sweep", block)`` entries are single batched passes over a run of
    consecutive acyclic components; ``("iterate", block, size)`` entries
    are one cyclic component swept to a local fixpoint.  The iteration
    budget mirrors the object scheduler's ascending-chain guard.
    """
    pops = 0
    sweeps = 0
    max_passes = 0
    components = 0
    for kind, block, size in plan:
        components += size if kind == "sweep" else 1
        edges = block[3]
        if kind == "sweep":
            _sweep_once(block, values)
            pops += edges
            sweeps += 1
            max_passes = max(max_passes, 1)
            continue
        passes = 0
        budget = (size + 1) * height + 2
        while True:
            passes += 1
            if passes > budget:
                raise InferenceError(
                    "constraint solving did not converge; the lattice violates "
                    "the ascending chain condition"
                )
            pops += edges
            sweeps += 1
            if not _sweep(block, values):
                break
        max_passes = max(max_passes, passes)
    return pops, sweeps, max_passes, components


# ---------------------------------------------------------------------------
# the packed system


class PackedSystem:
    """A :class:`PropagationGraph` flattened into int arrays, built once.

    Variables keep the graph's dense ids, and the graph's per-id arrays
    (edge sources and targets, components, component of each id) are
    read as they are.  On top of them this holds the codec, the per-edge
    compiled specs, the per-component edge blocks, the topological *wave*
    of every component (the earliest round in which all of its
    dependencies are final) and the weakly connected *clusters* of the
    condensation -- the units the parallel scheduler dispatches.
    Instances cache on the graph (one encode per graph), so repeated
    solves pay only the sweeps.
    """

    def __init__(self, graph, codec: LabelCodec) -> None:
        start = time.perf_counter()
        self.graph = graph
        self.codec = codec
        encode = codec.encode
        #: Picklable per-edge specs (expressions kept as source strings so
        #: worker processes can compile them locally).
        self.edge_specs: List[
            Tuple[int, int, Optional[Tuple[int, ...]], Optional[int], Optional[str]]
        ] = []
        for lhs, target, sources, cover in zip(
            graph.edge_lhs, graph.edge_target, graph.edge_sources, graph.edge_cover
        ):
            if type(lhs) is VarTerm:
                const, fast, expr = 0, sources, None
            else:
                const, fast, expr = _term_spec(lhs, sources, codec, graph)
            self.edge_specs.append(
                (target, const, fast, None if cover is None else encode(cover), expr)
            )
        edges_into = graph.edges_into
        #: In-edge indices of every component, in component order.
        self.comp_edges: List[List[int]] = [
            edges_into[component[0]]
            if len(component) == 1
            else [index for vid in component for index in edges_into[vid]]
            for component in graph.components
        ]
        #: Member ids of every component.
        self.comp_vars: List[Tuple[int, ...]] = graph.components
        self.cyclic: List[bool] = list(graph._cyclic)
        self.height: int = graph._height
        self.wave_of: List[int] = self._waves()
        self.cluster_members: List[List[int]] = self._clusters()
        self._wave_count: Optional[int] = None
        self._max_wave_width: Optional[int] = None
        self._compiled: Optional[List[_CompiledEdge]] = None
        self._default_plan: Optional[List[Tuple[str, _Block, int]]] = None
        self._decoded: Dict[int, Label] = {}
        self.encode_ms = (time.perf_counter() - start) * 1000.0

    # -- structure ----------------------------------------------------------

    def _waves(self) -> List[int]:
        """Topological wave of each component: 0 for components with no
        cross-component in-edges, else 1 + the latest feeding wave."""
        edge_sources = self.graph.edge_sources
        component_of = self.graph.component_of
        waves: List[int] = []
        for comp_index, in_edges in enumerate(self.comp_edges):
            wave = 0
            for edge_index in in_edges:
                for source in edge_sources[edge_index]:
                    source_comp = component_of[source]
                    if source_comp != comp_index and waves[source_comp] >= wave:
                        wave = waves[source_comp] + 1
            waves.append(wave)
        return waves

    def _clusters(self) -> List[List[int]]:
        """Weakly connected clusters of the condensation, via union-find.

        Two components belong to one cluster when any propagation edge
        links them (in either direction); distinct clusters share no
        variables, so they solve independently -- the parallel dispatch
        unit.  Members are kept in (topological) component order.
        """
        edge_sources = self.graph.edge_sources
        component_of = self.graph.component_of
        parent = list(range(len(self.comp_edges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # Components arrive in topological order, so when a component's
        # turn comes nothing has been merged into it yet: it is its own
        # root, and each merge with a source's root keeps the lower one.
        for comp_index, in_edges in enumerate(self.comp_edges):
            root = comp_index
            for edge_index in in_edges:
                for source in edge_sources[edge_index]:
                    other = component_of[source]
                    if parent[other] != other:
                        other = find(other)
                    if other < root:
                        parent[root] = other
                        root = other
                    elif other > root:
                        parent[other] = root
        members: Dict[int, List[int]] = defaultdict(list)
        for comp_index in range(len(self.comp_edges)):
            members[find(comp_index)].append(comp_index)
        return [members[root] for root in sorted(members)]

    @property
    def wave_count(self) -> int:
        if self._wave_count is None:
            self._wave_count = max(self.wave_of, default=-1) + 1
        return self._wave_count

    @property
    def max_wave_width(self) -> int:
        if self._max_wave_width is None:
            widths: Dict[int, int] = defaultdict(int)
            for wave in self.wave_of:
                widths[wave] += 1
            self._max_wave_width = max(widths.values(), default=0)
        return self._max_wave_width

    def decode_values(self, values: Sequence[int]) -> List[Label]:
        """``values`` (bit array by id) as labels by id.

        Distinct bit patterns in a fixpoint are at most the carrier size,
        so decoding memoises per pattern, across solves, and maps in C
        (``map``); only a solve that reaches a new pattern scans for them.
        """
        table = self._decoded
        try:
            return list(map(table.__getitem__, values))
        except KeyError:
            decode = self.codec.decode
            for bits in set(values).difference(table):
                table[bits] = decode(bits)
            return list(map(table.__getitem__, values))

    # -- compilation --------------------------------------------------------

    def compiled(self) -> List[_CompiledEdge]:
        if self._compiled is None:
            self._compiled = _compile_edges(self.edge_specs)
        return self._compiled

    def plan(
        self, skip: Optional[Set[int]] = None, component_indices: Optional[Iterable[int]] = None
    ) -> List[Tuple[str, _Block, int]]:
        """Compiled blocks in schedule order (see :func:`_build_plan`).

        ``skip`` drops pre-solved components; ``component_indices``
        restricts (and sorts) the schedule like
        :meth:`PropagationGraph.propagate`.
        """
        if skip is None and component_indices is None and self._default_plan is not None:
            return self._default_plan
        order: Iterable[int] = (
            range(len(self.comp_edges))
            if component_indices is None
            else sorted(component_indices)
        )
        if skip is not None:
            order = [comp_index for comp_index in order if comp_index not in skip]
        plan = _build_plan(
            self.compiled(), self.comp_edges, self.cyclic, self.comp_vars, order
        )
        if skip is None and component_indices is None:
            self._default_plan = plan
        return plan

    def worker_payload(self) -> Dict[str, Any]:
        """Everything a worker process needs, picklable."""
        return {
            "edge_specs": self.edge_specs,
            "comp_edges": self.comp_edges,
            "comp_vars": self.comp_vars,
            "cyclic": self.cyclic,
            "height": self.height,
        }


def packed_system_for(graph, codec: Optional[LabelCodec] = None) -> "PackedSystem":
    """The (cached) packed form of ``graph``; one encode per graph."""
    cached = getattr(graph, "_packed_system", None)
    if cached is not None and (codec is None or cached.codec is codec):
        return cached
    resolved = codec or _build_codec(graph.lattice)
    system = PackedSystem(graph, resolved)
    graph._packed_system = system
    return system


# ---------------------------------------------------------------------------
# worker-side solving (module level so ProcessPoolExecutor can pickle it)

_WORKER_STATE: Optional[Dict[str, Any]] = None


def _worker_init(payload: Dict[str, Any]) -> None:
    global _WORKER_STATE
    payload = dict(payload)
    payload["compiled"] = _compile_edges(payload["edge_specs"])
    _WORKER_STATE = payload


def _worker_solve(
    task: Tuple[Sequence[int], Sequence[Tuple[int, int]]],
) -> Tuple[List[Tuple[int, int]], Tuple[int, int, int, int]]:
    """Solve one batch of clusters: (comp ids, floor bits) -> solved bits.

    Clusters are weakly connected closures, so every variable an edge in
    the batch reads lives inside the batch; values start at the floors
    (pins and pre-solved components) and ``defaultdict(int)`` supplies the
    ``⊥ = 0`` default, letting compiled expressions index it like a list.
    """
    assert _WORKER_STATE is not None, "worker used before initialisation"
    state = _WORKER_STATE
    comp_ids, floors = task
    values: Any = defaultdict(int, floors)
    plan = _build_plan(
        state["compiled"], state["comp_edges"], state["cyclic"], state["comp_vars"], comp_ids
    )
    counters = _run_plan(plan, values, state["height"])
    results: List[Tuple[int, int]] = []
    for comp_index in comp_ids:
        for var_index in state["comp_vars"][comp_index]:
            results.append((var_index, values[var_index]))
    return results, counters


# ---------------------------------------------------------------------------
# the backend entry point


def _fallback(graph, overrides, presolve: bool, reason: str) -> Solution:
    solution = graph.solve(overrides, presolve=presolve)
    if solution.stats is not None:
        solution.stats.backend = "graph"
        solution.stats.fallback_reason = reason
    recorder = current_recorder()
    if recorder.enabled:
        recorder.count("solver.packed.fallbacks")
    return solution


def _parallel_tasks(
    system: PackedSystem,
    values: Sequence[int],
    skip: Optional[Set[int]],
    workers: int,
) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
    """Round-robin the clusters into ``workers`` batches of (comps, floors).

    Batching keeps IPC at one task per worker rather than one per cluster;
    determinism is unaffected because clusters are disjoint and the merge
    only writes each variable once.  Floors carry every non-bottom value of
    the batch's clusters -- override pins *and* pre-solved (skipped)
    components, whose values downstream edges in the same cluster read.
    """
    batches: List[List[List[int]]] = [[] for _ in range(workers)]
    for index, members in enumerate(system.cluster_members):
        batches[index % workers].append(members)
    tasks: List[Tuple[List[int], List[Tuple[int, int]]]] = []
    for clusters in batches:
        comp_ids: List[int] = []
        floors: List[Tuple[int, int]] = []
        for members in clusters:
            for comp_index in members:
                if not (skip and comp_index in skip):
                    comp_ids.append(comp_index)
                for var_index in system.comp_vars[comp_index]:
                    if values[var_index]:
                        floors.append((var_index, values[var_index]))
        if comp_ids:
            tasks.append((comp_ids, floors))
    return tasks


def solve_packed(
    lattice: Lattice,
    constraints: Optional[Sequence[Constraint]] = None,
    *,
    presolve: bool = False,
    workers: int = 1,
    graph=None,
    overrides: Optional[Mapping[LabelVar, Label]] = None,
) -> Solution:
    """Least solution via the bit-packed backend; exact graph-backend parity.

    Builds (or reuses) the :class:`PropagationGraph`, encodes it into a
    cached :class:`PackedSystem`, runs the batched Kleene sweeps -- serial,
    or with independent clusters dispatched over ``workers`` processes --
    decodes the fixpoint, and evaluates checks/cores over the *object*
    graph so conflicts, unsat cores and witnesses are identical to
    ``backend="graph"`` by construction.  Falls back to the object backend
    (recording :attr:`SolverStats.fallback_reason`) when the lattice has no
    faithful int encoding.
    """
    from repro.inference.graph import PropagationGraph

    if graph is None:
        graph = PropagationGraph(lattice, list(constraints or ()))
    recorder = current_recorder()
    start = time.perf_counter()
    with recorder.span(
        "solver.solve",
        edges=len(graph.edge_target),
        variables=len(graph.variables),
        backend="packed",
    ):
        stats = graph._new_stats()
        stats.backend = "packed"
        stats.workers = max(1, workers)
        try:
            with recorder.span("solver.encode"):
                system = packed_system_for(graph)
        except CodecError as exc:
            return _fallback(graph, overrides, presolve, str(exc))
        codec = system.codec
        stats.encode_ms = system.encode_ms
        stats.waves = system.wave_count
        stats.max_wave_width = system.max_wave_width
        stats.clusters = len(system.cluster_members)

        values: List[int] = [0] * len(graph.variables)
        for var, label in (overrides or {}).items():
            index = graph.id_of(var)
            if index is not None:
                values[index] |= codec.encode(label)
        skip: Optional[Set[int]] = None
        if presolve:
            from repro.analysis.presolve import presolve_graph

            reduction = presolve_graph(graph, overrides)
            for index, label in reduction.by_id.items():
                values[index] = codec.encode(label)
            skip = reduction.resolved_components
            stats.presolve_resolved_vars = reduction.resolved_count
            stats.presolve_pruned_edges = reduction.pruned_edges
            stats.presolve_ms = reduction.elapsed_ms

        use_workers = stats.workers > 1 and len(system.cluster_members) > 1
        with recorder.span(
            "solver.packed",
            clusters=len(system.cluster_members),
            waves=system.wave_count,
            workers=stats.workers if use_workers else 1,
        ):
            if use_workers:
                _solve_parallel(system, values, skip, stats)
            else:
                pops, sweeps, max_passes, comps = _run_plan(
                    system.plan(skip), values, system.height
                )
                stats.worklist_pops += pops
                stats.sweeps += sweeps
                stats.max_passes = max(stats.max_passes, max_passes)
                stats.components_solved += comps
        if skip:
            stats.edges_visited = len(system.edge_specs) - sum(
                len(system.comp_edges[i]) for i in skip
            )
        else:
            stats.edges_visited = len(system.edge_specs)

        with recorder.span("solver.decode"):
            labels = system.decode_values(values)
        conflicts = [c for c in graph.check_conflicts(labels) if c is not None]
        assignment = graph.assignment_of(labels)
    stats.solve_ms = (time.perf_counter() - start) * 1000.0
    if recorder.enabled:
        recorder.count("solver.solves")
        recorder.count("solver.packed.solves")
        recorder.count("solver.packed.sweeps", stats.sweeps)
        recorder.count("solver.edges_visited", stats.edges_visited)
        recorder.count("solver.worklist_pops", stats.worklist_pops)
        recorder.count("solver.conflicts", len(conflicts))
    solution = Solution(
        lattice,
        assignment,
        conflicts,
        iterations=stats.worklist_pops,
        propagation_count=len(graph.edge_target),
        check_count=len(graph.checks),
    )
    solution.stats = stats
    solution.graph = graph
    return solution


def _solve_parallel(
    system: PackedSystem, values: List[int], skip: Optional[Set[int]], stats
) -> None:
    """Dispatch independent cluster batches across a process pool.

    Floors (override pins and pre-solved values) ship with each batch;
    workers return their batch's solved bits, merged in completion-safe
    batch order.  Any pool failure (fork unavailable, pickling trouble)
    degrades to the serial plan -- same results, one process.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    tasks = _parallel_tasks(system, values, skip, stats.workers)
    if not tasks:
        return
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        context = multiprocessing.get_context()
    try:
        with ProcessPoolExecutor(
            max_workers=min(stats.workers, len(tasks)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(system.worker_payload(),),
        ) as pool:
            outcomes = list(pool.map(_worker_solve, tasks))
    except (OSError, ValueError) as exc:  # pragma: no cover - pool unavailable
        current_recorder().count("solver.packed.pool_failures")
        stats.fallback_reason = f"process pool unavailable ({exc}); solved serially"
        pops, sweeps, max_passes, comps = _run_plan(
            system.plan(skip), values, system.height
        )
        stats.worklist_pops += pops
        stats.sweeps += sweeps
        stats.max_passes = max(stats.max_passes, max_passes)
        stats.components_solved += comps
        return
    for results, (pops, sweeps, max_passes, comps) in outcomes:
        for var_index, bits in results:
            values[var_index] = bits
        stats.worklist_pops += pops
        stats.sweeps += sweeps
        stats.max_passes = max(stats.max_passes, max_passes)
        stats.components_solved += comps
