"""The four benchmark workloads, one per path a user waits on.

Every workload has the same shape, which :mod:`run` drives:

* ``setup()`` generates the seeded inputs and does the cold open or
  compile; the harness repeats it to time set-up.
* ``expect()`` computes the reference answers once, without asking the
  code under test.
* ``request(i)`` prepares op ``i`` outside the timer, ``call(request)``
  is the timed op, and ``check(request, output)`` compares its output with
  the reference answer outside the timer.
* ``restart()`` puts the workload back at op 0 with fresh state, and
  ``traced(i)`` runs op ``i`` as a sequence of calls into the public
  function of each layer, timed one by one from outside.  It returns
  whether the output was right, the layer times that together make up
  the op (``parts``), other layer times, and exact counts.
* ``once()`` measures what a traced run records one time only.

Ops within a workload are sized to cost about the same, so the median and
the tail describe the same kind of op.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Tuple

from repro import synth
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.ifc.checker import check_ifc
from repro.inference import (
    ConstTerm,
    JoinTerm,
    VarTerm,
    elaborate_program,
    generate_constraints,
    solve,
    solve_packed,
)
from repro.inference.graph import PropagationGraph
from repro.lattice.registry import get_lattice
from repro.policy import PolicyEngine
from repro.tool.pipeline import check_source
from repro.typechecker.checker import check_core_types
from repro.workspace.diff import diff_program
from repro.workspace.rpc import WorkspaceServer
from repro.workspace.session import Workspace


def timed(fn: Callable, *args):
    """``(result, milliseconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - started) * 1000.0


# --------------------------------------------------------------------------
# check_corpus: source text -> report


_FIELD = re.compile(r"hdr\.data\.f_(\w+)")


def straightline_verdict(source: str, levels=("low", "high")) -> bool:
    """The IFC verdict of a ``random_straightline_program``, from its text.

    The generator emits only field-to-field assignments and ``if`` guards
    over a chain of levels, so the verdict is a walk with a pc stack: an
    assignment is legal iff every field it reads and the pc sit at or
    below its target's level.
    """
    rank = {level: index for index, level in enumerate(levels)}
    pcs = [0]
    for line in source.split("apply {", 1)[1].splitlines():
        text = line.strip()
        if text.startswith("if ("):
            guard = max((rank[f] for f in _FIELD.findall(text)), default=0)
            pcs.append(max(pcs[-1], guard))
        elif text == "}":
            if len(pcs) == 1:
                break
            pcs.pop()
        elif "=" in text:
            target, value = text.split("=", 1)
            flows = [rank[f] for f in _FIELD.findall(value)] + [pcs[-1]]
            if max(flows) > rank[_FIELD.findall(target)[0]]:
                return False
    return True


@dataclass(frozen=True)
class CorpusProgram:
    source: str
    #: The verdict the generator family has by construction.
    expected: bool


class CheckCorpus:
    """``check_source(src, infer=True)`` over a seeded, cycled corpus."""

    name = "check_corpus"
    warmup_ops = 2
    traced_ops = 22

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.lattice = get_lattice("two-point")

    def setup(self) -> None:
        # Sizes are chosen so that every program's cold check costs about
        # the same; the seed varies content and order, not size.
        rng = random.Random(self.seed)
        widths = (8, 16, 32)
        corpus: List[CorpusProgram] = []
        for _ in range(2):
            statements = synth.random_straightline_program(
                rng.randrange(1 << 30), statements=210
            )
            corpus += [
                CorpusProgram(
                    synth.sharded_dataflow_program(
                        14, depth=25, width=rng.choice(widths)
                    ),
                    True,
                ),
                CorpusProgram(
                    synth.scc_cycle_program(100, 3, width=rng.choice(widths)),
                    True,
                ),
                CorpusProgram(statements, straightline_verdict(statements)),
            ]
        # An unsatisfiable system skips the IFC pass, so the insecure
        # variants are larger to cost the same as the secure ones.
        corpus += [
            CorpusProgram(
                synth.deep_dataflow_program(
                    125, chains=3, sink_level=rng.choice((None, "high"))
                ),
                True,
            ),
            CorpusProgram(
                synth.deep_dataflow_program(135, chains=3, sink_level="low"),
                False,
            ),
        ]
        wide_seed = rng.randrange(1, 1 << 30)
        corpus += [
            CorpusProgram(
                synth.wide_table_program(
                    tables=34, actions_per_table=4, secure=True, seed=wide_seed
                ),
                True,
            ),
            CorpusProgram(
                synth.wide_table_program(
                    tables=44, actions_per_table=4, secure=False, seed=wide_seed
                ),
                False,
            ),
        ]
        rng.shuffle(corpus)
        self.corpus = corpus

    def expect(self) -> None:
        pass  # each CorpusProgram carries its verdict from setup

    def restart(self) -> None:
        pass

    def request(self, index: int) -> CorpusProgram:
        return self.corpus[index % len(self.corpus)]

    def call(self, program: CorpusProgram):
        return check_source(program.source, infer=True)

    def check(self, program: CorpusProgram, report) -> bool:
        return report.ok == program.expected

    def traced(self, index: int):
        program = self.request(index)
        lattice = self.lattice
        tokens, lex_ms = timed(tokenize, program.source)
        parsed, parse_ms = timed(parse_program, program.source)
        core, core_ms = timed(check_core_types, parsed)
        # A one-shot check runs in a fresh workspace, whose regeneration
        # diffs every unit against an empty cache before walking it.
        _, diff_ms = timed(diff_program, [], parsed)
        generation, generate_ms = timed(generate_constraints, parsed, lattice)
        graph, build_ms = timed(PropagationGraph, lattice, generation.constraints)
        solution, solve_ms = timed(graph.solve)
        elaborated, elaborate_ms = timed(elaborate_program, generation, solution)
        verdict = core.ok and not generation.errors and solution.ok
        ifc_ms = 0.0
        if solution.ok and not generation.errors:
            ifc, ifc_ms = timed(check_ifc, elaborated, lattice)
            verdict = verdict and ifc.ok
        parts = {
            "frontend.lex_ms": lex_ms,
            "frontend.parse_ms": parse_ms - lex_ms,
            "typechecker.core_ms": core_ms,
            "workspace.diff_ms": diff_ms,
            "inference.generate_ms": generate_ms,
            "inference.graph_build_ms": build_ms,
            "inference.graph_solve_ms": solve_ms,
            "inference.elaborate_ms": elaborate_ms,
            "ifc.check_ms": ifc_ms,
        }
        counts = {
            "frontend.tokens": len(tokens),
            "inference.constraints": len(generation.constraints),
            "inference.edges_visited": solution.stats.edges_visited,
            "inference.sccs": solution.stats.scc_count,
        }
        return verdict == program.expected, parts, {}, counts

    def once(self) -> Dict[str, float]:
        times = []
        for program in self.corpus[:3]:
            generation = generate_constraints(
                parse_program(program.source), self.lattice
            )
            _, packed_ms = timed(solve_packed, self.lattice, generation.constraints)
            times.append(packed_ms)
        return {"inference.packed_cold_ms": median(times)}


# --------------------------------------------------------------------------
# serve_edit: edit -> re-check over the JSON-RPC server


class ServeEdit:
    """``edit`` + ``check {"infer": true}`` against an in-process server."""

    name = "serve_edit"
    warmup_ops = 2
    traced_ops = 8
    shards = 40
    depth = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._next_id = 0

    def _line(self, method: str, params: dict) -> str:
        self._next_id += 1
        return json.dumps(
            {"jsonrpc": "2.0", "id": self._next_id, "method": method, "params": params}
        )

    def setup(self) -> None:
        self.source = synth.sharded_dataflow_program(self.shards, depth=self.depth)
        self.labels = ["high"] * self.shards
        self.rng = random.Random(self.seed)
        self.server = WorkspaceServer(solver_workers=1)
        opened = json.loads(self.server.handle_line(self._line("open", {"source": self.source})))
        checked = json.loads(
            self.server.handle_line(self._line("check", {"infer": True}))
        )
        if not opened["result"]["parsed"] or not checked["result"]["ok"]:
            raise RuntimeError("the sharded program must open and check clean")

    def expect(self) -> None:
        pass  # the flipped shard's expected tail label is its new seed label

    def restart(self) -> None:
        self.server = None
        self.setup()

    def request(self, index: int):
        shard = self.rng.randrange(self.shards)
        old = self.labels[shard]
        new = "low" if old == "high" else "high"
        self.labels[shard] = new
        header = f"header shard{shard}_t {{\n    <bit<8>, "
        self.source = self.source.replace(
            f"{header}{old}> seed;", f"{header}{new}> seed;", 1
        )
        return (
            shard,
            new,
            self.source,
            self._line("edit", {"source": self.source}),
            self._line("check", {"infer": True}),
        )

    def call(self, request):
        _, _, _, edit_line, check_line = request
        return (
            self.server.handle_line(edit_line),
            self.server.handle_line(check_line),
        )

    def check(self, request, output) -> bool:
        edited = json.loads(output[0])
        return "result" in edited and self._verify(
            request, edited["result"]["parsed"], output[1]
        )

    def _verify(self, request, parsed: bool, check_line: str) -> bool:
        shard, new = request[0], request[1]
        checked = json.loads(check_line)
        if not parsed or "result" not in checked or not checked["result"]["ok"]:
            return False
        tail = f"field shard{shard}_t.s{self.depth - 1}"
        labels = [
            entry["label"]
            for entry in checked["result"]["inference"]["labels"]
            if entry["slot"] == tail
        ]
        return labels == [new]

    def traced(self, index: int):
        request = self.request(index)
        _, _, _, edit_line, check_line = request
        server = self.server
        workspace = server.workspace
        before = workspace.stats()["normalisation_cache"]

        payload, decode_ms = timed(json.loads, edit_line)
        parsed, edit_ms = timed(workspace.edit, payload["params"]["source"])
        _, core_ms = timed(workspace.core)
        inference, infer_ms = timed(workspace.infer)
        ifc_ms = 0.0
        if inference.ok:
            _, ifc_ms = timed(
                check_ifc,
                inference.elaborated,
                workspace.lattice,
            )
        # Core and inference are cached for this revision now, so the
        # served check re-runs only the IFC pass and the report/encode.
        response, check_ms = timed(server.handle_line, check_line)

        stats = workspace.stats()
        after = stats["normalisation_cache"]
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        regen = stats["regen"]
        ok = self._verify(request, parsed, response)
        parts = {
            "workspace.edit_ms": edit_ms,
            "workspace.core_ms": core_ms,
            "workspace.infer_ms": infer_ms,
            "ifc.check_ms": ifc_ms,
            "rpc.overhead_ms": decode_ms + check_ms - ifc_ms,
        }
        counts = {
            "inference.constraints": stats["constraints"],
            "workspace.units_rewalked": regen["units_rewalked"],
            "workspace.unit_reuse_ratio": regen["units_reused"] / regen["units_total"],
            "workspace.norm_cache_hit_ratio": (
                (after["hits"] - before["hits"]) / lookups if lookups else 0.0
            ),
            "workspace.warm_edges_visited": inference.solution.stats.edges_visited,
            "rpc.response_kb": len(response) / 1024.0,
        }
        return ok, parts, {"typechecker.core_ms": core_ms}, counts

    def once(self) -> Dict[str, float]:
        # The edit re-lexes and re-parses the whole file; split that cost
        # here rather than inside traced ops, whose extra garbage would
        # slow the layers timed after it.
        lex, parse = [], []
        for _ in range(3):
            tokens, lex_ms = timed(tokenize, self.source)
            _, parse_ms = timed(parse_program, self.source)
            lex.append(lex_ms)
            parse.append(parse_ms - lex_ms)
        directory = tempfile.mkdtemp(prefix=".bench_tmp_", dir=os.getcwd())
        try:
            path = os.path.join(directory, "session.p4bid")
            _, save_ms = timed(self.server.workspace.save, path)
            _, load_ms = timed(Workspace.load, path)
        finally:
            shutil.rmtree(directory)
        return {
            "frontend.lex_ms": median(lex),
            "frontend.parse_ms": median(parse),
            "frontend.tokens": len(tokens),
            "workspace.save_ms": save_ms,
            "workspace.load_ms": load_ms,
        }


# --------------------------------------------------------------------------
# solve_constraints: constraints -> solution


def kleene_reference(lattice, constraints) -> Tuple[Dict, bool]:
    """Least solution by round-robin Kleene iteration, and whether every
    upper bound holds.  Handles the term shapes ``mega_constraint_system``
    emits: constants, variables and joins on the left; a variable or a
    constant on the right."""

    def value(term, assignment):
        if isinstance(term, ConstTerm):
            return term.label
        if isinstance(term, VarTerm):
            return assignment.get(term.var, lattice.bottom)
        if isinstance(term, JoinTerm):
            result = lattice.bottom
            for part in term.parts:
                result = lattice.join(result, value(part, assignment))
            return result
        raise TypeError(f"unexpected term {term!r}")

    assignment: Dict = {}
    flows = [c for c in constraints if isinstance(c.rhs, VarTerm)]
    bounds = [c for c in constraints if isinstance(c.rhs, ConstTerm)]
    if len(flows) + len(bounds) != len(constraints):
        raise TypeError("unexpected right-hand side")
    for constraint in constraints:
        for term in (constraint.lhs, constraint.rhs):
            for part in getattr(term, "parts", (term,)):
                if isinstance(part, VarTerm):
                    assignment.setdefault(part.var, lattice.bottom)
    changed = True
    while changed:
        changed = False
        for constraint in flows:
            target = constraint.rhs.var
            current = assignment[target]
            flow = value(constraint.lhs, assignment)
            if not lattice.leq(flow, current):
                assignment[target] = lattice.join(current, flow)
                changed = True
    satisfied = all(
        lattice.leq(value(c.lhs, assignment), c.rhs.label) for c in bounds
    )
    return assignment, satisfied


class SolveConstraints:
    """``solve(lattice, constraints)`` on pre-generated 20k-constraint systems."""

    name = "solve_constraints"
    warmup_ops = 1
    traced_ops = 6
    systems = 3
    size = 20000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.lattice = get_lattice("diamond")

    def setup(self) -> None:
        self.inputs = [
            synth.mega_constraint_system(
                self.size,
                self.lattice,
                seed=self.seed * self.systems + index,
                cycle_every=50,
            )[0]
            for index in range(self.systems)
        ]

    def expect(self) -> None:
        self.expected = [kleene_reference(self.lattice, c) for c in self.inputs]

    def restart(self) -> None:
        pass

    def request(self, index: int) -> int:
        return index % self.systems

    def call(self, which: int):
        return solve(self.lattice, self.inputs[which])

    def check(self, which: int, solution) -> bool:
        reference, satisfied = self.expected[which]
        if solution.ok != satisfied:
            return False
        return all(solution.value_of(var) == label for var, label in reference.items())

    def traced(self, index: int):
        which = self.request(index)
        constraints = self.inputs[which]
        graph, build_ms = timed(PropagationGraph, self.lattice, constraints)
        solution, solve_ms = timed(graph.solve)
        parts = {
            "inference.graph_build_ms": build_ms,
            "inference.graph_solve_ms": solve_ms,
        }
        counts = {
            "inference.constraints": len(constraints),
            "inference.edges_visited": solution.stats.edges_visited,
            "inference.sccs": solution.stats.scc_count,
        }
        return self.check(which, solution), parts, {}, counts

    def once(self) -> Dict[str, float]:
        times = []
        for which in range(2):
            solution, packed_ms = timed(solve_packed, self.lattice, self.inputs[which])
            if not self.check(which, solution):
                raise RuntimeError("the packed backend disagrees with the reference")
            times.append(packed_ms)
        return {"inference.packed_cold_ms": median(times)}


# --------------------------------------------------------------------------
# policy_stream: request -> decision


def _engine_calls(events) -> list:
    """A batch of traffic as engine calls: each run of requests between two
    revocations becomes one ``decide_batch`` list, and each revocation a
    ``(subject, bound)`` tuple for ``set_grant``."""
    calls: list = []
    for event in events:
        if event.request is None:
            calls.append(event.regrant)
        elif calls and isinstance(calls[-1], list):
            calls[-1].append(event.request)
        else:
            calls.append([event.request])
    return calls


class PolicyStream:
    """A :class:`PolicyEngine` replaying ``policy_traffic`` in fixed batches."""

    name = "policy_stream"
    warmup_ops = 3
    traced_ops = 96
    lattice_name = "policy-120-96-8"
    subjects = 96
    datasets = 48
    batch = 8000
    batches = 6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.lattice = get_lattice(self.lattice_name)

    def _universe(self):
        return synth.scenario_universe(
            self.lattice, subjects=self.subjects, datasets=self.datasets, seed=self.seed
        )

    def setup(self) -> None:
        self.universe = self._universe()
        events = synth.policy_traffic(
            self.universe,
            events=self.batch * self.batches,
            revoke_every=250,
            seed=self.seed,
        )
        self.ops = [
            _engine_calls(events[start : start + self.batch])
            for start in range(0, len(events), self.batch)
        ]
        self.engine = PolicyEngine(self.universe)
        self.position = 0

    def expect(self) -> None:
        """Every request's verdict, recomputed on the object lattice from
        the scenario's grants and lineage as the stream revokes consent."""
        lattice = self.lattice
        universe = self._universe()
        grants = {subject: universe.grant(subject) for subject in universe.subjects}
        closures: Dict[str, frozenset] = {}

        def closure(name: str) -> frozenset:
            if name not in closures:
                dataset = universe.dataset(name)
                found = set(dataset.subjects)
                for parent in dataset.parents:
                    found |= closure(parent)
                closures[name] = frozenset(found)
            return closures[name]

        def bound(name: str):
            result = lattice.top
            for subject in sorted(closure(name)):
                result = lattice.meet(result, grants[subject])
            return result

        bounds = {name: bound(name) for name in universe.datasets}
        self.expected: List[List[bool]] = []
        for calls in self.ops:
            verdicts: List[bool] = []
            for call in calls:
                if isinstance(call, tuple):
                    subject, granted = call
                    grants[subject] = granted
                    for name in bounds:
                        if subject in closure(name):
                            bounds[name] = bound(name)
                    continue
                for request in call:
                    demand = lattice.label(
                        [request.purpose], [request.recipient], request.retention
                    )
                    verdicts.append(lattice.leq(demand, bounds[request.dataset]))
            self.expected.append(verdicts)

    def restart(self) -> None:
        self.universe = self._universe()
        self.engine = PolicyEngine(self.universe)
        self.position = 0

    def request(self, index: int) -> int:
        if self.position == self.batches:
            # Revocations only tighten grants: replaying the stream again
            # needs the universe it was generated against.
            self.restart()
        self.position += 1
        return self.position - 1

    def call(self, which: int):
        engine = self.engine
        decisions = []
        for call in self.ops[which]:
            if isinstance(call, tuple):
                engine.set_grant(*call)
            else:
                decisions += engine.decide_batch(call)
        return decisions

    def check(self, which: int, decisions) -> bool:
        return [d.permit for d in decisions] == self.expected[which]

    def traced(self, index: int):
        which = self.request(index)
        engine = self.engine
        decisions = []
        decide_ms = 0.0
        regrant_times = []
        recompiled = 0
        for call in self.ops[which]:
            if isinstance(call, tuple):
                affected, elapsed = timed(engine.set_grant, *call)
                regrant_times.append(elapsed)
                recompiled += len(affected)
            else:
                batch, elapsed = timed(engine.decide_batch, call)
                decisions += batch
                decide_ms += elapsed
        parts = {
            "policy.decide_ms": decide_ms,
            "policy.regrant_total_ms": sum(regrant_times),
        }
        times = {
            "policy.decide_us": decide_ms * 1000.0 / len(decisions),
            "policy.regrant_ms": median(regrant_times) if regrant_times else 0.0,
        }
        counts = {"policy.recompiled_bounds": recompiled}
        return self.check(which, decisions), parts, times, counts

    def once(self) -> Dict[str, float]:
        times = []
        for _ in range(5):
            universe = self._universe()
            _, compile_ms = timed(PolicyEngine, universe)
            times.append(compile_ms)
        return {"policy.compile_ms": median(times)}


WORKLOADS = {
    workload.name: workload
    for workload in (CheckCorpus, ServeEdit, SolveConstraints, PolicyStream)
}
