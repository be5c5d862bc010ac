"""In-process operations: cold compile -> synthesize -> strict replay, and
compile -> repair, each on a fresh ``ReproSession(workers=1)``.

A fresh session per operation keeps a warm per-program solver cache from
making later repetitions faster; ``workers=1`` pins the serial engine
whatever ``REPRO_WORKERS`` says.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro import ReproSession, compile_source
from repro.frontend import compile_python_source

from .checks import CheckFailed, check_repair, check_synthesis
from .inputs import Input


@dataclass
class Op:
    """Timers and counters of one operation."""

    name: str
    wall: float
    compile_s: float
    python: bool
    static_s: float = 0.0
    search_s: float = 0.0
    # Seconds in which ``instructions`` were executed (the search phase, or
    # a repair's failing-execution synthesis).
    explore_s: float = 0.0
    play_s: float = 0.0
    instructions: int = 0
    states: int = 0
    states_pruned: int = 0
    queries: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    validation_s: float = 0.0
    candidates: int = 0
    # What two repetitions of one input must reproduce byte for byte.
    artifact: bytes = b""


def compile_input(inp: Input):
    if inp.workload.lang == "python":
        return compile_python_source(inp.workload.source, inp.name)
    return compile_source(inp.workload.source, inp.name)


def _solver_counts(op: Op, session: ReproSession) -> None:
    op.queries = session.solver_stats.queries
    op.cache_lookups = session.solver_cache_stats.lookups
    op.cache_hits = session.solver_cache_stats.hits


def synth_op(inp: Input, active) -> tuple[Op, object, object]:
    """One synth operation; returns the op and the (result, playback) pair
    for the checks, which run outside the timed region."""
    with active():
        started = time.perf_counter()
        module = compile_input(inp)
        compiled = time.perf_counter()
        session = ReproSession(module, workers=1)
        result = session.synthesize(inp.report)
        synthesized = time.perf_counter()
        playback = (session.play_back(result.execution_file, mode="strict")
                    if result.found else None)
        finished = time.perf_counter()
    op = Op(inp.name, finished - started, compiled - started,
            inp.workload.lang == "python",
            static_s=result.static_seconds, search_s=result.search_seconds,
            explore_s=result.search_seconds, play_s=finished - synthesized,
            instructions=result.instructions, states=result.states_explored,
            states_pruned=result.states_pruned)
    _solver_counts(op, session)
    if result.found:
        op.artifact = result.execution_file.canonical_bytes()
    return op, result, playback


def patch_identity(canonical: bytes) -> bytes:
    """A patch's canonical bytes with its hole names replaced by their
    order of appearance.  Hole names come from a process-global counter in
    ``repro.repair.templates``, so the same repair run twice in one process
    names its hole ``c1`` and then ``c2``; everything else must match."""
    doc = json.loads(canonical)
    names = {hole["name"]: f"hole{i}"
             for i, hole in enumerate(doc["candidate"].get("holes", []))}

    def rename(node):
        if isinstance(node, dict):
            return {names.get(k, k): rename(v) for k, v in node.items()}
        if isinstance(node, list):
            return [rename(v) for v in node]
        return names.get(node, node) if isinstance(node, str) else node

    return json.dumps(rename(doc), sort_keys=True).encode()


def repair_op(inp: Input, active) -> tuple[Op, object]:
    """One repair operation; returns the op and the RepairResult."""
    with active():
        started = time.perf_counter()
        module = compile_input(inp)
        compiled = time.perf_counter()
        session = ReproSession(module, workers=1)
        result = session.repair(inp.report)
        finished = time.perf_counter()
    op = Op(inp.name, finished - started, compiled - started,
            inp.workload.lang == "python", candidates=result.candidates_tried)
    _solver_counts(op, session)
    # RepairResult exposes the interpreter work of the failing-execution
    # synthesis only; validation re-synthesis counts are not exposed.
    if result.failing_execution is not None:
        op.instructions = result.failing_execution.instructions_explored
        op.explore_s = result.synthesis_seconds
        op.artifact = result.failing_execution.canonical_bytes()
    patch = result.patch
    if patch is not None:
        op.artifact += patch_identity(patch.canonical_bytes())
        if patch.validation is not None:
            op.validation_s = patch.validation.seconds
    return op, result


def run_op(workload: str, inp: Input, active) -> tuple[Op, str]:
    """Run and check one operation.  Returns the op and, when it failed --
    no result, or a result that fails a check -- the reason."""
    try:
        if workload == "repair":
            op, result = repair_op(inp, active)
            check_repair(inp, result)
        else:
            op, result, playback = synth_op(inp, active)
            check_synthesis(inp, result, playback)
    except CheckFailed as exc:
        return op, f"{inp.name}: {exc}"
    return op, ""
