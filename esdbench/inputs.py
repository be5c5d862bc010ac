"""Seeded inputs for the four workloads.

Every input is a :class:`~repro.workloads.Workload` (program source, the
trigger inputs and schedule of the "end-user run") plus the bug report that
trigger run leaves behind.  Only the report and the source reach the
program under test; the trigger, the BPF generator's ``key_inputs`` and the
repair ground truth stay on the benchmark's side for the checks.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional

from repro.bpf import BPFParams, generate
from repro.coredump import BugReport
from repro.workloads import ALL, Workload

# Nearly all of the time of these two is in the interpreter and searcher.
DEEP = ("ls4", "ghttpd-hard")
# Every other registered workload: compile, static phase, solver and
# playback carry the time.
WIDE = tuple(name for name in ALL if name not in DEEP)
# The BPF size ladder of synth-wide (branches per program, steps of about
# sqrt 2); the program seeds are drawn from the run seed.
BPF_LADDER = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
# Service round trips use small programs: a job whose daemon time lands
# near a multiple of the SSE poll period makes the latency bimodal.
SERVICE_BRANCHES = 16

# The repair set and the hand-written ground truth of each patch site:
# (function, line) keys, line None meaning "anywhere in the function".
# The MiniC keys are those of benchmarks/bench_repair.py.  pytally and
# pyledger have no site truth here (see README: their accepted patches
# are recorded as a finding, not hidden by a looser truth set).
REPAIR_TRUTH: dict[str, Optional[frozenset]] = {
    "listing1": frozenset({("critical_section", 11), ("critical_section", 12)}),
    "tac": frozenset({("main", 29)}),
    "paste": frozenset({("main", 72)}),
    "pytally": None,
    "pyledger": None,
    "pyrlock": frozenset({("rl_enter", None)}),
}
# Repetitions per round of the short operations, so that each input's
# median rests on a few tenths of a second of work (about a second for the
# short repairs) and a one-time warm-up cost does not set it, while every
# round stays the same whole set of operations.  Counts come from the
# per-operation times on a 2-CPU host (README); inputs not listed run once.
REPEATS = {
    "synth-wide": {"listing1": 20, "ls1": 6, "ls3": 3, "tac": 25,
                   "mkdir": 12, "mkfifo": 12, "mknod": 12, "paste": 4,
                   "hawknl": 2, "minidb": 2, "pytally": 25, "pyledger": 25,
                   "pyrlock": 20},
    "repair": {"listing1": 4, "pytally": 6, "pyledger": 20},
}

# Python programs whose bug is a CPython exception, checked by running the
# source under CPython with the recorded inputs.
CPYTHON_EXCEPTION = {"pytally": IndexError, "pyledger": AssertionError}


@dataclass
class Input:
    name: str
    workload: Workload
    report: BugReport
    # BPF programs: input index -> the byte value the deadlock gate needs.
    key_inputs: Optional[dict[int, int]] = None


def registered(name: str) -> Input:
    # A fresh copy, so the registry's cached compiled module is not reused
    # and input generation costs the same every time it is repeated.
    workload = dataclasses.replace(ALL[name], _module=None)
    return Input(name, workload, workload.make_report())


def bpf(branches: int, seed: int) -> Input:
    # One input byte per 16 branches: with a fixed 4 inputs, a 1024-branch
    # program piles every branch onto 4 symbols and the solver dominates
    # (77 s instead of 2 s here).
    program = generate(BPFParams(num_inputs=max(4, branches // 16),
                                 num_branches=branches,
                                 num_input_branches=branches, seed=seed))
    workload = program.workload
    return Input(workload.name, workload, workload.make_report(),
                 key_inputs=dict(program.key_inputs))


def bpf_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct program seeds drawn from the run seed."""
    return random.Random(seed).sample(range(1, 2**31), count)


def round_schedule(workload: str, inputs: list[Input]) -> list[Input]:
    """One round of ``workload``: every input, as often as ``REPEATS``
    says, with each input's repetitions spread evenly over the round and
    the inputs offset from one another.  Host speed here drifts over
    seconds, so repetitions run back to back would share one slow spell."""
    slots = []
    for index, inp in enumerate(inputs):
        count = REPEATS.get(workload, {}).get(inp.name, 1)
        phase = (index + 0.5) / len(inputs)
        slots.extend(((rep + phase) / count, index, inp)
                     for rep in range(count))
    return [inp for _, _, inp in sorted(slots, key=lambda s: s[:2])]


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The inputs of one in-process workload, in round order."""
    if workload == "synth-deep":
        return [registered(name) for name in DEEP]
    if workload == "synth-wide":
        ladder = [bpf(branches, program_seed) for branches, program_seed
                  in zip(BPF_LADDER, bpf_seeds(seed, len(BPF_LADDER)))]
        return [registered(name) for name in WIDE] + ladder
    if workload == "repair":
        return [registered(name) for name in REPAIR_TRUTH]
    raise ValueError(f"no in-process inputs for workload {workload!r}")


def service_stream(seed: int, count: int) -> list[Input]:
    """``count`` distinct small BPF programs for the service round trip."""
    return [bpf(SERVICE_BRANCHES, program_seed)
            for program_seed in bpf_seeds(seed, count)]
