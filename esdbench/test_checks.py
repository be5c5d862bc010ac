"""Each output check passes on the program's real output and fails on a
tampered copy of it.  Run with ``python3 -m pytest esdbench``."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
from types import SimpleNamespace

import pytest

from esdbench import checks
from esdbench.checks import CheckFailed
from esdbench.inprocess import Op, patch_identity, repair_op, synth_op
from esdbench.inputs import bpf, registered
from esdbench.run import RunError, check_determinism
from repro import compile_source
from repro.ir import InstrRef

plain = contextlib.nullcontext


def synthesized(inp):
    op, result, playback = synth_op(inp, plain)
    assert result.found
    return op, result, playback


def test_replay_check_crash_fault_pc():
    inp = registered("tac")
    _, result, playback = synthesized(inp)
    checks.check_synthesis(inp, result, playback)
    tampered = copy.deepcopy(inp.report)
    ref = tampered.coredump.fault_ref
    tampered.coredump.fault_ref = InstrRef(ref.function, ref.block,
                                           ref.index + 1)
    with pytest.raises(CheckFailed, match="faulted at"):
        checks.check_replay(tampered, playback)


def test_replay_check_bug_kind():
    inp = registered("tac")
    _, _, playback = synthesized(inp)
    other = registered("mkdir").report.coredump.bug_kind
    tampered = copy.deepcopy(inp.report)
    tampered.coredump.bug_kind = other
    with pytest.raises(CheckFailed, match="replay bug"):
        checks.check_replay(tampered, playback)


def test_replay_check_blocked_threads():
    inp = registered("listing1")
    _, result, playback = synthesized(inp)
    checks.check_synthesis(inp, result, playback)
    tampered = copy.deepcopy(inp.report)
    thread = next(t for t in tampered.coredump.blocked_threads()
                  if t.blocked_kind in checks.SYNC_WAITS)
    frame = thread.frames[0]
    thread.frames[0] = dataclasses.replace(
        frame, ref=InstrRef(frame.ref.function, frame.ref.block,
                            frame.ref.index + 1))
    with pytest.raises(CheckFailed, match="blocked at"):
        checks.check_replay(tampered, playback)


def test_bpf_key_inputs():
    inp = bpf(16, 7)
    _, result, playback = synthesized(inp)
    checks.check_synthesis(inp, result, playback)
    execution = copy.deepcopy(result.execution_file)
    index = min(inp.key_inputs)
    execution.inputs.stdin[index] = (inp.key_inputs[index] + 1) % 256
    with pytest.raises(CheckFailed, match="gate needs"):
        checks.check_bpf_inputs(inp, execution)


@pytest.mark.parametrize("name", ["pytally", "pyledger"])
def test_cpython_rerun(name):
    inp = registered(name)
    _, result, playback = synthesized(inp)
    checks.check_synthesis(inp, result, playback)
    execution = copy.deepcopy(result.execution_file)
    execution.inputs.env = {k: "x" for k in execution.inputs.env}
    with pytest.raises(CheckFailed, match="ran cleanly"):
        checks.check_cpython(inp, execution)


@pytest.fixture(scope="module")
def listing1_repair():
    inp = registered("listing1")
    _, result = repair_op(inp, plain)
    checks.check_repair(inp, result)
    return inp, result


def tampered_patch(result, **changes):
    patch = result.patch
    fields = {"candidate": patch.candidate, "validation": patch.validation,
              "apply_to": patch.apply_to}
    fields.update(changes)
    return SimpleNamespace(reason=result.reason,
                           patch=SimpleNamespace(**fields))


def test_repair_site_outside_ground_truth(listing1_repair):
    inp, result = listing1_repair
    candidate = dataclasses.replace(result.patch.candidate, line=3)
    with pytest.raises(CheckFailed, match="ground truth"):
        checks.check_repair(inp, tampered_patch(result, candidate=candidate))


def test_repair_budget_stop_is_not_validation(listing1_repair):
    inp, result = listing1_repair
    validation = dataclasses.replace(result.patch.validation,
                                     resynthesis_reason="budget")
    with pytest.raises(CheckFailed, match="not exhausted"):
        checks.check_repair(inp, tampered_patch(result, validation=validation))


def test_repair_goal_unmappable_is_complete(listing1_repair):
    inp, result = listing1_repair
    validation = dataclasses.replace(
        result.patch.validation,
        resynthesis_reason="goal-unmappable: no instruction main:entry:3")
    checks.check_repair(inp, tampered_patch(result, validation=validation))


def test_repair_patch_that_does_not_fix(listing1_repair):
    inp, result = listing1_repair
    unpatched = tampered_patch(result, apply_to=lambda module: module)
    with pytest.raises(CheckFailed, match="still fails"):
        checks.check_repair(inp, unpatched)


def test_repair_patch_that_never_ends(listing1_repair):
    inp, result = listing1_repair
    source = inp.workload.source.replace(
        "int main() {", "int main() {\n    while (1) { idx = idx; }", 1)
    assert source != inp.workload.source
    spinning = tampered_patch(
        result, apply_to=lambda module: compile_source(source, inp.name))
    with pytest.raises(CheckFailed, match="did not exit"):
        checks.check_repair(inp, spinning)


def test_determinism_check():
    same = [Op("p", 1.0, 0.1, False, instructions=5, artifact=b"a"),
            Op("p", 1.2, 0.1, False, instructions=5, artifact=b"a")]
    check_determinism({"p": same})
    with pytest.raises(RunError):
        check_determinism({"p": same + [dataclasses.replace(same[0],
                                                            artifact=b"b")]})
    with pytest.raises(RunError):
        check_determinism({"p": same + [dataclasses.replace(same[0],
                                                            instructions=6)]})


def test_patch_identity_ignores_hole_numbering_only():
    def patch(name, value):
        return json.dumps({
            "bindings": {name: value},
            "candidate": {"holes": [{"name": name, "lo": -4, "hi": 4}],
                          "params": {"hole": name}},
        }, sort_keys=True).encode()

    assert patch_identity(patch("c1", 3)) == patch_identity(patch("c7", 3))
    assert patch_identity(patch("c1", 3)) != patch_identity(patch("c1", 2))
