"""Output checks made apart from the program's own verdicts.

Each check compares an output against a source the program never sees:
the coredump of the trigger run, CPython itself, the BPF generator's
``key_inputs``, a concrete run of the patched program on the trigger's own
inputs and schedule, and hand-written patch-site ground truth.  No check
compares against a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import os

from repro.baselines import ForcedSchedulePolicy
from repro.coredump import BugReport
from repro.symbex import ConcreteEnv, ExecConfig, Executor
from repro.symbex.state import BLOCKED

from .inputs import CPYTHON_EXCEPTION, REPAIR_TRUTH, Input

SYNC_WAITS = ("mutex", "cond")
# Steps a patched program may take on the trigger's inputs before it counts
# as never ending.  Unpatched, every trigger run of the repair set ends
# within a few hundred steps.
TRIGGER_STEP_LIMIT = 100_000


class CheckFailed(Exception):
    pass


def check_replay(report: BugReport, playback) -> None:
    """The strict replay ends in the dump's bug kind, at the dump's fault
    PC (crashes) or with the dump's threads blocked on locks and condition
    variables at the same PCs, counted with multiplicity (hangs).  Threads
    blocked in ``join`` only wait for the deadlock and are not compared."""
    dump = report.coredump
    bug = playback.bug
    if bug is None:
        raise CheckFailed("strict replay ended without a bug")
    if bug.kind is not dump.bug_kind:
        raise CheckFailed(f"replay bug {bug.kind.value}, dump says "
                          f"{dump.bug_kind.value}")
    if dump.manifestation == "hang":
        want = sorted(repr(t.top.ref) for t in dump.blocked_threads()
                      if t.blocked_kind in SYNC_WAITS)
        got = sorted(repr(t.pc) for t in playback.state.threads.values()
                     if t.status == BLOCKED and t.blocked_on
                     and t.blocked_on[0] in SYNC_WAITS)
        if want != got:
            raise CheckFailed(f"replay blocked at {got}, dump at {want}")
    elif repr(bug.ref) != repr(dump.fault_ref):
        raise CheckFailed(f"replay faulted at {bug.ref!r}, dump at "
                          f"{dump.fault_ref!r}")


def check_bpf_inputs(inp: Input, execution) -> None:
    """The recorded stdin carries the generator's gate value on every key
    input index."""
    stdin = execution.inputs.stdin
    for index, value in sorted(inp.key_inputs.items()):
        got = stdin[index] if index < len(stdin) else None
        if got != value:
            raise CheckFailed(f"stdin[{index}] = {got}, the gate needs {value}")


@contextlib.contextmanager
def _environment(env: dict[str, str]):
    saved = dict(os.environ)
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def check_cpython(inp: Input, execution) -> None:
    """Running the Python source under CPython with the recorded
    environment raises the exception the bug stands for."""
    expected = CPYTHON_EXCEPTION[inp.name]
    code = compile(inp.workload.source, f"<{inp.name}>", "exec")
    with _environment(execution.inputs.env):
        try:
            exec(code, {"__name__": "__main__"})
        except expected:
            return
        except Exception as exc:  # noqa: BLE001 -- any other outcome fails
            raise CheckFailed(f"CPython raised {type(exc).__name__}, "
                              f"expected {expected.__name__}") from exc
    raise CheckFailed(f"CPython ran cleanly, expected {expected.__name__}")


def check_synthesis(inp: Input, result, playback) -> None:
    if not result.found:
        raise CheckFailed(f"synthesis found nothing ({result.reason})")
    check_replay(inp.report, playback)
    if inp.key_inputs is not None:
        check_bpf_inputs(inp, result.execution_file)
    if inp.name in CPYTHON_EXCEPTION:
        check_cpython(inp, result.execution_file)


def run_trigger(inp: Input, module):
    """Run ``module`` concretely on the workload's trigger inputs and
    scripted schedule; returns the terminal state."""
    workload = inp.workload
    policy = (ForcedSchedulePolicy(workload.directives(module))
              if workload.directives is not None else None)
    config = ExecConfig(max_steps_per_state=TRIGGER_STEP_LIMIT)
    executor = Executor(module, env=ConcreteEnv(workload.trigger_inputs),
                        policy=policy, config=config)
    return executor.run_to_completion(executor.initial_state())


def complete_validation(reason) -> bool:
    """Validation covered the patched search space: re-synthesis was
    exhausted, or the goal no longer exists in the patched program
    (``goal-unmappable: <why>``).  Any other reason is a budget stop."""
    return reason == "exhausted" or (
        isinstance(reason, str) and reason.startswith("goal-unmappable"))


def check_repair(inp: Input, result) -> None:
    """A validated patch, complete validation, a patch site inside the
    ground truth, and a patched program that runs to a clean exit on the
    trigger's inputs and schedule: no bug, no endless loop, no stuck
    schedule."""
    patch = result.patch
    if patch is None or patch.validation is None:
        raise CheckFailed(f"no validated patch ({result.reason})")
    reason = patch.validation.resynthesis_reason
    if not complete_validation(reason):
        raise CheckFailed(f"validation ended {reason!r}, not exhausted")
    if not patch.validation.ok:
        raise CheckFailed("validation did not accept the patch")
    truth = REPAIR_TRUTH[inp.name]
    site = (patch.candidate.function, patch.candidate.line)
    if truth is not None and site not in truth and (site[0], None) not in truth:
        raise CheckFailed(f"patch site {site[0]}:{site[1]} is not in the "
                          f"ground truth {sorted(truth, key=str)}")
    state = run_trigger(inp, patch.apply_to(inp.workload.compile()))
    if state.status == "bug":
        raise CheckFailed(f"patched program still fails on the trigger: "
                          f"{state.bug.summary()}")
    if state.status != "exited":
        raise CheckFailed(f"patched program did not exit on the trigger: "
                          f"{state.status} ({state.meta.get('killed')})")
