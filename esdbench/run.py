#!/usr/bin/env python3
"""esdbench: the layered benchmark of this ESD reproduction.

Run from the root of a checkout::

    python3 esdbench/run.py --workload synth-deep --seed 1 --seconds 15 --trace 0

Workloads: ``synth-deep``, ``synth-wide``, ``repair`` (in-process, through
the public API) and ``service-rt`` (``repro serve`` as a child process,
driven over HTTP).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` a separate
traced run reports the per-layer metrics.  See ``esdbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("synth-deep", "synth-wide", "repair", "service-rt")
# Set-up is timed this many times in an untraced run and its median
# reported: once before the measured phase, the rest after it, so that one
# slow spell of the host does not set the median.
SETUP_REPEATS = 3
# A fresh interpreter importing every module a run needs: the import part
# of set-up, timed in a child so that it can be repeated.
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:]; "
                "import esdbench.inprocess, esdbench.service_rt")


class RunError(Exception):
    """The run cannot produce a result (bad checkout, nondeterminism)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(kind: str, values: dict[str, float]) -> dict:
    """The result's ``metrics`` object: every metric BENCHMARK.json
    declares under ``kind``, with its unit.  Per-layer metrics a workload
    does not exercise read 0; an end-to-end metric may not be missing."""
    units = metric_units(kind)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RunError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if kind == "end_to_end" and missing:
        raise RunError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def import_seconds() -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
                   cwd=ROOT, check=True)
    return time.perf_counter() - started


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- in-process workloads -----------------------------------------------------


def run_inprocess(args) -> dict:
    import repro

    from esdbench.inprocess import run_op
    from esdbench.inputs import make_inputs, round_schedule
    from esdbench.sampler import Sampler

    def set_up():
        imported = import_seconds()
        started = time.perf_counter()
        inputs = make_inputs(args.workload, args.seed)
        return imported + time.perf_counter() - started, inputs

    setup_s, inputs = set_up()
    schedule = round_schedule(args.workload, inputs)
    sampler = None
    if args.trace:
        sampler = Sampler(os.path.dirname(repro.__file__))
        sampler.start()
    plain = contextlib.nullcontext
    traced_ops, untraced_ops, messages = [], [], []
    by_input: dict[str, list] = {inp.name: [] for inp in inputs}
    attempted = failed = rounds = 0
    started = time.perf_counter()
    try:
        while True:
            for slot, inp in enumerate(schedule):
                # The traced run pairs each traced operation with an
                # untraced one on the same input, alternating which goes
                # first, for the sampler-overhead ratio.
                modes = ((False,) if not args.trace
                         else (False, True) if (rounds + slot) % 2 == 0
                         else (True, False))
                for traced in modes:
                    attempted += 1
                    op, message = run_op(
                        args.workload, inp,
                        sampler.active if traced else plain,
                    )
                    if message:
                        failed += 1
                        messages.append(message)
                        continue
                    (traced_ops if traced else untraced_ops).append(op)
                    by_input[inp.name].append(op)
            rounds += 1
            if rounds == 1:
                # The process's memory grows with the rounds it has run,
                # so peak RSS is read after the first round, not after a
                # time-bounded number of them, of which a faster program
                # would run more.
                rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        if sampler is not None:
            sampler.stop()
    measured = time.perf_counter() - started
    setups = [setup_s] + [set_up()[0] for _ in range(SETUP_REPEATS - 1)
                          if not args.trace]
    for message in messages:
        print(f"esdbench: {message}", file=sys.stderr)
    if not untraced_ops or (args.trace and not traced_ops):
        raise RunError("no operation passed its checks")
    check_determinism(by_input)
    for name, ops in by_input.items():
        if ops:
            print(f"esdbench: input {name}: {len(ops)} ok, median "
                  f"{statistics.median(op.wall for op in ops):.4f} s")
    print_trend(by_input)
    print(f"esdbench: {args.workload}: {len(inputs)} inputs x {rounds} "
          f"round(s), {attempted} attempted, {failed} failed, "
          f"{measured:.2f} s measured")

    if args.trace:
        return {"attempted": attempted, "failed": failed,
                "metrics": inprocess_layers(traced_ops, untraced_ops, sampler)}
    # Inputs differ in size by up to three orders of magnitude and the short
    # ones repeat more often per round, so every aggregate weighs each input
    # once, through its median.
    medians = [statistics.median(op.wall for op in ops)
               for ops in by_input.values() if ops]
    return {"attempted": attempted, "failed": failed, "metrics": {
        "setup_s": statistics.median(setups),
        "latency_s": geomean(medians),
        "latency_p90_s": p90(medians),
        "throughput": len(medians) / sum(medians),
        "peak_rss_mb": rss_mb,
    }}


def check_determinism(by_input: dict[str, list]) -> None:
    """Repetitions of one input must give byte-identical artifacts and
    identical work counters."""
    for name, ops in by_input.items():
        keys = {(op.artifact, op.instructions, op.states, op.queries,
                 op.candidates) for op in ops}
        if len(keys) > 1:
            raise RunError(f"{name}: {len(ops)} repetitions gave "
                           f"{len(keys)} different artifacts or counts")


def print_trend(by_input: dict[str, list]) -> None:
    """Each input's last repetition against its first, relative to its
    median: the expression intern table is process-global, so a table that
    slowed later operations would show here as a ratio above 1."""
    first, last = [], []
    for ops in by_input.values():
        if len(ops) >= 2:
            median = statistics.median(op.wall for op in ops)
            first.append(ops[0].wall / median)
            last.append(ops[-1].wall / median)
    if first:
        print(f"esdbench: trend: last/first repetition time = "
              f"{geomean(last) / geomean(first):.3f} over {len(first)} inputs")
    else:
        print("esdbench: trend: no input repeated, not measured")


def inprocess_layers(traced, untraced, sampler) -> dict[str, float]:
    n = len(traced)
    traced_wall = mean(op.wall for op in traced)
    untraced_wall = mean(op.wall for op in untraced)
    values = {
        "lang.compile_s":
            sum(op.compile_s for op in traced if not op.python) / n,
        "frontend.compile_s":
            sum(op.compile_s for op in traced if op.python) / n,
        "core.static_s": mean(op.static_s for op in traced),
        "symbex.instructions": mean(op.instructions for op in traced),
        "symbex.states": mean(op.states for op in traced),
        "symbex.instr_per_s": ratio(sum(op.instructions for op in traced),
                                    sum(op.explore_s for op in traced)),
        "search.s": mean(op.search_s for op in traced),
        "search.states_pruned": mean(op.states_pruned for op in traced),
        "solver.queries": mean(op.queries for op in traced),
        "solver.cache_hit_ratio": ratio(
            sum(op.cache_hits for op in traced),
            sum(op.cache_lookups for op in traced)),
        "playback.s": mean(op.play_s for op in traced),
        "repair.localize_s": sampler.localize_seconds() / n,
        "repair.validation_s": mean(op.validation_s for op in traced),
        "repair.candidates": mean(op.candidates for op in traced),
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.sampler_overhead": ratio(traced_wall, untraced_wall),
        "bench.samples": sampler.samples,
    }
    # Every subsystem BENCHMARK.json names a share for; the rest of the
    # samples (other subsystems, no ``repro`` frame) count as ``other``.
    subsystems = [name[:-len(".share")] for name in metric_units("per_layer")
                  if name.endswith(".share") and name != "other.share"]
    covered = sum(sampler.share(sub) for sub in subsystems)
    values.update({f"{sub}.share": sampler.share(sub) for sub in subsystems})
    values["other.share"] = 1.0 - covered if sampler.samples else 0.0
    values["bench.share_covered"] = covered
    return values


# -- service round trip -------------------------------------------------------


def run_service(args, workdir: Path) -> dict:
    from esdbench import service_rt
    from esdbench.inputs import service_stream

    # The input stream is sized for well above today's rate; a faster
    # service that drains it ends the measured phase early.
    count = int(args.seconds * 12) + 8

    def set_up(attempt: int):
        imported = import_seconds()
        started = time.perf_counter()
        inputs = service_stream(args.seed, count)
        daemon = service_rt.Daemon(SRC, workdir / f"daemon-{attempt}",
                                   bool(args.trace))
        return imported + time.perf_counter() - started, inputs, daemon

    setup_s, inputs, daemon = set_up(0)
    try:
        loop = service_rt.closed_loop(daemon, inputs, args.seconds,
                                      bool(args.trace))
    finally:
        daemon.stop()
    setups = [setup_s]
    for attempt in range(1, 1 if args.trace else SETUP_REPEATS):
        seconds, _, daemon = set_up(attempt)
        daemon.stop()
        setups.append(seconds)
    for message in loop.messages:
        print(f"esdbench: {message}", file=sys.stderr)
    trips = loop.trips
    if not trips:
        raise RunError("no service round trip completed")
    attempted = len(trips) + loop.failed
    print(f"esdbench: service-rt: {service_rt.CLIENTS} client(s), "
          f"{attempted} attempted, {loop.failed} failed, "
          f"{loop.seconds:.2f} s measured, {count} inputs generated; "
          f"daemon VmHWM read after {loop.rss_trips} round trips")
    if args.trace:
        return {"attempted": attempted, "failed": loop.failed,
                "metrics": service_layers(trips)}
    walls = [t.wall for t in trips]
    return {"attempted": attempted, "failed": loop.failed, "metrics": {
        "setup_s": statistics.median(setups),
        "latency_s": statistics.median(walls),
        "latency_p90_s": p90(walls),
        "throughput": len(trips) / loop.seconds,
        "peak_rss_mb": loop.rss_mb,
    }}


def service_layers(trips) -> dict[str, float]:
    """Per-layer view of the round trip.  The daemon is another process,
    so the in-process sampler does not see it: shares, compile and repair
    layers read 0, and the daemon's split comes from job records and the
    per-job traces instead."""
    return {
        "core.static_s": mean(t.static_s for t in trips),
        "search.s": mean(t.search_s for t in trips),
        "symbex.instructions": mean(t.instructions for t in trips),
        "symbex.states": mean(t.states for t in trips),
        "service.submit_s": mean(t.submit_s for t in trips),
        "service.queue_wait_s": mean(t.queue_wait_s for t in trips),
        "service.job_s": mean(t.job_s for t in trips),
        "service.notify_lag_s": mean(t.notify_lag_s for t in trips),
        "service.fetch_s": mean(t.fetch_s for t in trips),
    }


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("esdbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"esdbench: no repro package under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    workdir = ROOT / ".esdbench" / f"run-{os.getpid()}"
    try:
        if args.workload == "service-rt":
            result = run_service(args, workdir)
        else:
            result = run_inprocess(args)
        metrics = report("per_layer" if args.trace else "end_to_end",
                         result["metrics"])
    except RunError as exc:
        print(f"esdbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, value in sorted(metrics.items()):
        print(f"esdbench: {name} = {value['value']:.6g} {value['unit']}")
    # An operation whose output fails a check is counted in ``failed``;
    # every other operation passed its checks, and a run that cannot vouch
    # for its outputs (repetitions that differ) exits above without a
    # result.  So ``correct`` holds whenever a result is printed.
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
