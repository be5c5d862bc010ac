"""The service round trip: ``repro serve`` as a child process, driven over
HTTP through :class:`~repro.service.client.ServiceClient`.

A closed loop of at most ``nproc`` client threads; each operation submits
one distinct small BPF program, follows ``/v1/jobs/<id>/stream`` to the
``done`` frame and fetches the execution artifact.  Daemon-side timing comes
from the job record's ``created_at``/``started_at``/``finished_at`` and, in
the traced run, from the per-job trace the daemon serves.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.jobs import FOUND, JobSpec
from repro.core.execfile import ExecutionFile
from repro.obs.trace import phase_summary
from repro.playback import play_back
from repro.service.client import ServiceClient, ServiceClientError

from .checks import CheckFailed, check_bpf_inputs, check_replay
from .inputs import Input

START_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0
# Closed-loop clients, and daemon workers: at most nproc, and 2 at most.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
# The daemon's memory grows with the jobs it has served, so its peak RSS is
# read when this many round trips have completed, not at the end of a
# time-bounded run, where a faster service would have served more jobs.
RSS_AT_TRIPS = 48
_LISTENING = re.compile(r"listening on (http://\S+)")


class Daemon:
    """One ``repro serve`` child process with its own store directory."""

    def __init__(self, src: Path, workdir: Path, trace: bool) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "daemon.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env.pop("REPRO_WORKERS", None)
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--store", str(workdir / "store"),
                   "--max-workers", str(CLIENTS)]
        if trace:
            command.append("--trace")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(command, stdout=self._log,
                                     stderr=subprocess.STDOUT, env=env,
                                     cwd=str(workdir))
        try:
            self.url = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                ServiceClient(match.group(1), timeout=5.0).health()
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("repro serve did not start: "
                          + self.log_path.read_text(encoding="utf-8")[-500:])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT)
        self._log.close()


@dataclass
class RoundTrip:
    wall: float
    submit_s: float
    queue_wait_s: float
    job_s: float
    notify_lag_s: float
    fetch_s: float
    instructions: int
    states: int
    static_s: float = 0.0
    search_s: float = 0.0


@dataclass
class LoopResult:
    trips: list[RoundTrip] = field(default_factory=list)
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    seconds: float = 0.0
    # The daemon's VmHWM and the round trips completed when it was read.
    rss_mb: float = 0.0
    rss_trips: int = 0


def round_trip(client: ServiceClient, inp: Input,
               trace: bool) -> tuple[RoundTrip, bytes]:
    """One submit -> stream-to-done -> fetch operation; returns its timings
    and the fetched execution artifact."""
    spec = JobSpec(report=inp.report, source=inp.workload.source,
                   program_name=inp.name)
    started = time.perf_counter()
    record = client.submit(spec)
    submitted = time.perf_counter()
    if record.get("deduped"):
        raise RuntimeError("submission deduped onto an earlier job")
    job = None
    for event, data in client.stream(record["job_id"]):
        if event == "done":
            job = data
    notified = time.time()
    if job is None:
        raise RuntimeError("stream ended without a done frame")
    digest = job.get("artifacts", {}).get("execution")
    if job.get("state") != FOUND or digest is None:
        raise RuntimeError(f"job ended {job.get('state')} "
                           f"({job.get('reason') or job.get('error')})")
    fetch_started = time.perf_counter()
    artifact = client.fetch_artifact(digest)
    finished = time.perf_counter()
    result = job.get("result") or {}
    trip = RoundTrip(
        wall=finished - started,
        submit_s=submitted - started,
        queue_wait_s=job["started_at"] - job["created_at"],
        job_s=job["finished_at"] - job["started_at"],
        notify_lag_s=notified - job["finished_at"],
        fetch_s=finished - fetch_started,
        instructions=int(result.get("instructions", 0)),
        states=int(result.get("states_explored", 0)),
    )
    if trace:
        phases = phase_summary(json.loads(
            client.fetch_artifact(job["artifacts"]["trace"])
        ))["phase_seconds"]
        trip.static_s = phases.get("static", 0.0)
        trip.search_s = phases.get("search", 0.0)
    return trip, artifact


def check_round_trip(inp: Input, artifact: bytes) -> None:
    execution = ExecutionFile.from_dict(json.loads(artifact))
    check_bpf_inputs(inp, execution)
    check_replay(inp.report, play_back(inp.workload.compile(), execution,
                                       mode="strict"))


def closed_loop(daemon: Daemon, inputs: list[Input], seconds: float,
                trace: bool) -> LoopResult:
    """Run :data:`CLIENTS` closed-loop clients until ``seconds`` pass or the
    input stream runs out."""
    out = LoopResult()
    lock = threading.Lock()
    stream = iter(inputs)
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        client = ServiceClient(daemon.url, timeout=60.0)
        while time.perf_counter() < deadline:
            with lock:
                inp = next(stream, None)
            if inp is None:
                return
            try:
                trip, artifact = round_trip(client, inp, trace)
                check_round_trip(inp, artifact)
            except (CheckFailed, RuntimeError, ServiceClientError) as exc:
                with lock:
                    out.failed += 1
                    out.messages.append(f"{inp.name}: {exc}")
                continue
            with lock:
                out.trips.append(trip)
                if len(out.trips) == RSS_AT_TRIPS:
                    out.rss_mb = daemon.peak_rss_mb()
                    out.rss_trips = RSS_AT_TRIPS

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError("a service client did not finish")
    out.seconds = time.perf_counter() - started
    if not out.rss_trips:
        # A run too short or too slow to reach RSS_AT_TRIPS.
        out.rss_mb = daemon.peak_rss_mb()
        out.rss_trips = len(out.trips)
    return out

