"""A stdlib sampling profiler that attributes time to ``repro`` subsystems.

A side thread wakes every :data:`INTERVAL` seconds, reads the target thread's
frame from ``sys._current_frames()`` and buckets the sample by the
innermost frame that lives under ``repro/<subsystem>/``.  Samples are only
counted while an operation is active (:meth:`Sampler.active`), so set-up
and the benchmark's own checks never dilute the shares.  Frames of modules
directly in the package root (``repro/schema.py``) bucket as ``repro``;
samples with no ``repro`` frame at all (benchmark code, or the stdlib called
from it) bucket as ``other``.

Besides the exclusive bucket, a sample also counts once toward fault
localization when one of :data:`LOCALIZE_FUNCTIONS` is anywhere on the
stack, which gives localization's inclusive time without touching the
program.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Optional

# Seconds between samples.
INTERVAL = 0.005
# The functions of fault localization, as (path under the package root,
# name); ``repair`` calls them one after the other, never nested.
LOCALIZE_FUNCTIONS = frozenset({
    (os.path.join("repair", "localize.py"), "localize"),
    (os.path.join("repair", "localize.py"), "synthesize_passing_executions"),
})


class Sampler:
    def __init__(self, package_dir: str) -> None:
        self.root = os.path.join(os.path.realpath(package_dir), "")
        self.buckets: Counter[str] = Counter()
        self.localize_samples = 0
        self.samples = 0
        self.active_seconds = 0.0
        self._target: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._bucket_cache: dict[str, tuple[Optional[str], str]] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="esdbench-sampler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise RuntimeError("sampler thread did not stop")
            self._thread = None

    @contextmanager
    def active(self):
        """Count samples of the calling thread for the duration."""
        started = time.perf_counter()
        self._target = threading.get_ident()
        try:
            yield
        finally:
            self._target = None
            self.active_seconds += time.perf_counter() - started

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            target = self._target
            if target is None:
                continue
            frame = sys._current_frames().get(target)
            if frame is not None and self._target == target:
                self.take(frame)

    def take(self, frame) -> None:
        """Bucket one sample whose innermost frame is ``frame``."""
        bucket = None
        localizing = False
        while frame is not None:
            code = frame.f_code
            sub, rel = self._locate(code.co_filename)
            if sub is not None:
                if bucket is None:
                    bucket = sub
                localizing = (localizing
                              or (rel, code.co_name) in LOCALIZE_FUNCTIONS)
            frame = frame.f_back
        self.samples += 1
        self.buckets[bucket or "other"] += 1
        self.localize_samples += localizing

    def _locate(self, filename: str) -> tuple[Optional[str], str]:
        """(subsystem, path relative to the package root) of a code file;
        subsystem is None outside the package."""
        try:
            return self._bucket_cache[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        found: tuple[Optional[str], str] = (None, "")
        if path.startswith(self.root):
            rel = path[len(self.root):]
            found = (rel.split(os.sep, 1)[0] if os.sep in rel else "repro", rel)
        self._bucket_cache[filename] = found
        return found

    # -- results -----------------------------------------------------------

    def share(self, bucket: str) -> float:
        return self.buckets[bucket] / self.samples if self.samples else 0.0

    def localize_seconds(self) -> float:
        """Inclusive seconds estimated for fault localization: its share of
        the samples times the active wall time."""
        if not self.samples:
            return 0.0
        return self.localize_samples / self.samples * self.active_seconds
