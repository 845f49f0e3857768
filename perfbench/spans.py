"""In-memory span recording for the benchmark's traced runs.

A :class:`Recorder` replaces a public attribute (a module function or a
class method) with a timed shim.  Durations aggregate in memory per name,
as a total and a call count, and leave the process once, when the run
ends.  Nothing in ``repro`` imports this module, and an untraced run never
calls :meth:`Recorder.wrap`, so it installs nothing.

Only the outermost call of a name on a thread is timed: ``encode_frame_auto``
calls ``encode_frame``, and both carry the same span name, so the frame is
counted once.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "mean", "percentile"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class Recorder:
    """Per-name span totals and counts, shared by every thread of a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def add(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            self._totals[name] += seconds
            self._counts[name] += count

    @property
    def tag(self) -> str | None:
        """This thread's tag: spans also record under ``name@tag``."""
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value: str | None) -> None:
        self._local.tag = value

    def total(self, name: str) -> float:
        with self._lock:
            return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def mean(self, name: str) -> float:
        """Mean seconds per call of ``name`` (0 when never called)."""
        with self._lock:
            calls = self._counts.get(name, 0)
            return self._totals[name] / calls if calls else 0.0

    def snapshot(self) -> dict[str, list]:
        """``{name: [total_seconds, count]}``, JSON-ready."""
        with self._lock:
            return {name: [self._totals[name], self._counts[name]] for name in self._totals}

    def merge(self, snapshot: dict[str, list]) -> None:
        """Fold another process's :meth:`snapshot` into this recorder."""
        for name, (total, count) in snapshot.items():
            self.add(name, float(total), int(count))

    # -- installation ------------------------------------------------------
    def timed(self, name: str, fn, label=None):
        """``fn`` behind a shim that records its outermost calls as ``name``.

        ``label(args)`` may name a second span for the same interval (the
        per-method forward of ``training_step``).
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            active = self._local.__dict__.setdefault("active", set())
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                active.discard(name)
                self.add(name, elapsed)
                tag = self.tag
                if tag is not None:
                    self.add(f"{name}@{tag}", elapsed)
                if label is not None:
                    self.add(label(args), elapsed)

        return shim

    def timed_iter(self, name: str, fn, extra=None):
        """A generator function behind a shim that times each ``next``.

        Time the consumer spends between items is not counted.  ``extra()``
        may name a second span for the same item (or return None).
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._record_item(name, time.perf_counter() - start, extra)
                    return
                self._record_item(name, time.perf_counter() - start, extra)
                yield item

        return shim

    def _record_item(self, name: str, elapsed: float, extra) -> None:
        self.add(name, elapsed)
        second = extra() if extra is not None else None
        if second is not None:
            self.add(second, elapsed)

    def wrap(self, owner, attr: str, name: str, label=None) -> None:
        self.install(owner, attr, self.timed(name, getattr(owner, attr), label))

    def install(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced (newest first)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
