"""Telemetry core: thread-safe counters, gauges, and log-bucket histograms.

The serving stack is concurrent (asyncio event loop + worker threads), so
every instrument here is safe to update from any thread, and — the property
the p99 gate in ``benchmarks/bench_server.py`` leans on — **snapshots are
deterministic functions of the recorded multiset of events**:

* :class:`Histogram` uses *fixed* bucket bounds chosen at construction
  (log-spaced by default, :func:`log_bounds`), never adaptive resizing, so
  the same events recorded in any thread interleaving land in the same
  buckets and produce the same bucket counts, ``count``, ``min`` and
  ``max``.  (``sum`` is a float accumulation and may differ in the last
  ulps across orderings; bucket counts are the deterministic signal.)
* Quantiles (:meth:`Histogram.quantile`) are interpolated from the bucket
  counts — linear within the target bucket, clamped to the observed
  ``min``/``max`` so a histogram of identical values reports that exact
  value at every quantile.

:class:`MetricsRegistry` names instruments with optional labels
(``registry.histogram("serve_stage_seconds", model="m", stage="inference")``)
and renders everything JSON-ready via :meth:`MetricsRegistry.snapshot` —
the payload of the serving ``metrics`` wire operation.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_bounds",
]


def log_bounds(lo: float, hi: float, per_decade: int = 5) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds covering ``[lo, hi]``.

    Returns ``per_decade`` bounds per factor-of-10, starting at ``lo`` and
    extended until ``hi`` is covered.  The sequence depends only on the
    arguments — two histograms built from the same spec always agree on
    bucketing, which is what makes cross-process/cross-run snapshots
    comparable.
    """
    if lo <= 0:
        raise ValueError(f"lo must be > 0, got {lo}")
    if hi <= lo:
        raise ValueError(f"hi must be > lo, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    steps = int(math.ceil(math.log10(hi / lo) * per_decade))
    bounds = [lo * 10.0 ** (i / per_decade) for i in range(steps + 1)]
    if bounds[-1] < hi:  # floating-point shortfall on the last decade
        bounds.append(hi)
    return tuple(bounds)


#: Default latency bounds: 10 µs to 60 s, 5 buckets per decade.  Wide enough
#: for a fast in-process predict and a multi-second cold model load alike.
DEFAULT_LATENCY_BOUNDS = log_bounds(1e-5, 60.0, per_decade=5)


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, in-flight count)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Fixed-bound histogram with bucket-interpolated quantiles.

    ``bounds`` are the bucket *upper* edges: bucket ``i`` counts values
    ``v`` with ``bounds[i-1] < v <= bounds[i]`` (bucket 0: ``v <=
    bounds[0]``), plus one overflow bucket for ``v > bounds[-1]``.  Bounds
    are fixed at construction — recording never reshapes the histogram, so
    concurrent recorders only contend on a short lock and snapshots are
    interleaving-independent (see the module docstring).
    """

    __slots__ = ("bounds", "_edges", "_counts", "_lock", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS) -> None:
        edges = np.asarray(bounds, dtype=np.float64)
        if edges.ndim != 1 or edges.size == 0:
            raise ValueError("bounds must be a non-empty 1-D sequence")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bounds must be strictly increasing")
        self.bounds = edges
        #: The bounds as Python floats: ``record`` bisects them per value.
        self._edges = edges.tolist()
        self._counts = [0] * (edges.size + 1)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        v = float(value)
        # Bucket index is computed outside the lock: it depends only on the
        # fixed bounds, so contention stays at a few integer updates.  The
        # index is ``np.searchsorted(bounds, v, side="left")``; NaN compares
        # false against every bound, so it goes to the overflow bucket by
        # hand, where searchsorted sorts it.
        index = len(self._edges) if math.isnan(v) else bisect_left(self._edges, v)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in ``[min, max]``.

        Linear interpolation inside the bucket holding the target rank,
        with the first bucket's lower edge taken as the observed ``min``
        and the overflow bucket's upper edge as the observed ``max`` (both
        also clamp interior buckets), so:

        * an **empty** histogram returns ``0.0``;
        * a **single-valued** histogram (all records equal, any count)
          returns that exact value for every ``q``;
        * estimates are monotone in ``q`` and never leave ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = self._counts.copy()
            count, vmin, vmax = self._count, self._min, self._max
        if count == 0:
            return 0.0
        target = q * count
        if target <= 0:
            return vmin
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = 0.0 if index == 0 else float(self.bounds[index - 1])
                hi = vmax if index == self.bounds.size else float(self.bounds[index])
                lo = max(lo, vmin)
                hi = min(hi, vmax)
                if hi <= lo:
                    return lo
                fraction = (target - cumulative) / bucket_count
                return lo + (hi - lo) * fraction
            cumulative += bucket_count
        return vmax  # unreachable unless counts drifted; defensive

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready state: counts per bucket, moments, p50/p95/p99."""
        with self._lock:
            counts = self._counts.copy()
            count, total = self._count, self._sum
            vmin = self._min if self._count else 0.0
            vmax = self._max if self._count else 0.0
        return {
            "count": int(count),
            "sum": float(total),
            "min": float(vmin),
            "max": float(vmax),
            "mean": float(total / count) if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                "le": [float(b) for b in self.bounds] + ["inf"],
                "counts": [int(c) for c in counts],
            },
        }


def _instrument_key(name: str, labels: dict) -> str:
    """Render ``name{k=v,...}`` with labels sorted — order-insensitive."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Named, labeled instruments with one JSON-ready snapshot.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair builds the instrument, later calls return
    the same object (so call sites can look instruments up cheaply or cache
    them — both see the same state).  A name must keep one instrument kind;
    reusing it as another kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, tuple[str, object]] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: dict, factory):
        if not name:
            raise ValueError("instrument name must be non-empty")
        key = _instrument_key(name, labels)
        with self._lock:
            entry = self._instruments.get(key)
            if entry is not None:
                existing_kind, instrument = entry
                if existing_kind != kind:
                    raise ValueError(
                        f"instrument {key!r} already registered as "
                        f"{existing_kind}, not {kind}"
                    )
                return instrument
            instrument = factory()
            self._instruments[key] = (kind, instrument)
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels, lambda: Histogram(bounds)
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments, grouped by kind, keyed ``name{label=value,...}``.

        The result contains only JSON-native types — it is the payload of
        the serving ``metrics`` operation verbatim.
        """
        with self._lock:
            items = list(self._instruments.items())
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key, (kind, instrument) in sorted(items):
            out[kind + "s"][key] = instrument.snapshot()
        return out
