"""``repro.obs`` — stdlib+numpy telemetry for serving and compilation.

Three small modules, no third-party dependencies:

* :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms with
  fixed log-spaced buckets (deterministic snapshots) and a labeled
  :class:`~repro.obs.metrics.MetricsRegistry`.
* :mod:`repro.obs.trace` — the canonical serving stages (admission →
  queue wait → coalesce → route → inference → encode) and :class:`Span`,
  the one stopwatch.
* :mod:`repro.obs.log` — structured one-line-JSON event logging.

See ``docs/observability.md`` for the instrument catalogue and wire
additions (the ``metrics`` op and the per-request ``trace`` flag).
"""

from repro.obs.log import JsonLogger, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_bounds,
)
from repro.obs.trace import STAGES, Span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "STAGES",
    "Span",
    "get_logger",
    "log_bounds",
]
