"""Request-lifecycle tracing: lightweight spans over the serving stages.

A served prediction crosses several queues and threads; a single
submit→resolve latency number cannot say *where* time went.  This module
defines the canonical stage names, :func:`record_stages` (stage durations
into per-model histograms) and :class:`Span`, the codebase's one
context-manager stopwatch (``LearningMethod.fit`` times training with it).
A request that sets ``trace: true`` gets its stage durations back in
``meta.trace`` (see ``docs/observability.md``).

The canonical stages (:data:`STAGES`), in request order:

``admission``
    Parse + admission control + enqueue (handler entry to queued).
``queue_wait``
    Queued in the micro-batcher until popped into a flush chunk.
``coalesce``
    Collating the popped requests into one padded batch.
``route``
    Popped chunk scheduled until its worker thread starts executing
    (slot lock wait + executor hand-off).
``inference``
    The model forward (``predictor.predict_world``) on the worker thread.
``encode``
    Serializing a response frame.  Recorded into the server's histograms
    only — a response cannot carry the cost of its own serialization.

Stage durations are recorded into per-model histograms through
:func:`record_stages`; all timing uses a monotonic clock and stages from
different clocks are only ever compared as durations.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = ["STAGES", "Span", "record_stages"]

#: Canonical request-lifecycle stage names, in request order.
STAGES = ("admission", "queue_wait", "coalesce", "route", "inference", "encode")

#: Histogram name the serving stack records stage durations under.
STAGE_METRIC = "serve_stage_seconds"


class Span:
    """A stopwatch for one named stage.

    >>> span = Span("inference")
    >>> with span:
    ...     pass
    >>> span.duration_s >= 0.0
    True

    ``on_close`` (when given) receives ``(name, duration_s)`` as the span
    exits, even when the block raised.
    """

    __slots__ = ("name", "clock", "started_at", "duration_s", "_on_close")

    def __init__(
        self,
        name: str,
        clock: Callable[[], float] = time.monotonic,
        on_close: Callable[[str, float], None] | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.started_at: float | None = None
        self.duration_s: float | None = None
        self._on_close = on_close

    def __enter__(self) -> "Span":
        self.started_at = self.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration_s = self.clock() - self.started_at
        if self._on_close is not None:
            self._on_close(self.name, self.duration_s)


def record_stages(
    registry: MetricsRegistry, model: str, stages: Mapping[str, float]
) -> None:
    """Record one request's stage durations into per-model histograms.

    Instruments are named ``serve_stage_seconds{model=...,stage=...}``; the
    registry's get-or-create semantics make this safe to call from any
    thread without pre-registration.
    """
    for stage, seconds in stages.items():
        registry.histogram(STAGE_METRIC, model=model, stage=stage).record(seconds)
