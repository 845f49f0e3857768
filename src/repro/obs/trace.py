"""Request-lifecycle tracing: lightweight spans over the serving stages.

A served prediction crosses several queues and threads; a single
submit→resolve latency number cannot say *where* time went.  This module
defines the canonical stage names and :class:`Span`, the codebase's one
context-manager stopwatch (``LearningMethod.fit`` times training with it).
A request that sets ``trace: true`` gets its stage durations back in
``meta.trace`` (see ``docs/observability.md``).

The canonical stages (:data:`STAGES`), in request order:

``admission``
    Parse + admission control (handler entry up to the enqueue, where
    ``queue_wait`` starts).
``queue_wait``
    Queued in the micro-batcher until popped into a flush chunk.
``coalesce``
    Collating the popped requests into one padded batch and deriving the
    flush's noise stream.
``route``
    Popped chunk handed to a free slot until its task starts on the event
    loop, for either kind of slot.
``inference``
    The slot's forward as the event loop awaits it: for an in-process
    slot, ``predictor.predict_world`` on a pool thread, hops included; for
    a worker-process slot, the chunk exchange with the child (write, wait,
    read).
``encode``
    Serializing a response frame.  Recorded into the server's histograms
    only — a response cannot carry the cost of its own serialization.

A worker-process slot also reports ``compute``, the child's own forward
time.  It is *nested* inside ``inference``, not a stage of its own: a
trace carries it under ``nested`` and the server records it into
``serve_nested_stage_seconds``, so it never counts toward a request's
coverage of its total.

Stage durations are recorded into per-model ``serve_stage_seconds``
histograms by the server; all timing uses a monotonic clock and stages
from different clocks are only ever compared as durations.
"""

from __future__ import annotations

import time
from collections.abc import Callable

__all__ = ["STAGES", "Span"]

#: Canonical request-lifecycle stage names, in request order.
STAGES = ("admission", "queue_wait", "coalesce", "route", "inference", "encode")


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

