"""End-to-end serving engine: stream points in, get world-frame futures out.

:class:`ServingEngine` composes the three serving layers —
:class:`~repro.serve.streaming.StreamingWindows` (per-agent sliding windows),
:class:`~repro.serve.batcher.MicroBatcher` (padded coalescing through the
vectorized model path), and a :class:`~repro.serve.predictor.Predictor`
(inference-mode model execution) — behind two calls:

>>> engine.ingest_frame(t, {agent_id: (x, y), ...})   # every frame
>>> futures = engine.predict_ready(t)                 # {agent_id: [K, pred_len, 2]}

Outputs are in world coordinates (the normalization round trip from
``repro.data`` is applied internally) and match the offline
``predict_samples`` evaluation path on the identically-composed batch.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.serve.batcher import MicroBatcher, PendingPrediction
from repro.serve.predictor import Predictor
from repro.serve.streaming import StreamingWindows

__all__ = ["ServingEngine"]


class ServingEngine:
    """Online trajectory-prediction service over a trained predictor."""

    def __init__(
        self,
        predictor: Predictor,
        num_samples: int = 1,
        max_batch_size: int = 32,
        max_neighbours: int | None = None,
        rng: np.random.Generator | int | None = 0,
        seed_per_flush: int | None = None,
        compile: bool | None = None,
    ) -> None:
        self.predictor = predictor
        # ``compile=True`` turns on the predictor's planned fast path; the
        # micro-batcher pads flushes to shape buckets, so the plan cache
        # converges to a handful of entries.  ``None`` leaves the
        # predictor's own setting untouched.
        if compile is not None:
            predictor.set_compile(compile)
        self.windows = StreamingWindows(
            obs_len=predictor.obs_len, max_neighbours=max_neighbours
        )
        # ``seed_per_flush`` opts the in-process engine into the same
        # per-batch RNG derivation the network server uses, making its
        # served batches replayable from ``(seed, batch_id)`` alone.
        self.batcher = MicroBatcher(
            predictor,
            num_samples=num_samples,
            max_batch_size=max_batch_size,
            rng=rng,
            seed_per_flush=seed_per_flush,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, agent_id, frame: int, x: float, y: float) -> None:
        """Feed one ``(agent_id, t, x, y)`` observation point."""
        self.windows.push(agent_id, frame, x, y)

    def ingest_frame(self, frame: int, positions: Mapping[object, tuple[float, float]]) -> None:
        """Feed one frame's worth of points, ``{agent_id: (x, y)}``."""
        self.windows.push_frame(frame, positions)

    def evict(self, agent_id) -> None:
        """Forget an agent's window (despawn)."""
        self.windows.evict(agent_id)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def submit_ready(self, frame: int) -> list[PendingPrediction]:
        """Enqueue every agent whose window is complete at ``frame``.

        The requests only queue; :meth:`predict_ready` (or the batcher's
        ``flush``) runs them.
        """
        return [self.batcher.submit(r) for r in self.windows.requests(frame)]

    def predict_ready(self, frame: int) -> dict[object, np.ndarray]:
        """Predict for every ready agent at ``frame``, synchronously.

        All ready agents are coalesced (in ``max_batch_size`` chunks) and the
        queue is drained, so the result maps every ready ``agent_id`` to
        world-frame futures of shape ``[num_samples, pred_len, 2]``.
        """
        handles = self.submit_ready(frame)
        self.batcher.flush()
        return {h.request.request_id[0]: h.result() for h in handles}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """In-process serving counters, mirroring the server's ``stats`` op.

        One flat snapshot of the batcher's coalescing counters plus the
        predictor's compiled-fast-path cache state (``None`` for predictors
        without a plan cache), so an embedded engine is observable the same
        way a network server is.
        """
        batcher = self.batcher
        return {
            "agents": self.windows.num_agents,
            "pending": batcher.pending_count,
            "total_requests": batcher.total_requests,
            "total_batches": batcher.total_batches,
            "total_completed": batcher.total_completed,
            "total_failed": batcher.total_failed,
            "total_expired": batcher.total_expired,
            "mean_batch_size": round(batcher.mean_batch_size, 3),
            "max_batch_size": batcher.max_batch_size,
            "num_samples": batcher.num_samples,
            "compile": self.predictor.compile_stats()
            if hasattr(self.predictor, "compile_stats")
            else None,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has run."""
        return self.batcher.closed

    def shutdown(self, reason: str = "serving engine shut down") -> int:
        """Stop the engine; idempotent, never hangs a waiting consumer.

        Pending (submitted but unflushed) predictions receive a terminal
        :class:`~repro.serve.batcher.ServingClosedError` through their
        handles, streaming state is dropped, and any later prediction
        submission raises the same error.  Returns the number of requests
        that were failed; repeated calls are no-ops returning 0.
        """
        failed = self.batcher.shutdown(reason)
        # Streaming windows hold no waiters; dropping them frees the buffers
        # and makes post-shutdown ingest a cheap no-op state rebuild.
        self.windows = StreamingWindows(
            obs_len=self.predictor.obs_len, max_neighbours=self.windows.max_neighbours
        )
        return failed
