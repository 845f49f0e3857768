"""Streaming ingestion: per-agent sliding observation windows.

Online traffic arrives as individual ``(agent_id, frame, x, y)`` points, not
as pre-cut prediction samples.  :class:`StreamingWindows` maintains one
fixed-size sliding window per agent and, at any frame, emits
ready-to-predict :class:`~repro.serve.batcher.PredictRequest` objects for
every agent whose window is full and current:

* a window is **full** after ``obs_len`` consecutive frames; a gap in an
  agent's stream resets its window (partial histories never reach the model);
* a request's **neighbours** are the other agents that are ready at the same
  frame — the streaming equivalent of the offline protocol, where a sample's
  neighbours are the other tracks covering the observation window
  (:func:`repro.data.dataset.extract_samples`);
* when ``max_neighbours`` is set, the nearest neighbours by distance at the
  focal agent's last observed position are kept, exactly as offline.

Coordinates stay in the world frame here; normalization (and its inverse)
happens at collate/denormalize time in the micro-batcher, reusing the
``repro.data`` round trip.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping

import numpy as np

from repro.data.dataset import OBS_LEN
from repro.serve.batcher import PredictRequest

__all__ = ["StreamingWindows"]


class _AgentWindow:
    """Rolling ``[obs_len, 2]`` buffer for one agent's stream."""

    __slots__ = ("buffer", "filled", "last_frame")

    def __init__(self, obs_len: int) -> None:
        self.buffer = np.zeros((obs_len, 2))
        self.filled = 0
        self.last_frame: int | None = None

    def push(self, frame: int, xy: np.ndarray) -> None:
        if self.last_frame is not None:
            if frame == self.last_frame and self.filled:
                # Duplicate delivery of the same frame: keep the latest point.
                self.buffer[self.filled - 1] = xy
                return
            if frame != self.last_frame + 1:
                # Gap (or out-of-order replay): the window is no longer a
                # contiguous history, so start over from this point.
                self.filled = 0
        if self.filled < self.buffer.shape[0]:
            self.buffer[self.filled] = xy
            self.filled += 1
        else:
            self.buffer[:-1] = self.buffer[1:]
            self.buffer[-1] = xy
        self.last_frame = frame

    def window_at(self, frame: int) -> np.ndarray | None:
        """The full window ending at ``frame``, or None if not ready."""
        if self.last_frame != frame or self.filled < self.buffer.shape[0]:
            return None
        return self.buffer


class StreamingWindows:
    """Sliding-window state over a live stream of agent positions."""

    def __init__(self, obs_len: int = OBS_LEN, max_neighbours: int | None = None) -> None:
        if obs_len < 1:
            raise ValueError(f"obs_len must be >= 1, got {obs_len}")
        self.obs_len = obs_len
        self.max_neighbours = max_neighbours
        # Insertion-ordered so request emission order is deterministic.
        self._agents: OrderedDict[object, _AgentWindow] = OrderedDict()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, agent_id, frame: int, x: float, y: float) -> None:
        """Ingest one observation point."""
        window = self._agents.get(agent_id)
        if window is None:
            window = self._agents[agent_id] = _AgentWindow(self.obs_len)
        window.push(int(frame), np.array((x, y), dtype=np.float64))

    def push_frame(self, frame: int, positions: Mapping[object, tuple[float, float]]) -> None:
        """Ingest one frame's worth of points, ``{agent_id: (x, y)}``."""
        for agent_id, (x, y) in positions.items():
            self.push(agent_id, frame, x, y)

    def drop_stale(self, frame: int, max_age: int) -> int:
        """Evict agents not heard from within ``max_age`` frames; returns count."""
        stale = [
            agent_id
            for agent_id, window in self._agents.items()
            if window.last_frame is None or frame - window.last_frame > max_age
        ]
        for agent_id in stale:
            del self._agents[agent_id]
        return len(stale)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return len(self._agents)

    def ready_agents(self, frame: int) -> list:
        """Agents with a full, current window at ``frame`` (insertion order)."""
        return [
            agent_id
            for agent_id, window in self._agents.items()
            if window.window_at(frame) is not None
        ]

    def requests(self, frame: int) -> list[PredictRequest]:
        """One :class:`PredictRequest` per ready agent at ``frame``.

        The windows of all ready agents are assembled once into a
        ``[R, obs_len, 2]`` array; each focal agent's neighbours are the
        other ready rows (nearest-first capped when ``max_neighbours`` is
        set), so emission is vectorized over agents.
        """
        ready = self.ready_agents(frame)
        if not ready:
            return []
        windows = np.stack([self._agents[a].buffer for a in ready])  # [R, T, 2]
        out: list[PredictRequest] = []
        keep = np.ones(len(ready), dtype=bool)
        for i, agent_id in enumerate(ready):
            keep[i] = False
            neighbours = windows[keep]
            keep[i] = True
            if (
                self.max_neighbours is not None
                and neighbours.shape[0] > self.max_neighbours
            ):
                dist = np.linalg.norm(
                    neighbours[:, -1, :] - windows[i, -1][None, :], axis=1
                )
                order = np.argsort(dist)[: self.max_neighbours]
                neighbours = neighbours[order]
            out.append(
                PredictRequest(
                    request_id=(agent_id, frame),
                    obs=windows[i].copy(),
                    neighbours=neighbours.copy(),
                )
            )
        return out
