"""Core trajectory containers shared by the simulator and the data pipeline.

A :class:`Scene` is a continuous recording of one environment: a set of
:class:`AgentTrack` objects, each holding an agent's positions at a fixed
frame interval (0.4 s, matching the paper's TrajNet++ setup).  Scenes are
produced by the social-force simulator (:mod:`repro.sim`) and consumed by
the windowing code in :mod:`repro.data.dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AgentTrack", "Scene", "scenes_equal"]


@dataclass
class AgentTrack:
    """One agent's trajectory within a scene.

    Attributes
    ----------
    agent_id : unique id within the scene.
    start_frame : frame index of ``positions[0]``.
    positions : ``[T, 2]`` float array of (x, y) world coordinates in meters.
    """

    agent_id: int
    start_frame: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(
                f"positions must be [T, 2], got shape {self.positions.shape}"
            )
        if self.start_frame < 0:
            raise ValueError(f"start_frame must be >= 0, got {self.start_frame}")

    @property
    def num_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def end_frame(self) -> int:
        """Exclusive end frame."""
        return self.start_frame + self.num_frames

    def covers(self, start: int, stop: int) -> bool:
        """Whether the track has data for every frame in ``[start, stop)``."""
        return self.start_frame <= start and self.end_frame >= stop

    def slice_frames(self, start: int, stop: int) -> np.ndarray:
        """Positions for frames ``[start, stop)``; caller must check coverage."""
        if not self.covers(start, stop):
            raise ValueError(
                f"track {self.agent_id} covers [{self.start_frame}, {self.end_frame}), "
                f"requested [{start}, {stop})"
            )
        offset = start - self.start_frame
        return self.positions[offset : offset + (stop - start)]


@dataclass
class Scene:
    """A continuous multi-agent recording from one domain.

    Attributes
    ----------
    scene_id : identifier, unique within a dataset.
    domain : name of the domain the scene was recorded in (e.g. ``"syi"``).
    dt : seconds between consecutive frames.
    tracks : agent tracks, in no particular order.
    """

    scene_id: int
    domain: str
    dt: float
    tracks: list[AgentTrack] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        ids = [t.agent_id for t in self.tracks]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate agent ids in scene")

    @property
    def num_agents(self) -> int:
        return len(self.tracks)

    @property
    def num_frames(self) -> int:
        """Total frame span of the scene (max end frame)."""
        return max((t.end_frame for t in self.tracks), default=0)

    def tracks_covering(self, start: int, stop: int) -> list[AgentTrack]:
        """All tracks with complete data over frames ``[start, stop)``."""
        return [t for t in self.tracks if t.covers(start, stop)]

    def agents_at(self, frame: int) -> list[AgentTrack]:
        """Tracks that have data at ``frame``."""
        return [t for t in self.tracks if t.start_frame <= frame < t.end_frame]

    def positions_at(self, frame: int) -> np.ndarray:
        """Positions of all agents present at ``frame``, shape ``[N, 2]``."""
        present = self.agents_at(frame)
        if not present:
            return np.zeros((0, 2))
        return np.stack([t.positions[frame - t.start_frame] for t in present])


def scenes_equal(a: Scene, b: Scene) -> bool:
    """Strict bitwise equality of two scenes, including track order.

    The golden contract between the vectorized scene generator and its seed
    oracle (and between cached and regenerated datasets): identical metadata
    and, track by track in order, identical ids, start frames, and positions
    down to the last bit — track *order* matters because it determines sample
    order and therefore batch composition downstream.
    """
    if (a.scene_id, a.domain, a.dt, len(a.tracks)) != (
        b.scene_id,
        b.domain,
        b.dt,
        len(b.tracks),
    ):
        return False
    return all(
        ta.agent_id == tb.agent_id
        and ta.start_frame == tb.start_frame
        and ta.positions.shape == tb.positions.shape
        and np.array_equal(ta.positions, tb.positions)
        for ta, tb in zip(a.tracks, b.tracks)
    )
