"""Scenario geometries and spawn models for the four synthetic domains.

A :class:`Scenario` couples the static environment (walls, spatial extent)
with a stochastic *spawn model* that decides where new agents enter, where
they are heading, and how fast they want to walk.  The four concrete
scenarios mirror the qualitative character of the paper's datasets:

* :class:`CorridorScenario` (ETH&UCY-like): bidirectional horizontal
  pedestrian flow between two walls — leader–follower and head-on avoidance.
* :class:`IndoorScenario` (L-CAS-like): slow indoor wandering between
  waypoints inside a bounded room with an obstacle.
* :class:`ConcourseScenario` (SYI-like): a wide station concourse with a
  dense, fast, predominantly *vertical* flow.
* :class:`PlazaScenario` (SDD-like): an open campus plaza crossed in all
  directions by pedestrians plus a fraction of fast cyclists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.social_force import Wall

__all__ = [
    "ConcourseScenario",
    "CorridorScenario",
    "IndoorScenario",
    "PlazaScenario",
    "Scenario",
    "SpawnEvent",
]


@dataclass
class SpawnEvent:
    """A new agent entering the scene."""

    position: np.ndarray
    goal: np.ndarray
    desired_speed: float


@dataclass
class Scenario:
    """Base scenario: rectangular extent plus wall segments."""

    width: float = 20.0
    height: float = 20.0
    walls: list[Wall] = field(default_factory=list)
    speed_mean: float = 1.3
    speed_std: float = 0.2

    def sample_speed(self, rng: np.random.Generator) -> float:
        return float(max(0.1, rng.normal(self.speed_mean, self.speed_std)))

    def spawn(self, rng: np.random.Generator) -> SpawnEvent:
        raise NotImplementedError

    # Goal-arrival radius in meters (no annotation: a plain class constant,
    # not a dataclass field).
    DONE_RADIUS = 0.5

    def is_done_batch(self, positions: np.ndarray, goals: np.ndarray) -> np.ndarray:
        """Which of ``[N, 2]`` agents are within ``DONE_RADIUS`` of their goal.

        A done agent gets a new goal or leaves the simulation.  One broadcast
        norm replaces the seed's per-agent goal check; the golden tests
        compare the two bit for bit, so a subclass that changes when an agent
        is done changes the seed oracle's check in
        ``tests/sim/oracles.py`` too.
        """
        to_goal = goals - positions
        return np.sqrt(to_goal[:, 0] ** 2 + to_goal[:, 1] ** 2) < self.DONE_RADIUS

    def reassign_goal(self, rng: np.random.Generator, position: np.ndarray) -> np.ndarray | None:
        """Optionally give a finished agent a new goal (None = despawn)."""
        return None

    def reassign_goals(
        self, rng: np.random.Generator, positions: np.ndarray
    ) -> list[np.ndarray | None]:
        """Batched goal reassignment for the agents flagged done.

        Calls :meth:`reassign_goal` once per row **in row order** so the RNG
        stream matches the seed per-agent loop exactly; only the done agents
        reach this point (a handful per substep), so the loop is not a hot
        path.
        """
        return [self.reassign_goal(rng, position) for position in positions]


@dataclass
class CorridorScenario(Scenario):
    """Bidirectional horizontal flow along a corridor (ETH&UCY-like)."""

    width: float = 24.0
    height: float = 6.0
    speed_mean: float = 0.75
    speed_std: float = 0.35

    def __post_init__(self) -> None:
        self.walls = [
            Wall((0.0, 0.0), (self.width, 0.0)),
            Wall((0.0, self.height), (self.width, self.height)),
        ]

    def spawn(self, rng: np.random.Generator) -> SpawnEvent:
        margin = 0.8
        y_start = rng.uniform(margin, self.height - margin)
        y_goal = rng.uniform(margin, self.height - margin)
        if rng.random() < 0.5:  # left -> right
            position = np.array([rng.uniform(0.0, 1.0), y_start])
            goal = np.array([self.width, y_goal])
        else:  # right -> left
            position = np.array([rng.uniform(self.width - 1.0, self.width), y_start])
            goal = np.array([0.0, y_goal])
        return SpawnEvent(position, goal, self.sample_speed(rng))


@dataclass
class IndoorScenario(Scenario):
    """Slow indoor wandering with an obstacle (L-CAS-like)."""

    width: float = 12.0
    height: float = 12.0
    speed_mean: float = 0.28
    speed_std: float = 0.12
    rewander_probability: float = 0.5

    def __post_init__(self) -> None:
        w, h = self.width, self.height
        self.walls = [
            Wall((0.0, 0.0), (w, 0.0)),
            Wall((w, 0.0), (w, h)),
            Wall((w, h), (0.0, h)),
            Wall((0.0, h), (0.0, 0.0)),
            # A central kiosk/desk obstacle.
            Wall((w * 0.4, h * 0.45), (w * 0.6, h * 0.45)),
            Wall((w * 0.4, h * 0.55), (w * 0.6, h * 0.55)),
        ]

    def _interior_point(self, rng: np.random.Generator) -> np.ndarray:
        return np.array(
            [rng.uniform(1.0, self.width - 1.0), rng.uniform(1.0, self.height - 1.0)]
        )

    def spawn(self, rng: np.random.Generator) -> SpawnEvent:
        return SpawnEvent(
            self._interior_point(rng), self._interior_point(rng), self.sample_speed(rng)
        )

    def reassign_goal(self, rng: np.random.Generator, position: np.ndarray) -> np.ndarray | None:
        if rng.random() < self.rewander_probability:
            return self._interior_point(rng)
        return None


@dataclass
class ConcourseScenario(Scenario):
    """Dense, fast, predominantly vertical flow (SYI-like)."""

    width: float = 30.0
    height: float = 40.0
    speed_mean: float = 2.9
    speed_std: float = 0.35
    lateral_drift: float = 3.0  # max |x_goal - x_start|

    def __post_init__(self) -> None:
        self.walls = [
            Wall((0.0, 0.0), (0.0, self.height)),
            Wall((self.width, 0.0), (self.width, self.height)),
        ]

    def spawn(self, rng: np.random.Generator) -> SpawnEvent:
        margin = 1.0
        x_start = rng.uniform(margin, self.width - margin)
        x_goal = float(
            np.clip(
                x_start + rng.uniform(-self.lateral_drift, self.lateral_drift),
                margin,
                self.width - margin,
            )
        )
        if rng.random() < 0.8:  # dominant downward direction
            position = np.array([x_start, self.height])
            goal = np.array([x_goal, 0.0])
        else:
            position = np.array([x_start, 0.0])
            goal = np.array([x_goal, self.height])
        return SpawnEvent(position, goal, self.sample_speed(rng))


@dataclass
class PlazaScenario(Scenario):
    """Open campus plaza crossed in all directions; some cyclists (SDD-like)."""

    width: float = 35.0
    height: float = 35.0
    speed_mean: float = 0.8
    speed_std: float = 0.3
    cyclist_fraction: float = 0.2
    cyclist_speed_mean: float = 3.2
    cyclist_speed_std: float = 0.6

    def _edge_point(self, rng: np.random.Generator) -> np.ndarray:
        side = rng.integers(4)
        t_w = rng.uniform(0.0, self.width)
        t_h = rng.uniform(0.0, self.height)
        if side == 0:
            return np.array([t_w, 0.0])
        if side == 1:
            return np.array([t_w, self.height])
        if side == 2:
            return np.array([0.0, t_h])
        return np.array([self.width, t_h])

    def spawn(self, rng: np.random.Generator) -> SpawnEvent:
        position = self._edge_point(rng)
        goal = self._edge_point(rng)
        # Re-draw a goal landing on the same side right next to the start.
        while np.linalg.norm(goal - position) < 5.0:
            goal = self._edge_point(rng)
        if rng.random() < self.cyclist_fraction:
            speed = float(max(0.5, rng.normal(self.cyclist_speed_mean, self.cyclist_speed_std)))
        else:
            speed = self.sample_speed(rng)
        return SpawnEvent(position, goal, speed)
