"""Helbing–Molnár social-force pedestrian dynamics.

This simulator is the data substrate of the reproduction: the paper
evaluates on four public pedestrian datasets (ETH&UCY, L-CAS, SYI, SDD) which
are not downloadable in this offline environment, so we *generate* domains
with the same kinds of distribution shift (density, speed, dominant axis of
motion, acceleration — the quantities the paper's Table I contrasts).

The model follows Helbing & Molnár (1995), the same physics-grounded model
the trajectory-prediction literature references for crowd interactions
([11] in the paper):

* **goal attraction** — relax the velocity toward the desired velocity with
  time constant ``tau``;
* **agent–agent repulsion** — exponentially decaying force along the
  separation vector, attenuated outside the field of view (anisotropy
  factor ``lambda``);
* **wall repulsion** — exponential force from the closest point of each
  wall segment, computed for all walls in one broadcast;
* **stochastic perturbation** — Gaussian noise modelling individual whim.

All force computations are vectorized over agents (and over walls).  The
seed per-wall / ``np.linalg.norm``-based implementations are preserved in
``tests/sim/oracles.py`` as the golden-tested oracle
(``tests/sim/test_generator_fast.py`` enforces bit-identical outputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AgentBatch", "SocialForceParams", "Wall", "WallSet", "social_force_step"]

_EPS = 1e-9

#: Smallest backing-array capacity of an :class:`AgentBatch`.
_MIN_CAPACITY = 8


@dataclass
class SocialForceParams:
    """Physical parameters of the social-force model.

    Defaults follow the values commonly used for the Helbing–Molnár model
    (repulsion strength ~2000 N scaled to unit mass, range 0.3 m).
    """

    tau: float = 0.5  # velocity relaxation time [s]
    repulsion_strength: float = 2.0  # A  [m/s^2]
    repulsion_range: float = 0.4  # B  [m]
    agent_radius: float = 0.25  # body radius [m]
    anisotropy: float = 0.3  # lambda in [0, 1]; 1 = isotropic
    wall_strength: float = 4.0
    wall_range: float = 0.25
    noise_std: float = 0.05  # stochastic acceleration [m/s^2]
    max_speed: float = 6.0  # hard speed cap [m/s]

    def __post_init__(self) -> None:
        if not 0.0 <= self.anisotropy <= 1.0:
            raise ValueError(f"anisotropy must be in [0, 1], got {self.anisotropy}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be positive, got {self.max_speed}")


@dataclass
class Wall:
    """A line-segment obstacle from ``start`` to ``end`` (meters)."""

    start: tuple[float, float]
    end: tuple[float, float]


class AgentBatch:
    """Mutable state of all currently-active agents (struct-of-arrays).

    Storage is preallocated and capacity-doubled: :meth:`append` writes into
    the first free row and only reallocates when the backing arrays are full,
    so a stream of arrivals costs amortized O(1) per agent instead of the
    O(N) full-array ``np.vstack`` copy per arrival (O(N²) per scene) of the
    seed implementation.  ``positions`` & co. are views of the first
    ``num_agents`` rows — in-place mutation (``batch.goals[i] = ...``) writes
    through, and whole-array assignment (``batch.velocities = ...``) copies
    into the backing storage without changing the agent count.
    """

    __slots__ = (
        "_num",
        "_positions",
        "_velocities",
        "_goals",
        "_desired_speeds",
        "_ids",
    )

    def __init__(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        goals: np.ndarray,
        desired_speeds: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        goals = np.asarray(goals, dtype=np.float64)
        desired_speeds = np.asarray(desired_speeds, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        n = positions.shape[0]
        for name, arr in (("velocities", velocities), ("goals", goals)):
            if arr.shape != (n, 2):
                raise ValueError(f"{name} must be [{n}, 2], got {arr.shape}")
        if desired_speeds.shape != (n,):
            raise ValueError(f"desired_speeds must be [{n}], got {desired_speeds.shape}")
        if ids.shape != (n,):
            raise ValueError(f"ids must be [{n}], got {ids.shape}")

        capacity = max(n, _MIN_CAPACITY)
        self._num = n
        self._positions = np.zeros((capacity, 2))
        self._velocities = np.zeros((capacity, 2))
        self._goals = np.zeros((capacity, 2))
        self._desired_speeds = np.zeros(capacity)
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._positions[:n] = positions
        self._velocities[:n] = velocities
        self._goals[:n] = goals
        self._desired_speeds[:n] = desired_speeds
        self._ids[:n] = ids

    # -- array views ---------------------------------------------------
    def _view(self, backing: np.ndarray) -> np.ndarray:
        return backing[: self._num]

    def _assign(self, backing: np.ndarray, value: np.ndarray, name: str) -> None:
        value = np.asarray(value)
        if value.shape != backing[: self._num].shape:
            raise ValueError(
                f"{name} must keep shape {backing[: self._num].shape}, got "
                f"{value.shape}; use append()/remove() to change the agent count"
            )
        backing[: self._num] = value

    @property
    def positions(self) -> np.ndarray:
        return self._view(self._positions)

    @positions.setter
    def positions(self, value: np.ndarray) -> None:
        self._assign(self._positions, value, "positions")

    @property
    def velocities(self) -> np.ndarray:
        return self._view(self._velocities)

    @velocities.setter
    def velocities(self, value: np.ndarray) -> None:
        self._assign(self._velocities, value, "velocities")

    @property
    def goals(self) -> np.ndarray:
        return self._view(self._goals)

    @goals.setter
    def goals(self, value: np.ndarray) -> None:
        self._assign(self._goals, value, "goals")

    @property
    def desired_speeds(self) -> np.ndarray:
        return self._view(self._desired_speeds)

    @desired_speeds.setter
    def desired_speeds(self, value: np.ndarray) -> None:
        self._assign(self._desired_speeds, value, "desired_speeds")

    @property
    def ids(self) -> np.ndarray:
        return self._view(self._ids)

    @ids.setter
    def ids(self, value: np.ndarray) -> None:
        self._assign(self._ids, value, "ids")

    # -- size management -----------------------------------------------
    @property
    def num_agents(self) -> int:
        return self._num

    @property
    def capacity(self) -> int:
        return self._positions.shape[0]

    @classmethod
    def empty(cls) -> AgentBatch:
        return cls(
            positions=np.zeros((0, 2)),
            velocities=np.zeros((0, 2)),
            goals=np.zeros((0, 2)),
            desired_speeds=np.zeros(0),
            ids=np.zeros(0, dtype=np.int64),
        )

    def _grow(self, capacity: int) -> None:
        for name in self.__slots__[1:]:
            old = getattr(self, name)
            new = np.zeros((capacity, *old.shape[1:]), dtype=old.dtype)
            new[: self._num] = old[: self._num]
            setattr(self, name, new)

    def append(
        self,
        position: np.ndarray,
        velocity: np.ndarray,
        goal: np.ndarray,
        desired_speed: float,
        agent_id: int,
    ) -> None:
        if self._num == self.capacity:
            self._grow(max(2 * self.capacity, _MIN_CAPACITY))
        i = self._num
        self._positions[i] = position
        self._velocities[i] = velocity
        self._goals[i] = goal
        self._desired_speeds[i] = desired_speed
        self._ids[i] = agent_id
        self._num = i + 1

    def remove(self, keep_mask: np.ndarray) -> None:
        """Compact the batch down to the agents where ``keep_mask`` is True."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self._num,):
            raise ValueError(f"keep_mask must be [{self._num}], got {keep_mask.shape}")
        kept = int(np.count_nonzero(keep_mask))
        for name in self.__slots__[1:]:
            backing = getattr(self, name)
            backing[:kept] = backing[: self._num][keep_mask]
        self._num = kept


def _norm_rows(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing (x, y) axis.

    Bit-identical to ``np.linalg.norm(vectors, axis=-1)`` for 2-vectors
    (same squares, same left-to-right add, same sqrt) without the generic
    dispatch overhead — this runs once per force term per physics step.
    """
    return np.sqrt(vectors[..., 0] ** 2 + vectors[..., 1] ** 2)


class WallSet:
    """Precomputed per-component geometry for a list of wall segments.

    Building the endpoint arrays (and the clamped squared lengths the
    point–segment projection divides by) once per scene instead of once per
    physics substep is a large share of the wall-force cost at simulation
    scale.  Components are stored as separate x/y ``[W, 1]`` columns so the
    force kernel can work on contiguous ``[W, N]`` planes (see
    :func:`_wall_force`).  ``social_force_step`` accepts either a plain
    ``list[Wall]`` or a prebuilt ``WallSet``.
    """

    __slots__ = (
        "num_walls",
        "start_x",
        "start_y",
        "delta_x",
        "delta_y",
        "denoms",
        "degenerate_rows",
    )

    def __init__(self, walls: list[Wall]) -> None:
        walls = list(walls)
        self.num_walls = len(walls)
        starts = np.array([w.start for w in walls], dtype=np.float64).reshape(-1, 2)
        ends = np.array([w.end for w in walls], dtype=np.float64).reshape(-1, 2)
        deltas = ends - starts
        denoms = deltas[:, 0] ** 2 + deltas[:, 1] ** 2  # [W]
        self.start_x = starts[:, :1]  # [W, 1] columns, broadcast against [N]
        self.start_y = starts[:, 1:]
        self.delta_x = deltas[:, :1]
        self.delta_y = deltas[:, 1:]
        self.denoms = np.maximum(denoms, _EPS)[:, None]
        # Degenerate (zero-length) walls repel from their start point (t=0).
        self.degenerate_rows = np.flatnonzero(denoms < _EPS)

    def __bool__(self) -> bool:
        return self.num_walls > 0


def _goal_force(
    positions: np.ndarray,
    velocities: np.ndarray,
    goals: np.ndarray,
    desired_speeds: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Relaxation toward the desired velocity: (v_des * e_goal - v) / tau."""
    to_goal = goals - positions
    dist = _norm_rows(to_goal)
    np.maximum(dist, _EPS, out=dist)
    to_goal /= dist[:, None]  # direction
    to_goal *= desired_speeds[:, None]  # desired velocity
    to_goal -= velocities
    to_goal /= tau
    return to_goal


def _agent_repulsion(
    positions: np.ndarray, velocities: np.ndarray, params: SocialForceParams
) -> np.ndarray:
    """Pairwise anisotropic exponential repulsion, vectorized over all pairs.

    Works on separate contiguous x/y ``[N, N]`` planes instead of the
    reference's interleaved ``[N, N, 2]`` array — broadcasting against the
    trailing length-2 axis is the dominant cost at simulation scale.  Every
    elementwise operation matches the reference value for value: squares and
    sums accumulate x-then-y exactly like the reference's trailing-axis
    reductions, ``cos_phi`` is computed against the repulsion direction and
    negated (IEEE negation is exact), and the final per-component
    ``einsum("ij->i")`` accumulates j sequentially exactly like the
    reference's ``sum(axis=1)`` over the interleaved layout.
    """
    n = positions.shape[0]
    out = np.zeros((n, 2))
    if n < 2:
        return out
    x = positions[:, 0]
    y = positions[:, 1]
    dx = x[:, None] - x  # [N, N] i - j
    dy = y[:, None] - y
    dist = np.sqrt(dx * dx + dy * dy)  # [N, N]
    dist.flat[:: n + 1] = np.inf  # fill_diagonal
    denom = np.maximum(dist, _EPS)
    dx /= denom  # direction, in place
    dy /= denom

    magnitude = np.subtract(2 * params.agent_radius, dist, out=dist)  # dist dead
    magnitude /= params.repulsion_range
    np.exp(magnitude, out=magnitude)
    magnitude *= params.repulsion_strength

    # Anisotropy: forces from agents behind are attenuated.  cos_phi is the
    # angle between agent i's heading and the direction towards agent j.
    vx = velocities[:, 0]
    vy = velocities[:, 1]
    speed = np.maximum(np.sqrt(vx * vx + vy * vy), _EPS)
    hx = vx / speed  # heading
    hy = vy / speed
    weight = hx[:, None] * dx
    weight += hy[:, None] * dy
    np.negative(weight, out=weight)  # cos_phi
    weight += 1.0
    weight *= 1 - params.anisotropy
    weight /= 2.0
    weight += params.anisotropy

    magnitude *= weight
    # The reference reduces its interleaved [N, N, 2] force array over axis 1,
    # which accumulates j *sequentially*; einsum over a contiguous plane would
    # use SIMD partial sums and drift by an ulp.  Writing the force components
    # into an interleaved buffer and reducing its stride-2 planes keeps
    # numpy on the sequential path (golden tests pin this down).
    force = np.empty((n, n, 2))
    np.multiply(dx, magnitude, out=force[..., 0])
    np.multiply(dy, magnitude, out=force[..., 1])
    np.einsum("ij->i", force[..., 0], out=out[:, 0])
    np.einsum("ij->i", force[..., 1], out=out[:, 1])
    return out


def _wall_force(
    positions: np.ndarray, walls: WallSet, params: SocialForceParams
) -> np.ndarray:
    """Repulsion from every wall segment, stacked into one broadcast.

    All point–segment distances are computed at once over contiguous
    ``[W, N]`` x/y planes; summing the per-wall forces over axis 0
    accumulates in wall order, matching the seed per-wall loop bit for bit
    (an outer-axis reduce is sequential).
    """
    x = positions[:, 0]
    y = positions[:, 1]
    relx = x - walls.start_x  # [W, N]
    rely = y - walls.start_y
    t = relx * walls.delta_x
    t += rely * walls.delta_y
    t /= walls.denoms
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    if walls.degenerate_rows.size:
        t[walls.degenerate_rows] = 0.0

    closest_x = t * walls.delta_x
    closest_x += walls.start_x
    closest_y = np.multiply(t, walls.delta_y, out=t)  # t dead
    closest_y += walls.start_y
    vecx = np.subtract(x, closest_x, out=closest_x)  # [W, N]
    vecy = np.subtract(y, closest_y, out=closest_y)

    dist = np.sqrt(vecx * vecx + vecy * vecy)  # [W, N]
    denom = np.maximum(dist, _EPS)
    vecx /= denom  # direction, in place
    vecy /= denom
    magnitude = np.subtract(params.agent_radius, dist, out=dist)  # dist dead
    magnitude /= params.wall_range
    np.exp(magnitude, out=magnitude)
    magnitude *= params.wall_strength
    vecx *= magnitude
    vecy *= magnitude

    out = np.empty((positions.shape[0], 2))
    np.add.reduce(vecx, axis=0, out=out[:, 0])
    np.add.reduce(vecy, axis=0, out=out[:, 1])
    return out


def social_force_step(
    batch: AgentBatch,
    params: SocialForceParams,
    dt: float,
    walls: list[Wall] | WallSet | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """Advance all agents by one step of duration ``dt`` (in place).

    ``walls`` may be a prebuilt :class:`WallSet`; callers stepping the same
    scenario repeatedly (the scene generator) should build it once.
    """
    if batch.num_agents == 0:
        return
    positions = batch.positions  # views into the backing storage
    velocities = batch.velocities
    force = _goal_force(
        positions, velocities, batch.goals, batch.desired_speeds, params.tau
    )
    force += _agent_repulsion(positions, velocities, params)
    if walls:
        if not isinstance(walls, WallSet):
            walls = WallSet(walls)
        force += _wall_force(positions, walls, params)
    if rng is not None and params.noise_std > 0:
        force += rng.normal(0.0, params.noise_std, size=force.shape)

    force *= dt
    velocities += force  # writes through the view
    vx = velocities[:, 0]
    vy = velocities[:, 1]
    speed = np.sqrt(vx * vx + vy * vy)[:, None]
    over = speed > params.max_speed
    if over.any():
        velocities[:] = np.where(
            over, velocities * (params.max_speed / np.maximum(speed, _EPS)), velocities
        )
    force = np.multiply(velocities, dt, out=force)
    positions += force
