"""Frozen seed implementation of the scene generator (test code only).

The production path (:func:`repro.sim.generator.simulate_scene` on top of the
vectorized :func:`repro.sim.social_force.social_force_step`) replaces the
seed's per-agent Python loops with batched operations.  This module keeps the
seed implementation *verbatim* — per-wall force loop, per-agent
``np.linalg.norm`` goal checks, dict-of-lists frame recording — as a tested
oracle, the same pattern as ``tests/nn/oracles.py`` for the fused LSTM and
``tests/models/oracles.py`` for the fused decoder:

* ``tests/sim/test_generator_fast.py`` asserts the fast path reproduces the
  oracle's scenes **bit for bit** at fixed seeds;
* ``benchmarks/bench_experiment_engine.py`` gates the fast path's wall-clock
  speedup against this oracle.

The only intentional deviation from the seed is that :class:`AgentBatch`
itself now uses preallocated capacity-doubled storage, so the oracle is no
longer accidentally quadratic in arrivals — its numerical behaviour is
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.data.trajectory import AgentTrack, Scene
from repro.sim.domains import DomainSpec, get_domain
from repro.sim.scenarios import Scenario
from repro.sim.social_force import _EPS, AgentBatch, SocialForceParams, Wall
from repro.utils.seeding import new_rng

__all__ = ["is_done_reference", "simulate_scene_reference", "social_force_step_reference"]


def is_done_reference(scenario: Scenario, position: np.ndarray, goal: np.ndarray) -> bool:
    """Seed per-agent goal check: done once within ``DONE_RADIUS`` of the goal."""
    return bool(np.linalg.norm(position - goal) < scenario.DONE_RADIUS)


def _goal_force_reference(batch: AgentBatch, params: SocialForceParams) -> np.ndarray:
    """Relaxation toward the desired velocity: (v_des * e_goal - v) / tau."""
    to_goal = batch.goals - batch.positions
    dist = np.linalg.norm(to_goal, axis=1, keepdims=True)
    direction = to_goal / np.maximum(dist, _EPS)
    desired = direction * batch.desired_speeds[:, None]
    return (desired - batch.velocities) / params.tau


def _agent_repulsion_reference(batch: AgentBatch, params: SocialForceParams) -> np.ndarray:
    """Pairwise anisotropic exponential repulsion, vectorized over all pairs."""
    n = batch.num_agents
    if n < 2:
        return np.zeros((n, 2))
    diff = batch.positions[:, None, :] - batch.positions[None, :, :]  # [N, N, 2] i - j
    dist = np.linalg.norm(diff, axis=-1)  # [N, N]
    np.fill_diagonal(dist, np.inf)
    direction = diff / np.maximum(dist, _EPS)[..., None]

    magnitude = params.repulsion_strength * np.exp(
        (2 * params.agent_radius - dist) / params.repulsion_range
    )

    speed = np.linalg.norm(batch.velocities, axis=1, keepdims=True)
    heading = batch.velocities / np.maximum(speed, _EPS)  # [N, 2]
    towards_j = -direction  # direction from i to j
    cos_phi = np.einsum("id,ijd->ij", heading, towards_j)
    weight = params.anisotropy + (1 - params.anisotropy) * (1 + cos_phi) / 2.0

    force = (magnitude * weight)[..., None] * direction
    return force.sum(axis=1)


def _point_segment_vector(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vector from the closest point on segment ``ab`` to each of ``points``."""
    ab = b - a
    denom = float(ab @ ab)
    if denom < _EPS:
        closest = np.broadcast_to(a, points.shape)
    else:
        t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
    return points - closest


def _wall_force_reference(
    batch: AgentBatch, walls: list[Wall], params: SocialForceParams
) -> np.ndarray:
    """Seed per-wall loop (the vectorized version stacks all walls at once)."""
    total = np.zeros((batch.num_agents, 2))
    for wall in walls:
        a, b = np.asarray(wall.start, dtype=np.float64), np.asarray(wall.end, dtype=np.float64)
        vec = _point_segment_vector(batch.positions, a, b)
        dist = np.linalg.norm(vec, axis=1)
        direction = vec / np.maximum(dist, _EPS)[:, None]
        magnitude = params.wall_strength * np.exp(
            (params.agent_radius - dist) / params.wall_range
        )
        total += magnitude[:, None] * direction
    return total


def social_force_step_reference(
    batch: AgentBatch,
    params: SocialForceParams,
    dt: float,
    walls: list[Wall] | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """Advance all agents by one step of duration ``dt`` (in place)."""
    if batch.num_agents == 0:
        return
    force = _goal_force_reference(batch, params) + _agent_repulsion_reference(batch, params)
    if walls:
        force += _wall_force_reference(batch, walls, params)
    if rng is not None and params.noise_std > 0:
        force += rng.normal(0.0, params.noise_std, size=force.shape)

    batch.velocities = batch.velocities + force * dt
    speed = np.linalg.norm(batch.velocities, axis=1, keepdims=True)
    over = speed > params.max_speed
    if np.any(over):
        batch.velocities = np.where(
            over, batch.velocities * (params.max_speed / np.maximum(speed, _EPS)), batch.velocities
        )
    batch.positions = batch.positions + batch.velocities * dt


def simulate_scene_reference(
    domain: DomainSpec | str,
    num_frames: int = 120,
    scene_id: int = 0,
    rng: np.random.Generator | int | None = None,
    warmup_frames: int = 20,
) -> Scene:
    """Seed ``simulate_scene``: per-agent goal loop, dict-of-lists recording.

    Consumes the RNG stream in exactly the same order as the fast path
    (poisson → spawns → noise → per-done-agent reassignment), which is what
    makes bit-identical golden comparison possible.
    """
    if isinstance(domain, str):
        domain = get_domain(domain)
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    rng = new_rng(rng)

    scenario = domain.scenario
    batch = AgentBatch.empty()
    next_id = 0
    spawn_rate = domain.spawn_rate()

    # Recorded positions per agent id: {id: (first_recorded_frame, [positions])}
    recordings: dict[int, tuple[int, list[np.ndarray]]] = {}
    finished: list[AgentTrack] = []

    total_frames = warmup_frames + num_frames
    for frame in range(total_frames):
        for _ in range(domain.substeps):
            # Poisson arrivals at the physics rate.
            for _ in range(rng.poisson(spawn_rate)):
                event = scenario.spawn(rng)
                heading = event.goal - event.position
                norm = np.linalg.norm(heading)
                velocity = (
                    heading / norm * event.desired_speed if norm > 1e-9 else np.zeros(2)
                )
                batch.append(event.position, velocity, event.goal, event.desired_speed, next_id)
                next_id += 1

            social_force_step_reference(
                batch, domain.params, domain.physics_dt, scenario.walls, rng
            )

            # Goal handling: re-target wanderers, despawn the rest.
            if batch.num_agents:
                keep = np.ones(batch.num_agents, dtype=bool)
                for i in range(batch.num_agents):
                    if not is_done_reference(scenario, batch.positions[i], batch.goals[i]):
                        continue
                    new_goal = scenario.reassign_goal(rng, batch.positions[i])
                    if new_goal is None:
                        keep[i] = False
                    else:
                        batch.goals[i] = new_goal
                if not keep.all():
                    for agent_id in batch.ids[~keep]:
                        record = recordings.pop(int(agent_id), None)
                        if record is not None:
                            start, positions = record
                            finished.append(
                                AgentTrack(int(agent_id), start, np.array(positions))
                            )
                    batch.remove(keep)

        # Record one output frame (after warmup).
        if frame < warmup_frames:
            continue
        out_frame = frame - warmup_frames
        for i, agent_id in enumerate(batch.ids):
            key = int(agent_id)
            if key not in recordings:
                recordings[key] = (out_frame, [])
            recordings[key][1].append(batch.positions[i].copy())

    for agent_id, (start, positions) in recordings.items():
        finished.append(AgentTrack(agent_id, start, np.array(positions)))

    tracks = [t for t in finished if t.num_frames >= 2]
    return Scene(scene_id=scene_id, domain=domain.name, dt=domain.frame_dt, tracks=tracks)
