"""Scene generation: run the social-force simulation and record trajectories.

``simulate_scene`` advances one continuous recording with Poisson arrivals
(agents spawn at scenario-defined entries, walk to their goals, and leave),
sampling positions every ``frame_dt`` seconds into :class:`AgentTrack`
records.  ``generate_scenes`` produces a list of scenes for a domain — the
synthetic equivalent of one of the paper's datasets.

This is the vectorized production path: goal checks run as one batched
scenario call per substep (:meth:`Scenario.is_done_batch`), frames are
recorded as contiguous per-frame snapshots instead of per-agent position
lists, and the physics step stacks all walls into a single broadcast.  The
seed per-agent implementation is preserved in ``tests/sim/oracles.py``;
``tests/sim/test_generator_fast.py`` asserts the two produce bit-identical
scenes at fixed seeds, and ``benchmarks/bench_experiment_engine.py`` gates
the speedup.
"""

from __future__ import annotations

import numpy as np

from repro.data.trajectory import AgentTrack, Scene
from repro.sim.domains import DomainSpec, get_domain
from repro.sim.social_force import AgentBatch, WallSet, social_force_step
from repro.utils.seeding import new_rng, spawn_rng

__all__ = ["generate_scenes", "simulate_scene"]


def _assemble_tracks(
    frame_ids: list[np.ndarray],
    frame_positions: list[np.ndarray],
    removal_log: list[int],
) -> list[AgentTrack]:
    """Group per-frame (ids, positions) snapshots into per-agent tracks.

    Reproduces the seed track ordering exactly: agents despawned during the
    recording come first in chronological removal order, then agents still
    present at the end in order of first recorded appearance.  Tracks shorter
    than 2 frames are dropped (same post-filter as the seed).
    """
    if not frame_ids:
        return []
    all_ids = np.concatenate(frame_ids)
    if all_ids.size == 0:
        return []
    all_positions = np.concatenate(frame_positions)
    frames = np.repeat(
        np.arange(len(frame_ids)), [ids.shape[0] for ids in frame_ids]
    )

    # Stable sort groups records by agent id while keeping frame order
    # (snapshots were appended chronologically) within each group.
    order = np.argsort(all_ids, kind="stable")
    sorted_ids = all_ids[order]
    bounds = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    ends = np.r_[bounds[1:], sorted_ids.size]

    # agent id -> (first appearance index in the record stream, track)
    segments: dict[int, tuple[int, AgentTrack]] = {}
    for begin, end in zip(bounds, ends):
        indices = order[begin:end]
        agent_id = int(sorted_ids[begin])
        start_frame = int(frames[indices[0]])
        segments[agent_id] = (
            int(indices[0]),
            AgentTrack(agent_id, start_frame, all_positions[indices]),
        )

    finished: list[AgentTrack] = []
    for agent_id in removal_log:
        seg = segments.pop(agent_id, None)
        if seg is not None:  # removed before any output frame was recorded
            finished.append(seg[1])
    for _, (_, track) in sorted(segments.items(), key=lambda item: item[1][0]):
        finished.append(track)
    return [t for t in finished if t.num_frames >= 2]


def simulate_scene(
    domain: DomainSpec | str,
    num_frames: int = 120,
    scene_id: int = 0,
    rng: np.random.Generator | int | None = None,
    warmup_frames: int = 20,
) -> Scene:
    """Simulate one continuous recording of ``num_frames`` output frames.

    ``warmup_frames`` extra frames are simulated first (and discarded) so the
    recording starts from a populated steady state rather than an empty
    scene.
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
    walls = WallSet(scenario.walls)  # endpoint arrays built once, not per substep

    # Contiguous per-frame snapshots (post-warmup) plus the despawn order —
    # everything _assemble_tracks needs to rebuild per-agent tracks.
    frame_ids: list[np.ndarray] = []
    frame_positions: list[np.ndarray] = []
    removal_log: list[int] = []

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

            social_force_step(batch, domain.params, domain.physics_dt, walls, rng)

            # Goal handling: one batched done-check; only the few agents that
            # actually arrived take the per-agent reassignment path (in index
            # order, keeping the RNG stream identical to the reference).
            if batch.num_agents:
                done = scenario.is_done_batch(batch.positions, batch.goals)
                if done.any():
                    done_indices = np.flatnonzero(done)
                    new_goals = scenario.reassign_goals(
                        rng, batch.positions[done_indices]
                    )
                    keep = np.ones(batch.num_agents, dtype=bool)
                    for i, new_goal in zip(done_indices, new_goals):
                        if new_goal is None:
                            keep[i] = False
                        else:
                            batch.goals[i] = new_goal
                    if not keep.all():
                        removal_log.extend(int(a) for a in batch.ids[~keep])
                        batch.remove(keep)

        # Record one output frame (after warmup): one array copy per frame
        # instead of a Python loop appending per-agent position copies.
        if frame < warmup_frames:
            continue
        frame_ids.append(batch.ids.copy())
        frame_positions.append(batch.positions.copy())

    tracks = _assemble_tracks(frame_ids, frame_positions, removal_log)
    return Scene(scene_id=scene_id, domain=domain.name, dt=domain.frame_dt, tracks=tracks)


def generate_scenes(
    domain: DomainSpec | str,
    num_scenes: int = 4,
    frames_per_scene: int = 120,
    rng: np.random.Generator | int | None = None,
) -> list[Scene]:
    """Generate ``num_scenes`` independent recordings for one domain."""
    if isinstance(domain, str):
        domain = get_domain(domain)
    if num_scenes < 1:
        raise ValueError(f"num_scenes must be >= 1, got {num_scenes}")
    rng = new_rng(rng)
    children = spawn_rng(rng, num_scenes)
    return [
        simulate_scene(domain, frames_per_scene, scene_id=i, rng=children[i])
        for i in range(num_scenes)
    ]
