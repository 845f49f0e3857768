"""Golden tests: the vectorized simulator against the frozen seed oracle.

The contract (same pattern as ``tests/nn/oracles.py`` for the fused LSTM):
``repro.sim.generator.simulate_scene`` must reproduce
``tests/sim/oracles.py:simulate_scene_reference`` **bit for bit** — same
tracks, same order, same positions to the last ulp — for every domain at
fixed seeds.  Also covers the capacity-doubling :class:`AgentBatch` storage,
the batched scenario APIs, and the stacked wall force against the per-wall
reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.trajectory import scenes_equal
from repro.sim import (
    DOMAIN_NAMES,
    IndoorScenario,
    Scenario,
    get_domain,
    simulate_scene,
)
from repro.sim.social_force import (
    AgentBatch,
    SocialForceParams,
    Wall,
    WallSet,
    _wall_force,
    social_force_step,
)

from tests.sim.oracles import (
    _wall_force_reference,
    is_done_reference,
    simulate_scene_reference,
    social_force_step_reference,
)


def make_batch(rng: np.random.Generator, n: int) -> AgentBatch:
    return AgentBatch(
        positions=rng.normal(5.0, 4.0, (n, 2)),
        velocities=rng.normal(0.0, 1.0, (n, 2)),
        goals=rng.normal(5.0, 4.0, (n, 2)),
        desired_speeds=np.abs(rng.normal(1.0, 0.3, n)) + 0.1,
        ids=np.arange(n),
    )


class TestGoldenScenes:
    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_scene_matches_oracle_bitwise(self, domain):
        for seed in (3, 11):
            fast = simulate_scene(domain, num_frames=60, rng=seed)
            oracle = simulate_scene_reference(domain, num_frames=60, rng=seed)
            assert scenes_equal(fast, oracle)

    def test_scenes_differ_across_seeds(self):
        a = simulate_scene("lcas", num_frames=40, rng=1)
        b = simulate_scene("lcas", num_frames=40, rng=2)
        assert not scenes_equal(a, b)

    def test_scenes_equal_is_strict_about_order(self):
        scene = simulate_scene("lcas", num_frames=40, rng=1)
        reordered = type(scene)(
            scene_id=scene.scene_id,
            domain=scene.domain,
            dt=scene.dt,
            tracks=list(reversed(scene.tracks)),
        )
        assert not scenes_equal(scene, reordered)


class TestGoldenStep:
    """The optimized physics step matches the frozen seed step bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_step_matches_reference(self, rng, n):
        params = get_domain("eth_ucy").params
        walls = get_domain("lcas").scenario.walls
        fast = make_batch(np.random.default_rng(7), n)
        ref = make_batch(np.random.default_rng(7), n)
        rng_fast = np.random.default_rng(99)
        rng_ref = np.random.default_rng(99)
        for _ in range(25):
            social_force_step(fast, params, dt=0.1, walls=walls, rng=rng_fast)
            social_force_step_reference(ref, params, dt=0.1, walls=walls, rng=rng_ref)
        assert np.array_equal(fast.positions, ref.positions)
        assert np.array_equal(fast.velocities, ref.velocities)

    def test_wall_force_stacked_matches_per_wall_loop(self, rng):
        params = SocialForceParams()
        walls = [
            Wall((0.0, 0.0), (10.0, 0.0)),
            Wall((0.0, 5.0), (10.0, 5.0)),
            Wall((2.0, 1.0), (2.0, 4.0)),
            Wall((3.0, 3.0), (3.0, 3.0)),  # degenerate (point) wall
        ]
        batch = make_batch(rng, 23)
        stacked = _wall_force(batch.positions, WallSet(walls), params)
        looped = _wall_force_reference(batch, walls, params)
        assert np.array_equal(stacked, looped)

    def test_wall_set_accepted_by_step(self, rng):
        params = SocialForceParams(noise_std=0.0)
        walls = [Wall((-5.0, 0.0), (5.0, 0.0))]
        a = make_batch(np.random.default_rng(3), 5)
        b = make_batch(np.random.default_rng(3), 5)
        social_force_step(a, params, dt=0.1, walls=walls)
        social_force_step(b, params, dt=0.1, walls=WallSet(walls))
        assert np.array_equal(a.positions, b.positions)


class TestAgentBatchStorage:
    def test_append_grows_capacity_amortized(self):
        batch = AgentBatch.empty()
        capacities = set()
        for i in range(100):
            batch.append(np.zeros(2), np.zeros(2), np.ones(2), 1.0, i)
            capacities.add(batch.capacity)
        assert batch.num_agents == 100
        # Doubling growth: far fewer distinct capacities than appends.
        assert len(capacities) <= 6
        assert np.array_equal(batch.ids, np.arange(100))

    def test_views_write_through(self):
        batch = make_batch(np.random.default_rng(0), 4)
        batch.goals[2] = np.array([9.0, 9.0])
        assert np.array_equal(batch.goals[2], [9.0, 9.0])
        batch.velocities = batch.velocities * 2.0
        assert batch.num_agents == 4

    def test_assignment_must_preserve_shape(self):
        batch = make_batch(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="append\\(\\)/remove\\(\\)"):
            batch.positions = np.zeros((3, 2))

    def test_remove_compacts_in_place(self):
        batch = make_batch(np.random.default_rng(0), 6)
        expected = batch.positions[[0, 2, 5]].copy()
        batch.remove(np.array([True, False, True, False, False, True]))
        assert batch.num_agents == 3
        assert np.array_equal(batch.positions, expected)
        assert np.array_equal(batch.ids, [0, 2, 5])

    def test_remove_validates_mask_shape(self):
        batch = make_batch(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="keep_mask"):
            batch.remove(np.array([True, False]))

    def test_append_after_remove_reuses_rows(self):
        batch = make_batch(np.random.default_rng(0), 3)
        batch.remove(np.array([True, False, True]))
        batch.append(np.full(2, 7.0), np.zeros(2), np.ones(2), 1.5, 42)
        assert batch.num_agents == 3
        assert batch.ids[-1] == 42
        assert np.array_equal(batch.positions[-1], [7.0, 7.0])


class TestBatchedScenarioAPIs:
    def test_is_done_batch_matches_scalar(self, rng):
        scenario = Scenario()
        positions = rng.normal(0.0, 1.0, (50, 2))
        goals = positions + rng.normal(0.0, 0.5, (50, 2))
        batched = scenario.is_done_batch(positions, goals)
        scalar = np.array(
            [is_done_reference(scenario, p, g) for p, g in zip(positions, goals)]
        )
        assert np.array_equal(batched, scalar)

    def test_reassign_goals_matches_scalar_rng_stream(self):
        scenario = IndoorScenario(rewander_probability=0.5)
        positions = np.random.default_rng(5).uniform(1, 11, (20, 2))
        batched = scenario.reassign_goals(np.random.default_rng(77), positions)
        rng = np.random.default_rng(77)
        scalar = [scenario.reassign_goal(rng, p) for p in positions]
        assert len(batched) == len(scalar)
        for a, b in zip(batched, scalar):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.array_equal(a, b)
