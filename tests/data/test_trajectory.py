"""Tests for AgentTrack and Scene containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.trajectory import AgentTrack, Scene


def straight_track(agent_id=0, start=0, length=10, speed=1.0):
    t = np.arange(length, dtype=np.float64)
    return AgentTrack(agent_id, start, np.stack([speed * t, np.zeros(length)], axis=1))


class TestAgentTrack:
    def test_validates_shape(self):
        with pytest.raises(ValueError, match=r"\[T, 2\]"):
            AgentTrack(0, 0, np.zeros((5, 3)))

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start_frame"):
            AgentTrack(0, -1, np.zeros((5, 2)))

    def test_frame_accounting(self):
        track = straight_track(start=3, length=7)
        assert track.num_frames == 7
        assert track.end_frame == 10
        assert track.covers(3, 10)
        assert not track.covers(2, 10)
        assert not track.covers(3, 11)

    def test_slice_frames(self):
        track = straight_track(start=2, length=8)
        window = track.slice_frames(4, 7)
        np.testing.assert_allclose(window[:, 0], [2.0, 3.0, 4.0])

    def test_slice_outside_raises(self):
        track = straight_track(start=2, length=8)
        with pytest.raises(ValueError, match="covers"):
            track.slice_frames(0, 5)

    def test_velocities(self):
        track = straight_track(length=5, speed=2.0)
        np.testing.assert_allclose(track.velocities(dt=1.0)[:, 0], 2.0)

    def test_velocity_dt_scaling(self):
        track = straight_track(length=5, speed=2.0)
        np.testing.assert_allclose(track.velocities(dt=0.4)[:, 0], 5.0)

    def test_slice_frames_at_track_end(self):
        track = straight_track(start=2, length=8)  # frames [2, 10)
        np.testing.assert_allclose(track.slice_frames(7, 10)[:, 0], [5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match=r"requested \[8, 11\)"):
            track.slice_frames(8, 11)

    def test_positions_coerced_to_float64(self):
        track = AgentTrack(0, 0, [[1, 2], [3, 4]])
        assert track.positions.dtype == np.float64


class TestScene:
    def make_scene(self):
        return Scene(
            scene_id=0,
            domain="eth_ucy",
            dt=0.4,
            tracks=[
                straight_track(agent_id=0, start=0, length=10),
                straight_track(agent_id=1, start=5, length=10),
                straight_track(agent_id=2, start=8, length=4),
            ],
        )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scene(0, "x", 0.4, [straight_track(0), straight_track(0)])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            Scene(0, "x", 0.0, [])

    def test_num_frames_is_max_end(self):
        assert self.make_scene().num_frames == 15

    def test_tracks_covering(self):
        scene = self.make_scene()
        ids = {t.agent_id for t in scene.tracks_covering(5, 10)}
        assert ids == {0, 1}

    def test_tracks_covering_uses_exclusive_end_frames(self):
        scene = self.make_scene()  # tracks span [0, 10), [5, 15), [8, 12)
        assert {t.agent_id for t in scene.tracks_covering(8, 10)} == {0, 1, 2}
        assert {t.agent_id for t in scene.tracks_covering(8, 11)} == {1, 2}
        assert {t.agent_id for t in scene.tracks_covering(12, 13)} == {1}

    def test_agents_at(self):
        scene = self.make_scene()
        assert {t.agent_id for t in scene.agents_at(9)} == {0, 1, 2}
        assert {t.agent_id for t in scene.agents_at(0)} == {0}

    def test_positions_at(self):
        scene = self.make_scene()
        positions = scene.positions_at(6)
        assert positions.shape == (2, 2)

    def test_positions_at_empty_frame(self):
        scene = Scene(0, "x", 0.4, [straight_track(start=5, length=3)])
        assert scene.positions_at(0).shape == (0, 2)
