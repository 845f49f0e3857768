"""Tests for the chronological train/val/test splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import TrajectoryDataset, TrajectorySample
from repro.data.splits import chronological_split


def sample_at(frame, scene_id=0, domain="a"):
    return TrajectorySample(
        obs=np.zeros((8, 2)),
        future=np.zeros((12, 2)),
        neighbours=np.zeros((0, 8, 2)),
        domain=domain,
        scene_id=scene_id,
        frame=frame,
    )


class TestChronologicalSplit:
    def test_ratio_sizes(self):
        ds = TrajectoryDataset([sample_at(i) for i in range(10)])
        splits = chronological_split(ds)
        assert splits.sizes() == (6, 2, 2)

    def test_chronology_strict(self):
        ds = TrajectoryDataset([sample_at(i) for i in np.random.permutation(20)])
        splits = chronological_split(ds)
        max_train = max(s.frame for s in splits.train.samples)
        min_val = min(s.frame for s in splits.val.samples)
        min_test = min(s.frame for s in splits.test.samples)
        assert max_train < min_val
        assert max(s.frame for s in splits.val.samples) < min_test

    def test_per_domain_split(self):
        samples = [sample_at(i, domain="a") for i in range(10)] + [
            sample_at(i, domain="b") for i in range(5)
        ]
        splits = chronological_split(TrajectoryDataset(samples))
        assert splits.train.domain_counts() == {"a": 6, "b": 3}
        assert splits.test.domain_counts()["b"] >= 1

    def test_scene_id_orders_before_frame(self):
        samples = [sample_at(5, scene_id=1), sample_at(0, scene_id=2)]
        ds = TrajectoryDataset(samples)
        splits = chronological_split(ds, ratios=(0.5, 0.0, 0.5))
        assert splits.train.samples[0].scene_id == 1

    def test_invalid_ratios(self):
        ds = TrajectoryDataset([sample_at(0)])
        with pytest.raises(ValueError):
            chronological_split(ds, ratios=(0.5, 0.5))
        with pytest.raises(ValueError):
            chronological_split(ds, ratios=(0.9, 0.2, -0.1))
