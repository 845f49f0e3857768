"""Tests for the shared utilities (seeding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import new_rng, seed_everything, spawn_rng


class TestSeeding:
    def test_new_rng_from_int(self):
        a = new_rng(5)
        b = new_rng(5)
        assert a.random() == b.random()

    def test_new_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert new_rng(rng) is rng

    def test_new_rng_default(self):
        assert new_rng().random() == new_rng(None).random()

    def test_spawn_independent_streams(self):
        children = spawn_rng(new_rng(3), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = spawn_rng(new_rng(3), 2)
        b = spawn_rng(new_rng(3), 2)
        assert a[0].random() == b[0].random()
        assert a[1].random() == b[1].random()

    def test_spawn_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_rng(new_rng(3), 0)

    def test_seed_everything_returns_generator(self):
        rng = seed_everything(42)
        assert isinstance(rng, np.random.Generator)
