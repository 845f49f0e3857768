"""Tests for the shared utilities (seeding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import new_rng, spawn_rng
from repro.utils.seeding import DEFAULT_SEED


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

    def test_new_rng_default_is_the_default_seed(self):
        expected = np.random.default_rng(DEFAULT_SEED).random(4)
        np.testing.assert_array_equal(new_rng().random(4), expected)

    def test_spawn_independent_streams(self):
        children = spawn_rng(new_rng(3), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = spawn_rng(new_rng(3), 2)
        b = spawn_rng(new_rng(3), 2)
        assert a[0].random() == b[0].random()
        assert a[1].random() == b[1].random()

    def test_repeated_spawns_give_fresh_children(self):
        """Each call continues the parent's spawn sequence instead of handing
        out the same streams again."""
        rng = new_rng(3)
        first = [c.random() for c in spawn_rng(rng, 2)]
        second = [c.random() for c in spawn_rng(rng, 2)]
        assert len(set(first + second)) == 4

    def test_spawn_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_rng(new_rng(3), 0)
