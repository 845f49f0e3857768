"""Tests for the weight initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter, init


class TestBasicInitializers:
    def test_uniform_bounds(self, rng):
        p = Parameter(np.empty((50, 50)))
        init.uniform_(p, rng, -0.2, 0.3)
        assert p.data.min() >= -0.2
        assert p.data.max() <= 0.3

    def test_uniform_deterministic_given_generator_state(self):
        a = init.uniform_(Parameter(np.empty((4, 5))), np.random.default_rng(3))
        b = init.uniform_(Parameter(np.empty((4, 5))), np.random.default_rng(3))
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize(
        "initializer", [init.uniform_, init.xavier_uniform_, init.orthogonal_],
        ids=["uniform", "xavier_uniform", "orthogonal"],
    )
    def test_writes_in_place(self, rng, initializer):
        """Initializers fill the existing buffer and return the same tensor,
        so a parameter that views a larger buffer stays a view."""
        buffer = np.zeros(2 * 6 * 6)
        p = Parameter(buffer[36:].reshape(6, 6))
        assert initializer(p, rng) is p
        assert np.shares_memory(p.data, buffer)
        np.testing.assert_array_equal(buffer[36:], p.data.reshape(-1))
        np.testing.assert_array_equal(buffer[:36], 0.0)


class TestXavier:
    @pytest.mark.parametrize(
        "shape, fan_in_plus_out",
        [((64, 64), 128), ((16, 48), 64), ((200,), 400)],
        ids=["square", "rectangular", "vector"],
    )
    def test_xavier_uniform_bound(self, rng, shape, fan_in_plus_out):
        p = Parameter(np.empty(shape))
        init.xavier_uniform_(p, rng)
        bound = np.sqrt(6.0 / fan_in_plus_out)
        # Hundreds of uniform draws or more: the bound holds and is nearly
        # reached.  A vector uses its length as both fans.
        assert 0.95 * bound < np.abs(p.data).max() <= bound + 1e-12

    def test_gain_scales_the_draw(self):
        unit = init.xavier_uniform_(Parameter(np.empty((8, 8))), np.random.default_rng(5))
        doubled = init.xavier_uniform_(
            Parameter(np.empty((8, 8))), np.random.default_rng(5), gain=2.0
        )
        np.testing.assert_allclose(doubled.data, 2.0 * unit.data, rtol=1e-12)


class TestOrthogonal:
    def test_square_is_orthogonal(self, rng):
        p = Parameter(np.empty((16, 16)))
        init.orthogonal_(p, rng)
        np.testing.assert_allclose(p.data @ p.data.T, np.eye(16), atol=1e-10)

    def test_tall_matrix_columns_orthonormal(self, rng):
        p = Parameter(np.empty((20, 8)))
        init.orthogonal_(p, rng)
        np.testing.assert_allclose(p.data.T @ p.data, np.eye(8), atol=1e-10)

    def test_wide_matrix_rows_orthonormal(self, rng):
        p = Parameter(np.empty((8, 20)))
        init.orthogonal_(p, rng)
        np.testing.assert_allclose(p.data @ p.data.T, np.eye(8), atol=1e-10)

    def test_gain_applied(self, rng):
        p = Parameter(np.empty((8, 8)))
        init.orthogonal_(p, rng, gain=2.0)
        np.testing.assert_allclose(p.data @ p.data.T, 4.0 * np.eye(8), atol=1e-10)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            init.orthogonal_(Parameter(np.empty(5)), rng)

    def test_deterministic_given_generator_state(self):
        a = init.orthogonal_(Parameter(np.empty((6, 6))), np.random.default_rng(1))
        b = init.orthogonal_(Parameter(np.empty((6, 6))), np.random.default_rng(1))
        np.testing.assert_allclose(a.data, b.data)
