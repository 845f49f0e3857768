"""Tests for repro.nn.functional: masked ops, losses, sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from tests.nn.gradcheck import assert_gradients_close


class TestMaskedSoftmax:
    def test_masked_entries_get_zero_probability(self, rng):
        logits = Tensor(rng.normal(size=(2, 4)))
        mask = np.array([[True, True, False, True], [True, False, False, False]])
        probs = F.masked_softmax(logits, mask)
        assert np.all(probs.data[~mask] == 0.0)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0)

    def test_all_masked_row_is_zero_not_nan(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        mask = np.array([[False, False, False], [True, True, True]])
        probs = F.masked_softmax(logits, mask)
        assert not np.any(np.isnan(probs.data))
        np.testing.assert_allclose(probs.data[0], 0.0)
        np.testing.assert_allclose(probs.data[1].sum(), 1.0)

    def test_gradcheck_through_mask(self, rng):
        logits = rng.normal(size=(2, 3))
        mask = np.array([[True, False, True], [True, True, True]])
        assert_gradients_close(
            lambda x: (F.masked_softmax(x, mask) ** 2).sum(), [logits]
        )


class TestSoftmax:
    def test_rows_sum_to_one_and_ignore_a_shift(self, rng):
        logits = rng.normal(size=(3, 5))
        shifted = logits + np.array([[0.0], [1000.0], [-1000.0]])
        probs = F.softmax(Tensor(logits)).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(F.softmax(Tensor(shifted)).data, probs, atol=1e-12)


class TestMaskedMean:
    def test_counts_only_valid(self):
        values = Tensor(np.array([[[1.0], [3.0], [100.0]]]))
        mask = np.array([[True, True, False]])
        out = F.masked_mean(values, mask, axis=1)
        np.testing.assert_allclose(out.data, [[2.0]])

    def test_empty_mask_returns_zero(self):
        values = Tensor(np.ones((1, 3, 2)))
        mask = np.zeros((1, 3), dtype=bool)
        out = F.masked_mean(values, mask, axis=1)
        np.testing.assert_allclose(out.data, 0.0)


    def test_gradient_skips_masked_entries(self):
        values = Tensor(np.ones((2, 3, 1)), requires_grad=True)
        mask = np.array([[True, True, False], [True, False, False]])
        F.masked_mean(values, mask, axis=1).sum().backward()
        np.testing.assert_allclose(
            values.grad[..., 0], [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]
        )


class TestLosses:
    def test_mse_known_value(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = np.array([0.0, 0.0])
        loss = F.mse_loss(pred, target)
        np.testing.assert_allclose(loss.item(), 2.5)

    def test_mse_gradcheck(self, rng):
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        assert_gradients_close(lambda x: F.mse_loss(x, Tensor(target)), [pred])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 3)), requires_grad=True)
        loss = F.cross_entropy_with_logits(logits, np.array([0, 1, 2, 0]))
        np.testing.assert_allclose(loss.item(), np.log(3.0))

    def test_cross_entropy_gradcheck(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        assert_gradients_close(
            lambda x: F.cross_entropy_with_logits(x, labels), [logits]
        )

    def test_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy_with_logits(Tensor(np.zeros((2, 3))), np.array([0]))
        with pytest.raises(ValueError):
            F.cross_entropy_with_logits(Tensor(np.zeros(3)), np.array([0]))

    def test_mse_target_receives_no_gradient(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        F.mse_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, [1.0, 1.0])
        assert target.grad is None

    def test_gaussian_kl_known_values(self):
        zero = Tensor(np.zeros((2, 3)))
        np.testing.assert_allclose(F.gaussian_kl(zero, zero).item(), 0.0)
        # mu = 1, sigma = 1: 0.5 nats per dimension, summed over 3 dims.
        one = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(F.gaussian_kl(one, zero).item(), 1.5)

    def test_gaussian_kl_gradcheck(self, rng):
        mu = rng.normal(size=(2, 3))
        logvar = rng.normal(size=(2, 3)) * 0.3
        assert_gradients_close(lambda m, lv: F.gaussian_kl(m, lv), [mu, logvar])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data,
            np.log(F.softmax(logits).data),
            atol=1e-12,
        )


class TestDropoutAndSampling:
    def test_dropout_identity_when_eval(self, rng):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_p_zero_draws_nothing(self, rng):
        x = Tensor(np.ones(4))
        state = rng.bit_generator.state
        assert F.dropout(x, 0.0, rng, training=True) is x
        assert rng.bit_generator.state == state

    def test_dropout_rejects_p_one(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_sample_gaussian_statistics(self, rng):
        mu = Tensor(np.full((20000,), 2.0))
        logvar = Tensor(np.full((20000,), np.log(0.25)))
        z = F.sample_gaussian(mu, logvar, rng)
        assert abs(z.data.mean() - 2.0) < 0.02
        assert abs(z.data.std() - 0.5) < 0.02

    def test_sample_gaussian_reparameterization_gradient(self, rng):
        mu = Tensor(np.zeros(5), requires_grad=True)
        logvar = Tensor(np.zeros(5), requires_grad=True)
        z = F.sample_gaussian(mu, logvar, rng)
        z.sum().backward()
        np.testing.assert_allclose(mu.grad, np.ones(5))
        assert logvar.grad is not None
