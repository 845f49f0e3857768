"""Tests for feed-forward layers: Linear, MLP, Dropout, Sequential."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MLP, Activation, Dropout, Linear, Sequential, Tensor

from tests.nn.gradcheck import assert_gradients_close


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_1d_input_promoted(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(np.ones(3)))
        assert out.shape == (2,)

    def test_3d_input(self, rng):
        layer = Linear(4, 6, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_rejects_wrong_width(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(ValueError, match="expected last dim 3"):
            layer(Tensor(np.ones((2, 4))))

    def test_weight_gradcheck(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))
        assert_gradients_close(lambda xx, ww, bb: ((xx @ ww + bb) ** 2).sum(), [x, w, b])

    def test_deterministic_given_seed(self):
        a = Linear(5, 5, rng=7)
        b = Linear(5, 5, rng=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestMLP:
    def test_shapes_and_param_count(self, rng):
        mlp = MLP([4, 8, 3], rng=rng)
        out = mlp(Tensor(rng.normal(size=(6, 4))))
        assert out.shape == (6, 3)
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3
        assert mlp.in_features == 4
        assert mlp.out_features == 3

    def test_rejects_short_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_out_activation_applied(self, rng):
        mlp = MLP([3, 5, 2], out_activation="sigmoid", rng=rng)
        out = mlp(Tensor(rng.normal(size=(4, 3)) * 10))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_dropout_only_after_hidden_layers(self, rng):
        mlp = MLP([4, 8, 8, 2], dropout_p=0.5, rng=rng)
        assert [type(block) for block in mlp.net] == [
            Linear, Activation, Dropout,
            Linear, Activation, Dropout,
            Linear, Activation,
        ]
        single = MLP([4, 2], dropout_p=0.5, rng=rng)
        assert [type(block) for block in single.net] == [Linear, Activation]

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            MLP([2, 2], activation="swishh")

    def test_training_reduces_loss(self, rng):
        """One gradient step on a regression task must reduce the loss."""
        from repro.nn import Adam
        from repro.nn import functional as F

        mlp = MLP([2, 16, 1], rng=rng)
        x = rng.normal(size=(32, 2))
        y = (x[:, :1] * 2 - x[:, 1:]) * 0.5
        opt = Adam(mlp.parameters(), lr=1e-2)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            loss = F.mse_loss(mlp(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.3 * losses[0]


class TestActivation:
    @pytest.mark.parametrize(
        "name, reference",
        [
            ("relu", lambda x: np.maximum(x, 0.0)),
            ("tanh", np.tanh),
            ("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x))),
            ("leaky_relu", lambda x: np.where(x > 0, x, 0.2 * x)),
            ("identity", lambda x: x),
        ],
        ids=["relu", "tanh", "sigmoid", "leaky_relu", "identity"],
    )
    def test_matches_numpy(self, rng, name, reference):
        x = rng.normal(size=(4, 5)) * 3
        out = Activation(name)(Tensor(x))
        np.testing.assert_allclose(out.data, reference(x), atol=1e-12, rtol=0)


class TestDropoutLayer:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(4, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_train_mode_zeroes_elements(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((50, 50)))
        out = layer(x)
        zero_fraction = float((out.data == 0).mean())
        assert 0.4 < zero_fraction < 0.6

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequential:
    def test_applies_in_order(self, rng):
        seq = Sequential(Linear(3, 4, rng=rng), Linear(4, 2, rng=rng))
        out = seq(Tensor(rng.normal(size=(5, 3))))
        assert out.shape == (5, 2)
        assert len(seq) == 2
        assert isinstance(seq[0], Linear)

    def test_parameters_collected(self, rng):
        seq = Sequential(Linear(3, 4, rng=rng), Linear(4, 2, rng=rng))
        assert len(seq.parameters()) == 4
