"""Tests for optimizers, parameter groups, and gradient clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SGD, Tensor, clip_grad_norm, default_dtype
from repro.nn import functional as F
from repro.nn.layers import MLP


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


class TestSGD:
    def test_single_step_math(self):
        p = quadratic_param(2.0)
        opt = SGD([p], lr=0.1)
        p.grad = np.array([4.0])
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 - 0.4])

    def test_momentum_accumulates(self):
        p = quadratic_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.5)

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = (Tensor(np.array([1.0])) * p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-4


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step is ~lr in magnitude."""
        p = quadratic_param(0.0)
        opt = Adam([p], lr=0.5)
        p.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(abs(p.data[0]), 0.5, rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_weight_decay_shrinks_weights(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert abs(p.data[0]) < 1.0

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


def reference_adam(arrays, grads, state, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """The per-parameter Adam update, kept as the flat update's reference.

    ``state`` maps a parameter index to its ``(m, v, t)``; a parameter whose
    gradient is ``None`` is left untouched.
    """
    beta1, beta2 = betas
    for index, (data, grad) in enumerate(zip(arrays, grads)):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * data
        m, v, t = state.get(index, (np.zeros_like(data), np.zeros_like(data), 0))
        t += 1
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        state[index] = (m, v, t)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        data -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatAdam:
    SHAPES = {"a": [(3, 4), (4,), (2, 3, 2)], "b": [(5,), (2, 2)], "c": [(3,)]}

    def run_both(self, dtype, steps=25, weight_decay=0.0):
        rng = np.random.default_rng(11)
        with default_dtype(dtype):
            params = {
                name: [Parameter(rng.standard_normal(shape)) for shape in shapes]
                for name, shapes in self.SHAPES.items()
            }
        ref_arrays = {name: [p.data.copy() for p in group] for name, group in params.items()}
        ref_state = {name: {} for name in params}
        opt = Adam(params, lr=0.05, weight_decay=weight_decay)
        opt.set_lr_scale("b", 0.3)
        opt.set_frozen("c", True)
        for step in range(steps):
            # Group "b" is skipped by lr_scale 0 on some steps, and one
            # parameter of "a" gets no gradient on every third step.
            opt.set_lr_scale("b", 0.0 if step % 4 == 1 else 0.3)
            for name, group in params.items():
                for i, p in enumerate(group):
                    missing = name == "a" and i == 1 and step % 3 == 0
                    p.grad = None if missing else rng.standard_normal(p.shape).astype(dtype)
            for group in opt.groups:
                if group.frozen or group.lr_scale == 0.0:
                    continue
                grads = [p.grad for p in group.params]
                reference_adam(
                    ref_arrays[group.name], grads, ref_state[group.name],
                    opt.lr * group.lr_scale, weight_decay,
                )
            opt.step()
        return params, ref_arrays

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_per_parameter_formula(self, dtype, weight_decay):
        params, ref_arrays = self.run_both(dtype, weight_decay=weight_decay)
        for name, group in params.items():
            for p, ref in zip(group, ref_arrays[name]):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, ref), name

    def test_frozen_group_and_gradless_parameter_keep_their_data(self):
        params, _ = self.run_both(np.float64, steps=1)
        rng = np.random.default_rng(11)
        initial = {
            name: [rng.standard_normal(shape) for shape in shapes]
            for name, shapes in self.SHAPES.items()
        }
        # Step 0 is one of the steps where a[1] has no gradient.
        assert np.array_equal(params["a"][1].data, initial["a"][1])
        assert np.array_equal(params["c"][0].data, initial["c"][0])
        assert not np.array_equal(params["a"][0].data, initial["a"][0])

    def test_parameters_are_views_of_one_buffer(self):
        a, b = Parameter(np.ones((2, 3))), Parameter(np.zeros(4))
        Adam([a, b], lr=0.1)
        assert a.data.base is not None and a.data.base is b.data.base
        assert a.data.base.shape == (10,)
        np.testing.assert_array_equal(a.data, np.ones((2, 3)))

    def test_mixed_dtype_group_is_rejected(self):
        with default_dtype(np.float32):
            narrow = Parameter(np.ones(2))
        with pytest.raises(TypeError, match="mixes dtypes"):
            Adam([Parameter(np.ones(2)), narrow], lr=0.1)

    def test_astype_rebinding_keeps_parameters_training(self, rng):
        mlp = MLP([3, 8, 1], rng=rng)
        opt = Adam(mlp.parameters(), lr=1e-2)
        x = rng.normal(size=(16, 3))
        y = np.sin(x.sum(axis=1, keepdims=True))

        def train_step():
            opt.zero_grad()
            F.mse_loss(mlp(Tensor(x)), Tensor(y)).backward()
            opt.step()

        train_step()
        mlp.astype(np.float32)
        before = [p.data.copy() for p in mlp.parameters()]
        with default_dtype(np.float32):
            train_step()
        for p, old in zip(mlp.parameters(), before):
            assert p.data.dtype == np.float32
            assert not np.array_equal(p.data, old)

    def test_directly_assigned_data_is_trained(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.5)
        p.grad = np.array([1.0])
        opt.step()
        p.data = np.array([10.0])
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] < 10.0


class TestParameterGroups:
    def make_groups(self):
        a = quadratic_param(1.0)
        b = quadratic_param(1.0)
        opt = SGD({"fast": [a], "slow": [b]}, lr=1.0)
        return a, b, opt

    def test_lr_scale_per_group(self):
        a, b, opt = self.make_groups()
        opt.set_lr_scale("fast", 1.0)
        opt.set_lr_scale("slow", 0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(a.data, [0.0])
        np.testing.assert_allclose(b.data, [0.9])

    def test_frozen_group_not_updated(self):
        a, b, opt = self.make_groups()
        opt.set_frozen("slow", True)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(a.data, [0.0])
        np.testing.assert_allclose(b.data, [1.0])

    def test_zero_lr_scale_leaves_adam_state_untouched(self):
        """A group scaled to zero is skipped outright: its moments and step
        count do not advance, so its first real step is still size lr."""
        a, b = quadratic_param(0.0), quadratic_param(0.0)
        opt = Adam({"fast": [a], "slow": [b]}, lr=0.5)
        opt.set_lr_scale("slow", 0.0)
        for _ in range(3):
            a.grad, b.grad = np.array([3.0]), np.array([3.0])
            opt.step()
        np.testing.assert_allclose(b.data, [0.0])
        opt.set_lr_scale("slow", 1.0)
        b.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(b.data, [-0.5], rtol=1e-6)

    def test_unfrozen_group_resumes(self):
        a, b, opt = self.make_groups()
        opt.set_frozen("slow", True)
        b.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(b.data, [1.0])
        opt.set_frozen("slow", False)
        opt.step()
        np.testing.assert_allclose(b.data, [0.0])

    def test_unknown_group_raises(self):
        _, _, opt = self.make_groups()
        with pytest.raises(KeyError, match="nope"):
            opt.group("nope")

    def test_duplicate_params_rejected(self):
        p = quadratic_param()
        with pytest.raises(ValueError, match="multiple"):
            SGD({"a": [p], "b": [p]}, lr=0.1)


class TestClipGradNorm:
    def test_clips_large_gradient(self):
        p = quadratic_param()
        p.grad = np.array([30.0])
        norm = clip_grad_norm([p], max_norm=3.0)
        assert norm == pytest.approx(30.0)
        np.testing.assert_allclose(p.grad, [3.0], rtol=1e-6)

    def test_leaves_small_gradient(self):
        p = quadratic_param()
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=3.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_global_norm_across_params(self):
        a, b = quadratic_param(), quadratic_param()
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_ignores_none_grads(self):
        p = quadratic_param()
        assert clip_grad_norm([p], max_norm=1.0) == 0.0


class TestEndToEndTraining:
    def test_adam_beats_initialization_on_regression(self, rng):
        mlp = MLP([3, 24, 24, 1], rng=rng)
        x = rng.normal(size=(64, 3))
        y = np.sin(x.sum(axis=1, keepdims=True))
        opt = Adam(mlp.parameters(), lr=5e-3)
        first = None
        for step in range(80):
            opt.zero_grad()
            loss = F.mse_loss(mlp(Tensor(x)), Tensor(y))
            loss.backward()
            clip_grad_norm(mlp.parameters(), 5.0)
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < 0.25 * first
