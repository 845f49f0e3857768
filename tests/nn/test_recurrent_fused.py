"""Fused-vs-reference equivalence for the vectorized LSTM.

The fused LSTM path (window-level input projection + single BPTT graph node)
must match the per-timestep oracle in ``tests/nn/oracles.py`` to float64
round-off, in both values and gradients.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn import LSTM, Tensor, default_dtype

from tests.nn.gradcheck import assert_gradients_close
from tests.nn.oracles import lstm_forward_reference

ATOL = 1e-10


def _grads(module):
    return {name: None if p.grad is None else p.grad.copy()
            for name, p in module.named_parameters()}


class TestLSTMFusedEquivalence:
    def test_forward_matches_reference(self, rng):
        lstm = LSTM(3, 8, rng=rng)
        x = Tensor(rng.normal(size=(5, 7, 3)))
        out_fused, (h_fused, c_fused) = lstm(x)
        out_ref, (h_ref, c_ref) = lstm_forward_reference(lstm, x)
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=ATOL, rtol=0)
        np.testing.assert_allclose(h_fused.data, h_ref.data, atol=ATOL, rtol=0)
        np.testing.assert_allclose(c_fused.data, c_ref.data, atol=ATOL, rtol=0)

    def test_forward_matches_reference_with_initial_state(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 2)))
        state = (Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4))))
        out_fused, _ = lstm(x, state)
        out_ref, _ = lstm_forward_reference(lstm, x, state)
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=ATOL, rtol=0)

    def test_benchmark_shape_equivalence(self, rng):
        """The acceptance-criteria configuration: [batch=64, time=20, hidden=64]."""
        lstm = LSTM(16, 64, rng=rng)
        x = Tensor(rng.normal(size=(64, 20, 16)))
        out_fused, (h_fused, _) = lstm(x)
        out_ref, (h_ref, _) = lstm_forward_reference(lstm, x)
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=ATOL, rtol=0)
        np.testing.assert_allclose(h_fused.data, h_ref.data, atol=ATOL, rtol=0)

    def test_parameter_gradients_match_reference(self, rng):
        lstm = LSTM(3, 6, rng=rng)
        data = rng.normal(size=(4, 9, 3))
        weights = rng.normal(size=(4, 9, 6))

        def loss_with(forward):
            lstm.zero_grad()
            out, (h, c) = forward(Tensor(data))
            ((out * Tensor(weights)).sum() + (h * h).sum() + c.sum()).backward()
            return _grads(lstm)

        fused = loss_with(lstm.forward)
        ref = loss_with(partial(lstm_forward_reference, lstm))
        assert fused.keys() == ref.keys()
        for name in fused:
            np.testing.assert_allclose(
                fused[name], ref[name], atol=ATOL, rtol=0,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_input_gradients_match_reference(self, rng):
        lstm = LSTM(2, 5, rng=rng)
        data = rng.normal(size=(3, 6, 2))

        def input_grad(forward):
            x = Tensor(data, requires_grad=True)
            out, (h, _) = forward(x)
            (out.sum() + (h * h).sum()).backward()
            return x.grad.copy()

        np.testing.assert_allclose(
            input_grad(lstm.forward),
            input_grad(partial(lstm_forward_reference, lstm)),
            atol=ATOL, rtol=0,
        )

    def test_initial_state_gradients_match_reference(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        data = rng.normal(size=(3, 5, 2))
        h0_data = rng.normal(size=(3, 4))
        c0_data = rng.normal(size=(3, 4))

        def state_grads(forward):
            h0 = Tensor(h0_data, requires_grad=True)
            c0 = Tensor(c0_data, requires_grad=True)
            out, _ = forward(Tensor(data), (h0, c0))
            (out * out).sum().backward()
            return h0.grad.copy(), c0.grad.copy()

        reference = partial(lstm_forward_reference, lstm)
        for fused, ref in zip(state_grads(lstm.forward), state_grads(reference)):
            np.testing.assert_allclose(fused, ref, atol=ATOL, rtol=0)

    def test_final_cell_state_gradients_match_reference(self, rng):
        """A loss on ``c`` alone reaches the fused node only through the
        cell-state half of its output."""
        lstm = LSTM(3, 4, rng=rng)
        data = rng.normal(size=(2, 6, 3))
        weights = rng.normal(size=(2, 4))

        def grads(forward):
            lstm.zero_grad()
            x = Tensor(data, requires_grad=True)
            _, (_, c) = forward(x)
            (c * Tensor(weights)).sum().backward()
            return {**_grads(lstm), "input": x.grad.copy()}

        fused = grads(lstm.forward)
        ref = grads(partial(lstm_forward_reference, lstm))
        assert fused.keys() == ref.keys()
        for name in fused:
            np.testing.assert_allclose(
                fused[name], ref[name], atol=ATOL, rtol=0,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_float32_forward_matches_reference(self, rng):
        with default_dtype(np.float32):
            lstm = LSTM(3, 6, rng=rng)
            x = Tensor(rng.normal(size=(4, 7, 3)))
            out_fused, (h_fused, c_fused) = lstm(x)
            out_ref, (h_ref, c_ref) = lstm_forward_reference(lstm, x)
        for fused, ref in ((out_fused, out_ref), (h_fused, h_ref), (c_fused, c_ref)):
            assert fused.data.dtype == np.float32
            np.testing.assert_allclose(fused.data, ref.data, atol=1e-6, rtol=0)

    def test_fused_sequence_gradcheck(self, rng):
        lstm = LSTM(2, 3, rng=rng)

        def fn(x):
            out, (h, c) = lstm(x)
            return (out * out).sum() + (h * h).sum() + c.sum()

        assert_gradients_close(fn, [rng.normal(size=(2, 4, 2))], atol=1e-5)
