"""Tests for the LSTM cell and the sequence encoder."""

from __future__ import annotations

import numpy as np

from repro.nn import LSTM, LSTMCell, Tensor, no_grad

from tests.nn.gradcheck import assert_gradients_close


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(3, 8, rng=rng)
        h, c = cell(Tensor(rng.normal(size=(4, 3))))
        assert h.shape == (4, 8)
        assert c.shape == (4, 8)

    def test_state_threading(self, rng):
        cell = LSTMCell(3, 8, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)))
        h1, c1 = cell(x)
        h2, c2 = cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        np.testing.assert_allclose(cell.bias.data[4:8], 1.0)

    def test_hidden_bounded_by_tanh(self, rng):
        cell = LSTMCell(3, 8, rng=rng)
        h, _ = cell(Tensor(rng.normal(size=(4, 3)) * 100))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradcheck_inputs(self, rng):
        cell = LSTMCell(2, 3, rng=rng)

        def fn(x):
            h, c = cell(x)
            return (h * h).sum() + c.sum()

        assert_gradients_close(fn, [rng.normal(size=(2, 2))], atol=1e-5)

    def test_gradcheck_state(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 2)))

        def fn(h, c):
            h_next, c_next = cell(x, (h, c))
            return (h_next * h_next).sum() + c_next.sum()

        state = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        assert_gradients_close(fn, state, atol=1e-5)


class TestLSTMEncoder:
    def test_output_shapes(self, rng):
        lstm = LSTM(3, 8, rng=rng)
        outputs, (h, c) = lstm(Tensor(rng.normal(size=(4, 6, 3))))
        assert outputs.shape == (4, 6, 8)
        assert h.shape == (4, 8)
        assert c.shape == (4, 8)

    def test_final_hidden_equals_last_output(self, rng):
        lstm = LSTM(3, 8, rng=rng)
        outputs, (h, _) = lstm(Tensor(rng.normal(size=(2, 5, 3))))
        np.testing.assert_allclose(outputs.data[:, -1, :], h.data)

    def test_single_step_window_is_one_cell_step(self, rng):
        lstm = LSTM(3, 5, rng=rng)
        x = rng.normal(size=(4, 1, 3))
        outputs, (h, c) = lstm(Tensor(x))
        h_cell, c_cell = lstm.cell(Tensor(x[:, 0, :]))
        np.testing.assert_allclose(outputs.data[:, 0, :], h_cell.data, atol=1e-12, rtol=0)
        np.testing.assert_allclose(h.data, h_cell.data, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c.data, c_cell.data, atol=1e-12, rtol=0)

    def test_no_grad_forward_matches_recording_forward(self, rng):
        """Without recording, the recurrence stashes no activations for BPTT;
        the values must not change."""
        lstm = LSTM(2, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 2)))
        out, (h, c) = lstm(x)
        with no_grad():
            out_ng, (h_ng, c_ng) = lstm(x)
        assert not (out_ng.requires_grad or h_ng.requires_grad or c_ng.requires_grad)
        np.testing.assert_array_equal(out_ng.data, out.data)
        np.testing.assert_array_equal(h_ng.data, h.data)
        np.testing.assert_array_equal(c_ng.data, c.data)

    def test_deterministic_given_seed(self):
        a = LSTM(3, 4, rng=7).state_dict()
        b = LSTM(3, 4, rng=7).state_dict()
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_rejects_2d_input(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        try:
            lstm(Tensor(np.ones((4, 3))))
        except ValueError as err:
            assert "batch, time, features" in str(err)
        else:
            raise AssertionError("expected ValueError")

    def test_gradients_flow_to_early_steps(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
        _, (h, _) = lstm(x)
        h.sum().backward()
        assert x.grad is not None
        # The first timestep must receive nonzero gradient through the chain.
        assert np.abs(x.grad[:, 0, :]).max() > 0

    def test_sequence_gradcheck(self, rng):
        lstm = LSTM(2, 3, rng=rng)

        def fn(x):
            _, (h, _) = lstm(x)
            return (h * h).sum()

        assert_gradients_close(fn, [rng.normal(size=(1, 3, 2))], atol=1e-5)
