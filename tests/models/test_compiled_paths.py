"""Fused model paths vs their eager/autograd golden oracles.

* ``LBEBM.langevin_sample`` (buffer-reusing closed-form loop) against
  ``langevin_sample_reference`` (the original per-iteration autograd loop,
  kept in ``tests/models/oracles.py``) at 1e-10.
* ``RecurrentTrajectoryDecoder``'s rollout — one numpy loop for eager
  inference and capture, one autograd node while training — against the
  per-frame Tensor loop in ``tests/models/oracles.py``: outputs
  bit-exactly, gradients at 1e-10 (float64) or a dtype-derived tolerance
  (float32).
* End-to-end: captured ``method.predict`` replays bit-identically to eager
  for both backbones on fresh batches and seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_method
from repro.data.dataset import Batch
from repro.models.decoder import RecurrentTrajectoryDecoder
from repro.models.lbebm import LBEBM
from repro.nn import Tensor, capture, default_dtype, inference_mode
from tests.models.oracles import langevin_sample_reference, rollout_reference


def make_batch(batch_size=6, neighbours=3, seed=0, obs_len=8, pred_len=12):
    rng = np.random.default_rng(seed)
    return Batch(
        obs=rng.standard_normal((batch_size, obs_len, 2)) * 0.1,
        future=np.zeros((batch_size, pred_len, 2)),
        neighbours=rng.standard_normal((batch_size, neighbours, obs_len, 2)) * 0.1,
        neighbour_mask=rng.random((batch_size, neighbours)) < 0.7,
        domain_ids=np.zeros(batch_size, dtype=np.int64),
        origins=rng.standard_normal((batch_size, 2)),
    )


def batch_inputs(batch):
    return {
        "obs": batch.obs,
        "future": batch.future,
        "neighbours": batch.neighbours,
        "neighbour_mask": batch.neighbour_mask,
        "domain_ids": batch.domain_ids,
        "origins": batch.origins,
    }


class TestFusedLangevin:
    def test_matches_reference_loop_at_1e_10(self):
        model = LBEBM(rng=0)
        h = Tensor(np.random.default_rng(1).standard_normal((7, model.hidden_size)))
        fused = model.langevin_sample(h, np.random.default_rng(42))
        reference = langevin_sample_reference(model, h, np.random.default_rng(42))
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-10, rtol=0.0)

    def test_matches_reference_under_inference_mode(self):
        model = LBEBM(rng=0)
        h = Tensor(np.random.default_rng(2).standard_normal((4, model.hidden_size)))
        with inference_mode(model):
            fused = model.langevin_sample(h, np.random.default_rng(7))
            reference = langevin_sample_reference(model, h, np.random.default_rng(7))
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-10, rtol=0.0)

    def test_consumes_identical_rng_stream(self):
        """Block noise draw == the reference's interleaved per-step draws, so
        downstream consumers of the same generator see the same stream."""
        model = LBEBM(rng=0)
        h = Tensor(np.random.default_rng(3).standard_normal((3, model.hidden_size)))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        model.langevin_sample(h, rng_a)
        langevin_sample_reference(model, h, rng_b)
        assert np.array_equal(rng_a.standard_normal(16), rng_b.standard_normal(16))

    def test_training_contrastive_loss_unchanged(self):
        """`compute_loss` (which samples negatives via Langevin) still runs
        and differentiates with the fused sampler in place."""
        model = LBEBM(rng=0)
        batch = make_batch(batch_size=4, seed=5)
        encoding = model.encode(batch)
        out = model.compute_loss(encoding, batch, None, np.random.default_rng(0))
        out.loss.backward()
        assert np.isfinite(out.loss.item())


def _rollout_grads(forward, decoder, cond, upstream):
    """Output, conditioning gradient and parameter gradients of one
    forward/backward with a fixed upstream gradient."""
    decoder.zero_grad()
    x = Tensor(cond, requires_grad=True)
    out = forward(x)
    (out * Tensor(upstream)).sum().backward()
    grads = {name: p.grad for name, p in decoder.named_parameters()}
    return out.data, x.grad, grads


class TestFusedRollout:
    def test_fused_equals_eager_loop(self):
        decoder = RecurrentTrajectoryDecoder(10, pred_len=12, rng=0)
        cond = np.random.default_rng(4).standard_normal((5, 10))

        eager = rollout_reference(decoder, Tensor(cond)).data
        plan = capture(
            lambda rng: decoder(Tensor(cond)).data,
            inputs={"cond": cond},
            rng=np.random.default_rng(0),
        )
        cond2 = np.random.default_rng(14).standard_normal((5, 10))
        assert np.array_equal(
            rollout_reference(decoder, Tensor(cond2)).data,
            plan.run({"cond": cond2}, np.random.default_rng(0)),
        )
        assert np.array_equal(eager, plan.run({"cond": cond}, np.random.default_rng(0)))
        assert np.array_equal(eager, decoder(Tensor(cond)).data)

    @pytest.mark.parametrize("pred_len", [12, 1])
    def test_node_matches_oracle_float64(self, pred_len):
        decoder = RecurrentTrajectoryDecoder(104, pred_len=pred_len, rng=0)
        rng = np.random.default_rng(6)
        cond = rng.standard_normal((32, 104))
        upstream = rng.standard_normal((32, pred_len, 2))
        out, dx, grads = _rollout_grads(decoder, decoder, cond, upstream)
        ref_out, ref_dx, ref_grads = _rollout_grads(
            lambda x: rollout_reference(decoder, x), decoder, cond, upstream
        )
        assert np.array_equal(out, ref_out)
        np.testing.assert_allclose(dx, ref_dx, rtol=0.0, atol=1e-10)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0.0, atol=1e-10, err_msg=name)

    def test_node_matches_oracle_float32(self):
        # Summation order differs from the per-frame graph (stacked-frame
        # GEMMs), so gradients agree to about half of float32's digits.
        tol = float(np.sqrt(np.finfo(np.float32).eps))
        with default_dtype(np.float32):
            decoder = RecurrentTrajectoryDecoder(104, pred_len=12, rng=0)
            rng = np.random.default_rng(7)
            cond = rng.standard_normal((16, 104)).astype(np.float32)
            upstream = rng.standard_normal((16, 12, 2)).astype(np.float32)
            out, dx, grads = _rollout_grads(decoder, decoder, cond, upstream)
            ref_out, ref_dx, ref_grads = _rollout_grads(
                lambda x: rollout_reference(decoder, x), decoder, cond, upstream
            )
        assert out.dtype == np.float32 and dx.dtype == np.float32
        assert np.array_equal(out, ref_out)
        for got, want in [(dx, ref_dx), *((grads[n], ref_grads[n]) for n in grads)]:
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())

    def test_frozen_parameter_gets_no_gradient(self):
        decoder = RecurrentTrajectoryDecoder(8, pred_len=5, rng=0)
        decoder.cell.weight_x.requires_grad = False
        decoder.head.net[2].bias.requires_grad = False
        rng = np.random.default_rng(8)
        cond = rng.standard_normal((4, 8))
        upstream = rng.standard_normal((4, 5, 2))
        _, dx, grads = _rollout_grads(decoder, decoder, cond, upstream)
        _, ref_dx, ref_grads = _rollout_grads(
            lambda x: rollout_reference(decoder, x), decoder, cond, upstream
        )
        assert grads["cell.weight_x"] is None and grads["head.net.2.bias"] is None
        np.testing.assert_allclose(dx, ref_dx, rtol=0.0, atol=1e-10)
        for name, grad in grads.items():
            if grad is not None:
                np.testing.assert_allclose(grad, ref_grads[name], rtol=0.0, atol=1e-10)

    def test_rollout_is_one_graph_node(self):
        decoder = RecurrentTrajectoryDecoder(6, pred_len=12, rng=0)
        out = decoder(Tensor(np.random.default_rng(5).standard_normal((3, 6)), requires_grad=True))
        # h0, c0, the cell's three weights and the head's four parameters.
        assert len(out._parents) == 9
        with inference_mode(decoder):
            assert not decoder(Tensor(np.zeros((3, 6)))).requires_grad

    def test_training_path_still_differentiates(self):
        decoder = RecurrentTrajectoryDecoder(6, pred_len=4, rng=0)
        cond = Tensor(np.random.default_rng(5).standard_normal((3, 6)), requires_grad=True)
        out = decoder(cond)
        (out * out).sum().backward()
        assert cond.grad is not None and np.isfinite(cond.grad).all()


class TestEndToEndCapture:
    @pytest.mark.parametrize("backbone", ["lbebm", "pecnet"])
    def test_predict_replays_bit_identically(self, backbone):
        method = build_method("vanilla", backbone, num_domains=1, rng=3)
        batch = make_batch(seed=1)
        plan = capture(
            lambda rng: method.predict(batch, 3, rng),
            inputs=batch_inputs(batch),
            rng=np.random.default_rng(0),
        )
        fresh = make_batch(seed=2)
        eager = method.predict(fresh, 3, np.random.default_rng(123))
        compiled = plan.run(batch_inputs(fresh), np.random.default_rng(123))
        assert np.array_equal(eager, compiled)
