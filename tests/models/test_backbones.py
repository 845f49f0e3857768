"""Tests for the PECNet and LBEBM backbones and the backbone contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Batch
from repro.models import LBEBM, PECNet, build_backbone
from repro.nn import Tensor


def make_batch(batch_size=4, obs_len=8, pred_len=12, k=3, rng=None):
    rng = rng or np.random.default_rng(0)
    obs = rng.normal(size=(batch_size, obs_len, 2)) * 0.3
    obs[:, -1, :] = 0.0  # normalized frame
    mask = rng.random((batch_size, k)) < 0.6
    return Batch(
        obs=obs,
        future=rng.normal(size=(batch_size, pred_len, 2)),
        neighbours=rng.normal(size=(batch_size, k, obs_len, 2)),
        neighbour_mask=mask,
        domain_ids=np.zeros(batch_size, dtype=np.int64),
        origins=rng.normal(size=(batch_size, 2)),
    )


@pytest.fixture(params=["pecnet", "lbebm"])
def backbone(request, rng):
    kwargs = {"rng": rng}
    if request.param == "lbebm":
        kwargs["langevin_steps"] = 3  # keep tests fast
    return build_backbone(request.param, **kwargs)


class TestBackboneContract:
    def test_encode_shapes(self, backbone):
        batch = make_batch()
        enc = backbone.encode(batch)
        assert enc.h_ei.shape == (4, backbone.hidden_size)
        assert enc.p_i.shape == (4, backbone.interaction_size)

    def test_decode_shape(self, backbone, rng):
        batch = make_batch()
        enc = backbone.encode(batch)
        pred = backbone.decode(enc, batch, None, rng)
        assert pred.shape == (4, backbone.pred_len, 2)

    def test_compute_loss_finite_and_decomposed(self, backbone, rng):
        batch = make_batch()
        enc = backbone.encode(batch)
        out = backbone.compute_loss(enc, batch, None, rng)
        assert np.isfinite(out.loss.item())
        assert out.prediction.shape == (4, backbone.pred_len, 2)
        assert out.loss.item() == pytest.approx(
            out.traj_loss.item() + out.aux_loss.item()
        )

    def test_gradients_reach_all_encoder_params(self, backbone, rng):
        batch = make_batch()
        enc = backbone.encode(batch)
        out = backbone.compute_loss(enc, batch, None, rng)
        out.loss.backward()
        with_grad = sum(1 for p in backbone.parameters() if p.grad is not None)
        assert with_grad / len(backbone.parameters()) > 0.9

    def test_context_conditioning_changes_output(self, backbone, rng):
        batch = make_batch()
        enc = backbone.encode(batch)
        seed_rng = np.random.default_rng(7)
        pred_zero = backbone.decode(enc, batch, None, seed_rng)
        seed_rng = np.random.default_rng(7)
        context = Tensor(np.ones((4, backbone.context_size)))
        pred_ctx = backbone.decode(enc, batch, context, seed_rng)
        assert not np.allclose(pred_zero.data, pred_ctx.data)

    def test_context_shape_validated(self, backbone, rng):
        batch = make_batch()
        enc = backbone.encode(batch)
        with pytest.raises(ValueError, match="context"):
            backbone.decode(enc, batch, Tensor(np.ones((4, 7))), rng)

    def test_predict_shape_and_stochasticity(self, backbone, rng):
        batch = make_batch()
        samples = backbone.predict(batch, rng=rng, num_samples=3)
        assert samples.shape == (3, 4, backbone.pred_len, 2)
        assert not np.allclose(samples[0], samples[1])

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_predict_rejects_fewer_than_one_sample(self, backbone, rng, num_samples):
        with pytest.raises(ValueError, match="num_samples"):
            backbone.predict(make_batch(), rng=rng, num_samples=num_samples)

    def test_predict_restores_training_mode(self, backbone, rng):
        batch = make_batch()
        assert backbone.training
        backbone.predict(batch, rng=rng)
        assert backbone.training

    def test_predict_leaves_no_grads(self, backbone, rng):
        batch = make_batch()
        backbone.zero_grad()
        backbone.predict(batch, rng=rng, num_samples=2)
        assert all(p.grad is None for p in backbone.parameters())


class TestBuildBackbone:
    def test_names(self):
        assert isinstance(build_backbone("pecnet"), PECNet)
        assert isinstance(build_backbone("LBEBM"), LBEBM)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backbone"):
            build_backbone("social-gan")

    def test_kwargs_forwarded(self):
        net = build_backbone("pecnet", hidden_size=16, context_size=8)
        assert net.hidden_size == 16
        assert net.context_size == 8


class TestLBEBMSpecifics:
    def test_langevin_sample_shape(self, rng):
        model = LBEBM(langevin_steps=3, rng=rng)
        h = Tensor(rng.normal(size=(5, model.hidden_size)))
        z = model.langevin_sample(h, rng)
        assert z.shape == (5, model.latent_dim)

    def test_langevin_clears_energy_grads(self, rng):
        model = LBEBM(langevin_steps=3, rng=rng)
        h = Tensor(rng.normal(size=(5, model.hidden_size)))
        model.langevin_sample(h, rng)
        assert all(p.grad is None for p in model.energy.parameters())

    def test_energy_training_separates_pos_neg(self, rng):
        """After training steps, posterior samples get lower energy than
        Langevin negatives (the contrastive objective's direction)."""
        from repro.nn import Adam

        model = LBEBM(langevin_steps=5, rng=3)
        batch = make_batch(batch_size=16)
        opt = Adam(model.parameters(), lr=3e-3)
        terms = {}
        for _ in range(25):
            opt.zero_grad()
            enc = model.encode(batch)
            out = model.compute_loss(enc, batch, None, rng)
            out.loss.backward()
            opt.step()
            terms = out.terms
        assert terms["e_pos"] <= terms["e_neg"] + 0.5


class TestPECNetSpecifics:
    def test_endpoint_vae_dimensions(self, rng):
        model = PECNet(latent_dim=6, rng=rng)
        assert model.endpoint_encoder.out_features == 12

    def test_training_improves_endpoint(self, rng):
        from repro.nn import Adam

        model = PECNet(rng=4)
        batch = make_batch(batch_size=32)
        opt = Adam(model.parameters(), lr=3e-3)
        first = last = None
        for _ in range(30):
            opt.zero_grad()
            enc = model.encode(batch)
            out = model.compute_loss(enc, batch, None, rng)
            out.loss.backward()
            opt.step()
            if first is None:
                first = out.terms["endpoint"]
            last = out.terms["endpoint"]
        assert last < 0.5 * first
