"""Tests for the learning methods: vanilla, Counter, CausalMotion, factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    CausalMotionMethod,
    CounterMethod,
    METHOD_NAMES,
    VanillaMethod,
    build_method,
)
from repro.baselines.counter import counterfactual_batch
from repro.core.config import TrainConfig
from repro.core.trainer import AdapTrajMethod
from repro.models import build_backbone

from tests.core.test_trainer_schedule import tiny_dataset
from tests.models.test_backbones import make_batch

FAST = TrainConfig(epochs=3, batch_size=8, eval_samples=1)


def pecnet(context=32):
    return build_backbone("pecnet", rng=2, context_size=context)


class TestVanilla:
    def test_fit_and_evaluate(self):
        method = VanillaMethod(pecnet(), FAST)
        data = tiny_dataset()
        result = method.fit(data)
        assert len(result.epoch_losses) == 3
        ade, fde = method.evaluate(data)
        assert np.isfinite(ade) and np.isfinite(fde)

    def test_predict_rejects_zero_samples_instead_of_defaulting(self):
        method = VanillaMethod(pecnet(), FAST)
        batch = make_batch()
        assert method.predict(batch, None, rng=0).shape[0] == FAST.eval_samples
        with pytest.raises(ValueError, match="num_samples"):
            method.predict(batch, 0, rng=0)

    def test_evaluate_rejects_zero_samples_instead_of_defaulting(self):
        method = VanillaMethod(pecnet(), FAST)
        with pytest.raises(ValueError, match="num_samples"):
            method.evaluate(tiny_dataset(), num_samples=0)

    def test_empty_dataset_rejected(self):
        method = VanillaMethod(pecnet(), FAST)
        with pytest.raises(ValueError, match="empty"):
            method.fit(tiny_dataset().subset([]))

    def test_max_batches_cap(self):
        config = TrainConfig(epochs=1, batch_size=4, max_batches_per_epoch=2)
        method = VanillaMethod(pecnet(), config)
        counted = 0

        original = method.training_step

        def counting_step(batch, step=None):
            nonlocal counted
            counted += 1
            return original(batch, step)

        method.training_step = counting_step
        method.fit(tiny_dataset(per_domain=40))
        assert counted == 2


class TestCounter:
    def test_counterfactual_replaces_past_with_mean(self):
        batch = make_batch()
        mean_obs = np.full((8, 2), 0.5)
        cf = counterfactual_batch(batch, mean_obs)
        np.testing.assert_allclose(cf.obs, 0.5)
        np.testing.assert_allclose(cf.neighbours, batch.neighbours)
        np.testing.assert_allclose(cf.future, batch.future)

    def test_counterfactual_validates_shape(self):
        batch = make_batch()
        with pytest.raises(ValueError, match="mean_obs"):
            counterfactual_batch(batch, np.zeros((4, 2)))

    def test_running_mean_updates(self):
        method = CounterMethod(pecnet(), FAST)
        batch = make_batch()
        method._update_mean(batch)
        first = method.mean_obs.copy()
        np.testing.assert_allclose(first, batch.obs.mean(axis=0))
        other = make_batch(rng=np.random.default_rng(9))
        method._update_mean(other)
        assert not np.allclose(method.mean_obs, first)

    def test_prediction_is_factual_minus_counterfactual(self, rng):
        method = CounterMethod(pecnet(), FAST)
        method.mean_obs = np.zeros((8, 2))
        method._mean_initialized = True
        batch = make_batch()
        samples = method.predict_samples(batch, 2, rng)
        assert samples.shape == (2, 4, 12, 2)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            CounterMethod(pecnet(), FAST, mean_momentum=1.0)

    def test_fit_runs(self):
        method = CounterMethod(pecnet(), FAST)
        result = method.fit(tiny_dataset())
        assert np.isfinite(result.final_loss)


class TestCausalMotion:
    def test_invariance_penalty_increases_loss(self, rng):
        data = tiny_dataset()
        batch = data.collate(range(8))
        plain = CausalMotionMethod(pecnet(), FAST, invariance_weight=0.0)
        heavy = CausalMotionMethod(pecnet(), FAST, invariance_weight=50.0)
        # Same backbone weights for a fair comparison.
        heavy.backbone.load_state_dict(plain.backbone.state_dict())
        heavy.rng = np.random.default_rng(0)
        plain.rng = np.random.default_rng(0)
        assert heavy.training_step(batch).item() > plain.training_step(batch).item()

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CausalMotionMethod(pecnet(), FAST, invariance_weight=-1.0)

    def test_fit_runs(self):
        method = CausalMotionMethod(pecnet(), FAST)
        result = method.fit(tiny_dataset())
        assert np.isfinite(result.final_loss)


class TestBuildMethod:
    def test_all_methods_constructible(self):
        for name in METHOD_NAMES:
            method = build_method(name, "pecnet", num_domains=2, train_config=FAST)
            assert method is not None

    def test_adaptraj_returns_adaptraj_method(self):
        method = build_method("adaptraj", "pecnet", num_domains=2, train_config=FAST)
        assert isinstance(method, AdapTrajMethod)
        assert method.model.num_domains == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            build_method("dreamer", "pecnet", num_domains=2)

    def test_context_width_consistent_across_methods(self):
        a = build_method("vanilla", "pecnet", num_domains=2)
        b = build_method("adaptraj", "pecnet", num_domains=2)
        assert a.backbone.context_size == b.backbone.context_size

    def test_variant_forwarded(self):
        method = build_method(
            "adaptraj", "pecnet", num_domains=2, variant="no_specific"
        )
        assert method.model.variant == "no_specific"

    def test_backbone_kwargs_forwarded(self):
        method = build_method(
            "vanilla", "lbebm", num_domains=2, langevin_steps=2, hidden_size=16
        )
        assert method.backbone.hidden_size == 16


class TestInferenceTiming:
    def test_measure_inference_time_positive(self):
        method = VanillaMethod(pecnet(), FAST)
        data = tiny_dataset()
        seconds = method.measure_inference_time(data, num_batches=2, batch_size=4)
        assert seconds > 0
