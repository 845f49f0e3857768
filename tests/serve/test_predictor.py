"""Predictor contract tests: frames, registry coordinates, RNG, compile.

Covers in isolation what the end-to-end serving suites only exercise
implicitly: the world-frame origin round trip of :meth:`predict_world`, the
``describe()``/``__repr__`` registry coordinates, the int-``rng``
determinism contract of :meth:`predict`, and the compiled fast path
(plan-per-shape-bucket caching, eager fallback, stats surface).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_method
from repro.data.dataset import Batch
from repro.serve.predictor import Predictor


def make_batch(batch_size=5, neighbours=3, seed=0, obs_len=8, pred_len=12):
    rng = np.random.default_rng(seed)
    return Batch(
        obs=rng.standard_normal((batch_size, obs_len, 2)) * 0.1,
        future=np.zeros((batch_size, pred_len, 2)),
        neighbours=rng.standard_normal((batch_size, neighbours, obs_len, 2)) * 0.1,
        neighbour_mask=rng.random((batch_size, neighbours)) < 0.7,
        domain_ids=np.zeros(batch_size, dtype=np.int64),
        origins=rng.standard_normal((batch_size, 2)) * 5.0,
    )


@pytest.fixture(scope="module")
def vanilla_pecnet():
    return build_method("vanilla", "pecnet", num_domains=1, rng=0)


class TestWorldFrame:
    def test_predict_world_is_predict_plus_origins(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet)
        batch = make_batch(seed=1)
        normalized = predictor.predict(batch, num_samples=3, rng=7)
        world = predictor.predict_world(batch, num_samples=3, rng=7)
        np.testing.assert_allclose(
            world, normalized + batch.origins[None, :, None, :], atol=1e-12
        )

    def test_round_trip_recovers_normalized_frame(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet)
        batch = make_batch(seed=2)
        world = predictor.predict_world(batch, num_samples=2, rng=3)
        back = world - batch.origins[None, :, None, :]
        np.testing.assert_allclose(
            back, predictor.predict(batch, num_samples=2, rng=3), atol=1e-12
        )


class TestDescribe:
    def test_registry_coordinates(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet, name="pecnet-prod", version=4)
        text = predictor.describe()
        assert "pecnet-prod:v4" in text
        assert "method=vanilla" in text
        assert "backbone=pecnet" in text
        assert repr(predictor) == text

    def test_unregistered(self, vanilla_pecnet):
        assert "unregistered" in Predictor(vanilla_pecnet).describe()

    def test_compiled_flag_shown(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet, compile=True)
        assert "compiled" in predictor.describe()
        predictor.set_compile(False)
        assert "compiled" not in predictor.describe()


class TestRngContract:
    def test_same_int_seed_is_bit_identical(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet)
        batch = make_batch(seed=3)
        first = predictor.predict(batch, num_samples=4, rng=123)
        # Interleave an unrelated call: per-call int seeding must not share
        # generator state across requests.
        predictor.predict(batch, num_samples=2, rng=9)
        second = predictor.predict(batch, num_samples=4, rng=123)
        assert np.array_equal(first, second)

    def test_same_seed_identical_across_frames_and_compile(self, vanilla_pecnet):
        eager = Predictor(vanilla_pecnet)
        compiled = Predictor(vanilla_pecnet, compile=True)
        batch = make_batch(seed=4)
        assert np.array_equal(
            eager.predict(batch, 3, rng=55), compiled.predict(batch, 3, rng=55)
        )
        assert np.array_equal(
            eager.predict_world(batch, 3, rng=55),
            compiled.predict_world(batch, 3, rng=55),
        )

    @pytest.mark.parametrize("compile", [False, True])
    def test_zero_samples_rejected_not_defaulted(self, vanilla_pecnet, compile):
        predictor = Predictor(vanilla_pecnet, compile=compile)
        with pytest.raises(ValueError, match="num_samples"):
            predictor.predict(make_batch(seed=6), 0, rng=1)
        assert predictor.compile_stats()["broken"] is None

    def test_generator_rng_hands_over_stream(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet)
        batch = make_batch(seed=5)
        gen = np.random.default_rng(8)
        first = predictor.predict(batch, 2, rng=gen)
        second = predictor.predict(batch, 2, rng=gen)  # stream advanced
        assert not np.array_equal(first, second)


class TestCompiledFastPath:
    def test_plan_cache_one_entry_per_shape_bucket(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet, compile=True)
        predictor.predict(make_batch(5, 3, seed=1), 2, rng=0)
        predictor.predict(make_batch(5, 3, seed=2), 2, rng=1)  # same bucket
        predictor.predict(make_batch(4, 3, seed=3), 2, rng=2)  # new bucket
        predictor.predict(make_batch(5, 3, seed=4), 3, rng=3)  # new num_samples
        stats = predictor.compile_stats()
        assert stats["plans"] == 3
        assert stats["hits"] == 1 and stats["misses"] == 3
        assert stats["broken"] is None and stats["fallbacks"] == 0

    def test_compiled_matches_eager_across_buckets(self, vanilla_pecnet):
        eager = Predictor(vanilla_pecnet)
        compiled = Predictor(vanilla_pecnet, compile=True)
        for shape_seed, (bs, k) in enumerate([(1, 2), (6, 4), (3, 1)]):
            batch = make_batch(bs, k, seed=shape_seed)
            assert np.array_equal(
                eager.predict(batch, 4, rng=shape_seed),
                compiled.predict(batch, 4, rng=shape_seed),
            )

    def test_uncapturable_method_falls_back_to_eager(self):
        method = build_method("counter", "pecnet", num_domains=2, rng=0)
        eager = Predictor(method)
        compiled = Predictor(method, compile=True)
        batch = make_batch(seed=6)
        assert np.array_equal(
            eager.predict(batch, 2, rng=11), compiled.predict(batch, 2, rng=11)
        )
        stats = compiled.compile_stats()
        assert stats["broken"] is not None
        assert stats["fallbacks"] > 0 and stats["plans"] == 0

    def test_set_compile_toggles(self, vanilla_pecnet):
        predictor = Predictor(vanilla_pecnet)
        assert not predictor.compile
        predictor.set_compile(True)
        batch = make_batch(seed=7)
        predictor.predict(batch, 2, rng=0)
        assert predictor.compile_stats()["plans"] == 1
        predictor.set_compile(False)
        predictor.predict(batch, 2, rng=0)
        # Disabled: no new hits/misses recorded.
        assert predictor.compile_stats()["hits"] == 0
