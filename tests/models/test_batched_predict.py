"""Best-of-K as one batched decode, against the per-sample loop.

``TrajectoryBackbone.predict`` decodes all ``K`` futures over ``K * B``
sample-major rows in one pass.  ``predict_reference`` in
``tests/models/oracles.py`` keeps the loop it replaced, one single-sample
decode per future.  These tests pin the batched pass to that oracle:

* values at ``1e-12`` in float64 and a dtype-derived tolerance in float32,
  for every learning method on both backbones (larger row blocks may
  change which GEMM kernel numpy picks, so the last bit can move);
* the generator's state after ``predict`` — the noise is one block that
  must leave the stream exactly where ``K`` sequential draws leave it
  (Counter draws its counterfactual futures right after the factual ones,
  so a misaligned block would silently change them);
* the compiled plan: its length does not grow with ``K`` and its replay
  stays bit-identical to the eager batched pass.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import build_method
from repro.nn import capture, default_dtype
from tests.models.oracles import predict_reference
from tests.models.test_compiled_paths import batch_inputs, make_batch

BACKBONES = ("pecnet", "lbebm")
METHODS = ("vanilla", "counter", "causal_motion", "adaptraj")


def _build(method: str, backbone: str):
    return build_method(method, backbone, num_domains=3, rng=3)


def _batched_and_reference(method, batch, num_samples: int, seed: int):
    """``method.predict`` through the batched decode and through the loop,
    from two generators seeded alike; returns both outputs and generators."""
    rng_batched, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = method.predict(batch, num_samples, rng_batched)
    backbone = method.backbone
    backbone.predict = functools.partial(predict_reference, backbone)
    try:
        reference = method.predict(batch, num_samples, rng_reference)
    finally:
        del backbone.predict
    return batched, reference, rng_batched, rng_reference


@pytest.fixture(scope="module", params=[(m, b) for b in BACKBONES for m in METHODS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def method(request):
    return _build(*request.param)


class TestAgainstPerSampleLoop:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("num_samples", [1, 2, 20])
    def test_float64_values_and_rng_state(self, method, num_samples, batch_size):
        batch = make_batch(batch_size=batch_size, seed=batch_size)
        batched, reference, rng_b, rng_r = _batched_and_reference(
            method, batch, num_samples, seed=11
        )
        assert batched.shape == reference.shape == (num_samples, batch_size, 12, 2)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)
        assert rng_b.bit_generator.state == rng_r.bit_generator.state

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("name", METHODS)
    def test_float32_within_dtype_tolerance(self, name, backbone):
        with default_dtype(np.float32):
            method = _build(name, backbone)
            for num_samples, batch_size in [(1, 3), (2, 1), (20, 8)]:
                batch = make_batch(batch_size=batch_size, seed=batch_size)
                batched, reference, rng_b, rng_r = _batched_and_reference(
                    method, batch, num_samples, seed=12
                )
                assert batched.dtype == reference.dtype == np.float32
                tol = 16 * float(np.finfo(np.float32).eps) * max(1.0, float(np.abs(reference).max()))
                np.testing.assert_allclose(batched, reference, rtol=0.0, atol=tol)
                assert rng_b.bit_generator.state == rng_r.bit_generator.state


class TestPlanDoesNotGrowWithK:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_same_num_steps_at_k2_and_k20_and_bit_identical(self, backbone):
        method = _build("vanilla", backbone)
        batch, fresh = make_batch(batch_size=4, seed=1), make_batch(batch_size=4, seed=2)
        steps = {}
        for num_samples in (2, 20):
            plan = capture(
                lambda rng: method.predict(batch, num_samples, rng),
                inputs=batch_inputs(batch),
                rng=np.random.default_rng(0),
            )
            steps[num_samples] = plan.num_steps
            eager = method.predict(fresh, num_samples, np.random.default_rng(9))
            assert np.array_equal(
                eager, plan.run(batch_inputs(fresh), np.random.default_rng(9))
            )
        assert steps[2] == steps[20]
