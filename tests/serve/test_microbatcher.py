"""Micro-batcher tests: collation fidelity, coalescing policies, equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import TrajectoryDataset, TrajectorySample
from repro.serve import MicroBatcher, PredictRequest, Predictor, collate_requests

from tests.serve.conftest import execute_chunk, run_queued


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubPredictor:
    """Deterministic row-wise predictor: future = last obs velocity extrapolated.

    Row independence means coalesced and per-request outputs must agree
    exactly; calls are recorded so tests can assert the batching layout.
    """

    pred_len = 12
    obs_len = 8

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []

    def predict_world(self, batch, num_samples, rng):
        self.batch_sizes.append(batch.size)
        velocity = batch.obs[:, -1] - batch.obs[:, -2]  # [B, 2]
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


class TestPredictRequest:
    def test_validates_shapes(self):
        with pytest.raises(ValueError, match="obs"):
            PredictRequest(request_id=0, obs=np.zeros((8,)))
        with pytest.raises(ValueError, match="neighbours"):
            PredictRequest(
                request_id=0, obs=np.zeros((8, 2)), neighbours=np.zeros((1, 4, 2))
            )

    def test_no_neighbours_default(self):
        request = PredictRequest(request_id=0, obs=np.zeros((8, 2)))
        assert request.neighbours.shape == (0, 8, 2)


class TestCollateRequests:
    def test_matches_dataset_collate(self, rng):
        """Serving collation is bit-identical to the offline dataset path."""
        samples, requests = [], []
        for i, n in enumerate([0, 2, 5]):
            obs = np.cumsum(rng.normal(size=(8, 2)), axis=0) + 10.0 * i
            future = np.cumsum(rng.normal(size=(12, 2)), axis=0)
            neighbours = np.cumsum(rng.normal(size=(n, 8, 2)), axis=1)
            samples.append(
                TrajectorySample(obs=obs, future=future, neighbours=neighbours, domain="d")
            )
            requests.append(
                PredictRequest(request_id=i, obs=obs, neighbours=neighbours)
            )
        offline = TrajectoryDataset(samples, domains=["d"]).collate(range(3))
        served = collate_requests(requests, pred_len=12)
        np.testing.assert_array_equal(served.obs, offline.obs)
        np.testing.assert_array_equal(served.neighbours, offline.neighbours)
        np.testing.assert_array_equal(served.neighbour_mask, offline.neighbour_mask)
        np.testing.assert_array_equal(served.origins, offline.origins)
        np.testing.assert_array_equal(served.domain_ids, offline.domain_ids)

    def test_nearest_neighbour_capping_matches_offline(self, rng):
        obs = np.cumsum(rng.normal(size=(8, 2)), axis=0)
        neighbours = np.cumsum(rng.normal(size=(6, 8, 2)), axis=1)
        sample = TrajectorySample(
            obs=obs, future=np.zeros((12, 2)), neighbours=neighbours, domain="d"
        )
        offline = TrajectoryDataset([sample], domains=["d"]).collate([0], max_neighbours=3)
        served = collate_requests(
            [PredictRequest(request_id=0, obs=obs, neighbours=neighbours)],
            pred_len=12,
            max_neighbours=3,
        )
        np.testing.assert_array_equal(served.neighbours, offline.neighbours)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collate_requests([])

    def test_mixed_window_lengths_rejected(self):
        with pytest.raises(ValueError, match="window lengths"):
            collate_requests(
                [
                    PredictRequest(request_id=0, obs=np.zeros((8, 2))),
                    PredictRequest(request_id=1, obs=np.zeros((6, 2))),
                ]
            )


class TestBatchingPolicies:
    def test_max_batch_size_makes_a_chunk_due(self, request_factory):
        stub = StubPredictor()
        batcher = MicroBatcher(stub, max_batch_size=4, max_wait=100.0, clock=FakeClock())
        handles = batcher.submit([request_factory(i) for i in range(7)])
        assert stub.batch_sizes == []  # submit only queues
        # Requests 0-3 form a full chunk, due at once; 4-6 wait out max_wait.
        [chunk] = batcher.take_ready()
        assert chunk.handles == handles[:4]
        execute_chunk(batcher, chunk)
        assert stub.batch_sizes == [4]
        assert [h.done for h in handles] == [True] * 4 + [False] * 3
        assert batcher.pending_count == 3

    def test_max_wait_makes_a_partial_batch_due(self, request_factory):
        stub = StubPredictor()
        clock = FakeClock()
        batcher = MicroBatcher(stub, max_batch_size=32, max_wait=0.05, clock=clock)
        [handle] = batcher.submit([request_factory(0)])
        assert batcher.take_ready() == []  # oldest has not waited long enough
        assert batcher.next_due(allow_partial=True) == 0.05
        clock.advance(0.051)
        [chunk] = batcher.take_ready()
        assert execute_chunk(batcher, chunk) == [handle]
        assert handle.done
        assert stub.batch_sizes == [1]

    def test_result_before_flush_raises(self, request_factory):
        batcher = MicroBatcher(
            StubPredictor(), max_batch_size=8, max_wait=100.0, clock=FakeClock()
        )
        [handle] = batcher.submit([request_factory(0)])
        with pytest.raises(RuntimeError, match="not ready"):
            handle.result()

    def test_wrong_window_length_rejected_at_submit(self, request_factory):
        """A malformed request fails in its own caller instead of poisoning
        the batch it would later be coalesced with."""
        batcher = MicroBatcher(StubPredictor(), max_batch_size=4, clock=FakeClock())
        good = batcher.submit([request_factory(i) for i in range(3)])
        with pytest.raises(ValueError, match="window length"):
            batcher.submit([request_factory(99, obs_len=7)])
        run_queued(batcher)
        assert all(h.done for h in good)

    def test_refused_submit_queues_none_of_its_requests(self, request_factory):
        """Requests submitted together queue together or not at all."""
        batcher = MicroBatcher(StubPredictor(), max_batch_size=4, clock=FakeClock())
        mixed = [request_factory(0), request_factory(1), request_factory(2, obs_len=7)]
        with pytest.raises(ValueError, match="window length"):
            batcher.submit(mixed)
        assert (batcher.pending_count, batcher.total_requests) == (0, 0)
        handles = batcher.submit(mixed[:2])
        assert [h.request for h in handles] == mixed[:2]
        assert {h.enqueued_at for h in handles} == {0.0}
        assert batcher.pending_count == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(StubPredictor(), max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(StubPredictor(), max_wait=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(StubPredictor(), num_samples=0)


class TestCoalescingEquivalence:
    def test_stub_coalesced_equals_per_request(self, request_factory):
        requests = [request_factory(i, num_neighbours=i % 4) for i in range(6)]
        coalesced = MicroBatcher(StubPredictor(), max_batch_size=6)
        batched = coalesced.submit(requests)
        run_queued(coalesced)
        sequential = MicroBatcher(StubPredictor(), max_batch_size=1)
        singles = sequential.submit(requests)
        run_queued(sequential)
        for a, b in zip(batched, singles):
            np.testing.assert_allclose(a.result(), b.result(), atol=1e-12)

    def test_real_model_coalesced_equals_per_request(self, trained_vanilla, request_factory):
        """Padded coalescing through PECNet is row-independent: one forward
        over the collated batch equals running each request alone, when the
        single-request forwards draw from one generator in row order.  That
        holds at K=1 only; at K > 1 the batched draw is sample-major, so the
        rows would get other draws."""
        predictor = Predictor(trained_vanilla)
        requests = [request_factory(i, num_neighbours=i % 3) for i in range(5)]
        batch = collate_requests(requests, pred_len=predictor.pred_len)
        coalesced = predictor.predict_world(batch, 1, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        for row, request in enumerate(requests):
            single = collate_requests([request], pred_len=predictor.pred_len)
            np.testing.assert_allclose(
                coalesced[:, row], predictor.predict_world(single, 1, rng)[:, 0], atol=1e-9
            )
