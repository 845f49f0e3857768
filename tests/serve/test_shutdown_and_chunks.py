"""Shutdown semantics and externally-driven flush chunks (async front-end).

The PR-4 regression surface: a shut-down batcher must terminate every
pending request with :class:`ServingClosedError` instead of hanging pollers,
shutdown must be idempotent and exception-safe, and the ``take_ready`` /
``release`` / ``prepare_chunk`` / ``complete_chunk`` API must preserve
coalescing and the per-flush RNG replay contract the network gate relies
on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceededError,
    MicroBatcher,
    Predictor,
    ServingClosedError,
    collate_requests,
)

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
    """Deterministic row-wise predictor (velocity extrapolation)."""

    pred_len = 12
    obs_len = 8

    def predict_world(self, batch, num_samples, rng):
        velocity = batch.obs[:, -1] - batch.obs[:, -2]
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


class TestShutdown:
    def test_pending_requests_get_terminal_error(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        handles = batcher.submit([request_factory(i) for i in range(3)])
        assert not any(h.done for h in handles)
        assert batcher.shutdown() == 3
        for handle in handles:
            assert handle.done  # a poller loop terminates immediately
            assert isinstance(handle.error, ServingClosedError)
            with pytest.raises(ServingClosedError):
                handle.result()

    def test_shutdown_is_idempotent(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        batcher.submit([request_factory(0)])
        assert batcher.shutdown() == 1
        assert batcher.shutdown() == 0
        assert batcher.shutdown() == 0
        assert batcher.closed

    def test_submit_after_shutdown_raises(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        batcher.shutdown()
        with pytest.raises(ServingClosedError):
            batcher.submit([request_factory(0)])

    def test_completed_results_survive_shutdown(self, request_factory):
        """Shutdown fails *pending* work only; delivered results stay valid."""
        batcher = MicroBatcher(StubPredictor(), max_batch_size=2, clock=FakeClock())
        done = batcher.submit([request_factory(i) for i in range(2)])
        run_queued(batcher)
        [late] = batcher.submit([request_factory(2)])
        batcher.shutdown()
        assert all(h.error is None for h in done)
        assert done[0].result().shape == (1, 12, 2)
        assert isinstance(late.error, ServingClosedError)

    def test_shutdown_after_failed_flush_is_exception_safe(self, request_factory):
        """A failed chunk strands nothing: its handles hold the forward's
        error, and the requests still queued behind it get the terminal
        shutdown error."""

        class FailingPredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                raise RuntimeError("backend down")

        batcher = MicroBatcher(FailingPredictor(), max_batch_size=2, clock=FakeClock())
        handles = batcher.submit([request_factory(i) for i in range(4)])
        with pytest.raises(RuntimeError, match="backend down"):
            run_queued(batcher)
        assert all(isinstance(h.error, RuntimeError) for h in handles[:2])
        assert batcher.pending_count == 2  # never popped, still queued
        assert batcher.shutdown() == 2
        assert all(isinstance(h.error, ServingClosedError) for h in handles[2:])
        assert all(h.done for h in handles)


class TestExternalFlushChunks:
    def make_batcher(self, clock=None, **kwargs):
        kwargs.setdefault("max_batch_size", 4)
        kwargs.setdefault("max_wait", 0.05)
        return MicroBatcher(StubPredictor(), clock=clock or FakeClock(), **kwargs)

    def test_submit_only_queues(self, request_factory):
        batcher = self.make_batcher()
        handles = batcher.submit([request_factory(i) for i in range(6)])
        assert not any(h.done for h in handles)
        assert batcher.pending_count == 6

    def test_take_ready_pops_full_chunks_and_due_partial(self, request_factory):
        clock = FakeClock()
        batcher = self.make_batcher(clock=clock)
        for i in range(6):
            batcher.submit([request_factory(i)])
        chunks = batcher.take_ready()
        assert [c.size for c in chunks] == [4]  # partial not due yet
        clock.advance(0.06)
        chunks += batcher.take_ready()
        assert [c.size for c in chunks] == [4, 2]
        assert [c.batch_id for c in chunks] == [0, 1]
        assert batcher.pending_count == 0

    def test_limit_caps_the_chunks_popped(self, request_factory):
        batcher = self.make_batcher(max_wait=0.0)
        batcher.submit([request_factory(0)])
        # No free slot: the scheduler pops nothing, the single waits...
        assert batcher.take_ready(limit=0) == []
        for i in range(1, 7):
            batcher.submit([request_factory(i)])
        # ...and one slot frees: one chunk pops, the backlog coalesced.
        [chunk] = batcher.take_ready(limit=1)
        assert chunk.size == 4
        assert batcher.pending_count == 3
        assert [c.size for c in batcher.take_ready(limit=2)] == [3]

    def test_release_makes_a_partial_batch_due(self, request_factory):
        clock = FakeClock()
        batcher = self.make_batcher(clock=clock, max_wait=100.0)
        for i in range(5):
            batcher.submit([request_factory(i)])
        assert [c.size for c in batcher.take_ready()] == [4]  # full chunk only
        assert batcher.release() == 1
        assert batcher.next_due(allow_partial=True) == clock.now
        [chunk] = batcher.take_ready()
        assert chunk.size == 1
        # Work submitted after the release waits out max_wait again.
        clock.advance(1.0)
        batcher.submit([request_factory(5)])
        assert batcher.take_ready() == []

    def test_run_chunk_fulfils_handles(self, request_factory):
        batcher = self.make_batcher()
        handles = batcher.submit([request_factory(i) for i in range(4)])
        [chunk] = batcher.take_ready()
        completed = execute_chunk(batcher, chunk)
        assert completed == handles
        assert all(h.done and h.error is None for h in handles)
        assert batcher.total_batches == 1
        assert batcher.mean_batch_size == 4.0

    def test_run_chunk_failure_is_terminal(self, request_factory):
        class FlakyPredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                raise RuntimeError("boom")

        batcher = MicroBatcher(FlakyPredictor(), max_batch_size=4, clock=FakeClock())
        handles = batcher.submit([request_factory(i) for i in range(2)])
        [chunk] = batcher.take_ready()
        with pytest.raises(RuntimeError, match="boom"):
            execute_chunk(batcher, chunk)
        # A failed chunk is never requeued: the error is terminal, so the
        # async server can answer the waiting clients instead of retrying a
        # poisoned batch forever.
        assert batcher.pending_count == 0
        for handle in handles:
            assert isinstance(handle.error, RuntimeError)
            with pytest.raises(RuntimeError, match="boom"):
                handle.result()
        assert batcher.total_failed == 2

    def test_fully_expired_chunk_never_reaches_the_model(self, request_factory):
        class UnreachablePredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                raise AssertionError("an expired chunk reached inference")

        clock = FakeClock()
        batcher = MicroBatcher(UnreachablePredictor(), clock=clock)
        requests = [request_factory(i) for i in range(2)]
        for request in requests:
            request.deadline = 1.0
        handles = batcher.submit(requests)
        [chunk] = batcher.take_ready()
        clock.advance(2.0)  # every deadline passes while the chunk is routed
        assert batcher.prepare_chunk(chunk) is None
        assert execute_chunk(batcher, chunk) == []
        assert all(isinstance(h.error, DeadlineExceededError) for h in handles)
        assert (batcher.total_expired, batcher.total_batches) == (2, 0)

    def test_next_due_is_the_earliest_deadline_or_partial_due(self, request_factory):
        """The drain timer's target.  With no free slot only a queued
        deadline can change anything; with one, so can the moment the
        partial batch becomes due."""
        batcher = self.make_batcher()  # max_wait 0.05, clock at 0
        assert batcher.next_due(allow_partial=True) is None  # nothing queued
        batcher.submit([request_factory(0)])
        assert batcher.next_due(allow_partial=False) is None  # no deadline
        late, early = request_factory(1), request_factory(2)
        late.deadline, early.deadline = 0.2, 0.01
        batcher.submit([late])
        assert batcher.next_due(allow_partial=False) == 0.2
        assert batcher.next_due(allow_partial=True) == 0.05
        batcher.submit([early])
        assert batcher.next_due(allow_partial=True) == 0.01


class TestPerFlushRngReplay:
    def test_each_chunk_draws_from_its_batch_id_stream(self, request_factory):
        """There is no shared noise stream: chunk ``i`` draws from
        ``default_rng((seed_per_flush, i))`` (seed 0 by default), whichever
        chunks ran before it."""
        draws = []

        class DrawingPredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                draws.append(rng.random())
                return super().predict_world(batch, num_samples, rng)

        batcher = MicroBatcher(DrawingPredictor(), max_batch_size=2, clock=FakeClock())
        for i in range(6):
            batcher.submit([request_factory(i)])
        chunks = batcher.take_ready()
        assert [c.batch_id for c in chunks] == [0, 1, 2]
        for chunk in reversed(chunks):
            execute_chunk(batcher, chunk)
        assert draws == [np.random.default_rng((0, i)).random() for i in (2, 1, 0)]

    def test_batches_replay_from_seed_and_batch_id(self, trained_vanilla, request_factory):
        """The network gate's contract: a served batch is reproducible from
        (seed_per_flush, batch_id) and its request payloads alone."""
        predictor = Predictor(trained_vanilla)
        batcher = MicroBatcher(
            predictor,
            num_samples=2,
            max_batch_size=3,
            seed_per_flush=123,
        )
        requests = [request_factory(i, num_neighbours=i % 3) for i in range(5)]
        handles = batcher.submit(requests)
        chunks = batcher.take_ready()
        # Execute out of order — per-flush derivation makes order irrelevant.
        for chunk in reversed(chunks):
            execute_chunk(batcher, chunk)
        for chunk in chunks:
            batch = collate_requests(
                [h.request for h in chunk.handles], pred_len=predictor.pred_len
            )
            offline = predictor.predict_world(
                batch, 2, np.random.default_rng((123, chunk.batch_id))
            )
            for row, handle in enumerate(chunk.handles):
                np.testing.assert_allclose(handle.result(), offline[:, row], atol=1e-9)
        assert all(h.done for h in handles)
