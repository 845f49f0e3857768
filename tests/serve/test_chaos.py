"""Fault-tolerance tests: deadlines, breakers, swaps, injected chaos.

Every scenario here drives real components — the in-process batcher, or a
real ``AsyncServingServer`` on a loopback socket — with faults injected
through the seeded :mod:`repro.serve.faults` harness, and asserts the
robustness contract: every request resolves as a valid reply or a *typed*
error, nothing hangs, and the server keeps serving afterwards.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AsyncServingServer,
    ChaosProxy,
    CircuitBreaker,
    DeadlineExceededError,
    FaultError,
    FaultPlan,
    FaultRule,
    FaultyPredictor,
    MicroBatcher,
    PredictRequest,
    RemoteServingError,
    RetryPolicy,
    ServerThread,
    ServingClient,
    ServingClosedError,
    WorkerSpec,
    collate_requests,
)
from repro.serve import protocol
from repro.serve.workers import seeded_predictor

from tests.serve.conftest import execute_chunk


class StubPredictor:
    """Deterministic velocity-extrapolation predictor (scalable for swaps)."""

    pred_len = 12
    obs_len = 8

    def __init__(self, delay: float = 0.0, scale: float = 1.0) -> None:
        self.delay = delay
        self.scale = scale

    def predict_world(self, batch, num_samples, rng):
        if self.delay:
            time.sleep(self.delay)
        velocity = (batch.obs[:, -1] - batch.obs[:, -2]) * self.scale
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


def expected_extrapolation(obs, pred_len=12, scale=1.0):
    velocity = (obs[-1] - obs[-2]) * scale
    steps = np.arange(1, pred_len + 1)[:, None]
    return obs[-1][None, :] + velocity[None, :] * steps


def make_obs(seed: int = 0, obs_len: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=(obs_len, 2)), axis=0)


def make_request(seed: int = 0, deadline: float | None = None) -> PredictRequest:
    return PredictRequest(request_id=seed, obs=make_obs(seed), deadline=deadline)


def serve(server: AsyncServingServer):
    """Start ``server`` on a thread; returns (thread, host, port)."""
    thread = ServerThread(server)
    host, port = thread.start()
    return thread, host, port


# ----------------------------------------------------------------------
# The fault harness itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_fault_sequence(self):
        rules = [
            FaultRule("predict", "error", rate=0.3),
            FaultRule("predict", "latency", rate=0.2, delay=0.0),
        ]
        one = FaultPlan(11, rules)
        two = FaultPlan(11, rules)
        seq1 = [getattr(one.draw("predict"), "kind", None) for _ in range(50)]
        seq2 = [getattr(two.draw("predict"), "kind", None) for _ in range(50)]
        assert seq1 == seq2
        assert "error" in seq1 and None in seq1  # the storm is a mix

    def test_sites_have_independent_streams_and_counters(self):
        plan = FaultPlan(
            3,
            [
                FaultRule("predict", "error", rate=1.0),
                FaultRule("response", "drop", rate=1.0),
            ],
        )
        assert plan.draw("response").kind == "drop"
        assert plan.draw("predict").kind == "error"
        assert plan.calls("predict") == 1
        assert plan.calls("response") == 1
        assert plan.injected == {"predict:error": 1, "response:drop": 1}

    def test_after_and_count_bound_the_storm(self):
        plan = FaultPlan(0, [FaultRule("predict", "error", rate=1.0, after=2, count=3)])
        kinds = [getattr(plan.draw("predict"), "kind", None) for _ in range(8)]
        assert kinds == [None, None, "error", "error", "error", None, None, None]

    def test_apply_raises_errors_and_sleeps_latency(self):
        plan = FaultPlan(
            0,
            [
                FaultRule("predict", "latency", rate=1.0, count=1, delay=1.5),
                FaultRule("predict", "error", rate=1.0, message="kaboom"),
            ],
        )
        sleeps: list[float] = []
        plan._sleep = sleeps.append
        assert plan.apply("predict").kind == "latency"
        assert sleeps == [1.5]
        with pytest.raises(FaultError, match="kaboom"):
            plan.apply("predict")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule("predict", "segfault")
        with pytest.raises(ValueError, match="rate"):
            FaultRule("predict", "error", rate=1.5)
        with pytest.raises(ValueError, match="count"):
            FaultRule("predict", "error", count=0)

    def test_faulty_predictor_delegates_attributes(self):
        inner = StubPredictor()
        closed = []
        inner.close = lambda: closed.append(True)
        inner.worker_stats = lambda: {"pid": 123}
        faulty = FaultyPredictor(inner, FaultPlan(0, []))
        assert faulty.obs_len == 8 and faulty.pred_len == 12
        # The server reports and closes a slot through the wrapper: a wrapped
        # worker slot still surfaces its process and still dies at shutdown.
        assert faulty.worker_stats() == {"pid": 123}
        faulty.close()
        assert closed == [True]
        assert not hasattr(FaultyPredictor(StubPredictor(), FaultPlan(0, [])), "close")


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_errors(self):
        tick = [0.0]
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=lambda: tick[0])
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_success()  # streak resets
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.available()

    def test_cooldown_then_half_open_probe(self):
        tick = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: tick[0])
        breaker.record_failure()
        assert not breaker.available()
        tick[0] = 5.1
        assert breaker.available()  # transitions to half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        tick = [0.0]
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=lambda: tick[0])
        for _ in range(3):
            breaker.record_failure()
        tick[0] = 5.1
        assert breaker.available()
        breaker.record_failure()  # the probe failed: open again immediately
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        tick[0] = 10.0  # cooldown restarted at 5.1, not yet elapsed
        assert not breaker.available()

    def test_validation_and_snapshot(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)
        snap = CircuitBreaker(threshold=2, cooldown=0.5).snapshot()
        assert snap == {
            "state": "closed",
            "consecutive_errors": 0,
            "threshold": 2,
            "cooldown_s": 0.5,
            "opens": 0,
        }


# ----------------------------------------------------------------------
# Batcher error paths (satellite: typed mid-chunk errors, never hangs)
# ----------------------------------------------------------------------
class TestBatcherFaultPaths:
    def test_mid_chunk_error_resolves_handles_typed_not_closed(self):
        plan = FaultPlan(0, [FaultRule("predict", "error", rate=1.0, count=1)])
        batcher = MicroBatcher(FaultyPredictor(StubPredictor(), plan), max_batch_size=4)
        handles = batcher.submit([make_request(i) for i in range(3)])
        (chunk,) = batcher.take_ready()
        with pytest.raises(FaultError):
            execute_chunk(batcher, chunk)
        for handle in handles:
            assert handle.done
            assert isinstance(handle.error, FaultError)
            assert not isinstance(handle.error, ServingClosedError)
            with pytest.raises(FaultError):
                handle.result()
        assert batcher.total_failed == 3
        # The batcher survives the poisoned chunk: the next submit runs fine
        # (the fault plan's budget is spent).
        [handle] = batcher.submit([make_request(9)])
        (chunk,) = batcher.take_ready()
        execute_chunk(batcher, chunk)
        np.testing.assert_allclose(
            handle.result()[0], expected_extrapolation(make_obs(9)), atol=1e-9
        )

    def test_expired_requests_swept_before_pop(self):
        tick = [0.0]
        batcher = MicroBatcher(StubPredictor(), clock=lambda: tick[0])
        [doomed] = batcher.submit([make_request(0, deadline=1.0)])
        [alive] = batcher.submit([make_request(1, deadline=50.0)])
        tick[0] = 2.0
        expired = batcher.expire_pending()
        assert expired == [doomed]
        assert isinstance(doomed.error, DeadlineExceededError)
        assert batcher.total_expired == 1
        assert batcher.pending_count == 1
        (chunk,) = batcher.take_ready()
        execute_chunk(batcher, chunk)
        assert alive.error is None
        # The executed batch collated without the expired row.
        assert alive.batch_size == 1

    def test_expired_rows_swept_out_of_a_popped_chunk(self):
        tick = [0.0]
        batcher = MicroBatcher(StubPredictor(), clock=lambda: tick[0])
        [doomed] = batcher.submit([make_request(0, deadline=1.0)])
        [alive] = batcher.submit([make_request(1)])
        (chunk,) = batcher.take_ready()
        tick[0] = 3.0  # deadline passes while the chunk waits for a worker
        execute_chunk(batcher, chunk)
        assert isinstance(doomed.error, DeadlineExceededError)
        assert "missed its deadline" in str(doomed.error)
        assert alive.error is None and alive.batch_size == 1


# ----------------------------------------------------------------------
# Served fault storms: typed errors, breakers, recovery
# ----------------------------------------------------------------------
class TestServedFaults:
    def test_mixed_replicas_one_crashing_one_serving(self):
        """A crashing worker slot fails its chunks typed; the healthy worker
        keeps answering replayable samples; the server survives all of it
        and still shuts the wrapped slot's child down."""
        plan = FaultPlan(1, [FaultRule("predict", "error", rate=1.0)])
        server = AsyncServingServer(
            max_in_flight=64, seed=7, breaker_threshold=10_000
        )
        server.add_model(
            "m",
            WorkerSpec(
                factory="repro.serve.workers:seeded_predictor", kwargs={"seed": 0}
            ),
            workers=2,
            num_samples=2,
            max_batch_size=1,
            worker_chunk_timeout=15.0,
        )
        slot = server._models["m"].replicas[0]
        slot.predictor = FaultyPredictor(slot.predictor, plan)
        thread, host, port = serve(server)
        served: list = []
        typed_errors: list = []
        lock = threading.Lock()
        try:

            def worker(seed: int) -> None:
                obs = make_obs(seed)
                with ServingClient.connect(
                    host, port, binary=True, dtype="f8"
                ) as client:
                    for _ in range(6):
                        try:
                            samples, meta = client.predict("m", obs, return_meta=True)
                        except RemoteServingError as error:
                            assert error.code == protocol.E_INTERNAL
                            assert "FaultError" in str(error)
                            with lock:
                                typed_errors.append(error)
                        else:
                            with lock:
                                served.append((obs, samples, meta))

            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads), "a client hung"
            assert len(served) + len(typed_errors) == 24  # every request resolved
            assert served and typed_errors
            # And the pool still serves, the wrapped slot still reporting
            # its process:
            with ServingClient.connect(host, port) as client:
                assert client.health()["status"] == "ok"
                slots = client.stats()["models"]["m"]["replicas"]
            assert all(s["worker"]["alive"] for s in slots)
        finally:
            thread.stop()
        assert all(p.closed for p in server._worker_pools[0].predictors)
        reference = seeded_predictor(seed=0)
        for obs, samples, meta in served:  # max_batch_size=1: one row each
            batch = collate_requests([PredictRequest(request_id=0, obs=obs)])
            rng = np.random.default_rng((7, meta["batch_id"]))
            np.testing.assert_allclose(
                samples, reference.predict_world(batch, 2, rng)[:, 0], atol=1e-6
            )

    def test_all_breakers_open_fast_fails_unavailable_then_recovers(self):
        plan = FaultPlan(2, [FaultRule("predict", "error", rate=1.0, count=2)])
        server = AsyncServingServer(breaker_threshold=2, breaker_cooldown=0.2)
        server.add_model(
            "stub", FaultyPredictor(StubPredictor(), plan), max_batch_size=1
        )
        thread, host, port = serve(server)
        try:
            obs = make_obs(4)
            with ServingClient.connect(host, port) as client:
                for _ in range(2):
                    with pytest.raises(RemoteServingError) as excinfo:
                        client.predict("stub", obs)
                    assert excinfo.value.code == protocol.E_INTERNAL
                # Threshold reached: the lone breaker is open, admission
                # fast-fails typed `unavailable` without queueing.
                with pytest.raises(RemoteServingError) as excinfo:
                    client.predict("stub", obs)
                assert excinfo.value.code == protocol.E_UNAVAILABLE
                breaker = client.stats()["models"]["stub"]["replicas"][0]["breaker"]
                assert breaker["state"] == "open"
                assert breaker["opens"] == 1
                # After the cooldown the half-open probe meets a healed
                # replica (the fault budget is spent) and closes the breaker.
                time.sleep(0.3)
                samples = client.predict("stub", obs)
                np.testing.assert_allclose(
                    samples[0], expected_extrapolation(obs), atol=1e-9
                )
                breaker = client.stats()["models"]["stub"]["replicas"][0]["breaker"]
                assert breaker["state"] == "closed"
                metrics = client.metrics()["metrics"]
                assert metrics["counters"]['serve_breaker_opened{model=stub}'] == 1
        finally:
            thread.stop()

    def test_unavailable_is_retried_until_recovery(self):
        """A RetryPolicy treats `unavailable` as transient: with a backoff
        spanning the breaker cooldown, the caller never sees the outage."""
        plan = FaultPlan(3, [FaultRule("predict", "error", rate=1.0, count=1)])
        server = AsyncServingServer(breaker_threshold=1, breaker_cooldown=0.05)
        server.add_model(
            "stub", FaultyPredictor(StubPredictor(), plan), max_batch_size=1
        )
        thread, host, port = serve(server)
        try:
            obs = make_obs(5)
            with ServingClient.connect(
                host,
                port,
                retry=RetryPolicy(retries=6, base_delay=0.05, jitter=0.0),
            ) as client:
                with pytest.raises(RemoteServingError):
                    client.predict("stub", obs)  # trips the breaker (internal)
                samples = client.predict("stub", obs)  # unavailable -> retried
                np.testing.assert_allclose(
                    samples[0], expected_extrapolation(obs), atol=1e-9
                )
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Deadlines on the wire
# ----------------------------------------------------------------------
class TestServedDeadlines:
    def test_queued_request_expires_with_typed_error_before_inference(self):
        """A full chunk behind a busy slot waits in the queue, where the
        drain timer sweeps it at its deadline."""
        server = AsyncServingServer()
        slow = StubPredictor(delay=0.8)
        server.add_model("stub", slow, max_batch_size=1)
        thread, host, port = serve(server)
        try:

            def occupy() -> None:
                with ServingClient.connect(host, port) as client:
                    client.predict("stub", make_obs(0), deadline_ms=0)

            blocker = threading.Thread(target=occupy)
            blocker.start()
            time.sleep(0.1)  # the slow flush now owns the only replica
            started = time.monotonic()
            with ServingClient.connect(host, port) as client:
                with pytest.raises(RemoteServingError) as excinfo:
                    client.predict("stub", make_obs(1), deadline_ms=50)
            elapsed = time.monotonic() - started
            blocker.join(timeout=10.0)
            assert excinfo.value.code == protocol.E_DEADLINE_EXCEEDED
            # max_batch_size=1 makes the request a full chunk, and it still
            # waits in the queue, not on the busy slot: the timer answers it
            # at its 50 ms deadline, not when the 0.8 s forward ends.
            assert 0.05 <= elapsed < 0.25
            with ServingClient.connect(host, port) as client:
                stats = client.stats()["models"]["stub"]
                assert stats["total_expired"] == 1
                metrics = client.metrics()["metrics"]
                assert (
                    metrics["counters"]["serve_deadline_expired{model=stub}"] == 1
                )
        finally:
            thread.stop()

    @pytest.mark.parametrize("bad", [0, -5, "soon", True])
    def test_invalid_deadline_ms_is_bad_request(self, bad):
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        try:
            with ServingClient.connect(host, port) as client:
                with pytest.raises(RemoteServingError) as excinfo:
                    client.call(
                        "predict",
                        model="stub",
                        obs=make_obs(0).tolist(),
                        deadline_ms=bad,
                    )
            assert excinfo.value.code == protocol.E_BAD_REQUEST
        finally:
            thread.stop()

    def test_generous_deadline_is_harmless(self):
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        try:
            obs = make_obs(6)
            with ServingClient.connect(host, port, timeout=5.0) as client:
                samples = client.predict("stub", obs)  # deadline_ms=5000 wired
            np.testing.assert_allclose(
                samples[0], expected_extrapolation(obs), atol=1e-9
            )
        finally:
            thread.stop()


class TestClientDeadlineMapping:
    def capture_fields(self, client):
        captured = {}

        def scripted(op, fields):
            captured.update(fields)
            return {"samples": [[[0.0, 0.0]]], "meta": {}, "agents": {}}

        client._call_once = scripted
        return captured

    def make_client(self, timeout):
        import socket

        a, b = socket.socketpair()
        b.close()
        return ServingClient(a, timeout=timeout)

    def test_timeout_maps_to_wire_deadline_by_default(self):
        with self.make_client(timeout=2.5) as client:
            fields = self.capture_fields(client)
            client.predict("m", make_obs(0))
        assert fields["deadline_ms"] == 2500.0

    def test_explicit_deadline_overrides_and_zero_disables(self):
        with self.make_client(timeout=2.5) as client:
            fields = self.capture_fields(client)
            client.predict("m", make_obs(0), deadline_ms=150)
            assert fields["deadline_ms"] == 150.0
            fields.clear()
            client.predict("m", make_obs(0), deadline_ms=0)
        assert "deadline_ms" not in fields

    def test_no_timeout_means_no_deadline(self):
        with self.make_client(timeout=None) as client:
            fields = self.capture_fields(client)
            client.predict_frame("m", 7)
        assert "deadline_ms" not in fields


# ----------------------------------------------------------------------
# Retry total-time budget (satellite)
# ----------------------------------------------------------------------
class TestRetryBudget:
    def drive(self, client, outcomes):
        sleeps: list[float] = []
        client._sleep = sleeps.append

        def scripted(op, fields):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._call_once = scripted
        return sleeps

    def make_client(self, retry, timeout=None):
        import socket

        a, b = socket.socketpair()
        b.close()
        return ServingClient(a, retry=retry, timeout=timeout)

    def test_max_elapsed_stops_backoff_stacking(self):
        policy = RetryPolicy(
            retries=10, base_delay=0.4, multiplier=2.0, jitter=0.0, max_elapsed=1.0
        )
        with self.make_client(policy) as client:
            sleeps = self.drive(
                client,
                [RemoteServingError(protocol.E_OVERLOADED, "busy") for _ in range(11)],
            )
            with pytest.raises(RemoteServingError):
                client.call("predict")
        # 0.4 + 0.8 would blow the 1.0s budget at the second sleep: only the
        # first retry is taken even though 10 were allowed.
        assert sleeps == [0.4]

    def test_budget_defaults_to_client_timeout(self):
        policy = RetryPolicy(retries=10, base_delay=0.3, multiplier=1.0, jitter=0.0)
        with self.make_client(policy, timeout=1.0) as client:
            sleeps = self.drive(
                client,
                [RemoteServingError(protocol.E_OVERLOADED, "busy") for _ in range(11)],
            )
            with pytest.raises(RemoteServingError):
                client.call("predict")
        assert sleeps == [0.3, 0.3, 0.3]  # 4th sleep would exceed 1.0s

    def test_no_timeout_no_budget(self):
        policy = RetryPolicy(
            retries=3, base_delay=10.0, max_delay=10.0, jitter=0.0
        )
        with self.make_client(policy, timeout=None) as client:
            sleeps = self.drive(
                client,
                [
                    RemoteServingError(protocol.E_OVERLOADED, "busy"),
                    {"fine": True},
                ],
            )
            assert client.call("predict") == {"fine": True}
        assert sleeps == [10.0]

    def test_invalid_max_elapsed_rejected(self):
        with pytest.raises(ValueError, match="max_elapsed"):
            RetryPolicy(max_elapsed=0.0)


# ----------------------------------------------------------------------
# Zero-downtime rollout
# ----------------------------------------------------------------------
class TestModelSwap:
    def test_swap_promotes_atomically_at_the_cutover_batch(self):
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor(scale=1.0), max_batch_size=1)
        thread, host, port = serve(server)
        try:
            obs = make_obs(7)
            with ServingClient.connect(host, port) as client:
                before, meta_before = client.predict("stub", obs, return_meta=True)
                np.testing.assert_allclose(
                    before[0], expected_extrapolation(obs, scale=1.0), atol=1e-9
                )
                result = thread.swap_model("stub", lambda: StubPredictor(scale=2.0))
                assert result["replicas"] == 1
                assert result["cutover_batch_id"] > meta_before["batch_id"]
                after, meta_after = client.predict("stub", obs, return_meta=True)
                np.testing.assert_allclose(
                    after[0], expected_extrapolation(obs, scale=2.0), atol=1e-9
                )
                assert meta_after["batch_id"] >= result["cutover_batch_id"]
                stats = client.stats()
                assert stats["server"]["model_swaps"] == 1
                (slot,) = stats["models"]["stub"]["replicas"]
                # The new slot starts with a fresh, closed breaker.
                assert slot["breaker"]["state"] == "closed"
        finally:
            thread.stop()

    def test_swap_under_load_drops_no_requests(self):
        server = AsyncServingServer(max_in_flight=128)
        server.add_model("stub", StubPredictor(scale=1.0), max_batch_size=4)
        thread, host, port = serve(server)
        try:
            errors: list[Exception] = []
            checked = [0]
            cutover = [None]
            lock = threading.Lock()

            def load(seed: int) -> None:
                obs = make_obs(seed)
                want_old = expected_extrapolation(obs, scale=1.0)
                want_new = expected_extrapolation(obs, scale=2.0)
                try:
                    with ServingClient.connect(host, port) as client:
                        for _ in range(40):
                            samples, meta = client.predict(
                                "stub", obs, return_meta=True
                            )
                            # Until the swap lands, cutover is unknown: both
                            # oracles are admissible; afterwards the batch id
                            # decides which one must match.
                            old_ok = np.allclose(samples[0], want_old, atol=1e-9)
                            new_ok = np.allclose(samples[0], want_new, atol=1e-9)
                            cut = cutover[0]
                            if cut is None:
                                assert old_ok or new_ok
                            elif meta["batch_id"] >= cut:
                                assert new_ok
                            else:
                                assert old_ok
                            with lock:
                                checked[0] += 1
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=load, args=(seed,)) for seed in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)  # mid-load
            result = thread.swap_model("stub", lambda: StubPredictor(scale=2.0))
            cutover[0] = result["cutover_batch_id"]
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads), "a client hung"
            assert errors == []
            assert checked[0] == 160  # zero dropped requests
        finally:
            thread.stop()

    def test_swap_to_another_obs_len_rewarms_open_connections(self):
        """A live connection's windows follow the swapped-in predictor's
        ``obs_len``: its agents re-warm over 6 frames, then frame predicts
        send 6-point windows."""

        class ShortStub(StubPredictor):
            obs_len = 6

            def __init__(self) -> None:
                super().__init__()
                self.widths: list[int] = []

            def predict_world(self, batch, num_samples, rng):
                self.widths.append(batch.obs.shape[1])
                return super().predict_world(batch, num_samples, rng)

        short = ShortStub()
        tracks = {"a": make_obs(1, obs_len=14), "b": make_obs(2, obs_len=14)}
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        try:
            with ServingClient.connect(host, port) as client:
                for frame in range(8):
                    client.observe("stub", frame, {a: xy[frame] for a, xy in tracks.items()})
                assert set(client.predict_frame("stub", 7)) == {"a", "b"}
                thread.swap_model("stub", lambda: short)
                ready = [
                    client.observe(
                        "stub", frame, {a: xy[frame] for a, xy in tracks.items()}
                    )["ready"]
                    for frame in range(8, 14)
                ]
                assert ready == [[]] * 5 + [["a", "b"]]
                after = client.predict_frame("stub", 13)
            assert short.widths == [6]
            for agent, track in tracks.items():
                np.testing.assert_allclose(
                    after[agent][0], expected_extrapolation(track[8:14]), atol=1e-9
                )
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Transport chaos (connection drops via the proxy)
# ----------------------------------------------------------------------
class TestChaosProxy:
    def test_dropped_response_poisons_an_unguarded_client(self):
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        plan = FaultPlan(5, [FaultRule("response", "drop", rate=1.0, count=1)])
        try:
            with ChaosProxy((host, port), plan) as proxy:
                phost, pport = proxy.address
                with ServingClient.connect(phost, pport, timeout=5.0) as client:
                    with pytest.raises((protocol.ProtocolError, OSError)):
                        client.health()
                    assert client.poisoned
            assert proxy.dropped == 1
        finally:
            thread.stop()

    def test_reconnecting_retry_survives_connection_drops(self):
        server = AsyncServingServer()
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        plan = FaultPlan(6, [FaultRule("response", "drop", rate=1.0, count=2)])
        try:
            with ChaosProxy((host, port), plan) as proxy:
                phost, pport = proxy.address
                obs = make_obs(8)
                with ServingClient.connect(
                    phost,
                    pport,
                    timeout=5.0,
                    retry=RetryPolicy(retries=5, base_delay=0.01, jitter=0.0),
                ) as client:
                    samples = client.predict("stub", obs)
                np.testing.assert_allclose(
                    samples[0], expected_extrapolation(obs), atol=1e-9
                )
                assert proxy.connections >= 3  # two drops, two reconnects
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Shutdown abandons nothing silently (satellite)
# ----------------------------------------------------------------------
class TestStopCancelsStragglers:
    def test_stop_cancels_and_counts_abandoned_tasks(self, capsys):
        server = AsyncServingServer(stop_timeout=0.05)
        server.add_model("stub", StubPredictor())
        thread, host, port = serve(server)
        client = ServingClient.connect(host, port)
        assert client.health()["status"] == "ok"

        async def plant() -> None:
            conn = next(iter(server._connections))
            task = server._loop.create_task(asyncio.sleep(60))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)

        asyncio.run_coroutine_threadsafe(plant(), thread._loop).result(5.0)
        started = time.monotonic()
        thread.stop()
        client.close()
        # The wedged task was cancelled (stop returned promptly), counted,
        # and logged — not silently awaited for 60s or leaked past shutdown.
        assert time.monotonic() - started < 10.0
        assert server.abandoned_tasks == 1
        assert "stop_abandoned_tasks" in capsys.readouterr().err
