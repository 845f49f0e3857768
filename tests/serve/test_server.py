"""Async serving front-end tests: round trips, isolation, backpressure.

Everything runs against a real ``AsyncServingServer`` on a loopback socket
(event loop hosted by ``ServerThread``), driven by the blocking
``ServingClient`` — the same topology as the benchmark gate and the demo.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AsyncServingServer,
    RemoteServingError,
    ServerThread,
    ServingClient,
)
from repro.serve import protocol


class StubPredictor:
    """Deterministic row-wise predictor (velocity extrapolation)."""

    pred_len = 12
    obs_len = 8

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.batch_sizes: list[int] = []

    def predict_world(self, batch, num_samples, rng):
        if self.delay:
            time.sleep(self.delay)
        self.batch_sizes.append(batch.size)
        velocity = batch.obs[:, -1] - batch.obs[:, -2]
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


def expected_extrapolation(obs: np.ndarray, pred_len: int = 12) -> np.ndarray:
    velocity = obs[-1] - obs[-2]
    steps = np.arange(1, pred_len + 1)[:, None]
    return obs[-1][None, :] + velocity[None, :] * steps


def make_obs(seed: int = 0, obs_len: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=(obs_len, 2)), axis=0)


@pytest.fixture
def running(request):
    """Start a server around the given (predictor-config) marker, yield
    (server, host, port, predictor)."""
    marker = request.node.get_closest_marker("server_config")
    kwargs = dict(marker.kwargs) if marker else {}
    model_kwargs = kwargs.pop("model", {})
    predictor = kwargs.pop("predictor", None) or StubPredictor()
    server = AsyncServingServer(**{"max_in_flight": 64, **kwargs})
    server.add_model("stub", predictor, **model_kwargs)
    thread = ServerThread(server)
    host, port = thread.start()
    yield server, host, port, predictor
    thread.stop()


class TestRoundTrips:
    def test_health(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        assert health["models"] == ["stub"]
        assert health["uptime_s"] >= 0

    def test_explicit_predict_matches_model(self, running):
        _, host, port, _ = running
        obs = make_obs(1)
        with ServingClient.connect(host, port) as client:
            samples, meta = client.predict("stub", obs, return_meta=True)
        assert samples.shape == (1, 12, 2)
        np.testing.assert_allclose(samples[0], expected_extrapolation(obs), atol=1e-9)
        assert meta["row"] < meta["batch_size"]
        assert meta["batch_id"] >= 0

    def test_observe_then_predict_frame(self, running):
        _, host, port, _ = running
        tracks = {"a": make_obs(2), "b": make_obs(3) + 5.0}
        with ServingClient.connect(host, port) as client:
            for frame in range(8):
                result = client.observe(
                    "stub", frame, {k: obs[frame] for k, obs in tracks.items()}
                )
            assert result["agents"] == 2
            assert result["ready"] == ["a", "b"]
            agents = client.predict_frame("stub", 7)
        assert set(agents) == {"a", "b"}
        for agent_id, obs in tracks.items():
            assert agents[agent_id].shape == (1, 12, 2)
            np.testing.assert_allclose(
                agents[agent_id][0], expected_extrapolation(obs), atol=1e-9
            )

    def test_observe_evicts_stale_windows(self, running):
        """Silence is eviction: ids not seen for stale_after * obs_len frames
        are dropped on the next observe, bounding per-connection state."""
        server, host, port, _ = running
        horizon = server.stale_after * 8  # stale_after windows of obs_len 8
        with ServingClient.connect(host, port) as client:
            client.observe("stub", 0, {"ghost": (0.0, 0.0)})
            result = client.observe("stub", horizon, {"live": (1.0, 1.0)})
            assert result["dropped"] == 0  # ghost is exactly at the horizon
            result = client.observe("stub", horizon + 1, {"live": (1.0, 1.1)})
            assert result["dropped"] == 1
            assert result["agents"] == 1  # only "live" remains

    def test_predict_frame_with_no_ready_agents(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.observe("stub", 0, {"a": (0.0, 0.0)})  # partial window
            assert client.predict_frame("stub", 0) == {}

    def test_stats_counters(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.predict("stub", make_obs(4))
            stats = client.stats()
        assert stats["server"]["accepted"] == 1
        assert stats["server"]["in_flight"] == 0
        assert stats["server"]["in_flight_peak"] >= 1
        model = stats["models"]["stub"]
        assert model["total_completed"] == 1
        assert model["latency"]["count"] == 1
        assert model["latency"]["mean_s"] > 0


class TestIsolation:
    def test_same_agent_ids_on_two_connections_do_not_collide(self, running):
        """Streaming windows are per connection: identical agent ids with
        different trajectories must yield each client its own prediction."""
        _, host, port, _ = running
        track_a, track_b = make_obs(10), make_obs(11) + 40.0
        with ServingClient.connect(host, port) as one, ServingClient.connect(
            host, port
        ) as two:
            for frame in range(8):
                one.observe("stub", frame, {"agent": track_a[frame]})
                two.observe("stub", frame, {"agent": track_b[frame]})
            served_one = one.predict_frame("stub", 7)["agent"]
            served_two = two.predict_frame("stub", 7)["agent"]
        np.testing.assert_allclose(
            served_one[0], expected_extrapolation(track_a), atol=1e-9
        )
        np.testing.assert_allclose(
            served_two[0], expected_extrapolation(track_b), atol=1e-9
        )
        assert not np.allclose(served_one, served_two)


class TestErrors:
    def test_unknown_model(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("nope", make_obs())
        assert excinfo.value.code == protocol.E_UNKNOWN_MODEL

    def test_bad_window_length(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("stub", make_obs(obs_len=5))
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_malformed_predict(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.call("predict", model="stub")  # neither obs nor frame
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_unknown_operation(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.call("train", model="stub")
        assert excinfo.value.code == protocol.E_UNKNOWN_OP

    def test_version_mismatch(self, running):
        _, host, port, _ = running
        import socket

        with socket.create_connection((host, port)) as sock:
            sock.sendall(protocol.encode_frame({"v": 99, "id": 1, "op": "health"}))
            response = protocol.read_frame_sync(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_UNSUPPORTED_VERSION
        assert response["id"] == 1

    def test_internal_error_is_typed(self, running):
        server, host, port, predictor = running

        def explode(batch, num_samples, rng):
            raise RuntimeError("model melted")

        predictor.predict_world = explode
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("stub", make_obs())
        assert excinfo.value.code == protocol.E_INTERNAL
        assert "model melted" in str(excinfo.value)

    @pytest.mark.server_config(breaker_threshold=1, breaker_cooldown=60.0)
    def test_refused_frame_queues_none_of_its_rows(self, running):
        """A frame-mode predict refused at submit leaves none of its rows
        queued, and ``accepted`` is rolled back by all of them."""
        _, host, port, predictor = running

        def explode(batch, num_samples, rng):
            raise RuntimeError("model melted")

        predictor.predict_world = explode
        tracks = {name: make_obs(seed) + 10.0 * seed for seed, name in enumerate("abc")}
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError):
                client.predict("stub", make_obs())  # opens the only breaker
            for frame in range(8):
                client.observe(
                    "stub", frame, {k: obs[frame] for k, obs in tracks.items()}
                )
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict_frame("stub", 7)
            stats = client.stats()
        assert excinfo.value.code == protocol.E_UNAVAILABLE
        assert stats["server"]["accepted"] == 1  # the explicit predict only
        assert stats["server"]["in_flight"] == 0
        model = stats["models"]["stub"]
        assert (model["pending"], model["total_requests"]) == (0, 1)


class TestBackpressure:
    @pytest.mark.server_config(
        max_in_flight=2, predictor=StubPredictor(delay=0.25), model={"max_wait": 0.0}
    )
    def test_overload_fast_fails(self, running):
        """With the cap at 2 and a slow model, a third concurrent predict is
        rejected immediately with ``overloaded`` instead of queueing."""
        _, host, port, _ = running
        results: dict[str, object] = {}

        def slow_call(name: str) -> None:
            with ServingClient.connect(host, port) as client:
                try:
                    results[name] = client.predict("stub", make_obs())
                except RemoteServingError as error:
                    results[name] = error

        threads = [
            threading.Thread(target=slow_call, args=(f"c{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # both slow predictions are now in flight
        start = time.perf_counter()
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("stub", make_obs())
        fast_fail = time.perf_counter() - start
        for thread in threads:
            thread.join()
        assert excinfo.value.code == protocol.E_OVERLOADED
        assert fast_fail < 0.2  # rejected without waiting for the slow model
        assert all(isinstance(v, np.ndarray) for v in results.values())

    @pytest.mark.server_config(model={"max_wait": 30.0, "max_batch_size": 64})
    def test_flush_releases_waiting_partial_batch(self, running):
        """With a huge max_wait the only way a partial batch runs is an
        explicit ``flush`` — the max-wait timer lives on the server."""
        _, host, port, _ = running
        received = {}

        def waiting_predict() -> None:
            with ServingClient.connect(host, port) as client:
                received["samples"] = client.predict("stub", make_obs())

        thread = threading.Thread(target=waiting_predict)
        thread.start()
        time.sleep(0.15)
        assert "samples" not in received  # still coalescing
        with ServingClient.connect(host, port) as client:
            assert client.flush("stub") == 1
        thread.join(timeout=5.0)
        assert received["samples"].shape == (1, 12, 2)

    @pytest.mark.server_config(
        predictor=StubPredictor(delay=0.3),
        model={"max_wait": 30.0, "max_batch_size": 64},
    )
    def test_flush_releases_a_request_queued_behind_a_busy_slot(self, running):
        """``flush`` counts the queued request it releases, and the request
        runs as soon as the busy slot frees, not after ``max_wait``."""
        _, host, port, _ = running
        answered: dict[str, float] = {}

        def waiting_predict(name: str, seed: int) -> None:
            with ServingClient.connect(host, port) as client:
                client.predict("stub", make_obs(seed))
                answered[name] = time.perf_counter()

        first = threading.Thread(target=waiting_predict, args=("first", 0))
        second = threading.Thread(target=waiting_predict, args=("second", 1))
        with ServingClient.connect(host, port) as client:
            first.start()
            time.sleep(0.1)
            assert client.flush("stub") == 1  # the slot takes the 0.3 s forward
            second.start()
            time.sleep(0.1)  # the second request now waits behind it
            flushed_at = time.perf_counter()
            assert client.flush("stub") == 1
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert answered["second"] - flushed_at < 1.0

    @pytest.mark.server_config(
        predictor=StubPredictor(delay=0.05), model={"max_wait": 0.0}
    )
    def test_concurrent_clients_coalesce(self, running):
        """Closed-loop concurrent clients must produce multi-row batches
        (adaptive batching under backpressure), not a convoy of singles."""
        _, host, port, predictor = running
        num_clients, per_client = 6, 6

        def run_client(seed: int) -> None:
            with ServingClient.connect(host, port) as client:
                for i in range(per_client):
                    client.predict("stub", make_obs(seed * 100 + i))

        threads = [
            threading.Thread(target=run_client, args=(c,)) for c in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(predictor.batch_sizes) == num_clients * per_client
        assert max(predictor.batch_sizes) > 1  # genuine coalescing happened


class FailFirstPredictor(StubPredictor):
    """Its first ``failures`` forwards run ``delay`` seconds and then raise."""

    def __init__(self, delay: float, failures: int = 1) -> None:
        super().__init__()
        self.first_delay = delay
        self.failures = failures
        self.calls = 0

    def predict_world(self, batch, num_samples, rng):
        self.calls += 1
        if self.calls <= self.failures:
            time.sleep(self.first_delay)
            raise RuntimeError("first forward fails")
        return super().predict_world(batch, num_samples, rng)


class TestDrainTimer:
    """One timer per model, armed only while queued work waits on the clock."""

    @pytest.mark.server_config(model={"max_wait": 0.0})
    def test_idle_server_arms_no_timer(self, running):
        server, host, port, _ = running
        worker = server._models["stub"]
        assert worker._timer is None
        with ServingClient.connect(host, port) as client:
            client.predict("stub", make_obs(1))
        assert worker._timer is None

    @pytest.mark.server_config(model={"max_wait": 0.05})
    def test_lone_request_is_answered_at_max_wait(self, running):
        server, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.health()
            started = time.perf_counter()
            _, meta = client.predict("stub", make_obs(2), trace=True)
            elapsed = time.perf_counter() - started
        queue_wait = meta["trace"]["stages"]["queue_wait"]
        # Never before max_wait; the upper bound leaves room for a busy host
        # (with neither timer nor poll the request would never be answered).
        assert 0.05 <= queue_wait < 0.05 + 0.1
        assert elapsed >= 0.05
        assert server._models["stub"]._timer is None  # nothing left queued

    @pytest.mark.server_config(predictor=StubPredictor(delay=0.4))
    def test_request_behind_a_busy_slot_expires_at_its_deadline(self, running):
        _, host, port, _ = running

        def occupy() -> None:
            with ServingClient.connect(host, port) as client:
                client.predict("stub", make_obs(0), deadline_ms=0)

        blocker = threading.Thread(target=occupy)
        blocker.start()
        time.sleep(0.1)  # the slow forward now holds the only slot
        with ServingClient.connect(host, port) as client:
            started = time.perf_counter()
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("stub", make_obs(1), deadline_ms=50)
            elapsed = time.perf_counter() - started
        blocker.join(timeout=10.0)
        assert excinfo.value.code == protocol.E_DEADLINE_EXCEEDED
        # Swept out of the queue at its deadline, not when the slow forward
        # frees the slot (~0.3 s after this request was sent).
        assert 0.05 <= elapsed < 0.25

    @pytest.mark.server_config(
        predictor=FailFirstPredictor(delay=0.2),
        breaker_threshold=1,
        breaker_cooldown=0.2,
    )
    def test_work_queued_behind_an_open_breaker_runs_after_its_cooldown(
        self, running
    ):
        """The failing chunk opens the only breaker with a request queued
        behind it; nothing else arrives, so the timer alone must pop it as
        the half-open probe once the cooldown ends."""
        _, host, port, _ = running
        outcome: dict[str, object] = {}

        def failing() -> None:
            with ServingClient.connect(host, port) as client:
                try:
                    client.predict("stub", make_obs(0), deadline_ms=0)
                except RemoteServingError as error:
                    outcome["first"] = error.code

        first = threading.Thread(target=failing)
        first.start()
        time.sleep(0.1)  # the failing forward holds the slot
        obs = make_obs(1)
        with ServingClient.connect(host, port, timeout=5.0) as client:
            started = time.perf_counter()
            samples = client.predict("stub", obs, deadline_ms=0)
            elapsed = time.perf_counter() - started
        first.join(timeout=10.0)
        assert outcome["first"] == protocol.E_INTERNAL
        np.testing.assert_allclose(samples[0], expected_extrapolation(obs), atol=1e-9)
        # Queued at ~0.1 s, breaker opened at ~0.2 s, probe at ~0.4 s.
        assert 0.25 <= elapsed < 1.0

    @pytest.mark.server_config(
        predictor=FailFirstPredictor(delay=0.2),
        breaker_threshold=1,
        breaker_cooldown=0.2,
        model={"max_batch_size": 1},
    )
    def test_full_chunk_queued_behind_an_open_breaker_waits_for_the_probe(
        self, running
    ):
        """With max_batch_size=1 the queued request is a full chunk.  It
        waits in the queue too, and runs as the half-open probe after the
        cooldown, never on the slot the moment its breaker opens."""
        _, host, port, _ = running
        outcome: dict[str, object] = {}

        def failing() -> None:
            with ServingClient.connect(host, port) as client:
                try:
                    client.predict("stub", make_obs(0), deadline_ms=0)
                except RemoteServingError as error:
                    outcome["first"] = error.code

        first = threading.Thread(target=failing)
        first.start()
        time.sleep(0.1)  # the failing forward holds the slot
        obs = make_obs(1)
        with ServingClient.connect(host, port, timeout=5.0) as client:
            started = time.perf_counter()
            samples = client.predict("stub", obs, deadline_ms=0)
            elapsed = time.perf_counter() - started
        first.join(timeout=10.0)
        assert outcome["first"] == protocol.E_INTERNAL
        np.testing.assert_allclose(samples[0], expected_extrapolation(obs), atol=1e-9)
        # Queued at ~0.1 s, breaker opened at ~0.2 s, probe at ~0.4 s.
        assert 0.25 <= elapsed < 1.0

    @pytest.mark.server_config(
        predictor=FailFirstPredictor(delay=0.3, failures=2),
        breaker_threshold=1,
        breaker_cooldown=0.3,
        model={"max_batch_size": 1},
    )
    def test_full_chunk_behind_a_failed_probe_waits_for_the_next_probe(
        self, running
    ):
        """A full chunk queued behind a half-open probe that fails waits for
        the next probe (or its deadline) instead of failing ``unavailable``;
        admission alone answers new work ``unavailable``."""
        _, host, port, _ = running
        codes: list[str] = []

        def failing() -> None:
            with ServingClient.connect(host, port) as client:
                try:
                    client.predict("stub", make_obs(0), deadline_ms=0)
                except RemoteServingError as error:
                    codes.append(error.code)

        started = time.perf_counter()
        first = threading.Thread(target=failing)
        first.start()  # fails at ~0.3 s: the breaker is open until ~0.6 s
        time.sleep(0.75)
        probe = threading.Thread(target=failing)
        probe.start()  # the half-open probe, failing at ~1.05 s
        time.sleep(0.15)
        obs = make_obs(1)
        with ServingClient.connect(host, port, timeout=5.0) as client:
            samples = client.predict("stub", obs, deadline_ms=0)
        elapsed = time.perf_counter() - started
        first.join(timeout=10.0)
        probe.join(timeout=10.0)
        assert codes == [protocol.E_INTERNAL] * 2
        np.testing.assert_allclose(samples[0], expected_extrapolation(obs), atol=1e-9)
        # The next probe starts when the restarted cooldown ends, ~1.35 s.
        assert elapsed >= 1.2


class TestRealModelEquivalence:
    def test_served_predictions_match_offline_replay(
        self, trained_vanilla, request_factory
    ):
        """Network-served samples equal the offline ``predict_samples`` path
        on the identically-composed batch, recomposed from the response meta
        and the per-flush RNG derivation (the bench_server gate, in-suite)."""
        from repro.serve import Predictor, collate_requests

        predictor = Predictor(trained_vanilla)
        seed, num_samples = 42, 2
        server = AsyncServingServer(max_in_flight=64, seed=seed)
        server.add_model("vanilla", predictor, num_samples=num_samples)
        with ServerThread(server) as thread:
            host, port = server.address
            sent = []
            with ServingClient.connect(host, port) as client:
                for i in range(6):
                    request = request_factory(i, num_neighbours=i % 3)
                    samples, meta = client.predict(
                        "vanilla",
                        request.obs,
                        neighbours=request.neighbours,
                        return_meta=True,
                    )
                    sent.append((request, samples, meta))
        # Recompose each served batch offline, in row order.
        by_batch: dict[int, list] = {}
        for request, samples, meta in sent:
            by_batch.setdefault(meta["batch_id"], []).append((request, samples, meta))
        for batch_id, rows in by_batch.items():
            rows.sort(key=lambda entry: entry[2]["row"])
            assert len(rows) == rows[0][2]["batch_size"]  # this client sent all rows
            batch = collate_requests(
                [request for request, _, _ in rows], pred_len=predictor.pred_len
            )
            offline = trained_vanilla.predict(
                batch, num_samples, np.random.default_rng((seed, batch_id))
            )
            offline_world = offline + batch.origins[None, :, None, :]
            for row, (_, served, _) in enumerate(rows):
                np.testing.assert_allclose(served, offline_world[:, row], atol=1e-6)

    def test_compiled_predictions_replay_offline(
        self, trained_vanilla, request_factory
    ):
        """The compiled fast path preserves the offline-replay invariant:
        samples served through planned execution recompose from
        ``(seed, batch_id)`` against the *eager* reference to 1e-6 — the
        ISSUE acceptance gate for serving-side compilation."""
        from repro.serve import Predictor, collate_requests

        predictor = Predictor(trained_vanilla, compile=True)
        seed, num_samples = 42, 2
        server = AsyncServingServer(max_in_flight=64, seed=seed)
        server.add_model("vanilla", predictor, num_samples=num_samples)
        with ServerThread(server):
            host, port = server.address
            sent = []
            with ServingClient.connect(host, port) as client:
                for i in range(8):
                    request = request_factory(i, num_neighbours=i % 3)
                    samples, meta = client.predict(
                        "vanilla",
                        request.obs,
                        neighbours=request.neighbours,
                        return_meta=True,
                    )
                    sent.append((request, samples, meta))
        stats = predictor.compile_stats()
        assert stats["broken"] is None, stats
        assert stats["plans"] > 0 and stats["fallbacks"] == 0, stats
        by_batch: dict[int, list] = {}
        for request, samples, meta in sent:
            by_batch.setdefault(meta["batch_id"], []).append((request, samples, meta))
        for batch_id, rows in by_batch.items():
            rows.sort(key=lambda entry: entry[2]["row"])
            batch = collate_requests(
                [request for request, _, _ in rows], pred_len=predictor.pred_len
            )
            # Eager reference replay — bypasses the plan cache on purpose.
            offline = trained_vanilla.predict(
                batch, num_samples, np.random.default_rng((seed, batch_id))
            )
            offline_world = offline + batch.origins[None, :, None, :]
            for row, (_, served, _) in enumerate(rows):
                np.testing.assert_allclose(served, offline_world[:, row], atol=1e-6)


class TestShutdown:
    @pytest.mark.server_config(model={"max_wait": 30.0, "max_batch_size": 64})
    def test_stop_terminates_waiting_clients(self, running):
        """Clients waiting on a never-flushed batch get ``shutting_down``
        instead of hanging (the PR-4 shutdown bugfix, observed on the wire)."""
        server, host, port, _ = running
        outcome = {}

        def waiting_predict() -> None:
            with ServingClient.connect(host, port) as client:
                try:
                    outcome["value"] = client.predict("stub", make_obs())
                except Exception as error:  # noqa: BLE001 - recorded for assert
                    outcome["value"] = error

        thread = threading.Thread(target=waiting_predict)
        thread.start()
        time.sleep(0.15)
        import asyncio

        asyncio.run_coroutine_threadsafe(
            server.stop(), server._loop
        ).result(timeout=10.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "client hung through server shutdown"
        assert isinstance(outcome["value"], RemoteServingError)
        assert outcome["value"].code == protocol.E_SHUTTING_DOWN


class TestFreeSlots:
    """Unit tests for a model's free-slot routing and its breaker gating."""

    @staticmethod
    def make_worker(count, cooldown=60.0):
        """A model's scheduling state over ``count`` stub slots, no server."""
        from repro.serve.server import CircuitBreaker, _ModelWorker, _Replica

        replicas = [
            _Replica(index, StubPredictor(), CircuitBreaker(1, cooldown))
            for index in range(count)
        ]
        return _ModelWorker(None, "stub", None, replicas), replicas

    def test_free_slots_lowest_index_first(self):
        worker, replicas = self.make_worker(3)
        assert worker.free() == replicas
        replicas[0].active = 1
        assert worker.free() == replicas[1:]

    def test_busy_slots_are_not_free(self):
        worker, replicas = self.make_worker(2)
        replicas[0].active = 1
        assert worker.free() == [replicas[1]]  # one slot still free
        replicas[1].active = 1
        assert worker.free() == []
        assert worker.any_available()  # busy is not broken

    def test_rejects_no_slots(self):
        from repro.serve.server import _ModelWorker

        with pytest.raises(ValueError, match="at least one"):
            _ModelWorker(None, "stub", None, [])

    def test_open_breaker_is_skipped_for_its_sibling(self):
        worker, replicas = self.make_worker(2)
        replicas[0].breaker.record_failure()  # threshold 1: opens
        assert worker.free() == [replicas[1]]
        replicas[1].active = 1  # the open slot is still not free
        assert worker.free() == []
        assert worker.any_available()

    def test_half_open_slot_takes_one_probe_at_a_time(self):
        from repro.serve.server import CircuitBreaker

        worker, replicas = self.make_worker(2, cooldown=0.0)
        replicas[1].active = 1
        replicas[0].breaker.record_failure()  # cooldown 0: half-open next
        assert worker.free() == [replicas[0]]
        probe = replicas[0]
        assert probe.breaker.state == CircuitBreaker.HALF_OPEN
        probe.active = 1  # the probe chunk is in flight
        assert worker.free() == []  # no second probe
        probe.active = 0
        probe.breaker.record_success()
        assert worker.free() == [replicas[0]]  # closed again
        assert probe.breaker.state == CircuitBreaker.CLOSED

    def test_all_breakers_open_leaves_nothing_to_pick(self):
        worker, replicas = self.make_worker(2)
        for replica in replicas:
            replica.breaker.record_failure()
        assert worker.free() == []
        assert not worker.any_available()


class TestReplicaServing:
    def test_empty_replica_list_rejected(self):
        server = AsyncServingServer()
        with pytest.raises(TypeError, match="WorkerSpec"):
            server.add_model("stub", [])

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_replica_list_rejected(self, kind):
        """One in-process predictor, or worker processes: no thread replicas."""
        server = AsyncServingServer()
        with pytest.raises(TypeError, match="one Predictor, or a WorkerSpec"):
            server.add_model("stub", kind([StubPredictor(), StubPredictor()]))

    @pytest.mark.server_config(model={"max_wait": 0.0})
    def test_stats_surface_replicas(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.predict("stub", make_obs(1))
            stats = client.stats()
        replicas = stats["models"]["stub"]["replicas"]
        assert len(replicas) == 1
        assert replicas[0]["completed"] == 1 and replicas[0]["active"] == 0
        assert replicas[0]["worker"] is None  # in-process slot
        # The flush thread pool is sized to the registered slots + 1.
        assert stats["server"]["workers"] == 2


class TestBinaryWire:
    def test_binary_predict_matches_json(self, running):
        _, host, port, _ = running
        obs = make_obs(5)
        with ServingClient.connect(host, port) as plain:
            expected = plain.predict("stub", obs)
            json_bytes = plain.last_response_bytes
        with ServingClient.connect(host, port, binary=True) as client:
            assert client.supports_binary()
            samples, meta = client.predict("stub", obs, return_meta=True)
            binary_bytes = client.last_response_bytes
        np.testing.assert_allclose(samples, expected, atol=1e-6)  # f4 tail
        assert meta["batch_size"] >= 1
        assert binary_bytes < json_bytes

    def test_binary_f8_is_bit_exact(self, running):
        _, host, port, _ = running
        obs = make_obs(6)
        neighbours = np.stack([make_obs(7), make_obs(8)])
        with ServingClient.connect(host, port) as plain:
            expected = plain.predict("stub", obs, neighbours=neighbours)
        with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
            samples = client.predict("stub", obs, neighbours=neighbours)
        np.testing.assert_array_equal(samples, expected)

    def test_binary_predict_frame(self, running):
        _, host, port, _ = running
        track = make_obs(9)
        with ServingClient.connect(host, port, binary=True) as client:
            for frame in range(8):
                client.observe("stub", frame, {"a": track[frame]})
            agents = client.predict_frame("stub", 7)
        np.testing.assert_allclose(
            agents["a"][0], expected_extrapolation(track), atol=1e-5
        )

    def test_bad_dtype_rejected(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.call(
                    "predict", model="stub", obs=make_obs().tolist(),
                    bin=True, dtype="f2",
                )
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_json_request_can_ask_for_binary_response(self, running):
        """`bin: true` is in-band: even a JSON-framed request opts in."""
        import socket

        _, host, port, _ = running
        with socket.create_connection((host, port)) as sock:
            message = protocol.request(
                "predict", 1, model="stub", obs=make_obs(3).tolist(), bin=True
            )
            sock.sendall(protocol.encode_frame(message))
            response = protocol.read_frame_sync(sock)
        assert response["ok"]
        assert isinstance(response["result"]["samples"], np.ndarray)
        assert response["result"]["samples"].dtype == np.float32


class TestV1Compatibility:
    """A protocol-v1 JSON-only client against the v2 server, end to end."""

    def test_v1_full_flow(self, running):
        """observe -> predict (explicit + frame) -> stats, all with v1
        envelopes and pure-JSON frames: the v2 server must serve the whole
        flow and answer with v1-stamped JSON frames."""
        import socket

        _, host, port, _ = running
        track = make_obs(12)

        def v1_call(sock, req_id, op, **fields):
            sock.sendall(
                protocol.encode_frame({"v": 1, "id": req_id, "op": op, **fields})
            )
            raw = protocol.read_frame_sync(sock)
            assert raw["v"] == 1, "response must echo the v1 envelope version"
            assert raw["id"] == req_id
            assert raw["ok"], raw.get("error")
            return raw["result"]

        with socket.create_connection((host, port)) as sock:
            health = v1_call(sock, 1, "health")
            assert health["status"] == "ok"
            assert 1 in health["protocols"]
            for frame in range(8):
                v1_call(
                    sock, 10 + frame, "observe", model="stub", frame=frame,
                    positions={"a": list(map(float, track[frame]))},
                )
            by_frame = v1_call(sock, 20, "predict", model="stub", frame=7)
            samples = np.asarray(by_frame["agents"]["a"]["samples"])
            np.testing.assert_allclose(
                samples[0], expected_extrapolation(track), atol=1e-9
            )
            explicit = v1_call(
                sock, 21, "predict", model="stub", obs=track.tolist()
            )
            assert isinstance(explicit["samples"], list)  # pure JSON payload
            stats = v1_call(sock, 22, "stats")
            assert stats["models"]["stub"]["total_completed"] == 2
