"""Observability end-to-end: trace meta, metrics op, error accounting.

Runs a real ``AsyncServingServer`` on a loopback socket (same topology as
``test_server.py``) and exercises the PR-7 telemetry surface: per-request
stage traces over both wire encodings, the ``metrics`` operation, the
replica error counters, and read-only ops during drain.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (
    AsyncServingServer,
    RemoteServingError,
    ServerThread,
    ServingClient,
    WorkerSpec,
)
from repro.serve import protocol

MODEL = "stub"
LATENCY_KEY = f"serve_latency_seconds{{model={MODEL}}}"
#: Stages every explicit predict must report (encode is server-side only).
EXPECTED_STAGES = {"admission", "queue_wait", "coalesce", "route", "inference"}


class StubPredictor:
    """Deterministic row-wise predictor (velocity extrapolation)."""

    pred_len = 12
    obs_len = 8

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.batch_sizes: list[int] = []

    def predict_world(self, batch, num_samples, rng):
        if self.fail:
            raise RuntimeError("model melted")
        self.batch_sizes.append(batch.size)
        velocity = batch.obs[:, -1] - batch.obs[:, -2]
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


def make_obs(seed: int = 0, obs_len: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=(obs_len, 2)), axis=0)


@pytest.fixture
def running(request):
    """(server, host, port, predictor) around the ``server_config`` marker."""
    marker = request.node.get_closest_marker("server_config")
    kwargs = dict(marker.kwargs) if marker else {}
    model_kwargs = kwargs.pop("model", {})
    predictor = kwargs.pop("predictor", None) or StubPredictor()
    server = AsyncServingServer(**{"max_in_flight": 64, **kwargs})
    server.add_model(MODEL, predictor, **model_kwargs)
    thread = ServerThread(server)
    host, port = thread.start()
    yield server, host, port, predictor
    thread.stop()


def assert_valid_trace(trace: dict) -> None:
    assert EXPECTED_STAGES.issubset(trace["stages"]), trace
    assert all(s >= 0.0 for s in trace["stages"].values()), trace
    assert trace["total_s"] > 0.0
    # The stages are a decomposition of the total, not more than it.
    assert sum(trace["stages"].values()) <= trace["total_s"] + 1e-6


class TestTraceMeta:
    def test_traced_predict_round_trips_json(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            samples, meta = client.predict(MODEL, make_obs(1), trace=True)
        assert samples.shape == (1, 12, 2)
        assert_valid_trace(meta["trace"])
        json.dumps(meta["trace"])  # wire-visible object is pure JSON

    def test_traced_predict_round_trips_binary(self, running):
        """`trace: true` composes with the v2 binary frame encoding."""
        _, host, port, _ = running
        obs = make_obs(2)
        with ServingClient.connect(host, port, binary=True) as client:
            assert client.supports_binary()
            samples, meta = client.predict(MODEL, obs, trace=True)
        assert samples.shape == (1, 12, 2)
        assert_valid_trace(meta["trace"])

    def test_traced_predict_frame(self, running):
        _, host, port, _ = running
        track = make_obs(3)
        with ServingClient.connect(host, port) as client:
            for frame in range(8):
                client.observe(MODEL, frame, {"a": track[frame]})
            agents = client.predict_frame(MODEL, 7, trace=True)
        samples, meta = agents["a"]
        assert samples.shape == (1, 12, 2)
        assert_valid_trace(meta["trace"])

    @pytest.mark.server_config(
        predictor=WorkerSpec(
            factory="repro.serve.workers:seeded_predictor", kwargs={"seed": 0}
        )
    )
    def test_worker_slot_trace_nests_compute_outside_the_stages(self, running):
        """A worker slot's ``compute`` lies inside its ``inference``: it is
        reported apart from the stages, in the trace and in the histograms,
        so the stages still decompose the total."""
        _, host, port, _ = running
        with ServingClient.connect(host, port, binary=True) as client:
            for seed in range(3):
                _, meta = client.predict(MODEL, make_obs(seed), trace=True)
                trace = meta["trace"]
                assert_valid_trace(trace)
                assert set(trace["nested"]) == {"compute"}
                assert 0 < trace["nested"]["compute"] <= trace["stages"]["inference"]
            histograms = client.metrics()["metrics"]["histograms"]
        stage_keys = [k for k in histograms if k.startswith("serve_stage_seconds")]
        assert stage_keys and not any("stage=compute" in k for k in stage_keys)
        nested = f"serve_nested_stage_seconds{{model={MODEL},stage=compute}}"
        assert histograms[nested]["count"] == 3

    def test_untraced_request_carries_no_trace(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            _, meta = client.predict(MODEL, make_obs(4), return_meta=True)
        assert "trace" not in meta

    @pytest.mark.server_config(instrument=False)
    def test_trace_works_with_instrumentation_off(self, running):
        """Per-request tracing is independent of server-side recording:
        ``instrument=False`` silences the histograms, not the trace."""
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            _, meta = client.predict(MODEL, make_obs(5), trace=True)
            metrics = client.metrics()
        assert_valid_trace(meta["trace"])
        assert metrics["instrument"] is False
        assert metrics["metrics"]["histograms"] == {}


class TestMetricsOp:
    def test_metrics_op_exposes_latency_and_stage_histograms(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            for i in range(4):
                client.predict(MODEL, make_obs(10 + i))
            result = client.metrics()
        assert result["instrument"] is True
        assert result["uptime_s"] >= 0
        histograms = result["metrics"]["histograms"]
        latency = histograms[LATENCY_KEY]
        assert latency["count"] == 4
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        for stage in EXPECTED_STAGES:
            key = f"serve_stage_seconds{{model={MODEL},stage={stage}}}"
            assert histograms[key]["count"] >= 4, key
        # Encode cost is server-level: responses were encoded, so it counted.
        assert histograms["serve_encode_seconds"]["count"] >= 4

    def test_stats_surface_latency_quantiles(self, running):
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.predict(MODEL, make_obs(20))
            stats = client.stats()
        latency = stats["models"][MODEL]["latency"]
        assert latency["count"] == 1
        for key in ("p50_s", "p95_s", "p99_s"):
            assert latency[key] > 0.0

    def test_metrics_is_a_known_operation(self, running):
        assert "metrics" in protocol.OPERATIONS


class TestDraining:
    def test_read_only_ops_answer_while_draining(self, running):
        """``stats``/``metrics``/``health`` keep working once the server is
        closing, while mutating ops are refused — load shedders need the
        telemetry most exactly when the server is going away."""
        server, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            client.predict(MODEL, make_obs(30))
            server._closing = True  # enter drain without tearing down I/O
            health = client.health()
            stats = client.stats()
            metrics = client.metrics()
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict(MODEL, make_obs(31))
        assert health["status"] == "shutting_down"
        assert stats["models"][MODEL]["total_completed"] == 1
        assert metrics["metrics"]["histograms"][LATENCY_KEY]["count"] == 1
        assert excinfo.value.code == protocol.E_SHUTTING_DOWN


class TestErrorAccounting:
    @pytest.mark.server_config(predictor=StubPredictor(fail=True))
    def test_failed_chunks_count_as_errors_not_completions(
        self, running, capsys
    ):
        """A replica whose forward raises must (a) type the client error,
        (b) bump the replica ``errors`` counter, (c) NOT count the handles
        as completed, and (d) emit a structured ``flush_error`` log line."""
        _, host, port, _ = running
        with ServingClient.connect(host, port) as client:
            for i in range(2):
                with pytest.raises(RemoteServingError) as excinfo:
                    client.predict(MODEL, make_obs(40 + i))
                assert excinfo.value.code == protocol.E_INTERNAL
            stats = client.stats()
            metrics = client.metrics()
        model = stats["models"][MODEL]
        replicas = model["replicas"]
        assert sum(r["errors"] for r in replicas) == 2
        assert sum(r["completed"] for r in replicas) == 0
        assert model["total_failed"] == 2
        counters = metrics["metrics"]["counters"]
        assert counters[f"serve_flush_errors{{model={MODEL}}}"] == 2
        # No latency samples: errored handles never resolve successfully.
        # (The stats() read above get-or-creates the instrument, so the key
        # exists — but it must be empty.)
        assert metrics["metrics"]["histograms"][LATENCY_KEY]["count"] == 0

        events = []
        for line in capsys.readouterr().err.splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        flush_errors = [e for e in events if e.get("event") == "flush_error"]
        assert len(flush_errors) == 2
        record = flush_errors[0]
        assert record["level"] == "error"
        assert record["model"] == MODEL
        assert "RuntimeError: model melted" in record["error"]

    def test_overload_rejections_are_counted(self, running):
        server, host, port, _ = running
        server.max_in_flight = 0  # every request is now over the cap
        with ServingClient.connect(host, port) as client:
            with pytest.raises(RemoteServingError) as excinfo:
                client.predict(MODEL, make_obs(50))
            server.max_in_flight = 64
            metrics = client.metrics()
        assert excinfo.value.code == protocol.E_OVERLOADED
        assert metrics["metrics"]["counters"]["serve_rejected_overload"] == 1


class TestCompileStatsSurface:
    def test_stats_op_surfaces_plan_cache_and_profile(
        self, trained_vanilla, request_factory
    ):
        """The ``stats`` op exposes each replica's compiled-plan cache, and
        with profiling on, per-kernel call counts from the live server."""
        from repro.serve import Predictor

        predictor = Predictor(trained_vanilla, compile=True)
        predictor.set_profile(True)
        server = AsyncServingServer(max_in_flight=64, seed=7)
        server.add_model("vanilla", predictor, num_samples=2)
        with ServerThread(server):
            host, port = server.address
            with ServingClient.connect(host, port) as client:
                for i in range(3):
                    request = request_factory(i, num_neighbours=1)
                    client.predict(
                        "vanilla", request.obs, neighbours=request.neighbours
                    )
                stats = client.stats()
        compile_stats = stats["models"]["vanilla"]["replicas"][0]["compile"]
        assert compile_stats["enabled"] is True
        assert compile_stats["broken"] is None
        assert compile_stats["plans"] >= 1
        assert compile_stats["profile"] is True
        detail = compile_stats["plans_detail"]
        assert detail, "plan cache should hold at least one profiled plan"
        plan_stats = next(iter(detail.values()))
        assert plan_stats["runs"] >= 1
        assert plan_stats["arena"]["bytes"] > 0
        assert plan_stats["profile_enabled"] is True
        kernels = plan_stats["kernels"]
        assert kernels and all(k["calls"] >= 1 for k in kernels.values())
        json.dumps(stats)  # the whole stats payload stays JSON-clean

    def test_replay_invariant_holds_with_tracing_enabled(
        self, trained_vanilla, request_factory
    ):
        """Traced, instrumented serving still replays offline byte-for-byte
        from ``(seed, batch_id)`` — telemetry is additive (the PR-7
        acceptance gate, in-suite)."""
        from repro.serve import Predictor, collate_requests

        predictor = Predictor(trained_vanilla)
        seed, num_samples = 42, 2
        server = AsyncServingServer(max_in_flight=64, seed=seed, instrument=True)
        server.add_model("vanilla", predictor, num_samples=num_samples)
        with ServerThread(server):
            host, port = server.address
            sent = []
            with ServingClient.connect(host, port) as client:
                for i in range(4):
                    request = request_factory(i, num_neighbours=i % 2)
                    samples, meta = client.predict(
                        "vanilla",
                        request.obs,
                        neighbours=request.neighbours,
                        trace=True,
                    )
                    assert_valid_trace(meta["trace"])
                    sent.append((request, samples, meta))
        by_batch: dict[int, list] = {}
        for request, samples, meta in sent:
            by_batch.setdefault(meta["batch_id"], []).append((request, samples, meta))
        for batch_id, rows in by_batch.items():
            rows.sort(key=lambda entry: entry[2]["row"])
            batch = collate_requests(
                [request for request, _, _ in rows], pred_len=predictor.pred_len
            )
            offline = trained_vanilla.predict(
                batch, num_samples, np.random.default_rng((seed, batch_id))
            )
            offline_world = offline + batch.origins[None, :, None, :]
            for row, (_, served, _) in enumerate(rows):
                np.testing.assert_allclose(served, offline_world[:, row], atol=1e-6)

