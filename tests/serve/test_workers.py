"""Process-level workers: spawn, replay, routing, crash/stall chaos, lifecycle.

The worker plane moves the predictor forward into supervised child
processes while keeping every serving invariant: the queue, the
``batch_id`` sequence, and the per-flush RNG stay parent-side, so a chunk
run in a worker is bit-identical to the same chunk run in-process — and
``(seed, batch_id)`` replay verifies no matter where the forward ran.

The chaos tests SIGKILL workers mid-flush and inject deterministic
``crash``/``stall`` faults *inside* the child: in-flight requests must
resolve with typed errors (never hang — the conftest alarm enforces
that), the slot's breaker must open, and the supervisor must respawn the
child so service recovers without operator action.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.lint import run_lint
from repro.serve import (
    AsyncServingServer,
    FaultPlan,
    FaultRule,
    FaultyPredictor,
    PredictRequest,
    RemoteServingError,
    ServerThread,
    ServingClient,
    WorkerCrashedError,
    WorkerPool,
    WorkerPredictor,
    WorkerSpawnError,
    WorkerSpec,
    WorkerStallError,
    collate_requests,
)
from repro.serve.batcher import batch_from_wire, batch_to_wire
from repro.serve.faults import CRASH_EXIT_CODE
from repro.serve.workers import (
    generator_from_wire,
    rng_state_to_wire,
    seeded_predictor,
)

SEEDED = "repro.serve.workers:seeded_predictor"
FAULTY = "repro.serve.workers:faulty_seeded_predictor"

#: Fast supervision knobs for tests — default timeouts are production-scale.
FAST = dict(chunk_timeout=15.0, start_timeout=60.0)


def make_obs(seed: int = 0, obs_len: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=(obs_len, 2)), axis=0)


def make_batch(n: int = 3, obs_len: int = 8):
    requests = [
        PredictRequest(request_id=f"r{i}", obs=make_obs(seed=i, obs_len=obs_len))
        for i in range(n)
    ]
    return collate_requests(requests)


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# WorkerSpec + wire helpers (no processes)
# ----------------------------------------------------------------------
class TestWorkerSpec:
    def test_json_round_trip(self):
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 3, "method": "vanilla"})
        clone = WorkerSpec.from_json(spec.to_json())
        assert clone == spec

    @pytest.mark.parametrize("factory", ["", "noseparator", ":attr", "module:"])
    def test_malformed_factory_rejected(self, factory):
        with pytest.raises(ValueError, match="module:attribute"):
            WorkerSpec(factory=factory)

    def test_kwargs_must_be_dict(self):
        with pytest.raises(ValueError, match="kwargs"):
            WorkerSpec(factory=SEEDED, kwargs=[1, 2])

    def test_build_runs_factory_in_process(self):
        predictor = WorkerSpec(factory=SEEDED, kwargs={"seed": 0}).build()
        assert predictor.obs_len == 8 and predictor.pred_len == 12

    def test_build_rejects_non_predictor(self):
        spec = WorkerSpec(factory="builtins:dict", kwargs={})
        with pytest.raises(TypeError, match="predict_world"):
            spec.build()


class TestWireHelpers:
    def test_batch_round_trip_is_exact(self):
        batch = make_batch(4)
        clone = batch_from_wire(batch_to_wire(batch))
        np.testing.assert_array_equal(clone.obs, batch.obs)
        np.testing.assert_array_equal(clone.neighbours, batch.neighbours)
        np.testing.assert_array_equal(clone.neighbour_mask, batch.neighbour_mask)
        np.testing.assert_array_equal(clone.domain_ids, batch.domain_ids)
        np.testing.assert_array_equal(clone.origins, batch.origins)
        assert clone.neighbour_mask.dtype == np.bool_
        assert clone.domain_ids.dtype == np.int64
        assert clone.future.shape == batch.future.shape
        assert not clone.future.any()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w.pop("obs"),
            lambda w: w.update(obs="nonsense"),
            lambda w: w.update(obs=np.zeros((3,))),
            lambda w: w.update(pred_len="twelve"),
            lambda w: w.update(origins=np.zeros((99, 2))),
        ],
    )
    def test_malformed_wire_batch_raises_value_error(self, mutate):
        wire = batch_to_wire(make_batch(2))
        mutate(wire)
        with pytest.raises(ValueError):
            batch_from_wire(wire)

    def test_rng_state_round_trip_streams_identically(self):
        rng = np.random.default_rng(1234)
        rng.normal(size=7)  # advance past the initial state
        clone = generator_from_wire(rng_state_to_wire(rng))
        np.testing.assert_array_equal(clone.normal(size=32), rng.normal(size=32))

    @pytest.mark.parametrize("state", [None, "junk", {"bit_generator": "PCG64"}])
    def test_malformed_rng_state_raises_value_error(self, state):
        with pytest.raises(ValueError):
            generator_from_wire(state)


# ----------------------------------------------------------------------
# One live worker process: handshake, bit-identical replay, typed errors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker():
    predictor = WorkerPredictor(
        WorkerSpec(factory=SEEDED, kwargs={"seed": 0}), label="t[0]", **FAST
    )
    yield predictor
    predictor.close()


class TestWorkerPredictor:
    def test_handshake_populates_shapes(self, worker):
        assert worker.obs_len == 8
        assert worker.pred_len == 12
        assert worker.alive and worker.pid is not None and worker.port is not None
        assert worker.pid != os.getpid()

    def test_forward_is_bit_identical_to_in_process(self, worker):
        batch = make_batch(3)
        local = seeded_predictor(seed=0)
        remote = worker.predict_world(batch, 5, np.random.default_rng(42))
        expected = local.predict_world(batch, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(remote, expected)
        assert remote.dtype == np.float64

    def test_rng_state_is_consumed_not_reseeded(self, worker):
        # An advanced generator must produce a different draw than a fresh
        # one — proof the exact state crosses the process boundary.
        batch = make_batch(2)
        fresh = worker.predict_world(batch, 3, np.random.default_rng(7))
        advanced = np.random.default_rng(7)
        advanced.normal(size=100)
        moved = worker.predict_world(batch, 3, advanced)
        assert not np.array_equal(fresh, moved)

    def test_worker_side_error_is_typed_and_child_survives(self, worker):
        pid = worker.pid
        with pytest.raises(RemoteServingError) as excinfo:
            worker.predict_world(make_batch(2), 0, np.random.default_rng(0))
        assert excinfo.value.code == "bad_request"
        # A typed model-side error is not transport evidence: same child.
        assert worker.pid == pid and worker.alive
        assert worker.failures >= 1

    def test_worker_stats_shape(self, worker):
        stats = worker.worker_stats()
        assert set(stats) == {"pid", "port", "alive", "respawns", "chunks", "failures"}
        assert stats["chunks"] >= 1


# ----------------------------------------------------------------------
# Crash / stall supervision (dedicated workers — these kill children)
# ----------------------------------------------------------------------
def run_on_loop(predictor: WorkerPredictor, scenario) -> None:
    """Await ``scenario()`` on one event loop, as the server awaits chunks,
    then close the slot there so the loop closes its stream itself."""

    async def main() -> None:
        try:
            await scenario()
        finally:
            predictor.close()
            await asyncio.sleep(0.01)

    asyncio.run(main())


class TestCrashAndRespawn:
    """The slot's failure handling, through the awaited exchange the server
    runs: a crash or stall fails the chunk typed, the child is killed
    without waiting for the reap, and the supervisor respawns it."""

    def test_sigkill_raises_typed_error_then_supervisor_respawns(self):
        predictor = WorkerPredictor(
            WorkerSpec(factory=SEEDED, kwargs={"seed": 0}), label="t[kill]", **FAST
        )
        batch = make_batch(2)

        async def scenario() -> None:
            before, _ = await predictor.predict_world_async(
                batch, 4, np.random.default_rng(5)
            )
            first_pid = predictor.pid
            os.kill(first_pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashedError):
                await predictor.predict_world_async(batch, 4, np.random.default_rng(5))
            assert wait_until(lambda: predictor.alive), "supervisor never respawned"
            assert predictor.respawns >= 1
            assert predictor.pid != first_pid
            # Replay invariant across the respawn: same state, same samples.
            after, _ = await predictor.predict_world_async(
                batch, 4, np.random.default_rng(5)
            )
            np.testing.assert_array_equal(after, before)

        run_on_loop(predictor, scenario)

    def test_stall_raises_worker_stall_error_and_respawns(self):
        # Rule fires on the second predict call only; the respawned child
        # gets a fresh plan, so call 3 (its first) is clean again.
        rules = [
            dict(site="predict", kind="stall", after=1, count=1, rate=1.0, delay=30.0)
        ]
        predictor = WorkerPredictor(
            WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0}),
            label="t[stall]",
            chunk_timeout=2.0,
        )
        batch = make_batch(2)

        async def scenario() -> None:
            ok, _ = await predictor.predict_world_async(batch, 3, np.random.default_rng(1))
            stalled = predictor._proc.proc
            with pytest.raises(WorkerStallError):
                await predictor.predict_world_async(batch, 3, np.random.default_rng(1))
            # Killed, not left holding the CPU for the rest of its stall.
            assert stalled.wait(timeout=10) == -signal.SIGKILL
            assert wait_until(lambda: predictor.alive), "supervisor never respawned"
            again, _ = await predictor.predict_world_async(
                batch, 3, np.random.default_rng(1)
            )
            np.testing.assert_array_equal(again, ok)

        run_on_loop(predictor, scenario)

    def test_deterministic_crash_fault_exits_with_crash_code(self):
        rules = [dict(site="predict", kind="crash", after=0, count=1, rate=1.0)]
        predictor = WorkerPredictor(
            WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0}),
            label="t[crash]",
            **FAST,
        )
        proc = predictor._proc.proc

        async def scenario() -> None:
            with pytest.raises(WorkerCrashedError):
                await predictor.predict_world_async(
                    make_batch(2), 3, np.random.default_rng(0)
                )
            assert proc.wait(timeout=10) == CRASH_EXIT_CODE
            assert wait_until(lambda: predictor.alive)

        run_on_loop(predictor, scenario)

    def test_blocking_form_retires_a_dead_child_the_same_way(self):
        """``predict_world`` (for callers off the loop) shares the failure
        handling: a typed error, then a respawned child."""
        predictor = WorkerPredictor(
            WorkerSpec(factory=SEEDED, kwargs={"seed": 0}), label="t[sync]", **FAST
        )
        try:
            batch = make_batch(2)
            before = predictor.predict_world(batch, 4, np.random.default_rng(5))
            first_pid = predictor.pid
            os.kill(first_pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashedError):
                predictor.predict_world(batch, 4, np.random.default_rng(5))
            assert wait_until(lambda: predictor.alive), "supervisor never respawned"
            assert predictor.pid != first_pid
            after = predictor.predict_world(batch, 4, np.random.default_rng(5))
            np.testing.assert_array_equal(after, before)
        finally:
            predictor.close()

    def test_close_is_idempotent_and_terminal(self):
        predictor = WorkerPredictor(
            WorkerSpec(factory=SEEDED, kwargs={"seed": 0}), label="t[close]", **FAST
        )
        pid = predictor.pid
        predictor.close()
        predictor.close()
        assert predictor.closed and not predictor.alive
        assert wait_until(lambda: not _pid_alive(pid), timeout=10)
        with pytest.raises(WorkerCrashedError, match="closed"):
            asyncio.run(
                predictor.predict_world_async(make_batch(1), 2, np.random.default_rng(0))
            )
        with pytest.raises(WorkerCrashedError, match="closed"):
            predictor.predict_world(make_batch(1), 2, np.random.default_rng(0))

    def test_broken_factory_fails_spawn_loudly(self):
        spec = WorkerSpec(factory="repro.serve.workers:does_not_exist")
        with pytest.raises(WorkerSpawnError):
            WorkerPredictor(spec, label="t[broken]", start_timeout=30.0)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    # The pid may be a zombie we haven't reaped (it is not our direct child
    # here) — consider any signalable pid alive; Popen reaping makes this
    # converge.
    return True


# ----------------------------------------------------------------------
# Through the server: chaos mid-flush, breaker, respawn, replay
# ----------------------------------------------------------------------
def start_worker_server(
    spec: WorkerSpec,
    *,
    workers: int = 1,
    seed: int = 7,
    num_samples: int = 4,
    **server_kwargs,
):
    server = AsyncServingServer(max_in_flight=64, seed=seed, **server_kwargs)
    server.add_model(
        "m",
        spec,
        workers=workers,
        num_samples=num_samples,
        worker_chunk_timeout=15.0,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    return server, thread, host, port


def replay_offline(records, *, seed: int, num_samples: int, reference) -> None:
    """Verify every served prediction from its ``(seed, batch_id)`` meta.

    Records are grouped by batch and recomposed in row order: every batch
    must come back row-complete, and each row must match the offline
    replay of its batch.
    """
    assert records, "chaos run produced no successful responses to replay"
    by_batch: dict[int, list] = {}
    for record in records:
        by_batch.setdefault(record[2]["batch_id"], []).append(record)
    for batch_id, rows in by_batch.items():
        rows.sort(key=lambda record: record[2]["row"])
        assert [meta["row"] for _, _, meta in rows] == list(
            range(rows[0][2]["batch_size"])
        ), f"batch {batch_id} rows incomplete or duplicated"
        batch = collate_requests(
            [PredictRequest(request_id=i, obs=r[0]) for i, r in enumerate(rows)]
        )
        rng = np.random.default_rng((seed, batch_id))
        expected = reference.predict_world(batch, num_samples, rng)
        for row, (_, samples, _) in enumerate(rows):
            np.testing.assert_allclose(
                samples, expected[:, row], rtol=0, atol=1e-6
            )


class TestServerChaos:
    def test_sigkill_mid_flush_opens_breaker_then_recovers(self):
        # One worker, latency-padded forwards so the kill lands mid-flush.
        rules = [dict(site="predict", kind="latency", delay=0.6, rate=1.0)]
        spec = WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0})
        server, thread, host, port = start_worker_server(
            spec, breaker_threshold=1, breaker_cooldown=0.2
        )
        reference = seeded_predictor(seed=0)
        records, errors = [], []
        try:
            pool = server._worker_pools[0]
            slot = pool.predictors[0]
            client = ServingClient.connect(host, port, binary=True, dtype="f8")
            obs = make_obs(seed=3)

            warm, meta = client.predict("m", obs, return_meta=True)
            records.append((obs, warm, meta))
            victim = slot.pid

            def doomed_request():
                doomed = ServingClient.connect(host, port, binary=True, dtype="f8")
                try:
                    doomed.predict("m", make_obs(seed=4))
                except RemoteServingError as error:
                    errors.append(error)
                finally:
                    doomed.close()

            in_flight = threading.Thread(target=doomed_request)
            in_flight.start()
            # Let the request reach the worker (latency rule holds it there),
            # then kill the child out from under the flush.
            time.sleep(0.3)
            os.kill(victim, signal.SIGKILL)
            in_flight.join(timeout=30)
            assert not in_flight.is_alive(), "in-flight request hung after SIGKILL"
            assert len(errors) == 1, "in-flight request did not fail typed"
            assert errors[0].code in ("internal", "unavailable")

            # The single slot's breaker is open: until the respawned child
            # passes a half-open probe, requests fast-fail as unavailable.
            saw_unavailable = False
            recovered = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    samples, meta = client.predict("m", obs, return_meta=True)
                except RemoteServingError as error:
                    assert error.code in ("unavailable", "internal")
                    saw_unavailable = saw_unavailable or error.code == "unavailable"
                    time.sleep(0.1)
                else:
                    recovered = (obs, samples, meta)
                    break
            assert recovered is not None, "service never recovered after respawn"
            records.append(recovered)
            assert saw_unavailable, "breaker never fast-failed while worker was down"

            assert slot.respawns >= 1 and slot.pid != victim
            stats = client.stats()["models"]["m"]
            worker_stats = [r["worker"] for r in stats["replicas"]]
            assert all(w is not None for w in worker_stats)
            assert sum(w["respawns"] for w in worker_stats) >= 1
            client.close()
        finally:
            thread.stop()
        replay_offline(records, seed=7, num_samples=4, reference=reference)

    def test_deterministic_crash_kind_trips_breaker_and_replays(self):
        # The 3rd predict call hard-exits the child: two clean responses,
        # one typed failure, automatic recovery — no signal racing needed.
        rules = [dict(site="predict", kind="crash", after=2, count=1, rate=1.0)]
        spec = WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0})
        server, thread, host, port = start_worker_server(
            spec, breaker_threshold=1, breaker_cooldown=0.2
        )
        reference = seeded_predictor(seed=0)
        records = []
        try:
            client = ServingClient.connect(host, port, binary=True, dtype="f8")
            for i in range(2):
                obs = make_obs(seed=10 + i)
                samples, meta = client.predict("m", obs, return_meta=True)
                records.append((obs, samples, meta))

            with pytest.raises(RemoteServingError) as excinfo:
                client.predict("m", make_obs(seed=12))
            assert excinfo.value.code in ("internal", "unavailable")

            obs = make_obs(seed=13)
            deadline = time.monotonic() + 30
            while True:
                try:
                    samples, meta = client.predict("m", obs, return_meta=True)
                    break
                except RemoteServingError:
                    assert time.monotonic() < deadline, "never recovered from crash"
                    time.sleep(0.1)
            records.append((obs, samples, meta))
            client.close()
        finally:
            thread.stop()
        replay_offline(records, seed=7, num_samples=4, reference=reference)


class TestWorkerRouting:
    def test_two_workers_spread_load_and_stay_correct(self):
        """Concurrent load over a 2-worker pool: both slots execute chunks,
        every batch comes back row-complete, and every response replays
        offline from ``(seed, batch_id)`` — the shared per-model batch_id
        sequence makes placement invisible to replay."""
        # Latency-padded forwards keep a slot busy long enough that
        # concurrent requests spill onto its sibling.
        rules = [dict(site="predict", kind="latency", delay=0.02, rate=1.0)]
        spec = WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0})
        server, thread, host, port = start_worker_server(spec, workers=2)
        reference = seeded_predictor(seed=0)
        num_clients, per_client = 6, 5
        records: list = []
        lock = threading.Lock()

        def run_client(client_id: int) -> None:
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                for i in range(per_client):
                    obs = make_obs(seed=client_id * 100 + i)
                    samples, meta = client.predict("m", obs, return_meta=True)
                    with lock:
                        records.append((obs, samples, meta))

        try:
            threads = [
                threading.Thread(target=run_client, args=(c,))
                for c in range(num_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a client hung"
            with ServingClient.connect(host, port) as client:
                stats = client.stats()
        finally:
            thread.stop()
        assert len(records) == num_clients * per_client
        slots = stats["models"]["m"]["replicas"]
        assert [s["chunks"] > 0 for s in slots] == [True, True], (
            f"load was not spread across workers: {[s['chunks'] for s in slots]}"
        )
        # The pool serves in-process slots only (none here) + 1: the loop
        # awaits worker-slot chunks itself.
        assert stats["server"]["workers"] == 1
        replay_offline(records, seed=7, num_samples=4, reference=reference)


# ----------------------------------------------------------------------
# Worker-slot chunks run on the event loop
# ----------------------------------------------------------------------
class TestLoopExchange:
    def test_worker_chunks_never_enter_the_thread_pool(self):
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 0})
        server, thread, host, port = start_worker_server(spec, workers=2)
        reference = seeded_predictor(seed=0)
        executor = server._executor
        submitted: list = []
        real_submit = executor.submit

        def spy(fn, *args, **kwargs):
            submitted.append(fn)
            return real_submit(fn, *args, **kwargs)

        executor.submit = spy
        records = []
        try:
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                assert client.stats()["server"]["cpu_ms_per_row"] is None
                for seed in range(6):
                    obs = make_obs(seed=seed)
                    samples, meta = client.predict("m", obs, trace=True)
                    records.append((obs, samples, meta))
                stats = client.stats()
        finally:
            thread.stop()
        assert submitted == []
        assert stats["server"]["workers"] == 1  # in-process slots (none) + 1
        assert sum(r["chunks"] for r in stats["models"]["m"]["replicas"]) == 6
        assert stats["server"]["cpu_ms_per_row"] > 0
        for _, _, meta in records:
            trace = meta["trace"]
            # The child's forward is nested inside the exchange.
            assert 0 < trace["nested"]["compute"] <= trace["stages"]["inference"]
        replay_offline(records, seed=7, num_samples=4, reference=reference)

    def test_parent_side_latency_rule_delays_only_that_chunk(self):
        """A wrapped worker slot's latency rule sleeps on the loop without
        blocking it: a health probe answers while the chunk waits."""
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 0})
        server = AsyncServingServer(max_in_flight=64, seed=7)
        server.add_model("m", spec, num_samples=4, worker_chunk_timeout=15.0)
        plan = FaultPlan(0, [FaultRule("predict", "latency", delay=0.5, count=1)])
        slot = server._models["m"].replicas[0]
        slot.predictor = FaultyPredictor(slot.predictor, plan)
        thread = ServerThread(server)
        host, port = thread.start()
        reference = seeded_predictor(seed=0)
        slow: dict = {}

        def delayed_predict() -> None:
            obs = make_obs(seed=5)
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                started = time.perf_counter()
                samples, meta = client.predict("m", obs, return_meta=True)
                slow.update(
                    record=(obs, samples, meta),
                    elapsed=time.perf_counter() - started,
                )

        try:
            in_flight = threading.Thread(target=delayed_predict)
            in_flight.start()
            time.sleep(0.15)  # the chunk now sleeps in the plan
            with ServingClient.connect(host, port) as client:
                started = time.perf_counter()
                assert client.health()["status"] == "ok"
                health_s = time.perf_counter() - started
            in_flight.join(timeout=30)
        finally:
            thread.stop()
        assert plan.injected == {"predict:latency": 1}
        assert health_s < 0.2
        assert slow["elapsed"] >= 0.5
        replay_offline([slow["record"]], seed=7, num_samples=4, reference=reference)

    def test_stall_kills_respawns_and_later_rows_replay(self):
        """A child that stops answering is a stall on the loop: the chunk
        fails typed after the chunk timeout, the child is killed and
        respawned, and rows served afterwards replay offline."""
        # The first child's second call stalls; the respawned child's first
        # call (the half-open probe) is clean.
        rules = [
            dict(site="predict", kind="stall", after=1, count=1, rate=1.0, delay=30.0)
        ]
        spec = WorkerSpec(factory=FAULTY, kwargs={"rules": rules, "seed": 0})
        server = AsyncServingServer(
            max_in_flight=64, seed=7, breaker_threshold=1, breaker_cooldown=0.2
        )
        server.add_model("m", spec, num_samples=4, worker_chunk_timeout=1.0)
        thread = ServerThread(server)
        host, port = thread.start()
        reference = seeded_predictor(seed=0)
        slot = server._worker_pools[0].predictors[0]
        victim = slot.pid
        records = []
        try:
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                obs = make_obs(seed=20)
                records.append((obs, *client.predict("m", obs, return_meta=True)))
                started = time.perf_counter()
                with pytest.raises(RemoteServingError) as excinfo:
                    client.predict("m", make_obs(seed=21))
                assert time.perf_counter() - started >= 1.0
                assert excinfo.value.code == "internal"
                assert "WorkerStallError" in str(excinfo.value)
                obs = make_obs(seed=22)
                deadline = time.monotonic() + 30
                while True:
                    try:
                        samples, meta = client.predict("m", obs, return_meta=True)
                        break
                    except RemoteServingError as error:
                        assert error.code in ("unavailable", "internal")
                        assert time.monotonic() < deadline, "never recovered"
                        time.sleep(0.1)
                records.append((obs, samples, meta))
        finally:
            thread.stop()
        assert slot.respawns >= 1
        assert wait_until(lambda: not _pid_alive(victim), timeout=10)
        replay_offline(records, seed=7, num_samples=4, reference=reference)

    def test_kill_storm_under_load_resolves_every_request(self):
        """Children SIGKILLed again and again while clients keep the loop
        busy — more slots than cores, and a short switch interval so the
        supervisor threads' respawns interleave with the loop's streams:
        every request ends with samples or a typed error, nothing hangs,
        and every served row replays offline."""
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 0})
        server, thread, host, port = start_worker_server(
            spec, workers=3, breaker_threshold=2, breaker_cooldown=0.05
        )
        pool = server._worker_pools[0]
        records, codes = [], []
        lock = threading.Lock()
        storm_over = threading.Event()

        def load(client_id: int) -> None:
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                index = 0
                while not storm_over.is_set():
                    obs = make_obs(seed=1000 * client_id + index)
                    index += 1
                    try:
                        samples, meta = client.predict("m", obs, return_meta=True)
                    except RemoteServingError as error:
                        with lock:
                            codes.append(error.code)
                        time.sleep(0.02)
                    else:
                        with lock:
                            records.append((obs, samples, meta))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        clients = [threading.Thread(target=load, args=(c,)) for c in range(4)]
        try:
            for client in clients:
                client.start()
            for kill in range(6):
                time.sleep(0.25)
                pid = pool.predictors[kill % 3].pid
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            storm_over.set()
            for client in clients:
                client.join(timeout=60)
            assert not any(c.is_alive() for c in clients), "a client hung"
            with ServingClient.connect(host, port, binary=True, dtype="f8") as client:
                obs = make_obs(seed=99)
                deadline = time.monotonic() + 30
                while True:
                    try:
                        records.append((obs, *client.predict("m", obs, return_meta=True)))
                        break
                    except RemoteServingError as error:
                        assert error.code in ("unavailable", "internal")
                        assert time.monotonic() < deadline, "never recovered"
                        time.sleep(0.1)
            pids = [p.pid for p in pool.predictors]
        finally:
            storm_over.set()
            sys.setswitchinterval(previous)
            thread.stop()
        assert set(codes) <= {"internal", "unavailable"}, set(codes)
        assert sum(p.respawns for p in pool.predictors) >= 1
        assert all(p.closed for p in pool.predictors)
        assert wait_until(
            lambda: not any(_pid_alive(pid) for pid in pids if pid), timeout=10
        )
        replay_offline(records, seed=7, num_samples=4, reference=seeded_predictor(seed=0))


# ----------------------------------------------------------------------
# Server lifecycle around worker pools
# ----------------------------------------------------------------------
class TestServerLifecycle:
    def test_stop_kills_all_children(self):
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 0})
        server, thread, host, port = start_worker_server(spec, workers=2)
        pool = server._worker_pools[0]
        pids = [p.pid for p in pool.predictors]
        assert len(pids) == 2 and all(pids)
        client = ServingClient.connect(host, port, binary=True, dtype="f8")
        client.predict("m", make_obs(seed=1))
        client.close()
        thread.stop()
        assert all(p.closed and not p.alive for p in pool.predictors)
        assert wait_until(
            lambda: not any(_pid_alive(pid) for pid in pids), timeout=10
        ), "server stop leaked worker children"

    def test_workers_requires_worker_spec(self):
        server = AsyncServingServer()
        with pytest.raises(ValueError, match="WorkerSpec"):
            server.add_model("m", seeded_predictor(seed=0), workers=2)

    def test_swap_model_promotes_pool_spawned_workers(self):
        spec = WorkerSpec(factory=SEEDED, kwargs={"seed": 0})
        server, thread, host, port = start_worker_server(spec, workers=1)
        try:
            pool = server._worker_pools[0]
            old = list(pool.predictors)
            client = ServingClient.connect(host, port, binary=True, dtype="f8")
            before = client.predict("m", make_obs(seed=2))
            info = thread.swap_model(
                "m", lambda: pool.spawn_predictor(label="m[swap]")
            )
            assert info["replicas"] == 1
            after = client.predict("m", make_obs(seed=2))
            assert before.shape == after.shape
            # Old children were drained then closed; new ones serve.
            assert wait_until(
                lambda: all(p.closed for p in old), timeout=10
            ), "swap_model left the replaced workers running"
            client.close()
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Satellite guard: no hardcoded TCP ports anywhere (bind port 0 only).
# The audit itself lives in repro.lint (REP-NET, see docs/lint.md).
# ----------------------------------------------------------------------
class TestNoHardcodedPorts:
    def test_repo_binds_ephemeral_ports_only(self):
        assert run_lint(str(Path(__file__).resolve().parents[2]), select={"REP-NET"}) == []
