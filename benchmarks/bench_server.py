"""Network-serving gates for ``repro.serve.server`` (the async front-end).

A closed-loop load generator drives a real ``AsyncServingServer`` over
loopback TCP with the blocking ``ServingClient`` — the full wire path
(framing, JSON/binary payloads, admission control, externally-driven
batching, slot routing, worker-process forwards) — and asserts the
acceptance gates:

* **throughput (coalescing, PR 4)** — 8 concurrent closed-loop clients must
  achieve >= 3x the aggregate throughput of 1 sequential client.  On a
  single CPU the gain comes entirely from coalescing: while one batch runs,
  the other clients' requests queue and pop as one padded batch.
* **binary payload (PR 5)** — a ``binary=True`` predict response for K=20
  must be <= 40% of the JSON response bytes for the same request (measured
  on the 2-worker server of the horizontal-scale phase).
* **equivalence / zero corruption** — every served prediction, from any
  slot and either encoding, is replayed offline: responses carry
  ``(batch_id, row, batch_size)``, flush noise derives from
  ``default_rng((seed, batch_id))``, so each served batch is recomposed
  bit-for-bit and pushed through the offline ``predict_samples`` path;
  every row must match its client's received samples to 1e-6.  The
  ``batch_id`` sequence is *shared per model*, so this holds regardless of
  which worker ran a batch.
* **v1 compatibility** — a protocol-v1 JSON-only client completes the full
  observe -> predict -> stats flow against the v2 server (the 2-worker
  server of the horizontal-scale phase).
* **horizontal scale (PR 9)** — with the model's slots running as child
  *processes* (``workers=N`` + a ``WorkerSpec``), 2 workers must reach
  >= 1.5x the 1-worker throughput on >= 2 CPUs (process workers escape the
  GIL; the floor is the IPC budget), and every served prediction — from
  any worker, either encoding — must still replay offline to 1e-6 against
  a local predictor built from the same seed.
* **tail latency (PR 7)** — the server-side latency *histogram* (not the
  client's stopwatch) must report p99 <= ``MAX_P99_RATIO`` x p50 under the
  closed-loop concurrent load, read back through the ``metrics`` op.
* **instrumentation overhead (PR 7)** — the sequential predict path on an
  ``instrument=True`` server must cost <= ``MAX_INSTRUMENT_OVERHEAD`` (5%)
  over an ``instrument=False`` server (interleaved min-of-blocks on both
  sides, pairing machine noise).
  Traced requests (``trace=True``) ride along and their replay must still
  hold — telemetry is additive or it is a bug.

Run directly (``PYTHONPATH=src python benchmarks/bench_server.py``) or via
pytest (``python -m pytest benchmarks/bench_server.py``).
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time

import numpy as np

from repro.baselines import build_method
from repro.serve import (
    AsyncServingServer,
    Predictor,
    PredictRequest,
    ServerThread,
    ServingClient,
    WorkerSpec,
    collate_requests,
)
from repro.serve import protocol

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

SEED = 7
MODEL = "pecnet-vanilla"
NUM_SAMPLES = 4
NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 16  # concurrent phase: 8 x 16 = 128 requests
SEQUENTIAL_REQUESTS = 48
MIN_SPEEDUP = 3.0
ATOL = 1e-6
#: Worker phase: sample count per prediction (the "large K" regime the
#: binary payload exists for).
WORKER_NUM_SAMPLES = 20
#: Binary predict response must be at most this fraction of JSON bytes.
MAX_BINARY_RATIO = 0.40
#: Horizontal-scale gate (PR 9): 2 worker *processes* vs 1 at K=20.
#: 0.75 x N efficiency on N=2 CPUs — process workers escape the GIL, so the
#: floor is what IPC (one binary chunk frame per flush) is allowed to cost.
#: The ratio is always recorded but only *gated* on multi-CPU hosts.
WORKER_REQUESTS_PER_CLIENT = 8
MIN_WORKER_SPEEDUP = 1.5
#: Coalescing window: a partial batch waits up to this long for stragglers.
#: The knob trades idle-client latency (the sequential phase pays ~2ms per
#: request) for loaded throughput (concurrent batches fill to ~7-8 rows);
#: the gate measures exactly this scaling-under-concurrency contract.
MAX_WAIT = 0.002
#: Tail-latency gate: server-side histogram p99 must stay within this factor
#: of p50 under the closed-loop load.  Closed-loop clients bound queueing, so
#: a healthy tail sits at 2-4x; 10x is the CI-safe alarm threshold.
MAX_P99_RATIO = 10.0
#: Instrumented sequential predict path may cost at most this much over the
#: uninstrumented one (fractional; min-of-blocks both sides).
MAX_INSTRUMENT_OVERHEAD = 0.05
#: Blocks for the overhead comparison (more min-of samples = less jitter).
OVERHEAD_BLOCKS = 5


def make_predictor(seed: int = 0) -> Predictor:
    """An untrained PECNet vanilla method — serving cost is weight-agnostic.

    The rng seed fully determines the weights, so two calls with the same
    seed build numerically identical module trees: the served model and
    its offline replay oracle, without registry I/O.
    """
    return Predictor(build_method("vanilla", "pecnet", num_domains=1, rng=seed))


def request_payload(client_id: int, index: int, obs_len: int = 8):
    """Deterministic per-(client, index) observation window + neighbours."""
    rng = np.random.default_rng((client_id, index))
    obs = np.cumsum(rng.normal(scale=0.3, size=(obs_len, 2)), axis=0)
    neighbours = np.cumsum(
        rng.normal(scale=0.3, size=(index % 4, obs_len, 2)), axis=1
    )
    return obs, neighbours


def start_server(
    predictor: Predictor, instrument: bool = True
) -> tuple[ServerThread, str, int]:
    server = AsyncServingServer(
        max_in_flight=512,
        seed=SEED,
        instrument=instrument,
    )
    server.add_model(
        MODEL,
        predictor,
        num_samples=NUM_SAMPLES,
        max_batch_size=32,
        max_wait=MAX_WAIT,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    return thread, host, port


def run_client(
    host: str, port: int, client_id: int, num_requests: int, binary: bool = False
) -> list:
    """One closed-loop client; returns ``(client_id, index, samples, meta)``."""
    records = []
    with ServingClient.connect(host, port, binary=binary) as client:
        for index in range(num_requests):
            obs, neighbours = request_payload(client_id, index)
            samples, meta = client.predict(
                MODEL, obs, neighbours=neighbours, return_meta=True
            )
            records.append((client_id, index, samples, meta))
    return records


def run_load(
    host: str,
    port: int,
    num_clients: int,
    per_client: int,
    mixed_binary: bool = False,
):
    """Drive ``num_clients`` concurrent closed-loop clients; returns
    ``(elapsed_seconds, flat_records)``.  With ``mixed_binary`` every other
    client speaks the v2 binary encoding (the "either encoding" replay)."""
    results: list[list] = [[] for _ in range(num_clients)]

    def drive(slot: int) -> None:
        binary = mixed_binary and slot % 2 == 1
        results[slot] = run_client(host, port, slot, per_client, binary=binary)

    threads = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(num_clients)
    ]
    start = time.perf_counter()
    if num_clients == 1:
        drive(0)
    else:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - start
    return elapsed, [record for client in results for record in client]


def check_equivalence(
    predictor: Predictor, records: list, num_samples: int = NUM_SAMPLES
) -> int:
    """Replay every served batch offline and compare row by row.

    Groups the records by ``batch_id``, recomposes each batch in row order
    from the deterministic request payloads, reruns it through the offline
    ``predict_samples`` path with the derived flush RNG, and asserts each
    client's received samples match its row to ``ATOL``.  Returns the number
    of batches checked.  A missing row (a request coalesced from elsewhere)
    or a mismatch would both be cross-client corruption — and with workers,
    a broken shared-``batch_id`` invariant would surface here as either.
    """
    by_batch: dict[int, list] = {}
    for client_id, index, samples, meta in records:
        by_batch.setdefault(meta["batch_id"], []).append(
            (client_id, index, samples, meta)
        )
    for batch_id, rows in sorted(by_batch.items()):
        rows.sort(key=lambda entry: entry[3]["row"])
        batch_size = rows[0][3]["batch_size"]
        assert [entry[3]["row"] for entry in rows] == list(range(batch_size)), (
            f"batch {batch_id}: load generator did not receive every row "
            f"({[e[3]['row'] for e in rows]} of {batch_size})"
        )
        requests = []
        for client_id, index, _, _ in rows:
            obs, neighbours = request_payload(client_id, index)
            requests.append(
                PredictRequest(
                    request_id=(client_id, index), obs=obs, neighbours=neighbours
                )
            )
        batch = collate_requests(requests, pred_len=predictor.pred_len)
        offline = predictor.predict_world(
            batch, num_samples, np.random.default_rng((SEED, batch_id))
        )
        for row, (client_id, index, served, _) in enumerate(rows):
            np.testing.assert_allclose(
                served,
                offline[:, row],
                atol=ATOL,
                err_msg=(
                    f"served prediction for client {client_id} request {index} "
                    f"diverged from the offline replay of batch {batch_id}"
                ),
            )
    return len(by_batch)


def measure_payload_bytes(host: str, port: int) -> tuple[int, int]:
    """(json_bytes, binary_bytes) of one predict response on this server."""
    obs, neighbours = request_payload(99, 1)
    with ServingClient.connect(host, port) as client:
        client.predict(MODEL, obs, neighbours=neighbours)
        json_bytes = client.last_response_bytes
    with ServingClient.connect(host, port, binary=True) as client:
        client.predict(MODEL, obs, neighbours=neighbours)
        binary_bytes = client.last_response_bytes
    return json_bytes, binary_bytes


def run_v1_compat_flow(host: str, port: int) -> int:
    """A raw protocol-v1 JSON client's full observe->predict->stats flow.

    Returns the number of successful exchanges; every response must be a
    pure-JSON frame with a v1 envelope.
    """
    rng = np.random.default_rng(5)
    track = np.cumsum(rng.normal(scale=0.3, size=(8, 2)), axis=0)
    exchanges = 0

    def v1_call(sock: socket.socket, req_id: int, op: str, **fields) -> dict:
        nonlocal exchanges
        sock.sendall(protocol.encode_frame({"v": 1, "id": req_id, "op": op, **fields}))
        response = protocol.read_frame_sync(sock)
        assert response is not None and response["ok"], f"v1 {op} failed: {response}"
        assert response["v"] == 1, f"v1 client got a v{response['v']} envelope"
        exchanges += 1
        return response["result"]

    with socket.create_connection((host, port)) as sock:
        health = v1_call(sock, 1, "health")
        assert 1 in health.get("protocols", [1])
        for frame in range(8):
            v1_call(
                sock, 10 + frame, "observe", model=MODEL, frame=frame,
                positions={"a": [float(track[frame, 0]), float(track[frame, 1])]},
            )
        frame_result = v1_call(sock, 20, "predict", model=MODEL, frame=7)
        assert "a" in frame_result["agents"]
        explicit = v1_call(sock, 21, "predict", model=MODEL, obs=track.tolist())
        assert isinstance(explicit["samples"], list)  # JSON end to end
        v1_call(sock, 22, "stats")
    return exchanges


def bench_coalescing(blocks: int = 2) -> dict:
    """PR 4 gate: concurrent coalescing >= 3x sequential, replayable."""
    predictor = make_predictor()
    thread, host, port = start_server(predictor)
    try:
        run_load(host, port, 2, 4)  # warm-up: BLAS pools, lazy allocations
        sequential_s = min(
            run_load(host, port, 1, SEQUENTIAL_REQUESTS)[0] for _ in range(blocks)
        )
        concurrent_records: list = []
        concurrent_s = float("inf")
        for _ in range(blocks):
            elapsed, records = run_load(
                host, port, NUM_CLIENTS, REQUESTS_PER_CLIENT
            )
            concurrent_records.extend(records)
            concurrent_s = min(concurrent_s, elapsed)
        sequential_rps = SEQUENTIAL_REQUESTS / sequential_s
        concurrent_rps = NUM_CLIENTS * REQUESTS_PER_CLIENT / concurrent_s
        batches_checked = check_equivalence(predictor, concurrent_records)
    finally:
        thread.stop()
    return {
        "num_clients": NUM_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "sequential_requests": SEQUENTIAL_REQUESTS,
        "num_samples": NUM_SAMPLES,
        "sequential_req_per_s": round(sequential_rps, 2),
        "concurrent_req_per_s": round(concurrent_rps, 2),
        "speedup": round(concurrent_rps / sequential_rps, 3),
        "equivalence_batches_checked": batches_checked,
        "equivalence_atol": ATOL,
    }


def start_worker_pool_server(num_workers: int) -> tuple[ServerThread, str, int]:
    """A server whose slots are supervised child processes.

    The worker factory is :func:`repro.serve.workers.seeded_predictor` with
    the same seed as :func:`make_predictor`, so every child builds weights
    numerically identical to the local replay oracle.
    """
    server = AsyncServingServer(max_in_flight=512, seed=SEED)
    server.add_model(
        MODEL,
        WorkerSpec(
            factory="repro.serve.workers:seeded_predictor", kwargs={"seed": 0}
        ),
        workers=num_workers,
        num_samples=WORKER_NUM_SAMPLES,
        max_batch_size=32,
        max_wait=MAX_WAIT,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    return thread, host, port


def bench_workers(blocks: int = 2) -> dict:
    """PR 9 gate: process workers scale across CPUs, replay unchanged.

    A mixed-encoding closed-loop load at K=20 with the forward running in
    supervised child processes: 1-worker vs 2-worker throughput, per-worker
    chunk/process stats, and an offline replay of *every* record against a
    local predictor — served samples must be independent of which process
    ran the flush.  The 2-worker server also answers the binary/JSON
    response-byte measurement and the v1 compat flow.  ``N_worker_cpu_ms_per_row``
    is the server's ``stats`` CPU per answered row; the clients run in this
    process, so it counts their CPU too (recorded, not gated).
    """
    results: dict = {
        "num_samples": WORKER_NUM_SAMPLES,
        "num_clients": NUM_CLIENTS,
        "requests_per_client": WORKER_REQUESTS_PER_CLIENT,
        "cpu_count": os.cpu_count(),
    }
    reference = make_predictor()  # replay oracle: same seed as every worker

    def timed_load(num_workers: int) -> tuple[float, list]:
        thread, host, port = start_worker_pool_server(num_workers)
        try:
            run_load(host, port, 2, 4, mixed_binary=True)  # warm-up
            best_s, all_records = float("inf"), []
            for _ in range(blocks):
                elapsed, records = run_load(
                    host,
                    port,
                    NUM_CLIENTS,
                    WORKER_REQUESTS_PER_CLIENT,
                    mixed_binary=True,
                )
                best_s = min(best_s, elapsed)
                all_records.extend(records)
            with ServingClient.connect(host, port) as client:
                stats = client.stats()
            replicas = stats["models"][MODEL]["replicas"]
            key = f"{num_workers}_worker"
            results[f"{key}_chunks"] = [r["chunks"] for r in replicas]
            results[f"{key}_cpu_ms_per_row"] = stats["server"]["cpu_ms_per_row"]
            results[f"{key}_processes"] = [
                {k: r["worker"][k] for k in ("pid", "alive", "respawns")}
                for r in replicas
            ]
            assert all(r["worker"]["alive"] for r in replicas), (
                f"worker died under benchmark load: {replicas}"
            )
            if num_workers == 2:
                results["json_bytes"], results["binary_bytes"] = (
                    measure_payload_bytes(host, port)
                )
                results["v1_compat_exchanges"] = run_v1_compat_flow(host, port)
        finally:
            thread.stop()
        return best_s, all_records

    single_s, single_records = timed_load(1)
    double_s, double_records = timed_load(2)
    total = NUM_CLIENTS * WORKER_REQUESTS_PER_CLIENT
    results["one_worker_req_per_s"] = round(total / single_s, 2)
    results["two_worker_req_per_s"] = round(total / double_s, 2)
    results["worker_speedup"] = round(single_s / double_s, 3)
    results["binary_ratio"] = round(results["binary_bytes"] / results["json_bytes"], 4)
    # Replay per topology: each server has its own batch_id sequence.
    results["equivalence_batches_checked"] = check_equivalence(
        reference, single_records, num_samples=WORKER_NUM_SAMPLES
    ) + check_equivalence(
        reference, double_records, num_samples=WORKER_NUM_SAMPLES
    )
    return results


def run_traced_client(
    host: str, port: int, client_id: int, num_requests: int
) -> list:
    """A closed-loop client with ``trace=True`` on every predict.

    Returns the same ``(client_id, index, samples, meta)`` records as
    :func:`run_client` — with ``meta["trace"]`` present — so traced records
    drop straight into :func:`check_equivalence`: telemetry must be additive
    to the replay invariant.
    """
    records = []
    with ServingClient.connect(host, port) as client:
        for index in range(num_requests):
            obs, neighbours = request_payload(client_id, index)
            samples, meta = client.predict(
                MODEL, obs, neighbours=neighbours, trace=True
            )
            assert "trace" in meta, f"trace=True returned no trace meta: {meta}"
            stages = meta["trace"]["stages"]
            missing = {"admission", "queue_wait", "inference"} - set(stages)
            assert not missing, f"trace meta missing stages {missing}: {stages}"
            records.append((client_id, index, samples, meta))
    return records


def _latency_snapshot(metrics_result: dict) -> dict:
    """The served model's latency-histogram snapshot out of a metrics reply."""
    histograms = metrics_result["metrics"]["histograms"]
    key = f"serve_latency_seconds{{model={MODEL}}}"
    assert key in histograms, f"{key} not in {sorted(histograms)}"
    return histograms[key]


def bench_observability(blocks: int = 2) -> dict:
    """PR 7 gates: histogram-sourced p99, instrumentation overhead, tracing.

    Phase 1 (instrumented server): sequential timing, concurrent closed-loop
    load, a traced client, then the ``metrics``-op histogram read-back and
    an offline replay of *every* record (traced included).  Phase 2
    (``instrument=False`` server): the identical sequential timing — the
    overhead denominator.
    """
    predictor = make_predictor()
    thread, host, port = start_server(predictor)
    plain_thread, plain_host, plain_port = start_server(
        make_predictor(), instrument=False
    )
    try:
        # Overhead measurement: *interleaved* min-of-blocks against both
        # servers, so slow-machine drift (CPU contention, frequency scaling)
        # lands on both sides of the ratio instead of biasing one — back-to-
        # back phases made the 5% gate flaky on shared runners.
        run_load(host, port, 2, 4)  # warm-up: BLAS pools, lazy allocations
        run_load(plain_host, plain_port, 2, 4)
        instrumented_s = uninstrumented_s = math.inf
        for _ in range(OVERHEAD_BLOCKS):
            instrumented_s = min(
                instrumented_s, run_load(host, port, 1, SEQUENTIAL_REQUESTS)[0]
            )
            uninstrumented_s = min(
                uninstrumented_s,
                run_load(plain_host, plain_port, 1, SEQUENTIAL_REQUESTS)[0],
            )
        with ServingClient.connect(plain_host, plain_port) as client:
            plain_metrics = client.metrics()  # op answers; instrument=False
    finally:
        plain_thread.stop()
    assert plain_metrics["instrument"] is False

    try:
        records: list = []
        for _ in range(blocks):
            records.extend(
                run_load(host, port, NUM_CLIENTS, REQUESTS_PER_CLIENT)[1]
            )
        records.extend(run_traced_client(host, port, 77, 8))
        with ServingClient.connect(host, port) as client:
            metrics_result = client.metrics()
            model_stats = client.stats()["models"][MODEL]
        batches_checked = check_equivalence(predictor, records)
    finally:
        thread.stop()

    latency = _latency_snapshot(metrics_result)
    stage_keys = [
        key
        for key in metrics_result["metrics"]["histograms"]
        if key.startswith("serve_stage_seconds")
    ]

    return {
        "num_clients": NUM_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "latency_count": latency["count"],
        "p50_s": latency["p50"],
        "p95_s": latency["p95"],
        "p99_s": latency["p99"],
        "max_s": latency["max"],
        "stats_p99_s": model_stats["latency"]["p99_s"],
        "stage_histograms": sorted(stage_keys),
        "instrumented_sequential_s": round(instrumented_s, 4),
        "uninstrumented_sequential_s": round(uninstrumented_s, 4),
        "instrument_overhead": round(
            max(0.0, instrumented_s / uninstrumented_s - 1.0), 4
        ),
        "traced_requests": 8,
        "equivalence_batches_checked": batches_checked,
    }


def bench(blocks: int = 2) -> dict:
    return {
        "coalescing": bench_coalescing(blocks),
        "workers": bench_workers(blocks),
        "observability": bench_observability(blocks),
    }


def write_results(stats: dict) -> None:
    try:  # stamp run provenance when the benchmarks package is importable
        from benchmarks.cli import provenance

        stats = {**stats, "provenance": provenance()}
    except ImportError:  # bare script mode without the repo root on sys.path
        pass
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "bench_server.json"), "w") as fh:
        json.dump(stats, fh, indent=2)


def assert_gates(stats: dict) -> None:
    coalescing = stats["coalescing"]
    assert coalescing["speedup"] >= MIN_SPEEDUP, (
        f"{NUM_CLIENTS} concurrent clients only {coalescing['speedup']:.2f}x over "
        f"one sequential client (gate: {MIN_SPEEDUP}x): {coalescing}"
    )
    workers = stats["workers"]
    assert workers["binary_ratio"] <= MAX_BINARY_RATIO, (
        f"binary predict response is {workers['binary_ratio']:.0%} of JSON at "
        f"K={WORKER_NUM_SAMPLES} (gate: <= {MAX_BINARY_RATIO:.0%}): {workers}"
    )
    assert workers["v1_compat_exchanges"] >= 12
    assert workers["equivalence_batches_checked"] > 0, workers
    if (os.cpu_count() or 1) >= 2:
        # 1-CPU hosts: IPC overhead with no second core to hide it on — the
        # ratio is recorded, not gated (the crash/stall/replay contracts and
        # the both-workers-execute check are gated deterministically in
        # tests/serve/test_workers.py).
        assert all(count > 0 for count in workers["2_worker_chunks"]), (
            f"the router starved a worker process: {workers['2_worker_chunks']}"
        )
        assert workers["worker_speedup"] >= MIN_WORKER_SPEEDUP, (
            f"2 worker processes only {workers['worker_speedup']:.2f}x over 1 "
            f"on {os.cpu_count()} CPUs (gate: {MIN_WORKER_SPEEDUP}x — 0.75xN "
            f"horizontal efficiency): {workers}"
        )
    obs = stats["observability"]
    assert obs["latency_count"] > 0, f"latency histogram recorded nothing: {obs}"
    # The tail gate reads the *server-side* histogram (the metrics op), not a
    # client stopwatch: p50 is floored at 0.1ms so an implausibly-fast run
    # cannot turn the ratio into a divide-by-noise.
    assert obs["p99_s"] <= MAX_P99_RATIO * max(obs["p50_s"], 1e-4), (
        f"server-side p99 {obs['p99_s'] * 1e3:.2f}ms exceeds "
        f"{MAX_P99_RATIO}x p50 {obs['p50_s'] * 1e3:.2f}ms under the "
        f"closed-loop load: {obs}"
    )
    assert obs["instrument_overhead"] <= MAX_INSTRUMENT_OVERHEAD, (
        f"instrumentation costs {obs['instrument_overhead']:.1%} on the "
        f"sequential predict path (gate: <= {MAX_INSTRUMENT_OVERHEAD:.0%}): {obs}"
    )


# ----------------------------------------------------------------------
# Pytest gates
# ----------------------------------------------------------------------
def test_server_throughput_workers_binary_and_equivalence_gates():
    stats = bench()
    write_results(stats)
    assert_gates(stats)


def test_single_round_trip_equivalence():
    """Cheap standalone equivalence check (no load): one client, replayed."""
    predictor = make_predictor()
    thread, host, port = start_server(predictor)
    try:
        _, records = run_load(host, port, 1, 6)
    finally:
        thread.stop()
    assert check_equivalence(predictor, records) >= 1


def test_single_round_trip_equivalence_compiled():
    """The same replay gate with ``compile=True``: predictions served via
    planned execution must still recompose offline against an *eager*
    predictor built from the same seed (ISSUE 6 acceptance gate)."""
    served = make_predictor()
    served.set_compile(True)
    thread, host, port = start_server(served)
    try:
        _, records = run_load(host, port, 1, 6)
    finally:
        thread.stop()
    stats = served.compile_stats()
    assert stats["broken"] is None and stats["plans"] > 0, stats
    assert check_equivalence(make_predictor(), records) >= 1


def test_worker_pool_round_trip_equivalence():
    """Cheap standalone worker smoke: one child process, served predictions
    replayed offline against a local predictor built from the same seed —
    the replay invariant must be independent of process placement."""
    thread, host, port = start_worker_pool_server(1)
    try:
        _, records = run_load(host, port, 1, 6)
        with ServingClient.connect(host, port) as client:
            replicas = client.stats()["models"][MODEL]["replicas"]
        assert replicas[0]["worker"]["alive"] is True
    finally:
        thread.stop()
    assert check_equivalence(
        make_predictor(), records, num_samples=WORKER_NUM_SAMPLES
    ) >= 1


def test_v1_client_compat_smoke():
    """Standalone v1-client-against-v2-server smoke (no load)."""
    thread, host, port = start_server(make_predictor())
    try:
        assert run_v1_compat_flow(host, port) >= 12
    finally:
        thread.stop()


if __name__ == "__main__":
    stats = bench()
    write_results(stats)
    print(json.dumps(stats, indent=2))
    assert_gates(stats)
    print("all gates passed")
