"""Fault-tolerance gates for ``repro.serve`` (the robustness acceptance).

Two phases drive a real ``AsyncServingServer`` over loopback TCP through the
seeded chaos harness (:mod:`repro.serve.faults`) and gate the failure story:

* **fault storm** — the model's one in-process predictor is wrapped in a
  ``FaultyPredictor`` injecting seeded crashes and latency spikes while
  concurrent closed-loop clients (retrying, with wire deadlines) hammer the
  model; three crashes in a row open its circuit breaker until a half-open
  probe succeeds.  Gates: **zero hung clients**, **every request resolves**
  as a valid reply or a *typed* error (``internal`` / ``unavailable`` /
  ``overloaded`` / ``deadline_exceeded``), and **every successful response
  replays offline to 1e-6** from ``(seed, batch_id)`` — faults must never
  corrupt the answers that do come back.
* **mid-load swap** — ``swap_model`` promotes a different checkpoint behind
  the live model name while clients are mid-flight.  Gates: **zero dropped
  requests** (no errors at all), and the replay splits exactly at the
  returned ``cutover_batch_id`` — batches below it reproduce offline against
  the old checkpoint, batches at/above it against the new one.

Run directly (``PYTHONPATH=src python benchmarks/bench_faults.py``) or via
pytest (``python -m pytest benchmarks/bench_faults.py``).  Writes the CI
artifact ``BENCH_faults.json`` at the repo root.
"""

from __future__ import annotations

import json
import threading
import time

if __name__ == "__main__":  # script mode: put repo root + src on sys.path
    import _bootstrap  # noqa: F401

import numpy as np

from benchmarks.bench_server import SEED, make_predictor, request_payload
from benchmarks.cli import write_bench_json
from repro.serve import (
    AsyncServingServer,
    FaultPlan,
    FaultRule,
    FaultyPredictor,
    PredictRequest,
    RemoteServingError,
    RetryPolicy,
    ServerThread,
    ServingClient,
    collate_requests,
)
from repro.serve import protocol

MODEL = "pecnet-vanilla"
NUM_SAMPLES = 4
ATOL = 1e-6

STORM_CLIENTS = 8
STORM_REQUESTS = 12
#: Wire deadline per request; generous against the ~ms forwards, so expiry
#: only fires if faults genuinely wedge the pipeline (still a typed answer).
DEADLINE_MS = 2000.0
#: A logical call (attempts + bounded backoff) must resolve within this.
MAX_CALL_SECONDS = 10.0
JOIN_TIMEOUT = 120.0

SWAP_CLIENTS = 6
SWAP_REQUESTS = 16
SWAP_SEED = SEED + 100  # a genuinely different checkpoint

ALLOWED_ERROR_CODES = {
    protocol.E_INTERNAL,
    protocol.E_UNAVAILABLE,
    protocol.E_OVERLOADED,
    protocol.E_DEADLINE_EXCEEDED,
}


def start_server(predictor, **overrides) -> tuple[ServerThread, str, int]:
    server = AsyncServingServer(
        **{
            "max_in_flight": 512,
            "seed": SEED,
            **overrides,
        }
    )
    server.add_model(
        MODEL,
        predictor,
        num_samples=NUM_SAMPLES,
        max_batch_size=8,
        max_wait=0.002,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    return thread, host, port


def replay_records(records: list, predictor_for_batch) -> int:
    """Replay served batches offline; returns the number checked.

    ``predictor_for_batch(batch_id)`` picks the oracle — constant for the
    storm phase, cutover-switched for the swap phase.  Successful responses
    are row-complete per batch by construction (a faulted chunk fails every
    row together; expired rows leave the chunk *before* collation), so the
    standard recompose-and-compare applies unchanged under chaos.
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
            f"batch {batch_id}: successes are not row-complete "
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
        predictor = predictor_for_batch(batch_id)
        batch = collate_requests(requests, pred_len=predictor.pred_len)
        offline = predictor.predict_world(
            batch, NUM_SAMPLES, np.random.default_rng((SEED, batch_id))
        )
        for row, (client_id, index, served, _) in enumerate(rows):
            np.testing.assert_allclose(
                served,
                offline[:, row],
                atol=ATOL,
                err_msg=(
                    f"served prediction for client {client_id} request "
                    f"{index} diverged from the offline replay of batch "
                    f"{batch_id}"
                ),
            )
    return len(by_batch)


# ----------------------------------------------------------------------
# Phase 1: crash + latency storm under concurrent load
# ----------------------------------------------------------------------
def bench_fault_storm() -> dict:
    plan = FaultPlan(
        SEED,
        [
            # Crashes: ~1 chunk in 3, after a clean warm-up so the breaker
            # machinery sees a healthy baseline first.
            FaultRule("predict", "error", rate=0.35, after=2),
            # Latency spikes: well inside the deadline, outside the typical
            # forward time — they must change nothing but the clock.
            FaultRule("predict", "latency", rate=0.15, delay=0.03),
        ],
    )
    faulty = FaultyPredictor(make_predictor(SEED), plan)
    thread, host, port = start_server(
        faulty, breaker_threshold=3, breaker_cooldown=0.05
    )
    successes: list = []
    typed_errors: dict[str, int] = {}
    call_walls: list[float] = []
    lock = threading.Lock()

    def drive(client_id: int) -> None:
        retry = RetryPolicy(
            retries=4, base_delay=0.02, jitter=0.0, seed=client_id, max_elapsed=5.0
        )
        with ServingClient.connect(host, port, timeout=30.0, retry=retry) as client:
            for index in range(STORM_REQUESTS):
                obs, neighbours = request_payload(client_id, index)
                started = time.perf_counter()
                try:
                    samples, meta = client.predict(
                        MODEL,
                        obs,
                        neighbours=neighbours,
                        return_meta=True,
                        deadline_ms=DEADLINE_MS,
                    )
                    outcome = ("ok", (client_id, index, samples, meta))
                except RemoteServingError as error:
                    assert error.code in ALLOWED_ERROR_CODES, (
                        f"untyped failure for client {client_id} request "
                        f"{index}: {error.code!r}: {error}"
                    )
                    outcome = ("error", error.code)
                wall = time.perf_counter() - started
                with lock:
                    call_walls.append(wall)
                    if outcome[0] == "ok":
                        successes.append(outcome[1])
                    else:
                        typed_errors[outcome[1]] = typed_errors.get(outcome[1], 0) + 1

    threads = [
        threading.Thread(target=drive, args=(client_id,))
        for client_id in range(STORM_CLIENTS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
    hung = sum(t.is_alive() for t in threads)
    elapsed = time.perf_counter() - start
    with ServingClient.connect(host, port) as probe:
        stats = probe.stats()["models"][MODEL]
    thread.stop()
    # Faults never touch a forward that runs: one oracle replays everything.
    oracle = make_predictor(SEED)
    batches = replay_records(successes, lambda batch_id: oracle)
    return {
        "requests": STORM_CLIENTS * STORM_REQUESTS,
        "resolved": len(successes) + sum(typed_errors.values()),
        "successes": len(successes),
        "typed_errors": typed_errors,
        "hung_clients": hung,
        "elapsed_s": round(elapsed, 3),
        "max_call_s": round(max(call_walls), 3) if call_walls else None,
        "injected": plan.injected,
        "breaker_opens": sum(
            replica["breaker"]["opens"] for replica in stats["replicas"]
        ),
        "total_expired": stats["total_expired"],
        "batches_replayed": batches,
    }


# ----------------------------------------------------------------------
# Phase 2: zero-downtime promotion mid-load
# ----------------------------------------------------------------------
def bench_swap_under_load() -> dict:
    thread, host, port = start_server(make_predictor(SEED))
    records: list = []
    errors: list = []
    lock = threading.Lock()
    total = SWAP_CLIENTS * SWAP_REQUESTS

    def drive(client_id: int) -> None:
        try:
            with ServingClient.connect(host, port, timeout=30.0) as client:
                for index in range(SWAP_REQUESTS):
                    obs, neighbours = request_payload(client_id, index)
                    samples, meta = client.predict(
                        MODEL, obs, neighbours=neighbours, return_meta=True
                    )
                    with lock:
                        records.append((client_id, index, samples, meta))
        except Exception as error:  # noqa: BLE001 - a dropped request fails the gate
            with lock:
                errors.append(f"client {client_id}: {type(error).__name__}: {error}")

    threads = [
        threading.Thread(target=drive, args=(client_id,))
        for client_id in range(SWAP_CLIENTS)
    ]
    for t in threads:
        t.start()
    # Promote once the load is demonstrably mid-flight.
    while True:
        with lock:
            seen = len(records)
        if seen >= total // 3 or not any(t.is_alive() for t in threads):
            break
        time.sleep(0.002)
    swapped_mid_load = any(t.is_alive() for t in threads)
    swap = thread.swap_model(MODEL, lambda: make_predictor(SWAP_SEED))
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
    hung = sum(t.is_alive() for t in threads)
    thread.stop()
    cutover = swap["cutover_batch_id"]
    old_oracle = make_predictor(SEED)
    new_oracle = make_predictor(SWAP_SEED)
    batches = replay_records(
        records,
        lambda batch_id: old_oracle if batch_id < cutover else new_oracle,
    )
    pre = sum(1 for *_, meta in records if meta["batch_id"] < cutover)
    post = sum(1 for *_, meta in records if meta["batch_id"] >= cutover)
    return {
        "requests": total,
        "completed": len(records),
        "errors": errors,
        "hung_clients": hung,
        "swapped_mid_load": swapped_mid_load,
        "cutover_batch_id": cutover,
        "drained_chunks": swap["drained_chunks"],
        "pre_cutover_responses": pre,
        "post_cutover_responses": post,
        "batches_replayed": batches,
    }


# ----------------------------------------------------------------------
def bench() -> dict:
    return {
        "fault_storm": bench_fault_storm(),
        "swap_under_load": bench_swap_under_load(),
    }


def assert_gates(stats: dict) -> None:
    storm = stats["fault_storm"]
    assert storm["hung_clients"] == 0, f"clients hung under faults: {storm}"
    assert storm["resolved"] == storm["requests"], (
        f"only {storm['resolved']}/{storm['requests']} requests resolved: {storm}"
    )
    assert storm["max_call_s"] <= MAX_CALL_SECONDS, (
        f"a call took {storm['max_call_s']}s (gate: {MAX_CALL_SECONDS}s): {storm}"
    )
    # The storm must actually have stormed, and the model must have served
    # through it — otherwise the replay gate is vacuous.
    assert storm["injected"].get("predict:error", 0) >= 1, storm
    assert storm["successes"] >= 1 and sum(storm["typed_errors"].values()) >= 1, storm
    assert storm["batches_replayed"] >= 1, storm
    unexpected = set(storm["typed_errors"]) - ALLOWED_ERROR_CODES
    assert not unexpected, f"untyped error codes leaked: {unexpected}"

    swap = stats["swap_under_load"]
    assert swap["hung_clients"] == 0, f"clients hung across the swap: {swap}"
    assert swap["errors"] == [], f"the swap dropped requests: {swap['errors']}"
    assert swap["completed"] == swap["requests"], swap
    assert swap["swapped_mid_load"], (
        "the load finished before the swap — nothing was promoted mid-flight"
    )
    assert swap["pre_cutover_responses"] >= 1, swap
    assert swap["post_cutover_responses"] >= 1, swap
    assert swap["batches_replayed"] >= 2, swap


# ----------------------------------------------------------------------
# Pytest gate
# ----------------------------------------------------------------------
def test_fault_storm_and_swap_gates():
    stats = bench()
    write_bench_json("faults", stats)
    assert_gates(stats)


if __name__ == "__main__":
    stats = bench()
    path = write_bench_json("faults", stats)
    assert_gates(stats)
    print(json.dumps(stats, indent=2))
    print(f"wrote {path}")
