"""The serving workloads: ``serve-explicit`` and ``serve-stream``.

The server runs in its own process (:mod:`perfbench.server_proc`); this
process is the load generator, with one thread and one connection per
client (two, at most ``nproc`` on the 2-CPU reference host).  Clients send
no ``RetryPolicy`` and ``deadline_ms=0``, so no failure is retried away and
no request is shed.

* ``serve-explicit`` is a closed loop: each connection sends its next
  explicit-window ``predict`` (JSON frames, 0-3 neighbours, K=20) when the
  previous reply is decoded.  Latency runs from request encode to response
  decoded.
* ``serve-stream`` is an open loop: two scenes of 8 agents, one connection
  each, with frames due every :data:`FRAME_PERIOD` seconds (the second
  scene half a period later).  Each frame is an ``observe`` and then a
  ``predict_frame`` (binary frames, 8 rows).  Latency runs from the frame's
  due time to the ``predict_frame`` reply decoded, so a stall also delays
  the frames queued behind it.

Every served row is replayed offline from ``(seed, batch_id)`` against an
eager predictor built from the same seed, to 1e-6.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import build_method
from repro.serve import (
    Predictor,
    PredictRequest,
    ProtocolError,
    RemoteServingError,
    ServingClient,
    StreamingWindows,
    collate_requests,
    protocol,
)

from perfbench.server_proc import MODEL, NUM_SAMPLES, STREAM_AGENTS
from perfbench.spans import Recorder, mean, percentile

HOST = "127.0.0.1"
CONNECTIONS = 2
SETUP_REPEATS = 3
WARMUP_S = 1.0
ATOL = 1e-6
OBS_LEN = 8
#: Open-loop frame period per scene.  On the reference host (2 CPUs) the
#: two scenes sent back to back get about 330 frames/s answered, so two
#: scenes at 80 frames/s each offer about half that capacity.
FRAME_PERIOD = 0.0125
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
AGENT_IDS = tuple(f"a{index}" for index in range(STREAM_AGENTS))
SETUP_SCENE = 1000
STAGES = ("admission", "queue_wait", "coalesce", "route", "inference")
#: A request that raises one of these failed; the connection is given up.
CLIENT_ERRORS = (RemoteServingError, ProtocolError, OSError)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def explicit_payload(seed: int, conn: int, index: int):
    """One explicit request: a random-walk window and 0-3 neighbours."""
    rng = np.random.default_rng((seed, conn, index))
    obs = np.cumsum(rng.normal(scale=0.4, size=(OBS_LEN, 2)), axis=0) + rng.uniform(-20, 20, 2)
    count = int(rng.integers(0, 4))
    neighbours = obs[None] + np.cumsum(rng.normal(scale=0.4, size=(count, OBS_LEN, 2)), axis=1)
    return obs, neighbours


def scene_track(seed: int, scene: int, frames: int) -> np.ndarray:
    """``[frames, agents, 2]`` world positions of one scene's agents."""
    rng = np.random.default_rng((seed, scene))
    start = rng.uniform(-15, 15, size=(STREAM_AGENTS, 2))
    heading = rng.uniform(0, 2 * np.pi, size=STREAM_AGENTS)
    velocity = 0.5 * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    steps = velocity[None] + rng.normal(scale=0.08, size=(frames, STREAM_AGENTS, 2))
    return start[None] + np.cumsum(steps, axis=0)


def frame_positions(track: np.ndarray, frame: int) -> dict:
    return {agent: track[frame, index] for index, agent in enumerate(AGENT_IDS)}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``perfbench.server_proc`` child; ``stop`` returns its result line."""

    def __init__(self, root: str, workload: str, seed: int, traced: bool, work_dir: str) -> None:
        child_spans = os.path.join(work_dir, f"child-spans-{time.monotonic_ns()}.json")
        config = {"workload": workload, "seed": seed, "traced": traced, "child_spans": child_spans}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.log_path = os.path.join(work_dir, f"server-{time.monotonic_ns()}.log")
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.server_proc", "--config", json.dumps(config)],
                cwd=root,
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = int(json.loads(self._readline(START_TIMEOUT))["port"])
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _readline(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"server process gave no output within {timeout:.0f}s") from None
        if line is None:
            with open(self.log_path) as log:
                tail = log.read()[-2000:]
            raise RuntimeError(f"server process exited with code {self.proc.wait()}:\n{tail}")
        return line

    def stop(self) -> dict:
        """Ask the server to stop; returns its result line (spans)."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            result = json.loads(self._readline(STOP_TIMEOUT))
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT)
            return result
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One served row and what replays it."""

    request: object  # PredictRequest
    samples: np.ndarray
    meta: dict


@dataclass
class Phase:
    """Everything one measured server produced."""

    latencies_ms: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # Served, including warm-up and set-up
    traces: list = field(default_factory=list)  # server meta.trace per measured request
    rtt_ms: list = field(default_factory=list)  # predict round trips, send to decoded
    observe_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    request_bytes: list = field(default_factory=list)
    response_bytes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    misses: int = 0
    answered_rows: int = 0
    window_s: float = 0.0
    stats: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)


def _request(obs, neighbours, request_id):
    return PredictRequest(request_id=request_id, obs=obs, neighbours=neighbours)


def stream_rows(track: np.ndarray, replies: list, scene: int) -> list:
    """Pair each ``predict_frame`` reply with the requests this side's own
    :class:`StreamingWindows`, fed the same positions, emits for that frame."""
    windows = StreamingWindows(obs_len=OBS_LEN)
    replies = dict(replies)
    rows = []
    for frame in range(max(replies, default=-1) + 1):
        windows.push_frame(frame, frame_positions(track, frame))
        if frame not in replies:
            continue
        requests = {str(r.request_id[0]): r for r in windows.requests(frame)}
        agents = replies[frame]
        if set(requests) != set(agents):
            raise AssertionError(
                f"scene {scene} frame {frame}: served agents {sorted(agents)}, expected {sorted(requests)}"
            )
        rows.extend(Served(requests[agent], samples, meta) for agent, (samples, meta) in agents.items())
    return rows


def first_prediction(server: ServerProcess, workload: str, seed: int) -> tuple[float, list]:
    """Set-up time: server-process start to the first prediction answered."""
    with ServingClient.connect(HOST, server.port, binary=workload == "serve-stream", dtype="f8") as client:
        if workload == "serve-explicit":
            obs, neighbours = explicit_payload(seed, SETUP_SCENE, 0)
            samples, meta = client.predict(MODEL, obs, neighbours=neighbours, return_meta=True, deadline_ms=0)
            rows = [Served(_request(obs, neighbours, "setup"), samples, meta)]
        else:
            track = scene_track(seed, SETUP_SCENE, OBS_LEN)
            for frame in range(OBS_LEN):
                client.observe(MODEL, frame, frame_positions(track, frame))
            agents = client.predict_frame(MODEL, OBS_LEN - 1, return_meta=True, deadline_ms=0)
            rows = stream_rows(track, [(OBS_LEN - 1, agents)], SETUP_SCENE)
    return time.perf_counter() - server.started, rows


def explicit_client(port, seed, conn, measure_from, until, traced, recorder, phase, lock):
    if recorder is not None:
        recorder.tag = "predict"
    rows, results = [], []
    with ServingClient.connect(HOST, port) as client:
        index = 0
        while True:
            started = time.perf_counter()
            if started >= until:
                break
            obs, neighbours = explicit_payload(seed, conn, index)
            sent, received = client.bytes_sent, client.bytes_received
            try:
                samples, meta = client.predict(
                    MODEL, obs, neighbours=neighbours, return_meta=True, trace=traced, deadline_ms=0
                )
            except CLIENT_ERRORS:
                results.append((started, None, None, 0, 0))
                break
            done = time.perf_counter()
            rows.append((obs, neighbours, (conn, index), samples, meta))
            results.append((started, done, meta, client.bytes_sent - sent, client.bytes_received - received))
            index += 1
    rows = [Served(_request(obs, nbrs, request_id), samples, meta) for obs, nbrs, request_id, samples, meta in rows]
    with lock:
        phase.rows.extend(rows)
        for started, done, meta, req_bytes, resp_bytes in results:
            if started < measure_from:
                continue
            phase.attempted += 1
            if done is None:
                phase.failed += 1
                continue
            phase.answered_rows += 1
            phase.latencies_ms.append(1000.0 * (done - started))
            phase.rtt_ms.append(1000.0 * (done - started))
            phase.request_bytes.append(req_bytes)
            phase.response_bytes.append(resp_bytes)
            if traced:
                phase.traces.append(meta["trace"])


def stream_client(port, seed, scene, start_at, warm_frames, frames, traced, recorder, phase, lock):
    track = scene_track(seed, scene, frames)
    results, replies = [], []
    with ServingClient.connect(HOST, port, binary=True, dtype="f8") as client:
        for frame in range(frames):
            due = start_at + frame * FRAME_PERIOD
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                if recorder is not None:
                    recorder.tag = "observe"
                client.observe(MODEL, frame, frame_positions(track, frame))
                observed = time.perf_counter()
                if recorder is not None:
                    recorder.tag = "predict"
                if frame < OBS_LEN - 1:
                    continue
                before = (client.bytes_sent, client.bytes_received)
                agents = client.predict_frame(MODEL, frame, return_meta=True, trace=traced, deadline_ms=0)
            except CLIENT_ERRORS:
                results.append((frame, due, sent, None, None, None, 0, 0))
                break
            done = time.perf_counter()
            replies.append((frame, agents))
            results.append(
                (frame, due, sent, observed, done, agents,
                 client.bytes_sent - before[0], client.bytes_received - before[1])
            )
    rows = stream_rows(track, replies, scene)
    with lock:
        phase.rows.extend(rows)
        for frame, due, sent, observed, done, agents, req_bytes, resp_bytes in results:
            if frame < warm_frames:
                continue
            phase.attempted += 1
            phase.lag_ms.append(1000.0 * (sent - due))
            if done is None:
                phase.failed += 1
                phase.misses += 1
                continue
            phase.answered_rows += len(agents)
            phase.latencies_ms.append(1000.0 * (done - due))
            phase.rtt_ms.append(1000.0 * (done - observed))
            phase.observe_ms.append(1000.0 * (observed - sent))
            phase.request_bytes.append(req_bytes)
            phase.response_bytes.append(resp_bytes)
            if done > due + FRAME_PERIOD:
                phase.misses += 1
            if traced:
                slowest = max(agents.values(), key=lambda entry: entry[1]["trace"]["total_s"])
                phase.traces.append(slowest[1]["trace"])


def drive(server: ServerProcess, workload: str, seed: int, seconds: float, traced: bool, recorder) -> Phase:
    """Warm up, then measure one server for ``seconds``."""
    phase, lock = Phase(), threading.Lock()
    start = time.perf_counter() + 0.05
    if workload == "serve-explicit":
        measure_from = start + WARMUP_S
        until = measure_from + seconds
        targets = [
            (explicit_client, (server.port, seed, conn, measure_from, until, traced, recorder, phase, lock))
            for conn in range(CONNECTIONS)
        ]
    else:
        warm_frames = int(round(WARMUP_S / FRAME_PERIOD)) + OBS_LEN
        frames = warm_frames + int(round(seconds / FRAME_PERIOD))
        measure_from = start + warm_frames * FRAME_PERIOD
        targets = [
            (
                stream_client,
                (server.port, seed, scene, start + scene * FRAME_PERIOD / 2, warm_frames, frames,
                 traced, recorder, phase, lock),
            )
            for scene in range(CONNECTIONS)
        ]
    errors: list = []

    def guarded(fn, args):
        try:
            fn(*args)
        except BaseException as error:  # surfaced in the calling thread below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    phase.window_s = time.perf_counter() - measure_from
    with ServingClient.connect(HOST, server.port) as client:
        phase.stats = client.stats()
    return phase


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def reference_predictor(seed: int):
    """The eager replay oracle: the served model's weights, built locally."""
    return Predictor(build_method("vanilla", "pecnet", num_domains=1, rng=seed))


def replay(predictor, seed: int, rows: list) -> int:
    """Replay every served row offline from ``(seed, batch_id)``.

    Groups rows by ``batch_id``, recomposes each batch in row order from
    the requests, collates it as the batcher does and reruns it through the
    eager predictor with the flush RNG; every row must match to ``ATOL``.
    Returns the number of batches checked.
    """
    batches: dict[int, list] = {}
    for served in rows:
        batches.setdefault(served.meta["batch_id"], []).append(served)
    for batch_id, members in sorted(batches.items()):
        members.sort(key=lambda served: served.meta["row"])
        size = members[0].meta["batch_size"]
        if [served.meta["row"] for served in members] != list(range(size)):
            raise AssertionError(f"batch {batch_id}: rows {[s.meta['row'] for s in members]} of {size}")
        batch = collate_requests([served.request for served in members], pred_len=predictor.pred_len)
        offline = predictor.predict_world(batch, NUM_SAMPLES, np.random.default_rng((seed, batch_id)))
        for row, served in enumerate(members):
            if served.samples.shape != offline[:, row].shape or not np.allclose(
                served.samples, offline[:, row], rtol=0.0, atol=ATOL
            ):
                raise AssertionError(f"batch {batch_id} row {row}: served samples differ from the offline replay")
    return len(batches)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setups: list) -> dict:
    return {
        "setup_s": percentile(setups, 50),
        "throughput_per_s": phase.answered_rows / phase.window_s,
        "latency_p50_ms": percentile(phase.latencies_ms, 50),
    }


def _rows_per_chunk(spans: Recorder) -> float:
    """Mean rows per ``predict_world`` call, from the ``rows:N`` span labels."""
    rows = calls = 0
    for key, (_, count) in spans.snapshot().items():
        if key.startswith("rows:"):
            rows += int(key[5:]) * count
            calls += count
    return rows / calls if calls else 0.0


def layer_metrics(phase: Phase, client_spans: Recorder, plain_p50_ms: float) -> dict:
    server = Recorder()
    server.merge(phase.server.get("spans", {}))
    child_dump = phase.server.get("child") or {}
    child = Recorder()
    child.merge(child_dump.get("spans", {}))
    compile_stats = child_dump.get("compile", {})
    ms = 1000.0

    stages = {stage: mean(t["stages"].get(stage, 0.0) for t in phase.traces) * ms for stage in STAGES}
    total_ms = mean(t["total_s"] for t in phase.traces) * ms
    client_encode = client_spans.mean("client.encode@predict") * ms
    client_decode = client_spans.mean("client.decode@predict") * ms
    server_decode = server.mean("server.decode@loop") * ms
    server_encode = server.mean("server.encode@loop") * ms
    in_child = child.count("predictor.predict") > 0
    predict_ms = (child if in_child else server).mean("predictor.predict") * ms
    call_ms = server.mean("workers.call") * ms
    model_stats = phase.stats["models"][MODEL]
    metrics = {
        "client.encode_ms": client_encode,
        "client.decode_ms": client_decode,
        "protocol.request_bytes": mean(phase.request_bytes),
        "protocol.response_bytes": mean(phase.response_bytes),
        "server.decode_ms": server_decode,
        "server.encode_ms": server_encode,
        "server.total_ms": total_ms,
        "server.unattributed_ms": total_ms - sum(stages.values()),
        "net.outside_ms": mean(phase.rtt_ms) - client_encode - client_decode - total_ms - server_decode - server_encode,
        "batcher.collate_ms": server.mean("batcher.collate") * ms,
        "batcher.rows_per_chunk": _rows_per_chunk(server),
        "predictor.predict_ms": predict_ms,
        "compile.plan_run_ms": child.mean("compile.plan_run") * ms,
        "compile.plan_misses": float(compile_stats.get("misses", 0)),
        "compile.fallbacks": float(compile_stats.get("fallbacks", 0)),
        "workers.call_ms": call_ms,
        "workers.transport_ms": call_ms - predict_ms if in_child else 0.0,
        "streaming.push_ms": server.mean("streaming.push") * ms,
        "streaming.requests_ms": server.mean("streaming.requests") * ms,
        "client.observe_ms": mean(phase.observe_ms),
        "server.in_flight_peak": float(phase.stats["server"]["in_flight_peak"]),
        "server.rejected_overload": float(phase.stats["server"]["rejected_overload"]),
        "batcher.expired": float(model_stats["total_expired"]),
        "loadgen.lag_p99_ms": percentile(phase.lag_ms, 99),
        "loadgen.error_rate": phase.failed / max(phase.attempted, 1),
        "loadgen.deadline_miss_rate": phase.misses / max(phase.attempted, 1) if phase.lag_ms else 0.0,
        "trace.overhead": percentile(phase.latencies_ms, 50) / plain_p50_ms - 1.0,
    }
    for stage, value in stages.items():
        metrics[f"server.{stage}_ms"] = value
    return metrics


def install_client_spans(recorder: Recorder) -> None:
    recorder.wrap(protocol, "decode_payload", "client.decode")
    for name in ("encode_frame", "encode_frame_auto", "encode_binary_frame"):
        recorder.wrap(protocol, name, "client.encode")


def run_workload(root: str, workload: str, seed: int, seconds: float, traced: bool, work_dir: str, log) -> dict:
    """Run one serving workload once; returns the result dict for ``run.py``."""
    oracle = reference_predictor(seed)
    setups, checked_rows, phases = [], [], []
    # Untraced: three set-ups, the last server measured.  Traced: an
    # untraced server measured as the overhead baseline, then a traced one.
    plan = [True, True] if traced else [False] * (SETUP_REPEATS - 1) + [True]
    for index, measured in enumerate(plan):
        spans_on = traced and index == len(plan) - 1
        server = ServerProcess(root, workload, seed, spans_on, work_dir)
        try:
            setup_s, rows = first_prediction(server, workload, seed)
            setups.append(setup_s)
            log(f"server {index + 1}: set-up {setup_s:.3f} s")
            phase = None
            if measured:
                recorder = Recorder() if spans_on else None
                if recorder is not None:
                    install_client_spans(recorder)
                try:
                    # A traced run measures two servers: half the time each.
                    window = seconds / 2 if traced else seconds
                    phase = drive(server, workload, seed, window, spans_on, recorder)
                finally:
                    if recorder is not None:
                        recorder.restore()
            result = server.stop()
        finally:
            server.kill()
        batches = replay(oracle, seed, rows + (phase.rows if phase else []))
        checked_rows.append(batches)
        if phase is not None:
            phase.server = result
            phases.append((phase, recorder))
            log(
                f"server {index + 1}: {phase.attempted} requests, {phase.failed} failed, "
                f"p50 {percentile(phase.latencies_ms, 50):.3f} ms, {batches} batches replayed"
            )
    phase, recorder = phases[-1]
    record = {
        "setups_s": setups,
        "batches_replayed": checked_rows,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "deadline_misses": phase.misses,
        "error_rate": phase.failed / max(phase.attempted, 1),
        "frame_period_s": FRAME_PERIOD if workload == "serve-stream" else None,
    }
    out = {"attempted": phase.attempted, "failed": phase.failed, "record": record}
    if traced:
        plain_p50 = percentile(phases[0][0].latencies_ms, 50)
        out["metrics"] = layer_metrics(phase, recorder, plain_p50)
    else:
        out["metrics"] = end_to_end(phase, setups)
        record["deadline_miss_rate"] = phase.misses / max(phase.attempted, 1)
        record["latency_p90_ms"] = percentile(phase.latencies_ms, 90)
        record["latency_p99_ms"] = percentile(phase.latencies_ms, 99)
    return out
