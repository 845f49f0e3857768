"""The server process of the serving workloads.

``python -m perfbench.server_proc --config JSON`` builds an
``AsyncServingServer`` with one workload's configuration, prints one ready
line (``{"port": ...}``) and serves until a ``stop`` line arrives on stdin
(or stdin closes).  It then prints one result line with the server-side
spans of a traced run and exits.

In a traced run the server process wraps the protocol codec, the batcher's
collation, the predictor, the worker-plane call and the streaming windows.
The worker child is built by :func:`traced_seeded_predictor`, which wraps
``seeded_predictor`` and writes the child's spans when it receives
``SIGUSR1``: the parent SIGKILLs its children on stop, so they cannot write
at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from repro.baselines import build_method
from repro.nn.compile import Plan
from repro.serve import (
    AsyncServingServer,
    Predictor,
    ServerThread,
    ServingClient,
    StreamingWindows,
    WorkerPredictor,
    WorkerSpec,
    batcher,
    protocol,
)
from repro.serve.workers import seeded_predictor

from perfbench.spans import Recorder

MODEL = "pecnet-vanilla"
NUM_SAMPLES = 20
MAX_WAIT = 0.002
#: serve-stream answers one frame (8 agents) per chunk, so every chunk has
#: the same padded shape and replays one compiled plan.
STREAM_AGENTS = 8
CHILD_DUMP_TIMEOUT = 20.0
#: Name of the thread ``ServerThread`` runs the event loop on.
LOOP_THREAD = "repro-serve-loop"


def traced_seeded_predictor(spans_path: str, **kwargs):
    """Worker factory: ``seeded_predictor`` with spans in the child."""
    recorder = Recorder()
    recorder.wrap(Predictor, "predict_world", "predictor.predict")
    recorder.wrap(Plan, "run", "compile.plan_run")
    predictor = seeded_predictor(**kwargs)

    def dump(signum, frame):
        stats = predictor.compile_stats()
        stats.pop("plans_detail", None)
        tmp = spans_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"spans": recorder.snapshot(), "compile": stats}, handle)
        os.replace(tmp, spans_path)

    signal.signal(signal.SIGUSR1, dump)
    return predictor


def install_server_spans(recorder: Recorder) -> None:
    def rows(args) -> str:
        return f"rows:{args[1].obs.shape[0]}"

    def plane(name: str):
        # Client-facing frames are coded on the event-loop thread; frames
        # on the executor threads belong to the worker plane.
        def label(args) -> str:
            on_loop = threading.current_thread().name == LOOP_THREAD
            return f"{name}@{'loop' if on_loop else 'pool'}"

        return label

    recorder.wrap(protocol, "decode_payload", "server.decode", label=plane("server.decode"))
    for name in ("encode_frame", "encode_frame_auto", "encode_binary_frame"):
        recorder.wrap(protocol, name, "server.encode", label=plane("server.encode"))
    recorder.wrap(batcher, "collate_requests", "batcher.collate")
    recorder.wrap(Predictor, "predict_world", "predictor.predict", label=rows)
    recorder.wrap(WorkerPredictor, "predict_world", "workers.call", label=rows)
    recorder.wrap(StreamingWindows, "push_frame", "streaming.push")
    recorder.wrap(StreamingWindows, "requests", "streaming.requests")


def build_server(config: dict):
    seed = int(config["seed"])
    server = AsyncServingServer(seed=seed)
    if config["workload"] == "serve-explicit":
        server.add_model(
            MODEL,
            Predictor(build_method("vanilla", "pecnet", num_domains=1, rng=seed)),
            num_samples=NUM_SAMPLES,
            max_wait=MAX_WAIT,
        )
        return server
    kwargs = {"seed": seed, "compile": True}
    if config["traced"]:
        factory = "perfbench.server_proc:traced_seeded_predictor"
        kwargs["spans_path"] = config["child_spans"]
    else:
        factory = "repro.serve.workers:seeded_predictor"
    server.add_model(
        MODEL,
        WorkerSpec(factory=factory, kwargs=kwargs),
        workers=1,
        num_samples=NUM_SAMPLES,
        max_batch_size=STREAM_AGENTS,
        max_wait=MAX_WAIT,
    )
    return server


def collect_child_spans(host: str, port: int, path: str) -> dict | None:
    """Ask the worker child to write its spans; None when it has no child."""
    with ServingClient.connect(host, port) as client:
        replicas = client.stats()["models"][MODEL]["replicas"]
    pids = [r["worker"]["pid"] for r in replicas if r.get("worker")]
    if not pids:
        return None
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + CHILD_DUMP_TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"worker child did not write its spans to {path}")
        time.sleep(0.01)
    with open(path) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="workload configuration (JSON)")
    config = json.loads(parser.parse_args(argv).config)

    recorder = Recorder()
    if config["traced"]:
        install_server_spans(recorder)
    thread = ServerThread(build_server(config))
    host, port = thread.start()
    print(json.dumps({"port": port}), flush=True)
    result: dict = {}
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        if config["traced"]:
            result["child"] = collect_child_spans(host, port, config["child_spans"])
    finally:
        thread.stop()
    result["spans"] = recorder.snapshot()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
