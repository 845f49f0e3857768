"""Serving demo: train, publish, serve over TCP, stream, shut down.

1. train a small AdapTraj model on two source domains and publish it to a
   versioned :class:`repro.serve.ModelRegistry`,
2. start an :class:`AsyncServingServer` for it on a loopback port (the event
   loop lives on a daemon thread via :class:`ServerThread` — a standalone
   deployment would run ``python -m repro.serve.server`` instead),
3. connect a blocking :class:`ServingClient`, check ``health``, stream an
   unseen domain's frames through ``observe``, and fetch world-frame sampled
   futures with frame-mode ``predict``,
4. read the server's ``stats`` (batching effectiveness, latency, in-flight
   peaks) and shut everything down cleanly.

Run:  PYTHONPATH=src python examples/server_demo.py

CI runs this script as its "Server demo" step: it exercises the full wire
path (framing, observe/predict/stats/health, graceful shutdown) end to end.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np

from repro.baselines import build_method
from repro.core import TrainConfig
from repro.data import DataConfig, load_multi_domain
from repro.serve import AsyncServingServer, ModelRegistry, ServerThread, ServingClient
from repro.serve.protocol import encode_frame, request
from repro.sim.generator import simulate_scene

SOURCES = ["eth_ucy", "lcas"]
TARGET = "sdd"  # unseen domain the service will face
DOMAINS = [*SOURCES, TARGET]
MODEL = "adaptraj-pecnet"


def main() -> None:
    # 1. Train (tiny budget) and publish.
    data_config = DataConfig(num_scenes=1, frames_per_scene=70, stride=3)
    train = load_multi_domain(SOURCES, data_config, domains=DOMAINS).train
    learner = build_method(
        "adaptraj",
        "pecnet",
        num_domains=len(SOURCES),
        train_config=TrainConfig(epochs=4, batch_size=32),
        rng=7,
    )
    learner.fit(train)
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-registry-"))
    version = registry.publish(MODEL, learner)
    print(f"published {MODEL} v{version}")

    # 2. Serve it over TCP.
    server = AsyncServingServer(max_in_flight=128, seed=0)
    server.add_model(
        MODEL, registry.load(MODEL), num_samples=5, max_batch_size=32, max_wait=0.002
    )
    with ServerThread(server) as thread:
        host, port = server.address
        print(f"serving {MODEL} on {host}:{port}")

        # 3. Stream an unseen-domain scene frame by frame over the wire.
        with ServingClient.connect(host, port) as client:
            health = client.health()
            print(f"health: {health}")
            assert health["status"] == "ok" and health["models"] == [MODEL]

            # One example exchange, shown as the raw frames on the wire.
            message = request("observe", 1, model=MODEL, frame=0,
                              positions={"demo": [1.0, 2.0]})
            print(f"wire frame ({len(encode_frame(message))} bytes): "
                  f"{json.dumps(message)}")

            scene = simulate_scene(TARGET, num_frames=30, rng=11)
            latest: dict = {}
            for frame in range(scene.num_frames):
                client.observe(
                    MODEL,
                    frame,
                    {
                        track.agent_id: track.positions[frame - track.start_frame]
                        for track in scene.agents_at(frame)
                    },
                )
                futures = client.predict_frame(MODEL, frame)
                latest.update(futures)
                if futures:
                    print(f"frame {frame:>2}: predicted {len(futures)} agents")
            assert latest, "no agent ever accumulated a full observation window"

            # 4. Inspect one agent and the server-side counters.
            agent_id, samples = next(iter(latest.items()))
            assert samples.shape[0] == 5 and samples.shape[2] == 2
            print(f"\nagent {agent_id}: {samples.shape[0]} sampled futures, "
                  f"first predicted position {np.round(samples[0, 0], 2)}, "
                  f"endpoint spread {np.round(samples[:, -1].std(axis=0), 3)}")
            stats = client.stats()
            model_stats = stats["models"][MODEL]
            print(f"server: {model_stats['total_completed']} predictions in "
                  f"{model_stats['total_batches']} batches "
                  f"(mean batch {model_stats['mean_batch_size']}, "
                  f"mean latency {model_stats['latency']['mean_s'] * 1e3:.2f} ms, "
                  f"in-flight peak {stats['server']['in_flight_peak']})")
            assert model_stats["total_completed"] > 0

        # 5. The same request over the v2 binary encoding: the samples ride
        # in a raw float tail instead of JSON, shrinking large-K responses.
        # (Values differ between the two calls — each flush draws fresh
        # per-batch noise — so compare shape and size, not samples.)
        window = np.cumsum(np.full((8, 2), 0.1), axis=0)
        with ServingClient.connect(host, port) as plain:
            plain_samples = plain.predict(MODEL, window)
            json_bytes = plain.last_response_bytes
        with ServingClient.connect(host, port, binary=True) as binary_client:
            assert binary_client.supports_binary()
            binary_samples = binary_client.predict(MODEL, window)
            binary_bytes = binary_client.last_response_bytes
        assert binary_samples.shape == plain_samples.shape
        assert binary_bytes < json_bytes
        print(f"binary predict response: {binary_bytes} bytes "
              f"vs {json_bytes} JSON "
              f"({binary_bytes / json_bytes:.0%} of the JSON payload)")
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
