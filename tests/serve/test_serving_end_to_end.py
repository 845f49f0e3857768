"""End-to-end serving: stream sim-domain points, match offline predictions.

Synthetic observations from the social-force simulator stream through a real
:class:`AsyncServingServer` (``observe`` per frame, then a frame-mode
``predict``), and every agent's ``[K, pred_len, 2]`` world-frame futures
replay to 1e-6 through the offline ``predict_samples`` path: each served
batch is recomposed from its ``batch_id``/``row`` meta with
``TrajectoryDataset.collate`` and the noise stream
``default_rng((seed, batch_id))``.  No gradient state is allocated anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import OBS_LEN, PRED_LEN, TrajectoryDataset, TrajectorySample
from repro.serve import AsyncServingServer, Predictor, ServerThread, ServingClient
from repro.sim.generator import simulate_scene

SEED = 11
NUM_SAMPLES = 2


@pytest.fixture(scope="module")
def streamed_scene():
    scene = simulate_scene("sdd", num_frames=OBS_LEN + PRED_LEN + 4, rng=9)
    start = 2
    window = OBS_LEN + PRED_LEN
    # One frame past the window, so the stream can slide once.
    tracks = [t for t in scene.tracks if t.covers(start, start + window + 1)]
    assert len(tracks) >= 2, "simulation produced too few full tracks"
    return tracks, start


def offline_dataset(tracks, start) -> TrajectoryDataset:
    """One offline sample per track, for the same windows the stream carries."""
    mid = start + OBS_LEN
    samples = []
    for track in tracks:
        neighbours = [
            other.slice_frames(start, mid)
            for other in tracks
            if other.agent_id != track.agent_id
        ]
        samples.append(
            TrajectorySample(
                obs=track.slice_frames(start, mid),
                future=track.slice_frames(mid, mid + PRED_LEN),
                neighbours=np.stack(neighbours)
                if neighbours
                else np.zeros((0, OBS_LEN, 2)),
                domain="sdd",
            )
        )
    return TrajectoryDataset(samples, domains=["sdd"])


def observe_frames(client, tracks, frames) -> None:
    for frame in frames:
        client.observe(
            "m", frame, {t.agent_id: t.positions[frame - t.start_frame] for t in tracks}
        )


def assert_replays_offline(method, served, tracks, start) -> set[int]:
    """Replay each served batch of the window starting at ``start`` offline.

    Every batch is recomposed from its rows' meta.  Returns the batch ids
    seen.
    """
    assert set(served) == {str(t.agent_id) for t in tracks}
    dataset = offline_dataset(tracks, start)
    by_batch: dict[int, list[tuple[int, int]]] = {}
    for index, track in enumerate(tracks):
        samples, meta = served[str(track.agent_id)]
        assert samples.shape == (NUM_SAMPLES, PRED_LEN, 2)
        by_batch.setdefault(meta["batch_id"], []).append((meta["row"], index))
    for batch_id, rows in by_batch.items():
        rows.sort()
        assert [row for row, _ in rows] == list(range(len(rows)))
        batch = dataset.collate([index for _, index in rows])
        offline = method.predict(
            batch, NUM_SAMPLES, np.random.default_rng((SEED, batch_id))
        )
        offline_world = offline + batch.origins[None, :, None, :]
        for row, index in rows:
            samples, _ = served[str(tracks[index].agent_id)]
            np.testing.assert_allclose(samples, offline_world[:, row], atol=1e-6)
    return set(by_batch)


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@pytest.mark.parametrize("fixture_name", ["trained_vanilla", "trained_adaptraj"])
def test_served_frames_replay_offline(fixture_name, compile, streamed_scene, request):
    """Two consecutive frames: the second slides every window by one and
    its batches take new ids; both frames replay offline."""
    method = request.getfixturevalue(fixture_name)
    tracks, start = streamed_scene
    mid = start + OBS_LEN
    module = method.module()
    module.zero_grad()
    assert module.training  # training-mode by default

    predictor = Predictor(method, compile=compile)
    server = AsyncServingServer(max_in_flight=64, seed=SEED)
    server.add_model("m", predictor, num_samples=NUM_SAMPLES, max_batch_size=64)
    with ServerThread(server):
        with ServingClient.connect(*server.address) as client:
            observe_frames(client, tracks, range(start, mid))
            first = client.predict_frame("m", mid - 1, return_meta=True)
            observe_frames(client, tracks, [mid])
            second = client.predict_frame("m", mid, return_meta=True)
    first_ids = assert_replays_offline(method, first, tracks, start)
    second_ids = assert_replays_offline(method, second, tracks, start + 1)
    assert min(second_ids) > max(first_ids)

    # Inference mode: no parameter grads, and the module tree keeps the
    # training state it had before serving.
    assert all(p.grad is None for p in module.parameters())
    assert module.training
    if compile:
        stats = predictor.compile_stats()
        assert stats["broken"] is None and stats["plans"] > 0, stats


def test_a_frame_is_served_from_one_chunk(trained_vanilla, streamed_scene):
    """A frame-mode predict queues all of its rows before it drains, so at
    ``max_wait=0`` (the ``add_model`` default) a frame of N ready agents pops
    as one chunk of N rows on the one in-process slot, not as a chunk of 1
    followed by the other N - 1."""
    tracks, start = streamed_scene
    assert len(tracks) >= 3
    mid = start + OBS_LEN
    server = AsyncServingServer(max_in_flight=64, seed=SEED)
    server.add_model(
        "m", Predictor(trained_vanilla), num_samples=NUM_SAMPLES, max_wait=0.0
    )
    with ServerThread(server):
        with ServingClient.connect(*server.address) as client:
            observe_frames(client, tracks, range(start, mid))
            first = client.predict_frame("m", mid - 1, return_meta=True)
            observe_frames(client, tracks, [mid])
            second = client.predict_frame("m", mid, return_meta=True)
            stats = client.stats()["models"]["m"]
    for batch_id, served in enumerate([first, second]):
        metas = [meta for _, meta in served.values()]
        assert {meta["batch_id"] for meta in metas} == {batch_id}
        assert {meta["batch_size"] for meta in metas} == {len(tracks)}
    assert stats["total_batches"] == 2
    assert stats["mean_batch_size"] == len(tracks)
    assert assert_replays_offline(trained_vanilla, first, tracks, start) == {0}
    assert assert_replays_offline(trained_vanilla, second, tracks, start + 1) == {1}
