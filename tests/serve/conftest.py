"""Shared fixtures for the serving tests: small trained methods, request
builders, and ``execute_chunk`` and ``run_queued``, which run a bare
batcher's chunks in-process."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.baselines import build_method
from repro.core.config import TrainConfig
from repro.data.registry import DataConfig, load_multi_domain


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "server_config(predictor=..., model=..., **server_kwargs): "
        "configuration for the `running` AsyncServingServer fixture",
    )


#: Per-test wall-clock ceiling for the serve/chaos suites (seconds).  These
#: tests drive sockets, worker processes, and deliberate stalls — a bug that
#: hangs one of them must fail the test, never wedge the whole pipeline.
SERVE_TEST_TIMEOUT = float(os.environ.get("REPRO_SERVE_TEST_TIMEOUT", "120"))


@pytest.fixture(autouse=True)
def _serve_test_timeout(request):
    """Harness-level per-test timeout guard (SIGALRM).

    Skips itself when the platform has no SIGALRM, when not on the main
    thread, or when the ``pytest-timeout`` plugin is active (CI installs it;
    two owners of the same alarm would cancel each other's timers).
    """
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
        or request.config.pluginmanager.hasplugin("timeout")
    ):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"serve test exceeded {SERVE_TEST_TIMEOUT:.0f}s "
            "(REPRO_SERVE_TEST_TIMEOUT) — likely a hung socket/worker"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SERVE_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


TRAIN_DOMAINS = ["syi", "eth_ucy"]
ALL_DOMAINS = ["syi", "eth_ucy", "sdd"]

TINY_DATA = DataConfig(num_scenes=1, frames_per_scene=60, stride=4)
TINY_TRAIN = TrainConfig(epochs=1, batch_size=16, max_batches_per_epoch=2)


def train_tiny_method(method: str = "vanilla", backbone: str = "pecnet", seed: int = 0):
    """One-epoch training run: enough for weights to be non-initial."""
    splits = load_multi_domain(TRAIN_DOMAINS, TINY_DATA, domains=ALL_DOMAINS)
    learner = build_method(
        method,
        backbone,
        num_domains=len(TRAIN_DOMAINS),
        train_config=TINY_TRAIN,
        rng=seed,
    )
    learner.fit(splits.train)
    return learner


def execute_chunk(batcher, chunk, predictor=None) -> list:
    """Run one popped chunk here, as a server slot runs it.

    ``prepare_chunk``, then ``predict_world`` on ``predictor`` (the
    batcher's own by default), then ``complete_chunk``.  Returns the
    handles fulfilled with samples (none when every row expired).  A failed
    forward fails every handle of the chunk and propagates.
    """
    prepared = batcher.prepare_chunk(chunk, predictor)
    if prepared is None:
        return []
    batch, rng, stage = prepared
    predictor = batcher.predictor if predictor is None else predictor
    started = batcher.clock()
    try:
        samples = predictor.predict_world(batch, batcher.num_samples, rng)
    except BaseException as error:
        batcher.fail_chunk(chunk, error)
        raise
    stage["inference"] = batcher.clock() - started
    return batcher.complete_chunk(chunk, samples, stage)


def run_queued(batcher) -> list:
    """Release everything queued and run it here, one chunk at a time.

    What an in-process slot does, without the server: ``release``, then
    ``take_ready(limit=1)`` + :func:`execute_chunk` until the queue is empty.
    Returns every handle popped.  A failed forward fails its own chunk and
    propagates; the requests behind it stay queued, because a chunk is
    popped only when it is about to run.
    """
    batcher.release()
    popped = []
    while chunks := batcher.take_ready(limit=1):
        popped.extend(chunks[0].handles)
        execute_chunk(batcher, chunks[0])
    return popped


@pytest.fixture(scope="module")
def trained_vanilla():
    return train_tiny_method("vanilla")


@pytest.fixture(scope="module")
def trained_adaptraj():
    return train_tiny_method("adaptraj")


@pytest.fixture
def small_batch(trained_vanilla):
    from repro.data.registry import load_domain_dataset

    target = load_domain_dataset("sdd", TINY_DATA, domains=ALL_DOMAINS)
    return next(target.test.batches(6, shuffle=False))


@pytest.fixture
def request_factory(rng):
    """Build synthetic world-frame PredictRequests with a given neighbour count."""

    from repro.serve import PredictRequest

    def make(request_id, num_neighbours=2, obs_len=8, offset=0.0):
        obs = np.cumsum(rng.normal(size=(obs_len, 2)), axis=0) + offset
        neighbours = (
            np.cumsum(rng.normal(size=(num_neighbours, obs_len, 2)), axis=1) + offset
        )
        return PredictRequest(request_id=request_id, obs=obs, neighbours=neighbours)

    return make
