"""Property tests for ``StreamingWindows`` against a reference model.

The reference keeps each agent's current contiguous run of ``(frame,
point)`` deliveries in a plain dict: a duplicate frame overwrites the last
point, the next frame extends the run, and any other frame (a gap or an
out-of-order replay) restarts it.  Over generated delivery scripts with
gaps, duplicates and replays, ``StreamingWindows`` must agree with it on
which agents are ready, their windows, their neighbours and stale eviction.
``test_streaming.py`` checks fixed examples of the same rules.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.streaming import StreamingWindows

AGENTS = ("a", "b", "c", "d", "e")

# Small integers make equal distances (ties) common; floats cover the rest.
coordinates = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class ReferenceStreams:
    """Per-agent contiguous runs; insertion-ordered like the real windows."""

    def __init__(self, obs_len: int) -> None:
        self.obs_len = obs_len
        self.runs: dict[str, list[tuple[int, np.ndarray]]] = {}

    def push(self, agent: str, frame: int, xy: np.ndarray) -> None:
        run = self.runs.setdefault(agent, [])
        if run and frame == run[-1][0]:
            run[-1] = (frame, xy)  # duplicate delivery: the latest point wins
        elif run and frame == run[-1][0] + 1:
            run.append((frame, xy))
        else:
            run[:] = [(frame, xy)]  # first point, gap or replay: restart

    def window(self, agent: str, frame: int) -> np.ndarray | None:
        run = self.runs[agent]
        if run[-1][0] != frame or len(run) < self.obs_len:
            return None
        return np.stack([xy for _, xy in run[-self.obs_len :]])

    def ready(self, frame: int) -> list[str]:
        return [agent for agent in self.runs if self.window(agent, frame) is not None]

    def drop_stale(self, frame: int, max_age: int) -> int:
        stale = [agent for agent, run in self.runs.items() if frame - run[-1][0] > max_age]
        for agent in stale:
            del self.runs[agent]
        return len(stale)


@st.composite
def scripts(draw):
    """``obs_len``, ``max_neighbours`` and a list of operations.

    Each push delivers one frame for some agents.  Frames mostly advance by
    one, so windows fill, with repeats (duplicates), jumps (gaps) and steps
    back (replays) mixed in; about one operation in six evicts stale agents
    at the current frame instead.
    """
    obs_len = draw(st.integers(1, 4))
    max_neighbours = draw(st.one_of(st.none(), st.integers(0, 3)))
    frame = draw(st.integers(0, 5))
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 5)) == 0:
            ops.append(("drop_stale", frame, draw(st.integers(0, 6))))
            continue
        frame = max(0, frame + draw(st.sampled_from([1, 1, 1, 0, 2, 3, -1, -2])))
        agents = draw(st.lists(st.sampled_from(AGENTS), min_size=1, max_size=5, unique=True))
        points = {agent: (draw(coordinates), draw(coordinates)) for agent in agents}
        ops.append(("push", frame, points))
    return obs_len, max_neighbours, ops


def distances(windows: np.ndarray, focal: np.ndarray) -> np.ndarray:
    return np.linalg.norm(windows[:, -1, :] - focal[-1][None, :], axis=1)


def check_neighbours(emitted: np.ndarray, others: list[np.ndarray], focal, cap) -> None:
    """``emitted`` is every other ready window in insertion order, or, past
    the cap, the ``cap`` nearest ones, nearest first (ties in any order)."""
    if cap is None or len(others) <= cap:
        assert emitted.shape[0] == len(others)
        for got, want in zip(emitted, others):
            np.testing.assert_array_equal(got, want)
        return
    assert emitted.shape[0] == cap
    candidates = np.stack(others)
    want = np.sort(distances(candidates, focal))[:cap]
    np.testing.assert_array_equal(distances(emitted, focal), want)
    remaining = list(others)
    for window in emitted:
        match = next(i for i, other in enumerate(remaining) if np.array_equal(window, other))
        remaining.pop(match)


@settings(max_examples=100, deadline=None)
@given(scripts())
def test_windows_follow_the_reference_model(script):
    obs_len, max_neighbours, ops = script
    windows = StreamingWindows(obs_len=obs_len, max_neighbours=max_neighbours)
    reference = ReferenceStreams(obs_len)
    for kind, frame, arg in ops:
        if kind == "push":
            for agent, (x, y) in arg.items():
                windows.push(agent, frame, x, y)
                reference.push(agent, frame, np.array((x, y)))
        else:
            assert windows.drop_stale(frame, arg) == reference.drop_stale(frame, arg)
        assert list(windows._agents) == list(reference.runs)
        assert windows.num_agents == len(reference.runs)

        ready = reference.ready(frame)
        assert windows.ready_agents(frame) == ready
        requests = windows.requests(frame)
        assert [request.request_id for request in requests] == [(a, frame) for a in ready]
        ready_windows = [reference.window(agent, frame) for agent in ready]
        for index, request in enumerate(requests):
            np.testing.assert_array_equal(request.obs, ready_windows[index])
            others = ready_windows[:index] + ready_windows[index + 1 :]
            check_neighbours(request.neighbours, others, request.obs, max_neighbours)
