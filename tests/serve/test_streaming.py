"""Streaming-window tests: fill/gap semantics, readiness, neighbour assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import StreamingWindows


def feed_track(windows: StreamingWindows, agent_id, start: int, points: np.ndarray):
    for offset, (x, y) in enumerate(points):
        windows.push(agent_id, start + offset, x, y)


class TestWindowLifecycle:
    def test_not_ready_until_full(self):
        windows = StreamingWindows(obs_len=4)
        for frame in range(3):
            windows.push("a", frame, float(frame), 0.0)
            assert windows.ready_agents(frame) == []
        windows.push("a", 3, 3.0, 0.0)
        assert windows.ready_agents(3) == ["a"]

    def test_window_slides(self):
        windows = StreamingWindows(obs_len=3)
        feed_track(windows, "a", 0, [(float(f), 0.0) for f in range(5)])
        [request] = windows.requests(4)
        np.testing.assert_array_equal(request.obs[:, 0], [2.0, 3.0, 4.0])

    def test_stale_agent_not_ready(self):
        windows = StreamingWindows(obs_len=3)
        feed_track(windows, "a", 0, [(0.0, 0.0)] * 3)
        assert windows.ready_agents(2) == ["a"]
        # No point at frame 3: the agent's window is not current there.
        assert windows.ready_agents(3) == []

    def test_gap_resets_window(self):
        windows = StreamingWindows(obs_len=3)
        feed_track(windows, "a", 0, [(0.0, 0.0)] * 3)
        windows.push("a", 5, 9.0, 9.0)  # frames 3-4 missing
        assert windows.ready_agents(5) == []
        windows.push("a", 6, 9.0, 9.0)
        windows.push("a", 7, 9.0, 9.0)
        assert windows.ready_agents(7) == ["a"]

    def test_duplicate_frame_keeps_latest(self):
        windows = StreamingWindows(obs_len=2)
        windows.push("a", 0, 1.0, 1.0)
        windows.push("a", 0, 2.0, 2.0)
        windows.push("a", 1, 3.0, 3.0)
        [request] = windows.requests(1)
        np.testing.assert_array_equal(request.obs, [[2.0, 2.0], [3.0, 3.0]])

    def test_drop_stale(self):
        windows = StreamingWindows(obs_len=2)
        feed_track(windows, "a", 0, [(0.0, 0.0)] * 2)
        feed_track(windows, "b", 0, [(1.0, 1.0)] * 2)
        windows.push("b", 2, 1.0, 1.0)
        feed_track(windows, "c", 10, [(2.0, 2.0)] * 2)
        assert windows.drop_stale(frame=5, max_age=3) == 1  # "a" last seen at 1
        assert windows.drop_stale(frame=11, max_age=3) == 1  # "b" last seen at 2
        assert windows.ready_agents(11) == ["c"]

    def test_readmitted_agent_emits_after_the_others(self):
        """Emission follows first-observation order.  An agent dropped as
        stale and observed again counts as new, so it moves to the end; a
        gap alone keeps its place."""
        windows = StreamingWindows(obs_len=1)
        windows.push_frame(0, {"a": (0.0, 0.0), "b": (1.0, 1.0), "c": (2.0, 2.0)})
        windows.push_frame(5, {"b": (1.0, 1.0), "c": (2.0, 2.0)})
        assert windows.drop_stale(frame=5, max_age=3) == 1  # "a"
        windows.push_frame(7, {"c": (2.0, 2.0), "b": (1.0, 1.0), "a": (0.0, 0.0)})
        assert windows.ready_agents(7) == ["b", "c", "a"]


class TestConcurrentServingEdgeCases:
    """Edge cases the network front-end hits: gap-reset races, duplicate
    deliveries, and agent-id collisions across clients."""

    def test_gap_reset_then_immediate_reobservation(self):
        """A gap must discard the stale history entirely: the rebuilt window
        becomes ready only after obs_len fresh consecutive frames, and its
        contents are exclusively post-gap points."""
        windows = StreamingWindows(obs_len=3)
        feed_track(windows, "a", 0, [(float(f), 0.0) for f in range(3)])
        assert windows.ready_agents(2) == ["a"]
        # Network hiccup: frames 3-5 lost; the stream resumes at 6.
        windows.push("a", 6, 100.0, 0.0)
        assert windows.ready_agents(6) == []  # one fresh point != a window
        windows.push("a", 7, 101.0, 0.0)
        assert windows.ready_agents(7) == []
        windows.push("a", 8, 102.0, 0.0)
        [request] = windows.requests(8)
        # No pre-gap coordinate may leak into the rebuilt window.
        np.testing.assert_array_equal(request.obs[:, 0], [100.0, 101.0, 102.0])

    def test_gap_reset_midfill_discards_partial_history(self):
        """A gap while the window is still filling also restarts the count."""
        windows = StreamingWindows(obs_len=3)
        windows.push("a", 0, 0.0, 0.0)
        windows.push("a", 1, 1.0, 0.0)
        windows.push("a", 3, 9.0, 0.0)  # frame 2 missing
        windows.push("a", 4, 10.0, 0.0)
        assert windows.ready_agents(4) == []  # only 2 post-gap points
        windows.push("a", 5, 11.0, 0.0)
        [request] = windows.requests(5)
        np.testing.assert_array_equal(request.obs[:, 0], [9.0, 10.0, 11.0])

    def test_duplicate_agent_frame_update_on_full_window(self):
        """Redelivery of the current frame (retry, at-least-once transport)
        overwrites that frame's point without shifting the window."""
        windows = StreamingWindows(obs_len=3)
        feed_track(windows, "a", 0, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        windows.push("a", 2, 2.5, 0.5)  # corrected measurement for frame 2
        [request] = windows.requests(2)
        np.testing.assert_array_equal(
            request.obs, [[0.0, 0.0], [1.0, 0.0], [2.5, 0.5]]
        )
        # Still exactly one window; the duplicate did not advance time.
        assert windows.ready_agents(3) == []

    def test_duplicate_updates_do_not_inflate_readiness(self):
        """N deliveries of one frame must not count as N distinct frames."""
        windows = StreamingWindows(obs_len=3)
        for _ in range(5):
            windows.push("a", 0, 1.0, 1.0)
        assert windows.ready_agents(0) == []  # one real frame observed

    def test_interleaved_agent_id_collision_single_instance(self):
        """Two traffic sources sharing one StreamingWindows and one agent id
        interleave into a single (last-write-wins) history — the documented
        hazard that makes the server keep windows per connection."""
        windows = StreamingWindows(obs_len=2)
        # Source 1 and source 2 both claim agent id "x" at the same frames.
        windows.push("x", 0, 0.0, 0.0)    # source 1
        windows.push("x", 0, 50.0, 50.0)  # source 2 overwrites frame 0
        windows.push("x", 1, 1.0, 0.0)    # source 1
        windows.push("x", 1, 51.0, 50.0)  # source 2 overwrites frame 1
        [request] = windows.requests(1)
        # One coherent (if wrong-for-source-1) window; never a mix that
        # fabricates a jump within one frame, and never two windows.
        np.testing.assert_array_equal(request.obs, [[50.0, 50.0], [51.0, 50.0]])
        assert windows.num_agents == 1

    def test_interleaved_multi_client_isolation_with_separate_instances(self):
        """The server-side arrangement: one StreamingWindows per client makes
        colliding agent ids structurally independent."""
        client_one = StreamingWindows(obs_len=2)
        client_two = StreamingWindows(obs_len=2)
        for frame in range(2):
            # Interleaved arrival order, same agent id, different tracks.
            client_one.push("agent", frame, float(frame), 0.0)
            client_two.push("agent", frame, 50.0 + frame, 9.0)
        [one] = client_one.requests(1)
        [two] = client_two.requests(1)
        np.testing.assert_array_equal(one.obs, [[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(two.obs, [[50.0, 9.0], [51.0, 9.0]])
        assert one.num_neighbours == 0 and two.num_neighbours == 0

    def test_out_of_order_replay_resets_like_a_gap(self):
        """A frame arriving from the past (replayed backlog) cannot extend a
        window; it restarts the history at that point."""
        windows = StreamingWindows(obs_len=2)
        windows.push("a", 5, 5.0, 0.0)
        windows.push("a", 6, 6.0, 0.0)
        assert windows.ready_agents(6) == ["a"]
        windows.push("a", 3, 3.0, 0.0)  # stale replay
        assert windows.ready_agents(6) == []
        assert windows.ready_agents(3) == []  # and not ready in the past either
        windows.push("a", 4, 4.0, 0.0)
        [request] = windows.requests(4)
        np.testing.assert_array_equal(request.obs[:, 0], [3.0, 4.0])


class TestRequestAssembly:
    def test_neighbours_are_other_ready_agents(self):
        windows = StreamingWindows(obs_len=2)
        feed_track(windows, "a", 0, [(0.0, 0.0), (1.0, 0.0)])
        feed_track(windows, "b", 0, [(5.0, 5.0), (6.0, 5.0)])
        feed_track(windows, "c", 1, [(9.0, 9.0)])  # not ready yet
        requests = {r.request_id[0]: r for r in windows.requests(1)}
        assert set(requests) == {"a", "b"}
        assert requests["a"].num_neighbours == 1
        np.testing.assert_array_equal(
            requests["a"].neighbours[0], [[5.0, 5.0], [6.0, 5.0]]
        )
        np.testing.assert_array_equal(
            requests["b"].neighbours[0], [[0.0, 0.0], [1.0, 0.0]]
        )

    def test_max_neighbours_keeps_nearest(self):
        windows = StreamingWindows(obs_len=1, max_neighbours=2)
        windows.push("focal", 0, 0.0, 0.0)
        for i, distance in enumerate([30.0, 10.0, 20.0]):
            windows.push(f"n{i}", 0, distance, 0.0)
        request = windows.requests(0)[0]
        assert request.num_neighbours == 2
        np.testing.assert_array_equal(
            sorted(request.neighbours[:, -1, 0]), [10.0, 20.0]
        )

    def test_request_ids_carry_frame(self):
        windows = StreamingWindows(obs_len=1)
        windows.push("a", 7, 0.0, 0.0)
        [request] = windows.requests(7)
        assert request.request_id == ("a", 7)

    def test_no_ready_agents_empty(self):
        windows = StreamingWindows(obs_len=4)
        assert windows.requests(0) == []

    def test_rejects_bad_obs_len(self):
        with pytest.raises(ValueError):
            StreamingWindows(obs_len=0)

    def test_request_buffers_are_copies(self):
        """Emitted windows must not alias the live ring buffers."""
        windows = StreamingWindows(obs_len=2)
        feed_track(windows, "a", 0, [(0.0, 0.0), (1.0, 0.0)])
        feed_track(windows, "b", 0, [(2.0, 0.0), (3.0, 0.0)])
        [ra, rb] = windows.requests(1)
        windows.push("a", 2, 99.0, 99.0)
        np.testing.assert_array_equal(ra.obs[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(rb.neighbours[0][:, 0], [0.0, 1.0])


class TestAgentWindowPushEdgeCases:
    """`_AgentWindow.push` delivery pathologies the PR 4 suite missed.

    The invariant under test: whenever a window is emitted (``window_at``
    returns an array), it equals the **last obs_len contiguously-delivered
    points** — duplicates overwrite, anything non-contiguous restarts the
    window from the offending point.
    """

    @staticmethod
    def point(value):
        return np.array((float(value), -float(value)))

    def make_window(self, obs_len=4):
        from repro.serve.streaming import _AgentWindow

        return _AgentWindow(obs_len)

    def feed(self, window, deliveries):
        """Push ``(frame, value)`` pairs, tracking the contiguity oracle."""
        contiguous: list[tuple[int, np.ndarray]] = []
        for frame, value in deliveries:
            xy = self.point(value)
            window.push(frame, xy)
            if contiguous and frame == contiguous[-1][0]:
                contiguous[-1] = (frame, xy)  # duplicate: last write wins
            elif contiguous and frame == contiguous[-1][0] + 1:
                contiguous.append((frame, xy))
            else:
                contiguous = [(frame, xy)]  # gap / replay: restart here
        return contiguous

    def assert_matches_oracle(self, window, contiguous, obs_len=4):
        frame = contiguous[-1][0]
        if len(contiguous) >= obs_len:
            expected = np.stack([xy for _, xy in contiguous[-obs_len:]])
            emitted = window.window_at(frame)
            assert emitted is not None, "full contiguous history must be ready"
            np.testing.assert_array_equal(emitted, expected)
        else:
            assert window.window_at(frame) is None

    def test_duplicate_frame_while_empty(self):
        """A duplicate delivered right after a gap reset (filled == 0) must
        restart the window at that point, not corrupt the empty buffer."""
        window = self.make_window()
        window.push(10, self.point(1))
        window.push(12, self.point(2))  # gap: resets, window = [p12]
        assert window.filled == 1
        # Deliver frame 12 again while the restart is still mid-fill.
        contiguous = self.feed(window, [(12, 9), (13, 3), (14, 4), (15, 5)])
        # NB: feed() restarted its oracle at (12, 9) — exactly what push does.
        assert window.filled == 4
        self.assert_matches_oracle(window, contiguous)

    def test_duplicate_first_delivery_of_fresh_window(self):
        window = self.make_window()
        contiguous = self.feed(
            window, [(5, 0), (5, 1), (6, 2), (7, 3), (8, 4)]
        )
        self.assert_matches_oracle(window, contiguous)
        # The duplicate overwrote in place: frame 5 contributes value 1.
        np.testing.assert_array_equal(window.buffer[0], self.point(1))

    def test_out_of_order_replay_restarts_from_stale_point(self):
        """A frame earlier than ``last_frame`` is a replay: the window must
        restart from the stale point and only re-fill contiguously."""
        window = self.make_window()
        self.feed(window, [(0, 0), (1, 1), (2, 2), (3, 3)])
        assert window.window_at(3) is not None
        contiguous = self.feed(window, [(1, 11)])  # replay of frame 1
        assert window.filled == 1
        assert window.window_at(1) is None  # nothing is ready mid-restart
        contiguous = self.feed(window, [(2, 12), (3, 13), (4, 14)])
        contiguous = [(1, self.point(11))] + contiguous[-3:]
        # feed() restarted its own oracle at (2, 12) because it only saw the
        # tail; rebuild the true contiguous run including the replayed 1.
        expected = np.stack(
            [self.point(v) for v in (11, 12, 13, 14)]
        )
        np.testing.assert_array_equal(window.window_at(4), expected)

    def test_duplicate_then_gap(self):
        """A duplicate followed by a gap must reset; the duplicate must not
        mask the discontinuity."""
        window = self.make_window()
        self.feed(window, [(0, 0), (1, 1), (1, 9), (5, 5)])
        assert window.filled == 1
        assert window.window_at(5) is None
        contiguous = self.feed(window, [(6, 6), (7, 7), (8, 8)])
        expected = np.stack([self.point(v) for v in (5, 6, 7, 8)])
        np.testing.assert_array_equal(window.window_at(8), expected)

    def test_messy_delivery_sequence_against_oracle(self):
        """Duplicates, replays, and gaps interleaved: every emission along
        the way must equal the last obs_len contiguous points."""
        deliveries = [
            (0, 0), (1, 1), (1, 2), (2, 3), (3, 4), (4, 5),     # dup mid-fill
            (2, 6),                                             # replay
            (3, 7), (4, 8), (5, 9), (5, 10), (6, 11),           # rebuild + dup
            (9, 12),                                            # gap
            (10, 13), (11, 14), (12, 15), (13, 16), (13, 17),   # rebuild + dup
        ]
        window = self.make_window()
        contiguous: list[tuple[int, np.ndarray]] = []
        for frame, value in deliveries:
            contiguous = self.feed_one(window, contiguous, frame, value)
            self.assert_matches_oracle(window, contiguous)

    def feed_one(self, window, contiguous, frame, value):
        xy = self.point(value)
        window.push(frame, xy)
        contiguous = list(contiguous)
        if contiguous and frame == contiguous[-1][0]:
            contiguous[-1] = (frame, xy)
        elif contiguous and frame == contiguous[-1][0] + 1:
            contiguous.append((frame, xy))
        else:
            contiguous = [(frame, xy)]
        return contiguous

    def test_streaming_windows_surface_the_same_behaviour(self):
        """The same invariant through the public StreamingWindows API."""
        windows = StreamingWindows(obs_len=3)
        for frame, value in [(0, 0), (1, 1), (1, 9), (3, 3)]:
            windows.push("a", frame, float(value), -float(value))
        assert windows.ready_agents(3) == []  # gap after the duplicate: reset
        windows.push("a", 4, 4.0, -4.0)
        windows.push("a", 5, 5.0, -5.0)
        assert windows.ready_agents(5) == ["a"]
        [request] = windows.requests(5)
        expected = np.array([[3.0, -3.0], [4.0, -4.0], [5.0, -5.0]])
        np.testing.assert_array_equal(request.obs, expected)
