"""Client-side correctness: retry/backoff policy and transport poisoning.

The poisoning tests drive a hand-rolled raw-socket server so the timing of
the failure is fully controlled: a response delayed past the client's socket
timeout is the classic desynchronization trigger — the late frame is still
in flight when the next request goes out, and without poisoning every
subsequent exchange would be off by one.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import ProtocolError, RemoteServingError, RetryPolicy, ServingClient
from repro.serve import protocol


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5, seed=3)
        one = [policy.delay(i, np.random.default_rng(policy.seed)) for i in range(4)]
        two = [policy.delay(i, np.random.default_rng(policy.seed)) for i in range(4)]
        assert one == two  # same seed, same schedule
        assert all(0.5 <= delay <= 1.0 for delay in one)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


def make_stub_client(retry=None):
    """A client over one end of a socketpair; calls are monkeypatched."""
    a, b = socket.socketpair()
    b.close()
    client = ServingClient(a, retry=retry, sleep=lambda _: None)
    return client


class TestRetryLoop:
    """`call()` retry semantics, isolated from the network via _call_once."""

    def drive(self, client, outcomes):
        """Patch _call_once to pop scripted outcomes; returns sleep log."""
        sleeps: list[float] = []
        client._sleep = sleeps.append

        def scripted(op, fields):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._call_once = scripted
        return sleeps

    def test_overloaded_is_retried_with_backoff(self):
        policy = RetryPolicy(retries=3, base_delay=0.01, jitter=0.0)
        client = make_stub_client(retry=policy)
        sleeps = self.drive(
            client,
            [
                RemoteServingError(protocol.E_OVERLOADED, "busy"),
                RemoteServingError(protocol.E_OVERLOADED, "busy"),
                {"fine": True},
            ],
        )
        assert client.call("predict") == {"fine": True}
        assert sleeps == [0.01, 0.02]  # exponential, deterministic (jitter 0)

    def test_bad_request_is_never_retried(self):
        client = make_stub_client(retry=RetryPolicy(retries=5))
        sleeps = self.drive(
            client, [RemoteServingError(protocol.E_BAD_REQUEST, "malformed")]
        )
        with pytest.raises(RemoteServingError) as excinfo:
            client.call("predict")
        assert excinfo.value.code == protocol.E_BAD_REQUEST
        assert sleeps == []

    def test_retries_exhaust(self):
        client = make_stub_client(retry=RetryPolicy(retries=2, base_delay=0.0))
        sleeps = self.drive(
            client,
            [RemoteServingError(protocol.E_OVERLOADED, "busy") for _ in range(3)],
        )
        with pytest.raises(RemoteServingError):
            client.call("predict")
        assert len(sleeps) == 2

    def test_no_policy_means_no_retry(self):
        client = make_stub_client(retry=None)
        self.drive(client, [RemoteServingError(protocol.E_OVERLOADED, "busy")])
        with pytest.raises(RemoteServingError):
            client.call("predict")


class _RawServer:
    """Minimal threaded frame server whose response timing is scripted.

    ``delay_first`` stalls the response to the first request of the first
    connection past the client's socket timeout; every other request (and
    every later connection) is answered immediately, echoing the request id.
    """

    def __init__(self, delay_first: float = 0.0) -> None:
        self.delay_first = delay_first
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _respond(self, message: dict) -> dict:
        result = {"echo": message["id"]}
        if message.get("op") == "health":
            result.update(status="ok", protocol=2, binary=True)
        return protocol.ok_response(message["id"], result)

    def _serve_connection(self, conn: socket.socket, delay: float) -> None:
        with conn:
            first = True
            while True:
                try:
                    message = protocol.read_frame_sync(conn)
                except (ProtocolError, OSError):
                    return
                if message is None:
                    return
                if first and delay:
                    time.sleep(delay)
                first = False
                try:
                    conn.sendall(protocol.encode_frame(self._respond(message)))
                except OSError:
                    return

    def _run(self) -> None:
        delay = self.delay_first
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            # One thread per connection: a stalled first connection must not
            # block a reconnecting client's fresh one.
            threading.Thread(
                target=self._serve_connection, args=(conn, delay), daemon=True
            ).start()
            delay = 0.0  # only the very first connection's first exchange is slow

    def close(self) -> None:
        self.sock.close()


class TestPoisoning:
    def test_timeout_poisons_and_reconnect_recovers(self):
        """Regression: a timed-out call must not leave the stale response
        frame to be read by the next call (the off-by-one desync bug)."""
        server = _RawServer(delay_first=0.6)
        host, port = server.address
        try:
            client = ServingClient.connect(host, port, timeout=0.15)
            with client:
                with pytest.raises(TimeoutError):
                    client.call("health")
                assert client.poisoned
                # The delayed frame is (or soon will be) sitting in the
                # socket buffer.  A poisoned client must refuse to touch the
                # stream rather than read it as the answer to a new request.
                time.sleep(0.6)
                with pytest.raises(ProtocolError, match="poisoned"):
                    client.call("health")
                client.reconnect()
                assert not client.poisoned
                result = client.call("health")
                # Fresh connection, clean pairing: the echoed id is the one
                # this request carried, not the stale frame's.
                assert result["echo"] == client._next_id
        finally:
            server.close()

    def test_server_disconnect_poisons(self):
        server = _RawServer()
        host, port = server.address
        try:
            client = ServingClient.connect(host, port, timeout=1.0)
            with client:
                client.call("health")
                server.close()  # no new connections
                # Kill the live connection from the server side.
                client._sock.shutdown(socket.SHUT_RDWR)
                with pytest.raises((ProtocolError, OSError)):
                    client.call("health")
                assert client.poisoned
        finally:
            server.close()

    def test_retry_policy_auto_reconnects_after_poison(self):
        server = _RawServer(delay_first=0.5)
        host, port = server.address
        try:
            client = ServingClient.connect(
                host,
                port,
                timeout=0.15,
                retry=RetryPolicy(retries=2, base_delay=0.0, jitter=0.0),
            )
            with client:
                # First attempt times out and poisons; the policy reconnects
                # and the retry lands on a fresh, fast connection.
                result = client.call("health")
                assert result["echo"] == client._next_id
                assert not client.poisoned
        finally:
            server.close()

    def test_raw_socket_client_cannot_reconnect(self):
        a, b = socket.socketpair()
        with a, b:
            client = ServingClient(a)
            with pytest.raises(ProtocolError, match="no.*address"):
                client.reconnect()


class TestRetryScope:
    """What a RetryPolicy must NOT transparently retry."""

    def test_stateful_ops_are_not_reconnect_retried(self):
        """An observe that dies mid-call must raise even with a RetryPolicy:
        a silent reconnect would reset this connection's streaming windows
        and frame-mode predicts would quietly return nothing."""
        server = _RawServer(delay_first=0.5)
        host, port = server.address
        try:
            client = ServingClient.connect(
                host,
                port,
                timeout=0.15,
                retry=RetryPolicy(retries=3, base_delay=0.0, jitter=0.0),
            )
            with client:
                with pytest.raises(TimeoutError):
                    client.observe("m", 0, {"a": (0.0, 0.0)})
                assert client.poisoned
                # A stateless call afterwards may reconnect transparently.
                result = client.call("health")
                assert result["echo"] == client._next_id
                assert not client.poisoned
        finally:
            server.close()

    def test_oversized_request_is_not_retried(self, monkeypatch):
        """An encode-side ProtocolError (frame over the cap) is raised
        before any byte goes out: deterministic, connection still healthy —
        no poisoning, no reconnect loop, no backoff."""
        server = _RawServer()
        host, port = server.address
        try:
            sleeps: list[float] = []
            client = ServingClient.connect(
                host, port, binary=True,
                retry=RetryPolicy(retries=4, base_delay=0.01),
            )
            client._sleep = sleeps.append
            with client:
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 128)
                with pytest.raises(ProtocolError, match="exceeds"):
                    client.predict("m", np.zeros((64, 2)))
                assert sleeps == []  # never backed off
                assert not client.poisoned  # stream untouched
                monkeypatch.undo()
                assert client.call("health")["status"] == "ok"  # still usable
        finally:
            server.close()
