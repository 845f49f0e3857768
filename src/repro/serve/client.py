"""Synchronous client for the network serving front-end.

:class:`ServingClient` speaks the length-prefixed protocol of
:mod:`repro.serve.protocol` over a plain blocking socket — the shape most
consumers (tests, the ``bench_server`` load generator, batch jobs, the demo)
want.  One call = one request frame + one response frame; failed responses
raise :class:`~repro.serve.protocol.RemoteServingError` carrying the typed
error code (``overloaded``, ``shutting_down``, ...).

Three serving-hardening features layer on top of the bare round trip:

* **Poisoning** — any transport failure mid-call (``socket.timeout``, a
  dropped connection, a framing error) leaves a response frame potentially
  in flight, so the stream can no longer be trusted: the client marks
  itself *poisoned* and every later call fails fast with
  :class:`~repro.serve.protocol.ProtocolError` until :meth:`reconnect`
  (otherwise the next call would read the stale frame and every exchange
  after it would be off by one).
* **Retry/backoff** — an optional :class:`RetryPolicy` retries calls
  rejected by admission control (``overloaded``) with exponential backoff
  plus seeded jitter, and transparently reconnects-and-retries after
  transport failures.  ``bad_request`` and other non-transient errors are
  never retried.
* **Binary payloads** — ``binary=True`` negotiates nothing by itself; it
  makes the client send protocol-v2 binary frames (``obs``/``neighbours``
  as raw float64 tails) and ask for binary responses (``samples`` as a raw
  float32/float64 tail), cutting predict response bytes to well under half
  of JSON for large ``K``.  :meth:`supports_binary` reads the server's
  advertisement from ``health``.

>>> with ServingClient.connect(host, port, retry=RetryPolicy()) as client:
...     client.health()["status"]
...     result = client.predict("adaptraj", obs)   # [K, pred_len, 2]
"""

from __future__ import annotations

import socket
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import ProtocolError, RemoteServingError

__all__ = ["RetryPolicy", "ServingClient"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for transient serving errors.

    A call is retried only when it can plausibly succeed on retry:

    * ``overloaded`` responses — admission control shed the request; back
      off and resubmit on the same connection;
    * ``unavailable`` responses — every slot's circuit breaker is open;
      the cooldown-then-probe cycle means a later attempt may find a closed
      breaker;
    * transport failures (timeout, dropped/poisoned connection, framing
      error) — reconnect first, then resubmit (``reconnect=True``) — but
      only for **stateless** operations.  ``observe`` and frame-mode
      ``predict`` depend on this connection's streaming windows, which a
      reconnect silently resets; those raise instead, so the caller knows
      to rebuild its observation state.

    Everything else (``bad_request``, ``unknown_model``, an oversized
    request rejected before any byte was sent, ...) raises immediately:
    retrying a malformed request cannot help.

    Attributes
    ----------
    retries : additional attempts after the first (0 disables retrying).
    base_delay : backoff before the first retry, seconds.
    multiplier : backoff growth per retry (``base * multiplier ** n``).
    max_delay : cap on a single backoff sleep, seconds.
    jitter : fraction of each delay randomized away (0 = deterministic,
        0.5 = sleep uniformly in [0.5, 1.0] x delay).  Driven by a seeded
        RNG so a client's retry schedule is reproducible.
    seed : seed of the jitter RNG.
    reconnect : also retry transport failures by reconnecting; requires the
        client to know its address (it does when built via :meth:`connect`).
    max_elapsed : total backoff budget for one logical call, seconds: a
        retry whose sleep would push the call's *cumulative backoff* past
        the budget is not taken (the last error raises instead).  ``None``
        derives the budget from the client's socket ``timeout`` — each
        attempt is already individually bounded by that timeout, but
        without a budget the sleeps between attempts can stack far past
        the deadline the caller thought they set.  ``float("inf")``
        disables the budget.
    """

    retries: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    reconnect: bool = True
    max_elapsed: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_elapsed is not None and not self.max_elapsed > 0:
            raise ValueError(f"max_elapsed must be > 0, got {self.max_elapsed}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered via ``rng``."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return delay * (1.0 - self.jitter * float(rng.random()))


class ServingClient:
    """Blocking request/response client over one TCP connection.

    Not thread-safe: a client instance owns its socket and its correlation-id
    counter.  Concurrent load generators open one client per thread (which is
    also what exercises the server's cross-connection batching).

    ``bytes_sent`` / ``bytes_received`` / ``last_response_bytes`` account
    whole frames (header included) — the observability hook the
    binary-payload benchmark gate reads.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        address: tuple[str, int] | None = None,
        timeout: float | None = None,
        binary: bool = False,
        dtype: str = "f4",
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if dtype not in ("f4", "f8"):
            raise ValueError(f"dtype must be 'f4' or 'f8', got {dtype!r}")
        self._sock = sock
        self._address = address
        self._timeout = timeout
        self._next_id = 0
        self.binary = binary
        self.dtype = dtype
        self.retry = retry
        self._sleep = sleep
        self._retry_rng = np.random.default_rng(retry.seed if retry else 0)
        self._poisoned: BaseException | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_response_bytes = 0

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        *,
        binary: bool = False,
        dtype: str = "f4",
        retry: RetryPolicy | None = None,
    ) -> ServingClient:
        """Open a connection to a running :class:`AsyncServingServer`."""
        sock = cls._open((host, port), timeout)
        return cls(
            sock,
            address=(host, port),
            timeout=timeout,
            binary=binary,
            dtype=dtype,
            retry=retry,
        )

    @staticmethod
    def _open(address: tuple[str, int], timeout: float | None) -> socket.socket:
        sock = socket.create_connection(address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> ServingClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connection state
    # ------------------------------------------------------------------
    @property
    def poisoned(self) -> bool:
        """True after a transport failure desynchronized the stream."""
        return self._poisoned is not None

    def reconnect(self) -> None:
        """Drop the (possibly poisoned) connection and open a fresh one.

        The stale socket — and any late response frame still buffered in it —
        is discarded, so request/response pairing starts clean.  Requires the
        client to have been built via :meth:`connect` (address known).
        """
        if self._address is None:
            raise ProtocolError(
                "cannot reconnect: this client wraps a raw socket with no "
                "known address"
            )
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = self._open(self._address, self._timeout)
        self._poisoned = None

    def _poison(self, error: BaseException) -> None:
        self._poisoned = error

    # ------------------------------------------------------------------
    # Core round trip
    # ------------------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """One request/response round trip; returns the ``result`` object.

        Raises :class:`RemoteServingError` for ``ok: false`` responses and
        :class:`ProtocolError` if the stream framing breaks or the client is
        poisoned.  With a :class:`RetryPolicy`, ``overloaded`` responses and
        transport failures are retried — the latter via reconnect, and only
        for operations that carry no connection-scoped state (a reconnect
        resets this connection's streaming windows on the server, so a
        failed ``observe`` / frame-mode ``predict`` surfaces instead of
        silently losing the observation history).
        """
        # Connection-scoped state: these ops read/write the per-connection
        # streaming windows, which do not survive a reconnect.
        stateful = op == "observe" or (op == "predict" and "frame" in fields)
        attempt = 0
        slept = 0.0  # cumulative planned backoff (the max_elapsed meter)
        while True:
            delay: float | None = None
            try:
                if self._poisoned is not None:
                    if self.retry is not None and self.retry.reconnect:
                        self.reconnect()
                    else:
                        raise ProtocolError(
                            "connection poisoned by an earlier transport error "
                            f"({type(self._poisoned).__name__}: {self._poisoned}); "
                            "a late response frame may still be in flight — "
                            "call reconnect()"
                        )
                return self._call_once(op, fields)
            except RemoteServingError as error:
                transient = error.code in (
                    protocol.E_OVERLOADED,
                    protocol.E_UNAVAILABLE,
                )
                if transient:
                    delay = self._next_delay(attempt, slept)
                if delay is None:
                    raise
            except (ProtocolError, OSError):
                # Reconnect-and-resend is correct only when the connection
                # actually broke (poisoned) on a stateless call.  Errors
                # raised *before* any byte went out (e.g. an oversized
                # request frame refused by the encoder) leave the stream
                # healthy and are deterministic — never retried.
                if not (
                    self.poisoned
                    and not stateful
                    and self.retry is not None
                    and self.retry.reconnect
                    and self._address is not None
                ):
                    raise
                delay = self._next_delay(attempt, slept)
                if delay is None:
                    raise
            self._sleep(delay)
            slept += delay
            attempt += 1

    def _next_delay(self, attempt: int, slept: float) -> float | None:
        """The backoff before retry ``attempt``, or None to stop retrying.

        None means either the attempt count is exhausted or taking this
        sleep would push the call's cumulative backoff past the policy's
        ``max_elapsed`` budget (defaulting to the client's socket timeout).
        Metering *planned* sleeps keeps the budget deterministic — the same
        retry schedule under a fake sleep and a real one.
        """
        if self.retry is None or attempt >= self.retry.retries:
            return None
        delay = self.retry.delay(attempt, self._retry_rng)
        budget = self.retry.max_elapsed
        if budget is None:
            budget = self._timeout
        if budget is not None and slept + delay > budget:
            return None
        return delay

    def _call_once(self, op: str, fields: dict) -> dict:
        self._next_id += 1
        req_id = self._next_id
        message = {"v": protocol.PROTOCOL_VERSION, "id": req_id, "op": op, **fields}
        if self.binary:
            message["bin"] = True
            message["dtype"] = self.dtype
            frame = protocol.encode_frame_auto(message)
        else:
            frame = protocol.encode_frame(message)
        try:
            self._sock.sendall(frame)
            response, nbytes = protocol.read_frame_sync_ex(self._sock)
        except (ProtocolError, OSError) as error:
            # The exchange died mid-flight: a late response may still arrive
            # on this socket, so request/response pairing is gone for good.
            self._poison(error)
            raise
        self.bytes_sent += len(frame)
        self.bytes_received += nbytes
        self.last_response_bytes = nbytes
        if response is None:
            error = ProtocolError("server closed the connection before responding")
            self._poison(error)
            raise error
        if response.get("id") != req_id:
            error = ProtocolError(
                f"response id {response.get('id')!r} does not match request "
                f"id {req_id} (this client is strictly request/response)"
            )
            self._poison(error)
            raise error
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise RemoteServingError(
            error.get("code", protocol.E_INTERNAL),
            error.get("message", "unknown server error"),
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Server liveness: status, protocol versions, model names, uptime."""
        return self.call("health")

    def supports_binary(self) -> bool:
        """Whether the server advertises the v2 binary frame encoding."""
        return bool(self.health().get("binary"))

    def stats(self) -> dict:
        """Server and per-model counters (queue depth, latency, overloads)."""
        return self.call("stats")

    def metrics(self) -> dict:
        """The server's instrument-registry snapshot.

        ``result["metrics"]`` groups counters/gauges/histograms keyed
        ``name{label=value,...}``; each histogram snapshot carries bucket
        counts and interpolated p50/p95/p99 (see ``docs/observability.md``).
        ``result["instrument"]`` is False when the server was started with
        ``instrument=False`` — the snapshot is then (mostly) empty.
        """
        return self.call("metrics")

    def observe(self, model: str, frame: int, positions: dict) -> dict:
        """Feed one frame of ``{agent_id: (x, y)}`` into this connection's
        private streaming windows for ``model``."""
        return self.call(
            "observe",
            model=model,
            frame=int(frame),
            positions={
                str(agent_id): [float(xy[0]), float(xy[1])]
                for agent_id, xy in positions.items()
            },
        )

    def _wire_deadline(self, deadline_ms: float | None) -> float | None:
        """Resolve a predict call's ``deadline_ms`` envelope value.

        ``None`` (the default) maps the client's socket ``timeout`` onto the
        wire — the server then stops spending inference on requests this
        client has already timed out on.  Pass an explicit positive value to
        override, or ``0`` to send no deadline at all.
        """
        if deadline_ms is None:
            if self._timeout is None:
                return None
            return self._timeout * 1000.0
        if not deadline_ms:
            return None
        return float(deadline_ms)

    def predict(
        self,
        model: str,
        obs,
        neighbours=None,
        domain_id: int = 0,
        return_meta: bool = False,
        trace: bool = False,
        deadline_ms: float | None = None,
    ):
        """Predict one explicit ``[obs_len, 2]`` window (world coordinates).

        Returns the sampled futures as a ``[K, pred_len, 2]`` array, or
        ``(samples, meta)`` when ``return_meta`` is set — ``meta`` carries
        the server-side ``batch_id`` / ``row`` / ``batch_size`` this request
        was coalesced into (the replay hook of the equivalence gate).  With
        ``trace=True`` (implies ``return_meta``) the server additionally
        returns per-stage timings in ``meta["trace"]`` — queue wait,
        coalesce, route, inference — for this one request.  ``deadline_ms``
        defaults to the client timeout (see :meth:`_wire_deadline`); an
        expired request raises :class:`RemoteServingError` with code
        ``deadline_exceeded``.
        """
        obs = np.asarray(obs, dtype=np.float64)
        fields: dict = {"model": model, "obs": obs if self.binary else obs.tolist()}
        if neighbours is not None and len(neighbours):
            neighbours = np.asarray(neighbours, dtype=np.float64)
            fields["neighbours"] = neighbours if self.binary else neighbours.tolist()
        if domain_id:
            fields["domain_id"] = int(domain_id)
        if trace:
            fields["trace"] = True
        wire_deadline = self._wire_deadline(deadline_ms)
        if wire_deadline is not None:
            fields["deadline_ms"] = wire_deadline
        result = self.call("predict", **fields)
        samples = np.asarray(result["samples"], dtype=np.float64)
        return (samples, result["meta"]) if (return_meta or trace) else samples

    def predict_frame(
        self,
        model: str,
        frame: int,
        return_meta: bool = False,
        trace: bool = False,
        deadline_ms: float | None = None,
    ) -> dict:
        """Predict every agent whose observed window is ready at ``frame``.

        Returns ``{agent_id: samples}`` (ids are strings on the wire), or
        ``{agent_id: (samples, meta)}`` with ``return_meta`` (which
        ``trace=True`` implies — the per-agent ``meta["trace"]`` carries the
        stage timings).  ``deadline_ms`` covers the whole frame's agents
        (defaulting to the client timeout; ``0`` disables).
        """
        fields: dict = {"model": model, "frame": int(frame)}
        if trace:
            fields["trace"] = True
            return_meta = True
        wire_deadline = self._wire_deadline(deadline_ms)
        if wire_deadline is not None:
            fields["deadline_ms"] = wire_deadline
        result = self.call("predict", **fields)
        agents = {}
        for agent_id, payload in result["agents"].items():
            samples = np.asarray(payload["samples"], dtype=np.float64)
            agents[agent_id] = (samples, payload["meta"]) if return_meta else samples
        return agents

    def flush(self, model: str) -> int:
        """Force the server to flush ``model``'s pending partial batches."""
        return int(self.call("flush", model=model)["flushed"])
