"""Deterministic fault injection for the serving stack.

Chaos testing only earns its keep when a failing run can be *replayed*:
every fault this module injects is drawn from a seeded RNG, so a storm of
replica crashes, latency spikes, stalls, and connection drops is exactly
reproducible from its :class:`FaultPlan` alone.  Two injection surfaces
cover the stack:

* :class:`FaultyPredictor` — wraps a real :class:`~repro.serve.predictor.
  Predictor` and consults the plan before every ``predict_world`` call, or
  every awaited ``predict_world_async`` of a wrapped worker-process slot
  (site ``"predict"`` by default).  This is how slot crashes and slow
  forwards are simulated: the wrapped predictor is registered with the
  server like any other, and the batcher/slot/breaker machinery sees
  genuine mid-chunk exceptions and genuine slowness.
* :class:`ChaosProxy` — a frame-aware TCP proxy between a client and a
  server that can drop connections or stall/delay individual response
  frames (site ``"response"``), exercising the client's poisoning,
  reconnect, and retry-budget paths without touching either endpoint.

Faults never corrupt data: an ``error`` fault raises :class:`FaultError`
(a normal exception on the replica's forward path — the batcher turns it
into typed per-request errors), latency/stall faults only sleep, and a
drop fault severs the TCP stream.  Successful responses therefore keep the
``(seed, batch_id)`` replay invariant — the property
``benchmarks/bench_faults.py`` gates under load.

>>> plan = FaultPlan(seed=13, rules=[FaultRule("predict", "error", rate=0.2)])
>>> faulty = FaultyPredictor(predictor, plan)
>>> server.add_model("m", faulty)
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.predictor import Predictor

__all__ = [
    "ChaosProxy",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "FaultyPredictor",
]

KINDS = ("error", "latency", "stall", "drop", "crash")

#: Exit code of a ``crash`` fault — distinctive, so a worker supervisor log
#: can tell an injected crash from a real one.
CRASH_EXIT_CODE = 121


class FaultError(RuntimeError):
    """The exception an ``error`` fault raises at its call site.

    Deliberately a plain ``RuntimeError`` subclass: the serving stack must
    handle it through its generic failure paths (typed ``internal`` wire
    errors, breaker bookkeeping), never by special-casing injected faults.
    """


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what to inject, where, how often.

    Attributes
    ----------
    site : the call-site label the rule listens on (e.g. ``"predict"`` for
        :class:`FaultyPredictor`, ``"response"`` for :class:`ChaosProxy`).
    kind : ``"error"`` raises :class:`FaultError`; ``"latency"`` sleeps
        ``delay`` seconds then proceeds; ``"stall"`` sleeps like latency but
        models a hang (use a delay past the victim's deadline); ``"drop"``
        tells a transport site to sever the connection; ``"crash"`` hard-
        exits the *process* (``os._exit``) — only meaningful inside a worker
        child (:mod:`repro.serve.workers`), where it deterministically
        simulates a replica process dying mid-chunk.
    rate : per-call injection probability in ``[0, 1]`` (1.0 = always).
    after : skip the first ``after`` calls at the site — lets a scenario
        warm up healthy before the storm starts.
    count : at most this many injections from this rule (None = unlimited).
    delay : sleep seconds for ``latency`` / ``stall``.
    message : the :class:`FaultError` text (``error`` faults).
    """

    site: str
    kind: str
    rate: float = 1.0
    after: int = 0
    count: int | None = None
    delay: float = 0.05
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A seeded schedule of faults across named call sites.

    Determinism contract: each rule owns a ``default_rng((seed, rule_index))``
    stream and draws exactly one uniform per *eligible* call at its site (a
    call before the rule's ``after`` warm-up or past its ``count`` budget
    draws nothing).  Two runs that make the same sequence of calls per site
    therefore inject the identical fault sequence — the replay hook for any
    failing chaos run.  Thread-safe: call sites race freely on the server's
    worker pool.
    """

    def __init__(self, seed: int, rules: list[FaultRule] | tuple[FaultRule, ...]):
        self.seed = seed
        self.rules = tuple(rules)
        self._rngs = [
            np.random.default_rng((seed, index)) for index in range(len(self.rules))
        ]
        self._calls: dict[str, int] = {}
        self._injected = [0] * len(self.rules)
        self._lock = threading.Lock()
        self._sleep = time.sleep  # injectable for tests

    def draw(self, site: str) -> FaultRule | None:
        """The fault to inject for this call at ``site``, if any.

        The first matching rule (plan order) that fires wins; later rules
        still consume their per-call draw, so adding a rule never perturbs
        the streams of the rules after it within a call.
        """
        with self._lock:
            call = self._calls.get(site, 0)
            self._calls[site] = call + 1
            fired: FaultRule | None = None
            fired_index = -1
            for index, rule in enumerate(self.rules):
                if rule.site != site or call < rule.after:
                    continue
                if rule.count is not None and self._injected[index] >= rule.count:
                    continue
                hit = float(self._rngs[index].random()) < rule.rate
                if hit and fired is None:
                    fired = rule
                    fired_index = index
            if fired is not None:
                self._injected[fired_index] += 1
            return fired

    def apply(self, site: str) -> FaultRule | None:
        """Draw for ``site`` and act on sleep/raise faults inline.

        ``latency`` / ``stall`` faults sleep here and return the rule;
        ``error`` faults raise :class:`FaultError`; ``drop`` faults are
        returned for the transport owner to act on (a predictor cannot
        sever a socket).  ``None``: the call proceeds clean.
        """
        rule = self.draw(site)
        if rule is not None and rule.kind in ("latency", "stall"):
            self._sleep(rule.delay)
            return rule
        return self._act(site, rule)

    async def apply_async(self, site: str) -> FaultRule | None:
        """:meth:`apply` on an event loop: latency/stall faults await a sleep."""
        rule = self.draw(site)
        if rule is not None and rule.kind in ("latency", "stall"):
            await asyncio.sleep(rule.delay)
            return rule
        return self._act(site, rule)

    @staticmethod
    def _act(site: str, rule: FaultRule | None) -> FaultRule | None:
        """Raise an ``error``, exit on a ``crash``; hand back the rest."""
        if rule is None:
            return None
        if rule.kind == "error":
            raise FaultError(f"{rule.message} (site={site!r})")
        if rule.kind == "crash":
            # A process crash, not an exception: nothing downstream of this
            # line runs, exactly like a real SIGKILL mid-forward.
            os._exit(CRASH_EXIT_CODE)
        return rule  # drop: caller-owned

    def calls(self, site: str) -> int:
        """How many calls ``site`` has seen."""
        with self._lock:
            return self._calls.get(site, 0)

    @property
    def injected(self) -> dict[str, int]:
        """Injection totals per ``site:kind`` (observability / assertions)."""
        with self._lock:
            totals: dict[str, int] = {}
            for rule, n in zip(self.rules, self._injected):
                if n:
                    key = f"{rule.site}:{rule.kind}"
                    totals[key] = totals.get(key, 0) + n
            return totals


class FaultyPredictor:
    """Wrap a predictor so its forwards consult a :class:`FaultPlan` first.

    Everything except ``predict_world`` delegates to the wrapped predictor
    through attribute access — ``obs_len`` / ``pred_len`` validation, and
    ``close`` plus the ``compile_stats`` / ``worker_stats`` hooks, so a
    wrapped worker-process slot still reports its process and is still
    killed at shutdown.  Fault outcomes: an ``error`` draw raises
    :class:`FaultError` *instead of* running the forward (a crashed slot
    computes nothing); latency/stall draws sleep, then run the real forward —
    results stay numerically identical to the clean run, which is what keeps
    injected latency inside the replay-equivalence gate.

    A wrapped worker-process slot is awaited on the server's event loop, so
    the wrapper gets its own ``predict_world_async``: the plan applies there
    too, with ``asyncio.sleep`` for latency and stalls.  It is set only when
    the inner predictor has one — never handed out by ``__getattr__``, which
    would bypass the plan.
    """

    def __init__(
        self, inner: Predictor, plan: FaultPlan, site: str = "predict"
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.site = site
        if hasattr(inner, "predict_world_async"):
            self.predict_world_async = self._predict_world_async

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def predict_world(self, batch, num_samples, rng) -> np.ndarray:
        self.plan.apply(self.site)  # may sleep or raise
        return self.inner.predict_world(batch, num_samples, rng)

    async def _predict_world_async(self, batch, num_samples, rng):
        await self.plan.apply_async(self.site)  # may sleep or raise
        return await self.inner.predict_world_async(batch, num_samples, rng)


class ChaosProxy:
    """Frame-aware TCP proxy injecting transport faults between peers.

    Sits between a :class:`~repro.serve.client.ServingClient` and an
    :class:`~repro.serve.server.AsyncServingServer`.  The client→server
    direction is pumped verbatim; the server→client direction is read one
    length-prefixed frame at a time, drawing from the plan at site
    ``site`` (default ``"response"``) per frame:

    * ``drop`` — both sockets are severed mid-exchange: the client sees a
      transport failure, poisons itself, and (with a reconnecting
      :class:`~repro.serve.client.RetryPolicy`) opens a fresh connection —
      which lands on the proxy again;
    * ``latency`` / ``stall`` — the frame is forwarded after the rule's
      delay (a stall past the client's socket timeout also surfaces as a
      transport failure, without killing the server's connection state).

    Use as a context manager; ``address`` is where the client connects.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: FaultPlan,
        site: str = "response",
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = upstream
        self.plan = plan
        self.site = site
        self.host = host
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closing = False
        self.connections = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(32)
        self._listener = listener
        thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return listener.getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("proxy not started")
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            self._sever(conn)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> ChaosProxy:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @staticmethod
    def _sever(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._conns.append(sock)

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                server = socket.create_connection(self.upstream, timeout=30.0)
            except OSError:
                self._sever(client)
                continue
            client.settimeout(0.2)
            server.settimeout(0.2)
            self.connections += 1
            self._track(client)
            self._track(server)
            for target, args in (
                (self._pump_raw, (client, server)),
                (self._pump_frames, (server, client)),
            ):
                thread = threading.Thread(target=target, args=args, daemon=True)
                thread.start()
                self._threads.append(thread)

    def _pump_raw(self, src: socket.socket, dst: socket.socket) -> None:
        """client → server: forward bytes verbatim until either side dies."""
        while not self._closing:
            try:
                data = src.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:
                break
            try:
                dst.sendall(data)
            except OSError:
                break
        self._sever(src)
        self._sever(dst)

    def _recv_exact(self, src: socket.socket, n: int) -> bytes | None:
        buf = b""
        while len(buf) < n:
            try:
                data = src.recv(n - len(buf))
            except socket.timeout:
                if self._closing:
                    return None
                continue
            except OSError:
                return None
            if not data:
                return None
            buf += data
        return buf

    def _pump_frames(self, src: socket.socket, dst: socket.socket) -> None:
        """server → client: per response frame, consult the fault plan."""
        while not self._closing:
            header = self._recv_exact(src, 4)
            if header is None:
                break
            (length,) = struct.unpack(">I", header)
            payload = self._recv_exact(src, length)
            if payload is None:
                break
            rule = self.plan.apply(self.site)  # latency/stall sleep inline
            if rule is not None and rule.kind == "drop":
                self.dropped += 1
                break
            try:
                dst.sendall(header + payload)
            except OSError:
                break
        self._sever(src)
        self._sever(dst)
