"""Async network front-end: concurrent TCP serving over the micro-batcher.

:class:`AsyncServingServer` turns the in-process serving stack into a
network service.  One asyncio event loop owns all connection and scheduling
state, and the I/O of worker-process slots; model forwards never run on it:

* **Framing/schema** — length-prefixed JSON (:mod:`repro.serve.protocol`)
  with ``observe`` / ``predict`` / ``flush`` / ``stats`` / ``health`` /
  ``metrics`` operations.
* **Observability** — latency and per-stage histograms (admission → queue
  wait → coalesce → route → inference → encode) recorded into a
  :class:`~repro.obs.metrics.MetricsRegistry` (the ``metrics`` op returns
  its snapshot), structured JSON logs at lifecycle/overload/flush-error
  sites, and a per-request ``trace: true`` flag that returns stage timings
  in response ``meta`` — all additive; wire images and the replay
  invariant are untouched.  See ``docs/observability.md``.
* **Batching** — each model gets one
  :class:`~repro.serve.batcher.MicroBatcher`: requests from all connections
  coalesce in its queue, the only place work waits.  A predict queues all
  of its rows at once; a drain after every predict and every finished
  chunk — plus one timer armed for the next max-wait or deadline — pops one
  due chunk per free slot with ``take_ready``.  Every chunk takes one path
  through its slot: the loop collates it (``prepare_chunk``), awaits the
  slot's forward and fulfils its handles (``complete_chunk``).  An
  in-process forward holds the GIL, so it runs on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`; a worker-process slot's
  forward is an exchange with its child, awaited on the loop.  While every
  slot of a model is busy, work waits in the queue, so backpressure turns a
  convoy of single requests into genuinely coalesced batches (adaptive
  batching).
* **Slots** — a model runs on one in-process :class:`Predictor`, or on N
  supervised worker-process slots (a :class:`~repro.serve.workers.WorkerSpec`
  with ``workers=N``); the drain hands each free slot, lowest index first,
  one chunk at a time, so chunks of one model overlap across processes
  while each slot stays single-threaded.  The queue — and with it
  ``batch_id`` assignment and the per-flush RNG derivation — stays *shared
  per model*, so the offline replay invariant is untouched by which slot
  ran a batch.
* **Admission control** — a configurable cap on in-flight predictions; work
  beyond it is fast-failed with an ``overloaded`` response instead of being
  queued without bound.  Queue depth, in-flight peaks, and per-model latency
  are surfaced through ``stats``.
* **Isolation** — streaming windows (``observe``) are **per connection**, so
  two clients using the same agent ids can never contaminate each other's
  observation histories.
* **Replayability** — every flush draws its sampling noise from
  ``default_rng((seed, batch_id))``; together with the ``batch_id``/``row``
  meta on each response, any served batch can be recomposed and checked
  against the offline ``predict_samples`` path (this is the
  ``benchmarks/bench_server.py`` equivalence gate).

Run a registry-backed server from the command line::

    PYTHONPATH=src python -m repro.serve.server --registry models/ \
        --model adaptraj-pecnet --port 8707

or embed it (tests, benchmarks, demos) with :class:`ServerThread`, which
hosts the event loop on a daemon thread behind a blocking start/stop API.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs.log import get_logger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serve import protocol
from repro.serve.batcher import (
    DeadlineExceededError,
    FlushChunk,
    MicroBatcher,
    PendingPrediction,
    PredictRequest,
    ServingClosedError,
)
from repro.serve.predictor import Predictor
from repro.serve.protocol import ProtocolError
from repro.serve.streaming import StreamingWindows
from repro.serve.workers import WorkerPool, WorkerSpec

__all__ = [
    "AsyncServingServer",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "OverloadedError",
    "ServerThread",
    "UnavailableError",
]

#: Default TCP port of the ``python -m repro.serve.server`` CLI — the one
#: designated hardcoded port of the repo (REP-NET); everything else binds
#: port 0 and discovers the ephemeral port.
DEFAULT_PORT = 8707


class OverloadedError(RuntimeError):
    """Raised when admission control rejects work (answered as ``overloaded``)."""


class UnavailableError(RuntimeError):
    """Every slot of a model has an open circuit breaker.

    Answered as the typed ``unavailable`` fast-fail: new work is refused at
    admission instead of queueing into a pool that cannot serve it, while
    work already queued waits for the half-open probe or its own deadline.
    Transient by design — a half-open probe closes a breaker the moment the
    slot recovers.
    """


class CircuitBreaker:
    """Consecutive-error circuit breaker with half-open probes.

    State machine (all transitions happen on the event loop — no locking):

    * ``closed`` — healthy.  Every successful chunk resets the consecutive
      error count; ``threshold`` consecutive failed chunks open the breaker.
    * ``open`` — the slot is not free for work.  After ``cooldown``
      seconds the next availability check moves to half-open.
    * ``half_open`` — exactly one probe chunk is admitted (a slot takes a
      chunk only with nothing in flight).  Success closes the breaker;
      failure re-opens it and restarts the cooldown.

    Failure here means the slot's *forward raised* — deadline expiry and
    shutdown never count against a slot's health.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = self.CLOSED
        self.consecutive_errors = 0
        self.opened_at: float | None = None
        #: Lifetime count of closed/half-open -> open transitions.
        self.opens = 0

    def record_success(self) -> None:
        """A chunk ran cleanly: reset the error streak, close the breaker."""
        self.consecutive_errors = 0
        self.state = self.CLOSED
        self.opened_at = None

    def record_failure(self) -> None:
        """A chunk's forward raised; open on threshold (or a failed probe)."""
        self.consecutive_errors += 1
        if self.state == self.HALF_OPEN or self.consecutive_errors >= self.threshold:
            if self.state != self.OPEN:
                self.opens += 1
            self.state = self.OPEN
            self.opened_at = self.clock()

    def available(self, now: float | None = None) -> bool:
        """Whether the slot may take work right now.

        An open breaker whose cooldown elapsed transitions to half-open here
        (availability checks are the only timer this class has); the caller
        is then expected to admit at most one probe at a time.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            now = self.clock() if now is None else now
            if now - self.opened_at < self.cooldown:
                return False
            self.state = self.HALF_OPEN
        return True  # half-open: the slot's one chunk in flight is the probe

    def snapshot(self) -> dict:
        """JSON-ready state for ``stats``."""
        return {
            "state": self.state,
            "consecutive_errors": self.consecutive_errors,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown,
            "opens": self.opens,
        }


class _Replica:
    """One slot of a model: its predictor and counters.

    ``active`` counts chunks routed here and not yet finished: 0 or 1, since
    the drain hands a chunk only to a slot with nothing in flight.  That
    keeps one chunk per slot — ``inference_mode`` training-flag save/restore
    is per-module state, so one module tree must never run on two threads,
    and a worker child answers one chunk at a time on its connection — while
    distinct slots (and distinct models) overlap freely.  ``tasks`` holds
    the in-flight chunk's task, so a swap can await it.
    """

    __slots__ = (
        "index",
        "predictor",
        "active",
        "tasks",
        "chunks",
        "completed",
        "errors",
        "breaker",
    )

    def __init__(
        self, index: int, predictor: Predictor, breaker: CircuitBreaker
    ) -> None:
        self.index = index
        self.predictor = predictor
        self.active = 0
        self.tasks: set[asyncio.Task] = set()
        self.chunks = 0
        self.completed = 0
        self.errors = 0
        self.breaker = breaker


def _exchange(predictor):
    """A worker slot's awaited chunk exchange; None for an in-process slot."""
    return getattr(predictor, "predict_world_async", None)


def _require(message: dict, key: str, types: tuple[type, ...], what: str):
    value = message.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be {what}", protocol.E_BAD_REQUEST)
    return value


def _parse_array(value, shape_desc: str, ndim: int) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"expected a numeric {shape_desc} array: {error}", protocol.E_BAD_REQUEST
        ) from error
    if array.ndim != ndim:
        raise ProtocolError(
            f"expected a {shape_desc} array, got shape {array.shape}",
            protocol.E_BAD_REQUEST,
        )
    return array


class _ModelWorker:
    """Per-model scheduling state: shared batcher, slots, futures.

    Lives entirely on the event loop; only an in-process slot's forward
    leaves it, for the server's thread pool.  The batcher — queue,
    ``batch_id`` assignment, per-flush RNG derivation — is **one per
    model**, shared by all slots; only chunk *execution* fans out, so served
    batches replay offline identically no matter which slot ran them.  A
    slot runs one chunk at a time; slots (and different models) run in
    parallel.

    A slot is *free* when it has nothing in flight and its circuit breaker
    lets work through; the drain hands each free slot one chunk, lowest
    index first, so routing is deterministic given the load state.  A
    half-open breaker's slot is free only until its probe starts, so it
    never gets a second chunk before the verdict.
    """

    def __init__(
        self,
        server: AsyncServingServer,
        name: str,
        batcher: MicroBatcher,
        replicas: list[_Replica],
    ) -> None:
        if not replicas:
            raise ValueError("a model needs at least one slot")
        self.server = server
        self.name = name
        self.batcher = batcher
        self.replicas = replicas
        self._waiters: dict[PendingPrediction, tuple[asyncio.Future, float]] = {}
        #: The one drain timer (:meth:`_arm_timer`) and its due time on the
        #: batcher clock.
        self._timer: asyncio.TimerHandle | None = None
        self._timer_due = 0.0
        #: Per-row histograms, looked up in the registry once, on first use.
        self._latency_hist: Histogram | None = None
        self._stage_hists: dict[str, Histogram] = {}
        self._nested_hists: dict[str, Histogram] = {}
        # Latency accounting (submit -> resolve, event-loop clock).
        self.completed = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0

    # ------------------------------------------------------------------
    def free(self) -> list[_Replica]:
        """The slots that can start a chunk now, lowest index first."""
        now = time.monotonic()
        return [
            replica
            for replica in self.replicas
            if replica.active == 0 and replica.breaker.available(now)
        ]

    def any_available(self) -> bool:
        """True while at least one breaker would let work through eventually.

        Half-open slots count even while their probe is in flight — work
        should *wait* for the probe's verdict, not fast-fail.  False only
        when every breaker is open and cooling down.
        """
        now = time.monotonic()
        return any(replica.breaker.available(now) for replica in self.replicas)

    def submit(self, requests: list[PredictRequest]) -> list[asyncio.Future]:
        """Queue all of a predict's rows, then drain once.

        Returns one future per row, resolving to its handle.  The rows
        queue together or not at all: when every slot's breaker is open
        (and still cooling down) they are refused outright with
        :class:`UnavailableError` — a typed fast-fail beats queueing into a
        pool that cannot serve — and a row the batcher rejects leaves none
        of them queued.
        """
        if not self.any_available():
            raise UnavailableError(
                f"model {self.name!r}: all {len(self.replicas)} replica "
                "circuit breakers are open — retry after the cooldown"
            )
        handles = self.batcher.submit(requests)  # raises when closed/invalid
        loop = self.server._loop
        submitted_at = loop.time()
        futures = []
        for handle in handles:
            future = loop.create_future()
            self._waiters[handle] = (future, submitted_at)
            futures.append(future)
        self.server._note_inflight(len(handles))
        self.drain()
        return futures

    def drain(self) -> None:
        """Start one due chunk per free slot, and re-arm the timer.

        Requests whose deadline expired while queued are swept out *first*
        and answered ``deadline_exceeded`` without ever reaching a slot.
        While every slot is busy, work — full chunks too — waits in the
        queue, where the timer sweeps it at its deadline; the backlog pops
        as one coalesced batch the moment a slot frees (adaptive batching).
        """
        if self.batcher.closed:
            return
        for handle in self.batcher.expire_pending():
            self._resolve(handle)
        free = self.free()
        for replica, chunk in zip(free, self.batcher.take_ready(limit=len(free))):
            # Busy from now on, so the next drain skips this slot.
            replica.active += 1
            chunk.scheduled_at = self.batcher.clock()
            task = self.server._loop.create_task(self._run_chunk(chunk, replica))
            self.server._track_task(task)
            replica.tasks.add(task)
            task.add_done_callback(replica.tasks.discard)
        self._arm_timer()

    def flush_now(self) -> int:
        """Release everything queued from ``max_wait`` (the ``flush`` op).

        Returns how many requests were released; they pop as slots free.
        """
        if self.batcher.closed:
            return 0
        released = self.batcher.release()
        self.drain()
        return released

    def _arm_timer(self) -> None:
        """Keep one timer armed for the next moment a drain could act.

        A finished chunk drains on its own; only the clock releases the
        oldest request's ``max_wait`` while a slot is free to take it and
        expires the earliest queued deadline (the end of a breaker's
        cooldown has its own wake-up, see :meth:`_record_breaker`).  An
        earlier due time re-arms the timer; an empty queue cancels it.
        """
        batcher = self.batcher
        due = batcher.next_due(allow_partial=bool(self.free()))
        if due is None:
            self.cancel_timer()
        elif self._timer is None or due < self._timer_due:
            self.cancel_timer()
            self._timer_due = due
            self._timer = self.server._loop.call_later(
                max(0.0, due - batcher.clock()), self._on_timer
            )

    def _on_timer(self) -> None:
        self._timer = None
        self.drain()

    def cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def _run_chunk(self, chunk: FlushChunk, replica: _Replica) -> None:
        error: BaseException | None = None
        ran = False
        # prepare_chunk sweeps expired rows out of the chunk; snapshot the
        # handle list so the rows it expires still resolve below.
        handles = list(chunk.handles)
        try:
            ran = bool(await self._execute(chunk, replica.predictor))
        except Exception as exc:
            # Terminal errors are already set on the handles; keep the
            # exception for accounting, never let it kill the task.
            error = exc
        finally:
            replica.active -= 1
            replica.chunks += 1
            # Credit only handles that actually resolved with samples — a
            # failed flush (or a shutdown race) leaves terminal errors on
            # some or all of them.
            replica.completed += sum(
                1 for handle in handles if handle.error is None
            )
            if error is not None:
                replica.errors += 1
                self._record_breaker(replica, failed=True)
                self.server._log.error(
                    "flush_error",
                    model=self.name,
                    replica=replica.index,
                    batch_id=chunk.batch_id,
                    batch_size=chunk.size,
                    error=f"{type(error).__name__}: {error}",
                )
                if self.server.instrument:
                    self.server.metrics.counter(
                        "serve_flush_errors", model=self.name
                    ).inc()
            elif ran:
                # Only a forward that actually executed votes on replica
                # health; an all-expired chunk says nothing about it.
                self._record_breaker(replica, failed=False)
            for handle in handles:
                self._resolve(handle)
            # The slot is free again: whatever queued behind it may pop now
            # (as one coalesced batch).
            self.drain()

    async def _execute(
        self, chunk: FlushChunk, predictor: Predictor
    ) -> list[PendingPrediction]:
        """Run one chunk on a slot; its handles end with samples or the error.

        Returns the handles fulfilled with samples (none when every row
        expired first).  Every chunk takes the same path on the loop:
        :meth:`MicroBatcher.prepare_chunk`, the slot's forward, then
        :meth:`MicroBatcher.complete_chunk`.  Only the forward differs.  An
        in-process forward holds the GIL for its whole length, so it runs on
        the thread pool; a worker slot's forward is I/O, the awaited
        exchange with its child, whose own forward comes back as the nested
        ``compute`` stage.
        """
        batcher = self.batcher
        prepared = batcher.prepare_chunk(chunk, predictor)
        if prepared is None:
            return []
        batch, rng, stage = prepared
        exchange = _exchange(predictor)
        nested = None
        started = batcher.clock()
        try:
            if exchange is None:
                samples = await self.server._loop.run_in_executor(
                    self.server._executor,
                    predictor.predict_world,
                    batch,
                    batcher.num_samples,
                    rng,
                )
            else:
                samples, compute_s = await exchange(batch, batcher.num_samples, rng)
                nested = {"compute": compute_s}
        except BaseException as error:
            batcher.fail_chunk(chunk, error)
            raise
        stage["inference"] = batcher.clock() - started
        return batcher.complete_chunk(chunk, samples, stage, nested)

    def _record_breaker(self, replica: _Replica, *, failed: bool) -> None:
        """Feed a chunk verdict to the replica's breaker; log transitions."""
        breaker = replica.breaker
        before = breaker.state
        if failed:
            breaker.record_failure()
            if breaker.state == CircuitBreaker.OPEN:
                # Only the clock ends the (re)started cooldown: drain then,
                # so work queued behind this slot becomes its probe.
                self.server._loop.call_later(breaker.cooldown, self.drain)
        else:
            breaker.record_success()
        if breaker.state == before:
            return
        self.server._log.warning(
            "breaker_transition",
            model=self.name,
            replica=replica.index,
            state=breaker.state,
            consecutive_errors=breaker.consecutive_errors,
        )
        if self.server.instrument:
            if breaker.state == CircuitBreaker.OPEN:
                self.server.metrics.counter(
                    "serve_breaker_opened", model=self.name
                ).inc()
            self.server.metrics.gauge("serve_breaker_open", model=self.name).set(
                sum(
                    1
                    for r in self.replicas
                    if r.breaker.state != CircuitBreaker.CLOSED
                )
            )

    def _resolve(self, handle: PendingPrediction) -> None:
        entry = self._waiters.pop(handle, None)
        if entry is None:
            return
        future, submitted_at = entry
        if not future.done():
            future.set_result(handle)
        self.server._note_inflight(-1)
        if self.server.instrument and isinstance(
            handle.error, DeadlineExceededError
        ):
            self.server.metrics.counter(
                "serve_deadline_expired", model=self.name
            ).inc()
        if handle.error is None:
            latency = self.server._loop.time() - submitted_at
            self.completed += 1
            self.latency_sum += latency
            self.latency_max = max(self.latency_max, latency)
            if self.server.instrument:
                self.latency_histogram().record(latency)
                for stage, seconds in (handle.stage_s or {}).items():
                    self.stage_histogram(stage).record(seconds)
                for stage, seconds in (handle.nested_s or {}).items():
                    self.nested_histogram(stage).record(seconds)

    def latency_histogram(self) -> Histogram:
        """``serve_latency_seconds{model=...}``, cached after the first call."""
        if self._latency_hist is None:
            self._latency_hist = self.server.metrics.histogram(
                "serve_latency_seconds", model=self.name
            )
        return self._latency_hist

    def stage_histogram(self, stage: str) -> Histogram:
        """``serve_stage_seconds{model=...,stage=...}``, cached per stage."""
        hist = self._stage_hists.get(stage)
        if hist is None:
            hist = self._stage_hists[stage] = self.server.metrics.histogram(
                "serve_stage_seconds", model=self.name, stage=stage
            )
        return hist

    def nested_histogram(self, stage: str) -> Histogram:
        """``serve_nested_stage_seconds{model=...,stage=...}``, cached per stage."""
        hist = self._nested_hists.get(stage)
        if hist is None:
            hist = self._nested_hists[stage] = self.server.metrics.histogram(
                "serve_nested_stage_seconds", model=self.name, stage=stage
            )
        return hist

    def resolve_terminal(self) -> None:
        """Resolve every waiter whose handle already carries a terminal state.

        Called during shutdown after ``batcher.shutdown()`` failed the queued
        requests, so no predict handler is left awaiting a future that nobody
        will ever complete.
        """
        for handle in list(self._waiters):
            if not handle.done:
                handle._set_error(ServingClosedError("server stopped"))
            self._resolve(handle)

    def stats(self) -> dict:
        batcher = self.batcher
        latency = {
            "count": self.completed,
            "mean_s": round(self.latency_sum / self.completed, 6)
            if self.completed
            else 0.0,
            "max_s": round(self.latency_max, 6),
        }
        if self.server.instrument:
            hist = self.latency_histogram()
            latency["p50_s"] = round(hist.quantile(0.50), 6)
            latency["p95_s"] = round(hist.quantile(0.95), 6)
            latency["p99_s"] = round(hist.quantile(0.99), 6)
        return {
            "replicas": [
                {
                    "active": replica.active,
                    "chunks": replica.chunks,
                    "completed": replica.completed,
                    "errors": replica.errors,
                    "breaker": replica.breaker.snapshot(),
                    # Compiled-fast-path observability; None for predictors
                    # without a plan cache (e.g. test stubs).
                    "compile": replica.predictor.compile_stats()
                    if hasattr(replica.predictor, "compile_stats")
                    else None,
                    # Child-process observability (pid/port/respawns); None
                    # for the in-process slot.
                    "worker": replica.predictor.worker_stats()
                    if hasattr(replica.predictor, "worker_stats")
                    else None,
                }
                for replica in self.replicas
            ],
            "pending": batcher.pending_count,
            "total_requests": batcher.total_requests,
            "total_batches": batcher.total_batches,
            "total_completed": batcher.total_completed,
            "total_failed": batcher.total_failed,
            "total_expired": batcher.total_expired,
            "mean_batch_size": round(batcher.mean_batch_size, 3),
            "max_batch_size": batcher.max_batch_size,
            "num_samples": batcher.num_samples,
            "latency": latency,
        }


@dataclass(eq=False)  # identity hashing: connections live in a set
class _Connection:
    """Per-client state: its writer, its tasks, its private streaming windows."""

    conn_id: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    windows: dict[str, StreamingWindows] = field(default_factory=dict)
    tasks: set = field(default_factory=set)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    async def send(self, message: dict) -> float:
        """Encode + write one frame; returns the encode wall seconds.

        The return value feeds the ``encode`` stage histogram — measured
        here, at the only site that serializes responses, so a response
        never has to carry the cost of its own serialization.
        """
        # Messages still holding ndarrays go out as binary (v2) frames;
        # handlers only leave arrays in when the request asked for binary.
        async with self.write_lock:
            encode_started = time.monotonic()
            data = protocol.encode_frame_auto(message)  # ProtocolError propagates
            encode_s = time.monotonic() - encode_started
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; its in-flight work still resolves
            return encode_s


class AsyncServingServer:
    """Asyncio TCP server exposing registered predictors over the wire.

    Parameters
    ----------
    host, port : bind address; port 0 picks a free port (see ``address``
        after :meth:`start`).
    max_in_flight : admission-control cap on predictions that have been
        accepted but not yet answered, across all models and connections.
        Work beyond the cap is fast-failed with ``overloaded``.
    seed : base seed for per-flush RNG derivation (see
        ``MicroBatcher.seed_per_flush``).
    instrument : record latency/stage histograms and serving counters into
        ``self.metrics`` (the ``metrics`` operation's payload).  On by
        default; ``benchmarks/bench_server.py`` gates the overhead of
        leaving it on at ≤ 5% of the uninstrumented predict path.  Stage
        *capture* (a few clock reads per flush chunk) and per-request
        ``trace: true`` replies work regardless — this flag only controls
        histogram recording.
    breaker_threshold, breaker_cooldown : circuit-breaker tuning for every
        slot: a slot whose chunks fail ``breaker_threshold`` times in a row
        is taken out of routing for ``breaker_cooldown`` seconds, then
        probed half-open.
    stop_timeout : grace period :meth:`stop` gives in-flight response tasks
        before cancelling them (survivors are counted in
        ``stats.server.abandoned_tasks`` and logged).

    The thread pool running in-process forwards is sized by :meth:`start`;
    the max-wait and deadline timers live here, not with the caller.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 256,
        seed: int = 0,
        instrument: bool = True,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        stop_timeout: float = 5.0,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        #: Flush thread-pool size; set by :meth:`start`.
        self.num_workers = 0
        self.seed = seed
        self.instrument = bool(instrument)
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.stop_timeout = stop_timeout
        #: Server-wide instrument registry (the ``metrics`` op's payload).
        self.metrics = MetricsRegistry()
        self._log = get_logger("repro.serve")
        #: Streaming windows idle for this many observation-window lengths
        #: are evicted on the next ``observe`` (bounds per-connection state).
        self.stale_after = 4
        self._models: dict[str, _ModelWorker] = {}
        #: Worker-process pools owned by this server (``add_model`` with
        #: ``workers=N``); closed — children killed — at :meth:`stop`.
        self._worker_pools: list[WorkerPool] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._encode_hist: Histogram | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._closing = False
        self._stopped = False
        self._started_at = time.monotonic()
        self._cpu_started = time.process_time()
        self._next_conn_id = 0
        # Counters surfaced through ``stats``.
        self.in_flight = 0
        self.in_flight_peak = 0
        self.accepted = 0
        self.rejected_overload = 0
        self.internal_errors = 0
        self.total_connections = 0
        self.abandoned_tasks = 0
        self.model_swaps = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_model(
        self,
        name: str,
        predictor: Predictor | WorkerSpec,
        *,
        num_samples: int = 1,
        max_batch_size: int = 32,
        max_wait: float = 0.0,
        max_neighbours: int | None = None,
        workers: int | None = None,
        worker_chunk_timeout: float | None = None,
    ) -> None:
        """Register a model under ``name``: one predictor, or N worker slots.

        A :class:`Predictor` is served as the model's single in-process
        slot.  A :class:`~repro.serve.workers.WorkerSpec` plus ``workers=N``
        (default 1) runs N slots as supervised *child processes*
        (:mod:`repro.serve.workers`), each taking one chunk at a time — a
        forward that holds the GIL can only use a second core from a
        separate process.  Crash/stall of a child trips that slot's circuit
        breaker exactly like an in-process exception, and the pool
        supervisor respawns it.

        Either way the model has one micro-batcher — one
        queue, one ``batch_id`` sequence, noise derived per flush from the
        server seed, collation parent-side — so served outputs are
        replayable offline regardless of scheduling and of which slot ran a
        chunk.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        if isinstance(predictor, (list, tuple)):
            raise TypeError(
                f"model {name!r}: add_model takes one Predictor, or a "
                "WorkerSpec with workers=N to serve N worker-process slots "
                f"(got a {type(predictor).__name__} of predictors)"
            )
        if isinstance(predictor, WorkerSpec):
            pool = WorkerPool(
                predictor,
                1 if workers is None else workers,
                name=name,
                **(
                    {}
                    if worker_chunk_timeout is None
                    else {"chunk_timeout": worker_chunk_timeout}
                ),
            )
            self._worker_pools.append(pool)
            predictors: list[Predictor] = list(pool.predictors)
        elif workers is not None:
            raise ValueError(
                "workers=N spawns child processes and requires a WorkerSpec "
                f"(got {type(predictor).__name__})"
            )
        else:
            predictors = [predictor]
        batcher = MicroBatcher(
            predictors[0],
            num_samples=num_samples,
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            max_neighbours=max_neighbours,
            seed_per_flush=self.seed,
        )
        self._models[name] = _ModelWorker(
            self, name, batcher, self._build_replicas(predictors)
        )

    def _build_replicas(self, predictors: list[Predictor]) -> list[_Replica]:
        """Wrap a model's predictors as slots with fresh circuit breakers."""
        return [
            _Replica(
                index,
                predictor,
                CircuitBreaker(self.breaker_threshold, self.breaker_cooldown),
            )
            for index, predictor in enumerate(predictors)
        ]

    async def swap_model(
        self,
        name: str,
        predictor_factory: Callable[[], Predictor],
        *,
        drain_timeout: float = 30.0,
    ) -> dict:
        """Zero-downtime rollout: promote new slots behind ``name``.

        Blue/green in place: ``predictor_factory`` is called once per slot
        the model has now, on the thread pool (checkpoint loading never
        blocks the event loop), then — in one synchronous step on the loop
        — the model's slot list is repointed at the new slots and the shared
        batcher's collate predictor is updated.  Queued requests and every
        later submit run on the new set; chunks already routed to the old
        slots finish there and are drained before this method returns.

        The replay invariant survives the swap because the batcher — the
        queue, the ``batch_id`` sequence, the per-flush ``(seed, batch_id)``
        noise derivation — is untouched.  The returned ``cutover_batch_id``
        marks the boundary: responses with ``meta.batch_id`` below it came
        from the old predictor, at or above it from the new one, so both
        sides replay offline against their respective checkpoints.

        Must be called from the server's event loop (use
        :meth:`ServerThread.swap_model` from sync code).
        """
        worker = self._models.get(name)
        if worker is None:
            raise ValueError(f"unknown model {name!r}")
        new_predictors = [
            await self._loop.run_in_executor(self._executor, predictor_factory)
            for _ in worker.replicas
        ]
        new_replicas = self._build_replicas(new_predictors)
        # --- atomic promotion: no await between here and the slot swap ---
        old_replicas = worker.replicas
        cutover = worker.batcher.next_batch_id
        worker.replicas = new_replicas
        worker.batcher.predictor = new_predictors[0]
        # ------------------------------------------------------------------
        self.model_swaps += 1
        # Old chunks were routed before the cutover; let them finish on the
        # old slots, one each.
        old_tasks = [task for replica in old_replicas for task in replica.tasks]
        if old_tasks:
            _, late = await asyncio.wait(old_tasks, timeout=drain_timeout)
            if late:
                raise TimeoutError(
                    f"old replicas of {name!r} still busy after "
                    f"{drain_timeout}s drain"
                )
        worker.drain()  # anything withheld during the drain pops now
        # Drained worker-process replicas release their children here (a
        # no-op for in-process predictors, which have no close()).
        for replica in old_replicas:
            self._close_predictor(replica.predictor)
        drained_chunks = sum(replica.chunks for replica in old_replicas)
        self._log.info(
            "model_swapped",
            model=name,
            replicas=len(new_replicas),
            cutover_batch_id=cutover,
            drained_chunks=drained_chunks,
        )
        if self.instrument:
            self.metrics.counter("serve_model_swaps", model=name).inc()
        return {
            "model": name,
            "replicas": len(new_replicas),
            "cutover_batch_id": cutover,
            "drained_chunks": drained_chunks,
        }

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and spin up the thread pool; returns the address.

        The pool gets one thread per in-process slot, so forwards on
        distinct slots overlap, plus one, so a swap's checkpoint load never
        queues behind a forward.  Worker-process slots need no thread: their
        forward is an exchange the loop awaits.
        """
        if not self._models:
            raise RuntimeError("no models registered; call add_model() first")
        self._loop = asyncio.get_running_loop()
        self.num_workers = 1 + sum(
            _exchange(replica.predictor) is None
            for worker in self._models.values()
            for replica in worker.replicas
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._started_at = time.monotonic()
        self._cpu_started = time.process_time()
        host, port = self.address
        self._log.info(
            "server_started",
            host=host,
            port=port,
            models=sorted(self._models),
            workers=self.num_workers,
            max_in_flight=self.max_in_flight,
            instrument=self.instrument,
        )
        return host, port

    async def serve_forever(self) -> None:
        """Run until cancelled (after :meth:`start`)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def _close_predictor(self, predictor) -> None:
        """Release a replica predictor's external resources, if it has any.

        In-process predictors have no ``close`` and are untouched;
        :class:`~repro.serve.workers.WorkerPredictor` kills its supervised
        child.  Failures are logged, never raised — teardown of one replica
        must not abort shutdown/swap of the rest.
        """
        closer = getattr(predictor, "close", None)
        if not callable(closer):
            return
        try:
            closer()
        except Exception as error:  # noqa: BLE001 — teardown must not cascade
            self._log.warning(
                "replica_close_failed",
                error=f"{type(error).__name__}: {error}",
            )

    async def stop(self) -> None:
        """Graceful, idempotent shutdown.

        Stops accepting, terminates every queued prediction with
        ``shutting_down`` (never leaves a client hanging), waits for
        running flushes to finish, then closes connections and the pool.
        """
        if self._stopped:
            return
        self._stopped = True
        self._closing = True
        if self._server is not None:
            # close() stops new connections; wait_closed() is deliberately
            # deferred until after connection teardown — on Python 3.12.1+
            # it waits for every connection handler to return, and handlers
            # only return once their clients' pending responses (delivered
            # below) have gone out and the transports are closed.
            self._server.close()
        # Fail everything still queued; handles become terminally done.
        for worker in self._models.values():
            worker.cancel_timer()
            worker.batcher.shutdown("server shutting down")
        # Let chunks already running finish (their waiters get results).
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for worker in self._models.values():
            worker.resolve_terminal()
        # Give response tasks a chance to write their final frames; tasks
        # that outlive the grace period are cancelled (not silently
        # abandoned) and counted, so a wedged writer can never hold stop()
        # hostage or leak a running task past shutdown.
        pending = [t for conn in self._connections for t in conn.tasks]
        if pending:
            done, survivors = await asyncio.wait(
                pending, timeout=self.stop_timeout
            )
            if survivors:
                self.abandoned_tasks += len(survivors)
                self._log.warning(
                    "stop_abandoned_tasks",
                    count=len(survivors),
                    timeout_s=self.stop_timeout,
                )
                for task in survivors:
                    task.cancel()
                await asyncio.gather(*survivors, return_exceptions=True)
        for conn in list(self._connections):
            conn.writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        # Tear down worker processes last: every chunk is finished, so
        # killing the children can no longer fail a flush.
        for worker in self._models.values():
            for replica in worker.replicas:
                self._close_predictor(replica.predictor)
        for pool in self._worker_pools:
            pool.close()
        self._log.info(
            "server_stopped",
            uptime_s=round(time.monotonic() - self._started_at, 3),
            accepted=self.accepted,
            rejected_overload=self.rejected_overload,
            internal_errors=self.internal_errors,
            abandoned_tasks=self.abandoned_tasks,
        )

    def _track_task(self, task: asyncio.Task) -> None:
        """Keep a strong reference to a chunk task until it completes.

        ``stop`` awaits this set so running flushes finish (and their
        waiters resolve) before connections are torn down.
        """
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_conn_id += 1
        self.total_connections += 1
        conn = _Connection(self._next_conn_id, reader, writer)
        self._connections.add(conn)
        try:
            while True:
                try:
                    message = await protocol.read_frame(reader)
                except ProtocolError:
                    break  # corrupt framing: the stream cannot be trusted
                if message is None:
                    break  # clean EOF
                task = self._loop.create_task(self._handle_message(conn, message))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            writer.close()

    async def _handle_message(self, conn: _Connection, message: dict) -> None:
        raw_id = message.get("id")
        req_id = raw_id if isinstance(raw_id, (str, int, float)) else None
        # Responses echo the requester's protocol version: a v1 peer keeps
        # seeing v1 envelopes end to end.
        reply_v = (
            message.get("v")
            if message.get("v") in protocol.SUPPORTED_VERSIONS
            else protocol.PROTOCOL_VERSION
        )

        async def reply(response: dict) -> None:
            response["v"] = reply_v
            encode_s = await conn.send(response)
            if self.instrument:
                if self._encode_hist is None:
                    self._encode_hist = self.metrics.histogram("serve_encode_seconds")
                self._encode_hist.record(encode_s)

        try:
            op, req_id = protocol.validate_request(message)
            # Read-only probes keep working while draining (a shedding
            # server must not blind the operator); only work-creating
            # operations are refused.
            if self._closing and op not in ("health", "stats", "metrics"):
                raise ServingClosedError("server is shutting down")
            handler = getattr(self, f"_op_{op}")
            result = await handler(conn, message)
        except ProtocolError as error:
            await reply(protocol.error_response(req_id, error.code, str(error)))
        except DeadlineExceededError as error:
            await reply(
                protocol.error_response(
                    req_id, protocol.E_DEADLINE_EXCEEDED, str(error)
                )
            )
        except UnavailableError as error:
            if self.instrument:
                self.metrics.counter("serve_rejected_unavailable").inc()
            await reply(
                protocol.error_response(req_id, protocol.E_UNAVAILABLE, str(error))
            )
        except OverloadedError as error:
            self.rejected_overload += 1
            self._log.warning(
                "overloaded",
                in_flight=self.in_flight,
                max_in_flight=self.max_in_flight,
            )
            if self.instrument:
                self.metrics.counter("serve_rejected_overload").inc()
            await reply(
                protocol.error_response(req_id, protocol.E_OVERLOADED, str(error))
            )
        except ServingClosedError as error:
            await reply(
                protocol.error_response(req_id, protocol.E_SHUTTING_DOWN, str(error))
            )
        except Exception as error:  # unexpected: typed as internal
            self.internal_errors += 1
            await reply(
                protocol.error_response(
                    req_id, protocol.E_INTERNAL, f"{type(error).__name__}: {error}"
                )
            )
        else:
            try:
                await reply(protocol.ok_response(req_id, result))
            except ProtocolError as error:
                # encode_frame refused (response over the frame cap) before
                # any byte was written, so the stream is intact — answer
                # with a typed error instead of leaving the id unanswered.
                self.internal_errors += 1
                await reply(
                    protocol.error_response(
                        req_id, protocol.E_INTERNAL, f"response too large: {error}"
                    )
                )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _worker(self, message: dict) -> _ModelWorker:
        name = _require(message, "model", (str,), "a registered model name")
        worker = self._models.get(name)
        if worker is None:
            raise ProtocolError(
                f"unknown model {name!r} (registered: {sorted(self._models)})",
                protocol.E_UNKNOWN_MODEL,
            )
        return worker

    def _conn_windows(self, conn: _Connection, worker: _ModelWorker) -> StreamingWindows:
        obs_len = worker.batcher.predictor.obs_len
        windows = conn.windows.get(worker.name)
        # A swap to a predictor with another obs_len restarts the windows:
        # the connection's agents re-warm over obs_len frames, as after a gap.
        if windows is None or windows.obs_len != obs_len:
            windows = conn.windows[worker.name] = StreamingWindows(
                obs_len=obs_len, max_neighbours=worker.batcher.max_neighbours
            )
        return windows

    def _admit(self, count: int) -> None:
        if self.in_flight + count > self.max_in_flight:
            raise OverloadedError(
                f"{self.in_flight} predictions in flight; admitting {count} more "
                f"would exceed the cap of {self.max_in_flight} — retry later"
            )
        self.accepted += count

    def _note_inflight(self, delta: int) -> None:
        self.in_flight += delta
        self.in_flight_peak = max(self.in_flight_peak, self.in_flight)

    @staticmethod
    def _deadline(message: dict, worker: _ModelWorker) -> float | None:
        """Absolute expiry (batcher clock) from the ``deadline_ms`` field.

        Additive envelope field, same pattern as the ``metrics`` op: absent
        means no deadline, so v1 peers and old clients are untouched.  The
        wire value is *relative* milliseconds — the client's clock never has
        to agree with the server's.
        """
        raw = message.get("deadline_ms")
        if raw is None:
            return None
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
            raise ProtocolError(
                f"'deadline_ms' must be a positive number of milliseconds, "
                f"got {raw!r}",
                protocol.E_BAD_REQUEST,
            )
        return worker.batcher.clock() + float(raw) / 1000.0

    @staticmethod
    def _wire_dtype(message: dict) -> str | None:
        """The response tensor dtype, or None for a JSON (v1-style) response.

        A request opts into binary responses with ``"bin": true`` (whatever
        kind of frame it arrived in) and may pick the samples dtype with
        ``"dtype"`` — ``"f4"`` (default; compact, exact to ~1e-7 at unit
        scale) or ``"f8"`` (bit-exact).
        """
        if not message.get("bin"):
            return None
        dtype = message.get("dtype", "f4")
        if dtype not in ("f4", "f8"):
            raise ProtocolError(
                f"'dtype' must be 'f4' or 'f8', got {dtype!r}", protocol.E_BAD_REQUEST
            )
        return "<" + dtype

    @staticmethod
    def _handle_payload(handle: PendingPrediction, wire_dtype: str | None) -> dict:
        samples = handle.result()  # re-raises the terminal error, if any
        return {
            "samples": samples.astype(wire_dtype) if wire_dtype else samples.tolist(),
            "meta": {
                "batch_id": handle.batch_id,
                "row": handle.batch_row,
                "batch_size": handle.batch_size,
            },
        }

    def _trace_meta(
        self, handle: PendingPrediction, admission_s: float, started_at: float
    ) -> dict:
        """The ``meta.trace`` object for a traced request.

        Stage durations come from the batcher's per-handle capture plus the
        handler-side admission measurement; ``encode`` is absent by
        construction (see :meth:`_Connection.send`).  Purely additive: the
        ``samples`` wire image and the replay meta fields are untouched.
        """
        stages = {"admission": admission_s}
        if handle.stage_s:
            stages.update(handle.stage_s)
        trace = {
            "stages": {name: round(secs, 6) for name, secs in stages.items()},
            "total_s": round(self._loop.time() - started_at, 6),
        }
        if handle.nested_s:
            trace["nested"] = {
                name: round(secs, 6) for name, secs in handle.nested_s.items()
            }
        return trace

    async def _op_health(self, conn: _Connection, message: dict) -> dict:
        return {
            "status": "shutting_down" if self._closing else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "protocols": list(protocol.SUPPORTED_VERSIONS),
            "binary": True,
            "models": sorted(self._models),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    async def _op_stats(self, conn: _Connection, message: dict) -> dict:
        return {
            "server": {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "connections": len(self._connections),
                "total_connections": self.total_connections,
                "in_flight": self.in_flight,
                "in_flight_peak": self.in_flight_peak,
                "max_in_flight": self.max_in_flight,
                "accepted": self.accepted,
                "rejected_overload": self.rejected_overload,
                "internal_errors": self.internal_errors,
                "abandoned_tasks": self.abandoned_tasks,
                "model_swaps": self.model_swaps,
                "workers": self.num_workers,
                "cpu_ms_per_row": self._cpu_ms_per_row(),
            },
            "models": {name: worker.stats() for name, worker in self._models.items()},
        }

    def _cpu_ms_per_row(self) -> float | None:
        """This process's CPU milliseconds per answered row since start().

        ``time.process_time`` counts every thread of the process, so a
        server embedded next to its clients counts their CPU too.  None
        until a row has been answered.
        """
        rows = sum(worker.completed for worker in self._models.values())
        if not rows:
            return None
        return round((time.process_time() - self._cpu_started) * 1e3 / rows, 4)

    async def _op_observe(self, conn: _Connection, message: dict) -> dict:
        worker = self._worker(message)
        frame = int(_require(message, "frame", (int,), "an integer frame number"))
        positions = _require(message, "positions", (dict,), "an object of agent positions")
        parsed: dict[str, tuple[float, float]] = {}
        for agent_id, xy in positions.items():
            point = _parse_array(xy, "[x, y]", 1)
            if point.shape != (2,):
                raise ProtocolError(
                    f"position for agent {agent_id!r} must be [x, y], "
                    f"got shape {point.shape}",
                    protocol.E_BAD_REQUEST,
                )
            parsed[agent_id] = (float(point[0]), float(point[1]))
        windows = self._conn_windows(conn, worker)
        windows.push_frame(frame, parsed)
        # Bound per-connection state: agents not heard from for a few window
        # lengths are dropped, so id churn on a long-lived connection cannot
        # grow the server without limit.
        dropped = windows.drop_stale(frame, self.stale_after * windows.obs_len)
        return {
            "agents": windows.num_agents,
            "ready": sorted(windows.ready_agents(frame)),
            "dropped": dropped,
        }

    async def _op_predict(self, conn: _Connection, message: dict) -> dict:
        started = self._loop.time()
        worker = self._worker(message)
        if "obs" in message:
            return await self._predict_explicit(conn, worker, message, started)
        if "frame" in message:
            return await self._predict_frame(conn, worker, message, started)
        raise ProtocolError(
            "predict needs either 'obs' (explicit window) or 'frame' "
            "(predict every ready observed agent)",
            protocol.E_BAD_REQUEST,
        )

    async def _predict_explicit(
        self, conn: _Connection, worker: _ModelWorker, message: dict, started: float
    ) -> dict:
        obs = _parse_array(message["obs"], "[obs_len, 2]", 2)
        # NB: an explicit `is None`/size check — binary requests deliver
        # `neighbours` as an ndarray, whose truthiness is ambiguous.
        raw_neighbours = message.get("neighbours")
        if raw_neighbours is None or (
            isinstance(raw_neighbours, (list, tuple, np.ndarray))
            and len(raw_neighbours) == 0
        ):
            neighbours = None
        else:
            neighbours = _parse_array(raw_neighbours, "[N, obs_len, 2]", 3)
        domain_id = message.get("domain_id", 0)
        if not isinstance(domain_id, int) or isinstance(domain_id, bool):
            raise ProtocolError("'domain_id' must be an integer", protocol.E_BAD_REQUEST)
        try:
            request = PredictRequest(
                request_id=(conn.conn_id, message.get("id")),
                obs=obs,
                neighbours=neighbours,
                domain_id=domain_id,
            )
        except ValueError as error:
            raise ProtocolError(str(error), protocol.E_BAD_REQUEST) from error
        [payload] = await self._predict_rows(worker, [request], message, started)
        return payload

    async def _predict_frame(
        self, conn: _Connection, worker: _ModelWorker, message: dict, started: float
    ) -> dict:
        frame = int(_require(message, "frame", (int,), "an integer frame number"))
        requests = self._conn_windows(conn, worker).requests(frame)
        payloads = await self._predict_rows(worker, requests, message, started)
        return {
            "agents": {
                str(request.request_id[0]): payload
                for request, payload in zip(requests, payloads)
            }
        }

    async def _predict_rows(
        self,
        worker: _ModelWorker,
        requests: list[PredictRequest],
        message: dict,
        started: float,
    ) -> list[dict]:
        """Serve one predict's rows; returns a payload per row, in order.

        The one way into the queue for both predict forms: the deadline, one
        admission for every row (admitted or refused together), one
        :meth:`_ModelWorker.submit` of all of them, the rollback of a submit
        that queued nothing, then the await and each row's payload and
        trace.
        """
        trace = bool(message.get("trace"))
        wire_dtype = self._wire_dtype(message)
        deadline = self._deadline(message, worker)
        if not requests:
            return []
        for request in requests:
            request.deadline = deadline
        self._admit(len(requests))
        # Admission ends where queue_wait starts, so the stages never overlap.
        admission_s = self._loop.time() - started
        try:
            futures = worker.submit(requests)
        except ValueError as error:  # e.g. wrong window length
            self.accepted -= len(requests)
            raise ProtocolError(str(error), protocol.E_BAD_REQUEST) from error
        except BaseException:  # never queued (e.g. racing shutdown)
            self.accepted -= len(requests)
            raise
        if self.instrument:
            worker.stage_histogram("admission").record(admission_s)
        handles = [await future for future in futures]
        payloads = []
        for handle in handles:
            payload = self._handle_payload(handle, wire_dtype)
            if trace:
                payload["meta"]["trace"] = self._trace_meta(
                    handle, admission_s, started
                )
            payloads.append(payload)
        return payloads

    async def _op_flush(self, conn: _Connection, message: dict) -> dict:
        worker = self._worker(message)
        return {"flushed": worker.flush_now()}

    async def _op_metrics(self, conn: _Connection, message: dict) -> dict:
        """Full registry snapshot — histograms, counters, gauges, quantiles."""
        return {
            "instrument": self.instrument,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "metrics": self.metrics.snapshot(),
        }


class ServerThread:
    """Host an :class:`AsyncServingServer` on a daemon thread.

    The blocking start/stop face used by the sync world (tests, the
    ``bench_server`` load generator, the demo, CI smoke): ``start()`` returns
    the bound address once the server accepts connections and ``stop()``
    tears everything down and joins the thread.  Context-manager friendly.
    """

    def __init__(self, server: AsyncServingServer) -> None:
        self.server = server
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        import threading

        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # surface bind errors to start()
                self._startup_error = error
                self._ready.set()
                loop.close()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within the timeout")
        if self._startup_error is not None:
            # Reset so a `finally: thread.stop()` is a no-op and the caller
            # may retry start() (e.g. on a different port).
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout)
            self._thread = None
            self._loop = None
            raise error
        return self.server.address

    def swap_model(
        self,
        name: str,
        predictor_factory: Callable[[], Predictor],
        *,
        timeout: float = 60.0,
    ) -> dict:
        """Blocking wrapper around :meth:`AsyncServingServer.swap_model`."""
        if self._thread is None or self._loop is None or self._loop.is_closed():
            raise RuntimeError("server thread not running")
        future = asyncio.run_coroutine_threadsafe(
            self.server.swap_model(name, predictor_factory), self._loop
        )
        return future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None or self._loop is None or self._loop.is_closed():
            self._thread = None
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> ServerThread:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> None:
    """CLI: serve one or more registry models until interrupted."""
    import argparse

    from repro.serve.registry import ModelRegistry

    parser = argparse.ArgumentParser(
        description="Serve trained models from a ModelRegistry over TCP."
    )
    parser.add_argument("--registry", required=True, help="registry root directory")
    parser.add_argument(
        "--model",
        action="append",
        required=True,
        help="model name (repeatable); NAME or NAME:VERSION",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--num-samples", type=int, default=1)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-wait", type=float, default=0.0)
    parser.add_argument("--max-in-flight", type=int, default=256)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve each model from this many supervised child processes "
        "loading from the same registry (0 = one in-process predictor; "
        "escapes the GIL, keeps (seed, batch_id) replay)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--compile",
        action="store_true",
        help="serve through compiled execution plans (per-shape-bucket "
        "caching; falls back to eager for uncapturable methods)",
    )
    args = parser.parse_args(argv)

    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    registry = ModelRegistry(args.registry)
    server = AsyncServingServer(
        args.host, args.port, max_in_flight=args.max_in_flight, seed=args.seed
    )
    batching = dict(
        num_samples=args.num_samples,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
    )
    for spec in args.model:
        name, _, version = spec.partition(":")
        resolved = int(version) if version else registry.latest_version(name)
        if args.workers:
            # Each child loads the checkpoint from the shared registry
            # itself (the spec crosses the process boundary as JSON, never
            # as a live object).
            server.add_model(
                name,
                WorkerSpec(
                    factory="repro.serve.workers:registry_predictor",
                    kwargs={
                        "root": str(args.registry),
                        "name": name,
                        "version": resolved,
                        "compile": bool(args.compile),
                    },
                ),
                workers=args.workers,
                **batching,
            )
        else:
            server.add_model(
                name, registry.load(name, resolved, compile=args.compile), **batching
            )

    async def serve() -> None:
        host, port = await server.start()
        print(f"serving {sorted(server._models)} on {host}:{port}")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
