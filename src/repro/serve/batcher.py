"""Dynamic micro-batching: coalesce single-agent requests into padded batches.

Online consumers submit one agent's observation window at a time; running the
model per request would pay the full Python/numpy dispatch overhead per
agent.  The :class:`MicroBatcher` queues requests and hands them out as
padded :class:`~repro.data.dataset.Batch` chunks for the vectorized model hot
path.  A chunk is *due* under two standard policies:

* **max batch size** — a full ``max_batch_size`` chunk is due at once
  (latency never waits on a full batch longer than necessary);
* **max wait** — a partial batch is due once its oldest request has waited
  ``max_wait`` seconds (bounded tail latency under low traffic), or as soon
  as :meth:`MicroBatcher.release` lets it go.

Collation mirrors :meth:`repro.data.dataset.TrajectoryDataset.collate`
bit-for-bit — origin translation to the focal agent's last observed position,
zero-padded neighbour slots with a boolean mask, nearest-first truncation —
so a coalesced serving batch is numerically identical to the offline
evaluation batch built from the same windows.

The queue is the only place work waits, and there is one way to run it:
:meth:`MicroBatcher.submit` only queues, :meth:`MicroBatcher.take_ready` pops
due chunks, and a chunk runs as :meth:`MicroBatcher.prepare_chunk`, the
caller's forward, then :meth:`MicroBatcher.complete_chunk`.  The async
network front-end (:mod:`repro.serve.server`) pops one chunk per free slot
and awaits each slot's forward on its event loop.  Every chunk draws
its noise from ``default_rng((seed_per_flush, batch_id))``, so any served
batch replays offline from its ``batch_id`` and request payloads alone.
:meth:`MicroBatcher.shutdown` terminates every pending request with a
:class:`ServingClosedError` instead of leaving waiters hanging.  See
``docs/serving.md`` for the full batching and backpressure semantics.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import PRED_LEN, Batch, collate_windows
from repro.serve.predictor import Predictor

__all__ = [
    "DeadlineExceededError",
    "FlushChunk",
    "MicroBatcher",
    "PendingPrediction",
    "PredictRequest",
    "ServingClosedError",
    "batch_from_wire",
    "batch_to_wire",
    "collate_requests",
]


class ServingClosedError(RuntimeError):
    """Raised by submissions to — and pending results of — a shut-down batcher.

    This is the *terminal* error shutdown delivers: every request still
    pending when :meth:`MicroBatcher.shutdown` runs has this error set on its
    handle, so pollers observe ``done`` and fail fast instead of hanging on a
    flush that will never happen.
    """


class DeadlineExceededError(RuntimeError):
    """Terminal error of a request whose deadline expired before inference.

    A :class:`PredictRequest` may carry an absolute ``deadline`` (batcher
    clock).  Expired requests are swept out *before* the model runs — while
    queued (:meth:`MicroBatcher.expire_pending`), and again just before their
    chunk's forward (:meth:`MicroBatcher.expire_chunk`, inside
    :meth:`MicroBatcher.prepare_chunk`) — so the server never computes
    answers nobody is waiting for.  On the wire this maps to the typed
    ``deadline_exceeded`` response.
    """


@dataclass
class PredictRequest:
    """One agent's ready-to-predict observation window (world coordinates).

    Attributes
    ----------
    request_id : caller-chosen identifier, returned with the result.
    obs : ``[obs_len, 2]`` focal agent's observed positions.
    neighbours : ``[N, obs_len, 2]`` neighbours' windows (N >= 0).
    domain_id : source-domain hint; serving an unseen domain uses 0 (the
        AdapTraj aggregator path ignores it).
    deadline : absolute expiry time on the batcher's clock, or None (no
        deadline).  A request past its deadline is answered with a terminal
        :class:`DeadlineExceededError` instead of being coalesced into a
        flush — expiry never changes the results of the requests that do run
        (the batch simply collates without the expired rows, and the replay
        meta describes the batch actually executed).
    """

    request_id: object
    obs: np.ndarray
    neighbours: np.ndarray | None = None
    domain_id: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        self.obs = np.asarray(self.obs, dtype=np.float64)
        if self.obs.ndim != 2 or self.obs.shape[1] != 2:
            raise ValueError(f"obs must be [obs_len, 2], got {self.obs.shape}")
        if self.neighbours is None:
            self.neighbours = np.zeros((0, self.obs.shape[0], 2))
        self.neighbours = np.asarray(self.neighbours, dtype=np.float64)
        if self.neighbours.size == 0:
            self.neighbours = self.neighbours.reshape(0, self.obs.shape[0], 2)
        if (
            self.neighbours.ndim != 3
            or self.neighbours.shape[1] != self.obs.shape[0]
            or self.neighbours.shape[2] != 2
        ):
            raise ValueError(
                f"neighbours must be [N, obs_len, 2], got {self.neighbours.shape}"
            )

    @property
    def num_neighbours(self) -> int:
        return self.neighbours.shape[0]


class PendingPrediction:
    """Future-like handle, one per request :meth:`MicroBatcher.submit` queues.

    A handle resolves exactly once, either with world-frame samples
    (:meth:`result`) or with a terminal error (``error``) — e.g. a failed
    forward, or batcher shutdown.  ``done`` is True in both cases, so
    pollers never hang on a request that can no longer complete.
    """

    __slots__ = (
        "request",
        "enqueued_at",
        "popped_at",
        "_samples",
        "_error",
        "batch_id",
        "batch_row",
        "batch_size",
        "stage_s",
        "nested_s",
    )

    def __init__(self, request: PredictRequest, enqueued_at: float) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        #: When the request left the queue for a flush chunk (batcher clock);
        #: ``popped_at - enqueued_at`` is the queue-wait stage.
        self.popped_at: float | None = None
        self._samples: np.ndarray | None = None
        self._error: BaseException | None = None
        #: Which flush served this request (set at fulfilment): the flush's
        #: batch id, this request's row in the collated batch, and the batch
        #: size.  Together with the batcher's ``seed_per_flush`` these make a
        #: served result replayable offline.
        self.batch_id: int | None = None
        self.batch_row: int | None = None
        self.batch_size: int | None = None
        #: Lifecycle stage durations (queue_wait/route/coalesce/inference),
        #: set at fulfilment — the raw material of request tracing
        #: (:mod:`repro.obs.trace`).  Chunk-level stages are shared by every
        #: handle of the flush; ``queue_wait`` is per handle.
        self.stage_s: dict[str, float] | None = None
        #: Durations that lie inside one of those stages (a worker slot's
        #: ``compute``, inside ``inference``), shared by the chunk's handles;
        #: they never count toward a request's coverage of its total.
        self.nested_s: dict[str, float] | None = None

    @property
    def done(self) -> bool:
        """True once the handle holds either samples or a terminal error."""
        return self._samples is not None or self._error is not None

    @property
    def error(self) -> BaseException | None:
        """The terminal error, or None (still pending / completed fine)."""
        return self._error

    def _set_result(self, samples: np.ndarray) -> None:
        if not self.done:
            self._samples = samples

    def _set_error(self, error: BaseException) -> None:
        if not self.done:
            self._error = error

    def result(self) -> np.ndarray:
        """World-frame futures ``[K, pred_len, 2]`` once the batch has run.

        Raises the terminal error if the request failed (flush exception,
        shutdown), or ``RuntimeError`` while it is still waiting to be
        coalesced.
        """
        if self._error is not None:
            raise self._error
        if self._samples is None:
            raise RuntimeError(
                "prediction not ready; the request is still waiting to be "
                "coalesced (pop its chunk with take_ready(), then "
                "prepare_chunk(), the forward and complete_chunk())"
            )
        return self._samples


def collate_requests(
    requests: Sequence[PredictRequest],
    pred_len: int = PRED_LEN,
    max_neighbours: int | None = None,
) -> Batch:
    """Build a normalized, padded :class:`Batch` from serving requests.

    Delegates to :func:`repro.data.dataset.collate_windows` — the same
    collate core the offline evaluation path uses — so serving batches match
    offline batches to the last bit; ``future`` is zero-filled, serving has
    no ground truth.
    """
    if not requests:
        raise ValueError("cannot collate an empty request list")
    return collate_windows(
        obs_windows=[r.obs for r in requests],
        neighbour_windows=[r.neighbours for r in requests],
        domain_ids=[r.domain_id for r in requests],
        futures=None,
        pred_len=pred_len,
        max_neighbours=max_neighbours,
    )


def batch_to_wire(batch: Batch) -> dict:
    """Serialize a collated serving :class:`Batch` for a worker chunk frame.

    Collation happens *parent-side* (one shared queue / ``batch_id``
    sequence per model), so a worker process receives exactly the padded
    tensors an in-process predictor would see — the replay invariant cannot
    depend on worker placement.  All fields ride the binary tensor tail
    (float64 on the wire; ``neighbour_mask``/``domain_ids`` are carried as
    floats because the tail admits ``<f4``/``<f8`` only) except ``future``,
    which is zero-filled in serving batches and travels as its length alone.
    """
    return {
        "obs": np.asarray(batch.obs, dtype=np.float64),
        "neighbours": np.asarray(batch.neighbours, dtype=np.float64),
        "neighbour_mask": np.asarray(batch.neighbour_mask, dtype=np.float64),
        "domain_ids": np.asarray(batch.domain_ids, dtype=np.float64),
        "origins": np.asarray(batch.origins, dtype=np.float64),
        "pred_len": int(batch.future.shape[1]),
    }


def batch_from_wire(fields: dict) -> Batch:
    """Rebuild the exact collated :class:`Batch` from :func:`batch_to_wire`.

    Validates shapes/dtypes defensively (the other end of this exchange is a
    network socket) and restores the native dtypes of the collate core —
    ``bool`` mask, ``int64`` domain ids, zero-filled ``future`` — so the
    worker's forward is bit-identical to the parent running the same chunk.
    Raises :class:`ValueError` on malformed fields; worker hosts map that to
    a typed ``bad_request`` response.
    """
    if not isinstance(fields, dict):
        raise ValueError(f"worker batch must be a mapping, got {type(fields).__name__}")
    try:
        obs = np.asarray(fields["obs"], dtype=np.float64)
        neighbours = np.asarray(fields["neighbours"], dtype=np.float64)
        mask_f = np.asarray(fields["neighbour_mask"], dtype=np.float64)
        domain_f = np.asarray(fields["domain_ids"], dtype=np.float64)
        origins = np.asarray(fields["origins"], dtype=np.float64)
        pred_len = int(fields["pred_len"])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed worker batch: {error}") from error
    if obs.ndim != 3 or obs.shape[2] != 2:
        raise ValueError(f"obs must be [B, obs_len, 2], got {obs.shape}")
    batch_size, obs_len = obs.shape[0], obs.shape[1]
    if neighbours.shape[:1] + neighbours.shape[2:] != (batch_size, obs_len, 2):
        raise ValueError(
            f"neighbours must be [B, K, obs_len, 2] matching obs {obs.shape}, "
            f"got {neighbours.shape}"
        )
    if mask_f.shape != neighbours.shape[:2]:
        raise ValueError(
            f"neighbour_mask must be [B, K] = {neighbours.shape[:2]}, "
            f"got {mask_f.shape}"
        )
    if domain_f.shape != (batch_size,):
        raise ValueError(f"domain_ids must be [B], got {domain_f.shape}")
    if origins.shape != (batch_size, 2):
        raise ValueError(f"origins must be [B, 2], got {origins.shape}")
    if pred_len < 1:
        raise ValueError(f"pred_len must be >= 1, got {pred_len}")
    return Batch(
        obs=obs,
        future=np.zeros((batch_size, pred_len, 2)),
        neighbours=neighbours,
        neighbour_mask=mask_f > 0.5,
        domain_ids=domain_f.astype(np.int64),
        origins=origins,
    )


@dataclass
class FlushChunk:
    """One popped batch of pending requests, ready for :meth:`MicroBatcher.prepare_chunk`.

    ``batch_id`` is assigned under the batcher lock, in pop order, and keys
    the chunk's noise stream ``default_rng((seed_per_flush, batch_id))`` — so
    a served batch can be replayed offline from ``(seed, batch_id)`` plus its
    request payloads alone, whichever slot ran it and when.
    """

    batch_id: int
    handles: list[PendingPrediction] = field(default_factory=list)
    #: When the scheduler dispatched this chunk (batcher clock).  Set by the
    #: async server as it hands the chunk to a free slot; ``prepare_chunk``
    #: turns it into the ``route`` stage (the chunk task's start-up).
    scheduled_at: float | None = None

    @property
    def size(self) -> int:
        return len(self.handles)


class MicroBatcher:
    """Coalesce concurrent prediction requests into padded model batches.

    ``submit`` only queues.  A consumer pops due work with :meth:`take_ready`
    and runs each chunk in three steps: :meth:`prepare_chunk`, its own
    forward, then :meth:`complete_chunk`.  The async serving front-end pops
    one chunk per free slot and keeps model forwards off its event loop.

    Parameters
    ----------
    predictor : the :class:`~repro.serve.predictor.Predictor` to run.
    num_samples : futures sampled per request (best-of-K serving).  Fixed per
        batcher, not per request — every row of a coalesced batch shares one
        ``[K, B, ...]`` forward.
    max_batch_size : rows per chunk; a full chunk is due at once.
    max_wait : seconds a partial batch's oldest request waits before
        ``take_ready`` pops it (unless :meth:`release` lets it go earlier);
        ``0`` means partial batches pop whenever asked (lowest latency,
        coalescing only under backpressure).
    max_neighbours : cap on padded neighbour slots (None = batch maximum).
    seed_per_flush : chunk ``i`` draws its noise from a fresh
        ``default_rng((seed_per_flush, i))``.  This makes every served batch
        independently replayable — the equivalence gate in
        ``benchmarks/bench_server.py`` recomputes served batches offline
        from ``(seed, batch_id)`` — and safe to run out of order across
        slots.
    clock : monotonic time source; injectable for tests.
    """

    def __init__(
        self,
        predictor: Predictor,
        num_samples: int = 1,
        max_batch_size: int = 32,
        max_wait: float = 0.0,
        max_neighbours: int | None = None,
        seed_per_flush: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.predictor = predictor
        self.num_samples = num_samples
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_neighbours = max_neighbours
        self.seed_per_flush = seed_per_flush
        self.clock = clock
        self._lock = threading.Lock()
        self._pending: list[PendingPrediction] = []
        #: Requests queued at or before this time are due (:meth:`release`).
        self._released_at = float("-inf")
        self._closed = False
        self._next_batch_id = 0
        # Observability counters.
        self.total_requests = 0
        self.total_batches = 0
        self.total_completed = 0
        self.total_failed = 0
        self.total_expired = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Requests queued and not yet popped into a flush (queue depth)."""
        return len(self._pending)

    @property
    def next_batch_id(self) -> int:
        """The id the next popped flush will get (the swap cutover marker)."""
        return self._next_batch_id

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has run; submissions are rejected."""
        return self._closed

    @property
    def mean_batch_size(self) -> float:
        """Completed requests per executed batch (coalescing effectiveness)."""
        return self.total_completed / self.total_batches if self.total_batches else 0.0

    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[PredictRequest]) -> list[PendingPrediction]:
        """Queue requests together; each runs once a consumer pops its chunk.

        Returns one handle per request, in order.  Window lengths are
        validated here, against the predictor, before any request is
        queued, so a malformed request fails in its own caller instead of
        poisoning the batch it would later be coalesced into, and a refused
        call leaves nothing queued.
        """
        expected = getattr(self.predictor, "obs_len", None)
        for request in requests:
            if expected is not None and request.obs.shape[0] != expected:
                raise ValueError(
                    f"request {request.request_id!r} has window length "
                    f"{request.obs.shape[0]}, predictor expects {expected}"
                )
        with self._lock:
            if self._closed:
                raise ServingClosedError("batcher is shut down; request rejected")
            enqueued_at = self.clock()
            handles = [PendingPrediction(request, enqueued_at) for request in requests]
            self._pending.extend(handles)
            self.total_requests += len(handles)
        return handles

    def release(self) -> int:
        """Make everything queued due now, whatever ``max_wait`` says.

        Returns how many requests that is.  Requests submitted later wait
        out ``max_wait`` as usual.
        """
        with self._lock:
            self._released_at = self.clock()
            return len(self._pending)

    def take_ready(
        self, now: float | None = None, *, limit: int | None = None
    ) -> list[FlushChunk]:
        """Pop at most ``limit`` due chunks (None: every one) without running them.

        A full ``max_batch_size`` chunk is always due; the partial remainder
        is due once its oldest request has waited ``max_wait`` (with
        ``max_wait=0``: always) or was queued before the last
        :meth:`release`.  Chunks pop in queue order, so a backlog that waits
        for a free slot pops as one coalesced batch, not a convoy of singles.
        """
        with self._lock:
            chunks: list[FlushChunk] = []
            while self._pending and (limit is None or len(chunks) < limit):
                if len(self._pending) < self.max_batch_size:
                    now = self.clock() if now is None else now
                    if now < self._due_at_locked():
                        break
                chunks.append(self._pop_chunk_locked())
            return chunks

    def next_due(self, *, allow_partial: bool) -> float | None:
        """The earliest time (batcher clock) a drain could pop or expire work.

        That is the earliest queued deadline and, when ``allow_partial``, the
        moment the partial batch becomes due — the two moments only time
        (not a submit or a finished chunk) changes what
        :meth:`expire_pending` and :meth:`take_ready` do.  None when nothing
        queued is waiting on the clock.
        """
        with self._lock:
            if not self._pending:
                return None
            due = [
                h.request.deadline
                for h in self._pending
                if h.request.deadline is not None
            ]
            if allow_partial:
                due.append(self._due_at_locked())
        return min(due, default=None)

    # ------------------------------------------------------------------
    # Deadlines and fault handling
    # ------------------------------------------------------------------
    @staticmethod
    def _expired_error(handle: PendingPrediction, now: float) -> DeadlineExceededError:
        overdue = now - handle.request.deadline
        return DeadlineExceededError(
            f"request {handle.request.request_id!r} missed its deadline by "
            f"{overdue * 1e3:.1f}ms before inference ran"
        )

    def expire_pending(self, now: float | None = None) -> list[PendingPrediction]:
        """Sweep queued requests whose deadline passed; returns the expired.

        Each expired handle gets a terminal :class:`DeadlineExceededError`
        *before* it could be coalesced — the answer the caller is still
        around to see.  The async server calls this on every drain and arms
        a timer for the earliest queued deadline (:meth:`next_due`), so a
        request queued behind busy slots is answered at its deadline.
        """
        with self._lock:
            if not self._pending:
                return []
            now = self.clock() if now is None else now
            live = [
                h
                for h in self._pending
                if h.request.deadline is None or now < h.request.deadline
            ]
            if len(live) == len(self._pending):
                return []
            expired = [
                h
                for h in self._pending
                if h.request.deadline is not None and now >= h.request.deadline
            ]
            self._pending = live
            self.total_expired += len(expired)
            self.total_failed += len(expired)
        for handle in expired:
            handle._set_error(self._expired_error(handle, now))
        return expired

    def expire_chunk(
        self, chunk: FlushChunk, now: float | None = None
    ) -> list[PendingPrediction]:
        """Drop expired handles out of a popped chunk; returns the expired.

        :meth:`prepare_chunk` calls it, so the time a popped chunk spends
        reaching its slot counts against its requests' budgets and an
        expired row never reaches inference.  Safe to call repeatedly.  The
        chunk's remaining handles collate as the batch actually executed.
        """
        now = self.clock() if now is None else now
        expired = [
            h
            for h in chunk.handles
            if h.request.deadline is not None and now >= h.request.deadline
        ]
        if not expired:
            return []
        chunk.handles = [h for h in chunk.handles if h not in expired]
        for handle in expired:
            handle._set_error(self._expired_error(handle, now))
        with self._lock:
            self.total_expired += len(expired)
            self.total_failed += len(expired)
        return expired

    def fail_chunk(self, chunk: FlushChunk, error: BaseException) -> None:
        """Terminally fail every handle of a chunk with ``error``.

        What a failed collation or forward does: a poisoned chunk is never
        requeued, so it cannot retry forever.
        """
        for handle in chunk.handles:
            handle._set_error(error)
        with self._lock:
            self.total_failed += len(chunk.handles)

    def prepare_chunk(
        self, chunk: FlushChunk, predictor: Predictor | None = None
    ) -> tuple[Batch, np.random.Generator, dict[str, float]] | None:
        """First step of running a popped chunk: sweep, then collate.

        Returns the padded batch, the chunk's noise stream and its stages so
        far (``route``, ``coalesce``), or None when every row expired.
        Runs without the queue lock (the chunk is owned by the caller).
        ``predictor`` overrides the batcher's own for ``pred_len``: the
        server runs chunks from one shared queue on whichever slot is free,
        and slots are numerically identical, so the per-flush RNG
        derivation keeps the result (and its offline replay) independent
        of the choice.  A collation failure fails the chunk's handles
        (:meth:`fail_chunk`) and propagates, like a failed forward; the
        caller calls :meth:`fail_chunk` itself when its forward raises.
        """
        # Last-chance deadline sweep, just before the forward: an expired
        # row must never reach inference.
        self.expire_chunk(chunk)
        if not chunk.handles:
            return None
        stage: dict[str, float] = {}
        if chunk.scheduled_at is not None:
            stage["route"] = self.clock() - chunk.scheduled_at
        predictor = self.predictor if predictor is None else predictor
        started = self.clock()
        try:
            batch = collate_requests(
                [h.request for h in chunk.handles],
                pred_len=predictor.pred_len,
                max_neighbours=self.max_neighbours,
            )
        except BaseException as error:
            self.fail_chunk(chunk, error)
            raise
        rng = np.random.default_rng((self.seed_per_flush, chunk.batch_id))
        stage["coalesce"] = self.clock() - started
        return batch, rng, stage

    def complete_chunk(
        self,
        chunk: FlushChunk,
        samples: np.ndarray,
        stage: dict[str, float],
        nested: dict[str, float] | None = None,
    ) -> list[PendingPrediction]:
        """Last step of running a popped chunk: fulfil every handle.

        Each handle gets its row of ``samples``, its replay meta and its
        stages: the chunk's ``stage`` plus its own ``queue_wait``.
        ``nested`` holds durations inside one of the ``stage`` entries; they
        reach each handle's ``nested_s``.
        """
        for row, handle in enumerate(chunk.handles):
            handle.batch_id = chunk.batch_id
            handle.batch_row = row
            handle.batch_size = len(chunk.handles)
            handle.stage_s = dict(stage)
            if handle.popped_at is not None:
                handle.stage_s["queue_wait"] = handle.popped_at - handle.enqueued_at
            handle.nested_s = nested
            handle._set_result(samples[:, row])
        with self._lock:
            self.total_batches += 1
            self.total_completed += len(chunk.handles)
        return chunk.handles

    def shutdown(self, reason: str = "serving shut down") -> int:
        """Terminate the batcher; idempotent and exception-safe.

        Every still-pending request gets a terminal
        :class:`ServingClosedError` set on its handle (pollers see ``done``
        and fail fast instead of hanging), and later ``submit`` calls raise.
        Returns the number of requests that were failed; a second call is a
        no-op returning 0.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            orphaned, self._pending = self._pending, []
        error = ServingClosedError(reason)
        for handle in orphaned:
            handle._set_error(error)
        with self._lock:
            self.total_failed += len(orphaned)
        return len(orphaned)

    # ------------------------------------------------------------------
    def _due_at_locked(self) -> float:
        """When the queue's partial batch becomes due (batcher clock)."""
        oldest = self._pending[0].enqueued_at
        return oldest if oldest <= self._released_at else oldest + self.max_wait

    def _pop_chunk_locked(self) -> FlushChunk:
        size = self.max_batch_size
        handles, self._pending = self._pending[:size], self._pending[size:]
        chunk = FlushChunk(batch_id=self._next_batch_id, handles=handles)
        self._next_batch_id += 1
        popped_at = self.clock()  # one read per chunk, shared by its handles
        for handle in handles:
            handle.popped_at = popped_at
        return chunk
