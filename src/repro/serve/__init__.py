"""``repro.serve`` — online trajectory-prediction serving.

The inference-side counterpart to the training stack, in two layers:

* **In-process** — a versioned :class:`ModelRegistry` of self-describing
  checkpoints, a uniform :class:`Predictor` interface over any
  method/backbone combination, a :class:`MicroBatcher` that coalesces
  concurrent single-agent requests into padded vectorized batches, and
  :class:`StreamingWindows` for per-agent sliding observation windows over
  live point streams.
* **Network** — :class:`AsyncServingServer`, an asyncio TCP front-end
  speaking a length-prefixed JSON/binary protocol (:mod:`repro.serve.protocol`)
  with admission control and one queue per model, the only place work
  waits.  A model runs on one in-process :class:`Predictor`, or on N
  supervised child processes (:class:`WorkerPool`/:class:`WorkerPredictor`,
  :mod:`repro.serve.workers`) that escape the GIL.  A predict queues all of
  its rows at once, and each free slot takes one chunk at a time, which
  runs one way on either kind of slot — collate on the event loop, the
  slot's forward, fulfil on the loop — while keeping the replay
  invariant; plus the blocking :class:`ServingClient`
  with :class:`RetryPolicy` backoff and a binary payload mode.

Serving invariants (see ``docs/architecture.md`` and ``docs/serving.md``):

* all prediction runs under :func:`repro.nn.inference_mode` — no autograd
  graphs, no gradient buffers, no dropout;
* request coalescing is padded + masked, never a per-request Python loop,
  and is bit-identical to the offline evaluation batch built from the same
  windows;
* world-frame round trip (normalize on ingest, denormalize on emit) reuses
  the ``repro.data`` conventions;
* shutdown is idempotent and terminal — pending requests resolve with
  :class:`ServingClosedError` (or a ``shutting_down`` response on the wire),
  never by hanging;
* every served batch is replayable: its noise derives from
  ``(seed, batch_id)`` alone, so the ``batch_id``/``row`` response meta
  reproduce any served prediction through the offline ``predict_samples``
  path.
"""

from repro.serve.batcher import (
    DeadlineExceededError,
    FlushChunk,
    MicroBatcher,
    PendingPrediction,
    PredictRequest,
    ServingClosedError,
    collate_requests,
)
from repro.serve.client import RetryPolicy, ServingClient
from repro.serve.faults import (
    ChaosProxy,
    FaultError,
    FaultPlan,
    FaultRule,
    FaultyPredictor,
)
from repro.serve.predictor import Predictor
from repro.serve.protocol import ProtocolError, RemoteServingError
from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    AsyncServingServer,
    CircuitBreaker,
    OverloadedError,
    ServerThread,
    UnavailableError,
)
from repro.serve.streaming import StreamingWindows
from repro.serve.workers import (
    WorkerCrashedError,
    WorkerPool,
    WorkerPredictor,
    WorkerSpawnError,
    WorkerSpec,
    WorkerStallError,
)

__all__ = [
    "AsyncServingServer",
    "ChaosProxy",
    "CircuitBreaker",
    "DeadlineExceededError",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "FaultyPredictor",
    "FlushChunk",
    "MicroBatcher",
    "ModelRegistry",
    "OverloadedError",
    "PendingPrediction",
    "PredictRequest",
    "Predictor",
    "ProtocolError",
    "RemoteServingError",
    "RetryPolicy",
    "ServerThread",
    "ServingClient",
    "ServingClosedError",
    "StreamingWindows",
    "UnavailableError",
    "WorkerCrashedError",
    "WorkerPool",
    "WorkerPredictor",
    "WorkerSpawnError",
    "WorkerSpec",
    "WorkerStallError",
    "collate_requests",
]
