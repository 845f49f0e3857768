"""Process-level workers: serving slots that live in child processes.

Forwards run inside the server process share one GIL, so N CPUs can never
buy N-x aggregate throughput there.  This module puts each serving slot
behind a process boundary while keeping every invariant the serving stack
is built on:

* **Topology** — the parent (`AsyncServingServer`) keeps the public TCP
  front-end, the shared per-model queue, the ``batch_id`` sequence, the
  per-flush RNG derivation, the model's free-slot list and collation.
  Each slot is a :class:`WorkerPredictor`: a child process running
  the predictor loop, fed over one persistent length-prefixed v2 connection
  (binary tensor frames).  The server runs a worker slot's chunk exactly
  as an in-process slot's — ``prepare_chunk``, the forward,
  ``complete_chunk`` on its event loop — and only the forward differs:
  the awaited exchange with the child instead of a pool thread.
* **Replay** — collation happens parent-side
  (:func:`repro.serve.batcher.batch_to_wire` ships the already-collated
  padded tensors) and the chunk carries the *exact* serialized generator
  state (``rng.bit_generator.state``), so a worker's forward is numerically
  identical to an in-process predictor running the same chunk: offline replay
  from ``(seed, batch_id)`` is independent of worker placement.
* **Faults** — a worker crash or stall surfaces as an exception from the
  chunk exchange the server awaits on its event loop
  (:meth:`WorkerPredictor.predict_world_async`), which is exactly the signal
  the circuit breakers consume: the slot's breaker opens, the
  supervisor thread respawns the child, and the half-open probe lands on the
  fresh process.  ``swap_model`` drains/promotes worker pools the same way
  it does an in-process predictor (worker predictors expose ``close()``).

Wire plane
----------
Workers speak the private *worker plane* of the existing protocol
(:data:`repro.serve.protocol.WORKER_OPERATIONS`) on a loopback ephemeral
port (always port 0 + discovery — never a fixed port):

* ``worker_handshake`` → ``{pid, obs_len, pred_len, model, protocol}``;
* ``worker_chunk`` with ``batch`` (binary tensor fields), ``num_samples``
  and ``rng_state`` → ``{samples, compute_s}`` as a binary tensor frame
  (``compute_s``: the child's own ``predict_world`` wall seconds).

Corrupt *framing* closes the connection (the stream can no longer be
trusted); a decodable-but-invalid *message* gets a typed error response —
the same contract the public server honours, so the protocol fuzz suite
covers both planes.

The child host is ``python -m repro.serve.workers --spec <json>``: it builds
its predictor from a :class:`WorkerSpec` (an importable factory reference —
e.g. :func:`registry_predictor` pointed at the shared
:class:`~repro.serve.registry.ModelRegistry`), binds ``127.0.0.1:0``, prints
one JSON ready-line with the bound port on stdout, and exits the moment its
stdin reaches EOF (no orphans when the parent dies).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import importlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.log import get_logger
from repro.serve import protocol
from repro.serve.batcher import batch_from_wire, batch_to_wire
from repro.utils.seeding import new_rng

__all__ = [
    "WorkerCrashedError",
    "WorkerError",
    "WorkerPool",
    "WorkerPredictor",
    "WorkerSpawnError",
    "WorkerSpec",
    "WorkerStallError",
    "faulty_seeded_predictor",
    "generator_from_wire",
    "main",
    "registry_predictor",
    "rng_state_to_wire",
    "seeded_predictor",
]

#: Seconds a spawned child may take to print its ready line + accept the
#: parent's connection (covers interpreter start + model build).
DEFAULT_START_TIMEOUT = 60.0

#: Seconds the parent waits for one chunk's answer before declaring the
#: worker stalled (kill + respawn).  Generous: a stall is a hung process,
#: not a slow batch.
DEFAULT_CHUNK_TIMEOUT = 120.0

#: Consecutive failed respawn attempts before a slot is declared
#: permanently dead (its breaker then keeps it out of routing for good).
DEFAULT_RESPAWN_LIMIT = 5


class WorkerError(RuntimeError):
    """Base class of worker-plane transport failures."""


class WorkerSpawnError(WorkerError):
    """A child process failed to start, signal readiness, or handshake."""


class WorkerCrashedError(WorkerError):
    """The worker process died or its connection broke mid-exchange."""


class WorkerStallError(WorkerError):
    """The worker process is alive but did not answer within the timeout."""


# ----------------------------------------------------------------------
# RNG state transport
# ----------------------------------------------------------------------
def _jsonify(value):
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _unjsonify(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value.get("dtype"))
        return {key: _unjsonify(item) for key, item in value.items()}
    return value


def rng_state_to_wire(rng: np.random.Generator) -> dict:
    """Serialize a generator's exact state for the chunk frame.

    ``bit_generator.state`` is a JSON-able dict for PCG64 (the
    ``default_rng`` family); ndarray-valued states (e.g. Philox keys) are
    wrapped so the round trip stays exact.  Shipping the *state* — not the
    seed — means the worker continues the parent's stream bit-for-bit no
    matter how the generator was derived.
    """
    return _jsonify(rng.bit_generator.state)


def generator_from_wire(state) -> np.random.Generator:
    """Rebuild the exact generator from :func:`rng_state_to_wire` output.

    Raises :class:`ValueError` on malformed state (worker hosts answer that
    with a typed ``bad_request``).
    """
    state = _unjsonify(state)
    if not isinstance(state, dict) or not isinstance(state.get("bit_generator"), str):
        raise ValueError(f"malformed rng state: {type(state).__name__}")
    try:
        bit_generator = getattr(np.random, state["bit_generator"])()
    except (AttributeError, TypeError) as error:
        raise ValueError(f"unknown bit generator {state['bit_generator']!r}") from error
    generator = np.random.Generator(bit_generator)
    try:
        generator.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed rng state: {error}") from error
    return generator


# ----------------------------------------------------------------------
# Worker specification + built-in factories
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """How a worker child builds its predictor: an importable factory.

    ``factory`` is a ``"module:attribute"`` reference resolved *inside the
    child* (specs cross a process boundary, so they must be self-contained
    and JSON-serializable — never a closure or a live object).  ``kwargs``
    are passed to the factory verbatim.  The built-in factories cover the
    common cases: :func:`registry_predictor` loads a published checkpoint
    from a shared :class:`~repro.serve.registry.ModelRegistry` (the
    production shape: every worker host points at the same registry), and
    :func:`seeded_predictor` builds a freshly-initialized method from a seed
    (benchmarks and tests, no checkpoint needed).
    """

    factory: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        module_name, _, attr = self.factory.partition(":")
        if not module_name or not attr:
            raise ValueError(
                f"factory must be 'module:attribute', got {self.factory!r}"
            )
        if not isinstance(self.kwargs, dict):
            raise ValueError(f"kwargs must be a dict, got {type(self.kwargs).__name__}")

    def build(self):
        """Import and call the factory (in the child process)."""
        module_name, _, attr = self.factory.partition(":")
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        predictor = target(**self.kwargs)
        for required in ("predict_world", "obs_len", "pred_len"):
            if not hasattr(predictor, required):
                raise TypeError(
                    f"factory {self.factory!r} built {type(predictor).__name__}, "
                    f"which lacks the predictor attribute {required!r}"
                )
        return predictor

    def to_json(self) -> str:
        return json.dumps({"factory": self.factory, "kwargs": self.kwargs})

    @classmethod
    def from_json(cls, text: str) -> WorkerSpec:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"worker spec must be a JSON object, got {text!r}")
        return cls(factory=str(data.get("factory", "")), kwargs=data.get("kwargs") or {})


def seeded_predictor(
    method: str = "vanilla",
    backbone: str = "pecnet",
    num_domains: int = 1,
    seed: int = 0,
    compile: bool = False,
):
    """Worker factory: a freshly-initialized method from a seed (no registry).

    Deterministic — the same ``(method, backbone, num_domains, seed)`` builds
    numerically identical weights in every process, which is what the
    horizontal-scale benchmark's offline replay relies on.
    """
    from repro.baselines import build_method
    from repro.serve.predictor import Predictor

    return Predictor(
        build_method(method, backbone, num_domains=num_domains, rng=seed),
        compile=compile,
    )


def registry_predictor(
    root: str,
    name: str,
    version: int | None = None,
    dtype_policy: str = "module",
    compile: bool = False,
):
    """Worker factory: load a published checkpoint from a shared registry."""
    from repro.serve.registry import ModelRegistry

    return ModelRegistry(root).load(
        name, version=version, dtype_policy=dtype_policy, compile=compile
    )


def faulty_seeded_predictor(
    rules: list | tuple = (),
    fault_seed: int = 0,
    **kwargs,
):
    """Worker factory: :func:`seeded_predictor` wrapped in a fault plan.

    ``rules`` are :class:`~repro.serve.faults.FaultRule` kwargs dicts; the
    ``"crash"`` kind hard-exits the *worker process* mid-chunk — the
    deterministic way to exercise crash → breaker → respawn without racing
    a SIGKILL against the flush path.
    """
    from repro.serve.faults import FaultPlan, FaultRule, FaultyPredictor

    plan = FaultPlan(fault_seed, [FaultRule(**rule) for rule in rules])
    return FaultyPredictor(seeded_predictor(**kwargs), plan)


# ----------------------------------------------------------------------
# Child process: the worker host
# ----------------------------------------------------------------------
def _safe_id(message: dict):
    req_id = message.get("id")
    if req_id is None or isinstance(req_id, (dict, list, bool)):
        return None
    return req_id


def _handle_worker_message(message: dict, predictor, predictor_lock) -> dict:
    op, req_id = protocol.validate_request(
        message, operations=protocol.WORKER_OPERATIONS
    )
    if op == "worker_handshake":
        describe = getattr(predictor, "describe", None)
        return protocol.ok_response(
            req_id,
            {
                "pid": os.getpid(),
                "obs_len": int(predictor.obs_len),
                "pred_len": int(predictor.pred_len),
                "model": describe() if callable(describe) else type(predictor).__name__,
                "protocol": protocol.PROTOCOL_VERSION,
            },
        )
    # worker_chunk: decode the collated batch + exact RNG state, run the
    # forward, answer with the sample tensor.  Malformed fields are typed
    # bad_request errors — the connection survives (only corrupt *framing*
    # closes it).
    try:
        batch = batch_from_wire(message.get("batch"))
        rng = generator_from_wire(message.get("rng_state"))
    except ValueError as error:
        raise protocol.ProtocolError(str(error), protocol.E_BAD_REQUEST) from error
    num_samples = message.get("num_samples")
    if not isinstance(num_samples, int) or isinstance(num_samples, bool) or num_samples < 1:
        raise protocol.ProtocolError(
            f"num_samples must be a positive integer, got {num_samples!r}",
            protocol.E_BAD_REQUEST,
        )
    with predictor_lock:
        started = time.monotonic()
        samples = predictor.predict_world(batch, num_samples, rng)
        compute_s = time.monotonic() - started
    return protocol.ok_response(
        req_id,
        {"samples": np.asarray(samples, dtype=np.float64), "compute_s": compute_s},
    )


def _serve_worker_connection(conn: socket.socket, predictor, predictor_lock) -> None:
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                message = protocol.read_frame_sync(conn)
            except (protocol.ProtocolError, OSError):
                return  # corrupt framing / dead peer: close, stream is gone
            if message is None:
                return  # clean EOF
            try:
                response = _handle_worker_message(message, predictor, predictor_lock)
            except protocol.ProtocolError as error:
                response = protocol.error_response(
                    _safe_id(message), error.code, str(error)
                )
            except Exception as error:  # noqa: BLE001 — every model failure
                # must become a typed response, never an unhandled traceback.
                response = protocol.error_response(
                    _safe_id(message),
                    protocol.E_INTERNAL,
                    f"{type(error).__name__}: {error}",
                )
            try:
                conn.sendall(protocol.encode_frame_auto(response))
            except OSError:
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _watch_stdin() -> None:
    """Exit the moment the parent's stdin pipe reaches EOF (no orphans)."""
    try:
        while sys.stdin.buffer.read(4096):
            pass
    except Exception:  # lint: disable=REP-EXC(parent is gone — nowhere to report; the next line exits the process)
        pass
    os._exit(0)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve.workers`` (the worker host)."""
    parser = argparse.ArgumentParser(description="repro serving worker host")
    parser.add_argument("--spec", required=True, help="WorkerSpec JSON")
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)

    spec = WorkerSpec.from_json(args.spec)
    predictor = spec.build()
    predictor_lock = threading.Lock()

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((args.host, 0))  # always an ephemeral port + discovery
    listener.listen(8)
    port = listener.getsockname()[1]

    # The single ready line the parent waits for: bound port + identity.
    print(
        json.dumps({"event": "worker_ready", "port": port, "pid": os.getpid()}),
        flush=True,
    )
    threading.Thread(target=_watch_stdin, daemon=True, name="worker-stdin").start()

    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return 0
        threading.Thread(
            target=_serve_worker_connection,
            args=(conn, predictor, predictor_lock),
            daemon=True,
            name="worker-conn",
        ).start()


# ----------------------------------------------------------------------
# Parent process: handles, predictors, pools
# ----------------------------------------------------------------------
async def _drain_and_read(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> dict | None:
    await writer.drain()
    return await protocol.read_frame(reader)


class _WorkerProcess:
    """One spawned child + its persistent worker-plane connection."""

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
    ) -> None:
        self.chunk_timeout = chunk_timeout
        self._req_id = 0
        #: The blocking socket carries one :meth:`call` at a time.
        self._call_lock = threading.Lock()
        #: The event loop's ``(reader, writer)`` on this connection and the
        #: loop that owns it; opened by the first :meth:`call_async`.
        self._stream: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None
        self._stream_loop: asyncio.AbstractEventLoop | None = None
        self._killed = False
        env = dict(os.environ)
        # The child must import repro exactly as this process does.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # ``-c`` instead of ``-m``: the package imports this module, so
        # runpy would warn about re-executing an already-imported module.
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.serve.workers import main; raise SystemExit(main())",
                "--spec",
                spec.to_json(),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.pid = self.proc.pid
        try:
            ready = self._read_ready(start_timeout)
            self.port = int(ready["port"])
            self.sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=start_timeout
            )
            self.sock.settimeout(chunk_timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.hello = self.call("worker_handshake")
        except BaseException:
            self.kill()
            raise

    def _read_ready(self, timeout: float) -> dict:
        lines: list[bytes] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        if not lines or not lines[0]:
            code = self.proc.poll()
            raise WorkerSpawnError(
                f"worker pid {self.pid} produced no ready line within "
                f"{timeout:.0f}s (exit code {code})"
            )
        try:
            ready = json.loads(lines[0].decode("utf-8"))
            if ready.get("event") != "worker_ready":
                raise ValueError(f"unexpected ready event: {ready!r}")
            return ready
        except (ValueError, UnicodeDecodeError) as error:
            raise WorkerSpawnError(
                f"worker pid {self.pid} wrote a malformed ready line: {error}"
            ) from error

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def _request(self, op: str, fields: dict) -> tuple[int, bytes]:
        self._req_id += 1
        frame = protocol.encode_frame_auto(protocol.request(op, self._req_id, **fields))
        return self._req_id, frame

    def _stalled(self, op: str) -> WorkerStallError:
        return WorkerStallError(
            f"worker pid {self.pid} did not answer {op!r} within "
            f"{self.chunk_timeout:.0f}s"
        )

    def _broken(self, op: str, error: BaseException) -> WorkerCrashedError:
        return WorkerCrashedError(
            f"worker pid {self.pid} connection broke during {op!r}: {error}"
        )

    def call(self, op: str, **fields) -> dict:
        """One request/response round trip on the persistent connection."""
        with self._call_lock:
            req_id, frame = self._request(op, fields)
            try:
                self.sock.sendall(frame)
                response = protocol.read_frame_sync(self.sock)
            except socket.timeout as error:
                raise self._stalled(op) from error
            except (OSError, protocol.ProtocolError) as error:
                raise self._broken(op, error) from error
        return self._result(op, req_id, response)

    async def call_async(self, op: str, **fields) -> dict:
        """:meth:`call` awaited on the event loop, over an asyncio stream.

        The first call wraps a duplicate descriptor of the handshake's
        socket — the same connection, no second one — so the loop owns and
        closes its descriptor while the supervisor thread closes the
        original.  No answer within ``chunk_timeout`` is a stall.
        """
        req_id, frame = self._request(op, fields)
        try:
            if self._stream is None:
                self._stream_loop = asyncio.get_running_loop()
                self._stream = await asyncio.open_connection(sock=self.sock.dup())
                if self._killed:  # kill() ran while the stream was opening
                    self._close_stream()
                    raise OSError("worker killed")
            reader, writer = self._stream
            writer.write(frame)
            response = await asyncio.wait_for(
                _drain_and_read(reader, writer), self.chunk_timeout
            )
        except asyncio.TimeoutError as error:  # before OSError: it subclasses it
            raise self._stalled(op) from error
        except (OSError, protocol.ProtocolError) as error:
            raise self._broken(op, error) from error
        return self._result(op, req_id, response)

    def _result(self, op: str, req_id: int, response: dict | None) -> dict:
        if response is None:
            raise WorkerCrashedError(
                f"worker pid {self.pid} closed the connection during {op!r}"
            )
        if response.get("id") != req_id:
            raise WorkerCrashedError(
                f"worker pid {self.pid} answered id {response.get('id')!r} "
                f"to request {req_id}"
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            raise protocol.RemoteServingError(
                str(error.get("code", protocol.E_INTERNAL)),
                str(error.get("message", "worker error")),
            )
        result = response.get("result")
        if not isinstance(result, dict):
            raise WorkerCrashedError(
                f"worker pid {self.pid} answered {op!r} without a result object"
            )
        return result

    def _close_stream(self) -> None:
        """Close the event loop's stream, on that loop (any thread may ask)."""
        stream, self._stream = self._stream, None
        if stream is None:
            return
        try:
            self._stream_loop.call_soon_threadsafe(stream[1].close)
        except RuntimeError:
            pass  # the loop is closed: nothing left to close the stream on

    def abort(self) -> None:
        """Kill the child without waiting for the reap (any thread).

        The supervisor thread is already waiting on the child; it reaps it,
        closes the original socket and respawns.
        """
        self._killed = True
        self._close_stream()
        self.proc.kill()

    def kill(self) -> None:
        """Idempotent teardown: close the socket/pipes, kill the child."""
        self._killed = True
        self._close_stream()
        sock = getattr(self, "sock", None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass


class WorkerPredictor:
    """A serving slot whose forward runs in a supervised child process.

    Duck-types the :class:`~repro.serve.predictor.Predictor` surface the
    batcher and server need (``obs_len``/``pred_len``/``predict_world``), so the
    whole slot machinery — free-slot routing, one chunk per slot, circuit
    breakers, swap/drain — works unchanged; the server awaits
    :meth:`predict_world_async` on its event loop instead.  A transport
    failure (crash, stall, malformed answer) raises
    :class:`WorkerCrashedError`/:class:`WorkerStallError` out of
    either form: the chunk fails with a typed error, the slot's
    breaker opens, and the supervisor thread respawns the child so the
    half-open probe lands on a fresh process.  A *typed* worker-side error
    (the model itself failed) propagates as
    :class:`~repro.serve.protocol.RemoteServingError` without killing the
    child — worker death is reserved for transport-level evidence.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        label: str = "worker",
    ) -> None:
        self.spec = spec
        self.chunk_timeout = chunk_timeout
        self.start_timeout = start_timeout
        self.respawn_limit = respawn_limit
        self.label = label
        self._log = get_logger("repro.serve.workers")
        self._lock = threading.Lock()
        self._closed = False
        self.respawns = 0
        self.chunks = 0
        self.failures = 0
        # First spawn is synchronous and raises: a broken factory must fail
        # add_model loudly, not leak a zombie slot.
        self._proc: _WorkerProcess | None = _WorkerProcess(
            spec, chunk_timeout=chunk_timeout, start_timeout=start_timeout
        )
        self.obs_len = int(self._proc.hello["obs_len"])
        self.pred_len = int(self._proc.hello["pred_len"])
        self.model = self._proc.hello.get("model")
        self._monitor = threading.Thread(
            target=self._watch, daemon=True, name=f"{label}-supervisor"
        )
        self._monitor.start()

    # -- supervision ----------------------------------------------------
    def _watch(self) -> None:
        while not self._closed:
            with self._lock:
                proc = self._proc
            if proc is not None:
                proc.proc.wait()  # blocks until the child exits, however it dies
                if self._closed:
                    return
                with self._lock:
                    if self._proc is proc:
                        self._proc = None
                proc.kill()  # reap + release the dead socket/pipes
                self._log.warning(
                    "worker_died", label=self.label, pid=proc.pid
                )
            if not self._respawn():
                return

    def _respawn(self) -> bool:
        for attempt in range(self.respawn_limit):
            if self._closed:
                return False
            try:
                fresh = _WorkerProcess(
                    self.spec,
                    chunk_timeout=self.chunk_timeout,
                    start_timeout=self.start_timeout,
                )
            except Exception as error:  # noqa: BLE001 — spawn can fail many ways
                self._log.warning(
                    "worker_respawn_failed",
                    label=self.label,
                    attempt=attempt + 1,
                    error=f"{type(error).__name__}: {error}",
                )
                time.sleep(min(0.1 * 2**attempt, 2.0))
                continue
            if (
                int(fresh.hello["obs_len"]) != self.obs_len
                or int(fresh.hello["pred_len"]) != self.pred_len
            ):
                fresh.kill()
                self._log.error(
                    "worker_respawn_shape_mismatch", label=self.label
                )
                return False
            with self._lock:
                if self._closed:
                    fresh.kill()
                    return False
                self._proc = fresh
                self.respawns += 1
            self._log.info(
                "worker_respawned", label=self.label, pid=fresh.pid
            )
            return True
        self._log.error(
            "worker_permanently_dead",
            label=self.label,
            attempts=self.respawn_limit,
        )
        return False

    # -- predictor surface ----------------------------------------------
    def predict_world(self, batch, num_samples, rng) -> np.ndarray:
        """Run one collated chunk in the worker; world-frame samples back.

        The blocking form, for callers off the event loop (offline tools);
        the server awaits :meth:`predict_world_async`.  Both go through
        :meth:`_chunk_exchange`, so a transport failure retires the child
        the same way.
        """
        fields = self._chunk_fields(batch, num_samples, rng)
        with self._chunk_exchange() as proc:
            result = proc.call("worker_chunk", **fields)
        return self._chunk_result(result, batch, num_samples)[0]

    async def predict_world_async(
        self, batch, num_samples, rng
    ) -> tuple[np.ndarray, float]:
        """:meth:`predict_world` awaited on the event loop.

        The server's path for a worker slot: the loop writes the chunk frame
        and awaits the reply, so no thread blocks on the socket.  Returns
        ``(samples, compute_s)``, where ``compute_s`` is the child's own
        forward time.  Never mix with :meth:`predict_world` on one slot:
        both speak on its one connection.
        """
        fields = self._chunk_fields(batch, num_samples, rng)
        with self._chunk_exchange() as proc:
            result = await proc.call_async("worker_chunk", **fields)
        return self._chunk_result(result, batch, num_samples)

    @contextlib.contextmanager
    def _chunk_exchange(self):
        """The live child for one chunk; a transport failure retires it.

        A crash or stall kills the child without waiting for the reap (a
        stalled one still holds the CPU): the supervisor thread, already
        waiting on it, reaps and respawns.  A typed worker-side error keeps
        the child.  The lock is held only to read the current child, so a
        respawn never waits on a chunk.
        """
        with self._lock:
            proc = self._live_proc()
        try:
            yield proc
        except (WorkerCrashedError, WorkerStallError):
            self.failures += 1
            with self._lock:
                if self._proc is proc:
                    self._proc = None
            proc.abort()
            raise
        except protocol.RemoteServingError:
            self.failures += 1
            raise

    def _live_proc(self) -> _WorkerProcess:
        """The current child (call under ``self._lock``); raises when down."""
        if self._closed:
            raise WorkerCrashedError(f"worker {self.label} is closed")
        if self._proc is None:
            raise WorkerCrashedError(
                f"worker {self.label} is down (respawn in progress)"
            )
        return self._proc

    @staticmethod
    def _chunk_fields(batch, num_samples, rng) -> dict:
        return {
            "batch": batch_to_wire(batch),
            "num_samples": int(num_samples),
            "rng_state": rng_state_to_wire(new_rng(rng)),
        }

    def _chunk_result(
        self, result: dict, batch, num_samples
    ) -> tuple[np.ndarray, float]:
        samples = result.get("samples")
        if not isinstance(samples, np.ndarray):
            raise WorkerCrashedError(
                f"worker {self.label} answered a chunk without a sample tensor"
            )
        expected = (int(num_samples), batch.obs.shape[0], self.pred_len, 2)
        if samples.shape != expected:
            raise WorkerCrashedError(
                f"worker {self.label} answered samples of shape {samples.shape}, "
                f"expected {expected}"
            )
        compute_s = result.get("compute_s")
        if not isinstance(compute_s, (int, float)) or isinstance(compute_s, bool):
            raise WorkerCrashedError(
                f"worker {self.label} answered a chunk without its compute_s"
            )
        self.chunks += 1
        return np.asarray(samples, dtype=np.float64), float(compute_s)

    def describe(self) -> str:
        return f"WorkerPredictor({self.label}, model={self.model}, pid={self.pid})"

    # -- introspection / lifecycle ---------------------------------------
    @property
    def pid(self) -> int | None:
        proc = self._proc
        return proc.pid if proc is not None else None

    @property
    def port(self) -> int | None:
        proc = self._proc
        return proc.port if proc is not None else None

    @property
    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.alive

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_stats(self) -> dict:
        """Per-slot process stats, surfaced through the server's ``stats`` op."""
        return {
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
            "respawns": self.respawns,
            "chunks": self.chunks,
            "failures": self.failures,
        }

    def close(self) -> None:
        """Idempotent teardown; deliberately lock-free.

        Sets the closed flag first, then kills the child: an in-flight
        ``predict_world`` blocked on the socket errors out immediately when
        the socket closes under it, instead of ``close`` waiting a full
        chunk timeout for the lock.
        """
        if self._closed:
            return
        self._closed = True
        proc = self._proc
        if proc is not None:
            proc.kill()


class WorkerPool:
    """A supervised pool of :class:`WorkerPredictor` slots for one model.

    Spawns ``num_workers`` children concurrently (interpreter start + model
    build dominate spawn time), hands the slots to ``add_model``, and closes
    every child — including any extra slots later spawned for
    ``swap_model`` factories — on :meth:`close`.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        num_workers: int,
        *,
        chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        name: str = "pool",
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.spec = spec
        self.name = name
        self._chunk_timeout = chunk_timeout
        self._start_timeout = start_timeout
        self._respawn_limit = respawn_limit
        self._closed = False
        self._spawned: list[WorkerPredictor] = []
        self._spawn_lock = threading.Lock()
        slots: list[WorkerPredictor | None] = [None] * num_workers
        errors: list[BaseException] = []

        def build(index: int) -> None:
            try:
                slots[index] = self.spawn_predictor(label=f"{name}[{index}]")
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [
            threading.Thread(target=build, args=(i,), daemon=True)
            for i in range(num_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            self.close()
            raise errors[0]
        self.predictors: list[WorkerPredictor] = [s for s in slots if s is not None]

    def spawn_predictor(self, label: str | None = None) -> WorkerPredictor:
        """Spawn one extra supervised slot (the ``swap_model`` factory hook)."""
        if self._closed:
            raise WorkerCrashedError(f"worker pool {self.name} is closed")
        predictor = WorkerPredictor(
            self.spec,
            chunk_timeout=self._chunk_timeout,
            start_timeout=self._start_timeout,
            respawn_limit=self._respawn_limit,
            label=label or f"{self.name}[+]",
        )
        with self._spawn_lock:
            self._spawned.append(predictor)
        return predictor

    def stats(self) -> list[dict]:
        return [p.worker_stats() for p in self.predictors]

    def close(self) -> None:
        self._closed = True
        with self._spawn_lock:
            spawned = list(self._spawned)
        for predictor in spawned:
            predictor.close()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(main())
