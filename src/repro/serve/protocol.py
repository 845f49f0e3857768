"""Wire protocol for the network serving front-end: length-prefixed frames.

Framing
-------
Every message — request or response, either direction — is one *frame*:

.. code-block:: text

    +----------------+---------------------------+
    | 4 bytes        | <length> bytes            |
    | big-endian u32 | payload                   |
    +----------------+---------------------------+

The length covers the payload only (not the header).  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected on both ends — a corrupt or malicious
length prefix must not make a peer allocate unbounded memory.

The payload's first byte is its **kind**:

* ``0x7B`` (``"{"``) — a pure UTF-8 JSON object (protocol v1; every v1
  frame ever sent is byte-identical under v2 and still accepted end-to-end);
* ``0x02`` (:data:`KIND_BINARY`) — protocol v2 binary: a JSON *envelope*
  plus a raw little-endian float32/float64 tensor tail for the large array
  fields (``obs`` / ``neighbours`` / ``samples``), avoiding JSON encoding of
  ``[K, pred_len, 2]`` sample tensors::

    +------+----------------+-------------------+---------------------+
    | 0x02 | 4 bytes        | <elen> bytes      | remainder           |
    | kind | big-endian u32 | UTF-8 JSON        | tensor tail (raw    |
    | byte | envelope len   | envelope          | little-endian data) |
    +------+----------------+-------------------+---------------------+

  In the envelope, each extracted array is replaced by a placeholder object
  ``{"__tensor__": {"dtype": "<f4"|"<f8", "shape": [...], "offset": o,
  "nbytes": n}}`` whose ``offset``/``nbytes`` locate its bytes in the tail.
  Peers negotiate the binary encoding via ``health`` (see docs/serving.md
  §"Version negotiation"); a server only answers in binary when the request
  asked for it, so a v1 peer never receives a binary frame.

Messages
--------
Requests carry a protocol version, a caller-chosen correlation id, and an
operation name::

    {"v": 2, "id": 7, "op": "predict", "model": "adaptraj", "obs": [[x, y], ...]}

Responses echo the id and report success or a typed error::

    {"v": 2, "id": 7, "ok": true,  "result": {...}}
    {"v": 2, "id": 7, "ok": false, "error": {"code": "overloaded", "message": "..."}}

The full schema of every operation (``observe`` / ``predict`` / ``flush`` /
``stats`` / ``health`` / ``metrics``), the error-code table, and the
backpressure semantics are specified in ``docs/serving.md``; this module is the single
point of truth for the byte-level encoding both
:class:`~repro.serve.server.AsyncServingServer` and
:class:`~repro.serve.client.ServingClient` use.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct

import numpy as np

__all__ = [
    "KIND_BINARY",
    "MAX_FRAME_BYTES",
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "WORKER_OPERATIONS",
    "SUPPORTED_VERSIONS",
    "TENSOR_DTYPES",
    "E_BAD_REQUEST",
    "E_DEADLINE_EXCEEDED",
    "E_INTERNAL",
    "E_OVERLOADED",
    "E_SHUTTING_DOWN",
    "E_UNAVAILABLE",
    "E_UNKNOWN_MODEL",
    "E_UNKNOWN_OP",
    "E_UNSUPPORTED_VERSION",
    "ProtocolError",
    "RemoteServingError",
    "decode_payload",
    "encode_binary_frame",
    "encode_frame",
    "encode_frame_auto",
    "error_response",
    "ok_response",
    "read_frame",
    "read_frame_sync",
    "read_frame_sync_ex",
    "request",
    "validate_request",
]

#: Version of the request/response schema.  v2 adds the binary frame kind;
#: the message schema is unchanged, so v1 requests are still accepted
#: (see :data:`SUPPORTED_VERSIONS`).
PROTOCOL_VERSION = 2

#: Versions a server accepts; anything else is ``unsupported_version``.
SUPPORTED_VERSIONS = (1, 2)

#: Hard cap on a single frame's payload (requests and responses, either kind).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Operations the protocol defines (the server may still not accept all of
#: them for a given model — see docs/serving.md).  ``metrics`` returns the
#: server's instrument-registry snapshot (an additive operation: adding it
#: did not bump the protocol version, older clients simply never send it).
OPERATIONS = ("observe", "predict", "flush", "stats", "health", "metrics")

#: Operations of the private *worker plane* (parent server <-> worker child
#: process, see :mod:`repro.serve.workers`).  Additive: worker hosts accept
#: exactly these, the public server accepts exactly :data:`OPERATIONS`, and
#: both reuse the same frames/envelope/error codes — no version bump.
#:
#: * ``worker_handshake`` — identity/shape exchange right after connect
#:   (pid, ``obs_len``/``pred_len``, model description);
#: * ``worker_chunk`` — one collated flush chunk: binary tensor fields plus
#:   the exact serialized RNG state, answered with the sample tensor.
WORKER_OPERATIONS = ("worker_handshake", "worker_chunk")

#: Kind byte opening a binary (envelope + tensor tail) payload.  JSON
#: payloads are recognized by their opening ``{`` (0x7B); 0x02 can never
#: start valid JSON, so the two kinds are unambiguous.
KIND_BINARY = 0x02

#: Tensor tail dtypes the binary encoding admits (little-endian on the wire).
TENSOR_DTYPES = ("<f4", "<f8")

#: Envelope key marking an extracted tensor; reserved in binary envelopes.
_TENSOR_KEY = "__tensor__"

_HEADER = struct.Struct(">I")
_ENVELOPE_LEN = struct.Struct(">I")

# Error codes (the ``error.code`` field of a failed response).
E_BAD_REQUEST = "bad_request"  #: malformed frame / missing or invalid fields
E_UNSUPPORTED_VERSION = "unsupported_version"  #: protocol version mismatch
E_UNKNOWN_OP = "unknown_op"  #: ``op`` not in :data:`OPERATIONS`
E_UNKNOWN_MODEL = "unknown_model"  #: ``model`` not registered on the server
E_OVERLOADED = "overloaded"  #: admission control rejected the request
E_SHUTTING_DOWN = "shutting_down"  #: server terminated the request mid-flight
E_INTERNAL = "internal"  #: unexpected server-side failure
#: The request's ``deadline_ms`` budget expired before inference ran (the
#: server never computes answers nobody is waiting for).  Additive, like the
#: ``metrics`` op: no version bump — older clients simply never send a
#: deadline and never see this code.
E_DEADLINE_EXCEEDED = "deadline_exceeded"
#: Every slot of the requested model has an open circuit breaker; the
#: request is fast-failed instead of queueing into a dead pool.  Transient:
#: retry with backoff (a half-open probe closes the breaker on recovery).
E_UNAVAILABLE = "unavailable"


class ProtocolError(Exception):
    """A violation of the wire protocol (framing or message schema).

    ``code`` is the error code the peer should be answered with (when a
    response is still possible — a corrupt *frame* ends the connection
    instead, since the stream can no longer be trusted).
    """

    def __init__(self, message: str, code: str = E_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


class RemoteServingError(RuntimeError):
    """Client-side mirror of a failed response (``ok: false``)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: dict) -> bytes:
    """Serialize one message to ``header + UTF-8 JSON`` bytes (JSON kind)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def _extract_tensors(value, tail: list[bytes], offset: list[int]):
    """Replace ndarray leaves with tail placeholders, depth-first."""
    if isinstance(value, np.ndarray):
        if value.dtype.char not in ("f", "d"):
            raise ProtocolError(
                f"binary tensor tails carry float32/float64 only, "
                f"got dtype {value.dtype}"
            )
        dtype = "<f4" if value.dtype.char == "f" else "<f8"
        data = np.ascontiguousarray(value, dtype=dtype).tobytes()
        placeholder = {
            _TENSOR_KEY: {
                "dtype": dtype,
                "shape": list(value.shape),
                "offset": offset[0],
                "nbytes": len(data),
            }
        }
        tail.append(data)
        offset[0] += len(data)
        return placeholder
    if isinstance(value, dict):
        if _TENSOR_KEY in value:
            raise ProtocolError(
                f"message uses the reserved envelope key {_TENSOR_KEY!r}"
            )
        return {key: _extract_tensors(item, tail, offset) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_extract_tensors(item, tail, offset) for item in value]
    return value


def encode_binary_frame(message: dict) -> bytes:
    """Serialize one message to a binary (envelope + tensor tail) frame.

    Every :class:`numpy.ndarray` in the message (any nesting depth) is moved
    to the raw little-endian tail and replaced by a placeholder; everything
    else stays JSON in the envelope.  Valid with zero tensors, but
    :func:`encode_frame_auto` is the usual entry point — it only pays the
    binary overhead when there is a tensor to carry.
    """
    tail: list[bytes] = []
    envelope_message = _extract_tensors(message, tail, [0])
    envelope = json.dumps(envelope_message, separators=(",", ":")).encode("utf-8")
    tail_bytes = b"".join(tail)
    total = 1 + _ENVELOPE_LEN.size + len(envelope) + len(tail_bytes)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return b"".join(
        (
            _HEADER.pack(total),
            bytes((KIND_BINARY,)),
            _ENVELOPE_LEN.pack(len(envelope)),
            envelope,
            tail_bytes,
        )
    )


def encode_frame_auto(message: dict) -> bytes:
    """Encode as a binary frame iff the message carries ndarrays, else JSON.

    JSON is tried first: ``json.dumps`` raises ``TypeError`` on an ndarray,
    and only then is the message re-encoded as a binary frame.  A message
    whose other values are not JSON-serializable raises ``TypeError`` from
    the binary encoder too.
    """
    try:
        return encode_frame(message)
    except TypeError:
        return encode_binary_frame(message)


def _decode_json(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _resolve_tensor(descriptor, tail: bytes) -> np.ndarray:
    if not isinstance(descriptor, dict):
        raise ProtocolError(f"malformed tensor placeholder: {descriptor!r}")
    dtype = descriptor.get("dtype")
    shape = descriptor.get("shape")
    offset = descriptor.get("offset")
    nbytes = descriptor.get("nbytes")
    if dtype not in TENSOR_DTYPES:
        raise ProtocolError(f"tensor dtype must be one of {TENSOR_DTYPES}, got {dtype!r}")
    if (
        not isinstance(shape, list)
        or not all(isinstance(dim, int) and dim >= 0 for dim in shape)
    ):
        raise ProtocolError(f"tensor shape must be non-negative ints, got {shape!r}")
    if not isinstance(offset, int) or not isinstance(nbytes, int):
        raise ProtocolError("tensor offset/nbytes must be integers")
    itemsize = int(dtype[-1])
    expected = math.prod(shape) * itemsize
    if nbytes != expected:
        raise ProtocolError(
            f"tensor tail length {nbytes} does not match shape {shape} "
            f"({expected} bytes expected)"
        )
    if offset < 0 or offset + nbytes > len(tail):
        raise ProtocolError(
            f"tensor bytes [{offset}, {offset + nbytes}) fall outside the "
            f"{len(tail)}-byte tail"
        )
    # Copy out of the frame buffer: the result must be writable and must not
    # pin the whole received payload alive.
    array = np.frombuffer(tail, dtype=np.dtype(dtype), count=math.prod(shape), offset=offset)
    return array.reshape(shape).copy()


def _resolve_tensors(value, tail: bytes):
    if isinstance(value, dict):
        if set(value) == {_TENSOR_KEY}:
            return _resolve_tensor(value[_TENSOR_KEY], tail)
        return {key: _resolve_tensors(item, tail) for key, item in value.items()}
    if isinstance(value, list):
        return [_resolve_tensors(item, tail) for item in value]
    return value


def _decode_binary(payload: bytes) -> dict:
    if len(payload) < 1 + _ENVELOPE_LEN.size:
        raise ProtocolError("binary frame too short for its envelope header")
    (envelope_len,) = _ENVELOPE_LEN.unpack_from(payload, 1)
    body_start = 1 + _ENVELOPE_LEN.size
    if body_start + envelope_len > len(payload):
        raise ProtocolError(
            f"binary envelope of {envelope_len} bytes overruns the "
            f"{len(payload)}-byte payload"
        )
    message = _decode_json(payload[body_start : body_start + envelope_len])
    tail = payload[body_start + envelope_len :]
    return _resolve_tensors(message, tail)


def decode_payload(payload: bytes) -> dict:
    """Parse one frame's payload, dispatching on its kind byte.

    JSON payloads (opening ``{``) decode exactly as in protocol v1; binary
    payloads (:data:`KIND_BINARY`) decode their envelope and re-attach each
    tensor-tail segment as a :class:`numpy.ndarray` at its placeholder.
    """
    if payload[:1] == bytes((KIND_BINARY,)):
        return _decode_binary(payload)
    return _decode_json(payload)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:  # clean EOF between frames
            return None
        raise ProtocolError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return decode_payload(payload)


def _recv_exactly(sock: socket.socket, length: int) -> bytes | None:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == length and not chunks:
                return None  # clean EOF on a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> dict | None:
    """Blocking counterpart of :func:`read_frame` for the sync client."""
    return read_frame_sync_ex(sock)[0]


def read_frame_sync_ex(sock: socket.socket) -> tuple[dict | None, int]:
    """Like :func:`read_frame_sync`, also returning the frame's total bytes.

    The byte count includes the 4-byte header; it is what the client's
    transfer accounting (and the binary-vs-JSON payload benchmark) reports.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None, 0
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload), _HEADER.size + length


# ----------------------------------------------------------------------
# Message construction / validation
# ----------------------------------------------------------------------
def request(op: str, req_id: int, **fields) -> dict:
    """Build a versioned request message."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "op": op, **fields}


def ok_response(req_id, result: dict) -> dict:
    """Build a success response echoing ``req_id``."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": True, "result": result}


def error_response(req_id, code: str, message: str) -> dict:
    """Build a failure response with a typed error code."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def validate_request(
    message: dict, operations: tuple[str, ...] = OPERATIONS
) -> tuple[str, object]:
    """Check version/id/op of an incoming request; returns ``(op, id)``.

    Raises :class:`ProtocolError` carrying the error code to answer with.
    The id is validated first so even version errors can be correlated.
    ``operations`` selects the accepted plane: the public server validates
    against :data:`OPERATIONS` (the default), worker hosts against
    :data:`WORKER_OPERATIONS`.
    """
    req_id = message.get("id")
    if req_id is None or isinstance(req_id, (dict, list, bool)):
        raise ProtocolError("request has no usable 'id' field", E_BAD_REQUEST)
    version = message.get("v")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"protocol version {version!r} not supported (server speaks "
            f"{', '.join(map(str, SUPPORTED_VERSIONS))})",
            E_UNSUPPORTED_VERSION,
        )
    op = message.get("op")
    if not isinstance(op, str) or op not in operations:
        raise ProtocolError(
            f"unknown operation {op!r} (expected one of {', '.join(operations)})",
            E_UNKNOWN_OP,
        )
    return op, req_id
