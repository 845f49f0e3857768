"""Wire-protocol unit tests: framing, schema validation, error typing."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.protocol import ProtocolError


class TestFraming:
    def test_round_trip(self):
        message = {"v": 1, "id": 3, "op": "health", "x": [1.5, -2.0]}
        frame = protocol.encode_frame(message)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == message

    def test_header_is_big_endian_u32(self):
        frame = protocol.encode_frame({})
        assert frame[:4] == b"\x00\x00\x00\x02"  # '{}'

    def test_oversized_frame_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame({"data": "x" * 100})

    def test_oversized_length_rejected_on_read(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol._check_length(17)

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_payload(b"\xff\xfe")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_payload(b"[1, 2]")


class TestMessages:
    def test_request_builder(self):
        message = protocol.request("predict", 9, model="m")
        assert message == {
            "v": protocol.PROTOCOL_VERSION,
            "id": 9,
            "op": "predict",
            "model": "m",
        }

    def test_ok_and_error_responses(self):
        ok = protocol.ok_response(4, {"a": 1})
        assert ok["ok"] and ok["id"] == 4 and ok["result"] == {"a": 1}
        err = protocol.error_response(4, protocol.E_OVERLOADED, "busy")
        assert not err["ok"]
        assert err["error"] == {"code": "overloaded", "message": "busy"}

    def test_validate_accepts_every_operation(self):
        for op in protocol.OPERATIONS:
            assert protocol.validate_request(protocol.request(op, 1)) == (op, 1)

    def test_validate_rejects_missing_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_request({"v": 1, "op": "health"})
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_validate_rejects_wrong_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_request({"v": 99, "id": 1, "op": "health"})
        assert excinfo.value.code == protocol.E_UNSUPPORTED_VERSION

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_request({"v": 1, "id": 1, "op": "train"})
        assert excinfo.value.code == protocol.E_UNKNOWN_OP


class TestSyncFraming:
    def test_socketpair_round_trip(self):
        import socket

        a, b = socket.socketpair()
        try:
            a.sendall(protocol.encode_frame({"v": 1, "id": 1, "op": "health"}))
            a.sendall(protocol.encode_frame({"v": 1, "id": 2, "op": "stats"}))
            first = protocol.read_frame_sync(b)
            second = protocol.read_frame_sync(b)
            assert (first["id"], second["id"]) == (1, 2)
            a.close()
            assert protocol.read_frame_sync(b) is None  # clean EOF
        finally:
            a.close()
            b.close()

    def test_mid_header_eof_raises(self):
        import socket

        a, b = socket.socketpair()
        try:
            a.sendall(protocol.encode_frame({"v": 1, "id": 1, "op": "health"})[:2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.read_frame_sync(b)
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        import socket

        a, b = socket.socketpair()
        try:
            frame = protocol.encode_frame({"v": 1, "id": 1, "op": "health"})
            a.sendall(frame[: len(frame) - 3])  # truncate inside the payload
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.read_frame_sync(b)
        finally:
            b.close()


class TestBinaryFraming:
    """Protocol v2: kind-byte dispatch, envelope + tensor-tail round trips."""

    @staticmethod
    def make_message(dtype=np.float64):
        rng = np.random.default_rng(0)
        return {
            "v": 2,
            "id": 5,
            "ok": True,
            "result": {
                "samples": rng.normal(size=(4, 12, 2)).astype(dtype),
                "meta": {"batch_id": 3, "row": 0, "batch_size": 1},
                "agents": [
                    {"samples": rng.normal(size=(2, 3, 2)).astype(dtype)},
                ],
            },
        }

    def assert_messages_equal(self, decoded, original):
        assert decoded["id"] == original["id"]
        np.testing.assert_array_equal(
            decoded["result"]["samples"], original["result"]["samples"]
        )
        np.testing.assert_array_equal(
            decoded["result"]["agents"][0]["samples"],
            original["result"]["agents"][0]["samples"],
        )
        assert decoded["result"]["meta"] == original["result"]["meta"]

    def test_binary_round_trip_float64(self):
        message = self.make_message(np.float64)
        frame = protocol.encode_binary_frame(message)
        assert frame[4] == protocol.KIND_BINARY
        decoded = protocol.decode_payload(frame[4:])
        assert decoded["result"]["samples"].dtype == np.float64
        self.assert_messages_equal(decoded, message)

    def test_binary_round_trip_float32(self):
        message = self.make_message(np.float32)
        decoded = protocol.decode_payload(protocol.encode_binary_frame(message)[4:])
        assert decoded["result"]["samples"].dtype == np.float32
        self.assert_messages_equal(decoded, message)

    def test_decoded_tensors_are_writable_copies(self):
        message = {"v": 2, "id": 1, "obs": np.ones((8, 2))}
        decoded = protocol.decode_payload(protocol.encode_binary_frame(message)[4:])
        decoded["obs"][0, 0] = 9.0  # must not raise: owned, writable memory

    def test_auto_encoding_picks_json_without_tensors(self):
        message = {"v": 2, "id": 1, "op": "health"}
        frame = protocol.encode_frame_auto(message)
        assert frame[4:5] == b"{"
        assert protocol.decode_payload(frame[4:]) == message

    def test_auto_encoding_picks_binary_with_tensors(self):
        message = {"v": 2, "id": 1, "op": "predict", "obs": np.zeros((8, 2))}
        frame = protocol.encode_frame_auto(message)
        assert frame[4] == protocol.KIND_BINARY

    def test_auto_frames_are_golden(self):
        """Auto frames are exactly the chosen encoder's bytes: a list-valued
        K=20 response is ``encode_frame``'s, an ndarray-valued one
        ``encode_binary_frame``'s, and both match their pinned wire images."""
        samples = np.random.default_rng(0).standard_normal((20, 12, 2))
        as_list = {"v": 2, "id": 3, "ok": True, "result": {"samples": samples.tolist()}}
        as_array = {"v": 2, "id": 3, "ok": True, "result": {"samples": samples}}
        assert protocol.encode_frame_auto(as_list) == protocol.encode_frame(as_list)
        assert protocol.encode_frame_auto(as_array) == protocol.encode_binary_frame(as_array)

        json_payload = b'{"v":2,"id":1,"samples":[[0.5,-2.0]]}'
        assert protocol.encode_frame_auto({"v": 2, "id": 1, "samples": [[0.5, -2.0]]}) == (
            struct.pack(">I", len(json_payload)) + json_payload
        )
        envelope = (
            b'{"v":2,"id":1,"samples":{"__tensor__":'
            b'{"dtype":"<f8","shape":[1,2],"offset":0,"nbytes":16}}}'
        )
        tail = struct.pack("<2d", 0.5, -2.0)
        assert protocol.encode_frame_auto(
            {"v": 2, "id": 1, "samples": np.array([[0.5, -2.0]])}
        ) == (
            struct.pack(">I", 1 + 4 + len(envelope) + len(tail))
            + bytes((protocol.KIND_BINARY,))
            + struct.pack(">I", len(envelope))
            + envelope
            + tail
        )

    @pytest.mark.parametrize("extra", [{}, {"obs": np.zeros(2)}])
    def test_auto_encoding_rejects_non_serializable_values(self, extra):
        with pytest.raises(TypeError):
            protocol.encode_frame_auto({"v": 2, "id": 1, "x": {1, 2}, **extra})

    def test_auto_encoding_keeps_the_reserved_key_check(self):
        with pytest.raises(ProtocolError, match="reserved"):
            protocol.encode_frame_auto(
                {"v": 2, "x": {"__tensor__": 1}, "obs": np.zeros(2)}
            )

    def test_v1_json_frames_are_byte_identical(self):
        """A v1 peer's frames decode unchanged: pure-JSON framing is frozen."""
        message = {"v": 1, "id": 7, "op": "health"}
        frame = protocol.encode_frame(message)
        assert frame[4:5] == b"{"
        assert protocol.decode_payload(frame[4:]) == message

    def test_binary_wire_is_little_endian_raw(self):
        """The tail is the raw little-endian image of the array (the spec)."""
        obs = np.arange(4, dtype=np.float64).reshape(2, 2)
        frame = protocol.encode_binary_frame({"v": 2, "id": 1, "obs": obs})
        assert frame.endswith(obs.astype("<f8").tobytes())

    def test_integer_tensor_rejected(self):
        with pytest.raises(ProtocolError, match="float32/float64"):
            protocol.encode_binary_frame({"v": 2, "x": np.arange(3)})

    def test_reserved_envelope_key_rejected(self):
        with pytest.raises(ProtocolError, match="reserved"):
            protocol.encode_binary_frame({"v": 2, "x": {"__tensor__": 1}})

    def test_oversized_binary_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_binary_frame({"v": 2, "x": np.zeros(100)})

    def test_truncated_binary_payload_rejected(self):
        frame = protocol.encode_binary_frame({"v": 2, "id": 1, "x": np.zeros(4)})
        with pytest.raises(ProtocolError, match="too short"):
            protocol.decode_payload(frame[4:5])  # kind byte alone
        with pytest.raises(ProtocolError, match="overruns"):
            protocol.decode_payload(frame[4:9])  # envelope bytes cut off

    @pytest.mark.parametrize(
        "corruption, match",
        [
            ({"dtype": "<i8"}, "dtype"),
            ({"shape": [-1, 2]}, "shape"),
            ({"shape": "nope"}, "shape"),
            ({"nbytes": 7}, "does not match"),
            ({"offset": 10_000}, "outside"),
            ({"offset": "x"}, "integers"),
        ],
    )
    def test_corrupt_tensor_descriptor_rejected(self, corruption, match):
        import json

        frame = protocol.encode_binary_frame({"v": 2, "id": 1, "x": np.zeros((2, 2))})
        payload = frame[4:]
        (elen,) = struct.unpack_from(">I", payload, 1)
        envelope = json.loads(payload[5 : 5 + elen].decode())
        envelope["x"]["__tensor__"].update(corruption)
        new_env = json.dumps(envelope, separators=(",", ":")).encode()
        rebuilt = (
            bytes((protocol.KIND_BINARY,))
            + struct.pack(">I", len(new_env))
            + new_env
            + payload[5 + elen :]
        )
        with pytest.raises(ProtocolError, match=match):
            protocol.decode_payload(rebuilt)

    def test_binary_frames_cross_the_sync_socket(self):
        import socket

        a, b = socket.socketpair()
        try:
            message = {"v": 2, "id": 1, "op": "predict", "obs": np.ones((8, 2))}
            frame = protocol.encode_frame_auto(message)
            a.sendall(frame)
            received, nbytes = protocol.read_frame_sync_ex(b)
            assert nbytes == len(frame)
            np.testing.assert_array_equal(received["obs"], message["obs"])
        finally:
            a.close()
            b.close()


class TestVersionNegotiation:
    def test_both_supported_versions_validate(self):
        for version in protocol.SUPPORTED_VERSIONS:
            message = {"v": version, "id": 1, "op": "health"}
            assert protocol.validate_request(message) == ("health", 1)

    def test_request_builder_stamps_current_version(self):
        assert protocol.request("health", 1)["v"] == protocol.PROTOCOL_VERSION
        assert protocol.PROTOCOL_VERSION == 2


# ----------------------------------------------------------------------
# Fuzz wall: garbage bytes against live endpoints (server + worker host)
# ----------------------------------------------------------------------
def corrupt_descriptor_frame() -> bytes:
    """A full wire frame whose binary tensor descriptor lies about dtype."""
    import json

    frame = protocol.encode_binary_frame(
        {"v": 2, "id": 1, "op": "predict", "model": "stub", "obs": np.zeros((8, 2))}
    )
    payload = frame[4:]
    (elen,) = struct.unpack_from(">I", payload, 1)
    envelope = json.loads(payload[5 : 5 + elen].decode())
    envelope["obs"]["__tensor__"]["dtype"] = "<i8"
    new_env = json.dumps(envelope, separators=(",", ":")).encode()
    rebuilt = (
        bytes((protocol.KIND_BINARY,))
        + struct.pack(">I", len(new_env))
        + new_env
        + payload[5 + elen :]
    )
    return struct.pack(">I", len(rebuilt)) + rebuilt


#: Byte blobs that corrupt the *framing* layer: the only safe answer is to
#: sever the connection (the stream can no longer be trusted) — never to
#: hang, and never to die with an unhandled traceback.
GARBAGE_FRAMES = [
    pytest.param(lambda: struct.pack(">I", 0xFFFF_FFF0), id="oversized-length-prefix"),
    pytest.param(lambda: struct.pack(">I", 100) + b"x" * 10, id="truncated-frame"),
    pytest.param(lambda: struct.pack(">I", 8) + b"\x03garbage", id="unknown-kind-byte"),
    pytest.param(lambda: struct.pack(">I", 0), id="zero-length-frame"),
    pytest.param(lambda: struct.pack(">I", 9) + b"not json!", id="unparseable-json"),
    pytest.param(
        lambda: struct.pack(">I", 3) + b"[1]", id="json-but-not-an-object"
    ),
    pytest.param(corrupt_descriptor_frame, id="corrupt-tensor-descriptor"),
    pytest.param(lambda: b"\x00\x00", id="eof-inside-length-prefix"),
]


class _FuzzStub:
    """Minimal predictor so the fuzzed server has a registered model."""

    obs_len = 8
    pred_len = 12

    def predict_world(self, batch, num_samples, rng):
        return np.zeros((num_samples, batch.obs.shape[0], self.pred_len, 2))


@pytest.fixture(scope="module")
def fuzz_server():
    from repro.serve import AsyncServingServer, ServerThread

    server = AsyncServingServer(max_in_flight=16)
    server.add_model("stub", _FuzzStub())
    thread = ServerThread(server)
    host, port = thread.start()
    yield host, port
    thread.stop()


@pytest.fixture(scope="module")
def fuzz_worker():
    from repro.serve.workers import WorkerPredictor, WorkerSpec

    predictor = WorkerPredictor(
        WorkerSpec(factory="repro.serve.workers:seeded_predictor", kwargs={"seed": 0}),
        label="fuzz",
    )
    yield "127.0.0.1", predictor.port
    predictor.close()


def throw_bytes(address, blob: bytes):
    """Send raw bytes, then report how the peer reacted.

    Returns ``("closed", None)`` for a clean close/EOF, ``("reply", frame)``
    when the peer answered a well-formed frame.  A hang surfaces as
    ``socket.timeout`` and fails the test.
    """
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        sock.settimeout(10)
        sock.sendall(blob)
        try:
            sock.shutdown(socket.SHUT_WR)  # truncation cases: garbage then EOF
        except OSError:
            return "closed", None  # peer already severed the connection
        try:
            frame = protocol.read_frame_sync(sock)
        except (ProtocolError, ConnectionError):
            return "closed", None
        return ("closed", None) if frame is None else ("reply", frame)


def roundtrip(address, message: dict):
    """One well-formed request → its response frame, on a fresh connection."""
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        sock.settimeout(10)
        sock.sendall(protocol.encode_frame(message))
        return protocol.read_frame_sync(sock)


class TestServerFuzz:
    @pytest.mark.parametrize("blob", GARBAGE_FRAMES)
    def test_garbage_framing_closes_cleanly(self, fuzz_server, blob):
        outcome, frame = throw_bytes(fuzz_server, blob())
        if outcome == "reply":  # a reply is acceptable only as a typed error
            assert frame["ok"] is False and frame["error"]["code"]
        # Collateral check: the listener itself must have survived.
        health = roundtrip(fuzz_server, protocol.request("health", 1))
        assert health["ok"] is True

    def test_unknown_op_is_typed_not_fatal(self, fuzz_server):
        reply = roundtrip(fuzz_server, protocol.request("worker_chunk", 1))
        assert reply["ok"] is False
        assert reply["error"]["code"] == protocol.E_UNKNOWN_OP

    def test_bad_id_is_typed_bad_request(self, fuzz_server):
        reply = roundtrip(fuzz_server, {"v": 2, "id": {"nested": 1}, "op": "health"})
        assert reply["ok"] is False
        assert reply["error"]["code"] == protocol.E_BAD_REQUEST

    def test_server_survives_sustained_garbage(self, fuzz_server):
        rng = np.random.default_rng(0)
        for _ in range(25):
            blob = rng.bytes(int(rng.integers(1, 200)))
            throw_bytes(fuzz_server, blob)
        health = roundtrip(fuzz_server, protocol.request("health", 1))
        assert health["ok"] is True


class TestWorkerHostFuzz:
    """The same wall, against a live worker child's handshake socket."""

    @pytest.mark.parametrize("blob", GARBAGE_FRAMES)
    def test_garbage_framing_closes_cleanly(self, fuzz_worker, blob):
        outcome, frame = throw_bytes(fuzz_worker, blob())
        if outcome == "reply":
            assert frame["ok"] is False and frame["error"]["code"]
        hello = roundtrip(fuzz_worker, protocol.request("worker_handshake", 1))
        assert hello["ok"] is True
        assert hello["result"]["obs_len"] == 8

    def test_serving_plane_op_rejected_on_worker_plane(self, fuzz_worker):
        reply = roundtrip(fuzz_worker, protocol.request("predict", 1, model="m"))
        assert reply["ok"] is False
        assert reply["error"]["code"] == protocol.E_UNKNOWN_OP

    def test_malformed_chunk_fields_are_typed_bad_request(self, fuzz_worker):
        reply = roundtrip(
            fuzz_worker,
            protocol.request("worker_chunk", 2, batch="junk", rng_state=None),
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == protocol.E_BAD_REQUEST

    def test_worker_survives_sustained_garbage(self, fuzz_worker):
        rng = np.random.default_rng(1)
        for _ in range(25):
            throw_bytes(fuzz_worker, rng.bytes(int(rng.integers(1, 200))))
        hello = roundtrip(fuzz_worker, protocol.request("worker_handshake", 9))
        assert hello["ok"] is True
