"""Tests for request-lifecycle tracing spans and the JSON-line logger."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.trace import STAGES, Span
from repro.obs.log import JsonLogger, get_logger


class FakeClock:
    """A manually advanced monotonic clock for deterministic span timing."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Span
# ----------------------------------------------------------------------
def test_span_measures_elapsed_time():
    clock = FakeClock()
    span = Span("inference", clock=clock)
    with span:
        clock.advance(0.25)
    assert span.duration_s == pytest.approx(0.25)
    assert span.name == "inference"


def test_span_on_close_fires_even_on_exception():
    clock = FakeClock()
    seen = []
    with pytest.raises(RuntimeError):
        with Span("route", clock=clock, on_close=lambda n, s: seen.append((n, s))):
            clock.advance(0.1)
            raise RuntimeError("boom")
    assert seen == [("route", pytest.approx(0.1))]


def test_canonical_stage_names():
    assert STAGES == (
        "admission",
        "queue_wait",
        "coalesce",
        "route",
        "inference",
        "encode",
    )


# ----------------------------------------------------------------------
# JsonLogger
# ----------------------------------------------------------------------
def test_logger_emits_one_json_line_per_event():
    stream = io.StringIO()
    logger = JsonLogger("test", stream=stream)
    logger.info("server_started", host="127.0.0.1", port=0)
    logger.warning("overloaded", in_flight=9)

    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["event"] == "server_started"
    assert first["level"] == "info"
    assert first["logger"] == "test"
    assert first["host"] == "127.0.0.1" and first["port"] == 0
    assert "ts" in first and first["ts"].endswith("+00:00")
    assert second["event"] == "overloaded" and second["level"] == "warning"


def test_logger_returns_the_record():
    logger = JsonLogger("test", stream=io.StringIO())
    record = logger.error("flush_error", model="m", error="ValueError: bad")
    assert record["level"] == "error"
    assert record["error"] == "ValueError: bad"


def test_logger_rejects_unknown_level():
    logger = JsonLogger("test", stream=io.StringIO())
    with pytest.raises(ValueError, match="unknown level"):
        logger.log("event", level="critical")


def test_logger_stringifies_non_json_fields():
    stream = io.StringIO()
    JsonLogger("test", stream=stream).info("odd", exc=ValueError("nope"))
    assert json.loads(stream.getvalue())["exc"] == "nope"


def test_logger_default_stream_follows_stderr_swaps(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr("sys.stderr", stream)
    JsonLogger("test").info("captured")
    assert json.loads(stream.getvalue())["event"] == "captured"


def test_get_logger_returns_one_instance_per_name():
    a = get_logger("repro.tests.obs")
    b = get_logger("repro.tests.obs")
    assert a is b
    assert get_logger("repro.tests.other") is not a
