"""Tests for the telemetry core: counters, gauges, log-bucket histograms."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_bounds,
)


# ----------------------------------------------------------------------
# log_bounds
# ----------------------------------------------------------------------
def test_log_bounds_covers_range_and_is_log_spaced():
    bounds = log_bounds(1e-3, 10.0, per_decade=4)
    assert bounds[0] == pytest.approx(1e-3)
    assert bounds[-1] >= 10.0
    ratios = np.diff(np.log10(np.asarray(bounds[:-1])))
    assert np.allclose(ratios, 0.25, atol=1e-9)


def test_log_bounds_is_deterministic():
    assert log_bounds(1e-5, 60.0, per_decade=5) == DEFAULT_LATENCY_BOUNDS


@pytest.mark.parametrize(
    "lo, hi, per_decade",
    [(0.0, 1.0, 5), (-1.0, 1.0, 5), (1.0, 1.0, 5), (2.0, 1.0, 5), (1e-3, 1.0, 0)],
)
def test_log_bounds_rejects_bad_specs(lo, hi, per_decade):
    with pytest.raises(ValueError):
        log_bounds(lo, hi, per_decade=per_decade)


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
def test_counter_is_monotonic():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert counter.snapshot() == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge()
    gauge.set(3.5)
    gauge.inc()
    gauge.dec(0.5)
    assert gauge.value == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Histogram: bucketing and determinism
# ----------------------------------------------------------------------
def test_histogram_bucket_edges_are_upper_inclusive():
    hist = Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 10.0, 11.0):
        hist.record(value)
    snap = hist.snapshot()
    # v <= 1.0 -> bucket 0 (two records: 0.5 and the edge 1.0), 1 < v <= 10
    # -> bucket 1, overflow -> bucket 2.
    assert snap["buckets"]["counts"] == [2, 2, 1]
    assert snap["buckets"]["le"] == [1.0, 10.0, "inf"]
    assert snap["count"] == 5
    assert snap["min"] == 0.5 and snap["max"] == 11.0


def _bucket_index(hist: Histogram, value: float) -> int:
    before = hist.snapshot()["buckets"]["counts"]
    hist.record(value)
    after = hist.snapshot()["buckets"]["counts"]
    (index,) = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    return index


def test_histogram_bucket_index_matches_searchsorted():
    """``record``'s bucket is ``np.searchsorted(bounds, v, side="left")``
    at every edge: each bound, values between bounds, zero and negatives,
    both infinities and NaN (which searchsorted sorts past every bound)."""
    bounds = np.asarray(DEFAULT_LATENCY_BOUNDS)
    between = (bounds[:-1] + bounds[1:]) / 2
    nudged = np.concatenate([np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf)])
    values = np.concatenate(
        [bounds, between, nudged, [0.0, -0.0, -1e-9, -5.0, np.inf, -np.inf, np.nan]]
    )
    hist = Histogram()
    for value in values:
        assert _bucket_index(hist, value) == int(
            np.searchsorted(bounds, value, side="left")
        ), value


def test_histogram_snapshot_matches_searchsorted_reference():
    """A recorded sequence snapshots exactly as searchsorted bucketing would."""
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [
            rng.lognormal(mean=-6.0, sigma=3.0, size=2000),
            np.asarray(DEFAULT_LATENCY_BOUNDS),
            [0.0, -1.0, np.inf],
        ]
    )
    hist = Histogram()
    for value in values:
        hist.record(value)
    bounds = np.asarray(DEFAULT_LATENCY_BOUNDS)
    expected = np.bincount(
        np.searchsorted(bounds, values, side="left"), minlength=bounds.size + 1
    )
    snap = hist.snapshot()
    assert snap["buckets"]["counts"] == expected.tolist()
    assert snap["count"] == values.size
    assert snap["min"] == values.min() and snap["max"] == values.max()


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=())
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_histogram_snapshot_deterministic_under_concurrent_recording():
    """Same multiset of events, any thread interleaving -> same buckets.

    Eight threads hammer one histogram with disjoint slices of a fixed
    value set; the resulting bucket counts (and count/min/max) must equal a
    single-threaded recording of the same values — the fixed-bound design's
    core promise, and what makes the serving p99 gate reproducible.
    """
    values = np.random.default_rng(0).uniform(1e-5, 1.0, size=4000)
    reference = Histogram()
    for value in values:
        reference.record(value)

    concurrent = Histogram()
    num_threads = 8
    slices = np.array_split(values, num_threads)
    barrier = threading.Barrier(num_threads)

    def work(chunk):
        barrier.wait()  # maximize interleaving
        for value in chunk:
            concurrent.record(value)

    threads = [threading.Thread(target=work, args=(s,)) for s in slices]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    ref, got = reference.snapshot(), concurrent.snapshot()
    assert got["buckets"]["counts"] == ref["buckets"]["counts"]
    assert got["count"] == ref["count"] == len(values)
    assert got["min"] == ref["min"] and got["max"] == ref["max"]
    # Quantiles are a pure function of (buckets, min, max), so they agree too.
    assert got["p99"] == ref["p99"]


# ----------------------------------------------------------------------
# Histogram: quantiles
# ----------------------------------------------------------------------
def test_quantile_empty_histogram_is_zero():
    hist = Histogram()
    for q in (0.0, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == 0.0
    snap = hist.snapshot()
    assert snap["p50"] == snap["p99"] == 0.0
    assert snap["min"] == snap["max"] == 0.0


def test_quantile_single_valued_histogram_is_exact():
    """All records equal -> every quantile reports that exact value.

    This is the min/max clamp at work: however many records land in one
    bucket, interpolation must not spread them across the bucket's width.
    """
    hist = Histogram()
    for _ in range(100):
        hist.record(0.0123)
    for q in (0.0, 0.01, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == pytest.approx(0.0123)


def test_quantile_single_record():
    hist = Histogram()
    hist.record(0.5)
    assert hist.quantile(0.5) == pytest.approx(0.5)
    assert hist.quantile(1.0) == pytest.approx(0.5)


def test_quantile_monotone_and_bounded():
    rng = np.random.default_rng(7)
    hist = Histogram()
    values = rng.uniform(1e-4, 2.0, size=500)
    for value in values:
        hist.record(value)
    qs = [hist.quantile(q) for q in np.linspace(0.0, 1.0, 21)]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert qs[0] >= values.min() - 1e-12
    assert qs[-1] <= values.max() + 1e-12


def test_quantile_interpolation_tracks_true_quantiles():
    rng = np.random.default_rng(3)
    values = rng.uniform(1e-3, 1.0, size=5000)
    hist = Histogram(bounds=log_bounds(1e-4, 10.0, per_decade=20))
    for value in values:
        hist.record(value)
    for q in (0.5, 0.95, 0.99):
        true = float(np.quantile(values, q))
        est = hist.quantile(q)
        # 20 buckets/decade -> bucket width ~12%; interpolation lands well
        # within one bucket of the true quantile.
        assert abs(est - true) / true < 0.15, (q, est, true)


def test_quantile_overflow_bucket_clamps_to_observed_max():
    hist = Histogram(bounds=(1.0,))
    hist.record(5.0)
    hist.record(7.0)  # both overflow
    assert hist.quantile(1.0) == pytest.approx(7.0)
    assert hist.quantile(0.0) == pytest.approx(5.0)
    assert 5.0 <= hist.quantile(0.5) <= 7.0


def test_quantile_rejects_out_of_range():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.quantile(-0.1)
    with pytest.raises(ValueError):
        hist.quantile(1.1)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    first = registry.counter("requests", model="a")
    second = registry.counter("requests", model="a")
    assert first is second
    first.inc()
    assert second.value == 1
    # Different labels -> different instrument; label order is irrelevant.
    assert registry.counter("requests", model="b") is not first
    hist_a = registry.histogram("lat", model="a", stage="x")
    hist_b = registry.histogram("lat", stage="x", model="a")
    assert hist_a is hist_b


def test_registry_rejects_kind_collisions_and_empty_names():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("thing")
    with pytest.raises(ValueError, match="non-empty"):
        registry.counter("")


def test_registry_snapshot_is_json_ready_and_grouped():
    registry = MetricsRegistry()
    registry.counter("served", model="m").inc(3)
    registry.gauge("depth").set(2)
    registry.histogram("lat", model="m").record(0.01)
    snap = registry.snapshot()
    assert snap["counters"] == {"served{model=m}": 3}
    assert snap["gauges"] == {"depth": 2.0}
    assert snap["histograms"]["lat{model=m}"]["count"] == 1
    json.dumps(snap)  # must not raise: the metrics op ships this verbatim
