"""Micro-benchmarks for the autograd/recurrent hot paths.

Unlike the ``bench_table*`` / ``bench_figure*`` macro benchmarks (which
regenerate whole paper artifacts), this file times the individual kernels the
training loop is built from, so BENCH trajectory files track wall-clock for:

* fused LSTM forward+backward against two baselines: the current-engine
  per-timestep path (``tests/nn/oracles.py:lstm_forward_reference``) and
  the **seed** engine semantics (per-timestep loop with out-of-place
  gradient accumulation and a full-size ``np.add.at`` scatter per slice
  backward, restored via monkeypatch).  The acceptance gate: >= 2x over the seed implementation at
  ``[batch=64, time=20, hidden=64]`` with float64 outputs within 1e-10 of
  the reference;
* the LBEBM decoder rollout forward+backward (one autograd node, closed-form
  BPTT) against the per-frame Tensor loop it replaced
  (``tests/models/oracles.py``).  The gate: >= 1.3x over that oracle at
  ``[batch=32, features=104, pred_len=12]``, outputs bit-identical and
  gradients within 1e-10 in float64;
* batched matmul forward+backward;
* gradient accumulation into a shared buffer.

Run directly (``PYTHONPATH=src python benchmarks/bench_autograd_ops.py``) or
via pytest (``python -m pytest benchmarks/bench_autograd_ops.py``); the
pytest entry points assert the speedup/equivalence gates.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

if __name__ == "__main__":  # script mode: put repo root + src on sys.path
    import _bootstrap  # noqa: F401

import numpy as np

from repro.models.decoder import RecurrentTrajectoryDecoder
from repro.nn import LSTM, Tensor
from tests.models.oracles import rollout_reference
from tests.nn.oracles import lstm_forward_reference

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

# Acceptance-criteria configuration.
BATCH, TIME, HIDDEN, FEATURES = 64, 20, 64, 16
MIN_SPEEDUP = 2.0
ATOL = 1e-10
# LBEBM's decoder at its training shape: hidden 32 + interaction 32 +
# latent 8 + context 32 conditioning features, 12 predicted frames.
DEC_BATCH, DEC_FEATURES, DEC_PRED_LEN = 32, 104, 12
MIN_DECODER_SPEEDUP = 1.3


@dataclass
class BenchResult:
    name: str
    seconds: float
    repeats: int

    @property
    def per_call_ms(self) -> float:
        return 1e3 * self.seconds / self.repeats


def _time(fn, repeats: int, warmup: int = 2, blocks: int = 3) -> BenchResult:
    """Best-of-``blocks`` timing: take the fastest block mean, so a noise
    spike on a shared runner cannot asymmetrically inflate one side of a
    speedup ratio."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    return BenchResult(fn.__name__, best, repeats)


# ----------------------------------------------------------------------
# Seed-engine semantics (the "before" this PR is measured against)
# ----------------------------------------------------------------------
def _seed_accumulate(self, grad):
    """Seed ``Tensor._accumulate``: reallocate on every contribution."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        self.grad = self.grad + grad


def _seed_getitem(self, index):
    """Seed ``Tensor.__getitem__``: full-size zeros + np.add.at scatter."""
    data = self.data[index]

    def backward(grad):
        if self.requires_grad:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

    return Tensor._make(data, (self,), backward)


def _seed_backward(self, grad=None):
    """Seed ``Tensor.backward``: keeps every grad buffer alive to the end."""
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        grad = np.ones_like(self.data)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != self.data.shape:
        grad = np.broadcast_to(grad, self.data.shape).copy()
    order, visited, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    self._accumulate(grad)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@contextmanager
def seed_semantics():
    """Restore the seed engine's accumulation/slicing/backward behaviour."""
    original = Tensor._accumulate, Tensor.__getitem__, Tensor.backward
    Tensor._accumulate = _seed_accumulate
    Tensor.__getitem__ = _seed_getitem
    Tensor.backward = _seed_backward
    try:
        yield
    finally:
        Tensor._accumulate, Tensor.__getitem__, Tensor.backward = original


# ----------------------------------------------------------------------
# Kernels under test
# ----------------------------------------------------------------------
def _make_lstm_case(rng_seed: int = 0):
    rng = np.random.default_rng(rng_seed)
    lstm = LSTM(FEATURES, HIDDEN, rng=rng_seed)
    inputs = rng.normal(size=(BATCH, TIME, FEATURES))
    return lstm, inputs


def lstm_fused_step(lstm: LSTM, inputs: np.ndarray) -> np.ndarray:
    lstm.zero_grad()
    x = Tensor(inputs)
    out, (h, _) = lstm(x)
    ((out * out).sum() + (h * h).sum()).backward()
    return out.data


def lstm_reference_step(lstm: LSTM, inputs: np.ndarray) -> np.ndarray:
    lstm.zero_grad()
    x = Tensor(inputs)
    out, (h, _) = lstm_forward_reference(lstm, x)
    ((out * out).sum() + (h * h).sum()).backward()
    return out.data


def bench_lstm(repeats: int = 10) -> dict:
    lstm, inputs = _make_lstm_case()

    out_fused = lstm_fused_step(lstm, inputs)
    grads_fused = {n: p.grad.copy() for n, p in lstm.named_parameters()}
    out_ref = lstm_reference_step(lstm, inputs)
    grads_ref = {n: p.grad.copy() for n, p in lstm.named_parameters()}
    max_out_err = float(np.abs(out_fused - out_ref).max())
    max_grad_err = max(
        float(np.abs(grads_fused[n] - grads_ref[n]).max()) for n in grads_fused
    )

    def fused():
        lstm_fused_step(lstm, inputs)

    def reference():
        lstm_reference_step(lstm, inputs)

    def seed():
        with seed_semantics():
            lstm_reference_step(lstm, inputs)

    t_fused = _time(fused, repeats)
    t_ref = _time(reference, repeats)
    t_seed = _time(seed, repeats)
    return {
        "config": {"batch": BATCH, "time": TIME, "hidden": HIDDEN, "features": FEATURES},
        "fused_ms": t_fused.per_call_ms,
        "reference_ms": t_ref.per_call_ms,
        "seed_ms": t_seed.per_call_ms,
        "speedup_vs_reference": t_ref.per_call_ms / t_fused.per_call_ms,
        "speedup_vs_seed": t_seed.per_call_ms / t_fused.per_call_ms,
        "max_output_abs_err": max_out_err,
        "max_grad_abs_err": max_grad_err,
    }


def decoder_step(forward, decoder, cond: np.ndarray, upstream: np.ndarray):
    """One forward+backward; returns the output and the input gradient."""
    decoder.zero_grad()
    x = Tensor(cond, requires_grad=True)
    out = forward(x)
    (out * Tensor(upstream)).sum().backward()
    return out.data, x.grad


def bench_decoder(repeats: int = 20) -> dict:
    rng = np.random.default_rng(3)
    decoder = RecurrentTrajectoryDecoder(DEC_FEATURES, pred_len=DEC_PRED_LEN, rng=3)
    cond = rng.normal(size=(DEC_BATCH, DEC_FEATURES))
    upstream = rng.normal(size=(DEC_BATCH, DEC_PRED_LEN, 2))

    def oracle(x):
        return rollout_reference(decoder, x)

    out_fused, dx_fused = decoder_step(decoder, decoder, cond, upstream)
    grads_fused = {n: p.grad.copy() for n, p in decoder.named_parameters()}
    out_ref, dx_ref = decoder_step(oracle, decoder, cond, upstream)
    grads_ref = {n: p.grad.copy() for n, p in decoder.named_parameters()}

    def fused():
        decoder_step(decoder, decoder, cond, upstream)

    def reference():
        decoder_step(oracle, decoder, cond, upstream)

    t_fused = _time(fused, repeats)
    t_ref = _time(reference, repeats)
    return {
        "config": {"batch": DEC_BATCH, "features": DEC_FEATURES, "pred_len": DEC_PRED_LEN},
        "fused_ms": t_fused.per_call_ms,
        "reference_ms": t_ref.per_call_ms,
        "speedup_vs_reference": t_ref.per_call_ms / t_fused.per_call_ms,
        "outputs_bit_identical": bool(np.array_equal(out_fused, out_ref)),
        "max_input_grad_abs_err": float(np.abs(dx_fused - dx_ref).max()),
        "max_param_grad_abs_err": max(
            float(np.abs(grads_fused[n] - grads_ref[n]).max()) for n in grads_fused
        ),
    }


def bench_batched_matmul(repeats: int = 20) -> dict:
    rng = np.random.default_rng(1)
    a_data = rng.normal(size=(BATCH, TIME, HIDDEN))
    b_data = rng.normal(size=(HIDDEN, 4 * HIDDEN))

    def batched_matmul():
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()

    t = _time(batched_matmul, repeats)
    return {"shape": [list(a_data.shape), list(b_data.shape)], "ms": t.per_call_ms}


def bench_accumulate(repeats: int = 50, contributions: int = 32) -> dict:
    rng = np.random.default_rng(2)
    grads = [rng.normal(size=(BATCH, TIME, HIDDEN)) for _ in range(8)]

    def accumulate():
        x = Tensor(np.zeros((BATCH, TIME, HIDDEN)), requires_grad=True)
        for i in range(contributions):
            x._accumulate(grads[i % len(grads)])

    t = _time(accumulate, repeats)
    return {"contributions": contributions, "ms": t.per_call_ms}


def run_all(repeats: int = 10) -> dict:
    return {
        "lstm_forward_backward": bench_lstm(repeats),
        "decoder_forward_backward": bench_decoder(max(repeats, 20)),
        "batched_matmul": bench_batched_matmul(max(repeats, 10)),
        "accumulate": bench_accumulate(max(repeats, 10)),
    }


# ----------------------------------------------------------------------
# Pytest gates (collected only when this file is targeted explicitly)
# ----------------------------------------------------------------------
def test_fused_lstm_matches_reference_and_is_faster():
    report = bench_lstm(repeats=10)
    assert report["max_output_abs_err"] <= ATOL, report
    assert report["max_grad_abs_err"] <= 1e-9, report
    assert report["speedup_vs_seed"] >= MIN_SPEEDUP, (
        f"fused LSTM speedup {report['speedup_vs_seed']:.2f}x over the seed "
        f"implementation is below the {MIN_SPEEDUP}x gate: {report}"
    )


def test_fused_decoder_matches_oracle_and_is_faster():
    report = bench_decoder()
    assert report["outputs_bit_identical"], report
    assert report["max_input_grad_abs_err"] <= ATOL, report
    assert report["max_param_grad_abs_err"] <= ATOL, report
    assert report["speedup_vs_reference"] >= MIN_DECODER_SPEEDUP, (
        f"fused decoder speedup {report['speedup_vs_reference']:.2f}x over the "
        f"per-frame oracle is below the {MIN_DECODER_SPEEDUP}x gate: {report}"
    )


def main() -> None:
    report = run_all()
    lstm = report["lstm_forward_backward"]
    print(f"fused LSTM fwd+bwd   : {lstm['fused_ms']:8.2f} ms/call")
    print(f"reference LSTM       : {lstm['reference_ms']:8.2f} ms/call")
    print(f"seed-semantics LSTM  : {lstm['seed_ms']:8.2f} ms/call")
    print(f"speedup vs reference : {lstm['speedup_vs_reference']:8.2f}x")
    print(f"speedup vs seed      : {lstm['speedup_vs_seed']:8.2f}x  (gate >= {MIN_SPEEDUP}x)")
    print(f"max |out_f - out_r|  : {lstm['max_output_abs_err']:.3e}  (gate <= {ATOL})")
    print(f"max |grad_f - grad_r|: {lstm['max_grad_abs_err']:.3e}")
    dec = report["decoder_forward_backward"]
    print(f"fused decoder fwd+bwd: {dec['fused_ms']:8.2f} ms/call")
    print(f"oracle decoder       : {dec['reference_ms']:8.2f} ms/call")
    print(f"decoder speedup      : {dec['speedup_vs_reference']:8.2f}x  (gate >= {MIN_DECODER_SPEEDUP}x)")
    print(f"decoder outputs equal: {dec['outputs_bit_identical']}")
    print(f"max decoder grad err : {max(dec['max_input_grad_abs_err'], dec['max_param_grad_abs_err']):.3e}  (gate <= {ATOL})")
    print(f"batched matmul       : {report['batched_matmul']['ms']:8.2f} ms/call")
    print(f"accumulate x32       : {report['accumulate']['ms']:8.2f} ms/call")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "bench_autograd_ops.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"saved {os.path.relpath(path)}")


if __name__ == "__main__":
    main()
