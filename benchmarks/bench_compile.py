"""Acceptance gate for the compiled inference fast path (repro.nn.compile).

Times single-stream ``Predictor.predict`` latency — eager execution vs the
captured/planned replay — for both backbones at the padded shapes the
serving micro-batcher produces, and certifies the compiled outputs with the
statistical-equivalence tier (:mod:`repro.metrics.statistics`).

The gate's baseline is eager inference as it ran when the 2x gate was set:
one decoder pass per sample (``predict_reference`` in
``tests/models/oracles.py``), and for LBEBM the decoder rollout as the
per-frame Tensor loop of the same file.  Both oracles match today's eager
outputs to within the last bit.  Eager inference now decodes all ``K``
samples in one batched pass and runs the fused rollout, so its latency
lies between the reference and compiled timings; it is timed too, and its
ratio is recorded ungated, with each plan's step count.

Gates (CI-enforced via the pytest entries):

* planned replay >= ``MIN_SPEEDUP`` (2x) faster than the per-sample,
  per-frame eager path for LBEBM **and** PECNet at the single-stream
  serving shape;
* compiled predictions bit-identical to the batched eager path the plan
  was captured from, for the same seed (no fusion in the planner reorders
  reductions), and the distribution-level equivalence report passes.

Run directly (``PYTHONPATH=src python benchmarks/bench_compile.py``) to
print the report and write ``BENCH_compile.json`` at the repo root, or via
pytest (``python -m pytest benchmarks/bench_compile.py``) to assert the
gates.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

if __name__ == "__main__":  # script mode: put repo root + src on sys.path
    import _bootstrap  # noqa: F401

import numpy as np

from benchmarks.cli import write_bench_json
from repro.baselines import build_method
from repro.data.dataset import Batch
from repro.metrics import compare_samples
from repro.models.decoder import RecurrentTrajectoryDecoder
from repro.serve.predictor import Predictor
from tests.models.oracles import predict_reference, rollout_reference

# Acceptance-criteria configuration: single-stream serving shape (one agent
# per flush, a small padded neighbour bucket, best-of-K sampling).
BATCH_SIZE = 1
NUM_NEIGHBOURS = 4
NUM_SAMPLES = 4
MIN_SPEEDUP = 2.0
BACKBONES = ("lbebm", "pecnet")


@dataclass
class BenchResult:
    seconds: float
    repeats: int

    @property
    def per_call_ms(self) -> float:
        return 1e3 * self.seconds / self.repeats


def _time(fn, repeats: int, warmup: int = 3, blocks: int = 3) -> BenchResult:
    """Best-of-``blocks`` timing: take the fastest block, so a noise spike
    on a shared runner cannot asymmetrically inflate one side of a speedup
    ratio."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    return BenchResult(best, repeats)


def _make_batch(
    batch_size: int, neighbours: int, seed: int, obs_len: int = 8, pred_len: int = 12
) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(
        obs=rng.standard_normal((batch_size, obs_len, 2)) * 0.1,
        future=np.zeros((batch_size, pred_len, 2)),
        neighbours=rng.standard_normal((batch_size, neighbours, obs_len, 2)) * 0.1,
        neighbour_mask=rng.random((batch_size, neighbours)) < 0.7,
        domain_ids=np.zeros(batch_size, dtype=np.int64),
        origins=rng.standard_normal((batch_size, 2)),
    )


def _method(backbone: str):
    return build_method("vanilla", backbone, num_domains=1, rng=3)


def _reference_method(backbone: str):
    """The benchmarked model decoding one sample per pass, with its
    recurrent decoder, if it has one, running the per-frame Tensor loop."""
    method = _method(backbone)
    model = method.backbone
    model.predict = functools.partial(predict_reference, model)
    decoder = getattr(model, "decoder", None)
    if isinstance(decoder, RecurrentTrajectoryDecoder):
        decoder.forward = functools.partial(rollout_reference, decoder)
    return method


def bench_backbone(backbone: str, repeats: int = 40) -> dict:
    """Time reference, eager and compiled single-stream predict for one backbone."""
    # Same seed, same weights: only the execution path differs.
    reference = Predictor(_reference_method(backbone))
    eager = Predictor(_method(backbone))
    compiled = Predictor(_method(backbone), compile=True)
    batch = _make_batch(BATCH_SIZE, NUM_NEIGHBOURS, seed=1)

    # Equivalence certification on a batch the plan was NOT captured on:
    # build the plan on `batch`, then compare on a fresh batch + seed.
    compiled.predict(batch, NUM_SAMPLES, rng=0)  # builds + validates the plan
    probe = _make_batch(BATCH_SIZE, NUM_NEIGHBOURS, seed=17)
    ref = eager.predict(probe, NUM_SAMPLES, rng=23)
    cand = compiled.predict(probe, NUM_SAMPLES, rng=23)
    report = compare_samples(ref, cand)

    def reference_step():
        reference.predict(batch, NUM_SAMPLES, rng=5)

    def eager_step():
        eager.predict(batch, NUM_SAMPLES, rng=5)

    def compiled_step():
        compiled.predict(batch, NUM_SAMPLES, rng=5)

    t_reference = _time(reference_step, repeats)
    t_eager = _time(eager_step, repeats)
    t_compiled = _time(compiled_step, repeats)
    stats = compiled.compile_stats()
    return {
        "backbone": backbone,
        "config": {
            "batch_size": BATCH_SIZE,
            "neighbours": NUM_NEIGHBOURS,
            "num_samples": NUM_SAMPLES,
        },
        "reference_ms": t_reference.per_call_ms,
        "eager_ms": t_eager.per_call_ms,
        "compiled_ms": t_compiled.per_call_ms,
        "speedup": t_reference.per_call_ms / t_compiled.per_call_ms,
        "speedup_vs_eager": t_eager.per_call_ms / t_compiled.per_call_ms,
        "plan_steps": [plan["num_steps"] for plan in stats["plans_detail"].values()],
        "equivalence": report.as_dict(),
        "compile_stats": stats,
    }


def run_all(repeats: int = 40) -> dict:
    reports = {backbone: bench_backbone(backbone, repeats) for backbone in BACKBONES}
    passed = all(
        r["speedup"] >= MIN_SPEEDUP
        and r["equivalence"]["exact"]
        and r["equivalence"]["passed"]
        for r in reports.values()
    )
    return {
        "benchmark": "compile",
        "min_speedup_gate": MIN_SPEEDUP,
        "backbones": reports,
        "passed": passed,
    }


# ----------------------------------------------------------------------
# Pytest gates (collected only when this file is targeted explicitly)
# ----------------------------------------------------------------------
def test_compiled_predict_is_2x_and_equivalent():
    report = run_all(repeats=30)
    write_bench_json("compile", report)
    for backbone, r in report["backbones"].items():
        assert r["equivalence"]["exact"], (
            f"{backbone}: compiled predictions are not bit-identical to eager: "
            f"{r['equivalence']}"
        )
        assert r["equivalence"]["passed"], (
            f"{backbone}: statistical-equivalence tier failed: {r['equivalence']}"
        )
        assert r["compile_stats"]["broken"] is None, r["compile_stats"]
        assert r["speedup"] >= MIN_SPEEDUP, (
            f"{backbone}: compiled speedup {r['speedup']:.2f}x is below the "
            f"{MIN_SPEEDUP}x gate (per-sample, per-frame eager "
            f"{r['reference_ms']:.3f} ms, compiled {r['compiled_ms']:.3f} ms)"
        )
    assert report["passed"]


def main() -> None:
    report = run_all()
    for backbone, r in report["backbones"].items():
        eq = r["equivalence"]
        print(f"{backbone:8s} reference {r['reference_ms']:7.3f} ms  "
              f"eager {r['eager_ms']:7.3f} ms  "
              f"compiled {r['compiled_ms']:7.3f} ms  "
              f"speedup {r['speedup']:5.2f}x (gate >= {MIN_SPEEDUP}x), "
              f"{r['speedup_vs_eager']:5.2f}x vs eager  "
              f"steps {r['plan_steps']}  "
              f"exact={eq['exact']} ks={eq['ks']:.4f}")
    path = write_bench_json("compile", report)
    print(f"{'PASS' if report['passed'] else 'FAIL'}  saved {path}")
    if not report["passed"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
