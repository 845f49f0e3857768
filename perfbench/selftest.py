"""The benchmark's own tests: ``python -m pytest -q perfbench/selftest.py``.

Smoke-sized runs of every workload, the correctness checks rejecting
tampered outputs, and the metric catalogue (``BENCHMARK.json`` and
``layers.json``) agreeing with what the runs print.  Not collected by the
tier-1 suite (the file name does not match ``test_*.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run, serving, training  # noqa: E402
from repro.experiments.harness import RunResult  # noqa: E402
from repro.experiments.tables import TableResult  # noqa: E402
from repro.serve import collate_requests  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def catalog():
    return run.load_catalog()


def _names(catalog, key):
    return {entry["name"]: entry["unit"] for entry in catalog[key]}


def _check_metrics(catalog, result, traced):
    declared = _names(catalog, "per_layer" if traced else "end_to_end")
    assert set(result["metrics"]) <= set(declared), set(result["metrics"]) - set(declared)
    if not traced:
        assert set(result["metrics"]) == set(declared)
        assert all(value > 0 for value in result["metrics"].values()), result["metrics"]
    assert all(np.isfinite(value) for value in result["metrics"].values())


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------
def test_catalog_shape_and_names(catalog):
    assert set(catalog) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in catalog["workloads"]] == ["train-table4", "serve-explicit", "serve-stream"]
    names = [w["name"] for w in catalog["workloads"]]
    for key in ("end_to_end", "per_layer"):
        for entry in catalog[key]:
            names.append(entry["name"])
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    setup = next(e for e in catalog["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in catalog["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in catalog["workloads"])


def test_layers_json_covers_every_per_layer_metric(catalog):
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as handle:
        layers = json.load(handle)
    layers.pop("_about")
    assert set(layers) == set(_names(catalog, "per_layer"))
    end_to_end = set(_names(catalog, "end_to_end"))
    for name, entry in layers.items():
        assert set(entry) == {"timed_call", "should_move", "on", "no_move_on"}, name
        moved = {part.split(" on ")[0].strip() for part in entry["should_move"].split(",")}
        assert moved <= end_to_end | {"-", "(validity of serve-stream)", "failed / attempted"}, (name, moved)


def test_printed_metrics_carry_declared_units(catalog, monkeypatch, capsys):
    fake = {"attempted": 3, "failed": 0, "record": {}, "metrics": {"setup_s": 1.0, "throughput_per_s": 2.0,
                                                                   "latency_p50_ms": 3.0}}
    monkeypatch.setattr(run, "run", lambda *args, **kwargs: fake)
    monkeypatch.setattr(run, "RECORDS", os.path.join(ROOT, "perfbench", "records", "selftest"))
    assert run.main(["--workload", "serve-explicit", "--seed", "1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == _names(catalog, "end_to_end")
    shutil.rmtree(run.RECORDS, ignore_errors=True)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-explicit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# ----------------------------------------------------------------------
# Correctness checks reject tampered outputs
# ----------------------------------------------------------------------
def _served_batch(seed=3, batch_id=5, rows=3):
    predictor = serving.reference_predictor(seed)
    requests = [serving._request(*serving.explicit_payload(seed, 0, i), (0, i)) for i in range(rows)]
    batch = collate_requests(requests, pred_len=predictor.pred_len)
    samples = predictor.predict_world(batch, serving.NUM_SAMPLES, np.random.default_rng((seed, batch_id)))
    served = [
        serving.Served(request, samples[:, row].copy(), {"batch_id": batch_id, "row": row, "batch_size": rows})
        for row, request in enumerate(requests)
    ]
    return predictor, served


def test_replay_accepts_served_rows_and_rejects_a_tampered_sample():
    predictor, served = _served_batch()
    assert serving.replay(predictor, 3, served) == 1
    served[1].samples[4, 2, 0] += 1e-4
    with pytest.raises(AssertionError, match="batch 5 row 1"):
        serving.replay(predictor, 3, served)


def test_replay_rejects_a_missing_row_and_a_wrong_seed():
    predictor, served = _served_batch()
    with pytest.raises(AssertionError, match="rows"):
        serving.replay(predictor, 3, served[:2])
    with pytest.raises(AssertionError):
        serving.replay(predictor, 4, served)


def test_stream_rows_reject_an_agent_the_windows_do_not_emit():
    track = serving.scene_track(1, 0, serving.OBS_LEN)
    meta = {"batch_id": 0, "row": 0, "batch_size": 1}
    agents = {agent: (np.zeros((1,)), meta) for agent in serving.AGENT_IDS}
    assert len(serving.stream_rows(track, [(serving.OBS_LEN - 1, agents)], 0)) == len(agents)
    with pytest.raises(AssertionError, match="served agents"):
        serving.stream_rows(track, [(serving.OBS_LEN - 1, {**agents, "ghost": agents["a0"]})], 0)


def _table(runs):
    return TableResult(name="t", title="t", headers=[], rows=[], runs=runs)


def _runs():
    return [
        RunResult("pecnet", "vanilla", ("a",), f"t{i}", 0.5 + i, 1.0 + i, 1.0, epoch_losses=[2.0, 1.0])
        for i in range(32)
    ]


def test_table_check_rejects_a_tampered_loss_and_a_non_finite_cell():
    first, second = _runs(), _runs()
    second[7] = dataclasses.replace(second[7], train_seconds=9.0)  # wall clock is not compared
    assert training.check_tables([_table(first), _table(second)]) == training.digest(_table(first))
    second[7] = dataclasses.replace(second[7], epoch_losses=[2.0, 1.0 + 1e-12])
    with pytest.raises(AssertionError, match="disagree"):
        training.check_tables([_table(first), _table(second)])
    first[3] = dataclasses.replace(first[3], fde=float("nan"))
    with pytest.raises(AssertionError, match="ADE/FDE"):
        training.check_tables([_table(first)])


# ----------------------------------------------------------------------
# Smoke-sized runs of every workload
# ----------------------------------------------------------------------
@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def _small_scale(real):
    def grid_scale(seed):
        scale = real(seed)
        return dataclasses.replace(
            scale, train=dataclasses.replace(scale.train, epochs=1, max_batches_per_epoch=1)
        )

    return grid_scale


@pytest.mark.parametrize("traced", [False, True])
def test_train_smoke(catalog, monkeypatch, work_dir, traced):
    monkeypatch.setattr(training, "grid_scale", _small_scale(training.grid_scale))
    monkeypatch.setattr(training, "SETUP_REPEATS", 1)
    monkeypatch.setattr(training, "MIN_TABLES", 2)
    result = training.run_workload(0, 0.0, traced, work_dir, log=lambda line: None)
    _check_metrics(catalog, result, traced)
    assert result["record"]["optimizer_steps"] == 32
    if traced:
        assert result["metrics"]["nn.steps"] == 32
        assert result["metrics"]["core.forward_s.adaptraj"] > 0


@pytest.mark.parametrize("workload", ["serve-explicit", "serve-stream"])
@pytest.mark.parametrize("traced", [False, True])
def test_serve_smoke(catalog, monkeypatch, work_dir, workload, traced):
    monkeypatch.setattr(serving, "WARMUP_S", 0.2)
    result = serving.run_workload(ROOT, workload, 1, 0.5, traced, work_dir, log=lambda line: None)
    _check_metrics(catalog, result, traced)
    assert result["failed"] == 0 and result["attempted"] > 0
    if traced:
        metrics = result["metrics"]
        assert metrics["server.total_ms"] > 0 and metrics["predictor.predict_ms"] > 0
        if workload == "serve-stream":
            assert 1 <= metrics["batcher.rows_per_chunk"] <= serving.STREAM_AGENTS
            assert metrics["compile.plan_run_ms"] > 0 and metrics["workers.call_ms"] > 0
        else:
            assert metrics["compile.plan_run_ms"] == 0 and metrics["streaming.push_ms"] == 0
