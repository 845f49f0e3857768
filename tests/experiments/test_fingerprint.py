"""Behaviour fingerprint: the exact results of a reduced Table IV grid.

Both backbones x the four Table IV methods x the four leave-one-domain-out
targets (32 cells) train at a micro scale whose six epochs cover all three
AdapTraj phases, two batches each.  Every domain is loaded under four domain
orderings, so the registry's re-wrap of one simulation per domain runs too.
``fingerprint.json`` holds each cell's ``RunResult.signature()`` and the
provenance it was recorded under.  A refactor or kernel rewrite shows it
changed nothing by leaving this test green.

Two tiers:

* **exact** -- when the recorded numpy version, machine and Python version
  match this interpreter, the sha256 over every signature must match;
* **tolerance** -- otherwise every label must match exactly and every ADE,
  FDE and epoch loss within ``rtol=1e-9`` (float reductions may group
  differently under another numpy build or CPU).

Regenerate the record only for a change that is meant to move results, and
name the regeneration in CHANGES.md::

    PYTHONPATH=src python -m pytest -q tests/experiments/test_fingerprint.py --update-fingerprint
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from repro.core.config import TrainConfig
from repro.data.registry import DataConfig
from repro.experiments.scales import ExperimentScale
from repro.experiments.tables import table4_main_comparison

FINGERPRINT_PATH = Path(__file__).with_name("fingerprint.json")

FINGERPRINT_SCALE = ExperimentScale(
    name="fingerprint",
    data=DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=4),
    # AdapTraj's phase boundaries at 6 epochs: 0-3 (step 1), 4 (step 2), 5 (step 3).
    train=TrainConfig(epochs=6, batch_size=16, max_batches_per_epoch=2, eval_samples=2),
)

RTOL = 1e-9
LABELS = ("backbone", "method", "sources", "target")


def provenance() -> dict:
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def signature_digest(signatures) -> str:
    hasher = hashlib.sha256()
    for signature in signatures:
        hasher.update(repr(signature).encode("utf-8"))
    return hasher.hexdigest()


def cell_record(signature: tuple) -> dict:
    backbone, method, sources, target, ade, fde, losses = signature
    return {
        "backbone": backbone,
        "method": method,
        "sources": list(sources),
        "target": target,
        "ade": float(ade),
        "fde": float(fde),
        "epoch_losses": [float(loss) for loss in losses],
    }


def cell_values(cell: dict) -> np.ndarray:
    return np.array([cell["ade"], cell["fde"], *cell["epoch_losses"]])


def test_reduced_table4_matches_fingerprint(request):
    table = table4_main_comparison(FINGERPRINT_SCALE, seed=0)
    signatures = [run.signature() for run in table.runs]
    assert len(signatures) == 32
    cells = [cell_record(signature) for signature in signatures]

    if request.config.getoption("--update-fingerprint"):
        record = {
            "provenance": provenance(),
            "sha256": signature_digest(signatures),
            "cells": cells,
        }
        FINGERPRINT_PATH.write_text(json.dumps(record, indent=1) + "\n")
        return

    recorded = json.loads(FINGERPRINT_PATH.read_text())
    exact = recorded["provenance"] == provenance()
    if exact and signature_digest(signatures) == recorded["sha256"]:
        return
    # The tolerance tier, and the explanation when the exact tier fails.
    assert len(cells) == len(recorded["cells"])
    for cell, expected in zip(cells, recorded["cells"]):
        label = f"{cell['backbone']}-{cell['method']} -> {cell['target']}"
        assert [cell[k] for k in LABELS] == [expected[k] for k in LABELS], label
        actual, wanted = cell_values(cell), cell_values(expected)
        assert actual.shape == wanted.shape, label
        if exact:
            assert np.array_equal(actual, wanted), (
                f"{label}: max |diff| {np.abs(actual - wanted).max():.3e} under the "
                "recorded provenance, where results must be bit-identical"
            )
        else:
            np.testing.assert_allclose(actual, wanted, rtol=RTOL, atol=0.0, err_msg=label)
    if exact:
        raise AssertionError("every cell matches but the sha256 does not; check the signature format")
