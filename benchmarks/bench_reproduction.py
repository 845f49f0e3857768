"""Regenerate each paper artifact at the tiny scale through ``repro.experiments``.

One case per artifact of ``python -m repro.experiments``; each writes its
``results/<name>.{txt,json}`` and checks the artifact's shape: the row
counts of Tables I–VIII, Table VIII's latency ordering, Figure 3's series
and Figure 4's six panels.  Select one with ``-k``::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_reproduction.py -k table1
"""

from __future__ import annotations

import pytest

from repro.experiments.cli import ARTIFACTS, reproduce
from repro.experiments.scales import get_scale

ROW_COUNTS = {
    "table1": 4,
    "table2": 2,
    "table3": 3,
    "table4": 8,  # 2 backbones x 4 methods
    "table5": 8,
    "table6": 6,
    "table7": 6,  # 2 backbones x 3 variants
    "table8": 8,
}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_artifact(name):
    artifacts, record = reproduce([name], get_scale("tiny"))
    result = artifacts[name]
    print(f"\n{name}: {record['total_wall_seconds']:.2f}s")
    if name in ROW_COUNTS:
        assert len(result.rows) == ROW_COUNTS[name]
    if name == "table8":
        times = {(r[0], r[1]): float(r[2]) for r in result.rows}
        # The paper's latency shape: LBEBM is an order slower than PECNet.
        assert times[("lbebm", "vanilla")] > times[("pecnet", "vanilla")]
    if name == "figure3":
        assert len(result.series) == 2
        for points in result.series.values():
            assert len(points) == 4
    if name == "figure4":
        assert set(result) == {
            "delta", "start_fraction", "end_fraction", "sigma", "f_low", "f_high",
        }
