"""Tests for the declarative experiment runner (RunSpec / run_grid)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    GridReport,
    RunSpec,
    execute_spec,
    resolve_jobs,
    run_grid,
    run_grid_report,
)
from tests.experiments.test_harness_and_reporting import MICRO


def micro_grid() -> list[RunSpec]:
    return [
        RunSpec("pecnet", "vanilla", ("eth_ucy",), "sdd", scale=MICRO),
        RunSpec("pecnet", "counter", ("eth_ucy",), "sdd", scale=MICRO),
        RunSpec("lbebm", "vanilla", ("lcas",), "sdd", scale=MICRO, seed=1),
        RunSpec("pecnet", "adaptraj", ("eth_ucy", "lcas"), "sdd", scale=MICRO),
    ]


class TestRunSpec:
    def test_rejects_empty_sources(self):
        with pytest.raises(ValueError, match="source"):
            RunSpec("pecnet", "vanilla", (), "sdd")

    def test_normalizes_sources_to_tuple(self):
        spec = RunSpec("pecnet", "vanilla", ["eth_ucy", "lcas"], "sdd")
        assert spec.sources == ("eth_ucy", "lcas")

    def test_resolve_scale_accepts_names_and_instances(self):
        assert RunSpec("a", "b", ("c",), "d", scale="tiny").resolve_scale().name == "tiny"
        assert RunSpec("a", "b", ("c",), "d", scale=MICRO).resolve_scale() is MICRO

    def test_execute_spec_matches_run_experiment(self):
        from repro.experiments.harness import run_experiment

        spec = micro_grid()[0]
        direct = run_experiment(
            spec.backbone, spec.method, list(spec.sources), spec.target, scale=MICRO
        )
        via_spec = execute_spec(spec)
        assert via_spec.signature() == direct.signature()


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_usable_cpus(self):
        from repro.experiments.runner import usable_cpu_count

        assert resolve_jobs(0) == usable_cpu_count()
        assert resolve_jobs(None) == usable_cpu_count()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestRunGrid:
    def test_serial_results_in_spec_order(self):
        grid = micro_grid()
        results = run_grid(grid, jobs=1)
        assert [(r.backbone, r.method, r.sources, r.target) for r in results] == [
            (s.backbone, s.method, s.sources, s.target) for s in grid
        ]

    def test_parallel_bit_identical_to_serial(self):
        """The issue's core determinism contract, on a tiny grid."""
        grid = micro_grid()
        serial = run_grid(grid, jobs=1)
        parallel = run_grid(grid, jobs=2)
        assert [r.signature() for r in serial] == [r.signature() for r in parallel]

    def test_report_metadata(self):
        report = run_grid_report(micro_grid()[:2], jobs=1)
        assert isinstance(report, GridReport)
        assert report.jobs == 1
        assert report.wall_seconds > 0
        meta = report.meta()
        assert meta["num_runs"] == 2 and meta["jobs"] == 1

    def test_workers_capped_by_grid_size(self):
        report = run_grid_report(micro_grid()[:1], jobs=8)
        assert report.jobs == 1  # one run -> serial, no pool

    def test_empty_grid(self):
        assert run_grid([], jobs=4) == []


class TestGridDeclaringGenerators:
    """Tables/figures assemble identical outputs from serial and parallel runs."""

    def test_table2_rows_identical_across_jobs(self):
        from repro.experiments.runner import run_declared
        from repro.experiments.tables import TABLES

        serial = run_declared(TABLES["table2"](MICRO, 0), jobs=1)
        parallel = run_declared(TABLES["table2"](MICRO, 0), jobs=2)
        assert serial.rows == parallel.rows
        assert parallel.meta["jobs"] == 2
        assert parallel.meta["grid_wall_seconds"] > 0

    def test_figure3_series_identical_across_jobs(self):
        from repro.experiments.figures import FIGURES
        from repro.experiments.runner import run_declared

        declare = FIGURES["figure3"]
        serial = run_declared(declare(MICRO, 0, backbones=("pecnet",)), jobs=1)
        parallel = run_declared(declare(MICRO, 0, backbones=("pecnet",)), jobs=2)
        assert serial.series == parallel.series
