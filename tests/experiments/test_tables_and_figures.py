"""Smoke tests for the table/figure generators (micro scale) and chart utils."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import FigureResult, ascii_bar_chart
from repro.experiments.runner import run_declared
from repro.experiments.tables import TABLES, TableResult
from tests.experiments.test_harness_and_reporting import MICRO


class TestAsciiBarChart:
    def test_renders_bars_proportionally(self):
        chart = ascii_bar_chart([("a", 1.0), ("bb", 2.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_empty_points(self):
        assert ascii_bar_chart([]) == "(no data)"

    def test_zero_values_guarded(self):
        chart = ascii_bar_chart([("a", 0.0)])
        assert "a" in chart


class TestTableResult:
    def test_text_contains_headers_and_rows(self):
        table = TableResult(
            name="t", title="Title", headers=["x", "y"], rows=[["1", "2"]]
        )
        assert "Title" in table.text
        assert "1" in table.text

    def test_save_writes_txt_and_json(self, tmp_path):
        table = TableResult(
            name="demo", title="T", headers=["x"], rows=[["7"]]
        )
        table.save(str(tmp_path))
        assert (tmp_path / "demo.txt").exists()
        assert (tmp_path / "demo.json").exists()


class TestFigureResult:
    def test_text_includes_all_series(self):
        fig = FigureResult(
            name="f",
            title="Fig",
            series={"A": [("x1", 1.0, 2.0)], "B": [("x1", 0.5, 1.0)]},
        )
        assert "[A]" in fig.text and "[B]" in fig.text

    def test_save(self, tmp_path):
        fig = FigureResult(name="fig", title="T", series={"A": [("x", 1.0, 2.0)]})
        fig.save(str(tmp_path))
        assert (tmp_path / "fig.json").exists()
        assert (tmp_path / "fig.txt").exists()


class TestTableGenerators:
    def test_table1_has_four_domains(self):
        result = run_declared(TABLES["table1"](MICRO, 0))
        assert [row[0] for row in result.rows] == ["eth_ucy", "lcas", "syi", "sdd"]
        assert result.name == "table1_statistics"

    def test_table1_syi_densest(self):
        result = run_declared(TABLES["table1"](MICRO, 0))
        densities = {
            row[0]: float(str(row[2]).split("/")[0]) for row in result.rows
        }
        assert densities["syi"] == max(densities.values())

    def test_figure4_rejects_unknown_parameter(self):
        from repro.experiments.figures import figure4_sensitivity

        with pytest.raises(ValueError, match="no sweep"):
            figure4_sensitivity(MICRO, parameters=("learning_rate",))
