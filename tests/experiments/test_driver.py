"""Tests for ``python -m repro.experiments``: one run of the artifacts' union."""

from __future__ import annotations

import json

import pytest

from repro.experiments import cli, runner
from repro.experiments.scales import get_scale
from repro.experiments.tables import table2_domain_shift, table6_source_count
from tests.experiments.test_harness_and_reporting import MICRO

TEN_ARTIFACTS = [
    "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "figure3", "figure4",
]


@pytest.fixture(scope="module")
def standalone():
    return {"table2": table2_domain_shift(MICRO), "table6": table6_source_count(MICRO)}


@pytest.fixture(scope="module")
def parallel_union(tmp_path_factory):
    """Tables II, VI and VIII through ``reproduce`` with 2 jobs, with every
    ``run_grid_report`` call it makes recorded as ``(specs, jobs)``."""
    calls = []

    def recording(specs, jobs=1, **kwargs):
        calls.append((list(specs), jobs))
        return runner.run_grid_report(specs, jobs=jobs, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_grid_report", recording)
        artifacts, record = cli.reproduce(
            ["table2", "table6", "table8"],
            MICRO,
            jobs=2,
            results_dir=str(tmp_path_factory.mktemp("results")),
        )
    return artifacts, record, calls


def test_union_trains_each_distinct_spec_once(standalone, tmp_path, monkeypatch):
    trained, execute_spec = [], runner.execute_spec

    def counting(spec):
        trained.append(spec)
        return execute_spec(spec)

    monkeypatch.setattr(runner, "execute_spec", counting)
    artifacts, record = cli.reproduce(["table2", "table6"], MICRO, results_dir=str(tmp_path))

    # Tables II and VI share PECNet-vanilla from SDD and from ETH&UCY.
    assert (record["declared_runs"], record["distinct_runs"]) == (14, 12)
    assert len(trained) == len(set(trained)) == 12
    for name, alone in standalone.items():
        assert artifacts[name].rows == alone.rows
        assert [r.signature() for r in artifacts[name].runs] == [
            r.signature() for r in alone.runs
        ]
    saved = json.loads((tmp_path / "table2_domain_shift.json").read_text())
    assert saved["meta"]["num_runs"] == 8 and saved["meta"]["scale"] == "micro"


def test_parallel_union_gives_the_same_rows(standalone, parallel_union):
    artifacts, record, _ = parallel_union
    assert record["jobs"] == 2
    for name, alone in standalone.items():
        assert artifacts[name].rows == alone.rows


def test_timed_specs_reach_the_runner_only_serially(parallel_union):
    artifacts, _, calls = parallel_union
    timed = [(specs, jobs) for specs, jobs in calls if any(s.measure_inference for s in specs)]
    assert [jobs for _, jobs in timed] == [1]
    assert len(timed[0][0]) == len(artifacts["table8"].rows) == 8
    assert all(s.measure_inference for s in timed[0][0])
    assert artifacts["table8"].meta["jobs"] == 1


def test_table1_accepts_jobs_and_trains_nothing(tmp_path, monkeypatch):
    def no_training(spec):
        raise AssertionError(f"Table I trained {spec}")

    records = []
    monkeypatch.setattr(runner, "execute_spec", no_training)
    monkeypatch.setattr(cli, "write_bench_json", lambda name, record: records.append(record))
    assert cli.main(["table1", "--jobs", "2", "--results-dir", str(tmp_path)]) == 0

    [record] = records
    assert (record["declared_runs"], record["distinct_runs"]) == (0, 0)
    assert record["artifacts"] == ["table1_statistics"]
    meta = json.loads((tmp_path / "table1_statistics.json").read_text())["meta"]
    assert sorted(meta) == ["scale", "total_wall_seconds"]


def test_unknown_artifact_exits_2_and_names_the_choices(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["table9"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'table9'" in err
    assert all(f"'{name}'" in err for name in [*TEN_ARTIFACTS, "all"])


def test_all_expands_to_the_ten_artifacts(monkeypatch):
    requested = []
    monkeypatch.setattr(
        cli, "reproduce", lambda names, *args, **kwargs: (requested.append(names), {})
    )
    monkeypatch.setattr(cli, "write_bench_json", lambda name, record: name)
    assert cli.main(["figure4", "all", "table2"]) == 0
    assert requested == [TEN_ARTIFACTS]


def test_tiny_declarations_hold_95_distinct_of_116_runs():
    tiny = get_scale("tiny")
    declared = [spec for declare in cli.ARTIFACTS.values() for spec in declare(tiny, 0)[0]]
    assert (len(declared), len(set(declared))) == (116, 95)
    # Figure 4 regenerates its PECNet panels only: 6 parameters x 3 values.
    figure4 = cli.ARTIFACTS["figure4"](tiny, 0)[0]
    assert len(figure4) == 18 and {spec.backbone for spec in figure4} == {"pecnet"}
