"""``python -m repro.experiments`` — regenerate the paper's tables and figures.

::

    python -m repro.experiments table2 table6 --jobs 2 --scale tiny
    python -m repro.experiments all --jobs 0

The command collects the declared grids of the requested artifacts and runs
each distinct :class:`~repro.experiments.runner.RunSpec` once: the untimed
ones on one :func:`~repro.experiments.runner.run_grid_report` pool, then
Table VIII's ``measure_inference`` specs serially, so no concurrent run
shares a core with a timed one.  Every artifact is then assembled from the
shared results, which equal its standalone run (equal specs give
bit-identical ``signature()``s), and written to ``results/<name>.{txt,json}``.
One ``BENCH_reproduction.json`` at the repository root records the run.

Exit codes: ``0`` written, ``2`` usage error (an unknown artifact or scale).
"""

from __future__ import annotations

import argparse
import os
import time
from collections.abc import Sequence

from repro.experiments.figures import FIGURES
from repro.experiments.reporting import REPO_ROOT, write_bench_json
from repro.experiments.runner import run_grid_report
from repro.experiments.scales import SCALES, ExperimentScale, get_scale
from repro.experiments.tables import TABLES

#: Artifact name -> its declaration at ``(scale, seed)``, in paper order.
ARTIFACTS = {**TABLES, **FIGURES}
RESULTS_DIR = os.path.join(REPO_ROOT, "results")


def reproduce(
    artifacts: Sequence[str],
    scale: ExperimentScale,
    seed: int = 0,
    jobs: int | None = 1,
    results_dir: str = RESULTS_DIR,
) -> tuple[dict[str, object], dict]:
    """Regenerate ``artifacts`` from one run of their grids' union.

    Returns each artifact as its generator returns it (a ``TableResult``, or
    Figure 4's dict of panels), by name, and the run record that
    :func:`main` writes as ``BENCH_reproduction.json``.
    """
    start = time.perf_counter()  # lint: disable=REP-DET(record timing only; RunResult.signature() excludes wall-clock fields)
    declarations = {name: ARTIFACTS[name](scale, seed) for name in artifacts}
    declared = [spec for grid, _ in declarations.values() for spec in grid]
    distinct = list(dict.fromkeys(declared))
    untimed = [spec for spec in distinct if not spec.measure_inference]
    timed = [spec for spec in distinct if spec.measure_inference]
    pool = run_grid_report(untimed, jobs=jobs)
    serial = run_grid_report(timed, jobs=1)
    results = dict(zip(untimed, pool.results)) | dict(zip(timed, serial.results))

    assembled: dict[str, object] = {}
    written = []
    for name, (grid, assemble) in declarations.items():
        meta = {}
        if grid:  # Table VIII's grid is all timed; every other grid is untimed
            report = serial if grid[0].measure_inference else pool
            meta = {**report.meta(), "num_runs": len(grid)}
        artifact = assemble([results[spec] for spec in grid], meta)
        elapsed = time.perf_counter() - start  # lint: disable=REP-DET(record timing only; RunResult.signature() excludes wall-clock fields)
        for item in artifact.values() if isinstance(artifact, dict) else [artifact]:
            item.meta.update(scale=scale.name, total_wall_seconds=round(elapsed, 4))
            print(item.save(results_dir))
            print()
            written.append(item.name)
        assembled[name] = artifact
    record = {
        "benchmark": "reproduction",
        "artifacts": written,
        "scale": scale.name,
        "seed": seed,
        "jobs": pool.jobs,
        "declared_runs": len(declared),
        "distinct_runs": len(distinct),
        "pool_wall_seconds": round(pool.wall_seconds, 4),
        "total_wall_seconds": round(time.perf_counter() - start, 4),  # lint: disable=REP-DET(record timing only; RunResult.signature() excludes wall-clock fields)
    }
    return assembled, record


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper tables and figures into results/, "
        "training each distinct run of the requested artifacts once.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=[*ARTIFACTS, "all"],
        metavar="ARTIFACT",
        help=f"one or more of {', '.join(ARTIFACTS)}, or all",
    )
    parser.add_argument(
        "--scale", default="tiny", choices=sorted(SCALES), help="experiment scale"
    )
    parser.add_argument("--seed", type=int, default=0, help="stochastic realization")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the untimed runs (0 = one per CPU)",
    )
    parser.add_argument(
        "--results-dir", default=RESULTS_DIR, help="output directory for .txt/.json"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    requested = set(args.artifacts)
    _, record = reproduce(
        [name for name in ARTIFACTS if "all" in requested or name in requested],
        get_scale(args.scale),
        seed=args.seed,
        jobs=args.jobs,
        results_dir=args.results_dir,
    )
    print(write_bench_json("reproduction", record))
    return 0
