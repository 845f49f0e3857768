"""Command-line entry point shared by the table/figure benchmark scripts.

Every ``benchmarks/bench_table*.py`` / ``bench_figure*.py`` doubles as a
script::

    PYTHONPATH=src python benchmarks/bench_table4_main.py --jobs 4 --scale tiny

The ``--jobs`` flag routes through :func:`repro.experiments.runner.run_grid`
(``0`` = one worker per CPU), and the emitted ``results/<name>.json`` gains a
``meta`` block recording the wall clock of the whole regeneration plus the
grid's own timing (``grid_wall_seconds``, ``jobs``, ``num_runs``) — the
start of a perf trajectory for the experiment suite itself.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Scale used by the benchmark suite; override with REPRO_BENCH_SCALE=small.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")

#: Worker count used when benchmarks run under pytest (the CLI uses --jobs).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def _git(*args: str) -> str | None:
    """Stdout of one git command in the repo, or None outside a git
    checkout / without git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_sha() -> str | None:
    """The checked-out commit, or None outside a git checkout / without git."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def _git_dirty() -> bool | None:
    """Whether a tracked file other than a ``BENCH_*.json`` record differs
    from the checked-out commit, i.e. whether ``git_sha`` may not name the
    code that ran; None without git."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    if status is None:
        return None
    return any(
        not re.fullmatch(r"BENCH_[^/]*\.json", line[3:]) for line in status.splitlines()
    )


def provenance() -> dict:
    """Run provenance stamped into every ``BENCH_*.json`` record.

    Commit sha (with ``git_dirty`` set when tracked code differs from it),
    UTC timestamp, platform, and python/numpy versions — the minimum needed
    to line BENCH files up into a comparable perf trajectory (a latency
    regression means nothing without knowing what ran where).
    """
    import datetime
    import platform
    import sys

    import numpy

    return {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def write_bench_json(name: str, payload: dict) -> str:
    """Write the machine-readable ``BENCH_<name>.json`` at the repo root.

    The file is the CI-facing record of one benchmark invocation — speedups,
    per-call latencies, and gate pass/fail — written atomically (tmp file +
    rename) so a crashed run never leaves a truncated artifact for the
    workflow's artifact-upload step to pick up.  ``name`` is slugified
    (human titles like ``"Table I (dataset statistics)"`` become
    ``table_i_dataset_statistics``) so the filename is shell-safe.  A
    :func:`provenance` block is merged in (caller-supplied provenance wins)
    so the records form a comparable trajectory across commits/hosts.
    """
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    path = os.path.join(REPO_ROOT, f"BENCH_{slug}.json")
    tmp = f"{path}.tmp"
    payload = {**payload, "provenance": {**provenance(), **payload.get("provenance", {})}}
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def main(generator, name: str, supports_jobs: bool = True, argv=None) -> None:
    """Regenerate one table/figure from the command line and persist it."""
    parser = argparse.ArgumentParser(
        description=f"Regenerate {name} and write results/ artifacts."
    )
    parser.add_argument(
        "--scale",
        default=BENCH_SCALE,
        help="experiment scale (tiny/small/paper; default from REPRO_BENCH_SCALE)",
    )
    parser.add_argument("--seed", type=int, default=0, help="stochastic realization")
    if supports_jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=BENCH_JOBS,
            help="parallel worker processes for the run grid (0 = all CPUs)",
        )
    parser.add_argument(
        "--results-dir", default=RESULTS_DIR, help="output directory for .txt/.json"
    )
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed}
    if supports_jobs:
        kwargs["jobs"] = args.jobs
    start = time.perf_counter()
    result = generator(args.scale, **kwargs)
    wall = time.perf_counter() - start

    results = result.values() if isinstance(result, dict) else [result]
    bench_meta = {}
    for item in results:
        item.meta.setdefault("scale", args.scale)
        item.meta["total_wall_seconds"] = round(wall, 4)
        if supports_jobs:
            item.meta.setdefault("jobs", args.jobs)
        bench_meta[item.name] = dict(item.meta)
        print(item.save(args.results_dir))
        print()
    # Machine-readable run record for CI (latency trajectory per artifact).
    print(
        write_bench_json(
            name,
            {
                "benchmark": name,
                "scale": args.scale,
                "seed": args.seed,
                "total_wall_seconds": round(wall, 4),
                "artifacts": bench_meta,
                "passed": True,
            },
        )
    )
