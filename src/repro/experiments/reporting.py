"""Result formatting and persistence for the reproduction experiments, and
the ``BENCH_*.json`` run records that benchmarks and
``python -m repro.experiments`` write at the repository root."""

from __future__ import annotations

import json
import os
import re
from collections.abc import Sequence

__all__ = [
    "REPO_ROOT",
    "format_table",
    "provenance",
    "save_json",
    "save_table",
    "write_bench_json",
]

#: The source checkout this module runs from (``src/repro/experiments/..``).
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an ASCII table (the textual equivalent of the paper's tables)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def render_row(row: list[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(render_row(cells[0]))
    lines.append(sep)
    lines.extend(render_row(row) for row in cells[1:])
    return "\n".join(lines)


def save_json(path: str | os.PathLike, payload: object) -> None:
    """Write ``payload`` as pretty JSON, creating parent directories."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


def save_table(
    path: str | os.PathLike,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render, persist, and return the ASCII table."""
    text = format_table(headers, rows, title=title)
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return text


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
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),  # lint: disable=REP-DET(record timestamp only; no result depends on it)
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
