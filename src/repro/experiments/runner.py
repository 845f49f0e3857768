"""Declarative experiment grids and their (optionally parallel) execution.

Every table and figure of the paper decomposes into independent
``run_experiment(backbone, method, sources, target)`` calls.  This module
makes that decomposition explicit: a generator *declares* its grid as a list
of :class:`RunSpec` and hands it to :func:`run_grid`, which executes the
runs serially (``jobs=1``) or on a ``ProcessPoolExecutor``.

Determinism contract (held by ``tests/experiments/test_runner.py`` and the
``benchmarks/bench_experiment_engine.py`` gate):

* every run's stochasticity is fully determined by its spec — the scale
  carries the data/train seeds, ``run_experiment`` derives everything else —
  so results are **bit-identical between serial and parallel execution** and
  independent of scheduling order;
* results come back in spec order regardless of completion order;
* worker processes share the machine-wide dataset disk cache
  (:mod:`repro.data.registry`), and :func:`run_grid` pre-warms it in the
  parent by default so a sweep simulates each domain dataset at most once.

Timing fields (``train_seconds`` / ``inference_seconds``) are wall-clock
measurements and naturally vary between runs; :meth:`RunResult.signature`
exposes exactly the deterministic remainder for equality checks.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core.config import AdapTrajConfig
from repro.data import registry
from repro.data.registry import load_domain_dataset
from repro.experiments.harness import RunResult, run_experiment
from repro.experiments.scales import ExperimentScale, get_scale

__all__ = [
    "Declaration",
    "GridReport",
    "RunSpec",
    "execute_spec",
    "resolve_jobs",
    "run_declared",
    "run_grid",
    "run_grid_report",
    "usable_cpu_count",
]


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid (the arguments of ``run_experiment``)."""

    backbone: str
    method: str
    sources: tuple[str, ...]
    target: str
    scale: ExperimentScale | str = "tiny"
    seed: int = 0
    variant: str = "full"
    adaptraj_config: AdapTrajConfig | None = None
    measure_inference: bool = False

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("RunSpec needs at least one source domain")
        if not isinstance(self.sources, tuple):
            object.__setattr__(self, "sources", tuple(self.sources))

    def resolve_scale(self) -> ExperimentScale:
        return get_scale(self.scale) if isinstance(self.scale, str) else self.scale


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one grid cell (module-level so worker processes can pickle it)."""
    return run_experiment(
        spec.backbone,
        spec.method,
        sources=list(spec.sources),
        target=spec.target,
        scale=spec.scale,
        seed=spec.seed,
        variant=spec.variant,
        adaptraj_config=spec.adaptraj_config,
        measure_inference=spec.measure_inference,
    )


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per usable CPU."""
    if jobs is None or jobs == 0:
        return usable_cpu_count()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


def _warm_dataset_cache(specs: list[RunSpec]) -> None:
    """Build every dataset a grid needs once, in-parent, before forking.

    Each domain is simulated once per data config; its other domain
    orderings re-wrap the same samples (see :mod:`repro.data.registry`).
    Workers then hit the disk (or, under the fork start method, the
    inherited in-process) cache instead of racing to regenerate the same
    domains.  Keyed exactly like ``run_experiment`` builds its datasets.
    """
    seen: set[tuple] = set()
    for spec in specs:
        scale = spec.resolve_scale().with_seed(spec.seed)
        domains = list(dict.fromkeys([*spec.sources, spec.target]))
        for domain in domains:
            key = (domain, tuple(domains), scale.data)
            if key not in seen:
                seen.add(key)
                load_domain_dataset(domain, scale.data, domains=domains)


@dataclass
class GridReport:
    """Results of a grid execution plus its wall-clock accounting."""

    results: list[RunResult]
    jobs: int
    wall_seconds: float
    warm_seconds: float = 0.0

    def meta(self) -> dict:
        """The timing block persisted into ``results/<name>.json``."""
        return {
            "num_runs": len(self.results),
            "jobs": self.jobs,
            "grid_wall_seconds": round(self.wall_seconds, 4),
            "cache_warm_seconds": round(self.warm_seconds, 4),
        }


def run_grid_report(
    specs: list[RunSpec] | tuple[RunSpec, ...],
    jobs: int | None = 1,
    warm_cache: bool = True,
) -> GridReport:
    """Execute ``specs`` and return results plus timing metadata.

    ``jobs=1`` runs serially in-process (no executor); ``jobs>1`` submits to
    a :class:`ProcessPoolExecutor`.  Output order always follows spec order.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    effective = max(1, min(jobs, len(specs)))

    warm_start = time.perf_counter()  # lint: disable=REP-DET(timing meta only; RunResult.signature() excludes wall-clock fields)
    if warm_cache and effective > 1:
        _warm_dataset_cache(specs)
    warm_seconds = time.perf_counter() - warm_start  # lint: disable=REP-DET(timing meta only; RunResult.signature() excludes wall-clock fields)

    start = time.perf_counter()  # lint: disable=REP-DET(timing meta only; RunResult.signature() excludes wall-clock fields)
    if effective <= 1:
        results = [execute_spec(spec) for spec in specs]
    else:
        # Propagate the active disk-cache directory explicitly: under the
        # spawn/forkserver start methods workers would otherwise fall back
        # to the environment default, bypassing set_cache_dir() overrides
        # (and the pre-warm above).
        with ProcessPoolExecutor(
            max_workers=effective,
            initializer=registry.set_cache_dir,
            initargs=(registry.get_cache_dir(),),
        ) as pool:
            futures = [pool.submit(execute_spec, spec) for spec in specs]
            results = [future.result() for future in futures]
    return GridReport(
        results=results,
        jobs=effective,
        wall_seconds=time.perf_counter() - start,  # lint: disable=REP-DET(timing meta only; RunResult.signature() excludes wall-clock fields)
        warm_seconds=warm_seconds,
    )


def run_grid(
    specs: list[RunSpec] | tuple[RunSpec, ...],
    jobs: int | None = 1,
    warm_cache: bool = True,
) -> list[RunResult]:
    """Execute a declared grid and return its results in spec order.

    Parameters
    ----------
    specs : the grid — one frozen :class:`RunSpec` per independent run.
    jobs : ``1`` (default) runs serially in-process; ``N > 1`` uses a
        :class:`~concurrent.futures.ProcessPoolExecutor` with ``N`` workers;
        ``None``/``0`` means one worker per usable CPU (affinity-aware).
    warm_cache : simulate every dataset the grid needs once, in the parent,
        before forking, so workers hit the shared disk cache instead of
        racing to regenerate the same domains.

    Contract (gated by ``tests/experiments/test_runner.py`` and
    ``benchmarks/bench_experiment_engine.py``): results are **bit-identical
    for any jobs value** — every run's stochasticity derives from its spec,
    never from scheduling — and come back in spec order regardless of
    completion order.  Equality is asserted on
    :meth:`~repro.experiments.harness.RunResult.signature`, which excludes
    the wall-clock fields (``train_seconds``, ``inference_seconds``); keep
    any new nondeterministic field out of ``signature()``.

    Use :func:`run_grid_report` for the same execution plus wall-clock
    accounting (the ``meta`` block persisted into ``results/<name>.json``).
    """
    return run_grid_report(specs, jobs=jobs, warm_cache=warm_cache).results


#: One paper artifact, declared: its grid of runs, and the assembly of the
#: grid's results (in grid order) plus a timing ``meta`` block into the
#: artifact.  ``python -m repro.experiments`` runs the union of several
#: declarations' grids once and hands each assembly its share.
Declaration = tuple[list[RunSpec], Callable[[list[RunResult], dict], object]]


def run_declared(declaration: Declaration, jobs: int | None = 1):
    """Run one declared artifact's grid on its own and assemble the artifact."""
    grid, assemble = declaration
    report = run_grid_report(grid, jobs=jobs)
    return assemble(report.results, report.meta())
