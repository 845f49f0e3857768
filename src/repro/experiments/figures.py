"""Generators for the paper's figures (Fig. 3 and Fig. 4a–f).

Figures are reproduced as *data series* (the quantity plotted on each axis)
rendered as ASCII bar charts and persisted as JSON — the numpy-only
environment has no plotting stack, and the series are what reproduction
verifies (who wins, and how each hyperparameter bends the curve).

Like the tables, each figure is declared once by a private ``_figureN``
that returns its grid of independent runs
(:class:`repro.experiments.runner.RunSpec`) and the assembly of their
results; ``python -m repro.experiments`` assembles the figure from the
union of every requested artifact's runs (:data:`FIGURES` names the
declarations).  Figure 4 keeps a public generator,
:func:`figure4_sensitivity`, which runs its own grid (``jobs > 1`` executes
on a process pool with bit-identical results) over any backbones, so it
adds the LBEBM panels that the command leaves out.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.core.config import AdapTrajConfig
from repro.experiments.harness import RunResult
from repro.experiments.reporting import save_json
from repro.experiments.runner import Declaration, RunSpec, run_declared
from repro.experiments.scales import ExperimentScale, get_scale

__all__ = [
    "FIGURES",
    "FigureResult",
    "ascii_bar_chart",
    "figure4_sensitivity",
]


@dataclass
class FigureResult:
    """One figure's data: named series of (x, ADE, FDE) points."""

    name: str
    title: str
    series: dict[str, list[tuple[str, float, float]]]
    runs: list[RunResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        blocks = [self.title, "=" * len(self.title)]
        for label, points in self.series.items():
            blocks.append(f"\n[{label}] (ADE)")
            blocks.append(
                ascii_bar_chart([(str(x), ade) for x, ade, _ in points])
            )
        return "\n".join(blocks)

    def save(self, directory: str = "results") -> str:
        save_json(
            f"{directory}/{self.name}.json",
            {"title": self.title, "series": self.series, "meta": self.meta},
        )
        import os

        os.makedirs(directory, exist_ok=True)
        with open(f"{directory}/{self.name}.txt", "w") as handle:
            handle.write(self.text + "\n")
        return self.text


def ascii_bar_chart(points: list[tuple[str, float]], width: int = 40) -> str:
    """Horizontal bar chart for (label, value) points."""
    if not points:
        return "(no data)"
    peak = max(value for _, value in points) or 1.0
    label_width = max(len(label) for label, _ in points)
    lines = []
    for label, value in points:
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"  {label.ljust(label_width)} | {bar} {value:.3f}")
    return "\n".join(lines)


def _scale(scale: ExperimentScale | str) -> ExperimentScale:
    return get_scale(scale) if isinstance(scale, str) else scale


# ----------------------------------------------------------------------
# Figure 3 — AdapTraj on various numbers of source domains
# ----------------------------------------------------------------------
def _figure3(
    scale: ExperimentScale | str,
    seed: int,
    backbones: tuple[str, ...] = ("lbebm", "pecnet"),
) -> Declaration:
    scale = _scale(scale)
    source_sets = [
        ("SDD", ("sdd",)),
        ("ETH-UCY", ("eth_ucy",)),
        ("ETH-UCY,L-CAS", ("eth_ucy", "lcas")),
        ("ETH-UCY,L-CAS,SYI", ("eth_ucy", "lcas", "syi")),
    ]
    grid = [
        RunSpec(backbone, "adaptraj", sources, "sdd", scale=scale, seed=seed)
        for backbone in backbones
        for _, sources in source_sets
    ]

    def assemble(runs: list[RunResult], meta: dict) -> FigureResult:
        results = iter(runs)
        series: dict[str, list[tuple[str, float, float]]] = {}
        for backbone in backbones:
            points = []
            for set_label, _ in source_sets:
                result = next(results)
                points.append((set_label, result.ade, result.fde))
            series[f"{backbone.upper()}-AdapTraj"] = points
        return FigureResult(
            name="figure3_source_domains",
            title="Figure 3: AdapTraj ADE on SDD vs source-domain set",
            series=series,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


# ----------------------------------------------------------------------
# Figure 4 — hyperparameter sensitivity
# ----------------------------------------------------------------------
#: Swept values per Alg. 1 hyperparameter.  The paper sweeps delta over
#: 0..300 on its loss scale; our SIMSE/CE magnitudes differ, so the sweep is
#: logarithmic around the default.
SWEEPS: dict[str, list[float]] = {
    "delta": [0.0, 1.0, 10.0],
    "start_fraction": [0.3, 0.5, 0.7],
    "end_fraction": [0.6, 0.8, 1.0],
    "sigma": [0.1, 0.5, 0.9],
    "f_low": [0.01, 0.1, 0.5],
    "f_high": [0.2, 0.5, 1.0],
}


def _sweep_config(base_config: AdapTrajConfig, parameter: str, value: float) -> AdapTrajConfig:
    """One swept configuration, keeping the phase boundaries well-ordered."""
    if parameter == "end_fraction":
        return replace(
            base_config,
            end_fraction=value,
            start_fraction=min(base_config.start_fraction, value),
        )
    if parameter == "start_fraction":
        return replace(
            base_config,
            start_fraction=value,
            end_fraction=max(base_config.end_fraction, value),
        )
    return replace(base_config, **{parameter: value})


def _figure4(
    scale: ExperimentScale | str,
    seed: int,
    backbones: tuple[str, ...] = ("pecnet", "lbebm"),
    parameters: tuple[str, ...] = tuple(SWEEPS),
    sweeps: dict[str, list[float]] | None = None,
) -> Declaration:
    scale = _scale(scale)
    sweeps = sweeps or SWEEPS
    unknown = set(parameters) - set(sweeps)
    if unknown:
        raise ValueError(f"no sweep defined for parameters {sorted(unknown)}")
    sources = ("eth_ucy", "lcas", "syi")
    base_config = AdapTrajConfig()
    grid = [
        RunSpec(
            backbone,
            "adaptraj",
            sources,
            "sdd",
            scale=scale,
            seed=seed,
            adaptraj_config=_sweep_config(base_config, parameter, value),
        )
        for parameter in parameters
        for backbone in backbones
        for value in sweeps[parameter]
    ]

    def assemble(runs: list[RunResult], meta: dict) -> dict[str, FigureResult]:
        results = iter(runs)
        figures: dict[str, FigureResult] = {}
        for parameter in parameters:
            series: dict[str, list[tuple[str, float, float]]] = {}
            panel_runs: list[RunResult] = []
            for backbone in backbones:
                points = []
                for value in sweeps[parameter]:
                    result = next(results)
                    panel_runs.append(result)
                    points.append((f"{value:g}", result.ade, result.fde))
                series[f"{backbone.upper()}-AdapTraj"] = points
            figures[parameter] = FigureResult(
                name=f"figure4_{parameter}",
                title=f"Figure 4: sensitivity of ADE/FDE to {parameter}",
                series=series,
                runs=panel_runs,
                meta=dict(meta),
            )
        return figures

    return grid, assemble


def figure4_sensitivity(
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    backbones: tuple[str, ...] = ("pecnet", "lbebm"),
    parameters: tuple[str, ...] = tuple(SWEEPS),
    sweeps: dict[str, list[float]] | None = None,
    jobs: int | None = 1,
) -> dict[str, FigureResult]:
    """One :class:`FigureResult` per swept hyperparameter (paper Fig. 4a–f).

    The full sweep (all parameters x values x backbones) is submitted as one
    grid, so ``jobs > 1`` parallelizes across the whole figure, not per
    panel.
    """
    return run_declared(_figure4(scale, seed, backbones, parameters, sweeps), jobs)


#: Every figure's declaration at ``(scale, seed)``, by its artifact name in
#: ``python -m repro.experiments``.  Figure 4 there sweeps the PECNet panels
#: only: 18 runs at the tiny scale instead of 36 with LBEBM.
FIGURES: dict[str, Callable[[ExperimentScale | str, int], Declaration]] = {
    "figure3": _figure3,
    "figure4": functools.partial(_figure4, backbones=("pecnet",)),
}
