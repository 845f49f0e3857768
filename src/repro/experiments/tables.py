"""Generators for every table of the paper's evaluation (Tables I–VIII).

Each table is *declared* once, by a private ``_tableN(scale, seed, ...)``
that returns its grid of independent runs (a list of
:class:`repro.experiments.runner.RunSpec`) and the assembly of that grid's
results into a :class:`TableResult` holding the rendered ASCII table plus
the raw numbers.  The public ``tableN_*`` function runs its own grid
(serial by default, process-parallel with ``jobs > 1`` — results are
bit-identical either way) and assembles it; ``python -m repro.experiments``
runs the union of several tables' grids once and assembles each from the
shared results (:data:`TABLES` names the declarations).

Domain-name mapping between the paper and the synthetic domains:
``ETH&UCY -> eth_ucy``, ``L-CAS -> lcas``, ``SYI -> syi``, ``SDD -> sdd``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.experiments.harness import RunResult
from repro.experiments.reporting import format_table, save_json, save_table
from repro.experiments.runner import Declaration, RunSpec, run_declared
from repro.experiments.scales import ExperimentScale, get_scale
from repro.metrics.statistics import compute_statistics
from repro.sim.domains import DOMAIN_NAMES
from repro.sim.generator import generate_scenes

__all__ = [
    "TABLES",
    "TableResult",
    "table1_dataset_statistics",
    "table2_domain_shift",
    "table3_negative_transfer",
    "table4_main_comparison",
    "table5_single_source",
    "table6_source_count",
    "table7_ablation",
    "table8_inference_time",
]

#: Default leave-one-out source sets: target -> sources (paper Sec. IV-A1).
BACKBONES = ("pecnet", "lbebm")
METHODS = ("vanilla", "counter", "causal_motion", "adaptraj")


@dataclass
class TableResult:
    """Rendered table plus raw run results."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    runs: list[RunResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def save(self, directory: str = "results") -> str:
        save_table(f"{directory}/{self.name}.txt", self.headers, self.rows, self.title)
        save_json(
            f"{directory}/{self.name}.json",
            {
                "headers": self.headers,
                "rows": self.rows,
                "meta": self.meta,
                "runs": [vars(r) for r in self.runs],
            },
        )
        return self.text


def _scale(scale: ExperimentScale | str) -> ExperimentScale:
    return get_scale(scale) if isinstance(scale, str) else scale


def _fmt(ade: float, fde: float) -> str:
    return f"{ade:.3f}/{fde:.3f}"


def _sources_for(target: str) -> list[str]:
    return [d for d in DOMAIN_NAMES if d != target]


def _method_rows(
    backbones: tuple[str, ...],
    methods: tuple[str, ...],
    columns: list[str] | tuple[str, ...],
    runs: list[RunResult],
) -> list[list[object]]:
    """One row per (backbone, method): an ADE/FDE cell per column, then their average."""
    results = iter(runs)
    rows = []
    for backbone in backbones:
        for method in methods:
            cells = [next(results) for _ in columns]
            ade = sum(result.ade for result in cells) / len(cells)
            fde = sum(result.fde for result in cells) / len(cells)
            rows.append(
                [backbone, method, *(_fmt(r.ade, r.fde) for r in cells), _fmt(ade, fde)]
            )
    return rows


# ----------------------------------------------------------------------
# Table I — dataset statistics
# ----------------------------------------------------------------------
def _table1(scale: ExperimentScale | str, seed: int) -> Declaration:
    scale = _scale(scale).with_seed(seed)
    headers = [
        "Datasets",
        "# sequences",
        "Avg/Std num",
        "Avg/Std v(x)",
        "Avg/Std v(y)",
        "Avg/Std a(x)",
        "Avg/Std a(y)",
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        rows = []
        for i, domain in enumerate(DOMAIN_NAMES):
            scenes = generate_scenes(
                domain,
                num_scenes=scale.data.num_scenes,
                frames_per_scene=scale.data.frames_per_scene,
                rng=scale.data.seed + i,
            )
            stats = compute_statistics(scenes).as_row()
            rows.append([stats[h] if h in stats else stats["domain"] for h in headers[1:]])
            rows[-1].insert(0, domain)
        return TableResult(
            name="table1_statistics",
            title="Table I: statistics of the four synthetic domains",
            headers=headers,
            rows=rows,
            meta=meta,
        )

    return [], assemble


def table1_dataset_statistics(
    scale: ExperimentScale | str = "tiny", seed: int = 0
) -> TableResult:
    """Statistical analysis of the four (synthetic) datasets (paper Table I)."""
    _, assemble = _table1(scale, seed)
    return assemble([], {})


# ----------------------------------------------------------------------
# Table II — cross-domain performance decline
# ----------------------------------------------------------------------
def _table2(scale: ExperimentScale | str, seed: int) -> Declaration:
    scale = _scale(scale)
    columns = [
        ("lbebm", "vanilla", "LBEBM"),
        ("pecnet", "vanilla", "PECNet"),
        ("pecnet", "counter", "Counter"),
        ("pecnet", "causal_motion", "CausalMotion"),
    ]
    sources = ("sdd", "eth_ucy")
    grid = [
        RunSpec(backbone, method, (source,), "sdd", scale=scale, seed=seed)
        for source in sources
        for backbone, method, _ in columns
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        results = iter(runs)
        rows = []
        for source in sources:
            row: list[object] = [source]
            for _ in columns:
                result = next(results)
                row.append(_fmt(result.ade, result.fde))
            rows.append(row)
        return TableResult(
            name="table2_domain_shift",
            title="Table II: ADE/FDE on SDD when trained on the same vs a different domain",
            headers=["Source Domain", *[label for *_, label in columns]],
            rows=rows,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table2_domain_shift(
    scale: ExperimentScale | str = "tiny", seed: int = 0, jobs: int | None = 1
) -> TableResult:
    """Existing methods trained on SDD vs ETH&UCY, tested on SDD (paper Table II)."""
    return run_declared(_table2(scale, seed), jobs)


# ----------------------------------------------------------------------
# Table III — negative transfer
# ----------------------------------------------------------------------
def _table3(scale: ExperimentScale | str, seed: int) -> Declaration:
    scale = _scale(scale)
    source_sets = [
        ("eth_ucy",),
        ("eth_ucy", "lcas"),
        ("eth_ucy", "lcas", "syi"),
    ]
    methods = ("counter", "causal_motion")
    grid = [
        RunSpec("pecnet", method, sources, "sdd", scale=scale, seed=seed)
        for sources in source_sets
        for method in methods
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        results = iter(runs)
        rows = []
        for sources in source_sets:
            row: list[object] = [", ".join(sources)]
            for _ in methods:
                result = next(results)
                row.append(_fmt(result.ade, result.fde))
            rows.append(row)
        return TableResult(
            name="table3_negative_transfer",
            title="Table III: single-source DG methods degrade as source domains are added",
            headers=["Source Domains", "Counter", "CausalMotion"],
            rows=rows,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table3_negative_transfer(
    scale: ExperimentScale | str = "tiny", seed: int = 0, jobs: int | None = 1
) -> TableResult:
    """Single-source DG methods on growing source sets, tested on SDD (Table III)."""
    return run_declared(_table3(scale, seed), jobs)


# ----------------------------------------------------------------------
# Table IV — main multi-source comparison
# ----------------------------------------------------------------------
def _table4(
    scale: ExperimentScale | str,
    seed: int,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
    targets: tuple[str, ...] = DOMAIN_NAMES,
) -> Declaration:
    scale = _scale(scale)
    grid = [
        RunSpec(
            backbone,
            method,
            tuple(_sources_for(target)),
            target,
            scale=scale,
            seed=seed,
        )
        for backbone in backbones
        for method in methods
        for target in targets
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        return TableResult(
            name="table4_main_comparison",
            title="Table IV: multi-source domain generalization (ADE/FDE per target domain)",
            headers=["Backbone", "Method", *targets, "Average"],
            rows=_method_rows(backbones, methods, targets, runs),
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table4_main_comparison(
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
    targets: tuple[str, ...] = DOMAIN_NAMES,
    jobs: int | None = 1,
) -> TableResult:
    """Leave-one-domain-out comparison of all methods (paper Table IV)."""
    return run_declared(_table4(scale, seed, backbones, methods, targets), jobs)


# ----------------------------------------------------------------------
# Table V — single-source domain generalization
# ----------------------------------------------------------------------
def _table5(
    scale: ExperimentScale | str,
    seed: int,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
) -> Declaration:
    scale = _scale(scale)
    sources = [d for d in DOMAIN_NAMES if d != "sdd"]
    grid = [
        RunSpec(backbone, method, (source,), "sdd", scale=scale, seed=seed)
        for backbone in backbones
        for method in methods
        for source in sources
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        return TableResult(
            name="table5_single_source",
            title="Table V: single-source domain generalization onto SDD (ADE/FDE)",
            headers=["Backbone", "Method", *sources, "Average"],
            rows=_method_rows(backbones, methods, sources, runs),
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table5_single_source(
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
    jobs: int | None = 1,
) -> TableResult:
    """Each dataset as the single source, evaluated on SDD (paper Table V)."""
    return run_declared(_table5(scale, seed, backbones, methods), jobs)


# ----------------------------------------------------------------------
# Table VI — number of source domains (PECNet)
# ----------------------------------------------------------------------
def _table6(scale: ExperimentScale | str, seed: int) -> Declaration:
    scale = _scale(scale)
    source_sets = [("sdd",), ("eth_ucy",), ("eth_ucy", "lcas")]
    variants = (("vanilla", "PECNet"), ("adaptraj", "PECNet-AdapTraj"))
    grid = [
        RunSpec("pecnet", method, sources, "sdd", scale=scale, seed=seed)
        for method, _ in variants
        for sources in source_sets
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        results = iter(runs)
        rows = []
        for _, label in variants:
            for sources in source_sets:
                result = next(results)
                rows.append(
                    [label, ", ".join(sources), f"{result.ade:.3f}", f"{result.fde:.3f}"]
                )
        return TableResult(
            name="table6_source_count",
            title="Table VI: performance on various numbers of source domains (target SDD)",
            headers=["Method", "Source Domains", "ADE", "FDE"],
            rows=rows,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table6_source_count(
    scale: ExperimentScale | str = "tiny", seed: int = 0, jobs: int | None = 1
) -> TableResult:
    """PECNet vs PECNet-AdapTraj across source-domain counts (paper Table VI)."""
    return run_declared(_table6(scale, seed), jobs)


# ----------------------------------------------------------------------
# Table VII — ablation study
# ----------------------------------------------------------------------
def _table7(
    scale: ExperimentScale | str, seed: int, backbones: tuple[str, ...] = BACKBONES
) -> Declaration:
    scale = _scale(scale)
    variants = [("no_specific", "w/o specific"), ("no_invariant", "w/o invariant"), ("full", "ours")]
    grid = [
        RunSpec(
            backbone,
            "adaptraj",
            tuple(_sources_for("sdd")),
            "sdd",
            scale=scale,
            seed=seed,
            variant=variant,
        )
        for backbone in backbones
        for variant, _ in variants
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        results = iter(runs)
        rows = []
        for backbone in backbones:
            for _, label in variants:
                result = next(results)
                rows.append([backbone, label, f"{result.ade:.3f}", f"{result.fde:.3f}"])
        return TableResult(
            name="table7_ablation",
            title="Table VII: ablation with target SDD, sources ETH&UCY + L-CAS + SYI",
            headers=["Backbone", "Variant", "ADE", "FDE"],
            rows=rows,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table7_ablation(
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    backbones: tuple[str, ...] = BACKBONES,
    jobs: int | None = 1,
) -> TableResult:
    """AdapTraj variants w/o specific and w/o invariant features (paper Table VII)."""
    return run_declared(_table7(scale, seed, backbones), jobs)


# ----------------------------------------------------------------------
# Table VIII — inference time
# ----------------------------------------------------------------------
def _table8(
    scale: ExperimentScale | str,
    seed: int,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
) -> Declaration:
    scale = _scale(scale)
    grid = [
        RunSpec(
            backbone,
            method,
            tuple(_sources_for("sdd")),
            "sdd",
            scale=scale,
            seed=seed,
            measure_inference=True,
        )
        for backbone in backbones
        for method in methods
    ]

    def assemble(runs: list[RunResult], meta: dict) -> TableResult:
        results = iter(runs)
        rows = []
        for backbone in backbones:
            for method in methods:
                result = next(results)
                rows.append([backbone, method, f"{result.inference_seconds:.4f}"])
        return TableResult(
            name="table8_inference_time",
            title="Table VIII: average inference time (seconds per batch, target SDD)",
            headers=["Backbone", "Method", "Inference time (s)"],
            rows=rows,
            runs=runs,
            meta=meta,
        )

    return grid, assemble


def table8_inference_time(
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    backbones: tuple[str, ...] = BACKBONES,
    methods: tuple[str, ...] = METHODS,
    jobs: int | None = 1,
) -> TableResult:
    """Average per-batch inference time per method (paper Table VIII).

    Note: the *measurements* here are wall-clock and therefore not part of
    the serial-vs-parallel determinism contract; running this table with
    ``jobs > 1`` shares cores between concurrently-timed runs, so keep
    ``jobs=1`` when the absolute latencies matter.  ``python -m
    repro.experiments`` always runs these specs serially.
    """
    return run_declared(_table8(scale, seed, backbones, methods), jobs)


#: Every table's declaration at ``(scale, seed)``, by its artifact name in
#: ``python -m repro.experiments``.
TABLES: dict[str, Callable[[ExperimentScale | str, int], Declaration]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
}
