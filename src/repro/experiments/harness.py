"""Experiment harness: one function = one (backbone, method, sources, target) run.

``run_experiment`` builds the datasets, trains the learning method, and
evaluates ADE/FDE on the unseen target domain — the atomic unit every table
and figure of the paper is assembled from.  Dataset generation is cached by
the data registry, so sweeping methods over the same domains is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import build_method
from repro.core.config import AdapTrajConfig
from repro.data.registry import load_domain_dataset, load_multi_domain
from repro.experiments.scales import ExperimentScale, get_scale

__all__ = ["RunResult", "run_experiment"]


@dataclass
class RunResult:
    """Outcome of a single training+evaluation run."""

    backbone: str
    method: str
    sources: tuple[str, ...]
    target: str
    ade: float
    fde: float
    train_seconds: float
    inference_seconds: float | None = None
    epoch_losses: list[float] = field(default_factory=list)

    def label(self) -> str:
        return f"{self.backbone}-{self.method}"

    def signature(self) -> tuple:
        """The deterministic payload of the run.

        Everything except the wall-clock fields (``train_seconds``,
        ``inference_seconds``), which legitimately differ between otherwise
        identical runs — serial-vs-parallel equality is asserted on this.
        """
        return (
            self.backbone,
            self.method,
            self.sources,
            self.target,
            self.ade,
            self.fde,
            tuple(self.epoch_losses),
        )


def run_experiment(
    backbone: str,
    method: str,
    sources: list[str],
    target: str,
    scale: ExperimentScale | str = "tiny",
    seed: int = 0,
    variant: str = "full",
    adaptraj_config: AdapTrajConfig | None = None,
    measure_inference: bool = False,
) -> RunResult:
    """Train ``method`` on ``sources`` and evaluate on ``target``'s test split.

    The domain-id universe is ``sources + [target]`` (deduplicated, ordered),
    so per-domain experts index exactly the source domains; the in-domain
    setting (``target in sources``) is supported for the i.i.d. rows of
    Table VI.
    """
    if not sources:
        raise ValueError("need at least one source domain")
    if isinstance(scale, str):
        scale = get_scale(scale)
    scale = scale.with_seed(seed)

    domains_list = list(dict.fromkeys([*sources, target]))
    train_splits = load_multi_domain(sources, scale.data, domains=domains_list)
    target_splits = load_domain_dataset(target, scale.data, domains=domains_list)

    learner = build_method(
        method,
        backbone,
        num_domains=len(sources),
        train_config=scale.train,
        adaptraj_config=adaptraj_config,
        variant=variant,
        rng=1000 + seed,
    )
    fit = learner.fit(train_splits.train)
    ade, fde = learner.evaluate(target_splits.test)

    inference_seconds = None
    if measure_inference:
        per_batch = learner.measure_inference_time(target_splits.test, num_batches=3)
        inference_seconds = per_batch

    return RunResult(
        backbone=backbone,
        method=method,
        sources=tuple(sources),
        target=target,
        ade=ade,
        fde=fde,
        train_seconds=fit.train_seconds,
        inference_seconds=inference_seconds,
        epoch_losses=fit.epoch_losses,
    )
