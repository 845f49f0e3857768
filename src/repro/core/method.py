"""Learning-method abstraction: train/evaluate loops shared by all methods.

The paper compares four *learning methods* applied to the same backbone:
vanilla, Counter, CausalMotion, and AdapTraj.  A :class:`LearningMethod`
wraps a backbone with a training objective and an inference rule; the shared
machinery here (epoch loop, optimizer with named parameter groups, gradient
clipping, best-of-K evaluation, latency measurement) keeps the comparison
fair — methods differ only in ``training_step`` / ``predict_samples`` and,
for AdapTraj, the epoch schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TrainConfig
from repro.data.dataset import Batch, TrajectoryDataset
from repro.metrics.displacement import best_of_ade_fde
from repro.models.base import TrajectoryBackbone
from repro.nn import Adam, Module, Parameter, Tensor, clip_grad_norm, inference_mode
from repro.obs.trace import Span
from repro.utils.seeding import new_rng

__all__ = ["FitResult", "LearningMethod", "StepContext"]


@dataclass(frozen=True)
class StepContext:
    """Per-batch training context attached at batch-creation time.

    AdapTraj's phase-2/3 schedule decides *per batch* whether the batch's
    domain is masked (expert excluded, aggregator routes the features).
    Carrying that decision alongside the batch — instead of mutating trainer
    state at yield time — keeps consumers that prefetch or buffer batches in
    sync with the masks the batches were drawn under.
    """

    masked_domain: int | None = None
    use_aggregator: bool = False


@dataclass
class FitResult:
    """Training-run summary."""

    epoch_losses: list[float] = field(default_factory=list)
    val_history: list[tuple[int, float, float]] = field(default_factory=list)
    train_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class LearningMethod:
    """Base class: a backbone plus a training objective and inference rule."""

    name = "abstract"

    def __init__(
        self,
        backbone: TrajectoryBackbone,
        config: TrainConfig | None = None,
    ) -> None:
        self.backbone = backbone
        self.config = config or TrainConfig()
        self.rng = new_rng(self.config.seed)
        self.optimizer: Adam | None = None

    # ------------------------------------------------------------------
    # Hooks overridden by concrete methods
    # ------------------------------------------------------------------
    def parameter_groups(self) -> dict[str, list[Parameter]]:
        return {"backbone": self.backbone.parameters()}

    def training_step(self, batch: Batch, step: StepContext | None = None) -> Tensor:
        """Return the scalar loss for one batch.

        ``step`` is the :class:`StepContext` yielded alongside the batch by
        :meth:`epoch_batches`; methods without a per-batch schedule ignore it.
        """
        raise NotImplementedError

    def predict_samples(
        self, batch: Batch, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sampled futures ``[K, B, pred_len, 2]`` in the normalized frame."""
        return self.backbone.predict(batch, rng=rng, num_samples=num_samples)

    def module(self) -> Module:
        """Root module owning every parameter of the method.

        Checkpointing and inference-mode switching go through this hook;
        methods that wrap the backbone in a larger model (AdapTraj) override
        it so the extractors/aggregator are covered too.
        """
        return self.backbone

    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-parameter state a checkpoint must carry (e.g. running buffers)."""
        return {}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore what :meth:`extra_state` exported; default is stateless."""

    def export_spec(self) -> dict:
        """JSON-able description sufficient to rebuild this method untrained.

        Consumed by :class:`repro.serve.ModelRegistry`, which stores it in
        the checkpoint metadata and replays it through
        :func:`repro.baselines.build_method` at load time.  Methods with
        constructor hyperparameters override :meth:`export_method_kwargs`
        so round trips do not reset them to defaults.
        """
        return {
            "method": self.name,
            "backbone": self.backbone.export_config(),
            "num_domains": 1,
            "method_kwargs": self.export_method_kwargs(),
        }

    def export_method_kwargs(self) -> dict:
        """Constructor keyword arguments beyond (backbone, train config)."""
        return {}

    def on_epoch_start(self, epoch: int, total_epochs: int) -> None:
        """Per-epoch schedule hook (AdapTraj switches phases here)."""

    def epoch_batches(self, train: TrajectoryDataset, epoch: int):
        """Yield ``(batch, StepContext)`` pairs for one epoch.

        Default: one shuffled pass with an empty context.  Schedules that
        make per-batch decisions (masking, aggregator routing) must attach
        them to the yielded context rather than mutating trainer state, so
        prefetching consumers stay in sync.
        """
        context = StepContext()
        for batch in train.batches(self.config.batch_size, rng=self.rng):
            yield batch, context

    # ------------------------------------------------------------------
    # Shared loops
    # ------------------------------------------------------------------
    def all_parameters(self) -> list[Parameter]:
        return [p for params in self.parameter_groups().values() for p in params]

    def predict(
        self,
        batch: Batch,
        num_samples: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Inference entry point: ``predict_samples`` under full inference mode.

        The whole method module tree (not just the backbone) is switched to
        eval semantics and graph recording is off, so prediction pays neither
        autograd bookkeeping nor stochastic regularization.  This is the path
        the eval loop, the Table VIII benchmark, and ``repro.serve`` share.
        ``num_samples=None`` means ``config.eval_samples``; a count below 1
        raises ``ValueError``.
        """
        if num_samples is None:
            num_samples = self.config.eval_samples
        rng = new_rng(rng if rng is not None else self.config.seed + 1)
        with inference_mode(self.module()):
            return self.predict_samples(batch, num_samples, rng)

    def fit(
        self,
        train: TrajectoryDataset,
        val: TrajectoryDataset | None = None,
        eval_every: int = 0,
    ) -> FitResult:
        """Run the full training schedule on ``train``.

        ``eval_every > 0`` evaluates on ``val`` every that many epochs and
        records ``(epoch, ADE, FDE)`` in the result's ``val_history``.
        """
        if len(train) == 0:
            raise ValueError("training dataset is empty")
        if self.optimizer is None:
            self.optimizer = Adam(self.parameter_groups(), lr=self.config.learning_rate)
        result = FitResult()
        cap = self.config.max_batches_per_epoch
        # Built once: the parameter set is fixed for the whole schedule.
        params = self.all_parameters()
        with Span("fit") as span:
            for epoch in range(self.config.epochs):
                self.on_epoch_start(epoch, self.config.epochs)
                losses = []
                for i, (batch, step) in enumerate(self.epoch_batches(train, epoch)):
                    if cap is not None and i >= cap:
                        break
                    self.optimizer.zero_grad()
                    loss = self.training_step(batch, step)
                    loss.backward()
                    clip_grad_norm(params, self.config.grad_clip)
                    self.optimizer.step()
                    losses.append(loss.item())
                result.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
                if val is not None and eval_every and (epoch + 1) % eval_every == 0:
                    ade, fde = self.evaluate(val)
                    result.val_history.append((epoch, ade, fde))
        result.train_seconds = span.duration_s
        return result

    def evaluate(
        self,
        dataset: TrajectoryDataset,
        num_samples: int | None = None,
        batch_size: int = 64,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[float, float]:
        """Best-of-K ``(ADE, FDE)`` over ``dataset``."""
        if len(dataset) == 0:
            raise ValueError("evaluation dataset is empty")
        if num_samples is None:
            num_samples = self.config.eval_samples
        rng = new_rng(rng if rng is not None else self.config.seed + 1)
        total_ade = total_fde = 0.0
        count = 0
        for batch in dataset.batches(batch_size, shuffle=False):
            samples = self.predict(batch, num_samples, rng)
            ade, fde = best_of_ade_fde(samples, batch.future)
            total_ade += ade * batch.size
            total_fde += fde * batch.size
            count += batch.size
        return total_ade / count, total_fde / count

    def measure_inference_time(
        self,
        dataset: TrajectoryDataset,
        num_batches: int = 5,
        batch_size: int = 32,
        num_samples: int = 1,
    ) -> float:
        """Mean seconds per batch of predictions (paper Table VIII)."""
        rng = new_rng(self.config.seed + 2)
        batches = []
        for batch in dataset.batches(batch_size, shuffle=False):
            batches.append(batch)
            if len(batches) >= num_batches:
                break
        # Warm-up pass so one-time costs are excluded.
        self.predict(batches[0], num_samples, rng)
        start = time.perf_counter()
        for batch in batches:
            self.predict(batch, num_samples, rng)
        return (time.perf_counter() - start) / len(batches)
