"""AdapTraj training procedure (paper Alg. 1).

Three phases over ``e_total`` epochs:

1. ``[0, e_start)`` — jointly train the backbone, domain-invariant extractor
   and domain-specific extractor with ``L_total = L_base + delta * L_ours``
   (Eq. 23).  The aggregator is frozen; specific features come from each
   sample's own domain expert.
2. ``[e_start, e_end)`` — train the domain-specific aggregator: batches are
   drawn per source domain; with probability ``sigma`` the batch's domain
   label is masked (its expert excluded, aggregator routes the features).
   The aggregator trains at ``lr * f_high``, everything else at
   ``lr * f_low``, the specific extractor is frozen, and the loss uses the
   reduced weight ``delta'`` (Eq. 25).
3. ``[e_end, e_total)`` — fine-tune the entire method at ``lr * f_low`` with
   the same masking scheme.
"""

from __future__ import annotations

import numpy as np

from repro.core.method import LearningMethod, StepContext
from repro.core.adaptraj import AdapTrajModel
from repro.core.config import TrainConfig
from repro.data.dataset import Batch, TrajectoryDataset
from repro.nn import Parameter, Tensor

__all__ = ["AdapTrajMethod"]


class AdapTrajMethod(LearningMethod):
    """Learning method wrapping :class:`AdapTrajModel` with the Alg. 1 schedule."""

    name = "adaptraj"

    def __init__(
        self,
        model: AdapTrajModel,
        config: TrainConfig | None = None,
    ) -> None:
        super().__init__(model.backbone, config)
        self.model = model
        self._phase = 1
        self._delta = model.config.delta

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    def parameter_groups(self) -> dict[str, list[Parameter]]:
        return self.model.parameter_groups()

    def current_phase(self, epoch: int, total_epochs: int) -> int:
        e_start, e_end = self.model.config.phase_boundaries(total_epochs)
        if epoch < e_start:
            return 1
        if epoch < e_end:
            return 2
        return 3

    def on_epoch_start(self, epoch: int, total_epochs: int) -> None:
        cfg = self.model.config
        phase = self.current_phase(epoch, total_epochs)
        self._phase = phase
        if self.optimizer is None:
            return
        opt = self.optimizer
        if phase == 1:
            for name in ("backbone", "invariant", "specific"):
                opt.set_lr_scale(name, 1.0)
                opt.set_frozen(name, False)
            opt.set_frozen("aggregator", True)
            self._delta = cfg.delta
        elif phase == 2:
            for name in ("backbone", "invariant"):
                opt.set_lr_scale(name, cfg.f_low)
                opt.set_frozen(name, False)
            # "the layers associated with the domain-specific extractor
            # should be frozen" (Sec. III-D).
            opt.set_frozen("specific", True)
            opt.set_frozen("aggregator", False)
            opt.set_lr_scale("aggregator", cfg.f_high)
            self._delta = cfg.delta_prime
        else:
            for name in ("backbone", "invariant", "specific", "aggregator"):
                opt.set_lr_scale(name, cfg.f_low)
                opt.set_frozen(name, False)
            self._delta = cfg.delta_prime

    def epoch_batches(self, train: TrajectoryDataset, epoch: int):
        """Phase 1: mixed-domain batches.  Phases 2-3: per-domain batches
        (Alg. 1 lines 8/20 iterate over source domains), each masked with
        probability ``sigma``.

        The masking decision is attached to the yielded :class:`StepContext`
        rather than stored on the trainer, so consumers that prefetch or
        buffer batches train each batch with the mask it was drawn under.
        """
        if self._phase == 1:
            context = StepContext()
            for batch in train.batches(self.config.batch_size, rng=self.rng):
                yield batch, context
            return

        sigma = self.model.config.sigma
        present = [d for d, c in train.domain_counts().items() if c > 0]
        per_domain = {d: train.by_domain(d) for d in present}
        iterators = {
            d: per_domain[d].batches(self.config.batch_size, rng=self.rng)
            for d in present
        }
        active = dict(iterators)
        while active:
            for domain in list(active):
                batch = next(active[domain], None)
                if batch is None:
                    del active[domain]
                    continue
                if self.rng.random() < sigma:
                    # Masked domain trajectory data: D^k_S -> D^?_S.
                    context = StepContext(
                        masked_domain=train.domain_id(domain),
                        use_aggregator=True,
                    )
                else:
                    context = StepContext()
                yield batch, context

    def training_step(self, batch: Batch, step: StepContext | None = None) -> Tensor:
        step = step or StepContext()
        terms = self.model.training_forward(
            batch,
            self.rng,
            delta=self._delta,
            masked_domain=step.masked_domain,
            use_aggregator=step.use_aggregator,
        )
        return terms.total

    # ------------------------------------------------------------------
    # Inference / export
    # ------------------------------------------------------------------
    def predict_samples(
        self, batch: Batch, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self.model.predict(batch, num_samples=num_samples, rng=rng)

    def module(self):
        """The full AdapTraj model (backbone + extractors + aggregator)."""
        return self.model

    def export_spec(self) -> dict:
        from dataclasses import asdict

        spec = super().export_spec()
        spec.update(
            num_domains=self.model.num_domains,
            variant=self.model.variant,
            adaptraj=asdict(self.model.config),
        )
        return spec
