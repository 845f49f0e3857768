"""Vanilla learning method: the backbone trained as originally published.

Minimizes the backbone's own loss (paper Eq. 8 plus each backbone's
model-specific terms) on the merged source data, with no domain-
generalization machinery.  This is the ``vanilla`` row of Tables IV–VI.
"""

from __future__ import annotations

from repro.baselines.base import LearningMethod
from repro.data.dataset import Batch
from repro.nn import Tensor

__all__ = ["VanillaMethod"]


class VanillaMethod(LearningMethod):
    """Train the backbone directly on the (merged) source domains."""

    name = "vanilla"

    def training_step(self, batch: Batch, step=None) -> Tensor:
        encoding = self.backbone.encode(batch)
        output = self.backbone.compute_loss(encoding, batch, None, self.rng)
        return output.loss
