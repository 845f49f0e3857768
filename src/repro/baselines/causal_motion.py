"""CausalMotion baseline (Liu et al., CVPR 2022): invariance-penalty learning.

CausalMotion suppresses spurious correlations with an invariance loss that
penalizes risk variation within its training distribution.  Crucially, it is
a *single-source* method: following the paper's protocol (Sec. IV-A2), all
source domains are merged and treated as one domain, so the method cannot
use true domain labels.  The invariance loss is implemented as a V-REx-style
variance-of-risks penalty at the finest available granularity (per sample).

On merged multi-source data the risk differences the penalty suppresses are
exactly the legitimate differences between domains; the model is pushed to
equalize fit across heterogeneous motion regimes instead of modelling each,
which reproduces the degradation — growing with the number of source
domains — reported in the AdapTraj paper's Tables III–V.
"""

from __future__ import annotations

from repro.baselines.base import LearningMethod
from repro.core.config import TrainConfig
from repro.data.dataset import Batch
from repro.models.base import TrajectoryBackbone
from repro.nn import Tensor

__all__ = ["CausalMotionMethod"]


class CausalMotionMethod(LearningMethod):
    """Backbone loss + V-REx invariance penalty over pseudo-environments."""

    name = "causal_motion"

    def __init__(
        self,
        backbone: TrajectoryBackbone,
        config: TrainConfig | None = None,
        invariance_weight: float = 5.0,
    ) -> None:
        super().__init__(backbone, config)
        if invariance_weight < 0:
            raise ValueError(f"invariance_weight must be >= 0, got {invariance_weight}")
        self.invariance_weight = invariance_weight

    def export_method_kwargs(self) -> dict:
        return {"invariance_weight": self.invariance_weight}

    def _sample_risks(self, prediction: Tensor, batch: Batch) -> Tensor:
        """Per-sample trajectory risks, shape ``[batch]``."""
        diff = prediction - Tensor(batch.future)
        return (diff * diff).mean(axis=(1, 2))

    def training_step(self, batch: Batch, step=None) -> Tensor:
        encoding = self.backbone.encode(batch)
        output = self.backbone.compute_loss(encoding, batch, None, self.rng)
        # Invariance penalty: drive all samples of the (merged) source toward
        # equal risk.  CausalMotion treats its training set as one homogeneous
        # domain; on a merged multi-source set this suppresses the legitimate
        # risk diversity between domains, and the distortion grows with the
        # number of sources (the paper's negative-transfer observation).
        risks = self._sample_risks(output.prediction, batch)
        centered = risks - risks.mean()
        variance = (centered * centered).mean()
        return output.loss + self.invariance_weight * variance
