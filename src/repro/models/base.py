"""Backbone abstraction for multi-agent trajectory prediction (paper Fig. 1).

Every backbone decomposes into the three components of paper Sec. II-C:

1. **individual mobility layer** — embeds the focal agent's observed window
   into a hidden state ``h_ei`` (Eq. 1–2);
2. **neighbour interaction layer** — aggregates neighbour states into an
   interaction tensor ``P_i`` (Eq. 3);
3. **future trajectory generator** — decodes ``(h_ei, P_i, noise)`` into a
   future trajectory (Eq. 4–7).

AdapTraj plugs in between (2) and (3): it consumes ``h_ei`` and ``P_i`` to
produce a *context vector* (the fused invariant+specific features ``H^i`` and
``H^s``) which the generator additionally conditions on.  The
:class:`TrajectoryBackbone` interface therefore threads an optional
``context`` tensor through decoding; learning methods that do not use it
(vanilla, Counter, CausalMotion) pass ``None`` and the backbone substitutes
zeros, keeping the architecture — and thus the comparison — identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Batch
from repro.nn import Module, Tensor, inference_mode

__all__ = ["BackboneEncoding", "BackboneOutput", "TrajectoryBackbone"]


@dataclass
class BackboneEncoding:
    """Intermediate representations exposed to the AdapTraj framework."""

    h_ei: Tensor  # [B, hidden_size] individual mobility state
    p_i: Tensor  # [B, interaction_size] neighbour interaction tensor


@dataclass
class BackboneOutput:
    """Training-time forward result.

    ``loss = traj_loss + aux_loss``: the trajectory-matching part (the
    paper's ``L_base``, Eq. 8) is kept separate from model-specific
    auxiliary terms (VAE KL, endpoint loss, EBM shaping) because the Counter
    baseline replaces the former with a counterfactually-subtracted variant
    while keeping the latter.
    """

    prediction: Tensor  # [B, pred_len, 2]
    traj_loss: Tensor  # scalar: trajectory-matching loss (Eq. 8)
    aux_loss: Tensor  # scalar: model-specific auxiliary terms
    terms: dict[str, float] = field(default_factory=dict)  # logged sub-losses

    @property
    def loss(self) -> Tensor:
        return self.traj_loss + self.aux_loss


class TrajectoryBackbone(Module):
    """Interface implemented by PECNet and LBEBM.

    Parameters
    ----------
    obs_len, pred_len : window lengths (paper: 8 / 12).
    hidden_size : width of ``h_ei``.
    interaction_size : width of ``P_i``.
    context_size : width of the optional conditioning vector supplied by a
        learning method (AdapTraj passes ``[H^i, H^s]``); zeros when absent.
    """

    def __init__(
        self,
        obs_len: int,
        pred_len: int,
        hidden_size: int,
        interaction_size: int,
        context_size: int,
    ) -> None:
        super().__init__()
        self.obs_len = obs_len
        self.pred_len = pred_len
        self.hidden_size = hidden_size
        self.interaction_size = interaction_size
        self.context_size = context_size

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def encode(self, batch: Batch) -> BackboneEncoding:
        """Run the individual-mobility and neighbour-interaction layers."""
        raise NotImplementedError

    def decode(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
        num_samples: int = 1,
    ) -> Tensor:
        """Generate ``num_samples`` futures in one pass, ``[K * B, pred_len, 2]``.

        Rows are sample-major: row ``k * B + b`` is sample ``k`` of agent
        ``b``.  The noise is drawn as one block that leaves ``rng`` exactly
        where ``num_samples`` sequential single-sample decodes leave it.
        """
        raise NotImplementedError

    def compute_loss(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
    ) -> BackboneOutput:
        """Training forward pass: prediction + backbone loss (Eq. 8 & extras)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def export_config(self) -> dict:
        """Constructor arguments needed to rebuild this backbone.

        Subclasses extend the dict with their model-specific hyperparameters;
        ``name`` must match a key of :func:`repro.models.build_backbone`.
        The serving registry stores this in the checkpoint metadata so a
        checkpoint is loadable without out-of-band configuration.
        """
        return {
            "name": type(self).__name__.lower(),
            "obs_len": self.obs_len,
            "pred_len": self.pred_len,
            "hidden_size": self.hidden_size,
            "interaction_size": self.interaction_size,
            "context_size": self.context_size,
        }

    def _context_or_zeros(self, context: Tensor | None, batch_size: int) -> Tensor:
        if context is None:
            return Tensor(np.zeros((batch_size, self.context_size)))
        if context.shape != (batch_size, self.context_size):
            raise ValueError(
                f"context must be [{batch_size}, {self.context_size}], got {context.shape}"
            )
        return context

    def _sample_rows(
        self,
        encoding: BackboneEncoding,
        context: Tensor | None,
        batch_size: int,
        num_samples: int,
    ) -> tuple[BackboneEncoding, Tensor]:
        """``encoding`` and the context tiled to ``num_samples * B`` rows.

        Sample-major: row ``k * B + b`` repeats row ``b``.  The tiling is
        built from traced Tensor ops, so a compile capture records it.
        """
        context = self._context_or_zeros(context, batch_size)
        if num_samples == 1:
            return encoding, context

        def tile(tensor: Tensor) -> Tensor:
            tiled = tensor.unsqueeze(0).broadcast_to((num_samples, *tensor.shape))
            return tiled.reshape(num_samples * batch_size, *tensor.shape[1:])

        return BackboneEncoding(tile(encoding.h_ei), tile(encoding.p_i)), tile(context)

    def predict(
        self,
        batch: Batch,
        context_fn=None,
        rng: np.random.Generator | None = None,
        num_samples: int = 1,
    ) -> np.ndarray:
        """Inference: draw ``num_samples`` futures, shape ``[K, B, pred_len, 2]``.

        ``context_fn`` maps a :class:`BackboneEncoding` to a context tensor
        (AdapTraj supplies its extractor/aggregator pipeline here); ``None``
        means no conditioning.  All ``K`` futures come from one decode over
        ``K * B`` rows.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if rng is None:
            rng = np.random.default_rng(0)
        with inference_mode(self):
            encoding = self.encode(batch)
            context = context_fn(encoding) if context_fn is not None else None
            samples = self.decode(encoding, batch, context, rng, num_samples)
            # Reshaped through the Tensor op so the output array is itself a
            # traced node — the compile tape needs the final buffer to be
            # produced by a recorded op.
            samples = samples.reshape(num_samples, batch.size, *samples.shape[1:])
        return samples.data
