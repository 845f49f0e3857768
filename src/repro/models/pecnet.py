"""PECNet-style backbone (Mangalam et al., ECCV 2020; paper Sec. IV-A2).

"It is not the journey but the destination": PECNet first infers the distant
trajectory *endpoint* with a conditional VAE, then conditions the full
trajectory decoder on the sampled endpoint plus a non-local social feature.
This reproduction keeps that structure:

* individual mobility layer — one-shot MLP embedding of the observed window;
* neighbour interaction layer — non-local (attention) social layer;
* endpoint CVAE — ``q(z | h_ei, G)`` at train time, ``z ~ N(0, I)`` at test
  time, endpoint decoder ``(h_ei, z) -> G_hat``;
* future trajectory generator — MLP decoder conditioned on
  ``(h_ei, P_i, G_hat)`` (+ the learning method's context vector).

Losses: endpoint MSE + trajectory MSE (the paper's ``L_base``, Eq. 8) +
KL divergence of the endpoint CVAE.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Batch
from repro.models.base import BackboneEncoding, BackboneOutput, TrajectoryBackbone
from repro.models.decoder import MLPTrajectoryDecoder
from repro.models.embeddings import WindowEmbedding
from repro.nn import MLP, SocialAttention, Tensor, cat
from repro.nn import functional as F
from repro.utils.seeding import new_rng

__all__ = ["PECNet"]


class PECNet(TrajectoryBackbone):
    """Endpoint-conditioned trajectory prediction backbone."""

    def __init__(
        self,
        obs_len: int = 8,
        pred_len: int = 12,
        hidden_size: int = 32,
        interaction_size: int = 32,
        context_size: int = 32,
        latent_dim: int = 8,
        kl_weight: float = 0.05,
        endpoint_weight: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(obs_len, pred_len, hidden_size, interaction_size, context_size)
        rng = new_rng(rng)
        self.latent_dim = latent_dim
        self.kl_weight = kl_weight
        self.endpoint_weight = endpoint_weight

        # Individual mobility layer (Eq. 1: e = MLP(X)).
        self.past_embed = WindowEmbedding(obs_len, hidden_size, rng=rng)
        # Neighbour interaction layer (non-local social attention).
        self.nbr_embed = WindowEmbedding(obs_len, hidden_size, rng=rng)
        self.social = SocialAttention(
            hidden_size, hidden_size, interaction_size, rng=rng
        )
        # Endpoint CVAE.
        self.endpoint_encoder = MLP(
            [hidden_size + 2, 64, 2 * latent_dim], rng=rng
        )
        self.endpoint_decoder = MLP(
            [hidden_size + latent_dim + context_size, 64, 2], rng=rng
        )
        # Future trajectory generator.
        self.traj_decoder = MLPTrajectoryDecoder(
            hidden_size + interaction_size + 2 + context_size, pred_len, rng=rng
        )

    # ------------------------------------------------------------------
    def export_config(self) -> dict:
        config = super().export_config()
        config.update(
            latent_dim=self.latent_dim,
            kl_weight=self.kl_weight,
            endpoint_weight=self.endpoint_weight,
        )
        return config

    def encode(self, batch: Batch) -> BackboneEncoding:
        obs = Tensor(batch.obs)
        neighbours = Tensor(batch.neighbours)
        h_ei = self.past_embed(obs)
        nbr_states = self.nbr_embed(neighbours)
        p_i = self.social(h_ei, nbr_states, batch.neighbour_mask)
        return BackboneEncoding(h_ei=h_ei, p_i=p_i)

    def _decode_with_endpoint(
        self,
        encoding: BackboneEncoding,
        endpoint: Tensor,
        context: Tensor,
    ) -> Tensor:
        conditioning = cat([encoding.h_ei, encoding.p_i, endpoint, context], axis=-1)
        return self.traj_decoder(conditioning)

    def decode(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
        num_samples: int = 1,
    ) -> Tensor:
        encoding, context = self._sample_rows(encoding, context, batch.size, num_samples)
        # One (K * B, latent) block: the K per-sample draws, in order.
        z = Tensor(rng.standard_normal((num_samples * batch.size, self.latent_dim)))
        endpoint = self.endpoint_decoder(cat([encoding.h_ei, z, context], axis=-1))
        return self._decode_with_endpoint(encoding, endpoint, context)

    def compute_loss(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
    ) -> BackboneOutput:
        context = self._context_or_zeros(context, batch.size)
        goal = Tensor(batch.future[:, -1, :])

        # Posterior over the endpoint latent.
        stats = self.endpoint_encoder(cat([encoding.h_ei, goal], axis=-1))
        mu = stats[:, : self.latent_dim]
        logvar = stats[:, self.latent_dim :].clip(-8.0, 8.0)
        z = F.sample_gaussian(mu, logvar, rng)

        endpoint_hat = self.endpoint_decoder(cat([encoding.h_ei, z, context], axis=-1))
        prediction = self._decode_with_endpoint(encoding, endpoint_hat, context)

        traj_loss = F.mse_loss(prediction, Tensor(batch.future))
        endpoint_loss = F.mse_loss(endpoint_hat, goal)
        kl = F.gaussian_kl(mu, logvar)
        aux = self.endpoint_weight * endpoint_loss + self.kl_weight * kl
        return BackboneOutput(
            prediction=prediction,
            traj_loss=traj_loss,
            aux_loss=aux,
            terms={
                "traj": traj_loss.item(),
                "endpoint": endpoint_loss.item(),
                "kl": kl.item(),
            },
        )
