"""LBEBM-style backbone (Pang et al., CVPR 2021; paper Sec. IV-A2).

Latent Belief Energy-Based Model: a latent "plan" vector with an energy-
based prior learned in the latent space.  Training shapes the energy so
posterior samples (inferred from the observed+future trajectory) have low
energy while short-run Langevin samples from the model have high energy
(contrastive divergence); inference draws the plan by Langevin dynamics and
rolls out a recurrent decoder.  Both are sequential loops over small numpy
kernels — 15 Langevin steps, each a forward and a closed-form gradient walk
through the energy MLP, then one LSTM-cell step and head MLP per predicted
frame — where PECNet's decoder is a single MLP call.  That serial work
makes LBEBM noticeably slower than PECNet at inference, which reproduces
the latency gap the paper reports in Table VIII.

Structure mapped to the paper's backbone abstraction (Sec. II-C):

* individual mobility layer — per-step MLP embedding + LSTM encoder (Eq. 1–2);
* neighbour interaction layer — masked social pooling (Eq. 3);
* future trajectory generator — LSTM-cell rollout conditioned on
  ``(h_ei, P_i, z)`` (+ the learning method's context vector) (Eq. 4–7).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Batch
from repro.models.base import BackboneEncoding, BackboneOutput, TrajectoryBackbone
from repro.models.decoder import RecurrentTrajectoryDecoder
from repro.models.embeddings import StepEmbedding, WindowEmbedding
from repro.nn import LSTM, MLP, SocialPooling, Tensor, cat
from repro.nn import functional as F
from repro.nn._tracer import register_kernel, trace as _trace
from repro.nn.compile import (
    chain_arrays,
    chain_forward_np,
    chain_from,
    chain_input_grad_np,
    chain_layout,
    linear_chain,
)
from repro.utils.seeding import new_rng

__all__ = ["LBEBM"]


def _langevin_np(
    draws: np.ndarray,
    h: np.ndarray,
    energy_spec: list,
    steps: int,
    step_size: float,
    latent_dim: int,
) -> np.ndarray:
    """Short-run Langevin dynamics as one fused numpy loop.

    ``draws`` is the sampler's whole noise block, ``[K, 1 + steps, B,
    latent]``: per sample ``k``, the start ``z0`` then one noise row per
    step, in the order ``K`` sequential samplers would draw them.  ``h``
    holds the matching ``K * B`` sample-major conditioning rows, and the
    result is ``z`` for those rows.

    Replaces the per-iteration Tensor/graph construction of the reference
    sampler: the invariant ``cat([z, h])`` conditioning is hoisted into a
    reused buffer whose ``h`` half is written once, and the energy gradient
    ``dE/dz`` is computed by a closed-form walk over the energy MLP
    (:func:`repro.nn.compile.chain_input_grad_np`) instead of building and
    backpropagating a fresh autograd graph per step.  Only ``dE/dz`` is
    read, so the energy network (``... -> relu -> linear``) is walked
    without its tail: the energy itself is never computed, the gradient
    through the trailing linear layer is the same every step and is
    computed once, and the last relu is not applied, since its backward
    reads only ``pre > 0``.  Every remaining expression mirrors the autograd
    closures, so the trajectory of ``z`` is bit-identical to the reference
    loop (golden-tested at 1e-10).
    """
    num_samples, _, agents, _ = draws.shape
    batch = num_samples * agents
    z0 = draws[:, 0].reshape(batch, latent_dim)
    noise = draws[:, 1:].swapaxes(0, 1).reshape(steps, batch, latent_dim)
    # The conditioning buffer follows the *model* dtype (the reference loop
    # wraps z in a default-dtype Tensor each iteration), while the z update
    # itself stays in the draw dtype — exactly like the eager path.
    dtype = energy_spec[0][1].dtype
    x = np.empty((batch, latent_dim + h.shape[-1]), dtype=dtype)
    x[:, latent_dim:] = h
    body, head, w_energy = energy_spec[:-2], energy_spec[:-1], energy_spec[-1][1]
    grad_out = np.ones((batch, 1), dtype=dtype) @ w_energy.swapaxes(-1, -2)
    sqrt_step = np.sqrt(step_size)
    z = z0
    for k in range(steps):
        x[:, :latent_dim] = z
        stash: list = []
        pre = chain_forward_np(x, body, stash)
        stash.append((pre, None))
        grad = chain_input_grad_np(grad_out, head, stash)[:, :latent_dim]
        z = z - 0.5 * step_size * grad + sqrt_step * noise[k]
    return z


@register_kernel("lbebm_langevin")
def _build_langevin_kernel(params, out):
    steps = params["steps"]
    step_size = params["step_size"]
    latent_dim = params["latent_dim"]
    layout = params["layout"]

    def fn(draws, h, *energy_arrays):
        spec = chain_from(layout, energy_arrays)
        result = _langevin_np(draws, h, spec, steps, step_size, latent_dim)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    return fn


class LBEBM(TrajectoryBackbone):
    """Latent-belief energy-based trajectory prediction backbone."""

    def __init__(
        self,
        obs_len: int = 8,
        pred_len: int = 12,
        hidden_size: int = 32,
        interaction_size: int = 32,
        context_size: int = 32,
        latent_dim: int = 8,
        step_embed_dim: int = 16,
        langevin_steps: int = 15,
        langevin_step_size: float = 0.1,
        kl_weight: float = 0.05,
        ebm_weight: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(obs_len, pred_len, hidden_size, interaction_size, context_size)
        rng = new_rng(rng)
        self.latent_dim = latent_dim
        self.langevin_steps = langevin_steps
        self.langevin_step_size = langevin_step_size
        self.kl_weight = kl_weight
        self.ebm_weight = ebm_weight

        # Individual mobility layer: per-step embedding + LSTM (Eq. 1-2).
        self.step_embed = StepEmbedding(step_embed_dim, rng=rng)
        self.encoder = LSTM(step_embed_dim, hidden_size, rng=rng)
        # Neighbour interaction layer: masked social pooling (Eq. 3).
        self.nbr_embed = WindowEmbedding(obs_len, hidden_size, rng=rng)
        self.social = SocialPooling(hidden_size, interaction_size, rng=rng)
        # Latent plan machinery.
        self.posterior = MLP(
            [hidden_size + pred_len * 2, 64, 2 * latent_dim], rng=rng
        )
        self.energy = MLP([latent_dim + hidden_size, 32, 1], rng=rng)
        # _langevin_np walks this chain without its trailing relu -> linear.
        spec = linear_chain(self.energy)
        if spec is None or [e[:2] for e in chain_layout(spec)[-2:]] != [
            ("act", "relu"),
            ("linear", True),
        ]:
            raise ValueError(
                "the energy network must be a fusable MLP ending in relu -> linear (no dropout)"
            )
        # Future trajectory generator: recurrent rollout (Eq. 4-7).
        self.decoder = RecurrentTrajectoryDecoder(
            hidden_size + interaction_size + latent_dim + context_size,
            pred_len,
            rng=rng,
        )

    # ------------------------------------------------------------------
    def export_config(self) -> dict:
        config = super().export_config()
        config.update(
            latent_dim=self.latent_dim,
            step_embed_dim=self.step_embed.out_features,
            langevin_steps=self.langevin_steps,
            langevin_step_size=self.langevin_step_size,
            kl_weight=self.kl_weight,
            ebm_weight=self.ebm_weight,
        )
        return config

    def encode(self, batch: Batch) -> BackboneEncoding:
        obs = Tensor(batch.obs)
        steps = self.step_embed(obs)
        _, (h_ei, _) = self.encoder(steps)
        nbr_states = self.nbr_embed(Tensor(batch.neighbours))
        p_i = self.social(h_ei, nbr_states, batch.neighbour_mask)
        return BackboneEncoding(h_ei=h_ei, p_i=p_i)

    # ------------------------------------------------------------------
    def _energy_of(self, z: Tensor, h: Tensor) -> Tensor:
        """Scalar-per-sample energy ``E(z | h)``, shape ``[B, 1]``."""
        return self.energy(cat([z, h], axis=-1))

    def langevin_sample(
        self, h_detached: Tensor, rng: np.random.Generator, num_samples: int = 1
    ) -> Tensor:
        """Short-run Langevin dynamics sampling of the latent plan.

        ``z_{k+1} = z_k - (s/2) dE/dz + sqrt(s) * eps`` starting from a
        standard normal.  ``h_detached`` holds ``num_samples * B``
        sample-major rows (row ``k * B + b`` conditions sample ``k`` of
        agent ``b``).  Runs as one fused numpy loop (:func:`_langevin_np`):
        no per-iteration Tensor/graph allocation, the ``cat`` conditioning
        buffer reused with its ``h`` half written once, and the energy
        gradient computed in closed form — bit-identical to the original
        autograd loop, which ``tests/models/oracles.py`` keeps as the golden
        oracle.  Under a compile tape the whole loop records as a single
        ``lbebm_langevin`` kernel whose operand is the draw block.

        RNG contract: one ``[K, 1 + steps, B, latent]`` block, which
        consumes the generator's stream exactly like ``K`` reference loops
        run one after another, each drawing ``z0`` and then its per-step
        noise interleaved with the updates.
        """
        spec = linear_chain(self.energy)
        agents = h_detached.shape[0] // num_samples
        h = h_detached.data
        draws = rng.standard_normal(
            (num_samples, 1 + self.langevin_steps, agents, self.latent_dim)
        )
        z = _langevin_np(
            draws, h, spec,
            self.langevin_steps, self.langevin_step_size, self.latent_dim,
        )
        _trace(
            "lbebm_langevin",
            z,
            (draws, h, *chain_arrays(spec)),
            steps=self.langevin_steps,
            step_size=self.langevin_step_size,
            latent_dim=self.latent_dim,
            layout=chain_layout(spec),
        )
        return Tensor(z)

    # ------------------------------------------------------------------
    def _decode_with_plan(
        self, encoding: BackboneEncoding, z: Tensor, context: Tensor
    ) -> Tensor:
        conditioning = cat([encoding.h_ei, encoding.p_i, z, context], axis=-1)
        return self.decoder(conditioning)

    def decode(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
        num_samples: int = 1,
    ) -> Tensor:
        encoding, context = self._sample_rows(encoding, context, batch.size, num_samples)
        z = self.langevin_sample(encoding.h_ei, rng, num_samples)
        return self._decode_with_plan(encoding, z, context)

    def compute_loss(
        self,
        encoding: BackboneEncoding,
        batch: Batch,
        context: Tensor | None,
        rng: np.random.Generator,
    ) -> BackboneOutput:
        context = self._context_or_zeros(context, batch.size)
        future_flat = Tensor(batch.future.reshape(batch.size, -1))

        # Posterior over the latent plan.
        stats = self.posterior(cat([encoding.h_ei, future_flat], axis=-1))
        mu = stats[:, : self.latent_dim]
        logvar = stats[:, self.latent_dim :].clip(-8.0, 8.0)
        z_post = F.sample_gaussian(mu, logvar, rng)

        prediction = self._decode_with_plan(encoding, z_post, context)
        recon = F.mse_loss(prediction, Tensor(batch.future))
        kl = F.gaussian_kl(mu, logvar)

        # Contrastive energy shaping: posterior (positive) vs Langevin
        # (negative) samples; a small L2 term keeps energies bounded.
        h = encoding.h_ei.detach()
        e_pos = self._energy_of(z_post.detach(), h).mean()
        z_neg = self.langevin_sample(h, rng)
        e_neg = self._energy_of(z_neg, h).mean()
        ebm = e_pos - e_neg + 0.01 * (e_pos * e_pos + e_neg * e_neg)

        aux = self.kl_weight * kl + self.ebm_weight * ebm
        return BackboneOutput(
            prediction=prediction,
            traj_loss=recon,
            aux_loss=aux,
            terms={
                "traj": recon.item(),
                "kl": kl.item(),
                "ebm": ebm.item(),
                "e_pos": e_pos.item(),
                "e_neg": e_neg.item(),
            },
        )
