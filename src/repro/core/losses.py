"""AdapTraj loss functions (paper Eq. 12–20 and 23–25).

* :func:`simse_loss` — scale-invariant MSE used by the reconstruction decoder
  (Eq. 14).  The paper's rendering of the second term contains a typo (it
  would reduce to a constant multiple of the first); we implement the
  original Eigen et al. / DSN definition the paper cites, where the second
  term is the squared *sum* of errors: ``(1/m)||d||^2 - (1/m^2)(sum d)^2``.
* :func:`difference_loss` — soft subspace orthogonality between invariant and
  specific features (Eq. 20), DSN-style: features are batch-centered and
  row-normalized before the squared Frobenius norm of their Gram product.
* :func:`domain_adversarial_loss` — negative log-likelihood of the domain
  label from the domain classifier (Eq. 15–16).  Following DSN, the
  *invariant* features enter the classifier through a gradient-reversal
  layer (so they are trained to be domain-indistinguishable) while the
  *specific* features receive the plain classification gradient (so they are
  trained to be domain-identifiable).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, cat, grad_reverse
from repro.nn import functional as F

__all__ = ["difference_loss", "domain_adversarial_loss", "simse_loss"]


def simse_loss(target: Tensor | np.ndarray, reconstruction: Tensor) -> Tensor:
    """Scale-invariant MSE between flattened samples, averaged over the batch.

    Both inputs are ``[batch, m]``; per sample:
    ``(1/m) * ||d||^2 - (1/m^2) * (sum(d))^2`` with ``d = x - x_hat``.
    """
    if isinstance(target, np.ndarray):
        target = Tensor(target)
    target = target.detach()
    if reconstruction.shape != target.shape:
        raise ValueError(
            f"shape mismatch: target {target.shape} vs reconstruction {reconstruction.shape}"
        )
    if reconstruction.ndim != 2:
        raise ValueError(f"expected [batch, m] inputs, got {reconstruction.shape}")
    m = float(target.shape[1])
    diff = target - reconstruction
    mse_term = (diff * diff).sum(axis=1) / m
    sum_term = diff.sum(axis=1)
    simse = mse_term - (sum_term * sum_term) / (m * m)
    return simse.mean()


def _center_and_normalize(features: Tensor) -> Tensor:
    """Batch-center and L2-normalize rows (DSN difference-loss preprocessing)."""
    centered = features - features.mean(axis=0, keepdims=True)
    # eps inside the sqrt: its derivative at exactly zero is infinite, which
    # would poison gradients whenever a feature row is all zeros.
    norms = ((centered * centered).sum(axis=1, keepdims=True) + 1e-12).sqrt()
    return centered / norms


def difference_loss(invariant: Tensor, specific: Tensor) -> Tensor:
    """Soft orthogonality: squared Frobenius norm of the feature Gram product.

    ``invariant`` and ``specific`` are ``[batch, f]``; the loss is
    ``|| H_i^T H_s ||_F^2`` after centering/normalization, scaled by 1/batch
    so it is insensitive to batch size.
    """
    if invariant.shape != specific.shape:
        raise ValueError(
            f"shape mismatch: invariant {invariant.shape} vs specific {specific.shape}"
        )
    inv = _center_and_normalize(invariant)
    spec = _center_and_normalize(specific)
    gram = inv.transpose(0, 1) @ spec  # [f, f]
    return (gram * gram).sum() / float(invariant.shape[0])


def domain_adversarial_loss(
    classifier,
    invariant_individual: Tensor,
    invariant_neighbour: Tensor,
    specific_individual: Tensor,
    specific_neighbour: Tensor,
    domain_ids: np.ndarray,
    reversal_scale: float = 1.0,
) -> Tensor:
    """Domain-classification NLL with gradient reversal on invariant inputs.

    ``classifier`` maps the concatenated four features to ``K`` logits
    (paper Eq. 16); ``domain_ids`` are integer labels in ``[0, K)``.
    """
    features = cat(
        [
            grad_reverse(invariant_individual, reversal_scale),
            grad_reverse(invariant_neighbour, reversal_scale),
            specific_individual,
            specific_neighbour,
        ],
        axis=-1,
    )
    logits = classifier(features)
    return F.cross_entropy_with_logits(logits, domain_ids)
