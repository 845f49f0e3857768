"""Functional operations and losses built on the autodiff Tensor.

These cover everything the AdapTraj reproduction trains with: displacement
losses for trajectories, the VAE KL term (PECNet), cross-entropy for the
domain classifier, masked softmax for social attention, and dropout.
"""

from __future__ import annotations

import numpy as np

from repro.nn._tracer import trace as _trace
from repro.nn.tensor import Tensor, as_tensor, cat, where

__all__ = [
    "cross_entropy_with_logits",
    "dropout",
    "gaussian_kl",
    "log_softmax",
    "masked_mean",
    "masked_softmax",
    "mse_loss",
    "sample_gaussian",
    "softmax",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Rows whose mask is entirely False produce all-zero probabilities rather
    than NaNs (this happens for focal agents without any neighbour).
    """
    mask = np.asarray(mask, dtype=bool)
    # Scalars broadcast through where(); this runs in the social-attention
    # hot path, so avoid materializing full-size fill arrays per call.
    guarded = where(mask, logits, -1e9)
    probs = softmax(guarded, axis=axis)
    any_valid = mask.any(axis=axis, keepdims=True)
    _trace("any", any_valid, (mask,), axis=axis, keepdims=True)
    return where(any_valid, probs, 0.0)


def masked_mean(values: Tensor, mask: np.ndarray, axis: int) -> Tensor:
    """Mean of ``values`` over ``axis`` counting only entries where mask is True."""
    mask = np.asarray(mask, dtype=bool)
    weights = mask.astype(np.float64)
    _trace("astype", weights, (mask,), dtype=weights.dtype)
    while weights.ndim < values.ndim:
        expanded = weights[..., None]
        _trace("getitem", expanded, (weights,), index=(Ellipsis, None))
        weights = expanded
    total = (values * Tensor(weights)).sum(axis=axis)
    counts_sum = weights.sum(axis=axis)
    _trace("sum", counts_sum, (weights,), axis=axis, keepdims=False)
    counts = np.maximum(counts_sum, 1.0)
    _trace("maximum_scalar", counts, (counts_sum,), value=1.0)
    return total / Tensor(counts)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError(f"dropout probability must be < 1, got {p}")
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    return where(keep, x * scale, 0.0)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()


def cross_entropy_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``.

    ``logits`` has shape ``[batch, num_classes]``; ``labels`` is an int array
    of shape ``[batch]``.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected [batch, classes] logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch size {logits.shape[0]}"
        )
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(logits.shape[0]), labels]
    return -picked.mean()


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL( N(mu, exp(logvar)) || N(0, I) ), averaged over the batch."""
    kl = 0.5 * ((mu * mu) + logvar.exp() - logvar - 1.0)
    return kl.sum(axis=-1).mean()


def sample_gaussian(mu: Tensor, logvar: Tensor, rng: np.random.Generator) -> Tensor:
    """Reparameterized sample z = mu + sigma * eps."""
    eps = Tensor(rng.standard_normal(mu.shape))
    return mu + (logvar * 0.5).exp() * eps
