"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
model construction is fully reproducible end to end (the library never uses
numpy's global RNG).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["orthogonal_", "uniform_", "xavier_uniform_"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        return (shape[0] if shape else 1, shape[0] if shape else 1)
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def uniform_(tensor: Tensor, rng: np.random.Generator, low: float = -0.1, high: float = 0.1) -> Tensor:
    tensor.data[...] = rng.uniform(low, high, size=tensor.shape)
    return tensor


def xavier_uniform_(tensor: Tensor, rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    fan_in, fan_out = _fan_in_out(tensor.shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(tensor, rng, -bound, bound)


def orthogonal_(tensor: Tensor, rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    """Orthogonal initialization (recommended for recurrent weight matrices)."""
    if tensor.ndim != 2:
        raise ValueError(f"orthogonal_ requires a 2-D tensor, got {tensor.ndim}-D")
    rows, cols = tensor.shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))  # make decomposition unique
    if rows < cols:
        q = q.T
    tensor.data[...] = gain * q[:rows, :cols]
    return tensor
