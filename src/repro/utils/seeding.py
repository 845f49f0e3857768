"""Reproducible random-number handling.

Every stochastic component in the library (simulator, data shuffling, weight
initialization, latent sampling) receives an explicit
:class:`numpy.random.Generator` instead of touching global state.  These
helpers create, split, and normalize such generators.
"""

from __future__ import annotations

import numpy as np

#: Default seed used across examples and tests when the caller does not care.
DEFAULT_SEED = 20240101


def new_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh default seed), an integer seed, or an existing
    generator (returned unchanged) so that every public API can take a
    ``seed`` argument of any of those forms.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Used when one seeded experiment fans out into several stochastic
    components (e.g. one generator per source domain) that must not share
    streams.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]
