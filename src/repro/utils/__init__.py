"""Shared utilities: reproducible RNG handling."""

from repro.utils.seeding import RngMixin, new_rng, seed_everything, spawn_rng

__all__ = [
    "RngMixin",
    "new_rng",
    "seed_everything",
    "spawn_rng",
]
