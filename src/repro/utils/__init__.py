"""Shared utilities: reproducible RNG handling."""

from repro.utils.seeding import new_rng, spawn_rng

__all__ = [
    "new_rng",
    "spawn_rng",
]
