"""Shared utilities: RNG normalization."""

from repro.utils.rng import as_generator, spawn_generators

__all__ = [
    "as_generator",
    "spawn_generators",
]
