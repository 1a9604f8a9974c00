"""Seeded sampling helpers."""

import numpy as np


def check_seed(seed):
    """Raise ValueError unless seed is an integer >= 0 (Python or numpy, not bool)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def uniform_ball(rng, dim, radius):
    """One point uniformly distributed in the closed ball of the given radius.

    Gaussian direction plus radius R * u^(1/dim); deterministic given
    the generator state.
    """
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / norm) * direction
