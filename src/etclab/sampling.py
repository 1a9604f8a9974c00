"""Seeded sampling helpers."""

import math

import numpy as np


def check_int(value, name, low=0):
    """Raise ValueError naming ``name`` unless value is an integer >= low.

    Python and numpy integers pass; bool, float and other types do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def uniform_ball(rng, dim, radius):
    """One point uniformly distributed in the closed ball of the given radius.

    Gaussian direction plus radius R * u^(1/dim); deterministic given
    the generator state.
    """
    direction = rng.standard_normal(dim)
    norm = math.sqrt(direction.dot(direction))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return (r / norm) * direction
