"""Seeded sampling helpers."""

import math

import numpy as np


def check_int(value, name, low=0):
    """Raise ValueError naming ``name`` unless value is an integer >= low.

    Python and numpy integers pass; bool, float and other types do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def uniform_ball(rng, dim, radius, n=None):
    """Points uniformly distributed in the closed ball of the given radius.

    Without n, one point of shape (dim,): a Gaussian direction scaled to
    radius R * u^(1/dim), two generator calls.  This form keeps that draw
    because ``montecarlo``'s initial states, and so every simulated event
    log, rest on its bits.  With a count n, an (n, dim) block from one
    call: each row is R times the first dim coordinates of a Gaussian
    (dim + 2)-vector over its norm, which is uniform in the ball because a
    point uniform on the (dim + 1)-sphere projects to one uniform in the
    dim-ball (Barthe, Guedon, Mendelson and Naor, Ann. Probab. 33(2), 2005).
    Its rows are the same however a count is split between calls.  In both
    forms a zero Gaussian vector gives the origin, with no warning.
    Deterministic given the generator state.
    """
    if n is None:
        direction = rng.standard_normal(dim)
        norm = math.sqrt(direction.dot(direction))
        if norm == 0.0:
            return np.zeros(dim)
        r = radius * rng.random() ** (1.0 / dim)
        return (r / norm) * direction
    g = rng.standard_normal((n, dim + 2))
    size = np.sqrt(np.einsum("ij,ij->i", g, g))
    scale = np.divide(radius, size, out=np.zeros(n), where=size > 0.0)
    return scale[:, None] * g[:, :dim]
