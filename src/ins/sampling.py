"""Seeded random generation of discrete sets for law checking and tests.

All randomness flows through :func:`rng_from_seed`, a PCG64 generator, so
every report is reproducible from its seed across platforms. Endpoints are
drawn as sorted pairs of uniform samples, which keeps them on the 2**-53
grid where complement reflection (1 - x) is exact in floating point.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DiscreteINS
from .errors import InvalidParameter

__all__ = [
    "rng_from_seed",
    "random_universe",
    "random_set",
    "random_superset",
    "random_subset",
]

_UNIVERSE_CACHE: dict[int, tuple[str, ...]] = {}


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_universe(rng: np.random.Generator, min_size: int = 1, max_size: int = 8) -> tuple[str, ...]:
    """A universe x1..xk with k drawn uniformly from [min_size, max_size]."""
    size = int(rng.integers(min_size, max_size + 1))
    cached = _UNIVERSE_CACHE.get(size)
    if cached is None:
        cached = _UNIVERSE_CACHE[size] = tuple(f"x{i}" for i in range(1, size + 1))
    return cached


def random_set(rng: np.random.Generator, universe: tuple[str, ...]) -> DiscreteINS:
    """Uniformly random set: each component interval is a sorted pair of
    uniform [0, 1] samples."""
    return DiscreteINS.from_array(universe, _sorted_pairs(rng.random((len(universe), 6))))


def random_superset(rng: np.random.Generator, a: DiscreteINS) -> DiscreteINS:
    """A random set containing ``a``: truth endpoints pushed up, the others
    pushed down, respecting interval ordering."""
    d = a.endpoints
    return DiscreteINS.from_array(a.universe, _nested_rows(rng.random(d.shape), d, superset=True))


def random_subset(rng: np.random.Generator, a: DiscreteINS) -> DiscreteINS:
    """A random set contained in ``a``: the mirror of :func:`random_superset`."""
    d = a.endpoints
    return DiscreteINS.from_array(a.universe, _nested_rows(rng.random(d.shape), d, superset=False))


def _sorted_pairs(draws: np.ndarray) -> np.ndarray:
    """Endpoint rows from uniform draws of shape (..., 6): each interval
    takes two consecutive draws in increasing order."""
    return np.sort(draws.reshape(*draws.shape[:-1], 3, 2), axis=-1).reshape(draws.shape)


def _nested_rows(draws: np.ndarray, *operands: np.ndarray, superset: bool) -> np.ndarray:
    """Endpoint rows from uniform draws of shape (..., 6) that contain every
    operand (``superset``) or lie inside every operand. Only min/max, never
    arithmetic or set operators: the rows stay on the draws' dyadic grid, and
    a common bound never assumes the lattice laws it is used to test."""
    out = np.empty_like(draws)
    for lo, hi in ((0, 1), (2, 3), (4, 5)):
        # a superset raises truth and lowers the rest; a subset the reverse
        if (lo == 0) == superset:
            first, second, outer, inner = hi, lo, np.maximum, np.minimum
        else:
            first, second, outer, inner = lo, hi, np.minimum, np.maximum
        out[..., first] = outer.reduce([*(d[..., first] for d in operands), draws[..., first]])
        nudged = inner(draws[..., second], out[..., first])
        out[..., second] = outer.reduce([*(d[..., second] for d in operands), nudged])
    return out


def _check_run(trials: int, seed: int, tol: float) -> None:
    """Refuse run parameters that would crash a check or silently weaken it:
    fewer than one trial, a negative seed, or a tolerance that is NaN,
    infinite or negative (no difference exceeds an infinite one)."""
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameter(f"tol must be finite and >= 0, got {tol}")
