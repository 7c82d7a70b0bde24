"""Built-in parametric membership families for the convexity checkers.

Apart from the bimodal counterexample, every family derives its components
from a single radial bump b(x) in [0, 1]:

    truth = [alpha*b, b]
    indeterminacy = [beta*(1-b), 1-b]
    falsity = [gamma*(1-b), 1-b]

with 0 < alpha, beta, gamma <= 1. Convexity of such a set: each bump is a
nonincreasing function of the distance to its center, and distance is convex,
so every superlevel set of b is a ball; hence b (and any positive scaling) is
quasi-concave, and 1-b with its scalings quasi-convex. The Gaussian bump is
*strictly* quasi-concave, because squared distance is strictly convex, so the
Gaussian family is strongly convex on any box. The piecewise-linear bumps are
flat where they vanish, so they are convex but not strongly convex.

The bimodal family plants a known violation: two separated unit bumps whose
connecting segments dip to zero between the modes.

Every family is written once, as a ``batch`` oracle over a ``(k, n)`` array
of points whose endpoints are snapped to the 2^-53 lattice as
``UnitInterval`` snaps them; its scalar ``membership`` is the one-row view
of that oracle.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from .convexity import FunctionalINS
from .core import _snap_array
from .errors import InvalidDomain, UnknownFamily

__all__ = [
    "triangular",
    "gaussian",
    "bimodal",
    "parse_family",
    "family_names",
    "random_convex",
    "random_strongly_convex",
]

#: A radial bump: ``(k, n)`` points to ``(k,)`` values in [0, 1].
Bump = Callable[[np.ndarray], np.ndarray]


def _bump_set(bump: Bump, dimension: int, alpha: float, beta: float,
              gamma: float) -> FunctionalINS:
    scales = np.array([alpha, 1.0, beta, 1.0, gamma, 1.0])

    def batch(points: np.ndarray) -> np.ndarray:
        b = bump(np.asarray(points, dtype=np.float64))
        out = np.empty((len(b), 6))
        out[:, :2] = b[:, None]
        out[:, 2:] = (1.0 - b)[:, None]
        out *= scales  # [alpha*b, b, beta*(1-b), 1-b, gamma*(1-b), 1-b]
        return _snap_array(out)

    return FunctionalINS(dimension, batch=batch)


def _distance(points: np.ndarray, center: float) -> np.ndarray:
    # scalar centers sit on the first axis: the bump peaks at (center, 0, ...)
    d0 = points[:, 0] - center
    if points.shape[1] == 1:
        return np.abs(d0)
    rest = points[:, 1:]
    # a stack of vector @ vector products sums in np.dot's order, so each
    # distance is the one np.dot gives for its point (einsum and sum differ
    # in the last bit)
    return np.sqrt(d0 * d0 + (rest[:, None, :] @ rest[:, :, None])[:, 0, 0])


def _cone(center: float, width: float) -> Bump:
    # fmax maps NaN to 0.0, as max(0.0, nan) does
    return lambda p: np.fmax(0.0, 1.0 - _distance(p, center) / width)


def _plateau(center: float, top: float, width: float) -> Bump:
    def bump(p: np.ndarray) -> np.ndarray:
        d = _distance(p, center)
        return np.where(d <= top, 1.0, np.fmax(0.0, 1.0 - (d - top) / width))

    return bump


def _bell(center: float, sigma: float) -> Bump:
    def bump(p: np.ndarray) -> np.ndarray:
        r = _distance(p, center) / sigma
        # math.exp, not np.exp: they differ in the last bit on some inputs,
        # which would change printed witnesses
        return np.fromiter(map(math.exp, (-r * r).tolist()), np.float64, len(r))

    return bump


def triangular(center: float = 0.0, width: float = 1.0, dimension: int = 1) -> FunctionalINS:
    """Piecewise-linear bump of the given half-width around ``center``."""
    if not (math.isfinite(center) and 0 < width < math.inf):
        raise InvalidDomain(f"triangular needs a finite center and width > 0, got {center}, {width}")
    return _bump_set(_cone(center, width), dimension, alpha=0.8, beta=0.5, gamma=0.5)


def gaussian(center: float = 0.0, sigma: float = 1.0, dimension: int = 1) -> FunctionalINS:
    """Gaussian bump; strictly quasi-concave, hence strongly convex."""
    if not (math.isfinite(center) and 0 < sigma < math.inf):
        raise InvalidDomain(f"gaussian needs a finite center and sigma > 0, got {center}, {sigma}")
    return _bump_set(_bell(center, sigma), dimension, alpha=0.9, beta=0.5, gamma=0.5)


def bimodal(separation: float = 4.0, dimension: int = 1) -> FunctionalINS:
    """Two unit bumps with centers ``separation`` apart: a planted
    counterexample whose mode midpoints violate convexity."""
    if not 0 <= separation < math.inf:
        raise InvalidDomain(f"bimodal needs a finite separation >= 0, got {separation}")
    half = separation / 2.0
    # unit cones: d / 1.0 is d exactly
    right, left = _cone(half, 1.0), _cone(-half, 1.0)

    def batch(points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        out = np.zeros((len(p), 6))
        out[:, 0] = out[:, 1] = _snap_array(np.minimum(1.0, right(p) + left(p)))
        return out

    return FunctionalINS(dimension, batch=batch)


_FAMILIES: dict[str, tuple[Callable[..., FunctionalINS], int]] = {
    "triangular": (triangular, 2),
    "gaussian": (gaussian, 2),
    "bimodal": (bimodal, 1),
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^()]*)\))?\s*$")


def family_names() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def parse_family(spec: str, dimension: int = 1) -> FunctionalINS:
    """Build a family from a spec string like ``triangular(0,1)``.

    Omitted parameters fall back to the family defaults.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"malformed family spec: {spec!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in _FAMILIES:
        raise UnknownFamily(
            f"unknown family {name!r}; built-ins: " + ", ".join(_FAMILIES)
        )
    builder, arity = _FAMILIES[name]
    args: list[float] = []
    if argtext and argtext.strip():
        for piece in argtext.split(","):
            try:
                args.append(float(piece))
            except ValueError:
                raise ValueError(f"bad parameter {piece.strip()!r} in family spec {spec!r}") from None
    if len(args) > arity:
        raise ValueError(f"family {name!r} takes at most {arity} parameters, got {len(args)}")
    return builder(*args, dimension=dimension)


def _random_scales(rng: np.random.Generator) -> tuple[float, float, float]:
    s = 0.3 + 0.7 * rng.random(3)
    return float(s[0]), float(s[1]), float(s[2])


def random_convex(rng: np.random.Generator, dimension: int = 1) -> FunctionalINS:
    """Random member of the provably convex families (piecewise-linear
    unimodal or Gaussian bumps with random scalings)."""
    kind = int(rng.integers(0, 3))
    center = float(rng.uniform(-1.0, 1.0))
    spread = float(0.5 + 1.5 * rng.random())
    alpha, beta, gamma = _random_scales(rng)
    if kind == 0:
        bump = _cone(center, spread)
    elif kind == 1:
        bump = _plateau(center, float(0.5 * rng.random()), spread)
    else:
        bump = _bell(center, spread)
    return _bump_set(bump, dimension, alpha, beta, gamma)


def random_strongly_convex(rng: np.random.Generator, dimension: int = 1) -> FunctionalINS:
    """Random Gaussian-bump set; strictly quasi-concave truth and strictly
    quasi-convex indeterminacy/falsity on any box.

    Centers stay within [-0.5, 0.5] and sigma within [1, 2] so the bump keeps
    a usable slope on boxes a few units wide; in far tails the strict margins
    would shrink below any checking tolerance even though the inequalities
    hold mathematically.
    """
    center = float(rng.uniform(-0.5, 0.5))
    sigma = float(1.0 + rng.random())
    alpha, beta, gamma = _random_scales(rng)
    return _bump_set(_bell(center, sigma), dimension, alpha, beta, gamma)
