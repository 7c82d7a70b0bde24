"""Sampled convexity checking for sets over Euclidean space.

A functional set carries membership oracles from points of R^n to interval
values. Convexity demands, along every segment, that both truth endpoints
are quasi-concave and all indeterminacy/falsity endpoints quasi-convex; the
strong form demands strict inequalities at interior mixing weights for
distinct points.

Universally quantified statements over black-box oracles cannot be decided,
so the checkers falsify by sampling: segment endpoints drawn uniformly from a
box by a seeded PCG64 generator, mixing weights on a fixed grid. The verdict
is therefore ``no-violation-found`` (never "convex") or ``violated`` with a
reproducible witness. Reports are deterministic for a fixed seed: trials run
in draw order and the first violation wins. The oracle is queried through
its ``batch`` form, a chunk of trials per call, so points of a chunk beyond
the first violation may be evaluated too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .core import NeutrosophicValue, _validated, nv
from .errors import DimensionMismatch, InvalidDomain, InvalidInterval, InvalidParameter
from .sampling import _check_run, rng_from_seed

__all__ = [
    "Box",
    "FunctionalINS",
    "Witness",
    "ConvexityReport",
    "COMPONENTS",
    "NO_VIOLATION",
    "VIOLATED",
    "check_convex",
    "check_strongly_convex",
    "intersect_functional",
]

#: Endpoint names in report order.
COMPONENTS = ("infT", "supT", "infI", "supI", "infF", "supF")

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned closed sampling domain, one (lo, hi) pair per dimension."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise InvalidDomain("box needs at least one dimension")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(hi - lo)):
                raise InvalidDomain(f"box bound [{lo}, {hi}] is not finite or too wide")
            if lo > hi:
                raise InvalidDomain(f"box bound [{lo}, {hi}] is out of order")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dimension(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True, slots=True)
class FunctionalINS:
    """Set over R^n given by membership oracles.

    ``membership`` maps one point, a 1-D float array of length ``dimension``,
    to a :class:`NeutrosophicValue`. ``batch`` maps a ``(k, dimension)``
    array of points to a ``(k, 6)`` float array of their endpoints in
    :data:`COMPONENTS` order. Give either or both; a missing one is derived
    from the other (looping the scalar oracle, or viewing one row of the
    batch). Oracles must be pure: deterministic, returning a valid value for
    every queried point.
    """

    dimension: int
    membership: Callable[[np.ndarray], NeutrosophicValue] | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.batch is None:
            if self.membership is None:
                raise ValueError("a functional set needs a membership or a batch oracle")
            object.__setattr__(self, "batch", _looped(self.membership))
        elif self.membership is None:
            object.__setattr__(self, "membership", _pointwise(self.batch))


@dataclass(frozen=True, slots=True)
class Witness:
    """A sampled segment and mixing weight violating one inequality."""

    x1: tuple[float, ...]
    x2: tuple[float, ...]
    lam: float
    component: str
    lhs: float
    rhs: float


@dataclass(frozen=True, slots=True)
class ConvexityReport:
    verdict: str
    samples_checked: int
    witness: Witness | None = None


def _endpoints(value: NeutrosophicValue) -> tuple[float, ...]:
    t, i, f = value.truth, value.indeterminacy, value.falsity
    return (t.lo, t.hi, i.lo, i.hi, f.lo, f.hi)


def _shaped(values, count: int) -> np.ndarray:
    try:
        data = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInterval("batch oracle must return a (k, 6) float array") from None
    if data.shape != (count, 6):
        raise InvalidInterval(
            f"batch oracle returned shape {data.shape} for {count} points, "
            f"expected ({count}, 6)"
        )
    return data


def _checked(values, count: int) -> np.ndarray:
    """An oracle's output for ``count`` points as a fresh ``(count, 6)``
    array, validated as ``UnitInterval`` validates each value and snapped to
    the same lattice; raises :class:`InvalidInterval` otherwise."""
    return _validated(_shaped(values, count))


def _looped(membership: Callable[[np.ndarray], NeutrosophicValue]):
    def batch(points: np.ndarray) -> np.ndarray:
        rows = []
        for point in points:
            value = membership(point)
            if not isinstance(value, NeutrosophicValue):
                raise InvalidInterval(
                    f"membership oracle must return a NeutrosophicValue, got {value!r}"
                )
            rows.append(_endpoints(value))
        return np.array(rows, dtype=np.float64).reshape(len(rows), 6)

    return batch


def _pointwise(batch: Callable[[np.ndarray], np.ndarray]):
    def membership(point: np.ndarray) -> NeutrosophicValue:
        # nv validates and snaps the row as _checked would
        row = _shaped(batch(np.asarray(point, dtype=np.float64)[None, :]), 1)[0]
        return nv(*row.tolist())

    return membership


def _validate(a: FunctionalINS, domain: Box, trials: int, lambda_grid: int, seed: int,
              tol: float) -> None:
    if not isinstance(domain, Box):
        raise InvalidDomain("domain must be a Box")
    if domain.dimension != a.dimension:
        raise InvalidDomain(
            f"box dimension {domain.dimension} does not match set dimension {a.dimension}"
        )
    _check_run(trials, seed, tol)
    if lambda_grid < 2:
        raise InvalidParameter(f"lambda_grid must be >= 2, got {lambda_grid}")


# Trials per oracle call grow geometrically from one, so a violation in the
# first few trials costs a few small calls, up to a cap that bounds memory.
_MAX_CHUNK = 256

# Per endpoint, the direction in which a set's value lies inside a bound's.
_TOWARD_INSIDE = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


def _scan(
    a: FunctionalINS,
    domain: Box,
    trials: int,
    lambdas: list[float],
    seed: int,
    tol: float,
    strict: bool,
) -> ConvexityReport:
    rng = rng_from_seed(seed)
    lo = np.array([b[0] for b in domain.bounds])
    span = np.array([b[1] - b[0] for b in domain.bounds])
    lam_col = np.asarray(lambdas)[:, None]
    per_trial = 2 + len(lambdas)
    done = 0
    chunk = 1
    while done < trials:
        # rng.random((k, 2, n)) continues the stream exactly as k draws of
        # rng.random((2, n)) would
        pts = lo + rng.random((min(chunk, trials - done), 2, a.dimension)) * span
        chunk = min(2 * chunk, _MAX_CHUNK)
        if strict:
            # a trial redraws its pair until the points differ, i.e. it takes
            # the next distinct pair in the stream; draws left over at the end
            # are never used, as the generator is private to this scan
            pts = pts[np.any(pts[:, 0] != pts[:, 1], axis=1)]
            if not len(pts):
                continue
        mids = lam_col * pts[:, :1] + (1.0 - lam_col) * pts[:, 1:]
        queries = np.concatenate((pts, mids), axis=1).reshape(-1, a.dimension)
        values = _checked(a.batch(queries), len(queries)).reshape(len(pts), per_trial, 6)
        ends, m = values[:, :2], values[:, 2:]
        # the bound each mixed value must meet is the intersection of the
        # ends (min truth, max of the rest); tol loosens it for the plain
        # check and tightens it for the strict one
        bound = core._intersect(ends[:, :1], ends[:, 1:])
        if strict:
            # strongly convex: truth above the bound and the rest below it,
            # each by more than tol
            bad = core._contained(m, bound + tol * _TOWARD_INSIDE)
        else:
            bad = ~core._contained(bound - tol * _TOWARD_INSIDE, m)
        if bad.any():
            # the first violation in (trial, lambda, component) order
            t, j, c = map(int, np.unravel_index(np.argmax(bad), bad.shape))
            rhs = bound[t, 0, c]
            checked = (done + t) * len(lambdas) + j + 1
            return _report(pts[t, 0], pts[t, 1], lambdas[j], c, m[t, j, c], rhs, checked)
        done += len(pts)
    return ConvexityReport(NO_VIOLATION, trials * len(lambdas))


def _report(x1, x2, lam, component, lhs, rhs, checked) -> ConvexityReport:
    witness = Witness(
        x1=tuple(float(v) for v in x1),
        x2=tuple(float(v) for v in x2),
        lam=float(lam),
        component=COMPONENTS[component],
        lhs=float(lhs),
        rhs=float(rhs),
    )
    return ConvexityReport(VIOLATED, checked, witness)


def check_convex(
    a: FunctionalINS,
    domain: Box,
    trials: int = 1000,
    lambda_grid: int = 11,
    seed: int = 0,
    tol: float = 1e-9,
) -> ConvexityReport:
    """Search for a violation of convexity over sampled segments.

    Mixing weights form a uniform grid of ``lambda_grid`` points on [0, 1],
    endpoints included (they can never witness a violation). A violation must
    exceed ``tol`` to be reported.
    """
    _validate(a, domain, trials, lambda_grid, seed, tol)
    lambdas = np.linspace(0.0, 1.0, lambda_grid).tolist()
    return _scan(a, domain, trials, lambdas, seed, tol, strict=False)


def check_strongly_convex(
    a: FunctionalINS,
    domain: Box,
    trials: int = 1000,
    lambda_grid: int = 11,
    seed: int = 0,
    tol: float = 1e-9,
) -> ConvexityReport:
    """Search for a violation of strong convexity.

    Sampled segment endpoints are forced distinct and the ``lambda_grid``
    mixing weights lie strictly inside (0, 1). A comparison that fails to be
    strict by more than ``tol`` counts as a violation. A box of zero width on
    every axis holds no distinct points and is refused with
    :class:`InvalidDomain`.
    """
    _validate(a, domain, trials, lambda_grid, seed, tol)
    if all(lo == hi for lo, hi in domain.bounds):
        raise InvalidDomain("strong convexity needs a box of nonzero width on some axis")
    lambdas = np.linspace(0.0, 1.0, lambda_grid + 2)[1:-1].tolist()
    return _scan(a, domain, trials, lambdas, seed, tol, strict=True)


def intersect_functional(a: FunctionalINS, b: FunctionalINS) -> FunctionalINS:
    """Pointwise intersection: min on truth endpoints, max on the others."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"cannot intersect sets of dimension {a.dimension} and {b.dimension}"
        )
    fa, fb = a.batch, b.batch

    def batch(points: np.ndarray) -> np.ndarray:
        return core._intersect(_checked(fa(points), len(points)), _checked(fb(points), len(points)))

    return FunctionalINS(a.dimension, batch=batch)
