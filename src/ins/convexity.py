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

Oracle values are checked and snapped once, where they enter, by the oracle
wrapper of :class:`FunctionalINS` (``DiscreteINS.from_array`` is the other
such boundary); the scan and :func:`intersect_functional` trust them.
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
    "MAX_LAMBDA_GRID",
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

#: Largest mixing-weight grid a check accepts. A chunk of trials queries the
#: oracle at every grid point at once, so the grid bounds the scan's memory.
MAX_LAMBDA_GRID = 1000


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
    every queried point. The stored ``batch`` wraps the given (or derived)
    one: it refuses a result that is not one valid row per point with
    :class:`InvalidInterval` and snaps it, so it returns checked values.
    """

    dimension: int
    membership: Callable[[np.ndarray], NeutrosophicValue] | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.batch is None and self.membership is None:
            raise ValueError("a functional set needs a membership or a batch oracle")
        oracle = _looped(self.membership) if self.batch is None else self.batch

        def batch(points: np.ndarray) -> np.ndarray:
            # the one check and snap of every value an oracle gives
            data = _validated(oracle(points))
            if len(data) != len(points):
                raise InvalidInterval(
                    f"batch oracle returned {len(data)} rows for {len(points)} points"
                )
            return data

        object.__setattr__(self, "batch", batch)
        if self.membership is None:
            object.__setattr__(self, "membership", _pointwise(batch))


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
        return nv(*batch(np.asarray(point, dtype=np.float64)[None, :])[0].tolist())

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
    if not 2 <= lambda_grid <= MAX_LAMBDA_GRID:
        raise InvalidParameter(
            f"lambda_grid must be between 2 and {MAX_LAMBDA_GRID}, got {lambda_grid}")


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
        values = a.batch(queries).reshape(len(pts), per_trial, 6)
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
    # each operand's own oracle wrapper has refused any bad value that the
    # min/max could hide
    return FunctionalINS(a.dimension,
                         batch=lambda points: core._intersect(a.batch(points), b.batch(points)))
