"""Frozen per-trial law engine, samplers and operator formulas: the reference
that the stacked law engine and the endpoint kernels are compared against.

This is the code path the package used before its law checker stacked the
trials: every trial draws its sets through ``DiscreteINS.from_array``, runs
the operators one call at a time and stops at its first failing sub-check.
It is kept verbatim apart from names (operators are module functions here, so
a test can break one by patching this module). Do not change it to follow the
package: the point of the copy is that it does not move.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ins.core import _EMPTY_ROW, _UNIVERSAL_ROW, DiscreteINS, PairedINS, _aligned, _BaseSet, _like
from ins.errors import NonPositiveScalar, UnknownLaw
from ins.laws import LawResult
from ins.sampling import rng_from_seed

_T = slice(0, 2)
_I = slice(2, 4)
_F = slice(4, 6)
_TL, _TU, _IL, _IU, _FL, _FU = range(6)

_UNIVERSE_CACHE: dict[int, tuple[str, ...]] = {}


# --------------------------------------------------------------------------
# operators


def _constant_set(universe: Iterable[str], row: np.ndarray) -> DiscreteINS:
    labels = tuple(universe)
    data = np.tile(row, (len(labels), 1))
    return DiscreteINS.from_array(labels, data)


def empty_set(universe: Iterable[str]) -> DiscreteINS:
    """The absorbing empty set <[0,0],[1,1],[1,1]> over the given universe."""
    return _constant_set(universe, _EMPTY_ROW)


def universal_set(universe: Iterable[str]) -> DiscreteINS:
    """The universal set <[1,1],[0,0],[0,0]> over the given universe."""
    return _constant_set(universe, _UNIVERSAL_ROW)


def complement(a: _BaseSet) -> _BaseSet:
    """Swap truth and falsity; reflect the indeterminacy interval at 1."""
    d = a._data
    out = np.empty_like(d)
    out[:, _T] = d[:, _F]
    out[:, _IL] = 1.0 - d[:, _IU]
    out[:, _IU] = 1.0 - d[:, _IL]
    out[:, _F] = d[:, _T]
    return _like(a, out)


def is_contained(a: _BaseSet, b: _BaseSet) -> bool:
    """True iff a's truth is pointwise no larger than b's, and a's
    indeterminacy and falsity pointwise no smaller, at every element."""
    da, db = _aligned(a, b)
    return bool(
        np.all(da[:, _T] <= db[:, _T])
        and np.all(da[:, _I] >= db[:, _I])
        and np.all(da[:, _F] >= db[:, _F])
    )


def equals(a: _BaseSet, b: _BaseSet) -> bool:
    """Mutual containment; equivalently exact equality of all endpoints."""
    da, db = _aligned(a, b)
    return bool(np.array_equal(da, db))


def is_empty(a: _BaseSet) -> bool:
    """True iff every element carries the empty value <[0,0],[1,1],[1,1]>."""
    return bool(np.all(a._data == _EMPTY_ROW))


def union(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise max on truth, min on indeterminacy and falsity."""
    da, db = _aligned(a, b)
    out = np.empty_like(da)
    out[:, _T] = np.maximum(da[:, _T], db[:, _T])
    out[:, 2:] = np.minimum(da[:, 2:], db[:, 2:])
    return _like(a, out)


def intersect(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise min on truth, max on indeterminacy and falsity."""
    da, db = _aligned(a, b)
    out = np.empty_like(da)
    out[:, _T] = np.minimum(da[:, _T], db[:, _T])
    out[:, 2:] = np.maximum(da[:, 2:], db[:, 2:])
    return _like(a, out)


def difference(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Remove b from a: truth is capped by b's falsity, falsity raised by
    b's truth, and indeterminacy raised by the reflection of b's."""
    da, db = _aligned(a, b)
    out = np.empty_like(da)
    out[:, _T] = np.minimum(da[:, _T], db[:, _F])
    out[:, _IL] = np.maximum(da[:, _IL], 1.0 - db[:, _IU])
    out[:, _IU] = np.maximum(da[:, _IU], 1.0 - db[:, _IL])
    out[:, _F] = np.maximum(da[:, _F], db[:, _T])
    return _like(a, out)


def add(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise sum on all three components, saturating at 1."""
    da, db = _aligned(a, b)
    return _like(a, np.minimum(da + db, 1.0))


def pointwise_product(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Elementwise product over a shared universe: probabilistic sum on
    truth endpoints, plain product on indeterminacy and falsity."""
    da, db = _aligned(a, b)
    out = np.empty_like(da)
    out[:, _T] = da[:, _T] + db[:, _T] - da[:, _T] * db[:, _T]
    out[:, 2:] = da[:, 2:] * db[:, 2:]
    return _like(a, out)


def cartesian_product(a: DiscreteINS, b: DiscreteINS) -> PairedINS:
    """Product set over the ordered cross universe; same endpoint rules as
    :func:`pointwise_product`, applied to every (x, y) pair."""
    da = a._data[:, None, :]
    db = b._data[None, :, :]
    out = np.empty((len(a), len(b), 6))
    out[:, :, _T] = da[:, :, _T] + db[:, :, _T] - da[:, :, _T] * db[:, :, _T]
    out[:, :, 2:] = da[:, :, 2:] * db[:, :, 2:]
    labels = tuple((x, y) for x in a.universe for y in b.universe)
    index = {label: i for i, label in enumerate(labels)}
    return PairedINS._wrap(labels, index, out.reshape(-1, 6))


def _check_scalar(factor: float) -> float:
    factor = float(factor)
    if math.isnan(factor) or factor <= 0.0:
        raise NonPositiveScalar(f"scalar factor must be > 0, got {factor}")
    return factor


def scalar_mul(factor: float, a: _BaseSet) -> _BaseSet:
    """Scale every endpoint by ``factor`` > 0, saturating at 1."""
    factor = _check_scalar(factor)
    return _like(a, np.minimum(a._data * factor, 1.0))


def scalar_div(a: _BaseSet, divisor: float) -> _BaseSet:
    """Divide every endpoint by ``divisor`` > 0, saturating at 1."""
    divisor = _check_scalar(divisor)
    return _like(a, np.minimum(a._data / divisor, 1.0))


def truth_favorite(a: _BaseSet) -> _BaseSet:
    """Fold indeterminacy into truth (saturating); indeterminacy becomes
    exactly [0,0]; falsity is untouched."""
    d = a._data
    out = np.empty_like(d)
    out[:, _T] = np.minimum(d[:, _T] + d[:, _I], 1.0)
    out[:, _I] = 0.0
    out[:, _F] = d[:, _F]
    return _like(a, out)


def false_favorite(a: _BaseSet) -> _BaseSet:
    """Fold indeterminacy into falsity (saturating); indeterminacy becomes
    exactly [0,0]; truth is untouched."""
    d = a._data
    out = np.empty_like(d)
    out[:, _T] = d[:, _T]
    out[:, _I] = 0.0
    out[:, _F] = np.minimum(d[:, _F] + d[:, _I], 1.0)
    return _like(a, out)


# --------------------------------------------------------------------------
# samplers


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
    n = len(universe)
    data = rng.random((n, 3, 2))
    data.sort(axis=2)
    return DiscreteINS.from_array(universe, data.reshape(n, 6))


def random_superset(rng: np.random.Generator, a: DiscreteINS) -> DiscreteINS:
    """A random set containing ``a``: truth endpoints pushed up, the others
    pushed down, respecting interval ordering.

    Uses only min/max against fresh uniform draws, never arithmetic, so the
    result stays on the same dyadic grid as the draws.
    """
    d = a.endpoints
    r = rng.random(d.shape)
    out = np.empty_like(d)
    # truth: raise both endpoints
    out[:, 1] = np.maximum(d[:, 1], r[:, 1])
    out[:, 0] = np.maximum(d[:, 0], np.minimum(r[:, 0], out[:, 1]))
    # indeterminacy and falsity: lower both endpoints
    for lo, hi in ((2, 3), (4, 5)):
        out[:, lo] = np.minimum(d[:, lo], r[:, lo])
        out[:, hi] = np.minimum(d[:, hi], np.maximum(r[:, hi], out[:, lo]))
    return DiscreteINS.from_array(a.universe, out)


def random_subset(rng: np.random.Generator, a: DiscreteINS) -> DiscreteINS:
    """A random set contained in ``a``: the mirror of :func:`random_superset`."""
    d = a.endpoints
    r = rng.random(d.shape)
    out = np.empty_like(d)
    # truth: lower both endpoints
    out[:, 0] = np.minimum(d[:, 0], r[:, 0])
    out[:, 1] = np.minimum(d[:, 1], np.maximum(r[:, 1], out[:, 0]))
    # indeterminacy and falsity: raise both endpoints
    for lo, hi in ((2, 3), (4, 5)):
        out[:, hi] = np.maximum(d[:, hi], r[:, hi])
        out[:, lo] = np.maximum(d[:, lo], np.minimum(r[:, lo], out[:, hi]))
    return DiscreteINS.from_array(a.universe, out)


# --------------------------------------------------------------------------
# law engine


def _fmt_value(row: np.ndarray) -> str:
    t, i, f = row[0:2], row[2:4], row[4:6]
    part = lambda p: f"[{p[0]:g},{p[1]:g}]"
    return f"<{part(t)},{part(i)},{part(f)}>"


def _fail_eq(relation: str, x: DiscreteINS, y: DiscreteINS, tol: float) -> str | None:
    """None if x == y (within tol per endpoint), else a rendered failure."""
    dx, dy = x.endpoints, y.endpoints
    bad = np.abs(dx - dy) > tol if tol > 0.0 else dx != dy
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size == 0:
        return None
    label = x.universe[rows[0]]
    return (
        f"{relation}\n  element {label}: "
        f"lhs={_fmt_value(dx[rows[0]])} rhs={_fmt_value(dy[rows[0]])}"
    )


def _fail_contained(relation: str, x: DiscreteINS, y: DiscreteINS) -> str | None:
    """None if x is contained in y, else a rendered failure."""
    dx, dy = x.endpoints, y.endpoints
    ok = np.concatenate(
        [dx[:, 0:2] <= dy[:, 0:2], dx[:, 2:6] >= dy[:, 2:6]], axis=1
    )
    rows = np.flatnonzero(~ok.all(axis=1))
    if rows.size == 0:
        return None
    label = x.universe[rows[0]]
    return (
        f"{relation}\n  element {label}: "
        f"lhs={_fmt_value(dx[rows[0]])} rhs={_fmt_value(dy[rows[0]])}"
    )


def _common_superset(rng: np.random.Generator, a: DiscreteINS, b: DiscreteINS) -> DiscreteINS:
    # Sampled directly from the containment constraints of both operands
    # (min/max only, no set operators), so minimality checks don't assume
    # the theorem they test.
    da, db = a.endpoints, b.endpoints
    r = rng.random(da.shape)
    out = np.empty_like(da)
    out[:, 1] = np.maximum(np.maximum(da[:, 1], db[:, 1]), r[:, 1])
    out[:, 0] = np.maximum(
        np.maximum(da[:, 0], db[:, 0]), np.minimum(r[:, 0], out[:, 1])
    )
    for lo, hi in ((2, 3), (4, 5)):
        out[:, lo] = np.minimum(np.minimum(da[:, lo], db[:, lo]), r[:, lo])
        out[:, hi] = np.minimum(
            np.minimum(da[:, hi], db[:, hi]), np.maximum(r[:, hi], out[:, lo])
        )
    return DiscreteINS.from_array(a.universe, out)


def _common_subset(rng: np.random.Generator, a: DiscreteINS, b: DiscreteINS) -> DiscreteINS:
    da, db = a.endpoints, b.endpoints
    r = rng.random(da.shape)
    out = np.empty_like(da)
    out[:, 0] = np.minimum(np.minimum(da[:, 0], db[:, 0]), r[:, 0])
    out[:, 1] = np.minimum(
        np.minimum(da[:, 1], db[:, 1]), np.maximum(r[:, 1], out[:, 0])
    )
    for lo, hi in ((2, 3), (4, 5)):
        out[:, hi] = np.maximum(np.maximum(da[:, hi], db[:, hi]), r[:, hi])
        out[:, lo] = np.maximum(
            np.maximum(da[:, lo], db[:, lo]), np.minimum(r[:, lo], out[:, hi])
        )
    return DiscreteINS.from_array(a.universe, out)


# Per-trial checks. Each returns None on success or a rendered counterexample.


def _check_commutativity(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    for name, op in (
        ("union", union),
        ("intersect", intersect),
        ("add", add),
        ("pointwise_product", pointwise_product),
    ):
        fail = _fail_eq(f"{name}(A, B) != {name}(B, A)", op(a, b), op(b, a), 0.0)
        if fail:
            return fail
    # cartesian product commutes after transposing the pair keys
    other = random_set(rng, random_universe(rng))
    ab = cartesian_product(a, other)
    ba = cartesian_product(other, a)
    n, m = len(a), len(other)
    transposed = ba.endpoints.reshape(m, n, 6).transpose(1, 0, 2)
    if not np.array_equal(ab.endpoints.reshape(n, m, 6), transposed):
        return "cartesian_product(A, B) differs from key-transposed cartesian_product(B, A)"
    return None


def _check_associativity(rng, universe, tol):
    a, b, c = (random_set(rng, universe) for _ in range(3))
    for name, op, t in (
        ("union", union, 0.0),
        ("intersect", intersect, 0.0),
        ("add", add, tol),
        ("pointwise_product", pointwise_product, tol),
    ):
        fail = _fail_eq(
            f"{name}(A, {name}(B, C)) != {name}({name}(A, B), C)",
            op(a, op(b, c)),
            op(op(a, b), c),
            t,
        )
        if fail:
            return fail
    return None


def _check_distributivity(rng, universe, tol):
    a, b, c = (random_set(rng, universe) for _ in range(3))
    lhs = union(a, intersect(b, c))
    rhs = intersect(union(a, b), union(a, c))
    fail = _fail_eq("A | (B & C) != (A | B) & (A | C)", lhs, rhs, 0.0)
    if fail:
        return fail
    lhs = intersect(a, union(b, c))
    rhs = union(intersect(a, b), intersect(a, c))
    return _fail_eq("A & (B | C) != (A & B) | (A & C)", lhs, rhs, 0.0)


def _check_idempotency(rng, universe, tol):
    a = random_set(rng, universe)
    return (
        _fail_eq("A | A != A", union(a, a), a, 0.0)
        or _fail_eq("A & A != A", intersect(a, a), a, 0.0)
        or _fail_eq(
            "tf(tf(A)) != tf(A)",
            truth_favorite(truth_favorite(a)),
            truth_favorite(a),
            0.0,
        )
        or _fail_eq(
            "ff(ff(A)) != ff(A)",
            false_favorite(false_favorite(a)),
            false_favorite(a),
            0.0,
        )
    )


def _check_identity_absorber(rng, universe, tol):
    a = random_set(rng, universe)
    phi = empty_set(universe)
    full = universal_set(universe)
    return (
        _fail_eq("A & empty != empty", intersect(a, phi), phi, 0.0)
        or _fail_eq("A | universal != universal", union(a, full), full, 0.0)
        or _fail_eq("A | empty != A", union(a, phi), a, 0.0)
        or _fail_eq("A & universal != A", intersect(a, full), a, 0.0)
    )


def _check_favorite_additivity(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    s = add(a, b)
    return (
        _fail_eq(
            "tf(A + B) != tf(A) + tf(B)",
            truth_favorite(s),
            add(truth_favorite(a), truth_favorite(b)),
            tol,
        )
        or _fail_eq(
            "ff(A + B) != ff(A) + ff(B)",
            false_favorite(s),
            add(false_favorite(a), false_favorite(b)),
            tol,
        )
    )


def _check_absorption(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    return (
        _fail_eq("A | (A & B) != A", union(a, intersect(a, b)), a, 0.0)
        or _fail_eq("A & (A | B) != A", intersect(a, union(a, b)), a, 0.0)
    )


def _check_demorgan(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    return (
        _fail_eq(
            "~(A | B) != ~A & ~B",
            complement(union(a, b)),
            intersect(complement(a), complement(b)),
            0.0,
        )
        or _fail_eq(
            "~(A & B) != ~A | ~B",
            complement(intersect(a, b)),
            union(complement(a), complement(b)),
            0.0,
        )
    )


def _check_involution(rng, universe, tol):
    a = random_set(rng, universe)
    return _fail_eq("~~A != A", complement(complement(a)), a, 0.0)


def _check_lub(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    u = union(a, b)
    fail = _fail_contained("A not contained in A | B", a, u) or _fail_contained(
        "B not contained in A | B", b, u
    )
    if fail:
        return fail
    # minimality: the union must sit below every common superset
    for _ in range(3):
        d = _common_superset(rng, a, b)
        fail = _fail_contained("A | B not contained in a common superset D", u, d)
        if fail:
            return fail
    d = random_set(rng, universe)
    if is_contained(a, d) and is_contained(b, d):
        return _fail_contained("A | B not contained in a common superset D", u, d)
    return None


def _check_glb(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    m = intersect(a, b)
    fail = _fail_contained("A & B not contained in A", m, a) or _fail_contained(
        "A & B not contained in B", m, b
    )
    if fail:
        return fail
    for _ in range(3):
        d = _common_subset(rng, a, b)
        fail = _fail_contained("a common subset D not contained in A & B", d, m)
        if fail:
            return fail
    d = random_set(rng, universe)
    if is_contained(d, a) and is_contained(d, b):
        return _fail_contained("a common subset D not contained in A & B", d, m)
    return None


def _check_containment_complement(rng, universe, tol):
    a = random_set(rng, universe)
    pairs = (
        (a, random_set(rng, universe)),
        (a, random_superset(rng, a)),
        (random_subset(rng, a), a),
    )
    for x, y in pairs:
        forward = is_contained(x, y)
        reflected = is_contained(complement(y), complement(x))
        if forward != reflected:
            return (
                f"subset(X, Y) is {forward} but subset(~Y, ~X) is {reflected}\n"
                f"  X[{x.universe[0]}]={_fmt_value(x.endpoints[0])} "
                f"Y[{y.universe[0]}]={_fmt_value(y.endpoints[0])}"
            )
    return None


def _check_favorite_inclusions(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    tf, ff = truth_favorite, false_favorite
    u, m = union(a, b), intersect(a, b)
    return (
        _fail_contained("tf(A | B) not contained in tf(A) | tf(B)", tf(u), union(tf(a), tf(b)))
        or _fail_contained("tf(A) & tf(B) not contained in tf(A & B)", intersect(tf(a), tf(b)), tf(m))
        or _fail_contained("ff(A) | ff(B) not contained in ff(A | B)", union(ff(a), ff(b)), ff(u))
        or _fail_contained("ff(A & B) not contained in ff(A) & ff(B)", ff(m), intersect(ff(a), ff(b)))
    )


def _valid_endpoints(tag: str, s) -> str | None:
    d = s.endpoints
    if not np.all(np.isfinite(d)):
        return f"{tag}: non-finite endpoint"
    if np.any(d < 0.0) or np.any(d > 1.0):
        return f"{tag}: endpoint outside [0, 1]"
    if np.any(d[:, 0::2] > d[:, 1::2]):
        return f"{tag}: lower endpoint exceeds upper endpoint"
    return None


def _check_closure(rng, universe, tol):
    a, b = random_set(rng, universe), random_set(rng, universe)
    factor = float(rng.random()) * 3.0 + 1e-3
    results = (
        ("complement", complement(a)),
        ("union", union(a, b)),
        ("intersect", intersect(a, b)),
        ("difference", difference(a, b)),
        ("add", add(a, b)),
        ("pointwise_product", pointwise_product(a, b)),
        ("cartesian_product", cartesian_product(a, b)),
        ("scalar_mul", scalar_mul(factor, a)),
        ("scalar_div", scalar_div(a, factor)),
        ("truth_favorite", truth_favorite(a)),
        ("false_favorite", false_favorite(a)),
    )
    for tag, s in results:
        fail = _valid_endpoints(tag, s)
        if fail:
            return fail
    return None


def _check_containment_order(rng, universe, tol):
    a = random_set(rng, universe)
    if not is_contained(a, a):
        return "containment is not reflexive"
    b = random_subset(rng, a)
    c = random_subset(rng, b)
    if not is_contained(c, a):
        return "containment is not transitive along C <= B <= A"
    if is_contained(a, b) and not equals(a, b):
        return "mutual containment without equality"
    same = DiscreteINS.from_array(a.universe, a.endpoints.copy())
    if not (is_contained(a, same) and is_contained(same, a) and equals(a, same)):
        return "identical sets not mutually contained and equal"
    return None


def _check_favorite_annihilation(rng, universe, tol):
    a = random_set(rng, universe)
    for tag, s in (("tf", truth_favorite(a)), ("ff", false_favorite(a))):
        if np.any(s.endpoints[:, 2:4] != 0.0):
            return f"{tag}(A) left a nonzero indeterminacy interval"
    return None


_Check = Callable[[np.random.Generator, tuple[str, ...], float], "str | None"]

_REGISTRY: dict[str, tuple[str, _Check]] = {
    "commutativity": ("union/intersect/add/product are symmetric; cartesian commutes up to key transposition", _check_commutativity),
    "associativity": ("union/intersect exactly, add/product within tolerance", _check_associativity),
    "distributivity": ("union and intersection distribute over each other", _check_distributivity),
    "idempotency": ("A|A = A, A&A = A, and both favorite operators are idempotent", _check_idempotency),
    "identity-absorber": ("the empty set absorbs intersection and is the union identity; dually for the universal set", _check_identity_absorber),
    "favorite-additivity": ("both favorite operators distribute over addition", _check_favorite_additivity),
    "absorption": ("A|(A&B) = A and A&(A|B) = A", _check_absorption),
    "demorgan": ("complement swaps union and intersection", _check_demorgan),
    "involution": ("double complement is the identity", _check_involution),
    "lub": ("union contains both operands and sits below every sampled common superset", _check_lub),
    "glb": ("intersection is contained in both operands and sits above every sampled common subset", _check_glb),
    "containment-complement": ("subset(A, B) holds iff subset(~B, ~A) holds", _check_containment_complement),
    "favorite-inclusions": ("the four favorite-operator inclusions over union and intersection", _check_favorite_inclusions),
    "closure": ("every operator yields valid membership intervals", _check_closure),
    "containment-order": ("containment is a partial order with equality as antisymmetry", _check_containment_order),
    "favorite-annihilation": ("favorite operators zero out indeterminacy", _check_favorite_annihilation),
}

#: Law names accepted by the command-line `check` command.
CLI_LAWS: tuple[str, ...] = (
    "commutativity",
    "associativity",
    "distributivity",
    "idempotency",
    "identity-absorber",
    "favorite-additivity",
    "absorption",
    "demorgan",
    "involution",
    "lub",
    "glb",
    "containment-complement",
    "favorite-inclusions",
)

#: Every registered check, including the extra structural invariants.
ALL_CHECKS: tuple[str, ...] = tuple(_REGISTRY)


def run_law(
    name: str,
    *,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
    universes: Sequence[tuple[str, ...]] | None = None,
) -> LawResult:
    """Run one named law over ``trials`` seeded random trials.

    When ``universes`` is given, trials cycle through them; otherwise each
    trial draws a fresh universe of size 1 to 8.
    """
    if name not in _REGISTRY:
        raise UnknownLaw(f"unknown law {name!r}; expected one of: " + ", ".join(CLI_LAWS))
    description, check = _REGISTRY[name]
    rng = rng_from_seed(seed)
    for trial in range(trials):
        if universes:
            universe = tuple(universes[trial % len(universes)])
        else:
            universe = random_universe(rng)
        fail = check(rng, universe, tol)
        if fail is not None:
            return LawResult(
                law=name,
                description=description,
                trials=trials,
                seed=seed,
                tol=tol,
                passed=False,
                counterexample=fail,
                failed_trial=trial,
            )
    return LawResult(
        law=name, description=description, trials=trials, seed=seed, tol=tol, passed=True
    )

