"""Batched oracles and the chunked scan against the frozen scalar reference.

``scalar_reference`` keeps the one-call-per-point scanner and family oracles
as they were before the scan was batched. Reports must agree field for field
(compared by ``repr``, so a numpy scalar in place of a Python number fails
too), and every family's scalar ``membership`` must return the reference's
value exactly.
"""

import math

import numpy as np
import pytest

import scalar_reference as ref
from ins import (
    Box,
    FunctionalINS,
    InsError,
    InvalidInterval,
    VIOLATED,
    bimodal,
    check_convex,
    check_strongly_convex,
    gaussian,
    intersect_functional,
    nv,
    triangular,
)
from ins.convexity import _endpoints
from ins.core import UnitInterval
from ins.families import random_convex, random_strongly_convex
from ins.sampling import rng_from_seed

SEEDS = range(200)


def _pair(new_make, ref_make, seed, dim):
    """The same random family built by the package and by the reference."""
    return new_make(rng_from_seed(seed), dim), ref_make(rng_from_seed(seed), dim)


def _intersected(new_make, ref_make):
    def build(seed, dim):
        a, ra = _pair(new_make, ref_make, seed, dim)
        b, rb = _pair(new_make, ref_make, seed + 10_000, dim)
        return intersect_functional(a, b), ref.intersect_functional(ra, rb)

    return build


def _bimodal(seed, dim):
    separation = 2.0 + 4.0 * rng_from_seed(seed).random()
    return bimodal(separation, dim), ref.bimodal(separation, dim)


FAMILIES = {
    "random_convex": lambda seed, dim: _pair(random_convex, ref.random_convex, seed, dim),
    "random_strongly_convex": lambda seed, dim: _pair(
        random_strongly_convex, ref.random_strongly_convex, seed, dim),
    "bimodal": _bimodal,
    "intersect_convex": _intersected(random_convex, ref.random_convex),
    "intersect_strongly_convex": _intersected(random_strongly_convex,
                                              ref.random_strongly_convex),
}
HALF_WIDTH = {"random_convex": 2.0, "random_strongly_convex": 1.5, "bimodal": 3.0,
              "intersect_convex": 2.0, "intersect_strongly_convex": 1.5}


def _both(strict, new_set, ref_set, box, **kw):
    if strict:
        return check_strongly_convex(new_set, box, **kw), ref.check_strongly_convex(ref_set, box, **kw)
    return check_convex(new_set, box, **kw), ref.check_convex(ref_set, box, **kw)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_reports_match_scalar_reference(family, strict, dim):
    box = Box(((-HALF_WIDTH[family], HALF_WIDTH[family]),) * dim)
    verdicts = set()
    for seed in SEEDS:
        new_set, ref_set = FAMILIES[family](seed, dim)
        got, want = _both(strict, new_set, ref_set, box, trials=8, lambda_grid=5, seed=seed)
        assert repr(got) == repr(want), (family, seed)
        verdicts.add(got.verdict)
    if family == "bimodal" or (strict and family in ("random_convex", "intersect_convex")):
        assert VIOLATED in verdicts


def test_random_convex_draws_every_kind():
    # the first draw of random_convex picks the kind: triangular, plateau or
    # gaussian; the differential test above must see all three
    kinds = {int(rng_from_seed(seed).integers(0, 3)) for seed in SEEDS}
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("dim", [1, 2])
def test_gaussian_witnesses_match(dim):
    # a tolerance of 1e-4 makes the strict check fail near the flat top and
    # in the tails, so witnesses carry exp() values in their last bits
    box = Box(((-1.5, 1.5),) * dim)
    inner = 0
    for seed in SEEDS:
        rng = rng_from_seed(seed)
        center, sigma = float(rng.uniform(-1, 1)), float(0.3 + rng.random())
        got, want = _both(True, gaussian(center, sigma, dim), ref.gaussian(center, sigma, dim),
                          box, trials=20, lambda_grid=5, seed=seed, tol=1e-4)
        assert repr(got) == repr(want), seed
        if got.witness is not None and 0.0 < got.witness.lhs < 1.0:
            inner += 1
    assert inner >= 50


def test_strict_redraws_match_on_a_one_ulp_box():
    # lo + r*span lands on lo or on hi, so about half of all pairs are equal
    # and are redrawn
    box = Box(((1.0, math.nextafter(1.0, 2.0)),))
    for seed in SEEDS:
        got, want = _both(True, triangular(0, 4), ref.triangular(0, 4), box,
                          trials=50, lambda_grid=3, seed=seed)
        assert repr(got) == repr(want), seed


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_only_oracles_match(strict, dim):
    # the reference families are scalar-only FunctionalINS: the scan loops
    # over them through the derived batch oracle
    box = Box(((-2.0, 2.0),) * dim)
    for seed in range(0, 200, 4):
        _, ref_set = FAMILIES["intersect_convex"](seed, dim)
        checker = check_strongly_convex if strict else check_convex
        ref_checker = ref.check_strongly_convex if strict else ref.check_convex
        got = checker(ref_set, box, trials=10, lambda_grid=5, seed=seed)
        assert repr(got) == repr(ref_checker(ref_set, box, trials=10, lambda_grid=5, seed=seed))


def test_full_scans_match():
    # full-length scans cross the largest chunk boundary
    box = Box(((-2.0, 2.0),))
    for seed in range(2):
        new_set, ref_set = FAMILIES["intersect_convex"](seed, 1)
        got, want = _both(False, new_set, ref_set, box, trials=600, seed=seed)
        assert repr(got) == repr(want)


# --------------------------------------------------------------------------
# scalar views


def _grid(dim):
    if dim == 1:
        return [np.array([x]) for x in np.linspace(-3.0, 3.0, 1201)]
    if dim == 2:
        xs = np.linspace(-2.5, 2.5, 41)
        return [np.array([x, y]) for x in xs for y in xs]
    return list(rng_from_seed(dim).uniform(-2.0, 2.0, (400, dim)))


def _named_pairs(dim):
    yield "triangular", triangular(0.3, 1.1, dim), ref.triangular(0.3, 1.1, dim)
    yield "gaussian", gaussian(-0.2, 0.7, dim), ref.gaussian(-0.2, 0.7, dim)
    yield "bimodal", bimodal(4.0, dim), ref.bimodal(4.0, dim)
    for seed in range(6):
        yield f"random_convex/{seed}", *_pair(random_convex, ref.random_convex, seed, dim)
    yield "random_strongly_convex", *_pair(random_strongly_convex,
                                           ref.random_strongly_convex, 3, dim)
    yield "intersect", *FAMILIES["intersect_convex"](7, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scalar_views_equal_reference(dim):
    points = _grid(dim)
    for name, new_set, ref_set in _named_pairs(dim):
        want = [ref_set.membership(p) for p in points]
        assert [new_set.membership(p) for p in points] == want, name
        rows = new_set.batch(np.array(points))
        assert np.array_equal(rows, np.array([_endpoints(v) for v in want])), name


def test_nan_points_behave_as_before():
    # max(0.0, nan) is 0.0, so the piecewise-linear bumps read a NaN point as
    # lying outside their support; exp(nan) is NaN, which UnitInterval refuses
    p = np.array([float("nan")])
    for name, new_set, ref_set in _named_pairs(1):
        try:
            want = ref_set.membership(p)
        except InvalidInterval:
            with pytest.raises(InvalidInterval):
                new_set.membership(p)
        else:
            assert new_set.membership(p) == want, name


# --------------------------------------------------------------------------
# chunk validation


def _good(points):
    return np.tile([0.2, 0.4, 0.1, 0.3, 0.5, 0.6], (len(points), 1))


def _bad_value(row, col, value):
    def batch(points):
        out = _good(points)
        out[row % len(points), col] = value
        return out

    return batch


BAD_BATCHES = {
    "short-rows": lambda p: _good(p)[:, :5],
    "missing-row": lambda p: _good(p)[1:],
    "flat": lambda p: _good(p).ravel(),
    "not-numeric": lambda p: [["x"] * 6] * len(p),
    "none": lambda p: None,
    "nan": _bad_value(0, 3, float("nan")),
    "inf": _bad_value(0, 1, float("inf")),
    "above-one": _bad_value(2, 5, 1.5),
    "below-zero": _bad_value(1, 0, -0.25),
    "lo-above-hi": _bad_value(0, 2, 0.9),
}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("kind", list(BAD_BATCHES))
def test_bad_batch_raises_invalid_interval(kind, strict):
    target = FunctionalINS(1, batch=BAD_BATCHES[kind])
    checker = check_strongly_convex if strict else check_convex
    with pytest.raises(InvalidInterval):
        checker(target, Box(((-1.0, 1.0),)), trials=20, seed=0)


@pytest.mark.parametrize("kind", list(BAD_BATCHES))
def test_batch_view_is_checked(kind):
    # the constructor wraps the oracle, so its batch refuses what a scan would
    with pytest.raises(InvalidInterval):
        FunctionalINS(1, batch=BAD_BATCHES[kind]).batch(np.zeros((3, 1)))


def test_batch_view_is_snapped():
    snapped = UnitInterval(0.1, 0.1).lo
    assert snapped != 0.1  # 0.1 lies off the 2^-53 lattice
    rows = FunctionalINS(1, batch=lambda p: np.full((len(p), 6), 0.1)).batch(np.zeros((2, 1)))
    assert rows.tolist() == [[snapped] * 6] * 2


@pytest.mark.parametrize("bad", [_bad_value(0, 1, 1.5), _bad_value(0, 4, -0.25)],
                         ids=["truth-above-one", "falsity-below-zero"])
def test_bad_operand_is_not_masked_by_intersection(bad):
    # the min on truth and the max on falsity would hide these values
    both = intersect_functional(FunctionalINS(1, batch=bad), triangular(0, 1))
    with pytest.raises(InvalidInterval):
        check_convex(both, Box(((-1.0, 1.0),)), trials=20, seed=0)
    with pytest.raises(InvalidInterval):
        both.membership(np.array([0.0]))


@pytest.mark.parametrize("oracle", [
    lambda p: (0.2, 0.4, 0.1, 0.3, 0.5, 0.6),
    lambda p: 0.5,
    lambda p: None,
    lambda p: nv(0.2, 0.4, 0.1, float("nan"), 0.5, 0.6),
    lambda p: nv(0.2, 0.4, 0.1, 0.3, 0.7, 0.6),
], ids=["tuple", "float", "none", "nan", "lo-above-hi"])
def test_bad_scalar_oracle_raises_invalid_interval(oracle):
    target = FunctionalINS(1, oracle)
    with pytest.raises(InvalidInterval) as info:
        check_convex(target, Box(((-1.0, 1.0),)), trials=5, seed=0)
    assert isinstance(info.value, InsError)


def test_batch_output_is_snapped_like_unit_interval():
    # a user batch need not snap: the scan snaps it, so it reports what the
    # equivalent scalar oracle (whose values UnitInterval snaps) reports
    def batch(points):
        b = np.exp(-np.abs(points[:, 0]) / 3.0)
        return np.stack((b / 3, b, (1 - b) / 7, 1 - b, (1 - b) / 11, 1 - b), axis=1)

    scalar = FunctionalINS(1, lambda p: nv(*batch(np.asarray(p)[None, :])[0].tolist()))
    box = Box(((-2.0, 2.0),))
    for seed in range(20):
        for checker in (check_convex, check_strongly_convex):
            got = checker(FunctionalINS(1, batch=batch), box, trials=30, seed=seed, tol=1e-3)
            assert repr(got) == repr(checker(scalar, box, trials=30, seed=seed, tol=1e-3))
    assert FunctionalINS(1, batch=batch).membership(np.array([0.4])) == scalar.membership(
        np.array([0.4]))


def test_functional_set_needs_an_oracle():
    with pytest.raises(ValueError):
        FunctionalINS(1)
