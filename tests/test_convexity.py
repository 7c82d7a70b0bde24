import numpy as np
import pytest

from ins import (
    Box,
    ConvexityReport,
    DimensionMismatch,
    FunctionalINS,
    InvalidDomain,
    InvalidParameter,
    NO_VIOLATION,
    UnknownFamily,
    VIOLATED,
    bimodal,
    check_convex,
    check_strongly_convex,
    gaussian,
    intersect_functional,
    nv,
    parse_family,
    triangular,
)
from ins.convexity import COMPONENTS, _endpoints
from ins.families import random_convex, random_strongly_convex
from ins.sampling import rng_from_seed


def dense_grid_violations(f, lo, hi, step, strict=False, tol=1e-9):
    """Independent oracle: enumerate all grid triples x_i < x_j < x_k on a
    1-D grid and test the segment inequalities with x_j as the mixture point.

    Deliberately brute force and separate from the checker's code path.
    """
    xs = []
    x = lo
    while x <= hi + 1e-12:
        xs.append(x)
        x += step
    values = [_endpoints(f.membership(np.array([x]))) for x in xs]
    violations = []
    n = len(xs)
    for i in range(n):
        for k in range(i + 2, n):
            for j in range(i + 1, k):
                for c in range(6):
                    mid, a, b = values[j][c], values[i][c], values[k][c]
                    if c < 2:
                        bad = mid <= min(a, b) + tol if strict else mid < min(a, b) - tol
                    else:
                        bad = mid >= max(a, b) - tol if strict else mid > max(a, b) + tol
                    if bad:
                        violations.append((xs[i], xs[j], xs[k], COMPONENTS[c]))
    return violations


def constant_set(value=None, dimension=1):
    if value is None:
        value = nv(0.3, 0.6, 0.1, 0.2, 0.2, 0.4)
    return FunctionalINS(dimension, lambda p: value)


class TestOracle:
    def test_triangular_clean_on_dense_grid(self):
        assert dense_grid_violations(triangular(0, 1), -2.0, 2.0, 0.05) == []

    def test_bimodal_violates_on_dense_grid(self):
        violations = dense_grid_violations(bimodal(4), -3.0, 3.0, 0.25)
        assert violations
        x1, xm, x2, component = violations[0]
        assert component in ("infT", "supT")
        # re-derive the failing comparison by hand from the bump formula
        bump = lambda x: min(
            1.0, max(0.0, 1 - abs(x - 2)) + max(0.0, 1 - abs(x + 2))
        )
        assert bump(xm) < min(bump(x1), bump(x2)) - 1e-9

    def test_mode_midpoint_is_a_violation(self):
        # segment between the two modes passes through the dead zone
        f = bimodal(4).membership
        lhs = f(np.array([0.0])).truth.lo
        rhs = min(f(np.array([-2.0])).truth.lo, f(np.array([2.0])).truth.lo)
        assert lhs == 0.0 and rhs == 1.0

    def test_gaussian_strictly_clean_on_dense_grid(self):
        assert dense_grid_violations(gaussian(0, 1), -1.0, 1.0, 0.1, strict=True) == []

    def test_triangular_not_strictly_convex_on_dense_grid(self):
        # flat zero region breaks strictness
        violations = dense_grid_violations(triangular(0, 1), -2.0, 2.0, 0.2, strict=True)
        assert violations


class TestCheckConvex:
    def test_triangular_passes(self):
        report = check_convex(
            triangular(0, 1), Box(((-2.0, 2.0),)), trials=1000, lambda_grid=11, seed=42
        )
        assert report.verdict == NO_VIOLATION
        assert report.samples_checked == 11000
        assert report.witness is None

    def test_constant_passes(self):
        report = check_convex(constant_set(), Box(((-5.0, 5.0),)), trials=200, seed=0)
        assert report.verdict == NO_VIOLATION

    def test_bimodal_detected_with_sound_witness(self):
        box = Box(((-3.0, 3.0),))
        report = check_convex(bimodal(4), box, trials=1000, lambda_grid=11, seed=0)
        assert report.verdict == VIOLATED
        w = report.witness
        assert w is not None
        assert w.component in COMPONENTS
        # witness re-evaluates to the reported numbers and breaks the
        # inequality by more than the tolerance
        f = bimodal(4).membership
        mid = w.lam * np.array(w.x1) + (1 - w.lam) * np.array(w.x2)
        c = COMPONENTS.index(w.component)
        lhs = _endpoints(f(mid))[c]
        ends = (_endpoints(f(np.array(w.x1)))[c], _endpoints(f(np.array(w.x2)))[c])
        assert lhs == pytest.approx(w.lhs, abs=1e-12)
        assert min(ends) == pytest.approx(w.rhs, abs=1e-12)
        assert lhs < w.rhs - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_endpoint_lambdas_never_witness(self, seed):
        report = check_convex(
            bimodal(4), Box(((-3.0, 3.0),)), trials=1000, lambda_grid=11, seed=seed
        )
        assert report.verdict == VIOLATED
        assert report.witness.lam not in (0.0, 1.0)

    def test_deterministic_reports(self):
        args = (bimodal(4), Box(((-3.0, 3.0),)))
        a = check_convex(*args, trials=500, lambda_grid=9, seed=77, tol=1e-9)
        b = check_convex(*args, trials=500, lambda_grid=9, seed=77, tol=1e-9)
        assert a == b
        assert isinstance(a, ConvexityReport)

    def test_detection_rate_over_seeds(self):
        hits = sum(
            check_convex(
                bimodal(4), Box(((-3.0, 3.0),)), trials=1000, lambda_grid=11, seed=s
            ).verdict
            == VIOLATED
            for s in range(20)
        )
        assert hits == 20


class TestCheckStronglyConvex:
    def test_gaussian_passes(self):
        report = check_strongly_convex(
            gaussian(0, 1), Box(((-1.0, 1.0),)), trials=1000, lambda_grid=11, seed=5
        )
        assert report.verdict == NO_VIOLATION
        assert report.samples_checked == 11000

    def test_constant_fails_strictness(self):
        report = check_strongly_convex(
            constant_set(), Box(((-1.0, 1.0),)), trials=50, seed=0
        )
        assert report.verdict == VIOLATED
        # equality is not strict: lhs == rhs
        assert report.witness.lhs == report.witness.rhs
        assert 0.0 < report.witness.lam < 1.0

    def test_triangular_fails_on_flat_region(self):
        report = check_strongly_convex(
            triangular(0, 1), Box(((-2.0, 2.0),)), trials=1000, lambda_grid=11, seed=3
        )
        assert report.verdict == VIOLATED

    def test_lambda_grid_strictly_interior(self):
        for seed in range(5):
            report = check_strongly_convex(
                constant_set(), Box(((-1.0, 1.0),)), trials=20, lambda_grid=3, seed=seed
            )
            assert report.verdict == VIOLATED
            assert 0.0 < report.witness.lam < 1.0


class TestIntersectFunctional:
    def test_pointwise_composition(self):
        a, b = triangular(0, 1), triangular(0.5, 1)
        both = intersect_functional(a, b)
        for x in (-0.7, 0.0, 0.3, 1.2):
            p = np.array([x])
            va, vb, v = a.membership(p), b.membership(p), both.membership(p)
            assert v.truth.lo == min(va.truth.lo, vb.truth.lo)
            assert v.truth.hi == min(va.truth.hi, vb.truth.hi)
            assert v.indeterminacy.lo == max(va.indeterminacy.lo, vb.indeterminacy.lo)
            assert v.falsity.hi == max(va.falsity.hi, vb.falsity.hi)

    def test_idempotent(self):
        a = gaussian(0.2, 0.8)
        both = intersect_functional(a, a)
        for x in (-1.0, 0.0, 0.4):
            p = np.array([x])
            assert both.membership(p) == a.membership(p)

    def test_empty_value_absorbs(self):
        absorber = constant_set(nv(0, 0, 1, 1, 1, 1))
        both = intersect_functional(triangular(0, 1), absorber)
        for x in (-0.5, 0.0, 0.5):
            assert both.membership(np.array([x])) == nv(0, 0, 1, 1, 1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect_functional(triangular(0, 1, dimension=1), triangular(0, 1, dimension=2))

    def test_intersection_theorem_small(self):
        rng = rng_from_seed(404)
        box = Box(((-2.0, 2.0),))
        for i in range(10):
            both = intersect_functional(random_convex(rng), random_convex(rng))
            report = check_convex(both, box, trials=200, lambda_grid=11, seed=900 + i)
            assert report.verdict == NO_VIOLATION, report.witness

    def test_strong_intersection_theorem_small(self):
        rng = rng_from_seed(405)
        box = Box(((-1.5, 1.5),))
        for i in range(10):
            both = intersect_functional(
                random_strongly_convex(rng), random_strongly_convex(rng)
            )
            report = check_strongly_convex(
                both, box, trials=200, lambda_grid=11, seed=950 + i
            )
            assert report.verdict == NO_VIOLATION, report.witness


class TestValidation:
    def test_box_validation(self):
        with pytest.raises(InvalidDomain):
            Box(())
        with pytest.raises(InvalidDomain):
            Box(((2.0, -2.0),))
        with pytest.raises(InvalidDomain):
            Box(((0.0, float("inf")),))
        # finite bounds whose width overflows to infinity gave NaN points
        # and a silent no-violation-found for the bimodal family
        with pytest.raises(InvalidDomain):
            Box(((-1e308, 1e308),))
        assert Box(((0.0, 0.0), (1.0, 2.0))).dimension == 2

    def test_point_box_refused_by_strict_check(self):
        # every pair drawn from a point box is equal, so the redraws for
        # distinct segment ends could never stop
        for bounds in (((0.0, 0.0),), ((1.0, 1.0), (-2.0, -2.0))):
            with pytest.raises(InvalidDomain):
                check_strongly_convex(triangular(0, 1, dimension=len(bounds)), Box(bounds))
        # one axis of nonzero width is enough, and the plain check never redraws
        report = check_strongly_convex(
            gaussian(0, 1, dimension=2), Box(((0.0, 0.0), (-1.0, 1.0))), trials=50
        )
        assert report.verdict == NO_VIOLATION
        report = check_convex(triangular(0, 1), Box(((0.0, 0.0),)), trials=10)
        assert report.verdict == NO_VIOLATION

    def test_dimension_mismatch_is_invalid_domain(self):
        with pytest.raises(InvalidDomain):
            check_convex(triangular(0, 1, dimension=2), Box(((-1.0, 1.0),)))

    def test_parameter_validation(self):
        box = Box(((-1.0, 1.0),))
        f = triangular(0, 1)
        with pytest.raises(ValueError):
            check_convex(f, box, trials=0)
        with pytest.raises(ValueError):
            check_convex(f, box, lambda_grid=1)
        with pytest.raises(ValueError):
            check_convex(f, box, tol=-1.0)
        for kwargs in ({"tol": float("nan")}, {"tol": float("inf")}, {"seed": -1}):
            with pytest.raises(InvalidParameter):
                check_convex(f, box, **kwargs)
            with pytest.raises(InvalidParameter):
                check_strongly_convex(f, box, **kwargs)

    def test_family_parameter_validation(self):
        with pytest.raises(ValueError):
            triangular(0, 0)
        with pytest.raises(ValueError):
            gaussian(0, -1)
        with pytest.raises(ValueError):
            bimodal(-1)
        # NaN slipped past width <= 0 and became the all-zero bump
        for make in (lambda: triangular(0, float("nan")), lambda: triangular(float("inf"), 1),
                     lambda: gaussian(float("nan"), 1), lambda: bimodal(float("inf"))):
            with pytest.raises(InvalidDomain):
                make()


class TestMultiDimensional:
    def test_radial_families_in_2d(self):
        box = Box(((-1.5, 1.5), (-1.5, 1.5)))
        report = check_convex(
            triangular(0, 1, dimension=2), box, trials=300, lambda_grid=7, seed=1
        )
        assert report.verdict == NO_VIOLATION
        report = check_strongly_convex(
            gaussian(0, 1, dimension=2), box, trials=300, lambda_grid=7, seed=1
        )
        assert report.verdict == NO_VIOLATION

    def test_bimodal_detected_in_2d(self):
        box = Box(((-3.0, 3.0), (-1.0, 1.0)))
        report = check_convex(
            bimodal(4, dimension=2), box, trials=2000, lambda_grid=11, seed=2
        )
        assert report.verdict == VIOLATED


class TestParseFamily:
    def test_known_specs(self):
        assert parse_family("triangular(0,1)").dimension == 1
        assert parse_family("gaussian(0.5, 2)").dimension == 1
        assert parse_family("bimodal(4)", dimension=2).dimension == 2
        assert parse_family("triangular").dimension == 1  # defaults
        assert parse_family("triangular()").dimension == 1

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            parse_family("sombrero(1)")

    def test_malformed_specs(self):
        with pytest.raises(ValueError):
            parse_family("triangular(0,1,2)")
        with pytest.raises(ValueError):
            parse_family("triangular(a)")
        with pytest.raises(ValueError):
            parse_family("tri angular(0,1)")
