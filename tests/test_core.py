import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import golden_data as gd
from ins import (
    DiscreteINS,
    EMPTY_VALUE,
    InvalidInterval,
    NeutrosophicValue,
    NonPositiveScalar,
    PairedINS,
    UNIVERSAL_VALUE,
    UnitInterval,
    UniverseMismatch,
    add,
    cartesian_product,
    complement,
    difference,
    empty_set,
    equals,
    false_favorite,
    intersect,
    is_contained,
    is_empty,
    nv,
    pointwise_product,
    scalar_div,
    scalar_mul,
    truth_favorite,
    union,
    universal_set,
)
from ins.convexity import FunctionalINS
from ins.dsl import format_set, parse_sets


class TestUnitInterval:
    def test_basic(self):
        iv = UnitInterval(0.2, 0.4)
        assert abs(iv.lo - 0.2) < 1e-15 and abs(iv.hi - 0.4) < 1e-15

    def test_degenerate_point(self):
        iv = UnitInterval(0.5, 0.5)
        assert iv.lo == iv.hi == 0.5

    def test_order_violation(self):
        with pytest.raises(InvalidInterval):
            UnitInterval(0.4, 0.2)

    @pytest.mark.parametrize("lo,hi", [(-0.1, 0.5), (0.5, 1.1), (2.0, 3.0)])
    def test_out_of_range(self, lo, hi):
        with pytest.raises(InvalidInterval):
            UnitInterval(lo, hi)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInterval):
            UnitInterval(float("nan"), 0.5)
        with pytest.raises(InvalidInterval):
            UnitInterval(0.0, float("nan"))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_reflection_is_exact_on_stored_values(self, x):
        # stored endpoints live on the 2**-53 lattice, where 1 - (1 - x) == x
        stored = UnitInterval(x, x).lo
        assert 1.0 - (1.0 - stored) == stored


class TestDiscreteConstruction:
    def test_order_and_lookup(self, set_a):
        assert set_a.universe == ("x1", "x2", "x3")
        assert "x2" in set_a and "x9" not in set_a
        assert len(set_a) == 3
        v = set_a["x2"]
        assert isinstance(v, NeutrosophicValue)
        assert v.truth == UnitInterval(0.5, 0.7)

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteINS([("x1", EMPTY_VALUE), ("x1", EMPTY_VALUE)])

    def test_bad_label(self):
        with pytest.raises(ValueError):
            DiscreteINS([(7, EMPTY_VALUE)])

    def test_from_array_validates(self):
        with pytest.raises(InvalidInterval):
            DiscreteINS.from_array(("x1",), np.array([[0.4, 0.2, 0, 1, 0, 1.0]]))
        with pytest.raises(InvalidInterval):
            DiscreteINS.from_array(("x1",), np.array([[0.0, 1.5, 0, 1, 0, 1.0]]))

    @pytest.mark.parametrize("data", [np.zeros((1, 5)), np.zeros(6), np.zeros((1, 1, 6))],
                             ids=["five-columns", "flat", "three-axes"])
    def test_from_array_refuses_wrong_shape(self, data):
        with pytest.raises(InvalidInterval, match=r"shape \(n, 6\)"):
            DiscreteINS.from_array(("x1",), data)

    def test_from_array_refuses_label_count(self):
        with pytest.raises(ValueError, match="label count does not match"):
            DiscreteINS.from_array(("x1", "x2"), [[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("data", [
        [["0", "x", "0", "1", "0", "1"]],
        [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]],
        [[{}, 0, 1, 1, 1, 1]],
    ], ids=["not-a-number", "ragged", "not-a-float"])
    def test_from_array_refuses_non_numeric_data(self, data):
        # numpy's own conversion error used to escape as a bare ValueError
        with pytest.raises(InvalidInterval, match="endpoints must be numeric"):
            DiscreteINS.from_array(("x1",) * len(data), data)

    def test_paired_labels(self):
        p = PairedINS([(("a", "b"), EMPTY_VALUE)])
        assert p.universe == (("a", "b"),)
        with pytest.raises(ValueError):
            PairedINS([("not-a-pair", EMPTY_VALUE)])

    def test_endpoints_read_only(self, set_a):
        with pytest.raises(ValueError):
            set_a.endpoints[0, 0] = 0.9

    def test_equality_ignores_order(self, set_a):
        reordered = DiscreteINS([(lbl, set_a[lbl]) for lbl in ("x3", "x1", "x2")])
        assert reordered == set_a
        assert equals(reordered, set_a)


class TestGoldenExamples:
    """The worked quality-of-service example, frozen endpoint by endpoint."""

    def test_complement(self, set_a):
        gd.assert_set_matches(complement(set_a), gd.COMPLEMENT_A)

    def test_union(self, set_a, set_b):
        gd.assert_set_matches(union(set_a, set_b), gd.UNION_AB)

    def test_intersect(self, set_a, set_b):
        gd.assert_set_matches(intersect(set_a, set_b), gd.INTERSECT_AB)

    def test_difference(self, set_a, set_b):
        gd.assert_set_matches(difference(set_a, set_b), gd.DIFFERENCE_AB, tol=1e-12)

    def test_add(self, set_a, set_b):
        gd.assert_set_matches(add(set_a, set_b), gd.ADD_AB, tol=1e-12)

    def test_pointwise_product(self, set_a, set_b):
        gd.assert_set_matches(pointwise_product(set_a, set_b), gd.PRODUCT_AB, tol=1e-12)

    def test_truth_favorite(self, set_a):
        gd.assert_set_matches(truth_favorite(set_a), gd.TRUTH_FAVORITE_A, tol=1e-12)

    def test_false_favorite(self, set_a):
        gd.assert_set_matches(false_favorite(set_a), gd.FALSE_FAVORITE_A, tol=1e-12)

    def test_cartesian_pairs(self, set_a, set_b):
        prod = cartesian_product(set_a, set_b)
        assert prod.universe == tuple(
            (x, y) for x in ("x1", "x2", "x3") for y in ("x1", "x2", "x3")
        )
        for pair, row in gd.CARTESIAN_AB.items():
            got = prod.endpoints[prod.universe.index(pair)]
            want = gd._row(row)
            assert np.all(np.abs(got - want) <= 1e-12), pair

    def test_scalar_examples(self, set_a):
        assert scalar_mul(1, set_a) == set_a
        got = scalar_mul(2, set_a).endpoints[0]
        assert np.all(np.abs(got - gd._row(gd.SCALAR_MUL_2A_X1)) <= 1e-12)
        got = scalar_mul(3, set_a).endpoints[2]
        assert np.all(np.abs(got - gd._row(gd.SCALAR_MUL_3A_X3)) <= 1e-12)
        assert scalar_div(set_a, 1) == set_a
        got = scalar_div(set_a, 2).endpoints[0]
        assert np.all(np.abs(got - gd._row(gd.SCALAR_DIV_A2_X1)) <= 1e-12)
        got = scalar_div(set_a, 0.5).endpoints[2]
        assert np.all(np.abs(got - gd._row(gd.SCALAR_DIV_A05_X3)) <= 1e-12)

    def test_difference_self(self, set_a):
        got = difference(set_a, set_a).endpoints[0]
        assert np.all(np.abs(got - gd._row(gd.DIFFERENCE_AA_X1)) <= 1e-12)


class TestPredicates:
    def test_containment_examples(self, set_a, set_b):
        assert not is_contained(set_a, set_b)
        assert not is_contained(set_b, set_a)
        assert is_contained(set_a, set_a)
        assert is_contained(intersect(set_a, set_b), set_a)

    def test_equals_examples(self, set_a, set_b):
        assert equals(set_a, set_a)
        assert not equals(set_a, set_b)
        assert equals(union(set_a, set_b), union(set_b, set_a))

    def test_universe_mismatch(self, set_a):
        other = DiscreteINS([("y1", EMPTY_VALUE)])
        for op in (union, intersect, difference, add, pointwise_product):
            with pytest.raises(UniverseMismatch):
                op(set_a, other)
        with pytest.raises(UniverseMismatch):
            is_contained(set_a, other)
        with pytest.raises(UniverseMismatch):
            equals(set_a, other)

    def test_mixed_kinds_rejected(self, set_a, set_b):
        paired = cartesian_product(set_a, set_b)
        with pytest.raises(UniverseMismatch):
            union(set_a, paired)

    def test_reordered_universe_allowed(self, set_a):
        reordered = DiscreteINS([(lbl, set_a[lbl]) for lbl in ("x2", "x3", "x1")])
        u = union(set_a, reordered)
        assert u == set_a
        assert u.universe == set_a.universe  # left operand's order wins


class TestEmptyAndUniversal:
    def test_is_empty(self, set_a):
        universe = ("x1", "x2")
        assert is_empty(empty_set(universe))
        assert not is_empty(set_a)
        assert is_empty(complement(universal_set(universe)))

    def test_complement_maps_universal_to_empty(self):
        s = DiscreteINS([("x1", UNIVERSAL_VALUE)])
        assert complement(s)["x1"] == EMPTY_VALUE

    def test_absorbers(self, set_a):
        phi = empty_set(set_a.universe)
        full = universal_set(set_a.universe)
        assert intersect(set_a, phi) == phi
        assert union(set_a, full) == full
        assert union(set_a, phi) == set_a
        assert intersect(set_a, full) == set_a

    def test_excluded_middle_fails(self, set_a):
        # the lattice complement is not a boolean complement
        assert not equals(
            union(set_a, complement(set_a)), universal_set(set_a.universe)
        )

    def test_empty_universe_degenerate(self):
        e1 = DiscreteINS([])
        e2 = DiscreteINS([])
        assert is_empty(e1)
        assert equals(e1, e2)
        assert is_contained(e1, e2)
        assert len(union(e1, e2)) == 0


class TestArithmeticIdentities:
    def test_add_identity(self, set_a):
        zero = DiscreteINS([(lbl, nv(0, 0, 0, 0, 0, 0)) for lbl in set_a.universe])
        assert add(set_a, zero) == set_a

    def test_pointwise_identity(self, set_a):
        ident = DiscreteINS([(lbl, EMPTY_VALUE) for lbl in set_a.universe])
        assert pointwise_product(set_a, ident) == set_a

    def test_cartesian_identity_row(self, set_b):
        left = DiscreteINS([("z", EMPTY_VALUE)])
        prod = cartesian_product(left, set_b)
        for label in set_b.universe:
            assert prod[("z", label)] == set_b[label]

    def test_scalar_errors(self, set_a):
        # an infinite factor would make NaN endpoints (inf * 0)
        for bad in (0, -1, -0.5, math.inf, float("1" + "0" * 400)):
            with pytest.raises(NonPositiveScalar):
                scalar_mul(bad, set_a)
            with pytest.raises(NonPositiveScalar):
                scalar_div(set_a, bad)

    def test_favorites_fixed_points(self, set_a):
        tfa = truth_favorite(set_a)
        assert truth_favorite(tfa) == tfa
        ffa = false_favorite(set_a)
        assert false_favorite(ffa) == ffa

    def test_involution_exact_on_file_style_values(self, set_a):
        assert complement(complement(set_a)) == set_a


class TestNegativeZero:
    """-0.0 is stored as +0.0, as UnitInterval stores it: a set file has no
    '-0', so a set holding one would not round-trip through format_set."""

    ROW = [-0.0, 0.5, -0.0, -0.0, 0.0, 1.0]

    def test_from_array_stores_positive_zero(self):
        s = DiscreteINS.from_array(["x"], [self.ROW])
        assert not np.signbit(s.endpoints).any()
        assert s == DiscreteINS([("x", nv(*self.ROW))])
        text = format_set(s, name="A")
        assert text == "set A\n  x : [0,0.5] [0,0] [0,1]\nend\n"
        assert parse_sets(text)["A"] == s

    def test_oracle_values_store_positive_zero(self):
        f = FunctionalINS(1, batch=lambda points: np.tile(self.ROW, (len(points), 1)))
        assert not np.signbit(f.batch(np.zeros((3, 1)))).any()
