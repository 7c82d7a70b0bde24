import numpy as np
import pytest

from ins import (
    ALL_CHECKS,
    CLI_LAWS,
    UnknownLaw,
    complement,
    equals,
    run_law,
    union,
    universal_set,
)
from ins.laws import _Chunk
from ins.sampling import random_set, random_subset, random_superset, rng_from_seed

from golden_data import build_a

TRIALS = 300


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_law_holds(name):
    result = run_law(name, trials=TRIALS, seed=11)
    assert result.passed, f"{name} failed:\n{result.counterexample}"


def test_cli_laws_subset_of_checks():
    assert set(CLI_LAWS) <= set(ALL_CHECKS)
    assert len(CLI_LAWS) == 13


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        run_law("nonesuch", trials=1)


def test_run_is_deterministic():
    a = run_law("lub", trials=50, seed=123)
    b = run_law("lub", trials=50, seed=123)
    assert a == b


def test_fixed_universes_are_used():
    result = run_law("demorgan", trials=20, seed=5, universes=[("a", "b")])
    assert result.passed


def test_excluded_middle_fails_witness():
    # existence claim: the worked example's first set is a witness
    a = build_a()
    assert not equals(union(a, complement(a)), universal_set(a.universe))
    # and random sets witness it essentially always
    rng = rng_from_seed(3)
    hits = 0
    for _ in range(50):
        s = random_set(rng, ("e1", "e2"))
        hits += not equals(union(s, complement(s)), universal_set(s.universe))
    assert hits == 50


def test_sampler_contracts():
    from ins import is_contained

    rng = rng_from_seed(9)
    for _ in range(200):
        base = random_set(rng, ("u", "v", "w"))
        assert is_contained(base, random_superset(rng, base))
        assert is_contained(random_subset(rng, base), base)


def test_counterexample_rendering():
    from ins import DiscreteINS, nv

    x = DiscreteINS([("e1", nv(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))])
    y = DiscreteINS([("e1", nv(0.1, 0.25, 0.3, 0.4, 0.5, 0.6))])

    def failure(check, *args):
        chunk = _Chunk(0, [x.universe])
        getattr(chunk, check)(*args)
        found = chunk.verdict()
        return found and found[1]

    msg = failure("eq", "lhs != rhs", x.endpoints, y.endpoints, 0.0)
    assert msg is not None
    assert "element e1" in msg and "[0.1,0.2]" in msg and "[0.1,0.25]" in msg
    assert failure("eq", "lhs != rhs", x.endpoints, x.endpoints, 0.0) is None
    # tolerance-based comparison treats tiny drift as equal
    z = DiscreteINS.from_array(("e1",), x.endpoints + 1e-15)
    assert failure("eq", "lhs != rhs", x.endpoints, z.endpoints, 1e-12) is None
    # containment failure points at the first offending element
    msg = failure("contained", "not contained", y.endpoints, x.endpoints)
    assert msg is not None and "element e1" in msg
    assert failure("contained", "ok", x.endpoints, y.endpoints) is None


def test_failed_law_reports_trial(monkeypatch):
    # force a failure to exercise the reporting path end to end
    import ins.laws as laws_mod

    def flaky(chunk, draws, tails, tol):
        trial = chunk.first + np.arange(len(chunk.universes))
        chunk.flag("synthetic failure", trial == 2)

    monkeypatch.setitem(
        laws_mod._REGISTRY, "involution", ("description", laws_mod._Law(flaky, 1))
    )
    result = run_law("involution", trials=10, seed=0)
    assert not result.passed
    assert result.failed_trial == 2
    assert result.counterexample == "synthetic failure"


def test_products_commute_exactly():
    # float multiplication and addition commute, so even the arithmetic
    # operators need no tolerance for the commutativity law
    rng = rng_from_seed(21)
    from ins import add, pointwise_product

    for _ in range(100):
        a = random_set(rng, ("x1", "x2"))
        b = random_set(rng, ("x1", "x2"))
        assert np.array_equal(
            pointwise_product(a, b).endpoints, pointwise_product(b, a).endpoints
        )
        assert np.array_equal(add(a, b).endpoints, add(b, a).endpoints)
