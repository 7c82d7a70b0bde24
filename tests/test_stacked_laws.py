"""The stacked law engine and the endpoint kernels against the frozen
per-trial reference.

``law_reference`` keeps the law checker, samplers and operator formulas as
they were before trials were stacked. Every ``LawResult`` must agree field
for field, including which trial failed and the counterexample text, and
every operator must return the reference's endpoints bit for bit.
"""

import numpy as np
import pytest

import ins.core
import law_reference as ref
from ins import (
    ALL_CHECKS,
    DiscreteINS,
    InsError,
    InvalidParameter,
    PairedINS,
    run_law,
)
from ins.core import _aligned, _like
from ins.sampling import random_set, random_subset, random_superset, rng_from_seed

SEEDS = range(200)


def _universe(size: int, prefix: str = "u") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(size))


FIXED = {
    "n24": [_universe(24)],
    "n64": [_universe(64)],
    "n96": [_universe(96)],
    "mixed": [_universe(3, "a"), _universe(24, "b"), (), _universe(1, "c"), _universe(96, "d")],
}


def _same(name, **kwargs):
    assert run_law(name, **kwargs) == ref.run_law(name, **kwargs)


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_fresh_universes_match_reference(name):
    for seed in SEEDS:
        _same(name, trials=(1, 2, 3, 30)[seed % 4], seed=seed)


@pytest.mark.parametrize("universes", FIXED, ids=str)
@pytest.mark.parametrize("name", ALL_CHECKS)
def test_fixed_universes_match_reference(name, universes):
    for seed in range(8):
        _same(name, trials=(1, 2, 3, 30)[seed % 4], seed=seed, universes=FIXED[universes])


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_long_runs_match_reference(name):
    for seed in (0, 1):
        _same(name, trials=1000, seed=seed)


def test_chunks_split_long_runs(monkeypatch):
    # many small chunks, and chunks of one trial wider than the cap, must
    # report as one stack does
    import ins.laws

    monkeypatch.setattr(ins.laws, "_MAX_ROWS", 16)
    for name in ALL_CHECKS:
        _same(name, trials=60, seed=3)
        _same(name, trials=4, seed=3, universes=FIXED["mixed"])


def _recorder(monkeypatch, module, names, rows):
    """Record the endpoints every call of ``module.<name>`` returns."""
    for name in names:
        def record(*args, _fn=getattr(module, name), **kwargs):
            result = _fn(*args, **kwargs)
            rows.append(getattr(result, "endpoints", result))
            return result

        monkeypatch.setattr(module, name, record)


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_draws_match_reference(name, monkeypatch):
    # a passing report says nothing about which sets were drawn, so compare
    # the operands themselves: the k-th set of every trial, stacked in trial
    # order, must be the k-th stack of every chunk, concatenated
    import ins.laws

    for kwargs in ({"trials": 300, "seed": 1}, {"trials": 7, "seed": 2, "universes": FIXED["mixed"]}):
        new, old = [], []
        _recorder(monkeypatch, ins.laws, ("_set", "_bound"), new)
        _recorder(monkeypatch, ref, ("random_set", "random_superset", "random_subset",
                                     "_common_superset", "_common_subset"), old)
        assert run_law(name, **kwargs).passed and ref.run_law(name, **kwargs).passed
        monkeypatch.undo()
        per_trial = len(old) // kwargs["trials"]
        assert per_trial and len(new) % per_trial == 0
        for k in range(per_trial):
            stacked = np.concatenate(new[k::per_trial])
            assert stacked.tobytes() == np.concatenate(old[k::per_trial]).tobytes()


# --------------------------------------------------------------------------
# mutation: the same broken operator in both engines gives the same report


def _max_to_min_union(da, db):
    out = np.empty_like(da)
    out[..., :2] = np.minimum(da[..., :2], db[..., :2])
    out[..., 2:] = np.minimum(da[..., 2:], db[..., 2:])
    return out


def _unsaturated_add(da, db):
    return da + db


def _unreflected_complement(d):
    out = np.empty_like(d)
    out[..., 0:2] = d[..., 4:6]
    out[..., 2:4] = d[..., 2:4]
    out[..., 4:6] = d[..., 0:2]
    return out


def _binary(kernel):
    return lambda a, b: _like(a, kernel(*_aligned(a, b)))


MUTATIONS = {
    "union": ("_union", _max_to_min_union, _binary(_max_to_min_union)),
    "add": ("_add", _unsaturated_add, _binary(_unsaturated_add)),
    "complement": ("_complement", _unreflected_complement,
                   lambda a: _like(a, _unreflected_complement(a.endpoints))),
}


@pytest.mark.parametrize("op", MUTATIONS)
def test_mutations_report_alike(op, monkeypatch):
    kernel, broken_kernel, broken_op = MUTATIONS[op]
    monkeypatch.setattr(ins.core, kernel, broken_kernel)
    monkeypatch.setattr(ref, op, broken_op)
    caught = set()
    for name in ALL_CHECKS:
        for seed in range(5):
            for kwargs in ({"trials": 30}, {"trials": 5, "universes": FIXED["mixed"]}):
                result = run_law(name, seed=seed, **kwargs)
                assert result == ref.run_law(name, seed=seed, **kwargs)
                if not result.passed:
                    caught.add(name)
    assert caught  # the break is visible to some law


# --------------------------------------------------------------------------
# kernels: every public operator against the frozen formulas


def _pair(rng, size: int, permute: bool):
    universe = _universe(size)
    a, b = ref.random_set(rng, universe), ref.random_set(rng, universe)
    if permute:
        order = rng.permutation(size)
        b = DiscreteINS.from_array([universe[i] for i in order], b.endpoints[order])
    return a, b


def _identical(x, y):
    assert type(x) is type(y) and x.universe == y.universe
    assert x.endpoints.tobytes() == y.endpoints.tobytes()


BINARY = ("union", "intersect", "difference", "add", "pointwise_product")
UNARY = ("complement", "truth_favorite", "false_favorite")


@pytest.mark.parametrize("size", [0, 1, 5, 64])
@pytest.mark.parametrize("permute", [False, True], ids=["same-order", "permuted"])
def test_operators_match_reference(size, permute):
    rng = rng_from_seed(100 + size)
    for _ in range(20):
        a, b = _pair(rng, size, permute)
        for name in BINARY:
            _identical(getattr(ins.core, name)(a, b), getattr(ref, name)(a, b))
        for name in UNARY:
            _identical(getattr(ins.core, name)(a), getattr(ref, name)(a))
        factor = float(rng.random()) * 3.0 + 1e-3
        _identical(ins.core.scalar_mul(factor, a), ref.scalar_mul(factor, a))
        _identical(ins.core.scalar_div(a, factor), ref.scalar_div(a, factor))
        _identical(ins.core.cartesian_product(a, b), ref.cartesian_product(a, b))
        for name in ("is_contained", "equals"):
            for x, y in ((a, b), (b, a), (a, a)):
                assert getattr(ins.core, name)(x, y) is getattr(ref, name)(x, y)


def test_paired_operators_match_reference():
    rng = rng_from_seed(7)
    for _ in range(20):
        a, b = _pair(rng, 3, False)
        c, d = _pair(rng, 2, False)
        p, q = ref.cartesian_product(a, c), ref.cartesian_product(b, d)
        order = rng.permutation(len(q))
        q = PairedINS.from_array([q.universe[i] for i in order], q.endpoints[order])
        for name in BINARY:
            _identical(getattr(ins.core, name)(p, q), getattr(ref, name)(p, q))
        for name in UNARY:
            _identical(getattr(ins.core, name)(p), getattr(ref, name)(p))
        assert ins.core.is_contained(p, q) is ref.is_contained(p, q)


def test_samplers_keep_their_draws():
    for seed in range(50):
        new, old = rng_from_seed(seed), rng_from_seed(seed)
        universe = _universe(seed % 9)
        a = random_set(new, universe)
        _identical(a, ref.random_set(old, universe))
        _identical(random_superset(new, a), ref.random_superset(old, a))
        _identical(random_subset(new, a), ref.random_subset(old, a))
        assert new.random() == old.random()


# --------------------------------------------------------------------------
# run parameters


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": -1e-12},
    {"seed": -1},
    {"trials": 0},
])
def test_bad_run_parameters_are_refused(kwargs):
    with pytest.raises(InvalidParameter) as info:
        run_law("demorgan", **kwargs)
    assert isinstance(info.value, InsError) and isinstance(info.value, ValueError)


def test_bad_universe_labels_are_refused():
    with pytest.raises(ValueError, match="duplicate"):
        run_law("demorgan", trials=1, universes=[("a", "a")])
    with pytest.raises(ValueError, match="non-empty string"):
        run_law("demorgan", trials=1, universes=[("a", "")])
