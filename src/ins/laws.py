"""Seeded randomized checking of the algebraic laws of the set operators.

Laws built from min/max/copy operations are compared exactly; laws involving
addition or products are compared within a caller-supplied tolerance
(default 1e-12), since only those introduce floating-point rounding.

Trials run stacked, a chunk at a time. First every trial's operands are drawn
in trial order from one seeded PCG64 stream; no law draws conditionally, so
this is the stream a trial-at-a-time loop consumes. Then the chunk's rows are
stacked into ``(rows, 6)`` arrays, validated and snapped once as
``DiscreteINS.from_array`` would, and each endpoint kernel of :mod:`ins.core`
runs once per stack. A failure reports the smallest failing trial, its first
failing sub-check and smallest failing element with both sides' endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import core
from .core import DiscreteINS, _validated
from .errors import UnknownLaw
from .sampling import _check_run, _nested_rows, _sorted_pairs, random_universe, rng_from_seed

# not called here, but tracing tools look the samplers up on this module
from .sampling import random_set, random_subset, random_superset  # noqa: F401

__all__ = ["LawResult", "CLI_LAWS", "ALL_CHECKS", "run_law", "run_all_laws"]


@dataclass(frozen=True, slots=True)
class LawResult:
    law: str
    description: str
    trials: int
    seed: int
    tol: float
    passed: bool
    counterexample: str | None = None
    failed_trial: int | None = None


def _fmt_value(row: np.ndarray) -> str:
    t, i, f = row[0:2], row[2:4], row[4:6]
    part = lambda p: f"[{p[0]:g},{p[1]:g}]"
    return f"<{part(t)},{part(i)},{part(f)}>"


class _Chunk:
    """Consecutive trials stacked row-wise, and the sub-checks they fail:
    trial ``t`` owns ``sizes[t]`` rows from ``starts[t]`` of every stacked
    operand, in its universe's order, and ``owner`` maps rows to trials."""

    def __init__(self, first: int, universes: list[tuple]) -> None:
        self.first = first
        self.universes = universes
        self.sizes = np.array([len(u) for u in universes], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.owner = np.repeat(np.arange(len(universes)), self.sizes)
        self._fails: list[tuple[int, int, str | Callable[[int], str]]] = []

    def eq(self, relation: str, x: np.ndarray, y: np.ndarray, tol: float = 0.0) -> None:
        """Sub-check: x equals y at every element, within ``tol`` per endpoint."""
        self.flag(self._at_element(relation, x, y), core._differs(x, y, tol).any(axis=1), self.owner)

    def contained(self, relation: str, x: np.ndarray, y: np.ndarray, where=None) -> None:
        """Sub-check: x is contained in y, in the trials where ``where`` holds."""
        bad = ~core._contained(x, y).all(axis=1)
        self.flag(self._at_element(relation, x, y),
                  bad if where is None else bad & where[self.owner], self.owner)

    def _at_element(self, relation: str, x: np.ndarray, y: np.ndarray) -> Callable[[int], str]:
        def render(row: int) -> str:
            trial = self.owner[row]
            label = self.universes[trial][row - self.starts[trial]]
            return f"{relation}\n  element {label}: lhs={_fmt_value(x[row])} rhs={_fmt_value(y[row])}"

        return render

    def flag(self, message: str | Callable[[int], str], bad: np.ndarray, owner=None) -> None:
        """Sub-check failing in each trial that owns a True of ``bad``: rows
        or row pairs mapped to trials by ``owner``, or trials when it is
        None. The message is fixed or rendered from the first bad item."""
        hits = np.flatnonzero(bad)
        if hits.size:  # the first bad item lies in the smallest failing trial
            item = int(hits[0])
            self._fails.append((item if owner is None else int(owner[item]), item, message))

    def holds(self, ok: np.ndarray) -> np.ndarray:
        """Per trial: the per-endpoint mask ``ok`` holds at all its rows."""
        held = np.ones(len(self.universes), dtype=bool)
        held[self.owner[~ok.all(axis=1)]] = False
        return held

    def pairs(self, other: _Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of each trial's (x, y) element pairs, x-major as in a cartesian
        product, y from the trial's universe in ``other``; and pair owners."""
        counts = self.sizes * other.sizes
        owner = np.repeat(np.arange(len(counts)), counts)
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        m = other.sizes[owner]
        return self.starts[owner] + k // m, other.starts[owner] + k % m, owner

    def verdict(self) -> tuple[int, str] | None:
        """(trial, counterexample) of the smallest failing trial's first
        failing sub-check, or None."""
        if not self._fails:
            return None
        trial, item, message = min(self._fails, key=lambda fail: fail[0])
        return self.first + trial, message(item) if callable(message) else message


def _set(draws: np.ndarray) -> np.ndarray:
    """Stacked random sets from their uniform draws, as ``random_set``."""
    return _validated(_sorted_pairs(draws))


def _bound(draws: np.ndarray, *operands: np.ndarray, superset: bool) -> np.ndarray:
    """Stacked common supersets (or subsets) of the operands."""
    return _validated(_nested_rows(draws, *operands, superset=superset))


def _check_commutativity(chunk, draws, others, tol):
    a, b = map(_set, draws)
    for name, op in (("union", core._union), ("intersect", core._intersect),
                     ("add", core._add), ("pointwise_product", core._pointwise_product)):
        chunk.eq(f"{name}(A, B) != {name}(B, A)", op(a, b), op(b, a))
    # cartesian product commutes after transposing the pair keys
    other = _Chunk(chunk.first, [u for u, _ in others])
    o = _set(np.concatenate([d for _, d in others]))
    ia, io, owner = chunk.pairs(other)
    ab = core._pointwise_product(a[ia], o[io])
    ba = core._pointwise_product(o[io], a[ia])
    chunk.flag("cartesian_product(A, B) differs from key-transposed cartesian_product(B, A)",
               (ab != ba).any(axis=1), owner)


def _other_set(rng: np.random.Generator) -> tuple[tuple[str, ...], np.ndarray]:
    """Commutativity's second universe and the draws of a set over it."""
    universe = random_universe(rng)
    return universe, rng.random((len(universe), 6))


def _check_associativity(chunk, draws, _, tol):
    a, b, c = map(_set, draws)
    for name, op, t in (("union", core._union, 0.0), ("intersect", core._intersect, 0.0),
                        ("add", core._add, tol), ("pointwise_product", core._pointwise_product, tol)):
        chunk.eq(f"{name}(A, {name}(B, C)) != {name}({name}(A, B), C)",
                 op(a, op(b, c)), op(op(a, b), c), t)


def _check_distributivity(chunk, draws, _, tol):
    a, b, c = map(_set, draws)
    union, intersect = core._union, core._intersect
    chunk.eq("A | (B & C) != (A | B) & (A | C)",
             union(a, intersect(b, c)), intersect(union(a, b), union(a, c)))
    chunk.eq("A & (B | C) != (A & B) | (A & C)",
             intersect(a, union(b, c)), union(intersect(a, b), intersect(a, c)))


def _check_idempotency(chunk, draws, _, tol):
    (a,) = map(_set, draws)
    tf, ff = core._truth_favorite(a), core._false_favorite(a)
    chunk.eq("A | A != A", core._union(a, a), a)
    chunk.eq("A & A != A", core._intersect(a, a), a)
    chunk.eq("tf(tf(A)) != tf(A)", core._truth_favorite(tf), tf)
    chunk.eq("ff(ff(A)) != ff(A)", core._false_favorite(ff), ff)


def _check_identity_absorber(chunk, draws, _, tol):
    (a,) = map(_set, draws)
    phi = np.broadcast_to(core._EMPTY_ROW, a.shape)
    full = np.broadcast_to(core._UNIVERSAL_ROW, a.shape)
    chunk.eq("A & empty != empty", core._intersect(a, phi), phi)
    chunk.eq("A | universal != universal", core._union(a, full), full)
    chunk.eq("A | empty != A", core._union(a, phi), a)
    chunk.eq("A & universal != A", core._intersect(a, full), a)


def _check_favorite_additivity(chunk, draws, _, tol):
    a, b = map(_set, draws)
    add, tf, ff = core._add, core._truth_favorite, core._false_favorite
    s = add(a, b)
    chunk.eq("tf(A + B) != tf(A) + tf(B)", tf(s), add(tf(a), tf(b)), tol)
    chunk.eq("ff(A + B) != ff(A) + ff(B)", ff(s), add(ff(a), ff(b)), tol)


def _check_absorption(chunk, draws, _, tol):
    a, b = map(_set, draws)
    union, intersect = core._union, core._intersect
    chunk.eq("A | (A & B) != A", union(a, intersect(a, b)), a)
    chunk.eq("A & (A | B) != A", intersect(a, union(a, b)), a)


def _check_demorgan(chunk, draws, _, tol):
    a, b = map(_set, draws)
    union, intersect, c = core._union, core._intersect, core._complement
    chunk.eq("~(A | B) != ~A & ~B", c(union(a, b)), intersect(c(a), c(b)))
    chunk.eq("~(A & B) != ~A | ~B", c(intersect(a, b)), union(c(a), c(b)))


def _check_involution(chunk, draws, _, tol):
    (a,) = map(_set, draws)
    chunk.eq("~~A != A", core._complement(core._complement(a)), a)


def _check_lub(chunk, draws, _, tol):
    a, b = _set(draws[0]), _set(draws[1])
    u = core._union(a, b)
    chunk.contained("A not contained in A | B", a, u)
    chunk.contained("B not contained in A | B", b, u)
    # minimality: the union must sit below every common superset
    for r in draws[2:5]:
        d = _bound(r, a, b, superset=True)
        chunk.contained("A | B not contained in a common superset D", u, d)
    d = _set(draws[5])
    common = chunk.holds(core._contained(a, d)) & chunk.holds(core._contained(b, d))
    chunk.contained("A | B not contained in a common superset D", u, d, where=common)


def _check_glb(chunk, draws, _, tol):
    a, b = _set(draws[0]), _set(draws[1])
    m = core._intersect(a, b)
    chunk.contained("A & B not contained in A", m, a)
    chunk.contained("A & B not contained in B", m, b)
    for r in draws[2:5]:
        d = _bound(r, a, b, superset=False)
        chunk.contained("a common subset D not contained in A & B", d, m)
    d = _set(draws[5])
    common = chunk.holds(core._contained(d, a)) & chunk.holds(core._contained(d, b))
    chunk.contained("a common subset D not contained in A & B", d, m, where=common)


def _check_containment_complement(chunk, draws, _, tol):
    a = _set(draws[0])
    pairs = (
        (a, _set(draws[1])),
        (a, _bound(draws[2], a, superset=True)),
        (_bound(draws[3], a, superset=False), a),
    )
    for x, y in pairs:
        forward = chunk.holds(core._contained(x, y))
        reflected = chunk.holds(core._contained(core._complement(y), core._complement(x)))
        chunk.flag(partial(_duality_failure, chunk, x, y, forward), forward != reflected)


def _duality_failure(chunk, x, y, forward, trial: int) -> str:
    # the trial's containments disagree, so the reflected one is not forward
    row, label = chunk.starts[trial], chunk.universes[trial][0]
    return (f"subset(X, Y) is {bool(forward[trial])} but subset(~Y, ~X) is {not forward[trial]}\n"
            f"  X[{label}]={_fmt_value(x[row])} Y[{label}]={_fmt_value(y[row])}")


def _check_favorite_inclusions(chunk, draws, _, tol):
    a, b = map(_set, draws)
    union, intersect = core._union, core._intersect
    tf, ff = core._truth_favorite, core._false_favorite
    u, m = union(a, b), intersect(a, b)
    chunk.contained("tf(A | B) not contained in tf(A) | tf(B)", tf(u), union(tf(a), tf(b)))
    chunk.contained("tf(A) & tf(B) not contained in tf(A & B)", intersect(tf(a), tf(b)), tf(m))
    chunk.contained("ff(A) | ff(B) not contained in ff(A | B)", union(ff(a), ff(b)), ff(u))
    chunk.contained("ff(A & B) not contained in ff(A) & ff(B)", ff(m), intersect(ff(a), ff(b)))


def _check_closure(chunk, draws, factors, tol):
    a, b = map(_set, draws)
    factor = (np.array(factors) * 3.0 + 1e-3)[chunk.owner, None]
    ia, ib, pair_owner = chunk.pairs(chunk)
    rows = chunk.owner
    results = (
        ("complement", core._complement(a), rows),
        ("union", core._union(a, b), rows),
        ("intersect", core._intersect(a, b), rows),
        ("difference", core._difference(a, b), rows),
        ("add", core._add(a, b), rows),
        ("pointwise_product", core._pointwise_product(a, b), rows),
        ("cartesian_product", core._pointwise_product(a[ia], b[ib]), pair_owner),
        ("scalar_mul", core._scalar_mul(a, factor), rows),
        ("scalar_div", core._scalar_div(a, factor), rows),
        ("truth_favorite", core._truth_favorite(a), rows),
        ("false_favorite", core._false_favorite(a), rows),
    )
    for tag, d, owner in results:
        chunk.flag(f"{tag}: non-finite endpoint", ~np.isfinite(d).all(axis=1), owner)
        chunk.flag(f"{tag}: endpoint outside [0, 1]", ((d < 0.0) | (d > 1.0)).any(axis=1), owner)
        chunk.flag(f"{tag}: lower endpoint exceeds upper endpoint",
                   (d[:, 0::2] > d[:, 1::2]).any(axis=1), owner)


def _check_containment_order(chunk, draws, _, tol):
    a = _set(draws[0])
    b = _bound(draws[1], a, superset=False)
    c = _bound(draws[2], b, superset=False)
    contained = lambda x, y: chunk.holds(core._contained(x, y))
    equal = lambda x, y: chunk.holds(~core._differs(x, y))
    chunk.flag("containment is not reflexive", ~contained(a, a))
    chunk.flag("containment is not transitive along C <= B <= A", ~contained(c, a))
    chunk.flag("mutual containment without equality", contained(a, b) & ~equal(a, b))
    same = _validated(a.copy())
    chunk.flag("identical sets not mutually contained and equal",
               ~(contained(a, same) & contained(same, a) & equal(a, same)))


def _check_favorite_annihilation(chunk, draws, _, tol):
    (a,) = map(_set, draws)
    for tag, op in (("tf", core._truth_favorite), ("ff", core._false_favorite)):
        chunk.flag(f"{tag}(A) left a nonzero indeterminacy interval",
                   (op(a)[:, 2:4] != 0.0).any(axis=1), chunk.owner)


class _Law(NamedTuple):
    """A stacked check and what each of its trials draws: ``blocks`` arrays
    of ``(n, 6)`` uniform draws, then ``tail(rng)`` when given. The check
    takes the chunk, the draws as ``(blocks, rows, 6)``, the tails and the
    tolerance, and flags its sub-checks on the chunk in the order one trial
    evaluates them. ``rows`` gives the rows a trial adds to its widest
    stacked array."""

    check: Callable
    blocks: int
    tail: Callable | None = None
    rows: Callable[[int, object], int] = lambda n, tail: n


_REGISTRY: dict[str, tuple[str, _Law]] = {
    "commutativity": ("union/intersect/add/product are symmetric; cartesian commutes up to key transposition", _Law(_check_commutativity, 2, _other_set, lambda n, other: n * len(other[0]))),
    "associativity": ("union/intersect exactly, add/product within tolerance", _Law(_check_associativity, 3)),
    "distributivity": ("union and intersection distribute over each other", _Law(_check_distributivity, 3)),
    "idempotency": ("A|A = A, A&A = A, and both favorite operators are idempotent", _Law(_check_idempotency, 1)),
    "identity-absorber": ("the empty set absorbs intersection and is the union identity; dually for the universal set", _Law(_check_identity_absorber, 1)),
    "favorite-additivity": ("both favorite operators distribute over addition", _Law(_check_favorite_additivity, 2)),
    "absorption": ("A|(A&B) = A and A&(A|B) = A", _Law(_check_absorption, 2)),
    "demorgan": ("complement swaps union and intersection", _Law(_check_demorgan, 2)),
    "involution": ("double complement is the identity", _Law(_check_involution, 1)),
    "lub": ("union contains both operands and sits below every sampled common superset", _Law(_check_lub, 6)),
    "glb": ("intersection is contained in both operands and sits above every sampled common subset", _Law(_check_glb, 6)),
    "containment-complement": ("subset(A, B) holds iff subset(~B, ~A) holds", _Law(_check_containment_complement, 4)),
    "favorite-inclusions": ("the four favorite-operator inclusions over union and intersection", _Law(_check_favorite_inclusions, 2)),
    "closure": ("every operator yields valid membership intervals", _Law(_check_closure, 2, lambda rng: rng.random(), lambda n, _: n * n)),
    "containment-order": ("containment is a partial order with equality as antisymmetry", _Law(_check_containment_order, 3)),
    "favorite-annihilation": ("favorite operators zero out indeterminacy", _Law(_check_favorite_annihilation, 1)),
}

#: Every registered check, including the extra structural invariants.
ALL_CHECKS: tuple[str, ...] = tuple(_REGISTRY)

#: Law names accepted by the command-line `check` command: every check but
#: the last three, the structural invariants.
CLI_LAWS: tuple[str, ...] = ALL_CHECKS[:-3]

# A chunk of trials closes once its widest stacked array reaches this many
# rows, which bounds the memory of a run whatever its trial count.
_MAX_ROWS = 2**10


def _run(law: _Law, rng, trials: int, universes, tol: float) -> tuple[int, str] | None:
    trial = 0
    while trial < trials:
        chunk_universes, draws, tails, rows = [], [], [], 0
        first = trial
        while trial < trials and rows < _MAX_ROWS:
            universe = universes[trial % len(universes)] if universes else random_universe(rng)
            draws.append(rng.random((law.blocks, len(universe), 6)))
            tail = law.tail(rng) if law.tail else None
            chunk_universes.append(universe)
            tails.append(tail)
            rows += law.rows(len(universe), tail)
            trial += 1
        chunk = _Chunk(first, chunk_universes)
        law.check(chunk, np.concatenate(draws, axis=1), tails, tol)
        found = chunk.verdict()
        if found:
            return found
    return None


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
    trial draws a fresh universe of size 1 to 8. Raises
    :class:`~ins.errors.InvalidParameter` for ``trials`` < 1, a negative
    ``seed``, or a ``tol`` that is not finite and >= 0.
    """
    if name not in _REGISTRY:
        raise UnknownLaw(f"unknown law {name!r}; expected one of: " + ", ".join(CLI_LAWS))
    _check_run(trials, seed, tol)
    universes = [tuple(u) for u in universes or ()]
    for universe in universes:
        DiscreteINS._index_of(universe)
    description, law = _REGISTRY[name]
    found = _run(law, rng_from_seed(seed), trials, universes, tol)
    failed_trial, counterexample = found or (None, None)
    return LawResult(name, description, trials, seed, tol, found is None, counterexample, failed_trial)


def run_all_laws(
    *,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
    universes: Sequence[tuple[str, ...]] | None = None,
) -> list[LawResult]:
    """Run every CLI-exposed law with the same settings."""
    return [
        run_law(name, trials=trials, seed=seed, tol=tol, universes=universes)
        for name in CLI_LAWS
    ]
