"""Value types and set-theoretic operators for interval neutrosophic sets.

An interval neutrosophic set attaches three independent membership degrees to
every element of a universe: truth, indeterminacy, and falsity. Each degree is
a closed subinterval of [0, 1], and nothing ties the three together (their
suprema may sum to 3). The operators below act endpointwise:

* union        -- max on truth, min on indeterminacy and falsity
* intersection -- min on truth, max on indeterminacy and falsity
* complement   -- swaps truth and falsity, reflects indeterminacy at 1
* difference   -- truth limited by the other set's falsity, and dually
* addition     -- endpoint sums saturating at 1
* products     -- probabilistic sum on truth, plain product on the others
* scaling      -- endpoint multiply/divide saturating at 1
* truth/false-favorite -- fold indeterminacy into truth (resp. falsity)

Discrete sets store their endpoints in a float64 array of shape ``(n, 6)``
with columns ``(truth.lo, truth.hi, ind.lo, ind.hi, fal.lo, fal.hi)``. Each
operator's formula is written once, as a private kernel over ``(..., 6)``
arrays; the operators below align their operands' labels and call one kernel,
and the law checker and functional intersection call the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInterval, NonPositiveScalar, UniverseMismatch

__all__ = [
    "UnitInterval",
    "NeutrosophicValue",
    "DiscreteINS",
    "PairedINS",
    "EMPTY_VALUE",
    "UNIVERSAL_VALUE",
    "nv",
    "empty_set",
    "universal_set",
    "complement",
    "is_contained",
    "equals",
    "is_empty",
    "union",
    "intersect",
    "difference",
    "add",
    "pointwise_product",
    "cartesian_product",
    "scalar_mul",
    "scalar_div",
    "truth_favorite",
    "false_favorite",
]

# Column layout of the endpoint matrix.
_T = slice(0, 2)
_I = slice(2, 4)
_F = slice(4, 6)


# Endpoints are stored quantized to the 2**-53 lattice. Every point of the
# lattice inside [0, 1] reflects exactly (1 - x is representable), which keeps
# complement an exact involution for values built from literals or files; the
# quantization error itself is at most 2**-54, far below any tolerance used
# here. Values produced by min/max/copy operators and saturating sums stay on
# the lattice; only products and divisions leave it.
_LATTICE = 2.0**53


def _snap(x: float) -> float:
    return round(x * _LATTICE) / _LATTICE


def _snap_array(data: np.ndarray) -> np.ndarray:
    """Snap a float64 array in place, elementwise equal to :func:`_snap`."""
    scaled = data * _LATTICE
    np.round(scaled, out=scaled)
    scaled += 0.0  # -0.0 becomes +0.0, as with Python's round()
    return np.divide(scaled, _LATTICE, out=data)


@dataclass(frozen=True, slots=True)
class UnitInterval:
    """Closed subinterval [lo, hi] of the unit interval."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidInterval("interval endpoints must not be NaN")
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidInterval(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", _snap(lo))
        object.__setattr__(self, "hi", _snap(hi))

    def __str__(self) -> str:
        return f"[{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True, slots=True)
class NeutrosophicValue:
    """Truth/indeterminacy/falsity intervals attached to one element.

    The three components are independent: no constraint links them.
    """

    truth: UnitInterval
    indeterminacy: UnitInterval
    falsity: UnitInterval

    def __str__(self) -> str:
        return f"<{self.truth},{self.indeterminacy},{self.falsity}>"


def nv(
    t_lo: float,
    t_hi: float,
    i_lo: float,
    i_hi: float,
    f_lo: float,
    f_hi: float,
) -> NeutrosophicValue:
    """Shorthand constructor from six endpoints."""
    return NeutrosophicValue(
        UnitInterval(t_lo, t_hi), UnitInterval(i_lo, i_hi), UnitInterval(f_lo, f_hi)
    )


#: Value of the absorbing empty set: no truth, full indeterminacy and falsity.
EMPTY_VALUE = nv(0, 0, 1, 1, 1, 1)

#: Value of the universal set: full truth, no indeterminacy or falsity.
UNIVERSAL_VALUE = nv(1, 1, 0, 0, 0, 0)

_EMPTY_ROW = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
_UNIVERSAL_ROW = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def _validated(values) -> np.ndarray:
    """``values`` copied into a fresh ``(n, 6)`` float64 array, checked and
    snapped; else :class:`InvalidInterval`. The one check of endpoint data,
    made where it enters: in :meth:`DiscreteINS.from_array` and in the oracle
    wrapper of ``ins.convexity.FunctionalINS``. All else trusts its input."""
    try:
        data = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInterval(f"endpoints must be numeric: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 6:
        raise InvalidInterval(f"endpoint matrix must have shape (n, 6), got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise InvalidInterval("interval endpoints must be finite")
    if np.any(data < 0.0) or np.any(data > 1.0):
        raise InvalidInterval("interval endpoints must lie in [0, 1]")
    if np.any(data[:, 0::2] > data[:, 1::2]):
        raise InvalidInterval("interval lower bounds must not exceed upper bounds")
    return _snap_array(data)


class _BaseSet:
    """Shared machinery for discrete sets; labels are opaque hashables."""

    __slots__ = ("_labels", "_index", "_data")

    _label_kind = "element"

    def __init__(self, items: Iterable[tuple[object, NeutrosophicValue]]) -> None:
        pairs = list(items)
        labels = tuple(label for label, _ in pairs)
        index = self._index_of(labels)  # labels are checked before values
        rows = [
            (v.truth.lo, v.truth.hi, v.indeterminacy.lo, v.indeterminacy.hi,
             v.falsity.lo, v.falsity.hi)
            for _, v in pairs
        ]
        data = np.array(rows, dtype=np.float64).reshape(len(labels), 6)
        data.flags.writeable = False
        self._labels, self._index, self._data = labels, index, data

    @classmethod
    def from_array(cls, labels: Iterable[object], data: np.ndarray):
        """Build a set from an ``(n, 6)`` endpoint matrix, validating it."""
        arr = _validated(data)
        labels = tuple(labels)
        if len(labels) != arr.shape[0]:
            raise ValueError("label count does not match endpoint row count")
        return cls._wrap(labels, cls._index_of(labels), arr)

    @classmethod
    def _index_of(cls, labels: tuple) -> dict:
        """Label -> row, after checking each label and that none repeats."""
        for label in labels:
            cls._check_label(label)
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            # the first label whose last occurrence is elsewhere repeats
            dup = next(x for i, x in enumerate(labels) if index[x] != i)
            raise ValueError(f"duplicate {cls._label_kind} label: {dup!r}")
        return index

    @classmethod
    def _wrap(cls, labels: tuple, index: dict, data: np.ndarray):
        # Trusted path for operator results: data is valid by construction.
        if data.flags.writeable:
            data.flags.writeable = False
        obj = object.__new__(cls)
        obj._labels = labels
        obj._index = index
        obj._data = data
        return obj

    @staticmethod
    def _check_label(label: object) -> None:
        raise NotImplementedError

    @property
    def universe(self) -> tuple:
        """Element labels in declaration order."""
        return self._labels

    @property
    def endpoints(self) -> np.ndarray:
        """Read-only ``(n, 6)`` endpoint matrix."""
        return self._data

    def value(self, label: object) -> NeutrosophicValue:
        row = self._data[self._index[label]]
        return nv(*row)

    def __getitem__(self, label: object) -> NeutrosophicValue:
        return self.value(label)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def items(self) -> Iterator[tuple[object, NeutrosophicValue]]:
        for label, row in zip(self._labels, self._data):
            yield label, nv(*row)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        try:
            a, b = _aligned(self, other)
        except UniverseMismatch:
            return False
        return bool(np.array_equal(a, b))

    __hash__ = None  # mutable-free but array-backed; not hashable

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self._labels)} elements>"


class DiscreteINS(_BaseSet):
    """Interval neutrosophic set over a finite universe of named elements.

    Built from ``(label, NeutrosophicValue)`` pairs; label order is preserved
    and significant for serialization, but not for equality or containment.
    """

    _label_kind = "element"

    @staticmethod
    def _check_label(label: object) -> None:
        if not isinstance(label, str) or not label:
            raise ValueError(f"element label must be a non-empty string, got {label!r}")


class PairedINS(_BaseSet):
    """Set over a product universe; elements are (x, y) label pairs."""

    _label_kind = "pair"

    @staticmethod
    def _check_label(label: object) -> None:
        if (
            not isinstance(label, tuple)
            or len(label) != 2
            or not all(isinstance(p, str) and p for p in label)
        ):
            raise ValueError(f"pair label must be a (str, str) tuple, got {label!r}")


def _aligned(a: _BaseSet, b: _BaseSet) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint matrices of a and b with b's rows permuted into a's order.

    Universes must be equal as unordered label sets.
    """
    if type(a) is not type(b):
        raise UniverseMismatch(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    if a._labels == b._labels:
        return a._data, b._data
    if len(a._labels) != len(b._labels) or a._index.keys() != b._index.keys():
        raise UniverseMismatch("operands are defined over different universes")
    perm = [b._index[label] for label in a._labels]
    return a._data, b._data[perm]


def _like(a: _BaseSet, data: np.ndarray) -> _BaseSet:
    return type(a)._wrap(a._labels, a._index, data)


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


# Endpoint kernels: each operator's formula, written once over float64
# endpoint arrays of shape (..., 6) that broadcast over the leading axes, so
# one call serves a set, a stack of law trials or a chunk of oracle values.
# Each allocates its result once, shaped like the first operand (or writes
# into ``out`` where it takes one), and the ufuncs write straight into it.


def _complement(d: np.ndarray) -> np.ndarray:
    out = np.empty_like(d)
    out[..., _T] = d[..., _F]
    np.subtract(1.0, d[..., 3:1:-1], out=out[..., _I])  # reflect (hi, lo) at 1
    out[..., _F] = d[..., _T]
    return out


def _union(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    out = np.empty_like(da)
    np.maximum(da[..., _T], db[..., _T], out=out[..., _T])
    np.minimum(da[..., 2:], db[..., 2:], out=out[..., 2:])
    return out


def _intersect(da: np.ndarray, db: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(da) if out is None else out
    np.minimum(da[..., _T], db[..., _T], out=out[..., _T])
    np.maximum(da[..., 2:], db[..., 2:], out=out[..., 2:])
    return out


def _difference(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    reflected = _complement(db)
    return _intersect(da, reflected, out=reflected)


def _add(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    out = np.add(da, db)
    return np.minimum(out, 1.0, out=out)


def _pointwise_product(da: np.ndarray, db: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(da, db, out=out)
    # truth takes the probabilistic sum a + b - ab
    np.subtract(da[..., _T] + db[..., _T], out[..., _T], out=out[..., _T])
    return out


def _scalar_mul(d: np.ndarray, factor) -> np.ndarray:
    out = np.multiply(d, factor)
    return np.minimum(out, 1.0, out=out)


def _scalar_div(d: np.ndarray, divisor) -> np.ndarray:
    with np.errstate(over="ignore"):  # a quotient past the largest float saturates
        out = np.divide(d, divisor)
    return np.minimum(out, 1.0, out=out)


def _truth_favorite(d: np.ndarray) -> np.ndarray:
    return _favorite(d, _T, _F)


def _false_favorite(d: np.ndarray) -> np.ndarray:
    return _favorite(d, _F, _T)


def _favorite(d: np.ndarray, into: slice, kept: slice) -> np.ndarray:
    out = np.empty_like(d)
    np.minimum(d[..., into] + d[..., _I], 1.0, out=out[..., into])
    out[..., _I] = 0.0
    out[..., kept] = d[..., kept]
    return out


def _contained(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Per endpoint: truth no larger in da than in db, the others no smaller."""
    ok = np.greater_equal(da, db)
    np.less_equal(da[..., _T], db[..., _T], out=ok[..., _T])
    return ok


def _differs(dx: np.ndarray, dy: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Per endpoint: dx and dy differ (by more than ``tol`` when it is > 0)."""
    return np.abs(dx - dy) > tol if tol > 0.0 else dx != dy


def complement(a: _BaseSet) -> _BaseSet:
    """Swap truth and falsity; reflect the indeterminacy interval at 1."""
    return _like(a, _complement(a._data))


def is_contained(a: _BaseSet, b: _BaseSet) -> bool:
    """True iff a's truth is pointwise no larger than b's, and a's
    indeterminacy and falsity pointwise no smaller, at every element."""
    return bool(_contained(*_aligned(a, b)).all())


def equals(a: _BaseSet, b: _BaseSet) -> bool:
    """Mutual containment; equivalently exact equality of all endpoints."""
    return not _differs(*_aligned(a, b)).any()


def is_empty(a: _BaseSet) -> bool:
    """True iff every element carries the empty value <[0,0],[1,1],[1,1]>."""
    return bool(np.all(a._data == _EMPTY_ROW))


def union(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise max on truth, min on indeterminacy and falsity."""
    return _like(a, _union(*_aligned(a, b)))


def intersect(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise min on truth, max on indeterminacy and falsity."""
    return _like(a, _intersect(*_aligned(a, b)))


def difference(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Remove b from a, i.e. intersect a with b's complement: truth is capped
    by b's falsity, falsity raised by b's truth, and indeterminacy raised by
    the reflection of b's."""
    return _like(a, _difference(*_aligned(a, b)))


def add(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Endpointwise sum on all three components, saturating at 1."""
    return _like(a, _add(*_aligned(a, b)))


def pointwise_product(a: _BaseSet, b: _BaseSet) -> _BaseSet:
    """Elementwise product over a shared universe: probabilistic sum on
    truth endpoints, plain product on indeterminacy and falsity."""
    return _like(a, _pointwise_product(*_aligned(a, b)))


def cartesian_product(a: DiscreteINS, b: DiscreteINS) -> PairedINS:
    """Product set over the ordered cross universe; same endpoint rules as
    :func:`pointwise_product`, applied to every (x, y) pair."""
    out = np.empty((len(a), len(b), 6))
    _pointwise_product(a._data[:, None, :], b._data[None, :, :], out=out)
    labels = tuple((x, y) for x in a.universe for y in b.universe)
    index = {label: i for i, label in enumerate(labels)}
    return PairedINS._wrap(labels, index, out.reshape(-1, 6))


def _check_scalar(factor: float) -> float:
    factor = float(factor)
    if math.isnan(factor) or factor <= 0.0:
        raise NonPositiveScalar(f"scalar factor must be > 0, got {factor}")
    if math.isinf(factor):
        raise NonPositiveScalar(f"scalar factor must be finite, got {factor}")
    return factor


def scalar_mul(factor: float, a: _BaseSet) -> _BaseSet:
    """Scale every endpoint by a finite ``factor`` > 0, saturating at 1."""
    return _like(a, _scalar_mul(a._data, _check_scalar(factor)))


def scalar_div(a: _BaseSet, divisor: float) -> _BaseSet:
    """Divide every endpoint by a finite ``divisor`` > 0, saturating at 1."""
    return _like(a, _scalar_div(a._data, _check_scalar(divisor)))


def truth_favorite(a: _BaseSet) -> _BaseSet:
    """Fold indeterminacy into truth (saturating); indeterminacy becomes
    exactly [0,0]; falsity is untouched."""
    return _like(a, _truth_favorite(a._data))


def false_favorite(a: _BaseSet) -> _BaseSet:
    """Fold indeterminacy into falsity (saturating); indeterminacy becomes
    exactly [0,0]; truth is untouched."""
    return _like(a, _false_favorite(a._data))
