"""Independent reference for the benchmark's correctness checks.

The operators follow the definitions of Wang, Smarandache, Zhang and
Sunderraman, *Interval Neutrosophic Sets*, written in plain numpy on
``(n, 6)`` endpoint arrays with columns ``(T.lo, T.hi, I.lo, I.hi, F.lo,
F.hi)``. Nothing in this module imports ``ins``: the benchmark compares the
program's outputs against these functions, so they must not share its code.

Inputs are dyadic rationals ``k / 2**20``. Their sums, reflections ``1 - x``
and minima/maxima are exact in float64, and their decimal expansions are
finite, so set files round-trip exactly and every operator except products
and scalings can be compared bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

DYADIC_BITS = 20
DYADIC_SCALE = 1 << DYADIC_BITS
ARITH_TOL = 1e-12

EMPTY_ROW = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])

# Operators whose results stay on the 2**-20 grid when their inputs do.
EXACT_OPS = frozenset(
    {"complement", "union", "intersect", "difference", "add",
     "truth_favorite", "false_favorite"}
)


# --------------------------------------------------------------------------
# Input generation


def dyadic_sets(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` random endpoint arrays of ``n`` rows on the 2**-20 grid,
    each interval a sorted pair of grid points."""
    k = rng.integers(0, DYADIC_SCALE + 1, size=(count, n, 3, 2))
    pairs = np.stack([k.min(axis=3), k.max(axis=3)], axis=3)
    return pairs.reshape(count, n, 6) / DYADIC_SCALE


def dyadic_text(x: float) -> str:
    """Exact positional decimal for a grid value (at most 20 fraction digits)."""
    return format(x, ".20f").rstrip("0").rstrip(".")


def set_file_text(sets: dict[str, tuple[tuple[str, ...], np.ndarray]]) -> str:
    lines = ["# generated by the benchmark"]
    for name, (labels, data) in sets.items():
        lines.append(f"set {name}")
        for label, row in zip(labels, data):
            t = [dyadic_text(v) for v in row]
            lines.append(f"  {label} : [{t[0]},{t[1]}] [{t[2]},{t[3]}] [{t[4]},{t[5]}]")
        lines.append("end")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Operators (paper definitions)


def complement(a):
    out = np.empty_like(a)
    out[:, 0:2] = a[:, 4:6]
    out[:, 2] = 1.0 - a[:, 3]
    out[:, 3] = 1.0 - a[:, 2]
    out[:, 4:6] = a[:, 0:2]
    return out


def union(a, b):
    return np.concatenate([np.maximum(a[:, :2], b[:, :2]), np.minimum(a[:, 2:], b[:, 2:])], axis=1)


def intersect(a, b):
    return np.concatenate([np.minimum(a[:, :2], b[:, :2]), np.maximum(a[:, 2:], b[:, 2:])], axis=1)


def difference(a, b):
    return intersect(a, complement(b))


def add(a, b):
    return np.minimum(a + b, 1.0)


def pointwise_product(a, b):
    out = a * b
    out[:, :2] = a[:, :2] + b[:, :2] - out[:, :2]
    return out


def cartesian_product(a, b):
    n, m = len(a), len(b)
    return pointwise_product(np.repeat(a, m, axis=0), np.tile(b, (n, 1)))


def scalar_mul(k, a):
    return np.minimum(a * k, 1.0)


def scalar_div(a, k):
    return np.minimum(a / k, 1.0)


def truth_favorite(a):
    out = a.copy()
    out[:, 0:2] = np.minimum(a[:, 0:2] + a[:, 2:4], 1.0)
    out[:, 2:4] = 0.0
    return out


def false_favorite(a):
    out = a.copy()
    out[:, 4:6] = np.minimum(a[:, 4:6] + a[:, 2:4], 1.0)
    out[:, 2:4] = 0.0
    return out


def is_contained(a, b) -> bool:
    return bool(np.all(a[:, :2] <= b[:, :2]) and np.all(a[:, 2:] >= b[:, 2:]))


def equals(a, b) -> bool:
    return bool(np.array_equal(a, b))


def is_empty(a) -> bool:
    return bool(np.all(a == EMPTY_ROW))


SET_OPS = {
    "complement": complement,
    "union": union,
    "intersect": intersect,
    "difference": difference,
    "add": add,
    "pointwise_product": pointwise_product,
    "truth_favorite": truth_favorite,
    "false_favorite": false_favorite,
}

PREDICATES = {"is_contained": is_contained, "equals": equals, "is_empty": is_empty}


def same_endpoints(got: np.ndarray, want: np.ndarray, exact: bool) -> bool:
    if got.shape != want.shape:
        return False
    if exact:
        return bool(np.array_equal(got, want))
    return bool(np.all(np.abs(got - want) <= ARITH_TOL))


# --------------------------------------------------------------------------
# Planted counterexample


def bimodal_truth(point, separation: float) -> float:
    """Truth value of the planted two-bump set at ``point``: two unit cones
    centred at (+-separation/2, 0, ...), summed and capped at 1."""
    half = separation / 2.0
    rest = sum(float(v) * float(v) for v in point[1:])

    def cone(center: float) -> float:
        d0 = float(point[0]) - center
        return max(0.0, 1.0 - math.sqrt(d0 * d0 + rest))

    return min(1.0, cone(half) + cone(-half))


def bimodal_witness_ok(witness, separation: float, tol: float) -> bool:
    """A witness is sound if the truth value at the mixed point really lies
    below the smaller end value by more than ``tol``."""
    if witness.component not in ("infT", "supT"):
        return False
    x1, x2, lam = witness.x1, witness.x2, witness.lam
    mid = [lam * a + (1.0 - lam) * b for a, b in zip(x1, x2)]
    lhs = bimodal_truth(mid, separation)
    rhs = min(bimodal_truth(x1, separation), bimodal_truth(x2, separation))
    return (
        abs(lhs - witness.lhs) <= ARITH_TOL
        and abs(rhs - witness.rhs) <= ARITH_TOL
        and lhs < rhs - tol
    )


# --------------------------------------------------------------------------
# Output parsing for CLI results


def parse_set_text(text: str) -> tuple[list[str], np.ndarray]:
    """Parse one ``set result ... end`` block as printed by ``ins eval``."""
    lines = text.split("\n")
    if not lines or lines[0] != "set result" or lines[-2:] != ["end", ""]:
        raise ValueError("not a single set block")
    labels, rows = [], []
    for line in lines[1:-2]:
        label, _, rest = line.partition(" : ")
        nums = rest.replace("[", " ").replace("]", " ").replace(",", " ").split()
        labels.append(label.strip())
        rows.append([float(x) for x in nums])
    return labels, np.array(rows, dtype=float).reshape(len(rows), 6)


def parse_set_json(doc: dict) -> tuple[list[str], np.ndarray]:
    labels = [e["label"] for e in doc["elements"]]
    rows = [e["T"] + e["I"] + e["F"] for e in doc["elements"]]
    return labels, np.array(rows, dtype=float).reshape(len(rows), 6)
