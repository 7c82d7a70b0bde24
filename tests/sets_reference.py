"""Frozen set-file parser and renderer: the reference that ``ins.dsl`` is
compared against.

This is the code path the package used before set files were parsed and
rendered a block at a time: one ``UnitInterval`` per interval, built by a
character scanner, and ``np.format_float_positional`` per endpoint. It is
kept verbatim apart from the imports. Do not change it to follow the
package: the point of the copy is that it does not move.
"""

from __future__ import annotations

import re

import numpy as np

from ins import core
from ins.core import DiscreteINS, PairedINS, UnitInterval
from ins.errors import PARSE_ERROR, InvalidInterval, SourceError

_NUM_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")

# --------------------------------------------------------------------------
# Set file parsing

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


def parse_sets(text: str) -> dict[str, DiscreteINS]:
    """Parse a set file into an environment, in declaration order."""
    env: dict[str, DiscreteINS] = {}
    lines = text.split("\n")
    current: str | None = None
    items: list[tuple[str, core.NeutrosophicValue]] = []
    labels_seen: set[str] = set()
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        first_col = indent + 1
        if current is None:
            words = stripped.split()
            if words[0] != "set":
                raise SourceError(
                    PARSE_ERROR, lineno, first_col,
                    f"expected 'set NAME', found {words[0]!r}",
                )
            if len(words) != 2:
                raise SourceError(
                    PARSE_ERROR, lineno, first_col, "expected 'set NAME' on its own line"
                )
            name = words[1]
            name_col = line.index(name, indent + 3) + 1
            if not _NAME_RE.match(name):
                raise SourceError(
                    PARSE_ERROR, lineno, name_col, f"invalid set name {name!r}"
                )
            if name in env:
                raise SourceError(
                    PARSE_ERROR, lineno, name_col, f"duplicate set name {name!r}"
                )
            current = name
            items = []
            labels_seen = set()
            continue
        if stripped == "end":
            env[current] = DiscreteINS(items)
            current = None
            continue
        colon = line.find(":")
        if colon < 0:
            if stripped.split()[0] == "set":
                raise SourceError(
                    PARSE_ERROR, lineno, first_col,
                    f"'set' inside block {current!r} (missing 'end'?)",
                )
            raise SourceError(
                PARSE_ERROR, lineno, first_col,
                "expected 'LABEL : T I F' element line or 'end'",
            )
        label = line[:colon].strip()
        if not label or any(ch.isspace() for ch in label):
            raise SourceError(
                PARSE_ERROR, lineno, first_col,
                "element label must be a single token before ':'",
            )
        if label in labels_seen:
            raise SourceError(
                PARSE_ERROR, lineno, first_col, f"duplicate element label {label!r}"
            )
        labels_seen.add(label)
        pos = colon + 1
        intervals = []
        for _ in range(3):
            interval, pos = _parse_interval(line, pos, lineno)
            intervals.append(interval)
        tail = line[pos:].strip()
        if tail:
            raise SourceError(
                PARSE_ERROR, lineno, pos + (len(line[pos:]) - len(line[pos:].lstrip())) + 1,
                f"unexpected trailing text {tail.split()[0]!r}",
            )
        items.append((label, core.NeutrosophicValue(*intervals)))
    if current is not None:
        last = len(lines)
        raise SourceError(
            PARSE_ERROR, last, len(lines[-1]) + 1, f"missing 'end' for set {current!r}"
        )
    return env


def _parse_interval(line: str, pos: int, lineno: int) -> tuple[UnitInterval, int]:
    n = len(line)
    while pos < n and line[pos] in " \t":
        pos += 1
    if pos >= n or line[pos] != "[":
        raise SourceError(
            PARSE_ERROR, lineno, pos + 1, "expected '[' starting an interval"
        )
    start_col = pos + 1
    pos += 1
    lo, pos = _parse_number(line, pos, lineno)
    while pos < n and line[pos] in " \t":
        pos += 1
    if pos >= n or line[pos] != ",":
        raise SourceError(PARSE_ERROR, lineno, pos + 1, "expected ',' inside interval")
    pos += 1
    hi, pos = _parse_number(line, pos, lineno)
    while pos < n and line[pos] in " \t":
        pos += 1
    if pos >= n or line[pos] != "]":
        raise SourceError(PARSE_ERROR, lineno, pos + 1, "expected ']' closing interval")
    pos += 1
    try:
        return UnitInterval(lo, hi), pos
    except InvalidInterval as exc:
        raise SourceError(PARSE_ERROR, lineno, start_col, str(exc)) from None


def _parse_number(line: str, pos: int, lineno: int) -> tuple[float, int]:
    n = len(line)
    while pos < n and line[pos] in " \t":
        pos += 1
    m = _NUM_RE.match(line, pos)
    if not m:
        raise SourceError(PARSE_ERROR, lineno, pos + 1, "expected a decimal number")
    return float(m.group()), m.end()


# --------------------------------------------------------------------------
# Formatting

def _fmt_number(value: float, precision: int) -> str:
    # Positional notation only; the file format has no exponent literals.
    if precision >= 17:
        return np.format_float_positional(value, unique=True, trim="-")
    return np.format_float_positional(
        value, precision=precision, unique=False, fractional=False, trim="-"
    )


def _label_text(label: object) -> str:
    if isinstance(label, tuple):
        return f"({label[0]},{label[1]})"
    return str(label)


def format_set(
    s: DiscreteINS | PairedINS, precision: int = 17, name: str = "result"
) -> str:
    """Render a set in the canonical file format.

    At the default precision 17 the rendering is exact: parsing it back
    reproduces every stored endpoint bit for bit.
    """
    if not 1 <= precision <= 17:
        raise ValueError("precision must be between 1 and 17")
    out = [f"set {name}"]
    for label, row in zip(s.universe, s.endpoints):
        nums = [_fmt_number(v, precision) for v in row]
        out.append(
            f"  {_label_text(label)} : "
            f"[{nums[0]},{nums[1]}] [{nums[2]},{nums[3]}] [{nums[4]},{nums[5]}]"
        )
    out.append("end")
    return "\n".join(out) + "\n"


def set_to_json(s: DiscreteINS | PairedINS, name: str = "result") -> dict:
    """JSON-ready dict: {"name", "elements": [{"label", "T", "I", "F"}]}."""
    elements = []
    for label, row in zip(s.universe, s.endpoints):
        elements.append(
            {
                "label": _label_text(label),
                "T": [float(row[0]), float(row[1])],
                "I": [float(row[2]), float(row[3])],
                "F": [float(row[4]), float(row[5])],
            }
        )
    return {"name": name, "elements": elements}
