"""The block-at-a-time set-file parser and renderer against the frozen copy
in ``sets_reference``.

Every parse outcome must agree: the environment (set names, labels and
endpoint bytes) or the error's kind, line, column and message. The files are
generated from line fragments that reach every diagnostic, with CRLF line
ends, tabs, ``\\x0b`` and ``\\u3000`` whitespace, labels holding ``[``, ``#``
and ``(``, numbers that overflow to ``inf``, and a bad interval followed by a
later error of every other kind. Rendered text at every precision and JSON
must agree too.
"""

import json

import numpy as np
import pytest

import sets_reference as ref
from ins import DiscreteINS, SourceError, core, dsl

SPACES = ("", " ", "  ", "\t", " \t ", "\x0b", "　", "\r", "\x0c")
LABELS = ("x1", "e0", "x[1]", "a#b", "(x,y)", "[", "(", "end", "set", "x　y",
          "x y", "", "#c", "a:b", "é", "lbl_2")
NUMBERS = ("0", "1", "0.5", ".25", "5.", "0.1", "0.75", "1.0", "0.0001", "1.5", "2",
           "9" * 400, "0." + "3" * 60, "0" * 40 + "1", "", "-1", "1e3", "abc", ".", "1..2",
           "١")
TAILS = ("", "", "", " ", "\t", " extra", "　", "\x0b", " x y", " #c", "]", "　z")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _blank(rng) -> str:
    """Spaces and tabs mostly; now and then other whitespace, which only the
    label and the line end allow."""
    return _pick(rng, SPACES) if rng.random() < 0.1 else _pick(rng, ("", " ", " ", "\t"))


def _interval(rng, bad: float) -> str:
    lo, hi = sorted(int(x) for x in rng.integers(0, 9, size=2))
    nums = [f"0.{lo}", f"0.{hi}"] if rng.random() < 0.7 else ["0", "1"]
    if rng.random() < bad:
        nums[int(rng.integers(2))] = _pick(rng, NUMBERS)
    parts = ["[", nums[0], ",", nums[1], "]"]
    if rng.random() < bad / 3:
        del parts[int(rng.integers(len(parts)))]
    return "".join(_blank(rng) + p for p in parts)


def _element(rng, label: str, bad: float) -> str:
    count = 3 if rng.random() >= bad / 2 else int(rng.integers(0, 5))
    intervals = "".join(_interval(rng, bad) for _ in range(count))
    lead = _pick(rng, SPACES) if rng.random() < 0.3 else "  "
    colon = "" if rng.random() < bad / 8 else ":"
    tail = _pick(rng, TAILS) if rng.random() < bad else ""
    return f"{lead}{label}{_blank(rng)}{colon}{intervals}{tail}"


def _value_error_line(rng, label: str) -> str:
    lo, hi = _pick(rng, (("0.75", "0.25"), ("0", "1.5"), ("9" * 400, "1"), ("2", "3")))
    intervals = ["[0,1]", "[0,1]", "[0,1]"]
    intervals[int(rng.integers(3))] = f"[{lo},{hi}]"
    return f"  {label} : {' '.join(intervals)}"


def _random_file(rng) -> str:
    bad = _pick(rng, (0.0, 0.0, 0.02, 0.1, 0.3))
    lines = []
    names = ("A", "B", "C", "A", "9x", "B_2")
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.15:
            lines.append(_pick(rng, ("", "   ", "# comment", "\t# x : [0,1]", "　")))
        header = f"set {_pick(rng, names)}"
        if rng.random() < bad:
            header = _pick(rng, ("set", "set A B", "end", "x1 : [0,1] [0,1] [0,1]",
                                 "foo", "set　A", "set  A  "))
        lines.append(_pick(rng, ("", " ", "\t")) + header)
        labels = []
        for _ in range(int(rng.integers(0, 7))):
            r = rng.random()
            if r < 0.1:
                lines.append(_pick(rng, ("", "# note", "  #x : [9,9] [9,9] [9,9]", "\t")))
            elif r < 0.1 + bad / 2 and labels:
                lines.append(_element(rng, _pick(rng, labels), 0.0))  # duplicate
            elif r < 0.1 + bad:
                lines.append(_pick(rng, ("set B", "  set", "setA", "junk", "  x1 [0,1]")))
            else:
                label = _pick(rng, LABELS) if rng.random() < 0.3 else f"e{len(labels)}"
                labels.append(label)
                lines.append(_element(rng, label, bad))
        if rng.random() >= bad / 2:
            lines.append(_pick(rng, ("end", "end", "  end", "end\t", "end x", "END")))
    text = "\n".join(lines) + _pick(rng, ("\n", "", "\n\n"))
    return text.replace("\n", "\r\n") if rng.random() < 0.2 else text


def _ordered_file(rng) -> str:
    """A value error on one line, then an error of another kind on a later
    line of the same block: the value error must win."""
    later = (
        "  e1 : [0,1] [0,1] [0,1]",  # duplicate of the first label
        "  e9 : [0,1] [0,1] [0,1] extra",
        "  e9 : [0,1] [0,1]",
        "  e9 : [0,1] [0,1 [0,1]",
        "set B",
        "e 9 : [0,1] [0,1] [0,1]",
        "junk",
        None,  # missing 'end'
    )
    lines = ["set A", "  e1 : [0,1] [0,1] [0,1]"]
    lines += [f"  f{i} : [0,1] [0,1] [0,1]" for i in range(int(rng.integers(0, 3)))]
    lines.append(_value_error_line(rng, "e2"))
    lines += [f"  g{i} : [0,1] [0,1] [0,1]" for i in range(int(rng.integers(0, 3)))]
    tail = _pick(rng, later)
    if tail is not None:
        lines += [tail, "end"]
    return "\n".join(lines) + "\n"


def _outcome(parse, text: str):
    try:
        env = parse(text)
    except SourceError as e:
        return ("error", e.kind, e.line, e.column, e.message)
    return [(name, s.universe, s.endpoints.tobytes()) for name, s in env.items()]


FIXED = (
    "",
    "set A\nend\n",
    "set A\nend\nset B\n\nend",
    "set A\r\n  x1　:\t[ 0.5 ,\t.75 ] [0,1]\t[5.,1]\x0b\r\nend\r\n",
    "set A\n  x[1] : [0,1] [0,1] [0,1]\n  a#b : [0,1] [0,1] [0,1]\n  (x,y) : [0,1] [0,1] [0,1]\nend\n",
    f"set A\n  x : [{'9' * 400},1] [0,1] [0,1]\nend\n",
    f"set A\n  x : [0,1] [0,1] [0,{'9' * 400}]\nend\n",
    "set A\n  x :　[0,1] [0,1] [0,1]\nend\n",
    "set A\n  x : [0,1]\x0b[0,1] [0,1]\nend\n",
    "set A\n  x : [0.5,0.25] [0,1] [0,1] extra\nend\n",
    "set A\n  x : [0,1] [0,1] [0,1]\n  y : [0,1] [0,1] [0,1]\n",
    "set A\n  x : [0,1] [0,1] [2,3]\n",
    "set A\nset B\nend\n",
)


@pytest.mark.parametrize("text", FIXED)
def test_fixed_files(text):
    assert _outcome(dsl.parse_sets, text) == _outcome(ref.parse_sets, text)


def test_generated_files():
    rng = np.random.default_rng(20261018)
    kinds = {}
    for _ in range(6000):
        text = _random_file(rng)
        got = _outcome(dsl.parse_sets, text)
        assert got == _outcome(ref.parse_sets, text), repr(text)
        key = got[4].split(" ")[0] if got and got[0] == "error" else "ok"
        kinds[key] = kinds.get(key, 0) + 1
    # every diagnostic, and successful parses, turn up
    for key in ("ok", "expected", "element", "duplicate", "unexpected", "need",
                "'set'", "missing", "invalid"):
        assert kinds.get(key, 0) >= 5, (key, kinds)


def test_value_error_comes_before_later_errors():
    rng = np.random.default_rng(7)
    for _ in range(400):
        text = _ordered_file(rng)
        got = _outcome(dsl.parse_sets, text)
        assert got == _outcome(ref.parse_sets, text), repr(text)
        assert got[0] == "error" and got[4].startswith("need 0 <= lo"), (text, got)


def _rendered_sets():
    """Sets over lattice values, dyadic ties, products off the lattice and
    values far below 1e-4."""
    rng = np.random.default_rng(11)
    n = 40
    labels = [f"e{i}" for i in range(n)]
    lattice = rng.integers(0, 2**20 + 1, size=(n, 6)) / 2**20
    ties = (2 * rng.integers(0, 2**12, size=(n, 6)) + 1) / 2.0 ** rng.integers(1, 14, size=(n, 6))
    tiny = rng.random((n, 6)) * 10.0 ** -rng.integers(4, 40, size=(n, 6))
    sets = []
    for data in (lattice, np.minimum(ties, 1.0), tiny, rng.random((n, 6))):
        data = np.sort(data.reshape(n, 3, 2), axis=2).reshape(n, 6)
        sets.append(DiscreteINS.from_array(labels, data))
    sets.append(core.pointwise_product(sets[3], sets[2]))
    sets.append(core.pointwise_product(sets[3], sets[3]))
    sets.append(core.scalar_div(sets[3], 3.0))
    sets.append(core.cartesian_product(sets[0], sets[2]))
    sets.append(DiscreteINS([]))
    return sets


@pytest.mark.parametrize("precision", range(1, 18))
def test_rendered_text(precision):
    for s in _rendered_sets():
        assert dsl.format_set(s, precision, "S") == ref.format_set(s, precision, "S")


def test_rendered_json():
    for s in _rendered_sets():
        got, want = dsl.set_to_json(s, "S"), ref.set_to_json(s, "S")
        assert json.dumps(got) == json.dumps(want)


def test_number_text_matches_numpy():
    """Every endpoint form, at every precision, directly."""
    rng = np.random.default_rng(3)
    values = np.concatenate([
        rng.integers(0, 2**20 + 1, 2000) / 2**20,
        (2 * rng.integers(0, 2**10, 2000) + 1) / 2.0 ** rng.integers(1, 12, 2000),
        rng.random(2000) * 10.0 ** -rng.integers(0, 30, 2000),
        rng.random(2000) ** 3,
        [0.0, 1.0, -0.0, 0.5, 0.05, 0.95, 0.9999999999999999, 1e-4, 9.5e-5, 5e-324],
    ]).tolist()
    for precision in range(1, 18):
        for v in values:
            assert dsl._fmt_number(v, precision) == ref._fmt_number(v, precision), (v, precision)
