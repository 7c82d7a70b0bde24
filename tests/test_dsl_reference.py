"""The table-driven expression parser, evaluator and printer against the
frozen copy in ``dsl_reference``.

Every outcome must agree: the parsed tree with every node's source position,
or the error's kind, line, column and message; the printed text; the
evaluated set, bit for bit, or the evaluation error. The texts are ASCII:
the old lexer took any Unicode digit for a literal digit, which the package
now refuses (``test_dsl.py`` covers that).
"""

import math
from functools import partial

import pytest

import dsl_reference as ref
from ins import DiscreteINS, PairedINS, SourceError, dsl
from ins.sampling import random_set, rng_from_seed

# Fragments of expression text: names, function and predicate names (known
# and unknown), every punctuation token, literals, whitespace and junk.
FRAGMENTS = (
    "A", "B", "C", "x1", "tfx", "Z", "tf", "ff", "cart", "prod", "scale", "div",
    "subset", "eq", "empty", "foo",
    "(", ")", "|", "&", "\\", "+", "~", ",", "(", ")", ",", "~",
    "0", "1", "2.5", ".5", "5.", "0.0", "3", "007", ".", "1.2.3",
    " ", " ", "\n", "\t", "\r", "?", "-", "*", "_", "e",
)
NAMES = ("A", "B", "C", "x1")
FACTORS = (0.25, 0.5, 1.0, 3.0, 1 / 3, 1e-300, 1.5e300, 0.1, 12345.678)
BAD_FACTORS = (0.0, -1.0, -0.0, math.nan)


def _dump(node):
    """A node as nested tuples, with the positions that equality leaves out."""
    fields = [getattr(node, name) for name in node.__match_args__]
    return (type(node).__name__, node.line, node.col,
            *(_dump(v) if isinstance(v, dsl.Expr) else v for v in fields))


def _outcome(call, *args):
    try:
        result = call(*args)
    except SourceError as e:
        return ("error", e.kind, e.line, e.column, e.message)
    except (TypeError, ValueError) as e:
        return ("raised", type(e).__name__, str(e))
    if isinstance(result, dsl.Expr):
        return ("tree", _dump(result))
    if isinstance(result, (DiscreteINS, PairedINS)):
        return (type(result).__name__, result.universe, result.endpoints.tobytes())
    return ("value", result)


def _random_text(rng) -> str:
    """Fragment soup, or the printed form of a random tree with a few
    fragments inserted, deleted or replaced."""
    if rng.random() < 0.5:
        return "".join(FRAGMENTS[i] for i in rng.integers(len(FRAGMENTS), size=rng.integers(0, 14)))
    text = ref.format_expr(_rooted(rng, _random_tree(rng, int(rng.integers(0, 4)))))
    for _ in range(int(rng.integers(0, 3))):
        at = int(rng.integers(len(text) + 1))
        cut = at + int(rng.integers(0, 3))
        text = text[:at] + FRAGMENTS[int(rng.integers(len(FRAGMENTS)))] + text[cut:]
    return text


def _random_tree(rng, depth: int, nested: bool = False, bad: bool = False):
    """Any node type at any depth: cart and (when ``nested``) predicates as
    operands, non-positive factors when ``bad``, random source positions."""
    pos = {"line": int(rng.integers(1, 9)), "col": int(rng.integers(1, 99))}
    if depth <= 0 or rng.random() < 0.15:
        names = NAMES + ("E", "Z") if bad else NAMES
        return dsl.Ident(names[int(rng.integers(len(names)))], **pos)
    sub = lambda: _random_tree(rng, depth - 1, nested, bad)
    types = (dsl.Complement, dsl.TruthFav, dsl.FalseFav, dsl.Union, dsl.Intersect,
             dsl.Difference, dsl.Add, dsl.Cart, dsl.Prod, dsl.Scale, dsl.Div,
             dsl.Subset, dsl.Equal, dsl.Empty)
    node_type = types[int(rng.integers(len(types) if nested else len(types) - 3))]
    if node_type in (dsl.Scale, dsl.Div):
        factors = FACTORS + BAD_FACTORS if bad else FACTORS
        factor = factors[int(rng.integers(len(factors)))]
        if node_type is dsl.Scale:
            return dsl.Scale(factor, sub(), **pos)
        return dsl.Div(sub(), factor, **pos)
    if node_type in (dsl.Complement, dsl.TruthFav, dsl.FalseFav, dsl.Empty):
        return node_type(sub(), **pos)
    return node_type(sub(), sub(), **pos)


def _rooted(rng, tree):
    """``tree``, or a predicate over it half of the time."""
    if rng.random() < 0.5:
        return tree
    pos = {"line": int(rng.integers(1, 9)), "col": int(rng.integers(1, 99))}
    if rng.random() < 0.3:
        return dsl.Empty(tree, **pos)
    node_type = dsl.Subset if rng.random() < 0.5 else dsl.Equal
    return node_type(tree, _random_tree(rng, 2), **pos)


@pytest.mark.parametrize("seed", range(4))
def test_parse_outcomes_match(seed):
    rng = rng_from_seed(7000 + seed)
    for _ in range(50_000):
        text = _random_text(rng)
        assert _outcome(dsl.parse_expr, text) == _outcome(ref.parse_expr, text), repr(text)


def test_parse_outcomes_match_on_fixed_cases():
    cases = ("", "A", "A |", "eq(A)", "eq(A,B", "empty(A,B)", "subset(A, B) | C",
             "eq(A, subset(A,B))", "scale(A, B)", "scale(0, A)", "div(A, 0.0)",
             "div(2, A)", "scale(2 A)", "cart(A)", "tf(A,B)", "tf", "tf | ff",
             "foo(A)", "A ? B", "A |\n   ?", ".5", "scale(.5,A)", "scale(5.,A)",
             "(((A)))", "~~~A", "A + B \\ C | D & ~E")
    for text in cases:
        assert _outcome(dsl.parse_expr, text) == _outcome(ref.parse_expr, text), repr(text)


def test_format_outcomes_match():
    rng = rng_from_seed(7100)
    for _ in range(20_000):
        tree = _random_tree(rng, int(rng.integers(0, 6)), nested=rng.random() < 0.3,
                            bad=rng.random() < 0.2)
        assert _outcome(dsl.format_expr, tree) == _outcome(ref.format_expr, tree)


def test_non_nodes_raise_the_same_type_error():
    env = {"B": random_set(rng_from_seed(0), ("p",))}
    for bad in ("A", None, 1.0, dsl.Expr(), dsl.Union("A", dsl.Ident("B")),
                dsl.Scale(2.0, "A"), dsl.Complement(3)):
        for mine, theirs in ((dsl.format_expr, ref.format_expr),
                             (partial(dsl.evaluate, env=env), partial(ref.evaluate, env=env))):
            outcome = _outcome(mine, bad)
            assert outcome == _outcome(theirs, bad) and outcome[:2] == ("raised", "TypeError")


def _environment(rng) -> dict:
    universe = ("p", "q", "r")
    env = {name: random_set(rng, universe) for name in NAMES}
    env["B"] = DiscreteINS.from_array(universe[::-1], env["B"].endpoints[::-1])
    env["E"] = random_set(rng, ("s", "t"))  # another universe
    return env


def test_evaluate_outcomes_match():
    rng = rng_from_seed(7200)
    kinds = {}
    for i in range(3000):
        env = _environment(rng)
        tree = _rooted(rng, _random_tree(rng, int(rng.integers(0, 5)), nested=i % 3 == 0,
                                         bad=i % 2 == 0))
        mine, theirs = _outcome(dsl.evaluate, tree, env), _outcome(ref.evaluate, tree, env)
        assert mine == theirs, dsl.format_expr(tree)
        key = mine[1] if mine[0] == "error" else mine[0]
        kinds[key] = kinds.get(key, 0) + 1
    # every outcome the evaluator can give was exercised
    for key in ("DiscreteINS", "PairedINS", "value", "UniverseMismatch",
                "NonPositiveScalar", "TypeMismatch", "UnknownIdentifier"):
        assert kinds.get(key, 0) >= 20, kinds


def test_predicate_and_cart_operands_report_the_parent():
    env = _environment(rng_from_seed(7300))
    pos = {"line": 4, "col": 2}
    trees = [
        dsl.Union(dsl.Subset(dsl.Ident("A"), dsl.Ident("B")), dsl.Ident("A"), **pos),
        dsl.Scale(2.0, dsl.Empty(dsl.Ident("A")), **pos),
        dsl.Div(dsl.Cart(dsl.Ident("A"), dsl.Ident("B")), 2.0, **pos),
        dsl.Equal(dsl.Ident("A"), dsl.Cart(dsl.Ident("A"), dsl.Ident("B")), **pos),
        dsl.Empty(dsl.Cart(dsl.Ident("A"), dsl.Ident("B")), **pos),
        dsl.Scale(-1.0, dsl.Ident("A"), **pos),
        dsl.Div(dsl.Ident("A"), 0.0, **pos),
        dsl.Prod(dsl.Ident("A"), dsl.Ident("E"), **pos),
        dsl.Subset(dsl.Ident("E"), dsl.Ident("A"), **pos),
    ]
    for tree in trees:
        mine = _outcome(dsl.evaluate, tree, env)
        assert mine == _outcome(ref.evaluate, tree, env)
        assert mine[0] == "error" and mine[2:4] == (4, 2), mine
