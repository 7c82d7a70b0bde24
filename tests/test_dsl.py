import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden_data as gd
from dsl_tools import random_eval_tree, random_expr_tree, twin_evaluate
from ins import (
    DiscreteINS,
    SourceError,
    add,
    cartesian_product,
    difference,
    dsl,
    equals,
    intersect,
    nv,
    union,
)
from ins.core import UnitInterval
from ins.dsl import (
    Add,
    Cart,
    Complement,
    Difference,
    Div,
    Empty,
    Equal,
    Expr,
    FalseFav,
    Ident,
    Intersect,
    Prod,
    Scale,
    Subset,
    TruthFav,
    Union,
    evaluate,
    format_expr,
    format_set,
    parse_expr,
    parse_sets,
    set_to_json,
)
from ins.sampling import random_set, rng_from_seed


def err(callable_, *args):
    with pytest.raises(SourceError) as excinfo:
        callable_(*args)
    return excinfo.value


@pytest.fixture
def env():
    return parse_sets(gd.EX1_TEXT)


def assert_same_tree(a, b):
    """``a == b`` for trees of any depth, walked in a loop."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert type(x) is type(y)
        for name in x.__match_args__:
            u, v = getattr(x, name), getattr(y, name)
            if isinstance(u, Expr):
                stack.append((u, v))
            else:
                assert u == v


class TestParseExpr:
    def test_complement_of_union(self):
        assert parse_expr("~(A | B)") == Complement(Union(Ident("A"), Ident("B")))

    def test_intersect_binds_tighter_than_union(self):
        assert parse_expr("A & B | C") == Union(
            Intersect(Ident("A"), Ident("B")), Ident("C")
        )

    def test_difference_binds_tighter_than_add(self):
        assert parse_expr("A + B \\ C") == Add(
            Ident("A"), Difference(Ident("B"), Ident("C"))
        )

    def test_left_associativity(self):
        assert parse_expr("A \\ B \\ C") == Difference(
            Difference(Ident("A"), Ident("B")), Ident("C")
        )
        assert parse_expr("A + B + C") == Add(Add(Ident("A"), Ident("B")), Ident("C"))

    def test_unary_chains(self):
        assert parse_expr("~~A") == Complement(Complement(Ident("A")))

    def test_calls(self):
        assert parse_expr("tf(A)") == TruthFav(Ident("A"))
        assert parse_expr("ff(A | B)") == FalseFav(Union(Ident("A"), Ident("B")))
        assert parse_expr("cart(A, B)") == Cart(Ident("A"), Ident("B"))
        assert parse_expr("prod(A,B)") == Prod(Ident("A"), Ident("B"))
        assert parse_expr("scale(0.5, A)") == Scale(0.5, Ident("A"))
        assert parse_expr("div(A, 2)") == Div(Ident("A"), 2.0)

    def test_predicates_at_root(self):
        assert parse_expr("subset(A, B)") == Subset(Ident("A"), Ident("B"))
        assert parse_expr("eq(A,B)") == Equal(Ident("A"), Ident("B"))
        assert parse_expr("empty(~A)") == Empty(Complement(Ident("A")))

    def test_whitespace_insensitive(self):
        assert parse_expr(" A\t|\n  B ") == Union(Ident("A"), Ident("B"))

    def test_function_names_usable_as_identifiers(self):
        # reserved only when followed by '('
        assert parse_expr("tf | ff") == Union(Ident("tf"), Ident("ff"))


class TestParseErrors:
    def test_empty_input(self):
        e = err(parse_expr, "")
        assert e.kind == "ParseError" and (e.line, e.column) == (1, 1)

    def test_dangling_operator(self):
        e = err(parse_expr, "A |")
        assert (e.line, e.column) == (1, 4)

    def test_lex_error_position(self):
        e = err(parse_expr, "A ? B")
        assert e.kind == "LexError" and (e.line, e.column) == (1, 3)

    def test_missing_close_paren(self):
        e = err(parse_expr, "(A | B")
        assert e.kind == "ParseError" and e.column == 7

    def test_trailing_tokens(self):
        e = err(parse_expr, "A B")
        assert "trailing" in e.message and e.column == 3

    def test_nested_predicate_rejected(self):
        e = err(parse_expr, "eq(A, subset(A,B))")
        assert e.kind == "ParseError" and e.column == 7
        e = err(parse_expr, "subset(A, B) | C")
        assert e.kind == "ParseError"

    def test_unknown_function(self):
        e = err(parse_expr, "foo(A)")
        assert "unknown function" in e.message and e.column == 1

    def test_scale_rejects_non_positive(self):
        e = err(parse_expr, "scale(0, A)")
        assert e.kind == "NonPositiveScalar" and e.column == 7
        e = err(parse_expr, "scale(0.0, A)")
        assert e.kind == "NonPositiveScalar"
        e = err(parse_expr, "div(A, 0)")
        assert e.kind == "NonPositiveScalar" and e.column == 8

    def test_scale_requires_literal(self):
        e = err(parse_expr, "scale(A, B)")
        assert "decimal literal" in e.message

    def test_multiline_positions(self):
        e = err(parse_expr, "A |\n   ?")
        assert (e.line, e.column) == (2, 4)

    @pytest.mark.parametrize("opened, closed", [
        ("(", ")"), ("~", ""), ("tf(", ")"), ("scale(2,", ")"), ("~(", ")"),
    ])
    def test_nesting_limit(self, opened, closed):
        # one level per '(', '~' or call: 100 levels parse, 101 do not, and
        # the error points at the token that opens level 101
        limit = dsl._MAX_DEPTH
        assert limit == 100
        per_level = 2 if opened == "~(" else 1
        count = limit // per_level
        text = opened * count + "A" + closed * count
        tree = parse_expr(text)
        assert format_expr(tree).count("A") == 1
        text = opened * count + "~A" + closed * count
        e = err(parse_expr, text)
        assert (e.kind, e.line, e.column, e.message) == (
            "ParseError", 1, len(opened) * count + 1,
            "expression nests deeper than 100 levels",
        )

    def test_operator_chains_do_not_count_as_nesting(self):
        # 'A | A | A' is Union(Union(A, A), A), read in a loop: a chain opens
        # no level, however long it is
        chain = "A" + " | A" * 300
        assert format_expr(parse_expr(chain)) == chain
        assert evaluate(parse_expr(chain), {"A": gd.build_a()}) == gd.build_a()
        assert type(parse_expr("A" + "|A" * 5000)) is Union
        text = "(" * 100 + "A | A & A" + ")" * 100
        assert format_expr(parse_expr(text)) == "A | A & A"
        e = err(parse_expr, "subset(" + "~" * 100 + "A, A)")
        assert (e.kind, e.column) == ("ParseError", 7 + 100)

    def test_chain_of_100000_operators_round_trips(self):
        # format_expr rendered by recursion and failed on a chain of 1000
        tree = Ident("A")
        for _ in range(10**5):
            tree = Union(tree, Ident("A"))
        text = format_expr(tree)
        assert text == " | ".join(["A"] * (10**5 + 1))
        assert_same_tree(parse_expr(text), tree)

    def test_deep_input_is_refused_not_crashed(self):
        for text in ("(" * 5000 + "A", "~" * 5000 + "A", "tf(" * 5000):
            e = err(parse_expr, text)
            assert e.message == "expression nests deeper than 100 levels"

    def test_literals_are_ascii_decimals(self):
        # other Unicode digits are refused where they stand, not converted
        e = err(parse_expr, "scale(\u00b2,A)")
        assert e.kind == "LexError" and (e.line, e.column) == (1, 7)
        e = err(parse_expr, "scale(1\u0663,A)")
        assert e.kind == "LexError" and (e.line, e.column) == (1, 8)
        assert parse_expr("A\u00b2") == Ident("A\u00b2")  # identifiers unchanged

    def test_number_not_an_atom(self):
        e = err(parse_expr, "A | 5")
        assert e.kind == "ParseError" and e.column == 5


class TestParseSets:
    def test_example_file(self, env):
        assert list(env) == ["A", "B"]
        assert env["A"] == gd.build_a()
        assert env["B"] == gd.build_b()
        assert env["A"]["x1"] == nv(0.2, 0.4, 0.3, 0.5, 0.3, 0.5)

    def test_empty_input(self):
        assert parse_sets("") == {}
        assert parse_sets("\n# only a comment\n\n") == {}

    @staticmethod
    def diagnostic(text):
        e = err(parse_sets, text)
        return (e.kind, e.line, e.column, e.message)

    def test_interval_order_violation_position(self):
        assert self.diagnostic("set A\n  x1 : [0.4,0.2] [0,1] [0,1]\nend\n") == (
            "ParseError", 2, 8, "need 0 <= lo <= hi <= 1, got [0.4, 0.2]")

    def test_out_of_range_value(self):
        assert self.diagnostic("set A\n  x1 : [0,1.5] [0,1] [0,1]\nend\n") == (
            "ParseError", 2, 8, "need 0 <= lo <= hi <= 1, got [0.0, 1.5]")

    def test_duplicate_set_name(self):
        assert self.diagnostic("set A\nend\nset A\nend\n") == (
            "ParseError", 3, 5, "duplicate set name 'A'")

    def test_duplicate_label(self):
        text = "set A\n  x1 : [0,1] [0,1] [0,1]\n  x1 : [0,1] [0,1] [0,1]\nend\n"
        assert self.diagnostic(text) == (
            "ParseError", 3, 3, "duplicate element label 'x1'")

    def test_missing_end(self):
        assert self.diagnostic("set A\n  x1 : [0,1] [0,1] [0,1]\n") == (
            "ParseError", 3, 1, "missing 'end' for set 'A'")

    def test_stray_end(self):
        assert self.diagnostic("end\n") == (
            "ParseError", 1, 1, "expected 'set NAME', found 'end'")

    def test_element_outside_block(self):
        assert self.diagnostic("x1 : [0,1] [0,1] [0,1]\n") == (
            "ParseError", 1, 1, "expected 'set NAME', found 'x1'")

    def test_nested_set(self):
        assert self.diagnostic("set A\nset B\nend\n") == (
            "ParseError", 2, 1, "'set' inside block 'A' (missing 'end'?)")

    def test_bad_set_name(self):
        assert self.diagnostic("set 9lives\nend\n") == (
            "ParseError", 1, 5, "invalid set name '9lives'")

    def test_missing_interval(self):
        assert self.diagnostic("set A\n  x1 : [0,1] [0,1]\nend\n") == (
            "ParseError", 2, 19, "expected '[' starting an interval")

    def test_trailing_text(self):
        assert self.diagnostic("set A\n  x1 : [0,1] [0,1] [0,1] extra\nend\n") == (
            "ParseError", 2, 26, "unexpected trailing text 'extra'")

    @pytest.mark.parametrize("text, line, column, message", [
        ("set A B\nend\n", 1, 1, "expected 'set NAME' on its own line"),
        ("set A\n  junk\nend\n", 2, 3, "expected 'LABEL : T I F' element line or 'end'"),
        ("set A\n  x 1 : [0,1] [0,1] [0,1]\nend\n", 2, 3,
         "element label must be a single token before ':'"),
        ("set A\n   : [0,1] [0,1] [0,1]\nend\n", 2, 4,
         "element label must be a single token before ':'"),
        ("set A\n  x1 : 0,1] [0,1] [0,1]\nend\n", 2, 8, "expected '[' starting an interval"),
        ("set A\n  x1 : [,1] [0,1] [0,1]\nend\n", 2, 9, "expected a decimal number"),
        ("set A\n  x1 : [0 1] [0,1] [0,1]\nend\n", 2, 11, "expected ',' inside interval"),
        ("set A\n  x1 : [0,1 [0,1] [0,1]\nend\n", 2, 13, "expected ']' closing interval"),
        # only spaces and tabs may stand inside and between intervals
        ("set A\n  x1 :\u3000[0,1] [0,1] [0,1]\nend\n", 2, 7,
         "expected '[' starting an interval"),
        ("set A\n  x1 : [0,1]\x0b[0,1] [0,1]\nend\n", 2, 13,
         "expected '[' starting an interval"),
        ("set A\n  x1 : [0,1] [0,1] [0," + "9" * 400 + "]\nend\n", 2, 20,
         "need 0 <= lo <= hi <= 1, got [0.0, inf]"),
        # the first error in file order wins: a bad interval on an earlier
        # line comes before a later duplicate label or a missing 'end'
        ("set A\n  x1 : [0,1] [0,1] [0,1]\n  x2 : [0,1] [0.9,0.1] [0,1]\n"
         "  x1 : [0,1] [0,1] [0,1]\nend\n", 3, 14, "need 0 <= lo <= hi <= 1, got [0.9, 0.1]"),
        ("set A\n  x1 : [0,1] [0,1] [1,2]\n", 2, 20, "need 0 <= lo <= hi <= 1, got [1.0, 2.0]"),
        ("set A\n  x1 : [0,1] [2,1] [0,1] extra\nend\n", 2, 14,
         "need 0 <= lo <= hi <= 1, got [2.0, 1.0]"),
    ])
    def test_diagnostic(self, text, line, column, message):
        assert self.diagnostic(text) == ("ParseError", line, column, message)

    def test_spaces_inside_intervals_allowed(self):
        env = parse_sets("set A\n  x1 : [ 0.1 , 0.2 ] [0,1] [0 , 1]\nend\n")
        assert env["A"]["x1"].truth == UnitInterval(0.1, 0.2)

    def test_empty_universe_block(self):
        env = parse_sets("set A\nend\n")
        assert len(env["A"]) == 0

    def test_crlf_tolerated(self):
        env = parse_sets("set A\r\n  x1 : [0,1] [0,1] [0,1]\r\nend\r\n")
        assert env["A"].universe == ("x1",)

    def test_labels_are_any_token_without_colon(self):
        text = "set A\n  x[1] : [0,1] [0,1] [0,1]\n\x0ba#b\u3000: [0,1] [0,1] [0,1]\u3000\nend\n"
        assert parse_sets(text)["A"].universe == ("x[1]", "a#b")


class TestFormatSet:
    def test_canonical_block(self, env):
        out = format_set(union(env["A"], env["B"]), precision=15, name="result")
        assert out == (
            "set result\n"
            "  x1 : [0.5,0.7] [0.1,0.3] [0.1,0.3]\n"
            "  x2 : [0.5,0.7] [0,0.2] [0.2,0.3]\n"
            "  x3 : [0.6,0.8] [0,0.1] [0.2,0.3]\n"
            "end\n"
        )

    def test_empty_universe(self):
        assert format_set(DiscreteINS([]), name="E") == "set E\nend\n"

    def test_paired_labels(self, env):
        out = format_set(cartesian_product(env["A"], env["B"]), precision=6, name="P")
        assert "  (x1,x1) : " in out

    def test_precision_validation(self, env):
        with pytest.raises(ValueError):
            format_set(env["A"], precision=0)
        with pytest.raises(ValueError):
            format_set(env["A"], precision=18)

    def test_default_precision_round_trips_exactly(self, env):
        for name in ("A", "B"):
            text = format_set(env[name], name=name)
            assert parse_sets(text)[name] == env[name]

    def test_formatted_union_round_trips(self, env):
        u = union(env["A"], env["B"])
        again = parse_sets(format_set(u, name="U"))["U"]
        assert equals(again, u)

    def test_json_schema(self, env):
        doc = json.loads(json.dumps(set_to_json(env["A"], name="A")))
        assert doc["name"] == "A"
        assert [e["label"] for e in doc["elements"]] == ["x1", "x2", "x3"]
        for element in doc["elements"]:
            for key in ("T", "I", "F"):
                lo, hi = element[key]
                assert 0.0 <= lo <= hi <= 1.0


@st.composite
def dyadic_sets(draw):
    scale = 2 ** draw(st.integers(min_value=0, max_value=20))
    n = draw(st.integers(min_value=0, max_value=5))
    labels = [f"e{i}" for i in range(n)]
    items = []
    for label in labels:
        row = []
        for _ in range(3):
            lo = draw(st.integers(min_value=0, max_value=scale))
            hi = draw(st.integers(min_value=lo, max_value=scale))
            row += [lo / scale, hi / scale]
        items.append((label, nv(*row)))
    return DiscreteINS(items)


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(dyadic_sets())
    def test_dyadic_round_trip_exact(self, s):
        assert parse_sets(format_set(s, precision=17, name="S"))["S"] == s

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_parser_total_on_text(self, text):
        try:
            parse_expr(text)
        except SourceError as e:
            assert e.line >= 1 and e.column >= 1

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=60))
    def test_parser_total_on_bytes(self, raw):
        text = raw.decode("latin-1")
        for parser in (parse_expr, parse_sets):
            try:
                parser(text)
            except SourceError as e:
                assert e.line >= 1 and e.column >= 1

    def test_seeded_precedence_round_trip(self):
        rng = rng_from_seed(2024)
        names = ("A", "B", "C", "tfx")
        for _ in range(2000):
            tree = random_expr_tree(rng, depth=int(rng.integers(0, 6)), names=names)
            printed = format_expr(tree)
            assert parse_expr(printed) == tree, printed

    def test_printed_forms_are_minimal(self):
        cases = {
            "A | B & C": Union(Ident("A"), Intersect(Ident("B"), Ident("C"))),
            "(A | B) & C": Intersect(Union(Ident("A"), Ident("B")), Ident("C")),
            "A + (B + C)": Add(Ident("A"), Add(Ident("B"), Ident("C"))),
            "A + B + C": Add(Add(Ident("A"), Ident("B")), Ident("C")),
            "~(A | B)": Complement(Union(Ident("A"), Ident("B"))),
            "~A | B": Union(Complement(Ident("A")), Ident("B")),
            "A \\ (B + C)": Difference(Ident("A"), Add(Ident("B"), Ident("C"))),
        }
        for text, tree in cases.items():
            assert format_expr(tree) == text
            assert parse_expr(text) == tree


class TestEvaluate:
    def test_union_matches_example(self, env):
        result = evaluate(parse_expr("A | B"), env)
        gd.assert_set_matches(result, gd.UNION_AB)

    def test_involution_predicate(self, env):
        assert evaluate(parse_expr("eq(~~A, A)"), env) is True

    def test_favorite_intersection_inclusion(self, env):
        # instance of the favorite-operator inclusion over intersections
        assert evaluate(parse_expr("subset(tf(A) & tf(B), tf(A & B))"), env) is True

    def test_cart_at_root(self, env):
        result = evaluate(parse_expr("cart(A, B)"), env)
        assert result.universe[0] == ("x1", "x1")

    def test_unknown_identifier(self, env):
        e = err(evaluate, parse_expr("A | C"), env)
        assert e.kind == "UnknownIdentifier" and (e.line, e.column) == (1, 5)

    def test_universe_mismatch_position(self, env):
        bad_env = dict(env)
        bad_env["D"] = DiscreteINS([("y1", nv(0, 1, 0, 1, 0, 1))])
        e = err(evaluate, parse_expr("A | D"), bad_env)
        assert e.kind == "UniverseMismatch" and (e.line, e.column) == (1, 3)

    def test_long_mixed_chains(self, env):
        # a left-deep tree of 20000 operators, in runs of 400 alike; a run
        # of | after + and of & after \ parenthesizes its left operand, 24
        # times in all, which the parser's nesting limit allows. evaluate and
        # format_expr walk the chain in a loop, as the parser reads it
        ops = ((Intersect, intersect), (Add, add), (Union, union), (Difference, difference))
        tree, want = Ident("A"), env["A"]
        for i in range(20000):
            node_type, op = ops[i // 400 % 4]
            tree, want = node_type(tree, Ident("B")), op(want, env["B"])
        assert equals(evaluate(tree, env), want)
        text = format_expr(tree)
        assert len(text) - len(text.lstrip("(")) == 24
        assert_same_tree(parse_expr(text), tree)
        e = err(evaluate, parse_expr("A" + " | A" * 20000 + " | C"), env)
        assert (e.kind, e.column) == ("UnknownIdentifier", 4 * 20000 + 5)

    def test_paired_operand_rejected(self, env):
        e = err(evaluate, parse_expr("cart(A,B) | A"), env)
        assert e.kind == "TypeMismatch" and e.column == 11
        e = err(evaluate, parse_expr("eq(cart(A,B), cart(A,B))"), env)
        assert e.kind == "TypeMismatch"

    def test_case_sensitive_lookup(self, env):
        e = err(evaluate, parse_expr("a"), env)
        assert e.kind == "UnknownIdentifier"

    def test_direct_scale_node_error_wrapped(self, env):
        e = err(evaluate, Scale(-1.0, Ident("A"), line=3, col=9), env)
        assert e.kind == "NonPositiveScalar" and (e.line, e.column) == (3, 9)

    def test_hand_built_nested_predicate_rejected(self, env):
        # the grammar forbids this shape; direct construction still gets a
        # typed diagnostic instead of a crash
        e = err(evaluate, Union(Subset(Ident("A"), Ident("B")), Ident("A")), env)
        assert e.kind == "TypeMismatch"

    def test_agreement_with_direct_core_calls(self, env):
        rng = rng_from_seed(888)
        universe = ("p", "q")
        names = ("A", "B", "C")
        for _ in range(300):
            sets = {name: random_set(rng, universe) for name in names}
            tree = random_eval_tree(rng, depth=int(rng.integers(0, 7)), names=names)
            got = evaluate(tree, sets)
            want = twin_evaluate(tree, sets)
            assert got == want
