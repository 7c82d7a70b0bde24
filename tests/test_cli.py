import contextlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ins.core
from ins.cli import main
from ins.laws import run_law

EXPECTED_UNION_BLOCK = (
    "set result\n"
    "  x1 : [0.5,0.7] [0.1,0.3] [0.1,0.3]\n"
    "  x2 : [0.5,0.7] [0,0.2] [0.2,0.3]\n"
    "  x3 : [0.6,0.8] [0,0.1] [0.2,0.3]\n"
    "end\n"
)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_union_golden(self, ex1_path):
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", "A | B")
        assert code == 0 and err == ""
        assert out == EXPECTED_UNION_BLOCK

    def test_predicate_true(self, ex1_path):
        code, out, _ = run_cli("eval", "--sets", str(ex1_path), "--expr", "eq(A, A)")
        assert code == 0 and out == "true\n"

    def test_predicate_false(self, ex1_path):
        code, out, _ = run_cli("eval", "--sets", str(ex1_path), "--expr", "subset(A, B)")
        assert code == 0 and out == "false\n"

    def test_unknown_identifier_is_semantic_failure(self, ex1_path):
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", "A | C")
        assert code == 1 and out == ""
        assert "UnknownIdentifier" in err and ":1:5:" in err

    def test_expr_parse_error_is_usage(self, ex1_path):
        code, _, err = run_cli("eval", "--sets", str(ex1_path), "--expr", "A |")
        assert code == 2 and "ParseError" in err

    @pytest.mark.parametrize("opened, closed", [("(", ")"), ("~", "")])
    def test_nesting_limit(self, ex1_path, opened, closed):
        text = opened * 100 + "A" + closed * 100
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", text)
        assert code == 0 and out.startswith("set result\n") and err == ""
        text = opened * 101 + "A" + closed * 101
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", text)
        assert code == 2 and out == ""
        assert err == "ins: <expr>:1:101: ParseError: expression nests deeper than 100 levels\n"

    def test_sets_parse_error_is_usage(self, tmp_path):
        bad = tmp_path / "bad.ins"
        bad.write_text("set A\n  x1 : [0.4,0.2] [0,1] [0,1]\nend\n")
        code, _, err = run_cli("eval", "--sets", str(bad), "--expr", "A")
        assert code == 2 and ":2:8:" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli("eval", "--sets", str(tmp_path / "nope.ins"), "--expr", "A")
        assert code == 2 and "cannot read" in err

    def test_non_ascii_digit_is_a_lex_error(self, ex1_path):
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", "scale(\u00b2,A)")
        assert (code, out) == (2, "")
        assert err == "ins: <expr>:1:7: LexError: unexpected character '\u00b2'\n"

    @pytest.mark.parametrize("command", [["eval", "--expr", "A"], ["check", "--law", "involution"]])
    def test_undecodable_set_file(self, tmp_path, command):
        bad = tmp_path / "latin.ins"
        bad.write_bytes(b"set A\n  x\xff : [0,1] [0,1] [0,1]\nend\n")
        code, out, err = run_cli(*command, "--sets", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"ins: error: cannot read {bad}: ") and "0xff" in err

    def test_json_output(self, ex1_path):
        code, out, _ = run_cli(
            "eval", "--sets", str(ex1_path), "--expr", "A & B", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "result"
        assert [e["label"] for e in doc["elements"]] == ["x1", "x2", "x3"]
        assert doc["elements"][0]["T"] == pytest.approx([0.2, 0.4])

    def test_json_predicate(self, ex1_path):
        code, out, _ = run_cli(
            "eval", "--sets", str(ex1_path), "--expr", "eq(A,A)", "--format", "json"
        )
        assert code == 0 and out == "true\n"

    def test_cart_output_uses_pair_labels(self, ex1_path):
        code, out, _ = run_cli("eval", "--sets", str(ex1_path), "--expr", "cart(A, B)")
        assert code == 0 and "  (x1,x1) : " in out

    def test_precision_flag(self, ex1_path):
        code, out, _ = run_cli(
            "eval", "--sets", str(ex1_path), "--expr", "A", "--precision", "1"
        )
        assert code == 0 and "x1 : [0.2,0.4]" in out
        code, _, _ = run_cli(
            "eval", "--sets", str(ex1_path), "--expr", "A", "--precision", "0"
        )
        assert code == 2

    def test_byte_identical_reruns(self, ex1_path):
        first = run_cli("eval", "--sets", str(ex1_path), "--expr", "tf(A) + ff(B)")
        second = run_cli("eval", "--sets", str(ex1_path), "--expr", "tf(A) + ff(B)")
        assert first == second


    def test_long_operator_chain(self, ex1_path):
        # evaluate walked the chain by recursion: 400 operators ended in a
        # RecursionError traceback
        text = " | ".join(["A"] * (10**5 + 1))
        code, out, err = run_cli("eval", "--sets", str(ex1_path), "--expr", text)
        assert (code, err) == (0, "")
        assert out == run_cli("eval", "--sets", str(ex1_path), "--expr", "A")[1]


class TestCheck:
    def test_single_law(self):
        code, out, _ = run_cli("check", "--law", "demorgan", "--trials", "1000", "--seed", "7")
        assert code == 0
        assert out == "law demorgan: pass (1000 trials, seed 7)\n"

    def test_involution_single_trial(self):
        code, out, _ = run_cli("check", "--law", "involution", "--trials", "1")
        assert code == 0 and "pass" in out

    def test_lub_with_sets_file(self, ex1_path):
        code, out, _ = run_cli("check", "--law", "lub", "--sets", str(ex1_path))
        assert code == 0 and out == "law lub: pass (1000 trials, seed 0)\n"

    def test_all_laws(self):
        code, out, _ = run_cli("check", "--all", "--trials", "50", "--seed", "3")
        assert code == 0
        assert out.endswith("13/13 laws passed\n")
        assert out.count("law ") == 13

    def test_json_format(self):
        code, out, _ = run_cli(
            "check", "--all", "--trials", "20", "--seed", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 20 and doc["seed"] == 1
        assert len(doc["results"]) == 13
        assert all(r["passed"] is True for r in doc["results"])
        assert all(r["counterexample"] is None for r in doc["results"])

    def test_unknown_law(self):
        code, _, err = run_cli("check", "--law", "bogus")
        assert code == 2 and "unknown law" in err

    def test_law_and_all_conflict(self):
        code, _, _ = run_cli("check", "--law", "demorgan", "--all")
        assert code == 2

    def test_law_required(self):
        code, _, _ = run_cli("check")
        assert code == 2

    def test_deterministic_output(self):
        a = run_cli("check", "--law", "absorption", "--trials", "200", "--seed", "9")
        b = run_cli("check", "--law", "absorption", "--trials", "200", "--seed", "9")
        assert a == b


    def test_failed_law_report(self, monkeypatch):
        # a union taking the min on every endpoint breaks absorption
        monkeypatch.setattr(ins.core, "_union", lambda da, db: np.minimum(da, db))
        result = run_law("absorption", trials=30, seed=4)
        code, out, _ = run_cli("check", "--law", "absorption", "--trials", "30", "--seed", "4")
        assert code == 1 and not result.passed
        head, *body = out.splitlines()
        assert head == f"law absorption: FAIL (trial {result.failed_trial} of 30, seed 4)"
        assert body == ["  " + line for line in result.counterexample.splitlines()]
        assert body[0] == "  A | (A & B) != A"


class TestCheckNumbers:
    @pytest.mark.parametrize("flags", [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1"),
        ("--seed", "-1"),
        ("--trials", "0"),
    ])
    def test_bad_numbers_are_usage_errors(self, flags):
        # --tol nan used to be accepted and --seed -1 ended in a traceback
        code, out, err = run_cli("check", "--all", *flags)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("ins check: error: argument")


class TestConvex:
    def test_triangular_documented_invocation(self):
        code, out, _ = run_cli(
            "convex", "--family", "triangular(0,1)", "--box", "-2:2",
            "--trials", "1000", "--seed", "42",
        )
        assert code == 0
        assert "verdict: no-violation-found" in out
        assert "samples-checked: 11000" in out

    def test_bimodal_documented_invocation(self):
        code, out, _ = run_cli("convex", "--family", "bimodal(4)", "--box", "-3:3")
        assert code == 1
        assert "verdict: violated" in out and "witness:" in out

    def test_intersection_documented_invocation(self):
        code, out, _ = run_cli(
            "convex", "--family", "triangular(0,1)",
            "--intersect", "triangular(0.5,1)", "--trials", "1000",
        )
        assert code == 0 and "verdict: no-violation-found" in out

    def test_strict_flag(self):
        code, out, _ = run_cli(
            "convex", "--family", "triangular(0,1)", "--box", "-2:2", "--strict"
        )
        assert code == 1 and "check: strongly-convex" in out

    def test_multidimensional_box(self):
        code, out, _ = run_cli(
            "convex", "--family", "gaussian(0,1)", "--box", "-1:1,-1:1",
            "--trials", "200",
        )
        assert code == 0

    def test_unknown_family(self):
        code, _, err = run_cli("convex", "--family", "sombrero(1)")
        assert code == 2 and "unknown family" in err

    def test_malformed_box(self):
        code, _, err = run_cli("convex", "--family", "triangular(0,1)", "--box", "oops")
        assert code == 2 and "box" in err
        code, _, _ = run_cli("convex", "--family", "triangular(0,1)", "--box", "2:-2")
        assert code == 2

    def test_non_numeric_box(self):
        code, out, err = run_cli("convex", "--family", "triangular(0,1)", "--box", "-1:1,a:b")
        assert (code, out) == (2, "")
        assert err == "ins: error: box range 'a:b' is not numeric\n"

    def test_bad_trials(self):
        code, _, _ = run_cli("convex", "--family", "triangular(0,1)", "--trials", "0")
        assert code == 2

    def test_strict_point_box_is_a_usage_error(self):
        # no two distinct points exist to draw; the check used to loop forever
        code, out, err = run_cli(
            "convex", "--family", "triangular(0,1)", "--box", "0:0", "--strict"
        )
        assert code == 2 and out == ""
        assert err.startswith("ins: error:") and "nonzero width" in err

    def test_deterministic_output(self):
        args = ("convex", "--family", "bimodal(4)", "--box", "-3:3", "--seed", "6")
        assert run_cli(*args) == run_cli(*args)

    @pytest.mark.parametrize("flags", [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--seed", "-1"),
        ("--lambda-grid", "1"),
        ("--family", "triangular(0,nan)"),
        ("--family", "gaussian(inf)"),
        ("--box", "-1e308:1e308"),
        ("--lambda-grid", "1001"),
        ("--lambda-grid", "100000000"),
    ])
    def test_bad_numbers_are_usage_errors(self, flags):
        # each used to pass silently, print a traceback or exit 1
        code, out, err = run_cli("convex", "--family", "bimodal(4)", "--box", "-3:3", *flags)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(("ins convex: error: argument", "ins: error:"))


    @pytest.mark.parametrize("flags", [
        ("--family", "gaussian(0,1e-320)"),
        ("--family", "gaussian(0,1e-300)"),
        ("--family", "triangular(1e308,1e-308)"),
        ("--family", "gaussian(0,1)", "--box", "-1e200:1e200,-1e200:1e200"),
    ])
    def test_extreme_parameters_print_no_warning(self, flags):
        # the bumps overflow to inf on the way to 0; numpy used to print a
        # RuntimeWarning for each
        code, out, err = run_cli("convex", "--trials", "50", *flags)
        assert (code, err) == (0, "")
        assert "verdict: no-violation-found" in out


class TestEndToEnd:
    def test_module_entry_point(self, ex1_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ins", "eval", "--sets", str(ex1_path),
             "--expr", "A | B"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == EXPECTED_UNION_BLOCK

    def test_module_entry_point_exit_codes(self, ex1_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ins", "eval", "--sets", str(ex1_path),
             "--expr", "A | C"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ins", "eval"], capture_output=True, text=True
        )
        assert proc.returncode == 2


SET_FILE = (
    "set A\n  x1 : [0.2,0.4] [0.3,0.5] [0.3,0.5]\n  x2 : [0,1] [0,0] [0.5,0.5]\nend\n"
    "set B\n  x2 : [0.1,0.2] [0.2,0.3] [0.3,0.4]\n  x1 : [1,1] [0,1] [0,0]\nend\n"
)
# a literal past the largest float, and one whose quotients overflow
HUGE, TINY = "1" + "0" * 400, "0." + "0" * 322 + "5"
EXPR_TEXT = st.lists(
    st.sampled_from(list("AB()|&\\+~,.0123456789 \n?") + ["tf", "cart", "scale", "div",
                                                           "subset", "eq", "empty", "\u00b2",
                                                           HUGE, TINY]),
    max_size=20,
).map("".join)
SET_LINES = SET_FILE.split("\n") + ["\xff", "set A", "end", ":", "  x1 : [0.5,0.2] [0,1] [0,1]"]
SET_BYTES = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(SET_LINES), max_size=8).map(
        lambda lines: "\n".join(lines).encode("latin-1")),
)
# one stderr line: a positioned diagnostic, or a usage error
STDERR_LINE = re.compile(r"ins: (?:.+:\d+:\d+: [A-Za-z]+: |error: ).*")
# an endpoint that is not a number: nan or inf in a set file, NaN or
# Infinity in JSON
NON_NUMBER = re.compile(r"[\[,] ?-?(?:nan|inf|NaN|Infinity)\b")


NUMBERS = ["0", "1", "-1", "0.5", "4", "1e-320", "1e-300", "1e-308", "1e200", "-1e200", "1e308",
           "-1e308", "1.7976931348623157e308", "nan", "inf", "-inf", "x", ""]
FAMILY_SPEC = st.one_of(
    st.tuples(st.sampled_from(["triangular", "gaussian", "bimodal", "sombrero"]),
              st.lists(st.sampled_from(NUMBERS), max_size=3).map(",".join)).map("{0[0]}({0[1]})".format),
    st.lists(st.sampled_from(list("(),.-01e ") + ["gaussian", "bimodal"]), max_size=8).map("".join),
)
BOX_TEXT = st.one_of(
    st.lists(st.tuples(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS)).map(":".join),
             min_size=1, max_size=3).map(",".join),
    st.lists(st.sampled_from(list(":,-01e.x ")), max_size=10).map("".join),
)
# --trials stays small; the others may be absent
CONVEX_FLAGS = st.fixed_dictionaries({
    "--trials": st.sampled_from(["1", "2", "5", "0", "-1", "x"]),
    "--lambda-grid": st.none() | st.sampled_from(["1", "2", "3", "1000", "1001", "100000000", "x"]),
    "--seed": st.none() | st.sampled_from(["0", "7", "-1", "1e3"]),
    "--tol": st.none() | st.sampled_from(["0", "1e-9", "0.5", "1e308", "nan", "inf", "-1"]),
})


def _assert_clean_exit(argv, usage_prog=None):
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    assert not NON_NUMBER.search(out)
    if usage_prog and err.startswith("usage: "):
        # argparse refused a flag value: its usage text, then one error line
        assert code == 2
        assert re.fullmatch(f"usage: {usage_prog} .*\n{usage_prog}: error: argument .*\n", err, re.S)
        return
    lines = err.split("\n")
    assert lines.pop() == ""  # empty, or whole lines
    for line in lines:
        assert STDERR_LINE.fullmatch(line), line


class TestFuzz:
    """No input reaches a traceback: every run ends with exit code 0, 1 or 2
    and diagnostics in the documented form."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(EXPR_TEXT)
    @example("scale(\u00b2,A)")
    @example(f"scale({HUGE},A)")
    @example(f"div(A,{TINY})")
    def test_eval_expression(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_sets.ins"
        path.write_text(SET_FILE, encoding="utf-8")
        _assert_clean_exit(["eval", "--sets", str(path), f"--expr={text}"])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SET_BYTES)
    @example(b"set A\n  x\xff : [0,1] [0,1] [0,1]\nend\n")
    def test_set_file_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz_bytes.ins"
        path.write_bytes(raw)
        _assert_clean_exit(["eval", "--sets", str(path), "--expr", "A"])
        _assert_clean_exit(["check", "--law", "involution", "--trials", "1", "--sets", str(path)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(FAMILY_SPEC, st.none() | FAMILY_SPEC, BOX_TEXT, st.booleans(), CONVEX_FLAGS)
    @example("gaussian(0,1)", None, "-2:2", False, {"--trials": "1", "--lambda-grid": "100000000"})
    @example("gaussian(0,1e-320)", None, "-2:2", False, {"--trials": "5"})
    @example("triangular(1e308,1e-308)", "gaussian(0,1e-300)", "-2:2", True, {"--trials": "5"})
    @example("gaussian(0,1)", None, "-1e200:1e200,-1e200:1e200", False, {"--trials": "5"})
    def test_convex_flags(self, family, other, box, strict, flags):
        argv = ["convex", f"--family={family}", f"--box={box}"]
        argv += [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        argv += [f"--intersect={other}"] * (other is not None) + ["--strict"] * strict
        _assert_clean_exit(argv, usage_prog="ins convex")
