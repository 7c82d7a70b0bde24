"""Frozen expression lexer, parser, evaluator and printer: the reference
that ``ins.dsl`` is compared against.

This is the code path the package used before each operator was described
once in a table: a precedence chain of nested calls, one branch per function
and predicate, and one evaluator and printer branch per node type. It is kept
verbatim apart from the imports: the node classes and operators come from the
package, so that trees from both parsers compare equal. Do not change it to
follow the package: the point of the copy is that it does not move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ins import core
from ins.core import DiscreteINS, PairedINS
from ins.dsl import (
    Add,
    Cart,
    Complement,
    Difference,
    Div,
    Empty,
    Environment,
    Equal,
    EvalResult,
    Expr,
    FalseFav,
    Ident,
    Intersect,
    Prod,
    Scale,
    Subset,
    TruthFav,
    Union,
)
from ins.errors import (
    NonPositiveScalar,
    SourceError,
    UniverseMismatch,
    LEX_ERROR,
    NON_POSITIVE_SCALAR,
    PARSE_ERROR,
    TYPE_MISMATCH,
    UNIVERSE_MISMATCH,
    UNKNOWN_IDENTIFIER,
)

# --------------------------------------------------------------------------
# Lexer

_PUNCT = "()|&\\+~,"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "ident" | "number" | one of _PUNCT | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise SourceError(LEX_ERROR, line, col, f"unexpected character {c!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Expression parser

_SET_FUNCTIONS = {"tf", "ff", "cart", "prod", "scale", "div"}
_PREDICATES = {"subset", "eq", "empty"}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _describe(self, tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def _error(self, tok: _Token, message: str) -> SourceError:
        return SourceError(PARSE_ERROR, tok.line, tok.col, message)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise self._error(tok, f"expected {what}, found {self._describe(tok)}")
        return self._advance()

    def parse(self) -> Expr:
        tok = self._peek()
        if (
            tok.kind == "ident"
            and tok.text in _PREDICATES
            and self._peek(1).kind == "("
        ):
            node = self._predicate()
        else:
            node = self._expression()
        end = self._peek()
        if end.kind != "eof":
            raise self._error(end, f"unexpected trailing input {self._describe(end)}")
        return node

    def _predicate(self) -> Expr:
        name_tok = self._advance()
        self._expect("(", "'('")
        first = self._expression()
        if name_tok.text == "empty":
            self._expect(")", "')'")
            return Empty(first, line=name_tok.line, col=name_tok.col)
        self._expect(",", "','")
        second = self._expression()
        self._expect(")", "')'")
        node_type = Subset if name_tok.text == "subset" else Equal
        return node_type(first, second, line=name_tok.line, col=name_tok.col)

    def _expression(self) -> Expr:
        return self._binary_chain(
            "+", Add, lambda: self._binary_chain(
                "\\", Difference, lambda: self._binary_chain(
                    "|", Union, lambda: self._binary_chain("&", Intersect, self._unary)
                )
            )
        )

    def _binary_chain(self, op: str, node_type, sub) -> Expr:
        node = sub()
        while self._peek().kind == op:
            tok = self._advance()
            node = node_type(node, sub(), line=tok.line, col=tok.col)
        return node

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "~":
            self._advance()
            return Complement(self._unary(), line=tok.line, col=tok.col)
        return self._atom()

    def _atom(self) -> Expr:
        tok = self._peek()
        if tok.kind == "(":
            self._advance()
            node = self._expression()
            self._expect(")", "')'")
            return node
        if tok.kind == "ident":
            self._advance()
            if self._peek().kind != "(":
                return Ident(tok.text, line=tok.line, col=tok.col)
            if tok.text in _PREDICATES:
                raise self._error(
                    tok, f"predicate {tok.text!r} is only allowed at the top level"
                )
            if tok.text not in _SET_FUNCTIONS:
                raise self._error(tok, f"unknown function {tok.text!r}")
            return self._call(tok)
        raise self._error(tok, f"expected an expression, found {self._describe(tok)}")

    def _call(self, name_tok: _Token) -> Expr:
        name = name_tok.text
        pos = {"line": name_tok.line, "col": name_tok.col}
        self._expect("(", "'('")
        if name in ("tf", "ff"):
            operand = self._expression()
            self._expect(")", "')'")
            return (TruthFav if name == "tf" else FalseFav)(operand, **pos)
        if name in ("cart", "prod"):
            left = self._expression()
            self._expect(",", "','")
            right = self._expression()
            self._expect(")", "')'")
            return (Cart if name == "cart" else Prod)(left, right, **pos)
        if name == "scale":
            factor = self._number()
            self._expect(",", "','")
            operand = self._expression()
            self._expect(")", "')'")
            return Scale(factor, operand, **pos)
        # div
        operand = self._expression()
        self._expect(",", "','")
        divisor = self._number()
        self._expect(")", "')'")
        return Div(operand, divisor, **pos)

    def _number(self) -> float:
        tok = self._expect("number", "a positive decimal literal")
        value = float(tok.text)
        if value <= 0.0:
            raise SourceError(
                NON_POSITIVE_SCALAR, tok.line, tok.col,
                f"scalar literal must be > 0, got {tok.text}",
            )
        return value


def parse_expr(text: str) -> Expr:
    """Parse one expression (or one root-level predicate)."""
    return _Parser(_tokenize(text)).parse()


# --------------------------------------------------------------------------
# Evaluation

_BINARY_OPS = {
    Union: core.union,
    Intersect: core.intersect,
    Difference: core.difference,
    Add: core.add,
    Prod: core.pointwise_product,
}

_UNARY_OPS = {
    Complement: core.complement,
    TruthFav: core.truth_favorite,
    FalseFav: core.false_favorite,
}


def evaluate(expr: Expr, env: Environment) -> EvalResult:
    """Evaluate an expression bottom-up over the named sets in ``env``.

    Predicates yield booleans, ``cart`` yields a set over a product universe,
    everything else a discrete set. Errors carry the offending node's source
    position.
    """
    node_type = type(expr)
    if node_type is Ident:
        try:
            return env[expr.name]
        except KeyError:
            raise _err(UNKNOWN_IDENTIFIER, expr, f"unknown set {expr.name!r}") from None
    if node_type in _UNARY_OPS:
        return _UNARY_OPS[node_type](_set_operand(expr.operand, env, expr))
    if node_type in _BINARY_OPS:
        left = _set_operand(expr.left, env, expr)
        right = _set_operand(expr.right, env, expr)
        return _core_call(expr, _BINARY_OPS[node_type], left, right)
    if node_type is Cart:
        left = _set_operand(expr.left, env, expr)
        right = _set_operand(expr.right, env, expr)
        return core.cartesian_product(left, right)
    if node_type is Scale:
        return _core_call(
            expr, core.scalar_mul, expr.factor, _set_operand(expr.operand, env, expr)
        )
    if node_type is Div:
        return _core_call(
            expr, core.scalar_div, _set_operand(expr.operand, env, expr), expr.divisor
        )
    if node_type is Subset:
        return _core_call(
            expr,
            core.is_contained,
            _set_operand(expr.left, env, expr),
            _set_operand(expr.right, env, expr),
        )
    if node_type is Equal:
        return _core_call(
            expr,
            core.equals,
            _set_operand(expr.left, env, expr),
            _set_operand(expr.right, env, expr),
        )
    if node_type is Empty:
        return core.is_empty(_set_operand(expr.operand, env, expr))
    raise TypeError(f"not an expression node: {expr!r}")


def _err(kind: str, node: Expr, message: str) -> SourceError:
    return SourceError(kind, node.line, node.col, message)


def _set_operand(child: Expr, env: Environment, parent: Expr) -> DiscreteINS:
    value = evaluate(child, env)
    if isinstance(value, PairedINS):
        raise _err(
            TYPE_MISMATCH, parent,
            "a cartesian product result cannot be an operand of another operator",
        )
    if isinstance(value, bool):
        # unreachable through the grammar (predicates are root-only), but
        # hand-built trees land here
        raise _err(
            TYPE_MISMATCH, parent,
            "a predicate result cannot be an operand of another operator",
        )
    return value


def _core_call(node: Expr, fn, *args):
    try:
        return fn(*args)
    except UniverseMismatch as exc:
        raise _err(UNIVERSE_MISMATCH, node, str(exc)) from None
    except NonPositiveScalar as exc:
        raise _err(NON_POSITIVE_SCALAR, node, str(exc)) from None


# --------------------------------------------------------------------------
# Formatting

def _fmt_number(value: float, precision: int) -> str:
    # Positional notation only; the file format has no exponent literals.
    if precision >= 17:
        return np.format_float_positional(value, unique=True, trim="-")
    return np.format_float_positional(
        value, precision=precision, unique=False, fractional=False, trim="-"
    )


_PRECEDENCE = {Add: 1, Difference: 2, Union: 3, Intersect: 4, Complement: 5}
_BINARY_TEXT = {Add: " + ", Difference: " \\ ", Union: " | ", Intersect: " & "}
_CALL_TEXT = {TruthFav: "tf", FalseFav: "ff", Cart: "cart", Prod: "prod"}
_PREDICATE_TEXT = {Subset: "subset", Equal: "eq", Empty: "empty"}


def _prec(e: Expr) -> int:
    return _PRECEDENCE.get(type(e), 6)


def format_expr(e: Expr) -> str:
    """Render an expression with minimal parentheses; reparses to an equal
    tree."""
    t = type(e)
    if t is Ident:
        return e.name
    if t is Complement:
        inner = format_expr(e.operand)
        if _prec(e.operand) < 5:
            inner = f"({inner})"
        return f"~{inner}"
    if t in _BINARY_TEXT:
        p = _PRECEDENCE[t]
        left = format_expr(e.left)
        if _prec(e.left) < p:
            left = f"({left})"
        right = format_expr(e.right)
        if _prec(e.right) <= p:
            right = f"({right})"
        return f"{left}{_BINARY_TEXT[t]}{right}"
    if t in _CALL_TEXT:
        if t in (Cart, Prod):
            return f"{_CALL_TEXT[t]}({format_expr(e.left)},{format_expr(e.right)})"
        return f"{_CALL_TEXT[t]}({format_expr(e.operand)})"
    if t is Scale:
        return f"scale({_fmt_number(e.factor, 17)},{format_expr(e.operand)})"
    if t is Div:
        return f"div({format_expr(e.operand)},{_fmt_number(e.divisor, 17)})"
    if t in _PREDICATE_TEXT:
        if t is Empty:
            return f"empty({format_expr(e.operand)})"
        return f"{_PREDICATE_TEXT[t]}({format_expr(e.left)},{format_expr(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")
