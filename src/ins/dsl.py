"""Text formats: the set file format and the expression language.

Set files hold named discrete sets, one element per line::

    # comment
    set A
      x1 : [0.2,0.4] [0.3,0.5] [0.3,0.5]
    end

Expressions combine named sets with ASCII operators. Binding tightness,
tightest first: ``~`` (complement), ``&`` (intersection), ``|`` (union),
``\\`` (difference), ``+`` (addition); all binary operators associate left.
Named functions: ``tf``/``ff`` (truth/false-favorite), ``cart``/``prod``
(cartesian and elementwise product), ``scale(k, e)`` and ``div(e, k)`` with a
positive ASCII decimal literal ``k``. The predicates ``subset``, ``eq`` and
``empty`` may only appear as the root of an expression.

Every diagnostic is a :class:`~ins.errors.SourceError` carrying a 1-based
line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Union as _UnionT

import numpy as np

from . import core
from .core import DiscreteINS, PairedINS, UnitInterval
from .errors import (
    InvalidInterval,
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

__all__ = [
    "Expr",
    "Ident",
    "Complement",
    "Union",
    "Intersect",
    "Difference",
    "Add",
    "Cart",
    "Prod",
    "Scale",
    "Div",
    "TruthFav",
    "FalseFav",
    "Subset",
    "Equal",
    "Empty",
    "Environment",
    "parse_expr",
    "parse_sets",
    "evaluate",
    "format_set",
    "format_expr",
    "set_to_json",
]

Environment = Mapping[str, DiscreteINS]

EvalResult = _UnionT[DiscreteINS, PairedINS, bool]


# --------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True, slots=True)
class Expr:
    """Base node; source position does not participate in equality."""

    line: int = field(default=0, kw_only=True, compare=False, repr=False)
    col: int = field(default=0, kw_only=True, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Complement(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Intersect(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Difference(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Cart(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Prod(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Scale(Expr):
    factor: float
    operand: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    operand: Expr
    divisor: float


@dataclass(frozen=True, slots=True)
class TruthFav(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class FalseFav(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class Subset(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Equal(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Empty(Expr):
    operand: Expr


# --------------------------------------------------------------------------
# Lexer

_PUNCT = "()|&\\+~,"
# ASCII decimals only, in set files and expressions alike: str.isdigit()
# accepts digits that float() refuses or reads as other numbers
_NUM_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")


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
        number = _NUM_RE.match(text, i)
        if number:
            tokens.append(_Token("number", number.group(), line, start_col))
            col += number.end() - i
            i = number.end()
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
# Operator tables: the parser, evaluator and printer all read these.

# Infix operators, loosest first; all associate left. ``~`` binds tighter.
_INFIX = (("+", Add), ("\\", Difference), ("|", Union), ("&", Intersect))

# name -> (node type, argument kinds in field order); a kind is Expr for a
# subexpression or float for a positive decimal literal
_FUNCTIONS = {
    "tf": (TruthFav, (Expr,)),
    "ff": (FalseFav, (Expr,)),
    "cart": (Cart, (Expr, Expr)),
    "prod": (Prod, (Expr, Expr)),
    "scale": (Scale, (float, Expr)),
    "div": (Div, (Expr, float)),
}
# allowed only as the root of an expression
_PREDICATES = {
    "subset": (Subset, (Expr, Expr)),
    "eq": (Equal, (Expr, Expr)),
    "empty": (Empty, (Expr,)),
}
# node type -> (name, argument kinds) of every function and predicate
_CALLS = {t: (name, kinds) for name, (t, kinds) in (_FUNCTIONS | _PREDICATES).items()}

_OPS = {
    Complement: core.complement,
    Union: core.union,
    Intersect: core.intersect,
    Difference: core.difference,
    Add: core.add,
    Cart: core.cartesian_product,
    Prod: core.pointwise_product,
    Scale: core.scalar_mul,
    Div: core.scalar_div,
    TruthFav: core.truth_favorite,
    FalseFav: core.false_favorite,
    Subset: core.is_contained,
    Equal: core.equals,
    Empty: core.is_empty,
}
# not used here, but tracing tools repoint the operators through these names
_BINARY_OPS = _UNARY_OPS = _OPS


# --------------------------------------------------------------------------
# Expression parser

# Deepest nesting allowed: each parenthesized group, ``~`` and call opens a
# level (``~(A | B)`` has two); operator chains, read in a loop, open none.
_MAX_DEPTH = 100


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
            node = self._call(self._advance(), _PREDICATES, 0)
        else:
            node = self._expression(0)
        end = self._peek()
        if end.kind != "eof":
            raise self._error(end, f"unexpected trailing input {self._describe(end)}")
        return node

    def _nest(self, tok: _Token, depth: int) -> int:
        """The level that ``tok`` opens when ``depth`` levels are open."""
        if depth == _MAX_DEPTH:
            raise self._error(tok, f"expression nests deeper than {_MAX_DEPTH} levels")
        return depth + 1

    def _expression(self, depth: int, level: int = 0) -> Expr:
        """A chain of ``_INFIX[level]`` operators, or of the tighter levels."""
        if level == len(_INFIX):
            return self._unary(depth)
        symbol, node_type = _INFIX[level]
        node = self._expression(depth, level + 1)
        while self._peek().kind == symbol:
            tok = self._advance()
            node = node_type(node, self._expression(depth, level + 1), line=tok.line, col=tok.col)
        return node

    def _unary(self, depth: int) -> Expr:
        tok = self._peek()
        if tok.kind == "~":
            self._advance()
            return Complement(self._unary(self._nest(tok, depth)), line=tok.line, col=tok.col)
        return self._atom(depth)

    def _atom(self, depth: int) -> Expr:
        tok = self._peek()
        if tok.kind == "(":
            self._advance()
            node = self._expression(self._nest(tok, depth))
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
            if tok.text not in _FUNCTIONS:
                raise self._error(tok, f"unknown function {tok.text!r}")
            return self._call(tok, _FUNCTIONS, depth)
        raise self._error(tok, f"expected an expression, found {self._describe(tok)}")

    def _call(self, name_tok: _Token, table: dict, depth: int) -> Expr:
        node_type, kinds = table[name_tok.text]
        self._expect("(", "'('")
        depth = self._nest(name_tok, depth)
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self._expect(",", "','")
            args.append(self._number() if kind is float else self._expression(depth))
        self._expect(")", "')'")
        return node_type(*args, line=name_tok.line, col=name_tok.col)

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


def evaluate(expr: Expr, env: Environment) -> EvalResult:
    """Evaluate an expression bottom-up over the named sets in ``env``.

    Predicates yield booleans, ``cart`` yields a set over a product universe,
    everything else a discrete set. Errors carry the offending node's source
    position.
    """
    if type(expr) is Ident:
        try:
            return env[expr.name]
        except KeyError:
            raise _err(UNKNOWN_IDENTIFIER, expr, f"unknown set {expr.name!r}") from None
    op = _OPS.get(type(expr))
    if op is None:
        raise TypeError(f"not an expression node: {expr!r}")
    fields = [getattr(expr, name) for name in expr.__match_args__]
    kinds = _CALLS[type(expr)][1] if type(expr) in _CALLS else [Expr] * len(fields)
    args = [v if kind is float else _set_operand(v, env, expr) for v, kind in zip(fields, kinds)]
    try:
        return op(*args)
    except UniverseMismatch as exc:
        raise _err(UNIVERSE_MISMATCH, expr, str(exc)) from None
    except NonPositiveScalar as exc:
        raise _err(NON_POSITIVE_SCALAR, expr, str(exc)) from None


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


# --------------------------------------------------------------------------
# Set file parsing

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

# An element line is ``LABEL : [lo,hi] [lo,hi] [lo,hi]``, written once here:
# parse_sets matches whole lines against the concatenation and
# _element_fault walks the same pieces to report where a line breaks off.
# The label is one token with no ':' and any whitespace around it; spaces
# and tabs may precede each piece of an interval (with the message that
# reports a line without the piece); any whitespace may end the line.
_LABEL_RE = re.compile(r"\s*([^\s:]+)\s*:")
_BLANKS_RE = re.compile(r"[ \t]*")
_INTERVAL = (
    (r"\[", "expected '[' starting an interval"),
    (f"({_NUM_RE.pattern})", "expected a decimal number"),
    (",", "expected ',' inside interval"),
    (f"({_NUM_RE.pattern})", "expected a decimal number"),
    (r"\]", "expected ']' closing interval"),
)
_ELEMENT_RE = re.compile(
    _LABEL_RE.pattern + "".join(_BLANKS_RE.pattern + p for p, _ in _INTERVAL) * 3 + r"\s*"
)


def parse_sets(text: str) -> dict[str, DiscreteINS]:
    """Parse a set file into an environment, in declaration order; the first
    error in file order is the one reported."""
    env: dict[str, DiscreteINS] = {}
    lines = text.split("\n")
    current: str | None = None
    rows: dict[str, int] = {}  # label -> line number, in the open block
    numbers: list[str] = []  # the open block's endpoints, six a row
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if current is None:
            indent = len(line) - len(line.lstrip())
            first_col = indent + 1
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
            rows = {}
            numbers = []
            continue
        if stripped == "end":
            env[current] = _block(lines, current, rows, numbers)
            current = None
            continue
        m = _ELEMENT_RE.fullmatch(line)
        if m is None or m[1] in rows:
            _block(lines, current, rows, numbers)  # an earlier bad row comes first
            raise SourceError(PARSE_ERROR, lineno, *_element_fault(line, current, rows))
        rows[m[1]] = lineno
        numbers += m.group(2, 3, 4, 5, 6, 7)
    if current is not None:
        _block(lines, current, rows, numbers)
        last = len(lines)
        raise SourceError(
            PARSE_ERROR, last, len(lines[-1]) + 1, f"missing 'end' for set {current!r}"
        )
    return env


def _block(lines: list[str], name: str, rows: dict[str, int], numbers: list[str]) -> DiscreteINS:
    """Block ``name`` as a set; ``rows`` map its labels to their lines, and
    the first line with an interval out of range is reported."""
    try:
        return DiscreteINS.from_array(rows, np.array(numbers, dtype=np.float64).reshape(-1, 6))
    except InvalidInterval:
        for lineno in rows.values():
            fault = _element_fault(lines[lineno - 1], name, ())
            if fault:
                raise SourceError(PARSE_ERROR, lineno, *fault) from None
        raise  # no line holds the value from_array refused


def _element_fault(line: str, block: str, labels) -> tuple[int, str] | None:
    """The column and message of the first fault, in column order, on an
    element line of ``block`` whose earlier lines hold ``labels``; None if
    there is none."""
    first_col = len(line) - len(line.lstrip()) + 1
    m = _LABEL_RE.match(line)
    if m is None:
        if ":" in line:
            return first_col, "element label must be a single token before ':'"
        if line.split()[0] == "set":
            return first_col, f"'set' inside block {block!r} (missing 'end'?)"
        return first_col, "expected 'LABEL : T I F' element line or 'end'"
    if m[1] in labels:
        return first_col, f"duplicate element label {m[1]!r}"
    pos = m.end()
    for _ in range(3):
        start = _BLANKS_RE.match(line, pos).end()
        ends = []
        for piece, message in _INTERVAL:
            pos = _BLANKS_RE.match(line, pos).end()
            m = re.compile(piece).match(line, pos)
            if m is None:
                return pos + 1, message
            ends += m.groups()
            pos = m.end()
        try:
            UnitInterval(*map(float, ends))
        except InvalidInterval as exc:
            return start + 1, str(exc)
    rest = line[pos:]
    if rest.strip():
        message = f"unexpected trailing text {rest.split()[0]!r}"
        return len(line) - len(rest.lstrip()) + 1, message
    return None


# --------------------------------------------------------------------------
# Formatting

def _fmt_number(value: float, precision: int) -> str:
    # Positional notation only; the file format has no exponent literals.
    # repr and the 'g' format give the digits of numpy's positional
    # formatter, several times faster, until they switch to an exponent.
    text = repr(value).removesuffix(".0") if precision >= 17 else f"{value:.{precision}g}"
    if "e" not in text:
        return text
    unique = precision >= 17  # shortest round-trip digits
    return np.format_float_positional(
        value, precision=None if unique else precision, unique=unique, fractional=False, trim="-"
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
    for label, row in zip(s.universe, s.endpoints.tolist()):
        t0, t1, i0, i1, f0, f1 = (_fmt_number(v, precision) for v in row)
        out.append(f"  {_label_text(label)} : [{t0},{t1}] [{i0},{i1}] [{f0},{f1}]")
    out.append("end")
    return "\n".join(out) + "\n"


def set_to_json(s: DiscreteINS | PairedINS, name: str = "result") -> dict:
    """JSON-ready dict: {"name", "elements": [{"label", "T", "I", "F"}]}."""
    elements = [
        {"label": _label_text(label), "T": row[0:2], "I": row[2:4], "F": row[4:6]}
        for label, row in zip(s.universe, s.endpoints.tolist())
    ]
    return {"name": name, "elements": elements}


# node type -> printing level: infix operators by their index in _INFIX,
# then ``~``; identifiers and calls bind tightest
_LEVEL = {node_type: level for level, (_, node_type) in enumerate(_INFIX)}
_LEVEL[Complement] = len(_INFIX)


def _operand_text(e: Expr, level: int) -> str:
    """``e`` rendered, in parentheses unless it binds at least at ``level``."""
    text = format_expr(e)
    return text if _LEVEL.get(type(e), len(_INFIX) + 1) >= level else f"({text})"


def format_expr(e: Expr) -> str:
    """Render an expression with minimal parentheses; reparses to an equal
    tree."""
    t = type(e)
    if t is Ident:
        return e.name
    if t is Complement:
        return "~" + _operand_text(e.operand, _LEVEL[t])
    if t in _LEVEL:
        level = _LEVEL[t]
        symbol = _INFIX[level][0]
        return f"{_operand_text(e.left, level)} {symbol} {_operand_text(e.right, level + 1)}"
    if t in _CALLS:
        name, kinds = _CALLS[t]
        args = [
            _fmt_number(getattr(e, field), 17) if kind is float
            else format_expr(getattr(e, field))
            for field, kind in zip(e.__match_args__, kinds)
        ]
        return f"{name}({','.join(args)})"
    raise TypeError(f"not an expression node: {e!r}")
