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
positive ASCII decimal literal ``k`` that is finite as a float. The predicates
``subset``, ``eq`` and ``empty`` may only appear as the root of an expression.

One regex splits the text into tokens. The parser reads operator chains by
precedence climbing and recurses only where a ``(``, ``~`` or call opens a
nesting level. :func:`evaluate` and :func:`format_expr` keep their own stack,
so trees of any depth and shape evaluate and print. Every diagnostic is a
:class:`~ins.errors.SourceError` carrying a 1-based line and column.
"""

from __future__ import annotations

import math
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


# One alternative per token shape, tried in this order at each offset. An
# ``ident`` word (letters, digits, '_') must start with a letter; a word that
# does not, and any ``other`` character, is a LexError.
_TOKEN_RE = re.compile(
    rf"(?P<newline>\n)|(?P<blanks>[ \t\r]+)|(?P<number>{_NUM_RE.pattern})|(?P<ident>\w+)"
    rf"|(?P<punct>[{re.escape(_PUNCT)}])|(?P<other>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "blanks":
            col = m.start() - line_start + 1
            if kind == "other" or kind == "ident" and not word[0].isalpha():
                raise SourceError(LEX_ERROR, line, col, f"unexpected character {word[0]!r}")
            tokens.append(_Token(word if kind == "punct" else kind, word, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Operator tables: the parser, evaluator and printer all read these.

# Infix operators, loosest first; all associate left. ``~`` binds tighter.
_INFIX = (("+", Add), ("\\", Difference), ("|", Union), ("&", Intersect))
# infix symbol -> its level, the index in _INFIX
_BINDING = {symbol: level for level, (symbol, _) in enumerate(_INFIX)}

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
# node type -> argument kinds in field order, for every operator node
_KINDS = {t: _CALLS[t][1] if t in _CALLS else (Expr,) * len(t.__match_args__) for t in _OPS}
# node type -> (field name, kind) of each argument, last field first
_ARGS = {t: tuple(zip(t.__match_args__, kinds))[::-1] for t, kinds in _KINDS.items()}


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

    def _expression(self, depth: int) -> Expr:
        """A chain of infix operators, by precedence climbing: ``pending``
        holds each left operand whose operator waits for a right operand that
        binds tighter."""
        pending = []  # (left operand, operator token, level), loosest first
        node = self._unary(depth)
        while True:
            level = _BINDING.get(self._peek().kind, -1)
            while pending and pending[-1][2] >= level:
                left, tok, left_level = pending.pop()
                node = _INFIX[left_level][1](left, node, line=tok.line, col=tok.col)
            if level < 0:
                return node
            pending.append((node, self._advance(), level))
            node = self._unary(depth)

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
        if value == math.inf:
            raise SourceError(
                NON_POSITIVE_SCALAR, tok.line, tok.col,
                "scalar literal overflows to infinity",
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
    position. A node's operands evaluate in field order, and each is checked
    as soon as it is made. The walk keeps its own stack, so trees of any depth
    and shape evaluate.
    """
    values: list = []  # operands made and not yet used, in field order
    todo: list = [(expr, None, Expr)]  # (node or literal, parent, step), next last
    while todo:
        item, parent, step = todo.pop()
        if step is float:  # a literal operand
            values.append(item)
            continue
        t = type(item)
        if step is Expr and t in _KINDS:  # its operands first, then itself
            todo.append((item, parent, None))
            todo += [(getattr(item, name), item, kind) for name, kind in _ARGS[t]]
            continue
        if step is None:  # its operands are the last values
            n = len(_KINDS[t])
            args = values[-n:]
            del values[-n:]
            try:
                value = _OPS[t](*args)
            except UniverseMismatch as exc:
                raise _err(UNIVERSE_MISMATCH, item, str(exc)) from None
            except NonPositiveScalar as exc:
                raise _err(NON_POSITIVE_SCALAR, item, str(exc)) from None
        elif t is Ident:
            try:
                value = env[item.name]
            except KeyError:
                raise _err(UNKNOWN_IDENTIFIER, item, f"unknown set {item.name!r}") from None
        else:
            raise TypeError(f"not an expression node: {item!r}")
        values.append(value if parent is None else _set_operand(value, parent))
    return values[0]


def _err(kind: str, node: Expr, message: str) -> SourceError:
    return SourceError(kind, node.line, node.col, message)


def _set_operand(value: EvalResult, parent: Expr) -> DiscreteINS:
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


# node type -> the pieces it prints, in order: text, or (field, the least
# level that field's node prints at without parentheses; float for a literal)
_PIECES = {t: (("left", level), f" {symbol} ", ("right", level + 1))
           for level, (symbol, t) in enumerate(_INFIX)}
_PIECES[Complement] = ("~", ("operand", _LEVEL[Complement]))
_PIECES |= {  # a call's arguments, each after a comma but the first
    t: (f"{name}(", *[piece for f, kind in zip(t.__match_args__, kinds)
                      for piece in (",", (f, 0 if kind is Expr else float))][1:], ")")
    for t, (name, kinds) in _CALLS.items()
}


def format_expr(e: Expr) -> str:
    """Render an expression with minimal parentheses; reparses to an equal
    tree. The walk keeps its own stack, so trees of any depth and shape
    render."""
    out: list[str] = []
    todo: list = [(e, 0)]  # text, or (node, least level it prints at), next last
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, least = item
        t = type(node)
        if least is float:
            out.append(_fmt_number(node, 17))
        elif t is Ident:
            out.append(node.name)
        elif t not in _PIECES:
            raise TypeError(f"not an expression node: {node!r}")
        else:
            if _LEVEL.get(t, len(_INFIX) + 1) < least:
                out.append("(")
                todo.append(")")
            todo += [p if type(p) is str else (getattr(node, p[0]), p[1])
                     for p in reversed(_PIECES[t])]
    return "".join(out)
