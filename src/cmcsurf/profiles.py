"""Profile expression language with exact first and second derivatives.

Profiles such as ``r(u)`` and ``f(u)`` enter the library as strings in a
small expression grammar and are evaluated to second-order jets
(value, d/du, d^2/du^2) by forward propagation of the Leibniz and chain
rules.  Grammar (EBNF; this block is its reference):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom { "^" exponent } ;        (* left-associative *)
    exponent = "-" exponent | atom ;          (* must not contain u *)
    atom     = NUMBER | "u" | CONSTANT | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC     = "sqrt" | "sin" | "cos" | "sinh" | "cosh" | "exp" | "ln" | "abs" ;

Precedence is ^ > unary minus > * / > + -, binary operators associate to
the left, and exponents are restricted to constant subexpressions.  Named
constants are resolved at evaluation time so a single parsed profile can
serve parameter sweeps; ``pi`` is predefined.

Columns.  A profile is evaluated at one float u, or at an ndarray of u (a
column) in one pass: the jet's fields are then arrays shaped like u, and
each entry equals the float call at its u bit for bit.  The arithmetic is
the same expressions in the same order; +, -, *, / and sqrt run in numpy,
which rounds them as Python does, while sin, cos, sinh, cosh, exp, ln and
the power x^c run through libm entry by entry (``geometry.libm`` and
``geometry.power``).  Each domain check (sqrt and ln of a non-positive
value, abs at zero, division by zero, a zero or non-positive base of a
power, libm's overflow and a product that underflows to a zero divisor) is
one comparison that raises at a float.  At a column it is a per-entry mask,
and ``eval_jet`` takes the union of the masks: it raises by making the
float call at the first offending u, or, inside
``geometry.collect_faults()``, records the union as one mask and returns
the jet, whose failed entries hold unspecified values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from .geometry import collect_faults, divisor, fail_at, libm, power, raise_at

FUNCTIONS = frozenset({"sqrt", "sin", "cos", "sinh", "cosh", "exp", "ln", "abs"})
BUILTIN_CONSTS: Mapping[str, float] = {"pi": math.pi}


class Jet2(NamedTuple):
    """Second-order jet of a scalar function of one variable.

    ``val`` is the value, ``d1`` the first and ``d2`` the second
    derivative with respect to u.  Arithmetic follows the Leibniz/chain
    rules truncated at second order, which is exactly the depth the
    curvature formulas consume (r, r', r'' and f, f', f'').  At a column
    of u the fields are arrays (see the module docstring).
    """

    val: float
    d1: float = 0.0
    d2: float = 0.0

    # tuple defines + and * as concatenation/repetition; override with algebra
    def __add__(self, other):  # type: ignore[override]
        o = _as_jet(other)
        return Jet2(self.val + o.val, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other)
        return Jet2(self.val - o.val, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        return _as_jet(other).__sub__(self)

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __mul__(self, other):  # type: ignore[override]
        o = _as_jet(other)
        return Jet2(
            self.val * o.val,
            self.d1 * o.val + self.val * o.d1,
            self.d2 * o.val + 2.0 * self.d1 * o.d1 + self.val * o.d2,
        )

    __rmul__ = __mul__  # type: ignore[assignment]

    def __truediv__(self, other):
        return self * _as_jet(other).reciprocal()

    def __rtruediv__(self, other):
        return _as_jet(other) * self.reciprocal()

    def reciprocal(self) -> "Jet2":
        zero = self.val == 0.0
        if zero is not False:
            raise_at(zero, ZeroDivisionError, "jet division by zero")
        inv = 1.0 / self.val
        d1 = -self.d1 * inv * inv
        d2 = (2.0 * self.d1 * self.d1 * inv - self.d2) * inv * inv
        return Jet2(inv, d1, d2)

    def pow_const(self, c: float) -> "Jet2":
        """x^c for constant exponent c (integer c admits x <= 0)."""
        x, d1, d2 = self
        if c == 0.0:
            return Jet2(1.0)
        if c == 1.0:
            return self
        ci = round(c)
        if abs(c - ci) < 1e-12:
            c = float(ci)
            zero = x == 0.0 if c < 2.0 else False
            if zero is not False:
                raise_at(zero, ZeroDivisionError, "zero base with exponent below 2")
        else:
            bad = x <= 0.0
            if bad is not False:
                raise_at(bad, ValueError, "non-integer power of a non-positive base")
                # only a column inside collect_faults gets here: its failed
                # entries take a base whose power is real
                x = np.where(bad, math.nan, x)
        p2 = power(x, c - 2.0)
        p1 = p2 * x
        return Jet2(p1 * x, c * p1 * d1, c * ((c - 1.0) * p2 * d1 * d1 + p1 * d2))


def _as_jet(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(float(x))


def variable(u: float) -> Jet2:
    """The identity jet at u (seed for forward propagation)."""
    return Jet2(u, 1.0, 0.0)


def _chain(x: Jet2, g: float, gp: float, gpp: float) -> Jet2:
    return Jet2(g, gp * x.d1, gp * x.d2 + gpp * x.d1 * x.d1)


def jsqrt(x: Jet2) -> Jet2:
    bad = x.val <= 0.0
    if bad is not False:
        raise_at(bad, ValueError, "sqrt of a non-positive value")
    s = libm(x.val).sqrt(x.val)
    return _chain(x, s, 0.5 / s, -0.25 / divisor(s * x.val))


def jsin(x: Jet2) -> Jet2:
    m = libm(x.val)
    s, c = m.sin(x.val), m.cos(x.val)
    return _chain(x, s, c, -s)


def jcos(x: Jet2) -> Jet2:
    m = libm(x.val)
    s, c = m.sin(x.val), m.cos(x.val)
    return _chain(x, c, -s, -c)


def jsinh(x: Jet2) -> Jet2:
    m = libm(x.val)
    s, c = m.sinh(x.val), m.cosh(x.val)
    return _chain(x, s, c, s)


def jcosh(x: Jet2) -> Jet2:
    m = libm(x.val)
    s, c = m.sinh(x.val), m.cosh(x.val)
    return _chain(x, c, s, c)


def jexp(x: Jet2) -> Jet2:
    e = libm(x.val).exp(x.val)
    return _chain(x, e, e, e)


def jln(x: Jet2) -> Jet2:
    bad = x.val <= 0.0
    if bad is not False:
        raise_at(bad, ValueError, "ln of a non-positive value")
    inv = 1.0 / x.val
    return _chain(x, libm(x.val).log(x.val), inv, -inv * inv)


def jabs(x: Jet2) -> Jet2:
    # Defined away from zero only; the kink has no jet.
    zero = x.val == 0.0
    if zero is not False:
        raise_at(zero, ValueError, "abs is not differentiable at zero")
    s = (x.val > 0.0) * 2.0 - 1.0  # the sign, +1.0 or -1.0
    return Jet2(s * x.val, s * x.d1, s * x.d2)


_JET_FUNCS = {
    "sqrt": jsqrt, "sin": jsin, "cos": jcos, "sinh": jsinh,
    "cosh": jcosh, "exp": jexp, "ln": jln, "abs": jabs,
}


# --- abstract syntax ---------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The free variable u."""


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Func]


def contains_var(expr: Expr) -> bool:
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Neg):
        return contains_var(expr.arg)
    if isinstance(expr, BinOp):
        return contains_var(expr.left) or contains_var(expr.right)
    if isinstance(expr, Func):
        return contains_var(expr.arg)
    return False


# --- parsing -----------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "num", "ident", "op", "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "op" and m.group("op") == "**":
            raise ExprSyntaxError("'**' is not in the grammar, use '^'", m.start("op"))
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], constants: frozenset[str]):
        self.tokens = tokens
        self.i = 0
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            exponent = self.parse_exponent()
            if contains_var(exponent):
                raise ExprSyntaxError("exponent must not depend on u", caret.pos)
            node = BinOp("^", node, exponent)
        return node

    def parse_exponent(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.parse_exponent())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "u":
                return Var()
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Func(tok.text, arg)
            if tok.text in self.constants or tok.text in BUILTIN_CONSTS:
                return Const(tok.text)
            raise UnknownIdentifierError(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}" if tok.text
                              else "unexpected end of input", tok.pos)


def parse(text: str, constants: "Iterable[str] | str" = ()) -> Expr:
    """Parse an expression string into an AST.

    ``constants`` names the identifiers (besides the builtin ``pi``) that
    may appear as named constants; anything else raises
    UnknownIdentifierError.  Syntax errors carry the byte offset.
    """
    names = frozenset([constants] if isinstance(constants, str) else constants)
    parser = _Parser(_tokenize(text), names)
    node = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {end.text!r}", end.pos)
    return node


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_text(expr: Expr) -> str:
    """Canonical printed form; re-parsing it yields an identical tree."""
    return _print(expr, 0)


def _print(expr: Expr, parent_level: int) -> str:
    if isinstance(expr, Num):
        s = repr(expr.value)
        return s if expr.value >= 0 else f"({s})"
    if isinstance(expr, Var):
        return "u"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Func):
        return f"{expr.name}({_print(expr.arg, 0)})"
    if isinstance(expr, Neg):
        inner_txt = f"-{_print(expr.arg, 3)}"
        return inner_txt if parent_level <= 3 else f"({inner_txt})"
    level = _PRECEDENCE[expr.op]
    if expr.op == "^":
        # Both operands sit at atom level; the exponent also admits a
        # leading minus chain (grammar: exponent = "-" exponent | atom).
        left = _print(expr.left, 5)
        right = expr.right
        minus = ""
        while isinstance(right, Neg):
            minus += "-"
            right = right.arg
        txt = f"{left}^{minus}{_print(right, 5)}"
    else:
        # Left child may repeat the level (left associativity); the right
        # child must bind strictly tighter.
        left = _print(expr.left, level)
        right_txt = _print(expr.right, level + 1)
        txt = f"{left}{expr.op}{right_txt}"
    return txt if level >= parent_level else f"({txt})"


# --- evaluation --------------------------------------------------------------

def eval_jet(expr: Expr, u: float, consts: Mapping[str, float] | None = None) -> Jet2:
    """Evaluate ``expr`` at ``u`` to a second-order jet.

    The jet is exact to machine precision (no differencing).  Domain
    violations (sqrt/ln of non-positive arguments, division by zero,
    abs at zero, bad powers, overflow) raise EvalDomainError carrying ``u``.
    At an ndarray of u the jet's fields are arrays shaped like u, and a
    violation raises the float call's error at the first offending u, or is
    recorded as one mask inside ``geometry.collect_faults()``.
    """
    if isinstance(u, np.ndarray):
        return _eval_column(expr, u, consts or {})
    try:
        return _eval(expr, variable(u), consts or {})
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalDomainError(str(exc), u) from exc


def _eval_column(expr: Expr, u: np.ndarray, consts: Mapping[str, float]) -> Jet2:
    """eval_jet at a column: every check records its mask, and where any
    fails, the float call at the first failing u raises its error."""
    with np.errstate(all="ignore"), collect_faults() as faults:
        try:
            jet = _eval(expr, variable(u), consts)
        except (ValueError, ZeroDivisionError, OverflowError):
            # a subexpression free of u failed, so every entry fails here
            jet = Jet2(math.nan, math.nan, math.nan)
            faults.append(np.ones(u.shape, dtype=bool))
    if faults:
        fail_at(reduce(np.logical_or, faults), partial(eval_jet, expr, consts=consts), u)
    return Jet2(*(f if isinstance(f, np.ndarray) else np.full(u.shape, f) for f in jet))


def _eval(expr: Expr, uj: Jet2, consts: Mapping[str, float]) -> Jet2:
    if isinstance(expr, Num):
        return Jet2(expr.value)
    if isinstance(expr, Var):
        return uj
    if isinstance(expr, Const):
        if expr.name in consts:
            return Jet2(float(consts[expr.name]))
        if expr.name in BUILTIN_CONSTS:
            return Jet2(BUILTIN_CONSTS[expr.name])
        raise UnknownIdentifierError(expr.name)
    if isinstance(expr, Neg):
        return -_eval(expr.arg, uj, consts)
    if isinstance(expr, Func):
        return _JET_FUNCS[expr.name](_eval(expr.arg, uj, consts))
    left = _eval(expr.left, uj, consts)
    if expr.op == "^":
        return left.pow_const(_eval(expr.right, uj, consts).val)
    right = _eval(expr.right, uj, consts)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    return left / right


@dataclass(frozen=True)
class ProfileFunction:
    """A parsed profile u -> r(u) (or f(u)) with its working interval."""

    expr: Expr
    domain: tuple[float, float]
    consts: Mapping[str, float] | None = None

    @classmethod
    def from_text(cls, text: str, domain: tuple[float, float],
                  consts: Mapping[str, float] | None = None) -> "ProfileFunction":
        """Parse and spot-check evaluability at 17 points of the interval."""
        expr = parse(text, tuple(consts) if consts else ())
        profile = cls(expr, domain, dict(consts) if consts else None)
        lo, hi = domain
        for k in range(17):
            t = lo + (hi - lo) * (k + 0.5) / 17
            profile.jet(t)  # raises EvalDomainError on failure
        return profile

    def jet(self, u: float) -> Jet2:
        """The jet at u, or at an ndarray of u a jet of arrays shaped like u
        whose entries equal the float calls bit for bit; a domain violation
        raises the float call's EvalDomainError at the first offending u, or
        is recorded as one mask inside ``geometry.collect_faults()`` (see
        ``eval_jet``)."""
        return eval_jet(self.expr, u, self.consts)

    def __call__(self, u: float) -> Jet2:
        return self.jet(u)
