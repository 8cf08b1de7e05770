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
the left, and exponents are restricted to constant subexpressions: the
parser counts the u atoms it reads, and an exponent that reads one is an
error at its caret.  Named constants are resolved at evaluation time so a
single parsed profile can serve parameter sweeps; ``pi`` is predefined.

Evaluation.  ``compile_jet`` turns a parsed expression, once, into a tree
of closures over the identity jet of u, and ``ProfileFunction`` keeps the
result.  Every number and constant becomes a constant jet, as does every
subexpression free of u that evaluates (``2*a``, the reciprocal of a
constant divisor), so jet arithmetic only ever combines two jets
(``Jet2``).  A constant subexpression that raises (``1/0``, ``ln(0)``) is
left to raise at each evaluation, so its error names the u of the call as
every domain error does.

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
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from .geometry import (_new, collect_faults, divisor, fail_at, libm, midpoints, power, raise_at,
                       where)

FUNCTIONS = frozenset({"sqrt", "sin", "cos", "sinh", "cosh", "exp", "ln", "abs"})
BUILTIN_CONSTS: Mapping[str, float] = {"pi": math.pi}


class Jet2(NamedTuple):
    """Second-order jet of a scalar function of one variable.

    ``val`` is the value, ``d1`` the first and ``d2`` the second
    derivative with respect to u.  Arithmetic follows the Leibniz/chain
    rules truncated at second order, which is exactly the depth the
    curvature formulas consume (r, r', r'' and f, f', f'').  At a column
    of u the fields are arrays (see the module docstring).

    +, -, * and / combine a jet with another jet only; a number enters as
    the constant jet ``Jet2(c)``.  A number on either side raises
    TypeError, an int included (``2 * jet`` is not tuple repetition).
    """

    val: float
    d1: float = 0.0
    d2: float = 0.0

    # tuple defines + and * as concatenation/repetition; override with algebra.
    # tuple.__new__ skips NamedTuple's Python-level __new__ on these hot paths
    # a number has no .val: the handler turns that into TypeError, and a
    # try block costs nothing until it raises
    def __add__(self, o):  # type: ignore[override]
        try:
            return _new(Jet2, (self.val + o.val, self.d1 + o.d1, self.d2 + o.d2))
        except AttributeError:
            raise _operand_error("+", self, o) from None

    def __sub__(self, o):
        try:
            return _new(Jet2, (self.val - o.val, self.d1 - o.d1, self.d2 - o.d2))
        except AttributeError:
            raise _operand_error("-", self, o) from None

    def __neg__(self):
        return _new(Jet2, (-self.val, -self.d1, -self.d2))

    def __mul__(self, o):  # type: ignore[override]
        try:
            return _new(Jet2, (self.val * o.val, self.d1 * o.val + self.val * o.d1,
                               self.d2 * o.val + 2.0 * self.d1 * o.d1 + self.val * o.d2))
        except AttributeError:
            raise _operand_error("*", self, o) from None

    def __rmul__(self, o):  # type: ignore[override]
        # it must raise: NotImplemented would let an int repeat the tuple
        raise _operand_error("*", o, self)

    def __truediv__(self, o):
        try:
            return self * o.reciprocal()
        except AttributeError:
            raise _operand_error("/", self, o) from None

    def reciprocal(self) -> "Jet2":
        raise_at(self.val == 0.0, ZeroDivisionError, "jet division by zero")
        inv = 1.0 / self.val
        return _new(Jet2, (inv, -self.d1 * inv * inv,
                           (2.0 * self.d1 * self.d1 * inv - self.d2) * inv * inv))

    def pow_const(self, c: float) -> "Jet2":
        """x^c for constant exponent c (integer c admits x <= 0)."""
        x, d1, d2 = self
        if c == 0.0:
            return _new(Jet2, (1.0, 0.0, 0.0))
        if c == 1.0:
            return self
        ci = round(c)
        if abs(c - ci) < 1e-12:
            c = float(ci)
            if c < 2.0:
                raise_at(x == 0.0, ZeroDivisionError, "zero base with exponent below 2")
        else:
            bad = x <= 0.0
            raise_at(bad, ValueError, "non-integer power of a non-positive base")
            # a failed entry gets past the check only on a column inside
            # collect_faults: it takes a base whose power is real
            x = where(bad, math.nan, x)
        p2 = power(x, c - 2.0)
        p1 = p2 * x
        return _new(Jet2, (p1 * x, c * p1 * d1, c * ((c - 1.0) * p2 * d1 * d1 + p1 * d2)))


def _operand_error(op: str, left, right) -> TypeError:
    """Python's own error for operands that ``op`` does not combine."""
    return TypeError(f"unsupported operand type(s) for {op}: "
                     f"'{type(left).__name__}' and '{type(right).__name__}'")


def variable(u: float) -> Jet2:
    """The identity jet at u (seed for forward propagation)."""
    return _new(Jet2, (u, 1.0, 0.0))


def _chain(x: Jet2, g: float, gp: float, gpp: float) -> Jet2:
    return _new(Jet2, (g, gp * x.d1, gp * x.d2 + gpp * x.d1 * x.d1))


def jsqrt(x: Jet2) -> Jet2:
    raise_at(x.val <= 0.0, ValueError, "sqrt of a non-positive value")
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
    raise_at(x.val <= 0.0, ValueError, "ln of a non-positive value")
    inv = 1.0 / x.val
    return _chain(x, libm(x.val).log(x.val), inv, -inv * inv)


def jabs(x: Jet2) -> Jet2:
    # Defined away from zero only; the kink has no jet.
    raise_at(x.val == 0.0, ValueError, "abs is not differentiable at zero")
    s = (x.val > 0.0) * 2.0 - 1.0  # the sign, +1.0 or -1.0
    return _new(Jet2, (s * x.val, s * x.d1, s * x.d2))


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
        self.u_read = 0  # the u atoms read so far: an exponent must add none

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the one-character operators ``ops``."""
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str) -> _Token:
        if not self.at(op):
            raise ExprSyntaxError(f"expected {op!r}", self.peek().pos)
        return self.next()

    def left_assoc(self, ops: str, operand) -> Expr:
        """operand { ops operand }, folded to the left."""
        node = operand()
        while self.at(ops):
            node = BinOp(self.next().text, node, operand())
        return node

    def parse_expr(self) -> Expr:
        return self.left_assoc("+-", self.parse_term)

    def parse_term(self) -> Expr:
        return self.left_assoc("*/", self.parse_unary)

    def parse_unary(self) -> Expr:
        if self.at("-"):
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while self.at("^"):
            caret, u_before = self.next(), self.u_read
            exponent = self.parse_exponent()
            if self.u_read != u_before:
                raise ExprSyntaxError("exponent must not depend on u", caret.pos)
            node = BinOp("^", node, exponent)
        return node

    def parse_exponent(self) -> Expr:
        if self.at("-"):
            self.next()
            return Neg(self.parse_exponent())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "u":
                self.u_read += 1
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
    """Evaluate ``expr`` at ``u`` to a second-order jet: ``compile_jet``,
    then one call.

    The jet is exact to machine precision (no differencing).  Domain
    violations (sqrt/ln of non-positive arguments, division by zero,
    abs at zero, bad powers, overflow) raise EvalDomainError carrying ``u``.
    At an ndarray of u the jet's fields are arrays shaped like u, and a
    violation raises the float call's error at the first offending u, or is
    recorded as one mask inside ``geometry.collect_faults()``.
    """
    return compile_jet(expr, consts)(u)


def compile_jet(expr: Expr, consts: Mapping[str, float] | None = None) -> Callable:
    """The function u -> jet of ``expr`` (see ``eval_jet``), built once.

    Named constants are looked up here; an unknown one raises
    UnknownIdentifierError when a jet is evaluated, not here."""
    tree = _compile(expr, consts or {})
    node = tree if callable(tree) else lambda uj: tree

    def jet(u):
        if isinstance(u, np.ndarray):
            return _eval_column(node, jet, u)
        try:
            return node(variable(u))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(str(exc), u) from exc

    return jet


def _eval_column(node: Callable, jet: Callable, u: np.ndarray) -> Jet2:
    """The compiled ``node`` at a column: every check records its mask, and
    where any fails, the float call ``jet`` at the first failing u raises
    its error."""
    with np.errstate(all="ignore"), collect_faults() as faults:
        try:
            value = node(variable(u))
        except (ValueError, ZeroDivisionError, OverflowError):
            # a subexpression free of u failed, so every entry fails here
            value = Jet2(math.nan, math.nan, math.nan)
            faults.append(np.ones(u.shape, dtype=bool))
    if faults:
        fail_at(reduce(np.logical_or, faults), jet, u)
    return Jet2(*(f if isinstance(f, np.ndarray) else np.full(u.shape, f) for f in value))


def _compile(expr: Expr, consts: Mapping[str, float]):
    """A constant jet where ``expr`` is free of u and evaluates, else the
    closure uj -> jet of ``expr`` at the identity jet uj.  Each closure
    evaluates its operands left to right, as the tree reads, so the first
    failing subexpression raises."""
    if isinstance(expr, Var):
        return lambda uj: uj
    if isinstance(expr, Num):
        return Jet2(expr.value)
    if isinstance(expr, Const):
        return _fold(_constant, expr.name, {**BUILTIN_CONSTS, **consts})
    if isinstance(expr, (Neg, Func)):
        op = _JET_FUNCS[expr.name] if isinstance(expr, Func) else Jet2.__neg__
        return _unary(op, _compile(expr.arg, consts))
    left, right = _compile(expr.left, consts), _compile(expr.right, consts)
    if expr.op == "/":  # as Jet2.__truediv__: times the reciprocal
        return _binary(Jet2.__mul__, left, _unary(Jet2.reciprocal, right))
    return _binary(_BINARY[expr.op], left, right)


def _constant(name: str, names: Mapping[str, float]) -> Jet2:
    if name not in names:
        raise UnknownIdentifierError(name)
    return Jet2(float(names[name]))


_BINARY = {"+": Jet2.__add__, "-": Jet2.__sub__, "*": Jet2.__mul__,
           "^": lambda x, e: x.pow_const(e.val)}


def _fold(op: Callable, *args):
    """The constant jet op(*args), or, where op raises, the closure that
    calls it and so raises at each evaluation."""
    try:
        return op(*args)
    except Exception:  # whatever it is, each evaluation raises it again
        return lambda uj: op(*args)


def _unary(op: Callable, arg):
    return _fold(op, arg) if isinstance(arg, Jet2) else lambda uj: op(arg(uj))


def _binary(op: Callable, left, right):
    if isinstance(left, Jet2):
        if isinstance(right, Jet2):
            return _fold(op, left, right)
        return lambda uj: op(left, right(uj))
    if isinstance(right, Jet2):
        return lambda uj: op(left(uj), right)
    return lambda uj: op(left(uj), right(uj))


@dataclass(frozen=True)
class ProfileFunction:
    """A parsed profile u -> r(u) (or f(u))."""

    expr: Expr
    # a dict: equality compares it, and the hash leaves it out
    consts: Mapping[str, float] | None = field(default=None, hash=False)
    _jet: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_jet", compile_jet(self.expr, self.consts))

    @classmethod
    def from_text(cls, text: str, domain: tuple[float, float],
                  consts: Mapping[str, float] | None = None) -> "ProfileFunction":
        """Parse and spot-check evaluability at the 17 ``midpoints`` of the
        interval ``domain``."""
        expr = parse(text, tuple(consts) if consts else ())
        profile = cls(expr, dict(consts) if consts else None)
        for t in midpoints(*domain, 17):
            profile.jet(t)  # raises EvalDomainError on failure
        return profile

    def jet(self, u: float) -> Jet2:
        """The jet at u, or at an ndarray of u a jet of arrays shaped like u
        whose entries equal the float calls bit for bit; a domain violation
        raises the float call's EvalDomainError at the first offending u, or
        is recorded as one mask inside ``geometry.collect_faults()`` (see
        ``eval_jet``).  It calls the function ``compile_jet`` built when the
        profile was made."""
        return self._jet(u)

    def __call__(self, u: float) -> Jet2:
        return self.jet(u)
