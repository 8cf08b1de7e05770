"""Indefinite linear algebra of the neutral pseudo-Euclidean 4-space.

The ambient space is R^4 with the scalar product

    <v, w> = v1*w1 + v2*w2 - v3*w3 - v4*w4,

i.e. signature (+, +, -, -).  Patches, frames and curvature rest on two
primitives defined here: the scalar product and Gram-Schmidt that tracks
norm signs, whose tolerance is the constant TAU_CAUSAL; ``causal_character``
classifies a vector by the same tolerance.  ``uniform`` is the one rule for
evenly spaced samples.

The components of a Vec4 are floats at one point or, on a grid, ndarrays
that broadcast against each other (a column over u, a row over v, or the
full (nu, nv) grid).  The arithmetic is the same expressions in the same
order either way, so a grid entry equals the float computed at its point
bit for bit; the helpers below (libm, power, negate, where, raise_at,
fail_at, divisor) are the few places where floats and grids need different
calls: a caller states a check as one ``raise_at`` and a per-point choice as
one ``where``, whether it runs on a float or a grid.
Transcendental functions of grid values go through libm's own functions
entry by entry (``libm(x).cosh(x)``), never through numpy's ufuncs, whose
results differ from libm's in the last bit for some arguments (cosh and
sinh among them).

A check that would raise at a float raises on a grid for the first
offending point, with the error the float call raises there, unless it
runs inside ``collect_faults()``: there a fault is only its mask, the grid
of points where the check fails, and the computation goes on, so one grid
pass yields the mask of every point where the float call raises.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from functools import reduce
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateFrameError

#: Tolerance for deciding whether <v,v> counts as zero; a constant, not a
#: parameter, of the causal classification, normalization and Gram-Schmidt.
TAU_CAUSAL = 1e-10
#: Largest |<u_i,u_j> - s_i*delta_ij| accepted in an orthonormal frame.
TAU_ORTHO = 1e-12

_new = tuple.__new__


class Vec4(NamedTuple):
    """Point or vector of the neutral 4-space, components in the e-basis."""

    x1: float
    x2: float
    x3: float
    x4: float

    # tuple.__new__ skips NamedTuple's Python-level __new__ on these hot paths
    def __add__(self, other: "Vec4") -> "Vec4":  # type: ignore[override]
        return _new(Vec4, (self.x1 + other.x1, self.x2 + other.x2,
                           self.x3 + other.x3, self.x4 + other.x4))

    def __sub__(self, other: "Vec4") -> "Vec4":
        return _new(Vec4, (self.x1 - other.x1, self.x2 - other.x2,
                           self.x3 - other.x3, self.x4 - other.x4))

    def __neg__(self) -> "Vec4":
        return _new(Vec4, (-self.x1, -self.x2, -self.x3, -self.x4))

    def __mul__(self, s: float) -> "Vec4":  # type: ignore[override]
        return _new(Vec4, (self.x1 * s, self.x2 * s, self.x3 * s, self.x4 * s))

    __rmul__ = __mul__  # type: ignore[assignment]

    def is_finite(self):
        """Whether every component is finite: a bool, or a grid of them."""
        if np.ndarray in map(type, self):
            return (np.isfinite(self.x1) & np.isfinite(self.x2)
                    & np.isfinite(self.x3) & np.isfinite(self.x4))
        return (math.isfinite(self.x1) and math.isfinite(self.x2)
                and math.isfinite(self.x3) and math.isfinite(self.x4))


# --- floats and grids ----------------------------------------------------------

def uniform(lo: float, hi: float, n: int) -> list[float]:
    """The n >= 2 evenly spaced samples lo + (hi - lo) k / (n - 1), k = 0..n-1,
    of [lo, hi]: the one sample rule of grids, scans, checks and exports."""
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def midpoints(lo: float, hi: float, n: int) -> list[float]:
    """The midpoints lo + (hi - lo) (k + 1/2) / n, k = 0..n-1, of the n equal
    cells of [lo, hi]: the sample rule of spot checks that stay off the ends."""
    return [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]


def _entrywise(fn):
    """fn at every entry of a grid.  Where fn raises (libm's range and
    domain errors), the entry is NaN and the check fails there: outside
    ``collect_faults`` fn at the first failing entry raises its own error,
    as a loop over the entries would."""
    def call(x):
        flat = x.ravel().tolist()
        try:
            values = [fn(t) for t in flat]
        except (ValueError, ArithmeticError):
            values, failed = [], np.zeros(len(flat), dtype=bool)
            for i, t in enumerate(flat):
                try:
                    values.append(fn(t))
                except (ValueError, ArithmeticError):
                    values.append(math.nan)
                    failed[i] = True
            fail_at(failed.reshape(x.shape), fn, x)
        return np.array(values).reshape(x.shape)
    return call


#: What the surface and profile formulas take from ``math``, for grid
#: arguments: the transcendental functions entry by entry through libm
#: itself (numpy's cosh and sinh differ from libm's in the last bit for
#: some arguments), sqrt through numpy (correctly rounded, as libm's is).
GRID_MATH = SimpleNamespace(cos=_entrywise(math.cos), sin=_entrywise(math.sin),
                            cosh=_entrywise(math.cosh), sinh=_entrywise(math.sinh),
                            exp=_entrywise(math.exp), log=_entrywise(math.log),
                            sqrt=np.sqrt)


def power(x, e: float):
    """x ** e as Python computes it at a float, through libm's pow, with its
    errors (OverflowError past the float range); on a grid, entry by entry."""
    if isinstance(x, np.ndarray):
        return _entrywise(lambda t: t ** e)(x)
    return x ** e


def square(x):
    """x**2 as Python computes it at a float, where it calls libm's pow:
    that misses the correctly rounded x*x, which numpy's x**2 gives, in the
    last bit for about one argument in 1000.  On a grid, entry by entry."""
    return power(x, 2)


def libm(x):
    """``math`` for a float x, GRID_MATH for a grid x: ``libm(v).cos(v)``
    gives the same value at every grid entry as ``math.cos`` at its point."""
    return GRID_MATH if isinstance(x, np.ndarray) else math


def negate(cond):
    """``not cond`` at a point, the elementwise not on a grid."""
    return ~cond if isinstance(cond, np.ndarray) else not cond


def where(cond, a, b):
    """``a if cond else b`` at a point (a numpy bool scalar included),
    ``np.where(cond, a, b)`` on a grid: the one per-point choice."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


#: The fault list of the innermost ``collect_faults`` block, if any.
_FAULTS: ContextVar[list | None] = ContextVar("cmcsurf_faults", default=None)


@contextmanager
def collect_faults():
    """Inside the block, a check that fails on a grid appends its boolean
    mask, the grid of points where it fails, to the yielded list instead of
    raising, and the computation goes on with unspecified values at those
    points; a check on a float still raises.  Like ``np.errstate``, the
    setting belongs to the current context and ends with the block."""
    faults: list = []
    token = _FAULTS.set(faults)
    try:
        yield faults
    finally:
        _FAULTS.reset(token)


def fail_at(bad, make_error, *values) -> None:
    """Raise ``make_error(*values)`` if ``bad`` holds.

    On a grid the error is the float call's at the first offending point in
    u-major order (row-major over (u, v)), the order of a loop over u and
    then v: every value is taken at that point as a Python scalar, and
    ``make_error`` builds the error from them, or is the float computation
    itself and raises it.  Inside ``collect_faults()`` a grid ``bad`` is
    only recorded, as its mask.
    """
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        faults = _FAULTS.get()
        if faults is not None:
            faults.append(bad)
            return
    elif not bad:
        return
    shape = np.broadcast_shapes(np.shape(bad), *map(np.shape, values))
    if shape:
        at = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
        values = tuple(np.broadcast_to(x, shape).item(at) for x in values)
    raise make_error(*values)


def raise_at(bad, error, message: str, *values) -> None:
    """Raise ``error(message.format(*values))`` if ``bad`` holds: ``fail_at``
    for an error made from one message."""
    if bad is not False:
        fail_at(bad, lambda *at: error(message.format(*at)), *values)


def divisor(den):
    """``den``, checked as Python's division checks a divisor: it raises
    ZeroDivisionError at 0, which a product of nonzero factors reaches by
    underflow (numpy's division returns inf instead)."""
    raise_at(den == 0.0, ZeroDivisionError, "float division by zero")
    return den


E1 = Vec4(1.0, 0.0, 0.0, 0.0)
E2 = Vec4(0.0, 1.0, 0.0, 0.0)
E3 = Vec4(0.0, 0.0, 1.0, 0.0)
E4 = Vec4(0.0, 0.0, 0.0, 1.0)
BASIS = (E1, E2, E3, E4)

_SQRT2 = math.sqrt(2.0)
#: Lightlike pair spanning the degenerate rotation axis: xi1 = (e2+e3)/sqrt2,
#: xi2 = (-e2+e3)/sqrt2, with <xi1,xi1> = <xi2,xi2> = 0 and <xi1,xi2> = -1.
XI1 = Vec4(0.0, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0)
XI2 = Vec4(0.0, -1.0 / _SQRT2, 1.0 / _SQRT2, 0.0)


class CausalClass(Enum):
    """Causal character of a vector with respect to the neutral metric."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def inner(v: Vec4, w: Vec4) -> float:
    """Scalar product of signature (+,+,-,-); symmetric and bilinear."""
    return v.x1 * w.x1 + v.x2 * w.x2 - v.x3 * w.x3 - v.x4 * w.x4


def inf_norm(v: Vec4) -> float:
    return max(abs(v.x1), abs(v.x2), abs(v.x3), abs(v.x4))


def require_finite(v: Vec4, context: str = "vector") -> Vec4:
    """Boundary check: reject NaN/inf components before they propagate; on
    a grid the error names the vector at the first offending point."""
    raise_at(negate(v.is_finite()), ValueError,
             "non-finite {}: Vec4(x1={!r}, x2={!r}, x3={!r}, x4={!r})", context, *v)
    return v


def causal_character(v: Vec4) -> CausalClass:
    """Classify ``v`` as spacelike/timelike/lightlike/zero.

    A vector counts as lightlike when |<v,v>| <= TAU_CAUSAL while the
    vector itself is not negligibly small.
    """
    q = inner(v, v)
    if q > TAU_CAUSAL:
        return CausalClass.SPACELIKE
    if q < -TAU_CAUSAL:
        return CausalClass.TIMELIKE
    if inf_norm(v) > TAU_CAUSAL:
        return CausalClass.LIGHTLIKE
    return CausalClass.ZERO


def normalize_with_sign(v: Vec4) -> tuple[Vec4, int]:
    """Scale ``v`` to |<v,v>| = 1 and return (unit, sign of <v,v>).

    Raises DegenerateFrameError when ``v`` is lightlike or zero within
    TAU_CAUSAL: such vectors admit no unit representative.  On a grid
    nothing is raised: such points get sign 0, and their unit is
    meaningless (finite, so later arithmetic raises no warnings).
    """
    q = inner(v, v)
    degenerate = abs(q) <= TAU_CAUSAL
    if isinstance(degenerate, np.ndarray):
        sign = np.where(degenerate, 0, np.where(q > 0.0, 1, -1))
        q = np.where(degenerate, 1.0, q)
    elif degenerate:
        raise DegenerateFrameError(
            f"cannot normalize near-lightlike vector (<v,v>={q!r})")
    else:
        sign = 1 if q > 0.0 else -1
    return v * (1.0 / libm(q).sqrt(abs(q))), sign


def orthonormalize_indefinite(basis: Iterable[Vec4]) -> list[tuple[Vec4, int]]:
    """Gram-Schmidt with the indefinite scalar product.

    Returns one (unit vector, sign) pair per input, where sign = <u,u> in
    {+1,-1}; the span of each prefix is preserved.  Raises
    DegenerateFrameError as soon as a partial residual becomes lightlike
    (or the inputs are dependent), which signals callers such as the
    numeric normal frame to retry with different seed vectors.  It is also
    raised when the finished frame misses orthonormality by more than
    TAU_ORTHO: nearly null or strongly boosted inputs give unit vectors of
    large Euclidean norm, whose scalar products carry roundoff beyond it.

    On a grid nothing is raised: every sign is 0 at the points where the
    scalar call would raise.
    """
    units: list[tuple[Vec4, int]] = []
    for v in basis:
        w = v
        # Two subtraction passes: the second removes the roundoff-level
        # contamination left by the first when inputs differ widely in scale.
        for _ in range(2):
            for u, s in units:
                # <u,u> = s, so the projection coefficient is s*<w,u>.
                w = w - u * (s * inner(w, u))
        units.append(normalize_with_sign(w))
    missed = gram_residual([u for u, _ in units], [s for _, s in units]) > TAU_ORTHO
    if isinstance(missed, np.ndarray):
        failed = reduce(np.logical_or, [s == 0 for _, s in units], missed)
        return [(u, np.where(failed, 0, s)) for u, s in units]
    if missed:
        raise DegenerateFrameError(
            f"frame misses orthonormality by more than {TAU_ORTHO!r}")
    return units


def gram_residual(vectors: Sequence[Vec4], signs: Sequence[int]) -> float:
    """Max |<v_i, v_j> - s_i*delta_ij| over all pairs i <= j: how far the
    vectors are from an orthonormal frame with norm signs ``signs``; on a
    grid, the grid of these maxima."""
    terms = [abs(inner(vi, vj) - (signs[i] if i == j else 0.0))
             for i, vi in enumerate(vectors) for j, vj in enumerate(vectors[i:], i)]
    return (reduce(np.maximum, terms)
            if any(isinstance(t, np.ndarray) for t in terms) else max(terms))
