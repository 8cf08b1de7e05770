"""Piecewise-Legendre evaluation and adaptive cumulative quadrature.

The curve generator integrates the phi-equation and the coordinate
integrands over one interval but needs the antiderivative at arbitrary
interior points (grid samples, finite-difference stencils).  One rule
places the panels: a panel's 15 Gauss-Legendre samples fix the Legendre
coefficients of its degree-14 interpolant, and it is accepted once their
tail has decayed, or else bisected (Chebfun's chopping, applied to
fixed-size panels).  Panel boundaries carry the Gauss-Legendre prefix sums
and each panel keeps the antiderivative of its interpolant (Greengard's
spectral integration, as in Chebfun's piecewise ``cumsum``), so a query is
one Clenshaw sum, never calls the integrand, and nearby values agree to
machine precision rather than to the global tolerance.

``PiecewiseLegendre`` is that per-panel form (de Boor's pp-form in a
Legendre basis); ``CumulativeIntegral`` builds it from an integrand, and
``PiecewiseLegendre.hermite`` from the sampled jets of a curve CSV.  A
``PiecewiseLegendre`` answers a float u with one Clenshaw sum on Python
floats, or a whole ndarray of u with one Clenshaw sweep over numpy arrays
that repeats the float sum's operations entry by entry, so both give the
same value bit for bit.  ``CumulativeIntegral`` memoizes its queries per
float u and takes floats only.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .geometry import raise_at

_legendre = np.polynomial.legendre
_GL_X, _GL_W = _legendre.leggauss(15)
_GL_NODES = tuple(float(x) for x in _GL_X)
_GL_WEIGHTS = tuple(float(w) for w in _GL_W)
#: Samples at the 15 Gauss nodes times this matrix give the Legendre
#: coefficients of their degree-14 interpolant: c_j = (2j+1)/2 sum_k w_k
#: P_j(x_k) f_k, exact because the rule integrates P_j P_i (degree <= 28).
_TO_LEGENDRE = _legendre.legvander(_GL_X, 14) * _GL_W[:, None] * (np.arange(15) + 0.5)
#: (j, (n-1)/n, (2n-1)/n) with n = j + 2 of each Clenshaw step, from j = 13
#: down to 0; a sum over L coefficients runs the last L - 2 of them.
_CLENSHAW = tuple((j, (j + 1) / (j + 2), (2 * j + 3) / (j + 2)) for j in range(13, -1, -1))
#: Inverse of (P_j, P_j', P_j'') at x = -1, then +1 (j <= 5): maps a panel's end
#: jets in the local coordinate to the coefficients of its quintic Hermite form.
_FROM_END_JETS = np.linalg.inv(np.vstack([
    _legendre.legvander(np.array([x]), 5 - k) @ _legendre.legder(np.eye(6), k)
    for x in (-1.0, 1.0) for k in range(3)]))

#: Floor of the relative tolerance, bisection depth limit, and the most
#: panels one bisection level may sample (an integrand that is rough
#: everywhere doubles them per level).
REL_TOL_FLOOR = 1e-16
MAX_DEPTH = 48
MAX_PANELS = 1 << 16


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the panel refinement.

    A panel of width w is accepted when w (|c13| + |c14|) <= rel_tol (b - a)
    max|f|, with c13, c14 its two highest Legendre coefficients and max|f|
    over every sample taken so far; values below ``REL_TOL_FLOOR`` act as
    the floor.  The default sits at roundoff: a looser one lets the panel
    holding a jump pass before ``MAX_DEPTH``.
    """

    rel_tol: float = 1e-15

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


def gauss15(f: Callable[[float], float], a: float, b: float) -> float:
    """Fixed 15-point Gauss-Legendre integral of f over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        total += w * f(mid + half * x)
    return total * half


def _legval(x, c, steps):
    """sum_j c[j] P_j(x) by Clenshaw's recurrence (the steps of numpy's
    legval), for ``steps`` the last len(c) - 2 entries of ``_CLENSHAW``.
    ``x`` and the entries of ``c`` are floats, or arrays of one shape: the
    same operations in the same order give each entry the float's value."""
    c0, c1 = c[-2], c[-1]
    for k, a, b in steps:
        c0, c1 = c[k] - c1 * a, c0 + c1 * x * b
    return c0 + c1 * x


class PiecewiseLegendre:
    """offsets[i] + sum_j coefs[i][j] P_j(x) on panel i between ``nodes``,
    with x in [-1, 1] the local coordinate of u, for coefficients up to
    degree 15.  A query takes a float u and returns a float, or takes an
    ndarray of u and returns an array of that shape whose every entry is
    the float query's value at it, bit for bit.  A float query runs on
    Python floats (the coefficient rows become lists at the first one); an
    array query gathers each u's panel from ndarrays.  Both run the same
    Clenshaw steps, from the panels' own degree.  A u outside [a, b] by
    more than 1e-12 (1 + |a| + |b|) raises ValueError naming it (the first
    such u of an array); one within that pad is clamped."""

    def __init__(self, nodes, offsets, coefs):
        self._knots = np.asarray(nodes, dtype=float)
        self._shifts = np.asarray(offsets, dtype=float)
        self._coefs = np.asarray(coefs, dtype=float)
        self._nodes, self._offsets = self._knots.tolist(), self._shifts.tolist()
        self.a, self.b = self._nodes[0], self._nodes[-1]
        self._pad = 1e-12 * (1.0 + abs(self.a) + abs(self.b))
        self._steps = _CLENSHAW[16 - self._coefs.shape[1]:]
        self._rows = None  # _coefs as lists, made by the first float query

    @staticmethod
    def hermite(us, jets) -> PiecewiseLegendre:
        """Quintic Hermite interpolant of the (value, d1, d2) rows ``jets``
        at the increasing ``us``: each panel matches both end jets."""
        us = np.asarray(us, dtype=float)
        jets = np.asarray(jets, dtype=float)
        scale = (0.5 * np.diff(us)[:, None]) ** np.arange(3)  # d/dx = h d/du
        ends = np.hstack([jets[:-1] * scale, jets[1:] * scale])
        return PiecewiseLegendre(us, np.zeros(len(us) - 1), ends @ _FROM_END_JETS.T)

    def derivative(self) -> PiecewiseLegendre:
        halves = 0.5 * np.diff(self._knots)[:, None]
        return PiecewiseLegendre(self._knots, np.zeros(len(self._offsets)),
                                 _legendre.legder(self._coefs, axis=1) / halves)

    def __call__(self, u):
        if isinstance(u, np.ndarray):
            return self._column(u)
        if u < self.a - self._pad or u > self.b + self._pad:
            raise ValueError(f"u={u!r} outside the domain [{self.a!r}, {self.b!r}]")
        rows = self._rows
        if rows is None:
            rows = self._rows = self._coefs.tolist()
        uu = min(max(u, self.a), self.b)
        i = bisect.bisect_right(self._nodes, uu) - 1
        i = min(max(i, 0), len(self._offsets) - 1)
        lo, hi = self._nodes[i], self._nodes[i + 1]
        # from lo, not from the rounded midpoint: its error times f would be
        # an offset of about ulp(u) * |f| in the value
        x = (uu - lo) / (0.5 * (hi - lo)) - 1.0
        return self._offsets[i] + _legval(x, rows[i], self._steps)

    def _column(self, u: np.ndarray) -> np.ndarray:
        """The float query's operations on every entry of u at once."""
        raise_at((u < self.a - self._pad) | (u > self.b + self._pad), ValueError,
                 "u={!r} outside the domain [{!r}, {!r}]", u, self.a, self.b)
        uu = np.minimum(np.maximum(u.ravel(), self.a), self.b)
        i = np.searchsorted(self._knots, uu, side="right") - 1
        i = np.minimum(np.maximum(i, 0), len(self._offsets) - 1)
        lo, hi = self._knots[i], self._knots[i + 1]
        x = (uu - lo) / (0.5 * (hi - lo)) - 1.0
        value = self._shifts[i] + _legval(x, self._coefs[i].T, self._steps)
        return value.reshape(u.shape)


class CumulativeIntegral(PiecewiseLegendre):
    """Antiderivative F(u) = integral of f from ``a`` to u, for u in [a, b].

    Panels come from one breadth-first bisection of [a, b]: each pending
    panel is sampled once, through ``gauss15``, and is accepted when the
    Legendre tail of its degree-14 interpolant has decayed
    (``QuadratureConfig``), else split in two.  The Gauss-Legendre sums of
    the accepted panels give F at the panel boundaries (the offsets), and
    each panel keeps the antiderivative of its interpolant, vanishing at
    its left end.  A query is a ``PiecewiseLegendre`` query and calls f
    zero times, so differences of F at nearby points (finite-difference
    stencils) are accurate far beyond the global tolerance.  Queries are
    memoized per instance and take floats only.  Raises QuadratureError
    when a panel at MAX_DEPTH still fails, when a level would sample more
    than MAX_PANELS panels, or when f is not finite at a node or raises
    OverflowError there.
    """

    def __init__(self, f: Callable[[float], float], a: float, b: float,
                 config: QuadratureConfig | None = None):
        if not b > a:
            raise ValueError("need b > a")
        tol = max((config or QuadratureConfig()).rel_tol, REL_TOL_FLOOR) * (b - a)
        samples: list[float] = []

        def sampled(u: float) -> float:  # gauss15 visits the nodes in order
            y = f(u)
            samples.append(y)
            return y

        accepted = []  # (lo, hi, Gauss-Legendre sum, Legendre coefficients)
        pending, scale, depth = [(a, b)], 0.0, 0
        while pending:
            samples.clear()
            try:
                sums = [gauss15(sampled, lo, hi) for lo, hi in pending]
            except OverflowError as exc:  # math.sinh and friends raise, not return inf
                raise QuadratureError(f"integrand overflows on [{a!r}, {b!r}]") from exc
            # a whole level at once: numpy per panel costs more than the sampling
            values = np.reshape(samples, (len(pending), 15))
            if not np.isfinite(values).all():
                raise QuadratureError(f"integrand not finite on [{a!r}, {b!r}]")
            scale = max(scale, float(np.abs(values).max()))
            mean = values @ _TO_LEGENDRE[:, 0]
            # with rounded nodes, sum_k w_k P_j(x_k) is ~1e-16 rather than 0 for
            # j > 0; taking c_j from the deviations keeps that defect, times the
            # mean, out of the coefficients (it doubled the error of phi) and
            # out of the tail (it split a constant integrand into 8 panels)
            coefs = (values - mean[:, None]) @ _TO_LEGENDRE
            coefs[:, 0] = mean
            ok = np.diff(pending).ravel() * np.abs(coefs[:, 13:]).sum(axis=1) <= tol * scale
            accepted += [(*p, q, c) for p, q, c, k in zip(pending, sums, coefs, ok) if k]
            failed = [p for p, k in zip(pending, ok) if not k]
            if failed and (depth == MAX_DEPTH or 2 * len(failed) > MAX_PANELS):
                raise QuadratureError(f"Legendre tail did not decay on {failed[0]!r} "
                                      f"({len(failed)} panels at depth {depth})")
            pending = [half for lo, hi in failed
                       for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
            depth += 1
        accepted.sort(key=lambda panel: panel[0])
        _, his, sums, coefs = zip(*accepted)
        nodes = (a, *his)
        offsets = list(accumulate(sums, initial=0.0))  # F at the nodes
        halves = 0.5 * np.diff(nodes)[:, None]
        super().__init__(nodes, offsets[:-1],
                         _legendre.legint(np.array(coefs), lbnd=-1, axis=1) * halves)
        self.total = offsets[-1]
        # keep endpoints exact
        self._cache: dict[float, float] = {a: 0.0, b: self.total}

    def __call__(self, u: float) -> float:
        value = self._cache.get(u)
        if value is None:
            value = self._cache[u] = super().__call__(u)
        return value
