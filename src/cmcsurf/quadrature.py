"""Piecewise-Legendre evaluation and adaptive cumulative quadrature.

The curve generator integrates the phi-equation and the coordinate
integrands over one interval but needs the antiderivative at arbitrary
interior points (grid samples, finite-difference stencils).  The engine
keeps the adaptive panel decomposition: each final panel is integrated
with a fixed 15-point Gauss-Legendre rule, panel boundaries carry the
prefix sums, and the 15 samples of each panel also fix the degree-14
Legendre interpolant of the integrand there.  Its antiderivative
(Greengard's spectral integration, as in Chebfun's piecewise ``cumsum``)
is stored per panel, so a query inside a panel is one Clenshaw sum and
never calls the integrand.  Values at nearby points are therefore
consistent to machine precision rather than to the global tolerance.

``PiecewiseLegendre`` is that per-panel form (de Boor's pp-form in a
Legendre basis); ``CumulativeIntegral`` builds it from an integrand, and
``PiecewiseLegendre.hermite`` from the sampled jets of a curve CSV.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

_legendre = np.polynomial.legendre
_GL_X, _GL_W = _legendre.leggauss(15)
_GL_NODES = tuple(float(x) for x in _GL_X)
_GL_WEIGHTS = tuple(float(w) for w in _GL_W)
#: Samples at the 15 Gauss nodes times this matrix give the Legendre
#: coefficients of their degree-14 interpolant: c_j = (2j+1)/2 sum_k w_k
#: P_j(x_k) f_k, exact because the rule integrates P_j P_i (degree <= 28).
_TO_LEGENDRE = _legendre.legvander(_GL_X, 14) * _GL_W[:, None] * (np.arange(15) + 0.5)
#: (index, (n-1)/n, (2n-1)/n) of each Clenshaw step over 16 coefficients.
_CLENSHAW = tuple((-i, (n - 1) / n, (2 * n - 1) / n)
                  for i, n in zip(range(3, 17), range(15, 1, -1)))
#: Inverse of (P_j, P_j', P_j'') at x = -1, then +1 (j <= 5): maps a panel's end
#: jets in the local coordinate to the coefficients of its quintic Hermite form.
_FROM_END_JETS = np.linalg.inv(np.vstack([
    _legendre.legvander(np.array([x]), 5 - k) @ _legendre.legder(np.eye(6), k)
    for x in (-1.0, 1.0) for k in range(3)]))

#: Absolute tolerance floor and depth limit of the adaptive refinement.
ABS_TOL = 1e-12
MAX_DEPTH = 48


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the adaptive refinement."""

    rel_tol: float = 1e-10

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


def _legval(x: float, c: list[float]) -> float:
    """sum_j c[j] P_j(x) for 16 coefficients, by Clenshaw's recurrence
    (the steps of numpy's legval); the leading zeros that pad each
    ``PiecewiseLegendre`` panel to 16 leave the sum bit-equal."""
    c0, c1 = c[-2], c[-1]
    for k, a, b in _CLENSHAW:
        c0, c1 = c[k] - c1 * a, c0 + c1 * x * b
    return c0 + c1 * x


def _refine(f, a, fa, b, fb, fm, s_whole, tol, depth, leaves):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    s_left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    s_right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(s_left + s_right - s_whole) <= 15.0 * tol:
        leaves.append((a, m))
        leaves.append((m, b))
        return
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a!r}, {b!r}]")
    _refine(f, a, fa, m, fm, flm, s_left, 0.5 * tol, depth - 1, leaves)
    _refine(f, m, fm, b, fb, frm, s_right, 0.5 * tol, depth - 1, leaves)


def _leaves(f, a, b, config: QuadratureConfig) -> list[tuple[float, float]]:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    s0 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(ABS_TOL, config.rel_tol * abs(s0))
    leaves: list[tuple[float, float]] = []
    _refine(f, a, fa, b, fb, fm, s0, tol, MAX_DEPTH, leaves)
    return leaves


class PiecewiseLegendre:
    """offsets[i] + sum_j coefs[i][j] P_j(x) on panel i between ``nodes``,
    with x in [-1, 1] the local coordinate of u.  Everything is kept as
    Python floats (a query at a float returns a float), coefficients
    zero-padded to 16.  A u outside [a, b] by more than 1e-12 (1 + |a| +
    |b|) raises ValueError; one within that pad is clamped."""

    def __init__(self, nodes, offsets, coefs):
        self._nodes = [float(u) for u in nodes]
        self.a, self.b = self._nodes[0], self._nodes[-1]
        self._offsets = [float(c) for c in offsets]
        self._coefs = np.pad(coefs, ((0, 0), (0, 16 - np.shape(coefs)[1]))).tolist()

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
        halves = 0.5 * np.diff(self._nodes)[:, None]
        return PiecewiseLegendre(self._nodes, [0.0] * len(self._offsets),
                                 _legendre.legder(self._coefs, axis=1) / halves)

    def __call__(self, u: float) -> float:
        pad = 1e-12 * (1.0 + abs(self.a) + abs(self.b))
        if u < self.a - pad or u > self.b + pad:
            raise ValueError(f"u={u!r} outside the domain [{self.a!r}, {self.b!r}]")
        uu = min(max(u, self.a), self.b)
        i = bisect.bisect_right(self._nodes, uu) - 1
        i = min(max(i, 0), len(self._offsets) - 1)
        lo, hi = self._nodes[i], self._nodes[i + 1]
        # from lo, not from the rounded midpoint: its error times f would be
        # an offset of about ulp(u) * |f| in the value
        x = (uu - lo) / (0.5 * (hi - lo)) - 1.0
        return self._offsets[i] + _legval(x, self._coefs[i])


class CumulativeIntegral(PiecewiseLegendre):
    """Antiderivative F(u) = integral of f from ``a`` to u, for u in [a, b].

    Panel boundaries come from one adaptive Simpson refinement.  Each final
    panel is sampled once, through ``gauss15``: the Gauss-Legendre sums
    give F at the panel boundaries (the panel offsets), and the same 15
    samples give the Legendre coefficients of the panel's degree-14
    interpolant, whose antiderivative (vanishing at the panel's left end)
    is kept.  A query is a ``PiecewiseLegendre`` query and calls f zero
    times, so differences of F at nearby points (finite-difference
    stencils) are accurate far beyond the global tolerance.  Queries are
    memoized per instance.  Raises QuadratureError when the subdivision
    hits MAX_DEPTH before the Simpson error estimate meets the tolerance.
    """

    def __init__(self, f: Callable[[float], float], a: float, b: float,
                 config: QuadratureConfig | None = None):
        if not b > a:
            raise ValueError("need b > a")
        config = config or QuadratureConfig()
        leaves = _leaves(f, a, b, config)
        nodes = [a] + [hi for _, hi in leaves]
        samples: list[float] = []

        def sampled(u: float) -> float:  # gauss15 visits the nodes in order
            y = f(u)
            samples.append(y)
            return y

        offsets = []
        running = 0.0
        for lo, hi in leaves:
            offsets.append(running)
            running += gauss15(sampled, lo, hi)
        # all panels at once: numpy per panel costs more than the sampling
        halves = 0.5 * np.diff(nodes)[:, None]
        values = np.reshape(samples, (len(leaves), 15))
        mean = values @ _TO_LEGENDRE[:, 0]
        # with rounded nodes, sum_k w_k P_j(x_k) is ~1e-16 rather than 0 for
        # j > 0; taking c_j from the deviations keeps that defect, times the
        # mean, out of the coefficients (it doubled the error of phi)
        coefs = (values - mean[:, None]) @ _TO_LEGENDRE
        coefs[:, 0] = mean
        super().__init__(nodes, offsets, _legendre.legint(coefs, lbnd=-1, axis=1) * halves)
        self.total = running
        # keep endpoints exact
        self._cache: dict[float, float] = {a: 0.0, b: running}

    def __call__(self, u: float) -> float:
        value = self._cache.get(u)
        if value is None:
            value = self._cache[u] = super().__call__(u)
        return value
