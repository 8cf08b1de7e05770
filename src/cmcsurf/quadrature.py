"""Adaptive Simpson quadrature with cumulative (antiderivative) evaluation.

The curve generator integrates the phi-equation and the coordinate
integrands over one interval but needs the antiderivative at arbitrary
interior points (grid samples, finite-difference stencils).  The engine
therefore keeps the adaptive panel decomposition: panel boundaries carry
prefix sums, and evaluation inside a panel finishes with a fixed 15-point
Gauss-Legendre rule, so values at nearby points are consistent to machine
precision rather than to the global tolerance.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_NODES = tuple(float(x) for x in _GL_NODES)
_GL_WEIGHTS = tuple(float(w) for w in _GL_WEIGHTS)

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


class CumulativeIntegral:
    """Antiderivative F(u) = integral of f from ``a`` to u, for u in [a, b].

    Panel boundaries come from one adaptive Simpson refinement; each final
    panel is re-integrated with Gauss-Legendre so that differences of F at
    nearby points (finite-difference stencils) are accurate far beyond the
    global tolerance.  Evaluations are memoized per instance.  Raises
    QuadratureError when the subdivision hits MAX_DEPTH before the Simpson
    error estimate meets the tolerance.
    """

    def __init__(self, f: Callable[[float], float], a: float, b: float,
                 config: QuadratureConfig | None = None):
        if not b > a:
            raise ValueError("need b > a")
        self.f = f
        self.a = a
        self.b = b
        config = config or QuadratureConfig()
        leaves = _leaves(f, a, b, config)
        self._nodes = [a] + [hi for _, hi in leaves]
        cums = [0.0]
        running = 0.0
        for lo, hi in leaves:
            running += gauss15(f, lo, hi)
            cums.append(running)
        self._cums = cums
        self._cache: dict[float, float] = {}
        # keep endpoints exact
        self._cache[a] = 0.0
        self._cache[b] = running

    @property
    def total(self) -> float:
        return self._cums[-1]

    def __call__(self, u: float) -> float:
        cached = self._cache.get(u)
        if cached is not None:
            return cached
        pad = 1e-12 * (1.0 + abs(self.a) + abs(self.b))
        if u < self.a - pad or u > self.b + pad:
            raise ValueError(
                f"u={u!r} outside the integration interval [{self.a!r}, {self.b!r}]")
        uu = min(max(u, self.a), self.b)
        i = bisect.bisect_right(self._nodes, uu) - 1
        i = min(max(i, 0), len(self._cums) - 2)
        value = self._cums[i] + gauss15(self.f, self._nodes[i], uu)
        self._cache[u] = value
        return value
