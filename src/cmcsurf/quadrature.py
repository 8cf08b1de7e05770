"""Piecewise-Legendre evaluation and adaptive cumulative quadrature.

The curve generator integrates the phi-equation, and then both coordinate
integrands at once, over one interval but needs the antiderivatives at
arbitrary interior points (grid samples, finite-difference stencils).  One
rule places the panels: a panel's 15 Gauss-Legendre samples fix the
Legendre coefficients of its degree-14 interpolant, and it is accepted
once their tail has decayed, or else bisected (Chebfun's chopping, applied
to fixed-size panels).  Panel boundaries carry the Gauss-Legendre prefix
sums and each panel keeps the antiderivative of its interpolant
(Greengard's spectral integration, as in Chebfun's piecewise ``cumsum``),
so a query is one Clenshaw sum, never calls the integrand, and nearby
values agree to machine precision rather than to the global tolerance.

A build samples its integrand as the package evaluates every other set of
points: one call per bisection level, on the ndarray of that level's
Gauss nodes, whose every entry equals the float call at its node bit for
bit (as Chebfun samples a function on a whole grid at once).  Only where a
node records a fault or a value that is not finite does it call the
integrand at floats, to find the error a node-by-node evaluation would
raise.

``PiecewiseLegendre`` is that per-panel form (de Boor's pp-form in a
Legendre basis), or k such forms stacked on one set of panels;
``CumulativeIntegral`` builds one from an integrand, or k stacked ones from
an integrand that returns a tuple of k values (the generator's two
coordinates), and ``PiecewiseLegendre.hermite`` stacks the quintic Hermite
interpolants of sampled functions with their first two derivatives (a
reloaded curve CSV: 3 components times value, d1 and d2).  A
``PiecewiseLegendre`` answers a float u with one panel search and one
Clenshaw sum per form on Python floats (a float, or a list of k), or a
whole ndarray of u with one Clenshaw sweep over numpy arrays for all its
forms that repeats the float sum's operations entry by entry, so both give
the same value bit for bit.  ``CumulativeIntegral`` memoizes nothing; both
kinds of query give exactly 0 at ``a`` and the total at ``b``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .geometry import collect_faults, raise_at

_legendre = np.polynomial.legendre
_GL_X, _GL_W = _legendre.leggauss(15)
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
    over every sample taken so far; the integrands of a stacked build must
    each pass, against their own max|f|.  Values below ``REL_TOL_FLOOR``
    act as the floor.  The default sits at roundoff: a looser one lets the
    panel holding a jump pass before ``MAX_DEPTH``.
    """

    rel_tol: float = 1e-15

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


def gauss15(samples, half: float) -> list[float]:
    """The 15-point Gauss-Legendre sums of one panel of half-width ``half``:
    for each row of ``samples`` (a form's 15 values at the panel's nodes, as
    Python floats), sum w_k y_k in node order, times half.  A list of floats,
    one per row."""
    sums = []
    for ys in samples:
        total = 0.0
        for w, y in zip(_GL_WEIGHTS, ys):
            total += w * y
        sums.append(total * half)
    return sums


def _legval(x, c, steps):
    """sum_j c[j] P_j(x) by Clenshaw's recurrence (the steps of numpy's
    legval), for ``steps`` the last len(c) - 2 entries of ``_CLENSHAW``.
    ``x`` and the entries of ``c`` are floats, or arrays that broadcast: the
    same operations in the same order give each entry the float's value.
    Trailing zero coefficients add steps that change the running sums only
    in the sign of an exact zero, so adding a +0.0 offset, as every form
    does, makes the zero-padded sum equal the unpadded one bit for bit."""
    c0, c1 = c[-2], c[-1]
    for k, a, b in steps:
        c0, c1 = c[k] - c1 * a, c0 + c1 * x * b
    return c0 + c1 * x


class PiecewiseLegendre:
    """offsets[i] + sum_j coefs[i][j] P_j(x) on panel i between ``nodes``,
    with x in [-1, 1] the local coordinate of u, for coefficients up to
    degree 15; or k such forms stacked on one set of panels, with
    coefficients of shape (panels, k, degree + 1) and offsets of shape
    (panels, k).  A float query returns a float for one form and a list of
    k floats for k stacked ones: one panel search for all k.  An ndarray
    query returns an array of u's shape, or of shape (k, *u.shape) for k
    stacked forms, whose every entry is the float query's value at it, bit
    for bit: one domain check, one panel search, one gather and one
    Clenshaw sweep for all k forms.  A float query runs on Python floats
    (the coefficient rows become lists at the first one); an array query
    gathers each u's panel from ndarrays.  Both run the same Clenshaw
    steps, from the panels' own degree.  A u outside [a, b] by more than
    1e-12 (1 + |a| + |b|) raises ValueError naming it (the first such u of
    an array); one within that pad is clamped."""

    def __init__(self, nodes, offsets, coefs):
        self._knots = np.asarray(nodes, dtype=float)
        self._shifts = np.asarray(offsets, dtype=float)
        self._coefs = np.asarray(coefs, dtype=float)
        self._nodes = self._knots.tolist()
        self._panels = len(self._nodes) - 1
        self.a, self.b = self._nodes[0], self._nodes[-1]
        pad = 1e-12 * (1.0 + abs(self.a) + abs(self.b))
        self._lo, self._hi = self.a - pad, self.b + pad  # the clamped range
        self._steps = _CLENSHAW[16 - self._coefs.shape[-1]:]
        # _coefs and _shifts as lists, made by the first float query
        self._rows = self._offsets = None

    @staticmethod
    def hermite(us, jets) -> PiecewiseLegendre:
        """Quintic Hermite interpolants of k functions and their first two
        derivatives, as 3k stacked forms: ``jets[n, c]`` is (value, d1, d2)
        of function c at the increasing ``us[n]``, each panel matches both
        end jets, and form 3c + m is the m-th derivative of function c's
        interpolant.  The derivative forms are zero-padded to degree 5, which
        moves no value (see ``_legval``); a derivative coefficient past the
        float range is inf."""
        us = np.asarray(us, dtype=float)
        jets = np.asarray(jets, dtype=float)
        panels, k = len(us) - 1, jets.shape[1]
        halves = 0.5 * np.diff(us)[:, None, None]
        scale = halves ** np.arange(3)  # d/dx = h d/du
        ends = np.concatenate([jets[:-1] * scale, jets[1:] * scale], axis=2)
        forms = np.zeros((panels, k, 3, 6))
        # one (panels, 6) product per function, the shape of its own fit: a
        # stacked (panels, k, 6) product does not round as those do
        for c in range(k):
            forms[:, c, 0] = ends[:, c] @ _FROM_END_JETS.T
        with np.errstate(over="ignore"):
            for m in (1, 2):
                forms[:, :, m, :6 - m] = _legendre.legder(forms[:, :, m - 1, :7 - m],
                                                          axis=2) / halves
        return PiecewiseLegendre(us, np.zeros((panels, 3 * k)),
                                 forms.reshape(panels, 3 * k, 6))

    def _locate(self, u: float) -> tuple[int, float]:
        """The panel of a float u and u's local coordinate in it."""
        if u < self._lo or u > self._hi:
            raise ValueError(f"u={u!r} outside the domain [{self.a!r}, {self.b!r}]")
        if self._rows is None:
            self._rows, self._offsets = self._coefs.tolist(), self._shifts.tolist()
        u = self.a if u < self.a else self.b if u > self.b else u  # a NaN stays NaN
        # searching nodes[1:-1] keeps i a panel index at b and for a NaN u
        i = bisect_right(self._nodes, u, 1, self._panels) - 1
        lo, hi = self._nodes[i], self._nodes[i + 1]
        # from lo, not from the rounded midpoint: its error times f would be
        # an offset of about ulp(u) * |f| in the value
        return i, (u - lo) / (0.5 * (hi - lo)) - 1.0

    def __call__(self, u):
        if isinstance(u, np.ndarray):
            return self._column(u)
        i, x = self._locate(u)
        if self._coefs.ndim == 3:  # one panel search, then one Clenshaw sum per form
            return [offset + _legval(x, row, self._steps)
                    for offset, row in zip(self._offsets[i], self._rows[i])]
        return self._offsets[i] + _legval(x, self._rows[i], self._steps)

    def _column(self, u: np.ndarray) -> np.ndarray:
        """The float query's operations on every entry of u at once; like
        Python's float arithmetic, an infinite coefficient gives inf or NaN
        entries without a warning."""
        raise_at((u < self._lo) | (u > self._hi), ValueError,
                 "u={!r} outside the domain [{!r}, {!r}]", u, self.a, self.b)
        uu = np.minimum(np.maximum(u.ravel(), self.a), self.b)
        i = np.searchsorted(self._knots, uu, side="right") - 1
        i = np.minimum(np.maximum(i, 0), self._panels - 1)
        lo, hi = self._knots[i], self._knots[i + 1]
        x = (uu - lo) / (0.5 * (hi - lo)) - 1.0
        # .T puts u last: for k stacked forms, (k, len) offsets and
        # (degree + 1, k, len) coefficients, so one sweep runs all k
        with np.errstate(all="ignore"):
            value = self._shifts[i].T + _legval(x, self._coefs[i].T, self._steps)
        return value.reshape(value.shape[:-1] + u.shape)


class CumulativeIntegral(PiecewiseLegendre):
    """Antiderivative F(u) = integral of f from ``a`` to u, for u in [a, b];
    for an f that returns a tuple of k values, the k antiderivatives of its
    entries, stacked on one set of panels.

    f takes a float or an ndarray of u, as the package's jets do: at an
    ndarray it returns an array of that shape (or a tuple of k such
    arrays), each entry equal to the float call at its u, and a check that
    fails there records its mask inside ``geometry.collect_faults()``.

    Panels come from one breadth-first bisection of [a, b]: each level calls
    f once, on the (pending panels, 15) ndarray of their Gauss nodes, and
    ``gauss15`` sums each panel's samples.  A panel is accepted when the
    Legendre tail of each integrand's degree-14 interpolant has decayed
    (``QuadratureConfig``), else split in two.  Each integrand's
    Gauss-Legendre sums over the accepted panels, added in order, give its
    F at the panel boundaries (the offsets), and each panel keeps the
    antiderivative of its interpolant, vanishing at its left end.  A query
    is a ``PiecewiseLegendre`` query and calls f zero times, so differences
    of F at nearby points (finite-difference stencils) are accurate far
    beyond the global tolerance.  Either kind of query returns exactly 0.0
    at ``a`` and ``total`` at ``b`` (per form), where the sum would be off
    by roundoff; ``total`` is a float, or a list of k.

    Raises QuadratureError when a panel at MAX_DEPTH still fails, or when a
    level would sample more than MAX_PANELS panels.  Where a node of a
    level records a fault or a value that is not finite, f is called at
    each such node as a float, in node order (panel by panel, each from
    left to right), and the first call that raises decides, as a
    node-by-node sampling of the whole level would: an ArithmeticError
    (OverflowError, ZeroDivisionError) becomes a QuadratureError, and any
    other error propagates.  If none raises, f is not finite there, a
    QuadratureError.
    """

    def __init__(self, f: Callable, a: float, b: float, config: QuadratureConfig | None = None):
        if not b > a:
            raise ValueError("need b > a")
        tol = max((config or QuadratureConfig()).rel_tol, REL_TOL_FLOOR) * (b - a)
        accepted = []  # (lo, hi, Gauss-Legendre sums, Legendre coefficients per form)
        pending, scale, depth = [(a, b)], 0.0, 0
        while pending:
            lo, hi = np.array(pending).T
            half = 0.5 * (hi - lo)
            # each node rounds as the float mid + half * x does
            nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
            with np.errstate(all="ignore"), collect_faults() as faults:
                ys = f(nodes)
            stacked = isinstance(ys, tuple)
            # one row of 15 samples per panel and form, so a single form runs
            # (panels, 15) products: a batched (panels, 1, 15) product rounds
            # differently
            values = np.stack(ys if stacked else (ys,), axis=1)
            bad = reduce(np.logical_or, faults, ~np.isfinite(values).all(axis=1))
            if bad.any():  # the float call at each such node, in node order
                for u in nodes[bad].tolist():
                    try:
                        f(u)
                    except ArithmeticError as exc:  # math.sinh and x / 0.0 raise
                        raise QuadratureError(
                            f"integrand overflows or divides by zero on [{a!r}, {b!r}] "
                            f"({type(exc).__name__}: {exc})") from exc
                raise QuadratureError(f"integrand not finite on [{a!r}, {b!r}]")
            sums = [gauss15(rows, h) for rows, h in zip(values.tolist(), half.tolist())]
            scale = np.maximum(scale, np.abs(values).max(axis=(0, 2)))  # per form
            rows = values.reshape(-1, 15)
            mean = rows @ _TO_LEGENDRE[:, 0]
            # with rounded nodes, sum_k w_k P_j(x_k) is ~1e-16 rather than 0 for
            # j > 0; taking c_j from the deviations keeps that defect, times the
            # mean, out of the coefficients (it doubled the error of phi) and
            # out of the tail (it split a constant integrand into 8 panels)
            coefs = (rows - mean[:, None]) @ _TO_LEGENDRE
            coefs[:, 0] = mean
            coefs = coefs.reshape(values.shape)
            # every form's tail against its own max|f|
            ok = ((hi - lo)[:, None] * np.abs(coefs[:, :, 13:]).sum(2) <= tol * scale).all(1)
            accepted += [(*p, q, c) for p, q, c, k in zip(pending, sums, coefs, ok) if k]
            failed = [p for p, k in zip(pending, ok) if not k]
            if failed and (depth == MAX_DEPTH or 2 * len(failed) > MAX_PANELS):
                raise QuadratureError(f"Legendre tail did not decay on {failed[0]!r} "
                                      f"({len(failed)} panels at depth {depth})")
            pending = [piece for lo, hi in failed
                       for piece in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
            depth += 1
        accepted.sort(key=lambda panel: panel[0])
        _, his, sums, coefs = zip(*accepted)
        nodes = (a, *his)
        # F at the nodes: each form's prefix sums, added in order (cumsum does
        # not pair them up as np.sum does)
        offsets = np.cumsum([[0.0] * len(sums[0]), *sums], axis=0)
        halves = 0.5 * np.diff(nodes)[:, None, None]
        coefs = _legendre.legint(np.array(coefs), lbnd=-1, axis=2) * halves
        if not stacked:
            offsets, coefs = offsets[:, 0], coefs[:, 0]
        super().__init__(nodes, offsets[:-1], coefs)
        # the exact ends, per form: a sum there is off by roundoff
        self._cache = {a: offsets[0].tolist(), b: offsets[-1].tolist()}
        self.total = self._cache[b]

    def __call__(self, u):
        if not isinstance(u, np.ndarray):
            end = self._cache.get(u)
            return PiecewiseLegendre.__call__(self, u) if end is None else end
        value = PiecewiseLegendre.__call__(self, u)
        for end, exact in self._cache.items():  # each form's value, at every such u
            value[..., u == end] = np.reshape(exact, (-1, 1))
        return value
