"""Rotational surfaces in the neutral 4-space and their closed forms.

Three rotation types act on an arc-length generating curve:

* elliptic   -- rotation about the Euclidean plane Oe1e2:
                z(u,v) = (x1, x2, r cos v, r sin v), r > 0;
* hyperbolic -- boost about the Lorentz plane Oe2e4:
                z(u,v) = (r cosh v, x2, r sinh v, x4), r > 0, (r')^2 != 1;
* parabolic  -- screw rotation about the degenerate plane span{e1, xi1}:
                z(u,v) = x1 e1 + f xi1 + (-v^2 f + g) xi2 + sqrt2 v f e4,
                with f f' != 0.

Every per-type fact lives in one RotationSpec per RotationType, held in
the table SPECS at the end of this module: component order, the sign s of
k = (r')^2 + s in the phi-equation, the turning equation (phi' for
elliptic and hyperbolic profiles, psi' with phi = f' psi for parabolic
ones, see phi_integrand and psi_integrand_parabolic), the two slopes of
the non-profile components it fixes and their derivatives, the patch
formula, the arc-length and twist expressions, the default v window and
the special profile with its closed-form phi.  The entry points
build_surface and h2_closed, the generator, validation, I/O and the CLI
read the table instead of branching on the type.

Besides the patch constructor this module carries the closed-form
adapted frames, the one closed form of <H, H> and the closed-form H
vectors of the elliptic and hyperbolic types, the Weingarten derivative
table of the elliptic frame, and the hyperplane degeneracy detector.
Parabolic patches are stored in the standard e-basis; the lightlike pair
xi1, xi2 appears only during assembly.

The patch formulas, the position formulas, the closed-form frames,
h2_closed, the arc-length and twist expressions and the profile checks
accept a broadcast grid (u a column, v a row; see ``surfaces``) as well as
a float (u, v), and a grid entry equals the float call at its point bit
for bit.  ``GeneratingCurve.jets`` answers a u column with one call per
component when the curve's components take columns (reloaded curves), and
otherwise with one Python-float lookup per u; the trigonometric functions
of v and the squares of the spec expressions are libm's, one call per grid
value.  build_surface, h2_closed and hyperplane_degeneracy check a curve on
one u column each, and raise for the first offending u of the check that
fails first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import (
    CaseMismatchError,
    EvalDomainError,
    InvariantViolationError,
    NearNullSlopeError,
    NegativeRadicandError,
    NonpositiveProfileError,
    ZeroDerivativeProfileError,
)
from .geometry import Vec4, libm, negate, raise_at, square
from .profiles import Jet2
from .surfaces import Frame, MeanCurvature, PatchJets, SurfacePatch

if TYPE_CHECKING:
    from .generator import CmcParams

#: Exclusion band around (r')^2 = 1 for hyperbolic surfaces.
TAU_SLOPE = 1e-6

#: Arc-length residual admitted for generating curves.
ARC_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)

#: tuple.__new__ skips NamedTuple's Python-level __new__ in the position
#: formulas, which the finite-difference stencil calls nine times a point
_new = tuple.__new__

JetFn = Callable[[float], Jet2]
CurveJets = Callable[[float], tuple[Jet2, Jet2, Jet2]]


class RotationType(Enum):
    """Which plane the rotation fixes, and for hyperbolic surfaces the
    sign eps of (r')^2 - 1 (A: eps=+1, B: eps=-1)."""

    ELLIPTIC = "elliptic"
    HYPERBOLIC_A = "hyperbolicA"
    HYPERBOLIC_B = "hyperbolicB"
    PARABOLIC = "parabolic"


def slope_sign(m: float, u: float) -> int:
    """Sign of m = (r')^2 - 1 at u: the hyperbolic case, A (+1) or B (-1).

    Raises NearNullSlopeError inside the exclusion band |m| < TAU_SLOPE.
    """
    near = abs(m) < TAU_SLOPE
    if near is not False:
        raise_at(near, NearNullSlopeError,
                 "(r')^2 - 1 = {!r} inside the exclusion band at u={!r}", m, u)
    if isinstance(m, np.ndarray):
        return np.where(m > 0.0, 1, -1)
    return 1 if m > 0.0 else -1


@dataclass(frozen=True)
class GeneratingCurve:
    """Arc-length generating curve: three jet-valued component functions.

    Component order follows the rotation type: elliptic (x1, x2, r),
    hyperbolic (r, x2, x4), parabolic (x1, f, g).

    ``columns`` says whether every component also takes an ndarray of u
    and returns a Jet2 of arrays of its shape, each entry equal to the
    float call's (the splines of a reloaded curve, see
    ``io.curve_from_samples``).  Generated and analytic curves take floats
    only: their jets, and the quadratures and profile memo behind them,
    are memoized per float u.  Generated curves switch to columns once
    their quadratures take arrays too (ROADMAP item 1).
    """

    rotation: RotationType
    components: tuple[JetFn, JetFn, JetFn]
    domain: tuple[float, float]
    columns: bool = False
    _memo: dict[float, tuple[Jet2, Jet2, Jet2]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def component_names(self) -> tuple[str, str, str]:
        return SPECS[self.rotation].names

    def jets(self, u: float) -> tuple[Jet2, Jet2, Jet2]:
        """The three component jets at u, evaluated once per distinct u; a
        miss reads ``components`` afresh, so swapped-in components see it.

        At an ndarray of u values every Jet2 field comes back as an array
        shaped like u: from one call per component when the curve takes
        ``columns``, unmemoized, and else from a Python-float lookup per u.
        """
        try:
            hit = self._memo.get(u)
        except TypeError:  # an ndarray is unhashable
            if self.columns:
                c1, c2, c3 = self.components
                return c1(u), c2(u), c3(u)
            rows = np.array([self.jets(t) for t in u.ravel().tolist()])
            return tuple(Jet2(*(rows[:, c, k].reshape(u.shape) for k in range(3)))
                         for c in range(3))
        if hit is None:
            c1, c2, c3 = self.components
            hit = self._memo[u] = (c1(u), c2(u), c3(u))
        return hit

    def arclength_residual(self, u: float) -> float:
        """|type-appropriate arc-length expression - 1| at u (at each u of
        a column)."""
        return abs(SPECS[self.rotation].arclength(*self.jets(u)) - 1.0)

    def twist(self, u: float) -> float:
        """The quantity whose vanishing makes the surface hyperplanar:
        x1'x2''-x1''x2' (elliptic), x2'x4''-x2''x4' (hyperbolic),
        x1''f'-x1'f'' (parabolic)."""
        return SPECS[self.rotation].twist(*self.jets(u))


def check_samples(domain: tuple[float, float]) -> np.ndarray:
    """The (201, 1) u column lo + (hi - lo) k / 200, k = 0..200, of the
    arc-length and degeneracy checks; build_surface checks its interior
    subset k = 3, 9, ..., 195."""
    lo, hi = domain
    return np.array([lo + (hi - lo) * k / 200 for k in range(201)])[:, None]


def _check_radius(r: Jet2, u: float) -> None:
    raise_at(negate(r.val > 0.0), InvariantViolationError,
             "r(u)={!r} <= 0 at u={!r}", r.val, u)


def _check_ff(f: Jet2, u: float) -> None:
    raise_at((f.val == 0.0) | (f.d1 == 0.0), InvariantViolationError,
             "f*f' vanishes at u={!r}", u)


# --- patch constructors ------------------------------------------------------

def build_surface(curve: GeneratingCurve,
                  v_window: tuple[float, float] | None = None,
                  check: bool = True) -> SurfacePatch:
    """Rotate the curve by the one-parameter group of its rotation type.

    With ``check``, the arc-length invariant and the profile conditions of
    the curve's spec (r > 0 or f f' != 0, and the hyperbolic case's sign of
    (r')^2 - 1) are validated at 33 of the ``check_samples``, one u column,
    before the spec's patch formula is assembled from the curve jets.  The
    conditions are checked in that order, each naming its first offending
    u.  ``v_window`` defaults to the spec's window: [0, 2 pi] elliptic,
    [-2, 2] otherwise.
    """
    spec = SPECS[curve.rotation]
    if check:
        us = check_samples(curve.domain)[3::6]
        jets = curve.jets(us)
        res = abs(spec.arclength(*jets) - 1.0)
        raise_at(negate(res <= ARC_TOL), InvariantViolationError,
                 f"arc-length residual {{!r}} at u={{!r}} exceeds {ARC_TOL}", res, us)
        p = jets[spec.profile_slot]
        spec.check_profile(p, us)
        if spec.case_sign:
            m = p.d1 * p.d1 - 1.0
            raise_at(slope_sign(m, us) != spec.case_sign, InvariantViolationError,
                     f"(r')^2 - 1 = {{!r}} contradicts {curve.rotation} at u={{!r}}", m, us)
    return SurfacePatch(spec.patch_jets(curve.jets), curve.domain,
                        v_window or spec.v_window, label=curve.rotation.value,
                        position=partial(_patch_position, spec.position, curve.jets))


def _patch_position(position, curve_jets: CurveJets, u: float, v: float) -> Vec4:
    """The spec's position formula at the curve values; no partials."""
    a, b, c = curve_jets(u)
    return position(a.val, b.val, c.val, v)


def _elliptic_position(x1: float, x2: float, r: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (x1, x2, r * m.cos(v), r * m.sin(v)))


def _elliptic_jets(curve_jets: CurveJets):
    def jets(u: float, v: float) -> PatchJets:
        x1, x2, r = curve_jets(u)
        m = libm(v)
        cv, sv = m.cos(v), m.sin(v)
        return PatchJets(
            position=_elliptic_position(x1.val, x2.val, r.val, v),
            z_u=Vec4(x1.d1, x2.d1, r.d1 * cv, r.d1 * sv),
            z_v=Vec4(0.0, 0.0, -r.val * sv, r.val * cv),
            z_uu=Vec4(x1.d2, x2.d2, r.d2 * cv, r.d2 * sv),
            z_uv=Vec4(0.0, 0.0, -r.d1 * sv, r.d1 * cv),
            z_vv=Vec4(0.0, 0.0, -r.val * cv, -r.val * sv),
        )

    return jets


def _hyperbolic_position(r: float, x2: float, x4: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (r * m.cosh(v), x2, r * m.sinh(v), x4))


def _hyperbolic_jets(curve_jets: CurveJets):
    def jets(u: float, v: float) -> PatchJets:
        r, x2, x4 = curve_jets(u)
        m = libm(v)
        ch, sh = m.cosh(v), m.sinh(v)
        return PatchJets(
            position=_hyperbolic_position(r.val, x2.val, x4.val, v),
            z_u=Vec4(r.d1 * ch, x2.d1, r.d1 * sh, x4.d1),
            z_v=Vec4(r.val * sh, 0.0, r.val * ch, 0.0),
            z_uu=Vec4(r.d2 * ch, x2.d2, r.d2 * sh, x4.d2),
            z_uv=Vec4(r.d1 * sh, 0.0, r.d1 * ch, 0.0),
            z_vv=Vec4(r.val * ch, 0.0, r.val * sh, 0.0),
        )

    return jets


def _from_null_basis(a: float, b: float, c: float, d: float) -> Vec4:
    """a*e1 + b*xi1 + c*xi2 + d*e4 expressed in the e-basis."""
    return _new(Vec4, (a, (b - c) / _SQRT2, (b + c) / _SQRT2, d))


def _parabolic_position(x1: float, f: float, g: float, v: float) -> Vec4:
    return _from_null_basis(x1, f, -v * v * f + g, _SQRT2 * v * f)


def _parabolic_jets(curve_jets: CurveJets):
    def jets(u: float, v: float) -> PatchJets:
        x1, f, g = curve_jets(u)
        v2 = v * v
        return PatchJets(
            position=_parabolic_position(x1.val, f.val, g.val, v),
            z_u=_from_null_basis(x1.d1, f.d1, -v2 * f.d1 + g.d1, _SQRT2 * v * f.d1),
            z_v=_from_null_basis(0.0, 0.0, -2.0 * v * f.val, _SQRT2 * f.val),
            z_uu=_from_null_basis(x1.d2, f.d2, -v2 * f.d2 + g.d2, _SQRT2 * v * f.d2),
            z_uv=_from_null_basis(0.0, 0.0, -2.0 * v * f.d1, _SQRT2 * f.d1),
            z_vv=_from_null_basis(0.0, 0.0, -2.0 * f.val, 0.0),
        )

    return jets


# --- closed-form frames ------------------------------------------------------

def elliptic_frame(curve: GeneratingCurve, u: float, v: float) -> Frame:
    """Closed-form adapted frame of the elliptic rotation.

    n1 = (-x2', x1', 0, 0)/w and n2 = (r'x1', r'x2', w^2 cos v,
    w^2 sin v)/w with w = sqrt(1+(r')^2); <n1,n1> = 1, <n2,n2> = -1.
    """
    x1, x2, r = curve.jets(u)
    w = libm(u).sqrt(1.0 + r.d1 * r.d1)
    m = libm(v)
    cv, sv = m.cos(v), m.sin(v)
    X = Vec4(x1.d1, x2.d1, r.d1 * cv, r.d1 * sv)
    Y = Vec4(0.0, 0.0, -sv, cv)
    n1 = Vec4(-x2.d1 / w, x1.d1 / w, 0.0, 0.0)
    n2 = Vec4(r.d1 * x1.d1 / w, r.d1 * x2.d1 / w, w * cv, w * sv)
    return Frame(X, Y, n1, n2, eps1=1, eps2=-1)


def hyperbolic_frame(curve: GeneratingCurve, u: float, v: float) -> Frame:
    """Closed-form adapted frame of the hyperbolic rotation.

    With eps = sign((r')^2 - 1) and rho = sqrt(eps((r')^2 - 1)):
    n1 = (0, x4', 0, x2')/rho, n2 = ((1-(r')^2) cosh v, -r'x2',
    (1-(r')^2) sinh v, -r'x4')/rho; <n1,n1> = eps, <n2,n2> = -eps.
    """
    r, x2, x4 = curve.jets(u)
    m = r.d1 * r.d1 - 1.0
    eps = slope_sign(m, u)
    rho = libm(u).sqrt(eps * m)
    ch, sh = libm(v).cosh(v), libm(v).sinh(v)
    X = Vec4(r.d1 * ch, x2.d1, r.d1 * sh, x4.d1)
    Y = Vec4(sh, 0.0, ch, 0.0)
    n1 = Vec4(0.0, x4.d1 / rho, 0.0, x2.d1 / rho)
    n2 = Vec4(-m * ch / rho, -r.d1 * x2.d1 / rho, -m * sh / rho, -r.d1 * x4.d1 / rho)
    return Frame(X, Y, n1, n2, eps1=eps, eps2=-eps)


# --- closed-form mean curvature ----------------------------------------------

def h2_closed(curve: GeneratingCurve, u: float) -> float:
    """Closed-form <H, H> of every rotation type:

    h2 = ( r^2 tau^2 - q^2 ) / (4 r^2 k),  k = (r')^2 + s,  q = r r'' + k,

    with the profile r (f for parabolic curves), the spec's sign s and the
    curve's twist tau (see GeneratingCurve.twist).  Raises
    InvariantViolationError where the profile condition fails (r <= 0, or
    f f' = 0) and NearNullSlopeError inside the hyperbolic slope band.  At
    a u column it returns the column of values, and an error names the
    first offending u.
    """
    spec = SPECS[curve.rotation]
    jets = curve.jets(u)
    r = jets[spec.profile_slot]
    spec.check_profile(r, u)
    k = r.d1 * r.d1 + spec.s
    if spec.case_sign:
        slope_sign(k, u)
    tau = spec.twist(*jets)
    q = r.val * r.d2 + k
    return (square(r.val) * square(tau) - q * q) / (4.0 * square(r.val) * k)


# --- turning equations and slopes ---------------------------------------------

def _radicand_guarded(q: float, extra: float, u: float) -> float:
    """q^2 + extra with a roundoff guard; negative values are infeasible."""
    rad = q * q + extra
    if rad < 0.0:
        if rad > -1e-12 * (q * q + abs(extra) + 1.0):
            return 0.0
        raise NegativeRadicandError(
            f"radicand {rad!r} negative (infeasible h_sign/C)", u)
    return rad


def phi_integrand(s: float, r: Jet2, params: CmcParams, u: float) -> float:
    """phi'(u) at the profile jet r, with k = (r')^2 + s and q = r r'' + k
    (as in h2_closed): s = +1 elliptic, s = -1 hyperbolic.

    Raises NonpositiveProfileError, NearNullSlopeError (|k| < TAU_SLOPE,
    which k >= 1 rules out for elliptic profiles) and NegativeRadicandError
    where the preconditions fail.
    """
    if not r.val > 0.0:
        raise NonpositiveProfileError(f"r(u)={r.val!r} <= 0 at u={u!r}")
    k = r.d1 * r.d1 + s
    slope_sign(k, u)
    q = r.val * r.d2 + k
    rad = _radicand_guarded(q, 4.0 * params.h_sign * (params.C * params.C)
                            * (r.val * r.val) * k, u)
    return params.eta * math.sqrt(rad) / (r.val * k)


def psi_integrand_parabolic(f: Jet2, params: CmcParams, u: float) -> float:
    """psi'(u) at the profile jet f of the parabolic type, where phi = f' psi."""
    if f.d1 == 0.0:
        raise ZeroDerivativeProfileError(f"f'(u) = 0 at u={u!r}")
    if f.val == 0.0:
        raise InvariantViolationError(f"f(u) = 0 at u={u!r}")
    log_slope = (f.val * f.d2 + f.d1 * f.d1) / (f.val * f.d1)  # (ln|ff'|)'
    rad = _radicand_guarded(log_slope,
                            4.0 * params.h_sign * params.C * params.C, u)
    return params.eta * math.sqrt(rad) / f.d1


def _trig_slopes(s: float, sw: float, t1, t2, r: Jet2,
                 phi: float) -> tuple[float, float]:
    """w (t1(phi), t2(phi)) with w = sqrt(sw k), k = (r')^2 + s."""
    w = math.sqrt(sw * (r.d1 * r.d1 + s))
    return w * t1(phi), w * t2(phi)


def _trig_slope_jets(s: float, sw: float, t1, t2, r: Jet2, phi: float, dphi: float):
    """(x', x'') of both trig slopes, using t1' = -s t2 and t2' = t1."""
    w = math.sqrt(sw * (r.d1 * r.d1 + s))
    wp = sw * r.d1 * r.d2 / w
    v1, v2 = t1(phi), t2(phi)
    return (w * v1, wp * v1 + -s * w * v2 * dphi), (w * v2, wp * v2 + w * v1 * dphi)


def _parabolic_slopes(f: Jet2, psi: float) -> tuple[float, float]:
    """x1' = phi = f' psi and g' = (phi^2 - 1) / (2 f'), which makes
    (x1')^2 - 2 f' g' = 1 exact."""
    p = f.d1 * psi
    return p, (p * p - 1.0) / (2.0 * f.d1)


def _parabolic_slope_jets(f: Jet2, psi: float, dpsi: float):
    """(x1', x1'') and (g', g'') with phi' = f'' psi + f' psi'."""
    p, dp = f.d1 * psi, f.d2 * psi + f.d1 * dpsi
    return (p, dp), ((p * p - 1.0) / (2.0 * f.d1),
                     p * dp / f.d1 - (p * p - 1.0) * f.d2 / (2.0 * f.d1 * f.d1))


def elliptic_H_closed(curve: GeneratingCurve, u: float, v: float = 0.0) -> MeanCurvature:
    """Closed-form mean curvature vector of the elliptic rotation,

    H = ( r(x1'x2''-x1''x2') n1 + (r r'' + (r')^2 + 1) n2 ) / (2 r w)

    with w = sqrt(1+(r')^2); <H, H> comes from h2_closed.
    """
    h2 = h2_closed(curve, u)
    x1, x2, r = curve.jets(u)
    w2 = 1.0 + r.d1 * r.d1
    kappa = x1.d1 * x2.d2 - x1.d2 * x2.d1
    q = r.val * r.d2 + w2
    frame = elliptic_frame(curve, u, v)
    scale = 1.0 / (2.0 * r.val * math.sqrt(w2))
    return MeanCurvature((frame.n1 * (r.val * kappa) + frame.n2 * q) * scale, h2)


def hyperbolic_H_closed(curve: GeneratingCurve, u: float, v: float = 0.0) -> MeanCurvature:
    """Closed-form mean curvature vector of the hyperbolic rotation,

    H = eps ( r(x4'x2''-x4''x2') n1 - (r r''+(r')^2-1) n2 ) / (2 r rho)

    with rho = sqrt(eps((r')^2-1)); <H, H> comes from h2_closed.
    """
    h2 = h2_closed(curve, u)
    r, x2, x4 = curve.jets(u)
    m = r.d1 * r.d1 - 1.0
    frame = hyperbolic_frame(curve, u, v)
    kappa = x4.d1 * x2.d2 - x4.d2 * x2.d1
    q = r.val * r.d2 + m
    scale = frame.eps1 / (2.0 * r.val * math.sqrt(frame.eps1 * m))
    return MeanCurvature((frame.n1 * (r.val * kappa) - frame.n2 * q) * scale, h2)


# --- Weingarten table and degeneracy -----------------------------------------

@dataclass(frozen=True)
class WeingartenTable:
    """Expansions of the ambient derivatives of n1, n2 of the elliptic
    frame in {X, Y, n1, n2}; each entry maps frame labels to coefficients."""

    dX_n1: dict[str, float]
    dY_n1: dict[str, float]
    dX_n2: dict[str, float]
    dY_n2: dict[str, float]


def elliptic_weingarten(curve: GeneratingCurve, u: float) -> WeingartenTable:
    """Closed-form derivative expansions of the elliptic frame:

    d_X n1 = -(kappa/w) X + (r' kappa / w^2) n2,   d_Y n1 = 0,
    d_X n2 = (r''/w) X + (r' kappa / w^2) n1,      d_Y n2 = (w/r) Y,

    with kappa = x1'x2'' - x1''x2' and w = sqrt(1+(r')^2).
    """
    x1, x2, r = curve.jets(u)
    w2 = 1.0 + r.d1 * r.d1
    w = math.sqrt(w2)
    kappa = x1.d1 * x2.d2 - x1.d2 * x2.d1
    mixed = r.d1 * kappa / w2
    zero = {"X": 0.0, "Y": 0.0, "n1": 0.0, "n2": 0.0}
    return WeingartenTable(
        dX_n1={**zero, "X": -kappa / w, "n2": mixed},
        dY_n1=dict(zero),
        dX_n2={**zero, "X": r.d2 / w, "n1": mixed},
        dY_n2={**zero, "Y": w / r.val},
    )


@dataclass(frozen=True)
class DegeneracyReport:
    degenerate: bool
    max_twist: float
    hyperplane: str | None


def hyperplane_degeneracy(curve: GeneratingCurve) -> DegeneracyReport:
    """Detect whether the rotated surface stays inside a hyperplane.

    The test quantity is the type-appropriate twist (see
    GeneratingCurve.twist); when it stays within 1e-9 on the 201
    ``check_samples`` of the domain the normal n1 is constant and the
    surface lies in span{X, Y, n2}.
    """
    max_twist = max(abs(curve.twist(check_samples(curve.domain))).ravel().tolist())
    degenerate = max_twist <= 1e-9
    return DegeneracyReport(
        degenerate=degenerate,
        max_twist=max_twist,
        hyperplane="span{X, Y, n2}" if degenerate else None,
    )


# --- closed-form phi of the special profiles ----------------------------------

def _special_phi_elliptic(consts: Mapping[str, float], params: CmcParams,
                          u: float) -> float:
    a, b_c, d = float(consts["a"]), float(consts["b"]), float(consts.get("d", 0.0))
    rad = -u * u + 2.0 * a * u + b_c
    s2 = a * a + b_c
    if rad <= 0.0 or s2 <= 0.0:
        raise EvalDomainError("special elliptic profile undefined", u)
    s = math.sqrt(s2)
    return (2.0 * params.C / s) * (0.5 * (u - a) * math.sqrt(rad)
                                   + 0.5 * s2 * math.asin((u - a) / s) + d)


def _special_phi_hyperbolic(consts: Mapping[str, float], params: CmcParams,
                            u: float, case_sign: int) -> float:
    """phi of r = sqrt(u^2+2au+b) as transcribed: with D = a^2 - b,
    eps = sign D and R = r(u),

        phi = (2 eta C / sqrt(eps D)) ((u+a) R / 2 - (eps D / 2) ln|u+a+R| + d).

    The form that differentiates to the phi-equation in both cases is

        phi = (2 eta C eps / sqrt|D|) ((u+a) R / 2 - (D / 2) ln|u+a+R|) + d,

    since r r'' + (r')^2 - 1 = 0 and (r')^2 - 1 = D / r^2 reduce phi' to
    2 eta C eps r / sqrt|D|.  The two agree up to a constant in case A
    (eps = +1) only, which is why the case-B audit reports a discrepancy.
    Either the paper or this transcription is at fault; which one is open
    until the paper's equations are in the repository.  The expression is
    kept verbatim.
    """
    a, b_c, d = float(consts["a"]), float(consts["b"]), float(consts.get("d", 0.0))
    rad = u * u + 2.0 * a * u + b_c
    diff = a * a - b_c
    if rad <= 0.0 or diff == 0.0:
        raise EvalDomainError("special hyperbolic profile undefined", u)
    eps = 1.0 if diff > 0.0 else -1.0
    if eps != case_sign:
        raise CaseMismatchError(
            f"constants a={a!r}, b={b_c!r} give eps={eps!r}, not case sign {case_sign}")
    root = math.sqrt(rad)
    return (2.0 * params.eta * params.C / math.sqrt(eps * diff)) * (
        0.5 * (u + a) * root
        - 0.5 * eps * diff * math.log(abs(u + a + root)) + d)


def _special_phi_parabolic(consts: Mapping[str, float], params: CmcParams,
                           u: float) -> float:
    a, b_c = float(consts["a"]), float(consts["b"])
    big_a = float(consts.get("A", 0.0))
    big_b = float(consts.get("B", 1.0))
    rad = 2.0 * a * u + b_c
    if rad <= 0.0 or a == 0.0 or big_b == 0.0:
        raise EvalDomainError("special parabolic profile undefined", u)
    root = math.sqrt(rad)
    return (big_a + params.eta * (2.0 * params.C * big_b / (3.0 * a)) * root**3) / root


# --- the rotation-spec table ---------------------------------------------------

@dataclass(frozen=True)
class RotationSpec:
    """Every per-type fact of one rotation type (see SPECS)."""

    names: tuple[str, str, str]         # component order of the generating curve
    profile_slot: int                   # index of the profile r (or f) among them
    s: float                            # k = (r')^2 + s in the phi-equation
    case_sign: int                      # required sign of (r')^2 - 1; 0 if free
    turning: Callable[[Jet2, CmcParams, float], float]  # phi' (psi') at a profile jet
    slopes: Callable[[Jet2, float], tuple[float, float]]  # non-profile slopes at t
    slope_jets: Callable[[Jet2, float, float],  # their (x', x'') at t and t'
                         tuple[tuple[float, float], tuple[float, float]]]
    position: Callable[[float, float, float, float], Vec4]  # at the curve values and v
    patch_jets: Callable[[CurveJets], Callable[[float, float], PatchJets]]  # uses position
    check_profile: Callable[[Jet2, float], None]
    v_window: tuple[float, float]       # default v range of the patch
    arclength: Callable[[Jet2, Jet2, Jet2], float]
    twist: Callable[[Jet2, Jet2, Jet2], float]
    special_profile: str                # profile whose phi has a closed form
    special_h_sign: int                 # the h_sign that closed form assumes
    # closed-form phi(u) of the special profile as transcribed; constants
    # a, b and the offset d (default 0), parabolic a, b, A, B (B defaults
    # to 1); compare_special_case audits it
    special_phi: Callable[[Mapping[str, float], CmcParams, float], float]


def _hyperbolic_spec(case_sign: int, t1, t2) -> RotationSpec:
    sw = float(case_sign)  # w = sqrt(|(r')^2 - 1|)
    return RotationSpec(
        ("r", "x2", "x4"), 0, s=-1.0, case_sign=case_sign,
        turning=partial(phi_integrand, -1.0),
        slopes=partial(_trig_slopes, -1.0, sw, t1, t2),
        slope_jets=partial(_trig_slope_jets, -1.0, sw, t1, t2),
        position=_hyperbolic_position, patch_jets=_hyperbolic_jets,
        check_profile=_check_radius, v_window=(-2.0, 2.0),
        # (r')^2 + (x2')^2 - (x4')^2
        arclength=lambda a, b, c: square(a.d1) + square(b.d1) - square(c.d1),
        twist=lambda a, b, c: b.d1 * c.d2 - b.d2 * c.d1,
        special_profile="sqrt(u^2+2*a*u+b)",  # r r'' + (r')^2 - 1 = 0
        special_h_sign=case_sign, special_phi=partial(_special_phi_hyperbolic,
                                                      case_sign=case_sign))


#: The per-type facts of the four rotation types.  Hyperbolic slopes are
#: (x2', x4') = w (sinh phi, cosh phi) in case A and w (cosh phi, sinh phi)
#: in case B; elliptic ones (x1', x2') = w (cos phi, sin phi).
SPECS: dict[RotationType, RotationSpec] = {
    RotationType.ELLIPTIC: RotationSpec(
        ("x1", "x2", "r"), 2, s=1.0, case_sign=0,
        turning=partial(phi_integrand, 1.0),
        slopes=partial(_trig_slopes, 1.0, 1.0, math.cos, math.sin),
        slope_jets=partial(_trig_slope_jets, 1.0, 1.0, math.cos, math.sin),
        position=_elliptic_position, patch_jets=_elliptic_jets,
        check_profile=_check_radius, v_window=(0.0, 2.0 * math.pi),
        # (x1')^2 + (x2')^2 - (r')^2
        arclength=lambda a, b, c: square(a.d1) + square(b.d1) - square(c.d1),
        twist=lambda a, b, c: a.d1 * b.d2 - a.d2 * b.d1,
        special_profile="sqrt(-u^2+2*a*u+b)",  # r r'' + (r')^2 + 1 = 0
        special_h_sign=1, special_phi=_special_phi_elliptic),
    RotationType.HYPERBOLIC_A: _hyperbolic_spec(1, math.sinh, math.cosh),
    RotationType.HYPERBOLIC_B: _hyperbolic_spec(-1, math.cosh, math.sinh),
    RotationType.PARABOLIC: RotationSpec(
        ("x1", "f", "g"), 1, s=0.0, case_sign=0,
        turning=psi_integrand_parabolic, slopes=_parabolic_slopes,
        slope_jets=_parabolic_slope_jets,
        position=_parabolic_position, patch_jets=_parabolic_jets,
        check_profile=_check_ff, v_window=(-2.0, 2.0),
        arclength=lambda a, b, c: square(a.d1) - 2.0 * b.d1 * c.d1,  # (x1')^2 - 2 f' g'
        twist=lambda a, b, c: a.d2 * b.d1 - a.d1 * b.d2,
        special_profile="sqrt(2*a*u+b)",  # f f'' + (f')^2 = 0
        special_h_sign=1, special_phi=_special_phi_parabolic),
}

COMPONENT_NAMES = {rotation: spec.names for rotation, spec in SPECS.items()}
