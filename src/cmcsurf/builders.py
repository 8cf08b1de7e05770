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
ones, see phi_integrand and psi_integrand_parabolic), the one formula of
the slopes of the non-profile components it fixes and their derivatives,
the position formula and its first and second v-derivatives, the
arc-length and twist expressions, the default v window and the special
profile with its closed-form phi.  The position is linear in the curve
values, so the u-partials of the patch are the position formula at the
curve's derivatives: one assembly, _patch_jets, serves every type.  The
entry points build_surface and h2_closed, the generator, validation, I/O
and the CLI read the table instead of branching on the type.

Besides the patch constructor this module carries the closed-form
adapted frames, the one closed form of <H, H> and the closed-form H
vectors of the elliptic and hyperbolic types, the Weingarten derivative
table of the elliptic frame, and the hyperplane degeneracy detector.
Parabolic patches are stored in the standard e-basis; the lightlike pair
xi1, xi2 appears only during assembly.

The position formulas and their v-derivatives, the closed-form frames,
h2_closed, the arc-length and twist expressions, the profile checks, the
turning equations and their slopes accept a broadcast grid (u a column, v
a row; see ``surfaces``) as well as a float (u, v), and a grid entry equals
the float call at its point bit for bit.  Generation calls the turning
equation and the slope formula the same way: each quadrature level of a
generated curve is one call on the u column of its Gauss nodes (see
``generator.generate``).  A generated or reloaded curve
states its jets once, as one function of a float u or a u column (one
profile jet, one turning call, one slope call and one Clenshaw sum or
sweep for t and one for both stacked coordinates, see
``generator.generate``; one panel search or sweep of nine stacked spline
forms, see ``io.curve_from_samples``), and its three
components are views that share one call of it per u
(``shared_components``).  ``GeneratingCurve.jets`` answers a u column with
one call of the curve's ``column`` function: that jets function for a
generated curve, the components for a reloaded one
(``component_columns``); an analytic curve has none and is looked up one
Python float at a time.  It memoizes a column as it does
a float, so every check that asks for the same u reads one evaluation.
The trigonometric functions of v and phi and the squares of the spec
expressions are libm's, one call per grid value.  build_surface and
hyperplane_degeneracy check a curve on the column of its 201
``check_samples``, h2_closed on the column it is given, and each raises
for the first offending u of the check that fails first.
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
from .geometry import (_SQRT2, Vec4, collect_faults, divisor, fail_at, libm, negate, raise_at,
                       square, uniform, where)
from .profiles import Jet2
from .surfaces import Frame, MeanCurvature, PatchJets, SurfacePatch

if TYPE_CHECKING:
    from .generator import CmcParams

#: Exclusion band around (r')^2 = 1 for hyperbolic surfaces.
TAU_SLOPE = 1e-6

#: Arc-length residual admitted for generating curves.
ARC_TOL = 1e-9

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
    raise_at(abs(m) < TAU_SLOPE, NearNullSlopeError,
             "(r')^2 - 1 = {!r} inside the exclusion band at u={!r}", m, u)
    return where(m > 0.0, 1, -1)


@dataclass(frozen=True)
class GeneratingCurve:
    """Arc-length generating curve: three jet-valued component functions.

    Component order follows the rotation type: elliptic (x1, x2, r),
    hyperbolic (r, x2, x4), parabolic (x1, f, g).

    ``column``, when given, takes the curve and an ndarray of u and returns
    the three component jets as Jet2s of arrays of its shape, each entry
    equal to the float call's: ``component_columns`` for the splines of a
    reloaded curve (see ``io.curve_from_samples``), the generator's jets
    function itself for a generated curve.  The components of both are
    ``shared_components`` of that one jets function, and are called at
    floats only unless ``column`` calls them.
    """

    rotation: RotationType
    components: tuple[JetFn, JetFn, JetFn]
    domain: tuple[float, float]
    column: Callable[[GeneratingCurve, np.ndarray], tuple[Jet2, Jet2, Jet2]] | None = None
    _memo: dict[object, tuple[Jet2, Jet2, Jet2]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def jets(self, u: float) -> tuple[Jet2, Jet2, Jet2]:
        """The three component jets at u, evaluated once per distinct u; a
        miss reads ``components`` (or ``column``) afresh, so swapped-in
        components see it.

        At an ndarray of u values every Jet2 field comes back as an array
        shaped like u: from one ``column`` call, and without one from a
        Python-float lookup per u.  A column is memoized by its shape and
        bytes, so equal columns share one tuple of arrays: no caller writes
        into a returned array.
        """
        key = _memo_key(u)
        hit = self._memo.get(key)
        if hit is None:
            if key is u:
                c1, c2, c3 = self.components
                hit = (c1(u), c2(u), c3(u))
            elif self.column is not None:
                hit = self.column(self, u)
            else:
                hit = tuple(Jet2(*c) for c in float_column(self.jets, u))
            self._memo[key] = hit
        return hit

    def arclength_residual(self, u: float) -> float:
        """|type-appropriate arc-length expression - 1| at u (at each u of
        a column): the one evaluation of the spec's ``arclength``.  An
        expression that overflows the float range (libm's pow, in
        ``square``, raises past ~1e154) is an InvariantViolationError."""
        jets = self.jets(u)
        try:
            return abs(SPECS[self.rotation].arclength(*jets) - 1.0)
        except OverflowError as exc:
            raise InvariantViolationError(
                f"arc-length expression overflows on {self.domain!r}") from exc

    def twist(self, u: float) -> float:
        """The quantity whose vanishing makes the surface hyperplanar:
        x1'x2''-x1''x2' (elliptic), x2'x4''-x2''x4' (hyperbolic),
        x1''f'-x1'f'' (parabolic)."""
        return SPECS[self.rotation].twist(*self.jets(u))


def _memo_key(u):
    """The key of u in a curve's memos: a float itself, a u column its
    shape and bytes."""
    return (u.shape, u.tobytes()) if isinstance(u, np.ndarray) else u


def shared_components(curve_jets: CurveJets) -> tuple[JetFn, JetFn, JetFn]:
    """The three components of a curve whose jets come from one function:
    component k at u is ``curve_jets(u)[k]``, and the three share one call
    per u through a one-entry memo keyed as ``GeneratingCurve.jets`` keys
    u.  So the float lookup of ``GeneratingCurve.jets``, or a reloaded
    curve's ``component_columns``, costs one ``curve_jets`` call, and a
    tracer that wraps the components still sees each of them called."""
    last: dict[object, tuple[Jet2, Jet2, Jet2]] = {}

    def jets(u) -> tuple[Jet2, Jet2, Jet2]:
        key = _memo_key(u)
        hit = last.get(key)
        if hit is None:
            last.clear()
            hit = last[key] = curve_jets(u)
        return hit

    return tuple(lambda u, k=k: jets(u)[k] for k in range(3))


def float_column(fn, u: np.ndarray) -> np.ndarray:
    """fn called at each float of the ndarray u, its (nested tuple) values
    stacked into one array of shape (shape of a value) + u.shape."""
    rows = np.array([fn(t) for t in u.ravel().tolist()])
    return np.moveaxis(rows, 0, -1).reshape(rows.shape[1:] + u.shape)


def component_columns(curve: GeneratingCurve, u: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
    """The ``column`` of a curve whose components take a u column (a
    reloaded curve): one call of each, read from the curve at call time (so
    a tracer that wraps the components sees them); as ``shared_components``
    the three share one evaluation of the column."""
    c1, c2, c3 = curve.components
    return c1(u), c2(u), c3(u)


def check_samples(domain: tuple[float, float]) -> np.ndarray:
    """The (201, 1) u column of the 201 ``uniform`` samples of the domain,
    taken by build_surface and the arc-length and degeneracy checks, which
    share its one evaluation through ``GeneratingCurve.jets``; build_surface
    holds the arc-length invariant and the profile conditions at their
    interior subset k = 3, 9, ..., 195."""
    return np.array(uniform(*domain, 201))[:, None]


def _check_radius(r: Jet2, u: float) -> None:
    raise_at(negate(r.val > 0.0), InvariantViolationError,
             "r(u)={!r} <= 0 at u={!r}", r.val, u)


def _check_ff(f: Jet2, u: float) -> None:
    raise_at((f.val == 0.0) | (f.d1 == 0.0), InvariantViolationError,
             "f*f' vanishes at u={!r}", u)


def _ff_signs(f: Jet2) -> int:
    """2 [f > 0] + [f' > 0]: constant on an interval where f f' != 0."""
    return 2 * (f.val > 0.0) + (f.d1 > 0.0)


def _no_signs(r: Jet2) -> int:
    return 0


# --- patch constructors ------------------------------------------------------

def build_surface(curve: GeneratingCurve,
                  v_window: tuple[float, float] | None = None) -> SurfacePatch:
    """Rotate the curve by the one-parameter group of its rotation type.

    The curve is always checked first, on the column of its 201
    ``check_samples`` (the one the arc-length and degeneracy checks read
    from the curve's memo): the arc-length expression must stay inside the
    float range at all of them, and the arc-length invariant and the
    profile conditions of the curve's spec (r > 0 or f f' != 0, and the
    hyperbolic case's sign of (r')^2 - 1) must hold at the 33 of them with
    k = 3, 9, ..., 195, before _patch_jets assembles the patch from the
    curve jets.  The conditions are checked in that order, each naming
    its first offending u.  ``v_window`` defaults to the spec's window:
    [0, 2 pi] elliptic, [-2, 2] otherwise.  Last, the position must be
    finite at the samples and the window's two ends, where |v|, and with
    it every hyperbolic cosh and sinh of v, peaks: near |v| = 710 the
    product r cosh v, then libm's cosh itself, leaves the float range,
    an InvariantViolationError naming the first such (u, v).
    """
    spec = SPECS[curve.rotation]
    samples = check_samples(curve.domain)
    res, us = curve.arclength_residual(samples)[3::6], samples[3::6]
    raise_at(negate(res <= ARC_TOL), InvariantViolationError,
             f"arc-length residual {{!r}} at u={{!r}} exceeds {ARC_TOL}", res, us)
    p = Jet2(*(f[3::6] for f in curve.jets(samples)[spec.profile_slot]))
    spec.check_profile(p, us)
    if spec.case_sign:
        m = p.d1 * p.d1 - 1.0
        raise_at(slope_sign(m, us) != spec.case_sign, InvariantViolationError,
                 f"(r')^2 - 1 = {{!r}} contradicts {curve.rotation} at u={{!r}}", m, us)
    v_window = v_window or spec.v_window
    ends = np.array(v_window)[None, :]
    with np.errstate(all="ignore"), collect_faults():  # a failed entry is NaN
        position = _patch_position(spec.position, curve.jets, samples, ends)
    raise_at(negate(position.is_finite()), InvariantViolationError,
             "position is not finite at (u, v) = ({!r}, {!r})", samples, ends)
    return SurfacePatch(_patch_jets(spec, curve.jets), curve.domain, v_window,
                        label=curve.rotation.value,
                        position=partial(_patch_position, spec.position, curve.jets))


def _patch_position(position, curve_jets: CurveJets, u: float, v: float) -> Vec4:
    """The spec's position formula at the curve values; no partials."""
    a, b, c = curve_jets(u)
    return position(a.val, b.val, c.val, v)


def _patch_jets(spec: RotationSpec, curve_jets: CurveJets):
    """The patch jets of every rotation type.  The position is linear in the
    curve values, so z_u and z_uu are the position formula at the curve's
    first and second derivatives, and z_uv is its v-derivative at the first."""
    position, position_v, position_vv = spec.position, spec.position_v, spec.position_vv

    def jets(u: float, v: float) -> PatchJets:
        a, b, c = curve_jets(u)
        return PatchJets(
            position=position(a.val, b.val, c.val, v),
            z_u=position(a.d1, b.d1, c.d1, v),
            z_v=position_v(a.val, b.val, c.val, v),
            z_uu=position(a.d2, b.d2, c.d2, v),
            z_uv=position_v(a.d1, b.d1, c.d1, v),
            z_vv=position_vv(a.val, b.val, c.val, v),
        )

    return jets


def _elliptic_position(x1: float, x2: float, r: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (x1, x2, r * m.cos(v), r * m.sin(v)))


def _elliptic_dv(x1: float, x2: float, r: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (0.0, 0.0, -r * m.sin(v), r * m.cos(v)))


def _elliptic_dvv(x1: float, x2: float, r: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (0.0, 0.0, -r * m.cos(v), -r * m.sin(v)))


def _hyperbolic_position(r: float, x2: float, x4: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (r * m.cosh(v), x2, r * m.sinh(v), x4))


def _hyperbolic_dv(r: float, x2: float, x4: float, v: float) -> Vec4:
    m = libm(v)
    return _new(Vec4, (r * m.sinh(v), 0.0, r * m.cosh(v), 0.0))


def _hyperbolic_dvv(r: float, x2: float, x4: float, v: float) -> Vec4:
    """(r cosh v, 0, r sinh v, 0): the position without its x2 and x4."""
    m = libm(v)
    return _new(Vec4, (r * m.cosh(v), 0.0, r * m.sinh(v), 0.0))


def _from_null_basis(a: float, b: float, c: float, d: float) -> Vec4:
    """a*e1 + b*xi1 + c*xi2 + d*e4 expressed in the e-basis."""
    return _new(Vec4, (a, (b - c) / _SQRT2, (b + c) / _SQRT2, d))


def _parabolic_position(x1: float, f: float, g: float, v: float) -> Vec4:
    return _from_null_basis(x1, f, -v * v * f + g, _SQRT2 * v * f)


def _parabolic_dv(x1: float, f: float, g: float, v: float) -> Vec4:
    return _from_null_basis(0.0, 0.0, -2.0 * v * f, _SQRT2 * f)


def _parabolic_dvv(x1: float, f: float, g: float, v: float) -> Vec4:
    return _from_null_basis(0.0, 0.0, -2.0 * f, 0.0)


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
    f f' = 0) and NearNullSlopeError inside the hyperbolic slope band, and
    an expression past the float range is an InvariantViolationError.  At
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
    try:
        return (square(r.val) * square(tau) - q * q) / (4.0 * square(r.val) * k)
    except OverflowError as exc:  # libm's pow, as in arclength_residual
        raise InvariantViolationError(
            f"closed-form <H, H> overflows on {curve.domain!r}") from exc


# --- turning equations and slopes ---------------------------------------------

def _radicand_guarded(q: float, extra: float, u: float) -> float:
    """q^2 + extra with a roundoff guard; negative values are infeasible.
    At a column the guarded entries are 0.0."""
    rad = q * q + extra
    negative = rad < 0.0
    if negative is False:
        return rad
    roundoff = rad > -1e-12 * (q * q + abs(extra) + 1.0)
    fail_at(negative & negate(roundoff), _negative_radicand, rad, u)
    return where(negative, 0.0, rad)


def _negative_radicand(rad: float, u: float) -> NegativeRadicandError:
    return NegativeRadicandError(f"radicand {rad!r} negative (infeasible h_sign/C)", u)


#: The CaseMismatchError message of phi_integrand by the spec's case sign.
_CONTRADICTS = {sign: "(r')^2 - 1 = {!r} at u={!r} contradicts " + name
                for sign, name in ((1, "hyperbolicA"), (-1, "hyperbolicB"))}


def phi_integrand(s: float, case_sign: int, r: Jet2, params: CmcParams,
                  u: float) -> float:
    """phi'(u) at the profile jet r, with k = (r')^2 + s and q = r r'' + k
    (as in h2_closed): s = +1 elliptic, s = -1 hyperbolic, whose
    ``case_sign`` (the spec's: +1 case A, -1 case B, 0 elliptic) is the
    sign k must have.  The spec binds s and case_sign positionally, which
    keeps each float call (a curve query at a fresh u) on CPython's fast
    path.

    Raises NearNullSlopeError (|k| < TAU_SLOPE, which k >= 1 rules out for
    elliptic profiles), CaseMismatchError (k of the other case's sign),
    NonpositiveProfileError and NegativeRadicandError where the
    preconditions fail.  At a column of jets it returns the column of
    values, and each check is a mask (see ``geometry.collect_faults``).
    """
    k = r.d1 * r.d1 + s
    sign = slope_sign(k, u)
    if case_sign:
        raise_at(sign != case_sign, CaseMismatchError, _CONTRADICTS[case_sign], k, u)
    raise_at(negate(r.val > 0.0), NonpositiveProfileError,
             "r(u)={!r} <= 0 at u={!r}", r.val, u)
    q = r.val * r.d2 + k
    rad = _radicand_guarded(q, 4.0 * params.h_sign * (params.C * params.C)
                            * (r.val * r.val) * k, u)
    return params.eta * libm(rad).sqrt(rad) / divisor(r.val * k)


def psi_integrand_parabolic(f: Jet2, params: CmcParams, u: float) -> float:
    """psi'(u) at the profile jet f of the parabolic type, where phi = f' psi;
    at a column of jets, as phi_integrand."""
    raise_at(f.d1 == 0.0, ZeroDerivativeProfileError, "f'(u) = 0 at u={!r}", u)
    raise_at(f.val == 0.0, InvariantViolationError, "f(u) = 0 at u={!r}", u)
    log_slope = (f.val * f.d2 + f.d1 * f.d1) / divisor(f.val * f.d1)  # (ln|ff'|)'
    rad = _radicand_guarded(log_slope,
                            4.0 * params.h_sign * params.C * params.C, u)
    return params.eta * libm(rad).sqrt(rad) / f.d1


def _trig_slope_jets(s: float, sw: float, t1: str, t2: str, r: Jet2, phi: float,
                     dphi: float):
    """(x', x'') of both trig slopes x' = w (t1(phi), t2(phi)), w = sqrt(sw
    k), k = (r')^2 + s, for t1, t2 named ``libm`` functions with t1' = -s t2
    and t2' = t1; at a column of jets and phi entry by entry as at a float."""
    m = libm(phi)
    w = m.sqrt(sw * (r.d1 * r.d1 + s))
    wp = sw * r.d1 * r.d2 / w
    v1, v2 = getattr(m, t1)(phi), getattr(m, t2)(phi)
    return (w * v1, wp * v1 + -s * w * v2 * dphi), (w * v2, wp * v2 + w * v1 * dphi)


def _parabolic_slope_jets(f: Jet2, psi: float, dpsi: float):
    """(x1', x1'') and (g', g''): x1' = phi = f' psi, phi' = f'' psi + f' psi'
    and g' = (phi^2 - 1) / (2 f'), which makes (x1')^2 - 2 f' g' = 1 exact."""
    p, dp = f.d1 * psi, f.d2 * psi + f.d1 * dpsi
    return (p, dp), ((p * p - 1.0) / (2.0 * f.d1),
                     p * dp / f.d1 - (p * p - 1.0) * f.d2 / divisor(2.0 * f.d1 * f.d1))


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
    surface lies in span{X, Y, n2}.  A NaN twist makes the maximum NaN, so
    the curve is not reported degenerate.
    """
    max_twist = float(np.max(np.abs(curve.twist(check_samples(curve.domain)))))
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


def _phi_rate(f: Jet2, phi: float, dphi: float) -> float:
    return dphi


def _psi_rate(f: Jet2, phi: float, dphi: float) -> float:
    """psi' = (phi' f' - phi f'') / (f')^2 of phi = f' psi: the constants
    live inside phi, so the audit compares the implied psi'."""
    return (dphi * f.d1 - phi * f.d2) / (f.d1 * f.d1)


# --- the rotation-spec table ---------------------------------------------------

@dataclass(frozen=True)
class RotationSpec:
    """Every per-type fact of one rotation type (see SPECS)."""

    names: tuple[str, str, str]         # component order of the generating curve
    profile_slot: int                   # index of the profile r (or f) among them
    s: float                            # k = (r')^2 + s in the phi-equation
    case_sign: int                      # required sign of (r')^2 - 1; 0 if free
    turning: Callable[[Jet2, CmcParams, float], float]  # phi' (psi') at a profile jet
    slope_jets: Callable[[Jet2, float, float],  # non-profile (x', x'') at t and t'
                         tuple[tuple[float, float], tuple[float, float]]]
    # z(u, v) at the curve values and v, and its first and second
    # v-derivatives; linear in the curve values, so at the curve's
    # derivatives they give the u-partials (see _patch_jets)
    position: Callable[[float, float, float, float], Vec4]
    position_v: Callable[[float, float, float, float], Vec4]
    position_vv: Callable[[float, float, float, float], Vec4]
    check_profile: Callable[[Jet2, float], None]
    # the signs of the profile terms that must not vanish but may have
    # either sign (f and f' of a parabolic profile), as one int; a change
    # of it between two valid scan points bounds a validity piece
    kept_signs: Callable[[Jet2], int]
    v_window: tuple[float, float]       # default v range of the patch
    arclength: Callable[[Jet2, Jet2, Jet2], float]
    twist: Callable[[Jet2, Jet2, Jet2], float]
    special_profile: str                # profile whose phi has a closed form
    special_h_sign: int                 # the h_sign that closed form assumes
    # closed-form phi(u) of the special profile as transcribed; constants
    # a, b and the offset d (default 0), parabolic a, b, A, B (B defaults
    # to 1); compare_special_case audits it
    special_phi: Callable[[Mapping[str, float], CmcParams, float], float]
    # the rate the turning equation gives, from the profile jet, phi and
    # phi': phi' itself, or psi' for a parabolic profile (phi = f' psi)
    special_rate: Callable[[Jet2, float, float], float]


def _arclength_ppm(a: Jet2, b: Jet2, c: Jet2) -> float:
    """(a')^2 + (b')^2 - (c')^2, the elliptic and hyperbolic arc length."""
    return square(a.d1) + square(b.d1) - square(c.d1)


def _hyperbolic_spec(case_sign: int, t1: str, t2: str) -> RotationSpec:
    sw = float(case_sign)  # w = sqrt(|(r')^2 - 1|)
    return RotationSpec(
        ("r", "x2", "x4"), 0, s=-1.0, case_sign=case_sign,
        turning=partial(phi_integrand, -1.0, case_sign),
        slope_jets=partial(_trig_slope_jets, -1.0, sw, t1, t2),
        position=_hyperbolic_position, position_v=_hyperbolic_dv, position_vv=_hyperbolic_dvv,
        check_profile=_check_radius, kept_signs=_no_signs, v_window=(-2.0, 2.0),
        arclength=_arclength_ppm,  # (r')^2 + (x2')^2 - (x4')^2
        twist=lambda a, b, c: b.d1 * c.d2 - b.d2 * c.d1,
        special_profile="sqrt(u^2+2*a*u+b)",  # r r'' + (r')^2 - 1 = 0
        special_h_sign=case_sign, special_phi=partial(_special_phi_hyperbolic,
                                                      case_sign=case_sign),
        special_rate=_phi_rate)


#: The per-type facts of the four rotation types.  Hyperbolic slopes are
#: (x2', x4') = w (sinh phi, cosh phi) in case A and w (cosh phi, sinh phi)
#: in case B; elliptic ones (x1', x2') = w (cos phi, sin phi).
SPECS: dict[RotationType, RotationSpec] = {
    RotationType.ELLIPTIC: RotationSpec(
        ("x1", "x2", "r"), 2, s=1.0, case_sign=0,
        turning=partial(phi_integrand, 1.0, 0),
        slope_jets=partial(_trig_slope_jets, 1.0, 1.0, "cos", "sin"),
        position=_elliptic_position, position_v=_elliptic_dv, position_vv=_elliptic_dvv,
        check_profile=_check_radius, kept_signs=_no_signs, v_window=(0.0, 2.0 * math.pi),
        arclength=_arclength_ppm,  # (x1')^2 + (x2')^2 - (r')^2
        twist=lambda a, b, c: a.d1 * b.d2 - a.d2 * b.d1,
        special_profile="sqrt(-u^2+2*a*u+b)",  # r r'' + (r')^2 + 1 = 0
        special_h_sign=1, special_phi=_special_phi_elliptic, special_rate=_phi_rate),
    RotationType.HYPERBOLIC_A: _hyperbolic_spec(1, "sinh", "cosh"),
    RotationType.HYPERBOLIC_B: _hyperbolic_spec(-1, "cosh", "sinh"),
    RotationType.PARABOLIC: RotationSpec(
        ("x1", "f", "g"), 1, s=0.0, case_sign=0,
        turning=psi_integrand_parabolic, slope_jets=_parabolic_slope_jets,
        position=_parabolic_position, position_v=_parabolic_dv, position_vv=_parabolic_dvv,
        check_profile=_check_ff, kept_signs=_ff_signs, v_window=(-2.0, 2.0),
        arclength=lambda a, b, c: square(a.d1) - 2.0 * b.d1 * c.d1,  # (x1')^2 - 2 f' g'
        twist=lambda a, b, c: a.d2 * b.d1 - a.d1 * b.d2,
        special_profile="sqrt(2*a*u+b)",  # f f'' + (f')^2 = 0
        special_h_sign=1, special_phi=_special_phi_parabolic, special_rate=_psi_rate),
}

COMPONENT_NAMES = {rotation: spec.names for rotation, spec in SPECS.items()}
