"""Construction of constant-mean-curvature generating curves.

Each rotation type reduces the CMC condition <H, H> = h_sign * C^2 to a
first-order equation for a turning function phi(u) driven by the profile
(r or f) and its first two derivatives:

* elliptic:    phi' = eta * sqrt((r r''+(r')^2+1)^2 + 4 h_sign C^2 r^2 (1+(r')^2))
                      / (r (1+(r')^2)),
               x1' = sqrt(1+(r')^2) cos phi,  x2' = sqrt(1+(r')^2) sin phi;
* hyperbolic:  phi' = eta * sqrt((r r''+(r')^2-1)^2 + 4 h_sign C^2 r^2 ((r')^2-1))
                      / (r ((r')^2-1)),
               case A ((r')^2>1): x2' = sqrt((r')^2-1) sinh phi,
                                  x4' = sqrt((r')^2-1) cosh phi;
               case B ((r')^2<1): x2' = sqrt(1-(r')^2) cosh phi,
                                  x4' = sqrt(1-(r')^2) sinh phi;
* parabolic:   psi' = eta * sqrt(((ln|ff'|)')^2 + 4 h_sign C^2) / f',
               phi = f' * (A + integral of psi'),  x1' = phi,
               g'  = (phi^2 - 1) / (2 f').

phi (and the coordinate components) are recovered by adaptive quadrature:
one build for phi, then one stacked build for both coordinates, whose
integrand reads both x' from one slope call at phi.  The curve jets are
then assembled *analytically* from these identities, never by
differencing quadrature output, so arc-length holds to roundoff and the
twist x1'x2''-x1''x2' equals (1+(r')^2) phi' identically.

Sign bookkeeping: ``h_sign`` is the sign of <H, H> (the paper-level
choice under the radical) and ``eta`` the overall orientation of phi.
For hyperbolic profiles h_sign = sign((r')^2-1) is always feasible; the
opposite sign is admitted only where the radicand stays nonnegative, and
infeasibility is reported as empty validity rather than as an error.

The turning equations (phi_integrand, psi_integrand_parabolic) and the
one slope formula they fix (``slope_jets``, integrated and reported) live
in builders, next to h2_closed, with each RotationSpec of builders.SPECS;
generate is the one generator body for all four types.  This module keeps
the quadrature of those equations and the feasibility scan.

The turning equation is the one gate of generation: its checks (r > 0 or
f f' != 0, the hyperbolic case's sign of (r')^2 - 1 outside the null band,
a nonnegative radicand) run at every node of the turning quadrature and at
every curve query, and the scan asks the same equation.  The scan
(domain_validity) evaluates its 1025 points as one u column: one profile
jet and one turning call over all of them, whose failed checks become
masks (``geometry.collect_faults``).  Only the bisection of each boundary
evaluates single float points.  Each level of a quadrature build is a u
column too, the level's Gauss nodes: one profile jet and one turning call
for phi, and one profile jet, one query of phi and one slope call for the
coordinates.  Only a node whose check fails, or whose value is not finite,
is evaluated again as a float, to raise its error (see
``quadrature.CumulativeIntegral``).  A generated
curve answers a float u and a u column through one function, the way the
scan does: one profile jet, one turning call, one slope call and one
Clenshaw sum (or sweep) per quadrature, shared by the three components.
The curve's own memo (``GeneratingCurve.jets``) keeps columns as it keeps
floats, so a check that asks for a column another check asked for reads
the same jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .builders import SPECS, GeneratingCurve, RotationType, shared_components
from .errors import (
    BasePointError,
    CaseMismatchError,
    EvalDomainError,
    InvariantViolationError,
    NearNullSlopeError,
    NegativeRadicandError,
    NonpositiveProfileError,
    ZeroDerivativeProfileError,
)
from .geometry import collect_faults, uniform
from .profiles import Jet2, ProfileFunction
from .quadrature import CumulativeIntegral, QuadratureConfig


@dataclass(frozen=True)
class CmcParams:
    """Target constant and integration constants of a generation run.

    ``C`` is the curvature constant (<H,H> = h_sign * C^2, C != 0),
    ``h_sign`` the sign of <H,H>, ``eta`` the orientation of phi.  ``u0``
    is the base point of all quadratures (interval left endpoint when
    None); ``phi0`` is the phi integration constant, which doubles as the
    parabolic constant A; ``c1``/``c2`` shift the two coordinate
    integrals.  The constants only translate/rotate the curve.  A C, u0,
    phi0, c1 or c2 that is not finite raises ValueError, as C = 0 does.
    """

    C: float
    h_sign: int = 1
    eta: int = 1
    u0: float | None = None
    phi0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        values = (self.C, self.phi0, self.c1, self.c2,
                  0.0 if self.u0 is None else self.u0)
        if not all(map(math.isfinite, values)):
            raise ValueError("C, u0, phi0, c1 and c2 must be finite")
        if self.C == 0.0:
            raise ValueError("C must be nonzero")
        if self.h_sign not in (-1, 1) or self.eta not in (-1, 1):
            raise ValueError("h_sign and eta must be +1 or -1")

    @property
    def target_h2(self) -> float:
        return self.h_sign * self.C * self.C


# --- generators ----------------------------------------------------------------

def generate(rotation: RotationType, profile: ProfileFunction, params: CmcParams,
             config: QuadratureConfig | None = None,
             interval: tuple[float, float] = (0.0, 1.0),
             phi_scale: float = 1.0) -> GeneratingCurve:
    """Generate the CMC curve of type ``rotation`` over ``interval``.

    One body serves every type: the spec's turning function t (phi, or psi
    for parabolic curves) is the quadrature of ``spec.turning`` from u0,
    offset by ``params.phi0`` (the parabolic constant A in phi = f'(A +
    ...)), and the two non-profile components are one stacked quadrature
    of both x' of ``spec.slope_jets`` at t, offset by ``params.c1`` and
    ``params.c2``, whose (x', x'') at t and t' the curve reports.  So a
    generation makes two ``CumulativeIntegral`` builds, each of which
    evaluates its integrand once per bisection level, on the u column of
    that level's nodes: one profile jet and one turning call for t, and one
    profile jet, one query of t and one slope call for the coordinates.
    The turning equation checks the profile at every quadrature node and
    curve query: it raises CaseMismatchError / NearNullSlopeError
    where a hyperbolic profile's slope contradicts the case or enters the
    null band, and the error of any other precondition (see
    ``checked_jet``) where that fails.

    The curve's jets at u come from one function, ``curve_jets``: one
    profile jet, one turning call, one ``slope_jets`` call and one query of
    the coordinate integrals for both, at a float u or a u column alike
    (one Clenshaw sweep for t and one for both coordinates), so each column
    entry equals the float query.  The three components share its one call
    per float u (``builders.shared_components``); the curve's ``column``
    calls it directly.  generate queries the curve at both ends of the
    interval, so a curve that cannot be evaluated there is refused with
    the error of the first offending end.

    ``phi_scale`` multiplies t - phi0 after quadrature; values other than
    1.0 break the CMC property on purpose (negative-control hook) while
    keeping the arc-length identity intact.
    """
    spec = SPECS[rotation]
    turning, slope_jets, jet = spec.turning, spec.slope_jets, profile.jet
    a, b = interval
    u0 = a if params.u0 is None else params.u0
    if not a <= u0 <= b:
        raise BasePointError(f"u0={u0!r} outside the generation interval {interval!r}")

    # the integrands, and t and curve_jets, take a float u or a u column
    def dt_raw(u):
        return turning(jet(u), params, u)

    t_cum = CumulativeIntegral(dt_raw, a, b, config)
    t_off = t_cum(u0)

    def t(u):
        return params.phi0 + phi_scale * (t_cum(u) - t_off)

    def slopes(u):
        # both x'; their x'' at t' = 0 go unread
        (x, _), (y, _) = slope_jets(jet(u), t(u), 0.0)
        return x, y
    x_cum = CumulativeIntegral(slopes, a, b, config)
    x_ends = list(zip((params.c1, params.c2), x_cum(u0)))  # (c, the integral at u0)

    def curve_jets(u) -> tuple[Jet2, Jet2, Jet2]:
        p = jet(u)
        slope_pair = slope_jets(p, t(u), phi_scale * turning(p, params, u))
        # c + the integral of each slope from u0, and its (x', x'')
        jets = [Jet2(c + x - off, *slope)
                for (c, off), x, slope in zip(x_ends, x_cum(u), slope_pair)]
        jets.insert(spec.profile_slot, p)
        return tuple(jets)

    # the column calls curve_jets itself: the components see floats only
    curve = GeneratingCurve(rotation, shared_components(curve_jets), interval,
                            lambda _curve, u: curve_jets(u))
    # no quadrature node reaches the ends, so query them once; two float
    # queries cost a twentieth of one column call on the two points
    for end in interval:
        curve.jets(end)
    return curve


# --- feasibility scan ------------------------------------------------------------

#: What the generator's preconditions raise where they fail.
INFEASIBLE = (ArithmeticError, ValueError, CaseMismatchError, EvalDomainError,
              InvariantViolationError, NearNullSlopeError, NegativeRadicandError,
              NonpositiveProfileError, ZeroDerivativeProfileError)


def checked_jet(profile: ProfileFunction, params: CmcParams,
                rotation: RotationType, u: float) -> Jet2:
    """The profile jet at u, once the generator's preconditions hold there:
    the profile's evaluability and the checks of the spec's turning
    equation (r > 0 or f f' != 0, the hyperbolic case's sign of (r')^2 - 1
    outside the null band, a nonnegative radicand).  At a float u the first
    that fails raises (one of ``INFEASIBLE``); at an ndarray of u inside
    ``geometry.collect_faults`` each failed check records its mask."""
    p = profile.jet(u)
    SPECS[rotation].turning(p, params, u)
    return p


def validity_state(profile: ProfileFunction, params: CmcParams,
                   rotation: RotationType, u: float) -> int:
    """-1 where the generator's preconditions (``checked_jet``) fail at u,
    else the spec's ``kept_signs`` of the profile jet there (0 unless
    parabolic).  At an ndarray of u, the int array of the float calls'
    values, from one ``checked_jet`` call whose checks record masks."""
    kept_signs = SPECS[rotation].kept_signs
    if isinstance(u, np.ndarray):
        with np.errstate(all="ignore"), collect_faults() as faults:
            p = checked_jet(profile, params, rotation, u)
        return np.where(reduce(np.logical_or, faults, np.zeros(u.shape, dtype=bool)),
                        -1, kept_signs(p))
    try:
        p = checked_jet(profile, params, rotation, u)
    except INFEASIBLE:
        return -1
    return kept_signs(p)


def domain_validity(profile: ProfileFunction, params: CmcParams,
                    interval: tuple[float, float],
                    rotation: RotationType) -> list[tuple[float, float]]:
    """Maximal subintervals where the generator's preconditions hold.

    Scans 1025 evenly spaced points for changes of ``validity_state``
    (profile evaluability and the turning equation's checks: positivity,
    f f' != 0, case-consistent slope, nonnegative radicand) and locates
    each boundary by bisection to 1e-10.
    ``profile`` is a ProfileFunction: the scan takes its jet at all points
    in one column call, and only the bisection evaluates it at single
    floats.  For a parabolic profile a sign change of f or f' between two
    valid neighbours is a boundary too, bisected on that sign, so a piece
    never spans a zero of f (where G = -2 f^2 vanishes) or of f' (a pole of
    psi').  An empty list is a normal outcome: it reports an infeasible
    (h_sign, C) choice.
    """
    lo, hi = interval
    if not hi > lo:
        raise ValueError("empty scan interval")
    us = uniform(lo, hi, 1025)
    states = validity_state(profile, params, rotation, np.array(us))

    def refine(u_good: float, u_bad: float, state: int) -> float:
        """The end, to 1e-10, of the run of ``state`` from u_good toward u_bad."""
        while abs(u_bad - u_good) > 1e-10:
            mid = 0.5 * (u_good + u_bad)
            if validity_state(profile, params, rotation, mid) == state:
                u_good = mid
            else:
                u_bad = mid
        return u_good

    intervals: list[tuple[float, float]] = []
    start: float | None = us[0] if states[0] >= 0 else None
    for k in (np.flatnonzero(states[1:] != states[:-1]) + 1).tolist():
        before, after = states[k - 1].item(), states[k].item()
        if before >= 0:  # a piece ends
            intervals.append((start, refine(us[k - 1], us[k], before)))
        start = refine(us[k], us[k - 1], after) if after >= 0 else None
    if start is not None:
        intervals.append((start, us[-1]))
    return [(s, e) for s, e in intervals if e > s]
