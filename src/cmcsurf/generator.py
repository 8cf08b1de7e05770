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

phi (and the coordinate components) are recovered by adaptive quadrature;
the curve jets are then assembled *analytically* from these identities,
never by differencing quadrature output, so arc-length holds to roundoff
and the twist x1'x2''-x1''x2' equals (1+(r')^2) phi' identically.

Sign bookkeeping: ``h_sign`` is the sign of <H, H> (the paper-level
choice under the radical) and ``eta`` the overall orientation of phi.
For hyperbolic profiles h_sign = sign((r')^2-1) is always feasible; the
opposite sign is admitted only where the radicand stays nonnegative, and
infeasibility is reported as empty validity rather than as an error.

The turning equations (phi_integrand, psi_integrand_parabolic) and the
slopes they fix live in builders, next to h2_closed, and each
RotationSpec in builders.SPECS carries its own; generate is the one
generator body for all four types.  This module keeps the quadrature of
those equations, the profile memo and the feasibility scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .builders import SPECS, GeneratingCurve, JetFn, RotationType, slope_sign
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
from .profiles import Jet2
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


def as_jet_fn(profile) -> JetFn:
    """Accept a ProfileFunction or any callable u -> Jet2."""
    jet = getattr(profile, "jet", None)
    if jet is not None:
        return jet
    return profile


# --- generators ----------------------------------------------------------------

def generate(rotation: RotationType, profile, params: CmcParams,
             config: QuadratureConfig | None = None,
             interval: tuple[float, float] = (0.0, 1.0),
             phi_scale: float = 1.0) -> GeneratingCurve:
    """Generate the CMC curve of type ``rotation`` over ``interval``.

    One body serves every type: the spec's turning function t (phi, or psi
    for parabolic curves) is the quadrature of ``spec.turning`` from u0,
    offset by ``params.phi0`` (the parabolic constant A in phi = f'(A +
    ...)), and the two non-profile components are the quadratures of
    ``spec.slopes`` at t, offset by ``params.c1`` and ``params.c2``; their
    derivatives come from ``spec.slope_jets``.  A profile whose slope
    contradicts the hyperbolic case, or crosses the null band, raises
    CaseMismatchError / NearNullSlopeError.

    ``phi_scale`` multiplies t - phi0 after quadrature; values other than
    1.0 break the CMC property on purpose (negative-control hook) while
    keeping the arc-length identity intact.
    """
    spec = SPECS[rotation]
    # locals: the closures below run per quadrature node
    turning, slopes, slope_jets = spec.turning, spec.slopes, spec.slope_jets
    config = config or QuadratureConfig()
    jet_fn, profile_memo = as_jet_fn(profile), {}

    def rj(u: float) -> Jet2:
        # a dict, not functools.cache, which keys each float u by a 1-tuple
        hit = profile_memo.get(u)
        if hit is None:
            hit = profile_memo[u] = jet_fn(u)
        return hit
    a, b = interval
    u0 = a if params.u0 is None else params.u0
    if not a <= u0 <= b:
        raise BasePointError(f"u0={u0!r} outside the generation interval {interval!r}")
    if spec.case_sign:  # the profile's slope must keep the case's sign of (r')^2 - 1
        for i in range(65):
            u = a + (b - a) * i / 64.0
            m = rj(u).d1 ** 2 - 1.0
            if slope_sign(m, u) != spec.case_sign:
                raise CaseMismatchError(
                    f"(r')^2 - 1 = {m!r} at u={u!r} contradicts {rotation.value}")

    def dt_raw(u: float) -> float:
        return turning(rj(u), params, u)

    t_cum = CumulativeIntegral(dt_raw, a, b, config)
    t_off = t_cum(u0)

    def t(u: float) -> float:
        return params.phi0 + phi_scale * (t_cum(u) - t_off)

    def component(i: int, c: float) -> JetFn:
        """c + integral of the i-th slope."""
        cum = CumulativeIntegral(lambda u: slopes(rj(u), t(u))[i], a, b, config)
        off = cum(u0)

        def jet(u: float) -> Jet2:
            d1, d2 = slope_jets(rj(u), t(u), phi_scale * dt_raw(u))[i]
            return Jet2(c + cum(u) - off, d1, d2)

        return jet

    components = [component(0, params.c1), component(1, params.c2)]
    components.insert(spec.profile_slot, rj)
    return GeneratingCurve(rotation, tuple(components), interval)


# --- feasibility scan ------------------------------------------------------------

def domain_validity(profile, params: CmcParams,
                    interval: tuple[float, float],
                    rotation: RotationType) -> list[tuple[float, float]]:
    """Maximal subintervals where the generator's preconditions hold.

    Scans 1025 evenly spaced points for changes of the validity predicate
    (profile positivity, f f' != 0, case-consistent slope, nonnegative
    radicand, evaluability) and locates each boundary by bisection to
    1e-10.  An empty list is a normal outcome: it reports an infeasible
    (h_sign, C) choice.
    """
    lo, hi = interval
    if not hi > lo:
        raise ValueError("empty scan interval")
    jf = as_jet_fn(profile)
    spec = SPECS[rotation]

    def ok(u: float) -> bool:
        try:
            p = jf(u)
            if spec.case_sign and slope_sign(p.d1 * p.d1 - 1.0, u) != spec.case_sign:
                return False
            spec.turning(p, params, u)
        except (ArithmeticError, ValueError,
                NegativeRadicandError, NonpositiveProfileError,
                ZeroDerivativeProfileError, InvariantViolationError,
                NearNullSlopeError, EvalDomainError):
            return False
        return True

    us = [lo + (hi - lo) * k / 1024 for k in range(1025)]
    flags = [ok(u) for u in us]

    def refine(u_good: float, u_bad: float) -> float:
        while abs(u_bad - u_good) > 1e-10:
            mid = 0.5 * (u_good + u_bad)
            if ok(mid):
                u_good = mid
            else:
                u_bad = mid
        return u_good

    intervals: list[tuple[float, float]] = []
    start: float | None = us[0] if flags[0] else None
    for k in range(1, len(us)):
        if flags[k] == flags[k - 1]:
            continue
        if flags[k]:  # invalid -> valid
            start = refine(us[k], us[k - 1])
        else:  # valid -> invalid
            intervals.append((start, refine(us[k - 1], us[k])))
            start = None
    if start is not None:
        intervals.append((start, us[-1]))
    return [(s, e) for s, e in intervals if e > s]
