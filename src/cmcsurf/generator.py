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

The entry points are generate (every type) and phi_integrand(s, ...).
The per-type facts (the sign s of k = (r')^2 + s, the trig pair, the
component order) are read from builders.SPECS, so elliptic and both
hyperbolic cases share one generator body and one phi-integrand; only the
parabolic psi-equation has its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .builders import SPECS, GeneratingCurve, JetFn, RotationType, slope_sign
from .errors import (
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
    integrals.  The constants only translate/rotate the curve.
    """

    C: float
    h_sign: int = 1
    eta: int = 1
    u0: float | None = None
    phi0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
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


def _cached(fn: JetFn) -> JetFn:
    cache: dict[float, Jet2] = {}

    def wrapped(u: float) -> Jet2:
        hit = cache.get(u)
        if hit is None:
            hit = cache[u] = fn(u)
        return hit

    return wrapped


# --- phi-equation integrands ---------------------------------------------------

def _radicand_guarded(q: float, extra: float, u: float) -> float:
    """q^2 + extra with a roundoff guard; negative values are infeasible."""
    rad = q * q + extra
    if rad < 0.0:
        if rad > -1e-12 * (q * q + abs(extra) + 1.0):
            return 0.0
        raise NegativeRadicandError(
            f"radicand {rad!r} negative (infeasible h_sign/C)", u)
    return rad


def phi_integrand(s: float, profile, params: CmcParams, u: float) -> float:
    """phi'(u) with k = (r')^2 + s: s = +1 elliptic, s = -1 hyperbolic.

    Raises NonpositiveProfileError, NearNullSlopeError (|k| < TAU_SLOPE,
    which k >= 1 rules out for elliptic profiles) and NegativeRadicandError
    where the preconditions fail.
    """
    r = as_jet_fn(profile)(u)
    if not r.val > 0.0:
        raise NonpositiveProfileError(f"r(u)={r.val!r} <= 0 at u={u!r}")
    k = r.d1 * r.d1 + s
    slope_sign(k, u)
    q = r.val * r.d2 + k
    rad = _radicand_guarded(q, 4.0 * params.h_sign * (params.C * params.C)
                            * (r.val * r.val) * k, u)
    return params.eta * math.sqrt(rad) / (r.val * k)


def psi_integrand_parabolic(profile, params: CmcParams, u: float) -> float:
    """psi'(u) for the parabolic type, where phi = f' * psi."""
    f = as_jet_fn(profile)(u)
    if f.d1 == 0.0:
        raise ZeroDerivativeProfileError(f"f'(u) = 0 at u={u!r}")
    if f.val == 0.0:
        raise InvariantViolationError(f"f(u) = 0 at u={u!r}")
    log_slope = (f.val * f.d2 + f.d1 * f.d1) / (f.val * f.d1)  # (ln|ff'|)'
    rad = _radicand_guarded(log_slope,
                            4.0 * params.h_sign * params.C * params.C, u)
    return params.eta * math.sqrt(rad) / f.d1


# --- generators ----------------------------------------------------------------

def _base_point(params: CmcParams, interval: tuple[float, float]) -> float:
    u0 = interval[0] if params.u0 is None else params.u0
    if not interval[0] <= u0 <= interval[1]:
        raise ValueError(f"u0={u0!r} outside the generation interval {interval!r}")
    return u0


def generate(rotation: RotationType, profile, params: CmcParams,
             config: QuadratureConfig | None = None,
             interval: tuple[float, float] = (0.0, 1.0),
             phi_scale: float = 1.0) -> GeneratingCurve:
    """Generate the CMC curve of type ``rotation`` over ``interval``.

    Elliptic and hyperbolic curves share this body: with k = (r')^2 + s and
    w = sqrt(sw k), the two non-profile slopes are w times the spec's trig
    pair (t1, t2) of phi, where t1' = -s t2 and t2' = t1 (see SPECS).
    Parabolic curves come from the psi-equation.  A profile whose slope
    contradicts the hyperbolic case, or crosses the null band, raises
    CaseMismatchError / NearNullSlopeError.

    ``phi_scale`` multiplies phi (psi for parabolic curves) after
    quadrature; values other than 1.0 break the CMC property on purpose
    (negative-control hook) while keeping the arc-length identity intact.
    """
    if rotation is RotationType.PARABOLIC:
        return _generate_parabolic(profile, params, config, interval, phi_scale)
    spec = SPECS[rotation]
    s, sw = spec.s, spec.sw  # locals: the closures below run per quadrature node
    t1, t2 = spec.trig
    config = config or QuadratureConfig()
    rj = _cached(as_jet_fn(profile))
    a, b = interval
    u0 = _base_point(params, interval)
    if spec.case_sign:  # the profile's slope must keep the case's sign of (r')^2 - 1
        for i in range(65):
            u = a + (b - a) * i / 64.0
            m = rj(u).d1 ** 2 - 1.0
            if slope_sign(m, u) != spec.case_sign:
                raise CaseMismatchError(
                    f"(r')^2 - 1 = {m!r} at u={u!r} contradicts {rotation.value}")

    def dphi_raw(u: float) -> float:
        return phi_integrand(s, rj, params, u)

    phi_cum = CumulativeIntegral(dphi_raw, a, b, config)
    phi_off = phi_cum(u0)

    def phi(u: float) -> float:
        return params.phi0 + phi_scale * (phi_cum(u) - phi_off)

    def dphi(u: float) -> float:
        return phi_scale * dphi_raw(u)

    def w_of(r: Jet2) -> float:
        return math.sqrt(sw * (r.d1 * r.d1 + s))

    def component(c: float, t, sign: float, t_other) -> JetFn:
        """c + integral of w t(phi), where t' = sign * t_other."""
        def slope(u: float) -> float:
            return w_of(rj(u)) * t(phi(u))

        cum = CumulativeIntegral(slope, a, b, config)
        off = cum(u0)

        def jet(u: float) -> Jet2:
            r = rj(u)
            w = w_of(r)
            wp = sw * r.d1 * r.d2 / w
            p, dp = phi(u), dphi(u)
            v, v_other = t(p), t_other(p)
            return Jet2(c + cum(u) - off, w * v, wp * v + sign * w * v_other * dp)

        return _cached(jet)

    components = [component(params.c1, t1, -s, t2), component(params.c2, t2, 1.0, t1)]
    components.insert(spec.profile_slot, rj)
    return GeneratingCurve(rotation, tuple(components), interval)


def _generate_parabolic(profile, params: CmcParams, config: QuadratureConfig | None,
                        interval: tuple[float, float],
                        phi_scale: float) -> GeneratingCurve:
    """The parabolic CMC curve (x1, f, g) over ``interval``.

    ``params.phi0`` plays the role of the constant A in phi = f'(A + ...).
    The arc-length identity (x1')^2 - 2 f' g' = 1 holds exactly by
    construction of g'.
    """
    config = config or QuadratureConfig()
    fj = _cached(as_jet_fn(profile))
    a, b = interval
    u0 = _base_point(params, interval)

    def dpsi_raw(u: float) -> float:
        return psi_integrand_parabolic(fj, params, u)

    psi_cum = CumulativeIntegral(dpsi_raw, a, b, config)
    psi_off = psi_cum(u0)

    def psi(u: float) -> float:
        return params.phi0 + phi_scale * (psi_cum(u) - psi_off)

    def phi_pair(u: float) -> tuple[float, float]:
        """phi = f' psi and phi' = f'' psi + f' psi'."""
        f = fj(u)
        s = psi(u)
        return f.d1 * s, f.d2 * s + f.d1 * phi_scale * dpsi_raw(u)

    def x1_slope(u: float) -> float:
        return phi_pair(u)[0]

    def g_slope(u: float) -> float:
        f = fj(u)
        p = phi_pair(u)[0]
        return (p * p - 1.0) / (2.0 * f.d1)

    x1_cum = CumulativeIntegral(x1_slope, a, b, config)
    g_cum = CumulativeIntegral(g_slope, a, b, config)
    x1_off = x1_cum(u0)
    g_off = g_cum(u0)

    def x1_fn(u: float) -> Jet2:
        p, dp = phi_pair(u)
        return Jet2(params.c1 + x1_cum(u) - x1_off, p, dp)

    def g_fn(u: float) -> Jet2:
        f = fj(u)
        p, dp = phi_pair(u)
        d1 = (p * p - 1.0) / (2.0 * f.d1)
        d2 = p * dp / f.d1 - (p * p - 1.0) * f.d2 / (2.0 * f.d1 * f.d1)
        return Jet2(params.c2 + g_cum(u) - g_off, d1, d2)

    return GeneratingCurve(RotationType.PARABOLIC, (_cached(x1_fn), fj, _cached(g_fn)),
                           interval)


# --- feasibility scan ------------------------------------------------------------

def _validity_predicate(rotation: RotationType, profile, params: CmcParams):
    jf = as_jet_fn(profile)
    spec = SPECS[rotation]
    integrand = (psi_integrand_parabolic if rotation is RotationType.PARABOLIC
                 else partial(phi_integrand, spec.s))

    def ok(u: float) -> bool:
        try:
            p = jf(u)  # evaluated once, then handed to the integrand
            if spec.case_sign and slope_sign(p.d1 * p.d1 - 1.0, u) != spec.case_sign:
                return False
            integrand(lambda _: p, params, u)
        except (ArithmeticError, ValueError,
                NegativeRadicandError, NonpositiveProfileError,
                ZeroDerivativeProfileError, InvariantViolationError,
                NearNullSlopeError, EvalDomainError):
            return False
        return True

    return ok


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
    ok = _validity_predicate(rotation, profile, params)
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
