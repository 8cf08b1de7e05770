"""Closed-form arc-length generating curves shared by the test modules.

Every curve here satisfies its type's arc-length identity exactly (the
components are hand-integrated), so test failures point at the library,
never at the fixtures.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

from cmcsurf.builders import GeneratingCurve, RotationType, check_samples
from cmcsurf.profiles import Jet2


def jet_fn(f, d1, d2):
    return lambda u: Jet2(f(u), d1(u), d2(u))


def counted(components):
    """The components wrapped to count their calls per u, and the counters."""
    counters = [Counter() for _ in components]

    def wrap(fn, counter):
        def call(u):
            counter[u] += 1
            return fn(u)
        return call

    return tuple(map(wrap, components, counters)), counters


def const_fn(c):
    return lambda u: Jet2(c, 0.0, 0.0)


def linear_fn(slope, offset=0.0):
    return lambda u: Jet2(slope * u + offset, slope, 0.0)


def elliptic_circle(radius: float, domain=(0.0, 2.0 * math.pi)) -> GeneratingCurve:
    """(cos u, sin u, radius): the arc-length circle profile at height r."""
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (jet_fn(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
         jet_fn(math.sin, math.cos, lambda u: -math.sin(u)),
         const_fn(radius)),
        domain,
    )


def elliptic_helix(slope: float, offset: float, k: float,
                   domain) -> GeneratingCurve:
    """Linear profile r = slope*u + offset with turning rate phi = k*u."""
    w = math.sqrt(1.0 + slope * slope)
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (jet_fn(lambda u: (w / k) * math.sin(k * u),
                lambda u: w * math.cos(k * u),
                lambda u: -w * k * math.sin(k * u)),
         jet_fn(lambda u: -(w / k) * math.cos(k * u),
                lambda u: w * math.sin(k * u),
                lambda u: w * k * math.cos(k * u)),
         linear_fn(slope, offset)),
        domain,
    )


def elliptic_cosh(domain=(-1.0, 1.5)) -> GeneratingCurve:
    """r = cosh u with phi = u; the coordinates integrate in closed form."""
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (jet_fn(lambda u: 0.5 * (math.sinh(u) * math.cos(u) + math.cosh(u) * math.sin(u)),
                lambda u: math.cosh(u) * math.cos(u),
                lambda u: math.sinh(u) * math.cos(u) - math.cosh(u) * math.sin(u)),
         jet_fn(lambda u: 0.5 * (math.sinh(u) * math.sin(u) - math.cosh(u) * math.cos(u)),
                lambda u: math.cosh(u) * math.sin(u),
                lambda u: math.sinh(u) * math.sin(u) + math.cosh(u) * math.cos(u)),
         jet_fn(math.cosh, math.sinh, math.cosh)),
        domain,
    )


def elliptic_straight(cos_t: float = 0.6, sin_t: float = 0.8,
                      radius: float = 1.0, domain=(0.0, 3.0)) -> GeneratingCurve:
    """Straight profile x1 = u cos t, x2 = u sin t, r const: twist == 0."""
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (linear_fn(cos_t), linear_fn(sin_t), const_fn(radius)),
        domain,
    )


ELLIPTIC_CURVES = [
    ("circle-r1", elliptic_circle(1.0)),
    ("circle-r2", elliptic_circle(2.0)),
    ("helix", elliptic_helix(0.5, 1.0, 1.3, (0.0, 4.0))),
    ("cosh", elliptic_cosh()),
    ("straight", elliptic_straight()),
    ("circle-k2", GeneratingCurve(
        RotationType.ELLIPTIC,
        (jet_fn(lambda u: 0.5 * math.sin(2 * u),
                lambda u: math.cos(2 * u),
                lambda u: -2 * math.sin(2 * u)),
         jet_fn(lambda u: -0.5 * math.cos(2 * u),
                lambda u: math.sin(2 * u),
                lambda u: 2 * math.cos(2 * u)),
         const_fn(1.5)),
        (0.0, 2.0 * math.pi))),
]


def hyperbolic_linear_a(slope: float, offset: float, k: float,
                        domain) -> GeneratingCurve:
    """Case A: |slope| > 1; x2/x4 from sinh/cosh of phi = k*u."""
    w = math.sqrt(slope * slope - 1.0)
    return GeneratingCurve(
        RotationType.HYPERBOLIC_A,
        (linear_fn(slope, offset),
         jet_fn(lambda u: (w / k) * math.cosh(k * u),
                lambda u: w * math.sinh(k * u),
                lambda u: w * k * math.cosh(k * u)),
         jet_fn(lambda u: (w / k) * math.sinh(k * u),
                lambda u: w * math.cosh(k * u),
                lambda u: w * k * math.sinh(k * u))),
        domain,
    )


def hyperbolic_sinh_a(domain=(0.7, 2.0)) -> GeneratingCurve:
    """r = sinh u ((r')^2 = cosh^2 > 1), phi = u."""
    return GeneratingCurve(
        RotationType.HYPERBOLIC_A,
        (jet_fn(math.sinh, math.cosh, math.sinh),
         jet_fn(lambda u: 0.5 * (math.sinh(u) * math.cosh(u) - u),
                lambda u: math.sinh(u) ** 2,
                lambda u: 2.0 * math.sinh(u) * math.cosh(u)),
         jet_fn(lambda u: 0.5 * math.sinh(u) ** 2,
                lambda u: math.sinh(u) * math.cosh(u),
                lambda u: math.cosh(2.0 * u))),
        domain,
    )


def hyperbolic_linear_b(slope: float, offset: float, k: float,
                        domain) -> GeneratingCurve:
    """Case B: |slope| < 1; x2/x4 from cosh/sinh of phi = k*u."""
    w = math.sqrt(1.0 - slope * slope)
    return GeneratingCurve(
        RotationType.HYPERBOLIC_B,
        (linear_fn(slope, offset),
         jet_fn(lambda u: (w / k) * math.sinh(k * u),
                lambda u: w * math.cosh(k * u),
                lambda u: w * k * math.sinh(k * u)),
         jet_fn(lambda u: (w / k) * math.cosh(k * u),
                lambda u: w * math.sinh(k * u),
                lambda u: w * k * math.cosh(k * u))),
        domain,
    )


HYPERBOLIC_CURVES = [
    ("A-linear-2", hyperbolic_linear_a(2.0, 0.0, 1.0, (0.5, 2.5))),
    ("A-linear-1.5", hyperbolic_linear_a(1.5, 0.3, 0.7, (0.4, 2.0))),
    ("A-sinh", hyperbolic_sinh_a()),
    ("B-const-2", hyperbolic_linear_b(0.0, 2.0, 1.0, (0.0, 2.0))),
    ("B-linear-0.5", hyperbolic_linear_b(0.5, 1.0, 1.1, (0.0, 2.0))),
    ("B-const-1", hyperbolic_linear_b(0.0, 1.0, 0.5, (0.0, 3.0))),
]


def parabolic_poly(k: float, domain=(0.5, 2.0)) -> GeneratingCurve:
    """f = u with phi = k*u: everything is polynomial."""
    return GeneratingCurve(
        RotationType.PARABOLIC,
        (jet_fn(lambda u: 0.5 * k * u * u, lambda u: k * u, lambda u: k),
         linear_fn(1.0),
         jet_fn(lambda u: (k * k * u ** 3) / 6.0 - 0.5 * u,
                lambda u: 0.5 * (k * k * u * u - 1.0),
                lambda u: k * k * u)),
        domain,
    )


def parabolic_quartic(domain=(0.5, 2.0)) -> GeneratingCurve:
    """f = u with phi = 1 + u^2."""
    return GeneratingCurve(
        RotationType.PARABOLIC,
        (jet_fn(lambda u: u + u ** 3 / 3.0, lambda u: 1.0 + u * u, lambda u: 2.0 * u),
         linear_fn(1.0),
         jet_fn(lambda u: u ** 3 / 3.0 + u ** 5 / 10.0,
                lambda u: u * u + 0.5 * u ** 4,
                lambda u: 2.0 * u + 2.0 * u ** 3)),
        domain,
    )


def parabolic_exp(domain=(0.0, 1.5)) -> GeneratingCurve:
    """f = e^u with phi = e^u; then g = cosh u."""
    return GeneratingCurve(
        RotationType.PARABOLIC,
        (jet_fn(math.exp, math.exp, math.exp),
         jet_fn(math.exp, math.exp, math.exp),
         jet_fn(math.cosh, math.sinh, math.cosh)),
        domain,
    )


def parabolic_square(domain=(0.5, 1.8)) -> GeneratingCurve:
    """f = u^2 with phi = u."""
    return GeneratingCurve(
        RotationType.PARABOLIC,
        (jet_fn(lambda u: 0.5 * u * u, lambda u: u, lambda u: 1.0),
         jet_fn(lambda u: u * u, lambda u: 2.0 * u, lambda u: 2.0),
         jet_fn(lambda u: u * u / 8.0 - math.log(u) / 4.0,
                lambda u: (u * u - 1.0) / (4.0 * u),
                lambda u: 0.25 + 1.0 / (4.0 * u * u))),
        domain,
    )


def parabolic_sqrt(domain=(0.5, 2.0)) -> GeneratingCurve:
    """f = sqrt(2u) (the special profile) with phi = sqrt(2u)."""
    def root(u):
        return math.sqrt(2.0 * u)

    return GeneratingCurve(
        RotationType.PARABOLIC,
        (jet_fn(lambda u: root(u) ** 3 / 3.0,
                root,
                lambda u: 1.0 / root(u)),
         jet_fn(root, lambda u: 1.0 / root(u), lambda u: -1.0 / root(u) ** 3),
         jet_fn(lambda u: root(u) ** 5 / 10.0 - root(u) ** 3 / 6.0,
                lambda u: 0.5 * root(u) ** 3 - 0.5 * root(u),
                lambda u: 1.5 * root(u) - 0.5 / root(u))),
        domain,
    )


PARABOLIC_CURVES = [
    ("poly-k2", parabolic_poly(2.0)),
    ("poly-k1", parabolic_poly(1.0)),
    ("quartic", parabolic_quartic()),
    ("exp", parabolic_exp()),
    ("square", parabolic_square()),
    ("sqrt-special", parabolic_sqrt()),
]

ALL_CURVES = [
    *(("elliptic:" + n, c) for n, c in ELLIPTIC_CURVES),
    *(("hyperbolic:" + n, c) for n, c in HYPERBOLIC_CURVES),
    *(("parabolic:" + n, c) for n, c in PARABOLIC_CURVES),
]


def nan_slope_at(curve: GeneratingCurve, k: int) -> tuple[GeneratingCurve, float]:
    """The curve with the slope of its first component NaN at the k-th of
    its ``check_samples``, and that u."""
    u_nan = check_samples(curve.domain)[k, 0].item()
    first = curve.components[0]

    def nan_slope(u):
        jet = first(u)
        return jet._replace(d1=math.nan) if u == u_nan else jet

    return replace(curve, components=(nan_slope, *curve.components[1:])), u_nan


def non_arclength_curve() -> GeneratingCurve:
    """x1 = 2u, x2 = 0, r = 1: arc-length expression equals 4, residual 3."""
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (linear_fn(2.0), const_fn(0.0), const_fn(1.0)),
        (0.0, 1.0),
    )
