import math
import random

import pytest

from cmcsurf.errors import QuadratureError
from cmcsurf.quadrature import CumulativeIntegral, QuadratureConfig, gauss15


def integral(f, a, b):
    return CumulativeIntegral(f, a, b).total


def test_polynomial_exact():
    assert integral(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert gauss15(lambda x: x**8, 0.0, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_known_integrals():
    assert integral(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert integral(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert integral(lambda x: 1.0 / x, 1.0, 4.0) == pytest.approx(
        math.log(4.0), rel=1e-12)


def test_reversed_and_empty_interval():
    with pytest.raises(ValueError):
        CumulativeIntegral(math.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        CumulativeIntegral(math.exp, 1.0, 1.0)


def test_needs_refinement_near_kink():
    # |x|^1.5 has unbounded curvature at 0; adaptivity must still converge
    value = integral(lambda x: abs(x) ** 1.5, -1.0, 1.0)
    assert value == pytest.approx(0.8, rel=1e-9)


def test_depth_exhaustion_raises():
    # the Simpson estimate on the panel holding the jump never shrinks
    # faster than the halved tolerance, so the refinement runs out of depth
    with pytest.raises(QuadratureError):
        CumulativeIntegral(lambda x: 0.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0)


def test_cumulative_matches_antiderivative():
    cum = CumulativeIntegral(math.cos, 0.0, 3.0)
    for u in [0.0, 0.1, 0.7854, 1.5, 2.2, 2.999, 3.0]:
        assert cum(u) == pytest.approx(math.sin(u), abs=1e-13)
    assert cum.total == pytest.approx(math.sin(3.0), abs=1e-13)


def test_cumulative_local_differences_are_sharp():
    # differences across a tiny stencil must be exact to ~machine precision,
    # which is what the finite-difference oracle relies on
    cum = CumulativeIntegral(lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 4.0)

    def truth(u):
        # antiderivative of e^-x sin 3x
        return (-math.exp(-u) * (math.sin(3 * u) + 3 * math.cos(3 * u)) + 3.0) / 10.0

    h = 1e-4
    for u in [0.5, 1.3337, 2.71, 3.9]:
        fd_true = (truth(u + h) - truth(u - h)) / (2 * h)
        fd_cum = (cum(u + h) - cum(u - h)) / (2 * h)
        assert fd_cum == pytest.approx(fd_true, abs=1e-11)


def test_queries_never_call_the_integrand():
    # each panel keeps the antiderivative of its Legendre interpolant, so a
    # query at a fresh u costs no integrand calls and stays at roundoff
    calls = []

    def counted_cos(x):
        calls.append(x)
        return math.cos(x)

    cum = CumulativeIntegral(counted_cos, 0.0, 3.0)
    built = len(calls)
    rng = random.Random(2024)
    us = [rng.uniform(0.0, 3.0) for _ in range(2000)]
    worst = max(abs(cum(u) - math.sin(u)) for u in us)
    assert len(calls) == built
    assert worst <= 1e-15


def test_cumulative_rejects_outside():
    cum = CumulativeIntegral(math.cos, 0.0, 1.0)
    with pytest.raises(ValueError):
        cum(1.5)
    with pytest.raises(ValueError):
        cum(-0.2)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
