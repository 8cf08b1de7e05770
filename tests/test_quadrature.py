import math
import random
import time

import pytest

from cmcsurf.builders import RotationType
from cmcsurf.errors import QuadratureError
from cmcsurf.generator import CmcParams, domain_validity, generate
from cmcsurf.profiles import ProfileFunction
from cmcsurf.quadrature import CumulativeIntegral, QuadratureConfig, gauss15
from cmcsurf.validation import generation_plan


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
    # the panel holding the jump keeps a Legendre tail of order 1, so its
    # width times the tail stays above the tolerance down to MAX_DEPTH
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


def test_smooth_integrand_takes_few_panels():
    # the tail rule stops where the degree-14 interpolant is resolved
    # (adaptive Simpson needed 364 panels and 6,189 calls here)
    calls = []

    def counted_cos(x):
        calls.append(x)
        return math.cos(x)

    cum = CumulativeIntegral(counted_cos, 0.0, 3.0)
    assert len(cum._offsets) <= 16 and len(calls) <= 500
    assert abs(cum.total - math.sin(3.0)) <= 1e-15
    for u in [0.1, 0.7854, 1.5, 2.2, 2.999]:
        assert abs(cum(u) - math.sin(u)) <= 1e-15


def test_square_root_endpoint_singularity():
    # the width weighting lets the panels at u = 1 shrink until they pass
    assert abs(CumulativeIntegral(lambda x: math.sqrt(1.0 - x), 0.0, 1.0).total
               - 2.0 / 3.0) <= 1e-15


def test_tolerance_below_the_floor_is_clamped():
    start = time.process_time()
    cum = CumulativeIntegral(math.exp, 0.0, 1.0, QuadratureConfig(rel_tol=1e-300))
    assert time.process_time() - start < 1.0
    floor = CumulativeIntegral(math.exp, 0.0, 1.0, QuadratureConfig(rel_tol=1e-16))
    assert cum._nodes == floor._nodes and len(cum._offsets) <= 16
    assert cum.total == pytest.approx(math.e - 1.0, abs=1e-15)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        CumulativeIntegral(lambda x: math.nan, 0.0, 1.0)


@pytest.mark.parametrize("rotation, text, interval, C", [
    ("hyperbolicA", "2*u", (0.5, 2.5), 0.5),
    ("parabolic", "u", (0.5, 2.0), 0.5),
    ("parabolic", "u^2", (0.5, 1.8), 1.0),
])
def test_generate_next_to_a_radicand_zero(rotation, text, interval, C):
    # h_sign = -1 puts a zero of the turning radicand just past the padded
    # interval; an unweighted tail test refined there past 4,096 panels
    rotation = RotationType(rotation)
    profile = ProfileFunction.from_text(text, interval)
    params = CmcParams(C=C, h_sign=-1)
    (lo, hi), params = generation_plan(domain_validity(profile, params, interval, rotation),
                                       params)
    curve = generate(rotation, profile, params, None, (lo, hi))
    assert curve.arclength_residual(0.5 * (lo + hi)) <= 1e-12
