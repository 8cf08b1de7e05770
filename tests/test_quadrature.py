import math
import random
import time

import numpy as np
import pytest

from cmcsurf.builders import RotationType
from cmcsurf.errors import QuadratureError
from cmcsurf.generator import CmcParams, domain_validity, generate
from cmcsurf.profiles import ProfileFunction
from cmcsurf.quadrature import CumulativeIntegral, PiecewiseLegendre, QuadratureConfig, gauss15
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


def test_overflowing_integrand_raises_quadrature_error():
    with pytest.raises(QuadratureError, match="overflows"):
        CumulativeIntegral(lambda x: math.sinh(1e3 * x), 0.0, 1.0)


#: (f, f', f'', domain): cos on [0, 3], sqrt(1 - x) on [0, 1] and
#: exp(sin 5x) on [-1, 4]
FUNCTIONS = {
    "cos": (math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), (0.0, 3.0)),
    "sqrt": (lambda x: math.sqrt(1.0 - x), lambda x: -0.5 / math.sqrt(1.0 - x),
             lambda x: -0.25 / (1.0 - x) ** 1.5, (0.0, 1.0)),
    "exp-sin": (lambda x: math.exp(math.sin(5.0 * x)),
                lambda x: 5.0 * math.cos(5.0 * x) * math.exp(math.sin(5.0 * x)),
                lambda x: 25.0 * (math.cos(5.0 * x) ** 2 - math.sin(5.0 * x))
                * math.exp(math.sin(5.0 * x)), (-1.0, 4.0)),
}


def piecewise_legendre_forms(name):
    """The CumulativeIntegral of f, and the quintic Hermite interpolant of f
    with its two derivatives; the Hermite samples stop short of x = 1,
    where sqrt(1 - x) has no finite derivative."""
    f, d1, d2, (a, b) = FUNCTIONS[name]
    us = np.linspace(a, 0.999 if name == "sqrt" else b, 97)
    hermite = PiecewiseLegendre.hermite(us, [[f(u), d1(u), d2(u)] for u in us])
    return [CumulativeIntegral(f, a, b), hermite, hermite.derivative(),
            hermite.derivative().derivative()]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_array_query_equals_the_float_query_bit_for_bit(name):
    rng = np.random.default_rng(20)
    for poly in piecewise_legendre_forms(name):
        a, b = poly.a, poly.b
        pad = 1e-12 * (1.0 + abs(a) + abs(b))
        us = np.concatenate([
            rng.uniform(a, b, 20_000), poly._nodes,
            [a, b, a - 0.5 * pad, b + 0.5 * pad, a - pad, b + pad, np.nextafter(a, b)]])
        floats = [PiecewiseLegendre.__call__(poly, u) for u in us.tolist()]
        column = PiecewiseLegendre.__call__(poly, us[:, None])
        assert column.shape == (len(us), 1)
        assert column.ravel().tolist() == floats
        grid = PiecewiseLegendre.__call__(poly, us[:100].reshape(10, 10))
        assert grid.ravel().tolist() == floats[:100]


def test_array_query_names_the_first_u_outside_the_domain():
    poly = piecewise_legendre_forms("cos")[1]
    us = np.array([[0.5], [3.5], [-1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^u=3\.5 outside the domain \[0\.0, 3\.0\]$"):
        poly(us)


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
