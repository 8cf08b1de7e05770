import math
import random
import re
import time
import warnings

import numpy as np
import pytest

from cmcsurf.builders import RotationType
from cmcsurf.errors import QuadratureError
from cmcsurf.generator import CmcParams, domain_validity, generate
from cmcsurf.geometry import libm, raise_at
from cmcsurf.profiles import ProfileFunction
from cmcsurf.quadrature import CumulativeIntegral, PiecewiseLegendre, QuadratureConfig, gauss15
from cmcsurf.validation import generation_plan

#: The 15 Gauss-Legendre nodes on [-1, 1], as Python floats.
GL_NODES = np.polynomial.legendre.leggauss(15)[0].tolist()


# integrands take a float or an ndarray of u, libm's values at every entry
def cos(x):
    return libm(x).cos(x)


def sin(x):
    return libm(x).sin(x)


def exp(x):
    return libm(x).exp(x)


def sqrt(x):
    return libm(x).sqrt(x)


def integral(f, a, b):
    return CumulativeIntegral(f, a, b).total


def test_polynomial_exact():
    assert integral(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    [total] = gauss15([[(0.5 + 0.5 * x) ** 8 for x in GL_NODES]], 0.5)
    assert total == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_known_integrals():
    assert integral(exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert integral(sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert integral(lambda x: 1.0 / x, 1.0, 4.0) == pytest.approx(
        math.log(4.0), rel=1e-12)


def test_reversed_and_empty_interval():
    with pytest.raises(ValueError):
        CumulativeIntegral(exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        CumulativeIntegral(exp, 1.0, 1.0)


def test_needs_refinement_near_kink():
    # |x|^1.5 has unbounded curvature at 0; adaptivity must still converge
    value = integral(lambda x: abs(x) ** 1.5, -1.0, 1.0)
    assert value == pytest.approx(0.8, rel=1e-9)


def test_depth_exhaustion_raises():
    # the panel holding the jump keeps a Legendre tail of order 1, so its
    # width times the tail stays above the tolerance down to MAX_DEPTH
    with pytest.raises(QuadratureError):
        CumulativeIntegral(lambda x: (x >= 1.0 / 3.0) * 1.0, 0.0, 1.0)


def test_cumulative_matches_antiderivative():
    cum = CumulativeIntegral(cos, 0.0, 3.0)
    for u in [0.0, 0.1, 0.7854, 1.5, 2.2, 2.999, 3.0]:
        assert cum(u) == pytest.approx(math.sin(u), abs=1e-13)
    assert cum.total == pytest.approx(math.sin(3.0), abs=1e-13)


def test_cumulative_local_differences_are_sharp():
    # differences across a tiny stencil must be exact to ~machine precision,
    # which is what the finite-difference oracle relies on
    cum = CumulativeIntegral(lambda x: exp(-x) * sin(3 * x), 0.0, 4.0)

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
        return cos(x)

    cum = CumulativeIntegral(counted_cos, 0.0, 3.0)
    built = len(calls)
    rng = random.Random(2024)
    us = [rng.uniform(0.0, 3.0) for _ in range(2000)]
    worst = max(abs(cum(u) - math.sin(u)) for u in us)
    assert len(calls) == built
    assert worst <= 1e-15


def test_cumulative_rejects_outside():
    cum = CumulativeIntegral(cos, 0.0, 1.0)
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
    nodes = []

    def counted_cos(x):
        nodes.append(x.size)
        return cos(x)

    cum = CumulativeIntegral(counted_cos, 0.0, 3.0)
    assert cum._panels <= 16 and sum(nodes) <= 500
    assert abs(cum.total - math.sin(3.0)) <= 1e-15
    for u in [0.1, 0.7854, 1.5, 2.2, 2.999]:
        assert abs(cum(u) - math.sin(u)) <= 1e-15


def test_square_root_endpoint_singularity():
    # the width weighting lets the panels at u = 1 shrink until they pass
    assert abs(CumulativeIntegral(lambda x: sqrt(1.0 - x), 0.0, 1.0).total
               - 2.0 / 3.0) <= 1e-15


def test_tolerance_below_the_floor_is_clamped():
    start = time.process_time()
    cum = CumulativeIntegral(exp, 0.0, 1.0, QuadratureConfig(rel_tol=1e-300))
    assert time.process_time() - start < 1.0
    floor = CumulativeIntegral(exp, 0.0, 1.0, QuadratureConfig(rel_tol=1e-16))
    assert cum._nodes == floor._nodes and cum._panels <= 16
    assert cum.total == pytest.approx(math.e - 1.0, abs=1e-15)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        CumulativeIntegral(lambda x: x * math.nan, 0.0, 1.0)


def test_overflowing_integrand_raises_quadrature_error():
    with pytest.raises(QuadratureError, match="overflows"):
        CumulativeIntegral(lambda x: libm(x).sinh(1e3 * x), 0.0, 1.0)


def test_build_calls_its_integrand_once_per_level_on_the_gauss_nodes():
    # each call gets the (panels, 15) nodes of the pending panels, in the
    # order of a breadth-first bisection, each rounded as the float
    # mid + half * x is; the build refines exp(sin 5x) over several levels
    calls = []

    def f(x):
        calls.append(x)
        return exp(sin(5.0 * x))

    cum = CumulativeIntegral(f, -1.0, 4.0)
    accepted = set(zip(cum._nodes, cum._nodes[1:]))
    pending = [(-1.0, 4.0)]
    for nodes in calls:
        assert isinstance(nodes, np.ndarray) and nodes.shape == (len(pending), 15)
        assert bits(nodes) == bits([[0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x in GL_NODES]
                                    for lo, hi in pending])
        pending = [piece for lo, hi in pending if (lo, hi) not in accepted
                   for piece in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
    assert pending == [] and len(calls) >= 3


def raises_past(u0):
    """NaN below 0.3 on [0, 1], and a ValueError naming u at each u past u0."""
    def f(x):
        raise_at(x > u0, ValueError, "raised at u={!r}", x)
        return np.where(x < 0.3, math.nan, x)
    return f


#: the first level's nodes on [0, 1]
LEVEL_0 = [0.5 + 0.5 * x for x in GL_NODES]


@pytest.mark.parametrize("f, error, message", [
    # the NaN nodes come first, and the first node that raises decides
    (raises_past(0.7), ValueError,
     rf"^raised at u={re.escape(repr(min(u for u in LEVEL_0 if u > 0.7)))}$"),
    # the column's inf is the float call's division by zero
    (lambda x: 1.0 / (x - LEVEL_0[3]), QuadratureError,
     r"^integrand overflows or divides by zero on \[0\.0, 1\.0\] "
     r"\(ZeroDivisionError: float division by zero\)$"),
    # no float call raises
    (raises_past(2.0), QuadratureError, r"^integrand not finite on \[0\.0, 1\.0\]$"),
], ids=["nan-then-raise", "divides-by-zero", "not-finite"])
def test_build_errors_follow_node_order(f, error, message):
    with pytest.raises(error, match=message):
        CumulativeIntegral(f, 0.0, 1.0)


#: (f, f', f'', domain): cos on [0, 3], sqrt(1 - x) on [0, 1] and
#: exp(sin 5x) on [-1, 4]
FUNCTIONS = {
    "cos": (cos, lambda x: -sin(x), lambda x: -cos(x), (0.0, 3.0)),
    "sqrt": (lambda x: sqrt(1.0 - x), lambda x: -0.5 / sqrt(1.0 - x),
             lambda x: -0.25 / (1.0 - x) ** 1.5, (0.0, 1.0)),
    "exp-sin": (lambda x: exp(sin(5.0 * x)),
                lambda x: 5.0 * cos(5.0 * x) * exp(sin(5.0 * x)),
                lambda x: 25.0 * (cos(5.0 * x) ** 2 - sin(5.0 * x))
                * exp(sin(5.0 * x)), (-1.0, 4.0)),
}


def piecewise_legendre_forms(name):
    """The CumulativeIntegral of f, and the quintic Hermite interpolant of f
    stacked with its two derivatives; the Hermite samples stop short of
    x = 1, where sqrt(1 - x) has no finite derivative."""
    f, d1, d2, (a, b) = FUNCTIONS[name]
    us = np.linspace(a, 0.999 if name == "sqrt" else b, 97)
    return [CumulativeIntegral(f, a, b),
            PiecewiseLegendre.hermite(us, [[[f(u), d1(u), d2(u)]] for u in us.tolist()])]


def float_rows(poly, us):
    """The float query at each u of the flat list us: one value per u for a
    single form, the list of every form's value per u for a stacked one."""
    return [PiecewiseLegendre.__call__(poly, u) for u in us]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def assert_column_is_the_float_query(poly, us: np.ndarray):
    """One array query at us against the float query at each of its u, bit
    for bit, for each stacked form (a NaN's bits included)."""
    floats = float_rows(poly, us.ravel().tolist())
    column = PiecewiseLegendre.__call__(poly, us)
    k = poly._coefs.shape[1:-1]
    assert column.shape == k + us.shape
    assert bits(np.moveaxis(column.reshape(k + (-1,)), -1, 0)) == bits(floats)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_array_query_equals_the_float_query_bit_for_bit(name):
    rng = np.random.default_rng(20)
    for poly in piecewise_legendre_forms(name):
        a, b = poly.a, poly.b
        pad = 1e-12 * (1.0 + abs(a) + abs(b))
        us = np.concatenate([
            rng.uniform(a, b, 20_000), poly._nodes,
            [a, b, a - 0.5 * pad, b + 0.5 * pad, a - pad, b + pad, np.nextafter(a, b)]])
        assert_column_is_the_float_query(poly, us[:, None])
        assert_column_is_the_float_query(poly, us[:100].reshape(10, 10))


def test_array_query_names_the_first_u_outside_the_domain():
    poly = piecewise_legendre_forms("cos")[1]
    us = np.array([[0.5], [3.5], [-1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^u=3\.5 outside the domain \[0\.0, 3\.0\]$"):
        poly(us)
    with pytest.raises(ValueError, match=r"^u=-1\.0 outside the domain \[0\.0, 3\.0\]$"):
        poly(-1.0)


def random_hermite(rng, n: int, k: int):
    """Samples of k random functions at n random increasing u, their jets
    spread over six decades, with whole stretches of +0.0 and -0.0 jets."""
    us = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    jets = rng.normal(size=(n, k, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, k, 3))
    jets[n // 4:n // 2] = 0.0
    jets[n // 2:3 * n // 4] = -0.0
    return us, jets


def query_points(rng, poly) -> np.ndarray:
    """Random u, every node, the ends, NaN, and u inside the clamp pad."""
    a, b = poly.a, poly.b
    pad = 1e-12 * (1.0 + abs(a) + abs(b))
    return np.concatenate([rng.uniform(a, b, 2_000), poly._nodes, [
        a, b, math.nan, a - 0.5 * pad, b + 0.5 * pad, np.nextafter(a, b),
        np.nextafter(b, a)]])


@pytest.mark.parametrize("seed", range(8))
def test_stacked_hermite_forms_column_is_the_float_query(seed):
    rng = np.random.default_rng(seed)
    us, jets = random_hermite(rng, int(rng.integers(2, 60)), int(rng.integers(1, 4)))
    poly = PiecewiseLegendre.hermite(us, jets)
    assert poly._coefs.shape == (len(us) - 1, 3 * jets.shape[1], 6)
    points = query_points(rng, poly)
    assert_column_is_the_float_query(poly, points[:, None])
    assert_column_is_the_float_query(poly, points[:36].reshape(6, 6))
    for u in points[:5].tolist() + [math.nan]:  # a 0-d array is a column of one u
        assert_column_is_the_float_query(poly, np.array(u))


@pytest.mark.parametrize("n", [2, 3, 17])
def test_stacked_hermite_forms_are_each_functions_own_fit(n):
    # fitting k functions together rounds as fitting each alone, one panel
    # (n = 2) included
    rng = np.random.default_rng(n)
    for _ in range(50):
        us, jets = random_hermite(rng, n, 3)
        stacked = PiecewiseLegendre.hermite(us, jets)._coefs
        for c in range(3):
            alone = PiecewiseLegendre.hermite(us, jets[:, c:c + 1])._coefs
            assert bits(stacked[:, 3 * c:3 * c + 3]) == bits(alone)


@pytest.mark.parametrize("seed", range(8))
def test_zero_padding_moves_no_value(seed):
    # each derivative form of a stacked Hermite curve is padded with zero
    # coefficients to degree 5: against the unpadded form, the padded
    # Clenshaw sum may differ only in the sign of an exact zero, and the
    # +0.0 offset then makes every value equal bit for bit; coefficients
    # that are exactly +0.0 or -0.0 are where that sign can differ
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 40))
    nodes = np.cumsum(rng.uniform(0.01, 1.0, n + 1))
    coefs = rng.normal(size=(n, 3, 6)) * 10.0 ** rng.integers(-3, 4, size=(n, 3, 6))
    coefs[rng.random(coefs.shape) < 0.4] = 0.0
    coefs[rng.random(coefs.shape) < 0.3] = -0.0
    for m in (1, 2):
        coefs[:, m, 6 - m:] = 0.0
    # panel 0 holds the constant -0.0, whose Clenshaw sum is -0.0 where
    # x < 0: the +0.0 offset makes it +0.0 on both paths
    coefs[0] = 0.0
    coefs[0, :, 0] = -0.0
    stacked = PiecewiseLegendre(nodes, np.zeros((n, 3)), coefs)
    points = query_points(rng, stacked)
    assert_column_is_the_float_query(stacked, points[:, None])
    stacked_floats = float_rows(stacked, points.tolist())
    for m in range(3):
        alone = PiecewiseLegendre(nodes, np.zeros(n), coefs[:, m, :6 - m])
        assert bits(float_rows(alone, points.tolist())) == bits(
            [row[m] for row in stacked_floats])
        assert bits(alone(points)) == bits(stacked(points)[m])


def test_an_overflowing_derivative_coefficient_is_inf_without_a_warning():
    # a jump of 1 across a panel of width 1e-160: the second derivative's
    # coefficients, ~1 / width^2, pass the float range
    us = np.array([0.0, 1e-160, 1.0, 2.0])
    jets = np.array([[[1.0, 2.0, 3.0]], [[2.0, 2.0, 3.0]], [[2.0, -1.0, 0.5]],
                     [[0.5, 0.0, -4.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = PiecewiseLegendre.hermite(us, jets)
        assert np.isinf(poly._coefs[0, 2]).any()
        assert np.isfinite(poly._coefs[1:]).all()
        points = np.array([0.0, 0.5e-160, 1e-160, 0.5, 1.0, 2.0, math.nan])
        assert_column_is_the_float_query(poly, points[:, None])
        assert_column_is_the_float_query(poly, points.reshape(7, 1, 1))


def test_stacked_queries_clamp_within_the_pad_and_raise_past_it():
    us, jets = random_hermite(np.random.default_rng(3), 12, 2)
    poly = PiecewiseLegendre.hermite(us, jets)
    a, b = poly.a, poly.b
    pad = 1e-12 * (1.0 + abs(a) + abs(b))
    assert bits(poly(a - 0.5 * pad)) == bits(poly(a))
    assert bits(poly(np.array([b + 0.5 * pad]))) == bits(poly(np.array([b])))
    for u in (a - 2.0 * pad, b + 2.0 * pad):
        message = rf"^u={re.escape(repr(u))} outside the domain \[{re.escape(repr(a))}, "
        with pytest.raises(ValueError, match=message):
            poly(u)
        with pytest.raises(ValueError, match=message):
            poly(np.array([[a], [u]]))


#: integrands of one stacked build on [0, 1]: cos, exp and sqrt(1 - x)
STACKED = (cos, exp, lambda x: sqrt(1.0 - x))


def stacked_integrand(x):
    return tuple(f(x) for f in STACKED)


def test_gauss15_sums_each_row_alone():
    for a, b in ((0.0, 1.0), (0.2, 0.9), (0.5, 0.75)):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rows = [[f(mid + half * x) for x in GL_NODES] for f in STACKED]
        assert bits(gauss15(rows, half)) == bits([gauss15([row], half)[0] for row in rows])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_one_entry_tuple_build_is_the_float_build(name):
    f, _, _, (a, b) = FUNCTIONS[name]
    alone = CumulativeIntegral(f, a, b)
    boxed = CumulativeIntegral(lambda x: (f(x),), a, b)
    assert boxed._nodes == alone._nodes
    assert bits(boxed._coefs[:, 0]) == bits(alone._coefs)
    assert bits(boxed._shifts[:, 0]) == bits(alone._shifts)
    assert bits(boxed.total) == bits([alone.total])
    us = query_points(np.random.default_rng(5), alone)
    assert bits([boxed(u) for u in us.tolist()]) == bits([[alone(u)] for u in us.tolist()])
    assert bits(boxed(us)) == bits(alone(us))


def test_stacked_build_queries_each_form():
    cum = CumulativeIntegral(stacked_integrand, 0.0, 1.0)
    us = query_points(np.random.default_rng(6), cum)
    column = cum(us[:, None])
    assert column.shape == (3, len(us), 1)
    # the ends are exact in both kinds of query, and the clamp pads and NaN
    # are the float query's value entry by entry
    assert bits(column[:, :, 0].T) == bits([cum(u) for u in us.tolist()])
    assert bits(cum(0.0)) == bits([0.0] * 3) and bits(cum(1.0)) == bits(cum.total)
    assert bits(cum(np.array([1.0, 0.0]))) == bits([[t, 0.0] for t in cum.total])
    # each form as exact as its own float build (the tests above)
    sin, _, _ = cum(us[:2_000])
    assert np.abs(sin - np.sin(us[:2_000])).max() <= 1e-15
    assert abs(cum.total[1] - (math.e - 1.0)) <= 1e-15
    assert abs(cum.total[2] - 2.0 / 3.0) <= 1e-15


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
