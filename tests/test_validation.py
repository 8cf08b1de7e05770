import json
import math
import re

import pytest
import sympy

from cmcsurf.builders import SPECS, GeneratingCurve, RotationType, build_surface, phi_integrand
from cmcsurf.generator import CmcParams, generate
from cmcsurf.profiles import Jet2, ProfileFunction
from cmcsurf.quadrature import CumulativeIntegral, QuadratureConfig
from cmcsurf.validation import (
    Tolerances,
    check_arclength,
    check_cmc,
    check_frames,
    compare_special_case,
    frame_residual,
    generate_and_validate,
    shrunk_grid,
    validate_surface,
)
from cmcsurf.builders import elliptic_frame, hyperbolic_frame
from cmcsurf.errors import InvariantViolationError
from cmcsurf.surfaces import frame_numeric

from analytic_curves import (
    ELLIPTIC_CURVES,
    HYPERBOLIC_CURVES,
    const_fn,
    elliptic_circle,
    jet_fn,
    nan_slope_at,
    non_arclength_curve,
)

CONFIG = QuadratureConfig()


def cmc_curve_elliptic(C=0.25, h_sign=1, interval=(0.0, 6.28)):
    prof = ProfileFunction.from_text("2", interval)
    return generate(RotationType.ELLIPTIC, prof, CmcParams(C=C, h_sign=h_sign), CONFIG, interval)


def non_cmc_curve():
    """r = 2 + sin u with a straight x-profile: arc-length but not CMC."""
    def x1_d1(u):
        return math.sqrt(1.0 + math.cos(u) ** 2)

    cum = CumulativeIntegral(x1_d1, 0.0, 6.0)
    return GeneratingCurve(
        RotationType.ELLIPTIC,
        (lambda u: Jet2(cum(u), x1_d1(u),
                        -math.cos(u) * math.sin(u) / x1_d1(u)),
         const_fn(0.0),
         jet_fn(lambda u: 2.0 + math.sin(u), math.cos,
                lambda u: -math.sin(u))),
        (0.0, 6.0),
    )


# --- check_cmc -----------------------------------------------------------------

def test_check_cmc_on_generator_output():
    curve = cmc_curve_elliptic()
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 15, 9, patch.v_domain)
    out = check_cmc(patch, 1.0 / 16.0, grid)
    assert out.max_analytic <= 1e-6
    assert out.max_fd <= 1e-4
    assert out.flagged == []


def test_check_cmc_quasi_minimal_circle():
    curve = elliptic_circle(1.0)
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 11, 9, patch.v_domain)
    out = check_cmc(patch, 0.0, grid)
    assert out.max_analytic <= 1e-8


def test_check_cmc_negative_control_fails():
    curve = non_cmc_curve()
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 11, 7, patch.v_domain)
    out = check_cmc(patch, -0.02, grid)  # no constant fits: h2 varies
    assert out.max_analytic > 1e-2  # >> 1e-6 tolerance


def test_perturbed_phi_negative_control():
    prof = ProfileFunction.from_text("2", (0.0, 6.28))
    good = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.25), CONFIG, (0.0, 6.28))
    bad = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.25), CONFIG, (0.0, 6.28),
                   phi_scale=1.01)
    target = 1.0 / 16.0
    patch_good = build_surface(good)
    patch_bad = build_surface(bad)
    grid = shrunk_grid(good, 9, 7, patch_good.v_domain)
    assert check_cmc(patch_good, target, grid).max_analytic <= 1e-6
    residual = check_cmc(patch_bad, target, grid).max_analytic
    assert residual > 100.0 * 1e-6
    # the perturbation must not break arc-length
    assert check_arclength(bad) <= 1e-9


# --- arc-length ------------------------------------------------------------------

def test_check_arclength_theorem_outputs():
    assert check_arclength(cmc_curve_elliptic()) <= 1e-9
    prof = ProfileFunction.from_text("u", (0.5, 2.0))
    para = generate(RotationType.PARABOLIC, prof, CmcParams(C=0.5), CONFIG, (0.5, 2.0))
    assert check_arclength(para) <= 1e-12


def test_check_arclength_bad_curve():
    assert check_arclength(non_arclength_curve()) == pytest.approx(3.0)


@pytest.mark.parametrize("k", [0, 1])
def test_a_nan_arclength_residual_raises_naming_its_u(k):
    # outside build_surface's subset; a maximum of the list kept the NaN at
    # sample 0 (a NaN in the report) and dropped it at sample 1
    curve, u_nan = nan_slope_at(elliptic_circle(2.0), k)
    with pytest.raises(InvariantViolationError, match=re.escape(f"nan at u={u_nan!r}")):
        validate_surface(curve, 3.0 / 16.0, nu=9, nv=7)


# --- frames -----------------------------------------------------------------------

def test_check_frames_closed_elliptic():
    name, curve = ELLIPTIC_CURVES[2]
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 9, 9, patch.v_domain)
    worst, flagged = check_frames(lambda u, v: elliptic_frame(curve, u, v), grid)
    assert worst <= 1e-12
    assert flagged == []


def test_check_frames_closed_hyperbolic():
    for name, curve in (HYPERBOLIC_CURVES[0], HYPERBOLIC_CURVES[3]):
        patch = build_surface(curve)
        grid = shrunk_grid(curve, 9, 9, patch.v_domain)
        worst, _ = check_frames(lambda u, v: hyperbolic_frame(curve, u, v), grid)
        assert worst <= 1e-12


def test_check_frames_numeric():
    name, curve = ELLIPTIC_CURVES[3]
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 9, 9, patch.v_domain)
    worst, flagged = check_frames(lambda u, v: frame_numeric(patch, u, v), grid)
    assert worst <= 1e-10
    assert flagged == []


def test_frame_residual_flags_broken_table():
    fr = elliptic_frame(ELLIPTIC_CURVES[0][1], 0.5, 0.5)
    assert frame_residual(fr) <= 1e-12
    broken = type(fr)(fr.X, fr.Y, fr.n1 * 1.001, fr.n2, fr.eps1, fr.eps2)
    assert frame_residual(broken) > 1e-4


# --- reports -----------------------------------------------------------------------

def test_validate_surface_passes_on_cmc_output():
    curve = cmc_curve_elliptic()
    report = validate_surface(curve, 1.0 / 16.0, "elliptic:2", nu=11, nv=9)
    assert report.passed()
    assert not report.degenerate
    assert report.max_arclength_residual <= 1e-9
    assert report.max_closed_vs_oracle <= 1e-6


def test_validate_surface_fails_on_perturbation():
    prof = ProfileFunction.from_text("2", (0.0, 6.28))
    bad = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.25), CONFIG, (0.0, 6.28),
                   phi_scale=1.01)
    report = validate_surface(bad, 1.0 / 16.0, nu=9, nv=7)
    assert not report.passed()
    assert report.max_cmc_residual > 100.0 * Tolerances().cmc_analytic


def test_report_json_is_reproducible_and_stable():
    curve = cmc_curve_elliptic(interval=(0.0, 3.0))
    a = validate_surface(curve, 1.0 / 16.0, "x", nu=7, nv=7).to_json()
    curve2 = cmc_curve_elliptic(interval=(0.0, 3.0))
    b = validate_surface(curve2, 1.0 / 16.0, "x", nu=7, nv=7).to_json()
    assert a == b  # bit-identical for identical inputs
    payload = json.loads(a)
    assert list(payload) == sorted(payload)
    expected_keys = {
        "surface_id", "grid", "target_h2", "max_cmc_residual",
        "max_cmc_residual_fd", "max_arclength_residual", "max_frame_residual",
        "max_closed_vs_oracle", "degenerate", "flagged_points",
    }
    assert set(payload) == expected_keys


def test_generate_and_validate_empty_validity():
    prof = ProfileFunction.from_text("1", (0.0, 2.0))
    curve, report, validity = generate_and_validate(
        RotationType.ELLIPTIC, prof, CmcParams(C=1.0, h_sign=-1), (0.0, 2.0))
    assert curve is None and report is None
    assert validity == []


def test_generate_and_validate_full_run():
    prof = ProfileFunction.from_text("u", (0.5, 2.0))
    curve, report, validity = generate_and_validate(
        RotationType.PARABOLIC, prof, CmcParams(C=0.5), (0.5, 2.0),
        nu=9, nv=7)
    assert report is not None
    assert report.passed()
    assert validity == [(0.5, 2.0)]


# --- special-case audit ---------------------------------------------------------------

def test_special_case_elliptic_consistent():
    report = compare_special_case(RotationType.ELLIPTIC,
                                  {"a": 1.0, "b": 0.0, "d": 0.0},
                                  CmcParams(C=0.5), (0.3, 1.7))
    assert report.verdict == "consistent"
    assert report.max_discrepancy <= 1e-6
    assert report.h_sign_used == 1


def test_special_case_hyperbolic_a_consistent():
    report = compare_special_case(RotationType.HYPERBOLIC_A,
                                  {"a": 2.0, "b": 1.0, "d": 0.0},
                                  CmcParams(C=0.5), (0.5, 2.0))
    assert report.verdict == "consistent"


def test_special_case_hyperbolic_b_misprint():
    # for a^2 < b (case B) the quoted closed form does not differentiate
    # to the phi-equation; the audit must say so, not paper over it
    report = compare_special_case(RotationType.HYPERBOLIC_B,
                                  {"a": 1.0, "b": 2.0, "d": 0.0},
                                  CmcParams(C=0.5), (0.5, 2.0))
    assert report.verdict == "probable-misprint"
    assert report.max_discrepancy > 1e-2
    assert report.h_sign_used == -1


@pytest.mark.parametrize("rotation,a,b", [(RotationType.HYPERBOLIC_A, 2.0, 1.0),
                                          (RotationType.HYPERBOLIC_B, 1.0, 2.0)])
@pytest.mark.parametrize("eta", [1, -1])
def test_hyperbolic_special_phi_that_solves_the_phi_equation(rotation, a, b, eta):
    # With D = a^2 - b and eps = sign D this closed form differentiates to
    # phi' in both cases; the transcribed SPECS form matches it in case A only.
    u = sympy.Symbol("u")
    C, D = 0.5, a * a - b
    eps = 1 if D > 0 else -1
    R = sympy.sqrt(u**2 + 2 * a * u + b)
    phi = (2 * eta * C * eps / math.sqrt(abs(D))) * (
        (u + a) * R / 2 - D / 2 * sympy.log(u + a + R)) + 0.3
    dphi = sympy.lambdify(u, sympy.diff(phi, u), "math")
    params = CmcParams(C=C, h_sign=SPECS[rotation].special_h_sign, eta=eta)
    prof = ProfileFunction.from_text(SPECS[rotation].special_profile, (0.5, 2.0),
                                     {"a": a, "b": b})
    for k in range(31):
        x = 0.5 + 1.5 * k / 30
        assert dphi(x) == pytest.approx(phi_integrand(-1.0, 0, prof(x), params, x), rel=1e-8)


def test_special_case_parabolic_b1_consistent():
    report = compare_special_case(RotationType.PARABOLIC,
                                  {"a": 1.0, "b": 0.0, "A": 0.4, "B": 1.0},
                                  CmcParams(C=0.5), (0.5, 2.0))
    assert report.verdict == "consistent"


def test_special_case_parabolic_b2_misprint():
    report = compare_special_case(RotationType.PARABOLIC,
                                  {"a": 1.0, "b": 0.0, "A": 0.4, "B": 2.0},
                                  CmcParams(C=0.5), (0.5, 2.0))
    assert report.verdict == "probable-misprint"


@pytest.mark.parametrize("name, value", [("b", math.inf), ("d", math.nan), ("a", -math.inf)])
def test_special_case_rejects_a_constant_that_is_not_finite(name, value):
    # a non-finite constant would print as the non-JSON token Infinity or NaN
    constants = {"a": 1.0, "b": 0.0, "d": 0.0} | {name: value}
    with pytest.raises(ValueError, match="must be finite"):
        compare_special_case(RotationType.ELLIPTIC, constants, CmcParams(C=0.5), (0.3, 1.7))


def test_special_case_report_json():
    report = compare_special_case(RotationType.ELLIPTIC,
                                  {"a": 1.0, "b": 0.0, "d": 0.0},
                                  CmcParams(C=0.5), (0.3, 1.7))
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "consistent"
    assert payload["rotation"] == "elliptic"
