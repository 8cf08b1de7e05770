"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the assertions carry the stated tolerances either way.
"""

import math
import time

import pytest

from cmcsurf.builders import (
    RotationType,
    build_surface,
    elliptic_frame,
    elliptic_weingarten,
    h2_closed,
    hyperbolic_frame,
    hyperplane_degeneracy,
)
from cmcsurf.cli import main as cli_main
from cmcsurf.generator import CmcParams, generate
from cmcsurf.geometry import Vec4
from cmcsurf.profiles import ProfileFunction
from cmcsurf.quadrature import QuadratureConfig
from cmcsurf.surfaces import (
    fd_oracle,
    mean_curvature,
    normal_frame_numeric,
    second_fundamental_form,
)
from cmcsurf.validation import (
    check_arclength,
    check_frames,
    compare_special_case,
    generate_and_validate,
    shrunk_grid,
)

from analytic_curves import (
    ALL_CURVES,
    ELLIPTIC_CURVES,
    HYPERBOLIC_CURVES,
    elliptic_circle,
    elliptic_cosh,
    elliptic_straight,
)
from dsl_random import run_randomized_cases

CONFIG = QuadratureConfig()


def _report(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


# --- criterion 1: closed form vs oracle -------------------------------------------

def test_criterion_1_closed_vs_oracle_runtime():
    started = time.perf_counter()
    names = [name for name, _ in ALL_CURVES]
    assert sum(1 for n in names if n.startswith("elliptic")) >= 5
    assert sum(1 for n in names if n.startswith("hyperbolic")) >= 5
    assert sum(1 for n in names if n.startswith("parabolic")) >= 5
    assert "elliptic:circle-r1" in names and "elliptic:circle-r2" in names

    worst_analytic = 0.0
    worst_fd = 0.0
    for name, curve in ALL_CURVES:
        patch = build_surface(curve)
        oracle = fd_oracle(patch, h=1e-4)
        grid = shrunk_grid(curve, 41, 41, patch.v_domain)
        for u in grid.u_values():
            closed = h2_closed(curve, u)
            for v in grid.v_values():
                kernel = mean_curvature(patch, u, v).h2
                fd = mean_curvature(oracle, u, v).h2
                scale = 1.0 + abs(closed)
                worst_analytic = max(worst_analytic, abs(closed - kernel) / scale)
                worst_fd = max(worst_fd, abs(closed - fd) / scale)
    elapsed = time.perf_counter() - started
    assert worst_analytic <= 1e-6
    assert worst_fd <= 1e-4
    assert elapsed < 5.0
    _report(1, f"closed vs oracle on {len(ALL_CURVES)} curves x 41x41: "
               f"analytic {worst_analytic:.2e}, fd {worst_fd:.2e}, {elapsed:.2f}s")


# --- criterion 2: CMC round trip ----------------------------------------------------

ROUND_TRIP_PROFILES = {
    RotationType.ELLIPTIC: [
        ("2", None, (0.0, 6.28), None),
        ("1+u/2", None, (0.0, 3.0), None),
        ("sqrt(-u^2+2*a*u+b)", {"a": 1.0, "b": 0.0}, (0.2, 1.8), None),
    ],
    # hyperbolic: the case flag follows the profile slope; windows are kept
    # short enough that cosh(phi) stays moderate, else the C = 1 surfaces
    # grow exponentially and drown the finite-difference stencils
    RotationType.HYPERBOLIC_A: [
        ("2", None, (0.0, 2.0), RotationType.HYPERBOLIC_B),
        ("2*u", None, (0.5, 2.5), RotationType.HYPERBOLIC_A),
        ("sqrt(u^2+2*a*u+b)", {"a": 2.0, "b": 1.0}, (0.3, 1.8),
         RotationType.HYPERBOLIC_A),
    ],
    RotationType.PARABOLIC: [
        ("2", None, (0.5, 2.0), None),       # f' = 0: always infeasible
        ("u", None, (0.5, 2.0), None),
        ("u^2", None, (0.5, 1.8), None),
        ("sqrt(2*a*u+b)", {"a": 1.0, "b": 0.0}, (0.3, 2.0), None),
    ],
}


@pytest.fixture(scope="module")
def round_trip_results():
    results = []
    for family, profiles in ROUND_TRIP_PROFILES.items():
        for text, consts, interval, case in profiles:
            profile = ProfileFunction.from_text(text, interval, consts)
            rotation = case if case is not None else family
            for C in (0.1, 0.5, 1.0):
                for h_sign in (1, -1):
                    for eta in (1, -1):
                        params = CmcParams(C=C, h_sign=h_sign, eta=eta)
                        curve, report, validity = generate_and_validate(
                            rotation, profile, params, interval, CONFIG,
                            surface_id=f"{rotation.value}:{text}")
                        results.append((rotation, text, params, report, validity))
    return results


def test_criterion_2_cmc_round_trip(round_trip_results):
    feasible = {r: 0 for r in RotationType}
    infeasible = 0
    for rotation, text, params, report, validity in round_trip_results:
        if report is None:
            assert validity == [] or all(
                hi - lo < 1e-2 for lo, hi in validity), (
                f"{rotation} {text} {params}: no report despite validity {validity}")
            infeasible += 1
            continue
        feasible[rotation] += 1
        assert report.max_cmc_residual <= 1e-6, (rotation, text, params)
        assert report.max_cmc_residual_fd <= 1e-4, (rotation, text, params)
        assert report.flagged_points == [], (rotation, text, params)
    assert feasible[RotationType.ELLIPTIC] >= 8
    assert feasible[RotationType.HYPERBOLIC_A] + feasible[RotationType.HYPERBOLIC_B] >= 8
    assert feasible[RotationType.PARABOLIC] >= 8
    # the constant parabolic profile (f' = 0) must be infeasible for every
    # parameter set, reported as empty validity rather than a spurious curve
    for rotation, text, params, report, validity in round_trip_results:
        if rotation is RotationType.PARABOLIC and text == "2":
            assert report is None and validity == []
    total = sum(feasible.values())
    _report(2, f"{total} feasible parameter sets <= 1e-6 (analytic) / 1e-4 (fd); "
               f"{infeasible} infeasible sets reported as empty validity")


# --- criterion 3: quasi-minimal boundary ---------------------------------------------

def test_criterion_3_quasi_minimal_circle():
    curve = elliptic_circle(1.0)
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 41, 41, patch.v_domain)
    worst = max(abs(mean_curvature(patch, u, v).h2)
                for u in grid.u_values() for v in grid.v_values())
    assert worst <= 1e-8
    _report(3, f"r=1 circle surface has |<H,H>| <= {worst:.2e} on 41x41")


# --- criterion 4: arc-length identities ----------------------------------------------

def test_criterion_4_arclength_identities():
    elliptic = generate(RotationType.ELLIPTIC,
                        ProfileFunction.from_text("1+u/2", (0.0, 3.0)),
                        CmcParams(C=0.5), CONFIG, (0.0, 3.0))
    hyperbolic = generate(RotationType.HYPERBOLIC_A,
                          ProfileFunction.from_text("2*u", (0.5, 2.5)),
                          CmcParams(C=0.5), CONFIG, (0.5, 2.5))
    parabolic = generate(RotationType.PARABOLIC,
                         ProfileFunction.from_text("u", (0.5, 2.0)),
                         CmcParams(C=0.5), CONFIG, (0.5, 2.0))
    res_e = check_arclength(elliptic)
    res_h = check_arclength(hyperbolic)
    res_p = check_arclength(parabolic)
    assert res_e <= 1e-9
    assert res_h <= 1e-9
    assert res_p <= 1e-12
    _report(4, f"arc-length residuals: elliptic {res_e:.2e}, "
               f"hyperbolic {res_h:.2e}, parabolic {res_p:.2e}")


# --- criterion 5: Weingarten and hyperplane degeneracy --------------------------------

def test_criterion_5_degenerate_normal_and_weingarten():
    straight = elliptic_straight()
    assert hyperplane_degeneracy(straight).degenerate
    patch = build_surface(straight)
    grid = shrunk_grid(straight, 41, 41, patch.v_domain)
    base = None
    worst_const = 0.0
    for u in grid.u_values():
        for v in grid.v_values():
            n1, _, _, _ = normal_frame_numeric(patch, u, v)
            if base is None:
                base = n1
            worst_const = max(worst_const,
                              max(abs(a - b) for a, b in zip(n1, base)))
    assert worst_const <= 1e-8

    # the four derivative expansions match FD directional derivatives
    worst_wein = 0.0
    step = 1e-5
    for name, curve in [("straight", straight), ELLIPTIC_CURVES[1],
                        ("cosh", elliptic_cosh())]:
        lo, hi = curve.domain
        for k in range(3):
            u = lo + (hi - lo) * (k + 1) / 5
            v = 0.4 + 1.1 * k
            table = elliptic_weingarten(curve, u)
            fr = elliptic_frame(curve, u, v)
            r = curve.components[2](u).val
            basis = {"X": fr.X, "Y": fr.Y, "n1": fr.n1, "n2": fr.n2}
            for field, coeffs, along in [
                ("n1", table.dX_n1, "u"), ("n2", table.dX_n2, "u"),
                ("n1", table.dY_n1, "v"), ("n2", table.dY_n2, "v"),
            ]:
                if along == "u":
                    plus = getattr(elliptic_frame(curve, u + step, v), field)
                    minus = getattr(elliptic_frame(curve, u - step, v), field)
                    scale = 1.0 / (2.0 * step)
                else:
                    plus = getattr(elliptic_frame(curve, u, v + step), field)
                    minus = getattr(elliptic_frame(curve, u, v - step), field)
                    scale = 1.0 / (2.0 * step * r)
                fd = (plus - minus) * scale
                expected = Vec4(0.0, 0.0, 0.0, 0.0)
                for key, c in coeffs.items():
                    expected = expected + basis[key] * c
                worst_wein = max(worst_wein,
                                 max(abs(a - b) for a, b in zip(fd, expected)))
    assert worst_wein <= 1e-5
    _report(5, f"constant numeric n1 within {worst_const:.2e}; "
               f"derivative table matches FD within {worst_wein:.2e}")


# --- criterion 6: frame tables and sigma(X,Y) ------------------------------------------

def test_criterion_6_frames_and_mixed_sigma():
    worst_table = 0.0
    for name, curve in ELLIPTIC_CURVES:
        patch = build_surface(curve)
        grid = shrunk_grid(curve, 15, 11, patch.v_domain)
        worst, flagged = check_frames(lambda u, v, c=curve: elliptic_frame(c, u, v), grid)
        worst_table = max(worst_table, worst)
        assert flagged == []
    for name, curve in HYPERBOLIC_CURVES:
        patch = build_surface(curve)
        grid = shrunk_grid(curve, 15, 11, patch.v_domain)
        worst, flagged = check_frames(lambda u, v, c=curve: hyperbolic_frame(c, u, v), grid)
        worst_table = max(worst_table, worst)
        assert flagged == []
    assert worst_table <= 1e-12

    worst_sigma = 0.0
    for name, curve in ALL_CURVES:
        patch = build_surface(curve)
        grid = shrunk_grid(curve, 9, 7, patch.v_domain)
        for u in grid.u_values():
            for v in grid.v_values():
                _, sxy, _ = second_fundamental_form(patch, u, v)
                worst_sigma = max(worst_sigma, max(abs(c) for c in sxy))
    assert worst_sigma <= 1e-9
    _report(6, f"frame tables within {worst_table:.2e}; "
               f"sigma(X,Y) within {worst_sigma:.2e} on all patches")


# --- criterion 7: special-case audit ----------------------------------------------------

def test_criterion_7_special_case_audit(round_trip_results):
    params = CmcParams(C=0.5)
    audits = [
        compare_special_case(RotationType.ELLIPTIC,
                             {"a": 1.0, "b": 0.0, "d": 0.0}, params, (0.3, 1.7)),
        compare_special_case(RotationType.HYPERBOLIC_A,
                             {"a": 2.0, "b": 1.0, "d": 0.0}, params, (0.5, 2.0)),
        compare_special_case(RotationType.HYPERBOLIC_B,
                             {"a": 1.0, "b": 2.0, "d": 0.0}, params, (0.5, 2.0)),
        compare_special_case(RotationType.PARABOLIC,
                             {"a": 1.0, "b": 0.0, "A": 0.3, "B": 1.0},
                             params, (0.5, 2.0)),
    ]
    for audit in audits:
        assert audit.verdict in ("consistent", "probable-misprint")
        assert math.isfinite(audit.max_discrepancy)

    # the quadrature path must satisfy criterion 2 on the special profiles
    # regardless of the audit verdicts
    special_texts = {"sqrt(-u^2+2*a*u+b)", "sqrt(u^2+2*a*u+b)", "sqrt(2*a*u+b)"}
    seen = set()
    for rotation, text, params_used, report, validity in round_trip_results:
        if text in special_texts and report is not None:
            assert report.max_cmc_residual <= 1e-6
            seen.add(text)
    assert seen == special_texts
    verdicts = {a.rotation: a.verdict for a in audits}
    _report(7, f"verdicts: {verdicts}")


# --- criterion 8: negative control -------------------------------------------------------

def test_criterion_8_negative_control(capsys):
    profile = ProfileFunction.from_text("2", (0.0, 6.28))
    params = CmcParams(C=0.25)
    _, report, _ = generate_and_validate(
        RotationType.ELLIPTIC, profile, params, (0.0, 6.28), CONFIG,
        nu=15, nv=11, phi_scale=1.01)
    assert report is not None
    assert report.max_cmc_residual > 100.0 * 1e-6
    code = cli_main(["validate", "--type", "elliptic", "--profile", "2",
                     "--C", "0.25", "--interval", "0:6.28", "--grid", "11x9",
                     "--perturb-phi", "1.01"])
    capsys.readouterr()
    assert code == 1
    _report(8, f"1% phi perturbation raises the residual to "
               f"{report.max_cmc_residual:.2e} (>100x tolerance) and exits 1")


# --- criterion 9: parser and jets ----------------------------------------------------------

def test_criterion_9_jets_vs_central_differences():
    cases, worst1, worst2 = run_randomized_cases(1000, seed=20240817)
    assert cases == 1000
    assert worst1 <= 1e-6 and worst2 <= 1e-6
    _report(9, f"1000 randomized (expr, u) cases: worst d1 ratio {worst1:.2e}, "
               f"worst d2 ratio {worst2:.2e}")
