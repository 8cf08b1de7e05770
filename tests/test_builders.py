import math
from dataclasses import replace

import numpy as np
import pytest

from cmcsurf.builders import (
    SPECS,
    GeneratingCurve,
    RotationType,
    build_surface,
    check_samples,
    elliptic_H_closed,
    elliptic_frame,
    elliptic_weingarten,
    h2_closed,
    hyperbolic_H_closed,
    hyperbolic_frame,
    hyperplane_degeneracy,
)
from cmcsurf.errors import InvariantViolationError, NearNullSlopeError
from cmcsurf.generator import CmcParams, generate
from cmcsurf.geometry import XI1, XI2, Vec4, inner
from cmcsurf.io import load_curve, write_curve_csv
from cmcsurf.profiles import ProfileFunction
from cmcsurf.surfaces import first_fundamental_form, mean_curvature
from cmcsurf.validation import validate_surface

from analytic_curves import (
    ELLIPTIC_CURVES,
    HYPERBOLIC_CURVES,
    PARABOLIC_CURVES,
    const_fn,
    counted,
    elliptic_circle,
    elliptic_helix,
    elliptic_straight,
    hyperbolic_linear_a,
    jet_fn,
    linear_fn,
    nan_slope_at,
    non_arclength_curve,
)


def vec_err(a: Vec4, b: Vec4) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def grid(curve, n=7, v_lo=-1.5, v_hi=1.5):
    lo, hi = curve.domain
    for i in range(n):
        u = lo + (hi - lo) * (i + 0.5) / n
        v = v_lo + (v_hi - v_lo) * i / (n - 1)
        yield u, v


# --- patch assembly ------------------------------------------------------------

def test_elliptic_section_reproduces_curve():
    curve = elliptic_circle(2.0)
    patch = build_surface(curve)
    for u in (0.3, 1.7, 4.4):
        x1, x2, r = curve.jets(u)
        jets = patch.jets(u, 0.0)
        assert vec_err(jets.position, Vec4(x1.val, x2.val, r.val, 0.0)) <= 1e-15
        # z_v at v = 0 is (0, 0, 0, r)
        assert vec_err(jets.z_v, Vec4(0.0, 0.0, 0.0, r.val)) <= 1e-15


def test_hyperbolic_section_reproduces_curve():
    name, curve = HYPERBOLIC_CURVES[0]
    patch = build_surface(curve)
    for u in (0.8, 1.5, 2.2):
        r, x2, x4 = curve.jets(u)
        jets = patch.jets(u, 0.0)
        assert vec_err(jets.position, Vec4(r.val, x2.val, 0.0, x4.val)) <= 1e-15


def test_hyperbolic_g_is_v_independent():
    name, curve = HYPERBOLIC_CURVES[1]
    patch = build_surface(curve)
    u = 1.0
    r = curve.components[0](u).val
    for v in (-1.5, 0.0, 0.4, 2.0):
        jets = patch.jets(u, v)
        assert inner(jets.z_v, jets.z_v) == pytest.approx(-r * r, rel=1e-12)


def test_parabolic_section_reproduces_curve():
    name, curve = PARABOLIC_CURVES[0]
    patch = build_surface(curve)
    for u in (0.7, 1.2, 1.8):
        x1, f, g = curve.jets(u)
        expected = (Vec4(x1.val, 0, 0, 0) + XI1 * f.val + XI2 * g.val)
        assert vec_err(patch.jets(u, 0.0).position, expected) <= 1e-15


@pytest.mark.parametrize("name,curve",
                         ELLIPTIC_CURVES + HYPERBOLIC_CURVES + PARABOLIC_CURVES)
def test_patches_are_lorentz_everywhere(name, curve):
    patch = build_surface(curve)
    for u, v in grid(curve):
        form = first_fundamental_form(patch, u, v)
        assert form.det < 0.0


def _stacked(vec) -> np.ndarray:
    """A Vec4 of floats, or of broadcast grid entries, as one array."""
    return np.array(np.broadcast_arrays(*vec))


@pytest.mark.parametrize("at", ["float", "grid"])
@pytest.mark.parametrize("rotation", list(RotationType), ids=lambda r: r.value)
def test_v_derivatives_are_those_of_the_position(rotation, at):
    # central differences of the spec's position in v, independent of the
    # patch assembly; the curve values need not come from a curve
    spec, h = SPECS[rotation], 1e-3
    values, vs = (0.7, -1.3, 1.9), [-1.5, -0.4, 0.0, 0.9, 1.5]
    if at == "grid":  # the values as a u column, v as a row
        values, vs = tuple(np.array([[x], [2.0 * x]]) for x in values), [np.array([vs])]
    for v in vs:
        below, mid, above = (_stacked(spec.position(*values, v + dt)) for dt in (-h, 0.0, h))
        dv = _stacked(spec.position_v(*values, v))
        dvv = _stacked(spec.position_vv(*values, v))
        assert np.max(np.abs(dv - (above - below) / (2.0 * h))) <= 1e-5
        assert np.max(np.abs(dvv - (above - 2.0 * mid + below) / (h * h))) <= 1e-5


def test_arclength_violation_rejected():
    with pytest.raises(InvariantViolationError):
        build_surface(non_arclength_curve())


@pytest.mark.parametrize("u", [0.5, check_samples((0.0, 1.0))], ids=["float", "column"])
def test_an_overflowing_arclength_expression_is_an_invariant_violation(u):
    # (1e160)^2 passes the float range, where libm's pow raises OverflowError
    curve = GeneratingCurve(RotationType.ELLIPTIC,
                            (linear_fn(1e160), const_fn(0.0), const_fn(1.0)), (0.0, 1.0))
    with pytest.raises(InvariantViolationError,
                       match=r"^arc-length expression overflows on \(0\.0, 1\.0\)$"):
        curve.arclength_residual(u)


def test_nonpositive_profile_rejected():
    curve = GeneratingCurve(
        RotationType.ELLIPTIC,
        (jet_fn(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
         jet_fn(math.sin, math.cos, lambda u: -math.sin(u)),
         const_fn(-1.0)),
        (0.0, 3.0))
    with pytest.raises(InvariantViolationError):
        build_surface(curve)


def test_near_null_slope_rejected():
    curve = hyperbolic_linear_a(1.0 + 1e-7, 0.5, 1.0, (0.5, 1.5))
    with pytest.raises(NearNullSlopeError):
        build_surface(curve)


def test_case_tag_mismatch_rejected():
    good = hyperbolic_linear_a(2.0, 0.0, 1.0, (0.5, 1.5))
    relabeled = GeneratingCurve(RotationType.HYPERBOLIC_B, good.components,
                                good.domain)
    with pytest.raises(InvariantViolationError):
        build_surface(relabeled)


def test_parabolic_ff_zero_rejected():
    curve = GeneratingCurve(
        RotationType.PARABOLIC,
        (linear_fn(1.0), const_fn(2.0), linear_fn(0.0)),  # f' = 0
        (0.5, 1.5))
    with pytest.raises(InvariantViolationError):
        build_surface(curve)


# --- closed-form frames ----------------------------------------------------------

@pytest.mark.parametrize("name,curve", ELLIPTIC_CURVES)
def test_elliptic_frame_table(name, curve):
    patch = build_surface(curve)
    for u, v in grid(curve, v_lo=0.2, v_hi=6.0):
        fr = elliptic_frame(curve, u, v)
        jets = patch.jets(u, v)
        assert inner(fr.n1, fr.n1) == pytest.approx(1.0, abs=1e-12)
        assert inner(fr.n2, fr.n2) == pytest.approx(-1.0, abs=1e-12)
        assert abs(inner(fr.n1, fr.n2)) <= 1e-12
        for n in (fr.n1, fr.n2):
            assert abs(inner(n, jets.z_u)) <= 1e-12
            assert abs(inner(n, jets.z_v)) <= 1e-12


@pytest.mark.parametrize("name,curve", HYPERBOLIC_CURVES)
def test_hyperbolic_frame_table(name, curve):
    patch = build_surface(curve)
    eps = 1 if curve.rotation is RotationType.HYPERBOLIC_A else -1
    for u, v in grid(curve):
        fr = hyperbolic_frame(curve, u, v)
        jets = patch.jets(u, v)
        assert fr.eps1 == eps
        assert inner(fr.n1, fr.n1) == pytest.approx(eps, abs=1e-12)
        assert inner(fr.n2, fr.n2) == pytest.approx(-eps, abs=1e-12)
        assert abs(inner(fr.n1, fr.n2)) <= 1e-12
        for n in (fr.n1, fr.n2):
            assert abs(inner(n, jets.z_u)) <= 1e-12
            assert abs(inner(n, jets.z_v)) <= 1e-12


# --- closed-form mean curvature ---------------------------------------------------

def test_elliptic_circle_h2_values():
    assert elliptic_H_closed(elliptic_circle(1.0), 0.5).h2 == pytest.approx(0.0, abs=1e-15)
    assert elliptic_H_closed(elliptic_circle(2.0), 0.5).h2 == pytest.approx(3.0 / 16.0)
    # circles of radius r have h2 = (r^2 - 1) / (4 r^2)
    for radius in (0.5, 1.5, 3.0):
        expected = (radius**2 - 1.0) / (4.0 * radius**2)
        assert elliptic_H_closed(elliptic_circle(radius), 1.2).h2 == pytest.approx(expected)


def test_circle_r1_H_is_lightlike_but_nonzero():
    mc = elliptic_H_closed(elliptic_circle(1.0), 0.5)
    assert mc.h2 == pytest.approx(0.0, abs=1e-15)
    assert max(abs(c) for c in mc.H) > 0.4  # quasi-minimal: H != 0


@pytest.mark.parametrize("name,curve", ELLIPTIC_CURVES)
def test_elliptic_closed_matches_kernel(name, curve):
    patch = build_surface(curve)
    for u, v in grid(curve, v_lo=0.2, v_hi=6.0):
        closed = elliptic_H_closed(curve, u, v)
        kernel = mean_curvature(patch, u, v)
        assert vec_err(closed.H, kernel.H) <= 1e-8
        assert abs(closed.h2 - kernel.h2) <= 1e-8


@pytest.mark.parametrize("name,curve", HYPERBOLIC_CURVES)
def test_hyperbolic_closed_matches_kernel(name, curve):
    patch = build_surface(curve)
    for u, v in grid(curve):
        closed = hyperbolic_H_closed(curve, u, v)
        kernel = mean_curvature(patch, u, v)
        assert vec_err(closed.H, kernel.H) <= 1e-8
        assert abs(closed.h2 - kernel.h2) <= 1e-8


@pytest.mark.parametrize("name,curve", PARABOLIC_CURVES)
def test_parabolic_closed_matches_kernel(name, curve):
    patch = build_surface(curve)
    for u, v in grid(curve):
        closed = h2_closed(curve, u)
        assert abs(closed - mean_curvature(patch, u, v).h2) <= 1e-8


def test_parabolic_poly_h2_value():
    # f = u, phi = k*u gives h2 = (k^2 u^2 - 1)/(4 u^2)
    for k, name_curve in ((2.0, PARABOLIC_CURVES[0]), (1.0, PARABOLIC_CURVES[1])):
        for u in (1.0, 1.3):
            expected = (k * k * u * u - 1.0) / (4.0 * u * u)
            assert h2_closed(name_curve[1], u) == pytest.approx(expected)


def test_parabolic_pure_n2_case_sign():
    # x1''f' - x1'f'' == 0 with q = f f'' + (f')^2 != 0:
    # h2 = -q^2 / (4 f^2 f'^2) < 0
    curve = GeneratingCurve(
        RotationType.PARABOLIC,
        (linear_fn(1.0),        # x1 = u, so x1'' = 0
         linear_fn(2.0),        # f = 2u, so f'' = 0: twist vanishes
         const_fn(0.0)),        # g' = (1 - 1)/(2 f') = 0
        (0.5, 1.5))
    u = 0.9
    value = h2_closed(curve, u)
    assert value == pytest.approx(-1.0 / (4.0 * u * u))
    assert value < 0.0


def test_hyperbolic_zero_twist_H_parallel_n2():
    phi0 = 0.3
    curve = GeneratingCurve(
        RotationType.HYPERBOLIC_B,
        (const_fn(2.0),
         linear_fn(math.cosh(phi0)),
         linear_fn(math.sinh(phi0))),
        (0.0, 2.0))
    mc = hyperbolic_H_closed(curve, 1.0, 0.7)
    fr = hyperbolic_frame(curve, 1.0, 0.7)
    # no n1 component
    assert abs(inner(mc.H, fr.n1)) <= 1e-14


# --- Weingarten table -------------------------------------------------------------

@pytest.mark.parametrize("name,curve", [ELLIPTIC_CURVES[1], ELLIPTIC_CURVES[3]])
def test_weingarten_against_directional_fd(name, curve):
    lo, hi = curve.domain
    step = 1e-5
    for k in range(3):
        u = lo + (hi - lo) * (k + 1) / 5
        v = 0.7 + k
        table = elliptic_weingarten(curve, u)
        fr = elliptic_frame(curve, u, v)
        r = curve.components[2](u).val
        basis = {"X": fr.X, "Y": fr.Y, "n1": fr.n1, "n2": fr.n2}

        def expand(coeffs):
            out = Vec4(0, 0, 0, 0)
            for key, c in coeffs.items():
                out = out + basis[key] * c
            return out

        for field, coeffs, along in [
            ("n1", table.dX_n1, "u"), ("n2", table.dX_n2, "u"),
            ("n1", table.dY_n1, "v"), ("n2", table.dY_n2, "v"),
        ]:
            if along == "u":
                plus = getattr(elliptic_frame(curve, u + step, v), field)
                minus = getattr(elliptic_frame(curve, u - step, v), field)
                fd = (plus - minus) * (1.0 / (2 * step))
            else:
                plus = getattr(elliptic_frame(curve, u, v + step), field)
                minus = getattr(elliptic_frame(curve, u, v - step), field)
                # d/dv along Y needs the 1/r scaling (Y = z_v / r)
                fd = (plus - minus) * (1.0 / (2 * step * r))
            assert vec_err(fd, expand(coeffs)) <= 1e-5


def test_weingarten_y_derivatives():
    curve = ELLIPTIC_CURVES[2][1]
    table = elliptic_weingarten(curve, 1.0)
    assert table.dY_n1 == {"X": 0.0, "Y": 0.0, "n1": 0.0, "n2": 0.0}
    r = curve.components[2](1.0)
    w = math.sqrt(1.0 + r.d1**2)
    assert table.dY_n2["Y"] == pytest.approx(w / r.val)
    assert table.dY_n2["X"] == 0.0


# --- degeneracy -------------------------------------------------------------------

def test_straight_profile_degenerate():
    curve = elliptic_straight()
    report = hyperplane_degeneracy(curve)
    assert report.degenerate
    assert report.hyperplane == "span{X, Y, n2}"
    assert report.max_twist <= 1e-15
    # the closed-form n1 really is constant
    base = elliptic_frame(curve, 0.5, 0.5).n1
    worst = max(
        vec_err(elliptic_frame(curve, u, v).n1, base)
        for u, v in grid(curve, v_lo=0.0, v_hi=6.0))
    assert worst <= 1e-12


@pytest.mark.parametrize("k", [0, 1])
def test_a_nan_twist_is_never_degenerate(k):
    # a maximum of the list kept the NaN at sample 0 and dropped it at sample
    # 1, where the straight profile was then reported degenerate
    curve, _ = nan_slope_at(elliptic_straight(), k)
    report = hyperplane_degeneracy(curve)
    assert math.isnan(report.max_twist)
    assert not report.degenerate and report.hyperplane is None


def test_circle_not_degenerate():
    report = hyperplane_degeneracy(elliptic_circle(2.0))
    assert not report.degenerate
    assert report.hyperplane is None
    assert report.max_twist == pytest.approx(1.0, rel=1e-12)


def test_h2_closed_dispatch():
    assert h2_closed(elliptic_circle(2.0), 1.0) == pytest.approx(3.0 / 16.0)
    name, hyp = HYPERBOLIC_CURVES[0]
    assert h2_closed(hyp, 1.0) == pytest.approx(
        mean_curvature(build_surface(hyp), 1.0, 0.0).h2, abs=1e-8)
    name, par = PARABOLIC_CURVES[0]
    assert h2_closed(par, 1.0) == pytest.approx(3.0 / 4.0)  # f = u, phi = 2u


def test_h2_closed_rejects_nonpositive_radius():
    # r = u reaches 0 at u = 0 and is negative before it
    curve = GeneratingCurve(RotationType.ELLIPTIC,
                            (const_fn(0.0), linear_fn(1.0), linear_fn(1.0)), (-1.0, 1.0))
    for u in (0.0, -0.5):
        with pytest.raises(InvariantViolationError):
            h2_closed(curve, u)


def test_hyperbolic_and_parabolic_degeneracy_detection():
    phi0 = 0.4
    hyp = GeneratingCurve(
        RotationType.HYPERBOLIC_B,
        (const_fn(1.5), linear_fn(math.cosh(phi0)), linear_fn(math.sinh(phi0))),
        (0.0, 2.0))
    assert hyperplane_degeneracy(hyp).degenerate
    par = GeneratingCurve(
        RotationType.PARABOLIC,
        (linear_fn(1.0), linear_fn(2.0), const_fn(0.0)),
        (0.5, 1.5))
    assert hyperplane_degeneracy(par).degenerate
    name, productive = PARABOLIC_CURVES[0]
    assert not hyperplane_degeneracy(productive).degenerate


# --- the per-curve jet memo ------------------------------------------------------

def test_curve_memo_evaluates_each_component_once_per_u():
    helix = elliptic_helix(0.5, 1.0, 1.3, (0.0, 4.0))
    components, counters = counted(helix.components)
    curve = GeneratingCurve(RotationType.ELLIPTIC, components, helix.domain)
    validate_surface(curve, 0.0, nu=9, nv=7)
    assert len(counters[0]) > 200  # grid, FD stencils and the 201-point scans
    for counter in counters:
        assert counter.keys() == counters[0].keys()
        assert set(counter.values()) == {1}


def test_curve_memo_misses_reach_components_swapped_in_later():
    curve = elliptic_circle(2.0)
    patch = build_surface(curve)
    curve.jets(0.5)
    components, counters = counted(curve.components)
    object.__setattr__(curve, "components", components)
    curve.jets(0.5)
    patch.jets(1.5, 0.3)
    patch.jets(1.5, 0.7)
    curve.jets(2.5)
    assert all(counter == {1.5: 1, 2.5: 1} for counter in counters)


@pytest.mark.parametrize("kind", ["generated", "reloaded", "analytic"])
def test_equal_u_columns_share_one_evaluation(kind, tmp_path):
    if kind == "generated":
        curve = generate(RotationType.ELLIPTIC, ProfileFunction.from_text("1+u/2", (0.0, 3.0)),
                         CmcParams(C=0.5), interval=(0.0, 3.0))
    elif kind == "reloaded":
        path = tmp_path / "circle.csv"
        write_curve_csv(str(path), elliptic_circle(2.0), samples=101)
        curve = load_curve(str(path))
    else:
        curve = elliptic_circle(2.0)
    fresh = replace(curve)  # the same curve with an empty memo
    calls, counters = [], []
    if curve.column is None:  # looked up one float at a time
        components, counters = counted(curve.components)
        object.__setattr__(curve, "components", components)
    else:
        column = curve.column
        object.__setattr__(curve, "column", lambda c, u: calls.append(u) or column(c, u))
    first = check_samples(curve.domain)
    second = first.copy()
    jets = curve.jets(first)
    assert curve.jets(second) is jets
    assert len(calls) == (curve.column is not None)  # one column call, or none
    assert all(len(c) == 201 and set(c.values()) == {1} for c in counters)
    for got, want in zip(jets, fresh.jets(second)):
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
